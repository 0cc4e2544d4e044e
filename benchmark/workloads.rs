//! Every literal the six workloads run on: topology specs, rates, window
//! lengths, repetition counts. The bodies in `src/bodies.rs` read this
//! table and hold no numbers of their own, so "what does the benchmark
//! run" has one answer and one place to change it.
//!
//! Rates written here are *literals*: they were sized once against the
//! M/G/1 horizon and are never re-derived from the model at run time, so a
//! change to the model cannot silently move the simulator's load.

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Seconds one run measures for when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;
/// Fewest timed repetitions of a workload body, however short `--seconds`.
pub const MIN_REPS: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Untimed-by-the-metrics repetitions a traced run makes with tracing off,
/// the denominator of `trace_overhead_frac`.
pub const TRACE_BASELINE_REPS: usize = 5;
/// Traced repetitions of a traced run; the one with the median wall is the
/// one the trace-derived metrics are read from.
pub const TRACED_REPS: usize = 3;

/// Simulator run-length windows, in cycles.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    pub warmup: u64,
    pub measure: u64,
    pub drain: u64,
}

/// Traffic shared by every open-loop engine and model case: `M` flits,
/// multicast fraction `alpha`, a random destination group of
/// `nodes / group_divisor` per node.
#[derive(Clone, Copy, Debug)]
pub struct Traffic {
    pub msg_len: u32,
    pub alpha: f64,
    pub group_divisor: usize,
}

pub const TRAFFIC: Traffic = Traffic {
    msg_len: 32,
    alpha: 0.05,
    group_divisor: 4,
};

/// Engine settings outside the windows (the values `perf-smoke` uses).
pub const BUFFER_DEPTH: u32 = 2;
pub const BACKLOG_LIMIT: usize = 50_000;
pub const BATCH_SIZE: u64 = 32;

/// One open-loop engine case: a registry topology at a literal rate.
#[derive(Clone, Copy, Debug)]
pub struct EngineCase {
    pub topology: &'static str,
    pub rate: f64,
}

// ---------------------------------------------------------------- fig6-sweep

/// Sweep points per panel (`fig6 --quick --points 8`).
pub const FIG6_POINTS: usize = 8;

// ---------------------------------------------------------------- sat-kernel

/// Rates are about twice the M/G/1 horizon of each topology under
/// [`TRAFFIC`], so nearly every cycle is stepped.
pub const SAT_KERNEL_CASES: &[EngineCase] = &[
    EngineCase {
        topology: "quarc-64",
        rate: 0.0024,
    },
    EngineCase {
        topology: "mesh-8x8",
        rate: 0.0033,
    },
    EngineCase {
        topology: "torus-8x8",
        rate: 0.0038,
    },
    EngineCase {
        topology: "hypercube-6",
        rate: 0.0052,
    },
];
pub const SAT_KERNEL_WINDOWS: Windows = Windows {
    warmup: 2_000,
    measure: 20_000,
    drain: 10_000,
};

/// The closed-loop case of `sat-kernel`: coherence on a mesh.
#[derive(Clone, Copy, Debug)]
pub struct ClosedCase {
    pub topology: &'static str,
    pub msg_len: u32,
    pub window: u32,
    pub requests: u32,
    pub write_fraction: f64,
    /// Deadline windows; the run ends at quiescence long before.
    pub windows: Windows,
}
pub const SAT_KERNEL_CLOSED: ClosedCase = ClosedCase {
    topology: "mesh-8x8",
    msg_len: 8,
    window: 8,
    requests: 192,
    write_fraction: 0.1,
    windows: Windows {
        warmup: 0,
        measure: 2_000_000,
        drain: 0,
    },
};

// -------------------------------------------------------------- lowload-skip

pub const LOWLOAD_RATE: f64 = 2e-5;
pub const LOWLOAD_TOPOLOGIES: &[&str] = &["quarc-64", "mesh-8x8", "quarc-128", "hypercube-6"];
pub const LOWLOAD_WINDOWS: Windows = Windows {
    warmup: 100_000,
    measure: 20_000_000,
    drain: 100_000,
};
/// The set-up differential check (both engines) runs the same cases with
/// the measurement window divided by this: the cycle oracle steps every
/// cycle and cannot afford the full window.
pub const LOWLOAD_GATE_DIVISOR: u64 = 20;

// ---------------------------------------------------------------- model-only

/// Model cases: `(topology, dual-path too?)`. Every case is solved on both
/// backends under [`TRAFFIC`].
pub const MODEL_TOPOLOGIES: &[(&str, bool)] = &[
    ("quarc-16", false),
    ("quarc-64", false),
    ("quarc-128", false),
    ("mesh-8x8", true),
    ("torus-8x8", false),
    ("hypercube-6", false),
    ("ring-32", false),
];
/// The literal value of `noc_bench::scenario`'s private `SATURATION_TOL`.
pub const SATURATION_TOL: f64 = 0.01;
/// Load fractions of each backend's own horizon, the figures' span.
pub const MODEL_FRACTION_LO: f64 = 0.15;
pub const MODEL_FRACTION_HI: f64 = 1.02;
pub const MODEL_FRACTIONS: usize = 8;

// ----------------------------------------------------------------- scale-64k

/// `fig-scale`'s top rung with its full (non-quick) windows.
pub const SCALE_TOPOLOGY: &str = "min-16x4";
/// The rung below, small enough for the cycle oracle: the set-up
/// differential check runs here.
pub const SCALE_GATE_TOPOLOGY: &str = "min-16x3";
pub const SCALE_GROUP: usize = 4;
pub const SCALE_MSG_LEN: u32 = 8;
pub const SCALE_RATE: f64 = 5e-4;
pub const SCALE_ALPHA: f64 = 0.1;
pub const SCALE_WINDOWS: Windows = Windows {
    warmup: 500,
    measure: 3_000,
    drain: 12_000,
};
pub const SCALE_BACKLOG_LIMIT: usize = 500_000;
pub const SCALE_BATCH_SIZE: u64 = 16;

// ------------------------------------------------------------------ cache-io

pub const CACHE_REPLICATES: u32 = 3;
/// Rates are `i × CACHE_RATE_UNIT / N` for `i = 1..=CACHE_POINTS`: low to
/// mid load on every panel, no bisection.
pub const CACHE_RATE_UNIT: f64 = 0.0032;
pub const CACHE_POINTS: usize = 8;

// --------------------------------------------------- per-layer measurements

/// Fixed cases of the per-layer measurements (traced runs only).
pub mod micro {
    use super::Windows;

    /// Dense routing and plan tables.
    pub const DENSE_SMALL: &str = "quarc-64";
    pub const DENSE_LARGE: &str = "quarc-128";
    /// Stream construction per routing scheme.
    pub const STREAMS_TOPOLOGY: &str = "mesh-8x8";
    /// Sampled source/destination pairs on the implicit topology.
    pub const IMPLICIT_PAIRS: usize = 200_000;
    /// Arrivals drawn per sample of `sim.schedule.arrival_ns.*`
    /// (the `traffic-gen` bench's set-up: quarc-16 at rate 0.02).
    pub const ARRIVAL_NODES: usize = 16;
    pub const ARRIVAL_RATE: f64 = 0.02;
    pub const ARRIVALS: u64 = 20_000;
    pub const ONOFF_BURST_LEN: f64 = 16.0;
    pub const ONOFF_PEAK_RATE: f64 = 0.5;
    /// Push/pop pairs per sample of `sim.schedule.eventqueue_ns.*`.
    pub const QUEUE_OPS: u64 = 200_000;
    /// `sim.engine.ns_per_move.*` on `quarc-64`: fractions of the literal
    /// horizon below (half of `sat-kernel`'s rate).
    pub const ENGINE_HORIZON: f64 = 0.0012;
    pub const ENGINE_LOW: f64 = 0.02;
    pub const ENGINE_KNEE: f64 = 0.9;
    pub const ENGINE_SAT: f64 = 2.0;
    pub const ENGINE_WINDOWS: Windows = Windows {
        warmup: 1_000,
        measure: 8_000,
        drain: 20_000,
    };
    /// The low-load point needs a long window to carry any traffic.
    pub const ENGINE_LOW_WINDOWS: Windows = Windows {
        warmup: 10_000,
        measure: 400_000,
        drain: 20_000,
    };
    /// The 64k engine point uses `fig-scale --quick` windows.
    pub const ENGINE_N64K_WINDOWS: Windows = Windows {
        warmup: 200,
        measure: 800,
        drain: 4_000,
    };
    /// Telemetry ratios: ring capacity and utilization window.
    pub const RING_CAPACITY: u32 = 65_536;
    pub const UTIL_WINDOW: u32 = 1_000;
    /// Group sizes of `queueing.expmax_ns.*`.
    pub const EXPMAX_SIZES: [usize; 3] = [4, 16, 32];
    /// Load fractions of `queueing.fixed_point_iters.*` and of the
    /// single-evaluate model timings.
    pub const MODEL_HALF: f64 = 0.5;
    pub const MODEL_NEAR: f64 = 0.95;
    /// Samples recorded per `telemetry.hist_record_ns` sample.
    pub const HIST_SAMPLES: u64 = 1_000_000;
}
