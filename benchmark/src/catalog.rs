//! Names, units, directions and regression bounds of everything the
//! benchmark reports. `run --list` prints this table, `BENCHMARK.json`
//! repeats the driver-facing part of it, and a test holds the two equal.

/// A workload and why it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "fig6-sweep",
        why: "the paper's headline figure as users run it: model, bisect, plan, kernel, aggregation and sinks in their real proportions",
    },
    WorkloadInfo {
        name: "sat-kernel",
        why: "engine runs at twice the model horizon plus a closed loop: every cycle is stepped, no model, no Runner, no IO",
    },
    WorkloadInfo {
        name: "lowload-skip",
        why: "the same engine at rate 2e-5: about 6% of cycles are stepped, so calendar queue, arrival streams and span skipping dominate",
    },
    WorkloadInfo {
        name: "model-only",
        why: "no simulation: both analytical backends bisected and evaluated on seven topologies; must not move when the kernel changes",
    },
    WorkloadInfo {
        name: "scale-64k",
        why: "65 536 nodes on implicit storage and a lazy plan: the memory-bound face of the kernel and the only large peak RSS",
    },
    WorkloadInfo {
        name: "cache-io",
        why: "cold then warm result-cache pass through the vendored serde: encode and write beside read, decode and aggregate",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: host time unless the unit says otherwise, always
/// measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the earlier median by which the metric may get worse before
    /// it counts as a regression.
    pub bound: f64,
    /// Workloads it is reported on; empty = all.
    pub workloads: &'static [&'static str],
    pub what: &'static str,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

/// Bound of every host-time metric. Sized on the reference sandbox, where
/// whole runs of unchanged code come out 5-25 % apart (its two vCPUs share
/// one core's throughput): in three sets of ten runs the quartiles of
/// `wall_s` lay 2-16 % of the median apart, and a bound has to sit well above
/// that before a median outside it means anything. Memory repeats within 2 %.
const TIME_BOUND: f64 = 0.25;

/// The metrics every workload reports: the `end_to_end` list of
/// `BENCHMARK.json`, which the driver gates later changes on.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: TIME_BOUND,
        workloads: &[],
        what: "median wall of one timed repetition",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        workloads: &[],
        what: "VmHWM of the workload's own process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIME_BOUND,
        workloads: &[],
        what: "median wall of a set-up: input construction, correctness pre-checks, one warm-up repetition",
    },
];

/// End-to-end metrics that exist on some workloads only. The driver's
/// contract wants every `end_to_end` metric from every workload and none
/// that can read 0, so these stay out of `BENCHMARK.json`; `run` prints
/// them, `results.json` records them and `check-repeat` holds them to the
/// bounds below.
pub const WORKLOAD_END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ns_per_flit_move",
        unit: "ns",
        better: Better::Lower,
        bound: TIME_BOUND,
        workloads: &["sat-kernel", "lowload-skip", "scale-64k"],
        what: "median repetition wall / simulated flit moves in it",
    },
    EndToEnd {
        name: "sim_mcycles_per_s",
        unit: "Mcycles/s",
        better: Better::Higher,
        bound: TIME_BOUND,
        workloads: &["lowload-skip"],
        what: "simulated cycles / median repetition wall, in 1e6 simulated cycles per host second",
    },
    EndToEnd {
        name: "cold_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: TIME_BOUND,
        workloads: &["cache-io"],
        what: "median wall of the all-miss pass: simulate, encode, write",
    },
    EndToEnd {
        name: "warm_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: TIME_BOUND,
        workloads: &["cache-io"],
        what: "median wall of the all-hit pass: read, decode, aggregate",
    },
    EndToEnd {
        name: "model_err_mc_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.0,
        workloads: &["fig6-sweep"],
        what: "simulated quantity: mean |model - sim| / sim of multicast latency over applicable, unsaturated points; exact for a seed",
    },
    EndToEnd {
        name: "ops_failed_frac",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.0,
        workloads: &[],
        what: "failed / attempted operations (sweep point, engine run, model solve, cache job)",
    },
];

/// Where a per-layer value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Measured on a fixed case by `micro.rs`; the same whichever workload
    /// was selected.
    Fixed,
    /// Derived from the selected workload's traced repetition and its
    /// counts; 0 where the layer does no work in that workload.
    Trace,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    pub layer: &'static str,
}

const fn fixed(layer: &'static str, name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        source: Source::Fixed,
        layer,
    }
}

const fn traced(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Trace,
        layer,
    }
}

const LOWER: Better = Better::Lower;

pub const PER_LAYER: &[PerLayer] = &[
    fixed("noc-topology", "topology.build_ms", "ms"),
    fixed("noc-topology", "topology.route_dense_ns", "ns"),
    fixed("noc-topology", "topology.route_implicit_ns", "ns"),
    fixed("noc-topology", "topology.mcast_streams_us.pathbased", "us"),
    fixed("noc-topology", "topology.mcast_streams_us.dualpath", "us"),
    fixed("noc-workloads", "workloads.destsets_ms.random", "ms"),
    fixed("noc-workloads", "workloads.destsets_ms.sampled", "ms"),
    fixed("noc-sim::plan", "sim.plan.build_dense_ms", "ms"),
    fixed("noc-sim::plan", "sim.plan.build_lazy_ms", "ms"),
    fixed("noc-sim::plan", "sim.plan.lazy_path_ns", "ns"),
    fixed(
        "noc-sim::schedule",
        "sim.schedule.arrival_ns.geometric",
        "ns",
    ),
    fixed("noc-sim::schedule", "sim.schedule.arrival_ns.onoff", "ns"),
    fixed("noc-sim::schedule", "sim.schedule.arrival_ns.trace", "ns"),
    fixed("noc-sim::schedule", "sim.schedule.eventqueue_ns.n64", "ns"),
    fixed("noc-sim::schedule", "sim.schedule.eventqueue_ns.n64k", "ns"),
    fixed("noc-sim::schedule", "sim.schedule.build_all_ms.n64k", "ms"),
    fixed("noc-sim::event_engine", "sim.engine.build_ms.n64", "ms"),
    fixed("noc-sim::event_engine", "sim.engine.build_ms.n64k", "ms"),
    fixed("noc-sim::event_engine", "sim.engine.ns_per_move.low", "ns"),
    fixed("noc-sim::event_engine", "sim.engine.ns_per_move.knee", "ns"),
    fixed("noc-sim::event_engine", "sim.engine.ns_per_move.sat", "ns"),
    fixed(
        "noc-sim::event_engine",
        "sim.engine.ns_per_move.closed",
        "ns",
    ),
    fixed("noc-sim::event_engine", "sim.engine.ns_per_move.n64k", "ns"),
    fixed(
        "noc-sim::event_engine",
        "sim.engine.telemetry_ratio.ring",
        "ratio",
    ),
    fixed(
        "noc-sim::event_engine",
        "sim.engine.telemetry_ratio.full",
        "ratio",
    ),
    traced(
        "noc-sim::event_engine",
        "sim.engine.stepped_frac",
        "fraction",
        LOWER,
    ),
    traced(
        "noc-sim::event_engine",
        "sim.engine.span_hit_frac",
        "fraction",
        Better::Higher,
    ),
    traced(
        "noc-sim::event_engine",
        "sim.engine.flit_moves",
        "count",
        LOWER,
    ),
    traced("noc-sim::event_engine", "sim.engine.cycles", "count", LOWER),
    traced(
        "noc-sim::event_engine",
        "sim.engine.events_popped",
        "count",
        LOWER,
    ),
    fixed("noc-sim::engine", "sim.cycle.ns_per_move.sat", "ns"),
    fixed("noc-sim::engine", "sim.cycle.event_over_cycle.low", "ratio"),
    fixed("noc-sim::engine", "sim.cycle.event_over_cycle.sat", "ratio"),
    fixed("noc-queueing", "queueing.expmax_ns.k4", "ns"),
    fixed("noc-queueing", "queueing.expmax_ns.k16", "ns"),
    fixed("noc-queueing", "queueing.expmax_ns.k32", "ns"),
    fixed("noc-queueing", "queueing.fixed_point_iters.half", "count"),
    fixed("noc-queueing", "queueing.fixed_point_iters.near", "count"),
    fixed("quarc-core", "core.channel_loads_ms.n64", "ms"),
    fixed("quarc-core", "core.channel_loads_ms.n128", "ms"),
    fixed("quarc-core", "core.mg1_eval_ms.n16", "ms"),
    fixed("quarc-core", "core.mg1_eval_ms.n64", "ms"),
    fixed("quarc-core", "core.mg1_eval_ms.n128", "ms"),
    fixed("quarc-core", "core.nc_eval_ms.n16", "ms"),
    fixed("quarc-core", "core.nc_eval_ms.n64", "ms"),
    fixed("quarc-core", "core.nc_eval_ms.n128", "ms"),
    fixed("quarc-core", "core.bisect_ms.n64", "ms"),
    fixed("quarc-core", "core.bisect_ms.n128", "ms"),
    fixed("quarc-core", "core.bisect_evals", "count"),
    fixed("noc-telemetry", "telemetry.hist_record_ns", "ns"),
    fixed("noc-telemetry", "telemetry.hist_merge_us", "us"),
    fixed("noc-telemetry", "telemetry.chrome_trace_ms_per_100k", "ms"),
    fixed("noc-bench::scenario", "bench.scenario.validate_us", "us"),
    fixed("noc-bench::scenario", "bench.scenario.materialize_ms", "ms"),
    fixed("noc-bench::scenario", "bench.scenario.resolve_ms", "ms"),
    fixed(
        "noc-bench::scenario",
        "bench.scenario.json_roundtrip_us",
        "us",
    ),
    traced("noc-bench::runner", "bench.runner.run_ms", "ms", LOWER),
    traced(
        "noc-bench::runner",
        "bench.runner.overhead_frac",
        "fraction",
        LOWER,
    ),
    traced(
        "noc-bench::runner",
        "bench.runner.sink_json_ms",
        "ms",
        LOWER,
    ),
    traced("noc-bench::runner", "bench.runner.sink_csv_ms", "ms", LOWER),
    traced(
        "noc-bench::runner",
        "bench.runner.cache_miss_ms",
        "ms",
        LOWER,
    ),
    traced(
        "noc-bench::runner",
        "bench.runner.cache_hit_ms",
        "ms",
        LOWER,
    ),
    traced(
        "noc-bench::runner",
        "bench.runner.cache_bytes",
        "bytes",
        LOWER,
    ),
    traced(
        "noc-bench::runner",
        "bench.runner.point_p95_ms",
        "ms",
        LOWER,
    ),
    fixed("vendor/serde", "serde.simresults_encode_us", "us"),
    fixed("vendor/serde", "serde.simresults_decode_us", "us"),
    fixed("vendor/serde", "serde.simresults_bytes", "bytes"),
    PerLayer {
        name: "serde.decode_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        source: Source::Fixed,
        layer: "vendor/serde",
    },
    traced("trace", "share.inputs", "fraction", LOWER),
    traced("trace", "share.resolve", "fraction", LOWER),
    traced("trace", "share.model", "fraction", LOWER),
    traced("trace", "share.plan", "fraction", LOWER),
    traced("trace", "share.engine_build", "fraction", LOWER),
    traced("trace", "share.engine_run", "fraction", LOWER),
    traced("trace", "share.serde", "fraction", LOWER),
    traced("trace", "share.sinks", "fraction", LOWER),
    traced("trace", "share.cache_fs", "fraction", LOWER),
    traced("trace", "share.aggregate", "fraction", LOWER),
    traced("trace", "share.unattributed", "fraction", LOWER),
    traced("trace", "share.warm.serde_decode", "fraction", LOWER),
    traced("trace", "trace_overhead_frac", "fraction", LOWER),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// The table `run --list` prints.
pub fn listing() -> String {
    let mut out = String::from("workloads\n");
    for w in WORKLOADS {
        out += &format!("  {:<14} {}\n", w.name, w.why);
    }
    out += "\nend-to-end metrics, every workload (BENCHMARK.json end_to_end)\n";
    let e2e = |m: &EndToEnd| {
        let on = if m.workloads.is_empty() {
            "all".to_string()
        } else {
            m.workloads.join(", ")
        };
        format!(
            "  {:<20} {:<10} {:<7} bound {:<5} on {on}: {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        )
    };
    for m in END_TO_END {
        out += &e2e(m);
    }
    out += "\nend-to-end metrics of some workloads (printed, recorded, held by check-repeat; not in BENCHMARK.json)\n";
    for m in WORKLOAD_END_TO_END {
        out += &e2e(m);
    }
    out += "\nper-layer metrics, traced runs only (BENCHMARK.json per_layer)\n";
    for m in PER_LAYER {
        let source = match m.source {
            Source::Fixed => "fixed case",
            Source::Trace => "selected workload",
        };
        out += &format!(
            "  {:<40} {:<9} {:<7} {:<22} {source}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        for m in END_TO_END.iter().chain(WORKLOAD_END_TO_END) {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            for w in m.workloads {
                assert!(
                    workload_names().contains(w),
                    "{}: unknown workload {w}",
                    m.name
                );
            }
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }

    #[test]
    fn share_metrics_cover_the_trace_buckets() {
        for (bucket, _) in crate::trace::SHARES {
            let name = format!("share.{bucket}");
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not listed"
            );
        }
    }

    /// `--list` and `BENCHMARK.json` must agree on everything the driver
    /// reads.
    #[test]
    fn benchmark_json_agrees_with_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
        let Value::Map(entries) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strs = |v: &Value, keys: &[&str]| -> Vec<String> {
            keys.iter()
                .map(|k| match v.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    Some(Value::F64(x)) => x.to_string(),
                    other => panic!("`{k}` is {other:?}"),
                })
                .collect()
        };
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let Some(Value::Seq(items)) = doc.get(key) else {
                panic!("`{key}` is not a list")
            };
            for item in items {
                let Value::Map(m) = item else {
                    panic!("`{key}` holds a non-object")
                };
                assert_eq!(
                    m.len(),
                    fields.len(),
                    "`{key}` entries have exactly {fields:?}"
                );
            }
            items.iter().map(|i| strs(i, fields)).collect()
        };
        let own = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            rows("workloads", &["name", "why"]),
            WORKLOADS
                .iter()
                .map(|w| own(&[w.name, w.why]))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            END_TO_END
                .iter()
                .map(|m| own(&[m.name, m.unit, m.better.as_str(), &m.bound.to_string()]))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            rows("per_layer", &["name", "unit", "better"]),
            PER_LAYER
                .iter()
                .map(|m| own(&[m.name, m.unit, m.better.as_str()]))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds"),
            Some(&Value::U64(crate::params::DEFAULT_SECONDS))
        );
        assert_eq!(
            doc.get("paths"),
            Some(&Value::Seq(vec![Value::Str("benchmark".into())]))
        );
    }
}
