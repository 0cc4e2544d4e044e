//! Scale-axis sweep: implicit topologies from 64 to 65 536 nodes.
//!
//! Climbs a size ladder of multistage (`min-<k>x<stages>`) and
//! hierarchical (`clustered-<C>x-<inner>`) networks built through the
//! registry — all with *implicit* O(1) channel storage and lazy
//! [`SimPlan`] tables, so the 64k-node point never allocates an `n × n`
//! path table. Every rung asserts finite simulated latencies; rungs up to
//! 4 096 nodes run both engines over one shared plan and require
//! bit-identical dynamics (the differential guarantee does not weaken
//! with scale), while the 64k rung runs the event engine alone.
//!
//! Analytical overlays are deliberately absent: no backend is applicable
//! to implicit storage (`ModelError::UnsupportedTopology`), which is why
//! the ladder sweeps explicit rates rather than saturation fractions.
//!
//! Each rung reports its wall clock, flit traffic and the process peak
//! RSS (`VmHWM`) so far. The 64k rung must finish inside
//! [`RSS_BUDGET_MIB`] — the memory gate CI holds the implicit
//! representation to; exceeding it (or any non-finite latency) exits
//! nonzero. Because `VmHWM` is per process, the gate only means something
//! when this exhibit runs alone in its process — which `noc-bench
//! fig-scale` guarantees.

use noc_bench::cli::Options;
use noc_bench::Result;
use noc_sim::{build_engine_with_plan, EngineKind, SimConfig, SimPlan, SimResults};
use noc_topology::TopologySpec;
use noc_workloads::{DestinationSets, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Peak-RSS budget (MiB) for the whole ladder through the 64k quick
/// point. The dominant allocations at 65 536 nodes are the per-cv and
/// per-channel engine state (~459k channels, one vc each) plus the lazy
/// plan's memoized stream slots — tens of MiB; an `n × n` path table
/// alone would need gigabytes, so this budget fails loudly if the dense
/// path ever sneaks back in.
const RSS_BUDGET_MIB: u64 = 512;

/// The size ladder: registry spec, generation rate, and whether the rung
/// runs both engines differentially (bounded to ≤ 4 096 nodes to keep
/// the cycle engine's O(nodes · cycles) scan out of the 64k rung).
const LADDER: &[(&str, f64, bool)] = &[
    ("min-4x3", 5e-4, true),
    ("clustered-4x-mesh-8x8", 5e-4, true),
    ("min-8x3", 5e-4, true),
    ("min-16x3", 5e-4, true),
    ("min-16x4", 5e-4, false), // 65 536 terminals — the scale target
];

fn cfg(quick: bool, seed: u64) -> SimConfig {
    let (warmup, measure, drain) = if quick {
        (200, 800, 4_000)
    } else {
        (500, 3_000, 12_000)
    };
    SimConfig {
        warmup_cycles: warmup,
        measure_cycles: measure,
        drain_cycles: drain,
        backlog_limit: 500_000,
        batch_size: 16,
        ..SimConfig::quick(seed)
    }
}

/// Current peak resident set (`VmHWM`) in MiB; `None` where
/// `/proc/self/status` is unavailable (non-Linux hosts skip the gate).
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

fn assert_finite(spec: &str, engine: &str, res: &SimResults) {
    assert!(
        !res.saturated && !res.deadlocked,
        "{spec} [{engine}]: the ladder's fixed rates must stay sub-saturation"
    );
    for (what, v) in [
        ("unicast mean", res.unicast.mean),
        ("multicast mean", res.multicast.mean),
    ] {
        assert!(
            v.is_finite() && v > 0.0,
            "{spec} [{engine}]: non-finite {what} ({v})"
        );
    }
}

/// Run one rung, print its row and return the process peak RSS after it.
fn run_rung(spec_str: &str, rate: f64, differential: bool, opts: &Options) -> Result<Option<u64>> {
    let topo = TopologySpec::parse(spec_str)?.build()?;
    assert!(
        topo.network().is_implicit(),
        "{spec_str}: the scale ladder exists to exercise implicit storage"
    );

    let sets = DestinationSets::sampled(topo.as_ref(), 4, opts.seed);
    let wl = Workload::new(8, rate, 0.1, sets)?;
    let plan = SimPlan::build(topo.as_ref(), &wl)?;
    assert!(plan.is_lazy(), "{spec_str}: implicit nets get lazy plans");

    let cfg = cfg(opts.quick, opts.seed);
    let run = |kind| {
        build_engine_with_plan(topo.as_ref(), &wl, cfg.with_engine(kind), Arc::clone(&plan)).run()
    };
    let t0 = Instant::now();
    let event = run(EngineKind::EventDriven);
    let wall_ms = t0.elapsed().as_nanos() as f64 / 1e6;
    assert_finite(spec_str, "event", &event);

    if differential {
        let cycle = run(EngineKind::Cycle);
        assert_finite(spec_str, "cycle", &cycle);
        assert_eq!(event.cycles, cycle.cycles, "{spec_str}: cycles diverged");
        assert_eq!(
            event.flit_moves, cycle.flit_moves,
            "{spec_str}: flit moves diverged"
        );
        assert_eq!(
            event.total_absorbed, cycle.total_absorbed,
            "{spec_str}: absorbed counts diverged"
        );
    }

    let rss = peak_rss_mib();
    println!(
        "{:<24} {:>6} nodes {:>8} channels  {:>9.1} ms  {:>9} flits  \
         uni {:>7.2}  multi {:>7.2}  rss {:>5} MiB{}",
        spec_str,
        topo.num_nodes(),
        topo.network().num_channels(),
        wall_ms,
        event.flit_moves,
        event.unicast.mean,
        event.multicast.mean,
        rss.map_or("n/a".to_string(), |m| m.to_string()),
        if differential {
            "  [both engines, bit-identical]"
        } else {
            "  [event engine]"
        },
    );
    Ok(rss)
}

/// The `fig-scale` exhibit (see the module docs).
pub fn run(opts: &Options) -> Result<()> {
    println!("== Scale ladder: implicit topologies, explicit-rate sweep ==\n");
    let mut peak_rss = None;
    for &(spec, rate, differential) in LADDER {
        peak_rss = run_rung(spec, rate, differential, opts)?;
    }
    match peak_rss {
        Some(rss) => {
            assert!(
                rss <= RSS_BUDGET_MIB,
                "peak RSS {rss} MiB exceeds the {RSS_BUDGET_MIB} MiB budget \
                 for the 64k implicit-topology rung"
            );
            println!("\npeak RSS {rss} MiB (budget {RSS_BUDGET_MIB} MiB) — OK");
        }
        None => println!("\npeak RSS unavailable on this host; memory gate skipped"),
    }
    Ok(())
}
