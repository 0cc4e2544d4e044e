//! Differential suite: the event-driven engine must reproduce the
//! cycle-stepped reference engine **bit-for-bit** under a shared seed —
//! same delivered counts, same latency samples in the same order (hence
//! bit-identical means and confidence intervals), same cycle counts, same
//! per-channel utilisation — on every topology, at low and mid load, and
//! across early-termination paths (saturation, backlog overflow).

use proptest::prelude::*;
use quarc_noc::bench::harness::{default_panels, Pattern};
use quarc_noc::prelude::*;
use quarc_noc::sim::{EngineAudit, EngineKind, SimConfig, SimResults};

/// The oracle first, then the engine under test.
const KINDS: [EngineKind; 2] = [EngineKind::Cycle, EngineKind::EventDriven];

/// Run both engines on the same (topology, workload, seed) and return
/// their results as (cycle, event).
fn both(topo: &dyn Topology, wl: &Workload, cfg: SimConfig) -> (SimResults, SimResults) {
    let [(cycle, _), (event, _)] = both_audited(topo, wl, cfg);
    (cycle, event)
}

/// [`both`] with each engine's post-run audit (which must pass).
fn both_audited(
    topo: &dyn Topology,
    wl: &Workload,
    cfg: SimConfig,
) -> [(SimResults, EngineAudit); 2] {
    KINDS.map(|kind| {
        let mut sim = Engine::new(topo, wl, cfg.with_engine(kind));
        let res = sim.run();
        let audit = sim
            .audit()
            .unwrap_or_else(|e| panic!("{kind:?} engine audit: {e}"));
        (res, audit)
    })
}

/// Bitwise equality for f64 statistics (NaN-safe: both engines must
/// produce the same bits, including for empty-population NaNs).
fn assert_f64_bits(a: f64, b: f64, what: &str, ctx: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{ctx}: {what} differs: cycle {a} vs event {b}"
    );
}

fn assert_stats_equal(
    a: &quarc_noc::sim::LatencyStats,
    b: &quarc_noc::sim::LatencyStats,
    ctx: &str,
) {
    assert_eq!(a.count, b.count, "{ctx}: sample count");
    assert_f64_bits(a.mean, b.mean, "mean", ctx);
    assert_f64_bits(a.ci95, b.ci95, "ci95", ctx);
    assert_f64_bits(a.min, b.min, "min", ctx);
    assert_f64_bits(a.max, b.max, "max", ctx);
}

fn assert_runs_identical(cycle: &SimResults, event: &SimResults, ctx: &str) {
    // Termination trajectory.
    assert_eq!(cycle.cycles, event.cycles, "{ctx}: cycle count");
    assert_eq!(cycle.saturated, event.saturated, "{ctx}: saturation flag");
    assert_eq!(cycle.deadlocked, event.deadlocked, "{ctx}: deadlock flag");

    // Conservation counters.
    assert_eq!(
        cycle.total_generated, event.total_generated,
        "{ctx}: generated"
    );
    assert_eq!(
        cycle.total_absorbed, event.total_absorbed,
        "{ctx}: absorbed"
    );
    assert_eq!(cycle.flit_moves, event.flit_moves, "{ctx}: flit moves");
    assert_eq!(
        cycle.peak_backlog, event.peak_backlog,
        "{ctx}: peak backlog"
    );

    // Delivered-message counts.
    assert_eq!(
        cycle.unicast_injected, event.unicast_injected,
        "{ctx}: uni inj"
    );
    assert_eq!(
        cycle.unicast_delivered, event.unicast_delivered,
        "{ctx}: uni del"
    );
    assert_eq!(
        cycle.multicast_injected, event.multicast_injected,
        "{ctx}: mc inj"
    );
    assert_eq!(
        cycle.multicast_delivered, event.multicast_delivered,
        "{ctx}: mc del"
    );

    // Latency populations, bit-identical (same samples in the same order).
    assert_stats_equal(&cycle.unicast, &event.unicast, ctx);
    assert_stats_equal(&cycle.multicast, &event.multicast, ctx);
    assert_eq!(
        cycle.multicast_by_source.len(),
        event.multicast_by_source.len(),
        "{ctx}: per-source stats arity"
    );
    for (i, (c, e)) in cycle
        .multicast_by_source
        .iter()
        .zip(&event.multicast_by_source)
        .enumerate()
    {
        assert_stats_equal(c, e, &format!("{ctx} (source {i})"));
    }

    // Per-channel utilisation, exact.
    assert_eq!(
        cycle.channel_utilization.len(),
        event.channel_utilization.len(),
        "{ctx}: utilisation arity"
    );
    for (ch, (c, e)) in cycle
        .channel_utilization
        .iter()
        .zip(&event.channel_utilization)
        .enumerate()
    {
        assert_f64_bits(*c, *e, &format!("utilisation of channel {ch}"), ctx);
    }

    // Flight-recorder artifacts: the streaming latency histograms and the
    // windowed utilization series are integer-counted and must match
    // exactly. The raw event trace is *excluded*: the engines schedule
    // work in different orders inside a cycle (documented on
    // `SimResults::trace`), so only its derived aggregates are contracts.
    assert_eq!(
        cycle.latency_hists, event.latency_hists,
        "{ctx}: latency histograms"
    );
    assert_eq!(cycle.util, event.util, "{ctx}: utilization series");
}

/// Seeded low/mid-load differential run on one topology.
fn check_topology(topo: &dyn Topology, rates: &[f64], alpha: f64, group: usize, seed: u64) {
    let sets = DestinationSets::random(topo, group, seed);
    for &rate in rates {
        let wl = Workload::new(16, rate, alpha, sets.clone()).unwrap();
        let (cycle, event) = both(topo, &wl, SimConfig::quick(seed));
        let ctx = format!("{} rate {rate}", topo.name());
        assert!(
            cycle.total_generated > 0,
            "{ctx}: the run must generate traffic"
        );
        assert_runs_identical(&cycle, &event, &ctx);
    }
}

#[test]
fn quarc_low_and_mid_load_identical() {
    let topo = Quarc::new(16).unwrap();
    check_topology(&topo, &[0.002, 0.012], 0.05, 4, 11);
}

#[test]
fn ring_low_and_mid_load_identical() {
    let topo = Ring::new(9).unwrap();
    check_topology(&topo, &[0.002, 0.010], 0.08, 3, 13);
}

#[test]
fn mesh_low_and_mid_load_identical() {
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    check_topology(&topo, &[0.002, 0.008], 0.08, 4, 17);
}

#[test]
fn torus_low_and_mid_load_identical() {
    let topo = Mesh::new(4, 4, MeshKind::Torus).unwrap();
    check_topology(&topo, &[0.002, 0.008], 0.08, 4, 19);
}

#[test]
fn spidergon_low_and_mid_load_identical() {
    let topo = Spidergon::new(12).unwrap();
    check_topology(&topo, &[0.001, 0.006], 0.05, 4, 23);
}

#[test]
fn hypercube_low_and_mid_load_identical() {
    let topo = Hypercube::new(4).unwrap();
    check_topology(&topo, &[0.002, 0.010], 0.05, 4, 29);
}

#[test]
fn min_low_and_mid_load_identical() {
    // Implicit storage + lazy plan: the engines memoize stream tables on
    // demand in different orders, which must not leak into the results.
    let topo = Min::new(2, 4).unwrap();
    check_topology(&topo, &[0.002, 0.010], 0.05, 4, 73);
}

#[test]
fn clustered_low_and_mid_load_identical() {
    let inner: std::sync::Arc<dyn Topology> = std::sync::Arc::new(Quarc::new(8).unwrap());
    let topo = Clustered::new(2, inner).unwrap();
    check_topology(&topo, &[0.002, 0.010], 0.05, 4, 79);
}

#[test]
fn min_saturated_load_breaks_identically() {
    // One-port butterfly under far-past-knee load: the backlog break must
    // land on the same cycle even though the lazy plan forces its stream
    // tables mid-run.
    let topo = Min::new(2, 4).unwrap();
    let sets = DestinationSets::random(&topo, 4, 83);
    let wl = Workload::new(64, 0.8, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(83);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated, "rate 0.8 with 64-flit messages saturates");
    assert_runs_identical(&cycle, &event, "min saturated");
}

#[test]
fn clustered_saturated_load_breaks_identically() {
    // The express crossbar is the bottleneck: inter-cluster traffic piles
    // onto one gateway link per cluster pair.
    let inner: std::sync::Arc<dyn Topology> = std::sync::Arc::new(Quarc::new(8).unwrap());
    let topo = Clustered::new(2, inner).unwrap();
    let sets = DestinationSets::random(&topo, 4, 89);
    let wl = Workload::new(64, 0.8, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(89);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated, "rate 0.8 with 64-flit messages saturates");
    assert_runs_identical(&cycle, &event, "clustered saturated");
}

#[test]
fn every_routing_scheme_is_engine_bit_identical() {
    // The engines replay the SimPlan's stream tables, so equivalence must
    // hold per routing scheme, not just for the default path-based one.
    use quarc_noc::topology::ALL_ROUTINGS;
    let quarc = Quarc::new(16).unwrap();
    let mesh = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let cube = Hypercube::new(4).unwrap();
    let topos: [&dyn Topology; 3] = [&quarc, &mesh, &cube];
    for topo in topos {
        let sets = DestinationSets::random(topo, 4, 37);
        for routing in ALL_ROUTINGS {
            for rate in [0.002, 0.010] {
                let wl = Workload::new(16, rate, 0.08, sets.clone())
                    .unwrap()
                    .with_routing(routing);
                let (cycle, event) = both(topo, &wl, SimConfig::quick(37));
                let ctx = format!("{} {routing} rate {rate}", topo.name());
                assert!(cycle.multicast_injected > 0, "{ctx}: multicast ran");
                assert_runs_identical(&cycle, &event, &ctx);
            }
        }
    }
}

#[test]
fn saturating_runs_break_identically() {
    // Early termination paths (backlog overflow / drain deadline) must
    // happen on the same cycle with the same flags.
    let topo = Quarc::new(8).unwrap();
    let sets = DestinationSets::random(&topo, 2, 3);
    let wl = Workload::new(64, 0.9, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(13);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated);
    assert_runs_identical(&cycle, &event, "quarc saturating");
}

#[test]
fn mesh_saturated_load_breaks_identically() {
    // Saturated mesh: the calendar queue sees dense same-cycle arrival
    // bursts and bodies coast beside blocked traffic; the early backlog
    // break must still land on the same cycle with identical statistics.
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 4, 41);
    let wl = Workload::new(64, 0.8, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(41);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated, "rate 0.8 with 64-flit messages saturates");
    assert_runs_identical(&cycle, &event, "mesh saturated");
}

#[test]
fn torus_saturated_load_breaks_identically() {
    // Same probe on the torus, whose wraparound channels give the
    // dateline vc switch plenty of exercise under full backpressure.
    let topo = Mesh::new(4, 4, MeshKind::Torus).unwrap();
    let sets = DestinationSets::random(&topo, 4, 43);
    let wl = Workload::new(64, 0.8, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(43);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated, "rate 0.8 with 64-flit messages saturates");
    assert_runs_identical(&cycle, &event, "torus saturated");
}

#[test]
fn near_knee_load_identical() {
    // Heavy-but-draining load: the event engine spends most cycles in
    // active stepping rather than skipping; equality must still be exact.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 7);
    let wl = Workload::new(32, 0.02, 0.10, sets).unwrap();
    let (cycle, event) = both(&topo, &wl, SimConfig::quick(31));
    assert_runs_identical(&cycle, &event, "quarc near knee");
}

#[test]
fn zero_rate_runs_terminate_identically() {
    // With no traffic at all the run must end at the measurement boundary
    // on both engines (the event engine jumps there in one hop).
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 1);
    let wl = Workload::new(16, 0.0, 0.0, sets).unwrap();
    let (cycle, event) = both(&topo, &wl, SimConfig::quick(1));
    assert_runs_identical(&cycle, &event, "quarc zero rate");
    assert_eq!(cycle.cycles, SimConfig::quick(1).measure_end());
}

// ---------------------------------------------------------------------
// Closed-loop protocols: the per-node machines must replay bit-
// identically on both engines — same event order, same RNG draws, same
// injections, same quiescence cycle.
// ---------------------------------------------------------------------

/// Run both engines closed-loop on the same (topology, sets, spec,
/// config); `cfg.seed` seeds the protocol too.
fn both_closed(
    topo: &dyn Topology,
    sets: DestinationSets,
    spec: &ClosedLoopSpec,
    cfg: SimConfig,
) -> (SimResults, SimResults) {
    let wl = Workload::new(8, 0.0, 0.0, sets).unwrap();
    let [cycle, event] = KINDS.map(|kind| {
        let mut sim = Engine::new(topo, &wl, cfg.with_engine(kind));
        sim.install_closed_loop(spec, cfg.seed);
        sim.run()
    });
    (cycle, event)
}

fn assert_closed_identical(cycle: &SimResults, event: &SimResults, ctx: &str) {
    assert_runs_identical(cycle, event, ctx);
    // A delivery can inject the next message: closed loops are stepped,
    // but a landed body coasts between deliveries. Quarc coherence
    // settles 18 644 of its 95 776 flit moves so, mesh 11 536 of 98 984.
    assert_eq!(event.engine.flights, 0, "{ctx}: closed loops never fly");
    assert!(event.engine.coasts > 0, "{ctx}: nothing coasted");
    let c = cycle.closed_loop.as_ref().expect("cycle closed-loop stats");
    let e = event.closed_loop.as_ref().expect("event closed-loop stats");
    assert_eq!(c.requests_issued, e.requests_issued, "{ctx}: issued");
    assert_eq!(c.requests_retired, e.requests_retired, "{ctx}: retired");
    assert_stats_equal(&c.completion, &e.completion, ctx);
    assert_f64_bits(c.avg_outstanding, e.avg_outstanding, "avg outstanding", ctx);
    assert_f64_bits(c.ops_per_cycle, e.ops_per_cycle, "ops per cycle", ctx);
    assert_eq!(c.quiesced, e.quiesced, "{ctx}: quiesced flag");
    assert_eq!(c.quiesce_cycle, e.quiesce_cycle, "{ctx}: quiescence cycle");
    assert_eq!(
        c.completion_hist, e.completion_hist,
        "{ctx}: completion histogram"
    );
}

#[test]
fn coherence_closed_loop_identical_on_quarc_and_mesh() {
    let spec = ClosedLoopSpec::Coherence {
        window: 4,
        requests: 40,
        write_fraction: 0.3,
    };
    let quarc = Quarc::new(16).unwrap();
    let mesh = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let topos: [&dyn Topology; 2] = [&quarc, &mesh];
    for topo in topos {
        let sets = DestinationSets::random(topo, 4, 51);
        let (cycle, event) = both_closed(topo, sets, &spec, SimConfig::quick(51));
        let ctx = format!("{} coherence", topo.name());
        let cl = cycle.closed_loop.as_ref().unwrap();
        assert!(cl.quiesced, "{ctx}: must quiesce");
        assert_eq!(cl.requests_retired, 16 * 40, "{ctx}: every request retires");
        assert_closed_identical(&cycle, &event, &ctx);
    }
}

#[test]
fn barrier_closed_loop_identical_on_quarc_and_torus() {
    // The barrier exercises the timer path (compute delays) and the
    // broadcast release; its fan-in tree must converge identically.
    let spec = ClosedLoopSpec::Barrier {
        rounds: 6,
        radix: 2,
        compute: 12,
    };
    let quarc = Quarc::new(16).unwrap();
    let torus = Mesh::new(4, 4, MeshKind::Torus).unwrap();
    let topos: [&dyn Topology; 2] = [&quarc, &torus];
    for topo in topos {
        let sets = DestinationSets::broadcast(topo);
        let (cycle, event) = both_closed(topo, sets, &spec, SimConfig::quick(53));
        let ctx = format!("{} barrier", topo.name());
        let cl = cycle.closed_loop.as_ref().unwrap();
        assert!(cl.quiesced, "{ctx}: must quiesce");
        assert_eq!(cl.requests_retired, 16 * 6, "{ctx}: every round retires");
        assert_closed_identical(&cycle, &event, &ctx);
    }
}

#[test]
fn closed_loop_seeds_decorrelate_but_replay() {
    // Same seed → bit-identical; different master seed → different
    // trajectory (the protocol RNGs really are seeded per run).
    let topo = Quarc::new(16).unwrap();
    let spec = ClosedLoopSpec::Coherence {
        window: 2,
        requests: 24,
        write_fraction: 0.5,
    };
    let sets = DestinationSets::random(&topo, 4, 57);
    let (a, _) = both_closed(&topo, sets.clone(), &spec, SimConfig::quick(57));
    let (b, _) = both_closed(&topo, sets.clone(), &spec, SimConfig::quick(57));
    assert_eq!(a.flit_moves, b.flit_moves, "same seed replays");
    assert_eq!(a.cycles, b.cycles);
    let (c, _) = both_closed(&topo, sets, &spec, SimConfig::quick(58));
    assert_ne!(
        a.flit_moves, c.flit_moves,
        "different master seed, different run"
    );
}

// ---------------------------------------------------------------------
// Flight recorder: enabling telemetry must not perturb the simulation,
// and the telemetry the two engines record must itself be identical
// (utilization series exactly; traces compared as multisets since the
// engines order same-cycle work differently).
// ---------------------------------------------------------------------

/// A flight records no trace event, so a run with telemetry installed
/// declines them all: the event side here is idle jumps and coasts. A
/// cycle on which only a coast moves traces no `Stall`, as on the oracle.
#[test]
fn telemetry_on_both_engines_stays_bit_identical() {
    use quarc_noc::sim::TelemetrySpec;
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 61);
    for rate in [0.002, 0.012] {
        let wl = Workload::new(16, rate, 0.05, sets.clone()).unwrap();
        let cfg = SimConfig::quick(61).with_telemetry(TelemetrySpec::flight_recorder(1 << 16, 64));
        let (cycle, event) = both(&topo, &wl, cfg);
        let ctx = format!("quarc telemetry-on rate {rate}");
        assert_runs_identical(&cycle, &event, &ctx);
        assert_eq!(event.engine.flights, 0, "{ctx}: telemetry declines flights");
        assert!(event.engine.coasts > 0, "{ctx}: nothing coasted");
        let cu = cycle.util.as_ref().expect("cycle util captured");
        assert!(cu.num_windows() > 0, "{ctx}: windows recorded");
        // Same flit movement → same trace *population*, even though the
        // engines emit same-cycle events in different orders.
        let ct = cycle.trace.as_ref().expect("cycle trace captured");
        let et = event.trace.as_ref().expect("event trace captured");
        assert_eq!(ct.dropped, 0, "{ctx}: ring big enough for a quick run");
        let key = |t: &quarc_noc::sim::TraceLog| {
            let mut k: Vec<(u64, u8, u32)> = t
                .events
                .iter()
                .map(|e| (e.at, e.kind as u8, e.loc))
                .collect();
            k.sort_unstable();
            k
        };
        assert_eq!(key(ct), key(et), "{ctx}: trace multisets");
    }
}

#[test]
fn telemetry_is_observation_only() {
    use quarc_noc::sim::TelemetrySpec;
    // The PR 6 guard: a run with the flight recorder on must report the
    // same simulation — every pre-telemetry field bit-identical — as the
    // same run with it off, on both engines. On the event engine that now
    // compares a stepped run (telemetry declines every flight) with one
    // whose uncontended arrivals flew.
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 4, 67);
    let wl = Workload::new(16, 0.008, 0.08, sets).unwrap();
    let base = SimConfig::quick(67);
    let on = base.with_telemetry(TelemetrySpec::flight_recorder(1 << 16, 128));
    let (cycle_off, event_off) = both(&topo, &wl, base);
    let (cycle_on, event_on) = both(&topo, &wl, on);
    assert_eq!(event_on.engine.flights, 0, "telemetry declines flights");
    assert!(event_off.engine.flights > 0, "without it, arrivals fly");
    for (off, on, ctx) in [
        (&cycle_off, &cycle_on, "cycle on-vs-off"),
        (&event_off, &event_on, "event on-vs-off"),
    ] {
        assert_eq!(off.cycles, on.cycles, "{ctx}: cycle count");
        assert_eq!(off.flit_moves, on.flit_moves, "{ctx}: flit moves");
        assert_eq!(off.total_absorbed, on.total_absorbed, "{ctx}: absorbed");
        assert_stats_equal(&off.unicast, &on.unicast, ctx);
        assert_stats_equal(&off.multicast, &on.multicast, ctx);
        for (c, e) in off.channel_utilization.iter().zip(&on.channel_utilization) {
            assert_f64_bits(*c, *e, "channel utilization", ctx);
        }
        assert!(
            off.trace.is_none() && off.util.is_none(),
            "{ctx}: off is off"
        );
        assert!(on.trace.is_some() && on.util.is_some(), "{ctx}: on is on");
    }
}

#[test]
fn closed_loop_telemetry_identical_and_offsets_re_zeroed() {
    use quarc_noc::sim::TelemetrySpec;
    // Closed-loop runs measure from cycle 1 (no warmup): the utilization
    // series must start at window 0, and both engines must agree on it.
    let topo = Quarc::new(16).unwrap();
    let spec = ClosedLoopSpec::Coherence {
        window: 4,
        requests: 24,
        write_fraction: 0.3,
    };
    let sets = DestinationSets::random(&topo, 4, 71);
    let cfg = SimConfig::quick(71).with_telemetry(TelemetrySpec::flight_recorder(1 << 16, 64));
    let (cycle, event) = both_closed(&topo, sets, &spec, cfg);
    assert_closed_identical(&cycle, &event, "quarc coherence telemetry");
    let util = cycle.util.as_ref().expect("util captured");
    assert!(
        util.counts
            .first()
            .is_some_and(|w| w.iter().any(|&c| c > 0)),
        "first window carries traffic — offsets re-zeroed, not warmup-shifted"
    );
    let hist = &cycle.closed_loop.as_ref().unwrap().completion_hist;
    assert_eq!(hist.count(), 16 * 24, "one completion sample per request");
}

#[test]
fn shared_plan_differential_pair_is_identical_too() {
    // The intended production setup: one SimPlan serving both engines.
    use quarc_noc::sim::{build_engine_with_plan, SimPlan};
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(16, 0.006, 0.1, sets).unwrap();
    let plan = SimPlan::build(&topo, &wl).expect("plan builds");
    let cfg = SimConfig::quick(43);
    let cycle = build_engine_with_plan(
        &topo,
        &wl,
        cfg.with_engine(EngineKind::Cycle),
        std::sync::Arc::clone(&plan),
    )
    .run();
    let event =
        build_engine_with_plan(&topo, &wl, cfg.with_engine(EngineKind::EventDriven), plan).run();
    assert_runs_identical(&cycle, &event, "quarc shared plan");
}

// ---------------------------------------------------------------------
// Flights: an arrival that finds the fabric empty gathers every arrival
// due before the group's running end, and a group whose members hold no
// channel over overlapping cycles is applied in closed form
// (`Fabric::admit`, `Fabric::fly_group`). The oracle never flies, so every
// comparison below is flown vs stepped.
// ---------------------------------------------------------------------

fn topology(spec: &str) -> Box<dyn Topology> {
    TopologySpec::parse(spec).unwrap().build().unwrap()
}

/// The eight topology families at 9–64 nodes.
const FAMILIES: [&str; 8] = [
    "quarc-16",
    "ring-9",
    "mesh-4x4",
    "torus-4x4",
    "spidergon-12",
    "hypercube-4",
    "min-4x3",
    "clustered-2x-quarc-8",
];

#[test]
fn flights_are_bit_identical_on_every_family_and_path_scheme() {
    // 16-flit messages saturate these networks near 0.01 messages per
    // node and cycle; 2e-4 and 5e-4 are 1–5 % of that, where most
    // arrivals find the fabric empty. `min-4x3` plans lazily.
    for spec in FAMILIES {
        let topo = topology(spec);
        let sets = DestinationSets::random(topo.as_ref(), 4, 97);
        for routing in [RoutingSpec::PathBased, RoutingSpec::DualPath] {
            for rate in [2e-4, 5e-4] {
                let wl = Workload::new(16, rate, 0.1, sets.clone())
                    .unwrap()
                    .with_routing(routing);
                if SimPlan::build(topo.as_ref(), &wl).is_err() {
                    continue; // dual-path on a one-port router
                }
                let (cycle, event) = both(topo.as_ref(), &wl, SimConfig::quick(97));
                let ctx = format!("{spec} {routing} rate {rate}");
                assert_runs_identical(&cycle, &event, &ctx);
                assert!(cycle.multicast_delivered > 0, "{ctx}: multicasts ran");
                assert_eq!(cycle.engine.flights, 0, "{ctx}: the oracle never flies");
                assert!(event.engine.flights > 0, "{ctx}: nothing flew");
                assert!(
                    event.engine.flight_cycles > 16 * event.engine.flights,
                    "{ctx}: a flight covers the message and its hops"
                );
            }
        }
    }
}

/// `count` arrivals of `kind(i)` from node `4 i mod n`, 500 cycles apart
/// from cycle 4000 on: far enough for each to finish alone.
fn lone_arrivals(n: u32, count: u32, kind: impl Fn(u32) -> TraceKind) -> TrafficSpec {
    let entry = |i| TraceEntry {
        cycle: 4000 + 500 * u64::from(i),
        node: 4 * i % n,
        kind: kind(i),
    };
    TrafficSpec::trace((0..count).map(entry).collect())
}

#[test]
fn multicasts_whose_streams_share_a_channel_are_stepped() {
    // On quarc-16 the unicast tree sends every copy through one
    // injection channel and multipath streams share a prefix link: the
    // copies' windows on it overlap, so a group holding such an operation
    // is declined, here a group of one. Path-based streams leave through
    // a port each and fly.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 6, 101);
    let multicasts = lone_arrivals(16, 12, |_| TraceKind::Multicast);
    for (routing, flown) in [
        (RoutingSpec::PathBased, 12),
        (RoutingSpec::UnicastTree, 0),
        (RoutingSpec::Multipath, 0),
    ] {
        let wl = Workload::new(16, 0.0, 0.1, sets.clone())
            .unwrap()
            .with_routing(routing)
            .with_traffic(multicasts.clone());
        let (cycle, event) = both(&topo, &wl, SimConfig::quick(101));
        let ctx = format!("quarc-16 {routing} multicasts");
        assert_eq!(cycle.multicast_delivered, 12, "{ctx}: every operation ran");
        assert_runs_identical(&cycle, &event, &ctx);
        assert_eq!(event.engine.flights, flown, "{ctx}: flights");
    }
    // Their unicasts fly whatever the multicast scheme.
    let mixed = lone_arrivals(16, 12, |i| match i % 2 {
        0 => TraceKind::Multicast,
        _ => TraceKind::Unicast {
            dst: (4 * i + 7) % 16,
        },
    });
    let wl = Workload::new(16, 0.0, 0.1, sets)
        .unwrap()
        .with_routing(RoutingSpec::UnicastTree)
        .with_traffic(mixed);
    let (cycle, event) = both(&topo, &wl, SimConfig::quick(101));
    assert_runs_identical(&cycle, &event, "quarc-16 unicast-tree mixed");
    assert_eq!(event.engine.flights, 6, "the six unicasts");
}

#[test]
fn single_flit_buffers_are_stepped_and_deeper_ones_fly() {
    // At depth 1 a hop moves every other cycle (the credit comes back a
    // cycle late): not the streaming closed form, so nothing flies.
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 4, 103);
    let wl = Workload::new(16, 4e-4, 0.1, sets).unwrap();
    for depth in [1, 2, 4] {
        let mut cfg = SimConfig::quick(103);
        cfg.buffer_depth = depth;
        let (cycle, event) = both(&topo, &wl, cfg);
        let ctx = format!("mesh-4x4 buffer depth {depth}");
        assert!(cycle.unicast_delivered > 0, "{ctx}: traffic ran");
        assert_runs_identical(&cycle, &event, &ctx);
        assert_eq!(event.engine.flights > 0, depth >= 2, "{ctx}: flights");
    }
}

#[test]
fn bursty_arrivals_fly_between_bursts() {
    // Inside a burst the next arrival is a few cycles away and declines
    // the flight; the off-gaps are long enough for whole transits.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 107);
    let wl = Workload::new(16, 4e-4, 0.1, sets)
        .unwrap()
        .with_traffic(TrafficSpec::OnOff {
            burst_len: 4.0,
            peak_rate: 0.05,
        });
    let (cycle, event) = both(&topo, &wl, SimConfig::quick(107));
    assert_runs_identical(&cycle, &event, "quarc-16 on/off");
    let (flights, events) = (event.engine.flights, event.engine.events_popped);
    assert!(flights > 0 && flights < events, "{flights} of {events}");
}

// ----- decline boundaries, scripted -----

/// Windows short enough for the oracle, boundaries easy to aim at.
fn scripted_cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 6_000,
        drain_cycles: 4_000,
        ..SimConfig::quick(109)
    }
}

/// Quarc-16 under a scripted schedule of `(cycle, src, dst)` unicasts of
/// 16 flits: both engines bit-equal, and the event engine's flight count.
fn scripted(cfg: SimConfig, unicasts: &[(u64, u32, u32)], ctx: &str) -> (SimResults, u64) {
    scripted_on(&Quarc::new(16).unwrap(), cfg, unicasts, ctx)
}

/// [`scripted`] on `topo`.
fn scripted_on(
    topo: &dyn Topology,
    cfg: SimConfig,
    unicasts: &[(u64, u32, u32)],
    ctx: &str,
) -> (SimResults, u64) {
    let entry = |&(cycle, node, dst)| TraceEntry {
        cycle,
        node,
        kind: TraceKind::Unicast { dst },
    };
    let wl = Workload::new(16, 0.0, 0.0, DestinationSets::random(topo, 4, 109))
        .unwrap()
        .with_traffic(TrafficSpec::trace(unicasts.iter().map(entry).collect()));
    let (cycle, event) = both(topo, &wl, cfg);
    assert_eq!(
        cycle.total_generated,
        unicasts.len() as u64,
        "{ctx}: every arrival ran"
    );
    assert_runs_identical(&cycle, &event, ctx);
    (cycle, event.engine.flights)
}

/// Cycles from the generation of a 16-flit unicast `src → dst` on
/// quarc-16 to its last absorption, alone: `path.len() − 1 + 16`.
fn transit(src: u32, dst: u32) -> u64 {
    let path = Quarc::new(16)
        .unwrap()
        .unicast_path(NodeId(src), NodeId(dst));
    path.len() as u64 - 1 + 16
}

#[test]
fn a_flight_must_end_strictly_before_the_next_arrival() {
    let (cfg, t) = (scripted_cfg(), transit(0, 3));
    // The second arrival, at another node, a cycle after the first
    // message is gone: each flies alone.
    let (_, flights) = scripted(cfg, &[(3000, 0, 3), (3001 + t, 8, 11)], "one after");
    assert_eq!(flights, 2);
    // On the cycle the first's tail is absorbed it is no member, and the
    // group does not end strictly before it: both are stepped.
    let (_, flights) = scripted(cfg, &[(3000, 0, 3), (3000 + t, 8, 11)], "on the end");
    assert_eq!(flights, 0);
    // The cycle before, it is a member: the two share no channel and fly
    // together.
    let (_, flights) = scripted(cfg, &[(3000, 0, 3), (2999 + t, 8, 11)], "the cycle before");
    assert_eq!(flights, 2);
    // Two nodes due on one cycle fly together too, and a later, lone
    // arrival alone.
    let same = [(3000, 0, 3), (3000, 8, 11), (5000, 4, 9)];
    assert_eq!(scripted(cfg, &same, "same cycle").1, 3);
}

// ----- groups, scripted -----

#[test]
fn two_overlapping_disjoint_unicasts_fly_together() {
    // 0 → 3 and 8 → 11 run clockwise on opposite halves of the rim.
    let (res, flights) = scripted(scripted_cfg(), &[(3000, 0, 3), (3005, 8, 11)], "disjoint");
    assert_eq!(flights, 2);
    assert_eq!(res.unicast_delivered, 2);
}

#[test]
fn a_shared_channel_or_touching_windows_step_both() {
    let cfg = scripted_cfg();
    // 1 → 3 crosses the link 1 → 2 while 0 → 3 still holds it.
    let (_, flights) = scripted(cfg, &[(3000, 0, 3), (3005, 1, 3)], "shared link");
    assert_eq!(flights, 0);
    // Two messages of one source share its injection channel, whose
    // window runs from the arrival to the last flit's move, `L` = 16
    // cycles later. A second message granted on that cycle touches the
    // first's window and waits; one granted a cycle later moves as if
    // alone on every hop, while the first is still in flight.
    let (_, flights) = scripted(cfg, &[(3000, 0, 3), (3016, 0, 3)], "touching");
    assert_eq!(flights, 0);
    let (_, flights) = scripted(cfg, &[(3000, 0, 3), (3017, 0, 3)], "a cycle apart");
    assert_eq!(flights, 2);
}

#[test]
fn a_same_cycle_tie_between_different_latencies_steps_both() {
    // 8 → 10 is a hop shorter than 0 → 3: started a cycle later it is
    // absorbed on the same cycle with a latency one lower. The oracle
    // records the two in the order its active list holds their ejection
    // channels, which a flight cannot know.
    let cfg = scripted_cfg();
    let second = 3000 + transit(0, 3) - transit(8, 10);
    assert_eq!(second, 3001);
    let (res, flights) = scripted(cfg, &[(3000, 0, 3), (second, 8, 10)], "tie");
    assert_eq!((flights, res.unicast_delivered), (0, 2));
    // Equal latencies on one cycle commute: the group flies.
    let (_, flights) = scripted(cfg, &[(3000, 0, 3), (3000, 8, 11)], "equal");
    assert_eq!(flights, 2);
}

#[test]
fn streams_of_two_operations_ending_on_one_cycle_fly() {
    // 0 → {2, 13} (two cw, three ccw links) and, a cycle later, 8 → {9}
    // (one cw link) share no channel. 0's cw stream and 8's stream are
    // absorbed on cycle 3019, latencies 19 and 18; no population records
    // a stream, and the operations end on 3020 and 3019: the group flies.
    let mut sets = vec![Vec::new(); 16];
    sets[0] = vec![NodeId(2), NodeId(13)];
    sets[8] = vec![NodeId(9)];
    let entry = |(cycle, node)| TraceEntry {
        cycle,
        node,
        kind: TraceKind::Multicast,
    };
    let wl = Workload::new(16, 0.0, 0.0, DestinationSets::explicit(sets))
        .unwrap()
        .with_traffic(TrafficSpec::trace(
            [(3000, 0), (3001, 8)].map(entry).to_vec(),
        ));
    let (cycle, event) = both(&Quarc::new(16).unwrap(), &wl, scripted_cfg());
    assert_runs_identical(&cycle, &event, "stream tie");
    assert_eq!((cycle.multicast.min, cycle.multicast.max), (18.0, 20.0));
    assert_eq!(event.engine.flights, 2);
}

#[test]
fn a_group_that_straddles_warmup_or_measure_end_is_stepped() {
    let cfg = scripted_cfg();
    let (w, end) = (cfg.warmup_cycles, cfg.measure_end());
    let t = transit(0, 3);
    // The first is absorbed before warmup; the second joins it and is
    // absorbed after.
    let (_, flights) = scripted(cfg, &[(w - 30, 0, 3), (w - 30 + t - 5, 8, 11)], "warmup");
    assert_eq!(flights, 0);
    // Both absorbed before `measure_end`: flown; the second absorbed on
    // it: stepped.
    let before = [(end - 2 * t, 0, 3), (end - t - 1, 8, 11)];
    assert_eq!(scripted(cfg, &before, "before measure_end").1, 2);
    let on = [(end - 2 * t, 0, 3), (end - t, 8, 11)];
    assert_eq!(scripted(cfg, &on, "on measure_end").1, 0);
}

#[test]
fn a_group_that_ends_on_the_next_outside_event_is_stepped() {
    let cfg = scripted_cfg();
    let end = 3010 + transit(8, 11);
    let group = [(3000, 0, 3), (3010, 8, 11)];
    // The third arrival comes on the group's last cycle: not a member,
    // and not strictly after the group. All three are stepped.
    let (_, flights) = scripted(cfg, &[group[0], group[1], (end, 4, 6)], "on the end");
    assert_eq!(flights, 0);
    // A cycle later the group flies, and the third alone after it.
    let (_, flights) = scripted(cfg, &[group[0], group[1], (end + 1, 4, 6)], "after it");
    assert_eq!(flights, 3);
}

#[test]
fn a_declined_groups_held_arrivals_spawn_in_node_order() {
    // mesh-4x4, XY routing, node = 4 y + x. The group opens with 15 → 12
    // along the top row, absorbed 5 cycles before `measure_end`. Six
    // cycles before it, nodes 4 and 6 are due: node 4's arrival would end
    // past `measure_end`, so the group is declined there, holding 15's
    // and 4's arrivals while 6 is still queued for the same cycle.
    // 4 → 9 and 6 → 13 then request the link (1,1) → (1,2) on one cycle,
    // and whichever asks first takes it: with their different remaining
    // routes the latencies show who did, so spawning 6 ahead of 4 (the
    // queue ahead of the held) would show in the results.
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let cfg = scripted_cfg();
    let end = cfg.measure_end();
    let schedule = [(end - 25, 15, 12), (end - 6, 4, 9), (end - 6, 6, 13)];
    let (res, flights) = scripted_on(&topo, cfg, &schedule, "held and queued");
    assert_eq!(flights, 0);
    assert_eq!(res.unicast_delivered, 3);
}

#[test]
fn a_flight_may_not_straddle_the_warmup_boundary() {
    let cfg = scripted_cfg();
    let w = cfg.warmup_cycles;
    // Generated at `warmup − 1`: the first move, on cycle `warmup`, is
    // unmeasured and the rest are measured. Stepped.
    let (res, flights) = scripted(cfg, &[(w - 1, 0, 3)], "warmup - 1");
    assert_eq!((flights, res.unicast_injected), (0, 0));
    // Generated at `warmup`: untagged (the window opens after it), every
    // move measured. Flown.
    let (res, flights) = scripted(cfg, &[(w, 0, 3)], "warmup");
    assert_eq!((flights, res.unicast_injected), (1, 0));
    assert!(res.max_utilization() > 0.0, "its moves were measured");
    // Generated at `warmup + 1`: tagged and measured. Flown.
    let (res, flights) = scripted(cfg, &[(w + 1, 0, 3)], "warmup + 1");
    assert_eq!((flights, res.unicast_delivered), (1, 1));
    assert_eq!(res.unicast.mean, transit(0, 3) as f64);
    // Wholly inside the warmup: untagged, unmeasured, flown.
    let (res, flights) = scripted(cfg, &[(w - 1 - transit(0, 3), 0, 3)], "in warmup");
    assert_eq!((flights, res.max_utilization()), (1, 0.0));
}

#[test]
fn a_flight_must_end_strictly_before_the_measurement_window_closes() {
    let cfg = scripted_cfg();
    let (end, t) = (cfg.measure_end(), transit(0, 3));
    for (last_absorb, flown) in [(end - 1, 1), (end, 0), (end + 1, 0)] {
        let ctx = format!("tail absorbed at {last_absorb}");
        let (res, flights) = scripted(cfg, &[(last_absorb - t, 0, 3)], &ctx);
        assert_eq!(flights, flown, "{ctx}");
        assert_eq!(
            res.cycles,
            last_absorb.max(end),
            "{ctx}: tagged, so waited for"
        );
    }
}

#[test]
fn arrivals_the_end_of_run_check_fires_on_are_stepped() {
    // One queued message is already over a backlog limit of zero: the
    // oracle ends the run on the arrival cycle.
    let mut cfg = scripted_cfg();
    cfg.backlog_limit = 0;
    let (res, flights) = scripted(cfg, &[(3000, 0, 3)], "backlog limit 0");
    assert_eq!((flights, res.saturated, res.cycles), (0, true, 3000));
    // The watchdog looks at stride multiples for "channels held, nothing
    // moved or granted for the window". The grant of an arrival's own
    // cycle holds the injection channel and is progress: 10 240, the first
    // stride multiple more than the window after cycle 0, is a cycle like
    // any other — flown, delivered, not deadlocked.
    let mut cfg = scripted_cfg();
    cfg.measure_cycles = 12_000;
    for at in [10_240, 10_241] {
        let (res, flights) = scripted(cfg, &[(at, 0, 3)], "watchdog tick");
        assert_eq!((flights, res.unicast_delivered), (1, 1), "arrival at {at}");
        assert!(res.complete() && !res.deadlocked && !res.saturated);
        assert_eq!(res.cycles, cfg.measure_end());
    }
}

/// One arrival of a random schedule: the gap since the previous one (at
/// most `max_gap`), the node, and the class (`None`: multicast; else an
/// offset to the destination).
fn arrival_strategy(max_gap: u64) -> impl Strategy<Value = (u64, u32, Option<u32>)> {
    (1u64..=max_gap, 0u32..1024, 0u32..1024)
        .prop_map(|(gap, node, class)| (gap, node, (class % 5 != 0).then_some(class / 5)))
}

/// Replay a random schedule from `start` on `FAMILIES[family]`: results
/// bit-equal, and the fabrics left behind audit to the same counts.
fn random_schedule_is_bit_identical(
    family: usize,
    start: u64,
    arrivals: &[(u64, u32, Option<u32>)],
) -> Result<(), TestCaseError> {
    let spec = FAMILIES[family];
    let topo = topology(spec);
    let n = topo.num_nodes() as u32;
    let mut cycle = start;
    let entries = arrivals
        .iter()
        .map(|&(gap, node, class)| {
            cycle += gap;
            let node = node % n;
            let kind = match class {
                Some(offset) => TraceKind::Unicast {
                    dst: (node + 1 + offset % (n - 1)) % n,
                },
                None => TraceKind::Multicast,
            };
            TraceEntry { cycle, node, kind }
        })
        .collect();
    let wl = Workload::new(12, 0.0, 0.2, DestinationSets::random(topo.as_ref(), 3, 113))
        .unwrap()
        .with_traffic(TrafficSpec::trace(entries));
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 2_500,
        drain_cycles: 4_000,
        ..SimConfig::quick(113)
    };
    let [(c, c_audit), (e, e_audit)] = both_audited(topo.as_ref(), &wl, cfg);
    assert_runs_identical(&c, &e, spec);
    prop_assert_eq!(c_audit, e_audit, "{}: post-run audits", spec);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sparse random schedules: some arrivals fly, some land on a
    /// predecessor still in transit, some on a window boundary. Results
    /// bit-equal, and the fabrics left behind audit to the same counts.
    #[test]
    fn sparse_trace_schedules_fly_bit_identically(
        family in 0usize..7,
        start in 1u64..1500,
        arrivals in proptest::collection::vec(arrival_strategy(200), 1..41),
    ) {
        // The six dense families and lazily planned `min-4x3`.
        random_schedule_is_bit_identical(family, start, &arrivals)?;
    }

    /// Dense random schedules, 1–40 cycles apart: most arrivals overlap a
    /// predecessor in time, so groups form, and fly or are declined and
    /// held.
    #[test]
    fn dense_trace_schedules_fly_in_groups_bit_identically(
        family in 0usize..7,
        start in 1u64..1500,
        arrivals in proptest::collection::vec(arrival_strategy(40), 1..41),
    ) {
        random_schedule_is_bit_identical(family, start, &arrivals)?;
    }
}

// ---------------------------------------------------------------------
// Coasts: a message whose header has crossed its last hop, every hop the
// one ready cv of its channel, moves a flit across each hop per cycle
// until its window ends or a cv beside it becomes ready; the event engine
// settles those moves in closed form (`Fabric::start_coasts`,
// `Fabric::settle`). The oracle never coasts.
// ---------------------------------------------------------------------

/// Short windows: the traffic exercises coasting, not the run length.
fn coast_cfg(depth: u32) -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 3_000,
        drain_cycles: 6_000,
        buffer_depth: depth,
        ..SimConfig::quick(127)
    }
}

#[test]
fn coasts_are_bit_identical_on_every_family_and_path_scheme() {
    // A quarter of a flit per node and cycle puts these networks near
    // their knee: most messages share a channel on the way, and many
    // bodies still stream alone once their header has landed. Each
    // family meets every depth from 2 to 4, one per message length;
    // quarc, ring and torus carry dateline channels of two vcs.
    for (f, spec) in FAMILIES.into_iter().enumerate() {
        let topo = topology(spec);
        let sets = DestinationSets::random(topo.as_ref(), 4, 127);
        let mut coast_moves = 0;
        for routing in [RoutingSpec::PathBased, RoutingSpec::DualPath] {
            for (i, len) in [16u32, 32, 64].into_iter().enumerate() {
                let depth = 2 + ((f + i) % 3) as u32;
                let wl = Workload::new(len, 0.25 / f64::from(len), 0.1, sets.clone())
                    .unwrap()
                    .with_routing(routing);
                if SimPlan::build(topo.as_ref(), &wl).is_err() {
                    continue; // dual-path on a one-port router
                }
                let ctx = format!("{spec} {routing} {len} flits depth {depth}");
                let [(c, c_audit), (e, e_audit)] =
                    both_audited(topo.as_ref(), &wl, coast_cfg(depth));
                assert_runs_identical(&c, &e, &ctx);
                assert_eq!(c_audit, e_audit, "{ctx}: post-run audits");
                assert_eq!(c.engine.coasts, 0, "{ctx}: the oracle never coasts");
                assert!(e.engine.coast_moves < e.flit_moves, "{ctx}");
                coast_moves += e.engine.coast_moves;
            }
        }
        assert!(coast_moves > 0, "{spec}: nothing coasted");
    }
}

/// [`scripted_on`] with `len`-flit messages: both engines bit-equal with
/// equal post-run audits; the event engine's results.
fn scripted_len(
    topo: &dyn Topology,
    len: u32,
    cfg: SimConfig,
    unicasts: &[(u64, u32, u32)],
    ctx: &str,
) -> SimResults {
    let entry = |&(cycle, node, dst)| TraceEntry {
        cycle,
        node,
        kind: TraceKind::Unicast { dst },
    };
    let wl = Workload::new(len, 0.0, 0.0, DestinationSets::random(topo, 4, 109))
        .unwrap()
        .with_traffic(TrafficSpec::trace(unicasts.iter().map(entry).collect()));
    let [(c, c_audit), (e, e_audit)] = both_audited(topo, &wl, cfg);
    assert_eq!(
        c.total_generated,
        unicasts.len() as u64,
        "{ctx}: every arrival ran"
    );
    assert_runs_identical(&c, &e, ctx);
    assert_eq!(c_audit, e_audit, "{ctx}: post-run audits");
    assert_eq!(e.engine.flights, 0, "{ctx}: stepped, not flown");
    e
}

/// Hops of the route `src → dst` on quarc-16, injection and ejection
/// included.
fn hops(src: u32, dst: u32) -> u64 {
    Quarc::new(16)
        .unwrap()
        .unicast_path(NodeId(src), NodeId(dst))
        .len() as u64
}

#[test]
fn a_sibling_granted_mid_window_settles_the_coast() {
    // 14 → 2 runs clockwise across the dateline link 15 → 0 and rides vc 1
    // on 0 → 1 and 1 → 2; 0 → 2 rides vc 0 there. The two share a
    // channel, so neither flies. The first's header lands on cycle 3006
    // and its 64-flit body could coast to 3063; the second is granted
    // 0 → 1 at the end of 3021, ready at once, and the coast is settled
    // there. The two take turns on both links until the second reaches
    // node 2's ejection channel, which the first holds: from the end of
    // 3031 the first is alone again and coasts to the end of its window
    // (3067); the second, once the first is gone, from 3076 to 3133.
    let topo = Quarc::new(16).unwrap();
    let schedule = [(3000, 14, 2), (3020, 0, 2)];
    let e = scripted_len(&topo, 64, scripted_cfg(), &schedule, "sibling grant");
    let lands = 3000 + hops(14, 2);
    assert_eq!(lands, 3006);
    let settled_early = hops(14, 2) * (3021 - lands);
    let later = hops(14, 2) * (3067 - 3031) + hops(0, 2) * (3133 - 3076);
    assert_eq!(
        (e.engine.coasts, e.engine.coast_moves),
        (3, settled_early + later)
    );
}

#[test]
fn a_sibling_that_becomes_ready_settles_the_coast() {
    // 1 → 3 holds 1 → 2 (vc 0) and coasts its whole window, to 3063.
    // 0 → 2 follows, takes 0 → 1 (vc 0) and fills the buffer behind
    // 1 → 2: its cv on 0 → 1 is owned but blocked. 14 → 1 lands on 3015
    // beside it, on vc 1, and coasts. 1 → 3's tail crosses 2 → 3 on
    // 3066 and releases 1 → 2; 0 → 2 gets it and moves across it on
    // 3067, which frees a slot behind its cv on 0 → 1: ready, and the
    // coast of 14 → 1 is settled at the end of 3067, six cycles short of
    // its window. 0 → 2 coasts too once it streams alone, 3089 to 3137.
    let topo = Quarc::new(16).unwrap();
    let schedule = [(3000, 1, 3), (3002, 0, 2), (3010, 14, 1)];
    let e = scripted_len(&topo, 64, scripted_cfg(), &schedule, "sibling ready");
    let whole = hops(1, 3) * (64 - 1 - hops(1, 3));
    let lands = 3010 + hops(14, 1);
    assert_eq!(lands, 3015);
    let settled_early = hops(14, 1) * (3067 - lands);
    assert_eq!(
        (e.engine.coasts, e.engine.coast_moves),
        (3, whole + settled_early + hops(0, 2) * (3137 - 3089))
    );
}

#[test]
fn a_coast_stops_at_the_measurement_boundaries() {
    // Generated 30 cycles before warmup or `measure_end`, a lone 64-flit
    // message straddles the boundary and is stepped. Its header lands 6
    // cycles later and it coasts to the boundary, not past it: the moves
    // on either side are measured differently, which the utilisation
    // comparison would show. It is settled there and coasts on, to a
    // cycle short of its tail crossing hop 0.
    let cfg = scripted_cfg();
    let (path, before) = (hops(14, 2), 30 - hops(14, 2));
    for at in [cfg.warmup_cycles - 30, cfg.measure_end() - 30] {
        let ctx = format!("generated at {at}");
        let e = scripted_len(&Quarc::new(16).unwrap(), 64, cfg, &[(at, 14, 2)], &ctx);
        let after = 64 - 1 - (path + before);
        assert_eq!(
            (e.engine.coasts, e.engine.coast_moves),
            (2, path * (before + after)),
            "{ctx}"
        );
    }
}

#[test]
fn a_run_that_ends_mid_window_settles_the_coast() {
    // The tagged 0 → 3 coasts to `measure_end`, and on from there to a
    // cycle short of its tail crossing hop 0. The untagged 8 → 11,
    // generated after the window, lands 5 cycles later and coasts; the
    // run ends when 0 → 3's tail is absorbed, 48 cycles into that coast,
    // and the run's end settles it.
    let cfg = scripted_cfg();
    let end = cfg.measure_end();
    let (first, second) = (hops(0, 3), hops(8, 11));
    let schedule = [(end - 10, 0, 3), (end + 5, 8, 11)];
    let e = scripted_len(&Quarc::new(16).unwrap(), 64, cfg, &schedule, "run end");
    let last = end - 10 + first - 1 + 64;
    assert_eq!((e.cycles, e.total_absorbed), (last, 1));
    let coasting = last - (end + 5 + second);
    assert_eq!(coasting, 48);
    assert_eq!(
        (e.engine.coasts, e.engine.coast_moves),
        (3, first * (64 - 1 - first) + second * coasting)
    );
}

#[test]
fn fig6_quick_points_pin_their_coasts() {
    // `noc-bench fig6 --quick --points 8`'s first panel, at its lowest
    // and highest rate. What the run does is pinned by the flit moves,
    // cycles and arrivals, the same since before coasting; how many
    // bodies coasted and how many moves that settled in closed form are
    // pinned beside them, so a change to the coast rules shows here.
    let panel = &default_panels(Pattern::Random, 42)[0];
    assert_eq!(panel.label(), "quarc-n16-m16-a05-random");
    let sc = panel.scenario(8, SimConfig::quick(42));
    let res = Runner::new().threads(1).run(&sc).expect("the panel runs");
    let counts = |p: usize| {
        let r = &res.sims[p][0];
        let e = r.engine;
        (
            r.flit_moves,
            r.cycles,
            e.events_popped,
            e.coasts,
            e.coast_moves,
        )
    };
    assert_eq!(counts(0), (55_792, 18_006, 692, 256, 11_670));
    assert_eq!(counts(7), (377_275, 18_026, 4_666, 5_004, 226_633));
}
