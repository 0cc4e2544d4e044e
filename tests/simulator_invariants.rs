//! Integration: structural invariants of the flit-level simulator under
//! load — conservation, determinism, deadlock freedom, latency lower
//! bounds and saturation behaviour — plus proptest conservation
//! invariants for the event-driven engine over randomly drawn workloads.

use proptest::prelude::*;
use quarc_noc::prelude::*;
use quarc_noc::sim::{build_engine_with_plan, Engine, EngineKind, SimConfig};

#[test]
fn no_deadlock_at_heavy_load_on_ring_topologies() {
    // The rim rings have cyclic channel dependencies; the dateline VCs
    // must keep heavy wrap-around traffic deadlock-free. Drive each
    // topology far past saturation and require forward progress
    // throughout (the watchdog flags 10k move-free cycles).
    let cfg = |seed| {
        let mut c = SimConfig::quick(seed);
        c.backlog_limit = 100_000;
        c.drain_cycles = 30_000;
        c
    };
    let quarc = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&quarc, 4, 1);
    let wl = Workload::new(32, 0.08, 0.10, sets).unwrap();
    let res = Engine::new(&quarc, &wl, cfg(1)).run();
    assert!(!res.deadlocked, "quarc deadlocked");
    assert!(res.total_absorbed > 0);

    let ring = Ring::new(8).unwrap();
    let sets = DestinationSets::random(&ring, 3, 1);
    let wl = Workload::new(32, 0.12, 0.10, sets).unwrap();
    let res = Engine::new(&ring, &wl, cfg(2)).run();
    assert!(!res.deadlocked, "ring deadlocked");

    let torus = Mesh::new(4, 4, MeshKind::Torus).unwrap();
    let sets = DestinationSets::random(&torus, 4, 1);
    let wl = Workload::new(32, 0.08, 0.10, sets).unwrap();
    let res = Engine::new(&torus, &wl, cfg(3)).run();
    assert!(!res.deadlocked, "torus deadlocked");

    let spid = Spidergon::new(16).unwrap();
    let sets = DestinationSets::random(&spid, 4, 1);
    let wl = Workload::new(32, 0.08, 0.10, sets).unwrap();
    let res = Engine::new(&spid, &wl, cfg(4)).run();
    assert!(!res.deadlocked, "spidergon deadlocked");
}

#[test]
fn observed_latency_never_below_zero_load_bound() {
    // min latency >= msg + min hop count over any pair.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(32, 0.006, 0.10, sets).unwrap();
    let res = Engine::new(&topo, &wl, SimConfig::quick(7)).run();
    // Cheapest possible unicast: 1 link => hop_count 2 => 32 + 2.
    assert!(res.unicast.min >= 34.0, "unicast min {}", res.unicast.min);
    // Cheapest multicast: the farthest target of the op is at least one
    // link away; completion also needs all streams done.
    assert!(
        res.multicast.min >= 34.0,
        "multicast min {}",
        res.multicast.min
    );
}

#[test]
fn tagged_counts_are_consistent() {
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(16, 0.005, 0.2, sets).unwrap();
    let res = Engine::new(&topo, &wl, SimConfig::quick(11)).run();
    assert!(!res.saturated);
    assert_eq!(res.unicast_delivered, res.unicast_injected);
    assert_eq!(res.multicast_delivered, res.multicast_injected);
    assert_eq!(res.unicast.count, res.unicast_delivered);
    assert_eq!(res.multicast.count, res.multicast_delivered);
    assert!(res.total_absorbed <= res.total_generated);
}

#[test]
fn utilization_scales_linearly_at_low_load() {
    // Channel utilisation must scale ~linearly with the offered rate well
    // below saturation (flit conservation check against the workload).
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let mut utils = Vec::new();
    for rate in [0.002, 0.004] {
        let wl = Workload::new(32, rate, 0.05, sets.clone()).unwrap();
        let res = Engine::new(&topo, &wl, SimConfig::quick(13)).run();
        utils.push(res.max_utilization());
    }
    let ratio = utils[1] / utils[0];
    assert!(
        (ratio - 2.0).abs() < 0.25,
        "doubling the rate should roughly double utilisation, got {ratio} ({utils:?})"
    );
}

#[test]
fn model_channel_rates_match_simulated_utilization() {
    // The model's per-channel arrival rates λ_j (rates.rs) imply a flit
    // throughput of λ_j · msg on every channel; at low load (negligible
    // blocking) the simulator's measured utilisation must match — a
    // direct cross-validation of the routing/weighting logic feeding
    // Eq. 6, independent of the queueing approximations.
    use quarc_noc::model::{ModelOptions, RoutedLoads};

    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(32, 0.003, 0.05, sets).unwrap();
    let loads = RoutedLoads::walk(&topo, &wl, &ModelOptions::default())
        .unwrap()
        .at(wl.gen_rate);

    let mut cfg = SimConfig::quick(31);
    cfg.measure_cycles *= 8;
    cfg.drain_cycles *= 4;
    let res = Engine::new(&topo, &wl, cfg).run();
    assert!(!res.saturated);

    let net = topo.network();
    let mut checked = 0;
    for c in net.links() {
        let model_util = loads.lambda[c.id.idx()] * 32.0;
        let sim_util = res.channel_utilization[c.id.idx()];
        if model_util < 0.02 {
            continue; // too little traffic for a stable estimate
        }
        checked += 1;
        // Tolerance: 8% structural + Poisson sampling noise (2/sqrt(n)).
        let expected_msgs = model_util * cfg.measure_cycles as f64 / 32.0;
        let tol = 0.08 + 2.0 / expected_msgs.sqrt();
        let rel = (model_util - sim_util).abs() / model_util;
        assert!(
            rel < tol,
            "{}: model util {model_util:.4} vs sim {sim_util:.4} (rel {rel:.3} > tol {tol:.3})",
            c.label
        );
    }
    assert!(checked > 30, "most links should carry measurable traffic");
}

#[test]
fn same_seed_same_everything_different_seed_different_run() {
    let topo = Mesh::new(4, 3, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 3, 5);
    let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
    let a = Engine::new(&topo, &wl, SimConfig::quick(5)).run();
    let b = Engine::new(&topo, &wl, SimConfig::quick(5)).run();
    assert_eq!(a.flit_moves, b.flit_moves);
    assert_eq!(a.unicast.mean, b.unicast.mean);
    assert_eq!(a.multicast.mean, b.multicast.mean);
    assert_eq!(a.total_generated, b.total_generated);
    let c = Engine::new(&topo, &wl, SimConfig::quick(6)).run();
    assert_ne!(a.flit_moves, c.flit_moves);
}

#[test]
fn spidergon_one_port_serialisation_hurts_multicast() {
    // The same multicast workload must exhibit far higher collective
    // latency on the one-port Spidergon than on the all-port Quarc —
    // the architectural claim of the Quarc paper reproduced under load.
    let msg = 32u32;
    let quarc = Quarc::new(16).unwrap();
    let spid = Spidergon::new(16).unwrap();
    let q_sets = DestinationSets::random(&quarc, 8, 5);
    let s_sets = DestinationSets::random(&spid, 8, 5);
    let q_wl = Workload::new(msg, 0.003, 0.1, q_sets).unwrap();
    let s_wl = Workload::new(msg, 0.003, 0.1, s_sets).unwrap();
    let q = Engine::new(&quarc, &q_wl, SimConfig::quick(3)).run();
    let s = Engine::new(&spid, &s_wl, SimConfig::quick(3)).run();
    assert!(q.multicast.count > 10 && s.multicast.count > 10);
    assert!(
        s.multicast.mean > 2.0 * q.multicast.mean,
        "spidergon {} should be >2x slower than quarc {}",
        s.multicast.mean,
        q.multicast.mean
    );
}

#[test]
fn buffer_depth_one_still_works_but_slower_under_load() {
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(32, 0.005, 0.05, sets).unwrap();
    let mut deep = SimConfig::quick(9);
    deep.buffer_depth = 4;
    let mut shallow = SimConfig::quick(9);
    shallow.buffer_depth = 1;
    let d = Engine::new(&topo, &wl, deep).run();
    let s = Engine::new(&topo, &wl, shallow).run();
    assert!(!d.deadlocked && !s.deadlocked);
    // Depth-1 buffers halve per-channel throughput under the one-cycle
    // credit loop, so latency must be no better.
    assert!(
        s.unicast.mean >= d.unicast.mean,
        "depth-1 {} should be >= depth-4 {}",
        s.unicast.mean,
        d.unicast.mean
    );
}

// ---------------------------------------------------------------------------
// Proptest conservation invariants for the event-driven engine.
//
// `Engine::audit` walks the engine's resource state and rejects any
// structural violation (a cv owned by a dead message, a (message, hop)
// holding two cvs, a live multicast op with zero targets remaining, broken
// op accounting). On top of the audit these properties pin the
// conservation laws over randomly drawn workloads:
//
//   * flits injected == flits absorbed + flits in flight (message
//     granularity: every generated message is absorbed or still live);
//   * no channel is owned by two messages (audit's per-cv walk);
//   * every multicast op's `remaining` hits zero exactly once
//     (ops_allocated == ops_completed + live_ops, and completed ops are
//     recycled, never re-zeroed).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_engine_conserves_messages_and_ops(
        seed in 0u64..10_000,
        rate_milli in 1u32..=8,
        alpha_pct in 0u32..=25,
        msg_len in 4u32..=24,
        group in 2usize..=6,
    ) {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, group, seed);
        let wl = Workload::new(
            msg_len,
            rate_milli as f64 * 0.001,
            alpha_pct as f64 / 100.0,
            sets,
        )
        .unwrap();
        let mut sim = Engine::new(&topo, &wl, SimConfig::quick(seed));
        let res = sim.run();
        let audit = sim.audit().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(
            audit.total_generated,
            audit.total_absorbed + audit.live_messages,
            "message conservation"
        );
        prop_assert_eq!(
            audit.ops_allocated,
            audit.ops_completed + audit.live_ops,
            "every multicast op completes exactly once"
        );
        prop_assert_eq!(audit.tagged_outstanding == 0, res.complete());
        prop_assert!(audit.queued_messages <= audit.live_messages);
        if !res.saturated {
            prop_assert_eq!(res.unicast_delivered, res.unicast_injected);
            prop_assert_eq!(res.multicast_delivered, res.multicast_injected);
            prop_assert_eq!(audit.tagged_outstanding, 0);
        }
    }

    #[test]
    fn event_engine_mid_run_state_is_structurally_sound(
        seed in 0u64..10_000,
        x in 50u64..400,
        rate_milli in 2u32..=20,
    ) {
        // Cut the run short at the end of cycle `x`, mid-flight (messages
        // queued, streaming and draining), and audit the resource graph;
        // the cycle engine cut at the same cycle must agree.
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, seed);
        let wl = Workload::new(16, rate_milli as f64 * 0.001, 0.2, sets).unwrap();
        let cfg = cut_at(SimConfig::quick(seed), x);
        let [mid, ref_mid] = [EngineKind::EventDriven, EngineKind::Cycle].map(|kind| {
            let mut sim = Engine::new(&topo, &wl, cfg.with_engine(kind));
            sim.run();
            sim.audit()
        });
        let mid = mid.map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(mid.cycle, x);
        prop_assert_eq!(
            mid.total_generated,
            mid.total_absorbed + mid.live_messages,
            "mid-run message conservation"
        );
        prop_assert_eq!(
            mid.ops_allocated,
            mid.ops_completed + mid.live_ops,
            "mid-run op accounting"
        );
        let ref_mid = ref_mid.map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(mid, ref_mid, "mid-run audits of the two engines");
    }
}

/// `cfg` cut short: the run ends with cycle `x`, the one cycle of its
/// window, with no drain.
fn cut_at(cfg: SimConfig, x: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: x - 1,
        measure_cycles: 1,
        drain_cycles: 0,
        ..cfg
    }
}

// ---------------------------------------------------------------------------
// The kernel's incremental state. Selection reads per-channel `owned` /
// `ready` masks that application, grants, releases and the event engine's
// coasts keep current; waiting headers are threaded through the
// messages themselves. `audit` recomputes every mask from the cv owners'
// counters and walks every waiter list, so auditing a run every few cycles
// differentially tests the maintenance against the from-scratch verdict
// (and in debug builds selection asserts the same on every channel it
// visits, every cycle).
// ---------------------------------------------------------------------------

const FAMILIES: [&str; 6] = [
    "quarc-16",
    "ring-8",
    "spidergon-8",
    "mesh-4x4",
    "torus-4x4",
    "hypercube-4",
];

/// `name`'s topology, a random-group workload on it at `load` times the
/// M/G/1 horizon of its unicast traffic (the one-port Spidergon has no
/// multicast model), and its plan — `None` when the topology cannot
/// realize `routing`.
fn planned(
    name: &str,
    routing: RoutingSpec,
    load: f64,
    msg_len: u32,
    seed: u64,
) -> Option<(Box<dyn Topology>, Workload, std::sync::Arc<SimPlan>)> {
    use quarc_noc::model::ModelOptions;
    let topo = TopologySpec::parse(name).unwrap().build().unwrap();
    let sets = DestinationSets::random(topo.as_ref(), 3, seed);
    let unicast = Workload::new(msg_len, 1e-4, 0.0, sets.clone()).unwrap();
    let horizon =
        MgOneBackend.max_sustainable_rate(topo.as_ref(), &unicast, &ModelOptions::default(), 0.01);
    assert!(horizon > 0.0, "{name}: empty stability horizon");
    let wl = Workload::new(msg_len, (load * horizon).min(0.9), 0.1, sets)
        .unwrap()
        .with_routing(routing);
    let plan = SimPlan::build(topo.as_ref(), &wl).ok()?;
    Some((topo, wl, plan))
}

/// The oracle and the event engine on one plan, in that order.
fn both_engines<'a>(
    topo: &dyn Topology,
    wl: &'a Workload,
    cfg: SimConfig,
    plan: &std::sync::Arc<SimPlan>,
) -> [Engine<'a>; 2] {
    [EngineKind::Cycle, EngineKind::EventDriven]
        .map(|kind| build_engine_with_plan(topo, wl, cfg.with_engine(kind), plan.clone()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_state_audits_clean_every_few_cycles_on_both_engines(
        family in 0usize..FAMILIES.len(),
        routing in 0usize..ALL_ROUTINGS.len(),
        load_pct in 20u32..=200,
        buffer_depth in 1u32..=4,
        first in 1u64..=150,
        seed in 0u64..10_000,
    ) {
        // Runs cut short at six cycles spread over the first 900, the
        // first at `first`, audited on both engines.
        let planned = planned(FAMILIES[family], ALL_ROUTINGS[routing], load_pct as f64 / 100.0, 12, seed);
        prop_assume!(planned.is_some());
        let (topo, wl, plan) = planned.unwrap();
        let mut cfg = SimConfig::quick(seed);
        cfg.buffer_depth = buffer_depth;
        let mut generated = 0;
        for x in (0..6).map(|k| first + 150 * k) {
            let [a, b] = both_engines(topo.as_ref(), &wl, cut_at(cfg, x), &plan).map(|mut sim| {
                sim.run();
                sim.audit()
            });
            let a = a.map_err(|e| TestCaseError::fail(e.to_string()))?;
            let b = b.map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(a, b, "cycle {}", x);
            prop_assert_eq!(a.cycle, x);
            generated = a.total_generated;
        }
        prop_assert!(generated > 0, "the run must carry traffic");
    }

    #[test]
    fn kernel_state_audits_clean_after_closed_loop_runs(
        family in 0usize..FAMILIES.len(),
        routing in 0usize..ALL_ROUTINGS.len(),
        buffer_depth in 1u32..=4,
        window in 1u32..=6,
        seed in 0u64..10_000,
    ) {
        // A protocol only starts inside `run`, so closed-loop runs cannot
        // be stepped from outside: they are audited at quiescence (and by
        // selection's own assertion on the way there).
        let planned = planned(FAMILIES[family], ALL_ROUTINGS[routing], 0.0, 8, seed);
        prop_assume!(planned.is_some());
        let (topo, wl, plan) = planned.unwrap();
        let spec = ClosedLoopSpec::Coherence { window, requests: 12, write_fraction: 0.3 };
        let mut cfg = SimConfig::quick(seed);
        cfg.buffer_depth = buffer_depth;
        let mut audits = Vec::new();
        for mut sim in both_engines(topo.as_ref(), &wl, cfg, &plan) {
            sim.install_closed_loop(&spec, seed);
            let res = sim.run();
            prop_assert!(res.closed_loop.as_ref().is_some_and(|cl| cl.quiesced));
            audits.push(sim.audit().map_err(|e| TestCaseError::fail(e.to_string()))?);
        }
        prop_assert_eq!(audits[0], audits[1]);
        prop_assert_eq!(audits[0].live_messages, 0);
    }
}

/// The low-load runs of the two ready-mask tests below: 32-flit messages
/// at a fifth of the horizon, one family per path scheme.
const LOW_LOAD_RUNS: [(&str, RoutingSpec); 3] = [
    ("quarc-16", RoutingSpec::PathBased),
    ("mesh-4x4", RoutingSpec::DualPath),
    ("hypercube-4", RoutingSpec::UnicastTree),
];

/// The traced run of the ready-mask test below, on `cfg`: two long
/// messages 0 → 3 generated on cycles 1 and 2, the second queued behind
/// the first, and a third from node 1 on cycle 1. The one of 0 → 3 and
/// 1 → 3 that takes the link 1 → 2 first streams; the other fills its
/// buffers behind it, at whose end its verdict flips to blocked. The
/// messages are untagged, so the run ends with the window, at 200.
/// Audited with nothing in between; returns the run's results.
fn three_traced_headers(cfg: SimConfig) -> SimResults {
    let topo = Quarc::new(16).unwrap();
    let arrival = |cycle, node| TraceEntry {
        cycle,
        node,
        kind: TraceKind::Unicast { dst: 3 },
    };
    let arrivals = vec![arrival(1, 0), arrival(1, 1), arrival(2, 0)];
    let wl = Workload::new(600, 0.0, 0.0, DestinationSets::random(&topo, 4, 1))
        .unwrap()
        .with_traffic(TrafficSpec::trace(arrivals));
    let mut cfg = cfg;
    (cfg.warmup_cycles, cfg.measure_cycles) = (40, 160);
    let mut sim = Engine::new(&topo, &wl, cfg);
    let res = sim.run();
    assert_eq!(res.cycles, 200, "the run ends with the window");
    let audit = sim.audit().expect("kernel state sound right after the run");
    assert_eq!((audit.live_messages, audit.queued_messages), (3, 1));
    res
}

#[test]
fn coasting_leaves_the_ready_masks_current() {
    // A coast clears its message's ready bits and settles its moves in
    // one step, after which it re-derives them. With telemetry on (here
    // the utilization series) nothing flies, so every body is stepped up
    // to its landing and coasts beside the stepped traffic.
    let util = TelemetrySpec::off().with_util_window(64);
    for (name, routing) in LOW_LOAD_RUNS {
        for telemetry in [TelemetrySpec::off(), util] {
            let ctx = format!("{name} telemetry {}", telemetry.enabled());
            let (topo, wl, plan) = planned(name, routing, 0.2, 32, 11).expect("realizable");
            let cfg = SimConfig::quick(11).with_telemetry(telemetry);
            let mut sim = build_engine_with_plan(topo.as_ref(), &wl, cfg, plan);
            let res = sim.run();
            assert!(!res.saturated, "{ctx}: low load");
            assert!(res.engine.coasts > 0, "{ctx}: nothing coasted");
            sim.audit().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
    }

    // Generated on cycle 1 beside 0 → 3, 1 → 3 takes 1 → 2 first, and its
    // header crosses its four hops on cycles 2 to 5: its body coasts from
    // there to the warmup boundary, and on to the end of the window. A
    // third coast starts there, on the run's last cycle, and the run's end
    // settles it without a move. Telemetry on or off, the same, and the
    // oracle's results.
    for telemetry in [TelemetrySpec::off(), util] {
        let cfg = SimConfig::quick(1).with_telemetry(telemetry);
        let event = three_traced_headers(cfg);
        let counters = event.engine;
        assert_eq!((counters.coasts, counters.coast_moves), (3, 4 * (200 - 5)));
        let oracle = three_traced_headers(cfg.with_engine(EngineKind::Cycle));
        assert_eq!(oracle.engine.coasts, 0);
        assert_eq!(
            (event.flit_moves, event.cycles, &event.channel_utilization),
            (
                oracle.flit_moves,
                oracle.cycles,
                &oracle.channel_utilization
            )
        );
    }
}
