//! Integration: at zero load the analytical model and the flit-level
//! simulator must agree *exactly* — latency is `msg + D` with no queueing,
//! and both sides define `D` as channel traversals minus one.
//!
//! This pins the timing conventions of the two implementations to each
//! other across every topology.

use quarc_noc::model::{AnalyticModel, ModelOptions};
use quarc_noc::prelude::*;
use quarc_noc::sim::{Engine, EngineKind, SimConfig, SimResults, TelemetrySpec, TraceMode};

/// Run `arrivals` over `wl` on `topo` on the oracle and on the event
/// engine, the latter both traced (stepped, bodies coasting) and untraced
/// (flown where it can), every arrival tagged and the window open past the
/// last delivery; the three results in that order, each labelled.
fn run_everywhere(
    topo: &dyn Topology,
    wl: &Workload,
    arrivals: Vec<TraceEntry>,
) -> Vec<(String, SimResults)> {
    let last = arrivals.iter().map(|e| e.cycle).max().unwrap_or(0);
    let wl = wl.clone().with_traffic(TrafficSpec::trace(arrivals));
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: last + 1_000,
        ..SimConfig::quick(1)
    };
    let traced = TelemetrySpec::off().with_trace(TraceMode::Full);
    [
        (EngineKind::Cycle, TelemetrySpec::off()),
        (EngineKind::EventDriven, traced),
        (EngineKind::EventDriven, TelemetrySpec::off()),
    ]
    .into_iter()
    .map(|(kind, telemetry)| {
        let res = Engine::new(topo, &wl, cfg.with_engine(kind).with_telemetry(telemetry)).run();
        let ctx = format!("{} {kind:?} traced {}", topo.name(), telemetry.enabled());
        assert!(res.complete() && !res.saturated, "{ctx}: delivered");
        (ctx, res)
    })
    .collect()
}

/// The latency of one multicast operation from `node` on an idle network,
/// the same on every engine.
fn isolated_multicast(topo: &dyn Topology, wl: &Workload, node: u32) -> f64 {
    let arrival = TraceEntry {
        cycle: 1,
        node,
        kind: TraceKind::Multicast,
    };
    let runs = run_everywhere(topo, wl, vec![arrival]);
    let lat = runs[0].1.multicast.max;
    for (ctx, res) in &runs {
        assert_eq!((res.multicast.count, res.multicast.max), (1, lat), "{ctx}");
    }
    lat
}

/// Every pair's unicast alone on the network takes `msg + hop_count`
/// cycles. The pairs of each hop count arrive one by one in a trace, each
/// after the last has been absorbed, and every run must record that one
/// latency for all of them.
fn check_unicast_pairs(topo: &dyn Topology, msg: u32, pairs: &[(u32, u32)]) {
    let sets = DestinationSets::random(topo, 2, 1);
    let wl = Workload::new(msg, 0.0, 0.0, sets).unwrap();
    let hops = |&(s, d): &(u32, u32)| topo.unicast_path(NodeId(s), NodeId(d)).hop_count() as u64;
    let mut counts: Vec<u64> = pairs.iter().map(hops).collect();
    counts.sort_unstable();
    counts.dedup();
    for &h in &counts {
        let model_lat = msg as u64 + h;
        let arrivals: Vec<TraceEntry> = pairs
            .iter()
            .filter(|&pair| hops(pair) == h)
            .enumerate()
            .map(|(i, &(s, d))| TraceEntry {
                cycle: 1 + i as u64 * (model_lat + 1),
                node: s,
                kind: TraceKind::Unicast { dst: d },
            })
            .collect();
        let n = arrivals.len() as u64;
        let runs = run_everywhere(topo, &wl, arrivals);
        for (ctx, res) in &runs {
            let u = &res.unicast;
            assert_eq!(
                (u.count, u.min, u.max),
                (n, model_lat as f64, model_lat as f64),
                "{ctx}: {n} pairs of hop count {h}, msg={msg}: model {model_lat}"
            );
        }
        let (ctx, untraced) = &runs[2];
        assert_eq!(untraced.engine.flights, n, "{ctx}: every pair flew");
    }
}

#[test]
fn quarc_unicast_zero_load_exact() {
    let topo = Quarc::new(16).unwrap();
    check_unicast_pairs(
        &topo,
        16,
        &[(0, 1), (0, 4), (0, 8), (0, 5), (0, 11), (3, 15)],
    );
    check_unicast_pairs(&topo, 64, &[(0, 8), (7, 2)]);
}

#[test]
fn ring_and_spidergon_unicast_zero_load_exact() {
    let ring = Ring::new(9).unwrap();
    check_unicast_pairs(&ring, 16, &[(0, 1), (0, 4), (0, 5), (8, 2)]);
    let spid = Spidergon::new(12).unwrap();
    check_unicast_pairs(&spid, 16, &[(0, 1), (0, 6), (0, 5), (11, 4)]);
}

#[test]
fn mesh_and_torus_unicast_zero_load_exact() {
    let mesh = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    check_unicast_pairs(&mesh, 16, &[(0, 3), (0, 15), (5, 10), (12, 1)]);
    let torus = Mesh::new(4, 4, MeshKind::Torus).unwrap();
    check_unicast_pairs(&torus, 16, &[(0, 3), (0, 15), (5, 10)]);
}

#[test]
fn quarc_multicast_zero_load_exact_against_model() {
    for n in [8usize, 16, 32] {
        let topo = Quarc::new(n).unwrap();
        for group in [2usize, n / 4] {
            let sets = DestinationSets::random(&topo, group, 5);
            let wl = Workload::new(32, 0.0, 0.0, sets).unwrap();
            // Simulator measurement on an idle network.
            let sim_lat = isolated_multicast(&topo, &wl, 0);
            // Model prediction for node 0 at zero load.
            let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
                .evaluate()
                .unwrap();
            let node0 = pred
                .per_node
                .iter()
                .find(|nm| nm.node == NodeId(0))
                .expect("node 0 has a set");
            assert_eq!(
                sim_lat, node0.latency,
                "N={n} group={group}: sim {sim_lat} vs model {}",
                node0.latency
            );
        }
    }
}

#[test]
fn localized_multicast_zero_load_exact() {
    let topo = Quarc::new(32).unwrap();
    let sets = DestinationSets::localized(&topo, 4, 9);
    let wl = Workload::new(48, 0.0, 0.0, sets).unwrap();
    let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
        .evaluate()
        .unwrap();
    for node in [0u32, 5, 31] {
        let sim_lat = isolated_multicast(&topo, &wl, node);
        let nm = pred
            .per_node
            .iter()
            .find(|nm| nm.node == NodeId(node))
            .unwrap();
        assert_eq!(sim_lat, nm.latency, "node {node}");
    }
}

/// The documented identity: a message of `L` flits over a path with `H`
/// links takes exactly `L + H + 1` cycles on an idle network. Swept over
/// every source/destination pair of each topology (`msg` lengths chosen to
/// cover short, paper-default and long messages).
///
/// A `Path` holds injection + `H` links + ejection by construction, so the
/// model's `D = hop_count` is `H + 1` and `check_unicast_pairs`'s
/// `sim == msg + hop_count` assertion is exactly `L + H + 1`. The per-pair
/// graph validation below guards the construction half: every routed path
/// must be a well-formed channel sequence of the topology's network.
fn check_l_h_1_identity_all_pairs(topo: &dyn Topology, msgs: &[u32]) {
    let n = topo.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .filter(|&(s, d)| s != d)
        .collect();
    for &(s, d) in &pairs {
        let path = topo.unicast_path(NodeId(s), NodeId(d));
        topo.network()
            .validate_path(&path)
            .unwrap_or_else(|e| panic!("{} {s}->{d}: invalid path: {e:?}", topo.name()));
    }
    for &msg in msgs {
        check_unicast_pairs(topo, msg, &pairs);
    }
}

#[test]
fn zero_load_identity_sweep_ring() {
    for n in [4usize, 5, 9, 12] {
        check_l_h_1_identity_all_pairs(&Ring::new(n).unwrap(), &[2, 16, 33]);
    }
}

#[test]
fn zero_load_identity_sweep_mesh_and_torus() {
    for (w, h) in [(2usize, 2usize), (3, 4), (4, 4)] {
        check_l_h_1_identity_all_pairs(&Mesh::new(w, h, MeshKind::Mesh).unwrap(), &[2, 16]);
    }
    for (w, h) in [(3usize, 3usize), (3, 4), (4, 4)] {
        check_l_h_1_identity_all_pairs(&Mesh::new(w, h, MeshKind::Torus).unwrap(), &[2, 16]);
    }
}

#[test]
fn zero_load_identity_sweep_spidergon() {
    for n in [6usize, 8, 12, 16] {
        check_l_h_1_identity_all_pairs(&Spidergon::new(n).unwrap(), &[2, 16, 33]);
    }
}

#[test]
fn zero_load_identity_sweep_hypercube() {
    for dim in [2usize, 3, 4, 5] {
        check_l_h_1_identity_all_pairs(&Hypercube::new(dim).unwrap(), &[2, 16, 33]);
    }
}

#[test]
fn zero_load_identity_sweep_quarc_reference() {
    // Quarc stays covered so the sweep also re-pins the original platform.
    for n in [8usize, 16] {
        check_l_h_1_identity_all_pairs(&Quarc::new(n).unwrap(), &[2, 32]);
    }
}

#[test]
fn broadcast_zero_load_latency_formula() {
    // Broadcast depth is exactly k = N/4 links on every stream, so the
    // whole operation completes in msg + k + 1 cycles.
    for (n, msg) in [(16usize, 32u32), (32, 48), (64, 64)] {
        let topo = Quarc::new(n).unwrap();
        let sets = DestinationSets::broadcast(&topo);
        let wl = Workload::new(msg, 0.0, 0.0, sets).unwrap();
        let lat = isolated_multicast(&topo, &wl, 0);
        assert_eq!(lat, (msg as usize + n / 4 + 1) as f64, "N={n} msg={msg}");
    }
}
