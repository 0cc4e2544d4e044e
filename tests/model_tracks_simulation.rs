//! Integration: the paper's central claim — the analytical model tracks
//! the flit-level simulation closely below saturation, for both random
//! (Fig. 6) and localized (Fig. 7) destination patterns, across network
//! sizes, message lengths and multicast fractions.
//!
//! Tolerances are loose enough for short CI simulations yet tight enough
//! to catch structural regressions (a broken correction factor or a
//! misrouted stream moves errors far beyond them).

use quarc_noc::model::{AnalyticModel, ModelOptions};
use quarc_noc::prelude::*;
use quarc_noc::sim::{Engine, SimConfig};

struct Agreement {
    unicast_err: f64,
    multicast_err: f64,
}

fn compare(topo: &dyn Topology, proto: &Workload, load_frac: f64, seed: u64) -> Agreement {
    let sat = MgOneBackend.max_sustainable_rate(topo, proto, &ModelOptions::default(), 0.01);
    assert!(sat > 0.0, "must find a positive saturation rate");
    let wl = proto.at_rate(sat * load_frac).unwrap();
    let pred = AnalyticModel::new(topo, &wl, ModelOptions::default())
        .evaluate()
        .expect("operating point below saturation");
    let res = Engine::new(topo, &wl, SimConfig::quick(seed)).run();
    assert!(
        !res.saturated,
        "simulation must not saturate at {load_frac} of model sat"
    );
    assert!(res.unicast.count > 100, "need unicast samples");
    assert!(res.multicast.count > 10, "need multicast samples");
    Agreement {
        unicast_err: (pred.unicast_latency - res.unicast.mean).abs() / res.unicast.mean,
        multicast_err: (pred.multicast_latency - res.multicast.mean).abs() / res.multicast.mean,
    }
}

#[test]
fn quarc16_random_destinations_low_load() {
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 3);
    let proto = Workload::new(32, 1e-5, 0.05, sets).unwrap();
    let a = compare(&topo, &proto, 0.35, 17);
    assert!(a.unicast_err < 0.08, "unicast error {:.3}", a.unicast_err);
    assert!(
        a.multicast_err < 0.12,
        "multicast error {:.3}",
        a.multicast_err
    );
}

#[test]
fn quarc16_localized_destinations_low_load() {
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::localized(&topo, 3, 3);
    let proto = Workload::new(32, 1e-5, 0.05, sets).unwrap();
    let a = compare(&topo, &proto, 0.35, 19);
    assert!(a.unicast_err < 0.08, "unicast error {:.3}", a.unicast_err);
    assert!(
        a.multicast_err < 0.12,
        "multicast error {:.3}",
        a.multicast_err
    );
}

#[test]
fn quarc32_long_messages_high_alpha() {
    let topo = Quarc::new(32).unwrap();
    let sets = DestinationSets::random(&topo, 8, 5);
    let proto = Workload::new(64, 1e-5, 0.10, sets).unwrap();
    let a = compare(&topo, &proto, 0.4, 23);
    assert!(a.unicast_err < 0.10, "unicast error {:.3}", a.unicast_err);
    assert!(
        a.multicast_err < 0.15,
        "multicast error {:.3}",
        a.multicast_err
    );
}

#[test]
fn quarc16_short_messages() {
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 7);
    let proto = Workload::new(16, 1e-5, 0.03, sets).unwrap();
    let a = compare(&topo, &proto, 0.4, 29);
    assert!(a.unicast_err < 0.10, "unicast error {:.3}", a.unicast_err);
    assert!(
        a.multicast_err < 0.15,
        "multicast error {:.3}",
        a.multicast_err
    );
}

#[test]
fn ring_two_ports_tracks_simulation() {
    let topo = Ring::new(12).unwrap();
    let sets = DestinationSets::random(&topo, 4, 9);
    let proto = Workload::new(32, 1e-5, 0.08, sets).unwrap();
    let a = compare(&topo, &proto, 0.35, 31);
    assert!(a.unicast_err < 0.10, "unicast error {:.3}", a.unicast_err);
    assert!(
        a.multicast_err < 0.15,
        "multicast error {:.3}",
        a.multicast_err
    );
}

#[test]
fn mesh_dual_path_tracks_simulation() {
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 4, 13);
    let proto = Workload::new(32, 1e-5, 0.08, sets).unwrap();
    let a = compare(&topo, &proto, 0.35, 37);
    assert!(a.unicast_err < 0.10, "unicast error {:.3}", a.unicast_err);
    assert!(
        a.multicast_err < 0.15,
        "multicast error {:.3}",
        a.multicast_err
    );
}

#[test]
fn spidergon_one_port_unicast_tracks_simulation() {
    // The unicast core of the model is the authors' earlier Spidergon
    // model (AINA 2007) that Eq. 6 cites; it must hold on the original
    // one-port Spidergon too (unicast only — one-port multicast is a
    // serialised train the multi-port model rightly refuses).
    let topo = Spidergon::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 21);
    let proto = Workload::new(32, 1e-5, 0.0, sets).unwrap();
    let sat = MgOneBackend.max_sustainable_rate(&topo, &proto, &ModelOptions::default(), 0.01);
    let wl = proto.at_rate(sat * 0.35).unwrap();
    let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
        .evaluate()
        .unwrap();
    let res = Engine::new(&topo, &wl, SimConfig::quick(47)).run();
    assert!(!res.saturated);
    let err = (pred.unicast_latency - res.unicast.mean).abs() / res.unicast.mean;
    assert!(err < 0.08, "spidergon unicast error {err:.3}");
}

#[test]
fn hypercube_unicast_tracks_simulation() {
    // The hypercube validates the unicast core on the topology family of
    // the paper's ref.\[18\]. Multicast (Gray-code dual path) is looser —
    // its long Hamiltonian paths interleave with unicast on shared links,
    // which the per-channel M/G/1 abstraction only approximates — so this
    // test pins the unicast side tightly and the multicast side loosely.
    let topo = Hypercube::new(4).unwrap();
    let sets = DestinationSets::random(&topo, 4, 15);
    let proto = Workload::new(32, 1e-5, 0.05, sets).unwrap();
    let a = compare(&topo, &proto, 0.35, 43);
    assert!(a.unicast_err < 0.08, "unicast error {:.3}", a.unicast_err);
    assert!(
        a.multicast_err < 0.35,
        "multicast error {:.3}",
        a.multicast_err
    );
}

#[test]
fn per_node_predictions_track_per_source_measurements() {
    // Eq. 14 gives a latency per source node, not just the network
    // average; localized destination sets make nodes genuinely different
    // (stream depths vary by quadrant draw), and the simulator's
    // per-source means must follow the model's per-node predictions.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::localized(&topo, 3, 8);
    let proto = Workload::new(32, 1e-5, 0.15, sets).unwrap();
    let sat = MgOneBackend.max_sustainable_rate(&topo, &proto, &ModelOptions::default(), 0.01);
    let wl = proto.at_rate(sat * 0.4).unwrap();
    let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
        .evaluate()
        .unwrap();
    let mut cfg = SimConfig::quick(53);
    cfg.measure_cycles *= 4; // per-source populations need more samples
    let res = Engine::new(&topo, &wl, cfg).run();

    let mut pairs = Vec::new();
    for nm in &pred.per_node {
        let s = &res.multicast_by_source[nm.node.idx()];
        if s.count >= 20 {
            pairs.push((nm.latency, s.mean));
        }
    }
    assert!(pairs.len() >= 12, "need per-source samples on most nodes");
    // Mean absolute relative error across nodes.
    let mare: f64 = pairs.iter().map(|(m, s)| (m - s).abs() / s).sum::<f64>() / pairs.len() as f64;
    assert!(mare < 0.15, "per-node mean abs rel error {mare:.3}");
    // The model must rank nodes sensibly: the deepest-stream node should
    // not be predicted faster than the shallowest-stream node measured.
    let (model_max, sim_at_model_max) = pairs
        .iter()
        .cloned()
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap();
    let (model_min, sim_at_model_min) = pairs
        .iter()
        .cloned()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap();
    if model_max > model_min + 2.0 {
        assert!(
            sim_at_model_max > sim_at_model_min,
            "per-node ordering should be preserved at the extremes"
        );
    }
}

#[test]
fn model_is_conservative_near_its_knee() {
    // Close to the model's saturation horizon the prediction grows faster
    // than the simulation (the model's knee comes first) — the documented
    // direction of divergence, matching the paper's curves.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 3);
    let proto = Workload::new(32, 1e-5, 0.05, sets).unwrap();
    let sat = MgOneBackend.max_sustainable_rate(&topo, &proto, &ModelOptions::default(), 0.01);
    let wl = proto.at_rate(sat * 0.95).unwrap();
    let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
        .evaluate()
        .unwrap();
    let res = Engine::new(&topo, &wl, SimConfig::quick(41)).run();
    assert!(
        pred.multicast_latency > res.multicast.mean * 0.9,
        "near the knee the model should not underestimate grossly: model {} sim {}",
        pred.multicast_latency,
        res.multicast.mean
    );
}
