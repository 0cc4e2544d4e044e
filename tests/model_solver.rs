//! The analytical solver at the workspace surface: what the
//! component-ordered holding solve and the evaluate-free saturation probes
//! must keep true.
//!
//! * A probe's verdict is `evaluate(..).is_ok()` at that rate — checked by
//!   bisecting the same cases through the trait's default
//!   `max_sustainable_rate`, which still evaluates every probe.
//! * The horizons of the benchmark's `model-only` cases and of the five
//!   default `fig6` panels are pinned to the bits the dense damped-Jacobi
//!   solver produced, except where that solver's answer was one of its two
//!   bugs (an exhausted budget taken for convergence; a search that could
//!   not see below `1e-4`).
//! * The successor graph of a dimension-ordered unicast workload is
//!   acyclic and solves in one pass.

use quarc_noc::bench::harness::{default_panels, Pattern};
use quarc_noc::model::{ModelError, ModelOptions};
use quarc_noc::prelude::*;

const TOL: f64 = 0.01;

fn topology(spec: &str) -> Box<dyn Topology> {
    TopologySpec::parse(spec).unwrap().build().unwrap()
}

/// The benchmark's shared traffic: 32-flit messages, 5 % multicast to
/// `N/4` random destinations.
fn traffic_on(topo: &dyn Topology, alpha: f64, seed: u64) -> Workload {
    let sets = DestinationSets::random(topo, topo.num_nodes() / 4, seed);
    Workload::new(32, 1e-5, alpha, sets).unwrap()
}

fn horizon(backend: BackendSpec, topo: &dyn Topology, proto: &Workload) -> f64 {
    let opts = ModelOptions::default();
    backend
        .backend()
        .max_sustainable_rate(topo, proto, &opts, TOL)
}

/// Delegates the required methods only, so `max_sustainable_rate` is the
/// trait's default: one full `evaluate` per probe.
struct ViaEvaluate(&'static dyn ModelBackend);

impl ModelBackend for ViaEvaluate {
    fn code(&self) -> &'static str {
        self.0.code()
    }
    fn applicable(&self, topo: &dyn Topology, wl: &Workload) -> bool {
        self.0.applicable(topo, wl)
    }
    fn evaluate(
        &self,
        topo: &dyn Topology,
        wl: &Workload,
        opts: &ModelOptions,
    ) -> Result<Prediction, ModelError> {
        self.0.evaluate(topo, wl, opts)
    }
}

#[test]
fn probe_verdicts_equal_evaluate_verdicts() {
    let quarc = topology("quarc-16");
    let base = traffic_on(quarc.as_ref(), 0.1, 42);
    let trace: Vec<TraceEntry> = (0..64)
        .map(|k| TraceEntry {
            cycle: 10 + 7 * k,
            node: (k % 16) as u32,
            kind: TraceKind::Unicast {
                dst: ((k + 5) % 16) as u32,
            },
        })
        .collect();
    let spidergon = topology("spidergon-16");
    let one_port_multicast = traffic_on(spidergon.as_ref(), 0.05, 42);
    let implicit = topology("min-4x3");
    let on_implicit = traffic_on(implicit.as_ref(), 0.05, 42);
    let mesh = topology("mesh-4x4");
    let cases: Vec<(&str, &dyn Topology, Workload, bool)> = vec![
        ("poisson", quarc.as_ref(), base.clone(), true),
        (
            "on-off",
            quarc.as_ref(),
            base.clone().with_traffic(TrafficSpec::OnOff {
                burst_len: 8.0,
                peak_rate: 0.004,
            }),
            true,
        ),
        (
            "trace",
            quarc.as_ref(),
            base.clone().with_traffic(TrafficSpec::trace(trace)),
            true,
        ),
        (
            "multipath",
            quarc.as_ref(),
            base.clone().with_routing(RoutingSpec::Multipath),
            true,
        ),
        (
            "unicast-tree",
            quarc.as_ref(),
            base.with_routing(RoutingSpec::UnicastTree),
            true,
        ),
        (
            "dual-path mesh",
            mesh.as_ref(),
            traffic_on(mesh.as_ref(), 0.05, 7).with_routing(RoutingSpec::DualPath),
            true,
        ),
        // Outside the backends' domain no rate is sustainable.
        (
            "spidergon multicast",
            spidergon.as_ref(),
            one_port_multicast,
            false,
        ),
        ("implicit min-4x3", implicit.as_ref(), on_implicit, false),
    ];
    let opts = ModelOptions::default();
    for (name, topo, proto, sustainable) in &cases {
        for spec in ALL_BACKENDS {
            let backend = spec.backend();
            let probed = backend.max_sustainable_rate(*topo, proto, &opts, TOL);
            let evaluated = ViaEvaluate(backend).max_sustainable_rate(*topo, proto, &opts, TOL);
            assert_eq!(
                probed.to_bits(),
                evaluated.to_bits(),
                "{name}/{spec}: probes found {probed:e}, evaluations {evaluated:e}"
            );
            assert_eq!(probed > 0.0, *sustainable, "{name}/{spec}: {probed:e}");
            if *sustainable {
                let at = |rate: f64| backend.evaluate(*topo, &proto.at_rate(rate).unwrap(), &opts);
                assert!(at(probed).is_ok(), "{name}/{spec}: horizon is unstable");
                // The on/off case is capped by its peak rate, not by load.
                if *name != "on-off" {
                    assert!(
                        matches!(at(1.02 * probed), Err(ModelError::Saturated { .. })),
                        "{name}/{spec}: 1.02 x horizon is stable"
                    );
                }
            }
        }
    }
}

/// `(topology, dual-path?, mg1 horizon bits, nc horizon bits)` at seed 42,
/// recorded from the dense damped-Jacobi solver (PR 14).
const MODEL_ONLY_HORIZONS: [(&str, bool, u64, u64); 8] = [
    ("quarc-16", false, 0x3f816872b020c49c, 0x3f6ba5e353f7ceda),
    ("quarc-64", false, 0x3f538ef34d6a161f, 0x3f2205bc01a36e2f),
    // The calculus horizon lies below 1e-4: the old search answered 0.0.
    ("quarc-128", false, 0x3f3c432ca57a786c, 0x3efb3d07c84b5dcc),
    ("mesh-8x8", false, 0x3f5b089a02752546, 0x3f34e3bcd35a8588),
    ("mesh-8x8", true, 0x3f5b089a02752546, 0x3f34e3bcd35a8588),
    ("torus-8x8", false, 0x3f5eecbfb15b573e, 0x3f39ce075f6fd220),
    ("hypercube-6", false, 0x3f654c985f06f695, 0x3f40e5604189374c),
    ("ring-32", false, 0x3f55182a9930be0e, 0x3f23dd97f62b6ae8),
];

#[test]
fn model_only_horizons_are_the_dense_solvers() {
    for (spec, dual_path, mg1, nc) in MODEL_ONLY_HORIZONS {
        let topo = topology(spec);
        let mut proto = traffic_on(topo.as_ref(), 0.05, 42);
        if dual_path {
            proto = proto.with_routing(RoutingSpec::DualPath);
        }
        for (backend, bits) in [
            (BackendSpec::MgOne, mg1),
            (BackendSpec::NetworkCalculus, nc),
        ] {
            let h = horizon(backend, topo.as_ref(), &proto);
            assert_eq!(
                h.to_bits(),
                bits,
                "{spec} (dual-path {dual_path}) {backend}: {h:e} = {:#018x}",
                h.to_bits()
            );
        }
    }
}

#[test]
fn fig6_panel_horizons_are_the_dense_solvers() {
    let pinned: [(u64, u64); 5] = [
        (0x3f902de00d1b7176, 0x3f7a36e2eb1c432d),
        (0x3f816872b020c49c, 0x3f6ba5e353f7ceda),
        (0x3f5758e219652bd4, 0x3f33a92a30553262),
        (0x3f538ef34d6a161f, 0x3f2205bc01a36e2f),
        // quarc-128, M = 64: calculus horizon below 1e-4, formerly 0.0.
        (0x3f34467381d7dbf6, 0x3ef38ef34d6a161f),
    ];
    for (panel, (mg1, nc)) in default_panels(Pattern::Random, 42).iter().zip(pinned) {
        let scenario = panel.scenario(4, SimConfig::default());
        let topo = scenario.topology.build().unwrap();
        let proto = scenario
            .workload
            .prototype(topo.as_ref(), scenario.seed)
            .unwrap();
        for (backend, bits) in [
            (BackendSpec::MgOne, mg1),
            (BackendSpec::NetworkCalculus, nc),
        ] {
            let h = horizon(backend, topo.as_ref(), &proto);
            assert_eq!(h.to_bits(), bits, "{} {backend}: {h:e}", panel.label());
        }
    }
}

#[test]
fn an_exhausted_sweep_budget_is_saturation_not_a_solution() {
    // The dense solver accepted rate 2.90625e-4 here at iteration 10 000
    // with the iterate still climbing (its own answer with a 100 000
    // budget: divergence) and reported horizon 0x3f330be0ded288ce.
    let topo = topology("quarc-64");
    let sets = DestinationSets::localized(topo.as_ref(), 8, 42);
    let proto = Workload::new(16, 1e-5, 0.05, sets).unwrap();
    let h = horizon(BackendSpec::NetworkCalculus, topo.as_ref(), &proto);
    assert_eq!(h, 2.890625e-4);
    assert_eq!(h.to_bits(), 0x3f32f1a9fbe76c8b);
    let past = proto.at_rate(2.90625e-4).unwrap();
    let verdict = NetworkCalculusBackend.evaluate(topo.as_ref(), &past, &ModelOptions::default());
    assert!(matches!(verdict, Err(ModelError::Saturated { .. })));
}

#[test]
fn the_search_sees_horizons_below_its_first_probe() {
    // Between 2.5e-5 and 3.75e-5: unstable at the first probe (1e-4), so
    // the search used to give up with 0.0.
    let topo = topology("quarc-128");
    let proto = traffic_on(topo.as_ref(), 0.05, 42);
    let opts = ModelOptions::default();
    let h = horizon(BackendSpec::NetworkCalculus, topo.as_ref(), &proto);
    assert!((2.5e-5..3.75e-5).contains(&h), "horizon {h:e}");
    let at = |rate: f64| {
        NetworkCalculusBackend.evaluate(topo.as_ref(), &proto.at_rate(rate).unwrap(), &opts)
    };
    assert!(at(h).is_ok());

    // Saturation names the channel that bound, with the utilisation that
    // reached the limit — not the raw-load maximum at rho = lambda * msg
    // (0.013 here).
    match at(3.75e-5) {
        Err(ModelError::Saturated { rho, .. }) => assert!(rho > 0.99, "rho = {rho}"),
        other => panic!("expected saturation, got {other:?}"),
    }
    assert!(at(1.02 * h).is_err());
}

#[test]
fn dimension_ordered_unicast_solves_in_one_pass() {
    // XY / e-cube routes never turn back into a dimension, so the
    // channel-successor graph is acyclic and the holding recursion is
    // plain back-substitution. (Hamiltonian-path multicast streams close
    // cycles through the same channels; quarc rims are cycles outright.)
    let opts = ModelOptions::default();
    for spec in ["mesh-8x8", "hypercube-6"] {
        let topo = topology(spec);
        let unicast = traffic_on(topo.as_ref(), 0.0, 42);
        for backend in ALL_BACKENDS {
            let h = horizon(backend, topo.as_ref(), &unicast);
            let wl = unicast.at_rate(0.9 * h).unwrap();
            let p = backend
                .backend()
                .evaluate(topo.as_ref(), &wl, &opts)
                .unwrap();
            assert_eq!(p.iterations, 1, "{spec}/{backend}");
        }
        let multicast = traffic_on(topo.as_ref(), 0.05, 42).at_rate(1e-4).unwrap();
        let p = MgOneBackend
            .evaluate(topo.as_ref(), &multicast, &opts)
            .unwrap();
        assert!(p.iterations > 1, "{spec}: multicast streams close cycles");
    }
    let quarc = topology("quarc-64");
    let wl = traffic_on(quarc.as_ref(), 0.05, 42).at_rate(1e-3).unwrap();
    let p = MgOneBackend.evaluate(quarc.as_ref(), &wl, &opts).unwrap();
    assert!((2..=40).contains(&p.iterations), "{} sweeps", p.iterations);
}
