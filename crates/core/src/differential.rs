//! Differential test of the holding recursion: the component-ordered
//! Gauss–Seidel solve against the solver it replaced — dense Jacobi over
//! every channel, under-relaxed by 0.7 — which survives here, as test-only
//! code, for exactly this comparison.

use crate::backend::{BackendSpec, ALL_BACKENDS};
use crate::calculus::fluid_wait;
use crate::options::ModelOptions;
use crate::rates::ChannelLoads;
use crate::service::{corrected_mg1_wait, solve_holding};
use noc_topology::{ChannelKind, RoutingSpec, Topology, TopologySpec};
use noc_workloads::{DestinationSets, Workload};

/// The reference: `x ← 0.3·x + 0.7·F(x)` over all channels at once, to
/// 1e-12 within 200 000 iterations. `None` is saturation (the raw-rate
/// screen, divergence, an exhausted budget or a `ρ ≥ 1` at the fixed
/// point).
fn dense_jacobi_holding(
    topo: &dyn Topology,
    loads: &ChannelLoads,
    msg_len: f64,
    wait_term: impl Fn(f64, f64, f64, f64) -> f64,
) -> Option<Vec<f64>> {
    const DAMPING: f64 = 0.7;
    let channels = topo.network().channels();
    if loads.lambda.iter().any(|l| l * msg_len >= 1.0) {
        return None;
    }
    let mut x = vec![msg_len; channels.len()];
    let mut next = x.clone();
    for _ in 0..200_000 {
        for (i, out) in next.iter_mut().enumerate() {
            let li = loads.lambda[i];
            let succ = &loads.successors[i];
            *out = if channels[i].kind == ChannelKind::Ejection || succ.is_empty() || li <= 0.0 {
                msg_len
            } else {
                let term = |&(j, rate): &(noc_topology::ChannelId, f64)| {
                    let xj = x[j.idx()];
                    (rate / li) * (wait_term(xj, rate, li, loads.lambda[j.idx()]) + xj + 1.0)
                };
                succ.iter().map(term).sum()
            };
        }
        let mut residual: f64 = 0.0;
        for (xi, fi) in x.iter_mut().zip(&next) {
            let updated = (1.0 - DAMPING) * *xi + DAMPING * fi;
            if !updated.is_finite() || updated > 1e12 {
                return None;
            }
            residual = residual.max((updated - *xi).abs());
            *xi = updated;
        }
        if residual < 1e-12 {
            let stable = loads.lambda.iter().zip(&x).all(|(l, x)| l * x < 1.0);
            return stable.then_some(x);
        }
    }
    None
}

/// Both solvers on one set of loads under one backend's wait term.
fn compare(case: &str, topo: &dyn Topology, wl: &Workload, backend: BackendSpec) {
    let opts = ModelOptions::default();
    let msg = wl.msg_len as f64;
    let loads = ChannelLoads::build(topo, wl, &opts);
    let (new, old) = match backend {
        BackendSpec::MgOne => {
            let wait = corrected_mg1_wait(msg, &opts);
            (
                solve_holding(topo, &loads, msg, &opts, &wait),
                dense_jacobi_holding(topo, &loads, msg, &wait),
            )
        }
        BackendSpec::NetworkCalculus => (
            solve_holding(topo, &loads, msg, &opts, fluid_wait),
            dense_jacobi_holding(topo, &loads, msg, fluid_wait),
        ),
    };
    match (new, old) {
        (Ok(new), Some(old)) => {
            for (i, (a, b)) in new.time.iter().zip(&old).enumerate() {
                assert!(*a >= msg, "{case}: channel {i} holds {a} < msg");
                assert!(
                    (a - b).abs() <= 1e-6 * b,
                    "{case}: channel {i} holds {a}, the dense solve says {b}"
                );
            }
        }
        (Err(_), None) => {}
        (new, old) => panic!(
            "{case}: verdicts differ — component solve stable: {}, dense solve stable: {}",
            new.is_ok(),
            old.is_some()
        ),
    }
}

#[test]
fn component_solve_matches_dense_jacobi() {
    // The six dense registry families; spidergon cannot fork a wormhole,
    // so it carries unicast only.
    let families = [
        ("quarc-32", 0.05),
        ("ring-16", 0.05),
        ("spidergon-16", 0.0),
        ("mesh-4x4", 0.05),
        ("torus-4x4", 0.05),
        ("hypercube-4", 0.05),
    ];
    for (spec, alpha) in families {
        let topo = TopologySpec::parse(spec).unwrap().build().unwrap();
        let topo = topo.as_ref();
        let n = topo.num_nodes();
        let dual_path = RoutingSpec::DualPath
            .validate(n, topo.num_ports(), topo.has_linear_order())
            .is_ok();
        for seed in [42u64, 1234, 7] {
            let sets = DestinationSets::random(topo, n / 4, seed);
            let proto = Workload::new(32, 1e-5, alpha, sets).unwrap();
            let mut protos = vec![("path-based", proto.clone())];
            if dual_path && alpha > 0.0 {
                protos.push(("dual-path", proto.with_routing(RoutingSpec::DualPath)));
            }
            for (routing, proto) in &protos {
                for backend in ALL_BACKENDS {
                    let horizon = backend.backend().max_sustainable_rate(
                        topo,
                        proto,
                        &ModelOptions::default(),
                        0.01,
                    );
                    assert!(horizon > 0.0, "{spec}/{routing}/{backend}: no horizon");
                    // The figures' span below the horizon, and one point
                    // well past it where both must say saturated.
                    let fractions = (0..9).map(|i| 0.15 + 0.1 * i as f64).chain([2.0]);
                    for f in fractions {
                        let case = format!("{spec}/{routing}/s{seed}/{backend}@{f:.2}");
                        let wl = proto.at_rate(f * horizon).unwrap();
                        compare(&case, topo, &wl, backend);
                    }
                }
            }
        }
    }
}
