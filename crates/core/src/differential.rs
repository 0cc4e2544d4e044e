//! Differential tests against the code the model replaced, which
//! survives here, as test-only code, for exactly these comparisons:
//!
//! * the holding recursion — the component-ordered Gauss–Seidel solve
//!   against dense Jacobi over every channel, under-relaxed by 0.7;
//! * the assembler — the dot product over per-edge weight sums against
//!   the per-pair form (every pair's and every stream's route walked
//!   again, two successor searches per hop), and the one-walk `σ` against
//!   the per-source walk of its own it used to take.

use crate::backend::{BackendSpec, NetworkCalculusBackend, ALL_BACKENDS};
use crate::calculus::Fluid;
use crate::multicast::expected_last_completion;
use crate::options::{ModelOptions, ServiceCorrection};
use crate::rates::{ChannelLoads, RoutedLoads};
use crate::service::{self, solve_holding, CorrectedMg1, Holding, ServiceSolution, WaitTerm};
use noc_topology::{ChannelKind, NodeId, Path, RoutingSpec, Topology, TopologySpec, ALL_ROUTINGS};
use noc_workloads::{DestinationSets, TrafficSpec, UnicastPattern, Workload};

/// The reference: `x ← 0.3·x + 0.7·F(x)` over all channels at once, to
/// 1e-12 within 200 000 iterations. `None` is saturation (the raw-rate
/// screen, divergence, an exhausted budget or a `ρ ≥ 1` at the fixed
/// point).
fn dense_jacobi_holding(
    topo: &dyn Topology,
    loads: &ChannelLoads,
    msg_len: f64,
    term: &impl WaitTerm,
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
                let summand = |&(j, rate): &(noc_topology::ChannelId, f64)| {
                    let (xj, lj) = (x[j.idx()], loads.lambda[j.idx()]);
                    let p = rate / li;
                    p * (term.factor(rate, p, lj) * term.wait(lj, xj) + xj + 1.0)
                };
                succ.iter().map(summand).sum()
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
    let loads = RoutedLoads::walk(topo, wl, &opts).unwrap().at(wl.gen_rate);
    let order = service::components(topo, &loads);
    let mut held = Holding::default();
    let (new, old) = match backend {
        BackendSpec::MgOne => {
            let term = CorrectedMg1 {
                msg_len: msg,
                opts: &opts,
            };
            (
                solve_holding(&loads, &order, msg, &term, &mut held),
                dense_jacobi_holding(topo, &loads, msg, &term),
            )
        }
        BackendSpec::NetworkCalculus => (
            solve_holding(&loads, &order, msg, &Fluid, &mut held),
            dense_jacobi_holding(topo, &loads, msg, &Fluid),
        ),
    };
    match (new, old) {
        (Ok(()), Some(old)) => {
            for (i, (a, b)) in held.time.iter().zip(&old).enumerate() {
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

/// Total corrected header waiting time along a path (the `Σ_l w_l` of
/// Eq. 7 and the `Ω_{j,c}` of Eq. 8), as first written.
fn path_waiting_sum(
    path: &Path,
    loads: &ChannelLoads,
    sol: &ServiceSolution,
    opts: &ModelOptions,
) -> f64 {
    // Injection channel: the message queues behind its own node's earlier
    // messages — no predecessor, full wait.
    let mut total = sol.waiting[path.hops[0].channel.idx()];
    for (prev, cur) in path.transitions() {
        let lj = loads.lambda[cur.idx()];
        let w = sol.waiting[cur.idx()];
        if w == 0.0 {
            continue;
        }
        let edge = loads.successors[prev.idx()]
            .iter()
            .find(|&&(c, _)| c == cur);
        let rate = edge.map_or(0.0, |&(_, r)| r);
        let frac = if lj > 0.0 { (rate / lj).min(1.0) } else { 0.0 };
        let li = loads.lambda[prev.idx()];
        let p = if li > 0.0 { rate / li } else { 0.0 };
        total += opts.correction.factor(frac, p) * w;
    }
    total
}

/// What the assembler must reproduce: unicast and multicast latency and,
/// per source with a destination set, its port sums and `max_hops`.
struct Reference {
    unicast: f64,
    multicast: f64,
    per_node: Vec<(Vec<f64>, usize)>,
}

/// The per-pair form under `path_wait`, a whole path's header wait:
/// `Σ w(s,d)·(path_wait + msg + D)/N` over every ordered pair, and per
/// source `combine` over its streams' waits.
fn per_pair(
    topo: &dyn Topology,
    wl: &Workload,
    path_wait: impl Fn(&Path) -> f64,
    combine: impl Fn(&[f64]) -> f64,
) -> Reference {
    let n = topo.num_nodes();
    let msg = wl.msg_len as f64;
    let mut total = 0.0;
    for s in 0..n {
        for d in (0..n).filter(|&d| d != s) {
            let (s, d) = (NodeId(s as u32), NodeId(d as u32));
            let w = wl.unicast_pattern.weight(n, s, d);
            if w > 0.0 {
                let path = topo.unicast_path(s, d);
                total += w * (path_wait(&path) + msg + path.hop_count() as f64);
            }
        }
    }
    let mut per_node = Vec::new();
    let mut mc_total = 0.0;
    if topo.concurrent_multicast() {
        for j in 0..n {
            let node = NodeId(j as u32);
            let set = wl.multicast_set(node);
            if set.is_empty() {
                continue;
            }
            let streams = wl.routing.streams(topo, node, set);
            let waits: Vec<f64> = streams.iter().map(|st| path_wait(&st.path)).collect();
            let hops = streams.iter().map(|st| st.path.hop_count()).max().unwrap();
            mc_total += combine(&waits) + msg + hops as f64;
            per_node.push((waits, hops));
        }
    }
    Reference {
        unicast: total / n as f64,
        multicast: mc_total / per_node.len() as f64,
        per_node,
    }
}

/// `σ_j` by a walk of its own per source: the larger of the stream
/// multiplicity and the unicast crossing, times the source's burst.
fn per_source_sigma(topo: &dyn Topology, wl: &Workload) -> Vec<f64> {
    let n = topo.num_nodes();
    let burst = match wl.traffic {
        TrafficSpec::Geometric => 1.0,
        TrafficSpec::OnOff {
            burst_len,
            peak_rate,
        } => noc_queueing::network_calculus::onoff_burstiness(burst_len, peak_rate, wl.gen_rate),
        TrafficSpec::Trace { .. } => unreachable!("no trace case below"),
    };
    let mut sigma = vec![0.0; topo.network().num_channels()];
    for s in 0..n {
        let src = NodeId(s as u32);
        let mut mult = vec![0u32; sigma.len()];
        if wl.multicast_rate() > 0.0 && !wl.multicast_set(src).is_empty() {
            for st in wl.routing.streams(topo, src, wl.multicast_set(src)) {
                st.path.channels().for_each(|c| mult[c.idx()] += 1);
            }
        }
        if wl.unicast_rate() > 0.0 {
            for d in (0..n).filter(|&d| d != s) {
                let dst = NodeId(d as u32);
                if wl.unicast_pattern.weight(n, src, dst) > 0.0 {
                    let path = topo.unicast_path(src, dst);
                    path.channels()
                        .for_each(|c| mult[c.idx()] = mult[c.idx()].max(1));
                }
            }
        }
        for (sig, m) in sigma.iter_mut().zip(mult) {
            *sig += burst * m as f64 * wl.msg_len as f64;
        }
    }
    sigma
}

fn assert_close(case: &str, what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= 1e-10 * want.abs(),
        "{case}: {what} {got}, the per-pair form says {want}"
    );
}

#[test]
fn assembler_matches_the_per_pair_form() {
    // The registry families of `tests/model_backends.rs`; spidergon cannot
    // fork a wormhole, so it carries unicast only. On the unicast-only
    // quarc the streams' port sums cross edges that carry no traffic.
    let families = [
        ("quarc-16", 0.1),
        ("quarc-16", 0.0),
        ("mesh-4x4", 0.1),
        ("torus-4x4", 0.1),
        ("hypercube-3", 0.1),
        ("ring-8", 0.1),
        ("spidergon-8", 0.0),
    ];
    let mut compared = 0;
    for (spec, alpha) in families {
        let topo = TopologySpec::parse(spec).unwrap().build().unwrap();
        let topo = topo.as_ref();
        let n = topo.num_nodes();
        let hot_spot = UnicastPattern::HotSpot {
            node: NodeId(3),
            fraction: 0.3,
        };
        let mut patterns = vec![UnicastPattern::Uniform, hot_spot];
        if UnicastPattern::Transpose.validate(n).is_ok() {
            patterns.push(UnicastPattern::Transpose);
        }
        let sets = DestinationSets::random(topo, n / 4, 42);
        let base = Workload::new(32, 1e-5, alpha, sets).unwrap();
        for routing in ALL_ROUTINGS {
            let realizable = routing.validate(n, topo.num_ports(), topo.has_linear_order());
            if realizable.is_err() || (alpha == 0.0 && routing != RoutingSpec::PathBased) {
                continue;
            }
            for pattern in &patterns {
                let mut proto = base.clone().with_routing(routing);
                proto.unicast_pattern = *pattern;
                // Bursts that are not whole numbers of flits, so the order
                // `σ` is summed in shows.
                let bursty = proto.clone().with_traffic(TrafficSpec::OnOff {
                    burst_len: 3.5,
                    peak_rate: 0.3,
                });
                for backend in ALL_BACKENDS {
                    let proto = match backend {
                        BackendSpec::MgOne => &proto,
                        BackendSpec::NetworkCalculus => &bursty,
                    };
                    if !backend.backend().applicable(topo, proto) {
                        continue;
                    }
                    for correction in [
                        ServiceCorrection::SelfExcluding,
                        ServiceCorrection::LiteralEq6,
                        ServiceCorrection::None,
                    ] {
                        let opts = ModelOptions {
                            correction,
                            ..ModelOptions::default()
                        };
                        let horizon = backend
                            .backend()
                            .max_sustainable_rate(topo, proto, &opts, 0.01);
                        assert!(horizon > 0.0, "{spec}/{routing}/{backend}: no horizon");
                        for fraction in [0.3, 0.9] {
                            let case = format!(
                                "{spec}/{routing}/{pattern:?}/{correction:?}/{backend}@{fraction}"
                            );
                            let wl = proto.at_rate(fraction * horizon).unwrap();
                            compare_assembly(&case, topo, &wl, &opts, backend);
                            compared += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(compared > 400, "only {compared} cases compared");
}

fn compare_assembly(
    case: &str,
    topo: &dyn Topology,
    wl: &Workload,
    opts: &ModelOptions,
    backend: BackendSpec,
) {
    let got = backend.backend().evaluate(topo, wl, opts).unwrap();
    let loads = RoutedLoads::walk(topo, wl, opts).unwrap().at(wl.gen_rate);
    let want = match backend {
        BackendSpec::MgOne => {
            let sol = service::solve(topo, &loads, wl.msg_len as f64, opts).unwrap();
            per_pair(
                topo,
                wl,
                |path| path_waiting_sum(path, &loads, &sol, opts),
                expected_last_completion,
            )
        }
        BackendSpec::NetworkCalculus => {
            for (j, (got, want)) in loads
                .sigma
                .iter()
                .zip(per_source_sigma(topo, wl))
                .enumerate()
            {
                assert_close(case, &format!("sigma[{j}]"), *got, want);
            }
            let bounds = NetworkCalculusBackend
                .channel_bounds(topo, wl, opts)
                .unwrap();
            per_pair(
                topo,
                wl,
                |path| path.channels().map(|c| bounds.delay[c.idx()]).sum(),
                |waits| waits.iter().sum(),
            )
        }
    };
    assert_close(case, "unicast latency", got.unicast_latency, want.unicast);
    assert_eq!(got.per_node.len(), want.per_node.len(), "{case}");
    if !want.per_node.is_empty() {
        assert_close(
            case,
            "multicast latency",
            got.multicast_latency,
            want.multicast,
        );
    }
    for (nm, (waits, hops)) in got.per_node.iter().zip(&want.per_node) {
        assert_eq!(nm.max_hops, *hops, "{case}: node {:?}", nm.node);
        assert_eq!(nm.port_waits.len(), waits.len(), "{case}");
        for (got, want) in nm.port_waits.iter().zip(waits) {
            assert_close(case, &format!("port wait of {:?}", nm.node), *got, *want);
        }
    }
}
