//! What one routed-load table per sweep must not change.
//!
//! The channel rates `λ_j` are linear in the generation rate, so a sweep
//! can walk its routes once at a reference rate and rescale per point.
//! Three things are *not* linear and were each a way to get that wrong;
//! the expected values below were recorded with every evaluation still
//! walking at its own rate.

use quarc_noc::model::RoutedLoads;
use quarc_noc::prelude::*;

fn topology(spec: &str) -> Box<dyn Topology> {
    TopologySpec::parse(spec).unwrap().build().unwrap()
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs()
}

/// (a) At `gen_rate = 0` (zero-load checks, the closed loop's placeholder
/// rate) every latency is the pipeline term `M + hops`: routes walked at a
/// positive reference rate keep their successor edges at rate zero, and
/// those must not reach `λ_{i→j}/λ_i`.
#[test]
fn a_zero_rate_evaluation_is_the_pipeline_latency() {
    let opts = ModelOptions::default();
    for spec in ["quarc-16", "mesh-4x4", "ring-8"] {
        let topo = topology(spec);
        let n = topo.num_nodes();
        let sets = DestinationSets::random(topo.as_ref(), 3, 11);
        let mean_hops = (0..n)
            .flat_map(|s| (0..n).map(move |d| (NodeId(s as u32), NodeId(d as u32))))
            .filter(|(s, d)| s != d)
            .map(|(s, d)| topo.unicast_path(s, d).hop_count() as f64)
            .sum::<f64>()
            / (n * (n - 1)) as f64;
        for alpha in [0.0, 0.1, 1.0] {
            let wl = Workload::new(32, 0.0, alpha, sets.clone()).unwrap();
            for backend in ALL_BACKENDS {
                let case = format!("{spec}/alpha {alpha}/{backend}");
                let p = backend
                    .backend()
                    .evaluate(topo.as_ref(), &wl, &opts)
                    .unwrap();
                assert!(
                    (p.unicast_latency - (32.0 + mean_hops)).abs() < 1e-9,
                    "{case}"
                );
                assert_eq!(p.max_rho, 0.0, "{case}");
                assert_eq!(p.per_node.len(), n, "{case}");
                for nm in &p.per_node {
                    let streams = topo.multicast_streams(nm.node, sets.set(nm.node));
                    let hops = streams.iter().map(|st| st.path.hop_count()).max().unwrap();
                    assert_eq!(nm.waiting, 0.0, "{case}");
                    assert_eq!(nm.latency, 32.0 + hops as f64, "{case}");
                }
            }
        }
    }
}

/// `(Σ_j σ_j, max_j σ_j)` of the loads `wl` induces on `topo`.
fn sigma_digest(topo: &dyn Topology, wl: &Workload) -> (f64, f64) {
    let loads = RoutedLoads::walk(topo, wl, &ModelOptions::default())
        .unwrap()
        .at(wl.gen_rate);
    let sum = loads.sigma.iter().sum();
    let max = loads.sigma.iter().copied().fold(0.0, f64::max);
    (sum, max)
}

/// (b) Only the geometric source's burst is rate-free: the on/off
/// envelope `1 + (B − 1)(1 − rate/peak)` and the trace's empirical
/// envelope against the rate line both read the generation rate, so `σ`
/// at rate `r` is not `σ` at the reference rate.
#[test]
fn bursts_follow_the_generation_rate() {
    let topo = topology("quarc-16");
    let sets = DestinationSets::random(topo.as_ref(), 4, 1);
    let proto = Workload::new(32, 1e-4, 0.1, sets).unwrap();

    let onoff = proto.clone().with_traffic(TrafficSpec::OnOff {
        burst_len: 8.0,
        peak_rate: 0.2,
    });
    // Clumps on three nodes, a lone message on a fourth, the rest silent.
    let mut entries = Vec::new();
    for (node, start, gap, count) in [(0u32, 100u64, 1u64, 8u64), (5, 40, 3, 5), (9, 7, 50, 4)] {
        for k in 0..count {
            let kind = if k % 3 == 2 {
                TraceKind::Multicast
            } else {
                TraceKind::Unicast {
                    dst: (node + 1 + k as u32) % 16,
                }
            };
            entries.push(TraceEntry {
                cycle: start + gap * k,
                node,
                kind,
            });
        }
    }
    entries.push(TraceEntry {
        cycle: 900,
        node: 12,
        kind: TraceKind::Multicast,
    });
    let trace = proto.clone().with_traffic(TrafficSpec::trace(entries));

    let expected = [
        (
            "onoff",
            &onoff,
            [
                (5e-4, (143046.40000000026, 1788.0800000000002)),
                (4e-3, (140851.2000000002, 1760.6399999999999)),
                (0.03, (124543.99999999997, 1556.8000000000002)),
            ],
        ),
        (
            "trace",
            &trace,
            [
                (5e-4, (20065.36000000001, 415.696)),
                (4e-3, (19402.879999999983, 413.568)),
                (0.03, (16161.599999999999, 397.76)),
            ],
        ),
    ];
    for (name, wl, by_rate) in expected {
        for (rate, (sum, max)) in by_rate {
            let (got_sum, got_max) = sigma_digest(topo.as_ref(), &wl.at_rate(rate).unwrap());
            assert!(
                close(got_sum, sum) && close(got_max, max),
                "{name} at {rate}: ({got_sum:?}, {got_max:?}) vs ({sum:?}, {max:?})"
            );
        }
    }
    // The geometric source's is one message per crossing at any rate.
    let at = |rate: f64| sigma_digest(topo.as_ref(), &proto.at_rate(rate).unwrap());
    assert_eq!(at(5e-4), at(0.03));
}

/// (c) `α = 0` keeps no stream load and `α = 1` no unicast load, yet both
/// latencies are predicted in both cases: the streams and the unicast
/// weights are kept whether or not anything is offered on them.
#[test]
fn all_unicast_and_all_multicast_workloads_evaluate() {
    let topo = topology("quarc-16");
    let sets = DestinationSets::random(topo.as_ref(), 4, 1);
    let opts = ModelOptions::default();
    let expected = [
        (
            0.0,
            [
                (36.08883087664001, 37.72298343441358),
                (784.5201266833689, 2343.0870372736845),
            ],
        ),
        (
            1.0,
            [
                (37.231321389369434, 40.255048080371054),
                (369.7786294138717, 1285.1853873578107),
            ],
        ),
    ];
    for (alpha, by_backend) in expected {
        let wl = Workload::new(32, 5e-4, alpha, sets.clone()).unwrap();
        for (backend, (unicast, multicast)) in ALL_BACKENDS.into_iter().zip(by_backend) {
            let p = backend
                .backend()
                .evaluate(topo.as_ref(), &wl, &opts)
                .unwrap();
            assert!(
                close(p.unicast_latency, unicast) && close(p.multicast_latency, multicast),
                "alpha {alpha}/{backend}: ({:?}, {:?}) vs ({unicast:?}, {multicast:?})",
                p.unicast_latency,
                p.multicast_latency
            );
        }
    }
}
