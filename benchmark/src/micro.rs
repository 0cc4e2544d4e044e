//! Per-layer measurements on fixed cases: a timing or an exact count taken
//! around one public call of each layer. They run in traced mode only, are
//! the same whichever workload was selected, and share the run's
//! `--seconds` budget in equal slices (an expensive call overruns its slice
//! by taking its minimum number of samples).

use crate::bodies::{
    run_engine, scale_config, scale_workload, sim_config, topology, traffic_on, EngineCaseState,
};
use crate::catalog::{self, Source};
use crate::params::{self, micro as m, Windows};
use crate::stats;
use crate::trace::Recorder;
use noc_bench::scenario::PROTOTYPE_RATE;
use noc_bench::{default_panels, Pattern, Scenario};
use noc_queueing::expected_max_exponentials;
use noc_sim::schedule::EventQueue;
use noc_sim::{
    build_engine_with_plan, chrome_trace, record_trace, ArrivalStream, EngineKind, LogHistogram,
    SimConfig, SimPlan, SimResults, TelemetrySpec, TraceMode, TrackNames,
};
use noc_topology::{NodeId, RoutingSpec, Topology};
use noc_workloads::{DestinationSets, TrafficSpec, Workload};
use quarc_core::{
    AnalyticModel, MgOneBackend, ModelBackend, ModelError, ModelOptions, NetworkCalculusBackend,
    Prediction,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One per-layer value with the number of samples behind it (1 for a count).
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

struct Suite {
    slice: Duration,
    out: Vec<Measured>,
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

impl Suite {
    /// Median of the values `f` returns, sampled until the slice is spent
    /// and at least `min` samples are in.
    fn sample(&mut self, name: &str, min: usize, mut f: impl FnMut() -> f64) -> f64 {
        let t0 = Instant::now();
        let mut values = Vec::new();
        while values.len() < min || (t0.elapsed() < self.slice && values.len() < 1001) {
            values.push(f());
        }
        let median = stats::median(&values);
        self.push(name, median, values.len());
        median
    }

    /// Median of per-pair `a / b` walls with alternating order: each pair
    /// runs under one machine state, so common-mode noise divides out
    /// (`perf-smoke`'s method).
    fn pair(&mut self, name: &str, mut a: impl FnMut(), mut b: impl FnMut()) {
        let mut i = 0;
        self.sample(name, 3, || {
            i += 1;
            if i % 2 == 0 {
                let ta = secs(&mut a);
                ta / secs(&mut b)
            } else {
                let tb = secs(&mut b);
                secs(&mut a) / tb
            }
        });
    }

    fn count(&mut self, name: &str, value: f64) {
        self.push(name, value, 1);
    }

    fn push(&mut self, name: &str, value: f64, samples: usize) {
        self.out.push(Measured {
            name: name.to_string(),
            value,
            samples,
        });
    }
}

fn all_pairs(n: usize) -> impl Iterator<Item = (NodeId, NodeId)> {
    (0..n as u32)
        .flat_map(move |s| (0..n as u32).map(move |d| (NodeId(s), NodeId(d))))
        .filter(|(s, d)| s != d)
}

/// `count` source/destination pairs on `n` nodes from a fixed LCG, so the
/// sampled routes are the same in every run.
fn sampled_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % n as u64) as u32
    };
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let (s, d) = (next(), next());
        if s != d {
            pairs.push((NodeId(s), NodeId(d)));
        }
    }
    pairs
}

fn engine_run(
    topo: &dyn Topology,
    wl: &Workload,
    cfg: SimConfig,
    plan: &Arc<SimPlan>,
) -> SimResults {
    build_engine_with_plan(topo, wl, cfg, Arc::clone(plan)).run()
}

/// A `ModelBackend` that delegates and counts `evaluate` calls, to read the
/// number of evaluations a bisection makes from outside.
struct Counting<'a> {
    inner: &'a dyn ModelBackend,
    evaluates: AtomicU64,
}

impl ModelBackend for Counting<'_> {
    fn code(&self) -> &'static str {
        self.inner.code()
    }
    fn applicable(&self, topo: &dyn Topology, wl: &Workload) -> bool {
        self.inner.applicable(topo, wl)
    }
    fn evaluate(
        &self,
        topo: &dyn Topology,
        wl: &Workload,
        opts: &ModelOptions,
    ) -> Result<Prediction, ModelError> {
        self.evaluates.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(topo, wl, opts)
    }
}

/// Run every per-layer measurement inside about `budget`.
pub fn run(seed: u64, budget: Duration) -> Vec<Measured> {
    let listed = catalog::PER_LAYER
        .iter()
        .filter(|m| m.source == Source::Fixed);
    let mut s = Suite {
        slice: budget / listed.count() as u32,
        out: Vec::new(),
    };
    // Small cases first: once the 65 536-node fixtures have been built and
    // freed, the allocator's state makes small allocations cost more.
    model_layers(&mut s, seed);
    telemetry_and_serde(&mut s, seed);
    scenario_layer(&mut s, seed);
    topology_layer(&mut s, seed);
    let implicit = Implicit::build(seed);
    schedule_layer(&mut s, &implicit, seed);
    engine_layer(&mut s, &implicit, seed);
    s.out
}

/// The 65 536-node fixtures several layers measure on.
struct Implicit {
    topo: Box<dyn Topology>,
    wl: Workload,
    plan: Arc<SimPlan>,
    pairs: Vec<(NodeId, NodeId)>,
}

impl Implicit {
    fn build(seed: u64) -> Self {
        let topo = topology(params::SCALE_TOPOLOGY);
        let wl = scale_workload(topo.as_ref(), seed);
        let plan = SimPlan::build(topo.as_ref(), &wl).expect("plan builds");
        let pairs = sampled_pairs(topo.num_nodes(), m::IMPLICIT_PAIRS, seed);
        Implicit {
            topo,
            wl,
            plan,
            pairs,
        }
    }
}

fn topology_layer(s: &mut Suite, seed: u64) {
    s.sample("topology.build_ms", 3, || {
        1e3 * secs(|| {
            black_box(topology(m::DENSE_LARGE));
        })
    });
    let small = topology(m::DENSE_SMALL);
    let n = small.num_nodes();
    s.sample("topology.route_dense_ns", 3, || {
        let t = secs(|| {
            for (src, dst) in all_pairs(n) {
                black_box(small.unicast_path(src, dst));
            }
        });
        1e9 * t / (n * (n - 1)) as f64
    });
    let implicit = topology(params::SCALE_TOPOLOGY);
    let pairs = sampled_pairs(implicit.num_nodes(), m::IMPLICIT_PAIRS, seed);
    s.sample("topology.route_implicit_ns", 3, || {
        let t = secs(|| {
            for &(src, dst) in &pairs {
                black_box(implicit.unicast_path(src, dst));
            }
        });
        1e9 * t / pairs.len() as f64
    });
    let mesh = topology(m::STREAMS_TOPOLOGY);
    let wl = traffic_on(mesh.as_ref(), PROTOTYPE_RATE, seed);
    for (suffix, routing) in [
        ("pathbased", RoutingSpec::PathBased),
        ("dualpath", RoutingSpec::DualPath),
    ] {
        let nodes = mesh.num_nodes();
        s.sample(&format!("topology.mcast_streams_us.{suffix}"), 3, || {
            let t = secs(|| {
                for src in (0..nodes as u32).map(NodeId) {
                    black_box(routing.streams(mesh.as_ref(), src, wl.multicast_set(src)));
                }
            });
            1e6 * t / nodes as f64
        });
    }
    let large = topology(m::DENSE_LARGE);
    let group = large.num_nodes() / params::TRAFFIC.group_divisor;
    s.sample("workloads.destsets_ms.random", 3, || {
        1e3 * secs(|| {
            black_box(DestinationSets::random(large.as_ref(), group, seed));
        })
    });
    s.sample("workloads.destsets_ms.sampled", 3, || {
        1e3 * secs(|| {
            black_box(DestinationSets::sampled(
                implicit.as_ref(),
                params::SCALE_GROUP,
                seed,
            ));
        })
    });
    let wl = traffic_on(large.as_ref(), PROTOTYPE_RATE, seed);
    s.sample("sim.plan.build_dense_ms", 3, || {
        1e3 * secs(|| {
            black_box(SimPlan::build(large.as_ref(), &wl).expect("plan builds"));
        })
    });
}

fn schedule_layer(s: &mut Suite, big: &Implicit, seed: u64) {
    s.sample("sim.plan.build_lazy_ms", 3, || {
        1e3 * secs(|| {
            black_box(SimPlan::build(big.topo.as_ref(), &big.wl).expect("plan builds"));
        })
    });
    s.sample("sim.plan.lazy_path_ns", 3, || {
        let t = secs(|| {
            for &(src, dst) in &big.pairs {
                black_box(big.plan.unicast_path(src, dst));
            }
        });
        1e9 * t / big.pairs.len() as f64
    });

    // The `traffic-gen` bench's method: fresh streams, a fixed number of
    // arrivals popped round-robin.
    let n = m::ARRIVAL_NODES;
    let small = topology(&format!("quarc-{n}"));
    let base = Workload::new(
        params::TRAFFIC.msg_len,
        m::ARRIVAL_RATE,
        params::TRAFFIC.alpha,
        DestinationSets::random(small.as_ref(), n / params::TRAFFIC.group_divisor, seed),
    )
    .expect("arrival workload");
    let horizon = 2 * (m::ARRIVALS / n as u64) * (1.0 / m::ARRIVAL_RATE) as u64;
    let recorded = record_trace(&base, n, seed, horizon);
    let kinds = [
        ("geometric", TrafficSpec::Geometric),
        (
            "onoff",
            TrafficSpec::OnOff {
                burst_len: m::ONOFF_BURST_LEN,
                peak_rate: m::ONOFF_PEAK_RATE,
            },
        ),
        ("trace", TrafficSpec::trace(recorded)),
    ];
    for (suffix, traffic) in kinds {
        let wl = base.clone().with_traffic(traffic);
        s.sample(&format!("sim.schedule.arrival_ns.{suffix}"), 3, || {
            let t = secs(|| {
                let mut streams = ArrivalStream::build_all(&wl, n, seed);
                let mut node = 0;
                for _ in 0..m::ARRIVALS {
                    assert!(
                        streams[node].next_arrival() < u64::MAX,
                        "the recorded trace outlasts the sample"
                    );
                    black_box(streams[node].pop(&wl, n, NodeId(node as u32)));
                    node = (node + 1) % n;
                }
            });
            1e9 * t / m::ARRIVALS as f64
        });
    }

    for (suffix, pending) in [("n64", 64u64), ("n64k", 65_536)] {
        s.sample(&format!("sim.schedule.eventqueue_ns.{suffix}"), 3, || {
            // `pending` events stay queued, one per cycle ahead of `now`;
            // every step pops the one that came due and pushes a new one
            // at the far end, as a steady arrival stream does.
            let mut q = EventQueue::with_capacity(pending as usize);
            for t in 1..=pending {
                q.push(t, t as u32);
            }
            let t = secs(|| {
                for now in 1..=m::QUEUE_OPS {
                    let id = q.pop_due(now).expect("one event is due every cycle");
                    q.push(now + pending, id);
                }
            });
            1e9 * t / m::QUEUE_OPS as f64
        });
    }
    let n = big.topo.num_nodes();
    s.sample("sim.schedule.build_all_ms.n64k", 3, || {
        1e3 * secs(|| {
            black_box(ArrivalStream::build_all(&big.wl, n, seed));
        })
    });
}

fn engine_layer(s: &mut Suite, big: &Implicit, seed: u64) {
    let topo = topology(m::DENSE_SMALL);
    let proto = traffic_on(topo.as_ref(), PROTOTYPE_RATE, seed);
    let plan = SimPlan::build(topo.as_ref(), &proto).expect("plan builds");
    let at = |fraction: f64| {
        proto
            .at_rate(fraction * m::ENGINE_HORIZON)
            .expect("valid rate")
    };
    let cfg = |w: Windows| sim_config(w, seed, 1.0);
    let big_cfg = scale_config(m::ENGINE_N64K_WINDOWS, seed, 1.0);

    let knee = at(m::ENGINE_KNEE);
    s.sample("sim.engine.build_ms.n64", 3, || {
        1e3 * secs(|| {
            let engine = build_engine_with_plan(
                topo.as_ref(),
                &knee,
                cfg(m::ENGINE_WINDOWS),
                Arc::clone(&plan),
            );
            black_box(engine.now());
        })
    });
    s.sample("sim.engine.build_ms.n64k", 2, || {
        1e3 * secs(|| {
            let engine =
                build_engine_with_plan(big.topo.as_ref(), &big.wl, big_cfg, Arc::clone(&big.plan));
            black_box(engine.now());
        })
    });

    let ns_per_move = |topo: &dyn Topology, wl: &Workload, cfg: SimConfig, plan: &Arc<SimPlan>| {
        let mut moves = 0;
        let t = secs(|| moves = engine_run(topo, wl, cfg, plan).flit_moves);
        1e9 * t / moves as f64
    };
    let points = [
        ("low", m::ENGINE_LOW, m::ENGINE_LOW_WINDOWS),
        ("knee", m::ENGINE_KNEE, m::ENGINE_WINDOWS),
        ("sat", m::ENGINE_SAT, m::ENGINE_WINDOWS),
    ];
    for (suffix, fraction, windows) in points {
        let wl = at(fraction);
        s.sample(&format!("sim.engine.ns_per_move.{suffix}"), 3, || {
            ns_per_move(topo.as_ref(), &wl, cfg(windows), &plan)
        });
    }
    // The closed-loop case of `sat-kernel` at a quarter of its requests.
    let closed = EngineCaseState::closed(seed, 0.25);
    let mut off = Recorder::new("", 0, false);
    s.sample("sim.engine.ns_per_move.closed", 3, || {
        let mut moves = 0;
        let t = secs(|| moves = run_engine(&mut off, closed.input()).flit_moves);
        1e9 * t / moves as f64
    });
    s.sample("sim.engine.ns_per_move.n64k", 2, || {
        ns_per_move(big.topo.as_ref(), &big.wl, big_cfg, &big.plan)
    });

    let plain = cfg(m::ENGINE_WINDOWS);
    let modes = [
        (
            "ring",
            TraceMode::Ring {
                capacity: m::RING_CAPACITY,
            },
        ),
        ("full", TraceMode::Full),
    ];
    for (suffix, mode) in modes {
        let telemetry = TelemetrySpec::off()
            .with_trace(mode)
            .with_util_window(m::UTIL_WINDOW);
        let traced = plain.with_telemetry(telemetry);
        s.pair(
            &format!("sim.engine.telemetry_ratio.{suffix}"),
            || drop(black_box(engine_run(topo.as_ref(), &knee, traced, &plan))),
            || drop(black_box(engine_run(topo.as_ref(), &knee, plain, &plan))),
        );
    }

    let cycle = plain.with_engine(EngineKind::Cycle);
    let sat = at(m::ENGINE_SAT);
    s.sample("sim.cycle.ns_per_move.sat", 3, || {
        ns_per_move(topo.as_ref(), &sat, cycle, &plan)
    });
    for (suffix, wl) in [("low", at(m::ENGINE_LOW)), ("sat", sat.clone())] {
        s.pair(
            &format!("sim.cycle.event_over_cycle.{suffix}"),
            || drop(black_box(engine_run(topo.as_ref(), &wl, plain, &plan))),
            || drop(black_box(engine_run(topo.as_ref(), &wl, cycle, &plan))),
        );
    }
}

fn model_layers(s: &mut Suite, seed: u64) {
    for k in m::EXPMAX_SIZES {
        let rates: Vec<f64> = (1..=k).map(|i| 0.01 + 0.001 * i as f64).collect();
        // k = 16 sums 65 535 subsets per call; batch only the cheap sizes.
        let batch = if k <= 8 { 1_000 } else { 1 };
        s.sample(&format!("queueing.expmax_ns.k{k}"), 3, || {
            let t = secs(|| {
                for _ in 0..batch {
                    black_box(expected_max_exponentials(black_box(&rates)));
                }
            });
            1e9 * t / batch as f64
        });
    }

    let opts = ModelOptions::default();
    let tol = params::SATURATION_TOL;
    for n in [16usize, 64, 128] {
        let topo = topology(&format!("quarc-{n}"));
        let proto = traffic_on(topo.as_ref(), PROTOTYPE_RATE, seed);
        let mg1 = MgOneBackend.max_sustainable_rate(topo.as_ref(), &proto, &opts, tol);
        let nc = NetworkCalculusBackend.max_sustainable_rate(topo.as_ref(), &proto, &opts, tol);
        let half = proto.at_rate(m::MODEL_HALF * mg1).expect("valid rate");
        if n == 64 {
            for (suffix, fraction) in [("half", m::MODEL_HALF), ("near", m::MODEL_NEAR)] {
                let wl = proto.at_rate(fraction * mg1).expect("valid rate");
                let solution = AnalyticModel::new(topo.as_ref(), &wl, opts)
                    .solve_service()
                    .expect("stable below the horizon");
                s.count(
                    &format!("queueing.fixed_point_iters.{suffix}"),
                    solution.iterations as f64,
                );
            }
        }
        if n >= 64 {
            s.sample(&format!("core.channel_loads_ms.n{n}"), 3, || {
                1e3 * secs(|| {
                    black_box(AnalyticModel::new(topo.as_ref(), &half, opts).channel_loads());
                })
            });
        }
        s.sample(&format!("core.mg1_eval_ms.n{n}"), 3, || {
            1e3 * secs(|| {
                black_box(MgOneBackend.evaluate(topo.as_ref(), &half, &opts)).expect("stable");
            })
        });
        let half_nc = proto.at_rate(m::MODEL_HALF * nc).expect("valid rate");
        s.sample(&format!("core.nc_eval_ms.n{n}"), 3, || {
            1e3 * secs(|| {
                black_box(NetworkCalculusBackend.evaluate(topo.as_ref(), &half_nc, &opts))
                    .expect("stable");
            })
        });
        if n >= 64 {
            s.sample(&format!("core.bisect_ms.n{n}"), 1, || {
                1e3 * secs(|| {
                    black_box(MgOneBackend.max_sustainable_rate(topo.as_ref(), &proto, &opts, tol));
                })
            });
        }
        if n == 64 {
            let counting = Counting {
                inner: &MgOneBackend,
                evaluates: AtomicU64::new(0),
            };
            counting.max_sustainable_rate(topo.as_ref(), &proto, &opts, tol);
            s.count(
                "core.bisect_evals",
                counting.evaluates.load(Ordering::Relaxed) as f64,
            );
        }
    }
}

fn telemetry_and_serde(s: &mut Suite, seed: u64) {
    s.sample("telemetry.hist_record_ns", 3, || {
        let mut h = LogHistogram::new();
        let t = secs(|| {
            for v in 0..m::HIST_SAMPLES {
                h.record(black_box(40 + (v & 1023)));
            }
        });
        black_box(h.count());
        1e9 * t / m::HIST_SAMPLES as f64
    });

    // One traced knee run supplies the histogram to merge, the ring log to
    // export and the `SimResults` to encode.
    let topo = topology(m::DENSE_SMALL);
    let wl = traffic_on(topo.as_ref(), m::ENGINE_KNEE * m::ENGINE_HORIZON, seed);
    let plan = SimPlan::build(topo.as_ref(), &wl).expect("plan builds");
    let plain = sim_config(m::ENGINE_WINDOWS, seed, 1.0);
    let ring = TelemetrySpec::off().with_trace(TraceMode::Ring {
        capacity: m::RING_CAPACITY,
    });
    let traced = engine_run(topo.as_ref(), &wl, plain.with_telemetry(ring), &plan);
    let res = engine_run(topo.as_ref(), &wl, plain, &plan);

    let hist = &res.latency_hists.multicast;
    s.sample("telemetry.hist_merge_us", 3, || {
        let mut pooled = LogHistogram::new();
        let t = secs(|| {
            for _ in 0..100 {
                pooled.merge(black_box(hist));
            }
        });
        black_box(pooled.count());
        1e6 * t / 100.0
    });
    let log = traced.trace.as_ref().expect("ring tracing was on");
    let net = topo.network();
    let tracks = TrackNames {
        channels: net.channels().iter().map(|c| c.label.clone()).collect(),
        nodes: (0..net.num_nodes()).map(|i| format!("n{i}")).collect(),
    };
    s.sample("telemetry.chrome_trace_ms_per_100k", 2, || {
        let t = secs(|| {
            black_box(chrome_trace(log, &tracks));
        });
        1e3 * t * 100_000.0 / log.events.len() as f64
    });

    let text = serde::json::to_string_pretty(&res);
    s.sample("serde.simresults_encode_us", 3, || {
        1e6 * secs(|| {
            black_box(serde::json::to_string_pretty(black_box(&res)));
        })
    });
    let decode_us = s.sample("serde.simresults_decode_us", 3, || {
        1e6 * secs(|| {
            black_box(serde::json::from_str::<SimResults>(black_box(&text))).expect("parses");
        })
    });
    s.count("serde.simresults_bytes", text.len() as f64);
    // Bytes per microsecond = 1e6 bytes per second.
    s.count("serde.decode_mb_per_s", text.len() as f64 / decode_us);
}

fn scenario_layer(s: &mut Suite, seed: u64) {
    let scenarios: Vec<Scenario> = default_panels(Pattern::Random, seed)
        .iter()
        .map(|cfg| cfg.scenario(params::FIG6_POINTS, SimConfig::quick(seed)))
        .collect();
    let per_panel = |t: f64| t / scenarios.len() as f64;
    s.sample("bench.scenario.validate_us", 3, || {
        1e6 * per_panel(secs(|| {
            for sc in &scenarios {
                sc.validate().expect("panel validates");
            }
        }))
    });
    s.sample("bench.scenario.materialize_ms", 2, || {
        1e3 * per_panel(secs(|| {
            for sc in &scenarios {
                black_box(sc.materialize().expect("panel materializes"));
            }
        }))
    });
    let built: Vec<_> = scenarios
        .iter()
        .map(|sc| sc.materialize().expect("panel materializes"))
        .collect();
    s.sample("bench.scenario.resolve_ms", 1, || {
        1e3 * per_panel(secs(|| {
            for (sc, (topo, proto)) in scenarios.iter().zip(&built) {
                let model = sc.model.unwrap_or_default();
                black_box(sc.sweep.resolve(topo.as_ref(), proto, model)).expect("resolves");
            }
        }))
    });
    s.sample("bench.scenario.json_roundtrip_us", 3, || {
        1e6 * per_panel(secs(|| {
            for sc in &scenarios {
                black_box(Scenario::from_json(&sc.to_json())).expect("round-trips");
            }
        }))
    });
}
