//! Where the model's assumptions break: Poisson sources
//! (`fig-burstiness`), path-based multicast (`fig-routing`), and the
//! network-calculus backend that covers both (`fig-bounds`).

use super::{emit, emit_json, MESH_4X4, QUARC_16, TORUS_4X4};
use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, PointResult, Result, SweepSpec, WorkloadSpec};
use noc_topology::{RoutingSpec, TopologySpec, ALL_ROUTINGS};
use noc_workloads::table::{fmt_latency, Table};
use noc_workloads::TrafficSpec;
use quarc_core::{BackendSpec, MgOneBackend, ModelBackend, ModelOptions};

fn yes_no(flag: bool) -> String {
    if flag { "yes" } else { "no" }.into()
}

/// `points` load fractions evenly spaced over 30%–90% of saturation.
fn load_fractions(points: usize) -> Vec<f64> {
    (0..points)
        .map(|i| 0.3 + 0.6 * i as f64 / (points - 1) as f64)
        .collect()
}

/// The M/G/1 model's saturation rate for `workload` on `topology`: the
/// anchor of rate grids that must stay identical across traffic
/// processes or routing schemes the model itself cannot see.
fn model_saturation(
    opts: &Options,
    topology: TopologySpec,
    workload: &WorkloadSpec,
) -> Result<f64> {
    let probe = opts.scenario(
        "saturation-probe",
        topology,
        workload.clone(),
        SweepSpec::Explicit { rates: vec![] },
    );
    let (topo, proto) = probe.materialize()?;
    let model = ModelOptions::default();
    Ok(MgOneBackend.max_sustainable_rate(topo.as_ref(), &proto, &model, 0.01))
}

/// The invariant that makes a bound a bound: wherever the calculus bound
/// is finite and the simulator is not saturated, `bound ≥ simulated
/// mean` — for multicast, and for unicast where both sides are finite.
#[derive(Default)]
struct BoundGate {
    comparable: usize,
    violations: usize,
}

impl BoundGate {
    /// Check one point of panel `what`: `None` when the point is not
    /// comparable, otherwise whether the bound held. Violations are
    /// reported on stderr as they are found.
    fn check(&mut self, what: &str, p: &PointResult) -> Option<bool> {
        if !p.bound_multicast.is_finite() || !p.sim_multicast.is_finite() || p.sim_saturated {
            return None;
        }
        self.comparable += 1;
        let ok = p.bound_multicast >= p.sim_multicast
            && (!p.bound_unicast.is_finite()
                || !p.sim_unicast.is_finite()
                || p.bound_unicast >= p.sim_unicast);
        if !ok {
            self.violations += 1;
            eprintln!(
                "BOUND VIOLATION: {what} rate {:.5}: bound ({:.2}, {:.2}) vs sim ({:.2}, {:.2})",
                p.rate, p.bound_unicast, p.bound_multicast, p.sim_unicast, p.sim_multicast
            );
        }
        Some(ok)
    }

    /// Fail the exhibit (nonzero exit) if any bound was violated.
    fn finish(self) {
        assert_eq!(
            self.violations, 0,
            "{} network-calculus bound(s) fell below the simulated mean",
            self.violations
        );
    }
}

/// Burstiness ablation: where the Poisson assumption of the analytical
/// model breaks.
///
/// The paper's model (and its validation protocol, §4) assumes per-node
/// Poisson injection. This exhibit holds the *mean* rate fixed at 50% of
/// the model's saturation rate on a 16-node Quarc and sweeps the
/// *burstiness* of the arrival process: on/off sources with mean burst
/// lengths 1, 2, 4, … messages at a fixed peak rate. The model overlay is
/// evaluated unchanged at every point (it only sees the mean rate), so
/// the chart is the model-vs-simulation divergence as a function of burst
/// length. Each point is annotated with the runner's model-applicability
/// flag. `--points N` selects the number of burst lengths (powers of two
/// from 1).
pub fn burstiness(opts: &Options) -> Result<()> {
    println!("== Burstiness ablation: model (Poisson) vs simulation (on/off traffic) ==\n");

    let topology = QUARC_16;
    let workload = WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 4 });

    // Fix the operating point at 50% of the model's saturation rate and
    // pick a peak rate well above it, so every burst length below draws
    // the same mean load.
    let sat = model_saturation(opts, topology, &workload)?;
    let rate = 0.5 * sat;
    let peak_rate = (8.0 * rate).min(0.8);
    println!(
        "operating point: rate {rate:.5} msg/node/cycle (50% of saturation {sat:.5}), \
         on/off peak rate {peak_rate:.5}\n"
    );

    let runner = opts.runner();
    let mut table = Table::new(vec![
        "burst_len",
        "model_mc",
        "sim_mc",
        "divergence%",
        "sim_sat",
        "model_applicable",
    ]);
    for i in 0..opts.points as u32 {
        let burst_len = f64::from(1u32 << i);
        let traffic = if burst_len == 1.0 {
            // Burst length 1 is the Poisson baseline: run it as the
            // genuine geometric source so the model flag stays `yes`.
            TrafficSpec::Geometric
        } else {
            TrafficSpec::OnOff {
                burst_len,
                peak_rate,
            }
        };
        let scenario = opts.scenario(
            format!("burstiness-b{burst_len}"),
            topology,
            workload.clone().with_traffic(traffic),
            SweepSpec::Explicit { rates: vec![rate] },
        );
        let result = runner.run(&scenario)?;
        let p = &result.points[0];
        table.push_row(vec![
            format!("{burst_len}"),
            format!("{:.2}", p.model_multicast),
            format!("{:.2}", p.sim_multicast),
            p.multicast_error()
                .map(|e| format!("{:.1}", e * 100.0))
                .unwrap_or_else(|| "-".into()),
            yes_no(p.sim_saturated),
            yes_no(p.model_applicable),
        ]);
        emit_json(opts, &result)?;
    }
    emit(opts, "fig-burstiness.csv", &table)?;
    println!(
        "\nThe model only sees the mean rate; rising divergence with burst length is the\n\
         Poisson assumption visibly breaking (cf. the network-calculus critique of\n\
         arXiv:1007.4853). Points with model_applicable = no carry the same warning in\n\
         their JSON results."
    );
    Ok(())
}

/// Routing-scheme ablation: path-based vs dual-path vs multipath vs
/// unicast-replicated multicast, scheme × rate.
///
/// The paper's model (§2.2, Eq. 8–16) assumes path-based multicast. This
/// exhibit sweeps the *routing scheme* at fixed workload on Quarc, mesh,
/// torus and hypercube: every scheme runs the same destination sets over
/// the same rate grid (fractions of the path-based saturation rate), with
/// the analytical overlay evaluated everywhere it is defined. Two things
/// are visible in one table: how much latency the scheme itself costs
/// (the unicast baseline pays for source serialization, multipath wins
/// back concurrency), and where the model's path-based assumption stops
/// being a prediction (`model_applicable = no` rows). `--points N`
/// selects the number of load fractions between 30% and 90% of
/// saturation.
pub fn routing(opts: &Options) -> Result<()> {
    println!("== Routing-scheme ablation: scheme x rate, fixed workload ==\n");

    // The Quarc leads the list because it is where dual-path genuinely
    // differs from the native scheme (4-port BRCP vs 2 rim streams); on
    // mesh/torus/hypercube the native multicast *is* the Hamiltonian
    // dual-path, so those rows coincide by construction.
    let topologies = [
        QUARC_16,
        MESH_4X4,
        TORUS_4X4,
        TopologySpec::Hypercube { dim: 4 },
    ];
    let fractions = load_fractions(opts.points);

    let runner = opts.runner();
    let mut table = Table::new(vec![
        "topology",
        "scheme",
        "rate",
        "model_mc",
        "bound_mc",
        "sim_mc",
        "err_mc%",
        "model_applicable",
        "sim_sat",
    ]);
    let mut gate = BoundGate::default();
    for topology in topologies {
        let workload = WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 4 });
        // One rate grid per topology, anchored at the *path-based*
        // saturation point so every scheme sees identical offered load.
        let sat = model_saturation(opts, topology, &workload)?;
        let rates: Vec<f64> = fractions.iter().map(|f| f * sat).collect();
        println!("{topology}: path-based saturation {sat:.5} msg/node/cycle");

        for routing in ALL_ROUTINGS {
            let scenario = opts.scenario(
                format!("routing-{topology}-{routing}"),
                topology,
                workload.clone().with_routing(routing),
                SweepSpec::Explicit {
                    rates: rates.clone(),
                },
            );
            let result = runner.run(&scenario)?;
            for p in &result.points {
                table.push_row(vec![
                    topology.to_string(),
                    routing.to_string(),
                    format!("{:.5}", p.rate),
                    // Renders the model's own saturation (rate grids are
                    // anchored at *path-based* saturation, which lower-
                    // capacity schemes exceed) as "saturated", not NaN.
                    fmt_latency(p.model_multicast),
                    fmt_latency(p.bound_multicast),
                    format!("{:.2}", p.sim_multicast),
                    p.multicast_error()
                        .map(|e| format!("{:.1}", e * 100.0))
                        .unwrap_or_else(|| "-".into()),
                    yes_no(p.model_applicable),
                    yes_no(p.sim_saturated),
                ]);
                gate.check(&format!("{topology}/{routing}"), p);
            }
            emit_json(opts, &result)?;
        }
    }
    println!();
    emit(opts, "fig-routing.csv", &table)?;

    // Schemes that need concurrent injection ports are *typed* spec
    // errors on one-port topologies, not panics deep inside a sweep.
    let one_port = TopologySpec::Spidergon { n: 8 };
    let rejected = opts
        .scenario(
            "routing-spidergon-multipath",
            one_port,
            WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 2 })
                .with_routing(RoutingSpec::Multipath),
            SweepSpec::Explicit { rates: vec![1e-3] },
        )
        .validate()
        .expect_err("multipath needs multi-port routers");
    println!("\n{one_port}: {rejected}");
    println!(
        "\nPath-based rows reproduce the paper's scheme; unicast rows are the\n\
         no-hardware-support baseline whose source serialization the model does not\n\
         see (model_applicable = no). The dual-path/multipath gaps are the ablation:\n\
         where partitioning the destination set shifts the latency curve (cf.\n\
         arXiv:1610.00751, arXiv:2108.00566)."
    );
    gate.finish();
    Ok(())
}

/// Worst-case bound vs simulation: the network-calculus backend's
/// cross-validation panels.
///
/// The M/G/1 overlay predicts *means* and is only sound for Poisson
/// traffic on path-based/dual-path streams. The network-calculus backend
/// ([`quarc_core::NetworkCalculusBackend`]) predicts *worst-case bounds*
/// for every traffic process and routing scheme; its saturation estimate
/// also anchors saturation-relative sweeps wherever M/G/1 is
/// inapplicable. This exhibit runs the backend end-to-end on panels that
/// cross the M/G/1 domain boundary in both directions — routing
/// (path-based vs multipath) and traffic (geometric vs on/off bursts) —
/// and hard-checks the [`BoundGate`] invariant on every comparable point,
/// so the CI smoke run is a real gate, not a demo.
pub fn bounds(opts: &Options) -> Result<()> {
    println!("== Network-calculus bounds vs simulation (backend = nc) ==\n");

    let topologies = [QUARC_16, MESH_4X4];
    let routings = [RoutingSpec::PathBased, RoutingSpec::Multipath];
    let traffics = [
        ("geometric", TrafficSpec::Geometric),
        (
            "onoff",
            TrafficSpec::OnOff {
                burst_len: 8.0,
                peak_rate: 0.2,
            },
        ),
    ];
    // Fractions of the *calculus* saturation anchor: selecting the nc
    // backend makes SweepSpec::resolve bisect its worst-case stability
    // horizon, which is exactly the fix for saturation-relative sweeps on
    // workloads the M/G/1 model cannot anchor.
    let fractions = load_fractions(opts.points);
    let model = ModelOptions {
        backend: BackendSpec::NetworkCalculus,
        ..ModelOptions::default()
    };

    let runner = opts.runner();
    let mut table = Table::new(vec![
        "topology",
        "scheme",
        "traffic",
        "rate",
        "bound_uni",
        "sim_uni",
        "bound_mc",
        "sim_mc",
        "sim_sat",
        "bound_ok",
    ]);
    let mut gate = BoundGate::default();
    for topology in topologies {
        for routing in routings {
            for (traffic_name, traffic) in &traffics {
                let scenario = opts
                    .scenario(
                        format!("bounds-{topology}-{routing}-{traffic_name}"),
                        topology,
                        WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 4 })
                            .with_routing(routing)
                            .with_traffic(traffic.clone()),
                        SweepSpec::SaturationFractions {
                            fractions: fractions.clone(),
                        },
                    )
                    .with_model(Some(model));
                let result = runner.run(&scenario)?;
                for p in &result.points {
                    let verdict = gate.check(&format!("{topology}/{routing}/{traffic_name}"), p);
                    table.push_row(vec![
                        topology.to_string(),
                        routing.to_string(),
                        (*traffic_name).into(),
                        format!("{:.5}", p.rate),
                        fmt_latency(p.bound_unicast),
                        format!("{:.2}", p.sim_unicast),
                        fmt_latency(p.bound_multicast),
                        format!("{:.2}", p.sim_multicast),
                        yes_no(p.sim_saturated),
                        match verdict {
                            None => "-",
                            Some(true) => "yes",
                            Some(false) => "NO",
                        }
                        .into(),
                    ]);
                }
                emit_json(opts, &result)?;
            }
        }
    }
    emit(opts, "fig-bounds.csv", &table)?;
    println!(
        "\nEvery row sweeps fractions of the calculus backend's own saturation\n\
         anchor — including multipath routing and on/off bursts, where the M/G/1\n\
         model cannot place the knee. bound_ok checks bound >= simulated mean\n\
         per comparable row ({} comparable point(s)).",
        gate.comparable
    );
    assert!(
        gate.comparable > 0,
        "no comparable (finite bound, unsaturated sim) points — panels mis-anchored"
    );
    gate.finish();
    println!("\nbound >= simulated mean held on all comparable points.");
    Ok(())
}
