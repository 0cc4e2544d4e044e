//! Ablations of the analytical model: each simulates one `Scenario`
//! through the shared `Runner`, then overlays model variants
//! analytically on the already-simulated operating points.

use super::{emit, emit_json, QUARC_16};
use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, SweepSpec, WorkloadSpec};
use noc_topology::TopologySpec;
use noc_workloads::table::{fmt_latency, Table};
use quarc_core::multicast::largest_subset_latency;
use quarc_core::{
    MgOneBackend, ModelBackend, ModelOptions, RoutedLoads, ServiceCorrection, WaitingFormula,
};

/// Ablation A: the two formula ambiguities of the printed paper.
///
/// * Eq. 3's waiting-time prefactor: standard Pollaczek–Khinchine vs the
///   literal printed form (`λρ` numerator — dimensionally a rate).
/// * Eq. 6's self-traffic correction: fraction-of-arrivals vs the literal
///   printed factor vs no correction.
///
/// The table reports the multicast latency each variant predicts against
/// the simulation at three saturation-relative operating points,
/// justifying the defaults of [`ModelOptions`].
pub fn correction(opts: &Options) -> Result<()> {
    let load_fractions = [0.3, 0.6, 0.85];
    let sc = opts.scenario(
        "ablation-correction",
        QUARC_16,
        WorkloadSpec::new(32, 0.05, MulticastPattern::Random { group: 4 }),
        SweepSpec::SaturationFractions {
            fractions: load_fractions.to_vec(),
        },
    );

    let variants: Vec<(&str, ModelOptions)> = vec![
        ("PK + self-excluding (default)", ModelOptions::default()),
        (
            "PK + literal Eq.6 factor",
            ModelOptions {
                correction: ServiceCorrection::LiteralEq6,
                ..Default::default()
            },
        ),
        (
            "PK + no correction",
            ModelOptions {
                correction: ServiceCorrection::None,
                ..Default::default()
            },
        ),
        (
            "literal Eq.3 prefactor",
            ModelOptions {
                formula: WaitingFormula::LiteralEq3,
                ..Default::default()
            },
        ),
        (
            "clone ejection load counted",
            ModelOptions {
                clone_ejection_load: true,
                ..Default::default()
            },
        ),
    ];

    println!("== Ablation: formula variants of Eq. 3 / Eq. 6 (N=16, M=32, alpha=5%) ==\n");
    let result = opts.runner().run(&sc)?;
    emit_json(opts, &result)?;

    // Overlay each formula variant on the already-simulated points,
    // rebuilding the exact pair the runner used. One route walk per
    // variant (counting clone load changes the loads), read at every
    // point.
    let (topo, proto) = sc.materialize()?;
    let routed = variants
        .iter()
        .map(|(_, mo)| RoutedLoads::walk(topo.as_ref(), &proto, mo))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let mut table = Table::new(vec!["variant", "load", "model_mc", "sim_mc", "err%"]);
    for (p, load_frac) in result.points.iter().zip(load_fractions) {
        for ((name, _), routed) in variants.iter().zip(&routed) {
            let model_mc = match MgOneBackend.evaluate_over(routed, p.rate) {
                Ok(pred) => pred.multicast_latency,
                Err(_) => f64::NAN,
            };
            let err = if model_mc.is_finite() && p.sim_multicast > 0.0 {
                format!(
                    "{:.1}",
                    (model_mc - p.sim_multicast).abs() / p.sim_multicast * 100.0
                )
            } else {
                "-".into()
            };
            table.push_row(vec![
                name.to_string(),
                format!("{:.0}% of sat", load_frac * 100.0),
                fmt_latency(model_mc),
                fmt_latency(p.sim_multicast),
                err,
            ]);
        }
    }
    emit(opts, "ablation-correction.csv", &table)
}

fn ports_on(
    name: &str,
    topology: TopologySpec,
    group: usize,
    opts: &Options,
    table: &mut Table,
) -> Result<()> {
    let load_fractions = [0.4, 0.8];
    let sc = opts.scenario(
        format!("ablation-ports-{topology}"),
        topology,
        WorkloadSpec::new(32, 0.05, MulticastPattern::Random { group }),
        SweepSpec::SaturationFractions {
            fractions: load_fractions.to_vec(),
        },
    );
    let result = opts.runner().run(&sc)?;
    emit_json(opts, &result)?;

    let (topo, proto) = sc.materialize()?;
    let mo = ModelOptions::default();
    let routed = RoutedLoads::walk(topo.as_ref(), &proto, &mo)?;
    for (p, load_frac) in result.points.iter().zip(load_fractions) {
        let pred = MgOneBackend.evaluate_over(&routed, p.rate);
        let heuristic = largest_subset_latency(&routed, p.rate).unwrap_or(f64::NAN);
        let (emax, ports) = match &pred {
            Ok(pred) => (
                pred.multicast_latency,
                pred.per_node
                    .iter()
                    .map(|nm| nm.port_waits.len())
                    .max()
                    .unwrap_or(0),
            ),
            Err(_) => (f64::NAN, 0),
        };
        table.push_row(vec![
            name.to_string(),
            format!("{ports}"),
            format!("{:.0}% of sat", load_frac * 100.0),
            fmt_latency(emax),
            fmt_latency(heuristic),
            fmt_latency(p.sim_multicast),
        ]);
    }
    Ok(())
}

/// Ablation B: the asynchronous max-of-exponentials combination (Eq. 13)
/// vs the "largest sub-network wins" heuristic the paper argues against
/// in §2, on the 2-port ring (`m = 2` streams) and the 4-port Quarc
/// (`m = 4` streams), each against the simulated multicast latency. The
/// gap between the heuristic and the simulation grows with the number of
/// ports, which is precisely the paper's motivation for modelling the
/// last-completion time.
pub fn ports(opts: &Options) -> Result<()> {
    println!("== Ablation: E[max] combination vs largest-subset heuristic ==\n");
    let mut table = Table::new(vec![
        "topology",
        "streams",
        "load",
        "model_E[max]",
        "model_largest",
        "sim_mc",
    ]);
    ports_on(
        "ring-16 (m=2)",
        TopologySpec::Ring { n: 16 },
        4,
        opts,
        &mut table,
    )?;
    ports_on("quarc-16 (m=4)", QUARC_16, 4, opts, &mut table)?;
    emit(opts, "ablation-ports.csv", &table)
}
