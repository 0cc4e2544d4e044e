//! The Fig. 6 validation protocol transplanted to other multi-port
//! networks: every member of a family shares one declarative scenario
//! shape — only the [`TopologySpec`] differs.

use super::{emit, emit_json, MESH_4X4, TORUS_4X4};
use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, SweepSpec, WorkloadSpec};
use noc_topology::TopologySpec;
use noc_workloads::table::{fmt_latency, Table};

/// Sweep each member over `fractions` of its model saturation rate
/// (32-flit messages, 5% multicast to `N/4` random destinations) and
/// tabulate model vs simulation under the member's `lead` cells.
fn extension(
    opts: &Options,
    name: &str,
    lead_header: &[&str],
    fractions: &[f64],
    members: &[(TopologySpec, Vec<String>)],
) -> Result<()> {
    let mut header = lead_header.to_vec();
    header.extend([
        "rate",
        "model_uni",
        "sim_uni",
        "model_mc",
        "sim_mc",
        "err_mc%",
    ]);
    let mut table = Table::new(header);
    let runner = opts.runner();
    for (topology, lead) in members {
        let group = topology.num_nodes() / 4;
        let sc = opts.scenario(
            format!("{name}-{topology}"),
            *topology,
            WorkloadSpec::new(32, 0.05, MulticastPattern::Random { group }),
            SweepSpec::SaturationFractions {
                fractions: fractions.to_vec(),
            },
        );
        let result = runner.run(&sc)?;
        for p in &result.points {
            let mut row = lead.clone();
            row.extend([
                format!("{:.5}", p.rate),
                fmt_latency(p.model_unicast),
                fmt_latency(p.sim_unicast),
                fmt_latency(p.model_multicast),
                fmt_latency(p.sim_multicast),
                p.multicast_error()
                    .map(|e| format!("{:.1}", e * 100.0))
                    .unwrap_or_else(|| "-".into()),
            ]);
            table.push_row(row);
        }
        emit_json(opts, &result)?;
    }
    emit(opts, &format!("{name}.csv"), &table)
}

/// The paper's stated future work (§5): applying the multi-port multicast
/// model to mesh and torus topologies. Unicast uses XY /
/// dimension-ordered routing; multicast uses the dual-path Hamiltonian
/// scheme (two asynchronous streams, `m = 2`).
pub fn mesh(opts: &Options) -> Result<()> {
    println!("== Extension: multi-port mesh and torus (paper §5 future work) ==\n");
    println!("unicast: XY routing; multicast: dual-path Hamiltonian (m = 2)\n");
    let members = [MESH_4X4, TORUS_4X4].map(|t| (t, vec![t.kind_name().to_string()]));
    extension(
        opts,
        "mesh-extension",
        &["topology"],
        &[0.3, 0.6, 0.9],
        &members,
    )
}

/// The multi-port model on the binary hypercube — the topology family of
/// the paper's predecessor work (Shahrabi et al., MASCOTS 2000,
/// ref.\[18\]), which modelled broadcast with one-port routers and
/// non-wormhole collectives. Here the hypercube gets one port per
/// dimension, e-cube wormhole unicast and Gray-code dual-path multicast.
pub fn hypercube(opts: &Options) -> Result<()> {
    println!("== Extension: multi-port hypercube (cf. paper ref. 18) ==\n");
    println!("unicast: e-cube; multicast: Gray-code dual-path (m = 2)\n");
    let members = [3usize, 4, 5].map(|dim| {
        let topology = TopologySpec::Hypercube { dim };
        let lead = vec![dim.to_string(), topology.num_nodes().to_string()];
        (topology, lead)
    });
    extension(
        opts,
        "hypercube-extension",
        &["dim", "nodes"],
        &[0.35, 0.7],
        &members,
    )
}
