//! The paper's own exhibits: the Fig. 2/3 renderings, the Fig. 6/7
//! model-vs-simulation sweeps and the §3 Spidergon baseline.

use super::{emit, emit_json};
use noc_bench::cli::Options;
use noc_bench::{
    default_panels, full_panels, MulticastPattern, Pattern, Result, Runner, SweepSpec, WorkloadSpec,
};
use noc_topology::render::{broadcast_trace, channel_census, ring_ascii, to_dot};
use noc_topology::{NodeId, TopologySpec};
use noc_workloads::table::Table;

/// **Figure 2**: the Quarc topology vs the Spidergon topology (8 nodes),
/// as Graphviz DOT plus an ASCII channel census. The doubled cross link
/// of the Quarc is visible as two dashed `n0 -> n4` edges where the
/// Spidergon has one. Both networks are constructed through the
/// [`TopologySpec`] registry — the same spec strings a scenario file
/// would use.
pub fn fig2_topology(opts: &Options) -> Result<()> {
    let quarc = TopologySpec::parse("quarc-8")?.build()?;
    let spidergon = TopologySpec::parse("spidergon-8")?.build()?;

    println!("== Figure 2(a): Quarc, N = 8 ==\n");
    println!("{}", ring_ascii(quarc.as_ref()));
    let (inj, link, ej) = channel_census(quarc.as_ref());
    println!("channels: {inj} injection + {link} link + {ej} ejection\n");

    println!("== Figure 2(b): Spidergon, N = 8 ==\n");
    println!("{}", ring_ascii(spidergon.as_ref()));
    let (inj, link, ej) = channel_census(spidergon.as_ref());
    println!("channels: {inj} injection + {link} link + {ej} ejection\n");

    let a = opts.write_file("fig2-quarc.dot", &to_dot(quarc.as_ref()))?;
    let b = opts.write_file("fig2-spidergon.dot", &to_dot(spidergon.as_ref()))?;
    println!("wrote {} and {}", a.display(), b.display());
    Ok(())
}

/// **Figure 3**: broadcast in a 16-node Quarc. Node 0 initiates a
/// broadcast; the four port streams carry destination addresses 4, 12, 5
/// and 11 (the last node visited on each rim), and the absorb-and-forward
/// visit orders cover all 15 other nodes disjointly.
pub fn fig3_broadcast(_opts: &Options) -> Result<()> {
    let quarc = (TopologySpec::Quarc { n: 16 }).build()?;
    println!("== Figure 3: broadcast in the Quarc NoC (N = 16) ==\n");
    println!("{}", broadcast_trace(quarc.as_ref(), NodeId(0)));

    // Show the zero-load broadcast depth advantage over the Spidergon
    // unicast train the paper quotes (N/4 hops vs N-1 transmissions).
    let streams = quarc.broadcast_streams(NodeId(0));
    let max_links = streams
        .iter()
        .map(|s| s.path.link_count())
        .max()
        .expect("a 16-node broadcast has streams");
    println!(
        "deepest stream: {} links = N/4 (Spidergon needs N-1 = {} consecutive unicasts)",
        max_links,
        quarc.num_nodes() - 1
    );
    Ok(())
}

/// **Figure 6**: analytical model vs flit-level simulation for Quarc NoCs
/// with **random** multicast destination sets. One panel per `(N, M, α)`
/// configuration: the per-node generation rate sweeps from low load to
/// just past the model's saturation horizon and the curve reports
/// unicast and multicast latency from both the model and the simulator,
/// plus the relative error. `--full` runs the 45-panel cross product.
pub fn fig6(opts: &Options) -> Result<()> {
    figure("6", Pattern::Random, "random multicast destinations", opts)
}

/// **Figure 7**: as [`fig6`], with **localized** multicast destination
/// sets (all destinations of a node on the same rim quadrant).
pub fn fig7(opts: &Options) -> Result<()> {
    figure(
        "7",
        Pattern::Localized,
        "localized multicast destinations",
        opts,
    )
}

/// The Fig. 6/Fig. 7 driver (the figures differ only in the destination
/// pattern): compile every panel to a [`Scenario`], execute it through
/// one cached [`Runner`], print the aligned table and write the sinks.
fn figure(figure: &str, pattern: Pattern, blurb: &str, opts: &Options) -> Result<()> {
    println!("== Figure {figure}: model vs simulation, {blurb} ==\n");
    let panels = if opts.full {
        full_panels(pattern, opts.seed)
    } else {
        default_panels(pattern, opts.seed)
    };
    let runner = opts.runner().on_progress(|p| {
        eprint!("\r{}: {}/{} points", p.scenario, p.completed, p.total);
        if p.completed == p.total {
            eprintln!();
        }
    });
    for cfg in panels {
        let scenario = cfg.scenario(opts.points, opts.sim_config());
        let result = runner.run(&scenario)?;
        println!(
            "panel {} (N={}, M={} flits, alpha={:.0}%, |group|={}{}):",
            cfg.label(),
            cfg.n,
            cfg.msg_len,
            cfg.alpha * 100.0,
            cfg.group_size,
            if pattern == Pattern::Localized {
                ", same-rim"
            } else {
                ""
            }
        );
        emit(
            opts,
            &format!("fig{figure}-{}.csv", cfg.label()),
            &result.table(),
        )?;
        println!();
        emit_json(opts, &result)?;
    }
    Ok(())
}

/// Zero-load broadcast latency: one broadcast injected on an idle network.
fn idle_broadcast_latency(opts: &Options, topology: TopologySpec, msg_len: u32) -> Result<u64> {
    let sc = opts.scenario(
        format!("idle-broadcast-{topology}"),
        topology,
        WorkloadSpec::new(msg_len, 0.0, MulticastPattern::Broadcast),
        SweepSpec::Explicit { rates: vec![] },
    );
    Runner::new().isolated_multicast(&sc, NodeId(0))
}

/// Baseline comparison motivating the Quarc (paper §3.1–3.2): collective
/// latency of the Quarc's true multicast vs the Spidergon's
/// broadcast-by-consecutive-unicast, measured in simulation on otherwise
/// idle networks through [`Runner::isolated_multicast`].
///
/// The paper's qualitative claims reproduced here: a Quarc broadcast
/// visits each quadrant in `N/4` link hops, while the Spidergon needs
/// `N − 1` consecutive unicasts through one port; the Quarc broadcast
/// latency is therefore dramatically lower and the gap widens with `N`.
pub fn spidergon_baseline(opts: &Options) -> Result<()> {
    println!("== Baseline: Quarc true multicast vs Spidergon unicast train ==\n");
    let msg = 32u32;
    let mut table = Table::new(vec![
        "N",
        "quarc_bcast",
        "spidergon_bcast",
        "speedup",
        "quarc_links",
        "spidergon_msgs",
    ]);
    for n in [8usize, 16, 32, 64] {
        let ql = idle_broadcast_latency(opts, TopologySpec::Quarc { n }, msg)?;
        let sl = idle_broadcast_latency(opts, TopologySpec::Spidergon { n }, msg)?;
        table.push_row(vec![
            n.to_string(),
            ql.to_string(),
            sl.to_string(),
            format!("{:.1}x", sl as f64 / ql as f64),
            (n / 4).to_string(),
            (n - 1).to_string(),
        ]);
    }
    println!("zero-load broadcast latency, {msg}-flit messages (cycles):");
    emit(opts, "spidergon-baseline.csv", &table)
}
