//! Domain scenario: barrier synchronization pressure.
//!
//! Barrier implementations on NoCs multicast "arrived" notifications to a
//! worker group. This example uses the analytical model to explore — in
//! milliseconds, without running a simulation per design point — how the
//! barrier group size and the share of barrier traffic move the multicast
//! latency and the saturation point of a 32-node Quarc, then spot-checks
//! two design points in simulation through a [`Scenario`] with
//! saturation-relative operating points.
//!
//! This is the workflow the paper argues analytical models enable: rapid
//! design-space exploration with simulation reserved for verification.
//!
//! The open-loop sweep approximates barrier traffic as a Poisson stream —
//! a rate knob no real barrier has. The last section runs the *actual*
//! protocol through the closed-loop subsystem: a radix-2 fan-in tree per
//! round, a broadcast release from the root, and per-node compute delays,
//! with injections triggered by deliveries instead of a rate.
//!
//! ```text
//! cargo run --release --example barrier_synchronization
//! ```

use quarc_noc::prelude::*;

fn main() -> Result<(), Error> {
    let topology = TopologySpec::Quarc { n: 32 };
    let topo = topology.build()?;
    let msg = 16u32;

    println!("== barrier multicast on a 32-node Quarc (model-driven sweep) ==\n");
    println!(
        "{:>8} {:>8} {:>14} {:>16}",
        "group", "alpha", "sat. rate", "mc lat @60% sat"
    );
    for group in [4usize, 8, 16, 31] {
        for alpha in [0.05, 0.20] {
            let proto = WorkloadSpec::new(msg, alpha, MulticastPattern::Random { group })
                .prototype(topo.as_ref(), 11)?;
            let sat = MgOneBackend.max_sustainable_rate(
                topo.as_ref(),
                &proto,
                &ModelOptions::default(),
                0.01,
            );
            let wl = proto.at_rate(sat * 0.6)?;
            let mc = AnalyticModel::new(topo.as_ref(), &wl, ModelOptions::default())
                .evaluate()
                .map(|p| p.multicast_latency)
                .unwrap_or(f64::NAN);
            println!("{group:>8} {alpha:>8.2} {sat:>14.5} {mc:>14.1}cy");
        }
    }

    println!("\nspot-check in simulation (group=8, alpha=0.20):");
    let scenario = Scenario::new(
        "barrier-spot-check",
        topology,
        WorkloadSpec::new(msg, 0.20, MulticastPattern::Random { group: 8 }),
        SweepSpec::SaturationFractions {
            fractions: vec![0.4, 0.8],
        },
    )
    .with_sim(SimConfig::quick(5))
    .with_seed(11);
    let result = Runner::new().run(&scenario)?;
    for (p, frac) in result.points.iter().zip([0.4, 0.8]) {
        println!(
            "  {:>4.0}% of saturation: model {:>7.1}cy  sim {:>7.1}cy  (err {:+.1}%)",
            frac * 100.0,
            p.model_multicast,
            p.sim_multicast,
            (p.model_multicast - p.sim_multicast) / p.sim_multicast * 100.0
        );
    }

    println!("\ntakeaway: widening the barrier group mostly costs saturation");
    println!("headroom (more port streams, more rim occupancy), while latency");
    println!("at fixed relative load grows slowly — the asynchronous port");
    println!("streams hide most of the extra fan-out.");

    // The open-loop scenarios above stay as regression inputs; the real
    // barrier is a closed-loop protocol the rate approximation cannot
    // express: each round completes only when the fan-in tree has
    // converged and the root's release broadcast has landed everywhere.
    println!("\n== the same barrier as a real closed-loop protocol ==\n");
    let rounds = 8u32;
    let closed = Scenario::new(
        "barrier-closed-loop",
        TopologySpec::Quarc { n: 32 },
        WorkloadSpec::new(msg, 0.0, MulticastPattern::Broadcast).with_closed_loop(
            ClosedLoopSpec::Barrier {
                rounds,
                radix: 2,
                compute: 16,
            },
        ),
        SweepSpec::Explicit { rates: vec![0.0] },
    )
    .with_sim(SimConfig::quick(5))
    .with_model(None)
    .with_seed(11);
    let result = Runner::new().run(&closed)?;
    let cl = result.sims[0][0]
        .closed_loop
        .as_ref()
        .expect("closed-loop scenario stamps protocol results");
    assert!(cl.quiesced, "the barrier must complete all rounds");
    println!("  {rounds} rounds, radix-2 fan-in tree, <=16cy compute per round:");
    println!(
        "  mean per-node round completion {:>7.1}cy  (95% CI +-{:.1})",
        cl.completion.mean, cl.completion.ci95
    );
    println!(
        "  all rounds done at cycle {} - {:.2} retirements per kilocycle",
        cl.quiesce_cycle,
        cl.ops_per_cycle * 1000.0
    );
    println!("\nthe closed-loop number is a *round time*, not a message latency:");
    println!("it includes the tree convergence, the release broadcast and the");
    println!("compute skew the open-loop approximation above cannot see.");
    Ok(())
}
