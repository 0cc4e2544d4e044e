//! `noc-bench <exhibit> [flags]` — every figure, ablation and subsystem
//! exhibit of the reproduction behind one run-time selector.
//!
//! ```text
//! cargo run --release -p noc-bench -- list
//! cargo run --release -p noc-bench -- fig6 --quick --points 4 --json
//! ```
//!
//! Each exhibit keeps the name of the stand-alone binary it used to be,
//! takes the common flags of [`noc_bench::cli`] and writes its artifacts
//! under `--out` (default `results/`). Exit status: 0 on success, 1 when
//! the exhibit returns an error (an unwritable artifact included), 2 on
//! a usage error; an exhibit whose built-in gate fails (a calculus bound
//! below the simulated mean, a peak-RSS budget exceeded) panics.

#![forbid(unsafe_code)]

mod exhibits;

use exhibits::{ablations, assumptions, closedloop, extensions, heatmap, paper, scale};
use noc_bench::cli::{Options, USAGE};
use noc_bench::Result;
use std::process::ExitCode;

/// One row of the dispatch table: exhibit name, what it regenerates, and
/// its entry point.
type Exhibit = (&'static str, &'static str, fn(&Options) -> Result<()>);

const EXHIBITS: &[Exhibit] = &[
    (
        "fig2-topology",
        "Fig. 2 — Quarc vs Spidergon topology (DOT/ASCII)",
        paper::fig2_topology,
    ),
    (
        "fig3-broadcast",
        "Fig. 3 — broadcast streams in a 16-node Quarc",
        paper::fig3_broadcast,
    ),
    (
        "fig6",
        "Fig. 6 — model vs simulation, random destinations",
        paper::fig6,
    ),
    (
        "fig7",
        "Fig. 7 — model vs simulation, localized destinations",
        paper::fig7,
    ),
    (
        "ablation-correction",
        "Eq. 3/Eq. 6 formula variants",
        ablations::correction,
    ),
    (
        "ablation-ports",
        "E[max] combination vs largest-subset heuristic",
        ablations::ports,
    ),
    (
        "spidergon-baseline",
        "Quarc true multicast vs Spidergon unicast train",
        paper::spidergon_baseline,
    ),
    (
        "mesh-extension",
        "the paper's future work: multi-port mesh/torus",
        extensions::mesh,
    ),
    (
        "hypercube-extension",
        "the model on the hypercube family that motivated it",
        extensions::hypercube,
    ),
    (
        "fig-burstiness",
        "where the Poisson assumption breaks (burst-length sweep)",
        assumptions::burstiness,
    ),
    (
        "fig-routing",
        "where the path-based assumption breaks (routing-scheme sweep)",
        assumptions::routing,
    ),
    (
        "fig-bounds",
        "network-calculus bound vs simulation (backend cross-validation)",
        assumptions::bounds,
    ),
    (
        "fig-closedloop",
        "closed-loop latency/throughput knee (coherence window sweep)",
        closedloop::run,
    ),
    (
        "fig-heatmap",
        "flight recorder: per-link congestion heatmaps + Perfetto flit traces",
        heatmap::run,
    ),
    (
        "fig-scale",
        "implicit MIN/clustered ladder up to 64k nodes under a peak-RSS budget",
        scale::run,
    ),
];

fn names() -> Vec<&'static str> {
    EXHIBITS.iter().map(|(name, ..)| *name).collect()
}

/// `noc-bench list`: one exhibit name per line (what CI loops over).
fn list() -> String {
    names().join("\n") + "\n"
}

fn help() -> String {
    let mut out =
        format!("usage: noc-bench <exhibit> {USAGE}\n       noc-bench list\n\nexhibits:\n");
    for (name, blurb, _) in EXHIBITS {
        out += &format!("  {name:<20} {blurb}\n");
    }
    out
}

fn find(name: &str) -> std::result::Result<&'static Exhibit, String> {
    EXHIBITS
        .iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| format!("unknown exhibit '{name}'; known: {}", names().join(", ")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    if args[0] == "list" {
        print!("{}", list());
        return ExitCode::SUCCESS;
    }
    let parsed =
        find(&args[0]).and_then(|&(.., run)| Ok((run, Options::parse(args[1..].iter().cloned())?)));
    match parsed {
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Ok((run, opts)) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stand-alone binaries this table replaced, in their old
    /// `Cargo.toml` order.
    const FORMER_BINS: [&str; 15] = [
        "fig2-topology",
        "fig3-broadcast",
        "fig6",
        "fig7",
        "ablation-correction",
        "ablation-ports",
        "spidergon-baseline",
        "mesh-extension",
        "hypercube-extension",
        "fig-burstiness",
        "fig-routing",
        "fig-bounds",
        "fig-closedloop",
        "fig-heatmap",
        "fig-scale",
    ];

    #[test]
    fn exhibit_names_are_the_former_binary_names() {
        assert_eq!(names(), FORMER_BINS);
        let mut unique = names();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), EXHIBITS.len(), "duplicate exhibit name");
    }

    #[test]
    fn unknown_exhibit_is_an_error_naming_the_known_ones() {
        let msg = find("fig9").expect_err("no such exhibit");
        assert!(msg.contains("'fig9'"), "{msg}");
        for name in FORMER_BINS {
            assert!(msg.contains(name), "{msg} should list {name}");
            assert_eq!(find(name).expect("known exhibit").0, name);
        }
    }

    #[test]
    fn list_prints_one_name_per_line() {
        assert_eq!(list().lines().collect::<Vec<_>>(), FORMER_BINS);
        assert!(list().ends_with('\n'));
    }

    #[test]
    fn help_shows_usage_and_every_exhibit() {
        let help = help();
        assert!(help.starts_with("usage: noc-bench <exhibit> [--quick]"));
        for (name, blurb, _) in EXHIBITS {
            assert!(help.contains(name) && help.contains(blurb));
        }
    }
}
