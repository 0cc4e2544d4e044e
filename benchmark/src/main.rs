//! The repo's benchmark: six workloads over the whole workbench, measured
//! from outside by timing calls into public functions.
//!
//! ```text
//! noc-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--list]
//! noc-benchmark check-repeat [--seed N] [--seconds S]
//! ```
//!
//! `run` executes the selected workload (default: all six), each in a child
//! process of its own, prints every metric by name with its unit, writes
//! `benchmark/out/results.json` (and `trace.json` with `--trace`) and ends
//! with the driver's result line. See `README.md` beside `Cargo.toml`.

#![forbid(unsafe_code)]

mod bodies;
mod catalog;
mod check;
mod child;
mod micro;
#[path = "../workloads.rs"]
mod params;
mod report;
mod stats;
mod trace;

use serde::Value;
use std::process::{Command, ExitCode, Stdio};

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    list: bool,
}

fn usage() -> String {
    format!(
        "usage: noc-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--list]\n\
         \x20      noc-benchmark check-repeat [--seed N] [--seconds S]\n\
         workloads: {}",
        catalog::workload_names().join(", ")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().ok_or_else(usage)?,
        workload: None,
        seed: params::DEFAULT_SEED,
        seconds: params::DEFAULT_SECONDS as f64,
        trace: false,
        list: false,
    };
    if !["run", "check-repeat", "child"].contains(&cli.command.as_str()) {
        return Err(format!("unknown command `{}`\n{}", cli.command, usage()));
    }
    let mut rest = args[1..].iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !catalog::workload_names().contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`\n{}", usage()));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            // `--trace` alone turns tracing on; the driver writes
            // `--trace 0` or `--trace 1`.
            "--trace" => {
                cli.trace = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                };
            }
            "--list" => cli.list = true,
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(cli)
}

/// Run the selected workloads, one child process each, one at a time, and
/// return their reports.
fn run_children(cli: &Cli, trace: bool) -> Result<Vec<Value>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let selected: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => catalog::workload_names(),
    };
    let mut reports = Vec::new();
    for workload in selected {
        eprintln!("running {workload} ...");
        let output = Command::new(&exe)
            .args(["child", "--workload", workload])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
        if !output.status.success() {
            return Err(format!("{workload}: child ended with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let report =
            serde::json::parse(line).map_err(|e| format!("{workload}: unreadable report: {e}"))?;
        report::print_report(&report);
        reports.push(report);
    }
    Ok(reports)
}

fn run(cli: &Cli) -> Result<bool, String> {
    if cli.list {
        print!("{}", catalog::listing());
        return Ok(true);
    }
    let meta = report::meta(cli.seed, cli.seconds, cli.trace);
    let reports = run_children(cli, cli.trace)?;
    report::write_results(&meta, &reports, cli.trace);
    for r in &reports {
        println!("{}", report::contract_line(r));
    }
    Ok(!report::any_failed(&reports))
}

fn check_repeat(cli: &Cli) -> Result<bool, String> {
    let meta = report::meta(cli.seed, cli.seconds, false);
    let first = run_children(cli, false)?;
    let second = run_children(cli, false)?;
    report::write_results(&meta, &second, false);
    let rows = report::check_repeat(&first, &second);
    report::print_rows(&rows);
    let ok =
        rows.iter().all(|r| r.pass) && !report::any_failed(&first) && !report::any_failed(&second);
    println!("\ncheck-repeat: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cli| match cli.command.as_str() {
        "run" => run(&cli),
        "check-repeat" => check_repeat(&cli),
        _ => {
            let workload = cli.workload.ok_or("child needs --workload")?;
            child::main(&child::Args {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
            });
            Ok(true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
