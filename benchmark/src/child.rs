//! One workload in one process, so that `peak_rss_mib` is the workload's
//! own. The parent (`main.rs`) starts this once per workload and reads the
//! report, one JSON document, from its standard output.

use crate::bodies::{self, Body, RepOutcome};
use crate::catalog;
use crate::check::Ledger;
use crate::params;
use crate::stats::{self, Summary};
use crate::trace::{self, Counts, Recorder, Span};
use crate::{micro, report};
use serde::Value;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run of one workload measured.
pub struct Outcome {
    pub ledger: Ledger,
    pub setup: Vec<f64>,
    pub reps: Vec<RepOutcome>,
    /// Traced runs only.
    pub traced: Option<Traced>,
}

pub struct Traced {
    /// The traced repetition with the median wall, and its spans.
    pub rep: RepOutcome,
    pub spans: Vec<Span>,
    /// The spans of the other traced repetitions, for `trace.json`.
    pub other_spans: Vec<Span>,
    pub fixed: Vec<micro::Measured>,
}

/// The fixed-case layer measurements: `micro::run`, or a test's stand-in.
pub type Layers = fn(seed: u64, budget: Duration) -> Vec<micro::Measured>;

/// How much a run does beyond what `--seconds` asks for.
pub struct Sizing {
    /// Share of the workload table's windows and case lists that is run.
    pub scale: f64,
    /// Set-ups of an untraced run.
    pub setups: usize,
    /// Fewest timed repetitions of an untraced run.
    pub min_reps: usize,
    /// Untraced, then traced repetitions of a traced run.
    pub baseline_reps: usize,
    pub traced_reps: usize,
    pub layers: Layers,
}

impl Sizing {
    /// The benchmark as `workloads.rs` sizes it.
    pub const FULL: Sizing = Sizing {
        scale: 1.0,
        setups: params::SETUP_REPEATS,
        min_reps: params::MIN_REPS,
        baseline_reps: params::TRACE_BASELINE_REPS,
        traced_reps: params::TRACED_REPS,
        layers: micro::run,
    };
}

/// Set up, repeat and (with `trace`) trace and measure the layers.
pub fn measure(args: &Args, scratch: &Path, sizing: &Sizing) -> Outcome {
    let mut ledger = Ledger::default();
    let mut off = Recorder::new(&args.workload, 0, false);

    // Set-up is repeated so that `setup_s` is a median, not one sample;
    // the last one's inputs are the ones measured. Traced runs report no
    // `setup_s` and set up once.
    let setups = if args.trace { 1 } else { sizing.setups };
    let mut setup = Vec::with_capacity(setups);
    let mut body: Option<Box<dyn Body>> = None;
    for _ in 0..setups {
        drop(body.take());
        let t0 = Instant::now();
        let mut b = bodies::setup(
            &args.workload,
            args.seed,
            scratch,
            sizing.scale,
            &mut ledger,
        );
        b.rep(&mut off, &mut ledger); // warm-up repetition
        setup.push(t0.elapsed().as_secs_f64());
        body = Some(b);
    }
    let mut body = body.expect("at least one set-up");

    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut reps = Vec::new();
    let traced = if args.trace {
        for _ in 0..sizing.baseline_reps {
            reps.push(body.rep(&mut off, &mut ledger));
        }
        // One traced repetition is one sample of a noisy host: take a few
        // and read the metrics from the one with the median wall.
        let mut traced: Vec<(RepOutcome, Vec<Span>)> = (0..sizing.traced_reps)
            .map(|i| {
                let mut rec = Recorder::new(&args.workload, (reps.len() + i) as u32, true);
                let rep = body.rep(&mut rec, &mut ledger);
                (rep, rec.into_spans())
            })
            .collect();
        drop(body);
        traced.sort_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s));
        let (rep, spans) = traced.swap_remove(traced.len() / 2);
        // The layers get what is left of the budget, and never less than
        // a third of it.
        let left = budget.saturating_sub(t0.elapsed()).max(budget / 3);
        let fixed = (sizing.layers)(args.seed, left);
        Some(Traced {
            rep,
            spans,
            other_spans: traced.into_iter().flat_map(|(_, s)| s).collect(),
            fixed,
        })
    } else {
        while reps.len() < sizing.min_reps || t0.elapsed() < budget {
            reps.push(body.rep(&mut off, &mut ledger));
        }
        None
    };
    Outcome {
        ledger,
        setup,
        reps,
        traced,
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kib / 1024.0
}

fn summary_value(s: &Summary) -> Value {
    report::map(vec![
        ("n", Value::U64(s.n as u64)),
        ("min", Value::F64(s.min)),
        ("q1", Value::F64(s.q1)),
        ("median", Value::F64(s.median)),
        ("q3", Value::F64(s.q3)),
        ("max", Value::F64(s.max)),
    ])
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer values derived from the selected workload's traced
/// repetition: exact counts, share of the repetition by bucket, Runner
/// accounting. A layer that does no work in the workload reads 0.
fn trace_metrics(out: &Outcome, t: &Traced) -> Vec<micro::Measured> {
    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, samples: usize| {
        m.push(micro::Measured {
            name: name.to_string(),
            value,
            samples,
        })
    };
    let c: Counts = out.reps[0].counts;
    put("sim.engine.stepped_frac", ratio(c.stepped, c.cycles), 1);
    put(
        "sim.engine.span_hit_frac",
        ratio(c.spans_batched, c.spans_batched + c.span_scans_failed),
        1,
    );
    put("sim.engine.flit_moves", c.flit_moves as f64, 1);
    put("sim.engine.cycles", c.cycles as f64, 1);
    put("sim.engine.events_popped", c.events as f64, 1);

    let root_ns: u64 = t
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    for (bucket, ns) in trace::bucket_self_ns(&t.spans) {
        put(&format!("share.{bucket}"), ratio(ns, root_ns), 1);
    }
    let own = trace::self_times_ns(&t.spans);
    let sum_where = |pred: &dyn Fn(&Span) -> bool| -> u64 {
        t.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| pred(s))
            .map(|(_, ns)| *ns)
            .sum()
    };
    let dur_where = |pred: &dyn Fn(&Span) -> bool| -> (u64, usize) {
        let d: Vec<u64> = t
            .spans
            .iter()
            .filter(|s| pred(s))
            .map(Span::dur_ns)
            .collect();
        (d.iter().sum(), d.len())
    };
    let (warm_ns, _) =
        dur_where(&|s| s.name == "bench.runner.replay" && s.case.ends_with("[warm]"));
    put(
        "share.warm.serde_decode",
        ratio(sum_where(&|s| s.name == "serde.decode"), warm_ns),
        1,
    );
    let untraced = stats::median(&out.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    put(
        "trace_overhead_frac",
        t.rep.wall_s / untraced - 1.0,
        out.reps.len(),
    );

    // Runner accounting; all 0 on workloads that never enter the Runner.
    let runner: Vec<f64> = out.reps.iter().map(|r| r.runner_s).collect();
    let runner_s = stats::median(&runner);
    let (replay_ns, replays) = dur_where(&|s| s.name == "bench.runner.replay");
    let per_run_ms = |total_s: f64| {
        if replays == 0 {
            0.0
        } else {
            1e3 * total_s / replays as f64
        }
    };
    put("bench.runner.run_ms", per_run_ms(runner_s), runner.len());
    // What the by-hand spans leave unexplained of the Runner's own wall:
    // the children of the replay spans against the `Runner::run` calls.
    let replay_self = sum_where(&|s| s.name == "bench.runner.replay");
    let explained_s = (replay_ns - replay_self) as f64 / 1e9;
    let overhead = if runner_s > 0.0 {
        1.0 - explained_s / runner_s
    } else {
        0.0
    };
    put("bench.runner.overhead_frac", overhead, runner.len());
    for (name, span) in [
        ("bench.runner.sink_json_ms", "bench.sink.json"),
        ("bench.runner.sink_csv_ms", "bench.sink.csv"),
    ] {
        let (ns, n) = dur_where(&|s| s.name == span);
        put(
            name,
            if n == 0 {
                0.0
            } else {
                ns as f64 / 1e6 / n as f64
            },
            n,
        );
    }
    let jobs: Vec<(f64, f64)> = out
        .reps
        .iter()
        .flat_map(|r| r.cache_job_ms.clone())
        .collect();
    let median_or_zero = |v: Vec<f64>| if v.is_empty() { 0.0 } else { stats::median(&v) };
    put(
        "bench.runner.cache_miss_ms",
        median_or_zero(jobs.iter().map(|j| j.0).collect()),
        jobs.len(),
    );
    put(
        "bench.runner.cache_hit_ms",
        median_or_zero(jobs.iter().map(|j| j.1).collect()),
        jobs.len(),
    );
    put(
        "bench.runner.cache_bytes",
        out.reps[0].cache_bytes as f64,
        1,
    );
    let points: Vec<f64> = out
        .reps
        .iter()
        .flat_map(|r| r.point_wall_ms.clone())
        .collect();
    let p95 = if points.is_empty() {
        0.0
    } else {
        stats::quantile(&points, 0.95)
    };
    put("bench.runner.point_p95_ms", p95, points.len());
    m
}

/// The report of one run as JSON: what the parent prints, records and
/// compares.
pub fn report(args: &Args, out: &Outcome) -> Value {
    let name = args.workload.as_str();
    let walls: Vec<f64> = out.reps.iter().map(|r| r.wall_s).collect();
    let wall = stats::summarize(&walls);
    let first = &out.reps[0];
    let mut ledger = out.ledger.clone();
    let digests_agree = out.reps.iter().all(|r| r.digest == first.digest);
    ledger.record(
        "digest identical across repetitions",
        if digests_agree {
            vec![]
        } else {
            vec!["repetitions computed different results".into()]
        },
    );

    let mut e2e: Vec<(String, Value)> = Vec::new();
    let mut samples: Vec<(String, Value)> = Vec::new();
    let mut put = |name: &str, value: f64, n: usize| {
        e2e.push((name.to_string(), Value::F64(value)));
        samples.push((name.to_string(), Value::U64(n as u64)));
    };
    if !args.trace {
        let applies = |metric: &str| {
            catalog::WORKLOAD_END_TO_END
                .iter()
                .any(|m| m.name == metric && m.applies_to(name))
        };
        put("wall_s", wall.median, wall.n);
        put("peak_rss_mib", peak_rss_mib(), 1);
        put("setup_s", stats::median(&out.setup), out.setup.len());
        if applies("ns_per_flit_move") {
            put(
                "ns_per_flit_move",
                1e9 * wall.median / first.counts.flit_moves as f64,
                wall.n,
            );
        }
        if applies("sim_mcycles_per_s") {
            put(
                "sim_mcycles_per_s",
                first.counts.cycles as f64 / wall.median / 1e6,
                wall.n,
            );
        }
        if applies("cold_wall_s") {
            let parts: Vec<(f64, f64)> = out.reps.iter().filter_map(|r| r.cold_warm_s).collect();
            put(
                "cold_wall_s",
                stats::median(&parts.iter().map(|p| p.0).collect::<Vec<_>>()),
                parts.len(),
            );
            put(
                "warm_wall_s",
                stats::median(&parts.iter().map(|p| p.1).collect::<Vec<_>>()),
                parts.len(),
            );
        }
        if let (true, Some((pct, points))) = (applies("model_err_mc_pct"), first.model_err) {
            put("model_err_mc_pct", pct, points);
        }
        put(
            "ops_failed_frac",
            ratio(ledger.failed, ledger.attempted),
            ledger.attempted as usize,
        );
    }

    let mut per_layer: Vec<(String, Value)> = Vec::new();
    let mut spans = Value::Seq(Vec::new());
    if let Some(t) = &out.traced {
        let derived = trace_metrics(out, t);
        let values: Vec<&micro::Measured> = derived.iter().chain(&t.fixed).collect();
        // Catalog order, and exactly the catalog's names.
        for m in catalog::PER_LAYER {
            let measured = values
                .iter()
                .find(|v| v.name == m.name)
                .unwrap_or_else(|| panic!("per-layer metric `{}` was not measured", m.name));
            per_layer.push((m.name.to_string(), Value::F64(measured.value)));
            samples.push((m.name.to_string(), Value::U64(measured.samples as u64)));
        }
        assert_eq!(
            values.len(),
            catalog::PER_LAYER.len(),
            "an unlisted per-layer metric"
        );
        let all = t.spans.iter().chain(&t.other_spans);
        spans = Value::Seq(all.map(Span::to_value).collect());
    }

    report::map(vec![
        ("workload", Value::Str(name.to_string())),
        ("seed", Value::U64(args.seed)),
        ("traced", Value::Bool(args.trace)),
        ("attempted", Value::U64(ledger.attempted)),
        ("failed", Value::U64(ledger.failed)),
        (
            "failures",
            Value::Seq(ledger.messages.iter().cloned().map(Value::Str).collect()),
        ),
        ("digest", Value::Str(format!("{:016x}", first.digest))),
        ("reps", Value::U64(wall.n as u64)),
        ("wall_s", summary_value(&wall)),
        ("setup_s", summary_value(&stats::summarize(&out.setup))),
        ("end_to_end", Value::Map(e2e)),
        (
            "counts",
            report::map(
                first
                    .counts
                    .named()
                    .map(|(k, v)| (k, Value::U64(v)))
                    .to_vec(),
            ),
        ),
        ("per_layer", Value::Map(per_layer)),
        ("samples", Value::Map(samples)),
        ("spans", spans),
    ])
}

/// Entry point of the child process: measure, print the report, leave no
/// scratch behind.
pub fn main(args: &Args) {
    let scratch = report::out_dir().join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out = measure(args, &scratch, &Sizing::FULL);
    let doc = report(args, &out);
    std::fs::remove_dir_all(&scratch).expect("scratch dir removes");
    println!("{}", serde::json::to_string(&doc));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Source;

    fn tiny(workload: &str, trace: bool, layers: Layers) -> (Args, Outcome) {
        let scratch =
            report::out_dir().join(format!("test-{}-{workload}-{trace}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let args = Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.0,
            trace,
        };
        // A tenth of the size, one of everything.
        let sizing = Sizing {
            scale: 0.1,
            setups: 1,
            min_reps: 1,
            baseline_reps: 1,
            traced_reps: 1,
            layers,
        };
        let out = measure(&args, &scratch, &sizing);
        std::fs::remove_dir_all(&scratch).unwrap();
        (args, out)
    }

    /// Every workload body at a tenth of its size, one repetition, untraced:
    /// finishes in seconds, fails no operation, reports every end-to-end
    /// metric above 0.
    #[test]
    fn every_workload_body_runs_at_tiny_size() {
        for w in catalog::WORKLOADS {
            let (args, out) = tiny(w.name, false, |_, _| unreachable!("untraced"));
            assert_eq!(
                out.ledger.failed, 0,
                "{}: {:?}",
                w.name, out.ledger.messages
            );
            assert!(out.ledger.attempted > 0, "{}", w.name);
            assert_eq!(out.reps.len(), 1, "{}", w.name);
            let text = serde::json::to_string(&report(&args, &out));
            let back = serde::json::parse(&text).expect("report parses back");
            assert_eq!(back.get("workload"), Some(&Value::Str(w.name.to_string())));
            assert_eq!(back.get("failed"), Some(&Value::U64(0)));
            for m in catalog::END_TO_END {
                let v = back.get("end_to_end").and_then(|e| e.get(m.name));
                assert!(
                    matches!(v, Some(Value::F64(x)) if *x > 0.0),
                    "{}: {} = {v:?}",
                    w.name,
                    m.name
                );
            }
        }
    }

    /// The traced path of a Runner workload and of an engine workload, with
    /// the fixed-case measurements stubbed out (they take seconds even in
    /// release): the by-hand replay is bit-equal to the Runner, every
    /// per-layer name of the catalog is reported, the shares add up to 1.
    #[test]
    fn traced_runs_report_every_per_layer_metric() {
        let stub: Layers = |_, _| {
            let fixed = catalog::PER_LAYER
                .iter()
                .filter(|m| m.source == Source::Fixed);
            fixed
                .map(|m| micro::Measured {
                    name: m.name.to_string(),
                    value: 1.0,
                    samples: 1,
                })
                .collect()
        };
        for workload in ["cache-io", "fig6-sweep", "sat-kernel"] {
            let (args, out) = tiny(workload, true, stub);
            assert_eq!(
                out.ledger.failed, 0,
                "{workload}: {:?}",
                out.ledger.messages
            );
            let doc = report(&args, &out);
            let Some(Value::Map(per_layer)) = doc.get("per_layer") else {
                panic!("no per_layer section")
            };
            let names: Vec<&str> = per_layer.iter().map(|(k, _)| k.as_str()).collect();
            let listed: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, listed, "{workload}");
            let shares: f64 = per_layer
                .iter()
                .filter(|(k, _)| k.starts_with("share.") && !k.starts_with("share.warm."))
                .map(|(_, v)| match v {
                    Value::F64(x) => *x,
                    _ => panic!("share is not a number"),
                })
                .sum();
            assert!(
                (shares - 1.0).abs() < 1e-9,
                "{workload}: shares sum to {shares}"
            );
            assert!(matches!(doc.get("spans"), Some(Value::Seq(s)) if !s.is_empty()));
        }
    }
}
