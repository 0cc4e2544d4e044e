//! What the parent does with the children's reports: provenance, the
//! printed tables, `results.json`, `trace.json`, the driver's result line
//! and the `check-repeat` comparison.

use crate::catalog::{self, Better, EndToEnd};
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The benchmark's directory: `benchmark/` under the working directory when
/// run from the repo root (as the driver does), else where it was built.
pub fn bench_dir() -> PathBuf {
    let local = PathBuf::from("benchmark");
    if local.join("Cargo.toml").is_file() {
        local
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Where results, traces and scratch files go (git-ignored).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

// --------------------------------------------------------------- provenance

/// Commit of the checkout, read from `.git` files; `unknown` outside a git
/// repository (the driver's checkout is not one).
fn git_commit(root: &Path) -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(root.join(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached
    };
    if let Some(commit) = read(root.join(".git").join(reference)) {
        return commit;
    }
    read(root.join(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `YYYY-MM-DD` (UTC) of a Unix time, by the days-to-civil algorithm.
fn civil_date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Throughput of two busy threads over one: 2.0 on two free cores, 1.0
/// where the second vCPU adds nothing (the reference sandbox).
fn parallel_speedup() -> f64 {
    fn spin() -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..60_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }
    let t0 = Instant::now();
    std::hint::black_box(spin());
    let one = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let other = s.spawn(|| std::hint::black_box(spin()));
        std::hint::black_box(spin());
        other.join().expect("spin thread");
    });
    2.0 * one / t0.elapsed().as_secs_f64()
}

/// The `meta` block carried by every `results.json`.
pub fn meta(seed: u64, seconds: f64, traced: bool) -> Value {
    let root = bench_dir().join("..");
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    map(vec![
        ("git_commit", Value::Str(git_commit(&root))),
        ("rustc", Value::Str(env!("BENCH_RUSTC_VERSION").to_string())),
        ("nproc", Value::U64(nproc as u64)),
        ("host.parallel_speedup", Value::F64(parallel_speedup())),
        ("threads_used", Value::U64(1)),
        ("date", Value::Str(civil_date(now))),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("min_reps", Value::U64(crate::params::MIN_REPS as u64)),
        (
            "setup_repeats",
            Value::U64(crate::params::SETUP_REPEATS as u64),
        ),
        ("traced", Value::Bool(traced)),
    ])
}

// ------------------------------------------------------------------ reading

fn num(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn text(v: Option<&Value>) -> &str {
    match v {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

fn entries(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Map(m)) => m,
        _ => &[],
    }
}

fn failed(report: &Value) -> u64 {
    num(report.get("failed")).map_or(0, |f| f as u64)
}

pub fn any_failed(reports: &[Value]) -> bool {
    reports.iter().any(|r| failed(r) > 0)
}

// ----------------------------------------------------------------- printing

fn unit_of(name: &str) -> &'static str {
    let e2e = catalog::END_TO_END
        .iter()
        .chain(catalog::WORKLOAD_END_TO_END);
    e2e.map(|m| (m.name, m.unit))
        .chain(catalog::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Print one workload's report: every metric by name with its unit, the
/// repetition summary, the exact counts and the failures.
pub fn print_report(r: &Value) {
    let name = text(r.get("workload"));
    let samples = r.get("samples");
    println!("== {name} (seed {}) ==", num(r.get("seed")).unwrap_or(0.0));
    for (key, label) in [("wall_s", "repetition wall"), ("setup_s", "set-up wall")] {
        let s = r.get(key);
        let f = |k| num(s.and_then(|s| s.get(k))).unwrap_or(f64::NAN);
        println!(
            "  {label:<16} median {:.4} s  quartiles [{:.4}, {:.4}]  min {:.4}  max {:.4}  n = {}",
            f("median"),
            f("q1"),
            f("q3"),
            f("min"),
            f("max"),
            f("n")
        );
    }
    for section in ["end_to_end", "per_layer"] {
        for (metric, value) in entries(r.get(section)) {
            let n = num(samples.and_then(|s| s.get(metric))).unwrap_or(1.0);
            println!(
                "  {metric:<40} {:>16.6} {:<10} n = {n}",
                num(Some(value)).unwrap_or(f64::NAN),
                unit_of(metric)
            );
        }
    }
    let counts: Vec<String> = entries(r.get("counts"))
        .iter()
        .map(|(k, v)| format!("{k} {}", num(Some(v)).unwrap_or(0.0)))
        .collect();
    println!("  exact counts per repetition: {}", counts.join(", "));
    println!("  digest {}", text(r.get("digest")));
    println!(
        "  operations: {} attempted, {} failed",
        num(r.get("attempted")).unwrap_or(0.0),
        failed(r)
    );
    if let Some(Value::Seq(failures)) = r.get("failures") {
        for f in failures {
            println!("  FAILED {}", text(Some(f)));
        }
    }
    println!();
}

/// The driver's result line for one workload.
pub fn contract_line(r: &Value) -> String {
    let section = if r.get("traced") == Some(&Value::Bool(true)) {
        "per_layer"
    } else {
        "end_to_end"
    };
    let listed = |name: &str| match section {
        "end_to_end" => catalog::END_TO_END.iter().any(|m| m.name == name),
        _ => true,
    };
    let metrics: Vec<(String, Value)> = entries(r.get(section))
        .iter()
        .filter(|(name, _)| listed(name))
        .map(|(name, value)| {
            let unit = Value::Str(unit_of(name).to_string());
            (
                name.clone(),
                map(vec![("value", value.clone()), ("unit", unit)]),
            )
        })
        .collect();
    let doc = map(vec![
        ("correct", Value::Bool(failed(r) == 0)),
        (
            "attempted",
            r.get("attempted").cloned().unwrap_or(Value::U64(0)),
        ),
        ("failed", Value::U64(failed(r))),
        ("metrics", Value::Map(metrics)),
    ]);
    serde::json::to_string(&doc)
}

// ------------------------------------------------------------------ writing

fn write(path: &Path, doc: &Value) {
    std::fs::create_dir_all(out_dir()).expect("benchmark/out");
    std::fs::write(path, serde::json::to_string_pretty(doc)).expect("result file writes");
    println!("wrote {}", path.display());
}

/// `results.json`: the meta block and every workload's report, spans left
/// out (they go to `trace.json`).
pub fn results_doc(meta: &Value, reports: &[Value]) -> Value {
    let workloads: Vec<(String, Value)> = reports
        .iter()
        .map(|r| {
            let kept: Vec<(String, Value)> = entries(Some(r))
                .iter()
                .filter(|(k, _)| k != "spans")
                .cloned()
                .collect();
            (text(r.get("workload")).to_string(), Value::Map(kept))
        })
        .collect();
    map(vec![
        ("meta", meta.clone()),
        ("workloads", Value::Map(workloads)),
    ])
}

/// `trace.json`: every span of every traced repetition, in one list.
pub fn trace_doc(meta: &Value, reports: &[Value]) -> Value {
    let mut spans = Vec::new();
    for r in reports {
        if let Some(Value::Seq(s)) = r.get("spans") {
            spans.extend(s.iter().cloned());
        }
    }
    map(vec![("meta", meta.clone()), ("spans", Value::Seq(spans))])
}

pub fn write_results(meta: &Value, reports: &[Value], traced: bool) {
    write(&out_dir().join("results.json"), &results_doc(meta, reports));
    if traced {
        write(&out_dir().join("trace.json"), &trace_doc(meta, reports));
    }
}

// ------------------------------------------------------------- check-repeat

/// One row of the `check-repeat` table.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    /// How much worse the second run is, as a share of the first (negative
    /// = better).
    pub worse_by: f64,
    pub pass: bool,
}

fn compare(m: &EndToEnd, workload: &str, first: f64, second: f64) -> Row {
    let worse_by = match m.better {
        _ if first == second => 0.0,
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    };
    Row {
        workload: workload.to_string(),
        metric: m.name.to_string(),
        first,
        second,
        worse_by,
        // Either order of the two runs must hold: the same code ran twice.
        pass: worse_by.abs() <= m.bound,
    }
}

/// Compare two untraced suites of the same build and seed: every
/// end-to-end metric against its own bound, the digest and the exact
/// counts for identity.
pub fn check_repeat(first: &[Value], second: &[Value]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let workload = text(a.get("workload"));
        for m in catalog::END_TO_END
            .iter()
            .chain(catalog::WORKLOAD_END_TO_END)
        {
            let get = |r: &Value| num(r.get("end_to_end").and_then(|e| e.get(m.name)));
            if let (Some(x), Some(y)) = (get(a), get(b)) {
                rows.push(compare(m, workload, x, y));
            }
        }
        let same = a.get("digest") == b.get("digest") && a.get("counts") == b.get("counts");
        rows.push(Row {
            workload: workload.to_string(),
            metric: "digest+counts".to_string(),
            first: 0.0,
            second: 0.0,
            worse_by: 0.0,
            pass: same,
        });
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "| {:<13} | {:<18} | {:>14} | {:>14} | {:>9} | {:>6} | {:<4} |",
        "workload", "metric", "first", "second", "worse by", "bound", "pass"
    );
    println!(
        "|{:-<15}|{:-<20}|{:->16}|{:->16}|{:->11}|{:->8}|{:-<6}|",
        "", "", "", "", "", "", ""
    );
    for r in rows {
        let bound = catalog::END_TO_END
            .iter()
            .chain(catalog::WORKLOAD_END_TO_END)
            .find(|m| m.name == r.metric)
            .map_or("same".to_string(), |m| format!("{:.0}%", 100.0 * m.bound));
        println!(
            "| {:<13} | {:<18} | {:>14.6} | {:>14.6} | {:>8.2}% | {:>6} | {:<4} |",
            r.workload,
            r.metric,
            r.first,
            r.second,
            100.0 * r.worse_by,
            bound,
            if r.pass { "PASS" } else { "FAIL" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_790_553_600), "2026-09-28");
    }

    fn fake_report(traced: bool) -> Value {
        map(vec![
            ("workload", Value::Str("sat-kernel".into())),
            ("seed", Value::U64(1)),
            ("traced", Value::Bool(traced)),
            ("attempted", Value::U64(9)),
            ("failed", Value::U64(0)),
            ("digest", Value::Str("00".into())),
            (
                "end_to_end",
                map(vec![
                    ("wall_s", Value::F64(1.25)),
                    ("peak_rss_mib", Value::F64(20.5)),
                    ("setup_s", Value::F64(2.5)),
                    ("ns_per_flit_move", Value::F64(70.0)),
                ]),
            ),
            (
                "per_layer",
                map(vec![("share.engine_run", Value::F64(0.97))]),
            ),
            ("counts", map(vec![("flit_moves", Value::U64(5))])),
            ("spans", Value::Seq(vec![map(vec![("id", Value::U64(0))])])),
        ])
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_metrics() {
        let line = contract_line(&fake_report(false));
        let doc = serde::json::parse(&line).unwrap();
        let Value::Map(m) = &doc else { panic!() };
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = entries(doc.get("metrics"))
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            ["wall_s", "peak_rss_mib", "setup_s"],
            "workload-only metrics stay out"
        );
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value"), Some(&Value::F64(1.25)));
        assert_eq!(wall.get("unit"), Some(&Value::Str("s".into())));

        let traced = serde::json::parse(&contract_line(&fake_report(true))).unwrap();
        let names: Vec<&str> = entries(traced.get("metrics"))
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["share.engine_run"]);
    }

    #[test]
    fn result_files_parse_back_and_split_the_spans() {
        let meta = map(vec![("seed", Value::U64(1))]);
        let reports = [fake_report(true)];
        let results = serde::json::to_string_pretty(&results_doc(&meta, &reports));
        let results = serde::json::parse(&results).expect("results.json parses back");
        let w = results
            .get("workloads")
            .and_then(|w| w.get("sat-kernel"))
            .unwrap();
        assert!(w.get("spans").is_none() && w.get("counts").is_some());
        assert_eq!(results.get("meta"), Some(&meta));
        let trace = serde::json::to_string_pretty(&trace_doc(&meta, &reports));
        let trace = serde::json::parse(&trace).expect("trace.json parses back");
        assert!(matches!(trace.get("spans"), Some(Value::Seq(s)) if s.len() == 1));
    }

    #[test]
    fn check_repeat_applies_each_metrics_own_bound_and_direction() {
        let a = fake_report(false);
        let mut worse = fake_report(false);
        if let Value::Map(m) = &mut worse {
            m.iter_mut().find(|(k, _)| k == "end_to_end").unwrap().1 = map(vec![
                ("wall_s", Value::F64(1.25 * 1.2)),
                ("peak_rss_mib", Value::F64(20.5 * 1.2)),
                ("setup_s", Value::F64(2.5 / 1.5)),
            ]);
        }
        let rows = check_repeat(&[a], &[worse]);
        let row = |name: &str| rows.iter().find(|r| r.metric == name).unwrap();
        assert!(row("wall_s").pass, "20% worse against a 25% bound");
        assert!(!row("peak_rss_mib").pass, "20% worse against a 10% bound");
        assert!(
            !row("setup_s").pass,
            "the same code ran twice: 33% better is as wrong"
        );
        assert!(row("setup_s").worse_by < 0.0 && row("digest+counts").pass);
        assert!(
            rows.iter().all(|r| r.metric != "ns_per_flit_move"),
            "absent in one run"
        );
    }
}
