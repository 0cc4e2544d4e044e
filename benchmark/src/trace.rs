//! Spans recorded from the benchmark's own files, around calls into public
//! functions of each layer. Nothing inside the measured program is
//! instrumented.
//!
//! A span is `{id, parent, name, workload, rep, case, start_ns, end_ns}`
//! plus the counts taken at the same boundary. Spans stay in memory and are
//! written out once, when the benchmark ends. A span's *self time* is its
//! duration minus the part of it its child spans cover; a layer's self time
//! is the sum over the spans its name prefix selects (see [`SHARES`]).

use serde::Value;
use std::time::Instant;

/// Counts taken at a span boundary, where the work happens. All exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Flit-channel traversals simulated (`SimResults::flit_moves`).
    pub flit_moves: u64,
    /// Cycles simulated (`SimResults::cycles`).
    pub cycles: u64,
    /// Cycles the engine actually stepped (`EngineCounters::simulated_cycles`).
    pub stepped: u64,
    /// Arrival events popped (`EngineCounters::events_popped`).
    pub events: u64,
    /// Streaming spans the engine batched / scans that found none.
    pub spans_batched: u64,
    pub span_scans_failed: u64,
    /// Bytes encoded, decoded or written.
    pub bytes: u64,
    /// Fixed-point iterations or model evaluations.
    pub iterations: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.flit_moves += o.flit_moves;
        self.cycles += o.cycles;
        self.stepped += o.stepped;
        self.events += o.events;
        self.spans_batched += o.spans_batched;
        self.span_scans_failed += o.span_scans_failed;
        self.bytes += o.bytes;
        self.iterations += o.iterations;
    }

    /// Every count with its name, as `trace.json` and `results.json` spell it.
    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("flit_moves", self.flit_moves),
            ("cycles", self.cycles),
            ("stepped", self.stepped),
            ("events", self.events),
            ("spans_batched", self.spans_batched),
            ("span_scans_failed", self.span_scans_failed),
            ("bytes", self.bytes),
            ("iterations", self.iterations),
        ]
    }

    pub fn of_run(res: &noc_sim::SimResults) -> Counts {
        Counts {
            flit_moves: res.flit_moves,
            cycles: res.cycles,
            stepped: res.engine.simulated_cycles,
            events: res.engine.events_popped,
            spans_batched: res.engine.spans_batched,
            span_scans_failed: res.engine.span_scans_failed,
            ..Counts::default()
        }
    }

    pub fn bytes(n: usize) -> Counts {
        Counts {
            bytes: n as u64,
            ..Counts::default()
        }
    }

    pub fn iterations(n: usize) -> Counts {
        Counts {
            iterations: n as u64,
            ..Counts::default()
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a repetition's root.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub workload: String,
    pub rep: u32,
    pub case: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Counts,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_value(&self) -> Value {
        let mut m = vec![
            ("id".to_string(), Value::U64(self.id.into())),
            (
                "parent".to_string(),
                self.parent.map_or(Value::Null, |p| Value::U64(p.into())),
            ),
            ("name".to_string(), Value::Str(self.name.to_string())),
            ("workload".to_string(), Value::Str(self.workload.clone())),
            ("rep".to_string(), Value::U64(self.rep.into())),
            ("case".to_string(), Value::Str(self.case.clone())),
            ("start_ns".to_string(), Value::U64(self.start_ns)),
            ("end_ns".to_string(), Value::U64(self.end_ns)),
        ];
        for (k, v) in self.counts.named() {
            if v != 0 {
                m.push((k.to_string(), Value::U64(v)));
            }
        }
        Value::Map(m)
    }
}

/// Handle of an open span; closing a handle of a disabled recorder is free.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// In-memory span store. Disabled (the untraced run) it records nothing and
/// `begin`/`end` are one branch each.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    workload: String,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder for repetition number `rep` of `workload`.
    pub fn new(workload: &str, rep: u32, enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            workload: workload.to_string(),
            rep,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, case: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            workload: self.workload.clone(),
            rep: self.rep,
            case: case.to_string(),
            start_ns: 0,
            end_ns: 0,
            counts: Counts::default(),
        });
        self.stack.push(id);
        // Stamp last, so the recorder's own bookkeeping stays outside.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(Some(id))
    }

    /// Close `open` (which must be the innermost open span) with its counts.
    pub fn end(&mut self, open: Open, counts: Counts) {
        let Some(id) = open.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.counts = counts;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span was left open");
        self.spans
    }
}

/// Self time of every span, indexed like `spans`: duration minus the time
/// its direct children cover. Children of one parent never overlap (the
/// benchmark is single-threaded), so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Share buckets of a traced repetition: `(metric suffix, span-name
/// prefixes)`. Every span name falls in exactly one bucket; the root span
/// (`rep`) is `unattributed`.
pub const SHARES: &[(&str, &[&str])] = &[
    (
        "inputs",
        &[
            "topology.",
            "workloads.",
            "bench.scenario.validate",
            "bench.scenario.materialize",
        ],
    ),
    ("resolve", &["bench.scenario.resolve"]),
    ("model", &["core."]),
    ("plan", &["sim.plan."]),
    ("engine_build", &["sim.engine.build", "sim.engine.drop"]),
    ("engine_run", &["sim.engine.run"]),
    ("serde", &["serde."]),
    ("sinks", &["bench.sink."]),
    ("cache_fs", &["bench.cache."]),
    ("aggregate", &["telemetry."]),
    ("unattributed", &["rep", "bench.runner.replay"]),
];

/// The share bucket of a span name.
pub fn bucket_of(name: &str) -> &'static str {
    SHARES
        .iter()
        .find(|(_, prefixes)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(bucket, _)| *bucket)
        .unwrap_or_else(|| panic!("span name `{name}` has no share bucket"))
}

/// Self time per share bucket, in [`SHARES`] order, over `spans`.
pub fn bucket_self_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let own = self_times_ns(spans);
    SHARES
        .iter()
        .map(|(bucket, _)| {
            let ns = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| bucket_of(s.name) == *bucket)
                .map(|(_, ns)| *ns)
                .sum();
            (*bucket, ns)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            workload: "w".into(),
            rep: 0,
            case: String::new(),
            start_ns: start,
            end_ns: end,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // rep [0,100] ─ sim.plan.build [10,30]
        //             └ sim.engine.run [40,90] ─ serde.encode [50,60]
        let spans = vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "sim.plan.build", 10, 30),
            span(2, Some(0), "sim.engine.run", 40, 90),
            span(3, Some(2), "serde.encode", 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        let buckets = bucket_self_ns(&spans);
        let get = |b: &str| buckets.iter().find(|(n, _)| *n == b).unwrap().1;
        assert_eq!(get("unattributed"), 30);
        assert_eq!(get("plan"), 20);
        assert_eq!(get("engine_run"), 40);
        assert_eq!(get("serde"), 10);
        assert_eq!(buckets.iter().map(|(_, ns)| ns).sum::<u64>(), 100);
    }

    #[test]
    fn recorder_links_children_to_the_innermost_open_span() {
        let mut rec = Recorder::new("w", 0, true);
        let root = rec.begin("rep", "");
        let a = rec.begin("sim.engine.run", "quarc-64");
        rec.end(a, Counts::bytes(7));
        let b = rec.begin("serde.decode", "");
        rec.end(b, Counts::default());
        rec.end(root, Counts::default());
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].counts.bytes, 7);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new("w", 0, false);
        let s = rec.begin("rep", "");
        rec.end(s, Counts::default());
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn spans_round_trip_through_the_vendored_json() {
        let mut s = span(4, Some(1), "sim.engine.run", 5, 9);
        s.counts.flit_moves = 12;
        let text = serde::json::to_string(&s.to_value());
        let back = serde::json::parse(&text).expect("span JSON parses");
        assert_eq!(back.get("parent"), Some(&Value::U64(1)));
        assert_eq!(back.get("flit_moves"), Some(&Value::U64(12)));
        assert_eq!(back.get("bytes"), None, "zero counts are left out");
    }
}
