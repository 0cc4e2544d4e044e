//! Chrome-trace / Perfetto JSON export of a drained [`TraceLog`].
//!
//! The emitted document follows the Trace Event Format that both
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly:
//!
//! * process 0 carries **one track per channel**; each Grant→Release
//!   pair becomes a complete (`"ph": "X"`) occupancy span on its
//!   channel's track;
//! * process 1 carries **one track per node**; injections, absorptions
//!   and op completions are instant (`"ph": "i"`) events;
//! * process 2 is the engine track; stall cycles land there.
//!
//! Track labels come from the caller (the bench layer builds them from
//! the topology), keeping this crate free of topology dependencies.
//! Events are emitted sorted by timestamp, so a well-formed export is
//! also monotonic — [`validate_chrome_trace`] checks both properties and
//! is run by the `fig-heatmap` exhibit and CI on every emitted trace.

use crate::trace::{TraceEventKind, TraceLog};
use serde::Value;
use std::collections::HashMap;

/// Human-readable track labels, indexed by channel id / node id. Missing
/// entries fall back to `ch<i>` / `n<i>`.
#[derive(Clone, Debug, Default)]
pub struct TrackNames {
    /// One label per channel (process 0 tracks).
    pub channels: Vec<String>,
    /// One label per node (process 1 tracks).
    pub nodes: Vec<String>,
}

const PID_CHANNELS: u64 = 0;
const PID_NODES: u64 = 1;
const PID_ENGINE: u64 = 2;

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn meta(pid: u64, tid: u64, name: &str) -> Value {
    map(vec![
        ("name", Value::Str("thread_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
        ("ts", Value::U64(0)),
        ("args", map(vec![("name", Value::Str(name.to_string()))])),
    ])
}

fn span(tid: u64, ts: u64, dur: u64) -> Value {
    map(vec![
        ("name", Value::Str("occupied".into())),
        ("ph", Value::Str("X".into())),
        ("pid", Value::U64(PID_CHANNELS)),
        ("tid", Value::U64(tid)),
        ("ts", Value::U64(ts)),
        ("dur", Value::U64(dur)),
    ])
}

fn instant(name: &str, pid: u64, tid: u64, ts: u64) -> Value {
    map(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("i".into())),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
        ("ts", Value::U64(ts)),
        ("s", Value::Str("t".into())),
    ])
}

/// Render a drained trace as a Chrome-trace JSON document.
///
/// One microsecond of trace time per simulated cycle (`ts` is the cycle
/// number verbatim). Grants whose release fell outside the capture (or
/// was evicted by a ring sink) are closed at the last captured cycle;
/// releases whose grant was evicted open at their own cycle with zero
/// duration.
pub fn chrome_trace(log: &TraceLog, tracks: &TrackNames) -> String {
    let last_ts = log.events.last().map(|e| e.at).unwrap_or(0);
    let mut events: Vec<Value> = Vec::new();

    // Metadata: name every track that actually appears.
    let mut seen_channels: Vec<u32> = Vec::new();
    let mut seen_nodes: Vec<u32> = Vec::new();
    let mut saw_stall = false;
    for ev in &log.events {
        match ev.kind {
            TraceEventKind::Grant | TraceEventKind::Release => {
                if !seen_channels.contains(&ev.loc) {
                    seen_channels.push(ev.loc);
                }
            }
            TraceEventKind::Inject | TraceEventKind::Absorb | TraceEventKind::OpDone => {
                if !seen_nodes.contains(&ev.loc) {
                    seen_nodes.push(ev.loc);
                }
            }
            TraceEventKind::Stall => saw_stall = true,
        }
    }
    seen_channels.sort_unstable();
    seen_nodes.sort_unstable();
    for &ch in &seen_channels {
        let label = tracks
            .channels
            .get(ch as usize)
            .cloned()
            .unwrap_or_else(|| format!("ch{ch}"));
        events.push(meta(PID_CHANNELS, ch as u64, &label));
    }
    for &n in &seen_nodes {
        let label = tracks
            .nodes
            .get(n as usize)
            .cloned()
            .unwrap_or_else(|| format!("n{n}"));
        events.push(meta(PID_NODES, n as u64, &label));
    }
    if saw_stall {
        events.push(meta(PID_ENGINE, 0, "engine stalls"));
    }

    // Body: pair grants with releases into occupancy spans.
    let mut open: HashMap<u32, u64> = HashMap::new();
    for ev in &log.events {
        match ev.kind {
            TraceEventKind::Grant => {
                // A re-grant without a release cannot happen in the
                // engines; if a truncated capture produces one anyway,
                // close the older span at the new grant.
                if let Some(start) = open.insert(ev.loc, ev.at) {
                    events.push(span(ev.loc as u64, start, ev.at - start));
                }
            }
            TraceEventKind::Release => match open.remove(&ev.loc) {
                Some(start) => events.push(span(ev.loc as u64, start, ev.at - start)),
                // The grant predates the capture window: zero-length
                // marker so the release stays visible.
                None => events.push(span(ev.loc as u64, ev.at, 0)),
            },
            TraceEventKind::Inject => {
                events.push(instant("inject", PID_NODES, ev.loc as u64, ev.at))
            }
            TraceEventKind::Absorb => {
                events.push(instant("absorb", PID_NODES, ev.loc as u64, ev.at))
            }
            TraceEventKind::OpDone => {
                events.push(instant("op done", PID_NODES, ev.loc as u64, ev.at))
            }
            TraceEventKind::Stall => events.push(instant("stall", PID_ENGINE, 0, ev.at)),
        }
    }
    // Spans still open at the end of the capture.
    let mut dangling: Vec<(u32, u64)> = open.into_iter().collect();
    dangling.sort_unstable();
    for (ch, start) in dangling {
        events.push(span(ch as u64, start, last_ts.saturating_sub(start)));
    }

    // Monotonic output: stable sort by timestamp keeps same-cycle events
    // in recording order and metadata first.
    events.sort_by_key(|e| match e.get("ts") {
        Some(Value::U64(ts)) => *ts,
        _ => 0,
    });

    let doc = map(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
        ("droppedEvents", Value::U64(log.dropped)),
    ]);
    serde::json::to_string(&doc)
}

/// Check that `json` is a well-formed Chrome-trace document: parses as
/// JSON, has a `traceEvents` array whose entries all carry a phase and a
/// `u64` timestamp, and the timestamps are monotonically non-decreasing.
/// Returns the event count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc: Value = serde::json::from_str(json).map_err(|e| format!("not JSON: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(Value::Seq(events)) => events,
        Some(other) => return Err(format!("traceEvents is a {}, not an array", other.kind())),
        None => return Err("missing traceEvents".into()),
    };
    let mut prev = 0u64;
    for (i, ev) in events.iter().enumerate() {
        match ev.get("ph") {
            Some(Value::Str(_)) => {}
            _ => return Err(format!("event {i} has no phase")),
        }
        let ts = match ev.get("ts") {
            Some(Value::U64(ts)) => *ts,
            _ => return Err(format!("event {i} has no u64 timestamp")),
        };
        if ts < prev {
            return Err(format!("event {i} goes back in time: {ts} after {prev}"));
        }
        prev = ts;
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn demo_log() -> TraceLog {
        use TraceEventKind::*;
        let mk = |at, kind, loc| TraceEvent { at, kind, loc };
        TraceLog {
            events: vec![
                mk(10, Inject, 2),
                mk(11, Grant, 7),
                mk(15, Absorb, 3),
                mk(18, Release, 7),
                mk(20, Grant, 7),
                mk(22, OpDone, 2),
                mk(23, Stall, 0),
            ],
            dropped: 4,
        }
    }

    #[test]
    fn export_is_valid_and_monotonic() {
        let tracks = TrackNames {
            channels: (0..8).map(|i| format!("link{i}")).collect(),
            nodes: (0..4).map(|i| format!("node{i}")).collect(),
        };
        let json = chrome_trace(&demo_log(), &tracks);
        let n = validate_chrome_trace(&json).expect("well-formed trace");
        // 7 input events → 1 full span + 1 dangling span + 4 instants +
        // metadata (1 channel, 2 nodes, 1 engine).
        assert_eq!(n, 10);
        assert!(json.contains("\"link7\""), "channel track is named");
        assert!(json.contains("\"node2\""), "node track is named");
        assert!(json.contains("\"droppedEvents\":4"));
    }

    #[test]
    fn grant_release_becomes_a_span() {
        let json = chrome_trace(&demo_log(), &TrackNames::default());
        assert!(json.contains("\"ph\":\"X\""), "complete events present");
        assert!(json.contains("\"dur\":7"), "span 11→18 has duration 7");
        // Unnamed tracks fall back to generated labels.
        assert!(json.contains("\"ch7\""));
    }

    #[test]
    fn empty_log_exports_cleanly() {
        let json = chrome_trace(&TraceLog::default(), &TrackNames::default());
        assert_eq!(validate_chrome_trace(&json), Ok(0));
    }

    #[test]
    fn validator_rejects_garbage_and_time_travel() {
        assert!(validate_chrome_trace("{ not json").is_err());
        assert!(validate_chrome_trace("{\"a\":1}").is_err());
        let back_in_time = r#"{"traceEvents":[
            {"ph":"i","ts":10},{"ph":"i","ts":3}]}"#;
        assert!(validate_chrome_trace(back_in_time)
            .unwrap_err()
            .contains("back in time"));
    }
}
