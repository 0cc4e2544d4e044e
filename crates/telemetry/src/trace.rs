//! Flit-level event records and the recorder that captures them.

use crate::spec::TraceMode;
use serde::{Deserialize, Serialize};

/// What happened at a trace tap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// A message entered a node's injection queue (`loc` = node).
    Inject,
    /// A channel was granted to a message — the start of an occupancy
    /// span (`loc` = channel).
    Grant,
    /// A channel's owner released it — the end of an occupancy span
    /// (`loc` = channel).
    Release,
    /// A stream's tail was absorbed at a target (`loc` = node).
    Absorb,
    /// A multicast operation completed at every target (`loc` = source
    /// node).
    OpDone,
    /// A cycle in which no flit moved while traffic was in flight
    /// (`loc` unused).
    Stall,
}

/// One flight-recorder record: a cycle-stamped event at a location.
///
/// The record is deliberately flat and `Copy` — the hot path appends it
/// to a `Vec`; interpretation (channel vs node locus) follows the
/// [`TraceEventKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The cycle the event occurred on.
    pub at: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Channel id (`Grant`/`Release`) or node id
    /// (`Inject`/`Absorb`/`OpDone`); `0` for `Stall`.
    pub loc: u32,
}

/// A drained trace: events in recording order plus how many were evicted
/// by a bounded recorder.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceLog {
    /// Captured events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted by a bounded recorder (0 without a bound).
    pub dropped: u64,
}

/// The flight recorder behind every [`TraceMode`] but `Off`: keeps every
/// event (`Full`), or only the most recent `capacity` (`Ring`), evicting
/// the oldest and counting what was lost, so a saturated run's trace
/// stays bounded while the interesting part — the end — survives.
/// `record` sits on the engine's per-event path whenever tracing is
/// enabled.
#[derive(Debug)]
pub struct TraceRecorder {
    buf: Vec<TraceEvent>,
    /// Most events kept; `usize::MAX` without a bound.
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// The recorder `mode` asks for: none when tracing is off, an
    /// unbounded one for [`TraceMode::Full`], a ring of `capacity` events
    /// (min 1) for [`TraceMode::Ring`].
    pub fn for_mode(mode: TraceMode) -> Option<Self> {
        let capacity = match mode {
            TraceMode::Off => return None,
            TraceMode::Full => usize::MAX,
            TraceMode::Ring { capacity } => (capacity as usize).max(1),
        };
        Some(TraceRecorder {
            buf: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
        })
    }

    /// Append one event.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Surrender the captured log, oldest event first.
    pub fn into_log(mut self) -> TraceLog {
        self.buf.rotate_left(self.head);
        TraceLog {
            events: self.buf,
            dropped: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at,
            kind: TraceEventKind::Grant,
            loc: at as u32,
        }
    }

    #[test]
    fn unbounded_recorder_keeps_everything_in_order() {
        let mut s = TraceRecorder::for_mode(TraceMode::Full).unwrap();
        for at in 0..100 {
            s.record(ev(at));
        }
        let log = s.into_log();
        assert_eq!(log.events.len(), 100);
        assert_eq!(log.dropped, 0);
        assert!(log.events.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn ring_sink_keeps_the_most_recent_events() {
        let mut s = TraceRecorder::for_mode(TraceMode::Ring { capacity: 10 }).unwrap();
        for at in 0..25 {
            s.record(ev(at));
        }
        let log = s.into_log();
        assert_eq!(log.events.len(), 10);
        assert_eq!(log.dropped, 15);
        let ats: Vec<u64> = log.events.iter().map(|e| e.at).collect();
        assert_eq!(ats, (15..25).collect::<Vec<_>>(), "oldest first");
    }

    #[test]
    fn ring_sink_below_capacity_drops_nothing() {
        let mut s = TraceRecorder::for_mode(TraceMode::Ring { capacity: 100 }).unwrap();
        for at in 0..7 {
            s.record(ev(at));
        }
        let log = s.into_log();
        assert_eq!(log.events.len(), 7);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn trace_log_round_trips_through_json() {
        let log = TraceLog {
            events: vec![
                TraceEvent {
                    at: 5,
                    kind: TraceEventKind::Inject,
                    loc: 3,
                },
                TraceEvent {
                    at: 9,
                    kind: TraceEventKind::Stall,
                    loc: 0,
                },
            ],
            dropped: 2,
        };
        let json = serde::json::to_string(&log);
        let back: TraceLog = serde::json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }
}
