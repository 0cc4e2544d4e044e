//! The correctness gate: what counts as an operation, when one fails, and
//! the digests that let two commits be compared exactly.
//!
//! No golden numbers are checked in: a later behaviour fix must not need to
//! edit the benchmark. Instead every check is relative (engine against
//! engine, warm against cold, repetition against repetition, bound against
//! mean) and the digests are printed.

use noc_sim::SimResults;

/// Operations attempted and failed. An operation is one sweep point, one
/// engine run, one model solve or one cache job; it fails if it deadlocks,
/// does not deliver its tagged traffic, produces a non-finite mean, or
/// fails one of the relative checks. (An operation that errors or panics
/// ends the process without a result, which the parent reports.)
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// `case: problem; problem` for every failed operation.
    pub messages: Vec<String>,
}

impl Ledger {
    /// Record one operation; it failed iff `problems` is not empty.
    pub fn record(&mut self, case: &str, problems: Vec<String>) {
        self.record_n(case, 1, problems);
    }

    /// Record `n` operations checked together; all fail if any problem was
    /// found.
    pub fn record_n(&mut self, case: &str, n: usize, problems: Vec<String>) {
        self.attempted += n as u64;
        if !problems.is_empty() {
            self.failed += n as u64;
            self.messages
                .push(format!("{case}: {}", problems.join("; ")));
        }
    }
}

/// Whether a run is expected to deliver all its tagged traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Below saturation: the run must be `complete()` and not flagged
    /// saturated.
    Unsaturated,
    /// At or past the knee: a run that is not `complete()` must say so by
    /// flagging `saturated` — silence is the failure.
    MaySaturate,
}

/// The reasons `res` fails the gate (none = passes).
pub fn run_problems(res: &SimResults, expect: Expect) -> Vec<String> {
    let mut problems = Vec::new();
    if res.deadlocked {
        problems.push("deadlocked".to_string());
    }
    match expect {
        Expect::Unsaturated => {
            if !res.complete() {
                problems.push("tagged traffic not delivered".to_string());
            }
            if res.saturated {
                problems.push("flagged saturated below the knee".to_string());
            }
        }
        Expect::MaySaturate => {
            if !res.complete() && !res.saturated {
                problems.push("incomplete but not flagged saturated".to_string());
            }
        }
    }
    if res.total_absorbed > res.total_generated {
        problems.push("absorbed more messages than generated".to_string());
    }
    if res.flit_moves == 0 {
        problems.push("no flit moved".to_string());
    }
    let populations = [("unicast", &res.unicast), ("multicast", &res.multicast)];
    for (what, stats) in populations {
        if stats.count > 0 && !(stats.mean.is_finite() && stats.mean > 0.0) {
            problems.push(format!("{what} mean {}", stats.mean));
        }
    }
    if let Some(cl) = &res.closed_loop {
        if !cl.quiesced || cl.requests_issued != cl.requests_retired {
            problems.push(format!(
                "protocol did not quiesce ({} issued, {} retired)",
                cl.requests_issued, cl.requests_retired
            ));
        }
    }
    problems
}

/// FNV-1a-64 over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The fields both engines, every repetition and (for a speed-only change)
/// both commits must agree on.
fn checked_words(res: &SimResults) -> [u64; 6] {
    [
        res.cycles,
        res.flit_moves,
        res.total_generated,
        res.total_absorbed,
        res.unicast.mean.to_bits(),
        res.multicast.mean.to_bits(),
    ]
}

pub fn run_digest(res: &SimResults) -> u64 {
    let mut d = Digest::new();
    for w in checked_words(res) {
        d.push(w);
    }
    d.finish()
}

/// The checked fields, readable, for a divergence message.
pub fn run_fields(res: &SimResults) -> String {
    format!(
        "cycles {} moves {} generated {} absorbed {} unicast {} multicast {}",
        res.cycles,
        res.flit_moves,
        res.total_generated,
        res.total_absorbed,
        res.unicast.mean,
        res.multicast.mean
    )
}

/// Lossless text of a sweep's simulator output: the vendored writer prints
/// floats in their shortest round-trip form, so equal text means equal bits.
pub fn sims_json(sims: &[Vec<SimResults>]) -> String {
    let groups = sims.iter().map(serde::Serialize::to_value).collect();
    serde::json::to_string(&serde::Value::Seq(groups))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_failed_operations_and_keeps_their_case() {
        let mut l = Ledger::default();
        l.record("a", vec![]);
        l.record_n("b", 3, vec!["x".into(), "y".into()]);
        assert_eq!((l.attempted, l.failed), (4, 3));
        assert_eq!(l.messages, vec!["b: x; y".to_string()]);
    }

    #[test]
    fn digest_depends_on_order_and_value() {
        let d = |words: &[u64]| {
            let mut d = Digest::new();
            words.iter().for_each(|&w| d.push(w));
            d.finish()
        };
        assert_eq!(d(&[1, 2]), d(&[1, 2]));
        assert_ne!(d(&[1, 2]), d(&[2, 1]));
        assert_ne!(d(&[1]), d(&[1, 0]));
    }
}
