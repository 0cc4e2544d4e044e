//! Simulation output. No field has a serde default: a [`SimResults`] is
//! read back only from the Runner's cache, whose keys carry its schema.

use noc_queueing::{BatchMeans, Welford};
use noc_telemetry::{LogHistogram, TraceLog, UtilSeries};
use serde::{Deserialize, Serialize};

/// Summary of a latency population. Its quantiles are asked of the
/// [`LogHistogram`] recorded beside it ([`SimResults::latency_hists`],
/// [`ClosedLoopResults::completion_hist`]), not stored here.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Sample mean (cycles); `NaN` when no samples were collected.
    pub mean: f64,
    /// Half-width of the approximate 95% confidence interval (batch
    /// means); `NaN` with insufficient batches.
    pub ci95: f64,
    /// Number of samples.
    pub count: u64,
    /// Smallest observed latency (`NaN` when empty).
    pub min: f64,
    /// Largest observed latency (`NaN` when empty).
    pub max: f64,
}

/// The mean of a population of `count` samples whose accumulator reports
/// `mean`: `NaN` when it is empty. The accumulators read 0 there, which a
/// table would show as a measured zero-cycle latency.
fn population_mean(count: u64, mean: f64) -> f64 {
    if count == 0 {
        f64::NAN
    } else {
        mean
    }
}

impl LatencyStats {
    /// Summarise a batch-means accumulator.
    pub fn from_batch_means(bm: &BatchMeans) -> Self {
        LatencyStats {
            mean: population_mean(bm.count(), bm.mean()),
            ci95: bm.ci95_half_width(),
            count: bm.count(),
            min: bm.overall().min(),
            max: bm.overall().max(),
        }
    }

    /// Summarise a plain Welford accumulator (normal-approximation CI —
    /// used for per-source populations too small for batch means).
    pub fn from_welford(w: &Welford) -> Self {
        let ci95 = if w.count() >= 2 {
            1.96 * w.std_dev() / (w.count() as f64).sqrt()
        } else {
            f64::NAN
        };
        LatencyStats {
            mean: population_mean(w.count(), w.mean()),
            ci95,
            count: w.count(),
            min: w.min(),
            max: w.max(),
        }
    }
}

/// The streaming log-bucketed histograms behind the run's latency
/// summaries — carried whole so the Runner can merge them *exactly*
/// across replicates (bucket-count addition) before taking quantiles,
/// instead of averaging per-replicate percentiles.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHists {
    /// Tagged unicast message latencies.
    pub unicast: LogHistogram,
    /// Tagged multicast operation latencies (the paper's metric).
    pub multicast: LogHistogram,
}

/// Engine-internal work counters: how the run's wall-clock was actually
/// spent, surfaced so engine performance fixes are measurable from the
/// outside (the benchmark ledger reads these, not just timings).
///
/// The counters describe *engine mechanics*, not simulation semantics:
/// two bit-identical runs may legitimately differ here (the cycle engine
/// reports only `simulated_cycles`), so the differential equivalence
/// suite deliberately excludes this field from its comparisons.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineCounters {
    /// Cycles the engine actually executed through its per-cycle
    /// machinery (the cycle engine: every cycle; the event engine: the
    /// non-skipped remainder — `cycles / simulated_cycles` is its
    /// compression ratio).
    pub simulated_cycles: u64,
    /// Arrival events popped off the event queue (event engine only).
    pub events_popped: u64,
    /// Always 0: streaming bodies coast instead. Read by the benchmark's
    /// `span_hit_frac`.
    pub spans_batched: u64,
    /// Cycles proven to be stalled fixpoints and skipped from (event
    /// engine only).
    pub stall_fixpoints: u64,
    /// Always 0: streaming bodies coast instead. Read by the benchmark's
    /// `span_hit_frac`.
    pub span_scans_failed: u64,
    /// Arrivals whose whole transit was applied in closed form, one
    /// unicast or one multicast operation each (event engine only).
    pub flights: u64,
    /// Cycles those flights covered, arrival to last absorption
    /// inclusive (event engine only).
    pub flight_cycles: u64,
    /// Message bodies that coasted: streamed beside stepped traffic and
    /// were settled in closed form (event engine only).
    pub coasts: u64,
    /// Flit moves those coasts settled, out of `SimResults::flit_moves`
    /// (event engine only).
    pub coast_moves: u64,
}

/// Closed-loop protocol statistics of one run (present only when a
/// [`noc_app::ClosedLoopSpec`] drove the engine).
///
/// Open-loop metrics answer "how fast does the network serve offered
/// load"; these answer the closed-loop question — how fast does the
/// *application* make progress when its sources stall on the network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClosedLoopResults {
    /// Requests issued across all nodes.
    pub requests_issued: u64,
    /// Requests retired (== issued whenever the run quiesced).
    pub requests_retired: u64,
    /// Per-request completion latency (issue → retire), in cycles.
    pub completion: LatencyStats,
    /// Streaming histogram behind `completion`, the source of its
    /// quantiles, kept whole so replicate tails merge exactly.
    pub completion_hist: LogHistogram,
    /// Time-average outstanding requests across all nodes (the
    /// occupancy of the protocol windows).
    pub avg_outstanding: f64,
    /// Requests retired per cycle — the closed-loop throughput.
    pub ops_per_cycle: f64,
    /// Did the protocol run to completion (every machine done, nothing
    /// in flight)? `false` means the run hit its deadline or backlog
    /// limit first.
    pub quiesced: bool,
    /// The cycle the run ended on (the quiescence cycle when
    /// `quiesced`).
    pub quiesce_cycle: u64,
}

/// Complete results of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimResults {
    /// Unicast message latency (generation → last flit absorbed); its
    /// quantiles are `latency_hists.unicast`'s.
    pub unicast: LatencyStats,
    /// Multicast operation latency (generation → last flit absorbed at the
    /// last destination over all streams) — the paper's multicast latency.
    pub multicast: LatencyStats,
    /// Per-source multicast latency (indexed by node), validating the
    /// model's per-node predictions (Eq. 14), not just the average.
    pub multicast_by_source: Vec<LatencyStats>,
    /// Streaming log-bucketed histograms behind the latency summaries
    /// above — the one, mergeable source of their quantiles.
    pub latency_hists: LatencyHists,
    /// Tagged unicasts injected / delivered.
    pub unicast_injected: u64,
    /// Tagged unicast messages delivered.
    pub unicast_delivered: u64,
    /// Tagged multicast operations injected.
    pub multicast_injected: u64,
    /// Tagged multicast operations fully delivered.
    pub multicast_delivered: u64,
    /// Total messages (all classes, tagged or not) generated / absorbed —
    /// conservation audit.
    pub total_generated: u64,
    /// Total messages absorbed by sinks.
    pub total_absorbed: u64,
    /// `true` when the run hit its drain deadline or backlog limit with
    /// tagged traffic still in flight: the operating point is (near)
    /// saturation.
    pub saturated: bool,
    /// Deadlock watchdog: flits in the network but nothing moved for an
    /// extended window. Must always be `false` — the dateline virtual
    /// channels make the routing deadlock-free; this field exists to catch
    /// regressions of that argument.
    pub deadlocked: bool,
    /// Cycles simulated.
    pub cycles: u64,
    /// Total flit-channel traversals (throughput metric).
    pub flit_moves: u64,
    /// Peak injection backlog observed (messages waiting at sources).
    pub peak_backlog: usize,
    /// Per-channel utilisation over the measurement window (fraction of
    /// cycles the channel moved a flit), indexed by `ChannelId`.
    pub channel_utilization: Vec<f64>,
    /// Engine-internal work counters (mechanics, not semantics — see
    /// [`EngineCounters`]).
    pub engine: EngineCounters,
    /// Windowed per-channel utilization time series; `None` unless the
    /// config's [`noc_telemetry::TelemetrySpec`] enabled it. Identical
    /// between engines (integer counts, compared by the equivalence
    /// suite).
    pub util: Option<UtilSeries>,
    /// Captured event trace; `None` unless tracing was enabled. Like
    /// [`EngineCounters`], the trace describes engine *mechanics*: the
    /// two engines legitimately record different event interleavings
    /// inside a cycle (and the event engine records a stall fixpoint's
    /// `Stall` once, not on every cycle it jumps over), so the
    /// equivalence suite excludes this field.
    pub trace: Option<TraceLog>,
    /// Closed-loop protocol statistics; `None` on open-loop runs.
    pub closed_loop: Option<ClosedLoopResults>,
}

impl SimResults {
    /// Largest link-channel utilisation (the bottleneck channel load).
    pub fn max_utilization(&self) -> f64 {
        self.channel_utilization.iter().copied().fold(0.0, f64::max)
    }

    /// All tagged traffic delivered?
    pub fn complete(&self) -> bool {
        self.unicast_delivered == self.unicast_injected
            && self.multicast_delivered == self.multicast_injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_from_accumulator() {
        let mut bm = BatchMeans::new(4);
        for x in [10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0] {
            bm.push(x);
        }
        let s = LatencyStats::from_batch_means(&bm);
        assert_eq!(s.count, 8);
        assert!((s.mean - 17.0).abs() < 1e-12);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 24.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = LatencyStats::from_batch_means(&BatchMeans::new(4));
        assert_eq!(s.count, 0);
        assert!(s.ci95.is_nan() && s.min.is_nan() && s.max.is_nan());
    }

    #[test]
    fn an_empty_population_has_no_mean() {
        let batched = LatencyStats::from_batch_means(&BatchMeans::new(4));
        let plain = LatencyStats::from_welford(&Welford::new());
        for s in [batched, plain] {
            assert_eq!(s.count, 0);
            assert!(s.mean.is_nan(), "an empty population read mean {}", s.mean);
        }
        // One sample is a mean, zero or not.
        let mut w = Welford::new();
        w.push(0.0);
        assert_eq!(LatencyStats::from_welford(&w).mean, 0.0);
    }
}
