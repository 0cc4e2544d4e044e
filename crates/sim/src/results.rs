//! Simulation output.

use noc_queueing::{BatchMeans, Welford};
use noc_telemetry::{LogHistogram, TraceLog, UtilSeries};
use serde::{Deserialize, Serialize};

/// Summary of a latency population.
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
    /// Median estimate from the population's [`LogHistogram`] (`NaN`
    /// when empty or when no histogram backs the population — which is
    /// what a summary persisted before the telemetry subsystem, without
    /// the quantile keys, reads back as).
    #[serde(default = "nan")]
    pub p50: f64,
    /// 95th-percentile estimate (`NaN` as for `p50`).
    #[serde(default = "nan")]
    pub p95: f64,
    /// 99th-percentile estimate (`NaN` as for `p50`).
    #[serde(default = "nan")]
    pub p99: f64,
}

fn nan() -> f64 {
    f64::NAN
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

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            mean: f64::NAN,
            ci95: 0.0,
            count: 0,
            min: 0.0,
            max: 0.0,
            p50: f64::NAN,
            p95: f64::NAN,
            p99: f64::NAN,
        }
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
            p50: f64::NAN,
            p95: f64::NAN,
            p99: f64::NAN,
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
            p50: f64::NAN,
            p95: f64::NAN,
            p99: f64::NAN,
        }
    }

    /// These stats with P50/P95/P99 stamped from the population's
    /// streaming histogram (builder style).
    pub fn with_quantiles(mut self, h: &LogHistogram) -> Self {
        self.p50 = h.p50();
        self.p95 = h.p95();
        self.p99 = h.p99();
        self
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
    /// Per-stream latencies (diagnostic).
    pub stream: LogHistogram,
}

/// Engine-internal work counters: how the run's wall-clock was actually
/// spent, surfaced so engine performance fixes are measurable from the
/// outside (the benchmark ledger reads these, not just timings).
///
/// The counters describe *engine mechanics*, not simulation semantics:
/// two bit-identical runs may legitimately differ here (the cycle engine
/// reports only `simulated_cycles`), so the differential equivalence
/// suite deliberately excludes this field from its comparisons.
///
/// Only `simulated_cycles` is as old as the struct; a result persisted
/// before one of the other counters existed reads it as zero — a run that
/// predates a mechanism used it zero times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineCounters {
    /// Cycles the engine actually executed through its per-cycle
    /// machinery (the cycle engine: every cycle; the event engine: the
    /// non-skipped remainder — `cycles / simulated_cycles` is its
    /// compression ratio).
    pub simulated_cycles: u64,
    /// Arrival events popped off the event queue (event engine only).
    #[serde(default)]
    pub events_popped: u64,
    /// Streaming spans applied in bulk (event engine only).
    #[serde(default)]
    pub spans_batched: u64,
    /// Cycles fast-forwarded inside those spans (event engine only).
    #[serde(default)]
    pub span_cycles: u64,
    /// Cycles proven to be stalled fixpoints and skipped from (event
    /// engine only).
    #[serde(default)]
    pub stall_fixpoints: u64,
    /// Streaming-span eligibility scans that found no batchable span —
    /// pure overhead, the hot-load pathology this counter exists to
    /// watch (event engine only).
    #[serde(default)]
    pub span_scans_failed: u64,
    /// Arrivals whose whole transit was applied in closed form, one
    /// unicast or one multicast operation each (event engine only).
    #[serde(default)]
    pub flights: u64,
    /// Cycles those flights covered, arrival to last absorption
    /// inclusive (event engine only).
    #[serde(default)]
    pub flight_cycles: u64,
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
    /// Per-request completion latency (issue → retire), in cycles —
    /// quantiles stamped from `completion_hist`.
    pub completion: LatencyStats,
    /// Streaming histogram behind `completion`, kept whole so replicate
    /// tails merge exactly. Empty when read from a result persisted
    /// before the telemetry subsystem, which has none.
    #[serde(default)]
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
    /// Unicast message latency (generation → last flit absorbed), with
    /// quantiles from `latency_hists.unicast`.
    pub unicast: LatencyStats,
    /// Multicast operation latency (generation → last flit absorbed at the
    /// last destination over all streams) — the paper's multicast latency.
    pub multicast: LatencyStats,
    /// Per-source multicast latency (indexed by node), validating the
    /// model's per-node predictions (Eq. 14), not just the average.
    pub multicast_by_source: Vec<LatencyStats>,
    /// Per-stream latency (generation → last flit absorbed at the stream's
    /// own final target); diagnostic, not a paper metric.
    pub stream: LatencyStats,
    /// Streaming log-bucketed histograms behind the latency summaries
    /// above — the mergeable source of the P50/P95/P99 columns.
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
    /// inside a cycle (and the event engine elides events in skipped
    /// spans), so the equivalence suite excludes this field.
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
        assert!(s.p99.is_nan(), "no histogram stamped, no quantiles");
    }

    #[test]
    fn an_empty_population_has_no_mean() {
        let batched = LatencyStats::from_batch_means(&BatchMeans::new(4));
        let plain = LatencyStats::from_welford(&Welford::new());
        for s in [batched, plain, LatencyStats::default()] {
            assert_eq!(s.count, 0);
            assert!(s.mean.is_nan(), "an empty population read mean {}", s.mean);
        }
        // One sample is a mean, zero or not.
        let mut w = Welford::new();
        w.push(0.0);
        assert_eq!(LatencyStats::from_welford(&w).mean, 0.0);
    }

    #[test]
    fn quantiles_stamp_from_histogram() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = LatencyStats::default().with_quantiles(&h);
        assert_eq!(s.p50, 50.0, "values < 64 are bucketed exactly");
        assert!(s.p95 >= 95.0 && s.p95 <= 98.0);
        assert!(s.p99 >= 99.0 && s.p99 <= 100.0);
    }

    #[test]
    fn pre_telemetry_latency_stats_parse_with_nan_quantiles() {
        let legacy = r#"{"mean":12.5,"ci95":0.5,"count":10,"min":8,"max":20}"#;
        let s: LatencyStats = serde::json::from_str(legacy).unwrap();
        assert_eq!(s.mean, 12.5);
        assert_eq!(s.count, 10);
        assert!(s.p50.is_nan() && s.p95.is_nan() && s.p99.is_nan());
    }

    #[test]
    fn pre_telemetry_closed_loop_results_parse_with_empty_hist() {
        let legacy = r#"{
            "requests_issued": 4, "requests_retired": 4,
            "completion": {"mean":10.0,"ci95":1.0,"count":4,"min":5,"max":15},
            "avg_outstanding": 1.5, "ops_per_cycle": 0.01,
            "quiesced": true, "quiesce_cycle": 400
        }"#;
        let r: ClosedLoopResults = serde::json::from_str(legacy).unwrap();
        assert_eq!(r.requests_retired, 4);
        assert_eq!(r.completion_hist, LogHistogram::new());
    }

    #[test]
    fn results_persisted_with_the_fixed_width_histogram_still_parse() {
        // The shape of a cache entry written while `SimResults` still
        // carried the fixed-width `multicast_hist`: the extra key is
        // ignored, every surviving field reads back.
        let stats = r#"{"mean":20.5,"ci95":0.5,"count":2,"min":18.0,"max":23.0,
            "p50":18.0,"p95":23.0,"p99":23.0}"#;
        let hist = r#"{"counts":[0,1,1],"count":2,"sum":3,"min":1,"max":2}"#;
        let legacy = format!(
            r#"{{
            "unicast": {stats}, "multicast": {stats},
            "multicast_by_source": [{stats}],
            "multicast_hist": {{"bin_width": 4.0, "bins": [0, 0, 0, 0, 1, 1],
                                "overflow": 0, "count": 2}},
            "stream": {stats},
            "latency_hists": {{"unicast": {hist}, "multicast": {hist}, "stream": {hist}}},
            "unicast_injected": 2, "unicast_delivered": 2,
            "multicast_injected": 2, "multicast_delivered": 2,
            "total_generated": 9, "total_absorbed": 9,
            "saturated": false, "deadlocked": false,
            "cycles": 1200, "flit_moves": 340, "peak_backlog": 1,
            "channel_utilization": [0.25, 0.0],
            "engine": {{"simulated_cycles": 90, "events_popped": 12, "spans_batched": 3,
                        "span_cycles": 40, "stall_fixpoints": 5, "span_scans_failed": 1}},
            "util": null, "trace": null, "closed_loop": null
        }}"#
        );
        let r: SimResults = serde::json::from_str(&legacy).expect("pre-removal entry parses");
        assert_eq!(r.multicast.mean, 20.5);
        assert_eq!(r.latency_hists.multicast.count(), 2);
        assert_eq!((r.cycles, r.flit_moves), (1200, 340));
        assert_eq!(r.engine.events_popped, 12);
        assert_eq!(
            (r.engine.flights, r.engine.flight_cycles),
            (0, 0),
            "counters the entry predates read zero"
        );
        assert!(r.complete() && !r.deadlocked);
    }
}
