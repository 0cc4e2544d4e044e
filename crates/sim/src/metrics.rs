//! Shared measurement state of a simulation run.
//!
//! Both engines record deliveries through this one accumulator, so the
//! statistics pipeline (batch means, histograms, per-source populations,
//! conservation counters) is common code and the differential tests
//! compare engine *dynamics*, not bookkeeping.
//!
//! The flight-recorder instruments live here too: the trace recorder and
//! the utilization time series are built from the config's
//! [`noc_telemetry::TelemetrySpec`] and fed through `#[inline]` taps.
//! When telemetry is off every tap reduces to one branch on a `None` —
//! the overhead policy; a leak would show in the benchmark ledger's
//! `sim.engine.ns_per_move.*` rows, which run with telemetry off.

use crate::config::SimConfig;
use crate::results::{EngineCounters, LatencyHists, LatencyStats, SimResults};
use noc_queueing::{BatchMeans, Welford};
use noc_telemetry::{TraceEvent, TraceEventKind, TraceRecorder, UtilSeries};
use noc_topology::NodeId;

/// Latency accumulators and conservation counters of one run.
#[derive(Debug)]
pub(crate) struct Metrics {
    unicast_lat: BatchMeans,
    multicast_lat: BatchMeans,
    multicast_by_source: Vec<Welford>,
    hists: LatencyHists,
    pub(crate) unicast_injected: u64,
    pub(crate) multicast_injected: u64,
    pub(crate) total_generated: u64,
    pub(crate) total_absorbed: u64,
    pub(crate) flit_moves: u64,
    pub(crate) channel_traversals: Vec<u64>,
    /// Event-trace recorder; `None` when tracing is off.
    tracer: Option<TraceRecorder>,
    /// Windowed utilization series; `None` when disabled.
    util: Option<UtilSeries>,
    /// Start of the measurement window (for utilization offsets: a flit
    /// moving at cycle `c` with `warmup < c <= measure_end` lands at
    /// offset `c - warmup - 1`).
    warmup: u64,
}

impl Metrics {
    /// `per_source` gates the per-node multicast latency populations:
    /// engines pass `false` for lazy (implicit-topology) plans, where a
    /// node-indexed accumulator vector is exactly the O(n) memory the
    /// implicit path exists to avoid at 64k+ nodes.
    pub(crate) fn new(cfg: &SimConfig, nodes: usize, channels: usize, per_source: bool) -> Self {
        let util = (cfg.telemetry.util_window > 0)
            .then(|| UtilSeries::new(cfg.telemetry.util_window, channels));
        Metrics {
            unicast_lat: BatchMeans::new(cfg.batch_size),
            multicast_lat: BatchMeans::new(cfg.batch_size),
            multicast_by_source: vec![Welford::new(); if per_source { nodes } else { 0 }],
            hists: LatencyHists::default(),
            unicast_injected: 0,
            multicast_injected: 0,
            total_generated: 0,
            total_absorbed: 0,
            flit_moves: 0,
            channel_traversals: vec![0; channels],
            tracer: TraceRecorder::for_mode(cfg.telemetry.trace),
            util,
            warmup: cfg.warmup_cycles,
        }
    }

    /// Re-origin the utilization offsets. Closed-loop runs measure from
    /// cycle 1 with no warmup window, so their drivers set the origin to
    /// zero at install time.
    pub(crate) fn set_measure_origin(&mut self, warmup: u64) {
        self.warmup = warmup;
    }

    /// One flit crossed `channel` at cycle `now`, inside (`measuring`) or
    /// outside the measurement window.
    #[inline]
    pub(crate) fn record_flit_move(&mut self, now: u64, channel: usize, measuring: bool) {
        self.flit_moves += 1;
        if measuring {
            self.channel_traversals[channel] += 1;
            if let Some(u) = &mut self.util {
                u.record(channel, now - self.warmup - 1);
            }
        }
    }

    /// `k` flits crossed `channel`, one per cycle on cycles
    /// `start + 1 ..= start + k`, all inside or all outside the
    /// measurement window (a coast's settlement).
    #[inline]
    pub(crate) fn record_flit_moves_bulk(
        &mut self,
        start: u64,
        channel: usize,
        k: u64,
        measuring: bool,
    ) {
        self.flit_moves += k;
        if measuring {
            self.channel_traversals[channel] += k;
            if let Some(u) = &mut self.util {
                // First move at cycle start+1 → offset start - warmup.
                u.record_range(channel, start - self.warmup, k);
            }
        }
    }

    /// A tagged unicast was absorbed at `now`.
    pub(crate) fn record_unicast_delivery(&mut self, now: u64, gen: u64) {
        self.unicast_lat.push((now - gen) as f64);
        self.hists.unicast.record(now - gen);
    }

    /// A tagged multicast operation of `src` completed: its last target
    /// absorbed the tail at `now`.
    pub(crate) fn record_op_delivery(&mut self, now: u64, gen: u64, src: NodeId) {
        let lat = (now - gen) as f64;
        self.multicast_lat.push(lat);
        if let Some(w) = self.multicast_by_source.get_mut(src.idx()) {
            w.push(lat);
        }
        self.hists.multicast.record(now - gen);
    }

    /// Is an event trace recorded?
    pub(crate) fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The trace tap: `kind` happened at cycle `at` on `loc` (a channel
    /// for `Grant`/`Release`, a node otherwise, `0` for `Stall`). One
    /// `None` branch when tracing is off.
    #[inline]
    pub(crate) fn trace(&mut self, kind: TraceEventKind, at: u64, loc: u32) {
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent { at, kind, loc });
        }
    }

    /// Assemble the run results (draining the trace recorder).
    ///
    /// `measured_cycles` must be the number of cycles actually spent
    /// inside the measurement window — a run that breaks out early (on
    /// saturation or a backlog overflow) measures fewer cycles than
    /// `cfg.measure_cycles`, and normalising by the configured window
    /// would understate channel utilisation exactly where it matters.
    pub(crate) fn finish(
        &mut self,
        saturated: bool,
        deadlocked: bool,
        cycles: u64,
        peak_backlog: usize,
        measured_cycles: u64,
        engine: EngineCounters,
    ) -> SimResults {
        let denom = measured_cycles.max(1) as f64;
        SimResults {
            unicast: LatencyStats::from_batch_means(&self.unicast_lat),
            multicast: LatencyStats::from_batch_means(&self.multicast_lat),
            multicast_by_source: self
                .multicast_by_source
                .iter()
                .map(LatencyStats::from_welford)
                .collect(),
            latency_hists: self.hists.clone(),
            unicast_injected: self.unicast_injected,
            unicast_delivered: self.unicast_lat.count(),
            multicast_injected: self.multicast_injected,
            multicast_delivered: self.multicast_lat.count(),
            total_generated: self.total_generated,
            total_absorbed: self.total_absorbed,
            saturated,
            deadlocked,
            cycles,
            flit_moves: self.flit_moves,
            peak_backlog,
            // Converted in place: no second channel-sized vector at the
            // peak of a 64 Ki-node run.
            channel_utilization: std::mem::take(&mut self.channel_traversals)
                .into_iter()
                .map(|t| t as f64 / denom)
                .collect(),
            engine,
            util: self.util.take(),
            trace: self.tracer.take().map(TraceRecorder::into_log),
            // The closed-loop driver stamps its summary after `finish`.
            closed_loop: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_telemetry::TelemetrySpec;

    #[test]
    fn disabled_telemetry_records_nothing_extra() {
        let cfg = SimConfig::quick(1);
        let mut m = Metrics::new(&cfg, 2, 4, true);
        m.record_flit_move(cfg.warmup_cycles + 1, 0, true);
        m.trace(TraceEventKind::Grant, 5, 1);
        m.trace(TraceEventKind::Stall, 6, 0);
        let res = m.finish(false, false, 100, 0, 10, EngineCounters::default());
        assert!(res.trace.is_none());
        assert!(res.util.is_none());
        assert_eq!(res.flit_moves, 1);
    }

    #[test]
    fn enabled_telemetry_surfaces_trace_and_util() {
        let mut cfg = SimConfig::quick(1);
        cfg.telemetry = TelemetrySpec::flight_recorder(16, 8);
        let w = cfg.warmup_cycles;
        let mut m = Metrics::new(&cfg, 2, 4, true);
        m.record_flit_move(w + 1, 0, true);
        m.record_flit_moves_bulk(w + 1, 1, 10, true); // cycles w+2..=w+11
        m.trace(TraceEventKind::Grant, w + 1, 3);
        m.trace(TraceEventKind::Release, w + 4, 3);
        let res = m.finish(false, false, 100, 0, 11, EngineCounters::default());
        let trace = res.trace.expect("trace captured");
        assert_eq!(trace.events.len(), 2);
        let util = res.util.expect("series captured");
        assert_eq!(util.counts[0][0], 1, "offset 0 → window 0");
        // Bulk offsets 1..11 split 7 into window 0, 3 into window 1.
        assert_eq!(util.counts[0][1], 7);
        assert_eq!(util.counts[1][1], 3);
        assert_eq!(res.flit_moves, 11);
    }

    #[test]
    fn quantiles_reach_the_summaries() {
        let cfg = SimConfig::quick(1);
        let mut m = Metrics::new(&cfg, 1, 1, true);
        for lat in [10u64, 20, 30, 40] {
            m.record_unicast_delivery(100 + lat, 100);
        }
        let res = m.finish(false, false, 100, 0, 10, EngineCounters::default());
        assert_eq!(res.latency_hists.unicast.p50(), 20.0, "exact below 64");
        assert_eq!(res.latency_hists.unicast.p99(), 40.0);
        assert_eq!(res.latency_hists.unicast.count(), 4);
    }
}
