//! The cycle-stepped time-advance policy — the reference oracle.
//!
//! [`EveryCycle`] drives the shared kernel (`fabric.rs`, which documents
//! the four phases of a cycle) under the simplest possible policy:
//! simulate *every* cycle, active or idle, and find the nodes that fire
//! by polling all of them. That makes it slow at low load and trivially
//! correct — exactly what a differential oracle should be. It
//! deliberately stays off the [`EventQueue`](crate::schedule::EventQueue), so
//! the queue's ordering is checked against this plain node-order scan
//! rather than against itself. An [`Engine`](crate::Engine) runs it when
//! its config says [`EngineKind::Cycle`](crate::EngineKind::Cycle); the
//! default, [`SkipAhead`](crate::event_engine::SkipAhead), reproduces its
//! runs bit-for-bit while skipping inert cycles.

use crate::fabric::{Fabric, TimeAdvance};
use crate::results::{EngineCounters, SimResults};

/// The oracle's time-advance policy: every cycle is simulated, and the
/// nodes due on it are found by polling each node's next firing time in
/// node order — the deterministic spawn order both engines share.
#[derive(Default)]
pub(crate) struct EveryCycle {
    /// Next node to poll within the current cycle's scan.
    cursor: usize,
    /// No node fires before this cycle: the earliest firing time the last
    /// scan saw, lowered by every [`TimeAdvance::schedule`] since. A cycle
    /// below it is not scanned.
    earliest: u64,
}

impl TimeAdvance for EveryCycle {
    fn next_due(&mut self, fabric: &Fabric<'_>) -> Option<u32> {
        if self.cursor == 0 {
            if fabric.cycle < self.earliest {
                return None;
            }
            self.earliest = u64::MAX;
        }
        while self.cursor < fabric.plan.n {
            let node = self.cursor;
            self.cursor += 1;
            let at = fabric.fires_at(node);
            if at == fabric.cycle {
                return Some(node as u32);
            }
            self.earliest = self.earliest.min(at);
        }
        self.cursor = 0;
        None
    }

    /// Lower the bound: a node due before it must not be skipped.
    fn schedule(&mut self, at: u64, _node: u32) {
        self.earliest = self.earliest.min(at);
    }
}

impl EveryCycle {
    /// Step every cycle from [`Fabric::start`] to [`Fabric::run_end`].
    pub(crate) fn run(&mut self, fabric: &mut Fabric<'_>) -> SimResults {
        let end = match fabric.start(self) {
            Some(end) => end,
            None => loop {
                fabric.step(fabric.cycle + 1, self);
                if let Some(end) = fabric.run_end() {
                    break end;
                }
            },
        };
        let counters = EngineCounters {
            simulated_cycles: fabric.cycle,
            ..Default::default()
        };
        fabric.finish(end, counters)
    }
}

#[cfg(test)]
mod tests {
    use crate::fabric::behaviour;
    use crate::{build_engine_with_plan, Engine, EngineKind, SimConfig, SimPlan};
    use noc_topology::Quarc;
    use noc_workloads::{DestinationSets, TraceEntry, TraceKind, TrafficSpec, Workload};
    use std::sync::Arc;

    /// The quick config, naming the oracle.
    fn oracle(seed: u64) -> SimConfig {
        SimConfig::quick(seed).with_engine(EngineKind::Cycle)
    }

    #[test]
    fn zero_load_unicast_latency_is_exact_in_a_run() {
        behaviour::zero_load_latency_is_exact_in_a_run(EngineKind::Cycle);
    }

    #[test]
    #[should_panic(expected = "Engine::run called a second time")]
    fn a_second_run_is_refused() {
        behaviour::a_second_run_is_refused(EngineKind::Cycle);
    }

    #[test]
    fn conservation_all_generated_messages_absorb() {
        behaviour::low_load_run_completes_and_audits_clean(EngineKind::Cycle);
    }

    #[test]
    fn deterministic_under_same_seed() {
        behaviour::deterministic_under_same_seed(EngineKind::Cycle);
    }

    #[test]
    fn saturation_is_detected_at_absurd_load() {
        behaviour::saturation_is_detected_at_absurd_load(EngineKind::Cycle);
    }

    #[test]
    fn zero_load_broadcast_latency_matches_longest_stream() {
        let topo = Quarc::new(16).unwrap();
        let arrival = TraceEntry {
            cycle: 5_000,
            node: 0,
            kind: TraceKind::Multicast,
        };
        let wl = Workload::new(32, 0.0, 0.0, DestinationSets::broadcast(&topo))
            .unwrap()
            .with_traffic(TrafficSpec::trace(vec![arrival]));
        let res = Engine::new(&topo, &wl, oracle(1)).run();
        // All four broadcast streams traverse k = 4 links; the slowest
        // completes at msg + (k + 1) cycles.
        assert_eq!(
            (res.multicast.count, res.multicast.max),
            (1, 32.0 + 4.0 + 1.0)
        );
    }

    #[test]
    fn latencies_grow_with_load() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 3);
        let mut means = Vec::new();
        for rate in [0.002, 0.02] {
            let wl = Workload::new(16, rate, 0.05, sets.clone()).unwrap();
            let mut sim = Engine::new(&topo, &wl, oracle(11));
            let res = sim.run();
            assert!(res.unicast.count > 50, "need samples at rate {rate}");
            means.push(res.unicast.mean);
        }
        assert!(
            means[1] > means[0],
            "unicast latency must rise with load: {means:?}"
        );
    }

    #[test]
    fn early_break_normalises_utilization_by_actual_measured_cycles() {
        // Force an early backlog break well inside the measurement window
        // and check the utilisation denominator is the cycles actually
        // measured, not the configured window. With the configured-window
        // denominator the busiest channel of a saturated 8-node Quarc
        // would read far below its true (≈1) utilisation.
        let topo = Quarc::new(8).unwrap();
        let sets = DestinationSets::random(&topo, 2, 3);
        let wl = Workload::new(64, 0.9, 0.5, sets).unwrap();
        let mut cfg = oracle(13);
        cfg.warmup_cycles = 100;
        cfg.measure_cycles = 1_000_000; // never reached
        cfg.backlog_limit = 2_000;
        let mut sim = Engine::new(&topo, &wl, cfg);
        let res = sim.run();
        assert!(res.saturated);
        assert!(
            res.cycles < cfg.warmup_cycles + cfg.measure_cycles,
            "the run must have broken out early"
        );
        let measured = res.cycles - cfg.warmup_cycles;
        // The busiest channel moves a flit nearly every measured cycle at
        // this load; the old `measure_cycles` denominator would report
        // measured / 1_000_000 ≪ 0.5.
        assert!(
            res.max_utilization() > 0.5,
            "bottleneck utilisation {} should be ~1 over the {} measured cycles",
            res.max_utilization(),
            measured
        );
        assert!(
            res.max_utilization() <= 1.0 + 1e-12,
            "utilisation cannot exceed one flit per cycle"
        );
    }

    #[test]
    fn shared_plan_reproduces_fresh_construction() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 5);
        let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
        let plan = SimPlan::build(&topo, &wl).expect("plan builds");
        let a = Engine::new(&topo, &wl, oracle(5)).run();
        let b = build_engine_with_plan(&topo, &wl, oracle(5), Arc::clone(&plan)).run();
        let c = build_engine_with_plan(&topo, &wl, oracle(5), plan).run();
        assert_eq!(a.flit_moves, b.flit_moves);
        assert_eq!(a.unicast.mean, b.unicast.mean);
        assert_eq!(b.flit_moves, c.flit_moves, "plans are reusable");
    }
}
