//! The event-driven time-advance policy — the default.
//!
//! [`SkipAhead`] drives the shared kernel (`fabric.rs`) so that an
//! [`Engine`](crate::Engine) whose config says
//! [`EngineKind::EventDriven`](crate::EngineKind::EventDriven) only
//! *simulates* cycles on which the network state can change, and jumps
//! over the rest. Runs are bit-identical to the cycle-stepped reference
//! ([`EveryCycle`](crate::engine::EveryCycle)) under the same
//! seed — same arrivals, same arbitration outcomes, same statistics in
//! the same order — which the differential suite
//! (`tests/engine_equivalence.rs`) enforces. The kernel being common
//! code, what that suite checks is everything in this file.
//!
//! ## Which cycles can be skipped?
//!
//! A cycle need not be simulated when its outcome is known without it.
//! Three situations guarantee that, and a fourth lets a message sit out
//! the cycles that are simulated:
//!
//! * **Idle** — no cv is owned (`Fabric::holds` is false). Then no flit
//!   can move, no waiter exists (a waiter on a free cv would have been
//!   granted when it enqueued), and only a new arrival changes anything.
//! * **Stalled** — the last simulated cycle selected no moves and granted
//!   no new owners. Selection judges supply/capacity purely on the flit
//!   counters, which only moves mutate, and round-robin pointers only
//!   advance on a chosen move; so if nothing moved and nothing was
//!   granted, the next cycle's selection reaches the identical verdict.
//!   The state is a fixpoint until the next arrival.
//! * **In flight** — the fabric holds no message and the next event is
//!   an arrival. It opens a *group*: every arrival due before the
//!   group's running end joins, in `(cycle, node)` order. When no two
//!   members hold one physical channel over overlapping cycles nothing
//!   contends, so an `L`-flit message generated at `c` moves across hop
//!   `h` on cycles `c + h + 1 ..= c + h + L` and nothing else happens:
//!   the zero-load term of the paper's latency equations, applied rather
//!   than simulated, for the whole group at once. A group starts and
//!   ends on an empty fabric: it must end strictly before the next event
//!   outside it. `Fabric::admit` and `Fabric::fly_group` list when a
//!   group is declined; its arrivals are then held, and stepped at their
//!   own cycles like any other. Telemetry, closed loops and single-flit
//!   buffers decline them all.
//! * **Coasting** — a message moves a flit across each hop it holds on
//!   every cycle, alone on each of its channels, until its window ends or
//!   something beside it changes: a header that claimed the free cvs
//!   ahead of it crosses them one hop a cycle, and once it has landed its
//!   body streams or drains. It sits out selection and application and is
//!   settled in closed form; `Fabric::start_coasts` states when a message
//!   coasts, what ends its window, what settling it writes, and how a
//!   request for a claimed cv on the cycle of its grant queues.
//!   It touches only its own counters, bits and claimed cvs, so a cycle
//!   with no explicit move, grant or settlement is still a stall fixpoint
//!   for the rest of the fabric, and a jump stops at the earliest window
//!   end, which is stepped. A coast moves on every cycle a jump passes
//!   over, so the jump sets the watchdog's last-move anchor to the cycle
//!   before its target.
//!
//! Idle and stalled cycles are *inert*: the engine advances straight to
//! the earliest of the next scheduled arrival or protocol timer (from the
//! [`EventQueue`]), the end of the measurement window (where the run may
//! terminate), the drain deadline, and — when channels are still held —
//! the next deadlock watchdog tick. Each of those is exactly a cycle
//! where the kernel's end-of-run check could newly fire or the state
//! could change, so the observable trajectory (break cycle, flags, every
//! counter) is preserved.
//!
//! A flight's cycles are not inert, so it writes what they would have.
//! Each write equals the oracle's:
//!
//! * every arrival is drawn from its node's stream and the successor
//!   queued exactly as the generation phase does it (same RNG draws), so
//!   a declined group's held arrivals are the ones the oracle spawns;
//! * `flit_moves` and the per-channel traversal counts grow by `L` per
//!   hop — integer sums, so their order is free — under the one
//!   `measuring` verdict all of a member's move cycles share;
//! * every channel's round-robin pointer sits just past the vc of its
//!   last user's hop, where the last of its `L` picks left it;
//! * the deliveries in end-cycle order: a latency per unicast and per
//!   operation at its last absorption, same-cycle samples of one
//!   population in the channel order their delivering moves apply in;
//! * generated, absorbed, injected and delivered counts; the peak backlog
//!   (a cycle's messages wait beside the previous cycle's);
//! * `cycle` and the watchdog's last-move anchor stand at the group's
//!   end, and the channel set is empty: the oracle's still names the
//!   released channels, which its next selection sweeps before anything
//!   reads them.
//!
//! Together the mechanisms collapse the cost from O(cycles) to
//! O(structural events): injections, header hand-offs, grants and tail
//! releases under contention, one closed form per group without, and one
//! per header crossing a free route or streaming or draining body beside
//! contention. That is the lever the Fig. 6/7 sweeps need at low load
//! (`sim.cycle.event_over_cycle.low` on the benchmark ledger: 0.023 since
//! the oracle skips its node scan on cycles no node fires, 0.0096 before,
//! 0.12 before flights), with the cycle engine retained as the oracle.
//!
//! *What coasting is worth* (benchmark workloads, `--seed 42`,
//! alternating 4 s pairs on one 2-vCPU x86-64 host, equal-length
//! checkouts). Bodies that stream coast: `fig6-sweep` `wall_s` −26 % and
//! `cache-io` −28 %. Drains that coast too, with the channel-ordered set
//! and coasting channels off it: `fig6-sweep` 0.338 → 0.261 s (10/10
//! pairs; −19 % at `--seed 7`, 9/10), `cache-io` −18 % (6/6),
//! `scale-64k` −22 % (7/10); `sat-kernel`, `lowload-skip` and
//! `model-only` within their spread. Coasts then settle 69 % of
//! `fig6-sweep`'s flit moves, 47 % of `cache-io`'s, 34 % of
//! `sat-kernel`'s, 2 % of `lowload-skip`'s (flights carry it) and 42 % of
//! `scale-64k`'s, whose 8-flit messages drain alone. Traced `fig6-sweep`
//! passes read `sim.engine.ns_per_move.knee` 30.5 → 22.2 ns and
//! `share.engine_run` 0.831 → 0.771 (medians of three).
//!
//! *What claiming headers are worth* (same method): `scale-64k` 1.057 →
//! 0.665 s (10/10 pairs; seed 7 0.964 → 0.724 s, 10/10), its stepped
//! flit moves 4.84M → 0.86M of 8.42M per repetition, traced
//! `sim.engine.ns_per_move.n64k` 132 → 80 ns; `fig6-sweep` −17 % (5/5),
//! `cache-io` −17 % (7/8), `lowload-skip` −36 % (5/5), `sat-kernel` −5 %
//! (7/10), `model-only` within its spread. Claims settle 47 % of
//! `scale-64k`'s moves and bodies 42 %; 92 % on its min-16x3 gate case.

use crate::fabric::{Fabric, TimeAdvance, WATCHDOG_STRIDE, WATCHDOG_WINDOW};
use crate::results::{EngineCounters, SimResults};
use crate::schedule::EventQueue;
use noc_topology::NodeId;

/// The event engine's time-advance policy: a priority queue of firing
/// times, the stall-fixpoint flag and flight groups.
pub(crate) struct SkipAhead {
    /// Queue of `(next firing cycle, node)` — arrivals on
    /// open-loop runs, protocol timers on closed-loop ones (whose
    /// workloads are zero-rate, so the two never mix). Same-cycle entries
    /// pop in node order, matching the oracle's polling scan.
    queue: EventQueue,
    /// The last simulated cycle moved no flit, granted no owner and
    /// settled no coast: the state is a fixpoint until the next arrival
    /// or the end of a coast (see module docs).
    stalled: bool,
    /// Engine-internal work counters (events popped, fixpoints, flights),
    /// surfaced through
    /// [`SimResults::engine`](crate::results::SimResults::engine).
    counters: EngineCounters,
}

impl TimeAdvance for SkipAhead {
    fn next_due(&mut self, fabric: &Fabric<'_>) -> Option<u32> {
        let node = self.queue.pop_due(fabric.cycle)?;
        self.counters.events_popped += 1;
        debug_assert_eq!(fabric.fires_at(node as usize), fabric.cycle);
        Some(node)
    }

    fn schedule(&mut self, at: u64, node: u32) {
        self.queue.push(at, node);
    }
}

impl SkipAhead {
    /// A policy for a freshly built fabric (cycle 0, arrivals primed).
    pub(crate) fn new(fabric: &Fabric<'_>) -> Self {
        let plan = &fabric.plan;
        let mut queue = EventQueue::with_capacity(plan.n);
        for node in 0..plan.n {
            let at = fabric.fires_at(node);
            if at != u64::MAX {
                queue.push(at, node as u32);
            }
        }
        SkipAhead {
            queue,
            stalled: false,
            counters: EngineCounters::default(),
        }
    }

    /// The oracle's trajectory, evaluated only on cycles of interest.
    pub(crate) fn run(&mut self, fabric: &mut Fabric<'_>) -> SimResults {
        let end = match fabric.start(self) {
            Some(end) => end,
            None => {
                let may_fly = fabric.flights_possible();
                loop {
                    let target = self.next_cycle_of_interest(fabric);
                    if target > fabric.cycle + 1 && !fabric.coasts.is_empty() {
                        // The coasts moved on every cycle jumped over.
                        fabric.last_move_cycle = target - 1;
                    }
                    if may_fly
                        && fabric.msgs.is_empty()
                        && fabric.held.is_empty()
                        && self.queue.peek_time() == Some(target)
                        && self.fly_group(fabric, target)
                    {
                        // No end-of-run check can fire on a cycle a
                        // flight covers (`Fabric::admit`).
                        debug_assert!(fabric.run_end().is_none());
                        continue;
                    }
                    self.simulate_cycle(fabric, target);
                    if let Some(end) = fabric.run_end() {
                        break end;
                    }
                }
            }
        };
        fabric.finish(end, self.counters)
    }

    /// Simulate exactly cycle `target` (every cycle strictly between the
    /// current one and `target` is inert by construction — see the module
    /// docs) and update the stall detector.
    fn simulate_cycle(&mut self, fabric: &mut Fabric<'_>, target: u64) {
        self.counters.simulated_cycles += 1;
        let out = fabric.step(target, self);
        self.stalled = !out.moved && out.granted == 0 && !out.settled;
        if self.stalled {
            self.counters.stall_fixpoints += 1;
        }
    }

    /// The fabric is empty, nothing is held, and the earliest queued
    /// event — an arrival — is due at `c0`, the cycle about to be
    /// simulated. Gather the group that flies with it: every arrival due
    /// before the group's running end, popped in `(cycle, node)` order and
    /// drawn exactly as the generation phase would draw it (same RNG
    /// draws, successor queued — streams are per node), each offered to
    /// [`Fabric::admit`]. Then [`Fabric::fly_group`] applies them, with
    /// the next queued event as the horizon. `true`: they flew, and the
    /// fabric stands at the group's end. Otherwise every arrival drawn is
    /// held, and the ordinary steps spawn each at its own cycle.
    fn fly_group(&mut self, fabric: &mut Fabric<'_>, c0: u64) -> bool {
        fabric.begin_group(c0);
        let mut due = Some(c0);
        while let Some(at) = due {
            let node = self.queue.pop_due(at).expect("a peeked event is due");
            self.counters.events_popped += 1;
            let (arrival, next) = fabric.pop_arrival(NodeId(node));
            if next != u64::MAX {
                self.queue.push(next, node);
            }
            if !fabric.admit(at, NodeId(node), arrival) {
                return false;
            }
            due = self.queue.peek_time().filter(|&t| t < fabric.group_end());
        }
        let before = self.queue.peek_time().unwrap_or(u64::MAX);
        let Some((arrivals, cycles)) = fabric.fly_group(before) else {
            return false;
        };
        self.counters.flights += arrivals;
        self.counters.flight_cycles += cycles;
        true
    }

    /// The next cycle on which anything can happen or the run could newly
    /// end. When the network can make progress that is simply the next
    /// cycle; when it is idle or stalled, jump to the earliest external
    /// event.
    fn next_cycle_of_interest(&self, fabric: &Fabric<'_>) -> u64 {
        let next = fabric.cycle + 1;
        let held = fabric.holds();
        if held && !self.stalled {
            return next;
        }
        let mut t = self.next_event(fabric);
        if fabric.tagged_outstanding == 0 && !fabric.is_closed() {
            // The run may end at the measurement boundary.
            t = t.min(fabric.cfg.measure_end());
        }
        t = t.min(fabric.cfg.deadline());
        if held {
            // Channels are held but nothing moves: the deadlock watchdog
            // must fire on the same cycle the oracle fires on. Coasts
            // move, and the last cycle of each is stepped.
            t = t.min(Self::next_watchdog_cycle(fabric));
            t = t.min(fabric.next_coast_end());
        }
        t.max(next)
    }

    /// The cycle of the next arrival or protocol timer: queued, or held
    /// from a declined group (`u64::MAX`: none).
    fn next_event(&self, fabric: &Fabric<'_>) -> u64 {
        let queued = self.queue.peek_time().unwrap_or(u64::MAX);
        fabric
            .held
            .front()
            .map_or(queued, |&(at, ..)| at.min(queued))
    }

    /// First stride-aligned cycle at which the watchdog condition
    /// `cycle − last_move > window` holds.
    fn next_watchdog_cycle(fabric: &Fabric<'_>) -> u64 {
        fabric
            .last_move_cycle
            .saturating_add(WATCHDOG_WINDOW + 1)
            .max(fabric.cycle + 1)
            .next_multiple_of(WATCHDOG_STRIDE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::behaviour;
    use crate::{Engine, EngineKind, SimConfig};
    use noc_topology::Quarc;
    use noc_workloads::{DestinationSets, Workload};

    #[test]
    fn zero_load_latency_is_exact_in_a_run() {
        behaviour::zero_load_latency_is_exact_in_a_run(EngineKind::EventDriven);
    }

    #[test]
    #[should_panic(expected = "Engine::run called a second time")]
    fn a_second_run_is_refused() {
        behaviour::a_second_run_is_refused(EngineKind::EventDriven);
    }

    #[test]
    fn low_load_run_completes_and_audits_clean() {
        behaviour::low_load_run_completes_and_audits_clean(EngineKind::EventDriven);
    }

    #[test]
    fn deterministic_under_same_seed() {
        behaviour::deterministic_under_same_seed(EngineKind::EventDriven);
    }

    #[test]
    fn saturation_detected_like_the_reference() {
        behaviour::saturation_is_detected_at_absurd_load(EngineKind::EventDriven);
    }

    #[test]
    fn low_load_runs_skip_most_cycles() {
        // The engine's raison d'être: at low load, the vast majority of
        // cycles are idle gaps, flights or coasts and must not be
        // simulated one by one. This run steps 141 of 18 019 cycles
        // (128×) and flies 131 of its 144 arrivals; one arrival per
        // flight stepped 879 (20.5×, 76 flown), no flights 3 463 (5.2×).
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 3);
        let wl = Workload::new(32, 0.0005, 0.05, sets).unwrap();
        let cfg = SimConfig::quick(7).with_engine(EngineKind::EventDriven);
        let res = Engine::new(&topo, &wl, cfg).run();
        assert!(!res.saturated);
        let stepped = res.engine.simulated_cycles;
        let ratio = res.cycles as f64 / stepped as f64;
        assert!(res.engine.flights > 0, "no arrival flew");
        assert!(
            ratio > 100.0,
            "expected >100x cycle compression at low load, got {ratio:.1} \
             ({stepped} simulated of {})",
            res.cycles
        );
    }

    #[test]
    fn quarc_128_at_low_load_flies_nearly_every_arrival() {
        // `lowload-skip`'s quarc-128 case (rate 2e-5, 32 flits, 5 %
        // multicast to 32 targets, seed 42) with its window cut to 1/20:
        // 2 409 of 2 501 arrivals fly and 3 581 of 1 005 000 cycles are
        // stepped. The rest meet another message on a channel over
        // overlapping cycles, or share a group with one that does.
        let topo = Quarc::new(128).unwrap();
        let sets = DestinationSets::random(&topo, 32, 42);
        let wl = Workload::new(32, 2e-5, 0.05, sets).unwrap();
        let cfg = SimConfig {
            warmup_cycles: 5_000,
            measure_cycles: 1_000_000,
            drain_cycles: 5_000,
            ..SimConfig::quick(42)
        };
        let res = Engine::new(&topo, &wl, cfg).run();
        let (flights, events) = (res.engine.flights, res.engine.events_popped);
        assert!(
            flights as f64 >= 0.95 * events as f64,
            "{flights} of {events} arrivals flew"
        );
    }

    #[test]
    fn watchdog_schedule_is_stride_aligned_and_past_the_window() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(16, 0.0, 0.0, sets).unwrap();
        let sim = Engine::new(&topo, &wl, SimConfig::quick(1));
        let c = SkipAhead::next_watchdog_cycle(&sim.fabric);
        assert_eq!(c % WATCHDOG_STRIDE, 0);
        assert!(c > sim.fabric.last_move_cycle + WATCHDOG_WINDOW);
    }
}
