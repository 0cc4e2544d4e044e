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
//! * **Idle** — no cv is owned (`active` is empty). Then no flit can
//!   move, no waiter exists (a waiter on a free cv would have been
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
//! * **Coasting** — a message whose header has crossed its last hop, and
//!   each of whose hops is the one ready cv of its physical channel with
//!   no other coast there, moves a flit across every hop on every cycle
//!   until something beside it changes: each hop is picked alone, every
//!   counter grows by one, and every supply and credit verdict — a
//!   difference of neighbouring counters — reads as before. It leaves
//!   selection and application (ready bits clear, coast bits set), keeps
//!   its cvs and its channels' places on the active list, and is
//!   *settled* in one step: on the last cycle of its window (a cycle
//!   short of its tail crossing hop 0, and of the next warmup,
//!   measurement or deadline boundary), at the end of any cycle in which
//!   a grant or a refresh made another cv on one of its channels ready,
//!   or when the run ends (`Fabric::start_coasts`, `Fabric::settle`). A
//!   landed message is checked at the end of every cycle until it coasts
//!   or its tail nears hop 0, settled ones again. Every event-engine run
//!   coasts, telemetry and closed loops included; the oracle and the
//!   scripted `step_one` never do.
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
//!   operation at its last absorption. Each population is its own
//!   accumulator, and two samples of one population on one cycle are
//!   equal (else the group is declined), so their order is free;
//! * generated, absorbed, injected and delivered counts; the peak backlog
//!   (a cycle's messages wait beside the previous cycle's);
//! * `cycle` and the watchdog's last-move anchor stand at the group's
//!   end, and the active list is empty: the oracle's still names the
//!   released channels, which its next selection sweeps before anything
//!   reads them.
//!
//! A coast's window holds no event whose order can show: no request (its
//! header has landed), no release, absorption, delivery or free (its tail
//! has not moved), and no grant on its cvs (it owns them). Settled on
//! cycle `now` after coasting from `from`, it writes what the oracle's
//! steps over `from + 1 ..= now` wrote:
//!
//! * every hop's `traversed` grows by `now − from`, all of them before any
//!   ready bit is re-derived: the counters after as many uniform moves;
//! * `flit_moves` and the per-channel traversal counts grow by as much
//!   per hop, under the one `measuring` verdict the window shares —
//!   integer sums, so their order among other messages' moves is free;
//! * each of its channels' round-robin pointers sits just past its vc,
//!   where each lone pick left it (nothing reads the pointer meanwhile:
//!   no other cv there is ready);
//! * its ready bits, re-derived from the counters, and its coast bits
//!   cleared: the masks the oracle's apply phase left;
//! * the watchdog's anchor: a stepped cycle with a coast is progress, and
//!   a jump over cycles sets it to the cycle before the target, the last
//!   the coast moved on.
//!
//! A coast touches only its own counters and bits, so a cycle with no
//! explicit move, grant or settlement is still a stall fixpoint for the
//! rest of the fabric; its jump stops at the earliest window end. The
//! active list is the oracle's, since a coasting channel stays owned and
//! listed, so the order other messages' statistics are recorded in is
//! too.
//!
//! What a coast leaves out is also what telemetry and closed loops read
//! per event, not per flit: its window holds no grant, release,
//! absorption or delivery to trace or to hand a protocol machine, and the
//! utilization series takes its moves as one range per hop. One tap reads
//! a cycle's moves: a stepped cycle traces `Stall` when channels are held
//! and nothing moves, and a coast moves, so the tap also asks that nothing
//! coasts.
//!
//! Together the mechanisms collapse the cost from O(cycles) to
//! O(structural events): injections, header hand-offs, grants and tail
//! releases under contention, one closed form per group without, and one
//! per streaming body beside contention. That
//! is the lever the Fig. 6/7 sweeps need at low load
//! (`sim.cycle.event_over_cycle.low` on the benchmark ledger: 0.0096, from
//! 0.12 before flights), with the cycle engine retained as the oracle.
//!
//! *What coasting is worth* (benchmark workloads, alternating 10 s pairs
//! on one 2-vCPU x86-64 host, digests and exact counts identical):
//! `fig6-sweep` `wall_s` −26 % at `--seed 42` and −32 % at `--seed 7`
//! (10/10 pairs each), `cache-io` −28 % (5/5); `sat-kernel`,
//! `lowload-skip` and `scale-64k` within their spread. Coasts settle
//! 57 % of `fig6-sweep`'s flit moves, 39 % of `cache-io`'s, 24 % of
//! `sat-kernel`'s and 0.7 % of `lowload-skip`'s (flights carry it); none
//! at `scale-64k`, whose 8-flit messages land with too little body left.
//! Traced `fig6-sweep` passes read `sim.engine.ns_per_move.knee` 40.3
//! → 27.2 ns and `share.engine_run` 0.879 → 0.834 (medians of three).

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
                fabric.may_coast = true;
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
                    let window = fabric.in_window(target);
                    self.simulate_cycle(fabric, target, window);
                    if let Some(end) = fabric.run_end() {
                        break end;
                    }
                }
            }
        };
        fabric.finish(end, self.counters)
    }

    /// Simulate exactly the next cycle, untagged and unmeasured.
    pub(crate) fn step_one(&mut self, fabric: &mut Fabric<'_>) {
        self.simulate_cycle(fabric, fabric.cycle + 1, false);
    }

    /// A scripted injection added work behind the policy's back:
    /// whatever stall was proven before no longer holds.
    pub(crate) fn work_injected(&mut self) {
        self.stalled = false;
    }

    /// Simulate exactly cycle `target` (every cycle strictly between the
    /// current one and `target` is inert by construction — see the module
    /// docs), tagged and measured iff `window`, and update the stall
    /// detector.
    fn simulate_cycle(&mut self, fabric: &mut Fabric<'_>, target: u64, window: bool) {
        self.counters.simulated_cycles += 1;
        let out = fabric.step(target, window, window, self);
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
        let held = !fabric.active.is_empty();
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
    fn zero_load_latency_is_exact() {
        behaviour::zero_load_latency_is_exact(EngineKind::EventDriven);
    }

    #[test]
    fn zero_load_latency_is_exact_in_a_run() {
        behaviour::zero_load_latency_is_exact_in_a_run(EngineKind::EventDriven);
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
