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
//!   or its tail nears hop 0, settled ones again; only on runs where
//!   flights are possible.
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
//! too. No span is tried while a message coasts: the span scan would
//! replay the explicit moves of a message that has just started one.
//!
//! ## Streaming fast-forward
//!
//! Between structural events a wormhole message simply *streams*: every
//! channel of its granted window moves one flit per cycle, and the cycle
//! outcome repeats verbatim. After a cycle that granted nothing and saw
//! no tail cross a hop the engine checks whether the next cycles are
//! guaranteed replays — every active channel either moved its single
//! owned cv (with stable supply and credit) or is stably blocked, no
//! tail/header/absorb threshold, arrival, run boundary or watchdog tick
//! is due — and if so it applies `K` repetitions in one bulk update of
//! the flit counters (`SkipAhead::apply_streaming_span`). Grant-to-grant,
//! the per-cycle machinery only runs on cycles where arbitration can
//! change.
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
//!
//! *What the spans were worth*, before coasting (same host and pairing):
//! without the scan `cache-io` ran 12.2 % slower (5/5 pairs; stepped
//! cycles 0.31 M → 0.44 M of 2.16 M), with a scan that accepts only
//! single-vc movers 5.6 % slower (5/5; 0.36 M stepped), so the
//! held-channel walk carried about half the gain. Beside coasts no
//! benchmark workload batches a span any more (`fig6-sweep` 4 294 per
//! repetition before, `cache-io` 8 940, `lowload-skip` 956): spans now
//! serve only runs that do not coast, such as those with telemetry on.

use crate::fabric::{
    refresh_ready_around, CycleOutcome, Fabric, TimeAdvance, WATCHDOG_STRIDE, WATCHDOG_WINDOW,
};
use crate::message::{ActiveMsg, MsgId};
use crate::results::{EngineCounters, SimResults};
use crate::schedule::EventQueue;
use noc_topology::NodeId;

/// Cap of the streaming-scan backoff exponent: after repeated
/// unprofitable eligibility scans the engine re-attempts at most every
/// `2^SPAN_BACKOFF_CAP` eligible cycles. At high load the scan almost
/// always fails (held channels trip its conservative freeze checks),
/// and running it after every simulated cycle was the hot-path overhead
/// that made the event engine lose to the cycle engine there — the
/// backoff is a deterministic heuristic that only changes *when* spans
/// are attempted, never their outcome, so results are unaffected. At low
/// load it used to misfire: a lone message's tail phase failed a scan
/// per cycle and the cooldown ate the next message's streaming window.
/// Cycles in which a tail crosses a hop are no longer eligible at all
/// (`CycleOutcome::tail`), so the backoff only ever counts scans that
/// contention failed (`lowload-skip`: 91 097 failed scans → 900).
const SPAN_BACKOFF_CAP: u32 = 8;

/// A span must advance at least this many cycles to count as profitable
/// and reset the backoff. A full eligibility scan costs on the order of
/// a few simulated cycles, so shorter spans — the typical find deep in
/// saturation, where a handful of cycles stream between structural
/// events — are applied (the cycles are already bought) but pace the
/// scan like a failure: without this, each short find re-arms per-cycle
/// scanning and the scan overhead eats the streamed cycles it saves.
const SPAN_PROFIT_MIN: u64 = 8;

/// The event engine's time-advance policy: a priority queue of firing
/// times, the stall-fixpoint flag, flight groups and the
/// streaming-span scan.
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
    /// Consecutive failed streaming-scan attempts (saturating at
    /// [`SPAN_BACKOFF_CAP`]); sets the cooldown after each failure.
    span_fail_streak: u32,
    /// Eligible cycles left before the next streaming-scan attempt.
    span_cooldown: u32,
    /// Engine-internal work counters (events popped, spans batched,
    /// fixpoints, failed scans), surfaced through
    /// [`SimResults::engine`](crate::results::SimResults::engine).
    counters: EngineCounters,
    /// Did this cv move a flit in the current cycle? Allocated by the
    /// first streaming eligibility scan and populated *lazily* by each
    /// from the cycle's move list (and cleared before the scan returns),
    /// so ordinary cycles pay nothing for the O(1) move-set lookup the
    /// fast-forward needs.
    cv_moved: Vec<bool>,
    /// Channels that moved this cycle (scratch of the fast-forward scan,
    /// cleared before it returns).
    channel_moved: Vec<bool>,
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
            span_fail_streak: 0,
            span_cooldown: 0,
            counters: EngineCounters::default(),
            cv_moved: Vec::new(),
            channel_moved: Vec::new(),
        }
    }

    /// The oracle's trajectory, evaluated only on cycles of interest.
    pub(crate) fn run(&mut self, fabric: &mut Fabric<'_>) -> SimResults {
        let end = match fabric.start(self) {
            Some(end) => end,
            None => {
                let may_fly = fabric.flights_possible();
                fabric.may_coast = may_fly;
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
                    let out = self.simulate_cycle(fabric, target, window);
                    if let Some(end) = fabric.run_end() {
                        break end;
                    }
                    // Streaming fast-forward: while nothing structural
                    // can happen, replay this cycle's move set in bulk.
                    // A grant or a tail crossing a hop is structural: the
                    // next cycle's move set differs. Not on closed-loop
                    // runs: protocol messages are short, and the span
                    // caps don't model delivery-triggered injections. Not
                    // beside a coast: the move set holds the explicit
                    // moves of a message that has just started one.
                    let streaming = out.moved && out.granted == 0 && !out.tail;
                    if streaming
                        && !fabric.is_closed()
                        && fabric.coasts.is_empty()
                        && self.try_span(fabric)
                    {
                        if let Some(end) = fabric.run_end() {
                            break end;
                        }
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
    /// detector. `fabric.moves` still holds the cycle's move set
    /// afterwards, for the fast-forward eligibility scan.
    fn simulate_cycle(
        &mut self,
        fabric: &mut Fabric<'_>,
        target: u64,
        window: bool,
    ) -> CycleOutcome {
        self.counters.simulated_cycles += 1;
        let out = fabric.step(target, window, window, self);
        self.stalled = !out.moved && out.granted == 0 && !out.settled;
        if self.stalled {
            self.counters.stall_fixpoints += 1;
        }
        out
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

    /// Attempt the streaming fast-forward after a cycle that moved flits,
    /// granted nothing and saw no tail cross a hop; `true` when a span
    /// was applied (time moved).
    ///
    /// The eligibility scan is the engine's high-load overhead: in a
    /// congested network it fails almost every cycle (blocked channels
    /// hit its conservative bails), so repeated failures back off
    /// exponentially. The cooldown only gates *when* the scan re-runs —
    /// skipped opportunities fall back to normal per-cycle simulation, so
    /// results are bit-identical either way.
    fn try_span(&mut self, fabric: &mut Fabric<'_>) -> bool {
        if self.span_cooldown > 0 {
            self.span_cooldown -= 1;
            return false;
        }
        let k = self.streaming_span_len(fabric);
        if k >= SPAN_PROFIT_MIN {
            self.span_fail_streak = 0;
        } else {
            // A failed scan, or a find too short to pay for the scan:
            // back off either way.
            if k == 0 {
                self.counters.span_scans_failed += 1;
            }
            self.span_fail_streak = (self.span_fail_streak + 1).min(SPAN_BACKOFF_CAP);
            self.span_cooldown = 1 << self.span_fail_streak;
        }
        if k > 0 {
            self.apply_streaming_span(fabric, k);
        }
        k > 0
    }

    /// Did hop `h` of message `m` (with body `msg`) move this cycle?
    /// O(1): a hop's flits cross exactly its path cv, so the per-cv moved
    /// bitmap plus the ownership check identifies the pair. Only valid in
    /// the streaming eligibility scan, where no release or grant has
    /// disturbed the cycle's ownership (both are disqualifying events).
    #[inline]
    fn in_move_set(&self, fabric: &Fabric<'_>, msg: &ActiveMsg, m: MsgId, h: usize) -> bool {
        let cv = fabric.plan.cv_index(msg.path.hops[h]) as usize;
        self.cv_moved[cv] && fabric.cvs[cv].owner == Some((m, h as u16))
    }

    /// How many cycles after the just-simulated one are guaranteed exact
    /// replays of its move set, with no structural event (grant, header or
    /// tail threshold, absorb, arrival, deactivation, run boundary or
    /// watchdog tick)? Returns 0 when the next cycle must be simulated
    /// normally.
    ///
    /// Must only be called when the simulated cycle moved flits, granted
    /// nothing and saw no tail cross a hop. No tail means no release, no
    /// absorption and no freed message in that cycle: every mover is live
    /// and short of its tail threshold, and every listed channel still
    /// has an owner (the cycle's selection swept the ones released
    /// before it).
    fn streaming_span_len(&mut self, fabric: &Fabric<'_>) -> u64 {
        let c = fabric.cycle;
        let (warmup, measure_end) = (fabric.cfg.warmup_cycles, fabric.cfg.measure_end());

        // External caps: the span may not contain an arrival, cross the
        // warmup or measurement boundary (the measuring flag must stay
        // constant and the run may end at `measure_end`), or pass the
        // drain deadline.
        let mut k = self.next_event(fabric).saturating_sub(c + 1);
        if c < warmup {
            k = k.min(warmup - c);
        } else if c < measure_end {
            k = k.min(measure_end - c);
        }
        k = k.min(fabric.cfg.deadline().saturating_sub(c));
        if k == 0 {
            return 0;
        }

        // Mark the cycle's move set for `in_move_set` — lazily, here,
        // so only scan cycles pay for the bookkeeping and only runs that
        // scan allocate the bitmaps.
        if self.cv_moved.is_empty() {
            self.cv_moved = vec![false; fabric.plan.num_cvs];
            self.channel_moved = vec![false; fabric.plan.num_channels];
        }
        for &(m, h16) in &fabric.moves {
            let msg = fabric.msgs.get(m, "streaming mover");
            self.cv_moved[fabric.plan.cv_index(msg.path.hops[h16 as usize]) as usize] = true;
        }

        // Movers: numeric caps, single-ownership, and channel marking.
        // On the streaming fast path this loop is the whole scan.
        let buffer_depth = fabric.cfg.buffer_depth;
        let mut ok = true;
        for &(m, h16) in &fabric.moves {
            let msg = fabric.msgs.get(m, "streaming mover");
            let h = h16 as usize;
            let t = msg.traversed[h];
            debug_assert!(t < msg.len, "a tail crossed hop {h} this cycle");
            // Sibling vcs on the mover's channel do not disqualify the
            // span by themselves: after the move the round-robin pointer
            // sits just past the mover's vc, so the mover is examined
            // *last* on the next pass and re-chosen iff every sibling is
            // unelectable — which the held-channel loop below verifies
            // stays true for the whole span.
            let pc = msg.path.hops[h].channel.idx();
            self.channel_moved[pc] = true;
            // Stop before the tail threshold (`t == len` is a structural
            // cycle: releases, absorbs, completions).
            k = k.min((msg.len - 1 - t) as u64);
            // Supply: upstream counter is frozen unless hop h−1 is also
            // streaming in this span.
            if h > 0 && !self.in_move_set(fabric, msg, m, h - 1) {
                k = k.min((msg.traversed[h - 1] - t) as u64);
            }
            // Credit: downstream occupancy grows unless hop h+1 is also
            // streaming.
            if h + 1 < msg.path.len() && !self.in_move_set(fabric, msg, m, h + 1) {
                k = k.min((buffer_depth - msg.occupancy(h)) as u64);
            }
            if k == 0 {
                ok = false;
                break;
            }
        }

        // Held channels: every owned cv that is not this cycle's mover
        // must stay unelectable for the whole span — on a blocked channel
        // that is every owned cv, on a moving channel the sibling vcs the
        // round-robin would otherwise rotate in. Only single-vc streaming
        // channels skip the walk (the pure-streaming fast path).
        if ok {
            'channels: for &pc_u in &fabric.active {
                let pc = pc_u as usize;
                let owned = fabric.channels[pc].owned.count_ones();
                if self.channel_moved[pc] && owned == 1 {
                    continue;
                }
                debug_assert!(owned > 0, "channel {pc} was released this cycle");
                let base = fabric.plan.cv_base[pc];
                let nv = fabric.plan.vcs[pc];
                for vc in 0..nv {
                    let cv_idx = (base + vc as u32) as usize;
                    if self.cv_moved[cv_idx] {
                        // The channel's mover: streaming eligibility is
                        // the mover loop's job, not a freeze condition.
                        continue;
                    }
                    let Some((m, h)) = fabric.cvs[cv_idx].owner else {
                        continue;
                    };
                    let msg = fabric.msgs.get(m, "cv owner");
                    let h = h as usize;
                    if !msg.has_supply(h) {
                        // Starved: stays starved iff the upstream hop is
                        // not streaming (h == 0 starvation means the whole
                        // message already crossed this hop — permanent).
                        if h > 0 && self.in_move_set(fabric, msg, m, h - 1) {
                            ok = false;
                            break 'channels;
                        }
                    } else if !msg.has_credit(h, buffer_depth) {
                        // Credit-blocked: stays blocked iff the downstream
                        // hop is not draining.
                        if self.in_move_set(fabric, msg, m, h + 1) {
                            ok = false;
                            break 'channels;
                        }
                    } else {
                        // Supply and credit fine yet not selected — only
                        // possible through round-robin interplay this scan
                        // does not model; be conservative.
                        ok = false;
                        break 'channels;
                    }
                }
            }
        }

        // Clear the cv and channel marks.
        for &(m, h16) in &fabric.moves {
            let hop = fabric.msgs.get(m, "streaming mover").path.hops[h16 as usize];
            self.cv_moved[fabric.plan.cv_index(hop) as usize] = false;
            self.channel_moved[hop.channel.idx()] = false;
        }
        if ok {
            k
        } else {
            0
        }
    }

    /// Apply `k` exact replays of the current move set in one step: every
    /// moving hop advances `k` flits, time and the watchdog anchor jump to
    /// the span's end. No grants, releases, deliveries or backlog changes
    /// occur inside a span by construction, but the counters the ready
    /// masks summarise do move, so the movers and their neighbours are
    /// refreshed as after a single move — in a pass of their own, since
    /// mid-update a hop can read ahead of the hop upstream of it.
    fn apply_streaming_span(&mut self, fabric: &mut Fabric<'_>, k: u64) {
        let start = fabric.cycle;
        let measuring = fabric.in_window(start + 1);
        let buffer_depth = fabric.cfg.buffer_depth;
        for &(m, h) in &fabric.moves {
            let msg = fabric.msgs.get_mut(m, "streaming mover");
            msg.traversed[h as usize] += k as u32;
            let channel = msg.path.hops[h as usize].channel.idx();
            fabric
                .metrics
                .record_flit_moves_bulk(start, channel, k, measuring);
        }
        for &(m, h) in &fabric.moves {
            let msg = fabric.msgs.get(m, "streaming mover");
            refresh_ready_around(&mut fabric.channels, msg, h as usize, buffer_depth);
        }
        fabric.cycle += k;
        fabric.last_move_cycle = fabric.cycle;
        self.counters.spans_batched += 1;
        self.counters.span_cycles += k;
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
        // cycles are idle gaps, flights or streaming spans and must not
        // be simulated one by one. This run steps 141 of 18 019 cycles
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
