//! The wormhole fabric kernel: the one definition of what a simulated
//! cycle does, shared by both engines.
//!
//! See the crate-level documentation for the node model and timing
//! conventions. The state is a flat set of *channel virtual-channel* (cv)
//! resources; each cv is either free or owned by one message at one hop
//! of its path, with a FIFO list of waiting headers — the non-preemptive
//! FIFO arbitration of the paper's simulator (§4) — summarised per
//! physical channel in one four-byte [`ChannelState`]. [`Fabric::step`]
//! simulates one cycle in four phases:
//!
//! 1. **Generation** — every node due this cycle (asked of the driver's
//!    [`TimeAdvance::next_due`], in node order) fires: its
//!    [`ArrivalStream`] emits a unicast (path from the plan) or a
//!    multicast operation (one stream per active injection port), or, on
//!    closed-loop runs, its protocol timer times out. New messages join
//!    the injection channel's waiter queue in creation-time order.
//! 2. **Selection** — walking the channels that hold a cv in ascending
//!    channel order ([`ChannelSet`]), each picks at most one of its cvs
//!    (round-robin) whose owner can move a flit, judged against the
//!    *previous* cycle's counters (one-cycle credit loop). Selection asks
//!    no message: it reads the channel's `ready` mask, takes the first set
//!    bit at or after the round-robin pointer, and touches a cv only to
//!    copy the chosen owner into the move list. The mask is kept current
//!    by the phases that change what it summarises. The bit of a cv owned
//!    by message `m` at hop `h` is [`ActiveMsg::can_move`], a function of
//!    `m`'s `traversed[h − 1 ..= h + 1]` alone, so it is re-derived when a
//!    move changes one of those counters (application, through
//!    [`refresh_ready_around`], and a coast's settlement), set when the
//!    cv gets its owner (grants) and cleared when it loses it (releases)
//!    or starts to coast. Nothing else writes a counter or an owner, so
//!    nothing else can change a verdict.
//! 3. **Application** — chosen flits traverse; headers entering a buffer
//!    request the next channel; tails leaving a buffer release channels
//!    and trigger absorptions (clone-to-sink at multicast targets,
//!    completion at ejection). Closed-loop deliveries dispatch here, so
//!    the machines' replies enqueue in the cycle the absorption landed.
//! 4. **Grants** — released or newly requested free cvs are granted to
//!    the FIFO head of their waiter queues.
//!
//! **The order rule: same-cycle moves apply in ascending channel order.**
//! It decides which of two headers reaching one cv on one cycle queues
//! first, and the order same-cycle samples of one latency population are
//! recorded in. It is a function of the cycle's moves alone, not of how
//! the fabric got there, so a closed form reproduces it by sorting.
//!
//! The kernel never decides *when* a cycle is simulated. That is the
//! [`TimeAdvance`] policy of the engine around it: the oracle
//! ([`crate::engine::EveryCycle`]) steps every cycle and polls the nodes,
//! the event engine ([`crate::event_engine::SkipAhead`]) keeps an event
//! queue and jumps over cycles it proves inert. Run termination
//! ([`Fabric::run_end`]) is kernel state too, so both drivers break on
//! the same cycle by construction. One thing besides `step` advances a
//! fabric: [`Fabric::fly_group`], which applies a group of arrivals the
//! event engine gathered on an empty fabric ([`Fabric::admit`]) in closed
//! form — the sum of the cycles `step` would have simulated. On an
//! event-engine fabric `step` itself lets a message *coast* beside the
//! stepped traffic and settles its moves in closed form: a header that
//! claims the free route ahead of it, and a body once its header has
//! landed; [`Fabric::start_coasts`] gives the rules.

use crate::arena::Arena;
use crate::closed_loop::{Action, ClosedDelivery, ClosedLoopDriver};
use crate::config::{EngineKind, SimConfig};
use crate::engine_api::{AuditError, EngineAudit};
use crate::message::{ActiveMsg, Coast, CvState, MsgId, MulticastOp, OpId, NO_COAST, NO_MSG};
use crate::metrics::Metrics;
use crate::plan::{PreStream, SimPlan};
use crate::results::{EngineCounters, SimResults};
use crate::schedule::{Arrival, ArrivalStream};
use noc_app::{AppEvent, ClosedLoopSpec};
use noc_telemetry::TraceEventKind;
use noc_topology::{NodeId, Path, Topology};
use noc_workloads::Workload;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Deadlock-watchdog parameters: checked on multiples of
/// `WATCHDOG_STRIDE`, firing after `WATCHDOG_WINDOW` cycles without a
/// move or a grant and with channels still held. With the dateline virtual channels this must
/// never trigger; it exists to catch regressions in deadlock avoidance.
pub(crate) const WATCHDOG_STRIDE: u64 = 1024;
pub(crate) const WATCHDOG_WINDOW: u64 = 10_000;

/// Everything selection needs to know about one physical channel, in one
/// word. Bit `vc` of a mask stands for the cv `plan.cv_base[pc] + vc`;
/// [`SimPlan::build`] rejects channels with more vcs than a mask has bits.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChannelState {
    /// Cvs that have an owner.
    pub(crate) owned: u8,
    /// Owned cvs whose owner can move a flit ([`ActiveMsg::can_move`] on
    /// the counters as they stand). A coasting cv's bit is clear.
    ready: u8,
    /// Owned cvs whose owner coasts ([`Coast`]) across this channel: it
    /// moves a flit every cycle until its tail crosses, unseen by
    /// selection. At most one per channel, and never beside a ready one
    /// past the end of a cycle.
    coast: u8,
    /// The round-robin pointer: the vc selection considers first.
    rr: u8,
}

impl ChannelState {
    /// The round-robin pointer.
    #[inline]
    pub(crate) fn rr(self) -> u8 {
        self.rr
    }

    /// Point the round robin just past `vc`, of `nv`: where a pick of
    /// `vc` leaves it.
    #[inline]
    fn pass(&mut self, vc: u8, nv: u8) {
        self.rr = if vc + 1 == nv { 0 } else { vc + 1 };
    }

    /// The `(owned, ready)` masks [`Fabric::reference_masks`] derives: a
    /// coasting cv reads ready, as on the counters its window froze.
    pub(crate) fn masks(self) -> (u8, u8) {
        (self.owned, self.ready | self.coast)
    }

    /// Does selection have to visit the channel: has it an owned cv that
    /// does not coast?
    #[inline]
    fn selectable(self) -> bool {
        self.owned & !self.coast != 0
    }

    /// The first ready vc at or after the round-robin pointer, wrapping:
    /// in the mask laid out twice, bit `rr + j` is vc `(rr + j) mod 8`,
    /// and vcs the channel does not have are never ready, so they are
    /// stepped over like any blocked one.
    #[inline]
    fn pick(self) -> Option<u8> {
        if self.ready == 0 {
            return None;
        }
        let rr = self.rr;
        let twice = u32::from(self.ready) | u32::from(self.ready) << 8;
        Some((rr + (twice >> rr).trailing_zeros() as u8) & 7)
    }

    /// Set the ready bit of `vc` to `ready`. `true`: the bit is set on a
    /// channel a message coasts on, whose coast must then be settled at
    /// the end of the cycle.
    #[inline]
    fn set_ready(&mut self, vc: u8, ready: bool) -> bool {
        self.ready = self.ready & !(1 << vc) | u8::from(ready) << vc;
        ready & (self.coast != 0)
    }
}

/// The channels selection visits: a bitset over physical channels, walked
/// in ascending channel order, with a summary word per 64 words so a walk
/// skips empty stretches of a large network a word at a time. A grant
/// inserts its channel; selection removes a channel it finds with no
/// owned cv that does not coast ([`ChannelState::selectable`]), and a
/// coast's settlement inserts the channels it still holds.
#[derive(Debug, Default)]
pub(crate) struct ChannelSet {
    words: Vec<u64>,
    /// Bit `i` of `summary[j]`: `words[64 j + i]` is not zero.
    summary: Vec<u64>,
    /// Channels in the set.
    len: usize,
}

impl ChannelSet {
    fn new(channels: usize) -> Self {
        let words = channels.div_ceil(64);
        ChannelSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        }
    }

    #[inline]
    fn insert(&mut self, pc: usize) {
        let (w, bit) = (pc / 64, 1u64 << (pc % 64));
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.summary[w / 64] |= 1 << (w % 64);
            self.len += 1;
        }
    }

    fn contains(&self, pc: usize) -> bool {
        self.words[pc / 64] & 1 << (pc % 64) != 0
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empty the set, touching only the words that hold members.
    fn clear(&mut self) {
        for (j, summary) in self.summary.iter_mut().enumerate() {
            let mut nonzero = std::mem::take(summary);
            while nonzero != 0 {
                self.words[j * 64 + nonzero.trailing_zeros() as usize] = 0;
                nonzero &= nonzero - 1;
            }
        }
        self.len = 0;
    }

    /// `(len, members, summarised)`: the count kept, the members the
    /// words hold, and those the summary leads a walk to. All three equal
    /// in a sound set.
    fn counts(&self) -> (usize, usize, usize) {
        let members = self.words.iter().map(|w| w.count_ones() as usize).sum();
        let summarised = (0..self.words.len())
            .filter(|&w| self.summary[w / 64] & 1 << (w % 64) != 0)
            .map(|w| self.words[w].count_ones() as usize)
            .sum();
        (self.len, members, summarised)
    }
}

/// `msg.traversed[h]` just grew: re-derive the ready bits it feeds — hop
/// `h` itself, hop `h − 1` (credit) unless the tail has now crossed `h`
/// and `h − 1` is being released, and hop `h + 1` (supply) once granted.
/// A granted `h + 1` is still owned: it is released when the tail crosses
/// `h + 2`, which cannot precede the flit that just crossed `h`. All three
/// verdicts are read before any is written, so the counters are loaded
/// once, and the three writes are spelled out: behind a closure they were
/// outlined, at a quarter of the application phase's time. A channel on
/// which a bit was set beside a coasting cv ([`ChannelState::set_ready`])
/// is pushed onto `disturbed`.
#[inline]
fn refresh_ready_around(
    channels: &mut [ChannelState],
    disturbed: &mut Vec<u32>,
    msg: &ActiveMsg,
    h: usize,
    buffer_depth: u32,
) {
    let hops = &msg.path.hops[..];
    let here = msg.can_move(h, buffer_depth);
    let prev = (h > 0 && msg.traversed[h] < msg.len).then(|| msg.can_move(h - 1, buffer_depth));
    let next = (h + 1 < msg.head as usize).then(|| msg.can_move(h + 1, buffer_depth));
    let pc = hops[h].channel.idx();
    if channels[pc].set_ready(hops[h].vc.0, here) {
        disturbed.push(pc as u32);
    }
    if let Some(ready) = prev {
        let pc = hops[h - 1].channel.idx();
        if channels[pc].set_ready(hops[h - 1].vc.0, ready) {
            disturbed.push(pc as u32);
        }
    }
    if let Some(ready) = next {
        let pc = hops[h + 1].channel.idx();
        if channels[pc].set_ready(hops[h + 1].vc.0, ready) {
            disturbed.push(pc as u32);
        }
    }
}

/// May `msg`, whose header has crossed its last hop, coast now or later?
/// Not once its tail is within two cycles of its last hop: no window
/// could last two cycles.
fn may_yet_coast(msg: &ActiveMsg) -> bool {
    msg.traversed[msg.path.len() - 1] + 3 <= msg.len
}

/// What one simulated cycle did — all a time-advance policy may know
/// about it.
#[derive(Clone, Copy, Debug)]
pub struct CycleOutcome {
    /// At least one flit moved.
    pub moved: bool,
    /// New cv owners installed by the grant phase.
    pub granted: usize,
    /// A coast was settled: its message is back in selection.
    pub settled: bool,
}

/// Why a run stopped (both flags clear: it completed).
#[derive(Clone, Copy, Debug)]
pub struct RunEnd {
    saturated: bool,
    deadlocked: bool,
}

/// What the kernel asks of a time-advance policy, the half of an engine
/// that decides which cycles the [`Fabric`] simulates (each calls
/// [`Fabric::start`], then [`Fabric::step`] on the cycles of its choosing
/// until [`Fabric::run_end`]) and knows which nodes fire on them. Two
/// exist, [`crate::engine::EveryCycle`] and
/// [`crate::event_engine::SkipAhead`]; [`crate::Engine`] holds one,
/// chosen by [`SimConfig::engine`], and the kernel is generic over it.
pub trait TimeAdvance {
    /// The next node whose arrival or protocol timer is due at
    /// `fabric.cycle` (see [`Fabric::fires_at`]), node-ascending; `None`
    /// once the cycle's due nodes are exhausted.
    fn next_due(&mut self, fabric: &Fabric<'_>) -> Option<u32>;

    /// `node` next fires at cycle `at` (a rescheduled arrival stream or a
    /// freshly set protocol timer).
    fn schedule(&mut self, at: u64, node: u32);
}

/// The arrivals the event engine gathers into one flight
/// ([`Fabric::admit`]), and the scratch flying them takes.
#[derive(Debug, Default)]
struct Group {
    /// The last absorption of any member admitted so far.
    end: u64,
    members: Vec<Member>,
    /// Messages spawned per arrival cycle, `(cycle, count)` ascending.
    spawned: Vec<(u64, usize)>,
    /// Per physical channel: the last move of the latest window admitted
    /// on it, by this group or an earlier one. Sized by the first group.
    last_move: Vec<u64>,
    /// Tagged deliveries, `(cycle, population, channel, generation,
    /// source)`; the channel is the delivering move's.
    deliveries: Vec<(u64, Sample, u32, u64, NodeId)>,
}

/// One arrival of a group.
#[derive(Debug)]
struct Member {
    /// Its cycle.
    at: u64,
    node: NodeId,
    /// The unicast's route; `None` for the node's multicast operation,
    /// whose streams are the plan's.
    unicast: Option<Arc<Path>>,
    /// Its last absorption, alone on the fabric.
    end: u64,
}

impl Member {
    /// Its multicast streams (none for a unicast).
    fn streams<'p>(&self, plan: &'p SimPlan) -> &'p [PreStream] {
        match self.unicast {
            Some(_) => &[],
            None => plan.streams(self.node.idx()),
        }
    }

    /// Its messages' routes: the unicast's, or the streams'.
    fn paths<'a>(&'a self, plan: &'a SimPlan) -> impl Iterator<Item = &'a Arc<Path>> {
        let streams = self.streams(plan).iter().map(|pre| &pre.path);
        self.unicast.iter().chain(streams)
    }
}

/// The latency population a delivery is recorded in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Sample {
    Unicast,
    Operation,
}

/// All in-flight state of one simulation run, and every phase that
/// mutates it.
pub struct Fabric<'a> {
    pub(crate) wl: &'a Workload,
    pub(crate) cfg: SimConfig,
    pub(crate) plan: Arc<SimPlan>,

    // --- dynamic state ---
    pub(crate) cycle: u64,
    cvs: Vec<CvState>,
    /// Per physical channel: which cvs are owned, which can move, whose
    /// turn it is.
    channels: Vec<ChannelState>,
    /// The channels selection visits, in ascending order: every one with
    /// an owned cv that does not coast, and some whose last such cv went
    /// since selection last looked.
    active: ChannelSet,
    /// Live messages in a dense generation-tagged slab: ids stay `u32`,
    /// stale ids panic with the violated invariant by name.
    pub(crate) msgs: Arena<ActiveMsg>,
    /// Live multicast operations, same layout.
    ops: Arena<MulticastOp>,
    ops_allocated: u64,
    ops_completed: u64,
    /// Per-node arrival streams (traffic-spec driven; Poisson default).
    arrivals: Vec<ArrivalStream>,
    /// Messages waiting at injection channels (backlog).
    inj_backlog: usize,
    peak_backlog: usize,
    /// Tagged traffic still in flight.
    pub(crate) tagged_outstanding: u64,
    /// Last cycle on which a flit moved or a channel was granted
    /// (deadlock watchdog).
    pub(crate) last_move_cycle: u64,
    /// The run has finished: [`Fabric::finish`] handed out its results.
    pub(crate) finished: bool,

    // --- scratch (reused across cycles) ---
    /// The cycle's move set, in selection order.
    moves: Vec<(MsgId, u16)>,
    regrant: Vec<u32>,

    // --- flights (the event engine's; see `Fabric::admit`) ---
    /// Arrivals drawn for a group that was then declined, in `(cycle,
    /// node)` order. Each spawns at its own cycle ahead of the nodes still
    /// queued for it, which are all higher.
    pub(crate) held: VecDeque<(u64, NodeId, Arrival)>,
    /// The group being gathered.
    group: Group,

    // --- coasts (the event engine's; see `Fabric::start_coasts`) ---
    /// May a message coast? On an event-engine fabric, from construction
    /// on; the oracle never coasts.
    may_coast: bool,
    /// The messages coasting, in no order; each knows its index
    /// ([`ActiveMsg::coast`]).
    pub(crate) coasts: Vec<Coast>,
    /// Messages whose header has crossed their last hop, that do not
    /// coast and may yet: checked at the end of every cycle.
    landed: Vec<MsgId>,
    /// Channels on which a ready bit was set beside a coasting cv this
    /// cycle: their coasts are settled at its end.
    disturbed: Vec<u32>,
    /// The last cycle whose moves a coast settled now writes: the previous
    /// one until selection has run, the current one after.
    settle_through: u64,
    /// A coast was settled this cycle.
    settled: bool,
    /// Coasts started, and the flit moves they settled.
    coast_counts: (u64, u64),
    /// May a header claim the route ahead? Where it may coast, at buffer
    /// depth 2 or more and while no trace is recorded.
    may_claim: bool,
    /// Messages whose own state changed this cycle — granted a hop, or a
    /// claim of theirs settled: offered a claim at its end.
    offers: Vec<MsgId>,
    /// Claims started, and the flit moves they settled.
    claim_counts: (u64, u64),
    /// Scratch: the claimants a body about to coast settles first.
    claimants: Vec<MsgId>,
    /// The index in `moves` of the move being applied; `usize::MAX`
    /// outside application.
    applying: usize,

    // --- closed-loop protocol drive (None on open-loop runs) ---
    closed: Option<ClosedLoopDriver>,
    /// Absorptions recorded by `apply_moves` for post-phase dispatch.
    arrived: Vec<ClosedDelivery>,
    /// Pending protocol actions (injections, timers).
    actions: Vec<Action>,

    pub(crate) metrics: Metrics,
}

impl<'a> Fabric<'a> {
    pub(crate) fn new(
        topo: &dyn Topology,
        wl: &'a Workload,
        cfg: SimConfig,
        plan: Arc<SimPlan>,
    ) -> Self {
        cfg.validate().expect("invalid simulator configuration");
        plan.assert_matches(topo, wl);
        let channels = plan.num_channels;
        let metrics = Metrics::new(&cfg, plan.n, channels, !plan.is_lazy());
        Fabric {
            wl,
            cfg,
            cycle: 0,
            cvs: vec![CvState::FREE; plan.num_cvs],
            channels: vec![ChannelState::default(); channels],
            active: ChannelSet::new(channels),
            msgs: Arena::with_capacity(plan.spawn_wave_hint()),
            ops: Arena::with_capacity(plan.num_nodes()),
            ops_allocated: 0,
            ops_completed: 0,
            arrivals: ArrivalStream::build_all(wl, plan.n, cfg.seed),
            inj_backlog: 0,
            peak_backlog: 0,
            tagged_outstanding: 0,
            last_move_cycle: 0,
            finished: false,
            moves: Vec::new(),
            regrant: Vec::new(),
            held: VecDeque::new(),
            group: Group::default(),
            may_coast: cfg.engine == EngineKind::EventDriven,
            coasts: Vec::new(),
            landed: Vec::new(),
            disturbed: Vec::new(),
            settle_through: 0,
            settled: false,
            coast_counts: (0, 0),
            may_claim: cfg.engine == EngineKind::EventDriven
                && cfg.buffer_depth >= 2
                && !metrics.tracing(),
            offers: Vec::new(),
            claim_counts: (0, 0),
            claimants: Vec::new(),
            applying: usize::MAX,
            closed: None,
            arrived: Vec::new(),
            actions: Vec::new(),
            metrics,
            plan,
        }
    }

    /// See [`crate::Engine::install_closed_loop`].
    pub(crate) fn install_closed_loop(&mut self, spec: &ClosedLoopSpec, master_seed: u64) {
        assert_eq!(self.cycle, 0, "closed-loop install after the run started");
        assert!(
            self.arrivals.iter().all(|s| s.next_arrival() == u64::MAX),
            "closed-loop runs require a zero-rate workload"
        );
        // Closed-loop runs measure every cycle from cycle 1.
        self.metrics.set_measure_origin(0);
        let machines = spec.build(self.plan.fanout_table(), master_seed);
        self.closed = Some(ClosedLoopDriver::new(machines));
    }

    /// The cycle `node` next fires on: its pending protocol timer on a
    /// closed-loop run (the protocol is then the only traffic source),
    /// else its stream's next arrival. `u64::MAX` when never.
    #[inline]
    pub(crate) fn fires_at(&self, node: usize) -> u64 {
        match &self.closed {
            Some(driver) => driver.timer_at(NodeId(node as u32)).unwrap_or(u64::MAX),
            None => self.arrivals[node].next_arrival(),
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: generation.
    // ------------------------------------------------------------------

    /// Append header `id` to the waiter list of `cv` (the cv of hop
    /// `head` of its path) and have the grant phase look at it. A coast of
    /// the cv's owner or claimant is settled first ([`Fabric::interrupt`]):
    /// its window may hold the release the waiter is granted on, or the
    /// grant of this very cv, and was not cut short of either.
    fn request(&mut self, cv: u32, id: MsgId) {
        let owner = self.cvs[cv as usize].owner;
        if owner != NO_MSG && !self.coasts.is_empty() {
            let coast = self.msgs.get(owner, "requested cv's owner").coast;
            if coast != NO_COAST {
                self.interrupt(coast as usize);
            }
        }
        let state = &mut self.cvs[cv as usize];
        if state.wait_tail == NO_MSG {
            state.wait_head = id;
        } else {
            self.msgs
                .get_mut(state.wait_tail, "last waiter")
                .next_waiter = id;
        }
        state.wait_tail = id;
        self.regrant.push(cv);
    }

    /// Settle coast `i` for a request met mid-cycle, through
    /// [`Fabric::settle_through`]: the previous cycle when the request
    /// comes from generation, so the message steps the current one; the
    /// current cycle when it comes after selection (application, a
    /// closed-loop reply), which under the order rule nothing later in the
    /// cycle can tell from stepped moves — a window holds no absorption,
    /// delivery or request a header waits on.
    ///
    /// Bar one: a claim's header requests the next hop of its route on
    /// every cycle of its window, and the requests of one cycle queue in
    /// channel order. When the claimant's request this cycle comes from a
    /// higher channel than the move being applied, it is settled through
    /// the previous cycle instead and its moves of this one join the
    /// cycle's remaining moves in channel order ([`Fabric::resume`]): a
    /// request from that move, or from any move on a channel between the
    /// two, precedes the claimant's, as it does on the oracle.
    fn interrupt(&mut self, i: usize) {
        let (now, through) = (self.cycle, self.settle_through);
        let coast = self.end_coast(i);
        let applying = self.moves.get(self.applying).copied();
        let behind = match applying {
            Some((m, h)) if coast.is_claim() && through == now => {
                let msg = self.msgs.get(coast.msg, "claimant");
                // The hop the header crosses now: granted on `now − 1`.
                let hop = msg.head as u64 - 1 + (now - 1 - coast.from);
                let current = self.msgs.get(m, "moving flit's message").path.hops[h as usize];
                hop < msg.path.len() as u64 - 1
                    && msg.path.hops[hop as usize].channel > current.channel
            }
            _ => false,
        };
        if behind {
            self.settle(coast, now - 1);
            self.resume(coast.msg);
        } else {
            self.settle(coast, through);
        }
    }

    /// Add the moves the settled claimant `m` makes this cycle — one
    /// across each hop its tail has not crossed, every one of them the one
    /// ready cv of its channel — to the moves still to be applied, in
    /// channel order, as selection would have picked them.
    fn resume(&mut self, m: MsgId) {
        let msg = self.msgs.get(m, "resumed claimant");
        let first = msg.traversed.iter().position(|&t| t < msg.len);
        let first = first.expect("a claimant's tail is behind its header");
        for h in first..msg.head as usize {
            let hop = self.msgs.get(m, "resumed claimant").path.hops[h];
            let pc = hop.channel.idx();
            self.channels[pc].pass(hop.vc.0, self.plan.vcs[pc]);
            let rest = &self.moves[self.applying + 1..];
            let at = rest.partition_point(|&(o, k)| {
                self.msgs.get(o, "selected move's message").path.hops[k as usize].channel
                    < hop.channel
            });
            self.moves.insert(self.applying + 1 + at, (m, h as u16));
        }
    }

    /// Enqueue a freshly generated message at the head channel of its
    /// path (`node` = the injecting source, for the trace).
    fn enqueue(&mut self, id: MsgId, node: u32) {
        let hop0 = self.msgs.get(id, "freshly enqueued message").path.hops[0];
        self.request(self.plan.cv_index(hop0), id);
        self.inj_backlog += 1;
        self.peak_backlog = self.peak_backlog.max(self.inj_backlog);
        self.metrics.trace(TraceEventKind::Inject, self.cycle, node);
    }

    /// Generate one unicast `src → dst` this cycle.
    fn start_unicast(&mut self, src: NodeId, dst: NodeId, tagged: bool) -> MsgId {
        let path = self.plan.unicast_path(src, dst);
        let msg = ActiveMsg::unicast(path, self.wl.msg_len, self.cycle, tagged);
        let id = self.msgs.insert(msg);
        if tagged {
            self.metrics.unicast_injected += 1;
            self.tagged_outstanding += 1;
        }
        self.metrics.total_generated += 1;
        self.enqueue(id, src.0);
        id
    }

    /// Generate `src`'s configured multicast operation this cycle: one
    /// message per port stream.
    fn start_multicast(&mut self, src: NodeId, tagged: bool) -> OpId {
        let (node, gen, len) = (src.idx(), self.cycle, self.wl.msg_len);
        assert!(
            !self.plan.streams(node).is_empty(),
            "multicast from source {node}, which has no streams configured"
        );
        self.ops_allocated += 1;
        let op = self.ops.insert(MulticastOp {
            src,
            gen,
            remaining: self.plan.op_targets(node),
            last_absorb: gen,
            tagged,
        });
        if tagged {
            self.metrics.multicast_injected += 1;
            self.tagged_outstanding += 1;
        }
        for si in 0..self.plan.streams(node).len() {
            let pre = &self.plan.streams(node)[si];
            let (path, absorbs) = (Arc::clone(&pre.path), Arc::clone(&pre.absorbs));
            let id = self
                .msgs
                .insert(ActiveMsg::stream(path, len, gen, tagged, op, absorbs));
            self.metrics.total_generated += 1;
            self.enqueue(id, src.0);
        }
        op
    }

    /// Spawn the message(s) of one arrival at `node` this cycle.
    fn spawn(&mut self, node: NodeId, arrival: Arrival, tagging: bool) {
        match arrival {
            Arrival::Multicast => {
                self.start_multicast(node, tagging);
            }
            Arrival::Unicast(dst) => {
                self.start_unicast(node, dst, tagging);
            }
        }
    }

    /// Draw `node`'s due arrival from its stream (class, destination,
    /// next gap — the per-arrival draw order both engines share); returns
    /// it with the cycle the node fires next (`u64::MAX`: never).
    pub(crate) fn pop_arrival(&mut self, node: NodeId) -> (Arrival, u64) {
        let stream = &mut self.arrivals[node.idx()];
        let arrival = stream.pop(self.wl, self.plan.n, node);
        (arrival, stream.next_arrival())
    }

    /// Fire every node due this cycle in node order: first the arrivals
    /// held for it (drawn for a declined group), then the nodes the driver
    /// reports due — open-loop sources spawn their arrival and are
    /// rescheduled, closed-loop nodes get their [`AppEvent::Timeout`].
    fn generate(&mut self, tagging: bool, due: &mut impl TimeAdvance) {
        while let Some(&(at, node, arrival)) = self.held.front() {
            if at != self.cycle {
                debug_assert!(at > self.cycle, "held arrival of cycle {at} skipped");
                break;
            }
            self.held.pop_front();
            self.spawn(node, arrival, tagging);
        }
        while let Some(n) = due.next_due(self) {
            let node = NodeId(n);
            if let Some(driver) = self.closed.as_mut() {
                driver.dispatch(self.cycle, node, AppEvent::Timeout, &mut self.actions);
            } else {
                let (arrival, next) = self.pop_arrival(node);
                self.spawn(node, arrival, tagging);
                if next != u64::MAX {
                    due.schedule(next, n);
                }
            }
        }
        self.closed_perform(due);
    }

    // ------------------------------------------------------------------
    // Phases 2-4: selection, application, grants.
    // ------------------------------------------------------------------

    /// Phase 2: pick at most one flit move per selectable physical
    /// channel, in ascending channel order, judged on the previous cycle's
    /// counters — which is what the channel's `ready` mask holds when this
    /// runs. A channel found with nothing to select leaves the set.
    fn select_moves(&mut self) {
        self.moves.clear();
        for j in 0..self.active.summary.len() {
            let mut nonzero = self.active.summary[j];
            while nonzero != 0 {
                let w = j * 64 + nonzero.trailing_zeros() as usize;
                nonzero &= nonzero - 1;
                let (mut bits, mut keep) = (self.active.words[w], self.active.words[w]);
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    let pc = w * 64 + b as usize;
                    debug_assert_eq!(
                        self.channels[pc].masks(),
                        self.reference_masks(pc)
                            .expect("every cv owner is a live message"),
                        "channel {pc}: (owned, ready) masks drifted from the cv owners' counters"
                    );
                    let ch = &mut self.channels[pc];
                    if !ch.selectable() {
                        keep &= !(1 << b);
                        continue;
                    }
                    if let Some(vc) = ch.pick() {
                        ch.pass(vc, self.plan.vcs[pc]);
                        let cv = &self.cvs[(self.plan.cv_base[pc] + vc as u32) as usize];
                        self.moves
                            .push(cv.holder().expect("ready mask names a cv without an owner"));
                    }
                }
                let set = &mut self.active;
                set.len -= (set.words[w] ^ keep).count_ones() as usize;
                set.words[w] = keep;
                if keep == 0 {
                    set.summary[j] &= !(1 << (w % 64));
                }
            }
        }
        self.settle_through = self.cycle;
    }

    /// Release the cv `mid` holds at `hop` (index `h16` of its path).
    fn release(&mut self, mid: MsgId, h16: u16, hop: noc_topology::Hop) {
        let cv = self.plan.cv_index(hop);
        debug_assert_eq!(self.cvs[cv as usize].holder(), Some((mid, h16)));
        self.cvs[cv as usize].owner = NO_MSG;
        let ch = &mut self.channels[hop.channel.idx()];
        let keep = !(1 << hop.vc.0);
        (ch.owned, ch.ready, ch.coast) = (ch.owned & keep, ch.ready & keep, ch.coast & keep);
        self.regrant.push(cv);
        self.metrics
            .trace(TraceEventKind::Release, self.cycle, hop.channel.0);
    }

    /// Phase 3: apply the selected moves; handle requests, releases,
    /// absorptions and completions.
    fn apply_moves(&mut self, measuring: bool) {
        let now = self.cycle;
        let closed = self.closed.is_some();
        let buffer_depth = self.cfg.buffer_depth;
        // By index: a claimant settled mid-cycle adds its moves behind the
        // one applied ([`Fabric::resume`]).
        let mut next = 0;
        while let Some(&(mid, h16)) = self.moves.get(next) {
            (self.applying, next) = (next, next + 1);
            let h = h16 as usize;
            // --- advance the flit ---
            let msg = self.msgs.get_mut(mid, "moving flit's message");
            msg.traversed[h] += 1;
            let t = msg.traversed[h];
            let (header_arrived, tail_passed) = (t == 1, t == msg.len);
            let here = msg.path.hops[h];
            let prev_hop = (h > 0).then(|| msg.path.hops[h - 1]);
            let next_hop = (h + 1 < msg.path.len()).then(|| msg.path.hops[h + 1]);
            refresh_ready_around(
                &mut self.channels,
                &mut self.disturbed,
                msg,
                h,
                buffer_depth,
            );
            self.metrics
                .record_flit_move(now, here.channel.idx(), measuring);

            // --- header entered buffer(h): request the next channel ---
            if header_arrived {
                if h == 0 {
                    // The message left the injection queue head.
                    self.inj_backlog -= 1;
                }
                match next_hop {
                    Some(next) => self.request(self.plan.cv_index(next), mid),
                    None if self.may_coast && may_yet_coast(msg) => self.landed.push(mid),
                    None => {}
                }
            }
            if !tail_passed {
                continue;
            }

            // --- tail traversed hop h: it left buffer(h-1) ---
            if let Some(prev) = prev_hop {
                self.release(mid, h16 - 1, prev);
            }
            // Absorptions scheduled at this hop (multicast targets; the
            // final target's completion hop is the ejection hop).
            let msg = self.msgs.get_mut(mid, "absorbing stream's message");
            let mut op_done: Option<OpId> = None;
            if let Some(stream) = msg.multicast.as_mut() {
                let mut absorbed_here = 0u32;
                while let Some(&(at, target)) = stream.absorbs.get(stream.next_absorb as usize) {
                    if at != h16 {
                        break;
                    }
                    if closed {
                        self.arrived.push(ClosedDelivery::Absorb {
                            op: stream.op,
                            target,
                        });
                    }
                    self.metrics.trace(TraceEventKind::Absorb, now, target.0);
                    stream.next_absorb += 1;
                    absorbed_here += 1;
                }
                if absorbed_here > 0 {
                    let op = self.ops.get_mut(stream.op, "stream's multicast op");
                    op.remaining -= absorbed_here;
                    op.last_absorb = now;
                    if op.remaining == 0 {
                        op_done = Some(stream.op);
                    }
                }
            }
            if let Some(opid) = op_done {
                self.ops_completed += 1;
                let op = self.ops.get(opid, "completed multicast op");
                self.metrics.trace(TraceEventKind::OpDone, now, op.src.0);
                if op.tagged {
                    self.metrics
                        .record_op_delivery(op.last_absorb, op.gen, op.src);
                    self.tagged_outstanding -= 1;
                }
                self.ops.free(opid, "completed multicast op");
                if closed {
                    self.arrived.push(ClosedDelivery::OpDone(opid));
                }
            }

            // --- message fully absorbed at the ejection hop ---
            if next_hop.is_some() {
                continue;
            }
            self.release(mid, h16, here);
            self.metrics.total_absorbed += 1;
            let msg = self.msgs.get(mid, "absorbed message");
            let (tagged, gen) = (msg.tagged, msg.gen);
            if msg.multicast.is_none() {
                // Multicast targets trace their absorbs in the stream's
                // absorb list above; unicasts here.
                self.metrics
                    .trace(TraceEventKind::Absorb, now, msg.path.dst.0);
                if tagged {
                    self.metrics.record_unicast_delivery(now, gen);
                    self.tagged_outstanding -= 1;
                }
                if closed {
                    self.arrived.push(ClosedDelivery::Unicast(mid));
                }
            }
            self.msgs.free(mid, "absorbed message");
        }
        self.applying = usize::MAX;
    }

    /// Phase 4: grant free channels to FIFO-first waiters; returns how
    /// many new owners were installed.
    fn grant(&mut self) -> usize {
        let mut granted = 0;
        let buffer_depth = self.cfg.buffer_depth;
        let regrant = std::mem::take(&mut self.regrant);
        for &cv_u in &regrant {
            let cv = &mut self.cvs[cv_u as usize];
            if !cv.is_free() || cv.wait_head == NO_MSG {
                continue;
            }
            let m = cv.wait_head;
            let msg = self.msgs.get_mut(m, "granted waiter");
            cv.wait_head = std::mem::replace(&mut msg.next_waiter, NO_MSG);
            if cv.wait_head == NO_MSG {
                cv.wait_tail = NO_MSG;
            }
            let h = msg.head;
            msg.head += 1;
            (cv.owner, cv.hop) = (m, h);
            granted += 1;
            let hop = msg.path.hops[h as usize];
            let channel = hop.channel.idx();
            let ch = &mut self.channels[channel];
            ch.owned |= 1 << hop.vc.0;
            if ch.set_ready(hop.vc.0, msg.can_move(h as usize, buffer_depth)) {
                self.disturbed.push(channel as u32);
            }
            self.active.insert(channel);
            self.metrics
                .trace(TraceEventKind::Grant, self.cycle, channel as u32);
            // A claim needs the header past its injection channel and a
            // hop left to claim ([`Fabric::claim_window`]).
            if self.may_claim && h > 0 && (h as usize) + 1 < msg.path.len() {
                self.offers.push(m);
            }
        }
        self.regrant = regrant;
        self.regrant.clear();
        granted
    }

    /// Simulate exactly cycle `cycle` (the driver vouches that every
    /// cycle skipped since the last one was inert). Inside the window
    /// ([`Fabric::in_window`]) newly generated messages join the measured
    /// population and flit moves count toward utilisation.
    pub(crate) fn step(&mut self, cycle: u64, due: &mut impl TimeAdvance) -> CycleOutcome {
        debug_assert!(cycle > self.cycle);
        self.cycle = cycle;
        self.settle_through = cycle - 1;
        let window = self.in_window(cycle);
        self.generate(window, due);
        self.select_moves();
        let moved = !self.moves.is_empty();
        if !moved && self.coasts.is_empty() && self.holds() {
            // Traffic holds channels but nothing can move this cycle (a
            // coast moves a flit on every cycle of its window).
            self.metrics.trace(TraceEventKind::Stall, cycle, 0);
        }
        self.apply_moves(window);
        self.closed_deliver(due);
        let granted = self.grant();
        let coasting = !self.coasts.is_empty();
        if moved || granted > 0 || coasting {
            // A grant is progress too: the channel an arrival's own cycle
            // just granted is held, but not by anything stuck. So is a
            // coast, which moved a flit on every hop.
            self.last_move_cycle = cycle;
        }
        if !(self.coasts.is_empty() && self.disturbed.is_empty()) {
            self.settle_coasts();
        }
        if !self.landed.is_empty() {
            self.start_coasts();
        }
        if !self.offers.is_empty() {
            self.start_claims();
        }
        let settled = std::mem::take(&mut self.settled);
        CycleOutcome {
            moved,
            granted,
            settled,
        }
    }

    // ------------------------------------------------------------------
    // Closed-loop drive: the protocol machines are the traffic source.
    // ------------------------------------------------------------------

    /// Dispatch every absorption `apply_moves` recorded this cycle (in
    /// absorption order) and perform the resulting actions; new
    /// injections enqueue before the grant phase.
    fn closed_deliver(&mut self, due: &mut impl TimeAdvance) {
        if self.arrived.is_empty() {
            return;
        }
        let driver = self.closed.as_mut().expect("closed-loop driver present");
        for &d in &self.arrived {
            let (node, payload) = match d {
                ClosedDelivery::Unicast(mid) => driver.unicast_delivered(mid),
                ClosedDelivery::Absorb { op, target } => (target, driver.absorb_payload(op)),
                ClosedDelivery::OpDone(op) => {
                    driver.op_done(op);
                    continue;
                }
            };
            let event = AppEvent::Delivery(payload);
            driver.dispatch(self.cycle, node, event, &mut self.actions);
        }
        self.arrived.clear();
        self.closed_perform(due);
    }

    /// Perform the pending protocol actions: generate the requested
    /// messages (all tagged — closed-loop statistics cover the whole
    /// run) and hand timers to the driver's schedule.
    fn closed_perform(&mut self, due: &mut impl TimeAdvance) {
        if self.actions.is_empty() {
            return;
        }
        let actions = std::mem::take(&mut self.actions);
        for &action in &actions {
            match action {
                Action::Unicast { src, dst, payload } => {
                    let id = self.start_unicast(src, dst, true);
                    self.closed
                        .as_mut()
                        .expect("closed-loop driver present")
                        .note_unicast(id, dst, payload);
                }
                Action::Multicast { src, payload } => {
                    let op = self.start_multicast(src, true);
                    self.closed
                        .as_mut()
                        .expect("closed-loop driver present")
                        .note_multicast(op, payload);
                }
                Action::Timer { node, at } => due.schedule(at, node.0),
            }
        }
        self.actions = actions;
        self.actions.clear();
    }

    // ------------------------------------------------------------------
    // Flights: a group of arrivals on an empty fabric, applied in closed
    // form.
    // ------------------------------------------------------------------

    /// Can any arrival of this run fly? A flight records no trace event
    /// and no utilization window, hands no delivery to a protocol machine,
    /// and its closed form is that of buffers deep enough to stream (at
    /// depth 1 a hop moves every other cycle): runs with telemetry, a
    /// closed loop or single-flit buffers are stepped, not emulated.
    pub(crate) fn flights_possible(&self) -> bool {
        self.closed.is_none() && !self.cfg.telemetry.enabled() && self.cfg.buffer_depth >= 2
    }

    /// Open a group whose first arrival is due at `c0`, on a fabric with
    /// no live message and nothing held. The fabric is not touched until
    /// the group flies.
    pub(crate) fn begin_group(&mut self, c0: u64) {
        debug_assert!(self.flights_possible() && c0 > self.cycle);
        debug_assert!(self.msgs.is_empty() && self.ops.is_empty() && self.regrant.is_empty());
        debug_assert_eq!((self.inj_backlog, self.tagged_outstanding), (0, 0));
        debug_assert!(self.held.is_empty());
        let g = &mut self.group;
        if g.last_move.len() != self.plan.num_channels {
            g.last_move = vec![0; self.plan.num_channels];
        }
        g.members.clear();
        g.spawned.clear();
        g.end = c0;
    }

    /// The last absorption of any member admitted so far: arrivals due
    /// before it overlap the group in time and are offered to it.
    pub(crate) fn group_end(&self) -> u64 {
        self.group.end
    }

    /// Offer the group `arrival`, drawn for `node` at cycle `at` (arrivals
    /// come in `(cycle, node)` order). It is held whatever the verdict, so
    /// a declined group's arrivals spawn at their own cycles. `false`
    /// declines the whole group.
    ///
    /// Alone on the fabric, with `hops = path.len()` (injection and
    /// ejection hops included) and `L` flits, a message is granted hop `h`
    /// at cycle `at + h` and moves a flit across it on each of the cycles
    /// `at + h + 1 ..= at + h + L`: at depth ≥ 2 no buffer ever holds more
    /// than the flit in transit, so neither supply nor credit stalls a
    /// hop. The tail leaves the ejection hop, and frees the message, at
    /// `at + hops − 1 + L`. Messages contend only for physical channels,
    /// so members that never hold one over overlapping cycles each move
    /// as if alone. The arrival is declined when
    ///
    /// * a hop's grant cycle is no later than the last move of a window
    ///   admitted on its physical channel before — another member's, or
    ///   its own streams': they would take turns. Windows must come in
    ///   admission order, so a channel's last admitted user is its last;
    /// * it would not end strictly before `measure_end`: from there on the
    ///   oracle may end the run mid-flight (an untagged message does not
    ///   hold a run open) and moves stop being measured. The drain
    ///   deadline lies at or past `measure_end`, so this covers it;
    /// * its moves, on cycles `at + 1 ..= end`, straddle the warmup
    ///   boundary: `measuring` is one verdict for all of them. Tagging is
    ///   `in_window(at)` and has no such constraint — a message generated
    ///   at `warmup` is untagged and measured;
    /// * the group spawns more than `backlog_limit` messages on its cycle:
    ///   the oracle's end-of-run check fires there.
    pub(crate) fn admit(&mut self, at: u64, node: NodeId, arrival: Arrival) -> bool {
        self.held.push_back((at, node, arrival));
        let len = u64::from(self.wl.msg_len);
        let unicast = match arrival {
            Arrival::Unicast(dst) => Some(self.plan.unicast_path(node, dst)),
            Arrival::Multicast => None,
        };
        let mut member = Member {
            at,
            node,
            unicast,
            end: 0,
        };
        let Some(longest) = member.paths(&self.plan).map(|path| path.len()).max() else {
            return false; // no stream configured: the stepped spawn reports it
        };
        member.end = at + longest as u64 - 1 + len;
        let warmup = self.cfg.warmup_cycles;
        if member.end >= self.cfg.measure_end() || (at < warmup && warmup < member.end) {
            return false;
        }
        let g = &mut self.group;
        let messages = member.paths(&self.plan).count();
        match g.spawned.last_mut() {
            Some((cycle, count)) if *cycle == at => *count += messages,
            _ => g.spawned.push((at, messages)),
        }
        if g.spawned
            .last()
            .is_some_and(|&(_, n)| n > self.cfg.backlog_limit)
        {
            return false;
        }
        // Every window starts at or after the group's first arrival, and
        // every stamp an earlier group left is older: no reset needed.
        for path in member.paths(&self.plan) {
            for (h, hop) in path.hops.iter().enumerate() {
                let grant = at + h as u64;
                let last = &mut g.last_move[hop.channel.idx()];
                if grant <= *last {
                    return false;
                }
                *last = grant + len;
            }
        }
        g.end = g.end.max(member.end);
        g.members.push(member);
        true
    }

    /// Fly the admitted group and jump to the cycle its last flit is
    /// absorbed on. Returns the arrivals flown and the cycles they covered
    /// (each from its arrival to its last absorption); `None` declines and
    /// leaves the fabric as it was. The group is declined when it would
    /// not end strictly before `before`, the next event outside it: on
    /// that event's cycle the newcomer would find the group's channels
    /// held. Same-cycle samples of one population need no declination:
    /// they are recorded in channel order ([`Fabric::settle_deliveries`]).
    pub(crate) fn fly_group(&mut self, before: u64) -> Option<(u64, u64)> {
        let mut g = std::mem::take(&mut self.group);
        let flown = (g.end < before).then(|| {
            self.settle_deliveries(&mut g);
            self.apply_group(&g)
        });
        self.group = g;
        flown
    }

    /// List the group's deliveries in the order the oracle records them:
    /// by cycle, and within a cycle and a population by the channel of the
    /// delivering move, which same-cycle moves apply in. A unicast is
    /// delivered by its ejection hop's move; an operation by the last of
    /// its absorptions, whose moves are the ejection hops of its longest
    /// streams: the one on the highest channel applies last.
    fn settle_deliveries(&self, g: &mut Group) {
        g.deliveries.clear();
        for m in g.members.iter().filter(|m| self.in_window(m.at)) {
            let (sample, channel) = match &m.unicast {
                Some(path) => (Sample::Unicast, path.hops[path.len() - 1].channel.0),
                None => {
                    let longest = m.paths(&self.plan).map(|path| path.len()).max();
                    let last = m
                        .paths(&self.plan)
                        .filter(|path| Some(path.len()) == longest)
                        .map(|path| path.hops[path.len() - 1].channel.0)
                        .max();
                    (
                        Sample::Operation,
                        last.expect("a flown operation has streams"),
                    )
                }
            };
            g.deliveries.push((m.end, sample, channel, m.at, m.node));
        }
        g.deliveries
            .sort_unstable_by_key(|&(cycle, sample, channel, ..)| (cycle, sample, channel));
    }

    /// Write what the oracle's steps over the group's cycles write, in
    /// the order it writes them wherever the order can show.
    fn apply_group(&mut self, g: &Group) -> (u64, u64) {
        // What the selection of the first cycle starts with: with no live
        // message every channel in the set is one whose last cv went. The
        // set then stays empty — the group's channels are all released by
        // its end, and nothing is held ([`Fabric::holds`]).
        debug_assert!(self.channels.iter().all(|ch| ch.owned == 0));
        self.active.clear();

        // Every hop: `L` moves under its member's one `measuring` verdict,
        // the last of which leaves the round-robin pointer just past the
        // hop's vc. A channel's windows were admitted in time order, so
        // its last user writes last.
        let len = u64::from(self.wl.msg_len);
        let (mut messages, mut ops, mut covered) = (0, 0, 0);
        for m in &g.members {
            let measuring = self.in_window(m.at + 1);
            for path in m.paths(&self.plan) {
                messages += 1;
                for (h, hop) in path.hops.iter().enumerate() {
                    let pc = hop.channel.idx();
                    self.channels[pc].pass(hop.vc.0, self.plan.vcs[pc]);
                    self.metrics
                        .record_flit_moves_bulk(m.at + h as u64, pc, len, measuring);
                }
            }
            let tagged = u64::from(self.in_window(m.at));
            if m.unicast.is_some() {
                self.metrics.unicast_injected += tagged;
            } else {
                ops += 1;
                self.metrics.multicast_injected += tagged;
            }
            covered += m.end - m.at + 1;
        }
        self.metrics.total_generated += messages;
        self.metrics.total_absorbed += messages;
        self.ops_allocated += ops;
        self.ops_completed += ops;
        // A cycle's arrivals queue beside the previous cycle's, whose
        // headers leave the injection channels after generation.
        for (i, &(at, spawned)) in g.spawned.iter().enumerate() {
            let previous = i.checked_sub(1).map(|j| g.spawned[j]);
            let waiting = previous.filter(|&(c, _)| c + 1 == at).map_or(0, |(_, n)| n);
            self.peak_backlog = self.peak_backlog.max(spawned + waiting);
        }

        for &(cycle, sample, _, gen, src) in &g.deliveries {
            match sample {
                Sample::Unicast => self.metrics.record_unicast_delivery(cycle, gen),
                Sample::Operation => self.metrics.record_op_delivery(cycle, gen, src),
            }
        }

        self.cycle = g.end;
        self.last_move_cycle = g.end;
        self.held.clear();
        (g.members.len() as u64, covered)
    }

    // ------------------------------------------------------------------
    // Coasts: a header crossing the free route ahead, or a streaming or
    // draining message body, applied in closed form beside stepped
    // traffic.
    // ------------------------------------------------------------------

    /// Start a coast for each landed message — its header has crossed its
    /// last hop — whose every hop the tail has not crossed is the one ready
    /// cv of its channel, with no other coast there: at the end of the
    /// cycle, so what selection will read next is known. Those hops' ready
    /// bits become coast bits; it stays owner of its cvs, and the channels
    /// it alone kept selectable leave the set at the next selection. A
    /// message stays landed until it coasts, or its tail is too close to
    /// its last hop for a window of two cycles — which comes before its
    /// delivery, and so before the message is freed. A claim on a cv of one
    /// of those channels whose grant is still to come is settled first
    /// (the channel is then the body's alone); one already granted counts
    /// as the ready cv a stepped header would be.
    ///
    /// A header coasts too, as a *claim* ([`Fabric::start_claims`]): from
    /// the end of a cycle in which it was granted a hop, or its claim was
    /// settled, it claims the free cvs ahead of it and crosses them one
    /// hop a cycle — the zero-load term of the paper's latency — until it
    /// lands, when its body may coast in turn.
    ///
    /// An event-engine fabric coasts from construction to
    /// [`Fabric::finish`], telemetry and closed loops included; the oracle
    /// never does. A coast moves a flit across each hop it holds on every
    /// cycle of its window ([`Fabric::coast_window`],
    /// [`Fabric::claim_window`]) and is settled ([`Fabric::settle`]):
    ///
    /// * on the window's last cycle;
    /// * at the end of a cycle in which a grant or a refresh made another
    ///   cv on one of its channels ready, since its cv is no longer picked
    ///   alone ([`Fabric::settle_coasts`]) — for a claim, on the channels
    ///   of the hops it claimed too, where it would not be alone once
    ///   granted;
    /// * when a header requests one of its cvs or claims, since the
    ///   release the header waits for, or the grant of the cv it asks for,
    ///   may lie inside the window ([`Fabric::request`]); a claim is then
    ///   settled so that the two requests queue as on the oracle
    ///   ([`Fabric::interrupt`]);
    /// * when a body would coast beside a cv it claimed and has not been
    ///   granted yet (above);
    /// * when the run ends.
    ///
    /// A claimed cv is free with no waiter, and such a cv changes only
    /// through a request: so a request is the one trigger a claim adds.
    /// The window holds no event whose order can show: no request but a
    /// claim's own (a body's header has landed), no absorption, delivery
    /// or free (the window ends before the first), no grant but a claim's
    /// of the cvs it holds, and only releases nobody is queued for.
    /// Telemetry and closed loops read events, not flits, so they lose
    /// nothing either: there is no grant while a trace is recorded (no
    /// claim starts), no absorption or delivery to trace or to hand a
    /// protocol machine, no release while a trace is recorded (a trace
    /// keeps events in emission order), and the utilization series takes
    /// the moves as one range per hop. One tap reads a cycle's moves: a
    /// stepped cycle traces `Stall` when channels are held and nothing
    /// moves, and a coast moves, so the tap also asks that nothing coasts.
    fn start_coasts(&mut self) {
        let mut landed = std::mem::take(&mut self.landed);
        let mut claimants = std::mem::take(&mut self.claimants);
        let mut kept = 0;
        for i in 0..landed.len() {
            let m = landed[i];
            let msg = self.msgs.get(m, "landed message");
            if !may_yet_coast(msg) {
                continue;
            }
            claimants.clear();
            let Some((first, until)) = self.coast_window(msg, &mut claimants) else {
                landed[kept] = m;
                kept += 1;
                continue;
            };
            for &c in &claimants {
                let coast = self.msgs.get(c, "claimant").coast;
                if coast != NO_COAST {
                    let coast = self.end_coast(coast as usize);
                    self.settle(coast, self.cycle);
                }
            }
            let msg = self.msgs.get(m, "landed message");
            for hop in &msg.path.hops[first..] {
                let ch = &mut self.channels[hop.channel.idx()];
                (ch.ready, ch.coast) = (0, 1 << hop.vc.0);
            }
            self.msgs.get_mut(m, "landed message").coast = self.coasts.len() as u32;
            self.coasts.push(Coast {
                msg: m,
                claimed_to: 0,
                from: self.cycle,
                until,
            });
            self.coast_counts.0 += 1;
        }
        landed.truncate(kept);
        self.claimants = claimants;
        self.landed = landed;
    }

    /// `(first, until)`: the first hop of `msg` its tail has not crossed,
    /// and the last cycle of its coast from the end of this one; `None`
    /// when it may not coast now. The claimants whose claims must be
    /// settled before it coasts are added to `claimants`.
    ///
    /// Every hop of a message whose header has crossed its last hop is
    /// granted. When each hop `first ..` is ready and the only ready cv of
    /// its channel, each is picked next cycle and moves: every counter
    /// grows by one, so every supply and credit verdict — a function of
    /// differences of neighbouring counters — reads as before. Once the
    /// tail has crossed a hop it stops, and its successor's supply holds
    /// until it stops too, so after `n` cycles `t[h] = min(L, t[h] + n)`:
    /// hop `h` stops on the cycle its tail crosses, and hop `h − 1` is
    /// released on it. The window stops a cycle short of the first
    /// absorption or delivery, of the first release of a cv a header waits
    /// for (or of any release, when a trace is recorded), and of a warmup,
    /// measurement or deadline boundary ([`Fabric::bounded`]), so that its
    /// moves share one `measuring` verdict and every end-of-run check falls
    /// on a stepped cycle.
    fn coast_window(&self, msg: &ActiveMsg, claimants: &mut Vec<MsgId>) -> Option<(usize, u64)> {
        let hops = &msg.path.hops[..];
        debug_assert_eq!(msg.head as usize, hops.len());
        let (c, len, t) = (self.cycle, msg.len, &msg.traversed);
        let first = t.iter().position(|&moved| moved < len)?;
        for hop in &hops[first..] {
            let pc = hop.channel.idx();
            let ch = self.channels[pc];
            if ch.ready != 1 << hop.vc.0 {
                return None;
            }
            if ch.coast != 0 {
                claimants.push(self.claimant_to_come(pc)?);
            }
        }
        // The hop whose tail crossing absorbs or delivers next.
        let stop = match &msg.multicast {
            Some(stream) => stream.absorbs[stream.next_absorb as usize].0 as usize,
            None => hops.len() - 1,
        };
        let mut k = self.bounded(u64::from(len - 1 - t[stop]));
        // Hop `h − 1` is released when the tail crosses `h`, on cycle
        // `c + L − t[h]`; the earliest hops release first.
        let tracing = self.metrics.tracing();
        for h in first.max(1)..hops.len() {
            let short = u64::from(len - 1 - t[h]);
            if short >= k {
                break; // this release and every later one fall past the window
            }
            if tracing || self.cvs[self.plan.cv_index(hops[h - 1]) as usize].wait_head != NO_MSG {
                k = short;
                break;
            }
        }
        (k >= 2).then_some((first, c + k))
    }

    /// A window of `k` cycles from the end of this one, cut a cycle short
    /// of the next warmup, measurement or deadline boundary.
    fn bounded(&self, mut k: u64) -> u64 {
        let (c, warmup, measure_end) = (self.cycle, self.cfg.warmup_cycles, self.cfg.measure_end());
        if c < warmup {
            k = k.min(warmup - c);
        } else if c < measure_end {
            k = k.min(measure_end - c);
        }
        k.min(self.cfg.deadline().saturating_sub(c))
    }

    /// The claimant of the coasting cv of channel `pc`, when that cv is
    /// claimed and its grant is still to come: on the oracle the channel
    /// has no ready cv of the claimant's yet. `None` when the coast bit is
    /// a body's, or a claim's already granted.
    fn claimant_to_come(&self, pc: usize) -> Option<MsgId> {
        let cv = self.plan.cv_base[pc] + self.channels[pc].coast.trailing_zeros();
        let state = self.cvs[cv as usize];
        if !state.claimed {
            return None;
        }
        let msg = self.msgs.get(state.owner, "claimant");
        let from = self.coasts[msg.coast as usize].from;
        let grant = from + u64::from(state.hop - (msg.head - 1));
        (grant > self.cycle).then_some(state.owner)
    }

    /// Start a claim for each message offered one this cycle
    /// ([`Fabric::offers`]) whose header can cross the route ahead alone
    /// ([`Fabric::claim_window`]). The hops it holds turn their ready bits
    /// into coast bits, as a body's do; each cv it claims takes it as
    /// claimant and its channel a coast bit, so that a cv another header
    /// requests, or a cv that turns ready beside one it will move across,
    /// settles it first.
    fn start_claims(&mut self) {
        let offers = std::mem::take(&mut self.offers);
        for &m in &offers {
            let msg = self.msgs.get(m, "offered message");
            if msg.coast != NO_COAST {
                continue; // offered twice
            }
            let Some((first, claimed_to, until)) = self.claim_window(msg) else {
                continue;
            };
            let head = msg.head as usize;
            for (k, hop) in msg.path.hops[..=claimed_to].iter().enumerate().skip(first) {
                let ch = &mut self.channels[hop.channel.idx()];
                if k < head {
                    (ch.ready, ch.coast) = (0, 1 << hop.vc.0);
                } else {
                    ch.coast = 1 << hop.vc.0;
                    let cv = &mut self.cvs[self.plan.cv_index(*hop) as usize];
                    (cv.owner, cv.hop, cv.claimed) = (m, k as u16, true);
                }
            }
            self.msgs.get_mut(m, "offered message").coast = self.coasts.len() as u32;
            self.coasts.push(Coast {
                msg: m,
                claimed_to: claimed_to as u16,
                from: self.cycle,
                until,
            });
            self.claim_counts.0 += 1;
        }
        self.offers = offers;
        self.offers.clear();
    }

    /// `(first, claimed_to, until)`: the first hop of `msg` its tail has
    /// not crossed, the last hop it claims and the last cycle of its claim
    /// from the end of this one; `None` when it may not claim now.
    ///
    /// Its header must stand in the buffer before hop `h = head − 1`,
    /// granted and not crossed yet — past the injection queue, whose
    /// length the backlog checks read every cycle — and each hop
    /// `first ..= h` must be ready and the only ready cv of its channel,
    /// with no coast there: each is picked next cycle and moves, and the
    /// header crosses `h` and requests `h + 1`. It claims the longest run
    /// of hops `h + 1 ..` whose cvs are free with no waiter, on channels
    /// with no ready cv and no coast: each is granted on the cycle the
    /// header requests it, `g_k = c + k − h`, and moves from `g_k + 1` on.
    /// At buffer depth 2 or more the buffer a newly granted hop drains
    /// holds the one flit in transit, and every other difference of
    /// neighbouring counters stands as it was, so every granted hop moves
    /// each cycle until the tail crosses it. The window ends a cycle short
    /// of the tail's first crossing — there it stops a hop and releases
    /// another, as the body's window does — of the header's request for
    /// the first cv it did not claim, and of a boundary
    /// ([`Fabric::bounded`]); on the cycle it lands at the latest, when
    /// its body may coast in turn.
    fn claim_window(&self, msg: &ActiveMsg) -> Option<(usize, usize, u64)> {
        let (hops, t, head) = (&msg.path.hops[..], &msg.traversed, msg.head as usize);
        if head < 2 || head == hops.len() || t[head - 1] != 0 {
            return None;
        }
        let claimable = |hop: &noc_topology::Hop| {
            let ch = self.channels[hop.channel.idx()];
            let cv = &self.cvs[self.plan.cv_index(*hop) as usize];
            cv.is_free() && cv.wait_head == NO_MSG && ch.ready == 0 && ch.coast == 0
        };
        let claimed = hops[head..].iter().take_while(|hop| claimable(hop)).count();
        if claimed == 0 {
            return None;
        }
        let first = t.iter().position(|&moved| moved < msg.len)?;
        let alone = |hop: &noc_topology::Hop| {
            let ch = self.channels[hop.channel.idx()];
            ch.ready == 1 << hop.vc.0 && ch.coast == 0
        };
        if !hops[first..head].iter().all(alone) {
            return None;
        }
        let (h, claimed_to) = (head - 1, head - 1 + claimed);
        // The header lands on `g_last + 1`, or requests the first hop it
        // did not claim on `g_claimed_to + 1`.
        let ahead = (claimed_to - h + usize::from(claimed_to + 1 == hops.len())) as u64;
        let k = self.bounded(ahead.min(u64::from(msg.len - t[first]) - 1));
        (k >= 2).then_some((first, claimed_to, self.cycle + k))
    }

    /// The earliest last cycle of a coast (`u64::MAX`: none coasts).
    pub(crate) fn next_coast_end(&self) -> u64 {
        self.coasts
            .iter()
            .map(|c| c.until)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Take coast `i` off the list, keeping every index its message holds.
    fn end_coast(&mut self, i: usize) -> Coast {
        let coast = self.coasts.swap_remove(i);
        if let Some(moved) = self.coasts.get(i) {
            self.msgs.get_mut(moved.msg, "coasting message").coast = i as u32;
        }
        self.msgs.get_mut(coast.msg, "coasting message").coast = NO_COAST;
        coast
    }

    /// At the end of a cycle: settle every coast beside which a grant or
    /// a refresh set a ready bit — next cycle its cv is no longer picked
    /// alone — and every one whose window ends on it.
    fn settle_coasts(&mut self) {
        let disturbed = std::mem::take(&mut self.disturbed);
        for &pc in &disturbed {
            let ch = self.channels[pc as usize];
            if ch.coast != 0 && ch.ready != 0 {
                let cv = self.plan.cv_base[pc as usize] + ch.coast.trailing_zeros();
                let m = self.cvs[cv as usize].owner;
                let i = self.msgs.get(m, "coasting message").coast as usize;
                let coast = self.end_coast(i);
                self.settle(coast, self.cycle);
            }
        }
        self.disturbed = disturbed;
        self.disturbed.clear();
        let mut i = 0;
        while i < self.coasts.len() {
            if self.coasts[i].until == self.cycle {
                let coast = self.end_coast(i);
                self.settle(coast, self.cycle);
            } else {
                i += 1;
            }
        }
    }

    /// Write what the oracle's steps wrote for `coast` on the cycles
    /// `from + 1 ..= through`, and put its message back in selection.
    fn settle(&mut self, coast: Coast, through: u64) {
        if coast.is_claim() {
            self.settle_claim(coast, through);
        } else {
            self.settle_body(coast, through);
        }
        self.settled = true;
    }

    /// [`Fabric::settle`] a claim: each hop `first ..` granted by then
    /// moved a flit on each cycle after its grant (`from` for the hops
    /// granted before the claim), under the one `measuring` verdict the
    /// window shares, and each pick left the round-robin pointer just past
    /// the hop's vc. The claimed cvs granted by `through` become owned, the
    /// rest free again. Every counter grows first; only then are the ready
    /// bits re-derived. A claimant that has landed may coast on as a body;
    /// one that has not is offered a claim again at the end of the cycle.
    fn settle_claim(&mut self, coast: Coast, through: u64) {
        let n = through - coast.from;
        let measuring = self.in_window(coast.from + 1);
        let msg = self.msgs.get_mut(coast.msg, "claimant");
        let (len, h, claimed_to) = (msg.len, msg.head as usize - 1, coast.claimed_to as usize);
        let first = msg.traversed.iter().position(|&t| t < len);
        let first = first.expect("a claimant's tail is behind its header");
        // Hops `..= granted` are granted by `through`.
        let granted = (h as u64 + n).min(claimed_to as u64) as usize;
        let grant = |k: usize| coast.from + k.saturating_sub(h) as u64;
        let mut moves = 0;
        for k in first..=granted {
            let moved = through - grant(k);
            if moved > 0 {
                msg.traversed[k] += moved as u32;
                moves += moved;
                let pc = msg.path.hops[k].channel.idx();
                self.metrics
                    .record_flit_moves_bulk(grant(k), pc, moved, measuring);
            }
        }
        msg.head = granted as u16 + 1;
        self.claim_counts.1 += moves;
        let (msg, buffer_depth) = (self.msgs.get(coast.msg, "claimant"), self.cfg.buffer_depth);
        for k in first..=claimed_to {
            let hop = msg.path.hops[k];
            let (pc, bit) = (hop.channel.idx(), 1 << hop.vc.0);
            let ch = &mut self.channels[pc];
            ch.coast &= !bit;
            if k > h {
                let cv = &mut self.cvs[self.plan.cv_index(hop) as usize];
                cv.claimed = false;
                if k > granted {
                    cv.owner = NO_MSG;
                    continue;
                }
                ch.owned |= bit;
            }
            if through > grant(k) {
                ch.pass(hop.vc.0, self.plan.vcs[pc]);
            }
            ch.set_ready(hop.vc.0, msg.can_move(k, buffer_depth));
            self.active.insert(pc);
        }
        let landed = granted + 1 == msg.path.len() && msg.traversed[granted] > 0;
        if !landed {
            self.offers.push(coast.msg);
        } else if may_yet_coast(msg) {
            self.landed.push(coast.msg);
        }
    }

    /// [`Fabric::settle`] a body: each hop `first ..` the tail had not crossed
    /// at `from` (the counters still stand there) moved a flit on each
    /// until its tail crossed, under the one `measuring` verdict the window
    /// shares (integer sums, so their order is free), and each pick left
    /// the round-robin pointer just past the hop's vc; each hop behind a
    /// crossed one was released. Every counter grows first; only then are
    /// the ready bits re-derived, or a hop would read ahead of the one
    /// upstream of it.
    fn settle_body(&mut self, coast: Coast, through: u64) {
        let n = through - coast.from;
        let measuring = self.in_window(coast.from + 1);
        let msg = self.msgs.get_mut(coast.msg, "coasting message");
        let len = msg.len;
        let first = msg
            .traversed
            .iter()
            .position(|&t| t < len)
            .expect("a coast ends before delivery");
        let mut moves = 0;
        for (t, hop) in msg.traversed[first..]
            .iter_mut()
            .zip(&msg.path.hops[first..])
        {
            let k = n.min(u64::from(len - *t));
            if k > 0 {
                *t += k as u32;
                moves += k;
                self.metrics
                    .record_flit_moves_bulk(coast.from, hop.channel.idx(), k, measuring);
            }
        }
        self.coast_counts.1 += moves;
        let msg = self.msgs.get(coast.msg, "coasting message");
        let (path, buffer_depth) = (Arc::clone(&msg.path), self.cfg.buffer_depth);
        for h in first.saturating_sub(1)..path.len() {
            let (hop, msg) = (path.hops[h], self.msgs.get(coast.msg, "coasting message"));
            let (pc, ready) = (hop.channel.idx(), msg.can_move(h, buffer_depth));
            let released = h + 1 < path.len() && msg.traversed[h + 1] == len;
            if h >= first {
                let ch = &mut self.channels[pc];
                ch.coast &= !(1 << hop.vc.0);
                if n > 0 {
                    ch.pass(hop.vc.0, self.plan.vcs[pc]);
                }
                if !released {
                    ch.set_ready(hop.vc.0, ready);
                    self.active.insert(pc);
                }
            }
            if released {
                // The tail crossed `h + 1` inside the window, which holds
                // no release while a trace is recorded.
                debug_assert!(!self.metrics.tracing());
                self.release(coast.msg, h as u16, hop);
            }
        }
        if self.may_coast {
            // Its body may stream alone again.
            self.landed.push(coast.msg);
        }
    }

    // ------------------------------------------------------------------
    // The run protocol every driver follows: start, step…, run_end, finish.
    // ------------------------------------------------------------------

    /// Begin a run. Open loop: nothing to do. Closed loop: dispatch
    /// [`AppEvent::Start`] to every machine in node order, perform the
    /// resulting injections (eligible to move next cycle, like any
    /// cycle-0 arrival) and take the first end-of-run check — closed-loop
    /// runs are checked *before* each cycle, open-loop runs after.
    pub(crate) fn start(&mut self, due: &mut impl TimeAdvance) -> Option<RunEnd> {
        let driver = self.closed.as_mut()?;
        for node in 0..self.plan.n {
            let node = NodeId(node as u32);
            driver.dispatch(self.cycle, node, AppEvent::Start, &mut self.actions);
        }
        self.closed_perform(due);
        self.grant();
        self.run_end()
    }

    /// Is `cycle` inside the tagging/measurement window? Closed-loop
    /// runs have no warmup: every cycle is measured.
    #[inline]
    pub(crate) fn in_window(&self, cycle: u64) -> bool {
        self.closed.is_some() || (cycle > self.cfg.warmup_cycles && cycle <= self.cfg.measure_end())
    }

    /// Is a closed-loop protocol installed?
    #[inline]
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.is_some()
    }

    /// Flits exist in the network (owned channels) but nothing has moved
    /// or been granted for the watchdog window.
    #[inline]
    fn watchdog_fires(&self) -> bool {
        self.cycle.saturating_sub(self.last_move_cycle) > WATCHDOG_WINDOW && self.holds()
    }

    /// Are channels held? True whenever a cv is owned: by a coast, or on
    /// a channel in the set — which may also, until selection looks
    /// again, name a channel whose last cv was released since.
    #[inline]
    pub(crate) fn holds(&self) -> bool {
        !self.active.is_empty() || !self.coasts.is_empty()
    }

    /// Does the run end at the current cycle? Completion (tagged traffic
    /// drained past the window; on closed-loop runs, protocol
    /// quiescence), else the deadline, backlog and watchdog safety nets.
    /// Every input only changes on simulated cycles or at a boundary the
    /// event engine's jumps stop on, so both drivers see the same answer.
    pub(crate) fn run_end(&self) -> Option<RunEnd> {
        let drained = self.tagged_outstanding == 0;
        let complete = match &self.closed {
            Some(driver) => drained && driver.quiescent(),
            None => drained && self.cycle >= self.cfg.measure_end(),
        };
        let (saturated, deadlocked) = if complete {
            (false, false)
        } else if self.cycle >= self.cfg.deadline() {
            (self.closed.is_some() || !drained, false)
        } else if self.inj_backlog > self.cfg.backlog_limit {
            (true, false)
        } else if self.cycle.is_multiple_of(WATCHDOG_STRIDE) && self.watchdog_fires() {
            (true, true)
        } else {
            return None;
        };
        Some(RunEnd {
            saturated,
            deadlocked,
        })
    }

    /// Assemble the results of a run that ended with `end`, settling every
    /// coast first: its moves up to the last cycle stepped.
    pub(crate) fn finish(&mut self, end: RunEnd, engine: EngineCounters) -> SimResults {
        while let Some(last) = self.coasts.len().checked_sub(1) {
            let coast = self.end_coast(last);
            self.settle(coast, self.cycle);
        }
        self.landed.clear();
        self.offers.clear();
        self.finished = true;
        let ((coasts, coast_moves), (claims, claim_moves)) = (self.coast_counts, self.claim_counts);
        let engine = EngineCounters {
            coasts,
            coast_moves,
            claims,
            claim_moves,
            ..engine
        };
        let cycles = self.cycle;
        // Normalise utilisation by the cycles actually spent measuring: a
        // run that breaks out early (saturation, backlog overflow) covers
        // less than the configured window.
        let measured_cycles = if self.closed.is_some() {
            cycles
        } else {
            cycles
                .min(self.cfg.measure_end())
                .saturating_sub(self.cfg.warmup_cycles)
        };
        let mut res = self.metrics.finish(
            end.saturated,
            end.deadlocked,
            cycles,
            self.peak_backlog,
            measured_cycles,
            engine,
        );
        if let Some(driver) = self.closed.as_mut() {
            let quiesced = self.tagged_outstanding == 0 && driver.quiescent();
            res.closed_loop = Some(driver.finish(cycles, quiesced));
        }
        res
    }

    // ------------------------------------------------------------------
    // Diagnostics.
    // ------------------------------------------------------------------

    /// The `(owned, ready)` masks of channel `pc` derived from scratch:
    /// every cv's owner asked whether it can move a flit. The reference
    /// the incrementally maintained [`ChannelState`] is held to. A claimed
    /// cv reads ready and not owned: its coast bit stands for the grant to
    /// come.
    fn reference_masks(&self, pc: usize) -> Result<(u8, u8), AuditError> {
        let base = self.plan.cv_base[pc];
        let (mut owned, mut ready) = (0u8, 0u8);
        for vc in 0..self.plan.vcs[pc] {
            let cv = (base + vc as u32) as usize;
            let (m, h) = (self.cvs[cv].owner, self.cvs[cv].hop);
            if m == NO_MSG {
                continue;
            }
            let msg = self
                .msgs
                .try_get(m)
                .ok_or(AuditError::DeadOwner { cv, msg: m })?;
            if self.cvs[cv].claimed {
                ready |= 1 << vc;
                continue;
            }
            owned |= 1 << vc;
            if msg.can_move(h as usize, self.cfg.buffer_depth) {
                ready |= 1 << vc;
            }
        }
        Ok((owned, ready))
    }

    /// A cv claimed by `msg` (`m`) as hop `hop` must be one its claim
    /// holds: the claim covers hops `head ..=` its last, and the hop maps
    /// to the cv.
    fn audit_claim(
        &self,
        cv: usize,
        m: MsgId,
        msg: &ActiveMsg,
        hop: u16,
    ) -> Result<(), AuditError> {
        let coast = self.coasts.get(msg.coast as usize);
        let holds =
            |c: &Coast| c.msg == m && c.is_claim() && (msg.head..=c.claimed_to).contains(&hop);
        if !coast.is_some_and(holds) {
            return Err(AuditError::StrayClaim { cv, msg: m, hop });
        }
        let maps_to = self.plan.cv_index(msg.path.hops[hop as usize]);
        if maps_to as usize != cv {
            return Err(AuditError::OwnerHopElsewhere {
                cv,
                msg: m,
                hop,
                maps_to,
            });
        }
        Ok(())
    }

    /// See [`crate::Engine::audit`].
    pub(crate) fn audit(&self) -> Result<EngineAudit, AuditError> {
        let mut owned_cvs = 0u64;
        let mut holders: HashSet<(MsgId, u16)> = HashSet::new();
        for (cv, state) in self.cvs.iter().enumerate() {
            let (m, h) = (state.owner, state.hop);
            if m == NO_MSG {
                continue;
            }
            let msg = self
                .msgs
                .try_get(m)
                .ok_or(AuditError::DeadOwner { cv, msg: m })?;
            if state.claimed {
                self.audit_claim(cv, m, msg, h)?;
                continue;
            }
            owned_cvs += 1;
            let hop = *msg
                .path
                .hops
                .get(h as usize)
                .ok_or(AuditError::OwnerHopBeyondPath { cv, msg: m, hop: h })?;
            let maps_to = self.plan.cv_index(hop);
            if maps_to as usize != cv {
                return Err(AuditError::OwnerHopElsewhere {
                    cv,
                    msg: m,
                    hop: h,
                    maps_to,
                });
            }
            if h >= msg.head {
                return Err(AuditError::OwnerPastHead {
                    cv,
                    msg: m,
                    hop: h,
                    head: msg.head,
                });
            }
            if !holders.insert((m, h)) {
                return Err(AuditError::HopOwnsTwo { msg: m, hop: h });
            }
            // A move selected on a stale verdict leaves its mark here: a
            // hop ahead of its supply, or a buffer over capacity.
            let t = &msg.traversed;
            let supply = if h == 0 { msg.len } else { t[h as usize - 1] };
            if t[h as usize] > supply || msg.occupancy(h as usize) > self.cfg.buffer_depth {
                return Err(AuditError::ImpossibleMove {
                    cv,
                    msg: m,
                    hop: h,
                    len: msg.len,
                    traversed: t.to_vec(),
                    buffer_depth: self.cfg.buffer_depth,
                });
            }
        }

        for (pc, ch) in self.channels.iter().enumerate() {
            let (owned, ready) = self.reference_masks(pc)?;
            if ch.masks() != (owned, ready) {
                return Err(AuditError::MasksDrifted {
                    channel: pc,
                    cached: ch.masks(),
                    actual: (owned, ready),
                });
            }
            if ch.rr() >= self.plan.vcs[pc] {
                return Err(AuditError::PointerPastVcs {
                    channel: pc,
                    rr: ch.rr(),
                    vcs: self.plan.vcs[pc],
                });
            }
            if ch.selectable() && !self.active.contains(pc) {
                return Err(AuditError::OwnedButInactive { channel: pc });
            }
        }
        let (counted, members, summarised) = self.active.counts();
        if counted != members || members != summarised {
            return Err(AuditError::ActiveSetMismatch {
                counted,
                members,
                summarised,
            });
        }

        // The leading granted hop is released last (with the message), so
        // a live message with a non-zero head cursor still owns it.
        for (m, msg) in self.msgs.iter() {
            if msg.head > 0 && !holders.contains(&(m, msg.head - 1)) {
                return Err(AuditError::HeadNotHeld {
                    msg: m,
                    head: msg.head,
                });
            }
        }

        let mut queued: HashSet<MsgId> = HashSet::new();
        for (cv, state) in self.cvs.iter().enumerate() {
            let (mut at, mut last) = (state.wait_head, NO_MSG);
            while at != NO_MSG {
                let msg = self
                    .msgs
                    .try_get(at)
                    .ok_or(AuditError::DeadWaiter { cv, msg: at })?;
                if !queued.insert(at) {
                    return Err(AuditError::WaiterQueuedTwice { cv, msg: at });
                }
                let wanted = msg.path.hops.get(msg.head as usize);
                if wanted.map(|&hop| self.plan.cv_index(hop) as usize) != Some(cv) {
                    return Err(AuditError::WaiterElsewhere {
                        cv,
                        msg: at,
                        head: msg.head,
                    });
                }
                (last, at) = (at, msg.next_waiter);
            }
            if state.wait_tail != last {
                return Err(AuditError::WaitTailMismatch {
                    cv,
                    wait_tail: state.wait_tail,
                    last,
                });
            }
        }

        if let Some((op, _)) = self.ops.iter().find(|(_, op)| op.remaining == 0) {
            return Err(AuditError::OpWithoutTargets { op });
        }
        let live_ops = self.ops.len() as u64;
        if self.ops_allocated != self.ops_completed + live_ops {
            return Err(AuditError::OpAccounting {
                allocated: self.ops_allocated,
                completed: self.ops_completed,
                live: live_ops,
            });
        }

        let live_messages = self.msgs.len() as u64;
        let (total_generated, total_absorbed) =
            (self.metrics.total_generated, self.metrics.total_absorbed);
        if total_generated != total_absorbed + live_messages {
            return Err(AuditError::MessageConservation {
                generated: total_generated,
                absorbed: total_absorbed,
                live: live_messages,
            });
        }
        // Every arrival held for its cycle was spawned on it.
        if let Some(&(at, node, _)) = self.held.front().filter(|&&(at, ..)| at <= self.cycle) {
            return Err(AuditError::HeldPastCycle {
                node,
                at,
                cycle: self.cycle,
            });
        }

        Ok(EngineAudit {
            cycle: self.cycle,
            live_messages,
            queued_messages: self.inj_backlog as u64,
            owned_cvs,
            live_ops,
            ops_allocated: self.ops_allocated,
            ops_completed: self.ops_completed,
            total_generated,
            total_absorbed,
            tagged_outstanding: self.tagged_outstanding,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineKind};
    use noc_topology::Quarc;
    use noc_workloads::{DestinationSets, Workload};

    /// The reference for [`ChannelState::pick`]: rotate through the
    /// channel's `nv` vcs from the pointer and take the first ready one.
    fn rotate_and_scan(ready: u8, rr: u8, nv: u8) -> Option<u8> {
        (0..nv)
            .map(|j| (rr + j) % nv)
            .find(|&vc| ready & (1 << vc) != 0)
    }

    #[test]
    fn pick_matches_rotate_and_scan_for_every_mask_pointer_and_width() {
        for nv in 1..=SimPlan::MAX_VCS {
            for ready in 0..=(u8::MAX >> (8 - nv)) {
                for rr in 0..nv {
                    let ch = ChannelState {
                        owned: ready,
                        ready,
                        coast: 0,
                        rr,
                    };
                    assert_eq!(
                        ch.pick(),
                        rotate_and_scan(ready, rr, nv),
                        "ready {ready:#010b} rr {rr} nv {nv}"
                    );
                }
            }
        }
    }

    /// Quarc-16, whose only traffic is 16-flit unicasts `0 → 3` generated
    /// at `cycles`.
    fn unicasts_0_to_3(cycles: &[u64]) -> (Quarc, Workload) {
        use noc_workloads::{TraceEntry, TraceKind, TrafficSpec};
        let topo = Quarc::new(16).unwrap();
        let arrivals = cycles.iter().map(|&cycle| TraceEntry {
            cycle,
            node: 0,
            kind: TraceKind::Unicast { dst: 3 },
        });
        let wl = Workload::new(16, 0.0, 0.0, DestinationSets::random(&topo, 4, 1))
            .unwrap()
            .with_traffic(TrafficSpec::trace(arrivals.collect()));
        (topo, wl)
    }

    /// `wl` on `topo` run to the end of cycle `x`, with the utilization
    /// series on so that nothing flies: each message's arena slot is the
    /// one a stepped run gives it.
    fn run_to<'a>(kind: EngineKind, topo: &Quarc, wl: &'a Workload, x: u64) -> Engine<'a> {
        let cfg = SimConfig {
            warmup_cycles: x - 1,
            measure_cycles: 1,
            drain_cycles: 0,
            ..SimConfig::quick(1)
        };
        let telemetry = noc_telemetry::TelemetrySpec::off().with_util_window(64);
        let mut sim = Engine::new(topo, wl, cfg.with_engine(kind).with_telemetry(telemetry));
        sim.run();
        assert_eq!(sim.now(), x, "the run ends with its window");
        sim
    }

    #[test]
    fn contending_headers_are_granted_in_arrival_order_across_slot_reuse() {
        // 16-flit messages 0 → 3 over five hops, each absorbed 20 cycles
        // after its generation when alone, releasing the injection cv at
        // 17. The first comes and goes, leaving a free arena slot. Four
        // headers for the injection cv follow on consecutive cycles, the
        // first in the recycled slot; it is absorbed at 60, and a fifth
        // joins a queue that still holds the third and fourth, in the
        // slot the first just vacated.
        let cycles = [10, 40, 41, 42, 43, 61];
        let (topo, wl) = unicasts_0_to_3(&cycles);
        let slot = |id: MsgId| id & ((1 << Arena::<ActiveMsg>::INDEX_BITS) - 1);
        for kind in [EngineKind::Cycle, EngineKind::EventDriven] {
            let (mut ids, mut granted) = (vec![None; cycles.len()], Vec::new());
            for x in 10..=130 {
                let sim = run_to(kind, &topo, &wl, x);
                sim.audit().expect("waiter lists stay well formed");
                let f = &sim.fabric;
                for (m, msg) in f.msgs.iter() {
                    let i = cycles.iter().position(|&c| c == msg.gen).unwrap();
                    assert_eq!(*ids[i].get_or_insert(m), m, "{kind:?}: ids are fixed");
                }
                let inj = f.plan.unicast_path(NodeId(0), NodeId(3)).hops[0];
                let cv = &f.cvs[f.plan.cv_index(inj) as usize];
                if let Some((m, 0)) = cv.holder() {
                    if granted.last() != Some(&m) {
                        granted.push(m);
                    }
                }
                // The owner, then the waiters, in arrival order.
                let owner = cv.holder().map(|(m, _)| f.msgs.get(m, "owner").gen);
                let mut queue: Vec<u64> = owner.into_iter().collect();
                let mut at = cv.wait_head;
                while at != NO_MSG {
                    let msg = f.msgs.get(at, "waiter");
                    queue.push(msg.gen);
                    at = msg.next_waiter;
                }
                assert!(queue.is_sorted(), "{kind:?} at {x}: {queue:?}");
                if x == 61 {
                    assert_eq!(queue, [41, 42, 43, 61], "{kind:?}: the fifth queues");
                }
            }
            let ids: Vec<MsgId> = ids.into_iter().map(|id| id.expect("seen live")).collect();
            assert_eq!(slot(ids[1]), slot(ids[0]));
            assert_ne!(ids[1], ids[0], "a recycled slot issues a fresh id");
            assert_eq!(slot(ids[5]), slot(ids[1]));
            assert_eq!(granted, ids, "{kind:?}: grants follow arrival order");
        }
    }

    #[test]
    fn a_flown_run_leaves_the_fabric_a_stepped_run_leaves() {
        // Results cannot see a round-robin pointer; the arbitration of
        // whatever comes next can. The torus has two vcs per link, so a
        // pointer left behind would show.
        use noc_topology::{Mesh, MeshKind};
        use noc_workloads::{TraceEntry, TraceKind, TrafficSpec};
        let topo = Mesh::new(4, 4, MeshKind::Torus).unwrap();
        let entry = |i: u32| TraceEntry {
            cycle: 3500 + 300 * u64::from(i),
            node: 5 * i % 16,
            kind: match i % 3 {
                0 => TraceKind::Multicast,
                _ => TraceKind::Unicast {
                    dst: (5 * i + 3 + i % 11) % 16,
                },
            },
        };
        let wl = Workload::new(16, 0.0, 0.1, DestinationSets::random(&topo, 4, 1))
            .unwrap()
            .with_traffic(TrafficSpec::trace((0..24).map(entry).collect()));
        let cfg = SimConfig::quick(1);
        let mut stepped = Engine::new(&topo, &wl, cfg.with_engine(EngineKind::Cycle));
        let mut flown = Engine::new(&topo, &wl, cfg);
        let (a, b) = (stepped.run(), flown.run());
        assert_eq!(
            (a.total_absorbed, a.flit_moves),
            (b.total_absorbed, b.flit_moves)
        );
        assert_eq!(b.engine.flights, 24, "every arrival flew");

        let pointers = |f: &Fabric<'_>| f.channels.iter().map(|ch| ch.rr()).collect::<Vec<_>>();
        assert_eq!(pointers(&stepped.fabric), pointers(&flown.fabric));
        assert!(!stepped.fabric.holds() && !flown.fabric.holds());
        flown.audit().expect("flown fabric audits clean");
    }

    #[test]
    fn audit_names_the_channel_cv_or_message_that_drifted() {
        // At the end of cycle 3: one owner of the injection cv and two
        // headers queued behind it.
        let (topo, wl) = unicasts_0_to_3(&[1, 2, 3]);
        let mut sim = run_to(EngineKind::EventDriven, &topo, &wl, 3);
        let mut ids: Vec<(u64, MsgId)> = sim
            .fabric
            .msgs
            .iter()
            .map(|(m, msg)| (msg.gen, m))
            .collect();
        ids.sort_unstable();
        let ids: Vec<MsgId> = ids.into_iter().map(|(_, m)| m).collect();
        let inj = sim.fabric.msgs.get(ids[0], "owner").path.hops[0];
        let (pc, cv) = (inj.channel.idx(), sim.fabric.plan.cv_index(inj) as usize);
        assert_eq!(sim.fabric.cvs[cv].holder(), Some((ids[0], 0)));
        sim.audit().expect("sound before tampering");
        let fails_with = |sim: &Engine<'_>, expected: AuditError, what: &str| {
            let err = sim.audit().expect_err(what);
            assert!(
                err.to_string().contains(what),
                "{err} does not mention {what:?}"
            );
            assert_eq!(err, expected);
        };

        let (owned, ready) = (sim.fabric.channels[pc].owned, sim.fabric.channels[pc].ready);
        sim.fabric.channels[pc].ready ^= 1;
        let drifted = AuditError::MasksDrifted {
            channel: pc,
            cached: (owned, ready ^ 1),
            actual: (owned, ready),
        };
        fails_with(&sim, drifted, &format!("channel {pc}: masks drifted"));
        sim.fabric.channels[pc].ready ^= 1;

        let head = sim.fabric.msgs.get(ids[0], "owner").head + 1;
        sim.fabric.msgs.get_mut(ids[0], "owner").head = head;
        let unheld = AuditError::HeadNotHeld { msg: ids[0], head };
        let what = format!("message {}: head cursor {head}", ids[0]);
        fails_with(&sim, unheld, &what);
        sim.fabric.msgs.get_mut(ids[0], "owner").head -= 1;

        sim.fabric.cvs[cv].wait_tail = ids[1];
        let tail = AuditError::WaitTailMismatch {
            cv,
            wait_tail: ids[1],
            last: ids[2],
        };
        fails_with(&sim, tail, &format!("cv {cv}: wait_tail {}", ids[1]));
        sim.fabric.cvs[cv].wait_tail = ids[2];

        sim.fabric.msgs.get_mut(ids[2], "last waiter").next_waiter = ids[1];
        let twice = AuditError::WaiterQueuedTwice { cv, msg: ids[1] };
        fails_with(
            &sim,
            twice,
            &format!("cv {cv}: waiter {} is queued twice", ids[1]),
        );
        sim.fabric.msgs.get_mut(ids[2], "last waiter").next_waiter = NO_MSG;

        // A claim on a cv its message holds, which coasts in no claim.
        sim.fabric.cvs[cv].claimed = true;
        let stray = AuditError::StrayClaim {
            cv,
            msg: ids[0],
            hop: 0,
        };
        fails_with(
            &sim,
            stray,
            &format!("cv {cv} claimed by message {}", ids[0]),
        );
        sim.fabric.cvs[cv].claimed = false;

        // An arrival held for a cycle the engine has passed.
        let now = sim.now();
        sim.fabric
            .held
            .push_back((now, NodeId(5), Arrival::Multicast));
        let held = AuditError::HeldPastCycle {
            node: NodeId(5),
            at: now,
            cycle: now,
        };
        fails_with(&sim, held, &format!("node 5's arrival of cycle {now}"));
        sim.fabric.held.clear();

        sim.audit().expect("sound again once restored");
    }
}

/// Kernel behaviour every engine must show, written once as a table over
/// [`EngineKind`](crate::EngineKind). Each driver's `mod tests` runs the
/// table for its own kind; only policy-specific tests live there.
#[cfg(test)]
pub(crate) mod behaviour {
    use crate::{Engine, EngineKind, SimConfig, SimResults};
    use noc_topology::{NodeId, Quarc, Topology};
    use noc_workloads::{DestinationSets, Workload};

    fn run(kind: EngineKind, topo: &Quarc, wl: &Workload, cfg: SimConfig) -> SimResults {
        let mut sim = Engine::new(topo, wl, cfg.with_engine(kind));
        let res = sim.run();
        sim.audit().expect("post-run audit");
        res
    }

    /// Zero-load latency `L + H + 1`, read off a `run` of one traced
    /// arrival — which the event engine flies, so the closed form answers
    /// here, not the per-cycle machinery. The last one arrives on the first watchdog
    /// tick more than the window after cycle 0: its own grant is progress,
    /// not a held channel with nothing moving.
    pub(crate) fn zero_load_latency_is_exact_in_a_run(kind: EngineKind) {
        use noc_workloads::{TraceEntry, TraceKind, TrafficSpec};
        let topo = Quarc::new(16).unwrap();
        for (src, dst, msg_len, cycle) in [
            (0u32, 3u32, 16u32, 5_000),
            (0, 8, 32, 5_000),
            (5, 1, 64, 5_000),
            (2, 12, 16, 5_000),
            (0, 3, 16, 10 * super::WATCHDOG_STRIDE),
        ] {
            let arrival = TraceEntry {
                cycle,
                node: src,
                kind: TraceKind::Unicast { dst },
            };
            let wl = Workload::new(msg_len, 0.0, 0.0, DestinationSets::random(&topo, 4, 1))
                .unwrap()
                .with_traffic(TrafficSpec::trace(vec![arrival]));
            let res = run(kind, &topo, &wl, SimConfig::quick(1));
            let path = topo.unicast_path(NodeId(src), NodeId(dst));
            let expected = (msg_len as usize + path.hop_count()) as f64;
            assert_eq!((res.unicast.count, res.unicast.mean), (1, expected));
            assert!(!res.deadlocked && !res.saturated, "{kind:?} at {cycle}");
            let flown = u64::from(kind == EngineKind::EventDriven);
            assert_eq!(res.engine.flights, flown, "{kind:?}: {src}->{dst}");
        }
    }

    /// An engine runs once: a second `run` would re-report the first.
    pub(crate) fn a_second_run_is_refused(kind: EngineKind) {
        let topo = Quarc::new(16).unwrap();
        let wl = Workload::new(16, 0.004, 0.05, DestinationSets::random(&topo, 4, 3)).unwrap();
        let mut sim = Engine::new(&topo, &wl, SimConfig::quick(7).with_engine(kind));
        sim.run();
        sim.run();
    }

    pub(crate) fn low_load_run_completes_and_audits_clean(kind: EngineKind) {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 3);
        let wl = Workload::new(16, 0.004, 0.05, sets).unwrap();
        let res = run(kind, &topo, &wl, SimConfig::quick(7));
        assert!(!res.saturated, "low load must not saturate");
        assert!(res.complete(), "all tagged traffic must be delivered");
        assert!(res.total_generated > 0);
        // Anything generated but unabsorbed must still be in flight (the
        // run stops once tagged traffic drains, untagged may remain).
        assert!(res.total_absorbed <= res.total_generated);
        let in_flight = res.total_generated - res.total_absorbed;
        assert!(
            in_flight < 3000,
            "untagged in-flight backlog should be small at low load, got {in_flight}"
        );
    }

    pub(crate) fn deterministic_under_same_seed(kind: EngineKind) {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 5);
        let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
        let r1 = run(kind, &topo, &wl, SimConfig::quick(99));
        let r2 = run(kind, &topo, &wl, SimConfig::quick(99));
        assert_eq!(r1.unicast.count, r2.unicast.count);
        assert_eq!(r1.unicast.mean, r2.unicast.mean);
        assert_eq!(r1.multicast.mean, r2.multicast.mean);
        assert_eq!(r1.flit_moves, r2.flit_moves);
        assert_eq!(r1.cycles, r2.cycles);
        let r3 = run(kind, &topo, &wl, SimConfig::quick(100));
        assert_ne!(
            r1.flit_moves, r3.flit_moves,
            "different seed, different run"
        );
    }

    pub(crate) fn saturation_is_detected_at_absurd_load(kind: EngineKind) {
        let topo = Quarc::new(8).unwrap();
        let sets = DestinationSets::random(&topo, 2, 3);
        let wl = Workload::new(64, 0.9, 0.5, sets).unwrap();
        let mut cfg = SimConfig::quick(13);
        cfg.backlog_limit = 2_000;
        let res = run(kind, &topo, &wl, cfg);
        assert!(
            res.saturated,
            "rate 0.9 with 64-flit messages must saturate"
        );
    }
}
