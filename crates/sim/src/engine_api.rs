//! The engine: one kernel, two time-advance policies, chosen by the config.
//!
//! [`Engine`] is the type the rest of the workspace programs against —
//! the Runner, the `noc-bench` exhibits and the timing tests. It holds
//! the shared wormhole kernel (`fabric.rs`) plus the policy that decides
//! which cycles the kernel simulates, built from
//! [`SimConfig::engine`](crate::config::SimConfig::engine) in one place:
//! [`EngineKind::Cycle`] steps every cycle (the reference oracle,
//! `engine.rs`), [`EngineKind::EventDriven`] skips provably inert ones
//! (`event_engine.rs`).
//!
//! The two promise *bit-identical* runs under the same seed: identical
//! delivered counts, identical latency samples in identical order,
//! identical cycle counts. `tests/engine_equivalence.rs` enforces the
//! promise differentially — with the kernel shared, what it checks is
//! everything the event policy adds (idle jumps, stall fixpoints, flights,
//! coasts, queue order, watchdog alignment); `tests/trace_invariants.rs`
//! checks the kernel itself against an oracle that shares no code with
//! it, and [`Engine::audit`] exposes the structural invariants
//! (ownership consistency, conservation counters) to the property tests.

use crate::config::{EngineKind, SimConfig};
use crate::engine::EveryCycle;
use crate::event_engine::SkipAhead;
use crate::fabric::Fabric;
use crate::message::{MsgId, OpId};
use crate::plan::SimPlan;
use crate::results::SimResults;
use noc_app::ClosedLoopSpec;
use noc_topology::{NodeId, Topology};
use noc_workloads::Workload;
use std::fmt;
use std::sync::Arc;

/// Snapshot of an engine's structural counters, produced by
/// [`Engine::audit`] after the per-resource consistency checks pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineAudit {
    /// Current simulated cycle.
    pub cycle: u64,
    /// Messages allocated and not yet absorbed (queued or in flight).
    pub live_messages: u64,
    /// Messages waiting at injection channels (the backlog).
    pub queued_messages: u64,
    /// Cv resources currently owned by a message.
    pub owned_cvs: u64,
    /// Multicast operations allocated and not yet completed.
    pub live_ops: u64,
    /// Multicast operations allocated since the start of the run.
    pub ops_allocated: u64,
    /// Multicast operations whose `remaining` reached zero (each op must
    /// complete exactly once: `ops_allocated == ops_completed + live_ops`).
    pub ops_completed: u64,
    /// Messages generated (all classes, tagged or not).
    pub total_generated: u64,
    /// Messages fully absorbed by sinks.
    pub total_absorbed: u64,
    /// Tagged traffic still outstanding.
    pub tagged_outstanding: u64,
}

/// The first structural invariant [`Engine::audit`] found violated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// A cv is owned by a message that is not live.
    DeadOwner {
        /// The cv.
        cv: usize,
        /// Its owner's id.
        msg: MsgId,
    },
    /// A cv's owner holds it at a hop its path does not have.
    OwnerHopBeyondPath {
        /// The cv.
        cv: usize,
        /// Its owner.
        msg: MsgId,
        /// The hop it claims.
        hop: u16,
    },
    /// A cv's owner holds it at a hop whose channel and vc are another
    /// cv's.
    OwnerHopElsewhere {
        /// The cv.
        cv: usize,
        /// Its owner.
        msg: MsgId,
        /// The hop it claims.
        hop: u16,
        /// The cv that hop maps to.
        maps_to: u32,
    },
    /// A cv's owner holds it at a hop it has not been granted yet.
    OwnerPastHead {
        /// The cv.
        cv: usize,
        /// Its owner.
        msg: MsgId,
        /// The hop it claims.
        hop: u16,
        /// The owner's head cursor.
        head: u16,
    },
    /// One hop of one message owns two cvs.
    HopOwnsTwo {
        /// The message.
        msg: MsgId,
        /// The hop.
        hop: u16,
    },
    /// A message moved a flit across a hop it had no supply or credit for.
    ImpossibleMove {
        /// The cv of that hop.
        cv: usize,
        /// The message.
        msg: MsgId,
        /// The hop.
        hop: u16,
        /// Its length in flits.
        len: u32,
        /// Flits that crossed each of its hops.
        traversed: Vec<u32>,
        /// Flits a buffer holds.
        buffer_depth: u32,
    },
    /// A channel's cached `(owned, ready)` masks differ from its owners'
    /// verdicts.
    MasksDrifted {
        /// The physical channel.
        channel: usize,
        /// The cached masks.
        cached: (u8, u8),
        /// The masks derived from scratch.
        actual: (u8, u8),
    },
    /// A channel's round-robin pointer names a vc it does not have.
    PointerPastVcs {
        /// The physical channel.
        channel: usize,
        /// The pointer.
        rr: u8,
        /// Its vc count.
        vcs: u8,
    },
    /// A channel owns cvs but is not on the active list.
    OwnedButInactive {
        /// The physical channel.
        channel: usize,
    },
    /// The active list is not the set of channels flagged active.
    ActiveListMismatch {
        /// Channels listed.
        listed: usize,
        /// Channels flagged.
        flagged: usize,
    },
    /// A message's head cursor says it holds a hop it does not own.
    HeadNotHeld {
        /// The message.
        msg: MsgId,
        /// Its head cursor.
        head: u16,
    },
    /// A cv's waiter list names a message that is not live.
    DeadWaiter {
        /// The cv.
        cv: usize,
        /// The waiter's id.
        msg: MsgId,
    },
    /// A waiter sits in a list twice, or in two lists.
    WaiterQueuedTwice {
        /// The cv whose list met it again.
        cv: usize,
        /// The waiter.
        msg: MsgId,
    },
    /// A cv's waiter requests another cv next.
    WaiterElsewhere {
        /// The cv.
        cv: usize,
        /// The waiter.
        msg: MsgId,
        /// The hop it requests.
        head: u16,
    },
    /// A cv's recorded last waiter is not the end of its list.
    WaitTailMismatch {
        /// The cv.
        cv: usize,
        /// The recorded last waiter.
        wait_tail: MsgId,
        /// The list's actual last.
        last: MsgId,
    },
    /// A live multicast operation has no targets left.
    OpWithoutTargets {
        /// The operation.
        op: OpId,
    },
    /// Operations allocated are not those completed plus those live.
    OpAccounting {
        /// Allocated.
        allocated: u64,
        /// Completed.
        completed: u64,
        /// Live.
        live: u64,
    },
    /// Messages generated are not those absorbed plus those live.
    MessageConservation {
        /// Generated.
        generated: u64,
        /// Absorbed.
        absorbed: u64,
        /// Live.
        live: u64,
    },
    /// An arrival held from a declined flight group was not spawned on
    /// its cycle.
    HeldPastCycle {
        /// Its node.
        node: NodeId,
        /// Its cycle.
        at: u64,
        /// The engine's current cycle.
        cycle: u64,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::DeadOwner { cv, msg } => write!(f, "cv {cv} owned by dead message {msg}"),
            AuditError::OwnerHopBeyondPath { cv, msg, hop } => {
                write!(f, "cv {cv} owner hop {hop} beyond message {msg}'s path")
            }
            AuditError::OwnerHopElsewhere {
                cv,
                msg,
                hop,
                maps_to,
            } => write!(
                f,
                "cv {cv} owned by message {msg} at hop {hop}, but that hop maps to cv {maps_to}"
            ),
            AuditError::OwnerPastHead { cv, msg, hop, head } => write!(
                f,
                "cv {cv} owned by message {msg} at hop {hop}, at or past its head cursor {head}"
            ),
            AuditError::HopOwnsTwo { msg, hop } => write!(f, "message {msg} hop {hop} owns two cvs"),
            AuditError::ImpossibleMove {
                cv,
                msg,
                hop,
                len,
                traversed,
                buffer_depth,
            } => write!(
                f,
                "cv {cv}: message {msg} moved a flit across hop {hop} it could not have \
                 (of {len} flits, {traversed:?} crossed each hop; buffers hold {buffer_depth})"
            ),
            AuditError::MasksDrifted {
                channel,
                cached,
                actual,
            } => write!(
                f,
                "channel {channel}: masks drifted (cached owned {:#010b} ready {:#010b}, \
                 actual owned {:#010b} ready {:#010b})",
                cached.0, cached.1, actual.0, actual.1
            ),
            AuditError::PointerPastVcs { channel, rr, vcs } => write!(
                f,
                "channel {channel}: round-robin pointer {rr} past its {vcs} vcs"
            ),
            AuditError::OwnedButInactive { channel } => {
                write!(f, "channel {channel}: owns cvs but is not active")
            }
            AuditError::ActiveListMismatch { listed, flagged } => write!(
                f,
                "the active list ({listed} channels) and the {flagged} active bits disagree"
            ),
            AuditError::HeadNotHeld { msg, head } => write!(
                f,
                "message {msg}: head cursor {head} but it does not own hop {}",
                head - 1
            ),
            AuditError::DeadWaiter { cv, msg } => write!(f, "cv {cv} queues dead message {msg}"),
            AuditError::WaiterQueuedTwice { cv, msg } => write!(
                f,
                "cv {cv}: waiter {msg} is queued twice (a cycle, or a second cv's list)"
            ),
            AuditError::WaiterElsewhere { cv, msg, head } => write!(
                f,
                "cv {cv} queues message {msg}, whose next hop {head} is another cv"
            ),
            AuditError::WaitTailMismatch {
                cv,
                wait_tail,
                last,
            } => write!(f, "cv {cv}: wait_tail {wait_tail} is not the last waiter {last}"),
            AuditError::OpWithoutTargets { op } => {
                write!(f, "live multicast op {op} has zero targets remaining")
            }
            AuditError::OpAccounting {
                allocated,
                completed,
                live,
            } => write!(
                f,
                "op accounting broken: {allocated} allocated != {completed} completed + {live} live"
            ),
            AuditError::MessageConservation {
                generated,
                absorbed,
                live,
            } => write!(
                f,
                "flit conservation broken: {generated} generated != {absorbed} absorbed + {live} live"
            ),
            AuditError::HeldPastCycle { node, at, cycle } => write!(
                f,
                "node {}'s arrival of cycle {at} is still held at cycle {cycle}",
                node.0
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Build the engine `cfg.engine` names on a prebuilt [`SimPlan`] (rate
/// sweeps and differential pairs share one plan across runs; build it
/// with [`SimPlan::build`] for a typed error when the workload does not
/// fit the topology).
pub fn build_engine_with_plan<'a>(
    topo: &dyn Topology,
    wl: &'a Workload,
    cfg: SimConfig,
    plan: Arc<SimPlan>,
) -> Engine<'a> {
    let fabric = Box::new(Fabric::new(topo, wl, cfg, plan));
    let policy = match cfg.engine {
        EngineKind::Cycle => Policy::EveryCycle(EveryCycle::default()),
        EngineKind::EventDriven => Policy::SkipAhead(SkipAhead::new(&fabric)),
    };
    Engine { fabric, policy }
}

/// A flit-level wormhole simulation engine: the shared kernel plus the
/// time-advance policy [`SimConfig::engine`] names. Both policies agree
/// cycle-for-cycle on every method here. Borrowing the workload keeps
/// runs cheap to set up inside parameter sweeps; the precomputed
/// [`SimPlan`] can additionally be shared across runs.
pub struct Engine<'a> {
    /// On the heap: the 1.6 KB kernel record stays put when the engine
    /// moves, and glibc places the big per-run vectors better around it
    /// (`scale-64k` peak RSS 45.3 MiB boxed, 50.7 MiB inline, on a 2-vCPU
    /// x86-64 host).
    pub(crate) fabric: Box<Fabric<'a>>,
    policy: Policy,
}

/// The time-advance policies, one per [`EngineKind`]. The kernel is
/// generic over the policy, so a `match` runs once per call into the
/// engine, never per cycle or flit.
enum Policy {
    EveryCycle(EveryCycle),
    SkipAhead(SkipAhead),
}

impl<'a> Engine<'a> {
    /// Build the engine `cfg.engine` names for `topo` under `wl`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or if the workload does not
    /// fit the topology (see [`crate::plan::PlanError`]); use
    /// [`SimPlan::build`] + [`build_engine_with_plan`] for typed errors.
    pub fn new(topo: &dyn Topology, wl: &'a Workload, cfg: SimConfig) -> Self {
        let plan = SimPlan::build(topo, wl).unwrap_or_else(|e| panic!("{e}"));
        build_engine_with_plan(topo, wl, cfg, plan)
    }

    /// Run to completion and produce results.
    pub fn run(&mut self) -> SimResults {
        match &mut self.policy {
            Policy::EveryCycle(p) => p.run(&mut self.fabric),
            Policy::SkipAhead(p) => p.run(&mut self.fabric),
        }
    }

    /// Advance exactly one cycle without tagging or measuring (testing
    /// hook for cycle-precise assertions).
    pub fn step_one(&mut self) {
        match &mut self.policy {
            Policy::EveryCycle(p) => p.step_one(&mut self.fabric),
            Policy::SkipAhead(p) => p.step_one(&mut self.fabric),
        }
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.fabric.cycle
    }

    /// Is the message still in the network (queued or in flight)?
    pub fn message_in_flight(&self, id: MsgId) -> bool {
        self.fabric.msgs.contains(id)
    }

    /// Scripted-injection hook: enqueue a unicast `src → dst` *now* and
    /// make it eligible for injection next cycle, exactly as if the
    /// Poisson source had generated it this cycle. Intended for
    /// deterministic micro-benchmarks and timing tests; it composes with
    /// background Poisson traffic.
    pub fn inject_unicast_now(&mut self, src: NodeId, dst: NodeId) -> MsgId {
        self.work_injected();
        self.fabric.inject_unicast_now(src, dst)
    }

    /// Scripted-injection hook: start `src`'s configured multicast
    /// operation *now*; returns the ids of its port-stream messages.
    pub fn inject_multicast_now(&mut self, src: NodeId) -> Vec<MsgId> {
        self.work_injected();
        self.fabric.inject_multicast_now(src)
    }

    /// Inject a single unicast on an idle network and return its latency.
    /// Must be called on a simulator with a zero-rate workload.
    pub fn measure_isolated_unicast(&mut self, src: NodeId, dst: NodeId) -> u64 {
        self.assert_zero_rate();
        let gen = self.now();
        let id = self.inject_unicast_now(src, dst);
        self.run_until_complete(id) - gen
    }

    /// Inject a single multicast operation on an idle network and return
    /// the operation latency (generation until the last target absorbs).
    pub fn measure_isolated_multicast(&mut self, src: NodeId) -> u64 {
        self.assert_zero_rate();
        let gen = self.now();
        // The op's slot is freed the moment it completes, so the latency
        // is read off the run instead: each stream's final target absorbs
        // at its ejection hop, so the op's last absorb is exactly the
        // completion cycle of the slowest stream.
        let mut done = gen;
        for id in self.inject_multicast_now(src) {
            done = done.max(self.run_until_complete(id));
        }
        done - gen
    }

    /// Structural self-check: ownership consistency plus the conservation
    /// counters. `Err` names the first violated invariant.
    pub fn audit(&self) -> Result<EngineAudit, AuditError> {
        self.fabric.audit()
    }

    /// Install a closed-loop protocol: [`Engine::run`] is then driven
    /// by the spec's per-node machines instead of open-loop arrivals,
    /// ends at protocol quiescence, and stamps
    /// [`SimResults::closed_loop`](crate::results::SimResults::closed_loop).
    ///
    /// # Panics
    ///
    /// Panics if any cycle has already been simulated or the workload's
    /// generation rate is non-zero (the protocol must be the only
    /// traffic source).
    pub fn install_closed_loop(&mut self, spec: &ClosedLoopSpec, master_seed: u64) {
        self.fabric.install_closed_loop(spec, master_seed);
    }

    /// Step until `id` completes, returning the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if the message does not complete within 1M cycles (deadlock
    /// or a forgotten zero-length path — both are bugs).
    pub fn run_until_complete(&mut self, id: MsgId) -> u64 {
        let guard = self.now() + 1_000_000;
        while self.message_in_flight(id) {
            self.step_one();
            assert!(self.now() < guard, "message {id} did not complete");
        }
        self.now()
    }

    /// A scripted injection added work behind the policy's back; only
    /// the event policy remembers anything it could invalidate.
    fn work_injected(&mut self) {
        if let Policy::SkipAhead(p) = &mut self.policy {
            p.work_injected();
        }
    }

    fn assert_zero_rate(&self) {
        let rate = self.fabric.wl.gen_rate;
        assert_eq!(rate, 0.0, "requires a zero-rate workload");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Quarc;
    use noc_workloads::DestinationSets;

    #[test]
    fn both_constructors_run_the_policy_the_config_names() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 3);
        let wl = Workload::new(32, 0.0005, 0.05, sets).unwrap();
        let plan = SimPlan::build(&topo, &wl).expect("plan builds");
        for kind in [EngineKind::Cycle, EngineKind::EventDriven] {
            let cfg = SimConfig::quick(7).with_engine(kind);
            let built = build_engine_with_plan(&topo, &wl, cfg, Arc::clone(&plan)).run();
            for res in [Engine::new(&topo, &wl, cfg).run(), built] {
                let (stepped, cycles) = (res.engine.simulated_cycles, res.cycles);
                match kind {
                    EngineKind::Cycle => assert_eq!(stepped, cycles),
                    EngineKind::EventDriven => {
                        assert!(stepped < cycles, "{stepped} of {cycles} cycles stepped");
                        assert!(res.engine.flights > 0, "no arrival flew");
                    }
                }
            }
        }
    }
}
