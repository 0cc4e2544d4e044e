//! The engine abstraction: one simulation contract, one kernel, two
//! time-advance policies.
//!
//! [`SimEngine`] is the interface the rest of the workspace programs
//! against — the Runner, the `noc-bench` exhibits and the timing tests all
//! accept `dyn SimEngine`. Behind it sits one generic [`Engine`]: the
//! shared wormhole kernel (`fabric.rs`) plus a policy deciding which
//! cycles the kernel simulates. [`crate::Simulator`] is the engine that
//! steps every cycle (the reference oracle), [`crate::EventSimulator`]
//! the one that skips provably inert cycles; [`build_engine`] dispatches
//! on [`crate::config::EngineKind`].
//!
//! The two promise *bit-identical* runs under the same seed: identical
//! delivered counts, identical latency samples in identical order,
//! identical cycle counts. `tests/engine_equivalence.rs` enforces the
//! promise differentially — with the kernel shared, what it checks is
//! everything the event policy adds (idle jumps, stall fixpoints, spans,
//! queue order, watchdog alignment); `tests/trace_invariants.rs`
//! checks the kernel itself against an oracle that shares no code with
//! it, and [`SimEngine::audit`] exposes the structural invariants
//! (ownership consistency, conservation counters) to the property tests.

use crate::config::{EngineKind, SimConfig};
use crate::fabric::{Fabric, TimeAdvance};
use crate::message::MsgId;
use crate::plan::SimPlan;
use crate::results::SimResults;
use noc_app::ClosedLoopSpec;
use noc_topology::{NodeId, Topology};
use noc_workloads::Workload;
use std::sync::Arc;

/// A flit-level wormhole simulation engine.
///
/// Both engines agree cycle-for-cycle on every method here.
pub trait SimEngine {
    /// Run to completion and produce results.
    fn run(&mut self) -> SimResults;

    /// Advance exactly one cycle without tagging or measuring (testing
    /// hook for cycle-precise assertions).
    fn step_one(&mut self);

    /// Current simulated cycle.
    fn now(&self) -> u64;

    /// Is the message still in the network (queued or in flight)?
    fn message_in_flight(&self, id: MsgId) -> bool;

    /// Scripted-injection hook: enqueue a unicast `src → dst` *now* and
    /// make it eligible for injection next cycle, exactly as if the
    /// Poisson source had generated it this cycle. Intended for
    /// deterministic micro-benchmarks and timing tests; it composes with
    /// background Poisson traffic.
    fn inject_unicast_now(&mut self, src: NodeId, dst: NodeId) -> MsgId;

    /// Scripted-injection hook: start `src`'s configured multicast
    /// operation *now*; returns the ids of its port-stream messages.
    fn inject_multicast_now(&mut self, src: NodeId) -> Vec<MsgId>;

    /// Inject a single unicast on an idle network and return its latency.
    /// Must be called on a simulator with a zero-rate workload.
    fn measure_isolated_unicast(&mut self, src: NodeId, dst: NodeId) -> u64;

    /// Inject a single multicast operation on an idle network and return
    /// the operation latency (generation until the last target absorbs).
    fn measure_isolated_multicast(&mut self, src: NodeId) -> u64;

    /// Structural self-check: ownership consistency plus the conservation
    /// counters. `Err` describes the first violated invariant.
    fn audit(&self) -> Result<EngineAudit, String>;

    /// Install a closed-loop protocol: [`SimEngine::run`] is then driven
    /// by the spec's per-node machines instead of open-loop arrivals,
    /// ends at protocol quiescence, and stamps
    /// [`SimResults::closed_loop`](crate::results::SimResults::closed_loop).
    ///
    /// # Panics
    ///
    /// Panics if any cycle has already been simulated or the workload's
    /// generation rate is non-zero (the protocol must be the only
    /// traffic source).
    fn install_closed_loop(&mut self, spec: &ClosedLoopSpec, master_seed: u64);

    /// Step until `id` completes, returning the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if the message does not complete within 1M cycles (deadlock
    /// or a forgotten zero-length path — both are bugs).
    fn run_until_complete(&mut self, id: MsgId) -> u64 {
        let guard = self.now() + 1_000_000;
        while self.message_in_flight(id) {
            self.step_one();
            assert!(self.now() < guard, "message {id} did not complete");
        }
        self.now()
    }
}

/// Snapshot of an engine's structural counters, produced by
/// [`SimEngine::audit`] after the per-resource consistency checks pass.
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

/// Build the engine selected by `cfg.engine`.
///
/// Returns a typed [`PlanError`](crate::plan::PlanError) when the
/// workload does not fit the topology, instead of panicking.
pub fn build_engine<'a>(
    topo: &'a dyn Topology,
    wl: &'a Workload,
    cfg: SimConfig,
) -> Result<Box<dyn SimEngine + 'a>, crate::plan::PlanError> {
    Ok(build_engine_with_plan(
        topo,
        wl,
        cfg,
        SimPlan::build(topo, wl)?,
    ))
}

/// Build the engine selected by `cfg.engine` on a prebuilt [`SimPlan`]
/// (rate sweeps and differential pairs share one plan across runs).
pub fn build_engine_with_plan<'a>(
    topo: &'a dyn Topology,
    wl: &'a Workload,
    cfg: SimConfig,
    plan: Arc<SimPlan>,
) -> Box<dyn SimEngine + 'a> {
    match cfg.engine {
        EngineKind::Cycle => Box::new(crate::Simulator::with_plan(topo, wl, cfg, plan)),
        EngineKind::EventDriven => Box::new(crate::EventSimulator::with_plan(topo, wl, cfg, plan)),
    }
}

/// The one engine: the shared wormhole kernel plus the time-advance
/// policy `P` that drives it. Name it through its two instantiations,
/// [`crate::Simulator`] and [`crate::EventSimulator`]; everything but
/// construction and [`Engine::run`] is reached through [`SimEngine`].
/// Borrowing the workload keeps runs cheap to set up inside parameter
/// sweeps; the precomputed [`SimPlan`] can additionally be shared across
/// runs.
pub struct Engine<'a, P> {
    pub(crate) fabric: Fabric<'a>,
    pub(crate) policy: P,
}

impl<'a, P: TimeAdvance> Engine<'a, P> {
    /// Build an engine for `topo` under `wl`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or if the workload does not
    /// fit the topology (see [`crate::plan::PlanError`]); use
    /// [`SimPlan::build`] + [`Engine::with_plan`] for typed errors.
    pub fn new(topo: &dyn Topology, wl: &'a Workload, cfg: SimConfig) -> Self {
        let plan = SimPlan::build(topo, wl).unwrap_or_else(|e| panic!("{e}"));
        Engine::with_plan(topo, wl, cfg, plan)
    }

    /// Build on a prebuilt [`SimPlan`] (shared across the runs of a
    /// sweep, or with the other engine of a differential pair).
    pub fn with_plan(
        topo: &dyn Topology,
        wl: &'a Workload,
        cfg: SimConfig,
        plan: Arc<SimPlan>,
    ) -> Self {
        let fabric = Fabric::new(topo, wl, cfg, plan);
        let policy = P::new(&fabric);
        Engine { fabric, policy }
    }

    /// Run to completion and produce results ([`SimEngine::run`],
    /// callable without the trait in scope).
    pub fn run(&mut self) -> SimResults {
        self.policy.run(&mut self.fabric)
    }

    fn assert_zero_rate(&self) {
        let rate = self.fabric.wl.gen_rate;
        assert_eq!(rate, 0.0, "requires a zero-rate workload");
    }
}

impl<P: TimeAdvance> SimEngine for Engine<'_, P> {
    fn run(&mut self) -> SimResults {
        Engine::run(self)
    }

    fn step_one(&mut self) {
        self.policy.step_one(&mut self.fabric);
    }

    fn now(&self) -> u64 {
        self.fabric.cycle
    }

    fn message_in_flight(&self, id: MsgId) -> bool {
        self.fabric.msgs.contains(id)
    }

    fn inject_unicast_now(&mut self, src: NodeId, dst: NodeId) -> MsgId {
        self.policy.work_injected();
        self.fabric.inject_unicast_now(src, dst)
    }

    fn inject_multicast_now(&mut self, src: NodeId) -> Vec<MsgId> {
        self.policy.work_injected();
        self.fabric.inject_multicast_now(src)
    }

    fn measure_isolated_unicast(&mut self, src: NodeId, dst: NodeId) -> u64 {
        self.assert_zero_rate();
        let gen = self.now();
        let id = self.inject_unicast_now(src, dst);
        self.run_until_complete(id) - gen
    }

    fn measure_isolated_multicast(&mut self, src: NodeId) -> u64 {
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

    fn audit(&self) -> Result<EngineAudit, String> {
        self.fabric.audit()
    }

    fn install_closed_loop(&mut self, spec: &ClosedLoopSpec, master_seed: u64) {
        self.fabric.install_closed_loop(spec, master_seed);
    }
}
