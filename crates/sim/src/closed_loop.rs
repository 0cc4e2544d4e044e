//! The engine-side closed-loop dispatcher.
//!
//! [`ClosedLoopDriver`] is the impure half of the closed-loop split: it
//! owns the per-node protocol [`Machines`] (built by
//! [`noc_app::ClosedLoopSpec::build`]), translates network happenings into
//! [`AppEvent`]s, and turns the machines' [`Emission`]s into engine
//! actions (injections, timers) plus run accounting (issued/retired
//! requests, completion latencies, outstanding-window occupancy).
//!
//! The kernel (`fabric.rs`) drives it through three touch points, in a
//! fixed intra-cycle order under either engine:
//!
//! 1. **generate** — timers due this cycle fire ([`AppEvent::Timeout`]),
//!    in node order; resulting injections enter the waiter queues before
//!    selection, exactly where open-loop arrivals would.
//! 2. **deliver** — after `apply_moves`, every absorption recorded this
//!    cycle is dispatched ([`AppEvent::Delivery`]) in absorption order;
//!    resulting injections enqueue before the cycle's grant phase.
//! 3. **start** — before the first cycle, every machine receives
//!    [`AppEvent::Start`] in node order.
//!
//! The driver never reads engine state and the machines never see the
//! clock, so a protocol replays bit-identically on the cycle and the
//! event engine: the move sets are equal, hence the absorption order is
//! equal, hence the event sequences — and with them every RNG draw — are
//! equal.

use crate::message::{MsgId, OpId};
use crate::results::{ClosedLoopResults, LatencyStats};
use noc_app::{AppEvent, Emission, Machines, Payload};
use noc_queueing::Welford;
use noc_telemetry::LogHistogram;
use noc_topology::NodeId;
use std::collections::HashMap;

/// A network happening the engines record during `apply_moves` for the
/// driver to dispatch afterwards (in recording order).
#[derive(Clone, Copy, Debug)]
pub(crate) enum ClosedDelivery {
    /// A protocol unicast was fully absorbed at its destination.
    Unicast(MsgId),
    /// A multicast stream absorbed at `target` (one delivery per target).
    Absorb {
        /// The multicast operation the stream belongs to.
        op: OpId,
        /// The absorbing node.
        target: NodeId,
    },
    /// A multicast operation completed: its payload entry can be dropped.
    OpDone(OpId),
}

/// An action requested by a protocol emission, performed by the kernel
/// that owns the resources (allocation, queues) and the engine's
/// schedule.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Action {
    /// Inject a unicast `src → dst` carrying `payload`.
    Unicast {
        src: NodeId,
        dst: NodeId,
        payload: Payload,
    },
    /// Start `src`'s configured multicast operation carrying `payload`.
    Multicast { src: NodeId, payload: Payload },
    /// Wake `node` at cycle `at` (the cycle engine polls
    /// [`ClosedLoopDriver::timer_at`]; the event engine schedules on its
    /// event queue).
    Timer { node: NodeId, at: u64 },
}

/// Protocol machines plus the closed-loop bookkeeping of one run.
pub(crate) struct ClosedLoopDriver {
    machines: Machines,
    /// Pending wake-up per node (at most one, enforced on emission).
    timers: Vec<Option<u64>>,
    /// Nodes that emitted [`Emission::Done`].
    done: Vec<bool>,
    /// Payload of every protocol unicast in flight, by message id.
    unicast_payload: HashMap<MsgId, (NodeId, Payload)>,
    /// Payload of every protocol multicast in flight, by operation id.
    op_payload: HashMap<OpId, Payload>,
    /// Issue cycle of every outstanding request, by `(node, req)`.
    issued_at: HashMap<(u32, u32), u64>,
    issued: u64,
    retired: u64,
    outstanding: u64,
    /// Time integral of `outstanding` (exact in integers).
    occ_area: u128,
    occ_last: u64,
    completion: Welford,
    /// Streaming quantile companion of `completion` (P50/P95/P99).
    completion_hist: LogHistogram,
    scratch: Vec<Emission>,
}

impl ClosedLoopDriver {
    pub(crate) fn new(machines: Machines) -> Self {
        let n = machines.num_nodes();
        ClosedLoopDriver {
            machines,
            timers: vec![None; n],
            done: vec![false; n],
            unicast_payload: HashMap::new(),
            op_payload: HashMap::new(),
            issued_at: HashMap::new(),
            issued: 0,
            retired: 0,
            outstanding: 0,
            occ_area: 0,
            occ_last: 0,
            completion: Welford::new(),
            completion_hist: LogHistogram::new(),
            scratch: Vec::new(),
        }
    }

    /// Feed `event` to `node`'s machine at cycle `now` and translate its
    /// emissions: network actions append to `actions` (performed by the
    /// engine), bookkeeping markers settle here.
    pub(crate) fn dispatch(
        &mut self,
        now: u64,
        node: NodeId,
        event: AppEvent,
        actions: &mut Vec<Action>,
    ) {
        if matches!(event, AppEvent::Timeout) {
            let pending = self.timers[node.idx()].take();
            assert_eq!(pending, Some(now), "timeout fired off-schedule");
        }
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        self.machines.step(node, event, &mut out);
        for &e in &out {
            match e {
                Emission::Unicast { dst, payload } => {
                    assert_ne!(dst, node, "protocol unicast to self");
                    actions.push(Action::Unicast {
                        src: node,
                        dst,
                        payload,
                    });
                }
                Emission::Multicast { payload } => {
                    actions.push(Action::Multicast { src: node, payload });
                }
                Emission::Timer { delay } => {
                    assert!(delay >= 1, "timer delay must be at least 1 cycle");
                    assert!(
                        self.timers[node.idx()].is_none(),
                        "node {} set a second timer",
                        node.0
                    );
                    // Saturating: a timer at `u64::MAX` never fires.
                    let at = now.saturating_add(delay);
                    self.timers[node.idx()] = Some(at);
                    actions.push(Action::Timer { node, at });
                }
                Emission::Issued { req } => {
                    self.update_occ(now);
                    let prev = self.issued_at.insert((node.0, req), now);
                    assert!(prev.is_none(), "request ({}, {req}) issued twice", node.0);
                    self.issued += 1;
                    self.outstanding += 1;
                }
                Emission::Retired { req } => {
                    self.update_occ(now);
                    let at = self
                        .issued_at
                        .remove(&(node.0, req))
                        .expect("request retired without being issued");
                    self.completion.push((now - at) as f64);
                    self.completion_hist.record(now - at);
                    self.retired += 1;
                    self.outstanding -= 1;
                }
                Emission::Done => {
                    assert!(!self.done[node.idx()], "node {} done twice", node.0);
                    self.done[node.idx()] = true;
                }
            }
        }
        self.scratch = out;
    }

    /// Record the payload of a freshly injected protocol unicast.
    pub(crate) fn note_unicast(&mut self, id: MsgId, dst: NodeId, payload: Payload) {
        let prev = self.unicast_payload.insert(id, (dst, payload));
        debug_assert!(prev.is_none(), "message id {id} reused while in flight");
    }

    /// Record the payload of a freshly injected protocol multicast.
    pub(crate) fn note_multicast(&mut self, op: OpId, payload: Payload) {
        let prev = self.op_payload.insert(op, payload);
        debug_assert!(prev.is_none(), "op id {op} reused while in flight");
    }

    /// A protocol unicast was absorbed: its destination and payload.
    pub(crate) fn unicast_delivered(&mut self, id: MsgId) -> (NodeId, Payload) {
        self.unicast_payload
            .remove(&id)
            .expect("absorbed unicast unknown to the driver")
    }

    /// The payload a multicast absorption delivers (the op is still in
    /// flight until [`ClosedLoopDriver::op_done`]).
    pub(crate) fn absorb_payload(&self, op: OpId) -> Payload {
        *self
            .op_payload
            .get(&op)
            .expect("absorbing stream of an op unknown to the driver")
    }

    /// A multicast operation completed at every target.
    pub(crate) fn op_done(&mut self, op: OpId) {
        self.op_payload
            .remove(&op)
            .expect("completed op unknown to the driver");
    }

    /// The cycle `node`'s pending timer fires, if any (the cycle engine's
    /// per-cycle poll).
    pub(crate) fn timer_at(&self, node: NodeId) -> Option<u64> {
        self.timers[node.idx()]
    }

    /// Nothing left to do: every machine is done, no request, timer or
    /// protocol message is outstanding.
    pub(crate) fn quiescent(&self) -> bool {
        self.outstanding == 0
            && self.done.iter().all(|&d| d)
            && self.timers.iter().all(Option::is_none)
            && self.unicast_payload.is_empty()
            && self.op_payload.is_empty()
    }

    fn update_occ(&mut self, now: u64) {
        self.occ_area += self.outstanding as u128 * (now - self.occ_last) as u128;
        self.occ_last = now;
    }

    /// Close the books at `cycles` and summarise the run.
    pub(crate) fn finish(&mut self, cycles: u64, quiesced: bool) -> ClosedLoopResults {
        self.update_occ(cycles);
        if quiesced {
            assert_eq!(
                self.issued, self.retired,
                "quiescent run with unretired requests"
            );
            assert!(
                self.unicast_payload.is_empty() && self.op_payload.is_empty(),
                "quiescent run with protocol messages in flight"
            );
        }
        let denom = cycles.max(1) as f64;
        ClosedLoopResults {
            requests_issued: self.issued,
            requests_retired: self.retired,
            completion: LatencyStats::from_welford(&self.completion),
            completion_hist: self.completion_hist.clone(),
            avg_outstanding: self.occ_area as f64 / denom,
            ops_per_cycle: self.retired as f64 / denom,
            quiesced,
            quiesce_cycle: cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_app::ClosedLoopSpec;

    fn driver(n: usize) -> ClosedLoopDriver {
        let spec = ClosedLoopSpec::Coherence {
            window: 2,
            requests: 4,
            write_fraction: 0.0,
        };
        ClosedLoopDriver::new(spec.build(&vec![(n - 1) as u32; n], 7))
    }

    #[test]
    fn start_issues_and_tracks_occupancy() {
        let mut d = driver(4);
        let mut actions = Vec::new();
        for i in 0..4 {
            d.dispatch(0, NodeId(i), AppEvent::Start, &mut actions);
        }
        assert_eq!(d.issued, 8, "window 2 on 4 nodes");
        assert_eq!(d.outstanding, 8);
        assert_eq!(actions.len(), 8, "one unicast per issued read");
        assert!(!d.quiescent());
    }

    #[test]
    fn delivery_round_trip_retires() {
        let mut d = driver(2);
        let mut actions = Vec::new();
        d.dispatch(0, NodeId(0), AppEvent::Start, &mut actions);
        // Perform the two requests by hand: home answers with Data.
        let reqs: Vec<(NodeId, Payload)> = actions
            .iter()
            .filter_map(|a| match *a {
                Action::Unicast { dst, payload, .. } => Some((dst, payload)),
                _ => None,
            })
            .collect();
        actions.clear();
        for (home, p) in reqs {
            d.dispatch(10, home, AppEvent::Delivery(p), &mut actions);
        }
        // Home emitted Data unicasts back; deliver them.
        let replies: Vec<(NodeId, Payload)> = actions
            .iter()
            .filter_map(|a| match *a {
                Action::Unicast { dst, payload, .. } => Some((dst, payload)),
                _ => None,
            })
            .collect();
        actions.clear();
        for (dst, p) in replies {
            d.dispatch(25, dst, AppEvent::Delivery(p), &mut actions);
        }
        assert_eq!(d.retired, 2);
        let res = d.finish(100, false);
        assert_eq!(res.requests_retired, 2);
        assert_eq!(res.completion.count, 2);
        assert_eq!(res.completion.mean, 25.0, "issued at 0, retired at 25");
        assert_eq!(res.completion_hist.p50(), 25.0, "exact below 64");
        assert_eq!(res.completion_hist.p99(), 25.0);
        assert_eq!(res.completion_hist.count(), 2);
        // Occupancy integral: 2 outstanding over cycles 0..25 (window
        // refills keep it at 2 until both retire), then the refilled pair.
        assert!(res.avg_outstanding > 0.0);
    }

    #[test]
    #[should_panic(expected = "off-schedule")]
    fn off_schedule_timeout_is_rejected() {
        let mut d = driver(2);
        let mut actions = Vec::new();
        d.dispatch(0, NodeId(0), AppEvent::Timeout, &mut actions);
    }
}
