//! Barrier/allreduce rounds over a radix-`r` fan-in tree.
//!
//! All nodes repeatedly synchronize: each round, every node "computes"
//! for a random number of cycles (a timer — this protocol is what
//! exercises the timeout path), then arrives at the barrier. Arrivals
//! combine up a radix-`r` tree rooted at node 0 (`parent(i) = (i-1)/r`,
//! the reduce of an allreduce); once the root has every arrival it
//! *multicasts* the release over its destination set (the broadcast of an
//! allreduce), and receipt of the release both retires the round and
//! starts the next one.
//!
//! One request = one node's participation in one round, so the round
//! latency distribution is the per-request completion latency. Arrivals
//! for round `k+1` can reach a parent that is still waiting on its own
//! release for round `k` (release absorption times differ across the
//! multicast), so each machine buffers one round of early arrivals; a
//! child can never run two rounds ahead, because releasing round `k+1`
//! needs this very machine's arrival first.

use crate::protocol::{AppEvent, Emission, Payload};
use noc_topology::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;

/// Message kinds of the barrier protocol.
mod kind {
    pub const ARRIVE: u8 = 0;
    pub const RELEASE: u8 = 1;
}

/// The barrier/allreduce protocol description.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Barrier {
    /// Number of barrier rounds to run.
    pub(crate) rounds: u32,
    /// Fan-in radix of the combining tree (`>= 1`).
    pub(crate) radix: u32,
    /// Maximum extra compute delay per round; each node draws uniformly
    /// from `1..=1+compute` cycles before arriving (saturating at
    /// `u64::MAX`).
    pub(crate) compute: u64,
}

/// Per-node barrier machine state.
#[derive(Clone, Debug)]
pub(crate) struct BarState {
    num_children: u32,
    /// Current round (also the request id).
    round: u32,
    self_arrived: bool,
    /// Child arrivals received for the current round.
    arrived: u32,
    /// Child arrivals received one round early.
    early: u32,
}

impl Barrier {
    fn parent(&self, node: NodeId) -> NodeId {
        NodeId((node.0 - 1) / self.radix)
    }

    fn num_children(&self, node: NodeId, n: usize) -> u32 {
        let first = node.0 as u64 * self.radix as u64 + 1;
        let last = (first + self.radix as u64).min(n as u64);
        last.saturating_sub(first) as u32
    }

    fn start_round(&self, st: &mut BarState, rng: &mut SmallRng, out: &mut Vec<Emission>) {
        out.push(Emission::Issued { req: st.round });
        out.push(Emission::Timer {
            delay: rng.gen_range(1..=self.compute.saturating_add(1)),
        });
    }

    /// Root releases / inner node forwards once its subtree has arrived.
    fn check_fanin(
        &self,
        node: NodeId,
        st: &mut BarState,
        rng: &mut SmallRng,
        out: &mut Vec<Emission>,
    ) {
        if !st.self_arrived || st.arrived < st.num_children {
            return;
        }
        if node == NodeId(0) {
            out.push(Emission::Multicast {
                payload: Payload {
                    kind: kind::RELEASE,
                    req: st.round,
                    origin: node,
                    aux: 0,
                },
            });
            // The root's own release is implicit (its destination set
            // excludes itself): retire and move on at the emission.
            self.finish_round(st, rng, out);
        } else {
            out.push(Emission::Unicast {
                dst: self.parent(node),
                payload: Payload {
                    kind: kind::ARRIVE,
                    req: st.round,
                    origin: node,
                    aux: 0,
                },
            });
        }
    }

    fn finish_round(&self, st: &mut BarState, rng: &mut SmallRng, out: &mut Vec<Emission>) {
        out.push(Emission::Retired { req: st.round });
        st.round += 1;
        st.self_arrived = false;
        // Buffered early arrivals become this round's arrivals; the
        // fan-in re-check waits for this machine's own compute timer,
        // since self_arrived is false again.
        st.arrived = st.early;
        st.early = 0;
        if st.round < self.rounds {
            self.start_round(st, rng, out);
        } else {
            out.push(Emission::Done);
            debug_assert_eq!(st.early, 0, "arrivals past the last round");
        }
    }

    /// The initial state of `node`'s machine in a network of `n` nodes.
    pub(crate) fn init(&self, node: NodeId, n: usize) -> BarState {
        BarState {
            num_children: self.num_children(node, n),
            round: 0,
            self_arrived: false,
            arrived: 0,
            early: 0,
        }
    }

    /// Advance `node`'s machine by one event.
    pub(crate) fn step(
        &self,
        node: NodeId,
        st: &mut BarState,
        event: AppEvent,
        rng: &mut SmallRng,
        out: &mut Vec<Emission>,
    ) {
        match event {
            AppEvent::Start => {
                if self.rounds == 0 {
                    out.push(Emission::Done);
                    return;
                }
                self.start_round(st, rng, out);
            }
            AppEvent::Timeout => {
                st.self_arrived = true;
                self.check_fanin(node, st, rng, out);
            }
            AppEvent::Delivery(p) => match p.kind {
                kind::ARRIVE => {
                    if p.req == st.round {
                        st.arrived += 1;
                        self.check_fanin(node, st, rng, out);
                    } else if p.req == st.round + 1 {
                        st.early += 1;
                    } else {
                        unreachable!(
                            "arrival for round {} while node {} is in round {}",
                            p.req, node.0, st.round
                        );
                    }
                }
                kind::RELEASE => {
                    debug_assert_eq!(p.req, st.round, "release for a foreign round");
                    self.finish_round(st, rng, out);
                }
                other => unreachable!("unknown barrier message kind {other}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClosedLoopSpec;

    #[test]
    fn tree_shape() {
        let b = Barrier {
            rounds: 1,
            radix: 2,
            compute: 0,
        };
        assert_eq!(b.parent(NodeId(1)), NodeId(0));
        assert_eq!(b.parent(NodeId(2)), NodeId(0));
        assert_eq!(b.parent(NodeId(5)), NodeId(2));
        assert_eq!(b.num_children(NodeId(0), 7), 2);
        assert_eq!(b.num_children(NodeId(2), 7), 2);
        assert_eq!(b.num_children(NodeId(3), 7), 0);
        // Clamped at the edge of the node range.
        assert_eq!(b.num_children(NodeId(2), 6), 1);
        let total: u32 = (0..7).map(|i| b.num_children(NodeId(i), 7)).sum();
        assert_eq!(total, 6, "every non-root is someone's child exactly once");
    }

    #[test]
    fn rounds_drive_a_full_barrier_in_lockstep() {
        // Drive a 4-node radix-2 barrier by hand, playing the network:
        // deliver every emitted message instantly, fire timers in node
        // order. Two rounds must retire on every node, exactly once each.
        let spec = ClosedLoopSpec::Barrier {
            rounds: 2,
            radix: 2,
            compute: 3,
        };
        let n = 4;
        let mut bank = spec.build(&vec![(n - 1) as u32; n], 9);
        let mut retired = vec![0u32; n];
        let mut done = vec![false; n];
        let mut inbox: Vec<(NodeId, AppEvent)> = (0..n)
            .map(|i| (NodeId(i as u32), AppEvent::Start))
            .collect();
        let mut timers: Vec<NodeId> = Vec::new();
        let mut guard = 0;
        while !done.iter().all(|&d| d) {
            guard += 1;
            assert!(guard < 1000, "barrier failed to converge");
            if inbox.is_empty() {
                // Quiescent: fire all pending timers in node order.
                timers.sort_by_key(|t| t.0);
                inbox.extend(timers.drain(..).map(|t| (t, AppEvent::Timeout)));
                assert!(!inbox.is_empty(), "deadlock: no timers, no messages");
            }
            let (node, ev) = inbox.remove(0);
            let mut out = Vec::new();
            bank.step(node, ev, &mut out);
            for e in out {
                match e {
                    Emission::Unicast { dst, payload } => {
                        inbox.push((dst, AppEvent::Delivery(payload)))
                    }
                    Emission::Multicast { payload } => {
                        for i in 0..n {
                            if NodeId(i as u32) != node {
                                inbox.push((NodeId(i as u32), AppEvent::Delivery(payload)));
                            }
                        }
                    }
                    Emission::Timer { delay } => {
                        assert!((1..=4).contains(&delay));
                        timers.push(node);
                    }
                    Emission::Issued { .. } => {}
                    Emission::Retired { .. } => retired[node.idx()] += 1,
                    Emission::Done => done[node.idx()] = true,
                }
            }
        }
        assert_eq!(retired, vec![2; n], "every node retires every round once");
    }
}
