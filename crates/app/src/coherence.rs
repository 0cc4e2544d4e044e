//! Invalidation-based coherence: the first closed-loop machine.
//!
//! Each node works through a fixed budget of requests, keeping at most
//! `window` outstanding at a time. A request picks a uniformly random
//! *home* node (never itself) and is a write with probability
//! `write_fraction`:
//!
//! * **Read:** requester → home `ReadReq`; home → requester `Data`;
//!   the request retires on `Data`.
//! * **Write:** requester → home `WriteReq`; home *multicasts*
//!   `Invalidate` over its configured destination set (the sharers) and
//!   unicasts `WriteGrant` back with the expected ack count; every sharer
//!   acks the requester directly (`InvAck`); the request retires once the
//!   grant and all acks are in.
//!
//! Writes are the natural consumer of the paper's multicast machinery —
//! one write turns into a multicast fan-out plus a converging ack wave —
//! and the window bound is what makes the workload closed-loop: a slow
//! network stalls the sources instead of queueing unboundedly.
//!
//! Grant and acks race freely (a sharer near the requester can ack before
//! the grant arrives, and the requester may absorb its *own* invalidation
//! when it is in the home's sharer set — that counts as a self-ack), so
//! retirement checks are order-independent.

use crate::protocol::{AppEvent, Emission, Payload};
use noc_topology::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;

/// Message kinds of the coherence protocol.
mod kind {
    pub const READ_REQ: u8 = 0;
    pub const DATA: u8 = 1;
    pub const WRITE_REQ: u8 = 2;
    pub const INVALIDATE: u8 = 3;
    pub const WRITE_GRANT: u8 = 4;
    pub const INV_ACK: u8 = 5;
}

/// The invalidation-based coherence protocol description.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Coherence {
    /// Maximum outstanding requests per node.
    pub(crate) window: u32,
    /// Total requests each node issues over the run.
    pub(crate) requests: u32,
    /// Probability that a request is a write (`0.0..=1.0`).
    pub(crate) write_fraction: f64,
}

/// One outstanding request at its requester.
#[derive(Clone, Copy, Debug)]
struct Pending {
    req: u32,
    write: bool,
    /// `Data` (read) or `WriteGrant` (write) received.
    replied: bool,
    /// Acks received so far (writes only; includes the self-ack).
    acks: u32,
    /// Expected ack count, known once the grant arrives.
    expected: Option<u32>,
}

/// Per-node coherence machine state.
#[derive(Clone, Debug)]
pub(crate) struct CohState {
    n: u32,
    /// This node's multicast fan-out — the ack count its `WriteGrant`s
    /// promise when it acts as a home.
    fanout: u32,
    next_seq: u32,
    retired: u32,
    pending: Vec<Pending>,
}

impl Coherence {
    fn issue(&self, node: NodeId, st: &mut CohState, rng: &mut SmallRng, out: &mut Vec<Emission>) {
        let req = st.next_seq;
        st.next_seq += 1;
        let write = rng.gen_bool(self.write_fraction);
        // Uniform home over the other n-1 nodes.
        let mut home = rng.gen_range(0..st.n - 1);
        if home >= node.0 {
            home += 1;
        }
        st.pending.push(Pending {
            req,
            write,
            replied: false,
            acks: 0,
            expected: None,
        });
        out.push(Emission::Issued { req });
        out.push(Emission::Unicast {
            dst: NodeId(home),
            payload: Payload {
                kind: if write {
                    kind::WRITE_REQ
                } else {
                    kind::READ_REQ
                },
                req,
                origin: node,
                aux: 0,
            },
        });
    }

    /// Retire every pending request whose conditions are met, refilling
    /// the window from the remaining budget.
    fn settle(&self, node: NodeId, st: &mut CohState, rng: &mut SmallRng, out: &mut Vec<Emission>) {
        while let Some(i) = st
            .pending
            .iter()
            .position(|p| p.replied && (!p.write || p.expected == Some(p.acks)))
        {
            let p = st.pending.remove(i);
            st.retired += 1;
            out.push(Emission::Retired { req: p.req });
            if st.next_seq < self.requests {
                self.issue(node, st, rng, out);
            } else if st.retired == self.requests {
                out.push(Emission::Done);
            }
        }
    }

    /// The initial state of `node`'s machine; `fanout` holds every node's
    /// multicast fan-out (the size of its destination set).
    pub(crate) fn init(&self, node: NodeId, fanout: &[u32]) -> CohState {
        CohState {
            n: fanout.len() as u32,
            fanout: fanout[node.idx()],
            next_seq: 0,
            retired: 0,
            pending: Vec::with_capacity(self.window as usize),
        }
    }

    /// Advance `node`'s machine by one event.
    pub(crate) fn step(
        &self,
        node: NodeId,
        st: &mut CohState,
        event: AppEvent,
        rng: &mut SmallRng,
        out: &mut Vec<Emission>,
    ) {
        match event {
            AppEvent::Start => {
                if self.requests == 0 {
                    out.push(Emission::Done);
                    return;
                }
                let first = self.window.min(self.requests);
                for _ in 0..first {
                    self.issue(node, st, rng, out);
                }
            }
            AppEvent::Timeout => {
                unreachable!("coherence machines set no timers")
            }
            AppEvent::Delivery(p) => match p.kind {
                // --- home-side (stateless) ---
                kind::READ_REQ => out.push(Emission::Unicast {
                    dst: p.origin,
                    payload: Payload {
                        kind: kind::DATA,
                        ..p
                    },
                }),
                kind::WRITE_REQ => {
                    out.push(Emission::Multicast {
                        payload: Payload {
                            kind: kind::INVALIDATE,
                            ..p
                        },
                    });
                    out.push(Emission::Unicast {
                        dst: p.origin,
                        payload: Payload {
                            kind: kind::WRITE_GRANT,
                            aux: st.fanout,
                            ..p
                        },
                    });
                }
                // --- sharer-side ---
                kind::INVALIDATE if p.origin != node => out.push(Emission::Unicast {
                    dst: p.origin,
                    payload: Payload {
                        kind: kind::INV_ACK,
                        ..p
                    },
                }),
                // --- requester-side ---
                kind::DATA | kind::WRITE_GRANT | kind::INV_ACK | kind::INVALIDATE => {
                    let pending = st
                        .pending
                        .iter_mut()
                        .find(|q| q.req == p.req)
                        .expect("coherence reply for a request that is not pending");
                    match p.kind {
                        kind::DATA => pending.replied = true,
                        kind::WRITE_GRANT => {
                            pending.replied = true;
                            pending.expected = Some(p.aux);
                        }
                        // An `InvAck`, or our own `Invalidate` echoed back
                        // because we sit in the home's sharer set.
                        _ => pending.acks += 1,
                    }
                    self.settle(node, st, rng, out);
                }
                other => unreachable!("unknown coherence message kind {other}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClosedLoopSpec, Machines};

    /// `n` coherence machines, each node's multicast reaching `fanout`.
    fn machines(spec: ClosedLoopSpec, n: usize, fanout: u32, seed: u64) -> Machines {
        spec.build(&vec![fanout; n], seed)
    }

    #[test]
    fn start_fills_the_window_only() {
        let spec = ClosedLoopSpec::Coherence {
            window: 3,
            requests: 10,
            write_fraction: 0.0,
        };
        let mut bank = machines(spec, 8, 2, 7);
        let mut out = Vec::new();
        bank.step(NodeId(0), AppEvent::Start, &mut out);
        let issued = out
            .iter()
            .filter(|e| matches!(e, Emission::Issued { .. }))
            .count();
        let sent = out
            .iter()
            .filter(|e| matches!(e, Emission::Unicast { .. }))
            .count();
        assert_eq!(issued, 3);
        assert_eq!(sent, 3);
    }

    #[test]
    fn read_retires_on_data_and_refills() {
        let spec = ClosedLoopSpec::Coherence {
            window: 1,
            requests: 2,
            write_fraction: 0.0,
        };
        let mut bank = machines(spec, 4, 1, 1);
        let mut out = Vec::new();
        bank.step(NodeId(0), AppEvent::Start, &mut out);
        let Emission::Unicast { payload, .. } = out[1] else {
            panic!("expected the request unicast, got {out:?}");
        };
        out.clear();
        bank.step(
            NodeId(0),
            AppEvent::Delivery(Payload {
                kind: kind::DATA,
                ..payload
            }),
            &mut out,
        );
        assert!(matches!(out[0], Emission::Retired { req } if req == payload.req));
        // The window refills with the second (and last) request.
        assert!(out.iter().any(|e| matches!(e, Emission::Issued { req: 1 })));
    }

    #[test]
    fn write_waits_for_grant_and_all_acks() {
        let spec = ClosedLoopSpec::Coherence {
            window: 1,
            requests: 1,
            write_fraction: 1.0,
        };
        let mut bank = machines(spec, 4, 2, 3);
        let mut out = Vec::new();
        bank.step(NodeId(0), AppEvent::Start, &mut out);
        let Emission::Unicast { payload, .. } = out[1] else {
            panic!("expected the request unicast, got {out:?}");
        };
        assert_eq!(payload.kind, kind::WRITE_REQ);
        // One ack first: no retirement yet (grant still missing).
        out.clear();
        bank.step(
            NodeId(0),
            AppEvent::Delivery(Payload {
                kind: kind::INV_ACK,
                ..payload
            }),
            &mut out,
        );
        assert!(out.is_empty());
        // Grant announcing two acks: still waiting for the second.
        out.clear();
        bank.step(
            NodeId(0),
            AppEvent::Delivery(Payload {
                kind: kind::WRITE_GRANT,
                aux: 2,
                ..payload
            }),
            &mut out,
        );
        assert!(out.is_empty());
        out.clear();
        bank.step(
            NodeId(0),
            AppEvent::Delivery(Payload {
                kind: kind::INV_ACK,
                ..payload
            }),
            &mut out,
        );
        assert!(matches!(out[0], Emission::Retired { req } if req == payload.req));
        assert!(matches!(out[1], Emission::Done));
    }

    #[test]
    fn home_answers_statelessly() {
        let spec = ClosedLoopSpec::Coherence {
            window: 1,
            requests: 1,
            write_fraction: 0.0,
        };
        let mut bank = machines(spec, 4, 2, 5);
        let mut out = Vec::new();
        let p = Payload {
            kind: kind::WRITE_REQ,
            req: 9,
            origin: NodeId(2),
            aux: 0,
        };
        bank.step(NodeId(1), AppEvent::Delivery(p), &mut out);
        assert!(
            matches!(out[0], Emission::Multicast { payload } if payload.kind == kind::INVALIDATE)
        );
        let Emission::Unicast { dst, payload } = out[1] else {
            panic!("expected the grant, got {out:?}");
        };
        assert_eq!(dst, NodeId(2));
        assert_eq!(payload.kind, kind::WRITE_GRANT);
        assert_eq!(payload.aux, 2, "grant promises the home's fan-out");
    }

    #[test]
    fn homes_are_never_self_and_draws_are_reproducible() {
        let spec = ClosedLoopSpec::Coherence {
            window: 4,
            requests: 64,
            write_fraction: 0.5,
        };
        let start = |bank: &mut Machines, node: u32| {
            let mut out = Vec::new();
            bank.step(NodeId(node), AppEvent::Start, &mut out);
            out
        };
        let mut bank = machines(spec, 8, 2, 11);
        let mut replay = machines(spec, 8, 2, 11);
        for node in 0..8u32 {
            let out = start(&mut bank, node);
            for e in &out {
                if let Emission::Unicast { dst, .. } = e {
                    assert_ne!(*dst, NodeId(node), "home must not be the requester");
                }
            }
            assert_eq!(out, start(&mut replay, node), "same seed, same draws");
        }
    }
}
