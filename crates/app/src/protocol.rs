//! The pure protocol model: events in, emissions out.
//!
//! [`Machines`] holds one deterministic state machine per node. The
//! engine-facing dispatcher translates network happenings into
//! [`AppEvent`]s, feeds them to the machines, and performs the returned
//! [`Emission`]s — a machine never sees a cycle number, a channel or an
//! engine. That split is what makes closed-loop runs replay
//! bit-identically on the cycle and the event engine: both feed the same
//! event sequence in the same order, and all randomness is drawn from the
//! machine's own seeded RNG.

use crate::barrier::{BarState, Barrier};
use crate::coherence::{CohState, Coherence};
use noc_topology::NodeId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Seed-mix constant for per-node protocol RNG streams.
///
/// Deliberately distinct from the engines' arrival-stream mix so protocol
/// draws never alias traffic draws under the same master seed (fractional
/// bits of √2, forced odd).
pub const APP_SEED_MIX: u64 = 0x6A09_E667_F3BC_C909;

/// The per-node protocol RNG for `(master_seed, node)`.
///
/// Every node gets an independent, reproducible stream; the dispatcher
/// seeds one per machine so emission randomness is independent of event
/// interleaving across nodes.
pub fn app_rng(master_seed: u64, node: NodeId) -> SmallRng {
    SmallRng::seed_from_u64(master_seed ^ APP_SEED_MIX.wrapping_mul(node.idx() as u64 + 1))
}

/// An application-level message: what a machine sends and receives.
///
/// Protocols interpret the fields; the network only moves them. `kind`
/// discriminates message types within one protocol, `req` names the
/// request a message belongs to (unique per origin node), `origin` is the
/// node the request belongs to, and `aux` carries protocol data (e.g. an
/// expected-ack count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Payload {
    /// Protocol-private message type.
    pub kind: u8,
    /// Request id, unique per `origin`.
    pub req: u32,
    /// The node whose request this message serves.
    pub origin: NodeId,
    /// Protocol-private auxiliary word.
    pub aux: u32,
}

/// An input to a protocol machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppEvent {
    /// The run begins; delivered to every node once, in node order,
    /// before any network activity.
    Start,
    /// A message addressed to this node was absorbed.
    Delivery(Payload),
    /// A timer previously set via [`Emission::Timer`] fired.
    Timeout,
}

/// An output of a protocol machine, performed by the dispatcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Emission {
    /// Inject a unicast message to `dst`.
    Unicast {
        /// Destination node.
        dst: NodeId,
        /// Application payload delivered with the message.
        payload: Payload,
    },
    /// Inject a multicast operation over this node's configured
    /// destination set (the workload's destination sets double as the
    /// protocol's sharer/release sets).
    Multicast {
        /// Application payload delivered at every absorption.
        payload: Payload,
    },
    /// Request a [`AppEvent::Timeout`] `delay` cycles from now
    /// (`delay >= 1`; at most one timer may be pending per node; a due
    /// cycle past `u64::MAX` saturates to it, which never fires).
    Timer {
        /// Cycles until the timeout fires (must be at least 1).
        delay: u64,
    },
    /// Bookkeeping marker: this node issued request `req`.
    Issued {
        /// Request id, unique per node.
        req: u32,
    },
    /// Bookkeeping marker: request `req` completed. Every issued request
    /// must retire exactly once (the dispatcher enforces this).
    Retired {
        /// Request id previously announced via [`Emission::Issued`].
        req: u32,
    },
    /// This node has no further work: it will issue no more requests and
    /// set no more timers (it may still answer deliveries).
    Done,
}

/// The per-node machines of one closed-loop run, built by
/// [`ClosedLoopSpec::build`](crate::ClosedLoopSpec::build): one protocol
/// state and one seeded RNG per node.
///
/// A machine's step is a pure function of `(state, event, rng)`: no
/// interior mutability, no global state, no clocks. The dispatcher owns
/// when events happen; the machine owns only what they mean.
pub struct Machines {
    pub(crate) bank: Bank,
    pub(crate) rngs: Vec<SmallRng>,
}

/// One protocol description with its per-node states.
pub(crate) enum Bank {
    Coherence(Coherence, Vec<CohState>),
    Barrier(Barrier, Vec<BarState>),
}

impl Machines {
    /// Number of node machines.
    pub fn num_nodes(&self) -> usize {
        self.rngs.len()
    }

    /// Feed `event` to `node`'s machine, appending its emissions to `out`
    /// in the order they should be performed.
    pub fn step(&mut self, node: NodeId, event: AppEvent, out: &mut Vec<Emission>) {
        let rng = &mut self.rngs[node.idx()];
        match &mut self.bank {
            Bank::Coherence(proto, states) => {
                proto.step(node, &mut states[node.idx()], event, rng, out)
            }
            Bank::Barrier(proto, states) => {
                proto.step(node, &mut states[node.idx()], event, rng, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn app_rng_streams_are_per_node_and_reproducible() {
        let mut a = app_rng(42, NodeId(3));
        let mut a2 = app_rng(42, NodeId(3));
        let mut b = app_rng(42, NodeId(4));
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs, xs2);
        assert_ne!(xs, ys);
    }

    #[test]
    fn app_mix_differs_from_traffic_mix() {
        // The arrival-stream mix in noc-sim; protocol streams must not
        // alias it under a shared master seed.
        const NODE_SEED_MIX: u64 = 0xA076_1D64_78BD_642F;
        assert_ne!(APP_SEED_MIX, NODE_SEED_MIX);
        assert_eq!(
            APP_SEED_MIX & 1,
            1,
            "odd multiplier: node index mixes into all bits"
        );
    }
}
