//! Paths and multicast streams.
//!
//! A [`Path`] is the complete, ordered sequence of channel traversals of a
//! wormhole message: injection channel, link channels, ejection channel.
//! Virtual-channel choices are resolved at path-construction time (the
//! routing is deterministic, so the VC of every hop is a function of the
//! path alone — the "dateline" discipline of ring topologies).
//!
//! A [`MulticastStream`] is one of the `m` independent port streams of a
//! path-based (BRCP) multicast: the stream's path runs from the source to
//! the *last* target served by that injection port, and `targets` lists the
//! absorb-and-forward nodes in visit order (paper §3.3.2–3.3.3).

use crate::ids::{ChannelId, NodeId, PortId, VcId};
use serde::{Deserialize, Serialize};

/// One channel traversal of a path, with its resolved virtual channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hop {
    /// The channel being traversed.
    pub channel: ChannelId,
    /// The virtual channel used on it.
    pub vc: VcId,
}

impl Hop {
    /// Convenience constructor.
    #[inline]
    pub fn new(channel: ChannelId, vc: u8) -> Self {
        Hop {
            channel,
            vc: VcId(vc),
        }
    }
}

/// A complete route: injection hop, link hops, ejection hop.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// Source node.
    pub src: NodeId,
    /// Destination node (the node whose ejection channel terminates the
    /// path; for multicast streams, the last node visited).
    pub dst: NodeId,
    /// Injection port used at the source.
    pub port: PortId,
    /// Hops in traversal order. Always at least 2 entries (injection +
    /// ejection); `hops.len() - 2` link traversals in between.
    pub hops: Vec<Hop>,
}

impl Path {
    /// Number of inter-router links traversed.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.hops.len().saturating_sub(2)
    }

    /// The hop count `D` used by the analytical model: `len() - 1`, so that
    /// the zero-load latency `msg + D` matches the flit-level simulator
    /// exactly (see the crate-level documentation).
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }

    /// Total number of channel traversals (injection + links + ejection).
    #[inline]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// `true` if the path has no hops (never produced by the topologies).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Iterate over the channel ids in traversal order.
    pub fn channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.hops.iter().map(|h| h.channel)
    }

    /// Consecutive `(from, to)` channel pairs, used to build the
    /// next-channel transition counts of the analytical model (Eq. 6).
    pub fn transitions(&self) -> impl Iterator<Item = (ChannelId, ChannelId)> + '_ {
        self.hops.windows(2).map(|w| (w[0].channel, w[1].channel))
    }
}

/// One port stream of a path-based multicast operation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MulticastStream {
    /// The injection port this stream leaves through.
    pub port: PortId,
    /// Path from the source to the last target of this stream.
    pub path: Path,
    /// Targets absorbed by this stream, in visit order. The final element
    /// equals `path.dst`. Intermediate entries are absorb-and-forward nodes
    /// (clone to the local sink while forwarding along the rim).
    pub targets: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_path() -> Path {
        Path {
            src: NodeId(0),
            dst: NodeId(3),
            port: PortId(0),
            hops: vec![
                Hop::new(ChannelId(100), 0), // injection
                Hop::new(ChannelId(0), 0),
                Hop::new(ChannelId(1), 0),
                Hop::new(ChannelId(2), 1),
                Hop::new(ChannelId(200), 0), /* ejection */
            ],
        }
    }

    #[test]
    fn hop_accounting() {
        let p = sample_path();
        assert_eq!(p.len(), 5);
        assert_eq!(p.link_count(), 3);
        assert_eq!(p.hop_count(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn transitions_cover_consecutive_pairs() {
        let p = sample_path();
        let t: Vec<_> = p.transitions().collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], (ChannelId(100), ChannelId(0)));
        assert_eq!(t[3], (ChannelId(2), ChannelId(200)));
    }

    #[test]
    fn channels_iterates_in_order() {
        let p = sample_path();
        let cs: Vec<_> = p.channels().collect();
        assert_eq!(cs.first(), Some(&ChannelId(100)));
        assert_eq!(cs.last(), Some(&ChannelId(200)));
    }
}
