//! Bidirectional ring with a two-port router.
//!
//! The ring is the minimal topology exercising the paper's multicast model
//! with `m = 2` asynchronous port streams: a multicast splits into a
//! clockwise and a counter-clockwise stream, and the multicast waiting time
//! is the expected maximum of two independent exponentials (Eq. 10–11).
//! It is used in unit/property tests and in the port-count ablation.

use crate::ids::{ChannelId, NodeId, PortId};
use crate::network::{Network, Topology, TopologyError};
use crate::path::{Hop, MulticastStream, Path};
use crate::rim::Rim;

/// Port indices of the two-port ring router.
pub mod port {
    use crate::ids::PortId;

    /// Clockwise port.
    pub const CW: PortId = crate::rim::CW;
    /// Counter-clockwise port.
    pub const CCW: PortId = crate::rim::CCW;

    /// Both ports in index order.
    pub const ALL: [PortId; 2] = [CW, CCW];
}

/// A bidirectional ring of `N ≥ 4` nodes with all-port (two-port) routers.
#[derive(Clone, Debug)]
pub struct Ring {
    rim: Rim,
    net: Network,
}

impl Ring {
    /// Build a ring with `n` nodes (`n ≥ 4`).
    pub fn new(n: usize) -> Result<Self, TopologyError> {
        if n < 4 {
            return Err(TopologyError::UnsupportedSize {
                n,
                requirement: "Ring requires N >= 4",
            });
        }
        let rim = Rim { n };
        let net = Network::dense(n, 2, rim.links());
        Ok(Ring { rim, net })
    }

    /// Node count.
    #[inline]
    pub fn n(&self) -> usize {
        self.rim.n
    }

    /// Clockwise distance from `s` to `d`.
    #[inline]
    pub fn cw_dist(&self, s: NodeId, d: NodeId) -> usize {
        self.rim.cw_dist(s, d)
    }

    /// Largest clockwise distance served by the clockwise port.
    #[inline]
    fn cw_reach(&self) -> usize {
        self.rim.n / 2 // d in [1, n/2] go cw; the rest ccw
    }
}

impl Topology for Ring {
    fn name(&self) -> &str {
        "ring"
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn port_for(&self, src: NodeId, dst: NodeId) -> PortId {
        assert_ne!(src, dst);
        if self.cw_dist(src, dst) <= self.cw_reach() {
            port::CW
        } else {
            port::CCW
        }
    }

    fn unicast_path(&self, src: NodeId, dst: NodeId) -> Path {
        let port = self.port_for(src, dst);
        let d_cw = self.cw_dist(src, dst);
        let steps = if port == port::CW {
            d_cw
        } else {
            self.rim.n - d_cw
        };
        let mut hops = Vec::with_capacity(steps + 2);
        hops.push(Hop::new(self.net.injection_channel(src, port), 0));
        self.rim.push_hops(&mut hops, port, src.idx(), steps);
        hops.push(Hop::new(self.net.ejection_channel(dst, port), 0));
        Path {
            src,
            dst,
            port,
            hops,
        }
    }

    fn quadrant(&self, src: NodeId, p: PortId) -> Vec<NodeId> {
        let (s, n) = (src.idx(), self.rim.n);
        match p {
            x if x == port::CW => (1..=self.cw_reach())
                .map(|d| self.rim.node(s + d))
                .collect(),
            x if x == port::CCW => (self.cw_reach() + 1..n)
                .rev()
                .map(|d| self.rim.node(s + d))
                .collect(),
            _ => panic!("invalid ring port {p:?}"),
        }
    }

    fn multicast_streams(&self, src: NodeId, targets: &[NodeId]) -> Vec<MulticastStream> {
        // The counter-clockwise stream visits ascending ccw distance.
        self.rim.multicast_streams(self, src, targets, &[port::CCW])
    }

    fn diameter(&self) -> usize {
        self.rim.n / 2
    }

    fn translate(&self, c: ChannelId, by: NodeId) -> Option<ChannelId> {
        Some(self.rim.translate(&self.net, c, by))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rejects_tiny_rings() {
        assert!(Ring::new(3).is_err());
        assert!(Ring::new(4).is_ok());
    }

    #[test]
    fn quadrants_partition() {
        for n in [4, 5, 8, 9] {
            let r = Ring::new(n).unwrap();
            for s in 0..n {
                let s = NodeId(s as u32);
                let mut seen = BTreeSet::new();
                for p in port::ALL {
                    for t in r.quadrant(s, p) {
                        assert!(seen.insert(t));
                    }
                }
                assert_eq!(seen.len(), n - 1);
            }
        }
    }

    #[test]
    fn paths_valid_and_shortest_up_to_tiebreak() {
        for n in [4, 5, 8, 9] {
            let r = Ring::new(n).unwrap();
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let p = r.unicast_path(s, d);
                    r.network().validate_path(&p).unwrap();
                    let dcw = r.cw_dist(s, d);
                    let shortest = dcw.min(n - dcw);
                    // cw ties break clockwise; the route is never more than
                    // one hop class away from shortest (exact for all but
                    // the even-N antipode, which is exactly shortest too).
                    assert!(p.link_count() == shortest || p.link_count() == dcw);
                    assert!(p.link_count() <= r.diameter());
                }
            }
        }
    }

    #[test]
    fn multicast_two_streams() {
        let r = Ring::new(8).unwrap();
        let s = NodeId(0);
        let streams = r.multicast_streams(s, &[NodeId(1), NodeId(3), NodeId(6), NodeId(7)]);
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].port, port::CW);
        assert_eq!(streams[0].targets, vec![NodeId(1), NodeId(3)]);
        assert_eq!(streams[0].path.dst, NodeId(3));
        assert_eq!(streams[1].port, port::CCW);
        assert_eq!(streams[1].targets, vec![NodeId(7), NodeId(6)]);
        assert_eq!(streams[1].path.dst, NodeId(6));
    }

    #[test]
    fn broadcast_covers_ring() {
        let r = Ring::new(9).unwrap();
        let streams = r.broadcast_streams(NodeId(4));
        let covered: BTreeSet<_> = streams.iter().flat_map(|s| s.targets.clone()).collect();
        assert_eq!(covered.len(), 8);
    }

    #[test]
    fn dateline_vcs_on_wrap() {
        let r = Ring::new(8).unwrap();
        let p = r.unicast_path(NodeId(6), NodeId(2));
        // cw path 6->7->0->1->2 crosses the 7->0 dateline.
        let vcs: Vec<u8> = p.hops.iter().map(|h| h.vc.0).collect();
        assert_eq!(vcs, vec![0, 0, 1, 1, 1, 0]);
    }
}
