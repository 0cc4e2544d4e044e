//! The Quarc NoC (paper §3).
//!
//! The Quarc improves on the Spidergon by (i) doubling the cross link into a
//! *cross-left* and a *cross-right* physical link, (ii) upgrading the
//! one-port router to an **all-port** router, and (iii) letting routers
//! absorb-and-forward flits simultaneously. Routing requires no logic in the
//! switch: the route is completely determined by the injection port chosen
//! by the source transceiver (§3.3.1).
//!
//! For a Quarc of size `N = 4k`, node `s` reaches the other `N − 1` nodes
//! through four disjoint quadrants (Eq. 1–2):
//!
//! | port         | destinations (clockwise distance `d` from `s`) | route |
//! |--------------|--------------------------------------------------|-------|
//! | `CW`         | `d ∈ [1, k]`                                     | `d` clockwise rim links |
//! | `CCW`        | `d ∈ [3k, 4k−1]`                                 | `N − d` counter-clockwise rim links |
//! | `CROSS_LEFT` | `d ∈ [k+1, 2k]`                                  | cross link, then `2k − d` ccw rim links |
//! | `CROSS_RIGHT`| `d ∈ [2k+1, 3k−1]`                               | cross link, then `d − 2k` cw rim links |
//!
//! For `N = 16` and source 0 this reproduces the paper's broadcast example
//! exactly: the four streams terminate at nodes 4, 12, 5 and 11, and the
//! cross-left stream visits `8, 7, 6, 5` while cross-right visits
//! `9, 10, 11` (Fig. 3).
//!
//! The rim, its two virtual channels and their dateline discipline are
//! the Spidergon's (`rim.rs`).

use crate::ids::{ChannelId, NodeId, PortId};
use crate::network::{Network, Topology, TopologyError};
use crate::path::{Hop, MulticastStream, Path};
use crate::rim::Rim;

/// Port indices of the Quarc all-port router.
pub mod port {
    use crate::ids::PortId;

    /// Clockwise rim port.
    pub const CW: PortId = crate::rim::CW;
    /// Counter-clockwise rim port.
    pub const CCW: PortId = crate::rim::CCW;
    /// Cross-left port (serves the far quadrant reached via the cross link
    /// and then counter-clockwise rim travel; includes the opposite node).
    pub const CROSS_LEFT: PortId = PortId(2);
    /// Cross-right port (far quadrant reached via the cross link and then
    /// clockwise rim travel).
    pub const CROSS_RIGHT: PortId = PortId(3);

    /// All four ports in index order.
    pub const ALL: [PortId; 4] = [CW, CCW, CROSS_LEFT, CROSS_RIGHT];
}

/// The Quarc topology (`N = 4k` nodes, `k ≥ 2`).
#[derive(Clone, Debug)]
pub struct Quarc {
    rim: Rim,
    k: usize,
    net: Network,
}

impl Quarc {
    /// Build a Quarc NoC with `n` nodes. Requires `n % 4 == 0` and `n ≥ 8`.
    pub fn new(n: usize) -> Result<Self, TopologyError> {
        if n < 8 || !n.is_multiple_of(4) {
            return Err(TopologyError::UnsupportedSize {
                n,
                requirement: "Quarc requires N % 4 == 0 and N >= 8",
            });
        }
        let rim = Rim { n };
        // The cross link is doubled: cross-left `2n + i` and cross-right
        // `3n + i` are separate physical links `i -> i + n/2`.
        let mut links = rim.links();
        links.extend(rim.cross_links(2 * n, port::CROSS_LEFT, "xl"));
        links.extend(rim.cross_links(3 * n, port::CROSS_RIGHT, "xr"));
        let net = Network::dense(n, 4, links);
        Ok(Quarc { rim, k: n / 4, net })
    }

    /// Node count.
    #[inline]
    pub fn n(&self) -> usize {
        self.rim.n
    }

    /// Clockwise distance from `s` to `d` in `[0, N)`.
    #[inline]
    pub fn cw_dist(&self, s: NodeId, d: NodeId) -> usize {
        self.rim.cw_dist(s, d)
    }

    /// The last node visited by a broadcast stream on `p` (the destination
    /// address the transceiver writes into the header flit, §3.3.2).
    pub fn broadcast_last_node(&self, s: NodeId, p: PortId) -> NodeId {
        let k = self.k;
        match p {
            x if x == port::CW => self.rim.node(s.idx() + k),
            x if x == port::CCW => self.rim.node(s.idx() + self.rim.n - k),
            x if x == port::CROSS_LEFT => self.rim.node(s.idx() + k + 1),
            x if x == port::CROSS_RIGHT => self.rim.node(s.idx() + 3 * k - 1),
            _ => panic!("invalid Quarc port {p:?}"),
        }
    }
}

impl Topology for Quarc {
    fn name(&self) -> &str {
        "quarc"
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn port_for(&self, src: NodeId, dst: NodeId) -> PortId {
        assert_ne!(src, dst, "no port routes a node to itself");
        let d = self.cw_dist(src, dst);
        let k = self.k;
        if d <= k {
            port::CW
        } else if d <= 2 * k {
            port::CROSS_LEFT
        } else if d < 3 * k {
            port::CROSS_RIGHT
        } else {
            port::CCW
        }
    }

    fn unicast_path(&self, src: NodeId, dst: NodeId) -> Path {
        let port = self.port_for(src, dst);
        let (n, k, s) = (self.rim.n, self.k, src.idx());
        let d = self.cw_dist(src, dst);
        // The port fixes the whole route (the table in the module docs): a
        // cross link or none, then `rim` links from `from` in direction
        // `dir`.
        let (cross, dir, from, rim) = match port {
            x if x == port::CW => (None, port::CW, s, d),
            x if x == port::CCW => (None, port::CCW, s, n - d),
            x if x == port::CROSS_LEFT => (Some(2 * n + s), port::CCW, s + n / 2, 2 * k - d),
            _ => (Some(3 * n + s), port::CW, s + n / 2, d - 2 * k),
        };
        let mut hops = Vec::with_capacity(rim + 3);
        hops.push(Hop::new(self.net.injection_channel(src, port), 0));
        hops.extend(cross.map(|link| Hop::new(ChannelId(link as u32), 0)));
        self.rim.push_hops(&mut hops, dir, from, rim);
        // Ejection is by input direction: the last link's class.
        let arrival = if rim == 0 { port } else { dir };
        hops.push(Hop::new(self.net.ejection_channel(dst, arrival), 0));
        Path {
            src,
            dst,
            port,
            hops,
        }
    }

    fn quadrant(&self, src: NodeId, p: PortId) -> Vec<NodeId> {
        let k = self.k;
        let s = src.idx();
        match p {
            x if x == port::CW => (1..=k).map(|d| self.rim.node(s + d)).collect(),
            x if x == port::CCW => (1..=k).map(|d| self.rim.node(s + self.rim.n - d)).collect(),
            // Visit order: opposite node first, then counter-clockwise.
            x if x == port::CROSS_LEFT => (0..k).map(|i| self.rim.node(s + 2 * k - i)).collect(),
            // Visit order: first node past the opposite, then clockwise.
            x if x == port::CROSS_RIGHT => (1..k).map(|i| self.rim.node(s + 2 * k + i)).collect(),
            _ => panic!("invalid Quarc port {p:?}"),
        }
    }

    fn multicast_streams(&self, src: NodeId, targets: &[NodeId]) -> Vec<MulticastStream> {
        // CW and CROSS_RIGHT visit ascending cw distance; CCW visits
        // ascending ccw distance and CROSS_LEFT starts at the opposite
        // node (d = 2k) and walks down.
        let descending = [port::CCW, port::CROSS_LEFT];
        self.rim.multicast_streams(self, src, targets, &descending)
    }

    fn diameter(&self) -> usize {
        self.k
    }

    fn translate(&self, c: ChannelId, by: NodeId) -> Option<ChannelId> {
        Some(self.rim.translate(&self.net, c, by))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn quarc16() -> Quarc {
        Quarc::new(16).unwrap()
    }

    #[test]
    fn rejects_unsupported_sizes() {
        for n in [0, 1, 4, 6, 10, 14] {
            assert!(Quarc::new(n).is_err(), "N={n} should be rejected");
        }
        for n in [8, 12, 16, 32, 64, 128] {
            assert!(Quarc::new(n).is_ok(), "N={n} should be accepted");
        }
    }

    #[test]
    fn channel_census() {
        let q = quarc16();
        let net = q.network();
        assert_eq!(net.num_channels(), 12 * 16);
        assert_eq!(net.links().count(), 4 * 16);
        assert_eq!(net.ports_per_node(), 4);
    }

    #[test]
    fn paper_broadcast_example_n16() {
        // Paper §3.3.2: node 0 broadcasts; destination addresses are
        // 4, 5, 11 and 12 for the rim-left, cross-left, cross-right and
        // rim-right streams.
        let q = quarc16();
        let s = NodeId(0);
        assert_eq!(q.broadcast_last_node(s, port::CW), NodeId(4));
        assert_eq!(q.broadcast_last_node(s, port::CCW), NodeId(12));
        assert_eq!(q.broadcast_last_node(s, port::CROSS_LEFT), NodeId(5));
        assert_eq!(q.broadcast_last_node(s, port::CROSS_RIGHT), NodeId(11));
    }

    #[test]
    fn paper_quadrants_n16() {
        let q = quarc16();
        let s = NodeId(0);
        let nv = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        assert_eq!(q.quadrant(s, port::CW), nv(&[1, 2, 3, 4]));
        assert_eq!(q.quadrant(s, port::CCW), nv(&[15, 14, 13, 12]));
        // Cross-left visits 8, 7, 6, 5 in that order (Fig. 3).
        assert_eq!(q.quadrant(s, port::CROSS_LEFT), nv(&[8, 7, 6, 5]));
        // Cross-right visits 9, 10, 11.
        assert_eq!(q.quadrant(s, port::CROSS_RIGHT), nv(&[9, 10, 11]));
    }

    #[test]
    fn quadrants_partition_all_other_nodes() {
        for n in [8, 16, 32] {
            let q = Quarc::new(n).unwrap();
            for s in 0..n {
                let s = NodeId(s as u32);
                let mut seen = BTreeSet::new();
                for p in port::ALL {
                    for t in q.quadrant(s, p) {
                        assert_ne!(t, s);
                        assert!(seen.insert(t), "node {t:?} in two quadrants of {s:?}");
                    }
                }
                assert_eq!(seen.len(), n - 1, "quadrants must cover N-1 nodes");
            }
        }
    }

    #[test]
    fn unicast_paths_are_valid_and_shortest() {
        for n in [8, 16, 32] {
            let q = Quarc::new(n).unwrap();
            let net = q.network();
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let p = q.unicast_path(s, d);
                    net.validate_path(&p).expect("path must be valid");
                    assert_eq!(p.src, s);
                    assert_eq!(p.dst, d);
                    assert_eq!(p.port, q.port_for(s, d));
                    assert!(p.link_count() <= q.diameter());
                    // Shortest-path check: the Quarc route length equals the
                    // graph distance min(dcw, dccw, 1 + rim-from-opposite).
                    let dcw = q.cw_dist(s, d);
                    let dccw = n - dcw;
                    let via_cross = 1 + dcw.abs_diff(n / 2);
                    let dist = dcw.min(dccw).min(via_cross);
                    assert_eq!(
                        p.link_count(),
                        dist,
                        "route {s:?}->{d:?} should be shortest"
                    );
                }
            }
        }
    }

    #[test]
    fn port_for_matches_quadrants() {
        let q = quarc16();
        for s in 0..16u32 {
            let s = NodeId(s);
            for p in port::ALL {
                for t in q.quadrant(s, p) {
                    assert_eq!(q.port_for(s, t), p);
                }
            }
        }
    }

    #[test]
    fn dateline_vc_discipline() {
        let q = quarc16();
        // Path from 14 clockwise to 2 crosses the cw dateline link 15->0.
        let p = q.unicast_path(NodeId(14), NodeId(2));
        assert_eq!(p.port, port::CW);
        let vcs: Vec<u8> = p.hops.iter().map(|h| h.vc.0).collect();
        // injection, cw 14->15 (vc0), cw 15->0 (dateline, vc1),
        // cw 0->1 (vc1), cw 1->2 (vc1), ejection.
        assert_eq!(vcs, vec![0, 0, 1, 1, 1, 0]);

        // A path that does not wrap stays on vc 0.
        let p2 = q.unicast_path(NodeId(1), NodeId(4));
        assert!(p2.hops.iter().all(|h| h.vc.0 == 0));

        // Counter-clockwise wrap: 1 -> 15 crosses ccw dateline 0->15.
        let p3 = q.unicast_path(NodeId(1), NodeId(15));
        assert_eq!(p3.port, port::CCW);
        let vcs3: Vec<u8> = p3.hops.iter().map(|h| h.vc.0).collect();
        assert_eq!(vcs3, vec![0, 0, 1, 0]);
    }

    #[test]
    fn cross_left_serves_opposite_node_directly() {
        let q = quarc16();
        let p = q.unicast_path(NodeId(3), NodeId(11));
        assert_eq!(p.port, port::CROSS_LEFT);
        assert_eq!(p.link_count(), 1);
        // Ejection via the cross-left input direction.
        let ej = q.network().channel(p.hops.last().unwrap().channel);
        assert_eq!(ej.port, port::CROSS_LEFT);
    }

    #[test]
    fn broadcast_streams_cover_network_disjointly() {
        for n in [8, 16, 32, 64] {
            let q = Quarc::new(n).unwrap();
            for s in [0, 1, n / 2, n - 1] {
                let s = NodeId(s as u32);
                let streams = q.broadcast_streams(s);
                assert_eq!(streams.len(), 4);
                let mut seen = BTreeSet::new();
                for st in &streams {
                    q.network().validate_path(&st.path).unwrap();
                    assert_eq!(st.path.dst, *st.targets.last().unwrap());
                    assert_eq!(st.path.dst, q.broadcast_last_node(s, st.port));
                    for &t in &st.targets {
                        assert!(seen.insert(t));
                    }
                }
                assert_eq!(seen.len(), n - 1);
            }
        }
    }

    #[test]
    fn broadcast_stream_depth_is_quadrant_size() {
        // All four broadcast streams traverse exactly k links (paper:
        // broadcast requires N/4 hops in the Quarc vs N-1 in Spidergon).
        let q = Quarc::new(32).unwrap();
        for st in q.broadcast_streams(NodeId(5)) {
            assert_eq!(st.path.link_count(), 32 / 4);
        }
    }

    #[test]
    fn multicast_stream_targets_in_visit_order() {
        let q = quarc16();
        let s = NodeId(0);
        let targets = [NodeId(6), NodeId(8), NodeId(3), NodeId(9), NodeId(11)];
        let streams = q.multicast_streams(s, &targets);
        // CW stream: target 3 only.
        let cw = streams.iter().find(|st| st.port == port::CW).unwrap();
        assert_eq!(cw.targets, vec![NodeId(3)]);
        assert_eq!(cw.path.dst, NodeId(3));
        // Cross-left: visits 8 then 6; last target 6.
        let xl = streams
            .iter()
            .find(|st| st.port == port::CROSS_LEFT)
            .unwrap();
        assert_eq!(xl.targets, vec![NodeId(8), NodeId(6)]);
        assert_eq!(xl.path.dst, NodeId(6));
        // Cross-right: visits 9 then 11.
        let xr = streams
            .iter()
            .find(|st| st.port == port::CROSS_RIGHT)
            .unwrap();
        assert_eq!(xr.targets, vec![NodeId(9), NodeId(11)]);
        assert_eq!(xr.path.dst, NodeId(11));
        // No CCW stream.
        assert!(streams.iter().all(|st| st.port != port::CCW));
    }

    #[test]
    fn multicast_ignores_source_and_duplicates() {
        let q = quarc16();
        let s = NodeId(2);
        let streams = q.multicast_streams(s, &[s, NodeId(5), NodeId(5)]);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].targets, vec![NodeId(5)]);
    }

    #[test]
    fn target_distances_match_quadrant_geometry() {
        let q = quarc16();
        let s = NodeId(0);
        let streams = q.multicast_streams(s, &[NodeId(8), NodeId(6), NodeId(5)]);
        let xl = &streams[0];
        assert_eq!(xl.port, port::CROSS_LEFT);
        let net = q.network();
        // The cross link lands on 8, then the rim walks 7, 6, 5: the
        // targets sit 1, 3 and 4 links out, in visit order.
        let links = xl.path.channels().skip(1).take(xl.path.link_count());
        let visited: Vec<NodeId> = links.map(|c| net.downstream(c)).collect();
        assert_eq!(visited, [8, 7, 6, 5].map(NodeId));
        assert_eq!(xl.targets, [8, 6, 5].map(NodeId));
    }
}
