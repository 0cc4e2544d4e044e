//! The Spidergon NoC (paper §3.1) — the one-port baseline.
//!
//! Spidergon (STMicroelectronics) connects `N = 2n` nodes with clockwise,
//! counter-clockwise and cross unidirectional links, uses across-first
//! shortest-path routing and a **one-port** router: a single injection and a
//! single ejection channel per node (Fig. 1(a)). Two consequences the paper
//! highlights:
//!
//! * messages may block on the occupied injection channel even when their
//!   network channels are free;
//! * deadlock-free broadcast/multicast is only achievable by *consecutive
//!   unicast transmissions* (N − 1 messages through one port), making
//!   collective operations dramatically slower than the Quarc's true
//!   multicast.
//!
//! This crate models the Spidergon exactly so the Quarc-vs-Spidergon
//! collective-latency comparison (the motivation for the Quarc, §3.2) can be
//! reproduced in simulation.

use crate::ids::{ChannelId, NodeId, PortId};
use crate::network::{Network, Topology, TopologyError};
use crate::path::{Hop, MulticastStream, Path};
use crate::rim::Rim;

/// Link classes of the Spidergon router (the node still has a single
/// injection/ejection port; these label the *link* channels only).
pub mod link_class {
    use crate::ids::PortId;

    /// Clockwise rim link.
    pub const CW: PortId = crate::rim::CW;
    /// Counter-clockwise rim link.
    pub const CCW: PortId = crate::rim::CCW;
    /// Cross link.
    pub const CROSS: PortId = PortId(2);
}

/// The single router port of the one-port architecture.
pub const THE_PORT: PortId = PortId(0);

/// The Spidergon topology (`N` even, `N ≥ 6`).
#[derive(Clone, Debug)]
pub struct Spidergon {
    rim: Rim,
    /// Rim reach `⌊N/4⌋` of the across-first routing.
    b: usize,
    net: Network,
}

impl Spidergon {
    /// Build a Spidergon NoC with `n` nodes (`n` even, `n ≥ 6`).
    pub fn new(n: usize) -> Result<Self, TopologyError> {
        if n < 6 || !n.is_multiple_of(2) {
            return Err(TopologyError::UnsupportedSize {
                n,
                requirement: "Spidergon requires even N >= 6",
            });
        }
        let rim = Rim { n };
        let mut links = rim.links();
        links.extend(rim.cross_links(2 * n, link_class::CROSS, "x"));
        let net = Network::dense(n, 1, links);
        Ok(Spidergon { rim, b: n / 4, net })
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
}

impl Topology for Spidergon {
    fn name(&self) -> &str {
        "spidergon"
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn port_for(&self, src: NodeId, dst: NodeId) -> PortId {
        assert_ne!(src, dst);
        THE_PORT
    }

    fn unicast_path(&self, src: NodeId, dst: NodeId) -> Path {
        assert_ne!(src, dst, "no route from a node to itself");
        let n = self.rim.n;
        let dcw = self.cw_dist(src, dst);
        let dccw = n - dcw;
        let mut hops = vec![Hop::new(self.net.injection_channel(src, THE_PORT), 0)];
        if dcw <= self.b {
            self.rim
                .push_hops(&mut hops, link_class::CW, src.idx(), dcw);
        } else if dccw <= self.b {
            self.rim
                .push_hops(&mut hops, link_class::CCW, src.idx(), dccw);
        } else {
            // Across first, then the shorter way round from the opposite
            // node (no rim hop when that is the destination).
            hops.push(Hop::new(ChannelId((2 * n + src.idx()) as u32), 0));
            let o = src.idx() + n / 2;
            let rcw = (dcw + n - n / 2) % n;
            let rccw = (n - rcw) % n;
            if rcw <= rccw {
                self.rim.push_hops(&mut hops, link_class::CW, o, rcw);
            } else {
                self.rim.push_hops(&mut hops, link_class::CCW, o, rccw);
            }
        }
        hops.push(Hop::new(self.net.ejection_channel(dst, THE_PORT), 0));
        Path {
            src,
            dst,
            port: THE_PORT,
            hops,
        }
    }

    fn quadrant(&self, src: NodeId, p: PortId) -> Vec<NodeId> {
        assert_eq!(p, THE_PORT, "the Spidergon router has a single port");
        (1..self.rim.n)
            .map(|d| self.rim.node(src.idx() + d))
            .collect()
    }

    /// One-port multicast: a train of consecutive unicast messages through
    /// the single injection port, one per target (paper §3.2). Streams are
    /// ordered by clockwise distance for determinism.
    fn multicast_streams(&self, src: NodeId, targets: &[NodeId]) -> Vec<MulticastStream> {
        let mut ds: Vec<usize> = targets
            .iter()
            .filter(|&&t| t != src)
            .map(|&t| self.cw_dist(src, t))
            .collect();
        ds.sort_unstable();
        ds.dedup();
        ds.iter()
            .map(|&d| {
                let t = self.rim.node(src.idx() + d);
                MulticastStream {
                    port: THE_PORT,
                    path: self.unicast_path(src, t),
                    targets: vec![t],
                }
            })
            .collect()
    }

    fn diameter(&self) -> usize {
        // Rim quadrants reach b links; across-first paths reach
        // 1 + (n/2 - b - 1) links for the destination just past the rim
        // quadrant. diameter = max(b, n/2 - b).
        self.b.max(self.rim.n / 2 - self.b)
    }

    fn translate(&self, c: ChannelId, by: NodeId) -> Option<ChannelId> {
        Some(self.rim.translate(&self.net, c, by))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_odd_or_tiny() {
        assert!(Spidergon::new(5).is_err());
        assert!(Spidergon::new(4).is_err());
        assert!(Spidergon::new(6).is_ok());
        assert!(Spidergon::new(16).is_ok());
    }

    #[test]
    fn one_port_everywhere() {
        let sp = Spidergon::new(12).unwrap();
        assert_eq!(sp.num_ports(), 1);
        assert!(!sp.concurrent_multicast());
        assert_eq!(sp.port_for(NodeId(0), NodeId(5)), THE_PORT);
    }

    #[test]
    fn paths_valid_for_all_pairs() {
        for n in [6, 10, 16] {
            let sp = Spidergon::new(n).unwrap();
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let p = sp.unicast_path(NodeId(s as u32), NodeId(d as u32));
                    sp.network().validate_path(&p).unwrap();
                }
            }
        }
    }

    #[test]
    fn across_first_routing_shapes() {
        let sp = Spidergon::new(16).unwrap();
        // Near clockwise: pure rim.
        let p = sp.unicast_path(NodeId(0), NodeId(3));
        assert_eq!(p.link_count(), 3);
        // Opposite node: single cross link.
        let p = sp.unicast_path(NodeId(2), NodeId(10));
        assert_eq!(p.link_count(), 1);
        // Far node: cross then rim.
        let p = sp.unicast_path(NodeId(0), NodeId(6));
        // 0 -> 8 (cross) -> 7 -> 6: 3 links.
        assert_eq!(p.link_count(), 3);
    }

    #[test]
    fn multicast_is_a_unicast_train() {
        let sp = Spidergon::new(8).unwrap();
        let streams = sp.multicast_streams(NodeId(0), &[NodeId(1), NodeId(4), NodeId(7)]);
        assert_eq!(streams.len(), 3);
        for st in &streams {
            assert_eq!(st.port, THE_PORT);
            assert_eq!(st.targets.len(), 1);
        }
    }

    #[test]
    fn broadcast_takes_n_minus_1_messages() {
        // Paper: Spidergon broadcast requires N-1 consecutive unicasts.
        let sp = Spidergon::new(12).unwrap();
        let streams = sp.broadcast_streams(NodeId(3));
        assert_eq!(streams.len(), 11);
    }

    #[test]
    fn max_path_length_bounded() {
        for n in [6, 8, 10, 16, 32] {
            let sp = Spidergon::new(n).unwrap();
            let mut max_links = 0;
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        let p = sp.unicast_path(NodeId(s as u32), NodeId(d as u32));
                        max_links = max_links.max(p.link_count());
                    }
                }
            }
            assert!(
                max_links <= n / 4 + 1,
                "N={n}: across-first paths should be <= N/4 + 1 links, got {max_links}"
            );
            assert_eq!(
                max_links,
                sp.diameter(),
                "N={n}: diameter() must equal the longest route"
            );
        }
    }
}
