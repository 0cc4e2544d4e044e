//! Binary hypercube with multi-port routers.
//!
//! The predecessor of the paper's model is Shahrabi et al.'s broadcast
//! model for **hypercubes** (MASCOTS 2000, the paper's ref.\[18\]), which
//! was limited to one-port routers and non-wormhole broadcast. This module
//! provides the `d`-dimensional hypercube with one router port per
//! dimension so the reproduction can exercise the multi-port model on the
//! topology family that motivated it:
//!
//! * **Unicast**: e-cube (dimension-ordered) routing — resolve the lowest
//!   differing dimension first. Acyclic channel dependencies, so a single
//!   virtual channel suffices; VC0 is used.
//! * **Multicast**: dual-path streams along the **Gray-code Hamiltonian
//!   path** (consecutive Gray codes differ in one bit, hence are
//!   physically adjacent), on reserved VC1 — the same construction as the
//!   mesh's dual-path multicast, giving `m = 2` asynchronous streams for
//!   the model's max-of-exponentials combination.

use crate::channel::Channel;
use crate::ids::{ChannelId, NodeId, PortId};
use crate::network::{Network, Topology, TopologyError};
use crate::path::{Hop, MulticastStream, Path};
use crate::routing::dual_path_streams;

/// A `2^d`-node binary hypercube (`1 ≤ d ≤ 16`), port `c` = dimension `c`.
#[derive(Clone, Debug)]
pub struct Hypercube {
    dim: usize,
    n: usize,
    net: Network,
    /// `out_link[node * dim + c]` — the link flipping bit `c`.
    out_link: Vec<ChannelId>,
}

impl Hypercube {
    /// Build a hypercube of dimension `dim` (`2 ≤ dim ≤ 10`).
    pub fn new(dim: usize) -> Result<Self, TopologyError> {
        if !(2..=10).contains(&dim) {
            return Err(TopologyError::UnsupportedSize {
                n: dim,
                requirement: "Hypercube requires dimension in 2..=10",
            });
        }
        let n = 1usize << dim;
        let mut channels = Vec::with_capacity(n * dim);
        let mut out_link = vec![ChannelId(0); n * dim];
        for i in 0..n {
            for c in 0..dim {
                let id = ChannelId(channels.len() as u32);
                let to = i ^ (1 << c);
                channels.push(Channel::link(
                    id,
                    NodeId(i as u32),
                    NodeId(to as u32),
                    PortId(c as u8),
                    2, // VC0 e-cube unicast, VC1 Gray-code multicast
                    false,
                    format!("dim{c} {i}->{to}"),
                ));
                out_link[i * dim + c] = id;
            }
        }
        let net = Network::dense(n, dim, channels);
        Ok(Hypercube {
            dim,
            n,
            net,
            out_link,
        })
    }

    /// Hypercube dimension (`log2 N`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn link(&self, from: usize, c: usize) -> ChannelId {
        self.out_link[from * self.dim + c]
    }

    /// Gray-code Hamiltonian label of a node (`h` such that
    /// `node = h ^ (h >> 1)`).
    #[inline]
    pub fn gray_label(&self, node: NodeId) -> usize {
        // Inverse Gray code: prefix-XOR of the bits.
        let mut b = node.idx();
        b ^= b >> 1;
        b ^= b >> 2;
        b ^= b >> 4;
        b ^= b >> 8;
        b ^= b >> 16;
        b
    }
}

impl Topology for Hypercube {
    fn name(&self) -> &str {
        "hypercube"
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn port_for(&self, src: NodeId, dst: NodeId) -> PortId {
        assert_ne!(src, dst);
        PortId((src.idx() ^ dst.idx()).trailing_zeros() as u8)
    }

    fn unicast_path(&self, src: NodeId, dst: NodeId) -> Path {
        assert_ne!(src, dst, "no route from a node to itself");
        let first_port = self.port_for(src, dst);
        let mut hops = Vec::with_capacity((src.idx() ^ dst.idx()).count_ones() as usize + 2);
        hops.push(Hop::new(self.net.injection_channel(src, first_port), 0));
        let mut at = src.idx();
        let mut arrival = first_port;
        while at != dst.idx() {
            let dim = (at ^ dst.idx()).trailing_zeros() as usize;
            hops.push(Hop::new(self.link(at, dim), 0));
            arrival = PortId(dim as u8);
            at ^= 1 << dim;
        }
        hops.push(Hop::new(self.net.ejection_channel(dst, arrival), 0));
        Path {
            src,
            dst,
            port: first_port,
            hops,
        }
    }

    fn quadrant(&self, src: NodeId, p: PortId) -> Vec<NodeId> {
        (0..self.n as u32)
            .map(NodeId)
            .filter(|&d| d != src && self.port_for(src, d) == p)
            .collect()
    }

    /// Dual-path along the Gray-code Hamiltonian order, on reserved VC1.
    fn multicast_streams(&self, src: NodeId, targets: &[NodeId]) -> Vec<MulticastStream> {
        dual_path_streams(self, src, targets)
    }

    fn diameter(&self) -> usize {
        self.dim
    }

    fn linear_label(&self, node: NodeId) -> usize {
        self.gray_label(node)
    }

    fn concurrent_multicast(&self) -> bool {
        true
    }

    /// `v ↦ v ⊕ by`: e-cube resolves the bits of `src ⊕ dst`, which the
    /// XOR keeps.
    fn translate(&self, c: ChannelId, by: NodeId) -> Option<ChannelId> {
        let image = |v: usize| v ^ by.idx();
        let terminal = self.net.terminal_image(c, image);
        Some(terminal.unwrap_or_else(|| {
            let link = self.net.channel(c);
            self.link(image(link.from.idx()), link.port.idx())
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn rejects_degenerate_dimensions() {
        assert!(Hypercube::new(1).is_err());
        assert!(Hypercube::new(11).is_err());
        assert!(Hypercube::new(2).is_ok());
        assert!(Hypercube::new(6).is_ok());
    }

    #[test]
    fn ecube_paths_are_shortest_hamming() {
        let h = Hypercube::new(4).unwrap();
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                let p = h.unicast_path(NodeId(s), NodeId(d));
                h.network().validate_path(&p).unwrap();
                assert_eq!(p.link_count(), (s ^ d).count_ones() as usize);
                assert!(p.link_count() <= h.diameter());
            }
        }
    }

    #[test]
    fn quadrants_partition_by_lowest_differing_dimension() {
        let h = Hypercube::new(4).unwrap();
        for s in 0..16u32 {
            let s = NodeId(s);
            let mut seen = BTreeSet::new();
            for c in 0..4u8 {
                let q = h.quadrant(s, PortId(c));
                // Port c serves 2^(dim-1-c) nodes.
                assert_eq!(q.len(), 1 << (4 - 1 - c as usize));
                for t in q {
                    assert!(seen.insert(t));
                }
            }
            assert_eq!(seen.len(), 15);
        }
    }

    #[test]
    fn gray_labels_are_a_hamiltonian_path() {
        let h = Hypercube::new(5).unwrap();
        let mut at_label = BTreeMap::new();
        for i in 0..32u32 {
            at_label.insert(h.gray_label(NodeId(i)), NodeId(i));
        }
        assert!(
            at_label.keys().copied().eq(0..32),
            "labels are 0..32, once each"
        );
        for l in 0..31usize {
            let a = at_label[&l].idx();
            let b = at_label[&(l + 1)].idx();
            assert_eq!((a ^ b).count_ones(), 1, "gray neighbours are adjacent");
        }
    }

    #[test]
    fn dual_path_multicast_covers_targets_disjointly() {
        let h = Hypercube::new(4).unwrap();
        let src = NodeId(5);
        let targets = [NodeId(0), NodeId(3), NodeId(9), NodeId(14), NodeId(15)];
        let streams = h.multicast_streams(src, &targets);
        assert!(streams.len() <= 2);
        let mut covered = BTreeSet::new();
        for st in &streams {
            h.network().validate_path(&st.path).unwrap();
            assert_eq!(st.path.dst, *st.targets.last().unwrap());
            for hop in &st.path.hops[1..st.path.hops.len() - 1] {
                assert_eq!(hop.vc.0, 1, "multicast rides the reserved VC");
            }
            for &t in &st.targets {
                assert!(covered.insert(t));
            }
        }
        assert_eq!(covered, targets.iter().copied().collect());
    }

    #[test]
    fn broadcast_covers_whole_cube() {
        let h = Hypercube::new(3).unwrap();
        for s in 0..8u32 {
            let streams = h.broadcast_streams(NodeId(s));
            let covered: BTreeSet<_> = streams.iter().flat_map(|st| st.targets.clone()).collect();
            assert_eq!(covered.len(), 7);
        }
    }

    #[test]
    fn channel_census() {
        let h = Hypercube::new(3).unwrap();
        let net = h.network();
        // 8 nodes x 3 dims of links + injections + ejections.
        assert_eq!(net.links().count(), 24);
        assert_eq!(net.num_channels(), 24 * 3);
        assert_eq!(net.ports_per_node(), 3);
    }
}
