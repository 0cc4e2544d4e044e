//! Mesh and torus topologies with multi-port routers.
//!
//! The paper's conclusion names "multi-port mesh and torus" as the next
//! target for the multicast model. This module provides both:
//!
//! * **Unicast**: dimension-ordered (XY) routing. On the torus each
//!   dimension ring uses the dateline virtual-channel discipline.
//! * **Multicast**: the classic *dual-path* scheme (Lin–Ni): nodes are
//!   ordered along a boustrophedon Hamiltonian path `h(·)`; a multicast
//!   splits into a *high* stream visiting targets with `h(t) > h(src)` in
//!   increasing `h` order and a *low* stream visiting targets with
//!   `h(t) < h(src)` in decreasing order. Both streams follow physical
//!   mesh links between `h`-consecutive nodes, absorbing-and-forwarding at
//!   targets exactly like the Quarc's BRCP streams — giving `m = 2`
//!   asynchronous port streams for the analytical model.
//!
//! Multicast streams travel on virtual channel 1 of the rim links while XY
//! unicast uses virtual channel 0; the high/low Hamiltonian subnetworks are
//! acyclic by construction, so the two traffic classes cannot deadlock each
//! other.

use crate::channel::Channel;
use crate::ids::{ChannelId, NodeId, PortId};
use crate::network::{Network, Topology, TopologyError};
use crate::path::{Hop, MulticastStream, Path};
use crate::routing::dual_path_streams;

/// Port indices of the mesh/torus all-port router.
pub mod port {
    use crate::ids::PortId;

    /// +x direction (east).
    pub const XPLUS: PortId = PortId(0);
    /// −x direction (west).
    pub const XMINUS: PortId = PortId(1);
    /// +y direction (north).
    pub const YPLUS: PortId = PortId(2);
    /// −y direction (south).
    pub const YMINUS: PortId = PortId(3);

    /// All four ports in index order.
    pub const ALL: [PortId; 4] = [XPLUS, XMINUS, YPLUS, YMINUS];
}

/// Whether wrap-around links exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshKind {
    /// No wrap-around links.
    Mesh,
    /// Wrap-around links in both dimensions (k-ary 2-cube).
    Torus,
}

/// A `width × height` mesh or torus with 4-port routers.
#[derive(Clone, Debug)]
pub struct Mesh {
    width: usize,
    height: usize,
    kind: MeshKind,
    net: Network,
    /// `out_link[node * 4 + port]`: the output link there, if any, with the
    /// node it leads to and whether it is its ring's dateline — all a
    /// route step reads.
    out_link: Vec<Option<(ChannelId, NodeId, bool)>>,
}

impl Mesh {
    /// Build a mesh (`kind = Mesh`) or torus (`kind = Torus`) of
    /// `width × height` nodes. Requires `width ≥ 2` and `height ≥ 2`
    /// (torus: `≥ 3` per dimension so that wrap links are distinct).
    pub fn new(width: usize, height: usize, kind: MeshKind) -> Result<Self, TopologyError> {
        let min = match kind {
            MeshKind::Mesh => 2,
            MeshKind::Torus => 3,
        };
        if width < min || height < min {
            return Err(TopologyError::UnsupportedSize {
                n: width * height,
                requirement: "Mesh requires width,height >= 2 (torus >= 3)",
            });
        }
        let n = width * height;
        let mut channels: Vec<Channel> = Vec::new();
        let mut out_link = vec![None; n * 4];
        let node = |x: usize, y: usize| NodeId((y * width + x) as u32);
        // Mesh links carry 2 VCs (0 XY unicast, 1 Hamiltonian multicast),
        // torus links 3 (0/1 for the XY dateline, 2 for multicast).
        let vcs = match kind {
            MeshKind::Mesh => 2,
            MeshKind::Torus => 3,
        };
        // Each port's label tag and step; a step off the grid is the
        // dimension's wrap (and dateline) link on the torus, no link on
        // the mesh.
        let steps = [
            (port::XPLUS, "x+", 1, 0),
            (port::XMINUS, "x-", -1, 0),
            (port::YPLUS, "y+", 0, 1),
            (port::YMINUS, "y-", 0, -1),
        ];
        let (w, h) = (width as isize, height as isize);
        for y in 0..height {
            for x in 0..width {
                for (p, tag, dx, dy) in steps {
                    let (tx, ty) = (x as isize + dx, y as isize + dy);
                    let wraps = !(0..w).contains(&tx) || !(0..h).contains(&ty);
                    if wraps && kind == MeshKind::Mesh {
                        continue;
                    }
                    let to = node(tx.rem_euclid(w) as usize, ty.rem_euclid(h) as usize);
                    let label = match wraps {
                        true => format!("{tag} wrap ({x},{y})"),
                        false => format!("{tag} ({x},{y})"),
                    };
                    let (id, from) = (ChannelId(channels.len() as u32), node(x, y));
                    channels.push(Channel::link(id, from, to, p, vcs, wraps, label));
                    out_link[from.idx() * 4 + p.idx()] = Some((id, to, wraps));
                }
            }
        }
        let net = Network::dense(n, 4, channels);
        Ok(Mesh {
            width,
            height,
            kind,
            net,
            out_link,
        })
    }

    /// Grid width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Mesh or torus.
    #[inline]
    pub fn kind(&self) -> MeshKind {
        self.kind
    }

    /// `(x, y)` coordinates of a node.
    #[inline]
    pub fn coords(&self, n: NodeId) -> (usize, usize) {
        // In 32 bits: a node id fits, and the division is the cheaper one.
        let w = self.width as u32;
        ((n.0 % w) as usize, (n.0 / w) as usize)
    }

    /// Node at `(x, y)`.
    #[inline]
    pub fn node(&self, x: usize, y: usize) -> NodeId {
        NodeId((y * self.width + x) as u32)
    }

    /// The output link of `from` on port `p`, where it leads, and whether
    /// it is the dateline.
    fn link(&self, from: NodeId, p: PortId) -> (ChannelId, NodeId, bool) {
        self.out_link[from.idx() * 4 + p.idx()]
            .unwrap_or_else(|| panic!("no {p:?} link at {from:?}"))
    }

    /// The ordered `(port, steps)` legs of XY routing, x first: each
    /// dimension with a nonzero offset. On the torus, each leg goes the
    /// short way around (ties broken toward the positive direction).
    fn xy_legs(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = (PortId, usize)> {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let kind = self.kind;
        let leg = move |s: usize, d: usize, extent: usize, plus: PortId, minus: PortId| {
            if s == d {
                return None;
            }
            match kind {
                MeshKind::Mesh => {
                    if d > s {
                        Some((plus, d - s))
                    } else {
                        Some((minus, s - d))
                    }
                }
                MeshKind::Torus => {
                    let fwd = (d + extent - s) % extent;
                    let bwd = extent - fwd;
                    if fwd <= bwd {
                        Some((plus, fwd))
                    } else {
                        Some((minus, bwd))
                    }
                }
            }
        };
        let x = leg(sx, dx, self.width, port::XPLUS, port::XMINUS);
        let y = leg(sy, dy, self.height, port::YPLUS, port::YMINUS);
        x.into_iter().chain(y)
    }

    /// Boustrophedon Hamiltonian label of a node (row-major, odd rows
    /// reversed), used by the dual-path multicast.
    #[inline]
    pub fn hamiltonian_label(&self, n: NodeId) -> usize {
        let (x, y) = self.coords(n);
        if y.is_multiple_of(2) {
            y * self.width + x
        } else {
            y * self.width + (self.width - 1 - x)
        }
    }
}

impl Topology for Mesh {
    fn name(&self) -> &str {
        match self.kind {
            MeshKind::Mesh => "mesh",
            MeshKind::Torus => "torus",
        }
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn port_for(&self, src: NodeId, dst: NodeId) -> PortId {
        assert_ne!(src, dst);
        self.xy_legs(src, dst)
            .next()
            .expect("distinct nodes differ")
            .0
    }

    fn unicast_path(&self, src: NodeId, dst: NodeId) -> Path {
        assert_ne!(src, dst, "no route from a node to itself");
        let links: usize = self.xy_legs(src, dst).map(|(_, steps)| steps).sum();
        let mut hops = Vec::with_capacity(links + 2);
        let mut legs = self.xy_legs(src, dst).peekable();
        let first_port = legs
            .peek()
            .expect("distinct nodes differ in a coordinate")
            .0;
        hops.push(Hop::new(self.net.injection_channel(src, first_port), 0));
        let (mut at, mut arrival) = (src, first_port);
        for (p, steps) in legs {
            let mut crossed = false;
            for _ in 0..steps {
                let (link, to, dateline) = self.link(at, p);
                crossed |= dateline;
                hops.push(Hop::new(link, u8::from(crossed)));
                at = to;
            }
            arrival = p;
        }
        hops.push(Hop::new(self.net.ejection_channel(at, arrival), 0));
        Path {
            src,
            dst: at,
            port: first_port,
            hops,
        }
    }

    fn quadrant(&self, src: NodeId, p: PortId) -> Vec<NodeId> {
        (0..self.num_nodes() as u32)
            .map(NodeId)
            .filter(|&d| d != src && self.port_for(src, d) == p)
            .collect()
    }

    /// Dual-path along the boustrophedon Hamiltonian order, on the
    /// links' reserved top VC.
    fn multicast_streams(&self, src: NodeId, targets: &[NodeId]) -> Vec<MulticastStream> {
        dual_path_streams(self, src, targets)
    }

    fn diameter(&self) -> usize {
        match self.kind {
            MeshKind::Mesh => (self.width - 1) + (self.height - 1),
            MeshKind::Torus => self.width / 2 + self.height / 2,
        }
    }

    fn linear_label(&self, node: NodeId) -> usize {
        self.hamiltonian_label(node)
    }

    /// Dual-path multicast always uses two streams at most, but they leave
    /// through genuinely independent ports, so it is concurrent.
    fn concurrent_multicast(&self) -> bool {
        true
    }

    /// On the torus, the translation `(x, y) ↦ (x + dx, y + dy)` by the
    /// coordinates of `by`: each XY leg reads only the distance around its
    /// dimension ring. The mesh has no translation that keeps its
    /// borders, so it offers none.
    fn translate(&self, c: ChannelId, by: NodeId) -> Option<ChannelId> {
        if self.kind == MeshKind::Mesh {
            return None;
        }
        let (dx, dy) = self.coords(by);
        // Both offsets are below the extent, so one wrap is enough.
        let shift = |v: usize, d: usize, extent: usize| {
            if v + d >= extent {
                v + d - extent
            } else {
                v + d
            }
        };
        let image = |v: usize| {
            let (x, y) = self.coords(NodeId(v as u32));
            self.node(shift(x, dx, self.width), shift(y, dy, self.height))
                .idx()
        };
        let terminal = self.net.terminal_image(c, image);
        Some(terminal.unwrap_or_else(|| {
            let link = self.net.channel(c);
            self.link(NodeId(image(link.from.idx()) as u32), link.port)
                .0
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn rejects_degenerate_sizes() {
        assert!(Mesh::new(1, 4, MeshKind::Mesh).is_err());
        assert!(Mesh::new(2, 2, MeshKind::Torus).is_err());
        assert!(Mesh::new(2, 2, MeshKind::Mesh).is_ok());
        assert!(Mesh::new(3, 3, MeshKind::Torus).is_ok());
    }

    #[test]
    fn xy_paths_valid_all_pairs_mesh_and_torus() {
        for kind in [MeshKind::Mesh, MeshKind::Torus] {
            let m = Mesh::new(4, 3, kind).unwrap();
            let n = m.num_nodes();
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let p = m.unicast_path(NodeId(s as u32), NodeId(d as u32));
                    m.network().validate_path(&p).unwrap();
                    assert!(p.link_count() <= m.diameter());
                }
            }
        }
    }

    #[test]
    fn mesh_path_length_is_manhattan() {
        let m = Mesh::new(5, 4, MeshKind::Mesh).unwrap();
        for s in 0..20u32 {
            for d in 0..20u32 {
                if s == d {
                    continue;
                }
                let (sx, sy) = m.coords(NodeId(s));
                let (dx, dy) = m.coords(NodeId(d));
                let p = m.unicast_path(NodeId(s), NodeId(d));
                assert_eq!(p.link_count(), sx.abs_diff(dx) + sy.abs_diff(dy));
            }
        }
    }

    #[test]
    fn torus_wraps_short_way() {
        let t = Mesh::new(5, 5, MeshKind::Torus).unwrap();
        // (0,0) -> (4,0): short way is one -x wrap hop.
        let p = t.unicast_path(t.node(0, 0), t.node(4, 0));
        assert_eq!(p.link_count(), 1);
        assert_eq!(p.port, port::XMINUS);
        // Wrap hop switches to vc1 (dateline).
        assert_eq!(p.hops[1].vc.0, 1);
    }

    #[test]
    fn quadrants_partition_mesh() {
        let m = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
        for s in 0..16u32 {
            let s = NodeId(s);
            let mut seen = BTreeSet::new();
            for p in port::ALL {
                for t in m.quadrant(s, p) {
                    assert!(seen.insert(t));
                }
            }
            assert_eq!(seen.len(), 15);
        }
    }

    #[test]
    fn hamiltonian_labels_are_a_bijection_between_adjacent_nodes() {
        let m = Mesh::new(4, 3, MeshKind::Mesh).unwrap();
        let mut at_label = BTreeMap::new();
        for i in 0..12u32 {
            at_label.insert(m.hamiltonian_label(NodeId(i)), NodeId(i));
        }
        assert!(
            at_label.keys().copied().eq(0..12),
            "labels are 0..12, once each"
        );
        // Consecutive labels are physically adjacent.
        for h in 0..11usize {
            let a = m.coords(at_label[&h]);
            let b = m.coords(at_label[&(h + 1)]);
            assert_eq!(a.0.abs_diff(b.0) + a.1.abs_diff(b.1), 1, "h={h}");
        }
    }

    #[test]
    fn dual_path_multicast_covers_targets() {
        let m = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
        let src = m.node(1, 1);
        let targets = [m.node(3, 0), m.node(0, 2), m.node(3, 3), m.node(0, 0)];
        let streams = m.multicast_streams(src, &targets);
        assert!(streams.len() <= 2);
        let covered: BTreeSet<_> = streams.iter().flat_map(|s| s.targets.clone()).collect();
        assert_eq!(covered, targets.iter().copied().collect());
        for st in &streams {
            m.network().validate_path(&st.path).unwrap();
            assert_eq!(st.path.dst, *st.targets.last().unwrap());
            // Multicast hops ride the reserved VC.
            for hop in &st.path.hops[1..st.path.hops.len() - 1] {
                assert_eq!(hop.vc.0, 1);
            }
        }
    }

    #[test]
    fn dual_path_broadcast_covers_everything() {
        for kind in [MeshKind::Mesh, MeshKind::Torus] {
            let m = Mesh::new(4, 4, kind).unwrap();
            let streams = m.broadcast_streams(m.node(2, 1));
            let covered: BTreeSet<_> = streams.iter().flat_map(|s| s.targets.clone()).collect();
            assert_eq!(covered.len(), 15);
            assert_eq!(streams.len(), 2);
        }
    }
}
