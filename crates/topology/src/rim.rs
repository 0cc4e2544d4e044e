//! The bidirectional rim under [`crate::Ring`], [`crate::Spidergon`] and
//! [`crate::Quarc`], and its dateline discipline.
//!
//! The paper's §3 builds the Quarc from the Spidergon by doubling the cross
//! link and widening the router; the rim both inherit is a bidirectional
//! ring. Its `2n` links open the channel table: clockwise link `i → i+1`
//! has id `i`, counter-clockwise link `i → i−1` id `n + i`. Every rim link
//! carries two virtual channels, and each direction has one *dateline*
//! link (`n−1 → 0` clockwise, `0 → n−1` counter-clockwise): a route starts
//! on VC 0 and rides VC 1 from the dateline link onwards, which breaks the
//! ring's cyclic channel dependency.

use crate::channel::Channel;
use crate::ids::{ChannelId, NodeId, PortId};
use crate::network::{Network, Topology};
use crate::path::{Hop, MulticastStream};

/// Clockwise: the port, and link class, of links `i → i+1`.
pub(crate) const CW: PortId = PortId(0);
/// Counter-clockwise: the port, and link class, of links `i → i−1`.
pub(crate) const CCW: PortId = PortId(1);

/// The rim of an `n`-node topology.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rim {
    pub(crate) n: usize,
}

impl Rim {
    /// The node `i` steps clockwise of node 0 (`i` may exceed `n`).
    #[inline]
    pub(crate) fn node(self, i: usize) -> NodeId {
        NodeId((i % self.n) as u32)
    }

    /// Clockwise distance from `s` to `d`, in `[0, n)`.
    #[inline]
    pub(crate) fn cw_dist(self, s: NodeId, d: NodeId) -> usize {
        (d.idx() + self.n - s.idx()) % self.n
    }

    /// The `2n` rim links, clockwise then counter-clockwise.
    pub(crate) fn links(self) -> Vec<Channel> {
        let n = self.n;
        let link = |id: usize, from: usize, to: usize, dir, dateline, tag| {
            let (id, label) = (ChannelId(id as u32), format!("{tag} {from}->{to}"));
            Channel::link(id, self.node(from), self.node(to), dir, 2, dateline, label)
        };
        let cw = (0..n).map(|i| link(i, i, (i + 1) % n, CW, i == n - 1, "cw"));
        let ccw = (0..n).map(|i| link(n + i, i, (i + n - 1) % n, CCW, i == 0, "ccw"));
        cw.chain(ccw).collect()
    }

    /// The `n` single-VC chords `i → i + n/2` of one cross-link class, with
    /// ids from `first`.
    pub(crate) fn cross_links(
        self,
        first: usize,
        class: PortId,
        tag: &'static str,
    ) -> impl Iterator<Item = Channel> {
        (0..self.n).map(move |i| {
            let (id, to) = (ChannelId((first + i) as u32), self.node(i + self.n / 2));
            let label = format!("{tag} {i}->{}", to.idx());
            Channel::link(id, self.node(i), to, class, 1, false, label)
        })
    }

    /// The image of channel `c` of `net` under the rotation taking node 0
    /// to `by`: the rim families' links come in blocks of `n` indexed by
    /// their `from` node (rim, then cross links), followed by the dense
    /// layout's injection and ejection channels. Every route depends only
    /// on the clockwise distance, so this is a routing automorphism.
    pub(crate) fn translate(self, net: &Network, c: ChannelId, by: NodeId) -> ChannelId {
        let n = self.n;
        let rotate = |v: usize| (v + by.idx()) % n;
        net.terminal_image(c, rotate).unwrap_or_else(|| {
            let (block, from) = (c.idx() / n, c.idx() % n);
            ChannelId((block * n + rotate(from)) as u32)
        })
    }

    /// Append the `count` rim hops that leave node `from` (which may
    /// exceed `n`) in direction `dir`, on VC 1 from the dateline link
    /// onwards.
    pub(crate) fn push_hops(self, hops: &mut Vec<Hop>, dir: PortId, from: usize, count: usize) {
        let n = self.n;
        let mut crossed = false;
        for step in 0..count {
            let (link, dateline) = if dir == CW {
                let i = (from + step) % n;
                (i, i == n - 1)
            } else {
                let i = (from + n - step) % n;
                (n + i, i == 0)
            };
            crossed |= dateline;
            hops.push(Hop::new(ChannelId(link as u32), u8::from(crossed)));
        }
    }

    /// Path-based multicast on a multi-port rim family: one stream per
    /// port of `topo` with a target, in port order. A port visits its
    /// targets by ascending clockwise distance from `src` — descending on
    /// the `descending` ports, whose streams travel counter-clockwise —
    /// and its stream is routed to the last one visited.
    pub(crate) fn multicast_streams(
        self,
        topo: &impl Topology,
        src: NodeId,
        targets: &[NodeId],
        descending: &[PortId],
    ) -> Vec<MulticastStream> {
        let mut by_port = vec![Vec::new(); topo.num_ports()];
        for &t in targets.iter().filter(|&&t| t != src) {
            by_port[topo.port_for(src, t).idx()].push(self.cw_dist(src, t));
        }
        let mut streams = Vec::new();
        for (port, mut ds) in by_port.into_iter().enumerate() {
            let port = PortId(port as u8);
            ds.sort_unstable();
            ds.dedup();
            if descending.contains(&port) {
                ds.reverse();
            }
            let targets: Vec<NodeId> = ds.iter().map(|&d| self.node(src.idx() + d)).collect();
            if let Some(&last) = targets.last() {
                let path = topo.unicast_path(src, last);
                streams.push(MulticastStream {
                    port,
                    path,
                    targets,
                });
            }
        }
        streams
    }
}
