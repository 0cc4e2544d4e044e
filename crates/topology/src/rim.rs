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
        NodeId(self.wrap(i) as u32)
    }

    /// `i mod n`, without a division for `i < 2n` (every route step and
    /// every distance between two nodes).
    #[inline]
    fn wrap(self, i: usize) -> usize {
        match i.checked_sub(self.n) {
            None => i,
            Some(j) if j < self.n => j,
            Some(_) => i % self.n,
        }
    }

    /// Clockwise distance from `s` to `d`, in `[0, n)`.
    #[inline]
    pub(crate) fn cw_dist(self, s: NodeId, d: NodeId) -> usize {
        self.wrap(d.idx() + self.n - s.idx())
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
        let rotate = |v: usize| self.wrap(v + by.idx());
        net.terminal_image(c, rotate).unwrap_or_else(|| {
            let n32 = n as u32;
            let (block, from) = ((c.0 / n32) as usize, (c.0 % n32) as usize);
            ChannelId((block * n + rotate(from)) as u32)
        })
    }

    /// Append the `count` rim hops that leave node `from` (which may
    /// exceed `n`) in direction `dir`, on VC 1 from the dateline link
    /// onwards.
    pub(crate) fn push_hops(self, hops: &mut Vec<Hop>, dir: PortId, from: usize, count: usize) {
        let n = self.n;
        let (mut i, mut crossed) = (self.wrap(from), false);
        for _ in 0..count {
            let (link, dateline) = if dir == CW {
                let step = (i, i == n - 1);
                i = if i == n - 1 { 0 } else { i + 1 };
                step
            } else {
                let step = (n + i, i == 0);
                i = if i == 0 { n - 1 } else { i - 1 };
                step
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
        // `(port, clockwise distance)` of each target, port by port.
        let mut visits: Vec<(PortId, usize)> = targets
            .iter()
            .filter(|&&t| t != src)
            .map(|&t| (topo.port_for(src, t), self.cw_dist(src, t)))
            .collect();
        visits.sort_unstable();
        visits.dedup();
        let mut streams = Vec::with_capacity(topo.num_ports());
        for visits in visits.chunk_by(|a, b| a.0 == b.0) {
            let port = visits[0].0;
            let mut targets: Vec<NodeId> = visits
                .iter()
                .map(|&(_, d)| self.node(src.idx() + d))
                .collect();
            if descending.contains(&port) {
                targets.reverse();
            }
            let last = targets[targets.len() - 1];
            streams.push(MulticastStream {
                port,
                path: topo.unicast_path(src, last),
                targets,
            });
        }
        streams
    }
}
