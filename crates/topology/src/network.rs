//! The channel graph ([`Network`]) and the [`Topology`] trait.
//!
//! ## Dense vs. implicit storage
//!
//! The six legacy topologies materialize their channel tables into a
//! `Vec<Channel>` at construction time — cheap at a few hundred nodes and
//! the representation every consumer grew up with. The scale-axis families
//! ([`crate::min::Min`], [`crate::clustered::Clustered`]) instead install a
//! [`ChannelFactory`] that computes any channel *on demand* in O(1), so a
//! 64k-node network costs a few machine words instead of hundreds of
//! megabytes. [`Network`] keeps both behind one enum: the dense accessors
//! ([`Network::channels`], [`Network::channel`], [`Network::links`]) stay
//! bit-for-bit identical for materialized networks and panic on implicit
//! ones (every call site that needs a full table is gated on
//! [`Network::is_implicit`] or on a spec-level rejection), while the
//! storage-agnostic accessors ([`Network::channel_at`], [`Network::vcs_of`],
//! [`Network::downstream`]) work on either representation.

use crate::channel::{Channel, ChannelKind};
use crate::ids::{ChannelId, NodeId, PortId, VcId};
use crate::path::{MulticastStream, Path};
use crate::routing::OrderWalk;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors raised by topology constructors and the spec registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The requested node count is not supported by the topology
    /// (e.g. the Quarc requires `N % 4 == 0`, `N >= 8`).
    UnsupportedSize {
        /// The offending node count.
        n: usize,
        /// Human-readable constraint description.
        requirement: &'static str,
    },
    /// A spec named a topology the registry does not know.
    UnknownTopology {
        /// The unrecognized name.
        name: String,
    },
    /// A spec string or size argument was malformed.
    InvalidSpec {
        /// The offending spec string.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnsupportedSize { n, requirement } => {
                write!(f, "unsupported network size {n}: {requirement}")
            }
            TopologyError::UnknownTopology { name } => {
                write!(
                    f,
                    "unknown topology `{name}` (known: {})",
                    crate::spec::KNOWN_TOPOLOGIES.join(", ")
                )
            }
            TopologyError::InvalidSpec { spec, reason } => {
                write!(f, "invalid topology spec `{spec}`: {reason}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A structural defect found by [`Network::validate_path`], one variant per
/// check. Paths are produced by deterministic topology code, so any of
/// these indicates a construction bug — the typed variants let regression
/// tests pin *which* invariant broke instead of grepping a message string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathError {
    /// The path has fewer than the mandatory two hops
    /// (injection + ejection).
    TooShort {
        /// Hop count found.
        hops: usize,
    },
    /// The first hop is not an injection channel departing the path's
    /// source.
    BadInjection {
        /// The path's claimed source.
        src: NodeId,
        /// The channel the first hop actually uses.
        channel: ChannelId,
    },
    /// The first hop is an injection channel at the source, but not the one
    /// belonging to the path's claimed port.
    PortMismatch {
        /// The path's claimed injection port.
        port: PortId,
        /// The injection channel the path actually starts with.
        channel: ChannelId,
    },
    /// The last hop is not an ejection channel arriving at the path's
    /// destination.
    BadEjection {
        /// The path's claimed destination.
        dst: NodeId,
        /// The channel the last hop actually uses.
        channel: ChannelId,
    },
    /// An interior hop uses an injection/ejection channel where a link is
    /// required.
    InteriorNotLink {
        /// The offending channel.
        channel: ChannelId,
    },
    /// A link hop departs from a node other than where the previous hop
    /// left the message.
    BrokenChain {
        /// The offending link.
        channel: ChannelId,
        /// The node the link departs from.
        departs: NodeId,
        /// The node the message is actually at.
        at: NodeId,
    },
    /// A hop selects a virtual channel the physical channel does not have.
    VcOutOfRange {
        /// The offending channel.
        channel: ChannelId,
        /// The selected virtual channel.
        vc: VcId,
        /// How many virtual channels the channel multiplexes.
        vcs: u8,
    },
    /// The link hops terminate at a node other than the path's claimed
    /// destination.
    WrongTerminus {
        /// Where the links actually end.
        at: NodeId,
        /// The path's claimed destination.
        dst: NodeId,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::TooShort { hops } => write!(
                f,
                "path must contain at least injection + ejection, got {hops} hop(s)"
            ),
            PathError::BadInjection { src, channel } => write!(
                f,
                "path must start with an injection channel at {src:?}, got {channel:?}"
            ),
            PathError::PortMismatch { port, channel } => {
                write!(f, "path claims port {port:?} but starts at {channel:?}")
            }
            PathError::BadEjection { dst, channel } => write!(
                f,
                "path must end with an ejection channel at {dst:?}, got {channel:?}"
            ),
            PathError::InteriorNotLink { channel } => {
                write!(f, "interior hop {channel:?} is not a link")
            }
            PathError::BrokenChain {
                channel,
                departs,
                at,
            } => write!(
                f,
                "link {channel:?} departs {departs:?} but the message is at {at:?}"
            ),
            PathError::VcOutOfRange { channel, vc, vcs } => write!(
                f,
                "hop uses vc {vc:?} but channel {channel:?} has only {vcs} vcs"
            ),
            PathError::WrongTerminus { at, dst } => {
                write!(f, "links end at {at:?} but path.dst is {dst:?}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// On-demand channel computation for implicit topologies.
///
/// A factory is the O(1) analogue of the dense channel table: it maps any
/// [`ChannelId`] in `0..num_channels()` to the [`Channel`] a materialized
/// build would have stored at that index — *bit-for-bit*, labels included,
/// which is what the differential oracle suite checks. Implementations must
/// be pure functions of the topology's parameters.
pub trait ChannelFactory: Send + Sync + fmt::Debug {
    /// Total channel count (dense id space `0..num_channels()`).
    fn num_channels(&self) -> usize;

    /// Compute the channel stored at `id` in the materialized table.
    fn channel(&self, id: ChannelId) -> Channel;

    /// Virtual-channel count of `id`. Override to avoid the label
    /// allocation of [`ChannelFactory::channel`] on hot paths.
    fn vcs(&self, id: ChannelId) -> u8 {
        self.channel(id).vcs
    }

    /// Downstream (`to`) node of `id`. Override to avoid the label
    /// allocation of [`ChannelFactory::channel`] on hot paths.
    fn downstream(&self, id: ChannelId) -> NodeId {
        self.channel(id).to
    }

    /// The injection channel of `(node, port)`.
    fn injection_channel(&self, node: NodeId, port: PortId) -> ChannelId;

    /// The ejection channel of `(node, input port/direction)`.
    fn ejection_channel(&self, node: NodeId, port: PortId) -> ChannelId;
}

/// How a [`Network`] stores its channel graph.
#[derive(Clone, Debug)]
enum Storage {
    /// Materialized tables — the representation of the six legacy
    /// topologies, bit-for-bit unchanged.
    Dense {
        channels: Vec<Channel>,
        /// `injection[node * ports + port]`
        injection: Vec<ChannelId>,
        /// `ejection[node * ports + port]`
        ejection: Vec<ChannelId>,
    },
    /// Computed on demand by a [`ChannelFactory`].
    Implicit {
        factory: Arc<dyn ChannelFactory>,
        num_channels: usize,
    },
}

/// The directed channel graph of a NoC.
///
/// Channels live in a dense [`ChannelId`] index space. Materialized
/// networks store the table; implicit networks compute entries on demand
/// (see the module docs for the storage split). Per-node injection/ejection
/// channels are retrievable by `(node, port)` on either representation.
#[derive(Clone, Debug)]
pub struct Network {
    num_nodes: usize,
    ports_per_node: usize,
    storage: Storage,
    /// The owning topology's order-walk step table, filled on first use
    /// (`routing.rs`). It depends only on the channel table and the
    /// topology's `linear_label`, so it is built once, not per stream.
    pub(crate) order_walk: OnceLock<OrderWalk>,
}

impl Network {
    /// Build a materialized network from explicit tables: the oracle
    /// builds of [`Network::materialize`] and hand-built networks. The
    /// dense families number their channels through `Network::dense`.
    ///
    /// # Panics
    ///
    /// Panics if the channel table ids are not dense and in order, or if the
    /// injection/ejection tables have the wrong shape — these are internal
    /// construction invariants of the topology builders.
    pub fn new(
        num_nodes: usize,
        ports_per_node: usize,
        channels: Vec<Channel>,
        injection: Vec<ChannelId>,
        ejection: Vec<ChannelId>,
    ) -> Self {
        assert_eq!(injection.len(), num_nodes * ports_per_node);
        assert_eq!(ejection.len(), num_nodes * ports_per_node);
        for (i, ch) in channels.iter().enumerate() {
            assert_eq!(ch.id.idx(), i, "channel table must be dense and ordered");
        }
        Network {
            num_nodes,
            ports_per_node,
            storage: Storage::Dense {
                channels,
                injection,
                ejection,
            },
            order_walk: OnceLock::new(),
        }
    }

    /// Build a materialized network in the *dense layout* from its link
    /// channels alone: ids `0..links.len()` are the links, then come the
    /// `n · ports` injection channels and the `n · ports` ejection
    /// channels, both node-major — `(node, port)` injects on
    /// `links.len() + node · ports + port` and ejects `n · ports` above
    /// that. Labels are `inj {node}.{port}` / `ej {node}.{port}`, without
    /// the port on one-port families.
    pub(crate) fn dense(num_nodes: usize, ports_per_node: usize, links: Vec<Channel>) -> Self {
        let per_kind = num_nodes * ports_per_node;
        let mut channels = links;
        channels.reserve(2 * per_kind);
        type Make = fn(ChannelId, NodeId, PortId, String) -> Channel;
        let mut append = |make: Make, tag: &str| -> Vec<ChannelId> {
            let ids = (0..per_kind).map(|slot| {
                let (node, port) = (slot / ports_per_node, slot % ports_per_node);
                let label = match ports_per_node {
                    1 => format!("{tag} {node}"),
                    _ => format!("{tag} {node}.{port}"),
                };
                let id = ChannelId(channels.len() as u32);
                channels.push(make(id, NodeId(node as u32), PortId(port as u8), label));
                id
            });
            ids.collect()
        };
        let injection = append(Channel::injection, "inj");
        let ejection = append(Channel::ejection, "ej");
        Network::new(num_nodes, ports_per_node, channels, injection, ejection)
    }

    /// On a network in the dense layout ([`Network::dense`]): if `c` is an
    /// injection or ejection channel, the one of the same kind and port at
    /// node `image(node)`; `None` if `c` is a link.
    pub(crate) fn terminal_image(
        &self,
        c: ChannelId,
        image: impl FnOnce(usize) -> usize,
    ) -> Option<ChannelId> {
        let (ports, per_kind) = (self.ports_per_node, self.num_nodes * self.ports_per_node);
        let links = self.num_channels() - 2 * per_kind;
        let slot = c.idx().checked_sub(links)?;
        // Injection channels, then ejection channels: a terminal's kind
        // starts at `links` or `links + per_kind`.
        let first = if slot < per_kind {
            links
        } else {
            links + per_kind
        };
        // In 32 bits, where a channel id lives and division is cheaper.
        let (slot, ports32) = ((c.idx() - first) as u32, ports as u32);
        let (node, port) = ((slot / ports32) as usize, (slot % ports32) as usize);
        Some(ChannelId((first + image(node) * ports + port) as u32))
    }

    /// Build an implicit network whose channels are computed on demand by
    /// `factory`. Intended for the scale-axis topology constructors.
    pub fn implicit(
        num_nodes: usize,
        ports_per_node: usize,
        factory: Arc<dyn ChannelFactory>,
    ) -> Self {
        let num_channels = factory.num_channels();
        Network {
            num_nodes,
            ports_per_node,
            storage: Storage::Implicit {
                factory,
                num_channels,
            },
            order_walk: OnceLock::new(),
        }
    }

    /// `true` if channels are computed on demand instead of stored.
    #[inline]
    pub fn is_implicit(&self) -> bool {
        matches!(self.storage, Storage::Implicit { .. })
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Injection ports per node.
    #[inline]
    pub fn ports_per_node(&self) -> usize {
        self.ports_per_node
    }

    /// The full channel table of a materialized network.
    ///
    /// # Panics
    ///
    /// Panics on an implicit network — there is no table to borrow. Callers
    /// that must walk every channel either gate on
    /// [`Network::is_implicit`] or iterate ids against
    /// [`Network::channel_at`].
    #[inline]
    pub fn channels(&self) -> &[Channel] {
        match &self.storage {
            Storage::Dense { channels, .. } => channels,
            Storage::Implicit { .. } => {
                panic!("Network::channels() requires materialized storage (implicit topology)")
            }
        }
    }

    /// Total channel count.
    #[inline]
    pub fn num_channels(&self) -> usize {
        match &self.storage {
            Storage::Dense { channels, .. } => channels.len(),
            Storage::Implicit { num_channels, .. } => *num_channels,
        }
    }

    /// Borrow one channel of a materialized network.
    ///
    /// # Panics
    ///
    /// Panics on an implicit network; use [`Network::channel_at`] for a
    /// storage-agnostic (by-value) lookup.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        match &self.storage {
            Storage::Dense { channels, .. } => &channels[id.idx()],
            Storage::Implicit { .. } => {
                panic!("Network::channel() requires materialized storage (implicit topology)")
            }
        }
    }

    /// Look up one channel by value, on either storage: a clone of the
    /// table entry for materialized networks, a fresh computation for
    /// implicit ones.
    #[inline]
    pub fn channel_at(&self, id: ChannelId) -> Channel {
        match &self.storage {
            Storage::Dense { channels, .. } => channels[id.idx()].clone(),
            Storage::Implicit { factory, .. } => factory.channel(id),
        }
    }

    /// Virtual-channel count of `id`, on either storage (no allocation).
    #[inline]
    pub fn vcs_of(&self, id: ChannelId) -> u8 {
        match &self.storage {
            Storage::Dense { channels, .. } => channels[id.idx()].vcs,
            Storage::Implicit { factory, .. } => factory.vcs(id),
        }
    }

    /// The injection channel of `(node, port)`.
    #[inline]
    pub fn injection_channel(&self, node: NodeId, port: PortId) -> ChannelId {
        match &self.storage {
            Storage::Dense { injection, .. } => {
                injection[node.idx() * self.ports_per_node + port.idx()]
            }
            Storage::Implicit { factory, .. } => factory.injection_channel(node, port),
        }
    }

    /// The ejection channel of `(node, input port/direction)`.
    #[inline]
    pub fn ejection_channel(&self, node: NodeId, port: PortId) -> ChannelId {
        match &self.storage {
            Storage::Dense { ejection, .. } => {
                ejection[node.idx() * self.ports_per_node + port.idx()]
            }
            Storage::Implicit { factory, .. } => factory.ejection_channel(node, port),
        }
    }

    /// Iterate over all link channels of a materialized network.
    ///
    /// # Panics
    ///
    /// Panics on an implicit network (see [`Network::channels`]).
    pub fn links(&self) -> impl Iterator<Item = &Channel> {
        self.channels()
            .iter()
            .filter(|c| c.kind == ChannelKind::Link)
    }

    /// The downstream node of a channel (`to` endpoint), on either storage.
    #[inline]
    pub fn downstream(&self, id: ChannelId) -> NodeId {
        match &self.storage {
            Storage::Dense { channels, .. } => channels[id.idx()].to,
            Storage::Implicit { factory, .. } => factory.downstream(id),
        }
    }

    /// Force-materialize into dense storage: the oracle build the
    /// differential suite compares the implicit path against. For an
    /// already-dense network this is a plain clone.
    pub fn materialize(&self) -> Network {
        match &self.storage {
            Storage::Dense { .. } => self.clone(),
            Storage::Implicit { factory, .. } => {
                let channels: Vec<Channel> = (0..factory.num_channels() as u32)
                    .map(|id| factory.channel(ChannelId(id)))
                    .collect();
                let mut injection = Vec::with_capacity(self.num_nodes * self.ports_per_node);
                let mut ejection = Vec::with_capacity(self.num_nodes * self.ports_per_node);
                for node in 0..self.num_nodes as u32 {
                    for port in 0..self.ports_per_node as u8 {
                        injection.push(factory.injection_channel(NodeId(node), PortId(port)));
                        ejection.push(factory.ejection_channel(NodeId(node), PortId(port)));
                    }
                }
                Network::new(
                    self.num_nodes,
                    self.ports_per_node,
                    channels,
                    injection,
                    ejection,
                )
            }
        }
    }

    /// Validate a path against this network: hops must be chained
    /// (each link's `to` equals the next link's `from`), start with the
    /// injection channel of `(src, port)` and end with an ejection channel
    /// at `dst`. Used by tests and debug assertions; works on either
    /// storage.
    pub fn validate_path(&self, path: &Path) -> Result<(), PathError> {
        if path.hops.len() < 2 {
            return Err(PathError::TooShort {
                hops: path.hops.len(),
            });
        }
        let first = self.channel_at(path.hops[0].channel);
        if first.kind != ChannelKind::Injection || first.from != path.src {
            return Err(PathError::BadInjection {
                src: path.src,
                channel: first.id,
            });
        }
        if self.injection_channel(path.src, path.port) != first.id {
            return Err(PathError::PortMismatch {
                port: path.port,
                channel: first.id,
            });
        }
        let last = self.channel_at(path.hops[path.hops.len() - 1].channel);
        if last.kind != ChannelKind::Ejection || last.to != path.dst {
            return Err(PathError::BadEjection {
                dst: path.dst,
                channel: last.id,
            });
        }
        let mut at = path.src;
        for hop in &path.hops[1..path.hops.len() - 1] {
            let ch = self.channel_at(hop.channel);
            if ch.kind != ChannelKind::Link {
                return Err(PathError::InteriorNotLink { channel: ch.id });
            }
            if ch.from != at {
                return Err(PathError::BrokenChain {
                    channel: ch.id,
                    departs: ch.from,
                    at,
                });
            }
            if hop.vc.idx() >= ch.vcs as usize {
                return Err(PathError::VcOutOfRange {
                    channel: ch.id,
                    vc: hop.vc,
                    vcs: ch.vcs,
                });
            }
            at = ch.to;
        }
        if at != path.dst {
            return Err(PathError::WrongTerminus { at, dst: path.dst });
        }
        Ok(())
    }
}

/// A concrete topology: a channel graph plus deterministic routing, the
/// port partition of destinations (Eq. 1–2 of the paper) and path-based
/// multicast stream construction.
pub trait Topology: Send + Sync {
    /// Short human-readable name (`"quarc"`, `"spidergon"`, ...).
    fn name(&self) -> &str;

    /// The channel graph.
    fn network(&self) -> &Network;

    /// Number of nodes.
    fn num_nodes(&self) -> usize {
        self.network().num_nodes()
    }

    /// Injection ports per node (`m` in the paper; 1 for one-port
    /// architectures).
    fn num_ports(&self) -> usize {
        self.network().ports_per_node()
    }

    /// The injection port used to reach `dst` from `src` under the
    /// deterministic base routing.
    ///
    /// # Panics
    ///
    /// May panic if `src == dst`.
    fn port_for(&self, src: NodeId, dst: NodeId) -> PortId;

    /// Deterministic unicast route from `src` to `dst` (injection + links +
    /// ejection), with virtual channels resolved.
    ///
    /// # Panics
    ///
    /// May panic if `src == dst`.
    fn unicast_path(&self, src: NodeId, dst: NodeId) -> Path;

    /// The subset `S_{j,c}` of nodes served by injection port `port` of
    /// `src` (Eq. 1). The subsets over all ports partition the other
    /// `N - 1` nodes (Eq. 2).
    fn quadrant(&self, src: NodeId, port: PortId) -> Vec<NodeId>;

    /// Decompose a multicast from `src` to `targets` into independent
    /// path-based streams, one per injection port with at least one target
    /// (BRCP routing: each stream follows the base unicast route to the
    /// last target of its port subset, absorbing-and-forwarding at
    /// intermediate targets).
    ///
    /// `targets` must not contain `src`; duplicates are ignored.
    fn multicast_streams(&self, src: NodeId, targets: &[NodeId]) -> Vec<MulticastStream>;

    /// Broadcast = multicast to all other nodes.
    fn broadcast_streams(&self, src: NodeId) -> Vec<MulticastStream> {
        let all: Vec<NodeId> = (0..self.num_nodes() as u32)
            .map(NodeId)
            .filter(|&n| n != src)
            .collect();
        self.multicast_streams(src, &all)
    }

    /// Network diameter in links (longest shortest path).
    fn diameter(&self) -> usize;

    /// Position of `node` on the topology's deterministic Hamiltonian
    /// ("linear") node order, a bijection `NodeId → 0..N` used by the
    /// order-based multicast schemes (`RoutingSpec::DualPath` splits the
    /// destinations at the source's label and walks the order). Nodes
    /// with consecutive labels must be physically adjacent, and the wrap
    /// pair `(N-1, 0)` must not be required — the order walk never wraps,
    /// which is what keeps the top-VC channel dependency graph acyclic.
    /// The default — the node index — is such an order for ring-like
    /// topologies; grid/cube topologies override it with their
    /// boustrophedon/Gray-code orders.
    fn linear_label(&self, node: NodeId) -> usize {
        node.idx()
    }

    /// Whether [`Topology::linear_label`] is a *usable* Hamiltonian order:
    /// consecutive labels physically adjacent, no wrap required. True for
    /// the six flat legacy topologies; false for multistage/hierarchical
    /// families, whose node order has no Hamiltonian adjacency — the
    /// order-walking multicast schemes reject such topologies at
    /// validation time instead of panicking mid-walk.
    fn has_linear_order(&self) -> bool {
        true
    }

    /// A shareable handle to this topology, if it supports cheap cloning
    /// into an `Arc` (the scale-axis families do; they return `Some`).
    /// The lazy `SimPlan` uses this to compute streams on demand without
    /// borrowing the topology for the simulation's lifetime. `None` (the
    /// default) means plans must materialize their tables eagerly.
    fn share(&self) -> Option<Arc<dyn Topology>> {
        None
    }

    /// Whether multicast streams of distinct ports are genuinely
    /// concurrent (multi-port, asynchronous) — true for Quarc/ring/mesh,
    /// false for the one-port Spidergon baseline, whose "multicast" is a
    /// train of consecutive unicasts through the single port.
    fn concurrent_multicast(&self) -> bool {
        self.num_ports() > 1
    }

    /// The image of channel `c` under a routing automorphism `g` of this
    /// topology that takes node 0 to `by`, or `None` when the topology
    /// offers none (the default).
    ///
    /// The contract: `g` is a bijection on channels that keeps each
    /// channel's kind and port and maps node `v`'s injection and ejection
    /// channels onto those of `g(v)`, and for every destination `d` the
    /// route from `by` to `g(d)` is `g` applied to the route from node 0
    /// to `d`, channel by channel (virtual channels may differ). A load
    /// that is the same for every source up to `g` — uniform unicast
    /// destinations — can then be built from node 0's routes alone.
    fn translate(&self, c: ChannelId, by: NodeId) -> Option<ChannelId> {
        let _ = (c, by);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::ids::VcId;
    use crate::path::Hop;

    /// Tiny 2-node hand-built network: n0 --link--> n1.
    fn two_node_net() -> Network {
        let channels = vec![
            Channel::injection(ChannelId(0), NodeId(0), PortId(0), "inj0"),
            Channel::injection(ChannelId(1), NodeId(1), PortId(0), "inj1"),
            Channel::link(
                ChannelId(2),
                NodeId(0),
                NodeId(1),
                PortId(0),
                1,
                false,
                "l01",
            ),
            Channel::link(
                ChannelId(3),
                NodeId(1),
                NodeId(0),
                PortId(0),
                1,
                false,
                "l10",
            ),
            Channel::ejection(ChannelId(4), NodeId(0), PortId(0), "ej0"),
            Channel::ejection(ChannelId(5), NodeId(1), PortId(0), "ej1"),
        ];
        Network::new(
            2,
            1,
            channels,
            vec![ChannelId(0), ChannelId(1)],
            vec![ChannelId(4), ChannelId(5)],
        )
    }

    /// The same 2-node network expressed as a factory, for storage tests.
    #[derive(Debug)]
    struct TwoNodeFactory;

    impl ChannelFactory for TwoNodeFactory {
        fn num_channels(&self) -> usize {
            6
        }

        fn channel(&self, id: ChannelId) -> Channel {
            two_node_net().channel(id).clone()
        }

        fn injection_channel(&self, node: NodeId, _port: PortId) -> ChannelId {
            ChannelId(node.0)
        }

        fn ejection_channel(&self, node: NodeId, _port: PortId) -> ChannelId {
            ChannelId(4 + node.0)
        }
    }

    fn two_node_implicit() -> Network {
        Network::implicit(2, 1, Arc::new(TwoNodeFactory))
    }

    #[test]
    fn lookup_tables_work() {
        let net = two_node_net();
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.ports_per_node(), 1);
        assert_eq!(net.num_channels(), 6);
        assert_eq!(net.injection_channel(NodeId(0), PortId(0)), ChannelId(0));
        assert_eq!(net.ejection_channel(NodeId(1), PortId(0)), ChannelId(5));
        assert_eq!(net.links().count(), 2);
        assert_eq!(net.downstream(ChannelId(2)), NodeId(1));
        assert!(!net.is_implicit());
    }

    #[test]
    fn implicit_storage_answers_the_storage_agnostic_accessors() {
        let net = two_node_implicit();
        assert!(net.is_implicit());
        assert_eq!(net.num_channels(), 6);
        assert_eq!(
            net.channel_at(ChannelId(2)),
            *two_node_net().channel(ChannelId(2))
        );
        assert_eq!(net.vcs_of(ChannelId(2)), 1);
        assert_eq!(net.downstream(ChannelId(2)), NodeId(1));
        assert_eq!(net.injection_channel(NodeId(1), PortId(0)), ChannelId(1));
        assert_eq!(net.ejection_channel(NodeId(0), PortId(0)), ChannelId(4));
    }

    #[test]
    #[should_panic(expected = "materialized storage")]
    fn dense_table_borrow_panics_on_implicit_storage() {
        let _ = two_node_implicit().channels();
    }

    #[test]
    fn materialize_builds_the_bitwise_oracle() {
        let oracle = two_node_implicit().materialize();
        assert!(!oracle.is_implicit());
        assert_eq!(oracle.channels(), two_node_net().channels());
        for node in [NodeId(0), NodeId(1)] {
            assert_eq!(
                oracle.injection_channel(node, PortId(0)),
                two_node_net().injection_channel(node, PortId(0))
            );
            assert_eq!(
                oracle.ejection_channel(node, PortId(0)),
                two_node_net().ejection_channel(node, PortId(0))
            );
        }
    }

    fn hop(channel: u32, vc: u8) -> Hop {
        Hop {
            channel: ChannelId(channel),
            vc: VcId(vc),
        }
    }

    #[test]
    fn validate_path_accepts_wellformed() {
        let net = two_node_net();
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            port: PortId(0),
            hops: vec![hop(0, 0), hop(2, 0), hop(5, 0)],
        };
        assert_eq!(net.validate_path(&p), Ok(()));
        assert_eq!(two_node_implicit().validate_path(&p), Ok(()));
    }

    #[test]
    fn validate_path_rejects_broken_chain() {
        let net = two_node_net();
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            port: PortId(0),
            // ChannelId(3) runs the wrong direction.
            hops: vec![hop(0, 0), hop(3, 0), hop(5, 0)],
        };
        assert_eq!(
            net.validate_path(&p),
            Err(PathError::BrokenChain {
                channel: ChannelId(3),
                departs: NodeId(1),
                at: NodeId(0),
            })
        );
    }

    #[test]
    fn validate_path_rejects_bad_vc() {
        let net = two_node_net();
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            port: PortId(0),
            // ChannelId(2) has a single vc.
            hops: vec![hop(0, 0), hop(2, 1), hop(5, 0)],
        };
        assert_eq!(
            net.validate_path(&p),
            Err(PathError::VcOutOfRange {
                channel: ChannelId(2),
                vc: VcId(1),
                vcs: 1,
            })
        );
    }

    #[test]
    fn validate_path_rejects_wrong_endpoints() {
        let net = two_node_net();
        let p = Path {
            src: NodeId(0),
            dst: NodeId(0),
            port: PortId(0),
            // Ejection at n1, dst says n0.
            hops: vec![hop(0, 0), hop(2, 0), hop(5, 0)],
        };
        assert_eq!(
            net.validate_path(&p),
            Err(PathError::BadEjection {
                dst: NodeId(0),
                channel: ChannelId(5),
            })
        );
    }

    #[test]
    fn validate_path_rejects_each_remaining_variant() {
        let net = two_node_net();
        // Too short.
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            port: PortId(0),
            hops: vec![hop(0, 0)],
        };
        assert_eq!(net.validate_path(&p), Err(PathError::TooShort { hops: 1 }));
        // First hop is not an injection channel at src.
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            port: PortId(0),
            hops: vec![hop(1, 0), hop(2, 0), hop(5, 0)],
        };
        assert_eq!(
            net.validate_path(&p),
            Err(PathError::BadInjection {
                src: NodeId(0),
                channel: ChannelId(1),
            })
        );
        // Interior hop is not a link.
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            port: PortId(0),
            hops: vec![hop(0, 0), hop(4, 0), hop(5, 0)],
        };
        assert_eq!(
            net.validate_path(&p),
            Err(PathError::InteriorNotLink {
                channel: ChannelId(4),
            })
        );
        // Links never reach dst.
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            port: PortId(0),
            hops: vec![hop(0, 0), hop(2, 0), hop(3, 0), hop(5, 0)],
        };
        assert_eq!(
            net.validate_path(&p),
            Err(PathError::WrongTerminus {
                at: NodeId(0),
                dst: NodeId(1),
            })
        );
        // Every variant displays something useful.
        for err in [
            PathError::TooShort { hops: 0 },
            PathError::BadInjection {
                src: NodeId(0),
                channel: ChannelId(1),
            },
            PathError::PortMismatch {
                port: PortId(1),
                channel: ChannelId(0),
            },
            PathError::BadEjection {
                dst: NodeId(0),
                channel: ChannelId(5),
            },
            PathError::InteriorNotLink {
                channel: ChannelId(4),
            },
            PathError::BrokenChain {
                channel: ChannelId(3),
                departs: NodeId(1),
                at: NodeId(0),
            },
            PathError::VcOutOfRange {
                channel: ChannelId(2),
                vc: VcId(1),
                vcs: 1,
            },
            PathError::WrongTerminus {
                at: NodeId(0),
                dst: NodeId(1),
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn validate_path_rejects_port_mismatch() {
        // A 1-node, 2-port network: port 1's injection channel differs.
        let channels = vec![
            Channel::injection(ChannelId(0), NodeId(0), PortId(0), "i0"),
            Channel::injection(ChannelId(1), NodeId(0), PortId(1), "i1"),
            Channel::ejection(ChannelId(2), NodeId(0), PortId(0), "e0"),
            Channel::ejection(ChannelId(3), NodeId(0), PortId(1), "e1"),
        ];
        let net = Network::new(
            1,
            2,
            channels,
            vec![ChannelId(0), ChannelId(1)],
            vec![ChannelId(2), ChannelId(3)],
        );
        let p = Path {
            src: NodeId(0),
            dst: NodeId(0),
            port: PortId(1),
            hops: vec![hop(0, 0), hop(2, 0)],
        };
        assert_eq!(
            net.validate_path(&p),
            Err(PathError::PortMismatch {
                port: PortId(1),
                channel: ChannelId(0),
            })
        );
    }
}
