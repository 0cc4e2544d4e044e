//! # noc-topology
//!
//! Topologies, channel graphs and deterministic routing for wormhole-routed
//! networks-on-chip.
//!
//! This crate is the structural substrate of the IPDPS 2009 reproduction
//! ("A performance model of multicast communication in wormhole-routed
//! networks on-chip", Moadeli & Vanderbauwhede). It provides:
//!
//! * [`Network`] — a directed *channel* graph. Following the analytical model
//!   of the paper, every resource is a channel: per-node **injection**
//!   channels (one per router port), inter-router **link** channels and
//!   per-node **ejection** channels (one per input direction).
//! * [`Topology`] — the trait every concrete topology implements:
//!   deterministic unicast routing ([`Topology::unicast_path`]), the
//!   partition of destinations over injection ports
//!   ([`Topology::quadrant`], Eq. 1–2 of the paper) and path-based
//!   (BRCP-style) multicast stream construction
//!   ([`Topology::multicast_streams`]).
//! * Concrete topologies:
//!   [`quarc::Quarc`] — the paper's evaluation platform (all-port routers,
//!   doubled cross links, absorb-and-forward multicast);
//!   [`spidergon::Spidergon`] — the one-port baseline;
//!   [`ring::Ring`] — the minimal two-port multicast topology;
//!   [`mesh::Mesh`] — mesh/torus with XY routing and dual-path
//!   Hamiltonian multicast (the paper's stated future work);
//!   [`min::Min`] — k-ary multistage (butterfly) networks and
//!   [`clustered::Clustered`] — hierarchical cluster compositions, both
//!   with *implicit* O(1) channel storage for 64k+-node scale sweeps
//!   (differentially tested against force-materialized oracles).
//! * [`routing`] — pluggable multicast routing schemes behind the
//!   serializable [`RoutingSpec`] selector: the native path-based (BRCP)
//!   construction, generic Lin–Ni dual-path, DPM-style partitioned
//!   multipath and the source-replicated unicast baseline.
//! * [`spec`] — declarative, serializable [`TopologySpec`]s and the
//!   construct-by-name registry (`TopologySpec::parse("mesh-4x4")`), so
//!   experiment scenarios can request any topology as data.
//! * [`addressing`] — coordinate/bit views of the node index space
//!   (square-grid and power-of-two addressing) backing the adversarial
//!   permutation traffic patterns (transpose, bit reversal, shuffle,
//!   tornado, neighbour); total functions that return `None` where the
//!   index space lacks the required structure.
//! * [`render`] — DOT/ASCII renderings regenerating Fig. 2 (topology) and
//!   Fig. 3 (broadcast streams).
//!
//! ## Channel-count conventions
//!
//! A [`Path`] always contains the injection hop, every link hop, and the
//! ejection hop, in traversal order. A flit-level wormhole network moves a
//! flit across one channel per cycle, so the zero-load latency of a message
//! of `msg` flits over a path with `H` links is `msg + H + 1` cycles (header
//! pipeline fill of `H + 2` channels overlapped with the first payload
//! cycle). The analytical model uses `D = path.hop_count()` =
//! `path.len() - 1` so that `msg + D` reproduces this exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addressing;
pub mod channel;
pub mod clustered;
pub mod hypercube;
pub mod ids;
pub mod mesh;
pub mod min;
pub mod network;
pub mod path;
pub mod quarc;
pub mod render;
mod rim;
pub mod ring;
pub mod routing;
pub mod spec;
pub mod spidergon;

pub use channel::{Channel, ChannelKind};
pub use clustered::Clustered;
pub use hypercube::Hypercube;
pub use ids::{ChannelId, NodeId, PortId, VcId};
pub use mesh::{Mesh, MeshKind};
pub use min::Min;
pub use network::{ChannelFactory, Network, PathError, Topology, TopologyError};
pub use path::{Hop, MulticastStream, Path};
pub use quarc::Quarc;
pub use ring::Ring;
pub use routing::{RoutingError, RoutingSpec, ALL_ROUTINGS};
pub use spec::{ClusterInner, TopologySpec, KNOWN_TOPOLOGIES};
pub use spidergon::Spidergon;
