//! Pluggable multicast routing schemes.
//!
//! The paper's model (§2.2, Eq. 8–16) assumes *path-based* multicast: each
//! injection port of the source carries one wormhole stream that visits
//! its share of the destinations in hardware (absorb-and-forward). That is
//! only one point in the design space the NoC-multicast literature
//! explores — Berejuck's overview (arXiv:1610.00751) taxonomizes
//! unicast-based, path-based and tree-based schemes, and Tiwari et al.'s
//! Dynamic Partition Merging (arXiv:2108.00566) partitions destinations
//! across paths to cut latency. This module makes the scheme a pluggable
//! axis:
//!
//! * [`RoutingSpec::PathBased`] — the topology's native stream
//!   construction ([`Topology::multicast_streams`]): BRCP rim streams on
//!   the Quarc/ring; on mesh/torus/hypercube it *is* the dual-path walk
//!   below, over their boustrophedon / Gray-code orders.
//! * [`RoutingSpec::DualPath`] — the Lin–Ni split: destinations
//!   are divided into the half *above* and the half *below* the source on
//!   the topology's linear order ([`Topology::linear_label`]) and each
//!   half is served by one stream walking the order label-by-label,
//!   absorbing at targets.
//! * [`RoutingSpec::Multipath`] — DPM-style partitioned multipath
//!   (arXiv:2108.00566): the two dual-path halves are greedily split into
//!   up to `m` (ports per node) contiguous segments, each served by its
//!   own walk — shorter absorb lists per stream at the cost of shared
//!   prefix links.
//! * [`RoutingSpec::UnicastTree`] — the no-hardware-support baseline: the
//!   source replicates the message into one plain unicast per
//!   destination; streams sharing an injection port serialize there.
//!
//! Every scheme produces ordinary [`MulticastStream`]s, so the simulator
//! engines and the analytical model consume them unchanged.
//!
//! ## Deadlock discipline
//!
//! Wormhole multicast paths hold channels across many hops, so route
//! construction carries the deadlock-freedom argument. The order-based
//! schemes (`DualPath`/`Multipath`) move **strictly monotonically** along
//! the linear order using only links between order-adjacent nodes, on
//! each link's *top* virtual channel. Monotonicity makes the channel
//! dependency graph of the up (and, mirrored, the down) subnetwork
//! acyclic — the Lin–Ni argument. On grid/cube topologies the top VC
//! *is* the reserved multicast class; on rim topologies (Quarc/ring) it
//! is the dateline class, which stays acyclic because the walk never
//! crosses the wrap link. (An earlier construction chained shortest
//! unicast legs instead; its mid-path turns deadlocked under load — see
//! `tests/routing_schemes.rs` for the regression.) `UnicastTree` streams
//! are plain unicast routes and inherit the base routing's discipline.
//!
//! The analytical model's asynchronous-port assumption holds for the
//! path-based and dual-path schemes, whose streams use disjoint channels;
//! [`RoutingSpec::model_applicable`] flags `Multipath` (one operation's
//! segments co-arrive on shared prefix links) and `UnicastTree` (streams
//! serialize at shared injection ports) as outside the model's domain —
//! contention between a single operation's streams is exactly what the
//! independent-exponentials combination of Eq. 12–13 does not see.

use crate::ids::NodeId;
use crate::network::Topology;
use crate::path::{Hop, MulticastStream, Path};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised when a routing scheme cannot be realized on a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoutingError {
    /// The scheme needs at least two injection ports per node to produce
    /// concurrent streams (e.g. `Multipath`/`DualPath` on the one-port
    /// Spidergon degenerate to a serialized path — reject instead of
    /// silently modelling concurrency that cannot exist).
    SingleInjectionPort {
        /// The scheme's registry code.
        scheme: &'static str,
        /// Injection ports per node of the offending topology.
        ports: usize,
    },
    /// The scheme needs more nodes than the topology has (a multicast
    /// needs at least one possible destination besides the source).
    TooFewNodes {
        /// The scheme's registry code.
        scheme: &'static str,
        /// Node count of the offending topology.
        nodes: usize,
    },
    /// The scheme walks the topology's Hamiltonian linear order, which
    /// the topology does not have (multistage/hierarchical families —
    /// see [`Topology::has_linear_order`]).
    NoLinearOrder {
        /// The scheme's registry code.
        scheme: &'static str,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::SingleInjectionPort { scheme, ports } => write!(
                f,
                "routing scheme `{scheme}` requires >= 2 injection ports per node \
                 for concurrent streams, topology has {ports}"
            ),
            RoutingError::TooFewNodes { scheme, nodes } => write!(
                f,
                "routing scheme `{scheme}` requires >= 2 nodes, topology has {nodes}"
            ),
            RoutingError::NoLinearOrder { scheme } => write!(
                f,
                "routing scheme `{scheme}` walks a Hamiltonian linear order, \
                 which multistage/hierarchical topologies do not have"
            ),
        }
    }
}

impl std::error::Error for RoutingError {}

/// Drop `src` and duplicates from a target list, preserving first-seen
/// order.
fn sanitize(src: NodeId, targets: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(targets.len());
    for &t in targets {
        if t != src && !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

/// The step table of the order-based schemes: for each order-adjacent
/// node pair, the connecting link. Built on the first order walk over a
/// topology and kept beside its channel table (see [`order_walk`]).
#[derive(Clone, Debug)]
pub(crate) struct OrderWalk {
    /// `step_up[h]` — the link from label `h` to label `h + 1`
    /// (`step_up[n-1]` is unused and left as `None`).
    step_up: Vec<Option<Hop>>,
    /// `step_down[h]` — the link from label `h` to label `h - 1`.
    step_down: Vec<Option<Hop>>,
}

/// `topo`'s step table, built once per topology.
fn order_walk(topo: &dyn Topology) -> &OrderWalk {
    topo.network()
        .order_walk
        .get_or_init(|| OrderWalk::build(topo))
}

impl OrderWalk {
    fn build(topo: &dyn Topology) -> Self {
        let net = topo.network();
        let n = net.num_nodes();
        let mut step_up: Vec<Option<Hop>> = vec![None; n];
        let mut step_down: Vec<Option<Hop>> = vec![None; n];
        for ch in net.links() {
            let hf = topo.linear_label(ch.from);
            let ht = topo.linear_label(ch.to);
            // Order-based streams ride each link's top virtual channel:
            // the reserved multicast class on grid/cube topologies, the
            // (never-wrapped-into) dateline class on rim topologies.
            let hop = Hop::new(ch.id, ch.vcs - 1);
            if ht == hf + 1 {
                step_up[hf] = Some(hop);
            } else if hf == ht + 1 {
                step_down[hf] = Some(hop);
            }
        }
        OrderWalk { step_up, step_down }
    }

    /// Build one stream from `src` that walks the linear order up (or
    /// down) to the last of `visits`, absorbing at each visit.
    /// `visits` are `(label, node)` pairs sorted by label, ascending when
    /// `up`, strictly on the `up` side of `src`'s label.
    fn stream(
        &self,
        topo: &dyn Topology,
        src: NodeId,
        visits: &[(usize, NodeId)],
        up: bool,
    ) -> MulticastStream {
        let net = topo.network();
        let step = |h: usize| {
            let step = if up {
                self.step_up[h]
            } else {
                self.step_down[h]
            };
            step.unwrap_or_else(|| {
                panic!(
                    "order-based routing requires a link between \
                     order-adjacent nodes (none at label {h})"
                )
            })
        };
        let (mut h, last) = (topo.linear_label(src), visits[visits.len() - 1].0);
        let port = net.channel(step(h).channel).port;
        let mut hops = Vec::with_capacity(h.abs_diff(last) + 2);
        hops.push(Hop::new(net.injection_channel(src, port), 0));
        while h != last {
            hops.push(step(h));
            h = if up { h + 1 } else { h - 1 };
        }
        let last_link = net.channel(hops[hops.len() - 1].channel);
        let dst = last_link.to;
        hops.push(Hop::new(net.ejection_channel(dst, last_link.port), 0));
        MulticastStream {
            port,
            path: Path {
                src,
                dst,
                port,
                hops,
            },
            targets: visits.iter().map(|&(_, t)| t).collect(),
        }
    }
}

/// Targets on one side of the source: `(label, node)` in visit order.
type Half = Vec<(usize, NodeId)>;

/// Split the targets (minus `src`, minus duplicates) into the
/// label-sorted halves above (ascending) and below (descending) `src`.
fn order_halves(topo: &dyn Topology, src: NodeId, targets: &[NodeId]) -> (Half, Half) {
    let h0 = topo.linear_label(src);
    let mut high: Half = Vec::new();
    let mut low: Half = Vec::new();
    for &t in targets {
        if t == src {
            continue;
        }
        let h = topo.linear_label(t);
        if h > h0 {
            high.push((h, t));
        } else {
            low.push((h, t));
        }
    }
    // Labels are a bijection, so sorting brings duplicates together.
    for half in [&mut high, &mut low] {
        half.sort_unstable();
        half.dedup();
    }
    low.reverse();
    (high, low)
}

/// Lin–Ni dual-path: split the destinations into the halves above and
/// below the source on [`Topology::linear_label`] and serve each half
/// with one stream walking the order label-by-label (absorbing at
/// targets) on the links' top virtual channel. It is the native
/// [`Topology::multicast_streams`] of mesh, torus and hypercube
/// (boustrophedon / Gray-code orders) and [`RoutingSpec::DualPath`] on
/// every topology with a linear order — on the Quarc, the two-rim-stream
/// alternative to the native four-port BRCP decomposition.
pub(crate) fn dual_path_streams(
    topo: &dyn Topology,
    src: NodeId,
    targets: &[NodeId],
) -> Vec<MulticastStream> {
    let (high, low) = order_halves(topo, src, targets);
    let walk = order_walk(topo);
    [(high, true), (low, false)]
        .into_iter()
        .filter(|(half, _)| !half.is_empty())
        .map(|(half, up)| walk.stream(topo, src, &half, up))
        .collect()
}

/// DPM-style partitioned multipath (arXiv:2108.00566): the dual-path
/// halves are greedily split into up to `m` (injection ports per node)
/// contiguous label segments — always splitting the segment with the most
/// targets — and each segment gets its own order walk. More streams mean
/// shorter absorb lists (lower per-stream service time) at the cost of
/// shared prefix links near the source.
fn multipath_streams(topo: &dyn Topology, src: NodeId, targets: &[NodeId]) -> Vec<MulticastStream> {
    let (high, low) = order_halves(topo, src, targets);
    let budget = topo.num_ports();
    // Greedy partitioning: start from the dual-path halves and keep
    // splitting the largest segment in half until the port budget is
    // spent or every segment is a single target.
    let mut segments: Vec<(Half, bool)> = [(high, true), (low, false)]
        .into_iter()
        .filter(|(half, _)| !half.is_empty())
        .collect();
    while segments.len() < budget {
        let (i, _) = match segments
            .iter()
            .enumerate()
            .filter(|(_, (seg, _))| seg.len() > 1)
            .max_by_key(|(_, (seg, _))| seg.len())
        {
            Some((i, seg)) => (i, seg),
            None => break, // all segments are singletons
        };
        let (seg, up) = segments.remove(i);
        let (near, far) = seg.split_at(seg.len() / 2);
        segments.insert(i, (near.to_vec(), up));
        segments.insert(i + 1, (far.to_vec(), up));
    }
    let walk = order_walk(topo);
    segments
        .into_iter()
        .map(|(seg, up)| walk.stream(topo, src, &seg, up))
        .collect()
}

/// Source-replicated unicast: one plain unicast stream per destination,
/// the baseline for routers with no multicast hardware support.
fn unicast_tree_streams(
    topo: &dyn Topology,
    src: NodeId,
    targets: &[NodeId],
) -> Vec<MulticastStream> {
    sanitize(src, targets)
        .into_iter()
        .map(|t| {
            let path = topo.unicast_path(src, t);
            MulticastStream {
                port: path.port,
                targets: vec![t],
                path,
            }
        })
        .collect()
}

/// The serializable multicast-routing selector of a workload.
///
/// Missing keys in persisted scenarios deserialize to the paper's
/// [`RoutingSpec::PathBased`] (the only scheme that existed before the
/// abstraction), so old spec files stay readable.
///
/// # Example
///
/// ```
/// use noc_topology::{NodeId, Quarc, RoutingSpec, Topology};
///
/// let quarc = Quarc::new(16).unwrap();
/// let targets = [NodeId(3), NodeId(8), NodeId(12)];
/// // The native path-based scheme decomposes over the injection ports...
/// let path = RoutingSpec::PathBased.streams(&quarc, NodeId(0), &targets);
/// assert!(path.len() <= quarc.num_ports());
/// // ...while the unicast baseline replicates one stream per destination
/// // (and the model's asynchronous-port assumption no longer applies).
/// let uni = RoutingSpec::UnicastTree.streams(&quarc, NodeId(0), &targets);
/// assert_eq!(uni.len(), targets.len());
/// assert!(!RoutingSpec::UnicastTree.model_applicable());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingSpec {
    /// The topology's native path-based (BRCP) construction — the paper's
    /// scheme and the default.
    #[default]
    PathBased,
    /// Generic Lin–Ni dual-path over the topology's linear order.
    DualPath,
    /// DPM-style one-partition-per-port multipath.
    Multipath,
    /// Source-replicated unicast (no multicast hardware support).
    UnicastTree,
}

/// Every scheme in registry order (sweep binaries iterate this).
pub const ALL_ROUTINGS: [RoutingSpec; 4] = [
    RoutingSpec::PathBased,
    RoutingSpec::DualPath,
    RoutingSpec::Multipath,
    RoutingSpec::UnicastTree,
];

impl RoutingSpec {
    /// Short code used in derived labels (`"path"`, `"dual-path"`,
    /// `"multipath"`, `"unicast"`).
    pub fn code(&self) -> &'static str {
        match self {
            RoutingSpec::PathBased => "path",
            RoutingSpec::DualPath => "dual-path",
            RoutingSpec::Multipath => "multipath",
            RoutingSpec::UnicastTree => "unicast",
        }
    }

    /// Check the scheme is realizable on a topology of `num_nodes` nodes
    /// with `num_ports` injection ports per node and (for the
    /// order-walking schemes) a usable Hamiltonian linear order
    /// ([`Topology::has_linear_order`]).
    pub fn validate(
        &self,
        num_nodes: usize,
        num_ports: usize,
        has_linear_order: bool,
    ) -> Result<(), RoutingError> {
        let scheme = self.code();
        if num_nodes < 2 {
            return Err(RoutingError::TooFewNodes {
                scheme,
                nodes: num_nodes,
            });
        }
        // The order-walking schemes run concurrent streams along the
        // linear order.
        if matches!(self, RoutingSpec::DualPath | RoutingSpec::Multipath) {
            if num_ports < 2 {
                return Err(RoutingError::SingleInjectionPort {
                    scheme,
                    ports: num_ports,
                });
            }
            if !has_linear_order {
                return Err(RoutingError::NoLinearOrder { scheme });
            }
        }
        Ok(())
    }

    /// Decompose a multicast from `src` to `targets` into streams under
    /// this scheme. `src` entries and duplicates in `targets` are
    /// ignored.
    ///
    /// Every scheme upholds the *partition invariants* the simulator and
    /// the model rely on: the streams' target lists cover every requested
    /// destination (minus the source, minus duplicates) **exactly once**,
    /// and every stream path is valid on the topology's channel graph.
    pub fn streams(
        &self,
        topo: &dyn Topology,
        src: NodeId,
        targets: &[NodeId],
    ) -> Vec<MulticastStream> {
        match self {
            RoutingSpec::PathBased => topo.multicast_streams(src, targets),
            RoutingSpec::DualPath => dual_path_streams(topo, src, targets),
            RoutingSpec::Multipath => multipath_streams(topo, src, targets),
            RoutingSpec::UnicastTree => unicast_tree_streams(topo, src, targets),
        }
    }

    /// Does the paper's asynchronous-port waiting model (Eq. 8–16) apply?
    /// `false` for [`RoutingSpec::Multipath`] — segments of one half share
    /// their prefix links, so one operation's streams co-arrive on common
    /// channels, a synchronized contention the independent-exponentials
    /// combination of Eq. 12–13 does not see (empirically a ~50 %
    /// underprediction even at 30 % load) — and for
    /// [`RoutingSpec::UnicastTree`], whose streams serialize at shared
    /// injection ports.
    pub fn model_applicable(&self) -> bool {
        matches!(self, RoutingSpec::PathBased | RoutingSpec::DualPath)
    }
}

impl fmt::Display for RoutingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Mesh, MeshKind};
    use crate::quarc::Quarc;
    use crate::ring::Ring;
    use std::collections::BTreeSet;

    fn check_partition(topo: &dyn Topology, spec: RoutingSpec, src: NodeId, targets: &[NodeId]) {
        let streams = spec.streams(topo, src, targets);
        let mut covered = BTreeSet::new();
        for st in &streams {
            topo.network().validate_path(&st.path).unwrap();
            assert_eq!(st.path.dst, *st.targets.last().unwrap());
            assert_eq!(st.port, st.path.port);
            for &t in &st.targets {
                assert_ne!(t, src, "{spec}: no self-delivery");
                assert!(covered.insert(t), "{spec}: target {t:?} covered twice");
            }
        }
        let expected: BTreeSet<_> = targets.iter().copied().filter(|&t| t != src).collect();
        assert_eq!(covered, expected, "{spec}: all targets covered");
    }

    #[test]
    fn path_based_is_the_native_construction() {
        let q = Quarc::new(16).unwrap();
        let targets = [NodeId(3), NodeId(8), NodeId(12), NodeId(5)];
        assert_eq!(
            RoutingSpec::PathBased.streams(&q, NodeId(0), &targets),
            q.multicast_streams(NodeId(0), &targets)
        );
    }

    #[test]
    fn every_scheme_partitions_on_multi_port_topologies() {
        let quarc = Quarc::new(16).unwrap();
        let mesh = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
        let ring = Ring::new(9).unwrap();
        let topos: [&dyn Topology; 3] = [&quarc, &mesh, &ring];
        for topo in topos {
            let n = topo.num_nodes() as u32;
            let targets: Vec<NodeId> = (1..n).step_by(2).map(NodeId).collect();
            for spec in ALL_ROUTINGS {
                check_partition(topo, spec, NodeId(0), &targets);
            }
        }
    }

    #[test]
    fn src_and_duplicates_are_ignored_by_generic_schemes() {
        let q = Quarc::new(16).unwrap();
        let src = NodeId(2);
        let messy = [src, NodeId(5), NodeId(5), NodeId(9), src];
        for spec in [
            RoutingSpec::DualPath,
            RoutingSpec::Multipath,
            RoutingSpec::UnicastTree,
        ] {
            check_partition(&q, spec, src, &messy);
        }
    }

    #[test]
    fn dual_path_yields_at_most_two_streams_in_label_order() {
        let mesh = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
        let src = NodeId(5);
        let targets: Vec<NodeId> = (0..16).map(NodeId).filter(|&t| t != src).collect();
        let streams = RoutingSpec::DualPath.streams(&mesh, src, &targets);
        assert_eq!(streams.len(), 2);
        let h0 = mesh.linear_label(src);
        let labels = |st: &MulticastStream| -> Vec<usize> {
            st.targets.iter().map(|&t| mesh.linear_label(t)).collect()
        };
        let high = labels(&streams[0]);
        assert!(high.windows(2).all(|w| w[0] < w[1]), "ascending: {high:?}");
        assert!(high.iter().all(|&h| h > h0));
        let low = labels(&streams[1]);
        assert!(low.windows(2).all(|w| w[0] > w[1]), "descending: {low:?}");
        assert!(low.iter().all(|&h| h < h0));
    }

    #[test]
    fn multipath_splits_into_at_most_ports_contiguous_segments() {
        let q = Quarc::new(16).unwrap();
        let src = NodeId(0);
        let targets: Vec<NodeId> = (1..16).map(NodeId).collect();
        let streams = RoutingSpec::Multipath.streams(&q, src, &targets);
        assert_eq!(streams.len(), q.num_ports(), "port budget fully used");
        for st in &streams {
            q.network().validate_path(&st.path).unwrap();
            // Each stream's targets are monotone in the linear order
            // (contiguous label segments of one dual-path half).
            let labels: Vec<usize> = st.targets.iter().map(|&t| q.linear_label(t)).collect();
            assert!(
                labels.windows(2).all(|w| w[0] < w[1]) || labels.windows(2).all(|w| w[0] > w[1]),
                "segment labels must be monotone: {labels:?}"
            );
        }
        // Few targets: one singleton stream each, never more than targets.
        let streams = RoutingSpec::Multipath.streams(&q, src, &[NodeId(2), NodeId(9)]);
        assert_eq!(streams.len(), 2);
        assert!(streams.iter().all(|st| st.targets.len() == 1));
    }

    #[test]
    fn dual_path_hop_lists_are_pinned_on_ordered_topologies() {
        // Mesh, torus and hypercube route their native multicast through
        // the same order walk, so comparing the two would compare the
        // walk with itself. These are the channel ids of the
        // per-topology constructions the walk replaced (PR 18's build):
        // source 5, every third other node, up-stream then down-stream.
        /// `(port, targets, injection, links, ejection)`
        type Pinned = (u8, &'static [u32], u32, &'static [u32], u32);
        let mesh = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
        let torus = Mesh::new(4, 4, MeshKind::Torus).unwrap();
        let cube = crate::hypercube::Hypercube::new(4).unwrap();
        // (topology, multicast vc of its links, [up, down])
        let cases: [(&dyn Topology, u8, [Pinned; 2]); 3] = [
            (
                &mesh,
                1,
                [
                    (1, &[10, 13], 69, &[14, 11, 24, 27, 31, 36, 46, 44], 165),
                    (0, &[7, 3, 0], 68, &[13, 17, 23, 8, 6, 3], 113),
                ],
            ),
            (
                &torus,
                2,
                [
                    (1, &[10, 13], 85, &[21, 18, 32, 36, 40, 46, 61, 57], 181),
                    (0, &[7, 3, 0], 84, &[20, 24, 31, 13, 9, 5], 129),
                ],
            ),
            (
                &cube,
                1,
                [
                    (0, &[13, 10], 84, &[20, 19, 48, 53, 60, 58], 170),
                    (1, &[7, 3, 0], 85, &[21, 28, 26, 8, 13, 4], 128),
                ],
            ),
        ];
        let src = NodeId(5);
        let targets: Vec<NodeId> = (0..16)
            .map(NodeId)
            .filter(|&t| t != src)
            .step_by(3)
            .collect();
        for (topo, vc, pinned) in cases {
            for spec in [RoutingSpec::PathBased, RoutingSpec::DualPath] {
                let streams = spec.streams(topo, src, &targets);
                assert_eq!(streams.len(), 2, "{} {spec}", topo.name());
                for (st, (port, want_targets, inj, links, ej)) in streams.iter().zip(pinned) {
                    let mut want_hops = vec![(inj, 0)];
                    want_hops.extend(links.iter().map(|&l| (l, vc)));
                    want_hops.push((ej, 0));
                    let got_hops: Vec<(u32, u8)> =
                        st.path.hops.iter().map(|h| (h.channel.0, h.vc.0)).collect();
                    let got_targets: Vec<u32> = st.targets.iter().map(|t| t.0).collect();
                    assert_eq!(st.port.0, port, "{} {spec}", topo.name());
                    assert_eq!(got_targets, want_targets, "{} {spec}", topo.name());
                    assert_eq!(got_hops, want_hops, "{} {spec}", topo.name());
                    topo.network().validate_path(&st.path).unwrap();
                }
            }
        }
    }

    #[test]
    fn order_walks_ride_the_top_virtual_channel_monotonically() {
        let q = Quarc::new(16).unwrap();
        let src = NodeId(4);
        let targets = [NodeId(7), NodeId(11), NodeId(2)];
        for spec in [RoutingSpec::DualPath, RoutingSpec::Multipath] {
            for st in spec.streams(&q, src, &targets) {
                let mut prev = q.linear_label(src);
                let up = q.linear_label(st.targets[0]) > prev;
                for hop in &st.path.hops[1..st.path.hops.len() - 1] {
                    let ch = q.network().channel(hop.channel);
                    assert_eq!(hop.vc.0, ch.vcs - 1, "{spec}: top VC");
                    assert!(!ch.dateline, "{spec}: the walk never wraps");
                    let next = q.linear_label(ch.to);
                    assert_eq!(
                        next,
                        if up { prev + 1 } else { prev - 1 },
                        "{spec}: label-adjacent monotone walk"
                    );
                    prev = next;
                }
            }
        }
    }

    #[test]
    fn unicast_tree_is_one_plain_unicast_per_destination() {
        let q = Quarc::new(16).unwrap();
        let targets = [NodeId(3), NodeId(8), NodeId(12)];
        let streams = RoutingSpec::UnicastTree.streams(&q, NodeId(0), &targets);
        assert_eq!(streams.len(), 3);
        for (st, &t) in streams.iter().zip(&targets) {
            assert_eq!(st.targets, vec![t]);
            assert_eq!(st.path, q.unicast_path(NodeId(0), t));
        }
    }

    #[test]
    fn validation_rejects_unrealizable_schemes() {
        // One-port topologies cannot run concurrent-stream schemes.
        for spec in [RoutingSpec::DualPath, RoutingSpec::Multipath] {
            assert_eq!(
                spec.validate(16, 1, true),
                Err(RoutingError::SingleInjectionPort {
                    scheme: spec.code(),
                    ports: 1
                })
            );
        }
        // The always-realizable schemes accept one port.
        assert_eq!(RoutingSpec::PathBased.validate(16, 1, true), Ok(()));
        assert_eq!(RoutingSpec::UnicastTree.validate(16, 1, true), Ok(()));
        // Nothing routes on a single node.
        for spec in ALL_ROUTINGS {
            assert!(matches!(
                spec.validate(1, 4, true),
                Err(RoutingError::TooFewNodes { .. })
            ));
        }
        // Errors display their scheme code.
        let err = RoutingSpec::Multipath.validate(16, 1, true).unwrap_err();
        assert!(err.to_string().contains("multipath"), "{err}");
    }

    #[test]
    fn order_walking_schemes_require_a_linear_order() {
        // Multistage/hierarchical topologies have no Hamiltonian order;
        // the order-walking schemes reject them at validation time.
        for spec in [RoutingSpec::DualPath, RoutingSpec::Multipath] {
            assert_eq!(
                spec.validate(64, 4, false),
                Err(RoutingError::NoLinearOrder {
                    scheme: spec.code()
                })
            );
            let err = spec.validate(64, 4, false).unwrap_err();
            assert!(err.to_string().contains(spec.code()), "{err}");
        }
        // The non-walking schemes do not care.
        assert_eq!(RoutingSpec::PathBased.validate(64, 4, false), Ok(()));
        assert_eq!(RoutingSpec::UnicastTree.validate(64, 4, false), Ok(()));
    }

    #[test]
    fn default_is_path_based_and_codes_are_stable() {
        assert_eq!(RoutingSpec::default(), RoutingSpec::PathBased);
        assert!(RoutingSpec::PathBased.model_applicable());
        assert!(RoutingSpec::DualPath.model_applicable());
        assert!(!RoutingSpec::Multipath.model_applicable());
        assert!(!RoutingSpec::UnicastTree.model_applicable());
        let codes: Vec<_> = ALL_ROUTINGS.iter().map(|s| s.code()).collect();
        assert_eq!(codes, ["path", "dual-path", "multipath", "unicast"]);
    }

    #[test]
    fn specs_serialize_round_trip() {
        for spec in ALL_ROUTINGS {
            let json = serde::json::to_string_pretty(&spec);
            let back: RoutingSpec = serde::json::from_str(&json).expect("round trip parses");
            assert_eq!(spec, back);
        }
    }
}
