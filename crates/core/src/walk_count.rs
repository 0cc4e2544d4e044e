//! Exact-count test that a sweep is one route walk: a delegating
//! [`Topology`] that counts the route constructions asked of it.

use crate::backend::ALL_BACKENDS;
use crate::options::ModelOptions;
use crate::rates::RoutedLoads;
use noc_topology::{
    ChannelId, MulticastStream, Network, NodeId, Path, PortId, Topology, TopologySpec,
};
use noc_workloads::{DestinationSets, UnicastPattern, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `inner`, counting its route constructions; `translate` is forwarded
/// only when `translates`, so a wrapper without it forces the walk of
/// every pair's route.
pub(crate) struct Counting<'a> {
    inner: &'a dyn Topology,
    translates: bool,
    unicast_paths: AtomicUsize,
    stream_builds: AtomicUsize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn Topology) -> Self {
        Counting {
            inner,
            translates: true,
            unicast_paths: AtomicUsize::new(0),
            stream_builds: AtomicUsize::new(0),
        }
    }

    /// `inner` without its symmetry: every walk over it routes every pair.
    pub(crate) fn all_pairs(inner: &'a dyn Topology) -> Self {
        Counting {
            translates: false,
            ..Counting::new(inner)
        }
    }

    /// `(unicast_path calls, multicast_streams calls)` since the last take.
    fn take(&self) -> (usize, usize) {
        (
            self.unicast_paths.swap(0, Ordering::Relaxed),
            self.stream_builds.swap(0, Ordering::Relaxed),
        )
    }
}

impl Topology for Counting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn network(&self) -> &Network {
        self.inner.network()
    }
    fn port_for(&self, src: NodeId, dst: NodeId) -> PortId {
        self.inner.port_for(src, dst)
    }
    fn unicast_path(&self, src: NodeId, dst: NodeId) -> Path {
        self.unicast_paths.fetch_add(1, Ordering::Relaxed);
        self.inner.unicast_path(src, dst)
    }
    fn quadrant(&self, src: NodeId, port: PortId) -> Vec<NodeId> {
        self.inner.quadrant(src, port)
    }
    fn multicast_streams(&self, src: NodeId, targets: &[NodeId]) -> Vec<MulticastStream> {
        self.stream_builds.fetch_add(1, Ordering::Relaxed);
        self.inner.multicast_streams(src, targets)
    }
    fn diameter(&self) -> usize {
        self.inner.diameter()
    }
    fn linear_label(&self, node: NodeId) -> usize {
        self.inner.linear_label(node)
    }
    fn has_linear_order(&self) -> bool {
        self.inner.has_linear_order()
    }
    fn concurrent_multicast(&self) -> bool {
        self.inner.concurrent_multicast()
    }
    fn translate(&self, c: ChannelId, by: NodeId) -> Option<ChannelId> {
        self.inner.translate(c, by).filter(|_| self.translates)
    }
}

#[test]
fn an_evaluation_walks_every_route_once() {
    let opts = ModelOptions::default();
    for spec in ["quarc-16", "mesh-4x4"] {
        let topo = TopologySpec::parse(spec).unwrap().build().unwrap();
        let n = topo.num_nodes();
        let counting = Counting::new(topo.as_ref());
        let hot_spot = UnicastPattern::HotSpot {
            node: NodeId(3),
            fraction: 0.3,
        };
        // A pattern with zero weights too, so "positive-weight pair" is
        // not just "pair".
        for pattern in [UnicastPattern::Uniform, hot_spot, UnicastPattern::Transpose] {
            let pairs = (0..n)
                .flat_map(|s| (0..n).map(move |d| (NodeId(s as u32), NodeId(d as u32))))
                .filter(|&(s, d)| s != d && pattern.weight(n, s, d) > 0.0)
                .count();
            // Uniform destinations on the rotation-symmetric Quarc route
            // node 0's destinations only; the mesh has no symmetry to map
            // them by.
            let routes = match (spec, pattern) {
                ("quarc-16", UnicastPattern::Uniform) => n - 1,
                _ => pairs,
            };
            for alpha in [0.0, 0.05] {
                // Path-based streams are the topology's own (`PathBased`
                // delegates to `Topology::multicast_streams`). Every node
                // has a destination set, and its streams are kept for the
                // multicast latency whether or not they carry load.
                let sets = DestinationSets::random(topo.as_ref(), n / 4, 42);
                let mut proto = Workload::new(32, 1e-5, alpha, sets).unwrap();
                proto.unicast_pattern = pattern;
                let case = format!("{spec}/{pattern:?}/alpha {alpha}");

                // A sweep: one table under one search plus eight
                // evaluations on each backend. The table is the walk.
                let routed = RoutedLoads::walk(&counting, &proto, &opts).unwrap();
                assert_eq!(counting.take(), (routes, n), "{case}: walk");
                for backend in ALL_BACKENDS {
                    let horizon = backend.backend().max_rate_over(&routed, 0.01);
                    assert!(horizon > 0.0, "{case}/{backend}");
                    assert_eq!(counting.take(), (0, 0), "{case}/{backend}: search");
                    for point in 1..=8 {
                        let rate = 0.1 * point as f64 * horizon;
                        backend.backend().evaluate_over(&routed, rate).unwrap();
                        assert_eq!(counting.take(), (0, 0), "{case}/{backend}: point {point}");
                    }
                }

                // Asked without a table, each question is one walk.
                for backend in ALL_BACKENDS {
                    let case = format!("{case}/{backend}");
                    let backend = backend.backend();
                    let horizon = backend.max_sustainable_rate(&counting, &proto, &opts, 0.01);
                    assert_eq!(counting.take(), (routes, n), "{case}: search");
                    let wl = proto.at_rate(0.5 * horizon).unwrap();
                    backend.evaluate(&counting, &wl, &opts).unwrap();
                    assert_eq!(counting.take(), (routes, n), "{case}: evaluate");
                }
            }
        }
    }
}
