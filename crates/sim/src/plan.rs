//! Precomputed simulation tables shared by both engines and across runs.
//!
//! Building a simulator used to recompute every unicast path and multicast
//! stream (O(n²) allocations) per run; rate sweeps and benches construct a
//! simulator per operating point, so that cost dominated short runs. A
//! [`SimPlan`] captures everything that depends only on `(topology,
//! destination sets, routing scheme)` — channel/vc layout, unicast path
//! table, per-scheme multicast streams with absorb schedules — behind an
//! `Arc` so many runs (and both engines of a differential pair) share one
//! copy. Both engines replay the plan's stream tables verbatim, which is
//! what makes engine bit-equivalence hold per routing scheme for free.
//!
//! ## Dense vs. lazy tables
//!
//! For the materialized legacy topologies the plan eagerly builds the
//! `n × n` unicast path table and every node's streams — bit-for-bit the
//! historical behaviour. For **implicit** topologies (MIN, clustered) an
//! `n × n` table would be exactly the memory wall the implicit channel
//! storage removed, so the plan turns *lazy*: it keeps a shared handle to
//! the topology ([`Topology::share`]) and computes unicast paths on
//! demand and per-source streams memoized behind `OnceLock` — a 64k-node
//! plan allocates O(n) slots, not O(n²) paths. The accessor surface is
//! identical either way, and the differential suite checks the lazily
//! computed tables against a force-materialized oracle plan bit-for-bit.
//!
//! The split is a measured trade, selected by what the code can observe
//! (`Network::is_implicit`), with a benchmark workload on each side
//! (`scale-64k` lazy, the other five dense). Forcing every plan lazy
//! (2-vCPU Xeon VM, `--seed 42`, 5 s alternating pairs, digests identical,
//! no failed operation) costs `sat-kernel` 0.457 → 0.480 s wall (+5.1 %,
//! slower in 6/6 pairs; a fresh `Arc<Path>` per unicast) and
//! `lowload-skip` 0.273 → 0.278 s (4/4), while peak RSS falls 7.7 → 5.3
//! (`sat-kernel`), 10.0 → 6.6 (`fig6-sweep`) and 10.1 → 4.9 MiB
//! (`lowload-skip`): the `n × n` `Arc<Path>` table is a third to a half
//! of a legacy run's resident memory. Recycling route and counter
//! buffers per arena slot on top of that still leaves `sat-kernel`
//! +1.9 % (5/6) and `lowload-skip` +3.6 % (3/3), and raises `scale-64k`
//! peak RSS 48.6 → 50.6 MiB. So the dense table stays, as the measured
//! cache it is.

use crate::message::{absorb_schedule, AbsorbSchedule};
use noc_topology::{ChannelId, Hop, NodeId, Path, RoutingError, Topology};
use noc_workloads::{PatternError, TrafficError, Workload};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Why a [`SimPlan`] could not be built from a `(topology, workload)`
/// pair. Facade users get these as typed errors instead of panics; the
/// experiment layer folds them into `noc_bench::Error`.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// The topology has fewer than two nodes — nothing to route.
    TooFewNodes(usize),
    /// The workload's unicast pattern does not fit the topology.
    Pattern(PatternError),
    /// The workload's routing scheme is not realizable on the topology.
    Routing(RoutingError),
    /// The workload's traffic spec does not fit the topology.
    Traffic(TrafficError),
    /// A node has an empty multicast destination set while the workload's
    /// multicast fraction is positive.
    EmptyMulticastSet {
        /// The offending node index.
        node: usize,
    },
    /// A physical channel multiplexes more virtual channels than the
    /// kernel's per-channel masks have bits ([`SimPlan::MAX_VCS`]).
    TooManyVcs {
        /// The offending channel index.
        channel: usize,
        /// Its virtual-channel count.
        vcs: u8,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooFewNodes(n) => {
                write!(f, "need at least two nodes to simulate, got {n}")
            }
            PlanError::Pattern(e) => write!(f, "unicast pattern does not fit the topology: {e}"),
            PlanError::Routing(e) => {
                write!(f, "routing scheme is not realizable on the topology: {e}")
            }
            PlanError::Traffic(e) => write!(f, "traffic spec does not fit the topology: {e}"),
            PlanError::EmptyMulticastSet { node } => {
                write!(f, "node {node} has an empty multicast set but alpha > 0")
            }
            PlanError::TooManyVcs { channel, vcs } => write!(
                f,
                "channel {channel} has {vcs} virtual channels, the simulator handles at most {}",
                SimPlan::MAX_VCS
            ),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Pattern(e) => Some(e),
            PlanError::Routing(e) => Some(e),
            PlanError::Traffic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PatternError> for PlanError {
    fn from(e: PatternError) -> Self {
        PlanError::Pattern(e)
    }
}

impl From<RoutingError> for PlanError {
    fn from(e: RoutingError) -> Self {
        PlanError::Routing(e)
    }
}

impl From<TrafficError> for PlanError {
    fn from(e: TrafficError) -> Self {
        PlanError::Traffic(e)
    }
}

/// Precomputed multicast stream for one source node.
#[derive(Clone, Debug)]
pub(crate) struct PreStream {
    pub(crate) path: Arc<Path>,
    pub(crate) absorbs: AbsorbSchedule,
}

/// The plan's path/stream storage: eagerly materialized for dense
/// topologies, memoized-on-demand for implicit ones.
enum Tables {
    /// Eager `n × n` tables (the historical representation, bit-for-bit).
    Dense {
        /// Precomputed unicast paths, `src * n + dst` (None on the
        /// diagonal).
        unicast_paths: Vec<Option<Arc<Path>>>,
        /// Precomputed multicast streams per source node.
        streams: Vec<Vec<PreStream>>,
        /// Total targets per multicast operation per node.
        op_targets: Vec<u32>,
    },
    /// On-demand computation against a shared topology handle.
    Lazy {
        topo: Arc<dyn Topology>,
        wl: Workload,
        /// Per-source stream tables, computed at most once each.
        streams: Vec<OnceLock<Box<[PreStream]>>>,
        /// Total targets per multicast operation per node (cheap to
        /// derive from the destination sets, so kept eager).
        op_targets: Vec<u32>,
    },
}

impl fmt::Debug for Tables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tables::Dense { streams, .. } => f
                .debug_struct("Tables::Dense")
                .field("nodes", &streams.len())
                .finish(),
            Tables::Lazy { topo, streams, .. } => f
                .debug_struct("Tables::Lazy")
                .field("topology", &topo.name())
                .field("nodes", &streams.len())
                .finish(),
        }
    }
}

/// Static simulation tables for one `(topology, destination sets,
/// routing scheme)` triple.
///
/// Independent of the generation rate, the seed and the engine, so one
/// plan serves a whole rate sweep and both engines of a differential run.
#[derive(Debug)]
pub struct SimPlan {
    pub(crate) n: usize,
    pub(crate) num_channels: usize,
    pub(crate) num_cvs: usize,
    /// First cv index of each channel.
    pub(crate) cv_base: Vec<u32>,
    /// Virtual-channel count per channel.
    pub(crate) vcs: Vec<u8>,
    tables: Tables,
}

/// Compute one node's streams with their absorb schedules (shared by the
/// dense build and the lazy memoization — same code, same bits).
fn build_streams(topo: &dyn Topology, wl: &Workload, src: NodeId) -> Vec<PreStream> {
    let net = topo.network();
    let set = wl.multicast_set(src);
    let mut pre = Vec::new();
    if !set.is_empty() {
        for st in wl.routing.streams(topo, src, set) {
            debug_assert!(net.validate_path(&st.path).is_ok());
            let absorbs = absorb_schedule(&st.path, &st.targets, |c| net.downstream(c));
            pre.push(PreStream {
                path: Arc::new(st.path),
                absorbs,
            });
        }
    }
    pre
}

impl SimPlan {
    /// Most virtual channels one physical channel may multiplex: the
    /// kernel keeps a channel's owned and ready cvs as one bit each of a
    /// `u8`.
    pub const MAX_VCS: u8 = 8;

    /// Build the plan for `topo` under `wl`'s destination sets.
    ///
    /// Returns a typed [`PlanError`] if the topology has fewer than two
    /// nodes, if the workload's unicast pattern, traffic spec or routing
    /// scheme does not fit it, if `wl` has a positive multicast
    /// fraction but an empty destination set on some node, or if a
    /// channel has more than [`SimPlan::MAX_VCS`] virtual channels. (The
    /// experiment layer surfaces the same conditions before any plan is
    /// built; the engine constructors panic on them for test ergonomics.)
    pub fn build(topo: &dyn Topology, wl: &Workload) -> Result<Arc<Self>, PlanError> {
        let net = topo.network();
        let n = net.num_nodes();
        if n < 2 {
            return Err(PlanError::TooFewNodes(n));
        }
        wl.unicast_pattern.validate(n)?;
        wl.routing
            .validate(n, net.ports_per_node(), topo.has_linear_order())?;
        // Shape-only (rate 0.0): the plan is generation-rate independent
        // by contract — it is built once from a placeholder-rate
        // prototype and shared across every swept rate. The engines'
        // stream construction re-validates against the actual rate.
        wl.traffic.validate(n, 0.0)?;
        if wl.multicast_fraction > 0.0 {
            for i in 0..n {
                if wl.multicast_set(NodeId(i as u32)).is_empty() {
                    return Err(PlanError::EmptyMulticastSet { node: i });
                }
            }
        }

        let mut cv_base = Vec::with_capacity(net.num_channels());
        let mut vcs = Vec::with_capacity(net.num_channels());
        let mut acc = 0u32;
        for id in 0..net.num_channels() as u32 {
            let v = net.vcs_of(ChannelId(id));
            if v > Self::MAX_VCS {
                return Err(PlanError::TooManyVcs {
                    channel: id as usize,
                    vcs: v,
                });
            }
            cv_base.push(acc);
            vcs.push(v);
            acc += v as u32;
        }
        let num_cvs = acc as usize;

        let tables = if net.is_implicit() {
            let topo = topo
                .share()
                .expect("implicit topologies must implement Topology::share");
            // Streams partition the sanitized destination set, so the
            // per-op target count is derivable without building them.
            let op_targets = (0..n)
                .map(|s| {
                    let src = NodeId(s as u32);
                    wl.multicast_set(src).iter().filter(|&&t| t != src).count() as u32
                })
                .collect();
            Tables::Lazy {
                topo,
                wl: wl.clone(),
                streams: (0..n).map(|_| OnceLock::new()).collect(),
                op_targets,
            }
        } else {
            let mut unicast_paths: Vec<Option<Arc<Path>>> = vec![None; n * n];
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        let p = topo.unicast_path(NodeId(s as u32), NodeId(d as u32));
                        debug_assert!(net.validate_path(&p).is_ok());
                        unicast_paths[s * n + d] = Some(Arc::new(p));
                    }
                }
            }
            let mut streams: Vec<Vec<PreStream>> = Vec::with_capacity(n);
            let mut op_targets = Vec::with_capacity(n);
            for s in 0..n {
                let pre = build_streams(topo, wl, NodeId(s as u32));
                op_targets.push(pre.iter().map(|p| p.absorbs.len() as u32).sum());
                streams.push(pre);
            }
            Tables::Dense {
                unicast_paths,
                streams,
                op_targets,
            }
        };

        Ok(Arc::new(SimPlan {
            n,
            num_channels: net.num_channels(),
            num_cvs,
            cv_base,
            vcs,
            tables,
        }))
    }

    /// Number of nodes in the planned network.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// `true` when stream/path tables are computed on demand (implicit
    /// topology) instead of materialized up front.
    pub fn is_lazy(&self) -> bool {
        matches!(self.tables, Tables::Lazy { .. })
    }

    /// The multicast streams of `node` (computed and memoized on first
    /// access for lazy plans).
    pub(crate) fn streams(&self, node: usize) -> &[PreStream] {
        match &self.tables {
            Tables::Dense { streams, .. } => &streams[node],
            Tables::Lazy {
                topo, wl, streams, ..
            } => streams[node]
                .get_or_init(|| build_streams(topo.as_ref(), wl, NodeId(node as u32)).into()),
        }
    }

    /// Total targets per multicast operation of `node`.
    #[inline]
    pub(crate) fn op_targets(&self, node: usize) -> u32 {
        match &self.tables {
            Tables::Dense { op_targets, .. } | Tables::Lazy { op_targets, .. } => op_targets[node],
        }
    }

    /// Per-node multicast fan-out (total targets per operation).
    pub(crate) fn fanout_table(&self) -> &[u32] {
        match &self.tables {
            Tables::Dense { op_targets, .. } | Tables::Lazy { op_targets, .. } => op_targets,
        }
    }

    /// Capacity hint for message arenas: one full multicast spawn wave
    /// (every node firing its configured operation at once) plus a
    /// unicast per node — live-message counts rarely exceed this outside
    /// deep saturation. Lazy plans answer O(n) without forcing stream
    /// computation.
    pub(crate) fn spawn_wave_hint(&self) -> usize {
        match &self.tables {
            Tables::Dense { streams, .. } => streams.iter().map(|s| s.len().max(1)).sum(),
            Tables::Lazy { .. } => self.n,
        }
    }

    /// The cv (channel × virtual-channel) resource index of a hop.
    #[inline]
    pub(crate) fn cv_index(&self, hop: Hop) -> u32 {
        self.cv_base[hop.channel.idx()] + hop.vc.0 as u32
    }

    /// Guard against pairing a plan with a foreign topology or workload:
    /// a mismatched plan would index out of range (or worse, allocate
    /// multicast ops that can never complete). Cheap — run at engine
    /// construction.
    pub(crate) fn assert_matches(&self, topo: &dyn Topology, wl: &Workload) {
        assert_eq!(
            self.n,
            topo.network().num_nodes(),
            "SimPlan was built for a different topology"
        );
        assert_eq!(
            self.num_channels,
            topo.network().num_channels(),
            "SimPlan was built for a different channel graph"
        );
        if wl.multicast_fraction > 0.0 {
            for node in 0..self.n {
                assert!(
                    self.op_targets(node) > 0,
                    "SimPlan has no multicast streams for node {node} but alpha > 0"
                );
            }
        }
    }

    /// The unicast path `src → dst` (panics on the diagonal): a shared
    /// table entry for dense plans, a fresh on-demand computation for
    /// lazy ones.
    #[inline]
    pub fn unicast_path(&self, src: NodeId, dst: NodeId) -> Arc<Path> {
        match &self.tables {
            Tables::Dense { unicast_paths, .. } => Arc::clone(
                unicast_paths[src.idx() * self.n + dst.idx()]
                    .as_ref()
                    .expect("off-diagonal path exists"),
            ),
            Tables::Lazy { topo, .. } => Arc::new(topo.unicast_path(src, dst)),
        }
    }

    /// Owned snapshot of `node`'s stream table — each stream's path and
    /// absorb schedule `(link index, absorbing node)` in visit order.
    /// Diagnostic/test surface; the differential suite uses it to compare
    /// lazy tables against the materialized oracle.
    pub fn streams_snapshot(&self, node: NodeId) -> Vec<(Path, Vec<(u16, NodeId)>)> {
        self.streams(node.idx())
            .iter()
            .map(|pre| ((*pre.path).clone(), pre.absorbs.to_vec()))
            .collect()
    }

    /// Total targets per multicast operation of `node` (public mirror of
    /// the engine-side accessor, for tests and diagnostics).
    pub fn op_target_count(&self, node: NodeId) -> u32 {
        self.op_targets(node.idx())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{Channel, Min, MulticastStream, Network, PortId, Quarc};
    use noc_workloads::DestinationSets;

    #[test]
    fn plan_tables_cover_the_network() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
        let plan = SimPlan::build(&topo, &wl).unwrap();
        assert_eq!(plan.num_nodes(), 16);
        assert!(!plan.is_lazy());
        assert_eq!(plan.cv_base.len(), plan.num_channels);
        assert_eq!(plan.vcs.len(), plan.num_channels);
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s != d {
                    assert_eq!(plan.unicast_path(NodeId(s), NodeId(d)).src, NodeId(s));
                }
            }
        }
        for node in 0..16 {
            assert!(!plan.streams(node).is_empty());
            assert_eq!(plan.op_targets(node), 4);
        }
        assert_eq!(plan.fanout_table(), vec![4; 16]);
    }

    #[test]
    fn plan_builds_per_scheme_stream_tables() {
        use noc_workloads::RoutingSpec;
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
        for spec in noc_topology::ALL_ROUTINGS {
            let plan = SimPlan::build(&topo, &wl.clone().with_routing(spec)).unwrap();
            for node in 0..16 {
                assert_eq!(plan.op_targets(node), 4, "{spec}: all targets scheduled");
                if spec == RoutingSpec::UnicastTree {
                    assert_eq!(plan.streams(node).len(), 4, "one stream per destination");
                }
            }
        }
    }

    #[test]
    fn plan_rejects_unrealizable_routing() {
        use noc_topology::Spidergon;
        let topo = Spidergon::new(8).unwrap();
        let sets = DestinationSets::random(&topo, 2, 1);
        let wl = Workload::new(16, 0.01, 0.1, sets)
            .unwrap()
            .with_routing(noc_workloads::RoutingSpec::Multipath);
        let err = SimPlan::build(&topo, &wl).unwrap_err();
        assert!(matches!(err, PlanError::Routing(_)), "got {err:?}");
        assert!(err.to_string().contains("not realizable"));
    }

    #[test]
    fn plan_rejects_alpha_with_empty_sets() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::explicit(vec![Vec::new(); 16]);
        let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
        let err = SimPlan::build(&topo, &wl).unwrap_err();
        assert_eq!(err, PlanError::EmptyMulticastSet { node: 0 });
        assert!(err.to_string().contains("empty multicast set"));
    }

    /// Two nodes joined by one link each way, every link carrying `vcs`
    /// virtual channels of which routes use the last.
    struct Pair {
        net: Network,
        vcs: u8,
    }

    impl Pair {
        fn new(vcs: u8) -> Self {
            let (a, b, p) = (NodeId(0), NodeId(1), PortId(0));
            let channels = vec![
                Channel::injection(ChannelId(0), a, p, "inj 0"),
                Channel::injection(ChannelId(1), b, p, "inj 1"),
                Channel::ejection(ChannelId(2), a, p, "ej 0"),
                Channel::ejection(ChannelId(3), b, p, "ej 1"),
                Channel::link(ChannelId(4), a, b, p, vcs, false, "0->1"),
                Channel::link(ChannelId(5), b, a, p, vcs, false, "1->0"),
            ];
            let inj = vec![ChannelId(0), ChannelId(1)];
            let ej = vec![ChannelId(2), ChannelId(3)];
            Pair {
                net: Network::new(2, 1, channels, inj, ej),
                vcs,
            }
        }
    }

    impl Topology for Pair {
        fn name(&self) -> &str {
            "pair"
        }
        fn network(&self) -> &Network {
            &self.net
        }
        fn port_for(&self, _: NodeId, _: NodeId) -> PortId {
            PortId(0)
        }
        fn unicast_path(&self, src: NodeId, dst: NodeId) -> Path {
            let hops = vec![
                Hop::new(ChannelId(src.0), 0),
                Hop::new(ChannelId(4 + src.0), self.vcs - 1),
                Hop::new(ChannelId(2 + dst.0), 0),
            ];
            Path {
                src,
                dst,
                port: PortId(0),
                hops,
            }
        }
        fn quadrant(&self, src: NodeId, _: PortId) -> Vec<NodeId> {
            vec![NodeId(1 - src.0)]
        }
        fn multicast_streams(&self, src: NodeId, targets: &[NodeId]) -> Vec<MulticastStream> {
            vec![MulticastStream {
                port: PortId(0),
                path: self.unicast_path(src, targets[0]),
                targets: targets.to_vec(),
            }]
        }
        fn diameter(&self) -> usize {
            1
        }
    }

    #[test]
    fn plan_rejects_a_channel_with_more_vcs_than_mask_bits() {
        let sets = DestinationSets::explicit(vec![vec![NodeId(1)], vec![NodeId(0)]]);
        let wl = Workload::new(4, 0.05, 0.2, sets).unwrap();
        let err = SimPlan::build(&Pair::new(9), &wl).unwrap_err();
        assert_eq!(err, PlanError::TooManyVcs { channel: 4, vcs: 9 });
        assert!(err.to_string().contains("at most 8"), "{err}");

        // One fewer is the widest channel the masks hold: it plans, and a
        // run on its last vc (the masks' top bit) audits clean.
        let widest = Pair::new(SimPlan::MAX_VCS);
        let plan = SimPlan::build(&widest, &wl).expect("8 vcs fit");
        let cfg = crate::SimConfig::quick(3);
        let mut sim = crate::build_engine_with_plan(&widest, &wl, cfg, plan);
        let res = sim.run();
        assert!(res.complete() && res.flit_moves > 0);
        sim.audit().expect("post-run audit");
    }

    #[test]
    fn implicit_topologies_build_lazy_plans_that_match_the_oracle() {
        let implicit = Min::new(2, 3).unwrap();
        let oracle = Min::materialized(2, 3).unwrap();
        let sets = DestinationSets::random(&implicit, 3, 7);
        let wl = Workload::new(16, 0.01, 0.2, sets).unwrap();
        let lazy = SimPlan::build(&implicit, &wl).unwrap();
        let dense = SimPlan::build(&oracle, &wl).unwrap();
        assert!(lazy.is_lazy());
        assert!(!dense.is_lazy());
        assert_eq!(lazy.num_channels, dense.num_channels);
        assert_eq!(lazy.num_cvs, dense.num_cvs);
        assert_eq!(lazy.cv_base, dense.cv_base);
        assert_eq!(lazy.vcs, dense.vcs);
        for node in 0..8u32 {
            let node = NodeId(node);
            assert_eq!(lazy.op_target_count(node), dense.op_target_count(node));
            assert_eq!(lazy.streams_snapshot(node), dense.streams_snapshot(node));
            for d in 0..8u32 {
                let d = NodeId(d);
                if node != d {
                    assert_eq!(*lazy.unicast_path(node, d), *dense.unicast_path(node, d));
                }
            }
        }
    }
}
