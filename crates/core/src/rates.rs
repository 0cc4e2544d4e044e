//! The one route walk: how a [`Workload`] becomes routes on a
//! [`Topology`], and everything the model folds over those routes.
//!
//! Nothing else in this crate enumerates routes. [`RoutedLoads::walk`]
//! walks every deterministic route once, at a reference generation rate:
//!
//! * each unicast pair `(s, d)` carries `(1 − α)·λ_g·w(s, d)`, `w` the
//!   destination pattern's weight (`1/(N − 1)` when uniform). Uniform
//!   destinations on a topology that answers [`Topology::translate`]
//!   (Quarc, ring, Spidergon, torus, hypercube) route node 0's `N − 1`
//!   destinations only and map them onto every other source; a
//!   permutation routes each source's partner; hot-spot traffic, and
//!   uniform traffic on the mesh or a topology without a symmetry, route
//!   all `N(N − 1)` pairs;
//! * each multicast stream of node `s` — constructed by the workload's
//!   routing scheme (`RoutingSpec`, the paper's path-based BRCP by
//!   default; `multicast_streams` is the one place that asks it) —
//!   carries `α·λ_g` (the transceiver emits one packet per stream per
//!   operation; under the unicast baseline that is one packet per
//!   destination).
//!
//! Nothing in a route depends on `λ_g`, so one walk serves every rate of
//! a sweep: [`RoutedLoads::at`] answers with the [`ChannelLoads`] at a
//! rate — per channel `j` the aggregate arrival rate `λ_j` and per
//! ordered channel pair the rate `λ_{i→j}` of traffic that traverses `i`
//! immediately before `j` (the successor graph of Eq. 6), both the
//! reference walk's rescaled, and the aggregate burst `σ_j` of the
//! calculus bounds, rebuilt from the channels each source's routes cross
//! because the source envelopes read the rate. The table also keeps what
//! the assembler (`crate::model::assemble`) reads whatever the rate:
//! every source's streams, and the unicast pattern weight crossing every
//! edge and entering at every injection channel, which turn the
//! network-average unicast latency into a dot product with the solved
//! per-hop waits instead of a second walk.
//!
//! ## Layout
//!
//! Every per-edge table is one [`FlatLists`]: an offsets array and an
//! entries array, channel by channel. The walk grows its edge lists as
//! chains through one flat array and lays them out once it is done, so
//! a walk allocates per table, not per route or per channel; [`at`] and
//! the saturation probes rescale two flat arrays. Each edge a unicast
//! route or a stream hop takes is recorded with its position in the
//! successor table, so the assembler reads the edge's rate-dependent
//! terms by index, never by search. What does not change with the rate
//! is computed once per walk: the routes, those positions, and — on first
//! use, shared by every probe and evaluation — the order in which the
//! holding solve visits the channels (`service::components`), valid at
//! every rate that leaves the same channels loaded.
//!
//! [`at`]: RoutedLoads::at

use crate::model::ModelError;
use crate::options::ModelOptions;
use crate::saturation::bisect_max_rate;
use crate::service::{self, Holding, WaitTerm};
use noc_queueing::fixed_point::Components;
use noc_queueing::network_calculus::{onoff_burstiness, trace_burstiness};
use noc_topology::{ChannelId, ChannelKind, MulticastStream, Network, NodeId, Topology};
use noc_workloads::{TrafficSpec, UnicastPattern, Workload};
use std::borrow::Cow;
use std::ops::{Index, Range};
use std::sync::OnceLock;

/// Lists laid out flat, one row per owner: row `i` is
/// `entries[offsets[i]..offsets[i + 1]]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatLists<T> {
    offsets: Vec<u32>,
    entries: Vec<T>,
}

/// A successor table: for each channel, the `(next_channel, value)` pairs
/// of the edges that leave it.
pub type Successors = FlatLists<(ChannelId, f64)>;

impl<T> FlatLists<T> {
    fn new() -> Self {
        FlatLists {
            offsets: vec![0],
            entries: Vec::new(),
        }
    }

    /// Close a row: the entries pushed since the last one.
    fn end_row(&mut self) {
        self.offsets.push(self.entries.len() as u32);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where row `i` lies in [`entries`](Self::entries).
    pub(crate) fn range(&self, i: usize) -> Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Every row's entries, row by row.
    pub(crate) fn entries(&self) -> &[T] {
        &self.entries
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.len()).map(|i| &self[i])
    }
}

impl<T> Index<usize> for FlatLists<T> {
    type Output = [T];

    fn index(&self, i: usize) -> &[T] {
        &self.entries[self.range(i)]
    }
}

impl Successors {
    /// Where the edge `i → j` lies in [`entries`](Self::entries), if the
    /// table has it.
    pub(crate) fn find(&self, i: ChannelId, j: ChannelId) -> Option<usize> {
        let row = self.range(i.idx());
        let k = self.entries[row.clone()].iter().position(|&(c, _)| c == j);
        k.map(|k| row.start + k)
    }
}

/// Channel loads of a routed workload at one generation rate.
#[derive(Clone, Debug)]
pub struct ChannelLoads {
    /// Aggregate arrival rate per channel (indexed by `ChannelId`).
    pub lambda: Vec<f64>,
    /// Successor decomposition: for each channel, the `(next_channel,
    /// rate)` pairs its traffic continues on.
    pub successors: Successors,
    /// Aggregate worst-case burst `σ_j` per channel, in flits: a burst of
    /// one source's messages can all take routes crossing `j`, each
    /// appearing there once as a unicast and once per stream crossing `j`
    /// as a multicast (streams of one operation share prefix links under
    /// multipath and the injection port under the unicast baseline); a
    /// source sending both classes counts the larger. Read by the
    /// calculus bounds only, and not linear in the generation rate.
    pub sigma: Vec<f64>,
}

/// Not an entry: the end of a chain, or an edge no loaded traffic takes
/// (the successor table has no entry for it).
pub(crate) const NONE: u32 = u32::MAX;

/// An edge unicast routes take.
pub(crate) struct UnicastEdge {
    /// The channel it enters.
    pub(crate) to: ChannelId,
    /// `u_{i→j} = Σ_{(s,d) ∋ i→j} w(s,d)`, the pattern weight moving along
    /// it.
    pub(crate) weight: f64,
    /// Its entry in the successor table, `NONE` when nothing unicast is
    /// loaded and no stream takes it.
    pub(crate) edge: u32,
}

/// The routes of a workload on a topology, walked once: the table a
/// saturation search and every evaluation of a sweep read instead of
/// walking (see the module docs). Rate-independent; [`at`](Self::at)
/// is the loads at a rate.
pub struct RoutedLoads<'a> {
    /// The topology the routes were walked on.
    pub(crate) topo: &'a dyn Topology,
    /// The workload that was routed; its generation rate is not part of
    /// the table.
    pub(crate) wl: &'a Workload,
    /// The options the walk was made under.
    pub(crate) opts: ModelOptions,
    /// `λ` and the successor rates at `REFERENCE_RATE`; no bursts.
    reference: ChannelLoads,
    /// For each channel, the edges its unicast routes continue on.
    pub(crate) unicast_edges: FlatLists<UnicastEdge>,
    /// Unicast pattern weight of the pairs that enter the network at each
    /// channel (positive on injection channels only).
    pub(crate) unicast_injected: Vec<f64>,
    /// `Σ_{(s,d)} w(s,d)·D(s,d)`, `D` the pair's hop count.
    pub(crate) unicast_hops: f64,
    /// Every source with a multicast destination set and the rows of
    /// `streams` that are its streams; none at all on a one-port topology,
    /// whose serialised stream table the schemes do not describe.
    pub(crate) sources: Vec<(NodeId, Range<usize>)>,
    /// Per multicast stream, its hops in order: the channel, and the
    /// successor entry of the edge it is entered by (`NONE` at the
    /// injection channel, and where the table has no entry for the edge).
    pub(crate) streams: FlatLists<(ChannelId, u32)>,
    /// Per stream, how many targets it absorbs at.
    pub(crate) stream_targets: Vec<u32>,
    /// Which channels each source's loaded unicast routes cross: one row
    /// of `⌈channels/64⌉` words per source.
    unicast_crossings: Vec<u64>,
    /// `(source, channel, count)`: the streams of `source` cross `channel`
    /// `count` times more than its unicast routes do.
    stream_crossings: Vec<(NodeId, ChannelId, u32)>,
    /// The holding solve's component order over the reference loads,
    /// computed on first use.
    order: OnceLock<Components>,
}

/// The generation rate the routes are walked at. A power of two, so
/// `rate / REFERENCE_RATE` is exact.
const REFERENCE_RATE: f64 = 0.5;

/// The rate-independent part of every backend's domain: materialized
/// channel storage, concurrent port streams if anything is multicast, and
/// a unicast pattern that fits the node count (the route walk asks its
/// weights unchecked). Failing it, no rate is sustainable.
fn check_domain(topo: &dyn Topology, wl: &Workload) -> Result<(), ModelError> {
    if topo.network().is_implicit() {
        // Loads, holding times and bounds are dense per-channel vectors —
        // out of scope for implicit scale topologies.
        return Err(ModelError::UnsupportedTopology {
            name: topo.name().to_string(),
        });
    }
    if wl.multicast_fraction > 0.0 && !topo.concurrent_multicast() {
        // One-port topologies serialise multicast through a single
        // stream table the schemes do not describe.
        return Err(ModelError::NonConcurrentMulticast);
    }
    wl.unicast_pattern.validate(topo.num_nodes())?;
    Ok(())
}

/// Every source's multicast streams under the workload's routing scheme,
/// sources with an empty destination set skipped. The scheme need not be
/// realizable on a topology without concurrent multicast (the experiment
/// layer validates it; the library API does not), so the walk asks only
/// elsewhere.
fn multicast_streams<'a>(
    topo: &'a dyn Topology,
    wl: &'a Workload,
) -> impl Iterator<Item = (NodeId, Vec<MulticastStream>)> + 'a {
    (0..topo.num_nodes()).filter_map(move |s| {
        let src = NodeId(s as u32);
        let set = wl.multicast_set(src);
        (!set.is_empty()).then(|| (src, wl.routing.streams(topo, src, set)))
    })
}

/// Per-source message-burst envelopes (messages per burst) at generation
/// rate `rate`: `1` for the geometric source, the mean-burst envelope for
/// on/off sources, the exact empirical envelope for trace replay.
fn source_bursts(wl: &Workload, rate: f64, n: usize) -> Vec<f64> {
    match &wl.traffic {
        TrafficSpec::Geometric => vec![1.0; n],
        TrafficSpec::OnOff {
            burst_len,
            peak_rate,
        } => vec![onoff_burstiness(*burst_len, *peak_rate, rate); n],
        TrafficSpec::Trace { entries } => {
            let mut cycles: Vec<Vec<u64>> = vec![Vec::new(); n];
            for e in entries.iter() {
                if (e.node as usize) < n {
                    cycles[e.node as usize].push(e.cycle);
                }
            }
            cycles.iter().map(|c| trace_burstiness(c, rate)).collect()
        }
    }
}

/// Lists that grow while routes are walked, one per owner: each a chain
/// through one flat array of links, in the order its entries were first
/// added, laid out by [`flatten`](Self::flatten) once the walk is done.
struct Chains<V> {
    /// `(first, last)` entry of each owner's chain; `NONE` when empty.
    ends: Vec<(u32, u32)>,
    links: Vec<Link<V>>,
}

struct Link<V> {
    /// What the entry points at: a channel, or a slot or a route of a
    /// [`SourceTable`].
    to: u32,
    /// The next entry of its chain.
    next: u32,
    value: V,
}

impl<V: Default> Chains<V> {
    fn new(owners: usize) -> Self {
        Chains {
            ends: vec![(NONE, NONE); owners],
            links: Vec::new(),
        }
    }

    fn find(&self, owner: usize, to: u32) -> Option<u32> {
        let mut e = self.ends[owner].0;
        while e != NONE {
            let link = &self.links[e as usize];
            if link.to == to {
                return Some(e);
            }
            e = link.next;
        }
        None
    }

    /// Append an entry pointing at `to` to `owner`'s chain.
    fn push(&mut self, owner: usize, to: u32) -> u32 {
        let e = self.links.len() as u32;
        self.links.push(Link {
            to,
            next: NONE,
            value: V::default(),
        });
        let (first, last) = &mut self.ends[owner];
        if *first == NONE {
            *first = e;
        } else {
            self.links[*last as usize].next = e;
        }
        *last = e;
        e
    }

    fn find_or_push(&mut self, owner: usize, to: u32) -> u32 {
        self.find(owner, to).unwrap_or_else(|| self.push(owner, to))
    }

    /// The entries `keep` accepts as flat lists of `f(owner, entry, link)`,
    /// owner by owner and each chain in order, and where each entry went
    /// (`NONE` if dropped).
    fn flatten<T>(
        &self,
        keep: impl Fn(u32) -> bool,
        mut f: impl FnMut(usize, u32, &Link<V>) -> T,
    ) -> (FlatLists<T>, Vec<u32>) {
        let mut offsets = Vec::with_capacity(self.ends.len() + 1);
        let mut entries = Vec::with_capacity(self.links.len());
        let mut position = vec![NONE; self.links.len()];
        offsets.push(0);
        for (owner, &(first, _)) in self.ends.iter().enumerate() {
            let mut e = first;
            while e != NONE {
                let link = &self.links[e as usize];
                if keep(e) {
                    position[e as usize] = entries.len() as u32;
                    entries.push(f(owner, e, link));
                }
                e = link.next;
            }
            offsets.push(entries.len() as u32);
        }
        (FlatLists { offsets, entries }, position)
    }
}

/// What an edge of the walk accumulates.
#[derive(Clone, Copy, Default)]
struct EdgeSums {
    /// Unicast pattern weight moving along it.
    weight: f64,
    /// Rate at the reference rate.
    rate: f64,
}

/// The unicast half of a [`RoutedLoads`] while it is walked.
struct UnicastWalk {
    /// The unicast share of the reference rate.
    rate: f64,
    /// `λ` of the unicast routes.
    lambda: Vec<f64>,
    /// Per channel, the edges its unicast routes continue on: pattern
    /// weight always, rate when anything is unicast.
    edges: Chains<EdgeSums>,
    /// [`RoutedLoads::unicast_injected`].
    injected: Vec<f64>,
    /// [`RoutedLoads::unicast_hops`].
    hops: f64,
    /// `⌈channels/64⌉`, the length of one source's row of `crossings`.
    words: usize,
    /// [`RoutedLoads::unicast_crossings`].
    crossings: Vec<u64>,
}

impl UnicastWalk {
    fn new(net: &Network, rate: f64) -> Self {
        let (nc, words) = (net.num_channels(), net.num_channels().div_ceil(64));
        UnicastWalk {
            rate,
            lambda: vec![0.0; nc],
            edges: Chains::new(nc),
            injected: vec![0.0; nc],
            hops: 0.0,
            words,
            crossings: vec![0; net.num_nodes() * words],
        }
    }

    /// The route of every positive-weight pair: all `N(N − 1)` under a
    /// stochastic pattern, one per source under a permutation (a source
    /// the permutation maps to itself falls back to uniform destinations).
    fn walk_pairs(&mut self, topo: &dyn Topology, pattern: UnicastPattern) {
        let n = topo.num_nodes();
        for src in (0..n as u32).map(NodeId) {
            let partner = pattern.permutation_partner(n, src).filter(|&p| p != src);
            let dsts = partner.map_or(0..n, |p| p.idx()..p.idx() + 1);
            for dst in dsts.map(|d| NodeId(d as u32)).filter(|&d| d != src) {
                let w = pattern.weight(n, src, dst);
                if w <= 0.0 {
                    continue;
                }
                let path = topo.unicast_path(src, dst);
                self.injected[path.hops[0].channel.idx()] += w;
                self.hops += w * path.hop_count() as f64;
                for (a, c) in path.transitions() {
                    let e = self.edges.find_or_push(a.idx(), c.0);
                    self.add(e, w);
                }
                for c in path.channels() {
                    self.cross(src, c, w);
                }
            }
        }
    }

    /// Uniform destinations on a topology that translates: node 0's
    /// `N − 1` routes, summed per channel, then for every source `by` that
    /// table's image under the automorphism taking 0 to `by`, which is the
    /// routes of `by` channel by channel. Edges new to a channel are added
    /// in the order [`walk_pairs`](Self::walk_pairs) meets them, visiting
    /// the routes of `by` by destination: the edge lists are its lists, and
    /// the solver sweeps the channels in the same order.
    fn walk_by_symmetry(&mut self, topo: &dyn Topology) {
        let (net, n) = (topo.network(), topo.num_nodes());
        let table = SourceTable::walk(topo);
        let mut images = Vec::with_capacity(table.slots.len());
        // Edges of one slot that its image under `by` does not have yet.
        let mut fresh: Vec<(usize, ChannelId)> = Vec::new();
        for by in (0..n as u32).map(NodeId) {
            images.clear();
            images.extend(table.slots.iter().map(|slot| {
                topo.translate(slot.channel, by)
                    .expect("a topology that translates one channel translates every one")
            }));
            for (k, (slot, &from)) in table.slots.iter().zip(&images).enumerate() {
                self.injected[from.idx()] += slot.injected;
                self.cross(by, from, slot.weight);
                fresh.clear();
                for e in table.next.range(k) {
                    let (next, weight) = table.next.entries[e];
                    let to = images[next as usize];
                    match self.edges.find(from.idx(), to.0) {
                        Some(known) => self.add(known, weight),
                        None => fresh.push((e, to)),
                    }
                }
                if fresh.len() > 1 {
                    // The first route of `by` to take an edge adds it:
                    // routes by the image of their destination.
                    fresh.sort_by_key(|&(e, _)| {
                        let ends = table.routes[e]
                            .iter()
                            .map(|&r| images[table.ejections[r as usize]]);
                        ends.map(|c| net.downstream(c)).min()
                    });
                }
                for &(e, to) in &fresh {
                    let edge = self.edges.push(from.idx(), to.0);
                    self.add(edge, table.next.entries[e].1);
                }
            }
            self.hops += table.hops;
        }
    }

    /// Pattern weight `w` on channel `c` from routes of `src`: load and a
    /// crossing, when anything is unicast.
    fn cross(&mut self, src: NodeId, c: ChannelId, w: f64) {
        if self.rate > 0.0 {
            self.lambda[c.idx()] += self.rate * w;
            self.crossings[src.idx() * self.words + c.idx() / 64] |= 1 << (c.idx() % 64);
        }
    }

    /// Pattern weight `w` moving along edge `e`: its weight, and its rate
    /// when anything is unicast.
    fn add(&mut self, e: u32, w: f64) {
        let sums = &mut self.edges.links[e as usize].value;
        sums.weight += w;
        if self.rate > 0.0 {
            sums.rate += self.rate * w;
        }
    }
}

/// Node 0's routes to uniform destinations, summed per channel they
/// cross: what [`UnicastWalk::walk_by_symmetry`] maps onto every source.
/// Summed, a source costs one update per channel and edge its routes
/// touch; mapping each route costs one per hop, which is what the pair
/// walk spends, route construction aside.
struct SourceTable {
    /// The channels crossed, in the order first crossed.
    slots: Vec<Slot>,
    /// Per slot, the edges the routes move straight on along, in the order
    /// first met: `(slot entered, pattern weight)`.
    next: FlatLists<(u32, f64)>,
    /// Per entry of `next`, the routes that take it; route `r` goes to
    /// node `r + 1`.
    routes: FlatLists<u32>,
    /// The slot each route ends on.
    ejections: Vec<usize>,
    /// `Σ_d w·D(0, d)`.
    hops: f64,
}

/// One channel of a [`SourceTable`].
struct Slot {
    channel: ChannelId,
    /// Pattern weight crossing the channel.
    weight: f64,
    /// Pattern weight entering the network on it.
    injected: f64,
}

impl SourceTable {
    fn walk(topo: &dyn Topology) -> Self {
        let n = topo.num_nodes();
        let mut slot_of = vec![NONE; topo.network().num_channels()];
        let mut slots: Vec<Slot> = Vec::new();
        let mut next: Chains<f64> = Chains::new(0);
        // Per link of `next`, the routes that take it.
        let mut routes: Chains<()> = Chains::new(0);
        let mut ejections = Vec::with_capacity(n - 1);
        let mut hops = 0.0;
        for (r, dst) in (1..n as u32).map(NodeId).enumerate() {
            let w = UnicastPattern::Uniform.weight(n, NodeId(0), dst);
            let path = topo.unicast_path(NodeId(0), dst);
            hops += w * path.hop_count() as f64;
            let mut prev = None;
            for c in path.channels() {
                if slot_of[c.idx()] == NONE {
                    slot_of[c.idx()] = slots.len() as u32;
                    slots.push(Slot {
                        channel: c,
                        weight: 0.0,
                        injected: 0.0,
                    });
                    next.ends.push((NONE, NONE));
                }
                let k = slot_of[c.idx()] as usize;
                slots[k].weight += w;
                let Some(p) = prev.replace(k) else {
                    slots[k].injected += w;
                    continue;
                };
                let e = next.find_or_push(p, k as u32);
                next.links[e as usize].value += w;
                if e as usize == routes.ends.len() {
                    routes.ends.push((NONE, NONE));
                }
                routes.push(e as usize, r as u32);
            }
            ejections.extend(prev);
        }
        let (next, position) = next.flatten(|_| true, |_, _, link| (link.to, link.value));
        // Laid out in the order of the entries of `next`.
        let mut ends = vec![(NONE, NONE); routes.ends.len()];
        for (e, &end) in routes.ends.iter().enumerate() {
            ends[position[e] as usize] = end;
        }
        routes.ends = ends;
        SourceTable {
            routes: routes.flatten(|_| true, |_, _, link| link.to).0,
            next,
            slots,
            ejections,
            hops,
        }
    }
}

impl<'a> RoutedLoads<'a> {
    /// Walk every route of `wl` over `topo` once. `wl` supplies
    /// everything but the rate (message length, multicast fraction,
    /// destination sets, traffic shape, routing scheme); of `opts` the
    /// walk reads `clone_ejection_load`, the backends the rest.
    ///
    /// Outside the backends' rate-independent domain — implicit channel
    /// storage, something multicast on a one-port topology, a unicast
    /// pattern that does not fit the node count — nothing is walked and
    /// the error says which.
    pub fn walk(
        topo: &'a dyn Topology,
        wl: &'a Workload,
        opts: &ModelOptions,
    ) -> Result<Self, ModelError> {
        check_domain(topo, wl)?;
        let net = topo.network();
        let nc = net.num_channels();

        // Unicast: per-pair rate is the generation rate scaled by the
        // destination pattern's weight (uniform = 1/(N-1), the paper's
        // assumption; hot-spot/complement as extensions). The weights are
        // recorded whatever `α` — a unicast latency is predicted even when
        // nothing is unicast — the loads only when something is.
        // Uniform destinations look alike from every node up to the
        // topology's symmetry, when it offers one.
        let mut unicast = UnicastWalk::new(net, (1.0 - wl.multicast_fraction) * REFERENCE_RATE);
        let uniform = wl.unicast_pattern == UnicastPattern::Uniform;
        if uniform && topo.translate(ChannelId(0), NodeId(0)).is_some() {
            unicast.walk_by_symmetry(topo);
        } else {
            unicast.walk_pairs(topo, wl.unicast_pattern);
        }
        let UnicastWalk {
            rate: unicast_rate,
            mut lambda,
            edges: unicast_edges,
            injected: unicast_injected,
            hops: unicast_hops,
            words,
            crossings: unicast_crossings,
        } = unicast;
        // The successors begin as the unicast edges when those carry load
        // (the first `unicast_count` entries of their chains); the streams
        // add theirs after.
        let unicast_count = unicast_edges.links.len() as u32;
        let (mut successors, unicast_only) = if unicast_rate > 0.0 {
            (unicast_edges, None)
        } else {
            (Chains::new(nc), Some(unicast_edges))
        };

        // Multicast: fixed per-node streams, each at the operation rate.
        // The streams are kept whatever `α`, as the unicast weights are;
        // check_domain left `α > 0` to concurrent topologies only. Each
        // source's are laid out flat as they are walked.
        let mc_rate = wl.multicast_fraction * REFERENCE_RATE;
        let mut sources = Vec::new();
        let mut streams = FlatLists::new();
        let mut stream_targets = Vec::new();
        let mut stream_crossings = Vec::new();
        let mut multiplicity = vec![0u32; if mc_rate > 0.0 { nc } else { 0 }];
        let walked = topo
            .concurrent_multicast()
            .then(|| multicast_streams(topo, wl));
        for (src, src_streams) in walked.into_iter().flatten() {
            let first = streams.len();
            for stream in &src_streams {
                let path = &stream.path;
                stream_targets.push(stream.targets.len() as u32);
                streams.entries.push((path.hops[0].channel, NONE));
                if mc_rate <= 0.0 {
                    // Unloaded: the stream's hops read whatever the
                    // unicast routes put on their edges.
                    for (a, b) in path.transitions() {
                        let e = successors.find(a.idx(), b.0);
                        streams.entries.push((b, e.unwrap_or(NONE)));
                    }
                    streams.end_row();
                    continue;
                }
                for c in path.channels() {
                    lambda[c.idx()] += mc_rate;
                }
                for (a, b) in path.transitions() {
                    let e = successors.find_or_push(a.idx(), b.0);
                    successors.links[e as usize].value.rate += mc_rate;
                    streams.entries.push((b, e));
                }
                streams.end_row();
                if opts.clone_ejection_load {
                    // Clones at intermediate targets occupy that node's
                    // ejection channel for the arrival direction.
                    for hop in &path.hops[1..path.hops.len() - 1] {
                        let ch = net.channel(hop.channel);
                        if ch.kind == ChannelKind::Link
                            && stream.targets.contains(&ch.to)
                            && ch.to != path.dst
                        {
                            lambda[net.ejection_channel(ch.to, ch.port).idx()] += mc_rate;
                        }
                    }
                }
                for c in path.channels() {
                    multiplicity[c.idx()] += 1;
                }
            }
            sources.push((src, first..streams.len()));
            if mc_rate <= 0.0 {
                continue;
            }
            // `σ` takes the larger of the stream multiplicity and the
            // unicast crossing, which the rows already hold.
            let row = &unicast_crossings[src.idx() * words..][..words];
            for c in src_streams.iter().flat_map(|st| st.path.channels()) {
                let m = std::mem::take(&mut multiplicity[c.idx()]);
                let unicast = (row[c.idx() / 64] >> (c.idx() % 64)) as u32 & 1;
                if m > unicast {
                    stream_crossings.push((src, c, m - unicast));
                }
            }
        }

        let (successors_flat, position) =
            successors.flatten(|_| true, |_, _, link| (ChannelId(link.to), link.value.rate));
        let unicast_edges = match &unicast_only {
            // Each unicast edge is the successor entry it was built as.
            None => successors.flatten(
                |e| e < unicast_count,
                |_, e, link| UnicastEdge {
                    to: ChannelId(link.to),
                    weight: link.value.weight,
                    edge: position[e as usize],
                },
            ),
            Some(unicast) => unicast.flatten(
                |_| true,
                |from, _, link| {
                    let to = ChannelId(link.to);
                    let edge = successors_flat.find(ChannelId(from as u32), to);
                    UnicastEdge {
                        to,
                        weight: link.value.weight,
                        edge: edge.map_or(NONE, |e| e as u32),
                    }
                },
            ),
        }
        .0;
        for (_, e) in streams.entries.iter_mut().filter(|(_, e)| *e != NONE) {
            *e = position[*e as usize];
        }
        Ok(RoutedLoads {
            topo,
            wl,
            opts: *opts,
            reference: ChannelLoads {
                lambda,
                successors: successors_flat,
                sigma: Vec::new(),
            },
            unicast_edges,
            unicast_injected,
            unicast_hops,
            sources,
            streams,
            stream_targets,
            unicast_crossings,
            stream_crossings,
            order: OnceLock::new(),
        })
    }

    /// The loads at generation rate `rate`, a valid one for the workload
    /// ([`Workload::check_rate`]; the backends check before they ask).
    pub fn at(&self, rate: f64) -> ChannelLoads {
        let mut loads = self.rates_at(rate);
        loads.sigma = self.bursts_at(rate);
        loads
    }

    /// [`at`](Self::at) without the bursts, which only the calculus
    /// bounds read.
    pub(crate) fn rates_at(&self, rate: f64) -> ChannelLoads {
        let mut loads = self.reference.clone();
        self.rescale(&mut loads, rate);
        loads
    }

    /// Overwrite the rates of `loads` — a copy of the reference walk's —
    /// with those at generation rate `rate`.
    fn rescale(&self, loads: &mut ChannelLoads, rate: f64) {
        let k = rate / REFERENCE_RATE;
        for (l, r) in loads.lambda.iter_mut().zip(&self.reference.lambda) {
            *l = r * k;
        }
        let edges = loads.successors.entries.iter_mut();
        for (s, r) in edges.zip(&self.reference.successors.entries) {
            s.1 = r.1 * k;
        }
    }

    /// The holding solve's component order for `loads`, this table's at
    /// some rate. It depends on the rate only through which channels are
    /// loaded, so every rate that loads the reference walk's channels
    /// shares one order, computed on first use; a rate that loads fewer
    /// (zero, or one so small that some loads underflow to zero) gets
    /// its own.
    pub(crate) fn components(&self, loads: &ChannelLoads) -> Cow<'_, Components> {
        let loaded = |l: &f64| *l > 0.0;
        let reference = self.reference.lambda.iter().map(loaded);
        if loads.lambda.iter().map(loaded).eq(reference) {
            let order = || service::components(self.topo, &self.reference);
            Cow::Borrowed(self.order.get_or_init(order))
        } else {
            Cow::Owned(service::components(self.topo, loads))
        }
    }

    /// `σ_j` at generation rate `rate`: a burst of `s` can pile up on
    /// every channel its routes cross. At rate zero nothing is offered and
    /// nothing is crossed.
    fn bursts_at(&self, rate: f64) -> Vec<f64> {
        let nc = self.reference.lambda.len();
        let mut sigma = vec![0.0; nc];
        if rate <= 0.0 {
            return sigma;
        }
        // Flits each source's burst puts on a channel it crosses once.
        let msg = self.wl.msg_len as f64;
        let mut burst = source_bursts(self.wl, rate, self.topo.num_nodes());
        burst.iter_mut().for_each(|b| *b *= msg);
        let rows = self.unicast_crossings.chunks_exact(nc.div_ceil(64));
        for (row, b) in rows.zip(&burst) {
            for (word, &bits) in row.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    sigma[word * 64 + bits.trailing_zeros() as usize] += b;
                    bits &= bits - 1;
                }
            }
        }
        for &(src, c, count) in &self.stream_crossings {
            sigma[c.idx()] += burst[src.idx()] * count as f64;
        }
        sigma
    }

    /// The built-in backends' saturation search: [`bisect_max_rate`] over
    /// the reference loads rescaled per probe. A probe is stable when the
    /// holding recursion under `term` converges, in the walk's component
    /// order and in buffers kept from probe to probe, to a point with
    /// every wait finite. It carries no bursts: a finite burst shifts a
    /// delay bound, not the stability limit. Rates the workload cannot be
    /// offered at (an on/off source above its peak) are unstable, as
    /// [`Workload::at_rate`] failing always was.
    pub(crate) fn max_rate(&self, tol: f64, term: &impl WaitTerm) -> f64 {
        let msg_len = self.wl.msg_len as f64;
        let mut probe = self.reference.clone();
        let mut held = Holding::default();
        bisect_max_rate(tol, |rate| {
            if self.wl.check_rate(rate).is_err() {
                return false;
            }
            self.rescale(&mut probe, rate);
            let order = self.components(&probe);
            service::solve_holding(&probe, &order, msg_len, term, &mut held).is_ok()
                && held.wait.iter().all(|w| w.is_finite())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk_count::Counting;
    use noc_topology::Quarc;
    use noc_workloads::DestinationSets;

    fn workload(topo: &dyn Topology, rate: f64, alpha: f64) -> Workload {
        Workload::new(32, rate, alpha, DestinationSets::random(topo, 4, 1)).unwrap()
    }

    #[test]
    fn unicast_rates_are_symmetric_on_the_quarc() {
        // Uniform traffic on a vertex-symmetric topology loads all
        // clockwise rim links identically — walked pair by pair, so the
        // routes show it and the symmetric walk cannot assume it.
        let quarc = Quarc::new(16).unwrap();
        let topo = Counting::all_pairs(&quarc);
        let wl = workload(&topo, 0.01, 0.0);
        let loads = RoutedLoads::walk(&topo, &wl, &ModelOptions::default())
            .unwrap()
            .at(wl.gen_rate);
        let net = topo.network();
        let cw: Vec<f64> = net
            .links()
            .filter(|c| c.label.starts_with("cw"))
            .map(|c| loads.lambda[c.id.idx()])
            .collect();
        assert_eq!(cw.len(), 16);
        for &l in &cw {
            assert!((l - cw[0]).abs() < 1e-12, "cw loads must be equal: {cw:?}");
        }
        assert!(cw[0] > 0.0);
    }

    #[test]
    fn total_injection_rate_matches_generation() {
        let topo = Quarc::new(16).unwrap();
        let wl = workload(&topo, 0.01, 0.0);
        let loads = RoutedLoads::walk(&topo, &wl, &ModelOptions::default())
            .unwrap()
            .at(wl.gen_rate);
        let net = topo.network();
        // Sum of injection-channel rates = per-node unicast rate × N.
        let inj_total: f64 = net
            .channels()
            .iter()
            .filter(|c| c.kind == ChannelKind::Injection)
            .map(|c| loads.lambda[c.id.idx()])
            .sum();
        assert!((inj_total - 0.01 * 16.0).abs() < 1e-9);
    }

    #[test]
    fn ejection_rates_match_absorption() {
        // With unicast-only uniform traffic every node absorbs λ_g worth of
        // traffic spread over its ejection channels.
        let topo = Quarc::new(16).unwrap();
        let wl = workload(&topo, 0.008, 0.0);
        let loads = RoutedLoads::walk(&topo, &wl, &ModelOptions::default())
            .unwrap()
            .at(wl.gen_rate);
        let net = topo.network();
        for node in 0..16u32 {
            let total: f64 = net
                .channels()
                .iter()
                .filter(|c| c.kind == ChannelKind::Ejection && c.to == NodeId(node))
                .map(|c| loads.lambda[c.id.idx()])
                .sum();
            assert!((total - 0.008).abs() < 1e-9, "node {node} absorbs {total}");
        }
    }

    #[test]
    fn multicast_streams_add_operation_rate_per_port() {
        let topo = Quarc::new(16).unwrap();
        let wl = Workload::new(32, 0.01, 1.0, DestinationSets::broadcast(&topo)).unwrap();
        let loads = RoutedLoads::walk(&topo, &wl, &ModelOptions::default())
            .unwrap()
            .at(wl.gen_rate);
        let net = topo.network();
        // Broadcast from every node at rate 0.01: every injection channel
        // carries exactly the operation rate.
        for c in net.channels() {
            if c.kind == ChannelKind::Injection {
                assert!(
                    (loads.lambda[c.id.idx()] - 0.01).abs() < 1e-12,
                    "injection {c:?} rate {}",
                    loads.lambda[c.id.idx()]
                );
            }
        }
    }

    #[test]
    fn transitions_conserve_flow() {
        // For every non-terminal channel the successor rates sum to λ_i
        // (every message continues to exactly one next channel).
        let topo = Quarc::new(16).unwrap();
        let wl = workload(&topo, 0.01, 0.1);
        let loads = RoutedLoads::walk(&topo, &wl, &ModelOptions::default())
            .unwrap()
            .at(wl.gen_rate);
        let net = topo.network();
        for c in net.channels() {
            if c.kind == ChannelKind::Ejection {
                assert!(loads.successors[c.id.idx()].is_empty());
                continue;
            }
            let li = loads.lambda[c.id.idx()];
            let out: f64 = loads.successors[c.id.idx()].iter().map(|(_, r)| r).sum();
            assert!(
                (li - out).abs() < 1e-9,
                "flow conservation at {c:?}: in {li}, out {out}"
            );
        }
    }

    #[test]
    fn p_next_sums_to_one_on_loaded_channels() {
        let topo = Quarc::new(16).unwrap();
        let wl = workload(&topo, 0.01, 0.05);
        let loads = RoutedLoads::walk(&topo, &wl, &ModelOptions::default())
            .unwrap()
            .at(wl.gen_rate);
        for (i, succ) in loads.successors.iter().enumerate() {
            if succ.is_empty() || loads.lambda[i] == 0.0 {
                continue;
            }
            let p: f64 = succ.iter().map(|(_, rate)| rate / loads.lambda[i]).sum();
            assert!((p - 1.0).abs() < 1e-9, "channel {i} P sums to {p}");
        }
    }

    #[test]
    fn zero_multicast_rate_builds_no_streams() {
        // Dual-path needs two injection ports; the one-port spidergon has
        // no such streams to build, and asking used to index out of
        // bounds. A one-port topology is never asked for streams.
        use crate::backend::ALL_BACKENDS;
        use noc_topology::{RoutingSpec, Spidergon};
        let topo = Spidergon::new(32).unwrap();
        let wl = workload(&topo, 2e-4, 0.0).with_routing(RoutingSpec::DualPath);
        let opts = ModelOptions::default();
        let loads = RoutedLoads::walk(&topo, &wl, &opts)
            .unwrap()
            .at(wl.gen_rate);
        assert!(loads.lambda.iter().any(|&l| l > 0.0));
        for backend in ALL_BACKENDS {
            let p = backend.backend().evaluate(&topo, &wl, &opts).unwrap();
            assert!(p.unicast_latency > 32.0 && p.multicast_latency.is_nan());
        }
    }

    #[test]
    fn scaled_loads_match_loads_built_at_the_scaled_rate() {
        // One table answers every rate: bit for bit what a walk made for
        // that rate alone answers, and linear in the rate.
        let topo = Quarc::new(16).unwrap();
        let opts = ModelOptions::default();
        let proto = workload(&topo, 0.5, 0.1);
        let routed = RoutedLoads::walk(&topo, &proto, &opts).unwrap();
        let half = routed.at(0.0015);
        let scaled = routed.at(0.003);
        let wl = workload(&topo, 0.003, 0.1);
        let built = RoutedLoads::walk(&topo, &wl, &opts)
            .unwrap()
            .at(wl.gen_rate);
        assert_eq!(scaled.lambda, built.lambda);
        assert_eq!(scaled.successors, built.successors);
        assert_eq!(scaled.sigma, built.sigma);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        for i in 0..built.lambda.len() {
            assert!(close(2.0 * half.lambda[i], built.lambda[i]));
            for (h, b) in half.successors[i].iter().zip(&built.successors[i]) {
                assert!(h.0 == b.0 && close(2.0 * h.1, b.1));
            }
        }
    }

    #[test]
    fn a_symmetric_walk_is_the_all_pairs_walk() {
        use crate::backend::ALL_BACKENDS;
        use noc_topology::TopologySpec;
        let opts = ModelOptions::default();
        let close = |a: f64, b: f64| {
            a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs()) || a.is_nan() && b.is_nan()
        };
        let specs = [
            "quarc-8",
            "quarc-16",
            "quarc-32",
            "ring-4",
            "ring-9",
            "spidergon-6",
            "spidergon-10",
            "torus-3x5",
            "torus-4x4",
            "hypercube-2",
            "hypercube-4",
        ];
        for spec in specs {
            let topo = TopologySpec::parse(spec).unwrap().build().unwrap();
            let all_pairs = Counting::all_pairs(topo.as_ref());
            for alpha in [0.0, 0.05, 1.0] {
                let case = format!("{spec}/alpha {alpha}");
                let wl = workload(topo.as_ref(), 1e-4, alpha);
                let (Ok(sym), Ok(full)) = (
                    RoutedLoads::walk(topo.as_ref(), &wl, &opts),
                    RoutedLoads::walk(&all_pairs, &wl, &opts),
                ) else {
                    // Both refuse multicast on the one-port Spidergon.
                    assert!(alpha > 0.0 && !topo.concurrent_multicast(), "{case}");
                    continue;
                };
                for backend in ALL_BACKENDS {
                    let case = format!("{case}/{backend}");
                    let backend = backend.backend();
                    let horizon = backend.max_rate_over(&sym, 0.01);
                    let full_horizon = backend.max_rate_over(&full, 0.01);
                    assert_eq!(horizon.to_bits(), full_horizon.to_bits(), "{case}");
                    for rate in [0.3 * horizon, 0.9 * horizon] {
                        let (got, want) = (sym.at(rate), full.at(rate));
                        for (i, succ) in got.successors.iter().enumerate() {
                            assert!(close(got.lambda[i], want.lambda[i]), "{case}: λ {i}");
                            assert!(close(got.sigma[i], want.sigma[i]), "{case}: σ {i}");
                            // In the same order, so the solver sweeps alike.
                            let want = &want.successors[i];
                            assert_eq!(succ.len(), want.len(), "{case}: {i}");
                            for (&(j, r), &(k, s)) in succ.iter().zip(want) {
                                assert!(j == k && close(r, s), "{case}: {i}→{j:?}");
                            }
                        }
                        let got = backend.evaluate_over(&sym, rate).unwrap();
                        let want = backend.evaluate_over(&full, rate).unwrap();
                        assert_eq!(got.iterations, want.iterations, "{case}");
                        assert!(close(got.unicast_latency, want.unicast_latency), "{case}");
                        assert!(
                            close(got.multicast_latency, want.multicast_latency),
                            "{case}"
                        );
                        assert_eq!(got.per_node.len(), want.per_node.len(), "{case}");
                        for (g, w) in got.per_node.iter().zip(&want.per_node) {
                            assert!(g.node == w.node && close(g.latency, w.latency), "{case}");
                        }
                    }
                }
            }
        }
    }

    /// FNV-1a-64 over every number of a table, bit for bit.
    fn table_digest(routed: &RoutedLoads) -> u64 {
        let mut words: Vec<u64> = routed
            .reference
            .lambda
            .iter()
            .map(|x| x.to_bits())
            .collect();
        for list in routed.reference.successors.iter() {
            words.push(list.len() as u64);
            words.extend(
                list.iter()
                    .flat_map(|&(c, x)| [u64::from(c.0), x.to_bits()]),
            );
        }
        for list in routed.unicast_edges.iter() {
            words.push(list.len() as u64);
            words.extend(
                list.iter()
                    .flat_map(|u| [u64::from(u.to.0), u.weight.to_bits()]),
            );
        }
        words.extend(routed.unicast_injected.iter().map(|x| x.to_bits()));
        words.push(routed.unicast_hops.to_bits());
        words.extend(&routed.unicast_crossings);
        for &(src, c, count) in &routed.stream_crossings {
            words.extend([src.0, c.0, count].map(u64::from));
        }
        fnv(&words)
    }

    /// FNV-1a-64 over the little-endian bytes of `words`.
    fn fnv(words: &[u64]) -> u64 {
        let bytes = words.iter().flat_map(|w| w.to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn a_permutation_walk_is_the_all_pairs_walk_bit_for_bit() {
        // Recorded when the walk still asked every pair's weight and
        // skipped the zero ones: visiting only each source's partner (or
        // its uniform row) adds the same numbers in the same order.
        use noc_topology::TopologySpec;
        use noc_workloads::UnicastPattern::{Complement, Transpose};
        for (spec, pattern, digest) in [
            ("mesh-4x4", Transpose, 0x20a0753ec578f03b_u64),
            ("quarc-16", Complement, 0x2489e2d21a9b0e06),
        ] {
            let topo = TopologySpec::parse(spec).unwrap().build().unwrap();
            let mut wl = workload(topo.as_ref(), 0.01, 0.05);
            wl.unicast_pattern = pattern;
            let routed = RoutedLoads::walk(topo.as_ref(), &wl, &ModelOptions::default()).unwrap();
            assert_eq!(table_digest(&routed), digest, "{spec}/{pattern:?}");
        }
    }

    #[test]
    fn uniform_walks_and_their_predictions_are_pinned_bit_for_bit() {
        // Recorded before the successor table was laid out flat: the same
        // numbers in the same order, and per backend the horizon's bits and
        // the unicast and multicast latencies and sweeps at 0.3 and 0.9 of
        // it. The first four walk by symmetry, the mesh every pair.
        use crate::backend::ALL_BACKENDS;
        use noc_topology::RoutingSpec::{DualPath, PathBased};
        use noc_topology::TopologySpec;
        let cases = [
            (
                "quarc-128",
                PathBased,
                0x8097cb25cacb656f_u64,
                0x371a4d17ed1a28c3_u64,
            ),
            (
                "torus-8x8",
                PathBased,
                0x5d00d0c3b9a7bbd2,
                0xeaadf27c86edda19,
            ),
            (
                "hypercube-6",
                PathBased,
                0xdd3efcea3e0af3b7,
                0xbbb17deb5d6fd245,
            ),
            ("ring-32", PathBased, 0xc2f2a809276cece1, 0x32f05a00057cc895),
            (
                "mesh-8x8",
                PathBased,
                0xbf1b1c7308e189de,
                0x6b142ee6a9a3f68e,
            ),
            ("mesh-8x8", DualPath, 0xbf1b1c7308e189de, 0x6b142ee6a9a3f68e),
        ];
        for (spec, routing, table, predictions) in cases {
            let topo = TopologySpec::parse(spec).unwrap().build().unwrap();
            let wl = workload(topo.as_ref(), 0.01, 0.05).with_routing(routing);
            let routed = RoutedLoads::walk(topo.as_ref(), &wl, &ModelOptions::default()).unwrap();
            let mut words = Vec::new();
            for backend in ALL_BACKENDS {
                let backend = backend.backend();
                let horizon = backend.max_rate_over(&routed, 0.01);
                words.push(horizon.to_bits());
                for rate in [0.3 * horizon, 0.9 * horizon] {
                    let p = backend.evaluate_over(&routed, rate).unwrap();
                    let (u, m) = (p.unicast_latency, p.multicast_latency);
                    words.extend([u.to_bits(), m.to_bits(), p.iterations as u64]);
                }
            }
            let got = (table_digest(&routed), fnv(&words));
            assert_eq!(got, (table, predictions), "{spec}/{routing:?}");
        }
    }

    #[test]
    fn a_rate_whose_loads_underflow_is_solved_in_its_own_order() {
        // At a subnormal rate some loads round to zero and others do not:
        // the walk's component order would sweep channels that carry
        // nothing (`P = 0/0`), so such a rate is solved in its own.
        use crate::backend::{MgOneBackend, ModelBackend, ALL_BACKENDS};
        let topo = Quarc::new(16).unwrap();
        let wl = workload(&topo, 0.01, 0.05);
        let opts = ModelOptions::default();
        let routed = RoutedLoads::walk(&topo, &wl, &opts).unwrap();
        let rate = 1e-323;
        let loads = routed.at(rate);
        let loaded = |l: &[f64]| l.iter().filter(|&&l| l > 0.0).count();
        let (kept, walked) = (loaded(&loads.lambda), loaded(&routed.reference.lambda));
        assert!(
            0 < kept && kept < walked,
            "{kept} of {walked} channels loaded"
        );
        let order = crate::service::components(&topo, &loads);
        let mg1 = crate::service::solve_in(&loads, &order, 32.0, &opts)
            .unwrap()
            .0;
        let nc = crate::calculus::solve_bounds(&loads, &order, 32.0).unwrap();
        for (backend, iterations) in ALL_BACKENDS
            .into_iter()
            .zip([mg1.iterations, nc.iterations])
        {
            let got = backend.backend().evaluate_over(&routed, rate).unwrap();
            assert_eq!(got.iterations, iterations, "{backend}");
        }
        // The M/G/1 waits are subnormal: the zero-load latencies.
        let idle = MgOneBackend.evaluate_over(&routed, 0.0).unwrap();
        let got = MgOneBackend.evaluate_over(&routed, rate).unwrap();
        assert_eq!(got.unicast_latency, idle.unicast_latency);
        assert_eq!(got.multicast_latency, idle.multicast_latency);
        // The rates the walk loads share its order again.
        assert!(matches!(
            routed.components(&routed.at(1e-322)),
            Cow::Borrowed(_)
        ));
        assert!(matches!(routed.components(&loads), Cow::Owned(_)));
    }

    #[test]
    fn clone_ejection_load_adds_rate() {
        let topo = Quarc::new(16).unwrap();
        let wl = Workload::new(32, 0.01, 1.0, DestinationSets::broadcast(&topo)).unwrap();
        let base = RoutedLoads::walk(&topo, &wl, &ModelOptions::default())
            .unwrap()
            .at(wl.gen_rate);
        let with = RoutedLoads::walk(
            &topo,
            &wl,
            &ModelOptions {
                clone_ejection_load: true,
                ..Default::default()
            },
        )
        .unwrap()
        .at(wl.gen_rate);
        let sum_base: f64 = base.lambda.iter().sum();
        let sum_with: f64 = with.lambda.iter().sum();
        assert!(sum_with > sum_base, "clone load must add ejection rate");
    }
}
