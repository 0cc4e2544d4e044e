//! The one route walk: how a [`Workload`] becomes routes on a
//! [`Topology`], and everything the model folds over those routes.
//!
//! Nothing else in this crate enumerates routes. [`RoutedLoads::walk`]
//! walks every deterministic route once, at a reference generation rate:
//!
//! * each unicast pair `(s, d)` carries `(1 − α)·λ_g·w(s, d)`, `w` the
//!   destination pattern's weight (`1/(N − 1)` when uniform);
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

use crate::model::ModelError;
use crate::options::ModelOptions;
use crate::saturation::bisect_max_rate;
use noc_queueing::network_calculus::{onoff_burstiness, trace_burstiness};
use noc_topology::{ChannelId, ChannelKind, MulticastStream, NodeId, Path, Topology};
use noc_workloads::{TrafficSpec, Workload};

/// Channel loads of a routed workload at one generation rate.
#[derive(Clone, Debug)]
pub struct ChannelLoads {
    /// Aggregate arrival rate per channel (indexed by `ChannelId`).
    pub lambda: Vec<f64>,
    /// Successor decomposition: for each channel, the list of
    /// `(next_channel, rate)` pairs its traffic continues on.
    pub successors: Vec<Vec<(ChannelId, f64)>>,
    /// Aggregate worst-case burst `σ_j` per channel, in flits: a burst of
    /// one source's messages can all take routes crossing `j`, each
    /// appearing there once as a unicast and once per stream crossing `j`
    /// as a multicast (streams of one operation share prefix links under
    /// multipath and the injection port under the unicast baseline); a
    /// source sending both classes counts the larger. Read by the
    /// calculus bounds only, and not linear in the generation rate.
    pub sigma: Vec<f64>,
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
    /// Unicast pattern weight per edge, `u_{i→j} = Σ_{(s,d) ∋ i→j} w(s,d)`:
    /// for each channel the `(next_channel, u)` pairs its unicast routes
    /// continue on.
    pub(crate) unicast_edges: Vec<Vec<(ChannelId, f64)>>,
    /// Unicast pattern weight of the pairs that enter the network at each
    /// channel (positive on injection channels only).
    pub(crate) unicast_injected: Vec<f64>,
    /// `Σ_{(s,d)} w(s,d)·D(s,d)`, `D` the pair's hop count.
    pub(crate) unicast_hops: f64,
    /// Every source's multicast streams, sources with an empty destination
    /// set skipped; none at all on a one-port topology, whose serialised
    /// stream table the schemes do not describe.
    pub(crate) streams: Vec<(NodeId, Vec<MulticastStream>)>,
    /// Which channels each source's loaded unicast routes cross: one row
    /// of `⌈channels/64⌉` words per source.
    unicast_crossings: Vec<u64>,
    /// `(source, channel, count)`: the streams of `source` cross `channel`
    /// `count` times more than its unicast routes do.
    stream_crossings: Vec<(NodeId, ChannelId, u32)>,
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
        let n = net.num_nodes();
        let mut reference = ChannelLoads {
            lambda: vec![0.0; nc],
            successors: vec![Vec::new(); nc],
            sigma: Vec::new(),
        };
        let mut unicast_edges = vec![Vec::new(); nc];
        let mut unicast_injected = vec![0.0; nc];
        let mut unicast_hops = 0.0;
        let words = nc.div_ceil(64);
        let mut unicast_crossings = vec![0u64; n * words];

        // Unicast: per-pair rate is the generation rate scaled by the
        // destination pattern's weight (uniform = 1/(N-1), the paper's
        // assumption; hot-spot/complement as extensions). The weights are
        // recorded whatever `α` — a unicast latency is predicted even when
        // nothing is unicast — the loads only when something is.
        let uni_rate = (1.0 - wl.multicast_fraction) * REFERENCE_RATE;
        for s in 0..n {
            let row = &mut unicast_crossings[s * words..][..words];
            for d in 0..n {
                if s == d {
                    continue;
                }
                let (src, dst) = (NodeId(s as u32), NodeId(d as u32));
                let w = wl.unicast_pattern.weight(n, src, dst);
                if w <= 0.0 {
                    continue;
                }
                let path = topo.unicast_path(src, dst);
                unicast_injected[path.hops[0].channel.idx()] += w;
                unicast_hops += w * path.hop_count() as f64;
                let rate = uni_rate * w;
                let mut prev = None;
                for c in path.channels() {
                    if let Some(a) = prev.replace(c) {
                        // While only unicast routes have been walked the
                        // two edge lists of a channel grow in step, so one
                        // search serves both.
                        let edges = &mut unicast_edges[a.idx()];
                        let k = edges.iter().position(|(next, _)| *next == c);
                        let k = k.unwrap_or_else(|| {
                            edges.push((c, 0.0));
                            edges.len() - 1
                        });
                        edges[k].1 += w;
                        if uni_rate > 0.0 {
                            let succ = &mut reference.successors[a.idx()];
                            if k == succ.len() {
                                succ.push((c, 0.0));
                            }
                            debug_assert_eq!(succ[k].0, c);
                            succ[k].1 += rate;
                        }
                    }
                    if uni_rate > 0.0 {
                        reference.lambda[c.idx()] += rate;
                        row[c.idx() / 64] |= 1 << (c.idx() % 64);
                    }
                }
            }
        }

        // Multicast: fixed per-node streams, each at the operation rate.
        // The streams are kept whatever `α`, as the unicast weights are;
        // check_domain left `α > 0` to concurrent topologies only.
        let mc_rate = wl.multicast_fraction * REFERENCE_RATE;
        let streams: Vec<_> = if topo.concurrent_multicast() {
            multicast_streams(topo, wl).collect()
        } else {
            Vec::new()
        };
        let mut stream_crossings = Vec::new();
        if mc_rate > 0.0 {
            let mut multiplicity = vec![0u32; nc];
            for (src, streams) in &streams {
                for stream in streams {
                    reference.add_path(&stream.path, mc_rate);
                    if opts.clone_ejection_load {
                        // Clones at intermediate targets occupy that node's
                        // ejection channel for the arrival direction.
                        for hop in &stream.path.hops[1..stream.path.hops.len() - 1] {
                            let ch = net.channel(hop.channel);
                            if ch.kind == ChannelKind::Link
                                && stream.targets.contains(&ch.to)
                                && ch.to != stream.path.dst
                            {
                                let ej = net.ejection_channel(ch.to, ch.port);
                                reference.lambda[ej.idx()] += mc_rate;
                            }
                        }
                    }
                    for c in stream.path.channels() {
                        multiplicity[c.idx()] += 1;
                    }
                }
                // `σ` takes the larger of the stream multiplicity and the
                // unicast crossing, which the rows already hold.
                let row = &unicast_crossings[src.idx() * words..][..words];
                for c in streams.iter().flat_map(|st| st.path.channels()) {
                    let m = std::mem::take(&mut multiplicity[c.idx()]);
                    let unicast = (row[c.idx() / 64] >> (c.idx() % 64)) as u32 & 1;
                    if m > unicast {
                        stream_crossings.push((*src, c, m - unicast));
                    }
                }
            }
        }
        Ok(RoutedLoads {
            topo,
            wl,
            opts: *opts,
            reference,
            unicast_edges,
            unicast_injected,
            unicast_hops,
            streams,
            unicast_crossings,
            stream_crossings,
        })
    }

    /// The loads at generation rate `rate`.
    pub fn at(&self, rate: f64) -> ChannelLoads {
        let mut loads = self.reference.clone();
        self.rescale(&mut loads, rate);
        loads.sigma = self.bursts_at(rate);
        loads
    }

    /// Overwrite the rates of `loads` — a copy of the reference walk's —
    /// with those at generation rate `rate`.
    fn rescale(&self, loads: &mut ChannelLoads, rate: f64) {
        let k = rate / REFERENCE_RATE;
        for (l, r) in loads.lambda.iter_mut().zip(&self.reference.lambda) {
            *l = r * k;
        }
        let edges = loads.successors.iter_mut().zip(&self.reference.successors);
        for (succ, reference) in edges {
            for (s, r) in succ.iter_mut().zip(reference) {
                s.1 = r.1 * k;
            }
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
    /// the reference loads rescaled per probe; `stable` judges one set of
    /// rates (a probe carries no bursts — a finite burst shifts a delay
    /// bound, not the stability limit). Rates the workload cannot be
    /// offered at (an on/off source above its peak) are unstable, as
    /// [`Workload::at_rate`] failing always was.
    pub(crate) fn max_rate(&self, tol: f64, stable: impl Fn(&ChannelLoads) -> bool) -> f64 {
        let mut probe = self.reference.clone();
        bisect_max_rate(tol, |rate| {
            if self.wl.check_rate(rate).is_err() {
                return false;
            }
            self.rescale(&mut probe, rate);
            stable(&probe)
        })
    }
}

impl ChannelLoads {
    /// The loads `wl` induces on `topo` at its own generation rate:
    /// [`RoutedLoads::walk`], then [`RoutedLoads::at`].
    ///
    /// # Panics
    ///
    /// Outside the backends' rate-independent domain (see
    /// [`RoutedLoads::walk`]), where they answer with a typed
    /// [`ModelError`].
    pub fn build(topo: &dyn Topology, wl: &Workload, opts: &ModelOptions) -> Self {
        match RoutedLoads::walk(topo, wl, opts) {
            Ok(routed) => routed.at(wl.gen_rate),
            Err(e) => panic!("no channel loads: {e}"),
        }
    }

    fn add_path(&mut self, path: &Path, rate: f64) {
        for c in path.channels() {
            self.lambda[c.idx()] += rate;
        }
        for (a, b) in path.transitions() {
            let succ = &mut self.successors[a.idx()];
            match succ.iter_mut().find(|(c, _)| *c == b) {
                Some((_, r)) => *r += rate,
                None => succ.push((b, rate)),
            }
        }
    }

    /// Rate of traffic moving from channel `i` directly to channel `j`.
    pub fn transition(&self, i: ChannelId, j: ChannelId) -> f64 {
        self.successors[i.idx()]
            .iter()
            .find(|(c, _)| *c == j)
            .map(|(_, r)| *r)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Quarc;
    use noc_workloads::DestinationSets;

    fn workload(topo: &dyn Topology, rate: f64, alpha: f64) -> Workload {
        Workload::new(32, rate, alpha, DestinationSets::random(topo, 4, 1)).unwrap()
    }

    #[test]
    fn unicast_rates_are_symmetric_on_the_quarc() {
        // Uniform traffic on a vertex-symmetric topology loads all
        // clockwise rim links identically.
        let topo = Quarc::new(16).unwrap();
        let wl = workload(&topo, 0.01, 0.0);
        let loads = ChannelLoads::build(&topo, &wl, &ModelOptions::default());
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
        let loads = ChannelLoads::build(&topo, &wl, &ModelOptions::default());
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
        let loads = ChannelLoads::build(&topo, &wl, &ModelOptions::default());
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
        let loads = ChannelLoads::build(&topo, &wl, &ModelOptions::default());
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
        let loads = ChannelLoads::build(&topo, &wl, &ModelOptions::default());
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
        let loads = ChannelLoads::build(&topo, &wl, &ModelOptions::default());
        for (i, succ) in loads.successors.iter().enumerate() {
            if succ.is_empty() || loads.lambda[i] == 0.0 {
                continue;
            }
            let from = ChannelId(i as u32);
            let p: f64 = succ
                .iter()
                .map(|(j, _)| loads.transition(from, *j) / loads.lambda[i])
                .sum();
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
        let loads = ChannelLoads::build(&topo, &wl, &opts);
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
        let built = ChannelLoads::build(&topo, &workload(&topo, 0.003, 0.1), &opts);
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
    fn clone_ejection_load_adds_rate() {
        let topo = Quarc::new(16).unwrap();
        let wl = Workload::new(32, 0.01, 1.0, DestinationSets::broadcast(&topo)).unwrap();
        let base = ChannelLoads::build(&topo, &wl, &ModelOptions::default());
        let with = ChannelLoads::build(
            &topo,
            &wl,
            &ModelOptions {
                clone_ejection_load: true,
                ..Default::default()
            },
        );
        let sum_base: f64 = base.lambda.iter().sum();
        let sum_with: f64 = with.lambda.iter().sum();
        assert!(sum_with > sum_base, "clone load must add ejection rate");
    }
}
