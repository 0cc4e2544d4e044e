//! The one route walk: how a [`Workload`] becomes routes on a
//! [`Topology`], and everything the model folds over those routes.
//!
//! Nothing else in this crate enumerates routes. [`ChannelLoads::build`]
//! walks every deterministic route once, with its offered rate:
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
//! and records, per channel `j`, the aggregate arrival rate `λ_j`, per
//! ordered channel pair the rate `λ_{i→j}` of traffic that traverses `i`
//! immediately before `j` (the successor graph of Eq. 6), the aggregate
//! burst `σ_j` of the calculus bounds, and the unicast pattern weight
//! crossing every edge and entering at every injection channel. The last
//! turn the network-average unicast latency into a dot product with the
//! solved per-hop waits (`crate::model::assemble`) instead of a second
//! walk.

use crate::options::ModelOptions;
use noc_queueing::network_calculus::{onoff_burstiness, trace_burstiness};
use noc_topology::{ChannelId, ChannelKind, MulticastStream, NodeId, Path, Topology};
use noc_workloads::{TrafficSpec, Workload};

/// Channel loads extracted from a routed workload.
#[derive(Clone, Debug)]
pub struct ChannelLoads {
    /// Aggregate arrival rate per channel (indexed by `ChannelId`).
    pub lambda: Vec<f64>,
    /// Successor decomposition: for each channel, the list of
    /// `(next_channel, rate)` pairs with positive rate.
    pub successors: Vec<Vec<(ChannelId, f64)>>,
    /// Aggregate worst-case burst `σ_j` per channel, in flits: a burst of
    /// one source's messages can all take routes crossing `j`, each
    /// appearing there once as a unicast and once per stream crossing `j`
    /// as a multicast (streams of one operation share prefix links under
    /// multipath and the injection port under the unicast baseline); a
    /// source sending both classes counts the larger. Read by the
    /// calculus bounds only, and not linear in the generation rate.
    pub sigma: Vec<f64>,
    /// Unicast pattern weight per edge, `u_{i→j} = Σ_{(s,d) ∋ i→j} w(s,d)`:
    /// for each channel the `(next_channel, u)` pairs its unicast routes
    /// continue on. Independent of the rates.
    pub(crate) unicast_edges: Vec<Vec<(ChannelId, f64)>>,
    /// Unicast pattern weight of the pairs that enter the network at each
    /// channel (positive on injection channels only).
    pub(crate) unicast_injected: Vec<f64>,
    /// `Σ_{(s,d)} w(s,d)·D(s,d)`, `D` the pair's hop count.
    pub(crate) unicast_hops: f64,
}

/// Every source's multicast streams under the workload's routing scheme,
/// sources with an empty destination set skipped. The scheme need not be
/// realizable on the topology unless something is actually multicast (the
/// experiment layer validates it; the library API does not), so callers
/// ask only then.
pub(crate) fn multicast_streams<'a>(
    topo: &'a dyn Topology,
    wl: &'a Workload,
) -> impl Iterator<Item = (NodeId, Vec<MulticastStream>)> + 'a {
    (0..topo.num_nodes()).filter_map(move |s| {
        let src = NodeId(s as u32);
        let set = wl.multicast_set(src);
        (!set.is_empty()).then(|| (src, wl.routing.streams(topo, src, set)))
    })
}

/// Per-source message-burst envelopes (messages per burst): `1` for the
/// geometric source, the mean-burst envelope for on/off sources, the
/// exact empirical envelope for trace replay.
fn source_bursts(wl: &Workload, n: usize) -> Vec<f64> {
    match &wl.traffic {
        TrafficSpec::Geometric => vec![1.0; n],
        TrafficSpec::OnOff {
            burst_len,
            peak_rate,
        } => vec![onoff_burstiness(*burst_len, *peak_rate, wl.gen_rate); n],
        TrafficSpec::Trace { entries } => {
            let mut cycles: Vec<Vec<u64>> = vec![Vec::new(); n];
            for e in entries.iter() {
                if (e.node as usize) < n {
                    cycles[e.node as usize].push(e.cycle);
                }
            }
            cycles
                .iter()
                .map(|c| trace_burstiness(c, wl.gen_rate))
                .collect()
        }
    }
}

impl ChannelLoads {
    /// Walk every route of `wl` over `topo` once and accumulate the loads.
    ///
    /// # Panics
    ///
    /// May panic if the unicast pattern does not fit the topology; the
    /// backends validate it first and answer with a typed
    /// [`ModelError::Pattern`](crate::ModelError::Pattern).
    pub fn build(topo: &dyn Topology, wl: &Workload, opts: &ModelOptions) -> Self {
        let net = topo.network();
        let nc = net.num_channels();
        let n = net.num_nodes();
        let mut loads = ChannelLoads {
            lambda: vec![0.0; nc],
            successors: vec![Vec::new(); nc],
            sigma: vec![0.0; nc],
            unicast_edges: vec![Vec::new(); nc],
            unicast_injected: vec![0.0; nc],
            unicast_hops: 0.0,
        };
        // Flits one message of each source's burst puts on a channel.
        let msg = wl.msg_len as f64;
        let burst: Vec<f64> = source_bursts(wl, n).iter().map(|b| b * msg).collect();
        // Which channels each source's unicast routes cross, one row of
        // bits per source. All unicast pairs are walked before all streams
        // (interleaving them per source would reorder `λ`'s additions), so
        // the rows wait for the stream half, where `σ` needs them.
        let words = nc.div_ceil(64);
        let mut crossed = vec![0u64; n * words];

        // Unicast: per-pair rate is the generation rate scaled by the
        // destination pattern's weight (uniform = 1/(N-1), the paper's
        // assumption; hot-spot/complement as extensions). The weights are
        // recorded at any rate — a unicast latency is predicted even when
        // nothing is unicast — the loads only when there is one.
        let uni_rate = wl.unicast_rate();
        for s in 0..n {
            let row = &mut crossed[s * words..][..words];
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
                loads.unicast_injected[path.hops[0].channel.idx()] += w;
                loads.unicast_hops += w * path.hop_count() as f64;
                let rate = uni_rate * w;
                let mut prev = None;
                for c in path.channels() {
                    if let Some(a) = prev.replace(c) {
                        // While only unicast routes have been walked the
                        // two edge lists of a channel grow in step, so one
                        // search serves both.
                        let edges = &mut loads.unicast_edges[a.idx()];
                        let k = edges.iter().position(|(next, _)| *next == c);
                        let k = k.unwrap_or_else(|| {
                            edges.push((c, 0.0));
                            edges.len() - 1
                        });
                        edges[k].1 += w;
                        if uni_rate > 0.0 {
                            let succ = &mut loads.successors[a.idx()];
                            if k == succ.len() {
                                succ.push((c, 0.0));
                            }
                            debug_assert_eq!(succ[k].0, c);
                            succ[k].1 += rate;
                        }
                    }
                    if uni_rate > 0.0 {
                        loads.lambda[c.idx()] += rate;
                        row[c.idx() / 64] |= 1 << (c.idx() % 64);
                    }
                }
            }
            // A burst of `s` can pile up on every channel its routes cross.
            for (word, &bits) in row.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    loads.sigma[word * 64 + bits.trailing_zeros() as usize] += burst[s];
                    bits &= bits - 1;
                }
            }
        }

        // Multicast: fixed per-node streams, each at the operation rate.
        // At zero rate there is nothing to add, so no stream is built.
        let mc_rate = wl.multicast_rate();
        if mc_rate > 0.0 {
            let mut multiplicity = vec![0u32; nc];
            for (src, streams) in multicast_streams(topo, wl) {
                for stream in &streams {
                    loads.add_path(&stream.path, mc_rate);
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
                                loads.lambda[ej.idx()] += mc_rate;
                            }
                        }
                    }
                    for c in stream.path.channels() {
                        multiplicity[c.idx()] += 1;
                    }
                }
                // `σ` takes the larger of the stream multiplicity and the
                // unicast crossing, which the unicast half already added.
                let row = &crossed[src.idx() * words..][..words];
                for c in streams.iter().flat_map(|st| st.path.channels()) {
                    let m = std::mem::take(&mut multiplicity[c.idx()]);
                    if m > 0 {
                        let unicast = (row[c.idx() / 64] >> (c.idx() % 64)) as u32 & 1;
                        loads.sigma[c.idx()] += burst[src.idx()] * (m - unicast) as f64;
                    }
                }
            }
        }
        loads
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

    /// A copy of the rates alone, the part of the loads that is linear in
    /// the generation rate and all a saturation probe reads; bursts and
    /// weights are left empty.
    pub(crate) fn rates_only(&self) -> ChannelLoads {
        ChannelLoads {
            lambda: self.lambda.clone(),
            successors: self.successors.clone(),
            sigma: Vec::new(),
            unicast_edges: Vec::new(),
            unicast_injected: Vec::new(),
            unicast_hops: 0.0,
        }
    }

    /// Overwrite the rates of `self` — a copy of `base`'s — with `base` at
    /// `k` times its generation rate, so a saturation search walks the
    /// routes once and rescales per probe.
    pub(crate) fn assign_scaled(&mut self, base: &ChannelLoads, k: f64) {
        for (l, b) in self.lambda.iter_mut().zip(&base.lambda) {
            *l = b * k;
        }
        for (succ, base_succ) in self.successors.iter_mut().zip(&base.successors) {
            for (s, b) in succ.iter_mut().zip(base_succ) {
                s.1 = b.1 * k;
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

    /// Largest `λ_j · msg` lower bound on utilisation — a quick saturation
    /// screen before solving the fixed point.
    pub fn min_rho_bound(&self, msg_len: f64) -> f64 {
        self.lambda.iter().copied().fold(0.0, f64::max) * msg_len
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
        // bounds. With nothing multicast there is nothing to ask.
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
        let topo = Quarc::new(16).unwrap();
        let opts = ModelOptions::default();
        let base = ChannelLoads::build(&topo, &workload(&topo, 0.5, 0.1), &opts);
        let built = ChannelLoads::build(&topo, &workload(&topo, 0.003, 0.1), &opts);
        let mut scaled = base.rates_only();
        scaled.assign_scaled(&base, 0.003 / 0.5);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        for i in 0..built.lambda.len() {
            assert!(close(scaled.lambda[i], built.lambda[i]));
            assert_eq!(scaled.successors[i].len(), built.successors[i].len());
            for (s, b) in scaled.successors[i].iter().zip(&built.successors[i]) {
                assert!(s.0 == b.0 && close(s.1, b.1));
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
