//! Per-channel arrival rates and next-channel decomposition.
//!
//! The model's inputs are, per channel `j`, the aggregate Poisson arrival
//! rate `λ_j` and, per ordered channel pair `(i, j)`, the rate `λ_{i→j}` of
//! traffic that traverses `i` immediately before `j`. Both are accumulated
//! by walking every deterministic route with its offered rate:
//!
//! * each unicast pair `(s, d)` carries `(1 − α)·λ_g / (N − 1)`;
//! * each multicast stream of node `s` — constructed by the workload's
//!   routing scheme (`RoutingSpec`, the paper's path-based BRCP by
//!   default) — carries `α·λ_g` (the transceiver emits one packet per
//!   stream per operation; under the unicast baseline that is one packet
//!   per destination).

use crate::options::ModelOptions;
use noc_topology::{ChannelId, ChannelKind, NodeId, Path, Topology};
use noc_workloads::Workload;

/// Channel loads extracted from a routed workload.
#[derive(Clone, Debug)]
pub struct ChannelLoads {
    /// Aggregate arrival rate per channel (indexed by `ChannelId`).
    pub lambda: Vec<f64>,
    /// Successor decomposition: for each channel, the list of
    /// `(next_channel, rate)` pairs with positive rate.
    pub successors: Vec<Vec<(ChannelId, f64)>>,
}

impl ChannelLoads {
    /// Accumulate the loads for `wl` routed over `topo`.
    pub fn build(topo: &dyn Topology, wl: &Workload, opts: &ModelOptions) -> Self {
        let net = topo.network();
        let nc = net.num_channels();
        let n = net.num_nodes();
        let mut loads = ChannelLoads {
            lambda: vec![0.0; nc],
            successors: vec![Vec::new(); nc],
        };

        // Unicast: per-pair rate is the generation rate scaled by the
        // destination pattern's weight (uniform = 1/(N-1), the paper's
        // assumption; hot-spot/complement as extensions).
        let uni_rate = wl.unicast_rate();
        if uni_rate > 0.0 {
            wl.unicast_pattern
                .validate(n)
                .expect("unicast pattern must fit the topology");
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let w = wl.unicast_pattern.weight(n, s, d);
                    if w <= 0.0 {
                        continue;
                    }
                    let path = topo.unicast_path(s, d);
                    loads.add_path(&path, uni_rate * w);
                }
            }
        }

        // Multicast: fixed per-node streams, each at the operation rate.
        // At zero rate there is nothing to add, and the scheme need not
        // even be realizable on the topology (the experiment layer
        // validates it; the library API does not), so no stream is built.
        let mc_rate = wl.multicast_rate();
        if mc_rate > 0.0 {
            for s in 0..n {
                let src = NodeId(s as u32);
                let set = wl.multicast_set(src);
                if set.is_empty() {
                    continue;
                }
                for stream in wl.routing.streams(topo, src, set) {
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

    /// Overwrite `self` — a clone of `base` — with `base` at `k` times its
    /// generation rate: every load is linear in that rate, so a saturation
    /// search walks the routes once and rescales per probe.
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

    /// Probability of taking channel `j` after channel `i` (`P_{i→j}`).
    pub fn p_next(&self, i: ChannelId, j: ChannelId) -> f64 {
        let li = self.lambda[i.idx()];
        if li <= 0.0 {
            0.0
        } else {
            self.transition(i, j) / li
        }
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
            let p: f64 = succ
                .iter()
                .map(|(j, _)| loads.p_next(ChannelId(i as u32), *j))
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
        let mut scaled = base.clone();
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
