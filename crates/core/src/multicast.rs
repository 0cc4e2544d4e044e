//! Multicast latency (paper §2.2, Eq. 8–16).
//!
//! A multicast from node `x_j` leaves through its `m` injection ports as
//! independent wormhole streams. Per port `c`, the total header waiting
//! time along the stream's path, `Ω_{j,c} = Σ_l w_l`, parameterises an
//! exponential random variable with rate `µ_{j,c} = 1/Ω_{j,c}` (Eq. 8).
//! Because the streams are asynchronous, the multicast waiting time is the
//! expected time of the **last** completion — the expected maximum of the
//! `m` exponentials (Eq. 12–13) — and
//!
//! ```text
//! L_j = W_j + msg + D_j,    D_j = max_c D_{j,c}        (Eq. 14–15)
//! L   = (1/N) Σ_j L_j                                  (Eq. 16)
//! ```
//!
//! A port whose stream experiences zero waiting contributes an
//! instantly-firing variable and drops out of the maximum. The assembler
//! (`model::assemble`) builds the per-node results; this module holds
//! their shape and the combination of Eq. 13. Under schemes whose streams
//! are not asynchronous per-port wormholes (`RoutingSpec::UnicastTree`)
//! the numbers are still computed mechanically but lie outside the
//! model's domain (the experiment layer stamps `model_applicable =
//! false`). The paper also discusses (and rejects) the "largest
//! sub-network wins" heuristic; it is provided as
//! [`largest_subset_latency`] for the ablation bench.

use crate::model::ModelError;
use crate::rates::RoutedLoads;
use crate::service::solve_at;
use crate::unicast::path_wait;
use noc_queueing::expmax::expected_max_exponentials;
use noc_queueing::MaxOfExponentials;
use noc_topology::NodeId;

/// Multicast prediction for one source node.
#[derive(Clone, Debug)]
pub struct NodeMulticast {
    /// The source node.
    pub node: NodeId,
    /// Per-port total waiting times `Ω_{j,c}`, in stream order.
    pub port_waits: Vec<f64>,
    /// Expected waiting of the last-finishing stream (Eq. 13).
    pub waiting: f64,
    /// `D_j = max_c D_{j,c}` in channel traversals minus one (matching the
    /// simulator's zero-load timing).
    pub max_hops: usize,
    /// `L_j = W_j + msg + D_j` (Eq. 14).
    pub latency: f64,
}

impl NodeMulticast {
    /// The full distribution of this node's multicast waiting time —
    /// the max of the per-port exponentials (extension: the paper derives
    /// only the expectation, Eq. 13).
    pub fn waiting_distribution(&self) -> MaxOfExponentials {
        MaxOfExponentials::from_waits(&self.port_waits)
    }

    /// Latency quantile `q`: the deterministic part `msg + D_j` plus the
    /// waiting-time quantile.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        (self.latency - self.waiting) + self.waiting_distribution().quantile(q)
    }
}

/// Expected waiting of the last-finishing stream: `E[max]` of exponentials
/// with rates `1/Ω_c` (Eq. 8 + Eq. 13). Streams with `Ω = 0` fire
/// instantly and are dropped.
pub fn expected_last_completion(port_waits: &[f64]) -> f64 {
    let rates: Vec<f64> = port_waits
        .iter()
        .filter(|&&w| w > 0.0)
        .map(|&w| 1.0 / w)
        .collect();
    expected_max_exponentials(&rates)
}

/// The "largest sub-network" heuristic the paper argues against (§2):
/// take the latency of the port with the largest `Ω + D` instead of the
/// expected maximum, at generation rate `rate` over `routed`. Used by the
/// ablation bench to show the differences.
pub fn largest_subset_latency(routed: &RoutedLoads<'_>, rate: f64) -> Result<f64, ModelError> {
    let (sol, factor) = solve_at(routed, rate)?;
    let msg_len = routed.wl.msg_len as f64;
    let mut total = 0.0;
    let mut count = 0usize;
    for (_, streams) in &routed.sources {
        // "Largest" sub-network: the stream covering the most targets,
        // ties broken by hop count.
        let candidate = streams
            .clone()
            .max_by_key(|&st| (routed.stream_targets[st], routed.streams[st].len()))
            .expect("non-empty stream set");
        let hops = &routed.streams[candidate];
        let w = path_wait(hops, &sol.waiting, |e| factor[e]);
        total += w + msg_len + (hops.len() - 1) as f64;
        count += 1;
    }
    Ok(if count == 0 {
        f64::NAN
    } else {
        total / count as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticModel;
    use crate::options::ModelOptions;
    use noc_topology::Quarc;
    use noc_workloads::{DestinationSets, Workload};

    fn fixture(rate: f64, alpha: f64, sets: DestinationSets) -> (Quarc, Workload) {
        let topo = Quarc::new(16).unwrap();
        let wl = Workload::new(32, rate, alpha, sets).unwrap();
        (topo, wl)
    }

    /// Per-node results (Eq. 14) and their average (Eq. 16).
    fn evaluate(topo: &Quarc, wl: &Workload) -> (Vec<NodeMulticast>, f64) {
        let model = AnalyticModel::new(topo, wl, ModelOptions::default());
        let pred = model.evaluate().unwrap();
        (pred.per_node, pred.multicast_latency)
    }

    #[test]
    fn zero_load_broadcast_latency_is_msg_plus_max_hops() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::broadcast(&topo);
        let (topo, wl) = fixture(0.0, 0.0, sets);
        let (per_node, avg) = evaluate(&topo, &wl);
        assert_eq!(per_node.len(), 16);
        // All broadcast streams are k = 4 links → hop_count = 5.
        for nm in &per_node {
            assert_eq!(nm.max_hops, 5);
            assert_eq!(nm.waiting, 0.0);
            assert!((nm.latency - 37.0).abs() < 1e-9);
        }
        assert!((avg - 37.0).abs() < 1e-9);
    }

    #[test]
    fn expected_last_completion_known_values() {
        // Two equal waits Ω: E[max of two iid Exp(1/Ω)] = 1.5 Ω.
        assert!((expected_last_completion(&[10.0, 10.0]) - 15.0).abs() < 1e-9);
        // Single stream: the wait itself.
        assert!((expected_last_completion(&[7.0]) - 7.0).abs() < 1e-9);
        // Zero-wait streams drop out.
        assert!((expected_last_completion(&[0.0, 5.0]) - 5.0).abs() < 1e-9);
        assert_eq!(expected_last_completion(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn multicast_waiting_exceeds_mean_port_wait_under_load() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 6, 3);
        let (topo, wl) = fixture(0.006, 0.1, sets);
        let (per_node, avg) = evaluate(&topo, &wl);
        assert!(avg.is_finite() && avg > 32.0);
        for nm in &per_node {
            if nm.port_waits.len() >= 2 {
                let mean_port = nm.port_waits.iter().sum::<f64>() / nm.port_waits.len() as f64;
                assert!(
                    nm.waiting >= mean_port - 1e-9,
                    "E[max] must dominate the mean port wait"
                );
                let max_port = nm.port_waits.iter().copied().fold(0.0, f64::max);
                assert!(
                    nm.waiting >= max_port - 1e-9,
                    "E[max] must dominate each port's own expected wait"
                );
            }
        }
    }

    #[test]
    fn largest_subset_heuristic_underestimates_the_asynchronous_max() {
        // The paper's §2 argument: the largest sub-network's latency is not
        // a reliable multicast latency — the expected maximum over all
        // ports dominates it.
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 8, 9);
        let (topo, wl) = fixture(0.005, 0.1, sets);
        let routed = RoutedLoads::walk(&topo, &wl, &ModelOptions::default()).unwrap();
        let (_, full) = evaluate(&topo, &wl);
        let heuristic = largest_subset_latency(&routed, wl.gen_rate).unwrap();
        assert!(
            full > heuristic - 1e-9,
            "E[max] model ({full}) should exceed the largest-subset heuristic ({heuristic})"
        );
    }

    #[test]
    fn latency_quantiles_bracket_the_mean() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 6, 3);
        let (topo, wl) = fixture(0.005, 0.1, sets);
        let (per_node, _) = evaluate(&topo, &wl);
        for nm in &per_node {
            let p10 = nm.latency_quantile(0.10);
            let p95 = nm.latency_quantile(0.95);
            assert!(p10 < nm.latency, "p10 {p10} below the mean {}", nm.latency);
            assert!(p95 > nm.latency, "p95 {p95} above the mean {}", nm.latency);
            // Deterministic part is a hard lower bound.
            assert!(p10 >= nm.latency - nm.waiting - 1e-9);
            // The distribution's mean equals the Eq. 13 expectation.
            let d = nm.waiting_distribution();
            assert!((d.mean() - nm.waiting).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_sets_are_skipped() {
        let mut raw = vec![Vec::new(); 16];
        raw[3] = vec![NodeId(5), NodeId(9)];
        let sets = DestinationSets::explicit(raw);
        let (topo, wl) = fixture(0.002, 0.0, sets);
        let (per_node, avg) = evaluate(&topo, &wl);
        assert_eq!(per_node.len(), 1);
        assert_eq!(per_node[0].node, NodeId(3));
        assert!(avg.is_finite());
    }
}
