//! The top-level model facade, and the one latency assembler under both
//! backends.

use crate::backend::{MgOneBackend, ModelBackend};
use crate::multicast::NodeMulticast;
use crate::options::ModelOptions;
use crate::rates::{ChannelLoads, RoutedLoads};
use crate::service::{self, Saturated, ServiceSolution};
use crate::unicast::{hop_wait, path_wait};
use noc_topology::{ChannelId, Topology};
use noc_workloads::{PatternError, Workload, WorkloadError};

/// Model evaluation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// The offered load exceeds the stability limit of some channel.
    Saturated {
        /// The bottleneck channel.
        bottleneck: ChannelId,
        /// Its (lower-bound) utilisation.
        rho: f64,
    },
    /// The topology serialises multicast through a single port (e.g. the
    /// one-port Spidergon baseline); the asynchronous multi-port model does
    /// not apply.
    NonConcurrentMulticast,
    /// The topology uses implicit channel storage (the scale families):
    /// the analytical backends iterate dense per-channel load vectors and
    /// are deliberately out of scope there. Materialize the topology (or
    /// pick a size the dense path can hold) to model it.
    UnsupportedTopology {
        /// The topology's family name (`Topology::name`).
        name: String,
    },
    /// The unicast destination pattern does not fit the topology (e.g.
    /// transpose on a node count that is not a square).
    Pattern(PatternError),
    /// The workload cannot be offered at the rate asked for (a rate
    /// outside `[0, 1)`, or an on/off source above its peak).
    Workload(WorkloadError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Saturated { bottleneck, rho } => {
                write!(f, "saturated at channel {bottleneck:?} (rho = {rho:.3})")
            }
            ModelError::NonConcurrentMulticast => write!(
                f,
                "the multi-port multicast model requires concurrent port streams"
            ),
            ModelError::UnsupportedTopology { name } => write!(
                f,
                "analytical backends need materialized channel storage; \
                 topology '{name}' is implicit"
            ),
            ModelError::Pattern(e) => write!(f, "traffic pattern: {e}"),
            ModelError::Workload(e) => write!(f, "workload: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Pattern(e) => Some(e),
            ModelError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PatternError> for ModelError {
    fn from(e: PatternError) -> Self {
        ModelError::Pattern(e)
    }
}

impl From<WorkloadError> for ModelError {
    fn from(e: WorkloadError) -> Self {
        ModelError::Workload(e)
    }
}

impl From<Saturated> for ModelError {
    fn from(s: Saturated) -> Self {
        ModelError::Saturated {
            bottleneck: s.bottleneck,
            rho: s.rho,
        }
    }
}

/// A complete model prediction for one operating point.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Average unicast message latency (Eq. 7, averaged over pairs).
    pub unicast_latency: f64,
    /// Average multicast operation latency (Eq. 16); `NaN` when no node
    /// has a destination set.
    pub multicast_latency: f64,
    /// Per-node multicast detail (Eq. 14).
    pub per_node: Vec<NodeMulticast>,
    /// Largest channel utilisation.
    pub max_rho: f64,
    /// Gauss–Seidel sweeps the holding recursion spent on the slowest
    /// strongly connected component of the channel-successor graph (1 when
    /// that graph is acyclic).
    pub iterations: usize,
}

/// Fold solved per-hop waits over the routed table into a [`Prediction`] —
/// the one assembler under both backends. What differs between the
/// backends arrives as the per-channel `waits` — the M/G/1 `W` of Eq. 7
/// or the delay bound `D` — an edge's `factor` on the wait of the channel
/// it enters, by successor entry (the self-traffic correction, or 1 for
/// bounds), and `combine`, a node's multicast wait from its per-port sums
/// — the expected last completion of Eq. 13 or their sum. A hop's wait
/// is [`hop_wait`]; a route's, [`path_wait`].
///
/// The unicast mean (Eq. 7 averaged with the pattern's weights, §2.1)
/// regroups `Σ_{(s,d)} w(s,d)·(Σ_l w_l + msg + D)` by edge: a dot product
/// of the waits with the weight sums the walk recorded, with no route in
/// it. Multicast per-node results (Eq. 14) sum the waits along each
/// source's streams, the only routes the table keeps per path (none on
/// one-port topologies).
pub(crate) fn assemble(
    routed: &RoutedLoads<'_>,
    waits: &[f64],
    factor: impl Fn(usize) -> f64,
    rho: &[f64],
    iterations: usize,
    combine: impl Fn(&[f64]) -> f64,
) -> Prediction {
    let msg = routed.wl.msg_len as f64;
    let mut total = routed.unicast_hops;
    for (i, edges) in routed.unicast_edges.iter().enumerate() {
        let injected = routed.unicast_injected[i];
        if injected > 0.0 {
            total += injected * (waits[i] + msg);
        }
        for u in edges {
            total += u.weight * hop_wait(waits, &factor, u.edge, u.to);
        }
    }
    let unicast_latency = total / routed.topo.num_nodes() as f64;

    let mut per_node = Vec::with_capacity(routed.sources.len());
    for (node, streams) in &routed.sources {
        let port_waits: Vec<f64> = streams
            .clone()
            .map(|st| path_wait(&routed.streams[st], waits, &factor))
            .collect();
        let hops = streams.clone().map(|st| routed.streams[st].len() - 1);
        let max_hops = hops.max().unwrap_or(0);
        let waiting = combine(&port_waits);
        per_node.push(NodeMulticast {
            node: *node,
            port_waits,
            waiting,
            max_hops,
            latency: waiting + msg + max_hops as f64,
        });
    }
    let multicast_latency = if per_node.is_empty() {
        f64::NAN
    } else {
        per_node.iter().map(|nm| nm.latency).sum::<f64>() / per_node.len() as f64
    };
    Prediction {
        unicast_latency,
        multicast_latency,
        per_node,
        max_rho: rho.iter().copied().fold(0.0, f64::max),
        iterations,
    }
}

/// The analytical model bound to a topology and workload.
pub struct AnalyticModel<'a> {
    topo: &'a dyn Topology,
    wl: &'a Workload,
    opts: ModelOptions,
}

impl<'a> AnalyticModel<'a> {
    /// Bind the model to `topo` and `wl`.
    pub fn new(topo: &'a dyn Topology, wl: &'a Workload, opts: ModelOptions) -> Self {
        AnalyticModel { topo, wl, opts }
    }

    /// The channel loads this workload induces (diagnostics / tests):
    /// [`RoutedLoads::walk`], then [`RoutedLoads::at`].
    ///
    /// # Panics
    ///
    /// Where the walk answers with a [`ModelError`].
    pub fn channel_loads(&self) -> ChannelLoads {
        match RoutedLoads::walk(self.topo, self.wl, &self.opts) {
            Ok(routed) => routed.at(self.wl.gen_rate),
            Err(e) => panic!("no channel loads: {e}"),
        }
    }

    /// Solve the service recursion (diagnostics / tests).
    pub fn solve_service(&self) -> Result<ServiceSolution, ModelError> {
        let loads = RoutedLoads::walk(self.topo, self.wl, &self.opts)?.at(self.wl.gen_rate);
        let msg = self.wl.msg_len as f64;
        Ok(service::solve(self.topo, &loads, msg, &self.opts)?)
    }

    /// Evaluate the full model ([`MgOneBackend`]'s evaluation).
    ///
    /// Returns [`ModelError::Saturated`] beyond the stability limit and
    /// [`ModelError::NonConcurrentMulticast`] for one-port topologies with
    /// a positive multicast fraction.
    pub fn evaluate(&self) -> Result<Prediction, ModelError> {
        MgOneBackend.evaluate(self.topo, self.wl, &self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{Quarc, Ring, Spidergon};
    use noc_workloads::DestinationSets;

    #[test]
    fn evaluates_quarc_at_moderate_load() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(32, 0.004, 0.05, sets).unwrap();
        let model = AnalyticModel::new(&topo, &wl, ModelOptions::default());
        let pred = model.evaluate().unwrap();
        assert!(pred.unicast_latency > 32.0);
        assert!(pred.multicast_latency > 32.0);
        assert!(pred.max_rho > 0.0 && pred.max_rho < 1.0);
        assert_eq!(pred.per_node.len(), 16);
    }

    #[test]
    fn multicast_latency_exceeds_unicast_latency() {
        // The multicast must wait for the slowest of four streams and its
        // hop count is the quadrant depth, so it dominates the average
        // unicast at the same operating point.
        let topo = Quarc::new(32).unwrap();
        let sets = DestinationSets::random(&topo, 8, 2);
        let wl = Workload::new(32, 0.003, 0.05, sets).unwrap();
        let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
            .evaluate()
            .unwrap();
        assert!(pred.multicast_latency > pred.unicast_latency);
    }

    #[test]
    fn saturation_error_propagates() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(64, 0.25, 0.1, sets).unwrap();
        let err = AnalyticModel::new(&topo, &wl, ModelOptions::default())
            .evaluate()
            .unwrap_err();
        assert!(matches!(err, ModelError::Saturated { .. }));
    }

    #[test]
    fn spidergon_multicast_is_rejected() {
        let topo = Spidergon::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(32, 0.002, 0.05, sets).unwrap();
        let err = AnalyticModel::new(&topo, &wl, ModelOptions::default())
            .evaluate()
            .unwrap_err();
        assert_eq!(err, ModelError::NonConcurrentMulticast);
        // But unicast-only traffic evaluates fine.
        let wl = Workload::new(32, 0.002, 0.0, DestinationSets::random(&topo, 4, 1)).unwrap();
        let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
            .evaluate()
            .unwrap();
        assert!(pred.unicast_latency > 32.0);
    }

    #[test]
    fn a_misfit_pattern_is_a_typed_error_on_both_backends() {
        use crate::backend::{NetworkCalculusBackend, ALL_BACKENDS};
        use noc_workloads::UnicastPattern;
        // Transpose needs a square node count; 12 is not one.
        let topo = Quarc::new(12).unwrap();
        let sets = DestinationSets::random(&topo, 3, 1);
        let mut wl = Workload::new(32, 0.002, 0.05, sets).unwrap();
        wl.unicast_pattern = UnicastPattern::Transpose;
        let opts = ModelOptions::default();
        let misfit = ModelError::Pattern(PatternError::RequiresSquare {
            pattern: "transpose",
            n: 12,
        });
        for backend in ALL_BACKENDS {
            let backend = backend.backend();
            assert_eq!(backend.evaluate(&topo, &wl, &opts).unwrap_err(), misfit);
            // As for every other domain failure, no rate is sustainable.
            assert_eq!(backend.max_sustainable_rate(&topo, &wl, &opts, 0.01), 0.0);
        }
        let model = AnalyticModel::new(&topo, &wl, opts);
        assert_eq!(model.solve_service().unwrap_err(), misfit);
        let bounds = NetworkCalculusBackend.channel_bounds(&topo, &wl, &opts);
        assert_eq!(bounds.unwrap_err(), misfit);
        assert!(std::error::Error::source(&misfit).is_some());
        assert!(misfit.to_string().contains("square"), "{misfit}");
    }

    #[test]
    fn ring_two_port_model_evaluates() {
        let topo = Ring::new(8).unwrap();
        let sets = DestinationSets::random(&topo, 3, 4);
        let wl = Workload::new(16, 0.004, 0.1, sets).unwrap();
        let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
            .evaluate()
            .unwrap();
        assert!(pred.multicast_latency.is_finite());
        for nm in &pred.per_node {
            assert!(nm.port_waits.len() <= 2, "ring has at most two streams");
        }
    }

    #[test]
    fn clone_ejection_load_option_evaluates_and_raises_latency() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::broadcast(&topo);
        let wl = Workload::new(32, 0.002, 0.3, sets).unwrap();
        let base = AnalyticModel::new(&topo, &wl, ModelOptions::default())
            .evaluate()
            .unwrap();
        let with = AnalyticModel::new(
            &topo,
            &wl,
            ModelOptions {
                clone_ejection_load: true,
                ..Default::default()
            },
        )
        .evaluate()
        .unwrap();
        // Counting clone load adds ejection-channel queueing, so the
        // prediction cannot drop.
        assert!(with.multicast_latency >= base.multicast_latency - 1e-9);
        assert!(with.max_rho >= base.max_rho);
    }

    #[test]
    fn prediction_is_deterministic() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(32, 0.004, 0.05, sets).unwrap();
        let a = AnalyticModel::new(&topo, &wl, ModelOptions::default())
            .evaluate()
            .unwrap();
        let b = AnalyticModel::new(&topo, &wl, ModelOptions::default())
            .evaluate()
            .unwrap();
        assert_eq!(a.unicast_latency, b.unicast_latency);
        assert_eq!(a.multicast_latency, b.multicast_latency);
    }
}
