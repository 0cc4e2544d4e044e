//! The top-level model facade.

use crate::multicast::{self, NodeMulticast};
use crate::options::ModelOptions;
use crate::rates::ChannelLoads;
use crate::service::{self, Saturated, ServiceSolution};
use crate::unicast;
use noc_topology::{ChannelId, Topology};
use noc_workloads::Workload;

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
        }
    }
}

impl std::error::Error for ModelError {}

/// The rate-independent part of every backend's domain: materialized
/// channel storage, and concurrent port streams if anything is multicast.
/// Failing it, no rate is sustainable.
pub(crate) fn check_domain(topo: &dyn Topology, wl: &Workload) -> Result<(), ModelError> {
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
    Ok(())
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

    /// The channel loads this workload induces (diagnostics / tests).
    pub fn channel_loads(&self) -> ChannelLoads {
        ChannelLoads::build(self.topo, self.wl, &self.opts)
    }

    /// Solve the service recursion (diagnostics / tests).
    pub fn solve_service(&self) -> Result<ServiceSolution, ModelError> {
        let loads = self.channel_loads();
        Ok(service::solve(
            self.topo,
            &loads,
            self.wl.msg_len as f64,
            &self.opts,
        )?)
    }

    /// Evaluate the full model.
    ///
    /// Returns [`ModelError::Saturated`] beyond the stability limit and
    /// [`ModelError::NonConcurrentMulticast`] for one-port topologies with
    /// a positive multicast fraction.
    pub fn evaluate(&self) -> Result<Prediction, ModelError> {
        check_domain(self.topo, self.wl)?;
        let msg = self.wl.msg_len as f64;
        let loads = ChannelLoads::build(self.topo, self.wl, &self.opts);
        let sol = service::solve(self.topo, &loads, msg, &self.opts)?;

        let unicast_latency = unicast::average_latency(
            self.topo,
            msg,
            &self.wl.unicast_pattern,
            &loads,
            &sol,
            &self.opts,
        );
        let (per_node, multicast_latency) = if self.topo.concurrent_multicast() {
            multicast::evaluate(
                self.topo,
                self.wl.routing,
                msg,
                &|n| self.wl.multicast_set(n),
                &loads,
                &sol,
                &self.opts,
            )
        } else {
            (Vec::new(), f64::NAN)
        };
        let max_rho = sol.rho.iter().copied().fold(0.0, f64::max);
        Ok(Prediction {
            unicast_latency,
            multicast_latency,
            per_node,
            max_rho,
            iterations: sol.iterations,
        })
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
