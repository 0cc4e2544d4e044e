//! The workload description shared by the model and the simulator.

use crate::destinations::DestinationSets;
use crate::pattern::UnicastPattern;
use crate::traffic::{TrafficError, TrafficSpec};
use noc_topology::{NodeId, RoutingSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised when constructing a [`Workload`].
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadError {
    /// Message length must be at least 1 flit.
    ZeroLengthMessage,
    /// The per-node generation rate must lie in `[0, 1)` messages/cycle.
    InvalidRate(f64),
    /// The multicast fraction must lie in `[0, 1]`.
    InvalidFraction(f64),
    /// The arrival-process specification is inconsistent with the
    /// workload (e.g. an on/off peak rate at or below the mean rate).
    Traffic(TrafficError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::ZeroLengthMessage => write!(f, "message length must be >= 1 flit"),
            WorkloadError::InvalidRate(r) => {
                write!(
                    f,
                    "generation rate {r} must be in [0, 1) messages/node/cycle"
                )
            }
            WorkloadError::InvalidFraction(a) => {
                write!(f, "multicast fraction {a} must be in [0, 1]")
            }
            WorkloadError::Traffic(e) => write!(f, "traffic: {e}"),
        }
    }
}

impl From<TrafficError> for WorkloadError {
    fn from(e: TrafficError) -> Self {
        WorkloadError::Traffic(e)
    }
}

impl std::error::Error for WorkloadError {}

/// A complete traffic specification.
///
/// Every node generates messages as a Poisson process of `gen_rate`
/// messages/cycle; a generated message is a multicast with probability
/// `multicast_fraction` (α in the figures) and a unicast with a uniformly
/// random destination otherwise. Multicast destination sets are fixed per
/// node in `sets`. All messages are `msg_len` flits long (the paper assumes
/// a single message size per configuration).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Workload {
    /// Message length in flits (`M` in the figures).
    pub msg_len: u32,
    /// Per-node message generation rate, messages/cycle (the x-axis of
    /// Fig. 6–7).
    pub gen_rate: f64,
    /// Fraction of generated messages that are multicast (`α`).
    pub multicast_fraction: f64,
    /// Fixed per-node multicast destination sets.
    pub sets: DestinationSets,
    /// Spatial pattern of unicast destinations (uniform in the paper;
    /// hot-spot and the permutation patterns provided as extensions).
    pub unicast_pattern: UnicastPattern,
    /// Temporal arrival process of every node's source (memoryless
    /// geometric gaps in the paper; on/off bursts and trace replay
    /// provided as extensions).
    pub traffic: TrafficSpec,
    /// Multicast routing scheme (the paper's path-based BRCP by default;
    /// dual-path, partitioned multipath and the unicast baseline provided
    /// as extensions).
    pub routing: RoutingSpec,
}

impl Workload {
    /// Validated constructor.
    pub fn new(
        msg_len: u32,
        gen_rate: f64,
        multicast_fraction: f64,
        sets: DestinationSets,
    ) -> Result<Self, WorkloadError> {
        let wl = Workload {
            msg_len,
            gen_rate,
            multicast_fraction,
            sets,
            unicast_pattern: UnicastPattern::Uniform,
            traffic: TrafficSpec::Geometric,
            routing: RoutingSpec::PathBased,
        };
        wl.check_rate(gen_rate)?;
        Ok(wl)
    }

    /// Replace the unicast destination pattern (builder style).
    ///
    /// The pattern must be valid for the topology's node count — checked
    /// by the simulator and the model at construction time.
    pub fn with_unicast_pattern(mut self, pattern: UnicastPattern) -> Self {
        self.unicast_pattern = pattern;
        self
    }

    /// Replace the arrival process (builder style).
    ///
    /// The spec must be consistent with the generation rate and the
    /// topology's node count — checked by [`Workload::at_rate`], the
    /// simulator and the experiment layer at construction time.
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Replace the multicast routing scheme (builder style).
    ///
    /// The scheme must be realizable on the topology (e.g. dual-path and
    /// multipath need multi-port routers) — checked by the simulator's
    /// plan construction and, as a typed error, by the experiment layer.
    pub fn with_routing(mut self, routing: RoutingSpec) -> Self {
        self.routing = routing;
        self
    }

    /// Per-node unicast generation rate `(1 − α)·λ_g`.
    #[inline]
    pub fn unicast_rate(&self) -> f64 {
        (1.0 - self.multicast_fraction) * self.gen_rate
    }

    /// Per-node multicast operation rate `α·λ_g`.
    #[inline]
    pub fn multicast_rate(&self) -> f64 {
        self.multicast_fraction * self.gen_rate
    }

    /// A copy of this workload at a different generation rate (used by the
    /// rate sweeps of Fig. 6–7). Rejects rates the arrival process cannot
    /// realize (an on/off source cannot average more than its peak rate).
    pub fn at_rate(&self, gen_rate: f64) -> Result<Self, WorkloadError> {
        self.check_rate(gen_rate)?;
        Ok(Workload {
            gen_rate,
            ..self.clone()
        })
    }

    /// Whether [`at_rate`](Self::at_rate) would accept `gen_rate`, without
    /// building the copy — a saturation search asks this of every rate it
    /// probes.
    pub fn check_rate(&self, gen_rate: f64) -> Result<(), WorkloadError> {
        self.traffic.validate(self.sets.num_nodes(), gen_rate)?;
        if self.msg_len == 0 {
            return Err(WorkloadError::ZeroLengthMessage);
        }
        if !gen_rate.is_finite() || !(0.0..1.0).contains(&gen_rate) {
            return Err(WorkloadError::InvalidRate(gen_rate));
        }
        let alpha = self.multicast_fraction;
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
            return Err(WorkloadError::InvalidFraction(alpha));
        }
        Ok(())
    }

    /// The multicast destination set of `node`.
    #[inline]
    pub fn multicast_set(&self, node: NodeId) -> &[NodeId] {
        self.sets.set(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{Quarc, Topology};

    fn sets() -> DestinationSets {
        let topo = Quarc::new(16).unwrap();
        DestinationSets::random(&topo, 4, 1)
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(matches!(
            Workload::new(0, 0.01, 0.05, sets()),
            Err(WorkloadError::ZeroLengthMessage)
        ));
        assert!(matches!(
            Workload::new(32, 1.0, 0.05, sets()),
            Err(WorkloadError::InvalidRate(_))
        ));
        assert!(matches!(
            Workload::new(32, -0.1, 0.05, sets()),
            Err(WorkloadError::InvalidRate(_))
        ));
        assert!(matches!(
            Workload::new(32, 0.01, 1.5, sets()),
            Err(WorkloadError::InvalidFraction(_))
        ));
    }

    #[test]
    fn class_rates_split_generation_rate() {
        let w = Workload::new(32, 0.02, 0.1, sets()).unwrap();
        assert!((w.unicast_rate() - 0.018).abs() < 1e-12);
        assert!((w.multicast_rate() - 0.002).abs() < 1e-12);
        assert!((w.unicast_rate() + w.multicast_rate() - w.gen_rate).abs() < 1e-12);
    }

    #[test]
    fn at_rate_changes_only_rate() {
        let w = Workload::new(32, 0.02, 0.1, sets())
            .unwrap()
            .with_routing(RoutingSpec::Multipath);
        let w2 = w.at_rate(0.001).unwrap();
        assert_eq!(w2.msg_len, 32);
        assert_eq!(w2.multicast_fraction, 0.1);
        assert_eq!(w2.gen_rate, 0.001);
        assert_eq!(w2.sets, w.sets);
        assert_eq!(w2.routing, RoutingSpec::Multipath, "routing is preserved");
    }

    #[test]
    fn routing_defaults_to_path_based() {
        let w = Workload::new(32, 0.02, 0.1, sets()).unwrap();
        assert_eq!(w.routing, RoutingSpec::PathBased);
    }

    #[test]
    fn multicast_set_lookup() {
        let topo = Quarc::new(16).unwrap();
        let w = Workload::new(16, 0.005, 0.03, DestinationSets::broadcast(&topo)).unwrap();
        assert_eq!(w.multicast_set(NodeId(2)).len(), topo.num_nodes() - 1);
    }
}
