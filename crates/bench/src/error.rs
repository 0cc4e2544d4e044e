//! The workspace-level experiment error type.
//!
//! Every layer of the stack reports failures through its own typed error
//! (topology constructors, workload validation, sweep grids, the
//! analytical model); [`Error`] folds them into one type so scenario
//! construction and execution compose with `?` end-to-end — the
//! `unwrap()`/`assert!` seams the pre-`Scenario` harness relied on are
//! gone from the public surface.

use noc_topology::{RoutingError, TopologyError};
use noc_workloads::{PatternError, SweepError, WorkloadError};
use quarc_core::ModelError;
use std::fmt;

/// Any failure an experiment can produce, from spec parsing to sinks.
#[derive(Debug)]
pub enum Error {
    /// Topology construction or registry lookup failed.
    Topology(TopologyError),
    /// Workload parameters were invalid.
    Workload(WorkloadError),
    /// A unicast traffic pattern does not fit the topology (e.g. bit
    /// reversal on a node count that is not a power of two).
    Pattern(PatternError),
    /// The multicast routing scheme cannot be realized on the topology
    /// (e.g. multipath on a one-port node).
    Routing(RoutingError),
    /// Rate-sweep construction failed.
    Sweep(SweepError),
    /// The analytical model could not be evaluated where a finite result
    /// was required (the in-sweep overlay maps saturation to `NaN`
    /// instead of erroring).
    Model(ModelError),
    /// The simulator configuration was invalid (a zero buffer depth, or
    /// windows whose sum overflows).
    Config(noc_sim::ConfigError),
    /// Scenario-level validation failed (inconsistent fields,
    /// out-of-range resolved rates).
    InvalidScenario(String),
    /// A replicate tripped the simulator's deadlock watchdog (flits in
    /// the network, nothing moving). The routings are deadlock-free by
    /// construction, so this is a broken run, not a data point.
    Deadlock {
        /// The scenario's name.
        scenario: String,
        /// Generation rate of the stalled job.
        rate: f64,
        /// Replicate index of the stalled job.
        replicate: u32,
    },
    /// Serialization or deserialization of a spec/result failed.
    Serde(serde::Error),
    /// A result sink could not be written.
    Io(std::io::Error),
}

/// Workspace result alias.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Topology(e) => write!(f, "topology: {e}"),
            Error::Workload(e) => write!(f, "workload: {e}"),
            Error::Pattern(e) => write!(f, "traffic pattern: {e}"),
            Error::Routing(e) => write!(f, "multicast routing: {e}"),
            Error::Sweep(e) => write!(f, "sweep: {e}"),
            Error::Model(e) => write!(f, "model: {e}"),
            Error::Config(e) => write!(f, "simulator configuration: {e}"),
            Error::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            Error::Deadlock {
                scenario,
                rate,
                replicate,
            } => write!(
                f,
                "deadlock: scenario '{scenario}' stalled at rate {rate}, replicate {replicate}"
            ),
            Error::Serde(e) => write!(f, "serialization: {e}"),
            Error::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Topology(e) => Some(e),
            Error::Workload(e) => Some(e),
            Error::Pattern(e) => Some(e),
            Error::Routing(e) => Some(e),
            Error::Sweep(e) => Some(e),
            Error::Model(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Serde(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::InvalidScenario(_) | Error::Deadlock { .. } => None,
        }
    }
}

impl From<TopologyError> for Error {
    fn from(e: TopologyError) -> Self {
        Error::Topology(e)
    }
}

impl From<WorkloadError> for Error {
    fn from(e: WorkloadError) -> Self {
        Error::Workload(e)
    }
}

impl From<PatternError> for Error {
    fn from(e: PatternError) -> Self {
        Error::Pattern(e)
    }
}

impl From<noc_workloads::TrafficError> for Error {
    fn from(e: noc_workloads::TrafficError) -> Self {
        Error::Workload(WorkloadError::Traffic(e))
    }
}

impl From<RoutingError> for Error {
    fn from(e: RoutingError) -> Self {
        Error::Routing(e)
    }
}

impl From<SweepError> for Error {
    fn from(e: SweepError) -> Self {
        Error::Sweep(e)
    }
}

impl From<ModelError> for Error {
    fn from(e: ModelError) -> Self {
        match e {
            ModelError::Pattern(p) => Error::Pattern(p),
            ModelError::Workload(w) => Error::Workload(w),
            e => Error::Model(e),
        }
    }
}

impl From<noc_sim::ConfigError> for Error {
    fn from(e: noc_sim::ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<noc_sim::PlanError> for Error {
    fn from(e: noc_sim::PlanError) -> Self {
        match e {
            noc_sim::PlanError::Pattern(p) => Error::Pattern(p),
            noc_sim::PlanError::Routing(r) => Error::Routing(r),
            noc_sim::PlanError::Traffic(t) => Error::Workload(WorkloadError::Traffic(t)),
            e @ (noc_sim::PlanError::TooFewNodes(_)
            | noc_sim::PlanError::EmptyMulticastSet { .. }
            | noc_sim::PlanError::TooManyVcs { .. }) => Error::InvalidScenario(e.to_string()),
        }
    }
}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::Serde(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_folds_in() {
        let errs: Vec<Error> = vec![
            TopologyError::UnknownTopology {
                name: "warp".into(),
            }
            .into(),
            WorkloadError::ZeroLengthMessage.into(),
            noc_workloads::PatternError::RequiresPowerOfTwo {
                pattern: "shuffle",
                n: 12,
            }
            .into(),
            noc_workloads::TrafficError::InvalidPeakRate(1.5).into(),
            RoutingError::SingleInjectionPort {
                scheme: "multipath",
                ports: 1,
            }
            .into(),
            SweepError::TooFewPoints(1).into(),
            ModelError::NonConcurrentMulticast.into(),
            ModelError::UnsupportedTopology { name: "min".into() }.into(),
            ModelError::Pattern(PatternError::RequiresSquare {
                pattern: "transpose",
                n: 12,
            })
            .into(),
            noc_sim::PlanError::EmptyMulticastSet { node: 3 }.into(),
            noc_sim::PlanError::TooManyVcs { channel: 4, vcs: 9 }.into(),
            noc_sim::PlanError::Routing(RoutingError::SingleInjectionPort {
                scheme: "multipath",
                ports: 1,
            })
            .into(),
            serde::Error::custom("bad json").into(),
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into(),
            Error::InvalidScenario("replicates must be >= 1".into()),
            Error::Deadlock {
                scenario: "fig6".into(),
                rate: 0.004,
                replicate: 1,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn sources_chain() {
        let e: Error = WorkloadError::InvalidRate(2.0).into();
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::InvalidScenario("x".into());
        assert!(std::error::Error::source(&e).is_none());
    }
}
