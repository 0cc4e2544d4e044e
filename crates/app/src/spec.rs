//! Serializable closed-loop protocol descriptions.
//!
//! [`ClosedLoopSpec`] is the data form of a protocol — what
//! `noc_bench::WorkloadSpec` embeds and scenario JSON round-trips —
//! plus the factory that builds the per-node [`Machines`] for a run.

use crate::barrier::Barrier;
use crate::coherence::Coherence;
use crate::protocol::{app_rng, Bank, Machines};
use noc_topology::NodeId;
use serde::{Deserialize, Serialize};

/// A closed-loop protocol selection with its parameters.
///
/// Serialized with serde's external tagging, so scenario JSON reads
/// `{"Coherence": {"window": 4, ...}}`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ClosedLoopSpec {
    /// Invalidation-based coherence: read/write requests to random home
    /// nodes, multicast invalidation fan-out over the home's destination
    /// set, ack collection, a bounded window of outstanding requests.
    Coherence {
        /// Maximum outstanding requests per node.
        window: u32,
        /// Total requests each node issues.
        requests: u32,
        /// Probability that a request is a write.
        write_fraction: f64,
    },
    /// Barrier/allreduce rounds over a radix tree rooted at node 0, with
    /// randomized compute delays, released by a root multicast.
    Barrier {
        /// Number of barrier rounds.
        rounds: u32,
        /// Fan-in radix of the combining tree.
        radix: u32,
        /// Maximum extra compute delay per round (cycles).
        compute: u64,
    },
}

impl ClosedLoopSpec {
    /// A short identifier for file names and table labels.
    pub fn code(&self) -> String {
        match self {
            ClosedLoopSpec::Coherence { window, .. } => format!("coh-w{window}"),
            ClosedLoopSpec::Barrier { rounds, radix, .. } => format!("bar-r{rounds}x{radix}"),
        }
    }

    /// Check the parameters against a network of `n` nodes; the message
    /// names the offending parameter.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        match *self {
            ClosedLoopSpec::Coherence {
                window,
                requests,
                write_fraction,
            } => {
                if window == 0 {
                    return Err("coherence window must be at least 1".into());
                }
                if requests == 0 {
                    return Err("coherence needs at least 1 request per node".into());
                }
                if !(0.0..=1.0).contains(&write_fraction) {
                    return Err(format!(
                        "write_fraction must be within [0, 1], got {write_fraction}"
                    ));
                }
            }
            ClosedLoopSpec::Barrier { rounds, radix, .. } => {
                if rounds == 0 {
                    return Err("barrier needs at least 1 round".into());
                }
                if radix == 0 {
                    return Err("barrier fan-in radix must be at least 1".into());
                }
            }
        }
        if n < 2 {
            return Err(format!(
                "closed-loop protocols need at least 2 nodes, got {n}"
            ));
        }
        Ok(())
    }

    /// Does the release/invalidation multicast need to reach every node?
    ///
    /// The barrier's correctness depends on the root's destination set
    /// covering all other nodes; coherence works with any non-empty
    /// sharer sets.
    pub fn needs_broadcast(&self) -> bool {
        matches!(self, ClosedLoopSpec::Barrier { .. })
    }

    /// Build the per-node machines for a network whose node `i` multicasts
    /// to `fanout[i]` targets, under `master_seed`.
    pub fn build(&self, fanout: &[u32], master_seed: u64) -> Machines {
        let nodes = (0..fanout.len() as u32).map(NodeId);
        let rngs = nodes.clone().map(|i| app_rng(master_seed, i)).collect();
        let bank = match *self {
            ClosedLoopSpec::Coherence {
                window,
                requests,
                write_fraction,
            } => {
                let proto = Coherence {
                    window,
                    requests,
                    write_fraction,
                };
                Bank::Coherence(proto, nodes.map(|i| proto.init(i, fanout)).collect())
            }
            ClosedLoopSpec::Barrier {
                rounds,
                radix,
                compute,
            } => {
                let proto = Barrier {
                    rounds,
                    radix,
                    compute,
                };
                Bank::Barrier(proto, nodes.map(|i| proto.init(i, fanout.len())).collect())
            }
        };
        Machines { bank, rngs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;

    #[test]
    fn spec_round_trips_through_json() {
        for spec in [
            ClosedLoopSpec::Coherence {
                window: 4,
                requests: 100,
                write_fraction: 0.3,
            },
            ClosedLoopSpec::Barrier {
                rounds: 8,
                radix: 2,
                compute: 16,
            },
        ] {
            let s = json::to_string(&spec.to_value());
            let v = json::from_str(&s).unwrap();
            assert_eq!(ClosedLoopSpec::from_value(&v).unwrap(), spec);
        }
    }

    #[test]
    fn validate_names_the_offender() {
        let bad = ClosedLoopSpec::Coherence {
            window: 0,
            requests: 10,
            write_fraction: 0.5,
        };
        assert!(bad.validate(16).unwrap_err().contains("window"));
        let bad = ClosedLoopSpec::Coherence {
            window: 1,
            requests: 10,
            write_fraction: 1.5,
        };
        assert!(bad.validate(16).unwrap_err().contains("write_fraction"));
        let bad = ClosedLoopSpec::Barrier {
            rounds: 0,
            radix: 2,
            compute: 0,
        };
        assert!(bad.validate(16).unwrap_err().contains("round"));
        let ok = ClosedLoopSpec::Barrier {
            rounds: 2,
            radix: 2,
            compute: 0,
        };
        assert!(ok.validate(16).is_ok());
        assert!(ok.validate(1).is_err());
    }

    #[test]
    fn bookkeeping_helpers() {
        let coh = ClosedLoopSpec::Coherence {
            window: 4,
            requests: 100,
            write_fraction: 0.3,
        };
        assert!(!coh.needs_broadcast());
        assert_eq!(coh.code(), "coh-w4");
        let bar = ClosedLoopSpec::Barrier {
            rounds: 8,
            radix: 2,
            compute: 16,
        };
        assert!(bar.needs_broadcast());
        assert_eq!(bar.code(), "bar-r8x2");
    }
}
