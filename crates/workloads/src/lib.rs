//! # noc-workloads
//!
//! Traffic specification and experiment plumbing for the IPDPS 2009
//! reproduction.
//!
//! * [`workload`] — the [`Workload`] description shared by the analytical
//!   model and the simulator: message length, per-node Poisson generation
//!   rate, multicast fraction `α` and the fixed per-node multicast
//!   destination sets (the paper fixes destination sets at the beginning of
//!   the simulation, §4).
//! * [`destinations`] — destination-set generators: uniformly random sets
//!   (Fig. 6), localized same-rim sets (Fig. 7), broadcast and explicit
//!   sets.
//! * [`traffic`] — temporal arrival-process specifications
//!   ([`TrafficSpec`]): the paper's memoryless geometric source, bursty
//!   on/off sources with mean-rate matching, and deterministic trace
//!   replay.
//! * [`sweep`] — message-rate sweeps for the latency-vs-rate figures.
//! * [`table`] — minimal CSV/aligned-table writers (no external deps).
//! * [`parallel`] — an order-preserving parallel map on
//!   `std::thread::scope` (rayon is not in the approved offline crate
//!   set; this is the minimal substitute the sweep executors use).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod destinations;
pub mod parallel;
pub mod pattern;
pub mod sweep;
pub mod table;
pub mod traffic;
pub mod workload;

pub use destinations::DestinationSets;
pub use parallel::parallel_map;
pub use pattern::{PatternError, UnicastPattern};
pub use sweep::{RateSweep, SweepError};
pub use traffic::{TraceEntry, TraceKind, TrafficError, TrafficSpec};
pub use workload::{Workload, WorkloadError};

// The routing selector lives next to the stream constructions in
// `noc_topology::routing`; re-exported here because it is set on
// [`Workload`] exactly like the traffic/pattern specs above.
pub use noc_topology::{RoutingError, RoutingSpec};
