//! # noc-app
//!
//! Closed-loop application workloads for the IPDPS 2009 reproduction: pure
//! per-node protocol state machines that *react to deliveries* instead of
//! injecting at a fixed rate.
//!
//! Open-loop traffic (everything in `noc-workloads`) decides injection
//! times up front; the network's behaviour never feeds back into the
//! sources. Real application traffic is closed-loop — requests spawn
//! replies, coherence operations fan out invalidations and block on acks —
//! which is exactly the workload class the paper's M/G/1 model structurally
//! cannot describe. This crate supplies that layer as *pure models* in the
//! style of openmina's state-machine experiments:
//!
//! * [`ClosedLoopSpec`] — the serializable description of a protocol,
//!   embedded in `noc_bench`'s `WorkloadSpec` and the only way to name
//!   one. Two ship: invalidation-based *coherence* (read/write requests
//!   to random homes, multicast invalidation fan-out, ack collection, a
//!   bounded window of outstanding requests per node) and a *barrier*
//!   (radix-`r` fan-in rounds with randomized compute delays, exercising
//!   the timeout path, released by a root multicast).
//! * [`Machines`] — what [`ClosedLoopSpec::build`] returns: one machine
//!   per node, each a pure function `(state, event) -> (state',
//!   emissions)`. All randomness comes from a seeded per-node
//!   [`rand::rngs::SmallRng`] ([`app_rng`]), so a protocol replays
//!   bit-identically on the cycle and event engines. Machines never touch
//!   the network: they return [`Emission`] values and the engine side
//!   (the dispatcher, `noc_sim::ClosedLoopDriver`) performs them.
//!
//! The strict model/dispatcher split is the determinism story: every
//! side effect is data ([`Emission`]), every input is data ([`AppEvent`]),
//! and both engines feed the same event sequence in the same order.
//!
//! Measurement of a protocol run lives on the engine side:
//! `noc_sim::ClosedLoopResults` summarises request completion times both
//! as Welford moments and as a streaming log-bucketed histogram
//! (`noc_telemetry::LogHistogram`), so closed-loop exhibits report tail
//! quantiles (P50/P95/P99) next to the mean — per replicate and pooled
//! across replicates by the bench runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod coherence;
pub mod protocol;
pub mod spec;

pub use protocol::{app_rng, AppEvent, Emission, Machines, Payload};
pub use spec::ClosedLoopSpec;
