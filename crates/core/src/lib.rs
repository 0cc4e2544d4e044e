//! # quarc-core — the paper's analytical model
//!
//! Reproduction of *"A performance model of multicast communication in
//! wormhole-routed networks on-chip"* (Moadeli & Vanderbauwhede, IPDPS
//! 2009): an analytical model predicting the average latency of unicast and
//! multicast traffic in wormhole-routed direct networks whose routers are
//! asynchronous **multi-port** routers.
//!
//! ## Model structure
//!
//! Three steps, each written once:
//!
//! 1. **The route walk** ([`rates`]) — the only place that knows how a
//!    workload becomes routes. Every channel (injection, link, ejection)
//!    receives a Poisson arrival rate `λ_j` accumulated from the
//!    deterministic routes of the unicast traffic and the fixed multicast
//!    streams, together with the next-channel decomposition `λ_{i→j}`
//!    needed by Eq. 6 and, per edge, the unicast pattern weight crossing
//!    it. Routes do not depend on the generation rate, so the walk is a
//!    table ([`RoutedLoads`]) a whole sweep asks for its loads at a rate.
//! 2. **Service times** ([`service`]) — each channel is an M/G/1 queue
//!    (Eq. 3–5); mean service times satisfy the downstream recursion
//!    (Eq. 6)
//!    `x_i = Σ_j P_{i→j}·((1 − corr_{ij})·W_j + x_j + 1)`,
//!    solved over the channel-successor graph: back-substitution where
//!    it is acyclic, undamped Gauss–Seidel sweeps over its cyclic
//!    components. Ejection channels serve in `msg` cycles.
//! 3. **Assembly** ([`model`]) — latencies are folds of the solved
//!    per-hop waits `w_l` over the walked loads. Unicast ([`unicast`],
//!    Eq. 7): `L(s,d) = Σ_l w_l + msg + D`, averaged over all pairs
//!    (§2.1) as a dot product with the per-edge weights. Multicast
//!    ([`multicast`]): per source and port, the total path waiting
//!    `Ω_{j,c}` defines an exponential with rate `µ_{j,c} = 1/Ω_{j,c}`
//!    (Eq. 8); the multicast waiting time is the expected **maximum** of
//!    the `m` port exponentials (Eq. 12–13), and `L_j = W_j + msg + D_j`
//!    with `D_j = max_c D_{j,c}` (Eq. 14–15), averaged over nodes
//!    (Eq. 16).
//!
//! ## Fidelity knobs
//!
//! The printed paper leaves two formulas ambiguous; [`ModelOptions`]
//! exposes both choices so the `ablation-correction` exhibit can quantify
//! them: the M/G/1 prefactor ([`WaitingFormula`]) and the
//! self-traffic correction factor of Eq. 6 ([`ServiceCorrection`]).
//!
//! ## Backends
//!
//! The M/G/1 pipeline above is one of two interchangeable analytical
//! backends behind the [`ModelBackend`] trait ([`backend`]): the paper's
//! mean-value model ([`MgOneBackend`]) and a distribution-free
//! network-calculus bound ([`NetworkCalculusBackend`], [`calculus`]) that
//! stays sound for bursty traffic and every routing scheme. The bound
//! runs the same three steps with the fluid wait in step 2, the delay
//! bound `D_j` for `w_l` and a sum for the maximum in step 3. The
//! serializable [`BackendSpec`] selects one per scenario.
//!
//! Each question has one entry. Latency at a rate:
//! [`ModelBackend::evaluate`], or [`ModelBackend::evaluate_over`] on
//! routes already walked. The rate at which a channel saturates:
//! [`ModelBackend::max_sustainable_rate`] or
//! [`ModelBackend::max_rate_over`]. Channel loads:
//! [`RoutedLoads::walk`], then [`RoutedLoads::at`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod calculus;
pub mod model;
pub mod multicast;
pub mod options;
pub mod rates;
pub mod saturation;
pub mod service;
pub mod unicast;

pub use backend::{BackendSpec, MgOneBackend, ModelBackend, NetworkCalculusBackend, ALL_BACKENDS};
pub use calculus::ChannelBounds;
pub use model::{AnalyticModel, ModelError, Prediction};
pub use noc_queueing::mg1::WaitingFormula;
pub use options::{ModelOptions, ServiceCorrection};
pub use rates::{ChannelLoads, RoutedLoads};
pub use saturation::bisect_max_rate;
pub use service::ServiceSolution;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod walk_count;
