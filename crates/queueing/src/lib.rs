//! # noc-queueing
//!
//! Queueing-theory and statistics substrate for the IPDPS 2009
//! reproduction.
//!
//! * [`mg1`] — M/G/1 waiting times (Pollaczek–Khinchine, paper Eq. 3–5),
//!   including the paper's `σ = x̄ − msg` variance heuristic and the
//!   literal-as-printed variant of Eq. 3 for ablation.
//! * [`expmax`] — order statistics of independent exponential random
//!   variables: the expected minimum (Eq. 9–10) and the expected maximum
//!   via both the paper's memoryless recursion (Eq. 11–12) and the
//!   closed-form inclusion–exclusion identity.
//! * [`distribution`] — the full distribution of the maximum (CDF,
//!   quantiles, sampling): the paper derives only the expectation; the
//!   distribution enables tail-latency (p95/p99) predictions.
//! * [`fixed_point`] — component-ordered Gauss–Seidel for monotone fixed
//!   points over a sparse dependency graph, with divergence detection,
//!   used by the per-channel service-time recursion (Eq. 6).
//! * [`network_calculus`] — deterministic (σ, ρ) arrival envelopes and
//!   worst-case FIFO delay bounds (the substrate of the
//!   distribution-free analytical backend; Farhi & Gaujal lineage).
//! * [`stats`] — Welford accumulators and batch-means confidence intervals
//!   for the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod expmax;
pub mod fixed_point;
pub mod mg1;
pub mod network_calculus;
pub mod stats;

pub use distribution::MaxOfExponentials;
pub use expmax::{expected_max_exponentials, expected_max_recursive, expected_min_exponentials};
pub use fixed_point::{Components, FixedPoint, FixedPointError};
pub use mg1::{WaitingFormula, MG1};
pub use stats::{student_t975, BatchMeans, Welford};
