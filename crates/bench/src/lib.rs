//! # noc-bench
//!
//! The experiment layer of the IPDPS 2009 reproduction: the declarative
//! [`Scenario`] specification, the [`Runner`] that executes any scenario
//! end-to-end, the workspace-level [`Error`] type, and the `noc-bench`
//! figure-regeneration binary.
//!
//! ## The Scenario API
//!
//! Every experiment in the workspace is one shape: `(topology, workload,
//! sweep, engine, model options) → latency curves`. [`Scenario`] captures
//! that shape as serializable data (any registry topology, any traffic
//! pattern, absolute or saturation-relative sweeps, replicates);
//! [`Runner`] executes it with one shared [`noc_sim::SimPlan`] across all
//! sweep points and replicates, parallel workers, an optional
//! analytical-model overlay and structured sinks (aligned table, CSV,
//! JSON, progress callbacks). `(scenario) → results` is deterministic:
//! thread counts and callbacks never change the numbers.
//!
//! ## The `noc-bench` binary
//!
//! `noc-bench <exhibit> [flags]` (`src/main.rs`; flags in [`cli`])
//! dispatches through one static table; each exhibit regenerates one
//! figure or ablation of the paper, `noc-bench list` prints the names:
//!
//! | exhibit | regenerates |
//! |---|---|
//! | `fig2-topology`      | Fig. 2 — Quarc vs Spidergon topology (DOT/ASCII) |
//! | `fig3-broadcast`     | Fig. 3 — broadcast streams in a 16-node Quarc |
//! | `fig6`               | Fig. 6 — model vs simulation, random destinations |
//! | `fig7`               | Fig. 7 — model vs simulation, localized destinations |
//! | `ablation-correction`| Eq. 3/Eq. 6 formula variants |
//! | `ablation-ports`     | E\[max\] combination vs largest-subset heuristic |
//! | `spidergon-baseline` | Quarc true multicast vs Spidergon unicast train |
//! | `mesh-extension`     | the paper's future work: multi-port mesh/torus |
//! | `hypercube-extension`| the model on the hypercube family that motivated it |
//! | `fig-burstiness`     | where the Poisson assumption breaks (burst-length sweep) |
//! | `fig-routing`        | where the path-based assumption breaks (routing-scheme sweep) |
//! | `fig-bounds`         | network-calculus bound vs simulation (backend cross-validation) |
//! | `fig-closedloop`     | closed-loop latency/throughput knee (coherence window sweep) |
//! | `fig-heatmap`        | flight-recorder exhibit: per-link congestion heatmaps + Perfetto flit traces |
//! | `fig-scale`          | scale-axis exhibit: implicit MIN/clustered ladder up to 64k nodes under a peak-RSS budget |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod error;
pub mod harness;
pub mod runner;
pub mod scenario;

pub use error::{Error, Result};
pub use harness::{default_panels, full_panels, FigureConfig, Pattern};
pub use runner::{PointResult, Progress, Runner, ScenarioResult};
pub use scenario::{MulticastPattern, Scenario, SweepSpec, WorkloadSpec};
