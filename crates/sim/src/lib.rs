//! # noc-sim
//!
//! A flit-level wormhole NoC simulator — the reproduction's substitute for
//! the paper's OMNET++ discrete-event simulator (§4). One wormhole kernel
//! (`fabric.rs`: cv state, arbitration, the four phases of a cycle) runs
//! inside one [`Engine`] under the time-advance policy its [`SimConfig`]
//! names ([`EngineKind`]):
//!
//! * [`EngineKind::EventDriven`] (default) — skips provably inert
//!   cycles, jumps between injections, grants and run boundaries, and
//!   applies an uncontended message's whole transit in closed form.
//!   About 100× faster at the low-load sweep points the Fig. 6/7
//!   validation protocol spends most of its time on
//!   (`sim.cycle.event_over_cycle.low` on the benchmark ledger), at parity
//!   past saturation.
//! * [`EngineKind::Cycle`] — the reference oracle: simulates every
//!   cycle and polls every node. Kept deliberately simple; the
//!   differential suite (`tests/engine_equivalence.rs`) requires the
//!   event policy to reproduce its runs bit-for-bit under a shared seed.
//!
//! Construct with [`Engine::new`], or with [`build_engine_with_plan`] on
//! a [`SimPlan`] shared across runs.
//!
//! ## Model of a node (paper Fig. 5)
//!
//! ```text
//!            +--------+   m injection channels   +--------+
//!  Poisson   | passive| ========================>|        |==> links out
//!  source -->| queue  |                          | router |
//!            +--------+                          |        |<== links in
//!                 +------ sink <=================+--------+
//!                          m ejection channels
//! ```
//!
//! * The **source** generates unicast and multicast messages according to a
//!   Poisson process; the **passive queue** holds them per class and feeds
//!   the router through the injection channels in creation-time order.
//! * The **router** is all-port and non-preemptive: a channel (virtual
//!   channel of a physical link) is owned by one message from the header's
//!   arbitration win until the tail leaves its buffer; released channels are
//!   re-granted to waiting headers in FIFO order, exactly as described in
//!   the paper's §4.
//! * Multicast streams **absorb-and-forward**: at every target along the
//!   path the flits are cloned to the local sink in the same cycle they are
//!   forwarded along the rim (§3.3.2).
//!
//! ## Timing conventions
//!
//! One flit crosses one channel per cycle; each physical channel transmits
//! at most one flit per cycle shared across its virtual channels
//! (round-robin). Buffer space is checked against the *previous* cycle's
//! occupancy (credit loop of one cycle), so the default buffer depth of 2
//! flits sustains full throughput. Zero-load latency of a message of `L`
//! flits over a path with `H+2` channel traversals (injection + `H` links +
//! ejection) is exactly `L + H + 1` cycles, matching the analytical model's
//! `msg + D` with `D = path.hop_count()`.
//!
//! ## Traffic generation
//!
//! Each node's source is an [`ArrivalStream`]: a private RNG plus the
//! process of the workload's [`noc_workloads::TrafficSpec`] — memoryless
//! geometric gaps (the paper's Poisson assumption, the default), bursty
//! on/off sources with the long-run mean matched to the nominal rate, or
//! deterministic replay of a recorded trace ([`record_trace`]). Generation is
//! open-loop and O(arrivals): processes never observe network state and
//! draw randomness per arrival, never per cycle. Under the geometric
//! spec the streams are draw-for-draw identical to the pre-subsystem
//! hard-coded source, so existing seeds and golden results keep their
//! meaning.
//!
//! ## Measurement protocol
//!
//! Messages generated inside the measurement window are tagged; the run
//! finishes when every tagged message (and every tagged multicast
//! operation) has been absorbed, or declares saturation when the drain
//! budget or backlog limit is exceeded. Multicast latency is the paper's
//! definition: generation until the last flit is absorbed at the *last*
//! destination over all port streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod closed_loop;
pub mod config;
mod engine;
pub mod engine_api;
mod event_engine;
mod fabric;
mod message;
mod metrics;
pub mod plan;
pub mod results;
pub mod schedule;

pub use config::{ConfigError, EngineKind, SimConfig};
pub use engine_api::{build_engine_with_plan, AuditError, Engine, EngineAudit};
pub use message::{MsgId, OpId};
pub use plan::{PlanError, SimPlan};
pub use results::{ClosedLoopResults, EngineCounters, LatencyHists, LatencyStats, SimResults};
pub use schedule::{record_trace, Arrival, ArrivalStream};

// Re-exported so engine users can name a protocol without depending on
// `noc-app` directly (the closed-loop API surface lives on `Engine`).
pub use noc_app::ClosedLoopSpec;

// Re-exported so telemetry consumers (the bench runner, figure bins) can
// configure the flight recorder and read its artifacts without depending
// on `noc-telemetry` directly.
pub use noc_telemetry::{
    chrome_trace, validate_chrome_trace, LogHistogram, TelemetrySpec, TraceEvent, TraceEventKind,
    TraceLog, TraceMode, TrackNames, UtilSeries,
};
