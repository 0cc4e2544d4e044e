//! # noc-telemetry
//!
//! Flight-recorder observability for the simulators: answers *why* a run
//! behaved the way it did, not just *what* its means were.
//!
//! Three independent instruments, all engine-agnostic and all disabled by
//! default (a disabled instrument costs one predictable branch per tap):
//!
//! * **Event tracing** — [`TraceRecorder`] receives flit-level
//!   [`TraceEvent`]s (injections, channel grants/releases, absorptions,
//!   op completions, stall cycles). Under [`TraceMode::Full`] it keeps
//!   everything; under [`TraceMode::Ring`] it keeps the most recent
//!   `capacity` events so a saturated run's trace stays bounded — a
//!   flight recorder. The drained [`TraceLog`] exports to
//!   Chrome-trace/Perfetto JSON ([`chrome_trace`]) with one track per
//!   channel and per node.
//! * **Streaming quantiles** — [`LogHistogram`], an HDR-style
//!   log-linear histogram: exact counts below 64, bounded relative error
//!   (≤ 1/32 per bucket) above, mergeable across replicates by pure
//!   count addition. Replaces Welford-only latency summaries wherever a
//!   tail (P50/P95/P99/max) matters.
//! * **Utilization time series** — [`UtilSeries`], windowed per-channel
//!   flit counts over the measurement window, the substrate for
//!   congestion heatmaps. Integer counts, so the two engines' series are
//!   comparable bit-for-bit.
//!
//! What is recorded is controlled by the serializable [`TelemetrySpec`]
//! carried on the simulator configuration; the engines build the
//! recorder and the series from the spec at construction time. The
//! overhead policy is strict: with the spec at its
//! [`TelemetrySpec::default`] (everything off) every tap reduces to an
//! `Option` check on a `None`, and run results are bit-identical to a
//! build without the taps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod perfetto;
mod spec;
mod trace;
mod util;

pub use hist::LogHistogram;
pub use perfetto::{chrome_trace, validate_chrome_trace, TrackNames};
pub use spec::{TelemetrySpec, TraceMode};
pub use trace::{TraceEvent, TraceEventKind, TraceLog, TraceRecorder};
pub use util::UtilSeries;
