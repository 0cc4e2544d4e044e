//! Simulator configuration.

use noc_telemetry::TelemetrySpec;
use serde::{Deserialize, Serialize};

/// Which simulation engine executes the run.
///
/// Both engines implement identical semantics and produce bit-identical
/// results under the same seed (enforced by the differential suite in
/// `tests/engine_equivalence.rs`); they differ only in how they spend
/// wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// The cycle-stepped reference engine: advances every cycle,
    /// scanning the active network. Simple, obviously correct — kept as
    /// the oracle the event engine is differentially tested against.
    Cycle,
    /// The event-driven engine: skips provably inert cycles (idle gaps
    /// between injections, blocked fixpoints) and jumps straight to the
    /// next arrival, grant boundary or watchdog tick, and flies
    /// uncontended messages in closed form. About 100× faster at low load;
    /// the default.
    #[default]
    EventDriven,
}

/// Run-length and fidelity parameters of a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; every run is deterministic in `(seed, config,
    /// workload, topology)`.
    pub seed: u64,
    /// Cycles discarded before measurement starts (transient removal).
    pub warmup_cycles: u64,
    /// Length of the tagging window: messages generated in
    /// `[warmup, warmup + measure)` contribute to the statistics.
    pub measure_cycles: u64,
    /// Extra cycles allowed after the measurement window for tagged
    /// messages to drain; exceeding it marks the run as saturated.
    pub drain_cycles: u64,
    /// Flit-buffer depth per virtual channel. Depth 2 sustains full
    /// throughput under the one-cycle credit loop; depth 1 is classic
    /// single-flit wormhole buffering (half throughput per channel).
    pub buffer_depth: u32,
    /// If the number of messages waiting at injection channels exceeds this
    /// limit the run stops early and reports saturation.
    pub backlog_limit: usize,
    /// Batch size for the batch-means confidence intervals.
    pub batch_size: u64,
    /// Which engine executes the run (event-driven by default; the cycle
    /// engine is the reference oracle).
    pub engine: EngineKind,
    /// Flight-recorder telemetry: event tracing and the utilization time
    /// series. Off by default — a disabled instrument costs one branch
    /// per tap and never perturbs results (the equivalence suite checks
    /// runs bit-identical with telemetry on and off). A configuration
    /// persisted before the telemetry subsystem has no such key: everything
    /// off, which is how those runs executed.
    #[serde(default)]
    pub telemetry: TelemetrySpec,
}

impl SimConfig {
    /// Small run for unit tests: fast, still long enough for stable means
    /// at the rates the tests use.
    pub fn quick(seed: u64) -> Self {
        SimConfig {
            seed,
            warmup_cycles: 3_000,
            measure_cycles: 15_000,
            drain_cycles: 40_000,
            buffer_depth: 2,
            backlog_limit: 20_000,
            batch_size: 32,
            engine: EngineKind::default(),
            telemetry: TelemetrySpec::default(),
        }
    }

    /// Figure-quality run used by the Fig. 6/7 regeneration harness.
    pub fn standard(seed: u64) -> Self {
        SimConfig {
            seed,
            warmup_cycles: 20_000,
            measure_cycles: 120_000,
            drain_cycles: 200_000,
            buffer_depth: 2,
            backlog_limit: 60_000,
            batch_size: 128,
            engine: EngineKind::default(),
            telemetry: TelemetrySpec::default(),
        }
    }

    /// This configuration with the given engine selected (builder style).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// This configuration with the given telemetry spec (builder style).
    pub fn with_telemetry(mut self, telemetry: TelemetrySpec) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// End of the tagging window.
    #[inline]
    pub fn measure_end(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles
    }

    /// Hard stop cycle.
    #[inline]
    pub fn deadline(&self) -> u64 {
        self.measure_end() + self.drain_cycles
    }

    /// Validate invariants (buffer depth and windows).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.buffer_depth == 0 {
            return Err(ConfigError::ZeroBufferDepth);
        }
        if self.measure_cycles == 0 {
            return Err(ConfigError::ZeroMeasureCycles);
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        // `measure_end` and `deadline` are sums the engines take on
        // every boundary check: they must not wrap.
        let deadline = self
            .warmup_cycles
            .checked_add(self.measure_cycles)
            .and_then(|end| end.checked_add(self.drain_cycles));
        if deadline.is_none() {
            return Err(ConfigError::WindowOverflow {
                warmup_cycles: self.warmup_cycles,
                measure_cycles: self.measure_cycles,
                drain_cycles: self.drain_cycles,
            });
        }
        Ok(())
    }
}

/// Why [`SimConfig::validate`] rejected a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `buffer_depth` is 0: no flit could ever be buffered.
    ZeroBufferDepth,
    /// `measure_cycles` is 0: nothing would be measured.
    ZeroMeasureCycles,
    /// `batch_size` is 0: the batch means would divide by zero.
    ZeroBatchSize,
    /// `warmup + measure + drain` does not fit a `u64`: the run's end of
    /// measurement or deadline would wrap around.
    WindowOverflow {
        /// The configured warmup.
        warmup_cycles: u64,
        /// The configured measurement window.
        measure_cycles: u64,
        /// The configured drain budget.
        drain_cycles: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBufferDepth => write!(f, "buffer_depth must be >= 1"),
            ConfigError::ZeroMeasureCycles => write!(f, "measure_cycles must be >= 1"),
            ConfigError::ZeroBatchSize => write!(f, "batch_size must be >= 1"),
            ConfigError::WindowOverflow {
                warmup_cycles,
                measure_cycles,
                drain_cycles,
            } => write!(
                f,
                "warmup_cycles {warmup_cycles} + measure_cycles {measure_cycles} + \
                 drain_cycles {drain_cycles} overflows a 64-bit cycle count"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::standard(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_compose() {
        let c = SimConfig::quick(1);
        assert_eq!(c.measure_end(), c.warmup_cycles + c.measure_cycles);
        assert_eq!(c.deadline(), c.measure_end() + c.drain_cycles);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut c = SimConfig::quick(1);
        c.buffer_depth = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::quick(1);
        c.measure_cycles = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::quick(1);
        c.batch_size = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn windows_whose_sum_overflows_are_rejected() {
        let mut c = SimConfig::quick(1);
        (c.warmup_cycles, c.measure_cycles) = (100, u64::MAX - 50);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::WindowOverflow {
                warmup_cycles: 100,
                ..
            })
        ));
        // The sum fits, the drain does not.
        let mut c = SimConfig::quick(1);
        c.drain_cycles = u64::MAX - c.measure_end() + 1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::WindowOverflow { .. })
        ));
        // Up to the last cycle a `u64` counts is fine.
        c.drain_cycles -= 1;
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.deadline(), u64::MAX);
    }

    #[test]
    fn standard_is_longer_than_quick() {
        assert!(SimConfig::standard(0).measure_cycles > SimConfig::quick(0).measure_cycles);
    }

    #[test]
    fn telemetry_defaults_off_and_builds_on() {
        use noc_telemetry::TraceMode;
        assert!(!SimConfig::quick(1).telemetry.enabled());
        assert!(!SimConfig::standard(1).telemetry.enabled());
        let cfg = SimConfig::quick(1).with_telemetry(TelemetrySpec::flight_recorder(512, 64));
        assert_eq!(cfg.telemetry.trace, TraceMode::Ring { capacity: 512 });
        assert_eq!(cfg.telemetry.util_window, 64);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn pre_telemetry_configs_still_parse() {
        // A config serialized before the telemetry field existed: the
        // missing key must deserialize as telemetry-off, not an error.
        let mut cfg = SimConfig::quick(9);
        cfg.telemetry = TelemetrySpec::off().with_util_window(32);
        let json = serde::json::to_string(&cfg);
        let legacy = json.replace(",\"telemetry\":{\"trace\":\"Off\",\"util_window\":32}", "");
        assert_ne!(legacy, json, "telemetry key was present and stripped");
        let back: SimConfig = serde::json::from_str(&legacy).unwrap();
        assert_eq!(back, SimConfig::quick(9), "defaults to telemetry off");
        // And a config that kept the key round-trips identically.
        let full: SimConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(full, cfg);
    }

    #[test]
    fn event_engine_is_the_default() {
        assert_eq!(SimConfig::quick(1).engine, EngineKind::EventDriven);
        assert_eq!(SimConfig::standard(1).engine, EngineKind::EventDriven);
        assert_eq!(
            SimConfig::quick(1).with_engine(EngineKind::Cycle).engine,
            EngineKind::Cycle
        );
    }
}
