//! Model configuration.

use crate::backend::BackendSpec;
use noc_queueing::mg1::WaitingFormula;
use serde::{Deserialize, Serialize};

/// The self-traffic correction factor applied to the waiting time a
/// message sees at the next channel (Eq. 6).
///
/// A message moving from channel `i` to channel `j` does not queue behind
/// its own traffic stream; the model discounts `W_j` accordingly. The
/// printed equation reads `(1 − (λ_{i→j}/λ_j)·P_{i→j})`, which double-counts
/// the branching probability; the conventional form in this model family
/// discounts by the fraction of `j`'s arrivals that originate from `i`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceCorrection {
    /// `1 − λ_{i→j}/λ_j` — discount `W_j` by the fraction of `j`'s traffic
    /// coming from `i` (default; the standard reading).
    #[default]
    SelfExcluding,
    /// `1 − (λ_{i→j}/λ_j)·P_{i→j}` — Eq. 6 exactly as printed.
    LiteralEq6,
    /// No correction (`W_j` used in full) — ablation baseline.
    None,
}

impl ServiceCorrection {
    /// The multiplicative factor applied to `W_j`.
    ///
    /// `frac_from_prev` is `λ_{i→j}/λ_j` and `p_next` is `P_{i→j}`.
    #[inline]
    pub fn factor(self, frac_from_prev: f64, p_next: f64) -> f64 {
        let f = match self {
            ServiceCorrection::SelfExcluding => 1.0 - frac_from_prev,
            ServiceCorrection::LiteralEq6 => 1.0 - frac_from_prev * p_next,
            ServiceCorrection::None => 1.0,
        };
        f.clamp(0.0, 1.0)
    }
}

/// All model fidelity knobs. (Files written while the options still
/// carried the solver's `fixed_point` settings parse; the key is ignored
/// and the service recursion uses `FixedPoint::default()`.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelOptions {
    /// Which algebraic form of the M/G/1 waiting time to use (Eq. 3).
    pub formula: WaitingFormula,
    /// Self-traffic correction in the service recursion (Eq. 6).
    pub correction: ServiceCorrection,
    /// Whether multicast clones at intermediate targets add load to the
    /// ejection channels. Physically the clone occupies a dedicated
    /// ejection channel in lock-step with its input link and never queues,
    /// so the default is `false`; `true` is an ablation.
    pub clone_ejection_load: bool,
    /// Which analytical backend evaluates the model and anchors
    /// saturation-relative sweeps ([`crate::backend`]). The default is
    /// the paper's M/G/1 model, keeping historical scenarios and result
    /// files byte-identical — and option files written before the selector
    /// existed readable: a missing key means the M/G/1 model, which is
    /// what those files meant.
    #[serde(default)]
    pub backend: BackendSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_factors() {
        let frac = 0.4;
        let p = 0.5;
        assert_eq!(ServiceCorrection::SelfExcluding.factor(frac, p), 0.6);
        assert_eq!(ServiceCorrection::LiteralEq6.factor(frac, p), 0.8);
        assert_eq!(ServiceCorrection::None.factor(frac, p), 1.0);
    }

    #[test]
    fn factor_is_clamped() {
        assert_eq!(ServiceCorrection::SelfExcluding.factor(1.5, 1.0), 0.0);
        assert_eq!(ServiceCorrection::SelfExcluding.factor(-0.2, 1.0), 1.0);
    }

    #[test]
    fn defaults_are_the_standard_reading() {
        let o = ModelOptions::default();
        assert_eq!(o.formula, WaitingFormula::PollaczekKhinchine);
        assert_eq!(o.correction, ServiceCorrection::SelfExcluding);
        assert!(!o.clone_ejection_load);
        assert_eq!(o.backend, BackendSpec::MgOne);
    }

    #[test]
    fn options_round_trip_with_backend() {
        let opts = ModelOptions {
            backend: BackendSpec::NetworkCalculus,
            ..ModelOptions::default()
        };
        let json = serde::json::to_string_pretty(&opts);
        let back: ModelOptions = serde::json::from_str(&json).expect("round trip parses");
        assert_eq!(back, opts);
    }

    #[test]
    fn pre_backend_option_files_stay_readable() {
        // Serialized before the backend selector existed: the missing key
        // must mean the M/G/1 model, not a parse error. The solver
        // settings of that time are gone; their key is ignored.
        let legacy = r#"{
            "formula": "PollaczekKhinchine",
            "correction": "SelfExcluding",
            "clone_ejection_load": false,
            "fixed_point": {
                "tolerance": 1e-9, "damping": 0.7,
                "max_iterations": 10000, "bound": 1e12
            }
        }"#;
        let opts: ModelOptions = serde::json::from_str(legacy).expect("legacy files parse");
        assert_eq!(opts, ModelOptions::default());
    }
}
