//! M/G/1 channel queues (paper §2.1, Eq. 3–5).
//!
//! The analytical model views the network as a network of queues where each
//! channel is an M/G/1 queue. The mean waiting time of an M/G/1 queue with
//! arrival rate `λ`, mean service time `x̄` and service-time variance `σ²`
//! is the Pollaczek–Khinchine formula
//!
//! ```text
//! W = λ · E[S²] / (2(1 − ρ)) = ρ x̄ (1 + σ²/x̄²) / (2(1 − ρ)),   ρ = λ x̄.
//! ```
//!
//! Equation 3 of the paper prints the prefactor as `λρ / (2(1 − λx̄))`,
//! which is dimensionally a rate rather than a time; the cited Kleinrock
//! reference and the rest of the wormhole-model literature (Draper–Ghosh,
//! Ould-Khaoua) use the standard P–K form, which is the default here. The
//! literal printed form is retained as [`WaitingFormula::LiteralEq3`] so
//! the ablation bench can quantify the difference.
//!
//! The model approximates the service-time variance with the heuristic
//! `σ = x̄ − msg` (Eq. 5): service time varies between the pure message
//! drain time `msg` and the blocking-inflated mean `x̄`.

use serde::{Deserialize, Serialize};

/// Which algebraic form of the M/G/1 waiting time to use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaitingFormula {
    /// Standard Pollaczek–Khinchine: `W = ρ x̄ (1 + σ²/x̄²) / (2(1−ρ))`.
    #[default]
    PollaczekKhinchine,
    /// Equation 3 exactly as printed in the paper:
    /// `W = λ ρ (1 + σ²/x̄²) / (2(1−ρ))`. Dimensionally inconsistent; kept
    /// for the ablation study only.
    LiteralEq3,
}

/// An M/G/1 queue described by its arrival rate and service moments.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MG1 {
    /// Mean arrival rate `λ` (messages per cycle).
    pub lambda: f64,
    /// Mean service time `x̄` (cycles).
    pub mean_service: f64,
    /// Service-time standard deviation `σ` (cycles).
    pub sigma: f64,
}

impl MG1 {
    /// Construct a queue with explicit moments.
    pub fn new(lambda: f64, mean_service: f64, sigma: f64) -> Self {
        debug_assert!(lambda >= 0.0 && mean_service >= 0.0 && sigma >= 0.0);
        MG1 {
            lambda,
            mean_service,
            sigma,
        }
    }

    /// Construct a queue using the paper's variance heuristic
    /// `σ = x̄ − msg` (Eq. 5), clamped at zero when blocking is absent.
    pub fn with_paper_sigma(lambda: f64, mean_service: f64, msg_len: f64) -> Self {
        MG1::new(lambda, mean_service, (mean_service - msg_len).max(0.0))
    }

    /// Server utilisation `ρ = λ x̄` (Eq. 4).
    #[inline]
    pub fn rho(&self) -> f64 {
        self.lambda * self.mean_service
    }

    /// Mean waiting time in queue (time from arrival to start of service).
    ///
    /// Returns `f64::INFINITY` when saturated.
    pub fn waiting(&self, formula: WaitingFormula) -> f64 {
        let rho = self.rho();
        if self.lambda == 0.0 || self.mean_service == 0.0 {
            return 0.0;
        }
        if rho >= 1.0 {
            return f64::INFINITY;
        }
        let cv2 = (self.sigma / self.mean_service).powi(2);
        match formula {
            WaitingFormula::PollaczekKhinchine => {
                rho * self.mean_service * (1.0 + cv2) / (2.0 * (1.0 - rho))
            }
            WaitingFormula::LiteralEq3 => self.lambda * rho * (1.0 + cv2) / (2.0 * (1.0 - rho)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn zero_load_waits_nothing() {
        let q = MG1::new(0.0, 32.0, 0.0);
        assert_eq!(q.waiting(WaitingFormula::PollaczekKhinchine), 0.0);
        assert_eq!(q.rho(), 0.0);
    }

    #[test]
    fn deterministic_service_matches_md1() {
        // M/D/1: W = ρ x̄ / (2(1-ρ)).
        let q = MG1::new(0.01, 32.0, 0.0);
        let rho = 0.32;
        let expected = rho * 32.0 / (2.0 * (1.0 - rho));
        assert!(close(
            q.waiting(WaitingFormula::PollaczekKhinchine),
            expected,
            1e-12
        ));
    }

    #[test]
    fn exponential_service_matches_mm1() {
        // M/M/1: σ = x̄, so W = ρ x̄ / (1-ρ).
        let x = 20.0;
        let lambda = 0.02;
        let q = MG1::new(lambda, x, x);
        let rho = lambda * x;
        let expected = rho * x / (1.0 - rho);
        assert!(close(
            q.waiting(WaitingFormula::PollaczekKhinchine),
            expected,
            1e-12
        ));
    }

    #[test]
    fn saturation_reports_infinity() {
        let q = MG1::new(0.05, 32.0, 0.0);
        assert!(q.rho() >= 1.0);
        assert!(q.waiting(WaitingFormula::PollaczekKhinchine).is_infinite());
    }

    #[test]
    fn paper_sigma_heuristic_clamps_at_zero() {
        let q = MG1::with_paper_sigma(0.001, 30.0, 32.0);
        assert_eq!(q.sigma, 0.0);
        let q2 = MG1::with_paper_sigma(0.001, 40.0, 32.0);
        assert_eq!(q2.sigma, 8.0);
    }

    #[test]
    fn waiting_is_monotone_in_load() {
        let mut prev = 0.0;
        for i in 1..30 {
            let lambda = i as f64 * 0.001;
            let q = MG1::with_paper_sigma(lambda, 32.0, 32.0);
            let w = q.waiting(WaitingFormula::PollaczekKhinchine);
            assert!(w >= prev, "W must increase with load");
            prev = w;
        }
    }

    #[test]
    fn literal_eq3_differs_by_lambda_over_xbar() {
        // The printed form scales the P-K value by λ/x̄ — the ablation
        // quantifies how wrong that is; here we just check the relation.
        let q = MG1::new(0.004, 25.0, 5.0);
        let pk = q.waiting(WaitingFormula::PollaczekKhinchine);
        let lit = q.waiting(WaitingFormula::LiteralEq3);
        assert!(close(lit, pk * q.lambda / q.mean_service, 1e-12));
    }
}
