//! Message-rate sweeps.
//!
//! The figures of the paper plot latency against the per-node message
//! generation rate, swept from near zero to the onset of saturation.
//! [`RateSweep`] builds such grids. Constructors validate their input and
//! return [`SweepError`] — a malformed experiment specification must
//! surface as a typed error the scenario runner can report, not a panic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised when constructing a [`RateSweep`].
#[derive(Clone, Debug, PartialEq)]
pub enum SweepError {
    /// A rate was non-finite, zero or negative.
    InvalidRate(f64),
    /// Explicit rates must be strictly ascending.
    NotAscending {
        /// The first out-of-order pair.
        prev: f64,
        /// The rate that failed to exceed `prev`.
        next: f64,
    },
    /// Linear/geometric grids need at least two points.
    TooFewPoints(usize),
    /// Grid bounds must satisfy `0 < lo < hi`.
    InvalidBounds {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidRate(r) => {
                write!(f, "sweep rate {r} must be finite and positive")
            }
            SweepError::NotAscending { prev, next } => {
                write!(
                    f,
                    "sweep rates must strictly ascend ({next} follows {prev})"
                )
            }
            SweepError::TooFewPoints(n) => {
                write!(f, "sweep needs at least 2 points, got {n}")
            }
            SweepError::InvalidBounds { lo, hi } => {
                write!(f, "sweep bounds must satisfy 0 < lo < hi, got [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// A set of generation rates to evaluate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RateSweep {
    rates: Vec<f64>,
}

impl RateSweep {
    /// Explicit list of rates (must be positive and ascending).
    pub fn explicit(rates: Vec<f64>) -> Result<Self, SweepError> {
        for &r in &rates {
            if !r.is_finite() || r <= 0.0 {
                return Err(SweepError::InvalidRate(r));
            }
        }
        if let Some(w) = rates.windows(2).find(|w| w[0] >= w[1]) {
            return Err(SweepError::NotAscending {
                prev: w[0],
                next: w[1],
            });
        }
        Ok(RateSweep { rates })
    }

    /// `points` rates spaced linearly over `[lo, hi]` inclusive.
    pub fn linear(lo: f64, hi: f64, points: usize) -> Result<Self, SweepError> {
        check_grid(lo, hi, points)?;
        let step = (hi - lo) / (points - 1) as f64;
        Ok(RateSweep {
            rates: (0..points).map(|i| lo + step * i as f64).collect(),
        })
    }

    /// `points` rates spaced geometrically over `[lo, hi]` inclusive —
    /// denser near zero where latency changes slowly, mirroring how the
    /// paper's curves sample the low-load region.
    pub fn geometric(lo: f64, hi: f64, points: usize) -> Result<Self, SweepError> {
        check_grid(lo, hi, points)?;
        let ratio = (hi / lo).powf(1.0 / (points - 1) as f64);
        Ok(RateSweep {
            rates: (0..points).map(|i| lo * ratio.powi(i as i32)).collect(),
        })
    }

    /// Rates as a slice.
    #[inline]
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of sweep points.
    #[inline]
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// `true` when the sweep is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }
}

fn check_grid(lo: f64, hi: f64, points: usize) -> Result<(), SweepError> {
    if points < 2 {
        return Err(SweepError::TooFewPoints(points));
    }
    if !lo.is_finite() || !hi.is_finite() || lo <= 0.0 || hi <= lo {
        return Err(SweepError::InvalidBounds { lo, hi });
    }
    Ok(())
}

impl IntoIterator for RateSweep {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.rates.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_covers_endpoints() {
        let s = RateSweep::linear(0.001, 0.009, 5).unwrap();
        assert_eq!(s.len(), 5);
        assert!((s.rates()[0] - 0.001).abs() < 1e-15);
        assert!((s.rates()[4] - 0.009).abs() < 1e-15);
        assert!((s.rates()[2] - 0.005).abs() < 1e-15);
    }

    #[test]
    fn geometric_is_multiplicative() {
        let s = RateSweep::geometric(0.001, 0.016, 5).unwrap();
        let r = s.rates();
        for w in r.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn explicit_rejects_unsorted() {
        assert_eq!(
            RateSweep::explicit(vec![0.01, 0.005]),
            Err(SweepError::NotAscending {
                prev: 0.01,
                next: 0.005
            })
        );
    }

    #[test]
    fn explicit_rejects_bad_rates() {
        assert_eq!(
            RateSweep::explicit(vec![0.0, 0.1]),
            Err(SweepError::InvalidRate(0.0))
        );
        assert!(matches!(
            RateSweep::explicit(vec![-0.2]),
            Err(SweepError::InvalidRate(_))
        ));
        assert!(matches!(
            RateSweep::explicit(vec![f64::NAN]),
            Err(SweepError::InvalidRate(_))
        ));
        assert!(RateSweep::explicit(vec![]).unwrap().is_empty());
    }

    #[test]
    fn grids_reject_bad_parameters() {
        assert_eq!(
            RateSweep::linear(0.001, 0.01, 1),
            Err(SweepError::TooFewPoints(1))
        );
        assert_eq!(
            RateSweep::linear(0.0, 0.01, 4),
            Err(SweepError::InvalidBounds { lo: 0.0, hi: 0.01 })
        );
        assert!(RateSweep::linear(0.01, 0.01, 4).is_err());
        assert!(RateSweep::geometric(0.01, 0.002, 4).is_err());
        assert!(RateSweep::geometric(f64::NAN, 0.002, 4).is_err());
    }

    #[test]
    fn errors_display_usefully() {
        let e = RateSweep::linear(0.5, 0.1, 3).unwrap_err();
        assert!(e.to_string().contains("0 < lo < hi"));
        let e = RateSweep::explicit(vec![0.2, 0.1]).unwrap_err();
        assert!(e.to_string().contains("ascend"));
    }

    #[test]
    fn into_iter_yields_all() {
        let s = RateSweep::linear(0.001, 0.002, 2).unwrap();
        let v: Vec<f64> = s.into_iter().collect();
        assert_eq!(v.len(), 2);
    }
}
