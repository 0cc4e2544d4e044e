//! Simulation statistics: online moments and batch means.
//!
//! The simulator reports latency summaries through these accumulators.
//! [`Welford`] gives numerically stable online mean/variance; [`BatchMeans`]
//! wraps it with the classic batch-means method to produce confidence
//! intervals from autocorrelated steady-state output. Latency
//! *distributions* are recorded by `noc-telemetry`'s `LogHistogram`.

use serde::{Deserialize, Serialize};

/// Numerically stable online mean and variance (Welford's algorithm).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Batch-means confidence intervals for steady-state simulation output.
///
/// Observations are grouped into fixed-size batches; the batch averages are
/// approximately independent, so a t-style interval over them is a valid
/// interval for the steady-state mean.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchMeans {
    batch_size: u64,
    current: Welford,
    batches: Welford,
    overall: Welford,
}

impl BatchMeans {
    /// Accumulator with the given batch size (`>= 1`).
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size >= 1);
        BatchMeans {
            batch_size,
            current: Welford::new(),
            batches: Welford::new(),
            overall: Welford::new(),
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.overall.push(x);
        self.current.push(x);
        if self.current.count() == self.batch_size {
            self.batches.push(self.current.mean());
            self.current = Welford::new();
        }
    }

    /// Overall sample mean.
    pub fn mean(&self) -> f64 {
        self.overall.mean()
    }

    /// Number of raw observations.
    pub fn count(&self) -> u64 {
        self.overall.count()
    }

    /// Half-width of an approximate 95% confidence interval on the mean,
    /// from the completed batch means (normal approximation, `z = 1.96`).
    /// Returns `NaN` with fewer than 2 completed batches.
    pub fn ci95_half_width(&self) -> f64 {
        let b = self.batches.count();
        if b < 2 {
            return f64::NAN;
        }
        1.96 * self.batches.std_dev() / (b as f64).sqrt()
    }

    /// The underlying per-observation accumulator.
    pub fn overall(&self) -> &Welford {
        &self.overall
    }
}

/// Two-sided 95 % quantile of Student's t with `df` degrees of freedom
/// (`t` with upper tail 0.025): the multiplier of `s/√n` in a 95 %
/// confidence interval on a mean of `n = df + 1` observations. Tabled to
/// `df = 30`, then the Cornish–Fisher series in `1/df` (within 1e-5 of
/// the exact quantile from `df = 31` on, and `1.96` in the limit).
///
/// # Panics
/// On `df == 0`: one observation has no spread to scale.
pub fn student_t975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624, 2.306004, 2.262157,
        2.228139, 2.200985, 2.178813, 2.160369, 2.144787, 2.131450, 2.119905, 2.109816, 2.100922,
        2.093024, 2.085963, 2.079614, 2.073873, 2.068658, 2.063899, 2.059539, 2.055529, 2.051831,
        2.048407, 2.045230, 2.042272,
    ];
    assert!(df >= 1, "a t quantile needs at least one degree of freedom");
    if let Some(&t) = TABLE.get(df as usize - 1) {
        return t;
    }
    let (z, v) = (1.959_964, df as f64);
    let z2 = z * z;
    z + z * (z2 + 1.0) / (4.0 * v)
        + z * ((5.0 * z2 + 16.0) * z2 + 3.0) / (96.0 * v * v)
        + z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / (384.0 * v * v * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_moments() {
        let xs = [3.0, 5.0, 7.0, 7.0, 38.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-9);
        assert_eq!(w.min(), 3.0);
        assert_eq!(w.max(), 38.0);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut all = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0 + 20.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_welford_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert!(w.min().is_nan());
        let mut a = Welford::new();
        a.merge(&w);
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn batch_means_cuts_batches() {
        let mut bm = BatchMeans::new(10);
        for i in 0..19 {
            bm.push(i as f64);
        }
        assert!(bm.ci95_half_width().is_nan(), "one batch cut after 19");
        bm.push(19.0);
        assert!(bm.ci95_half_width().is_finite(), "the second cut at 20");
        for i in 20..95 {
            bm.push(i as f64);
        }
        assert_eq!(bm.count(), 95);
        assert!((bm.mean() - 47.0).abs() < 1e-9);
        assert!(bm.ci95_half_width() > 0.0);
    }

    #[test]
    fn batch_means_needs_two_batches_for_ci() {
        let mut bm = BatchMeans::new(100);
        for i in 0..150 {
            bm.push(i as f64);
        }
        assert!(bm.ci95_half_width().is_nan());
    }

    #[test]
    fn t975_meets_the_normal_quantile_from_above() {
        assert_eq!(student_t975(2), 4.302653);
        // Past the table the series continues it: t(31) = 2.039513,
        // t(60) = 2.000298, t(120) = 1.979930.
        for (df, exact) in [(31, 2.039513), (60, 2.000298), (120, 1.979930)] {
            assert!(
                (student_t975(df) - exact).abs() < 1e-5,
                "student_t975({df}) = {}",
                student_t975(df)
            );
        }
        let ts: Vec<f64> = (1..200).map(student_t975).collect();
        assert!(ts.windows(2).all(|w| w[0] > w[1]), "decreasing in df");
        assert!((student_t975(1 << 40) - 1.959964).abs() < 1e-9);
    }

    #[test]
    fn ci_shrinks_with_more_data() {
        let mut narrow = BatchMeans::new(10);
        let mut wide = BatchMeans::new(10);
        let xs = |n: usize| (0..n).map(|i| ((i * 37) % 100) as f64);
        for x in xs(200) {
            wide.push(x);
        }
        for x in xs(2000) {
            narrow.push(x);
        }
        assert!(narrow.ci95_half_width() < wide.ci95_half_width());
    }
}
