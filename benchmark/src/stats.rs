//! Order statistics of repetition timings.
//!
//! A run makes too few repetitions (< 20) for any tail percentile to have
//! ten samples beyond it, so repetition walls are summarised by median,
//! quartiles, extremes and the sample count, never by a percentile.

/// Five-number summary plus the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Summarise `samples` (any order, at least one). Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), the
/// rule the acceptance spread is computed with; a single sample is its own
/// quartiles.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let n = s.len();
    let quartile = |i: usize| {
        if n == 1 {
            return s[0];
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Summary {
        n,
        min: s[0],
        q1: quartile(1),
        median: quartile(2),
        q3: quartile(3),
        max: s[n - 1],
    }
}

/// Median of `samples` (at least one).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The `q`-quantile (nearest rank) of `samples`; callers state the sample
/// count beside it and only ask for quantiles with ten samples beyond.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples to take a quantile of");
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = summarize(&[3.5]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 3.5, 3.5, 3.5, 3.5, 3.5)
        );
    }

    #[test]
    fn odd_count_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let s = summarize(&[7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert_eq!((s.n, s.min, s.max), (7, 1.0, 7.0));
    }

    #[test]
    fn even_count_interpolates() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn two_samples_stay_inside_the_range() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[9.0], 0.95), 9.0);
    }
}
