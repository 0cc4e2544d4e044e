//! Streaming, mergeable log-bucketed histogram for latency quantiles.

use serde::{Deserialize, Serialize};

/// Sub-buckets per octave: the resolution knob. 32 gives a worst-case
/// relative bucket width of 1/32 ≈ 3.1% — tighter than any latency
/// effect the figures care about, at ≤ 1920 buckets for the full `u64`
/// range.
const SUB: u64 = 32;

/// An HDR-style log-linear histogram of `u64` samples (cycle counts).
///
/// * Values below `2·SUB = 64` are recorded **exactly** (one bucket per
///   value).
/// * Above, each power-of-two octave is split into `SUB = 32` equal
///   sub-buckets, so a bucket's width is at most `1/32` of its lower
///   edge: any quantile estimate `est` of a true value `x` satisfies
///   `x ≤ est ≤ x·(1 + 1/32) + 1`.
/// * Merging is bucket-count addition — exact, associative and
///   commutative — so per-replicate histograms combine into the
///   across-replicate tail without approximation beyond the bucketing
///   itself.
///
/// Count, sum, min and max are tracked exactly. The struct is plain data
/// (`PartialEq`, serde), so the engine-equivalence suite can require the
/// two engines' histograms to be identical bucket-for-bucket.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Bucket counts, indexed by [`bucket_index`]; never longer than
    /// needed for the highest non-empty bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index of a value: identity below 64, log-linear above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB {
        v as usize
    } else {
        // Most significant bit position m ≥ 6; shift the value so its
        // top 6 bits remain (32 sub-buckets within the octave).
        let m = 63 - v.leading_zeros() as u64;
        let shift = m - 5;
        (shift * SUB + (v >> shift)) as usize
    }
}

/// Largest value mapping to bucket `i` (the quantile estimate the bucket
/// reports).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < 2 * SUB {
        i
    } else {
        let shift = i / SUB - 1;
        let sub = i - shift * SUB;
        ((sub + 1) << shift) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one (bucket-count addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact smallest sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`0 < q ≤ 1`) under the `sorted[ceil(q·n) − 1]`
    /// convention, reported as the upper edge of the rank's bucket
    /// (clamped to the exact max, so `quantile(1.0) == max`). `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// `quantile` as an `f64`, `NaN` when empty — the shape latency
    /// summaries carry.
    pub fn quantile_f64(&self, q: f64) -> f64 {
        self.quantile(q).map(|v| v as f64).unwrap_or(f64::NAN)
    }

    /// Median estimate (`NaN` when empty).
    pub fn p50(&self) -> f64 {
        self.quantile_f64(0.50)
    }

    /// 95th-percentile estimate (`NaN` when empty).
    pub fn p95(&self) -> f64 {
        self.quantile_f64(0.95)
    }

    /// 99th-percentile estimate (`NaN` when empty).
    pub fn p99(&self) -> f64 {
        self.quantile_f64(0.99)
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        // Below 64 every value owns a bucket: quantiles are exact.
        assert_eq!(h.quantile(0.5), Some(31));
        assert_eq!(h.quantile(1.0), Some(63));
        assert_eq!(h.quantile(1.0 / 64.0), Some(0));
    }

    #[test]
    fn bucket_edges_tile_the_line() {
        // Every value maps to a bucket whose upper edge is ≥ the value
        // and within the 1/32 relative-error bound; bucket indices are
        // monotone in the value.
        let mut prev = 0;
        for v in (0..10_000u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 2]) {
            let i = bucket_index(v);
            assert!(i >= prev, "indices monotone at {v}");
            prev = i;
            let upper = bucket_upper(i);
            assert!(upper >= v, "upper edge covers {v}");
            assert!(
                upper as u128 <= v as u128 + (v as u128 / 32) + 1,
                "edge {upper} too far above {v}"
            );
        }
    }

    #[test]
    fn merge_is_count_addition() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [3u64, 70, 70, 999, 100_000] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 70, 2_000_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all, "merge equals recording the concatenation");
        assert_eq!(a.count(), 8);
        assert_eq!(a.max(), Some(2_000_000));
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut a = LogHistogram::new();
        a.record(42);
        let snapshot = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, snapshot);
        let mut e = LogHistogram::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn empty_histogram_reports_safely() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), None);
        assert!(h.p99().is_nan());
        assert!(h.mean().is_nan());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn json_round_trip_preserves_buckets() {
        let mut h = LogHistogram::new();
        for v in [1u64, 64, 65, 4097, 123_456_789] {
            h.record(v);
        }
        let json = serde::json::to_string(&h);
        let back: LogHistogram = serde::json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
