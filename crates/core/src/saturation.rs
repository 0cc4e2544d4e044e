//! Saturation-rate search.
//!
//! The figure sweeps plot latency up to the onset of saturation, so every
//! `(N, M, α)` configuration gets a natural x-axis range, like the paper's
//! curves which end just before the latency asymptote. The question is
//! asked of a backend:
//! [`ModelBackend::max_sustainable_rate`](crate::ModelBackend::max_sustainable_rate),
//! or [`max_rate_over`](crate::ModelBackend::max_rate_over) on routes a
//! sweep already walked. This module holds the bisection both run.
//!
//! A probe only needs a verdict, so the built-in backends do not pay for
//! an [`evaluate`](crate::ModelBackend::evaluate) per probe: channel
//! loads are linear in the generation rate, so a search reads routes
//! walked once ([`RoutedLoads`](crate::rates::RoutedLoads)), rescales `λ`
//! and the successor rates per probe, and the backend decides the probe by
//! its holding recursion and its own finiteness check alone — no unicast
//! or multicast latency is assembled. Outside the backends'
//! rate-independent domain there is no table and no rate is sustainable.

/// The bisection driver shared by every backend: the largest rate in
/// `(0, 0.999]` satisfying `stable`, within `tol` relative precision.
///
/// `stable` must be monotone (true below some threshold, false above).
/// The search starts at `1e-4` and doubles upward to an unstable bracket,
/// or — when `1e-4` is already unstable — halves downward to a stable
/// one; it returns 0.0 only if nothing down to `1e-9` is stable. A
/// `tol <= 0` bisects until the bracket holds two adjacent floats.
pub fn bisect_max_rate(tol: f64, mut stable: impl FnMut(f64) -> bool) -> f64 {
    const FLOOR: f64 = 1e-9;
    let mut lo;
    let mut hi = 1e-4;
    if stable(hi) {
        loop {
            lo = hi;
            if hi >= 0.999 {
                return hi; // effectively unsaturable in the probed range
            }
            hi = (hi * 2.0).min(0.999);
            if !stable(hi) {
                break;
            }
        }
    } else {
        loop {
            lo = 0.5 * hi;
            if lo < FLOOR {
                return 0.0;
            }
            if stable(lo) {
                break;
            }
            hi = lo;
        }
    }
    while (hi - lo) > tol * hi.max(1e-12) {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            // No float lies strictly between: the bracket is as tight as
            // it gets, whatever `tol` asked for.
            break;
        }
        if stable(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MgOneBackend, ModelBackend};
    use crate::model::AnalyticModel;
    use crate::options::ModelOptions;
    use noc_topology::Quarc;
    use noc_workloads::{DestinationSets, Workload};

    fn horizon(topo: &Quarc, wl: &Workload, tol: f64) -> f64 {
        MgOneBackend.max_sustainable_rate(topo, wl, &ModelOptions::default(), tol)
    }

    fn proto(n: usize, msg: u32, alpha: f64) -> (Quarc, Workload) {
        let topo = Quarc::new(n).unwrap();
        let sets = DestinationSets::random(&topo, n / 4, 1);
        let wl = Workload::new(msg, 1e-4, alpha, sets).unwrap();
        (topo, wl)
    }

    #[test]
    fn finds_a_positive_stable_rate() {
        let (topo, wl) = proto(16, 32, 0.05);
        let r = horizon(&topo, &wl, 0.02);
        assert!(r > 0.001, "saturation rate should exceed 0.001, got {r}");
        assert!(r < 0.2, "saturation rate should be well below 0.2, got {r}");
        // The returned rate must itself be stable...
        let wl_ok = wl.at_rate(r).unwrap();
        assert!(AnalyticModel::new(&topo, &wl_ok, ModelOptions::default())
            .evaluate()
            .is_ok());
        // ...and 1.2x beyond it must not be.
        let wl_bad = wl.at_rate((r * 1.2).min(0.99)).unwrap();
        assert!(AnalyticModel::new(&topo, &wl_bad, ModelOptions::default())
            .evaluate()
            .is_err());
    }

    #[test]
    fn bisection_brackets_thresholds_on_either_side_of_its_first_probe() {
        for threshold in [0.37, 2.3e-3, 1e-4, 3.1e-5, 4.2e-8, 2e-9] {
            let mut probes = 0;
            let r = bisect_max_rate(0.01, |rate| {
                probes += 1;
                rate <= threshold
            });
            assert!(
                r <= threshold,
                "{r:e} must be stable (threshold {threshold:e})"
            );
            assert!(r > 0.98 * threshold, "{r:e} too far below {threshold:e}");
            assert!(probes <= 32, "{probes} probes for {threshold:e}");
        }
        // Nothing down to the 1e-9 floor is stable: give up with 0.0.
        assert_eq!(bisect_max_rate(0.01, |rate| rate <= 4e-10), 0.0);
        assert_eq!(bisect_max_rate(0.01, |_| false), 0.0);
        // Nothing up to the cap is unstable.
        assert_eq!(bisect_max_rate(0.01, |_| true), 0.999);
    }

    #[test]
    fn bisection_without_tolerance_stops_at_adjacent_floats() {
        let probed = |tol: f64, threshold: f64| {
            let mut probes = 0;
            bisect_max_rate(tol, |rate| {
                probes += 1;
                assert!(probes <= 1_100, "still probing at tol {tol}");
                rate <= threshold
            })
        };
        assert_eq!(probed(0.0, 0.0123), 0.0123);
        assert_eq!(probed(-1.0, 0.0123), 0.0123);
        // A positive tolerance stops long before that: its answers are the
        // ones it always gave.
        for (threshold, r) in [
            (0.37, 0.368),
            (2.3e-3, 2.3e-3),
            (1e-4, 1e-4),
            (3.1e-5, 3.0859375e-5),
            (4.2e-8, 4.1961669921875004e-8),
            (2e-9, 1.9907951354980472e-9),
        ] {
            assert_eq!(probed(0.01, threshold), r, "threshold {threshold:e}");
        }
        // A backend's search at `tol = 0` ends too, above its coarse answer.
        let (topo, wl) = proto(16, 32, 0.05);
        let exact = horizon(&topo, &wl, 0.0);
        let coarse = horizon(&topo, &wl, 0.01);
        assert_eq!((exact, coarse), (8.298132629779527e-3, 8.25e-3));
    }

    #[test]
    fn longer_messages_saturate_earlier() {
        let (topo, wl16) = proto(16, 16, 0.05);
        let (_, wl64) = proto(16, 64, 0.05);
        let r16 = horizon(&topo, &wl16, 0.02);
        let r64 = horizon(&topo, &wl64, 0.02);
        assert!(
            r64 < r16,
            "64-flit messages must saturate at a lower rate ({r64} vs {r16})"
        );
    }

    #[test]
    fn more_multicast_saturates_earlier() {
        // Multicast replicates every message over four streams, so raising
        // alpha raises the offered flit load at fixed generation rate.
        let (topo, wl_lo) = proto(16, 32, 0.03);
        let (_, wl_hi) = proto(16, 32, 0.5);
        let r_lo = horizon(&topo, &wl_lo, 0.02);
        let r_hi = horizon(&topo, &wl_hi, 0.02);
        assert!(
            r_hi < r_lo,
            "alpha 0.5 must saturate earlier ({r_hi} vs {r_lo})"
        );
    }
}
