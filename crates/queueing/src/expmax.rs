//! Order statistics of independent exponential random variables
//! (paper §2.2, Eq. 9–13).
//!
//! The multicast waiting time of an asynchronous multi-port router is the
//! expected time of the *last* arrival among `m` independent exponentially
//! distributed port waiting times. The paper derives it from two
//! properties: exponentials are memoryless, and the minimum of independent
//! exponentials is exponential with the summed rate (Eq. 9–10). The
//! resulting recursion (Eq. 12) is
//!
//! ```text
//! E[max(µ₁..µ_m)] = 1/Σµ + Σ_i (µ_i/Σµ) · E[max of the others]
//! ```
//!
//! which has the closed-form inclusion–exclusion solution
//!
//! ```text
//! E[max] = Σ_{∅ ≠ S ⊆ {1..m}} (−1)^{|S|+1} / Σ_{i∈S} µ_i.
//! ```
//!
//! Both are implemented; a property test asserts they agree, and the bench
//! suite compares their cost. Infinite rates (zero waiting time on a port)
//! are handled by dropping that port from the maximum — a variable with
//! rate `∞` fires instantly and can never be the last event.

/// Expected value of the minimum of independent exponentials (Eq. 10).
///
/// Returns `0.0` for an empty slice (no events to wait for).
pub fn expected_min_exponentials(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    if rates.is_empty() || sum == 0.0 {
        return 0.0;
    }
    if sum.is_infinite() {
        return 0.0;
    }
    1.0 / sum
}

/// Largest port count summed by inclusion–exclusion: `2^16 − 1` subsets.
/// Beyond it the expectation is integrated.
const INCLUSION_EXCLUSION_MAX: usize = 16;

/// Expected value of the maximum of independent exponentials.
///
/// `rates` are the `µ` parameters (events per cycle); non-finite rates are
/// treated as instantly-firing variables and skipped. Panics in debug mode
/// if a rate is negative or zero (a zero rate would make the expectation
/// infinite, which the model never produces for a loaded port).
///
/// Up to 16 rates the closed-form
/// inclusion–exclusion identity is summed exactly. More rates — which the
/// paper's quad-port routers never produce, but a source-replicated
/// multicast to a large group does — would cost `2^m` terms and lose
/// digits to cancellation, so the survival function is integrated instead
/// at a fixed cost of `O(m)` per node over a fixed set of nodes, with a
/// relative error below `1e-12` (checked against the harmonic numbers
/// for equal rates and against the recursion for spread ones).
pub fn expected_max_exponentials(rates: &[f64]) -> f64 {
    let finite: Vec<f64> = rates.iter().copied().filter(|r| r.is_finite()).collect();
    debug_assert!(finite.iter().all(|&r| r > 0.0), "rates must be positive");
    let m = finite.len();
    if m == 0 {
        return 0.0;
    }
    if m > INCLUSION_EXCLUSION_MAX {
        return expected_max_by_integration(&finite);
    }
    let mut total = 0.0;
    for mask in 1u32..(1 << m) {
        let mut rate_sum = 0.0;
        for (i, &r) in finite.iter().enumerate() {
            if mask & (1 << i) != 0 {
                rate_sum += r;
            }
        }
        let sign = if mask.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        total += sign / rate_sum;
    }
    total
}

/// Expected value of the maximum by the paper's memoryless recursion
/// (Eq. 12), memoised over subsets.
///
/// Semantically identical to [`expected_max_exponentials`]; retained to
/// validate the paper's derivation and exercised by property tests.
pub fn expected_max_recursive(rates: &[f64]) -> f64 {
    let finite: Vec<f64> = rates.iter().copied().filter(|r| r.is_finite()).collect();
    let m = finite.len();
    if m == 0 {
        return 0.0;
    }
    assert!(m <= 25, "recursive form limited to m <= 25 ports");
    let full: u32 = (1 << m) - 1;
    let mut memo: Vec<f64> = vec![0.0; (full + 1) as usize];
    // Iterate masks in increasing popcount order by plain increasing value:
    // every proper submask of `mask` is numerically smaller, so a single
    // ascending pass satisfies the dependency order of the recursion.
    for mask in 1u32..=full {
        let mut rate_sum = 0.0;
        for (i, &r) in finite.iter().enumerate() {
            if mask & (1 << i) != 0 {
                rate_sum += r;
            }
        }
        // Eq. 12: first event at 1/Σµ, then the max of the remaining set,
        // weighted by which variable fired first.
        let mut v = 1.0 / rate_sum;
        for (i, &r) in finite.iter().enumerate() {
            if mask & (1 << i) != 0 {
                let rest = mask & !(1 << i);
                if rest != 0 {
                    v += (r / rate_sum) * memo[rest as usize];
                }
            }
        }
        memo[mask as usize] = v;
    }
    memo[full as usize]
}

/// `E[max] = ∫₀^∞ (1 − Π_i (1 − e^{−µᵢ t})) dt` by the exp-sinh rule:
/// with `t = τ·exp(π/2·sinh x)`, the trapezoid rule in `x` converges
/// double-exponentially for this integrand, which is analytic, flat near
/// `t = 0` and decays like `e^{−µ t}`. Nodes are log-spaced in the middle
/// of the range, so rates spread over many decades are resolved alike;
/// `τ = H_m / min µ` (`H_m` the harmonic number, the mean of `m` equal
/// slowest ports) puts the densest nodes where the maximum falls. For
/// `17 ≤ m ≤ e^{20}` the fixed window `x ∈ [−4, 1.5]` leaves out less
/// than `1e-17` of the result at either end (the integrand is 1 on the
/// left, below `m·e^{−t·min µ}` on the right), and the step `1/32` puts
/// the discretisation error below the rounding of the sum: 177 nodes of
/// `m` exponentials each, within `3e-15` of `H_m/µ` for equal rates up to
/// `m = 4096` and of the recursion for rates spread over six decades.
/// The integrand is formed as `−expm1(Σ ln(1 − e^{−µᵢ t}))`, so it keeps
/// its relative precision where it is tiny and the weights are large.
fn expected_max_by_integration(rates: &[f64]) -> f64 {
    const STEP: f64 = 1.0 / 32.0;
    const FIRST: i32 = -128; // x = −4
    const LAST: i32 = 48; // x = 1.5
    let harmonic: f64 = (1..=rates.len()).map(|k| 1.0 / k as f64).sum();
    let tau = harmonic / rates.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let half_pi = std::f64::consts::FRAC_PI_2;
    let mut total = 0.0;
    for k in FIRST..=LAST {
        let x = k as f64 * STEP;
        let t = tau * (half_pi * x.sinh()).exp();
        let log_cdf: f64 = rates
            .iter()
            .map(|&mu| {
                let tail = (-mu * t).exp();
                // ln(1 − e^{−µt}), accurate at either end.
                if tail > 0.5 {
                    (-(-mu * t).exp_m1()).ln()
                } else {
                    (-tail).ln_1p()
                }
            })
            .sum();
        let survival = -log_cdf.exp_m1();
        total += survival * t * half_pi * x.cosh();
    }
    total * STEP
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-12)
    }

    #[test]
    fn single_variable_is_its_mean() {
        assert!(close(expected_max_exponentials(&[0.5]), 2.0, 1e-12));
        assert!(close(expected_max_recursive(&[0.5]), 2.0, 1e-12));
    }

    #[test]
    fn empty_and_infinite_rates() {
        assert_eq!(expected_max_exponentials(&[]), 0.0);
        assert_eq!(expected_max_recursive(&[]), 0.0);
        // An instantly-firing port cannot be the last event.
        let with_inf = expected_max_exponentials(&[1.0, f64::INFINITY]);
        assert!(close(with_inf, 1.0, 1e-12));
        assert_eq!(expected_min_exponentials(&[1.0, f64::INFINITY]), 0.0);
    }

    #[test]
    fn two_equal_rates_give_three_halves_mean() {
        // E[max of two iid Exp(µ)] = 3/(2µ).
        for mu in [0.1, 1.0, 7.5] {
            let e = expected_max_exponentials(&[mu, mu]);
            assert!(close(e, 1.5 / mu, 1e-12), "mu={mu}");
        }
    }

    #[test]
    fn iid_max_is_harmonic_series() {
        // E[max of m iid Exp(1)] = H_m.
        let h: f64 = (1..=5).map(|k| 1.0 / k as f64).sum();
        let e = expected_max_exponentials(&[1.0; 5]);
        assert!(close(e, h, 1e-12));
    }

    #[test]
    fn eq11_two_variable_form() {
        // Paper Eq. 11: E[max] = 1/(µ1+µ2) + P1/µ2 + P2/µ1.
        let (m1, m2) = (0.3, 0.7);
        let s = m1 + m2;
        let expected = 1.0 / s + (m1 / s) / m2 + (m2 / s) / m1;
        assert!(close(expected_max_exponentials(&[m1, m2]), expected, 1e-12));
        assert!(close(expected_max_recursive(&[m1, m2]), expected, 1e-12));
    }

    #[test]
    fn min_of_independent_exponentials() {
        assert!(close(expected_min_exponentials(&[0.25, 0.75]), 1.0, 1e-12));
        assert_eq!(expected_min_exponentials(&[]), 0.0);
    }

    #[test]
    fn integration_fallback_agrees_for_moderate_m() {
        let rates = [0.2, 0.4, 0.9, 1.3];
        let exact = expected_max_exponentials(&rates);
        let approx = expected_max_by_integration(&rates);
        assert!(close(approx, exact, 1e-12), "{approx} vs {exact}");
    }

    #[test]
    fn many_equal_rates_give_the_harmonic_number() {
        // E[max of m iid Exp(µ)] = H_m/µ, past the inclusion–exclusion
        // cutoff too.
        for m in [17, 24, 32, 64] {
            for mu in [0.37, 1.0 / 480.0] {
                let h: f64 = (1..=m).map(|k| 1.0 / k as f64).sum();
                let e = expected_max_exponentials(&vec![mu; m]);
                assert!(
                    close(e, h / mu, 1e-12),
                    "m = {m}, µ = {mu}: {e} vs {}",
                    h / mu
                );
            }
        }
    }

    #[test]
    fn many_spread_rates_agree_with_the_recursion() {
        for m in 17..=20 {
            // Rates over three decades, in no particular order.
            let rates: Vec<f64> = (0..m)
                .map(|i| 1e-3 * 10f64.powf(3.0 * ((7 * i) % m) as f64 / (m - 1) as f64))
                .collect();
            let e = expected_max_exponentials(&rates);
            let oracle = expected_max_recursive(&rates);
            assert!(close(e, oracle, 1e-10), "m = {m}: {e} vs {oracle}");
        }
    }

    #[test]
    fn max_dominates_min_and_each_mean() {
        let rates = [0.5, 0.8, 2.0, 4.0];
        let max = expected_max_exponentials(&rates);
        assert!(max >= expected_min_exponentials(&rates));
        for r in rates {
            assert!(max >= 1.0 / r - 1e-12, "max must dominate each mean");
        }
    }

    proptest! {
        #[test]
        fn recursion_matches_closed_form(
            rates in proptest::collection::vec(0.01f64..100.0, 1..7)
        ) {
            let a = expected_max_exponentials(&rates);
            let b = expected_max_recursive(&rates);
            prop_assert!(close(a, b, 1e-9), "closed {a} vs recursive {b}");
        }

        #[test]
        fn adding_a_port_never_decreases_the_max(
            rates in proptest::collection::vec(0.01f64..100.0, 1..6),
            extra in 0.01f64..100.0
        ) {
            let base = expected_max_exponentials(&rates);
            let mut more = rates.clone();
            more.push(extra);
            let bigger = expected_max_exponentials(&more);
            prop_assert!(bigger >= base - 1e-9);
        }

        #[test]
        fn max_bounded_by_sum_of_means(
            rates in proptest::collection::vec(0.01f64..100.0, 1..6)
        ) {
            let max = expected_max_exponentials(&rates);
            let sum: f64 = rates.iter().map(|r| 1.0 / r).sum();
            prop_assert!(max <= sum + 1e-9);
        }
    }

    // Order-statistics monotonicity: both expectations respect the
    // stochastic ordering of exponentials — raising any rate (making that
    // port faster) can only lower the expected min and max, and the two
    // statistics never cross.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn min_never_exceeds_max(
            rates in proptest::collection::vec(0.01f64..100.0, 1..7)
        ) {
            let min = expected_min_exponentials(&rates);
            let max = expected_max_exponentials(&rates);
            prop_assert!(min <= max + 1e-12, "min {min} above max {max}");
        }

        #[test]
        fn min_is_inverse_rate_sum(
            rates in proptest::collection::vec(0.01f64..100.0, 1..7)
        ) {
            let min = expected_min_exponentials(&rates);
            let sum: f64 = rates.iter().sum();
            prop_assert!(close(min, 1.0 / sum, 1e-12));
        }

        #[test]
        fn raising_one_rate_lowers_both_order_stats(
            rates in proptest::collection::vec(0.01f64..100.0, 1..6),
            which in 0usize..6,
            factor in 1.0f64..50.0,
        ) {
            let idx = which % rates.len();
            let mut faster = rates.clone();
            faster[idx] *= factor;
            prop_assert!(
                expected_min_exponentials(&faster)
                    <= expected_min_exponentials(&rates) + 1e-12
            );
            prop_assert!(
                expected_max_exponentials(&faster)
                    <= expected_max_exponentials(&rates) + 1e-9
            );
        }

        #[test]
        fn scale_invariance(
            rates in proptest::collection::vec(0.01f64..100.0, 1..6),
            c in 0.1f64..10.0,
        ) {
            // Exponentials with rates cµ are the originals divided by c, so
            // both expectations scale by exactly 1/c.
            let scaled: Vec<f64> = rates.iter().map(|r| r * c).collect();
            let max = expected_max_exponentials(&rates);
            let max_scaled = expected_max_exponentials(&scaled);
            prop_assert!(close(max_scaled, max / c, 1e-6), "{max_scaled} vs {}", max / c);
            let min = expected_min_exponentials(&rates);
            let min_scaled = expected_min_exponentials(&scaled);
            prop_assert!(close(min_scaled, min / c, 1e-9));
        }
    }
}
