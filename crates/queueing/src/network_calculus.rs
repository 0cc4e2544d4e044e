//! Deterministic network-calculus primitives: (σ, ρ) arrival envelopes
//! and worst-case FIFO delay bounds.
//!
//! The paper's M/G/1 model predicts *mean* latencies and is only valid for
//! memoryless (Poisson) sources feeding asynchronous per-port streams. The
//! network-calculus backend (Farhi & Gaujal, arXiv 1007.4853 lineage)
//! instead works with *worst-case envelopes*: a flow is characterised by a
//! token bucket `A(t) ≤ σ + ρ·t` (burst `σ`, long-run rate `ρ`), bounds
//! compose additively over aggregation and path traversal, and no
//! distributional assumption is needed — which is exactly what makes the
//! backend applicable to bursty/trace traffic and to routing schemes whose
//! streams share prefix links.
//!
//! This module holds the topology-agnostic math; `quarc-core::calculus`
//! assembles it into per-channel bounds over routed workloads.

/// Utilisations at or above this value are treated as unstable — the
/// bounds diverge as `ρ → 1` and finite arithmetic stops being meaningful
/// slightly before that.
pub const RHO_STABLE_MAX: f64 = 1.0 - 1e-9;

/// Worst-case header acquisition delay at a wormhole channel under FIFO
/// arbitration.
///
/// `sigma` is the aggregate burst (flits) of every flow crossing the
/// channel, `lambda` the aggregate message arrival rate and `holding` a
/// (worst-case) bound on the time the channel stays allocated to one
/// message. With utilisation `ρ = λ·holding`, a newly arrived header can
/// find at most the burst backlog (drained at link rate, `σ` cycles) plus
/// the utilisation feedback of messages arriving while it waits:
///
/// ```text
/// D = (σ + ρ·holding) / (1 − ρ)
/// ```
///
/// Returns `None` when `ρ ≥` [`RHO_STABLE_MAX`] (no finite bound exists).
/// Unloaded channels (`λ ≤ 0`) have zero delay.
pub fn channel_delay_bound(sigma: f64, lambda: f64, holding: f64) -> Option<f64> {
    if lambda <= 0.0 {
        return Some(0.0);
    }
    let rho = lambda * holding;
    (rho < RHO_STABLE_MAX).then(|| (sigma + rho * holding) / (1.0 - rho))
}

/// Message-burst envelope of an on/off source (messages): a burst of mean
/// `burst_len` messages arrives at `peak_rate` while the long-run mean is
/// `rate`, so over the burst window `(B−1)/peak` the envelope must admit
/// `B` messages:
///
/// ```text
/// σ = 1 + (B − 1)·(1 − rate/peak)
/// ```
///
/// `burst_len = 1` (or `rate = peak`) degenerates to the memoryless
/// envelope `σ = 1`. This is the envelope at the *mean* burst scale — the
/// geometric burst-length tail is unbounded, so it is an effective rather
/// than an absolute envelope (documented limitation shared with every
/// finite envelope of an unbounded process).
pub fn onoff_burstiness(burst_len: f64, peak_rate: f64, rate: f64) -> f64 {
    if peak_rate <= 0.0 {
        return 1.0;
    }
    let frac = (rate / peak_rate).clamp(0.0, 1.0);
    1.0 + (burst_len - 1.0).max(0.0) * (1.0 - frac)
}

/// Exact message-burst envelope of a recorded arrival schedule against the
/// rate line `rho`: the smallest `σ` such that the count of arrivals in
/// every window `[c_i, c_j]` satisfies `count ≤ σ + ρ·(c_j − c_i)`.
///
/// `cycles` are one node's arrival cycles in non-decreasing order. Runs in
/// one pass: with prefix index `i` and suffix index `j`,
/// `σ = max_j ((j+1 − ρ·c_j) − min_{i≤j} (i − ρ·c_i))`.
/// Empty schedules have `σ = 0`; any non-empty schedule has `σ ≥ 1` (a
/// single message is its own burst).
pub fn trace_burstiness(cycles: &[u64], rho: f64) -> f64 {
    if cycles.is_empty() {
        return 0.0;
    }
    let mut min_prefix = f64::INFINITY;
    let mut sigma = 0.0f64;
    for (j, &c) in cycles.iter().enumerate() {
        let c = c as f64;
        min_prefix = min_prefix.min(j as f64 - rho * c);
        sigma = sigma.max((j as f64 + 1.0 - rho * c) - min_prefix);
    }
    sigma.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_delay_grows_with_burst_and_load() {
        // Unloaded: no waiting.
        assert_eq!(channel_delay_bound(0.0, 0.0, 32.0), Some(0.0));
        // Burst term alone at vanishing load.
        let d = channel_delay_bound(64.0, 1e-9, 32.0).unwrap();
        assert!((d - 64.0).abs() < 1e-5, "got {d}");
        // Load inflates the bound hyperbolically.
        let lo = channel_delay_bound(64.0, 0.005, 32.0).unwrap();
        let hi = channel_delay_bound(64.0, 0.02, 32.0).unwrap();
        assert!(hi > lo && lo > 64.0);
        // At/above the stability limit there is no finite bound.
        assert_eq!(channel_delay_bound(64.0, 0.04, 32.0), None);
    }

    #[test]
    fn channel_delay_dominates_mg1_waiting() {
        // The NC bound must sit above the M/G/1 mean wait at the same
        // (λ, x̄): D ≥ ρ·x̄/(1−ρ) ≥ W_PK with the paper's σ = x̄ − msg.
        use crate::mg1::{WaitingFormula, MG1};
        for &(lambda, x, msg) in &[(0.004, 35.0, 32.0), (0.02, 40.0, 32.0), (0.05, 17.0, 16.0)] {
            let w =
                MG1::with_paper_sigma(lambda, x, msg).waiting(WaitingFormula::PollaczekKhinchine);
            // Even the smallest possible aggregate burst (one message).
            let d = channel_delay_bound(msg, lambda, x).unwrap();
            assert!(d >= w, "D {d} must dominate W {w} at λ={lambda}");
        }
    }

    #[test]
    fn onoff_burstiness_brackets() {
        // Memoryless degenerate cases.
        assert_eq!(onoff_burstiness(1.0, 0.5, 0.01), 1.0);
        assert_eq!(onoff_burstiness(8.0, 0.5, 0.5), 1.0);
        // Rate far below peak: nearly the whole burst counts.
        let s = onoff_burstiness(8.0, 0.5, 0.005);
        assert!(s > 7.9 && s < 8.0, "got {s}");
        // Monotone in burst length.
        assert!(onoff_burstiness(16.0, 0.5, 0.01) > onoff_burstiness(4.0, 0.5, 0.01));
    }

    #[test]
    fn trace_burstiness_exact_on_known_schedules() {
        // Empty and singleton.
        assert_eq!(trace_burstiness(&[], 0.01), 0.0);
        assert_eq!(trace_burstiness(&[100], 0.01), 1.0);
        // An evenly spaced schedule at exactly rate ρ: σ = 1 (window
        // [c_i, c_j] holds j−i+1 arrivals vs ρ·gap = j−i).
        let even: Vec<u64> = (1..=50).map(|k| k * 100).collect();
        let s = trace_burstiness(&even, 0.01);
        assert!((s - 1.0).abs() < 1e-9, "got {s}");
        // A back-to-back clump of 5 messages vs a slow rate line: the
        // whole clump is one burst.
        let clump = [1000, 1001, 1002, 1003, 1004];
        let s = trace_burstiness(&clump, 0.001);
        assert!((s - 4.996).abs() < 1e-9, "got {s}");
        // Two clumps far apart at a rate that absorbs one clump per
        // window: σ stays at the single-clump scale.
        let mut two = vec![10, 11, 12];
        two.extend([100_010, 100_011, 100_012]);
        let s = trace_burstiness(&two, 3.0 / 100_000.0);
        assert!(s < 4.0, "distant clumps must not stack: {s}");
    }

    #[test]
    fn trace_burstiness_is_a_valid_envelope() {
        // σ must make every window feasible: count ≤ σ + ρ·gap.
        let cycles = [3u64, 10, 11, 12, 40, 41, 90, 91, 92, 93];
        let rho = 0.05;
        let sigma = trace_burstiness(&cycles, rho);
        for i in 0..cycles.len() {
            for j in i..cycles.len() {
                let count = (j - i + 1) as f64;
                let gap = (cycles[j] - cycles[i]) as f64;
                assert!(
                    count <= sigma + rho * gap + 1e-9,
                    "window [{i},{j}] violates the envelope"
                );
            }
        }
    }
}
