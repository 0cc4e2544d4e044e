//! The network-calculus analytical backend: worst-case delay bounds over
//! routed workloads.
//!
//! The paper's M/G/1 model ([`crate::model::AnalyticModel`]) predicts
//! *mean* latencies under two assumptions the scenario space has outgrown:
//! memoryless (Poisson) sources and routing schemes whose multicast
//! streams are asynchronous per-port wormholes. This backend drops both by
//! working with deterministic (σ, ρ) arrival envelopes instead of
//! distributions (Farhi & Gaujal, arXiv 1007.4853 lineage):
//!
//! 1. **Flow envelopes and their aggregation** — every source's message
//!    process gets a token-bucket envelope: `σ = 1` for the geometric
//!    source, the mean-burst envelope for on/off sources, and the *exact*
//!    empirical envelope for trace replay
//!    ([`noc_queueing::network_calculus`]). The routed table
//!    ([`RoutedLoads`], the same one the M/G/1 model reads) sums
//!    them per channel into the aggregate burst `σ_j` (flits) with a
//!    per-source *multiplicity*: one multicast operation places one
//!    message per stream crossing the channel, which is exactly the
//!    shared-prefix co-arrival (`Multipath`) and injection-port
//!    serialisation (`UnicastTree`) that the M/G/1 model cannot see.
//! 2. **Holding-time recursion** — the worst-case time a channel stays
//!    allocated to one message mirrors the shape of Eq. 6 with the mean
//!    M/G/1 wait replaced by the fluid wait `w_j = ρ_j·h_j/(1 − ρ_j)`
//!    (`ρ_j = λ_j·h_j`) and no self-traffic discount:
//!    `h_i = Σ_j P_{i→j}·(w_j + h_j + 1)`, ejection channels hold for
//!    `msg` cycles. Divergence of this recursion is the (conservative)
//!    saturation horizon of the backend; bursts do not enter it — a
//!    static burst delays messages without changing long-run
//!    utilisation.
//! 3. **Path/operation bounds** — after convergence each channel gets the
//!    FIFO delay bound `D_j = (σ_j + ρ_j·h_j)/(1 − ρ_j)`, and the shared
//!    assembler (`model::assemble`) folds it the way it folds the M/G/1
//!    waits: a header's end-to-end wait is bounded by the sum of `D` over
//!    its path, a multicast operation by the *sum* over its streams
//!    (sound even when streams serialise or share links), plus the
//!    deterministic `msg + hops` pipeline term.
//!
//! Every per-channel bound dominates the corresponding M/G/1 mean
//! (`D_j ≥ ρ_j h_j/(1−ρ_j) ≥ W_j`, uncorrected sums ≥ corrected sums,
//! `Σ streams ≥ E[max streams]`), which yields the cross-validation
//! invariant `bound ≥ M/G/1 mean ≥ zero-load latency` checked by the
//! property tests — and, where simulation exists, `bound ≥ simulated
//! mean`.

use crate::model::ModelError;
use crate::options::ModelOptions;
use crate::rates::{ChannelLoads, RoutedLoads};
use crate::service::{most_utilised, solve_holding, utilisation, Holding, Saturated, WaitTerm};
use noc_queueing::fixed_point::Components;
use noc_queueing::network_calculus::channel_delay_bound;
use noc_topology::Topology;
use noc_workloads::Workload;

/// Converged per-channel worst-case quantities (diagnostics / tests).
#[derive(Clone, Debug)]
pub struct ChannelBounds {
    /// Worst-case header acquisition delay `D_j` per channel (cycles).
    pub delay: Vec<f64>,
    /// Utilisation `ρ_j = λ_j·h_j` per channel.
    pub rho: Vec<f64>,
    /// Gauss–Seidel sweeps the holding recursion spent on the slowest
    /// strongly connected component of the channel-successor graph (1 when
    /// that graph is acyclic).
    pub iterations: usize,
}

/// The calculus wait term of the holding recursion: the fluid
/// (burst-free) wait `ρ_j·h_j/(1−ρ_j)`, `∞` at the stability limit, in
/// full on every edge (bounds take no mean-value correction). A static
/// burst delays messages but does not change long-run utilisation, so
/// feeding the aggregate burst back into the holding recursion would
/// compound it along every path and collapse the stability horizon to
/// near zero. The burst enters the per-channel *delay* bound, after
/// convergence. The fluid wait still dominates the Pollaczek–Khinchine
/// mean (its `(1+cv²)/2` prefactor is ≤ 1 under the paper's variance
/// heuristic), which keeps `bound ≥ M/G/1 mean`.
pub(crate) struct Fluid;

impl WaitTerm for Fluid {
    fn wait(&self, lj: f64, hj: f64) -> f64 {
        channel_delay_bound(0.0, lj, hj).unwrap_or(f64::INFINITY)
    }

    fn factor(&self, _rate: f64, _p_next: f64, _lj: f64) -> f64 {
        1.0
    }
}

pub(crate) fn solve_bounds(
    loads: &ChannelLoads,
    order: &Components,
    msg_len: f64,
) -> Result<ChannelBounds, Saturated> {
    let lambda = &loads.lambda;
    let mut held = Holding::default();
    solve_holding(loads, order, msg_len, &Fluid, &mut held)?;
    let per_channel = loads.sigma.iter().zip(lambda).zip(&held.time);
    let delay: Vec<f64> = per_channel
        .map(|((&s, &l), &h)| channel_delay_bound(s, l, h).unwrap_or(f64::INFINITY))
        .collect();
    if delay.iter().any(|d| !d.is_finite()) {
        return Err(most_utilised(lambda, &held.time));
    }
    Ok(ChannelBounds {
        delay,
        rho: utilisation(lambda, &held.time),
        iterations: held.iterations,
    })
}

/// The network-calculus backend (see the module docs). A unit type: all
/// state lives in the workload and options it is handed per call.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetworkCalculusBackend;

impl NetworkCalculusBackend {
    /// Per-channel worst-case delay bounds and utilisations (diagnostics;
    /// [`crate::backend::ModelBackend::evaluate`] assembles them into a
    /// [`Prediction`](crate::Prediction)).
    pub fn channel_bounds(
        &self,
        topo: &dyn Topology,
        wl: &Workload,
        opts: &ModelOptions,
    ) -> Result<ChannelBounds, ModelError> {
        let routed = RoutedLoads::walk(topo, wl, opts)?;
        let loads = routed.at(wl.gen_rate);
        Ok(solve_bounds(
            &loads,
            &routed.components(&loads),
            wl.msg_len as f64,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ModelBackend;
    use crate::model::AnalyticModel;
    use noc_topology::{Quarc, RoutingSpec};
    use noc_workloads::{DestinationSets, TrafficSpec};

    fn workload(rate: f64, alpha: f64) -> (Quarc, Workload) {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(32, rate, alpha, sets).unwrap();
        (topo, wl)
    }

    #[test]
    fn zero_load_bound_equals_zero_load_latency() {
        let (topo, wl) = workload(0.0, 0.0);
        let opts = ModelOptions::default();
        let nc = NetworkCalculusBackend.evaluate(&topo, &wl, &opts).unwrap();
        let mg1 = AnalyticModel::new(&topo, &wl, opts).evaluate().unwrap();
        // No traffic: every delay bound is zero, so the "worst case"
        // collapses to the deterministic pipeline latency on both sides.
        assert!((nc.unicast_latency - mg1.unicast_latency).abs() < 1e-9);
        assert!((nc.multicast_latency - mg1.multicast_latency).abs() < 1e-9);
        assert_eq!(nc.max_rho, 0.0);
    }

    #[test]
    fn bound_dominates_the_mg1_mean_under_poisson_load() {
        // Rates are fractions of the backend's own stability horizon —
        // worst-case stability sits well below the M/G/1 asymptote, so
        // absolute rates near the M/G/1 knee are already "saturated" here.
        let (topo, proto) = workload(1e-5, 0.1);
        let nc_sat = NetworkCalculusBackend.max_sustainable_rate(
            &topo,
            &proto,
            &ModelOptions::default(),
            0.02,
        );
        assert!(nc_sat > 1e-4, "NC horizon unexpectedly tiny: {nc_sat}");
        for frac in [0.25, 0.5, 0.8] {
            let rate = frac * nc_sat;
            let (topo, wl) = workload(rate, 0.1);
            let opts = ModelOptions::default();
            let nc = NetworkCalculusBackend.evaluate(&topo, &wl, &opts).unwrap();
            let mg1 = AnalyticModel::new(&topo, &wl, opts).evaluate().unwrap();
            assert!(
                nc.unicast_latency >= mg1.unicast_latency,
                "rate {rate}: unicast bound {} below mean {}",
                nc.unicast_latency,
                mg1.unicast_latency
            );
            assert!(
                nc.multicast_latency >= mg1.multicast_latency,
                "rate {rate}: multicast bound {} below mean {}",
                nc.multicast_latency,
                mg1.multicast_latency
            );
        }
    }

    #[test]
    fn burstier_traffic_widens_the_bound() {
        let (topo, wl) = workload(0.002, 0.1);
        let opts = ModelOptions::default();
        let smooth = NetworkCalculusBackend.evaluate(&topo, &wl, &opts).unwrap();
        let bursty_wl = wl.with_traffic(TrafficSpec::OnOff {
            burst_len: 8.0,
            peak_rate: 0.2,
        });
        let bursty = NetworkCalculusBackend
            .evaluate(&topo, &bursty_wl, &opts)
            .unwrap();
        assert!(
            bursty.multicast_latency > smooth.multicast_latency,
            "burst envelope must widen the bound: {} vs {}",
            bursty.multicast_latency,
            smooth.multicast_latency
        );
    }

    #[test]
    fn multipath_streams_share_prefix_burst() {
        // The whole point of the backend: Multipath is out of the M/G/1
        // domain but evaluates to a finite bound at low load.
        let (topo, wl) = workload(0.0004, 0.2);
        let wl = wl.with_routing(RoutingSpec::Multipath);
        let opts = ModelOptions::default();
        let nc = NetworkCalculusBackend.evaluate(&topo, &wl, &opts).unwrap();
        assert!(nc.multicast_latency.is_finite() && nc.multicast_latency > 32.0);
        assert!(nc.unicast_latency.is_finite());
    }

    #[test]
    fn nc_saturation_is_conservative() {
        let (topo, wl) = workload(1e-5, 0.1);
        let opts = ModelOptions::default();
        let nc_sat = NetworkCalculusBackend.max_sustainable_rate(&topo, &wl, &opts, 0.02);
        let mg1_sat = crate::MgOneBackend.max_sustainable_rate(&topo, &wl, &opts, 0.02);
        assert!(nc_sat > 0.0, "some rate must be sustainable");
        assert!(
            nc_sat <= mg1_sat,
            "worst-case stability must not exceed the mean-value horizon \
             ({nc_sat} vs {mg1_sat})"
        );
    }

    #[test]
    fn saturation_errors_propagate() {
        let (topo, wl) = workload(0.25, 0.1);
        let err = NetworkCalculusBackend
            .evaluate(&topo, &wl, &ModelOptions::default())
            .unwrap_err();
        assert!(matches!(err, ModelError::Saturated { .. }));
    }

    #[test]
    fn channel_bounds_expose_delay_and_utilisation() {
        let (topo, wl) = workload(0.002, 0.1);
        let b = NetworkCalculusBackend
            .channel_bounds(&topo, &wl, &ModelOptions::default())
            .unwrap();
        let net = topo.network();
        assert_eq!(b.delay.len(), net.num_channels());
        // A header can find a whole message's burst ahead of it somewhere.
        let max_d = b.delay.iter().copied().fold(0.0, f64::max);
        assert!(max_d >= 32.0, "peak delay bound {max_d} below one message");
        assert!(b.rho.iter().all(|&r| (0.0..1.0).contains(&r)));
        assert!(b.delay.iter().all(|&d| d.is_finite() && d >= 0.0));
    }

    #[test]
    fn trace_envelopes_feed_the_bound() {
        use noc_workloads::{TraceEntry, TraceKind};
        let (topo, wl) = workload(0.001, 0.0);
        // A tight clump on node 0: the empirical envelope sees the burst.
        let entries: Vec<TraceEntry> = (0..8)
            .map(|k| TraceEntry {
                cycle: 100 + k,
                node: 0,
                kind: TraceKind::Unicast { dst: 5 },
            })
            .collect();
        let wl = wl.with_traffic(TrafficSpec::trace(entries));
        let loads = RoutedLoads::walk(&topo, &wl, &ModelOptions::default())
            .unwrap()
            .at(wl.gen_rate);
        let max_sigma = loads.sigma.iter().copied().fold(0.0, f64::max);
        // 8 clumped messages of 32 flits minus the rate-line allowance.
        assert!(
            max_sigma > 7.0 * 32.0,
            "clump must dominate the envelope, got {max_sigma}"
        );
    }
}
