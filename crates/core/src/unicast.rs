//! Unicast latency (paper §2.1, Eq. 7).
//!
//! With the per-channel waits solved, the latency of a specific
//! source–destination pair expands the service recursion along its route:
//!
//! ```text
//! L(s, d) = Σ_{l ∈ path} w_l + msg + D
//! ```
//!
//! where `w_l` is the header's wait at channel `l` and `D =
//! path.hop_count()` reproduces the simulator's zero-load timing exactly.
//! [`path_wait`] is that sum over one path — what a multicast stream's
//! `Ω_{j,c}` (Eq. 8) needs. The network average needs no path: `w_l`
//! depends on the hop's edge only, so the assembler (`model::assemble`)
//! takes it as a dot product with the per-edge pattern weights the route
//! walk recorded ([`crate::rates`]).

use crate::rates::ChannelLoads;
use noc_topology::{ChannelId, Path};

/// Total header waiting time along a path (the `Σ_l w_l` of Eq. 7 and the
/// `Ω_{j,c}` of Eq. 8). `hop_wait(from, to)` is the wait for channel
/// `to`, `from` the channel held meanwhile with the rate `λ_{from→to}` —
/// `None` at the injection channel ([`crate::service::header_wait`] for
/// the paper's model).
pub fn path_wait(
    path: &Path,
    loads: &ChannelLoads,
    hop_wait: impl Fn(Option<(ChannelId, f64)>, ChannelId) -> f64,
) -> f64 {
    let injection = hop_wait(None, path.hops[0].channel);
    path.transitions().fold(injection, |total, (prev, cur)| {
        total + hop_wait(Some((prev, loads.transition(prev, cur))), cur)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticModel;
    use crate::options::ModelOptions;
    use crate::rates::RoutedLoads;
    use crate::service::{self, ServiceSolution};
    use noc_topology::{NodeId, Quarc, Topology};
    use noc_workloads::{DestinationSets, Workload};

    fn solved(rate: f64) -> (Quarc, Workload, ChannelLoads, ServiceSolution, ModelOptions) {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(32, rate, 0.0, sets).unwrap();
        let opts = ModelOptions::default();
        let loads = RoutedLoads::walk(&topo, &wl, &opts)
            .unwrap()
            .at(wl.gen_rate);
        let sol = service::solve(&topo, &loads, 32.0, &opts).unwrap();
        (topo, wl, loads, sol, opts)
    }

    /// Eq. 7 for one pair, through the production path sum.
    fn pair_latency(
        topo: &Quarc,
        (src, dst): (u32, u32),
        loads: &ChannelLoads,
        sol: &ServiceSolution,
        opts: &ModelOptions,
    ) -> f64 {
        let path = topo.unicast_path(NodeId(src), NodeId(dst));
        let wait = path_wait(&path, loads, service::header_wait(loads, sol, 32.0, opts));
        wait + 32.0 + path.hop_count() as f64
    }

    fn average_latency(topo: &Quarc, wl: &Workload, opts: ModelOptions) -> f64 {
        let model = AnalyticModel::new(topo, wl, opts);
        model.evaluate().unwrap().unicast_latency
    }

    #[test]
    fn zero_load_latency_is_msg_plus_hops() {
        let (topo, _wl, loads, sol, opts) = solved(0.0);
        for (s, d) in [(0u32, 1u32), (0, 4), (0, 8), (3, 11), (15, 2)] {
            let lat = pair_latency(&topo, (s, d), &loads, &sol, &opts);
            let path = topo.unicast_path(NodeId(s), NodeId(d));
            let expected = 32.0 + path.hop_count() as f64;
            assert!(
                (lat - expected).abs() < 1e-9,
                "{s}->{d}: {lat} vs {expected}"
            );
        }
    }

    #[test]
    fn average_latency_increases_with_load() {
        let mut prev = 0.0;
        // 0.009 is just below the model's saturation horizon for this
        // configuration (N=16, M=32; see the saturation tests).
        for rate in [0.0, 0.002, 0.006, 0.009] {
            let (topo, wl, _loads, _sol, opts) = solved(rate);
            let avg = average_latency(&topo, &wl, opts);
            assert!(
                avg > prev,
                "latency must increase with load ({rate}: {avg})"
            );
            prev = avg;
        }
    }

    #[test]
    fn average_is_between_extremes() {
        let (topo, wl, loads, sol, opts) = solved(0.004);
        let avg = average_latency(&topo, &wl, opts);
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s != d {
                    let l = pair_latency(&topo, (s, d), &loads, &sol, &opts);
                    lo = lo.min(l);
                    hi = hi.max(l);
                }
            }
        }
        assert!(lo <= avg && avg <= hi);
        // Nearest-neighbour latency must be below the cross-quadrant one at
        // equal load (fewer hops, fewer queueing points).
        let near = pair_latency(&topo, (0, 1), &loads, &sol, &opts);
        let far = pair_latency(&topo, (0, 6), &loads, &sol, &opts);
        assert!(near < far);
    }

    #[test]
    fn correction_none_is_upper_bound() {
        let (topo, _wl, loads, sol, opts) = solved(0.006);
        let uncorrected = ModelOptions {
            correction: crate::options::ServiceCorrection::None,
            ..opts
        };
        let with = pair_latency(&topo, (0, 4), &loads, &sol, &opts);
        let without = pair_latency(&topo, (0, 4), &loads, &sol, &uncorrected);
        assert!(without >= with);
    }
}
