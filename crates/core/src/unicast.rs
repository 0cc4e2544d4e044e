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
//! `path_wait` is that sum over one route — what a multicast stream's
//! `Ω_{j,c}` (Eq. 8) needs. The network average needs no route: `w_l`
//! depends on the hop's edge only, so the assembler (`model::assemble`)
//! takes it as a dot product with the per-edge pattern weights the route
//! walk recorded ([`crate::rates`]).

use crate::rates::NONE;
use noc_topology::ChannelId;

/// Eq. 7's `w_l` at a solved point: the wait of channel `to` times the
/// factor of the successor entry `edge` it is entered by (the
/// self-traffic correction discounts the share of `to`'s traffic the
/// message's own previous channel contributes). At the injection
/// channel (`NONE`) the message queues behind its own node's earlier
/// messages — no predecessor, the full wait; an edge the successor table
/// lacks (`NONE` too) carries no rate, which leaves nothing to discount.
pub(crate) fn hop_wait(
    waits: &[f64],
    factor: impl Fn(usize) -> f64,
    edge: u32,
    to: ChannelId,
) -> f64 {
    let f = if edge == NONE {
        1.0
    } else {
        factor(edge as usize)
    };
    f * waits[to.idx()]
}

/// Total header waiting time along a route (the `Σ_l w_l` of Eq. 7 and
/// the `Ω_{j,c}` of Eq. 8): [`hop_wait`] summed over its `hops`, each the
/// channel and the successor entry of the edge it is entered by, as
/// `RoutedLoads` keeps a stream's.
pub(crate) fn path_wait(
    hops: &[(ChannelId, u32)],
    waits: &[f64],
    factor: impl Fn(usize) -> f64,
) -> f64 {
    let (&(first, _), rest) = hops.split_first().expect("a path has hops");
    rest.iter().fold(waits[first.idx()], |total, &(to, edge)| {
        total + hop_wait(waits, &factor, edge, to)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticModel;
    use crate::options::ModelOptions;
    use crate::rates::{ChannelLoads, RoutedLoads};
    use crate::service;
    use noc_topology::{NodeId, Quarc, Topology};
    use noc_workloads::{DestinationSets, Workload};

    fn workload(rate: f64) -> (Quarc, Workload) {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        (topo, Workload::new(32, rate, 0.0, sets).unwrap())
    }

    /// The M/G/1 point of a workload: its loads, per-channel waits and
    /// per-entry wait factors.
    struct Solved {
        loads: ChannelLoads,
        waits: Vec<f64>,
        factor: Vec<f64>,
    }

    fn solved(topo: &Quarc, wl: &Workload, opts: &ModelOptions) -> Solved {
        let routed = RoutedLoads::walk(topo, wl, opts).unwrap();
        let (sol, factor) = service::solve_at(&routed, wl.gen_rate).unwrap();
        Solved {
            loads: routed.at(wl.gen_rate),
            waits: sol.waiting,
            factor,
        }
    }

    /// Eq. 7 for one pair: its route's hops with their successor entries,
    /// summed as the assembler sums a stream.
    fn pair_latency(topo: &Quarc, at: &Solved, (src, dst): (u32, u32)) -> f64 {
        let path = topo.unicast_path(NodeId(src), NodeId(dst));
        let mut prev = None;
        let hops: Vec<(ChannelId, u32)> = path
            .channels()
            .map(|c| {
                let edge = prev.replace(c).and_then(|p| at.loads.successors.find(p, c));
                (c, edge.map_or(NONE, |e| e as u32))
            })
            .collect();
        path_wait(&hops, &at.waits, |e| at.factor[e]) + 32.0 + path.hop_count() as f64
    }

    fn average_latency(topo: &Quarc, wl: &Workload, opts: ModelOptions) -> f64 {
        let model = AnalyticModel::new(topo, wl, opts);
        model.evaluate().unwrap().unicast_latency
    }

    #[test]
    fn zero_load_latency_is_msg_plus_hops() {
        let (topo, wl) = workload(0.0);
        let at = solved(&topo, &wl, &ModelOptions::default());
        for (s, d) in [(0u32, 1u32), (0, 4), (0, 8), (3, 11), (15, 2)] {
            let lat = pair_latency(&topo, &at, (s, d));
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
            let (topo, wl) = workload(rate);
            let avg = average_latency(&topo, &wl, ModelOptions::default());
            assert!(
                avg > prev,
                "latency must increase with load ({rate}: {avg})"
            );
            prev = avg;
        }
    }

    #[test]
    fn average_is_between_extremes() {
        let (topo, wl) = workload(0.004);
        let opts = ModelOptions::default();
        let at = solved(&topo, &wl, &opts);
        let avg = average_latency(&topo, &wl, opts);
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s != d {
                    let l = pair_latency(&topo, &at, (s, d));
                    lo = lo.min(l);
                    hi = hi.max(l);
                }
            }
        }
        assert!(lo <= avg && avg <= hi);
        // Nearest-neighbour latency must be below the cross-quadrant one at
        // equal load (fewer hops, fewer queueing points).
        let near = pair_latency(&topo, &at, (0, 1));
        let far = pair_latency(&topo, &at, (0, 6));
        assert!(near < far);
    }

    #[test]
    fn correction_none_is_upper_bound() {
        let (topo, wl) = workload(0.006);
        let at = solved(&topo, &wl, &ModelOptions::default());
        let with = pair_latency(&topo, &at, (0, 4));
        // The same waits, each in full: `ServiceCorrection::None`'s factor.
        let uncorrected = Solved {
            factor: vec![1.0; at.factor.len()],
            ..at
        };
        let without = pair_latency(&topo, &uncorrected, (0, 4));
        assert!(without >= with);
    }
}
