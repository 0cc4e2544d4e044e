//! The per-channel service-time recursion (Eq. 6) and its M/G/1 waiting
//! times (Eq. 3–5).
//!
//! The service time of a wormhole channel is the time it remains allocated
//! to one message: the downstream waiting, the downstream service and one
//! cycle of header transfer, averaged over the possible continuations:
//!
//! ```text
//! x_i = Σ_j P_{i→j} · ((1 − corr_{ij})·W_j + x_j + 1)        (Eq. 6)
//! x_ejection = msg                                            (§2.1)
//! W_j = PK(λ_j, x_j, σ_j = x_j − msg)                         (Eq. 3–5)
//! ```
//!
//! The recursion itself is `solve_holding`, shared with the
//! network-calculus backend; this module supplies the M/G/1 wait term.
//!
//! ## How it is solved
//!
//! `x_i` reads only the successors of `i`, and [`ChannelLoads`] already
//! holds that graph. `solve_holding` hands it to
//! [`noc_queueing::fixed_point`]: strongly connected components of the
//! loaded, non-terminal channels, sinks first; a channel that is not on a
//! cycle is back-substituted once (a mesh or hypercube under
//! dimension-ordered routing is one pass over the channels, exactly the
//! feedforward setting of the network-calculus literature), and only the
//! cyclic components — the rims of quarc, ring, spidergon and torus — are
//! swept Gauss–Seidel until their own residual is below the tolerance.
//!
//! The sweep is undamped because the system is monotone. Both wait terms
//! are non-decreasing in `x_j` (P–K and the fluid wait grow with `ρ_j =
//! λ_j·x_j` and with `x_j` itself), so `F` is non-decreasing; the start
//! `x₀ = msg` is a sub-solution (`F_i(x₀) ≥ msg + 1` because the `P_{i→j}`
//! sum to one); hence every in-place update is at least the value it
//! replaces and the sweeps climb to the *least* fixed point — the one the
//! model means. Two consequences: a utilisation `ρ_j ≥ 1` seen mid-solve
//! can only grow, so it is final and reported as saturation at once; and a
//! component still climbing when the sweep budget runs out has no
//! certified fixed point, so that is saturation too, never a solution.

use crate::options::ModelOptions;
use crate::rates::ChannelLoads;
use noc_queueing::fixed_point::{Components, FixedPoint};
use noc_queueing::mg1::MG1;
use noc_topology::{ChannelId, ChannelKind, Topology};

/// Converged per-channel service times and waiting times.
#[derive(Clone, Debug)]
pub struct ServiceSolution {
    /// Mean service time `x_j` per channel.
    pub service: Vec<f64>,
    /// Mean M/G/1 waiting time `W_j` per channel.
    pub waiting: Vec<f64>,
    /// Utilisation `ρ_j` per channel.
    pub rho: Vec<f64>,
    /// Gauss–Seidel sweeps of the slowest strongly connected component
    /// of the channel-successor graph (1 when the graph is acyclic).
    pub iterations: usize,
}

/// Saturation: the recursion has no finite solution because some channel
/// load reached its stability limit.
#[derive(Clone, Debug, PartialEq)]
pub struct Saturated {
    /// The channel that bound: the most utilised one in the last finite
    /// iterate (or, from the raw-rate screen, the most loaded one).
    pub bottleneck: ChannelId,
    /// Its utilisation `ρ = λ·x` there — a lower bound on the true one.
    pub rho: f64,
}

impl std::fmt::Display for Saturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model saturated: channel {:?} at utilisation {:.3}",
            self.bottleneck, self.rho
        )
    }
}

impl std::error::Error for Saturated {}

/// A converged holding-time recursion (see `solve_holding`).
pub(crate) struct Holding {
    /// Per-channel time a message keeps the channel allocated.
    pub(crate) time: Vec<f64>,
    /// Sweeps of the slowest component (1 when acyclic).
    pub(crate) iterations: usize,
    /// The most utilised channel at the fixed point (`ρ < 1`): what a
    /// backend reports when its own post-convergence check — a
    /// non-finite wait or delay — still finds the point unstable.
    pub(crate) bottleneck: Saturated,
}

/// The holding-time recursion both analytical backends share:
///
/// ```text
/// x_i = Σ_j P_{i→j} · (wait_term + x_j + 1),   x_terminal = msg
/// ```
///
/// `wait_term(x_j, rate_{i→j}, λ_i, λ_j)` is the only thing that differs:
/// the self-traffic-corrected M/G/1 wait for the paper's model, the fluid
/// `ρh/(1−ρ)` wait for the network-calculus bounds. It must be
/// non-decreasing in `x_j` and may answer `∞` for an unstable queue (see
/// the module docs for why that makes the undamped component-ordered
/// solve sound). A diverging or still-climbing component, or a fixed
/// point with some `ρ_j ≥ 1`, is the model's saturation horizon.
pub(crate) fn solve_holding(
    topo: &dyn Topology,
    loads: &ChannelLoads,
    msg_len: f64,
    wait_term: impl Fn(f64, f64, f64, f64) -> f64,
) -> Result<Holding, Saturated> {
    let net = topo.network();
    let nc = net.num_channels();

    // Quick screen: a channel whose raw rate already exceeds 1/msg can
    // never be stable (its service time is at least the drain time).
    if let Some((idx, &l)) = loads
        .lambda
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
    {
        if l * msg_len >= 1.0 {
            return Err(Saturated {
                bottleneck: ChannelId(idx as u32),
                rho: l * msg_len,
            });
        }
    }

    // Terminal and unloaded channels serve in the drain time; the rest
    // are the unknowns.
    let channels = net.channels();
    let unknown = |i: usize| {
        loads.lambda[i] > 0.0
            && channels[i].kind != ChannelKind::Ejection
            && !loads.successors[i].is_empty()
    };
    let components = Components::new(nc, unknown, |i| {
        loads.successors[i].iter().map(|&(j, _)| j.idx())
    });
    let mut time = vec![msg_len; nc];
    // The right-hand side of Eq. 6 at channel `i`.
    let solved = FixedPoint::default().solve(&components, &mut time, |i, x| {
        let li = loads.lambda[i];
        let mut acc = 0.0;
        for &(j, rate) in &loads.successors[i] {
            let j = j.idx();
            acc += (rate / li) * (wait_term(x[j], rate, li, loads.lambda[j]) + x[j] + 1.0);
        }
        acc
    });
    // On failure `time` is the last finite iterate, and the channel whose
    // utilisation reached the limit is its most utilised one.
    let bottleneck = most_utilised(&loads.lambda, &time);
    match solved {
        // A finite fixed point with an unstable queue is still saturation
        // (its wait would be infinite).
        Ok(iterations) if bottleneck.rho < 1.0 => Ok(Holding {
            time,
            iterations,
            bottleneck,
        }),
        _ => Err(bottleneck),
    }
}

fn most_utilised(lambda: &[f64], service: &[f64]) -> Saturated {
    let mut best = (0usize, 0.0f64);
    for i in 0..lambda.len() {
        let r = lambda[i] * service[i];
        if r > best.1 {
            best = (i, r);
        }
    }
    Saturated {
        bottleneck: ChannelId(best.0 as u32),
        rho: best.1,
    }
}

/// The M/G/1 wait `W` (Eq. 3–5) of a channel with arrival rate `lambda`
/// and mean service time `x`.
fn mg1_wait(lambda: f64, x: f64, msg_len: f64, opts: &ModelOptions) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    MG1::with_paper_sigma(lambda, x, msg_len).waiting(opts.formula)
}

/// The paper's wait term of Eq. 6: `W_j` discounted by the self-traffic
/// correction.
pub(crate) fn corrected_mg1_wait(
    msg_len: f64,
    opts: &ModelOptions,
) -> impl Fn(f64, f64, f64, f64) -> f64 + '_ {
    move |xj, rate, li, lj| {
        let frac = if lj > 0.0 { (rate / lj).min(1.0) } else { 0.0 };
        // An edge no traffic takes (a stream's, at zero multicast rate)
        // may leave an unloaded channel: `P = 0` there, not `0/0`.
        let p_next = if li > 0.0 { rate / li } else { 0.0 };
        opts.correction.factor(frac, p_next) * mg1_wait(lj, xj, msg_len, opts)
    }
}

/// Eq. 7's `w_l` at the solved point, in the shape the assembler and
/// [`path_wait`](crate::unicast::path_wait) read: the header's wait for
/// channel `to`, entered from `from = (channel, λ_{from→to})`. At the
/// injection channel (`None`) the message queues behind its own node's
/// earlier messages — no predecessor, full wait; after it, Eq. 6's wait
/// term once more (the correction discounts the share of `to`'s traffic
/// contributed by the message's own previous channel).
pub fn header_wait<'a>(
    loads: &'a ChannelLoads,
    sol: &'a ServiceSolution,
    msg_len: f64,
    opts: &'a ModelOptions,
) -> impl Fn(Option<(ChannelId, f64)>, ChannelId) -> f64 + 'a {
    let corrected = corrected_mg1_wait(msg_len, opts);
    move |from, to| match from {
        None => sol.waiting[to.idx()],
        Some((prev, rate)) => corrected(
            sol.service[to.idx()],
            rate,
            loads.lambda[prev.idx()],
            loads.lambda[to.idx()],
        ),
    }
}

/// Solve the service recursion for a routed workload.
pub fn solve(
    topo: &dyn Topology,
    loads: &ChannelLoads,
    msg_len: f64,
    opts: &ModelOptions,
) -> Result<ServiceSolution, Saturated> {
    let held = solve_holding(topo, loads, msg_len, corrected_mg1_wait(msg_len, opts))?;
    let service = held.time;
    let waiting: Vec<f64> = loads
        .lambda
        .iter()
        .zip(&service)
        .map(|(&l, &x)| mg1_wait(l, x, msg_len, opts))
        .collect();
    if waiting.iter().any(|w| !w.is_finite()) {
        return Err(held.bottleneck);
    }
    let rho = loads
        .lambda
        .iter()
        .zip(&service)
        .map(|(l, x)| l * x)
        .collect();
    Ok(ServiceSolution {
        service,
        waiting,
        rho,
        iterations: held.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::RoutedLoads;
    use noc_topology::Quarc;
    use noc_workloads::{DestinationSets, Workload};

    fn setup(rate: f64, alpha: f64) -> (Quarc, Workload) {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(32, rate, alpha, sets).unwrap();
        (topo, wl)
    }

    #[test]
    fn zero_load_service_is_drain_time_plus_pipeline() {
        let (topo, wl) = setup(0.0, 0.0);
        let opts = ModelOptions::default();
        let loads = RoutedLoads::walk(&topo, &wl, &opts)
            .unwrap()
            .at(wl.gen_rate);
        let sol = solve(&topo, &loads, 32.0, &opts).unwrap();
        // All channels unloaded: service defaults to msg, waits to zero.
        assert!(sol.waiting.iter().all(|&w| w == 0.0));
        assert!(sol.rho.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn light_load_converges_with_small_waits() {
        let (topo, wl) = setup(0.002, 0.05);
        let opts = ModelOptions::default();
        let loads = RoutedLoads::walk(&topo, &wl, &opts)
            .unwrap()
            .at(wl.gen_rate);
        let sol = solve(&topo, &loads, 32.0, &opts).unwrap();
        assert!(sol.iterations > 0);
        // Waits exist but are small at 0.002 msgs/node/cycle.
        let max_w = sol.waiting.iter().copied().fold(0.0, f64::max);
        assert!(max_w > 0.0, "some channel must have queueing");
        assert!(
            max_w < 32.0,
            "waits should be below one service time, got {max_w}"
        );
        // Service times at loaded link channels exceed the drain time
        // (downstream hop cost) but stay bounded.
        let net = topo.network();
        for c in net.links() {
            let x = sol.service[c.id.idx()];
            assert!(x >= 32.0, "link {c:?} service {x} must be >= msg");
            assert!(x < 45.0, "link {c:?} service {x} unexpectedly large");
        }
    }

    #[test]
    fn service_grows_with_load() {
        let opts = ModelOptions::default();
        let mut prev_max = 0.0;
        for rate in [0.001, 0.004, 0.008] {
            let (topo, wl) = setup(rate, 0.05);
            let loads = RoutedLoads::walk(&topo, &wl, &opts)
                .unwrap()
                .at(wl.gen_rate);
            let sol = solve(&topo, &loads, 32.0, &opts).unwrap();
            let max_x = sol.service.iter().copied().fold(0.0, f64::max);
            assert!(max_x > prev_max, "service must grow with load");
            prev_max = max_x;
        }
    }

    #[test]
    fn saturation_detected_at_high_rate() {
        let (topo, wl) = setup(0.2, 0.05);
        let opts = ModelOptions::default();
        let loads = RoutedLoads::walk(&topo, &wl, &opts)
            .unwrap()
            .at(wl.gen_rate);
        let err = solve(&topo, &loads, 32.0, &opts).unwrap_err();
        assert!(
            err.rho >= 1.0,
            "reported rho {} must flag overload",
            err.rho
        );
    }

    #[test]
    fn ejection_channels_serve_in_msg_cycles() {
        let (topo, wl) = setup(0.004, 0.1);
        let opts = ModelOptions::default();
        let loads = RoutedLoads::walk(&topo, &wl, &opts)
            .unwrap()
            .at(wl.gen_rate);
        let sol = solve(&topo, &loads, 32.0, &opts).unwrap();
        let net = topo.network();
        for c in net.channels() {
            if c.kind == ChannelKind::Ejection {
                assert_eq!(sol.service[c.id.idx()], 32.0);
            }
        }
    }
}
