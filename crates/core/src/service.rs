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
//! [`noc_queueing::fixed_point`] in the order `components` gives:
//! strongly connected components of the loaded, non-terminal channels,
//! sinks first. That order depends on the rate only through which
//! channels are loaded, so the route walk computes it once and every
//! probe and evaluation over the walk shares it
//! (`RoutedLoads::components`). A channel that is not on a cycle is
//! back-substituted once (a mesh or hypercube under dimension-ordered
//! routing is one pass over the channels, exactly the feedforward setting
//! of the network-calculus literature), and only the cyclic components —
//! the rims of quarc, ring, spidergon and torus — are swept Gauss–Seidel
//! until their own residual is below the tolerance (independent ones
//! side by side, in lockstep). Per edge the solve
//! reads `P_{i→j}` and the wait's edge factor, computed once per solve;
//! per channel the wait `W_j`, recomputed only when `x_j` moves — the
//! same numbers the per-edge formula gives, bit for bit.
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

use crate::model::ModelError;
use crate::options::ModelOptions;
use crate::rates::{ChannelLoads, RoutedLoads};
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

/// A holding-time recursion's solution (see `solve_holding`), in buffers
/// a saturation search keeps from probe to probe.
#[derive(Default)]
pub(crate) struct Holding {
    /// Per-channel time a message keeps the channel allocated.
    pub(crate) time: Vec<f64>,
    /// Per channel, the wait term's [`wait`](WaitTerm::wait) at its
    /// holding time.
    pub(crate) wait: Vec<f64>,
    /// Per successor entry, the wait term's [`factor`](WaitTerm::factor)
    /// on that edge.
    pub(crate) factor: Vec<f64>,
    /// Per successor entry, `P_{i→j}`.
    p: Vec<f64>,
    /// Sweeps of the slowest component (1 when acyclic).
    pub(crate) iterations: usize,
}

/// What the two backends' holding recursions differ in: the wait a header
/// finds at channel `j`, and the share of it that applies on an edge
/// `i → j`. The wait must be non-decreasing in `x_j` and may answer `∞`
/// for an unstable queue (see the module docs for why that makes the
/// undamped component-ordered solve sound).
pub(crate) trait WaitTerm {
    /// The wait at a channel with arrival rate `lj` whose messages hold
    /// it `xj` cycles.
    fn wait(&self, lj: f64, xj: f64) -> f64;

    /// The factor on that wait for traffic entering it along an edge
    /// carrying `rate`, `p_next` of what leaves the channel it comes from
    /// ([`p_next`]).
    fn factor(&self, rate: f64, p_next: f64, lj: f64) -> f64;
}

/// `P_{i→j}`, the share of channel `i`'s traffic (arrival rate `li`) that
/// moves on along an edge carrying `rate`. An edge no traffic takes (a
/// stream's, at zero multicast rate) may leave an unloaded channel: `P =
/// 0` there, not `0/0`.
pub(crate) fn p_next(rate: f64, li: f64) -> f64 {
    if li > 0.0 {
        rate / li
    } else {
        0.0
    }
}

/// The paper's wait term of Eq. 6: the M/G/1 wait `W_j` (Eq. 3–5)
/// discounted by the self-traffic correction.
pub(crate) struct CorrectedMg1<'a> {
    pub(crate) msg_len: f64,
    pub(crate) opts: &'a ModelOptions,
}

impl WaitTerm for CorrectedMg1<'_> {
    fn wait(&self, lj: f64, xj: f64) -> f64 {
        if lj <= 0.0 {
            return 0.0;
        }
        MG1::with_paper_sigma(lj, xj, self.msg_len).waiting(self.opts.formula)
    }

    fn factor(&self, rate: f64, p_next: f64, lj: f64) -> f64 {
        let frac = if lj > 0.0 { (rate / lj).min(1.0) } else { 0.0 };
        self.opts.correction.factor(frac, p_next)
    }
}

/// The strongly connected components of the holding recursion's unknowns
/// — the loaded, non-terminal channels with successors — in evaluation
/// order (terminal and unloaded channels serve in the drain time).
pub(crate) fn components(topo: &dyn Topology, loads: &ChannelLoads) -> Components {
    let channels = topo.network().channels();
    let successors = &loads.successors;
    let unknown = |i: usize| {
        loads.lambda[i] > 0.0
            && channels[i].kind != ChannelKind::Ejection
            && !successors[i].is_empty()
    };
    Components::new(channels.len(), unknown, |i| {
        successors[i].iter().map(|&(j, _)| j.idx())
    })
}

/// The holding-time recursion both analytical backends share:
///
/// ```text
/// x_i = Σ_j P_{i→j} · (factor_{i→j}·wait_j(x_j) + x_j + 1),   x_terminal = msg
/// ```
///
/// solved over `order` ([`components`] of `loads`) into `held`; the
/// [`WaitTerm`] is the corrected M/G/1 wait for the paper's model, the
/// fluid `ρh/(1−ρ)` wait for the network-calculus bounds. A diverging or
/// still-climbing component, or a fixed point with some `ρ_j ≥ 1`, is
/// the model's saturation horizon.
pub(crate) fn solve_holding(
    loads: &ChannelLoads,
    order: &Components,
    msg_len: f64,
    term: &impl WaitTerm,
    held: &mut Holding,
) -> Result<(), Saturated> {
    let lambda = &loads.lambda;
    // Quick screen: a channel whose raw rate already exceeds 1/msg can
    // never be stable (its service time is at least the drain time).
    if let Some((idx, &l)) = lambda.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) {
        if l * msg_len >= 1.0 {
            return Err(Saturated {
                bottleneck: ChannelId(idx as u32),
                rho: l * msg_len,
            });
        }
    }

    // Per edge `P_{i→j}` and the wait's factor; per channel the wait at
    // the current holding time, kept in step with it.
    let successors = &loads.successors;
    let Holding {
        time,
        wait,
        factor,
        p,
        iterations,
    } = held;
    p.clear();
    factor.clear();
    for (i, row) in successors.iter().enumerate() {
        let li = lambda[i];
        for &(j, rate) in row {
            let p_ij = p_next(rate, li);
            p.push(p_ij);
            factor.push(term.factor(rate, p_ij, lambda[j.idx()]));
        }
    }
    time.clear();
    time.resize(lambda.len(), msg_len);
    wait.clear();
    wait.extend(lambda.iter().map(|&l| term.wait(l, msg_len)));
    // The right-hand side of Eq. 6 at channel `i`.
    let solved = FixedPoint::default().solve(order, time, |i, x| {
        let row = successors.range(i);
        let terms = successors.entries()[row.clone()]
            .iter()
            .zip(&p[row.clone()]);
        let mut acc = 0.0;
        for ((&(j, _), &p), &f) in terms.zip(&factor[row]) {
            let j = j.idx();
            acc += p * (f * wait[j] + x[j] + 1.0);
        }
        // A non-finite value is divergence: the solve stops there.
        if acc.is_finite() {
            wait[i] = term.wait(lambda[i], acc);
        }
        acc
    });
    // On failure `time` is the last finite iterate, and the channel whose
    // utilisation reached the limit is its most utilised one.
    let bottleneck = most_utilised(lambda, time);
    match solved {
        // A finite fixed point with an unstable queue is still saturation
        // (its wait would be infinite).
        Ok(sweeps) if bottleneck.rho < 1.0 => {
            *iterations = sweeps;
            Ok(())
        }
        _ => Err(bottleneck),
    }
}

/// The most utilised channel at holding times `service`: what the solve
/// reports on failure, and a backend when its own post-convergence check
/// — a non-finite wait or delay — still finds the point unstable.
pub(crate) fn most_utilised(lambda: &[f64], service: &[f64]) -> Saturated {
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

/// `ρ_j = λ_j·x_j` per channel.
pub(crate) fn utilisation(lambda: &[f64], time: &[f64]) -> Vec<f64> {
    lambda.iter().zip(time).map(|(l, x)| l * x).collect()
}

/// The M/G/1 solution of the service recursion on `loads`, solved in
/// `order`, with the wait factor of every successor entry (what the
/// assembler reads per hop).
pub(crate) fn solve_in(
    loads: &ChannelLoads,
    order: &Components,
    msg_len: f64,
    opts: &ModelOptions,
) -> Result<(ServiceSolution, Vec<f64>), Saturated> {
    let mut held = Holding::default();
    let term = CorrectedMg1 { msg_len, opts };
    solve_holding(loads, order, msg_len, &term, &mut held)?;
    if held.wait.iter().any(|w| !w.is_finite()) {
        return Err(most_utilised(&loads.lambda, &held.time));
    }
    let solution = ServiceSolution {
        rho: utilisation(&loads.lambda, &held.time),
        service: held.time,
        waiting: held.wait,
        iterations: held.iterations,
    };
    Ok((solution, held.factor))
}

/// The M/G/1 solution over `routed` at generation rate `rate`, a rate the
/// workload can be offered at, with the wait factor of every successor
/// entry: what the assembler and the largest-subset heuristic read.
pub(crate) fn solve_at(
    routed: &RoutedLoads<'_>,
    rate: f64,
) -> Result<(ServiceSolution, Vec<f64>), ModelError> {
    routed.wl.check_rate(rate)?;
    let loads = routed.rates_at(rate);
    let order = routed.components(&loads);
    let msg_len = routed.wl.msg_len as f64;
    Ok(solve_in(&loads, &order, msg_len, &routed.opts)?)
}

/// Solve the service recursion for a routed workload.
pub fn solve(
    topo: &dyn Topology,
    loads: &ChannelLoads,
    msg_len: f64,
    opts: &ModelOptions,
) -> Result<ServiceSolution, Saturated> {
    let order = components(topo, loads);
    Ok(solve_in(loads, &order, msg_len, opts)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
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
