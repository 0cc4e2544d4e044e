//! Component-ordered Gauss–Seidel for monotone fixed points over a sparse
//! dependency graph.
//!
//! The per-channel service-time recursion (paper Eq. 6) defines each
//! channel's mean service time in terms of the waiting and service times of
//! its successor channels: a system `x_i = F_i(x)` in which `F_i` reads only
//! the successors of `i`. The driver uses that sparsity instead of
//! iterating the whole vector:
//!
//! 1. [`Components`] — one iterative Tarjan pass groups the active nodes
//!    into strongly connected components and emits them **sinks first**,
//!    so everything a component reads is final before it is touched.
//! 2. An **acyclic** component (one node, no self-edge) is evaluated once:
//!    plain back-substitution. Meshes and hypercubes under
//!    dimension-ordered routing are acyclic throughout, and one pass over
//!    the channels is their whole solve.
//! 3. A **cyclic** component (the rims of ring-based topologies) is swept
//!    Gauss–Seidel — in place, successors first, so a sweep carries
//!    information all the way round the cycle except across its one back
//!    edge — until the sweep's own largest update is below `tolerance`.
//!    Cyclic components that come one after another and read none of
//!    each other (the two rims of a quarc) are swept in lockstep, one
//!    node of each in turn: each sweep is a chain of dependent updates,
//!    and two chains side by side keep the processor busy where one
//!    waits on its divisions. Each keeps its own order, sweep count and
//!    test, so the numbers are those of sweeping them one by one.
//!
//! There is no under-relaxation. The systems solved here are monotone
//! (`F` non-decreasing in every argument) and start from a sub-solution
//! (`x₀ ≤ F(x₀)`), so in-place sweeps rise monotonically to the least
//! fixed point and cannot oscillate; damping by `θ` would only slow the
//! contraction from `P` to `(1−θ)/(1−θP)` per sweep. For the same reason
//! the driver takes no Newton or Anderson step: either can overshoot the
//! least fixed point, which a monotone sweep cannot.
//!
//! Divergence (a component value exceeding `bound`, or NaN) and an
//! exhausted sweep budget are both errors — a still-climbing iterate is
//! not a fixed point. The caller reports either as saturation.

/// Failure modes of the solve.
#[derive(Clone, Debug, PartialEq)]
pub enum FixedPointError {
    /// A component exceeded the divergence bound or became non-finite —
    /// for the service-time recursion this means the offered load is beyond
    /// saturation. The offending value is not written back: `x` holds the
    /// last finite iterate.
    Diverged {
        /// Index of the offending component.
        index: usize,
        /// Its value when divergence was detected.
        value: f64,
        /// Sweeps of its strongly connected component completed before.
        iterations: usize,
    },
    /// A cyclic component was still moving by `tolerance` or more after
    /// `max_iterations` sweeps.
    NotConverged {
        /// Residual (max absolute update) of the final sweep.
        residual: f64,
        /// Sweeps made, i.e. the budget.
        iterations: usize,
    },
}

impl std::fmt::Display for FixedPointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixedPointError::Diverged { index, value, iterations } => write!(
                f,
                "fixed point diverged at component {index} (value {value:.3e}) after {iterations} sweeps"
            ),
            FixedPointError::NotConverged { residual, iterations } => write!(
                f,
                "fixed point still moving by {residual:.3e} after {iterations} sweeps"
            ),
        }
    }
}

impl std::error::Error for FixedPointError {}

/// Configuration of the fixed-point driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FixedPoint {
    /// Convergence tolerance on the max absolute update of one sweep over
    /// a cyclic component.
    pub tolerance: f64,
    /// Sweep budget per cyclic component.
    pub max_iterations: usize,
    /// Divergence bound: any component above this aborts the solve.
    pub bound: f64,
}

impl Default for FixedPoint {
    fn default() -> Self {
        FixedPoint {
            tolerance: 1e-9,
            max_iterations: 10_000,
            bound: 1e12,
        }
    }
}

/// The strongly connected components of a dependency graph in evaluation
/// order: sinks first, and inside a component successors before their
/// predecessors (DFS post-order), so an in-place sweep reads a stale value
/// only across back edges.
#[derive(Clone, Debug)]
pub struct Components {
    /// Active nodes, grouped by component.
    order: Vec<u32>,
    /// One entry per component, in evaluation order.
    spans: Vec<Span>,
}

#[derive(Clone, Copy, Debug)]
struct Span {
    /// End of the component's slice of `order` (it starts where the
    /// previous one ends).
    end: u32,
    /// More than one node, or a node that reads itself.
    cyclic: bool,
    /// Swept together with the components before it: it and they are
    /// cyclic, and it reads none of them.
    joins: bool,
}

impl Components {
    /// Group the `active` nodes among `0..n`; `successors(i)` yields the
    /// nodes `F_i` reads (inactive ones are constants and are skipped).
    /// One iterative Tarjan pass, `O(n + edges)` time, `O(n)` scratch.
    pub fn new<I>(n: usize, active: impl Fn(usize) -> bool, successors: impl Fn(usize) -> I) -> Self
    where
        I: Iterator<Item = usize>,
    {
        const UNSEEN: u32 = u32::MAX;
        // Discovered, finished and already handed to a component.
        const ASSIGNED: u32 = u32::MAX - 1;
        // Asked once per node, not once per edge into it.
        let active: Vec<bool> = (0..n).map(active).collect();
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut finish = vec![0u32; n];
        let mut reads_itself = vec![false; n];
        // The component of each assigned node, and where the run of
        // cyclic components swept together begins.
        let mut component = vec![0u32; n];
        let mut run_start = 0u32;
        let mut pending: Vec<u32> = Vec::new();
        let mut dfs: Vec<(u32, I)> = Vec::new();
        let mut out = Components {
            order: Vec::new(),
            spans: Vec::new(),
        };
        let (mut discovered, mut finished) = (0u32, 0u32);

        for root in 0..n {
            if !active[root] || index[root] != UNSEEN {
                continue;
            }
            let mut open = Some(root);
            loop {
                if let Some(v) = open.take() {
                    index[v] = discovered;
                    low[v] = discovered;
                    discovered += 1;
                    pending.push(v as u32);
                    dfs.push((v as u32, successors(v)));
                }
                let Some(frame) = dfs.last_mut() else { break };
                let v = frame.0 as usize;
                if let Some(w) = frame.1.next() {
                    if !active[w] {
                        continue;
                    }
                    reads_itself[v] |= w == v;
                    match index[w] {
                        UNSEEN => open = Some(w),
                        ASSIGNED => {}
                        seen => low[v] = low[v].min(seen),
                    }
                    continue;
                }
                dfs.pop();
                finish[v] = finished;
                finished += 1;
                if let Some(parent) = dfs.last() {
                    let p = parent.0 as usize;
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    // `v` roots a component: everything above it on the
                    // pending stack.
                    let start = out.order.len();
                    while let Some(w) = pending.pop() {
                        index[w as usize] = ASSIGNED;
                        out.order.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    let members = &mut out.order[start..];
                    members.sort_unstable_by_key(|&w| finish[w as usize]);
                    let cyclic = members.len() > 1 || reads_itself[v];
                    let id = out.spans.len() as u32;
                    for &w in members.iter() {
                        component[w as usize] = id;
                    }
                    // Everything a member reads is in this component or
                    // an earlier one.
                    let joins = cyclic
                        && out.spans.last().is_some_and(|s| s.cyclic)
                        && members.iter().all(|&w| {
                            successors(w as usize)
                                .all(|u| !active[u] || !(run_start..id).contains(&component[u]))
                        });
                    if !joins {
                        run_start = id;
                    }
                    out.spans.push(Span {
                        end: out.order.len() as u32,
                        cyclic,
                        joins,
                    });
                }
            }
        }
        out
    }

    /// The components in evaluation order: `(nodes, cyclic)`.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], bool)> {
        self.spans().map(|(nodes, span)| (nodes, span.cyclic))
    }

    fn spans(&self) -> impl Iterator<Item = (&[u32], Span)> {
        let mut start = 0usize;
        self.spans.iter().map(move |&s| {
            let nodes = &self.order[start..s.end as usize];
            start = s.end as usize;
            (nodes, s)
        })
    }
}

/// One component of a run swept together.
struct Lane<'a> {
    nodes: &'a [u32],
    sweeps: usize,
    residual: f64,
    running: bool,
}

impl FixedPoint {
    /// Solve `x_i = f(i, x)` in place over the nodes of `components`,
    /// starting from the values already in `x`; entries of `x` outside
    /// `components` are constants the solve only reads. `f(i, x)` reads
    /// only the successors of `i` among the unknowns, which is what lets
    /// independent components be swept side by side. On an error `x` holds
    /// what sweeping one component after another leaves, though `f` may
    /// also have been called for nodes of components after the failing
    /// one.
    ///
    /// Returns the number of sweeps the slowest component took (1 when
    /// the graph is acyclic), or why there is no solution.
    pub fn solve<F>(
        &self,
        components: &Components,
        x: &mut [f64],
        mut f: F,
    ) -> Result<usize, FixedPointError>
    where
        F: FnMut(usize, &[f64]) -> f64,
    {
        let mut slowest = 0usize;
        let mut spans = components.spans().peekable();
        let mut run = Vec::new();
        while let Some((nodes, span)) = spans.next() {
            let cyclic = span.cyclic;
            if spans.peek().is_some_and(|(_, next)| next.joins) {
                run.clear();
                run.push(nodes);
                while let Some((nodes, _)) = spans.next_if(|(_, next)| next.joins) {
                    run.push(nodes);
                }
                slowest = slowest.max(self.sweep_together(&run, x, &mut f)?);
                continue;
            }
            let mut sweeps = 0usize;
            loop {
                let mut residual: f64 = 0.0;
                for &i in nodes {
                    let i = i as usize;
                    let updated = f(i, x);
                    if !updated.is_finite() || updated.abs() > self.bound {
                        return Err(FixedPointError::Diverged {
                            index: i,
                            value: updated,
                            iterations: sweeps,
                        });
                    }
                    residual = residual.max((updated - x[i]).abs());
                    x[i] = updated;
                }
                sweeps += 1;
                if !cyclic || residual < self.tolerance {
                    break;
                }
                if sweeps >= self.max_iterations {
                    return Err(FixedPointError::NotConverged {
                        residual,
                        iterations: sweeps,
                    });
                }
            }
            slowest = slowest.max(sweeps);
        }
        Ok(slowest)
    }

    /// Sweep a run of cyclic components that read none of each other,
    /// node by node in turn, so that their dependency chains overlap on
    /// the processor. Each keeps its own order, sweep count and
    /// convergence test, so the values, the count and any error are those
    /// of sweeping them one after another: after a failure the components
    /// behind the first that failed are put back as they were, never
    /// reached.
    fn sweep_together<F>(
        &self,
        run: &[&[u32]],
        x: &mut [f64],
        f: &mut F,
    ) -> Result<usize, FixedPointError>
    where
        F: FnMut(usize, &[f64]) -> f64,
    {
        let saved: Vec<f64> = run
            .iter()
            .flat_map(|c| c.iter().map(|&i| x[i as usize]))
            .collect();
        let mut lanes: Vec<Lane> = run
            .iter()
            .map(|&nodes| Lane {
                nodes,
                sweeps: 0,
                residual: 0.0,
                running: true,
            })
            .collect();
        let longest = run.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut failed: Option<(usize, FixedPointError)> = None;
        let stop = |lanes: &mut [Lane], failed: &mut Option<_>, k: usize, err| {
            if failed.as_ref().is_none_or(|&(first, _)| k < first) {
                *failed = Some((k, err));
            }
            lanes[k..].iter_mut().for_each(|lane| lane.running = false);
        };
        while lanes.iter().any(|lane| lane.running) {
            for lane in &mut lanes {
                lane.residual = 0.0;
            }
            for step in 0..longest {
                for k in 0..lanes.len() {
                    let lane = &mut lanes[k];
                    let Some(&i) = lane.nodes.get(step).filter(|_| lane.running) else {
                        continue;
                    };
                    let i = i as usize;
                    let updated = f(i, x);
                    if !updated.is_finite() || updated.abs() > self.bound {
                        let err = FixedPointError::Diverged {
                            index: i,
                            value: updated,
                            iterations: lane.sweeps,
                        };
                        stop(&mut lanes, &mut failed, k, err);
                        continue;
                    }
                    lane.residual = lane.residual.max((updated - x[i]).abs());
                    x[i] = updated;
                }
            }
            for k in 0..lanes.len() {
                let lane = &mut lanes[k];
                if !lane.running {
                    continue;
                }
                lane.sweeps += 1;
                if lane.residual < self.tolerance {
                    lane.running = false;
                } else if lane.sweeps >= self.max_iterations {
                    let err = FixedPointError::NotConverged {
                        residual: lane.residual,
                        iterations: lane.sweeps,
                    };
                    stop(&mut lanes, &mut failed, k, err);
                }
            }
        }
        let Some((first, err)) = failed else {
            return Ok(lanes.iter().map(|lane| lane.sweeps).max().unwrap_or(0));
        };
        let behind = run[..=first].iter().map(|c| c.len()).sum::<usize>();
        let nodes = run[first + 1..].iter().flat_map(|c| c.iter());
        for (&i, &v) in nodes.zip(&saved[behind..]) {
            x[i as usize] = v;
        }
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every node active, adjacency lists as given.
    fn components(adj: &[Vec<usize>]) -> Components {
        Components::new(adj.len(), |_| true, |i| adj[i].iter().copied())
    }

    #[test]
    fn solves_scalar_contraction() {
        // x = cos(x) has the Dottie fixed point ~0.739085. One node that
        // reads itself is a cyclic component.
        let comps = components(&[vec![0]]);
        let mut x = [0.0];
        let sweeps = FixedPoint::default()
            .solve(&comps, &mut x, |_, x| x[0].cos())
            .unwrap();
        assert!((x[0] - 0.739_085_133).abs() < 1e-6);
        assert!(sweeps > 1);
    }

    #[test]
    fn solves_linear_system() {
        // x = A x + b with spectral radius < 1: x0 = 0.5 x1 + 1, x1 = 0.3 x0 + 2.
        let comps = components(&[vec![1], vec![0]]);
        let mut x = [0.0, 0.0];
        FixedPoint::default()
            .solve(&comps, &mut x, |i, x| match i {
                0 => 0.5 * x[1] + 1.0,
                _ => 0.3 * x[0] + 2.0,
            })
            .unwrap();
        // Exact solution: x0 = (1 + 0.5*2)/(1 - 0.15) = 2/0.85, x1 = 0.3x0 + 2.
        let x0 = 2.0 / 0.85;
        assert!((x[0] - x0).abs() < 1e-6);
        assert!((x[1] - (0.3 * x0 + 2.0)).abs() < 1e-6);
    }

    #[test]
    fn acyclic_graphs_back_substitute_in_one_pass() {
        // A chain 0 → 1 → 2 → 3 with 3 inactive (a constant): each node is
        // evaluated exactly once, in dependency order.
        let adj = [vec![1], vec![2], vec![3], vec![]];
        let comps = Components::new(4, |i| i != 3, |i| adj[i].iter().copied());
        let order: Vec<_> = comps
            .iter()
            .map(|(c, cyclic)| (c.to_vec(), cyclic))
            .collect();
        assert_eq!(
            order,
            [(vec![2], false), (vec![1], false), (vec![0], false)]
        );
        let mut x = [0.0, 0.0, 0.0, 10.0];
        let mut calls = 0;
        let sweeps = FixedPoint::default()
            .solve(&comps, &mut x, |i, x| {
                calls += 1;
                x[i + 1] + 1.0
            })
            .unwrap();
        assert_eq!((sweeps, calls), (1, 3));
        assert_eq!(x, [13.0, 12.0, 11.0, 10.0]);
    }

    #[test]
    fn components_come_sinks_first_and_cycles_successors_first() {
        // 0 reads the cycle 1 → 2 → 3 → 1, which reads the sink 4.
        let adj = [vec![1], vec![2], vec![3], vec![1, 4], vec![]];
        let order: Vec<_> = components(&adj)
            .iter()
            .map(|(c, cyclic)| (c.to_vec(), cyclic))
            .collect();
        assert_eq!(
            order,
            [(vec![4], false), (vec![3, 2, 1], true), (vec![0], false)]
        );
    }

    /// The reference: each component swept to the end before the next
    /// one starts.
    fn one_by_one(
        fp: &FixedPoint,
        comps: &Components,
        x: &mut [f64],
        mut f: impl FnMut(usize, &[f64]) -> f64,
    ) -> Result<usize, FixedPointError> {
        let mut slowest = 0;
        for (nodes, cyclic) in comps.iter() {
            let mut sweeps = 0;
            loop {
                let mut residual: f64 = 0.0;
                for &i in nodes {
                    let i = i as usize;
                    let updated = f(i, x);
                    if !updated.is_finite() || updated.abs() > fp.bound {
                        return Err(FixedPointError::Diverged {
                            index: i,
                            value: updated,
                            iterations: sweeps,
                        });
                    }
                    residual = residual.max((updated - x[i]).abs());
                    x[i] = updated;
                }
                sweeps += 1;
                if !cyclic || residual < fp.tolerance {
                    break;
                }
                if sweeps >= fp.max_iterations {
                    return Err(FixedPointError::NotConverged {
                        residual,
                        iterations: sweeps,
                    });
                }
            }
            slowest = slowest.max(sweeps);
        }
        Ok(slowest)
    }

    #[test]
    fn independent_cycles_are_swept_together() {
        // Two cycles reading only the sink 6, a third reading the first,
        // and 7 reading all of them.
        let adj = [
            vec![1, 6],
            vec![0],
            vec![3],
            vec![2, 6],
            vec![5, 0],
            vec![4],
            vec![],
            vec![0, 2, 4],
        ];
        let comps = components(&adj);
        let joins: Vec<_> = comps.spans.iter().map(|s| (s.cyclic, s.joins)).collect();
        assert_eq!(
            joins,
            [
                (false, false),
                (true, false),
                (true, true),
                (true, false),
                (false, false)
            ]
        );
        let step = |i: usize, x: &[f64]| 0.3 * adj[i].iter().map(|&j| x[j]).sum::<f64>() + 1.0;
        let (mut together, mut apart) = ([0.0; 8], [0.0; 8]);
        let fp = FixedPoint::default();
        let sweeps = fp.solve(&comps, &mut together, step).unwrap();
        assert_eq!(Ok(sweeps), one_by_one(&fp, &comps, &mut apart, step));
        assert_eq!(together.map(f64::to_bits), apart.map(f64::to_bits));
    }

    #[test]
    fn divergence_is_detected() {
        let fp = FixedPoint {
            bound: 1e6,
            ..Default::default()
        };
        let comps = components(&[vec![0]]);
        let mut x = [1.0];
        let err = fp.solve(&comps, &mut x, |_, x| 10.0 * x[0]).unwrap_err();
        match err {
            FixedPointError::Diverged { index, value, .. } => {
                assert_eq!(index, 0);
                assert!(value > 1e6);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
        // The last finite iterate stays behind for diagnostics.
        assert!(x[0].is_finite() && x[0] <= 1e6);
    }

    #[test]
    fn nan_is_divergence() {
        let comps = components(&[vec![0]]);
        let err = FixedPoint::default()
            .solve(&comps, &mut [1.0], |_, _| f64::NAN)
            .unwrap_err();
        assert!(matches!(err, FixedPointError::Diverged { .. }));
    }

    #[test]
    fn iteration_budget_reports_residual() {
        // An exhausted budget is an error carrying the residual, never a
        // solution.
        let fp = FixedPoint {
            max_iterations: 3,
            ..Default::default()
        };
        let comps = components(&[vec![0]]);
        let err = fp.solve(&comps, &mut [0.0], |_, x| x[0].cos()).unwrap_err();
        match err {
            FixedPointError::NotConverged {
                residual,
                iterations,
            } => {
                assert!(residual > 0.0);
                assert_eq!(iterations, 3);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rings whose later ones may read earlier ones, some pairs
        /// independent, at loads from light to diverging and under sweep
        /// budgets that may run out: the solve gives the values, the
        /// count and the error of sweeping one component after another,
        /// bit for bit, failed or not.
        #[test]
        fn sweeping_together_is_sweeping_one_after_another(
            sizes in proptest::collection::vec(1usize..6, 1..6),
            links in proptest::collection::vec((0usize..30, 0usize..30), 0..6),
            load in proptest::collection::vec(0.0f64..0.008, 30),
            budget in 5usize..200,
        ) {
            let n: usize = sizes.iter().sum::<usize>() + 1;
            let sink = n - 1;
            let mut adj = vec![vec![sink]; n];
            adj[sink].clear();
            let mut start = 0;
            for &size in &sizes {
                for k in 0..size {
                    adj[start + k].push(start + (k + 1) % size);
                }
                start += size;
            }
            for &(a, b) in &links {
                let (a, b) = (a % sink, b % sink);
                if a > b && !adj[a].contains(&b) {
                    adj[a].push(b);
                }
            }
            let step = |i: usize, x: &[f64]| -> f64 {
                let p = 1.0 / adj[i].len() as f64;
                adj[i]
                    .iter()
                    .map(|&j| {
                        let rho = load[j] * x[j];
                        let wait = if rho < 1.0 { rho * x[j] / (1.0 - rho) } else { f64::INFINITY };
                        p * (wait + x[j] + 1.0)
                    })
                    .sum()
            };
            let comps = Components::new(n, |i| i != sink, |i| adj[i].iter().copied());
            let fp = FixedPoint {
                max_iterations: budget,
                bound: 1e4,
                ..Default::default()
            };
            let (mut together, mut apart) = (vec![32.0; n], vec![32.0; n]);
            let outcome = fp.solve(&comps, &mut together, step);
            prop_assert_eq!(outcome, one_by_one(&fp, &comps, &mut apart, step));
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&together), bits(&apart));
        }

        /// Random systems of the shape of Eq. 6 with the fluid wait term,
        /// `x_i = Σ_j P_ij · (ρ_j x_j / (1 − ρ_j) + x_j + 1)`, `ρ_j = λ_j x_j`,
        /// nodes without successors pinned at `msg`.
        #[test]
        fn sweeps_rise_monotonically_from_a_sub_solution(
            n in 2usize..24,
            edges in proptest::collection::vec((0usize..24, 0usize..24), 1..80),
            load in proptest::collection::vec(0.0f64..0.004, 24),
        ) {
            let msg = 32.0;
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in &edges {
                if !adj[a % n].contains(&(b % n)) {
                    adj[a % n].push(b % n);
                }
            }
            let step = |i: usize, x: &[f64]| -> f64 {
                let p = 1.0 / adj[i].len() as f64;
                adj[i]
                    .iter()
                    .map(|&j| {
                        let rho = load[j] * x[j];
                        let wait = if rho < 1.0 { rho * x[j] / (1.0 - rho) } else { f64::INFINITY };
                        p * (wait + x[j] + 1.0)
                    })
                    .sum()
            };
            let comps = Components::new(n, |i| !adj[i].is_empty(), |i| adj[i].iter().copied());
            let mut members: Vec<u32> = comps.iter().flat_map(|(c, _)| c.to_vec()).collect();
            members.sort_unstable();
            let active: Vec<u32> = (0..n as u32).filter(|&i| !adj[i as usize].is_empty()).collect();
            prop_assert_eq!(&members, &active, "every active node sits in exactly one component");

            let mut x = vec![msg; n];
            let mut rose = true;
            let outcome = FixedPoint::default().solve(&comps, &mut x, |i, x| {
                let v = step(i, x);
                rose &= v >= x[i];
                v
            });
            prop_assert!(rose, "an update fell below the value it replaced");
            prop_assert!(x.iter().all(|&v| v >= msg));
            if outcome.is_ok() {
                for &i in &active {
                    let i = i as usize;
                    let v = step(i, &x);
                    prop_assert!((v - x[i]).abs() < 1e-6, "node {}: {} vs {}", i, v, x[i]);
                }
            }
        }
    }
}
