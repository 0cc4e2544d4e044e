//! Figure-panel definitions: the `(N, M, α, pattern)` grids of the
//! paper's Fig. 6/7 evaluation, expressed as [`Scenario`]s.
//!
//! Before the Scenario API this module was the experiment engine itself,
//! hard-wired to the Quarc; it is now a thin catalogue layer. A
//! [`FigureConfig`] names one panel; [`FigureConfig::scenario`] compiles
//! it into the declarative spec the [`crate::runner::Runner`] executes.
//! The panel → scenario mapping is regression-locked byte-for-byte
//! against the pre-Scenario harness by `tests/migration_golden.rs`.

use crate::scenario::{MulticastPattern, Scenario, SweepSpec, WorkloadSpec};
use noc_sim::SimConfig;
use noc_topology::TopologySpec;

/// Destination-set spatial pattern (the difference between Fig. 6 and
/// Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Uniformly random destinations (Fig. 6).
    Random,
    /// Destinations localized on a single rim quadrant (Fig. 7).
    Localized,
}

/// One panel of a figure: a `(N, M, α, pattern)` configuration whose
/// latency is swept over the generation rate.
#[derive(Clone, Debug)]
pub struct FigureConfig {
    /// Quarc size `N`.
    pub n: usize,
    /// Message length `M` in flits.
    pub msg_len: u32,
    /// Multicast fraction `α`.
    pub alpha: f64,
    /// Multicast destination-set size per node.
    pub group_size: usize,
    /// Destination pattern.
    pub pattern: Pattern,
    /// Seed for destination sets and simulation.
    pub seed: u64,
}

impl FigureConfig {
    /// Panel label used in tables and CSV file names, e.g.
    /// `quarc-n32-m64-a10-random`.
    ///
    /// Labels are injective in `α`: whole percentages keep the historic
    /// two-digit form (`a05`, `a10`), anything else embeds the exact
    /// fraction (`0.033` → `a0p033`), so two panels differing only in a
    /// sub-percent `α` can no longer collide onto one file name.
    pub fn label(&self) -> String {
        format!(
            "quarc-n{}-m{}-a{}-{}",
            self.n,
            self.msg_len,
            alpha_code(self.alpha),
            match self.pattern {
                Pattern::Random => "random",
                Pattern::Localized => "localized",
            }
        )
    }

    /// Compile the panel into a [`Scenario`]: Quarc topology, the panel's
    /// destination pattern, the figures' `[0.15, 1.02] × saturation`
    /// sweep with `points` rates, a default analytical overlay and one
    /// replicate.
    pub fn scenario(&self, points: usize, sim: SimConfig) -> Scenario {
        let multicast = match self.pattern {
            Pattern::Random => MulticastPattern::Random {
                group: self.group_size,
            },
            Pattern::Localized => MulticastPattern::Localized {
                group: self.group_size,
            },
        };
        Scenario::new(
            self.label(),
            TopologySpec::Quarc { n: self.n },
            WorkloadSpec::new(self.msg_len, self.alpha, multicast),
            SweepSpec::figure_default(points),
        )
        .with_sim(sim)
        .with_seed(self.seed)
    }
}

/// Label code of a multicast fraction: `{:02.0}` of the percentage when
/// `alpha` is exactly a whole percent, otherwise the exact fraction with
/// `.`/`-` made file-name safe.
///
/// The whole-percent test is "does rounding the percentage and dividing
/// back reproduce `alpha` bit-exactly" — *not* `fract() == 0.0` on
/// `alpha * 100.0`, which float noise breaks (`0.07 * 100.0` is
/// `7.000000000000001`). The reproduction test also makes the code
/// injective: two distinct alphas can only share a rounded form if both
/// equal `round(pct)/100`, i.e. are the same number.
fn alpha_code(alpha: f64) -> String {
    let pct = (alpha * 100.0).round();
    if (0.0..100.0).contains(&pct) && pct / 100.0 == alpha {
        format!("{pct:02.0}")
    } else {
        format!("{alpha}").replace('.', "p").replace('-', "m")
    }
}

/// The default panel set of Fig. 6/7: network sizes 16–128, message
/// lengths 16–64 flits and multicast rates 3–10% as in the paper's
/// evaluation (§4), one representative combination per panel.
///
/// All combinations respect the model's stated assumption that messages
/// are *larger than the network diameter* (`M > N/4`): the Eq. 6 recursion
/// holds a channel until the message tail drains through the path's end,
/// which is only physical when the message spans the remaining path.
/// (The `16,16` panel of the smallest network uses `M = 16 = 4×diameter`.)
/// Violating the assumption (e.g. `N = 128, M = 16`) makes the model
/// overestimate latency by design.
pub fn default_panels(pattern: Pattern, seed: u64) -> Vec<FigureConfig> {
    let combos = [
        (16usize, 16u32, 0.05),
        (16, 32, 0.05),
        (32, 64, 0.10),
        (64, 32, 0.05),
        (128, 64, 0.03),
    ];
    combos
        .iter()
        .map(|&(n, m, a)| FigureConfig {
            n,
            msg_len: m,
            alpha: a,
            // Random sets use N/4 destinations; localized sets must fit a
            // rim quadrant (N/4 nodes), so they use N/8.
            group_size: match pattern {
                Pattern::Random => n / 4,
                Pattern::Localized => (n / 8).max(2),
            },
            pattern,
            seed,
        })
        .collect()
}

/// The complete evaluation cross product of the paper's §4: every
/// `N ∈ {16, 32, 64, 128} × M ∈ {16, 32, 48, 64} × α ∈ {3%, 5%, 10%}`
/// combination that respects the model's `M ≥ N/4` assumption
/// (45 panels). Used by the `fig6`/`fig7` exhibits' `--full` mode.
pub fn full_panels(pattern: Pattern, seed: u64) -> Vec<FigureConfig> {
    let mut out = Vec::new();
    for n in [16usize, 32, 64, 128] {
        for m in [16u32, 32, 48, 64] {
            if (m as usize) < n / 4 {
                continue; // violates the message-vs-diameter assumption
            }
            for alpha in [0.03, 0.05, 0.10] {
                out.push(FigureConfig {
                    n,
                    msg_len: m,
                    alpha,
                    group_size: match pattern {
                        Pattern::Random => n / 4,
                        Pattern::Localized => (n / 8).max(2),
                    },
                    pattern,
                    seed,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;

    #[test]
    fn labels_are_stable() {
        let cfg = FigureConfig {
            n: 32,
            msg_len: 64,
            alpha: 0.10,
            group_size: 8,
            pattern: Pattern::Random,
            seed: 1,
        };
        assert_eq!(cfg.label(), "quarc-n32-m64-a10-random");
    }

    #[test]
    fn distinct_alphas_never_share_a_label() {
        // The old `{:02.0}` percent rounding mapped 3%, 3.3% and 3.49% to
        // the same `a03`.
        let mut cfg = FigureConfig {
            n: 32,
            msg_len: 64,
            alpha: 0.03,
            group_size: 8,
            pattern: Pattern::Random,
            seed: 1,
        };
        let labels: Vec<String> = [0.03, 0.033, 0.0349, 0.05, 0.07, 0.1]
            .iter()
            .map(|&a| {
                cfg.alpha = a;
                cfg.label()
            })
            .collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "labels collided: {labels:?}");
        // Whole percentages keep their historic file names — including
        // ones like 7% where `alpha * 100.0` carries float noise.
        assert!(labels.contains(&"quarc-n32-m64-a03-random".to_string()));
        assert!(labels.contains(&"quarc-n32-m64-a07-random".to_string()));
        assert!(labels.contains(&"quarc-n32-m64-a10-random".to_string()));
        // Sub-percent alphas embed the exact fraction.
        assert!(labels.contains(&"quarc-n32-m64-a0p033-random".to_string()));
    }

    #[test]
    fn panel_scenarios_sweep_through_the_knee() {
        let cfg = FigureConfig {
            n: 16,
            msg_len: 32,
            alpha: 0.05,
            group_size: 4,
            pattern: Pattern::Random,
            seed: 1,
        };
        let sc = cfg.scenario(6, SimConfig::quick(1));
        assert_eq!(sc.seed, 1);
        let topo = sc.topology.build().unwrap();
        let proto = sc.workload.prototype(topo.as_ref(), sc.seed).unwrap();
        let sweep = sc
            .sweep
            .resolve(topo.as_ref(), &proto, Default::default())
            .unwrap();
        assert_eq!(sweep.len(), 6);
        // Linear over [0.15, 1.02] × saturation.
        let r = sweep.rates();
        assert!((r[5] / r[0] - 1.02 / 0.15).abs() < 1e-9);
    }

    #[test]
    fn quick_panel_agrees_at_low_load() {
        let cfg = FigureConfig {
            n: 16,
            msg_len: 16,
            alpha: 0.05,
            group_size: 4,
            pattern: Pattern::Random,
            seed: 3,
        };
        let mut sc = cfg.scenario(2, SimConfig::quick(3));
        sc.sweep = crate::scenario::SweepSpec::Explicit {
            rates: vec![0.002, 0.004],
        };
        let res = Runner::new().threads(2).run(&sc).expect("panel runs");
        assert_eq!(res.points.len(), 2);
        for p in &res.points {
            assert!(!p.sim_saturated);
            let e = p.multicast_error().expect("both sides finite");
            assert!(
                e < 0.15,
                "model should track simulation within 15% at low load, got {e}"
            );
        }
    }

    #[test]
    fn default_panels_cover_paper_parameter_ranges() {
        let panels = default_panels(Pattern::Random, 1);
        assert_eq!(panels.len(), 5);
        assert!(panels.iter().any(|p| p.n == 16));
        assert!(panels.iter().any(|p| p.n == 128));
        assert!(panels.iter().any(|p| p.msg_len == 16));
        assert!(panels.iter().any(|p| p.msg_len == 64));
        assert!(panels.iter().any(|p| (p.alpha - 0.03).abs() < 1e-9));
        assert!(panels.iter().any(|p| (p.alpha - 0.10).abs() < 1e-9));
        // Every panel respects the "message larger than the diameter"
        // assumption of the model (§2).
        for p in &panels {
            assert!(
                p.msg_len as usize >= p.n / 4,
                "panel {} violates M >= diameter",
                p.label()
            );
        }
    }

    #[test]
    fn full_grid_covers_cross_product_within_assumption() {
        let panels = full_panels(Pattern::Random, 1);
        assert_eq!(panels.len(), 45, "4x4x3 minus assumption-violating cells");
        assert!(panels.iter().all(|p| p.msg_len as usize >= p.n / 4));
        // N=128 keeps only M in {32, 48, 64}.
        assert_eq!(panels.iter().filter(|p| p.n == 128).count(), 9);
        // N=16 keeps every message length.
        assert_eq!(panels.iter().filter(|p| p.n == 16).count(), 12);
    }
}
