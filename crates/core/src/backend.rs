//! Pluggable analytical backends behind the [`ModelBackend`] trait.
//!
//! The paper's M/G/1 fixed-point model ([`MgOneBackend`]) predicts *mean*
//! latencies but is only sound for Poisson sources and the path-based /
//! dual-path stream structure; the network-calculus backend
//! ([`NetworkCalculusBackend`], [`crate::calculus`]) produces worst-case
//! *bounds* for every traffic process and routing scheme. The experiment
//! layer selects one via the serializable [`BackendSpec`] and, crucially,
//! anchors saturation-relative sweeps on a backend that is actually
//! applicable to the prototype workload instead of silently trusting the
//! M/G/1 estimate outside its domain.
//!
//! ```text
//!                 ┌──────────────────────────────┐
//!   BackendSpec ──│ trait ModelBackend           │
//!    (serde)      │  code / applicable           │
//!                 │  evaluate -> Prediction      │
//!                 │  max_sustainable_rate        │
//!                 │  … both `_over` RoutedLoads  │
//!                 └──────┬───────────────┬───────┘
//!                        │               │
//!                 MgOneBackend   NetworkCalculusBackend
//!                 (mean, Eq.3–16) (worst-case (σ,ρ) bounds)
//! ```
//!
//! The trait is the one entry to both questions: latency through
//! [`evaluate`](ModelBackend::evaluate), saturation through
//! [`max_sustainable_rate`](ModelBackend::max_sustainable_rate). A
//! sweep's points share their routes, so both can also be asked over a
//! [`RoutedLoads`] table walked once
//! ([`evaluate_over`](ModelBackend::evaluate_over),
//! [`max_rate_over`](ModelBackend::max_rate_over)). For the built-in
//! backends that is the only implementation: their `evaluate` and
//! `max_sustainable_rate` walk, then ask the table.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::calculus::{self, Fluid};
use crate::model::{assemble, ModelError, Prediction};
use crate::multicast::expected_last_completion;
use crate::options::ModelOptions;
use crate::rates::RoutedLoads;
use crate::saturation::bisect_max_rate;
use crate::service::{self, CorrectedMg1};
use noc_topology::Topology;
use noc_workloads::Workload;

pub use crate::calculus::NetworkCalculusBackend;

/// An analytical model of the network: given a workload on a topology it
/// predicts per-point latencies and, by bisection, the largest sustainable
/// generation rate.
///
/// [`MgOneBackend`] predictions are *means*; [`NetworkCalculusBackend`]
/// predictions are *worst-case bounds*. Both fill the same [`Prediction`]
/// shape so the experiment layer can overlay either against simulation.
pub trait ModelBackend: Sync {
    /// Short machine-readable identifier (`"mg1"`, `"nc"`).
    fn code(&self) -> &'static str;

    /// Whether this backend's assumptions hold for the topology/workload
    /// pair. An inapplicable backend may still evaluate (the number is
    /// then an uncontrolled extrapolation — or, for implicit topologies,
    /// a typed [`ModelError::UnsupportedTopology`]); sweep anchoring
    /// refuses to use it.
    fn applicable(&self, topo: &dyn Topology, wl: &Workload) -> bool;

    /// Evaluate the model at the workload's generation rate.
    fn evaluate(
        &self,
        topo: &dyn Topology,
        wl: &Workload,
        opts: &ModelOptions,
    ) -> Result<Prediction, ModelError>;

    /// The largest generation rate this backend considers sustainable on
    /// `topo`: the largest rate at which [`evaluate`](Self::evaluate)
    /// succeeds, found by exponential search + bisection
    /// ([`bisect_max_rate`]). `proto` supplies everything but the rate
    /// (message length, multicast fraction, destination sets, traffic
    /// shape, routing scheme); `tol` is the relative precision of the
    /// bisection.
    ///
    /// The default probes with a full `evaluate` per rate. The built-in
    /// backends override it with a probe that reaches the same verdict
    /// from the holding recursion alone, over routes walked once per
    /// search (see [`crate::saturation`]).
    fn max_sustainable_rate(
        &self,
        topo: &dyn Topology,
        proto: &Workload,
        opts: &ModelOptions,
        tol: f64,
    ) -> f64 {
        bisect_max_rate(tol, |rate| {
            let Ok(wl) = proto.at_rate(rate) else {
                return false;
            };
            self.evaluate(topo, &wl, opts).is_ok()
        })
    }

    /// [`evaluate`](Self::evaluate) at generation rate `rate` over routes
    /// already walked; a rate the workload cannot be offered at
    /// ([`Workload::check_rate`]) is a [`ModelError::Workload`]. The
    /// default does not read the table: it evaluates the routed workload
    /// at `rate` from scratch.
    fn evaluate_over(&self, routed: &RoutedLoads<'_>, rate: f64) -> Result<Prediction, ModelError> {
        let wl = routed.wl.at_rate(rate)?;
        self.evaluate(routed.topo, &wl, &routed.opts)
    }

    /// [`max_sustainable_rate`](Self::max_sustainable_rate) over routes
    /// already walked. The default does not read the table.
    fn max_rate_over(&self, routed: &RoutedLoads<'_>, tol: f64) -> f64 {
        self.max_sustainable_rate(routed.topo, routed.wl, &routed.opts, tol)
    }
}

/// The paper's M/G/1 mean-value model (Eq. 3–16) as a backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct MgOneBackend;

impl ModelBackend for MgOneBackend {
    fn code(&self) -> &'static str {
        "mg1"
    }

    fn applicable(&self, topo: &dyn Topology, wl: &Workload) -> bool {
        // The derivation assumes memoryless arrivals, asynchronous
        // per-port multicast streams and messages at least as long as the
        // network diameter (Eq. 6 holds a channel until the tail drains
        // through the path's end, which is only physical when the message
        // spans the remaining path), plus a materialized channel table
        // (the fixed point iterates dense per-channel load vectors, which
        // is exactly what implicit scale topologies avoid building).
        !topo.network().is_implicit()
            && wl.traffic.is_poisson()
            && wl.routing.model_applicable()
            && wl.msg_len as usize >= topo.diameter()
    }

    fn evaluate(
        &self,
        topo: &dyn Topology,
        wl: &Workload,
        opts: &ModelOptions,
    ) -> Result<Prediction, ModelError> {
        self.evaluate_over(&RoutedLoads::walk(topo, wl, opts)?, wl.gen_rate)
    }

    fn max_sustainable_rate(
        &self,
        topo: &dyn Topology,
        proto: &Workload,
        opts: &ModelOptions,
        tol: f64,
    ) -> f64 {
        RoutedLoads::walk(topo, proto, opts).map_or(0.0, |routed| self.max_rate_over(&routed, tol))
    }

    fn evaluate_over(&self, routed: &RoutedLoads<'_>, rate: f64) -> Result<Prediction, ModelError> {
        let (sol, factor) = service::solve_at(routed, rate)?;
        Ok(assemble(
            routed,
            &sol.waiting,
            |e| factor[e],
            &sol.rho,
            sol.iterations,
            expected_last_completion,
        ))
    }

    fn max_rate_over(&self, routed: &RoutedLoads<'_>, tol: f64) -> f64 {
        let term = CorrectedMg1 {
            msg_len: routed.wl.msg_len as f64,
            opts: &routed.opts,
        };
        routed.max_rate(tol, &term)
    }
}

impl ModelBackend for NetworkCalculusBackend {
    fn code(&self) -> &'static str {
        "nc"
    }

    fn applicable(&self, topo: &dyn Topology, _wl: &Workload) -> bool {
        // Envelopes exist for every TrafficSpec and the stream walks for
        // every RoutingSpec; the only domain boundary (non-concurrent
        // multicast hardware) is shared with M/G/1 and reported as a
        // typed evaluate error, matching that backend's contract. The
        // per-channel (σ,ρ) accumulation does, however, need the dense
        // channel table, so implicit topologies are out of scope.
        !topo.network().is_implicit()
    }

    fn evaluate(
        &self,
        topo: &dyn Topology,
        wl: &Workload,
        opts: &ModelOptions,
    ) -> Result<Prediction, ModelError> {
        self.evaluate_over(&RoutedLoads::walk(topo, wl, opts)?, wl.gen_rate)
    }

    fn max_sustainable_rate(
        &self,
        topo: &dyn Topology,
        proto: &Workload,
        opts: &ModelOptions,
        tol: f64,
    ) -> f64 {
        RoutedLoads::walk(topo, proto, opts).map_or(0.0, |routed| self.max_rate_over(&routed, tol))
    }

    /// Step 3 of the [`calculus`] module docs through the shared
    /// assembler: `D_j` in full at every hop (bounds take no mean-value
    /// correction), and per node the *sum* of the per-stream bounds — it
    /// dominates the maximum and stays sound when streams serialise at a
    /// shared port or co-travel a shared prefix, the regimes the
    /// `E[max]`-of-exponentials model excludes.
    fn evaluate_over(&self, routed: &RoutedLoads<'_>, rate: f64) -> Result<Prediction, ModelError> {
        routed.wl.check_rate(rate)?;
        let msg = routed.wl.msg_len as f64;
        let loads = routed.at(rate);
        let bounds = calculus::solve_bounds(&loads, &routed.components(&loads), msg)?;
        Ok(assemble(
            routed,
            &bounds.delay,
            |_| 1.0,
            &bounds.rho,
            bounds.iterations,
            |port_bounds| port_bounds.iter().sum(),
        ))
    }

    fn max_rate_over(&self, routed: &RoutedLoads<'_>, tol: f64) -> f64 {
        routed.max_rate(tol, &Fluid)
    }
}

/// Serializable selector for a [`ModelBackend`], carried by
/// [`ModelOptions`]. The default keeps the paper's
/// M/G/1 model and thus every historical scenario/golden byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendSpec {
    /// The paper's M/G/1 fixed-point mean-value model ([`MgOneBackend`]).
    #[default]
    MgOne,
    /// Worst-case network-calculus bounds ([`NetworkCalculusBackend`]).
    NetworkCalculus,
}

/// Every backend, in selector order — for ablation sweeps over backends.
pub const ALL_BACKENDS: [BackendSpec; 2] = [BackendSpec::MgOne, BackendSpec::NetworkCalculus];

impl BackendSpec {
    /// The backend this selector names.
    pub fn backend(self) -> &'static dyn ModelBackend {
        match self {
            BackendSpec::MgOne => &MgOneBackend,
            BackendSpec::NetworkCalculus => &NetworkCalculusBackend,
        }
    }

    /// Short machine-readable identifier (`"mg1"`, `"nc"`).
    pub fn code(self) -> &'static str {
        self.backend().code()
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{Quarc, RoutingSpec};
    use noc_workloads::{DestinationSets, TrafficSpec};

    fn workload(alpha: f64) -> (Quarc, Workload) {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 7);
        let wl = Workload::new(32, 0.002, alpha, sets).unwrap();
        (topo, wl)
    }

    #[test]
    fn applicability_matrix() {
        let (topo, wl) = workload(0.1);
        assert!(MgOneBackend.applicable(&topo, &wl));
        assert!(NetworkCalculusBackend.applicable(&topo, &wl));
        let multipath = wl.clone().with_routing(RoutingSpec::Multipath);
        assert!(!MgOneBackend.applicable(&topo, &multipath));
        assert!(NetworkCalculusBackend.applicable(&topo, &multipath));
        let bursty = wl.with_traffic(TrafficSpec::OnOff {
            burst_len: 8.0,
            peak_rate: 0.2,
        });
        assert!(!MgOneBackend.applicable(&topo, &bursty));
        assert!(NetworkCalculusBackend.applicable(&topo, &bursty));
    }

    #[test]
    fn mg1_needs_messages_at_least_as_long_as_the_diameter() {
        let topo = Quarc::new(128).unwrap();
        assert_eq!(topo.diameter(), 32);
        let sets = DestinationSets::random(&topo, 32, 7);
        let at = |msg| Workload::new(msg, 0.001, 0.1, sets.clone()).unwrap();
        assert!(!MgOneBackend.applicable(&topo, &at(16)));
        assert!(MgOneBackend.applicable(&topo, &at(32)));
        // The bound assumes nothing about message length.
        assert!(NetworkCalculusBackend.applicable(&topo, &at(16)));
    }

    #[test]
    fn no_backend_is_applicable_to_implicit_topologies() {
        use noc_topology::Min;
        let implicit = Min::new(2, 4).unwrap();
        let sets = DestinationSets::random(&implicit, 3, 7);
        let wl = Workload::new(32, 0.002, 0.1, sets).unwrap();
        assert!(!MgOneBackend.applicable(&implicit, &wl));
        assert!(!NetworkCalculusBackend.applicable(&implicit, &wl));
        // Applicability keys on the storage, not the family: the same
        // network force-materialized is back in scope for both backends.
        let dense = Min::materialized(2, 4).unwrap();
        assert!(MgOneBackend.applicable(&dense, &wl));
        assert!(NetworkCalculusBackend.applicable(&dense, &wl));
    }

    #[test]
    fn rates_the_workload_refuses_are_typed_errors_on_every_backend() {
        // Below zero both built-in backends used to answer with zero-load
        // latencies, at NaN and above one with a saturation.
        use crate::ModelError;
        use noc_workloads::WorkloadError;

        /// The required methods only: `evaluate_over` is the default.
        struct Delegate(&'static dyn ModelBackend);
        impl ModelBackend for Delegate {
            fn code(&self) -> &'static str {
                self.0.code()
            }
            fn applicable(&self, topo: &dyn Topology, wl: &Workload) -> bool {
                self.0.applicable(topo, wl)
            }
            fn evaluate(
                &self,
                topo: &dyn Topology,
                wl: &Workload,
                opts: &ModelOptions,
            ) -> Result<Prediction, ModelError> {
                self.0.evaluate(topo, wl, opts)
            }
        }

        let (topo, wl) = workload(0.05);
        let routed = RoutedLoads::walk(&topo, &wl, &ModelOptions::default()).unwrap();
        for spec in ALL_BACKENDS {
            let delegate = Delegate(spec.backend());
            let backends: [&dyn ModelBackend; 2] = [spec.backend(), &delegate];
            for (backend, rate) in backends
                .iter()
                .flat_map(|b| [(b, -0.001), (b, f64::NAN), (b, 2.0)])
            {
                let err = backend.evaluate_over(&routed, rate).unwrap_err();
                assert!(
                    matches!(err, ModelError::Workload(WorkloadError::InvalidRate(r)) if r.to_bits() == rate.to_bits()),
                    "{spec} at {rate}: {err:?}"
                );
            }
            assert!(spec.backend().evaluate_over(&routed, 0.0).is_ok(), "{spec}");
        }
    }

    #[test]
    fn mg1_backend_matches_the_direct_model() {
        let (topo, wl) = workload(0.1);
        let opts = ModelOptions::default();
        let via_backend = MgOneBackend.evaluate(&topo, &wl, &opts).unwrap();
        let direct = crate::AnalyticModel::new(&topo, &wl, opts)
            .evaluate()
            .unwrap();
        assert_eq!(via_backend.unicast_latency, direct.unicast_latency);
        assert_eq!(via_backend.multicast_latency, direct.multicast_latency);
    }

    #[test]
    fn spec_resolves_codes_and_display() {
        assert_eq!(BackendSpec::default(), BackendSpec::MgOne);
        assert_eq!(BackendSpec::MgOne.code(), "mg1");
        assert_eq!(BackendSpec::NetworkCalculus.code(), "nc");
        assert_eq!(format!("{}", BackendSpec::NetworkCalculus), "nc");
        for spec in ALL_BACKENDS {
            assert_eq!(spec.backend().code(), spec.code());
        }
    }

    #[test]
    fn spec_round_trips_through_serde() {
        for spec in ALL_BACKENDS {
            let json = serde::json::to_string_pretty(&spec);
            let back: BackendSpec = serde::json::from_str(&json).expect("round trip parses");
            assert_eq!(back, spec);
        }
    }
}
