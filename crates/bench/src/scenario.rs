//! The declarative experiment specification.
//!
//! A [`Scenario`] is the serializable description of one experiment of the
//! paper's shape — `(topology, workload, sweep, engine, model options) →
//! latency curves` — generalized over every topology in the registry. A
//! scenario is *data*: it can be written to JSON, stored next to its
//! results, sent to another machine and re-run bit-identically. The
//! [`crate::runner::Runner`] turns a scenario into results; nothing in the
//! spec layer touches a simulator.
//!
//! Design rules:
//!
//! * Everything is constructed by value and validated by
//!   [`Scenario::validate`] — malformed specs are typed
//!   [`Error`]s, not panics.
//! * All randomness derives from the single master [`Scenario::seed`]
//!   (destination sets and simulation streams), so `(scenario) → results`
//!   is a pure function.
//! * Sweeps may be stated relative to the analytical model's saturation
//!   point ([`SweepSpec::SaturationSpan`]), reproducing the figures'
//!   "flat region through the knee" framing on any topology.

use crate::error::{Error, Result};
use noc_app::ClosedLoopSpec;
use noc_sim::SimConfig;
use noc_topology::{NodeId, Topology, TopologySpec};
use noc_workloads::{
    DestinationSets, RateSweep, RoutingSpec, TrafficSpec, UnicastPattern, Workload,
};
use quarc_core::{BackendSpec, ModelError, ModelOptions, RoutedLoads};
use serde::{Deserialize, Serialize};

/// Placeholder generation rate of workload *prototypes*: low enough that
/// saturation searches start from a stable point, replaced by the swept
/// rate before every run.
pub const PROTOTYPE_RATE: f64 = 1e-5;

/// How each node's fixed multicast destination set is generated.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MulticastPattern {
    /// `group` destinations drawn uniformly at random per node (Fig. 6).
    Random {
        /// Destination-set size per node.
        group: usize,
    },
    /// `group` destinations localized in one injection-port quadrant of
    /// the source ("same rim", Fig. 7).
    Localized {
        /// Destination-set size per node.
        group: usize,
    },
    /// Every node targets all other nodes.
    Broadcast,
    /// Explicit destination sets, one per node in node order (raw node
    /// indices so the spec stays topology-independent in serialized form).
    Explicit {
        /// `sets[src]` lists the destination node indices of `src`.
        sets: Vec<Vec<u32>>,
    },
}

impl MulticastPattern {
    /// Materialize the destination sets on a topology. Deterministic in
    /// `(topology, self, seed)`.
    pub fn build(&self, topo: &dyn Topology, seed: u64) -> DestinationSets {
        match self {
            MulticastPattern::Random { group } => DestinationSets::random(topo, *group, seed),
            MulticastPattern::Localized { group } => DestinationSets::localized(topo, *group, seed),
            MulticastPattern::Broadcast => DestinationSets::broadcast(topo),
            MulticastPattern::Explicit { sets } => DestinationSets::explicit(
                sets.iter()
                    .map(|s| s.iter().copied().map(NodeId).collect())
                    .collect(),
            ),
        }
    }

    /// Short code used in derived labels.
    pub fn code(&self) -> &'static str {
        match self {
            MulticastPattern::Random { .. } => "random",
            MulticastPattern::Localized { .. } => "localized",
            MulticastPattern::Broadcast => "broadcast",
            MulticastPattern::Explicit { .. } => "explicit",
        }
    }
}

/// The serializable traffic specification of a scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Message length in flits (`M`).
    pub msg_len: u32,
    /// Multicast fraction (`α`).
    pub alpha: f64,
    /// Multicast destination-set generation.
    pub multicast: MulticastPattern,
    /// Spatial pattern of unicast destinations.
    pub unicast: UnicastPattern,
    /// Temporal arrival process of every node's source. A scenario
    /// persisted before the traffic subsystem has no such key: the paper's
    /// geometric source, the only one that existed.
    #[serde(default)]
    pub traffic: TrafficSpec,
    /// Multicast routing scheme; absent from scenarios persisted before
    /// the routing abstraction, which all ran path-based BRCP.
    #[serde(default)]
    pub routing: RoutingSpec,
    /// Closed-loop protocol driving injections instead of open-loop
    /// arrivals. `Some` turns the scenario into a closed-loop run: the
    /// sweep must be the single placeholder rate `0.0`, the traffic spec
    /// stays the (unused) geometric default, and the runner installs the
    /// protocol on the engine instead of evaluating the model overlay.
    /// Pre-closed-loop specs have no such key: open loop.
    #[serde(default)]
    pub closed_loop: Option<ClosedLoopSpec>,
}

impl WorkloadSpec {
    /// Uniform-unicast, memoryless-arrivals spec (the paper's default).
    pub fn new(msg_len: u32, alpha: f64, multicast: MulticastPattern) -> Self {
        WorkloadSpec {
            msg_len,
            alpha,
            multicast,
            unicast: UnicastPattern::Uniform,
            traffic: TrafficSpec::Geometric,
            routing: RoutingSpec::PathBased,
            closed_loop: None,
        }
    }

    /// Builder-style: replace the arrival process.
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Builder-style: replace the multicast routing scheme.
    pub fn with_routing(mut self, routing: RoutingSpec) -> Self {
        self.routing = routing;
        self
    }

    /// Builder-style: replace the unicast destination pattern.
    pub fn with_unicast(mut self, unicast: UnicastPattern) -> Self {
        self.unicast = unicast;
        self
    }

    /// Builder-style: drive the run with a closed-loop protocol.
    pub fn with_closed_loop(mut self, spec: ClosedLoopSpec) -> Self {
        self.closed_loop = Some(spec);
        self
    }

    /// Materialize the workload prototype (at [`PROTOTYPE_RATE`]) on a
    /// topology, deterministically in `seed`.
    pub fn prototype(&self, topo: &dyn Topology, seed: u64) -> Result<Workload> {
        let n = topo.num_nodes();
        self.unicast.validate(n)?;
        // Shape-only traffic validation (rate 0.0): PROTOTYPE_RATE is an
        // internal placeholder, so judging e.g. an on/off peak rate
        // against it would reject scenarios over a rate the user never
        // set. Per-rate consistency is checked by `Workload::at_rate`
        // where the swept rates are known.
        self.traffic.validate(n, 0.0)?;
        let sets = self.multicast.build(topo, seed);
        let wl = Workload::new(self.msg_len, PROTOTYPE_RATE, self.alpha, sets)?
            .with_unicast_pattern(self.unicast)
            .with_traffic(self.traffic.clone())
            .with_routing(self.routing);
        Ok(wl)
    }
}

/// The serializable sweep specification: either absolute rates or rates
/// relative to the analytical model's saturation point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SweepSpec {
    /// Explicit ascending rates (messages/node/cycle).
    Explicit {
        /// The rates.
        rates: Vec<f64>,
    },
    /// `points` rates linear over `[lo, hi]`.
    Linear {
        /// Lowest rate.
        lo: f64,
        /// Highest rate.
        hi: f64,
        /// Number of points.
        points: usize,
    },
    /// `points` rates geometric over `[lo, hi]`.
    Geometric {
        /// Lowest rate.
        lo: f64,
        /// Highest rate.
        hi: f64,
        /// Number of points.
        points: usize,
    },
    /// `points` rates linear over `[lo, hi] ×` the model's saturation
    /// rate — the figures' framing (`lo = 0.15`, `hi = 1.02` shows the
    /// flat region and the knee). At least 2 points, as for `Linear`.
    SaturationSpan {
        /// Lower bound as a fraction of the saturation rate.
        lo: f64,
        /// Upper bound as a fraction of the saturation rate.
        hi: f64,
        /// Number of points.
        points: usize,
    },
    /// Explicit ascending fractions of the model's saturation rate (the
    /// ablation binaries' "30% / 60% / 85% of saturation" framing).
    SaturationFractions {
        /// Ascending load fractions.
        fractions: Vec<f64>,
    },
}

/// Relative tolerance of the saturation-rate bisection used by the
/// saturation-relative sweep variants (matches the figure harness).
pub(crate) const SATURATION_TOL: f64 = 0.01;

impl SweepSpec {
    /// Number of operating points the spec resolves to, without building
    /// a topology.
    pub fn num_points(&self) -> usize {
        match self {
            SweepSpec::Explicit { rates } => rates.len(),
            SweepSpec::Linear { points, .. }
            | SweepSpec::Geometric { points, .. }
            | SweepSpec::SaturationSpan { points, .. } => *points,
            SweepSpec::SaturationFractions { fractions } => fractions.len(),
        }
    }

    /// The figures' default sweep: `points` rates over `[0.15, 1.02] ×`
    /// saturation.
    pub fn figure_default(points: usize) -> Self {
        SweepSpec::SaturationSpan {
            lo: 0.15,
            hi: 1.02,
            points,
        }
    }

    /// Resolve to concrete rates on a topology/workload, evaluating the
    /// saturation point with `model` where the spec is saturation-relative
    /// (the routes are walked for that search alone).
    ///
    /// The saturation anchor comes from `model.backend` — unless that
    /// backend's assumptions do not hold for `topo`/`proto` (e.g. the
    /// M/G/1 model under `Multipath` routing or bursty traffic), in which
    /// case the network-calculus backend anchors the sweep instead.
    /// Anchoring on an inapplicable backend used to place
    /// "0.9 × saturation" at or past the *real* saturation point.
    ///
    /// On implicit scale topologies *no* analytical backend applies, so
    /// saturation-relative sweeps are rejected as invalid scenarios —
    /// use explicit/linear/geometric rates there.
    pub fn resolve(
        &self,
        topo: &dyn Topology,
        proto: &Workload,
        model: ModelOptions,
    ) -> Result<RateSweep> {
        self.resolve_with(|| {
            let routed = RoutedLoads::walk(topo, proto, &model);
            saturation_anchor(topo, proto, model.backend, &routed)
        })
    }

    /// [`resolve`](Self::resolve) with the saturation point as a
    /// question, asked only by the saturation-relative variants.
    pub(crate) fn resolve_with(&self, sat: impl FnOnce() -> Result<f64>) -> Result<RateSweep> {
        let sweep = match self {
            SweepSpec::Explicit { rates } => RateSweep::explicit(rates.clone())?,
            SweepSpec::Linear { lo, hi, points } => RateSweep::linear(*lo, *hi, *points)?,
            SweepSpec::Geometric { lo, hi, points } => RateSweep::geometric(*lo, *hi, *points)?,
            SweepSpec::SaturationSpan { lo, hi, points } => {
                let s = sat()?;
                RateSweep::linear(lo * s, hi * s, *points)?
            }
            SweepSpec::SaturationFractions { fractions } => {
                let s = sat()?;
                RateSweep::explicit(fractions.iter().map(|f| f * s).collect())?
            }
        };
        Ok(sweep)
    }
}

/// The saturation rate a saturation-relative sweep of `proto` on `topo`
/// is anchored on (the rules are [`SweepSpec::resolve`]'s, `selected` its
/// `model.backend`), searched over `routed` — the routes of `proto` walked
/// under the scenario's model options, or why there are none.
pub(crate) fn saturation_anchor(
    topo: &dyn Topology,
    proto: &Workload,
    selected: BackendSpec,
    routed: &std::result::Result<RoutedLoads<'_>, ModelError>,
) -> Result<f64> {
    let anchor = if selected.backend().applicable(topo, proto) {
        selected
    } else if BackendSpec::NetworkCalculus
        .backend()
        .applicable(topo, proto)
    {
        BackendSpec::NetworkCalculus
    } else {
        return Err(Error::InvalidScenario(format!(
            "saturation-relative sweeps need an applicable analytical \
             backend to anchor on, and none supports the implicit \
             topology '{}'; use explicit rates instead",
            topo.name()
        )));
    };
    let backend = anchor.backend();
    // No rate is in the backend's domain (e.g. multicast on a one-port
    // topology) when there is no table; with one, the backend says why at
    // the prototype rate.
    let reason = match routed {
        Ok(routed) => {
            let horizon = backend.max_rate_over(routed, SATURATION_TOL);
            if horizon > 0.0 {
                return Ok(horizon);
            }
            match backend.evaluate_over(routed, proto.gen_rate) {
                Err(e) => e.to_string(),
                Ok(_) => "no rate down to 1e-9 is sustainable".to_string(),
            }
        }
        Err(e) => e.to_string(),
    };
    Err(Error::InvalidScenario(format!(
        "saturation-relative sweeps need a sustainable rate to anchor \
         on, and the '{anchor}' backend finds none ({reason}); use \
         explicit rates instead"
    )))
}

/// A complete, serializable experiment specification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Label used in tables, sink file names and progress reports.
    pub name: String,
    /// Which network to build (constructed through the registry).
    pub topology: TopologySpec,
    /// Traffic specification.
    pub workload: WorkloadSpec,
    /// Operating points.
    pub sweep: SweepSpec,
    /// Simulator run-length/fidelity parameters. The `seed` field is
    /// ignored: the runner derives every replicate's seed from
    /// [`Scenario::seed`].
    pub sim: SimConfig,
    /// Analytical-model overlay: `Some` evaluates the model at every
    /// sweep point (saturated points become `NaN`), `None` runs
    /// simulation only. Saturation-relative sweeps use these options (or
    /// the defaults when `None`) to locate the knee.
    pub model: Option<ModelOptions>,
    /// Independent simulation replicates per sweep point (seeds
    /// `seed .. seed + replicates`); results report the across-replicate
    /// mean. 1 reproduces a single tagged run exactly.
    pub replicates: u32,
    /// Master seed: destination sets and all simulation streams derive
    /// from it.
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the standard simulator configuration, a default
    /// analytical overlay and one replicate.
    pub fn new(
        name: impl Into<String>,
        topology: TopologySpec,
        workload: WorkloadSpec,
        sweep: SweepSpec,
    ) -> Self {
        let seed = 42;
        Scenario {
            name: name.into(),
            topology,
            workload,
            sweep,
            sim: SimConfig::standard(seed),
            model: Some(ModelOptions::default()),
            replicates: 1,
            seed,
        }
    }

    /// Builder-style: replace the simulator configuration.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Builder-style: replace the analytical-model overlay.
    pub fn with_model(mut self, model: Option<ModelOptions>) -> Self {
        self.model = model;
        self
    }

    /// Builder-style: replace the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the replicate count.
    pub fn with_replicates(mut self, replicates: u32) -> Self {
        self.replicates = replicates;
        self
    }

    /// Build the topology and the workload prototype this scenario
    /// describes. This is the **single** construction path — the runner
    /// uses it, and any post-processing that needs the same materialized
    /// pair (e.g. overlaying extra model variants on a finished run)
    /// must call it too, so the two can never drift apart on seeding.
    pub fn materialize(&self) -> Result<(Box<dyn Topology>, Workload)> {
        let topo = self.topology.build()?;
        let proto = self.workload.prototype(topo.as_ref(), self.seed)?;
        Ok((topo, proto))
    }

    /// Check spec-level invariants (everything that can be checked
    /// without building the topology).
    pub fn validate(&self) -> Result<()> {
        if self.replicates == 0 {
            return Err(Error::InvalidScenario(
                "replicates must be >= 1".to_string(),
            ));
        }
        if !self.alpha_valid() {
            return Err(Error::InvalidScenario(format!(
                "multicast fraction {} must lie in [0, 1]",
                self.workload.alpha
            )));
        }
        self.sim.validate()?;
        // The routing scheme must be realizable on the topology (e.g.
        // multipath and dual-path need multi-port routers) — a typed
        // error here, not a panic inside the simulator's plan builder.
        self.workload.routing.validate(
            self.topology.num_nodes(),
            self.topology.num_ports(),
            self.topology.has_linear_order(),
        )?;
        // Traffic-spec shape (parameter ranges, trace well-formedness).
        // Peak-rate-vs-swept-rate consistency is rechecked per resolved
        // rate by the runner, where the rates are known.
        self.workload
            .traffic
            .validate(self.topology.num_nodes(), 0.0)?;
        // A trace fixes the arrival schedule, so the swept rate cannot
        // change the simulation: a multi-point sweep would produce one
        // identical run per rate label — reject it instead of charting a
        // fake curve.
        if !self.workload.traffic.is_rate_driven() {
            if self.sweep.num_points() > 1 {
                return Err(Error::InvalidScenario(format!(
                    "trace traffic replays a fixed arrival schedule; a {}-point rate sweep \
                     would repeat the identical run under different rate labels",
                    self.sweep.num_points()
                )));
            }
            // Replicates only vary the simulation seed, which a trace
            // replay never draws from: N identical runs would aggregate
            // into a fabricated zero-width confidence interval.
            if self.replicates > 1 {
                return Err(Error::InvalidScenario(format!(
                    "trace traffic is deterministic; {} replicates would repeat the \
                     identical run and fake a zero-width confidence interval",
                    self.replicates
                )));
            }
        }
        if let Some(cl) = &self.workload.closed_loop {
            cl.validate(self.topology.num_nodes())
                .map_err(Error::InvalidScenario)?;
            // Closed-loop injections come from the protocol, not a rate:
            // the only honest sweep is the single placeholder point 0.0.
            // A rate sweep over a closed loop would chart N identical
            // runs under different rate labels.
            let placeholder = matches!(&self.sweep,
                SweepSpec::Explicit { rates } if rates.as_slice() == [0.0]);
            if !placeholder {
                return Err(Error::InvalidScenario(format!(
                    "closed-loop protocol {} generates its own injections; the sweep \
                     must be the single placeholder rate Explicit {{ rates: [0.0] }}",
                    cl.code()
                )));
            }
            // Open-loop arrival shaping (on/off bursts, trace replay) has
            // no source to shape: the generation rate is pinned to zero.
            if self.workload.traffic != TrafficSpec::Geometric {
                return Err(Error::InvalidScenario(format!(
                    "closed-loop protocol {} replaces the open-loop source; the traffic \
                     spec must stay the default (Geometric), got {:?}",
                    cl.code(),
                    self.workload.traffic
                )));
            }
            if self.workload.alpha != 0.0 {
                return Err(Error::InvalidScenario(format!(
                    "closed-loop scenarios generate no rate-driven multicasts; \
                     alpha must be 0, got {}",
                    self.workload.alpha
                )));
            }
            if cl.needs_broadcast()
                && !matches!(self.workload.multicast, MulticastPattern::Broadcast)
            {
                return Err(Error::InvalidScenario(format!(
                    "protocol {} releases via broadcast; the multicast pattern must be \
                     Broadcast, got {}",
                    cl.code(),
                    self.workload.multicast.code()
                )));
            }
        }
        // Generated destination sets of size zero cannot serve multicast
        // traffic (mirrors the explicit-set check below). Closed-loop
        // protocols multicast through the same destination sets, so they
        // need non-empty sets even at alpha = 0.
        let needs_sets = self.workload.alpha > 0.0 || self.workload.closed_loop.is_some();
        // What empty sets would fail to serve, for the two messages below.
        let served = || match &self.workload.closed_loop {
            Some(cl) => format!("the {} protocol's multicasts", cl.code()),
            None => format!("alpha = {} > 0", self.workload.alpha),
        };
        if needs_sets {
            let group = match self.workload.multicast {
                MulticastPattern::Random { group } | MulticastPattern::Localized { group } => {
                    Some(group)
                }
                MulticastPattern::Broadcast | MulticastPattern::Explicit { .. } => None,
            };
            if group == Some(0) {
                return Err(Error::InvalidScenario(format!(
                    "multicast group size 0 cannot serve {}",
                    served()
                )));
            }
        }
        if let MulticastPattern::Explicit { sets } = &self.workload.multicast {
            let n = self.topology.num_nodes();
            if sets.len() != n {
                return Err(Error::InvalidScenario(format!(
                    "explicit destination sets cover {} nodes but {} has {n}",
                    sets.len(),
                    self.topology
                )));
            }
            if let Some(bad) = sets.iter().flatten().find(|&&d| d as usize >= n) {
                return Err(Error::InvalidScenario(format!(
                    "destination {bad} outside 0..{n}"
                )));
            }
            for (src, set) in sets.iter().enumerate() {
                if set.contains(&(src as u32)) {
                    return Err(Error::InvalidScenario(format!(
                        "node {src} lists itself in its own destination set"
                    )));
                }
                if needs_sets && set.is_empty() {
                    return Err(Error::InvalidScenario(format!(
                        "node {src} has an empty destination set, which cannot serve {}",
                        served()
                    )));
                }
            }
        }
        Ok(())
    }

    fn alpha_valid(&self) -> bool {
        self.workload.alpha.is_finite() && (0.0..=1.0).contains(&self.workload.alpha)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self> {
        Ok(serde::json::from_str(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workloads::SweepError;

    fn small() -> Scenario {
        Scenario::new(
            "test",
            TopologySpec::Quarc { n: 16 },
            WorkloadSpec::new(32, 0.05, MulticastPattern::Random { group: 4 }),
            SweepSpec::Explicit {
                rates: vec![0.002, 0.004],
            },
        )
        .with_sim(SimConfig::quick(1))
        .with_seed(7)
    }

    #[test]
    fn json_round_trip_is_identity() {
        let sc = small();
        let json = sc.to_json();
        let back = Scenario::from_json(&json).expect("round trip parses");
        assert_eq!(sc, back);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut sc = small();
        sc.replicates = 0;
        assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));

        let mut sc = small();
        sc.workload.alpha = 1.5;
        assert!(sc.validate().is_err());

        let mut sc = small();
        sc.sim.buffer_depth = 0;
        assert!(sc.validate().is_err());

        let mut sc = small();
        sc.workload.multicast = MulticastPattern::Explicit {
            sets: vec![vec![1], vec![0]],
        };
        assert!(sc.validate().is_err(), "sets must cover all 16 nodes");

        assert!(small().validate().is_ok());
    }

    #[test]
    fn explicit_set_edge_cases_are_typed_errors() {
        let full = |sets: Vec<Vec<u32>>| {
            let mut sc = small();
            sc.workload.multicast = MulticastPattern::Explicit { sets };
            sc
        };
        let mut ok_sets: Vec<Vec<u32>> = (0..16u32).map(|s| vec![(s + 1) % 16]).collect();
        assert!(full(ok_sets.clone()).validate().is_ok());

        // A node listing itself among its own destinations.
        ok_sets[3].push(3);
        assert!(matches!(
            full(ok_sets.clone()).validate(),
            Err(Error::InvalidScenario(_))
        ));
        ok_sets[3] = vec![4];

        // An out-of-range destination index.
        ok_sets[5] = vec![16];
        assert!(matches!(
            full(ok_sets.clone()).validate(),
            Err(Error::InvalidScenario(_))
        ));
        ok_sets[5] = vec![6];

        // An empty destination set is an error while alpha > 0 ...
        ok_sets[7] = Vec::new();
        let sc = full(ok_sets.clone());
        assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));
        // ... and fine once the workload carries no multicast traffic.
        let mut sc = full(ok_sets);
        sc.workload.alpha = 0.0;
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn zero_group_with_alpha_is_rejected_before_the_simulator_panics() {
        // Random/Localized sets of size 0 cannot serve alpha > 0; the
        // spec layer must reject them instead of letting SimPlan::build
        // assert deep inside a sweep.
        for multicast in [
            MulticastPattern::Random { group: 0 },
            MulticastPattern::Localized { group: 0 },
        ] {
            let mut sc = small();
            sc.workload.multicast = multicast;
            assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));
            // Harmless once no multicast traffic is generated.
            sc.workload.alpha = 0.0;
            assert!(sc.validate().is_ok());
        }
    }

    #[test]
    fn trace_traffic_rejects_multi_point_sweeps() {
        let entries = vec![noc_workloads::TraceEntry {
            cycle: 1,
            node: 0,
            kind: noc_workloads::TraceKind::Multicast,
        }];
        let mut sc = small();
        sc.workload.traffic = TrafficSpec::trace(entries);
        // Two sweep points over a fixed schedule: rejected.
        assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));
        // A single point is fine.
        sc.sweep = SweepSpec::Explicit { rates: vec![0.002] };
        assert!(sc.validate().is_ok());
        // Replicates never change a deterministic replay: N identical
        // runs would fake a zero-width confidence interval.
        sc.replicates = 3;
        assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));
    }

    #[test]
    fn prototype_judges_onoff_peaks_against_swept_rates_not_the_placeholder() {
        // A peak rate below PROTOTYPE_RATE is realizable as long as every
        // *swept* rate stays below it; the internal placeholder must not
        // leak into validation.
        let mut sc = small();
        sc.workload.traffic = TrafficSpec::OnOff {
            burst_len: 2.0,
            peak_rate: 5e-6,
        };
        sc.sweep = SweepSpec::Explicit { rates: vec![1e-6] };
        assert!(sc.validate().is_ok());
        let topo = sc.topology.build().unwrap();
        let proto = sc
            .workload
            .prototype(topo.as_ref(), sc.seed)
            .expect("prototype must not judge the placeholder rate");
        assert!(proto.at_rate(1e-6).is_ok(), "swept rate below peak is fine");
        assert!(
            proto.at_rate(1e-5).is_err(),
            "a swept rate above the peak is the real error"
        );
    }

    #[test]
    fn traffic_specs_validate_and_round_trip() {
        let mut sc = small();
        sc.workload.traffic = TrafficSpec::OnOff {
            burst_len: 8.0,
            peak_rate: 0.25,
        };
        assert!(sc.validate().is_ok());
        let back = Scenario::from_json(&sc.to_json()).expect("round trip parses");
        assert_eq!(sc, back);

        sc.workload.traffic = TrafficSpec::OnOff {
            burst_len: 0.0,
            peak_rate: 0.25,
        };
        assert!(matches!(sc.validate(), Err(Error::Workload(_))));
    }

    #[test]
    fn pre_traffic_workload_specs_stay_readable() {
        // A WorkloadSpec persisted before the traffic subsystem has no
        // `traffic` key; it must parse as the geometric default.
        let json = r#"{
            "msg_len": 16,
            "alpha": 0.05,
            "multicast": {"Random": {"group": 4}},
            "unicast": "Uniform"
        }"#;
        let spec: WorkloadSpec = serde::json::from_str(json).expect("legacy spec parses");
        assert_eq!(spec.traffic, TrafficSpec::Geometric);
        assert_eq!(
            spec,
            WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 4 })
        );
    }

    #[test]
    fn closed_loop_validation_rules() {
        let coh = ClosedLoopSpec::Coherence {
            window: 4,
            requests: 16,
            write_fraction: 0.3,
        };
        let closed = |sweep| {
            Scenario::new(
                "cl",
                TopologySpec::Quarc { n: 16 },
                WorkloadSpec::new(8, 0.0, MulticastPattern::Random { group: 4 })
                    .with_closed_loop(coh),
                sweep,
            )
        };
        // The placeholder sweep is the only accepted one.
        let ok = closed(SweepSpec::Explicit { rates: vec![0.0] });
        assert!(ok.validate().is_ok());
        for sweep in [
            SweepSpec::Explicit {
                rates: vec![0.0, 0.002],
            },
            SweepSpec::Explicit { rates: vec![0.002] },
            SweepSpec::figure_default(4),
            SweepSpec::Linear {
                lo: 0.001,
                hi: 0.01,
                points: 3,
            },
        ] {
            assert!(
                matches!(closed(sweep).validate(), Err(Error::InvalidScenario(_))),
                "a rate sweep over a closed loop must be rejected"
            );
        }

        // No open-loop traffic shaping, no rate-driven multicast mix.
        let mut sc = ok.clone();
        sc.workload.traffic = TrafficSpec::OnOff {
            burst_len: 4.0,
            peak_rate: 0.2,
        };
        assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));
        let mut sc = ok.clone();
        sc.workload.traffic = TrafficSpec::trace(vec![noc_workloads::TraceEntry {
            cycle: 1,
            node: 0,
            kind: noc_workloads::TraceKind::Multicast,
        }]);
        assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));
        let mut sc = ok.clone();
        sc.workload.alpha = 0.05;
        assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));

        // Protocol parameters are checked through the spec layer.
        let mut sc = ok.clone();
        sc.workload.closed_loop = Some(ClosedLoopSpec::Coherence {
            window: 0,
            requests: 16,
            write_fraction: 0.3,
        });
        assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));

        // Coherence multicasts through the destination sets: they must
        // be non-empty even though alpha is 0.
        let mut sc = ok.clone();
        sc.workload.multicast = MulticastPattern::Random { group: 0 };
        assert!(matches!(sc.validate(), Err(Error::InvalidScenario(_))));
        // An explicit empty set names the protocol it cannot serve, not
        // the alpha it does not have.
        let mut sets: Vec<Vec<u32>> = (0..16u32).map(|s| vec![(s + 1) % 16]).collect();
        sets[5].clear();
        sc.workload.multicast = MulticastPattern::Explicit { sets };
        match sc.validate() {
            Err(Error::InvalidScenario(msg)) => assert_eq!(
                msg,
                "node 5 has an empty destination set, which cannot serve the coh-w4 \
                 protocol's multicasts"
            ),
            other => panic!("expected an invalid scenario, got {other:?}"),
        }

        // The barrier's release must reach every node.
        let bar = ClosedLoopSpec::Barrier {
            rounds: 2,
            radix: 2,
            compute: 4,
        };
        let mut sc = ok.clone();
        sc.workload.closed_loop = Some(bar);
        assert!(
            matches!(sc.validate(), Err(Error::InvalidScenario(_))),
            "barrier over random sets must be rejected"
        );
        sc.workload.multicast = MulticastPattern::Broadcast;
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn closed_loop_specs_round_trip_and_legacy_specs_stay_open_loop() {
        let sc = Scenario::new(
            "cl-rt",
            TopologySpec::Quarc { n: 16 },
            WorkloadSpec::new(8, 0.0, MulticastPattern::Broadcast).with_closed_loop(
                ClosedLoopSpec::Barrier {
                    rounds: 4,
                    radix: 2,
                    compute: 8,
                },
            ),
            SweepSpec::Explicit { rates: vec![0.0] },
        );
        let back = Scenario::from_json(&sc.to_json()).expect("round trip parses");
        assert_eq!(sc, back);

        // A WorkloadSpec persisted before closed loops has no
        // `closed_loop` key; it must parse as open-loop.
        let json = r#"{
            "msg_len": 16,
            "alpha": 0.05,
            "multicast": {"Random": {"group": 4}},
            "unicast": "Uniform"
        }"#;
        let spec: WorkloadSpec = serde::json::from_str(json).expect("legacy spec parses");
        assert_eq!(spec.closed_loop, None);
    }

    #[test]
    fn pattern_mismatch_is_a_typed_error() {
        // Bit reversal on a 12-node ring: neither square nor 2^d.
        let sc = Scenario::new(
            "bitrev-ring",
            TopologySpec::Ring { n: 12 },
            WorkloadSpec::new(8, 0.0, MulticastPattern::Broadcast)
                .with_unicast(UnicastPattern::BitReversal),
            SweepSpec::Explicit { rates: vec![0.001] },
        );
        let topo = sc.topology.build().unwrap();
        match sc.workload.prototype(topo.as_ref(), 1) {
            Err(Error::Pattern(noc_workloads::PatternError::RequiresPowerOfTwo { .. })) => {}
            other => panic!("expected Error::Pattern, got {other:?}"),
        }
    }

    #[test]
    fn sweeps_resolve_on_a_topology() {
        let sc = small();
        let topo = sc.topology.build().unwrap();
        let proto = sc.workload.prototype(topo.as_ref(), sc.seed).unwrap();
        let explicit = sc
            .sweep
            .resolve(topo.as_ref(), &proto, ModelOptions::default())
            .unwrap();
        assert_eq!(explicit.rates(), &[0.002, 0.004]);

        let span = SweepSpec::figure_default(5)
            .resolve(topo.as_ref(), &proto, ModelOptions::default())
            .unwrap();
        assert_eq!(span.len(), 5);
        assert!(span.rates()[0] > 0.0);
        assert!((span.rates()[4] / span.rates()[0] - 1.02 / 0.15).abs() < 1e-9);

        let fracs = SweepSpec::SaturationFractions {
            fractions: vec![0.3, 0.6],
        }
        .resolve(topo.as_ref(), &proto, ModelOptions::default())
        .unwrap();
        assert_eq!(fracs.len(), 2);
        assert!((fracs.rates()[1] / fracs.rates()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn an_empty_horizon_is_an_error_not_an_anchor() {
        // Multicast on the one-port spidergon is outside both backends'
        // domain at every rate: there is nothing to place "90 % of
        // saturation" against (this used to resolve against 1e-5).
        let topo = TopologySpec::Spidergon { n: 16 }.build().unwrap();
        let workload = WorkloadSpec::new(32, 0.05, MulticastPattern::Random { group: 4 });
        let proto = workload.prototype(topo.as_ref(), 42).unwrap();
        let err = SweepSpec::figure_default(4)
            .resolve(topo.as_ref(), &proto, ModelOptions::default())
            .unwrap_err();
        match err {
            Error::InvalidScenario(msg) => {
                assert!(msg.contains("'mg1'"), "{msg}");
                assert!(msg.contains("concurrent port streams"), "{msg}");
            }
            other => panic!("expected Error::InvalidScenario, got {other:?}"),
        }
        // With nothing multicast the same topology anchors fine.
        let unicast = WorkloadSpec::new(32, 0.0, MulticastPattern::Random { group: 4 });
        let proto = unicast.prototype(topo.as_ref(), 42).unwrap();
        let sweep =
            SweepSpec::figure_default(4).resolve(topo.as_ref(), &proto, ModelOptions::default());
        assert!(sweep.unwrap().rates()[0] > 1e-5);
    }

    #[test]
    fn bad_sweep_spec_surfaces_as_typed_error() {
        let sc = small();
        let topo = sc.topology.build().unwrap();
        let proto = sc.workload.prototype(topo.as_ref(), sc.seed).unwrap();
        let err = (SweepSpec::Linear {
            lo: 0.5,
            hi: 0.1,
            points: 4,
        })
        .resolve(topo.as_ref(), &proto, ModelOptions::default())
        .unwrap_err();
        assert!(matches!(err, Error::Sweep(_)));
    }

    #[test]
    fn one_point_is_too_few_for_every_ranged_sweep() {
        let (lo, hi, points) = (0.2, 0.8, 1);
        for spec in [
            SweepSpec::Linear { lo, hi, points },
            SweepSpec::Geometric { lo, hi, points },
            SweepSpec::SaturationSpan { lo, hi, points },
        ] {
            assert_eq!(spec.num_points(), 1, "{spec:?}");
            let err = spec.resolve_with(|| Ok(0.01)).unwrap_err();
            assert!(
                matches!(err, Error::Sweep(SweepError::TooFewPoints(1))),
                "{err:?}"
            );
        }
    }

    #[test]
    fn patterns_materialize() {
        let topo = TopologySpec::Ring { n: 8 }.build().unwrap();
        let bc = MulticastPattern::Broadcast.build(topo.as_ref(), 1);
        assert_eq!(bc.set(NodeId(0)).len(), 7);
        let ex = MulticastPattern::Explicit {
            sets: vec![vec![1]; 8],
        }
        .build(topo.as_ref(), 1);
        assert_eq!(ex.set(NodeId(2)), &[NodeId(1)]);
        let r = MulticastPattern::Random { group: 3 }.build(topo.as_ref(), 9);
        assert_eq!(r.set(NodeId(5)).len(), 3);
    }
}
