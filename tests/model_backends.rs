//! Cross-backend invariants at the workspace surface.
//!
//! Two analytical backends ship behind the [`ModelBackend`] trait: the
//! paper's M/G/1 mean-latency model (`mg1`) and the network-calculus
//! worst-case bounds (`nc`). Where both are defined they are ordered by
//! construction — a worst-case bound cannot sit below the mean, and a
//! loaded mean cannot sit below the zero-load latency:
//!
//! ```text
//! nc bound  >=  mg1 mean  >=  zero-load latency
//! ```
//!
//! These tests drive that chain property-based across all six registry
//! topologies, pin the serialization contract of the backend selector
//! (legacy files without a `backend` field keep meaning `mg1`, legacy
//! point results without bound columns parse as `NaN`), and regression-
//! test the bug this backend exists to fix: saturation-relative sweeps
//! under `Multipath` routing used to anchor on the inapplicable M/G/1
//! saturation estimate and run the "90% load" point at several times the
//! real stability horizon.

use proptest::prelude::*;
use quarc_noc::prelude::*;

/// The full topology registry; `alpha` is zeroed on Spidergon below
/// because its routers cannot fork a wormhole (no concurrent multicast),
/// which both backends report as a typed error rather than a number.
const TOPOLOGIES: [TopologySpec; 6] = [
    TopologySpec::Quarc { n: 16 },
    TopologySpec::Mesh {
        width: 4,
        height: 4,
    },
    TopologySpec::Torus {
        width: 4,
        height: 4,
    },
    TopologySpec::Hypercube { dim: 3 },
    TopologySpec::Ring { n: 8 },
    TopologySpec::Spidergon { n: 8 },
];

proptest! {
    // Each case evaluates three analytical models plus a saturation
    // bisection; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `nc bound >= mg1 mean >= zero-load latency` on every topology, for
    /// random destination sets and loads inside the calculus stability
    /// horizon (where both backends are defined).
    #[test]
    fn bound_dominates_mean_dominates_zero_load(
        topo_idx in 0usize..TOPOLOGIES.len(),
        seed in 0u64..500,
        group in 1usize..6,
        frac in 0.2f64..0.8,
    ) {
        let spec = TOPOLOGIES[topo_idx];
        let topo = spec.build().unwrap();
        let alpha = if matches!(spec, TopologySpec::Spidergon { .. }) {
            0.0
        } else {
            0.1
        };
        let sets = DestinationSets::random(topo.as_ref(), group, seed);
        let proto = Workload::new(32, 1e-4, alpha, sets).unwrap();
        let opts = ModelOptions::default();

        let nc_sat =
            NetworkCalculusBackend.max_sustainable_rate(topo.as_ref(), &proto, &opts, 0.01);
        prop_assert!(nc_sat > 0.0, "{spec}: empty stability horizon");
        let wl = proto.at_rate(frac * nc_sat).unwrap();

        let bound = NetworkCalculusBackend
            .evaluate(topo.as_ref(), &wl, &opts)
            .expect("inside the calculus horizon");
        let mean = MgOneBackend
            .evaluate(topo.as_ref(), &wl, &opts)
            .expect("mg1 is stable wherever the calculus is");
        let zero = MgOneBackend
            .evaluate(topo.as_ref(), &proto.at_rate(0.0).unwrap(), &opts)
            .expect("zero load is always stable");

        prop_assert!(
            bound.unicast_latency >= mean.unicast_latency,
            "{spec}: unicast bound {} < mean {}",
            bound.unicast_latency,
            mean.unicast_latency
        );
        prop_assert!(
            mean.unicast_latency >= zero.unicast_latency,
            "{spec}: loaded unicast mean {} < zero-load {}",
            mean.unicast_latency,
            zero.unicast_latency
        );
        if alpha > 0.0 {
            prop_assert!(
                bound.multicast_latency >= mean.multicast_latency,
                "{spec}: multicast bound {} < mean {}",
                bound.multicast_latency,
                mean.multicast_latency
            );
            prop_assert!(
                mean.multicast_latency >= zero.multicast_latency,
                "{spec}: loaded multicast mean {} < zero-load {}",
                mean.multicast_latency,
                zero.multicast_latency
            );
        }
    }
}

/// A short simulation: these tests need determinism and a working
/// saturation detector, not statistical quality.
fn tiny_sim(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::quick(seed);
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 4_000;
    cfg.drain_cycles = 8_000;
    cfg.backlog_limit = 4_000;
    cfg
}

fn multipath_scenario(sweep: SweepSpec) -> Scenario {
    // Multicast-dominated on purpose: multipath's synchronized multi-port
    // injection is exactly what the M/G/1 stream decomposition does not
    // model, so this is where its saturation estimate is optimistic.
    Scenario::new(
        "multipath-anchor",
        TopologySpec::Quarc { n: 16 },
        WorkloadSpec::new(16, 0.5, MulticastPattern::Random { group: 8 })
            .with_routing(RoutingSpec::Multipath),
        sweep,
    )
    .with_sim(tiny_sim(5))
    .with_seed(5)
}

/// The bugfix itself: a `Multipath` saturation-relative sweep must anchor
/// on the calculus backend (the M/G/1 stream decomposition does not
/// describe multipath's synchronized port injection), and the resulting
/// "90% of saturation" point must actually be sustainable.
#[test]
fn multipath_saturation_sweeps_anchor_on_the_calculus_backend() {
    let sc = multipath_scenario(SweepSpec::SaturationFractions {
        fractions: vec![0.9],
    });
    let (topo, proto) = sc.materialize().expect("scenario materializes");
    let opts = ModelOptions::default();

    assert!(
        !MgOneBackend.applicable(topo.as_ref(), &proto),
        "multipath must be outside the mg1 domain"
    );
    let nc_sat = NetworkCalculusBackend.max_sustainable_rate(topo.as_ref(), &proto, &opts, 0.01);
    let mg1_sat = MgOneBackend.max_sustainable_rate(topo.as_ref(), &proto, &opts, 0.01);
    assert!(
        mg1_sat > 1.5 * nc_sat,
        "the regression needs the anchors to disagree: mg1 {mg1_sat} vs nc {nc_sat}"
    );

    // resolve() re-routes to the calculus anchor...
    let resolved = sc
        .sweep
        .resolve(topo.as_ref(), &proto, opts)
        .expect("sweep resolves");
    let rate = resolved.rates()[0];
    let expected = 0.9 * nc_sat;
    assert!(
        (rate - expected).abs() <= 0.05 * expected,
        "resolved rate {rate} is not 90% of the calculus anchor {nc_sat}"
    );

    // ...and the simulator confirms the re-routed point is below the real
    // knee, where the old mg1-anchored rate was far past it.
    let result = Runner::new().run(&sc).expect("sweep runs");
    let p = &result.points[0];
    assert!(
        !p.sim_saturated,
        "90% of the calculus anchor saturated the simulator (rate {})",
        p.rate
    );
    assert!(p.sim_multicast.is_finite());

    // The pre-fix anchor called "90% of saturation" a rate past 100% of
    // the only sound stability estimate for this workload — the sweep's
    // load labels were fiction.
    let old_rate = 0.9 * mg1_sat;
    assert!(
        old_rate > nc_sat,
        "pre-fix rate {old_rate} should overshoot the calculus horizon {nc_sat}"
    );
    let old_anchor = multipath_scenario(SweepSpec::Explicit {
        rates: vec![old_rate],
    });
    let old = Runner::new().run(&old_anchor).expect("old anchor runs");
    assert!(
        old.points[0].sim_saturated || old.points[0].sim_multicast > p.sim_multicast,
        "the pre-fix anchor (rate {}) should load the network strictly \
         harder than the point it claimed to be: {} vs {}",
        old.points[0].rate,
        old.points[0].sim_multicast,
        p.sim_multicast
    );
}

/// The backend selector is part of the persisted-scenario format: it
/// round-trips, and files written before it existed keep deserializing
/// (absent selector = the original M/G/1 overlay).
#[test]
fn backend_selector_round_trips_and_legacy_files_default_to_mg1() {
    for backend in ALL_BACKENDS {
        let mut sc = multipath_scenario(SweepSpec::Explicit { rates: vec![1e-4] });
        sc.model = Some(ModelOptions {
            backend,
            ..ModelOptions::default()
        });
        let json = sc.to_json();
        let reloaded = Scenario::from_json(&json).expect("modern scenario parses");
        assert_eq!(sc, reloaded, "{backend} selector must round-trip");
        assert_eq!(reloaded.model.unwrap().backend, backend);
    }

    // A scenario JSON written before the backend refactor: ModelOptions
    // with fixed-point fields only.
    let mut sc = multipath_scenario(SweepSpec::Explicit { rates: vec![1e-4] });
    sc.model = Some(ModelOptions::default());
    let modern = sc.to_json();
    // Excise the selector (and the comma before it — it is the last
    // field of ModelOptions) to reconstruct a pre-refactor file.
    let start = modern.find("\"backend\"").expect("selector serialized");
    let comma = modern[..start].rfind(',').expect("preceded by a field");
    let end = start + modern[start..].find("\"MgOne\"").expect("default spec") + "\"MgOne\"".len();
    let legacy = format!("{}{}", &modern[..comma], &modern[end..]);
    let reloaded = Scenario::from_json(&legacy).expect("legacy scenario parses");
    assert_eq!(
        reloaded.model.unwrap().backend,
        BackendSpec::MgOne,
        "legacy files must keep meaning the original overlay"
    );
}
