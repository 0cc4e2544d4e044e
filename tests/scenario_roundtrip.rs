//! Scenario serialization round-trips.
//!
//! The Scenario API's contract is that a spec is *data*: writing it to
//! JSON, reading it back and running it must yield bit-identical results
//! to running the original, for every topology in the registry. The
//! comparison goes through the structured JSON sink, which serializes
//! every float at full round-trip precision — byte-equal JSON means
//! bit-equal points, per-replicate simulator output included.

use quarc_noc::prelude::*;

/// A short simulation: round-trip testing needs determinism, not
/// statistical quality.
fn tiny_sim(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::quick(seed);
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 2_000;
    cfg.drain_cycles = 8_000;
    cfg.backlog_limit = 4_000;
    cfg
}

fn scenario_for(topology: TopologySpec) -> Scenario {
    Scenario::new(
        format!("roundtrip-{topology}"),
        topology,
        WorkloadSpec::new(8, 0.05, MulticastPattern::Random { group: 2 }),
        SweepSpec::Explicit {
            rates: vec![0.001, 0.003],
        },
    )
    .with_sim(tiny_sim(9))
    .with_seed(9)
}

#[test]
fn serialize_deserialize_run_is_bit_identical_on_all_six_topologies() {
    for topology in [
        TopologySpec::Quarc { n: 16 },
        TopologySpec::Ring { n: 8 },
        TopologySpec::Spidergon { n: 8 },
        TopologySpec::Mesh {
            width: 3,
            height: 3,
        },
        TopologySpec::Torus {
            width: 3,
            height: 3,
        },
        TopologySpec::Hypercube { dim: 3 },
    ] {
        let original = scenario_for(topology);
        let json = original.to_json();
        let reloaded = Scenario::from_json(&json).expect("serialized scenario parses");
        assert_eq!(original, reloaded, "spec round-trip must be identity");

        let runner = Runner::new().threads(2);
        let a = runner.run(&original).expect("original runs");
        let b = runner.run(&reloaded).expect("reloaded runs");
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{topology}: results diverged after a JSON round-trip"
        );
        // Sanity: the runs actually simulated something.
        assert!(a.sims[0][0].total_absorbed > 0, "{topology}: empty run");
    }
}

#[test]
fn scenario_json_embeds_human_readable_structure() {
    let sc = scenario_for(TopologySpec::Quarc { n: 16 });
    let json = sc.to_json();
    for needle in ["Quarc", "Random", "msg_len", "replicates", "Explicit"] {
        assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
    }
}

#[test]
fn registry_rejects_unknown_names_with_useful_errors() {
    let err = TopologySpec::parse("warpgrid-16").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("warpgrid"), "{msg}");
    assert!(
        msg.contains("quarc") && msg.contains("hypercube"),
        "should list the known topologies: {msg}"
    );
    assert!(TopologySpec::parse("quarc").is_err(), "missing size");
    assert!(TopologySpec::parse("mesh-3xq").is_err(), "bad height");
}

#[test]
fn registry_rejects_invalid_sizes_at_build_time() {
    // Sizes that parse but violate the topology's constraints fail at
    // build() with the constraint in the message.
    let spec = TopologySpec::parse("quarc-7").expect("parses");
    let msg = match spec.build() {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a 7-node Quarc must be rejected"),
    };
    assert!(msg.contains('7'), "{msg}");

    // And the runner folds the failure into the workspace error.
    let sc = scenario_for(TopologySpec::Quarc { n: 7 });
    match Runner::new().run(&sc) {
        Err(Error::Topology(_)) => {}
        other => panic!("expected Error::Topology, got {other:?}"),
    }
}

#[test]
fn pre_telemetry_scenario_json_still_parses_and_runs() {
    // Scenario files written before the flight recorder carry no
    // `telemetry` key in their sim config; they must load as
    // telemetry-off and produce the same run they always did.
    let sc = scenario_for(TopologySpec::Ring { n: 8 });
    assert!(!sc.sim.telemetry.enabled(), "default is off");
    let json = sc.to_json();
    assert!(
        json.contains("\"telemetry\""),
        "current files carry the key"
    );
    // Simulate a legacy file: drop the telemetry field wholesale.
    let mut doc: serde::Value = serde::json::from_str(&json).unwrap();
    let serde::Value::Map(fields) = &mut doc else {
        panic!("scenario serializes as a map");
    };
    let sim = fields
        .iter_mut()
        .find(|(k, _)| k == "sim")
        .map(|(_, v)| v)
        .unwrap();
    let serde::Value::Map(sim_fields) = sim else {
        panic!("sim serializes as a map");
    };
    sim_fields.retain(|(k, _)| k != "telemetry");
    let legacy = serde::json::to_string(&doc);
    assert!(!legacy.contains("telemetry"));
    let parsed = Scenario::from_json(&legacy).expect("legacy scenario parses");
    assert!(!parsed.sim.telemetry.enabled());
    let a = Runner::new().run(&sc).unwrap();
    let b = Runner::new().run(&parsed).unwrap();
    assert_eq!(a.to_csv(), b.to_csv(), "legacy spec runs identically");
}

#[test]
fn scenario_json_with_solver_settings_in_the_model_still_parses_and_runs() {
    // Scenario files written while the model options carried the
    // solver's `fixed_point` settings: the key is ignored, the spec equals
    // a fresh one and runs bit-identically to it.
    let sc = scenario_for(TopologySpec::Quarc { n: 16 });
    let mut doc: serde::Value = serde::json::from_str(&sc.to_json()).unwrap();
    let serde::Value::Map(fields) = &mut doc else {
        panic!("scenario serializes as a map");
    };
    let (_, serde::Value::Map(model)) = fields.iter_mut().find(|(k, _)| k == "model").unwrap()
    else {
        panic!("the model overlay serializes as a map");
    };
    assert!(model.iter().all(|(k, _)| k != "fixed_point"));
    let solver = r#"{"tolerance": 1e-9, "max_iterations": 10000, "bound": 1e12}"#;
    model.insert(
        3,
        ("fixed_point".into(), serde::json::from_str(solver).unwrap()),
    );
    let legacy = serde::json::to_string_pretty(&doc);
    assert!(legacy.contains("\"fixed_point\""));
    let parsed = Scenario::from_json(&legacy).expect("legacy scenario parses");
    assert_eq!(parsed, sc, "the solver settings are ignored");
    let runner = Runner::new().threads(2);
    let a = runner.run(&sc).unwrap();
    let b = runner.run(&parsed).unwrap();
    assert_eq!(a.to_json(), b.to_json(), "legacy spec runs bit-identically");
}

#[test]
fn registry_round_trips_the_scale_families() {
    // `parse(spec.to_string())` is the registry contract; the scale
    // families carry structured arguments, so spell both forms out.
    for (s, spec) in [
        ("min-64x2", TopologySpec::Min { k: 64, stages: 2 }),
        (
            "clustered-4x-mesh-4x4",
            TopologySpec::Clustered {
                clusters: 4,
                inner: ClusterInner::Mesh {
                    width: 4,
                    height: 4,
                },
            },
        ),
        (
            "clustered-2x-quarc-8",
            TopologySpec::Clustered {
                clusters: 2,
                inner: ClusterInner::Quarc { n: 8 },
            },
        ),
    ] {
        assert_eq!(TopologySpec::parse(s).unwrap(), spec, "{s}");
        assert_eq!(spec.to_string(), s, "{s}: display form");
        assert_eq!(
            TopologySpec::parse(&spec.to_string()).unwrap(),
            spec,
            "{s}: parse∘display is the identity"
        );
    }
}

#[test]
fn registry_rejects_malformed_scale_specs() {
    for bad in [
        "min-64",               // no single-size form
        "clustered-4",          // no single-size form
        "min-axb",              // non-numeric radix
        "min-64x",              // missing stage count
        "clustered-4-mesh",     // cluster count must end with `x`
        "clustered-2x-min-2x2", // no nesting of implicit families
        "clustered-2x-warp-9",  // unknown inner family
    ] {
        let result = TopologySpec::parse(bad).and_then(|spec| spec.build().map(|_| ()));
        assert!(result.is_err(), "`{bad}` must be rejected");
    }
    // Constraint violations surface at build() with the constraint named.
    for (spec, needle) in [
        ("min-1x3", "at least 2"),
        ("clustered-1x-ring-6", "two clusters"),
    ] {
        let msg = match TopologySpec::parse(spec).expect("parses").build() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("`{spec}` must fail at build time"),
        };
        assert!(msg.contains(needle), "`{spec}`: {msg}");
    }
}

#[test]
fn scale_family_round_trip_runs_bit_identical_and_unmodeled() {
    // Same contract as the six legacy topologies, plus the scale-family
    // stamp: no analytical backend covers implicit storage, so every
    // point must carry `model_applicable = false`.
    for topology in [
        TopologySpec::Min { k: 2, stages: 3 },
        TopologySpec::Clustered {
            clusters: 2,
            inner: ClusterInner::Ring { n: 6 },
        },
    ] {
        let original = scenario_for(topology);
        let json = original.to_json();
        let reloaded = Scenario::from_json(&json).expect("serialized scenario parses");
        assert_eq!(original, reloaded, "spec round-trip must be identity");

        let runner = Runner::new().threads(2);
        let a = runner.run(&original).expect("original runs");
        let b = runner.run(&reloaded).expect("reloaded runs");
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{topology}: results diverged after a JSON round-trip"
        );
        assert!(a.sims[0][0].total_absorbed > 0, "{topology}: empty run");
        assert!(
            a.points.iter().all(|p| !p.model_applicable),
            "{topology}: implicit topologies are outside every model"
        );
    }
}

#[test]
fn saturation_relative_sweeps_reject_implicit_topologies() {
    // There is no analytical saturation rate to anchor on; the runner
    // must say so instead of silently picking one.
    let mut sc = scenario_for(TopologySpec::Min { k: 2, stages: 3 });
    sc.sweep = SweepSpec::SaturationFractions {
        fractions: vec![0.3],
    };
    match Runner::new().run(&sc) {
        Err(Error::InvalidScenario(msg)) => {
            assert!(msg.contains("explicit rates"), "actionable message: {msg}");
        }
        other => panic!("expected Error::InvalidScenario, got {other:?}"),
    }
}

#[test]
fn invalid_scenarios_surface_typed_errors_not_panics() {
    // Malformed sweep (descending rates).
    let mut sc = scenario_for(TopologySpec::Ring { n: 8 });
    sc.sweep = SweepSpec::Explicit {
        rates: vec![0.01, 0.002],
    };
    assert!(matches!(Runner::new().run(&sc), Err(Error::Sweep(_))));

    // Malformed workload (alpha out of range).
    let mut sc = scenario_for(TopologySpec::Ring { n: 8 });
    sc.workload.alpha = 2.0;
    assert!(matches!(
        Runner::new().run(&sc),
        Err(Error::InvalidScenario(_))
    ));

    // Malformed JSON.
    assert!(matches!(
        Scenario::from_json("{not json"),
        Err(Error::Serde(_))
    ));
    // Structurally valid JSON that is not a scenario.
    assert!(Scenario::from_json("{\"name\": \"x\"}").is_err());
}

#[test]
fn a_scenario_whose_windows_overflow_is_a_typed_error() {
    // `warmup + measure` past `u64::MAX` once wrapped into a run that
    // stopped after 49 cycles and reported nothing measured, unsaturated.
    let mut sc = scenario_for(TopologySpec::Quarc { n: 16 });
    sc.sim.warmup_cycles = 100;
    let json = sc.to_json().replace(
        "\"measure_cycles\": 2000",
        &format!("\"measure_cycles\": {}", u64::MAX - 50),
    );
    let sc = Scenario::from_json(&json).expect("the JSON parses");
    assert_eq!(sc.sim.measure_cycles, u64::MAX - 50, "the edit landed");
    let overflow = quarc_noc::sim::ConfigError::WindowOverflow {
        warmup_cycles: 100,
        measure_cycles: u64::MAX - 50,
        drain_cycles: 8_000,
    };
    assert!(matches!(sc.validate(), Err(Error::Config(e)) if e == overflow));
    assert!(matches!(Runner::new().run(&sc), Err(Error::Config(e)) if e == overflow));
}
