//! The six workload bodies. Each is a closed-loop batch job: set-up builds
//! the inputs from the seed and runs the correctness pre-checks, then one
//! identical repetition is executed again and again. Every number a body
//! runs on comes from `workloads.rs`.
//!
//! A repetition times its own body (see [`Timed`]) so that the checks on its
//! outputs run after the stopwatch has stopped. Spans are opened at every
//! call into a layer's public function; with the recorder disabled (the
//! untraced run) a span costs one branch.

use crate::check::{self, Digest, Expect, Ledger};
use crate::params::{self, EngineCase, Windows};
use crate::trace::{Counts, Open, Recorder};
use noc_bench::{default_panels, Pattern, Runner, Scenario, ScenarioResult, SweepSpec};
use noc_sim::{
    build_engine_with_plan, ClosedLoopSpec, EngineKind, LogHistogram, SimConfig, SimPlan,
    SimResults, TelemetrySpec,
};
use noc_topology::{RoutingSpec, Topology, TopologySpec};
use noc_workloads::{DestinationSets, Workload};
use quarc_core::{MgOneBackend, ModelBackend, ModelError, ModelOptions, NetworkCalculusBackend};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What one repetition produced.
#[derive(Clone, Debug, Default)]
pub struct RepOutcome {
    /// Wall of the repetition's body in seconds: first call into the
    /// measured code to the last, checks excluded.
    pub wall_s: f64,
    /// Digest of the simulated quantities the repetition computed; must be
    /// identical in every repetition of a run, and between two commits that
    /// claim not to have changed behaviour.
    pub digest: u64,
    /// Exact engine counts summed over the repetition.
    pub counts: Counts,
    /// Wall of the all-miss and of the all-hit pass, seconds (`cache-io`).
    pub cold_warm_s: Option<(f64, f64)>,
    /// Summed wall of the `Runner::run` calls, seconds (Runner workloads).
    pub runner_s: f64,
    /// `model_err_mc_pct` and the number of points behind it.
    pub model_err: Option<(f64, usize)>,
    /// `PointResult::wall_ms` of every sweep point (Runner workloads).
    pub point_wall_ms: Vec<f64>,
    /// Per-job walls of the cold and of the warm pass, ms (`cache-io`).
    pub cache_job_ms: Vec<(f64, f64)>,
    /// Bytes the cold pass left on disk (`cache-io`).
    pub cache_bytes: u64,
}

/// A workload body.
pub trait Body {
    /// One repetition. Operations are recorded in `ledger`; spans in `rec`.
    fn rep(&mut self, rec: &mut Recorder, ledger: &mut Ledger) -> RepOutcome;
}

/// Build the inputs of workload `name` from `seed` and run its correctness
/// pre-checks (both untimed by `wall_s`, inside `setup_s`). `scratch` is a
/// directory the body may fill and empty. `scale` ≤ 1 shrinks windows and
/// case lists for the crate's own smoke tests; the benchmark passes 1.
pub fn setup(
    name: &str,
    seed: u64,
    scratch: &Path,
    scale: f64,
    ledger: &mut Ledger,
) -> Box<dyn Body> {
    match name {
        "fig6-sweep" => Box::new(RunnerBody::fig6(seed, scale)),
        "sat-kernel" => Box::new(EngineBody::sat_kernel(seed, scale, ledger)),
        "lowload-skip" => Box::new(EngineBody::lowload_skip(seed, scale, ledger)),
        "model-only" => Box::new(ModelBody::new(seed, scale)),
        "scale-64k" => Box::new(ScaleBody::new(seed, scale, ledger)),
        "cache-io" => Box::new(RunnerBody::cache_io(seed, scale, scratch)),
        other => panic!("unknown workload `{other}`"),
    }
}

// ------------------------------------------------------------------ helpers

/// Stopwatch and root span of one repetition, from just before the first
/// call into the measured code to just after the last.
struct Timed {
    t0: Instant,
    root: Open,
}

impl Timed {
    fn start(rec: &mut Recorder) -> Self {
        let root = rec.begin("rep", "");
        Timed {
            t0: Instant::now(),
            root,
        }
    }

    fn stop(self, rec: &mut Recorder, counts: Counts) -> f64 {
        let wall = self.t0.elapsed().as_secs_f64();
        rec.end(self.root, counts);
        wall
    }
}

pub fn topology(spec: &str) -> Box<dyn Topology> {
    TopologySpec::parse(spec)
        .and_then(|s| s.build())
        .unwrap_or_else(|e| panic!("workload table names a bad topology `{spec}`: {e}"))
}

/// The shared open-loop traffic of `workloads.rs` on `topo`, at `rate`.
pub fn traffic_on(topo: &dyn Topology, rate: f64, seed: u64) -> Workload {
    let t = params::TRAFFIC;
    let sets = DestinationSets::random(topo, topo.num_nodes() / t.group_divisor, seed);
    Workload::new(t.msg_len, rate, t.alpha, sets).expect("workload table holds valid traffic")
}

/// `c × scale`, but never 0 unless `c` is.
fn scaled(c: u64, scale: f64) -> u64 {
    ((c as f64 * scale) as u64).max(c.min(1))
}

pub fn sim_config(w: Windows, seed: u64, scale: f64) -> SimConfig {
    SimConfig {
        seed,
        warmup_cycles: scaled(w.warmup, scale),
        measure_cycles: scaled(w.measure, scale),
        drain_cycles: scaled(w.drain, scale),
        buffer_depth: params::BUFFER_DEPTH,
        backlog_limit: params::BACKLOG_LIMIT,
        batch_size: params::BATCH_SIZE,
        engine: EngineKind::EventDriven,
        telemetry: TelemetrySpec::off(),
    }
}

/// Everything one engine run is built from.
#[derive(Clone, Copy)]
pub struct EngineInput<'a> {
    pub case: &'a str,
    pub topo: &'a dyn Topology,
    pub wl: &'a Workload,
    pub cfg: SimConfig,
    pub plan: &'a Arc<SimPlan>,
    pub closed: Option<&'a ClosedLoopSpec>,
}

/// Build, run and drop one engine inside `sim.engine.build` / `.run` /
/// `.drop` spans (at 65 536 nodes the teardown is a cost of its own).
pub fn run_engine(rec: &mut Recorder, inp: EngineInput<'_>) -> SimResults {
    let s = rec.begin("sim.engine.build", inp.case);
    let mut engine = build_engine_with_plan(inp.topo, inp.wl, inp.cfg, Arc::clone(inp.plan));
    if let Some(spec) = inp.closed {
        engine.install_closed_loop(spec, inp.cfg.seed);
    }
    rec.end(s, Counts::default());
    let s = rec.begin("sim.engine.run", inp.case);
    let res = engine.run();
    rec.end(s, Counts::of_run(&res));
    let s = rec.begin("sim.engine.drop", inp.case);
    drop(engine);
    rec.end(s, Counts::default());
    res
}

/// Run `inp` on both engines and record one operation that fails unless the
/// cycle oracle and the event engine agree on every checked field.
fn differential(ledger: &mut Ledger, inp: EngineInput<'_>, expect: Expect) {
    let mut off = Recorder::new("", 0, false);
    let mut run = |engine| {
        let cfg = inp.cfg.with_engine(engine);
        run_engine(&mut off, EngineInput { cfg, ..inp })
    };
    let event = run(EngineKind::EventDriven);
    let cycle = run(EngineKind::Cycle);
    let mut problems = check::run_problems(&event, expect);
    if check::run_digest(&event) != check::run_digest(&cycle) {
        problems.push(format!(
            "engines diverge: event {} vs cycle {}",
            check::run_fields(&event),
            check::run_fields(&cycle)
        ));
    }
    ledger.record(&format!("{} [event vs cycle]", inp.case), problems);
}

// ------------------------------------------------- sat-kernel, lowload-skip

/// One engine case with everything its runs share, built once.
pub struct EngineCaseState {
    name: String,
    topo: Box<dyn Topology>,
    wl: Workload,
    plan: Arc<SimPlan>,
    cfg: SimConfig,
    closed: Option<ClosedLoopSpec>,
}

impl EngineCaseState {
    fn open(case: EngineCase, windows: Windows, seed: u64, scale: f64) -> Self {
        let topo = topology(case.topology);
        let wl = traffic_on(topo.as_ref(), case.rate, seed);
        let plan = SimPlan::build(topo.as_ref(), &wl).expect("plan builds");
        EngineCaseState {
            name: format!("{}@{}", case.topology, case.rate),
            topo,
            wl,
            plan,
            cfg: sim_config(windows, seed, scale),
            closed: None,
        }
    }

    /// The closed-loop case of `sat-kernel`, issuing `scale` of its requests.
    pub fn closed(seed: u64, scale: f64) -> Self {
        let c = params::SAT_KERNEL_CLOSED;
        let topo = topology(c.topology);
        let group = topo.num_nodes() / params::TRAFFIC.group_divisor;
        let sets = DestinationSets::random(topo.as_ref(), group, seed);
        let wl = Workload::new(c.msg_len, 0.0, 0.0, sets).expect("closed-loop workload");
        let plan = SimPlan::build(topo.as_ref(), &wl).expect("plan builds");
        EngineCaseState {
            name: format!("{}@coherence-w{}", c.topology, c.window),
            topo,
            wl,
            plan,
            // The deadline is not scaled: the run ends at quiescence.
            cfg: sim_config(c.windows, seed, 1.0),
            closed: Some(ClosedLoopSpec::Coherence {
                window: c.window,
                requests: scaled(c.requests.into(), scale) as u32,
                write_fraction: c.write_fraction,
            }),
        }
    }

    pub fn input(&self) -> EngineInput<'_> {
        EngineInput {
            case: &self.name,
            topo: self.topo.as_ref(),
            wl: &self.wl,
            cfg: self.cfg,
            plan: &self.plan,
            closed: self.closed.as_ref(),
        }
    }
}

/// Direct engine runs on plans built in set-up: no model, no Runner, no IO.
struct EngineBody {
    cases: Vec<EngineCaseState>,
    expect: Expect,
}

impl EngineBody {
    fn sat_kernel(seed: u64, scale: f64, ledger: &mut Ledger) -> Self {
        let mut cases: Vec<EngineCaseState> = params::SAT_KERNEL_CASES
            .iter()
            .map(|&c| EngineCaseState::open(c, params::SAT_KERNEL_WINDOWS, seed, scale))
            .collect();
        cases.push(EngineCaseState::closed(seed, scale));
        let expect = Expect::MaySaturate;
        for c in &cases {
            differential(ledger, c.input(), expect);
        }
        EngineBody { cases, expect }
    }

    fn lowload_skip(seed: u64, scale: f64, ledger: &mut Ledger) -> Self {
        let cases: Vec<EngineCaseState> = params::LOWLOAD_TOPOLOGIES
            .iter()
            .map(|&topology| {
                let case = EngineCase {
                    topology,
                    rate: params::LOWLOAD_RATE,
                };
                EngineCaseState::open(case, params::LOWLOAD_WINDOWS, seed, scale)
            })
            .collect();
        let expect = Expect::Unsaturated;
        for c in &cases {
            let mut gate = c.input();
            gate.cfg.measure_cycles =
                (gate.cfg.measure_cycles / params::LOWLOAD_GATE_DIVISOR).max(1);
            differential(ledger, gate, expect);
        }
        EngineBody { cases, expect }
    }
}

impl Body for EngineBody {
    fn rep(&mut self, rec: &mut Recorder, ledger: &mut Ledger) -> RepOutcome {
        let timed = Timed::start(rec);
        let runs: Vec<SimResults> = self
            .cases
            .iter()
            .map(|c| run_engine(rec, c.input()))
            .collect();
        let mut counts = Counts::default();
        runs.iter().for_each(|r| counts.add(&Counts::of_run(r)));
        let wall_s = timed.stop(rec, counts);

        let mut digest = Digest::new();
        for (c, res) in self.cases.iter().zip(&runs) {
            ledger.record(&c.name, check::run_problems(res, self.expect));
            digest.push(check::run_digest(res));
        }
        RepOutcome {
            wall_s,
            digest: digest.finish(),
            counts,
            ..RepOutcome::default()
        }
    }
}

// ----------------------------------------------------------------- scale-64k

/// The whole chain a `fig-scale` rung pays, rebuilt every repetition:
/// implicit topology, sampled sets, lazy plan, event engine.
struct ScaleBody {
    seed: u64,
    cfg: SimConfig,
}

/// The `fig-scale` workload on an implicit topology.
pub fn scale_workload(topo: &dyn Topology, seed: u64) -> Workload {
    let sets = DestinationSets::sampled(topo, params::SCALE_GROUP, seed);
    Workload::new(
        params::SCALE_MSG_LEN,
        params::SCALE_RATE,
        params::SCALE_ALPHA,
        sets,
    )
    .expect("scale workload")
}

/// `fig-scale`'s engine settings over `windows`.
pub fn scale_config(windows: Windows, seed: u64, scale: f64) -> SimConfig {
    SimConfig {
        backlog_limit: params::SCALE_BACKLOG_LIMIT,
        batch_size: params::SCALE_BATCH_SIZE,
        ..sim_config(windows, seed, scale)
    }
}

impl ScaleBody {
    fn new(seed: u64, scale: f64, ledger: &mut Ledger) -> Self {
        let cfg = scale_config(params::SCALE_WINDOWS, seed, scale);
        // No oracle reaches 65 536 nodes; the differential check runs one
        // rung below, where the cycle engine is affordable.
        let topo = topology(params::SCALE_GATE_TOPOLOGY);
        let wl = scale_workload(topo.as_ref(), seed);
        let plan = SimPlan::build(topo.as_ref(), &wl).expect("plan builds");
        let gate = EngineInput {
            case: params::SCALE_GATE_TOPOLOGY,
            topo: topo.as_ref(),
            wl: &wl,
            cfg,
            plan: &plan,
            closed: None,
        };
        differential(ledger, gate, Expect::Unsaturated);
        ScaleBody { seed, cfg }
    }
}

impl Body for ScaleBody {
    fn rep(&mut self, rec: &mut Recorder, ledger: &mut Ledger) -> RepOutcome {
        let case = params::SCALE_TOPOLOGY;
        let timed = Timed::start(rec);
        let s = rec.begin("topology.build", case);
        let topo = topology(case);
        rec.end(s, Counts::default());
        let s = rec.begin("workloads.destsets", case);
        let wl = scale_workload(topo.as_ref(), self.seed);
        rec.end(s, Counts::default());
        let s = rec.begin("sim.plan.build", case);
        let plan = SimPlan::build(topo.as_ref(), &wl).expect("plan builds");
        rec.end(s, Counts::default());
        let res = run_engine(
            rec,
            EngineInput {
                case,
                topo: topo.as_ref(),
                wl: &wl,
                cfg: self.cfg,
                plan: &plan,
                closed: None,
            },
        );
        let counts = Counts::of_run(&res);
        let wall_s = timed.stop(rec, counts);

        let mut problems = check::run_problems(&res, Expect::Unsaturated);
        if !plan.is_lazy() {
            problems.push("implicit topology got a dense plan".to_string());
        }
        ledger.record(case, problems);
        RepOutcome {
            wall_s,
            digest: check::run_digest(&res),
            counts,
            ..RepOutcome::default()
        }
    }
}

// ---------------------------------------------------------------- model-only

struct ModelCase {
    name: String,
    topo: Box<dyn Topology>,
    proto: Workload,
}

/// No simulation at all: both analytical backends, bisected and evaluated.
struct ModelBody {
    cases: Vec<ModelCase>,
    fractions: Vec<f64>,
}

/// One model solve and what it answered.
enum Solve {
    Bisect {
        case: String,
        horizon: f64,
    },
    Evaluate {
        case: String,
        /// Load as a fraction of the backend's own horizon.
        fraction: f64,
        /// `(unicast, multicast)` latency.
        outcome: Result<(f64, f64), ModelError>,
    },
}

impl ModelBody {
    fn new(seed: u64, scale: f64) -> Self {
        let all = params::MODEL_TOPOLOGIES;
        let keep = scaled(all.len() as u64, scale) as usize;
        let mut cases = Vec::new();
        for &(spec, dual_path) in &all[..keep] {
            let topo = topology(spec);
            let proto = traffic_on(topo.as_ref(), noc_bench::scenario::PROTOTYPE_RATE, seed);
            if dual_path {
                cases.push(ModelCase {
                    name: format!("{spec}/dual-path"),
                    topo: topology(spec),
                    proto: proto.clone().with_routing(RoutingSpec::DualPath),
                });
            }
            cases.push(ModelCase {
                name: spec.to_string(),
                topo,
                proto,
            });
        }
        let (lo, hi, k) = (
            params::MODEL_FRACTION_LO,
            params::MODEL_FRACTION_HI,
            params::MODEL_FRACTIONS,
        );
        let fractions = (0..k)
            .map(|i| lo + (hi - lo) * i as f64 / (k - 1) as f64)
            .collect();
        ModelBody { cases, fractions }
    }
}

impl Body for ModelBody {
    fn rep(&mut self, rec: &mut Recorder, ledger: &mut Ledger) -> RepOutcome {
        let opts = ModelOptions::default();
        let backends: [&dyn ModelBackend; 2] = [&MgOneBackend, &NetworkCalculusBackend];
        let mut solves = Vec::new();
        let mut counts = Counts::default();
        let timed = Timed::start(rec);
        for c in &self.cases {
            for backend in backends {
                let case = format!("{}/{}", c.name, backend.code());
                let s = rec.begin("core.bisect", &case);
                let horizon = backend.max_sustainable_rate(
                    c.topo.as_ref(),
                    &c.proto,
                    &opts,
                    params::SATURATION_TOL,
                );
                rec.end(s, Counts::default());
                solves.push(Solve::Bisect {
                    case: case.clone(),
                    horizon,
                });
                if horizon <= 0.0 {
                    continue;
                }
                for &f in &self.fractions {
                    let wl = c.proto.at_rate(f * horizon).expect("rate below 1");
                    let s = rec.begin("core.evaluate", &case);
                    let outcome = backend.evaluate(c.topo.as_ref(), &wl, &opts);
                    let iterations = outcome.as_ref().map_or(0, |p| p.iterations);
                    rec.end(s, Counts::iterations(iterations));
                    counts.iterations += iterations as u64;
                    solves.push(Solve::Evaluate {
                        case: case.clone(),
                        fraction: f,
                        outcome: outcome.map(|p| (p.unicast_latency, p.multicast_latency)),
                    });
                }
            }
        }
        let wall_s = timed.stop(rec, counts);

        let mut digest = Digest::new();
        for solve in &solves {
            let mut problems = Vec::new();
            let case = match solve {
                Solve::Bisect { case, horizon } => {
                    if !(0.0..1.0).contains(horizon) {
                        problems.push(format!("horizon {horizon} outside [0, 1)"));
                    }
                    digest.push(horizon.to_bits());
                    format!("{case} bisect")
                }
                Solve::Evaluate {
                    case,
                    fraction,
                    outcome,
                } => {
                    match outcome {
                        Ok((unicast, multicast)) => {
                            for (class, v) in [("unicast", *unicast), ("multicast", *multicast)] {
                                if !(v.is_finite() && v > 0.0) {
                                    problems.push(format!("{class} latency {v}"));
                                }
                                digest.push(v.to_bits());
                            }
                        }
                        // Past its own horizon a backend answers with a
                        // typed `Saturated`: an outcome, not a failure.
                        Err(ModelError::Saturated { .. }) if *fraction > 1.0 => digest.push(0),
                        Err(e) => problems.push(e.to_string()),
                    }
                    format!("{case} evaluate@{fraction:.2}")
                }
            };
            ledger.record(&case, problems);
        }
        RepOutcome {
            wall_s,
            digest: digest.finish(),
            counts,
            ..RepOutcome::default()
        }
    }
}

// ------------------------------------------------------ fig6-sweep, cache-io

/// The two workloads that go through `Runner::run`. Untraced, a repetition
/// is exactly what a user runs. Traced, it replays the Runner's steps by
/// hand through the same public calls, so the spans describe the same
/// computation, and requires the by-hand `SimResults` bit-equal to the
/// Runner's.
struct RunnerBody {
    scenarios: Vec<Scenario>,
    /// `Some` for `cache-io`: the result-cache directory, emptied before
    /// every repetition.
    cache: Option<PathBuf>,
    /// The Runner's results of the latest untraced repetition, which the
    /// traced replay is compared with.
    reference: Vec<ScenarioResult>,
}

/// The Runner's output of one repetition, checked after the stopwatch.
struct RunnerRaw {
    /// The all-miss pass of `cache-io`, else empty.
    cold: Vec<ScenarioResult>,
    /// The sweep of `fig6-sweep`, the all-hit pass of `cache-io`.
    last: Vec<ScenarioResult>,
}

impl RunnerBody {
    fn panels(seed: u64, scale: f64) -> Vec<noc_bench::FigureConfig> {
        let mut panels = default_panels(Pattern::Random, seed);
        panels.truncate(scaled(panels.len() as u64, scale) as usize);
        panels
    }

    fn quick(seed: u64, scale: f64) -> SimConfig {
        let q = SimConfig::quick(seed);
        SimConfig {
            warmup_cycles: scaled(q.warmup_cycles, scale),
            measure_cycles: scaled(q.measure_cycles, scale),
            drain_cycles: scaled(q.drain_cycles, scale),
            ..q
        }
    }

    fn fig6(seed: u64, scale: f64) -> Self {
        let scenarios = Self::panels(seed, scale)
            .iter()
            .map(|cfg| cfg.scenario(params::FIG6_POINTS, Self::quick(seed, scale)))
            .collect();
        RunnerBody {
            scenarios,
            cache: None,
            reference: Vec::new(),
        }
    }

    fn cache_io(seed: u64, scale: f64, scratch: &Path) -> Self {
        let scenarios = Self::panels(seed, scale)
            .iter()
            .map(|cfg| {
                let mut sc = cfg
                    .scenario(params::CACHE_POINTS, Self::quick(seed, scale))
                    .with_model(None)
                    .with_replicates(params::CACHE_REPLICATES);
                sc.sweep = SweepSpec::Explicit {
                    rates: (1..=params::CACHE_POINTS)
                        .map(|i| i as f64 * params::CACHE_RATE_UNIT / cfg.n as f64)
                        .collect(),
                };
                sc
            })
            .collect();
        RunnerBody {
            scenarios,
            cache: Some(scratch.join("cache")),
            reference: Vec::new(),
        }
    }

    /// One pass of every scenario through the Runner; returns the results
    /// and the summed `Runner::run` wall.
    fn runner_pass(&self) -> (Vec<ScenarioResult>, f64) {
        let runner = Runner::new().threads(1).cache(self.cache.clone());
        let mut wall = 0.0;
        let results = self
            .scenarios
            .iter()
            .map(|sc| {
                let t0 = Instant::now();
                let r = runner
                    .run(sc)
                    .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
                wall += t0.elapsed().as_secs_f64();
                r
            })
            .collect();
        (results, wall)
    }

    fn empty_cache(&self) {
        if let Some(dir) = &self.cache {
            match std::fs::remove_dir_all(dir) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => panic!("cannot empty {}: {e}", dir.display()),
            }
        }
    }

    /// Record one operation per sweep point (`fig6-sweep`) or cache job
    /// (`cache-io`) of `results`; only a `warm` pass may, and must, have
    /// been served from the cache.
    fn check_points(&self, results: &[ScenarioResult], pass: &str, ledger: &mut Ledger) {
        for r in results {
            let replicates = r.scenario.replicates as u64;
            let expected = match pass {
                "warm" => (replicates, 0),
                _ => (0, replicates),
            };
            for (i, (p, sims)) in r.points.iter().zip(&r.sims).enumerate() {
                let mut problems = Vec::new();
                for res in sims {
                    problems.extend(check::run_problems(res, Expect::MaySaturate));
                }
                if p.bound_multicast.is_finite()
                    && p.sim_multicast.is_finite()
                    && p.bound_multicast < p.sim_multicast
                {
                    problems.push(format!(
                        "calculus bound {} below simulated mean {}",
                        p.bound_multicast, p.sim_multicast
                    ));
                }
                if (p.cache_hits, p.cache_misses) != expected {
                    problems.push(format!(
                        "{} cache hits / {} misses, expected {} / {}",
                        p.cache_hits, p.cache_misses, expected.0, expected.1
                    ));
                }
                let jobs = if self.cache.is_some() { sims.len() } else { 1 };
                let case = format!("{} point {i} [{pass}]", r.scenario.name);
                ledger.record_n(&case, jobs, problems);
            }
        }
    }

    fn untraced(&mut self, ledger: &mut Ledger) -> RepOutcome {
        let mut out = RepOutcome::default();
        self.empty_cache();
        let t0 = Instant::now();
        let (first, mut runner_s) = self.runner_pass();
        let first_s = t0.elapsed().as_secs_f64();
        let raw = if self.cache.is_some() {
            let t1 = Instant::now();
            let (warm, wall) = self.runner_pass();
            out.cold_warm_s = Some((first_s, t1.elapsed().as_secs_f64()));
            runner_s += wall;
            RunnerRaw {
                cold: first,
                last: warm,
            }
        } else {
            RunnerRaw {
                cold: Vec::new(),
                last: first,
            }
        };
        let mut sink_bytes = 0;
        for r in &raw.last {
            sink_bytes += r.to_csv().len() + r.to_json().len();
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        out.runner_s = runner_s;
        out.counts.bytes = sink_bytes as u64;

        if self.cache.is_some() {
            self.check_points(&raw.cold, "cold", ledger);
            self.check_points(&raw.last, "warm", ledger);
            for (c, w) in raw.cold.iter().zip(&raw.last) {
                let mut problems = Vec::new();
                if check::sims_json(&c.sims) != check::sims_json(&w.sims) {
                    problems.push("warm sims differ from cold sims".to_string());
                }
                ledger.record(&format!("{} warm = cold", c.scenario.name), problems);
                let jobs = c.scenario.replicates as f64;
                for (pc, pw) in c.points.iter().zip(&w.points) {
                    out.cache_job_ms
                        .push((pc.wall_ms / jobs, pw.wall_ms / jobs));
                }
            }
            let dir = self.cache.as_deref().expect("cache-io has a cache dir");
            out.cache_bytes = dir_bytes(dir);
        } else {
            self.check_points(&raw.last, "sweep", ledger);
        }
        let mut digest = Digest::new();
        let (mut err_sum, mut err_n) = (0.0, 0usize);
        for r in &raw.last {
            for (p, sims) in r.points.iter().zip(&r.sims) {
                digest.push(p.model_multicast.to_bits());
                digest.push(p.bound_multicast.to_bits());
                for res in sims {
                    digest.push(check::run_digest(res));
                    out.counts.add(&Counts::of_run(res));
                }
                out.point_wall_ms.push(p.wall_ms);
                if p.model_applicable && !p.sim_saturated {
                    if let Some(e) = p.multicast_error() {
                        err_sum += e;
                        err_n += 1;
                    }
                }
            }
        }
        out.digest = digest.finish();
        if err_n > 0 {
            out.model_err = Some((100.0 * err_sum / err_n as f64, err_n));
        }
        self.reference = raw.last;
        out
    }

    /// The Runner's steps by hand. File names in the cache directory are the
    /// replay's own (the Runner's key function is private); the bytes
    /// written and read are the Runner's.
    fn replay(&mut self, rec: &mut Recorder, ledger: &mut Ledger) -> RepOutcome {
        assert!(
            !self.reference.is_empty(),
            "a traced repetition follows an untraced one"
        );
        let mut out = RepOutcome::default();
        self.empty_cache();
        let passes: &[&str] = match self.cache {
            Some(_) => &["cold", "warm"],
            None => &["sweep"],
        };
        let timed = Timed::start(rec);
        let mut replayed = Vec::new();
        for &pass in passes {
            for (k, sc) in self.scenarios.iter().enumerate() {
                let cache = self.cache.as_deref();
                let sims = replay_scenario(rec, sc, cache, pass, &mut out.counts);
                replayed.push((pass, k, sims));
            }
        }
        for r in &self.reference {
            let s = rec.begin("bench.sink.csv", &r.scenario.name);
            let n = r.to_csv().len();
            rec.end(s, Counts::bytes(n));
            let s = rec.begin("bench.sink.json", &r.scenario.name);
            let n = r.to_json().len();
            rec.end(s, Counts::bytes(n));
        }
        out.wall_s = timed.stop(rec, out.counts);

        for (pass, k, sims) in &replayed {
            let reference = &self.reference[*k];
            let mut problems = Vec::new();
            if check::sims_json(sims) != check::sims_json(&reference.sims) {
                problems.push("by-hand SimResults differ from the Runner's".to_string());
            }
            let case = format!("{} replay [{pass}]", reference.scenario.name);
            ledger.record(&case, problems);
        }
        out
    }
}

/// `Runner::run` of one scenario, by hand, under a `bench.runner.replay`
/// span whose children are the layer calls.
fn replay_scenario(
    rec: &mut Recorder,
    sc: &Scenario,
    cache: Option<&Path>,
    pass: &str,
    counts: &mut Counts,
) -> Vec<Vec<SimResults>> {
    let name = sc.name.as_str();
    let whole = rec.begin("bench.runner.replay", &format!("{name} [{pass}]"));
    let s = rec.begin("bench.scenario.validate", name);
    sc.validate().expect("scenario validates");
    rec.end(s, Counts::default());
    let s = rec.begin("bench.scenario.materialize", name);
    let (topo, proto) = sc.materialize().expect("scenario materializes");
    rec.end(s, Counts::default());
    let s = rec.begin("bench.scenario.resolve", name);
    let sweep = sc
        .sweep
        .resolve(topo.as_ref(), &proto, sc.model.unwrap_or_default())
        .expect("sweep resolves");
    rec.end(s, Counts::default());
    let s = rec.begin("sim.plan.build", name);
    let plan = SimPlan::build(topo.as_ref(), &proto).expect("plan builds");
    rec.end(s, Counts::default());
    if let Some(dir) = cache {
        std::fs::create_dir_all(dir).expect("cache dir");
        // The Runner keys its cache on the name-cleared scenario JSON.
        let s = rec.begin("serde.encode", "cache-key");
        let mut keyed = sc.clone();
        keyed.name = String::new();
        let n = keyed.to_json().len();
        rec.end(s, Counts::bytes(n));
    }
    let mut sims = Vec::with_capacity(sweep.len());
    for (i, &rate) in sweep.rates().iter().enumerate() {
        let mut group = Vec::with_capacity(sc.replicates as usize);
        for rep in 0..sc.replicates {
            let case = format!("{name} p{i} r{rep}");
            let s = rec.begin("workloads.at_rate", &case);
            let wl = proto.at_rate(rate).expect("resolved rate is valid");
            rec.end(s, Counts::default());
            if let (Some(mo), 0) = (sc.model, rep) {
                let overlay: [&dyn ModelBackend; 2] =
                    [mo.backend.backend(), &NetworkCalculusBackend];
                for backend in overlay {
                    let s = rec.begin("core.evaluate", &format!("{case} {}", backend.code()));
                    let outcome = backend.evaluate(topo.as_ref(), &wl, &mo);
                    rec.end(s, Counts::iterations(outcome.map_or(0, |p| p.iterations)));
                }
            }
            let mut cfg = sc.sim;
            cfg.seed = sc.seed.wrapping_add(rep as u64);
            let file = cache.map(|dir| dir.join(format!("replay-{name}-{i}-{rep}.json")));
            let res = if pass == "warm" {
                let file = file.expect("warm pass has a cache");
                let s = rec.begin("bench.cache.read", &case);
                let text = std::fs::read_to_string(&file).expect("cold pass wrote the entry");
                rec.end(s, Counts::bytes(text.len()));
                let s = rec.begin("serde.decode", &case);
                let res: SimResults = serde::json::from_str(&text).expect("entry parses");
                rec.end(s, Counts::bytes(text.len()));
                res
            } else {
                let res = run_engine(
                    rec,
                    EngineInput {
                        case: &case,
                        topo: topo.as_ref(),
                        wl: &wl,
                        cfg,
                        plan: &plan,
                        closed: None,
                    },
                );
                counts.add(&Counts::of_run(&res));
                if let Some(file) = file {
                    let s = rec.begin("serde.encode", &case);
                    let text = serde::json::to_string_pretty(&res);
                    rec.end(s, Counts::bytes(text.len()));
                    let s = rec.begin("bench.cache.write", &case);
                    std::fs::write(&file, &text).expect("cache entry writes");
                    rec.end(s, Counts::bytes(text.len()));
                }
                res
            };
            group.push(res);
        }
        // The Runner pools the replicates' histograms before it takes the
        // point's quantiles.
        let s = rec.begin("telemetry.hist.pool", &format!("{name} p{i}"));
        let mut pooled = LogHistogram::new();
        for res in &group {
            pooled.merge(&res.latency_hists.multicast);
        }
        std::hint::black_box((pooled.p50(), pooled.p95(), pooled.p99()));
        rec.end(s, Counts::default());
        sims.push(group);
    }
    rec.end(whole, Counts::default());
    sims
}

fn dir_bytes(dir: &Path) -> u64 {
    let entries = std::fs::read_dir(dir).expect("cache dir lists");
    entries
        .map(|e| {
            e.and_then(|e| e.metadata())
                .expect("cache entry stats")
                .len()
        })
        .sum()
}

impl Body for RunnerBody {
    fn rep(&mut self, rec: &mut Recorder, ledger: &mut Ledger) -> RepOutcome {
        if rec.enabled() {
            self.replay(rec, ledger)
        } else {
            self.untraced(ledger)
        }
    }
}
