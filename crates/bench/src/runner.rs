//! Scenario execution: one engine for every experiment in the workspace.
//!
//! [`Runner`] turns a declarative [`Scenario`] into a [`ScenarioResult`]:
//!
//! * builds the topology through the registry and the workload prototype
//!   from the scenario's master seed;
//! * walks the routes once per scenario, when the sweep or an overlay
//!   first asks, into the one [`RoutedLoads`] table the saturation search
//!   and every point's overlays read;
//! * resolves the sweep (evaluating the analytical saturation point for
//!   saturation-relative sweeps);
//! * builds **one** [`SimPlan`] per scenario and shares it across every
//!   sweep point, replicate and worker thread;
//! * executes all `(rate, replicate)` jobs on a bounded worker pool with
//!   dynamic load balancing, reporting completion through an optional
//!   progress callback;
//! * overlays the analytical model's prediction at every rate when the
//!   scenario requests it;
//! * exposes structured sinks: an aligned terminal table, CSV, and a JSON
//!   document embedding the scenario spec next to its results.
//!
//! Execution is deterministic in the scenario: thread count and progress
//! callbacks never change results.

use crate::error::{Error, Result};
use crate::scenario::{saturation_anchor, Scenario};
use noc_queueing::student_t975;
use noc_sim::{build_engine_with_plan, LatencyStats, LogHistogram, SimPlan, SimResults};
use noc_topology::{NodeId, Topology};
use noc_workloads::parallel::{effective_threads, parallel_map};
use noc_workloads::table::{fmt_latency, Table};
use noc_workloads::Workload;
use quarc_core::{BackendSpec, ModelBackend, NetworkCalculusBackend, RoutedLoads};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Instant;

/// One completed `(rate, replicate)` job, reported to progress callbacks.
#[derive(Clone, Debug)]
pub struct Progress {
    /// The scenario's name.
    pub scenario: String,
    /// Jobs completed so far (including this one).
    pub completed: usize,
    /// Total jobs (`sweep points × replicates`).
    pub total: usize,
    /// The generation rate of the finished job.
    pub rate: f64,
    /// The replicate index of the finished job.
    pub replicate: u32,
}

/// One operating point of a scenario: analytical prediction (when the
/// overlay is enabled) and across-replicate simulation measurement.
#[derive(Clone, Debug, Serialize)]
pub struct PointResult {
    /// Generation rate (messages/node/cycle).
    pub rate: f64,
    /// Mean-prediction unicast latency from the scenario's selected
    /// backend (`NaN` beyond that backend's saturation or without an
    /// overlay).
    pub model_unicast: f64,
    /// Mean-prediction multicast latency from the scenario's selected
    /// backend (`NaN` beyond that backend's saturation or without an
    /// overlay).
    pub model_multicast: f64,
    /// Worst-case unicast latency bound from the network-calculus
    /// backend, evaluated alongside the mean overlay (`NaN` without an
    /// overlay or past the calculus stability horizon). Wherever finite,
    /// `bound ≥ simulated mean` is the cross-validation invariant.
    pub bound_unicast: f64,
    /// Worst-case multicast latency bound from the network-calculus
    /// backend (`NaN` without an overlay or past the calculus stability
    /// horizon).
    pub bound_multicast: f64,
    /// Is the analytical overlay inside its applicability domain? `false`
    /// when the scenario's traffic spec is not the memoryless (Poisson)
    /// process the model assumes, or when its routing scheme's streams
    /// are not the asynchronous per-port wormholes of Eq. 8–16
    /// (`Multipath`, `UnicastTree`) — the overlay is still evaluated (the
    /// divergence
    /// *is* the measurement, see `fig-burstiness`/`fig-routing`), but its
    /// numbers must not be read as predictions.
    pub model_applicable: bool,
    /// Simulated unicast latency (mean over the replicates with a sample;
    /// `NaN` when none has one).
    pub sim_unicast: f64,
    /// Simulated multicast latency (mean as for `sim_unicast`).
    pub sim_multicast: f64,
    /// 95% CI half-width of the simulated multicast latency: batch-means
    /// within the run when one replicate has a sample, across the means
    /// of those that have one otherwise.
    pub sim_multicast_ci: f64,
    /// Streaming-histogram median of the point's primary latency
    /// population (multicast for open-loop scenarios, request completion
    /// for closed-loop), merged across replicates before the quantile is
    /// taken — not averaged per replicate. `NaN` when the population is
    /// empty (e.g. a fully saturated point).
    pub sim_p50: f64,
    /// 95th percentile of the merged primary latency histogram.
    pub sim_p95: f64,
    /// 99th percentile of the merged primary latency histogram.
    pub sim_p99: f64,
    /// Replicates of this point served from the result cache.
    pub cache_hits: u64,
    /// Replicates of this point actually simulated.
    pub cache_misses: u64,
    /// Wall-clock spent producing this point, summed over replicates
    /// (milliseconds; cache hits contribute their read-and-parse time).
    /// Run accounting, not a result: reported in
    /// [`ScenarioResult::summary`] but excluded from serialization, so
    /// persisted sinks stay byte-identical across hosts, thread counts
    /// and re-runs — the structured JSON sink is byte-compared across
    /// runs by the round-trip suite.
    #[serde(skip_serializing)]
    pub wall_ms: f64,
    /// Simulator saturation flag (any replicate).
    pub sim_saturated: bool,
}

impl PointResult {
    /// Relative model error on unicast latency, when both sides are finite.
    pub fn unicast_error(&self) -> Option<f64> {
        rel_err(self.model_unicast, self.sim_unicast)
    }

    /// Relative model error on multicast latency.
    pub fn multicast_error(&self) -> Option<f64> {
        rel_err(self.model_multicast, self.sim_multicast)
    }
}

fn rel_err(model: f64, sim: f64) -> Option<f64> {
    (model.is_finite() && sim.is_finite() && sim > 0.0).then(|| (model - sim).abs() / sim)
}

/// Complete results of one scenario run: the spec that produced them, the
/// aggregated latency curve and the full per-replicate simulator output.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioResult {
    /// The scenario exactly as executed.
    pub scenario: Scenario,
    /// Aggregated model/simulation curve, one entry per sweep rate.
    pub points: Vec<PointResult>,
    /// Full simulator output, `sims[point][replicate]` — histograms,
    /// per-source latencies, conservation counters, utilisation.
    pub sims: Vec<Vec<SimResults>>,
}

impl ScenarioResult {
    /// Render the latency curve as a table (one row per rate), in the
    /// format of the paper's figure panels.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "rate",
            "model_uni",
            "sim_uni",
            "err_uni%",
            "model_mc",
            "sim_mc",
            "mc_ci95",
            "err_mc%",
            "sim_sat",
        ]);
        for p in &self.points {
            t.push_row(vec![
                format!("{:.5}", p.rate),
                fmt_latency(p.model_unicast),
                fmt_latency(p.sim_unicast),
                p.unicast_error()
                    .map(|e| format!("{:.1}", e * 100.0))
                    .unwrap_or_else(|| "-".into()),
                fmt_latency(p.model_multicast),
                fmt_latency(p.sim_multicast),
                if p.sim_multicast_ci.is_finite() {
                    format!("{:.2}", p.sim_multicast_ci)
                } else {
                    "-".into()
                },
                p.multicast_error()
                    .map(|e| format!("{:.1}", e * 100.0))
                    .unwrap_or_else(|| "-".into()),
                if p.sim_saturated { "yes" } else { "no" }.into(),
            ]);
        }
        t
    }

    /// Render the tail-latency curve as a table (one row per rate): the
    /// streaming-histogram quantiles of the primary latency population
    /// (multicast completion for open-loop scenarios, request completion
    /// for closed-loop), merged across replicates. Kept separate from
    /// [`ScenarioResult::table`], whose column set is golden-locked.
    pub fn quantiles_table(&self) -> Table {
        let mut t = Table::new(vec!["rate", "sim_mean", "p50", "p95", "p99", "sim_sat"]);
        for p in &self.points {
            t.push_row(vec![
                format!("{:.5}", p.rate),
                fmt_latency(p.sim_multicast),
                fmt_latency(p.sim_p50),
                fmt_latency(p.sim_p95),
                fmt_latency(p.sim_p99),
                if p.sim_saturated { "yes" } else { "no" }.into(),
            ]);
        }
        t
    }

    /// Render the engine-counter curve as a table (one row per rate):
    /// the event engine's internal work counters, summed over the
    /// point's replicates. Cycle-engine replicates contribute only
    /// `sim_cycles` (their other counters are structurally zero).
    pub fn engine_table(&self) -> Table {
        let mut t = Table::new(vec![
            "rate",
            "sim_cycles",
            "events",
            "stall_fixpoints",
            "flights",
            "flight_cycles",
            "coasts",
            "coast_moves",
        ]);
        for (p, sims) in self.points.iter().zip(&self.sims) {
            let sum = |f: &dyn Fn(&SimResults) -> u64| sims.iter().map(f).sum::<u64>();
            t.push_row(vec![
                format!("{:.5}", p.rate),
                sum(&|r| r.engine.simulated_cycles).to_string(),
                sum(&|r| r.engine.events_popped).to_string(),
                sum(&|r| r.engine.stall_fixpoints).to_string(),
                sum(&|r| r.engine.flights).to_string(),
                sum(&|r| r.engine.flight_cycles).to_string(),
                sum(&|r| r.engine.coasts).to_string(),
                sum(&|r| r.engine.coast_moves).to_string(),
            ]);
        }
        t
    }

    /// One-paragraph run accounting for terminal output: job counts,
    /// cache hits/misses and total wall-clock. This is the only sink
    /// that reports wall time — the CSV/JSON tables stay byte-identical
    /// across hosts and thread counts.
    pub fn summary(&self) -> String {
        let hits: u64 = self.points.iter().map(|p| p.cache_hits).sum();
        let misses: u64 = self.points.iter().map(|p| p.cache_misses).sum();
        let wall_ms: f64 = self.points.iter().map(|p| p.wall_ms).sum();
        format!(
            "{}: {} points x {} replicates, {} cached / {} simulated, {:.1} ms sim wall-clock",
            self.scenario.name,
            self.points.len(),
            self.scenario.replicates,
            hits,
            misses,
            wall_ms
        )
    }

    /// The latency curve as CSV.
    pub fn to_csv(&self) -> String {
        self.table().to_csv()
    }

    /// The full result (scenario spec + curve + simulator detail) as
    /// pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Write the JSON sink as `<dir>/<name>.json`, creating `dir` if
    /// needed.
    pub fn write_json(&self, dir: impl AsRef<Path>) -> Result<PathBuf> {
        self.write_named(dir, ".json", &self.to_json())
    }

    /// Write the tail-latency CSV as `<dir>/<name>-quantiles.csv`.
    pub fn write_quantiles_csv(&self, dir: impl AsRef<Path>) -> Result<PathBuf> {
        self.write_named(dir, "-quantiles.csv", &self.quantiles_table().to_csv())
    }

    /// Write the engine-counter CSV as `<dir>/<name>-engine.csv`.
    pub fn write_engine_csv(&self, dir: impl AsRef<Path>) -> Result<PathBuf> {
        self.write_named(dir, "-engine.csv", &self.engine_table().to_csv())
    }

    fn write_named(&self, dir: impl AsRef<Path>, suffix: &str, contents: &str) -> Result<PathBuf> {
        std::fs::create_dir_all(dir.as_ref())?;
        let path = dir.as_ref().join(format!("{}{suffix}", self.scenario.name));
        std::fs::write(&path, contents)?;
        Ok(path)
    }
}

type ProgressFn = dyn Fn(&Progress) + Send + Sync;

// FNV-1a-64: small, dependency-free, stable across platforms — the cache
// key only needs collision resistance against *accidental* spec overlap.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Version word of the cached [`SimResults`] entries, folded into every
/// cache key. Bump on any change to engine semantics or `SimResults`
/// shape, so entries written by an older build are never served.
///
/// 1: `SimResults::multicast_hist` removed.
/// 2: `EngineCounters::{flights, flight_cycles}` added.
/// 3: an empty latency population reads mean `NaN`, not 0.
/// 4: stamped quantiles and the per-stream population removed; no key
///    of a cached entry has a default any more.
/// 5: `EngineCounters::{coasts, coast_moves}` added.
/// 6: the streaming-span cycle count left `EngineCounters`.
const CACHE_SCHEMA: u32 = 6;

/// The scenario's share of a cache key: its canonical JSON with the
/// display name cleared, so renaming an experiment never invalidates
/// its cache.
fn cache_spec(sc: &Scenario) -> String {
    let mut keyed = sc.clone();
    keyed.name = String::new();
    keyed.to_json()
}

/// Content address of one `(scenario, rate, replicate)` simulation job
/// under cache schema `schema` (the Runner passes [`CACHE_SCHEMA`]);
/// `spec_json` is the scenario's [`cache_spec`].
fn point_key(schema: u32, spec_json: &str, rate: f64, rep: u32) -> u64 {
    let h = fnv1a(FNV_OFFSET, &schema.to_le_bytes());
    let h = fnv1a(h, spec_json.as_bytes());
    let h = fnv1a(h, &rate.to_bits().to_le_bytes());
    fnv1a(h, &rep.to_le_bytes())
}

/// Executes [`Scenario`]s. Construction is cheap; a runner holds no
/// scenario state and can be reused across scenarios.
#[derive(Default)]
pub struct Runner {
    threads: usize,
    progress: Option<Arc<ProgressFn>>,
    cache: Option<PathBuf>,
}

impl Runner {
    /// A runner using every available core and no progress reporting.
    pub fn new() -> Self {
        Runner::default()
    }

    /// Use up to `threads` workers (0 = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Content-addressed result cache: store every simulated point in
    /// `dir` keyed by FNV-1a-64 over (cache schema, scenario spec, rate,
    /// replicate) and skip the simulation on re-runs that hit. `None`
    /// disables (the `noc-bench` exhibits' `--no-cache`). The model
    /// overlay is never cached: it is cheap, deterministic and
    /// re-evaluated every run.
    pub fn cache(mut self, dir: Option<PathBuf>) -> Self {
        self.cache = dir;
        self
    }

    /// Install a progress callback, invoked from worker threads once per
    /// completed `(rate, replicate)` job.
    pub fn on_progress(mut self, f: impl Fn(&Progress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Execute a scenario end-to-end.
    pub fn run(&self, sc: &Scenario) -> Result<ScenarioResult> {
        sc.validate()?;
        let (topo, proto) = sc.materialize()?;
        self.run_on(sc, topo.as_ref(), &proto)
    }

    /// [`run`](Self::run) on the scenario's topology and workload
    /// prototype, already built.
    fn run_on(
        &self,
        sc: &Scenario,
        topo: &dyn Topology,
        proto: &Workload,
    ) -> Result<ScenarioResult> {
        let model_opts = sc.model.unwrap_or_default();
        let closed = sc.workload.closed_loop;
        // The routes depend on (topology, destination sets, routing), not
        // on the rate: one walk serves the saturation search and both
        // overlays of every point, shared read-only by the workers. Made
        // on first use, so never for a closed loop or an overlay-less
        // scenario at absolute rates.
        let routed = LazyLock::new(|| RoutedLoads::walk(topo, proto, &model_opts));
        // Closed-loop runs have no generation rate to sweep: validation
        // pinned the spec to the single placeholder 0.0, which never
        // resolves through a saturation model.
        let rates: Vec<f64> = if closed.is_some() {
            vec![0.0]
        } else {
            let sweep = sc
                .sweep
                .resolve_with(|| saturation_anchor(topo, proto, model_opts.backend, &routed))?;
            for &rate in sweep.rates() {
                if rate >= 1.0 {
                    return Err(Error::InvalidScenario(format!(
                        "resolved sweep rate {rate} is not below 1 message/node/cycle"
                    )));
                }
            }
            sweep.rates().to_vec()
        };

        // One plan for the whole sweep: unicast paths, multicast streams
        // and absorb schedules depend only on (topology, destination sets).
        let plan = SimPlan::build(topo, proto)?;

        let cache_base: Option<(&Path, String)> = match &self.cache {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                Some((dir.as_path(), cache_spec(sc)))
            }
            None => None,
        };

        let jobs: Vec<(f64, u32)> = rates
            .iter()
            .flat_map(|&rate| (0..sc.replicates).map(move |rep| (rate, rep)))
            .collect();
        let total = jobs.len();
        let completed = AtomicUsize::new(0);

        let samples = parallel_map(&jobs, effective_threads(self.threads), |&(rate, rep)| {
            let wl = proto.at_rate(rate)?;
            // The overlay is rate- but not replicate-dependent: evaluate
            // it once, on the first replicate. The selected backend gives
            // the mean prediction; the network-calculus backend is
            // additionally evaluated for the worst-case bound (shared
            // when it *is* the selected backend). Closed-loop runs skip
            // the overlay entirely: the model has no notion of
            // delivery-triggered injections.
            let nan2 = (f64::NAN, f64::NAN);
            let (model, bound) = match sc.model {
                Some(mo) if rep == 0 && closed.is_none() => {
                    let eval = |b: &dyn ModelBackend| {
                        let routed = routed.as_ref().ok();
                        let outcome = routed.and_then(|r| b.evaluate_over(r, rate).ok());
                        outcome.map_or(nan2, |p| (p.unicast_latency, p.multicast_latency))
                    };
                    let model = eval(mo.backend.backend());
                    let bound = if mo.backend == BackendSpec::NetworkCalculus {
                        model
                    } else {
                        eval(&NetworkCalculusBackend)
                    };
                    (model, bound)
                }
                _ => (nan2, nan2),
            };
            let mut cfg = sc.sim;
            cfg.seed = sc.seed.wrapping_add(rep as u64);
            let cache_path = cache_base.as_ref().map(|(dir, json)| {
                let key = point_key(CACHE_SCHEMA, json, rate, rep);
                dir.join(format!("{key:016x}.json"))
            });
            // A hit must parse back into SimResults; a corrupt or
            // truncated file falls through to recomputation (and is then
            // overwritten with a fresh copy).
            let t0 = Instant::now();
            let cached: Option<SimResults> = cache_path
                .as_ref()
                .and_then(|p| std::fs::read_to_string(p).ok())
                .and_then(|s| serde::json::from_str(&s).ok());
            let cache_hit = cached.is_some();
            let res = match cached {
                Some(res) => res,
                None => {
                    let mut engine = build_engine_with_plan(topo, &wl, cfg, Arc::clone(&plan));
                    if let Some(spec) = &closed {
                        engine.install_closed_loop(spec, cfg.seed);
                    }
                    let res = engine.run();
                    if let Some(p) = &cache_path {
                        // Best-effort: a failed cache write must not fail
                        // the run that produced the result.
                        let _ = std::fs::write(p, serde::json::to_string_pretty(&res));
                    }
                    res
                }
            };
            let wall_ns = t0.elapsed().as_nanos() as u64;
            // The routing is deadlock-free by construction; a watchdog
            // trip is a broken run, never a sample to average.
            if res.deadlocked {
                return Err(Error::Deadlock {
                    scenario: sc.name.clone(),
                    rate,
                    replicate: rep,
                });
            }
            if let Some(cb) = &self.progress {
                cb(&Progress {
                    scenario: sc.name.clone(),
                    completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                    total,
                    rate,
                    replicate: rep,
                });
            }
            Ok::<_, Error>(JobSample {
                model,
                bound,
                res,
                wall_ns,
                cache_hit,
            })
        });

        let mut flat = Vec::with_capacity(samples.len());
        for s in samples {
            flat.push(s?);
        }

        let reps = sc.replicates as usize;
        // Overlays evaluated outside the selected backend's assumption
        // domain (e.g. M/G/1 under bursty traffic or `Multipath`/
        // `UnicastTree` streams) are annotated as out-of-domain. A
        // closed-loop run is categorically outside every backend: the
        // model's Poisson sources do not exist.
        let model_applicable =
            closed.is_none() && model_opts.backend.backend().applicable(topo, proto);
        let mut points = Vec::with_capacity(rates.len());
        let mut sims: Vec<Vec<SimResults>> = Vec::with_capacity(rates.len());
        for (i, &rate) in rates.iter().enumerate() {
            let group = &flat[i * reps..(i + 1) * reps];
            points.push(aggregate(rate, group, model_applicable));
            sims.push(group.iter().map(|s| s.res.clone()).collect());
        }

        Ok(ScenarioResult {
            scenario: sc.clone(),
            points,
            sims,
        })
    }

    /// Measure the latency of one isolated multicast operation from
    /// `source` on an otherwise idle network described by `sc` (the
    /// sweep is ignored; the scenario's multicast pattern defines the
    /// operation).
    pub fn isolated_multicast(&self, sc: &Scenario, source: NodeId) -> Result<u64> {
        sc.validate()?;
        let (topo, proto) = sc.materialize()?;
        let idle = proto.at_rate(0.0)?;
        let plan = SimPlan::build(topo.as_ref(), &idle)?;
        let mut cfg = sc.sim;
        cfg.seed = sc.seed;
        let mut engine = build_engine_with_plan(topo.as_ref(), &idle, cfg, plan);
        Ok(engine.measure_isolated_multicast(source))
    }
}

/// One completed `(rate, replicate)` job: the analytical overlays
/// (evaluated on replicate 0 only, `NaN` elsewhere) and the simulator
/// output.
struct JobSample {
    /// Selected-backend mean prediction `(unicast, multicast)`.
    model: (f64, f64),
    /// Network-calculus worst-case bound `(unicast, multicast)`.
    bound: (f64, f64),
    res: SimResults,
    /// Wall-clock of the cached-or-simulated block, nanoseconds.
    wall_ns: u64,
    /// Did the result-cache serve this job?
    cache_hit: bool,
}

impl std::fmt::Debug for JobSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSample")
            .field("model", &self.model)
            .field("bound", &self.bound)
            .finish_non_exhaustive()
    }
}

/// Merge the replicates' primary latency histograms — request completion
/// for closed-loop runs, multicast completion otherwise — into one
/// population, so quantiles are taken over the pooled samples (quantiles,
/// unlike means, do not average across replicates).
fn merged_hist(group: &[JobSample]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for s in group {
        match &s.res.closed_loop {
            Some(cl) => h.merge(&cl.completion_hist),
            None => h.merge(&s.res.latency_hists.multicast),
        }
    }
    h
}

/// One population's mean and 95% CI over the replicates that sampled it
/// (`NaN` when none did). A single such replicate passes through exactly
/// (no re-aggregation); `n` of them report the across-replicate mean with
/// a Student-t CI over their means, `t(n − 1)·s/√n`.
fn across(group: &[JobSample], stats: impl Fn(&SimResults) -> &LatencyStats) -> (f64, f64) {
    let sampled: Vec<&LatencyStats> = group
        .iter()
        .map(|s| stats(&s.res))
        .filter(|st| st.count > 0)
        .collect();
    match sampled[..] {
        [] => (f64::NAN, f64::NAN),
        [one] => (one.mean, one.ci95),
        _ => {
            let n = sampled.len() as f64;
            let mean = sampled.iter().map(|st| st.mean).sum::<f64>() / n;
            let var = sampled
                .iter()
                .map(|st| (st.mean - mean).powi(2))
                .sum::<f64>()
                / (n - 1.0);
            (mean, student_t975(n as u64 - 1) * (var / n).sqrt())
        }
    }
}

/// Collapse one sweep rate's replicates into a [`PointResult`]: means and
/// the multicast CI as [`across`] takes them, quantiles from the *pooled*
/// latency histogram, and the cache/wall accounting summed over the group.
fn aggregate(rate: f64, group: &[JobSample], model_applicable: bool) -> PointResult {
    let first = &group[0];
    let hist = merged_hist(group);
    let cache_hits = group.iter().filter(|s| s.cache_hit).count() as u64;
    let (sim_unicast, _) = across(group, |r| &r.unicast);
    let (sim_multicast, sim_multicast_ci) = across(group, |r| &r.multicast);
    PointResult {
        rate,
        model_unicast: first.model.0,
        model_multicast: first.model.1,
        bound_unicast: first.bound.0,
        bound_multicast: first.bound.1,
        model_applicable,
        sim_unicast,
        sim_multicast,
        sim_multicast_ci,
        sim_p50: hist.p50(),
        sim_p95: hist.p95(),
        sim_p99: hist.p99(),
        cache_hits,
        cache_misses: group.len() as u64 - cache_hits,
        wall_ms: group.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e6,
        sim_saturated: group.iter().any(|s| s.res.saturated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MulticastPattern, SweepSpec, WorkloadSpec};
    use noc_sim::SimConfig;
    use noc_topology::TopologySpec;
    use std::sync::atomic::AtomicU32;

    fn quick_scenario() -> Scenario {
        Scenario::new(
            "runner-test",
            TopologySpec::Quarc { n: 16 },
            WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 4 }),
            SweepSpec::Explicit {
                rates: vec![0.002, 0.004],
            },
        )
        .with_sim(SimConfig::quick(3))
        .with_seed(3)
    }

    #[test]
    fn runs_a_scenario_end_to_end() {
        let sc = quick_scenario();
        let res = Runner::new().threads(2).run(&sc).expect("scenario runs");
        assert_eq!(res.points.len(), 2);
        assert_eq!(res.sims.len(), 2);
        for p in &res.points {
            assert!(!p.sim_saturated);
            let e = p.multicast_error().expect("both sides finite");
            assert!(e < 0.15, "model within 15% at low load, got {e}");
            // The streaming quantiles ride along on every point, ordered
            // and bracketing the multicast population sensibly.
            assert!(p.sim_p50.is_finite() && p.sim_p99.is_finite());
            assert!(p.sim_p50 <= p.sim_p95 && p.sim_p95 <= p.sim_p99);
            assert!(p.sim_p99 >= p.sim_multicast, "P99 dominates the mean");
            assert_eq!(p.cache_hits, 0, "no cache configured");
            assert_eq!(p.cache_misses, 1);
            assert!(p.wall_ms > 0.0);
        }
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), 3);
        let qcsv = res.quantiles_table().to_csv();
        assert_eq!(qcsv.lines().count(), 3, "header + one row per rate");
        assert!(qcsv.starts_with("rate,sim_mean,p50,p95,p99,sim_sat"));
        let ecsv = res.engine_table().to_csv();
        assert_eq!(ecsv.lines().count(), 3);
        assert!(ecsv
            .lines()
            .next()
            .unwrap()
            .ends_with("stall_fixpoints,flights,flight_cycles,coasts,coast_moves"));
        let summary = res.summary();
        assert!(summary.contains("0 cached / 2 simulated"), "{summary}");
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let sc = quick_scenario();
        let a = Runner::new().threads(1).run(&sc).unwrap();
        let b = Runner::new().threads(4).run(&sc).unwrap();
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn hoisted_overlays_are_the_per_point_evaluations() {
        // The Runner walks the routes once per scenario. Every overlay and
        // every resolved rate must be, bit for bit, what the backends
        // answer when asked per point, each with a walk of its own.
        use crate::harness::{default_panels, Pattern};
        use crate::scenario::SATURATION_TOL;
        use noc_workloads::RateSweep;
        use quarc_core::MgOneBackend;
        for panel in default_panels(Pattern::Random, 42) {
            let sc = panel.scenario(3, SimConfig::quick(42));
            let (topo, proto) = sc.materialize().unwrap();
            let mo = sc.model.expect("figure panels carry the overlay");
            let bits = |b: &dyn ModelBackend, wl: &noc_workloads::Workload| {
                let p = b.evaluate(topo.as_ref(), wl, &mo);
                p.map_or([f64::NAN.to_bits(); 2], |p| {
                    [p.unicast_latency.to_bits(), p.multicast_latency.to_bits()]
                })
            };
            let horizon =
                MgOneBackend.max_sustainable_rate(topo.as_ref(), &proto, &mo, SATURATION_TOL);
            let by_hand = RateSweep::linear(0.15 * horizon, 1.02 * horizon, 3).unwrap();
            for threads in [1, 4] {
                let res = Runner::new().threads(threads).run(&sc).unwrap();
                let case = format!("{} on {threads} threads", sc.name);
                assert_eq!(res.points.len(), 3, "{case}");
                for (p, &rate) in res.points.iter().zip(by_hand.rates()) {
                    assert_eq!(p.rate.to_bits(), rate.to_bits(), "{case}");
                    let wl = proto.at_rate(rate).unwrap();
                    assert_eq!(
                        [p.model_unicast.to_bits(), p.model_multicast.to_bits()],
                        bits(&MgOneBackend, &wl),
                        "{case}: mean at {rate}"
                    );
                    assert_eq!(
                        [p.bound_unicast.to_bits(), p.bound_multicast.to_bits()],
                        bits(&NetworkCalculusBackend, &wl),
                        "{case}: bound at {rate}"
                    );
                }
            }
        }
    }

    /// `inner`, counting the unicast routes and multicast stream tables
    /// asked of it.
    struct Counting<'a> {
        inner: &'a dyn Topology,
        routes: AtomicUsize,
        streams: AtomicUsize,
    }

    impl Counting<'_> {
        /// `(unicast_path calls, multicast_streams calls)` since the last
        /// take.
        fn take(&self) -> (usize, usize) {
            (
                self.routes.swap(0, Ordering::Relaxed),
                self.streams.swap(0, Ordering::Relaxed),
            )
        }
    }

    impl Topology for Counting<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn network(&self) -> &noc_topology::Network {
            self.inner.network()
        }
        fn port_for(&self, src: NodeId, dst: NodeId) -> noc_topology::PortId {
            self.inner.port_for(src, dst)
        }
        fn unicast_path(&self, src: NodeId, dst: NodeId) -> noc_topology::Path {
            self.routes.fetch_add(1, Ordering::Relaxed);
            self.inner.unicast_path(src, dst)
        }
        fn quadrant(&self, src: NodeId, port: noc_topology::PortId) -> Vec<NodeId> {
            self.inner.quadrant(src, port)
        }
        fn multicast_streams(
            &self,
            src: NodeId,
            targets: &[NodeId],
        ) -> Vec<noc_topology::MulticastStream> {
            self.streams.fetch_add(1, Ordering::Relaxed);
            self.inner.multicast_streams(src, targets)
        }
        fn diameter(&self) -> usize {
            self.inner.diameter()
        }
        fn linear_label(&self, node: NodeId) -> usize {
            self.inner.linear_label(node)
        }
        fn has_linear_order(&self) -> bool {
            self.inner.has_linear_order()
        }
        fn concurrent_multicast(&self) -> bool {
            self.inner.concurrent_multicast()
        }
        fn translate(
            &self,
            c: noc_topology::ChannelId,
            by: NodeId,
        ) -> Option<noc_topology::ChannelId> {
            self.inner.translate(c, by)
        }
    }

    #[test]
    fn the_runner_walks_each_scenario_once() {
        // One walk serves the saturation search and both overlays of every
        // point, on every worker: beyond what the simulation plan asks, a
        // Quarc figure panel costs node 0's N - 1 uniform routes (the
        // topology's rotation maps them onto every source) and one stream
        // table per source. A walk per point or per backend would multiply
        // both.
        use crate::harness::{default_panels, Pattern};
        let sim = SimConfig {
            measure_cycles: 1_000,
            ..SimConfig::quick(42)
        };
        for panel in default_panels(Pattern::Random, 42) {
            let sc = panel.scenario(4, sim);
            let (topo, proto) = sc.materialize().unwrap();
            let n = topo.num_nodes();
            let counting = Counting {
                inner: topo.as_ref(),
                routes: AtomicUsize::new(0),
                streams: AtomicUsize::new(0),
            };
            SimPlan::build(&counting, &proto).unwrap();
            let (plan_routes, plan_streams) = counting.take();
            let res = Runner::new().threads(2).run_on(&sc, &counting, &proto);
            assert!(res.unwrap().points[0].model_multicast.is_finite());
            assert_eq!(
                counting.take(),
                (plan_routes + n - 1, plan_streams + n),
                "{}",
                sc.name
            );
        }
    }

    #[test]
    fn progress_callback_sees_every_job() {
        let sc = quick_scenario().with_replicates(2);
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        let res = Runner::new()
            .threads(2)
            .on_progress(move |p| {
                h.fetch_add(1, Ordering::Relaxed);
                assert_eq!(p.total, 4);
                assert_eq!(p.scenario, "runner-test");
            })
            .run(&sc)
            .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        assert_eq!(res.sims[0].len(), 2, "both replicates retained");
    }

    #[test]
    fn three_replicates_take_the_t_quantile_of_two_degrees_of_freedom() {
        let res = Runner::new()
            .run(&quick_scenario().with_replicates(3))
            .unwrap();
        for (p, sims) in res.points.iter().zip(&res.sims) {
            let means: Vec<f64> = sims.iter().map(|s| s.multicast.mean).collect();
            let mean = means.iter().sum::<f64>() / 3.0;
            let s = (means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / 2.0).sqrt();
            let want = 4.302653 * s / 3f64.sqrt();
            let ci = p.sim_multicast_ci;
            assert!((ci - want).abs() < 1e-9 * want, "ci {ci}, t(2)·s/√3 {want}");
        }
    }

    #[test]
    fn replicates_tighten_the_estimate_and_flag_any_saturation() {
        let sc = quick_scenario().with_replicates(3);
        let res = Runner::new().threads(3).run(&sc).unwrap();
        for (p, sims) in res.points.iter().zip(&res.sims) {
            assert_eq!(sims.len(), 3);
            let manual: f64 = sims.iter().map(|s| s.multicast.mean).sum::<f64>() / 3.0;
            assert!((p.sim_multicast - manual).abs() < 1e-12);
            assert!(p.sim_multicast_ci.is_finite());
        }
        // Distinct replicate seeds must yield distinct runs.
        assert_ne!(
            res.sims[0][0].multicast.mean, res.sims[0][1].multicast.mean,
            "replicates must not repeat the same stream"
        );
    }

    #[test]
    fn a_replicate_without_samples_does_not_blank_its_point() {
        // So few multicasts at this rate that one replicate tags none.
        let mut sc = quick_scenario().with_replicates(3).with_seed(42);
        sc.sweep = SweepSpec::Explicit {
            rates: vec![0.0002],
        };
        let res = Runner::new().threads(3).run(&sc).unwrap();
        let (p, sims) = (&res.points[0], &res.sims[0]);
        let sampled: Vec<f64> = sims
            .iter()
            .filter(|s| s.multicast.count > 0)
            .map(|s| s.multicast.mean)
            .collect();
        assert_eq!(sampled.len(), 2, "one replicate tags none");
        assert_eq!(p.sim_multicast, sampled.iter().sum::<f64>() / 2.0);
        assert!(p.sim_multicast_ci.is_finite() && p.sim_unicast.is_finite());
    }

    #[test]
    fn model_overlay_is_flagged_under_non_poisson_traffic() {
        use noc_workloads::TrafficSpec;
        let sc = quick_scenario();
        let res = Runner::new().run(&sc).unwrap();
        assert!(res.points.iter().all(|p| p.model_applicable));

        let mut sc = quick_scenario();
        sc.workload.traffic = TrafficSpec::OnOff {
            burst_len: 8.0,
            peak_rate: 0.2,
        };
        let res = Runner::new().run(&sc).unwrap();
        for p in &res.points {
            assert!(!p.model_applicable, "bursty traffic is outside the model");
            // The overlay is still evaluated — divergence is the point.
            assert!(p.model_multicast.is_finite());
        }
    }

    #[test]
    fn calculus_bound_dominates_simulation() {
        let sc = quick_scenario();
        let res = Runner::new().run(&sc).unwrap();
        let finite = res
            .points
            .iter()
            .filter(|p| p.bound_multicast.is_finite())
            .count();
        assert!(finite >= 1, "some point must carry a finite bound");
        for p in &res.points {
            if !p.sim_saturated {
                if p.bound_multicast.is_finite() {
                    assert!(
                        p.bound_multicast >= p.sim_multicast,
                        "rate {}: bound {} below simulated mean {}",
                        p.rate,
                        p.bound_multicast,
                        p.sim_multicast
                    );
                }
                if p.bound_unicast.is_finite() {
                    assert!(p.bound_unicast >= p.sim_unicast);
                }
            }
        }
    }

    #[test]
    fn nc_backend_anchors_multipath_saturation_sweeps() {
        use noc_topology::RoutingSpec;
        use quarc_core::{BackendSpec, ModelOptions};
        // Multipath + saturation-relative sweep: the M/G/1 anchor is
        // inapplicable, so resolve() must re-route to the calculus
        // backend — whose anchored fractions stay below real saturation.
        let mut sc = quick_scenario();
        sc.workload.routing = RoutingSpec::Multipath;
        sc.model = Some(ModelOptions {
            backend: BackendSpec::NetworkCalculus,
            ..ModelOptions::default()
        });
        sc.sweep = SweepSpec::SaturationFractions {
            fractions: vec![0.5, 0.9],
        };
        let res = Runner::new().run(&sc).unwrap();
        assert_eq!(res.points.len(), 2);
        for p in &res.points {
            assert!(p.model_applicable, "the calculus backend always applies");
            assert!(
                p.model_multicast.is_finite(),
                "every point carries a finite prediction at rate {}",
                p.rate
            );
            assert_eq!(
                p.model_multicast, p.bound_multicast,
                "selected backend IS the bound backend — evaluated once"
            );
            assert!(!p.sim_saturated, "calculus-anchored rates stay stable");
        }
    }

    #[test]
    fn unrealizable_sweep_rates_surface_as_typed_errors() {
        use noc_workloads::TrafficSpec;
        // A swept rate at/above the on/off peak rate cannot be realized.
        let mut sc = quick_scenario();
        sc.workload.traffic = TrafficSpec::OnOff {
            burst_len: 4.0,
            peak_rate: 0.003,
        };
        assert!(matches!(
            Runner::new().run(&sc),
            Err(Error::Workload(noc_workloads::WorkloadError::Traffic(_)))
        ));
    }

    #[test]
    fn invalid_scenarios_error_not_panic() {
        let mut sc = quick_scenario();
        sc.sweep = SweepSpec::Explicit { rates: vec![1.5] };
        assert!(matches!(
            Runner::new().run(&sc),
            Err(Error::InvalidScenario(_))
        ));

        let mut sc = quick_scenario();
        sc.topology = TopologySpec::Quarc { n: 7 };
        assert!(matches!(Runner::new().run(&sc), Err(Error::Topology(_))));
    }

    #[test]
    fn closed_loop_scenarios_run_without_model_overlay() {
        use noc_app::ClosedLoopSpec;
        // Default model options present — the runner must skip the
        // overlay anyway and stamp the point out-of-domain.
        let sc = Scenario::new(
            "closed-runner-test",
            TopologySpec::Quarc { n: 16 },
            WorkloadSpec::new(8, 0.0, MulticastPattern::Random { group: 4 }).with_closed_loop(
                ClosedLoopSpec::Coherence {
                    window: 4,
                    requests: 16,
                    write_fraction: 0.3,
                },
            ),
            SweepSpec::Explicit { rates: vec![0.0] },
        )
        .with_sim(SimConfig::quick(5))
        .with_seed(5);
        let res = Runner::new().run(&sc).expect("closed-loop scenario runs");
        assert_eq!(res.points.len(), 1);
        let p = &res.points[0];
        assert!(!p.model_applicable, "no model covers closed-loop traffic");
        assert!(p.model_multicast.is_nan(), "overlay must not be evaluated");
        assert!(p.bound_multicast.is_nan());
        assert!(p.sim_unicast.is_finite(), "protocol unicasts are measured");
        let cl = res.sims[0][0]
            .closed_loop
            .as_ref()
            .expect("closed-loop summary stamped");
        assert!(cl.quiesced);
        assert_eq!(cl.requests_retired, 16 * 16);
        // Closed-loop points take their quantiles from the request
        // completion-time histogram — P99 must surface in the CSV sink.
        assert!(p.sim_p99.is_finite());
        assert_eq!(cl.completion_hist.count(), 16 * 16);
        let qcsv = res.quantiles_table().to_csv();
        assert_eq!(qcsv.lines().count(), 2);
        assert!(!qcsv.lines().nth(1).unwrap().contains("-,"), "{qcsv}");
    }

    fn scratch_cache_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_round_trips_and_is_actually_read() {
        let dir = scratch_cache_dir("cache-hit");
        let sc = quick_scenario();
        let baseline = Runner::new().run(&sc).unwrap();
        let runner = Runner::new().cache(Some(dir.clone()));
        let first = runner.run(&sc).unwrap();
        assert_eq!(first.to_csv(), baseline.to_csv(), "cache write run agrees");
        assert!(
            first.points.iter().all(|p| p.cache_hits == 0),
            "cold cache: every job simulated"
        );
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 2, "one cache entry per (rate, replicate)");

        // Plant a sentinel inside one cached result: if the re-run
        // really reads the cache, the sentinel surfaces in the output.
        let victim = &files[0];
        let doctored = std::fs::read_to_string(victim)
            .unwrap()
            .replace("\"saturated\": false", "\"saturated\": true");
        std::fs::write(victim, doctored).unwrap();
        let second = runner.run(&sc).unwrap();
        assert!(
            second.points.iter().any(|p| p.sim_saturated),
            "doctored cache entry must surface — points were re-simulated instead"
        );
        assert!(
            second
                .points
                .iter()
                .all(|p| p.cache_hits == 1 && p.cache_misses == 0),
            "warm cache: every job served from disk"
        );
        assert!(second.summary().contains("2 cached / 0 simulated"));

        // A fresh run without the cache is unaffected.
        let clean = Runner::new().run(&sc).unwrap();
        assert_eq!(clean.to_csv(), baseline.to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_are_recomputed_and_rewritten() {
        let dir = scratch_cache_dir("cache-corrupt");
        let sc = quick_scenario();
        let runner = Runner::new().cache(Some(dir.clone()));
        let baseline = runner.run(&sc).unwrap();
        // One entry is not JSON, the other lacks a key (no field of a
        // cached result has a default).
        for (i, entry) in std::fs::read_dir(&dir).unwrap().enumerate() {
            let path = entry.unwrap().path();
            let body = std::fs::read_to_string(&path).unwrap();
            let keyless: Vec<&str> = body
                .lines()
                .filter(|l| !l.contains("\"flights\""))
                .collect();
            let corrupt = [String::from("{ not json"), keyless.join("\n")];
            std::fs::write(path, &corrupt[i % 2]).unwrap();
        }
        let recovered = runner.run(&sc).unwrap();
        assert_eq!(
            recovered.to_csv(),
            baseline.to_csv(),
            "corrupt entries fall through to recomputation"
        );
        for entry in std::fs::read_dir(&dir).unwrap() {
            let body = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            assert!(
                serde::json::from_str::<SimResults>(&body).is_ok() && body.contains("\"flights\""),
                "recomputed points overwrite the corrupt entries"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_keys_separate_seeds_but_ignore_names() {
        let base = quick_scenario();
        let key = |sc: &Scenario, rate, rep| point_key(CACHE_SCHEMA, &cache_spec(sc), rate, rep);
        let renamed = {
            let mut sc = base.clone();
            sc.name = "other-name".into();
            sc
        };
        assert_eq!(
            key(&base, 0.002, 0),
            key(&renamed, 0.002, 0),
            "renaming a scenario must not invalidate its cache"
        );
        assert_ne!(key(&base, 0.002, 0), key(&base, 0.004, 0));
        assert_ne!(key(&base, 0.002, 0), key(&base, 0.002, 1));
        assert_ne!(
            key(&base, 0.002, 0),
            key(&base.clone().with_seed(99), 0.002, 0)
        );
    }

    #[test]
    fn cache_keys_separate_schema_words() {
        let json = quick_scenario().to_json();
        assert_ne!(
            point_key(CACHE_SCHEMA, &json, 0.002, 0),
            point_key(CACHE_SCHEMA + 1, &json, 0.002, 0),
            "a schema bump must orphan every older entry"
        );
    }

    #[test]
    fn deadlocked_replicates_are_typed_errors_not_samples() {
        // The watchdog never fires on the deadlock-free routings, so
        // plant the flag in one cached replicate.
        let dir = scratch_cache_dir("cache-deadlock");
        let sc = quick_scenario().with_replicates(2);
        let runner = Runner::new().cache(Some(dir.clone()));
        runner.run(&sc).expect("healthy run fills the cache");
        let key = point_key(CACHE_SCHEMA, &cache_spec(&sc), 0.004, 1);
        let victim = dir.join(format!("{key:016x}.json"));
        let doctored = std::fs::read_to_string(&victim)
            .unwrap()
            .replace("\"deadlocked\": false", "\"deadlocked\": true");
        std::fs::write(&victim, doctored).unwrap();
        let err = runner
            .run(&sc)
            .expect_err("a deadlocked replicate fails the run");
        assert!(
            matches!(&err, Error::Deadlock { scenario, rate, replicate: 1 }
                if scenario == "runner-test" && *rate == 0.004),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn isolated_multicast_measures_zero_load_broadcast() {
        let sc = Scenario::new(
            "bcast",
            TopologySpec::Quarc { n: 16 },
            WorkloadSpec::new(32, 0.0, MulticastPattern::Broadcast),
            SweepSpec::Explicit { rates: vec![] },
        )
        .with_sim(SimConfig::quick(1))
        .with_seed(1);
        let lat = Runner::new()
            .isolated_multicast(&sc, NodeId(0))
            .expect("idle broadcast");
        // Zero-load: msg + deepest-stream links + 1.
        assert_eq!(lat, 32 + 16 / 4 + 1);
    }
}
