//! Congestion heatmaps and flit traces from the flight recorder.
//!
//! The latency curves of Fig. 6/7 say *how slow* the network gets; this
//! exhibit shows *where*. Each panel sweeps a topology from light load
//! toward its saturation knee with full telemetry enabled — the bounded
//! ring trace sink, the windowed per-link utilization series and the
//! streaming latency histograms — then renders the hottest point as:
//!
//! * an ASCII heatmap of the busiest links (mean | peak utilization),
//! * an SVG time × channel grid (`fig-heatmap-<panel>.svg`),
//! * a Chrome-trace/Perfetto JSON of the captured flit events
//!   (`fig-heatmap-<panel>-trace.json`, loadable in ui.perfetto.dev),
//! * tail-latency (`-quantiles.csv`) and engine-counter (`-engine.csv`)
//!   CSV sinks per scenario.
//!
//! Every emitted trace is checked with
//! [`noc_sim::validate_chrome_trace`] — well-formed JSON, every event
//! phased and timestamped, timestamps monotone — so CI can smoke this
//! exhibit and trust the artifacts.

use super::{emit_json, PANELS};
use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, SweepSpec, WorkloadSpec};
use noc_sim::{chrome_trace, validate_chrome_trace, TelemetrySpec, TrackNames};
use noc_topology::render;

/// The `fig-heatmap` exhibit (see the module docs).
pub fn run(opts: &Options) -> Result<()> {
    println!("== Flight recorder: per-link congestion heatmaps and flit traces ==\n");

    // Full telemetry: a bounded ring trace (the tail of the run is the
    // interesting part once the network is warm) plus utilization
    // windows sized so quick runs still fill several columns.
    let (ring, window) = if opts.quick {
        (1 << 14, 64)
    } else {
        (1 << 16, 256)
    };
    let telemetry = TelemetrySpec::flight_recorder(ring, window);

    let fractions: Vec<f64> = (0..opts.points)
        .map(|i| 0.2 + 0.6 * i as f64 / (opts.points - 1) as f64)
        .collect();

    let runner = opts.runner();
    for (label, topology) in PANELS {
        let sc = opts
            .scenario(
                format!("fig-heatmap-{label}"),
                topology,
                WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 4 }),
                SweepSpec::SaturationFractions {
                    fractions: fractions.clone(),
                },
            )
            .with_sim(opts.sim_config().with_telemetry(telemetry));
        let res = runner.run(&sc)?;

        println!("panel {label}:");
        println!("{}", res.quantiles_table().to_aligned());
        for p in &res.points {
            assert!(
                p.sim_saturated || p.sim_p99.is_finite(),
                "{label}: unsaturated point at rate {} lost its P99",
                p.rate
            );
        }

        // Render the hottest *unsaturated* point: past saturation the
        // series is still valid but the picture is just "everything red".
        let hot = res
            .points
            .iter()
            .rposition(|p| !p.sim_saturated)
            .unwrap_or(res.points.len() - 1);
        let sim = &res.sims[hot][0];
        let topo = sc.materialize()?.0;

        let util = sim
            .util
            .as_ref()
            .expect("telemetry was enabled: utilization series present");
        println!(
            "hottest unsaturated point: rate {:.5}",
            res.points[hot].rate
        );
        println!("{}", render::heatmap_ascii(topo.as_ref(), util, 12));
        let svg_path = opts.write_file(
            &format!("fig-heatmap-{label}.svg"),
            &render::heatmap_svg(topo.as_ref(), util),
        )?;
        println!("wrote {}", svg_path.display());

        let trace = sim
            .trace
            .as_ref()
            .expect("telemetry was enabled: trace captured");
        let net = topo.network();
        let tracks = TrackNames {
            channels: net.channels().iter().map(|c| c.label.clone()).collect(),
            nodes: (0..net.num_nodes()).map(|i| format!("n{i}")).collect(),
        };
        let json = chrome_trace(trace, &tracks);
        let events = validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{label}: emitted trace is malformed: {e}"));
        let trace_path = opts.write_file(&format!("fig-heatmap-{label}-trace.json"), &json)?;
        println!(
            "wrote {} ({events} events, {} dropped by the ring)\n",
            trace_path.display(),
            trace.dropped
        );

        let quantiles = res.write_quantiles_csv(&opts.out)?;
        println!("wrote {}", quantiles.display());
        let engine = res.write_engine_csv(&opts.out)?;
        println!("wrote {}\n", engine.display());
        println!("{}\n", res.summary());
        emit_json(opts, &res)?;
    }
    Ok(())
}
