//! Integration: an independent oracle over the flight-recorder trace.
//!
//! Both engines run one wormhole kernel, so engine-vs-engine
//! agreement says nothing about the kernel itself. This suite
//! does, and shares no code with it: [`replay`] is a pure fold over a
//! `TraceMode::Full` event log plus the channel graph's vc counts, and
//! asserts the invariants Farhi & Gaujal's wormhole model (arXiv
//! 1007.4853) is built on — a channel is held from header grant until
//! the tail has passed, by at most one message per virtual channel:
//!
//! * timestamps never decrease in recording order;
//! * per channel, `grants − releases` stays within `0..=vcs`;
//! * on single-vc channels occupancy spans never overlap, and each
//!   Grant→Release span lasts at least `msg_len` cycles (every flit of the
//!   message crosses the channel, one per cycle);
//! * every generated message was traced entering an injection queue;
//! * at closed-loop quiescence no channel is held.
//!
//! The negative cases hand-mutate a clean log (one `Release` dropped, one
//! span shortened) and require the replay to reject it.

use quarc_noc::prelude::*;
use quarc_noc::topology::ChannelId;

/// Totals of a log that replayed cleanly.
#[derive(Debug)]
struct Replay {
    injects: u64,
    grants: u64,
    releases: u64,
    /// Closed spans on single-vc channels (each length-checked).
    single_vc_spans: u64,
}

/// Replay `log` over channels with `vcs[c]` virtual channels each, for
/// messages of `msg_len` flits. `quiesced` additionally requires every
/// channel to end free. `Err` names the first violated invariant.
fn replay(log: &TraceLog, vcs: &[u8], msg_len: u32, quiesced: bool) -> Result<Replay, String> {
    let mut open = vec![0u8; vcs.len()];
    // Grant cycle of the open span (meaningful on single-vc channels).
    let mut opened_at = vec![0u64; vcs.len()];
    let mut now = 0u64;
    let mut totals = Replay {
        injects: 0,
        grants: 0,
        releases: 0,
        single_vc_spans: 0,
    };
    for (i, ev) in log.events.iter().enumerate() {
        if ev.at < now {
            return Err(format!(
                "event {i}: time runs backwards ({} after {now})",
                ev.at
            ));
        }
        now = ev.at;
        let c = ev.loc as usize;
        match ev.kind {
            TraceEventKind::Inject => totals.injects += 1,
            TraceEventKind::Grant => {
                if open[c] == vcs[c] {
                    return Err(format!(
                        "event {i}: channel {c} granted at cycle {now} with all {} vcs held \
                         (overlapping spans)",
                        vcs[c]
                    ));
                }
                open[c] += 1;
                opened_at[c] = now;
                totals.grants += 1;
            }
            TraceEventKind::Release => {
                if open[c] == 0 {
                    return Err(format!(
                        "event {i}: free channel {c} released at cycle {now}"
                    ));
                }
                if vcs[c] == 1 {
                    if now - opened_at[c] < msg_len as u64 {
                        return Err(format!(
                            "event {i}: channel {c} held {}..{now}, shorter than a \
                             {msg_len}-flit message",
                            opened_at[c]
                        ));
                    }
                    totals.single_vc_spans += 1;
                }
                open[c] -= 1;
                totals.releases += 1;
            }
            TraceEventKind::Absorb | TraceEventKind::OpDone | TraceEventKind::Stall => {}
        }
    }
    if quiesced {
        if let Some(c) = open.iter().position(|&o| o > 0) {
            return Err(format!("channel {c} still held at quiescence"));
        }
        if totals.grants != totals.releases {
            return Err(format!(
                "{} grants but {} releases at quiescence",
                totals.grants, totals.releases
            ));
        }
    }
    Ok(totals)
}

fn vcs_of(topo: &dyn Topology) -> Vec<u8> {
    let net = topo.network();
    (0..net.num_channels() as u32)
        .map(|c| net.vcs_of(ChannelId(c)))
        .collect()
}

/// Run `wl` on `topo` with full tracing on the engine `kind` selects.
fn traced_run(
    kind: EngineKind,
    topo: &dyn Topology,
    wl: &Workload,
    cfg: SimConfig,
    closed: Option<&ClosedLoopSpec>,
) -> SimResults {
    let cfg = cfg
        .with_engine(kind)
        .with_telemetry(TelemetrySpec::off().with_trace(TraceMode::Full));
    let mut sim = Engine::new(topo, wl, cfg);
    if let Some(spec) = closed {
        sim.install_closed_loop(spec, cfg.seed);
    }
    sim.run()
}

/// Replay the run's trace on both engines; returns the event engine's
/// results for run-specific assertions.
fn check_both(
    topo: &dyn Topology,
    wl: &Workload,
    cfg: SimConfig,
    closed: Option<&ClosedLoopSpec>,
    ctx: &str,
) -> SimResults {
    let vcs = vcs_of(topo);
    let mut last = None;
    for kind in [EngineKind::Cycle, EngineKind::EventDriven] {
        let res = traced_run(kind, topo, wl, cfg, closed);
        let log = res.trace.as_ref().expect("full trace captured");
        assert_eq!(log.dropped, 0, "{ctx} {kind:?}: a full trace drops nothing");
        let quiesced = res.closed_loop.as_ref().is_some_and(|cl| cl.quiesced);
        let totals = replay(log, &vcs, wl.msg_len, quiesced)
            .unwrap_or_else(|e| panic!("{ctx} {kind:?}: {e}"));
        assert_eq!(
            totals.injects, res.total_generated,
            "{ctx} {kind:?}: every generated message is traced entering its queue"
        );
        assert!(
            totals.single_vc_spans > 0 && totals.grants > totals.single_vc_spans,
            "{ctx} {kind:?}: the run exercised single- and multi-vc channels"
        );
        last = Some(res);
    }
    last.expect("two engines ran")
}

#[test]
fn unsaturated_quarc_trace_obeys_wormhole_invariants() {
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 3);
    let wl = Workload::new(16, 0.004, 0.05, sets).unwrap();
    let res = check_both(&topo, &wl, SimConfig::quick(7), None, "quarc-16 low load");
    assert!(!res.saturated && res.complete());
}

#[test]
fn saturated_quarc_trace_obeys_wormhole_invariants() {
    // Past the knee every channel is contended: waiters queue behind
    // held cvs and the round-robin rotates vcs, yet no channel may ever
    // exceed its vc count. The run ends on the backlog break with spans
    // still open, which the replay allows (`quiesced = false`).
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 3);
    let wl = Workload::new(16, 0.05, 0.1, sets).unwrap();
    let mut cfg = SimConfig::quick(11);
    cfg.backlog_limit = 400;
    let res = check_both(&topo, &wl, cfg, None, "quarc-16 saturated");
    assert!(res.saturated, "rate 0.05 with 16-flit messages saturates");
}

#[test]
fn mesh_trace_obeys_wormhole_invariants() {
    // A second channel graph: two vc classes on every link (XY unicast,
    // Hamiltonian multicast), single-vc injection and ejection channels.
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(16, 0.006, 0.08, sets).unwrap();
    check_both(&topo, &wl, SimConfig::quick(13), None, "mesh-4x4");
}

#[test]
fn a_ring_that_never_wraps_returns_the_full_trace() {
    // One recorder serves both trace modes, so a ring at or above the
    // full log's length must hand back exactly that log on both engines;
    // a ring that wraps keeps the newest events and counts the rest.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 3);
    let wl = Workload::new(16, 0.004, 0.05, sets).unwrap();
    for kind in [EngineKind::Cycle, EngineKind::EventDriven] {
        let run = |mode| {
            let telemetry = TelemetrySpec::off().with_trace(mode);
            let cfg = SimConfig::quick(7)
                .with_engine(kind)
                .with_telemetry(telemetry);
            let mut sim = Engine::new(&topo, &wl, cfg);
            sim.run().trace.expect("trace captured")
        };
        let full = run(TraceMode::Full);
        let len = full.events.len() as u32;
        assert!(len > 10 && full.dropped == 0, "{kind:?}: {len} events");
        for capacity in [len, 2 * len] {
            let ring = run(TraceMode::Ring { capacity });
            assert_eq!(
                ring, full,
                "{kind:?}: ring of {capacity}, full log of {len}"
            );
        }
        let short = run(TraceMode::Ring { capacity: len - 10 });
        assert_eq!(short.dropped, 10, "{kind:?}");
        assert_eq!(
            short.events,
            full.events[10..],
            "{kind:?}: the newest survive"
        );
    }
}

fn coherence() -> ClosedLoopSpec {
    ClosedLoopSpec::Coherence {
        window: 2,
        requests: 12,
        write_fraction: 0.3,
    }
}

#[test]
fn quiesced_closed_loop_trace_leaves_no_channel_held() {
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 17);
    let wl = Workload::new(8, 0.0, 0.0, sets).unwrap();
    let spec = coherence();
    let res = check_both(&topo, &wl, SimConfig::quick(17), Some(&spec), "coherence");
    let cl = res.closed_loop.as_ref().expect("closed-loop stats");
    assert!(cl.quiesced, "the protocol must quiesce");
    assert_eq!(res.total_generated, res.total_absorbed);
}

/// A clean quiesced log with the vc table and message length it replays
/// under.
fn clean_log() -> (TraceLog, Vec<u8>, u32) {
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 4, 19);
    let wl = Workload::new(8, 0.0, 0.0, sets).unwrap();
    let spec = coherence();
    let res = traced_run(
        EngineKind::EventDriven,
        &topo,
        &wl,
        SimConfig::quick(19),
        Some(&spec),
    );
    let log = res.trace.expect("full trace captured");
    let vcs = vcs_of(&topo);
    replay(&log, &vcs, wl.msg_len, true).expect("the unmutated log is clean");
    (log, vcs, wl.msg_len)
}

#[test]
fn a_dropped_release_is_rejected() {
    // A kernel that forgot to release a channel would pass every
    // engine-vs-engine comparison (both engines run that kernel); the
    // replay sees the next grant land on a held channel, or the channel
    // still held at quiescence.
    let (mut log, vcs, msg_len) = clean_log();
    let victim = log
        .events
        .iter()
        .position(|e| e.kind == TraceEventKind::Release)
        .expect("the run released channels");
    log.events.remove(victim);
    let err = replay(&log, &vcs, msg_len, true).expect_err("a leaked channel must be caught");
    assert!(
        err.contains("overlapping spans") || err.contains("still held"),
        "rejected for the leak itself: {err}"
    );
}

#[test]
fn a_shortened_span_is_rejected() {
    // Move one span's Release up to its Grant's cycle: ordering and
    // open counts stay legal, but the channel was "held" for fewer
    // cycles than the message has flits — a tail that never passed.
    let (mut log, vcs, msg_len) = clean_log();
    let grant = log
        .events
        .iter()
        .position(|e| e.kind == TraceEventKind::Grant && vcs[e.loc as usize] == 1)
        .expect("the run granted single-vc (injection) channels");
    let channel = log.events[grant].loc;
    let release = (grant..log.events.len())
        .find(|&i| log.events[i].kind == TraceEventKind::Release && log.events[i].loc == channel)
        .expect("a quiesced run closes every span");
    let mut early = log.events.remove(release);
    early.at = log.events[grant].at;
    log.events.insert(grant + 1, early);
    let err = replay(&log, &vcs, msg_len, true).expect_err("a cut-short span must be caught");
    assert!(
        err.contains("shorter than"),
        "rejected for the span length: {err}"
    );
}
