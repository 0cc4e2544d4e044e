//! Cycle-precise micro scenarios with hand-derived expected timings,
//! executed against **both** engine kinds through one [`Engine`] type.
//!
//! These tests pin the exact semantics of the wormhole engines: injection
//! serialisation, FIFO link arbitration, blocking duration, virtual-channel
//! bandwidth sharing and multicast/unicast equivalences. Every expected
//! number below is derived by hand from the timing conventions in the
//! crate docs (one flit per channel per cycle, one-cycle credit loop,
//! grants at end of cycle). Each scenario is a trace of arrivals run to
//! completion on the cycle-stepped reference and on the event-driven
//! engine, both traced (bodies stepped or coasting) and untraced (where
//! it can, flown in closed form). The traced runs' absorption and release
//! cycles are checked against the hand-derived timings, and every run
//! must report the same latency summaries, so the zero-load `L + H + 1`
//! exactness (and every contention timing) is a property of the
//! *contract*, not of one implementation or one mechanism.

use noc_sim::{
    record_trace, Engine, EngineKind, SimConfig, TelemetrySpec, TraceEventKind, TraceMode,
};
use noc_topology::{NodeId, Quarc, Topology};
use noc_workloads::{DestinationSets, TraceEntry, TraceKind, TrafficSpec, Workload};

const L: u64 = 8; // message length in flits for these scenarios

/// The cycle the first message of a scenario is generated on.
const G: u64 = 100;

fn fixture(n: usize) -> (Quarc, Workload) {
    let topo = Quarc::new(n).unwrap();
    let sets = DestinationSets::random(&topo, 2, 1);
    let wl = Workload::new(L as u32, 0.0, 0.0, sets).unwrap();
    (topo, wl)
}

/// Node 0's multicast group is `targets`; nobody else multicasts.
fn from_node_0(targets: &[u32]) -> Workload {
    let mut sets = vec![Vec::new(); 16];
    sets[0] = targets.iter().map(|&t| NodeId(t)).collect();
    Workload::new(L as u32, 0.0, 0.0, DestinationSets::explicit(sets)).unwrap()
}

/// Isolated latency over a path with `links` links is `L + links + 1`.
fn isolated(links: u64) -> u64 {
    L + links + 1
}

fn unicast(cycle: u64, src: u32, dst: u32) -> TraceEntry {
    TraceEntry {
        cycle,
        node: src,
        kind: TraceKind::Unicast { dst },
    }
}

fn multicast(cycle: u64, src: u32) -> TraceEntry {
    TraceEntry {
        cycle,
        node: src,
        kind: TraceKind::Multicast,
    }
}

/// What the traced runs recorded, each list sorted `(cycle, location)`.
#[derive(Debug, PartialEq)]
struct Seen {
    /// Tails absorbed, at their node.
    absorbs: Vec<(u64, u32)>,
    /// Multicast operations completed, at their source.
    ops_done: Vec<(u64, u32)>,
    /// Channels released.
    releases: Vec<(u64, u32)>,
}

/// Run `arrivals` over `wl` on the oracle and on the event engine, each
/// traced and untraced, with every arrival tagged; require identical
/// latency summaries from all four runs and identical records from the
/// two traced ones, and return those.
fn run_everywhere(topo: &dyn Topology, wl: &Workload, arrivals: Vec<TraceEntry>) -> Seen {
    let wl = wl.clone().with_traffic(TrafficSpec::trace(arrivals));
    let (mut seen, mut summary) = (None, None);
    for kind in [EngineKind::Cycle, EngineKind::EventDriven] {
        for trace in [TraceMode::Full, TraceMode::Off] {
            let ctx = format!("{kind:?}, trace {trace:?}");
            let cfg = SimConfig {
                warmup_cycles: 0,
                measure_cycles: 1_000,
                ..SimConfig::quick(1)
            };
            let telemetry = TelemetrySpec::off().with_trace(trace);
            let res = Engine::new(topo, &wl, cfg.with_engine(kind).with_telemetry(telemetry)).run();
            assert!(
                res.complete() && !res.saturated,
                "{ctx}: every arrival delivered"
            );
            let stats = [&res.unicast, &res.multicast]
                .map(|s| (s.count, [s.min, s.max, s.mean].map(f64::to_bits)));
            let counts = (stats, res.flit_moves, res.cycles);
            assert_eq!(*summary.get_or_insert(counts), counts, "{ctx}: summaries");
            let Some(log) = &res.trace else { continue };
            let of = |kind: TraceEventKind| {
                let mut events: Vec<(u64, u32)> = log
                    .events
                    .iter()
                    .filter(|ev| ev.kind == kind)
                    .map(|ev| (ev.at, ev.loc))
                    .collect();
                events.sort_unstable();
                events
            };
            let traced = Seen {
                absorbs: of(TraceEventKind::Absorb),
                ops_done: of(TraceEventKind::OpDone),
                releases: of(TraceEventKind::Release),
            };
            match &seen {
                Some(first) => assert_eq!(first, &traced, "{ctx}: traced records"),
                None => seen = Some(traced),
            }
        }
    }
    seen.expect("a traced run")
}

#[test]
fn back_to_back_same_port_serialise_on_the_injection_channel() {
    // Two messages from node 0 to node 2 (clockwise, same port), the
    // second a cycle later. It queues for the injection channel and
    // acquires it when the first's tail leaves its buffer (traverses the
    // first link) at g + L + 1 — the cycle it would have had queued beside
    // the first — so it finishes exactly L + 1 cycles after the first.
    let (topo, wl) = fixture(16);
    let seen = run_everywhere(&topo, &wl, vec![unicast(G, 0, 2), unicast(G + 1, 0, 2)]);
    let t1 = G + isolated(2);
    assert_eq!(t1 - G, 11, "the first message is unobstructed");
    assert_eq!(seen.absorbs, [(t1, 2), (t1 + L + 1, 2)]);
}

#[test]
fn different_ports_of_one_node_do_not_serialise() {
    // Node 0 sends clockwise (to 2) and, a cycle later, counter-clockwise
    // (to 14); the all-port router gives each its own injection channel,
    // so both complete at the isolated latency.
    let (topo, wl) = fixture(16);
    let seen = run_everywhere(&topo, &wl, vec![unicast(G, 0, 2), unicast(G + 1, 0, 14)]);
    assert_eq!(
        seen.absorbs,
        [(G + isolated(2), 2), (G + 1 + isolated(2), 14)]
    );
}

#[test]
fn fifo_arbitration_earlier_request_wins_and_blocks_exactly_l_cycles() {
    // m1: 0 -> 2 needs links cw0, cw1. m2: 1 -> 3 needs links cw1, cw2.
    // Generated the same cycle, m2's header requests cw1 at g+1 (straight
    // from injection) while m1's header requests it at g+2 (after
    // traversing cw0) — FIFO grants m2 first. m1 then waits until m2's
    // tail leaves cw1's buffer, which adds exactly L cycles:
    //   m2 completes at g + L + 3 (isolated),
    //   m1 completes at g + 2L + 3.
    let (topo, wl) = fixture(16);
    let seen = run_everywhere(&topo, &wl, vec![unicast(G, 0, 2), unicast(G, 1, 3)]);
    assert_eq!(
        seen.absorbs,
        [(G + isolated(2), 3), (G + isolated(2) + L, 2)],
        "m2 wins arbitration; m1 blocks for exactly one message drain"
    );
}

#[test]
fn non_overlapping_paths_do_not_interact() {
    // 0 -> 2 (cw links 0,1) and 4 -> 6 (cw links 4,5): disjoint resources.
    let (topo, wl) = fixture(16);
    let seen = run_everywhere(&topo, &wl, vec![unicast(G, 0, 2), unicast(G, 4, 6)]);
    assert_eq!(seen.absorbs, [(G + isolated(2), 2), (G + isolated(2), 6)]);
}

#[test]
fn vc_multiplexing_shares_physical_bandwidth_fairly() {
    // Quarc N=8: m1 goes 7 -> 1 clockwise, crossing the 7->0 dateline, so
    // it rides VC1 on links 7->0 and 0->1. m2 goes 0 -> 2 on VC0 over
    // links 0->1 and 1->2. The physical link 0->1 is shared by the two
    // VCs; round-robin multiplexing interleaves them flit by flit:
    //
    //   m2 flit k crosses 0->1 at g + 2 + 2k (VC0 goes first, rr = 0),
    //   m1 flit k crosses 0->1 at g + 3 + 2k,
    //
    // after which each drains its private downstream channel, so BOTH
    // tails absorb at exactly g + 2L + 2 — unlike strict head-of-line
    // serialisation, which would delay one of them by a full drain.
    let (topo, wl) = fixture(8);
    let seen = run_everywhere(&topo, &wl, vec![unicast(G, 7, 1), unicast(G, 0, 2)]);
    let both = G + 2 * L + 2;
    assert_eq!(seen.absorbs, [(both, 1), (both, 2)]);
    // Both beat strict serialisation (isolated + L = 2L + 3) while paying
    // more than the isolated latency (L + 3).
    assert!(both - G > isolated(2) && both - G < isolated(2) + L);
}

#[test]
fn one_port_spidergon_serialises_at_the_ejection_channel() {
    // Two one-link messages arrive at node 0 from opposite directions
    // (1 -> 0 counter-clockwise, 7 -> 0 clockwise). The one-port Spidergon
    // has a single ejection channel, so the loser of the FIFO arbitration
    // waits a full drain: winner at L + 2, loser at 2L + 2. Both headers
    // request it on one cycle, and same-cycle moves apply in channel
    // order: 7 -> 0's link comes first, so it wins. Each message's link
    // is released as its tail crosses the ejection channel, which tells
    // the winner from the loser. On the all-port Quarc the same scenario
    // does not contend at all — the architectural difference the paper's
    // Fig. 1 illustrates.
    use noc_topology::Spidergon;
    let spid = Spidergon::new(8).unwrap();
    let sets = DestinationSets::random(&spid, 2, 1);
    let wl = Workload::new(L as u32, 0.0, 0.0, sets).unwrap();
    let seen = run_everywhere(&spid, &wl, vec![unicast(G, 1, 0), unicast(G, 7, 0)]);
    let (winner, loser) = (G + L + 2, G + 2 * L + 2);
    assert_eq!(seen.absorbs, [(winner, 0), (loser, 0)]);
    let link = |src| spid.unicast_path(NodeId(src), NodeId(0)).hops[1].channel.0;
    assert!(seen.releases.contains(&(winner, link(7))), "7 -> 0 wins");
    assert!(seen.releases.contains(&(loser, link(1))), "1 -> 0 waits");

    // Same scenario on the Quarc: distinct ejection channels per input
    // direction, no contention.
    let (quarc, qwl) = fixture(8);
    let seen = run_everywhere(&quarc, &qwl, vec![unicast(G, 1, 0), unicast(G, 7, 0)]);
    assert_eq!(seen.absorbs, [(G + L + 2, 0), (G + L + 2, 0)]);
}

#[test]
fn single_target_multicast_times_equal_unicast() {
    let (topo, wl) = fixture(16);
    for dst in [1u32, 4, 8, 5, 11, 12] {
        let mc = run_everywhere(&topo, &from_node_0(&[dst]), vec![multicast(G, 0)]);
        let uc = run_everywhere(&topo, &wl, vec![unicast(G, 0, dst)]);
        assert_eq!(mc.absorbs, uc.absorbs, "single-target multicast to {dst}");
        assert_eq!(mc.ops_done, [(uc.absorbs[0].0, 0)], "to {dst}");
    }
}

#[test]
fn multicast_completion_is_the_slowest_stream() {
    // Targets at clockwise distance 1 and counter-clockwise distance 4:
    // each stream absorbs at its isolated latency, and the op completes
    // with the deeper stream: L + 4 + 1.
    let (topo, _) = fixture(16);
    let seen = run_everywhere(&topo, &from_node_0(&[1, 12]), vec![multicast(G, 0)]);
    assert_eq!(seen.absorbs, [(G + isolated(1), 1), (G + isolated(4), 12)]);
    assert_eq!(seen.ops_done, [(G + L + 4 + 1, 0)]);
}

#[test]
fn absorb_and_forward_does_not_stall_the_stream() {
    // A cross-left stream absorbing at every visited node (targets 8,7,6,5
    // from node 0) must complete in exactly the same time as a plain
    // unicast to the final node 5 — cloning at intermediate targets costs
    // no cycles (simultaneous receive-and-forward, §3.3.2): the cross link
    // to 8, then one rim link to each next target.
    let (topo, wl) = fixture(16);
    let seen = run_everywhere(&topo, &from_node_0(&[8, 7, 6, 5]), vec![multicast(G, 0)]);
    let uc = run_everywhere(&topo, &wl, vec![unicast(G, 0, 5)]);
    let at = |links| G + isolated(links);
    assert_eq!(
        seen.absorbs,
        [(at(1), 8), (at(2), 7), (at(3), 6), (at(4), 5)]
    );
    assert_eq!(seen.ops_done, [(uc.absorbs[0].0, 0)]);
    assert_eq!(uc.absorbs, [(at(4), 5)]);
}

#[test]
fn broadcast_behind_a_unicast_waits_one_drain_on_the_contended_port() {
    // A unicast 0 -> 2 departs first; a broadcast from 0 follows a cycle
    // later. Its clockwise stream shares the cw injection channel and
    // queues for it until the unicast's tail leaves its buffer at
    // g + L + 1; the other three streams are free, but the op latency is
    // governed by the blocked cw stream, which then takes its isolated
    // L + 4 + 1 over the k = 4 links of its quadrant:
    //   op completes at (L + 1) + L + (4 + 1) after the unicast's g.
    let (topo, _) = fixture(16);
    let sets = DestinationSets::broadcast(&topo);
    let wl = Workload::new(L as u32, 0.0, 0.0, sets).unwrap();
    let seen = run_everywhere(&topo, &wl, vec![unicast(G, 0, 2), multicast(G + 1, 0)]);
    assert_eq!(seen.ops_done, [(G + (L + 1) + L + 5, 0)]);
    assert!(seen.absorbs.contains(&(G + isolated(2), 2)), "the unicast");
}

#[test]
fn scripted_injections_compose_with_poisson_background_on_both_engines() {
    // A scripted arrival inside recorded Poisson background traffic: the
    // engines must agree on the whole run, the scripted unicast included.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 9);
    let wl = Workload::new(L as u32, 0.01, 0.1, sets).unwrap();
    let mut arrivals = record_trace(&wl, 16, 17, 4_000);
    let free = (100..)
        .find(|&c| !arrivals.iter().any(|e| (e.cycle, e.node) == (c, 0)))
        .expect("node 0 is idle on some cycle");
    arrivals.push(unicast(free, 0, 5));
    arrivals.sort_by_key(|e| (e.cycle, e.node));
    let wl = wl.with_traffic(TrafficSpec::trace(arrivals));
    let cfg = SimConfig {
        warmup_cycles: 50,
        measure_cycles: 3_000,
        ..SimConfig::quick(17)
    };
    let [cycle, event] = [EngineKind::Cycle, EngineKind::EventDriven]
        .map(|kind| Engine::new(&topo, &wl, cfg.with_engine(kind)).run());
    assert!(cycle.unicast.count > 100, "the background carries traffic");
    assert_eq!(
        (cycle.flit_moves, cycle.cycles, cycle.unicast.mean),
        (event.flit_moves, event.cycles, event.unicast.mean),
        "a scripted arrival under background traffic must agree"
    );
    assert_eq!(cycle.channel_utilization, event.channel_utilization);
}
