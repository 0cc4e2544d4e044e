//! Header claims: a header granted a hop claims the free cvs ahead of it
//! and crosses them one hop a cycle in closed form beside stepped traffic
//! (`Fabric::start_claims`, `Fabric::claim_window`, `Fabric::interrupt`).
//! The oracle never claims, so every run here is checked bit for bit
//! against it, post-run audits included. The hand-built traces put a
//! stepped header's request on each side of a claimant's grant of the cv
//! both want; the order of the waiters is the only thing a wrong
//! settlement can show, and each run's latencies show it.

use quarc_noc::app::ClosedLoopSpec;
use quarc_noc::prelude::*;
use quarc_noc::sim::{EngineAudit, EngineKind, SimConfig, SimResults};

/// The oracle first, then the engine under test.
const KINDS: [EngineKind; 2] = [EngineKind::Cycle, EngineKind::EventDriven];

/// Everything a run reports but its engine counters, as lossless text.
fn outcome(res: &SimResults) -> String {
    let mut res = res.clone();
    res.engine = Default::default();
    serde::json::to_string(&serde::Serialize::to_value(&res))
}

/// Both engines' results and post-run audits.
fn both(topo: &dyn Topology, wl: &Workload, cfg: SimConfig) -> [(SimResults, EngineAudit); 2] {
    KINDS.map(|kind| {
        let mut sim = Engine::new(topo, wl, cfg.with_engine(kind));
        let res = sim.run();
        let audit = sim
            .audit()
            .unwrap_or_else(|e| panic!("{kind:?} engine audit: {e}"));
        (res, audit)
    })
}

/// Quarc-16 under `(cycle, src, dst)` unicasts of `len` flits, stepped
/// (the arrivals share channels, so nothing flies): both engines agree
/// bit for bit, and the event engine claimed. Returns its results.
fn scripted(len: u32, unicasts: &[(u64, u32, u32)]) -> SimResults {
    let topo = Quarc::new(16).unwrap();
    let entry = |&(cycle, node, dst): &(u64, u32, u32)| TraceEntry {
        cycle,
        node,
        kind: TraceKind::Unicast { dst },
    };
    let wl = Workload::new(len, 0.0, 0.0, DestinationSets::random(&topo, 4, 109))
        .unwrap()
        .with_traffic(TrafficSpec::trace(unicasts.iter().map(entry).collect()));
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 6_000,
        drain_cycles: 4_000,
        ..SimConfig::quick(109)
    };
    let [(c, c_audit), (e, e_audit)] = both(&topo, &wl, cfg);
    let ctx = format!("{unicasts:?}");
    assert_eq!(
        c.unicast.count,
        unicasts.len() as u64,
        "{ctx}: all delivered"
    );
    assert_eq!(outcome(&c), outcome(&e), "{ctx}: the engines differ");
    assert_eq!(c_audit, e_audit, "{ctx}: post-run audits");
    assert_eq!(e.engine.flights, 0, "{ctx}: stepped, not flown");
    assert!(e.engine.claims > 0, "{ctx}: nothing claimed");
    e
}

/// Latencies of a scripted run's messages, the sample the order of two
/// waiters decides: the unicast maximum and mean.
fn latencies(res: &SimResults) -> (f64, f64) {
    (res.unicast.max, res.unicast.mean)
}

// Routes on quarc-16 (channel ids; every hop on vc 0): 8 → 2 is
// [99, 56, 0, 1, 136], 8 → 3 [99, 56, 0, 1, 2, 140], 1 → 3 [68, 1, 2,
// 140], 0 → 11 [67, 48, 8, 9, 10, 172], 7 → 9 [92, 7, 8, 164], 3 → 5
// [76, 3, 4, 148] and 4 → 5 [80, 4, 148]. A message generated at `t` is
// granted its injection cv at `t` and hop 1 at `t + 1`, and claims from
// the end of `t + 1`: hop `k` is granted at `t + k`.

#[test]
fn a_request_before_the_grant_takes_the_claimed_cv() {
    // 8 → 2 claims channels 0, 1 and 136 at the end of 3007 (grants 3008,
    // 3009, 3010). 1 → 3's header crosses its injection channel on 3008
    // and requests channel 1, a cycle before 8 → 2 would be granted it:
    // the claim is settled, the cv is free, and 1 → 3 takes it. 8 → 2
    // waits for its 16 flits.
    let e = scripted(16, &[(3006, 8, 2), (3007, 1, 3)]);
    assert_eq!(latencies(&e), (36.0, 27.5));
}

#[test]
fn a_request_from_generation_settles_the_claimant_first() {
    // 8 → 3 claims channels 0, 1, 2 and 140 at the end of 3001; its
    // grant of channel 1 falls on 3003. 8 → 2, generated at 8 on 3003,
    // requests the injection cv 8 → 3 still streams out of: generation
    // settles the claim through 3002, and 8 → 3 steps 3003 as on the
    // oracle, where generation precedes every move of the cycle.
    let e = scripted(16, &[(3000, 8, 3), (3003, 8, 2)]);
    assert_eq!(latencies(&e), (34.0, 27.5));
}

#[test]
fn a_request_on_the_grant_cycle_from_a_lower_channel_queues_first() {
    // 0 → 11 and 7 → 9 both want channel 8. 0 → 11 claims it at the end
    // of 3003 (its injection move applies first), to be granted on 3004;
    // 7 → 9 steps. On 3004 7 → 9's header crosses channel 7 and requests
    // channel 8, the cycle 0 → 11's header crosses channel 48 and would be
    // granted it. Channel 7 applies first: 0 → 11 is settled through 3003,
    // its moves of 3004 join the cycle's in channel order, and it queues
    // behind 7 → 9.
    let e = scripted(16, &[(3002, 0, 11), (3002, 7, 9)]);
    assert_eq!(latencies(&e), (38.0, 28.5));
}

#[test]
fn a_request_on_the_grant_cycle_from_a_higher_channel_queues_behind() {
    // 3 → 5 claims channels 4 and 148 at the end of 3006 (grants 3007,
    // 3008). 4 → 5's header crosses its injection channel, 80, on 3007
    // and requests channel 4 — after 3 → 5's header, crossing channel 3,
    // requested it: 3 → 5 is settled through 3007, owns the cv, and 4 → 5
    // waits behind it.
    let e = scripted(16, &[(3005, 3, 5), (3006, 4, 5)]);
    assert_eq!(latencies(&e), (35.0, 27.0));
}

#[test]
fn a_claim_stops_short_of_a_held_cv() {
    // The 64-flit 10 → 11 [104, 10, 172], generated at 3000, claims its
    // ejection channel at the end of 3001 and lands on 3003: hops 0 and 1
    // move on 3002 and 3003, channel 172 on 3003. It then holds channels
    // 10 and 172 when 0 → 11, generated at 3002, is granted channel 48 on
    // 3003. That claim takes channels 8 and 9, whose grants fall on 3004
    // and 3005, and stops at 10: it ends on 3005, a cycle short of the
    // request for channel 10, where 0 → 11 waits for 10 → 11's tail. Its
    // hops 0 and 1 move on 3004 and 3005, channel 8 on 3005.
    let e = scripted(64, &[(3000, 10, 11), (3002, 0, 11)]);
    assert_eq!(e.engine.claims, 2);
    assert_eq!(e.engine.claim_moves, (2 + 2 + 1) + (2 + 2 + 1));
}

#[test]
fn a_closed_loop_reply_settles_a_claim() {
    // Coherence on quarc-16 with 8-flit messages: a reply is injected in
    // the cycle its request is absorbed, after every move of the cycle,
    // often at a node whose injection cv a claimant still streams out of;
    // the reply settles that claim through the current cycle.
    let topo = Quarc::new(16).unwrap();
    let spec = ClosedLoopSpec::Coherence {
        window: 4,
        requests: 24,
        write_fraction: 0.3,
    };
    for len in [8, 16] {
        let wl = Workload::new(len, 0.0, 0.0, DestinationSets::random(&topo, 4, 61)).unwrap();
        let [(c, c_audit), (e, e_audit)] = KINDS.map(|kind| {
            let mut sim = Engine::new(&topo, &wl, SimConfig::quick(61).with_engine(kind));
            sim.install_closed_loop(&spec, 61);
            let res = sim.run();
            (res, sim.audit().expect("post-run audit"))
        });
        assert_eq!(outcome(&c), outcome(&e), "{len} flits: the engines differ");
        assert_eq!(c_audit, e_audit, "{len} flits: post-run audits");
        assert!(e.engine.claims > 0, "{len} flits: nothing claimed");
    }
}

#[test]
fn headers_claim_on_the_min_gate_case() {
    // `scale-64k`'s set-up gate case: 8-flit messages on 6- and 7-hop
    // routes of min-16x3 at 5e-4, seed 42. Nearly every header meets no
    // one: with bodies coasting from their landing, 51 % of the 464 330
    // moves coast; with headers claiming from their first link, 92 %
    // (238 093 body and 189 995 header moves), and 36 242 are stepped.
    let topo = TopologySpec::parse("min-16x3").unwrap().build().unwrap();
    let sets = DestinationSets::sampled(topo.as_ref(), 4, 42);
    let wl = Workload::new(8, 5e-4, 0.1, sets).unwrap();
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 3_000,
        drain_cycles: 12_000,
        buffer_depth: 2,
        backlog_limit: 500_000,
        batch_size: 16,
        ..SimConfig::quick(42)
    };
    let res = Engine::new(topo.as_ref(), &wl, cfg).run();
    let e = res.engine;
    let closed_form = (e.coast_moves + e.claim_moves) as f64 / res.flit_moves as f64;
    assert!(
        closed_form > 0.9,
        "{} body and {} header moves of {} in closed form",
        e.coast_moves,
        e.claim_moves,
        res.flit_moves
    );
    assert!(e.coast_moves as f64 > 0.5 * res.flit_moves as f64);
}
