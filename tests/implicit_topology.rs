//! Differential suite: implicit O(1) topologies vs the materialized
//! oracle.
//!
//! The scale families (`Min`, `Clustered`) never store their channel
//! tables — every channel, path and multicast schedule is computed on
//! demand. The contract is that this implicit arithmetic is **bit-for-bit**
//! the same network as the force-materialized oracle build: same channel
//! records, same routes, same stream decompositions, same `SimPlan`
//! tables. Plus regression tests for every [`PathError`] variant and
//! property tests on the routing invariants the implicit math relies on.

use proptest::prelude::*;
use quarc_noc::prelude::*;
use quarc_noc::topology::{ChannelId, ChannelKind, VcId};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Channel-graph equality: implicit arithmetic vs dense oracle tables.
// ---------------------------------------------------------------------

/// Compare every channel, injection map and ejection map of an implicit
/// build against its materialized oracle.
fn assert_networks_identical(imp: &dyn Topology, ora: &dyn Topology, ctx: &str) {
    let (ni, no) = (imp.network(), ora.network());
    assert!(ni.is_implicit(), "{ctx}: left side must be implicit");
    assert!(!no.is_implicit(), "{ctx}: right side must be the oracle");
    assert_eq!(ni.num_nodes(), no.num_nodes(), "{ctx}: node count");
    assert_eq!(
        ni.ports_per_node(),
        no.ports_per_node(),
        "{ctx}: ports per node"
    );
    assert_eq!(ni.num_channels(), no.num_channels(), "{ctx}: channel count");
    for id in 0..no.num_channels() as u32 {
        let id = ChannelId(id);
        let (a, b) = (ni.channel_at(id), no.channel_at(id));
        assert_eq!(a, b, "{ctx}: channel {id:?}");
        assert_eq!(ni.vcs_of(id), no.vcs_of(id), "{ctx}: vcs of {id:?}");
        assert_eq!(
            ni.downstream(id),
            no.downstream(id),
            "{ctx}: downstream of {id:?}"
        );
    }
    for node in 0..no.num_nodes() as u32 {
        for port in 0..no.ports_per_node() as u8 {
            let (node, port) = (NodeId(node), PortId(port));
            assert_eq!(
                ni.injection_channel(node, port),
                no.injection_channel(node, port),
                "{ctx}: injection of ({node:?}, {port:?})"
            );
            assert_eq!(
                ni.ejection_channel(node, port),
                no.ejection_channel(node, port),
                "{ctx}: ejection of ({node:?}, {port:?})"
            );
        }
    }
    // And the wholesale materialization is the oracle's dense table.
    assert_eq!(
        ni.materialize().channels(),
        no.channels(),
        "{ctx}: materialize() equals the oracle build"
    );
}

/// Compare routes and multicast schedules for every pair / sampled set.
fn assert_routing_identical(imp: &dyn Topology, ora: &dyn Topology, seed: u64, ctx: &str) {
    let n = ora.num_nodes();
    for src in 0..n as u32 {
        for dst in 0..n as u32 {
            if src == dst {
                continue;
            }
            let (src, dst) = (NodeId(src), NodeId(dst));
            let (a, b) = (imp.unicast_path(src, dst), ora.unicast_path(src, dst));
            assert_eq!(a, b, "{ctx}: unicast {src:?}->{dst:?}");
            imp.network()
                .validate_path(&a)
                .unwrap_or_else(|e| panic!("{ctx}: implicit route invalid: {e}"));
            ora.network()
                .validate_path(&b)
                .unwrap_or_else(|e| panic!("{ctx}: oracle route invalid: {e}"));
            assert_eq!(
                imp.port_for(src, dst),
                ora.port_for(src, dst),
                "{ctx}: port for {src:?}->{dst:?}"
            );
        }
    }
    let sets = DestinationSets::random(ora, 3.min(n - 1), seed);
    for src in 0..n as u32 {
        let src = NodeId(src);
        assert_eq!(
            imp.multicast_streams(src, sets.set(src)),
            ora.multicast_streams(src, sets.set(src)),
            "{ctx}: multicast streams of {src:?}"
        );
    }
    assert_eq!(imp.diameter(), ora.diameter(), "{ctx}: diameter");
}

#[test]
fn min_implicit_build_matches_the_materialized_oracle() {
    for (k, stages) in [(2, 2), (2, 3), (3, 2), (4, 2)] {
        let imp = Min::new(k, stages).unwrap();
        let ora = Min::materialized(k, stages).unwrap();
        let ctx = format!("min-{k}x{stages}");
        assert_networks_identical(&imp, &ora, &ctx);
        assert_routing_identical(&imp, &ora, 11, &ctx);
    }
}

#[test]
fn clustered_implicit_build_matches_the_materialized_oracle() {
    let cases: Vec<(usize, Arc<dyn Topology>)> = vec![
        (2, Arc::new(Quarc::new(8).unwrap())),
        (3, Arc::new(Ring::new(6).unwrap())),
        (2, Arc::new(Mesh::new(3, 3, MeshKind::Mesh).unwrap())),
    ];
    for (clusters, inner) in cases {
        let ctx = format!("clustered-{clusters}x-{}", inner.name());
        let imp = Clustered::new(clusters, Arc::clone(&inner)).unwrap();
        let ora = Clustered::materialized(clusters, inner).unwrap();
        assert_networks_identical(&imp, &ora, &ctx);
        assert_routing_identical(&imp, &ora, 13, &ctx);
    }
}

// ---------------------------------------------------------------------
// SimPlan: the lazy (implicit-backed) plan must serve exactly the same
// tables as the dense plan built from the oracle.
// ---------------------------------------------------------------------

fn assert_plans_identical(imp: &dyn Topology, ora: &dyn Topology, seed: u64, ctx: &str) {
    use quarc_noc::sim::SimPlan;
    let n = ora.num_nodes();
    let sets = DestinationSets::random(ora, 3.min(n - 1), seed);
    let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
    let lazy = SimPlan::build(imp, &wl).expect("lazy plan builds");
    let dense = SimPlan::build(ora, &wl).expect("dense plan builds");
    assert!(lazy.is_lazy(), "{ctx}: implicit storage gets a lazy plan");
    assert!(!dense.is_lazy(), "{ctx}: the oracle gets a dense plan");
    assert_eq!(lazy.num_nodes(), dense.num_nodes(), "{ctx}: plan size");
    for src in 0..n as u32 {
        let src = NodeId(src);
        assert_eq!(
            lazy.op_target_count(src),
            dense.op_target_count(src),
            "{ctx}: op targets of {src:?}"
        );
        assert_eq!(
            lazy.streams_snapshot(src),
            dense.streams_snapshot(src),
            "{ctx}: stream tables of {src:?}"
        );
        for dst in 0..n as u32 {
            if src.idx() == dst as usize {
                continue;
            }
            let dst = NodeId(dst);
            assert_eq!(
                *lazy.unicast_path(src, dst),
                *dense.unicast_path(src, dst),
                "{ctx}: plan unicast {src:?}->{dst:?}"
            );
        }
    }
}

#[test]
fn lazy_sim_plans_serve_the_dense_oracle_tables() {
    let imp = Min::new(2, 3).unwrap();
    let ora = Min::materialized(2, 3).unwrap();
    assert_plans_identical(&imp, &ora, 17, "min-2x3");

    let inner: Arc<dyn Topology> = Arc::new(Quarc::new(8).unwrap());
    let imp = Clustered::new(2, Arc::clone(&inner)).unwrap();
    let ora = Clustered::materialized(2, inner).unwrap();
    assert_plans_identical(&imp, &ora, 19, "clustered-2x-quarc");
}

// ---------------------------------------------------------------------
// PathError: one regression test per variant, exercised through
// `validate_path` on implicit storage (so `channel_at` is on the hook
// too).
// ---------------------------------------------------------------------

#[test]
fn path_error_too_short() {
    let topo = Min::new(2, 3).unwrap();
    let mut p = topo.unicast_path(NodeId(0), NodeId(5));
    p.hops.truncate(1);
    assert_eq!(
        topo.network().validate_path(&p),
        Err(PathError::TooShort { hops: 1 })
    );
}

#[test]
fn path_error_bad_injection() {
    let topo = Min::new(2, 3).unwrap();
    let mut p = topo.unicast_path(NodeId(0), NodeId(5));
    p.hops[0] = p.hops[1]; // a link channel can't open a path
    assert!(matches!(
        topo.network().validate_path(&p),
        Err(PathError::BadInjection { src, .. }) if src == NodeId(0)
    ));
}

#[test]
fn path_error_port_mismatch() {
    // Needs a multi-port topology: the hop is a real injection channel of
    // the source, but not the one belonging to the claimed port.
    let topo = Quarc::new(8).unwrap();
    let mut p = topo.unicast_path(NodeId(0), NodeId(3));
    p.port = PortId((p.port.0 + 1) % topo.num_ports() as u8);
    assert!(matches!(
        topo.network().validate_path(&p),
        Err(PathError::PortMismatch { .. })
    ));
}

#[test]
fn path_error_bad_ejection() {
    let topo = Min::new(2, 3).unwrap();
    let mut p = topo.unicast_path(NodeId(0), NodeId(5));
    p.dst = NodeId(6); // the ejection hop still lands at node 5
    assert!(matches!(
        topo.network().validate_path(&p),
        Err(PathError::BadEjection { dst, .. }) if dst == NodeId(6)
    ));
}

#[test]
fn path_error_interior_not_link() {
    let topo = Min::new(2, 3).unwrap();
    let mut p = topo.unicast_path(NodeId(0), NodeId(5));
    let inj = p.hops[0];
    p.hops.insert(2, inj);
    assert!(matches!(
        topo.network().validate_path(&p),
        Err(PathError::InteriorNotLink { channel }) if channel == inj.channel
    ));
}

#[test]
fn path_error_broken_chain() {
    let topo = Min::new(2, 3).unwrap();
    let mut p = topo.unicast_path(NodeId(0), NodeId(5));
    p.hops.swap(1, 2); // stage order violated: hop 2 departs downstream
    assert!(matches!(
        topo.network().validate_path(&p),
        Err(PathError::BrokenChain { .. })
    ));
}

#[test]
fn path_error_vc_out_of_range() {
    let topo = Min::new(2, 3).unwrap();
    let mut p = topo.unicast_path(NodeId(0), NodeId(5));
    p.hops[2].vc = VcId(7); // butterfly wires carry a single vc
    assert!(matches!(
        topo.network().validate_path(&p),
        Err(PathError::VcOutOfRange { vcs: 1, .. })
    ));
}

#[test]
fn path_error_wrong_terminus() {
    // Injection at 0, ejection channel genuinely at 5, but no links in
    // between: the chain still sits at the source when the path ends.
    let topo = Min::new(2, 3).unwrap();
    let net = topo.network();
    let p = quarc_noc::topology::Path {
        src: NodeId(0),
        dst: NodeId(5),
        port: PortId(0),
        hops: vec![
            quarc_noc::topology::Hop {
                channel: net.injection_channel(NodeId(0), PortId(0)),
                vc: VcId(0),
            },
            quarc_noc::topology::Hop {
                channel: net.ejection_channel(NodeId(5), PortId(0)),
                vc: VcId(0),
            },
        ],
    };
    assert_eq!(
        net.validate_path(&p),
        Err(PathError::WrongTerminus {
            at: NodeId(0),
            dst: NodeId(5),
        })
    );
}

// ---------------------------------------------------------------------
// Property tests on the routing invariants the O(1) math relies on.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every butterfly route crosses each of the `stages + 1` wire
    /// boundaries exactly once (that is the minimum — the network is a
    /// feed-forward DAG), visiting the boundary bands in stage order.
    #[test]
    fn min_routes_are_minimal_and_stage_monotone(
        k in 2usize..=4,
        stages in 2usize..=3,
        seed in 0u64..10_000,
    ) {
        let topo = Min::new(k, stages).unwrap();
        let n = topo.num_nodes();
        let src = (seed as usize).wrapping_mul(7919) % n;
        let dst = (src + 1 + (seed as usize).wrapping_mul(104_729) % (n - 1)) % n;
        let path = topo.unicast_path(NodeId(src as u32), NodeId(dst as u32));
        prop_assert_eq!(path.link_count(), stages + 1, "one wire per boundary");
        prop_assert!(topo.network().validate_path(&path).is_ok());
        for (b, hop) in path.hops[1..path.hops.len() - 1].iter().enumerate() {
            let id = hop.channel.idx();
            prop_assert!(
                n * (1 + b) <= id && id < n * (2 + b),
                "wire hop {} (channel {}) escapes boundary band {}",
                b, id, b
            );
            prop_assert_eq!(hop.vc, VcId(0), "feed-forward DAG needs one vc");
        }
    }

    /// The same route, computed implicitly and from the oracle tables,
    /// is identical for arbitrary pairs (spot-check complement of the
    /// exhaustive small-size sweep above).
    #[test]
    fn min_implicit_routes_equal_oracle_routes(
        k in 2usize..=4,
        stages in 2usize..=3,
        seed in 0u64..10_000,
    ) {
        let imp = Min::new(k, stages).unwrap();
        let ora = Min::materialized(k, stages).unwrap();
        let n = imp.num_nodes();
        let src = (seed as usize).wrapping_mul(31) % n;
        let dst = (src + 1 + (seed as usize).wrapping_mul(7907) % (n - 1)) % n;
        let (src, dst) = (NodeId(src as u32), NodeId(dst as u32));
        prop_assert_eq!(imp.unicast_path(src, dst), ora.unicast_path(src, dst));
    }

    /// A clustered route crosses exactly one express link when the
    /// endpoints live in different clusters and none otherwise — the
    /// gateway crossbar is never transited twice.
    #[test]
    fn clustered_routes_cross_at_most_one_express_link(
        clusters in 2usize..=4,
        seed in 0u64..10_000,
    ) {
        let inner: Arc<dyn Topology> = Arc::new(Ring::new(6).unwrap());
        let topo = Clustered::new(clusters, inner).unwrap();
        let net = topo.network();
        let n = topo.num_nodes();
        let m = 6;
        let src = (seed as usize).wrapping_mul(613) % n;
        let dst = (src + 1 + (seed as usize).wrapping_mul(2741) % (n - 1)) % n;
        let path = topo.unicast_path(NodeId(src as u32), NodeId(dst as u32));
        prop_assert!(net.validate_path(&path).is_ok());
        let express = path.hops[1..path.hops.len() - 1]
            .iter()
            .filter(|h| {
                let ch = net.channel_at(h.channel);
                ch.kind == ChannelKind::Link && ch.from.idx() / m != ch.to.idx() / m
            })
            .count();
        let expected = usize::from(src / m != dst / m);
        prop_assert_eq!(express, expected, "src {} dst {}", src, dst);
    }
}
