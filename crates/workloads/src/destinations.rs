//! Multicast destination sets.
//!
//! The paper fixes the destination set of every node "at the beginning of
//! the simulation" (§4) and evaluates two spatial patterns:
//!
//! * **random** (Fig. 6) — destinations drawn uniformly from the other
//!   `N − 1` nodes;
//! * **localized** (Fig. 7) — all destinations on the *same rim*, i.e.
//!   within a single injection-port quadrant of the source.
//!
//! Generation is fully deterministic in `(topology, group size, seed)`.

use noc_topology::{NodeId, PortId, Topology};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-node multicast destination sets, fixed for a whole experiment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DestinationSets {
    sets: Vec<Vec<NodeId>>,
}

impl DestinationSets {
    /// Explicit sets (one per node, in node order). Destinations equal to
    /// the owning node are removed; duplicates are dropped.
    pub fn explicit(mut sets: Vec<Vec<NodeId>>) -> Self {
        for (i, set) in sets.iter_mut().enumerate() {
            let me = NodeId(i as u32);
            set.retain(|&t| t != me);
            set.sort_unstable();
            set.dedup();
        }
        DestinationSets { sets }
    }

    /// Uniformly random sets of `group_size` destinations per node
    /// (Fig. 6 pattern).
    pub fn random(topo: &dyn Topology, group_size: usize, seed: u64) -> Self {
        let n = topo.num_nodes();
        let group = group_size.min(n.saturating_sub(1));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let sets = (0..n)
            .map(|src| {
                let mut others: Vec<NodeId> = (0..n as u32)
                    .map(NodeId)
                    .filter(|&t| t.idx() != src)
                    .collect();
                others.shuffle(&mut rng);
                others.truncate(group);
                others.sort_unstable();
                others
            })
            .collect();
        DestinationSets { sets }
    }

    /// Uniformly random sets of `group_size` destinations per node, built
    /// by rejection sampling in O(n · group) — the constructor for scale
    /// sweeps, where [`DestinationSets::random`]'s per-node shuffle of all
    /// `n − 1` candidates is an O(n²) wall (a 64k-node network would
    /// shuffle four billion entries).
    ///
    /// The sampled distribution matches `random` (uniform without
    /// replacement) but the draws differ for the same seed, so the two
    /// constructors are distinct named patterns, not interchangeable
    /// implementations of one.
    ///
    /// `group_size` is capped at `n / 2` (and `n − 1`): rejection
    /// sampling degrades as the group approaches `n`, and scale sweeps
    /// keep groups tiny anyway — use `random` for dense groups on small
    /// networks.
    pub fn sampled(topo: &dyn Topology, group_size: usize, seed: u64) -> Self {
        let n = topo.num_nodes();
        let group = group_size.min(n.saturating_sub(1)).min(n / 2);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x243f_6a88_85a3_08d3);
        let sets = (0..n)
            .map(|src| {
                let src = NodeId(src as u32);
                let mut set: Vec<NodeId> = Vec::with_capacity(group);
                while set.len() < group {
                    let d = Self::random_unicast_dest(n, src, &mut rng);
                    if !set.contains(&d) {
                        set.push(d);
                    }
                }
                set.sort_unstable();
                set
            })
            .collect();
        DestinationSets { sets }
    }

    /// Localized sets (Fig. 7 pattern): every node's destinations lie in a
    /// single randomly chosen injection-port quadrant ("on the same rim").
    ///
    /// `group_size` is capped by the chosen quadrant's population; ports
    /// with too few nodes are skipped in favour of the largest quadrant.
    pub fn localized(topo: &dyn Topology, group_size: usize, seed: u64) -> Self {
        let n = topo.num_nodes();
        let ports = topo.num_ports();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
        let sets = (0..n)
            .map(|src| {
                let src = NodeId(src as u32);
                // Prefer a random port whose quadrant can hold the group;
                // fall back to the largest quadrant.
                let mut order: Vec<PortId> = (0..ports as u8).map(PortId).collect();
                order.shuffle(&mut rng);
                let quadrant = order
                    .iter()
                    .map(|&p| topo.quadrant(src, p))
                    .find(|q| q.len() >= group_size)
                    .unwrap_or_else(|| {
                        (0..ports as u8)
                            .map(|p| topo.quadrant(src, PortId(p)))
                            .max_by_key(|q| q.len())
                            .expect("topology has at least one port")
                    });
                let mut q = quadrant;
                q.shuffle(&mut rng);
                q.truncate(group_size);
                q.sort_unstable();
                q
            })
            .collect();
        DestinationSets { sets }
    }

    /// Broadcast sets: every node targets all other nodes.
    pub fn broadcast(topo: &dyn Topology) -> Self {
        let n = topo.num_nodes();
        let sets = (0..n)
            .map(|src| {
                (0..n as u32)
                    .map(NodeId)
                    .filter(|t| t.idx() != src)
                    .collect()
            })
            .collect();
        DestinationSets { sets }
    }

    /// The destination set of `node`.
    #[inline]
    pub fn set(&self, node: NodeId) -> &[NodeId] {
        &self.sets[node.idx()]
    }

    /// Number of nodes covered.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.sets.len()
    }

    /// Sample a uniformly random unicast destination distinct from `src`.
    pub fn random_unicast_dest(n: usize, src: NodeId, rng: &mut impl Rng) -> NodeId {
        debug_assert!(n >= 2);
        let raw = rng.gen_range(0..n - 1) as u32;
        if raw >= src.0 {
            NodeId(raw + 1)
        } else {
            NodeId(raw)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{Quarc, Ring};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_sets_have_requested_size_and_exclude_source() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        assert_eq!(sets.num_nodes(), 16);
        for i in 0..16u32 {
            let s = sets.set(NodeId(i));
            assert_eq!(s.len(), 4);
            assert!(!s.contains(&NodeId(i)));
            let mut sorted = s.to_vec();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "no duplicates");
        }
    }

    #[test]
    fn random_sets_are_seed_deterministic() {
        let topo = Quarc::new(32).unwrap();
        let a = DestinationSets::random(&topo, 8, 7);
        let b = DestinationSets::random(&topo, 8, 7);
        let c = DestinationSets::random(&topo, 8, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sampled_sets_have_requested_size_and_exclude_source() {
        let topo = Quarc::new(64).unwrap();
        let sets = DestinationSets::sampled(&topo, 5, 9);
        assert_eq!(sets.num_nodes(), 64);
        for i in 0..64u32 {
            let s = sets.set(NodeId(i));
            assert_eq!(s.len(), 5);
            assert!(!s.contains(&NodeId(i)));
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        }
        let a = DestinationSets::sampled(&topo, 5, 9);
        let b = DestinationSets::sampled(&topo, 5, 10);
        assert_eq!(sets, a, "seed-deterministic");
        assert_ne!(sets, b);
    }

    #[test]
    fn sampled_group_is_capped_at_half_the_network() {
        let topo = Ring::new(6).unwrap();
        let sets = DestinationSets::sampled(&topo, 10, 1);
        for i in 0..6u32 {
            assert_eq!(sets.set(NodeId(i)).len(), 3, "capped at n/2");
        }
    }

    #[test]
    fn localized_sets_fit_one_quadrant() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::localized(&topo, 3, 11);
        for i in 0..16u32 {
            let src = NodeId(i);
            let s = sets.set(src);
            assert_eq!(s.len(), 3);
            // All destinations must share a single port.
            let p0 = topo.port_for(src, s[0]);
            assert!(
                s.iter().all(|&t| topo.port_for(src, t) == p0),
                "localized set of {src:?} spans ports: {s:?}"
            );
        }
    }

    #[test]
    fn localized_group_capped_by_quadrant() {
        let topo = Quarc::new(16).unwrap(); // quadrants hold at most 4 nodes
        let sets = DestinationSets::localized(&topo, 10, 3);
        for i in 0..16u32 {
            assert!(sets.set(NodeId(i)).len() <= 4);
        }
    }

    #[test]
    fn broadcast_targets_everyone() {
        let topo = Ring::new(6).unwrap();
        let sets = DestinationSets::broadcast(&topo);
        for i in 0..6u32 {
            assert_eq!(sets.set(NodeId(i)).len(), 5);
        }
    }

    #[test]
    fn explicit_cleans_input() {
        let sets = DestinationSets::explicit(vec![
            vec![NodeId(0), NodeId(1), NodeId(1), NodeId(2)],
            vec![NodeId(0)],
        ]);
        assert_eq!(sets.set(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(sets.set(NodeId(1)), &[NodeId(0)]);
    }

    #[test]
    fn unicast_dest_never_hits_source_and_is_uniform() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            let d = DestinationSets::random_unicast_dest(8, NodeId(3), &mut rng);
            assert_ne!(d, NodeId(3));
            counts[d.idx()] += 1;
        }
        assert_eq!(counts[3], 0);
        for (i, &c) in counts.iter().enumerate() {
            if i != 3 {
                let p = c as f64 / 80_000.0;
                assert!((p - 1.0 / 7.0).abs() < 0.01, "node {i} probability {p}");
            }
        }
    }
}
