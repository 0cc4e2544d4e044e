//! Declarative, serializable topology specifications and the
//! construct-by-name registry.
//!
//! A [`TopologySpec`] is *data*: it can be stored in a scenario file,
//! round-tripped through JSON and only turned into a live channel graph
//! when an experiment runs ([`TopologySpec::build`]). The registry maps
//! short names (`"quarc"`, `"mesh"`, ...) to constructors so scenario
//! files and CLIs can request any supported topology without compiling a
//! new binary; unknown names and invalid sizes surface as
//! [`TopologyError`] values with actionable messages.

use crate::clustered::Clustered;
use crate::hypercube::Hypercube;
use crate::mesh::{Mesh, MeshKind};
use crate::min::Min;
use crate::network::{Topology, TopologyError};
use crate::quarc::Quarc;
use crate::ring::Ring;
use crate::spidergon::Spidergon;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A serializable description of a topology, sufficient to construct it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// The paper's evaluation platform: `n`-node Quarc (all-port routers,
    /// doubled cross links), `n % 4 == 0`, `n >= 8`.
    Quarc {
        /// Node count.
        n: usize,
    },
    /// Bidirectional ring, the minimal two-port multicast topology.
    Ring {
        /// Node count.
        n: usize,
    },
    /// One-port Spidergon baseline.
    Spidergon {
        /// Node count.
        n: usize,
    },
    /// Open mesh with XY routing and dual-path Hamiltonian multicast.
    Mesh {
        /// Columns.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// Torus (wrap-around mesh).
    Torus {
        /// Columns.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// Binary hypercube with e-cube unicast and Gray-code dual-path
    /// multicast.
    Hypercube {
        /// Dimension (`2^dim` nodes).
        dim: usize,
    },
    /// k-ary multistage (butterfly) interconnection network with
    /// `k^stages` one-port terminals and implicit O(1) channel storage.
    Min {
        /// Switch radix.
        k: usize,
        /// Number of switch stages (`k^stages` terminals).
        stages: usize,
    },
    /// Hierarchical composition: `clusters` copies of a flat inner
    /// topology bridged by gateway express links, with implicit O(1)
    /// channel storage.
    Clustered {
        /// Number of clusters (>= 2).
        clusters: usize,
        /// The inner (per-cluster) topology.
        inner: ClusterInner,
    },
}

/// The inner topology of a [`TopologySpec::Clustered`] composition — the
/// six flat families, mirrored so the spec stays `Copy` and nesting of
/// implicit families is unrepresentable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterInner {
    /// Quarc cluster.
    Quarc {
        /// Node count per cluster.
        n: usize,
    },
    /// Bidirectional-ring cluster.
    Ring {
        /// Node count per cluster.
        n: usize,
    },
    /// One-port Spidergon cluster.
    Spidergon {
        /// Node count per cluster.
        n: usize,
    },
    /// Open-mesh cluster.
    Mesh {
        /// Columns.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// Torus cluster.
    Torus {
        /// Columns.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// Hypercube cluster.
    Hypercube {
        /// Dimension (`2^dim` nodes per cluster).
        dim: usize,
    },
}

impl ClusterInner {
    /// The flat [`TopologySpec`] this inner selection mirrors.
    pub fn spec(self) -> TopologySpec {
        match self {
            ClusterInner::Quarc { n } => TopologySpec::Quarc { n },
            ClusterInner::Ring { n } => TopologySpec::Ring { n },
            ClusterInner::Spidergon { n } => TopologySpec::Spidergon { n },
            ClusterInner::Mesh { width, height } => TopologySpec::Mesh { width, height },
            ClusterInner::Torus { width, height } => TopologySpec::Torus { width, height },
            ClusterInner::Hypercube { dim } => TopologySpec::Hypercube { dim },
        }
    }

    /// Mirror a flat spec into an inner selection; `None` for the
    /// implicit families (no nesting).
    pub fn from_spec(spec: TopologySpec) -> Option<ClusterInner> {
        Some(match spec {
            TopologySpec::Quarc { n } => ClusterInner::Quarc { n },
            TopologySpec::Ring { n } => ClusterInner::Ring { n },
            TopologySpec::Spidergon { n } => ClusterInner::Spidergon { n },
            TopologySpec::Mesh { width, height } => ClusterInner::Mesh { width, height },
            TopologySpec::Torus { width, height } => ClusterInner::Torus { width, height },
            TopologySpec::Hypercube { dim } => ClusterInner::Hypercube { dim },
            TopologySpec::Min { .. } | TopologySpec::Clustered { .. } => return None,
        })
    }
}

impl fmt::Display for ClusterInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.spec().fmt(f)
    }
}

/// The registry's topology names, in registry order.
pub const KNOWN_TOPOLOGIES: &[&str] = &[
    "quarc",
    "ring",
    "spidergon",
    "mesh",
    "torus",
    "hypercube",
    "min",
    "clustered",
];

impl TopologySpec {
    /// Construct the described topology.
    pub fn build(&self) -> Result<Box<dyn Topology>, TopologyError> {
        Ok(match *self {
            TopologySpec::Quarc { n } => Box::new(Quarc::new(n)?),
            TopologySpec::Ring { n } => Box::new(Ring::new(n)?),
            TopologySpec::Spidergon { n } => Box::new(Spidergon::new(n)?),
            TopologySpec::Mesh { width, height } => {
                Box::new(Mesh::new(width, height, MeshKind::Mesh)?)
            }
            TopologySpec::Torus { width, height } => {
                Box::new(Mesh::new(width, height, MeshKind::Torus)?)
            }
            TopologySpec::Hypercube { dim } => Box::new(Hypercube::new(dim)?),
            TopologySpec::Min { k, stages } => Box::new(Min::new(k, stages)?),
            TopologySpec::Clustered { clusters, inner } => {
                let inner: Arc<dyn Topology> = Arc::from(inner.spec().build()?);
                Box::new(Clustered::new(clusters, inner)?)
            }
        })
    }

    /// The registry name of this spec's topology family.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TopologySpec::Quarc { .. } => "quarc",
            TopologySpec::Ring { .. } => "ring",
            TopologySpec::Spidergon { .. } => "spidergon",
            TopologySpec::Mesh { .. } => "mesh",
            TopologySpec::Torus { .. } => "torus",
            TopologySpec::Hypercube { .. } => "hypercube",
            TopologySpec::Min { .. } => "min",
            TopologySpec::Clustered { .. } => "clustered",
        }
    }

    /// Node count the spec describes (without building the topology).
    pub fn num_nodes(&self) -> usize {
        match *self {
            TopologySpec::Quarc { n }
            | TopologySpec::Ring { n }
            | TopologySpec::Spidergon { n } => n,
            TopologySpec::Mesh { width, height } | TopologySpec::Torus { width, height } => {
                width * height
            }
            // Saturate on absurd dimensions instead of overflowing the
            // shift: specs are data and may describe sizes `build()`
            // would reject, but this accessor must never panic or wrap.
            TopologySpec::Hypercube { dim } => 1usize
                .checked_shl(dim.min(u32::MAX as usize) as u32)
                .unwrap_or(usize::MAX),
            TopologySpec::Min { k, stages } => k
                .checked_pow(stages.min(u32::MAX as usize) as u32)
                .unwrap_or(usize::MAX),
            TopologySpec::Clustered { clusters, inner } => {
                clusters.saturating_mul(inner.spec().num_nodes())
            }
        }
    }

    /// Injection ports per node of the described topology (`m` in the
    /// paper), without building it. Used by spec-level validation of
    /// routing schemes that need concurrent ports.
    pub fn num_ports(&self) -> usize {
        match *self {
            TopologySpec::Quarc { .. } => 4,
            TopologySpec::Ring { .. } => 2,
            TopologySpec::Spidergon { .. } => 1,
            TopologySpec::Mesh { .. } | TopologySpec::Torus { .. } => 4,
            TopologySpec::Hypercube { dim } => dim,
            TopologySpec::Min { .. } => 1,
            TopologySpec::Clustered { inner, .. } => inner.spec().num_ports(),
        }
    }

    /// Whether the described topology has a usable Hamiltonian linear
    /// order (see [`Topology::has_linear_order`]): true for the six flat
    /// families, false for the multistage/hierarchical scale families.
    /// Used by spec-level validation of the order-walking multicast
    /// schemes without building the topology.
    pub fn has_linear_order(&self) -> bool {
        !matches!(
            self,
            TopologySpec::Min { .. } | TopologySpec::Clustered { .. }
        )
    }

    /// Construct a spec from a registry name and a *size* argument: the
    /// node count for ring topologies, `width == height` for mesh/torus
    /// (the size must be a perfect square), the dimension for hypercubes.
    pub fn from_name(name: &str, size: usize) -> Result<TopologySpec, TopologyError> {
        match name {
            "quarc" => Ok(TopologySpec::Quarc { n: size }),
            "ring" => Ok(TopologySpec::Ring { n: size }),
            "spidergon" => Ok(TopologySpec::Spidergon { n: size }),
            "hypercube" => Ok(TopologySpec::Hypercube { dim: size }),
            "mesh" | "torus" => {
                let side = (size as f64).sqrt().round() as usize;
                if side * side != size {
                    return Err(TopologyError::InvalidSpec {
                        spec: format!("{name}-{size}"),
                        reason: "mesh/torus size must be a perfect square \
                                 (or use the `WxH` form, e.g. `mesh-4x4`)"
                            .into(),
                    });
                }
                Ok(if name == "mesh" {
                    TopologySpec::Mesh {
                        width: side,
                        height: side,
                    }
                } else {
                    TopologySpec::Torus {
                        width: side,
                        height: side,
                    }
                })
            }
            "min" | "clustered" => Err(TopologyError::InvalidSpec {
                spec: format!("{name}-{size}"),
                reason: format!(
                    "`{name}` has no single-size form; use `min-<k>x<stages>` \
                     or `clustered-<C>x-<inner-spec>`"
                ),
            }),
            other => Err(TopologyError::UnknownTopology {
                name: other.to_string(),
            }),
        }
    }

    /// Parse a compact spec string: `<name>-<size>` (e.g. `quarc-16`,
    /// `hypercube-4`), `<name>-<W>x<H>` for mesh/torus (e.g. `mesh-4x4`),
    /// `min-<k>x<stages>` (e.g. `min-64x2`), or
    /// `clustered-<C>x-<inner-spec>` (e.g. `clustered-4x-mesh-4x4`).
    /// This is the format [`TopologySpec`] displays as, so
    /// `parse(spec.to_string())` round-trips.
    pub fn parse(s: &str) -> Result<TopologySpec, TopologyError> {
        let bad = |reason: &str| TopologyError::InvalidSpec {
            spec: s.to_string(),
            reason: reason.to_string(),
        };
        let (name, arg) = s.split_once('-').ok_or_else(|| {
            bad("expected `<name>-<size>` or `<name>-<W>x<H>` (e.g. `quarc-16`, `mesh-4x4`)")
        })?;
        if !KNOWN_TOPOLOGIES.contains(&name) {
            return Err(TopologyError::UnknownTopology {
                name: name.to_string(),
            });
        }
        if name == "min" {
            let (k, stages) = arg
                .split_once('x')
                .ok_or_else(|| bad("min needs `min-<k>x<stages>` (e.g. `min-64x2`)"))?;
            let k: usize = k.parse().map_err(|_| bad("MIN radix is not a number"))?;
            let stages: usize = stages
                .parse()
                .map_err(|_| bad("MIN stage count is not a number"))?;
            return Ok(TopologySpec::Min { k, stages });
        }
        if name == "clustered" {
            let (count, inner) = arg.split_once('-').ok_or_else(|| {
                bad("clustered needs `clustered-<C>x-<inner-spec>` (e.g. `clustered-4x-mesh-4x4`)")
            })?;
            let count = count.strip_suffix('x').ok_or_else(|| {
                bad("cluster count must end with `x` (e.g. `clustered-4x-mesh-4x4`)")
            })?;
            let clusters: usize = count
                .parse()
                .map_err(|_| bad("cluster count is not a number"))?;
            let inner = ClusterInner::from_spec(TopologySpec::parse(inner)?).ok_or_else(|| {
                bad("inner topology must be one of the flat families (no nested min/clustered)")
            })?;
            return Ok(TopologySpec::Clustered { clusters, inner });
        }
        if let Some((w, h)) = arg.split_once('x') {
            if name != "mesh" && name != "torus" {
                return Err(bad("only mesh/torus accept the `WxH` size form"));
            }
            let width: usize = w.parse().map_err(|_| bad("width is not a number"))?;
            let height: usize = h.parse().map_err(|_| bad("height is not a number"))?;
            return Ok(if name == "mesh" {
                TopologySpec::Mesh { width, height }
            } else {
                TopologySpec::Torus { width, height }
            });
        }
        let size: usize = arg.parse().map_err(|_| bad("size is not a number"))?;
        TopologySpec::from_name(name, size)
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::Mesh { width, height } | TopologySpec::Torus { width, height } => {
                write!(f, "{}-{}x{}", self.kind_name(), width, height)
            }
            TopologySpec::Hypercube { dim } => write!(f, "hypercube-{dim}"),
            TopologySpec::Min { k, stages } => write!(f, "min-{k}x{stages}"),
            TopologySpec::Clustered { clusters, inner } => {
                write!(f, "clustered-{clusters}x-{inner}")
            }
            _ => write!(f, "{}-{}", self.kind_name(), self.num_nodes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChannelId, NodeId, PortId};
    use crate::path::Path;

    #[test]
    fn registry_builds_every_family() {
        for (spec, nodes) in [
            (TopologySpec::Quarc { n: 16 }, 16),
            (TopologySpec::Ring { n: 6 }, 6),
            (TopologySpec::Spidergon { n: 8 }, 8),
            (
                TopologySpec::Mesh {
                    width: 3,
                    height: 3,
                },
                9,
            ),
            (
                TopologySpec::Torus {
                    width: 4,
                    height: 4,
                },
                16,
            ),
            (TopologySpec::Hypercube { dim: 3 }, 8),
        ] {
            assert_eq!(spec.num_nodes(), nodes);
            let topo = spec.build().expect("valid spec");
            assert_eq!(topo.num_nodes(), nodes);
            assert_eq!(topo.name(), spec.kind_name());
            assert_eq!(
                spec.num_ports(),
                topo.num_ports(),
                "spec-level port count must match the built topology"
            );
        }
    }

    #[test]
    fn display_parse_round_trips() {
        for spec in [
            TopologySpec::Quarc { n: 32 },
            TopologySpec::Ring { n: 10 },
            TopologySpec::Spidergon { n: 16 },
            TopologySpec::Mesh {
                width: 4,
                height: 2,
            },
            TopologySpec::Torus {
                width: 3,
                height: 3,
            },
            TopologySpec::Hypercube { dim: 5 },
        ] {
            assert_eq!(TopologySpec::parse(&spec.to_string()), Ok(spec));
        }
    }

    #[test]
    fn unknown_names_are_rejected_with_the_name() {
        let err = TopologySpec::parse("warpgrid-16").unwrap_err();
        assert!(err.to_string().contains("warpgrid"), "{err}");
        assert!(
            err.to_string().contains("quarc"),
            "should list known: {err}"
        );
        assert!(matches!(
            TopologySpec::from_name("warpgrid", 16),
            Err(TopologyError::UnknownTopology { .. })
        ));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(TopologySpec::parse("quarc").is_err());
        assert!(TopologySpec::parse("quarc-abc").is_err());
        assert!(TopologySpec::parse("ring-4x4").is_err());
        assert!(TopologySpec::parse("mesh-4xzz").is_err());
        assert!(matches!(
            TopologySpec::from_name("mesh", 12),
            Err(TopologyError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn invalid_sizes_fail_at_build_with_the_constraint() {
        let err = match (TopologySpec::Quarc { n: 7 }).build() {
            Err(e) => e,
            Ok(_) => panic!("a 7-node Quarc must be rejected"),
        };
        assert!(matches!(err, TopologyError::UnsupportedSize { n: 7, .. }));
        assert!(TopologySpec::Hypercube { dim: 0 }.build().is_err());
        assert!(TopologySpec::Mesh {
            width: 1,
            height: 1
        }
        .build()
        .is_err());
    }

    #[test]
    fn huge_hypercube_dims_saturate_instead_of_overflowing() {
        // Parse does not bound the dimension (build() does, to 2..=10);
        // the size accessor must stay total on such specs.
        let spec = TopologySpec::parse("hypercube-64").unwrap();
        assert_eq!(spec.num_nodes(), usize::MAX);
        assert_eq!(
            (TopologySpec::Hypercube { dim: 1000 }).num_nodes(),
            usize::MAX
        );
        assert!(spec.build().is_err(), "build still rejects it");
    }

    #[test]
    fn mesh_from_square_size() {
        assert_eq!(
            TopologySpec::from_name("torus", 16),
            Ok(TopologySpec::Torus {
                width: 4,
                height: 4
            })
        );
    }

    #[test]
    fn scale_families_parse_build_and_round_trip() {
        let min = TopologySpec::parse("min-64x2").unwrap();
        assert_eq!(min, TopologySpec::Min { k: 64, stages: 2 });
        assert_eq!(min.num_nodes(), 4096);
        assert_eq!(min.num_ports(), 1);
        assert!(!min.has_linear_order());
        assert_eq!(min.to_string(), "min-64x2");
        let topo = min.build().unwrap();
        assert_eq!(topo.num_nodes(), 4096);
        assert!(topo.network().is_implicit());

        let cl = TopologySpec::parse("clustered-4x-mesh-4x4").unwrap();
        assert_eq!(
            cl,
            TopologySpec::Clustered {
                clusters: 4,
                inner: ClusterInner::Mesh {
                    width: 4,
                    height: 4
                }
            }
        );
        assert_eq!(cl.num_nodes(), 64);
        assert_eq!(cl.num_ports(), 4);
        assert!(!cl.has_linear_order());
        assert_eq!(cl.to_string(), "clustered-4x-mesh-4x4");
        let topo = cl.build().unwrap();
        assert_eq!(topo.num_nodes(), 64);
        assert_eq!(TopologySpec::parse(&cl.to_string()), Ok(cl));
    }

    #[test]
    fn scale_family_malformed_specs_are_rejected() {
        // No single-size form.
        assert!(matches!(
            TopologySpec::from_name("min", 64),
            Err(TopologyError::InvalidSpec { .. })
        ));
        assert!(TopologySpec::parse("min-64").is_err());
        assert!(TopologySpec::parse("min-4xq").is_err());
        assert!(
            TopologySpec::parse("clustered-4-mesh-4x4").is_err(),
            "missing x"
        );
        assert!(TopologySpec::parse("clustered-4x-warp-16").is_err());
        // Nested implicit families are unrepresentable.
        assert!(TopologySpec::parse("clustered-2x-min-2x2").is_err());
        assert!(TopologySpec::parse("clustered-2x-clustered-2x-ring-6").is_err());
        // Stage/cluster counts that parse but violate constraints fail at
        // build time with the constraint in the message.
        assert!(TopologySpec::parse("min-4x0").unwrap().build().is_err());
        assert!(TopologySpec::parse("clustered-0x-mesh-4x4")
            .unwrap()
            .build()
            .is_err());
    }

    /// FNV-1a-64 over the whole dense channel table — every channel's
    /// `(id, kind, from, to, port, vcs, dateline, label)` and both
    /// `(node, port)` id maps — and over every unicast path, broadcast
    /// stream and one sparse multicast per source. Results, caches and
    /// goldens are keyed by these ids and walk these routes.
    fn table_and_route_digests(topo: &dyn Topology) -> (u64, u64) {
        fn fnv(h: u64, words: &[u64]) -> u64 {
            words.iter().flat_map(|w| w.to_le_bytes()).fold(h, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let net = topo.network();
        let mut table = 0xcbf2_9ce4_8422_2325;
        for c in net.channels() {
            let label: Vec<u64> = c.label.bytes().map(u64::from).collect();
            table = fnv(
                table,
                &[
                    c.id.0.into(),
                    c.kind as u64,
                    c.from.0.into(),
                    c.to.0.into(),
                    c.port.0.into(),
                    c.vcs.into(),
                    c.dateline.into(),
                    label.len() as u64,
                ],
            );
            table = fnv(table, &label);
        }
        let nodes = || (0..topo.num_nodes() as u32).map(NodeId);
        for node in nodes() {
            for port in (0..topo.num_ports() as u8).map(PortId) {
                let (inj, ej) = (
                    net.injection_channel(node, port),
                    net.ejection_channel(node, port),
                );
                table = fnv(table, &[inj.0.into(), ej.0.into()]);
            }
        }
        let mut routes = 0xcbf2_9ce4_8422_2325;
        let path = |h: u64, p: &Path| {
            let hops: Vec<u64> = p
                .hops
                .iter()
                .flat_map(|hop| [hop.channel.0.into(), hop.vc.0.into()])
                .collect();
            fnv(
                fnv(h, &[p.src.0.into(), p.dst.0.into(), p.port.0.into()]),
                &hops,
            )
        };
        for src in nodes() {
            for dst in nodes().filter(|&d| d != src) {
                routes = path(routes, &topo.unicast_path(src, dst));
            }
            let sparse: Vec<NodeId> = nodes()
                .filter(|&d| d != src && (d.0 + src.0) % 3 == 0)
                .collect();
            let streams = [
                topo.broadcast_streams(src),
                topo.multicast_streams(src, &sparse),
            ];
            for stream in streams.iter().flatten() {
                let targets: Vec<u64> = stream.targets.iter().map(|t| t.0.into()).collect();
                routes = fnv(path(routes, &stream.path), &targets);
                routes = fnv(routes, &[stream.port.0.into()]);
            }
        }
        (table, routes)
    }

    /// `Topology::translate`'s contract, checked for every `by` wherever
    /// it answers: a bijection on channels keeping kind and port, node
    /// `v`'s injection and ejection channels onto those of `g(v)`, links
    /// onto links between the images, and every route of node 0 onto the
    /// route from `by` to the image destination.
    #[test]
    fn translate_is_a_routing_automorphism() {
        let specs = [
            "quarc-8",
            "quarc-16",
            "ring-4",
            "ring-9",
            "spidergon-6",
            "spidergon-10",
            "torus-3x5",
            "torus-4x4",
            "hypercube-2",
            "hypercube-4",
        ];
        for spec in specs {
            let topo = TopologySpec::parse(spec).unwrap().build().unwrap();
            let net = topo.network();
            let (n, nc) = (topo.num_nodes(), net.num_channels());
            for by in (0..n as u32).map(NodeId) {
                let case = format!("{spec} by {by:?}");
                let image: Vec<ChannelId> = (0..nc as u32)
                    .map(|c| topo.translate(ChannelId(c), by).expect(&case))
                    .collect();
                let mut sorted = image.clone();
                sorted.sort_unstable();
                assert!(
                    sorted.iter().map(|c| c.idx()).eq(0..nc),
                    "{case}: no bijection"
                );
                // `g` on nodes, read off node v's first injection channel.
                let g = |v: NodeId| {
                    let inj = net.injection_channel(v, PortId(0));
                    net.channel(image[inj.idx()]).from
                };
                assert_eq!(g(NodeId(0)), by, "{case}");
                for c in net.channels() {
                    let to = net.channel(image[c.id.idx()]);
                    assert_eq!((to.kind, to.port), (c.kind, c.port), "{case}: {}", c.label);
                    assert_eq!(
                        (to.from, to.to),
                        (g(c.from), g(c.to)),
                        "{case}: {}",
                        c.label
                    );
                }
                for v in (0..n as u32).map(NodeId) {
                    for port in (0..topo.num_ports() as u8).map(PortId) {
                        let (inj, ej) = (
                            net.injection_channel(v, port),
                            net.ejection_channel(v, port),
                        );
                        assert_eq!(
                            image[inj.idx()],
                            net.injection_channel(g(v), port),
                            "{case}"
                        );
                        assert_eq!(image[ej.idx()], net.ejection_channel(g(v), port), "{case}");
                    }
                }
                for d in (1..n as u32).map(NodeId) {
                    let (from_0, from_by) =
                        (topo.unicast_path(NodeId(0), d), topo.unicast_path(by, g(d)));
                    let mapped = from_0.channels().map(|c| image[c.idx()]);
                    assert!(mapped.eq(from_by.channels()), "{case}: route to {d:?}");
                }
            }
        }
        for spec in ["mesh-4x4", "mesh-3x5", "min-4x2", "clustered-4x-ring-6"] {
            let topo = TopologySpec::parse(spec).unwrap().build().unwrap();
            for c in [0, topo.network().num_channels() as u32 - 1].map(ChannelId) {
                assert_eq!(topo.translate(c, NodeId(1)), None, "{spec}");
            }
        }
    }

    /// Recorded on the commit before the dense layout and the rim moved
    /// behind `Network::dense` and `rim.rs`.
    #[test]
    fn dense_channel_tables_and_routes_are_pinned() {
        for (spec, table, routes) in [
            ("quarc-16", 0x85f6499b018db9e9_u64, 0xecf1971c6de911e7_u64),
            ("quarc-64", 0xab8b8d2b88cc1029, 0xa41fcc83f145e43e),
            ("ring-6", 0x6fb72a09b379ca25, 0xa8d1bf9400609d9f),
            ("ring-9", 0x946e62b7e0777229, 0x5f192b510df24369),
            ("spidergon-8", 0xcdca075b356840c5, 0xdee493df1fd7b8ae),
            ("spidergon-18", 0xee98fbdc7c3aa2a8, 0x4f93ed75b208f1be),
            ("mesh-4x3", 0x21f363e302506280, 0xb84435512d47a4a8),
            ("mesh-8x8", 0x5bc499da88505d65, 0xfe61c7fe63b20ca3),
            ("torus-3x4", 0x3cbf7e861944c905, 0x96c0e7e28b5d4267),
            ("torus-5x5", 0xdb01379861ec2cd9, 0x5bfda7e0c7b04a51),
            ("hypercube-3", 0xccd0ba6fa8417525, 0xace97b16c01040f4),
            ("hypercube-6", 0xc1357b04123455e5, 0x78a92dbe012f42f2),
        ] {
            let topo = TopologySpec::parse(spec).unwrap().build().unwrap();
            let got = table_and_route_digests(topo.as_ref());
            assert_eq!(got, (table, routes), "{spec}");
        }
    }
}
