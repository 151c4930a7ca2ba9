//! Topology builders: the paper's linear chains and star (Figures 5 & 6),
//! plus grids and crosses.
//!
//! Every topology carries both *static routes* (the paper "used static
//! routing to force the topologies") and *unit geometry*: node positions
//! with adjacent nodes at distance 1.0. Under
//! [`crate::world::MediumKind::SharedDomain`] the geometry is ignored and
//! all nodes share one carrier-sense domain (the testbed's 2.5 m
//! packing); under [`crate::world::MediumKind::Spatial`] the unit
//! geometry is scaled by the physical spacing and fed through the
//! [`hydra_phy::LinkBudget`] to produce range-limited links.

use hydra_net::{ArpTable, NetConfig, NetStack, RouteTable};
use hydra_phy::{GridIndex, LinkBudget, PhyProfile, Placement};
use hydra_sim::Rng;
use hydra_wire::Ipv4Addr;

/// RNG sub-stream of the mesh seed that places nodes.
const MESH_PLACEMENT_STREAM: u64 = 0x4d45_5348; // "MESH"
/// RNG sub-stream of the mesh seed that draws default flow endpoints.
const MESH_FLOW_STREAM: u64 = 0x464c_4f57; // "FLOW"

/// A topology: node count, static routes, and unit geometry.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of nodes.
    pub n: usize,
    /// Host routes: (at_node, destination, next_hop).
    pub routes: Vec<(usize, Ipv4Addr, Ipv4Addr)>,
    /// Node positions in *unit* coordinates: adjacent (one-hop) nodes sit
    /// at distance 1.0. Scaled by the physical spacing when a spatial
    /// medium is built.
    pub positions: Vec<(f64, f64)>,
    /// Human-readable name.
    pub name: &'static str,
}

impl Topology {
    /// A linear chain with `hops` hops (`hops + 1` nodes): node 0 is the
    /// paper's node 1 (TCP server / traffic source), the last node is the
    /// client/sink (paper Figure 5).
    pub fn linear(hops: usize) -> Topology {
        assert!(hops >= 1);
        let n = hops + 1;
        let mut routes = Vec::new();
        for at in 0..n {
            for dst in 0..n {
                if at == dst {
                    continue;
                }
                let next = if dst > at { at + 1 } else { at - 1 };
                routes.push((at, Ipv4Addr::from_node_id(dst as u16), Ipv4Addr::from_node_id(next as u16)));
            }
        }
        Topology {
            n,
            routes,
            positions: (0..n).map(|i| (i as f64, 0.0)).collect(),
            name: match hops {
                1 => "1-hop",
                2 => "2-hop linear",
                3 => "3-hop linear",
                _ => "linear",
            },
        }
    }

    /// The paper's star (Figure 6): four nodes, center relay.
    ///
    /// Index mapping to the paper's numbering: 0 ↔ node 1 (the common
    /// TCP client/receiver), 1 ↔ node 2 (center relay), 2 ↔ node 3 and
    /// 3 ↔ node 4 (the two TCP servers). Both sessions run two hops
    /// through the center; at the relay, TCP data flows toward node 0
    /// while TCP ACKs flow back toward nodes 2 and 3 (paper §6.4.5).
    pub fn star() -> Topology {
        let ip = |i: usize| Ipv4Addr::from_node_id(i as u16);
        let mut routes = Vec::new();
        // Leaves reach everyone through the center (node 1).
        for leaf in [0usize, 2, 3] {
            for dst in 0..4 {
                if dst != leaf {
                    routes.push((leaf, ip(dst), ip(1)));
                }
            }
        }
        // The center is directly connected to every leaf.
        for dst in [0usize, 2, 3] {
            routes.push((1, ip(dst), ip(dst)));
        }
        // Three arms at 120° around the center relay, one hop long.
        let arm = |deg: f64| (deg.to_radians().cos(), deg.to_radians().sin());
        let positions = vec![arm(90.0), (0.0, 0.0), arm(210.0), arm(330.0)];
        Topology { n: 4, routes, positions, name: "star" }
    }

    /// A `w × h` grid with dimension-ordered (x-first) static routing.
    ///
    /// Node `(x, y)` has index `y * w + x`. A packet first walks along
    /// its row to the destination column, then along that column —
    /// the classic deadlock-free mesh route. All nodes still share one
    /// carrier-sense domain (the paper's testbed packs nodes at 2.5 m),
    /// so the grid stresses scheduling, not spatial reuse.
    pub fn grid(w: usize, h: usize) -> Topology {
        assert!(w >= 1 && h >= 1 && w * h >= 2, "grid needs at least 2 nodes");
        let n = w * h;
        let ip = |i: usize| Ipv4Addr::from_node_id(i as u16);
        let mut routes = Vec::new();
        for at in 0..n {
            let (ax, ay) = (at % w, at / w);
            for dst in 0..n {
                if at == dst {
                    continue;
                }
                let (dx, dy) = (dst % w, dst / w);
                let next = if ax != dx {
                    // Walk the row toward the destination column.
                    if dx > ax {
                        at + 1
                    } else {
                        at - 1
                    }
                } else if dy > ay {
                    at + w
                } else {
                    at - w
                };
                routes.push((at, ip(dst), ip(next)));
            }
        }
        let positions = (0..n).map(|i| ((i % w) as f64, (i / w) as f64)).collect();
        Topology { n, routes, positions, name: "grid" }
    }

    /// A cross: four arm nodes around one shared center relay (node 4),
    /// carrying two sessions that intersect at the relay — west→east
    /// (0→1) and north→south (2→3). Where the paper's star (Figure 6)
    /// converges two sessions on one *client*, the cross converges them
    /// only on the *relay*, isolating cross-session aggregation at the
    /// forwarding node.
    pub fn cross() -> Topology {
        let ip = |i: usize| Ipv4Addr::from_node_id(i as u16);
        let mut routes = Vec::new();
        for arm in 0..4usize {
            for dst in 0..5 {
                if dst != arm {
                    routes.push((arm, ip(dst), ip(4)));
                }
            }
        }
        for dst in 0..4usize {
            routes.push((4, ip(dst), ip(dst)));
        }
        // West, east, north, south arms around the center at the origin.
        let positions = vec![(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.0)];
        Topology { n: 5, routes, positions, name: "cross" }
    }

    /// A uniform-random mesh: `nodes` nodes scattered over an
    /// `area_m × area_m` square. Unlike the hand-drawn topologies the
    /// geometry is authored directly in **metres** (one unit = 1 m), so
    /// it is meant to run under `medium=spatial:1.0`; placement depends
    /// only on `seed` (via its own RNG sub-stream), never on the run
    /// seed, so every replication of a scenario shares the same mesh.
    ///
    /// The returned topology has **no routes**: random meshes route
    /// on demand per flow (see [`Topology::install_greedy_routes`]) —
    /// a full n×n host-route table would dwarf the thousand-node worlds
    /// this topology exists for.
    pub fn random_mesh(nodes: usize, area_m: u32, seed: u64) -> Topology {
        assert!(nodes >= 2, "a mesh needs at least 2 nodes");
        assert!(area_m >= 1, "mesh area must be at least 1 m");
        let side = f64::from(area_m);
        let mut rng = Rng::for_stream(seed, MESH_PLACEMENT_STREAM);
        let positions = (0..nodes).map(|_| (rng.f64() * side, rng.f64() * side)).collect();
        Topology { n: nodes, routes: Vec::new(), positions, name: "mesh" }
    }

    /// Builds the greedy geographic router for this topology's
    /// geometry, treating positions as metres (the mesh convention).
    /// Adjacency is the delivery-range graph under the same
    /// [`LinkBudget`] the spatial medium uses at spacing 1.0.
    fn mesh_router(&self) -> MeshRouter {
        let placement = Placement::new(self.positions.clone());
        let budget = LinkBudget::hydra(PhyProfile::hydra().default_snr_db);
        // Delivery range < cell size, so the 3×3 neighbourhood covers
        // every candidate (same margin trick as the sparse medium).
        let index = GridIndex::new(&placement, budget.delivery_range_m() * (1.0 + 1e-6));
        let mut scratch = Vec::new();
        let neighbors = (0..self.n)
            .map(|i| {
                index.candidates_near(&placement, i, &mut scratch);
                let mut nbs: Vec<u32> = scratch
                    .iter()
                    .copied()
                    .filter(|&j| {
                        j as usize != i && budget.classify(placement.distance_m(i, j as usize)).delivers
                    })
                    .collect();
                nbs.sort_unstable();
                nbs
            })
            .collect();
        MeshRouter { placement, neighbors }
    }

    /// Installs greedy-geographic host routes for the given directed
    /// endpoint pairs, deduplicating the path segments shared between
    /// flows. TCP callers must pass both directions (ACKs route too).
    ///
    /// # Panics
    /// Panics when greedy forwarding gets stuck before reaching `dst` —
    /// callers that can tolerate unroutable pairs take them from
    /// [`Topology::try_mesh_default_pairs`], which keeps only routable ones.
    pub fn install_greedy_routes<I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let router = self.mesh_router();
        let mut have: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        for (src, dst) in pairs {
            let path = router.path(src, dst).unwrap_or_else(|| {
                panic!("mesh routing: greedy forwarding cannot reach node {dst} from node {src}")
            });
            for w in path.windows(2) {
                let (at, next) = (w[0], w[1]);
                if have.insert((at, dst)) {
                    self.routes.push((
                        at,
                        Ipv4Addr::from_node_id(dst as u16),
                        Ipv4Addr::from_node_id(next as u16),
                    ));
                }
            }
        }
    }

    /// The default flow endpoints for a random mesh: up to
    /// `(nodes / 4).clamp(1, 256)` distinct src→dst pairs, drawn from
    /// the mesh seed's flow sub-stream and kept only when greedy
    /// routing reaches the destination *in both directions* (TCP needs
    /// the ACK path). Deterministic in `(nodes, area_m, seed)`.
    pub fn mesh_default_pairs(nodes: usize, area_m: u32, seed: u64) -> Vec<(usize, usize)> {
        let pairs = Self::try_mesh_default_pairs(nodes, area_m, seed);
        assert!(
            !pairs.is_empty(),
            "mesh nodes={nodes} area={area_m} seed={seed}: no routable flow pair found"
        );
        pairs
    }

    /// [`Topology::mesh_default_pairs`] without the non-empty assertion:
    /// returns an empty list when the placement has no bidirectionally
    /// routable pair at all (callers that generate placements at random
    /// — e.g. the sparse/dense equivalence property test — skip those
    /// rather than panic).
    pub fn try_mesh_default_pairs(nodes: usize, area_m: u32, seed: u64) -> Vec<(usize, usize)> {
        let topo = Topology::random_mesh(nodes, area_m, seed);
        let router = topo.mesh_router();
        let want = (nodes / 4).clamp(1, 256);
        let mut rng = Rng::for_stream(seed, MESH_FLOW_STREAM);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        // Bounded scan: sparse or disconnected meshes yield fewer flows
        // rather than spinning forever.
        for _ in 0..want * 64 {
            if pairs.len() >= want {
                break;
            }
            let src = rng.index(nodes);
            let dst = rng.index(nodes);
            if src == dst || pairs.contains(&(src, dst)) {
                continue;
            }
            if router.routable(src, dst) && router.routable(dst, src) {
                pairs.push((src, dst));
            }
        }
        pairs
    }

    /// Builds the per-node network stacks.
    pub fn build_net_stacks(&self) -> Vec<NetStack> {
        // Group the flat route list per node in one pass (the per-node
        // filter scan was O(nodes × routes) — noticeable at mesh scale).
        let mut tables: Vec<RouteTable> = (0..self.n).map(|_| RouteTable::new()).collect();
        for (at, dst, next) in &self.routes {
            tables[*at].add(*dst, *next);
        }
        tables
            .into_iter()
            .enumerate()
            .map(|(i, table)| {
                NetStack::new(NetConfig::for_node(i as u16), table, ArpTable::for_nodes(self.n as u16))
            })
            .collect()
    }
}

/// Greedy geographic routing over a mesh topology's delivery graph.
///
/// Built once per topology by [`Topology::mesh_router`], then queried
/// per flow endpoint pair. The forwarding rule is the classic one: hand
/// the packet to the delivery-range neighbour strictly closer to the
/// destination (nearest wins, ties break to the smallest node index),
/// and fail at a local minimum — pairs that greedy routing cannot serve
/// simply don't get flows, mirroring how a real geographic protocol
/// would fall back to other traffic.
struct MeshRouter {
    placement: Placement,
    /// Delivery-range neighbours per node, ascending by index.
    neighbors: Vec<Vec<u32>>,
}

impl MeshRouter {
    /// Greedy next hop from `at` toward `dst`: the neighbour strictly
    /// closer to `dst` (nearest first; the ascending neighbour order
    /// breaks ties to the smallest index). `None` at a local minimum.
    fn next_hop(&self, at: usize, dst: usize) -> Option<usize> {
        let here = self.placement.distance_m(at, dst);
        let mut best: Option<(f64, usize)> = None;
        for &nb in &self.neighbors[at] {
            let nb = nb as usize;
            if nb == dst {
                return Some(dst);
            }
            let d = self.placement.distance_m(nb, dst);
            if d < here && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, nb));
            }
        }
        best.map(|(_, nb)| nb)
    }

    /// The full greedy path `src → … → dst` (inclusive), or `None` if
    /// forwarding gets stuck. Each hop strictly shrinks the distance to
    /// `dst`, so the walk always terminates.
    pub fn path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        let mut path = vec![src];
        let mut at = src;
        while at != dst {
            at = self.next_hop(at, dst)?;
            path.push(at);
        }
        Some(path)
    }

    /// True when greedy forwarding reaches `dst` from `src`.
    pub fn routable(&self, src: usize, dst: usize) -> bool {
        self.path(src, dst).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_2hop_routes_through_relay() {
        let t = Topology::linear(2);
        assert_eq!(t.n, 3);
        let stacks = t.build_net_stacks();
        // Node 0 reaches node 2 via node 1.
        assert_eq!(stacks[0].routes.next_hop(Ipv4Addr::from_node_id(2)), Some(Ipv4Addr::from_node_id(1)));
        // The relay reaches both ends directly.
        assert_eq!(stacks[1].routes.next_hop(Ipv4Addr::from_node_id(2)), Some(Ipv4Addr::from_node_id(2)));
        assert_eq!(stacks[1].routes.next_hop(Ipv4Addr::from_node_id(0)), Some(Ipv4Addr::from_node_id(0)));
    }

    #[test]
    fn linear_3hop_has_two_relays() {
        let t = Topology::linear(3);
        assert_eq!(t.n, 4);
        let stacks = t.build_net_stacks();
        // 0 -> 3 goes 0 -> 1 -> 2 -> 3.
        assert_eq!(stacks[0].routes.next_hop(Ipv4Addr::from_node_id(3)), Some(Ipv4Addr::from_node_id(1)));
        assert_eq!(stacks[1].routes.next_hop(Ipv4Addr::from_node_id(3)), Some(Ipv4Addr::from_node_id(2)));
        assert_eq!(stacks[2].routes.next_hop(Ipv4Addr::from_node_id(0)), Some(Ipv4Addr::from_node_id(1)));
    }

    #[test]
    fn grid_routes_x_first() {
        // 3x2 grid: 0 1 2 / 3 4 5. From 0 to 5: row to 2, then down.
        let t = Topology::grid(3, 2);
        assert_eq!(t.n, 6);
        let stacks = t.build_net_stacks();
        assert_eq!(stacks[0].routes.next_hop(Ipv4Addr::from_node_id(5)), Some(Ipv4Addr::from_node_id(1)));
        assert_eq!(stacks[2].routes.next_hop(Ipv4Addr::from_node_id(5)), Some(Ipv4Addr::from_node_id(5)));
        // Reverse path: 5 walks its row back to column 0, then up.
        assert_eq!(stacks[5].routes.next_hop(Ipv4Addr::from_node_id(0)), Some(Ipv4Addr::from_node_id(4)));
        assert_eq!(stacks[3].routes.next_hop(Ipv4Addr::from_node_id(0)), Some(Ipv4Addr::from_node_id(0)));
    }

    #[test]
    fn cross_routes_through_center() {
        let t = Topology::cross();
        assert_eq!(t.n, 5);
        let stacks = t.build_net_stacks();
        // West (0) reaches east (1) via the center (4).
        assert_eq!(stacks[0].routes.next_hop(Ipv4Addr::from_node_id(1)), Some(Ipv4Addr::from_node_id(4)));
        // The center delivers directly to every arm.
        for arm in 0..4u16 {
            assert_eq!(
                stacks[4].routes.next_hop(Ipv4Addr::from_node_id(arm)),
                Some(Ipv4Addr::from_node_id(arm))
            );
        }
    }

    #[test]
    fn unit_geometry_matches_node_count_and_hop_spacing() {
        let dist = |t: &Topology, a: usize, b: usize| {
            let (ax, ay) = t.positions[a];
            let (bx, by) = t.positions[b];
            ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
        };
        for t in [Topology::linear(3), Topology::star(), Topology::grid(3, 2), Topology::cross()] {
            assert_eq!(t.positions.len(), t.n, "{}", t.name);
        }
        // One-hop neighbours sit at unit distance in every family.
        let lin = Topology::linear(3);
        assert!((dist(&lin, 1, 2) - 1.0).abs() < 1e-12);
        let grid = Topology::grid(3, 2);
        assert!((dist(&grid, 0, 1) - 1.0).abs() < 1e-12);
        assert!((dist(&grid, 0, 3) - 1.0).abs() < 1e-12);
        let star = Topology::star();
        for leaf in [0usize, 2, 3] {
            assert!((dist(&star, leaf, 1) - 1.0).abs() < 1e-12);
        }
        let cross = Topology::cross();
        for arm in 0..4 {
            assert!((dist(&cross, arm, 4) - 1.0).abs() < 1e-12);
        }
        // Opposite cross arms are two hops apart spatially as well.
        assert!((dist(&cross, 0, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn random_mesh_is_deterministic_and_in_bounds() {
        let a = Topology::random_mesh(50, 40, 7);
        let b = Topology::random_mesh(50, 40, 7);
        assert_eq!(a.positions, b.positions, "placement depends only on the mesh seed");
        assert_eq!(a.n, 50);
        assert_eq!(a.name, "mesh");
        assert!(a.routes.is_empty(), "meshes route per flow, not all-pairs");
        for &(x, y) in &a.positions {
            assert!((0.0..40.0).contains(&x) && (0.0..40.0).contains(&y));
        }
        let c = Topology::random_mesh(50, 40, 8);
        assert_ne!(a.positions, c.positions, "different seeds scatter differently");
    }

    #[test]
    fn mesh_router_walks_strictly_toward_the_destination() {
        let t = Topology::random_mesh(60, 50, 3);
        let router = t.mesh_router();
        let p = Placement::new(t.positions.clone());
        let delivery = LinkBudget::hydra(PhyProfile::hydra().default_snr_db).delivery_range_m();
        let mut routed = 0;
        for src in 0..t.n {
            for dst in 0..t.n {
                if src == dst {
                    continue;
                }
                let Some(path) = router.path(src, dst) else { continue };
                routed += 1;
                assert_eq!((path[0], *path.last().unwrap()), (src, dst));
                for w in path.windows(2) {
                    assert!(p.distance_m(w[0], w[1]) <= delivery, "hop exceeds delivery range");
                    assert!(
                        p.distance_m(w[1], dst) < p.distance_m(w[0], dst),
                        "greedy hop must shrink the distance to dst"
                    );
                }
            }
        }
        assert!(routed > 0, "some pair must be greedily routable");
    }

    #[test]
    fn install_greedy_routes_builds_working_next_hops() {
        let mut t = Topology::random_mesh(60, 50, 3);
        let pairs = Topology::mesh_default_pairs(60, 50, 3);
        assert!(!pairs.is_empty() && pairs.len() <= 15, "want ≈ n/4 pairs, got {}", pairs.len());
        t.install_greedy_routes(pairs.iter().flat_map(|&(s, d)| [(s, d), (d, s)]));
        let router = t.mesh_router();
        let stacks = t.build_net_stacks();
        for &(src, dst) in &pairs {
            // Every node along the greedy path knows the next hop, in
            // both directions (the TCP ACK path).
            for (a, b) in [(src, dst), (dst, src)] {
                let path = router.path(a, b).expect("default pairs are routable");
                for w in path.windows(2) {
                    assert_eq!(
                        stacks[w[0]].routes.next_hop(Ipv4Addr::from_node_id(b as u16)),
                        Some(Ipv4Addr::from_node_id(w[1] as u16)),
                    );
                }
            }
        }
    }

    #[test]
    fn star_routes_through_center() {
        let t = Topology::star();
        let stacks = t.build_net_stacks();
        // Server (2) reaches client (0) via center (1).
        assert_eq!(stacks[2].routes.next_hop(Ipv4Addr::from_node_id(0)), Some(Ipv4Addr::from_node_id(1)));
        // Center delivers directly.
        assert_eq!(stacks[1].routes.next_hop(Ipv4Addr::from_node_id(0)), Some(Ipv4Addr::from_node_id(0)));
        // Client reaches both servers via the center.
        assert_eq!(stacks[0].routes.next_hop(Ipv4Addr::from_node_id(3)), Some(Ipv4Addr::from_node_id(1)));
    }
}
