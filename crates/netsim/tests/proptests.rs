//! Property tests for the sparse spatial medium: on random small
//! placements, a world run on the sparse backend must produce
//! event-for-event identical outcomes to the same world run on the
//! dense O(n²) reference backend — for both medium modes (the paper's
//! shared domain and spatial placements with hidden terminals), and
//! for heterogeneous TCP + CBR traffic.

use proptest::prelude::*;

use hydra_netsim::{FlowTraffic, LinkErrorSpec, MediumKind, Policy, ScenarioSpec, Topology, TopologyKind};
use hydra_phy::{LinkErrorModel, Rate};
use hydra_sim::Duration;

/// A short mixed-traffic scenario on a random ≤12-node placement.
/// Returns `None` when the placement has no bidirectionally routable
/// pair (nothing to simulate — the property is vacuous there).
fn mesh_spec(nodes: usize, area_m: u32, seed: u64, spatial: bool) -> Option<ScenarioSpec> {
    if Topology::try_mesh_default_pairs(nodes, area_m, seed).is_empty() {
        return None;
    }
    let kind = TopologyKind::RandomMesh { nodes, area_m, seed };
    let mut spec = ScenarioSpec::udp(kind, Policy::Ba, Rate::R1_30, Duration::from_millis(30));
    if spatial {
        spec = spec.spatial(1.0);
    }
    spec.warmup = Duration::from_millis(100);
    spec.duration = Duration::from_millis(400);
    // Every other flow becomes a small TCP transfer so the equivalence
    // covers the mixed engine (window + completion semantics at once).
    let mut flows = spec.effective_flows();
    for f in flows.iter_mut().step_by(2) {
        f.traffic = FlowTraffic::FileTransfer { bytes: 2 * 1024 };
    }
    Some(spec.with_flow_specs(flows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Spatial mode: grid-binned neighbour lists vs the all-pairs scan.
    #[test]
    fn sparse_equals_dense_on_random_spatial_placements(
        nodes in 3usize..13,
        area_m in 8u32..40,
        seed in 0u64..1_000_000,
    ) {
        if let Some(spec) = mesh_spec(nodes, area_m, seed, true) {
            prop_assert_eq!(spec.medium, MediumKind::Spatial { spacing_m: 1.0 });
            let sparse = spec.run();
            let dense = spec.run_dense_reference();
            prop_assert_eq!(sparse, dense, "sparse diverged from dense reference (spatial)");
        }
    }

    /// Shared-domain (paper) mode: the same placements, but every node
    /// hears every other — the medium is a full mesh and the sparse
    /// neighbour lists are total.
    #[test]
    fn sparse_equals_dense_on_shared_domain(
        nodes in 3usize..13,
        area_m in 8u32..40,
        seed in 0u64..1_000_000,
    ) {
        if let Some(spec) = mesh_spec(nodes, area_m, seed, false) {
            prop_assert_eq!(spec.medium, MediumKind::SharedDomain);
            let sparse = spec.run();
            let dense = spec.run_dense_reference();
            prop_assert_eq!(sparse, dense, "sparse diverged from dense reference (shared domain)");
        }
    }

    /// Per-link channel errors (bursty loss + dup + reorder) on random
    /// placements: the link-error RNG streams are stateless per-link
    /// derivations, so the sparse and dense engines must see the same
    /// per-link draw sequences.
    #[test]
    fn link_error_worlds_are_engine_independent(
        nodes in 3usize..10,
        area_m in 8u32..30,
        seed in 0u64..1_000_000,
        p_gb in 0.01f64..0.5,
        p_bg in 0.05f64..0.9,
        ber_bad in 0.05f64..0.5,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
    ) {
        if let Some(mut spec) = mesh_spec(nodes, area_m, seed, true) {
            spec.link_error = Some(LinkErrorSpec {
                model: Some(LinkErrorModel::GilbertElliott { p_gb, p_bg, ber_good: 0.0, ber_bad }),
                dup,
                reorder,
            });
            let sparse = spec.run();
            prop_assert_eq!(&spec.run_dense_reference(), &sparse, "dense diverged under link errors");
        }
    }
}
