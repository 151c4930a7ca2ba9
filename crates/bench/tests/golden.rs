//! Golden regression tests spanning hot-path refactors.
//!
//! The zero-copy/profiling work (PR 4) must not move a single number:
//! every `ScenarioSpec::stable_hash` (and therefore every derived world
//! seed and every published table) has to survive byte-identically. The
//! values below were captured from the pre-refactor implementation; if
//! one changes, a refactor has altered either the spec's canonical
//! rendering or the simulation itself — both invalidate the persistent
//! result cache and every published table.

use hydra_bench::experiments::{listing, shipped_sweeps};
use hydra_bench::ExperimentRunner;
use hydra_netsim::ScenarioSpec;

/// FNV-1a over the concatenated per-spec stable hashes of one sweep.
fn combined_hash(specs: &[ScenarioSpec]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for spec in specs {
        for b in spec.stable_hash().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Captured from the pre-refactor build (PR 3 tree). One entry per
/// shipped sweep, in registry order.
const GOLDEN_SWEEP_HASHES: &[(&str, u64)] = &[
    ("fig07_agg_size", 0xbf104e6c20eed677),
    ("table2_udp", 0x30d1b9435a616028),
    ("fig08_unicast_tcp", 0x63e14efccfc27625),
    ("fig09_flooding", 0x7875005895c54311),
    ("fig10_fixed_bcast", 0xba9549667e2eea5b),
    ("fig11_2hop", 0x8053141a0ecc60a0),
    ("fig12_topologies", 0xc0c869f5a83cbea1),
    ("fig13_delayed", 0xd448aa1279be383a),
    ("fig14_no_forward", 0xea79594e062e5586),
    ("table3_relay", 0x3c6ca03292aeb2e4),
    ("table4_time_overhead", 0x6f53b92fc0906e83),
    ("table5_6_7_star", 0x523f020929f18a4d),
    ("table8_frame_sizes", 0xf4cafb0865b05efb),
    ("ext_topologies", 0xe9b73a32a103d0d0),
    ("ext_spatial_reuse", 0x40f52f27f6332710),
    ("ext_spatial_rts", 0x42622e673bef9856),
    // New with the per-flow traffic engine (captured at introduction);
    // every pre-existing entry above/below is untouched.
    ("ext_mixed", 0xbc5c5321887b7b51),
    // New with the mesh-scale extension (captured at introduction).
    ("ext_scale", 0x5f894a40d86f0830),
    // New with the bursty-channel extension (captured at introduction).
    ("ext_burst", 0x387d4757a4e8ce73),
    ("ablation_block_ack", 0x1e5465f8ff8155a3),
    ("ablation_rate_adaptive_sizing", 0x3c72c8e2a0726b63),
    ("ablation_dba_flush", 0x7b8dbb68b66cf66c),
    ("ablation_rts_cts", 0xbbd542cf9d9842e1),
    ("ablation_delayed_ack", 0xc59840967b49733e),
    ("ablation_broadcast_position", 0x7c7195d758d3b552),
];

#[test]
fn shipped_sweep_stable_hashes_are_golden() {
    let sweeps = shipped_sweeps();
    assert_eq!(sweeps.len(), GOLDEN_SWEEP_HASHES.len(), "sweep registry changed size");
    for ((name, specs), (g_name, g_hash)) in sweeps.iter().zip(GOLDEN_SWEEP_HASHES) {
        assert_eq!(name, g_name, "sweep registry order changed");
        assert_eq!(
            combined_hash(specs),
            *g_hash,
            "stable hashes of sweep `{name}` drifted: derived seeds, the result \
             cache, and published tables are all invalidated (got {:#018x})",
            combined_hash(specs)
        );
    }
}

/// The smoke sweep's per-seed column as `all examples/sweeps/smoke.scn`
/// lists it. Captured from the pre-refactor build: 4 scenarios × 2
/// replications.
const GOLDEN_SMOKE_MBPS: &[&str] = &["0.836 0.836", "0.543 0.502", "0.150 0.134", "0.830 0.844"];

#[test]
fn smoke_sweep_table_numbers_are_golden() {
    let path = "examples/sweeps/smoke.scn";
    let text = std::fs::read_to_string(format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR")))
        .expect("read smoke.scn");
    let file = hydra_netsim::parse_scn_file(&text).expect("parse smoke.scn");
    assert_eq!(file.specs.len(), GOLDEN_SMOKE_MBPS.len());
    let cells = ExperimentRunner::sequential().run_sweep(&file.specs, 2);
    let table = listing(path, &file, 2, &cells);
    for (row, golden) in table.rows.iter().zip(GOLDEN_SMOKE_MBPS) {
        assert_eq!(row[3], *golden, "throughput drifted for `{}`", row[1]);
    }
}
