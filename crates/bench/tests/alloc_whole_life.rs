//! Whole-life allocation guard: what one *short* world costs from
//! `build()` to drop, per dispatched event.
//!
//! `alloc_regression.rs` warms its world up for two virtual seconds and
//! measures a steady-state window, so it cannot see what a world pays
//! once: queue storage, scratch pools, per-socket buffers. The paper's
//! evidence is hundreds of worlds that live a few thousand events each
//! and never reach a steady state — there a per-world cost *is* the
//! per-event cost. (The calendar queue used to allocate one `Vec` per
//! bucket it touched, about 2 270 per paper cell and a fifth of all
//! allocations, and no warmed-up guard or warm kernel could notice.)
//!
//! This file holds exactly one test: the counters are process-wide, so
//! it must not share its process with concurrently allocating tests.

use hydra_netsim::{parse_scn_file, ScenarioSpec};
use hydra_sim::alloc_stats;

#[global_allocator]
static ALLOC: hydra_sim::CountingAlloc = hydra_sim::CountingAlloc;

/// Cell `index` of a shipped sweep file.
fn cell(text: &str, index: usize) -> ScenarioSpec {
    parse_scn_file(text).expect("shipped sweep parses").specs.swap_remove(index)
}

/// Allocations per 1 000 events over the whole life of one run of
/// `spec`: build, run to its end, outcome and world dropped.
fn whole_life_allocs_per_kevent(name: &str, spec: &ScenarioSpec) -> f64 {
    let before = alloc_stats();
    let events = spec.run().perf.events_processed;
    let allocs = alloc_stats().since(before).allocations;
    assert!(events > 2_000, "{name}: {events} events is not a paper cell");
    let per_1k = allocs as f64 / (events as f64 / 1e3);
    eprintln!("{name}: {per_1k:.0} allocations per 1k events over its whole life ({allocs} over {events})");
    per_1k
}

#[test]
fn whole_life_allocations_per_event_are_bounded() {
    // One UDP cell of Table 2 (UA, 1.3 Mbps, CBR over two hops) and one
    // TCP cell of Figure 11 (BA, 2.6 Mbps, a 200 KB file over two hops),
    // exactly as `examples/sweeps/` ships them.
    let udp = cell(include_str!("../../../examples/sweeps/table2_udp.scn"), 3);
    let tcp = cell(include_str!("../../../examples/sweeps/fig11_2hop.scn"), 11);

    // Counts are exact (same program, same allocations). Measured on the
    // PR 16 tree: 906 (table2_udp, 37 402 events) and 1 902 (fig11_2hop,
    // 2 674 events) per 1k events; with the slab-backed queue, inline
    // control frames and packets built in place: 386 and 908. Bounds:
    // 1.5x the new counts.
    let per_1k = whole_life_allocs_per_kevent("table2_udp[3]", &udp);
    assert!(per_1k < 580.0, "table2_udp whole-life allocations regressed: {per_1k:.0} per 1k events");
    let per_1k = whole_life_allocs_per_kevent("fig11_2hop[11]", &tcp);
    assert!(per_1k < 1_360.0, "fig11_2hop whole-life allocations regressed: {per_1k:.0} per 1k events");
}
