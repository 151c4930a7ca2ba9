//! Allocation guard for the warm open: what decoding one stored node
//! report costs, that no file-sized buffer is allocated, and that a
//! node report can own no name (or anything else) on the heap.
//!
//! A warm rerun is a store open (`ConcurrentCache::open`) plus lookups,
//! and the open decodes every record on disk — so its allocations scale
//! with the store, not with the sweep. A node report owns no heap
//! memory (its airtime ledger is a fixed array), so a record's node
//! reports cost one allocation, their shared slice, however many there
//! are.
//!
//! This file holds exactly one test: the counters are process-wide, so
//! it must not share its process with concurrently allocating tests.

use std::path::PathBuf;

use hydra_bench::ConcurrentCache;
use hydra_core::Ledger;
use hydra_netsim::{parse_scn_file, FlowOutcome, NodeReport, RunOutcome, RunPerf, RunReport, ScenarioSpec};
use hydra_sim::{alloc_stats, Duration, Instant};

#[global_allocator]
static ALLOC: hydra_sim::CountingAlloc = hydra_sim::CountingAlloc;

/// A scratch store directory, removed again on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!("hydra-alloc-store-open-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Cells of a shipped sweep file.
fn cells(text: &str) -> Vec<ScenarioSpec> {
    parse_scn_file(text).expect("shipped sweep parses").specs
}

/// An outcome shaped like a 1000-node `ext_scale` cell's: one labeled
/// result per flow of `spec`, and a report per node with every counter
/// and every ledger slot set. Ledger slots are airtimes under 0.1 s;
/// byte counts are frames times a frame's bytes.
fn ext_scale_shaped(spec: &ScenarioSpec) -> RunOutcome {
    let per_flow = spec
        .effective_flows()
        .into_iter()
        .zip(0u64..)
        .map(|(flow, i)| {
            let done = flow.traffic.is_file().then(|| Instant::from_nanos(1_734_118_093 + i * 7_919));
            FlowOutcome::new(flow, 6_144 + i, done, spec.duration)
        })
        .collect();
    let nodes = (0..spec.topology.node_count())
        .zip(0u64..)
        .map(|(node, x)| NodeReport {
            node,
            tx_data_frames: 40 + x % 97,
            tx_control: 120 + x % 31,
            tx_psdu_bytes: (40 + x % 97) * (1_140 + x % 4_999),
            avg_subframes: 0.0,
            subframes_sent: (40 + x % 97, x % 11),
            tx_overhead_bytes: (40 + x % 97) * (38 + x % 17),
            ledger: Ledger(std::array::from_fn(|j| {
                Duration::from_nanos((x * 7_919 + j as u64 * 104_729) % 99_999_989)
            })),
            retries: x % 7,
            retry_drops: x % 3,
            queue_overflow: x % 5,
            acks_classified: x % 29,
            bcast_filtered: x % 41,
            bcast_ok: x % 43,
            bcast_crc_fail: x % 2,
            unicast_ok: 30 + x % 53,
            unicast_crc_drops: x % 3,
            collisions_seen: x % 9,
            forwarded: x % 61,
        })
        .map(NodeReport::with_avg_subframes)
        .collect();
    let report =
        RunReport { nodes, at: Instant::from_nanos(3_000_000_000), collisions: 4_271, phy_header_bytes: 8 };
    RunOutcome {
        perf: RunPerf { events_processed: 2_817_305, ..RunPerf::default() },
        ..RunOutcome::new(true, per_flow, report)
    }
}

/// The heap bytes a decoded outcome owns: its place in the index's
/// `Arc`, its shared node slice and its flow vector.
fn heap_bytes(o: &RunOutcome) -> u64 {
    let arc = 2 * size_of::<usize>();
    let nodes = arc + size_of_val(&*o.report.nodes);
    (arc + size_of::<RunOutcome>() + nodes + o.per_flow.capacity() * size_of::<FlowOutcome>()) as u64
}

#[test]
fn warm_open_allocations_per_node_are_bounded_and_names_stay_borrowed() {
    // Half 1: one 1000-node record, written, then opened under the count.
    let scale = cells(include_str!("../../../examples/sweeps/ext_scale.scn"));
    let spec =
        scale.iter().find(|s| s.topology.node_count() == 1000).expect("ext_scale has a 1000-node cell");
    let outcome = ext_scale_shaped(spec);
    let dir = TmpDir::new("scale");
    ConcurrentCache::open(&dir.0).unwrap().append_batch(&[(spec.stable_hash(), 1, spec, &outcome)]).unwrap();

    let before = alloc_stats();
    let cache = ConcurrentCache::open(&dir.0).unwrap();
    let one = alloc_stats().since(before);
    let allocs = one.allocations;
    let index = cache.index();
    let decoded = index.get(spec.stable_hash(), 1).expect("the record loads");
    assert_eq!(**decoded, outcome);
    let nodes = decoded.report.nodes.len();
    let per_node = allocs as f64 / nodes as f64;
    eprintln!("warm open: {per_node:.3} allocations per decoded node ({allocs} for {nodes} nodes)");
    // Counts are exact (same program, same allocations): 0.026, 26 in
    // all and none of them a node's own (the window, the decoder's node
    // and flow scratch growing, the node slice, the flow vector, the
    // index). One allocation per node would be 1.026. Bound: 1.5x the
    // count.
    assert!(per_node < 0.039, "warm-open allocations regressed: {per_node:.3} per decoded node");

    // Half 2: bytes, over a store of many such records. The open
    // streams the file through one bounded window instead of reading it
    // whole, so what it allocates is that window plus what it decodes.
    // The store must be several windows long, or a file-sized buffer
    // would cost no more than the window does.
    const WINDOW: u64 = 1 << 20;
    const RECORDS: u64 = 24;
    let dir = TmpDir::new("bytes");
    let records: Vec<_> = (1..=RECORDS).map(|rep| (spec.stable_hash(), rep, spec, &outcome)).collect();
    let store = ConcurrentCache::open(&dir.0).unwrap();
    store.append_batch(&records).unwrap();
    let file = std::fs::metadata(store.path().unwrap()).unwrap().len();
    let before = alloc_stats();
    let cache = ConcurrentCache::open(&dir.0).unwrap();
    let bytes = alloc_stats().since(before).allocated_bytes;
    let index = cache.index();
    let heap: u64 = (1..=RECORDS).map(|rep| heap_bytes(index.get(spec.stable_hash(), rep).unwrap())).sum();
    // Bound: the window, plus the heap the decoded records own, plus a
    // quarter that again for the growth on the way there (the decoder's
    // node and flow scratch, grown once per open to the longest record's
    // lists, and the index). 7 097 093 bytes for a 3 119 055-byte file
    // against 8 014 336 (the scratch path's length moves each by a few
    // bytes). An open that also allocates a file-sized buffer fails,
    // whether beside the window (10 216 148) or instead of it (a
    // whole-file read, then the same per-line decode: 9 273 838 on the
    // v6 file, 106 272 bytes longer).
    let bound = WINDOW + heap + heap / 4;
    eprintln!(
        "warm open: {bytes} bytes allocated for a {file}-byte store of {RECORDS} records, bound {bound}"
    );
    assert!(
        bytes < bound,
        "warm-open bytes regressed: {bytes} allocated, bound {bound} (file: {file} bytes)"
    );

    // Half 3: a node report owns nothing that needs dropping, so no
    // category name (or any other field) can come back as an owned
    // `String` per node. A heap-owning field, such as the named ledger
    // vector this report once carried, fails this.
    assert!(!std::mem::needs_drop::<NodeReport>(), "a node report owns heap memory");
}
