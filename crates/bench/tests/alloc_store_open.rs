//! Allocation guard for the warm open: what decoding one stored node
//! report costs, that no file-sized buffer is allocated, and that
//! category names stay borrowed end to end.
//!
//! A warm rerun is a store open (`ConcurrentCache::open`) plus lookups,
//! and the open decodes every record on disk — so its allocations scale
//! with the store, not with the sweep. A node report owns one vector,
//! its airtime ledger, allocated once; its category names are the MAC's
//! own `&'static str`s, mapped back on decode through `cat::ALL`. A MAC
//! category missing from `cat::ALL` would silently come back as an
//! owned `String` per node; the third part of the test catches that
//! on a real Table 4 cell.
//!
//! This file holds exactly one test: the counters are process-wide, so
//! it must not share its process with concurrently allocating tests.

use std::borrow::Cow;
use std::path::PathBuf;

use hydra_bench::ConcurrentCache;
use hydra_core::counters::cat;
use hydra_netsim::{parse_scn_file, FlowOutcome, NodeReport, RunOutcome, RunPerf, RunReport, ScenarioSpec};
use hydra_sim::{alloc_stats, Instant};

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
/// set and all seven categories in the ledger. Times are whole
/// nanoseconds in seconds (short decimals, as a run writes them);
/// averages and overheads are ratios (full 17-digit floats).
fn ext_scale_shaped(spec: &ScenarioSpec) -> RunOutcome {
    let per_flow = spec
        .effective_flows()
        .into_iter()
        .zip(0u64..)
        .map(|(flow, i)| {
            let done = flow.traffic.is_file().then(|| Instant::from_nanos(1_734_118_093 + i * 7_919));
            FlowOutcome::new(flow, 6_144 + i, 28_346.0 / (1.0 + i as f64), done)
        })
        .collect();
    let nodes = (0..spec.topology.node_count())
        .zip(0u64..)
        .map(|(node, x)| NodeReport {
            node,
            tx_data_frames: 40 + x % 97,
            tx_control: 120 + x % 31,
            avg_frame_size: 11_400.0 / (10.0 + (x % 13) as f64),
            avg_subframes: 1.0 + (x % 5) as f64 / 7.0,
            subframes_sent: (40 + x % 97, x % 11),
            size_overhead: 0.0331 + (x % 17) as f64 / 9_973.0,
            time_overhead: 0.25 + (x % 19) as f64 / 7_919.0,
            time_by_category: (0u64..)
                .zip(cat::ALL)
                .map(|(j, name)| (Cow::Borrowed(name), ((x * 7_919 + j * 104_729) % 99_999_989) as f64 / 1e9))
                .collect(),
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
        .collect();
    RunOutcome {
        completed: true,
        throughput_bps: 12_288.0 / 3.0,
        per_flow,
        report: RunReport { nodes, at: Instant::from_nanos(3_000_000_000), collisions: 4_271 },
        perf: RunPerf { events_processed: 2_817_305, ..RunPerf::default() },
    }
}

/// Every category name in `report` is a borrowed `cat::ALL` entry.
fn assert_names_borrowed(what: &str, report: &RunReport) {
    let mut names = 0;
    for node in &report.nodes {
        for (name, _) in &node.time_by_category {
            assert!(matches!(name, Cow::Borrowed(_)), "{what}: node {} owns `{name}`", node.node);
            assert!(cat::ALL.contains(&&**name), "{what}: `{name}` is not in cat::ALL");
            names += 1;
        }
    }
    assert!(names > 0, "{what}: no ledger entries at all");
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
    let allocs = alloc_stats().since(before).allocations;
    let index = cache.index();
    let decoded = index.get(spec.stable_hash(), 1).expect("the record loads");
    assert_eq!(**decoded, outcome);
    let nodes = decoded.report.nodes.len();
    let per_node = allocs as f64 / nodes as f64;
    eprintln!("warm open: {per_node:.2} allocations per decoded node ({allocs} for {nodes} nodes)");
    // Counts are exact (same program, same allocations). The reader
    // before this guard, which owned a `String` per category name,
    // measured 9.02 per node (9 024 in all); this one 1.02 (1 024): the
    // ledger vector, sized once. Bound: 1.5x the new count.
    assert!(per_node < 1.53, "warm-open allocations regressed: {per_node:.2} per decoded node");

    // Half 2: bytes, over a store of four such records. The open streams
    // the file through one bounded window instead of reading it whole,
    // so what it allocates is that window plus what it decodes.
    let dir = TmpDir::new("bytes");
    let records: Vec<_> = (1..=4).map(|rep| (spec.stable_hash(), rep, spec, &outcome)).collect();
    ConcurrentCache::open(&dir.0).unwrap().append_batch(&records).unwrap();
    let file = std::fs::metadata(dir.0.join("runs.jsonl")).unwrap().len();
    let before = alloc_stats();
    let cache = ConcurrentCache::open(&dir.0).unwrap();
    let bytes = alloc_stats().since(before).allocated_bytes;
    assert_eq!(cache.len(), 4);
    eprintln!("warm open: {bytes} bytes allocated for a {file}-byte store of four 1000-node records");
    // Exact and repeatable. The whole-file reader this replaced, which
    // read the 2 457 152-byte file into one buffer and regrew a node
    // vector per record, measured 5 054 021 bytes; the streaming open
    // 3 253 125 (a 1 MiB window, one exactly-sized node slice per
    // record). Bound: 1.25x the new figure, which the old reader fails.
    assert!(bytes < 4_066_000, "warm-open bytes regressed: {bytes} allocated (file: {file} bytes)");

    // Half 3: a live Table 4 cell's ledger names are the MAC's own, and
    // stay so through the store.
    let table4 = cells(include_str!("../../../examples/sweeps/table4_time_overhead.scn"));
    let live = table4[0].run();
    assert_names_borrowed("collected", &live.report);
    let dir = TmpDir::new("table4");
    let spec = &table4[0];
    ConcurrentCache::open(&dir.0).unwrap().append_batch(&[(spec.stable_hash(), 1, spec, &live)]).unwrap();
    let index = ConcurrentCache::open(&dir.0).unwrap().index();
    let stored = index.get(spec.stable_hash(), 1).expect("the live record loads");
    assert_eq!(**stored, live);
    assert_names_borrowed("decoded", &stored.report);
}
