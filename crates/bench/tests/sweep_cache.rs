//! End-to-end cache behaviour: a warm rerun of an unchanged sweep
//! simulates nothing and reproduces byte-identical tables; editing one
//! spec re-runs only that spec's cells.

use std::sync::Arc;

use hydra_bench::{CacheStats, ConcurrentCache, ExperimentRunner, Table, MODEL_FINGERPRINT};
use hydra_netsim::{Policy, ScenarioSpec, TopologyKind};
use hydra_phy::Rate;
use hydra_sim::Duration;

fn sweep() -> Vec<ScenarioSpec> {
    [Policy::Na, Policy::Ua, Policy::Ba]
        .iter()
        .map(|&p| {
            let mut spec =
                ScenarioSpec::udp(TopologyKind::Linear(2), p, Rate::R1_30, Duration::from_millis(15));
            spec.warmup = Duration::from_millis(300);
            spec.duration = Duration::from_secs(1);
            spec
        })
        .collect()
}

/// Renders results with full float precision so any cached-vs-fresh
/// divergence is visible.
fn render(runner: &ExperimentRunner, specs: &[ScenarioSpec], seeds: u64) -> String {
    let cells = runner.run_sweep(specs, seeds);
    let mut t = Table::new("cache probe", &["scenario", "per-run bps", "TXs"]);
    for cell in &cells {
        assert!(!cell.failed(), "cache probe cell failed: {}", cell.failed_label());
        t.row(vec![
            cell.spec.to_scn(),
            cell.ok_runs().map(|r| format!("{:.17e}", r.throughput_bps)).collect::<Vec<_>>().join(" "),
            cell.ok_runs().map(|r| r.report.total_data_txs().to_string()).collect::<Vec<_>>().join(" "),
        ]);
    }
    t.render()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hydra-sweep-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_rerun_simulates_nothing_and_matches_byte_for_byte() {
    let dir = tmp_dir("warm");
    let specs = sweep();
    let seeds = 2;

    // Cold: everything simulates.
    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    let runner = ExperimentRunner::new(2).with_cache(cache.clone());
    let cold = render(&runner, &specs, seeds);
    let stats = cache.stats();
    assert_eq!(stats, CacheStats { hits: 0, misses: specs.len() as u64 * seeds, skipped: 0, quarantined: 0 });

    // Warm, new process simulated by reopening from disk: zero misses,
    // identical bytes.
    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    let runner = ExperimentRunner::new(2).with_cache(cache.clone());
    let warm = render(&runner, &specs, seeds);
    let stats = cache.stats();
    assert_eq!(stats.misses, 0, "warm rerun must not simulate");
    assert_eq!(stats.hits, specs.len() as u64 * seeds);
    assert_eq!(warm, cold, "cached tables must be byte-identical");

    // A runner on its own memory-only store agrees with both (the cache
    // changes cost, never results).
    let uncached = render(&ExperimentRunner::new(2), &specs, seeds);
    assert_eq!(uncached, cold);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Another build's store file — this build's records under another
/// fingerprint's name — and a store of the old single-file name are never
/// opened: nothing loads or is skipped, the run simulates again, and both
/// files keep their bytes.
#[test]
fn another_builds_store_file_is_never_read() {
    let dir = tmp_dir("model");
    let specs = &sweep()[..1];
    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    let fresh = render(&ExperimentRunner::new(1).with_cache(cache.clone()), specs, 1);
    let ours = cache.path().unwrap().to_path_buf();
    let bytes = std::fs::read(&ours).unwrap();
    // The same records as another build would hold them: under its name,
    // and under the name every build used before the file took one.
    let name = ours.file_name().unwrap().to_str().unwrap();
    let hex = format!("{MODEL_FINGERPRINT:016x}");
    assert!(name.contains(&hex), "the file is named by the fingerprint");
    let theirs = dir.join(name.replace(&hex, &format!("{:016x}", !MODEL_FINGERPRINT)));
    let legacy = dir.join("runs.jsonl");
    std::fs::rename(&ours, &theirs).unwrap();
    std::fs::copy(&theirs, &legacy).unwrap();

    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    assert_eq!((cache.len(), cache.stats()), (0, CacheStats::default()));
    let runner = ExperimentRunner::new(1).with_cache(cache.clone());
    assert_eq!(render(&runner, specs, 1), fresh);
    assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1), "the run simulates again");
    assert_eq!(std::fs::read(&theirs).unwrap(), bytes, "another build's file is untouched");
    assert_eq!(std::fs::read(&legacy).unwrap(), bytes, "the old store is untouched");
    assert_eq!(std::fs::read(&ours).unwrap(), bytes, "the run wrote its record to this build's file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_degrades_to_cold_and_tables_stay_byte_identical() {
    let dir = tmp_dir("corrupt");
    let specs = sweep();
    let seeds = 2;

    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    let path = cache.path().unwrap().to_path_buf();
    let cold = render(&ExperimentRunner::new(2).with_cache(cache), &specs, seeds);

    // Crash simulation: tear the last record mid-line and flip a byte
    // in the first one.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let torn = lines.last().unwrap().len() / 2;
    let last = lines.last_mut().unwrap();
    last.truncate(torn);
    let first = &mut lines[0];
    // The rep column, after the leading hash's 16 hex digits and `",`.
    let at = "[\"0x".len() + 16 + "\",".len();
    first.replace_range(at..at + 1, "9");
    std::fs::write(&path, lines.join("\n")).unwrap();

    // Reopen: both damaged records are quarantined, their keys go
    // cold, the rerun re-simulates exactly them, and the rendered
    // table is byte-identical to the cold run.
    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    let recovered = render(&ExperimentRunner::new(2).with_cache(cache.clone()), &specs, seeds);
    let stats = cache.stats();
    assert_eq!(stats.quarantined, 2, "both damaged records quarantined");
    assert_eq!(stats.misses, 2, "exactly the damaged replications re-simulate");
    assert_eq!(stats.hits, specs.len() as u64 * seeds - 2);
    assert_eq!(recovered, cold, "recovery must not change a single byte of the tables");
    assert!(dir.join("runs.corrupt.jsonl").exists());

    // And the healed cache serves everything warm again.
    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    let warm = render(&ExperimentRunner::new(2).with_cache(cache.clone()), &specs, seeds);
    assert_eq!(cache.stats().misses, 0);
    assert_eq!(warm, cold);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_spec_invalidates_only_its_cells() {
    let dir = tmp_dir("edit");
    let mut specs = sweep();
    let seeds = 2;

    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    render(&ExperimentRunner::new(2).with_cache(cache), &specs, seeds);

    // Edit the middle spec (longer measurement window -> new hash).
    specs[1].duration = Duration::from_millis(1500);
    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    render(&ExperimentRunner::new(2).with_cache(cache.clone()), &specs, seeds);
    let stats = cache.stats();
    assert_eq!(stats.misses, seeds, "only the edited spec's replications re-run");
    assert_eq!(stats.hits, (specs.len() as u64 - 1) * seeds);

    // Asking for more seeds re-runs only the new replications.
    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    render(&ExperimentRunner::new(2).with_cache(cache.clone()), &specs, seeds + 1);
    let stats = cache.stats();
    assert_eq!(stats.misses, specs.len() as u64, "one new replication per spec");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_hits_share_their_node_reports_with_the_index() {
    let dir = tmp_dir("share");
    let specs = sweep();
    let seeds = 2;
    render(
        &ExperimentRunner::new(2).with_cache(Arc::new(ConcurrentCache::open(&dir).unwrap())),
        &specs,
        seeds,
    );

    // Every hit is a clone of the index's outcome, and a clone shares
    // the per-node reports instead of copying them.
    let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
    let index = cache.index();
    let cells = ExperimentRunner::new(2).with_cache(cache.clone()).run_sweep(&specs, seeds);
    assert_eq!(cache.stats().misses, 0);
    for (spec, cell) in specs.iter().zip(&cells) {
        for (rep, run) in (1..).zip(&cell.runs) {
            let hit = run.as_ref().expect("a hit cannot fail");
            let stored = index.get(spec.stable_hash(), rep).expect("indexed");
            assert!(!hit.report.nodes.is_empty());
            assert_eq!(hit.report.nodes.as_ptr(), stored.report.nodes.as_ptr(), "rep {rep} copied its nodes");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
