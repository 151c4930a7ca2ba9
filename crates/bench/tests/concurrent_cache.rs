//! Two runners sharing one cache directory concurrently — the shape
//! `--bin all` and `--bin sweep` produce when they run side by side:
//! separate `ConcurrentCache` handles (as separate processes would
//! have), one `runs.jsonl`, `O_APPEND` interleaving. No record may be
//! lost or duplicated, cached outcomes must equal fresh ones, and the
//! quarantine path must keep working on the co-written file.

use std::path::PathBuf;
use std::sync::Arc;

use hydra_bench::{ConcurrentCache, ExperimentRunner};
use hydra_netsim::{Policy, ScenarioSpec, TopologyKind};
use hydra_phy::Rate;
use hydra_sim::Duration;

fn tiny_spec(seed: u64) -> ScenarioSpec {
    let mut spec =
        ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
    spec.warmup = Duration::from_millis(200);
    spec.duration = Duration::from_secs(1);
    spec.with_seed(seed)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hydra-concurrent-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_runners_lose_nothing_and_duplicate_nothing() {
    let dir = tmp_dir("two-runners");
    let specs_a: Vec<ScenarioSpec> = (1..=3).map(tiny_spec).collect();
    let specs_b: Vec<ScenarioSpec> = (11..=13).map(tiny_spec).collect();
    const SEEDS: u64 = 2;

    // References from runners with their own memory-only stores,
    // computed up front.
    let ref_a = ExperimentRunner::sequential().run_sweep(&specs_a, SEEDS);
    let ref_b = ExperimentRunner::sequential().run_sweep(&specs_b, SEEDS);

    // Two independent handles on one directory, driven from two OS
    // threads at once (each handle is itself shared with the runner's
    // own workers).
    let cache_a = Arc::new(ConcurrentCache::open(&dir).unwrap());
    let cache_b = Arc::new(ConcurrentCache::open(&dir).unwrap());
    let (cells_a, cells_b) = std::thread::scope(|scope| {
        let a =
            scope.spawn(|| ExperimentRunner::new(2).with_cache(cache_a.clone()).run_sweep(&specs_a, SEEDS));
        let b =
            scope.spawn(|| ExperimentRunner::new(2).with_cache(cache_b.clone()).run_sweep(&specs_b, SEEDS));
        (a.join().expect("runner A"), b.join().expect("runner B"))
    });
    for (cell, expect) in cells_a.iter().zip(&ref_a) {
        assert_eq!(cell.runs, expect.runs, "runner A's results must not see runner B");
    }
    for (cell, expect) in cells_b.iter().zip(&ref_b) {
        assert_eq!(cell.runs, expect.runs, "runner B's results must not see runner A");
    }
    assert_eq!(cache_a.stats().misses, 3 * SEEDS, "A simulated exactly its own jobs");
    assert_eq!(cache_b.stats().misses, 3 * SEEDS, "B simulated exactly its own jobs");

    // On disk: exactly one line per job, none lost, none duplicated.
    let text = std::fs::read_to_string(dir.join("runs.jsonl")).unwrap();
    assert_eq!(text.lines().count(), 2 * 3 * SEEDS as usize, "every record lands exactly once");

    // A cold reopen sees the union and serves both sweeps warm.
    let shared = Arc::new(ConcurrentCache::open(&dir).unwrap());
    assert_eq!(shared.len(), 2 * 3 * SEEDS as usize);
    assert_eq!(shared.stats().quarantined, 0, "concurrent appends tore nothing");
    let runner = ExperimentRunner::sequential().with_cache(shared.clone());
    let warm_a = runner.run_sweep(&specs_a, SEEDS);
    let warm_b = runner.run_sweep(&specs_b, SEEDS);
    let stats = shared.stats();
    assert_eq!(stats.hits, 2 * 3 * SEEDS, "a warm rerun simulates nothing");
    assert_eq!(stats.misses, 0);
    for (cell, expect) in warm_a.iter().zip(&ref_a).chain(warm_b.iter().zip(&ref_b)) {
        assert_eq!(cell.runs, expect.runs, "cached outcomes must equal fresh ones");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_still_works_on_a_co_written_file() {
    let dir = tmp_dir("quarantine");
    let specs: Vec<ScenarioSpec> = (21..=22).map(tiny_spec).collect();
    {
        let cache = Arc::new(ConcurrentCache::open(&dir).unwrap());
        ExperimentRunner::new(2).with_cache(cache).run_sweep(&specs, 1);
    }
    // A torn tail, as a crashed concurrent writer would leave.
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new().append(true).open(dir.join("runs.jsonl")).unwrap();
    file.write_all(b"{\"schema\":\"hydra-agg.run.v2\",\"hash\":\"0x0\",\"rep\":9,\"outc").unwrap();
    drop(file);

    let cache = ConcurrentCache::open(&dir).unwrap();
    assert_eq!(cache.stats().quarantined, 1, "the torn fragment is quarantined");
    assert_eq!(cache.len(), 2, "intact records survive");
    assert!(dir.join("runs.corrupt.jsonl").exists());
    // The compacted file still round-trips cleanly.
    let again = ConcurrentCache::open(&dir).unwrap();
    assert_eq!(again.stats().quarantined, 0);
    assert_eq!(again.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
