//! Micro-benchmarks for the sweep executor and the concurrent result
//! cache, isolated from simulation work:
//!
//! * `sched_dispatch_{n}` — `sched::execute` over n trivial jobs at 1
//!   and 4 workers. The 1-worker number is pure bookkeeping (nothing is
//!   spawned); the 4-worker number adds three thread spawns and joins
//!   to the cost sort and result regrouping — the fixed overhead a
//!   sweep pays around its simulations, which must stay far below one
//!   cell's simulation cost.
//! * `cache_index_load_{n}` / `cache_index_lookup_{n}` — cold-opening a
//!   cache file of n records (parse + CRC + index build, the once-per-
//!   process cost) vs resolving n read-side lookups against a
//!   `CacheIndex` snapshot (the per-sweep warm path, no lock per get).
//! * `cache_append_{n}` — one `append_batch` group commit of n records
//!   into an empty store: encode + seal + one open + one write.

use hydra_bench::microbench::Criterion;
use hydra_bench::{criterion_group, criterion_main, sched, ConcurrentCache};
use std::hint::black_box;

use hydra_netsim::{Policy, RunOutcome, ScenarioSpec, TopologyKind};
use hydra_phy::Rate;
use hydra_sim::Duration;

fn tiny_spec() -> ScenarioSpec {
    let mut spec =
        ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
    spec.warmup = Duration::from_millis(200);
    spec.duration = Duration::from_secs(1);
    spec
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hydra-bench-runner-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench_dispatch(c: &mut Criterion, n: usize) {
    let mut g = c.benchmark_group(&format!("sched_dispatch_{n}"));
    for threads in [1usize, 4] {
        g.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                // Trivial closures: everything measured is executor
                // overhead. Costs vary so the sort has work to do.
                let jobs: Vec<sched::Job<'_, usize>> =
                    (0..n).map(|i| sched::Job::one(((i * 37) % 101) as f64, move || i)).collect();
                let (results, telemetry) = sched::execute(jobs, threads);
                black_box((results.len(), telemetry.tasks))
            })
        });
    }
    g.finish();
}

fn bench_cache_index(c: &mut Criterion, n: u64) {
    let spec = tiny_spec();
    let outcome = spec.clone().with_seed(1).run();
    let dir = tmp_dir(&format!("index-{n}"));

    // One file of n sealed records, written once up front.
    {
        let cache = ConcurrentCache::open(&dir).unwrap();
        let records: Vec<(u64, u64, &ScenarioSpec, &RunOutcome)> =
            (0..n).map(|h| (h, 1u64, &spec, &outcome)).collect();
        cache.append_batch(&records).unwrap();
    }

    let mut g = c.benchmark_group(&format!("cache_index_load_{n}"));
    g.bench_function("cold_open", |b| {
        b.iter(|| {
            let cache = ConcurrentCache::open(&dir).unwrap();
            black_box(cache.len())
        })
    });
    g.finish();

    let index = ConcurrentCache::open(&dir).unwrap().index();
    let mut g = c.benchmark_group(&format!("cache_index_lookup_{n}"));
    g.bench_function("snapshot_get", |b| {
        b.iter(|| {
            let mut found = 0u64;
            for h in 0..n {
                // Alternate hits and guaranteed misses: a sweep's warm
                // rerun is all hits, a fresh grid is all misses.
                if index.get(h, 1 + (h & 1)).is_some() {
                    found += 1;
                }
            }
            black_box(found)
        })
    });
    g.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_cache_append(c: &mut Criterion, n: u64) {
    let spec = tiny_spec();
    let outcome = spec.clone().with_seed(1).run();

    let dir = tmp_dir(&format!("append-batch-{n}"));
    let mut g = c.benchmark_group(&format!("cache_append_{n}"));
    g.bench_function("batched", |b| {
        b.iter(|| {
            let _ = std::fs::remove_file(dir.join("runs.jsonl"));
            let cache = ConcurrentCache::open(&dir).unwrap();
            let records: Vec<(u64, u64, &ScenarioSpec, &RunOutcome)> =
                (0..n).map(|h| (h, 1u64, &spec, &outcome)).collect();
            cache.append_batch(&records).unwrap();
            black_box(cache.len())
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn benches(c: &mut Criterion) {
    bench_dispatch(c, 100);
    bench_dispatch(c, 1_000);
    bench_cache_index(c, 1_000);
    bench_cache_append(c, 64);
}

criterion_group!(runner_benches, benches);
criterion_main!(runner_benches);
