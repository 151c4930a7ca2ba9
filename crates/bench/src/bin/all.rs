//! Regenerates every table and figure; writes results/experiments.txt.
//!
//! ```text
//! cargo run --release -p hydra-bench --bin all [-- --seeds N --threads N --no-cache]
//! ```
//!
//! By default runs consult (and extend) the persistent result cache at
//! `results/cache/runs.jsonl`: a warm rerun simulates nothing and
//! rebuilds byte-identical tables from disk; editing a spec in
//! `experiments.rs` re-runs only that spec's cells. With `--no-cache`
//! nothing is read from or written to disk; each distinct run simulates
//! once, in memory. Cache hit/miss counts go to stderr so stdout (and
//! the results file) stay comparable between cold and warm runs.
use std::io::Write;
use std::sync::Arc;

use hydra_bench::ConcurrentCache;
use hydra_netsim::check_seeds;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut opts = hydra_bench::experiments::Opts::default();
    let mut use_cache = true;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--seeds" => {
                i += 1;
                opts.seeds = match argv.get(i).and_then(|v| v.parse().ok()).map(check_seeds) {
                    Some(Ok(n)) => n,
                    Some(Err(e)) => die(&e),
                    None => die("bad --seeds"),
                };
            }
            "--threads" => {
                i += 1;
                opts.threads =
                    argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| die("bad --threads"));
            }
            "--no-cache" => use_cache = false,
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if use_cache {
        // A damaged or unopenable cache degrades to the memory-only
        // store — it must never keep the grid from running.
        match ConcurrentCache::open_default() {
            Ok(cache) => {
                eprintln!("result cache: {} runs on disk", cache.len());
                opts.cache = Arc::new(cache);
            }
            Err(e) => eprintln!("warning: result cache unavailable ({e}); keeping runs in memory"),
        }
    }
    let text = hydra_bench::experiments::run_all(&opts);
    std::fs::create_dir_all("results").ok();
    let mut f = std::fs::File::create("results/experiments.txt")
        .unwrap_or_else(|e| die(&format!("create results/experiments.txt: {e}")));
    f.write_all(text.as_bytes()).unwrap_or_else(|e| die(&format!("write results/experiments.txt: {e}")));
    eprintln!("wrote results/experiments.txt");
    eprintln!("result cache: {}", opts.cache.stats());
    let failures = opts.failure_lines();
    for line in &failures {
        eprintln!("{line}");
    }
    if !failures.is_empty() {
        eprintln!("{} replication(s) FAILED — the affected cells are labeled in the tables", failures.len());
        std::process::exit(1);
    }
}
