//! Runs sweeps from `.scn` scenario files — no recompilation.
//!
//! ```text
//! cargo run --release -p hydra-bench --bin sweep -- FILE.scn [FILE.scn ...]
//!     [--seeds N] [--threads N] [--no-cache] [--cache-dir DIR]
//! cargo run --release -p hydra-bench --bin sweep -- --export DIR
//! ```
//!
//! Each non-comment line of a `.scn` file is one [`hydra_netsim::ScenarioSpec`] in the
//! `key=value` format documented in `docs/SCENARIO_FORMAT.md`. Every
//! shipped experiment grid is checked in under `examples/sweeps/`;
//! `--export DIR` regenerates those files from the in-code definitions.
//!
//! Like `--bin all`, runs consult and extend the persistent result
//! cache (default `results/cache/`): a warm rerun of an unchanged file
//! simulates nothing and prints byte-identical tables. With `--no-cache`
//! the store lives in memory only: nothing touches the disk, and each
//! distinct run across all the given files still simulates once. Cache
//! statistics go to stderr so stdout stays comparable across runs.

use std::sync::Arc;

use hydra_bench::experiments::{shipped_sweep_meta, shipped_sweeps};
use hydra_bench::{failure_lines, ConcurrentCache, ExperimentRunner, Table};
use hydra_netsim::{check_seeds, parse_scn_file, render_scn};

struct Args {
    files: Vec<String>,
    /// Explicit `--seeds` (wins over a file's `#! seeds=` directive).
    seeds: Option<u64>,
    threads: usize,
    cache_dir: Option<String>,
    use_cache: bool,
    export: Option<String>,
}

const HELP: &str = "\
usage: sweep FILE.scn [FILE.scn ...] [options]
       sweep --export DIR

Runs every scenario in the given .scn files through the parallel
ExperimentRunner and prints one table per file. Line format (one
ScenarioSpec per line, `#` comments): see docs/SCENARIO_FORMAT.md.

options:
  --seeds N        replications per scenario (default: the file's
                   `#! seeds=` directive, else 3)
  --threads N      worker threads (0 = one per CPU, default)
  --no-cache       nothing is read from or written to disk; each
                   distinct run simulates once
  --cache-dir DIR  result cache location (default results/cache)
  --export DIR     write every shipped experiment grid as DIR/<name>.scn
                   (regenerates examples/sweeps/) and exit
  --help           this text
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{HELP}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a =
        Args { files: Vec::new(), seeds: None, threads: 0, cache_dir: None, use_cache: true, export: None };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let val = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| die("missing value"))
        };
        match argv[i].as_str() {
            "--seeds" => {
                a.seeds = match val(&mut i).parse().map(check_seeds) {
                    Ok(Ok(n)) => Some(n),
                    Ok(Err(e)) => die(&e),
                    Err(_) => die("bad --seeds"),
                }
            }
            "--threads" => a.threads = val(&mut i).parse().unwrap_or_else(|_| die("bad --threads")),
            "--no-cache" => a.use_cache = false,
            "--cache-dir" => a.cache_dir = Some(val(&mut i)),
            "--export" => a.export = Some(val(&mut i)),
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag {flag}")),
            file => a.files.push(file.to_string()),
        }
        i += 1;
    }
    if a.export.is_none() && a.files.is_empty() {
        die("no .scn files given");
    }
    a
}

/// Writes every shipped experiment grid as `<dir>/<name>.scn`, with
/// its caption and default seed count as `#!` directives.
fn export(dir: &str) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("create {dir}: {e}")));
    for (name, specs) in shipped_sweeps() {
        let path = format!("{dir}/{name}.scn");
        let mut text = format!(
            "# {name} — {count} scenarios, exported from hydra_bench::experiments::{name}_specs().\n\
             # One ScenarioSpec per line (key=value fields); format: docs/SCENARIO_FORMAT.md.\n\
             # Regenerate with: cargo run -p hydra-bench --bin sweep -- --export examples/sweeps\n",
            count = specs.len()
        );
        text.push_str(&shipped_sweep_meta(name).render());
        text.push_str(&render_scn(&specs));
        std::fs::write(&path, text).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        println!("wrote {path} ({} scenarios)", specs.len());
    }
}

/// Runs one file and prints its table; returns how many replications
/// failed (each one named on stderr).
fn run_file(runner: &ExperimentRunner, path: &str, cli_seeds: Option<u64>) -> usize {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let file = match parse_scn_file(&text) {
        Ok(file) => file,
        Err(e) => die(&format!("{path}:{e}")),
    };
    if file.specs.is_empty() {
        eprintln!("{path}: no scenarios, skipping");
        return 0;
    }
    // Replication count: explicit flag > `#! seeds=` directive > 3.
    let seeds = cli_seeds.or(file.meta.seeds).unwrap_or(3);
    let cells = runner.run_sweep(&file.specs, seeds);
    let title = match &file.meta.caption {
        Some(caption) => format!("{caption} [{path} — {} scenarios × {seeds} seed(s)]", file.specs.len()),
        None => format!("{path} — {} scenarios × {seeds} seed(s)", file.specs.len()),
    };
    let mut t = Table::new(title, &["#", "scenario", "mean Mbps", "per-seed Mbps"]);
    for (i, cell) in cells.iter().enumerate() {
        let per_seed: Vec<String> = cell
            .runs
            .iter()
            .map(|r| match r {
                Ok(run) => format!("{:.3}", run.throughput_bps / 1e6),
                Err(e) => format!("FAILED({})", e.reason()),
            })
            .collect();
        let stuck = cell.ok_runs().any(|r| !r.completed);
        let mean = if cell.first().is_some() {
            format!("{:.3}{}", cell.mean_throughput_bps() / 1e6, if stuck { " (STUCK)" } else { "" })
        } else {
            cell.failed_label()
        };
        t.row(vec![format!("{i}"), cell.spec.to_scn(), mean, per_seed.join(" ")]);
    }
    for note in &file.meta.notes {
        t.note(note.clone());
    }
    t.print();
    let failures = failure_lines(path, &cells);
    for line in &failures {
        eprintln!("{line}");
    }
    failures.len()
}

fn main() {
    let a = parse_args();
    if let Some(dir) = &a.export {
        export(dir);
        return;
    }
    let mut runner = ExperimentRunner::new(a.threads);
    if a.use_cache {
        let cache = match &a.cache_dir {
            Some(dir) => ConcurrentCache::open(dir),
            None => ConcurrentCache::open_default(),
        }
        .unwrap_or_else(|e| die(&format!("open result cache: {e}")));
        eprintln!("result cache: {} runs on disk", cache.len());
        runner = runner.with_cache(Arc::new(cache));
    }
    let failures: usize = a.files.iter().map(|file| run_file(&runner, file, a.seeds)).sum();
    eprintln!("result cache: {}", runner.cache().stats());
    if failures > 0 {
        eprintln!("{failures} replication(s) FAILED — see the per-seed columns above");
        std::process::exit(1);
    }
}
