//! Runs sweeps: the paper's tables by name, and any `.scn` file by
//! path.
//!
//! ```text
//! cargo run --release -p hydra-bench --bin all [-- NAME ... FILE.scn ...
//!     --seeds N --threads N --no-cache --cache-dir DIR]
//! ```
//!
//! A NAME selects one shipped table ([`experiments::names`]; `all
//! --help` lists them), whose grid is its file under `examples/sweeps/`,
//! compiled in. An argument ending in `.scn` is a file read at run time:
//! one [`hydra_netsim::ScenarioSpec`] per line in the `key=value` format
//! of `docs/SCENARIO_FORMAT.md`, printed as its [`experiments::listing`].
//! Named tables print first, in registry order, then the files, in
//! command-line order. With neither, every table prints and is written
//! to results/experiments.txt. Every file is read and parsed before
//! anything runs or the store opens, so a malformed file exits 2 with
//! nothing printed or stored. Each runs at `--seeds N`, else its
//! `#! seeds=`, else 3 replications.
//!
//! Runs consult and extend one persistent result store (default
//! `results/cache/runs.jsonl`): a warm rerun simulates nothing and
//! rebuilds byte-identical tables; editing a line of a `.scn` file re-runs
//! only that line's cells. With `--no-cache` nothing is read from or
//! written to disk; each distinct run simulates once, in memory. Cache
//! hit/miss counts go to stderr so stdout (and the results file) stay
//! comparable between cold and warm runs.
use std::io::Write;
use std::sync::Arc;

use hydra_bench::{experiments, ConcurrentCache, ExperimentRunner};
use hydra_netsim::{check_seeds, check_threads, parse_scn_file, SweepFile};

const HELP: &str = "\
usage: all [NAME ...] [FILE.scn ...] [--seeds N] [--threads N]
           [--no-cache] [--cache-dir DIR]

Renders the paper's tables from the grids under examples/sweeps/ and
runs any other .scn file (one ScenarioSpec per line, `#` comments:
docs/SCENARIO_FORMAT.md), printing one table per file. With neither a
NAME nor a FILE: every table, also written to results/experiments.txt.
Otherwise only those: the named tables in the order listed below, then
the files in the order given, and no file is written.

options:
  --seeds N        replications per scenario (default: each file's
                   `#! seeds=` directive, else 3)
  --threads N      worker threads (0 = one per CPU, the default; at
                   most 256)
  --no-cache       nothing is read from or written to disk; each
                   distinct run simulates once
  --cache-dir DIR  result cache location (default results/cache)
  --help           this text

names:
";

/// The usage text, the table names appended from [`experiments::names`].
fn help() -> String {
    experiments::names().fold(HELP.to_string(), |text, name| text + "  " + name + "\n")
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", help());
    std::process::exit(2);
}

/// The command line, split: the selected table names and `.scn` paths
/// (neither = every table) and the harness flags.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    names: Vec<String>,
    paths: Vec<String>,
    seeds: Option<u64>,
    threads: usize,
    no_cache: bool,
    cache_dir: Option<String>,
    help: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--seeds" => {
                let n = value(arg)?.parse().map_err(|_| "bad --seeds".to_string())?;
                cli.seeds = Some(check_seeds(n)?);
            }
            "--threads" => {
                let n = value(arg)?.parse().map_err(|_| "bad --threads".to_string())?;
                cli.threads = check_threads(n)?;
            }
            "--no-cache" => cli.no_cache = true,
            "--cache-dir" => cli.cache_dir = Some(value(arg)?.clone()),
            "--help" => cli.help = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path if path.ends_with(".scn") => {
                if !cli.paths.iter().any(|p| p == path) {
                    cli.paths.push(path.to_string());
                }
            }
            name if !experiments::names().any(|n| n == name) => {
                let valid: Vec<&str> = experiments::names().collect();
                return Err(format!("unknown table {name}; valid names: {}", valid.join(" ")));
            }
            name if cli.names.iter().any(|n| n == name) => {}
            name => cli.names.push(name.to_string()),
        }
    }
    Ok(cli)
}

/// Reads and parses one `.scn` file; exits 2 naming it if either fails.
fn read_file(path: &str) -> SweepFile {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    parse_scn_file(&text).unwrap_or_else(|e| die(&format!("{path}:{e}")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = parse(&argv).unwrap_or_else(|e| die(&e));
    if cli.help {
        print!("{}", help());
        return;
    }
    let files: Vec<(String, SweepFile)> = cli.paths.iter().map(|p| (p.clone(), read_file(p))).collect();
    let whole = cli.names.is_empty() && files.is_empty();
    if whole {
        cli.names = experiments::names().map(String::from).collect();
    }
    let mut runner = ExperimentRunner::new(cli.threads);
    if !cli.no_cache {
        // A damaged or unopenable cache degrades to the memory-only
        // store — it must never keep the grid from running.
        let cache =
            cli.cache_dir.as_deref().map_or_else(ConcurrentCache::open_default, ConcurrentCache::open);
        match cache {
            Ok(cache) => {
                eprintln!("result cache: {} runs on disk", cache.len());
                runner = runner.with_cache(Arc::new(cache));
            }
            Err(e) => eprintln!("warning: result cache unavailable ({e}); keeping runs in memory"),
        }
    }
    let (text, failures) = experiments::run_tables(&runner, cli.seeds, &cli.names, &files);
    if whole {
        std::fs::create_dir_all("results").ok();
        let mut f = std::fs::File::create("results/experiments.txt")
            .unwrap_or_else(|e| die(&format!("create results/experiments.txt: {e}")));
        f.write_all(text.as_bytes()).unwrap_or_else(|e| die(&format!("write results/experiments.txt: {e}")));
        eprintln!("wrote results/experiments.txt");
    }
    eprintln!("result cache: {}", runner.cache().stats());
    for line in &failures {
        eprintln!("{line}");
    }
    if !failures.is_empty() {
        eprintln!("{} replication(s) FAILED — the affected cells are labeled in the tables", failures.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(args: &str) -> Result<Cli, String> {
        parse(&args.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn names_and_flags_stay_apart() {
        let cli =
            split("fig11_2hop --seeds 2 table2_udp --no-cache --threads 4").expect("valid command line");
        assert_eq!(
            cli,
            Cli {
                names: vec!["fig11_2hop".into(), "table2_udp".into()],
                seeds: Some(2),
                threads: 4,
                no_cache: true,
                ..Cli::default()
            }
        );
        // Defaults: every table, each file's own seeds, the store on disk.
        assert_eq!(split("").unwrap(), Cli::default());
        assert!(split("--help").unwrap().help);
    }

    #[test]
    fn an_argument_ending_in_scn_is_a_path_and_any_other_a_name() {
        let cli = split("b.scn table2_udp --cache-dir /tmp/c a.scn fig07_agg_size b.scn").unwrap();
        assert_eq!(cli.names, ["table2_udp", "fig07_agg_size"]);
        // Command-line order, a repeat dropped; a path is not checked
        // against the registry, even when it names a shipped file.
        assert_eq!(cli.paths, ["b.scn", "a.scn"]);
        assert_eq!(cli.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(
            split("examples/sweeps/fig11_2hop.scn").unwrap().paths,
            ["examples/sweeps/fig11_2hop.scn"]
        );
        assert!(split("fig11_2hop.txt").is_err());
    }

    #[test]
    fn a_repeated_name_runs_once() {
        assert_eq!(
            split("ext_spatial_rts fig07_agg_size ext_spatial_rts").unwrap().names,
            ["ext_spatial_rts", "fig07_agg_size"]
        );
    }

    #[test]
    fn an_unknown_name_is_an_error_that_lists_the_valid_names() {
        let e = split("fig11_2hop fig99_nope").unwrap_err();
        assert!(e.starts_with("unknown table fig99_nope; valid names: "), "{e}");
        for name in experiments::names() {
            assert!(e.split(' ').any(|w| w == name), "{name} missing from: {e}");
        }
        // Every shipped file is a table of its own, selected by its file
        // name; the two spatial files no longer share one.
        assert_eq!(split("ext_spatial_reuse ext_spatial_rts").unwrap().names.len(), 2);
        assert!(split("ext_spatial").is_err());
    }

    #[test]
    fn bad_flags_and_values_are_errors() {
        assert_eq!(split("--seeds 0").unwrap_err(), "seeds must be at least 1");
        assert_eq!(split("--seeds 100001").unwrap_err(), "seeds must be at most 100000");
        assert_eq!(split("--seeds").unwrap_err(), "--seeds needs a value");
        assert_eq!(split("--threads x").unwrap_err(), "bad --threads");
        assert_eq!(split("--cache-dir").unwrap_err(), "--cache-dir needs a value");
        assert_eq!(split("--only fig11_2hop").unwrap_err(), "unknown flag --only");
    }

    #[test]
    fn thread_counts_past_the_bound_are_errors() {
        let max = hydra_netsim::MAX_THREADS;
        assert_eq!(split(&format!("--threads {max}")).unwrap().threads, max);
        assert_eq!(split("--threads 0").unwrap().threads, 0);
        for n in [max + 1, 1_000_000] {
            let e = split(&format!("smoke.scn --threads {n}")).unwrap_err();
            assert_eq!(e, "threads must be at most 256");
        }
        assert_eq!(split("--threads 99999999999999999999999").unwrap_err(), "bad --threads");
    }
}
