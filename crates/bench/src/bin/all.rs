//! Regenerates the paper's tables and figures: every one, written to
//! results/experiments.txt, or only the named ones.
//!
//! ```text
//! cargo run --release -p hydra-bench --bin all [-- NAME ... --seeds N --threads N --no-cache]
//! ```
//!
//! Each table's grid is its file under `examples/sweeps/`, compiled in,
//! run at the file's `#! seeds=` replications — or at `--seeds N` for
//! every file when the flag is given. A NAME selects one shipped file
//! by its name ([`experiments::names`]; `all --help` lists them); named
//! tables print in registry order and leave results/experiments.txt as
//! it is.
//!
//! By default runs consult (and extend) the persistent result cache at
//! `results/cache/runs.jsonl`: a warm rerun simulates nothing and
//! rebuilds byte-identical tables from disk; editing a line of a
//! `.scn` file (and rebuilding) re-runs only that line's cells. With `--no-cache`
//! nothing is read from or written to disk; each distinct run simulates
//! once, in memory. Cache hit/miss counts go to stderr so stdout (and
//! the results file) stay comparable between cold and warm runs.
use std::io::Write;
use std::sync::Arc;

use hydra_bench::experiments::{self, Opts};
use hydra_bench::ConcurrentCache;
use hydra_netsim::check_seeds;

const HELP: &str = "\
usage: all [NAME ...] [--seeds N] [--threads N] [--no-cache]

Renders the paper's tables from the grids under examples/sweeps/ and
prints them. With no NAME: every table, also written to
results/experiments.txt. With names: only those tables, in the order
listed below, and no file is written.

options:
  --seeds N     replications per scenario (default: each file's
                `#! seeds=` directive)
  --threads N   worker threads (0 = one per CPU, the default)
  --no-cache    nothing is read from or written to disk; each
                distinct run simulates once
  --help        this text

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

/// The command line, split: the selected table names (none = every
/// table) and the harness flags.
#[derive(Debug, PartialEq)]
struct Cli {
    names: Vec<String>,
    seeds: Option<u64>,
    threads: usize,
    use_cache: bool,
    help: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { names: Vec::new(), seeds: None, threads: 0, use_cache: true, help: false };
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--seeds" => {
                let n = value(arg)?.parse().map_err(|_| "bad --seeds".to_string())?;
                cli.seeds = Some(check_seeds(n)?);
            }
            "--threads" => cli.threads = value(arg)?.parse().map_err(|_| "bad --threads".to_string())?,
            "--no-cache" => cli.use_cache = false,
            "--help" => cli.help = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&argv).unwrap_or_else(|e| die(&e));
    if cli.help {
        print!("{}", help());
        return;
    }
    let mut opts = Opts::default();
    (opts.seeds, opts.threads) = (cli.seeds, cli.threads);
    if cli.use_cache {
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
    let text = experiments::run_tables(&opts, &cli.names);
    if cli.names.is_empty() {
        std::fs::create_dir_all("results").ok();
        let mut f = std::fs::File::create("results/experiments.txt")
            .unwrap_or_else(|e| die(&format!("create results/experiments.txt: {e}")));
        f.write_all(text.as_bytes()).unwrap_or_else(|e| die(&format!("write results/experiments.txt: {e}")));
        eprintln!("wrote results/experiments.txt");
    }
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
                use_cache: false,
                help: false,
            }
        );
        // Defaults: every table, each file's own seeds, the store on disk.
        assert_eq!(
            split("").unwrap(),
            Cli { names: vec![], seeds: None, threads: 0, use_cache: true, help: false }
        );
        assert!(split("--help").unwrap().help);
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
        assert_eq!(split("--only fig11_2hop").unwrap_err(), "unknown flag --only");
    }
}
