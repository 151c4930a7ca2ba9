//! Runs one scenario, written as the `key=value` tokens of one `.scn`
//! line, and prints every replication, a labeled per-flow table and
//! the relay's MAC counters.
//!
//! ```text
//! cargo run --release -p hydra-bench --bin scenario -- \
//!     topo=T policy=P rate=R traffic=X [KEY=VALUE ...]
//!     [--seeds N] [--threads N] [--dump-links]
//! ```
//!
//! Every argument that does not start with `--` is a spec token; the
//! tokens are joined into one line and parsed by
//! [`ScenarioSpec::from_scn`], exactly as `all FILE.scn` parses a file
//! line, so the keys, their defaults and their checks are the ones in
//! `docs/SCENARIO_FORMAT.md`. The spec is echoed in canonical form
//! before the run; collect such lines in a file to run them as a batch
//! — with result caching — via `all FILE.scn`.
//!
//! `--dump-links` prints the medium's connectivity/SNR matrix before
//! running, so a spatial layout can be inspected without reading code.

use hydra_bench::{failure_lines, ExperimentRunner, Table};
use hydra_netsim::{check_seeds, check_threads, MediumKind, ScenarioSpec};
use hydra_phy::PhyProfile;

const HELP: &str = "\
usage: scenario topo=T policy=P rate=R traffic=X [KEY=VALUE ...]
                [--seeds N] [--threads N] [--dump-links]

Runs one ScenarioSpec written as the key=value tokens of one `.scn`
line: topo, policy, rate and traffic are required, every other key
keeps its default. The line is parsed exactly as `all FILE.scn` parses
a file line, echoed in canonical form, and run through the parallel
ExperimentRunner; run such lines as a batch via `all FILE.scn`. Every key, its values and its default:
docs/SCENARIO_FORMAT.md.

examples:
  scenario topo=grid:4x3 policy=ba rate=2.6 traffic=file:204800 --seeds 8
  scenario topo=linear:3 policy=ba rate=0.65 traffic=cbr:17ms:1045 \\
      medium=spatial:7.0 --dump-links
  scenario topo=linear:2 policy=ba rate=1.3 traffic=file:204800 \\
      'flow=0>2:5001:tcp:204800' 'flow=0>2:9900:cbr:20ms:160' \\
      warmup=1s duration=20s --seeds 1

flags:
  --seeds N        replications (default 3)
  --threads N      worker threads (0 = one per CPU, the default; at
                   most 256)
  --dump-links     print the connectivity/SNR matrix before running
  --help           this text
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{HELP}");
    std::process::exit(2);
}

/// The command line, split: the spec tokens joined into one `.scn`
/// line, and the harness flags.
#[derive(Debug, PartialEq)]
struct Cli {
    line: String,
    seeds: u64,
    threads: usize,
    dump_links: bool,
    help: bool,
}

fn split_args(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { line: String::new(), seeds: 3, threads: 0, dump_links: false, help: false };
    let mut tokens = Vec::new();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--seeds" => {
                let n = value(arg)?.parse().map_err(|_| "bad --seeds".to_string())?;
                cli.seeds = check_seeds(n)?;
            }
            "--threads" => {
                let n = value(arg)?.parse().map_err(|_| "bad --threads".to_string())?;
                cli.threads = check_threads(n)?;
            }
            "--dump-links" => cli.dump_links = true,
            "--help" => cli.help = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            token => tokens.push(token),
        }
    }
    cli.line = tokens.join(" ");
    Ok(cli)
}

/// Prints the medium's per-pair connectivity classes and SNR matrix:
/// `D` = delivers (decodable), `s` = sensed only (energy, no frames),
/// `.` = out of range, `=` = self.
fn dump_links(spec: &ScenarioSpec) {
    let topo = spec.topology.build();
    let medium = spec.medium.build_medium(&topo, &PhyProfile::hydra());
    let n = medium.node_count();
    println!("medium: {:?} over {} ({} nodes)", spec.medium, topo.name, n);
    if let MediumKind::Spatial { spacing_m } = spec.medium {
        let budget = MediumKind::budget(&PhyProfile::hydra());
        println!(
            "link budget: delivery range {:.1} m, carrier-sense range {:.1} m, adjacent spacing {:.1} m",
            budget.delivery_range_m(),
            budget.cs_range_m(),
            spacing_m
        );
    }
    print!("\nclass    ");
    for to in 0..n {
        print!("{to:>3}");
    }
    println!();
    for from in 0..n {
        print!("from {from:>3} ");
        for to in 0..n {
            let c = if from == to {
                '='
            } else {
                let l = medium.link(from, to);
                if l.delivers {
                    'D'
                } else if l.senses {
                    's'
                } else {
                    '.'
                }
            };
            print!("{c:>3}");
        }
        println!();
    }
    println!("\neffective SNR (dB; '   -' where nothing is decodable)");
    print!("         ");
    for to in 0..n {
        print!("{to:>7}");
    }
    println!();
    for from in 0..n {
        print!("from {from:>3} ");
        for to in 0..n {
            let l = medium.link(from, to);
            if from != to && l.delivers {
                print!("{:>7.1}", l.snr_db);
            } else {
                print!("{:>7}", "-");
            }
        }
        println!();
    }
    println!();
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = split_args(&argv).unwrap_or_else(|e| die(&e));
    if cli.help {
        print!("{HELP}");
        return;
    }
    let spec = ScenarioSpec::from_scn(&cli.line).unwrap_or_else(|e| die(&e));
    // The canonical .scn line: paste into a file and run it (with
    // others) via `all FILE.scn`. Format: docs/SCENARIO_FORMAT.md.
    println!("scn: {}\n", spec.to_scn());
    if cli.dump_links {
        dump_links(&spec);
    }
    let runner = ExperimentRunner::new(cli.threads);
    let cell = runner.run_sweep(std::slice::from_ref(&spec), cli.seeds).remove(0);
    let metric = if spec.traffic.is_file() { "throughput" } else { "goodput" };
    for (i, r) in cell.runs.iter().enumerate() {
        // Print the derived world seed so any run can be replayed
        // exactly via ScenarioSpec::with_seed(world_seed).run().
        let seed = ExperimentRunner::run_seed(&spec, i as u64 + 1);
        match r {
            Ok(run) => println!(
                "run {} (world seed {seed:#018x}): {} {:.3} Mbps (flows: {:?})",
                i + 1,
                if run.completed { "ok  " } else { "STUCK" },
                run.throughput_bps / 1e6,
                run.per_flow_bps().iter().map(|x| (x / 1e3).round() / 1e3).collect::<Vec<_>>()
            ),
            Err(e) => println!("run {} (world seed {seed:#018x}): FAILED({}) — {e}", i + 1, e.reason()),
        }
    }
    // The labeled per-flow breakdown: one row per flow, means across
    // the surviving seeds, plus the first surviving run's delivered
    // bytes and completion time.
    let flows = spec.effective_flows();
    let mut t = Table::new(
        format!("per-flow results ({} seed(s))", cli.seeds),
        &["flow", "kind", "mean Mbps", "bytes (run 1)", "done at (run 1)"],
    );
    for (j, f) in flows.iter().enumerate() {
        let (mut sum, mut n) = (0.0, 0u32);
        for r in cell.ok_runs() {
            sum += r.per_flow[j].bps;
            n += 1;
        }
        let (mean_cell, bytes_cell, done_cell) = match cell.first() {
            Some(first) => {
                let flow = &first.per_flow[j];
                (
                    format!("{:.3}", sum / f64::from(n.max(1)) / 1e6),
                    flow.bytes.to_string(),
                    flow.completed_at.map_or("-".into(), |at| format!("{:.3}s", at.as_nanos() as f64 / 1e9)),
                )
            }
            None => (cell.failed_label(), "-".into(), "-".into()),
        };
        t.row(vec![
            format!("{}>{}:{}", f.src, f.dst, f.port),
            f.traffic.kind().label().into(),
            mean_cell,
            bytes_cell,
            done_cell,
        ]);
    }
    println!();
    t.print();
    if let (Some(&relay), Some(first)) = (spec.relays().first(), cell.first()) {
        let rel = &first.report.nodes[relay];
        println!(
            "\nrelay (node {relay}, run 1): {} TXs, avg {:.0} B, {:.2} subframes, time-ovh {:.1}%, {} retries",
            rel.tx_data_frames,
            rel.avg_frame_size,
            rel.avg_subframes,
            rel.time_overhead * 100.0,
            rel.retries
        );
    }
    println!("\nmean {metric}: {:.3} Mbps over {} seeds", cell.mean_throughput_bps() / 1e6, cli.seeds);
    if cell.failed() {
        let lines = failure_lines("scenario", [&cell]);
        for line in &lines {
            eprintln!("{line}");
        }
        eprintln!("{} replication(s) FAILED", lines.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(args: &str) -> Result<Cli, String> {
        split_args(&args.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn spec_tokens_reach_the_parser_as_one_line_and_flags_stay_apart() {
        let cli = split("topo=star --seeds 7 policy=ba rate=0.65 --dump-links traffic=file:1 --threads 2")
            .expect("valid command line");
        assert_eq!(
            cli,
            Cli {
                line: "topo=star policy=ba rate=0.65 traffic=file:1".into(),
                seeds: 7,
                threads: 2,
                dump_links: true,
                help: false,
            }
        );
        let spec = ScenarioSpec::from_scn(&cli.line).expect("the joined line parses");
        assert_eq!(spec.to_scn(), cli.line);
        // Defaults: three replications, one thread per CPU, no dump.
        let plain = split("topo=star").unwrap();
        assert_eq!((plain.seeds, plain.threads, plain.dump_links, plain.help), (3, 0, false, false));
        assert!(split("--help").unwrap().help);
    }

    #[test]
    fn stray_flags_and_bad_values_are_errors() {
        assert_eq!(split("topo=linear:2 --hops 2").unwrap_err(), "unknown flag --hops");
        assert_eq!(split("--seeds").unwrap_err(), "--seeds needs a value");
        assert_eq!(split("--seeds 0").unwrap_err(), "seeds must be at least 1");
        assert_eq!(split("--threads x").unwrap_err(), "bad --threads");
        assert_eq!(split("--threads 257").unwrap_err(), "threads must be at most 256");
        assert_eq!(split("--threads 256").unwrap().threads, 256);
        // A token that is not key=value is the parser's to reject.
        let cli = split("tcp --seeds 1").unwrap();
        assert_eq!(ScenarioSpec::from_scn(&cli.line).unwrap_err(), "`tcp` is not key=value");
    }
}
