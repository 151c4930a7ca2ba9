//! Simulator performance profiling: runs a deterministic grid with the
//! counting allocator installed and writes `results/BENCH_profile.json`.
//!
//! ```text
//! cargo run --release -p hydra-bench --bin profile -- \
//!     [--grid full|smoke] [--seeds N] [--out PATH] [--scale] [--chaos] \
//!     [--threads LIST]
//! ```
//!
//! The workload is always sequential, and each grid runs on a fresh
//! runner whose memory-only store starts empty, so every run a grid
//! reports is simulated and the event counts are **deterministic** — CI
//! runs the smoke grid twice and diffs them (wall times are machine
//! noise and live in separate fields). `--grid full` runs every shipped
//! sweep at one seed; its stdout, one event count per sweep, is checked
//! in as `tests/golden/profile_full.txt`, and CI diffs it.
//!
//! This binary is the only place the counting global allocator is
//! installed by default: `allocations_per_1k_events` is the number the
//! allocation-regression test bounds.

use std::collections::HashSet;
use std::io::Write as _;

use hydra_bench::experiments::shipped_sweeps;
use hydra_bench::{CellResult, ExperimentRunner, RunnerTelemetry};
use hydra_netsim::RunPerf;
use hydra_netsim::{check_seeds, parse_scn, FlowTraffic, Policy, RunBudget, ScenarioSpec, TopologyKind};
use hydra_phy::Rate;
use hydra_sim::Duration;

#[global_allocator]
static ALLOC: hydra_sim::CountingAlloc = hydra_sim::CountingAlloc;

const HELP: &str = "\
usage: profile [options]

Runs a deterministic, sequential grid (each sweep on a fresh runner, so
every run simulates) with allocation counting enabled and writes a JSON
profile report.

options:
  --grid full|smoke    workload: every shipped sweep x 1 seed (default),
                       or the 4-cell smoke grid for CI
  --seeds N            replications per scenario (default 1)
  --out PATH           report path (default results/BENCH_profile.json)
  --scale              also run the mesh scale grid: constant-density
                       random meshes at several node counts, each cell
                       simulated twice — sparse medium vs the dense
                       O(n^2) reference medium — with outcome equality
                       asserted and events/s + speedup recorded in a
                       `scale` block of the report
  --assert-events-per-s N
                       fail (exit 1) if any scale row's sparse engine
                       falls below N events/s — the CI perf floor
  --assert-scale-speedup X
                       fail (exit 1) if any scale row with >= 300 nodes
                       speeds up less than X times over the dense
                       reference (wall-clock; for record-generating
                       runs on quiet machines, not shared CI runners)
  --chaos              fault-isolation proof instead of profiling: run
                       the smoke grid fault-free, break two seed-picked
                       cells (one spec that panics, one with a 50-event
                       budget) and re-run the grid as one sweep at 1, 2
                       and 4 threads, assert failed cells carry
                       FAILED(reason) labels and surviving cells are
                       byte-identical to the fault-free pass at every
                       width, print `chaos=ok`, exit
  --chaos-seed N       seed for the chaos victim selection (default 7)
  --threads LIST       runner mode instead of profiling: run the whole
                       grid (flattened into one work list on a fresh
                       runner, so each distinct run simulates once) at
                       each comma-separated thread count. Asserts event
                       totals are identical at every width, prints
                       per-width makespan / busy / efficiency, and writes
                       the report to results/profile_runner.json unless
                       --out is given. A width above the machine's core
                       count is recorded as unmeasured, not timed
  --help               this text
";

struct Args {
    grid: String,
    seeds: u64,
    out: String,
    out_set: bool,
    scale: bool,
    assert_events_per_s: Option<f64>,
    assert_scale_speedup: Option<f64>,
    chaos: bool,
    chaos_seed: u64,
    threads: Option<Vec<usize>>,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{HELP}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        grid: "full".into(),
        seeds: 1,
        out: "results/BENCH_profile.json".into(),
        out_set: false,
        scale: false,
        assert_events_per_s: None,
        assert_scale_speedup: None,
        chaos: false,
        chaos_seed: 7,
        threads: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let val = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| die("missing value"))
        };
        match argv[i].as_str() {
            "--grid" => a.grid = val(&mut i),
            "--seeds" => {
                a.seeds = match val(&mut i).parse().map(check_seeds) {
                    Ok(Ok(n)) => n,
                    Ok(Err(e)) => die(&e),
                    Err(_) => die("bad --seeds"),
                }
            }
            "--out" => {
                a.out = val(&mut i);
                a.out_set = true;
            }
            "--threads" => {
                let widths: Vec<usize> = val(&mut i)
                    .split(',')
                    .map(|t| t.trim().parse().unwrap_or_else(|_| die("bad --threads list")))
                    .collect();
                if widths.is_empty() || widths.contains(&0) {
                    die("--threads needs a comma-separated list of positive counts");
                }
                a.threads = Some(widths);
            }
            "--scale" => a.scale = true,
            "--assert-events-per-s" => {
                a.assert_events_per_s =
                    Some(val(&mut i).parse().unwrap_or_else(|_| die("bad events/s floor")))
            }
            "--assert-scale-speedup" => {
                a.assert_scale_speedup =
                    Some(val(&mut i).parse().unwrap_or_else(|_| die("bad speedup floor")))
            }
            "--chaos" => a.chaos = true,
            "--chaos-seed" => a.chaos_seed = val(&mut i).parse().unwrap_or_else(|_| die("bad --chaos-seed")),
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    a
}

/// The CI smoke workload: exactly the cells of the checked-in
/// `examples/sweeps/smoke.scn` (parsed, not duplicated, so the two can
/// never drift).
fn smoke_grid() -> Vec<(String, Vec<ScenarioSpec>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/sweeps/smoke.scn");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let specs = parse_scn(&text).unwrap_or_else(|e| die(&format!("{path}:{e}")));
    vec![("smoke".to_string(), specs)]
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct SweepPerf {
    name: String,
    cells: usize,
    perf: RunPerf,
}

struct ScaleRow {
    nodes: usize,
    side_m: u32,
    flows: usize,
    domains: usize,
    events: u64,
    sparse_wall_s: f64,
    dense_wall_s: f64,
}

impl ScaleRow {
    fn sparse_events_per_sec(&self) -> f64 {
        self.events as f64 / self.sparse_wall_s
    }
    fn dense_events_per_sec(&self) -> f64 {
        self.events as f64 / self.dense_wall_s
    }
    fn speedup(&self) -> f64 {
        self.dense_wall_s / self.sparse_wall_s
    }
}

/// The `--scale` workload: one pure-CBR cell per node count, constant
/// density (the `ext_scale` meshes' `side ≈ 5.73·√nodes`, placement
/// seed 7), default mesh flows (`nodes/4` concurrent CBR flows at
/// 160 B / 120 ms). Pure window-measured traffic so the dense-reference
/// replay is horizon-bounded and event counts stay deterministic.
/// Returns `(nodes, spec)` rows in ascending size.
///
/// Node counts are chosen to bracket the dense backend's collapse: on
/// one core the sparse medium alone crosses 4× at ≈350 nodes and
/// reaches >10× at 1000; the 100-node row documents the near-crossover
/// regime.
fn scale_specs() -> Vec<(usize, ScenarioSpec)> {
    [(100usize, 58u32), (400, 115), (700, 152), (1000, 182)]
        .iter()
        .map(|&(nodes, side)| {
            let kind = TopologyKind::RandomMesh { nodes, area_m: side, seed: 7 };
            let interval = Duration::from_millis(120);
            let mut spec = ScenarioSpec::udp(kind, Policy::Ba, Rate::R1_30, interval).spatial(1.0);
            spec.traffic = FlowTraffic::Cbr { interval, payload: 160 };
            spec.warmup = Duration::from_millis(500);
            spec.duration = Duration::from_secs(2);
            (nodes, spec)
        })
        .collect()
}

/// Runs the mesh scale grid: each cell once on the sparse medium
/// (`run()`) and once on the dense O(n²) reference medium, asserting
/// the two produce identical outcomes. Wall times include world construction for both sides —
/// each engine pays its own setup.
fn run_scale() -> Vec<ScaleRow> {
    scale_specs()
        .into_iter()
        .map(|(nodes, spec)| {
            let TopologyKind::RandomMesh { area_m, .. } = spec.topology else {
                die("scale cells must be random meshes")
            };
            let (flows, domains) = (spec.effective_flows().len(), spec.build().component_count());
            let t0 = std::time::Instant::now();
            let sparse = spec.run();
            let sparse_wall_s = t0.elapsed().as_secs_f64();
            let t0 = std::time::Instant::now();
            let dense = spec.run_dense_reference();
            let dense_wall_s = t0.elapsed().as_secs_f64();
            assert_eq!(sparse, dense, "sparse diverged from dense reference at {nodes} nodes");
            let row = ScaleRow {
                nodes,
                side_m: area_m,
                flows,
                domains,
                events: sparse.perf.events_processed,
                sparse_wall_s,
                dense_wall_s,
            };
            eprintln!(
                "scale {nodes} nodes ({flows} flows, {domains} domain(s)): {} events, sparse {:.0} ms ({:.0} ev/s), dense {:.0} ms ({:.0} ev/s), speedup {:.2}x",
                row.events,
                sparse_wall_s * 1e3,
                row.sparse_events_per_sec(),
                dense_wall_s * 1e3,
                row.dense_events_per_sec(),
                row.speedup(),
            );
            row
        })
        .collect()
}

/// The `--chaos` proof: the smoke grid fault-free, then again with two
/// `stream_seed`-picked victim cells broken (one panics, one runs out of
/// budget), as one sweep at 1, 2 and 4 threads. The faults are
/// properties of the victim specs, so they fire in those cells on any
/// thread, in any order. Every sweep must complete, failed cells must
/// label themselves, and every surviving cell must be byte-identical to
/// its fault-free twin at every width.
fn run_chaos(chaos_seed: u64, seeds: u64) -> ! {
    let specs = smoke_grid().remove(0).1;
    let ncells = specs.len();
    assert!(ncells >= 4, "chaos proof needs the 4-cell smoke grid");

    // Victim selection: draw seed-derived cell indices until two
    // distinct cells are picked. Same seed → same victims, on any
    // machine.
    let mut victims: Vec<usize> = Vec::new();
    let mut draw = 0u64;
    while victims.len() < 2 {
        let idx = (hydra_sim::stream_seed(chaos_seed, draw) % ncells as u64) as usize;
        if !victims.contains(&idx) {
            victims.push(idx);
        }
        draw += 1;
    }
    let (panics, starves) = (victims[0], victims[1]);
    let expected = |i: usize| {
        if i == panics {
            Some("FAILED(panic)")
        } else if i == starves {
            Some("FAILED(budget)")
        } else {
            None
        }
    };

    let baseline = ExperimentRunner::sequential().run_sweep(&specs, seeds);
    if let Some(bad) = baseline.iter().find(|c| c.failed()) {
        die(&format!("fault-free baseline already fails: {}", bad.failed_label()));
    }
    let mut broken = specs;
    // `Mac::new` rejects a zero-byte aggregate with a panic inside
    // `build()`; any spec that panics inside build/run will do.
    broken[panics].max_aggregate = 0;
    broken[starves].budget = Some(RunBudget::events(50));

    // The planted panics are expected; keep them off stderr so the CI
    // log shows only the verdict lines.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let sweeps: Vec<(usize, Vec<CellResult>)> =
        [1, 2, 4].into_iter().map(|t| (t, ExperimentRunner::new(t).run_sweep(&broken, seeds))).collect();
    std::panic::set_hook(prev_hook);

    for (threads, chaos) in &sweeps {
        for (i, (b, c)) in baseline.iter().zip(chaos).enumerate() {
            let at = format!("chaos cell {i} at {threads} thread(s)");
            match expected(i) {
                Some(label) => {
                    if !c.failed() || c.failed_label() != label {
                        die(&format!(
                            "{at}: expected {label}, got failed={} label={}",
                            c.failed(),
                            c.failed_label()
                        ));
                    }
                    eprintln!("{at}: {label} (planted, isolated)");
                }
                None => {
                    if c.runs != b.runs {
                        die(&format!("{at}: surviving cell diverged from the fault-free run"));
                    }
                    eprintln!("{at}: ok (byte-identical to fault-free)");
                }
            }
        }
    }
    println!("chaos=ok cells={ncells} failed=2 survivors={}", ncells - 2);
    std::process::exit(0);
}

/// One width of the `--threads` mode.
struct WidthPoint {
    threads: usize,
    events: u64,
    telemetry: RunnerTelemetry,
}

/// The `--threads` mode: the whole grid flattened into one work list,
/// run on a fresh runner at every requested width, so each distinct
/// `(stable_hash, replication)` simulates once and its repeats are
/// hits. Event totals are asserted identical across widths (the
/// determinism claim measured, not assumed) and the per-width telemetry
/// goes into a `hydra-agg.bench-runner.v2` report. Wall-clock
/// makespans say nothing about a schedule once threads outnumber
/// cores, so such widths carry `unmeasured` in place of their timings.
fn run_threads(args: &Args, widths: &[usize]) -> ! {
    let grids = match args.grid.as_str() {
        "full" => shipped_sweeps().into_iter().map(|(n, s)| (n.to_string(), s)).collect(),
        "smoke" => smoke_grid(),
        other => die(&format!("unknown grid `{other}` (full|smoke)")),
    };
    // One flat work list: the executor orders the *whole* session, not
    // one small sweep at a time.
    let specs: Vec<ScenarioSpec> = grids.into_iter().flat_map(|(_, s)| s).collect();
    let njobs = specs.len() as u64 * args.seeds;
    let distinct: HashSet<u64> = specs.iter().map(ScenarioSpec::stable_hash).collect();
    let nruns = distinct.len() as u64 * args.seeds;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let points: Vec<WidthPoint> = widths
        .iter()
        .map(|&threads| {
            let runner = ExperimentRunner::new(threads);
            let mut events = 0u64;
            for run in runner.run_sweep(&specs, args.seeds).into_iter().flat_map(|cell| cell.runs) {
                match run {
                    Ok(outcome) => events += outcome.perf.events_processed,
                    Err(e) => die(&format!("run failed at {threads} threads: {e}")),
                }
            }
            let t = runner.telemetry();
            assert_eq!(t.jobs, nruns, "x{threads}: simulated other than each distinct run once");
            eprintln!(
                "x{threads}: {} jobs, makespan {:.1} ms, busy {:.1} ms, efficiency {:.2}{}",
                t.jobs,
                t.makespan_ms,
                t.busy_ms,
                t.parallel_efficiency(),
                if threads > cores { " (oversubscribed: not recorded)" } else { "" },
            );
            WidthPoint { threads, events, telemetry: t }
        })
        .collect();
    for p in &points {
        assert_eq!(
            p.events, points[0].events,
            "event total changed between {} and {} threads",
            points[0].threads, p.threads,
        );
    }

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"hydra-agg.bench-runner.v2\",\n");
    j.push_str(&format!("  \"grid\": {},\n", quote(&args.grid)));
    j.push_str(&format!("  \"seeds\": {},\n", args.seeds));
    j.push_str(&format!("  \"jobs\": {},\n", njobs));
    j.push_str(&format!("  \"simulated\": {},\n", nruns));
    j.push_str(&format!("  \"machine_cores\": {cores},\n"));
    j.push_str("  \"measurement_note\": \"each point is one pass over the flattened grid on a fresh runner, each distinct run simulated once; makespan and busy are wall-clock, so a width above machine_cores is marked unmeasured\",\n");
    j.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let t = &p.telemetry;
        let timing = if p.threads > cores {
            "\"unmeasured\": \"fewer cores than threads\"".to_string()
        } else {
            format!(
                "\"makespan_ms\": {:.1}, \"busy_ms\": {:.1}, \"efficiency\": {:.3}",
                t.makespan_ms,
                t.busy_ms,
                t.parallel_efficiency()
            )
        };
        j.push_str(&format!(
            "    {{\"threads\": {}, \"events_processed\": {}, {timing}}}{}\n",
            p.threads,
            p.events,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    j.push_str("  ]\n}\n");

    let out = if args.out_set { args.out.clone() } else { "results/profile_runner.json".to_string() };
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out, j.as_bytes()).unwrap_or_else(|e| die(&format!("write {out}: {e}")));

    // Deterministic lines for CI diffing (no wall times).
    println!("events_processed_total={}", points[0].events);
    println!("widths={} jobs={}", points.len(), njobs);
    eprintln!("runner report -> {out}");
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if args.chaos {
        run_chaos(args.chaos_seed, args.seeds.max(2));
    }
    if let Some(widths) = args.threads.clone() {
        run_threads(&args, &widths);
    }
    let grids = match args.grid.as_str() {
        "full" => shipped_sweeps().into_iter().map(|(n, s)| (n.to_string(), s)).collect(),
        "smoke" => smoke_grid(),
        other => die(&format!("unknown grid `{other}` (full|smoke)")),
    };

    // Sequential, one fresh runner (and so one empty store) per grid:
    // the event counts below must reproduce run-to-run and
    // machine-to-machine, and each grid's count covers every run in it
    // even when an earlier grid already ran the same cell.
    let mut sweeps: Vec<SweepPerf> = Vec::new();
    let mut total = RunPerf::default();
    let started = std::time::Instant::now();
    for (name, specs) in grids {
        let runs: Vec<_> = ExperimentRunner::sequential()
            .run_sweep(&specs, args.seeds)
            .into_iter()
            .flat_map(|c| c.runs)
            .map(|r| r.unwrap_or_else(|e| die(&format!("profiling run failed in {name}: {e}"))))
            .collect();
        let mut perf = RunPerf::default();
        for run in &runs {
            perf.events_processed += run.perf.events_processed;
            perf.events_stale += run.perf.events_stale;
            perf.timer_rearms += run.perf.timer_rearms;
            perf.wall_ms += run.perf.wall_ms;
            perf.allocations += run.perf.allocations;
            perf.allocated_bytes += run.perf.allocated_bytes;
        }
        eprintln!(
            "{name}: {} runs, {} events ({:.1}% stale timers), {:.1} ms, {:.0} ev/s, {:.1} allocs/1k events",
            runs.len(),
            perf.events_processed,
            perf.stale_ratio() * 100.0,
            perf.wall_ms,
            perf.events_per_sec(),
            perf.allocations as f64 / (perf.events_processed.max(1) as f64 / 1e3),
        );
        total.events_processed += perf.events_processed;
        total.events_stale += perf.events_stale;
        total.timer_rearms += perf.timer_rearms;
        total.wall_ms += perf.wall_ms;
        total.allocations += perf.allocations;
        total.allocated_bytes += perf.allocated_bytes;
        sweeps.push(SweepPerf { name, cells: specs.len(), perf });
    }
    let wall_total_s = started.elapsed().as_secs_f64();
    let scale = if args.scale { run_scale() } else { Vec::new() };

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"hydra-agg.bench-profile.v1\",\n");
    j.push_str(&format!("  \"grid\": {},\n", quote(&args.grid)));
    j.push_str(&format!("  \"seeds\": {},\n", args.seeds));
    j.push_str("  \"sweeps\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": {}, \"cells\": {}, \"events_processed\": {}, \"events_stale\": {}, \"timer_rearms\": {}, \"stale_ratio\": {:.4}, \"wall_ms\": {:.1}, \"events_per_sec\": {:.0}, \"allocations\": {}}}{}\n",
            quote(&s.name),
            s.cells,
            s.perf.events_processed,
            s.perf.events_stale,
            s.perf.timer_rearms,
            s.perf.stale_ratio(),
            s.perf.wall_ms,
            s.perf.events_per_sec(),
            s.perf.allocations,
            if i + 1 < sweeps.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    if !scale.is_empty() {
        j.push_str("  \"scale\": [\n");
        for (i, r) in scale.iter().enumerate() {
            j.push_str(&format!(
                "    {{\"nodes\": {}, \"side_m\": {}, \"flows\": {}, \"domains\": {}, \"events_processed\": {}, \"sparse_wall_ms\": {:.1}, \"sparse_events_per_sec\": {:.0}, \"dense_wall_ms\": {:.1}, \"dense_events_per_sec\": {:.0}, \"speedup\": {:.2}}}{}\n",
                r.nodes,
                r.side_m,
                r.flows,
                r.domains,
                r.events,
                r.sparse_wall_s * 1e3,
                r.sparse_events_per_sec(),
                r.dense_wall_s * 1e3,
                r.dense_events_per_sec(),
                r.speedup(),
                if i + 1 < scale.len() { "," } else { "" },
            ));
        }
        j.push_str("  ],\n");
        j.push_str("  \"scale_note\": \"constant-density random meshes, pure CBR (nodes/4 flows); each cell run on the sparse medium and on the dense O(n^2) reference medium, outcomes asserted identical; wall times include world construction\",\n");
    }
    j.push_str(&format!(
        "  \"total\": {{\"events_processed\": {}, \"events_stale\": {}, \"timer_rearms\": {}, \"stale_ratio\": {:.4}, \"wall_s\": {:.2}, \"events_per_sec\": {:.0}, \"allocations\": {}, \"allocations_per_1k_events\": {:.1}}}",
        total.events_processed,
        total.events_stale,
        total.timer_rearms,
        total.stale_ratio(),
        wall_total_s,
        total.events_processed as f64 / wall_total_s,
        total.allocations,
        total.allocations as f64 / (total.events_processed.max(1) as f64 / 1e3),
    ));
    j.push_str("\n}\n");

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    let mut f =
        std::fs::File::create(&args.out).unwrap_or_else(|e| die(&format!("create {}: {e}", args.out)));
    f.write_all(j.as_bytes()).unwrap_or_else(|e| die(&format!("write {}: {e}", args.out)));
    // Machine-comparable determinism lines for CI (no wall times; the
    // stale/rearm tallies are deterministic too — lazy cancellation is
    // part of the simulated schedule, not of measurement).
    println!("events_processed_total={}", total.events_processed);
    println!("events_stale_total={}", total.events_stale);
    println!("timer_rearms_total={}", total.timer_rearms);
    for s in &sweeps {
        println!("events_processed[{}]={}", s.name, s.perf.events_processed);
    }
    for r in &scale {
        println!("events_processed[scale:{}]={}", r.nodes, r.events);
    }
    if let Some(floor) = args.assert_events_per_s {
        for r in &scale {
            if r.sparse_events_per_sec() < floor {
                eprintln!(
                    "PERF FLOOR FAILED: scale {} nodes ran at {:.0} events/s (< {floor} floor)",
                    r.nodes,
                    r.sparse_events_per_sec()
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(min) = args.assert_scale_speedup {
        for r in scale.iter().filter(|r| r.nodes >= 300) {
            if r.speedup() < min {
                eprintln!(
                    "SPEEDUP FLOOR FAILED: scale {} nodes sped up {:.2}x over dense (< {min}x floor)",
                    r.nodes,
                    r.speedup()
                );
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "total: {} events ({:.1}% stale timers) in {wall_total_s:.2} s ({:.0} ev/s) -> {}",
        total.events_processed,
        total.stale_ratio() * 100.0,
        total.events_processed as f64 / wall_total_s,
        args.out
    );
}
