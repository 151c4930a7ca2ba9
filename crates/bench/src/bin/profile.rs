//! The simulator's two whole-program checks that no test or benchmark
//! makes. Timing belongs to `benchmark/`; this binary only checks.
//!
//! ```text
//! cargo run --release -p hydra-bench --bin profile [-- --scale]
//! ```
//!
//! With no flags it runs every shipped sweep at one seed, sequentially,
//! each on a fresh runner whose memory-only store starts empty, so
//! every run simulates and each sweep's event count covers all its runs.
//! The counts are deterministic; stdout is checked in as
//! `tests/golden/profile_full.txt`, and CI diffs it.
//!
//! `--scale` runs the mesh scale grid on the sparse medium and on the
//! dense O(n²) reference medium, asserts the two outcomes are equal on
//! every row, and gates the CI perf floors ([`MIN_EVENTS_PER_S`],
//! [`MIN_SPEEDUP`]).

use std::time::Instant;

use hydra_bench::experiments::shipped_sweeps;
use hydra_bench::ExperimentRunner;
use hydra_netsim::{FlowTraffic, Policy, RunPerf, ScenarioSpec, TopologyKind};
use hydra_phy::Rate;
use hydra_sim::Duration;

const HELP: &str = "\
usage: profile [--scale]

With no flags: runs every shipped sweep x 1 seed, sequentially, each on
a fresh runner (so every run simulates), and prints the event, stale-timer
and re-arm totals and each sweep's event count — the lines
tests/golden/profile_full.txt pins.

options:
  --scale   instead, run the mesh scale grid: constant-density random
            meshes, each simulated on the sparse medium and on the dense
            O(n^2) reference medium. Asserts equal outcomes on every row,
            at least 200000 events/s on the sparse medium, and a 3x
            speedup over dense at >= 300 nodes (exit 1 on a floor miss)
  --help    this text
";

/// Every scale row's sparse medium must dispatch at least this many
/// events per wall-clock second: an order of magnitude under measured
/// throughput, so it trips on collapses, not runner noise.
const MIN_EVENTS_PER_S: f64 = 200_000.0;

/// Rows with at least [`SPEEDUP_FROM_NODES`] nodes must run this many
/// times faster on the sparse medium than on the dense reference. Both
/// sides run on the same machine, so the ratio is stable enough to gate.
const MIN_SPEEDUP: f64 = 3.0;

/// The smallest scale row the speedup floor applies to.
const SPEEDUP_FROM_NODES: usize = 300;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{HELP}");
    std::process::exit(2);
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

/// Runs the mesh scale grid: each cell once on the sparse medium and
/// once on the dense reference, asserting identical outcomes, then
/// checks both floors on every row. Wall times include world
/// construction; each medium pays its own setup. Exits 1 if any row
/// misses a floor.
fn run_scale() {
    let mut missed = false;
    for (nodes, spec) in scale_specs() {
        let t0 = Instant::now();
        let sparse = spec.run();
        let sparse_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let dense = spec.run_dense_reference();
        let dense_s = t0.elapsed().as_secs_f64();
        assert_eq!(sparse, dense, "sparse diverged from dense reference at {nodes} nodes");
        let events = sparse.perf.events_processed;
        let (events_per_s, speedup) = (events as f64 / sparse_s, dense_s / sparse_s);
        println!("events_processed[scale:{nodes}]={events}");
        eprintln!(
            "scale {nodes} nodes ({} flows): {events} events, sparse {:.0} ms ({events_per_s:.0} ev/s), dense {:.0} ms, speedup {speedup:.2}x",
            spec.effective_flows().len(),
            sparse_s * 1e3,
            dense_s * 1e3,
        );
        if events_per_s < MIN_EVENTS_PER_S {
            eprintln!(
                "PERF FLOOR FAILED: {nodes} nodes ran at {events_per_s:.0} events/s (< {MIN_EVENTS_PER_S})"
            );
            missed = true;
        }
        if nodes >= SPEEDUP_FROM_NODES && speedup < MIN_SPEEDUP {
            eprintln!(
                "SPEEDUP FLOOR FAILED: {nodes} nodes sped up {speedup:.2}x over dense (< {MIN_SPEEDUP}x)"
            );
            missed = true;
        }
    }
    if missed {
        std::process::exit(1);
    }
}

/// Runs every shipped sweep at one seed, each on a fresh sequential
/// runner, and prints the deterministic event counts (no wall times:
/// lazy cancellation's stale timers and re-arms are part of the
/// simulated schedule, not of measurement).
fn run_event_counts() {
    let mut total = RunPerf::default();
    let mut per_sweep = Vec::new();
    for (name, specs) in shipped_sweeps() {
        let mut perf = RunPerf::default();
        for run in ExperimentRunner::sequential().run_sweep(&specs, 1).into_iter().flat_map(|c| c.runs) {
            let run = run.unwrap_or_else(|e| {
                eprintln!("error: a run in {name} failed: {e}");
                std::process::exit(1)
            });
            perf.events_processed += run.perf.events_processed;
            perf.events_stale += run.perf.events_stale;
            perf.timer_rearms += run.perf.timer_rearms;
        }
        eprintln!(
            "{name}: {} events ({:.1}% stale timers)",
            perf.events_processed,
            perf.stale_ratio() * 100.0
        );
        total.events_processed += perf.events_processed;
        total.events_stale += perf.events_stale;
        total.timer_rearms += perf.timer_rearms;
        per_sweep.push((name, perf.events_processed));
    }
    println!("events_processed_total={}", total.events_processed);
    println!("events_stale_total={}", total.events_stale);
    println!("timer_rearms_total={}", total.timer_rearms);
    for (name, events) in per_sweep {
        println!("events_processed[{name}]={events}");
    }
}

fn main() {
    let mut scale = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--scale" => scale = true,
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    if scale {
        run_scale();
    } else {
        run_event_counts();
    }
}
