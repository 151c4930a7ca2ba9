//! The five workloads: how each one's inputs are generated from the
//! seed, and what one pass of it does.
//!
//! Every workload is a closed-loop batch job: the next `(spec,
//! replication)` job starts when a runner worker is free, so a slower
//! program is offered less load per second, never a growing backlog.
//!
//! The program sees only generated [`ScenarioSpec`]s: the checked-in
//! `examples/sweeps/*.scn` files are parsed with `parse_scn_file`
//! (exactly as `--bin sweep` reads them) and the benchmark seed is
//! written into every spec's `seed` field, which changes every
//! `stable_hash` and, through it, every world seed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hydra_bench::{CacheStats, CellResult, ConcurrentCache, ExperimentRunner, RunnerTelemetry, Table};
use hydra_netsim::{parse_scn_file, RunError, RunOutcome, ScenarioSpec, SweepMeta, TopologyKind};

use crate::digest::Digest;
use crate::trace::Tracer;

/// One of the five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Regenerate the paper: the 19 `fig*` / `table*` / `ablation_*` sweeps.
    PaperCold,
    /// The three 1000-node mesh cells of `ext_scale.scn`, world build included.
    Mesh1000,
    /// `ext_burst.scn`: 2-hop TCP under independent and bursty link errors.
    LossyBurst,
    /// All 26 sweeps against a pre-filled result store: zero events simulated.
    SweepWarm,
    /// All 26 sweeps, cold, on real cores, writing a fresh store.
    SweepColdPar,
}

/// Every workload, in the order `bench run` executes them.
pub const ALL: [Workload; 5] = [
    Workload::PaperCold,
    Workload::Mesh1000,
    Workload::LossyBurst,
    Workload::SweepWarm,
    Workload::SweepColdPar,
];

impl Workload {
    /// The name used on the command line and in every result file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::Mesh1000 => "mesh_1000",
            Workload::LossyBurst => "lossy_burst",
            Workload::SweepWarm => "sweep_warm",
            Workload::SweepColdPar => "sweep_cold_par",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperCold => {
                "what regenerating the paper costs: hundreds of small shared-domain worlds, so per-event \
                 core/tcp/wire work and per-cell world builds dominate"
            }
            Workload::Mesh1000 => {
                "one 1000-node mesh cell per policy, build included: medium fan-out, a deep event queue and \
                 placement/route construction dominate; TCP and wire do little"
            }
            Workload::LossyBurst => {
                "the paper_cold layers on their slow path: corrupted copies, checked re-parse, CRC failures, \
                 MAC retries and TCP retransmission"
            }
            Workload::SweepWarm => {
                "the warm rerun users do most: store open, lookups, fold and render with every simulator \
                 layer bypassed, so simulator changes must leave it flat"
            }
            Workload::SweepColdPar => {
                "the cold sweep at real cores: LPT + work stealing and group-commit cache appends beside \
                 sweep_warm's reads"
            }
        }
    }

    /// Timed passes of a full `bench run`. Chosen so every workload's
    /// median settles within a third of its bound on a 2-core box
    /// while the whole run stays under ~90 s.
    pub fn passes(self) -> usize {
        match self {
            Workload::PaperCold => 7,
            Workload::Mesh1000 => 9,
            Workload::LossyBurst => 9,
            Workload::SweepWarm => 31,
            Workload::SweepColdPar => 5,
        }
    }

    /// Runner threads: the parallel workload uses `min(nproc, 4)` so
    /// the load never exceeds the cores that exist; the rest run at 1.
    pub fn threads(self) -> usize {
        match self {
            Workload::SweepColdPar => std::thread::available_parallelism().map_or(1, |n| n.get()).min(4),
            _ => 1,
        }
    }

    /// Whether passes go through a result store (and render tables).
    pub fn uses_store(self) -> bool {
        matches!(self, Workload::SweepWarm | Workload::SweepColdPar)
    }

    fn wants_file(self, stem: &str) -> bool {
        match self {
            Workload::PaperCold => ["fig", "table", "ablation_"].iter().any(|p| stem.starts_with(p)),
            Workload::Mesh1000 => stem == "ext_scale",
            Workload::LossyBurst => stem == "ext_burst",
            Workload::SweepWarm | Workload::SweepColdPar => true,
        }
    }
}

/// Replications of `lossy_burst` (the file ships `seeds=3`; six make a
/// pass long enough to time and average the per-seed loss patterns).
const LOSSY_BURST_REPS: u64 = 6;

/// One parsed sweep file with the benchmark seed applied.
#[derive(Debug, Clone)]
pub struct SweepInput {
    /// File stem, e.g. `fig11_2hop`.
    pub name: String,
    /// Caption / notes, for the rendered table.
    pub meta: SweepMeta,
    /// The specs handed to the program.
    pub specs: Vec<ScenarioSpec>,
    /// `stable_hash` of each spec (the cache key and world-seed root).
    pub hashes: Vec<u64>,
    /// Replications per spec.
    pub seeds: u64,
}

/// One operation: replication `rep` of cell `cell` of file `file`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Index into [`Inputs::files`].
    pub file: usize,
    /// Index into that file's specs.
    pub cell: usize,
    /// Replication, 1-based.
    pub rep: u64,
    /// The spec's `stable_hash`: with `rep`, the cache key.
    pub hash: u64,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The sweeps, in file-name order.
    pub files: Vec<SweepInput>,
    /// The `specs × seeds` expansion, in the order the runner executes
    /// and returns it: one operation each.
    pub jobs: Vec<Job>,
    /// Directory for this workload's result stores (sweep workloads).
    pub store_root: PathBuf,
}

impl Inputs {
    fn new(files: Vec<SweepInput>, store_root: PathBuf) -> Inputs {
        let mut jobs = Vec::new();
        for (file, f) in files.iter().enumerate() {
            for (cell, &hash) in f.hashes.iter().enumerate() {
                jobs.extend((1..=f.seeds).map(|rep| Job { file, cell, rep, hash }));
            }
        }
        Inputs { files, jobs, store_root }
    }

    /// The spec of `job`.
    pub fn spec(&self, job: &Job) -> &ScenarioSpec {
        &self.files[job.file].specs[job.cell]
    }
}

/// The shipped sweep files under `root/examples/sweeps`, in name order.
pub fn scn_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let dir = root.join("examples/sweeps");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Set-up: reads and parses the workload's `.scn` files under
/// `root/examples/sweeps`, writes `seed` into every spec, hashes every
/// spec, expands the job list and creates the store directory. This is
/// the operation `setup_s` times.
pub fn generate(
    w: Workload,
    seed: u64,
    root: &Path,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<Inputs, String> {
    let mut files = Vec::new();
    for path in scn_files(root)? {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default().to_string();
        if !w.wants_file(&stem) {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let file = tracer
            .span("netsim.parse_scn", |_| parse_scn_file(&text))
            .map_err(|e| format!("{}:{e}", path.display()))?;
        let mut specs = file.specs;
        if w == Workload::Mesh1000 {
            specs.retain(|s| matches!(s.topology, TopologyKind::RandomMesh { nodes: 1000, .. }));
        }
        for spec in &mut specs {
            spec.seed = seed;
        }
        let hashes =
            tracer.span("netsim.stable_hash", |_| specs.iter().map(ScenarioSpec::stable_hash).collect());
        let seeds = match w {
            Workload::Mesh1000 => 1,
            Workload::LossyBurst => LOSSY_BURST_REPS,
            _ => file.meta.seeds.unwrap_or(3),
        };
        files.push(SweepInput { name: stem, meta: file.meta, specs, hashes, seeds });
    }
    let inputs = Inputs::new(files, scratch.to_path_buf());
    if inputs.jobs.is_empty() {
        return Err(format!("workload {} found no scenarios under {}", w.name(), root.display()));
    }
    if w.uses_store() {
        std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    }
    Ok(inputs)
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Cells per file, in file order.
    pub cells: Vec<Vec<CellResult>>,
    /// The rendered tables (store workloads only), concatenated.
    pub rendered: String,
    /// Store session counters at the end of the pass (store workloads).
    pub cache: Option<CacheStats>,
    /// Runner telemetry accumulated over the pass.
    pub telemetry: RunnerTelemetry,
    /// Per-job `(wall_ms, queue_wait_ms)` of every dispatched job
    /// (collected on traced passes only).
    pub job_stats: Vec<(f64, f64)>,
}

impl PassOutput {
    /// Every job's result, in job order.
    pub fn results(&self) -> impl Iterator<Item = &Result<RunOutcome, RunError>> {
        self.cells.iter().flatten().flat_map(|c| c.runs.iter())
    }

    /// `sim_digest` of the pass.
    pub fn digest(&self, inputs: &Inputs) -> u64 {
        let mut d = Digest::default();
        for (job, result) in inputs.jobs.iter().zip(self.results()) {
            d.job(job.hash, job.rep, result);
        }
        d.value()
    }
}

/// The table `--bin sweep` prints for one file (its `run_file` lives in
/// the binary, so the few lines are repeated here against the same
/// public `Table` / `CellResult` items).
pub fn render_table(file: &SweepInput, cells: &[CellResult]) -> String {
    let (name, seeds) = (&file.name, file.seeds);
    let title = match &file.meta.caption {
        Some(caption) => format!("{caption} [{name}.scn — {} scenarios × {seeds} seed(s)]", file.specs.len()),
        None => format!("{name}.scn — {} scenarios × {seeds} seed(s)", file.specs.len()),
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
    t.render()
}

/// Runs every file of `inputs` through `runner`, one `run_sweep` per
/// file, rendering each table when `render` is set.
fn sweep_files(
    runner: &ExperimentRunner,
    inputs: &Inputs,
    render: bool,
    tracer: &mut Tracer,
    out: &mut PassOutput,
) {
    for file in &inputs.files {
        let cells = tracer.span("bench.runner.run_sweep", |t| {
            let cells = runner.run_sweep(&file.specs, file.seeds);
            if let Some((id, base_ns)) = t.current() {
                // Jobs run inside the runner (on its own threads when
                // parallel), out of reach of a span here: rebuild them
                // from the per-job telemetry the runner returns.
                for j in &runner.telemetry().per_job {
                    t.telemetry_child("netsim.run", id, base_ns, j.queue_wait_ms, j.wall_ms);
                    out.job_stats.push((j.wall_ms, j.queue_wait_ms));
                }
            }
            cells
        });
        if render {
            tracer.span("bench.report.render", |_| out.rendered.push_str(&render_table(file, &cells)));
        }
        out.cells.push(cells);
    }
    out.telemetry = runner.telemetry();
}

/// The store directory of pass `tag` under the workload's scratch root.
pub fn store_dir(inputs: &Inputs, tag: &str) -> PathBuf {
    inputs.store_root.join(tag)
}

/// Runs all files at `threads` through a store opened at `dir`
/// (created if missing): the `--bin sweep` path. Cold when `dir` is
/// empty, warm when a previous run filled it.
pub fn stored_pass(
    inputs: &Inputs,
    dir: &Path,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<PassOutput, String> {
    let mut out = PassOutput::default();
    let cache = tracer
        .span("bench.sweeps.open", |_| ConcurrentCache::open(dir))
        .map_err(|e| format!("open result store {}: {e}", dir.display()))?;
    let cache = Arc::new(cache);
    let runner = ExperimentRunner::new(threads).with_cache(Arc::clone(&cache));
    sweep_files(&runner, inputs, true, tracer, &mut out);
    out.cache = Some(cache.stats());
    Ok(out)
}

/// One pass of workload `w`. `pass_tag` names the store directory a
/// cold store pass creates (removed again by the caller, untimed).
pub fn run_pass(
    w: Workload,
    inputs: &Inputs,
    pass_tag: &str,
    tracer: &mut Tracer,
) -> Result<PassOutput, String> {
    match w {
        Workload::PaperCold | Workload::Mesh1000 | Workload::LossyBurst => {
            let mut out = PassOutput::default();
            sweep_files(&ExperimentRunner::new(w.threads()), inputs, false, tracer, &mut out);
            Ok(out)
        }
        // The store was filled during set-up (see `WARM_STORE`).
        Workload::SweepWarm => stored_pass(inputs, &store_dir(inputs, WARM_STORE), w.threads(), tracer),
        Workload::SweepColdPar => stored_pass(inputs, &store_dir(inputs, pass_tag), w.threads(), tracer),
    }
}

/// Directory name of `sweep_warm`'s pre-filled store.
pub const WARM_STORE: &str = "warm-store";

/// Total size of the files directly under `dir`, MB.
pub fn dir_size_mb(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0);
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hydra-benchmark-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is {} chars", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn the_shipped_files_give_the_documented_job_counts() {
        let count = |w| generate(w, 1, &root(), &scratch("count"), &mut Tracer::off()).unwrap();
        let paper = count(Workload::PaperCold);
        assert_eq!(paper.files.len(), 19);
        assert!(paper.files.iter().all(|f| !f.name.starts_with("ext_") && f.name != "smoke"));
        let mesh = count(Workload::Mesh1000);
        assert_eq!((mesh.files.len(), mesh.jobs.len()), (1, 3));
        let burst = count(Workload::LossyBurst);
        assert_eq!(burst.jobs.len(), 21 * 6);
        let warm = count(Workload::SweepWarm);
        assert_eq!((warm.files.len(), warm.jobs.len()), (26, 690));
        // Job order is the runner's: file, then cell, then replication.
        assert_eq!(burst.jobs[7], Job { file: 0, cell: 1, rep: 2, hash: burst.files[0].hashes[1] });
        let _ = std::fs::remove_dir_all(scratch("count"));
    }

    #[test]
    fn the_seed_reaches_every_spec_and_every_hash() {
        let a = generate(Workload::LossyBurst, 1, &root(), &scratch("seed"), &mut Tracer::off()).unwrap();
        let b = generate(Workload::LossyBurst, 2, &root(), &scratch("seed"), &mut Tracer::off()).unwrap();
        assert!(a.files[0].specs.iter().all(|s| s.seed == 1));
        assert!(b.files[0].specs.iter().all(|s| s.seed == 2));
        assert!(a.files[0].hashes.iter().zip(&b.files[0].hashes).all(|(x, y)| x != y));
        let again = generate(Workload::LossyBurst, 1, &root(), &scratch("seed"), &mut Tracer::off()).unwrap();
        assert_eq!(a.files[0].hashes, again.files[0].hashes, "same seed, same inputs");
    }
}
