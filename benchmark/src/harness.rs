//! What one workload process does: set-up, warm-up, timed passes and
//! output checks (the end-to-end run), or one traced pass plus the
//! per-layer numbers (the traced run).
//!
//! Each workload runs in a process of its own, so `VmHWM` is that
//! workload's and no cache, allocator state or thread pool is shared.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hydra_bench::{ConcurrentCache, ExperimentRunner};
use hydra_netsim::{RunOutcome, ScenarioSpec};

use crate::checks;
use crate::digest::hex;
use crate::json::{obj, Value};
use crate::procfs;
use crate::stats::{median, percentile, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, generate, run_pass, store_dir, Inputs, PassOutput, Workload, WARM_STORE};

/// How many timed passes to make.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PassBudget {
    /// Exactly this many.
    Passes(usize),
    /// As many as fit in this many seconds (at least [`MIN_TIMED_PASSES`]).
    Seconds(f64),
}

/// Fewest timed passes a time-budgeted run makes: a median of fewer
/// than three says nothing about spread.
pub const MIN_TIMED_PASSES: usize = 3;

/// What a workload process is asked to do.
#[derive(Debug, Clone)]
pub struct ChildOpts {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed, written into every generated spec.
    pub seed: u64,
    /// Timed passes.
    pub budget: PassBudget,
    /// Fewest set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Set-up keeps repeating until this many seconds have gone by: the
    /// cheap workloads parse one small file in 0.1 ms, and the median
    /// of fifteen such samples wanders with every scheduling hiccup.
    pub setup_min_s: f64,
    /// Repository root (holds `examples/sweeps`).
    pub root: PathBuf,
    /// Where scratch stores and `trace.json` go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// One named output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was seen, when it did not.
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Check {
        Check { name, ok, detail: if ok { String::new() } else { detail() } }
    }

    fn to_json(&self) -> Value {
        obj([("name", self.name.into()), ("ok", self.ok.into()), ("detail", self.detail.as_str().into())])
    }
}

/// A scratch directory removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path, w: Workload) -> Scratch {
        let dir = out_dir.join(format!("scratch-{}-{}", w.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result of an end-to-end (untraced) workload run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Operations per pass.
    pub attempted: u64,
    /// Failed operations (all of them when the digest moved between passes).
    pub failed: u64,
    /// The first few failure reasons.
    pub failure_reasons: Vec<String>,
    /// Runs that should have finished and did not (see `checks::stranded`):
    /// shown beside the failures, not counted among them.
    pub stranded: u64,
    /// `sim_digest` of every pass (they must all be equal).
    pub sim_digest: u64,
    /// The output checks.
    pub checks: Vec<Check>,
    /// Set-up repetition times, s.
    pub setup_s: Vec<f64>,
    /// Timed pass wall times, s.
    pub wall_s: Vec<f64>,
    /// `VmHWM` at exit, MB.
    pub peak_rss_mb: f64,
    /// Accuracy against the paper's tables, % (NaN if the probe failed).
    pub paper_err_pct: f64,
    /// Wall time of the untimed warm-up pass, s.
    pub warmup_pass_s: f64,
    /// Wall time of `sweep_warm`'s store fill, s.
    pub cold_fill_s: Option<f64>,
}

impl Measured {
    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The end-to-end metrics, by name, with their samples.
    pub fn end_to_end(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![
            ("setup_s", self.setup_s.clone()),
            ("wall_s", self.wall_s.clone()),
            ("peak_rss_mb", vec![self.peak_rss_mb]),
            ("paper_err_pct", vec![self.paper_err_pct]),
        ]
    }

    /// The full report `bench run` stores per workload.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .end_to_end()
            .into_iter()
            .map(|(name, samples)| {
                let unit = crate::metrics::end_to_end(name).map_or("", |m| m.unit);
                (name.to_string(), metric_json(unit, &samples))
            })
            .collect();
        let mut extra = vec![("bench.warmup_pass_s".to_string(), Value::from(self.warmup_pass_s))];
        if let Some(fill) = self.cold_fill_s {
            extra.push(("bench.sweeps.cold_fill_s".to_string(), fill.into()));
        }
        obj([
            ("workload", self.workload.name().into()),
            ("seed", self.seed.into()),
            ("threads", self.workload.threads().into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("fail_share", (self.failed as f64 / self.attempted.max(1) as f64).into()),
            ("failure_reasons", Value::Arr(self.failure_reasons.iter().map(|r| r.as_str().into()).collect())),
            ("stranded_transfers", self.stranded.into()),
            ("sim_digest", hex(self.sim_digest).into()),
            ("checks", Value::Arr(self.checks.iter().map(Check::to_json).collect())),
            ("metrics", Value::Obj(metrics)),
            ("extra", Value::Obj(extra)),
        ])
    }
}

/// `{value, unit, n, min, q1, q3, max}` for one metric; the value is the
/// median. Pass times also list every sample; set-up repeats thousands
/// of times and is summarised only.
pub fn metric_json(unit: &str, samples: &[f64]) -> Value {
    let s =
        Summary::of(samples).unwrap_or(Summary { n: 0, min: 0.0, q1: 0.0, median: 0.0, q3: 0.0, max: 0.0 });
    let mut metric = obj([
        ("value", s.median.into()),
        ("unit", unit.into()),
        ("n", s.n.into()),
        ("min", s.min.into()),
        ("q1", s.q1.into()),
        ("q3", s.q3.into()),
        ("max", s.max.into()),
    ]);
    if samples.len() <= 64 {
        metric.push("samples", Value::Arr(samples.iter().map(|&x| x.into()).collect()));
    }
    metric
}

/// A workload with its inputs generated and (for `sweep_warm`) its
/// store filled, ready to run passes.
struct Session {
    w: Workload,
    inputs: Inputs,
    scratch: Scratch,
    /// `sweep_warm` only: the fill's wall time and output.
    fill: Option<(f64, PassOutput)>,
    next_pass: usize,
}

impl Session {
    /// Generates inputs once more (under `tracer`) and fills the warm store.
    fn open(opts: &ChildOpts, tracer: &mut Tracer) -> Result<Session, String> {
        let scratch = Scratch::new(&opts.out_dir, opts.workload);
        let inputs = generate(opts.workload, opts.seed, &opts.root, &scratch.0, tracer)?;
        let fill = if opts.workload == Workload::SweepWarm {
            let dir = store_dir(&inputs, WARM_STORE);
            let t = Instant::now();
            let out = tracer.span("bench.sweeps.fill", |t| workloads::stored_pass(&inputs, &dir, 1, t))?;
            Some((t.elapsed().as_secs_f64(), out))
        } else {
            None
        };
        Ok(Session { w: opts.workload, inputs, scratch, fill, next_pass: 0 })
    }

    /// One pass: `(wall seconds, output)`. The cold store a
    /// `sweep_cold_par` pass wrote is removed afterwards, off the clock.
    fn pass(&mut self, tracer: &mut Tracer) -> Result<(f64, PassOutput), String> {
        let tag = format!("pass-{}", self.next_pass);
        self.next_pass += 1;
        let t = Instant::now();
        let out = tracer.span("pass", |t| run_pass(self.w, &self.inputs, &tag, t))?;
        let wall = t.elapsed().as_secs_f64();
        if self.w == Workload::SweepColdPar {
            let _ = std::fs::remove_dir_all(store_dir(&self.inputs, &tag));
        }
        Ok((wall, out))
    }

    /// `(spec, result)` of every job of `out`, in job order.
    fn jobs<'a>(
        &'a self,
        out: &'a PassOutput,
    ) -> impl Iterator<Item = (&'a ScenarioSpec, &'a Result<RunOutcome, hydra_netsim::RunError>)> {
        self.inputs.jobs.iter().map(|job| self.inputs.spec(job)).zip(out.results())
    }
}

/// The store counters one pass must report. A warm pass finds every job
/// in the store; a cold pass simulates each distinct `(stable_hash,
/// replication)` once and serves the repeats (several shipped sweeps
/// share cells) from what the same pass already stored.
fn pass_checks(w: Workload, inputs: &Inputs, out: &PassOutput) -> Option<Check> {
    let stats = out.cache?;
    let jobs = inputs.jobs.len() as u64;
    let want = match w {
        Workload::SweepWarm => (jobs, 0),
        _ => {
            let keys: std::collections::BTreeSet<_> = inputs.jobs.iter().map(|j| (j.hash, j.rep)).collect();
            (jobs - keys.len() as u64, keys.len() as u64)
        }
    };
    Some(Check::new("store_hits_and_misses", (stats.hits, stats.misses) == want, || {
        format!("{} hits / {} misses, expected {} / {}", stats.hits, stats.misses, want.0, want.1)
    }))
}

/// The end-to-end run of one workload: set-up repetitions, warm-up,
/// timed passes, output checks, accuracy probe.
pub fn measure(opts: &ChildOpts) -> Result<Measured, String> {
    let w = opts.workload;
    // Set-up, repeated: only the last repetition's inputs are kept.
    let mut setup_s = Vec::new();
    let setup_start = Instant::now();
    while setup_s.len() < opts.setup_reps || setup_start.elapsed().as_secs_f64() < opts.setup_min_s {
        let scratch = Scratch::new(&opts.out_dir, w);
        let t = Instant::now();
        std::hint::black_box(generate(w, opts.seed, &opts.root, &scratch.0, &mut Tracer::off())?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut off = Tracer::off();
    let mut session = Session::open(opts, &mut off)?;
    let jobs = session.inputs.jobs.len() as u64;
    let mut checks = Vec::new();

    // Warm-up pass: untimed, but its digest and tables are the reference.
    let (warmup_pass_s, first) = session.pass(&mut off)?;
    let digest = first.digest(&session.inputs);
    let (mut digests_equal, mut tables_equal) = (true, true);
    let mut pass_check = pass_checks(w, &session.inputs, &first);
    if let Some((_, fill)) = &session.fill {
        let fill_digest = fill.digest(&session.inputs);
        checks.push(Check::new("warm_digest_equals_fill", fill_digest == digest, || {
            format!("fill {} vs warm pass {}", hex(fill_digest), hex(digest))
        }));
        tables_equal &= fill.rendered == first.rendered;
    }

    let mut wall_s = Vec::new();
    let timed = Instant::now();
    let mut last = first;
    loop {
        let done = match opts.budget {
            PassBudget::Passes(n) => wall_s.len() >= n,
            PassBudget::Seconds(s) => wall_s.len() >= MIN_TIMED_PASSES && timed.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let (wall, out) = session.pass(&mut off)?;
        wall_s.push(wall);
        digests_equal &= out.digest(&session.inputs) == digest;
        tables_equal &= out.rendered == last.rendered;
        if let Some(c) = pass_checks(w, &session.inputs, &out).filter(|c| !c.ok) {
            pass_check = Some(c);
        }
        last = out;
    }
    checks.push(Check::new("digest_equal_across_passes", digests_equal, || {
        "sim_digest differed between two passes of one process".to_string()
    }));
    checks.extend(pass_check);
    if w.uses_store() {
        checks.push(Check::new("tables_byte_identical", tables_equal, || {
            "a pass rendered different tables from the first (or, for sweep_warm, from the fill)".to_string()
        }));
    }

    let (mut failed, failure_reasons) = checks::count_failures(session.jobs(&last));
    let stranded = session.jobs(&last).filter(|(spec, result)| checks::stranded(spec, result)).count() as u64;
    if !digests_equal {
        failed = jobs;
    }

    // Accuracy against the paper, beside every speed number.
    let probe = checks::run_paper_probe(opts.seed);
    let paper_err_pct = checks::paper_err_pct(&probe).unwrap_or(f64::NAN);
    checks.push(Check::new("paper_probe_ran", paper_err_pct.is_finite(), || {
        "a Table 2 / Table 4 run failed".to_string()
    }));
    if w == Workload::PaperCold {
        // The shipped table2/table4 .scn files must still be the grids
        // the accuracy metric is defined over.
        let from_files: Vec<_> = session
            .inputs
            .files
            .iter()
            .zip(&last.cells)
            .filter(|(f, _)| f.name == "table2_udp" || f.name == "table4_time_overhead")
            .flat_map(|(_, cells)| cells.iter().map(|c| &c.runs[..1]))
            .collect();
        // (The files declare one replication: the probe's first.)
        let from_code: Vec<_> = probe.iter().map(|c| &c.runs[..1]).collect();
        checks.push(Check::new("paper_scn_files_match_in_code_grids", from_files == from_code, || {
            "table2_udp.scn / table4_time_overhead.scn no longer equal experiments::*_specs()".to_string()
        }));
    }
    let cold_fill_s = session.fill.as_ref().map(|(s, _)| *s);
    Ok(Measured {
        workload: w,
        seed: opts.seed,
        attempted: jobs,
        failed,
        failure_reasons,
        stranded,
        sim_digest: digest,
        checks,
        setup_s,
        wall_s,
        peak_rss_mb: procfs::peak_rss_mb().unwrap_or(f64::NAN),
        paper_err_pct,
        warmup_pass_s,
        cold_fill_s,
    })
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Span `pass_id`s of a traced workload run.
pub mod pass_id {
    /// Input generation and, for `sweep_warm`, the store fill.
    pub const SETUP: u32 = 0;
    /// The one traced pass.
    pub const PASS: u32 = 1;
    /// Traced-only extra work: standalone world builds and the store /
    /// render calls on the pass's own results.
    pub const EXTRAS: u32 = 2;
}

/// The result of a traced workload run.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The workload.
    pub workload: Workload,
    /// Operations of the traced pass.
    pub attempted: u64,
    /// Failed operations of the traced pass.
    pub failed: u64,
    /// `sim_digest` of the traced pass.
    pub sim_digest: u64,
    /// Per-layer metrics of this workload (no kernel rows), by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Raw counts the computed-share table multiplies kernel costs by.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-span-name totals of the three traced phases.
    pub span_totals: Value,
    /// Every span, for `trace.json`.
    pub spans: Value,
}

impl Traced {
    /// The report the traced child prints for its parent.
    pub fn to_json(&self) -> Value {
        let map = |m: &BTreeMap<&'static str, f64>| {
            Value::Obj(m.iter().map(|(k, v)| (k.to_string(), Value::from(*v))).collect())
        };
        obj([
            ("workload", self.workload.name().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("sim_digest", hex(self.sim_digest).into()),
            ("metrics", map(&self.metrics)),
            ("counts", map(&self.counts)),
            ("span_totals", self.span_totals.clone()),
        ])
    }
}

/// Sums over the successful runs of a pass.
#[derive(Debug, Default, Clone, Copy)]
struct SimSums {
    events: u64,
    stale: u64,
    rearms: u64,
    pops: u64,
    promoted: u64,
    job_wall_ms: f64,
    sim_s: f64,
    collisions: u64,
    data_txs: u64,
    control_txs: u64,
    subframes: f64,
    retries: u64,
    crc_drops: u64,
    forwarded: u64,
    file_flows: u64,
    file_flows_completed: u64,
    file_bps: f64,
    file_bytes: u64,
}

impl SimSums {
    /// Sums `out`. The simulator's own work (`perf`) is counted once per
    /// distinct job; the simulated statistics are summed over every job
    /// unless `distinct_only`, which the computed shares want (counts
    /// and walls must cover the same runs).
    fn of(inputs: &Inputs, out: &PassOutput, distinct_only: bool) -> SimSums {
        let mut s = SimSums::default();
        let mut simulated = std::collections::BTreeSet::new();
        for (job, result) in inputs.jobs.iter().zip(out.results()) {
            let Ok(run) = result else { continue };
            // Several shipped sweeps share cells. With a store attached, a
            // repeat is served from what the same pass already stored,
            // and the in-memory index hands back the first run's `perf`
            // with it: count the work of each distinct `(stable_hash,
            // replication)` once. Without a store every repeat simulates.
            let first = out.cache.is_none() || simulated.insert((job.hash, job.rep));
            if first {
                let p = &run.perf;
                s.events += p.events_processed;
                s.stale += p.events_stale;
                s.rearms += p.timer_rearms;
                s.pops += p.queue.popped;
                s.promoted += p.queue.promoted;
                s.job_wall_ms += p.wall_ms;
                s.sim_s += run.report.at.as_secs_f64();
            } else if distinct_only {
                continue;
            }
            s.collisions += run.report.collisions;
            for n in &run.report.nodes {
                s.data_txs += n.tx_data_frames;
                s.control_txs += n.tx_control;
                s.subframes += n.avg_subframes * n.tx_data_frames as f64;
                s.retries += n.retries;
                s.crc_drops += n.unicast_crc_drops + n.bcast_crc_fail;
                s.forwarded += n.forwarded;
            }
            for f in run.per_flow.iter().filter(|f| f.flow.traffic.is_file()) {
                s.file_flows += 1;
                s.file_flows_completed += u64::from(f.completed_at.is_some());
                s.file_bps += f.bps;
                s.file_bytes += f.bytes;
            }
        }
        s
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Store and render calls on the traced pass's own results, each in a
/// span: append every outcome to an empty store, reopen it, look every
/// job up, render every table. Defined the same way on every workload,
/// so the `bench.sweeps.*` / `bench.report.*` rows always exist.
fn store_kernels(
    session: &Session,
    out: &PassOutput,
    tracer: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let dir = session.scratch.0.join("trace-store");
    let io = |e: std::io::Error| format!("trace store {}: {e}", dir.display());
    let keyed: Vec<_> = session
        .inputs
        .jobs
        .iter()
        .zip(session.jobs(out))
        .filter_map(|(job, (spec, result))| result.as_ref().ok().map(|o| (job.hash, job.rep, spec, o)))
        .collect();
    let cache = ConcurrentCache::open(&dir).map_err(io)?;
    let t = Instant::now();
    tracer.span("bench.sweeps.append", |_| cache.append_batch(&keyed)).map_err(io)?;
    m.insert("bench.sweeps.append_us_per_record", ratio(t.elapsed().as_secs_f64() * 1e6, keyed.len() as f64));
    m.insert("bench.sweeps.store_mb", workloads::dir_size_mb(&dir));
    drop(cache);

    let mut open_ms = Vec::new();
    let mut reopened = None;
    for _ in 0..9 {
        let t = Instant::now();
        let cache = tracer.span("bench.sweeps.open", |_| ConcurrentCache::open(&dir)).map_err(io)?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        reopened = Some(cache);
    }
    m.insert("bench.sweeps.open_ms", median(&open_ms));
    let index = reopened.expect("opened nine times").index();
    let (t, mut found, mut lookups) = (Instant::now(), 0usize, 0usize);
    while lookups < 200_000 {
        for &(hash, rep, _, _) in &keyed {
            found += usize::from(std::hint::black_box(index.get(hash, rep)).is_some());
        }
        lookups += keyed.len().max(1);
    }
    m.insert("bench.sweeps.lookup_ns", ratio(t.elapsed().as_secs_f64() * 1e9, lookups as f64));
    if !keyed.is_empty() && found != lookups {
        return Err(format!("the trace store lost records: {found} of {lookups} lookups hit"));
    }

    let t = Instant::now();
    for (file, cells) in session.inputs.files.iter().zip(&out.cells) {
        tracer.span("bench.report.render", |_| std::hint::black_box(workloads::render_table(file, cells)));
    }
    m.insert("bench.report.render_ms", t.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// The traced run of one workload: traced set-up, an untraced warm-up
/// pass, one traced pass, then the traced-only extras. `untraced_wall_s`
/// is the same workload's median pass time from the untraced binary
/// (no counting allocator, no spans) on the same seed.
pub fn trace_workload(opts: &ChildOpts, untraced_wall_s: f64) -> Result<Traced, String> {
    let w = opts.workload;
    let mut tracer = Tracer::on();
    tracer.set_pass(pass_id::SETUP);
    let fill_allocs0 = hydra_sim::alloc_stats();
    let mut session = tracer.span("setup", |t| Session::open(opts, t))?;
    let fill_allocs = hydra_sim::alloc_stats().since(fill_allocs0);
    let jobs = session.inputs.jobs.len() as u64;

    let (warmup_pass_s, _) = session.pass(&mut Tracer::off())?;

    tracer.set_pass(pass_id::PASS);
    let (allocs0, cpu0) = (hydra_sim::alloc_stats(), procfs::cpu_time_s());
    let (traced_wall_s, out) = session.pass(&mut tracer)?;
    let pass_allocs = hydra_sim::alloc_stats().since(allocs0);
    let cpu_s = procfs::cpu_time_s().zip(cpu0).map_or(f64::NAN, |(a, b)| a - b);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    tracer.set_pass(pass_id::EXTRAS);
    let build_ms = tracer.span("extras", |t| -> Result<f64, String> {
        // World construction on its own, once per job, with the world
        // seed the runner derives: `try_run` builds and runs in one
        // call, and the build share is what the scale grid's walls hide.
        let t0 = Instant::now();
        for job in &session.inputs.jobs {
            let spec = session.inputs.spec(job);
            let seeded = spec.clone().with_seed(ExperimentRunner::run_seed(spec, job.rep));
            t.span("netsim.build", |_| std::hint::black_box(seeded.build()));
        }
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        store_kernels(&session, &out, t, &mut m)?;
        Ok(build_ms)
    })?;

    // Counts come from the traced pass. Host-time rows need a pass that
    // simulated: the traced pass itself, except on `sweep_warm`, whose
    // passes replay a store — there they describe the set-up fill, the
    // only simulation this process did.
    let pass = SimSums::of(&session.inputs, &out, false);
    let (sim_out, sim_allocs, sim_phase) = match &session.fill {
        Some((_, fill)) => (fill, fill_allocs, pass_id::SETUP),
        None => (&out, pass_allocs, pass_id::PASS),
    };
    let sim = SimSums::of(&session.inputs, sim_out, true);
    let run_ms = (sim.job_wall_ms - build_ms).max(0.0);
    let sweep_ms = tracer.total_ms(sim_phase, "bench.runner.run_sweep");
    // (The fill runs at 1 thread; `telemetry.threads` is the last dispatch's only.)
    let threads = if session.fill.is_some() { 1.0 } else { w.threads() as f64 };
    let job_walls: Vec<f64> = sim_out.job_stats.iter().map(|j| j.0).collect();
    let queue_waits: Vec<f64> = sim_out.job_stats.iter().map(|j| j.1).collect();
    let cache = out.cache.unwrap_or_default();

    m.extend([
        ("sim.queue_pops", pass.pops as f64),
        ("sim.queue_overflow_promoted", pass.promoted as f64),
        ("phy.collisions", pass.collisions as f64),
        ("core.stale_ratio", ratio(pass.stale as f64, pass.events as f64)),
        ("core.timer_rearms", pass.rearms as f64),
        ("core.data_txs", pass.data_txs as f64),
        ("core.subframes_per_frame", ratio(pass.subframes, pass.data_txs as f64)),
        ("core.retries", pass.retries as f64),
        ("core.crc_drops", pass.crc_drops as f64),
        ("net.forwarded", pass.forwarded as f64),
        ("app.goodput_mbps", ratio(pass.file_bps, pass.file_flows as f64) / 1e6),
        ("app.flows_completed", pass.file_flows_completed as f64),
        ("netsim.events_processed", pass.events as f64),
        ("netsim.build_ms", build_ms),
        ("netsim.run_ms", run_ms),
        ("netsim.build_share", ratio(build_ms, sim.job_wall_ms).min(1.0)),
        ("netsim.events_per_s", ratio(sim.events as f64, run_ms / 1e3)),
        ("netsim.ns_per_event", ratio(run_ms * 1e6, sim.events as f64)),
        ("netsim.sim_s_per_wall_s", ratio(sim.sim_s, run_ms / 1e3)),
        ("netsim.allocs_per_kevent", ratio(sim_allocs.allocations as f64 * 1e3, sim.events as f64)),
        ("netsim.alloc_bytes_per_event", ratio(sim_allocs.allocated_bytes as f64, sim.events as f64)),
        // Worker time not spent inside a job, per dispatched job: at one
        // thread this is `run_sweep` wall minus the summed job walls.
        (
            "bench.runner.dispatch_us_per_job",
            ratio(
                (threads * sweep_ms - job_walls.iter().sum::<f64>()).max(0.0) * 1e3,
                job_walls.len() as f64,
            ),
        ),
        ("bench.runner.job_wall_p50_ms", percentile(&job_walls, 50.0)),
        ("bench.runner.job_wall_p99_ms", percentile(&job_walls, 99.0)),
        ("bench.runner.queue_wait_p50_ms", percentile(&queue_waits, 50.0)),
        ("bench.runner.steals", sim_out.telemetry.steals as f64),
        // Summed task time over `threads` x summed pool makespans. (The
        // runner's own `parallel_efficiency()` divides by the *last*
        // dispatch's thread count, which a small final file drags to 1.)
        (
            "bench.runner.parallel_efficiency",
            ratio(sim_out.telemetry.busy_ms, threads * sim_out.telemetry.makespan_ms).min(1.0),
        ),
        ("bench.runner.cpu_s", cpu_s),
        ("bench.sweeps.hit_ratio", ratio(cache.hits as f64, (cache.hits + cache.misses) as f64)),
        ("bench.warmup_pass_s", warmup_pass_s),
        ("bench.trace_overhead_pct", 100.0 * (traced_wall_s / untraced_wall_s - 1.0)),
    ]);
    if let Some((fill_s, _)) = &session.fill {
        m.insert("bench.sweeps.cold_fill_s", *fill_s);
    }
    let counts = BTreeMap::from([
        ("queue_pops", sim.pops as f64),
        ("txs", (sim.data_txs + sim.control_txs) as f64),
        ("subframes", sim.subframes),
        ("forwarded", sim.forwarded as f64),
        ("tcp_segments", sim.file_bytes as f64 / 1357.0),
        ("job_wall_ms", sim.job_wall_ms),
        ("build_ms", build_ms),
        ("traced_wall_s", traced_wall_s),
        ("untraced_wall_s", untraced_wall_s),
    ]);

    let (failed, _) = checks::count_failures(session.jobs(&out));
    let span_totals = Value::Obj(
        [("setup", pass_id::SETUP), ("pass", pass_id::PASS), ("extras", pass_id::EXTRAS)]
            .into_iter()
            .map(|(phase, id)| {
                let rows = tracer.totals(id).into_iter().map(|(name, t)| {
                    let row = obj([
                        ("count", t.count.into()),
                        ("total_ms", (t.total_ns as f64 / 1e6).into()),
                        ("self_ms", (t.self_ns as f64 / 1e6).into()),
                    ]);
                    (name.to_string(), row)
                });
                (phase.to_string(), Value::Obj(rows.collect()))
            })
            .collect(),
    );
    Ok(Traced {
        workload: w,
        attempted: jobs,
        failed,
        sim_digest: out.digest(&session.inputs),
        metrics: m,
        counts,
        span_totals,
        spans: tracer.to_json(),
    })
}
