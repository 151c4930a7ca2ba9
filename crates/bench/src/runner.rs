//! The parallel experiment engine.
//!
//! Every table and figure in this harness is a *sweep*: a list of
//! [`ScenarioSpec`]s, each replicated over some number of seeds, with
//! the per-run results folded into a table. [`ExperimentRunner`] expands
//! a sweep into a flat work list, predicts each job's cost, executes
//! the list longest-first on the one executor ([`crate::sched`]), and
//! hands the outcomes back in sweep order.
//!
//! ## The store
//!
//! Every runner carries exactly one result store
//! ([`crate::sweeps::ConcurrentCache`]): memory-only from
//! [`ExperimentRunner::new`], file-backed after
//! [`ExperimentRunner::with_cache`]. A sweep looks every job up in it,
//! simulates each missing `(stable_hash, replication)` key once — a key
//! listed twice in one sweep included — and publishes the successful
//! runs back. So a distinct run simulates at most once per store, and
//! every repeat is a hit. Failed replications are never stored: a
//! failing key simulates again the next time a sweep asks for it.
//!
//! ## Scheduling
//!
//! Jobs start in descending predicted cost, so a sweep's long pole —
//! e.g. one 1000-node mesh among dozens of 20-node paper cells — starts
//! immediately instead of landing last on a busy worker, and whichever
//! worker frees up next takes the next job. Costs come from
//! `ExperimentRunner::predicted_cost`, a spec-feature model
//! (nodes × flows × span × rate), *calibrated* by recorded event counts
//! when the runner's store has seen the spec before. Cost predictions
//! only ever reorder work; results are byte-identical in any order.
//!
//! Determinism: each run's world seed is derived from the spec's
//! [`ScenarioSpec::stable_hash`] (which covers every field, including
//! the spec's own `seed`) and the replication index via
//! [`hydra_sim::stream_seed`]. A run therefore draws exactly the same
//! random sequence no matter which thread picks it up or in which
//! order the work list drains — parallel output is byte-identical to
//! sequential output — while specs differing only in `seed` replicate
//! as independent cells. Note the derived world seed intentionally
//! differs from calling [`ScenarioSpec::run`] directly, which uses the
//! `seed` field verbatim.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

use hydra_netsim::{FlowTraffic, RunError, RunOutcome, RunPerf, ScenarioSpec, Topology, TopologyKind};
use hydra_sim::{stream_seed, Duration};

use crate::sched::{self, JobStats, PoolTelemetry};
use crate::sweeps::{ConcurrentCache, SharedCache};

/// All replications of one sweep cell — failure-aware: a replication
/// that panicked or tripped its [`hydra_netsim::RunBudget`] is an
/// `Err` entry, and every accessor below stays total over such cells
/// (no NaN means, no index panics).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's spec (seed field as submitted; per-run seeds derived).
    pub spec: ScenarioSpec,
    /// One result per replication, in replication order (1..=seeds).
    pub runs: Vec<Result<RunOutcome, RunError>>,
}

impl CellResult {
    /// The successful replications, in replication order.
    pub fn ok_runs(&self) -> impl Iterator<Item = &RunOutcome> {
        self.runs.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Mean headline throughput across *successful* replications,
    /// bit/s; 0.0 when every replication failed (never NaN).
    pub fn mean_throughput_bps(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u32);
        for r in self.ok_runs() {
            sum += r.throughput_bps;
            n += 1;
        }
        if n > 0 {
            sum / f64::from(n)
        } else {
            0.0
        }
    }

    /// The first successful replication (for single-run detail tables);
    /// `None` when the whole cell failed.
    pub fn first(&self) -> Option<&RunOutcome> {
        self.ok_runs().next()
    }

    /// True when at least one replication failed.
    pub fn failed(&self) -> bool {
        self.runs.iter().any(|r| r.is_err())
    }

    /// The first failure, if any.
    pub fn failure(&self) -> Option<&RunError> {
        self.failures().next().map(|(_, e)| e)
    }

    /// Every failed replication with its 1-based replication number.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &RunError)> {
        self.runs.iter().enumerate().filter_map(|(i, r)| Some((i + 1, r.as_ref().err()?)))
    }

    /// The `FAILED(reason)` table cell for a cell with no usable run.
    pub fn failed_label(&self) -> String {
        match self.failure() {
            Some(e) => format!("FAILED({})", e.reason()),
            None => "FAILED(?)".to_string(),
        }
    }

    /// Renders this cell via `f` over the first successful run, or the
    /// explicit `FAILED(reason)` label when none survived — the
    /// one-liner detail tables use instead of indexing into `runs`.
    pub fn cell_with(&self, f: impl FnOnce(&RunOutcome) -> String) -> String {
        match self.first() {
            Some(run) => f(run),
            None => self.failed_label(),
        }
    }

    /// The standard mean-throughput cell: Mbps to three decimals over
    /// the successful runs, or `FAILED(reason)` when none survived.
    pub fn mean_cell(&self) -> String {
        if self.first().is_some() {
            crate::report::mbps(self.mean_throughput_bps())
        } else {
            self.failed_label()
        }
    }
}

/// What a `FAILED(reason)` table cell abbreviates: one
/// `source:cell rep N: error` line per failed replication of `cells`,
/// carrying the full [`RunError`] text (panic message, event count).
/// Binaries print these to stderr after the table.
pub fn failure_lines<'a>(source: &str, cells: impl IntoIterator<Item = &'a CellResult>) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, cell) in cells.into_iter().enumerate() {
        lines.extend(cell.failures().map(|(rep, e)| format!("{source}:{i} rep {rep}: {e}")));
    }
    lines
}

/// Accumulated scheduler telemetry across a runner's sweeps (shared by
/// clones). Pure measurement: nothing here feeds back into any result.
#[derive(Debug, Clone, Default)]
pub struct RunnerTelemetry {
    /// Fresh jobs executed.
    pub jobs: u64,
    /// Always 0: workers pull from one shared list, so there is nothing
    /// to steal. Kept because the benchmark harness reports it as
    /// `bench.runner.steals`.
    pub steals: u64,
    /// Summed dispatch makespans, ms.
    pub makespan_ms: f64,
    /// Summed job execution time, ms.
    pub busy_ms: f64,
    /// Worker threads of the most recent dispatch.
    pub threads: usize,
    /// Per-job stats of the most recent sweep's dispatch, in job order;
    /// empty when that sweep simulated nothing.
    pub per_job: Vec<JobStats>,
}

impl RunnerTelemetry {
    fn absorb(&mut self, pool: &PoolTelemetry) {
        self.jobs += pool.per_job.len() as u64;
        self.makespan_ms += pool.makespan_ms;
        self.busy_ms += pool.busy_ms;
        self.threads = pool.threads;
        self.per_job = pool.per_job.clone();
    }
}

/// Executes sweeps of [`ScenarioSpec`]s across OS threads, consulting
/// its result store ([`ConcurrentCache`]) before dispatching any run
/// and publishing every fresh outcome to it. Clones share the store and
/// the telemetry.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    /// Worker threads; 0 = one per available CPU.
    pub threads: usize,
    /// The result store: memory-only unless [`Self::with_cache`] swapped
    /// in a file-backed one.
    cache: SharedCache,
    /// Scheduler telemetry (shared across clones).
    telemetry: Arc<Mutex<RunnerTelemetry>>,
}

impl ExperimentRunner {
    /// A runner with an explicit thread count (0 = auto) and its own
    /// memory-only store, shared with nothing but its clones.
    pub fn new(threads: usize) -> Self {
        ExperimentRunner {
            threads,
            cache: Arc::new(ConcurrentCache::in_memory()),
            telemetry: Arc::new(Mutex::new(RunnerTelemetry::default())),
        }
    }

    /// A sequential runner (also the reference for determinism tests).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Swaps in `cache` as this runner's store — typically a file-backed
    /// one from [`ConcurrentCache::open`], so cells already on disk skip
    /// simulation and fresh runs are appended for next time.
    pub fn with_cache(mut self, cache: SharedCache) -> Self {
        self.cache = cache;
        self
    }

    /// The runner's result store (its [`ConcurrentCache::stats`] are the
    /// session's hit / miss counts).
    pub fn cache(&self) -> &SharedCache {
        &self.cache
    }

    /// A snapshot of the accumulated scheduler telemetry.
    pub fn telemetry(&self) -> RunnerTelemetry {
        self.telemetry.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    fn thread_count(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// The world seed used for replication `rep` (1-based) of `spec`.
    pub fn run_seed(spec: &ScenarioSpec, rep: u64) -> u64 {
        stream_seed(spec.stable_hash(), rep)
    }

    /// Predicted work for one run of `spec`, in (approximate) events —
    /// the scheduler's cost model. A deliberately crude feature model:
    /// per-flow packet counts over the active span, an events-per-frame
    /// constant, and a per-node build charge. It only has to *rank*
    /// jobs (a 1000-node mesh must predict far above a 6-node chain);
    /// recorded event counts from the cache override it for specs seen
    /// before. Pure function of the spec: no machine state, no RNG.
    ///
    /// Never panics on a topology the `.scn` parser accepts: it runs
    /// outside every job's failure containment, so a spec that cannot
    /// build must still get a cost and fail inside its own job.
    fn predicted_cost(spec: &ScenarioSpec) -> f64 {
        let n = spec.topology.node_count() as f64;
        let span = spec.warmup.checked_add(spec.duration).unwrap_or(Duration::MAX).as_secs_f64();
        let rate_bps = spec.rate.bits_per_sec() as f64;
        let traffic: Vec<FlowTraffic> = match spec.topology {
            // The non-asserting pair search: a placement without one
            // routable pair prices as no flows here, and its job's
            // `try_run` reports the assertion as the cell's failure.
            TopologyKind::RandomMesh { nodes, area_m, seed } if spec.flows.is_empty() => {
                vec![spec.traffic; Topology::try_mesh_default_pairs(nodes, area_m, seed).len()]
            }
            _ => spec.effective_flows().iter().map(|f| f.traffic).collect(),
        };
        let mut frames = 0.0;
        for traffic in traffic {
            frames += match traffic {
                FlowTraffic::Cbr { interval, .. } => span / interval.as_secs_f64().max(1e-9),
                FlowTraffic::OnOff { burst, idle, interval, .. } => {
                    let period =
                        interval.as_secs_f64() * (burst.saturating_sub(1)) as f64 + idle.as_secs_f64();
                    span / period.max(1e-9) * f64::from(burst)
                }
                FlowTraffic::FileTransfer { bytes } => {
                    // Frames to move the file, capped by what the air
                    // can carry in the span.
                    let by_size = bytes as f64 / 1140.0;
                    let by_air = rate_bps * span / (8.0 * 1140.0);
                    by_size.min(by_air)
                }
            };
        }
        // Mesh media re-evaluate neighbourhoods per transmission, so a
        // frame costs more there than on a fixed chain/star.
        let events_per_frame = match spec.topology {
            TopologyKind::RandomMesh { .. } => 40.0,
            _ => 30.0,
        };
        frames * events_per_frame + n * 50.0
    }

    /// Expands `specs × (1..=seeds)` into a work list, satisfies what it
    /// can from a snapshot of the store's index, simulates each missing
    /// key once on the scheduler, and returns one [`CellResult`] per
    /// spec, in order. A key listed again later in the sweep is a hit on
    /// its one run. Fresh outcomes are appended to the store as one
    /// batch, in job order, so a file-backed store stays deterministic
    /// for a given cold sweep.
    pub fn run_sweep(&self, specs: &[ScenarioSpec], seeds: u64) -> Vec<CellResult> {
        assert!(seeds >= 1, "a sweep needs at least one seed");
        /// Where one job's result comes from.
        enum Slot {
            /// The store already held it.
            Hit(RunOutcome),
            /// Simulated by this sweep: entry `n` of the run list.
            Run(usize),
            /// A key an earlier job of this sweep simulates: a hit on run `n`.
            Repeat(usize),
        }
        let index = self.cache.index();
        // (cell index, replication, key) per distinct run, in job order.
        let mut runs: Vec<(usize, u64, u64)> = Vec::new();
        let mut run_of: HashMap<(u64, u64), usize> = HashMap::new();
        let mut slots = Vec::with_capacity(specs.len() * seeds as usize);
        for (cell, spec) in specs.iter().enumerate() {
            let hash = spec.stable_hash();
            for rep in 1..=seeds {
                slots.push(match index.get(hash, rep) {
                    Some(outcome) => Slot::Hit((**outcome).clone()),
                    None => match run_of.entry((hash, rep)) {
                        Entry::Occupied(run) => Slot::Repeat(*run.get()),
                        Entry::Vacant(entry) => {
                            entry.insert(runs.len());
                            runs.push((cell, rep, hash));
                            Slot::Run(runs.len() - 1)
                        }
                    },
                });
            }
        }
        self.cache.note((slots.len() - runs.len()) as u64, runs.len() as u64);
        let mut work = Vec::with_capacity(runs.len());
        let mut lpt_costs = Vec::with_capacity(runs.len());
        for &(cell, rep, hash) in &runs {
            let spec = &specs[cell];
            // LPT ordering cost: the recorded event count when the
            // store has seen this spec, the feature model otherwise.
            // Ordering never affects results, so the hint is safe.
            let cost = index.events_hint(hash).map_or_else(|| Self::predicted_cost(spec), |n| n as f64);
            lpt_costs.push(cost);
            work.push(spec.clone().with_seed(stream_seed(hash, rep)));
        }
        let fresh = self.execute(&work, &lpt_costs);
        // Only successful runs are stored: a failed replication stays
        // cold so a fixed spec simulates it again instead of replaying
        // the failure.
        let records: Vec<_> = runs
            .iter()
            .zip(&fresh)
            .filter_map(|(&(cell, rep, hash), result)| {
                result.as_ref().ok().map(|outcome| (hash, rep, &specs[cell], outcome))
            })
            .collect();
        if let Err(e) = self.cache.append_batch(&records) {
            eprintln!("warning: result cache append failed: {e}");
        }
        let mut outcomes = slots.into_iter().map(|slot| match slot {
            Slot::Hit(outcome) => Ok(outcome),
            Slot::Run(n) => fresh[n].clone(),
            // Served as the store serves a hit: no telemetry, since it
            // cost no simulation.
            Slot::Repeat(n) => {
                fresh[n].clone().map(|outcome| RunOutcome { perf: RunPerf::default(), ..outcome })
            }
        });
        specs
            .iter()
            .map(|spec| CellResult {
                spec: spec.clone(),
                runs: (0..seeds).map(|_| outcomes.next().expect("one outcome per job")).collect(),
            })
            .collect()
    }

    /// Runs a single spec once with the derived replication-1 seed.
    /// Panics on a failed run — callers that must survive failures use
    /// [`ExperimentRunner::run_sweep`], whose cells carry each failure.
    pub fn run_one(&self, spec: ScenarioSpec) -> RunOutcome {
        let run = self.run_sweep(std::slice::from_ref(&spec), 1).remove(0).runs.remove(0);
        run.unwrap_or_else(|e| panic!("run failed: {e}"))
    }

    /// Executes the prepared work list; results come back in job order.
    /// A job that fails — panic or budget — yields its `Err` entry
    /// without disturbing any other job: worker threads never unwind
    /// (panics are caught inside every task). An empty list dispatches
    /// nothing: the telemetry totals stand, and `per_job` is cleared
    /// because the most recent sweep ran no job.
    fn execute(&self, work: &[ScenarioSpec], lpt_costs: &[f64]) -> Vec<Result<RunOutcome, RunError>> {
        if work.is_empty() {
            self.telemetry.lock().unwrap_or_else(PoisonError::into_inner).per_job.clear();
            return Vec::new();
        }
        let (results, pool) = sched::execute(lpt_costs, self.thread_count(), |i| work[i].try_run());
        self.telemetry.lock().unwrap_or_else(PoisonError::into_inner).absorb(&pool);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::CacheStats;
    use hydra_netsim::{Policy, TopologyKind};
    use hydra_phy::Rate;

    fn tiny_udp_spec() -> ScenarioSpec {
        let mut spec =
            ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
        spec.warmup = Duration::from_millis(200);
        spec.duration = Duration::from_secs(1);
        spec
    }

    #[test]
    fn run_seed_depends_on_spec_and_replication() {
        let a = tiny_udp_spec();
        let mut b = tiny_udp_spec();
        b.policy = Policy::Na;
        assert_ne!(ExperimentRunner::run_seed(&a, 1), ExperimentRunner::run_seed(&a, 2));
        assert_ne!(ExperimentRunner::run_seed(&a, 1), ExperimentRunner::run_seed(&b, 1));
        // ...and on the seed field, so seed-only sweep cells replicate
        // independently instead of silently duplicating each other.
        let c = tiny_udp_spec().with_seed(777);
        assert_ne!(ExperimentRunner::run_seed(&a, 1), ExperimentRunner::run_seed(&c, 1));
    }

    #[test]
    fn sweep_shape_is_preserved() {
        let specs = vec![tiny_udp_spec(), tiny_udp_spec().with_seed(2)];
        let cells = ExperimentRunner::sequential().run_sweep(&specs, 2);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].runs.len(), 2);
    }

    #[test]
    fn the_cost_model_ranks_big_worlds_far_above_paper_cells() {
        let small = tiny_udp_spec();
        let mut big = ScenarioSpec::udp(
            TopologyKind::RandomMesh { nodes: 1000, area_m: 2000, seed: 7 },
            Policy::Ba,
            Rate::R1_30,
            Duration::from_millis(20),
        );
        big.warmup = Duration::from_millis(200);
        big.duration = Duration::from_secs(1);
        let (cs, cb) = (ExperimentRunner::predicted_cost(&small), ExperimentRunner::predicted_cost(&big));
        assert!(cb > 10.0 * cs, "1000-node mesh ({cb:.0}) must rank far above a 2-node chain ({cs:.0})");
        // Pure function of the spec: the seed field does not move it.
        assert_eq!(cs, ExperimentRunner::predicted_cost(&small.clone().with_seed(99)));
    }

    #[test]
    fn sweeps_are_identical_at_any_thread_count() {
        let specs = vec![tiny_udp_spec(), tiny_udp_spec().with_seed(2), tiny_udp_spec().with_seed(3)];
        let reference = ExperimentRunner::sequential().run_sweep(&specs, 2);
        for threads in [1, 2, 4, 8] {
            let cells = ExperimentRunner::new(threads).run_sweep(&specs, 2);
            for (cell, expect) in cells.iter().zip(&reference) {
                assert_eq!(cell.runs, expect.runs, "{threads} threads diverged");
            }
        }
    }

    /// A spec that genuinely panics: `Mac::new` rejects a zero-byte
    /// aggregate inside `build()`, under the same `catch_unwind` as the
    /// run. Any spec that panics inside build/run will do.
    fn panicking_spec() -> ScenarioSpec {
        let mut spec = tiny_udp_spec();
        spec.max_aggregate = 0;
        spec
    }

    #[test]
    fn a_panicking_job_is_isolated_and_the_cell_stays_total() {
        let clean = ExperimentRunner::sequential().run_sweep(&[tiny_udp_spec().with_seed(2)], 1);
        let cells =
            ExperimentRunner::sequential().run_sweep(&[panicking_spec(), tiny_udp_spec().with_seed(2)], 1);

        let message = "invalid MacConfig: \"max aggregate below one subframe\"";
        assert_eq!(cells[0].runs[0], Err(hydra_netsim::RunError::Panicked(message.into())));
        assert!(cells[0].failed());
        assert_eq!(cells[0].failed_label(), "FAILED(panic)");
        assert!(cells[0].first().is_none(), "no usable run in the failed cell");
        assert_eq!(cells[0].mean_throughput_bps(), 0.0, "total, not NaN");
        assert_eq!(cells.iter().flat_map(CellResult::failures).count(), 1);
        // The surviving cell is byte-identical to the fault-free sweep.
        assert_eq!(cells[1].runs, clean[0].runs);
        // What the label abbreviates is still there to print.
        assert_eq!(failure_lines("x.scn", &cells), [format!("x.scn:0 rep 1: run panicked: {message}")]);
    }

    #[test]
    fn an_unroutable_mesh_fails_in_its_own_cell() {
        // Two nodes 1 km apart: no pair is routable, so the default
        // flows cannot be chosen. Pricing the job must not panic; the
        // failure belongs to the job's own run.
        let unroutable = ScenarioSpec::from_scn(
            "topo=mesh:2:1000:1 policy=ba rate=1.3 traffic=cbr:250ms:160 medium=spatial:1.0 \
             warmup=200ms duration=1s",
        )
        .expect("the line parses");
        let clean = ExperimentRunner::sequential().run_sweep(&[tiny_udp_spec()], 1);
        let cells = ExperimentRunner::new(2).run_sweep(&[unroutable, tiny_udp_spec()], 1);
        assert_eq!(cells[0].failed_label(), "FAILED(panic)");
        let Some(RunError::Panicked(message)) = cells[0].failure() else { panic!("{:?}", cells[0].runs) };
        assert!(message.contains("no routable flow pair found"), "{message}");
        assert_eq!(cells[1].runs, clean[0].runs);
    }

    #[test]
    fn a_horizon_past_the_clock_fails_in_its_own_cell() {
        // The parser rejects this horizon; a spec built in Rust reaches
        // the runner, and pricing it must not panic outside its job.
        let mut far = tiny_udp_spec();
        far.warmup = Duration::from_secs(18_446_744_073);
        far.duration = Duration::from_secs(1);
        let clean = ExperimentRunner::sequential().run_sweep(&[tiny_udp_spec()], 1);
        let cells = ExperimentRunner::sequential().run_sweep(&[far, tiny_udp_spec()], 1);
        let Some(RunError::Panicked(message)) = cells[0].failure() else { panic!("{:?}", cells[0].runs) };
        assert!(message.contains("overflow"), "{message}");
        assert_eq!(cells[1].runs, clean[0].runs);
    }

    #[test]
    fn failure_lines_name_every_failed_replication_with_its_full_error() {
        let mut stalled = tiny_udp_spec();
        stalled.budget = Some(hydra_netsim::RunBudget::events(50));
        let cells = ExperimentRunner::sequential().run_sweep(&[tiny_udp_spec(), stalled], 2);
        assert!(!cells[0].failed() && cells[0].failures().next().is_none());
        assert_eq!(
            failure_lines("grid", &cells),
            [
                "grid:1 rep 1: run budget exhausted after 50 events",
                "grid:1 rep 2: run budget exhausted after 50 events"
            ]
        );
    }

    #[test]
    fn every_job_can_fail_without_poisoning_the_parallel_pool() {
        let specs = vec![panicking_spec(), panicking_spec().with_seed(2)];
        let runner = ExperimentRunner::new(2);
        let cells = runner.run_sweep(&specs, 2);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.runs.len() == 2 && c.runs.iter().all(Result::is_err)));
        assert_eq!(cells.iter().flat_map(CellResult::failures).count(), 4);
    }

    #[test]
    fn telemetry_accumulates_across_sweeps() {
        let runner = ExperimentRunner::sequential();
        runner.run_sweep(&[tiny_udp_spec()], 2);
        runner.run_sweep(&[tiny_udp_spec().with_seed(2)], 1);
        let t = runner.telemetry();
        assert_eq!(t.jobs, 3);
        assert!(t.makespan_ms > 0.0);
        assert!(t.busy_ms > 0.0);
        assert_eq!(t.per_job.len(), 1, "per-job stats track the last sweep");
    }

    #[test]
    fn a_sweep_with_nothing_fresh_leaves_the_totals_alone() {
        let runner = ExperimentRunner::new(2);
        runner.run_sweep(&[tiny_udp_spec()], 2);
        let before = runner.telemetry();
        assert_eq!((before.jobs, before.threads, before.per_job.len()), (2, 2, 2));
        runner.run_sweep(&[tiny_udp_spec()], 2);
        let after = runner.telemetry();
        assert_eq!((after.jobs, after.threads), (2, 2), "an empty dispatch was counted");
        assert_eq!((after.makespan_ms, after.busy_ms), (before.makespan_ms, before.busy_ms));
        assert!(after.per_job.is_empty(), "the most recent sweep ran no job");
    }

    #[test]
    fn a_second_sweep_is_served_from_the_store() {
        let specs = [tiny_udp_spec(), tiny_udp_spec().with_seed(2)];
        let runner = ExperimentRunner::sequential();
        let first = runner.run_sweep(&specs, 2);
        let second = runner.run_sweep(&specs, 2);
        assert_eq!(runner.telemetry().jobs, 4, "the second sweep simulated");
        assert_eq!(runner.cache().stats(), CacheStats { hits: 4, misses: 4, skipped: 0, quarantined: 0 });
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.runs, b.runs);
            for (a, b) in a.ok_runs().zip(b.ok_runs()) {
                assert_eq!(a.report.nodes.as_ptr(), b.report.nodes.as_ptr(), "a hit copied its nodes");
                assert_eq!(b.perf.events_processed, 0, "a hit cost no simulation");
            }
        }
    }

    #[test]
    fn a_key_listed_twice_in_one_sweep_simulates_once() {
        let (a, b) = (tiny_udp_spec(), tiny_udp_spec().with_seed(2));
        let runner = ExperimentRunner::new(2);
        let cells = runner.run_sweep(&[a.clone(), b, a], 2);
        assert_eq!(runner.telemetry().jobs, 4);
        assert_eq!(runner.cache().stats(), CacheStats { hits: 2, misses: 4, skipped: 0, quarantined: 0 });
        assert_eq!(cells[2].runs, cells[0].runs);
        for (run, repeat) in cells[0].ok_runs().zip(cells[2].ok_runs()) {
            assert!(run.perf.events_processed > 0);
            assert_eq!(repeat.perf.events_processed, 0, "a repeat is a hit");
            assert_eq!(run.report.nodes.as_ptr(), repeat.report.nodes.as_ptr());
        }
    }

    #[test]
    fn two_runners_share_nothing_and_clones_share_everything() {
        let (one, two) = (ExperimentRunner::sequential(), ExperimentRunner::sequential());
        assert!(!Arc::ptr_eq(one.cache(), two.cache()));
        assert!(Arc::ptr_eq(one.cache(), one.clone().cache()));
        let a = one.run_sweep(&[tiny_udp_spec()], 1);
        let b = two.run_sweep(&[tiny_udp_spec()], 1);
        assert_eq!(a[0].runs, b[0].runs);
        assert_eq!((one.telemetry().jobs, two.telemetry().jobs), (1, 1), "each runner simulated its own");
        assert_eq!(two.cache().stats().hits, 0);
        one.clone().run_sweep(&[tiny_udp_spec()], 1);
        assert_eq!(one.telemetry().jobs, 1, "a clone hits its original's store");
        assert_eq!(one.cache().stats().hits, 1);
    }

    #[test]
    fn a_failed_replication_simulates_again_on_the_next_request() {
        let mut stalled = tiny_udp_spec();
        stalled.budget = Some(hydra_netsim::RunBudget::events(50));
        let specs = [panicking_spec(), stalled];
        let runner = ExperimentRunner::sequential();
        let first = runner.run_sweep(&specs, 2);
        let second = runner.run_sweep(&specs, 2);
        assert_eq!(runner.telemetry().jobs, 8, "every failure re-ran");
        assert_eq!(runner.cache().stats(), CacheStats { hits: 0, misses: 8, skipped: 0, quarantined: 0 });
        assert!(runner.cache().is_empty(), "no failure is stored");
        for (a, b) in first.iter().zip(&second) {
            assert!(a.runs.iter().all(Result::is_err));
            assert_eq!(a.runs, b.runs);
        }
    }
}
