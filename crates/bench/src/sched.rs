//! The sweep executor: one cost-sorted job list on one shared cursor.
//!
//! The experiment runner's unit of work is a whole simulation run —
//! milliseconds to seconds each, every one known before dispatch — so
//! this module optimises for *schedule quality* on heterogeneous job
//! sets, not for nanosecond dispatch, and needs exactly one idea:
//!
//! **Longest first**: jobs are sorted by predicted cost descending,
//! submission index ascending, and workers pull from the front of the
//! list ([`hydra_sim::pool::run_indexed`]). That is greedy list
//! scheduling in LPT order — the classic 4/3-approximation to makespan
//! — with *actual* finish times, not predicted ones, deciding who takes
//! the next job: a sweep's long pole starts immediately, and a worker
//! stuck on it strands nothing, because no job belongs to a worker
//! until that worker starts it.
//!
//! Determinism: results land in **job order** regardless of cost
//! order, thread count, or which worker ran what — nothing a job
//! computes can depend on any of them. Telemetry (queue waits, busy
//! time) is measurement and never feeds back into results.
//!
//! Closures must not unwind: a panicking job takes the whole dispatch
//! down. The runner guarantees this by catching panics *inside* every
//! job (`try_run`), which is also what confines a panicking job to its
//! own cell on whichever worker it lands.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// A boxed unit of work returning `T`.
type Thunk<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// One schedulable job: a predicted cost (arbitrary but consistent
/// units; only the ordering matters) plus its work.
pub struct Job<'a, T> {
    /// Predicted work (higher = starts earlier).
    pub cost: f64,
    /// The work itself.
    pub thunk: Thunk<'a, T>,
}

impl<'a, T> Job<'a, T> {
    /// A job from a closure.
    pub fn one(cost: f64, f: impl FnOnce() -> T + Send + 'a) -> Self {
        Job { cost, thunk: Box::new(f) }
    }
}

/// Per-job schedule telemetry (measurement only; never affects results).
#[derive(Debug, Clone, Copy, Default)]
pub struct JobStats {
    /// Time from dispatch start to the job starting, ms.
    pub queue_wait_ms: f64,
    /// Time from the job starting to it finishing, ms.
    pub wall_ms: f64,
}

/// Whole-dispatch telemetry for one `execute` call.
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    /// Worker threads used (the calling thread included).
    pub threads: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Wall time of the whole dispatch, ms.
    pub makespan_ms: f64,
    /// Summed job execution time across workers, ms.
    pub busy_ms: f64,
    /// Per-job stats, in job order.
    pub per_job: Vec<JobStats>,
}

/// Executes `jobs` on `threads` workers, returning results **in job
/// order** plus the schedule telemetry. Jobs start in cost-descending
/// order (ties in submission order) at every width; `threads <= 1`
/// runs that same order on the calling thread.
pub fn execute<'a, T: Send + 'a>(jobs: Vec<Job<'a, T>>, threads: usize) -> (Vec<T>, PoolTelemetry) {
    // Longest first; the stable sort keeps ties in submission order.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| jobs[b].cost.total_cmp(&jobs[a].cost));
    // Each thunk is taken by whichever worker the cursor hands its job to.
    let thunks: Vec<Mutex<Option<Thunk<'a, T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j.thunk))).collect();

    let width = threads.clamp(1, thunks.len().max(1));
    let t0 = Instant::now();
    let now_ms = || t0.elapsed().as_secs_f64() * 1e3;
    let ran = hydra_sim::pool::run_indexed(order.len(), width, |k| {
        let thunk = thunks[order[k]].lock().unwrap_or_else(PoisonError::into_inner).take();
        let started = now_ms();
        let result = thunk.expect("the cursor hands each job out once")();
        (result, started, now_ms())
    });

    // Back into job order.
    let mut ran: Vec<(usize, (T, f64, f64))> = order.into_iter().zip(ran).collect();
    ran.sort_unstable_by_key(|&(job, _)| job);
    let mut telemetry = PoolTelemetry {
        threads: width,
        jobs: ran.len(),
        per_job: Vec::with_capacity(ran.len()),
        ..PoolTelemetry::default()
    };
    let results = ran
        .into_iter()
        .map(|(_, (result, started, done))| {
            telemetry.busy_ms += done - started;
            telemetry.per_job.push(JobStats { queue_wait_ms: started, wall_ms: done - started });
            result
        })
        .collect();
    telemetry.makespan_ms = now_ms();
    (results, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn results_come_back_in_job_order_at_any_thread_count() {
        for threads in [1, 2, 4, 8] {
            let jobs: Vec<Job<'_, usize>> =
                (0..50).map(|i| Job::one(((i * 37) % 11) as f64, move || i * 2)).collect();
            let (results, telemetry) = execute(jobs, threads);
            assert_eq!(results, (0..50).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(telemetry.jobs, 50);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let jobs: Vec<Job<'_, ()>> = (0..100)
            .map(|i| {
                let hits = &hits;
                Job::one(1.0, move || {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let (_, telemetry) = execute(jobs, 4);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(telemetry.per_job.len(), 100);
    }

    #[test]
    fn tasks_start_longest_first_with_ties_in_submission_order() {
        // Every task takes a ticket as it starts. One worker runs the
        // same loop every width runs, so its ticket order *is* the
        // order the cursor hands tasks out (wider pools are not
        // asserted: a claimed task may be descheduled before it starts).
        let ticket = AtomicUsize::new(0);
        let take = || ticket.fetch_add(1, Ordering::Relaxed);
        let jobs: Vec<Job<'_, usize>> =
            [2.0, 9.0, 5.0, 9.0, 1.0, 5.0, 7.0].into_iter().map(|cost| Job::one(cost, take)).collect();
        let (tickets, telemetry) = execute(jobs, 1);
        // Costs in job order: 2, 9, 5, 9, 1, 5, 7 → start ranks.
        assert_eq!(tickets, [5, 0, 3, 1, 6, 4, 2]);
        assert_eq!((telemetry.jobs, telemetry.threads, telemetry.per_job.len()), (7, 1, 7));
    }

    #[test]
    fn a_busy_worker_strands_nothing() {
        // The top-cost job starts first and then blocks until every
        // other job has reported in: this terminates only if the other
        // worker drains the whole rest of the list by itself — the
        // property work stealing used to exist for.
        const OTHERS: usize = 30;
        let (tx, rx) = mpsc::channel::<usize>();
        let mut jobs: Vec<Job<'_, usize>> = (0..OTHERS)
            .map(|i| {
                let tx = tx.clone();
                Job::one((i % 5) as f64, move || {
                    tx.send(i).expect("the pole is still listening");
                    i
                })
            })
            .collect();
        jobs.insert(
            OTHERS / 2,
            Job::one(1e9, move || {
                for _ in 0..OTHERS {
                    rx.recv().expect("every other job reports");
                }
                OTHERS
            }),
        );
        let (results, _) = execute(jobs, 2);
        let mut expect: Vec<usize> = (0..OTHERS).collect();
        expect.insert(OTHERS / 2, OTHERS);
        assert_eq!(results, expect);
    }

    #[test]
    fn empty_and_single_job_pools_are_fine() {
        let (r, t) = execute(Vec::<Job<'_, u8>>::new(), 8);
        assert!(r.is_empty());
        assert_eq!(t.jobs, 0);
        let (r, _) = execute(vec![Job::one(1.0, || 7u8)], 8);
        assert_eq!(r, vec![7]);
    }
}
