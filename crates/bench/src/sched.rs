//! The sweep executor: one cost-sorted task list on one shared cursor.
//!
//! The experiment runner's unit of work is a whole simulation run —
//! milliseconds to seconds each, every one known before dispatch — so
//! this module optimises for *schedule quality* on heterogeneous job
//! sets, not for nanosecond dispatch, and needs exactly one idea:
//!
//! * **Longest first**: jobs (and the parts of decomposed jobs) are
//!   flattened into one task list sorted by predicted cost descending,
//!   submission index ascending, and workers pull from the front of
//!   it ([`hydra_sim::pool::run_indexed`]). That is greedy list
//!   scheduling in LPT order — the classic 4/3-approximation to
//!   makespan — with *actual* finish times, not predicted ones,
//!   deciding who takes the next task: a sweep's long pole starts
//!   immediately, and a worker stuck on it strands nothing, because
//!   no task belongs to a worker until that worker starts it.
//! * **Shard subtasks**: a job may decompose into parts
//!   ([`Work::Parts`]) that sit in the same list as every other task —
//!   this is how multi-domain cells cooperate with
//!   `hydra_netsim::ScenarioSpec::shard_plan` instead of nesting a
//!   second pool. Parts are merged, in part order, once the list has
//!   drained.
//!
//! Determinism: results land in **job order** regardless of cost
//! order, thread count, or which worker ran what — nothing a job
//! computes can depend on any of them. Telemetry (queue waits, busy
//! time) is measurement and never feeds back into results.
//!
//! Closures must not unwind: a panicking task takes the whole dispatch
//! down. The runner guarantees this by catching panics *inside* every
//! task (`try_run` / `catch_unwind` around domain runs), which is also
//! what confines a panicking job to its own cell on whichever worker it
//! lands.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// A boxed unit of work returning `T`.
pub type Thunk<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// A boxed fold of part results (in part order) into a job result.
pub type Merge<'a, T> = Box<dyn FnOnce(Vec<T>) -> T + Send + 'a>;

/// How one job executes.
pub enum Work<'a, T> {
    /// One indivisible task.
    One(Thunk<'a, T>),
    /// Independent parts (each `(cost, thunk)`) scheduled as separate
    /// tasks; `merge` folds the part results (in part order) into the
    /// job result on the calling thread once every task has run.
    Parts {
        /// The shard tasks, in a fixed order the merge relies on.
        parts: Vec<(f64, Thunk<'a, T>)>,
        /// Fold of the part results, in part order.
        merge: Merge<'a, T>,
    },
}

/// One schedulable job: a predicted cost (arbitrary but consistent
/// units; only the ordering matters) plus its work.
pub struct Job<'a, T> {
    /// Predicted work (higher = starts earlier). A decomposed job is
    /// ordered by its parts' own costs instead.
    pub cost: f64,
    /// The work itself.
    pub work: Work<'a, T>,
}

impl<'a, T> Job<'a, T> {
    /// A single-task job.
    pub fn one(cost: f64, f: impl FnOnce() -> T + Send + 'a) -> Self {
        Job { cost, work: Work::One(Box::new(f)) }
    }
}

/// Per-job schedule telemetry (measurement only; never affects results).
#[derive(Debug, Clone, Copy, Default)]
pub struct JobStats {
    /// Time from dispatch start to the job's first task starting, ms.
    pub queue_wait_ms: f64,
    /// Time from the job's first task starting to its last task
    /// finishing, ms.
    pub wall_ms: f64,
    /// Tasks the job expanded into (1 unless decomposed).
    pub parts: u32,
}

/// Whole-dispatch telemetry for one `execute` call.
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    /// Worker threads used (the calling thread included).
    pub threads: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Tasks executed (≥ jobs when cells decomposed).
    pub tasks: usize,
    /// Wall time of the whole dispatch, merges included, ms.
    pub makespan_ms: f64,
    /// Summed task execution time across workers, ms.
    pub busy_ms: f64,
    /// Per-job stats, in job order.
    pub per_job: Vec<JobStats>,
}

/// Executes `jobs` on `threads` workers, returning results **in job
/// order** plus the schedule telemetry. Tasks start in cost-descending
/// order (ties in submission order) at every width; `threads <= 1`
/// runs that same order on the calling thread.
pub fn execute<'a, T: Send + 'a>(jobs: Vec<Job<'a, T>>, threads: usize) -> (Vec<T>, PoolTelemetry) {
    struct Task<'a, T> {
        cost: f64,
        /// Taken by whichever worker the cursor hands this task to.
        thunk: Mutex<Option<Thunk<'a, T>>>,
    }
    // Flatten in job order, so each job's tasks are one contiguous run.
    let mut tasks: Vec<Task<'a, T>> = Vec::with_capacity(jobs.len());
    let mut merges: Vec<(usize, Option<Merge<'a, T>>)> = Vec::with_capacity(jobs.len());
    for job in jobs {
        match job.work {
            Work::One(f) => {
                tasks.push(Task { cost: job.cost, thunk: Mutex::new(Some(f)) });
                merges.push((1, None));
            }
            Work::Parts { parts, merge } => {
                merges.push((parts.len(), Some(merge)));
                tasks.extend(parts.into_iter().map(|(cost, f)| Task { cost, thunk: Mutex::new(Some(f)) }));
            }
        }
    }
    // Longest first; the stable sort keeps ties in submission order.
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| tasks[b].cost.total_cmp(&tasks[a].cost));

    let width = threads.clamp(1, tasks.len().max(1));
    let t0 = Instant::now();
    let now_ms = || t0.elapsed().as_secs_f64() * 1e3;
    let ran = hydra_sim::pool::run_indexed(order.len(), width, |k| {
        let thunk = tasks[order[k]].thunk.lock().unwrap_or_else(PoisonError::into_inner).take();
        let started = now_ms();
        let result = thunk.expect("the cursor hands each task out once")();
        (result, started, now_ms())
    });

    // Regroup: back into task (= job, part) order, then fold each job.
    let mut ran: Vec<(usize, (T, f64, f64))> = order.into_iter().zip(ran).collect();
    ran.sort_unstable_by_key(|&(task, _)| task);
    let mut by_task = ran.into_iter().map(|(_, r)| r);
    let mut telemetry = PoolTelemetry {
        threads: width,
        jobs: merges.len(),
        tasks: tasks.len(),
        per_job: Vec::with_capacity(merges.len()),
        ..PoolTelemetry::default()
    };
    let mut results = Vec::with_capacity(merges.len());
    for (nparts, merge) in merges {
        let (mut first, mut last) = (f64::INFINITY, 0.0f64);
        let parts: Vec<T> = by_task
            .by_ref()
            .take(nparts)
            .map(|(result, started, done)| {
                first = first.min(started);
                last = last.max(done);
                telemetry.busy_ms += done - started;
                result
            })
            .collect();
        let first = first.min(last);
        telemetry.per_job.push(JobStats {
            queue_wait_ms: first,
            wall_ms: last - first,
            parts: nparts as u32,
        });
        results.push(match merge {
            Some(merge) => merge(parts),
            None => parts.into_iter().next().expect("a single-task job has one result"),
        });
    }
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
            assert_eq!(telemetry.tasks, 50);
        }
    }

    #[test]
    fn parts_merge_in_part_order_wherever_they_run() {
        for threads in [1, 3, 8] {
            let jobs: Vec<Job<'_, Vec<u32>>> = (0u32..8)
                .map(|j| {
                    let parts: Vec<(f64, Thunk<'_, Vec<u32>>)> = (0..5)
                        .map(|p| {
                            let cost = ((j * 5 + p) % 7) as f64;
                            (cost, Box::new(move || vec![j * 10 + p]) as Thunk<'_, Vec<u32>>)
                        })
                        .collect();
                    Job {
                        cost: 10.0,
                        work: Work::Parts {
                            parts,
                            merge: Box::new(|parts: Vec<Vec<u32>>| parts.into_iter().flatten().collect()),
                        },
                    }
                })
                .collect();
            let (results, telemetry) = execute(jobs, threads);
            for (j, r) in results.iter().enumerate() {
                let j = j as u32;
                assert_eq!(*r, (0..5).map(|p| j * 10 + p).collect::<Vec<_>>());
            }
            assert_eq!(telemetry.tasks, 40);
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
        let part = |cost: f64| -> (f64, Thunk<'_, Vec<usize>>) { (cost, Box::new(move || vec![take()])) };
        let jobs: Vec<Job<'_, Vec<usize>>> = vec![
            Job::one(2.0, || vec![take()]),
            Job::one(9.0, || vec![take()]),
            Job {
                // Ordered by its parts' costs, not its own.
                cost: 100.0,
                work: Work::Parts {
                    parts: vec![part(5.0), part(9.0), part(1.0)],
                    merge: Box::new(|parts| parts.into_iter().flatten().collect()),
                },
            },
            Job::one(5.0, || vec![take()]),
            Job::one(7.0, || vec![take()]),
        ];
        let (tickets, telemetry) = execute(jobs, 1);
        // Costs in task order: 2, 9, [5, 9, 1], 5, 7 → start ranks.
        assert_eq!(tickets, [vec![5], vec![0], vec![3, 1, 6], vec![4], vec![2]]);
        assert_eq!((telemetry.jobs, telemetry.tasks, telemetry.threads), (5, 7, 1));
        assert_eq!(telemetry.per_job.iter().map(|j| j.parts).collect::<Vec<_>>(), [1, 1, 3, 1, 1]);
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
