//! The sweep executor: one cost-sorted job list on one shared cursor.
//!
//! The experiment runner's unit of work is a whole simulation run —
//! milliseconds to seconds each, every one known before dispatch — so
//! this module optimises for *schedule quality* on heterogeneous job
//! sets, not for nanosecond dispatch, and needs exactly one idea:
//!
//! **Longest first**: job indices are sorted by predicted cost
//! descending, submission index ascending, and the calling thread plus
//! `threads − 1` scoped workers each claim the next one off a single
//! atomic cursor. That is greedy list scheduling in LPT order — the
//! classic 4/3-approximation to makespan — with *actual* finish times,
//! not predicted ones, deciding who takes the next job: a sweep's long
//! pole starts immediately, and a worker stuck on it strands nothing,
//! because no job belongs to a worker until that worker starts it.
//! This is the workspace's one dispatch loop and its only
//! `thread::scope`; at one thread the same loop runs with nothing
//! spawned.
//!
//! Determinism: results land in **job order** regardless of cost
//! order, thread count, or which worker ran what — nothing a job
//! computes can depend on any of them. Telemetry (queue waits, busy
//! time) is measurement and never feeds back into results.
//!
//! Jobs must not unwind: a panicking job takes the whole dispatch down
//! once every worker has stopped. The runner guarantees this by
//! catching panics *inside* every job (`try_run`), which is also what
//! confines a panicking job to its own cell on whichever worker it
//! lands.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

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
    /// Wall time of the whole dispatch, ms.
    pub makespan_ms: f64,
    /// Summed job execution time across workers, ms.
    pub busy_ms: f64,
    /// Per-job stats, in job order.
    pub per_job: Vec<JobStats>,
}

/// Calls `job(i)` once for every `i` in `0..costs.len()` on `threads`
/// workers, returning the results **in job order** plus the schedule
/// telemetry. Jobs start in `costs`-descending order (ties in
/// submission order; only the ordering of the costs matters) at every
/// width; the width is capped at the job count, and `threads <= 1` runs
/// that same order on the calling thread.
pub fn execute<T: Send>(
    costs: &[f64],
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, PoolTelemetry) {
    // Longest first; the stable sort keeps ties in submission order.
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
    let width = threads.clamp(1, costs.len().max(1));
    let t0 = Instant::now();
    let now_ms = || t0.elapsed().as_secs_f64() * 1e3;
    // Relaxed: the cursor only deals out positions in `order`; results
    // travel back through `join`, which orders them before the reads below.
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut mine = Vec::new();
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let started = now_ms();
            let result = job(i);
            mine.push((i, result, JobStats { queue_wait_ms: started, wall_ms: now_ms() - started }));
        }
        mine
    };
    let mut ran = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..width).map(|_| scope.spawn(drain)).collect();
        let mut ran = drain();
        for worker in workers {
            ran.extend(worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        ran
    });

    // Back into job order.
    ran.sort_unstable_by_key(|&(i, ..)| i);
    let (results, per_job): (Vec<T>, Vec<JobStats>) =
        ran.into_iter().map(|(_, result, stats)| (result, stats)).unzip();
    let busy_ms = per_job.iter().map(|j| j.wall_ms).sum();
    (results, PoolTelemetry { threads: width, makespan_ms: now_ms(), busy_ms, per_job })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Mutex};

    #[test]
    fn results_come_back_in_job_order_at_any_thread_count() {
        for n in [0usize, 1, 2, 7, 50] {
            let costs: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64).collect();
            // 1 = nothing spawned, n + 5 = wider than the list.
            for threads in [1, 2, 4, 8, n + 5] {
                let (results, telemetry) = execute(&costs, threads, |i| i * 2);
                assert_eq!(results, (0..n).map(|i| i * 2).collect::<Vec<_>>(), "n={n} threads={threads}");
                assert_eq!(telemetry.per_job.len(), n);
                assert_eq!(telemetry.threads, threads.min(n).max(1));
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for threads in [1, 3, 4] {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            execute(&[1.0; 100], threads, |i| hits[i].fetch_add(1, Ordering::Relaxed));
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "threads={threads}");
        }
    }

    #[test]
    fn tasks_start_longest_first_with_ties_in_submission_order() {
        // Every task takes a ticket as it starts. One worker runs the
        // same loop every width runs, so its ticket order *is* the
        // order the cursor hands tasks out (wider pools are not
        // asserted: a claimed task may be descheduled before it starts).
        let ticket = AtomicUsize::new(0);
        let (tickets, telemetry) =
            execute(&[2.0, 9.0, 5.0, 9.0, 1.0, 5.0, 7.0], 1, |_| ticket.fetch_add(1, Ordering::Relaxed));
        // Costs in job order: 2, 9, 5, 9, 1, 5, 7 → start ranks.
        assert_eq!(tickets, [5, 0, 3, 1, 6, 4, 2]);
        assert_eq!((telemetry.threads, telemetry.per_job.len()), (1, 7));
    }

    #[test]
    fn a_busy_worker_strands_nothing() {
        // The top-cost job starts first and then blocks until every
        // other job has reported in: this terminates only if the other
        // worker drains the whole rest of the list by itself — the
        // property work stealing used to exist for.
        const OTHERS: usize = 30;
        const POLE: usize = OTHERS / 2;
        let (tx, rx) = mpsc::channel::<usize>();
        let rx = Mutex::new(rx);
        let costs: Vec<f64> = (0..=OTHERS).map(|i| if i == POLE { 1e9 } else { (i % 5) as f64 }).collect();
        let (results, _) = execute(&costs, 2, |i| {
            if i != POLE {
                tx.send(i).expect("the pole is still listening");
                return i;
            }
            let rx = rx.lock().expect("only the pole listens");
            for _ in 0..OTHERS {
                rx.recv().expect("every other job reports");
            }
            OTHERS
        });
        let mut expect: Vec<usize> = (0..=OTHERS).collect();
        expect[POLE] = OTHERS;
        assert_eq!(results, expect);
    }

    #[test]
    fn empty_and_single_job_pools_are_fine() {
        let (r, t) = execute(&[], 8, |_| 0u8);
        assert!(r.is_empty());
        assert_eq!((t.threads, t.per_job.len()), (1, 0));
        let (r, t) = execute(&[1.0], 8, |_| 7u8);
        assert_eq!(r, vec![7]);
        assert_eq!((t.threads, t.per_job.len()), (1, 1));
    }
}
