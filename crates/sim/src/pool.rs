//! The workspace's one thread-dispatch loop.
//!
//! Everything this workspace runs in parallel is a list of independent
//! coarse tasks known before dispatch — simulation runs in a sweep,
//! collision domains of one run — so one primitive serves them all:
//! [`run_indexed`] hands indices `0..n` out off a shared cursor and
//! returns the results in index order. What runs *first* is the
//! caller's choice of index order (the sweep executor sorts by cost);
//! which thread runs what never reaches a result.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Calls `f(i)` once for every `i` in `0..n` and returns the results
/// **in index order**. The calling thread and `threads − 1` scoped
/// workers each claim the next unclaimed index until none is left, so
/// indices *start* in ascending order and a slow task never strands the
/// ones behind it. `threads = 0` means one per available CPU; the width
/// is capped at `n`, and at width 1 the same loop runs with nothing
/// spawned.
///
/// A panic in `f` propagates to the caller once every worker has
/// stopped; callers that must survive one catch it inside `f`.
pub fn run_indexed<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let want = match threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    };
    // Relaxed: the cursor only deals out indices; results travel back
    // through `join`, which is what orders them before the reads below.
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return mine;
            }
            mine.push((i, f(i)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..want.min(n)).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for worker in workers {
            done.extend(worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_width() {
        for n in [0usize, 1, 2, 7, 50] {
            // 0 = one per CPU, 1 = nothing spawned, 3 = a real pool,
            // n + 5 = wider than the list.
            for threads in [0, 1, 3, n + 5] {
                assert_eq!(
                    run_indexed(n, threads, |i| i * i),
                    (0..n).map(|i| i * i).collect::<Vec<_>>(),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        for threads in [0, 1, 3, 64] {
            let hits: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
            run_indexed(hits.len(), threads, |i| hits[i].fetch_add(1, Ordering::Relaxed));
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "threads={threads}");
        }
    }

    #[test]
    fn one_thread_starts_indices_in_ascending_order() {
        let ticket = AtomicUsize::new(0);
        let tickets = run_indexed(20, 1, |_| ticket.fetch_add(1, Ordering::Relaxed));
        assert_eq!(tickets, (0..20).collect::<Vec<_>>());
    }
}
