//! Micro-benchmarks for the event engine: the calendar queue, isolated
//! from MAC/PHY work.
//!
//! Three shapes:
//!
//! * `fill_drain` — schedule N events, then pop all N. Each iteration
//!   builds a fresh queue, so the wheel's bucket allocation is charged
//!   here too; it amortises only over a queue's lifetime (the hold model
//!   below, which is what a run loop actually does).
//! * `hold_churn` — prefill N pending, then pop-one/schedule-one for
//!   many cycles at a bounded horizon: the classic hold model, and the
//!   steady state of a DES run loop.
//! * `stale_storm` — the aggregation MAC's signature pattern: most
//!   scheduled events are timers that are superseded (re-armed) before
//!   they fire, so the queue drains a long tail of events whose only
//!   work at dispatch is a token compare.
//!
//! Pending-set sizes bracket the real workloads: the paper grids hold
//! O(100) events; thousand-node meshes hold O(10k)+.

use hydra_bench::microbench::Criterion;
use hydra_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use hydra_sim::{EventQueue, Instant};

/// Deterministic pseudo-random microsecond offsets (xorshift64) —
/// enough spread to defeat bucket-locality luck in the wheel without
/// pulling in an RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn bench_fill_drain(c: &mut Criterion, n: u64) {
    let mut g = c.benchmark_group(&format!("event_queue_fill_drain_{n}"));
    g.bench_function("wheel", |b| {
        b.iter(|| {
            let mut q = EventQueue::<u64>::new();
            let mut rng = Lcg(0x9E3779B97F4A7C15);
            for i in 0..n {
                // Spread over a ~100 ms horizon, as a busy world does.
                q.schedule_at(Instant::from_micros(rng.next() % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, _, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_hold_churn(c: &mut Criterion, pending: u64) {
    const CYCLES: u64 = 10_000;
    let mut g = c.benchmark_group(&format!("event_queue_hold_churn_{pending}"));
    g.bench_function("wheel", |b| {
        b.iter(|| {
            let mut q = EventQueue::<u64>::new();
            let mut rng = Lcg(0xD1B54A32D192ED03);
            for i in 0..pending {
                q.schedule_at(Instant::from_micros(rng.next() % 10_000), i);
            }
            let mut acc = 0u64;
            for _ in 0..CYCLES {
                let (now, _, v) = q.pop().expect("queue stays at `pending` events");
                acc = acc.wrapping_add(v);
                // Reschedule relative to the popped time: the pending
                // set neither grows nor drains, it slides forward.
                let at = now + hydra_sim::Duration::from_micros(rng.next() % 10_000 + 1);
                q.schedule_at(at, v);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_stale_storm(c: &mut Criterion) {
    // 8 timers re-armed 1k times each, then the drain pops 8k events of
    // which all but 8 would be stale in the MAC (here: popped and
    // discarded — the queue-side cost of lazy cancellation).
    const SLOTS: u64 = 8;
    const REARMS: u64 = 1_000;
    let mut g = c.benchmark_group("event_queue_stale_storm");
    g.bench_function("wheel", |b| {
        b.iter(|| {
            let mut q = EventQueue::<u64>::new();
            for round in 0..REARMS {
                for slot in 0..SLOTS {
                    q.schedule_at(Instant::from_micros(round * 100 + slot * 9 + 10), slot);
                }
            }
            let mut acc = 0u64;
            while let Some((_, _, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn benches(c: &mut Criterion) {
    bench_fill_drain(c, 1_000);
    bench_fill_drain(c, 100_000);
    bench_hold_churn(c, 1_000);
    bench_hold_churn(c, 100_000);
    bench_stale_storm(c);
}

criterion_group!(queue_benches, benches);
criterion_main!(queue_benches);
