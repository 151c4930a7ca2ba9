//! End-to-end simulation benchmarks: one Criterion target per paper
//! table/figure family, each running a scaled-down instance of the
//! corresponding scenario (small file / short window so an iteration is
//! milliseconds). These measure simulator performance and guard against
//! regressions in the experiment pipeline itself; the full-size runs live
//! in `src/bin/`.

use hydra_bench::microbench::Criterion;
use hydra_bench::{criterion_group, criterion_main};

use hydra_netsim::{Flooding, FlowTraffic, Policy, ScenarioSpec, TopologyKind};
use hydra_phy::Rate;
use hydra_sim::{Duration, EventQueue, Instant};

fn small_tcp(topo: TopologyKind, policy: Policy, rate: Rate) -> f64 {
    let mut s = ScenarioSpec::tcp(topo, policy, rate);
    s.traffic = FlowTraffic::FileTransfer { bytes: 20 * 1024 };
    s.run().throughput_bps
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule_at(Instant::from_micros((i * 7919) % 100_000 + 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, _, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });
}

fn bench_table2_family(c: &mut Criterion) {
    c.bench_function("table2_udp_2hop_na_short", |b| {
        b.iter(|| {
            let mut s = ScenarioSpec::udp(
                TopologyKind::Linear(2),
                Policy::Na,
                Rate::R1_30,
                Duration::from_millis(17),
            );
            s.warmup = Duration::from_millis(500);
            s.duration = Duration::from_secs(2);
            s.run().throughput_bps
        })
    });
}

fn bench_fig8_family(c: &mut Criterion) {
    c.bench_function("fig8_tcp_2hop_ua_20kb", |b| {
        b.iter(|| small_tcp(TopologyKind::Linear(2), Policy::Ua, Rate::R1_30))
    });
}

fn bench_fig11_family(c: &mut Criterion) {
    c.bench_function("fig11_tcp_2hop_ba_20kb", |b| {
        b.iter(|| small_tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R2_60))
    });
}

fn bench_fig12_family(c: &mut Criterion) {
    c.bench_function("fig12_tcp_star_ba_20kb", |b| {
        b.iter(|| small_tcp(TopologyKind::Star, Policy::Ba, Rate::R1_30))
    });
    c.bench_function("fig12_tcp_3hop_ba_20kb", |b| {
        b.iter(|| small_tcp(TopologyKind::Linear(3), Policy::Ba, Rate::R1_30))
    });
}

fn bench_fig13_family(c: &mut Criterion) {
    c.bench_function("fig13_tcp_2hop_dba_20kb", |b| {
        b.iter(|| small_tcp(TopologyKind::Linear(2), Policy::Dba, Rate::R2_60))
    });
}

fn bench_fig9_family(c: &mut Criterion) {
    c.bench_function("fig9_udp_flooding_short", |b| {
        b.iter(|| {
            let mut s = ScenarioSpec::udp(
                TopologyKind::Linear(2),
                Policy::Ba,
                Rate::R1_30,
                Duration::from_millis(17),
            );
            s.flooding = Some(Flooding { interval: Duration::from_millis(100), payload: 120 });
            s.warmup = Duration::from_millis(500);
            s.duration = Duration::from_secs(2);
            s.run().throughput_bps
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_event_queue, bench_table2_family, bench_fig8_family,
              bench_fig11_family, bench_fig12_family, bench_fig13_family,
              bench_fig9_family
}
criterion_main!(benches);
