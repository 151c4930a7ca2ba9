//! Allocation-regression guard for the zero-copy hot path.
//!
//! Installs the counting global allocator and measures steady-state
//! allocations per dispatched event: the world is warmed up first (so
//! scratch-buffer pools are populated and TCP/app buffers sized), then
//! a measurement window runs and the allocation/event deltas are
//! bounded. Remaining allocations are *per-packet* (the MPDU a segment
//! or datagram is serialised into, a relay's forwarded copy, PSDU
//! assembly, `Payload` promotion), not per-event — if a
//! future change reintroduces per-event churn (per-`handle` output
//! vectors, per-receiver PSDU copies, per-edge heap events), the ratio
//! jumps well past the bound.
//!
//! This file holds exactly one test: the counters are process-wide, so
//! it must not share its process with concurrently allocating tests.

use hydra_netsim::{LinkErrorSpec, Policy, ScenarioSpec, TopologyKind};
use hydra_phy::{LinkErrorModel, Rate};
use hydra_sim::{alloc_stats, Duration, Instant};

#[global_allocator]
static ALLOC: hydra_sim::CountingAlloc = hydra_sim::CountingAlloc;

#[test]
fn steady_state_allocations_per_event_are_bounded() {
    // A busy 2-hop BA chain under CBR load: data forwarding + classified
    // ACK broadcasts exercise enqueue, assembly, RTS/CTS/ACK exchanges,
    // fan-out, and delivery.
    // The spec's defaults keep the CBR source alive until
    // warmup + duration + 1 s = 23 s of virtual time.
    let spec = ScenarioSpec::udp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30, Duration::from_millis(17));
    let mut world = spec.build();
    world.start();

    // Warm-up: populate the scratch pools, route caches, TCP buffers.
    world.run_until(Instant::ZERO + Duration::from_secs(2));
    let events0 = world.events_processed;
    let allocs0 = alloc_stats();

    // Steady-state window.
    world.run_until(Instant::ZERO + Duration::from_secs(12));
    let events = world.events_processed - events0;
    let allocs = alloc_stats().since(allocs0);

    assert!(events > 10_000, "window too small to be meaningful: {events} events");
    let per_1k = allocs.allocations as f64 / (events as f64 / 1e3);
    eprintln!("steady-state: {per_1k:.0} allocations per 1k events ({} over {events})", allocs.allocations);
    // Measured ~1.33k allocs / 1k events on the PR 4 tree, ~1.08k after
    // the calendar-queue PR's hot-path work (zero-copy `Payload`
    // promotion, the single-buffer `AggregateBuilder`, the collect-free
    // unicast filter, pooled event payloads), 1 052 on the PR 15 tree,
    // 975 once the network layer stopped copying what it delivers and
    // built a forwarded MPDU in one buffer (PR 16), and 403 with inline
    // control frames, datagrams and segments serialised once into their
    // MPDU, a reused parse buffer and pre-sized assembly (PR 22; the
    // count is exact — same program, same allocations). Bound: 1.5x
    // that, down from 1 450. A regression to per-event allocation
    // (per-`handle` output vectors, per-receiver PSDU clones, per-edge
    // heap events, a heap block per control frame) blows through it.
    assert!(
        per_1k < 600.0,
        "steady-state allocation churn regressed: {per_1k:.0} allocations per 1k events \
         ({} allocations over {events} events)",
        allocs.allocations
    );

    // Same chain with the per-link channel-error model switched on
    // (bursty loss + duplication + reorder). The per-link RNG states
    // allocate once at first use; steady-state extra cost is the
    // copy-on-corrupt materialisation and the occasional checked
    // re-parse, both per-*corruption*, not per-event — the bound gets
    // modest extra headroom for them.
    let mut spec =
        ScenarioSpec::udp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30, Duration::from_millis(17));
    spec.link_error = Some(LinkErrorSpec {
        model: Some(LinkErrorModel::GilbertElliott { p_gb: 0.05, p_bg: 0.45, ber_good: 0.0, ber_bad: 0.3 }),
        dup: 0.05,
        reorder: 0.05,
    });
    let mut world = spec.build();
    world.start();
    world.run_until(Instant::ZERO + Duration::from_secs(2));
    let events0 = world.events_processed;
    let allocs0 = alloc_stats();
    world.run_until(Instant::ZERO + Duration::from_secs(12));
    let events = world.events_processed - events0;
    let allocs = alloc_stats().since(allocs0);
    // Loss + backoff thin the event stream relative to the clean chain;
    // the window is still thousands of transmissions.
    assert!(events > 5_000, "link-error window too small to be meaningful: {events} events");
    let per_1k = allocs.allocations as f64 / (events as f64 / 1e3);
    eprintln!(
        "link-error steady-state: {per_1k:.0} allocations per 1k events ({} over {events})",
        allocs.allocations
    );
    // Measured 1 527 per 1k events on the PR 15 tree, 1 366 after
    // PR 16, 579 after PR 22; bound 1.5x that, down from 2 000.
    assert!(
        per_1k < 870.0,
        "link-error allocation churn regressed: {per_1k:.0} allocations per 1k events \
         ({} allocations over {events} events)",
        allocs.allocations
    );
}
