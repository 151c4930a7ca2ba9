//! Property tests for the simulation engine's core invariants.

use proptest::prelude::*;

use hydra_sim::{Duration, EventQueue, Instant, Rng, TimerSet};

proptest! {
    #[test]
    fn event_queue_pops_sorted_stable(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(Instant::from_nanos(*t), i);
        }
        let mut last: Option<(Instant, usize)> = None;
        while let Some((at, _, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(at >= lt, "time went backwards");
                if at == lt {
                    prop_assert!(idx > lidx, "FIFO violated for ties");
                }
            }
            prop_assert_eq!(at, Instant::from_nanos(times[idx]));
            last = Some((at, idx));
        }
    }

    #[test]
    fn event_queue_interleaved_schedule_pop(ops in proptest::collection::vec((0u64..1000, any::<bool>()), 1..300)) {
        // Arbitrary interleaving of schedule/pop never violates monotonic time.
        let mut q = EventQueue::new();
        let mut last_popped = Instant::ZERO;
        for (delay, do_pop) in ops {
            if do_pop {
                if let Some((at, _, _)) = q.pop() {
                    prop_assert!(at >= last_popped);
                    last_popped = at;
                }
            } else {
                q.schedule_after(Duration::from_micros(delay), ());
            }
        }
    }

    #[test]
    fn event_queue_wheel_matches_heap_reference(ops in proptest::collection::vec((0u8..4, 0usize..6), 1..400)) {
        // The calendar wheel and the heap oracle must produce *identical*
        // pop sequences for arbitrary schedule/pop/pop_before
        // interleavings. The delay menu spans same-instant ties (0),
        // sub-bucket (1), bucket-scale (8_192 = one bucket), mid-horizon,
        // and far-future overflow (60 s >> the 33.6 ms wheel horizon).
        const DELAYS: [u64; 6] = [0, 1, 5_000, 8_192, 1_000_000, 60_000_000_000];
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::heap_reference();
        let mut payload = 0u64;
        for (op, pick) in ops {
            match op {
                0 | 1 => {
                    payload += 1;
                    let d = Duration::from_nanos(DELAYS[pick]);
                    let a = wheel.schedule_after(d, payload);
                    let b = heap.schedule_after(d, payload);
                    prop_assert_eq!(a, b, "EventIds diverged");
                }
                2 => prop_assert_eq!(wheel.pop(), heap.pop()),
                _ => {
                    let deadline = wheel.now() + Duration::from_nanos(DELAYS[pick] / 2);
                    prop_assert_eq!(wheel.pop_before(deadline), heap.pop_before(deadline));
                }
            }
            prop_assert_eq!(wheel.now(), heap.now());
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain both: far-future events promote out of the overflow level
        // here, and the full remaining sequences must still match.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn event_queue_rearm_ties_match_heap_reference(ops in proptest::collection::vec((0u8..3, 0usize..4), 1..300)) {
        // Timer-style re-arms: the same logical slots get re-scheduled at a
        // handful of *absolute* instants over and over (many same-instant
        // FIFO ties, some in the overflow level), interleaved with pops.
        // Both backends must agree on every pop, including tie order.
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::heap_reference();
        let mut arm = 0u64;
        for (op, pick) in ops {
            match op {
                0 | 1 => {
                    // Re-arm slot `pick`: a fixed target instant per slot,
                    // bumped past `now` in whole 50 ms periods (slots 2–3
                    // start beyond the wheel horizon).
                    const PERIOD: u64 = 50_000_000;
                    let slot_offset = (pick as u64 + 1) * 12_500_000;
                    let mut at = Instant::from_nanos(slot_offset);
                    while at < wheel.now() {
                        at += Duration::from_nanos(PERIOD);
                    }
                    arm += 1;
                    let a = wheel.schedule_at(at, (pick, arm));
                    let b = heap.schedule_at(at, (pick, arm));
                    prop_assert_eq!(a, b);
                }
                _ => prop_assert_eq!(wheel.pop(), heap.pop()),
            }
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
    }

    #[test]
    fn event_queue_spill_path_matches_heap_reference(
        rounds in proptest::collection::vec(
            (1u64..3_000, 1usize..5, proptest::collection::vec((0u64..4_000, 0u8..3), 1..12), 0usize..8),
            1..12,
        ),
    ) {
        // A probe that finds the next event not yet due leaves its bucket
        // sorted under the cursor. Events scheduled into *earlier* buckets
        // afterwards must still pop first, and the probed bucket must come
        // back complete and in order — whatever mix of earlier-bucket,
        // same-bucket and later-bucket schedules follows the probe.
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::heap_reference();
        let mut payload = 0u64;
        let mut both = |wheel: &mut EventQueue<u64>, heap: &mut EventQueue<u64>, at: Instant| {
            payload += 1;
            let a = wheel.schedule_at(at, payload);
            let b = heap.schedule_at(at, payload);
            assert_eq!(a, b, "EventIds diverged");
        };
        for (late_us, late_count, early, pops) in rounds {
            // "Late": a few same-bucket events 1–3000 µs ahead (up to ~366
            // buckets), some of them ties.
            let late = wheel.now() + Duration::from_micros(late_us);
            for k in 0..late_count {
                both(&mut wheel, &mut heap, late + Duration::from_nanos((k as u64 % 2) * 7));
            }
            // The probe: due strictly before anything pending.
            let first = heap.peek_time().expect("just scheduled");
            prop_assert_eq!(wheel.peek_time(), Some(first));
            if first > wheel.now() {
                let deadline = first - Duration::from_nanos(1);
                prop_assert_eq!(wheel.pop_before(deadline), None);
                prop_assert_eq!(heap.pop_before(deadline), None);
            }
            // Then schedules before, inside and after the probed bucket.
            for (off_us, kind) in early {
                let at = match kind {
                    0 => wheel.now() + Duration::from_micros(off_us.min(late_us)),
                    1 => late,
                    _ => late + Duration::from_micros(off_us),
                };
                both(&mut wheel, &mut heap, at);
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            }
            for _ in 0..pops {
                prop_assert_eq!(wheel.pop(), heap.pop());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn event_queue_converts_and_peeks_with_a_sorted_cursor_bucket(
        times in proptest::collection::vec(0u64..40_000, 2..60),
        popped in 0usize..30,
        probe in any::<bool>(),
        extra in proptest::collection::vec(0u64..40_000, 0..20),
    ) {
        // `peek_time` and `convert_to_heap_reference` while the cursor
        // bucket holds sorted, partly consumed entries (after pops) or
        // sorted, untouched ones (after a not-due probe): nothing is lost,
        // nothing is reordered, ids and `now` carry over.
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::heap_reference();
        for (i, t) in times.iter().enumerate() {
            wheel.schedule_at(Instant::from_nanos(*t), i);
            heap.schedule_at(Instant::from_nanos(*t), i);
        }
        for _ in 0..popped.min(times.len() - 1) {
            prop_assert_eq!(wheel.pop(), heap.pop());
        }
        if probe {
            let next = heap.peek_time().expect("one entry is always left");
            if next > wheel.now() {
                let deadline = next - Duration::from_nanos(1);
                prop_assert_eq!(wheel.pop_before(deadline), None);
            }
        }
        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        wheel.convert_to_heap_reference();
        prop_assert!(wheel.is_heap_reference());
        prop_assert_eq!(wheel.len(), heap.len());
        prop_assert_eq!(wheel.now(), heap.now());
        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        for (i, t) in extra.iter().enumerate() {
            let at = wheel.now() + Duration::from_nanos(*t);
            prop_assert_eq!(wheel.schedule_at(at, 1000 + i), heap.schedule_at(at, 1000 + i));
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn event_queue_same_instant_fifo_across_activation(
        ops in proptest::collection::vec((0u8..5, 0usize..3), 1..200),
    ) {
        // Three fixed instants — two in one bucket, one a few buckets on —
        // keep receiving events while the cursor moves onto, probes and
        // leaves their buckets. Whenever two events share an instant they
        // must pop in the order they were scheduled, whether they were
        // linked before the bucket was sorted, binary-inserted after, or
        // spilled back and sorted again.
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::heap_reference();
        let mut seq = 0u64;
        let mut epoch = Instant::ZERO;
        let mut last: Option<(Instant, u64)> = None;
        for (op, pick) in ops {
            let targets = [
                epoch + Duration::from_nanos(20_000),
                epoch + Duration::from_nanos(20_100),
                epoch + Duration::from_nanos(70_000),
            ];
            match op {
                0..=2 => {
                    let at = targets[pick].max(wheel.now());
                    seq += 1;
                    prop_assert_eq!(wheel.schedule_at(at, seq), heap.schedule_at(at, seq));
                }
                3 => {
                    let deadline = targets[pick] - Duration::from_nanos(1);
                    if deadline >= wheel.now() {
                        let a = wheel.pop_before(deadline);
                        prop_assert_eq!(&a, &heap.pop_before(deadline));
                        if let Some((at, _, s)) = a {
                            if let Some((lat, ls)) = last {
                                prop_assert!(at > lat || (at == lat && s > ls), "FIFO violated");
                            }
                            last = Some((at, s));
                        }
                    }
                }
                _ => {
                    let a = wheel.pop();
                    prop_assert_eq!(&a, &heap.pop());
                    if let Some((at, _, s)) = a {
                        if let Some((lat, ls)) = last {
                            prop_assert!(at > lat || (at == lat && s > ls), "FIFO violated");
                        }
                        last = Some((at, s));
                    }
                    if wheel.is_empty() {
                        epoch = wheel.now() + Duration::from_nanos(1);
                    }
                }
            }
        }
        loop {
            let a = wheel.pop();
            prop_assert_eq!(&a, &heap.pop());
            let Some((at, _, s)) = a else { break };
            if let Some((lat, ls)) = last {
                prop_assert!(at > lat || (at == lat && s > ls), "FIFO violated");
            }
            last = Some((at, s));
        }
    }

    #[test]
    fn rng_below_always_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000, n in 1usize..100) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..n {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_streams_deterministic(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        let mut fa = a.fork(stream);
        let mut fb = b.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    #[test]
    fn timers_stale_tokens_never_fire(slots in 1usize..8, ops in proptest::collection::vec((0usize..8, 0u8..3), 1..100)) {
        let mut set = TimerSet::new(slots);
        let mut live: Vec<Option<hydra_sim::TimerToken>> = vec![None; slots];
        for (slot, op) in ops {
            let slot = slot % slots;
            match op {
                0 => live[slot] = Some(set.arm(slot)),
                1 => {
                    set.cancel(slot);
                    live[slot] = None;
                }
                _ => {
                    if let Some(tok) = live[slot].take() {
                        prop_assert!(set.fire(tok), "live token must fire");
                        prop_assert!(!set.fire(tok), "token must not fire twice");
                    }
                }
            }
        }
    }

    #[test]
    fn duration_for_bits_never_underestimates(bits in 0u64..10_000_000, rate in 1u64..10_000_000) {
        let d = Duration::for_bits(bits, rate);
        // d * rate >= bits * 1e9 (airtime covers the bits).
        let lhs = d.as_nanos() as u128 * rate as u128;
        let rhs = bits as u128 * 1_000_000_000u128;
        prop_assert!(lhs >= rhs);
        // And it never overshoots by more than one nanosecond's worth.
        prop_assert!(lhs - rhs < rate as u128);
    }
}
