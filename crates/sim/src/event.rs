//! The event queue at the heart of the discrete-event simulator.
//!
//! Events are `(Instant, payload)` pairs popped in time order. Ties are
//! broken by insertion order (FIFO), which makes runs fully deterministic:
//! two events scheduled for the same instant always execute in the order
//! they were scheduled, regardless of queue internals.
//!
//! # Backends
//!
//! The default backend is a **calendar queue** (hierarchical timer wheel):
//! near-horizon events land in one of [`WHEEL_BUCKETS`] buckets of
//! [`BUCKET_GRANULARITY_NS`] ns each — sized to the MAC's natural tick
//! (slot-time / SIFS are 9–16 µs) — giving O(1) `schedule_at` and
//! amortised-O(1) `pop`. Events beyond the wheel horizon (warmup deadlines,
//! OnOff periods, run horizons) go to a small overflow heap and are
//! *promoted* into the wheel as time advances.
//!
//! An entry lives in one slab slot from schedule to pop. Buckets are
//! unordered linked lists threaded through the slab, free slots a list of
//! their own; the slots of the bucket under the cursor are sorted in one
//! reusable buffer of slot numbers. The slab grows to the peak number of
//! pending events and then stops, so what a queue allocates depends on
//! how many events are pending at once, not on how many buckets a run
//! touches — a world that lives 8 000 events pays a handful of `Vec`
//! doublings, where one `Vec` per bucket cost it an allocation for each
//! of the ~2 000 buckets it visited once.
//!
//! The previous `BinaryHeap` implementation survives as
//! [`EventQueue::heap_reference`] — a test oracle mirroring
//! `Medium::dense_reference()` — and both backends produce byte-identical
//! pop sequences (proven by property tests and the profiler's `--queue`
//! grid).
//!
//! # Determinism argument
//!
//! Pop order is exactly ascending `(time, seq)` in both backends:
//!
//! * bucket time ranges are disjoint and scanned in ascending order, so
//!   cross-bucket order is automatic;
//! * within a bucket, entries are sorted by `(time, seq)` when the cursor
//!   reaches the bucket (a total order — `seq` is unique), so promotion
//!   and insertion order inside a bucket are irrelevant;
//! * overflow entries are promoted *before* any wheel entry of an equal or
//!   later bucket is popped, and promotion re-enters the normal bucket
//!   sort, so an early `seq` scheduled far ahead still wins its FIFO tie.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Instant;

/// Monotonically increasing id assigned to every scheduled event.
///
/// Exposed so callers can implement *lazy cancellation*: remember the id,
/// and when the event pops, ignore it if it has been superseded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// log2 of the wheel bucket width in nanoseconds: 2^13 = 8.192 µs, on the
/// order of the MAC slot time (9 µs) and SIFS (16 µs), so consecutive MAC
/// events usually land in the current or next bucket.
pub const BUCKET_SHIFT: u32 = 13;
/// Width of one wheel bucket in nanoseconds (8.192 µs).
pub const BUCKET_GRANULARITY_NS: u64 = 1 << BUCKET_SHIFT;
/// Number of near-horizon buckets. 4096 × 8.192 µs ≈ 33.6 ms of horizon —
/// comfortably past every MAC/TCP timeout in the workload; only warmup and
/// run-horizon sentinels overflow.
pub const WHEEL_BUCKETS: usize = 4096;

const WHEEL_MASK: u64 = WHEEL_BUCKETS as u64 - 1;
const WORDS: usize = WHEEL_BUCKETS / 64;
/// Sentinel for "no bucket is currently sorted".
const NO_ACTIVE: u64 = u64::MAX;

/// Counters for queue operations, surfaced through `RunPerf` so the cost
/// of the scheduler (and of lazy cancellation upstream) is visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events ever popped.
    pub popped: u64,
    /// Events that went to the far-future overflow level on schedule.
    pub overflow_scheduled: u64,
    /// Overflow events later promoted into the wheel.
    pub promoted: u64,
}

struct Entry<E> {
    at: Instant,
    seq: u64,
    payload: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop earliest first,
// breaking ties by sequence number (earlier insertion pops first).
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

#[inline]
fn bucket_of(at: Instant) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// Slab index meaning "no slot": the end of a bucket list or of the free
/// list.
const NIL: u32 = u32::MAX;

/// `(at, seq)` of the entry in an occupied slab slot.
fn slot_key<E>(slab: &[(Option<Entry<E>>, u32)], slot: u32) -> (Instant, u64) {
    let e = slab[slot as usize].0.as_ref().expect("occupied slot");
    (e.at, e.seq)
}

/// The calendar-queue level structure.
///
/// Invariants (restored at every schedule/pop):
/// * every wheel entry has `bucket_of(at)` in `[base, base + WHEEL_BUCKETS)`,
///   so masked bucket indices are unambiguous;
/// * after a pop's promotion step, every overflow entry has
///   `bucket_of(at) >= base + WHEEL_BUCKETS`, i.e. is strictly later than
///   every wheel entry;
/// * `base <= bucket_of(now)` except transiently inside `pop` right after
///   an empty-wheel promotion jump (which always pops immediately after);
/// * every wheel entry sits in a slab slot; the slots of bucket `active`
///   are all named by `sorted` (its list is empty), every other bucket's
///   slots are all on its list.
struct Wheel<E> {
    /// Per bucket (indexed by `bucket & WHEEL_MASK`): the slab slot at
    /// the head of its unordered list, or `NIL`.
    heads: Vec<u32>,
    /// Where every wheel entry lives from schedule to pop: `(entry, next
    /// slot)`. An occupied slot's link threads its bucket's list; a free
    /// slot holds `None` and links the free list. Grows to the peak
    /// number of pending wheel entries, then never again — a world pays
    /// for a handful of doublings, not one allocation per bucket it
    /// touches.
    slab: Vec<(Option<Entry<E>>, u32)>,
    /// Head of the free-slot list, or `NIL`.
    free: u32,
    /// The cursor bucket's slots, sorted descending by their entries'
    /// `(at, seq)` and popped from the back; one buffer reused by every
    /// bucket in turn. Sorting moves slot numbers, never entries.
    sorted: Vec<u32>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupancy: [u64; WORDS],
    /// Absolute bucket index the cursor has reached (monotone).
    base: u64,
    /// Absolute index of the bucket `sorted` currently names, or
    /// `NO_ACTIVE`.
    active: u64,
    /// Entries currently in wheel buckets (excludes overflow).
    len: usize,
    /// Far-future events, beyond `base + WHEEL_BUCKETS`.
    overflow: BinaryHeap<Entry<E>>,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            heads: vec![NIL; WHEEL_BUCKETS],
            slab: Vec::new(),
            free: NIL,
            sorted: Vec::new(),
            occupancy: [0; WORDS],
            base: 0,
            active: NO_ACTIVE,
            len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.len + self.overflow.len()
    }

    /// Stores `e` in a slab slot (a free one when there is one) linked to
    /// `next`, and returns the slot.
    fn store(&mut self, e: Entry<E>, next: u32) -> u32 {
        let slot = self.free;
        if slot == NIL {
            assert!(self.slab.len() < NIL as usize, "event queue slab full");
            self.slab.push((Some(e), next));
            return self.slab.len() as u32 - 1;
        }
        let cell = &mut self.slab[slot as usize];
        self.free = cell.1;
        *cell = (Some(e), next);
        slot
    }

    /// `(at, seq)` of the entry in an occupied slot.
    fn key(&self, slot: u32) -> (Instant, u64) {
        slot_key(&self.slab, slot)
    }

    /// Makes `abs` (masked `idx`) the cursor bucket: moves its list into
    /// `sorted` and sorts it. Order within a list is irrelevant for that
    /// reason.
    fn activate(&mut self, idx: usize, abs: u64) {
        if !self.sorted.is_empty() {
            // A not-due probe sorted a later bucket and an earlier one
            // filled afterwards: hand the later one back to its list.
            let was = (self.active & WHEEL_MASK) as usize;
            for slot in self.sorted.drain(..) {
                self.slab[slot as usize].1 = std::mem::replace(&mut self.heads[was], slot);
            }
        }
        let mut slot = std::mem::replace(&mut self.heads[idx], NIL);
        while slot != NIL {
            self.sorted.push(slot);
            slot = self.slab[slot as usize].1;
        }
        // One sort makes every subsequent pop from the bucket O(1).
        let slab = &self.slab;
        self.sorted.sort_unstable_by_key(|&slot| std::cmp::Reverse(slot_key(slab, slot)));
        self.active = abs;
    }

    /// Places `e` into its bucket (or the overflow heap). Returns `true`
    /// if it overflowed.
    fn insert(&mut self, e: Entry<E>) -> bool {
        let b = bucket_of(e.at);
        if b >= self.base + WHEEL_BUCKETS as u64 {
            self.overflow.push(e);
            return true;
        }
        debug_assert!(b >= self.base, "wheel insert below base: bucket={b} base={}", self.base);
        let idx = (b & WHEEL_MASK) as usize;
        if b == self.active {
            // The cursor bucket stays sorted descending so pops stay O(1);
            // a binary insert keeps same-instant FIFO intact.
            let key = (e.at, e.seq);
            let slot = self.store(e, NIL);
            let pos = self.sorted.partition_point(|&s| self.key(s) > key);
            self.sorted.insert(pos, slot);
        } else {
            self.heads[idx] = self.store(e, self.heads[idx]);
        }
        self.occupancy[idx >> 6] |= 1 << (idx & 63);
        self.len += 1;
        false
    }

    /// Masked index of the earliest occupied bucket, scanning circularly
    /// from `base`, or `None` if all buckets are empty.
    fn first_occupied(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let i0 = (self.base & WHEEL_MASK) as usize;
        let (w0, b0) = (i0 >> 6, i0 & 63);
        // Bits at or after the cursor in the cursor's word...
        let masked = self.occupancy[w0] & (!0u64 << b0);
        if masked != 0 {
            return Some((w0 << 6) + masked.trailing_zeros() as usize);
        }
        // ...then whole words circularly...
        for step in 1..WORDS {
            let w = (w0 + step) % WORDS;
            if self.occupancy[w] != 0 {
                return Some((w << 6) + self.occupancy[w].trailing_zeros() as usize);
            }
        }
        // ...then the cursor word's bits strictly below the cursor (the
        // wrapped remainder — excluded above so the scan can't loop).
        let wrapped = self.occupancy[w0] & !(!0u64 << b0);
        if wrapped != 0 {
            return Some((w0 << 6) + wrapped.trailing_zeros() as usize);
        }
        None
    }

    /// Absolute bucket index for a masked index found by `first_occupied`.
    fn abs_of(&self, idx: usize) -> u64 {
        let i0 = self.base & WHEEL_MASK;
        let delta = (idx as u64).wrapping_sub(i0) & WHEEL_MASK;
        self.base + delta
    }

    /// Moves every overflow entry that now fits the horizon into its
    /// bucket. Returns how many were promoted.
    fn promote_eligible(&mut self) -> u64 {
        let horizon = self.base + WHEEL_BUCKETS as u64;
        let mut promoted = 0;
        while let Some(head) = self.overflow.peek() {
            if bucket_of(head.at) >= horizon {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry");
            let overflowed = self.insert(e);
            debug_assert!(!overflowed);
            promoted += 1;
        }
        promoted
    }

    /// Ensures the earliest pending event sits in a sorted bucket and
    /// returns its masked index, or `None` if the queue is empty — or, when
    /// `deadline` is given, if the earliest event is after it.
    ///
    /// `base` is only advanced when `Some` is returned (i.e. when the
    /// caller will pop): a not-due probe must leave the horizon anchored,
    /// since the caller may still schedule times before the next event.
    fn locate_next(&mut self, stats: &mut QueueStats, deadline: Option<Instant>) -> Option<usize> {
        if self.len == 0 {
            // Wheel drained: jump the cursor to the first overflow bucket
            // (unless it isn't due — then leave everything untouched).
            let head_at = self.overflow.peek()?.at;
            if let Some(d) = deadline {
                if head_at > d {
                    return None;
                }
            }
            self.base = bucket_of(head_at);
        }
        if !self.overflow.is_empty() {
            // Cheap peek each pop keeps the invariant "overflow is strictly
            // later than the wheel" as `base` advances.
            stats.promoted += self.promote_eligible();
        }
        let idx = self.first_occupied().expect("non-empty wheel after promotion");
        let abs = self.abs_of(idx);
        if abs != self.active {
            self.activate(idx, abs);
        }
        if let Some(d) = deadline {
            if self.key(*self.sorted.last().expect("located bucket is non-empty")).0 > d {
                return None;
            }
        }
        self.base = abs;
        Some(idx)
    }

    /// Removes the minimum entry of the cursor bucket (masked `idx`),
    /// returning its slot to the free list.
    fn pop_from(&mut self, idx: usize) -> Entry<E> {
        let slot = self.sorted.pop().expect("pop from empty bucket");
        let cell = &mut self.slab[slot as usize];
        let e = cell.0.take().expect("occupied slot");
        cell.1 = std::mem::replace(&mut self.free, slot);
        self.len -= 1;
        if self.sorted.is_empty() {
            self.occupancy[idx >> 6] &= !(1 << (idx & 63));
            self.active = NO_ACTIVE;
        }
        e
    }

    /// The earliest pending event time without mutating the wheel.
    fn peek_time(&self) -> Option<Instant> {
        match self.first_occupied() {
            // Wheel entries are always earlier than overflow entries.
            Some(idx) if self.abs_of(idx) == self.active => self.sorted.last().map(|&s| self.key(s).0),
            Some(idx) => {
                let mut min: Option<Instant> = None;
                let mut slot = self.heads[idx];
                while slot != NIL {
                    let (entry, next) = &self.slab[slot as usize];
                    let at = entry.as_ref().expect("linked slot holds an entry").at;
                    min = Some(min.map_or(at, |m| m.min(at)));
                    slot = *next;
                }
                min
            }
            None => self.overflow.peek().map(|e| e.at),
        }
    }
}

// One queue lives per world and the wheel is the only variant on the
// hot path, so the size skew (the inline occupancy bitmap) is fine —
// boxing it would buy nothing but a pointer chase per operation.
#[allow(clippy::large_enum_variant)]
enum Backend<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Entry<E>>),
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    backend: Backend<E>,
    next_seq: u64,
    now: Instant,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at t = 0 using the calendar-wheel backend.
    pub fn new() -> Self {
        EventQueue {
            backend: Backend::Wheel(Wheel::new()),
            next_seq: 0,
            now: Instant::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Creates an empty queue using the original `BinaryHeap` backend.
    ///
    /// Kept as a reference oracle (mirroring `Medium::dense_reference()`):
    /// property tests and the profiler's `--queue` grid assert that both
    /// backends produce identical pop sequences, then time them.
    pub fn heap_reference() -> Self {
        EventQueue {
            backend: Backend::Heap(BinaryHeap::new()),
            next_seq: 0,
            now: Instant::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Converts this queue to the heap-reference backend in place,
    /// preserving every pending entry, `now`, ids, and counters.
    ///
    /// Lets a fully-built world be re-based onto the oracle backend (the
    /// same pattern as `World::densify_medium`).
    pub fn convert_to_heap_reference(&mut self) {
        if let Backend::Wheel(wheel) = &mut self.backend {
            let mut heap = std::mem::take(&mut wheel.overflow);
            heap.extend(wheel.slab.drain(..).filter_map(|(entry, _)| entry));
            self.backend = Backend::Heap(heap);
        }
    }

    /// True if this queue uses the heap-reference backend.
    pub fn is_heap_reference(&self) -> bool {
        matches!(self.backend, Backend::Heap(_))
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (or t = 0 before any pop).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling into the past is a logic error in a DES — a
    /// time-travelling event would corrupt calendar bucket ordering
    /// invisibly — so debug builds assert `at >= now`; release builds
    /// clamp `at` to `now` (the event fires immediately, in FIFO order
    /// after everything already due).
    pub fn schedule_at(&mut self, at: Instant, payload: E) -> EventId {
        debug_assert!(at >= self.now, "scheduling into the past: at={at} now={}", self.now);
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.scheduled += 1;
        let entry = Entry { at, seq, payload };
        match &mut self.backend {
            Backend::Wheel(wheel) => {
                if wheel.insert(entry) {
                    self.stats.overflow_scheduled += 1;
                }
            }
            Backend::Heap(heap) => heap.push(entry),
        }
        EventId(seq)
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: crate::time::Duration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Removes and returns the earliest event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(Instant, EventId, E)> {
        let e = match &mut self.backend {
            Backend::Wheel(wheel) => {
                let idx = wheel.locate_next(&mut self.stats, None)?;
                wheel.pop_from(idx)
            }
            Backend::Heap(heap) => heap.pop()?,
        };
        debug_assert!(e.at >= self.now, "queue returned an out-of-order event");
        self.now = e.at;
        self.stats.popped += 1;
        Some((e.at, EventId(e.seq), e.payload))
    }

    /// Pops the earliest event only if it is due at or before `deadline`.
    ///
    /// The hot-loop replacement for `peek_time()` + `pop()`: one bucket
    /// scan instead of two. Returns `None` (leaving the queue untouched)
    /// when the queue is empty or the next event is after `deadline`.
    pub fn pop_before(&mut self, deadline: Instant) -> Option<(Instant, EventId, E)> {
        let e = match &mut self.backend {
            Backend::Wheel(wheel) => {
                let idx = wheel.locate_next(&mut self.stats, Some(deadline))?;
                wheel.pop_from(idx)
            }
            Backend::Heap(heap) => {
                if heap.peek()?.at > deadline {
                    return None;
                }
                heap.pop()?
            }
        };
        debug_assert!(e.at >= self.now, "queue returned an out-of-order event");
        self.now = e.at;
        self.stats.popped += 1;
        Some((e.at, EventId(e.seq), e.payload))
    }

    /// The time of the next event without popping it.
    pub fn peek_time(&self) -> Option<Instant> {
        match &self.backend {
            Backend::Wheel(wheel) => wheel.peek_time(),
            Backend::Heap(heap) => heap.peek().map(|e| e.at),
        }
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Wheel(wheel) => wheel.len(),
            Backend::Heap(heap) => heap.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for run statistics).
    pub fn scheduled_total(&self) -> u64 {
        self.stats.scheduled
    }

    /// Queue-operation counters (schedules, pops, overflow traffic).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(30), "c");
        q.schedule_at(Instant::from_micros(10), "a");
        q.schedule_at(Instant::from_micros(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_micros(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_fifo_across_pops() {
        // Scheduling *at the current instant* while draining that instant
        // must still pop FIFO (binary insert into the active bucket).
        let mut q = EventQueue::new();
        let t = Instant::from_micros(5);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(0));
        q.schedule_at(t, 2);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(1));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(2));
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(10), ());
        q.schedule_at(Instant::from_micros(20), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_micros(10));
        q.pop();
        assert_eq!(q.now(), Instant::from_micros(20));
    }

    #[test]
    fn schedule_after_uses_now() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(10), "first");
        q.pop();
        q.schedule_after(Duration::from_micros(5), "second");
        let (t, _, _) = q.pop().unwrap();
        assert_eq!(t, Instant::from_micros(15));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(10), ());
        q.pop();
        q.schedule_at(Instant::from_micros(5), ());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn past_scheduling_clamps_in_release() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(10), "on-time");
        q.pop();
        q.schedule_at(Instant::from_micros(5), "late");
        let (t, _, p) = q.pop().unwrap();
        // Clamped to `now`, fires immediately, time never goes backwards.
        assert_eq!(t, Instant::from_micros(10));
        assert_eq!(p, "late");
        assert_eq!(q.now(), Instant::from_micros(10));
    }

    #[test]
    fn event_ids_are_unique_and_increasing() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Instant::from_micros(1), ());
        let b = q.schedule_at(Instant::from_micros(1), ());
        assert!(b > a);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(Instant::from_micros(7)));
        assert_eq!(q.now(), Instant::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(Instant::from_micros(1), ());
        q.schedule_at(Instant::from_micros(2), ());
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.stats().popped, 1);
    }

    #[test]
    fn far_future_overflow_and_promotion() {
        let mut q = EventQueue::new();
        // Beyond the 33.6 ms horizon from t = 0.
        q.schedule_at(Instant::from_secs(2), "far");
        q.schedule_at(Instant::from_micros(10), "near");
        assert_eq!(q.stats().overflow_scheduled, 1);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("near"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("far"));
        assert_eq!(q.now(), Instant::from_secs(2));
        assert_eq!(q.stats().promoted, 1);
    }

    #[test]
    fn far_future_sentinel_does_not_overflow_arithmetic() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::FAR_FUTURE, "sentinel");
        q.schedule_at(Instant::from_micros(1), "near");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("near"));
        assert_eq!(q.peek_time(), Some(Instant::FAR_FUTURE));
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((Instant::FAR_FUTURE, "sentinel")));
    }

    #[test]
    fn overflow_preserves_fifo_ties() {
        // An event scheduled far ahead (overflow) must still win its FIFO
        // tie against one scheduled later, directly into the wheel.
        let mut q = EventQueue::new();
        let t = Instant::from_millis(100);
        q.schedule_at(t, "first-scheduled"); // overflow from t=0
        q.schedule_at(Instant::from_millis(90), "stepping-stone");
        q.pop(); // now = 90 ms; t=100 ms is inside the horizon now
        q.schedule_at(t, "second-scheduled"); // lands in the wheel
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("first-scheduled"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("second-scheduled"));
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(10), "early");
        q.schedule_at(Instant::from_micros(30), "late");
        let deadline = Instant::from_micros(20);
        assert_eq!(q.pop_before(deadline).map(|(_, _, p)| p), Some("early"));
        assert_eq!(q.pop_before(deadline).map(|(_, _, p)| p), None);
        assert_eq!(q.len(), 1, "undue event stays queued");
        // Inclusive deadline.
        assert_eq!(q.pop_before(Instant::from_micros(30)).map(|(_, _, p)| p), Some("late"));
    }

    #[test]
    fn pop_before_does_not_jump_past_schedulable_times() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_secs(1), "far");
        // Deadline long before the only (overflowed) event.
        assert!(q.pop_before(Instant::from_millis(1)).is_none());
        // The caller may still schedule times between now and the far
        // event; the failed pop must not have corrupted the wheel.
        q.schedule_at(Instant::from_millis(2), "near");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("near"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("far"));
    }

    #[test]
    fn failed_pop_before_leaves_wheel_schedulable() {
        // A not-due probe against a *wheel* event (not just overflow) must
        // not advance the cursor past buckets the caller can still fill.
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(30), "later");
        assert!(q.pop_before(Instant::from_micros(10)).is_none());
        q.schedule_at(Instant::from_micros(12), "sooner");
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((Instant::from_micros(12), "sooner")));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("later"));
    }

    #[test]
    fn probed_bucket_spills_when_an_earlier_bucket_fills() {
        // The probe sorts bucket 3 under the cursor; buckets 1 and 2 fill
        // afterwards, and bucket 3 keeps receiving entries (sorted insert
        // while it is the cursor bucket, plain link once it has spilled).
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(30), "c1");
        q.schedule_at(Instant::from_micros(30), "c2");
        assert!(q.pop_before(Instant::from_micros(10)).is_none());
        q.schedule_at(Instant::from_micros(30), "c3");
        q.schedule_at(Instant::from_micros(20), "b");
        q.schedule_at(Instant::from_micros(12), "a");
        assert_eq!(q.peek_time(), Some(Instant::from_micros(12)));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("a"));
        q.schedule_at(Instant::from_micros(30), "c4");
        let rest: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(rest, vec!["b", "c1", "c2", "c3", "c4"]);
    }

    /// The wheel behind a queue built with [`EventQueue::new`].
    fn wheel_of<E>(q: &EventQueue<E>) -> &Wheel<E> {
        match &q.backend {
            Backend::Wheel(w) => w,
            Backend::Heap(_) => panic!("heap backend"),
        }
    }

    #[test]
    fn slab_slots_are_reused_once_the_peak_is_reached() {
        // Hold `pending` events while time marches through several wheel
        // revolutions: every pop frees a slot the next schedule takes, so
        // the slab stops at the peak pending count — its length, not only
        // its capacity — however many buckets the run touches.
        for pending in [1usize, 64, 4096] {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut rng = crate::rng::Rng::seed_from_u64(pending as u64);
            for i in 0..pending as u64 {
                q.schedule_at(Instant::from_micros(rng.below(10_000)), i);
            }
            let (peak_len, peak_cap) = {
                let w = wheel_of(&q);
                assert_eq!(w.slab.len(), pending, "one slot per pending event");
                (w.slab.len(), w.slab.capacity())
            };
            let mut touched = std::collections::BTreeSet::new();
            for _ in 0..20 * pending.max(2_000) {
                let (now, _, v) = q.pop().expect("the queue holds `pending` events");
                touched.insert(bucket_of(now));
                q.schedule_at(now + Duration::from_micros(rng.below(10_000) + 1), v);
                assert_eq!(q.len(), pending);
            }
            assert!(touched.len() > 1_000, "the churn visits many buckets ({})", touched.len());
            let w = wheel_of(&q);
            assert_eq!(w.slab.len(), peak_len, "slab length at {pending} pending");
            assert_eq!(w.slab.capacity(), peak_cap, "slab capacity at {pending} pending");
            // The sorted buffer never holds more than the fullest bucket.
            assert!(w.sorted.capacity() <= pending.next_power_of_two().max(4));
            // Every slot holds a pending entry: none is left on the free
            // list while the queue is at its peak.
            assert_eq!(w.slab.iter().filter(|(e, _)| e.is_some()).count(), pending);
        }
    }

    #[test]
    fn wheel_wraparound_many_cycles() {
        // March time through many full wheel revolutions with a sparse
        // always-ahead event stream.
        let mut q = EventQueue::new();
        let step = Duration::from_micros(7_919); // prime-ish, ~1 bucket/revolution drift
        let mut expect = Instant::ZERO;
        q.schedule_at(expect + step, 0u64);
        for i in 0..20_000u64 {
            let (t, _, p) = q.pop().unwrap();
            expect += step;
            assert_eq!(t, expect);
            assert_eq!(p, i);
            q.schedule_at(t + step, i + 1);
        }
    }

    #[test]
    fn heap_reference_matches_wheel_smoke() {
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::heap_reference();
        assert!(heap.is_heap_reference());
        assert!(!wheel.is_heap_reference());
        let times = [5u64, 5, 3, 1_000_000_000, 8, 5, 40_000_000, 8, 1_000_000_000, 0, 77, 34_000_000];
        for (i, t) in times.iter().enumerate() {
            wheel.schedule_at(Instant::from_nanos(*t), i);
            heap.schedule_at(Instant::from_nanos(*t), i);
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn convert_to_heap_reference_preserves_pending() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(10), "a");
        q.schedule_at(Instant::from_secs(10), "far");
        q.schedule_at(Instant::from_micros(10), "b");
        q.pop(); // "a"; now = 10 µs
        q.convert_to_heap_reference();
        assert!(q.is_heap_reference());
        assert_eq!(q.now(), Instant::from_micros(10));
        assert_eq!(q.len(), 2);
        let c = q.schedule_at(Instant::from_micros(10), "c");
        assert_eq!(c, EventId(3), "seq continues across conversion");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("c"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("far"));
    }
}
