//! # hydra-sim — deterministic discrete-event simulation engine
//!
//! The substrate every other crate in this workspace runs on. Provides:
//!
//! * [`time::Instant`] / [`time::Duration`] — nanosecond virtual time;
//! * [`event::EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking;
//! * [`rng::Rng`] — a self-contained xoshiro256++ generator, so results are
//!   bit-stable across platforms and dependency upgrades;
//! * [`timer::TimerSet`] — generation-counted lazy-cancellation timers;
//! * [`CountingAlloc`] — an opt-in counting global allocator, the
//!   measurement side of the allocation-light hot-path work.
//!
//! Design note: the network layers in this workspace are written *sans-IO*
//! (pure state machines with typed inputs/outputs, as in smoltcp). This
//! crate deliberately knows nothing about networking; it only orders
//! events. The glue lives in `hydra-netsim`.
//!
//! **Layer**: the foundation — this crate depends on nothing, and every
//! other `hydra-*` crate stands on it (the first users above are
//! `hydra-phy`'s airtime math and the protocol state machines' timers).

// `deny` rather than `forbid`: the [`alloc_count`] module implements
// `GlobalAlloc` (an unsafe trait by definition) behind a local,
// documented `allow` — everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc_count;
pub mod event;
pub mod rng;
pub mod time;
pub mod timer;

pub use alloc_count::{alloc_stats, AllocStats, CountingAlloc};
pub use event::{EventId, EventQueue, QueueStats};
pub use rng::{stream_seed, Rng};
pub use time::{Duration, Instant};
pub use timer::{TimerSet, TimerToken};
