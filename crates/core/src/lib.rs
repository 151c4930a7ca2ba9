//! # hydra-core — the paper's contribution
//!
//! An IEEE 802.11 DCF MAC extended with the three aggregation techniques
//! of *"Improving the Performance of Multi-hop Wireless Networks using
//! Frame Aggregation and Broadcast for TCP ACKs"* (CoNEXT 2008):
//!
//! 1. **Unicast aggregation (UA)** — same-destination MPDUs share one PHY
//!    frame and one RTS/CTS/ACK exchange ([`assembler`]);
//! 2. **Broadcast aggregation (BA)** — broadcast subframes are prepended
//!    to data frames under a dual-rate PHY header ([`assembler`]);
//! 3. **TCP ACKs as broadcasts** — a cross-layer classifier reroutes pure
//!    TCP ACKs to the broadcast queue; they keep unicast addresses and
//!    are decode-and-dropped by non-addressed receivers ([`classifier`]).
//!
//! Plus the paper's §6.4.3 **DBA** (delayed aggregation), §6.4.4
//! forward-aggregation ablation, and two §7 future-work extensions:
//! block ACKs and rate-adaptive (coherence-budget) aggregate sizing.
//!
//! A node runs one of the paper's five policies ([`config::Policy`]: NA,
//! UA, BA, DBA, BA without forward aggregation), which
//! [`config::AggPolicy`] holds beside the aggregate size cap; the MAC
//! asks the policy which of the mechanisms above it enables.
//!
//! The MAC itself ([`mac::Mac`]) is a sans-IO state machine; wire it to a
//! medium and a clock with `hydra-netsim`, or drive it directly in tests.
//!
//! **Layer**: above `hydra-wire` (frames), `hydra-phy` (rates/airtime)
//! and `hydra-sim` (timers); below `hydra-netsim`, which connects the
//! sans-IO MAC to the event loop and the shared medium.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembler;
pub mod classifier;
pub mod config;
pub mod counters;
pub mod mac;
pub mod queues;

pub use assembler::{assemble, AssembledFrame};
pub use classifier::{Classification, Classifier, ClassifierStats};
pub use config::{AckPolicy, AggPolicy, AggSizing, MacConfig, Policy};
pub use counters::{Cat, Ledger, MacCounters};
pub use mac::{Mac, MacInput, MacOutput, MacSink};
pub use queues::{QueueKind, QueuedMpdu, TxQueues};
