//! # hydra-tcp — deterministic TCP for the simulator
//!
//! A NewReno TCP written sans-IO: [`Connection`] is a pure state machine
//! (segments in, segments out, virtual-time timers), [`TcpStack`] adds a
//! socket table and checksum-complete segment emission. It implements
//! everything the paper's workload needs — handshake, cumulative ACKs,
//! sliding window, slow start/congestion avoidance, fast retransmit and
//! recovery, RFC 6298 RTO, out-of-order reassembly, FIN teardown — and
//! nothing it doesn't (no SACK, no window scaling, no timestamps: the
//! 2008 testbed ran plain NewReno, and the paper's frame sizes confirm
//! option-free 20-byte headers).
//!
//! **Layer**: above `hydra-sim` (virtual time) and `hydra-wire`
//! (segments/checksums); below `hydra-app`'s file transfer and
//! `hydra-netsim`, which pumps segments between stacks and the network
//! layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod conn;
pub mod seq;
pub mod stack;

pub use config::TcpConfig;
pub use conn::{ConnStats, Connection, TcpState};
pub use stack::{OutboundSegment, PendingSegment, SocketHandle, TcpStack};
