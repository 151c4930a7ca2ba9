//! # hydra-benchmark — the repo's end-to-end and per-layer benchmark
//!
//! See `README.md` beside this crate's manifest for who the numbers are
//! for, the five workloads and the metric tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod cli;
pub mod compare;
pub mod digest;
pub mod harness;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod procfs;
pub mod stats;
pub mod trace;
pub mod workloads;
