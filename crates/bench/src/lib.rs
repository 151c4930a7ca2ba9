//! # hydra-bench — the experiment harness
//!
//! One `.scn` file per table/figure of the paper. Each experiment's grid
//! of [`hydra_netsim::ScenarioSpec`]s, its table layout and the paper's
//! numbers are its file under `examples/sweeps/` — the only definition,
//! compiled in — driven through the parallel [`runner::ExperimentRunner`]
//! and drawn as a [`report::Table`] comparing the paper's reported
//! numbers against this reproduction. `src/bin/all.rs` regenerates
//! everything into `results/experiments.txt` (checked in as
//! `tests/golden/experiments.txt`; `docs/REPRODUCTION.md` maps each
//! table to its paper item and claim), or prints only the tables named
//! on its command line ([`experiments::names`] lists them).
//!
//! Any other `.scn` file runs by path through the same binary (`all
//! FILE.scn`, listed by [`experiments::listing`]), and
//! [`sweeps::ConcurrentCache`] persists every outcome keyed by
//! `(stable_hash, replication)` so warm reruns of `all` simulate
//! nothing and rebuild byte-identical tables.
//!
//! **Layer**: the top of the library stack — above `hydra-netsim`;
//! nothing builds on it except its own binaries (and the `hydra-agg`
//! facade, which re-exports the layers below for external use).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod report;
pub mod runner;
pub mod sched;
pub mod sweeps;

pub use report::Table;
pub use runner::{failure_lines, CellResult, ExperimentRunner, RunnerTelemetry};
pub use sweeps::{CacheIndex, CacheStats, ConcurrentCache, SharedCache, MODEL_FINGERPRINT};
