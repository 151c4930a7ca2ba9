//! # hydra-netsim — node assembly, topologies, scenarios, metrics
//!
//! Wires the sans-IO layers ([`hydra_core::Mac`], [`hydra_net::NetStack`],
//! [`hydra_tcp::TcpStack`], the apps) to the event queue and the shared
//! [`hydra_phy::Medium`], and describes experiments declaratively:
//!
//! * [`spec::ScenarioSpec`] — one value = one run: topology, policy,
//!   rates, per-flow traffic ([`spec::FlowSpec`] — TCP file transfers,
//!   UDP CBR, and on/off bursts can share one world), warmup/duration,
//!   seed. `build()` yields a ready [`World`], `run()` a
//!   [`spec::RunOutcome`] with labeled [`metrics::FlowOutcome`]s.
//!   [`ScenarioSpec::tcp`] and [`ScenarioSpec::udp`] give the paper's
//!   file-transfer and CBR defaults.
//!
//! Every run is deterministic in its spec + seed — on any thread, in
//! any order.
//!
//! **Layer**: the integration point — above every protocol crate
//! (`hydra-core`, `hydra-net`, `hydra-tcp`, `hydra-app`, `hydra-phy`);
//! below `hydra-bench`, whose experiment grids, `.scn` sweep files
//! ([`scn`]) and result cache are all phrased in terms of
//! [`spec::ScenarioSpec`] and [`spec::RunOutcome`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod node;
pub mod scn;
pub mod spec;
pub mod topology;
pub mod world;

pub use hydra_core::Policy;
pub use metrics::{mbps, FlowKind, FlowOutcome, NodeReport, NodeReports, RunReport};
pub use node::{Apps, Node};
pub use scn::{
    check_seeds, check_threads, parse_scn, parse_scn_file, Column, Metric, RowKey, ScnError, Selector,
    SweepFile, SweepMeta, TableLayout, MAX_SEEDS, MAX_THREADS,
};
pub use spec::{
    panic_message, Flooding, FlowSpec, FlowTraffic, LinkErrorSpec, RunBudget, RunError, RunOutcome, RunPerf,
    ScenarioSpec, TopologyKind,
};
pub use topology::Topology;
pub use world::{MediumKind, World};
