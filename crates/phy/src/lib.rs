//! # hydra-phy — the Hydra 802.11n-like PHY model
//!
//! Models the physical layer of the paper's Hydra prototype (Table 1):
//!
//! * [`rates`] — the 0.65–6.5 Mbps MCS ladder (802.11n ÷ 10);
//! * [`profile`] — timing/sampling constants calibrated against the
//!   paper's own numbers (see DESIGN.md §6);
//! * [`frame`] — on-air frames and airtime breakdowns;
//! * [`ber`] — AWGN BER math (Q-function, M-QAM approximations);
//! * [`channel`] — composable channel models: AWGN, channel-estimate
//!   coherence staleness (the 120 Ksample cliff of paper §6.1), fault
//!   injection;
//! * [`link_error`] — per-link residual error: independent or bursty
//!   (two-state Gilbert–Elliott), on deterministic per-link RNG streams;
//! * [`medium`] — the broadcast medium with carrier-sense edges,
//!   half-duplex constraints, and collision tracking; fully connected
//!   (the paper's bench) or range-limited per directed link;
//! * [`placement`] — node coordinates and the log-distance link budget
//!   that classifies each link into sense/delivery range.
//!
//! **Layer**: above `hydra-sim` (durations) and `hydra-wire` (frame
//! sizes); below `hydra-core`, whose MAC consumes the rates, airtime
//! and channel verdicts, and `hydra-netsim`, which owns the `Medium`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod channel;
pub mod frame;
pub mod link_error;
pub mod medium;
pub mod placement;
pub mod profile;
pub mod rates;

pub use channel::{
    apply_channel, AwgnChannel, ChannelModel, ChannelStack, CoherenceChannel, FaultInjector, IdealChannel,
    SubframeCtx,
};
pub use frame::{Airtime, OnAirControl, OnAirFrame};
pub use link_error::{link_stream, LinkErrorModel, LinkErrorPass, LinkErrorState, LINK_ERROR_STREAM};
pub use medium::{BusyEdge, Delivery, Medium, TxId};
pub use placement::{GridIndex, Link, LinkBudget, Placement};
pub use profile::PhyProfile;
pub use rates::{CodeRate, Modulation, Rate};
