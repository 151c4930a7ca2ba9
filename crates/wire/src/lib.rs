//! # hydra-wire — wire formats for the Hydra aggregation system
//!
//! Typed, bounds-checked views over byte buffers (the smoltcp idiom) for
//! every format the system puts on the air or routes:
//!
//! * [`subframe`] — the MAC subframe of paper Figure 4 (26 B header, FCS,
//!   padding, 160 B minimum on-air size);
//! * [`phy_hdr`] — the dual-rate PHY header of paper Figure 2;
//! * [`aggregate`] — aggregate PSDU assembly/parsing (broadcast portion
//!   first, then unicast — paper Figures 1 & 2);
//! * [`control`] — RTS/CTS/ACK control frames at standard 802.11 sizes;
//! * [`encap`] — the 37 B Hydra/Click shim;
//! * [`ipv4`], [`tcp`], [`udp`] — network/transport headers with real
//!   checksums;
//! * [`builder`] — whole-stack packet construction/dissection and the
//!   wire-level **pure TCP ACK classifier** (paper §4.2.4);
//! * [`crc`] / [`checksum`] — CRC-32 FCS and the Internet checksum;
//! * [`payload`] — the shared, cheap-clone byte buffer ([`Payload`])
//!   the hot path threads through the MAC, PHY, and event loop.
//!
//! Everything is dependency-free, deterministic, and panic-free on
//! malformed input: frames coming off the simulated channel are parsed
//! exactly like frames off a real radio.
//!
//! **Layer**: dependency-free, beside `hydra-sim` at the bottom of the
//! stack. Above it, `hydra-phy` puts these bytes on the air and
//! `hydra-core`/`hydra-net`/`hydra-tcp` build and dissect them.

// `deny`, not `forbid`: `crc` carries the crate's one
// `#[allow(unsafe_code)]` — the CPU-feature-guarded call into the
// carry-less-multiply FCS routine. Everything else stays unsafe-free
// (CI's unsafe inventory pins the list of sites).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod aggregate;
pub mod builder;
pub mod checksum;
pub mod control;
pub mod crc;
pub mod encap;
pub mod error;
pub mod ipv4;
pub mod payload;
pub mod phy_hdr;
pub mod subframe;
pub mod tcp;
pub mod udp;

pub use addr::{Endpoint, Ipv4Addr, MacAddr};
pub use aggregate::{
    parse_aggregate, parse_aggregate_trusted, AggregateBuilder, ParsedSubframe, Portion, SubframeSlot,
};
pub use builder::{
    build_raw_packet, build_tcp_packet, build_udp_packet, is_pure_tcp_ack, parse_mpdu_payload, ParsedMpdu, L4,
};
pub use control::ControlFrame;
pub use encap::{EncapProto, EncapRepr};
pub use error::WireError;
pub use ipv4::{IpProtocol, Ipv4Packet, Ipv4Repr};
pub use payload::Payload;
pub use phy_hdr::{PhyHeader, RateCode, PHY_HDR_LEN};
pub use subframe::{FrameType, Subframe, SubframeRepr};
pub use tcp::{TcpFlags, TcpRepr};
pub use udp::UdpRepr;
