//! Extracting per-run reports from node counters (feeds Tables 3–8) and
//! labeling per-flow results ([`FlowOutcome`]).

use std::borrow::Cow;

use hydra_sim::{Duration, Instant};

use crate::spec::FlowSpec;
use crate::world::World;

/// What kind of traffic a flow carried (the label on a
/// [`FlowOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// A TCP file transfer (completion-driven).
    FileTransfer,
    /// UDP constant-bit-rate (window-measured).
    Cbr,
    /// UDP on/off bursts (window-measured).
    OnOff,
}

impl FlowKind {
    /// Short text label (`tcp` / `cbr` / `onoff`), matching the flow
    /// traffic tokens of the `.scn` format.
    pub fn label(&self) -> &'static str {
        match self {
            FlowKind::FileTransfer => "tcp",
            FlowKind::Cbr => "cbr",
            FlowKind::OnOff => "onoff",
        }
    }
}

/// One flow's measured result, labeled with the flow it belongs to.
///
/// Replaces the bare per-flow `Vec<f64>` of earlier revisions: with
/// heterogeneous traffic in one world, a number without its flow (and
/// kind) is ambiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// The flow this outcome measures (endpoints + traffic).
    pub flow: FlowSpec,
    /// Traffic kind label.
    pub kind: FlowKind,
    /// Application bytes delivered: total received for a file
    /// transfer, window bytes for CBR/on-off.
    pub bytes: u64,
    /// Throughput (file transfer, from t=0 to completion) or goodput
    /// (CBR/on-off, over the measurement window), bit/s.
    pub bps: f64,
    /// When the transfer finished (file transfers only; `None` for
    /// window-measured flows or transfers that missed the deadline).
    pub completed_at: Option<Instant>,
}

impl FlowOutcome {
    /// Builds an outcome for `flow`, deriving `kind` from its traffic —
    /// the one construction path, so the `kind == flow.traffic.kind()`
    /// invariant (which `PartialEq`, and therefore the result cache,
    /// relies on) cannot drift.
    pub fn new(flow: FlowSpec, bytes: u64, bps: f64, completed_at: Option<Instant>) -> FlowOutcome {
        FlowOutcome { flow, kind: flow.traffic.kind(), bytes, bps, completed_at }
    }
}

/// Snapshot of one node's MAC/NET statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Data-frame (aggregate) transmissions, including retries.
    pub tx_data_frames: u64,
    /// RTS / CTS / ACK transmissions.
    pub tx_control: u64,
    /// Average transmitted data-frame (PSDU) size in bytes.
    pub avg_frame_size: f64,
    /// Average subframes per data frame.
    pub avg_subframes: f64,
    /// Unicast / broadcast subframes sent.
    pub subframes_sent: (u64, u64),
    /// Size overhead fraction (MAC+PHY header bytes / total on air).
    pub size_overhead: f64,
    /// Time overhead fraction (Table 4 accounting).
    pub time_overhead: f64,
    /// Time by category, seconds. A name is the MAC's `&'static str`
    /// (`hydra_core::counters::cat`) when collected from a live world
    /// or decoded from the result cache; only a name outside
    /// `cat::ALL`, read back from a cache record, is owned.
    pub time_by_category: Vec<(Cow<'static, str>, f64)>,
    /// Burst retransmissions.
    pub retries: u64,
    /// Bursts dropped at the retry limit.
    pub retry_drops: u64,
    /// Queue overflow drops.
    pub queue_overflow: u64,
    /// Pure TCP ACKs classified as broadcast.
    pub acks_classified: u64,
    /// Broadcast subframes decode-and-dropped (not addressed here).
    pub bcast_filtered: u64,
    /// Broadcast subframes accepted.
    pub bcast_ok: u64,
    /// Broadcast subframes lost to CRC failures.
    pub bcast_crc_fail: u64,
    /// Unicast portions received intact.
    pub unicast_ok: u64,
    /// Unicast portions discarded by the all-or-nothing CRC rule.
    pub unicast_crc_drops: u64,
    /// Receptions lost to collisions at this node.
    pub collisions_seen: u64,
    /// Packets forwarded by the network layer.
    pub forwarded: u64,
}

/// A whole-run report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Per-node snapshots.
    pub nodes: Vec<NodeReport>,
    /// Virtual time at collection.
    pub at: Instant,
    /// Total collided receptions.
    pub collisions: u64,
}

impl RunReport {
    /// Collects from a world.
    pub fn collect(world: &World, at: Instant) -> RunReport {
        let nodes = world
            .nodes
            .iter()
            .map(|n| {
                let c = &n.mac.counters;
                NodeReport {
                    node: n.id,
                    tx_data_frames: c.tx_data_frames,
                    tx_control: c.tx_rts + c.tx_cts + c.tx_acks,
                    avg_frame_size: c.avg_frame_size(),
                    avg_subframes: c.subframes_per_frame.mean(),
                    subframes_sent: (c.tx_unicast_subframes, c.tx_broadcast_subframes),
                    size_overhead: c.size_overhead(),
                    time_overhead: c.time_overhead(),
                    time_by_category: c
                        .time
                        .iter()
                        .map(|(k, d)| (Cow::Borrowed(k), d.as_secs_f64()))
                        .collect(),
                    retries: c.retries,
                    retry_drops: c.retry_drops,
                    queue_overflow: n.mac.queues().overflow_drops,
                    acks_classified: n.mac.classifier_stats().acks_classified,
                    bcast_filtered: c.rx_broadcast_filtered,
                    bcast_ok: c.rx_broadcast_ok,
                    bcast_crc_fail: c.rx_broadcast_crc_fail,
                    unicast_ok: c.rx_unicast_ok,
                    unicast_crc_drops: c.rx_unicast_crc_drop,
                    collisions_seen: n.collisions_seen,
                    forwarded: n.net.counters.forwarded,
                }
            })
            .collect();
        RunReport { nodes, at, collisions: world.collisions }
    }

    /// Total data-frame transmissions across all nodes (Table 3's "Total
    /// TXs" numerator).
    pub fn total_data_txs(&self) -> u64 {
        self.nodes.iter().map(|n| n.tx_data_frames).sum()
    }

    /// The relay node's report for a linear chain (node 1).
    pub fn relay(&self) -> &NodeReport {
        &self.nodes[1]
    }

    /// Time overhead at a node as a percentage.
    pub fn time_overhead_pct(&self, node: usize) -> f64 {
        self.nodes[node].time_overhead * 100.0
    }
}

/// Convenience: bits/s → Mbps for display.
pub fn mbps(bps: f64) -> f64 {
    bps / 1e6
}

/// Convenience: a duration as milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
