//! Extracting per-run reports from node counters (feeds Tables 3–8) and
//! labeling per-flow results ([`FlowOutcome`]).

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

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

/// A run's per-node reports: an immutable slice shared by every clone.
///
/// A finished report is never edited, so a clone of a [`RunReport`] —
/// a result-store hit, the store's own published copy, a kept pass —
/// shares the node reports instead of copying them. It reads like the
/// `Vec<NodeReport>` it replaces: it derefs to the slice, iterates by
/// reference, compares by content and prints exactly as the `Vec` did,
/// so `{:?}` digests and `==` are unchanged.
#[derive(Clone, Default, PartialEq)]
pub struct NodeReports(Arc<[NodeReport]>);

impl Deref for NodeReports {
    type Target = [NodeReport];

    fn deref(&self) -> &[NodeReport] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a NodeReports {
    type Item = &'a NodeReport;
    type IntoIter = std::slice::Iter<'a, NodeReport>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl From<Vec<NodeReport>> for NodeReports {
    fn from(nodes: Vec<NodeReport>) -> NodeReports {
        NodeReports(nodes.into())
    }
}

impl FromIterator<NodeReport> for NodeReports {
    fn from_iter<I: IntoIterator<Item = NodeReport>>(nodes: I) -> NodeReports {
        NodeReports(nodes.into_iter().collect())
    }
}

impl fmt::Debug for NodeReports {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// A whole-run report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Per-node snapshots, shared between clones.
    pub nodes: NodeReports,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn arbitrary_f64(rng: &mut TestRng) -> f64 {
        match rng.below(4) {
            0 => [f64::NAN, f64::INFINITY, -0.0, 0.0][rng.below(4) as usize],
            1 => rng.unit_f64(),
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    fn arbitrary_node(rng: &mut TestRng) -> NodeReport {
        let mut counter = || match rng.below(3) {
            0 => 0,
            1 => rng.below(100),
            _ => rng.next_u64(),
        };
        let counters: [u64; 16] = std::array::from_fn(|_| counter());
        let ledger = (0..rng.below(4))
            .map(|i| {
                let name = match rng.below(2) {
                    0 => Cow::Borrowed(["difs", "sifs", "a\"b\n"][i as usize % 3]),
                    _ => Cow::Owned(format!("cat{}", rng.below(3))),
                };
                (name, arbitrary_f64(rng))
            })
            .collect();
        NodeReport {
            node: counters[0] as usize,
            tx_data_frames: counters[1],
            tx_control: counters[2],
            avg_frame_size: arbitrary_f64(rng),
            avg_subframes: arbitrary_f64(rng),
            subframes_sent: (counters[3], counters[4]),
            size_overhead: arbitrary_f64(rng),
            time_overhead: arbitrary_f64(rng),
            time_by_category: ledger,
            retries: counters[5],
            retry_drops: counters[6],
            queue_overflow: counters[7],
            acks_classified: counters[8],
            bcast_filtered: counters[9],
            bcast_ok: counters[10],
            bcast_crc_fail: counters[11],
            unicast_ok: counters[12],
            unicast_crc_drops: counters[13],
            collisions_seen: counters[14],
            forwarded: counters[15],
        }
    }

    proptest! {
        /// `NodeReports` prints and compares exactly as the `Vec` it was
        /// built from — the `{:?}` digests and `==` checks that predate
        /// it cannot tell the difference — and its clones share.
        #[test]
        fn node_reports_read_like_the_vec_they_replace(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let a: Vec<NodeReport> = (0..rng.below(4)).map(|_| arbitrary_node(&mut rng)).collect();
            // Equal to `a`, a one-field edit of it, or unrelated.
            let mut b = a.clone();
            match (rng.below(3), b.last_mut()) {
                (0, _) => {}
                (1, Some(last)) => last.forwarded ^= 1 << rng.below(64),
                _ => b = (0..rng.below(4)).map(|_| arbitrary_node(&mut rng)).collect(),
            }
            let (shared_a, shared_b) = (NodeReports::from(a.clone()), b.iter().cloned().collect::<NodeReports>());
            prop_assert_eq!(format!("{shared_a:?}"), format!("{a:?}"));
            prop_assert_eq!(format!("{shared_b:#?}"), format!("{b:#?}"));
            prop_assert_eq!(shared_a == shared_b, a == b);
            // NaN makes a report unequal to itself, in both shapes.
            prop_assert_eq!(shared_a == shared_a.clone(), a == a);
            prop_assert_eq!(shared_a.clone().as_ptr(), shared_a.as_ptr());
            prop_assert_eq!((&shared_a).into_iter().count(), a.len());
        }
    }
}
