//! Extracting per-run reports from node counters (feeds Tables 3–8) and
//! labeling per-flow results ([`FlowOutcome`]).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use hydra_core::Ledger;
use hydra_sim::{Duration, Instant};

use crate::spec::{FlowSpec, FlowTraffic};
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
    /// (CBR/on-off, over the measurement window), bit/s, as
    /// [`FlowOutcome::new`] derives it.
    pub bps: f64,
    /// When the transfer finished (file transfers only; `None` for
    /// window-measured flows or transfers that missed the deadline).
    pub completed_at: Option<Instant>,
}

impl FlowOutcome {
    /// Builds an outcome for `flow`, deriving `kind` from its traffic and
    /// `bps` from the counts — the one construction path, live and
    /// decoded, so neither can drift from what the run measured. A file
    /// transfer's rate is its file's bits over `completed_at` (0 when it
    /// did not complete, or completed at t = 0); a window flow's is
    /// `bytes`' bits over `window` (0 for a zero window).
    pub fn new(flow: FlowSpec, bytes: u64, completed_at: Option<Instant>, window: Duration) -> FlowOutcome {
        let bps = match (flow.traffic, completed_at) {
            (FlowTraffic::FileTransfer { bytes: file }, Some(at)) if at > Instant::ZERO => {
                file as f64 * 8.0 / at.as_secs_f64()
            }
            (FlowTraffic::FileTransfer { .. }, _) => 0.0,
            _ if window.is_zero() => 0.0,
            _ => bytes as f64 * 8.0 / window.as_secs_f64(),
        };
        FlowOutcome { flow, kind: flow.traffic.kind(), bytes, bps, completed_at }
    }
}

/// Snapshot of one node's MAC/NET statistics: counts, from which the
/// tables' ratios are derived ([`NodeReport::avg_frame_size`],
/// [`NodeReport::size_overhead`], [`hydra_core::Ledger::time_overhead`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Data-frame (aggregate) transmissions, including retries.
    pub tx_data_frames: u64,
    /// RTS / CTS / ACK transmissions.
    pub tx_control: u64,
    /// PSDU bytes sent in data frames.
    pub tx_psdu_bytes: u64,
    /// Average subframes per data frame: `subframes_sent` over
    /// `tx_data_frames`, filled in by [`NodeReport::with_avg_subframes`].
    pub avg_subframes: f64,
    /// Unicast / broadcast subframes sent.
    pub subframes_sent: (u64, u64),
    /// Of `tx_psdu_bytes`, the MAC subframe headers, FCS and padding.
    pub tx_overhead_bytes: u64,
    /// Airtime by category, exact nanoseconds (Table 4 accounting).
    pub ledger: Ledger,
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

// Held once per node of every stored run: a field added here costs a
// warm rerun memory in proportion to the whole store.
const _: () = assert!(core::mem::size_of::<NodeReport>() == 208);

impl NodeReport {
    /// Fills [`NodeReport::avg_subframes`] from the counts: every node
    /// report, live or decoded, is finished by this.
    pub fn with_avg_subframes(self) -> NodeReport {
        let (unicast, broadcast) = self.subframes_sent;
        NodeReport {
            avg_subframes: ratio(u128::from(unicast) + u128::from(broadcast), self.tx_data_frames),
            ..self
        }
    }

    /// Average transmitted data-frame (PSDU) size in bytes, as
    /// [`hydra_core::MacCounters::avg_frame_size`] computes it.
    pub fn avg_frame_size(&self) -> f64 {
        ratio(self.tx_psdu_bytes.into(), self.tx_data_frames)
    }

    /// Size overhead fraction (MAC + PHY header bytes over all data-frame
    /// bytes on air, Tables 3/6) when every data frame carried
    /// `phy_header_bytes` of PHY header: the bits of
    /// [`hydra_core::MacCounters::size_overhead`].
    pub fn size_overhead(&self, phy_header_bytes: u64) -> f64 {
        // In u128, so no stored count can overflow it.
        let phy = u128::from(self.tx_data_frames) * u128::from(phy_header_bytes);
        let total = u128::from(self.tx_psdu_bytes) + phy;
        if total == 0 {
            return 0.0;
        }
        (u128::from(self.tx_overhead_bytes) + phy) as f64 / total as f64
    }
}

/// `sum / n` (0 when `n` is 0); a `sum` that fits a u64 converts to the
/// same `f64` as that u64.
fn ratio(sum: u128, n: u64) -> f64 {
    match n {
        0 => 0.0,
        n => sum as f64 / n as f64,
    }
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
    /// PHY header bytes each data frame carried (one radio profile per
    /// run), the [`NodeReport::size_overhead`] argument.
    pub phy_header_bytes: u64,
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
                    tx_psdu_bytes: c.tx_psdu_bytes,
                    avg_subframes: 0.0,
                    subframes_sent: (c.tx_unicast_subframes, c.tx_broadcast_subframes),
                    tx_overhead_bytes: c.tx_overhead_bytes,
                    ledger: c.time,
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
                .with_avg_subframes()
            })
            .collect();
        RunReport {
            nodes,
            at,
            collisions: world.collisions,
            phy_header_bytes: world.profile.phy_header_bytes as u64,
        }
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

    /// Size overhead fraction at a node (Tables 3/6).
    pub fn size_overhead(&self, node: usize) -> f64 {
        self.nodes[node].size_overhead(self.phy_header_bytes)
    }

    /// Time overhead at a node as a percentage.
    pub fn time_overhead_pct(&self, node: usize) -> f64 {
        self.nodes[node].ledger.time_overhead() * 100.0
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
        let counters: [u64; 25] = std::array::from_fn(|_| counter());
        NodeReport {
            node: counters[0] as usize,
            tx_data_frames: counters[1],
            tx_control: counters[2],
            tx_psdu_bytes: counters[23],
            avg_subframes: arbitrary_f64(rng),
            subframes_sent: (counters[3], counters[4]),
            tx_overhead_bytes: counters[24],
            ledger: Ledger(std::array::from_fn(|i| Duration::from_nanos(counters[16 + i]))),
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

    /// A flow's rate is derived from its counts: a file transfer's file
    /// bits over its completion time, 0 until it completes (or if it
    /// completed at t = 0); a window flow's bytes' bits over the window,
    /// 0 for no window.
    #[test]
    fn a_file_rate_needs_a_completion_and_a_window_rate_a_window() {
        let flow = |traffic| FlowSpec { src: 0, dst: 1, port: 5001, traffic };
        let file = flow(FlowTraffic::FileTransfer { bytes: 100 });
        let cbr = flow(FlowTraffic::Cbr { interval: Duration::from_millis(20), payload: 160 });
        let rate = |flow, bytes, at: Option<u64>, window| {
            FlowOutcome::new(flow, bytes, at.map(Instant::from_nanos), Duration::from_nanos(window)).bps
        };
        // The file's size counts, not the bytes received; the window does not.
        assert_eq!(rate(file, 7, Some(500_000_000), 0), 1600.0);
        assert_eq!(rate(file, 100, None, 1_000_000_000), 0.0);
        assert_eq!(rate(file, 100, Some(0), 1_000_000_000), 0.0);
        // A window flow's completion time does not count.
        assert_eq!(rate(cbr, 1_000_000, None, 8_000_000_000), 1_000_000.0);
        assert_eq!(rate(cbr, 1_000_000, Some(1), 0), 0.0);
        // The extremes stay finite.
        let huge = flow(FlowTraffic::FileTransfer { bytes: usize::MAX });
        assert!(rate(huge, 0, Some(1), 0).is_finite() && rate(cbr, u64::MAX, None, 1).is_finite());
        assert_eq!(FlowOutcome::new(cbr, 1, None, Duration::ZERO).kind, FlowKind::Cbr);
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
