//! Aggregate assembly — the paper's transmit process (§4.2.3).
//!
//! When the DCF wins a transmit opportunity, the assembler:
//!
//! 1. drains the **broadcast queue** (true broadcasts + classified TCP
//!    ACKs) into the front of the frame — broadcasts ride close to the
//!    training sequences where the channel estimate is freshest;
//! 2. gathers **unicast** frames for the destination of the head of the
//!    unicast queue, preserving queue order for other destinations;
//! 3. stops at the configured aggregate size cap (fixed bytes, or the
//!    rate-adaptive coherence budget extension) and subframe-count caps.
//!
//! On retransmissions the stored unicast burst is re-emitted with the
//! retry flag while *fresh* broadcast frames may still join the frame
//! (broadcast subframes are never retransmitted — they were already
//! delivered or lost, and carry no link-level ACK).

use hydra_phy::{OnAirFrame, PhyProfile, Rate};
use hydra_wire::aggregate::AggregateBuilder;
use hydra_wire::subframe::{FrameType, SubframeRepr, MIN_SUBFRAME};
use hydra_wire::MacAddr;

use crate::config::{AggSizing, MacConfig};
use crate::queues::{QueuedMpdu, TxQueues};

/// A frame ready to transmit, with everything the MAC needs for
/// acknowledgement handling, retries, and accounting.
#[derive(Debug)]
pub struct AssembledFrame {
    /// The on-air frame (PHY header + PSDU + subframe slots).
    pub on_air: OnAirFrame,
    /// Destination of the unicast portion (None = broadcast-only frame).
    pub ucast_dest: Option<MacAddr>,
    /// The unicast burst, retained for retransmission.
    pub ucast_burst: Vec<QueuedMpdu>,
    /// Number of broadcast subframes included.
    pub bcast_count: usize,
    /// Sum of MPDU payload bytes (all portions) — accounting.
    pub payload_bytes: usize,
    /// Sum of per-subframe header + FCS + padding bytes — accounting.
    pub overhead_bytes: usize,
    /// True if this is a retransmission of a stored burst.
    pub is_retry: bool,
}

impl AssembledFrame {
    /// True if the frame expects a link-level ACK.
    pub fn expects_ack(&self) -> bool {
        self.ucast_dest.is_some()
    }
}

/// Tracks the size budget while assembling.
struct Budget<'a> {
    sizing: AggSizing,
    profile: &'a PhyProfile,
    used_bytes: usize,
    used_samples: u64,
}

impl<'a> Budget<'a> {
    fn new(cfg: &MacConfig, profile: &'a PhyProfile) -> Self {
        let mut b = Budget { sizing: cfg.agg.sizing, profile, used_bytes: 0, used_samples: 0 };
        // The PHY header consumes part of the coherence budget.
        b.used_samples = profile.samples_for(profile.phy_header_bytes, profile.base_rate);
        b
    }

    /// True if a subframe of `on_air_bytes` at `rate` still fits.
    /// The first subframe always fits (a lone MPDU must be sendable even
    /// if it exceeds the cap — matching 802.11, which never fragments
    /// because of aggregation limits).
    fn fits(&self, on_air_bytes: usize, rate: Rate, is_first: bool) -> bool {
        if is_first {
            return true;
        }
        match self.sizing {
            AggSizing::Fixed(max) => self.used_bytes + on_air_bytes <= max,
            AggSizing::CoherenceBudget(max_samples) => {
                self.used_samples + self.profile.samples_for(on_air_bytes, rate) <= max_samples
            }
        }
    }

    fn consume(&mut self, on_air_bytes: usize, rate: Rate) {
        self.used_bytes += on_air_bytes;
        // Sample accounting is only consulted by the coherence-budget
        // sizing; skip the per-subframe division under the (common)
        // fixed-byte cap.
        if matches!(self.sizing, AggSizing::CoherenceBudget(_)) {
            self.used_samples += self.profile.samples_for(on_air_bytes, rate);
        }
    }
}

fn subframe_repr(mpdu: &QueuedMpdu, self_addr: MacAddr, duration_us: u16, retry: bool) -> SubframeRepr {
    SubframeRepr {
        frame_type: FrameType::Data,
        retry,
        no_ack: mpdu.no_ack,
        duration_us,
        addr1: mpdu.next_hop,
        addr2: self_addr,
        addr3: mpdu.src,
    }
}

/// Assembles the next frame from the queues (or re-assembles a retry
/// burst). Returns `None` if there is nothing to send.
///
/// `nav_duration_us` is stamped into every subframe (the paper keeps the
/// duration field in all subframes "for easy prototyping"; only the first
/// unicast subframe's value is used by receivers).
pub fn assemble(
    queues: &mut TxQueues,
    cfg: &MacConfig,
    profile: &PhyProfile,
    self_addr: MacAddr,
    nav_duration_us: u16,
    retry_burst: Option<Vec<QueuedMpdu>>,
) -> Option<AssembledFrame> {
    let is_retry = retry_burst.is_some();
    let mut budget = Budget::new(cfg, profile);
    let bcast_rate = cfg.effective_broadcast_rate();
    let ucast_rate = cfg.data_rate;
    // Size the PSDU buffer to the aggregate cap up front (inverting
    // `samples_for` at the data rate for the coherence budget) — one
    // reservation instead of doubling through reallocations per frame.
    let psdu_hint = match cfg.agg.sizing {
        AggSizing::Fixed(max) => max,
        AggSizing::CoherenceBudget(samples) => {
            (samples.saturating_mul(ucast_rate.bits_per_sec()) / (profile.sample_rate.max(1) * 8)) as usize
        }
    };
    // A frame holds no more subframes than are waiting (or being retried),
    // than the policy allows, or than fit under the size cap at the
    // minimum subframe size: size the slot list and the burst once.
    let by_size = psdu_hint / MIN_SUBFRAME + 1;
    let max_bcast = cfg.agg.max_broadcast_subframes.min(queues.bcast_len()).min(by_size);
    let max_ucast = match &retry_burst {
        Some(burst) => burst.len(),
        None => cfg.agg.max_unicast_subframes.min(queues.ucast_len()).min(by_size),
    };
    let mut builder = AggregateBuilder::with_capacity(psdu_hint, max_bcast + max_ucast);
    let mut payload_bytes = 0usize;
    let mut overhead_bytes = 0usize;
    let mut bcast_count = 0usize;

    // Retry bursts are placed first into the budget: the unicast portion
    // is what the receiver is waiting for.
    let mut ucast_burst: Vec<QueuedMpdu> = Vec::new();
    if let Some(burst) = retry_burst {
        for mpdu in &burst {
            let on_air = SubframeRepr::on_air_len(mpdu.payload.len());
            budget.consume(on_air, ucast_rate);
            payload_bytes += mpdu.payload.len();
            overhead_bytes += on_air - mpdu.payload.len();
        }
        ucast_burst = burst;
    }

    // Broadcast portion.
    if cfg.agg.broadcast_aggregation {
        while bcast_count < cfg.agg.max_broadcast_subframes {
            let Some(head) = queues.peek_bcast() else { break };
            let on_air = SubframeRepr::on_air_len(head.payload.len());
            let is_first = bcast_count == 0 && ucast_burst.is_empty();
            if !budget.fits(on_air, bcast_rate, is_first) {
                break;
            }
            let mpdu = queues.pop_bcast().expect("peeked");
            budget.consume(on_air, bcast_rate);
            payload_bytes += mpdu.payload.len();
            overhead_bytes += on_air - mpdu.payload.len();
            let repr = subframe_repr(&mpdu, self_addr, nav_duration_us, false);
            builder.push_broadcast(&repr, &mpdu.payload);
            bcast_count += 1;
        }
    } else if !is_retry && queues.bcast_len() > 0 {
        // Without broadcast aggregation, a queued broadcast is sent alone
        // (the standard 802.11 behaviour): one subframe, no unicast mixing.
        let mpdu = queues.pop_bcast().expect("nonempty");
        let on_air = SubframeRepr::on_air_len(mpdu.payload.len());
        payload_bytes += mpdu.payload.len();
        overhead_bytes += on_air - mpdu.payload.len();
        let repr = subframe_repr(&mpdu, self_addr, nav_duration_us, false);
        builder.push_broadcast(&repr, &mpdu.payload);
        let (phy_hdr, psdu, slots) = builder.finish(bcast_rate.code(), ucast_rate.code());
        return Some(AssembledFrame {
            on_air: OnAirFrame::aggregate(phy_hdr, psdu, slots),
            ucast_dest: None,
            ucast_burst: Vec::new(),
            bcast_count: 1,
            payload_bytes,
            overhead_bytes,
            is_retry: false,
        });
    }

    // Unicast portion: gather for the head destination.
    if !is_retry {
        if let Some(dest) = queues.head_unicast_dest() {
            ucast_burst.reserve_exact(max_ucast);
            while ucast_burst.len() < cfg.agg.max_unicast_subframes {
                // Peek the next frame for this destination.
                let Some(mpdu) = queues.take_unicast_for(dest) else { break };
                let on_air = SubframeRepr::on_air_len(mpdu.payload.len());
                let is_first = bcast_count == 0 && ucast_burst.is_empty();
                if !budget.fits(on_air, ucast_rate, is_first) {
                    // Put it back at the front and stop.
                    queues.unshift_unicast([mpdu]);
                    break;
                }
                budget.consume(on_air, ucast_rate);
                payload_bytes += mpdu.payload.len();
                overhead_bytes += on_air - mpdu.payload.len();
                ucast_burst.push(mpdu);
            }
        }
    }

    // Emit unicast subframes (retries re-emit with the retry flag).
    for mpdu in &ucast_burst {
        let repr = subframe_repr(mpdu, self_addr, nav_duration_us, is_retry);
        builder.push_unicast(&repr, &mpdu.payload);
    }

    if builder.is_empty() {
        return None;
    }

    let ucast_dest = ucast_burst.first().map(|m| m.next_hop);
    let (phy_hdr, psdu, slots) = builder.finish(bcast_rate.code(), ucast_rate.code());
    Some(AssembledFrame {
        on_air: OnAirFrame::aggregate(phy_hdr, psdu, slots),
        ucast_dest,
        ucast_burst,
        bcast_count,
        payload_bytes,
        overhead_bytes,
        is_retry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AggPolicy;
    use crate::queues::QueueKind;
    use hydra_sim::Instant;

    fn mpdu(dst: u16, len: usize, no_ack: bool) -> QueuedMpdu {
        QueuedMpdu {
            next_hop: MacAddr::from_node_id(dst),
            src: MacAddr::from_node_id(0),
            payload: vec![0xAB; len].into(),
            no_ack,
            enqueued_at: Instant::ZERO,
        }
    }

    fn setup(policy: AggPolicy) -> (TxQueues, MacConfig, PhyProfile) {
        let mut cfg = MacConfig::hydra(Rate::R2_60);
        cfg.agg = policy;
        (TxQueues::new(100), cfg, PhyProfile::hydra())
    }

    fn me() -> MacAddr {
        MacAddr::from_node_id(9)
    }

    #[test]
    fn na_sends_one_subframe() {
        let (mut q, cfg, p) = setup(AggPolicy::no_aggregation());
        for _ in 0..4 {
            q.push(mpdu(1, 1434, false), QueueKind::Unicast);
        }
        let f = assemble(&mut q, &cfg, &p, me(), 100, None).unwrap();
        assert_eq!(f.ucast_burst.len(), 1);
        assert_eq!(f.bcast_count, 0);
        assert_eq!(q.ucast_len(), 3);
        assert!(f.expects_ack());
    }

    #[test]
    fn ua_fills_to_paper_cap() {
        let (mut q, cfg, p) = setup(AggPolicy::unicast());
        for _ in 0..5 {
            q.push(mpdu(1, 1434, false), QueueKind::Unicast); // 1464 B each on air
        }
        let f = assemble(&mut q, &cfg, &p, me(), 100, None).unwrap();
        // 3 x 1464 = 4392 <= 5120; a 4th would exceed the 5 KB cap.
        assert_eq!(f.ucast_burst.len(), 3);
        assert_eq!(q.ucast_len(), 2);
        let OnAirFrame::Aggregate { phy_hdr, psdu, slots } = &f.on_air else { panic!() };
        assert_eq!(phy_hdr.ucast_len, 4392);
        assert_eq!(psdu.len(), 4392);
        assert_eq!(slots.len(), 3);
    }

    #[test]
    fn ua_gathers_only_same_destination() {
        let (mut q, cfg, p) = setup(AggPolicy::unicast());
        q.push(mpdu(1, 500, false), QueueKind::Unicast);
        q.push(mpdu(2, 500, false), QueueKind::Unicast);
        q.push(mpdu(1, 500, false), QueueKind::Unicast);
        let f = assemble(&mut q, &cfg, &p, me(), 100, None).unwrap();
        assert_eq!(f.ucast_burst.len(), 2);
        assert_eq!(f.ucast_dest, Some(MacAddr::from_node_id(1)));
        // The frame to 2 is now at the head.
        assert_eq!(q.head_unicast_dest(), Some(MacAddr::from_node_id(2)));
    }

    #[test]
    fn ba_prepends_broadcasts() {
        let (mut q, cfg, p) = setup(AggPolicy::broadcast());
        q.push(mpdu(3, 77, true), QueueKind::Broadcast); // classified ACK
        q.push(mpdu(3, 77, true), QueueKind::Broadcast);
        q.push(mpdu(1, 1434, false), QueueKind::Unicast);
        let f = assemble(&mut q, &cfg, &p, me(), 100, None).unwrap();
        assert_eq!(f.bcast_count, 2);
        assert_eq!(f.ucast_burst.len(), 1);
        let OnAirFrame::Aggregate { phy_hdr, slots, .. } = &f.on_air else { panic!() };
        assert_eq!(phy_hdr.bcast_len, 320);
        assert_eq!(phy_hdr.ucast_len, 1464);
        // Broadcasts first.
        assert_eq!(slots[0].portion, hydra_wire::Portion::Broadcast);
        assert_eq!(slots[2].portion, hydra_wire::Portion::Unicast);
    }

    #[test]
    fn ba_broadcast_only_frame_when_no_unicast() {
        let (mut q, cfg, p) = setup(AggPolicy::broadcast());
        q.push(mpdu(3, 77, true), QueueKind::Broadcast);
        q.push(mpdu(3, 77, true), QueueKind::Broadcast);
        let f = assemble(&mut q, &cfg, &p, me(), 0, None).unwrap();
        assert_eq!(f.bcast_count, 2);
        assert!(f.ucast_burst.is_empty());
        assert!(!f.expects_ack());
    }

    #[test]
    fn non_ba_sends_broadcast_alone() {
        let (mut q, cfg, p) = setup(AggPolicy::unicast());
        q.push(mpdu(0xFFFF, 100, true), QueueKind::Broadcast);
        q.push(mpdu(1, 1434, false), QueueKind::Unicast);
        let f = assemble(&mut q, &cfg, &p, me(), 0, None).unwrap();
        // Broadcast goes out alone, unicast stays queued.
        assert_eq!(f.bcast_count, 1);
        assert!(f.ucast_burst.is_empty());
        assert_eq!(q.ucast_len(), 1);
        // Next call sends the unicast.
        let f2 = assemble(&mut q, &cfg, &p, me(), 0, None).unwrap();
        assert_eq!(f2.ucast_burst.len(), 1);
    }

    #[test]
    fn no_forward_mode_caps_at_one_each() {
        let (mut q, cfg, p) = setup(AggPolicy::broadcast_no_forward());
        for _ in 0..3 {
            q.push(mpdu(3, 77, true), QueueKind::Broadcast);
            q.push(mpdu(1, 1434, false), QueueKind::Unicast);
        }
        let f = assemble(&mut q, &cfg, &p, me(), 100, None).unwrap();
        assert_eq!(f.bcast_count, 1);
        assert_eq!(f.ucast_burst.len(), 1);
    }

    #[test]
    fn oversized_single_frame_still_sent() {
        let (mut q, mut cfg, p) = setup(AggPolicy::unicast());
        cfg.agg.sizing = AggSizing::Fixed(1000);
        q.push(mpdu(1, 1434, false), QueueKind::Unicast);
        let f = assemble(&mut q, &cfg, &p, me(), 0, None).unwrap();
        assert_eq!(f.ucast_burst.len(), 1);
    }

    #[test]
    fn retry_reuses_burst_and_sets_flag() {
        let (mut q, cfg, p) = setup(AggPolicy::broadcast());
        q.push(mpdu(1, 1434, false), QueueKind::Unicast);
        let first = assemble(&mut q, &cfg, &p, me(), 100, None).unwrap();
        assert!(!first.is_retry);
        let burst = first.ucast_burst;
        // New broadcast arrives before the retry.
        q.push(mpdu(3, 77, true), QueueKind::Broadcast);
        let retry = assemble(&mut q, &cfg, &p, me(), 100, Some(burst)).unwrap();
        assert!(retry.is_retry);
        assert_eq!(retry.ucast_burst.len(), 1);
        assert_eq!(retry.bcast_count, 1, "fresh broadcasts join the retry");
        let OnAirFrame::Aggregate { phy_hdr, psdu, slots } = &retry.on_air else { panic!() };
        // The unicast subframe carries the retry flag.
        let parsed = hydra_wire::parse_aggregate(phy_hdr, psdu);
        let ucast = parsed.iter().find(|s| s.portion == hydra_wire::Portion::Unicast).unwrap();
        assert!(ucast.view().is_retry());
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn coherence_budget_sizing_caps_by_samples() {
        let (mut q, mut cfg, p) = setup(AggPolicy::unicast());
        // Budget of 40 Ksamples at 0.65 Mbps ≈ 1625 bytes: fits one 1464 B
        // subframe but not two.
        cfg.data_rate = Rate::R0_65;
        cfg.agg.sizing = AggSizing::CoherenceBudget(40_000);
        for _ in 0..3 {
            q.push(mpdu(1, 1434, false), QueueKind::Unicast);
        }
        let f = assemble(&mut q, &cfg, &p, me(), 0, None).unwrap();
        assert_eq!(f.ucast_burst.len(), 1);
        // Same budget at 2.6 Mbps fits 3+ subframes (4x fewer samples/byte).
        cfg.data_rate = Rate::R2_60;
        let f = assemble(&mut q, &cfg, &p, me(), 0, None).unwrap();
        assert_eq!(f.ucast_burst.len(), 2, "remaining two fit at the faster rate");
    }

    #[test]
    fn empty_queues_yield_none() {
        let (mut q, cfg, p) = setup(AggPolicy::broadcast());
        assert!(assemble(&mut q, &cfg, &p, me(), 0, None).is_none());
    }

    #[test]
    fn accounting_fields_consistent() {
        let (mut q, cfg, p) = setup(AggPolicy::broadcast());
        q.push(mpdu(3, 77, true), QueueKind::Broadcast);
        q.push(mpdu(1, 1434, false), QueueKind::Unicast);
        let f = assemble(&mut q, &cfg, &p, me(), 100, None).unwrap();
        assert_eq!(f.payload_bytes, 77 + 1434);
        // Overhead: (160 - 77) + (1464 - 1434).
        assert_eq!(f.overhead_bytes, 83 + 30);
        let OnAirFrame::Aggregate { psdu, .. } = &f.on_air else { panic!() };
        assert_eq!(psdu.len(), f.payload_bytes + f.overhead_bytes);
    }
}
