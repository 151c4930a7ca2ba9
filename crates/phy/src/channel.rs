//! Channel models: who gets corrupted, and why.
//!
//! A [`ChannelModel`] makes per-subframe corruption decisions for each
//! reception. Models compose with [`ChannelStack`]; the standard Hydra
//! channel is AWGN (SNR/BER driven) + coherence staleness (the paper's
//! 120 Ksample aggregate-size cliff). A smoltcp-style [`FaultInjector`]
//! is available for robustness testing.
//!
//! Corruption is applied to the *actual frame bytes* — a corrupted
//! subframe really fails its CRC at the receiver, exercising the same
//! code path a real radio would.

use hydra_sim::Rng;
use hydra_wire::aggregate::{Portion, SubframeSlot};
use hydra_wire::subframe::HEADER_LEN;

use crate::ber::{block_error_prob, coded_ber};
use crate::frame::OnAirFrame;
use crate::profile::PhyProfile;
use crate::rates::Rate;

/// Context for one subframe's corruption decision.
#[derive(Debug, Clone, Copy)]
pub struct SubframeCtx {
    /// First sample of this subframe within the PSDU (after preamble).
    pub start_sample: u64,
    /// One past the last sample.
    pub end_sample: u64,
    /// The rate this subframe is modulated at.
    pub rate: Rate,
    /// On-air bytes of the subframe (header + payload + FCS + pad).
    pub bytes: usize,
    /// Link SNR in dB (after implementation loss).
    pub snr_db: f64,
}

/// A channel model: decides corruption per subframe and drop per frame.
pub trait ChannelModel {
    /// True if this subframe should be corrupted.
    fn subframe_corrupt(&mut self, ctx: &SubframeCtx, rng: &mut Rng) -> bool;

    /// True if the entire frame should vanish (e.g. fault injection or
    /// preamble loss). Default: never.
    fn frame_dropped(&mut self, _rng: &mut Rng) -> bool {
        false
    }
}

/// A perfect channel. Useful for protocol-logic tests.
#[derive(Debug, Clone, Default)]
pub struct IdealChannel;

impl ChannelModel for IdealChannel {
    fn subframe_corrupt(&mut self, _ctx: &SubframeCtx, _rng: &mut Rng) -> bool {
        false
    }
}

/// AWGN channel: per-subframe error probability from the BER model.
///
/// The error probability is a pure function of `(rate, bytes, snr_db)`,
/// and in any one world those inputs repeat endlessly (link SNRs are
/// fixed by the geometry, subframe sizes by the traffic mix), while the
/// BER math costs several `exp`/`ln`/`pow` calls. A small memo table
/// caches the computed probability per distinct input; the cached value
/// is the bit-identical `f64`, so corruption draws — and therefore run
/// results — are unchanged.
#[derive(Debug, Clone, Default)]
pub struct AwgnChannel {
    /// Last `(key, probability)` served — consecutive subframes almost
    /// always share rate, size, and link SNR, so this answers most
    /// lookups without touching the map.
    last: Option<((u8, u32, u64), f64)>,
    /// `(rate code, bytes, snr_db bits) → block error probability`.
    memo: std::collections::HashMap<(u8, u32, u64), f64, BuildSubframeKeyHasher>,
}

impl ChannelModel for AwgnChannel {
    fn subframe_corrupt(&mut self, ctx: &SubframeCtx, rng: &mut Rng) -> bool {
        let key = (ctx.rate.code().0, ctx.bytes as u32, ctx.snr_db.to_bits());
        let p = match self.last {
            Some((k, p)) if k == key => p,
            _ => {
                let p = match self.memo.get(&key) {
                    Some(&p) => p,
                    None => {
                        let ber = coded_ber(ctx.rate, ctx.snr_db);
                        let p = block_error_prob(ber, ctx.bytes as u64 * 8);
                        self.memo.insert(key, p);
                        p
                    }
                };
                self.last = Some((key, p));
                p
            }
        };
        rng.chance(p)
    }
}

/// Multiply-xor hasher for the AWGN memo key — the default SipHash costs
/// more than the table lookup it guards. Collisions only cost a probe
/// (the map still compares full keys), never correctness.
#[derive(Debug, Clone, Default)]
struct SubframeKeyHasher(u64);

type BuildSubframeKeyHasher = std::hash::BuildHasherDefault<SubframeKeyHasher>;

impl std::hash::Hasher for SubframeKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3); // FNV-1a
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // Finalizing xor-shift spreads the entropy into the low bits
        // hashbrown uses for bucket selection.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h
    }
}

/// Channel-estimate staleness (paper §6.1).
///
/// The preamble's channel estimate ages as the frame plays out; subframes
/// whose tail lands beyond the coherence budget see a corruption
/// probability ramping from 0 to 1 over `ramp` samples. This produces
/// the paper's Figure 7 behaviour: throughput climbs with aggregation
/// size, then collapses once aggregates outgrow ~120 Ksamples.
#[derive(Debug, Clone)]
pub struct CoherenceChannel {
    /// Samples of "safe" budget.
    pub threshold: u64,
    /// Ramp width in samples.
    pub ramp: u64,
}

impl CoherenceChannel {
    /// Builds from a PHY profile.
    pub fn from_profile(p: &PhyProfile) -> Self {
        CoherenceChannel { threshold: p.coherence_samples, ramp: p.coherence_ramp.max(1) }
    }

    /// Corruption probability for a subframe ending at `end_sample`.
    pub fn corruption_prob(&self, end_sample: u64) -> f64 {
        if end_sample <= self.threshold {
            0.0
        } else {
            (((end_sample - self.threshold) as f64) / self.ramp as f64).min(1.0)
        }
    }
}

impl ChannelModel for CoherenceChannel {
    fn subframe_corrupt(&mut self, ctx: &SubframeCtx, rng: &mut Rng) -> bool {
        rng.chance(self.corruption_prob(ctx.end_sample))
    }
}

/// smoltcp-style fault injection: random frame drops and subframe hits.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    /// Probability a whole frame disappears.
    pub drop_chance: f64,
    /// Probability each subframe is corrupted.
    pub corrupt_chance: f64,
}

impl ChannelModel for FaultInjector {
    fn subframe_corrupt(&mut self, _ctx: &SubframeCtx, rng: &mut Rng) -> bool {
        rng.chance(self.corrupt_chance)
    }

    fn frame_dropped(&mut self, rng: &mut Rng) -> bool {
        rng.chance(self.drop_chance)
    }
}

/// Composition: a subframe is corrupted if *any* layer corrupts it.
#[derive(Default)]
pub struct ChannelStack {
    layers: Vec<Box<dyn ChannelModel + Send>>,
}

impl ChannelStack {
    /// The empty (ideal) stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard Hydra channel: AWGN + coherence staleness.
    pub fn hydra(profile: &PhyProfile) -> Self {
        ChannelStack::new().with(AwgnChannel::default()).with(CoherenceChannel::from_profile(profile))
    }

    /// Adds a layer.
    pub fn with(mut self, layer: impl ChannelModel + Send + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }
}

impl core::fmt::Debug for ChannelStack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ChannelStack({} layers)", self.layers.len())
    }
}

impl ChannelModel for ChannelStack {
    fn subframe_corrupt(&mut self, ctx: &SubframeCtx, rng: &mut Rng) -> bool {
        // Evaluate all layers (no short-circuit) so RNG consumption is
        // independent of outcomes — keeps runs comparable across configs.
        let mut corrupt = false;
        for l in &mut self.layers {
            corrupt |= l.subframe_corrupt(ctx, rng);
        }
        corrupt
    }

    fn frame_dropped(&mut self, rng: &mut Rng) -> bool {
        let mut dropped = false;
        for l in &mut self.layers {
            dropped |= l.frame_dropped(rng);
        }
        dropped
    }
}

/// Applies a channel model to a frame bound for one receiver.
///
/// Returns `None` if the frame is dropped entirely; otherwise the frame
/// with corrupted subframes' bytes damaged (one covered byte flipped —
/// enough to fail the CRC; the length field is spared so that framing
/// survives, matching the paper's receive process which treats each
/// subframe CRC independently).
///
/// **Copy-on-corrupt**: the returned frame shares the transmitter's
/// PSDU buffer (an O(1) [`hydra_wire::Payload`] clone) until the first
/// corruption decision actually lands, at which point a private copy is
/// materialised and damaged. Broadcast fan-out to N clean receivers
/// therefore copies zero PSDU bytes. RNG consumption is identical on
/// both paths, so runs stay bit-comparable with the pre-copy-on-corrupt
/// implementation.
pub fn apply_channel(
    frame: &OnAirFrame,
    snr_db: f64,
    model: &mut dyn ChannelModel,
    rng: &mut Rng,
    profile: &PhyProfile,
) -> Option<OnAirFrame> {
    if model.frame_dropped(rng) {
        return None;
    }
    match frame {
        OnAirFrame::Control(ctrl) => {
            let ctx = SubframeCtx {
                start_sample: 0,
                end_sample: profile.samples_for(ctrl.len(), profile.base_rate),
                rate: profile.base_rate,
                bytes: ctrl.len(),
                snr_db,
            };
            let mut out = *ctrl;
            if model.subframe_corrupt(&ctx, rng) {
                corrupt_byte(out.damage(), 2, rng); // hit duration/addr region
            }
            Some(OnAirFrame::Control(out))
        }
        OnAirFrame::Aggregate { phy_hdr, psdu, slots } => {
            let bcast_rate = Rate::from_code(phy_hdr.bcast_rate).unwrap_or(profile.base_rate);
            let ucast_rate = Rate::from_code(phy_hdr.ucast_rate).unwrap_or(profile.base_rate);
            // Copy-on-corrupt: no private PSDU until damage is certain.
            let mut damaged: Option<Vec<u8>> = None;
            let mut cursor = profile.samples_for(profile.phy_header_bytes, profile.base_rate);
            for slot in slots.iter() {
                let rate = match slot.portion {
                    Portion::Broadcast => bcast_rate,
                    Portion::Unicast => ucast_rate,
                };
                let len = slot.range.len();
                let samples = profile.samples_for(len, rate);
                let ctx = SubframeCtx {
                    start_sample: cursor,
                    end_sample: cursor + samples,
                    rate,
                    bytes: len,
                    snr_db,
                };
                cursor += samples;
                if model.subframe_corrupt(&ctx, rng) {
                    corrupt_subframe(damaged.get_or_insert_with(|| psdu.to_vec()), slot, rng);
                }
            }
            let psdu = match damaged {
                Some(buf) => buf.into(),
                None => psdu.clone(),
            };
            Some(OnAirFrame::Aggregate { phy_hdr: *phy_hdr, psdu, slots: slots.clone() })
        }
    }
}

/// Flips one random byte of the FCS-covered region of `slot`, avoiding
/// the length field (bytes 22..24 of the header) so framing survives.
fn corrupt_subframe(psdu: &mut [u8], slot: &SubframeSlot, rng: &mut Rng) {
    let covered = HEADER_LEN + slot.payload_len; // header + payload (FCS-covered)
    debug_assert!(covered >= HEADER_LEN);
    // Candidate positions: [0, covered) minus the length field at 22..24.
    let mut pos = rng.below(covered as u64 - 2) as usize;
    if pos >= 22 {
        pos += 2;
    }
    let at = slot.range.start + pos;
    if at < psdu.len() {
        psdu[at] ^= 1 << rng.below(8);
    }
}

fn corrupt_byte(bytes: &mut [u8], at: usize, rng: &mut Rng) {
    if !bytes.is_empty() {
        let at = at.min(bytes.len() - 1);
        bytes[at] ^= 1 << rng.below(8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_wire::aggregate::AggregateBuilder;
    use hydra_wire::subframe::{FrameType, SubframeRepr};
    use hydra_wire::MacAddr;

    fn make_aggregate(n_ucast: usize, payload_len: usize, rate: Rate) -> OnAirFrame {
        let repr = SubframeRepr {
            frame_type: FrameType::Data,
            retry: false,
            no_ack: false,
            duration_us: 0,
            addr1: MacAddr::from_node_id(1),
            addr2: MacAddr::from_node_id(0),
            addr3: MacAddr::from_node_id(0),
        };
        let mut b = AggregateBuilder::new();
        for _ in 0..n_ucast {
            b.push_unicast(&repr, &vec![0xAB; payload_len]);
        }
        let (phy_hdr, psdu, slots) = b.finish(rate.code(), rate.code());
        OnAirFrame::aggregate(phy_hdr, psdu, slots)
    }

    #[test]
    fn ideal_channel_never_corrupts() {
        let p = PhyProfile::hydra();
        let f = make_aggregate(3, 1434, Rate::R2_60);
        let mut rng = Rng::seed_from_u64(1);
        let out = apply_channel(&f, 25.0, &mut IdealChannel, &mut rng, &p).unwrap();
        match (f, out) {
            (OnAirFrame::Aggregate { psdu: a, .. }, OnAirFrame::Aggregate { psdu: b, .. }) => {
                assert_eq!(a, b);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn awgn_at_operating_point_is_quasi_lossless() {
        let p = PhyProfile::hydra();
        let mut rng = Rng::seed_from_u64(2);
        let mut model = AwgnChannel::default();
        let eff_snr = p.default_snr_db - p.implementation_loss_db;
        let mut corrupted = 0;
        for _ in 0..200 {
            let f = make_aggregate(3, 1434, Rate::R2_60);
            let out = apply_channel(&f, eff_snr, &mut model, &mut rng, &p).unwrap();
            let (OnAirFrame::Aggregate { psdu: a, .. }, OnAirFrame::Aggregate { psdu: b, .. }) = (&f, &out)
            else {
                panic!()
            };
            if a != &b[..] {
                corrupted += 1;
            }
        }
        assert!(corrupted <= 2, "expected quasi-lossless, got {corrupted}/200");
    }

    #[test]
    fn awgn_kills_64qam_at_operating_point() {
        let p = PhyProfile::hydra();
        let mut rng = Rng::seed_from_u64(3);
        let mut model = AwgnChannel::default();
        let eff_snr = p.default_snr_db - p.implementation_loss_db;
        let mut corrupted = 0;
        for _ in 0..50 {
            let f = make_aggregate(1, 1434, Rate::R6_50);
            let out = apply_channel(&f, eff_snr, &mut model, &mut rng, &p).unwrap();
            let (OnAirFrame::Aggregate { psdu: a, .. }, OnAirFrame::Aggregate { psdu: b, .. }) = (&f, &out)
            else {
                panic!()
            };
            if a != &b[..] {
                corrupted += 1;
            }
        }
        assert!(corrupted >= 45, "64-QAM should be broken: {corrupted}/50");
    }

    #[test]
    fn coherence_prob_ramps() {
        let c = CoherenceChannel { threshold: 120_000, ramp: 20_000 };
        assert_eq!(c.corruption_prob(0), 0.0);
        assert_eq!(c.corruption_prob(120_000), 0.0);
        assert!((c.corruption_prob(130_000) - 0.5).abs() < 1e-9);
        assert_eq!(c.corruption_prob(140_000), 1.0);
        assert_eq!(c.corruption_prob(1_000_000), 1.0);
    }

    #[test]
    fn coherence_kills_tail_subframes_of_oversized_aggregates() {
        let p = PhyProfile::hydra();
        // 8 x 1464 B at 0.65 Mbps ≈ 288 Ksamples: far past the budget.
        let f = make_aggregate(8, 1434, Rate::R0_65);
        let mut model = CoherenceChannel::from_profile(&p);
        let mut rng = Rng::seed_from_u64(4);
        let out = apply_channel(&f, 25.0, &mut model, &mut rng, &p).unwrap();
        let (OnAirFrame::Aggregate { psdu: orig, slots, .. }, OnAirFrame::Aggregate { psdu: hit, .. }) =
            (&f, &out)
        else {
            panic!()
        };
        // First subframe (ends ~36 Ksamples) intact; last (ends ~288 Ks) corrupt.
        let first = &slots[0].range;
        let last = &slots[7].range;
        assert_eq!(orig[first.clone()], hit[first.clone()]);
        assert_ne!(orig[last.clone()], hit[last.clone()]);
    }

    #[test]
    fn small_aggregates_survive_coherence() {
        let p = PhyProfile::hydra();
        // 3 x 1464 B at 2.6 Mbps ≈ 36 Ksamples: well within budget.
        let f = make_aggregate(3, 1434, Rate::R2_60);
        let mut model = CoherenceChannel::from_profile(&p);
        let mut rng = Rng::seed_from_u64(5);
        let out = apply_channel(&f, 25.0, &mut model, &mut rng, &p).unwrap();
        let (OnAirFrame::Aggregate { psdu: a, .. }, OnAirFrame::Aggregate { psdu: b, .. }) = (&f, &out)
        else {
            panic!()
        };
        assert_eq!(a, &b[..]);
    }

    #[test]
    fn fault_injector_drops_frames() {
        let p = PhyProfile::hydra();
        let mut model = FaultInjector { drop_chance: 1.0, corrupt_chance: 0.0 };
        let mut rng = Rng::seed_from_u64(6);
        let f = make_aggregate(1, 100, Rate::R1_30);
        assert!(apply_channel(&f, 25.0, &mut model, &mut rng, &p).is_none());
    }

    #[test]
    fn fault_injector_corrupts_control_frames() {
        let p = PhyProfile::hydra();
        let mut model = FaultInjector { drop_chance: 0.0, corrupt_chance: 1.0 };
        let mut rng = Rng::seed_from_u64(7);
        let rts = hydra_wire::ControlFrame::Rts {
            duration_us: 100,
            ra: MacAddr::from_node_id(1),
            ta: MacAddr::from_node_id(2),
        };
        let f = OnAirFrame::control(rts.to_bytes());
        let out = apply_channel(&f, 25.0, &mut model, &mut rng, &p).unwrap();
        let OnAirFrame::Control(bytes) = out else { panic!() };
        assert!(hydra_wire::ControlFrame::parse(&bytes).is_err());
    }

    /// What a control frame went through when it travelled as a heap
    /// buffer, byte for byte and draw for draw: the reference the inline
    /// representation is held to.
    fn reference_control_pass(
        bytes: &[u8],
        snr_db: f64,
        model: &mut dyn ChannelModel,
        rng: &mut Rng,
        profile: &PhyProfile,
    ) -> Option<Vec<u8>> {
        if model.frame_dropped(rng) {
            return None;
        }
        let ctx = SubframeCtx {
            start_sample: 0,
            end_sample: profile.samples_for(bytes.len(), profile.base_rate),
            rate: profile.base_rate,
            bytes: bytes.len(),
            snr_db,
        };
        let mut out = bytes.to_vec();
        if model.subframe_corrupt(&ctx, rng) {
            let at = 2.min(out.len() - 1);
            out[at] ^= 1 << rng.below(8);
        }
        Some(out)
    }

    #[test]
    fn control_frames_take_the_same_draws_typed_or_raw() {
        use hydra_wire::ControlFrame;
        let p = PhyProfile::hydra();
        let (ra, ta) = (MacAddr::from_node_id(3), MacAddr::from_node_id(0x1234));
        let frames = [
            ControlFrame::Rts { duration_us: 0xBEEF, ra, ta },
            ControlFrame::Cts { duration_us: 17, ra },
            ControlFrame::Ack { duration_us: 0, ra: ta },
            ControlFrame::BlockAck { duration_us: 9, ra, bitmap: 0xDEAD_BEEF_0BAD_F00D },
        ];
        // Two instances of each model: one for the reference, one for us.
        type Models = Vec<Box<dyn ChannelModel>>;
        let models = || -> Models {
            vec![
                Box::new(IdealChannel),
                Box::new(ChannelStack::hydra(&p)),
                Box::new(FaultInjector { drop_chance: 0.3, corrupt_chance: 0.5 }),
                Box::new(crate::LinkErrorPass { p: 1.0 }),
                Box::new(
                    ChannelStack::new()
                        .with(AwgnChannel::default())
                        .with(FaultInjector { drop_chance: 0.1, corrupt_chance: 0.9 }),
                ),
            ]
        };
        let (mut ours, mut reference) = (models(), models());
        let (mut clean, mut corrupt, mut dropped) = (0, 0, 0);
        for seed in 0..200u64 {
            for (m, (model, ref_model)) in ours.iter_mut().zip(&mut reference).enumerate() {
                for f in frames {
                    let bytes = f.to_bytes();
                    // 3 dB is where the AWGN layer starts to bite at the base rate.
                    let snr = if seed % 2 == 0 { 25.0 } else { 3.0 };
                    let mut rng_ref = Rng::seed_from_u64(seed * 31 + m as u64);
                    let (mut rng_typed, mut rng_raw) = (rng_ref.clone(), rng_ref.clone());
                    let want = reference_control_pass(&bytes, snr, &mut **ref_model, &mut rng_ref, &p);
                    let typed =
                        apply_channel(&OnAirFrame::control_frame(&f), snr, &mut **model, &mut rng_typed, &p);
                    let raw =
                        apply_channel(&OnAirFrame::control(&bytes), snr, &mut **model, &mut rng_raw, &p);
                    for (got, rng, built_typed) in [(typed, rng_typed, true), (raw, rng_raw, false)] {
                        let mut rng = rng;
                        let mut after = rng_ref.clone();
                        for _ in 0..3 {
                            assert_eq!(rng.next_u64(), after.next_u64(), "RNG state after the pass");
                        }
                        match (&want, got) {
                            (None, None) => dropped += 1,
                            (Some(want), Some(OnAirFrame::Control(got))) => {
                                assert_eq!(&got[..], &want[..], "bytes on arrival");
                                if *want == bytes {
                                    clean += 1;
                                    assert_eq!(got.typed(), built_typed.then_some(f));
                                } else {
                                    corrupt += 1;
                                    assert_eq!(got.typed(), None, "a damaged copy is never typed");
                                    assert!(ControlFrame::parse(&got).is_err(), "and really fails its CRC");
                                }
                            }
                            (want, got) => panic!("drop decisions differ: {want:?} vs {got:?}"),
                        }
                    }
                }
            }
        }
        assert!(clean > 1000 && corrupt > 1000 && dropped > 100, "{clean} / {corrupt} / {dropped}");
    }

    #[test]
    fn corruption_preserves_framing() {
        // Even when every subframe is corrupted, all subframes must still
        // be found by the parser (length fields are spared).
        let p = PhyProfile::hydra();
        let mut model = FaultInjector { drop_chance: 0.0, corrupt_chance: 1.0 };
        let mut rng = Rng::seed_from_u64(8);
        let f = make_aggregate(4, 1434, Rate::R2_60);
        let out = apply_channel(&f, 25.0, &mut model, &mut rng, &p).unwrap();
        let OnAirFrame::Aggregate { phy_hdr, psdu, .. } = out else { panic!() };
        let parsed = hydra_wire::parse_aggregate(&phy_hdr, &psdu);
        assert_eq!(parsed.len(), 4);
        assert!(parsed.iter().all(|s| !s.fcs_ok));
    }

    #[test]
    fn stack_composes() {
        let p = PhyProfile::hydra();
        let mut stack = ChannelStack::new()
            .with(IdealChannel)
            .with(FaultInjector { drop_chance: 0.0, corrupt_chance: 1.0 });
        let mut rng = Rng::seed_from_u64(9);
        let f = make_aggregate(1, 500, Rate::R1_30);
        let out = apply_channel(&f, 25.0, &mut stack, &mut rng, &p).unwrap();
        let (OnAirFrame::Aggregate { psdu: a, .. }, OnAirFrame::Aggregate { psdu: b, .. }) = (&f, &out)
        else {
            panic!()
        };
        assert_ne!(a, &b[..]);
    }
}
