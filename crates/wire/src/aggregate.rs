//! Aggregate frame assembly and parsing (paper Figures 1 & 2).
//!
//! An aggregated PSDU is the concatenation of padded MAC subframes:
//! broadcast subframes first, then unicast subframes, with the boundary
//! carried in the PHY header's `(bcast_len, ucast_len)` fields. Within a
//! portion, subframes are delimited by their own length fields (the paper
//! uses per-subframe length fields, not 802.11n MPDU delimiters).
//!
//! The parser is defensive: a corrupted length field cannot read out of
//! bounds; parsing stops at the first structurally invalid subframe in a
//! portion (the remainder of that portion is unrecoverable, which is the
//! honest consequence of the chosen framing — the paper acknowledges
//! delimiter-based framing as the more robust alternative).

use core::ops::Range;

use crate::phy_hdr::{PhyHeader, RateCode};
use crate::subframe::{Subframe, SubframeRepr, FCS_LEN, HEADER_LEN};

/// Which portion of the aggregate a subframe sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Portion {
    /// Broadcast portion: heard by all, never link-ACKed.
    Broadcast,
    /// Unicast portion: single destination, covered by one link ACK.
    Unicast,
}

/// Byte-range metadata for one subframe inside a PSDU, used by the channel
/// model to corrupt specific subframes and by the MAC for accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubframeSlot {
    /// Broadcast or unicast portion.
    pub portion: Portion,
    /// Byte range of the padded subframe within the PSDU.
    pub range: Range<usize>,
    /// Payload length carried (excludes header/FCS/pad).
    pub payload_len: usize,
}

/// Builds an aggregated PSDU: broadcast subframes first, then unicast.
///
/// Single-buffer: each subframe is appended straight onto the final
/// PSDU `Vec` by [`SubframeRepr::append`], so assembly writes every
/// PSDU byte once and reads it once (the CRC). It matters because
/// assembly runs once per transmit opportunity *including retries*. The
/// broadcast-before-unicast order the wire format requires is asserted,
/// not rearranged.
#[derive(Debug, Default)]
pub struct AggregateBuilder {
    psdu: Vec<u8>,
    /// End of the broadcast portion (== PSDU length until the first
    /// unicast push).
    boundary: usize,
    slots: Vec<SubframeSlot>,
    n_bcast: usize,
}

impl AggregateBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `psdu_bytes` of PSDU and
    /// `subframes` slots pre-reserved.
    ///
    /// Assembly runs once per transmit opportunity; callers that know
    /// the aggregate size cap and how many frames are waiting pass them
    /// here so both buffers are sized once instead of doubling through
    /// reallocations.
    pub fn with_capacity(psdu_bytes: usize, subframes: usize) -> Self {
        AggregateBuilder {
            psdu: Vec::with_capacity(psdu_bytes),
            slots: Vec::with_capacity(subframes),
            ..Self::default()
        }
    }

    /// Appends one subframe to the PSDU, returning its range.
    fn emit(&mut self, repr: &SubframeRepr, payload: &[u8]) -> Range<usize> {
        let start = self.psdu.len();
        repr.append(payload, &mut self.psdu);
        start..self.psdu.len()
    }

    /// Appends a subframe to the broadcast portion.
    ///
    /// # Panics
    /// Panics if a unicast subframe was already pushed (the wire format
    /// puts the whole broadcast portion first).
    pub fn push_broadcast(&mut self, repr: &SubframeRepr, payload: &[u8]) {
        assert_eq!(self.boundary, self.psdu.len(), "broadcast subframe after unicast");
        let range = self.emit(repr, payload);
        self.boundary = range.end;
        self.slots.push(SubframeSlot { portion: Portion::Broadcast, range, payload_len: payload.len() });
        self.n_bcast += 1;
    }

    /// Appends a subframe to the unicast portion.
    pub fn push_unicast(&mut self, repr: &SubframeRepr, payload: &[u8]) {
        let range = self.emit(repr, payload);
        self.slots.push(SubframeSlot { portion: Portion::Unicast, range, payload_len: payload.len() });
    }

    /// Current broadcast portion size in bytes.
    pub fn bcast_len(&self) -> usize {
        self.boundary
    }

    /// Current unicast portion size in bytes.
    pub fn ucast_len(&self) -> usize {
        self.psdu.len() - self.boundary
    }

    /// Total PSDU size so far.
    pub fn total_len(&self) -> usize {
        self.psdu.len()
    }

    /// Number of subframes pushed (broadcast, unicast).
    pub fn counts(&self) -> (usize, usize) {
        (self.n_bcast, self.slots.len() - self.n_bcast)
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Finalizes into (PHY header, PSDU bytes, per-subframe slots).
    pub fn finish(
        self,
        bcast_rate: RateCode,
        ucast_rate: RateCode,
    ) -> (PhyHeader, Vec<u8>, Vec<SubframeSlot>) {
        let hdr = PhyHeader {
            bcast_rate,
            ucast_rate,
            bcast_len: self.boundary as u16,
            ucast_len: (self.psdu.len() - self.boundary) as u16,
        };
        (hdr, self.psdu, self.slots)
    }
}

/// One subframe recovered from a received PSDU.
#[derive(Debug, Clone)]
pub struct ParsedSubframe<'a> {
    /// Portion it was found in.
    pub portion: Portion,
    /// The padded on-air bytes of the subframe.
    pub bytes: &'a [u8],
    /// Byte range within the PSDU.
    pub range: Range<usize>,
    /// Whether the FCS verified.
    pub fcs_ok: bool,
}

impl<'a> ParsedSubframe<'a> {
    /// A typed view of this subframe. Only meaningful if `fcs_ok` (a
    /// corrupted header may still parse structurally).
    pub fn view(&self) -> Subframe<&'a [u8]> {
        Subframe::new_unchecked(self.bytes)
    }
}

/// Splits a received PSDU into subframes using the PHY header boundary.
///
/// Returns the recovered subframes. Structural corruption (a length field
/// escaping the portion) truncates that portion's results.
pub fn parse_aggregate<'a>(hdr: &PhyHeader, psdu: &'a [u8]) -> Vec<ParsedSubframe<'a>> {
    let mut out = Vec::new();
    parse_aggregate_inner(hdr, psdu, true, &mut out);
    out
}

/// [`parse_aggregate`] for a PSDU *known to be bit-identical* to what the
/// transmitter emitted (e.g. the simulator delivered the very buffer the
/// assembler built). Every FCS in such a PSDU was computed over exactly
/// these bytes, so verification is skipped — `fcs_ok` is the structural
/// length check alone, and the result is identical to the verifying
/// parse. This is the event loop's fast path: one transmission fanning
/// out to N clean receivers costs zero CRC passes instead of N.
///
/// Never use this on bytes that may have been damaged in flight.
pub fn parse_aggregate_trusted<'a>(hdr: &PhyHeader, psdu: &'a [u8]) -> Vec<ParsedSubframe<'a>> {
    let mut out = Vec::new();
    parse_aggregate_trusted_into(hdr, psdu, &mut out);
    out
}

/// [`parse_aggregate_trusted`] appending to a buffer the caller reuses
/// (the event loop parses one aggregate per transmission).
pub fn parse_aggregate_trusted_into<'a>(hdr: &PhyHeader, psdu: &'a [u8], out: &mut Vec<ParsedSubframe<'a>>) {
    parse_aggregate_inner(hdr, psdu, false, out);
}

fn parse_aggregate_inner<'a>(
    hdr: &PhyHeader,
    psdu: &'a [u8],
    verify: bool,
    out: &mut Vec<ParsedSubframe<'a>>,
) {
    let bl = (hdr.bcast_len as usize).min(psdu.len());
    let ul_end = (bl + hdr.ucast_len as usize).min(psdu.len());
    parse_portion(&psdu[..bl], 0, Portion::Broadcast, verify, out);
    parse_portion(&psdu[bl..ul_end], bl, Portion::Unicast, verify, out);
}

fn parse_portion<'a>(
    portion: &'a [u8],
    base: usize,
    which: Portion,
    verify: bool,
    out: &mut Vec<ParsedSubframe<'a>>,
) {
    let mut at = 0;
    while at + HEADER_LEN + FCS_LEN <= portion.len() {
        let rest = &portion[at..];
        let view = Subframe::new_unchecked(rest);
        let payload_len = view.payload_len() as usize;
        let on_air = SubframeRepr::on_air_len(payload_len);
        if at + on_air > portion.len() {
            // Length field points outside the portion: structural damage;
            // everything from here on is unrecoverable.
            break;
        }
        let bytes = &portion[at..at + on_air];
        let sub = Subframe::new_unchecked(bytes);
        let fcs_ok = sub.check_len().is_ok() && (!verify || sub.verify_fcs());
        out.push(ParsedSubframe { portion: which, bytes, range: base + at..base + at + on_air, fcs_ok });
        at += on_air;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MacAddr;
    use crate::subframe::FrameType;

    fn repr(dst: u16) -> SubframeRepr {
        SubframeRepr {
            frame_type: FrameType::Data,
            retry: false,
            no_ack: false,
            duration_us: 0,
            addr1: MacAddr::from_node_id(dst),
            addr2: MacAddr::from_node_id(0),
            addr3: MacAddr::from_node_id(0),
        }
    }

    fn build_sample() -> (PhyHeader, Vec<u8>, Vec<SubframeSlot>) {
        let mut b = AggregateBuilder::new();
        b.push_broadcast(&repr(9), &[0xAA; 77]); // -> 160 B slot
        b.push_broadcast(&repr(9), &[0xBB; 77]);
        b.push_unicast(&repr(1), &[0xCC; 1434]); // -> 1464 B slot
        b.push_unicast(&repr(1), &[0xDD; 1434]);
        b.finish(RateCode(0), RateCode(3))
    }

    #[test]
    fn builder_layout() {
        let (hdr, psdu, slots) = build_sample();
        assert_eq!(hdr.bcast_len, 320);
        assert_eq!(hdr.ucast_len, 2928);
        assert_eq!(psdu.len(), 320 + 2928);
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[0].portion, Portion::Broadcast);
        assert_eq!(slots[0].range, 0..160);
        assert_eq!(slots[2].portion, Portion::Unicast);
        assert_eq!(slots[2].range, 320..320 + 1464);
        assert_eq!(slots[3].range.end, psdu.len());
    }

    #[test]
    fn parse_recovers_all_subframes() {
        let (hdr, psdu, slots) = build_sample();
        let parsed = parse_aggregate(&hdr, &psdu);
        assert_eq!(parsed.len(), 4);
        for (p, s) in parsed.iter().zip(&slots) {
            assert_eq!(p.range, s.range);
            assert_eq!(p.portion, s.portion);
            assert!(p.fcs_ok);
        }
        // Addressing survives.
        assert_eq!(parsed[0].view().addr1(), MacAddr::from_node_id(9));
        assert_eq!(parsed[2].view().addr1(), MacAddr::from_node_id(1));
    }

    #[test]
    fn corrupted_payload_fails_only_that_subframe() {
        let (hdr, mut psdu, slots) = build_sample();
        // Corrupt a payload byte of the second broadcast subframe.
        let r = &slots[1].range;
        psdu[r.start + HEADER_LEN + 5] ^= 0x80;
        let parsed = parse_aggregate(&hdr, &psdu);
        assert_eq!(parsed.len(), 4);
        assert!(parsed[0].fcs_ok);
        assert!(!parsed[1].fcs_ok);
        assert!(parsed[2].fcs_ok);
        assert!(parsed[3].fcs_ok);
    }

    #[test]
    fn corrupted_length_field_truncates_portion_without_panic() {
        let (hdr, mut psdu, slots) = build_sample();
        // Blow up the length field of the first unicast subframe.
        let r = &slots[2].range;
        psdu[r.start + 22] = 0xFF;
        psdu[r.start + 23] = 0xFF;
        let parsed = parse_aggregate(&hdr, &psdu);
        // Both broadcast subframes survive; the unicast portion is lost
        // from the corrupted frame onward.
        assert_eq!(parsed.iter().filter(|p| p.portion == Portion::Broadcast).count(), 2);
        assert!(parsed.iter().filter(|p| p.portion == Portion::Unicast).count() < 2);
    }

    #[test]
    fn broadcast_only_aggregate() {
        let mut b = AggregateBuilder::new();
        b.push_broadcast(&repr(3), &[1; 77]);
        assert_eq!(b.counts(), (1, 0));
        let (hdr, psdu, _) = b.finish(RateCode(1), RateCode(1));
        assert_eq!(hdr.ucast_len, 0);
        let parsed = parse_aggregate(&hdr, &psdu);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].portion, Portion::Broadcast);
    }

    #[test]
    fn unicast_only_aggregate() {
        let mut b = AggregateBuilder::new();
        b.push_unicast(&repr(3), &[1; 100]);
        let (hdr, psdu, _) = b.finish(RateCode(1), RateCode(2));
        assert_eq!(hdr.bcast_len, 0);
        let parsed = parse_aggregate(&hdr, &psdu);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].portion, Portion::Unicast);
    }

    #[test]
    fn empty_builder_finishes_empty() {
        let b = AggregateBuilder::new();
        assert!(b.is_empty());
        let (hdr, psdu, slots) = b.finish(RateCode(0), RateCode(0));
        assert_eq!(hdr.total_len(), 0);
        assert!(psdu.is_empty());
        assert!(slots.is_empty());
        assert!(parse_aggregate(&hdr, &psdu).is_empty());
    }

    #[test]
    fn header_lies_about_length_is_safe() {
        // PHY header claims more bytes than the PSDU has; parser must clamp.
        let mut b = AggregateBuilder::new();
        b.push_unicast(&repr(1), &[0; 100]);
        let (mut hdr, psdu, _) = b.finish(RateCode(0), RateCode(0));
        hdr.ucast_len = 60_000;
        let _ = parse_aggregate(&hdr, &psdu); // must not panic
        hdr.bcast_len = 60_000;
        let _ = parse_aggregate(&hdr, &psdu);
    }
}
