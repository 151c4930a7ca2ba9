//! The MAC subframe format (paper Figure 4).
//!
//! ```text
//! | FC(2) | Duration(2) | Addr1(6) | Addr2(6) | Addr3(6) | Length(2) |
//! | payload (Length bytes) | FCS(4) | PAD |
//! ```
//!
//! * Address 4 is omitted (no infrastructure networking — paper §4.2.1).
//! * `Length` counts payload bytes only.
//! * The FCS (CRC-32) covers header + payload, not the padding.
//! * Subframes are padded to a 4-byte boundary and to a minimum on-air
//!   size of [`MIN_SUBFRAME`] bytes — this reproduces Hydra's 160-byte
//!   TCP-ACK MAC frames.

use crate::addr::MacAddr;
use crate::crc::crc32;
use crate::error::{Result, WireError};

/// Fixed MAC header length (bytes).
pub const HEADER_LEN: usize = 26;
/// FCS length (bytes).
pub const FCS_LEN: usize = 4;
/// Subframes are padded to multiples of this.
pub const ALIGN: usize = 4;
/// Minimum on-air subframe size; Hydra pads short frames (a pure TCP ACK
/// becomes exactly 160 B on air, matching the paper's §5).
pub const MIN_SUBFRAME: usize = 160;

/// MAC frame type, carried in the frame-control field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// A data MPDU (possibly one subframe of an aggregate).
    Data,
    /// Request-to-send control frame.
    Rts,
    /// Clear-to-send control frame.
    Cts,
    /// Link-level acknowledgement.
    Ack,
    /// Block acknowledgement (extension; paper future work §7).
    BlockAck,
}

impl FrameType {
    /// Wire encoding (4 bits).
    pub fn to_bits(self) -> u16 {
        match self {
            FrameType::Data => 0,
            FrameType::Rts => 1,
            FrameType::Cts => 2,
            FrameType::Ack => 3,
            FrameType::BlockAck => 4,
        }
    }

    /// Decodes the 4-bit type field.
    pub fn from_bits(bits: u16) -> Result<Self> {
        match bits {
            0 => Ok(FrameType::Data),
            1 => Ok(FrameType::Rts),
            2 => Ok(FrameType::Cts),
            3 => Ok(FrameType::Ack),
            4 => Ok(FrameType::BlockAck),
            _ => Err(WireError::Malformed),
        }
    }
}

const FC_TYPE_MASK: u16 = 0x000F;
const FC_RETRY: u16 = 0x0010;
const FC_NO_ACK: u16 = 0x0020;

mod field {
    use core::ops::Range;
    pub const FRAME_CONTROL: Range<usize> = 0..2;
    pub const DURATION: Range<usize> = 2..4;
    pub const ADDR1: Range<usize> = 4..10;
    pub const ADDR2: Range<usize> = 10..16;
    pub const ADDR3: Range<usize> = 16..22;
    pub const LENGTH: Range<usize> = 22..24;
    // Bytes 24..26 are reserved and sent as zero (keeps the header at
    // the paper's 26 B: 2+2+6+6+6+2 = 24 payload-bearing bytes + 2).
}

/// A typed view over a MAC subframe byte buffer (smoltcp `Packet` idiom).
#[derive(Debug, Clone)]
pub struct Subframe<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Subframe<T> {
    /// Wraps a buffer without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        Subframe { buffer }
    }

    /// Wraps a buffer, checking that the header and the payload declared by
    /// the length field fit.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let f = Self::new_unchecked(buffer);
        f.check_len()?;
        Ok(f)
    }

    /// Validates buffer length against the length field.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN + FCS_LEN {
            return Err(WireError::Truncated);
        }
        let payload_len = self.payload_len() as usize;
        if data.len() < HEADER_LEN + payload_len + FCS_LEN {
            return Err(WireError::BadLength);
        }
        Ok(())
    }

    /// Raw frame-control field.
    pub fn frame_control(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_le_bytes([d[field::FRAME_CONTROL.start], d[field::FRAME_CONTROL.start + 1]])
    }

    /// Frame type.
    pub fn frame_type(&self) -> Result<FrameType> {
        FrameType::from_bits(self.frame_control() & FC_TYPE_MASK)
    }

    /// Retry flag: set on MAC-level retransmissions.
    pub fn is_retry(&self) -> bool {
        self.frame_control() & FC_RETRY != 0
    }

    /// No-ACK flag: set on subframes sent in the broadcast portion with a
    /// unicast receiver address (the paper's broadcast-classified TCP
    /// ACKs), telling the receiver not to generate a link-level ACK.
    pub fn is_no_ack(&self) -> bool {
        self.frame_control() & FC_NO_ACK != 0
    }

    /// NAV duration in microseconds.
    pub fn duration_us(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_le_bytes([d[field::DURATION.start], d[field::DURATION.start + 1]])
    }

    /// Receiver (next hop) address.
    pub fn addr1(&self) -> MacAddr {
        let d = self.buffer.as_ref();
        let mut a = [0u8; 6];
        a.copy_from_slice(&d[field::ADDR1]);
        MacAddr(a)
    }

    /// Transmitter address.
    pub fn addr2(&self) -> MacAddr {
        let d = self.buffer.as_ref();
        let mut a = [0u8; 6];
        a.copy_from_slice(&d[field::ADDR2]);
        MacAddr(a)
    }

    /// Original source address (for multi-hop bookkeeping).
    pub fn addr3(&self) -> MacAddr {
        let d = self.buffer.as_ref();
        let mut a = [0u8; 6];
        a.copy_from_slice(&d[field::ADDR3]);
        MacAddr(a)
    }

    /// Declared payload length.
    pub fn payload_len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_le_bytes([d[field::LENGTH.start], d[field::LENGTH.start + 1]])
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        let len = self.payload_len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..HEADER_LEN + len]
    }

    /// Stored FCS value.
    pub fn fcs(&self) -> u32 {
        let len = self.payload_len() as usize;
        let d = self.buffer.as_ref();
        let at = HEADER_LEN + len;
        u32::from_le_bytes([d[at], d[at + 1], d[at + 2], d[at + 3]])
    }

    /// Recomputes the FCS over header + payload and compares.
    pub fn verify_fcs(&self) -> bool {
        let len = self.payload_len() as usize;
        let d = self.buffer.as_ref();
        crc32(&d[..HEADER_LEN + len]) == self.fcs()
    }

    /// Consumes the view, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Subframe<T> {
    fn set_frame_control(&mut self, fc: u16) {
        self.buffer.as_mut()[field::FRAME_CONTROL].copy_from_slice(&fc.to_le_bytes());
    }

    /// Sets type and flags.
    pub fn set_type_flags(&mut self, ty: FrameType, retry: bool, no_ack: bool) {
        let mut fc = ty.to_bits();
        if retry {
            fc |= FC_RETRY;
        }
        if no_ack {
            fc |= FC_NO_ACK;
        }
        self.set_frame_control(fc);
    }

    /// Sets the NAV duration (µs).
    pub fn set_duration_us(&mut self, us: u16) {
        self.buffer.as_mut()[field::DURATION].copy_from_slice(&us.to_le_bytes());
    }

    /// Sets the receiver address.
    pub fn set_addr1(&mut self, a: MacAddr) {
        self.buffer.as_mut()[field::ADDR1].copy_from_slice(&a.octets());
    }

    /// Sets the transmitter address.
    pub fn set_addr2(&mut self, a: MacAddr) {
        self.buffer.as_mut()[field::ADDR2].copy_from_slice(&a.octets());
    }

    /// Sets the source address.
    pub fn set_addr3(&mut self, a: MacAddr) {
        self.buffer.as_mut()[field::ADDR3].copy_from_slice(&a.octets());
    }

    /// Sets the payload length field.
    pub fn set_payload_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_le_bytes());
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let len = self.payload_len() as usize;
        &mut self.buffer.as_mut()[HEADER_LEN..HEADER_LEN + len]
    }

    /// Computes and stores the FCS. Call last.
    pub fn fill_fcs(&mut self) {
        let len = self.payload_len() as usize;
        let d = self.buffer.as_mut();
        let fcs = crc32(&d[..HEADER_LEN + len]);
        d[HEADER_LEN + len..HEADER_LEN + len + FCS_LEN].copy_from_slice(&fcs.to_le_bytes());
    }
}

/// High-level description of a subframe (smoltcp `Repr` idiom).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubframeRepr {
    /// Frame type (always `Data` for aggregate subframes).
    pub frame_type: FrameType,
    /// Retry flag.
    pub retry: bool,
    /// No-ACK flag (broadcast-classified unicast, e.g. TCP ACKs).
    pub no_ack: bool,
    /// NAV duration (µs).
    pub duration_us: u16,
    /// Receiver address.
    pub addr1: MacAddr,
    /// Transmitter address.
    pub addr2: MacAddr,
    /// Source address.
    pub addr3: MacAddr,
}

impl SubframeRepr {
    /// The *padded on-air* size of a subframe carrying `payload_len` bytes:
    /// header + payload + FCS, rounded up to [`ALIGN`], floored at
    /// [`MIN_SUBFRAME`].
    pub fn on_air_len(payload_len: usize) -> usize {
        let raw = HEADER_LEN + payload_len + FCS_LEN;
        let aligned = raw.div_ceil(ALIGN) * ALIGN;
        aligned.max(MIN_SUBFRAME)
    }

    /// Appends the subframe (header + payload + FCS + zero padding,
    /// `on_air_len(payload.len())` bytes) to `out`. Each byte is written
    /// once: header and payload are copied in, only the FCS slot and the
    /// padding are zeroed, then the FCS is computed in place.
    pub fn append(&self, payload: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        let mut hdr = [0u8; HEADER_LEN];
        let mut f = Subframe::new_unchecked(&mut hdr[..]);
        f.set_type_flags(self.frame_type, self.retry, self.no_ack);
        f.set_duration_us(self.duration_us);
        f.set_addr1(self.addr1);
        f.set_addr2(self.addr2);
        f.set_addr3(self.addr3);
        f.set_payload_len(payload.len() as u16);
        out.extend_from_slice(&hdr);
        out.extend_from_slice(payload);
        out.resize(start + Self::on_air_len(payload.len()), 0);
        Subframe::new_unchecked(&mut out[start..]).fill_fcs();
    }

    /// Builds an owned on-air subframe.
    pub fn to_bytes(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(Self::on_air_len(payload.len()));
        self.append(payload, &mut buf);
        buf
    }

    /// Parses the header of a (possibly padded) subframe.
    pub fn parse<T: AsRef<[u8]>>(frame: &Subframe<T>) -> Result<SubframeRepr> {
        frame.check_len()?;
        Ok(SubframeRepr {
            frame_type: frame.frame_type()?,
            retry: frame.is_retry(),
            no_ack: frame.is_no_ack(),
            duration_us: frame.duration_us(),
            addr1: frame.addr1(),
            addr2: frame.addr2(),
            addr3: frame.addr3(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> SubframeRepr {
        SubframeRepr {
            frame_type: FrameType::Data,
            retry: false,
            no_ack: false,
            duration_us: 1234,
            addr1: MacAddr::from_node_id(1),
            addr2: MacAddr::from_node_id(2),
            addr3: MacAddr::from_node_id(3),
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let payload = b"hello multi-hop world, this is a payload long enough to skip padding to reach the minimum subframe size of one hundred and sixty bytes!!!".to_vec();
        assert!(payload.len() > MIN_SUBFRAME - HEADER_LEN - FCS_LEN);
        let repr = sample_repr();
        let bytes = repr.to_bytes(&payload);
        let frame = Subframe::new_checked(&bytes[..]).unwrap();
        assert!(frame.verify_fcs());
        assert_eq!(frame.payload(), &payload[..]);
        let parsed = SubframeRepr::parse(&frame).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn on_air_len_alignment_and_minimum() {
        // Tiny payloads are padded to the 160-byte floor.
        assert_eq!(SubframeRepr::on_air_len(0), MIN_SUBFRAME);
        assert_eq!(SubframeRepr::on_air_len(77), 160); // pure TCP ACK: 26+77+4=107 -> 160
                                                       // Just above the floor: align to 4.
        assert_eq!(SubframeRepr::on_air_len(131), 164); // 26+131+4=161 -> 164
                                                        // Large payloads: exact alignment.
        assert_eq!(SubframeRepr::on_air_len(1434), 1464); // TCP data frame
    }

    #[test]
    fn paper_frame_sizes() {
        // TCP data: encap(37)+IP(20)+TCP(20)+MSS(1357) = 1434 payload -> 1464 B frame.
        assert_eq!(SubframeRepr::on_air_len(37 + 20 + 20 + 1357), 1464);
        // Pure TCP ACK: encap(37)+IP(20)+TCP(20) = 77 payload -> 160 B frame.
        assert_eq!(SubframeRepr::on_air_len(37 + 20 + 20), 160);
        // UDP experiment packet: 1140 B frame <- payload 1110 (26+1110+4).
        assert_eq!(SubframeRepr::on_air_len(1110), 1140);
    }

    #[test]
    fn fcs_fails_on_corruption() {
        let payload = vec![0xAB; 200];
        let mut bytes = sample_repr().to_bytes(&payload);
        let frame = Subframe::new_checked(&bytes[..]).unwrap();
        assert!(frame.verify_fcs());
        bytes[HEADER_LEN + 10] ^= 0x01;
        let frame = Subframe::new_checked(&bytes[..]).unwrap();
        assert!(!frame.verify_fcs());
    }

    #[test]
    fn fcs_ignores_padding_bytes() {
        // Padding is not covered by the FCS; corrupting it must not fail CRC.
        let payload = vec![1, 2, 3];
        let mut bytes = sample_repr().to_bytes(&payload);
        assert_eq!(bytes.len(), MIN_SUBFRAME);
        *bytes.last_mut().unwrap() ^= 0xFF;
        let frame = Subframe::new_checked(&bytes[..]).unwrap();
        assert!(frame.verify_fcs());
    }

    #[test]
    fn flags_roundtrip() {
        let mut repr = sample_repr();
        repr.retry = true;
        repr.no_ack = true;
        let bytes = repr.to_bytes(b"x");
        let frame = Subframe::new_checked(&bytes[..]).unwrap();
        assert!(frame.is_retry());
        assert!(frame.is_no_ack());
        assert_eq!(frame.frame_type().unwrap(), FrameType::Data);
    }

    #[test]
    fn truncated_buffer_rejected() {
        assert_eq!(Subframe::new_checked(&[0u8; 10][..]).err(), Some(WireError::Truncated));
    }

    #[test]
    fn bad_length_field_rejected() {
        let mut bytes = sample_repr().to_bytes(b"abc");
        // Claim a payload far larger than the buffer.
        let mut f = Subframe::new_unchecked(&mut bytes[..]);
        f.set_payload_len(60_000);
        assert_eq!(Subframe::new_checked(&bytes[..]).err(), Some(WireError::BadLength));
    }

    #[test]
    fn frame_type_bits_roundtrip() {
        for ty in [FrameType::Data, FrameType::Rts, FrameType::Cts, FrameType::Ack, FrameType::BlockAck] {
            assert_eq!(FrameType::from_bits(ty.to_bits()).unwrap(), ty);
        }
        assert!(FrameType::from_bits(15).is_err());
    }
}
