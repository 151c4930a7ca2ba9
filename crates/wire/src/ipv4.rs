//! IPv4 header (RFC 791, no options).

use crate::addr::Ipv4Addr;
use crate::checksum::{checksum, Checksum};
use crate::error::{Result, WireError};

/// Fixed IPv4 header length (we never emit options).
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers we understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Unknown(u8),
}

impl IpProtocol {
    /// Wire value.
    fn to_byte(self) -> u8 {
        match self {
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Unknown(v) => v,
        }
    }

    /// From wire value.
    fn from_byte(v: u8) -> Self {
        match v {
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Unknown(other),
        }
    }
}

/// A typed view over an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// Wraps, checking version, header length, and total length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let p = Self::new_unchecked(buffer);
        p.check()?;
        Ok(p)
    }

    fn check(&self) -> Result<()> {
        let d = self.buffer.as_ref();
        if d.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if d[0] >> 4 != 4 {
            return Err(WireError::Malformed);
        }
        if (d[0] & 0x0F) as usize * 4 != HEADER_LEN {
            // Options unsupported.
            return Err(WireError::Malformed);
        }
        let total = self.total_len() as usize;
        if total < HEADER_LEN || total > d.len() {
            return Err(WireError::BadLength);
        }
        Ok(())
    }

    /// Total length field (header + payload).
    pub fn total_len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Protocol field.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from_byte(self.buffer.as_ref()[9])
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr([d[12], d[13], d[14], d[15]])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr([d[16], d[17], d[18], d[19]])
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        checksum(&self.buffer.as_ref()[..HEADER_LEN]) == 0
    }

    /// The L4 payload (bounded by the total-length field).
    pub fn payload(&self) -> &[u8] {
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..total]
    }

    /// Consumes the view.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Decrements TTL (saturating) and fixes the checksum.
    pub fn decrement_ttl(&mut self) {
        let t = self.ttl().saturating_sub(1);
        self.buffer.as_mut()[8] = t;
        self.fill_checksum();
    }

    /// Recomputes and stores the header checksum.
    fn fill_checksum(&mut self) {
        let d = self.buffer.as_mut();
        d[10] = 0;
        d[11] = 0;
        let ck = checksum(&d[..HEADER_LEN]);
        d[10] = (ck >> 8) as u8;
        d[11] = ck as u8;
    }
}

/// High-level IPv4 representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Time to live.
    pub ttl: u8,
    /// L4 payload length in bytes.
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// Total emitted packet size.
    pub fn packet_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits the header into the first 20 bytes of `buf` (which must hold
    /// the whole packet) and fills the checksum. Payload bytes are the
    /// caller's business.
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(buf.len() >= self.packet_len(), "ipv4 emit buffer too small");
        self.emit_header(buf);
    }

    /// [`Ipv4Repr::emit`] into a buffer that holds the header but not
    /// (yet) the payload: the header does not depend on the payload
    /// bytes, only on their length.
    pub fn emit_header(&self, buf: &mut [u8]) {
        assert!(buf.len() >= HEADER_LEN, "ipv4 emit buffer too small");
        buf[0] = 0x45; // v4, IHL 5
        buf[1] = 0; // DSCP/ECN
        buf[2..4].copy_from_slice(&(self.packet_len() as u16).to_be_bytes());
        buf[4..6].copy_from_slice(&0u16.to_be_bytes()); // id
        buf[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // DF, no frag
        buf[8] = self.ttl;
        buf[9] = self.protocol.to_byte();
        buf[10] = 0;
        buf[11] = 0;
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let ck = checksum(&buf[..HEADER_LEN]);
        buf[10] = (ck >> 8) as u8;
        buf[11] = ck as u8;
    }

    /// Parses a validated packet view.
    pub fn parse<T: AsRef<[u8]>>(p: &Ipv4Packet<T>) -> Result<Ipv4Repr> {
        p.check()?;
        if !p.verify_checksum() {
            return Err(WireError::Checksum);
        }
        Ok(Ipv4Repr {
            src: p.src(),
            dst: p.dst(),
            protocol: p.protocol(),
            ttl: p.ttl(),
            payload_len: p.total_len() as usize - HEADER_LEN,
        })
    }

    /// Pseudo-header checksum accumulator for this packet's L4.
    pub fn pseudo_header(&self) -> Checksum {
        crate::checksum::pseudo_header(
            self.src.octets(),
            self.dst.octets(),
            self.protocol.to_byte(),
            self.payload_len as u16,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 3),
            protocol: IpProtocol::Tcp,
            ttl: 64,
            payload_len: 8,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample();
        let mut buf = vec![0u8; repr.packet_len()];
        repr.emit(&mut buf);
        buf[HEADER_LEN..].copy_from_slice(b"PAYLOAD!");
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&pkt).unwrap(), repr);
        assert_eq!(pkt.payload(), b"PAYLOAD!");
    }

    #[test]
    fn ttl_decrement_keeps_checksum_valid() {
        let repr = sample();
        let mut buf = vec![0u8; repr.packet_len()];
        repr.emit(&mut buf);
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        pkt.decrement_ttl();
        assert_eq!(pkt.ttl(), 63);
        assert!(pkt.verify_checksum());
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let repr = sample();
        let mut buf = vec![0u8; repr.packet_len()];
        repr.emit(&mut buf);
        buf[16] ^= 0x01; // dst address
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&pkt).err(), Some(WireError::Checksum));
    }

    #[test]
    fn rejects_v6_and_options() {
        let repr = sample();
        let mut buf = vec![0u8; repr.packet_len()];
        repr.emit(&mut buf);
        let mut bad = buf.clone();
        bad[0] = 0x65; // version 6
        assert!(Ipv4Packet::new_checked(&bad[..]).is_err());
        let mut opts = buf.clone();
        opts[0] = 0x46; // IHL 6 (options)
        assert!(Ipv4Packet::new_checked(&opts[..]).is_err());
    }

    #[test]
    fn payload_bounded_by_total_len() {
        let repr = sample();
        let mut buf = vec![0u8; repr.packet_len() + 10]; // trailing link pad
        repr.emit(&mut buf);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.payload().len(), 8);
    }

    #[test]
    fn protocol_byte_roundtrip() {
        assert_eq!(IpProtocol::from_byte(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from_byte(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from_byte(89), IpProtocol::Unknown(89));
        assert_eq!(IpProtocol::Unknown(89).to_byte(), 89);
    }
}
