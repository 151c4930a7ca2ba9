//! The Hydra/Click encapsulation shim.
//!
//! On the real testbed, packets leaving the Linux stack pass through Click
//! elements that prepend routing/bookkeeping headers before the frame
//! reaches the MAC. We model that stack-up as a single 37-byte shim: the
//! size is chosen so an MSS=1357 B TCP segment produces exactly the
//! paper's 1464 B MAC frame (26 MAC hdr + 37 shim + 20 IP + 20 TCP +
//! 1357 payload + 4 FCS), and a pure TCP ACK produces the paper's 160 B
//! frame after minimum-size padding.

use crate::error::{Result, WireError};

/// Encapsulation header length.
pub const HEADER_LEN: usize = 37;

const MAGIC: u8 = 0x48; // ASCII 'H' for Hydra

/// Payload protocol identifiers carried by the shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncapProto {
    /// IPv4 datagram.
    Ipv4,
    /// Raw link-local payload (flooding beacons etc.).
    Raw,
}

impl EncapProto {
    fn to_u16(self) -> u16 {
        match self {
            EncapProto::Ipv4 => 0x0800,
            EncapProto::Raw => 0x88B5,
        }
    }

    fn from_u16(v: u16) -> Result<Self> {
        match v {
            0x0800 => Ok(EncapProto::Ipv4),
            0x88B5 => Ok(EncapProto::Raw),
            _ => Err(WireError::Malformed),
        }
    }
}

/// High-level shim representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncapRepr {
    /// Payload protocol.
    pub proto: EncapProto,
    /// Originating node id (debug aid, mirrors Click annotations).
    pub src_node: u16,
    /// Final destination node id, `u16::MAX` for broadcast.
    pub dst_node: u16,
    /// Per-source monotonically increasing packet id.
    pub packet_id: u32,
}

impl EncapRepr {
    /// Emits into `buf[..HEADER_LEN]`, zeroing reserved bytes.
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(buf.len() >= HEADER_LEN, "encap emit buffer too small");
        buf[..HEADER_LEN].fill(0);
        buf[0] = MAGIC;
        buf[1..3].copy_from_slice(&self.proto.to_u16().to_be_bytes());
        buf[3..5].copy_from_slice(&self.src_node.to_be_bytes());
        buf[5..7].copy_from_slice(&self.dst_node.to_be_bytes());
        buf[7..11].copy_from_slice(&self.packet_id.to_be_bytes());
        // bytes 11..37 reserved (Click annotation space on the testbed)
    }

    /// Builds shim + payload as an owned vector.
    pub fn wrap(&self, payload: &[u8]) -> Vec<u8> {
        // Sized once; only the shim is zeroed before it is written.
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.resize(HEADER_LEN, 0);
        self.emit(&mut out);
        out.extend_from_slice(payload);
        out
    }

    /// Parses the shim; returns (repr, inner payload).
    pub fn parse(data: &[u8]) -> Result<(EncapRepr, &[u8])> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[0] != MAGIC {
            return Err(WireError::Malformed);
        }
        let proto = EncapProto::from_u16(u16::from_be_bytes([data[1], data[2]]))?;
        Ok((
            EncapRepr {
                proto,
                src_node: u16::from_be_bytes([data[3], data[4]]),
                dst_node: u16::from_be_bytes([data[5], data[6]]),
                packet_id: u32::from_be_bytes([data[7], data[8], data[9], data[10]]),
            },
            &data[HEADER_LEN..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let repr = EncapRepr { proto: EncapProto::Ipv4, src_node: 1, dst_node: 3, packet_id: 42 };
        let wrapped = repr.wrap(b"inner");
        assert_eq!(wrapped.len(), HEADER_LEN + 5);
        let (parsed, inner) = EncapRepr::parse(&wrapped).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(inner, b"inner");
    }

    #[test]
    fn header_len_is_papers_37() {
        assert_eq!(HEADER_LEN, 37);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let repr = EncapRepr { proto: EncapProto::Raw, src_node: 0, dst_node: 0, packet_id: 0 };
        let mut wrapped = repr.wrap(&[]);
        wrapped[0] = 0x00;
        assert_eq!(EncapRepr::parse(&wrapped).err(), Some(WireError::Malformed));
        assert_eq!(EncapRepr::parse(&[0; 10]).err(), Some(WireError::Truncated));
    }

    #[test]
    fn rejects_unknown_proto() {
        let repr = EncapRepr { proto: EncapProto::Ipv4, src_node: 0, dst_node: 0, packet_id: 0 };
        let mut wrapped = repr.wrap(&[]);
        wrapped[1] = 0xDE;
        wrapped[2] = 0xAD;
        assert_eq!(EncapRepr::parse(&wrapped).err(), Some(WireError::Malformed));
    }
}
