//! TCP header (RFC 793, no options — Hydra's MSS is carried out of band
//! by the simulator configuration, as the paper fixes MSS = 1357 B).

use core::fmt;

use crate::error::{Result, WireError};
use crate::ipv4::Ipv4Repr;

/// TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN bit.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN bit.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST bit.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH bit.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK bit.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Union of two flag sets.
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// True if every bit of `other` is set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if any bit of `other` is set.
    pub const fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// The paper's "pure TCP ACK" test, evaluated on flags alone:
    /// ACK set, and none of SYN/FIN/RST (connection setup/teardown/abort).
    /// Callers must additionally require an empty payload.
    pub const fn is_bare_ack(self) -> bool {
        self.contains(TcpFlags::ACK)
            && !self.intersects(TcpFlags(TcpFlags::SYN.0 | TcpFlags::FIN.0 | TcpFlags::RST.0))
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (bit, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
        ] {
            if self.contains(bit) {
                if any {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// High-level TCP segment representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number (meaningful if ACK flag set).
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
}

impl TcpRepr {
    /// Emits header + payload into `buf` (`HEADER_LEN + payload.len()`),
    /// computing the checksum from `ip`'s pseudo-header.
    pub fn emit(&self, ip: &Ipv4Repr, payload: &[u8], buf: &mut [u8]) {
        assert_eq!(buf.len(), HEADER_LEN + payload.len(), "tcp emit buffer size");
        buf[HEADER_LEN..].copy_from_slice(payload);
        self.emit_header(ip, buf);
    }

    /// Writes the header in front of a payload that is already in place
    /// (`segment[HEADER_LEN..]`) and fills in the checksum over both —
    /// for callers that build the payload straight into the packet.
    pub fn emit_header(&self, ip: &Ipv4Repr, segment: &mut [u8]) {
        assert!(segment.len() >= HEADER_LEN, "tcp emit buffer size");
        let buf = segment;
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        buf[12] = (5u8) << 4; // data offset = 5 words
        buf[13] = self.flags.0;
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..18].copy_from_slice(&0u16.to_be_bytes()); // checksum
        buf[18..20].copy_from_slice(&0u16.to_be_bytes()); // urgent
        let mut ck = ip.pseudo_header();
        ck.add_bytes(buf);
        let sum = ck.finish();
        buf[16..18].copy_from_slice(&sum.to_be_bytes());
    }

    /// Parses and verifies a TCP segment; returns (repr, payload).
    pub fn parse<'a>(ip: &Ipv4Repr, data: &'a [u8]) -> Result<(TcpRepr, &'a [u8])> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let offset = ((data[12] >> 4) as usize) * 4;
        if offset < HEADER_LEN || offset > data.len() {
            return Err(WireError::Malformed);
        }
        // Verify checksum over the whole segment.
        let mut ck = ip.pseudo_header();
        ck.add_bytes(data);
        if ck.finish() != 0 {
            return Err(WireError::Checksum);
        }
        Ok((
            TcpRepr {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
                ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
                flags: TcpFlags(data[13] & 0x1F),
                window: u16::from_be_bytes([data[14], data[15]]),
            },
            &data[offset..],
        ))
    }

    /// The paper's "pure TCP ACK" predicate for a whole segment.
    pub fn is_pure_ack(&self, payload_len: usize) -> bool {
        payload_len == 0 && self.flags.is_bare_ack()
    }
}

/// Fast wire-level pure-ACK test used by the MAC classifier, *without*
/// checksum verification (the classifier runs on the transmit path where
/// the segment was locally generated; cost matters, validity is given).
///
/// `segment` is the TCP header + payload; `total_len` is its full length.
pub fn looks_like_pure_ack(segment: &[u8]) -> bool {
    if segment.len() < HEADER_LEN {
        return false;
    }
    let offset = ((segment[12] >> 4) as usize) * 4;
    if offset < HEADER_LEN || offset > segment.len() {
        return false;
    }
    let payload_len = segment.len() - offset;
    payload_len == 0 && TcpFlags(segment[13] & 0x1F).is_bare_ack()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;
    use crate::ipv4::IpProtocol;

    fn ip_for(payload_len: usize) -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 3),
            protocol: IpProtocol::Tcp,
            ttl: 64,
            payload_len: HEADER_LEN + payload_len,
        }
    }

    fn sample(flags: TcpFlags) -> TcpRepr {
        TcpRepr { src_port: 4000, dst_port: 80, seq: 0x1234_5678, ack: 0x9ABC_DEF0, flags, window: 65_000 }
    }

    #[test]
    fn roundtrip_with_payload() {
        let repr = sample(TcpFlags::ACK.union(TcpFlags::PSH));
        let payload = b"file chunk";
        let ip = ip_for(payload.len());
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        repr.emit(&ip, payload, &mut buf);
        let (parsed, data) = TcpRepr::parse(&ip, &buf).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(data, payload);
    }

    #[test]
    fn checksum_covers_payload_and_pseudoheader() {
        let repr = sample(TcpFlags::ACK);
        let payload = b"x".to_vec();
        let ip = ip_for(payload.len());
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        repr.emit(&ip, &payload, &mut buf);
        // Payload corruption detected.
        let mut bad = buf.clone();
        bad[HEADER_LEN] ^= 1;
        assert_eq!(TcpRepr::parse(&ip, &bad).err(), Some(WireError::Checksum));
        // Pseudo-header (address) change detected.
        let mut other_ip = ip;
        other_ip.dst = Ipv4Addr::new(10, 0, 0, 9);
        assert_eq!(TcpRepr::parse(&other_ip, &buf).err(), Some(WireError::Checksum));
    }

    #[test]
    fn pure_ack_predicate() {
        assert!(sample(TcpFlags::ACK).is_pure_ack(0));
        assert!(!sample(TcpFlags::ACK).is_pure_ack(10)); // data
        assert!(!sample(TcpFlags::ACK.union(TcpFlags::SYN)).is_pure_ack(0)); // handshake
        assert!(!sample(TcpFlags::ACK.union(TcpFlags::FIN)).is_pure_ack(0)); // teardown
        assert!(!sample(TcpFlags::ACK.union(TcpFlags::RST)).is_pure_ack(0));
        assert!(!sample(TcpFlags::SYN).is_pure_ack(0)); // no ACK bit
    }

    #[test]
    fn wire_level_pure_ack_matches_repr() {
        for (flags, payload_len) in [
            (TcpFlags::ACK, 0usize),
            (TcpFlags::ACK, 5),
            (TcpFlags::ACK.union(TcpFlags::SYN), 0),
            (TcpFlags::ACK.union(TcpFlags::FIN), 0),
            (TcpFlags::ACK.union(TcpFlags::PSH), 0),
        ] {
            let repr = sample(flags);
            let payload = vec![0xAB; payload_len];
            let ip = ip_for(payload_len);
            let mut buf = vec![0u8; HEADER_LEN + payload_len];
            repr.emit(&ip, &payload, &mut buf);
            assert_eq!(
                looks_like_pure_ack(&buf),
                repr.is_pure_ack(payload_len),
                "flags={flags} len={payload_len}"
            );
        }
    }

    #[test]
    fn pure_ack_with_psh_still_pure() {
        // PSH on an empty segment is unusual but not setup/teardown;
        // flags-wise it stays a bare ACK.
        assert!(TcpFlags::ACK.union(TcpFlags::PSH).is_bare_ack());
    }

    #[test]
    fn truncated_and_malformed() {
        let ip = ip_for(0);
        assert_eq!(TcpRepr::parse(&ip, &[0; 10]).err(), Some(WireError::Truncated));
        let repr = sample(TcpFlags::ACK);
        let mut buf = vec![0u8; HEADER_LEN];
        repr.emit(&ip, &[], &mut buf);
        buf[12] = 3 << 4; // offset < 5 words
        assert!(TcpRepr::parse(&ip, &buf).is_err());
        assert!(!looks_like_pure_ack(&buf));
        assert!(!looks_like_pure_ack(&[0; 5]));
    }

    #[test]
    fn flags_display() {
        assert_eq!(format!("{}", TcpFlags::SYN.union(TcpFlags::ACK)), "SYN|ACK");
        assert_eq!(format!("{}", TcpFlags::default()), "-");
    }
}
