//! UDP header (RFC 768).

use crate::error::{Result, WireError};
use crate::ipv4::Ipv4Repr;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// High-level UDP representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpRepr {
    /// Emits header + payload into `buf` (sized `HEADER_LEN + payload`),
    /// computing the checksum over the pseudo-header from `ip`.
    pub fn emit(&self, ip: &Ipv4Repr, payload: &[u8], buf: &mut [u8]) {
        assert_eq!(buf.len(), HEADER_LEN + payload.len(), "udp emit buffer size");
        buf[HEADER_LEN..].copy_from_slice(payload);
        self.emit_header(ip, buf);
    }

    /// Writes the header in front of a payload that is already in place
    /// (`datagram[HEADER_LEN..]`) and fills in the checksum over both —
    /// for callers that build the payload straight into the packet.
    pub fn emit_header(&self, ip: &Ipv4Repr, datagram: &mut [u8]) {
        assert!(datagram.len() >= HEADER_LEN, "udp emit buffer size");
        let buf = datagram;
        let len = buf.len() as u16;
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&len.to_be_bytes());
        buf[6..8].copy_from_slice(&0u16.to_be_bytes());
        let mut ck = ip.pseudo_header();
        ck.add_bytes(buf);
        let mut sum = ck.finish();
        if sum == 0 {
            sum = 0xFFFF; // RFC 768: transmitted as all-ones
        }
        buf[6..8].copy_from_slice(&sum.to_be_bytes());
    }

    /// Parses and verifies a UDP datagram; returns (repr, payload).
    pub fn parse<'a>(ip: &Ipv4Repr, data: &'a [u8]) -> Result<(UdpRepr, &'a [u8])> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < HEADER_LEN || len > data.len() {
            return Err(WireError::BadLength);
        }
        let stored = u16::from_be_bytes([data[6], data[7]]);
        if stored != 0 {
            let mut ck = ip.pseudo_header();
            ck.add_bytes(&data[..4]);
            ck.add_bytes(&data[4..6]);
            ck.add_u16(0);
            ck.add_bytes(&data[8..len]);
            let computed = ck.finish();
            let ok = computed == stored || (computed == 0 && stored == 0xFFFF);
            if !ok {
                return Err(WireError::Checksum);
            }
        }
        Ok((
            UdpRepr {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
            },
            &data[HEADER_LEN..len],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;
    use crate::ipv4::IpProtocol;

    fn ip_for(payload_len: usize) -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            protocol: IpProtocol::Udp,
            ttl: 64,
            payload_len: HEADER_LEN + payload_len,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = UdpRepr { src_port: 5000, dst_port: 6969 };
        let payload = b"hello udp";
        let ip = ip_for(payload.len());
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        repr.emit(&ip, payload, &mut buf);
        let (parsed, data) = UdpRepr::parse(&ip, &buf).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(data, payload);
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let repr = UdpRepr { src_port: 1, dst_port: 2 };
        let payload = b"data".to_vec();
        let ip = ip_for(payload.len());
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        repr.emit(&ip, &payload, &mut buf);
        buf[HEADER_LEN] ^= 0x01;
        assert_eq!(UdpRepr::parse(&ip, &buf).err(), Some(WireError::Checksum));
    }

    #[test]
    fn truncated_rejected() {
        let ip = ip_for(0);
        assert_eq!(UdpRepr::parse(&ip, &[0; 4]).err(), Some(WireError::Truncated));
    }

    #[test]
    fn bad_length_rejected() {
        let repr = UdpRepr { src_port: 1, dst_port: 2 };
        let ip = ip_for(2);
        let mut buf = vec![0u8; HEADER_LEN + 2];
        repr.emit(&ip, &[9, 9], &mut buf);
        buf[4..6].copy_from_slice(&1000u16.to_be_bytes());
        assert_eq!(UdpRepr::parse(&ip, &buf).err(), Some(WireError::BadLength));
    }

    #[test]
    fn empty_payload_ok() {
        let repr = UdpRepr { src_port: 53, dst_port: 53 };
        let ip = ip_for(0);
        let mut buf = vec![0u8; HEADER_LEN];
        repr.emit(&ip, &[], &mut buf);
        let (parsed, data) = UdpRepr::parse(&ip, &buf).unwrap();
        assert_eq!(parsed.src_port, 53);
        assert!(data.is_empty());
    }
}
