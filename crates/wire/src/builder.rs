//! Whole-packet construction and parsing across the encapsulation stack.
//!
//! An MPDU payload in this system is always `shim | IPv4 | L4 | data` (or
//! `shim | raw` for link-local flooding traffic). These helpers build and
//! dissect that stack in one call, and implement the wire-level primitive
//! behind the paper's cross-layer TCP-ACK classifier.

use crate::addr::Ipv4Addr;
use crate::encap::{EncapProto, EncapRepr, HEADER_LEN as ENCAP_LEN};
use crate::error::{Result, WireError};
use crate::ipv4::{IpProtocol, Ipv4Packet, Ipv4Repr, HEADER_LEN as IPV4_LEN};
use crate::tcp::{self, TcpRepr};
use crate::udp::{self, UdpRepr};

/// Builds `shim | IPv4 | TCP | payload` as one owned buffer.
pub fn build_tcp_packet(
    encap: EncapRepr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ttl: u8,
    tcp_repr: &TcpRepr,
    payload: &[u8],
) -> Vec<u8> {
    let seg_len = tcp::HEADER_LEN + payload.len();
    let ip = Ipv4Repr { src, dst, protocol: IpProtocol::Tcp, ttl, payload_len: seg_len };
    let mut out = vec![0u8; ENCAP_LEN + IPV4_LEN + seg_len];
    encap.emit(&mut out[..ENCAP_LEN]);
    ip.emit(&mut out[ENCAP_LEN..]);
    tcp_repr.emit(&ip, payload, &mut out[ENCAP_LEN + IPV4_LEN..]);
    out
}

/// Builds `shim | IPv4 | UDP | payload` as one owned buffer.
pub fn build_udp_packet(
    encap: EncapRepr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ttl: u8,
    udp_repr: &UdpRepr,
    payload: &[u8],
) -> Vec<u8> {
    let dgram_len = udp::HEADER_LEN + payload.len();
    let ip = Ipv4Repr { src, dst, protocol: IpProtocol::Udp, ttl, payload_len: dgram_len };
    let mut out = vec![0u8; ENCAP_LEN + IPV4_LEN + dgram_len];
    encap.emit(&mut out[..ENCAP_LEN]);
    ip.emit(&mut out[ENCAP_LEN..]);
    udp_repr.emit(&ip, payload, &mut out[ENCAP_LEN + IPV4_LEN..]);
    out
}

/// Builds `shim | raw payload` (flooding beacons, control chatter).
pub fn build_raw_packet(mut encap: EncapRepr, payload: &[u8]) -> Vec<u8> {
    encap.proto = EncapProto::Raw;
    encap.wrap(payload)
}

/// The transport content of a parsed MPDU payload.
#[derive(Debug, Clone)]
pub enum L4<'a> {
    /// TCP segment (verified checksum) and its payload.
    Tcp(TcpRepr, &'a [u8]),
    /// UDP datagram (verified checksum) and its payload.
    Udp(UdpRepr, &'a [u8]),
    /// Raw link-local payload (no IP layer).
    Raw(&'a [u8]),
}

/// A fully dissected MPDU payload.
#[derive(Debug, Clone)]
pub struct ParsedMpdu<'a> {
    /// Encapsulation shim.
    pub encap: EncapRepr,
    /// IP header, if the shim carries IPv4.
    pub ip: Option<Ipv4Repr>,
    /// Transport content.
    pub l4: L4<'a>,
}

/// Dissects `shim | [IPv4 | L4]` with full validation.
pub fn parse_mpdu_payload(data: &[u8]) -> Result<ParsedMpdu<'_>> {
    let (encap, inner) = EncapRepr::parse(data)?;
    match encap.proto {
        EncapProto::Raw => Ok(ParsedMpdu { encap, ip: None, l4: L4::Raw(inner) }),
        EncapProto::Ipv4 => {
            let pkt = Ipv4Packet::new_checked(inner)?;
            let ip = Ipv4Repr::parse(&pkt)?;
            let l4_bytes = &inner[IPV4_LEN..ip.packet_len()];
            let l4 = match ip.protocol {
                IpProtocol::Tcp => {
                    let (repr, payload) = TcpRepr::parse(&ip, l4_bytes)?;
                    L4::Tcp(repr, payload)
                }
                IpProtocol::Udp => {
                    let (repr, payload) = UdpRepr::parse(&ip, l4_bytes)?;
                    L4::Udp(repr, payload)
                }
                IpProtocol::Unknown(_) => return Err(WireError::Malformed),
            };
            Ok(ParsedMpdu { encap, ip: Some(ip), l4 })
        }
    }
}

/// The wire-level cross-layer classifier primitive (paper §4.2.4).
///
/// Returns true if an MPDU payload is a *pure TCP ACK*: IPv4 + TCP, no
/// payload bytes, ACK flag set, none of SYN/FIN/RST. This deliberately
/// skips checksum verification — it runs on the transmit path against
/// locally generated packets, mirroring the cheap Click classifier the
/// paper uses.
pub fn is_pure_tcp_ack(mpdu_payload: &[u8]) -> bool {
    if mpdu_payload.len() < ENCAP_LEN + IPV4_LEN + tcp::HEADER_LEN {
        return false;
    }
    let Ok((encap, inner)) = EncapRepr::parse(mpdu_payload) else {
        return false;
    };
    if encap.proto != EncapProto::Ipv4 {
        return false;
    }
    let Ok(pkt) = Ipv4Packet::new_checked(inner) else {
        return false;
    };
    if pkt.protocol() != IpProtocol::Tcp {
        return false;
    }
    tcp::looks_like_pure_ack(pkt.payload())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    fn encap() -> EncapRepr {
        EncapRepr { proto: EncapProto::Ipv4, src_node: 0, dst_node: 2, packet_id: 7 }
    }

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn tcp_packet_roundtrip() {
        let tcp_repr = TcpRepr {
            src_port: 5001,
            dst_port: 5002,
            seq: 100,
            ack: 200,
            flags: TcpFlags::ACK.union(TcpFlags::PSH),
            window: 30_000,
        };
        let bytes = build_tcp_packet(encap(), a(1), a(3), 64, &tcp_repr, b"DATA");
        let parsed = parse_mpdu_payload(&bytes).unwrap();
        assert_eq!(parsed.encap, encap());
        let ip = parsed.ip.unwrap();
        assert_eq!(ip.src, a(1));
        assert_eq!(ip.dst, a(3));
        match parsed.l4 {
            L4::Tcp(r, p) => {
                assert_eq!(r, tcp_repr);
                assert_eq!(p, b"DATA");
            }
            _ => panic!("expected tcp"),
        }
    }

    #[test]
    fn udp_packet_roundtrip() {
        let udp_repr = UdpRepr { src_port: 9, dst_port: 10 };
        let bytes = build_udp_packet(encap(), a(1), a(2), 32, &udp_repr, &[0xEE; 64]);
        let parsed = parse_mpdu_payload(&bytes).unwrap();
        match parsed.l4 {
            L4::Udp(r, p) => {
                assert_eq!(r, udp_repr);
                assert_eq!(p.len(), 64);
            }
            _ => panic!("expected udp"),
        }
    }

    #[test]
    fn raw_packet_roundtrip() {
        let bytes = build_raw_packet(
            EncapRepr { proto: EncapProto::Raw, src_node: 5, dst_node: u16::MAX, packet_id: 0 },
            b"FLOOD",
        );
        let parsed = parse_mpdu_payload(&bytes).unwrap();
        assert!(parsed.ip.is_none());
        match parsed.l4 {
            L4::Raw(p) => assert_eq!(p, b"FLOOD"),
            _ => panic!("expected raw"),
        }
    }

    #[test]
    fn classifier_accepts_only_pure_acks() {
        let pure = TcpRepr { src_port: 1, dst_port: 2, seq: 10, ack: 20, flags: TcpFlags::ACK, window: 1000 };
        let bytes = build_tcp_packet(encap(), a(3), a(1), 64, &pure, &[]);
        assert!(is_pure_tcp_ack(&bytes));

        // Data segment: not pure.
        let bytes = build_tcp_packet(encap(), a(1), a(3), 64, &pure, b"payload");
        assert!(!is_pure_tcp_ack(&bytes));

        // SYN-ACK (connection setup): not pure.
        let syn_ack = TcpRepr { flags: TcpFlags::ACK.union(TcpFlags::SYN), ..pure };
        let bytes = build_tcp_packet(encap(), a(1), a(3), 64, &syn_ack, &[]);
        assert!(!is_pure_tcp_ack(&bytes));

        // FIN-ACK (teardown): not pure.
        let fin_ack = TcpRepr { flags: TcpFlags::ACK.union(TcpFlags::FIN), ..pure };
        let bytes = build_tcp_packet(encap(), a(1), a(3), 64, &fin_ack, &[]);
        assert!(!is_pure_tcp_ack(&bytes));

        // UDP: not pure.
        let bytes = build_udp_packet(encap(), a(1), a(3), 64, &UdpRepr { src_port: 1, dst_port: 2 }, &[]);
        assert!(!is_pure_tcp_ack(&bytes));

        // Raw: not pure.
        let bytes = build_raw_packet(
            EncapRepr { proto: EncapProto::Raw, src_node: 0, dst_node: 0, packet_id: 0 },
            &[],
        );
        assert!(!is_pure_tcp_ack(&bytes));

        // Garbage: not pure, no panic.
        assert!(!is_pure_tcp_ack(&[]));
        assert!(!is_pure_tcp_ack(&[0xFF; 200]));
    }

    #[test]
    fn paper_frame_payload_sizes() {
        // Pure ACK MPDU payload: 37 + 20 + 20 = 77 bytes.
        let pure = TcpRepr { src_port: 1, dst_port: 2, seq: 0, ack: 1, flags: TcpFlags::ACK, window: 1 };
        let bytes = build_tcp_packet(encap(), a(3), a(1), 64, &pure, &[]);
        assert_eq!(bytes.len(), 77);
        // Full MSS data MPDU payload: 37 + 20 + 20 + 1357 = 1434 bytes.
        let data = TcpRepr { flags: TcpFlags::ACK, ..pure };
        let bytes = build_tcp_packet(encap(), a(1), a(3), 64, &data, &vec![0; 1357]);
        assert_eq!(bytes.len(), 1434);
    }

    #[test]
    fn parse_rejects_corrupt_ip() {
        let pure = TcpRepr { src_port: 1, dst_port: 2, seq: 0, ack: 1, flags: TcpFlags::ACK, window: 1 };
        let mut bytes = build_tcp_packet(encap(), a(3), a(1), 64, &pure, &[]);
        bytes[ENCAP_LEN + 12] ^= 0xFF; // IP src corrupted
        assert!(parse_mpdu_payload(&bytes).is_err());
    }
}
