//! Property-based tests for the wire formats: arbitrary-input round-trips
//! and robustness of every parser against random corruption.

use proptest::prelude::*;

use hydra_wire::aggregate::{parse_aggregate, AggregateBuilder, Portion};
use hydra_wire::builder::{build_tcp_packet, build_udp_packet, is_pure_tcp_ack, parse_mpdu_payload, L4};
use hydra_wire::control::{ControlFrame, MAX_CONTROL_LEN};
use hydra_wire::crc::{crc32, Crc32};
use hydra_wire::encap::{EncapProto, EncapRepr};
use hydra_wire::phy_hdr::{PhyHeader, RateCode};
use hydra_wire::subframe::{FrameType, Subframe, SubframeRepr};
use hydra_wire::tcp::{TcpFlags, TcpRepr};
use hydra_wire::udp::UdpRepr;
use hydra_wire::{Ipv4Addr, MacAddr};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr)
}

fn arb_subframe_repr() -> impl Strategy<Value = SubframeRepr> {
    (arb_mac(), arb_mac(), arb_mac(), any::<u16>(), any::<bool>(), any::<bool>()).prop_map(
        |(a1, a2, a3, dur, retry, no_ack)| SubframeRepr {
            frame_type: FrameType::Data,
            retry,
            no_ack,
            duration_us: dur,
            addr1: a1,
            addr2: a2,
            addr3: a3,
        },
    )
}

fn arb_control(kind: i32, duration_us: u16, ra: MacAddr, ta: MacAddr, bitmap: u64) -> ControlFrame {
    match kind {
        0 => ControlFrame::Rts { duration_us, ra, ta },
        1 => ControlFrame::Cts { duration_us, ra },
        2 => ControlFrame::Ack { duration_us, ra },
        _ => ControlFrame::BlockAck { duration_us, ra, bitmap },
    }
}

/// CRC-32 by its definition, one bit at a time: the oracle both routes
/// of `hydra_wire::crc` (tables, carry-less-multiply folding) answer to.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, start alignment, split points: one-shot (folds
    /// when the CPU can), fed in 16-byte pieces (never folds — pieces
    /// are under the threshold) and cut at two arbitrary points (each
    /// part picks its own route from its own length, the later parts
    /// starting from an arbitrary state) all equal the definition.
    #[test]
    fn crc32_routes_and_splits_agree_with_the_definition(
        buf in proptest::collection::vec(any::<u8>(), 15..5300),
        offset in 0usize..16,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let data = &buf[offset.min(buf.len())..];
        let want = crc32_bitwise(data);
        prop_assert_eq!(crc32(data), want);

        let mut pieces = Crc32::new();
        for piece in data.chunks(16) {
            pieces.update(piece);
        }
        prop_assert_eq!(pieces.finish(), want);

        let (a, b) = ((cut_a * data.len() as f64) as usize, (cut_b * data.len() as f64) as usize);
        let (a, b) = (a.min(b), a.max(b));
        let mut split = Crc32::new();
        split.update(&data[..a]);
        split.update(&data[a..b]);
        split.update(&data[b..]);
        prop_assert_eq!(split.finish(), want);
    }

    #[test]
    fn subframe_roundtrip(repr in arb_subframe_repr(), payload in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let bytes = repr.to_bytes(&payload);
        // On-air invariants: aligned, min size, FCS valid.
        prop_assert_eq!(bytes.len() % 4, 0);
        prop_assert!(bytes.len() >= hydra_wire::subframe::MIN_SUBFRAME);
        let view = Subframe::new_checked(&bytes[..]).unwrap();
        prop_assert!(view.verify_fcs());
        prop_assert_eq!(view.payload(), &payload[..]);
        let parsed = SubframeRepr::parse(&view).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn subframe_corruption_detected(repr in arb_subframe_repr(),
                                    payload in proptest::collection::vec(any::<u8>(), 1..1200),
                                    flip_bit in 0usize..8,
                                    pos_frac in 0.0f64..1.0) {
        let mut bytes = repr.to_bytes(&payload);
        // Corrupt a byte within the FCS-covered region (header+payload).
        let covered = hydra_wire::subframe::HEADER_LEN + payload.len();
        let pos = ((covered as f64 * pos_frac) as usize).min(covered - 1);
        bytes[pos] ^= 1 << flip_bit;
        let view = Subframe::new_unchecked(&bytes[..]);
        // Either the structure check fails (length field hit) or the FCS fails.
        prop_assert!(view.check_len().is_err() || !view.verify_fcs());
    }

    #[test]
    fn crc32_differs_on_any_single_bitflip(data in proptest::collection::vec(any::<u8>(), 1..512),
                                           byte_frac in 0.0f64..1.0, bit in 0usize..8) {
        let pos = ((data.len() as f64 * byte_frac) as usize).min(data.len() - 1);
        let good = crc32(&data);
        let mut bad = data.clone();
        bad[pos] ^= 1 << bit;
        prop_assert_ne!(crc32(&bad), good);
    }

    #[test]
    fn phy_header_roundtrip(b_rate in 0u8..8, u_rate in 0u8..8, b_len in any::<u16>(), u_len in any::<u16>()) {
        let h = PhyHeader { bcast_rate: RateCode(b_rate), ucast_rate: RateCode(u_rate), bcast_len: b_len, ucast_len: u_len };
        prop_assert_eq!(PhyHeader::parse(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn phy_header_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        let _ = PhyHeader::parse(&bytes);
    }

    #[test]
    fn control_frames_roundtrip(dur in any::<u16>(), ra in arb_mac(), ta in arb_mac(), bitmap in any::<u64>(), kind in 0..4) {
        let f = arb_control(kind, dur, ra, ta, bitmap);
        // One serialiser: `emit` into a scratch that is too long and
        // pre-filled must write exactly the bytes `to_bytes` returns and
        // nothing past them.
        let mut buf = [0xA5u8; MAX_CONTROL_LEN + 3];
        let n = f.emit(&mut buf);
        let bytes = f.to_bytes();
        prop_assert_eq!(n, f.on_air_len());
        prop_assert_eq!(&buf[..n], &bytes[..]);
        prop_assert!(buf[n..].iter().all(|&b| b == 0xA5));
        prop_assert_eq!(ControlFrame::parse(&bytes).unwrap(), f);
    }

    #[test]
    fn control_frames_reject_any_flipped_bit(dur in any::<u16>(), ra in arb_mac(), ta in arb_mac(), bitmap in any::<u64>()) {
        // Every byte position of every variant, every bit: a single flip
        // anywhere — type, duration, addresses, bitmap or the FCS itself —
        // never parses, whichever check catches it.
        for kind in 0..4 {
            let bytes = arb_control(kind, dur, ra, ta, bitmap).to_bytes();
            for pos in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[pos] ^= 1 << bit;
                    prop_assert!(ControlFrame::parse(&bad).is_err(), "kind {} byte {} bit {}", kind, pos, bit);
                }
            }
        }
    }

    #[test]
    fn control_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = ControlFrame::parse(&bytes);
    }

    #[test]
    fn aggregate_roundtrip(
        bcast_payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..5),
        ucast_payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..1500), 0..5),
        repr in arb_subframe_repr(),
    ) {
        let mut b = AggregateBuilder::new();
        for p in &bcast_payloads {
            b.push_broadcast(&repr, p);
        }
        for p in &ucast_payloads {
            b.push_unicast(&repr, p);
        }
        let (hdr, psdu, slots) = b.finish(RateCode(0), RateCode(1));
        prop_assert_eq!(psdu.len(), hdr.total_len());
        let parsed = parse_aggregate(&hdr, &psdu);
        prop_assert_eq!(parsed.len(), bcast_payloads.len() + ucast_payloads.len());
        for (i, p) in parsed.iter().enumerate() {
            prop_assert!(p.fcs_ok);
            prop_assert_eq!(p.range.clone(), slots[i].range.clone());
            let expect_portion = if i < bcast_payloads.len() { Portion::Broadcast } else { Portion::Unicast };
            prop_assert_eq!(p.portion, expect_portion);
        }
        // Payload content survives.
        for (i, p) in bcast_payloads.iter().enumerate() {
            let view = parsed[i].view();
            prop_assert_eq!(view.payload(), &p[..]);
        }
        for (i, p) in ucast_payloads.iter().enumerate() {
            let view = parsed[bcast_payloads.len() + i].view();
            prop_assert_eq!(view.payload(), &p[..]);
        }
    }

    #[test]
    fn aggregate_parser_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        b_len in any::<u16>(),
        u_len in any::<u16>(),
    ) {
        let hdr = PhyHeader { bcast_rate: RateCode(0), ucast_rate: RateCode(0), bcast_len: b_len, ucast_len: u_len };
        let _ = parse_aggregate(&hdr, &bytes);
    }

    #[test]
    fn tcp_packet_roundtrip(
        src in arb_ipv4(), dst in arb_ipv4(),
        sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let repr = TcpRepr { src_port: sp, dst_port: dp, seq, ack, flags: TcpFlags::ACK, window };
        let encap = EncapRepr { proto: EncapProto::Ipv4, src_node: 1, dst_node: 2, packet_id: 3 };
        let bytes = build_tcp_packet(encap, src, dst, 64, &repr, &payload);
        let parsed = parse_mpdu_payload(&bytes).unwrap();
        match parsed.l4 {
            L4::Tcp(r, p) => {
                prop_assert_eq!(r, repr);
                prop_assert_eq!(p, &payload[..]);
            }
            _ => prop_assert!(false, "expected TCP"),
        }
        // Classifier consistency: pure iff empty payload (flags are bare ACK).
        prop_assert_eq!(is_pure_tcp_ack(&bytes), payload.is_empty());
    }

    #[test]
    fn udp_packet_roundtrip(
        src in arb_ipv4(), dst in arb_ipv4(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let repr = UdpRepr { src_port: sp, dst_port: dp };
        let encap = EncapRepr { proto: EncapProto::Ipv4, src_node: 1, dst_node: 2, packet_id: 3 };
        let bytes = build_udp_packet(encap, src, dst, 64, &repr, &payload);
        let parsed = parse_mpdu_payload(&bytes).unwrap();
        match parsed.l4 {
            L4::Udp(r, p) => {
                prop_assert_eq!(r, repr);
                prop_assert_eq!(p, &payload[..]);
            }
            _ => prop_assert!(false, "expected UDP"),
        }
        prop_assert!(!is_pure_tcp_ack(&bytes));
    }

    #[test]
    fn mpdu_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_mpdu_payload(&bytes);
        let _ = is_pure_tcp_ack(&bytes);
    }
}
