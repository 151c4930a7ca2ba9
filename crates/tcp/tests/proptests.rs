//! Property tests: TCP reassembly must reconstruct the exact byte stream
//! under arbitrary segmentation, reordering (bounded), and duplication.

use proptest::prelude::*;

use hydra_sim::{Duration, Instant};
use hydra_tcp::{seq, Connection, TcpConfig, TcpStack, TcpState};
use hydra_wire::ipv4::{IpProtocol, Ipv4Repr};
use hydra_wire::tcp::{TcpFlags, TcpRepr};
use hydra_wire::{Endpoint, Ipv4Addr};

fn established_receiver(iss_peer: u32) -> Connection {
    let local = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
    let mut c = Connection::listen(TcpConfig::hydra_paper(), local, 500);
    c.set_remote_addr(Ipv4Addr::new(10, 0, 0, 1));
    let now = Instant::ZERO;
    c.on_segment(
        now,
        &TcpRepr { src_port: 9, dst_port: 80, seq: iss_peer, ack: 0, flags: TcpFlags::SYN, window: 65_000 },
        &[],
    );
    let (synack, _) = c.poll_transmit(now).expect("syn-ack");
    c.on_segment(
        now,
        &TcpRepr {
            src_port: 9,
            dst_port: 80,
            seq: iss_peer.wrapping_add(1),
            ack: synack.seq.wrapping_add(1),
            flags: TcpFlags::ACK,
            window: 65_000,
        },
        &[],
    );
    assert_eq!(c.state(), TcpState::Established);
    c
}

/// A segment as the far stack will see it: parsed back out of the
/// emitted bytes, checksum verified.
struct InFlight {
    due_step: usize,
    ip: Ipv4Repr,
    repr: TcpRepr,
    payload: Vec<u8>,
}

/// Polls `from` and parses what it emits.
fn emitted(from: &mut TcpStack, now: Instant) -> Vec<(Ipv4Repr, TcpRepr, Vec<u8>)> {
    let src = from.addr();
    from.poll_transmit(now)
        .into_iter()
        .map(|seg| {
            let ip = Ipv4Repr {
                src,
                dst: seg.dst,
                protocol: IpProtocol::Tcp,
                ttl: 64,
                payload_len: seg.bytes.len(),
            };
            let (repr, payload) = TcpRepr::parse(&ip, &seg.bytes).expect("a stack emits valid segments");
            (ip, repr, payload.to_vec())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The send buffer is a ring; this drives it round its seam many
    /// times. Small buffers, arbitrary `send` sizes (so segment
    /// boundaries and cumulative ACKs land anywhere), a network that
    /// drops, delays and reorders, and an application that drains only
    /// now and then (so the receive side sees closed windows and
    /// out-of-order fill). Every data segment that leaves the sender —
    /// first transmission or retransmission, contiguous in the ring or
    /// cut by its seam — must carry exactly the stream's bytes at its
    /// sequence number, and the receiver must hand the application the
    /// stream, whole and in order.
    #[test]
    fn ring_buffers_keep_the_stream_across_their_seams(
        stream in proptest::collection::vec(any::<u8>(), 1..40_000),
        send_sizes in proptest::collection::vec(1usize..4000, 1..24),
        mss in 40usize..1400,
        send_buffer in 1500usize..9000,
        recv_buffer in 3000usize..20_000,
        iss in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let cfg = TcpConfig { mss, send_buffer, recv_buffer, ..TcpConfig::hydra_paper() };
        let (a_addr, b_addr) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let (mut a, mut b) = (TcpStack::new(a_addr), TcpStack::new(b_addr));
        let rx = b.listen(cfg.clone(), 80, 7);
        let tx = a.connect(cfg, 4000, Endpoint::new(b_addr, 80), iss);
        let base = seq::add(iss, 1); // sequence number of stream[0]

        let mut rng = seed | 1;
        let mut draw = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };

        let mut now = Instant::ZERO;
        let (mut written, mut next_size) = (0usize, 0usize);
        let mut received: Vec<u8> = Vec::new();
        let mut to_b: Vec<InFlight> = Vec::new();
        let mut to_a: Vec<InFlight> = Vec::new();
        // How often each data sequence number was dropped: at most
        // twice, so the sender never runs out of retransmissions.
        let mut drops: std::collections::HashMap<u32, u8> = std::collections::HashMap::new();
        // Segments that resend bytes already sent once (they start below
        // the high-water mark), and that mark.
        let (mut retransmitted, mut sent_end) = (0usize, 0usize);

        let mut step = 0usize;
        while received.len() < stream.len() {
            step += 1;
            prop_assert!(step < 20_000, "transfer stalled at {} / {} bytes", received.len(), stream.len());
            // One step is 60 ms — or, when the network is empty and both
            // ends are only waiting on a timer, the jump to that timer.
            now += Duration::from_millis(60);
            if to_a.is_empty() && to_b.is_empty() {
                if let Some(t) = [a.poll_timeout(), b.poll_timeout()].into_iter().flatten().min() {
                    now = now.max(t);
                }
            }
            a.on_tick(now);
            b.on_tick(now);

            // Sender application: the next arbitrary-sized write.
            if written < stream.len() && a.socket(tx).is_established() {
                let n = send_sizes[next_size % send_sizes.len()].min(stream.len() - written);
                next_size += 1;
                written += a.socket(tx).send(&stream[written..written + n]);
            }

            // Sender → network. Data segments are checked against the
            // stream, then dropped, delayed (= reordered) or delivered.
            for (ip, repr, payload) in emitted(&mut a, now) {
                if !payload.is_empty() {
                    let off = seq::sub(repr.seq, base) as usize;
                    prop_assert!(off + payload.len() <= written, "segment beyond what was written");
                    prop_assert_eq!(&payload[..], &stream[off..off + payload.len()], "bytes at seq offset {}", off);
                    if off < sent_end {
                        retransmitted += 1;
                    }
                    sent_end = sent_end.max(off + payload.len());
                    let dropped = drops.entry(repr.seq).or_insert(0);
                    if *dropped < 2 && draw(5) == 0 {
                        *dropped += 1;
                        continue;
                    }
                }
                to_b.push(InFlight { due_step: step + draw(4) as usize, ip, repr, payload });
            }
            // Network → receiver, in due order (a stable sort: equal due
            // steps keep emission order).
            to_b.sort_by_key(|s| s.due_step);
            while to_b.first().is_some_and(|s| s.due_step <= step) {
                let s = to_b.remove(0);
                b.on_segment(now, &s.ip, &s.repr, &s.payload);
            }

            // Receiver application: drains about one step in three, so
            // the receive buffer fills and advertises small windows.
            if draw(3) == 0 {
                received.extend(b.socket(rx).recv_drain());
            }

            // Receiver → sender: ACKs, one in six lost (never the
            // handshake's), delivered next step.
            for (ip, repr, payload) in emitted(&mut b, now) {
                if !repr.flags.contains(TcpFlags::SYN) && draw(6) == 0 {
                    continue;
                }
                to_a.push(InFlight { due_step: step + 1, ip, repr, payload });
            }
            while to_a.first().is_some_and(|s| s.due_step <= step) {
                let s = to_a.remove(0);
                a.on_segment(now, &s.ip, &s.repr, &s.payload);
            }
            if written == stream.len() {
                // Everything is in flight or queued: drain every step so
                // the tail cannot wait on the coin.
                received.extend(b.socket(rx).recv_drain());
            }
        }
        prop_assert_eq!(&received, &stream, "the application got the stream, in order, once");
        // A check on this test as much as on TCP: bytes the network
        // dropped can only have arrived by being sent again.
        prop_assert!(drops.values().all(|&n| n == 0) || retransmitted > 0, "a drop was never retransmitted");
    }

    #[test]
    fn reassembly_exact_under_segmentation_reorder_and_dup(
        stream in proptest::collection::vec(any::<u8>(), 1..3000),
        cuts in proptest::collection::vec(1usize..200, 1..30),
        swap_seed in any::<u64>(),
        dup_every in 2usize..6,
        iss in any::<u32>(), // exercises sequence wraparound
    ) {
        // Split the stream into segments at arbitrary cut sizes.
        let mut segments: Vec<(usize, Vec<u8>)> = Vec::new(); // (offset, bytes)
        let mut at = 0;
        let mut cut_iter = cuts.iter().cycle();
        while at < stream.len() {
            let len = (*cut_iter.next().unwrap()).min(stream.len() - at);
            segments.push((at, stream[at..at + len].to_vec()));
            at += len;
        }

        // Bounded reordering: swap adjacent pairs pseudo-randomly. The
        // receive window is large, so any order within it reassembles.
        let mut rng = swap_seed;
        let mut order: Vec<usize> = (0..segments.len()).collect();
        for i in 1..order.len() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            if rng & 1 == 1 {
                order.swap(i - 1, i);
            }
        }

        // Duplicate every n-th delivery.
        let mut deliveries: Vec<usize> = Vec::new();
        for (k, idx) in order.iter().enumerate() {
            deliveries.push(*idx);
            if k % dup_every == 0 {
                deliveries.push(*idx);
            }
        }

        let mut c = established_receiver(iss);
        let base = seq::add(iss, 1);
        let now = Instant::ZERO;
        let mut received: Vec<u8> = Vec::new();
        for idx in deliveries {
            let (off, bytes) = &segments[idx];
            let repr = TcpRepr {
                src_port: 9,
                dst_port: 80,
                seq: seq::add(base, *off),
                ack: 0,
                flags: TcpFlags::ACK,
                window: 65_000,
            };
            c.on_segment(now, &repr, bytes);
            received.extend(c.recv_drain());
        }
        received.extend(c.recv_drain());
        prop_assert_eq!(received, stream, "stream must reassemble exactly");
        // Final cumulative ACK covers everything.
        let (ack, _) = c.poll_transmit(now).expect("final ack");
        prop_assert_eq!(ack.ack, seq::add(base, segments.last().map(|(o, b)| o + b.len()).unwrap_or(0)));
    }

    #[test]
    fn seq_ordering_total_within_half_space(a in any::<u32>(), d in 1u32..0x7FFF_FFFF) {
        let b = a.wrapping_add(d);
        prop_assert!(seq::lt(a, b));
        prop_assert!(seq::gt(b, a));
        prop_assert!(seq::le(a, b));
        prop_assert!(!seq::ge(a, b) || a == b);
        prop_assert_eq!(seq::sub(b, a), d);
    }

    #[test]
    fn seq_add_sub_roundtrip(a in any::<u32>(), n in 0usize..0x7FFF_FFFF) {
        let b = seq::add(a, n);
        prop_assert_eq!(seq::sub(b, a) as usize, n);
    }
}
