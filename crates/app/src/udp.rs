//! UDP constant-bit-rate source and measuring sink (paper §5: "an
//! application that simply sent UDP packets at a controllable rate").

use hydra_sim::{Duration, Instant};
use hydra_wire::Endpoint;

/// Link/stack overhead between a UDP payload and its MAC frame:
/// MAC header 26 + FCS 4 + shim 37 + IP 20 + UDP 8.
const UDP_FRAME_OVERHEAD: usize = 26 + 4 + 37 + 20 + 8;

/// The UDP payload size that yields the paper's 1140 B MAC frames.
pub const PAPER_UDP_PAYLOAD: usize = 1140 - UDP_FRAME_OVERHEAD;

/// The on-phase shape of an on/off source: `burst` packets spaced the
/// source's `interval` apart, then `idle` of silence before the next
/// burst — one period is `(burst - 1) · interval + idle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnOff {
    /// Packets per on-phase (≥ 1).
    pub burst: u32,
    /// Gap between the last packet of one burst and the first of the
    /// next (> 0).
    pub idle: Duration,
}

/// A CBR source: one `payload_len`-byte datagram every `interval`.
/// With [`UdpCbr::on_off`] it becomes a bursty on/off source instead.
#[derive(Debug)]
pub struct UdpCbr {
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Our source port.
    pub src_port: u16,
    /// Datagram payload size.
    pub payload_len: usize,
    /// Inter-packet interval.
    pub interval: Duration,
    /// First transmission time.
    pub start: Instant,
    /// Stop time (exclusive); `None` = run forever.
    pub stop: Option<Instant>,
    /// On/off burst shape; `None` = plain CBR.
    pub on_off: Option<OnOff>,
    next_send: Instant,
    sent_in_burst: u32,
    seq: u32,
}

impl UdpCbr {
    /// Creates a source; first packet at `start`.
    pub fn new(dst: Endpoint, src_port: u16, payload_len: usize, interval: Duration, start: Instant) -> Self {
        assert!(payload_len >= 4, "payload must hold a sequence number");
        UdpCbr {
            dst,
            src_port,
            payload_len,
            interval,
            start,
            stop: None,
            on_off: None,
            next_send: start,
            sent_in_burst: 0,
            seq: 0,
        }
    }

    /// Limits the sending window.
    pub fn until(mut self, stop: Instant) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Switches to on/off mode: bursts of `burst` packets (spaced
    /// `interval` apart) separated by `idle` of silence.
    pub fn on_off(mut self, burst: u32, idle: Duration) -> Self {
        assert!(burst >= 1, "a burst needs at least one packet");
        assert!(!idle.is_zero(), "idle must be positive");
        self.on_off = Some(OnOff { burst, idle });
        self
    }

    /// Emits all datagrams due by `now`; returns payloads and the next
    /// wake-up time (None when finished).
    pub fn poll(&mut self, now: Instant) -> (Vec<Vec<u8>>, Option<Instant>) {
        let mut out = Vec::new();
        while let Some(seq) = self.next_due(now) {
            let mut payload = Vec::with_capacity(self.payload_len);
            Self::write_payload(seq, self.payload_len, &mut payload);
            out.push(payload);
        }
        (out, self.next_wake(now))
    }

    /// The sequence number of the next datagram due by `now`, counting it
    /// as sent; `None` once nothing more is due (or the source stopped).
    /// The caller serialises it with [`UdpCbr::write_payload`] wherever
    /// the packet is being built, and calls again until `None`.
    pub fn next_due(&mut self, now: Instant) -> Option<u32> {
        if self.next_send > now || self.stop.is_some_and(|stop| self.next_send >= stop) {
            return None;
        }
        let seq = self.seq;
        self.seq += 1;
        self.next_send += match self.on_off {
            Some(OnOff { burst, idle }) => {
                self.sent_in_burst += 1;
                if self.sent_in_burst >= burst {
                    self.sent_in_burst = 0;
                    idle
                } else {
                    self.interval
                }
            }
            None => self.interval,
        };
        Some(seq)
    }

    /// When to poll again once [`UdpCbr::next_due`] has returned `None`
    /// for `now`; `None` when the source has finished.
    pub fn next_wake(&self, now: Instant) -> Option<Instant> {
        (self.next_send > now).then_some(self.next_send)
    }

    /// Appends datagram `seq`'s `len` payload bytes to `out`: the sequence
    /// number, then a deterministic filler so corruption tests can verify
    /// content.
    pub fn write_payload(seq: u32, len: usize, out: &mut Vec<u8>) {
        let at = out.len();
        out.resize(at + len, 0);
        let payload = &mut out[at..];
        payload[..4].copy_from_slice(&seq.to_be_bytes());
        // A counting loop over a slice vectorises; `extend` with the same
        // closure writes a byte at a time.
        for (i, b) in payload[4..].iter_mut().enumerate() {
            *b = (seq as usize + i) as u8;
        }
    }
}

/// Per-destination-port receive statistics of a [`UdpSink`].
///
/// One sink node can terminate several flows (distinct ports); keeping
/// the counters — and the duplicate-detection window — per port keeps
/// concurrent flows from corrupting each other's stats (both start at
/// sequence 0).
#[derive(Debug, Default, Clone)]
pub struct PortStats {
    /// Datagrams received.
    pub packets: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// Duplicate datagrams detected (and excluded from the counts).
    pub duplicates: u64,
    seen_window: std::collections::VecDeque<u32>,
}

impl PortStats {
    fn on_datagram(&mut self, payload: &[u8]) -> bool {
        if payload.len() >= 4 {
            let seq = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
            if self.seen_window.contains(&seq) {
                self.duplicates += 1;
                return false;
            }
            if self.seen_window.len() >= 128 {
                self.seen_window.pop_front();
            }
            self.seen_window.push_back(seq);
        }
        self.packets += 1;
        self.bytes += payload.len() as u64;
        true
    }
}

/// A sink recording goodput, overall and per destination port.
#[derive(Debug, Default)]
pub struct UdpSink {
    /// Datagrams received (all ports).
    pub packets: u64,
    /// Payload bytes received (all ports).
    pub bytes: u64,
    /// Duplicates detected (all ports).
    pub duplicates: u64,
    /// Per-destination-port statistics, in deterministic port order.
    ports: std::collections::BTreeMap<u16, PortStats>,
}

impl UdpSink {
    /// Creates a sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one datagram received on destination port `dst_port`.
    pub fn on_datagram(&mut self, dst_port: u16, payload: &[u8]) {
        let port = self.ports.entry(dst_port).or_default();
        if port.on_datagram(payload) {
            self.packets += 1;
            self.bytes += payload.len() as u64;
        } else {
            self.duplicates += 1;
        }
    }

    /// Statistics for one destination port, if anything arrived there.
    pub fn port(&self, dst_port: u16) -> Option<&PortStats> {
        self.ports.get(&dst_port)
    }

    /// Payload bytes received on one destination port.
    pub fn port_bytes(&self, dst_port: u16) -> u64 {
        self.ports.get(&dst_port).map_or(0, |p| p.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_wire::Ipv4Addr;

    fn dst() -> Endpoint {
        Endpoint::new(Ipv4Addr::from_node_id(1), 9000)
    }

    #[test]
    fn paper_payload_gives_1140_byte_frames() {
        assert_eq!(PAPER_UDP_PAYLOAD + UDP_FRAME_OVERHEAD, 1140);
        assert_eq!(PAPER_UDP_PAYLOAD, 1045);
    }

    #[test]
    fn cbr_emits_on_schedule() {
        let mut cbr = UdpCbr::new(dst(), 1, 100, Duration::from_millis(10), Instant::ZERO);
        let (pkts, next) = cbr.poll(Instant::ZERO);
        assert_eq!(pkts.len(), 1);
        assert_eq!(next, Some(Instant::from_millis(10)));
        // Nothing due yet.
        let (pkts, _) = cbr.poll(Instant::from_millis(5));
        assert!(pkts.is_empty());
        // Catch up over a long gap.
        let (pkts, _) = cbr.poll(Instant::from_millis(50));
        assert_eq!(pkts.len(), 5);
        assert_eq!(cbr.seq, 6, "one sequence number per datagram");
    }

    #[test]
    fn cbr_respects_stop() {
        let mut cbr = UdpCbr::new(dst(), 1, 100, Duration::from_millis(10), Instant::ZERO)
            .until(Instant::from_millis(25));
        let (pkts, next) = cbr.poll(Instant::from_millis(100));
        assert_eq!(pkts.len(), 3); // t = 0, 10, 20
        assert_eq!(next, None);
    }

    #[test]
    fn payload_carries_sequence() {
        let mut cbr = UdpCbr::new(dst(), 1, 64, Duration::from_millis(1), Instant::ZERO);
        let (pkts, _) = cbr.poll(Instant::from_millis(2));
        assert_eq!(u32::from_be_bytes(pkts[0][..4].try_into().unwrap()), 0);
        assert_eq!(u32::from_be_bytes(pkts[2][..4].try_into().unwrap()), 2);
    }

    #[test]
    fn sink_counts_and_dedups() {
        let mut sink = UdpSink::new();
        let mut p = vec![0u8; 100];
        sink.on_datagram(9000, &p);
        sink.on_datagram(9000, &p); // duplicate seq 0
        p[..4].copy_from_slice(&1u32.to_be_bytes());
        sink.on_datagram(9000, &p);
        assert_eq!(sink.packets, 2);
        assert_eq!(sink.duplicates, 1);
        assert_eq!(sink.bytes, 200);
        assert_eq!(sink.port(9000).unwrap().duplicates, 1);
    }

    #[test]
    fn sink_keeps_flows_sharing_a_node_separate() {
        // Two flows into one node, both starting at sequence 0: the
        // second flow's packets must not register as duplicates, and the
        // per-port counters must split the bytes correctly.
        let mut sink = UdpSink::new();
        let p = vec![0u8; 100]; // seq 0
        sink.on_datagram(9000, &p);
        sink.on_datagram(9001, &p);
        let mut q = vec![0u8; 50];
        q[..4].copy_from_slice(&1u32.to_be_bytes());
        sink.on_datagram(9001, &q);
        assert_eq!(sink.duplicates, 0, "flows must not collide in the dedup window");
        assert_eq!(sink.packets, 3);
        assert_eq!(sink.bytes, 250);
        assert_eq!(sink.port_bytes(9000), 100);
        assert_eq!(sink.port_bytes(9001), 150);
        assert_eq!(sink.port(9001).unwrap().packets, 2);
        assert_eq!(sink.port_bytes(1234), 0);
    }

    #[test]
    fn on_off_bursts_then_idles() {
        // Bursts of 3 packets 1 ms apart, 10 ms idle: period 12 ms.
        let mut src = UdpCbr::new(dst(), 1, 100, Duration::from_millis(1), Instant::ZERO)
            .on_off(3, Duration::from_millis(10));
        let (pkts, next) = src.poll(Instant::from_millis(2));
        assert_eq!(pkts.len(), 3, "full burst at t = 0, 1, 2 ms");
        assert_eq!(next, Some(Instant::from_millis(12)), "idle gap after the burst");
        let (pkts, _) = src.poll(Instant::from_millis(11));
        assert!(pkts.is_empty(), "silent during the off phase");
        let (pkts, next) = src.poll(Instant::from_millis(14));
        assert_eq!(pkts.len(), 3, "next burst at t = 12, 13, 14 ms");
        assert_eq!(next, Some(Instant::from_millis(24)));
        // Sequence numbers keep running across bursts.
        assert_eq!(src.seq, 6);
    }

    #[test]
    fn on_off_single_packet_burst_is_periodic_at_idle() {
        let mut src = UdpCbr::new(dst(), 1, 100, Duration::from_millis(1), Instant::ZERO)
            .on_off(1, Duration::from_millis(5));
        let (pkts, next) = src.poll(Instant::from_millis(10));
        assert_eq!(pkts.len(), 3); // t = 0, 5, 10
        assert_eq!(next, Some(Instant::from_millis(15)));
    }
}
