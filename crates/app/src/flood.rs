//! Broadcast flooding generator (paper §6.3: "to simulate flooding, each
//! node generated broadcast frames at a fixed rate").
//!
//! Models the route-discovery chatter of DSR/AODV-style protocols: small
//! link-local broadcast frames emitted on a fixed interval by every node.

use hydra_sim::{Duration, Instant};

/// A fixed-rate broadcast flooder.
#[derive(Debug)]
pub struct Flooder {
    /// Interval between broadcasts.
    pub interval: Duration,
    /// Raw payload size (a small route-discovery-like packet).
    pub payload_len: usize,
    /// First transmission.
    pub start: Instant,
    /// Stop (exclusive).
    pub stop: Option<Instant>,
    next_send: Instant,
    seq: u32,
    /// Broadcasts emitted.
    pub sent: u64,
}

impl Flooder {
    /// Creates a flooder emitting `payload_len`-byte beacons.
    pub fn new(interval: Duration, payload_len: usize, start: Instant) -> Self {
        assert!(payload_len >= 4);
        // A zero interval would spin `poll_into` forever inside one event.
        assert!(!interval.is_zero(), "flood interval must be positive");
        Flooder { interval, payload_len, start, stop: None, next_send: start, seq: 0, sent: 0 }
    }

    /// Limits the flooding window.
    pub fn until(mut self, stop: Instant) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Emits all beacons due by `now`; returns payloads + next wake.
    pub fn poll(&mut self, now: Instant) -> (Vec<Vec<u8>>, Option<Instant>) {
        let mut out = Vec::new();
        let wake = self.poll_into(now, &mut out);
        (out, wake)
    }

    /// [`Flooder::poll`] appending into a caller-recycled buffer (the
    /// event loop's allocation-light variant); returns the next wake.
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<Vec<u8>>) -> Option<Instant> {
        while self.next_send <= now {
            if let Some(stop) = self.stop {
                if self.next_send >= stop {
                    return None;
                }
            }
            let mut payload = vec![0x5A; self.payload_len];
            payload[..4].copy_from_slice(&self.seq.to_be_bytes());
            self.seq += 1;
            self.sent += 1;
            out.push(payload);
            self.next_send += self.interval;
        }
        Some(self.next_send)
    }
}

/// Counts flood beacons heard.
#[derive(Debug, Default)]
pub struct FloodSink {
    /// Beacons received.
    pub received: u64,
    /// Bytes received.
    pub bytes: u64,
}

impl FloodSink {
    /// Creates a sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a beacon.
    pub fn on_beacon(&mut self, payload: &[u8]) {
        self.received += 1;
        self.bytes += payload.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "flood interval must be positive")]
    fn a_zero_interval_is_refused_at_construction() {
        Flooder::new(Duration::ZERO, 32, Instant::ZERO);
    }

    #[test]
    fn emits_at_interval() {
        let mut f = Flooder::new(Duration::from_millis(500), 32, Instant::ZERO);
        let (b, next) = f.poll(Instant::from_millis(1400));
        assert_eq!(b.len(), 3); // 0, 500, 1000
        assert_eq!(next, Some(Instant::from_millis(1500)));
        assert_eq!(f.sent, 3);
    }

    #[test]
    fn staggered_start() {
        let mut f = Flooder::new(Duration::from_millis(100), 32, Instant::from_millis(37));
        let (b, _) = f.poll(Instant::ZERO);
        assert!(b.is_empty());
        let (b, _) = f.poll(Instant::from_millis(37));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn stop_bound() {
        let mut f =
            Flooder::new(Duration::from_millis(100), 32, Instant::ZERO).until(Instant::from_millis(250));
        let (b, next) = f.poll(Instant::from_secs(10));
        assert_eq!(b.len(), 3);
        assert_eq!(next, None);
    }

    #[test]
    fn sink_counts() {
        let mut s = FloodSink::new();
        s.on_beacon(&[0; 64]);
        s.on_beacon(&[0; 64]);
        assert_eq!(s.received, 2);
        assert_eq!(s.bytes, 128);
    }
}
