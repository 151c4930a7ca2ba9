//! One-way TCP file transfer (paper §5: 0.2 MB file, one direction).

use hydra_sim::Instant;
use hydra_tcp::Connection;

/// The paper's file size.
pub const PAPER_FILE_BYTES: usize = 200 * 1024;

/// Knuth's multiplicative-hash constant (2³² / φ).
const HASH_MUL: u32 = 2654435761;

/// The file's content from offset `start` on, without end.
///
/// The byte at offset `i` is the top byte of `i · 2654435761 (mod 2³²)`,
/// so each byte follows from the last by one wrapping add — no multiply
/// per byte, and loops over this iterator vectorise. Sender and receiver
/// touch every byte of every file; this is their shared inner loop.
fn content_from(start: usize) -> impl Iterator<Item = u8> {
    let mut v = (start as u32).wrapping_mul(HASH_MUL);
    std::iter::repeat_with(move || {
        let b = (v >> 24) as u8;
        v = v.wrapping_add(HASH_MUL);
        b
    })
}

/// Pushes a fixed number of bytes through a TCP connection, then closes.
#[derive(Debug)]
pub struct FileSender {
    /// Total bytes to send.
    pub total: usize,
    /// Bytes handed to the socket so far.
    pub written: usize,
    /// When the first byte was buffered.
    pub started_at: Option<Instant>,
    /// Whether `close` was issued.
    pub closed: bool,
}

impl FileSender {
    /// Creates a sender for `total` bytes.
    pub fn new(total: usize) -> Self {
        FileSender { total, written: 0, started_at: None, closed: false }
    }

    /// Feeds as much of the file as the socket accepts; closes when done.
    /// Call whenever the connection may have freed buffer space.
    pub fn pump(&mut self, now: Instant, conn: &mut Connection) {
        if !conn.is_established() {
            return;
        }
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
        while self.written < self.total {
            let space = conn.send_capacity();
            if space == 0 {
                break;
            }
            let n = space.min(self.total - self.written).min(16 * 1024);
            let chunk: Vec<u8> = content_from(self.written).take(n).collect();
            let accepted = conn.send(&chunk);
            self.written += accepted;
            if accepted < n {
                break;
            }
        }
        if self.written == self.total && !self.closed {
            conn.close();
            self.closed = true;
        }
    }
}

/// Receives a file and records completion time.
#[derive(Debug)]
pub struct FileReceiver {
    /// Bytes expected.
    pub expected: usize,
    /// Bytes received so far.
    pub received: usize,
    /// True if any byte mismatched the deterministic pattern.
    pub corrupted: bool,
    /// First byte arrival.
    pub first_byte_at: Option<Instant>,
    /// When the final byte arrived.
    pub completed_at: Option<Instant>,
}

impl FileReceiver {
    /// Creates a receiver expecting `expected` bytes.
    pub fn new(expected: usize) -> Self {
        FileReceiver { expected, received: 0, corrupted: false, first_byte_at: None, completed_at: None }
    }

    /// Drains the connection's receive buffer, verifying content.
    pub fn pump(&mut self, now: Instant, conn: &mut Connection) {
        let data = conn.recv_drain();
        if data.is_empty() {
            return;
        }
        if self.first_byte_at.is_none() {
            self.first_byte_at = Some(now);
        }
        // Every byte is compared; the differences are OR-ed together
        // rather than branched on.
        let diff = data.iter().zip(content_from(self.received)).fold(0u8, |d, (got, want)| d | (got ^ want));
        self.corrupted |= diff != 0;
        self.received += data.len();
        if self.received >= self.expected && self.completed_at.is_none() {
            self.completed_at = Some(now);
        }
    }

    /// True once the whole file arrived intact.
    pub fn is_complete(&self) -> bool {
        self.received >= self.expected && !self.corrupted
    }

    /// End-to-end throughput in bits/s, measured from `start`.
    pub fn throughput_bps(&self, start: Instant) -> Option<f64> {
        let end = self.completed_at?;
        let secs = end.saturating_duration_since(start).as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(self.expected as f64 * 8.0 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_sim::Duration;
    use hydra_tcp::TcpConfig;
    use hydra_wire::{Endpoint, Ipv4Addr};

    /// The file's byte at offset `i`, one multiply per byte: the oracle
    /// `content_from` must match.
    fn byte_at(i: usize) -> u8 {
        ((i as u32).wrapping_mul(HASH_MUL) >> 24) as u8
    }

    fn pipe() -> (Connection, Connection) {
        let a = Endpoint::new(Ipv4Addr::from_node_id(0), 1);
        let b = Endpoint::new(Ipv4Addr::from_node_id(1), 2);
        let ca = Connection::connect(TcpConfig::hydra_paper(), a, b, 10);
        let mut cb = Connection::listen(TcpConfig::hydra_paper(), b, 20);
        cb.set_remote_addr(a.addr);
        (ca, cb)
    }

    /// Directly couple two connections (zero-delay loopback).
    fn run(ca: &mut Connection, cb: &mut Connection, tx: &mut FileSender, rx: &mut FileReceiver) {
        let mut now = Instant::ZERO;
        for _ in 0..100_000 {
            now += Duration::from_millis(1);
            tx.pump(now, ca);
            let mut quiet = true;
            while let Some((repr, payload)) = ca.poll_transmit(now) {
                cb.on_segment(now, &repr, &payload);
                quiet = false;
            }
            rx.pump(now, cb);
            while let Some((repr, payload)) = cb.poll_transmit(now) {
                ca.on_segment(now, &repr, &payload);
                quiet = false;
            }
            rx.pump(now, cb);
            ca.on_tick(now);
            cb.on_tick(now);
            if quiet && rx.completed_at.is_some() {
                break;
            }
        }
    }

    #[test]
    fn paper_file_transfers_intact() {
        let (mut ca, mut cb) = pipe();
        let mut tx = FileSender::new(PAPER_FILE_BYTES);
        let mut rx = FileReceiver::new(PAPER_FILE_BYTES);
        run(&mut ca, &mut cb, &mut tx, &mut rx);
        assert!(rx.is_complete(), "received {} / {}", rx.received, rx.expected);
        assert!(!rx.corrupted);
        assert!(rx.throughput_bps(Instant::ZERO).unwrap() > 0.0);
    }

    #[test]
    fn sender_closes_after_file() {
        let (mut ca, mut cb) = pipe();
        let mut tx = FileSender::new(10_000);
        let mut rx = FileReceiver::new(10_000);
        run(&mut ca, &mut cb, &mut tx, &mut rx);
        assert!(tx.closed);
        assert!(cb.peer_closed());
    }

    #[test]
    fn content_verification_catches_corruption() {
        let rx = FileReceiver::new(100);
        // Hand-feed wrong bytes through a fake drain: emulate via direct
        // state manipulation is not possible; instead check byte_at is
        // non-trivial (a corruption would be detected with overwhelming
        // probability).
        let pattern: Vec<u8> = (0..100).map(byte_at).collect();
        let distinct: std::collections::HashSet<u8> = pattern.iter().copied().collect();
        assert!(distinct.len() > 10, "pattern must not be constant");
        assert_eq!(rx.received, 0);
    }

    #[test]
    fn content_iterator_is_byte_at() {
        // Across the 32-bit wrap of the offset too.
        for start in [0usize, 1, 12_345, u32::MAX as usize - 700] {
            let want: Vec<u8> = (start..start + 1500).map(byte_at).collect();
            let got: Vec<u8> = content_from(start).take(1500).collect();
            assert_eq!(got, want, "from {start}");
        }
    }

    #[test]
    fn receiver_flags_wrong_content() {
        let (mut ca, mut cb) = pipe();
        let mut tx = FileSender::new(5000);
        let mut rx = FileReceiver::new(5000);
        // Expect the pattern one byte further on than the sender is: nearly
        // every byte then differs from what the receiver checks against.
        rx.received = 1;
        run(&mut ca, &mut cb, &mut tx, &mut rx);
        assert!(rx.corrupted);
        assert!(!rx.is_complete());
    }

    #[test]
    fn throughput_requires_completion() {
        let rx = FileReceiver::new(100);
        assert!(rx.throughput_bps(Instant::ZERO).is_none());
    }
}
