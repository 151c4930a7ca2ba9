//! The Internet checksum (RFC 1071), used by IPv4/TCP/UDP headers.

/// Ones-complement sum accumulator.
///
/// Internally sums 32-bit big-endian words into a 64-bit accumulator —
/// RFC 1071 §2(B): the ones-complement sum is independent of the word
/// size it is computed with, because 2^16 ≡ 2^32 ≡ 1 (mod 2^16 − 1), so
/// wide words fold down to the same 16-bit result. Four bytes per add
/// (and a carry-free u64) lets the payload loop run at memory speed
/// instead of two bytes per iteration; TCP data checksums are a
/// per-byte cost on every segment built and delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u64,
}

impl Checksum {
    /// Starts a fresh computation.
    pub fn new() -> Self {
        Checksum { sum: 0 }
    }

    /// Adds a byte slice (odd trailing byte is padded with zero, per RFC).
    ///
    /// Alignment note: a slice fed in several calls must be split on
    /// 16-bit boundaries (every caller here splits header/payload, both
    /// even) — the RFC's words are 16-bit, and `Checksum` only tracks
    /// whole words.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(4);
        for c in &mut chunks {
            self.sum += u32::from_be_bytes([c[0], c[1], c[2], c[3]]) as u64;
        }
        match *chunks.remainder() {
            [a, b, c] => {
                self.sum += (u16::from_be_bytes([a, b]) as u64) + ((u16::from_be_bytes([c, 0])) as u64)
            }
            [a, b] => self.sum += u16::from_be_bytes([a, b]) as u64,
            [a] => self.sum += u16::from_be_bytes([a, 0]) as u64,
            _ => {}
        }
    }

    /// Adds one 16-bit word.
    pub fn add_u16(&mut self, w: u16) {
        self.sum += w as u64;
    }

    /// Finishes: folds carries and complements.
    pub fn finish(&self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Pseudo-header sum for TCP/UDP over IPv4.
pub fn pseudo_header(src: [u8; 4], dst: [u8; 4], protocol: u8, length: u16) -> Checksum {
    let mut c = Checksum::new();
    c.add_bytes(&src);
    c.add_bytes(&dst);
    c.add_u16(protocol as u16);
    c.add_u16(length);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut c = Checksum::new();
        c.add_bytes(&data);
        // Sum is 0x2ddf0 -> fold -> 0xddf2; complement -> 0x220d.
        assert_eq!(c.finish(), 0x220d);
    }

    #[test]
    fn verifies_to_zero_with_checksum_inserted() {
        let mut header =
            vec![0x45, 0x00, 0x00, 0x54, 0x00, 0x00, 0x40, 0x00, 0x40, 0x01, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2];
        let ck = checksum(&header);
        header[10] = (ck >> 8) as u8;
        header[11] = ck as u8;
        // Re-checksumming a correct header yields zero.
        assert_eq!(checksum(&header), 0);
    }

    #[test]
    fn odd_length_padded() {
        let mut c = Checksum::new();
        c.add_bytes(&[0xFF]);
        assert_eq!(c.finish(), !0xFF00);
    }

    #[test]
    fn checksum_detects_corruption() {
        let data = b"some transport payload".to_vec();
        let good = checksum(&data);
        let mut bad = data.clone();
        bad[3] ^= 0x40;
        assert_ne!(checksum(&bad), good);
    }
}
