//! The modified PHY header (paper Figure 2).
//!
//! The paper's broadcast-aggregation design extends the PHY header with a
//! second (rate, length) pair so a single physical frame can carry a
//! broadcast portion and a unicast portion at *different* data rates:
//!
//! ```text
//! | bcast rate(1) | ucast rate(1) | bcast len(2) | ucast len(2) | hcrc(2) |
//! ```
//!
//! Lengths are in bytes of the corresponding PSDU portion. The header is
//! transmitted at the base rate alongside the training sequences and is
//! protected by its own 16-bit CRC (truncated CRC-32), mirroring the
//! SIG-field parity of 802.11.

use crate::crc::crc32;
use crate::error::{Result, WireError};

/// Encoded PHY header length in bytes.
pub const PHY_HDR_LEN: usize = 8;

/// Rate code carried in the PHY header (index into the PHY's rate table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RateCode(pub u8);

/// The decoded dual-rate PHY header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhyHeader {
    /// Rate of the broadcast portion (meaningless if `bcast_len == 0`).
    pub bcast_rate: RateCode,
    /// Rate of the unicast portion (meaningless if `ucast_len == 0`).
    pub ucast_rate: RateCode,
    /// Bytes in the broadcast portion (0 for pure-unicast frames —
    /// backwards compatible with the Figure 1 format).
    pub bcast_len: u16,
    /// Bytes in the unicast portion (0 for broadcast-only frames).
    pub ucast_len: u16,
}

impl PhyHeader {
    /// A header describing a frame with only a unicast portion.
    #[cfg(test)]
    fn unicast_only(rate: RateCode, len: u16) -> Self {
        PhyHeader { bcast_rate: rate, ucast_rate: rate, bcast_len: 0, ucast_len: len }
    }

    /// A header describing a frame with only a broadcast portion.
    #[cfg(test)]
    fn broadcast_only(rate: RateCode, len: u16) -> Self {
        PhyHeader { bcast_rate: rate, ucast_rate: rate, bcast_len: len, ucast_len: 0 }
    }

    /// Total PSDU bytes described.
    pub fn total_len(&self) -> usize {
        self.bcast_len as usize + self.ucast_len as usize
    }

    /// Serializes to `PHY_HDR_LEN` bytes.
    pub fn to_bytes(&self) -> [u8; PHY_HDR_LEN] {
        let mut b = [0u8; PHY_HDR_LEN];
        b[0] = self.bcast_rate.0;
        b[1] = self.ucast_rate.0;
        b[2..4].copy_from_slice(&self.bcast_len.to_le_bytes());
        b[4..6].copy_from_slice(&self.ucast_len.to_le_bytes());
        let crc = (crc32(&b[..6]) & 0xFFFF) as u16;
        b[6..8].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Parses and validates the header CRC.
    pub fn parse(data: &[u8]) -> Result<PhyHeader> {
        if data.len() < PHY_HDR_LEN {
            return Err(WireError::Truncated);
        }
        let stored = u16::from_le_bytes([data[6], data[7]]);
        if (crc32(&data[..6]) & 0xFFFF) as u16 != stored {
            return Err(WireError::Checksum);
        }
        Ok(PhyHeader {
            bcast_rate: RateCode(data[0]),
            ucast_rate: RateCode(data[1]),
            bcast_len: u16::from_le_bytes([data[2], data[3]]),
            ucast_len: u16::from_le_bytes([data[4], data[5]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h =
            PhyHeader { bcast_rate: RateCode(0), ucast_rate: RateCode(3), bcast_len: 480, ucast_len: 4392 };
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), PHY_HDR_LEN);
        assert_eq!(PhyHeader::parse(&bytes).unwrap(), h);
    }

    #[test]
    fn unicast_only_has_zero_bcast() {
        let h = PhyHeader::unicast_only(RateCode(2), 1464);
        assert_eq!(h.bcast_len, 0);
        assert_eq!(h.total_len(), 1464);
    }

    #[test]
    fn broadcast_only_has_zero_ucast() {
        let h = PhyHeader::broadcast_only(RateCode(1), 480);
        assert_eq!(h.ucast_len, 0);
        assert_eq!(h.total_len(), 480);
    }

    #[test]
    fn corrupt_header_detected() {
        let mut bytes = PhyHeader::unicast_only(RateCode(1), 100).to_bytes();
        bytes[2] ^= 0x01;
        assert_eq!(PhyHeader::parse(&bytes).err(), Some(WireError::Checksum));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(PhyHeader::parse(&[0u8; 4]).err(), Some(WireError::Truncated));
    }
}
