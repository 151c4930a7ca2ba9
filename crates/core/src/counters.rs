//! MAC-level counters feeding the paper's Tables 3–8.

use std::ops::Index;

use hydra_sim::Duration;

/// An airtime category: Table 4's decomposition of a node's time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    /// MPDU payload bits (the "useful" time; excludes padding).
    Payload,
    /// MAC subframe headers + FCS + padding.
    MacHeader,
    /// PHY preamble + PHY header.
    Phy,
    /// RTS/CTS/ACK airtime (including their preambles).
    Control,
    /// DIFS waits.
    Difs,
    /// SIFS waits within exchanges.
    Sifs,
    /// Backoff slots actually elapsed.
    Backoff,
}

impl Cat {
    /// Every category, in declaration order: a [`Ledger`]'s slots, and
    /// the order a stored ledger is written in. A new variant is listed
    /// here too, or it has no slot and its first [`Ledger::add`] panics.
    pub const ALL: [Cat; 7] =
        [Cat::Payload, Cat::MacHeader, Cat::Phy, Cat::Control, Cat::Difs, Cat::Sifs, Cat::Backoff];
}

/// Airtime by [`Cat`] in exact nanoseconds, one slot per category, so
/// no category can be missing from [`Ledger::total`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger(pub [Duration; Cat::ALL.len()]);

impl Ledger {
    /// Adds `d` to `cat`.
    pub fn add(&mut self, cat: Cat, d: Duration) {
        self.0[cat as usize] += d;
    }

    /// Sum over all categories.
    pub fn total(&self) -> Duration {
        self.0.iter().fold(Duration::ZERO, |acc, &d| acc + d)
    }

    /// Time overhead fraction per Table 4: everything except payload
    /// time, over the total attributable time.
    pub fn time_overhead(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            return 0.0;
        }
        (total - self[Cat::Payload]).as_secs_f64() / total.as_secs_f64()
    }
}

impl Index<Cat> for Ledger {
    type Output = Duration;

    fn index(&self, cat: Cat) -> &Duration {
        &self.0[cat as usize]
    }
}

/// Everything a MAC counts. Plain data; netsim aggregates into reports.
#[derive(Debug, Default)]
pub struct MacCounters {
    /// Data-frame (aggregate) transmissions, including retries.
    pub tx_data_frames: u64,
    /// RTS transmissions.
    pub tx_rts: u64,
    /// CTS transmissions.
    pub tx_cts: u64,
    /// Link-ACK transmissions (normal or block).
    pub tx_acks: u64,
    /// Retransmissions of unicast bursts.
    pub retries: u64,
    /// Unicast bursts dropped after exhausting the retry limit.
    pub retry_drops: u64,
    /// Subframes sent in the unicast portion (incl. retries).
    pub tx_unicast_subframes: u64,
    /// Subframes sent in the broadcast portion.
    pub tx_broadcast_subframes: u64,

    /// Total PSDU bytes transmitted in data frames (Tables 3/5/8 divide
    /// it by `tx_data_frames`).
    pub tx_psdu_bytes: u64,
    /// Of which MAC headers + FCS + padding (size overhead numerator,
    /// together with PHY header bytes — Tables 3/6).
    pub tx_overhead_bytes: u64,
    /// PHY header bytes transmitted (data frames).
    pub tx_phy_header_bytes: u64,

    /// Airtime ledger (Table 4).
    pub time: Ledger,

    /// Aggregates received intact (unicast portion fully valid & ours).
    pub rx_unicast_ok: u64,
    /// Unicast portions discarded because a subframe CRC failed (the
    /// all-or-nothing rule of paper §4.2.2).
    pub rx_unicast_crc_drop: u64,
    /// Broadcast subframes accepted (ours or true broadcast).
    pub rx_broadcast_ok: u64,
    /// Broadcast subframes that failed CRC.
    pub rx_broadcast_crc_fail: u64,
    /// Broadcast subframes decoded fine but addressed elsewhere —
    /// the paper's decode-and-drop for classified TCP ACKs.
    pub rx_broadcast_filtered: u64,
    /// Duplicate link ACKs / stray control frames ignored.
    pub rx_control_ignored: u64,
    /// Block-ACK mode: subframes individually recovered.
    pub rx_block_subframes_ok: u64,
}

impl MacCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size overhead fraction: (MAC header + FCS + pad + PHY header
    /// bytes) / total bytes on air in data frames (Tables 3/6).
    pub fn size_overhead(&self) -> f64 {
        let total = self.tx_psdu_bytes + self.tx_phy_header_bytes;
        if total == 0 {
            return 0.0;
        }
        (self.tx_overhead_bytes + self.tx_phy_header_bytes) as f64 / total as f64
    }

    /// Average transmitted data-frame (PSDU) size in bytes (0 before
    /// the first data frame).
    pub fn avg_frame_size(&self) -> f64 {
        match self.tx_data_frames {
            0 => 0.0,
            n => self.tx_psdu_bytes as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_overhead_empty_is_zero() {
        assert_eq!(MacCounters::new().size_overhead(), 0.0);
    }

    #[test]
    fn size_overhead_math() {
        let mut c = MacCounters::new();
        c.tx_psdu_bytes = 900;
        c.tx_overhead_bytes = 90;
        c.tx_phy_header_bytes = 100;
        // (90 + 100) / (900 + 100) = 0.19
        assert!((c.size_overhead() - 0.19).abs() < 1e-12);
    }

    #[test]
    fn time_overhead_math() {
        let mut l = Ledger::default();
        assert_eq!(l.time_overhead(), 0.0);
        l.add(Cat::Payload, Duration::from_micros(750));
        l.add(Cat::MacHeader, Duration::from_micros(100));
        l.add(Cat::Difs, Duration::from_micros(150));
        assert_eq!((l[Cat::Payload], l[Cat::Sifs]), (Duration::from_micros(750), Duration::ZERO));
        assert_eq!(l.total(), Duration::from_micros(1000));
        assert!((l.time_overhead() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn frame_size_stats() {
        let mut c = MacCounters::new();
        assert_eq!(c.avg_frame_size(), 0.0);
        c.tx_data_frames = 2;
        c.tx_psdu_bytes = 3000;
        assert_eq!(c.avg_frame_size(), 1500.0);
    }
}
