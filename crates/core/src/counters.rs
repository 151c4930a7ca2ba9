//! MAC-level counters feeding the paper's Tables 3–8.

use hydra_sim::{Duration, Running, TimeLedger};

/// Time-ledger category names (Table 4's overhead decomposition).
pub mod cat {
    /// MPDU payload bits (the "useful" time; excludes padding).
    pub const PAYLOAD: &str = "payload";
    /// MAC subframe headers + FCS + padding.
    pub const MAC_HEADER: &str = "mac_header";
    /// PHY preamble + PHY header.
    pub const PHY: &str = "phy";
    /// RTS/CTS/ACK airtime (including their preambles).
    pub const CONTROL: &str = "control";
    /// DIFS waits.
    pub const DIFS: &str = "difs";
    /// SIFS waits within exchanges.
    pub const SIFS: &str = "sifs";
    /// Backoff slots actually elapsed.
    pub const BACKOFF: &str = "backoff";

    /// Every category above. A report rebuilt from stored text maps a
    /// name found here back to the `&'static str`, so it owns no copy.
    pub const ALL: [&str; 7] = [PAYLOAD, MAC_HEADER, PHY, CONTROL, DIFS, SIFS, BACKOFF];
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

    /// PSDU size of each transmitted data frame (bytes) — Tables 3/5/8.
    pub frame_sizes: Running,
    /// Subframes per transmitted data frame.
    pub subframes_per_frame: Running,

    /// Total PSDU bytes transmitted in data frames.
    pub tx_psdu_bytes: u64,
    /// Of which MAC headers + FCS + padding (size overhead numerator,
    /// together with PHY header bytes — Tables 3/6).
    pub tx_overhead_bytes: u64,
    /// PHY header bytes transmitted (data frames).
    pub tx_phy_header_bytes: u64,

    /// Airtime ledger (Table 4).
    pub time: TimeLedger,

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

    /// Time overhead fraction per Table 4: everything except payload time,
    /// over the total attributable time.
    pub fn time_overhead(&self) -> f64 {
        let payload = self.time.get(cat::PAYLOAD);
        let overhead = self.time.total_except(cat::PAYLOAD);
        let total = payload + overhead;
        if total.is_zero() {
            return 0.0;
        }
        overhead.as_secs_f64() / total.as_secs_f64()
    }

    /// Average transmitted data-frame size in bytes.
    pub fn avg_frame_size(&self) -> f64 {
        self.frame_sizes.mean()
    }

    /// Total airtime attributed to this MAC's transmissions.
    pub fn busy_time(&self) -> Duration {
        self.time.total()
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
        let mut c = MacCounters::new();
        c.time.add(cat::PAYLOAD, Duration::from_micros(750));
        c.time.add(cat::MAC_HEADER, Duration::from_micros(100));
        c.time.add(cat::DIFS, Duration::from_micros(150));
        assert!((c.time_overhead() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn frame_size_stats() {
        let mut c = MacCounters::new();
        c.frame_sizes.push(1000.0);
        c.frame_sizes.push(2000.0);
        assert_eq!(c.avg_frame_size(), 1500.0);
    }
}
