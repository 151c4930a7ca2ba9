//! TCP tuning knobs.

use hydra_sim::Duration;

/// TCP configuration, shared by both ends in the experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// Maximum segment size in bytes. The paper fixes 1357 B so a full
    /// segment yields a 1464 B MAC frame.
    pub mss: usize,
    /// Receive buffer (advertised window ceiling; no window scaling,
    /// matching 2008-era defaults).
    pub recv_buffer: usize,
    /// Send buffer capacity. The 2008 Linux default (`tcp_wmem[1]` =
    /// 16 KB) caps in-flight data at ~12 segments of the paper's MSS.
    /// This bound is what keeps relay aggregation at the paper's observed
    /// depth (its Table 3/8 frame sizes imply a shallow pipe) while still
    /// feeding 3-hop pipelines (the Table 3 and Table 8 rows of
    /// docs/REPRODUCTION.md).
    pub send_buffer: usize,
    /// Initial congestion window in segments (RFC 2581: 2).
    pub initial_cwnd_segments: u32,
    /// Initial slow-start threshold in bytes ("infinite" start).
    pub initial_ssthresh: u32,
    /// Initial RTO before the first RTT sample (RFC 6298: 1 s).
    pub rto_initial: Duration,
    /// Lower RTO clamp.
    pub rto_min: Duration,
    /// Upper RTO clamp.
    pub rto_max: Duration,
    /// Delayed ACKs (off by default: the paper's receiver ACKs every
    /// segment, which its Table 8 frame counts confirm).
    pub delayed_ack: bool,
    /// Delayed-ACK flush timeout.
    pub delayed_ack_timeout: Duration,
    /// Give up after this many consecutive RTOs of one segment.
    pub max_retransmits: u32,
    /// TIME-WAIT dwell (scaled-down 2·MSL for simulation).
    pub time_wait: Duration,
}

impl TcpConfig {
    /// The paper's configuration (§5).
    pub fn hydra_paper() -> Self {
        TcpConfig {
            mss: 1357,
            recv_buffer: 65_535,
            send_buffer: 16_384,
            initial_cwnd_segments: 2,
            initial_ssthresh: u32::MAX,
            rto_initial: Duration::from_secs(1),
            rto_min: Duration::from_millis(200),
            rto_max: Duration::from_secs(60),
            delayed_ack: false,
            delayed_ack_timeout: Duration::from_millis(40),
            max_retransmits: 12,
            time_wait: Duration::from_millis(500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mss_yields_1464_byte_frames() {
        let cfg = TcpConfig::hydra_paper();
        // MAC(26) + shim(37) + IP(20) + TCP(20) + MSS + FCS(4) = 1464.
        assert_eq!(26 + 37 + 20 + 20 + cfg.mss + 4, 1464);
    }

    #[test]
    fn sane_defaults() {
        let cfg = TcpConfig::hydra_paper();
        assert!(cfg.rto_min < cfg.rto_initial);
        assert!(cfg.rto_initial < cfg.rto_max);
        assert!(cfg.recv_buffer <= u16::MAX as usize, "no window scaling");
        assert!(!cfg.delayed_ack);
    }
}
