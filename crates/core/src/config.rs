//! MAC configuration: DCF timing, aggregation policy, rates.

use hydra_phy::Rate;
use hydra_sim::Duration;

/// How unicast bursts are acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// One ACK covers the whole unicast portion; any subframe CRC failure
    /// discards the portion and forces a full retransmission (the paper's
    /// §4.2.2 all-or-nothing scheme).
    Normal,
    /// Block ACK: the receiver reports a per-subframe bitmap and only
    /// failed subframes are retransmitted (the paper's §7 future work,
    /// implemented as an extension for ablation).
    Block,
}

/// How the maximum aggregate size is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggSizing {
    /// Fixed byte cap (the paper uses 5 KB for all rates).
    Fixed(usize),
    /// Rate-adaptive: spend at most this many PSDU samples per frame
    /// (the paper's §7 "rate-adaptive frame aggregation" future work;
    /// sizes the aggregate to the channel-coherence budget).
    CoherenceBudget(u64),
}

/// The aggregation policy — which of the paper's mechanisms are active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggPolicy {
    /// Forward aggregation of unicast frames to one destination (UA).
    pub unicast_aggregation: bool,
    /// Mixing broadcast subframes into data frames and aggregating
    /// broadcasts with each other (BA).
    pub broadcast_aggregation: bool,
    /// Classify pure TCP ACKs as link-level broadcasts (BA).
    pub tcp_ack_as_broadcast: bool,
    /// Aggregate size cap.
    pub sizing: AggSizing,
    /// Cap on unicast subframes per frame (1 disables forward
    /// aggregation — paper §6.4.4).
    pub max_unicast_subframes: usize,
    /// Cap on broadcast subframes per frame.
    pub max_broadcast_subframes: usize,
    /// Hold transmission until this many frames are queued (DBA uses 3
    /// at relays — paper §6.4.3). 1 = transmit as soon as possible.
    pub min_frames_before_tx: usize,
    /// Deadlock guard for `min_frames_before_tx > 1`: flush whatever is
    /// queued after this long. The paper does not specify one; the
    /// DBA flush timeout row of docs/REPRODUCTION.md sweeps it.
    pub flush_timeout: Duration,
}

impl AggPolicy {
    /// The paper's maximum aggregation size (§6.1).
    pub const PAPER_MAX_AGG: usize = 5 * 1024;

    /// NA — no aggregation: plain 802.11 DCF, one MPDU per PHY frame.
    pub fn no_aggregation() -> Self {
        AggPolicy {
            unicast_aggregation: false,
            broadcast_aggregation: false,
            tcp_ack_as_broadcast: false,
            sizing: AggSizing::Fixed(Self::PAPER_MAX_AGG),
            max_unicast_subframes: 1,
            max_broadcast_subframes: 1,
            min_frames_before_tx: 1,
            flush_timeout: Duration::from_millis(10),
        }
    }

    /// UA — unicast aggregation only (paper §3.1).
    pub fn unicast() -> Self {
        AggPolicy { unicast_aggregation: true, max_unicast_subframes: usize::MAX, ..Self::no_aggregation() }
    }

    /// BA — broadcast aggregation + TCP ACKs as broadcasts (paper §3.2/3.3).
    pub fn broadcast() -> Self {
        AggPolicy {
            broadcast_aggregation: true,
            tcp_ack_as_broadcast: true,
            max_broadcast_subframes: usize::MAX,
            ..Self::unicast()
        }
    }

    /// DBA — delayed broadcast aggregation: relays wait for 3 frames
    /// (paper §6.4.3).
    pub fn delayed_broadcast() -> Self {
        AggPolicy { min_frames_before_tx: 3, ..Self::broadcast() }
    }

    /// BA with forward aggregation disabled (paper §6.4.4): each frame
    /// carries at most one unicast and one broadcast subframe, so all
    /// benefit comes from combining opposite-direction traffic.
    pub fn broadcast_no_forward() -> Self {
        AggPolicy {
            max_unicast_subframes: 1,
            max_broadcast_subframes: 1,
            unicast_aggregation: false,
            ..Self::broadcast()
        }
    }

    /// Short display name matching the paper's abbreviations.
    pub fn name(&self) -> &'static str {
        if self.min_frames_before_tx > 1 {
            "DBA"
        } else if self.broadcast_aggregation {
            if self.max_unicast_subframes == 1 {
                "BA-nofwd"
            } else {
                "BA"
            }
        } else if self.unicast_aggregation {
            "UA"
        } else {
            "NA"
        }
    }
}

/// Full MAC configuration.
#[derive(Debug, Clone)]
pub struct MacConfig {
    /// Short interframe space.
    pub sifs: Duration,
    /// DCF interframe space.
    pub difs: Duration,
    /// Backoff slot time.
    pub slot: Duration,
    /// Minimum contention window (slots; must be a power of two).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Transmission attempts before a unicast burst is dropped.
    pub retry_limit: u32,
    /// Use RTS/CTS for unicast transmissions (Hydra always does).
    pub rts_cts: bool,
    /// Unicast data rate.
    pub data_rate: Rate,
    /// Broadcast-portion rate; `None` = same as `data_rate` (the paper's
    /// Figure 10 fixes this to study mixed-rate frames).
    pub broadcast_rate: Option<Rate>,
    /// Per-queue capacity in frames.
    pub queue_capacity: usize,
    /// Acknowledgement policy.
    pub ack_policy: AckPolicy,
    /// Aggregation policy.
    pub agg: AggPolicy,
    /// Margin added to CTS/ACK timeouts beyond the expected response end.
    pub timeout_margin: Duration,
}

impl MacConfig {
    /// The calibrated Hydra MAC (checked by the Table 2 and Table 4 rows
    /// of docs/REPRODUCTION.md): SIFS 150 µs,
    /// DIFS 200 µs (SIFS + 2 slots), slot 25 µs, CW 32–1024, 7 retries,
    /// RTS/CTS on. Mean initial backoff is 15.5 slots ≈ 388 µs — the
    /// value back-solved from the paper's Table 2/4 anchors.
    pub fn hydra(data_rate: Rate) -> Self {
        MacConfig {
            sifs: Duration::from_micros(150),
            difs: Duration::from_micros(200),
            slot: Duration::from_micros(25),
            cw_min: 32,
            cw_max: 1024,
            retry_limit: 7,
            rts_cts: true,
            data_rate,
            broadcast_rate: None,
            queue_capacity: 100,
            ack_policy: AckPolicy::Normal,
            agg: AggPolicy::broadcast(),
            timeout_margin: Duration::from_micros(50),
        }
    }

    /// The rate used for the broadcast portion.
    pub fn effective_broadcast_rate(&self) -> Rate {
        self.broadcast_rate.unwrap_or(self.data_rate)
    }

    /// Validates invariants; call after hand-editing a config.
    pub fn validate(&self) -> Result<(), String> {
        if !self.cw_min.is_power_of_two() || self.cw_min == 0 {
            return Err(format!("cw_min must be a power of two, got {}", self.cw_min));
        }
        if self.cw_max < self.cw_min {
            return Err("cw_max < cw_min".into());
        }
        if self.difs <= self.sifs {
            return Err("DIFS must exceed SIFS".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be positive".into());
        }
        if self.agg.min_frames_before_tx == 0 {
            return Err("min_frames_before_tx must be >= 1".into());
        }
        match self.agg.sizing {
            AggSizing::Fixed(b) if b < 160 => return Err("max aggregate below one subframe".into()),
            AggSizing::CoherenceBudget(0) => return Err("zero coherence budget".into()),
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydra_config_is_valid() {
        assert!(MacConfig::hydra(Rate::R1_30).validate().is_ok());
    }

    #[test]
    fn policy_names() {
        assert_eq!(AggPolicy::no_aggregation().name(), "NA");
        assert_eq!(AggPolicy::unicast().name(), "UA");
        assert_eq!(AggPolicy::broadcast().name(), "BA");
        assert_eq!(AggPolicy::delayed_broadcast().name(), "DBA");
        assert_eq!(AggPolicy::broadcast_no_forward().name(), "BA-nofwd");
    }

    #[test]
    fn na_disables_everything() {
        let na = AggPolicy::no_aggregation();
        assert!(!na.unicast_aggregation);
        assert!(!na.broadcast_aggregation);
        assert!(!na.tcp_ack_as_broadcast);
        assert_eq!(na.max_unicast_subframes, 1);
    }

    #[test]
    fn ba_enables_ack_classification() {
        let ba = AggPolicy::broadcast();
        assert!(ba.tcp_ack_as_broadcast);
        assert!(ba.broadcast_aggregation);
        assert!(ba.unicast_aggregation);
    }

    #[test]
    fn dba_waits_for_three() {
        assert_eq!(AggPolicy::delayed_broadcast().min_frames_before_tx, 3);
    }

    #[test]
    fn broadcast_rate_defaults_to_data_rate() {
        let mut c = MacConfig::hydra(Rate::R2_60);
        assert_eq!(c.effective_broadcast_rate(), Rate::R2_60);
        c.broadcast_rate = Some(Rate::R0_65);
        assert_eq!(c.effective_broadcast_rate(), Rate::R0_65);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = MacConfig::hydra(Rate::R1_30);
        c.cw_min = 10;
        assert!(c.validate().is_err());
        let mut c = MacConfig::hydra(Rate::R1_30);
        c.difs = c.sifs;
        assert!(c.validate().is_err());
        let mut c = MacConfig::hydra(Rate::R1_30);
        c.agg.sizing = AggSizing::Fixed(10);
        assert!(c.validate().is_err());
        let mut c = MacConfig::hydra(Rate::R1_30);
        c.queue_capacity = 0;
        assert!(c.validate().is_err());
    }
}
