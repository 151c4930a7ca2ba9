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

/// The aggregation policies the paper compares, one per scheme: NA, UA
/// (§3.1), BA (§3.2–3.3), DBA (§6.4.3) and BA without forward
/// aggregation (§6.4.4). Each enables a fixed set of mechanisms, which
/// the MAC asks for through the methods below.
///
/// The derived `Debug` text is part of every scenario's stable hash, so
/// renaming a variant moves every derived world seed and store key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No aggregation: plain 802.11 DCF, one MPDU per PHY frame.
    Na,
    /// Unicast aggregation: same-destination MPDUs share one frame.
    Ua,
    /// Broadcast aggregation, with TCP ACKs sent as broadcasts.
    Ba,
    /// Delayed broadcast aggregation: BA that holds transmission until
    /// three frames are queued.
    Dba,
    /// BA with forward aggregation disabled: each frame carries at most
    /// one unicast and one broadcast subframe, so all benefit comes from
    /// combining opposite-direction traffic.
    BaNoForward,
}

impl Policy {
    /// All policies the paper compares.
    pub const ALL: [Policy; 5] = [Policy::Na, Policy::Ua, Policy::Ba, Policy::Dba, Policy::BaNoForward];

    /// The paper's abbreviation.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Na => "NA",
            Policy::Ua => "UA",
            Policy::Ba => "BA",
            Policy::Dba => "DBA",
            Policy::BaNoForward => "BA-nofwd",
        }
    }

    /// True if pure TCP ACKs are classified as link-level broadcasts and
    /// broadcast subframes ride in front of data frames (BA).
    pub(crate) fn broadcasts(&self) -> bool {
        matches!(self, Policy::Ba | Policy::Dba | Policy::BaNoForward)
    }

    /// Cap on unicast subframes per frame (1 disables forward
    /// aggregation).
    pub(crate) fn max_unicast_subframes(&self) -> usize {
        match self {
            Policy::Na | Policy::BaNoForward => 1,
            Policy::Ua | Policy::Ba | Policy::Dba => usize::MAX,
        }
    }

    /// Cap on broadcast subframes per frame.
    pub(crate) fn max_broadcast_subframes(&self) -> usize {
        match self {
            Policy::Ba | Policy::Dba => usize::MAX,
            Policy::Na | Policy::Ua | Policy::BaNoForward => 1,
        }
    }

    /// Hold transmission until this many frames are queued: 3 under DBA,
    /// 1 (transmit as soon as possible) otherwise.
    pub(crate) fn min_frames_before_tx(&self) -> usize {
        match self {
            Policy::Dba => 3,
            Policy::Na | Policy::Ua | Policy::Ba | Policy::BaNoForward => 1,
        }
    }
}

/// One node's aggregation settings: the paper's policy, the aggregate
/// size cap and DBA's flush timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggPolicy {
    /// Which of the paper's policies runs; it decides which mechanisms
    /// are active.
    pub policy: Policy,
    /// Aggregate size cap.
    pub sizing: AggSizing,
    /// Deadlock guard for DBA's hold: flush whatever is queued after this
    /// long. The paper does not specify one; the DBA flush timeout row of
    /// docs/REPRODUCTION.md sweeps it.
    pub flush_timeout: Duration,
}

impl AggPolicy {
    /// The paper's maximum aggregation size (§6.1).
    pub const PAPER_MAX_AGG: usize = 5 * 1024;

    /// `policy` with the paper's 5 KB cap and a 10 ms flush timeout.
    pub fn new(policy: Policy) -> Self {
        AggPolicy {
            policy,
            sizing: AggSizing::Fixed(Self::PAPER_MAX_AGG),
            flush_timeout: Duration::from_millis(10),
        }
    }

    /// BA with the paper's defaults.
    pub fn broadcast() -> Self {
        Self::new(Policy::Ba)
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
    /// The policy, the aggregate size cap and DBA's flush timeout.
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
    fn each_policy_enables_the_paper_mechanisms() {
        let max = usize::MAX;
        for (policy, want) in [
            (Policy::Na, (false, 1, 1, 1)),
            (Policy::Ua, (false, max, 1, 1)),
            (Policy::Ba, (true, max, max, 1)),
            (Policy::Dba, (true, max, max, 3)),
            (Policy::BaNoForward, (true, 1, 1, 1)),
        ] {
            let got = (
                policy.broadcasts(),
                policy.max_unicast_subframes(),
                policy.max_broadcast_subframes(),
                policy.min_frames_before_tx(),
            );
            assert_eq!(got, want, "{}", policy.name());
        }
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
