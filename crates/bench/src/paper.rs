//! The paper's reported numbers, transcribed for side-by-side comparison.
//!
//! Figures were published as plots without data tables; where the text
//! quotes exact values (gaps, thresholds) we record those, otherwise we
//! record the qualitative shape the reproduction must match.

/// Table 2 — 2-hop UDP throughput (Mbps): (rate_mbps, NA, UA, gain_pct).
pub const TABLE2: [(f64, f64, f64, f64); 2] = [(0.65, 0.253, 0.273, 7.9), (1.3, 0.430, 0.481, 11.9)];

/// Table 3 — 2-hop relay detail: (policy, frame_size_B, tx_pct, size_ovh_pct).
pub const TABLE3: [(&str, f64, f64, f64); 4] = [
    ("NA", 765.0, 100.0, 15.1),
    ("UA", 2662.0, 33.7, 6.83),
    ("BA", 2727.0, 26.7, 6.55),
    ("DBA", 3477.0, 21.1, 5.8),
];

/// Table 4 — 2-hop relay time overhead (%): rows by rate (Mbps), columns
/// NA / UA / BA / DBA.
pub const TABLE4: [(f64, f64, f64, f64, f64); 4] = [
    (0.65, 22.4, 6.7, 5.8, 5.2),
    (1.3, 34.9, 14.3, 11.4, 10.3),
    (1.95, 44.4, 19.3, 15.5, 14.3),
    (2.6, 52.1, 24.8, 19.9, 17.7),
];

/// Table 5 — relay frame size (bytes): (policy, 2-hop, star).
pub const TABLE5: [(&str, f64, f64); 2] = [("UA", 2662.0, 2651.0), ("BA", 2727.0, 3432.0)];

/// Table 6 — relay size overhead (%): (policy, 2-hop, star).
pub const TABLE6: [(&str, f64, f64); 2] = [("UA", 6.83, 6.83), ("BA", 6.55, 5.93)];

/// Table 7 — relay transmissions relative to NA (%): (policy, 2-hop, star).
/// The paper's star NA baseline is 2× the 2-hop NA count (no direct
/// measurement existed).
pub const TABLE7: [(&str, f64, f64); 2] = [("UA", 33.7, 30.7), ("BA", 26.7, 22.5)];

/// Table 8 — average frame size (bytes) at every node, UA and BA:
/// (policy, server2, relay2, client2, server3, relay1_3, relay2_3, client3)
/// where the suffix is the hop count of the topology.
pub const TABLE8: [(&str, [f64; 7]); 2] = [
    ("UA", [3897.0, 2662.0, 463.0, 3451.0, 2384.0, 2224.0, 443.0]),
    ("BA", [3488.0, 2727.0, 447.0, 3313.0, 2538.0, 2670.0, 430.0]),
];

/// Figure 7 — aggregation-size thresholds: (rate_mbps, threshold_kb).
/// ~120 Ksamples of channel-coherence budget.
pub const FIG7_THRESHOLDS: [(f64, f64); 3] = [(0.65, 5.0), (1.3, 11.0), (1.95, 15.0)];

/// Figure 11 — maximum BA-over-UA gap on 2-hop TCP.
pub const FIG11_MAX_GAP_PCT: f64 = 10.0;

/// Figure 12 — maximum BA-over-UA gaps: 3-hop linear and star.
pub const FIG12_3HOP_GAP_PCT: f64 = 12.2;
/// See [`FIG12_3HOP_GAP_PCT`].
pub const FIG12_STAR_GAP_PCT: f64 = 11.0;

/// Figure 13 — maximum DBA-over-BA gaps (2-hop, 3-hop).
pub const FIG13_GAPS_PCT: (f64, f64) = (2.0, 4.0);
/// §6.1: the chosen maximum aggregation size (bytes).
pub const MAX_AGG_SIZE: usize = 5 * 1024;
