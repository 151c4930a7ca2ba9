//! The paper's numbers that the benchmark package's accuracy probe
//! (`benchmark/src/checks.rs`) reads. Every table's paper values live in
//! its `.scn` file as `#! paper=` lines; these copies of Tables 2 and 4
//! are held to those lines by a test in `experiments`.

/// Table 2 — 2-hop UDP throughput (Mbps): (rate_mbps, NA, UA, gain_pct).
pub const TABLE2: [(f64, f64, f64, f64); 2] = [(0.65, 0.253, 0.273, 7.9), (1.3, 0.430, 0.481, 11.9)];

/// Table 4 — 2-hop relay time overhead (%): rows by rate (Mbps), columns
/// NA / UA / BA / DBA.
pub const TABLE4: [(f64, f64, f64, f64, f64); 4] = [
    (0.65, 22.4, 6.7, 5.8, 5.2),
    (1.3, 34.9, 14.3, 11.4, 10.3),
    (1.95, 44.4, 19.3, 15.5, 14.3),
    (2.6, 52.1, 24.8, 19.9, 17.7),
];

/// §6.1: the chosen maximum aggregation size (bytes).
pub const MAX_AGG_SIZE: usize = hydra_core::AggPolicy::PAPER_MAX_AGG;
