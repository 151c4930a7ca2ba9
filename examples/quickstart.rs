//! Quickstart: the paper's headline experiment in ~20 lines.
//!
//! Runs a one-way 0.2 MB TCP transfer over a 2-hop chain three times —
//! without aggregation (NA), with unicast aggregation (UA), and with
//! broadcast aggregation + TCP-ACKs-as-broadcasts (BA) — and prints the
//! end-to-end throughput of each (paper Figure 11).
//!
//! Run with: `cargo run --release --example quickstart`

use hydra_agg::netsim::{Policy, ScenarioSpec, TopologyKind};
use hydra_agg::phy::Rate;

fn main() {
    let rate = Rate::R2_60;
    println!("2-hop TCP file transfer at {rate} (0.2 MB, paper §5 parameters)\n");
    let mut baseline = None;
    for policy in [Policy::Na, Policy::Ua, Policy::Ba] {
        let result = ScenarioSpec::tcp(TopologyKind::Linear(2), policy, rate).run();
        assert!(result.completed, "transfer did not finish");
        let mbps = result.throughput_bps / 1e6;
        let gain =
            baseline.map(|b: f64| format!(" ({:+.1}% vs NA)", (mbps / b - 1.0) * 100.0)).unwrap_or_default();
        baseline.get_or_insert(mbps);
        let relay = result.report.relay();
        println!(
            "{:8} {:.3} Mbps{gain}\n         relay: {} transmissions, avg frame {:.0} B, {:.2} subframes/frame",
            policy.name(),
            mbps,
            relay.tx_data_frames,
            relay.avg_frame_size,
            relay.avg_subframes,
        );
    }
    println!("\nBA wins because every relay transmission can carry TCP ACKs backward");
    println!("as broadcast subframes while data flows forward — one floor acquisition");
    println!("instead of two (paper §3.3).");
}
