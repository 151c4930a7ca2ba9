//! Bit-stable reproducibility: identical seeds must give identical runs,
//! across every scenario family the harness uses.

use hydra_agg::netsim::{Flooding, FlowTraffic, Policy, RunOutcome, ScenarioSpec, TopologyKind};
use hydra_agg::phy::Rate;
use hydra_agg::sim::Duration;

#[test]
fn tcp_runs_replay_exactly() {
    for topo in [TopologyKind::Linear(2), TopologyKind::Linear(3), TopologyKind::Star] {
        for policy in [Policy::Na, Policy::Ba] {
            let run = |seed| {
                let mut s = ScenarioSpec::tcp(topo, policy, Rate::R1_30).with_seed(seed);
                s.traffic = FlowTraffic::FileTransfer { bytes: 50 * 1024 };
                s.run()
            };
            let a = run(11);
            let b = run(11);
            assert_eq!(a.throughput_bps, b.throughput_bps, "{topo:?} {}", policy.name());
            assert_eq!(a.per_flow_bps(), b.per_flow_bps());
            assert_eq!(a.report.total_data_txs(), b.report.total_data_txs());
            assert_eq!(a.report.collisions, b.report.collisions);
            for (na, nb) in a.report.nodes.iter().zip(&b.report.nodes) {
                assert_eq!(na.tx_data_frames, nb.tx_data_frames);
                assert_eq!(na.avg_frame_size, nb.avg_frame_size);
                assert_eq!(na.retries, nb.retries);
            }
        }
    }
}

#[test]
fn udp_runs_replay_exactly() {
    let run = || {
        let mut s =
            ScenarioSpec::udp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30, Duration::from_millis(15))
                .with_seed(3);
        s.duration = Duration::from_secs(5);
        s.flooding = Some(Flooding { interval: Duration::from_millis(300), payload: 120 });
        s.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.throughput_bps, b.throughput_bps);
    assert_eq!(a.report.total_data_txs(), b.report.total_data_txs());
}

#[test]
fn different_seeds_differ_but_agree_qualitatively() {
    let thr: Vec<f64> = (1..=4)
        .map(|seed| {
            ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R2_60)
                .with_seed(seed)
                .run()
                .throughput_bps
        })
        .collect();
    // Backoff draws differ...
    assert!(thr.windows(2).any(|w| w[0] != w[1]), "seeds should differ: {thr:?}");
    // ...but the result is stable to within a few percent.
    let min = thr.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = thr.iter().cloned().fold(0.0f64, f64::max);
    assert!(max / min < 1.15, "seed variance too large: {thr:?}");
}

#[test]
fn fault_injected_runs_replay_exactly() {
    let run = || {
        let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30).with_seed(5);
        s.traffic = FlowTraffic::FileTransfer { bytes: 30 * 1024 };
        s.fault = Some((0.05, 0.05));
        s.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.throughput_bps, b.throughput_bps);
    let retries = |r: &RunOutcome| -> u64 { r.report.nodes.iter().map(|n| n.retries).sum() };
    assert_eq!(retries(&a), retries(&b));
}
