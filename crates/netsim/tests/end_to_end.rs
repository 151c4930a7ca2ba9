//! End-to-end integration: full stack (app → TCP → IP → MAC → PHY →
//! medium and back) on the paper's topologies.

use hydra_netsim::{Flooding, Policy, ScenarioSpec, TopologyKind};
use hydra_phy::Rate;
use hydra_sim::Duration;

#[test]
fn two_hop_tcp_transfer_completes_under_every_policy() {
    for policy in Policy::ALL {
        let r = ScenarioSpec::tcp(TopologyKind::Linear(2), policy, Rate::R1_30).run();
        assert!(r.completed, "{}: transfer did not complete", policy.name());
        assert!(
            r.throughput_bps > 50_000.0,
            "{}: implausibly low throughput {}",
            policy.name(),
            r.throughput_bps
        );
        assert!(
            r.throughput_bps < 1_300_000.0,
            "{}: throughput above line rate {}",
            policy.name(),
            r.throughput_bps
        );
    }
}

#[test]
fn three_hop_tcp_transfer_completes() {
    let r = ScenarioSpec::tcp(TopologyKind::Linear(3), Policy::Ba, Rate::R2_60).run();
    assert!(r.completed);
    assert!(r.throughput_bps > 50_000.0);
}

#[test]
fn star_runs_two_sessions() {
    let r = ScenarioSpec::tcp(TopologyKind::Star, Policy::Ba, Rate::R1_30).run();
    assert!(r.completed);
    assert_eq!(r.per_flow.len(), 2);
    for t in &r.per_flow_bps() {
        assert!(*t > 20_000.0, "session throughput {t}");
    }
}

#[test]
fn aggregation_ordering_holds_at_high_rate() {
    // The paper's headline: BA > UA > NA (Figure 11), most visible at
    // the highest rate.
    let na = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Na, Rate::R2_60).run();
    let ua = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ua, Rate::R2_60).run();
    let ba = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R2_60).run();
    assert!(na.completed && ua.completed && ba.completed);
    assert!(
        ua.throughput_bps > na.throughput_bps * 1.2,
        "UA {} should clearly beat NA {}",
        ua.throughput_bps,
        na.throughput_bps
    );
    assert!(
        ba.throughput_bps > ua.throughput_bps,
        "BA {} should beat UA {}",
        ba.throughput_bps,
        ua.throughput_bps
    );
}

#[test]
fn classified_acks_flow_in_ba_but_not_ua() {
    let ua = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ua, Rate::R1_30).run();
    let ba = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30).run();
    let ua_acks: u64 = ua.report.nodes.iter().map(|n| n.acks_classified).sum();
    let ba_acks: u64 = ba.report.nodes.iter().map(|n| n.acks_classified).sum();
    assert_eq!(ua_acks, 0, "UA must not classify ACKs");
    assert!(ba_acks > 50, "BA must classify many ACKs, got {ba_acks}");
    // The server overhears relay frames whose ACK subframes are addressed
    // to it... and the client overhears ACK subframes addressed to the
    // relay: decode-and-drop must be happening somewhere.
    let filtered: u64 = ba.report.nodes.iter().map(|n| n.bcast_filtered).sum();
    assert!(filtered > 0, "decode-and-drop should occur");
}

#[test]
fn udp_one_hop_flows() {
    let r =
        ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R0_65, Duration::from_millis(10)).run();
    // Offered load 1045 B / 10 ms ≈ 0.84 Mbps > capacity: saturated.
    assert!(r.throughput_bps > 200_000.0, "goodput {}", r.throughput_bps);
    assert!(r.throughput_bps < 650_000.0);
}

#[test]
fn udp_two_hop_aggregation_beats_na() {
    let na =
        ScenarioSpec::udp(TopologyKind::Linear(2), Policy::Na, Rate::R1_30, Duration::from_millis(12)).run();
    let ua =
        ScenarioSpec::udp(TopologyKind::Linear(2), Policy::Ua, Rate::R1_30, Duration::from_millis(12)).run();
    assert!(
        ua.throughput_bps > na.throughput_bps,
        "UA {} must beat NA {}",
        ua.throughput_bps,
        na.throughput_bps
    );
}

#[test]
fn flooding_reduces_goodput_more_without_aggregation() {
    // Flooding only bites when the link is saturated (12 ms CBR interval
    // offers ~0.7 Mbps against ~0.4 Mbps of 2-hop NA capacity).
    let quiet =
        ScenarioSpec::udp(TopologyKind::Linear(2), Policy::Na, Rate::R1_30, Duration::from_millis(12)).run();
    let mut noisy =
        ScenarioSpec::udp(TopologyKind::Linear(2), Policy::Na, Rate::R1_30, Duration::from_millis(12));
    noisy.flooding = Some(Flooding { interval: Duration::from_millis(100), payload: 120 });
    let noisy = noisy.run();
    assert!(
        noisy.throughput_bps < quiet.throughput_bps,
        "flooding must hurt: {} vs {}",
        noisy.throughput_bps,
        quiet.throughput_bps
    );
}

#[test]
fn mixed_tcp_and_cbr_share_one_world() {
    use hydra_netsim::{FlowKind, FlowSpec, FlowTraffic};
    let mut spec = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
    spec.traffic = FlowTraffic::FileTransfer { bytes: 50 * 1024 };
    spec.warmup = Duration::from_millis(500);
    spec.duration = Duration::from_secs(5);
    let spec = spec.add_flow(FlowSpec {
        src: 0,
        dst: 2,
        port: 9000,
        traffic: FlowTraffic::Cbr { interval: Duration::from_millis(20), payload: 160 },
    });
    let r = spec.run();
    assert!(r.completed, "transfer must finish within the horizon");
    assert_eq!(r.per_flow.len(), 2);
    let (fg, bg) = (&r.per_flow[0], &r.per_flow[1]);
    assert_eq!(fg.kind, FlowKind::FileTransfer);
    assert_eq!(fg.bytes, 50 * 1024);
    assert!(fg.completed_at.is_some());
    // The transfer finishing does not end the run: the CBR window needs
    // the full horizon, and a 20 ms CBR keeps events coming up to it.
    let horizon = hydra_sim::Instant::ZERO + spec.warmup + spec.duration;
    assert!(r.report.at > fg.completed_at.unwrap(), "run stopped at the transfer's completion");
    assert!(r.report.at <= horizon && horizon - r.report.at <= Duration::from_millis(20), "{}", r.report.at);
    assert!(fg.bps > 20_000.0, "foreground {}", fg.bps);
    assert_eq!(bg.kind, FlowKind::Cbr);
    assert!(bg.completed_at.is_none(), "window flows have no completion time");
    // 160 B / 20 ms = 64 kbit/s offered; most should arrive over 1 hop
    // ... through the relay even while the transfer runs.
    assert!(bg.bps > 30_000.0 && bg.bps < 70_000.0, "background {}", bg.bps);
    // The headline metric is the worst *foreground* flow.
    assert_eq!(r.throughput_bps, fg.bps);
}

#[test]
fn background_load_slows_the_foreground_transfer() {
    use hydra_netsim::{FlowSpec, FlowTraffic};
    let mut alone = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
    alone.traffic = FlowTraffic::FileTransfer { bytes: 50 * 1024 };
    let quiet = alone.clone().run();
    let loaded = {
        let mut s = alone.clone();
        s.warmup = Duration::ZERO;
        s.duration = Duration::from_secs(30);
        s.add_flow(FlowSpec {
            src: 0,
            dst: 2,
            port: 9000,
            traffic: FlowTraffic::Cbr { interval: Duration::from_millis(10), payload: 160 },
        })
        .run()
    };
    assert!(quiet.completed && loaded.completed);
    assert!(
        loaded.throughput_bps < quiet.throughput_bps,
        "128 kbit/s of small-frame CBR background must slow the transfer: {} vs {}",
        loaded.throughput_bps,
        quiet.throughput_bps
    );
}

#[test]
fn on_off_background_flows_deliver() {
    use hydra_netsim::{FlowKind, FlowSpec, FlowTraffic};
    let mut spec =
        ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
    spec.warmup = Duration::from_millis(500);
    spec.duration = Duration::from_secs(4);
    spec.traffic = FlowTraffic::Cbr { interval: Duration::from_millis(20), payload: 1045 };
    let spec = spec.add_flow(FlowSpec {
        src: 1,
        dst: 0,
        port: 9100,
        traffic: FlowTraffic::OnOff {
            burst: 4,
            idle: Duration::from_millis(80),
            interval: Duration::from_millis(5),
            payload: 160,
        },
    });
    let r = spec.run();
    assert_eq!(r.per_flow.len(), 2);
    assert_eq!(r.per_flow[1].kind, FlowKind::OnOff);
    // Offered: 4 × 160 B per (3·5 + 80) ms ≈ 54 kbit/s.
    assert!(r.per_flow[1].bps > 20_000.0, "on/off goodput {}", r.per_flow[1].bps);
    assert!(r.per_flow[1].bps < 60_000.0);
    // Without a file flow the headline is the worst window flow.
    assert_eq!(r.throughput_bps, r.per_flow_bps().into_iter().fold(f64::INFINITY, f64::min));
}

#[test]
fn runs_are_deterministic() {
    let a = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30).with_seed(7).run();
    let b = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30).with_seed(7).run();
    assert_eq!(a.throughput_bps, b.throughput_bps);
    assert_eq!(a.report.total_data_txs(), b.report.total_data_txs());
    assert_eq!(a.report.relay().avg_frame_size(), b.report.relay().avg_frame_size());
    // A different seed changes backoff draws; results differ slightly.
    let c = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30).with_seed(8).run();
    assert!(c.completed);
}

#[test]
fn relay_aggregates_under_ba() {
    let r = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R2_60).run();
    let relay = r.report.relay();
    assert!(relay.avg_subframes > 1.5, "relay should aggregate: avg {} subframes", relay.avg_subframes);
    assert!(relay.avg_frame_size() > 1500.0, "avg frame {}", relay.avg_frame_size());
}

#[test]
fn na_sends_single_subframe_frames() {
    let r = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Na, Rate::R1_30).run();
    for n in &r.report.nodes {
        if n.tx_data_frames > 0 {
            assert!(
                (n.avg_subframes - 1.0).abs() < 1e-9,
                "node {} sent {} subframes/frame under NA",
                n.node,
                n.avg_subframes
            );
        }
    }
}

#[test]
fn grid_corner_to_corner_transfer_completes() {
    use hydra_netsim::FlowTraffic;
    // 3x2 grid, corner-to-corner: 3 hops under x-first routing.
    let mut spec = ScenarioSpec::tcp(TopologyKind::Grid { w: 3, h: 2 }, Policy::Ba, Rate::R2_60);
    spec.traffic = FlowTraffic::FileTransfer { bytes: 50 * 1024 };
    let r = spec.run();
    assert!(r.completed, "grid transfer did not complete");
    assert!(r.throughput_bps > 20_000.0, "implausibly low {}", r.throughput_bps);
    // The corner path's first relay (node 1) actually forwarded.
    assert!(r.report.nodes[1].forwarded > 0, "node 1 forwarded nothing");
}

#[test]
fn cross_runs_two_sessions_through_shared_relay() {
    use hydra_netsim::FlowTraffic;
    let mut spec = ScenarioSpec::tcp(TopologyKind::Cross, Policy::Ba, Rate::R1_30);
    spec.traffic = FlowTraffic::FileTransfer { bytes: 30 * 1024 };
    let r = spec.run();
    assert!(r.completed, "cross transfers did not complete");
    assert_eq!(r.per_flow.len(), 2);
    for t in &r.per_flow_bps() {
        assert!(*t > 10_000.0, "session throughput {t}");
    }
    // Only the center (node 4) relays; everything crosses it.
    assert!(r.report.nodes[4].forwarded > 0);
    for arm in 0..4 {
        assert_eq!(r.report.nodes[arm].forwarded, 0, "arm {arm} should not forward");
    }
}
