//! Integration tests for the per-link channel-error model: bursty
//! (Gilbert–Elliott) and independent residual loss, duplication, and
//! intra-aggregate reorder — all on deterministic per-link RNG streams,
//! so the sparse medium and its dense reference must agree bit-for-bit.

use hydra_netsim::{FlowTraffic, LinkErrorSpec, Policy, ScenarioSpec, TopologyKind};
use hydra_phy::{LinkErrorModel, Rate};
use hydra_sim::Duration;

/// A short 2-hop TCP transfer with the given link-error spec.
fn tcp_spec(le: Option<LinkErrorSpec>) -> ScenarioSpec {
    let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
    s.traffic = FlowTraffic::FileTransfer { bytes: 20 * 1024 };
    s.link_error = le;
    s
}

/// A short UDP window run (always "completes") with the given spec.
fn udp_spec(le: Option<LinkErrorSpec>) -> ScenarioSpec {
    let mut s =
        ScenarioSpec::udp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30, Duration::from_millis(10));
    s.warmup = Duration::from_millis(300);
    s.duration = Duration::from_secs(2);
    s.link_error = le;
    s
}

const BURSTY: LinkErrorModel =
    LinkErrorModel::GilbertElliott { p_gb: 0.05, p_bg: 0.45, ber_good: 0.0, ber_bad: 0.3 };

#[test]
fn every_engine_agrees_under_bursty_dup_and_reorder() {
    // The full gauntlet: bursty loss + duplication + reorder in one
    // world, replayed on every execution engine.
    let spec = udp_spec(Some(LinkErrorSpec { model: Some(BURSTY), dup: 0.1, reorder: 0.1 }));
    let reference = spec.run();
    assert_eq!(spec.run(), reference, "sequential engine is not self-stable");
    assert_eq!(spec.run_dense_reference(), reference, "dense reference diverged");
}

#[test]
fn link_error_changes_the_outcome_and_absence_preserves_it() {
    // A spec without link_error must behave exactly as before the field
    // existed (same hash, same world); one with loss must differ.
    let clean = udp_spec(None);
    let inert = udp_spec(Some(LinkErrorSpec { model: None, dup: 0.0, reorder: 0.0 }));
    let lossy = udp_spec(Some(LinkErrorSpec::model(LinkErrorModel::Independent { ber: 0.25 })));
    let clean_out = clean.run();
    assert_eq!(inert.run(), clean_out, "an inert LinkErrorSpec must not perturb delivery");
    let lossy_out = lossy.run();
    assert!(
        lossy_out.throughput_bps < clean_out.throughput_bps,
        "25% subframe loss should cost goodput: {} vs {}",
        lossy_out.throughput_bps,
        clean_out.throughput_bps
    );
}

#[test]
fn bursty_and_independent_loss_differ_at_matched_mean() {
    // Same stationary subframe-loss probability, different clustering:
    // the worlds must genuinely diverge (this gap is what the ext_burst
    // experiment measures).
    let mean = BURSTY.stationary_loss();
    let bursty = udp_spec(Some(LinkErrorSpec::model(BURSTY)));
    let indep = udp_spec(Some(LinkErrorSpec::model(LinkErrorModel::Independent { ber: mean })));
    assert_ne!(bursty.run(), indep.run(), "bursty vs independent at matched mean {mean}");
}

#[test]
fn duplicated_corrupted_copies_take_the_checked_parse_path() {
    // Regression for the shared-parse aliasing fix: a duplicated frame
    // shares its clean twin's Arc'd PSDU, but when its own corruption
    // draws damage a copy, that copy must be re-validated (CRC failures
    // observed), never delivered through the clean twin's trusted parse.
    let spec = udp_spec(Some(LinkErrorSpec {
        model: Some(LinkErrorModel::Independent { ber: 0.3 }),
        dup: 1.0,
        reorder: 0.0,
    }));
    let out = spec.run();
    let crc_failures: u64 = out.report.nodes.iter().map(|n| n.bcast_crc_fail + n.unicast_crc_drops).sum();
    let deliveries: u64 = out.report.nodes.iter().map(|n| n.bcast_ok + n.unicast_ok).sum();
    assert!(crc_failures > 0, "corrupted copies must hit the CRC-checked path");
    assert!(deliveries > 0, "clean copies must still deliver");
    // And the whole thing stays deterministic across engines.
    assert_eq!(spec.run_dense_reference(), out);
}

#[test]
fn reordered_aggregates_still_complete_a_transfer() {
    // Intra-aggregate reorder scrambles subframe order on the wire; the
    // receiver must resequence (or recover via TCP) and finish.
    let spec = tcp_spec(Some(LinkErrorSpec { model: None, dup: 0.0, reorder: 0.5 }));
    let out = spec.run();
    assert!(out.completed, "transfer must survive 50% aggregate reorder");
    assert_eq!(spec.run_dense_reference(), out, "reorder draws must be engine-independent");
}

#[test]
fn tcp_transfer_completes_under_bursty_loss() {
    let spec = tcp_spec(Some(LinkErrorSpec { model: Some(BURSTY), dup: 0.0, reorder: 0.0 }));
    let lossy = spec.run();
    assert!(lossy.completed, "bursty loss must delay, not kill, the transfer");
    let clean = tcp_spec(None).run();
    assert!(
        lossy.throughput_bps < clean.throughput_bps,
        "bursty loss should cost throughput: {} vs {}",
        lossy.throughput_bps,
        clean.throughput_bps
    );
}
