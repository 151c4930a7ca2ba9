//! Per-layer "kernel" rows: each times calls into one layer's public
//! functions on fixed inputs, from outside, and reports the median of
//! several samples. They are unit costs — what one queue operation, one
//! aggregate parse, one medium fan-out costs — which the traced run
//! multiplies by the counts a workload reports to get computed shares.
//!
//! Inputs are fixed (no benchmark seed): a kernel row compares one
//! function across commits, not across workloads.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use hydra_core::{assemble, AggPolicy, Mac, MacConfig, MacInput, MacOutput, QueueKind, QueuedMpdu, TxQueues};
use hydra_net::NetVerdict;
use hydra_netsim::{parse_scn_file, MediumKind, ScenarioSpec, Topology};
use hydra_phy::{
    apply_channel, ChannelStack, LinkErrorModel, LinkErrorPass, LinkErrorState, Medium, OnAirFrame,
    PhyProfile, Rate,
};
use hydra_sim::{EventQueue, Instant as SimInstant, Rng};
use hydra_tcp::{TcpConfig, TcpStack};
use hydra_wire::aggregate::AggregateBuilder;
use hydra_wire::crc::crc32;
use hydra_wire::ipv4::{IpProtocol, Ipv4Repr};
use hydra_wire::subframe::{FrameType, SubframeRepr};
use hydra_wire::tcp::{TcpFlags, TcpRepr};
use hydra_wire::{
    build_tcp_packet, parse_aggregate, parse_aggregate_trusted, parse_mpdu_payload, EncapProto, EncapRepr,
    Endpoint, Ipv4Addr, MacAddr,
};

use crate::stats::median;
use crate::workloads::scn_files;

/// How long and how often each kernel is sampled.
#[derive(Debug, Clone, Copy)]
pub struct KernelBudget {
    /// Minimum measured time per sample.
    pub sample: Duration,
    /// Samples per kernel (the median is reported).
    pub samples: usize,
}

/// One kernel result.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Metric name, `layer.what_unit`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Median over the samples.
    pub value: f64,
}

/// Median ns per call of `op`, timing batches large enough that the
/// clock reads are noise.
fn ns_per_op(b: &KernelBudget, mut op: impl FnMut()) -> f64 {
    let mut batch: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        if t.elapsed() * 20 >= b.sample || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..b.samples)
        .map(|_| {
            let (t, mut calls) = (Instant::now(), 0u64);
            while t.elapsed() < b.sample {
                for _ in 0..batch {
                    op();
                }
                calls += batch;
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// [`ns_per_op`] for an `op` that consumes an input: inputs are built in
/// untimed batches, so only `op` is on the clock.
fn ns_per_op_with<I>(b: &KernelBudget, mut setup: impl FnMut() -> I, mut op: impl FnMut(I)) -> f64 {
    const BATCH: usize = 32;
    let samples: Vec<f64> = (0..b.samples)
        .map(|_| {
            let (mut busy, mut calls) = (Duration::ZERO, 0u64);
            while busy < b.sample {
                let inputs: Vec<I> = (0..BATCH).map(|_| setup()).collect();
                let t = Instant::now();
                for input in inputs {
                    op(input);
                }
                busy += t.elapsed();
                calls += BATCH as u64;
            }
            busy.as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

// ---------------------------------------------------------------------
// Fixed inputs
// ---------------------------------------------------------------------

/// A TCP data segment (1357 B payload → 1434 B MPDU payload → the
/// paper's 1464 B subframe) or, with an empty payload, the pure ACK
/// (77 B → the paper's 160 B subframe).
fn tcp_mpdu(src: u16, dst: u16, payload: &[u8]) -> Vec<u8> {
    let encap = EncapRepr { proto: EncapProto::Ipv4, src_node: src, dst_node: dst, packet_id: 9 };
    let t = TcpRepr { src_port: 1, dst_port: 2, seq: 7, ack: 8, flags: TcpFlags::ACK, window: 1000 };
    build_tcp_packet(encap, Ipv4Addr::from_node_id(src), Ipv4Addr::from_node_id(dst), 64, &t, payload)
}

fn subframe(to: MacAddr, from: MacAddr, no_ack: bool) -> SubframeRepr {
    SubframeRepr {
        frame_type: FrameType::Data,
        retry: false,
        no_ack,
        duration_us: 500,
        addr1: to,
        addr2: from,
        addr3: from,
    }
}

/// Two broadcast ACK subframes then three unicast data subframes, from
/// node 1 to node 7.
fn build_reference_aggregate(data: &[u8], ack: &[u8]) -> OnAirFrame {
    let (me, peer) = (MacAddr::from_node_id(7), MacAddr::from_node_id(1));
    let mut b = AggregateBuilder::new();
    for _ in 0..2 {
        b.push_broadcast(&subframe(me, peer, true), ack);
    }
    for _ in 0..3 {
        b.push_unicast(&subframe(me, peer, false), data);
    }
    let (phy_hdr, psdu, slots) = b.finish(Rate::R2_60.code(), Rate::R2_60.code());
    OnAirFrame::aggregate(phy_hdr, psdu, slots)
}

fn queued(dst: u16, payload: &[u8]) -> QueuedMpdu {
    QueuedMpdu {
        next_hop: MacAddr::from_node_id(dst),
        src: MacAddr::from_node_id(0),
        payload: payload.to_vec().into(),
        no_ack: false,
        enqueued_at: SimInstant::ZERO,
    }
}

/// The 1000-node topology of `ext_scale.scn` (`mesh:1000:182:7`).
fn mesh_1000() -> Topology {
    Topology::random_mesh(1000, 182, 7)
}

const SPATIAL: MediumKind = MediumKind::Spatial { spacing_m: 1.0 };

// ---------------------------------------------------------------------
// Kernels, layer by layer
// ---------------------------------------------------------------------

/// Pop-one / schedule-one at a steady `pending` events: the hold model,
/// which is what a run loop does to its queue.
fn queue_hold_ns(b: &KernelBudget, pending: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng::seed_from_u64(0xD1B5_4A32_D192_ED03);
    for i in 0..pending {
        q.schedule_at(SimInstant::from_micros(rng.below(10_000)), i);
    }
    ns_per_op(b, || {
        let (now, _, v) = q.pop().expect("the queue holds `pending` events");
        q.schedule_at(now + hydra_sim::Duration::from_micros(rng.below(10_000) + 1), black_box(v));
    })
}

fn sim_rows(b: &KernelBudget, rows: &mut Vec<KernelRow>) {
    rows.push(KernelRow { name: "sim.queue_hold_ns_p64", unit: "ns", value: queue_hold_ns(b, 64) });
    rows.push(KernelRow { name: "sim.queue_hold_ns_p4096", unit: "ns", value: queue_hold_ns(b, 4096) });
    let mut rng = Rng::seed_from_u64(1);
    let ns = ns_per_op(b, || {
        black_box(rng.next_u64());
    });
    rows.push(KernelRow { name: "sim.rng_next_ns", unit: "ns", value: ns });
}

fn wire_rows(b: &KernelBudget, rows: &mut Vec<KernelRow>) {
    let data = tcp_mpdu(0, 2, &[0x5A; 1357]);
    let ack = tcp_mpdu(2, 0, &[]);
    let sub = subframe(MacAddr::from_node_id(7), MacAddr::from_node_id(1), false).to_bytes(&data);
    assert_eq!(sub.len(), 1464, "the paper's TCP data subframe");
    let ns = ns_per_op(b, || {
        black_box(crc32(black_box(&sub)));
    });
    let gib_s = sub.len() as f64 / ns * 1e9 / (1u64 << 30) as f64;
    rows.push(KernelRow { name: "wire.crc32_gib_s", unit: "GiB/s", value: gib_s });

    let ns = ns_per_op(b, || {
        black_box(build_reference_aggregate(black_box(&data), black_box(&ack)));
    });
    rows.push(KernelRow { name: "wire.build_aggregate_ns", unit: "ns", value: ns });

    let OnAirFrame::Aggregate { phy_hdr, psdu, .. } = build_reference_aggregate(&data, &ack) else {
        unreachable!("aggregate constructor")
    };
    let ns = ns_per_op(b, || {
        black_box(parse_aggregate(black_box(&phy_hdr), black_box(&psdu)));
    });
    rows.push(KernelRow { name: "wire.parse_aggregate_ns", unit: "ns", value: ns });
    let ns = ns_per_op(b, || {
        black_box(parse_aggregate_trusted(black_box(&phy_hdr), black_box(&psdu)));
    });
    rows.push(KernelRow { name: "wire.parse_trusted_ns", unit: "ns", value: ns });

    let payload = [0x5Au8; 1357];
    let ns = ns_per_op(b, || {
        black_box(tcp_mpdu(0, 2, black_box(&payload)));
    });
    rows.push(KernelRow { name: "wire.build_tcp_packet_ns", unit: "ns", value: ns });
    let ns = ns_per_op(b, || {
        black_box(parse_mpdu_payload(black_box(&data)).expect("a well-formed packet"));
    });
    rows.push(KernelRow { name: "wire.parse_mpdu_ns", unit: "ns", value: ns });
}

/// One transmission's worth of medium work: `start_tx_into` then
/// `end_tx_into`, transmitters taken round the node set.
fn tx_fanout_ns(b: &KernelBudget, medium: &mut Medium) -> f64 {
    let n = medium.node_count();
    let (mut edges, mut deliveries, mut i) = (Vec::new(), Vec::new(), 0usize);
    ns_per_op(b, || {
        i = (i + 7919) % n;
        let tx = medium.start_tx_into(i, &mut edges);
        medium.end_tx_into(tx, &mut deliveries, &mut edges);
        black_box((edges.len(), deliveries.len()));
        edges.clear();
        deliveries.clear();
    })
}

fn phy_rows(b: &KernelBudget, rows: &mut Vec<KernelRow>) {
    let profile = PhyProfile::hydra();
    let topo = mesh_1000();
    let ns = ns_per_op(b, || {
        black_box(SPATIAL.build_medium(black_box(&topo), &profile));
    });
    rows.push(KernelRow { name: "phy.medium_build_ms_n1000", unit: "ms", value: ns / 1e6 });
    let mut big = SPATIAL.build_medium(&topo, &profile);
    rows.push(KernelRow { name: "phy.tx_fanout_ns_n1000", unit: "ns", value: tx_fanout_ns(b, &mut big) });
    let mut small = Medium::full_mesh(3, &profile);
    rows.push(KernelRow { name: "phy.tx_fanout_ns_n3", unit: "ns", value: tx_fanout_ns(b, &mut small) });

    let frame = build_reference_aggregate(&tcp_mpdu(0, 2, &[0x5A; 1357]), &tcp_mpdu(2, 0, &[]));
    let mut rng = Rng::seed_from_u64(3);
    // The testbed operating point: the standard channel stack at the
    // default SNR leaves nearly every subframe intact, so the returned
    // frame shares the transmitter's buffer (the copy-free fast path).
    let mut channel = ChannelStack::hydra(&profile);
    let ns = ns_per_op(b, || {
        black_box(apply_channel(black_box(&frame), profile.default_snr_db, &mut channel, &mut rng, &profile));
    });
    rows.push(KernelRow { name: "phy.apply_channel_clean_ns", unit: "ns", value: ns });
    // Every subframe hit: private copy of the PSDU plus five damages.
    let mut all_hit = LinkErrorPass { p: 1.0 };
    let ns = ns_per_op(b, || {
        black_box(apply_channel(black_box(&frame), profile.default_snr_db, &mut all_hit, &mut rng, &profile));
    });
    rows.push(KernelRow { name: "phy.apply_channel_corrupt_ns", unit: "ns", value: ns });

    let ge = LinkErrorModel::GilbertElliott { p_gb: 0.05, p_bg: 0.45, ber_good: 0.0, ber_bad: 0.5 };
    let mut link = LinkErrorState::new(ge, 1, 0, 1);
    let ns = ns_per_op(b, || {
        black_box(link.begin_frame());
    });
    rows.push(KernelRow { name: "phy.link_error_frame_ns", unit: "ns", value: ns });
}

fn core_rows(b: &KernelBudget, rows: &mut Vec<KernelRow>) {
    let profile = PhyProfile::hydra();
    let mut cfg = MacConfig::hydra(Rate::R2_60);
    cfg.agg = AggPolicy::broadcast();
    let data = tcp_mpdu(0, 2, &[0x5A; 1357]);
    let ack = tcp_mpdu(2, 0, &[]);

    let ns = ns_per_op_with(
        b,
        || {
            let mut q = TxQueues::new(100);
            for _ in 0..4 {
                q.push(queued(2, &ack), QueueKind::Broadcast);
                q.push(queued(1, &data), QueueKind::Unicast);
            }
            q
        },
        |mut q| {
            black_box(assemble(&mut q, &cfg, &profile, MacAddr::from_node_id(9), 500, None));
        },
    );
    rows.push(KernelRow { name: "core.assemble_ns", unit: "ns", value: ns });

    // The full receive path of one aggregate: parse, CRC check, dedup,
    // deliver up, arm the link ACK.
    let me = MacAddr::from_node_id(7);
    let frame = build_reference_aggregate(&data, &ack);
    let mut outs: Vec<MacOutput> = Vec::new();
    let ns = ns_per_op_with(
        b,
        || (Mac::new(me, cfg.clone(), profile.clone(), Rng::seed_from_u64(1)), frame.clone()),
        |(mut mac, frame)| {
            mac.handle(SimInstant::from_micros(10), MacInput::Rx(frame), &mut outs);
            black_box(outs.len());
            outs.clear();
        },
    );
    rows.push(KernelRow { name: "core.mac_rx_ns", unit: "ns", value: ns });

    // A contending node sensing one busy edge and one idle edge: freeze
    // the backoff, then re-arm it. Its timer is never fed back, so the
    // MAC stays in contention for the whole measurement.
    let mut mac = Mac::new(me, cfg.clone(), profile.clone(), Rng::seed_from_u64(1));
    let enqueue =
        MacInput::Enqueue { next_hop: MacAddr::from_node_id(1), src: me, payload: data.clone().into() };
    mac.handle(SimInstant::ZERO, enqueue, &mut outs);
    outs.clear();
    let mut now_us = 1u64;
    let ns = ns_per_op(b, || {
        black_box(mac.on_channel_edge(SimInstant::from_micros(now_us), true));
        black_box(mac.on_channel_edge(SimInstant::from_micros(now_us + 5), false));
        now_us += 10;
    });
    rows.push(KernelRow { name: "core.mac_cs_edge_ns", unit: "ns", value: ns });
}

fn net_rows(b: &KernelBudget, rows: &mut Vec<KernelRow>) {
    // The relay of a 2-hop chain receiving a transit data packet.
    let mut relay = Topology::linear(2).build_net_stacks().swap_remove(1);
    let transit = tcp_mpdu(0, 2, &[0x5A; 1357]);
    assert!(matches!(relay.receive(&transit), NetVerdict::Forward { .. }), "node 1 relays 0 → 2");
    let ns = ns_per_op(b, || {
        black_box(relay.receive(black_box(&transit)));
    });
    rows.push(KernelRow { name: "net.receive_forward_ns", unit: "ns", value: ns });
}

/// Moves every segment `from` has to send into `to`; returns how many.
fn shuttle(from: &mut TcpStack, to: &mut TcpStack, now: SimInstant) -> usize {
    let segs = from.poll_transmit(now);
    for seg in &segs {
        let ip = Ipv4Repr {
            src: from.addr(),
            dst: seg.dst,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            payload_len: seg.bytes.len(),
        };
        let (repr, payload) = TcpRepr::parse(&ip, &seg.bytes).expect("a stack emits well-formed segments");
        to.on_segment(now, &ip, &repr, payload);
    }
    segs.len()
}

fn tcp_rows(b: &KernelBudget, rows: &mut Vec<KernelRow>) {
    let cfg = TcpConfig::hydra_paper();
    let (a_addr, b_addr) = (Ipv4Addr::from_node_id(0), Ipv4Addr::from_node_id(2));
    let (mut sender, mut receiver) = (TcpStack::new(a_addr), TcpStack::new(b_addr));
    let rx = receiver.listen(cfg.clone(), 9000, 2000);
    let tx = sender.connect(cfg, 10_000, Endpoint::new(b_addr, 9000), 1000);
    let mut now_us = 0u64;
    // Handshake: shuttle until both sides go quiet.
    for _ in 0..8 {
        now_us += 1000;
        let now = SimInstant::from_micros(now_us);
        if shuttle(&mut sender, &mut receiver, now) + shuttle(&mut receiver, &mut sender, now) == 0 {
            break;
        }
    }
    assert!(sender.socket(tx).is_established() && receiver.socket(rx).is_established(), "TCP handshake");
    // One MSS out, delivered, drained by the application, and its ACK
    // back: the per-segment cycle of a file transfer's steady state.
    let segment = [0x5Au8; 1357];
    let ns = ns_per_op(b, || {
        now_us += 1000;
        let now = SimInstant::from_micros(now_us);
        sender.socket(tx).send(&segment);
        let out = shuttle(&mut sender, &mut receiver, now);
        black_box(receiver.socket(rx).recv_drain());
        let back = shuttle(&mut receiver, &mut sender, now);
        debug_assert_eq!((out, back), (1, 1));
    });
    rows.push(KernelRow { name: "tcp.segment_ack_ns", unit: "ns", value: ns });
}

fn netsim_rows(b: &KernelBudget, root: &Path, rows: &mut Vec<KernelRow>) -> Result<(), String> {
    // Every shipped sweep file, as one parsing and one hashing job.
    let mut texts = Vec::new();
    for path in scn_files(root)? {
        texts.push(std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?);
    }
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    for text in &texts {
        specs.extend(parse_scn_file(text).map_err(|e| format!("shipped sweep: {e}"))?.specs);
    }
    if specs.is_empty() {
        return Err(format!("no scenarios under {}", root.display()));
    }
    let ns = ns_per_op(b, || {
        for text in &texts {
            black_box(parse_scn_file(black_box(text)).expect("parsed above"));
        }
    });
    rows.push(KernelRow {
        name: "netsim.parse_scn_us_per_line",
        unit: "us",
        value: ns / 1e3 / specs.len() as f64,
    });
    let ns = ns_per_op(b, || {
        for spec in &specs {
            black_box(black_box(spec).stable_hash());
        }
    });
    rows.push(KernelRow { name: "netsim.stable_hash_us", unit: "us", value: ns / 1e3 / specs.len() as f64 });
    Ok(())
}

/// Runs every kernel; `root` is the repository root (for the shipped
/// `.scn` files the `netsim` rows parse).
pub fn run_all(b: &KernelBudget, root: &Path) -> Result<Vec<KernelRow>, String> {
    let mut rows = Vec::new();
    sim_rows(b, &mut rows);
    wire_rows(b, &mut rows);
    phy_rows(b, &mut rows);
    core_rows(b, &mut rows);
    net_rows(b, &mut rows);
    tcp_rows(b, &mut rows);
    netsim_rows(b, root, &mut rows)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_and_reports_a_positive_number() {
        let budget = KernelBudget { sample: Duration::from_micros(200), samples: 1 };
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let rows = run_all(&budget, &root).unwrap();
        assert_eq!(rows.len(), 22);
        for row in &rows {
            assert!(row.value.is_finite() && row.value > 0.0, "{} = {}", row.name, row.value);
        }
        let mut names: Vec<_> = rows.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len(), "kernel names are unique");
    }
}
