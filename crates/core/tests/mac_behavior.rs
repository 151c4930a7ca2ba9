//! Behavioural tests driving the MAC state machine directly (sans-IO):
//! the test plays the role of the event loop and the medium.

use hydra_core::{AggPolicy, Mac, MacConfig, MacInput, MacOutput, Policy};
use hydra_phy::{OnAirFrame, PhyProfile, Rate};
use hydra_sim::{Duration, Instant, Rng, TimerToken};
use hydra_wire::control::ControlFrame;
use hydra_wire::encap::{EncapProto, EncapRepr};
use hydra_wire::tcp::{TcpFlags, TcpRepr};
use hydra_wire::{build_tcp_packet, build_udp_packet, Ipv4Addr, MacAddr, UdpRepr};

/// Minimal single-MAC harness: tracks armed timers and fires them in order.
struct Harness {
    mac: Mac,
    now: Instant,
    timers: Vec<(Instant, TimerToken)>,
    tx: Vec<OnAirFrame>,
    delivered: Vec<(MacAddr, Vec<u8>)>,
    dropped: usize,
}

impl Harness {
    fn new(policy: AggPolicy, rate: Rate) -> Self {
        let mut cfg = MacConfig::hydra(rate);
        cfg.agg = policy;
        Harness {
            mac: Mac::new(me(), cfg, PhyProfile::hydra(), Rng::seed_from_u64(42)),
            now: Instant::ZERO,
            timers: Vec::new(),
            tx: Vec::new(),
            delivered: Vec::new(),
            dropped: 0,
        }
    }

    fn feed(&mut self, input: MacInput) {
        let outs = self.mac.handle_collect(self.now, input);
        for o in outs {
            match o {
                MacOutput::SetTimer { token, at } => self.timers.push((at, token)),
                MacOutput::StartTx(f) => self.tx.push(f),
                MacOutput::Deliver { src, payload, .. } => self.delivered.push((src, payload.to_vec())),
                MacOutput::UnicastDropped { count } => self.dropped += count,
            }
        }
    }

    /// Fires the earliest pending timer, advancing the clock.
    fn fire_next_timer(&mut self) {
        assert!(!self.timers.is_empty(), "no timers pending");
        self.timers.sort_by_key(|(at, _)| *at);
        let (at, token) = self.timers.remove(0);
        assert!(at >= self.now, "timer in the past");
        self.now = at;
        self.feed(MacInput::Timer(token));
    }

    /// Fires timers until a frame is transmitted (or panics after a bound).
    fn run_until_tx(&mut self) -> OnAirFrame {
        for _ in 0..32 {
            if let Some(f) = self.tx.pop() {
                return f;
            }
            self.fire_next_timer();
        }
        panic!("no transmission produced");
    }

    fn advance(&mut self, d: Duration) {
        self.now += d;
    }
}

fn me() -> MacAddr {
    MacAddr::from_node_id(0)
}
fn peer() -> MacAddr {
    MacAddr::from_node_id(1)
}

fn encap(id: u32) -> EncapRepr {
    EncapRepr { proto: EncapProto::Ipv4, src_node: 0, dst_node: 1, packet_id: id }
}

fn udp_payload(id: u32, len: usize) -> Vec<u8> {
    build_udp_packet(
        encap(id),
        Ipv4Addr::from_node_id(0),
        Ipv4Addr::from_node_id(1),
        64,
        &UdpRepr { src_port: 10, dst_port: 20 },
        &vec![0xCD; len],
    )
}

fn pure_ack_payload(id: u32) -> Vec<u8> {
    let t = TcpRepr { src_port: 1, dst_port: 2, seq: 1, ack: 2, flags: TcpFlags::ACK, window: 1000 };
    build_tcp_packet(encap(id), Ipv4Addr::from_node_id(1), Ipv4Addr::from_node_id(0), 64, &t, &[])
}

fn enqueue_unicast(h: &mut Harness, id: u32, len: usize) {
    h.feed(MacInput::Enqueue { next_hop: peer(), src: me(), payload: udp_payload(id, len).into() });
}

/// Builds an incoming data aggregate addressed to `dst` from `src_mac`.
fn incoming_aggregate(
    dst: MacAddr,
    src_mac: MacAddr,
    payloads: &[Vec<u8>],
    bcast_to: Option<MacAddr>,
) -> OnAirFrame {
    use hydra_wire::aggregate::AggregateBuilder;
    use hydra_wire::subframe::{FrameType, SubframeRepr};
    let mut b = AggregateBuilder::new();
    if let Some(addr) = bcast_to {
        let repr = SubframeRepr {
            frame_type: FrameType::Data,
            retry: false,
            no_ack: true,
            duration_us: 0,
            addr1: addr,
            addr2: src_mac,
            addr3: src_mac,
        };
        b.push_broadcast(&repr, &pure_ack_payload(999));
    }
    for p in payloads {
        let repr = SubframeRepr {
            frame_type: FrameType::Data,
            retry: false,
            no_ack: false,
            duration_us: 2000,
            addr1: dst,
            addr2: src_mac,
            addr3: src_mac,
        };
        b.push_unicast(&repr, p);
    }
    let (phy_hdr, psdu, slots) = b.finish(Rate::R1_30.code(), Rate::R1_30.code());
    OnAirFrame::aggregate(phy_hdr, psdu, slots)
}

// ----------------------------------------------------------------------
// Transmit-side behaviour
// ----------------------------------------------------------------------

#[test]
fn unicast_tx_runs_full_rts_cts_data_ack_exchange() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ua), Rate::R1_30);
    enqueue_unicast(&mut h, 1, 500);

    // Backoff completes -> RTS.
    let f = h.run_until_tx();
    let OnAirFrame::Control(bytes) = &f else { panic!("expected control frame") };
    let ControlFrame::Rts { ra, ta, duration_us } = ControlFrame::parse(bytes).unwrap() else {
        panic!("expected RTS")
    };
    assert_eq!(ra, peer());
    assert_eq!(ta, me());
    assert!(duration_us > 0);

    // RTS airtime elapses.
    h.advance(Duration::from_micros(500));
    h.feed(MacInput::TxDone);

    // CTS arrives.
    h.advance(Duration::from_micros(400));
    let cts = ControlFrame::Cts { duration_us: 3000, ra: me() };
    h.feed(MacInput::Rx(OnAirFrame::control(cts.to_bytes())));

    // SIFS fires -> data aggregate.
    let f = h.run_until_tx();
    let OnAirFrame::Aggregate { phy_hdr, .. } = &f else { panic!("expected aggregate") };
    assert_eq!(phy_hdr.bcast_len, 0);
    assert!(phy_hdr.ucast_len > 0);

    h.advance(Duration::from_millis(5));
    h.feed(MacInput::TxDone);

    // ACK arrives -> success, counters updated.
    h.advance(Duration::from_micros(400));
    let ack = ControlFrame::Ack { duration_us: 0, ra: me() };
    h.feed(MacInput::Rx(OnAirFrame::control(ack.to_bytes())));

    assert_eq!(h.mac.counters.tx_data_frames, 1);
    assert_eq!(h.mac.counters.tx_rts, 1);
    assert_eq!(h.mac.counters.retries, 0);
    assert_eq!(h.mac.queues().total_len(), 0);
}

#[test]
fn broadcast_only_tx_skips_handshake() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
    h.feed(MacInput::Enqueue { next_hop: MacAddr::BROADCAST, src: me(), payload: vec![0xEE; 100].into() });
    let f = h.run_until_tx();
    let OnAirFrame::Aggregate { phy_hdr, .. } = &f else { panic!("expected aggregate") };
    assert!(phy_hdr.bcast_len > 0);
    assert_eq!(phy_hdr.ucast_len, 0);
    h.advance(Duration::from_millis(2));
    h.feed(MacInput::TxDone);
    // No ACK expected; MAC is idle, no retries, no control frames.
    assert_eq!(h.mac.counters.tx_rts, 0);
    assert_eq!(h.mac.counters.tx_data_frames, 1);
}

#[test]
fn classified_tcp_ack_goes_to_broadcast_queue_and_air() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
    h.feed(MacInput::Enqueue { next_hop: peer(), src: me(), payload: pure_ack_payload(7).into() });
    assert_eq!(h.mac.queues().bcast_len(), 1);
    assert_eq!(h.mac.classifier_stats().acks_classified, 1);
    let f = h.run_until_tx();
    let OnAirFrame::Aggregate { phy_hdr, psdu, .. } = &f else { panic!() };
    assert_eq!(phy_hdr.ucast_len, 0);
    assert_eq!(phy_hdr.bcast_len, 160, "padded pure ACK is the paper's 160 B frame");
    // The subframe keeps its unicast address + no-ack flag.
    let parsed = hydra_wire::parse_aggregate(phy_hdr, psdu);
    let view = parsed[0].view();
    assert_eq!(view.addr1(), peer());
    assert!(view.is_no_ack());
}

#[test]
fn na_policy_keeps_acks_unicast() {
    let mut h = Harness::new(AggPolicy::new(Policy::Na), Rate::R1_30);
    h.feed(MacInput::Enqueue { next_hop: peer(), src: me(), payload: pure_ack_payload(7).into() });
    assert_eq!(h.mac.queues().bcast_len(), 0);
    assert_eq!(h.mac.queues().ucast_len(), 1);
    // Goes out through the full RTS path.
    let f = h.run_until_tx();
    assert!(matches!(f, OnAirFrame::Control(_)), "NA sends RTS first");
}

#[test]
fn cts_timeout_retries_then_drops() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ua), Rate::R1_30);
    enqueue_unicast(&mut h, 1, 500);
    let retry_limit = h.mac.config().retry_limit;

    for attempt in 0..=retry_limit {
        let f = h.run_until_tx();
        assert!(matches!(f, OnAirFrame::Control(_)), "attempt {attempt} should be an RTS");
        h.advance(Duration::from_micros(400));
        h.feed(MacInput::TxDone);
        // No CTS: let the timeout fire.
        h.fire_next_timer();
    }
    assert_eq!(h.dropped, 1, "burst dropped after {retry_limit} retries");
    assert_eq!(h.mac.counters.retry_drops, 1);
    // MAC must be quiescent afterwards.
    assert!(h.tx.is_empty());
}

#[test]
fn channel_busy_freezes_backoff() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ua), Rate::R1_30);
    enqueue_unicast(&mut h, 1, 500);
    assert_eq!(h.timers.len(), 1, "backoff armed");
    // Channel goes busy before the timer fires: countdown freezes.
    h.advance(Duration::from_micros(100));
    h.feed(MacInput::ChannelBusy);
    // The timer will fire stale; nothing happens.
    let timers: Vec<_> = h.timers.drain(..).collect();
    for (at, tok) in timers {
        h.now = h.now.max(at);
        h.feed(MacInput::Timer(tok));
    }
    assert!(h.tx.is_empty(), "must not transmit while frozen");
    // Idle again: countdown resumes and eventually transmits.
    h.feed(MacInput::ChannelIdle);
    let _ = h.run_until_tx();
}

#[test]
fn dba_waits_for_three_frames_then_sends_together() {
    let mut h = Harness::new(AggPolicy::new(Policy::Dba), Rate::R2_60);
    enqueue_unicast(&mut h, 1, 500);
    enqueue_unicast(&mut h, 2, 500);
    // Gate holds at 2 frames: only the flush timer is armed.
    assert_eq!(h.timers.len(), 1);
    enqueue_unicast(&mut h, 3, 500);
    // Third frame opens the gate.
    let f = h.run_until_tx();
    let OnAirFrame::Aggregate { slots, .. } = &f else {
        // RTS first (unicast portion) — that's fine, the aggregate follows.
        let OnAirFrame::Control(_) = &f else { panic!() };
        return;
    };
    assert_eq!(slots.len(), 3);
}

#[test]
fn dba_flush_timer_releases_stuck_frames() {
    let mut h = Harness::new(AggPolicy::new(Policy::Dba), Rate::R2_60);
    enqueue_unicast(&mut h, 1, 500);
    // Only the flush timer is pending; firing it opens the gate.
    h.fire_next_timer();
    let _ = h.run_until_tx();
    assert_eq!(h.mac.counters.tx_rts, 1, "frame released by flush");
}

// ----------------------------------------------------------------------
// Receive-side behaviour
// ----------------------------------------------------------------------

#[test]
fn responds_cts_to_rts_after_sifs() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
    let rts = ControlFrame::Rts { duration_us: 5000, ra: me(), ta: peer() };
    h.feed(MacInput::Rx(OnAirFrame::control(rts.to_bytes())));
    let f = h.run_until_tx();
    let OnAirFrame::Control(bytes) = &f else { panic!() };
    let ControlFrame::Cts { ra, duration_us } = ControlFrame::parse(bytes).unwrap() else {
        panic!("expected CTS")
    };
    assert_eq!(ra, peer());
    assert!(duration_us < 5000, "CTS duration shrinks by SIFS + CTS time");
}

#[test]
fn delivers_clean_unicast_and_acks() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
    let agg = incoming_aggregate(me(), peer(), &[udp_payload(1, 300), udp_payload(2, 300)], None);
    h.feed(MacInput::Rx(agg));
    // Both MPDUs delivered.
    assert_eq!(h.delivered.len(), 2);
    // ACK follows after SIFS.
    let f = h.run_until_tx();
    let OnAirFrame::Control(bytes) = &f else { panic!() };
    assert!(matches!(ControlFrame::parse(bytes).unwrap(), ControlFrame::Ack { .. }));
    assert_eq!(h.mac.counters.rx_unicast_ok, 1);
}

#[test]
fn corrupt_unicast_subframe_discards_all_no_ack() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
    let agg = incoming_aggregate(me(), peer(), &[udp_payload(1, 300), udp_payload(2, 300)], None);
    let OnAirFrame::Aggregate { phy_hdr, psdu, slots } = agg else { panic!() };
    // Corrupt a payload byte of the second unicast subframe (the shared
    // payload is immutable: copy out, damage, wrap back up).
    let mut bytes = psdu.to_vec();
    let r = &slots[1].range;
    bytes[r.start + 30] ^= 0x40;
    h.feed(MacInput::Rx(OnAirFrame::Aggregate { phy_hdr, psdu: bytes.into(), slots }));
    assert!(h.delivered.is_empty(), "all-or-nothing: nothing delivered");
    assert!(h.timers.is_empty() || h.tx.is_empty(), "no ACK scheduled");
    assert_eq!(h.mac.counters.rx_unicast_crc_drop, 1);
}

#[test]
fn broadcast_subframe_filtered_by_address() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
    // Aggregate whose broadcast subframe is addressed to someone else,
    // unicast portion addressed to someone else too.
    let other = MacAddr::from_node_id(7);
    let agg = incoming_aggregate(other, peer(), &[udp_payload(1, 300)], Some(other));
    h.feed(MacInput::Rx(agg));
    assert!(h.delivered.is_empty());
    assert_eq!(h.mac.counters.rx_broadcast_filtered, 1);
    assert_eq!(h.mac.counters.rx_broadcast_ok, 0);
}

#[test]
fn broadcast_subframe_addressed_to_me_delivered_without_ack() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
    let other = MacAddr::from_node_id(7);
    // Broadcast subframe for me; unicast portion for someone else.
    let agg = incoming_aggregate(other, peer(), &[udp_payload(1, 300)], Some(me()));
    h.feed(MacInput::Rx(agg));
    assert_eq!(h.delivered.len(), 1, "classified ACK delivered to me");
    assert_eq!(h.mac.counters.rx_broadcast_ok, 1);
    // No ACK for the broadcast portion, and the unicast portion isn't ours:
    // the only timer allowed is NAV-related; no transmission may result.
    while !h.timers.is_empty() {
        h.fire_next_timer();
    }
    assert!(h.tx.is_empty(), "no link ACK for broadcast subframes");
}

#[test]
fn true_broadcast_delivered_to_everyone() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
    let agg = incoming_aggregate(MacAddr::from_node_id(7), peer(), &[], Some(MacAddr::BROADCAST));
    h.feed(MacInput::Rx(agg));
    assert_eq!(h.delivered.len(), 1);
}

#[test]
fn duplicate_retry_delivery_is_filtered() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
    use hydra_wire::aggregate::AggregateBuilder;
    use hydra_wire::subframe::{FrameType, SubframeRepr};
    let build = |retry: bool| {
        let repr = SubframeRepr {
            frame_type: FrameType::Data,
            retry,
            no_ack: false,
            duration_us: 2000,
            addr1: me(),
            addr2: peer(),
            addr3: peer(),
        };
        let mut b = AggregateBuilder::new();
        b.push_unicast(&repr, &udp_payload(42, 200));
        let (phy_hdr, psdu, slots) = b.finish(Rate::R1_30.code(), Rate::R1_30.code());
        OnAirFrame::aggregate(phy_hdr, psdu, slots)
    };
    h.feed(MacInput::Rx(build(false)));
    assert_eq!(h.delivered.len(), 1);
    // Fire the pending ACK response so the MAC is free again.
    while !h.timers.is_empty() {
        h.fire_next_timer();
    }
    h.tx.clear();
    h.feed(MacInput::TxDone); // finish our ACK response if started
                              // Same packet retried (ACK was lost at the sender).
    h.advance(Duration::from_millis(1));
    h.feed(MacInput::Rx(build(true)));
    assert_eq!(h.delivered.len(), 1, "duplicate filtered");
    // But it is still ACKed (the sender needs the ACK).
    assert_eq!(h.mac.counters.rx_unicast_ok, 2);
}

#[test]
fn rts_for_someone_else_sets_nav_and_defers() {
    let mut h = Harness::new(AggPolicy::new(Policy::Ua), Rate::R1_30);
    // A long NAV from a foreign RTS.
    let rts = ControlFrame::Rts { duration_us: 50_000, ra: peer(), ta: MacAddr::from_node_id(7) };
    h.feed(MacInput::Rx(OnAirFrame::control(rts.to_bytes())));
    // Now traffic arrives; contention must wait out the NAV.
    enqueue_unicast(&mut h, 1, 200);
    // First timer is the NAV wake-up; the MAC must not transmit before
    // now + 50 ms.
    let before = h.now;
    let f = h.run_until_tx();
    assert!(matches!(f, OnAirFrame::Control(_)));
    assert!(
        h.now.duration_since(before) >= Duration::from_micros(50_000),
        "transmitted before NAV expiry: {} after {}",
        h.now,
        before
    );
}

// ----------------------------------------------------------------------
// Control frames: typed while intact, parsed otherwise
// ----------------------------------------------------------------------

/// Drives one sender-side exchange (enqueue → RTS → CTS → DATA → ACK) and
/// one receiver-side one (RTS → CTS, foreign RTS → NAV), handing the MAC
/// every control frame through `wrap`, and returns everything observable.
fn control_exchange_transcript(wrap: fn(&ControlFrame) -> OnAirFrame) -> String {
    let mut log = String::new();
    let mut h = Harness::new(AggPolicy::new(Policy::Ua), Rate::R1_30);
    enqueue_unicast(&mut h, 1, 500);
    enqueue_unicast(&mut h, 2, 500);
    h.fire_next_timer();
    let rts = h.run_until_tx();
    h.feed(MacInput::TxDone);
    h.feed(MacInput::Rx(wrap(&ControlFrame::Cts { duration_us: 900, ra: me() })));
    let data = h.run_until_tx();
    h.feed(MacInput::TxDone);
    h.feed(MacInput::Rx(wrap(&ControlFrame::Ack { duration_us: 0, ra: me() })));
    log += &format!("{rts:?}\n{data:?}\n{:?}\n", h.timers);
    // Receiver side, plus frames that are not for us or not expected
    // (the superseded CTS / ACK timeouts fire first and are refused).
    while !h.timers.is_empty() {
        h.fire_next_timer();
    }
    h.feed(MacInput::Rx(wrap(&ControlFrame::Rts { duration_us: 5000, ra: me(), ta: peer() })));
    let cts = h.run_until_tx();
    h.feed(MacInput::TxDone);
    h.feed(MacInput::Rx(wrap(&ControlFrame::Rts {
        duration_us: 700,
        ra: peer(),
        ta: MacAddr::from_node_id(7),
    })));
    h.feed(MacInput::Rx(wrap(&ControlFrame::Cts { duration_us: 300, ra: peer() })));
    h.feed(MacInput::Rx(wrap(&ControlFrame::Ack { duration_us: 0, ra: me() })));
    h.feed(MacInput::Rx(wrap(&ControlFrame::BlockAck { duration_us: 0, ra: me(), bitmap: 0b101 })));
    log += &format!("{cts:?}\n{:?}\n{:?}\n{:?}", h.timers, h.tx, h.mac.counters);
    log
}

#[test]
fn typed_and_raw_control_frames_drive_the_mac_identically() {
    let raw = control_exchange_transcript(|f| OnAirFrame::control(f.to_bytes()));
    let typed = control_exchange_transcript(OnAirFrame::control_frame);
    assert_eq!(raw, typed);
    assert!(raw.contains("rx_control_ignored: 2"), "the stray ACK and block ACK were counted:\n{raw}");
}

#[test]
fn a_corrupted_control_frame_is_ignored_however_it_was_built() {
    use hydra_phy::{apply_channel, LinkErrorPass};
    let profile = PhyProfile::hydra();
    let rts = ControlFrame::Rts { duration_us: 5000, ra: me(), ta: peer() };
    let mut rng = Rng::seed_from_u64(5);
    for (i, built) in
        [OnAirFrame::control_frame(&rts), OnAirFrame::control(rts.to_bytes())].iter().enumerate()
    {
        let hit = apply_channel(built, 25.0, &mut LinkErrorPass { p: 1.0 }, &mut rng, &profile).unwrap();
        let OnAirFrame::Control(c) = &hit else { panic!() };
        assert_eq!(c.typed(), None);
        let mut h = Harness::new(AggPolicy::new(Policy::Ba), Rate::R1_30);
        h.feed(MacInput::Rx(hit));
        assert_eq!(h.mac.counters.rx_control_ignored, 1, "case {i}");
        assert!(h.timers.is_empty() && h.tx.is_empty(), "a damaged RTS earns no CTS");
        // The same frame undamaged does.
        h.feed(MacInput::Rx(built.clone()));
        let f = h.run_until_tx();
        let OnAirFrame::Control(cts) = &f else { panic!() };
        assert!(matches!(cts.typed(), Some(ControlFrame::Cts { .. })), "the MAC's own frames leave typed");
    }
}
