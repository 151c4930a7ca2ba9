//! The result store's codec from the outside: what `append_batch`
//! writes, `open` reads back bit for bit; whatever else is in the file —
//! damaged, hostile, of an older layout — is skipped or quarantined and
//! never panics, aborts, or fails the open.
//!
//! `data/runs_golden.jsonl` is the golden file of the current layout.
//! Lines 1–4 are verbatim from `append_batch`, given the outcomes that
//! `data/runs_v6.jsonl`'s lines 1–4 decode to under v6, each record's
//! window the `duration` of the spec it was written with: every rate
//! pinned below is the one v6 stored, derived again, except two values
//! that were never a run's (line 3's `NaN` headline, now the 0 a record
//! without flows derives, and line 4's on/off rate, 0.1 + 0.2 bit/s, now
//! its 640 bytes over 2 s). Line 3 holds the edge values, its ledgers the
//! extremes that do not overflow; line 5 is v6's line 1, byte for byte;
//! lines 6–9 are line 1 edited by hand and re-sealed. No line names the
//! build that wrote it (the store file's name does), so the file is the
//! same for every build; it changes only with the record layout.
//! `data/runs_v6.jsonl` — an older layout's golden file, its rates
//! stored as floats, under the store's old name `runs.jsonl` — is a
//! legacy store that no build opens.

use std::path::PathBuf;

use hydra_bench::{CacheStats, ConcurrentCache};
use hydra_core::{Cat, Ledger};
use hydra_netsim::{
    parse_scn_file, FlowKind, FlowOutcome, FlowSpec, FlowTraffic, NodeReport, Policy, RunOutcome, RunPerf,
    RunReport, ScenarioSpec, TopologyKind,
};
use hydra_phy::Rate;
use hydra_sim::{Duration, Instant};
use proptest::prelude::*;
use proptest::TestRng;

const FIXTURE: &str = include_str!("data/runs_golden.jsonl");
const V6_FIXTURE: &[u8] = include_bytes!("data/runs_v6.jsonl");

/// A scratch store directory, removed again on drop.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tmp_dir(tag: &str) -> TmpDir {
    let dir = std::env::temp_dir().join(format!("hydra-store-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TmpDir(dir)
}

/// Opens a store whose file holds exactly `bytes`.
fn open_bytes(dir: &TmpDir, bytes: &[u8]) -> ConcurrentCache {
    std::fs::write(ConcurrentCache::open(&dir.0).unwrap().path().unwrap(), bytes).unwrap();
    ConcurrentCache::open(&dir.0).expect("open never fails on file contents")
}

/// `json` with a valid integrity trailer and a newline.
fn sealed(json: &[u8]) -> Vec<u8> {
    let mut line = json.to_vec();
    line.extend_from_slice(format!("#crc:{:08x}\n", hydra_wire::crc::crc32(json)).as_bytes());
    line
}

/// Fixture line `n` (1-based), newline removed.
fn fixture_line(n: usize) -> Vec<u8> {
    FIXTURE.lines().nth(n - 1).unwrap().as_bytes().to_vec()
}

/// The JSON of fixture line `n` (1-based), trailer removed.
fn fixture_json(n: usize) -> String {
    let line = fixture_line(n);
    String::from_utf8(line[..line.iter().rposition(|&b| b == b'#').unwrap()].to_vec()).unwrap()
}

/// Everything the store persists and derives, rendered so that equal
/// text means equal bits (`-0.0` ≠ `0.0`).
fn persisted(o: &RunOutcome) -> String {
    format!("{:?}", (o.completed, o.throughput_bps, &o.per_flow, &o.report))
}

/// True when the store's JSON holds no number but a plain run of digits
/// and no non-finite token: outside its string literals, only digits,
/// `,`, `[`, `]`, `true`, `false` and `null`.
fn integers_only(bytes: &[u8]) -> bool {
    let mut outside = Vec::new();
    for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let json = &line[..line.iter().rposition(|&b| b == b'#').unwrap()];
        // No record string holds a quote, so the quotes pair up.
        outside.extend(json.split(|&b| b == b'"').step_by(2).flatten());
    }
    let text =
        String::from_utf8(outside).unwrap().replace("true", "").replace("false", "").replace("null", "");
    text.bytes().all(|b| b.is_ascii_digit() || b"[],".contains(&b))
}

// ---------------------------------------------------------------------
// Arbitrary outcomes
// ---------------------------------------------------------------------

/// A ledger as a run or a hostile file could hold it without
/// overflowing: zeros, airtimes, slots up to a seventh of the range, or
/// the whole range in one slot.
fn arbitrary_ledger(rng: &mut TestRng) -> Ledger {
    let mut slots = [0; Cat::ALL.len()];
    match rng.below(4) {
        0 => {}
        1 => slots[rng.below(7) as usize] = u64::MAX,
        _ => {
            slots = std::array::from_fn(|_| {
                [0, rng.below(1 << 40), rng.below(u64::MAX / 7)][rng.below(3) as usize]
            })
        }
    }
    Ledger(slots.map(Duration::from_nanos))
}

fn arbitrary_traffic(rng: &mut TestRng) -> FlowTraffic {
    let dur = |rng: &mut TestRng| Duration::from_nanos(1 + rng.below(u64::MAX - 1));
    let payload = |rng: &mut TestRng| 4 + rng.below(5000) as usize;
    match rng.below(3) {
        0 => FlowTraffic::FileTransfer { bytes: rng.next_u64() as usize },
        1 => FlowTraffic::Cbr { interval: dur(rng), payload: payload(rng) },
        _ => FlowTraffic::OnOff {
            burst: 1 + rng.below(u64::from(u32::MAX)) as u32,
            idle: dur(rng),
            interval: dur(rng),
            payload: payload(rng),
        },
    }
}

/// A count at either end of its range or anywhere between.
fn arbitrary_count(rng: &mut TestRng) -> u64 {
    [0, 1, u64::MAX, rng.below(1 << 20), rng.next_u64()][rng.below(5) as usize]
}

/// An outcome built as a run builds one, through the two constructors,
/// over `window`: counts and instants at both ends of their ranges.
fn arbitrary_outcome(rng: &mut TestRng, window: Duration) -> RunOutcome {
    let per_flow = (0..rng.below(4))
        .map(|_| {
            let mut traffic = arbitrary_traffic(rng);
            if let FlowTraffic::FileTransfer { bytes } = &mut traffic {
                *bytes = arbitrary_count(rng) as usize;
            }
            let flow = FlowSpec {
                src: rng.next_u64() as usize,
                dst: rng.below(1000) as usize,
                port: rng.next_u64() as u16,
                traffic,
            };
            let completed_at = (rng.below(2) == 0).then(|| Instant::from_nanos(arbitrary_count(rng)));
            FlowOutcome::new(flow, arbitrary_count(rng), completed_at, window)
        })
        .collect();
    let nodes = (0..rng.below(4))
        .map(|_| NodeReport {
            node: rng.below(5000) as usize,
            tx_data_frames: rng.next_u64(),
            tx_control: rng.below(100),
            tx_psdu_bytes: rng.next_u64(),
            avg_subframes: 0.0,
            subframes_sent: (rng.next_u64(), rng.below(10)),
            tx_overhead_bytes: rng.below(1 << 40),
            ledger: arbitrary_ledger(rng),
            retries: rng.next_u64(),
            retry_drops: rng.below(3),
            queue_overflow: rng.next_u64(),
            acks_classified: rng.below(3),
            bcast_filtered: rng.next_u64(),
            bcast_ok: rng.below(3),
            bcast_crc_fail: rng.next_u64(),
            unicast_ok: rng.below(3),
            unicast_crc_drops: rng.next_u64(),
            collisions_seen: rng.below(3),
            forwarded: rng.next_u64(),
        })
        .map(NodeReport::with_avg_subframes)
        .collect();
    let report = RunReport {
        nodes,
        at: Instant::from_nanos(rng.next_u64()),
        collisions: rng.next_u64(),
        phy_header_bytes: [8, rng.next_u64()][rng.below(2) as usize],
    };
    RunOutcome {
        // Only the event count reaches the store (as the `events` hint).
        perf: RunPerf { events_processed: rng.below(3) * rng.below(1 << 40), ..RunPerf::default() },
        ..RunOutcome::new(rng.below(2) == 0, per_flow, report)
    }
}

fn udp_spec() -> ScenarioSpec {
    let mut spec =
        ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
    spec.warmup = Duration::from_millis(200);
    spec.duration = Duration::from_secs(1);
    spec
}

fn mixed_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::tcp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30);
    spec.traffic = FlowTraffic::FileTransfer { bytes: 20 * 1024 };
    spec.warmup = Duration::from_millis(200);
    spec.duration = Duration::from_secs(2);
    spec.add_flow(FlowSpec {
        src: 0,
        dst: 1,
        port: 9000,
        traffic: FlowTraffic::Cbr { interval: Duration::from_millis(20), payload: 160 },
    })
}

/// A store of `n` arbitrary outcomes under keys `(1..=n, 1)`, each
/// written with a spec whose `duration`, its window, is 0, 1 ns, any
/// length, or the longest: the outcomes and the file's bytes.
fn arbitrary_store(tag: &str, seed: u64, n: u64) -> (Vec<RunOutcome>, Vec<u8>) {
    let mut rng = TestRng::new(seed);
    let specs: Vec<ScenarioSpec> = (0..n)
        .map(|_| ScenarioSpec { duration: Duration::from_nanos(arbitrary_count(&mut rng)), ..udp_spec() })
        .collect();
    let outcomes: Vec<RunOutcome> =
        specs.iter().map(|spec| arbitrary_outcome(&mut rng, spec.duration)).collect();
    let dir = tmp_dir(tag);
    let records: Vec<_> =
        (1..=n).zip(&specs).zip(&outcomes).map(|((hash, spec), o)| (hash, 1, spec, o)).collect();
    let cache = ConcurrentCache::open(&dir.0).unwrap();
    cache.append_batch(&records).unwrap();
    let bytes = std::fs::read(cache.path().unwrap()).unwrap();
    (outcomes, bytes)
}

proptest! {
    /// encode → seal → open is the identity on everything persisted and
    /// derived, empty lists, extreme counts and windows and ledger
    /// extremes included; no derived rate is non-finite, and the file
    /// holds no number but a digit run.
    #[test]
    fn arbitrary_outcomes_round_trip_bit_exactly(seed in any::<u64>()) {
        let (outcomes, bytes) = arbitrary_store("roundtrip-fill", seed, 3);
        prop_assert!(integers_only(&bytes), "{}", String::from_utf8_lossy(&bytes));
        for o in &outcomes {
            prop_assert!(o.throughput_bps.is_finite() && o.per_flow.iter().all(|f| f.bps.is_finite()), "{o:?}");
        }
        let dir = tmp_dir("roundtrip");
        let cache = open_bytes(&dir, &bytes);
        prop_assert_eq!(cache.stats(), CacheStats::default());
        let index = cache.index();
        prop_assert_eq!(index.len(), outcomes.len());
        for (hash, written) in (1..).zip(&outcomes) {
            let read = index.get(hash, 1).expect("every record loads");
            prop_assert_eq!(persisted(read), persisted(written));
            prop_assert_eq!(read.perf.events_processed, 0, "telemetry is not persisted");
            let hint = Some(written.perf.events_processed).filter(|&n| n > 0);
            prop_assert_eq!(index.events_hint(hash), hint);
        }
    }

    /// One damaged byte anywhere in a valid file costs at most the
    /// line(s) it touches: every record that still loads is the one
    /// that was written, the rest is quarantined, and the compacted
    /// file is clean.
    #[test]
    fn a_single_byte_mutation_is_loaded_equal_or_quarantined(
        seed in 0u64..8,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (outcomes, mut bytes) = arbitrary_store("mutate-fill", seed, 3);
        let at = at % bytes.len();
        bytes[at] = byte;
        let dir = tmp_dir("mutate");
        let cache = open_bytes(&dir, &bytes);
        let (index, stats) = (cache.index(), cache.stats());
        // Joining two lines loses both; splitting one leaves two fragments.
        prop_assert!(index.len() + 2 >= outcomes.len() && stats.quarantined <= 2, "{stats:?}");
        prop_assert_eq!(stats.skipped, 0, "CRC-32 sees every single-byte change");
        for (hash, written) in (1..).zip(&outcomes) {
            if let Some(read) = index.get(hash, 1) {
                prop_assert_eq!(persisted(read), persisted(written));
            }
        }
        let healed = ConcurrentCache::open(&dir.0).unwrap();
        prop_assert_eq!((healed.len(), healed.stats().quarantined), (index.len(), 0));
    }

    /// Hostile content with a *valid* trailer reaches the decoder: a
    /// record with one byte replaced, and plain noise, each re-sealed.
    /// Either may load or be skipped; neither may panic or fail the
    /// open, and good neighbours stay warm.
    #[test]
    fn crc_valid_damage_never_panics_the_decoder(
        at in any::<usize>(),
        byte in any::<u8>(),
        noise in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut json = fixture_json(1 + at % 4).into_bytes();
        let at = at % json.len();
        json[at] = byte;
        let mut bytes = sealed(&json);
        bytes.extend(sealed(&noise));
        bytes.extend(&noise);
        bytes.push(b'\n');
        bytes.extend(sealed(fixture_json(2).as_bytes()));
        let dir = tmp_dir("hostile");
        let cache = open_bytes(&dir, &bytes);
        prop_assert!(cache.index().get(0x01a4_8cff_3f17_7189, 1).is_some(), "the intact record loads");
        let healed = ConcurrentCache::open(&dir.0).unwrap();
        prop_assert_eq!((healed.len(), healed.stats().quarantined), (cache.len(), 0));
    }
}

// ---------------------------------------------------------------------
// Golden fixture
// ---------------------------------------------------------------------

const UDP_HASH: u64 = 0x5e50_3de9_e7a9_cece;
const MIXED_HASH: u64 = 0x01a4_8cff_3f17_7189;

#[test]
fn the_golden_store_decodes_to_the_pinned_values() {
    let dir = tmp_dir("golden");
    let cache = open_bytes(&dir, FIXTURE.as_bytes());
    // Line 5 is a v6 record, and lines 6–9 are line 1 with a column too
    // many, one too few, two columns of different kinds swapped, and a
    // sender ledger whose total overflows. Nothing is damaged, so all
    // five are skipped and kept; line 9 in particular does not replace
    // line 1.
    assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0, skipped: 5, quarantined: 0 });
    assert_eq!(
        std::fs::read(cache.path().unwrap()).unwrap(),
        FIXTURE.as_bytes(),
        "a clean open rewrites nothing"
    );
    let index = cache.index();
    assert_eq!(index.len(), 4);
    assert_eq!((udp_spec().stable_hash(), mixed_spec().stable_hash()), (UDP_HASH, MIXED_HASH));
    assert_eq!((index.events_hint(UDP_HASH), index.events_hint(MIXED_HASH)), (Some(1142), Some(2180)));
    assert_eq!(index.events_hint(0x00c0_ffee), None);

    // Line 1, a real UDP run: 52 250 bytes over its 1 s window.
    let udp = index.get(UDP_HASH, 1).unwrap();
    assert!(udp.completed);
    assert_eq!(udp.throughput_bps.to_bits(), 0x4119_8340_0000_0000);
    assert_eq!(
        udp.per_flow,
        [FlowOutcome::new(
            FlowSpec {
                src: 0,
                dst: 1,
                port: 9000,
                traffic: FlowTraffic::Cbr { interval: Duration::from_millis(20), payload: 1045 }
            },
            52250,
            None,
            Duration::from_secs(1)
        )]
    );
    assert_eq!(udp.per_flow[0].bps, 418_000.0);
    assert_eq!(
        (udp.report.at, udp.report.collisions, udp.report.phy_header_bytes),
        (Instant::from_nanos(1_200_000_000), 0, 8)
    );
    let [sender, sink] = &udp.report.nodes[..] else { panic!("two nodes") };
    assert_eq!(
        (sender.node, sender.tx_data_frames, sender.tx_control, sender.avg_frame_size()),
        (0, 60, 60, 1140.0)
    );
    assert_eq!((sender.tx_psdu_bytes, sender.tx_overhead_bytes, sender.avg_subframes), (68_400, 1_800, 1.0));
    // The ratios v5 stored are the ones the counts give.
    assert_eq!(udp.report.size_overhead(0).to_bits(), 0.033101045296167246f64.to_bits());
    assert_eq!(sender.ledger[Cat::Difs], Duration::from_nanos(12_000_000));
    assert_eq!(sender.ledger[Cat::Phy], Duration::from_nanos(16_107_720));
    assert_eq!(sender.ledger.total(), Duration::from_nanos(569_727_080));
    // The ratio v4 stored beside the ledger is the one it derives.
    assert_eq!(sender.ledger.time_overhead().to_bits(), 0.280627138172895f64.to_bits());
    assert_eq!((sink.node, sink.tx_control, sink.unicast_ok), (1, 120, 60));
    assert_eq!((sink.ledger, sink.ledger.time_overhead()), (Ledger::default(), 0.0));
    assert_eq!((sink.avg_frame_size(), sink.avg_subframes, udp.report.size_overhead(1)), (0.0, 0.0, 0.0));

    // Line 2, TCP + CBR in one world: the headline is the transfer's
    // 20 480 bytes over 194.747559 ms, the bits v6 stored.
    let mixed = index.get(MIXED_HASH, 1).unwrap();
    assert_eq!(mixed.throughput_bps.to_bits(), 0x4129_ac9c_7bd3_0fa7);
    assert_eq!(mixed.per_flow[0].bps.to_bits(), 841294.2418446437f64.to_bits());
    assert_eq!(mixed.per_flow[0].completed_at, Some(Instant::from_nanos(194_747_559)));
    assert_eq!(
        (mixed.per_flow[1].bytes, mixed.per_flow[1].bps, mixed.per_flow[1].completed_at),
        (16000, 64000.0, None)
    );
    let [client, server] = &mixed.report.nodes[..] else { panic!("two nodes") };
    assert_eq!((client.tx_data_frames, server.tx_data_frames), (108, 6));
    assert_eq!(
        (
            client.avg_frame_size().to_bits(),
            client.avg_subframes,
            server.avg_frame_size(),
            server.avg_subframes
        ),
        (469.18518518518516f64.to_bits(), 128.0 / 108.0, 480.0, 3.0)
    );
    assert_eq!(
        (mixed.report.size_overhead(0).to_bits(), mixed.report.size_overhead(1).to_bits()),
        (0.09546724619683328f64.to_bits(), 0.5266393442622951f64.to_bits())
    );
    let overhead = |n: usize| mixed.report.nodes[n].ledger.time_overhead().to_bits();
    assert_eq!(
        (overhead(0), overhead(1)),
        (0.49833814014888345f64.to_bits(), 0.7437933791197716f64.to_bits())
    );

    // Line 3: no flows, so a headline of 0; extreme integers, and the
    // ledger extremes that do not overflow: a total of exactly `u64::MAX`
    // nanoseconds, spread over every slot or held in one. The ratios of
    // counts that sum past `u64::MAX` are still finite.
    let edge = index.get(0x00c0_ffee, 7).unwrap();
    assert!(!edge.completed && edge.throughput_bps.to_bits() == 0 && edge.per_flow.is_empty());
    assert_eq!((edge.report.at, edge.report.phy_header_bytes), (Instant::from_nanos(u64::MAX), u64::MAX));
    let [n, m] = &edge.report.nodes[..] else { panic!("two nodes") };
    assert_eq!((n.tx_psdu_bytes, n.tx_overhead_bytes, n.subframes_sent), (u64::MAX, u64::MAX, (3, u64::MAX)));
    assert_eq!((n.avg_frame_size(), n.avg_subframes), (u64::MAX as f64, u64::MAX as f64));
    assert_eq!(edge.report.size_overhead(0), 1.0);
    assert_eq!(n.ledger[Cat::Payload], Duration::from_nanos(u64::MAX - 6));
    assert!(Cat::ALL[1..].iter().all(|&c| n.ledger[c] == Duration::from_nanos(1)));
    assert_eq!((n.ledger.total(), m.ledger.total()), (Duration::MAX, Duration::MAX));
    assert_eq!(n.ledger.time_overhead(), 6.0 / 1e9 / (u64::MAX as f64 / 1e9));
    assert_eq!((m.ledger[Cat::Backoff], m.ledger.time_overhead()), (Duration::MAX, 1.0));

    // Line 4: a transfer that missed its deadline beside one that made
    // it; the headline is the worst transfer's 0.
    let stuck = index.get(0xdead_beef_0000_0001, 1).unwrap();
    assert!(stuck.report.nodes.is_empty());
    let done: Vec<_> = stuck.per_flow.iter().map(|f| f.completed_at).collect();
    assert_eq!(done, [None, None, Some(Instant::from_nanos(1_000_000_000))]);
    let rates: Vec<_> = stuck.per_flow.iter().map(|f| f.bps).collect();
    assert_eq!((rates, stuck.throughput_bps.to_bits()), (vec![0.0, 640.0 * 8.0 / 2.0, 8.0], 0));
    assert_eq!(
        stuck.per_flow[1].flow.traffic,
        FlowTraffic::OnOff {
            burst: 3,
            idle: Duration::from_millis(7),
            interval: Duration::from_micros(1500),
            payload: 64
        }
    );
}

#[test]
fn the_encoder_reproduces_the_golden_bytes() {
    let golden = open_bytes(&tmp_dir("golden-read"), FIXTURE.as_bytes()).index();
    let (udp, mixed) = (udp_spec(), mixed_spec());
    // What `append_batch` was given for lines 1–4. The event count is
    // not part of a decoded outcome; it comes back from the hint.
    let fresh = |hash, rep| {
        let mut outcome = RunOutcome::clone(golden.get(hash, rep).unwrap());
        outcome.perf.events_processed = golden.events_hint(hash).unwrap_or(0);
        outcome
    };
    let outcomes =
        [fresh(UDP_HASH, 1), fresh(MIXED_HASH, 1), fresh(0x00c0_ffee, 7), fresh(0xdead_beef_0000_0001, 1)];
    let dir = tmp_dir("golden-write");
    let cache = ConcurrentCache::open(&dir.0).unwrap();
    cache
        .append_batch(&[
            (UDP_HASH, 1, &udp, &outcomes[0]),
            (MIXED_HASH, 1, &mixed, &outcomes[1]),
            (0x00c0_ffee, 7, &udp, &outcomes[2]),
            (0xdead_beef_0000_0001, 1, &mixed, &outcomes[3]),
        ])
        .unwrap();
    let written = std::fs::read_to_string(cache.path().unwrap()).unwrap();
    let four_lines = FIXTURE.match_indices('\n').nth(3).unwrap().0 + 1;
    assert_eq!(written, FIXTURE[..four_lines]);
}

#[test]
fn a_ledger_category_is_its_index_in_cat_all() {
    // A ledger's slots are written in `Cat::ALL` order, so a category's
    // column is its index there and that order is part of the format:
    // reordering or adding a `Cat` changes the layout.
    let order = [Cat::Payload, Cat::MacHeader, Cat::Phy, Cat::Control, Cat::Difs, Cat::Sifs, Cat::Backoff];
    assert_eq!(Cat::ALL, order);
    let ledger = ",1800,409846200,11076960,16107720,66046200,12000000,27000000,27650000,0,";
    assert!(fixture_json(1).contains(ledger), "line 1's sender ledger, as written");
    let index = open_bytes(&tmp_dir("cat-order"), FIXTURE.as_bytes()).index();
    let sender = &index.get(UDP_HASH, 1).unwrap().report.nodes[0];
    let nanos = Cat::ALL.map(|c| sender.ledger[c].as_nanos());
    assert_eq!(nanos, [409_846_200, 11_076_960, 16_107_720, 66_046_200, 12_000_000, 27_000_000, 27_650_000]);
}

/// A v6 store, under the name every store file had before the file took
/// the fingerprint's, is never opened: nothing loads, nothing is skipped
/// or quarantined, and its bytes stay as they were.
#[test]
fn a_v6_store_opens_cold_and_untouched() {
    let dir = tmp_dir("v6");
    let legacy = dir.0.join("runs.jsonl");
    std::fs::write(&legacy, V6_FIXTURE).unwrap();
    let cache = ConcurrentCache::open(&dir.0).unwrap();
    assert_eq!(cache.stats(), CacheStats::default());
    assert!(cache.is_empty());
    assert_ne!(cache.path(), Some(legacy.as_path()));
    assert_eq!(std::fs::read(&legacy).unwrap(), V6_FIXTURE, "the old records are kept");
}

/// Table 4's relay ledger, run live, survives the store exactly: every
/// category, in nanoseconds, and the ratio Table 4 prints, bit for bit
/// the one the MAC's own ledger gives.
#[test]
fn a_live_table4_relay_ledger_survives_the_store_exactly() {
    let file = parse_scn_file(include_str!("../../../examples/sweeps/table4_time_overhead.scn")).unwrap();
    for policy in [Policy::Na, Policy::Ua, Policy::Ba, Policy::Dba] {
        let spec = file.specs.iter().find(|s| s.rate == Rate::R0_65 && s.policy == policy).unwrap();
        // The relay's MAC, run as `run()` runs a file-transfer cell.
        let mut world = spec.build();
        world.start();
        world.run_until_transfers_complete(Instant::ZERO + spec.warmup + spec.duration);
        let mac = world.nodes[1].mac.counters.time;
        let live = spec.run();
        assert_eq!(live.report.nodes[1].ledger, mac, "{policy:?}: the report holds the MAC's ledger");
        assert!(Cat::ALL.iter().all(|&c| !mac[c].is_zero()), "{policy:?}: an empty category: {mac:?}");
        // Table 4's ratio, as the MAC has always computed it.
        let (payload, total) = (mac[Cat::Payload], mac.total());
        let ratio = (total - payload).as_secs_f64() / total.as_secs_f64();

        let dir = tmp_dir("table4");
        ConcurrentCache::open(&dir.0).unwrap().append_batch(&[(spec.stable_hash(), 1, spec, &live)]).unwrap();
        let index = ConcurrentCache::open(&dir.0).unwrap().index();
        let stored = index.get(spec.stable_hash(), 1).expect("the live record loads");
        assert_eq!(**stored, live, "{policy:?}");
        let relay = &stored.report.nodes[1].ledger;
        assert_eq!((relay.time_overhead().to_bits(), *relay), (ratio.to_bits(), mac), "{policy:?}");
        assert_eq!(stored.report.time_overhead_pct(1).to_bits(), (ratio * 100.0).to_bits(), "{policy:?}");
    }
}

/// A live run's rates and the ones its record derives on decode are the
/// same bits: a mixed spec with a transfer that completes, one that
/// misses its deadline, CBR and on/off flows; and a window-only spec
/// that leaves `duration` at its default.
#[test]
fn live_rates_equal_decoded_rates_bit_for_bit() {
    let on_off = FlowTraffic::OnOff {
        burst: 3,
        idle: Duration::from_millis(40),
        interval: Duration::from_millis(5),
        payload: 200,
    };
    let mixed = mixed_spec()
        .add_flow(FlowSpec {
            src: 0,
            dst: 1,
            port: 5002,
            traffic: FlowTraffic::FileTransfer { bytes: 4 << 20 },
        })
        .add_flow(FlowSpec { src: 0, dst: 1, port: 9001, traffic: on_off });
    let window_only =
        ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
    let specs = [mixed, window_only];
    let live = specs.clone().map(|spec| spec.run());
    let kinds: Vec<_> = live[0].per_flow.iter().map(|f| (f.kind, f.completed_at.is_some())).collect();
    assert_eq!(
        kinds,
        [
            (FlowKind::FileTransfer, true),
            (FlowKind::Cbr, false),
            (FlowKind::FileTransfer, false),
            (FlowKind::OnOff, false)
        ]
    );
    assert!(!live[0].completed && live[0].throughput_bps == 0.0, "the stuck transfer is the headline");
    assert!(live[0].per_flow.iter().enumerate().all(|(i, f)| (f.bps > 0.0) == (i != 2)));
    assert!(live[1].throughput_bps > 0.0);

    let dir = tmp_dir("live-rates");
    let batch: Vec<_> =
        specs.iter().zip(&live).map(|(spec, live)| (spec.stable_hash(), 1, spec, live)).collect();
    ConcurrentCache::open(&dir.0).unwrap().append_batch(&batch).unwrap();
    let index = ConcurrentCache::open(&dir.0).unwrap().index();
    let bits = |o: &RunOutcome| {
        (o.throughput_bps.to_bits(), o.per_flow.iter().map(|f| f.bps.to_bits()).collect::<Vec<_>>())
    };
    for (spec, live) in specs.iter().zip(&live) {
        let stored = index.get(spec.stable_hash(), 1).expect("the live record loads");
        assert_eq!(**stored, *live, "{spec:?}");
        assert_eq!(bits(stored), bits(live), "{spec:?}");
    }
}

/// Welford's running mean, the one the MAC kept per data frame before a
/// report held the counts its averages are now divided from.
#[derive(Clone, Copy, Default)]
struct RunningMean {
    n: u64,
    mean: f64,
}

impl RunningMean {
    fn push(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }
}

/// How many representable doubles apart two non-negative values are.
fn ulps(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

/// Every cell of the tables that print the ratios a node report derives
/// from counts (Table 3's relay, Tables 5–7's 2-hop and star relays,
/// Table 8's every node), run live at its spec seed: the size overhead
/// is bit for bit the MAC's, the averages are within a few ulps of the
/// running means the MAC used to keep, and the store keeps all of it.
/// A debug build also checks, on every data frame, that its subframes
/// are its unicast and broadcast ones, the invariant `avg_subframes`
/// rests on.
#[test]
fn the_ratio_tables_derive_from_counts_what_the_macs_measured() {
    let mut specs: Vec<ScenarioSpec> = [
        include_str!("../../../examples/sweeps/table3_relay.scn"),
        include_str!("../../../examples/sweeps/table5_6_7_star.scn"),
        include_str!("../../../examples/sweeps/table8_frame_sizes.scn"),
    ]
    .into_iter()
    .flat_map(|text| parse_scn_file(text).unwrap().specs)
    .collect();
    specs.sort_by_key(ScenarioSpec::stable_hash);
    specs.dedup();
    assert_eq!(specs.len(), 8, "the three tables' distinct cells");
    // No node starts two data frames within a step: a frame's preamble
    // alone outlasts it.
    const STEP: Duration = Duration::from_micros(100);
    let mut records = Vec::new();
    for spec in &specs {
        // The run `run()` makes (file transfers only, so one loop to
        // completion), stepped, to see each data frame as it starts.
        let mut world = spec.build();
        world.start();
        let horizon = Instant::ZERO + spec.warmup + spec.duration;
        let mut seen =
            vec![(0u64, 0u64, 0u64, RunningMean::default(), RunningMean::default()); world.nodes.len()];
        let mut until = Instant::ZERO;
        while until < horizon {
            until = (until + STEP).min(horizon);
            let done = world.run_until_transfers_complete(until);
            for (node, (frames, psdu, subframes, size_mean, subframe_mean)) in
                world.nodes.iter().zip(&mut seen)
            {
                let c = &node.mac.counters;
                let now =
                    (c.tx_data_frames, c.tx_psdu_bytes, c.tx_unicast_subframes + c.tx_broadcast_subframes);
                match now.0 - *frames {
                    0 => {}
                    1 => {
                        size_mean.push((now.1 - *psdu) as f64);
                        subframe_mean.push((now.2 - *subframes) as f64);
                    }
                    n => panic!("{n} data frames started within one step"),
                }
                (*frames, *psdu, *subframes) = now;
            }
            if done {
                break;
            }
        }
        let live = spec.run();
        assert_eq!(live.report, RunReport::collect(&world, live.report.at), "{spec:?}: the stepped run");
        for ((n, node), (.., size_mean, subframe_mean)) in
            live.report.nodes.iter().zip(&world.nodes).zip(&seen)
        {
            let mac = &node.mac.counters;
            let size_overhead = live.report.size_overhead(n.node);
            assert_eq!(size_overhead.to_bits(), mac.size_overhead().to_bits(), "{spec:?} node {}", n.node);
            assert_eq!(n.avg_frame_size().to_bits(), mac.avg_frame_size().to_bits());
            assert_eq!(size_mean.n, n.tx_data_frames);
            // At most 4 apart in these cells; the running mean's own
            // rounding is what moves.
            assert!(ulps(n.avg_frame_size(), size_mean.mean) <= 8, "{spec:?} node {}", n.node);
            assert!(ulps(n.avg_subframes, subframe_mean.mean) <= 8, "{spec:?} node {}", n.node);
        }
        records.push((spec.stable_hash(), 1, spec, live));
    }
    let dir = tmp_dir("ratios");
    let batch: Vec<_> = records.iter().map(|(hash, rep, spec, live)| (*hash, *rep, *spec, live)).collect();
    ConcurrentCache::open(&dir.0).unwrap().append_batch(&batch).unwrap();
    let index = ConcurrentCache::open(&dir.0).unwrap().index();
    for (hash, rep, spec, live) in &records {
        let stored = index.get(*hash, *rep).expect("the live record loads");
        assert_eq!(**stored, *live, "{spec:?}");
        for node in 0..live.report.nodes.len() {
            assert_eq!(
                stored.report.size_overhead(node).to_bits(),
                live.report.size_overhead(node).to_bits()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Typed fields
// ---------------------------------------------------------------------

/// Loads fixture line 1 with `from` replaced by `to` (once), re-sealed.
fn load_edited(from: &str, to: &str) -> Option<RunOutcome> {
    let json = fixture_json(1);
    assert!(json.contains(from), "`{from}` is in the record");
    let cache = open_bytes(&tmp_dir("typed"), &sealed(json.replacen(from, to, 1).as_bytes()));
    assert_eq!(cache.stats().quarantined, 0, "the edit is re-sealed");
    assert_eq!(cache.len() as u64 + cache.stats().skipped, 1);
    cache.index().get(UDP_HASH, 1).map(|o| RunOutcome::clone(o))
}

/// Line 1's rep column, after the quoted hash.
const REP: &str = "\"0x5e503de9e7a9cece\",1,";

#[test]
fn counters_are_exact_integers() {
    let original = load_edited(REP, REP).expect("the unedited record loads");
    let rep = |text: &str| format!("\"0x5e503de9e7a9cece\",{text},");
    // u64 columns: no fraction, no exponent, no sign.
    for (from, to) in [
        (REP, rep("1.0")),
        (REP, rep("-1")),
        (REP, rep("1e0")),
        (REP, rep("+1")),
        ("1200000000,0,8,[[", "1200000000,0.0,8,[[".to_string()),
        (",0,8,[[", ",0,8.0,[[".to_string()),
        (",0,8,[[", ",0,-8,[[".to_string()),
        (",52250,", ",-52250,".to_string()),
        (",52250,", ",52250.0,".to_string()),
        // The window is integer nanoseconds, not seconds.
        (",true,1000000000,", ",true,1000000000.0,".to_string()),
        (",true,1000000000,", ",true,1e9,".to_string()),
        (",true,1000000000,", ",true,1,0,".to_string()),
        // The sender's row: `tx_data_frames`, the PSDU bytes, the unicast
        // subframes, the overhead bytes.
        ("[[0,60,", "[[0,60.0,".to_string()),
        (",68400,", ",68400.0,".to_string()),
        (",68400,", ",6.84e4,".to_string()),
        ("68400,60,0,", "68400,60.0,0,".to_string()),
        (",1800,", ",1800.5,".to_string()),
        (",1800,", ",-1800,".to_string()),
        (",9000,", ",65536,".to_string()),
        ("]],1200000000,", "]],18446744073709551616,".to_string()),
        ("]],1200000000,", "]],99999999999999999999.5,".to_string()),
        // A ledger slot is a counter of nanoseconds, not seconds.
        (",409846200,", ",409846200.0,".to_string()),
        (",409846200,", ",0.4098462,".to_string()),
        (",409846200,", ",-409846200,".to_string()),
        (",409846200,", ",18446744073709551616,".to_string()),
        // No column takes a quoted non-finite token, or the v6 rate
        // columns: a flow's `bps` before its `completed_at`.
        (REP, rep("\"NaN\"")),
        (",52250,", ",\"inf\",".to_string()),
        ("]],1200000000,", "]],\"-inf\",".to_string()),
        (",true,", ",\"NaN\",".to_string()),
        (",true,", ",1,".to_string()),
        (",409846200,", ",\"inf\",".to_string()),
        (",0,8,[[", ",0,\"inf\",[[".to_string()),
        (",52250,null]", ",52250,418000.0,null]".to_string()),
        (",true,1000000000,", ",true,418000.0,".to_string()),
    ] {
        assert_eq!(load_edited(from, &to), None, "`{to}` must not load");
    }
    // The widest counter still loads, leading zeros and all.
    let widest = load_edited("]],1200000000,", "]],18446744073709551615,").expect("u64::MAX loads");
    assert_eq!(widest.report.at, Instant::from_nanos(u64::MAX));
    let padded = load_edited("]],1200000000,", "]],000000000000001200000000,").expect("a 26-digit run loads");
    assert_eq!(padded, original);
    // A v7 record, its schema tag and model fingerprint ahead of the
    // hash, is just skipped.
    let v7 = "[\"hydra-agg.run.v7\",\"0x0000000000000000\",\"0x5e50";
    assert_eq!(load_edited("[\"0x5e50", v7), None);
    // The hint is a counter or `null` (no hint); anything else rejects
    // the record like any other column of the wrong kind.
    assert_eq!(load_edited(",1142,true,", ",null,true,"), Some(original));
    for to in [",\"many\",true,", ",1142.0,true,", ",-1,true,"] {
        assert_eq!(load_edited(",1142,true,", to), None, "`{to}` must not load");
    }
}

// ---------------------------------------------------------------------
// The reader's digit fold is exact
// ---------------------------------------------------------------------

/// `n` random decimal digits.
fn digits(rng: &mut TestRng, n: u64) -> String {
    (0..n).map(|_| char::from(b'0' + rng.below(10) as u8)).collect()
}

proptest! {
    /// Every counter the reader returns is `str::parse::<u64>` of the same
    /// digit run (up to 21 digits, leading zeros included, and runs
    /// within 8 of `u64::MAX` where folding must stop), and a run
    /// `str::parse` rejects as out of range rejects the record.
    #[test]
    fn digit_runs_read_as_str_parse_reads_them(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let runs: Vec<String> = (0..16)
            .map(|_| {
                if rng.below(4) == 0 {
                    return (u128::from(u64::MAX) - 8 + u128::from(rng.below(17))).to_string();
                }
                let len = 1 + rng.below(21);
                let zeros = if rng.below(4) == 0 { rng.below(len) } else { 0 };
                "0".repeat(zeros as usize) + &digits(&mut rng, len - zeros)
            })
            .collect();
        let json = fixture_json(1);
        let mut bytes = Vec::new();
        for (rep, run) in (1..).zip(&runs) {
            let line = json
                .replacen(REP, &format!("\"0x5e503de9e7a9cece\",{rep},"), 1)
                .replacen("]],1200000000,", &format!("]],{run},"), 1);
            bytes.extend(sealed(line.as_bytes()));
        }
        let cache = open_bytes(&tmp_dir("digit-runs"), &bytes);
        let index = cache.index();
        for (rep, run) in (1..).zip(&runs) {
            let read = index.get(UDP_HASH, rep).map(|o| o.report.at.as_nanos());
            prop_assert_eq!(read, run.parse::<u64>().ok(), "`{}`", run);
        }
    }
}

// ---------------------------------------------------------------------
// The two reproduced failures
// ---------------------------------------------------------------------

#[test]
fn a_non_utf8_byte_costs_one_record_not_the_store() {
    let mut bytes = FIXTURE.as_bytes().to_vec();
    // Flip the high bit of one byte inside line 2's record.
    let at = bytes.iter().position(|&b| b == b'\n').unwrap() + 40;
    bytes[at] |= 0x80;
    assert!(std::str::from_utf8(&bytes).is_err(), "the file is no longer UTF-8");
    let damaged: Vec<u8> = bytes.split(|&b| b == b'\n').nth(1).unwrap().to_vec();

    let dir = tmp_dir("non-utf8");
    let cache = open_bytes(&dir, &bytes);
    assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0, skipped: 5, quarantined: 1 });
    let index = cache.index();
    assert_eq!(index.len(), 3, "every other record stays warm");
    assert!(index.get(MIXED_HASH, 1).is_none(), "the damaged record went cold");
    assert!(index.get(UDP_HASH, 1).is_some() && index.get(0xdead_beef_0000_0001, 1).is_some());
    // The bad line is kept byte for byte, out of band.
    assert_eq!(std::fs::read(dir.0.join("runs.corrupt.jsonl")).unwrap(), [&damaged[..], b"\n"].concat());
    let healed = ConcurrentCache::open(&dir.0).unwrap();
    assert_eq!((healed.len(), healed.stats().quarantined), (3, 0));
}

/// Line 1's flow list.
const FLOWS: &str = "[[0,1,9000,\"cbr:20ms:1045\",52250,null]]";

#[test]
fn a_crc_valid_two_million_deep_line_is_skipped_without_overflowing_the_stack() {
    let deep = vec![b'['; 2_000_000];
    // The same depth where the flow list of an otherwise fine record goes.
    let nested = fixture_json(1).replacen(FLOWS, &"[".repeat(2_000_000), 1);
    let mut bytes = sealed(&deep);
    bytes.extend(sealed(nested.as_bytes()));
    bytes.extend(sealed(fixture_json(2).as_bytes()));
    let dir = tmp_dir("deep");
    let cache = open_bytes(&dir, &bytes);
    assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0, skipped: 2, quarantined: 0 });
    assert_eq!(cache.len(), 1, "the record after the hostile lines loads");
    assert_eq!(std::fs::read(cache.path().unwrap()).unwrap(), bytes, "intact lines stay in the file");

    // Rows nest to a fixed depth: an empty flow list loads, and any
    // deeper nesting in its place does not.
    let with_flows = |depth: usize| {
        let flows = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        open_bytes(&tmp_dir("depth"), &sealed(fixture_json(1).replacen(FLOWS, &flows, 1).as_bytes())).len()
    };
    assert_eq!((with_flows(1), with_flows(2), with_flows(3), with_flows(16)), (1, 0, 0, 0));
}

#[test]
fn a_hostile_row_costs_its_own_record_and_never_panics() {
    let json = fixture_json(1);
    let sender = "[0,60,60,68400,60,0,1800,409846200,";
    // The sink's row around a ledger of seven columns' text.
    let sink_with = |ledger: &str| format!("[1,0,120,0,0,0,0,{ledger},0,0,0,0,0,0,0,60,0,0,0]");
    let sink_row = sink_with("0,0,0,0,0,0,0");
    let sink = sink_row.as_str();
    assert!(json.contains(sender) && json.contains(sink));
    // The widest ledgers load: a total of exactly `u64::MAX`.
    for ledger in ["18446744073709551615,0,0,0,0,0,0", "0,0,0,0,0,1,18446744073709551614"] {
        let cache = open_bytes(
            &tmp_dir("wide-ledger"),
            &sealed(json.replacen(sink, &sink_with(ledger), 1).as_bytes()),
        );
        let total = cache.index().get(UDP_HASH, 1).expect("the record loads").report.nodes[1].ledger.total();
        assert_eq!(total, Duration::MAX, "{ledger}");
    }
    let deep = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    for (from, to) in [
        // A column too many or too few.
        (sink, sink_with("0,0,0,0,0,0,0,0")),
        (sink, sink_with("0,0,0,0,0,0")),
        (sink, "[1,0,120,0,0,0,0,0,0,0,0,0,0,0,0]".to_string()),
        (sink, "[]".to_string()),
        // A ledger whose total overflows `u64` nanoseconds, at any split.
        (sink, sink_with("18446744073709551615,1,0,0,0,0,0")),
        (sink, sink_with("0,0,0,0,0,18446744073709551615,18446744073709551615")),
        (sink, sink_with("9223372036854775808,0,0,9223372036854775808,0,0,0")),
        // The v5 row, its averages and size overhead floats, and the v4
        // ledger: a ratio, then a list of named seconds.
        (sink, "[1,0,120,0.0,0.0,0,0,0.0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,60,0,0,0]".to_string()),
        (sender, "[0,60,60,1140.0,1.0,60,0,0.033101045296167246,409846200,".to_string()),
        (sink, "[1,0,120,0,0,0,0,0.0,[],0,0,0,0,0,0,0,60,0,0,0]".to_string()),
        (sender, sender.replacen(",409846200,", ",0.280627138172895,[0,0.4098462],", 1)),
        // Nesting where a row, a column or a ledger slot goes.
        (sink, deep(16)),
        (sink, deep(2_000_000)),
        (sink, sink.replacen("[1,", &format!("[{},", deep(16)), 1)),
        (sink, sink_with(&format!("{},0,0,0,0,0,0", deep(16)))),
        // Not a row at all: the v2 object form, a bare number.
        (sink, "{\"node\":1}".to_string()),
        (sink, "1".to_string()),
    ] {
        assert_costs_only_its_record(&json.replacen(from, &to, 1), &json);
    }
    // A float, a sign, a fraction, an exponent or a quoted token in any
    // column of a node row: every column is a count.
    const BAD: [&str; 5] = ["0.0", "-0", "1.5", "1e0", "\"inf\""];
    let columns: Vec<&str> = sink[1..sink.len() - 1].split(',').collect();
    for at in 0..columns.len() {
        for bad in BAD {
            let mut edited = columns.clone();
            edited[at] = bad;
            assert_costs_only_its_record(&json.replacen(sink, &format!("[{}]", edited.join(",")), 1), &json);
        }
    }
    // The same in every other column that is not a list: the record's
    // own and its flow row's. No text column takes a number, and only
    // `scn`, free text for people reading the file, takes any string.
    let (head, tail) = json.split_once(FLOWS).unwrap();
    let head: Vec<&str> = head[1..head.len() - 1].split(',').collect();
    let tail: Vec<&str> = tail[1..].splitn(4, ',').collect();
    let flow: Vec<&str> = FLOWS[2..FLOWS.len() - 2].split(',').collect();
    assert_eq!((head.len(), tail.len(), flow.len()), (6, 4, 6));
    let record = |head: &[&str], flow: &[&str], tail: &[&str]| {
        format!("[{},[[{}]],{}", head.join(","), flow.join(","), tail.join(","))
    };
    assert_eq!(record(&head, &flow, &tail), json);
    const SCN: usize = 2;
    for bad in BAD {
        for at in (0..head.len()).filter(|&at| at != SCN || !bad.starts_with('"')) {
            let mut edited = head.clone();
            edited[at] = bad;
            assert_costs_only_its_record(&record(&edited, &flow, &tail), &json);
        }
        for at in 0..tail.len() - 1 {
            let mut edited = tail.clone();
            edited[at] = bad;
            assert_costs_only_its_record(&record(&head, &flow, &edited), &json);
        }
        for at in 0..flow.len() {
            let mut edited = flow.clone();
            edited[at] = bad;
            assert_costs_only_its_record(&record(&head, &edited, &tail), &json);
        }
    }
}

/// `edited`, a hostile edit of fixture line 1's `json`, sealed in a
/// store beside line 2: it is skipped and kept, and line 2 loads.
fn assert_costs_only_its_record(edited: &str, json: &str) {
    let to = &edited[edited.bytes().zip(json.bytes()).take_while(|(a, b)| a == b).count()..];
    assert_ne!(edited, json, "`{to:.40}` edits the record");
    let mut bytes = sealed(edited.as_bytes());
    bytes.extend(sealed(fixture_json(2).as_bytes()));
    let dir = tmp_dir("hostile-row");
    let cache = open_bytes(&dir, &bytes);
    assert_eq!(cache.stats(), CacheStats { skipped: 1, ..CacheStats::default() }, "`{to:.40}`");
    let index = cache.index();
    assert!(index.get(UDP_HASH, 1).is_none(), "`{to:.40}` must not load");
    assert!(index.get(MIXED_HASH, 1).is_some(), "`{to:.40}` costs only its own record");
    assert_eq!(std::fs::read(cache.path().unwrap()).unwrap(), bytes, "the record stays in the file");
}

// ---------------------------------------------------------------------
// The streaming open
// ---------------------------------------------------------------------

/// A 2500-node `ext_scale`-shaped outcome written as wide as a record
/// gets: every counter near `u64::MAX`, every ledger slot 19 digits. Its line is longer than the
/// 1 MiB window the open streams through, so the window must grow to
/// fit it.
fn widest_scale_outcome() -> RunOutcome {
    let wide = |x: u64| u64::MAX - x * 7_919;
    let nodes = (0..2500u64)
        .map(|x| NodeReport {
            node: x as usize,
            tx_data_frames: wide(x),
            tx_control: wide(x + 1),
            tx_psdu_bytes: wide(x + 4),
            avg_subframes: 0.0,
            subframes_sent: (wide(x + 2), wide(x + 3)),
            tx_overhead_bytes: wide(x + 5),
            ledger: Ledger(std::array::from_fn(|j| {
                Duration::from_nanos(u64::MAX / 7 - x * 7_919 - j as u64)
            })),
            retries: wide(x + 6),
            retry_drops: wide(x + 7),
            queue_overflow: wide(x + 8),
            acks_classified: wide(x + 9),
            bcast_filtered: wide(x + 10),
            bcast_ok: wide(x + 11),
            bcast_crc_fail: wide(x + 12),
            unicast_ok: wide(x + 13),
            unicast_crc_drops: wide(x + 14),
            collisions_seen: wide(x + 15),
            forwarded: wide(x + 16),
        })
        .map(NodeReport::with_avg_subframes)
        .collect();
    let report =
        RunReport { nodes, at: Instant::from_nanos(3_000_000_000), collisions: 4_271, phy_header_bytes: 8 };
    RunOutcome::new(true, Vec::new(), report)
}

#[test]
fn the_streaming_open_reads_what_the_whole_file_read_did() {
    const WIDE_HASH: u64 = 0x0b16_0000_0000_0001;
    let wide = widest_scale_outcome();
    let wide_line = {
        let dir = tmp_dir("stream-wide");
        let spec = udp_spec();
        let cache = ConcurrentCache::open(&dir.0).unwrap();
        cache.append_batch(&[(WIDE_HASH, 1, &spec, &wide)]).unwrap();
        let mut line = std::fs::read(cache.path().unwrap()).unwrap();
        assert_eq!(line.pop(), Some(b'\n'));
        line
    };
    assert!(wide_line.len() > 1 << 20, "the record is {} bytes, inside the window", wide_line.len());
    let lines = [fixture_line(1), fixture_line(2), fixture_line(3), fixture_line(4)];
    let line = |n: usize| &lines[n - 1][..];
    // A CRC-valid record whose JSON is not UTF-8 reaches the decoder.
    let mut non_utf8 = fixture_json(1).replacen(REP, "\"0x5e503de9e7a9cece\",5,", 1).into_bytes();
    non_utf8[30] |= 0x80;
    let non_utf8 = sealed(&non_utf8);
    let mut damaged = line(2).to_vec();
    damaged[40] ^= 0x01;
    let torn = &line(3)[..line(3).len() / 2];
    let bytes = [
        &wide_line[..],
        b"\r\n\r\n   \n",
        line(1),
        b"\r\n",
        &non_utf8,
        &damaged,
        b"\n\n",
        line(4),
        b"\r\n",
        torn,
    ]
    .concat();

    let dir = tmp_dir("stream");
    let cache = open_bytes(&dir, &bytes);
    assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0, skipped: 1, quarantined: 2 });
    // The same index as the intact lines alone give.
    let clean = open_bytes(
        &tmp_dir("stream-clean"),
        &[&wide_line[..], b"\n", line(1), b"\n", line(4), b"\n"].concat(),
    );
    let (index, want) = (cache.index(), clean.index());
    assert_eq!(index.len(), 3);
    assert_eq!(**index.get(WIDE_HASH, 1).expect("the wide record loads"), wide);
    for (hash, rep) in [(WIDE_HASH, 1), (UDP_HASH, 1), (0xdead_beef_0000_0001, 1)] {
        assert_eq!(index.get(hash, rep), want.get(hash, rep), "{hash:#x}/{rep}");
    }

    // Compaction: the intact lines, trimmed, one `\n` each; the damaged
    // ones, out of band. Both files' lengths and CRC-32s are pinned: no
    // record names its build, so these bytes are the same for every build.
    let live = std::fs::read(cache.path().unwrap()).unwrap();
    let corrupt = std::fs::read(dir.0.join("runs.corrupt.jsonl")).unwrap();
    let kept = [&wide_line[..], line(1), &non_utf8[..non_utf8.len() - 1], line(4)].join(&b'\n');
    assert_eq!(live, [&kept[..], b"\n"].concat());
    assert_eq!(corrupt, [&damaged[..], b"\n", torn, b"\n"].concat());
    let crc = hydra_wire::crc::crc32;
    assert_eq!((live.len(), crc(&live)), (1_260_096, 0x5f40_dc7c));
    assert_eq!((corrupt.len(), crc(&corrupt)), (734, 0x2726_1982));
    let healed = ConcurrentCache::open(&dir.0).unwrap();
    assert_eq!((healed.len(), healed.stats().skipped, healed.stats().quarantined), (3, 1, 0));

    // A store whose every line is damaged compacts to a lone newline.
    let dir = tmp_dir("stream-all-damaged");
    let cache = open_bytes(&dir, &[&damaged[..], b"\r\n", torn].concat());
    assert_eq!(cache.stats().quarantined, 2);
    assert_eq!(std::fs::read(cache.path().unwrap()).unwrap(), b"\n");
}
