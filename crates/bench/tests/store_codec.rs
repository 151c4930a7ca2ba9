//! The result store's codec from the outside: what `append_batch`
//! writes, `open` reads back bit for bit; whatever else is in the file —
//! damaged, hostile, foreign — is skipped or quarantined and never
//! panics, aborts, or fails the open.
//!
//! `data/runs_v2.jsonl` is a golden file written by the encoder of the
//! commit *before* the single-pass codec (lines 1–4 verbatim from its
//! `append_batch`; lines 5–8 are line 1 edited by hand and re-sealed).
//! The format is frozen until `CACHE_SCHEMA` is bumped, so the file is
//! never regenerated.

use std::borrow::Cow;
use std::path::PathBuf;

use hydra_bench::{CacheStats, ConcurrentCache, CACHE_SCHEMA};
use hydra_core::counters::cat;
use hydra_netsim::{
    FlowOutcome, FlowSpec, FlowTraffic, NodeReport, Policy, RunOutcome, RunPerf, RunReport, ScenarioSpec,
    TopologyKind, Traffic,
};
use hydra_phy::Rate;
use hydra_sim::{Duration, Instant};
use proptest::prelude::*;
use proptest::TestRng;

const FIXTURE: &[u8] = include_bytes!("data/runs_v2.jsonl");

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

/// Opens a store whose `runs.jsonl` holds exactly `bytes`.
fn open_bytes(dir: &TmpDir, bytes: &[u8]) -> ConcurrentCache {
    std::fs::write(dir.0.join("runs.jsonl"), bytes).unwrap();
    ConcurrentCache::open(&dir.0).expect("open never fails on file contents")
}

/// `json` with a valid integrity trailer and a newline.
fn sealed(json: &[u8]) -> Vec<u8> {
    let mut line = json.to_vec();
    line.extend_from_slice(format!("#crc:{:08x}\n", hydra_wire::crc::crc32(json)).as_bytes());
    line
}

/// The JSON of fixture line `n` (1-based), trailer removed.
fn fixture_json(n: usize) -> String {
    let line = FIXTURE.split(|&b| b == b'\n').nth(n - 1).unwrap();
    String::from_utf8(line[..line.iter().rposition(|&b| b == b'#').unwrap()].to_vec()).unwrap()
}

/// Everything the store persists, rendered so that equal text means
/// equal bits (`-0.0` ≠ `0.0`, and every NaN is the one `NaN` the store
/// keeps) — `PartialEq` cannot say that of outcomes holding NaN.
fn persisted(o: &RunOutcome) -> String {
    format!("{:?}", (o.completed, o.throughput_bps, &o.per_flow, &o.report))
}

// ---------------------------------------------------------------------
// Arbitrary outcomes
// ---------------------------------------------------------------------

fn arbitrary_f64(rng: &mut TestRng) -> f64 {
    match rng.below(8) {
        0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX]
            [rng.below(8) as usize],
        1 => rng.below(1 << 53) as f64,
        2 => rng.unit_f64(),
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn arbitrary_name(rng: &mut TestRng) -> String {
    const POOL: [char; 20] = [
        'a', 'Z', '0', ' ', '_', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{1f}', '#', ':', '{', 'é',
        '\u{85}', '\u{2028}', '𝄞',
    ];
    (0..rng.below(12)).map(|_| POOL[rng.below(POOL.len() as u64) as usize]).collect()
}

/// One of the MAC's own category names, or an arbitrary one.
fn arbitrary_category(rng: &mut TestRng) -> Cow<'static, str> {
    match rng.below(2) {
        0 => Cow::Borrowed(cat::ALL[rng.below(cat::ALL.len() as u64) as usize]),
        _ => Cow::Owned(arbitrary_name(rng)),
    }
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

fn arbitrary_outcome(rng: &mut TestRng) -> RunOutcome {
    let per_flow = (0..rng.below(4))
        .map(|_| {
            let flow = FlowSpec {
                src: rng.next_u64() as usize,
                dst: rng.below(1000) as usize,
                port: rng.next_u64() as u16,
                traffic: arbitrary_traffic(rng),
            };
            let completed_at = (rng.below(2) == 0).then(|| Instant::from_nanos(rng.next_u64()));
            FlowOutcome::new(flow, rng.next_u64(), arbitrary_f64(rng), completed_at)
        })
        .collect();
    let nodes = (0..rng.below(4))
        .map(|_| NodeReport {
            node: rng.below(5000) as usize,
            tx_data_frames: rng.next_u64(),
            tx_control: rng.below(100),
            avg_frame_size: arbitrary_f64(rng),
            avg_subframes: arbitrary_f64(rng),
            subframes_sent: (rng.next_u64(), rng.below(10)),
            size_overhead: arbitrary_f64(rng),
            time_overhead: arbitrary_f64(rng),
            time_by_category: (0..rng.below(5))
                .map(|_| (arbitrary_category(rng), arbitrary_f64(rng)))
                .collect(),
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
        .collect();
    RunOutcome {
        completed: rng.below(2) == 0,
        throughput_bps: arbitrary_f64(rng),
        per_flow,
        report: RunReport { nodes, at: Instant::from_nanos(rng.next_u64()), collisions: rng.next_u64() },
        // Only the event count reaches the store (as the `events` hint).
        perf: RunPerf { events_processed: rng.below(3) * rng.below(1 << 40), ..RunPerf::default() },
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
    spec.traffic = Traffic::FileTransfer { bytes: 20 * 1024 };
    spec.warmup = Duration::from_millis(200);
    spec.duration = Duration::from_secs(2);
    spec.add_flow(FlowSpec {
        src: 0,
        dst: 1,
        port: 9000,
        traffic: FlowTraffic::Cbr { interval: Duration::from_millis(20), payload: 160 },
    })
}

/// A store of `n` arbitrary outcomes under keys `(1..=n, 1)`: the
/// outcomes and the file's bytes.
fn arbitrary_store(tag: &str, seed: u64, n: u64) -> (Vec<RunOutcome>, Vec<u8>) {
    let mut rng = TestRng::new(seed);
    let outcomes: Vec<RunOutcome> = (0..n).map(|_| arbitrary_outcome(&mut rng)).collect();
    let (dir, spec) = (tmp_dir(tag), udp_spec());
    let records: Vec<_> = (1..=n).zip(&outcomes).map(|(hash, o)| (hash, 1, &spec, o)).collect();
    ConcurrentCache::open(&dir.0).unwrap().append_batch(&records).unwrap();
    let bytes = std::fs::read(dir.0.join("runs.jsonl")).unwrap();
    (outcomes, bytes)
}

proptest! {
    /// encode → seal → open is the identity on everything persisted,
    /// non-finite floats, empty lists and escaped names included.
    #[test]
    fn arbitrary_outcomes_round_trip_bit_exactly(seed in any::<u64>()) {
        let (outcomes, bytes) = arbitrary_store("roundtrip-fill", seed, 3);
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
    let cache = open_bytes(&dir, FIXTURE);
    // Line 5 carries a foreign schema tag; nothing is damaged.
    assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0, skipped: 1, quarantined: 0 });
    assert_eq!(std::fs::read(dir.0.join("runs.jsonl")).unwrap(), FIXTURE, "a clean open rewrites nothing");
    let index = cache.index();
    assert_eq!(index.len(), 7);
    assert_eq!((udp_spec().stable_hash(), mixed_spec().stable_hash()), (UDP_HASH, MIXED_HASH));
    assert_eq!((index.events_hint(UDP_HASH), index.events_hint(MIXED_HASH)), (Some(1142), Some(2180)));
    assert_eq!(index.events_hint(0x00c0_ffee), None);

    // Line 1, a real UDP run.
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
            418000.0,
            None
        )]
    );
    assert_eq!((udp.report.at, udp.report.collisions), (Instant::from_nanos(1_200_000_000), 0));
    let [sender, sink] = &udp.report.nodes[..] else { panic!("two nodes") };
    assert_eq!(
        (sender.node, sender.tx_data_frames, sender.tx_control, sender.avg_frame_size),
        (0, 60, 60, 1140.0)
    );
    assert_eq!(sender.size_overhead.to_bits(), 0.033101045296167246f64.to_bits());
    assert_eq!(sender.time_by_category.len(), 7);
    assert_eq!(sender.time_by_category[0], (Cow::Borrowed(cat::DIFS), 0.012));
    assert_eq!(sender.time_by_category[6], (Cow::Borrowed(cat::PHY), 0.01610772));
    assert!(sender.time_by_category.iter().all(|(name, _)| matches!(name, Cow::Borrowed(_))));
    assert_eq!((sink.node, sink.tx_control, sink.unicast_ok), (1, 120, 60));
    assert!(sink.time_by_category.is_empty());

    // Lines 6–8 are line 1 under other keys: an unknown extra key at
    // two levels, every object's keys reordered (with whitespace), and
    // duplicated keys whose first occurrence wins.
    for rep in 2..=4 {
        assert_eq!(index.get(UDP_HASH, rep), Some(udp), "rep {rep} decodes like rep 1");
    }
    assert!(index.get(UDP_HASH, 9).is_none() && index.get(1, 4).is_none(), "a repeated key is ignored");

    // Line 2, TCP + CBR in one world.
    let mixed = index.get(MIXED_HASH, 1).unwrap();
    assert_eq!(mixed.throughput_bps.to_bits(), 0x4129_ac9c_7bd3_0fa7);
    assert_eq!(mixed.per_flow[0].completed_at, Some(Instant::from_nanos(194_747_559)));
    assert_eq!(
        (mixed.per_flow[1].bytes, mixed.per_flow[1].bps, mixed.per_flow[1].completed_at),
        (16000, 64000.0, None)
    );
    assert_eq!((mixed.report.nodes[0].tx_data_frames, mixed.report.nodes[1].tx_data_frames), (108, 6));

    // Line 3: non-finite floats, escaped names, extreme integers.
    let edge = index.get(0x00c0_ffee, 7).unwrap();
    assert!(!edge.completed && edge.throughput_bps.is_nan() && edge.per_flow.is_empty());
    assert_eq!(edge.report.at, Instant::from_nanos(u64::MAX));
    let n = &edge.report.nodes[0];
    assert!(n.avg_frame_size.is_nan());
    assert_eq!((n.avg_subframes, n.size_overhead), (f64::INFINITY, f64::NEG_INFINITY));
    assert_eq!(n.time_overhead.to_bits(), (-0.0f64).to_bits());
    assert_eq!(n.subframes_sent, (3, u64::MAX));
    assert_eq!(
        n.time_by_category,
        [(Cow::Borrowed("a\"b\\c\nd\te\rf\u{1}g é"), 1e300), (Cow::Borrowed(""), 5e-324)]
    );
    // Names outside `cat::ALL` come back owned, as they were written.
    assert!(n.time_by_category.iter().all(|(name, _)| matches!(name, Cow::Owned(_))));
    assert!(edge.report.nodes[1].time_by_category.is_empty());

    // Line 4: a transfer that missed its deadline beside one that made it.
    let stuck = index.get(0xdead_beef_0000_0001, 1).unwrap();
    assert!(stuck.report.nodes.is_empty());
    let done: Vec<_> = stuck.per_flow.iter().map(|f| f.completed_at).collect();
    assert_eq!(done, [None, None, Some(Instant::from_nanos(1_000_000_000))]);
    assert_eq!(stuck.per_flow[1].bps.to_bits(), (0.1f64 + 0.2).to_bits());
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
    let golden = open_bytes(&tmp_dir("golden-read"), FIXTURE).index();
    let (udp, mixed) = (udp_spec(), mixed_spec());
    // What the parent's `append_batch` was given for lines 1–4. The
    // event count is not part of a decoded outcome; it comes back from
    // the hint.
    let fresh = |hash, rep| {
        let mut outcome = RunOutcome::clone(golden.get(hash, rep).unwrap());
        outcome.perf.events_processed = golden.events_hint(hash).unwrap_or(0);
        outcome
    };
    let outcomes =
        [fresh(UDP_HASH, 1), fresh(MIXED_HASH, 1), fresh(0x00c0_ffee, 7), fresh(0xdead_beef_0000_0001, 1)];
    let dir = tmp_dir("golden-write");
    ConcurrentCache::open(&dir.0)
        .unwrap()
        .append_batch(&[
            (UDP_HASH, 1, &udp, &outcomes[0]),
            (MIXED_HASH, 1, &mixed, &outcomes[1]),
            (0x00c0_ffee, 7, &udp, &outcomes[2]),
            (0xdead_beef_0000_0001, 1, &mixed, &outcomes[3]),
        ])
        .unwrap();
    let written = std::fs::read(dir.0.join("runs.jsonl")).unwrap();
    let four_lines = FIXTURE.iter().enumerate().filter(|(_, &b)| b == b'\n').nth(3).unwrap().0 + 1;
    assert_eq!(String::from_utf8(written).unwrap(), std::str::from_utf8(&FIXTURE[..four_lines]).unwrap());
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

#[test]
fn counters_are_exact_integers_and_floats_take_integers_and_tokens() {
    let original = load_edited("\"rep\":1", "\"rep\":1").expect("the unedited record loads");
    // u64 fields: no fraction, no exponent, no sign.
    for (from, to) in [
        ("\"rep\":1", "\"rep\":1.0"),
        ("\"rep\":1", "\"rep\":-1"),
        ("\"rep\":1", "\"rep\":1e0"),
        ("\"collisions\":0", "\"collisions\":0.0"),
        ("\"bytes\":52250", "\"bytes\":-52250"),
        ("\"tx_data_frames\":60", "\"tx_data_frames\":60.0"),
        ("\"subframes_sent\":[60,0]", "\"subframes_sent\":[60.0,0]"),
        ("\"port\":9000", "\"port\":65536"),
        ("\"at_ns\":1200000000", "\"at_ns\":18446744073709551616"),
    ] {
        assert_eq!(load_edited(from, to), None, "`{to}` must not load");
    }
    // The widest counter still loads; a digit run too long for a u64
    // that goes on as a float is that float.
    let widest =
        load_edited("\"at_ns\":1200000000", "\"at_ns\":18446744073709551615").expect("u64::MAX loads");
    assert_eq!(widest.report.at, Instant::from_nanos(u64::MAX));
    let long = load_edited("\"bps\":418000.0", "\"bps\":99999999999999999999.5").expect("a float loads");
    assert_eq!(long.per_flow[0].bps.to_bits(), 99999999999999999999.5f64.to_bits());
    // f64 fields: an integer is a float…
    assert_eq!(
        load_edited("\"throughput_bps\":418000.0", "\"throughput_bps\":418000"),
        Some(original.clone())
    );
    assert_eq!(load_edited("\"avg_frame_size\":1140.0", "\"avg_frame_size\":1140"), Some(original.clone()));
    // …and the three quoted tokens are the non-finite values,
    for (token, expect) in
        [("\"NaN\"", f64::NAN), ("\"inf\"", f64::INFINITY), ("\"-inf\"", f64::NEG_INFINITY)]
    {
        let got = load_edited("\"bps\":418000.0", &format!("\"bps\":{token}")).expect("token loads");
        assert_eq!(format!("{:?}", got.per_flow[0].bps), format!("{expect:?}"));
        let got = load_edited("[\"sifs\",0.027]", &format!("[\"sifs\",{token}]")).expect("token loads");
        assert_eq!(format!("{:?}", got.report.nodes[0].time_by_category[3].1), format!("{expect:?}"));
    }
    // in exactly those spellings, and only where a float belongs.
    for (from, to) in [
        ("\"bps\":418000.0", "\"bps\":\"nan\""),
        ("\"bps\":418000.0", "\"bps\":\"Infinity\""),
        ("\"bps\":418000.0", "\"bps\":NaN"),
        ("\"rep\":1", "\"rep\":\"NaN\""),
        ("\"bytes\":52250", "\"bytes\":\"inf\""),
        ("\"at_ns\":1200000000", "\"at_ns\":\"-inf\""),
        ("\"completed\":true", "\"completed\":\"NaN\""),
        ("\"completed\":true", "\"completed\":1"),
    ] {
        assert_eq!(load_edited(from, to), None, "`{to}` must not load");
    }
    // A missing required key and a wrong schema are both just skipped.
    assert_eq!(load_edited("\"forwarded\":0", "\"forwarded_\":0"), None);
    assert_eq!(load_edited(CACHE_SCHEMA, "hydra-agg.run.v3"), None);
    // A hint of the wrong type is dropped; the record still loads.
    assert_eq!(load_edited("\"events\":1142", "\"events\":\"many\""), Some(original));
}

// ---------------------------------------------------------------------
// The reader's fast paths are exact
// ---------------------------------------------------------------------

/// `n` random decimal digits.
fn digits(rng: &mut TestRng, n: u64) -> String {
    (0..n).map(|_| char::from(b'0' + rng.below(10) as u8)).collect()
}

/// `[-]digits.digits`: 1–8 integer digits, 1–24 fraction digits, so
/// both sides of the 15-significant-digit and 10^22 limits come up.
fn short_decimal_text(rng: &mut TestRng) -> String {
    let sign = if rng.below(2) == 0 { "-" } else { "" };
    let (int, frac) = (1 + rng.below(8), 1 + rng.below(24));
    format!("{sign}{}.{}", digits(rng, int), digits(rng, frac))
}

/// Fixture line 1 with a `["x",TEXT]` ledger entry per text appended to
/// the sender's, loaded; the floats the reader made of the texts.
fn read_floats(texts: &[String]) -> Vec<f64> {
    let last = "[\"phy\",0.01610772]";
    let extra: String = texts.iter().map(|text| format!(",[\"x\",{text}]")).collect();
    let json = fixture_json(1).replacen(last, &format!("{last}{extra}"), 1);
    let cache = open_bytes(&tmp_dir("floats"), &sealed(json.as_bytes()));
    let index = cache.index();
    let sender = &index.get(UDP_HASH, 1).expect("the record loads").report.nodes[0];
    sender.time_by_category[7..].iter().map(|&(_, v)| v).collect()
}

proptest! {
    /// Every float the reader returns has the bits `str::parse::<f64>`
    /// gives the same text: the shortest `{:?}` text of arbitrary finite
    /// floats and of nanosecond-valued seconds (what the writer emits),
    /// and random short decimals of both signs.
    #[test]
    fn floats_read_as_str_parse_reads_them(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let mut texts = Vec::new();
        while texts.len() < 96 {
            let v = arbitrary_f64(&mut rng);
            if v.is_finite() {
                texts.push(format!("{v:?}"));
                let secs = rng.below(10_000_000_000) as f64 / 1e9;
                texts.push(format!("{:?}", if rng.below(2) == 0 { secs } else { -secs }));
                texts.push(short_decimal_text(&mut rng));
            }
        }
        let read = read_floats(&texts);
        prop_assert_eq!(read.len(), texts.len());
        for (text, got) in texts.iter().zip(&read) {
            let want = text.parse::<f64>().expect("valid float text");
            prop_assert_eq!(got.to_bits(), want.to_bits(), "`{}`", text);
        }
    }

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
                .replacen("\"rep\":1", &format!("\"rep\":{rep}"), 1)
                .replacen("\"at_ns\":1200000000", &format!("\"at_ns\":{run}"), 1);
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

#[test]
fn escaped_keys_decode_like_plain_ones() {
    // The expected-key test compares raw bytes, so a key spelled with
    // `\u` escapes misses it and must be found by the general path.
    let json = fixture_json(1);
    let escaped = json
        .replace("\"node\":", "\"\\u006eode\":")
        .replace("\"bps\":", "\"\\u0062ps\":")
        .replacen("\"outcome\":", "\"\\u006futcome\":", 1);
    assert_eq!(escaped.matches("\\u00").count(), 4, "two nodes, one flow, one outcome");
    let plain = open_bytes(&tmp_dir("keys-plain"), &sealed(json.as_bytes()));
    let cache = open_bytes(&tmp_dir("keys-escaped"), &sealed(escaped.as_bytes()));
    assert_eq!(cache.stats(), CacheStats::default());
    let (want, got) = (plain.index(), cache.index());
    let (want, got) = (want.get(UDP_HASH, 1).unwrap(), got.get(UDP_HASH, 1).expect("escaped keys load"));
    assert_eq!(persisted(got), persisted(want));
}

// ---------------------------------------------------------------------
// The two reproduced failures
// ---------------------------------------------------------------------

#[test]
fn a_non_utf8_byte_costs_one_record_not_the_store() {
    let mut bytes = FIXTURE.to_vec();
    // Flip the high bit of one byte inside line 2's record.
    let at = FIXTURE.iter().position(|&b| b == b'\n').unwrap() + 40;
    bytes[at] |= 0x80;
    assert!(std::str::from_utf8(&bytes).is_err(), "the file is no longer UTF-8");
    let damaged: Vec<u8> = bytes.split(|&b| b == b'\n').nth(1).unwrap().to_vec();

    let dir = tmp_dir("non-utf8");
    let cache = open_bytes(&dir, &bytes);
    assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0, skipped: 1, quarantined: 1 });
    let index = cache.index();
    assert_eq!(index.len(), 6, "every other record stays warm");
    assert!(index.get(MIXED_HASH, 1).is_none(), "the damaged record went cold");
    assert!(index.get(UDP_HASH, 1).is_some() && index.get(0xdead_beef_0000_0001, 1).is_some());
    // The bad line is kept byte for byte, out of band.
    assert_eq!(std::fs::read(dir.0.join("runs.corrupt.jsonl")).unwrap(), [&damaged[..], b"\n"].concat());
    let healed = ConcurrentCache::open(&dir.0).unwrap();
    assert_eq!((healed.len(), healed.stats().quarantined), (6, 0));
}

#[test]
fn a_crc_valid_two_million_deep_line_is_skipped_without_overflowing_the_stack() {
    let deep = vec![b'['; 2_000_000];
    // The same depth under an unknown key of an otherwise fine record.
    let nested =
        fixture_json(1).replacen("\"rep\":1,", &format!("\"rep\":1,\"x\":{},", "[".repeat(2_000_000)), 1);
    let mut bytes = sealed(&deep);
    bytes.extend(sealed(nested.as_bytes()));
    bytes.extend(sealed(fixture_json(2).as_bytes()));
    let dir = tmp_dir("deep");
    let cache = open_bytes(&dir, &bytes);
    assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0, skipped: 2, quarantined: 0 });
    assert_eq!(cache.len(), 1, "the record after the hostile lines loads");
    assert_eq!(std::fs::read(dir.0.join("runs.jsonl")).unwrap(), bytes, "intact lines stay in the file");

    // The cap itself: a line is one container deep at its braces, so an
    // unknown value may nest 15 more.
    let with_extra = |depth: usize| {
        let extra = format!("\"rep\":1,\"x\":{}{},", "[".repeat(depth), "]".repeat(depth));
        open_bytes(
            &tmp_dir("depth-cap"),
            &sealed(fixture_json(1).replacen("\"rep\":1,", &extra, 1).as_bytes()),
        )
        .len()
    };
    assert_eq!((with_extra(15), with_extra(16)), (1, 0));
}

// ---------------------------------------------------------------------
// The streaming open
// ---------------------------------------------------------------------

/// A 1000-node `ext_scale`-shaped outcome written as wide as a record
/// gets: every counter near `u64::MAX`, every float 17 significant
/// digits, all of `cat::ALL` in each ledger plus as many names of a
/// newer MAC (owned on decode). Its line is longer than the 1 MiB
/// window the open streams through, so the window must grow to fit it.
fn widest_scale_outcome() -> RunOutcome {
    let wide = |x: u64| u64::MAX - x * 7_919;
    let ratio = |x: u64| 1.0 / (3.0 + x as f64);
    let nodes = (0..1000u64)
        .map(|x| NodeReport {
            node: x as usize,
            tx_data_frames: wide(x),
            tx_control: wide(x + 1),
            avg_frame_size: 11_400.0 * ratio(x),
            avg_subframes: 1.0 + ratio(x),
            subframes_sent: (wide(x + 2), wide(x + 3)),
            size_overhead: ratio(x + 4),
            time_overhead: ratio(x + 5),
            time_by_category: (0u64..)
                .zip(cat::ALL)
                .flat_map(|(j, name)| {
                    [(Cow::Borrowed(name), ratio(x + j)), (Cow::Owned(format!("{name}_next")), ratio(x * j))]
                })
                .collect(),
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
        .collect();
    RunOutcome {
        completed: true,
        throughput_bps: 12_288.0 / 3.0,
        per_flow: Vec::new(),
        report: RunReport { nodes, at: Instant::from_nanos(3_000_000_000), collisions: 4_271 },
        perf: RunPerf::default(),
    }
}

#[test]
fn the_streaming_open_reads_what_the_whole_file_read_did() {
    const WIDE_HASH: u64 = 0x0b16_0000_0000_0001;
    let wide = widest_scale_outcome();
    let wide_line = {
        let dir = tmp_dir("stream-wide");
        let spec = udp_spec();
        ConcurrentCache::open(&dir.0).unwrap().append_batch(&[(WIDE_HASH, 1, &spec, &wide)]).unwrap();
        let mut line = std::fs::read(dir.0.join("runs.jsonl")).unwrap();
        assert_eq!(line.pop(), Some(b'\n'));
        line
    };
    assert!(wide_line.len() > 1 << 20, "the record is {} bytes, inside the window", wide_line.len());
    let line = |n: usize| FIXTURE.split(|&b| b == b'\n').nth(n - 1).unwrap();
    // A CRC-valid record whose JSON is not UTF-8 reaches the decoder.
    let mut non_utf8 = fixture_json(1).replacen("\"rep\":1", "\"rep\":5", 1).into_bytes();
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
    // ones, out of band. Length and CRC-32 of both files as the
    // whole-file reader wrote them for these bytes.
    let live = std::fs::read(dir.0.join("runs.jsonl")).unwrap();
    let corrupt = std::fs::read(dir.0.join("runs.corrupt.jsonl")).unwrap();
    let kept = [&wide_line[..], line(1), &non_utf8[..non_utf8.len() - 1], line(4)].join(&b'\n');
    assert_eq!(live, [&kept[..], b"\n"].concat());
    assert_eq!(corrupt, [&damaged[..], b"\n", torn, b"\n"].concat());
    let pin = |bytes: &[u8]| (bytes.len(), hydra_wire::crc::crc32(bytes));
    assert_eq!((pin(&live), pin(&corrupt)), ((1_198_063, 0xda04_387d), (2_229, 0xef56_38de)));
    let healed = ConcurrentCache::open(&dir.0).unwrap();
    assert_eq!((healed.len(), healed.stats().skipped, healed.stats().quarantined), (3, 1, 0));

    // A store whose every line is damaged compacts to a lone newline.
    let dir = tmp_dir("stream-all-damaged");
    assert_eq!(open_bytes(&dir, &[&damaged[..], b"\r\n", torn].concat()).stats().quarantined, 2);
    assert_eq!(std::fs::read(dir.0.join("runs.jsonl")).unwrap(), b"\n");
}
