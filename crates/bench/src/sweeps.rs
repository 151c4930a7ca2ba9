//! Sweep-level persistence: a durable [`RunOutcome`] cache on disk.
//!
//! Every run a sweep dispatches is named by the pair
//! `(ScenarioSpec::stable_hash, replication)` — the same key the runner
//! derives the world seed from — and a finished run is pure data. This
//! module stores that data as JSON lines (one record per run, tagged
//! with [`CACHE_SCHEMA`]) under `results/cache/`, so a warm rerun of
//! `--bin all` or `--bin sweep` executes **zero** simulations for cells
//! whose spec and replication are already on disk and still renders
//! byte-identical tables: floats are written in shortest-round-trip
//! form and parsed back bit-exactly.
//!
//! Every runner carries one store. Without a directory it is
//! [`ConcurrentCache::in_memory`]: the same index, counters and publish
//! step, but no file, so no record is ever encoded. Either way each
//! distinct `(stable_hash, replication)` simulates at most once per
//! store, and a repeat — in a later sweep or the same one — is a hit.
//!
//! Editing a spec changes its `stable_hash`, which invalidates exactly
//! that cell's replications and nothing else. The key cannot see
//! *code* edits, though: after changing simulation behaviour (MAC,
//! PHY, TCP, …) the same spec hashes the same but would simulate
//! differently, so [`CACHE_SCHEMA`] must be bumped (it doubles as the
//! simulator-revision token) — likewise when [`RunOutcome`]'s shape or
//! any field's meaning changes. Records with a foreign schema tag are
//! ignored, not errors, so old caches degrade into cold ones.
//!
//! The workspace vendors no dependencies, so the codec below is a
//! deliberately small JSON writer and a single-pass pull reader that
//! cover exactly what the records need (objects, arrays, strings,
//! integers, shortest-form floats, booleans). The reader walks each
//! line's bytes once and writes fields straight into the `RunOutcome`
//! that the index will hold — no intermediate document tree; see
//! docs/PERFORMANCE.md, "Result store: warm open".
//!
//! The reader expects what the writer wrote, and checks it cheaply
//! before doing general work. Each decoder lists an object's keys in
//! the order the writer emits them; the reader first tests the key
//! after the last one it found, as one prefix compare of `"key":`
//! against the remaining bytes, and only on a miss reads the key as a
//! string and looks it up — so escaped keys, whitespace, another order,
//! repeats and unknown keys all still decode as before. A plain run of
//! digits is folded into a `u64` as it is read, and a short
//! `[-]digits.digits` float is one exact division (Clinger's fast
//! path); every other number goes through `str::parse`. Category names
//! that are the MAC's own (`hydra_core::counters::cat::ALL`) come back
//! as borrowed `&'static str`s, so neither decoding nor cloning a node
//! report allocates a name. None of this changes the grammar or the
//! bytes on disk.
//!
//! The open streams the file: it reads `runs.jsonl` through one
//! bounded window (1 MiB, grown only to fit the longest line) and
//! decodes each sealed line in place, so a warm rerun never holds the
//! store's bytes beside the index they decode into. The index holds
//! each outcome once; its per-node reports are a shared slice
//! ([`hydra_netsim::NodeReports`]), so a hit handed to a sweep shares
//! them instead of copying them.
//!
//! ## Crash safety
//!
//! Every line carries a CRC-32 trailer (`{json}#crc:xxxxxxxx`, the
//! same polynomial the wire format uses) over the JSON bytes. A torn
//! append — power loss, `kill -9`, a full disk — leaves a record whose
//! trailer is missing or wrong; [`ConcurrentCache::open`] quarantines
//! such lines to `runs.corrupt.jsonl`, compacts the live file, and the
//! affected keys simply degrade to cold (they re-simulate and re-append
//! on the next sweep). The file is read as bytes and judged line by
//! line, so damage that is not even UTF-8 costs one record, not the
//! store. A corrupt cache never aborts a run and never serves a damaged
//! outcome.
//!
//! Compaction takes two streaming passes. The first, the open itself,
//! copies each damaged line out as it meets it (damage is rare, so this
//! stays small). Only when it found any does a second pass re-read the
//! same bytes, write every sealed line to `runs.jsonl.tmp` and rename
//! that over the live file.
//!
//! ## Concurrency
//!
//! Sweeps share the cache across worker threads (and across processes,
//! via `O_APPEND`). [`ConcurrentCache`] is the one store type: lookups go
//! through an immutable snapshot ([`CacheIndex`], an `Arc` republished
//! under a read-mostly lock — workers never hold a mutex across a
//! lookup), and fresh outcomes land via
//! [`ConcurrentCache::append_batch`], a group commit that encodes every
//! record up front and writes the whole batch with **one** `O_APPEND`
//! write. Concurrent processes interleave at batch granularity instead
//! of per record, a torn tail is still caught by the per-line CRC on
//! the next open, and a sweep pays one file open per batch instead of
//! one per run.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{BufRead as _, Read, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use hydra_core::counters::cat;
use hydra_netsim::{
    FlowOutcome, FlowSpec, FlowTraffic, NodeReport, NodeReports, RunOutcome, RunPerf, RunReport, ScenarioSpec,
};
use hydra_sim::Instant;
use hydra_wire::crc::crc32;

/// Schema tag stamped on every cache record; records with a foreign
/// tag are skipped on load. This is the cache's *only* notion of
/// simulator revision: bump it on any change to the record layout
/// **or to simulation behaviour** (MAC, PHY, TCP, spec semantics —
/// anything that would make an old outcome wrong for the same spec).
/// The key `(stable_hash, replication)` only tracks the *scenario*;
/// it cannot see code edits, so a stale tag silently serves stale
/// numbers. When in doubt, bump — or `rm -rf results/cache`.
///
/// v2: `RunOutcome` reports labeled per-flow results
/// (`per_flow: [{src,dst,port,traffic,bytes,bps,completed_at_ns?}]`)
/// instead of the bare `per_flow_bps` float array.
pub const CACHE_SCHEMA: &str = "hydra-agg.run.v2";

/// A cache shared between experiment functions and runner threads.
pub type SharedCache = Arc<ConcurrentCache>;

/// Session counters: how the cache performed since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store (runs *not* simulated).
    pub hits: u64,
    /// Lookups that missed and were simulated.
    pub misses: u64,
    /// Records on disk that were intact (valid CRC) but carried a
    /// foreign schema tag or an unknown shape; they are kept in the
    /// file for other tools but ignored this session.
    pub skipped: u64,
    /// Torn or corrupt lines (missing/wrong CRC trailer, unparseable
    /// bytes) moved to `runs.corrupt.jsonl` at load; their keys
    /// degraded to cold.
    pub quarantined: u64,
}

/// The session summary the binaries print to stderr: hits, misses,
/// and — only when the load found any — quarantined and skipped lines.
impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} hits, {} misses ({} runs simulated)", self.hits, self.misses, self.misses)?;
        if self.quarantined > 0 {
            write!(f, ", {} corrupt record(s) quarantined", self.quarantined)?;
        }
        if self.skipped > 0 {
            write!(f, ", {} unreadable or foreign record(s) skipped", self.skipped)?;
        }
        Ok(())
    }
}

/// An immutable point-in-time view of the cache: workers resolve every
/// lookup against one snapshot taken at sweep start, with no lock held
/// per lookup. Outcomes are `Arc`-shared, so republishing after a batch
/// append clones only the map's table, not the data.
#[derive(Debug, Default, Clone)]
pub struct CacheIndex {
    entries: HashMap<(u64, u64), Arc<RunOutcome>>,
    /// Optional per-spec event counts (`stable_hash → events_processed`)
    /// recorded alongside outcomes. Pure *scheduling* telemetry: the
    /// runner uses them to order jobs longest-first; they never enter a
    /// decoded outcome and never affect results.
    events: HashMap<u64, u64>,
}

impl CacheIndex {
    /// The cached outcome for `(hash, rep)`, if any.
    pub fn get(&self, hash: u64, rep: u64) -> Option<&Arc<RunOutcome>> {
        self.entries.get(&(hash, rep))
    }

    /// The recorded event count for the spec hashed to `hash` — the
    /// runner's cost-model calibration hint. Never part of an outcome.
    pub fn events_hint(&self, hash: u64) -> Option<u64> {
        self.events.get(&hash).copied()
    }

    /// Cached outcomes in this snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Indexes one record; a later record for the same key replaces an
    /// earlier one, and a spec's hint is the largest count seen.
    fn insert(&mut self, key: (u64, u64), outcome: Arc<RunOutcome>, events: Option<u64>) {
        if let Some(n) = events {
            let hint = self.events.entry(key.0).or_insert(0);
            *hint = (*hint).max(n);
        }
        self.entries.insert(key, outcome);
    }
}

/// A `(stable_hash, replication) → RunOutcome` store shared across
/// threads: lock-free read path (an `Arc` snapshot per sweep), a single
/// writer lock held only while a batch commits, and atomic session
/// counters. [`ConcurrentCache::open`] backs it with an append-only
/// JSON-lines file; [`ConcurrentCache::in_memory`] keeps the same index
/// with no file behind it. See the module docs' *Concurrency* section
/// for the full story.
#[derive(Debug)]
pub struct ConcurrentCache {
    /// The store file; `None` for a memory-only store.
    path: Option<PathBuf>,
    /// Serialises appends from this handle. (Cross-*process* writers
    /// are serialised by `O_APPEND` at write granularity instead.)
    writer: Mutex<()>,
    index: RwLock<Arc<CacheIndex>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Load-time counters, fixed at open.
    skipped: u64,
    quarantined: u64,
}

impl ConcurrentCache {
    /// The default on-disk location, relative to the workspace root.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results/cache")
    }

    /// Opens (creating if needed) the cache under [`Self::default_dir`].
    pub fn open_default() -> std::io::Result<ConcurrentCache> {
        Self::open(Self::default_dir())
    }

    /// Opens (creating if needed) the cache file `runs.jsonl` under
    /// `dir`, decoding every readable record with the current schema
    /// straight into the published index. The file is streamed through
    /// one bounded read window (1 MiB, grown only to fit the
    /// longest line), so an open never holds the whole store in memory.
    ///
    /// Lines that fail their CRC trailer (torn appends, bit flips,
    /// non-UTF-8 damage, pre-CRC caches) are moved byte for byte to
    /// `runs.corrupt.jsonl` in the same directory and the live file is
    /// compacted, so their keys come back cold instead of serving
    /// damaged outcomes. Intact records with a foreign schema tag or an
    /// unreadable shape stay in the file but are skipped.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ConcurrentCache> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join("runs.jsonl");
        let mut file = match File::open(&path) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let mut index = CacheIndex::default();
        let mut skipped = 0;
        // Damaged lines are rare, so they are copied out as they are met.
        let mut quarantined = Vec::new();
        let mut nodes = Vec::new();
        let read = match &mut file {
            Some(file) => for_each_line(file, |line| {
                match unseal(line) {
                    Some(json) => match decode_record(json, &mut nodes) {
                        Some((key, outcome, events)) => index.insert(key, Arc::new(outcome), events),
                        None => skipped += 1,
                    },
                    None => quarantined.push(line.to_vec()),
                }
                Ok(())
            })?,
            None => 0,
        };
        if let Some(mut file) = file.filter(|_| !quarantined.is_empty()) {
            let mut corrupt =
                std::fs::OpenOptions::new().create(true).append(true).open(dir.join("runs.corrupt.jsonl"))?;
            corrupt.write_all(&quarantined.join(&b'\n'))?;
            corrupt.write_all(b"\n")?;
            // Compact via tmp + rename so a crash mid-compaction leaves
            // either the old file or the new one, never a half-written
            // mixture. The second pass reads exactly the bytes the first
            // one judged and keeps every sealed line.
            let tmp = dir.join("runs.jsonl.tmp");
            let mut out = std::io::BufWriter::new(File::create(&tmp)?);
            file.seek(SeekFrom::Start(0))?;
            let mut kept = 0u64;
            for_each_line(&mut file.take(read), |line| {
                if unseal(line).is_none() {
                    return Ok(());
                }
                kept += 1;
                out.write_all(line)?;
                out.write_all(b"\n")
            })?;
            if kept == 0 {
                // An all-damaged store compacts to one newline, as it
                // always has.
                out.write_all(b"\n")?;
            }
            out.into_inner().map_err(std::io::IntoInnerError::into_error)?;
            std::fs::rename(&tmp, &path)?;
        }
        Ok(ConcurrentCache {
            path: Some(path),
            index: RwLock::new(Arc::new(index)),
            skipped,
            quarantined: quarantined.len() as u64,
            ..Self::in_memory()
        })
    }

    /// An empty store that lives only in this process: the same index,
    /// counters and publish step as [`ConcurrentCache::open`], with no
    /// file to read, encode for or append to.
    pub fn in_memory() -> ConcurrentCache {
        ConcurrentCache {
            path: None,
            writer: Mutex::new(()),
            index: RwLock::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped: 0,
            quarantined: 0,
        }
    }

    /// The current snapshot. Take one per sweep and resolve every
    /// lookup against it — stable, and free of per-lookup locking.
    pub fn index(&self) -> Arc<CacheIndex> {
        Arc::clone(&self.index.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Adds to the session hit/miss counters (the runner counts against
    /// its snapshot, then reports here once per sweep).
    pub fn note(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Cached outcomes currently indexed.
    pub fn len(&self) -> usize {
        self.index().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index().is_empty()
    }

    /// Session hit/miss/skip counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            skipped: self.skipped,
            quarantined: self.quarantined,
        }
    }

    /// Group commit: encodes every record (each carrying its spec's
    /// canonical `.scn` text for human inspection) into one buffer,
    /// appends the whole batch with one `O_APPEND` write and
    /// republishes the snapshot once. All-or-nothing in this process
    /// (the open / write error path indexes nothing); a
    /// torn tail on disk is caught by the per-line CRC at the next
    /// open. A memory-only store skips straight to the publish.
    pub fn append_batch(&self, records: &[(u64, u64, &ScenarioSpec, &RunOutcome)]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(path) = &self.path {
            let mut batch = String::with_capacity(records.len() * 512);
            for &(hash, rep, spec, outcome) in records {
                let start = batch.len();
                encode_record(&mut batch, hash, rep, &spec.to_scn(), outcome, events_of(outcome))
                    .and_then(|()| seal(&mut batch, start))
                    .expect("writing to a String cannot fail");
                batch.push('\n');
            }
            // One write of the whole batch: under O_APPEND concurrent
            // writers (e.g. `--bin all` and `--bin sweep` sharing the
            // default cache) interleave at write granularity, so a
            // record must never be split across calls.
            let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
            file.write_all(batch.as_bytes())?;
        }
        // Publish: clone the table (Arc values, so outcomes are shared,
        // not copied), fold the batch in, swap the snapshot. Each
        // outcome goes in as a reopen would read it back: no telemetry
        // (a hit cost no simulation), the event count kept as the hint.
        let mut next = (*self.index()).clone();
        for &(hash, rep, _, outcome) in records {
            let stored = RunOutcome { perf: RunPerf::default(), ..outcome.clone() };
            next.insert((hash, rep), Arc::new(stored), events_of(outcome));
        }
        *self.index.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
        Ok(())
    }
}

/// The scheduling hint a fresh outcome carries into its record: its
/// event count, when it simulated anything.
fn events_of(outcome: &RunOutcome) -> Option<u64> {
    Some(outcome.perf.events_processed).filter(|&n| n > 0)
}

/// The read window [`ConcurrentCache::open`] streams the store through:
/// large enough that the system-call count is negligible, small beside
/// a store of any size. A longer line grows the window to fit it.
const READ_WINDOW: usize = 1 << 20;

/// Calls `line` on every line of `file` with surrounding ASCII
/// whitespace trimmed (so `\r\n` endings read like `\n`), skipping
/// blank lines; a final line needs no newline. Returns the number of
/// bytes read.
fn for_each_line(
    file: &mut impl Read,
    mut line: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<u64> {
    let mut on_line = |bytes: &[u8]| match bytes.trim_ascii() {
        [] => Ok(()),
        trimmed => line(trimmed),
    };
    let mut window = vec![0; READ_WINDOW];
    // `window[start..end]` is unread by `line`; `window[start..scanned]`
    // is already known to hold no newline.
    let (mut start, mut scanned, mut end, mut total) = (0, 0, 0, 0u64);
    loop {
        let mut rest = &window[scanned..end];
        // `skip_until` is the standard library's vectorised byte search;
        // it stops just past the newline, or at the end of `rest`.
        let step = rest.skip_until(b'\n')?;
        if step > 0 && window[scanned + step - 1] == b'\n' {
            on_line(&window[start..scanned + step - 1])?;
            (start, scanned) = (scanned + step, scanned + step);
            continue;
        }
        // No newline left: keep the partial line, moved to the front,
        // and refill behind it — growing the window only when the line
        // already fills it.
        window.copy_within(start..end, 0);
        (scanned, end, start) = (end - start, end - start, 0);
        if end == window.len() {
            window.resize(2 * window.len(), 0);
        }
        let n = match file.read(&mut window[end..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            on_line(&window[..end])?;
            return Ok(total);
        }
        (end, total) = (end + n, total + n as u64);
    }
}

// ---------------------------------------------------------------------
// CRC trailer
// ---------------------------------------------------------------------

/// Appends the integrity trailer to the record that starts at `start`
/// in `buf`: `{json}#crc:xxxxxxxx`, CRC-32 over the JSON bytes. `#`
/// cannot occur inside a record (the JSON string escapes hold none, and
/// `.scn` text has no `#`), so the trailer is recoverable with a plain
/// reverse split.
fn seal(buf: &mut String, start: usize) -> fmt::Result {
    let crc = crc32(&buf.as_bytes()[start..]);
    write!(buf, "#crc:{crc:08x}")
}

/// Splits and verifies the trailer; `None` for a missing or failed
/// check (a torn or corrupted line).
fn unseal(line: &[u8]) -> Option<&[u8]> {
    let at = line.iter().rposition(|&b| b == b'#')?;
    let hex = std::str::from_utf8(line[at + 1..].strip_prefix(b"crc:")?).ok()?;
    let crc = u32::from_str_radix(hex, 16).ok()?;
    (crc == crc32(&line[..at])).then_some(&line[..at])
}

// ---------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------

/// Writes one record (without trailer) onto `s`.
fn encode_record(
    s: &mut String,
    hash: u64,
    rep: u64,
    scn: &str,
    outcome: &RunOutcome,
    events: Option<u64>,
) -> fmt::Result {
    let (schema, scn) = (Quoted(CACHE_SCHEMA), Quoted(scn));
    write!(s, "{{\"schema\":{schema},\"hash\":\"{hash:#018x}\",\"rep\":{rep},\"scn\":{scn},")?;
    if let Some(n) = events {
        // Scheduling hint only (see `CacheIndex::events_hint`). An
        // *optional* key: the decoder looks fields up by name, so old
        // records without it — and old readers seeing it — both work,
        // which is why this is not a CACHE_SCHEMA bump.
        write!(s, "\"events\":{n},")?;
    }
    s.push_str("\"outcome\":");
    encode_outcome(s, outcome)?;
    s.push('}');
    Ok(())
}

fn encode_outcome(s: &mut String, o: &RunOutcome) -> fmt::Result {
    write!(
        s,
        "{{\"completed\":{},\"throughput_bps\":{},\"per_flow\":[",
        o.completed,
        Float(o.throughput_bps)
    )?;
    for (i, fo) in o.per_flow.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // The flow's traffic in its canonical `.scn` token form — the
        // token round-trips the exact value (durations are exact
        // nanosecond multiples), and keeps records human-readable.
        write!(
            s,
            "{{\"src\":{},\"dst\":{},\"port\":{},\"traffic\":{},\"bytes\":{},\"bps\":{}",
            fo.flow.src,
            fo.flow.dst,
            fo.flow.port,
            Quoted(&fo.flow.traffic.to_token()),
            fo.bytes,
            Float(fo.bps)
        )?;
        if let Some(at) = fo.completed_at {
            write!(s, ",\"completed_at_ns\":{}", at.as_nanos())?;
        }
        s.push('}');
    }
    write!(s, "],\"at_ns\":{},\"collisions\":{},\"nodes\":[", o.report.at.as_nanos(), o.report.collisions)?;
    for (i, n) in o.report.nodes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write!(
            s,
            concat!(
                "{{\"node\":{},\"tx_data_frames\":{},\"tx_control\":{},\"avg_frame_size\":{},",
                "\"avg_subframes\":{},\"subframes_sent\":[{},{}],\"size_overhead\":{},",
                "\"time_overhead\":{},\"time_by_category\":["
            ),
            n.node,
            n.tx_data_frames,
            n.tx_control,
            Float(n.avg_frame_size),
            Float(n.avg_subframes),
            n.subframes_sent.0,
            n.subframes_sent.1,
            Float(n.size_overhead),
            Float(n.time_overhead)
        )?;
        for (j, (k, v)) in n.time_by_category.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            write!(s, "[{},{}]", Quoted(k), Float(*v))?;
        }
        write!(
            s,
            concat!(
                "],\"retries\":{},\"retry_drops\":{},\"queue_overflow\":{},\"acks_classified\":{},",
                "\"bcast_filtered\":{},\"bcast_ok\":{},\"bcast_crc_fail\":{},\"unicast_ok\":{},",
                "\"unicast_crc_drops\":{},\"collisions_seen\":{},\"forwarded\":{}}}"
            ),
            n.retries,
            n.retry_drops,
            n.queue_overflow,
            n.acks_classified,
            n.bcast_filtered,
            n.bcast_ok,
            n.bcast_crc_fail,
            n.unicast_ok,
            n.unicast_crc_drops,
            n.collisions_seen,
            n.forwarded
        )?;
    }
    s.push_str("]}");
    Ok(())
}

/// Shortest-round-trip float text; non-finite values are quoted tokens
/// the reader maps back (plain JSON has no spelling for them).
struct Float(f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            v if v.is_finite() => fmt::Debug::fmt(&v, f),
            v if v.is_nan() => f.write_str("\"NaN\""),
            v if v > 0.0 => f.write_str("\"inf\""),
            _ => f.write_str("\"-inf\""),
        }
    }
}

/// A JSON string literal.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

// ---------------------------------------------------------------------
// Record decoding
// ---------------------------------------------------------------------

/// Containers a line may nest. Records nest 6 deep; the cap bounds the
/// reader's recursion, so a hostile `[[[[…` line is skipped instead of
/// overflowing the stack.
const MAX_DEPTH: u32 = 16;

/// One pass over an object's members, listed in the order
/// [`encode_record`] writes them (that order is the reader's fast path;
/// see [`Reader::object`]). The first occurrence of a listed key runs
/// its reader (a value of the wrong type rejects the record); repeats
/// and unlisted keys are skipped with their syntax checked. Every key
/// not marked `optional` must then have been seen.
macro_rules! members {
    (@required) => { true };
    (@required optional) => { false };
    ($r:ident; { $($($optional:ident)? $key:literal => $read:expr,)* }) => {{
        const KEYS: &[&str] = &[$(concat!("\"", $key, "\":")),*];
        const REQUIRED: &[bool] = &[$(members!(@required $($optional)?)),*];
        const { assert!(KEYS.len() <= 32, "`seen` is a u32 bitset") };
        let mut seen = 0u32;
        $r.object(KEYS, |$r, at| {
            let at = match at {
                Some(at) if seen & 1 << at == 0 => at,
                _ => return $r.skip(),
            };
            seen |= 1 << at;
            let mut i = 0;
            $(
                if at == i {
                    $read;
                    return Some(());
                }
                i += 1;
            )*
            let _ = i; // (reads the last increment, for `unused_assignments`)
            unreachable!("`object` hands over positions in KEYS")
        })?;
        if REQUIRED.iter().enumerate().any(|(at, &required)| required && seen & 1 << at == 0) {
            return None;
        }
    }};
}

/// Decodes one record; `None` for anything unreadable or tagged with a
/// foreign schema. The third element is the optional `events`
/// scheduling hint — kept apart from the outcome on purpose. `nodes` is
/// scratch space, reused across records so that each report's nodes
/// are gathered without regrowing a vector and moved into their shared
/// slice with one allocation of exactly their size.
fn decode_record(json: &[u8], nodes: &mut Vec<NodeReport>) -> Option<((u64, u64), RunOutcome, Option<u64>)> {
    // Checked once per line: the file is read as bytes, and damage must
    // not get past here as a `str`.
    let r = &mut Reader::new(std::str::from_utf8(json).ok()?);
    let (mut hash, mut rep, mut events, mut outcome) = (0, 0, None, None);
    members!(r; {
        "schema" => if r.string()? != CACHE_SCHEMA { return None },
        "hash" => hash = u64::from_str_radix(r.string()?.strip_prefix("0x")?, 16).ok()?,
        "rep" => rep = r.u64()?,
        // For people reading the file; the key already names the spec.
        optional "scn" => r.skip()?,
        // A hint of the wrong type is no hint, not a bad record.
        optional "events" => events = {
            let at = r.pos;
            let n = r.u64();
            if n.is_none() {
                r.pos = at;
                r.skip()?;
            }
            n
        },
        "outcome" => outcome = Some(decode_outcome(r, nodes)?),
    });
    r.at_end().then_some(((hash, rep), outcome?, events))
}

fn decode_outcome(r: &mut Reader<'_>, nodes: &mut Vec<NodeReport>) -> Option<RunOutcome> {
    let mut o = RunOutcome {
        completed: false,
        throughput_bps: 0.0,
        per_flow: Vec::new(),
        report: RunReport { nodes: NodeReports::default(), at: Instant::ZERO, collisions: 0 },
        // Telemetry is never persisted: a cache hit reports zeros (it
        // cost no simulation), keeping cached == fresh under PartialEq.
        perf: RunPerf::default(),
    };
    nodes.clear();
    members!(r; {
        "completed" => o.completed = r.bool()?,
        "throughput_bps" => o.throughput_bps = r.f64()?,
        "per_flow" => r.array(|r| {
            o.per_flow.push(decode_flow(r)?);
            Some(())
        })?,
        "at_ns" => o.report.at = Instant::from_nanos(r.u64()?),
        "collisions" => o.report.collisions = r.u64()?,
        "nodes" => r.array(|r| {
            nodes.push(decode_node(r)?);
            Some(())
        })?,
    });
    o.report.nodes = nodes.drain(..).collect();
    Some(o)
}

fn decode_flow(r: &mut Reader<'_>) -> Option<FlowOutcome> {
    let (mut src, mut dst, mut port, mut traffic, mut bytes, mut bps, mut completed_at) =
        (0, 0, 0, None, 0, 0.0, None);
    members!(r; {
        "src" => src = r.u64()? as usize,
        "dst" => dst = r.u64()? as usize,
        "port" => port = u16::try_from(r.u64()?).ok()?,
        "traffic" => traffic = Some(FlowTraffic::from_token(&r.string()?).ok()?),
        "bytes" => bytes = r.u64()?,
        "bps" => bps = r.f64()?,
        optional "completed_at_ns" => completed_at = Some(Instant::from_nanos(r.u64()?)),
    });
    Some(FlowOutcome::new(FlowSpec { src, dst, port, traffic: traffic? }, bytes, bps, completed_at))
}

fn decode_node(r: &mut Reader<'_>) -> Option<NodeReport> {
    let mut n = NodeReport {
        node: 0,
        tx_data_frames: 0,
        tx_control: 0,
        avg_frame_size: 0.0,
        avg_subframes: 0.0,
        subframes_sent: (0, 0),
        size_overhead: 0.0,
        time_overhead: 0.0,
        time_by_category: Vec::new(),
        retries: 0,
        retry_drops: 0,
        queue_overflow: 0,
        acks_classified: 0,
        bcast_filtered: 0,
        bcast_ok: 0,
        bcast_crc_fail: 0,
        unicast_ok: 0,
        unicast_crc_drops: 0,
        collisions_seen: 0,
        forwarded: 0,
    };
    members!(r; {
        "node" => n.node = r.u64()? as usize,
        "tx_data_frames" => n.tx_data_frames = r.u64()?,
        "tx_control" => n.tx_control = r.u64()?,
        "avg_frame_size" => n.avg_frame_size = r.f64()?,
        "avg_subframes" => n.avg_subframes = r.f64()?,
        "subframes_sent" => n.subframes_sent = r.pair(Reader::u64, Reader::u64)?,
        "size_overhead" => n.size_overhead = r.f64()?,
        "time_overhead" => n.time_overhead = r.f64()?,
        "time_by_category" => r.array(|r| {
            let (name, secs) = r.pair(Reader::string, Reader::f64)?;
            if n.time_by_category.is_empty() {
                // Room for the MAC's whole ledger: one allocation a node.
                n.time_by_category.reserve_exact(cat::ALL.len());
            }
            n.time_by_category.push((category(name), secs));
            Some(())
        })?,
        "retries" => n.retries = r.u64()?,
        "retry_drops" => n.retry_drops = r.u64()?,
        "queue_overflow" => n.queue_overflow = r.u64()?,
        "acks_classified" => n.acks_classified = r.u64()?,
        "bcast_filtered" => n.bcast_filtered = r.u64()?,
        "bcast_ok" => n.bcast_ok = r.u64()?,
        "bcast_crc_fail" => n.bcast_crc_fail = r.u64()?,
        "unicast_ok" => n.unicast_ok = r.u64()?,
        "unicast_crc_drops" => n.unicast_crc_drops = r.u64()?,
        "collisions_seen" => n.collisions_seen = r.u64()?,
        "forwarded" => n.forwarded = r.u64()?,
    });
    Some(n)
}

/// A category name as a report holds it: the MAC's own `&'static str`
/// when it is one of [`cat::ALL`] (every name this simulator writes),
/// an owned copy otherwise — so decoding a store, and cloning what it
/// decoded, allocates no names.
fn category(name: Cow<'_, str>) -> Cow<'static, str> {
    match cat::ALL.into_iter().find(|&known| name == known) {
        Some(known) => Cow::Borrowed(known),
        None => Cow::Owned(name.into_owned()),
    }
}

/// The largest digit string Clinger's fast path takes: 15 significant
/// digits, well inside the 2^53 an `f64` holds exactly.
const SHORT_MAX: u64 = 999_999_999_999_999;

/// `10^k` for every `k` whose power an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18,
    1e19, 1e20, 1e21, 1e22,
];

/// The bytes a number token is scanned over.
fn in_number(c: u8) -> bool {
    matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
}

/// A number token: integers without sign, `.` or exponent stay exact.
enum Num {
    Int(u64),
    Float(f64),
}

/// A pull reader over one record's text. Not a general-purpose JSON
/// parser: just enough to read back what [`encode_record`] writes, with
/// strict syntax so corruption surfaces as a skipped record. Every
/// method consumes leading whitespace, then exactly one token or value,
/// and returns `None` on anything else.
struct Reader<'a> {
    s: &'a str,
    pos: usize,
    depth: u32,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader { s, pos: 0, depth: 0 }
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.s.as_bytes().get(at).copied()
    }

    /// The bytes not read yet.
    fn rest(&self) -> &'a [u8] {
        &self.s.as_bytes()[self.pos..]
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte(self.pos)
    }

    /// Consumes the next non-whitespace byte, which must be `c`.
    fn eat(&mut self, c: u8) -> Option<()> {
        (self.peek()? == c).then(|| self.pos += 1)
    }

    /// True when only whitespace remains (trailing garbage is an error).
    fn at_end(&mut self) -> bool {
        self.peek().is_none()
    }

    /// `open item (, item)* close`, or `open close`; `item` reads one.
    fn items(&mut self, open: u8, close: u8, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.eat(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return None;
        }
        if self.peek()? != close {
            item(self)?;
            while self.peek()? == b',' {
                self.pos += 1;
                item(self)?;
            }
        }
        self.depth -= 1;
        self.eat(close)
    }

    fn array(&mut self, item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.items(b'[', b']', item)
    }

    /// Hands each member's position in `keys` (`None` for an unlisted
    /// key) to `member`, which must read its value. `keys` holds each
    /// key as its `"key":` text, in the order the writer emits them: the
    /// key after the last one found is tested first, as one prefix
    /// compare on the remaining bytes. Anything else — escapes,
    /// whitespace, another order, repeats, unknown keys — reads the key
    /// as a string and looks it up.
    fn object(
        &mut self,
        keys: &[&str],
        mut member: impl FnMut(&mut Self, Option<usize>) -> Option<()>,
    ) -> Option<()> {
        let mut next = 0;
        self.items(b'{', b'}', |r| {
            r.peek()?;
            let at = match keys.get(next) {
                Some(key) if r.rest().starts_with(key.as_bytes()) => {
                    r.pos += key.len();
                    Some(next)
                }
                _ => {
                    let key = r.string()?;
                    r.eat(b':')?;
                    keys.iter().position(|k| k[1..k.len() - 2] == *key)
                }
            };
            if let Some(at) = at {
                next = at + 1;
            }
            member(r, at)
        })
    }

    /// An array of exactly two values.
    fn pair<A, B>(
        &mut self,
        first: impl FnOnce(&mut Self) -> Option<A>,
        second: impl FnOnce(&mut Self) -> Option<B>,
    ) -> Option<(A, B)> {
        self.eat(b'[')?;
        let a = first(self)?;
        self.eat(b',')?;
        let b = second(self)?;
        self.eat(b']')?;
        Some((a, b))
    }

    /// A string, borrowed from the input unless it holds an escape.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        self.eat(b'"')?;
        let s = self.s;
        let mut unescaped = String::new();
        loop {
            // Take the whole unescaped run in one go: it ends at an
            // ASCII byte, so the slice falls on character boundaries.
            let start = self.pos;
            let stop = loop {
                match self.byte(self.pos)? {
                    stop @ (b'"' | b'\\') => break stop,
                    _ => self.pos += 1,
                }
            };
            let run = s.get(start..self.pos)?;
            self.pos += 1;
            if stop == b'"' {
                return Some(if unescaped.is_empty() {
                    Cow::Borrowed(run)
                } else {
                    Cow::Owned(unescaped + run)
                });
            }
            unescaped.push_str(run);
            unescaped.push(match self.byte(self.pos)? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'u' => {
                    let code = u32::from_str_radix(s.get(self.pos + 1..self.pos + 5)?, 16).ok()?;
                    self.pos += 4;
                    char::from_u32(code)?
                }
                _ => return None,
            });
            self.pos += 1;
        }
    }

    /// Folds the digits at the cursor into `m` (`m * 10 + digit` each)
    /// for as long as `m` stays at most `max`, and returns it. The cursor
    /// stops at the first byte that is not a digit, or at the digit that
    /// would carry `m` past `max`.
    fn digits(&mut self, mut m: u64, max: u64) -> u64 {
        while let Some(c @ b'0'..=b'9') = self.byte(self.pos) {
            let digit = u64::from(c - b'0');
            if m > (max - digit) / 10 {
                break;
            }
            m = m * 10 + digit;
            self.pos += 1;
        }
        m
    }

    fn number(&mut self) -> Option<Num> {
        let start = self.pos;
        // The two shapes the writer emits are read in one pass. A plain
        // run of digits (every counter) is folded into a u64 as it is
        // read. `[-]digits.digits` with at most 15 significant digits and
        // no exponent (most floats) is Clinger's fast path: the digits as
        // one integer m ≤ SHORT_MAX over 10^k, k ≤ 22 — both exact in an
        // f64 — is one correctly rounded division, the bits `str::parse`
        // returns. Any other token, or an overflow, goes to `str::parse`.
        let negative = self.byte(start) == Some(b'-');
        self.pos += usize::from(negative);
        let int_start = self.pos;
        let n = self.digits(0, u64::MAX);
        if self.pos > int_start {
            match self.byte(self.pos) {
                Some(b'.') if n <= SHORT_MAX => {
                    self.pos += 1;
                    let frac_start = self.pos;
                    let m = self.digits(n, SHORT_MAX);
                    let k = self.pos - frac_start;
                    if (1..POW10.len()).contains(&k) && !self.byte(self.pos).is_some_and(in_number) {
                        let v = m as f64 / POW10[k];
                        return Some(Num::Float(if negative { -v } else { v }));
                    }
                }
                next if !negative && !next.is_some_and(in_number) => return Some(Num::Int(n)),
                _ => {}
            }
        }
        self.pos = start;
        let mut exact = self.byte(start)? != b'-';
        while let Some(c) = self.byte(self.pos).filter(|&c| in_number(c)) {
            exact &= !matches!(c, b'.' | b'e' | b'E');
            self.pos += 1;
        }
        let text = self.s.get(start..self.pos)?;
        if exact {
            text.parse().ok().map(Num::Int)
        } else {
            text.parse().ok().map(Num::Float)
        }
    }

    /// An exact counter: `1.0` and `-1` are not integers here.
    fn u64(&mut self) -> Option<u64> {
        self.peek()?;
        match self.number()? {
            Num::Int(n) => Some(n),
            Num::Float(_) => None,
        }
    }

    /// A float: any number, or one of the quoted non-finite tokens.
    fn f64(&mut self) -> Option<f64> {
        if self.peek()? == b'"' {
            return match &*self.string()? {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            };
        }
        Some(match self.number()? {
            Num::Int(n) => n as f64,
            Num::Float(v) => v,
        })
    }

    fn bool(&mut self) -> Option<bool> {
        match self.peek()? {
            b't' => self.lit("true").map(|()| true),
            b'f' => self.lit("false").map(|()| false),
            _ => None,
        }
    }

    fn lit(&mut self, text: &str) -> Option<()> {
        self.rest().starts_with(text.as_bytes()).then(|| self.pos += text.len())
    }

    /// Any one value, syntax-checked and dropped.
    fn skip(&mut self) -> Option<()> {
        match self.peek()? {
            b'{' => self.object(&[], |r, _| r.skip()),
            b'[' => self.array(Self::skip),
            b'"' => self.string().map(drop),
            b't' => self.lit("true"),
            b'f' => self.lit("false"),
            b'n' => self.lit("null"),
            _ => self.number().map(drop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_netsim::{Policy, TopologyKind};
    use hydra_phy::Rate;
    use hydra_sim::Duration;

    fn tiny_spec() -> ScenarioSpec {
        let mut spec =
            ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
        spec.warmup = Duration::from_millis(200);
        spec.duration = Duration::from_secs(1);
        spec
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hydra-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One record's JSON, as `append_batch` encodes it.
    fn encoded(spec: &ScenarioSpec, rep: u64, outcome: &RunOutcome, events: Option<u64>) -> String {
        let mut json = String::new();
        encode_record(&mut json, spec.stable_hash(), rep, &spec.to_scn(), outcome, events).unwrap();
        json
    }

    fn sealed(json: &str) -> String {
        let mut line = json.to_string();
        seal(&mut line, 0).unwrap();
        line
    }

    fn put(
        cache: &ConcurrentCache,
        spec: &ScenarioSpec,
        rep: u64,
        outcome: &RunOutcome,
    ) -> std::io::Result<()> {
        cache.append_batch(&[(spec.stable_hash(), rep, spec, outcome)])
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let spec = tiny_spec();
        let outcome = spec.run();
        let line = encoded(&spec, 1, &outcome, None);
        let ((hash, rep), back, events) =
            decode_record(line.as_bytes(), &mut Vec::new()).expect("decode own record");
        assert_eq!(hash, spec.stable_hash());
        assert_eq!(rep, 1);
        assert_eq!(events, None);
        assert_eq!(back, outcome, "RunOutcome must survive the cache byte-exactly");
        // Exact float identity, not approximate.
        assert_eq!(back.throughput_bps.to_bits(), outcome.throughput_bps.to_bits());
    }

    #[test]
    fn mixed_outcome_round_trips_with_flow_labels() {
        use hydra_netsim::{FlowKind, FlowSpec, FlowTraffic, Policy, Traffic};
        let mut spec = ScenarioSpec::tcp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30);
        spec.traffic = Traffic::FileTransfer { bytes: 20 * 1024 };
        spec.warmup = Duration::from_millis(200);
        spec.duration = Duration::from_secs(2);
        let spec = spec.add_flow(FlowSpec {
            src: 0,
            dst: 1,
            port: 9000,
            traffic: FlowTraffic::Cbr { interval: Duration::from_millis(20), payload: 160 },
        });
        let outcome = spec.run();
        assert_eq!(outcome.per_flow.len(), 2);
        assert!(outcome.per_flow[0].completed_at.is_some(), "transfer should finish");
        let line = encoded(&spec, 1, &outcome, Some(4321));
        let (_, back, events) = decode_record(line.as_bytes(), &mut Vec::new()).expect("decode mixed record");
        assert_eq!(events, Some(4321), "the scheduling hint rides along");
        assert_eq!(back, outcome, "labeled per-flow outcomes must survive the cache");
        assert_eq!(back.per_flow[0].kind, FlowKind::FileTransfer);
        assert_eq!(back.per_flow[1].kind, FlowKind::Cbr);
        assert_eq!(back.per_flow[1].flow.port, 9000);
        assert_eq!(back.per_flow[0].completed_at, outcome.per_flow[0].completed_at);
    }

    #[test]
    fn cache_persists_across_opens_and_counts_hits() {
        let dir = tmp_dir("persist");
        let spec = tiny_spec();
        let outcome = spec.run();
        {
            let c = ConcurrentCache::open(&dir).unwrap();
            assert!(c.is_empty());
            assert!(c.index().get(spec.stable_hash(), 1).is_none());
            put(&c, &spec, 1, &outcome).unwrap();
            c.note(0, 1);
            assert_eq!(c.stats(), CacheStats { hits: 0, misses: 1, skipped: 0, quarantined: 0 });
        }
        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        let index = c.index();
        assert_eq!(**index.get(spec.stable_hash(), 1).expect("reload from disk"), outcome);
        assert!(index.get(spec.stable_hash(), 2).is_none(), "other reps stay cold");
        assert_eq!(c.stats(), CacheStats::default(), "session counters start at zero");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_schema_is_skipped_and_garbage_is_quarantined() {
        let dir = tmp_dir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec();
        let outcome = spec.run();
        let good = sealed(&encoded(&spec, 1, &outcome, None));
        // An intact (valid-CRC) record from another schema revision.
        let foreign = sealed(&encoded(&spec, 1, &outcome, None).replace(CACHE_SCHEMA, "hydra-agg.run.v0"));
        std::fs::write(dir.join("runs.jsonl"), format!("{foreign}\nnot json at all\n{good}\n")).unwrap();
        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1, "only the current-schema record loads");
        assert_eq!(c.stats().skipped, 1, "intact foreign record is skipped, not quarantined");
        assert_eq!(c.stats().quarantined, 1, "trailer-less garbage is quarantined");
        // The garbage moved out; the intact lines (foreign included) stay.
        let live = std::fs::read_to_string(dir.join("runs.jsonl")).unwrap();
        assert_eq!(live.lines().count(), 2);
        assert!(!live.contains("not json at all"));
        let corrupt = std::fs::read_to_string(dir.join("runs.corrupt.jsonl")).unwrap();
        assert_eq!(corrupt.trim(), "not json at all");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_appends_quarantine_and_degrade_to_cold() {
        let dir = tmp_dir("torn");
        let spec = tiny_spec();
        let outcome = spec.run();
        {
            let c = ConcurrentCache::open(&dir).unwrap();
            put(&c, &spec, 1, &outcome).unwrap();
            put(&c, &spec, 2, &outcome).unwrap();
        }
        // Tear the file mid-record, as a crash during the second
        // append would: keep the first line and half of the second.
        let path = dir.join("runs.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let first_len = text.find('\n').unwrap() + 1;
        let torn = &text[..first_len + (text.len() - first_len) / 2];
        std::fs::write(&path, torn).unwrap();

        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.stats().quarantined, 1);
        assert!(c.index().get(spec.stable_hash(), 1).is_some(), "intact record survives");
        assert!(c.index().get(spec.stable_hash(), 2).is_none(), "torn record degrades to cold");
        // The torn fragment is preserved for forensics, out of band.
        assert!(dir.join("runs.corrupt.jsonl").exists());
        // Re-recording the cold key heals the cache for the next open.
        put(&c, &spec, 2, &outcome).unwrap();
        drop(c);
        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_crc_byte_is_caught() {
        let dir = tmp_dir("bitflip");
        let spec = tiny_spec();
        let outcome = spec.run();
        put(&ConcurrentCache::open(&dir).unwrap(), &spec, 1, &outcome).unwrap();
        let path = dir.join("runs.jsonl");
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip one digit inside a numeric field (valid JSON, wrong data).
        let at = text.find("\"rep\":1").expect("rep field") + "\"rep\":".len();
        text.replace_range(at..at + 1, "7");
        std::fs::write(&path, &text).unwrap();
        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.stats().quarantined, 1, "CRC catches silent data damage");
        assert!(c.index().get(spec.stable_hash(), 1).is_none());
        assert!(c.index().get(spec.stable_hash(), 7).is_none(), "damaged record must not load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_and_unseal_round_trip_and_reject_damage() {
        let line = sealed("{\"a\":1}");
        assert!(line.starts_with("{\"a\":1}#crc:"));
        assert_eq!(unseal(line.as_bytes()), Some(&b"{\"a\":1}"[..]));
        assert_eq!(unseal(b"{\"a\":1}"), None, "no trailer");
        assert_eq!(unseal(b"{\"a\":1}#crc:00000000"), None, "wrong crc");
        let tampered = line.replace("{\"a\":1}", "{\"a\":2}");
        assert_eq!(unseal(tampered.as_bytes()), None, "payload edit breaks the seal");
    }

    #[test]
    fn the_reader_rejects_garbage() {
        let whole = |text: &str| {
            let mut r = Reader::new(text);
            r.skip().is_some() && r.at_end()
        };
        for bad in
            ["{", "[1,", "[1,]", "\"abc", "{\"a\":}", "{\"a\":1,}", "{\"a\":1} trailing", "tru", "1e", ""]
        {
            assert!(!whole(bad), "`{bad}` should fail");
        }
        for good in ["{}", " [ ] ", "{\"a\":[1,-2.5e3,{\"b\":null}],\"c\":\"x\",\"d\":true , \"e\":false}"] {
            assert!(whole(good), "`{good}` should parse");
        }
        assert_eq!(Reader::new("-3.5").f64(), Some(-3.5));
        assert_eq!(Reader::new(" 42").u64(), Some(42));
        assert_eq!(Reader::new("\"a\\\"b\\u0041\"").string().as_deref(), Some("a\"bA"));
        assert_eq!(Reader::new("\"\\ud800\"").string(), None, "a lone surrogate is no char");
        assert!(decode_record(b"{\"x\":\"\xff\"}", &mut Vec::new()).is_none(), "records are checked UTF-8");
    }

    #[test]
    fn non_finite_floats_survive() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.1, -0.0, 1e300] {
            let parsed = Reader::new(&Float(v).to_string()).f64().unwrap();
            assert!(parsed.to_bits() == v.to_bits() || (parsed.is_nan() && v.is_nan()));
        }
    }

    #[test]
    fn numbers_on_either_side_of_the_fast_paths_read_as_str_parse_reads_them() {
        let float = |text: &str| Reader::new(text).f64().map(f64::to_bits);
        let counter = |text: &str| Reader::new(text).u64();
        for text in [
            // Taken by the fast path: short decimals, leading zeros, -0.
            "0.012",
            "-0.0",
            "1140.0",
            "007.50",
            "00000000000000000001.5",
            "999999999999999.0",
            "0.0000000000000000000001",
            // Left to `str::parse`: 16 significant digits, a 10^23
            // divisor, an exponent, a missing side of the point, signs.
            "9999999999999999.0",
            "1234567890.123456",
            "0.00000000000000000000001",
            "1.5e3",
            "1.5E-3",
            ".5",
            "5.",
            "-5",
            "+1.0",
            "--1.0",
            "1.2.3",
            "1-2",
        ] {
            assert_eq!(float(text), text.parse::<f64>().ok().map(f64::to_bits), "`{text}`");
        }
        for text in
            ["0", "007", "18446744073709551615", "18446744073709551616", "+5", "5+3", "-0", "1.0", "1e0"]
        {
            assert_eq!(counter(text), text.parse::<u64>().ok(), "`{text}`");
        }
    }

    #[test]
    fn an_appended_outcome_is_served_as_a_reopen_would_serve_it() {
        let dir = tmp_dir("append-perf");
        let spec = tiny_spec();
        let outcome = spec.run();
        assert!(outcome.perf.events_processed > 0 && outcome.perf.wall_ms > 0.0);
        let cache = ConcurrentCache::open(&dir).unwrap();
        put(&cache, &spec, 1, &outcome).unwrap();
        let index = cache.index();
        let hit = index.get(spec.stable_hash(), 1).expect("indexed on append");
        // (`RunPerf` has no `PartialEq`: it is never compared in earnest.)
        let zero = format!("{:?}", RunPerf::default());
        assert_eq!(format!("{:?}", hit.perf), zero, "a hit reports no telemetry");
        assert_eq!(**hit, outcome);
        assert_eq!(index.events_hint(spec.stable_hash()), Some(outcome.perf.events_processed));
        let reopened = ConcurrentCache::open(&dir).unwrap().index();
        assert_eq!(
            format!("{:?}", reopened.get(spec.stable_hash(), 1).unwrap().perf),
            zero,
            "nor after a reopen"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_memory_only_store_publishes_as_the_file_store_does() {
        let spec = tiny_spec();
        let outcome = spec.run();
        let cache = ConcurrentCache::in_memory();
        assert!(cache.path.is_none() && cache.is_empty());
        put(&cache, &spec, 1, &outcome).unwrap();
        let index = cache.index();
        let hit = index.get(spec.stable_hash(), 1).expect("indexed on append");
        assert_eq!(**hit, outcome);
        assert_eq!(hit.perf.events_processed, 0, "a hit reports no telemetry");
        assert_eq!(hit.report.nodes.as_ptr(), outcome.report.nodes.as_ptr(), "node reports are shared");
        assert_eq!(index.events_hint(spec.stable_hash()), Some(outcome.perf.events_processed));
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn batch_append_commits_once_and_snapshots_stay_immutable() {
        let dir = tmp_dir("batch");
        let spec = tiny_spec();
        let spec2 = tiny_spec().with_seed(2);
        let (outcome, outcome2) = (spec.run(), spec2.run());
        let cache = ConcurrentCache::open(&dir).unwrap();
        let before = cache.index();
        cache
            .append_batch(&[
                (spec.stable_hash(), 1, &spec, &outcome),
                (spec.stable_hash(), 2, &spec, &outcome),
                (spec2.stable_hash(), 1, &spec2, &outcome2),
            ])
            .unwrap();
        assert!(before.is_empty(), "a snapshot never sees later appends");
        let after = cache.index();
        assert_eq!(after.len(), 3);
        assert_eq!(**after.get(spec.stable_hash(), 2).unwrap(), outcome);
        assert_eq!(
            after.events_hint(spec.stable_hash()),
            Some(outcome.perf.events_processed),
            "fresh runs calibrate the cost model"
        );
        // Three records, three lines — and a cold reopen loads them all,
        // hints included.
        let text = std::fs::read_to_string(dir.join("runs.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 3);
        let reopened = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.index().events_hint(spec2.stable_hash()), Some(outcome2.perf.events_processed));
        assert_eq!(reopened.stats().quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_batch_append_writes_and_indexes_nothing() {
        let dir = tmp_dir("batch-fail");
        let spec = tiny_spec();
        let outcome = spec.run();
        let cache = ConcurrentCache::open(&dir).unwrap();
        // The store re-opens its file per batch, so a directory in the
        // file's place makes the next append's `open` fail for real.
        let store = dir.join("runs.jsonl");
        std::fs::create_dir(&store).unwrap();
        let err = put(&cache, &spec, 1, &outcome);
        assert!(err.is_err(), "a directory cannot be opened for append");
        assert!(cache.is_empty(), "a failed batch indexes nothing");
        std::fs::remove_dir(&store).expect("the failed append left the directory empty");
        // The retry lands the whole batch cleanly, on disk too.
        put(&cache, &spec, 1, &outcome).unwrap();
        assert_eq!(cache.len(), 1);
        drop(cache);
        let reopened = ConcurrentCache::open(&dir).unwrap();
        assert_eq!((reopened.len(), reopened.stats().quarantined), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
