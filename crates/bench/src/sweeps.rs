//! Sweep-level persistence: a durable [`RunOutcome`] cache on disk.
//!
//! Every run a sweep dispatches is named by the pair
//! `(ScenarioSpec::stable_hash, replication)` — the same key the runner
//! derives the world seed from — and a finished run is pure data. This
//! module stores that data as JSON lines (one record per run) under
//! `results/cache/`, so a warm rerun of `--bin all` (tables by name, or
//! any `.scn` file by path) executes **zero** simulations for cells
//! whose spec and replication are already on disk and still renders
//! byte-identical tables: a record holds only counts, from which every
//! ratio — a node's averages and overheads, a flow's rate, the run's
//! headline throughput — is derived exactly as on the live run, by the
//! same constructors.
//!
//! Every runner carries one store. Without a directory it is
//! [`ConcurrentCache::in_memory`]: the same index, counters and publish
//! step, but no file, so no record is ever encoded. Either way each
//! distinct `(stable_hash, replication)` simulates at most once per
//! store, and a repeat — in a later sweep or the same one — is a hit.
//!
//! Editing a spec changes its `stable_hash`, which invalidates exactly
//! that cell's replications and nothing else. Editing the model's code,
//! or this codec, changes [`MODEL_FINGERPRINT`], and the store file is
//! named by it: `runs-<16 hex digits>.jsonl`
//! ([`ConcurrentCache::path`]). A build opens, reads and appends only its
//! own file, so it serves only the records its own model wrote in its
//! own layout, and never reads (or pays for) another build's records.
//! Any other file in the directory, a pre-fingerprint `runs.jsonl`
//! included, is left alone; an old store degrades into a cold one.
//!
//! ## Record layout
//!
//! One line per run, `{json}#crc:xxxxxxxx` (see *Crash safety*), where
//! `json` is one positional row, with no keys at any level:
//!
//! ```text
//! ["0x…hash", rep, scn, events|null, completed, window_ns, [FLOW, …],
//!  at_ns, collisions, phy_header_bytes, [ROW, …]]
//! FLOW = [src, dst, port, "traffic token", bytes, completed_at_ns|null]
//! ROW  = [node, tx_data_frames, tx_control, tx_psdu_bytes,
//!         ucast_subframes, bcast_subframes, tx_overhead_bytes,
//!         payload_ns, mac_header_ns, phy_ns, control_ns, difs_ns, sifs_ns,
//!         backoff_ns, retries, retry_drops, queue_overflow, acks_classified,
//!         bcast_filtered, bcast_ok, bcast_crc_fail, unicast_ok,
//!         unicast_crc_drops, collisions_seen, forwarded]
//! ```
//!
//! `events` is the spec's event count, a scheduling hint (see
//! [`CacheIndex::events_hint`]); `scn` is the spec's canonical `.scn`
//! text, for people reading the file (the key already names the spec);
//! `window_ns` is the spec's `duration`, the window a CBR or on/off
//! flow's rate is measured over. A flow's `bps` and the run's
//! `throughput_bps` are not stored: [`FlowOutcome::new`] and
//! [`RunOutcome::new`] derive them on decode as they do on the live run.
//! A `ROW` is one [`NodeReport`], its fields in declaration order, the
//! subframe pair as two columns and the airtime ledger as seven, integer
//! nanoseconds in `hydra_core::Cat::ALL` order; `avg_subframes`, derived
//! from the counts, is not stored. Every column is an integer, a bool, a
//! string or `null`.
//!
//! ## The codec
//!
//! The workspace vendors no dependencies, so the codec below is a
//! deliberately small JSON writer and a single-pass pull reader that
//! cover exactly what the records need (arrays, strings, unsigned
//! integers, booleans, `null`). Each row kind — record, flow,
//! node — is one `row!` list of columns, and the writer and the reader are
//! both generated from it; each column's type says how it is spelled
//! (`Column`). The reader walks each line's bytes once and writes
//! fields straight into the `RunOutcome` that the index will hold — no
//! intermediate document tree; see docs/PERFORMANCE.md, "Result store:
//! warm open".
//!
//! The reader takes exactly what the writer writes: every column of a
//! row in order, each of its type. A row with a column too many or too
//! few, a column of another kind, or a ledger whose total overflows
//! `u64` nanoseconds rejects its record, which is skipped. Rows nest to
//! a fixed depth, so nothing recurses on the input. A number is a plain
//! run of digits: up to 19 are folded into a `u64` as they are read, and
//! a longer run goes to `str::parse`; a sign, a fraction or an exponent
//! is not a separator, so it rejects the row. A node report owns no heap
//! memory, so decoding one allocates nothing of its own, and a record's
//! node and flow lists are gathered in scratch reused across records, so
//! each costs one allocation of exactly its size.
//!
//! The open streams the file: it reads the store file through one
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
//! same bytes, write every sealed line to the store file's name plus
//! `.tmp` and rename that over the live file.
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

use hydra_core::Ledger;
use hydra_netsim::{
    FlowOutcome, FlowSpec, FlowTraffic, NodeReport, NodeReports, RunOutcome, RunPerf, RunReport, ScenarioSpec,
};
use hydra_sim::{Duration, Instant};
use hydra_wire::crc::crc32;

/// FNV-1a over the simulated model's source files (every `.rs` file of
/// the simulator crates, the runner that derives world seeds, and this
/// codec), as `build.rs` read them. It names the store file, so a build
/// reads only what its own model wrote in its own layout.
pub const MODEL_FINGERPRINT: u64 = include!(concat!(env!("OUT_DIR"), "/model_fingerprint.rs"));

/// A cache shared between experiment functions and runner threads.
pub type SharedCache = Arc<ConcurrentCache>;

/// Session counters: how the cache performed since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store (runs *not* simulated).
    pub hits: u64,
    /// Lookups that missed and were simulated.
    pub misses: u64,
    /// Records on disk that were intact (valid CRC) but that this codec
    /// cannot read (a hostile or hand-edited row); they are kept in the
    /// file but ignored this session.
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
            write!(f, ", {} unreadable record(s) skipped", self.skipped)?;
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
    fn insert(&mut self, record: Record<'_>) {
        if let Some(n) = record.events {
            let hint = self.events.entry(record.hash.0).or_insert(0);
            *hint = (*hint).max(n);
        }
        self.entries.insert((record.hash.0, record.rep), Arc::new(record.outcome));
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
    /// Opens (creating if needed) the cache under `results/cache`, the
    /// default on-disk location relative to the workspace root.
    pub fn open_default() -> std::io::Result<ConcurrentCache> {
        Self::open("results/cache")
    }

    /// Opens (creating if needed) the cache under `dir`: its one store
    /// file, named by [`MODEL_FINGERPRINT`] (see [`ConcurrentCache::path`]),
    /// every readable record of which is decoded straight into the
    /// published index. No other file in `dir` is read or changed. The
    /// file is streamed through one bounded read window (1 MiB, grown
    /// only to fit the longest line), so an open never holds the whole
    /// store in memory.
    ///
    /// Lines that fail their CRC trailer (torn appends, bit flips,
    /// non-UTF-8 damage, pre-CRC caches) are moved byte for byte to
    /// `runs.corrupt.jsonl` in the same directory and the live file is
    /// compacted, so their keys come back cold instead of serving
    /// damaged outcomes. Intact records of an unreadable shape stay in
    /// the file but are skipped.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ConcurrentCache> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("runs-{MODEL_FINGERPRINT:016x}.jsonl"));
        let mut file = match File::open(&path) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let mut index = CacheIndex::default();
        let mut skipped = 0;
        // Damaged lines are rare, so they are copied out as they are met.
        let mut quarantined = Vec::new();
        let mut scratch = Scratch::default();
        let read = match &mut file {
            Some(file) => for_each_line(file, |line| {
                match unseal(line) {
                    Some(json) => match decode_record(json, &mut scratch) {
                        Some(record) => index.insert(record),
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
            let tmp = path.with_extension("jsonl.tmp");
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

    /// The store file, `runs-<16 hex digits of MODEL_FINGERPRINT>.jsonl`
    /// under the directory [`ConcurrentCache::open`] was given; `None`
    /// for a memory-only store.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
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
        // Each outcome is held as a reopen would read it back: no
        // telemetry (a hit cost no simulation). A memory-only store
        // writes no `.scn` text.
        let records: Vec<Record> = records
            .iter()
            .map(|&(hash, rep, spec, outcome)| Record {
                hash: Hex(hash),
                rep,
                scn: Cow::Owned(self.path.as_ref().map(|_| spec.to_scn()).unwrap_or_default()),
                // The scheduling hint: the event count, when it
                // simulated anything.
                events: Some(outcome.perf.events_processed).filter(|&n| n > 0),
                window: spec.duration,
                outcome: RunOutcome { perf: RunPerf::default(), ..outcome.clone() },
            })
            .collect();
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(path) = &self.path {
            let mut batch = String::with_capacity(records.len() * 512);
            for record in &records {
                let start = batch.len();
                record
                    .encode(&mut batch)
                    .and_then(|()| seal(&mut batch, start))
                    .expect("writing to a String cannot fail");
                batch.push('\n');
            }
            // One write of the whole batch: under O_APPEND concurrent
            // writers (e.g. two `--bin all` processes sharing the
            // default cache) interleave at write granularity, so a
            // record must never be split across calls.
            let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
            file.write_all(batch.as_bytes())?;
        }
        // Publish: clone the table (Arc values, so outcomes are shared,
        // not copied), fold the batch in, swap the snapshot.
        let mut next = (*self.index()).clone();
        for record in records {
            next.insert(record);
        }
        *self.index.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
        Ok(())
    }
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
/// in `buf`: `{json}#crc:xxxxxxxx`, CRC-32 over the JSON bytes. A record
/// may itself hold `#` (a quoted string can), but the trailer holds
/// none, so [`unseal`] must split at the *last* `#` of the line.
fn seal(buf: &mut String, start: usize) -> fmt::Result {
    let crc = crc32(&buf.as_bytes()[start..]);
    write!(buf, "#crc:{crc:08x}")
}

/// Splits and verifies the trailer at the line's last `#` (see [`seal`]);
/// `None` for a missing or failed check (a torn or corrupted line).
fn unseal(line: &[u8]) -> Option<&[u8]> {
    let at = line.iter().rposition(|&b| b == b'#')?;
    let hex = std::str::from_utf8(line[at + 1..].strip_prefix(b"crc:")?).ok()?;
    let crc = u32::from_str_radix(hex, 16).ok()?;
    (crc == crc32(&line[..at])).then_some(&line[..at])
}

// ---------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------

/// One store line: what [`ConcurrentCache::append_batch`] writes and
/// [`ConcurrentCache::open`] reads back, column by column (its `row!`
/// list is below). The reader borrows `scn` from the line.
struct Record<'a> {
    hash: Hex,
    rep: u64,
    scn: Cow<'a, str>,
    events: Option<u64>,
    /// The spec's `duration`: the window its CBR and on/off flows'
    /// rates are measured over.
    window: Duration,
    outcome: RunOutcome,
}

/// A value one column of a row holds: how the writer spells it, and the
/// reader of exactly that spelling (`None` for anything else).
trait Column<'a>: Sized {
    fn encode(&self, s: &mut String) -> fmt::Result;

    fn decode(r: &mut Reader<'a>) -> Option<Self>;
}

/// Makes `$ty` a row: `[column, column, …]`, no keys, one column per
/// place listed, each a place in the value `$v`. The writer and the
/// reader are both generated from the one list, so they cannot disagree
/// on what a position holds. The reader fills `$blank` in, exactly the
/// listed columns, each of its type, or gives `None`; `$done` makes the
/// value out of the filled-in one, where that is not the value itself.
macro_rules! row {
    ($v:ident: $ty:ty = $blank:expr $(=> $done:expr)?; $($place:expr,)+) => {
        impl<'a> Column<'a> for $ty {
            fn encode(&self, s: &mut String) -> fmt::Result {
                let $v = self;
                s.push('[');
                $(
                    $place.encode(s)?;
                    s.push(',');
                )+
                s.pop();
                s.push(']');
                Ok(())
            }

            fn decode(r: &mut Reader<'a>) -> Option<Self> {
                let mut $v = $blank;
                let mut left = [$(stringify!($place)),+].len();
                r.eat(b'[')?;
                $(
                    $place = Column::decode(r)?;
                    left -= 1;
                    r.eat(if left == 0 { b']' } else { b',' })?;
                )+
                $(let $v = $done;)?
                Some($v)
            }
        }
    };
}

// Telemetry is never persisted: a cache hit reports zeros (it cost no
// simulation), keeping cached == fresh under PartialEq. The rates are
// derived last, through the constructors a live run calls.
row! { rec: Record<'a> = Record {
        hash: Hex(0),
        rep: 0,
        scn: Cow::Borrowed(""),
        events: None,
        window: Duration::ZERO,
        outcome: RunOutcome::new(
            false,
            Vec::new(),
            RunReport { nodes: NodeReports::default(), at: Instant::ZERO, collisions: 0, phy_header_bytes: 0 },
        ),
    } => Record { outcome: derive_rates(rec.outcome, rec.window), ..rec };
    rec.hash,
    rec.rep,
    rec.scn,
    rec.events,
    rec.outcome.completed,
    rec.window,
    rec.outcome.per_flow,
    rec.outcome.report.at,
    rec.outcome.report.collisions,
    rec.outcome.report.phy_header_bytes,
    rec.outcome.report.nodes,
}

// A flow's traffic is its canonical `.scn` token: the token round-trips
// the exact value (durations are exact nanosecond multiples), and keeps
// records human-readable. Its `kind` and `bps` are derived by its
// record, which holds the window (`derive_rates`).
row! { f: FlowOutcome = FlowOutcome::new(
        FlowSpec { src: 0, dst: 0, port: 0, traffic: FlowTraffic::FileTransfer { bytes: 0 } },
        0,
        None,
        Duration::ZERO,
    );
    f.flow.src,
    f.flow.dst,
    f.flow.port,
    f.flow.traffic,
    f.bytes,
    f.completed_at,
}

/// A decoded outcome finished as the live run finished it: each flow
/// through [`FlowOutcome::new`] with the record's window, then the
/// headline through [`RunOutcome::new`].
fn derive_rates(outcome: RunOutcome, window: Duration) -> RunOutcome {
    let RunOutcome { completed, mut per_flow, report, .. } = outcome;
    for f in &mut per_flow {
        *f = FlowOutcome::new(f.flow, f.bytes, f.completed_at, window);
    }
    RunOutcome::new(completed, per_flow, report)
}

// Every stored `NodeReport` field in declaration order, the subframe
// pair as two columns and the ledger as seven; `avg_subframes` is derived.
row! { n: NodeReport = NodeReport::default() => n.with_avg_subframes();
    n.node,
    n.tx_data_frames,
    n.tx_control,
    n.tx_psdu_bytes,
    n.subframes_sent.0,
    n.subframes_sent.1,
    n.tx_overhead_bytes,
    n.ledger,
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
    n.forwarded,
}

// ---------------------------------------------------------------------
// Columns
// ---------------------------------------------------------------------

/// The spec hash, quoted as `"0x"` and 16 hex digits.
struct Hex(u64);

/// Makes each `$ty` a column spelled as one JSON scalar: `$encode`
/// writes `$v` onto `$s`, `$decode` reads one from `$r`.
macro_rules! scalar_columns {
    ($($ty:ty: |$s:ident, $v:ident| $encode:expr, |$r:ident| $decode:expr;)+) => {$(
        impl<'a> Column<'a> for $ty {
            fn encode(&self, $s: &mut String) -> fmt::Result {
                let $v = self;
                $encode
            }

            fn decode($r: &mut Reader<'a>) -> Option<Self> {
                $decode
            }
        }
    )+};
}

scalar_columns! {
    // Counters are exact: `1.0` and `-1` are not counters.
    u64: |s, v| write!(s, "{v}"), |r| r.u64();
    usize: |s, v| write!(s, "{v}"), |r| usize::try_from(r.u64()?).ok();
    u16: |s, v| write!(s, "{v}"), |r| u16::try_from(r.u64()?).ok();
    Instant: |s, v| write!(s, "{}", v.as_nanos()), |r| Some(Instant::from_nanos(r.u64()?));
    Duration: |s, v| write!(s, "{}", v.as_nanos()), |r| Some(Duration::from_nanos(r.u64()?));
    bool: |s, v| write!(s, "{v}"), |r| match r.peek()? {
        b't' => r.lit("true").map(|()| true),
        _ => r.lit("false").map(|()| false),
    };
    Cow<'a, str>: |s, v| write!(s, "{}", Quoted(v)), |r| r.string();
    FlowTraffic: |s, v| write!(s, "{}", Quoted(&v.to_string())),
        |r| FlowTraffic::from_token(&r.string()?).ok();
    Hex: |s, v| write!(s, "\"{:#018x}\"", v.0),
        |r| u64::from_str_radix(r.string()?.strip_prefix("0x")?, 16).ok().map(Hex);
}

/// A value, or `null` for none.
impl<'a, T: Column<'a>> Column<'a> for Option<T> {
    fn encode(&self, s: &mut String) -> fmt::Result {
        match self {
            Some(v) => v.encode(s),
            None => s.write_str("null"),
        }
    }

    fn decode(r: &mut Reader<'a>) -> Option<Self> {
        match r.peek()? {
            b'n' => r.lit("null").map(|()| None),
            _ => T::decode(r).map(Some),
        }
    }
}

/// The flows, a list (see [`Reader::scratch_list`]).
impl<'a> Column<'a> for Vec<FlowOutcome> {
    fn encode(&self, s: &mut String) -> fmt::Result {
        encode_list(s, self)
    }

    fn decode(r: &mut Reader<'a>) -> Option<Self> {
        r.scratch_list(|scratch| &mut scratch.flows)
    }
}

/// The node reports, a list (see [`Reader::scratch_list`]) moved into
/// their shared slice.
impl<'a> Column<'a> for NodeReports {
    fn encode(&self, s: &mut String) -> fmt::Result {
        encode_list(s, self)
    }

    fn decode(r: &mut Reader<'a>) -> Option<Self> {
        r.scratch_list(|scratch| &mut scratch.nodes)
    }
}

/// The airtime ledger as seven columns, its slots in
/// [`hydra_core::Cat::ALL`] order. No run writes a ledger whose total
/// overflows, and reading one rejects its row, so no stored value can
/// make [`Ledger::total`] panic.
impl<'a> Column<'a> for Ledger {
    fn encode(&self, s: &mut String) -> fmt::Result {
        for d in self.0 {
            d.encode(s)?;
            s.push(',');
        }
        s.pop();
        Ok(())
    }

    fn decode(r: &mut Reader<'a>) -> Option<Self> {
        let mut ledger = Ledger::default();
        for (i, slot) in ledger.0.iter_mut().enumerate() {
            if i > 0 {
                r.eat(b',')?;
            }
            *slot = Duration::decode(r)?;
        }
        ledger.0.iter().try_fold(Duration::ZERO, |sum, &d| sum.checked_add(d))?;
        Some(ledger)
    }
}

fn encode_list<'a, T: Column<'a>>(s: &mut String, items: &[T]) -> fmt::Result {
    s.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        item.encode(s)?;
    }
    s.push(']');
    Ok(())
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
// Reading
// ---------------------------------------------------------------------

/// Decodes one record's JSON; `None` for anything but a record row.
/// `scratch` is reused across records.
fn decode_record<'a>(json: &'a [u8], scratch: &mut Scratch) -> Option<Record<'a>> {
    // Checked once per line: the file is read as bytes, and damage must
    // not get past here as a `str`.
    let mut r = Reader { scratch: std::mem::take(scratch), ..Reader::new(std::str::from_utf8(json).ok()?) };
    let record = Record::decode(&mut r).filter(|_| r.pos == r.s.len());
    *scratch = r.scratch;
    record
}

/// The lists a record's rows are gathered in before each is moved into
/// its own allocation.
#[derive(Default)]
struct Scratch {
    nodes: Vec<NodeReport>,
    flows: Vec<FlowOutcome>,
}

/// The most digits folded into one `u64` (10^19 − 1 still fits).
const FOLD_MAX: usize = 19;

/// A pull reader over one record's text. Not a general-purpose JSON
/// parser: just enough to read back what the rows write, with strict
/// syntax so corruption surfaces as a skipped record. Every method
/// consumes exactly one token or value, with no whitespace around it
/// (the writer writes none), and returns `None` on anything else.
struct Reader<'a> {
    s: &'a str,
    pos: usize,
    scratch: Scratch,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader { s, pos: 0, scratch: Scratch::default() }
    }

    #[inline]
    fn byte(&self, at: usize) -> Option<u8> {
        self.s.as_bytes().get(at).copied()
    }

    /// The next byte, not consumed.
    #[inline]
    fn peek(&self) -> Option<u8> {
        self.byte(self.pos)
    }

    /// Consumes the next byte, which must be `c`.
    #[inline]
    fn eat(&mut self, c: u8) -> Option<()> {
        (self.peek()? == c).then(|| self.pos += 1)
    }

    /// `[item(,item)*]` or `[]`, each item pushed onto `items`.
    fn list<T: Column<'a>>(&mut self, items: &mut Vec<T>) -> Option<()> {
        self.eat(b'[')?;
        if self.peek()? != b']' {
            items.push(T::decode(self)?);
            while self.peek()? == b',' {
                self.pos += 1;
                items.push(T::decode(self)?);
            }
        }
        self.eat(b']')
    }

    /// A list gathered in the scratch vector `list` picks (reused across
    /// records, so no record regrows one), then collected with one
    /// allocation of exactly its length.
    fn scratch_list<T: Column<'a>, C: FromIterator<T>>(
        &mut self,
        list: fn(&mut Scratch) -> &mut Vec<T>,
    ) -> Option<C> {
        let mut items = std::mem::take(list(&mut self.scratch));
        items.clear();
        let read = self.list(&mut items).map(|()| items.drain(..).collect());
        *list(&mut self.scratch) = items;
        read
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

    /// An exact counter: a plain run of digits, folded into a `u64` as
    /// it is read (every counter written is such a run). Nothing but a
    /// digit is taken, so a sign, fraction or exponent is left for the
    /// caller's separator to reject.
    #[inline]
    fn u64(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut n = 0u64;
        while let Some(c) = self.peek().filter(u8::is_ascii_digit) {
            if self.pos - start == FOLD_MAX {
                return self.long_u64(start);
            }
            n = n * 10 + u64::from(c - b'0');
            self.pos += 1;
        }
        (self.pos > start).then_some(n)
    }

    /// A run longer than [`FOLD_MAX`] digits from `start`, read to its end
    /// and handed to `str::parse`, which rejects one past `u64::MAX`.
    #[cold]
    fn long_u64(&mut self, start: usize) -> Option<u64> {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.s[start..self.pos].parse().ok()
    }

    fn lit(&mut self, text: &str) -> Option<()> {
        self.s.as_bytes()[self.pos..].starts_with(text.as_bytes()).then(|| self.pos += text.len())
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
        let (hash, scn, outcome) = (Hex(spec.stable_hash()), spec.to_scn().into(), outcome.clone());
        let mut json = String::new();
        let window = spec.duration;
        Record { hash, rep, scn, events, window, outcome }.encode(&mut json).unwrap();
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
        let Record { hash, rep, events, outcome: back, .. } =
            decode_record(line.as_bytes(), &mut Scratch::default()).expect("decode own record");
        assert_eq!(hash.0, spec.stable_hash());
        assert_eq!(rep, 1);
        assert_eq!(events, None);
        assert_eq!(back, outcome, "RunOutcome must survive the cache byte-exactly");
        // Exact float identity, not approximate.
        assert_eq!(back.throughput_bps.to_bits(), outcome.throughput_bps.to_bits());
    }

    #[test]
    fn mixed_outcome_round_trips_with_flow_labels() {
        use hydra_netsim::{FlowKind, FlowSpec, FlowTraffic, Policy};
        let mut spec = ScenarioSpec::tcp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30);
        spec.traffic = FlowTraffic::FileTransfer { bytes: 20 * 1024 };
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
        let Record { events, outcome: back, .. } =
            decode_record(line.as_bytes(), &mut Scratch::default()).expect("decode mixed record");
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
    fn an_unreadable_record_is_skipped_and_garbage_is_quarantined() {
        let dir = tmp_dir("unreadable");
        let path = ConcurrentCache::open(&dir).unwrap().path().unwrap().to_path_buf();
        let spec = tiny_spec();
        let outcome = spec.run();
        let json = encoded(&spec, 1, &outcome, None);
        let good = sealed(&json);
        // An intact (valid-CRC) record with a column too many.
        let extra = sealed(&format!("{},0]", json.strip_suffix(']').unwrap()));
        std::fs::write(&path, format!("{extra}\nnot json at all\n{good}\n")).unwrap();
        let c = ConcurrentCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1, "only the readable record loads");
        assert_eq!(c.stats().skipped, 1, "the intact unreadable record is skipped, not quarantined");
        assert_eq!(c.stats().quarantined, 1, "trailer-less garbage is quarantined");
        // The garbage moved out; the intact lines (the unreadable one
        // included) stay.
        let live = std::fs::read_to_string(&path).unwrap();
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
        let path = {
            let c = ConcurrentCache::open(&dir).unwrap();
            put(&c, &spec, 1, &outcome).unwrap();
            put(&c, &spec, 2, &outcome).unwrap();
            c.path().unwrap().to_path_buf()
        };
        // Tear the file mid-record, as a crash during the second
        // append would: keep the first line and half of the second.
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
        let cache = ConcurrentCache::open(&dir).unwrap();
        put(&cache, &spec, 1, &outcome).unwrap();
        let path = cache.path().unwrap();
        let mut text = std::fs::read_to_string(path).unwrap();
        // Flip one digit inside a numeric column (valid JSON, wrong data):
        // the rep, after the quoted hash.
        let at = text.find("\",1,\"").expect("rep column") + 2;
        text.replace_range(at..at + 1, "7");
        std::fs::write(path, &text).unwrap();
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
        // A `#` inside the record is not the trailer's: the split is at the last one.
        let hashed = sealed("[\"a#b\",\"#crc:00000000\"]");
        assert_eq!(unseal(hashed.as_bytes()), Some(&b"[\"a#b\",\"#crc:00000000\"]"[..]));
    }

    /// A list of counters or nulls, read and dropped.
    struct Ints;

    impl<'a> Column<'a> for Ints {
        fn encode(&self, _: &mut String) -> fmt::Result {
            unreachable!("read only")
        }

        fn decode(r: &mut Reader<'a>) -> Option<Self> {
            r.list(&mut Vec::<Option<u64>>::new()).map(|()| Ints)
        }
    }

    #[test]
    fn the_reader_rejects_garbage() {
        let whole = |text: &str| {
            let mut r = Reader::new(text);
            r.list(&mut Vec::<Ints>::new()).is_some() && r.pos == text.len()
        };
        for bad in [
            "[",
            "[[1,",
            "[[1,]]",
            "[[1]",
            "[[1]] trailing",
            "[[1] ,[2]]",
            " [[]]",
            "[[nul]]",
            "[[-0]]",
            "[[+1]]",
            "[[1.5]]",
            "[[1e0]]",
            "[[18446744073709551616]]",
            "[[\"1\"]]",
            "[1]",
            "{}",
            "",
        ] {
            assert!(!whole(bad), "`{bad}` should fail");
        }
        for good in ["[]", "[[]]", "[[1,null,0],[],[2]]", "[[18446744073709551615,000000000000000000001]]"] {
            assert!(whole(good), "`{good}` should parse");
        }
        assert_eq!(Reader::new("42").u64(), Some(42));
        assert_eq!(Reader::new(" 42").u64(), None, "the writer writes no whitespace");
        assert_eq!(Reader::new("\"a\\\"b\\u0041\"").string().as_deref(), Some("a\"bA"));
        assert_eq!(Reader::new("\"\\ud800\"").string(), None, "a lone surrogate is no char");
        assert!(decode_record(b"[\"\xff\"]", &mut Scratch::default()).is_none(), "records are checked UTF-8");
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
        let text = std::fs::read_to_string(cache.path().unwrap()).unwrap();
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
        let store = cache.path().unwrap().to_path_buf();
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
