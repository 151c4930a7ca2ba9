//! The `.scn` scenario-file format: one [`ScenarioSpec`] per line.
//!
//! Each non-comment line is a whitespace-separated list of `key=value`
//! fields describing one spec. Every key is one row of one table,
//! `KEYS`, which both writes and reads it. The serializer
//! ([`ScenarioSpec::to_scn`]) is *canonical* — it emits keys in the
//! table's order and omits every field that still holds its default —
//! and the parser ([`ScenarioSpec::from_scn`]) is strict (unknown or
//! duplicate keys are errors), so:
//!
//! * `parse(serialize(spec)) == spec` for every representable spec, and
//! * `serialize(parse(line))` is a canonical form of `line`, stable
//!   under re-serialization.
//!
//! Because [`ScenarioSpec::stable_hash`] is a function of the value
//! alone, a round-tripped spec also keeps its hash — and therefore its
//! derived per-replication world seeds and its slot in the persistent
//! result cache. The full grammar, every key, and the defaults are
//! documented in `docs/SCENARIO_FORMAT.md`.

use std::fmt::{self, Write as _};

use hydra_core::{AckPolicy, AggSizing, Policy};
use hydra_phy::{LinkErrorModel, Rate};
use hydra_sim::Duration;

use crate::spec::{Flooding, FlowSpec, FlowTraffic, LinkErrorSpec, RunBudget, ScenarioSpec, TopologyKind};
use crate::world::MediumKind;

/// A parse error with the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScnError {
    /// 1-based line number within the parsed text.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ScnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ScnError {}

/// Parses a whole `.scn` text: blank lines and `#` comment lines
/// (including `#!` directives — see [`parse_scn_file`]) are skipped,
/// every other line must be one spec. The first malformed line aborts
/// the parse with its line number.
pub fn parse_scn(text: &str) -> Result<Vec<ScenarioSpec>, ScnError> {
    let mut specs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let spec = ScenarioSpec::from_scn(line).map_err(|msg| ScnError { line: i + 1, msg })?;
        specs.push(spec);
    }
    Ok(specs)
}

/// Sweep-level metadata carried by `#!` directive lines: the replication
/// count (`seeds`; a `--seeds` flag still wins), the table's `caption`,
/// its footnotes (`note`), the paper's numbers (`paper`) and its table
/// block (`rows`, `metric`, `col`, `gain`). `docs/SCENARIO_FORMAT.md`
/// has the grammar. Directives are invisible to [`parse_scn`] (they
/// parse as comments), so they never change which scenarios run or
/// their hashes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepMeta {
    /// Default replications per scenario, 1 ..= [`MAX_SEEDS`].
    pub seeds: Option<u64>,
    /// Table caption for the sweep.
    pub caption: Option<String>,
    /// Table footnotes, in file order.
    pub notes: Vec<String>,
    /// `#! paper=SELECTOR | VALUE…`, in file order: the paper's numbers
    /// for the spec line the selector matches.
    pub paper: Vec<(Selector, Vec<f64>)>,
    /// The table block, when the file declares one.
    pub table: Option<TableLayout>,
}

/// A partial spec line that picks spec lines by value: a spec matches
/// when setting the selector's `key=value` fields on it changes nothing
/// (so `rts=on` matches a line that omits `rts=`).
#[derive(Debug, Clone, PartialEq)]
pub struct Selector(Vec<(String, String)>);

impl Selector {
    /// Parses `key=value` fields; one a spec line rejects is an error.
    fn parse(text: &str) -> Result<Selector, String> {
        let mut probe = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Na, Rate::R1_30);
        let mut fields = Vec::new();
        for tok in text.split_whitespace() {
            let (key, value) = tok.split_once('=').ok_or_else(|| format!("`{tok}` is not key=value"))?;
            (row(key)?.set)(&mut probe, value)?;
            fields.push((key.to_string(), value.to_string()));
        }
        if fields.is_empty() {
            return Err("empty selector".into());
        }
        Ok(Selector(fields))
    }

    /// True when `spec` holds every field of the selector.
    pub fn matches(&self, spec: &ScenarioSpec) -> bool {
        let mut set = spec.clone();
        self.0.iter().all(|(key, value)| row(key).and_then(|row| (row.set)(&mut set, value)).is_ok())
            && set == *spec
    }
}

/// A file's table block: one row per value of the row key, ascending;
/// one cell per column, the one spec line of the row its selector
/// matches.
#[derive(Debug, Clone, PartialEq)]
pub struct TableLayout {
    /// `#! rows=HEADER | KEY`: the label column's header and key.
    pub rows: (String, RowKey),
    /// `#! metric=`: what a data cell shows.
    pub metric: Metric,
    /// `#! col=[PAPER HEADER,] HEADER | SELECTOR`, in file order.
    pub cols: Vec<Column>,
    /// `#! gain=[PAPER HEADER,] HEADER | NUM / DEN`: the column of
    /// NUM's gain over DEN, drawn last, and DEN.
    pub gain: Option<(Column, Selector)>,
}

/// One column of a table block.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The header of the paper's own column before this one; without
    /// it a paper value shares the cell (`paper / here`).
    pub paper_header: Option<String>,
    /// The column's header.
    pub header: String,
    /// Picks the column's spec line in each row.
    pub select: Selector,
}

/// The spec field a table's rows are keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKey {
    /// `rate`.
    Rate,
    /// `max_agg`, labelled in KB.
    MaxAgg,
    /// `flood`'s interval, labelled in seconds.
    Flood,
    /// `topo`, a chain labelled by its hop count.
    Topo,
    /// `medium`, labelled by its spacing in metres.
    Medium,
}

impl RowKey {
    /// `spec`'s row: the value rows sort by, and the row's label.
    pub fn row(self, spec: &ScenarioSpec) -> (f64, String) {
        match (self, spec.topology, spec.medium, spec.flooding) {
            (RowKey::Rate, ..) => (spec.rate.mbps(), spec.rate.to_string()),
            (RowKey::MaxAgg, ..) => (spec.max_aggregate as f64, (spec.max_aggregate / 1024).to_string()),
            (RowKey::Flood, _, _, Some(f)) => {
                (f.interval.as_secs_f64(), format!("{:.2}s", f.interval.as_secs_f64()))
            }
            (RowKey::Topo, TopologyKind::Linear(hops), ..) => (hops as f64, hops.to_string()),
            (RowKey::Medium, _, MediumKind::Spatial { spacing_m }, _) => (spacing_m, format!("{spacing_m}")),
            _ => (0.0, "-".into()),
        }
    }
}

/// What a table block's data cell shows: the mean over its successful
/// replications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Headline throughput, in Mbps (the default).
    Throughput,
    /// `relay_overhead`: the relay's time overhead, in %.
    RelayOverhead,
}

/// The most replications a sweep may ask for. Every replication is a
/// job slot reserved up front, so a larger count is a usage error, not
/// an allocation the process cannot survive.
pub const MAX_SEEDS: u64 = 100_000;

/// Checks a replication count from a `#! seeds=` directive or a
/// `--seeds` flag: `Err` holds the words every caller reports.
pub fn check_seeds(seeds: u64) -> Result<u64, String> {
    match seeds {
        0 => Err("seeds must be at least 1".into()),
        n if n > MAX_SEEDS => Err(format!("seeds must be at most {MAX_SEEDS}")),
        n => Ok(n),
    }
}

/// The most worker threads a command line may ask for. Each is an OS
/// thread spawned per sweep, so a larger count is a usage error, not a
/// process the machine has to survive.
pub const MAX_THREADS: usize = 256;

/// Checks a `--threads` flag (0 = one per available CPU): `Err` holds
/// the words every caller reports.
pub fn check_threads(threads: usize) -> Result<usize, String> {
    match threads {
        n if n > MAX_THREADS => Err(format!("threads must be at most {MAX_THREADS}")),
        n => Ok(n),
    }
}

/// A fully parsed `.scn` file: sweep metadata plus the scenario list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepFile {
    /// `#!` directives.
    pub meta: SweepMeta,
    /// One spec per non-comment line, in file order.
    pub specs: Vec<ScenarioSpec>,
}

/// Parses a whole `.scn` file including its `#!` directive lines.
///
/// Like [`parse_scn`] for the scenario lines; additionally each `#!`
/// line must be a valid `key=value` directive (see [`SweepMeta`]); a
/// bad one is an error with its line number.
pub fn parse_scn_file(text: &str) -> Result<SweepFile, ScnError> {
    let mut file = SweepFile::default();
    for (i, raw) in text.lines().enumerate() {
        let err = |msg: String| ScnError { line: i + 1, msg };
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(directive) = line.strip_prefix("#!") {
            let directive = directive.trim();
            let (key, value) = directive
                .split_once('=')
                .ok_or_else(|| err(format!("directive `{directive}` is not key=value")))?;
            directive_into(&mut file.meta, key.trim(), value.trim()).map_err(err)?;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let spec = ScenarioSpec::from_scn(line).map_err(err)?;
        file.specs.push(spec);
    }
    Ok(file)
}

/// Applies one `#! key=value` directive to `meta`.
fn directive_into(meta: &mut SweepMeta, key: &str, value: &str) -> Result<(), String> {
    // `LEFT | RIGHT`, each side trimmed.
    let split = |what: &str| {
        let (l, r) = value.split_once('|').ok_or_else(|| format!("expected `{key}={what}`"))?;
        Ok::<_, String>((l.trim(), r.trim()))
    };
    // `[PAPER HEADER,] HEADER | SELECTOR`.
    let column = |head: &str, select| {
        let (paper_header, header) = match head.split_once(',') {
            Some((paper, here)) => (Some(paper.trim().to_string()), here.trim()),
            None => (None, head),
        };
        Ok::<_, String>(Column { paper_header, header: header.to_string(), select: Selector::parse(select)? })
    };
    let second_block = key == "rows" && meta.table.is_some();
    let table = meta.table.as_mut().filter(|_| matches!(key, "metric" | "col" | "gain"));
    match (key, table) {
        ("seeds", _) if meta.seeds.is_some() => return Err("duplicate `seeds` directive".into()),
        ("seeds", _) => {
            let seeds: u64 = value.parse().map_err(|_| format!("bad seeds value `{value}`"))?;
            meta.seeds = Some(check_seeds(seeds)?);
        }
        ("caption", _) if meta.caption.is_some() => return Err("duplicate `caption` directive".into()),
        ("caption", _) => meta.caption = Some(value.to_string()),
        ("note", _) => meta.notes.push(value.to_string()),
        ("paper", _) => {
            let (select, values) = split("SELECTOR | VALUE...")?;
            let values = values.split_whitespace().map(f64_from_text).collect::<Result<Vec<_>, _>>()?;
            if values.is_empty() {
                return Err("a paper line needs at least one value".into());
            }
            meta.paper.push((Selector::parse(select)?, values));
        }
        ("rows", _) if second_block => return Err("a second table block (`rows` directive)".into()),
        ("rows", _) => {
            let (header, key) = split("HEADER | KEY")?;
            let key = match key {
                "rate" => RowKey::Rate,
                "max_agg" => RowKey::MaxAgg,
                "flood" => RowKey::Flood,
                "topo" => RowKey::Topo,
                "medium" => RowKey::Medium,
                _ => return Err(format!("unknown row key `{key}` (rate|max_agg|flood|topo|medium)")),
            };
            let rows = (header.to_string(), key);
            meta.table = Some(TableLayout { rows, metric: Metric::Throughput, cols: Vec::new(), gain: None });
        }
        ("metric" | "col" | "gain", None) => return Err(format!("`{key}` directive before the `rows` one")),
        ("metric", Some(t)) => {
            t.metric = match value {
                "relay_overhead" => Metric::RelayOverhead,
                _ => return Err(format!("unknown metric `{value}` (relay_overhead)")),
            }
        }
        ("col", Some(t)) => {
            let (head, select) = split("HEADER | SELECTOR")?;
            t.cols.push(column(head, select)?);
        }
        ("gain", Some(t)) if t.gain.is_some() => return Err("duplicate `gain` directive".into()),
        ("gain", Some(t)) => {
            let (head, ratio) = split("HEADER | NUM / DEN")?;
            let (num, den) = ratio.split_once(" / ").ok_or("expected `NUM / DEN` selectors")?;
            t.gain = Some((column(head, num)?, Selector::parse(den)?));
        }
        (other, _) => {
            return Err(format!(
                "unknown directive `{other}` (seeds|caption|note|paper|rows|metric|col|gain)"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------

/// A value codec: the value's canonical text (`None` for an inert value,
/// which has no spelling), and its parser (whose errors may name the key).
/// Floats are written with `{:?}`, the shortest text that parses back
/// bit-identically.
type Codec<T> = (fn(&T) -> Option<String>, fn(&str, &str) -> Result<T, String>);

/// Duration units, largest first.
const UNITS: [(&str, u64); 4] = [("s", 1_000_000_000), ("ms", 1_000_000), ("us", 1_000), ("ns", 1)];

/// Canonical duration text: the largest unit that divides the value
/// exactly (zero renders as `0s`).
struct DurText(Duration);

impl fmt::Display for DurText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0.as_nanos();
        let (unit, per) =
            UNITS.iter().find(|(_, per)| ns.is_multiple_of(*per)).expect("1 ns divides every value");
        write!(f, "{}{unit}", ns / per)
    }
}

fn dur_from_text(s: &str) -> Result<Duration, String> {
    // Smallest first: `ns`, `us` and `ms` all end in `s`.
    let unit = UNITS.iter().rev().find_map(|&(unit, per)| Some((s.strip_suffix(unit)?, per)));
    let (digits, per) = unit.ok_or_else(|| format!("duration `{s}` needs a unit suffix (ns|us|ms|s)"))?;
    let n: u64 = digits.parse().map_err(|_| format!("bad duration value `{s}`"))?;
    n.checked_mul(per).map(Duration::from_nanos).ok_or_else(|| format!("duration `{s}` overflows"))
}

/// A number; the error names the key.
fn num<T: std::str::FromStr>(s: &str, key: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {key} value `{s}`"))
}

const BYTES: Codec<usize> = (|v| Some(v.to_string()), num);
const COUNT: Codec<u32> = (|v| Some(v.to_string()), num);
const SEED: Codec<u64> = (|v| Some(v.to_string()), num);
const DUR: Codec<Duration> = (|d| Some(DurText(*d).to_string()), |s, _| dur_from_text(s));
const FLUSH: Codec<Option<Duration>> = (|d| d.as_ref().and_then(DUR.0), |s, key| (DUR.1)(s, key).map(Some));

/// A name table: each value with its canonical name first, then any
/// other spelling a line may use for it.
type Names<T> = [(T, &'static [&'static str])];

fn name<T: PartialEq>(names: &Names<T>, v: &T) -> Option<String> {
    let (_, spellings) = names.iter().find(|(named, _)| named == v).expect("the table names every value");
    Some(spellings[0].to_string())
}

/// The value `s` spells; `Err` lists the canonical names, `a|b|…`.
fn named<T: Copy>(names: &Names<T>, s: &str) -> Result<T, String> {
    let found = names.iter().find(|(_, spellings)| spellings.contains(&s)).map(|&(v, _)| v);
    found.ok_or_else(|| names.iter().map(|(_, spellings)| spellings[0]).collect::<Vec<_>>().join("|"))
}

const RATES: &Names<Rate> = &[
    (Rate::R0_65, &["0.65"]),
    (Rate::R1_30, &["1.3", "1.30"]),
    (Rate::R1_95, &["1.95"]),
    (Rate::R2_60, &["2.6", "2.60"]),
    (Rate::R3_90, &["3.9", "3.90"]),
    (Rate::R5_20, &["5.2", "5.20"]),
    (Rate::R5_85, &["5.85"]),
    (Rate::R6_50, &["6.5", "6.50"]),
];
const RATE: Codec<Rate> =
    (|r| name(RATES, r), |s, _| named(RATES, s).map_err(|all| format!("unknown rate `{s}` ({all})")));
const BCAST: Codec<Option<Rate>> = (|r| r.as_ref().and_then(RATE.0), |s, key| (RATE.1)(s, key).map(Some));

const POLICIES: &Names<Policy> = &[
    (Policy::Na, &["na"]),
    (Policy::Ua, &["ua"]),
    (Policy::Ba, &["ba"]),
    (Policy::Dba, &["dba"]),
    (Policy::BaNoForward, &["ba-nofwd"]),
];
const POLICY: Codec<Policy> =
    (|p| name(POLICIES, p), |s, _| named(POLICIES, s).map_err(|all| format!("unknown policy `{s}` ({all})")));

const ACKS: &Names<AckPolicy> = &[(AckPolicy::Normal, &["normal"]), (AckPolicy::Block, &["block"])];
const ACK: Codec<AckPolicy> =
    (|a| name(ACKS, a), |s, key| named(ACKS, s).map_err(|all| format!("bad {key} value `{s}` ({all})")));

const ON_OFF: &Names<bool> = &[(true, &["on"]), (false, &["off"])];
const SWITCH: Codec<bool> =
    (|b| name(ON_OFF, b), |s, key| named(ON_OFF, s).map_err(|all| format!("bad {key} value `{s}` ({all})")));

const TOPO: Codec<TopologyKind> = (
    |t| {
        Some(match *t {
            TopologyKind::Linear(h) => format!("linear:{h}"),
            TopologyKind::Star => "star".into(),
            TopologyKind::Grid { w, h } => format!("grid:{w}x{h}"),
            TopologyKind::Cross => "cross".into(),
            TopologyKind::RandomMesh { nodes, area_m, seed } => format!("mesh:{nodes}:{area_m}:{seed}"),
        })
    },
    |s, _| topo_from_text(s),
);

/// Node ids are `u16` on the wire, so no topology may name more nodes.
const MAX_NODES: usize = u16::MAX as usize;

fn topo_from_text(s: &str) -> Result<TopologyKind, String> {
    // `nodes` is `None` when the count overflowed.
    let capped = |nodes: Option<usize>| match nodes {
        Some(n) if n <= MAX_NODES => Ok(()),
        _ => Err(format!("topology `{s}` has more than {MAX_NODES} nodes")),
    };
    match s.split_once(':') {
        None if s == "star" => Ok(TopologyKind::Star),
        None if s == "cross" => Ok(TopologyKind::Cross),
        Some(("linear", h)) => {
            let hops: usize = h.parse().map_err(|_| format!("bad hop count in `{s}`"))?;
            if hops == 0 {
                return Err("linear topology needs at least 1 hop".into());
            }
            capped(hops.checked_add(1))?;
            Ok(TopologyKind::Linear(hops))
        }
        Some(("grid", wh)) => {
            let (w, h) = wh.split_once('x').ok_or_else(|| format!("expected grid:WxH, got `{s}`"))?;
            let w: usize = w.parse().map_err(|_| format!("bad grid width in `{s}`"))?;
            let h: usize = h.parse().map_err(|_| format!("bad grid height in `{s}`"))?;
            if w == 0 || h == 0 || (w, h) == (1, 1) {
                return Err(format!("grid {w}x{h} has fewer than 2 nodes"));
            }
            capped(w.checked_mul(h))?;
            Ok(TopologyKind::Grid { w, h })
        }
        Some(("mesh", rest)) => {
            let [nodes, area, seed] =
                parts(rest).ok_or_else(|| format!("expected mesh:NODES:AREA:SEED, got `{s}`"))?;
            let nodes: usize = nodes.parse().map_err(|_| format!("bad mesh node count in `{s}`"))?;
            let area_m: u32 = area.parse().map_err(|_| format!("bad mesh area in `{s}`"))?;
            let seed: u64 = seed.parse().map_err(|_| format!("bad mesh seed in `{s}`"))?;
            if nodes < 2 {
                return Err("mesh topology needs at least 2 nodes".into());
            }
            if area_m == 0 {
                return Err("mesh area must be at least 1 m".into());
            }
            capped(Some(nodes))?;
            Ok(TopologyKind::RandomMesh { nodes, area_m, seed })
        }
        _ => Err(format!("unknown topology `{s}` (linear:H|star|grid:WxH|cross|mesh:NODES:AREA:SEED)")),
    }
}

const MEDIUM: Codec<MediumKind> = (
    |m| match m {
        MediumKind::SharedDomain => Some("shared".into()),
        MediumKind::Spatial { spacing_m } => Some(format!("spatial:{spacing_m:?}")),
    },
    |s, _| match s.split_once(':') {
        None if s == "shared" => Ok(MediumKind::SharedDomain),
        Some(("spatial", spacing)) => {
            Ok(MediumKind::Spatial { spacing_m: positive(f64_from_text(spacing)?, "spatial spacing")? })
        }
        _ => Err(format!("unknown medium `{s}` (shared|spatial:METRES)")),
    },
);

fn f64_from_text(s: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("bad number `{s}`"))?;
    if !v.is_finite() {
        return Err(format!("`{s}` is not finite"));
    }
    Ok(v)
}

/// A probability: a finite float in `0.0..=1.0`.
fn prob_from_text(s: &str) -> Result<f64, String> {
    let v = f64_from_text(s)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("probability `{s}` is outside 0..=1"));
    }
    Ok(v)
}

/// `v`, when it is above zero; the error names `what`.
fn positive<T: PartialOrd + Default>(v: T, what: &str) -> Result<T, String> {
    if v > T::default() {
        Ok(v)
    } else {
        Err(format!("{what} must be positive"))
    }
}

/// `s`'s `:`-separated parts, when there are exactly `N`.
fn parts<const N: usize>(s: &str) -> Option<[&str; N]> {
    let mut split = s.split(':');
    let mut parts = [""; N];
    for part in &mut parts {
        *part = split.next()?;
    }
    split.next().is_none().then_some(parts)
}

/// A datagram payload length: every UDP source and the flooder stamp a
/// 4-byte sequence number into it.
fn payload_from(s: &str, key: &str) -> Result<usize, String> {
    let payload = num(s, key)?;
    if payload < 4 {
        return Err(format!("{key} {payload} is below the 4 B sequence header"));
    }
    Ok(payload)
}

/// The canonical flow-traffic token: `tcp:BYTES`,
/// `cbr:INTERVAL:PAYLOAD`, or `onoff:BURST:IDLE:INTERVAL:PAYLOAD` (as
/// used after the port in a `flow=` field, as a window-traffic
/// `traffic=` value, and in the result cache's flow labels).
impl fmt::Display for FlowTraffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FlowTraffic::FileTransfer { bytes } => write!(f, "tcp:{bytes}"),
            FlowTraffic::Cbr { interval, payload } => write!(f, "cbr:{}:{payload}", DurText(interval)),
            FlowTraffic::OnOff { burst, idle, interval, payload } => {
                write!(f, "onoff:{burst}:{}:{}:{payload}", DurText(idle), DurText(interval))
            }
        }
    }
}

impl FlowTraffic {
    /// Parses a flow-traffic token (`file:` is accepted as an alias of
    /// `tcp:`, matching the `traffic=` spelling).
    pub fn from_token(s: &str) -> Result<FlowTraffic, String> {
        traffic_from_text(s, false)
    }
}

const TRAFFIC: Codec<FlowTraffic> = (
    // `file:` is the canonical `traffic=` spelling of `tcp:`.
    |t| match t {
        FlowTraffic::FileTransfer { bytes } => Some(format!("file:{bytes}")),
        window => Some(window.to_string()),
    },
    |s, _| traffic_from_text(s, true),
);

/// Parses a flow-traffic token: a `flow=` field's, or with `global` set
/// the `traffic=` key's. One grammar; `global` only picks the words of
/// the errors, which each key has kept since before they shared it.
fn traffic_from_text(s: &str, global: bool) -> Result<FlowTraffic, String> {
    let (key, bytes_key, cbr_payload, onoff_payload) = if global {
        ("traffic=", "traffic file bytes", "cbr payload", "onoff payload")
    } else {
        ("", "flow tcp bytes", "flow payload", "flow payload")
    };
    if let Some(bytes) = s.strip_prefix("file:").or_else(|| s.strip_prefix("tcp:")) {
        return Ok(FlowTraffic::FileTransfer { bytes: num(bytes, bytes_key)? });
    }
    if let Some(rest) = s.strip_prefix("cbr:") {
        let (interval, payload) =
            rest.split_once(':').ok_or_else(|| format!("expected {key}cbr:INTERVAL:PAYLOAD, got `{s}`"))?;
        let interval = positive(dur_from_text(interval)?, "cbr interval")?;
        return Ok(FlowTraffic::Cbr { interval, payload: payload_from(payload, cbr_payload)? });
    }
    if let Some(rest) = s.strip_prefix("onoff:") {
        let [burst, idle, interval, payload] = parts(rest)
            .ok_or_else(|| format!("expected {key}onoff:BURST:IDLE:INTERVAL:PAYLOAD, got `{s}`"))?;
        let burst = num(burst, "onoff burst")?;
        if burst == 0 {
            return Err("onoff burst must be at least 1 packet".into());
        }
        let (idle, interval) = (dur_from_text(idle)?, dur_from_text(interval)?);
        if idle.is_zero() || interval.is_zero() {
            return Err("onoff idle and interval must be positive".into());
        }
        let payload = payload_from(payload, onoff_payload)?;
        return Ok(FlowTraffic::OnOff { burst, idle, interval, payload });
    }
    Err(format!(
        "unknown {} `{s}` (file:BYTES|tcp:BYTES|cbr:INTERVAL:PAYLOAD|onoff:BURST:IDLE:INTERVAL:PAYLOAD)",
        if global { "traffic" } else { "flow traffic" }
    ))
}

/// `sizing=none` spells the default (no override: a fixed cap of
/// `max_agg`), so it is never written.
const SIZING: Codec<Option<AggSizing>> = (
    |sizing| match sizing.as_ref()? {
        AggSizing::Fixed(b) => Some(format!("fixed:{b}")),
        AggSizing::CoherenceBudget(samples) => Some(format!("budget:{samples}")),
    },
    |s, _| match s.split_once(':') {
        None if s == "none" => Ok(None),
        Some(("fixed", b)) => Ok(Some(AggSizing::Fixed(num(b, "sizing fixed bytes")?))),
        Some(("budget", n)) => Ok(Some(AggSizing::CoherenceBudget(num(n, "sizing budget samples")?))),
        _ => Err(format!("unknown sizing `{s}` (none|fixed:BYTES|budget:SAMPLES)")),
    },
);

const FAULT: Codec<Option<(f64, f64)>> = (
    |fault| fault.map(|(drop, corrupt)| format!("{drop:?}:{corrupt:?}")),
    |s, _| {
        let (drop, corrupt) =
            s.split_once(':').ok_or_else(|| format!("expected fault=DROP:CORRUPT, got `{s}`"))?;
        Ok(Some((prob_from_text(drop)?, prob_from_text(corrupt)?)))
    },
);

const FLOOD: Codec<Option<Flooding>> = (
    |flood| flood.map(|f| format!("{}:{}", DurText(f.interval), f.payload)),
    |s, _| {
        let (interval, payload) =
            s.split_once(':').ok_or_else(|| format!("expected flood=INTERVAL:PAYLOAD, got `{s}`"))?;
        let interval = positive(dur_from_text(interval)?, "flood interval")?;
        Ok(Some(Flooding { interval, payload: payload_from(payload, "flood payload")? }))
    },
);

/// A clause list's text: the present clauses, comma-joined, or `None`
/// when there are none (an inert value, with no spelling).
fn clause_text<const N: usize>(clauses: [Option<String>; N]) -> Option<String> {
    let clauses: Vec<String> = clauses.into_iter().flatten().collect();
    (!clauses.is_empty()).then(|| clauses.join(","))
}

/// Reads a comma-separated clause list (`link_error=`, `budget=`): each
/// clause starts with one of `known`'s prefixes, and `read` gets that
/// prefix's index and the rest of the clause. Each prefix may appear at
/// most once; prefixes that come with the same error share one slot, and
/// a second clause in it gets that error.
fn read_clauses(
    s: &str,
    key: &str,
    hint: &str,
    known: &[(&str, Option<&str>)],
    mut read: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<(), String> {
    let mut filled = 0u32;
    for clause in s.split(',') {
        let found =
            known.iter().enumerate().find_map(|(i, (prefix, _))| Some((i, clause.strip_prefix(prefix)?)));
        let (i, rest) = found.ok_or_else(|| format!("unknown {key} clause `{clause}` ({hint})"))?;
        let (prefix, shared) = known[i];
        let slot = 1 << known.iter().position(|k| shared.is_some() && k.1 == shared).unwrap_or(i);
        if filled & slot != 0 {
            return Err(shared.map_or_else(|| format!("duplicate {key} clause `{prefix}`"), String::from));
        }
        filled |= slot;
        read(i, rest)?;
    }
    Ok(())
}

/// `link_error=`: at most one error model clause, `ber:B` or
/// `ge:P_GB:P_BG:BER_GOOD:BER_BAD`, then `dup:P` and `reorder:P`; every
/// value a probability.
const LINK_ERROR: Codec<Option<LinkErrorSpec>> = (
    |le| {
        let le = le.as_ref()?;
        clause_text([
            le.model.map(|model| match model {
                LinkErrorModel::Independent { ber } => format!("ber:{ber:?}"),
                LinkErrorModel::GilbertElliott { p_gb, p_bg, ber_good, ber_bad } => {
                    format!("ge:{p_gb:?}:{p_bg:?}:{ber_good:?}:{ber_bad:?}")
                }
            }),
            (le.dup > 0.0).then(|| format!("dup:{:?}", le.dup)),
            (le.reorder > 0.0).then(|| format!("reorder:{:?}", le.reorder)),
        ])
    },
    |s, key| {
        let model = Some("link_error allows at most one error model clause (ber:|ge:)");
        let known = [("ber:", model), ("ge:", model), ("dup:", None), ("reorder:", None)];
        let mut le = LinkErrorSpec { model: None, dup: 0.0, reorder: 0.0 };
        read_clauses(s, key, "ber:|ge:|dup:|reorder:", &known, |i, v| {
            match i {
                0 => le.model = Some(LinkErrorModel::Independent { ber: prob_from_text(v)? }),
                1 => {
                    let probs = parts(v)
                        .ok_or_else(|| format!("expected ge:P_GB:P_BG:BER_GOOD:BER_BAD, got `ge:{v}`"));
                    let [p_gb, p_bg, ber_good, ber_bad] = probs?.map(prob_from_text);
                    let (p_gb, p_bg, ber_good, ber_bad) = (p_gb?, p_bg?, ber_good?, ber_bad?);
                    le.model = Some(LinkErrorModel::GilbertElliott { p_gb, p_bg, ber_good, ber_bad });
                }
                2 => le.dup = prob_from_text(v)?,
                _ => le.reorder = prob_from_text(v)?,
            }
            Ok(())
        })?;
        Ok(Some(le))
    },
);

/// `budget=`: `events:N` (max dispatched events), then `wall:DURATION`
/// (max wall-clock run time), both positive.
const BUDGET: Codec<Option<RunBudget>> = (
    |budget| {
        let b = budget.as_ref()?;
        clause_text([
            b.max_events.map(|events| format!("events:{events}")),
            b.max_wall.map(|wall| format!("wall:{}", DurText(wall))),
        ])
    },
    |s, key| {
        let known = [("events:", None), ("wall:", None)];
        let mut budget = RunBudget { max_events: None, max_wall: None };
        read_clauses(s, key, "events:N|wall:DURATION", &known, |i, v| {
            match i {
                0 => budget.max_events = Some(positive(num(v, "budget events")?, "budget events")?),
                _ => budget.max_wall = Some(positive(dur_from_text(v)?, "budget wall time")?),
            }
            Ok(())
        })?;
        Ok(Some(budget))
    },
);

/// One flow: a `flow=` value, `SRC>DST:PORT:TRAFFIC`, or with `shared`
/// a `flows=` entry, `SRC>DST:PORT`, carrying `shared`.
fn flow_from(s: &str, shared: Option<FlowTraffic>) -> Result<FlowSpec, String> {
    let form = if shared.is_some() { "SRC>DST:PORT" } else { "SRC>DST:PORT:TRAFFIC" };
    let bad = || format!("expected {form}, got `{s}`");
    let (src, rest) = s.split_once('>').ok_or_else(bad)?;
    let (dst, rest) = rest.split_once(':').ok_or_else(bad)?;
    let (port, token) = if shared.is_some() { (rest, "") } else { rest.split_once(':').ok_or_else(bad)? };
    Ok(FlowSpec {
        src: num(src, "flow src")?,
        dst: num(dst, "flow dst")?,
        port: port.parse().map_err(|_| format!("bad flow port `{port}`"))?,
        traffic: match shared {
            Some(traffic) => traffic,
            None => FlowTraffic::from_token(token)?,
        },
    })
}

/// Writes `flows=` (without `own`) when every flow carries the line's
/// `traffic`, one `flow=` per flow (with `own`) otherwise: a `flow=`
/// line whose flows all carry it is the same value.
fn flows_text(spec: &ScenarioSpec, own: bool, line: &mut String) {
    if spec.flows.is_empty() || spec.flows.iter().all(|f| f.traffic == spec.traffic) == own {
        return;
    }
    for (i, f) in spec.flows.iter().enumerate() {
        let written = match (own, i) {
            (true, _) => write!(field(line, "flow"), "{}>{}:{}:{}", f.src, f.dst, f.port, f.traffic),
            (false, 0) => write!(field(line, "flows"), "{}>{}:{}", f.src, f.dst, f.port),
            (false, _) => write!(line, ",{}>{}:{}", f.src, f.dst, f.port),
        };
        written.expect("writing to a String cannot fail");
    }
}

/// Starts the field `key=` on a `.scn` line being written, one space
/// after the previous field, and returns the line to write its value on.
fn field<'a>(line: &'a mut String, key: &str) -> &'a mut String {
    if !line.is_empty() {
        line.push(' ');
    }
    line.push_str(key);
    line.push('=');
    line
}

// ---------------------------------------------------------------------
// The key table
// ---------------------------------------------------------------------

/// How often a key may appear on a spec line.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Exactly once, and always written.
    Required,
    /// At most once.
    Optional,
    /// Any number of times, each adding one value.
    Repeatable,
}

/// One `.scn` key and the spec field it sets.
struct Key {
    key: &'static str,
    kind: Kind,
    /// Writes the field's canonical `key=value` fields onto a line (see
    /// [`field`]), none when it equals the second spec's (the
    /// traffic-matched base) or is inert.
    text: fn(&ScenarioSpec, &ScenarioSpec, &mut String),
    /// Parses a value into the field.
    set: fn(&mut ScenarioSpec, &str) -> Result<(), String>,
}

/// One [`KEYS`] row from `KIND "key" => field.path: CODEC`.
macro_rules! key {
    ($kind:ident $key:literal => $($field:ident).+ : $codec:ident) => {
        Key {
            key: $key,
            kind: Kind::$kind,
            text: |spec, base, line| match Kind::$kind {
                Kind::Optional if spec.$($field).+ == base.$($field).+ => {}
                _ => {
                    if let Some(text) = ($codec.0)(&spec.$($field).+) {
                        field(line, $key).push_str(&text);
                    }
                }
            },
            set: |spec, value| ($codec.1)(value, $key).map(|v| spec.$($field).+ = v),
        }
    };
}

/// Every `.scn` key, in canonical order, the required ones first:
/// [`ScenarioSpec::to_scn`] writes each row's text, and a line's fields
/// are parsed by their rows. `docs/SCENARIO_FORMAT.md`'s key tables list
/// the same keys, in order.
static KEYS: [Key; 32] = [
    key!(Required "topo" => topology: TOPO),
    key!(Required "policy" => policy: POLICY),
    key!(Required "rate" => rate: RATE),
    key!(Required "traffic" => traffic: TRAFFIC),
    key!(Optional "medium" => medium: MEDIUM),
    key!(Optional "bcast" => broadcast_rate: BCAST),
    Key {
        key: "flows",
        kind: Kind::Optional,
        text: |spec, _, line| flows_text(spec, false, line),
        set: |spec, value| {
            let flows = value.split(',').map(|flow| flow_from(flow, Some(spec.traffic)));
            flows.collect::<Result<_, _>>().map(|flows| spec.flows = flows)
        },
    },
    Key {
        key: "flow",
        kind: Kind::Repeatable,
        text: |spec, _, line| flows_text(spec, true, line),
        set: |spec, value| flow_from(value, None).map(|flow| spec.flows.push(flow)),
    },
    key!(Optional "max_agg" => max_aggregate: BYTES),
    key!(Optional "sizing" => sizing: SIZING),
    key!(Optional "ack" => ack_policy: ACK),
    key!(Optional "rts" => rts_cts: SWITCH),
    key!(Optional "flush" => flush_timeout: FLUSH),
    key!(Optional "tcp_mss" => tcp.mss: BYTES),
    key!(Optional "tcp_recv_buf" => tcp.recv_buffer: BYTES),
    key!(Optional "tcp_send_buf" => tcp.send_buffer: BYTES),
    key!(Optional "tcp_init_cwnd" => tcp.initial_cwnd_segments: COUNT),
    key!(Optional "tcp_ssthresh" => tcp.initial_ssthresh: COUNT),
    key!(Optional "tcp_rto_init" => tcp.rto_initial: DUR),
    key!(Optional "tcp_rto_min" => tcp.rto_min: DUR),
    key!(Optional "tcp_rto_max" => tcp.rto_max: DUR),
    key!(Optional "tcp_delayed_ack" => tcp.delayed_ack: SWITCH),
    key!(Optional "tcp_da_timeout" => tcp.delayed_ack_timeout: DUR),
    key!(Optional "tcp_max_retx" => tcp.max_retransmits: COUNT),
    key!(Optional "tcp_time_wait" => tcp.time_wait: DUR),
    key!(Optional "fault" => fault: FAULT),
    key!(Optional "link_error" => link_error: LINK_ERROR),
    key!(Optional "flood" => flooding: FLOOD),
    key!(Optional "budget" => budget: BUDGET),
    key!(Optional "warmup" => warmup: DUR),
    key!(Optional "duration" => duration: DUR),
    key!(Optional "seed" => seed: SEED),
];

/// The row of `key`. Shared by [`ScenarioSpec::from_scn`] and
/// [`Selector`]: a selector field means what the line field means.
fn row(key: &str) -> Result<&'static Key, String> {
    // Byte by byte: `==` calls the C library's `bcmp` for every row of
    // the same length, and a large mesh line looks up `flow` hundreds of
    // times.
    KEYS.iter()
        .find(|row| row.key.len() == key.len() && row.key.bytes().eq(key.bytes()))
        .ok_or_else(|| format!("unknown key `{key}` (see docs/SCENARIO_FORMAT.md)"))
}

/// The traffic-matched constructor, carrying `traffic`: it supplies
/// every default (notably window traffic's 2 s warmup / 20 s window vs
/// the file transfer's 300 s deadline).
fn traffic_base(topo: TopologyKind, policy: Policy, rate: Rate, traffic: FlowTraffic) -> ScenarioSpec {
    let base = if traffic.is_file() {
        ScenarioSpec::tcp(topo, policy, rate)
    } else {
        ScenarioSpec::udp(topo, policy, rate, Duration::ZERO)
    };
    ScenarioSpec { traffic, ..base }
}

impl ScenarioSpec {
    /// Renders this spec as one canonical `.scn` line (no newline).
    ///
    /// Keys appear in a fixed order and defaulted fields are omitted, so
    /// equal specs always render identically and `to_scn` output is the
    /// canonical form `from_scn` round-trips to.
    pub fn to_scn(&self) -> String {
        // The baseline the line's overrides are measured against.
        let base = traffic_base(self.topology, self.policy, self.rate, self.traffic);
        let mut line = String::new();
        for row in &KEYS {
            (row.text)(self, &base, &mut line);
        }
        line
    }

    /// Parses one `.scn` line (strict: unknown keys, duplicate keys, or
    /// missing required keys are errors). The repeatable key, `flow=`,
    /// adds one flow per occurrence, in line order.
    pub fn from_scn(line: &str) -> Result<ScenarioSpec, String> {
        let mut fields: Vec<(&str, &str, Option<&Key>)> = Vec::new();
        for tok in line.split_whitespace() {
            let (k, v) = tok.split_once('=').ok_or_else(|| format!("`{tok}` is not key=value"))?;
            if v.is_empty() {
                return Err(format!("key `{k}` has an empty value"));
            }
            let row = row(k).ok();
            let repeatable = row.is_some_and(|row| row.kind == Kind::Repeatable);
            if !repeatable && fields.iter().any(|(seen, ..)| *seen == k) {
                return Err(format!("duplicate key `{k}`"));
            }
            fields.push((k, v, row));
        }
        // The required fields pick the base the others override.
        let mut spec = ScenarioSpec::tcp(TopologyKind::Star, Policy::Na, Rate::R1_30);
        for row in KEYS.iter().take_while(|row| row.kind == Kind::Required) {
            let field = fields.iter().find(|(.., known)| known.is_some_and(|known| std::ptr::eq(known, row)));
            let value = field.map(|(_, value, _)| *value);
            (row.set)(&mut spec, value.ok_or_else(|| format!("missing required key `{}`", row.key))?)?;
        }
        let mut spec = traffic_base(spec.topology, spec.policy, spec.rate, spec.traffic);
        for &(key, value, known) in &fields {
            let row = known.map_or_else(|| row(key), Ok)?;
            if key == "flows" && fields.iter().any(|(k, ..)| *k == "flow") {
                return Err("`flows=` (shared traffic) and `flow=` (per-flow traffic) \
                            cannot be mixed on one line"
                    .into());
            }
            if row.kind != Kind::Required {
                (row.set)(&mut spec, value)?;
            }
        }

        let n = spec.topology.node_count();
        // The first flow, in line order, whose port an earlier flow holds:
        // sorted by (port, position), the second of a run of equal ports.
        let mut ports: Vec<(u16, usize)> =
            spec.flows.iter().enumerate().map(|(i, fl)| (fl.port, i)).collect();
        ports.sort_unstable();
        let duplicate = ports.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| w[1].1).min();
        for (i, fl) in spec.flows.iter().enumerate() {
            if fl.src >= n || fl.dst >= n {
                return Err(format!("flow {}>{} out of range for {n}-node topology", fl.src, fl.dst));
            }
            if fl.src == fl.dst {
                return Err(format!("flow {}>{} has equal endpoints", fl.src, fl.dst));
            }
            if duplicate == Some(i) {
                return Err(format!("duplicate flow port {}", fl.port));
            }
        }
        // What `Mac::new` would panic on inside `build()` (the checked
        // settings do not depend on the node), and the clock `build()`
        // stops, 1 s past the horizon.
        spec.mac_config(0, &[]).validate()?;
        let stop = spec.warmup.checked_add(spec.duration).and_then(|h| h.checked_add(Duration::from_secs(1)));
        stop.ok_or("the run horizon, warmup + duration + 1s, overflows the clock")?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_sim::Duration;

    fn roundtrip(spec: &ScenarioSpec) {
        let line = spec.to_scn();
        let back = ScenarioSpec::from_scn(&line).unwrap_or_else(|e| panic!("parse `{line}`: {e}"));
        assert_eq!(&back, spec, "value round-trip through `{line}`");
        assert_eq!(back.to_scn(), line, "canonical re-serialization of `{line}`");
        assert_eq!(back.stable_hash(), spec.stable_hash(), "stable_hash through `{line}`");
    }

    #[test]
    fn default_tcp_spec_is_four_keys() {
        let spec = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        assert_eq!(spec.to_scn(), "topo=linear:2 policy=ba rate=1.3 traffic=file:204800");
        roundtrip(&spec);
    }

    #[test]
    fn every_field_round_trips() {
        let mut spec = ScenarioSpec::udp(
            TopologyKind::Grid { w: 3, h: 2 },
            Policy::Dba,
            Rate::R2_60,
            Duration::from_micros(17_400),
        );
        spec.medium = MediumKind::Spatial { spacing_m: 7.25 };
        spec.broadcast_rate = Some(Rate::R0_65);
        spec = spec.clone().with_flow_specs(vec![
            FlowSpec { src: 0, dst: 5, port: 9000, traffic: spec.traffic },
            FlowSpec { src: 5, dst: 0, port: 9001, traffic: spec.traffic },
        ]);
        spec.max_aggregate = 11 * 1024;
        spec.sizing = Some(AggSizing::CoherenceBudget(110_000));
        spec.ack_policy = AckPolicy::Block;
        spec.rts_cts = false;
        spec.flush_timeout = Some(Duration::from_millis(5));
        spec.tcp.delayed_ack = true;
        spec.tcp.send_buffer = 32 * 1024;
        spec.fault = Some((0.01, 0.125));
        spec.link_error = Some(LinkErrorSpec {
            model: Some(LinkErrorModel::GilbertElliott {
                p_gb: 0.05,
                p_bg: 0.45,
                ber_good: 0.001,
                ber_bad: 0.3,
            }),
            dup: 0.02,
            reorder: 0.01,
        });
        spec.flooding = Some(Flooding { interval: Duration::from_millis(250), payload: 120 });
        spec.budget =
            Some(RunBudget { max_events: Some(2_000_000), max_wall: Some(Duration::from_secs(30)) });
        spec.warmup = Duration::from_millis(500);
        spec.duration = Duration::from_secs(5);
        spec.seed = 42;
        roundtrip(&spec);
        // Fixed sizing and odd durations too.
        spec.sizing = Some(AggSizing::Fixed(4096));
        spec.duration = Duration::from_nanos(1_234_567);
        roundtrip(&spec);
    }

    #[test]
    fn every_key_round_trips_and_is_documented() {
        // One non-default value per row of the table, in its order.
        let values = [
            ("topo", "grid:3x2"),
            ("policy", "dba"),
            ("rate", "2.6"),
            ("traffic", "cbr:20ms:160"),
            ("medium", "spatial:7.25"),
            ("bcast", "0.65"),
            ("flows", "2>0:5001"),
            ("flow", "0>2:9000:cbr:10ms:160"),
            ("max_agg", "11264"),
            ("sizing", "budget:110000"),
            ("ack", "block"),
            ("rts", "off"),
            ("flush", "5ms"),
            ("tcp_mss", "1000"),
            ("tcp_recv_buf", "32768"),
            ("tcp_send_buf", "8192"),
            ("tcp_init_cwnd", "4"),
            ("tcp_ssthresh", "65535"),
            ("tcp_rto_init", "3s"),
            ("tcp_rto_min", "1ms"),
            ("tcp_rto_max", "120s"),
            ("tcp_delayed_ack", "on"),
            ("tcp_da_timeout", "100ms"),
            ("tcp_max_retx", "5"),
            ("tcp_time_wait", "2500us"),
            ("fault", "0.01:0.125"),
            ("link_error", "ge:0.05:0.45:0.001:0.3,dup:0.02,reorder:0.01"),
            ("flood", "250ms:120"),
            ("budget", "events:2000000,wall:30s"),
            ("warmup", "500ms"),
            ("duration", "5s"),
            ("seed", "42"),
        ];
        assert_eq!(KEYS.iter().map(|k| k.key).collect::<Vec<_>>(), values.map(|(key, _)| key));
        let required = ["topo=linear:2", "policy=ba", "rate=1.3", "traffic=file:204800"];
        let base = ScenarioSpec::from_scn(&required.join(" ")).unwrap();
        for (key, value) in values {
            // A required key's value replaces the base line's.
            let mut fields = required.map(String::from).to_vec();
            match fields.iter_mut().find(|f| f.starts_with(&format!("{key}="))) {
                Some(field) => *field = format!("{key}={value}"),
                None => fields.push(format!("{key}={value}")),
            }
            let line = fields.join(" ");
            let spec = ScenarioSpec::from_scn(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_ne!(spec, base, "{key}={value} is the default");
            assert_eq!(spec.to_scn(), line);
            roundtrip(&spec);
        }
        // Every optional key at once (`flow=` cannot join `flows=`),
        // written back in the table's order.
        let optional: Vec<String> = values[4..]
            .iter()
            .filter(|(key, _)| *key != "flow")
            .map(|(key, value)| format!("{key}={value}"))
            .collect();
        let line = format!("{} {}", required.join(" "), optional.join(" "));
        let reversed: Vec<&str> = optional.iter().rev().map(String::as_str).collect();
        let spec = ScenarioSpec::from_scn(&format!("{} {}", required.join(" "), reversed.join(" "))).unwrap();
        assert_eq!(spec.to_scn(), line);
        roundtrip(&spec);
        let base = required.join(" ");
        assert_eq!(
            ScenarioSpec::from_scn(&format!("{base} tcp_mss=x")).unwrap_err(),
            "bad tcp_mss value `x`"
        );
        assert_eq!(
            ScenarioSpec::from_scn(&format!("{base} tcp_nope=1")).unwrap_err(),
            "unknown key `tcp_nope` (see docs/SCENARIO_FORMAT.md)"
        );
        // The format reference's Required, Optional and TCP tables list
        // exactly these keys, in this order.
        let doc = include_str!("../../../docs/SCENARIO_FORMAT.md");
        let table = |heading: &str| -> Vec<&str> {
            let at = doc.find(heading).unwrap_or_else(|| panic!("no `{heading}` in the format reference"));
            let rows =
                doc[at..].lines().skip_while(|l| !l.starts_with('|')).take_while(|l| l.starts_with('|'));
            rows.filter_map(|l| l.strip_prefix("| `")?.split('`').next()).collect()
        };
        let keys = |tcp: bool, kind: fn(Kind) -> bool| -> Vec<&str> {
            KEYS.iter().filter(|k| k.key.starts_with("tcp_") == tcp && kind(k.kind)).map(|k| k.key).collect()
        };
        assert_eq!(table("\nRequired"), keys(false, |kind| kind == Kind::Required));
        assert_eq!(table("\nOptional"), keys(false, |kind| kind != Kind::Required));
        assert_eq!(table("\nTCP overrides"), keys(true, |_| true));
    }

    #[test]
    fn durations_use_the_largest_exact_unit() {
        assert_eq!(DurText(Duration::ZERO).to_string(), "0s");
        assert_eq!(DurText(Duration::from_secs(20)).to_string(), "20s");
        assert_eq!(DurText(Duration::from_micros(17_400)).to_string(), "17400us");
        assert_eq!(DurText(Duration::from_millis(4)).to_string(), "4ms");
        assert_eq!(DurText(Duration::from_nanos(1_000_000_001)).to_string(), "1000000001ns");
        for text in ["0s", "20s", "17400us", "4ms", "999ns"] {
            assert_eq!(DurText(dur_from_text(text).unwrap()).to_string(), text);
        }
        assert!(dur_from_text("12").is_err(), "unit suffix required");
        assert!(dur_from_text("12m").is_err());
    }

    #[test]
    fn parser_is_strict() {
        let ok = "topo=linear:2 policy=ba rate=1.3 traffic=file:204800";
        assert!(ScenarioSpec::from_scn(ok).is_ok());
        for (broken, why) in [
            ("topo=linear:2 policy=ba rate=1.3", "missing traffic"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=file:204800 bogus=1", "unknown key"),
            ("topo=linear:2 policy=ba policy=ua rate=1.3 traffic=file:1", "duplicate key"),
            ("topo=linear:2 policy=ba rate=9.9 traffic=file:1", "unknown rate"),
            ("topo=linear:0 policy=ba rate=1.3 traffic=file:1", "zero hops"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=file:1 flows=0>9:1", "flow out of range"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=cbr:0s:100", "zero interval"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=file:1 medium=spatial:-1.0", "bad spacing"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=file:1 fault=10:0", "probability > 1"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=file:1 fault=-0.1:0", "negative probability"),
            ("topo=star policy=ba rate=1.3 traffic=file:1 flows=2>0:5001,3>0:5001", "duplicate flow port"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=file:1 budget=events:0", "zero event budget"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=file:1 budget=wall:0s", "zero wall budget"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=file:1 budget=events:5,events:6", "dup clause"),
            ("topo=linear:2 policy=ba rate=1.3 traffic=file:1 budget=fuel:5", "unknown budget clause"),
            ("notakv", "not key=value"),
        ] {
            assert!(ScenarioSpec::from_scn(broken).is_err(), "{why}: `{broken}`");
        }
    }

    #[test]
    fn budget_round_trips_and_the_inert_form_is_omitted() {
        let base = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        let mut spec = base.clone();
        spec.budget = Some(RunBudget::events(1_500_000));
        assert!(spec.to_scn().ends_with("budget=events:1500000"), "{}", spec.to_scn());
        roundtrip(&spec);
        spec.budget = Some(RunBudget { max_events: None, max_wall: Some(Duration::from_millis(750)) });
        assert!(spec.to_scn().ends_with("budget=wall:750ms"), "{}", spec.to_scn());
        roundtrip(&spec);
        spec.budget = Some(RunBudget { max_events: Some(9_000_000), max_wall: Some(Duration::from_secs(2)) });
        assert!(spec.to_scn().ends_with("budget=events:9000000,wall:2s"), "{}", spec.to_scn());
        roundtrip(&spec);
        // An inert budget (no limits) renders identically to no budget —
        // the one corner where `to_scn` canonicalises a value away
        // (same accepted divergence as an all-default link_error).
        spec.budget = Some(RunBudget { max_events: None, max_wall: None });
        assert_eq!(spec.to_scn(), base.to_scn());
    }

    #[test]
    fn link_error_round_trips() {
        let base = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        // Independent BER only.
        let mut spec = base.clone();
        spec.link_error = Some(LinkErrorSpec::model(LinkErrorModel::Independent { ber: 0.02 }));
        assert!(spec.to_scn().ends_with("link_error=ber:0.02"), "{}", spec.to_scn());
        roundtrip(&spec);
        // Bursty Gilbert–Elliott with dup and reorder knobs.
        spec.link_error = Some(LinkErrorSpec {
            model: Some(LinkErrorModel::GilbertElliott {
                p_gb: 0.05,
                p_bg: 0.45,
                ber_good: 0.0,
                ber_bad: 0.2,
            }),
            dup: 0.1,
            reorder: 0.05,
        });
        assert!(
            spec.to_scn().ends_with("link_error=ge:0.05:0.45:0.0:0.2,dup:0.1,reorder:0.05"),
            "{}",
            spec.to_scn()
        );
        roundtrip(&spec);
        // Knobs without an error model.
        spec.link_error = Some(LinkErrorSpec { model: None, dup: 0.25, reorder: 0.0 });
        assert!(spec.to_scn().ends_with("link_error=dup:0.25"), "{}", spec.to_scn());
        roundtrip(&spec);
        // Absent key stays absent: the base line has no link_error.
        assert!(!base.to_scn().contains("link_error"), "{}", base.to_scn());
        for (value, why) in [
            ("ber:1.5", "probability > 1"),
            ("ber:0.1,ge:0.1:0.1:0.0:0.5", "two model clauses"),
            ("ge:0.1:0.1:0.0", "ge with too few fields"),
            ("dup:0.1,dup:0.2", "duplicate dup clause"),
            ("reorder:0.1,reorder:0.2", "duplicate reorder clause"),
            ("burst:0.1", "unknown clause"),
            ("ge:0.1:-0.1:0.0:0.5", "negative probability"),
        ] {
            let line = format!("topo=linear:2 policy=ba rate=1.3 traffic=file:1 link_error={value}");
            assert!(ScenarioSpec::from_scn(&line).is_err(), "{why}: `{line}`");
        }
    }

    #[test]
    fn mesh_topology_round_trips() {
        let spec = ScenarioSpec::tcp(
            TopologyKind::RandomMesh { nodes: 100, area_m: 60, seed: 11 },
            Policy::Ba,
            Rate::R1_30,
        )
        .spatial(1.0);
        let line = spec.to_scn();
        assert!(line.starts_with("topo=mesh:100:60:11 "), "{line}");
        assert!(line.contains("medium=spatial:1.0"), "{line}");
        roundtrip(&spec);
        for (bad, why) in [
            ("mesh:100:60", "missing seed"),
            ("mesh:1:60:1", "one node"),
            ("mesh:100:0:1", "zero area"),
            ("mesh:x:60:1", "bad node count"),
            ("mesh:100:60:1:9", "extra field"),
        ] {
            let line = format!("topo={bad} policy=ba rate=1.3 traffic=file:204800");
            assert!(ScenarioSpec::from_scn(&line).is_err(), "{why}: `{line}`");
        }
    }

    #[test]
    fn file_parse_reports_line_numbers() {
        let text = "# a sweep\n\ntopo=linear:2 policy=ba rate=1.3 traffic=file:204800\ntopo=star policy=zz rate=1.3 traffic=file:1\n";
        let err = parse_scn(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("unknown policy"), "{err}");
        assert!(err.to_string().starts_with("line 4:"));

        let specs = parse_scn("# only comments\n\n").unwrap();
        assert!(specs.is_empty());
    }

    #[test]
    fn per_flow_traffic_round_trips() {
        // A TCP foreground + CBR background + on/off chatter in one
        // spec: serializes as repeated `flow=` fields, parses back to
        // the same value, and keeps its hash.
        let mut spec = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        spec.warmup = Duration::from_secs(1);
        spec.duration = Duration::from_secs(20);
        spec.flows = vec![
            FlowSpec { src: 0, dst: 2, port: 5001, traffic: FlowTraffic::FileTransfer { bytes: 204800 } },
            FlowSpec {
                src: 0,
                dst: 2,
                port: 9000,
                traffic: FlowTraffic::Cbr { interval: Duration::from_millis(10), payload: 160 },
            },
            FlowSpec {
                src: 2,
                dst: 0,
                port: 9001,
                traffic: FlowTraffic::OnOff {
                    burst: 5,
                    idle: Duration::from_millis(40),
                    interval: Duration::from_millis(2),
                    payload: 120,
                },
            },
        ];
        let line = spec.to_scn();
        assert!(
            line.contains("flow=0>2:5001:tcp:204800")
                && line.contains("flow=0>2:9000:cbr:10ms:160")
                && line.contains("flow=2>0:9001:onoff:5:40ms:2ms:120"),
            "{line}"
        );
        assert!(!line.contains("flows="), "mixed specs use flow= fields only: {line}");
        roundtrip(&spec);
        // Same endpoints, legacy homogeneous traffic: a different cell.
        let mut legacy = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        legacy.flows = vec![FlowSpec { src: 0, dst: 2, port: 5001, traffic: legacy.traffic }];
        assert_ne!(spec.stable_hash(), legacy.stable_hash());
    }

    #[test]
    fn uniform_flow_lines_canonicalise_to_the_legacy_form() {
        // flow= fields whose traffic all equals the line's `traffic=`
        // parse to the same value as the legacy flows= spelling — and
        // therefore the same stable hash and cache cells.
        let legacy = "topo=star policy=ba rate=1.3 traffic=file:204800 flows=2>0:5001,3>0:5002";
        let perflow =
            "topo=star policy=ba rate=1.3 traffic=file:204800 flow=2>0:5001:tcp:204800 flow=3>0:5002:tcp:204800";
        let a = ScenarioSpec::from_scn(legacy).unwrap();
        let b = ScenarioSpec::from_scn(perflow).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.stable_hash(), b.stable_hash());
        assert_eq!(b.to_scn(), legacy, "canonical form is the compact legacy spelling");
    }

    #[test]
    fn a_duplicate_port_names_the_first_flow_that_repeats_one() {
        let base = "topo=linear:2 policy=ba rate=1.3 traffic=file:204800";
        let line = |ports: &[u16]| {
            let flows: String = ports.iter().map(|p| format!(" flow=0>2:{p}:tcp:1000")).collect();
            ScenarioSpec::from_scn(&format!("{base}{flows}"))
        };
        // 300 flows whose only repeat is the last one's.
        let mut ports: Vec<u16> = (5000..5299).collect();
        ports.push(5123);
        assert_eq!(line(&ports).unwrap_err(), "duplicate flow port 5123");
        ports.pop();
        assert_eq!(line(&ports).map(|spec| spec.flows.len()), Ok(299));
        // The first in line order, not the first port repeated, nor the
        // smallest: flow 3 repeats flow 2's port before flow 4 repeats
        // flow 0's.
        assert_eq!(line(&[9, 8, 7, 7, 9, 9]).unwrap_err(), "duplicate flow port 7");
        // Per flow, the range and endpoint checks come first.
        let bad_range = format!("{base} flow=0>2:7:tcp:1 flow=0>9:8:tcp:1 flow=0>2:7:tcp:1");
        assert_eq!(
            ScenarioSpec::from_scn(&bad_range).unwrap_err(),
            "flow 0>9 out of range for 3-node topology"
        );
        let late_range = format!("{base} flow=0>2:7:tcp:1 flow=0>2:7:tcp:1 flow=0>9:8:tcp:1");
        assert_eq!(ScenarioSpec::from_scn(&late_range).unwrap_err(), "duplicate flow port 7");
    }

    #[test]
    fn flow_lines_are_validated() {
        let base = "topo=linear:2 policy=ba rate=1.3 traffic=file:204800";
        for (tail, why) in [
            ("flow=0>2:5001:tcp:1000 flows=0>2:9000", "flow= and flows= mixed"),
            ("flow=0>9:5001:tcp:1000", "flow endpoint out of range"),
            ("flow=0>0:5001:tcp:1000", "flow self-loop"),
            ("flow=0>2:5001:tcp:1000 flow=2>0:5001:cbr:10ms:160", "duplicate flow port"),
            ("flow=0>2:5001", "missing traffic token"),
            ("flow=0>2:5001:udp:160", "unknown traffic kind"),
            ("flow=0>2:9000:cbr:0s:160", "zero cbr interval"),
            ("flow=0>2:9000:cbr:10ms:2", "payload below the sequence header"),
            ("flow=0>2:9000:onoff:0:10ms:1ms:160", "zero burst"),
            ("flow=0>2:9000:onoff:3:0s:1ms:160", "zero idle"),
            ("flow=0>2:9000:onoff:3:10ms:1ms", "missing onoff payload"),
        ] {
            let line = format!("{base} {tail}");
            assert!(ScenarioSpec::from_scn(&line).is_err(), "{why}: `{line}`");
        }
        // The happy path, including the file: alias for tcp:.
        let ok = format!("{base} flow=0>2:9000:cbr:10ms:160");
        assert!(ScenarioSpec::from_scn(&ok).is_ok());
        let alias = format!("{base} flow=0>2:5005:file:1000 flow=0>2:9000:cbr:10ms:160");
        let spec = ScenarioSpec::from_scn(&alias).unwrap();
        assert_eq!(spec.flows[0].traffic, FlowTraffic::FileTransfer { bytes: 1000 });
    }

    #[test]
    fn traffic_takes_every_flow_traffic_token() {
        let line = |traffic: &str| format!("topo=star policy=ba rate=1.3 traffic={traffic}");
        // `tcp:` is an alias; `file:` stays the canonical spelling.
        let tcp = ScenarioSpec::from_scn(&line("tcp:20480")).unwrap();
        assert_eq!(tcp, ScenarioSpec::from_scn(&line("file:20480")).unwrap());
        assert_eq!(tcp.to_scn(), line("file:20480"));
        // On/off is window traffic: the CBR endpoints and defaults.
        let onoff = ScenarioSpec::from_scn(&line("onoff:3:1s:10ms:100")).unwrap();
        assert_eq!(onoff.to_scn(), line("onoff:3:1s:10ms:100"));
        let cbr = ScenarioSpec::udp(TopologyKind::Star, Policy::Ba, Rate::R1_30, Duration::from_millis(10));
        assert_eq!((onoff.warmup, onoff.duration), (cbr.warmup, cbr.duration));
        let ports: Vec<u16> = onoff.effective_flows().iter().map(|f| f.port).collect();
        assert_eq!(ports, [9000]);
        roundtrip(&onoff);
        // Each key keeps the words of its errors.
        for (traffic, err) in [
            ("cbr:20ms:3", "cbr payload 3 is below the 4 B sequence header"),
            ("cbr:20ms", "expected traffic=cbr:INTERVAL:PAYLOAD, got `cbr:20ms`"),
            ("file:x", "bad traffic file bytes value `x`"),
            ("onoff:0:1s:10ms:100", "onoff burst must be at least 1 packet"),
        ] {
            assert_eq!(ScenarioSpec::from_scn(&line(traffic)), Err(err.to_string()), "{traffic}");
        }
        assert_eq!(
            FlowTraffic::from_token("cbr:20ms:3"),
            Err("flow payload 3 is below the 4 B sequence header".to_string())
        );
    }
}

#[cfg(test)]
mod directive_tests {
    use super::*;

    const BODY: &str = "topo=linear:2 policy=ba rate=1.3 traffic=file:204800\n";

    #[test]
    fn directives_parse_in_file_order() {
        let text = format!(
            "#! caption=Figure X — demo sweep\n#! seeds=5\n# plain comment\n#! note=first\n#! note=second\n{BODY}"
        );
        let file = parse_scn_file(&text).unwrap();
        assert_eq!(file.meta.seeds, Some(5));
        assert_eq!(file.meta.caption.as_deref(), Some("Figure X — demo sweep"));
        assert_eq!(file.meta.notes, vec!["first", "second"]);
        assert_eq!(file.specs.len(), 1);
        // Directives are invisible to the plain parser.
        assert_eq!(parse_scn(&text).unwrap(), file.specs);
        // A file without directives has none set.
        assert_eq!(parse_scn_file(BODY).unwrap().meta, SweepMeta::default());
    }

    #[test]
    fn bad_directives_report_line_numbers() {
        for (text, why) in [
            ("#! seeds=0\n", "zero seeds"),
            ("#! seeds=100001\n", "seeds past MAX_SEEDS"),
            ("#! seeds=18446744073709551615\n", "seeds at u64::MAX"),
            ("#! seeds=abc\n", "non-numeric seeds"),
            ("#! seeds=1\n#! seeds=2\n", "duplicate seeds"),
            ("#! caption=a\n#! caption=b\n", "duplicate caption"),
            ("#! shrug=1\n", "unknown directive"),
            ("#! no-equals\n", "not key=value"),
        ] {
            let err = parse_scn_file(text).unwrap_err();
            assert!(err.line >= 1, "{why}: {err}");
        }
        // The duplicate errors point at the second occurrence.
        assert_eq!(parse_scn_file("#! seeds=1\n#! seeds=2\n").unwrap_err().line, 2);
        // The bound is inclusive, and the error says what it is.
        assert_eq!(parse_scn_file(&format!("#! seeds={MAX_SEEDS}\n")).unwrap().meta.seeds, Some(MAX_SEEDS));
        let err = parse_scn_file("\n#! seeds=100001\n").unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (2, "seeds must be at most 100000"));
    }

    #[test]
    fn a_table_block_parses_into_its_layout() {
        let text = format!(
            "#! rows=rate | rate\n#! metric=relay_overhead\n#! col=NA | policy=na\n\
             #! col=BA paper, BA | policy=ba rts=on\n#! gain=BA/NA | policy=ba / policy=na\n\
             #! paper=policy=ba | 0.5 2\n{BODY}"
        );
        let meta = parse_scn_file(&text).unwrap().meta;
        let table = meta.table.expect("a table block");
        assert_eq!(table.rows, ("rate".to_string(), RowKey::Rate));
        assert_eq!(table.metric, Metric::RelayOverhead);
        let heads: Vec<_> =
            table.cols.iter().map(|c| (c.paper_header.as_deref(), c.header.as_str())).collect();
        assert_eq!(heads, [(None, "NA"), (Some("BA paper"), "BA")]);
        let (gain, den) = table.gain.expect("a gain column");
        assert_eq!((gain.paper_header, gain.header.as_str()), (None, "BA/NA"));
        assert_eq!(meta.paper.len(), 1);
        assert_eq!(meta.paper[0].1, [0.5, 2.0]);
        // Selectors match by value: `rts=on` is the default a line omits.
        let spec = parse_scn(BODY).unwrap().remove(0);
        assert!(
            table.cols[1].select.matches(&spec)
                && gain.select.matches(&spec)
                && meta.paper[0].0.matches(&spec)
        );
        assert!(!table.cols[0].select.matches(&spec) && !den.matches(&spec));
        // Table directives are metadata: the specs and their hashes are
        // those of the bare lines.
        assert_eq!(parse_scn_file(&text).unwrap().specs, parse_scn(BODY).unwrap());
    }

    #[test]
    fn sizing_none_spells_the_default_and_canonicalises_away() {
        let spec = ScenarioSpec::from_scn(&format!("{} sizing=none", BODY.trim())).unwrap();
        assert_eq!(spec, parse_scn(BODY).unwrap()[0]);
        assert_eq!(spec.to_scn(), BODY.trim());
    }

    #[test]
    fn row_keys_label_and_order_rows_by_value() {
        let row = |key: RowKey, line: &str| key.row(&ScenarioSpec::from_scn(line).unwrap());
        let base = BODY.trim();
        assert_eq!(row(RowKey::Rate, base), (1.3, "1.30 Mbps".into()));
        assert_eq!(row(RowKey::MaxAgg, &format!("{base} max_agg=11264")), (11264.0, "11".into()));
        assert_eq!(row(RowKey::Flood, &format!("{base} flood=50ms:120")), (0.05, "0.05s".into()));
        assert_eq!(
            row(RowKey::Topo, "topo=linear:12 policy=ba rate=1.3 traffic=file:1"),
            (12.0, "12".into())
        );
        assert_eq!(row(RowKey::Medium, &format!("{base} medium=spatial:5.0")), (5.0, "5".into()));
    }

    #[test]
    fn scenario_errors_still_carry_line_numbers() {
        let text = "#! seeds=2\n\ntopo=linear:2 policy=zz rate=1.3 traffic=file:1\n";
        let err = parse_scn_file(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("unknown policy"));
    }
}
