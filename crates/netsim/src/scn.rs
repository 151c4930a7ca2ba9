//! The `.scn` scenario-file format: one [`ScenarioSpec`] per line.
//!
//! A sweep that used to live as compiled Rust in a `fig*`/`table*` bin
//! can instead live as data: each non-comment line is a whitespace-
//! separated list of `key=value` fields describing one spec. The
//! serializer ([`ScenarioSpec::to_scn`]) is *canonical* — it emits keys
//! in a fixed order and omits every field that still holds its default —
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

use hydra_core::{AckPolicy, AggPolicy, AggSizing};
use hydra_phy::{LinkErrorModel, Rate};
use hydra_sim::Duration;
use hydra_tcp::TcpConfig;

use crate::spec::{
    Flooding, Flow, FlowSpec, FlowTraffic, LinkErrorSpec, Policy, RunBudget, ScenarioSpec, TopologyKind,
    Traffic,
};
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

/// Sweep-level metadata carried by `#!` directive lines.
///
/// Directives let a `.scn` file describe the *sweep*, not just its
/// cells, so data-driven tables carry the captions and replication
/// counts the built-in experiment bins hard-code:
///
/// ```text
/// #! caption=Figure 8 — TCP throughput (Mbps): unicast aggregation
/// #! seeds=3
/// #! note=paper: UA > NA everywhere; improvement grows with rate
/// ```
///
/// `seeds` is the default replication count (a `--seeds` flag still
/// wins); `caption` titles the rendered table; `note` lines (repeatable)
/// become table footnotes. Directives are invisible to [`parse_scn`]
/// (they parse as comments), so metadata never affects which scenarios
/// run or their hashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepMeta {
    /// Default replications per scenario, 1 ..= [`MAX_SEEDS`]
    /// (overridden by an explicit `--seeds`).
    pub seeds: Option<u64>,
    /// Table caption for the sweep.
    pub caption: Option<String>,
    /// Table footnotes, in file order.
    pub notes: Vec<String>,
}

impl SweepMeta {
    /// True when no directive is set.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_none() && self.caption.is_none() && self.notes.is_empty()
    }

    /// Renders the canonical directive lines (empty when nothing is
    /// set), in the fixed order caption, seeds, notes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(caption) = &self.caption {
            out.push_str(&format!("#! caption={caption}\n"));
        }
        if let Some(seeds) = self.seeds {
            out.push_str(&format!("#! seeds={seeds}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("#! note={note}\n"));
        }
        out
    }
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
/// line must be a valid `key=value` directive (`seeds`, `caption`,
/// `note`) — unknown or duplicate (non-`note`) directives are errors
/// with their line number.
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
            match key.trim() {
                "seeds" => {
                    if file.meta.seeds.is_some() {
                        return Err(err("duplicate `seeds` directive".into()));
                    }
                    let seeds: u64 =
                        value.trim().parse().map_err(|_| err(format!("bad seeds value `{value}`")))?;
                    file.meta.seeds = Some(check_seeds(seeds).map_err(err)?);
                }
                "caption" => {
                    if file.meta.caption.is_some() {
                        return Err(err("duplicate `caption` directive".into()));
                    }
                    file.meta.caption = Some(value.trim().to_string());
                }
                "note" => file.meta.notes.push(value.trim().to_string()),
                other => {
                    return Err(err(format!("unknown directive `{other}` (seeds|caption|note)")));
                }
            }
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

/// Renders a list of specs as a `.scn` file body (no header comment).
pub fn render_scn(specs: &[ScenarioSpec]) -> String {
    let mut out = String::new();
    for s in specs {
        out.push_str(&s.to_scn());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Canonical field rendering
// ---------------------------------------------------------------------

/// Canonical duration text: the largest of `s`/`ms`/`us`/`ns` that
/// divides the value exactly (zero renders as `0s`).
fn dur_to_text(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        return "0s".into();
    }
    for (unit, per) in [("s", 1_000_000_000u64), ("ms", 1_000_000), ("us", 1_000)] {
        if ns.is_multiple_of(per) {
            return format!("{}{}", ns / per, unit);
        }
    }
    format!("{ns}ns")
}

fn dur_from_text(s: &str) -> Result<Duration, String> {
    let (digits, per) = if let Some(v) = s.strip_suffix("ns") {
        (v, 1u64)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1_000)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1_000_000)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1_000_000_000)
    } else {
        return Err(format!("duration `{s}` needs a unit suffix (ns|us|ms|s)"));
    };
    let n: u64 = digits.parse().map_err(|_| format!("bad duration value `{s}`"))?;
    n.checked_mul(per).map(Duration::from_nanos).ok_or_else(|| format!("duration `{s}` overflows"))
}

/// Canonical rate text (`0.65`, `1.3`, … `6.5`).
fn rate_to_text(r: Rate) -> &'static str {
    match r {
        Rate::R0_65 => "0.65",
        Rate::R1_30 => "1.3",
        Rate::R1_95 => "1.95",
        Rate::R2_60 => "2.6",
        Rate::R3_90 => "3.9",
        Rate::R5_20 => "5.2",
        Rate::R5_85 => "5.85",
        Rate::R6_50 => "6.5",
    }
}

fn rate_from_text(s: &str) -> Result<Rate, String> {
    Ok(match s {
        "0.65" => Rate::R0_65,
        "1.3" | "1.30" => Rate::R1_30,
        "1.95" => Rate::R1_95,
        "2.6" | "2.60" => Rate::R2_60,
        "3.9" | "3.90" => Rate::R3_90,
        "5.2" | "5.20" => Rate::R5_20,
        "5.85" => Rate::R5_85,
        "6.5" | "6.50" => Rate::R6_50,
        _ => return Err(format!("unknown rate `{s}` (0.65|1.3|1.95|2.6|3.9|5.2|5.85|6.5)")),
    })
}

fn policy_to_text(p: Policy) -> &'static str {
    match p {
        Policy::Na => "na",
        Policy::Ua => "ua",
        Policy::Ba => "ba",
        Policy::Dba => "dba",
        Policy::BaNoForward => "ba-nofwd",
    }
}

fn policy_from_text(s: &str) -> Result<Policy, String> {
    Ok(match s {
        "na" => Policy::Na,
        "ua" => Policy::Ua,
        "ba" => Policy::Ba,
        "dba" => Policy::Dba,
        "ba-nofwd" => Policy::BaNoForward,
        _ => return Err(format!("unknown policy `{s}` (na|ua|ba|dba|ba-nofwd)")),
    })
}

fn topo_to_text(t: TopologyKind) -> String {
    match t {
        TopologyKind::Linear(h) => format!("linear:{h}"),
        TopologyKind::Star => "star".into(),
        TopologyKind::Grid { w, h } => format!("grid:{w}x{h}"),
        TopologyKind::Cross => "cross".into(),
        TopologyKind::RandomMesh { nodes, area_m, seed } => format!("mesh:{nodes}:{area_m}:{seed}"),
    }
}

/// Node ids are `u16` on the wire, so no topology may name more nodes.
const MAX_NODES: usize = u16::MAX as usize;

fn topo_from_text(s: &str) -> Result<TopologyKind, String> {
    // `nodes` is `None` when the count overflowed.
    let capped = |nodes: Option<usize>| match nodes {
        Some(n) if n <= MAX_NODES => Ok(()),
        _ => Err(format!("topology `{s}` has more than {MAX_NODES} nodes")),
    };
    if s == "star" {
        return Ok(TopologyKind::Star);
    }
    if s == "cross" {
        return Ok(TopologyKind::Cross);
    }
    if let Some(h) = s.strip_prefix("linear:") {
        let hops: usize = h.parse().map_err(|_| format!("bad hop count in `{s}`"))?;
        if hops == 0 {
            return Err("linear topology needs at least 1 hop".into());
        }
        capped(hops.checked_add(1))?;
        return Ok(TopologyKind::Linear(hops));
    }
    if let Some(wh) = s.strip_prefix("grid:") {
        let (w, h) = wh.split_once('x').ok_or_else(|| format!("expected grid:WxH, got `{s}`"))?;
        let w: usize = w.parse().map_err(|_| format!("bad grid width in `{s}`"))?;
        let h: usize = h.parse().map_err(|_| format!("bad grid height in `{s}`"))?;
        if w == 0 || h == 0 || (w, h) == (1, 1) {
            return Err(format!("grid {w}x{h} has fewer than 2 nodes"));
        }
        capped(w.checked_mul(h))?;
        return Ok(TopologyKind::Grid { w, h });
    }
    if let Some(rest) = s.strip_prefix("mesh:") {
        let parts: Vec<&str> = rest.split(':').collect();
        let [nodes, area, seed] = parts[..] else {
            return Err(format!("expected mesh:NODES:AREA:SEED, got `{s}`"));
        };
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
        return Ok(TopologyKind::RandomMesh { nodes, area_m, seed });
    }
    Err(format!("unknown topology `{s}` (linear:H|star|grid:WxH|cross|mesh:NODES:AREA:SEED)"))
}

/// Shortest-round-trip float text (Rust's `{:?}` guarantees the value
/// parses back bit-identically).
fn f64_to_text(v: f64) -> String {
    format!("{v:?}")
}

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

fn usize_from(s: &str, key: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad {key} value `{s}`"))
}

fn u64_from(s: &str, key: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad {key} value `{s}`"))
}

fn u32_from(s: &str, key: &str) -> Result<u32, String> {
    s.parse().map_err(|_| format!("bad {key} value `{s}`"))
}

/// A datagram payload length: every UDP source and the flooder stamp a
/// 4-byte sequence number into it.
fn payload_from(s: &str, key: &str) -> Result<usize, String> {
    let payload = usize_from(s, key)?;
    if payload < 4 {
        return Err(format!("{key} {payload} is below the 4 B sequence header"));
    }
    Ok(payload)
}

fn bool_from(s: &str, key: &str) -> Result<bool, String> {
    match s {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(format!("bad {key} value `{s}` (on|off)")),
    }
}

impl FlowTraffic {
    /// The canonical flow-traffic token: `tcp:BYTES`,
    /// `cbr:INTERVAL:PAYLOAD`, or `onoff:BURST:IDLE:INTERVAL:PAYLOAD`
    /// (as used after the port in a `flow=` field, by `--mix`, and in
    /// the result cache's flow labels).
    pub fn to_token(&self) -> String {
        match *self {
            FlowTraffic::FileTransfer { bytes } => format!("tcp:{bytes}"),
            FlowTraffic::Cbr { interval, payload } => {
                format!("cbr:{}:{payload}", dur_to_text(interval))
            }
            FlowTraffic::OnOff { burst, idle, interval, payload } => {
                format!("onoff:{burst}:{}:{}:{payload}", dur_to_text(idle), dur_to_text(interval))
            }
        }
    }

    /// Parses a flow-traffic token (`file:` is accepted as an alias of
    /// `tcp:`, matching the run-global `traffic=` spelling).
    pub fn from_token(s: &str) -> Result<FlowTraffic, String> {
        if let Some(bytes) = s.strip_prefix("tcp:").or_else(|| s.strip_prefix("file:")) {
            return Ok(FlowTraffic::FileTransfer { bytes: usize_from(bytes, "flow tcp bytes")? });
        }
        if let Some(rest) = s.strip_prefix("cbr:") {
            let (interval, payload) =
                rest.split_once(':').ok_or_else(|| format!("expected cbr:INTERVAL:PAYLOAD, got `{s}`"))?;
            let interval = dur_from_text(interval)?;
            if interval.is_zero() {
                return Err("cbr interval must be positive".into());
            }
            return Ok(FlowTraffic::Cbr { interval, payload: payload_from(payload, "flow payload")? });
        }
        if let Some(rest) = s.strip_prefix("onoff:") {
            let parts: Vec<&str> = rest.split(':').collect();
            let [burst, idle, interval, payload] = parts[..] else {
                return Err(format!("expected onoff:BURST:IDLE:INTERVAL:PAYLOAD, got `{s}`"));
            };
            let burst = u32_from(burst, "onoff burst")?;
            if burst == 0 {
                return Err("onoff burst must be at least 1 packet".into());
            }
            let idle = dur_from_text(idle)?;
            let interval = dur_from_text(interval)?;
            if idle.is_zero() || interval.is_zero() {
                return Err("onoff idle and interval must be positive".into());
            }
            return Ok(FlowTraffic::OnOff {
                burst,
                idle,
                interval,
                payload: payload_from(payload, "flow payload")?,
            });
        }
        Err(format!(
            "unknown flow traffic `{s}` (tcp:BYTES|cbr:INTERVAL:PAYLOAD|onoff:BURST:IDLE:INTERVAL:PAYLOAD)"
        ))
    }
}

// ---------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------

impl ScenarioSpec {
    /// Renders this spec as one canonical `.scn` line (no newline).
    ///
    /// Keys appear in a fixed order and defaulted fields are omitted, so
    /// equal specs always render identically and `to_scn` output is the
    /// canonical form `from_scn` round-trips to.
    pub fn to_scn(&self) -> String {
        // The baseline the line's overrides are measured against: the
        // traffic-matched constructor at this topology/policy/rate.
        let base = match self.traffic {
            Traffic::FileTransfer { .. } => ScenarioSpec::tcp(self.topology, self.policy, self.rate),
            Traffic::Cbr { .. } => ScenarioSpec::udp(self.topology, self.policy, self.rate, Duration::ZERO),
        };
        let mut f = Vec::new();
        f.push(format!("topo={}", topo_to_text(self.topology)));
        f.push(format!("policy={}", policy_to_text(self.policy)));
        f.push(format!("rate={}", rate_to_text(self.rate)));
        match self.traffic {
            Traffic::FileTransfer { bytes } => f.push(format!("traffic=file:{bytes}")),
            Traffic::Cbr { interval, payload } => {
                f.push(format!("traffic=cbr:{}:{payload}", dur_to_text(interval)));
            }
        }
        if let MediumKind::Spatial { spacing_m } = self.medium {
            f.push(format!("medium=spatial:{}", f64_to_text(spacing_m)));
        }
        if let Some(b) = self.broadcast_rate {
            f.push(format!("bcast={}", rate_to_text(b)));
        }
        if !self.flows.is_empty() {
            // Canonical choice between the two flow spellings: the
            // compact legacy `flows=` whenever every flow just carries
            // the run-global default traffic, one `flow=` field per
            // flow otherwise. (Legacy lines therefore re-serialize
            // byte-identically, and a `flow=` line whose traffic all
            // equals the default canonicalises to the legacy form —
            // same value, same hash.)
            let global = self.traffic.per_flow();
            if self.flows.iter().all(|fl| fl.traffic == global) {
                let flows: Vec<String> =
                    self.flows.iter().map(|fl| format!("{}>{}:{}", fl.src, fl.dst, fl.port)).collect();
                f.push(format!("flows={}", flows.join(",")));
            } else {
                for fl in &self.flows {
                    f.push(format!("flow={}>{}:{}:{}", fl.src, fl.dst, fl.port, fl.traffic.to_token()));
                }
            }
        }
        if self.max_aggregate != AggPolicy::PAPER_MAX_AGG {
            f.push(format!("max_agg={}", self.max_aggregate));
        }
        match self.sizing {
            None => {}
            Some(AggSizing::Fixed(b)) => f.push(format!("sizing=fixed:{b}")),
            Some(AggSizing::CoherenceBudget(samples)) => f.push(format!("sizing=budget:{samples}")),
        }
        if self.ack_policy == AckPolicy::Block {
            f.push("ack=block".into());
        }
        if !self.rts_cts {
            f.push("rts=off".into());
        }
        if let Some(flush) = self.flush_timeout {
            f.push(format!("flush={}", dur_to_text(flush)));
        }
        self.tcp_overrides(&mut f);
        if let Some((drop, corrupt)) = self.fault {
            f.push(format!("fault={}:{}", f64_to_text(drop), f64_to_text(corrupt)));
        }
        if let Some(le) = self.link_error {
            let mut clauses = Vec::new();
            match le.model {
                None => {}
                Some(LinkErrorModel::Independent { ber }) => {
                    clauses.push(format!("ber:{}", f64_to_text(ber)));
                }
                Some(LinkErrorModel::GilbertElliott { p_gb, p_bg, ber_good, ber_bad }) => {
                    clauses.push(format!(
                        "ge:{}:{}:{}:{}",
                        f64_to_text(p_gb),
                        f64_to_text(p_bg),
                        f64_to_text(ber_good),
                        f64_to_text(ber_bad)
                    ));
                }
            }
            if le.dup > 0.0 {
                clauses.push(format!("dup:{}", f64_to_text(le.dup)));
            }
            if le.reorder > 0.0 {
                clauses.push(format!("reorder:{}", f64_to_text(le.reorder)));
            }
            // A fully-default LinkErrorSpec (no model, no dup/reorder) is
            // behaviourally inert and has no canonical spelling; omit it.
            if !clauses.is_empty() {
                f.push(format!("link_error={}", clauses.join(",")));
            }
        }
        if let Some(fl) = self.flooding {
            f.push(format!("flood={}:{}", dur_to_text(fl.interval), fl.payload));
        }
        if let Some(b) = self.budget {
            let mut clauses = Vec::new();
            if let Some(events) = b.max_events {
                clauses.push(format!("events:{events}"));
            }
            if let Some(wall) = b.max_wall {
                clauses.push(format!("wall:{}", dur_to_text(wall)));
            }
            // A fully-default RunBudget (no limit set) is behaviourally
            // inert and has no canonical spelling; omit it.
            if !clauses.is_empty() {
                f.push(format!("budget={}", clauses.join(",")));
            }
        }
        if self.warmup != base.warmup {
            f.push(format!("warmup={}", dur_to_text(self.warmup)));
        }
        if self.duration != base.duration {
            f.push(format!("duration={}", dur_to_text(self.duration)));
        }
        if self.seed != base.seed {
            f.push(format!("seed={}", self.seed));
        }
        f.join(" ")
    }

    /// Appends `tcp_*` fields that differ from [`TcpConfig::hydra_paper`].
    fn tcp_overrides(&self, f: &mut Vec<String>) {
        let d = TcpConfig::hydra_paper();
        let t = &self.tcp;
        if t.mss != d.mss {
            f.push(format!("tcp_mss={}", t.mss));
        }
        if t.recv_buffer != d.recv_buffer {
            f.push(format!("tcp_recv_buf={}", t.recv_buffer));
        }
        if t.send_buffer != d.send_buffer {
            f.push(format!("tcp_send_buf={}", t.send_buffer));
        }
        if t.initial_cwnd_segments != d.initial_cwnd_segments {
            f.push(format!("tcp_init_cwnd={}", t.initial_cwnd_segments));
        }
        if t.initial_ssthresh != d.initial_ssthresh {
            f.push(format!("tcp_ssthresh={}", t.initial_ssthresh));
        }
        if t.rto_initial != d.rto_initial {
            f.push(format!("tcp_rto_init={}", dur_to_text(t.rto_initial)));
        }
        if t.rto_min != d.rto_min {
            f.push(format!("tcp_rto_min={}", dur_to_text(t.rto_min)));
        }
        if t.rto_max != d.rto_max {
            f.push(format!("tcp_rto_max={}", dur_to_text(t.rto_max)));
        }
        if t.delayed_ack != d.delayed_ack {
            f.push(format!("tcp_delayed_ack={}", if t.delayed_ack { "on" } else { "off" }));
        }
        if t.delayed_ack_timeout != d.delayed_ack_timeout {
            f.push(format!("tcp_da_timeout={}", dur_to_text(t.delayed_ack_timeout)));
        }
        if t.max_retransmits != d.max_retransmits {
            f.push(format!("tcp_max_retx={}", t.max_retransmits));
        }
        if t.time_wait != d.time_wait {
            f.push(format!("tcp_time_wait={}", dur_to_text(t.time_wait)));
        }
    }

    /// Parses one `.scn` line (strict: unknown keys, duplicate keys, or
    /// missing required keys are errors). The per-flow `flow=` key is
    /// the one deliberately repeatable key: each occurrence adds one
    /// flow, in line order.
    pub fn from_scn(line: &str) -> Result<ScenarioSpec, String> {
        let mut fields: Vec<(&str, &str)> = Vec::new();
        for tok in line.split_whitespace() {
            let (k, v) = tok.split_once('=').ok_or_else(|| format!("`{tok}` is not key=value"))?;
            if v.is_empty() {
                return Err(format!("key `{k}` has an empty value"));
            }
            if k != "flow" && fields.iter().any(|(seen, _)| *seen == k) {
                return Err(format!("duplicate key `{k}`"));
            }
            fields.push((k, v));
        }
        let take = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let require = |key: &str| take(key).ok_or_else(|| format!("missing required key `{key}`"));

        let topo = topo_from_text(require("topo")?)?;
        let policy = policy_from_text(require("policy")?)?;
        let rate = rate_from_text(require("rate")?)?;
        let traffic = parse_traffic(require("traffic")?)?;

        // The traffic-matched constructor supplies every default
        // (notably the CBR 2 s warmup / 20 s window vs the file
        // transfer's 300 s deadline).
        let mut spec = match traffic {
            Traffic::FileTransfer { .. } => ScenarioSpec::tcp(topo, policy, rate),
            Traffic::Cbr { .. } => ScenarioSpec::udp(topo, policy, rate, Duration::ZERO),
        };
        spec.traffic = traffic;

        for &(key, value) in &fields {
            match key {
                "topo" | "policy" | "rate" | "traffic" => {}
                "medium" => spec.medium = parse_medium(value)?,
                "bcast" => spec.broadcast_rate = Some(rate_from_text(value)?),
                "flows" => {
                    if fields.iter().any(|(k, _)| *k == "flow") {
                        return Err("`flows=` (shared traffic) and `flow=` (per-flow traffic) \
                                    cannot be mixed on one line"
                            .into());
                    }
                    let global = spec.traffic.per_flow();
                    spec.flows = parse_flows(value)?.into_iter().map(|f| f.with_traffic(global)).collect();
                }
                "flow" => spec.flows.push(parse_flow_spec(value)?),
                "max_agg" => spec.max_aggregate = usize_from(value, key)?,
                "sizing" => spec.sizing = Some(parse_sizing(value)?),
                "ack" => {
                    spec.ack_policy = match value {
                        "normal" => AckPolicy::Normal,
                        "block" => AckPolicy::Block,
                        _ => return Err(format!("bad ack value `{value}` (normal|block)")),
                    }
                }
                "rts" => spec.rts_cts = bool_from(value, key)?,
                "flush" => spec.flush_timeout = Some(dur_from_text(value)?),
                "fault" => {
                    let (d, c) = value
                        .split_once(':')
                        .ok_or_else(|| format!("expected fault=DROP:CORRUPT, got `{value}`"))?;
                    spec.fault = Some((prob_from_text(d)?, prob_from_text(c)?));
                }
                "link_error" => spec.link_error = Some(parse_link_error(value)?),
                "flood" => {
                    let (i, p) = value
                        .split_once(':')
                        .ok_or_else(|| format!("expected flood=INTERVAL:PAYLOAD, got `{value}`"))?;
                    let interval = dur_from_text(i)?;
                    if interval.is_zero() {
                        return Err("flood interval must be positive".into());
                    }
                    spec.flooding = Some(Flooding { interval, payload: payload_from(p, "flood payload")? });
                }
                "budget" => spec.budget = Some(parse_budget(value)?),
                "warmup" => spec.warmup = dur_from_text(value)?,
                "duration" => spec.duration = dur_from_text(value)?,
                "seed" => spec.seed = u64_from(value, key)?,
                "tcp_mss" => spec.tcp.mss = usize_from(value, key)?,
                "tcp_recv_buf" => spec.tcp.recv_buffer = usize_from(value, key)?,
                "tcp_send_buf" => spec.tcp.send_buffer = usize_from(value, key)?,
                "tcp_init_cwnd" => spec.tcp.initial_cwnd_segments = u32_from(value, key)?,
                "tcp_ssthresh" => spec.tcp.initial_ssthresh = u32_from(value, key)?,
                "tcp_rto_init" => spec.tcp.rto_initial = dur_from_text(value)?,
                "tcp_rto_min" => spec.tcp.rto_min = dur_from_text(value)?,
                "tcp_rto_max" => spec.tcp.rto_max = dur_from_text(value)?,
                "tcp_delayed_ack" => spec.tcp.delayed_ack = bool_from(value, key)?,
                "tcp_da_timeout" => spec.tcp.delayed_ack_timeout = dur_from_text(value)?,
                "tcp_max_retx" => spec.tcp.max_retransmits = u32_from(value, key)?,
                "tcp_time_wait" => spec.tcp.time_wait = dur_from_text(value)?,
                _ => return Err(format!("unknown key `{key}` (see docs/SCENARIO_FORMAT.md)")),
            }
        }

        let n = spec.topology.node_count();
        for (i, fl) in spec.flows.iter().enumerate() {
            if fl.src >= n || fl.dst >= n {
                return Err(format!("flow {}>{} out of range for {n}-node topology", fl.src, fl.dst));
            }
            if fl.src == fl.dst {
                return Err(format!("flow {}>{} has equal endpoints", fl.src, fl.dst));
            }
            if spec.flows[..i].iter().any(|prev| prev.port == fl.port) {
                return Err(format!("duplicate flow port {}", fl.port));
            }
        }
        // What `Mac::new` would panic on inside `build()` (the checked
        // settings do not depend on the node).
        spec.mac_config(0, &[]).validate()?;
        Ok(spec)
    }
}

fn parse_traffic(s: &str) -> Result<Traffic, String> {
    if let Some(bytes) = s.strip_prefix("file:") {
        return Ok(Traffic::FileTransfer { bytes: usize_from(bytes, "traffic file bytes")? });
    }
    if let Some(rest) = s.strip_prefix("cbr:") {
        let (interval, payload) = rest
            .split_once(':')
            .ok_or_else(|| format!("expected traffic=cbr:INTERVAL:PAYLOAD, got `{s}`"))?;
        let interval = dur_from_text(interval)?;
        if interval.is_zero() {
            return Err("cbr interval must be positive".into());
        }
        return Ok(Traffic::Cbr { interval, payload: payload_from(payload, "cbr payload")? });
    }
    Err(format!("unknown traffic `{s}` (file:BYTES|cbr:INTERVAL:PAYLOAD)"))
}

fn parse_medium(s: &str) -> Result<MediumKind, String> {
    if s == "shared" {
        return Ok(MediumKind::SharedDomain);
    }
    if let Some(spacing) = s.strip_prefix("spatial:") {
        let spacing_m = f64_from_text(spacing)?;
        if spacing_m <= 0.0 {
            return Err("spatial spacing must be positive".into());
        }
        return Ok(MediumKind::Spatial { spacing_m });
    }
    Err(format!("unknown medium `{s}` (shared|spatial:METRES)"))
}

/// Parses one `link_error=` value: comma-separated clauses in canonical
/// order `ber:B` *or* `ge:P_GB:P_BG:BER_GOOD:BER_BAD` (at most one error
/// model), then optional `dup:P` and `reorder:P`. All values are
/// probabilities in `0..=1`.
fn parse_link_error(s: &str) -> Result<LinkErrorSpec, String> {
    let mut le = LinkErrorSpec { model: None, dup: 0.0, reorder: 0.0 };
    let (mut seen_dup, mut seen_reorder) = (false, false);
    for clause in s.split(',') {
        if let Some(b) = clause.strip_prefix("ber:") {
            if le.model.is_some() {
                return Err("link_error allows at most one error model clause (ber:|ge:)".into());
            }
            le.model = Some(LinkErrorModel::Independent { ber: prob_from_text(b)? });
        } else if let Some(rest) = clause.strip_prefix("ge:") {
            if le.model.is_some() {
                return Err("link_error allows at most one error model clause (ber:|ge:)".into());
            }
            let parts: Vec<&str> = rest.split(':').collect();
            let [p_gb, p_bg, ber_good, ber_bad] = parts[..] else {
                return Err(format!("expected ge:P_GB:P_BG:BER_GOOD:BER_BAD, got `{clause}`"));
            };
            le.model = Some(LinkErrorModel::GilbertElliott {
                p_gb: prob_from_text(p_gb)?,
                p_bg: prob_from_text(p_bg)?,
                ber_good: prob_from_text(ber_good)?,
                ber_bad: prob_from_text(ber_bad)?,
            });
        } else if let Some(p) = clause.strip_prefix("dup:") {
            if seen_dup {
                return Err("duplicate link_error clause `dup:`".into());
            }
            seen_dup = true;
            le.dup = prob_from_text(p)?;
        } else if let Some(p) = clause.strip_prefix("reorder:") {
            if seen_reorder {
                return Err("duplicate link_error clause `reorder:`".into());
            }
            seen_reorder = true;
            le.reorder = prob_from_text(p)?;
        } else {
            return Err(format!("unknown link_error clause `{clause}` (ber:|ge:|dup:|reorder:)"));
        }
    }
    Ok(le)
}

/// Parses one `budget=` value: comma-separated clauses in canonical
/// order `events:N` (max dispatched events), then `wall:DURATION` (max
/// wall-clock run time). At least one clause is required: an empty
/// budget is inert and has no canonical spelling.
fn parse_budget(s: &str) -> Result<RunBudget, String> {
    let mut budget = RunBudget { max_events: None, max_wall: None };
    for clause in s.split(',') {
        if let Some(n) = clause.strip_prefix("events:") {
            if budget.max_events.is_some() {
                return Err("duplicate budget clause `events:`".into());
            }
            let events = u64_from(n, "budget events")?;
            if events == 0 {
                return Err("budget events must be positive".into());
            }
            budget.max_events = Some(events);
        } else if let Some(d) = clause.strip_prefix("wall:") {
            if budget.max_wall.is_some() {
                return Err("duplicate budget clause `wall:`".into());
            }
            let wall = dur_from_text(d)?;
            if wall.is_zero() {
                return Err("budget wall time must be positive".into());
            }
            budget.max_wall = Some(wall);
        } else {
            return Err(format!("unknown budget clause `{clause}` (events:N|wall:DURATION)"));
        }
    }
    Ok(budget)
}

fn parse_sizing(s: &str) -> Result<AggSizing, String> {
    if let Some(b) = s.strip_prefix("fixed:") {
        return Ok(AggSizing::Fixed(usize_from(b, "sizing fixed bytes")?));
    }
    if let Some(samples) = s.strip_prefix("budget:") {
        return Ok(AggSizing::CoherenceBudget(u64_from(samples, "sizing budget samples")?));
    }
    Err(format!("unknown sizing `{s}` (fixed:BYTES|budget:SAMPLES)"))
}

fn parse_flows(s: &str) -> Result<Vec<Flow>, String> {
    let mut flows = Vec::new();
    for part in s.split(',') {
        let (src, rest) =
            part.split_once('>').ok_or_else(|| format!("expected SRC>DST:PORT, got `{part}`"))?;
        let (dst, port) =
            rest.split_once(':').ok_or_else(|| format!("expected SRC>DST:PORT, got `{part}`"))?;
        flows.push(Flow {
            src: usize_from(src, "flow src")?,
            dst: usize_from(dst, "flow dst")?,
            port: port.parse().map_err(|_| format!("bad flow port `{port}`"))?,
        });
    }
    if flows.is_empty() {
        return Err("flows= needs at least one SRC>DST:PORT".into());
    }
    Ok(flows)
}

/// Parses one `flow=` value: `SRC>DST:PORT:TRAFFIC` where `TRAFFIC` is
/// a [`FlowTraffic`] token.
fn parse_flow_spec(s: &str) -> Result<FlowSpec, String> {
    let bad = || format!("expected SRC>DST:PORT:TRAFFIC, got `{s}`");
    let (src, rest) = s.split_once('>').ok_or_else(bad)?;
    let (dst, rest) = rest.split_once(':').ok_or_else(bad)?;
    let (port, traffic) = rest.split_once(':').ok_or_else(bad)?;
    Ok(FlowSpec {
        src: usize_from(src, "flow src")?,
        dst: usize_from(dst, "flow dst")?,
        port: port.parse().map_err(|_| format!("bad flow port `{port}`"))?,
        traffic: FlowTraffic::from_token(traffic)?,
    })
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
        spec =
            spec.with_flows(vec![Flow { src: 0, dst: 5, port: 9000 }, Flow { src: 5, dst: 0, port: 9001 }]);
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
    fn durations_use_the_largest_exact_unit() {
        assert_eq!(dur_to_text(Duration::ZERO), "0s");
        assert_eq!(dur_to_text(Duration::from_secs(20)), "20s");
        assert_eq!(dur_to_text(Duration::from_micros(17_400)), "17400us");
        assert_eq!(dur_to_text(Duration::from_millis(4)), "4ms");
        assert_eq!(dur_to_text(Duration::from_nanos(1_000_000_001)), "1000000001ns");
        for text in ["0s", "20s", "17400us", "4ms", "999ns"] {
            assert_eq!(dur_to_text(dur_from_text(text).unwrap()), text);
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
        let legacy = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30)
            .with_flows(vec![Flow { src: 0, dst: 2, port: 5001 }]);
        assert_ne!(spec.stable_hash(), legacy.stable_hash());
    }

    #[test]
    fn uniform_flow_lines_canonicalise_to_the_legacy_form() {
        // flow= fields whose traffic all equals the run-global default
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
    fn render_parse_inverse_on_a_mixed_sweep() {
        let specs = vec![
            ScenarioSpec::tcp(TopologyKind::Star, Policy::Ua, Rate::R1_95),
            ScenarioSpec::udp(TopologyKind::Linear(3), Policy::Ba, Rate::R0_65, Duration::from_millis(16))
                .spatial(7.0),
        ];
        let text = render_scn(&specs);
        let back = parse_scn(&text).unwrap();
        assert_eq!(back, specs);
        assert_eq!(render_scn(&back), text);
    }
}

#[cfg(test)]
mod directive_tests {
    use super::*;

    const BODY: &str = "topo=linear:2 policy=ba rate=1.3 traffic=file:204800\n";

    #[test]
    fn directives_parse_and_render_canonically() {
        let text = format!(
            "#! caption=Figure X — demo sweep\n#! seeds=5\n# plain comment\n#! note=first\n#! note=second\n{BODY}"
        );
        let file = parse_scn_file(&text).unwrap();
        assert_eq!(file.meta.seeds, Some(5));
        assert_eq!(file.meta.caption.as_deref(), Some("Figure X — demo sweep"));
        assert_eq!(file.meta.notes, vec!["first", "second"]);
        assert_eq!(file.specs.len(), 1);
        assert_eq!(
            file.meta.render(),
            "#! caption=Figure X — demo sweep\n#! seeds=5\n#! note=first\n#! note=second\n"
        );
        // Directives are invisible to the plain parser.
        assert_eq!(parse_scn(&text).unwrap(), file.specs);
    }

    #[test]
    fn empty_meta_renders_nothing() {
        assert!(SweepMeta::default().is_empty());
        assert_eq!(SweepMeta::default().render(), "");
        let file = parse_scn_file(BODY).unwrap();
        assert!(file.meta.is_empty());
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
    fn scenario_errors_still_carry_line_numbers() {
        let text = "#! seeds=2\n\ntopo=linear:2 policy=zz rate=1.3 traffic=file:1\n";
        let err = parse_scn_file(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("unknown policy"));
    }
}
