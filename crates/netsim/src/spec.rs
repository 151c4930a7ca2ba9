//! The declarative scenario description: one [`ScenarioSpec`] value fully
//! describes one run.
//!
//! Every experiment in the paper — and every extension this repo adds —
//! is "build a world from a spec, run it, collect a [`RunOutcome`]".
//! Keeping the description as plain data (instead of bespoke per-figure
//! setup code) lets the bench harness expand sweeps (`specs × seeds`)
//! into a work list and execute them on any thread in any order: the
//! world's RNG is derived only from the spec and the seed.
//!
//! Traffic is a **per-flow** property: each [`FlowSpec`] carries its own
//! [`FlowTraffic`], so one world can run TCP file transfers next to UDP
//! CBR background and on/off bursts. The run-global [`Traffic`] field
//! survives as the *default* the topology's flows inherit (and as the
//! compatibility anchor that keeps every pre-existing spec's
//! [`ScenarioSpec::stable_hash`] — and therefore every derived world
//! seed, cache key, and published table — byte-identical).

use hydra_app::{FileReceiver, FileSender, FloodSink, Flooder, UdpCbr, UdpSink, PAPER_UDP_PAYLOAD};
use hydra_core::{AckPolicy, AggPolicy, AggSizing, MacConfig};
use hydra_phy::{ChannelStack, LinkErrorModel, PhyProfile, Rate};
use hydra_sim::{Duration, Instant};
use hydra_tcp::TcpConfig;
use hydra_wire::{Endpoint, Ipv4Addr};

use crate::metrics::{FlowKind, FlowOutcome, RunReport};
use crate::topology::Topology;
use crate::world::{MediumKind, World};

/// The aggregation policies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No aggregation.
    Na,
    /// Unicast aggregation.
    Ua,
    /// Broadcast aggregation (+ TCP ACKs as broadcasts).
    Ba,
    /// Delayed broadcast aggregation (relays wait for 3 frames).
    Dba,
    /// BA with forward aggregation disabled (§6.4.4).
    BaNoForward,
}

impl Policy {
    /// The paper's abbreviation.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Na => "NA",
            Policy::Ua => "UA",
            Policy::Ba => "BA",
            Policy::Dba => "DBA",
            Policy::BaNoForward => "BA-nofwd",
        }
    }

    /// The aggregation policy for a node. DBA's 3-frame gate applies at
    /// *relay* nodes only (paper §6.4.3: "forces relay nodes to pause").
    pub fn agg_for(&self, is_relay: bool) -> AggPolicy {
        match self {
            Policy::Na => AggPolicy::no_aggregation(),
            Policy::Ua => AggPolicy::unicast(),
            Policy::Ba => AggPolicy::broadcast(),
            Policy::Dba => {
                if is_relay {
                    AggPolicy::delayed_broadcast()
                } else {
                    AggPolicy::broadcast()
                }
            }
            Policy::BaNoForward => AggPolicy::broadcast_no_forward(),
        }
    }

    /// All policies the paper compares.
    pub const ALL: [Policy; 5] = [Policy::Na, Policy::Ua, Policy::Ba, Policy::Dba, Policy::BaNoForward];
}

/// Which topology a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Linear chain with this many hops.
    Linear(usize),
    /// The paper's 4-node star with two TCP sessions into one client.
    Star,
    /// A `w × h` grid with dimension-ordered static routing.
    Grid {
        /// Columns.
        w: usize,
        /// Rows.
        h: usize,
    },
    /// Four arms around one shared relay; two sessions cross at it.
    Cross,
    /// A uniform-random mesh: `nodes` nodes in an `area_m × area_m`
    /// square (metres — geometry is authored at 1 m units, so pair it
    /// with `medium=spatial:1.0`), placed from `seed`'s own RNG stream
    /// and routed greedily per flow (geographic forwarding).
    RandomMesh {
        /// Node count (≥ 2).
        nodes: usize,
        /// Square side length, metres.
        area_m: u32,
        /// Placement/flow seed — independent of the *run* seed, so all
        /// replications of one scenario share the same mesh.
        seed: u64,
    },
}

impl TopologyKind {
    /// Builds the concrete topology (nodes + static routes).
    pub fn build(&self) -> Topology {
        match self {
            TopologyKind::Linear(h) => Topology::linear(*h),
            TopologyKind::Star => Topology::star(),
            TopologyKind::Grid { w, h } => Topology::grid(*w, *h),
            TopologyKind::Cross => Topology::cross(),
            TopologyKind::RandomMesh { nodes, area_m, seed } => Topology::random_mesh(*nodes, *area_m, *seed),
        }
    }

    /// The node count, without materialising the route table.
    pub fn node_count(&self) -> usize {
        match self {
            TopologyKind::Linear(h) => h + 1,
            TopologyKind::Star => 4,
            TopologyKind::Grid { w, h } => w * h,
            TopologyKind::Cross => 5,
            TopologyKind::RandomMesh { nodes, .. } => *nodes,
        }
    }

    /// A short human-readable label (for table captions).
    pub fn label(&self) -> String {
        match self {
            TopologyKind::Linear(h) => format!("{h}-hop"),
            TopologyKind::Star => "star".into(),
            TopologyKind::Grid { w, h } => format!("{w}x{h} grid"),
            TopologyKind::Cross => "cross".into(),
            TopologyKind::RandomMesh { nodes, .. } => format!("{nodes}-node mesh"),
        }
    }

    /// The default flow endpoints for TCP file transfers on this
    /// topology.
    fn default_tcp_flows(&self) -> Vec<Flow> {
        match self {
            // Server = node 0, client = last node (paper Figure 5).
            TopologyKind::Linear(h) => vec![Flow { src: 0, dst: *h, port: 5001 }],
            // Two sessions: servers 2 and 3 → client 0 via center 1
            // (paper Figure 6 / §6.4.5).
            TopologyKind::Star => {
                vec![Flow { src: 2, dst: 0, port: 5001 }, Flow { src: 3, dst: 0, port: 5002 }]
            }
            // Corner-to-corner: maximal hop count under x-first routing.
            TopologyKind::Grid { w, h } => vec![Flow { src: 0, dst: w * h - 1, port: 5001 }],
            // West→east and north→south, crossing at the center relay.
            TopologyKind::Cross => {
                vec![Flow { src: 0, dst: 1, port: 5001 }, Flow { src: 2, dst: 3, port: 5002 }]
            }
            // ≈ nodes/4 greedily-routable pairs from the mesh seed.
            TopologyKind::RandomMesh { nodes, area_m, seed } => {
                Topology::mesh_default_pairs(*nodes, *area_m, *seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (src, dst))| Flow { src, dst, port: 5001 + i as u16 })
                    .collect()
            }
        }
    }

    /// The default flow endpoints for UDP CBR traffic on this topology.
    fn default_cbr_flows(&self) -> Vec<Flow> {
        match self {
            TopologyKind::Linear(h) => vec![Flow { src: 0, dst: *h, port: 9000 }],
            TopologyKind::Star => vec![Flow { src: 2, dst: 0, port: 9000 }],
            TopologyKind::Grid { w, h } => vec![Flow { src: 0, dst: w * h - 1, port: 9000 }],
            TopologyKind::Cross => {
                vec![Flow { src: 0, dst: 1, port: 9000 }, Flow { src: 2, dst: 3, port: 9001 }]
            }
            TopologyKind::RandomMesh { nodes, area_m, seed } => {
                Topology::mesh_default_pairs(*nodes, *area_m, *seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (src, dst))| Flow { src, dst, port: 9000 + i as u16 })
                    .collect()
            }
        }
    }
}

/// A bare flow endpoint triple (no per-flow traffic): the legacy form
/// kept for topology defaults and for call sites that attach the
/// run-global [`Traffic`] to every flow via
/// [`ScenarioSpec::with_flows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Source node (TCP server / CBR sender).
    pub src: usize,
    /// Destination node (TCP client / CBR sink).
    pub dst: usize,
    /// Destination port (TCP listen port or UDP sink port). Must be
    /// unique per flow.
    pub port: u16,
}

impl Flow {
    /// Attaches a traffic description, yielding a full [`FlowSpec`].
    pub fn with_traffic(self, traffic: FlowTraffic) -> FlowSpec {
        FlowSpec { src: self.src, dst: self.dst, port: self.port, traffic }
    }
}

/// The traffic one flow offers.
///
/// Unlike the run-global [`Traffic`], this is a *per-flow* property:
/// a [`ScenarioSpec`] can mix file transfers, CBR, and on/off bursts
/// in one world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTraffic {
    /// One-way TCP file transfer of `bytes`; the flow completes when
    /// the last byte arrives.
    FileTransfer {
        /// Bytes to transfer.
        bytes: usize,
    },
    /// UDP constant-bit-rate: one `payload`-byte datagram every
    /// `interval`, measured as goodput over the run's window.
    Cbr {
        /// Inter-packet interval at the source.
        interval: Duration,
        /// UDP payload length.
        payload: usize,
    },
    /// UDP on/off bursts: `burst` packets spaced `interval` apart,
    /// then `idle` of silence before the next burst (so one period is
    /// `(burst-1)·interval + idle`). Measured like CBR.
    OnOff {
        /// Packets per on-phase.
        burst: u32,
        /// Gap between the last packet of one burst and the first of
        /// the next.
        idle: Duration,
        /// Intra-burst inter-packet interval.
        interval: Duration,
        /// UDP payload length.
        payload: usize,
    },
}

impl FlowTraffic {
    /// The kind label for this traffic.
    pub fn kind(&self) -> FlowKind {
        match self {
            FlowTraffic::FileTransfer { .. } => FlowKind::FileTransfer,
            FlowTraffic::Cbr { .. } => FlowKind::Cbr,
            FlowTraffic::OnOff { .. } => FlowKind::OnOff,
        }
    }

    /// True for completion-driven (TCP file transfer) traffic.
    pub fn is_file(&self) -> bool {
        matches!(self, FlowTraffic::FileTransfer { .. })
    }
}

/// One traffic flow: an ordered endpoint pair plus the traffic it
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source node (TCP server / UDP sender).
    pub src: usize,
    /// Destination node (TCP client / UDP sink).
    pub dst: usize,
    /// Destination port (TCP listen port or UDP sink port). Must be
    /// unique per flow.
    pub port: u16,
    /// What this flow sends.
    pub traffic: FlowTraffic,
}

/// The scenario's default traffic, inherited by every flow that does
/// not carry its own [`FlowTraffic`] override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One-way TCP file transfer of `bytes` on every default flow
    /// (paper §5). The run ends when every transfer completes (or the
    /// deadline hits).
    FileTransfer {
        /// Bytes per transfer (paper: 0.2 MB).
        bytes: usize,
    },
    /// UDP constant-bit-rate traffic on every default flow (paper
    /// §6.1–6.3). The run measures goodput over `duration` after
    /// `warmup`.
    Cbr {
        /// Inter-packet interval at each source.
        interval: Duration,
        /// UDP payload length (default: the paper's 1140 B MAC frames).
        payload: usize,
    },
}

impl Traffic {
    /// The per-flow equivalent of this run-global default.
    pub fn per_flow(&self) -> FlowTraffic {
        match *self {
            Traffic::FileTransfer { bytes } => FlowTraffic::FileTransfer { bytes },
            Traffic::Cbr { interval, payload } => FlowTraffic::Cbr { interval, payload },
        }
    }
}

/// Per-node broadcast flooding riding on top of the main traffic
/// (stands in for DSR/AODV route chatter — paper §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flooding {
    /// Beacon interval per node.
    pub interval: Duration,
    /// Beacon payload length.
    pub payload: usize,
}

/// Per-link channel perturbations: a residual error model plus
/// delivery duplication/reorder knobs, all driven by deterministic
/// per-link RNG streams (see [`hydra_phy::link_error`]).
///
/// `None` on [`ScenarioSpec::link_error`] (the default) is byte-for-byte
/// the pre-link-error behaviour: no extra RNG draws, no hash change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkErrorSpec {
    /// The per-link residual error model (`None` = clean links, with
    /// only the dup/reorder knobs active).
    pub model: Option<LinkErrorModel>,
    /// Probability a delivered frame arrives twice back-to-back (the
    /// duplicate takes its own corruption draws).
    pub dup: f64,
    /// Probability a delivered aggregate's subframes arrive rotated by
    /// one position (intra-aggregate reorder).
    pub reorder: f64,
}

impl LinkErrorSpec {
    /// A spec carrying only an error model (no dup/reorder).
    pub fn model(model: LinkErrorModel) -> Self {
        LinkErrorSpec { model: Some(model), dup: 0.0, reorder: 0.0 }
    }
}

/// Hard limits on one run, for sweeps that must survive pathological
/// cells (a livelocked mesh, a blackout channel that never converges).
///
/// `None` on [`ScenarioSpec::budget`] (the default) is byte-for-byte
/// the unbudgeted engine: no extra per-event work, no
/// [`ScenarioSpec::stable_hash`] change (pinned by the goldens).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum events the run may dispatch (`None` = unlimited).
    /// Deterministic: the same spec trips at the same event on every
    /// machine.
    pub max_events: Option<u64>,
    /// Maximum *wall-clock* time the run may take (`None` = unlimited).
    /// A safety valve, not a reproducible limit: where it trips depends
    /// on machine speed, so budget-sensitive sweeps should prefer
    /// `max_events`.
    pub max_wall: Option<Duration>,
}

impl RunBudget {
    /// Limit events only (the deterministic form).
    pub fn events(max_events: u64) -> Self {
        RunBudget { max_events: Some(max_events), max_wall: None }
    }

    /// True when neither limit is set — behaviourally identical to no
    /// budget at all.
    pub fn is_inert(&self) -> bool {
        self.max_events.is_none() && self.max_wall.is_none()
    }
}

/// Why a fallible run ([`ScenarioSpec::try_run`]) produced no
/// [`RunOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The run's [`RunBudget`] ran out before the scenario finished.
    BudgetExhausted {
        /// Events dispatched before the budget tripped.
        events: u64,
    },
    /// The run panicked; the payload message is preserved.
    Panicked(String),
}

impl RunError {
    /// A short machine-greppable reason tag, used by table rendering
    /// (`FAILED(budget)` cells) and exit summaries.
    pub fn reason(&self) -> &'static str {
        match self {
            RunError::BudgetExhausted { .. } => "budget",
            RunError::Panicked(_) => "panic",
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::BudgetExhausted { events } => {
                write!(f, "run budget exhausted after {events} events")
            }
            RunError::Panicked(msg) => write!(f, "run panicked: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A complete, declarative description of one simulation run.
///
/// `build()` turns it into a ready [`World`]; `run()` executes it and
/// returns a [`RunOutcome`]. Two specs with equal fields produce
/// byte-identical runs — on any thread, in any order. A spec also has a
/// canonical one-line text form (see [`ScenarioSpec::to_scn`] /
/// [`ScenarioSpec::from_scn`] in the [`crate::scn`] module), so whole
/// sweeps can live in `.scn` files instead of compiled code.
#[derive(Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Topology.
    pub topology: TopologyKind,
    /// How the radio medium is built: the paper's single shared domain,
    /// or range-limited links from the topology's geometry.
    pub medium: MediumKind,
    /// Aggregation policy.
    pub policy: Policy,
    /// Unicast data rate.
    pub rate: Rate,
    /// Broadcast-portion rate (`None` = same as unicast; Figure 10 fixes it).
    pub broadcast_rate: Option<Rate>,
    /// The default traffic (what flows without an override send, and
    /// what the topology's default flows carry when `flows` is empty).
    pub traffic: Traffic,
    /// Flows with their per-flow traffic; empty = the topology's
    /// defaults, every one carrying [`ScenarioSpec::traffic`].
    pub flows: Vec<FlowSpec>,
    /// Maximum aggregate size in bytes (paper: 5 KB).
    pub max_aggregate: usize,
    /// Aggregate sizing override; `None` = `Fixed(max_aggregate)`.
    pub sizing: Option<AggSizing>,
    /// Link ACK policy (Normal, or the Block extension).
    pub ack_policy: AckPolicy,
    /// RTS/CTS handshake for unicast bursts (Hydra always uses it).
    pub rts_cts: bool,
    /// DBA flush-timeout override; `None` = the policy default.
    pub flush_timeout: Option<Duration>,
    /// TCP configuration for both ends of every TCP flow.
    pub tcp: TcpConfig,
    /// Optional fault injection: (frame drop chance, subframe corrupt
    /// chance), smoltcp style.
    pub fault: Option<(f64, f64)>,
    /// Optional per-link channel perturbations: residual error model
    /// (independent or Gilbert–Elliott bursty) plus dup/reorder knobs.
    pub link_error: Option<LinkErrorSpec>,
    /// Optional per-node broadcast flooding.
    pub flooding: Option<Flooding>,
    /// Warm-up before CBR measurement starts (ignored by pure file
    /// transfer runs).
    pub warmup: Duration,
    /// CBR measurement window / FileTransfer completion deadline. A
    /// mixed run's horizon is `warmup + duration`: CBR flows measure
    /// over the window and file transfers must finish by the horizon.
    pub duration: Duration,
    /// Optional hard limits on the run itself (event count, wall
    /// clock). `None` — the default for every legacy spec — leaves the
    /// engine unbudgeted and the [`ScenarioSpec::stable_hash`]
    /// untouched. A budgeted run that trips reports
    /// [`RunError::BudgetExhausted`] through [`ScenarioSpec::try_run`].
    pub budget: Option<RunBudget>,
    /// RNG seed. The world's random streams depend only on this value
    /// and the spec itself.
    pub seed: u64,
}

/// The canonical rendering [`ScenarioSpec::stable_hash`] is computed
/// over. Hand-written (instead of derived) for exactly one reason:
/// flows that simply inherit the run-global [`Traffic`] must render as
/// the pre-per-flow `Flow { src, dst, port }` so every legacy spec —
/// paper grids, user `.scn` lines with `flows=`, the whole result
/// cache — keeps the hash it had when `flows` was a `Vec<Flow>`. Flows
/// with their own traffic render as `FlowSpec { .. }`, making mixed
/// specs distinct cells. (The two forms cannot collide: an inherited
/// traffic is still rendered once, in the `traffic:` field.)
impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.render(f, false)
    }
}

impl ScenarioSpec {
    /// The `Debug` rendering. With `canonical` set it is the input of
    /// [`ScenarioSpec::stable_hash`]: `medium`, `link_error` and `budget`
    /// are left out while they hold their defaults, so a spec that does
    /// not use those later additions keeps the hash (hence the derived
    /// world seeds and published tables) it had before they existed.
    fn render(&self, f: &mut std::fmt::Formatter<'_>, canonical: bool) -> std::fmt::Result {
        struct FlowsDebug<'a>(&'a [FlowSpec], FlowTraffic);
        struct FlowDebug<'a>(&'a FlowSpec, FlowTraffic);
        impl std::fmt::Debug for FlowsDebug<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.iter().map(|fl| FlowDebug(fl, self.1))).finish()
            }
        }
        impl std::fmt::Debug for FlowDebug<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let fl = self.0;
                if fl.traffic == self.1 {
                    // Legacy rendering: byte-identical to the derived
                    // Debug of the pre-per-flow `Flow` struct.
                    f.debug_struct("Flow")
                        .field("src", &fl.src)
                        .field("dst", &fl.dst)
                        .field("port", &fl.port)
                        .finish()
                } else {
                    f.debug_struct("FlowSpec")
                        .field("src", &fl.src)
                        .field("dst", &fl.dst)
                        .field("port", &fl.port)
                        .field("traffic", &fl.traffic)
                        .finish()
                }
            }
        }
        let mut s = f.debug_struct("ScenarioSpec");
        s.field("topology", &self.topology);
        if !(canonical && self.medium == MediumKind::SharedDomain) {
            s.field("medium", &self.medium);
        }
        s.field("policy", &self.policy)
            .field("rate", &self.rate)
            .field("broadcast_rate", &self.broadcast_rate)
            .field("traffic", &self.traffic)
            .field("flows", &FlowsDebug(&self.flows, self.traffic.per_flow()))
            .field("max_aggregate", &self.max_aggregate)
            .field("sizing", &self.sizing)
            .field("ack_policy", &self.ack_policy)
            .field("rts_cts", &self.rts_cts)
            .field("flush_timeout", &self.flush_timeout)
            .field("tcp", &self.tcp)
            .field("fault", &self.fault);
        if !(canonical && self.link_error.is_none()) {
            s.field("link_error", &self.link_error);
        }
        s.field("flooding", &self.flooding).field("warmup", &self.warmup).field("duration", &self.duration);
        if !(canonical && self.budget.is_none()) {
            s.field("budget", &self.budget);
        }
        s.field("seed", &self.seed).finish()
    }

    /// The paper's TCP file-transfer defaults for a topology/policy/rate.
    pub fn tcp(topology: TopologyKind, policy: Policy, rate: Rate) -> Self {
        ScenarioSpec {
            topology,
            medium: MediumKind::SharedDomain,
            policy,
            rate,
            broadcast_rate: None,
            traffic: Traffic::FileTransfer { bytes: hydra_app::PAPER_FILE_BYTES },
            flows: Vec::new(),
            max_aggregate: AggPolicy::PAPER_MAX_AGG,
            sizing: None,
            ack_policy: AckPolicy::Normal,
            rts_cts: true,
            flush_timeout: None,
            tcp: TcpConfig::hydra_paper(),
            fault: None,
            link_error: None,
            flooding: None,
            warmup: Duration::ZERO,
            duration: Duration::from_secs(300),
            budget: None,
            seed: 1,
        }
    }

    /// The paper's UDP CBR defaults: 1140 B frames, 5 KB aggregates,
    /// 2 s warmup, 20 s measurement.
    pub fn udp(topology: TopologyKind, policy: Policy, rate: Rate, interval: Duration) -> Self {
        ScenarioSpec {
            traffic: Traffic::Cbr { interval, payload: PAPER_UDP_PAYLOAD },
            warmup: Duration::from_secs(2),
            duration: Duration::from_secs(20),
            ..Self::tcp(topology, policy, rate)
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the flow endpoints; every flow carries the spec's
    /// current default [`Traffic`] (the legacy run-global semantics).
    pub fn with_flows(mut self, flows: Vec<Flow>) -> Self {
        let traffic = self.traffic.per_flow();
        self.flows = flows.into_iter().map(|f| f.with_traffic(traffic)).collect();
        self
    }

    /// Overrides the flows with fully specified per-flow traffic.
    pub fn with_flow_specs(mut self, flows: Vec<FlowSpec>) -> Self {
        self.flows = flows;
        self
    }

    /// Appends one flow (materialising the topology's default flows
    /// first, so a background flow *adds to* rather than replaces the
    /// foreground).
    pub fn add_flow(mut self, flow: FlowSpec) -> Self {
        self.flows = self.effective_flows();
        self.flows.push(flow);
        self
    }

    /// Switches to the spatial medium with adjacent nodes `spacing_m`
    /// metres apart.
    pub fn spatial(mut self, spacing_m: f64) -> Self {
        self.medium = MediumKind::Spatial { spacing_m };
        self
    }

    /// The effective flows: explicit ones, or the topology defaults
    /// carrying the run-global default traffic.
    pub fn effective_flows(&self) -> Vec<FlowSpec> {
        if !self.flows.is_empty() {
            return self.flows.clone();
        }
        let traffic = self.traffic.per_flow();
        let endpoints = match self.traffic {
            Traffic::FileTransfer { .. } => self.topology.default_tcp_flows(),
            Traffic::Cbr { .. } => self.topology.default_cbr_flows(),
        };
        endpoints.into_iter().map(|f| f.with_traffic(traffic)).collect()
    }

    /// Relay nodes: everything that is not an endpoint of some flow.
    /// (DBA's 3-frame gate applies only at relays.)
    pub fn relays(&self) -> Vec<usize> {
        let flows = self.effective_flows();
        let n = self.topology.node_count();
        (0..n).filter(|i| flows.iter().all(|f| f.src != *i && f.dst != *i)).collect()
    }

    /// A stable hash of the whole scenario description, seed included.
    ///
    /// Computed as FNV-1a over the canonical debug rendering, so the
    /// same value always maps to the same hash within a build. The
    /// experiment runner combines it with the replication index via
    /// [`hydra_sim::stream_seed`] to give every `(spec, replication)`
    /// pair its own deterministic RNG stream — two sweep cells that
    /// differ only in `seed` therefore replicate independently.
    pub fn stable_hash(&self) -> u64 {
        /// FNV-1a over whatever is written to it: the rendering is
        /// hashed as it is produced, never materialised.
        struct Fnv1a(u64);
        impl std::fmt::Write for Fnv1a {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for b in s.bytes() {
                    self.0 ^= u64::from(b);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
                Ok(())
            }
        }
        struct Canonical<'a>(&'a ScenarioSpec);
        impl std::fmt::Debug for Canonical<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.render(f, true)
            }
        }
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        std::fmt::write(&mut h, format_args!("{:?}", Canonical(self))).expect("hashing cannot fail");
        h.0
    }

    pub(crate) fn mac_config(&self, node: usize, relays: &[usize]) -> MacConfig {
        let mut cfg = MacConfig::hydra(self.rate);
        cfg.agg = self.policy.agg_for(relays.contains(&node));
        cfg.agg.sizing = self.sizing.unwrap_or(AggSizing::Fixed(self.max_aggregate));
        if let Some(flush) = self.flush_timeout {
            cfg.agg.flush_timeout = flush;
        }
        cfg.broadcast_rate = self.broadcast_rate;
        cfg.ack_policy = self.ack_policy;
        cfg.rts_cts = self.rts_cts;
        cfg
    }

    /// Builds the ready-to-run world: topology, channel, MACs,
    /// applications — one installation per flow, TCP stacks and UDP
    /// sources/sinks side by side.
    pub fn build(&self) -> World {
        self.build_component(None)
    }

    /// [`ScenarioSpec::build`], optionally restricted to one collision
    /// domain: when `only` is set, the world is constructed identically
    /// (same topology, routes, MAC RNG streams, per-domain channel RNG
    /// streams) but traffic is installed only where it belongs — flows
    /// whose source lives in the domain, flooders on the domain's own
    /// nodes. Since frames can never cross a domain boundary, the
    /// restricted world replays exactly the domain's slice of the full
    /// sequential schedule.
    fn build_component(&self, only: Option<u32>) -> World {
        let mut topo = self.topology.build();
        let relays = self.relays();
        let flows = self.effective_flows();
        if matches!(self.topology, TopologyKind::RandomMesh { .. }) {
            // Meshes carry no all-pairs route table; install greedy
            // geographic routes for exactly this run's flows (both
            // directions — TCP ACKs route too).
            topo.install_greedy_routes(flows.iter().flat_map(|f| [(f.src, f.dst), (f.dst, f.src)]));
        }
        let profile = PhyProfile::hydra();
        let mut channel = ChannelStack::hydra(&profile);
        if let Some((drop_chance, corrupt_chance)) = self.fault {
            channel = channel.with(hydra_phy::FaultInjector { drop_chance, corrupt_chance });
        }
        let mut world = World::with_medium(&topo, profile, channel, self.seed, self.medium, |i| {
            self.mac_config(i, &relays)
        });
        if let Some(le) = self.link_error {
            // Per-link streams are derived statelessly from the seed and
            // the link id, so a restricted (sharded) build reproduces
            // each of its links' draws bit-for-bit.
            world.set_link_error(le);
        }

        let stop = Instant::ZERO + self.warmup + self.duration + Duration::from_secs(1);
        for (i, f) in flows.iter().enumerate() {
            // Flow ports and UDP source ports stay keyed by the flow's
            // *original* index, so a restricted build installs exactly
            // the same sources the full build would.
            if only.is_some_and(|c| world.component_of(f.src) != c) {
                continue;
            }
            match f.traffic {
                FlowTraffic::FileTransfer { bytes } => {
                    install_transfer(&mut world, f.src, f.dst, f.port, bytes, &self.tcp);
                }
                FlowTraffic::Cbr { interval, payload } => {
                    install_udp(
                        &mut world,
                        f,
                        UdpCbr::new(udp_dst(f), 4000 + i as u16, payload, interval, Instant::ZERO)
                            .until(stop),
                    );
                }
                FlowTraffic::OnOff { burst, idle, interval, payload } => {
                    let src = UdpCbr::new(udp_dst(f), 4000 + i as u16, payload, interval, Instant::ZERO)
                        .on_off(burst, idle)
                        .until(stop);
                    install_udp(&mut world, f, src);
                }
            }
        }
        if let Some(fl) = self.flooding {
            for i in 0..world.nodes.len() {
                if only.is_some_and(|c| world.component_of(i) != c) {
                    continue;
                }
                // Stagger starts so flooders don't align.
                let start = Instant::ZERO + Duration::from_millis(13 * (i as u64 + 1));
                let node = &mut world.nodes[i];
                node.apps.flooder = Some(Flooder::new(fl.interval, fl.payload, start).until(stop));
                node.apps.flood_sink = FloodSink::new();
            }
        }
        world
    }

    /// Runs the scenario to completion and reports.
    ///
    /// * All-file-transfer specs run until every transfer completes or
    ///   the `warmup + duration` horizon passes (warmup defaults to
    ///   zero for file traffic, so this is the paper's `duration`
    ///   deadline) — the paper's TCP semantics.
    /// * Specs without file transfers run for `warmup + duration` and
    ///   measure goodput over the window — the paper's UDP semantics.
    /// * Mixed specs run to the horizon `warmup + duration`: window
    ///   flows measure over `[warmup, warmup+duration]` exactly as in
    ///   a pure UDP run, and every file transfer must finish by the
    ///   horizon for the run to count as `completed`. The headline
    ///   `throughput_bps` is the worst *file-transfer* flow (the
    ///   foreground), so background intensity sweeps stay comparable.
    pub fn run(&self) -> RunOutcome {
        // Infallible by construction for unbudgeted specs — the only
        // `RunError` source below `try_run` is the budget gate. Budgeted
        // specs should go through [`ScenarioSpec::try_run`]; here a
        // tripped budget panics (and the experiment runner's
        // `catch_unwind` still contains it).
        self.run_fallible().unwrap_or_else(|e| panic!("scenario run failed: {e}"))
    }

    /// Runs the scenario, containing every failure as a [`RunError`]:
    /// a tripped [`RunBudget`] comes back as
    /// [`RunError::BudgetExhausted`] and a panic anywhere in build/run
    /// is caught and preserved as [`RunError::Panicked`]. This is the
    /// entry point the experiment runner uses for every job.
    pub fn try_run(&self) -> Result<RunOutcome, RunError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_fallible()))
            .unwrap_or_else(|payload| Err(RunError::Panicked(panic_message(payload))))
    }

    /// Build + run with the budget armed; shared by [`ScenarioSpec::run`]
    /// and [`ScenarioSpec::try_run`]. Panics are NOT caught here.
    fn run_fallible(&self) -> Result<RunOutcome, RunError> {
        let flows = self.effective_flows();
        let started = std::time::Instant::now();
        let allocs0 = hydra_sim::alloc_stats();
        let world = self.build();
        self.run_in(world, &flows, Self::run_mode(&flows), started, allocs0)
    }

    /// [`ScenarioSpec::run`] with the medium swapped to its dense O(n²)
    /// reference backend before the first event fires. Link
    /// classification is identical, so the outcome must be
    /// event-for-event identical to `run()` — the equivalence oracle
    /// the property tests exercise, and the "dense sequential" baseline
    /// the profiler's scale grid measures speedups against.
    pub fn run_dense_reference(&self) -> RunOutcome {
        let flows = self.effective_flows();
        let started = std::time::Instant::now();
        let allocs0 = hydra_sim::alloc_stats();
        let mut world = self.build();
        world.densify_medium();
        self.run_in(world, &flows, Self::run_mode(&flows), started, allocs0)
            .unwrap_or_else(|e| panic!("reference run failed: {e}"))
    }

    /// [`ScenarioSpec::run`] with the event queue swapped to its
    /// `BinaryHeap` reference backend before the first event fires. Pop
    /// order is identical by construction, so the outcome must be
    /// event-for-event identical to `run()` — the scheduler analogue of
    /// [`ScenarioSpec::run_dense_reference`], asserted and timed by the
    /// profiler's `--queue` grid.
    pub fn run_heap_reference(&self) -> RunOutcome {
        let flows = self.effective_flows();
        let started = std::time::Instant::now();
        let allocs0 = hydra_sim::alloc_stats();
        let mut world = self.build();
        world.use_heap_reference_queue();
        self.run_in(world, &flows, Self::run_mode(&flows), started, allocs0)
            .unwrap_or_else(|e| panic!("reference run failed: {e}"))
    }

    /// The orchestration mode a flow mix selects: `(has_file, has_window)`.
    fn run_mode(flows: &[FlowSpec]) -> (bool, bool) {
        let has_file = flows.iter().any(|f| f.traffic.is_file());
        let has_window = flows.iter().any(|f| !f.traffic.is_file());
        (has_file, has_window)
    }

    /// Runs a pre-built world under `mode` over `flows` (which must be
    /// exactly the flows installed in `world`, in original order),
    /// arming the spec's [`RunBudget`] first. `Err` only when the
    /// budget trips.
    fn run_in(
        &self,
        mut world: World,
        flows: &[FlowSpec],
        mode: (bool, bool),
        started: std::time::Instant,
        allocs0: hydra_sim::AllocStats,
    ) -> Result<RunOutcome, RunError> {
        if let Some(budget) = self.budget {
            world.set_budget(budget);
        }
        match mode {
            (true, false) => self.run_tcp(world, flows, started, allocs0),
            (false, true) => self.run_cbr(world, flows, started, allocs0),
            (true, true) => self.run_mixed(world, flows, started, allocs0),
            (false, false) => unreachable!("a topology always has at least one default flow"),
        }
    }

    /// Runs the scenario with one worker thread per collision domain
    /// (connected component of the carrier-sense graph), merging the
    /// per-domain results into the sequential outcome.
    ///
    /// Domains are causally independent — no frame, carrier-sense edge,
    /// or channel draw crosses a component boundary (the per-domain
    /// channel RNG streams in [`World`] make the last one true by
    /// construction) — so each domain's slice of the global event
    /// schedule replays identically in its own restricted world, and:
    ///
    /// * per-flow outcomes (bytes, goodput, completion times), the
    ///   `completed` flag, and the headline throughput are **always**
    ///   identical to [`ScenarioSpec::run`];
    /// * per-node reports and collision counts match wherever every
    ///   domain runs the same virtual span as the sequential engine —
    ///   window-measured and mixed runs (both run to the fixed
    ///   horizon), and single-domain worlds (which take the sequential
    ///   path exactly: `threads` is ignored and `run()` is called).
    ///   Pure file-transfer runs on a *multi*-domain medium stop each
    ///   domain at its own completion instant, so post-completion
    ///   bookkeeping (FIN exchanges after the last payload byte) can
    ///   differ from the sequential engine's tail.
    ///
    /// `threads = 0` asks for one worker per available CPU;
    /// `threads = 1` runs the domains sequentially on the calling
    /// thread (the reference schedule the determinism tests compare
    /// against). Which thread runs which domain never matters: every
    /// domain world is built and run in isolation and the merge is by
    /// domain index.
    pub fn run_sharded(&self, threads: usize) -> RunOutcome {
        let Some(plan) = self.shard_plan() else { return self.run() };
        plan.merge(hydra_sim::pool::run_indexed(plan.domains(), threads, |c| plan.run_domain(c as u32)))
    }

    /// The scenario's decomposition into collision domains, or `None`
    /// when the world is a single domain (nothing to decompose). This
    /// is the shard-task handoff external schedulers use: the bench
    /// runner turns each domain into one pool task
    /// ([`ShardPlan::run_domain`]) and reassembles the outcome with
    /// [`ShardPlan::merge`]; [`ScenarioSpec::run_sharded`] is the
    /// self-contained form of the same machinery.
    pub fn shard_plan(&self) -> Option<ShardPlan<'_>> {
        let started = std::time::Instant::now();
        let allocs0 = hydra_sim::alloc_stats();
        let flows = self.effective_flows();
        // Discover the collision domains from the medium alone (cheap
        // next to a run; routes are not needed for geometry).
        let topo = self.topology.build();
        let profile = PhyProfile::hydra();
        let medium = self.medium.build_medium(&topo, &profile);
        let comps = medium.components();
        if comps.len() <= 1 {
            return None;
        }
        let mut comp_of = vec![0u32; topo.n];
        let mut domain_nodes = vec![0usize; comps.len()];
        for (c, members) in comps.iter().enumerate() {
            domain_nodes[c] = members.len();
            for &i in members {
                comp_of[i] = c as u32;
            }
        }
        let mut domain_flows = vec![0usize; comps.len()];
        for f in &flows {
            domain_flows[comp_of[f.src] as usize] += 1;
        }
        let mode = Self::run_mode(&flows);
        let n = topo.n;
        Some(ShardPlan { spec: self, flows, mode, comp_of, domain_nodes, domain_flows, n, started, allocs0 })
    }

    /// Telemetry for a finished world (allocation deltas vs the marks
    /// taken before `build()`).
    fn collect_perf(world: &World, started: std::time::Instant, allocs0: hydra_sim::AllocStats) -> RunPerf {
        let allocs = hydra_sim::alloc_stats().since(allocs0);
        RunPerf {
            events_processed: world.events_processed,
            events_stale: world.events_stale,
            timer_rearms: world.timer_rearms(),
            queue: world.queue_stats(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            allocations: allocs.allocations,
            allocated_bytes: allocs.allocated_bytes,
        }
    }

    /// Labeled outcomes for the file-transfer flows, in flow order.
    /// Receivers are installed in flow order, so the k-th file flow
    /// targeting a node owns the k-th `file_rx` slot there.
    fn file_outcomes(world: &World, flows: &[FlowSpec]) -> Vec<FlowOutcome> {
        let mut next_rx = vec![0usize; world.nodes.len()];
        flows
            .iter()
            .filter(|f| f.traffic.is_file())
            .map(|f| {
                let idx = next_rx[f.dst];
                next_rx[f.dst] += 1;
                let (rx, _) = &world.nodes[f.dst].apps.file_rx[idx];
                FlowOutcome::new(
                    *f,
                    rx.received as u64,
                    rx.throughput_bps(Instant::ZERO).unwrap_or(0.0),
                    rx.completed_at,
                )
            })
            .collect()
    }

    /// The worst (slowest) throughput across a set of flow outcomes —
    /// the paper reports the worst session for multi-session runs.
    fn worst_bps(outcomes: &[FlowOutcome]) -> f64 {
        let worst = outcomes.iter().map(|o| o.bps).fold(f64::INFINITY, f64::min);
        if worst.is_finite() {
            worst
        } else {
            0.0
        }
    }

    fn run_tcp(
        &self,
        mut world: World,
        flows: &[FlowSpec],
        started: std::time::Instant,
        allocs0: hydra_sim::AllocStats,
    ) -> Result<RunOutcome, RunError> {
        world.start();
        // The same horizon a mixed run uses (warmup is zero for every
        // legacy file-transfer spec, so this is the paper's `duration`
        // deadline there) — keeping the two run modes comparable when a
        // sweep varies only the background flows.
        let deadline = Instant::ZERO + self.warmup + self.duration;
        let done = world.run_until_transfers_complete(deadline);
        world.check_budget()?;
        let now = world.now();
        let per_flow = Self::file_outcomes(&world, flows);
        Ok(RunOutcome {
            completed: done,
            throughput_bps: Self::worst_bps(&per_flow),
            per_flow,
            report: RunReport::collect(&world, now),
            perf: Self::collect_perf(&world, started, allocs0),
        })
    }

    fn run_cbr(
        &self,
        mut world: World,
        flows: &[FlowSpec],
        started: std::time::Instant,
        allocs0: hydra_sim::AllocStats,
    ) -> Result<RunOutcome, RunError> {
        world.start();
        // One measurement per flow, keyed by its (sink node, port) pair —
        // flows sharing a sink node stay separate.
        world.run_until(Instant::ZERO + self.warmup);
        let start: Vec<u64> = flows.iter().map(|f| udp_bytes_at(&world, f)).collect();
        world.run_until(Instant::ZERO + self.warmup + self.duration);
        world.check_budget()?;
        let per_flow = Self::window_outcomes(&world, flows, &start, self.duration);
        let now = world.now();
        Ok(RunOutcome {
            completed: true,
            throughput_bps: Self::worst_bps(&per_flow),
            per_flow,
            report: RunReport::collect(&world, now),
            perf: Self::collect_perf(&world, started, allocs0),
        })
    }

    /// Labeled outcomes for window-measured (CBR/on-off) flows given
    /// their byte counts at the window start. `starts` must align with
    /// `flows` (file flows' entries are ignored).
    fn window_outcomes(
        world: &World,
        flows: &[FlowSpec],
        starts: &[u64],
        window: Duration,
    ) -> Vec<FlowOutcome> {
        let secs = window.as_secs_f64();
        flows
            .iter()
            .zip(starts)
            .filter(|(f, _)| !f.traffic.is_file())
            .map(|(f, &s0)| {
                let bytes = udp_bytes_at(world, f) - s0;
                FlowOutcome::new(*f, bytes, if secs > 0.0 { bytes as f64 * 8.0 / secs } else { 0.0 }, None)
            })
            .collect()
    }

    /// Heterogeneous run: TCP file transfers and window-measured UDP
    /// flows in one world (see [`ScenarioSpec::run`] for the
    /// semantics). Results come back in flow order.
    fn run_mixed(
        &self,
        mut world: World,
        flows: &[FlowSpec],
        started: std::time::Instant,
        allocs0: hydra_sim::AllocStats,
    ) -> Result<RunOutcome, RunError> {
        world.start();
        world.run_until(Instant::ZERO + self.warmup);
        let start: Vec<u64> = flows.iter().map(|f| udp_bytes_at(&world, f)).collect();
        // Run to the horizon even if every transfer finishes early, so
        // the UDP window is always exactly `duration` wide (cells of a
        // background-intensity sweep stay comparable).
        let horizon = Instant::ZERO + self.warmup + self.duration;
        world.run_until_transfers_complete(horizon);
        world.run_until(horizon);
        world.check_budget()?;
        let completed = world.transfers_complete();
        let file = Self::file_outcomes(&world, flows);
        let window = Self::window_outcomes(&world, flows, &start, self.duration);
        // Stitch back into flow order.
        let (mut fi, mut wi) = (file.into_iter(), window.into_iter());
        let per_flow: Vec<FlowOutcome> = flows
            .iter()
            .map(|f| {
                if f.traffic.is_file() {
                    fi.next().expect("one outcome per file flow")
                } else {
                    wi.next().expect("one outcome per window flow")
                }
            })
            .collect();
        let foreground: Vec<FlowOutcome> =
            per_flow.iter().filter(|o| o.flow.traffic.is_file()).cloned().collect();
        let now = world.now();
        Ok(RunOutcome {
            completed,
            throughput_bps: Self::worst_bps(&foreground),
            per_flow,
            report: RunReport::collect(&world, now),
            perf: Self::collect_perf(&world, started, allocs0),
        })
    }
}

/// A scenario's decomposition into collision domains — the shard-task
/// handoff between [`ScenarioSpec::run_sharded`] and external
/// schedulers (the bench runner executes one pool task per domain).
///
/// Domains are causally independent (see
/// [`ScenarioSpec::run_sharded`]'s contract), so [`ShardPlan::run_domain`]
/// calls may execute in any order, on any threads, and
/// [`ShardPlan::merge`] reassembles the sequential outcome. A plan
/// whose [`ShardPlan::exact`] is `false` (pure file-transfer traffic
/// on a multi-domain medium) still merges per-flow results exactly but
/// may differ from [`ScenarioSpec::run`] in post-completion node
/// bookkeeping — schedulers that promise byte-identical tables must
/// not decompose such cells.
#[derive(Debug)]
pub struct ShardPlan<'a> {
    spec: &'a ScenarioSpec,
    flows: Vec<FlowSpec>,
    /// `(has_file, has_window)` over the flow mix.
    mode: (bool, bool),
    comp_of: Vec<u32>,
    domain_nodes: Vec<usize>,
    domain_flows: Vec<usize>,
    n: usize,
    started: std::time::Instant,
    allocs0: hydra_sim::AllocStats,
}

impl ShardPlan<'_> {
    /// Number of collision domains (always ≥ 2: single-domain worlds
    /// return no plan).
    pub fn domains(&self) -> usize {
        self.domain_nodes.len()
    }

    /// Nodes living in domain `c`.
    pub fn domain_nodes(&self, c: u32) -> usize {
        self.domain_nodes[c as usize]
    }

    /// Flows whose source lives in domain `c`.
    pub fn domain_flows(&self, c: u32) -> usize {
        self.domain_flows[c as usize]
    }

    /// Domain `c`'s estimated share of the whole run's work, in
    /// `(0, 1]`: traffic dominates event counts, nodes dominate world
    /// construction. Schedulers use this to split a cell's predicted
    /// cost across its shard tasks.
    pub fn cost_share(&self, c: u32) -> f64 {
        let weight = |d: usize| self.domain_nodes[d] as f64 + 8.0 * self.domain_flows[d] as f64;
        let total: f64 = (0..self.domains()).map(weight).sum();
        weight(c as usize) / total.max(1.0)
    }

    /// True when the decomposed outcome is byte-identical to
    /// [`ScenarioSpec::run`] — window-measured and mixed runs, which
    /// run every domain to the same fixed horizon. Pure file-transfer
    /// multi-domain runs are *not* exact (each domain stops at its own
    /// completion instant, so post-completion bookkeeping can differ).
    pub fn exact(&self) -> bool {
        self.mode != (true, false)
    }

    /// Builds and runs domain `c`'s restricted world, replaying exactly
    /// that domain's slice of the sequential schedule.
    ///
    /// Panics on a domain failure (a tripped budget — each domain world
    /// gets the spec's full budget, as documented in
    /// docs/ROBUSTNESS.md); callers that must survive failures wrap the
    /// call in `catch_unwind`, as the experiment runner does.
    pub fn run_domain(&self, c: u32) -> RunOutcome {
        let sub: Vec<FlowSpec> = self.flows.iter().filter(|f| self.comp_of[f.src] == c).copied().collect();
        let world = self.spec.build_component(Some(c));
        self.spec
            .run_in(world, &sub, self.mode, std::time::Instant::now(), hydra_sim::alloc_stats())
            .unwrap_or_else(|e| panic!("domain run failed: {e}"))
    }

    /// Merges the per-domain outcomes (indexed by domain, one per
    /// domain) back into the whole-run outcome: each flow and node
    /// belongs to exactly one domain, event/queue tallies sum, and the
    /// wall clock spans from plan creation to the merge.
    pub fn merge(&self, by_comp: Vec<RunOutcome>) -> RunOutcome {
        assert_eq!(by_comp.len(), self.domains(), "one outcome per domain");
        let mut sub_iters: Vec<std::vec::IntoIter<FlowOutcome>> =
            by_comp.iter().map(|o| o.per_flow.clone().into_iter()).collect();
        let per_flow: Vec<FlowOutcome> = self
            .flows
            .iter()
            .map(|f| sub_iters[self.comp_of[f.src] as usize].next().expect("one outcome per flow"))
            .collect();
        let (has_file, _) = self.mode;
        let headline: Vec<FlowOutcome> = if has_file {
            per_flow.iter().filter(|o| o.flow.traffic.is_file()).cloned().collect()
        } else {
            per_flow.clone()
        };
        let report = RunReport {
            nodes: (0..self.n).map(|i| by_comp[self.comp_of[i] as usize].report.nodes[i].clone()).collect(),
            at: by_comp.iter().map(|o| o.report.at).max().expect("at least one domain"),
            collisions: by_comp.iter().map(|o| o.report.collisions).sum(),
        };
        let allocs = hydra_sim::alloc_stats().since(self.allocs0);
        RunOutcome {
            completed: by_comp.iter().all(|o| o.completed),
            throughput_bps: ScenarioSpec::worst_bps(&headline),
            per_flow,
            report,
            perf: RunPerf {
                events_processed: by_comp.iter().map(|o| o.perf.events_processed).sum(),
                events_stale: by_comp.iter().map(|o| o.perf.events_stale).sum(),
                timer_rearms: by_comp.iter().map(|o| o.perf.timer_rearms).sum(),
                queue: by_comp.iter().fold(hydra_sim::QueueStats::default(), |acc, o| {
                    hydra_sim::QueueStats {
                        scheduled: acc.scheduled + o.perf.queue.scheduled,
                        popped: acc.popped + o.perf.queue.popped,
                        overflow_scheduled: acc.overflow_scheduled + o.perf.queue.overflow_scheduled,
                        promoted: acc.promoted + o.perf.queue.promoted,
                    }
                }),
                wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
                allocations: allocs.allocations,
                allocated_bytes: allocs.allocated_bytes,
            },
        }
    }
}

/// Renders a caught panic payload as a message (the common `String`
/// and `&str` payloads verbatim; anything else gets a placeholder).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// The UDP destination endpoint of a flow.
fn udp_dst(f: &FlowSpec) -> Endpoint {
    Endpoint::new(Ipv4Addr::from_node_id(f.dst as u16), f.port)
}

/// Payload bytes the flow's sink has received on its port.
fn udp_bytes_at(world: &World, f: &FlowSpec) -> u64 {
    world.nodes[f.dst].apps.udp_sink.as_ref().map_or(0, |s| s.port_bytes(f.port))
}

/// Installs a UDP source at the flow's src and (if missing) a sink at
/// its dst.
fn install_udp(world: &mut World, f: &FlowSpec, source: UdpCbr) {
    world.nodes[f.src].apps.udp_sources.push(source);
    if world.nodes[f.dst].apps.udp_sink.is_none() {
        world.nodes[f.dst].apps.udp_sink = Some(UdpSink::new());
    }
}

/// Installs a one-way TCP file transfer between two nodes.
pub(crate) fn install_transfer(
    world: &mut World,
    server: usize,
    client: usize,
    port: u16,
    bytes: usize,
    cfg: &TcpConfig,
) {
    let client_addr = Ipv4Addr::from_node_id(client as u16);
    let iss_s = 1000 + port as u32;
    let iss_c = 2000 + port as u32;
    let listen = world.nodes[client].tcp.listen(cfg.clone(), port, iss_c);
    world.nodes[client].apps.file_rx.push((FileReceiver::new(bytes), listen));
    let sock =
        world.nodes[server].tcp.connect(cfg.clone(), port + 1000, Endpoint::new(client_addr, port), iss_s);
    world.nodes[server].apps.file_tx.push((FileSender::new(bytes), sock));
}

/// Per-run performance telemetry: how fast the *simulator* ran, not
/// what it simulated.
///
/// Deliberately second-class data: excluded from [`RunOutcome`]
/// equality, never written to the persistent result cache, and absent
/// from every table — so a cached outcome and a fresh one still render
/// byte-identically, and determinism tests keep passing on machines of
/// any speed. The allocation counters are zero unless the binary
/// installs [`hydra_sim::CountingAlloc`] (see `--bin profile`), and are
/// process-wide — under a multi-threaded runner they include every
/// concurrent run.
#[derive(Debug, Clone, Default)]
pub struct RunPerf {
    /// Events dispatched by the world's run loop.
    pub events_processed: u64,
    /// Dispatched MAC timer events whose token was already superseded —
    /// lazy cancellation's dead weight, skipped by the world's
    /// stale-token fast path (a subset of `events_processed`).
    pub events_stale: u64,
    /// MAC timer slots re-armed while live; each re-arm stranded one of
    /// the stale events above in the queue.
    pub timer_rearms: u64,
    /// Event-queue operation tallies (schedules, pops, overflow traffic).
    pub queue: hydra_sim::QueueStats,
    /// Wall-clock duration of build + run, in milliseconds.
    pub wall_ms: f64,
    /// Allocation calls during the run (0 without the counting allocator).
    pub allocations: u64,
    /// Bytes requested by those calls.
    pub allocated_bytes: u64,
}

impl RunPerf {
    /// Simulator throughput in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events_processed as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }

    /// Fraction of dispatched events that were stale timers.
    pub fn stale_ratio(&self) -> f64 {
        if self.events_processed > 0 {
            self.events_stale as f64 / self.events_processed as f64
        } else {
            0.0
        }
    }
}

/// Result of a [`ScenarioSpec`] run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// FileTransfer flows: every transfer finished before the
    /// deadline/horizon. Window-only runs: always true.
    pub completed: bool,
    /// The headline metric, bit/s: worst file-transfer throughput when
    /// any file flow exists (the foreground), else worst window-flow
    /// goodput.
    pub throughput_bps: f64,
    /// Labeled per-flow results, in flow order.
    pub per_flow: Vec<FlowOutcome>,
    /// Per-node MAC/NET reports.
    pub report: RunReport,
    /// Simulator performance telemetry (see [`RunPerf`]: measurement
    /// only, excluded from equality and the result cache).
    pub perf: RunPerf,
}

impl RunOutcome {
    /// The bare per-flow numbers, in flow order (throughput for file
    /// transfers, goodput for window flows).
    pub fn per_flow_bps(&self) -> Vec<f64> {
        self.per_flow.iter().map(|o| o.bps).collect()
    }
}

/// Equality covers the *simulated* result only — [`RunPerf`] is
/// wall-clock noise and must never make two outcomes differ (cached vs
/// fresh, fast machine vs slow).
impl PartialEq for RunOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.completed == other.completed
            && self.throughput_bps == other.throughput_bps
            && self.per_flow == other.per_flow
            && self.report == other.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relays_are_non_endpoints() {
        let spec = ScenarioSpec::tcp(TopologyKind::Linear(3), Policy::Ba, Rate::R1_30);
        assert_eq!(spec.relays(), vec![1, 2]);
        let star = ScenarioSpec::tcp(TopologyKind::Star, Policy::Ba, Rate::R1_30);
        assert_eq!(star.relays(), vec![1]);
        let cross = ScenarioSpec::tcp(TopologyKind::Cross, Policy::Ba, Rate::R1_30);
        assert_eq!(cross.relays(), vec![4]);
    }

    #[test]
    fn stable_hash_is_sensitive_to_every_field_including_seed() {
        let a = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        assert_eq!(a.stable_hash(), a.clone().stable_hash());
        let b = a.clone().with_seed(99);
        assert_ne!(a.stable_hash(), b.stable_hash());
        let c = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ua, Rate::R1_30);
        assert_ne!(a.stable_hash(), c.stable_hash());
        let d = ScenarioSpec::tcp(TopologyKind::Linear(3), Policy::Ba, Rate::R1_30);
        assert_ne!(a.stable_hash(), d.stable_hash());
    }

    #[test]
    fn shared_domain_hash_ignores_the_medium_field() {
        // Paper-mode specs must keep their pre-spatial hashes: the medium
        // field only contributes once it leaves the default.
        let spec = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        assert!(format!("{spec:?}").contains("medium: SharedDomain"));
        let strip = |s: &ScenarioSpec| {
            let repr = format!("{s:?}")
                .replacen("medium: SharedDomain, ", "", 1)
                .replacen("link_error: None, ", "", 1)
                .replacen("budget: None, ", "", 1);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in repr.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        };
        assert_eq!(spec.stable_hash(), strip(&spec));
        // Spatial specs are distinct sweep cells, sensitive to spacing.
        let s5 = spec.clone().spatial(5.0);
        let s7 = spec.clone().spatial(7.0);
        assert_ne!(spec.stable_hash(), s5.stable_hash());
        assert_ne!(s5.stable_hash(), s7.stable_hash());
        // Every mix of defaulted and configured late fields hashes to the
        // string-surgery definition above: a configured field is hashed, a
        // defaulted one beside it is still left out.
        let mut lossy = spec.clone();
        lossy.link_error = Some(LinkErrorSpec::model(LinkErrorModel::Independent { ber: 0.01 }));
        let mut budgeted = s5.clone();
        budgeted.budget = Some(RunBudget { max_events: Some(1000), max_wall: None });
        let mut all = budgeted.clone();
        all.link_error = lossy.link_error;
        let mixed = ScenarioSpec::udp(TopologyKind::Star, Policy::Ua, Rate::R2_60, Duration::from_millis(20))
            .with_flow_specs(vec![
                Flow { src: 0, dst: 2, port: 9 }.with_traffic(FlowTraffic::FileTransfer { bytes: 5000 })
            ]);
        for s in [&s5, &lossy, &budgeted, &all, &mixed] {
            assert_eq!(s.stable_hash(), strip(s), "{s:?}");
        }
    }

    #[test]
    fn default_flows_cover_every_topology() {
        for kind in [
            TopologyKind::Linear(2),
            TopologyKind::Star,
            TopologyKind::Grid { w: 3, h: 2 },
            TopologyKind::Cross,
            TopologyKind::RandomMesh { nodes: 40, area_m: 40, seed: 5 },
        ] {
            let spec = ScenarioSpec::tcp(kind, Policy::Ba, Rate::R1_30);
            let n = kind.build().n;
            for f in spec.effective_flows() {
                assert!(f.src < n && f.dst < n, "{kind:?}: flow out of range");
                assert_ne!(f.src, f.dst);
                assert_eq!(f.traffic, spec.traffic.per_flow(), "defaults inherit the global traffic");
            }
        }
    }

    /// The per-flow refactor must not move a single legacy hash: these
    /// renderings and hashes were captured from the pre-refactor build
    /// (PR 4 tree), where `flows` was a `Vec<Flow>` and traffic was
    /// run-global. They pin the canonical Debug form — and therefore
    /// every derived world seed, cache key, and published table.
    #[test]
    fn legacy_debug_renderings_and_hashes_are_golden() {
        let plain = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        assert_eq!(
            format!("{plain:?}"),
            "ScenarioSpec { topology: Linear(2), medium: SharedDomain, policy: Ba, rate: R1_30, \
             broadcast_rate: None, traffic: FileTransfer { bytes: 204800 }, flows: [], \
             max_aggregate: 5120, sizing: None, ack_policy: Normal, rts_cts: true, \
             flush_timeout: None, tcp: TcpConfig { mss: 1357, recv_buffer: 65535, \
             send_buffer: 16384, initial_cwnd_segments: 2, initial_ssthresh: 4294967295, \
             rto_initial: Duration { nanos: 1000000000 }, rto_min: Duration { nanos: 200000000 }, \
             rto_max: Duration { nanos: 60000000000 }, delayed_ack: false, \
             delayed_ack_timeout: Duration { nanos: 40000000 }, max_retransmits: 12, \
             time_wait: Duration { nanos: 500000000 } }, fault: None, link_error: None, \
             flooding: None, warmup: Duration { nanos: 0 }, \
             duration: Duration { nanos: 300000000000 }, budget: None, seed: 1 }"
        );
        assert_eq!(plain.stable_hash(), 0xf4a8_be67_a0cd_9e2b);

        // Explicit legacy flows render as the old `Flow { .. }`.
        let flows = plain.clone().with_flows(vec![Flow { src: 0, dst: 2, port: 5001 }]);
        assert!(format!("{flows:?}").contains("flows: [Flow { src: 0, dst: 2, port: 5001 }]"));
        assert_eq!(flows.stable_hash(), 0x9b55_695f_0eed_372f);

        let mut udp =
            ScenarioSpec::udp(TopologyKind::Star, Policy::Ua, Rate::R0_65, Duration::from_millis(10));
        udp = udp
            .clone()
            .with_flows(vec![Flow { src: 2, dst: 0, port: 9000 }, Flow { src: 3, dst: 0, port: 9001 }]);
        assert_eq!(udp.stable_hash(), 0x447f_7705_ed37_b3c6);

        let mut cross = ScenarioSpec::tcp(TopologyKind::Cross, Policy::Dba, Rate::R2_60);
        cross.traffic = Traffic::FileTransfer { bytes: 50 * 1024 };
        cross.flooding = Some(Flooding { interval: Duration::from_millis(250), payload: 120 });
        assert_eq!(cross.stable_hash(), 0xbed7_0200_2d9d_19de);
    }

    #[test]
    fn mixed_flows_render_distinctly_and_hash_differently() {
        let base = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        let legacy = base.clone().with_flows(vec![Flow { src: 0, dst: 2, port: 5001 }]);
        let mixed = base.clone().with_flow_specs(vec![
            FlowSpec { src: 0, dst: 2, port: 5001, traffic: base.traffic.per_flow() },
            FlowSpec {
                src: 0,
                dst: 2,
                port: 9000,
                traffic: FlowTraffic::Cbr { interval: Duration::from_millis(10), payload: 160 },
            },
        ]);
        let repr = format!("{mixed:?}");
        // Inherited-traffic flows keep the legacy rendering even inside
        // a mixed list; overriding flows carry their traffic.
        assert!(repr.contains("Flow { src: 0, dst: 2, port: 5001 }"), "{repr}");
        assert!(
            repr.contains(
                "FlowSpec { src: 0, dst: 2, port: 9000, traffic: \
                 Cbr { interval: Duration { nanos: 10000000 }, payload: 160 }"
            ),
            "{repr}"
        );
        assert_ne!(mixed.stable_hash(), legacy.stable_hash());
        // A per-flow override equal to the global default is the same
        // value as the legacy form — same hash, same cell.
        let equal = base.clone().with_flow_specs(vec![FlowSpec {
            src: 0,
            dst: 2,
            port: 5001,
            traffic: FlowTraffic::FileTransfer { bytes: hydra_app::PAPER_FILE_BYTES },
        }]);
        assert_eq!(equal, legacy);
        assert_eq!(equal.stable_hash(), legacy.stable_hash());
    }

    #[test]
    fn mesh_specs_build_and_keep_ports_unique() {
        let kind = TopologyKind::RandomMesh { nodes: 40, area_m: 40, seed: 5 };
        let spec = ScenarioSpec::tcp(kind, Policy::Ba, Rate::R1_30).spatial(1.0);
        let flows = spec.effective_flows();
        assert_eq!(flows.len(), 10, "≈ nodes/4 default flows");
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.port, 5001 + i as u16);
            assert!(flows[..i].iter().all(|p| (p.src, p.dst) != (f.src, f.dst)), "distinct pairs");
        }
        // Deterministic across calls (the mesh seed, not the run seed).
        assert_eq!(flows, spec.clone().with_seed(99).effective_flows());
        // The world builds: greedy routes installed for every flow.
        let world = spec.build();
        assert_eq!(world.nodes.len(), 40);
        let mesh_udp = ScenarioSpec::udp(kind, Policy::Na, Rate::R1_30, Duration::from_millis(20));
        assert!(mesh_udp.effective_flows().iter().enumerate().all(|(i, f)| f.port == 9000 + i as u16));
    }

    #[test]
    fn add_flow_materialises_defaults_first() {
        let bg = FlowSpec {
            src: 0,
            dst: 2,
            port: 9000,
            traffic: FlowTraffic::Cbr { interval: Duration::from_millis(10), payload: 160 },
        };
        let spec = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30).add_flow(bg);
        let flows = spec.effective_flows();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].port, 5001, "foreground default kept");
        assert!(flows[0].traffic.is_file());
        assert_eq!(flows[1], bg);
        // The CBR endpoints are not relays.
        assert_eq!(spec.relays(), vec![1]);
    }

    /// A tiny spec that finishes fast — the budget/failure tests' workhorse.
    fn small_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::tcp(TopologyKind::Linear(1), Policy::Na, Rate::R5_20);
        spec.traffic = Traffic::FileTransfer { bytes: 10 * 1024 };
        spec
    }

    #[test]
    fn absent_budget_keeps_the_legacy_hash_and_a_set_budget_changes_it() {
        let plain = small_spec();
        // The field renders in the canonical Debug form …
        assert!(format!("{plain:?}").contains("budget: None, "), "{plain:?}");
        // … but the hash strips `budget: None` (the absent-key rule),
        // while a configured budget is a distinct cell.
        let mut budgeted = plain.clone();
        budgeted.budget = Some(RunBudget::events(1_000_000));
        assert_ne!(plain.stable_hash(), budgeted.stable_hash());
        let mut walled = plain.clone();
        walled.budget = Some(RunBudget { max_events: None, max_wall: Some(Duration::from_secs(60)) });
        assert_ne!(budgeted.stable_hash(), walled.stable_hash());
    }

    #[test]
    fn event_budget_trips_deterministically_and_try_run_reports_it() {
        let mut spec = small_spec();
        spec.budget = Some(RunBudget::events(500));
        let err = spec.try_run().expect_err("500 events cannot finish a transfer");
        assert_eq!(err, RunError::BudgetExhausted { events: 500 });
        assert_eq!(err.reason(), "budget");
        // Deterministic: same spec, same trip point.
        assert_eq!(spec.try_run().expect_err("still budgeted"), err);
    }

    #[test]
    fn a_generous_budget_changes_nothing_but_the_hash() {
        let plain = small_spec();
        let mut roomy = small_spec();
        roomy.budget = Some(RunBudget::events(u64::MAX));
        let a = plain.run();
        let b = roomy.try_run().expect("budget never trips");
        // Seeds derive from the *spec's own* seed field here (both 1),
        // so the worlds are identical and outcomes must match exactly.
        assert_eq!(a, b);
    }

    /// A spec that genuinely panics: `Mac::new` rejects a zero-byte
    /// aggregate inside `build()`, under the same `catch_unwind` as the
    /// run. Any spec that panics inside build/run will do.
    fn panicking_spec() -> ScenarioSpec {
        let mut spec = small_spec();
        spec.max_aggregate = 0;
        spec
    }

    #[test]
    fn try_run_contains_panics() {
        let err = panicking_spec().try_run().expect_err("a zero-byte aggregate cannot build");
        assert_eq!(err.reason(), "panic");
        let RunError::Panicked(msg) = err else { panic!("{err:?}") };
        assert!(
            msg.contains("invalid MacConfig") && msg.contains("max aggregate below one subframe"),
            "{msg}"
        );
        // Nothing outlives a failed job: the next run on this thread is
        // clean and matches an undisturbed one.
        let spec = small_spec();
        assert_eq!(spec.try_run().expect("healthy spec"), spec.run());
    }
}
