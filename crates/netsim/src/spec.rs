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
//! CBR background and on/off bursts. [`ScenarioSpec::traffic`] is the
//! same type: the traffic the topology's default flows carry (the
//! `.scn` key `traffic=`). Its derived `Debug` text is part of
//! [`ScenarioSpec::stable_hash`]'s input, so renaming a variant or a
//! field of [`FlowTraffic`] would move every derived world seed, cache
//! key, and published table (the golden hashes pin them).

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
    fn agg_for(&self, is_relay: bool) -> AggPolicy {
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

    /// The default flows on this topology, each carrying `traffic`.
    /// File transfers get one session per server (ports from 5001);
    /// window traffic — CBR or on/off — gets one flow per sender (ports
    /// from 9000), so the star has two TCP sessions but one CBR flow.
    fn default_flows(&self, traffic: FlowTraffic) -> Vec<FlowSpec> {
        let file = traffic.is_file();
        let first_port = if file { 5001 } else { 9000 };
        let flow = |src, dst, k: usize| FlowSpec { src, dst, port: first_port + k as u16, traffic };
        match *self {
            // Server = node 0, client = last node (paper Figure 5).
            TopologyKind::Linear(h) => vec![flow(0, h, 0)],
            // Two sessions: servers 2 and 3 → client 0 via center 1
            // (paper Figure 6 / §6.4.5).
            TopologyKind::Star if file => vec![flow(2, 0, 0), flow(3, 0, 1)],
            TopologyKind::Star => vec![flow(2, 0, 0)],
            // Corner-to-corner: maximal hop count under x-first routing.
            TopologyKind::Grid { w, h } => vec![flow(0, w * h - 1, 0)],
            // West→east and north→south, crossing at the center relay.
            TopologyKind::Cross => vec![flow(0, 1, 0), flow(2, 3, 1)],
            // ≈ nodes/4 greedily-routable pairs from the mesh seed.
            TopologyKind::RandomMesh { nodes, area_m, seed } => {
                Topology::mesh_default_pairs(nodes, area_m, seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (src, dst))| flow(src, dst, i))
                    .collect()
            }
        }
    }
}

/// The traffic one flow offers. A [`ScenarioSpec`] can mix file
/// transfers, CBR, and on/off bursts in one world; its
/// [`ScenarioSpec::traffic`] is the one the topology's default flows
/// carry.
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
    /// The default traffic: what the topology's default flows carry
    /// when `flows` is empty, and what a `flows=` endpoint list sends.
    pub traffic: FlowTraffic,
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
/// flows that simply carry [`ScenarioSpec::traffic`] must render as
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
            .field("flows", &FlowsDebug(&self.flows, self.traffic))
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
            traffic: FlowTraffic::FileTransfer { bytes: hydra_app::PAPER_FILE_BYTES },
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
            traffic: FlowTraffic::Cbr { interval, payload: PAPER_UDP_PAYLOAD },
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
    /// carrying [`ScenarioSpec::traffic`].
    pub fn effective_flows(&self) -> Vec<FlowSpec> {
        if !self.flows.is_empty() {
            return self.flows.clone();
        }
        self.topology.default_flows(self.traffic)
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
            world.set_link_error(le);
        }

        let stop = Instant::ZERO + self.warmup + self.duration + Duration::from_secs(1);
        for (i, f) in flows.iter().enumerate() {
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
    /// One loop serves every flow mix; its horizon is `warmup + duration`.
    /// * File transfers run until every transfer completes or the horizon
    ///   passes (warmup defaults to zero for file traffic, so this is the
    ///   paper's `duration` deadline) — the paper's TCP semantics. A spec
    ///   with only file flows has no warm-up phase.
    /// * Window flows (CBR, on/off) measure goodput over
    ///   `[warmup, warmup + duration]`, so a run with any of them goes on
    ///   to the horizon even after every transfer has finished — the
    ///   paper's UDP semantics, and background-intensity sweeps stay
    ///   comparable.
    ///
    /// `completed` says every file transfer finished by the horizon
    /// (always true without file flows). The headline `throughput_bps`
    /// is the worst file-transfer flow (the foreground) when there is
    /// one, else the worst window flow.
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
        self.run_prepared(|_| {})
    }

    /// [`ScenarioSpec::run`] with the medium swapped to its dense O(n²)
    /// reference backend before the first event fires. Link
    /// classification is identical, so the outcome must be
    /// event-for-event identical to `run()` — the equivalence oracle
    /// the property tests exercise, and the "dense sequential" baseline
    /// the profiler's scale grid measures speedups against.
    pub fn run_dense_reference(&self) -> RunOutcome {
        self.run_prepared(World::densify_medium).unwrap_or_else(|e| panic!("reference run failed: {e}"))
    }

    /// Builds the world, lets `prepare` swap the medium, arms the spec's
    /// [`RunBudget`] and runs the one loop [`ScenarioSpec::run`]
    /// describes. `Err` only when the budget trips.
    fn run_prepared(&self, prepare: impl FnOnce(&mut World)) -> Result<RunOutcome, RunError> {
        let flows = self.effective_flows();
        let started = std::time::Instant::now();
        let allocs0 = hydra_sim::alloc_stats();
        let mut world = self.build();
        prepare(&mut world);
        if let Some(budget) = self.budget {
            world.set_budget(budget);
        }
        let has_file = flows.iter().any(|f| f.traffic.is_file());
        let has_window = flows.iter().any(|f| !f.traffic.is_file());
        let horizon = Instant::ZERO + self.warmup + self.duration;
        world.start();
        if has_window {
            world.run_until(Instant::ZERO + self.warmup);
        }
        // Each window flow's bytes at the window start, keyed by its
        // (sink node, port) pair — flows sharing a sink node stay apart.
        let starts: Vec<u64> = flows.iter().map(|f| udp_bytes_at(&world, f)).collect();
        if has_file {
            world.run_until_transfers_complete(horizon);
        }
        if has_window {
            world.run_until(horizon);
        }
        world.check_budget()?;
        let secs = self.duration.as_secs_f64();
        // Receivers are installed in flow order, so the k-th file flow
        // targeting a node owns the k-th `file_rx` slot there.
        let mut next_rx = vec![0usize; world.nodes.len()];
        let per_flow: Vec<FlowOutcome> = flows
            .iter()
            .zip(&starts)
            .map(|(f, &s0)| {
                if f.traffic.is_file() {
                    let (rx, _) = &world.nodes[f.dst].apps.file_rx[next_rx[f.dst]];
                    next_rx[f.dst] += 1;
                    let bps = rx.throughput_bps(Instant::ZERO).unwrap_or(0.0);
                    FlowOutcome::new(*f, rx.received as u64, bps, rx.completed_at)
                } else {
                    let bytes = udp_bytes_at(&world, f) - s0;
                    let bps = if secs > 0.0 { bytes as f64 * 8.0 / secs } else { 0.0 };
                    FlowOutcome::new(*f, bytes, bps, None)
                }
            })
            .collect();
        // The worst flow of the headline kind: the paper reports the
        // worst session of a multi-session run.
        let worst = per_flow
            .iter()
            .filter(|o| o.flow.traffic.is_file() == has_file)
            .map(|o| o.bps)
            .fold(f64::INFINITY, f64::min);
        let report = RunReport::collect(&world, world.now());
        let allocs = hydra_sim::alloc_stats().since(allocs0);
        Ok(RunOutcome {
            completed: world.transfers_complete(),
            throughput_bps: if worst.is_finite() { worst } else { 0.0 },
            per_flow,
            report,
            perf: RunPerf {
                events_processed: world.events_processed,
                events_stale: world.events_stale,
                timer_rearms: world.timer_rearms(),
                queue: world.queue_stats(),
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                allocations: allocs.allocations,
                allocated_bytes: allocs.allocated_bytes,
            },
        })
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
/// installs [`hydra_sim::CountingAlloc`] (the `alloc_*` tests and the
/// benchmark's `trace` binary do), and are process-wide — under a
/// multi-threaded runner they include every concurrent run.
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
            .with_flow_specs(vec![FlowSpec {
                src: 0,
                dst: 2,
                port: 9,
                traffic: FlowTraffic::FileTransfer { bytes: 5000 },
            }]);
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
                assert_eq!(f.traffic, spec.traffic, "defaults carry the spec's traffic");
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
        let flows = plain.clone().with_flow_specs(vec![FlowSpec {
            src: 0,
            dst: 2,
            port: 5001,
            traffic: plain.traffic,
        }]);
        assert!(format!("{flows:?}").contains("flows: [Flow { src: 0, dst: 2, port: 5001 }]"));
        assert_eq!(flows.stable_hash(), 0x9b55_695f_0eed_372f);

        let mut udp =
            ScenarioSpec::udp(TopologyKind::Star, Policy::Ua, Rate::R0_65, Duration::from_millis(10));
        udp = udp.clone().with_flow_specs(vec![
            FlowSpec { src: 2, dst: 0, port: 9000, traffic: udp.traffic },
            FlowSpec { src: 3, dst: 0, port: 9001, traffic: udp.traffic },
        ]);
        assert_eq!(udp.stable_hash(), 0x447f_7705_ed37_b3c6);

        let mut cross = ScenarioSpec::tcp(TopologyKind::Cross, Policy::Dba, Rate::R2_60);
        cross.traffic = FlowTraffic::FileTransfer { bytes: 50 * 1024 };
        cross.flooding = Some(Flooding { interval: Duration::from_millis(250), payload: 120 });
        assert_eq!(cross.stable_hash(), 0xbed7_0200_2d9d_19de);
    }

    #[test]
    fn mixed_flows_render_distinctly_and_hash_differently() {
        let base = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
        let legacy = base.clone().with_flow_specs(vec![FlowSpec {
            src: 0,
            dst: 2,
            port: 5001,
            traffic: base.traffic,
        }]);
        let mixed = base.clone().with_flow_specs(vec![
            FlowSpec { src: 0, dst: 2, port: 5001, traffic: base.traffic },
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

    /// A tiny spec whose 10 KB transfer completes — the budget/failure
    /// tests' workhorse.
    fn small_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::tcp(TopologyKind::Linear(1), Policy::Na, Rate::R2_60);
        spec.traffic = FlowTraffic::FileTransfer { bytes: 10 * 1024 };
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
        let full = spec.run();
        assert!(full.completed, "the unbudgeted transfer must complete");
        // Half the events the completed transfer took cannot finish it.
        let budget = full.perf.events_processed / 2;
        spec.budget = Some(RunBudget::events(budget));
        let err = spec.try_run().expect_err("half the events cannot finish the transfer");
        assert_eq!(err, RunError::BudgetExhausted { events: budget });
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
        assert!(b.completed);
        assert_eq!(b.per_flow[0].bytes, 10 * 1024);
    }

    #[test]
    fn file_only_specs_have_no_warm_up_phase() {
        // The 10 KB transfer finishes well inside the first second, so a
        // warm-up phase would keep dispatching past its completion.
        let mut cold = ScenarioSpec::tcp(TopologyKind::Linear(1), Policy::Ba, Rate::R2_60);
        cold.traffic = FlowTraffic::FileTransfer { bytes: 10 * 1024 };
        let mut warm = cold.clone();
        warm.warmup = Duration::from_secs(1);
        let (a, b) = (cold.run(), warm.run());
        assert!(a.per_flow[0].completed_at.is_some_and(|t| t < Instant::ZERO + warm.warmup));
        assert_eq!(a, b);
        assert_eq!(a.perf.events_processed, b.perf.events_processed);
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
