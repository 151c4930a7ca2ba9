//! The event loop: glues MACs, the medium, the channel model, network
//! stacks, TCP, and applications together under virtual time.
//!
//! The dispatch path allocates per *packet*, not per event (0.4–0.9
//! allocations per event depending on the traffic mix, bounded in steady
//! state by `crates/bench/tests/alloc_regression.rs` and over a short
//! world's whole life by `alloc_whole_life.rs`): MAC outputs go into
//! pooled scratch buffers (the sans-IO MAC writes into a
//! [`hydra_core::MacSink`]), carrier-sense edges ride one batched event
//! per transmission boundary in a recycled `Vec`, in-flight frames live
//! in a slab indexed by [`TxId`] instead of a `HashMap`, control frames
//! are inline values and the shared parse of a received aggregate lives
//! in one reused buffer. What still allocates is what a packet needs
//! built: the MPDU a segment or datagram is serialised into (once, with
//! its headers), the copy a relay forwards, the PSDU of the aggregate
//! they ride in — each with the `Arc` box that lets it be shared. Frame
//! bytes themselves are shared [`hydra_wire::Payload`]s all the way from
//! enqueue to delivery — see `docs/PERFORMANCE.md`.

use hydra_app::UdpCbr;
use hydra_core::{Mac, MacConfig, MacInput, MacOutput};
use hydra_phy::medium::{BusyEdge, Delivery, TxId};
use hydra_phy::{
    apply_channel, ChannelStack, LinkBudget, LinkErrorModel, LinkErrorPass, LinkErrorState, Medium,
    OnAirFrame, PhyProfile, Placement, LINK_ERROR_STREAM,
};
use hydra_sim::{stream_seed, Duration, EventQueue, Instant, QueueStats, Rng, TimerToken};
use hydra_tcp::TcpStack;
use hydra_wire::ipv4::IpProtocol;
use hydra_wire::{udp, MacAddr, Payload, UdpRepr};

use crate::node::{Apps, Node};
use crate::spec::{LinkErrorSpec, RunBudget, RunError};
use crate::topology::Topology;

/// Carrier-sense detection latency: a node whose backoff expires in the
/// same instant another node starts transmitting has not sensed it yet,
/// so same-slot collisions happen as on real hardware.
pub const CS_DELAY: Duration = Duration::from_micros(1);

/// How the radio medium is built from a topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MediumKind {
    /// Every node in one carrier-sense/delivery domain at the testbed
    /// operating point — the paper's §5 bench (2.5 m packing), and the
    /// pre-spatial behaviour of this simulator.
    SharedDomain,
    /// Range-limited links from the topology's unit geometry scaled so
    /// adjacent nodes sit `spacing_m` metres apart, classified by the
    /// [`LinkBudget`] anchored at the testbed operating point. Beyond
    /// ≈7.9 m links stop delivering; beyond ≈12.5 m they stop tripping
    /// carrier sense, so wide layouts get hidden terminals and spatial
    /// reuse.
    Spatial {
        /// Physical distance between adjacent (one-hop) nodes, metres.
        spacing_m: f64,
    },
}

impl MediumKind {
    /// The link budget used by [`MediumKind::Spatial`].
    pub fn budget(profile: &PhyProfile) -> LinkBudget {
        LinkBudget::hydra(profile.default_snr_db)
    }

    /// Builds the medium for `topology` under this kind.
    pub fn build_medium(&self, topology: &Topology, profile: &PhyProfile) -> Medium {
        match self {
            MediumKind::SharedDomain => Medium::full_mesh(topology.n, profile),
            MediumKind::Spatial { spacing_m } => {
                let placement = Placement::from_unit(&topology.positions, *spacing_m);
                Medium::from_placement(&placement, &Self::budget(profile), profile)
            }
        }
    }
}

#[derive(Debug)]
enum Event {
    /// A MAC timer fires.
    MacTimer { node: usize, token: TimerToken },
    /// A transmission's airtime elapsed.
    TxEnd { tx: TxId, node: usize },
    /// All carrier-sense edges of one transmission boundary reach their
    /// nodes. One batched event per tx start/end replaces the former
    /// one-heap-push-per-neighbor `CsEdge`; edges are applied in the
    /// order they were discovered, which is exactly the order the
    /// separate events used to pop in (same timestamp, FIFO ties).
    CsEdges { edges: Vec<BusyEdge> },
    /// TCP timer wake.
    TcpWake { node: usize },
    /// Application timer wake (CBR/flooder schedules).
    AppWake { node: usize },
}

// Every pending event is one of these, moved into the queue's slab and
// out again: keep it at three words plus the tag.
const _: () = assert!(core::mem::size_of::<Event>() <= 32);

/// The simulation world.
pub struct World {
    /// Virtual-time event queue.
    events: EventQueue<Event>,
    /// All nodes.
    pub nodes: Vec<Node>,
    /// The shared radio medium.
    pub medium: Medium,
    /// PHY profile shared by all nodes.
    pub profile: PhyProfile,
    channel: ChannelStack,
    /// One channel RNG per collision domain (connected component of the
    /// sense graph), forked as `master.fork(0xC0DE + c)`. A connected
    /// medium has exactly one, forked identically to the historical
    /// single `fork(0xC0DE)` — byte-for-byte the legacy draw stream.
    /// Splitting by component makes each domain's channel randomness
    /// independent of event interleaving across domains, which is what
    /// lets [`ScenarioSpec::run_sharded`](crate::ScenarioSpec::run_sharded)
    /// run domains on separate worker threads and still match the
    /// sequential schedule exactly.
    channel_rng: Vec<Rng>,
    /// Node → collision-domain index (indexes `channel_rng`).
    component_of: Vec<u32>,
    /// Per-link error/dup/reorder configuration (`None` = clean links:
    /// the pre-link-error delivery path, zero extra RNG draws).
    link_error: Option<LinkErrorSpec>,
    /// Root of the per-link error streams: `stream_seed(seed,
    /// LINK_ERROR_STREAM)`, derived statelessly so it neither perturbs
    /// nor depends on the master fork order.
    link_error_root: u64,
    /// Lazily created per-link error states, keyed by the packed
    /// directed link id `(tx << 32) | rx`. Lazy creation is safe because
    /// each stream is derived from `link_error_root` and the link id
    /// alone — first-use order cannot change any link's draws.
    link_states: std::collections::HashMap<u64, LinkErrorState>,
    /// In-flight frames, slab-indexed by [`TxId::index`] (ids are dense
    /// and reused, so this stays as small as the peak concurrency).
    in_flight: Vec<Option<OnAirFrame>>,
    /// Frames whose reception was destroyed by overlap, per run.
    pub collisions: u64,
    /// Events dispatched so far (all [`World::run_until`]-family calls).
    pub events_processed: u64,
    /// MAC timer events that popped already superseded (lazy
    /// cancellation's queue dead weight, skipped by the fast path).
    pub events_stale: u64,
    /// Recycled MAC output scratch buffers; one per re-entrancy level.
    mac_out_pool: Vec<Vec<MacOutput>>,
    /// Recycled carrier-sense edge buffers (cycle through the queue).
    edge_pool: Vec<Vec<BusyEdge>>,
    /// Recycled delivery buffer for `TxEnd` processing.
    delivery_pool: Vec<Vec<Delivery>>,
    /// Recycled buffers of wrapped TCP packets for `pump_tcp`.
    tcp_mpdu_pool: Vec<Vec<(MacAddr, Vec<u8>)>>,
    /// Recycled beacon payload buffers for `poll_apps`.
    app_out_pool: Vec<Vec<Vec<u8>>>,
    /// The shared trusted parse of the transmission being delivered
    /// lives here between uses: emptied and handed back after every
    /// `on_tx_end`, so its capacity is paid for once per world.
    parse_scratch: Vec<hydra_wire::ParsedSubframe<'static>>,
    /// Set by `pump_tcp`: a TCP socket may have made progress since the
    /// last `transfers_complete` check (the dirty flag that lets
    /// [`World::run_until_transfers_complete`] skip the O(nodes × flows)
    /// predicate scan after non-TCP events).
    tcp_activity: bool,
    /// Remaining event budget (`None` = unlimited); decremented once
    /// per dispatched event by the budget gate.
    event_budget: Option<u64>,
    /// Wall-clock deadline for the whole run (`None` = unlimited).
    /// Checked every `WALL_CHECK_PERIOD` events — the clock syscall is
    /// too slow for every event.
    wall_deadline: Option<std::time::Instant>,
    /// Events left until the next wall-clock check.
    wall_check_in: u32,
    /// Fast-path flag: true iff any budget limit is armed (keeps the
    /// unbudgeted run loop at one extra predictable branch per event).
    budget_armed: bool,
    /// Latched when a limit trips: every `run_until*` loop bails
    /// immediately, and [`World::check_budget`] reports
    /// [`RunError::BudgetExhausted`].
    pub budget_exhausted: bool,
}

/// Empties a parse buffer and re-types it for bytes of another lifetime,
/// keeping its allocation: collecting a `Vec`'s own `into_iter()` back
/// into a `Vec` of an identically laid-out type reuses the buffer (the
/// standard library collects such iterators in place). Were that ever to
/// stop, the cost is the fresh `Vec` per transmission this replaces —
/// which `crates/bench/tests/alloc_whole_life.rs` would report — never a
/// wrong result.
fn recycle_parse<'a, 'b>(mut v: Vec<hydra_wire::ParsedSubframe<'a>>) -> Vec<hydra_wire::ParsedSubframe<'b>> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared above")).collect()
}

/// Events between wall-clock budget checks (see [`World::set_budget`]).
const WALL_CHECK_PERIOD: u32 = 4096;

impl World {
    /// Builds a world over `topology` with the paper's single-domain
    /// medium and per-node MAC configs supplied by `mac_config(node_index)`.
    pub fn new(
        topology: &Topology,
        profile: PhyProfile,
        channel: ChannelStack,
        seed: u64,
        mac_config: impl FnMut(usize) -> MacConfig,
    ) -> Self {
        Self::with_medium(topology, profile, channel, seed, MediumKind::SharedDomain, mac_config)
    }

    /// Builds a world whose medium comes from the topology's geometry
    /// under `medium_kind`.
    pub fn with_medium(
        topology: &Topology,
        profile: PhyProfile,
        channel: ChannelStack,
        seed: u64,
        medium_kind: MediumKind,
        mut mac_config: impl FnMut(usize) -> MacConfig,
    ) -> Self {
        let mut master = Rng::seed_from_u64(seed);
        let medium = medium_kind.build_medium(topology, &profile);
        let nets = topology.build_net_stacks();
        let nodes = nets
            .into_iter()
            .enumerate()
            .map(|(i, net)| {
                let mac = Mac::new(
                    MacAddr::from_node_id(i as u16),
                    mac_config(i),
                    profile.clone(),
                    master.fork(i as u64 + 1),
                );
                Node {
                    id: i,
                    tcp: TcpStack::new(net.addr()),
                    mac,
                    net,
                    apps: Apps::default(),
                    next_tcp_wake: None,
                    next_app_wake: None,
                    collisions_seen: 0,
                    channel_drops: 0,
                }
            })
            .collect();
        let components = medium.components();
        let mut component_of = vec![0u32; topology.n];
        for (c, members) in components.iter().enumerate() {
            for &i in members {
                component_of[i] = c as u32;
            }
        }
        let channel_rng = (0..components.len()).map(|c| master.fork(0xC0DE + c as u64)).collect();
        World {
            events: EventQueue::new(),
            nodes,
            medium,
            profile,
            channel,
            channel_rng,
            component_of,
            link_error: None,
            link_error_root: stream_seed(seed, LINK_ERROR_STREAM),
            link_states: std::collections::HashMap::new(),
            in_flight: Vec::new(),
            collisions: 0,
            events_processed: 0,
            events_stale: 0,
            mac_out_pool: Vec::new(),
            edge_pool: Vec::new(),
            delivery_pool: Vec::new(),
            tcp_mpdu_pool: Vec::new(),
            parse_scratch: Vec::new(),
            app_out_pool: Vec::new(),
            tcp_activity: false,
            event_budget: None,
            wall_deadline: None,
            wall_check_in: WALL_CHECK_PERIOD,
            budget_armed: false,
            budget_exhausted: false,
        }
    }

    /// Enables per-link channel perturbations (residual error model,
    /// duplication, reorder). Call before [`World::start`]; with the
    /// default (`None`) the delivery path is byte-identical to the
    /// pre-link-error world and consumes zero extra RNG draws.
    pub fn set_link_error(&mut self, spec: LinkErrorSpec) {
        self.link_error = Some(spec);
    }

    /// Arms a [`RunBudget`]: the run loops dispatch at most
    /// `max_events` events (deterministic — same trip point on every
    /// machine) and stop within roughly `WALL_CHECK_PERIOD` events of
    /// `max_wall` elapsing (a machine-dependent safety valve). Once a
    /// limit trips, [`World::budget_exhausted`] latches and every
    /// further `run_until*` call returns immediately.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.event_budget = budget.max_events;
        self.wall_deadline = budget
            .max_wall
            .map(|d| std::time::Instant::now() + std::time::Duration::from_nanos(d.as_nanos()));
        self.wall_check_in = WALL_CHECK_PERIOD;
        self.budget_armed = self.event_budget.is_some() || self.wall_deadline.is_some();
        // A zero event budget allows zero events.
        if self.event_budget == Some(0) {
            self.budget_exhausted = true;
        }
    }

    /// `Err(RunError::BudgetExhausted)` when the armed budget tripped;
    /// the spec layer calls this after its run loops to turn a
    /// truncated run into a failure instead of a bogus outcome.
    pub fn check_budget(&self) -> Result<(), RunError> {
        if self.budget_exhausted {
            Err(RunError::BudgetExhausted { events: self.events_processed })
        } else {
            Ok(())
        }
    }

    /// Post-dispatch gate shared by every run loop: checks the armed
    /// budget. Returns true when the loop must bail. One bool check
    /// when no budget is armed.
    #[inline]
    fn after_event(&mut self) -> bool {
        if !self.budget_armed {
            return false;
        }
        self.budget_gate()
    }

    /// The armed-budget slow path (out of line to keep the run loops'
    /// common case small).
    #[cold]
    fn budget_gate(&mut self) -> bool {
        if let Some(rem) = &mut self.event_budget {
            if *rem > 0 {
                *rem -= 1;
            }
            if *rem == 0 {
                self.budget_exhausted = true;
                return true;
            }
        }
        if let Some(deadline) = self.wall_deadline {
            self.wall_check_in -= 1;
            if self.wall_check_in == 0 {
                self.wall_check_in = WALL_CHECK_PERIOD;
                if std::time::Instant::now() >= deadline {
                    self.budget_exhausted = true;
                    return true;
                }
            }
        }
        false
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.events.now()
    }

    /// The collision domain (sense-graph component index) `node` lives in.
    pub fn component_of(&self, node: usize) -> u32 {
        self.component_of[node]
    }

    /// Number of collision domains in this world's medium.
    pub fn component_count(&self) -> usize {
        self.channel_rng.len()
    }

    /// Swaps the medium for its dense O(n²) reference rebuild — same
    /// link classification, same collision domains, but every query
    /// scans all n nodes instead of a neighbour list. The executable
    /// specification the sparse backend is tested against, and the
    /// profiler's speedup baseline. Call before [`World::start`]: the
    /// rebuild requires an idle medium, and `component_of` / the
    /// per-domain channel RNG streams stay valid only because the link
    /// classification (hence the sense graph) is unchanged.
    pub fn densify_medium(&mut self) {
        self.medium = self.medium.dense_reference();
    }

    /// Swaps the event queue for its `BinaryHeap` reference backend —
    /// same pop order, O(log n) operations. The executable specification
    /// the calendar wheel is tested against (the scheduler analogue of
    /// [`World::densify_medium`]), and the profiler's `--queue` baseline.
    /// Pending events, ids, and virtual time carry over, so it can be
    /// called on a fully built world.
    pub fn use_heap_reference_queue(&mut self) {
        self.events.convert_to_heap_reference();
    }

    /// Queue-operation counters (schedules, pops, overflow traffic).
    pub fn queue_stats(&self) -> QueueStats {
        self.events.stats()
    }

    /// Total MAC timer re-arms across all nodes (each stranded one stale
    /// event in the queue).
    pub fn timer_rearms(&self) -> u64 {
        self.nodes.iter().map(|n| n.mac.timer_rearms()).sum()
    }

    /// True when every installed TCP file transfer has completed — the
    /// run-termination condition for file-transfer flows (also usable
    /// directly as a [`World::run_until_condition`] predicate).
    pub fn transfers_complete(&self) -> bool {
        self.nodes.iter().all(|n| n.apps.file_rx.iter().all(|(r, _)| r.completed_at.is_some()))
    }

    // ------------------------------------------------------------------
    // Bootstrapping
    // ------------------------------------------------------------------

    /// Kick all application and TCP schedules at t = 0 (or later).
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            self.schedule_app_wake(i, self.now());
            self.pump_tcp(i);
        }
    }

    fn schedule_app_wake(&mut self, node: usize, at: Instant) {
        let n = &mut self.nodes[node];
        if n.next_app_wake.is_none_or(|t| at < t) {
            n.next_app_wake = Some(at);
            self.events.schedule_at(at, Event::AppWake { node });
        }
    }

    fn schedule_tcp_wake(&mut self, node: usize) {
        let Some(at) = self.nodes[node].tcp.poll_timeout() else { return };
        let at = at.max(self.now());
        let n = &mut self.nodes[node];
        if n.next_tcp_wake.is_none_or(|t| at < t) {
            n.next_tcp_wake = Some(at);
            self.events.schedule_at(at, Event::TcpWake { node });
        }
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Runs until the queue drains or `deadline` passes. Returns the
    /// number of events processed.
    pub fn run_until(&mut self, deadline: Instant) -> u64 {
        let mut processed = 0;
        if self.budget_exhausted {
            return processed;
        }
        // `pop_before` locates-and-pops in one queue pass (the former
        // peek + pop walked the calendar buckets twice per event).
        while let Some((_, _, ev)) = self.events.pop_before(deadline) {
            self.dispatch(ev);
            processed += 1;
            if self.after_event() {
                break;
            }
        }
        self.events_processed += processed;
        processed
    }

    /// Runs until `pred(world)` or the deadline; checks after each event.
    /// Returns true if the predicate fired.
    pub fn run_until_condition(&mut self, deadline: Instant, mut pred: impl FnMut(&World) -> bool) -> bool {
        if self.budget_exhausted {
            return false;
        }
        while let Some((_, _, ev)) = self.events.pop_before(deadline) {
            self.dispatch(ev);
            self.events_processed += 1;
            // A run that satisfies its predicate on the last budgeted
            // event finished *within* budget — check the predicate first.
            if pred(self) {
                return true;
            }
            if self.after_event() {
                return false;
            }
        }
        false
    }

    /// [`World::run_until_condition`] specialised to
    /// [`World::transfers_complete`], gated by the TCP-activity dirty
    /// flag: completion is latched and can only flip during a `pump_tcp`,
    /// so the O(nodes × flows) scan runs once per TCP-active event
    /// instead of after every CS edge and MAC timer. Same result, same
    /// event counts.
    pub fn run_until_transfers_complete(&mut self, deadline: Instant) -> bool {
        if self.budget_exhausted {
            return false;
        }
        // Mirror `run_until_condition`'s semantics, which checks the
        // predicate after the first event regardless of its kind.
        self.tcp_activity = true;
        while let Some((_, _, ev)) = self.events.pop_before(deadline) {
            self.dispatch(ev);
            self.events_processed += 1;
            if self.tcp_activity {
                self.tcp_activity = false;
                if self.transfers_complete() {
                    return true;
                }
            }
            if self.after_event() {
                return false;
            }
        }
        false
    }

    fn dispatch(&mut self, ev: Event) {
        let now = self.now();
        match ev {
            Event::MacTimer { node, token } => {
                // Stale-token fast path: a superseded timer would be
                // refused by the MAC anyway (`TimerSet::fire` is
                // side-effect-free on stale tokens), so skip the whole
                // dispatch and count it instead.
                if !self.nodes[node].mac.timer_is_current(token) {
                    self.events_stale += 1;
                    return;
                }
                self.mac_input(node, MacInput::Timer(token));
            }
            Event::CsEdges { mut edges } => {
                // Edge fast path: busy/idle inputs touch only the MAC's
                // carrier-sense state and emit at most one timer, so the
                // general `mac_input` scratch-buffer round trip is skipped
                // for every sensed edge (several per tx boundary — the
                // single hottest MAC call site in dense worlds).
                for e in edges.drain(..) {
                    if let Some((token, at)) = self.nodes[e.node].mac.on_channel_edge(now, e.busy) {
                        self.events.schedule_at(at.max(now), Event::MacTimer { node: e.node, token });
                    }
                }
                self.edge_pool.push(edges);
            }
            Event::TxEnd { tx, node } => self.on_tx_end(tx, node),
            Event::TcpWake { node } => {
                self.nodes[node].next_tcp_wake = None;
                self.nodes[node].tcp.on_tick(now);
                self.pump_tcp(node);
            }
            Event::AppWake { node } => {
                self.nodes[node].next_app_wake = None;
                self.poll_apps(node);
            }
        }
    }

    // ------------------------------------------------------------------
    // MAC plumbing
    // ------------------------------------------------------------------

    fn mac_input(&mut self, node: usize, input: MacInput) {
        let now = self.now();
        // Pooled scratch: `deliver_up` can re-enter `mac_input` (forwarded
        // packets re-enqueue), so each nesting level takes its own buffer;
        // after warm-up no level ever allocates.
        let mut outs = self.mac_out_pool.pop().unwrap_or_default();
        self.nodes[node].mac.handle(now, input, &mut outs);
        self.process_mac_outputs(node, &mut outs);
        debug_assert!(outs.is_empty());
        self.mac_out_pool.push(outs);
    }

    /// [`World::mac_input`] for a pre-parsed aggregate reception (the
    /// shared-parse fast path of `on_tx_end`).
    fn mac_input_rx_parsed(
        &mut self,
        node: usize,
        phy_hdr: &hydra_wire::PhyHeader,
        psdu: &Payload,
        parsed: &[hydra_wire::ParsedSubframe<'_>],
    ) {
        let now = self.now();
        let mut outs = self.mac_out_pool.pop().unwrap_or_default();
        self.nodes[node].mac.handle_rx_parsed(now, phy_hdr, psdu, parsed, &mut outs);
        self.process_mac_outputs(node, &mut outs);
        debug_assert!(outs.is_empty());
        self.mac_out_pool.push(outs);
    }

    fn process_mac_outputs(&mut self, node: usize, outs: &mut Vec<MacOutput>) {
        for out in outs.drain(..) {
            match out {
                MacOutput::SetTimer { token, at } => {
                    self.events.schedule_at(at.max(self.now()), Event::MacTimer { node, token });
                }
                MacOutput::StartTx(frame) => self.start_tx(node, frame),
                MacOutput::Deliver { payload, .. } => self.deliver_up(node, payload),
                MacOutput::UnicastDropped { .. } => {
                    // TCP recovers by RTO; UDP loss is final. Nothing to do.
                }
            }
        }
    }

    /// Schedules the batched carrier-sense event (recycling empty
    /// batches straight back into the pool).
    fn schedule_cs_edges(&mut self, edges: Vec<BusyEdge>) {
        if edges.is_empty() {
            self.edge_pool.push(edges);
        } else {
            self.events.schedule_after(CS_DELAY, Event::CsEdges { edges });
        }
    }

    fn start_tx(&mut self, node: usize, frame: OnAirFrame) {
        let airtime = frame.airtime(&self.profile).total();
        let mut edges = self.edge_pool.pop().unwrap_or_default();
        let tx = self.medium.start_tx_into(node, &mut edges);
        self.schedule_cs_edges(edges);
        let idx = tx.index();
        if idx >= self.in_flight.len() {
            self.in_flight.resize_with(idx + 1, || None);
        }
        debug_assert!(self.in_flight[idx].is_none(), "tx id in use");
        self.in_flight[idx] = Some(frame);
        self.events.schedule_after(airtime, Event::TxEnd { tx, node });
    }

    fn on_tx_end(&mut self, tx: TxId, node: usize) {
        let mut deliveries = self.delivery_pool.pop().unwrap_or_default();
        let mut edges = self.edge_pool.pop().unwrap_or_default();
        self.medium.end_tx_into(tx, &mut deliveries, &mut edges);
        self.schedule_cs_edges(edges);
        let frame = self.in_flight[tx.index()].take().expect("unknown tx");
        // Tell the transmitter first (it arms its response timeout), then
        // fan out receptions in deterministic node order.
        self.mac_input(node, MacInput::TxDone);
        // Shared parse: every clean receiver whose channel pass left the
        // PSDU untouched (same shared-payload backing) sees identical
        // bytes, so the aggregate is parsed once and the parse reused —
        // a broadcast to k neighbors costs one parse instead of k.
        let agg = match &frame {
            OnAirFrame::Aggregate { phy_hdr, psdu, .. } => Some((phy_hdr, psdu)),
            _ => None,
        };
        let mut shared_parse = recycle_parse(std::mem::take(&mut self.parse_scratch));
        for d in deliveries.drain(..) {
            if !d.clean {
                self.collisions += 1;
                self.nodes[d.receiver].collisions_seen += 1;
                continue;
            }
            let rng = &mut self.channel_rng[self.component_of[d.receiver] as usize];
            let rx = apply_channel(&frame, d.snr_db, &mut self.channel, rng, &self.profile);
            let Some(rx) = rx else {
                self.nodes[d.receiver].channel_drops += 1;
                continue;
            };
            match self.link_error {
                None => self.deliver_rx(d.receiver, rx, false, agg, &mut shared_parse),
                Some(le) => {
                    // Per-link pass: one GE state advance per transmission,
                    // then an independent corruption pass (and reorder draw)
                    // per arriving copy — all on the link's own RNG stream,
                    // so the shared `channel_rng` draws above are untouched.
                    let copies = self.link_error_copies(le, node, d.receiver, d.snr_db, rx);
                    for c in copies {
                        let Some((out, reorder)) = c else { continue };
                        self.deliver_rx(d.receiver, out, reorder, agg, &mut shared_parse);
                    }
                }
            }
        }
        self.delivery_pool.push(deliveries);
        self.parse_scratch = recycle_parse(shared_parse);
    }

    /// Applies the per-link error model to one delivery, returning the
    /// one or (duplication) two copies that actually arrive, each with
    /// its reorder flag. Draw order per transmission is fixed — state
    /// advance, dup decision, then per copy the corruption pass and the
    /// reorder draw — and every draw comes from the link's own stream.
    /// The duplicate takes its *own* corruption draws: the two copies
    /// share backing bytes only while both remain undamaged.
    fn link_error_copies(
        &mut self,
        le: LinkErrorSpec,
        tx_node: usize,
        rx_node: usize,
        snr_db: f64,
        rx: OnAirFrame,
    ) -> [Option<(OnAirFrame, bool)>; 2] {
        let root = self.link_error_root;
        let st = self.link_states.entry(((tx_node as u64) << 32) | rx_node as u64).or_insert_with(|| {
            let model = le.model.unwrap_or(LinkErrorModel::Independent { ber: 0.0 });
            LinkErrorState::new(model, root, tx_node, rx_node)
        });
        let p = st.begin_frame();
        let dup = le.dup > 0.0 && st.rng.chance(le.dup);
        let profile = &self.profile;
        let copy = |st: &mut LinkErrorState| {
            let out = if p > 0.0 {
                apply_channel(&rx, snr_db, &mut LinkErrorPass { p }, &mut st.rng, profile)
                    .expect("LinkErrorPass never drops frames")
            } else {
                rx.clone()
            };
            let reorder = le.reorder > 0.0 && st.rng.chance(le.reorder);
            (out, reorder)
        };
        let first = copy(st);
        let second = if dup { Some(copy(st)) } else { None };
        [Some(first), second]
    }

    /// Feeds one received copy to the receiver's MAC, choosing between
    /// the shared trusted parse (bytes still alias the transmitted
    /// buffer — every FCS known-good), a fresh *checked* parse for
    /// reordered aggregates, and the MAC's own parse for everything
    /// else. The alias test runs on the **final** post-all-passes PSDU
    /// of *this* copy, so a duplicated frame whose own corruption draws
    /// landed (different bytes, private buffer) can never ride its clean
    /// twin's trusted parse.
    fn deliver_rx<'f>(
        &mut self,
        receiver: usize,
        rx: OnAirFrame,
        reorder: bool,
        agg: Option<(&'f hydra_wire::PhyHeader, &'f Payload)>,
        shared_parse: &mut Vec<hydra_wire::ParsedSubframe<'f>>,
    ) {
        match rx {
            OnAirFrame::Aggregate { phy_hdr, psdu, slots } => {
                let aliases = agg.is_some_and(|(_, p)| psdu.as_ptr() == p.as_ptr() && psdu.len() == p.len());
                if aliases && !reorder {
                    let (hdr, tx_psdu) = agg.expect("aliases implies agg");
                    // Trusted parse: the PSDU pointer-matches the buffer
                    // the assembler built, so every FCS is known-good by
                    // construction — no CRC pass at all on the clean path.
                    // (Empty = not parsed yet: an assembled aggregate
                    // always holds at least one subframe.)
                    if shared_parse.is_empty() {
                        hydra_wire::aggregate::parse_aggregate_trusted_into(hdr, tx_psdu, shared_parse);
                    }
                    self.mac_input_rx_parsed(receiver, hdr, tx_psdu, shared_parse);
                } else if reorder {
                    // Reordered copies need their own *checked* parse (the
                    // bytes may carry this copy's corruption), rotated so
                    // the MAC sees the subframes out of order.
                    let mut parsed = hydra_wire::parse_aggregate(&phy_hdr, &psdu);
                    if parsed.len() > 1 {
                        parsed.rotate_left(1);
                    }
                    self.mac_input_rx_parsed(receiver, &phy_hdr, &psdu, &parsed);
                } else {
                    self.mac_input(receiver, MacInput::Rx(OnAirFrame::Aggregate { phy_hdr, psdu, slots }));
                }
            }
            other => self.mac_input(receiver, MacInput::Rx(other)),
        }
    }

    // ------------------------------------------------------------------
    // Upward delivery: network layer, TCP, apps
    // ------------------------------------------------------------------

    fn deliver_up(&mut self, node: usize, payload: Payload) {
        use hydra_net::NetVerdict;
        let now = self.now();
        let verdict = self.nodes[node].net.receive(&payload);
        match verdict {
            NetVerdict::Forward { next_hop, mpdu_payload } => {
                let src = self.nodes[node].mac.addr();
                self.mac_input(node, MacInput::Enqueue { next_hop, src, payload: mpdu_payload.into() });
            }
            NetVerdict::DeliverTcp { ip, tcp, payload } => {
                self.nodes[node].tcp.on_segment(now, &ip, &tcp, payload);
                // Pump immediately: this yields the per-segment ACKs the
                // paper's client produces (one 160 B ACK frame per data
                // segment).
                self.pump_tcp(node);
            }
            NetVerdict::DeliverUdp { udp, payload, .. } => {
                if let Some(sink) = self.nodes[node].apps.udp_sink.as_mut() {
                    sink.on_datagram(now, udp.dst_port, payload);
                }
            }
            NetVerdict::DeliverRaw { payload, .. } => {
                self.nodes[node].apps.flood_sink.on_beacon(payload);
            }
            NetVerdict::Drop => {}
        }
    }

    /// Runs the TCP send path of a node: app pumps, socket polls, network
    /// wrap, MAC enqueue.
    pub fn pump_tcp(&mut self, node: usize) {
        let now = self.now();
        self.tcp_activity = true;
        // Applications first (fill send buffers / drain receive buffers).
        {
            let n = &mut self.nodes[node];
            for (sender, sock) in &mut n.apps.file_tx {
                sender.pump(now, n.tcp.socket(*sock));
            }
            for (recv, sock) in &mut n.apps.file_rx {
                recv.pump(now, n.tcp.socket(*sock));
            }
        }
        // Each segment is serialised once, out of its socket's send ring
        // straight into the MPDU the MAC will queue; the wrapped packets
        // wait in a recycled buffer until the sockets are done (the MAC
        // may re-enter this node's stack).
        let mut mpdus = self.tcp_mpdu_pool.pop().unwrap_or_default();
        let Node { tcp, net, .. } = &mut self.nodes[node];
        tcp.poll_transmit_with(now, |seg| {
            mpdus
                .extend(net.send_l4_with(IpProtocol::Tcp, seg.dst, seg.len(), |ip, out| seg.append(ip, out)));
        });
        let src = self.nodes[node].mac.addr();
        for (next_hop, mpdu) in mpdus.drain(..) {
            self.mac_input(node, MacInput::Enqueue { next_hop, src, payload: mpdu.into() });
        }
        self.tcp_mpdu_pool.push(mpdus);
        // Post-send app pass: sending may have freed buffer space and the
        // receiver may have drained (window update already rode the ACK).
        {
            let n = &mut self.nodes[node];
            for (sender, sock) in &mut n.apps.file_tx {
                sender.pump(now, n.tcp.socket(*sock));
            }
        }
        self.schedule_tcp_wake(node);
    }

    /// Polls CBR sources and flooders; enqueues due packets.
    ///
    /// Each source's datagrams are built and sent as soon as it is polled
    /// (source order, then beacons) — a source only changes itself when
    /// polled, so nothing depends on what the MAC does in between. A CBR
    /// datagram is written once, straight into the MPDU the MAC queues.
    fn poll_apps(&mut self, node: usize) {
        let now = self.now();
        let mut next_wake: Option<Instant> = None;
        for si in 0..self.nodes[node].apps.udp_sources.len() {
            loop {
                let Node { apps, net, .. } = &mut self.nodes[node];
                let src = &mut apps.udp_sources[si];
                let Some(seq) = src.next_due(now) else {
                    if let Some(w) = src.next_wake(now) {
                        next_wake = Some(next_wake.map_or(w, |c| c.min(w)));
                    }
                    break;
                };
                let (udp, len) =
                    (UdpRepr { src_port: src.src_port, dst_port: src.dst.port }, src.payload_len);
                let send =
                    net.send_l4_with(IpProtocol::Udp, src.dst.addr, udp::HEADER_LEN + len, |ip, out| {
                        let at = out.len();
                        out.resize(at + udp::HEADER_LEN, 0);
                        UdpCbr::write_payload(seq, len, out);
                        udp.emit_header(ip, &mut out[at..]);
                    });
                if let Some((next_hop, mpdu)) = send {
                    let src = self.nodes[node].mac.addr();
                    self.mac_input(node, MacInput::Enqueue { next_hop, src, payload: mpdu.into() });
                }
            }
        }
        if self.nodes[node].apps.flooder.is_some() {
            let mut out = self.app_out_pool.pop().unwrap_or_default();
            let f = self.nodes[node].apps.flooder.as_mut().expect("checked above");
            if let Some(w) = f.poll_into(now, &mut out) {
                next_wake = Some(next_wake.map_or(w, |c| c.min(w)));
            }
            for beacon in out.drain(..) {
                let (next_hop, mpdu) = self.nodes[node].net.send_raw_broadcast(&beacon);
                let src = self.nodes[node].mac.addr();
                self.mac_input(node, MacInput::Enqueue { next_hop, src, payload: mpdu.into() });
            }
            self.app_out_pool.push(out);
        }
        if let Some(w) = next_wake {
            self.schedule_app_wake(node, w);
        }
    }
}
