//! The shared broadcast medium: propagation, carrier sense, collisions.
//!
//! Sans-IO: the medium is a pure state machine. The event loop calls
//! [`Medium::start_tx_into`] when a node begins transmitting and
//! [`Medium::end_tx_into`] when the airtime elapses; the medium reports
//! carrier-sense busy/idle edges and, at end of transmission, which
//! receivers got a clean copy.
//!
//! Collision semantics: two transmissions overlapping at a receiver that
//! can hear both destroy each other there (no capture — conservative; in
//! the paper's single-domain topologies collisions only arise from
//! same-slot backoff expiry). A node never receives while transmitting
//! (half-duplex).
//!
//! Each directed link carries two independent flags (see
//! [`crate::placement::Link`]): `senses` — the transmitter's energy is
//! audible at the receiver, driving carrier sense and interference — and
//! `delivers` — frames are decodable there. Real radios sense farther
//! than they decode, so a spatial medium built from a
//! [`crate::placement::LinkBudget`] has `senses ⊇ delivers`; a node can
//! be silenced or collided with by transmissions it could never decode.
//! [`Medium::full_mesh`] is the paper-mode special case where both
//! relations are complete.
//!
//! ## Sparse representation
//!
//! Internally the medium stores CSR-style adjacency: one sorted
//! out-neighbour list per node (sense links, with delivery links a
//! flagged subset) instead of dense `n × n` matrices, and a registry of
//! which in-flight transmissions deliver to each node. `start_tx`,
//! `end_tx` and `is_busy` therefore touch only actual neighbours and
//! actual overlaps — O(degree), not O(n) — which is what makes
//! thousand-node spatial worlds practical. [`Medium::from_placement`]
//! builds the adjacency through a [`GridIndex`] (cells sized by the
//! carrier-sense range), avoiding the all-pairs classification scan.
//!
//! The pre-sparse dense implementation is retained behind
//! [`Medium::dense_reference`] as an executable specification: property
//! tests drive both backends with identical inputs and require
//! event-for-event identical outputs, and the profiler uses it as the
//! baseline its speedup numbers are measured against.

use crate::placement::{GridIndex, Link, LinkBudget, Placement};
use crate::profile::PhyProfile;

/// Identifies one in-flight transmission.
///
/// Ids are slab indices: when a transmission ends its id returns to a
/// free list and is reused by a later `start_tx`. At any moment every
/// in-flight transmission has a distinct id, and because concurrent
/// transmissions are bounded by the node count, [`TxId::index`] stays
/// tiny — the event loop tracks in-flight frames in a plain `Vec`
/// indexed by it instead of a `HashMap`, and the medium itself resolves
/// `end_tx` by direct slab lookup in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(u64);

impl TxId {
    /// The slab index of this transmission (dense, reused after end).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A carrier-sense transition at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyEdge {
    /// The node whose carrier sense changed.
    pub node: usize,
    /// The new state.
    pub busy: bool,
}

/// Outcome of a transmission at one receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The receiving node.
    pub receiver: usize,
    /// True if no overlap (collision / half-duplex) damaged the copy.
    pub clean: bool,
    /// Link SNR for the channel model, already net of implementation loss.
    pub snr_db: f64,
}

/// One entry of a node's out-neighbour list.
#[derive(Debug, Clone, Copy)]
struct OutLink {
    /// Receiver node id.
    to: u32,
    /// Frames decode at the receiver (sense-only links have this false).
    delivers: bool,
    /// Effective link SNR (implementation loss already applied).
    snr_db: f64,
}

#[derive(Debug)]
struct ActiveTx {
    tx_node: u32,
    /// Interference flags parallel to `out[tx_node]`: set if any overlap
    /// occurred at that neighbour during this transmission's lifetime.
    interfered: Vec<bool>,
}

/// The sparse production backend.
#[derive(Debug)]
struct Sparse {
    n: usize,
    /// Per-node out-neighbour list, sorted ascending by `to`, self
    /// excluded. Sense superset: every entry senses; `delivers` flags
    /// the decodable subset.
    out: Vec<Vec<OutLink>>,
    /// In-flight transmissions, slab-indexed by [`TxId::index`].
    slots: Vec<Option<ActiveTx>>,
    active_count: usize,
    /// Per node: number of audible foreign transmissions currently on air.
    heard: Vec<usize>,
    /// Per node: number of its own transmissions currently on air.
    transmitting: Vec<usize>,
    /// Per node `r`: `(slot, j)` for every in-flight transmission
    /// delivering to `r`, where `j` indexes the transmitter's
    /// out-neighbour list (and its `interfered` vector). Lets a new
    /// transmission damage exactly the ongoing receptions it overlaps.
    rx_at: Vec<Vec<(u32, u32)>>,
    next_id: u64,
    /// Ids of ended transmissions, reused by the next start (slab).
    free_ids: Vec<u64>,
    /// Recycled `interfered` vectors (steady state allocates none).
    interfered_pool: Vec<Vec<bool>>,
}

impl Sparse {
    fn from_links(links: Vec<Vec<Link>>) -> Self {
        let n = links.len();
        assert!(links.iter().all(|row| row.len() == n), "link matrix must be square");
        let out = links
            .iter()
            .enumerate()
            .map(|(from, row)| {
                row.iter()
                    .enumerate()
                    .filter(|&(to, l)| to != from && (l.senses || l.delivers))
                    .map(|(to, l)| OutLink { to: to as u32, delivers: l.delivers, snr_db: l.snr_db })
                    .collect()
            })
            .collect();
        Self::with_adjacency(n, out)
    }

    fn from_placement(placement: &Placement, budget: &LinkBudget, profile: &PhyProfile) -> Self {
        let n = placement.node_count();
        let loss = profile.implementation_loss_db;
        // Slight margin over the sense range so float rounding at the
        // threshold can never push an in-range pair out of the 3×3 cell
        // neighbourhood the index scans.
        let cell = budget.cs_range_m() * (1.0 + 1e-6);
        let index = GridIndex::new(placement, cell);
        let mut scratch = Vec::new();
        let mut out: Vec<Vec<OutLink>> = Vec::with_capacity(n);
        for from in 0..n {
            index.candidates_near(placement, from, &mut scratch);
            let mut list: Vec<OutLink> = scratch
                .iter()
                .map(|&to| to as usize)
                .filter(|&to| to != from)
                .filter_map(|to| {
                    let l = budget.classify(placement.distance_m(from, to));
                    (l.senses || l.delivers).then_some(OutLink {
                        to: to as u32,
                        delivers: l.delivers,
                        snr_db: l.snr_db - loss,
                    })
                })
                .collect();
            list.sort_unstable_by_key(|l| l.to);
            out.push(list);
        }
        Self::with_adjacency(n, out)
    }

    fn with_adjacency(n: usize, out: Vec<Vec<OutLink>>) -> Self {
        Sparse {
            n,
            out,
            slots: Vec::new(),
            active_count: 0,
            heard: vec![0; n],
            transmitting: vec![0; n],
            rx_at: vec![Vec::new(); n],
            next_id: 0,
            free_ids: Vec::new(),
            interfered_pool: Vec::new(),
        }
    }

    #[cfg(test)]
    fn set_link_classes(&mut self, from: usize, to: usize, link: Link) {
        assert!(self.active_count == 0, "cannot reclassify links while transmissions are in flight");
        assert_ne!(from, to, "a node has no link to itself");
        let senses = link.senses || link.delivers;
        let row = &mut self.out[from];
        match row.binary_search_by_key(&(to as u32), |l| l.to) {
            Ok(i) if senses => {
                row[i] = OutLink { to: to as u32, delivers: link.delivers, snr_db: link.snr_db }
            }
            Ok(i) => {
                row.remove(i);
            }
            Err(i) if senses => {
                row.insert(i, OutLink { to: to as u32, delivers: link.delivers, snr_db: link.snr_db })
            }
            Err(_) => {}
        }
    }

    fn link(&self, from: usize, to: usize) -> Link {
        match self.out[from].binary_search_by_key(&(to as u32), |l| l.to) {
            Ok(i) => {
                let l = self.out[from][i];
                Link { senses: true, delivers: l.delivers, snr_db: l.snr_db }
            }
            Err(_) => Link::NONE,
        }
    }

    #[cfg(test)]
    fn is_busy(&self, node: usize) -> bool {
        self.heard[node] > 0 || self.transmitting[node] > 0
    }

    fn start_tx_into(&mut self, node: usize, edges: &mut Vec<BusyEdge>) -> TxId {
        edges.clear();
        let id = self.free_ids.pop().unwrap_or_else(|| {
            let id = self.next_id;
            self.next_id += 1;
            id
        });
        let slot_idx = id as usize;

        let mut interfered = self.interfered_pool.pop().unwrap_or_default();
        interfered.clear();
        interfered.resize(self.out[node].len(), false);

        let Sparse { out, slots, heard, transmitting, rx_at, .. } = &mut *self;

        // Half-duplex: the new transmitter can no longer receive, so every
        // ongoing reception targeting it is damaged.
        for &(s, j) in &rx_at[node] {
            slots[s as usize].as_mut().expect("rx_at entry for live tx").interfered[j as usize] = true;
        }

        // One pass over the sense neighbourhood: the new copy at r is
        // damaged if r was already busy (hearing someone or transmitting),
        // the new energy damages every ongoing reception at r, and r's
        // carrier sense goes busy if it was idle.
        for (j, nb) in out[node].iter().enumerate() {
            let r = nb.to as usize;
            let was_busy = heard[r] > 0 || transmitting[r] > 0;
            interfered[j] = was_busy;
            for &(s, jj) in &rx_at[r] {
                slots[s as usize].as_mut().expect("rx_at entry for live tx").interfered[jj as usize] = true;
            }
            heard[r] += 1;
            if !was_busy {
                edges.push(BusyEdge { node: r, busy: true });
            }
        }

        transmitting[node] += 1;
        for (j, nb) in out[node].iter().enumerate() {
            if nb.delivers {
                rx_at[nb.to as usize].push((slot_idx as u32, j as u32));
            }
        }
        if slots.len() <= slot_idx {
            slots.resize_with(slot_idx + 1, || None);
        }
        debug_assert!(slots[slot_idx].is_none(), "slab slot reused while occupied");
        slots[slot_idx] = Some(ActiveTx { tx_node: node as u32, interfered });
        self.active_count += 1;
        TxId(id)
    }

    fn end_tx_into(&mut self, id: TxId, deliveries: &mut Vec<Delivery>, edges: &mut Vec<BusyEdge>) {
        deliveries.clear();
        edges.clear();
        let slot_idx = id.index();
        let tx =
            self.slots.get_mut(slot_idx).and_then(Option::take).expect("end_tx for unknown transmission");
        let tx_node = tx.tx_node as usize;
        self.transmitting[tx_node] -= 1;
        self.active_count -= 1;

        let Sparse { out, heard, transmitting, rx_at, .. } = &mut *self;
        for (j, nb) in out[tx_node].iter().enumerate() {
            let r = nb.to as usize;
            heard[r] -= 1;
            if heard[r] == 0 && transmitting[r] == 0 {
                edges.push(BusyEdge { node: r, busy: false });
            }
            if nb.delivers {
                deliveries.push(Delivery { receiver: r, clean: !tx.interfered[j], snr_db: nb.snr_db });
                let list = &mut rx_at[r];
                let pos = list
                    .iter()
                    .position(|&(s, _)| s as usize == slot_idx)
                    .expect("rx_at entry for ending tx");
                list.swap_remove(pos);
            }
        }
        self.free_ids.push(id.0);
        self.interfered_pool.push(tx.interfered);
    }
}

/// The dense reference backend: the original O(n²)-matrix
/// implementation, byte-for-byte the semantics the sparse backend must
/// reproduce. Kept for property tests and as the profiler's baseline.
#[derive(Debug)]
struct Dense {
    n: usize,
    /// `senses[from][to]`: energy from `from` is audible at `to`.
    senses: Vec<Vec<bool>>,
    /// `delivers[from][to]`: frames from `from` are decodable at `to`.
    delivers: Vec<Vec<bool>>,
    snr_db: Vec<Vec<f64>>,
    active: Vec<DenseActiveTx>,
    heard: Vec<usize>,
    next_id: u64,
    free_ids: Vec<u64>,
    interfered_pool: Vec<Vec<bool>>,
}

#[derive(Debug)]
struct DenseActiveTx {
    id: TxId,
    tx_node: usize,
    interfered: Vec<bool>,
}

impl Dense {
    fn from_links(links: Vec<Vec<Link>>) -> Self {
        let n = links.len();
        assert!(links.iter().all(|row| row.len() == n), "link matrix must be square");
        Dense {
            n,
            senses: links.iter().map(|row| row.iter().map(|l| l.senses || l.delivers).collect()).collect(),
            delivers: links.iter().map(|row| row.iter().map(|l| l.delivers).collect()).collect(),
            snr_db: links.iter().map(|row| row.iter().map(|l| l.snr_db).collect()).collect(),
            active: Vec::new(),
            heard: vec![0; n],
            next_id: 0,
            free_ids: Vec::new(),
            interfered_pool: Vec::new(),
        }
    }

    #[cfg(test)]
    fn set_link_classes(&mut self, from: usize, to: usize, link: Link) {
        self.senses[from][to] = link.senses || link.delivers;
        self.delivers[from][to] = link.delivers;
        self.snr_db[from][to] = link.snr_db;
    }

    fn link(&self, from: usize, to: usize) -> Link {
        Link {
            senses: self.senses[from][to],
            delivers: self.delivers[from][to],
            snr_db: self.snr_db[from][to],
        }
    }

    fn is_busy(&self, node: usize) -> bool {
        self.heard[node] > 0 || self.active.iter().any(|a| a.tx_node == node)
    }

    #[cfg(test)]
    fn is_transmitting(&self, node: usize) -> bool {
        self.active.iter().any(|a| a.tx_node == node)
    }

    fn start_tx_into(&mut self, node: usize, edges: &mut Vec<BusyEdge>) -> TxId {
        edges.clear();
        let id = TxId(self.free_ids.pop().unwrap_or_else(|| {
            let id = self.next_id;
            self.next_id += 1;
            id
        }));

        let mut interfered = self.interfered_pool.pop().unwrap_or_default();
        interfered.clear();
        interfered.resize(self.n, false);
        for (r, slot) in interfered.iter_mut().enumerate() {
            if r == node {
                continue;
            }
            // New reception at r is damaged if any other transmission is
            // already audible there, or r itself is mid-transmission.
            let overlapped = self.active.iter().any(|a| a.tx_node == r || self.senses[a.tx_node][r]);
            if overlapped && self.senses[node][r] {
                *slot = true;
            }
        }
        // The new transmission damages ongoing receptions where it is audible,
        // and the new transmitter can no longer receive anything (half-duplex).
        for a in &mut self.active {
            for r in 0..self.n {
                if r == a.tx_node {
                    continue;
                }
                if r == node || self.senses[node][r] {
                    a.interfered[r] = true;
                }
            }
        }

        for r in 0..self.n {
            if r != node && self.senses[node][r] {
                let was_busy = self.is_busy(r);
                self.heard[r] += 1;
                if !was_busy {
                    edges.push(BusyEdge { node: r, busy: true });
                }
            }
        }

        self.active.push(DenseActiveTx { id, tx_node: node, interfered });
        id
    }

    fn end_tx_into(&mut self, id: TxId, deliveries: &mut Vec<Delivery>, edges: &mut Vec<BusyEdge>) {
        deliveries.clear();
        edges.clear();
        let idx = self.active.iter().position(|a| a.id == id).expect("end_tx for unknown transmission");
        let tx = self.active.remove(idx);

        for r in 0..self.n {
            if r == tx.tx_node || !self.senses[tx.tx_node][r] {
                continue;
            }
            self.heard[r] -= 1;
            if !self.is_busy(r) {
                edges.push(BusyEdge { node: r, busy: false });
            }
            if self.delivers[tx.tx_node][r] {
                deliveries.push(Delivery {
                    receiver: r,
                    clean: !tx.interfered[r],
                    snr_db: self.snr_db[tx.tx_node][r],
                });
            }
        }
        self.free_ids.push(id.0);
        self.interfered_pool.push(tx.interfered);
    }
}

#[derive(Debug)]
enum Backend {
    Sparse(Sparse),
    Dense(Dense),
}

/// The broadcast medium connecting `n` nodes.
#[derive(Debug)]
pub struct Medium {
    imp: Backend,
}

impl Medium {
    /// A fully connected medium with uniform effective SNR
    /// (link SNR − implementation loss), the paper's §5 setup.
    pub fn full_mesh(n: usize, profile: &PhyProfile) -> Self {
        let eff = profile.default_snr_db - profile.implementation_loss_db;
        Self::from_links(vec![vec![Link { senses: true, delivers: true, snr_db: eff }; n]; n])
    }

    /// A medium from an explicit `n × n` directed link matrix.
    /// `links[from][to].snr_db` is the *effective* SNR handed to the
    /// channel model (implementation loss already applied). Delivery
    /// implies audibility: `delivers` forces `senses` on. The diagonal
    /// is ignored: a node has no link to itself.
    fn from_links(links: Vec<Vec<Link>>) -> Self {
        Medium { imp: Backend::Sparse(Sparse::from_links(links)) }
    }

    /// A spatial medium: each directed link classified by the budget from
    /// the placement's pairwise distances, with the receiver's
    /// implementation loss applied to the delivered SNR (as in
    /// [`Medium::full_mesh`]). Adjacency is derived through a
    /// [`GridIndex`] with cells sized by the carrier-sense range, so
    /// construction scans each node's 3×3 cell neighbourhood instead of
    /// all n² pairs.
    pub fn from_placement(placement: &Placement, budget: &LinkBudget, profile: &PhyProfile) -> Self {
        Medium { imp: Backend::Sparse(Sparse::from_placement(placement, budget, profile)) }
    }

    /// Rebuilds this medium (its current link classification) on the
    /// dense O(n²) reference backend — the pre-sparse implementation,
    /// kept as an executable specification for equivalence tests and as
    /// the profiler's speedup baseline. Must be called while no
    /// transmissions are in flight.
    pub fn dense_reference(&self) -> Medium {
        assert!(!self.has_active_tx(), "dense_reference with transmissions in flight");
        let n = self.node_count();
        let links = (0..n).map(|f| (0..n).map(|t| self.link(f, t)).collect()).collect();
        Medium { imp: Backend::Dense(Dense::from_links(links)) }
    }

    fn has_active_tx(&self) -> bool {
        match &self.imp {
            Backend::Sparse(s) => s.active_count > 0,
            Backend::Dense(d) => !d.active.is_empty(),
        }
    }

    /// Overrides one directed link, keeping sense and delivery coupled
    /// (the paper-mode behaviour). For split classes use
    /// [`Medium::set_link_classes`].
    #[cfg(test)]
    fn set_link(&mut self, from: usize, to: usize, in_range: bool, snr_db: f64) {
        self.set_link_classes(from, to, Link { senses: in_range, delivers: in_range, snr_db });
    }

    /// Overrides one directed link with independent sense/delivery
    /// classes. Delivery implies audibility.
    #[cfg(test)]
    fn set_link_classes(&mut self, from: usize, to: usize, link: Link) {
        match &mut self.imp {
            Backend::Sparse(s) => s.set_link_classes(from, to, link),
            Backend::Dense(d) => d.set_link_classes(from, to, link),
        }
    }

    /// The current classification of one directed link, as the
    /// transmission dynamics see it: a link in the sense adjacency
    /// carries its classes and effective SNR; any other pair, and a node
    /// paired with itself, is [`Link::NONE`].
    pub fn link(&self, from: usize, to: usize) -> Link {
        match &self.imp {
            Backend::Sparse(s) => s.link(from, to),
            Backend::Dense(d) => d.link(from, to),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match &self.imp {
            Backend::Sparse(s) => s.n,
            Backend::Dense(d) => d.n,
        }
    }

    /// True if `node` senses the channel busy (hears a foreign
    /// transmission or is transmitting itself). O(1) on the sparse
    /// backend.
    #[cfg(test)]
    fn is_busy(&self, node: usize) -> bool {
        match &self.imp {
            Backend::Sparse(s) => s.is_busy(node),
            Backend::Dense(d) => d.is_busy(node),
        }
    }

    /// True if `node` is currently transmitting.
    #[cfg(test)]
    fn is_transmitting(&self, node: usize) -> bool {
        match &self.imp {
            Backend::Sparse(s) => s.transmitting[node] > 0,
            Backend::Dense(d) => d.is_transmitting(node),
        }
    }

    /// Begins a transmission from `node`. Returns the transmission id and
    /// the carrier-sense edges it causes at other nodes (allocating
    /// wrapper around [`Medium::start_tx_into`]).
    pub fn start_tx(&mut self, node: usize) -> (TxId, Vec<BusyEdge>) {
        let mut edges = Vec::new();
        let id = self.start_tx_into(node, &mut edges);
        (id, edges)
    }

    /// Begins a transmission from `node`, appending the carrier-sense
    /// edges it causes to `edges` (cleared first). The hot-path variant:
    /// the caller owns and recycles the edge buffer, and the per-link
    /// interference scratch comes from an internal pool, so steady-state
    /// operation allocates nothing.
    pub fn start_tx_into(&mut self, node: usize, edges: &mut Vec<BusyEdge>) -> TxId {
        match &mut self.imp {
            Backend::Sparse(s) => s.start_tx_into(node, edges),
            Backend::Dense(d) => d.start_tx_into(node, edges),
        }
    }

    /// Ends a transmission: returns deliveries and carrier-sense edges
    /// (allocating wrapper around [`Medium::end_tx_into`]).
    #[cfg(test)]
    fn end_tx(&mut self, id: TxId) -> (Vec<Delivery>, Vec<BusyEdge>) {
        let mut deliveries = Vec::new();
        let mut edges = Vec::new();
        self.end_tx_into(id, &mut deliveries, &mut edges);
        (deliveries, edges)
    }

    /// Ends a transmission, appending deliveries and carrier-sense edges
    /// to caller-recycled buffers (cleared first). Frees the id and the
    /// interference scratch for reuse. O(degree) on the sparse backend:
    /// the transmission is found by direct slab lookup, not a scan.
    pub fn end_tx_into(&mut self, id: TxId, deliveries: &mut Vec<Delivery>, edges: &mut Vec<BusyEdge>) {
        match &mut self.imp {
            Backend::Sparse(s) => s.end_tx_into(id, deliveries, edges),
            Backend::Dense(d) => d.end_tx_into(id, deliveries, edges),
        }
    }

    /// The connected components of the *undirected* sense graph (two
    /// nodes are connected if either direction senses), each sorted
    /// ascending, ordered by smallest member. Nodes in different
    /// components can never influence each other — no carrier sense, no
    /// interference, no delivery — which is why each component can own
    /// an independent channel RNG stream.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.node_count();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let connect = |a: usize, b: usize, adj: &mut Vec<Vec<usize>>| {
            adj[a].push(b);
            adj[b].push(a);
        };
        match &self.imp {
            Backend::Sparse(s) => {
                for from in 0..n {
                    for nb in &s.out[from] {
                        connect(from, nb.to as usize, &mut adj);
                    }
                }
            }
            Backend::Dense(d) => {
                for from in 0..n {
                    for to in 0..n {
                        if to != from && d.senses[from][to] {
                            connect(from, to, &mut adj);
                        }
                    }
                }
            }
        }
        let mut component = vec![usize::MAX; n];
        let mut components = Vec::new();
        let mut queue = Vec::new();
        for seed in 0..n {
            if component[seed] != usize::MAX {
                continue;
            }
            let c = components.len();
            component[seed] = c;
            queue.push(seed);
            let mut members = vec![seed];
            while let Some(u) = queue.pop() {
                for &v in &adj[u] {
                    if component[v] == usize::MAX {
                        component[v] = c;
                        members.push(v);
                        queue.push(v);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium(n: usize) -> Medium {
        Medium::full_mesh(n, &PhyProfile::hydra())
    }

    #[test]
    fn single_tx_delivers_clean_to_all() {
        let mut m = medium(3);
        let (id, edges) = m.start_tx(0);
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().all(|e| e.busy));
        assert!(m.is_busy(1));
        assert!(m.is_busy(0)); // transmitting counts as busy
        let (deliveries, edges) = m.end_tx(id);
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|d| d.clean));
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().all(|e| !e.busy));
        assert!(!m.is_busy(0));
    }

    #[test]
    fn overlapping_txs_collide_at_receivers() {
        let mut m = medium(4);
        let (a, _) = m.start_tx(0);
        let (b, _) = m.start_tx(1);
        let (da, _) = m.end_tx(a);
        let (db, _) = m.end_tx(b);
        // Node 2 and 3 heard both: both copies dirty.
        for d in da.iter().chain(db.iter()) {
            if d.receiver >= 2 {
                assert!(!d.clean, "receiver {} should see a collision", d.receiver);
            }
        }
        // The transmitters can't hear each other's frame (half-duplex overlap).
        assert!(!da.iter().find(|d| d.receiver == 1).unwrap().clean);
        assert!(!db.iter().find(|d| d.receiver == 0).unwrap().clean);
    }

    #[test]
    fn sequential_txs_do_not_collide() {
        let mut m = medium(3);
        let (a, _) = m.start_tx(0);
        let (da, _) = m.end_tx(a);
        let (b, _) = m.start_tx(1);
        let (db, _) = m.end_tx(b);
        assert!(da.iter().all(|d| d.clean));
        assert!(db.iter().all(|d| d.clean));
    }

    #[test]
    fn interference_flag_sticks_after_early_end() {
        // B starts during A; B ends; A's receivers are still damaged.
        let mut m = medium(3);
        let (a, _) = m.start_tx(0);
        let (b, _) = m.start_tx(1);
        let (_, _) = m.end_tx(b);
        let (da, _) = m.end_tx(a);
        assert!(da.iter().all(|d| !d.clean));
    }

    #[test]
    fn busy_edges_deduplicate() {
        let mut m = medium(3);
        let (a, e1) = m.start_tx(0);
        assert_eq!(e1.len(), 2);
        // Second overlapping tx: node 2 was already busy, no new edge.
        let (b, e2) = m.start_tx(1);
        assert!(e2.is_empty());
        let (_, e3) = m.end_tx(a);
        // Node 2 still hears b; node 1 is transmitting: no idle edges yet.
        assert!(e3.is_empty());
        let (_, e4) = m.end_tx(b);
        assert_eq!(e4.len(), 2);
    }

    #[test]
    fn out_of_range_nodes_unaffected() {
        let mut m = medium(3);
        // Cut 0 <-> 2 both ways.
        m.set_link(0, 2, false, 0.0);
        m.set_link(2, 0, false, 0.0);
        let (a, edges) = m.start_tx(0);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].node, 1);
        assert!(!m.is_busy(2));
        let (d, _) = m.end_tx(a);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].receiver, 1);
    }

    #[test]
    fn hidden_terminal_collision() {
        // 0 and 2 can't hear each other but both reach 1: classic hidden
        // terminal. Both transmit; 1 gets nothing clean.
        let mut m = medium(3);
        m.set_link(0, 2, false, 0.0);
        m.set_link(2, 0, false, 0.0);
        let (a, _) = m.start_tx(0);
        assert!(!m.is_busy(2), "2 can't hear 0");
        let (b, _) = m.start_tx(2);
        let (da, _) = m.end_tx(a);
        let (db, _) = m.end_tx(b);
        assert!(!da.iter().find(|d| d.receiver == 1).unwrap().clean);
        assert!(!db.iter().find(|d| d.receiver == 1).unwrap().clean);
    }

    #[test]
    fn snr_reported_per_link() {
        let mut m = medium(2);
        m.set_link(0, 1, true, 11.5);
        let (a, _) = m.start_tx(0);
        let (d, _) = m.end_tx(a);
        assert_eq!(d[0].snr_db, 11.5);
    }

    #[test]
    #[should_panic(expected = "unknown transmission")]
    fn double_end_panics() {
        let mut m = medium(2);
        let (a, _) = m.start_tx(0);
        let _ = m.end_tx(a);
        let _ = m.end_tx(a);
    }

    #[test]
    fn asymmetric_link_delivers_one_way() {
        // 0 → 1 is up but 1 → 0 is down (e.g. differing tx powers).
        let mut m = medium(2);
        m.set_link(1, 0, false, 0.0);
        let (a, _) = m.start_tx(0);
        let (da, _) = m.end_tx(a);
        assert_eq!(da.len(), 1);
        assert_eq!(da[0].receiver, 1);
        let (b, edges) = m.start_tx(1);
        assert!(edges.is_empty(), "0 cannot hear 1");
        let (db, _) = m.end_tx(b);
        assert!(db.is_empty(), "nothing delivered on the dead direction");
    }

    #[test]
    fn sense_only_link_defers_but_never_delivers() {
        // 0 → 2 is within carrier-sense range but beyond delivery range:
        // 2 goes busy (and back idle) yet never receives a frame.
        let mut m = medium(3);
        m.set_link_classes(0, 2, Link { senses: true, delivers: false, snr_db: 0.0 });
        let (a, edges) = m.start_tx(0);
        assert!(edges.iter().any(|e| e.node == 2 && e.busy));
        assert!(m.is_busy(2));
        let (d, edges) = m.end_tx(a);
        assert!(d.iter().all(|x| x.receiver != 2), "no delivery beyond delivery range");
        assert!(edges.iter().any(|e| e.node == 2 && !e.busy));
        assert!(!m.is_busy(2));
    }

    #[test]
    fn sense_only_interferer_destroys_reception() {
        // 2's energy reaches 1 (sense-only link) but its frames do not:
        // it still collides with 0's frame at 1. 0 and 2 cannot hear
        // each other, so carrier sense never prevents the overlap.
        let mut m = medium(3);
        m.set_link_classes(2, 1, Link { senses: true, delivers: false, snr_db: 0.0 });
        m.set_link(0, 2, false, 0.0);
        m.set_link(2, 0, false, 0.0);
        let (a, _) = m.start_tx(0);
        let (b, _) = m.start_tx(2);
        let (da, _) = m.end_tx(a);
        assert!(!da.iter().find(|d| d.receiver == 1).unwrap().clean);
        let (db, _) = m.end_tx(b);
        assert!(db.iter().all(|d| d.receiver != 1), "2's frame is not decodable at 1");
    }

    #[test]
    fn delivery_forces_audibility() {
        let mut m = medium(2);
        // A "delivers but not senses" request is contradictory; the
        // medium normalises it to a fully-up link.
        m.set_link_classes(0, 1, Link { senses: false, delivers: true, snr_db: 7.0 });
        assert!(m.link(0, 1).senses);
        let (a, edges) = m.start_tx(0);
        assert_eq!(edges.len(), 1);
        let (d, _) = m.end_tx(a);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn from_links_matches_full_mesh_when_complete() {
        let p = PhyProfile::hydra();
        let eff = p.default_snr_db - p.implementation_loss_db;
        let mut a = Medium::full_mesh(3, &p);
        let mut b = Medium::from_links(vec![vec![Link { senses: true, delivers: true, snr_db: eff }; 3]; 3]);
        let (ta, ea) = a.start_tx(0);
        let (tb, eb) = b.start_tx(0);
        assert_eq!(ea, eb);
        assert_eq!(a.end_tx(ta), b.end_tx(tb));
    }

    #[test]
    fn from_placement_builds_spatial_classes() {
        // A 4-node chain at 7 m spacing under the hydra budget:
        // adjacent delivers, two hops apart is out of sense range
        // (hidden terminals), and SNR loses implementation loss.
        let p = PhyProfile::hydra();
        let budget = LinkBudget::hydra(p.default_snr_db);
        let pl = Placement::from_unit(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], 7.0);
        let m = Medium::from_placement(&pl, &budget, &p);
        let adj = m.link(0, 1);
        assert!(adj.delivers && adj.senses);
        assert!((adj.snr_db - (budget.snr_at(7.0) - p.implementation_loss_db)).abs() < 1e-9);
        let two = m.link(0, 2);
        assert!(!two.senses && !two.delivers, "14 m exceeds the 12.5 m CS range");
        // Symmetry of the distance-based budget.
        assert_eq!(m.link(2, 0), two);
    }

    // ------------------------------------------------------------------
    // Sparse vs dense reference
    // ------------------------------------------------------------------

    /// A tiny deterministic generator for the comparison fuzz below
    /// (keeps hydra-phy free of a dev-dependency on hydra-sim).
    struct MiniRng(u64);
    impl MiniRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
        fn f64(&mut self) -> f64 {
            (self.next() & ((1 << 32) - 1)) as f64 / (1u64 << 32) as f64
        }
    }

    /// Drives both backends through an identical random start/end script
    /// and requires identical ids, edges, deliveries, and busy states.
    fn compare_backends(mut sparse: Medium, seed: u64) {
        let mut dense = sparse.dense_reference();
        let n = sparse.node_count();
        let mut rng = MiniRng(seed);
        let mut live: Vec<TxId> = Vec::new();
        for _ in 0..200 {
            if !live.is_empty() && rng.below(2) == 0 {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                assert_eq!(sparse.end_tx(id), dense.end_tx(id));
            } else {
                let node = rng.below(n as u64) as usize;
                let (ia, ea) = sparse.start_tx(node);
                let (ib, eb) = dense.start_tx(node);
                assert_eq!(ia, ib, "TxId allocation must match");
                assert_eq!(ea, eb);
                live.push(ia);
            }
            for node in 0..n {
                assert_eq!(sparse.is_busy(node), dense.is_busy(node));
                assert_eq!(sparse.is_transmitting(node), dense.is_transmitting(node));
            }
        }
        for id in live {
            assert_eq!(sparse.end_tx(id), dense.end_tx(id));
        }
    }

    #[test]
    fn sparse_matches_dense_reference_on_full_mesh() {
        compare_backends(medium(6), 1);
    }

    #[test]
    fn sparse_matches_dense_reference_on_random_placements() {
        let p = PhyProfile::hydra();
        let budget = LinkBudget::hydra(p.default_snr_db);
        for seed in 0..8u64 {
            let mut rng = MiniRng(0xDEAD_0000 + seed);
            let n = 4 + rng.below(9) as usize;
            let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.f64() * 30.0, rng.f64() * 30.0)).collect();
            let pl = Placement::new(pts);
            compare_backends(Medium::from_placement(&pl, &budget, &p), seed);
        }
    }

    #[test]
    fn dense_reference_reproduces_every_link() {
        let p = PhyProfile::hydra();
        let budget = LinkBudget::hydra(p.default_snr_db);
        let mut rng = MiniRng(99);
        let pts: Vec<(f64, f64)> = (0..10).map(|_| (rng.f64() * 25.0, rng.f64() * 25.0)).collect();
        let pl = Placement::new(pts);
        let sparse = Medium::from_placement(&pl, &budget, &p);
        let dense = sparse.dense_reference();
        assert!(matches!(dense.imp, Backend::Dense(_)) && matches!(sparse.imp, Backend::Sparse(_)));
        for f in 0..10 {
            for t in 0..10 {
                assert_eq!(sparse.link(f, t), dense.link(f, t), "link {f}->{t}");
            }
        }
    }

    #[test]
    fn grid_binned_placement_matches_all_pairs_classification() {
        // The sparse adjacency built through the GridIndex must classify
        // exactly the pairs an O(n²) scan would; every other pair, and a
        // node with itself, is no link.
        let p = PhyProfile::hydra();
        let budget = LinkBudget::hydra(p.default_snr_db);
        let mut rng = MiniRng(7);
        let pts: Vec<(f64, f64)> = (0..60).map(|_| (rng.f64() * 80.0, rng.f64() * 80.0)).collect();
        let pl = Placement::new(pts);
        let m = Medium::from_placement(&pl, &budget, &p);
        for f in 0..60 {
            for t in 0..60 {
                let mut expect = budget.classify(pl.distance_m(f, t));
                expect.snr_db -= p.implementation_loss_db;
                let got = m.link(f, t);
                if f == t || !(expect.senses || expect.delivers) {
                    assert_eq!(got, Link::NONE, "{f}->{t}");
                    continue;
                }
                assert!(got.senses, "{f}->{t}");
                assert_eq!(got.delivers, expect.delivers, "{f}->{t}");
                assert!((got.snr_db - expect.snr_db).abs() < 1e-12, "{f}->{t}");
            }
        }
    }

    #[test]
    fn tx_ids_are_slab_indices_and_reused() {
        let mut m = medium(3);
        let (a, _) = m.start_tx(0);
        let (b, _) = m.start_tx(1);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        m.end_tx(a);
        let (c, _) = m.start_tx(2);
        assert_eq!(c.index(), 0, "freed slab index is reused");
        m.end_tx(b);
        m.end_tx(c);
    }

    #[test]
    fn components_split_by_sense_reachability() {
        let mut m = medium(5);
        // Cut {0,1,2} off from {3,4} in both directions.
        for a in 0..3 {
            for b in 3..5 {
                m.set_link(a, b, false, 0.0);
                m.set_link(b, a, false, 0.0);
            }
        }
        assert_eq!(m.components(), vec![vec![0, 1, 2], vec![3, 4]]);
        // A one-way sense link merges components (undirected closure).
        m.set_link_classes(0, 3, Link { senses: true, delivers: false, snr_db: 0.0 });
        assert_eq!(m.components(), vec![vec![0, 1, 2, 3, 4]]);
        assert_eq!(m.dense_reference().components(), m.components());
    }
}
