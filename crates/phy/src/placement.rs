//! Node placement and the link budget: coordinates → distance →
//! log-distance path loss → per-link SNR → carrier-sense / delivery
//! link classes.
//!
//! The paper's testbed packs every node into one carrier-sense domain
//! (2.5 m spacing, 7.7 mW), which [`crate::Medium::full_mesh`] models
//! directly. This module is the spatial generalisation: give each node
//! a position, derive each directed link's SNR from a log-distance
//! path-loss model anchored at the testbed operating point, and
//! classify the link by two SNR thresholds — a *delivery* threshold
//! (enough signal to decode a frame) and a lower *carrier-sense*
//! threshold (enough energy to defer to / be interfered by). Because
//! the carrier-sense threshold is lower, the sense range exceeds the
//! delivery range, exactly as on real radios: a node can be silenced
//! (or collided with) by transmissions it could never decode.

/// Node coordinates in metres.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    points: Vec<(f64, f64)>,
}

impl Placement {
    /// A placement from absolute coordinates (metres).
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        Placement { points }
    }

    /// Scales *unit* geometry (adjacent nodes at distance 1.0) by the
    /// physical spacing between adjacent nodes.
    pub fn from_unit(unit: &[(f64, f64)], spacing_m: f64) -> Self {
        assert!(spacing_m > 0.0, "spacing must be positive");
        Placement { points: unit.iter().map(|&(x, y)| (x * spacing_m, y * spacing_m)).collect() }
    }

    /// Number of placed nodes.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Position of node `i`, metres.
    fn position_m(&self, i: usize) -> (f64, f64) {
        self.points[i]
    }

    /// Euclidean distance between two nodes, metres.
    pub fn distance_m(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.points[a];
        let (bx, by) = self.points[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }
}

/// One directed link's classification under a link budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Energy from the transmitter trips this receiver's carrier sense
    /// (and interferes with its other receptions).
    pub senses: bool,
    /// Frames are decodable at this receiver (subject to the channel
    /// model at `snr_db`).
    pub delivers: bool,
    /// Link SNR in dB (effective — ready for the BER model).
    pub snr_db: f64,
}

impl Link {
    /// No link: silent and undecodable, at an SNR of −∞.
    pub const NONE: Link = Link { senses: false, delivers: false, snr_db: f64::NEG_INFINITY };
}

/// The log-distance link budget mapping distance to link SNR and range
/// classes.
///
/// `snr(d) = snr_at_ref_db − 10 · path_loss_exp · log10(d / ref_distance_m)`
///
/// All thresholds apply to the *raw* link SNR; receiver implementation
/// loss is subtracted afterwards (by [`crate::Medium::from_placement`])
/// just as [`crate::Medium::full_mesh`] does for the paper mode.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBudget {
    /// Raw link SNR at the reference distance, dB.
    snr_at_ref_db: f64,
    /// Reference distance, metres (the testbed's 2.5 m spacing).
    ref_distance_m: f64,
    /// Log-distance path-loss exponent (≈2 free space, 3–4 indoor).
    path_loss_exp: f64,
    /// Minimum raw SNR to decode frames: the delivery-range edge.
    delivery_snr_db: f64,
    /// Minimum raw SNR for energy to trip carrier sense. Lower than
    /// `delivery_snr_db`, so the sense range exceeds the delivery range.
    cs_snr_db: f64,
}

impl LinkBudget {
    /// The budget anchored at the Hydra testbed operating point:
    /// `snr_at_ref_db` dB at 2.5 m (paper Table 1: 7.7 mW, 2.5 m grid).
    ///
    /// With exponent 3.0 the 10 dB delivery threshold puts the delivery
    /// range at ≈7.9 m and the 4 dB carrier-sense threshold the sense
    /// range at ≈12.5 m (≈1.6× delivery) — close enough that a chain
    /// spaced just inside delivery range has classic hidden terminals
    /// (two-hop neighbours out of sense range), and far enough that
    /// spatial reuse kicks in three hops out.
    pub fn hydra(snr_at_ref_db: f64) -> Self {
        LinkBudget {
            snr_at_ref_db,
            ref_distance_m: 2.5,
            path_loss_exp: 3.0,
            delivery_snr_db: 10.0,
            cs_snr_db: 4.0,
        }
    }

    /// Raw link SNR at `distance_m`. Distances below a tenth of the
    /// reference are clamped (co-located nodes saturate, not diverge).
    pub fn snr_at(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(self.ref_distance_m * 0.1);
        self.snr_at_ref_db - 10.0 * self.path_loss_exp * (d / self.ref_distance_m).log10()
    }

    /// The distance at which raw SNR falls to `threshold_db`.
    fn range_for(&self, threshold_db: f64) -> f64 {
        self.ref_distance_m * 10f64.powf((self.snr_at_ref_db - threshold_db) / (10.0 * self.path_loss_exp))
    }

    /// Maximum distance at which frames decode.
    pub fn delivery_range_m(&self) -> f64 {
        self.range_for(self.delivery_snr_db)
    }

    /// Maximum distance at which energy trips carrier sense.
    pub fn cs_range_m(&self) -> f64 {
        self.range_for(self.cs_snr_db)
    }

    /// Classifies a link of `distance_m`, reporting the **raw** SNR
    /// (callers subtract implementation loss where appropriate).
    pub fn classify(&self, distance_m: f64) -> Link {
        let snr = self.snr_at(distance_m);
        Link { senses: snr >= self.cs_snr_db, delivers: snr >= self.delivery_snr_db, snr_db: snr }
    }
}

/// A uniform-grid spatial index over a [`Placement`].
///
/// Nodes are binned into square cells of side `cell_m`. Any pair of
/// nodes within `cell_m` of each other is guaranteed to lie in the same
/// or in adjacent cells, so a cell sized by the carrier-sense range
/// turns the all-pairs O(n²) link classification into a scan of each
/// node's 3×3 cell neighbourhood — the constructor behind
/// [`crate::Medium::from_placement`]'s sparse adjacency at mesh scale.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_m: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// Node ids per cell, ascending (nodes are inserted in id order).
    cells: Vec<Vec<u32>>,
}

impl GridIndex {
    /// Bins `placement` into cells of side `cell_m`.
    pub fn new(placement: &Placement, cell_m: f64) -> Self {
        assert!(cell_m > 0.0 && cell_m.is_finite(), "cell size must be positive");
        let n = placement.node_count();
        if n == 0 {
            return GridIndex { cell_m, min_x: 0.0, min_y: 0.0, cols: 1, rows: 1, cells: vec![Vec::new()] };
        }
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for i in 0..n {
            let (x, y) = placement.position_m(i);
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        let cols = (((max_x - min_x) / cell_m).floor() as usize) + 1;
        let rows = (((max_y - min_y) / cell_m).floor() as usize) + 1;
        let mut index = GridIndex { cell_m, min_x, min_y, cols, rows, cells: vec![Vec::new(); cols * rows] };
        for i in 0..n {
            let (x, y) = placement.position_m(i);
            let (cx, cy) = index.cell_of(x, y);
            index.cells[cy * cols + cx].push(i as u32);
        }
        index
    }

    fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        let cx = (((x - self.min_x) / self.cell_m).floor() as usize).min(self.cols - 1);
        let cy = (((y - self.min_y) / self.cell_m).floor() as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Appends to `out` (cleared first) every node in the 3×3 cell
    /// neighbourhood of `node` — a superset of all nodes within `cell_m`
    /// of it, including `node` itself. Order is unspecified.
    pub fn candidates_near(&self, placement: &Placement, node: usize, out: &mut Vec<u32>) {
        out.clear();
        let (x, y) = placement.position_m(node);
        let (cx, cy) = self.cell_of(x, y);
        for dy in cy.saturating_sub(1)..=(cy + 1).min(self.rows - 1) {
            for dx in cx.saturating_sub(1)..=(cx + 1).min(self.cols - 1) {
                out.extend_from_slice(&self.cells[dy * self.cols + dx]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> LinkBudget {
        LinkBudget::hydra(25.0)
    }

    #[test]
    fn snr_at_reference_matches_anchor() {
        assert!((budget().snr_at(2.5) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn snr_decays_with_distance() {
        let b = budget();
        // Doubling the distance costs 10 · 3 · log10(2) ≈ 9.03 dB.
        assert!((b.snr_at(5.0) - (25.0 - 9.03)).abs() < 0.01);
        assert!(b.snr_at(10.0) < b.snr_at(5.0));
    }

    #[test]
    fn cs_range_exceeds_delivery_range() {
        let b = budget();
        assert!(b.cs_range_m() > b.delivery_range_m());
        // ≈7.9 m and ≈12.5 m at the hydra anchor.
        assert!((b.delivery_range_m() - 7.91).abs() < 0.02, "{}", b.delivery_range_m());
        assert!((b.cs_range_m() - 12.53).abs() < 0.02, "{}", b.cs_range_m());
    }

    #[test]
    fn classify_partitions_by_distance() {
        let b = budget();
        let near = b.classify(2.5);
        assert!(near.senses && near.delivers);
        let gray = b.classify(10.0); // between delivery (7.9) and CS (12.5) range
        assert!(gray.senses && !gray.delivers);
        let far = b.classify(20.0);
        assert!(!far.senses && !far.delivers);
    }

    #[test]
    fn range_for_inverts_snr_at() {
        let b = budget();
        for thr in [4.0, 10.0, 16.0] {
            assert!((b.snr_at(b.range_for(thr)) - thr).abs() < 1e-9);
        }
    }

    #[test]
    fn co_located_nodes_clamp() {
        let b = budget();
        assert_eq!(b.snr_at(0.0), b.snr_at(0.25));
        assert!(b.snr_at(0.0).is_finite());
    }

    #[test]
    fn grid_index_candidates_cover_all_in_range_pairs() {
        // Pseudo-random scatter: every pair within the cell size must be
        // found via the 3×3 neighbourhood, matching an O(n²) scan.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let points: Vec<(f64, f64)> = (0..80).map(|_| (next() * 50.0, next() * 50.0)).collect();
        let p = Placement::new(points);
        let range = 9.0;
        let index = GridIndex::new(&p, range);
        let mut scratch = Vec::new();
        for a in 0..p.node_count() {
            index.candidates_near(&p, a, &mut scratch);
            for b in 0..p.node_count() {
                if a != b && p.distance_m(a, b) <= range {
                    assert!(scratch.contains(&(b as u32)), "pair ({a},{b}) missed by grid index");
                }
            }
            assert!(scratch.contains(&(a as u32)), "candidates include the node itself");
        }
    }

    #[test]
    fn grid_index_handles_degenerate_placements() {
        let empty = GridIndex::new(&Placement::new(vec![]), 5.0);
        let mut scratch = vec![7u32];
        // Co-located points land in one cell.
        let p = Placement::new(vec![(3.0, 3.0); 4]);
        let g = GridIndex::new(&p, 5.0);
        g.candidates_near(&p, 0, &mut scratch);
        assert_eq!(scratch, vec![0, 1, 2, 3]);
        drop(empty);
    }

    #[test]
    fn placement_scaling_and_distance() {
        let unit = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)];
        let p = Placement::from_unit(&unit, 5.0);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.position_m(2), (10.0, 0.0));
        assert!((p.distance_m(0, 2) - 10.0).abs() < 1e-12);
        let diag = Placement::new(vec![(0.0, 0.0), (3.0, 4.0)]);
        assert!((diag.distance_m(0, 1) - 5.0).abs() < 1e-12);
    }
}
