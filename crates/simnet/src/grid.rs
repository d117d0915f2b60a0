//! Spatial neighbor index for the radio channel model.
//!
//! The simulator's radio hot path — carrier sense in `World::start_tx` and
//! receiver discovery in `World::tx_done` — historically scanned every
//! node per transmission, making dense broadcast workloads O(n²) per
//! beacon interval. [`NeighborGrid`] buckets nodes into a uniform grid
//! with cell size equal to the radio range, so a range query inspects at
//! most the 3×3 block of cells around the transmitter instead of the
//! whole world.
//!
//! # Determinism contract
//!
//! The grid is a pure accelerator: for any query it must yield *exactly*
//! the node set the full scan would, in the *same order*, because
//! downstream per-receiver loss sampling consumes RNG draws in iteration
//! order. Two mechanisms guarantee this:
//!
//! * candidates are sorted by node id before being returned, matching the
//!   full scan's creation-order iteration; volatile predicates (`up`,
//!   link faults, exact distance at the current time) are applied by the
//!   caller against the node arena (`node::HotNode`), never against
//!   cached data.
//! * staleness is drift-bounded rather than forbidden: the grid records
//!   the fastest mobility speed in the world at build time, and each
//!   query inflates its radius by `max_speed × (now − built_at)` — the
//!   farthest any node can have strayed from its indexed cell. The
//!   inflated query therefore always returns a superset of the true
//!   in-range set, and the caller's exact distance filter trims it.
//!
//! The grid maintains itself incrementally: structural mutations (adding
//! nodes) mark the whole index dirty and force a full rebuild, but
//! per-node position changes (teleports, mobility swaps, waypoint
//! replans) move just that node between cells via
//! [`invalidate_node`](NeighborGrid::invalidate_node). When accumulated
//! drift would inflate the query radius past a fraction of the cell size
//! (at which point the 3×3 block no longer suffices and a wider scan is
//! needed), only the *mobile* nodes are re-binned — a 100k-node city with
//! a handful of convoys refreshes in O(#mobile), not O(n). Static worlds
//! never drift, so after warm-up they never rebuild.
//!
//! Nodes that wander outside the build-time bounding box are clamped to
//! the nearest edge cell. This preserves the superset guarantee: the
//! query block is clamped to the same box, and clamping is monotone per
//! axis, so a node's clamped cell always lies inside the clamped query
//! block whenever its true cell lies inside the unclamped one.

use crate::mobility::Position;
use crate::node::{HotNode, NodeId};
use crate::time::SimTime;

/// How much drift slack (as a fraction of the cell size) a query tolerates
/// before forcing a rebuild. Below this, stale cells are served with an
/// inflated radius; above it, rebuilding is cheaper than over-scanning.
const MAX_DRIFT_FRACTION: f64 = 0.25;

/// Uniform-grid spatial index over node positions.
///
/// See the module docs for the determinism contract. All methods are
/// deterministic functions of the node arena and simulation time; the
/// index holds no RNG state.
#[derive(Debug)]
pub struct NeighborGrid {
    /// Cell edge length; set to the radio range so any receiver lies in
    /// the 3×3 cell block around the transmitter (modulo drift slack).
    cell: f64,
    /// When the cells were last rebuilt.
    built_at: SimTime,
    /// Fastest mobility bound across all indexed nodes at build time;
    /// bounds position drift since `built_at`.
    max_speed: f64,
    /// Cell coordinates of `buckets[0]` (the build-time bounding box's
    /// lower-left cell).
    origin: (i64, i64),
    /// Bounding-box extent in cells.
    cols: i64,
    rows: i64,
    /// Row-major buckets of node ids whose *assigned* position fell in
    /// that cell. Each bucket is id-sorted: rebuilds iterate nodes in
    /// creation order and incremental moves use sorted insertion. A flat
    /// array (not a hash map) so the 3×3 query does plain indexing.
    buckets: Vec<Vec<NodeId>>,
    /// Per-node assigned cell (clamped to the built bounding box), indexed
    /// by node id. Sentinel for nodes outside the build (non-radio).
    node_cell: Vec<(i64, i64)>,
    /// Whether each node had a nonzero mobility bound at its last
    /// assignment, indexed by node id. Mirrors membership in `mobile`.
    is_mobile: Vec<bool>,
    /// Ids of indexed nodes with nonzero mobility bound — the only nodes a
    /// drift refresh must re-bin.
    mobile: Vec<NodeId>,
    /// Set when topology mutated structurally (node added); forces a full
    /// rebuild on the next query.
    dirty: bool,
}

/// Assigned-cell sentinel for nodes the current build does not index.
const NO_CELL: (i64, i64) = (i64::MIN, i64::MIN);

impl NeighborGrid {
    /// Creates an empty, dirty index with the given cell size (radio
    /// range). The first query triggers a build.
    pub fn new(cell: f64) -> NeighborGrid {
        NeighborGrid {
            cell: if cell > 0.0 { cell } else { 1.0 },
            built_at: SimTime::ZERO,
            max_speed: 0.0,
            origin: (0, 0),
            cols: 0,
            rows: 0,
            buckets: Vec::new(),
            node_cell: Vec::new(),
            is_mobile: Vec::new(),
            mobile: Vec::new(),
            dirty: true,
        }
    }

    /// Marks the whole index stale. Call on structural mutations (node
    /// added) where the bounding box itself may need to grow. Per-node
    /// position changes should use [`invalidate_node`](Self::invalidate_node)
    /// instead.
    pub fn invalidate(&mut self) {
        self.dirty = true;
    }

    /// Re-bins a single node after a discontinuous position change
    /// (teleport, mobility swap, waypoint replan): moves it from its
    /// assigned cell to the cell of its position at `now`, clamped to the
    /// built bounding box. O(bucket) instead of the O(n) full rebuild the
    /// blanket [`invalidate`](Self::invalidate) forces. Falls back to a
    /// full rebuild when the node is unknown to the current build.
    pub fn invalidate_node(&mut self, hot: &[HotNode], id: NodeId, now: SimTime) {
        if self.dirty {
            return;
        }
        let idx = id.0 as usize;
        let Some(n) = hot.get(idx) else {
            self.dirty = true;
            return;
        };
        if !n.has_radio {
            return;
        }
        if self.cols == 0 || idx >= self.node_cell.len() || self.node_cell[idx] == NO_CELL {
            self.dirty = true;
            return;
        }
        // Monotone overestimate: a faster mobility model raises the drift
        // bound immediately (queries over-scan, stay supersets); the exact
        // bound is restored at the next refresh or rebuild.
        self.max_speed = self.max_speed.max(n.max_speed);
        let c = self.clamped_cell(n.position(now));
        let old = self.node_cell[idx];
        if c != old {
            self.remove_from_bucket(old, id);
            self.insert_into_bucket(c, id);
            self.node_cell[idx] = c;
        }
        let mobile = n.max_speed > 0.0;
        if mobile && !self.is_mobile[idx] {
            self.is_mobile[idx] = true;
            self.mobile.push(id);
        } else if !mobile && self.is_mobile[idx] {
            self.is_mobile[idx] = false;
            self.mobile.retain(|&m| m != id);
        }
    }

    /// Brings the index up to date for a query at `now`. When a refresh
    /// lands is invisible in the trace: queries return drift-inflated
    /// *supersets* that the callers trim with exact distance checks
    /// before anything observable (RNG draws, deliveries) happens (the
    /// grid↔full-scan equivalence tests pin exactly this).
    ///
    /// A dirty index (structural change) takes the full O(n) rebuild; a
    /// merely *drifted* one re-bins only the mobile nodes.
    fn ensure_fresh(&mut self, hot: &[HotNode], now: SimTime) {
        if self.dirty {
            self.rebuild(hot, now);
        } else if self.drift(now) > self.cell * MAX_DRIFT_FRACTION {
            self.refresh_mobile(hot, now);
        }
    }

    /// Re-bins every mobile node to its cell at `now` and resets the
    /// drift clock. Sound because static cells are exact (those nodes
    /// have not moved since assignment) and every node that *can* move is
    /// on the mobile list, so after the pass all assigned cells reflect
    /// positions at `now`. Also recomputes the exact mobility bound,
    /// undoing any monotone overestimate left by
    /// [`invalidate_node`](Self::invalidate_node).
    fn refresh_mobile(&mut self, hot: &[HotNode], now: SimTime) {
        let mut max_speed = 0.0f64;
        for i in 0..self.mobile.len() {
            let id = self.mobile[i];
            let idx = id.0 as usize;
            let n = &hot[idx];
            max_speed = max_speed.max(n.max_speed);
            let c = self.clamped_cell(n.position(now));
            let old = self.node_cell[idx];
            if c != old {
                self.remove_from_bucket(old, id);
                self.insert_into_bucket(c, id);
                self.node_cell[idx] = c;
            }
        }
        self.max_speed = max_speed;
        self.built_at = now;
    }

    /// Worst-case distance any node may have moved since the last build.
    fn drift(&self, now: SimTime) -> f64 {
        let age = now.as_micros().saturating_sub(self.built_at.as_micros());
        self.max_speed * (age as f64 / 1_000_000.0)
    }

    fn cell_of(&self, pos: Position) -> (i64, i64) {
        (
            (pos.0 / self.cell).floor() as i64,
            (pos.1 / self.cell).floor() as i64,
        )
    }

    /// Cell of `pos`, clamped into the built bounding box (see the module
    /// docs for why clamping preserves the superset guarantee).
    fn clamped_cell(&self, pos: Position) -> (i64, i64) {
        let c = self.cell_of(pos);
        (
            c.0.clamp(self.origin.0, self.origin.0 + self.cols - 1),
            c.1.clamp(self.origin.1, self.origin.1 + self.rows - 1),
        )
    }

    fn bucket_idx(&self, c: (i64, i64)) -> usize {
        ((c.1 - self.origin.1) * self.cols + (c.0 - self.origin.0)) as usize
    }

    fn remove_from_bucket(&mut self, c: (i64, i64), id: NodeId) {
        let idx = self.bucket_idx(c);
        let b = &mut self.buckets[idx];
        if let Ok(i) = b.binary_search_by_key(&id.0, |n| n.0) {
            b.remove(i);
        }
    }

    fn insert_into_bucket(&mut self, c: (i64, i64), id: NodeId) {
        let idx = self.bucket_idx(c);
        let b = &mut self.buckets[idx];
        let i = b.binary_search_by_key(&id.0, |n| n.0).unwrap_or_else(|i| i);
        b.insert(i, id);
    }

    fn rebuild(&mut self, hot: &[HotNode], now: SimTime) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.node_cell.clear();
        self.node_cell.resize(hot.len(), NO_CELL);
        self.is_mobile.clear();
        self.is_mobile.resize(hot.len(), false);
        self.mobile.clear();
        self.max_speed = 0.0;
        // Bounding box of radio-node cells; positions are recomputed in
        // the placement pass below (cheap, and keeps this single-pass
        // logic obvious).
        let (mut lo, mut hi): (Option<(i64, i64)>, (i64, i64)) = (None, (0, 0));
        for n in hot {
            if !n.has_radio {
                continue;
            }
            self.max_speed = self.max_speed.max(n.max_speed);
            let c = self.cell_of(n.position(now));
            match &mut lo {
                None => {
                    lo = Some(c);
                    hi = c;
                }
                Some(lo) => {
                    lo.0 = lo.0.min(c.0);
                    lo.1 = lo.1.min(c.1);
                    hi.0 = hi.0.max(c.0);
                    hi.1 = hi.1.max(c.1);
                }
            }
        }
        let Some(origin) = lo else {
            // No radio nodes: empty grid.
            self.origin = (0, 0);
            self.cols = 0;
            self.rows = 0;
            self.built_at = now;
            self.dirty = false;
            return;
        };
        self.origin = origin;
        self.cols = hi.0 - origin.0 + 1;
        self.rows = hi.1 - origin.1 + 1;
        let want = (self.cols * self.rows) as usize;
        if self.buckets.len() < want {
            self.buckets.resize_with(want, Vec::new);
        }
        for (i, n) in hot.iter().enumerate() {
            if !n.has_radio {
                continue;
            }
            let id = NodeId(i as u32);
            let c = self.cell_of(n.position(now));
            let idx = (c.1 - origin.1) * self.cols + (c.0 - origin.0);
            self.buckets[idx as usize].push(id);
            self.node_cell[i] = c;
            if n.max_speed > 0.0 {
                self.is_mobile[i] = true;
                self.mobile.push(id);
            }
        }
        self.built_at = now;
        self.dirty = false;
    }

    /// Appends the ids of all radio nodes whose current position *may* be
    /// within `range` of `pos`, excluding `node`, sorted by node id — a
    /// guaranteed superset of the true in-range set — to `out`, a
    /// caller-owned buffer the event loop reuses across transmissions.
    /// The caller must re-check exact distance (and any volatile
    /// predicates such as `up` or link faults) against the arena.
    ///
    /// Rebuilds the index first if it is dirty or has drifted too far.
    pub fn candidates_into(
        &mut self,
        hot: &[HotNode],
        node: NodeId,
        pos: Position,
        range: f64,
        now: SimTime,
        out: &mut Vec<NodeId>,
    ) {
        self.ensure_fresh(hot, now);
        if self.cols == 0 {
            return;
        }
        let r = range + self.drift(now);
        // Clamp the query block to the built bounding box: every indexed
        // node lies inside it by construction.
        let (qx0, qy0) = self.cell_of((pos.0 - r, pos.1 - r));
        let (qx1, qy1) = self.cell_of((pos.0 + r, pos.1 + r));
        let cx0 = (qx0 - self.origin.0).clamp(0, self.cols - 1);
        let cx1 = (qx1 - self.origin.0).clamp(0, self.cols - 1);
        let cy0 = (qy0 - self.origin.1).clamp(0, self.rows - 1);
        let cy1 = (qy1 - self.origin.1).clamp(0, self.rows - 1);
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            for cx in cx0..=cx1 {
                let bucket = &self.buckets[(row + cx) as usize];
                out.extend(bucket.iter().copied().filter(|&id| id != node));
            }
        }
        // Buckets are visited in cell order, not id order; restore the
        // full scan's creation-order iteration.
        out.sort_unstable_by_key(|id| id.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{distance, Area, Mobility, WaypointParams};
    use crate::node::NodeConfig;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn mk_nodes(positions: &[(f64, f64)]) -> Vec<HotNode> {
        positions
            .iter()
            .map(|&(x, y)| placed(Mobility::fixed(x, y)))
            .collect()
    }

    fn placed(mobility: Mobility) -> HotNode {
        let mut h = HotNode::new(&NodeConfig::manet(0.0, 0.0));
        h.place(mobility);
        h
    }

    /// A node racing along random waypoints at 30 m/s from `start`.
    fn racer(start: (f64, f64), area: Area, rng: &mut SimRng) -> HotNode {
        let params = WaypointParams::new(30.0, 30.0, SimDuration::ZERO);
        placed(Mobility::random_waypoint(
            start,
            params,
            area,
            SimTime::ZERO,
            rng,
        ))
    }

    /// Whether the next query at `now` would rebuild the cells first:
    /// the index is dirty, or accumulated drift exceeds the slack budget.
    fn needs_rebuild(grid: &NeighborGrid, now: SimTime) -> bool {
        grid.dirty || grid.drift(now) > grid.cell * MAX_DRIFT_FRACTION
    }

    impl NeighborGrid {
        fn candidates(
            &mut self,
            hot: &[HotNode],
            node: NodeId,
            pos: Position,
            range: f64,
            now: SimTime,
        ) -> Vec<NodeId> {
            let mut out = Vec::new();
            self.candidates_into(hot, node, pos, range, now, &mut out);
            out
        }
    }

    fn ids(nodes: &[HotNode]) -> impl Iterator<Item = NodeId> {
        (0..nodes.len() as u32).map(NodeId)
    }

    fn full_scan(
        nodes: &[HotNode],
        node: NodeId,
        pos: (f64, f64),
        range: f64,
        now: SimTime,
    ) -> Vec<NodeId> {
        ids(nodes)
            .filter(|&id| {
                let n = &nodes[id.0 as usize];
                id != node && n.has_radio && distance(pos, n.position(now)) <= range
            })
            .collect()
    }

    /// Every node's grid candidates, trimmed to exact range, equal the
    /// full scan's at `now`.
    fn assert_every_query_matches_the_scan(
        grid: &mut NeighborGrid,
        nodes: &[HotNode],
        range: f64,
        now: SimTime,
    ) {
        for id in ids(nodes) {
            let pos = nodes[id.0 as usize].position(now);
            let cand = grid.candidates(nodes, id, pos, range, now);
            let exact: Vec<NodeId> = cand
                .into_iter()
                .filter(|&c| distance(pos, nodes[c.0 as usize].position(now)) <= range)
                .collect();
            assert_eq!(exact, full_scan(nodes, id, pos, range, now));
        }
    }

    #[test]
    fn candidates_superset_matches_full_scan_after_exact_filter() {
        let mut rng = SimRng::from_seed_and_stream(42, 7);
        let positions: Vec<(f64, f64)> = (0..80)
            .map(|_| (rng.range_f64(0.0, 500.0), rng.range_f64(0.0, 500.0)))
            .collect();
        let nodes = mk_nodes(&positions);
        let mut grid = NeighborGrid::new(100.0);
        assert_every_query_matches_the_scan(&mut grid, &nodes, 100.0, SimTime::ZERO);
    }

    #[test]
    fn candidates_are_sorted_and_exclude_self() {
        let nodes = mk_nodes(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (500.0, 500.0)]);
        let mut grid = NeighborGrid::new(100.0);
        let cand = grid.candidates(&nodes, NodeId(1), (10.0, 0.0), 100.0, SimTime::ZERO);
        assert!(!cand.contains(&NodeId(1)));
        let mut sorted = cand.clone();
        sorted.sort_unstable_by_key(|id| id.0);
        assert_eq!(cand, sorted);
        assert!(cand.contains(&NodeId(0)) && cand.contains(&NodeId(2)));
        assert!(!cand.contains(&NodeId(3)));
    }

    #[test]
    fn drift_inflation_keeps_moving_nodes_visible() {
        // One waypoint node racing away from its build-time cell: the
        // stale grid must still report it while it remains in true range.
        let mut nodes = mk_nodes(&[(0.0, 0.0)]);
        let mut rng = SimRng::from_seed_and_stream(5, 5);
        nodes.push(racer((10.0, 0.0), Area::new(1000.0, 1000.0), &mut rng));
        let range = 100.0;
        let mut grid = NeighborGrid::new(range);
        // Build at t=0, query at t=2s: node 1 may be up to 60 m away from
        // its indexed position but must still be a candidate.
        grid.candidates(&nodes, NodeId(0), (0.0, 0.0), range, SimTime::ZERO);
        let later = SimTime::from_secs(2);
        let pos1 = nodes[1].position(later);
        if distance((0.0, 0.0), pos1) <= range {
            let cand = grid.candidates(&nodes, NodeId(0), (0.0, 0.0), range, later);
            assert!(
                cand.contains(&NodeId(1)),
                "drifted node missing from candidates"
            );
        }
    }

    #[test]
    fn per_node_invalidation_matches_full_scan() {
        let mut rng = SimRng::from_seed_and_stream(9, 9);
        let positions: Vec<(f64, f64)> = (0..60)
            .map(|_| (rng.range_f64(0.0, 400.0), rng.range_f64(0.0, 400.0)))
            .collect();
        let mut nodes = mk_nodes(&positions);
        let range = 100.0;
        let now = SimTime::ZERO;
        let mut grid = NeighborGrid::new(range);
        // Initial full build.
        grid.candidates(&nodes, NodeId(0), positions[0], range, now);
        // Teleport a handful of nodes — including one outside the built
        // bounding box (exercises edge-cell clamping) — and re-bin each
        // incrementally instead of rebuilding.
        for (i, to) in [
            (3usize, (390.0, 10.0)),
            (17, (5.0, 395.0)),
            (41, (2000.0, 2000.0)),
        ] {
            nodes[i].place(Mobility::fixed(to.0, to.1));
            grid.invalidate_node(&nodes, NodeId(i as u32), now);
        }
        assert!(!needs_rebuild(&grid, now), "incremental path went dirty");
        assert_every_query_matches_the_scan(&mut grid, &nodes, range, now);
    }

    #[test]
    fn drift_refresh_rebins_only_mobile_nodes_and_resets_clock() {
        // A static field plus one fast waypoint node: once drift exceeds
        // the slack budget the refresh must re-bin the mover (queries stay
        // exact-equivalent to a full scan) and reset the drift clock.
        let mut nodes = mk_nodes(&[(0.0, 0.0), (250.0, 250.0), (400.0, 0.0)]);
        let mut rng = SimRng::from_seed_and_stream(5, 6);
        nodes.insert(1, racer((10.0, 0.0), Area::new(500.0, 500.0), &mut rng));
        let range = 100.0;
        let mut grid = NeighborGrid::new(range);
        grid.candidates(&nodes, NodeId(0), (0.0, 0.0), range, SimTime::ZERO);
        // 30 m/s for 2 s = 60 m of drift > 25 m slack: the next query
        // takes the mobile-refresh path, not the full rebuild.
        let later = SimTime::from_secs(2);
        assert!(needs_rebuild(&grid, later));
        assert_every_query_matches_the_scan(&mut grid, &nodes, range, later);
        assert!(
            !needs_rebuild(&grid, later),
            "refresh must reset the drift clock"
        );
    }

    #[test]
    fn invalidate_forces_rebuild_visibility() {
        let mut nodes = mk_nodes(&[(0.0, 0.0), (5000.0, 5000.0)]);
        let mut grid = NeighborGrid::new(100.0);
        let none = grid.candidates(&nodes, NodeId(0), (0.0, 0.0), 100.0, SimTime::ZERO);
        assert!(none.is_empty());
        // Teleport node 1 next to node 0; without invalidation the stale
        // static grid would keep it in the far cell forever.
        nodes[1].place(Mobility::fixed(50.0, 0.0));
        grid.invalidate();
        let cand = grid.candidates(&nodes, NodeId(0), (0.0, 0.0), 100.0, SimTime::ZERO);
        assert_eq!(cand, vec![NodeId(1)]);
    }
}
