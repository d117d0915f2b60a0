//! Radio neighbour lists for the channel model.
//!
//! The radio hot path — carrier sense in `World::start_tx` and receiver
//! discovery in `World::tx_done` — needs, per transmission, every radio
//! node that may be in range of the transmitter. [`NeighborGrid`] keeps
//! one candidate list per node, all of them in one CSR (`start`, `ids`),
//! so a transmission reads one slice instead of searching space. In a
//! city most nodes never move: their lists are derived once and read on
//! every beacon.
//!
//! # Determinism contract
//!
//! The lists are a pure accelerator: after the caller's filters, a
//! transmission reaches *exactly* the node set the full scan would, in
//! the *same order*, because per-receiver loss sampling consumes RNG
//! draws in iteration order. Three rules guarantee this:
//!
//! * each list holds radio nodes only, sorted by node id — the full
//!   scan's creation order; volatile predicates (`up`, link faults, exact
//!   distance at the current time) are applied by the caller against the
//!   node arena (`node::HotNode`), never against the lists.
//! * each list is a superset of its node's in-range set at every instant
//!   up to the *horizon*. With `v` a node's speed bound and `v_max` the
//!   fastest bound of any radio node, the horizon is
//!   H = `MAX_DRIFT_FRACTION` × cell ÷ `v_max` past the derivation, the
//!   cell being the radio range (unbounded in a static world). At
//!   derivation a pair `a, b` is listed when its distance is at most
//!   range + (v_a + v_b)·H — the pair's *skin* — plus a pad of
//!   `PAD_FRACTION` of a cell against rounding. Before the horizon the
//!   two can have closed at most (v_a + v_b)·H of the gap, so a pair in
//!   range then was listed. A static pair's skin is zero: it is listed
//!   exactly, and its distance never changes.
//! * only a discontinuity invalidates. Adding a node and replacing a
//!   node's mobility — a teleport, a speed change — re-derive every list
//!   ([`invalidate`](NeighborGrid::invalidate)); no workload does either
//!   mid-run. A replan continues from where its node stands, within its
//!   speed bound (`World::set_mobility` ends the replans of the model it
//!   replaces), and invalidates nothing.
//!
//! When the horizon passes, only the pairs that touch a mobile node are
//! re-derived and spliced in; the static pairs stay until the next
//! discontinuity. A refresh of a 100k-node city with 15k convoys costs
//! about 24 ms: one pass over the arena, 15k range queries and one copy
//! of the lists.
//!
//! The range queries run on a transient cell-sorted CSR of the radio
//! nodes' positions (cell side = radio range), with the widest skin any
//! partner could need as their reach. It is read only while lists are
//! derived; between derivations it keeps its buffers' capacity.

use crate::mobility::Position;
use crate::node::{HotNode, NodeId};
use crate::time::SimTime;

/// How far, as a fraction of the cell, the fastest node may drift before
/// the lists expire. Larger horizons refresh less often but widen every
/// skin, and with it every list a transmission reads.
const MAX_DRIFT_FRACTION: f64 = 0.25;

/// Slack, as a fraction of the cell, added to every pair's listing
/// distance. It covers float rounding in the skin and the sub-microsecond
/// rounding of a waypoint leg's travel time (a node can run up to 0.5 µs
/// ahead of its speed bound per leg); it only ever adds candidates.
const PAD_FRACTION: f64 = 1e-3;

/// Every radio node's candidate receivers, valid up to a drift horizon.
///
/// See the module docs for the determinism contract. All methods are
/// deterministic functions of the node arena and simulation time; the
/// lists hold no RNG state.
#[derive(Debug)]
pub struct NeighborGrid {
    /// Radio range: the listing distance of a static pair.
    range: f64,
    /// Node `i`'s list is `ids[start[i]..start[i + 1]]`; one entry per
    /// node at the last derivation, plus one.
    start: Vec<u32>,
    ids: Vec<NodeId>,
    /// First instant the lists no longer cover: the horizon past the last
    /// derivation, [`SimTime::MAX`] in a static world, and
    /// [`SimTime::ZERO`] while a change waits to be derived.
    expires: SimTime,
    /// Set by a structural change: the next derivation rebuilds every list.
    dirty: bool,
    /// Derivations so far: full builds plus horizon refreshes.
    rebuilds: u64,
    /// The transient grid the lists are derived from.
    cells: Cells,
}

impl NeighborGrid {
    /// Creates empty lists for a radio range; the first read builds them.
    pub fn new(range: f64) -> NeighborGrid {
        NeighborGrid {
            range,
            start: Vec::new(),
            ids: Vec::new(),
            expires: SimTime::ZERO,
            dirty: true,
            rebuilds: 0,
            cells: Cells::new(if range > 0.0 { range } else { 1.0 }),
        }
    }

    /// Marks every list stale. Call on a discontinuity: a node added, a
    /// node's mobility replaced.
    pub fn invalidate(&mut self) {
        self.dirty = true;
        self.expires = SimTime::ZERO;
    }

    /// The radio nodes that *may* be within range of `node` at `now`,
    /// excluding `node`, sorted by id — a superset of the true in-range
    /// set. The caller re-checks exact distance and any volatile
    /// predicates (`up`, link faults) against the arena.
    ///
    /// Re-derives the lists first if a change is pending or the horizon
    /// has passed.
    pub fn neighbors(&mut self, hot: &[HotNode], node: NodeId, now: SimTime) -> &[NodeId] {
        if now >= self.expires {
            self.derive(hot, now);
        }
        let i = node.0 as usize;
        &self.ids[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Derivations so far: full builds plus horizon refreshes.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Heap bytes of the lists and the transient grid, by capacity.
    pub fn heap_bytes(&self) -> usize {
        let words = self.start.capacity()
            + self.ids.capacity()
            + self.cells.start.capacity()
            + self.cells.ids.capacity();
        words * std::mem::size_of::<u32>()
    }

    /// Brings every list up to date at `now`. A structural change
    /// rebuilds all of them; otherwise only the nodes that can move (the
    /// *redone* nodes) are queried, and every other list keeps its
    /// partners that were not redone and gains the redone nodes whose
    /// fresh lists name it — the listing relation is symmetric.
    fn derive(&mut self, hot: &[HotNode], now: SimTime) {
        let n = hot.len();
        let full = self.dirty || self.start.len() != n + 1;
        let mut redo = vec![full; n];
        let v_max = self.cells.bin(hot, now, &mut redo);
        let horizon = if v_max > 0.0 {
            MAX_DRIFT_FRACTION * self.cells.side / v_max
        } else {
            0.0
        };
        let pad = PAD_FRACTION * self.cells.side;

        // A redone node's fresh list: every radio node that may meet it
        // before the horizon. The query's reach is the widest skin any
        // partner could need; each candidate is held to its own. Queries
        // run in cell order, so consecutive ones share cells and arena
        // lines (a city refresh took ≈ 22 ms this way and ≈ 27 ms in id
        // order); `slot[m]` is where redone node `m`'s list is in
        // `fresh_start`.
        let mut slot = vec![u32::MAX; n];
        let mut fresh_start = vec![0u32];
        let mut fresh = Vec::new();
        for &a in self.cells.ids.iter().filter(|a| redo[a.0 as usize]) {
            let h = &hot[a.0 as usize];
            let p = h.position(now);
            let from = fresh.len();
            let reach = self.range + (h.max_speed + v_max) * horizon + pad;
            for row in self.cells.rows_near(p, reach) {
                for &b in row {
                    let hb = &hot[b.0 as usize];
                    let q = hb.position(now);
                    // Squared distances: the pad absorbs the rounding.
                    let limit = self.range + (h.max_speed + hb.max_speed) * horizon + pad;
                    let (dx, dy) = (p.0 - q.0, p.1 - q.1);
                    if dx * dx + dy * dy <= limit * limit && b != a {
                        fresh.push(b);
                    }
                }
            }
            fresh[from..].sort_unstable_by_key(|id| id.0);
            slot[a.0 as usize] = fresh_start.len() as u32 - 1;
            fresh_start.push(fresh.len() as u32);
        }
        let list = |start: &[u32], i: usize| start[i] as usize..start[i + 1] as usize;
        let fresh_of = |m: usize| match slot[m] {
            u32::MAX => &[][..],
            k => &fresh[list(&fresh_start, k as usize)],
        };

        // `back`: for each node not redone, the redone nodes whose fresh
        // lists name it. A counting sort by listed node; visiting `m` in
        // id order leaves each node's entries sorted.
        let redone = || (0..n).filter(|&m| redo[m]);
        let mut back_start = vec![0u32; n + 2];
        for m in redone() {
            for &a in fresh_of(m).iter().filter(|a| !redo[a.0 as usize]) {
                back_start[a.0 as usize + 2] += 1;
            }
        }
        for i in 1..back_start.len() {
            back_start[i] += back_start[i - 1];
        }
        let mut back = vec![NodeId(0); back_start[n + 1] as usize];
        for m in redone() {
            for &a in fresh_of(m).iter().filter(|a| !redo[a.0 as usize]) {
                let at = &mut back_start[a.0 as usize + 1];
                back[*at as usize] = NodeId(m as u32);
                *at += 1;
            }
        }

        // Every new entry is an old one kept, a fresh one or a gained
        // one; capacity never written stays out of the resident set.
        let mut start = Vec::with_capacity(n + 1);
        let old = if full { 0 } else { self.ids.len() };
        let mut ids = Vec::with_capacity(old + fresh.len() + back.len());
        start.push(0u32);
        for a in 0..n {
            if redo[a] {
                ids.extend_from_slice(fresh_of(a));
            } else {
                // Merge the kept partners with the gained ones, both sorted.
                let kept = self.ids[list(&self.start, a)].iter();
                let mut gained = back[list(&back_start, a)].iter().peekable();
                for &b in kept.filter(|b| !redo[b.0 as usize]) {
                    while let Some(&g) = gained.next_if(|g| g.0 < b.0) {
                        ids.push(g);
                    }
                    ids.push(b);
                }
                ids.extend(gained);
            }
            start.push(ids.len() as u32);
        }
        ids.shrink_to_fit();
        self.start = start;
        self.ids = ids;
        self.dirty = false;
        self.rebuilds += 1;
        self.expires = if v_max > 0.0 {
            // Whole microseconds at or inside the horizon.
            let h_us = (horizon * 1e6) as u64;
            SimTime::from_micros(now.as_micros().saturating_add(h_us).saturating_add(1))
        } else {
            SimTime::MAX
        };
    }
}

/// Radio nodes binned by their cell at one instant, as a CSR: cell `c`
/// (row-major over the radio nodes' bounding box) holds
/// `ids[start[c]..start[c + 1]]`, in id order.
#[derive(Debug)]
struct Cells {
    /// Cell side: the radio range.
    side: f64,
    /// `1 / side`.
    per_side: f64,
    /// Cell coordinates of the bounding box's lower-left cell.
    origin: (i64, i64),
    cols: i64,
    rows: i64,
    start: Vec<u32>,
    ids: Vec<NodeId>,
}

impl Cells {
    fn new(side: f64) -> Cells {
        Cells {
            side,
            per_side: 1.0 / side,
            origin: (0, 0),
            cols: 0,
            rows: 0,
            start: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// `floor(x / side)`, without a libm call or a division. Past
    /// `i32` it saturates, which keeps the map monotone: any monotone map
    /// serves, since a query covers every cell between its reach's ends.
    fn coord(&self, x: f64) -> i64 {
        let q = x * self.per_side;
        let t = q as i32;
        i64::from(t.saturating_sub(i32::from(f64::from(t) > q)))
    }

    fn cell_of(&self, pos: Position) -> (i64, i64) {
        (self.coord(pos.0), self.coord(pos.1))
    }

    /// Bins every radio node by its position at `now`, marks in `mobile`
    /// each one that can move, and returns the fastest speed bound.
    fn bin(&mut self, hot: &[HotNode], now: SimTime, mobile: &mut [bool]) -> f64 {
        // One pass over the arena; the counting sort reads the cells back.
        let mut at = Vec::with_capacity(hot.len());
        let (mut lo, mut hi) = ((i64::MAX, i64::MAX), (i64::MIN, i64::MIN));
        let mut v_max = 0.0f64;
        for (i, h) in hot.iter().enumerate().filter(|(_, h)| h.has_radio) {
            let c = self.cell_of(h.position(now));
            lo = (lo.0.min(c.0), lo.1.min(c.1));
            hi = (hi.0.max(c.0), hi.1.max(c.1));
            v_max = v_max.max(h.max_speed);
            mobile[i] |= h.max_speed > 0.0;
            at.push((NodeId(i as u32), c.0 as i32, c.1 as i32));
        }
        self.start.clear();
        self.ids.clear();
        if at.is_empty() {
            (self.cols, self.rows) = (0, 0);
            return v_max;
        }
        self.origin = lo;
        (self.cols, self.rows) = (hi.0 - lo.0 + 1, hi.1 - lo.1 + 1);
        let index =
            |x: i32, y: i32| ((i64::from(y) - lo.1) * self.cols + (i64::from(x) - lo.0)) as usize;
        // Cell `c`'s count goes to `start[c + 2]`; after the prefix sum
        // `start[c + 1]` is its first slot, and placing its nodes
        // advances it to the next cell's, which leaves `start[c]` the
        // start of every cell `c`.
        let cells = (self.cols * self.rows) as usize;
        self.start.resize(cells + 2, 0);
        for &(_, x, y) in &at {
            self.start[index(x, y) + 2] += 1;
        }
        for c in 1..self.start.len() {
            self.start[c] += self.start[c - 1];
        }
        self.ids.resize(at.len(), NodeId(0));
        for &(id, x, y) in &at {
            let slot = &mut self.start[index(x, y) + 1];
            self.ids[*slot as usize] = id;
            *slot += 1;
        }
        self.start.truncate(cells + 1);
        v_max
    }

    /// The binned nodes of the cells that meet the square of half-side
    /// `reach` around `pos` (a binned position), one slice per cell row.
    fn rows_near(&self, pos: Position, reach: f64) -> impl Iterator<Item = &[NodeId]> + '_ {
        let col = |x: f64| (self.coord(x) - self.origin.0).clamp(0, self.cols - 1);
        let row = |y: f64| (self.coord(y) - self.origin.1).clamp(0, self.rows - 1);
        let (x0, x1) = (col(pos.0 - reach), col(pos.0 + reach));
        (row(pos.1 - reach)..=row(pos.1 + reach)).map(move |y| {
            let row = y * self.cols;
            let from = self.start[(row + x0) as usize] as usize;
            let to = self.start[(row + x1 + 1) as usize] as usize;
            &self.ids[from..to]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{distance, Area, Mobility, WaypointParams};
    use crate::node::NodeConfig;
    use crate::radio::RadioConfig;
    use crate::rng::SimRng;
    use crate::time::SimDuration;
    use crate::world::{World, WorldConfig};

    /// Heap bytes per node of the lists and their transient grid on a
    /// district-density world (`neighbor_bytes_per_node_stays_under_its_ceiling`).
    const NEIGHBOR_BYTES_PER_NODE_MAX: usize = 32;

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

    fn random_field(seed: u64, n: usize, side: f64) -> Vec<(f64, f64)> {
        let mut rng = SimRng::from_seed_and_stream(seed, 7);
        (0..n)
            .map(|_| (rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
            .collect()
    }

    fn ids(nodes: &[HotNode]) -> impl Iterator<Item = NodeId> {
        (0..nodes.len() as u32).map(NodeId)
    }

    /// The radio nodes within `range` of `node` at `now`, by id.
    fn full_scan(nodes: &[HotNode], node: NodeId, range: f64, now: SimTime) -> Vec<NodeId> {
        let pos = nodes[node.0 as usize].position(now);
        ids(nodes)
            .filter(|&id| {
                let n = &nodes[id.0 as usize];
                id != node && n.has_radio && distance(pos, n.position(now)) <= range
            })
            .collect()
    }

    /// Every node's list is id-sorted and, trimmed to exact range at
    /// `now`, equals the full scan's in-range set.
    fn assert_lists_cover(grid: &mut NeighborGrid, nodes: &[HotNode], range: f64, now: SimTime) {
        for id in ids(nodes) {
            let pos = nodes[id.0 as usize].position(now);
            let list = grid.neighbors(nodes, id, now).to_vec();
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "{id} unsorted");
            let exact: Vec<NodeId> = list
                .into_iter()
                .filter(|&c| distance(pos, nodes[c.0 as usize].position(now)) <= range)
                .collect();
            assert_eq!(exact, full_scan(nodes, id, range, now), "{id} at {now:?}");
        }
    }

    #[test]
    fn lists_match_the_full_scan_after_the_exact_filter() {
        let nodes = mk_nodes(&random_field(42, 80, 500.0));
        let mut grid = NeighborGrid::new(100.0);
        assert_lists_cover(&mut grid, &nodes, 100.0, SimTime::ZERO);
        // A static world derives once, and never again.
        assert_lists_cover(&mut grid, &nodes, 100.0, SimTime::from_secs(10_000));
        assert_eq!(grid.rebuilds(), 1);
    }

    #[test]
    fn lists_are_sorted_and_exclude_self() {
        let nodes = mk_nodes(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (500.0, 500.0)]);
        let mut grid = NeighborGrid::new(100.0);
        let list = grid.neighbors(&nodes, NodeId(1), SimTime::ZERO);
        assert_eq!(list, [NodeId(0), NodeId(2)]);
    }

    #[test]
    fn lists_cover_the_in_range_set_at_every_instant_up_to_the_horizon() {
        // A static field crossed by six 30 m/s racers: the horizon is
        // 25 m / 30 m/s ≈ 0.83 s, and a racer's skin against a static
        // node 25 m, against another racer 50 m.
        let mut nodes = mk_nodes(&random_field(9, 60, 400.0));
        let mut rng = SimRng::from_seed_and_stream(5, 6);
        let area = Area::new(400.0, 400.0);
        for _ in 0..6 {
            let start = area.sample(&mut rng);
            nodes.push(racer(start, area, &mut rng));
        }
        let range = 100.0;
        let mut grid = NeighborGrid::new(range);
        assert_lists_cover(&mut grid, &nodes, range, SimTime::ZERO);
        let expires = grid.expires;
        assert_eq!(expires.as_micros(), 833_334);
        let mut t = 0;
        while t < expires.as_micros() {
            assert_lists_cover(&mut grid, &nodes, range, SimTime::from_micros(t));
            t += 7_919;
        }
        let last = SimTime::from_micros(expires.as_micros() - 1);
        assert_lists_cover(&mut grid, &nodes, range, last);
        assert_eq!(
            grid.rebuilds(),
            1,
            "a list was re-derived inside the horizon"
        );
        // At the horizon only the racers' pairs are re-derived; three
        // more horizons keep the lists covering.
        for k in 1..=3 {
            let at = SimTime::from_micros(k * expires.as_micros());
            assert_lists_cover(&mut grid, &nodes, range, at);
            assert_eq!(grid.rebuilds(), 1 + k);
        }
    }

    #[test]
    fn invalidate_rebuilds_every_list() {
        let mut nodes = mk_nodes(&[(0.0, 0.0), (5000.0, 5000.0)]);
        let mut grid = NeighborGrid::new(100.0);
        assert!(grid.neighbors(&nodes, NodeId(0), SimTime::ZERO).is_empty());
        nodes.push(placed(Mobility::fixed(50.0, 0.0)));
        grid.invalidate();
        let list = grid.neighbors(&nodes, NodeId(0), SimTime::ZERO);
        assert_eq!(list, [NodeId(2)]);
    }

    fn ideal_world(seed: u64) -> World {
        World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()))
    }

    #[test]
    fn a_replan_leaves_neighbor_rebuilds_unchanged() {
        let mut w = ideal_world(11);
        for i in 0..6 {
            w.add_node(NodeConfig::manet(i as f64 * 40.0, 0.0));
        }
        // 5 m/s in a 10 m square: a leg lasts about a second, the horizon
        // 25 m / 5 m/s = 5 s.
        let walker = w.add_node(NodeConfig::manet(0.0, 0.0));
        let mut rng = SimRng::from_seed_and_stream(11, 1);
        let params = WaypointParams::new(5.0, 5.0, SimDuration::ZERO);
        let area = Area::new(10.0, 10.0);
        w.set_mobility(
            walker,
            Mobility::random_waypoint((0.0, 0.0), params, area, SimTime::ZERO, &mut rng),
        );
        let range = w.config().radio.range;
        assert_lists_cover(&mut w.grid, &w.hot, range, w.now);
        let first_leg = w.hot[walker.0 as usize].leg;
        w.run_until(SimTime::from_millis(4_500));
        let leg = w.hot[walker.0 as usize].leg;
        assert!(leg.start > first_leg.arrive, "no replan ran");
        assert_lists_cover(&mut w.grid, &w.hot, range, w.now);
        assert_eq!(w.grid.rebuilds(), 1);
        // Replacing the mobility, by contrast, re-derives.
        w.set_mobility(walker, Mobility::fixed(5.0, 5.0));
        assert_lists_cover(&mut w.grid, &w.hot, range, w.now);
        assert_eq!(w.grid.rebuilds(), 2);
    }

    #[test]
    fn a_node_given_new_mobility_is_rederived_at_its_new_position() {
        let mut w = ideal_world(3);
        for (x, y) in random_field(3, 60, 400.0) {
            w.add_node(NodeConfig::manet(x, y));
        }
        let range = w.config().radio.range;
        assert_lists_cover(&mut w.grid, &w.hot, range, w.now);
        // Park three nodes elsewhere, one outside the first build's
        // bounding box.
        for (i, to) in [
            (3, (390.0, 10.0)),
            (17, (5.0, 395.0)),
            (41, (2000.0, 2000.0)),
        ] {
            w.set_mobility(NodeId(i), Mobility::fixed(to.0, to.1));
        }
        assert_lists_cover(&mut w.grid, &w.hot, range, w.now);
        assert_eq!(w.grid.rebuilds(), 2);
        // A node that starts moving is re-derived as a mobile one.
        let mut rng = SimRng::from_seed_and_stream(3, 3);
        let params = WaypointParams::new(30.0, 30.0, SimDuration::ZERO);
        let area = Area::new(400.0, 400.0);
        let here = w.position(NodeId(8));
        let walk = Mobility::random_waypoint(here, params, area, w.now, &mut rng);
        w.set_mobility(NodeId(8), walk);
        for ms in [0, 300, 800] {
            w.run_until(SimTime::from_millis(ms));
            assert_lists_cover(&mut w.grid, &w.hot, range, w.now);
        }
        assert_eq!(w.grid.rebuilds(), 3);
    }

    #[test]
    fn a_teleported_node_is_heard_by_its_new_neighbours_on_the_next_broadcast() {
        use crate::net::{Addr, Datagram, SocketAddr};
        let mut w = ideal_world(12);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(60.0, 0.0));
        let c = w.add_node(NodeConfig::manet(1_000.0, 0.0));
        let beacon = |w: &mut World, from: NodeId| {
            let src = SocketAddr::new(w.node(from).addr(), 9000);
            let dst = SocketAddr::new(Addr::BROADCAST, 9000);
            w.inject(from, Datagram::new(src, dst, vec![1u8; 8]));
            w.run_for(SimDuration::from_millis(50));
        };
        let rx = |w: &World, id: NodeId| w.stats(id).get("radio.rx").packets;
        beacon(&mut w, c);
        assert_eq!((rx(&w, a), rx(&w, b)), (0, 0));
        w.set_mobility(c, Mobility::fixed(30.0, 0.0));
        beacon(&mut w, c);
        assert_eq!((rx(&w, a), rx(&w, b)), (1, 1));
        beacon(&mut w, a);
        assert_eq!(rx(&w, c), 1);
        assert_eq!(w.grid.rebuilds(), 2);
    }

    #[test]
    fn neighbor_bytes_per_node_stays_under_its_ceiling() {
        // Sixteen 25-node districts at `city_beacon`'s density: a 5 × 5
        // block at 70 m pitch with ±15 m jitter, on a 600 m super-grid.
        let mut rng = SimRng::from_seed_and_stream(21, 21);
        let mut positions = Vec::new();
        for d in 0..16 {
            for k in 0..25 {
                let x = (d % 4) as f64 * 600.0 + (k % 5) as f64 * 70.0;
                let y = (d / 4) as f64 * 600.0 + (k / 5) as f64 * 70.0;
                positions.push((
                    x + rng.range_f64(-15.0, 15.0),
                    y + rng.range_f64(-15.0, 15.0),
                ));
            }
        }
        let nodes = mk_nodes(&positions);
        let mut grid = NeighborGrid::new(100.0);
        assert_lists_cover(&mut grid, &nodes, 100.0, SimTime::ZERO);
        let per_node = grid.heap_bytes() / nodes.len();
        assert!(
            per_node <= NEIGHBOR_BYTES_PER_NODE_MAX,
            "{per_node} B per node"
        );
    }
}
