//! Optimized Link State Routing (RFC 3626 subset).
//!
//! The proactive counterpart to AODV in SIPHoc's routing-plugin pair. The
//! implementation covers:
//!
//! * periodic HELLO messages building link, neighbor and 2-hop neighbor
//!   sets (symmetric-link check, no hysteresis),
//! * multipoint relay (MPR) selection with the RFC's greedy heuristic,
//! * TC (topology control) messages advertising MPR selectors, flooded via
//!   the MPR forwarding rule with ANSN freshness,
//! * shortest-path route computation over the learned topology —
//!   change-tracked, so a control message that alters no input only
//!   re-stamps the cached routes, and run over `u64` bitset rows, kept
//!   across computations, when one does (see [`OlsrProcess`]),
//! * **piggybacking**: an optional [`RoutingHandler`] attaches service
//!   entries to HELLOs (one hop) and TCs (network-wide). Because OLSR
//!   disseminates proactively, MANET SLP registrations replicate to every
//!   node and lookups resolve locally — the trade-off experiment E7
//!   measures against AODV's on-demand resolution.
//!
//! [`RoutingHandler`]: crate::handler::RoutingHandler

use std::collections::{BTreeMap, BTreeSet};

use siphoc_simnet::net::{ports, Addr, Datagram, L2Dst};
use siphoc_simnet::process::{Ctx, LocalEvent, LocalKind, Process};
use siphoc_simnet::route::Route;
use siphoc_simnet::time::{SimDuration, SimTime};

use crate::handler::{MsgKind, Piggyback, SharedHandler};
use crate::wire::{
    read_entries, send_control, write_entries, Control, FloodMemory, Reader, Retention, WireError,
    Writer,
};

/// HELLO emission period (RFC 3626 §18.2 `HELLO_INTERVAL`).
const HELLO_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// TC emission period (§18.2 `TC_INTERVAL`).
const TC_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Validity of link state learned from a HELLO, 3 × `HELLO_INTERVAL`
/// (§18.3 `NEIGHB_HOLD_TIME`).
const NEIGHB_HOLD_TIME: SimDuration = SimDuration::from_micros(3 * HELLO_INTERVAL.as_micros());
/// Validity of state learned from a TC, 3 × `TC_INTERVAL`
/// (§18.3 `TOP_HOLD_TIME`).
const TOP_HOLD_TIME: SimDuration = SimDuration::from_micros(3 * TC_INTERVAL.as_micros());
/// How long a handled TC is remembered (§18.3 `DUP_HOLD_TIME`). One
/// exactly 30 s old is still remembered.
pub const TC_RETENTION: Retention = Retention::UpTo(SimDuration::from_secs(30));

const TYPE_HELLO: u8 = 1;
const TYPE_TC: u8 = 2;
/// Most neighbors / selectors one message lists (a one-byte count).
const MAX_LISTED: usize = u8::MAX as usize;

/// Neighbor status advertised in a HELLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkStatus {
    /// We hear the neighbor but do not know the link is symmetric.
    Heard,
    /// The link is symmetric.
    Sym,
    /// Symmetric and selected as our MPR.
    Mpr,
}

impl LinkStatus {
    fn to_u8(self) -> u8 {
        match self {
            LinkStatus::Heard => 0,
            LinkStatus::Sym => 1,
            LinkStatus::Mpr => 2,
        }
    }

    fn from_u8(v: u8) -> Result<LinkStatus, WireError> {
        match v {
            0 => Ok(LinkStatus::Heard),
            1 => Ok(LinkStatus::Sym),
            2 => Ok(LinkStatus::Mpr),
            _ => Err(WireError::new("link status")),
        }
    }
}

/// An OLSR control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlsrMsg {
    /// One-hop neighborhood advertisement.
    Hello {
        /// Advertised neighbors and their link status.
        neighbors: Vec<(Addr, LinkStatus)>,
        /// Piggybacked service entries.
        entries: Vec<Vec<u8>>,
    },
    /// Topology control message, flooded via MPRs.
    Tc {
        /// Originating node.
        orig: Addr,
        /// Per-originator message sequence number (duplicate suppression).
        msg_seq: u16,
        /// Advertised neighbor sequence number (topology freshness).
        ansn: u16,
        /// Remaining flood radius.
        ttl: u8,
        /// The originator's MPR selectors.
        selectors: Vec<Addr>,
        /// Piggybacked service entries.
        entries: Vec<Vec<u8>>,
    },
}

impl OlsrMsg {
    /// Serializes the message. Neighbor and selector lists carry a one-byte
    /// count on the wire, so at most the first 255 of either are written.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            OlsrMsg::Hello { neighbors, entries } => {
                // The count is one byte: what does not fit is left out, so
                // that the count always matches what follows it.
                let neighbors = &neighbors[..neighbors.len().min(MAX_LISTED)];
                w.u8(TYPE_HELLO).u8(neighbors.len() as u8);
                for (a, s) in neighbors {
                    w.addr(*a).u8(s.to_u8());
                }
                write_entries(&mut w, entries);
            }
            OlsrMsg::Tc {
                orig,
                msg_seq,
                ansn,
                ttl,
                selectors,
                entries,
            } => {
                let selectors = &selectors[..selectors.len().min(MAX_LISTED)];
                w.u8(TYPE_TC).addr(*orig).u16(*msg_seq).u16(*ansn).u8(*ttl);
                w.u8(selectors.len() as u8);
                for a in selectors {
                    w.addr(*a);
                }
                write_entries(&mut w, entries);
            }
        }
        w.into_bytes()
    }

    /// Parses a message.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated or unknown input.
    pub fn parse(bytes: &[u8]) -> Result<OlsrMsg, WireError> {
        let mut r = Reader::new(bytes);
        match r.u8("type")? {
            TYPE_HELLO => {
                let n = r.u8("neighbor count")? as usize;
                let mut neighbors = Vec::with_capacity(n);
                for _ in 0..n {
                    neighbors.push((r.addr("neighbor")?, LinkStatus::from_u8(r.u8("status")?)?));
                }
                Ok(OlsrMsg::Hello {
                    neighbors,
                    entries: read_entries(&mut r)?,
                })
            }
            TYPE_TC => {
                let orig = r.addr("orig")?;
                let msg_seq = r.u16("msg_seq")?;
                let ansn = r.u16("ansn")?;
                let ttl = r.u8("ttl")?;
                let n = r.u8("selector count")? as usize;
                let mut selectors = Vec::with_capacity(n);
                for _ in 0..n {
                    selectors.push(r.addr("selector")?);
                }
                Ok(OlsrMsg::Tc {
                    orig,
                    msg_seq,
                    ansn,
                    ttl,
                    selectors,
                    entries: read_entries(&mut r)?,
                })
            }
            _ => Err(WireError::new("unknown OLSR message type")),
        }
    }
}

impl Control for OlsrMsg {
    const PORT: u16 = ports::OLSR;
    fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }
}

const TAG_HELLO: u64 = 1;
const TAG_TC: u64 = 2;

/// What the last HELLO of one neighbor told us.
#[derive(Debug, Clone)]
struct LinkState {
    last_heard: SimTime,
    symmetric: bool,
    /// The neighbor's own symmetric neighbors (our 2-hop set through it),
    /// ascending, without duplicates, without us.
    two_hop: Vec<Addr>,
}

/// The topology tuples of one TC originator: `(originator, selector)` for
/// every selector it last advertised. They arrive together and expire
/// together.
#[derive(Debug, Clone)]
struct TcTuples {
    expires: SimTime,
    /// Ascending, without duplicates, never empty.
    selectors: Vec<Addr>,
}

/// Sorts an address list heard on the wire into set form.
fn normalize(addrs: &mut Vec<Addr>) {
    addrs.sort_unstable();
    addrs.dedup();
}

/// Adds `addr` to the sorted universe unless it is there already;
/// `true` when it was added, which shifts the rank of every address above
/// it.
fn intern(universe: &mut Vec<Addr>, addr: Addr) -> bool {
    match universe.binary_search(&addr) {
        Ok(_) => false,
        Err(at) => {
            universe.insert(at, addr);
            true
        }
    }
}

/// Bit index of an address the process state mentions.
fn rank(universe: &[Addr], addr: &Addr) -> usize {
    universe
        .binary_search(addr)
        .expect("state addresses are interned")
}

fn set_bit(row: &mut [u64], bit: usize) {
    row[bit / 64] |= 1 << (bit % 64);
}

fn clear_bit(row: &mut [u64], bit: usize) {
    row[bit / 64] &= !(1 << (bit % 64));
}

fn has_bit(row: &[u64], bit: usize) -> bool {
    row[bit / 64] & 1 << (bit % 64) != 0
}

/// Clears in `dst` every bit set in `src`.
fn and_not(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= !s;
    }
}

/// Calls `f` with the index of every set bit of `word`, ascending, offset
/// by `base`.
fn for_each_bit(mut word: u64, base: usize, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(base + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// The inputs of both kernels as bitset rows over `universe`, kept
/// across computations. A row is `words` `u64`s wide and bit *i* stands
/// for `universe[i]`; row *r* of a matrix belongs to `universe[r]`.
///
/// A message rewrites only the row it changes. A change of the universe
/// moves ranks under every row, so it marks them all `stale`, and the
/// next computation rebuilds both matrices before it reads one.
#[derive(Debug, Default)]
struct Rows {
    stale: bool,
    words: usize,
    /// Per TC originator: the selectors it advertised.
    topology: Vec<u64>,
    /// Per link, symmetric or not: the neighbor's 2-hop set.
    links: Vec<u64>,
    /// One row: the symmetric neighbors.
    sym: Vec<u64>,
}

impl Rows {
    /// Builds every row from the state.
    fn rebuild(
        &mut self,
        universe: &[Addr],
        links: &BTreeMap<Addr, LinkState>,
        topology: &BTreeMap<Addr, TcTuples>,
    ) {
        let words = universe.len().div_ceil(64);
        self.words = words;
        for matrix in [&mut self.topology, &mut self.links] {
            matrix.clear();
            // Exactly one row per address: every process pays for these
            // two matrices between computations.
            matrix.reserve_exact(universe.len() * words);
            matrix.resize(universe.len() * words, 0);
        }
        self.sym.clear();
        self.sym.resize(words, 0);
        self.stale = false;
        for (a, l) in links {
            self.set_link(a, universe, &l.two_hop, l.symmetric);
        }
        for (orig, t) in topology {
            self.set_topology(orig, universe, &t.selectors);
        }
    }

    /// The selectors of the originator of rank `r`.
    fn topology_row(&self, r: usize) -> &[u64] {
        &self.topology[r * self.words..][..self.words]
    }

    /// The 2-hop set of the link of rank `r`.
    fn link_row(&self, r: usize) -> &[u64] {
        &self.links[r * self.words..][..self.words]
    }

    /// Originator `orig` now advertises `selectors` (none once its tuples
    /// are gone), unless every row is rebuilt before the next read anyway.
    fn set_topology(&mut self, orig: &Addr, universe: &[Addr], selectors: &[Addr]) {
        if !self.stale {
            let r = rank(universe, orig);
            fill(
                &mut self.topology[r * self.words..][..self.words],
                universe,
                selectors,
            );
        }
    }

    /// The link to `neighbor` now lists `two_hop` and is symmetric or not
    /// (a lost link lists nothing and is not), unless every row is rebuilt
    /// before the next read anyway.
    fn set_link(&mut self, neighbor: &Addr, universe: &[Addr], two_hop: &[Addr], symmetric: bool) {
        if !self.stale {
            let r = rank(universe, neighbor);
            fill(
                &mut self.links[r * self.words..][..self.words],
                universe,
                two_hop,
            );
            if symmetric {
                set_bit(&mut self.sym, r);
            } else {
                clear_bit(&mut self.sym, r);
            }
        }
    }
}

/// Sets exactly the bits of `addrs` in `row`.
fn fill(row: &mut [u64], universe: &[Addr], addrs: &[Addr]) {
    row.fill(0);
    for a in addrs {
        set_bit(row, rank(universe, a));
    }
}

/// Reusable buffers of the two dense kernels; contents never outlive one
/// call. Bitsets are [`Rows::words`] wide.
#[derive(Debug, Default)]
struct Scratch {
    /// Routes: reached so far. MPR selection: not yet covered.
    mask: Vec<u64>,
    /// MPR selection: 2-hop nodes seen through ≥ 1 / ≥ 2 neighbors.
    once: Vec<u64>,
    twice: Vec<u64>,
    /// Routes: BFS queue. MPR selection: the symmetric neighbors. Ranks.
    order: Vec<usize>,
    /// Routes, per rank: first hop (a rank) and distance.
    first_hop: Vec<usize>,
    hops: Vec<u8>,
    /// MPR selection, per symmetric neighbor: selected.
    chosen: Vec<bool>,
}

/// The OLSR routing process. Spawn exactly one per MANET node.
///
/// MPR selection and route computation are functions of the symmetric
/// neighbor set, those neighbors' 2-hop sets and (routes only) the
/// topology tuples. The process tracks whether any of them changed since
/// the last computation: if not, MPR selection is skipped and route
/// computation only re-stamps the routes it cached. When one did, the
/// computation runs over bitsets indexed by *address rank* in the sorted
/// `universe` of every address the state mentions, so walking set bits
/// upwards visits addresses in ascending order — the order the RFC's
/// tie-breaks (and this implementation's recorded traces) depend on. The
/// rows it reads persist: a message rewrites the one row it changed, and
/// only a change of the universe rebuilds them all (see [`Rows`]).
#[derive(Default)]
pub struct OlsrProcess {
    handler: Piggyback,
    links: BTreeMap<Addr, LinkState>,
    mpr_set: BTreeSet<Addr>,
    mpr_selectors: BTreeMap<Addr, SimTime>,
    /// Topology tuples by originator (the tuples' last hop).
    topology: BTreeMap<Addr, TcTuples>,
    /// Latest accepted ANSN per originator.
    ansn_seen: BTreeMap<Addr, u16>,
    /// Duplicate set for TC flooding.
    tc_seen: FloodMemory,
    msg_seq: u16,
    ansn: u16,
    /// An input of MPR selection / route computation changed since it ran.
    mpr_dirty: bool,
    routes_dirty: bool,
    /// `(dest, next_hop, hops)` of the last route computation, ascending
    /// by destination.
    route_cache: Vec<(Addr, Addr, u8)>,
    /// Every address in `links` and `topology`, ascending: rebuilt from
    /// them at each purge, extended in between as addresses are heard.
    universe: Vec<Addr>,
    /// `links` and `topology` as bitset rows over `universe`.
    rows: Rows,
    scratch: Scratch,
    /// Staging area for an incoming address list.
    heard: Vec<Addr>,
}

impl std::fmt::Debug for OlsrProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tuples: usize = self.topology.values().map(|t| t.selectors.len()).sum();
        f.debug_struct("OlsrProcess")
            .field("links", &self.links.len())
            .field("mpr_set", &self.mpr_set.len())
            .field("topology", &tuples)
            .finish_non_exhaustive()
    }
}

impl OlsrProcess {
    /// Creates a process with no handler.
    pub fn new() -> OlsrProcess {
        OlsrProcess::default()
    }

    /// Attaches the piggyback handler.
    pub fn with_handler(mut self, handler: SharedHandler) -> OlsrProcess {
        self.handler = Piggyback(Some(handler));
        self
    }

    /// The currently selected MPR set (diagnostics / tests).
    pub fn mpr_set(&self) -> &BTreeSet<Addr> {
        &self.mpr_set
    }

    /// A symmetric link appeared or went, or a symmetric neighbor's 2-hop
    /// set changed: both computations have a new input.
    fn neighborhood_changed(&mut self) {
        self.mpr_dirty = true;
        self.routes_dirty = true;
    }

    fn purge(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut lost_symmetric = false;
        self.links.retain(|a, l| {
            let live = now.saturating_since(l.last_heard) <= NEIGHB_HOLD_TIME;
            if !live {
                lost_symmetric |= l.symmetric;
                self.rows.set_link(a, &self.universe, &[], false);
            }
            live
        });
        if lost_symmetric {
            self.neighborhood_changed();
        }
        self.mpr_selectors
            .retain(|_, t| now.saturating_since(*t) <= NEIGHB_HOLD_TIME);
        let originators = self.topology.len();
        self.topology.retain(|orig, t| {
            let live = t.expires > now;
            if !live {
                self.rows.set_topology(orig, &self.universe, &[]);
            }
            live
        });
        self.routes_dirty |= self.topology.len() != originators;
        self.tc_seen.forget(now, TC_RETENTION);

        // Forget addresses nothing mentions any more, so the universe (and
        // the rows sized by it) follows live state, not history. An address
        // is live when a row lists it, when it owns a topology row (never
        // empty), or when it is a link (whose row may be).
        self.refresh_rows(ctx);
        let rows = &self.rows;
        let live = &mut self.scratch.mask;
        live.clear();
        live.resize(rows.words, 0);
        for r in 0..self.universe.len() {
            let selectors = rows.topology_row(r);
            if selectors.iter().any(|w| *w != 0) {
                set_bit(live, r);
            }
            let two_hop = rows.link_row(r);
            for ((l, s), t) in live.iter_mut().zip(selectors).zip(two_hop) {
                *l |= s | t;
            }
        }
        for a in self.links.keys() {
            set_bit(live, rank(&self.universe, a));
        }
        let known = self.universe.len();
        let mut r = 0;
        self.universe.retain(|_| {
            r += 1;
            has_bit(live, r - 1)
        });
        self.rows.stale |= self.universe.len() != known;
    }

    /// Brings the rows up to date with the universe.
    fn refresh_rows(&mut self, ctx: &mut Ctx<'_>) {
        if self.rows.stale {
            self.rows
                .rebuild(&self.universe, &self.links, &self.topology);
            ctx.obs().counter_add("rt.rows_rebuilt", 1);
        }
    }

    /// RFC 3626 §8.3.1 greedy MPR heuristic; a no-op while its inputs are
    /// unchanged.
    fn select_mprs(&mut self, ctx: &mut Ctx<'_>) {
        if !self.mpr_dirty {
            ctx.obs().counter_add("rt.mpr_skipped", 1);
            return;
        }
        self.mpr_dirty = false;
        ctx.obs().counter_add("rt.mpr_full", 1);
        self.refresh_rows(ctx);

        let rows = &self.rows;
        let Scratch {
            mask: uncovered,
            order: neighbors,
            once,
            twice,
            chosen,
            ..
        } = &mut self.scratch;
        for buf in [&mut *once, &mut *twice] {
            buf.clear();
            buf.resize(rows.words, 0);
        }
        // The symmetric neighbors in address order, and the 2-hop nodes
        // one / several of them reach.
        neighbors.clear();
        for (w, word) in rows.sym.iter().enumerate() {
            for_each_bit(*word, w * 64, |n| neighbors.push(n));
        }
        for &n in &*neighbors {
            let row = rows.link_row(n);
            for ((r, once), twice) in row.iter().zip(&mut *once).zip(&mut *twice) {
                *twice |= *once & r;
                *once |= r;
            }
        }
        // Strict 2-hop set: not us (never stored), not a 1-hop neighbor.
        and_not(once, &rows.sym);
        uncovered.clone_from(once);
        // First pass: neighbors that are the *only* path to some 2-hop node.
        chosen.clear();
        for &n in &*neighbors {
            let row = rows.link_row(n);
            let sole = (row.iter().zip(&*once).zip(&*twice)).any(|((r, o), t)| r & o & !t != 0);
            if sole {
                and_not(uncovered, row);
            }
            chosen.push(sole);
        }
        // Greedy passes: max coverage first, ties broken by address order
        // (neighbors are in address order, and only a strictly better one
        // wins).
        while uncovered.iter().any(|w| *w != 0) {
            let mut best = (0, usize::MAX);
            for (i, &n) in neighbors.iter().enumerate() {
                if chosen[i] {
                    continue;
                }
                let cover: u32 = (rows.link_row(n).iter().zip(&*uncovered))
                    .map(|(r, u)| (r & u).count_ones())
                    .sum();
                if cover > best.0 {
                    best = (cover, i);
                }
            }
            let (cover, i) = best;
            if cover == 0 {
                break;
            }
            chosen[i] = true;
            and_not(uncovered, rows.link_row(neighbors[i]));
        }
        self.mpr_set = (neighbors.iter().zip(&*chosen))
            .filter(|(_, chosen)| **chosen)
            .map(|(n, _)| self.universe[*n])
            .collect();
    }

    /// Shortest-path (hop count) routes over neighbors + topology tuples:
    /// BFS from the symmetric neighbors, lower address first among equals.
    /// Reads the rows as they are; the caller refreshes them.
    fn compute_routes(&mut self, own: Addr) {
        let universe = &self.universe;
        let n = universe.len();
        let rows = &self.rows;
        let Scratch {
            mask: reached,
            order: queue,
            first_hop,
            hops,
            ..
        } = &mut self.scratch;
        reached.clone_from(&rows.sym);
        first_hop.clear();
        first_hop.resize(n, 0);
        hops.clear();
        hops.resize(n, 0);
        queue.clear();
        for (w, word) in rows.sym.iter().enumerate() {
            for_each_bit(*word, w * 64, |r| {
                first_hop[r] = r;
                hops[r] = 1;
                queue.push(r);
            });
        }
        // Never a route to ourselves.
        let own_rank = universe.binary_search(&own).ok();
        if let Some(r) = own_rank {
            set_bit(reached, r);
        }
        // Edges: originator → selector, symmetric neighbor → its 2-hop set.
        let mut head = 0;
        while head < queue.len() {
            let node = queue[head];
            head += 1;
            let (via, dist) = (first_hop[node], hops[node].saturating_add(1));
            let two_hop = has_bit(&rows.sym, node).then(|| rows.link_row(node));
            for (w, selectors) in rows.topology_row(node).iter().enumerate() {
                let edges = selectors | two_hop.map_or(0, |t| t[w]);
                let new = edges & !reached[w];
                reached[w] |= new;
                for_each_bit(new, w * 64, |r| {
                    first_hop[r] = via;
                    hops[r] = dist;
                    queue.push(r);
                });
            }
        }
        // Every rank reached but our own has a route, and ascending ranks
        // are ascending destinations.
        if let Some(r) = own_rank {
            clear_bit(reached, r);
        }
        self.route_cache.clear();
        for (w, word) in reached.iter().enumerate() {
            for_each_bit(*word, w * 64, |r| {
                self.route_cache
                    .push((universe[r], universe[first_hop[r]], hops[r]));
            });
        }
    }

    /// Installs the routes. They are computed only when an input changed,
    /// but re-stamped on every call: a route lives until "last computed
    /// reachable + 3 × `tc_interval`", so one that stops being reachable
    /// drops out of the cache and runs out at the expiry it already has.
    fn recompute_routes(&mut self, ctx: &mut Ctx<'_>) {
        if self.routes_dirty {
            self.routes_dirty = false;
            self.refresh_rows(ctx);
            self.compute_routes(ctx.addr());
            ctx.obs().counter_add("rt.spf_full", 1);
        } else {
            ctx.obs().counter_add("rt.spf_reused", 1);
        }
        let now = ctx.now();
        let expires = now + TOP_HOLD_TIME;
        let routes = (self.route_cache.iter()).map(|&(dest, next_hop, hops)| {
            let route = Route {
                next_hop,
                hops,
                expires,
                seq: 0,
            };
            (dest, route)
        });
        ctx.routes().insert_ascending(routes);
        ctx.routes().purge_expired(now);
    }

    fn send_hello(&mut self, ctx: &mut Ctx<'_>) {
        let mut neighbors = Vec::with_capacity(self.links.len());
        for (a, l) in &self.links {
            let status = if self.mpr_set.contains(a) {
                LinkStatus::Mpr
            } else if l.symmetric {
                LinkStatus::Sym
            } else {
                LinkStatus::Heard
            };
            neighbors.push((*a, status));
        }
        let entries = self.handler.collect(ctx, MsgKind::OlsrHello);
        let msg = OlsrMsg::Hello { neighbors, entries };
        send_control(ctx, L2Dst::Broadcast, "olsr.hello", &msg);
    }

    fn send_tc(&mut self, ctx: &mut Ctx<'_>) {
        let entries = self.handler.collect(ctx, MsgKind::OlsrTc);
        // RFC: emit TCs while we have MPR selectors. Also emit when the
        // handler has entries to spread — the piggyback vehicle must run
        // even in fully meshed topologies where nobody needs MPRs.
        if self.mpr_selectors.is_empty() && entries.is_empty() {
            return;
        }
        self.msg_seq = self.msg_seq.wrapping_add(1);
        self.ansn = self.ansn.wrapping_add(1);
        let msg = OlsrMsg::Tc {
            orig: ctx.addr(),
            msg_seq: self.msg_seq,
            ansn: self.ansn,
            ttl: 32,
            selectors: self.mpr_selectors.keys().copied().collect(),
            entries,
        };
        send_control(ctx, L2Dst::Broadcast, "olsr.tc", &msg);
    }

    fn on_hello(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: Addr,
        neighbors: Vec<(Addr, LinkStatus)>,
        entries: Vec<Vec<u8>>,
    ) {
        let own = ctx.addr();
        let now = ctx.now();
        let hears_us = neighbors.iter().any(|(a, _)| *a == own);
        // 2-hop set: the sender's symmetric neighbors.
        self.heard.clear();
        self.heard.extend(
            neighbors
                .iter()
                .filter(|(a, s)| *a != own && matches!(s, LinkStatus::Sym | LinkStatus::Mpr))
                .map(|(a, _)| *a),
        );
        normalize(&mut self.heard);
        self.rows.stale |= intern(&mut self.universe, from);
        let link = self.links.entry(from).or_insert(LinkState {
            last_heard: now,
            symmetric: false,
            two_hop: Vec::new(),
        });
        link.last_heard = now;
        let toggled = link.symmetric != hears_us;
        link.symmetric = hears_us;
        let relisted = link.two_hop != self.heard;
        if relisted {
            link.two_hop.clone_from(&self.heard);
            for a in &self.heard {
                self.rows.stale |= intern(&mut self.universe, *a);
            }
        }
        if toggled || relisted {
            (self.rows).set_link(&from, &self.universe, &self.heard, hears_us);
        }
        // Only a symmetric neighbor's 2-hop set is an input.
        if toggled || (relisted && hears_us) {
            self.neighborhood_changed();
        }
        // MPR selector tracking.
        let selected_us = neighbors
            .iter()
            .any(|(a, s)| *a == own && *s == LinkStatus::Mpr);
        if selected_us {
            self.mpr_selectors.insert(from, now);
        } else {
            self.mpr_selectors.remove(&from);
        }
        self.handler.deliver(ctx, MsgKind::OlsrHello, &entries);
        self.select_mprs(ctx);
        self.recompute_routes(ctx);
    }

    fn on_tc(&mut self, ctx: &mut Ctx<'_>, from: Addr, mut msg: OlsrMsg) {
        let OlsrMsg::Tc {
            orig,
            msg_seq,
            ansn,
            ref mut ttl,
            ref selectors,
            ref entries,
        } = msg
        else {
            return;
        };
        if !self
            .tc_seen
            .first_sight(ctx.addr(), orig, msg_seq.into(), ctx.now())
        {
            return;
        }

        // ANSN freshness: ignore stale topology, accept newer.
        let fresh = match self.ansn_seen.get(&orig) {
            Some(prev) => (ansn.wrapping_sub(*prev) as i16) > 0,
            None => true,
        };
        if fresh {
            self.ansn_seen.insert(orig, ansn);
            self.heard.clear();
            self.heard.extend_from_slice(selectors);
            normalize(&mut self.heard);
            let expires = ctx.now() + TOP_HOLD_TIME;
            match self.topology.get_mut(&orig) {
                // The same set again: nothing to recompute, but a fresh TC
                // always renews its tuples.
                Some(t) if t.selectors == self.heard => t.expires = expires,
                None if self.heard.is_empty() => {}
                _ => {
                    self.routes_dirty = true;
                    if self.heard.is_empty() {
                        self.topology.remove(&orig);
                    } else {
                        self.rows.stale |= intern(&mut self.universe, orig);
                        for a in &self.heard {
                            self.rows.stale |= intern(&mut self.universe, *a);
                        }
                        self.topology.insert(
                            orig,
                            TcTuples {
                                expires,
                                selectors: self.heard.clone(),
                            },
                        );
                    }
                    (self.rows).set_topology(&orig, &self.universe, &self.heard);
                }
            }
            self.recompute_routes(ctx);
        }
        self.handler.deliver(ctx, MsgKind::OlsrTc, entries);

        // MPR forwarding rule: retransmit only if the sender selected us.
        if *ttl > 1 && self.mpr_selectors.contains_key(&from) {
            *ttl -= 1;
            send_control(ctx, L2Dst::Broadcast, "olsr.tc_fwd", &msg);
        }
    }
}

impl Process for OlsrProcess {
    fn name(&self) -> &'static str {
        "olsr"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::OLSR);
        ctx.take_local(&[LocalKind::LinkTxFailed]);
        // A restart forgets all it learned; its sequence numbers go on.
        *self = OlsrProcess {
            handler: std::mem::take(&mut self.handler),
            msg_seq: self.msg_seq,
            ansn: self.ansn,
            ..OlsrProcess::default()
        };
        let hj = ctx.rng().range_u64(0, HELLO_INTERVAL.as_micros());
        ctx.set_timer(SimDuration::from_micros(hj), TAG_HELLO);
        let tj = ctx.rng().range_u64(0, TC_INTERVAL.as_micros());
        ctx.set_timer(SimDuration::from_micros(tj), TAG_TC);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let from = dgram.src.addr;
        if from == ctx.addr() {
            return;
        }
        let Ok(msg) = OlsrMsg::parse(&dgram.payload) else {
            ctx.stats().count("olsr.malformed", dgram.payload.len());
            return;
        };
        match msg {
            OlsrMsg::Hello { neighbors, entries } => self.on_hello(ctx, from, neighbors, entries),
            OlsrMsg::Tc { .. } => self.on_tc(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TAG_HELLO => {
                self.purge(ctx);
                self.select_mprs(ctx);
                self.send_hello(ctx);
                self.recompute_routes(ctx);
                ctx.set_timer(HELLO_INTERVAL, TAG_HELLO);
            }
            TAG_TC => {
                self.send_tc(ctx);
                ctx.set_timer(TC_INTERVAL, TAG_TC);
            }
            _ => {}
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        let LocalEvent::LinkTxFailed { neighbor } = ev else {
            return;
        };
        if let Some(link) = self.links.remove(neighbor) {
            if link.symmetric {
                self.neighborhood_changed();
            }
            self.rows.set_link(neighbor, &self.universe, &[], false);
        }
        self.mpr_selectors.remove(neighbor);
        ctx.routes().invalidate_via(*neighbor);
        self.select_mprs(ctx);
        self.recompute_routes(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn chain_world(n: usize, spacing: f64) -> (World, Vec<NodeId>) {
        let mut w = World::new(WorldConfig::new(5).with_radio(RadioConfig::ideal()));
        let ids: Vec<NodeId> = (0..n)
            .map(|i| w.add_node(NodeConfig::manet(i as f64 * spacing, 0.0)))
            .collect();
        for &id in &ids {
            w.spawn(id, Box::new(OlsrProcess::new()));
        }
        (w, ids)
    }

    struct Sink {
        got: Rc<RefCell<Vec<Datagram>>>,
    }
    impl Process for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(9000);
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
            self.got.borrow_mut().push(d.clone());
        }
    }

    #[test]
    fn message_round_trips() {
        let msgs = vec![
            OlsrMsg::Hello {
                neighbors: vec![
                    (Addr::manet(1), LinkStatus::Sym),
                    (Addr::manet(2), LinkStatus::Mpr),
                ],
                entries: vec![b"reg".to_vec()],
            },
            OlsrMsg::Tc {
                orig: Addr::manet(0),
                msg_seq: 9,
                ansn: 3,
                ttl: 32,
                selectors: vec![Addr::manet(1)],
                entries: vec![],
            },
        ];
        for m in msgs {
            assert_eq!(OlsrMsg::parse(&m.to_bytes()).unwrap(), m);
        }
        assert!(OlsrMsg::parse(&[99]).is_err());
        assert!(OlsrMsg::parse(&[]).is_err());
    }

    #[test]
    fn link_status_rejects_unknown_value() {
        assert!(LinkStatus::from_u8(3).is_err());
    }

    #[test]
    fn proactive_routes_form_without_traffic() {
        let (mut w, ids) = chain_world(5, 80.0);
        w.run_for(SimDuration::from_secs(20));
        for &a in &ids {
            for &b in &ids {
                if a == b {
                    continue;
                }
                let dst = w.node(b).addr();
                assert!(
                    w.node(a).routes().lookup(dst, w.now()).is_some(),
                    "missing route {a}->{b}"
                );
            }
        }
        let far = w.node(ids[4]).addr();
        assert_eq!(
            w.node(ids[0]).routes().lookup(far, w.now()).unwrap().hops,
            4
        );
    }

    #[test]
    fn data_flows_immediately_once_converged() {
        let (mut w, ids) = chain_world(4, 80.0);
        let got = Rc::new(RefCell::new(Vec::new()));
        w.spawn(ids[3], Box::new(Sink { got: got.clone() }));
        w.run_for(SimDuration::from_secs(20));
        let src = w.node(ids[0]).addr();
        let dst = w.node(ids[3]).addr();
        w.inject(
            ids[0],
            Datagram::new(
                SocketAddr::new(src, 9000),
                SocketAddr::new(dst, 9000),
                b"now".to_vec(),
            ),
        );
        // Proactive: no discovery latency beyond per-hop transmission.
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(got.borrow().len(), 1);
    }

    #[test]
    fn chain_route_goes_through_middle_node() {
        let (mut w, ids) = chain_world(3, 80.0);
        w.run_for(SimDuration::from_secs(20));
        let a2 = w.node(ids[2]).addr();
        let r = w.node(ids[0]).routes().lookup(a2, w.now()).unwrap();
        assert_eq!(r.next_hop, w.node(ids[1]).addr());
        assert_eq!(r.hops, 2);
    }

    #[test]
    fn node_failure_heals_routes() {
        // Diamond: 0 - {1,2} - 3; killing 1 must re-route via 2.
        let mut w = World::new(WorldConfig::new(6).with_radio(RadioConfig::ideal()));
        let n0 = w.add_node(NodeConfig::manet(0.0, 0.0));
        let n1 = w.add_node(NodeConfig::manet(80.0, 40.0));
        let n2 = w.add_node(NodeConfig::manet(80.0, -40.0));
        let n3 = w.add_node(NodeConfig::manet(160.0, 0.0));
        for &id in &[n0, n1, n2, n3] {
            w.spawn(id, Box::new(OlsrProcess::new()));
        }
        w.run_for(SimDuration::from_secs(20));
        let d3 = w.node(n3).addr();
        assert!(w.node(n0).routes().lookup(d3, w.now()).is_some());
        w.set_node_up(n1, false);
        w.run_for(SimDuration::from_secs(15));
        let r = w
            .node(n0)
            .routes()
            .lookup(d3, w.now())
            .expect("healed route");
        assert_eq!(r.next_hop, w.node(n2).addr(), "must detour via n2");
    }

    /// Handler that spreads one registration and records what it saw.
    struct Gossip {
        own: Option<Vec<u8>>,
        seen: Rc<RefCell<std::collections::BTreeSet<Vec<u8>>>>,
    }
    impl crate::handler::RoutingHandler for Gossip {
        fn collect_outgoing(&mut self, _ctx: &mut Ctx<'_>, _kind: MsgKind) -> Vec<Vec<u8>> {
            let mut out: Vec<Vec<u8>> = self.own.iter().cloned().collect();
            out.extend(self.seen.borrow().iter().cloned());
            out
        }
        fn process_incoming(
            &mut self,
            _ctx: &mut Ctx<'_>,
            _kind: MsgKind,
            entries: &[Vec<u8>],
        ) -> Vec<Vec<u8>> {
            self.seen.borrow_mut().extend(entries.iter().cloned());
            Vec::new()
        }
    }

    #[test]
    fn piggybacked_entries_replicate_network_wide() {
        let mut w = World::new(WorldConfig::new(8).with_radio(RadioConfig::ideal()));
        let ids: Vec<NodeId> = (0..5)
            .map(|i| w.add_node(NodeConfig::manet(i as f64 * 80.0, 0.0)))
            .collect();
        let mut seens = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let seen = Rc::new(RefCell::new(std::collections::BTreeSet::new()));
            let own = (i == 0).then(|| b"alice@10.0.0.1".to_vec());
            let h = Rc::new(RefCell::new(Gossip {
                own,
                seen: seen.clone(),
            }));
            w.spawn(id, Box::new(OlsrProcess::new().with_handler(h)));
            seens.push(seen);
        }
        w.run_for(SimDuration::from_secs(40));
        for (i, seen) in seens.iter().enumerate().skip(1) {
            assert!(
                seen.borrow().contains(&b"alice@10.0.0.1".to_vec()),
                "node {i} did not learn the registration"
            );
        }
    }

    /// The process's state handling, MPR selection and route computation as
    /// they were before change tracking and the bitset kernels (the two
    /// kernels verbatim; message emission, piggybacking and MPR-selector
    /// bookkeeping left out): the oracle of the differential tests below.
    mod reference {
        use super::super::*;
        use std::collections::VecDeque;

        struct LinkState {
            last_heard: SimTime,
            symmetric: bool,
        }

        #[derive(Default)]
        pub struct RefOlsr {
            links: BTreeMap<Addr, LinkState>,
            two_hop: BTreeMap<Addr, BTreeSet<Addr>>,
            mpr_set: BTreeSet<Addr>,
            /// `(last_hop, dest) → expiry`.
            topology: BTreeMap<(Addr, Addr), SimTime>,
            ansn_seen: BTreeMap<Addr, u16>,
            tc_seen: BTreeMap<(Addr, u16), SimTime>,
        }

        impl RefOlsr {
            pub fn mpr_set(&self) -> &BTreeSet<Addr> {
                &self.mpr_set
            }

            fn purge(&mut self, now: SimTime) {
                self.links
                    .retain(|_, l| now.saturating_since(l.last_heard) <= NEIGHB_HOLD_TIME);
                let live: BTreeSet<Addr> = self.links.keys().copied().collect();
                self.two_hop.retain(|n, _| live.contains(n));
                self.topology.retain(|_, exp| *exp > now);
                self.tc_seen
                    .retain(|_, t| now.saturating_since(*t) <= SimDuration::from_secs(30));
            }

            /// Symmetric 1-hop neighbors.
            fn sym_neighbors(&self) -> BTreeSet<Addr> {
                self.links
                    .iter()
                    .filter(|(_, l)| l.symmetric)
                    .map(|(a, _)| *a)
                    .collect()
            }

            /// RFC 3626 §8.3.1 greedy MPR heuristic.
            fn select_mprs(&mut self, own: Addr) {
                let n1 = self.sym_neighbors();
                // Strict 2-hop set: reachable via a symmetric neighbor, not self,
                // not already a 1-hop neighbor.
                let mut uncovered: BTreeSet<Addr> = BTreeSet::new();
                for (n, twos) in &self.two_hop {
                    if !n1.contains(n) {
                        continue;
                    }
                    for t in twos {
                        if *t != own && !n1.contains(t) {
                            uncovered.insert(*t);
                        }
                    }
                }
                let mut mprs = BTreeSet::new();
                // First pass: neighbors that are the *only* path to some 2-hop node.
                for target in uncovered.clone() {
                    let providers: Vec<Addr> = self
                        .two_hop
                        .iter()
                        .filter(|(n, twos)| n1.contains(*n) && twos.contains(&target))
                        .map(|(n, _)| *n)
                        .collect();
                    if providers.len() == 1 {
                        mprs.insert(providers[0]);
                    }
                }
                for m in mprs.clone() {
                    if let Some(twos) = self.two_hop.get(&m) {
                        for t in twos.clone() {
                            uncovered.remove(&t);
                        }
                    }
                }
                // Greedy passes: max coverage first, ties broken by address order.
                while !uncovered.is_empty() {
                    let best = n1
                        .iter()
                        .filter(|n| !mprs.contains(*n))
                        .map(|n| {
                            let cover = self
                                .two_hop
                                .get(n)
                                .map(|t| t.intersection(&uncovered).count())
                                .unwrap_or(0);
                            (cover, *n)
                        })
                        .max_by_key(|(c, a)| (*c, std::cmp::Reverse(*a)));
                    match best {
                        Some((0, _)) | None => break,
                        Some((_, n)) => {
                            mprs.insert(n);
                            if let Some(twos) = self.two_hop.get(&n) {
                                for t in twos.clone() {
                                    uncovered.remove(&t);
                                }
                            }
                        }
                    }
                }
                self.mpr_set = mprs;
            }

            /// Shortest-path (hop count) routes over neighbors + topology tuples.
            fn recompute_routes(&mut self, ctx: &mut Ctx<'_>) {
                let own = ctx.addr();
                let now = ctx.now();
                let expires = now + TOP_HOLD_TIME;
                // Edge map: node → directly reachable nodes.
                let mut edges: BTreeMap<Addr, BTreeSet<Addr>> = BTreeMap::new();
                let n1 = self.sym_neighbors();
                edges.entry(own).or_default().extend(n1.iter().copied());
                for ((last_hop, dest), _) in self.topology.iter() {
                    edges.entry(*last_hop).or_default().insert(*dest);
                }
                for (n, twos) in &self.two_hop {
                    if n1.contains(n) {
                        edges.entry(*n).or_default().extend(twos.iter().copied());
                    }
                }
                // BFS from self.
                let mut first_hop: BTreeMap<Addr, (Addr, u8)> = BTreeMap::new();
                let mut queue: VecDeque<(Addr, Addr, u8)> = VecDeque::new(); // (node, first_hop, dist)
                for n in &n1 {
                    first_hop.insert(*n, (*n, 1));
                    queue.push_back((*n, *n, 1));
                }
                while let Some((node, fh, d)) = queue.pop_front() {
                    if let Some(nexts) = edges.get(&node) {
                        for nx in nexts {
                            if *nx == own || first_hop.contains_key(nx) {
                                continue;
                            }
                            first_hop.insert(*nx, (fh, d + 1));
                            queue.push_back((*nx, fh, d + 1));
                        }
                    }
                }
                for (dest, (fh, hops)) in first_hop {
                    ctx.routes().insert(
                        dest,
                        Route {
                            next_hop: fh,
                            hops,
                            expires,
                            seq: 0,
                        },
                    );
                }
                ctx.routes().purge_expired(now);
            }

            fn on_hello(
                &mut self,
                ctx: &mut Ctx<'_>,
                from: Addr,
                neighbors: Vec<(Addr, LinkStatus)>,
            ) {
                let own = ctx.addr();
                let now = ctx.now();
                let hears_us = neighbors.iter().any(|(a, _)| *a == own);
                let entry = self.links.entry(from).or_insert(LinkState {
                    last_heard: now,
                    symmetric: false,
                });
                entry.last_heard = now;
                entry.symmetric = hears_us;
                // 2-hop set: the sender's symmetric neighbors.
                let twos: BTreeSet<Addr> = neighbors
                    .iter()
                    .filter(|(a, s)| *a != own && matches!(s, LinkStatus::Sym | LinkStatus::Mpr))
                    .map(|(a, _)| *a)
                    .collect();
                self.two_hop.insert(from, twos);
                self.select_mprs(own);
                self.recompute_routes(ctx);
            }

            fn on_tc(&mut self, ctx: &mut Ctx<'_>, msg: OlsrMsg) {
                let OlsrMsg::Tc {
                    orig,
                    msg_seq,
                    ansn,
                    selectors,
                    ..
                } = msg
                else {
                    return;
                };
                if orig == ctx.addr() {
                    return;
                }
                if self.tc_seen.contains_key(&(orig, msg_seq)) {
                    return;
                }
                self.tc_seen.insert((orig, msg_seq), ctx.now());

                // ANSN freshness: ignore stale topology, accept newer.
                let fresh = match self.ansn_seen.get(&orig) {
                    Some(prev) => (ansn.wrapping_sub(*prev) as i16) > 0,
                    None => true,
                };
                if fresh {
                    self.ansn_seen.insert(orig, ansn);
                    self.topology.retain(|(lh, _), _| *lh != orig);
                    let expires = ctx.now() + TOP_HOLD_TIME;
                    for sel in &selectors {
                        self.topology.insert((orig, *sel), expires);
                    }
                    self.recompute_routes(ctx);
                }
            }
        }

        impl Process for RefOlsr {
            fn name(&self) -> &'static str {
                "olsr-reference"
            }

            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.take_local(&[LocalKind::LinkTxFailed]);
                *self = RefOlsr::default();
            }

            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
                let from = dgram.src.addr;
                if from == ctx.addr() {
                    return;
                }
                match OlsrMsg::parse(&dgram.payload) {
                    Ok(OlsrMsg::Hello { neighbors, .. }) => self.on_hello(ctx, from, neighbors),
                    Ok(msg) => self.on_tc(ctx, msg),
                    Err(_) => {}
                }
            }

            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                if token == TAG_HELLO {
                    self.purge(ctx.now());
                    self.select_mprs(ctx.addr());
                    self.recompute_routes(ctx);
                }
            }

            fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
                let LocalEvent::LinkTxFailed { neighbor } = ev else {
                    return;
                };
                self.links.remove(neighbor);
                self.two_hop.remove(neighbor);
                ctx.routes().invalidate_via(*neighbor);
                self.select_mprs(ctx.addr());
                self.recompute_routes(ctx);
            }
        }
    }

    #[test]
    fn oversized_lists_are_cut_to_the_count_byte() {
        let addrs: Vec<Addr> = (0..300).map(Addr::manet).collect();
        let entries = vec![b"reg".to_vec()];
        let hello = OlsrMsg::Hello {
            neighbors: addrs.iter().map(|a| (*a, LinkStatus::Sym)).collect(),
            entries: entries.clone(),
        };
        match OlsrMsg::parse(&hello.to_bytes()).unwrap() {
            OlsrMsg::Hello {
                neighbors,
                entries: got,
            } => {
                let listed: Vec<Addr> = neighbors.iter().map(|(a, _)| *a).collect();
                assert_eq!(listed, addrs[..255]);
                assert_eq!(got, entries);
            }
            other => panic!("parsed as {other:?}"),
        }
        let tc = OlsrMsg::Tc {
            orig: Addr::manet(999),
            msg_seq: 1,
            ansn: 1,
            ttl: 32,
            selectors: addrs.clone(),
            entries: entries.clone(),
        };
        match OlsrMsg::parse(&tc.to_bytes()).unwrap() {
            OlsrMsg::Tc {
                selectors,
                entries: got,
                ..
            } => {
                assert_eq!(selectors, addrs[..255]);
                assert_eq!(got, entries);
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    /// Something with an MPR set: the process and its oracle.
    trait Olsr: Process {
        fn mprs(&self) -> &BTreeSet<Addr>;
    }
    impl Olsr for OlsrProcess {
        fn mprs(&self) -> &BTreeSet<Addr> {
            self.mpr_set()
        }
    }
    impl Olsr for reference::RefOlsr {
        fn mprs(&self) -> &BTreeSet<Addr> {
            self.mpr_set()
        }
    }

    /// One input to an OLSR process.
    #[derive(Debug, Clone)]
    enum Step {
        Msg { from: Addr, msg: OlsrMsg },
        HelloTimer,
        LinkTxFailed(Addr),
        Restart,
    }

    /// A process outside any world, with everything a [`Ctx`] borrows.
    struct Rig<P> {
        proc: P,
        own: Addr,
        rng: SimRng,
        routes: RoutingTable,
        stats: siphoc_simnet::stats::NodeStats,
        obs: siphoc_simnet::obs::NodeObs,
        effects: Vec<siphoc_simnet::process::Effect>,
    }

    impl<P: Olsr> Rig<P> {
        fn new(proc: P, own: Addr) -> Rig<P> {
            Rig {
                proc,
                own,
                rng: SimRng::from_seed_and_stream(1, 1),
                routes: RoutingTable::new(),
                stats: Default::default(),
                obs: Default::default(),
                effects: Vec::new(),
            }
        }

        fn apply(&mut self, now: SimTime, step: &Step) {
            self.effects.clear();
            let mut ctx = Ctx::for_test(
                now,
                self.own,
                &mut self.rng,
                &mut self.routes,
                &mut self.stats,
                &mut self.obs,
                &mut self.effects,
            );
            match step {
                Step::Msg { from, msg } => {
                    let src = SocketAddr::new(*from, ports::OLSR);
                    let dst = SocketAddr::new(Addr::BROADCAST, ports::OLSR);
                    let dgram = Datagram::new(src, dst, msg.to_bytes());
                    self.proc.on_datagram(&mut ctx, &dgram);
                }
                Step::HelloTimer => self.proc.on_timer(&mut ctx, TAG_HELLO),
                Step::LinkTxFailed(neighbor) => self.proc.on_local_event(
                    &mut ctx,
                    &LocalEvent::LinkTxFailed {
                        neighbor: *neighbor,
                    },
                ),
                Step::Restart => self.proc.on_start(&mut ctx),
            }
        }

        fn table(&self) -> Vec<(Addr, Route)> {
            self.routes.iter().map(|(a, r)| (*a, *r)).collect()
        }
    }

    /// The process and its oracle, fed the same inputs, and what the
    /// inputs made the process's rows go through.
    struct Pair {
        new: Rig<OlsrProcess>,
        old: Rig<reference::RefOlsr>,
        /// A step moved the universe under a row it left as it was, and a
        /// computation in the same step read that row at its new rank.
        moved_a_kept_row: bool,
        /// A hello-timer purge dropped addresses from the universe.
        purge_shrank: bool,
    }

    /// Every row's contents by what it belongs to: a link (whether it is
    /// symmetric, and its 2-hop set) or a TC originator (`None`, and its
    /// selectors).
    fn row_inputs(proc: &OlsrProcess) -> BTreeSet<(Addr, Option<bool>, Vec<Addr>)> {
        let links = (proc.links.iter()).map(|(a, l)| (*a, Some(l.symmetric), l.two_hop.clone()));
        let topology = (proc.topology.iter()).map(|(a, t)| (*a, None, t.selectors.clone()));
        links.chain(topology).collect()
    }

    /// Holds the rows, unless they are marked stale, to what a rebuild
    /// from the process's state writes.
    fn assert_rows_current(proc: &OlsrProcess, at: SimTime, step: &Step) {
        if proc.rows.stale {
            return;
        }
        let mut rebuilt = Rows::default();
        rebuilt.rebuild(&proc.universe, &proc.links, &proc.topology);
        let Rows {
            words,
            topology,
            links,
            sym,
            ..
        } = &proc.rows;
        assert_eq!(
            (words, topology, links, sym),
            (
                &rebuilt.words,
                &rebuilt.topology,
                &rebuilt.links,
                &rebuilt.sym
            ),
            "rows out of date at {at} after {step:?}"
        );
    }

    impl Pair {
        fn new(own: Addr) -> Pair {
            Pair {
                new: Rig::new(OlsrProcess::new(), own),
                old: Rig::new(reference::RefOlsr::default(), own),
                moved_a_kept_row: false,
                purge_shrank: false,
            }
        }

        /// Applies `step` to both and holds them to the same MPR set and
        /// the same routing table, expiries included.
        fn apply(&mut self, now: SimTime, step: &Step) {
            let universe = self.new.proc.universe.clone();
            let inputs = row_inputs(&self.new.proc);
            self.new.apply(now, step);
            self.old.apply(now, step);
            let proc = &self.new.proc;
            assert_rows_current(proc, now, step);
            if proc.universe != universe && !proc.rows.stale {
                self.moved_a_kept_row |= (inputs.intersection(&row_inputs(proc)))
                    .any(|(a, ..)| universe.binary_search(a) != proc.universe.binary_search(a));
            }
            if matches!(step, Step::HelloTimer) {
                self.purge_shrank |= proc.universe.len() < universe.len();
                let mut live: Vec<Addr> = (row_inputs(proc).into_iter())
                    .flat_map(|(a, _, listed)| std::iter::once(a).chain(listed))
                    .collect();
                normalize(&mut live);
                assert_eq!(proc.universe, live, "universe after the purge at {now}");
            }
            assert_eq!(
                self.new.proc.mprs(),
                self.old.proc.mprs(),
                "MPR sets differ at {now} after {step:?}"
            );
            assert_eq!(
                self.new.table(),
                self.old.table(),
                "routing tables differ at {now} after {step:?}"
            );
        }
    }

    fn hello(from: Addr, neighbors: &[(Addr, LinkStatus)]) -> Step {
        Step::Msg {
            from,
            msg: OlsrMsg::Hello {
                neighbors: neighbors.to_vec(),
                entries: Vec::new(),
            },
        }
    }

    fn tc(from: Addr, orig: Addr, seq: u16, selectors: &[Addr]) -> Step {
        Step::Msg {
            from,
            msg: OlsrMsg::Tc {
                orig,
                msg_seq: seq,
                ansn: seq,
                ttl: 32,
                selectors: selectors.to_vec(),
                entries: Vec::new(),
            },
        }
    }

    #[test]
    fn unreachable_destination_keeps_its_old_expiry() {
        let [own, a, b, c] = [0, 1, 2, 3].map(Addr::manet);
        let secs = SimTime::from_secs;
        let mut p = Pair::new(own);
        let a_says = [(own, LinkStatus::Sym), (b, LinkStatus::Sym)];
        p.apply(secs(0), &hello(a, &a_says));
        p.apply(secs(1), &tc(a, b, 1, &[c]));
        let reached = p.new.routes.lookup(c, secs(1)).expect("c via a");
        assert_eq!((reached.next_hop, reached.hops), (a, 3));
        assert_eq!(reached.expires, secs(16));
        // b withdraws c; a keeps talking, so a and b are re-stamped by
        // computations (2 s) and by reuse (3 s and later) while c is not.
        p.apply(secs(2), &tc(a, b, 2, &[]));
        for t in (3..16).step_by(2) {
            p.apply(secs(t), &hello(a, &a_says));
            p.apply(secs(t), &Step::HelloTimer);
            let stale = p.new.routes.lookup(c, secs(t)).expect("not yet expired");
            assert_eq!(stale.expires, secs(16));
            let kept = p.new.routes.lookup(b, secs(t)).expect("b via a");
            assert_eq!(kept.expires, secs(t + 15));
        }
        p.apply(secs(17), &hello(a, &a_says));
        assert_eq!(p.new.routes.lookup(c, secs(17)), None);
        assert_eq!(p.new.table().len(), 2);
    }

    /// A seeded random walk over HELLOs (new, repeated, asymmetric), TCs
    /// (new, repeated sets, stale ANSNs, duplicates, unsorted selector
    /// lists), hello timers after short and long silences, link failures
    /// and restarts, among 150 addresses around our own.
    fn random_walk(seed: u64) {
        const POOL: u32 = 150;
        let own = Addr::manet(70);
        let mut rng = SimRng::from_seed_and_stream(seed, 3626);
        let pick = |rng: &mut SimRng| loop {
            let a = Addr::manet(rng.range_u64(0, POOL as u64) as u32);
            if a != own {
                return a;
            }
        };
        let some = |rng: &mut SimRng, most: u64| -> Vec<Addr> {
            (0..rng.range_u64(0, most + 1)).map(|_| pick(rng)).collect()
        };
        let neighbors: Vec<Addr> = (0..14).map(|_| pick(&mut rng)).collect();
        let mut last_hello: BTreeMap<Addr, Step> = BTreeMap::new();
        let mut last_tc: BTreeMap<Addr, (u16, u16, Vec<Addr>)> = BTreeMap::new();
        let mut p = Pair::new(own);
        let mut now = SimTime::ZERO;
        let mut last_timer = now;
        let (mut widest, mut most_routes) = (0, 0);
        for _ in 0..4000 {
            // Mostly message spacing; now and then long enough a silence
            // for links (6 s) or topology tuples (15 s) to run out.
            now += match rng.range_u64(0, 100) {
                0 => SimDuration::from_millis(rng.range_u64(5_000, 25_000)),
                _ => SimDuration::from_millis(rng.range_u64(1, 100)),
            };
            if now.saturating_since(last_timer) >= SimDuration::from_secs(2) {
                last_timer = now;
                p.apply(now, &Step::HelloTimer);
            }
            let from = neighbors[rng.range_u64(0, neighbors.len() as u64) as usize];
            let step = match rng.range_u64(0, 1000) {
                0..=449 => {
                    let repeat = last_hello.get(&from).filter(|_| rng.chance(0.4)).cloned();
                    let step = repeat.unwrap_or_else(|| {
                        let mut listed: Vec<(Addr, LinkStatus)> = some(&mut rng, 10)
                            .into_iter()
                            .map(|a| (a, LinkStatus::from_u8(rng.range_u64(0, 3) as u8).unwrap()))
                            .collect();
                        if rng.chance(0.85) {
                            let status = LinkStatus::from_u8(rng.range_u64(0, 3) as u8).unwrap();
                            listed.push((own, status));
                        }
                        hello(from, &listed)
                    });
                    last_hello.insert(from, step.clone());
                    step
                }
                450..=949 => {
                    let orig = pick(&mut rng);
                    let (seq, ansn, sels) = last_tc.entry(orig).or_default();
                    match rng.range_u64(0, 10) {
                        0 => {}                                // duplicate
                        1 => *ansn = ansn.wrapping_sub(1),     // stale
                        2..=4 => *ansn = ansn.wrapping_add(1), // same set, fresh
                        _ => {
                            *ansn = ansn.wrapping_add(1);
                            *sels = some(&mut rng, 5);
                            if rng.chance(0.2) {
                                sels.push(own);
                            }
                        }
                    }
                    if rng.chance(0.9) {
                        *seq = seq.wrapping_add(1);
                    }
                    Step::Msg {
                        from,
                        msg: OlsrMsg::Tc {
                            orig,
                            msg_seq: *seq,
                            ansn: *ansn,
                            ttl: 32,
                            selectors: sels.clone(),
                            entries: Vec::new(),
                        },
                    }
                }
                950..=996 => Step::LinkTxFailed(if rng.chance(0.7) {
                    from
                } else {
                    pick(&mut rng)
                }),
                _ => Step::Restart,
            };
            p.apply(now, &step);
            widest = widest.max(p.new.proc.universe.len());
            most_routes = most_routes.max(p.new.table().len());
        }
        assert!(
            widest > 64,
            "rows never spanned two words ({widest} addresses)"
        );
        assert!(most_routes > 64, "never more than {most_routes} routes");
        assert!(
            p.moved_a_kept_row,
            "the universe never moved under a row that a computation reused"
        );
        assert!(p.purge_shrank, "no purge ever shrank the universe");
    }

    #[test]
    fn bitset_kernels_match_the_reference_on_random_walks() {
        for seed in [1, 2, 3, 4] {
            random_walk(seed);
        }
    }
}
