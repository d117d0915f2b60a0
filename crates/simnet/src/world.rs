//! The simulated world: event loop, node table and global state.
//!
//! A [`World`] owns all nodes, the pending-event queue and the packet
//! trace. The event loop is strictly deterministic: equal-time events fire
//! in scheduling order, every random draw comes from a seeded stream, and
//! all internal collections iterate in stable order.
//!
//! This file holds the public API, the event loop and global fault
//! state. The pending events and their `(time, seq)` order belong to
//! [`crate::queue`]; what happens *inside* one event — process calls,
//! forwarding, the radio channel — is the `impl World` block in
//! [`crate::exec`].

use std::collections::BTreeSet;

use crate::exec::{EngineScratch, Event, Own, EVENT_KINDS};
use crate::fasthash::FastMap;
use crate::fault::{FaultAction, FaultPlan, PacketFault};
use crate::grid::NeighborGrid;
use crate::mobility::{Mobility, Position};
use crate::net::{Addr, Datagram};
use crate::node::{
    HotNode, Node, NodeConfig, NodeId, ProcSlot, ProtoState, RecvEntry, Transmit, NO_PROC,
};
use crate::process::{LocalEvent, Process};
use crate::queue::EventQueue;
use crate::radio::RadioConfig;
use crate::rng::SimRng;
use crate::stats::{Counter, Ledger, NodeStats};
use crate::time::{SimDuration, SimTime};
use crate::trace::PacketTrace;

/// Global world parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Seed from which every random stream in the world is derived.
    pub seed: u64,
    /// Radio parameters shared by all radio nodes.
    pub radio: RadioConfig,
    /// One-way latency of the wired backbone.
    pub wired_latency: SimDuration,
    /// Uniform jitter added to each wired delivery.
    pub wired_jitter: SimDuration,
}

impl WorldConfig {
    /// Reasonable defaults with the given seed: 802.11b radio, 20 ms ± 5 ms
    /// backbone.
    pub fn new(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            radio: RadioConfig::default_80211b(),
            wired_latency: SimDuration::from_millis(20),
            wired_jitter: SimDuration::from_millis(5),
        }
    }

    /// Replaces the radio configuration.
    pub fn with_radio(mut self, radio: RadioConfig) -> WorldConfig {
        self.radio = radio;
        self
    }
}

/// The simulation world.
///
/// # Examples
///
/// ```
/// use siphoc_simnet::prelude::*;
///
/// let mut world = World::new(WorldConfig::new(7));
/// let a = world.add_node(NodeConfig::manet(0.0, 0.0));
/// let _b = world.add_node(NodeConfig::manet(50.0, 0.0));
/// world.run_for(SimDuration::from_secs(1));
/// assert_eq!(world.node(a).addr(), Addr::manet(0));
/// ```
pub struct World {
    pub(crate) cfg: WorldConfig,
    pub(crate) now: SimTime,
    /// Total events dispatched since creation (benchmark harnesses divide
    /// this by wall-clock time to report simulator throughput; batch
    /// fan-outs count per receiver).
    pub(crate) events: u64,
    queue: EventQueue,
    pub(crate) nodes: Vec<Node>,
    pub(crate) addr_map: FastMap<Addr, NodeId>,
    pub(crate) trace: PacketTrace,
    next_manet_index: u32,
    workload_rng: SimRng,
    /// Administratively cut radio links, as normalized id pairs.
    link_cuts: BTreeSet<(u32, u32)>,
    /// Current partition island (node ids); links crossing its boundary
    /// are blocked.
    partition: Option<BTreeSet<u32>>,
    /// Active probabilistic per-link packet faults.
    pub(crate) packet_faults: Vec<PacketFault>,
    /// Dedicated RNG stream for packet-fault sampling, so chaos draws
    /// never perturb node or workload streams.
    pub(crate) fault_rng: SimRng,
    /// Every radio node's candidate receivers, valid up to a drift
    /// horizon and lazily re-derived (see [`crate::grid`]).
    pub(crate) grid: NeighborGrid,
    /// Set only by [`World::with_full_scan_reference`].
    pub(crate) full_scan: bool,
    /// Reused dispatch hot-path buffers.
    pub(crate) scratch: EngineScratch,
    /// Each node's liveness, incarnation, leg and parked flag, indexed
    /// like `nodes` and their only home (see [`HotNode`]). Radio fan-out
    /// filters and every dispatch read it instead of the full `Node`
    /// structs.
    pub(crate) hot: Vec<HotNode>,
    /// What a delivery reads of each node before its process runs,
    /// indexed like `nodes` (see [`RecvEntry`]).
    pub(crate) recv: Vec<RecvEntry>,
    /// Every process of every node, in spawn order. A node reaches its
    /// own through its `RecvEntry` and `ProtoState::procs`; events, port
    /// bindings and handlers name a process by its slot here.
    pub(crate) procs: Vec<ProcSlot>,
    /// Host time and event count by event kind (obs builds).
    ledger: Ledger<{ EVENT_KINDS.len() }>,
    tracing_default: bool,
}

impl World {
    /// Creates an empty world.
    pub fn new(cfg: WorldConfig) -> World {
        let workload_rng = SimRng::from_seed_and_stream(cfg.seed, u64::MAX);
        let fault_rng = SimRng::from_seed_and_stream(cfg.seed, u64::MAX - 1);
        let grid = NeighborGrid::new(cfg.radio.range);
        World {
            cfg,
            now: SimTime::ZERO,
            events: 0,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            addr_map: FastMap::default(),
            trace: PacketTrace::new(),
            next_manet_index: 0,
            workload_rng,
            link_cuts: BTreeSet::new(),
            partition: None,
            packet_faults: Vec::new(),
            fault_rng,
            grid,
            full_scan: false,
            scratch: EngineScratch::default(),
            hot: Vec::new(),
            recv: Vec::new(),
            procs: Vec::new(),
            ledger: Ledger::new(siphoc_obs::host_ns),
            tracing_default: false,
        }
    }

    /// Test support: a world whose radio range queries scan every radio
    /// node instead of the neighbour lists — the reference implementation
    /// the equivalence tests compare the lists against. Trace-identical
    /// to [`World::new`] by construction.
    #[doc(hidden)]
    pub fn with_full_scan_reference(cfg: WorldConfig) -> World {
        World {
            full_scan: true,
            ..World::new(cfg)
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched by the event loop so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Adds a node, assigning it the next MANET address unless the
    /// configuration fixes one. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the (explicit) address is already taken.
    pub fn add_node(&mut self, cfg: NodeConfig) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let addr = cfg.addr.unwrap_or_else(|| {
            let a = Addr::manet(self.next_manet_index);
            self.next_manet_index += 1;
            a
        });
        assert!(
            !self.addr_map.contains_key(&addr),
            "address {addr} already assigned"
        );
        let rng = SimRng::from_seed_and_stream(self.cfg.seed, 1000 + id.0 as u64);
        let mut node = Node::new(addr, &cfg, rng);
        node.obs.set_tracing(self.tracing_default);
        if let Some(alias) = cfg.public_alias {
            assert!(alias.is_public(), "public alias {alias} must be public");
            assert!(
                !self.addr_map.contains_key(&alias),
                "address {alias} already assigned"
            );
            node.proto_mut().aliases.push(alias);
            self.addr_map.insert(alias, id);
        }
        self.addr_map.insert(addr, id);
        self.nodes.push(node);
        self.hot.push(HotNode::new(&cfg));
        self.recv.push(RecvEntry::new(addr));
        self.grid.invalidate();
        self.set_mobility(id, cfg.mobility);
        id
    }

    /// Starts a process on `node`; `on_start` runs at the current time,
    /// or when the node next powers up if it is down. Returns the process
    /// index on that node.
    pub fn spawn(&mut self, node: NodeId, proc: Box<dyn Process>) -> usize {
        let slot = self.procs.len() as u32;
        let idx = if self.recv[node.0 as usize].proc0 == NO_PROC {
            self.recv[node.0 as usize].proc0 = slot;
            0
        } else {
            // Most nodes run one process: no spare capacity in the list.
            let procs = &mut self.nodes[node.0 as usize].proto_mut().procs;
            procs.reserve_exact(1);
            procs.push(slot);
            procs.len()
        };
        self.procs.push(ProcSlot {
            proc: Some(proc),
            takes: 0,
        });
        if self.is_up(node) {
            self.start_process(node, slot);
        }
        idx
    }

    /// Arena slot of process `idx` on `node`, if it has that many.
    pub(crate) fn proc_slot(&self, node: NodeId, idx: usize) -> Option<u32> {
        match (self.recv[node.0 as usize].proc0, idx) {
            (NO_PROC, _) => None,
            (slot, 0) => Some(slot),
            _ => {
                let proto = self.nodes[node.0 as usize].proto.as_deref();
                proto.and_then(|p| p.procs.get(idx - 1).copied())
            }
        }
    }

    /// Queues the `on_start` of the process in arena slot `slot` in the
    /// node's current incarnation: at spawn, and at every power-up.
    fn start_process(&mut self, node: NodeId, slot: u32) {
        self.arm(SimDuration::ZERO, node, Own::Start(slot));
    }

    /// Names of the processes hosted on `node`, in spawn order.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn process_names(&self, node: NodeId) -> Vec<&'static str> {
        (0..)
            .map_while(|idx| self.proc_slot(node, idx))
            .filter_map(|slot| self.procs[slot as usize].proc.as_ref())
            .map(|proc| proc.name())
            .collect()
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Whether a node is powered on.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.hot[id.0 as usize].up
    }

    /// Whether a node has a wired (Internet) interface.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn has_wired(&self, id: NodeId) -> bool {
        self.hot[id.0 as usize].has_wired
    }

    /// A node's position now (wired nodes report a fixed placeholder).
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn position(&self, id: NodeId) -> Position {
        self.hot[id.0 as usize].position(self.now)
    }

    /// All node ids in creation order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32).map(NodeId).collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Enables or disables span tracing on every current node and sets the
    /// default applied to nodes added later. Metrics are always recorded
    /// when the `obs` feature is compiled in; spans additionally require
    /// this runtime switch. A no-op in obs-less builds.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing_default = on;
        for n in &mut self.nodes {
            n.obs.set_tracing(on);
        }
    }

    /// Aggregates every node's observability shard plus the legacy
    /// [`NodeStats`] counters into one labelled [`siphoc_obs::Registry`].
    ///
    /// Each `NodeStats` counter `x.y` is bridged as counter `x.y` (packet
    /// count) and `x.y_bytes`, labelled `node="n<id>"`, so the ad-hoc
    /// string counters stay queryable through the typed exporters. World
    /// gauges (`sim.now_us`, `sim.events`, `sim.nodes`) ride along, with
    /// `sim.obs_bytes`: what every node's counters and `NodeObs` occupy
    /// — the inline `size_of` of its `NodeStats`, its five engine
    /// counters (`radio.rx` in the receive column, four in `Transmit`)
    /// and its shard, plus the heap behind its named counters, gauges,
    /// histograms and span log, by capacity (no shard in an obs-less
    /// build) — so the cost of the instrumentation is in its own output;
    /// `sim.node_bytes`: what the nodes themselves occupy — the `Node`s,
    /// `HotNode`s and `RecvEntry`s by their columns' capacity, plus each
    /// `ProtoState` box and its heap (its inline shards are in
    /// `sim.obs_bytes` too); and the event queue's own account: `sim.queue_len`
    /// (events queued now), `sim.queue_slots` (the most ever queued at
    /// once) and `sim.queue_bytes` (slab, near heap, wheels and spill, by
    /// capacity); and the neighbour lists' own: `sim.neighbor_rebuilds`
    /// (full builds plus horizon refreshes) and `sim.neighbor_bytes` (the
    /// lists and their transient grid, by capacity). In an obs build the
    /// event loop's ledger adds, for each event kind that ran,
    /// `sim.events{kind=…}` (events dispatched, a
    /// radio batch counting once per receiver; they sum to the
    /// `sim.events` gauge) and `sim.host_ns{kind=…}` (host nanoseconds,
    /// metered on one dispatch in 64 and scaled up to all). The host-time
    /// rows are the only ones in the registry that are not a function of
    /// the seed.
    pub fn obs_registry(&self) -> siphoc_obs::Registry {
        use std::mem::size_of;
        let mut reg = siphoc_obs::Registry::new();
        let inline = size_of::<NodeStats>()
            + (1 + Transmit::NAMES.len()) * size_of::<Counter>()
            + size_of::<siphoc_obs::NodeObs>();
        let mut obs_bytes = self.nodes.len() * inline;
        let mut node_bytes = self.nodes.capacity() * size_of::<Node>()
            + self.hot.capacity() * size_of::<HotNode>()
            + self.recv.capacity() * size_of::<RecvEntry>();
        for (i, n) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            obs_bytes += n.stats.heap_bytes() + n.obs.heap_bytes();
            node_bytes += n.proto.as_deref().map_or(0, ProtoState::heap_bytes);
            let label = id.to_string();
            n.obs.merge_metrics_into(&mut reg, &label);
            for (name, c) in self.stats(id).iter() {
                reg.counter_add(name, &[("node", &label)], c.packets);
                reg.counter_add(&format!("{name}_bytes"), &[("node", &label)], c.bytes);
            }
        }
        reg.gauge_set("sim.now_us", &[], self.now.as_micros() as f64);
        reg.gauge_set("sim.events", &[], self.events as f64);
        reg.gauge_set("sim.nodes", &[], self.nodes.len() as f64);
        reg.gauge_set("sim.obs_bytes", &[], obs_bytes as f64);
        reg.gauge_set("sim.node_bytes", &[], node_bytes as f64);
        reg.gauge_set("sim.queue_len", &[], self.queue.len() as f64);
        reg.gauge_set("sim.queue_slots", &[], self.queue.slots() as f64);
        reg.gauge_set("sim.queue_bytes", &[], self.queue.heap_bytes() as f64);
        reg.gauge_set("sim.neighbor_rebuilds", &[], self.grid.rebuilds() as f64);
        reg.gauge_set("sim.neighbor_bytes", &[], self.grid.heap_bytes() as f64);
        self.ledger.export(&EVENT_KINDS, &mut reg);
        reg
    }

    /// Every span recorded so far, tagged with the owning node's id.
    /// Spans still open at the current sim time are included, marked
    /// `unfinished`. Empty unless tracing was enabled on an obs build.
    pub fn obs_spans(&self) -> Vec<siphoc_obs::TaggedSpan> {
        let now_us = self.now.as_micros();
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let label = NodeId(i as u32).to_string();
            for span in n.obs.spans() {
                out.push(siphoc_obs::TaggedSpan {
                    node: label.clone(),
                    span: span.clone(),
                });
            }
            for span in n.obs.open_spans(now_us) {
                out.push(siphoc_obs::TaggedSpan {
                    node: label.clone(),
                    span,
                });
            }
        }
        out
    }

    /// Resolves an address to the owning node (primary or claimed).
    pub fn node_by_addr(&self, addr: Addr) -> Option<NodeId> {
        self.addr_map.get(&addr).copied()
    }

    /// The packet trace.
    pub fn trace(&self) -> &PacketTrace {
        &self.trace
    }

    /// Mutable access to the packet trace (enable/clear/configure).
    pub fn trace_mut(&mut self) -> &mut PacketTrace {
        &mut self.trace
    }

    /// A deterministic RNG stream for workload generators outside any node.
    pub fn workload_rng(&mut self) -> &mut SimRng {
        &mut self.workload_rng
    }

    /// A node's traffic counters.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn stats(&self, id: NodeId) -> NodeStats {
        let n = &self.nodes[id.0 as usize];
        let mut stats = n.stats.clone();
        for (name, c) in Transmit::NAMES.into_iter().zip(n.tx.counters()) {
            stats.add(name, c);
        }
        stats.add("radio.rx", self.recv[id.0 as usize].rx);
        stats
    }

    /// Aggregated counters across every node.
    pub fn total_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        let mut tx = [Counter::default(); Transmit::NAMES.len()];
        let mut rx = Counter::default();
        for (n, r) in self.nodes.iter().zip(&self.recv) {
            total.merge(&n.stats);
            for (sum, c) in tx.iter_mut().zip(n.tx.counters()) {
                sum.merge(c);
            }
            rx.merge(r.rx);
        }
        for (name, c) in Transmit::NAMES.into_iter().zip(tx) {
            total.add(name, c);
        }
        total.add("radio.rx", rx);
        total
    }

    /// Powers a node down or back up. Going down ends the node's
    /// incarnation: its transmit queue, parked datagrams and routes are
    /// lost, and every event it armed for itself (timers, its radio's,
    /// datagrams to itself, local signals, the pending sweep) is dropped
    /// when due.
    /// Its processes and their ports survive. Power-up runs every
    /// process's [`Process::on_start`] again, in index order, as
    /// [`World::spawn`] ran it first.
    pub fn set_node_up(&mut self, id: NodeId, up: bool) {
        let h = &mut self.hot[id.0 as usize];
        if h.up == up {
            return;
        }
        h.up = up;
        let n = &mut self.nodes[id.0 as usize];
        if !up {
            h.inc = h.inc.wrapping_add(1);
            h.parked = false;
            n.tx.queue.clear();
            n.tx.until = SimTime::ZERO;
            if let Some(p) = &mut n.proto {
                p.pending.clear();
                p.routes.clear();
            }
        } else {
            for idx in 0.. {
                let Some(slot) = self.proc_slot(id, idx) else {
                    break;
                };
                self.start_process(id, slot);
            }
        }
    }

    /// Installs a chaos plan: schedules its fault events into the event
    /// queue and activates its packet faults. May be called several
    /// times; packet faults accumulate. Events scheduled in the past fire
    /// immediately (at the current time).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for (time, action) in plan.events().iter().cloned() {
            self.schedule_at(time, Event::Fault(action));
        }
        self.packet_faults.extend_from_slice(plan.packet_faults());
    }

    /// Applies a fault action immediately. Scheduled plan events go
    /// through this too; tests can call it directly to inject ad-hoc
    /// faults. Each state-changing application is counted in the affected
    /// nodes' stats under the `fault.` prefix.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node id.
    pub fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::NodeCrash(n) => {
                if self.is_up(n) {
                    self.node_mut(n).stats.count("fault.crash", 0);
                    self.set_node_up(n, false);
                }
            }
            FaultAction::NodeRestart(n) => {
                if !self.is_up(n) {
                    self.node_mut(n).stats.count("fault.restart", 0);
                    self.set_node_up(n, true);
                }
            }
            FaultAction::LinkDown(a, b) => {
                if self.link_cuts.insert(norm_pair(a, b)) {
                    self.node_mut(a).stats.count("fault.link_down", 0);
                    self.node_mut(b).stats.count("fault.link_down", 0);
                }
            }
            FaultAction::LinkUp(a, b) => {
                if self.link_cuts.remove(&norm_pair(a, b)) {
                    self.node_mut(a).stats.count("fault.link_up", 0);
                    self.node_mut(b).stats.count("fault.link_up", 0);
                }
            }
            FaultAction::Partition(island) => {
                let island: BTreeSet<u32> = island.iter().map(|n| n.0).collect();
                for &i in &island {
                    self.node_mut(NodeId(i)).stats.count("fault.partition", 0);
                }
                self.partition = Some(island);
            }
            FaultAction::Heal => {
                if let Some(island) = self.partition.take() {
                    for i in island {
                        self.node_mut(NodeId(i)).stats.count("fault.heal", 0);
                    }
                }
                self.link_cuts.clear();
            }
            FaultAction::Compromise(n, kind) => {
                // The world only flags the node; its (pre-deployed,
                // dormant) adversary processes act on the event.
                self.node_mut(n).stats.count("fault.compromise", 0);
                self.arm(
                    SimDuration::ZERO,
                    n,
                    Own::Local {
                        exclude: None,
                        ev: LocalEvent::Compromise(kind),
                    },
                );
            }
        }
    }

    /// Whether an administrative fault (link cut or partition) currently
    /// blocks the radio link between two nodes.
    pub fn link_faulted(&self, a: NodeId, b: NodeId) -> bool {
        if self.link_cuts.contains(&norm_pair(a, b)) {
            return true;
        }
        match &self.partition {
            Some(island) => island.contains(&a.0) != island.contains(&b.0),
            None => false,
        }
    }

    /// Replaces a node's mobility model, scheduling its replan events;
    /// the replans still queued under the model it replaces are dropped
    /// when due. The neighbour lists are re-derived on the next
    /// transmission.
    pub fn set_mobility(&mut self, id: NodeId, mobility: Mobility) {
        let h = &mut self.hot[id.0 as usize];
        let waypoint = h.place(mobility);
        let replan = waypoint.map(|(params, _)| h.leg.arrive + params.pause);
        let n = &mut self.nodes[id.0 as usize];
        n.mobility_gen = n.mobility_gen.wrapping_add(1);
        n.waypoint = waypoint.map(Box::new);
        let gen = n.mobility_gen;
        if let Some(time) = replan {
            self.schedule_at(time, Event::Replan { node: id, gen });
        }
        self.grid.invalidate();
    }

    /// Runs the event loop until (and including) time `t`. The clock
    /// never moves backwards: a `t` in the past dispatches nothing and
    /// leaves `now()` where it was.
    pub fn run_until(&mut self, t: SimTime) {
        // With the packet trace enabled the loop pauses before each whole
        // second it reaches, so the trace can close a checkpoint over
        // everything before it.
        while let Some(at) = self.trace.checkpoint_due(self.now, t) {
            self.dispatch_through(SimTime::from_micros(at.as_micros() - 1));
            self.trace.close_checkpoint(at, self.events);
            if self.queue.len() == 0 {
                // Drained: every second up to `t` is idle and closes none.
                break;
            }
        }
        self.dispatch_through(t);
        self.now = self.now.max(t);
        self.trace.note_events(self.events);
    }

    /// Dispatches every queued event due at or before `t`.
    fn dispatch_through(&mut self, t: SimTime) {
        loop {
            let start = self.ledger.start();
            let Some((time, event)) = self.queue.pop_at_or_before(t) else {
                break;
            };
            debug_assert!(time >= self.now, "event queue went backwards");
            self.now = time;
            let (kind, before) = (event.kind(), self.events);
            self.dispatch(event);
            self.ledger.record(kind, self.events - before, start);
        }
    }

    /// Runs the event loop for `d` simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Injects a datagram as if a process on `node` had sent it.
    /// Useful for tests and workload drivers.
    pub fn inject(&mut self, node: NodeId, dgram: Datagram) {
        self.route_and_send(node, dgram);
    }

    /// Installs a static route on a node. Intended for tests and
    /// experiment setup that want fixed topologies without running a
    /// routing protocol.
    pub fn install_route(&mut self, node: NodeId, dst: Addr, route: crate::route::Route) {
        self.node_mut(node).proto_mut().routes.insert(dst, route);
    }

    // ------------------------------------------------------------------
    // Event machinery
    // ------------------------------------------------------------------

    pub(crate) fn schedule(&mut self, delay: SimDuration, event: Event) {
        self.schedule_at(self.now + delay, event);
    }

    /// Queues `event`; a time in the past fires at the current time.
    /// Equal-time events dispatch in the order they were scheduled.
    pub(crate) fn schedule_at(&mut self, time: SimTime, event: Event) {
        self.queue.push(time.max(self.now), event);
    }

    /// Queues `ev` on `node` for `delay` from now, in the node's current
    /// incarnation.
    pub(crate) fn arm(&mut self, delay: SimDuration, node: NodeId, ev: Own) {
        self.arm_at(self.now + delay, node, ev);
    }

    /// As [`World::arm`], at `time`.
    pub(crate) fn arm_at(&mut self, time: SimTime, node: NodeId, ev: Own) {
        let inc = self.hot[node.0 as usize].inc;
        self.schedule_at(time, Event::Own { node, inc, ev });
    }

    /// Re-plans a mobile node's trajectory at one of its waypoints,
    /// under mobility model `gen`. A replan armed under a model that
    /// [`World::set_mobility`] has since replaced does nothing, so every
    /// replan that runs fires at or after its leg's arrival and continues
    /// from where the node stands, within its speed bound.
    pub(crate) fn replan(&mut self, node: NodeId, gen: u32) {
        let n = &mut self.nodes[node.0 as usize];
        if gen != n.mobility_gen {
            return;
        }
        let (params, area) = *n.waypoint.as_deref().expect("a replan walks its node");
        let h = &mut self.hot[node.0 as usize];
        h.leg = h.leg.next(params, area, self.now, &mut n.tx.rng);
        let replan = h.leg.arrive + params.pause;
        self.schedule_at(replan, Event::Replan { node, gen });
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("queued_events", &self.queue.len())
            .finish()
    }
}

/// Normalizes an unordered node pair for the link-cut table.
fn norm_pair(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{ports, SocketAddr};
    use crate::process::{Ctx, LocalEvent, LocalKind};
    use crate::route::Route;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log<T> = Rc<RefCell<Vec<T>>>;

    /// Test process that records everything it receives.
    struct Echo {
        port: u16,
        received: Log<Datagram>,
        events: Log<LocalEvent>,
    }

    impl Echo {
        fn new(port: u16) -> (Echo, Log<Datagram>, Log<LocalEvent>) {
            let (received, events) = (Log::default(), Log::default());
            let echo = Echo {
                port,
                received: Rc::clone(&received),
                events: Rc::clone(&events),
            };
            (echo, received, events)
        }
    }

    impl Process for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(self.port);
            ctx.take_local(&[LocalKind::RouteNeeded, LocalKind::LinkTxFailed]);
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: &Datagram) {
            self.received.borrow_mut().push(dgram.clone());
        }
        fn on_local_event(&mut self, _ctx: &mut Ctx<'_>, ev: &LocalEvent) {
            self.events.borrow_mut().push(ev.clone());
        }
    }

    fn dgram(src: Addr, dst: Addr, port: u16, payload: &[u8]) -> Datagram {
        Datagram::new(
            SocketAddr::new(src, port),
            SocketAddr::new(dst, port),
            payload.to_vec(),
        )
    }

    /// A route through `next_hop`, `hops` away, that never expires.
    pub(super) fn via(next_hop: Addr, hops: u8) -> Route {
        Route {
            next_hop,
            hops,
            expires: SimTime::MAX,
            seq: 0,
        }
    }

    fn ideal_world(seed: u64) -> World {
        World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()))
    }

    #[test]
    fn loopback_delivery_between_processes_on_one_node() {
        let mut w = ideal_world(1);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let (echo, recv, _) = Echo::new(ports::SLP);
        w.spawn(a, Box::new(echo));
        w.run_for(SimDuration::from_millis(1));
        w.inject(
            a,
            dgram(Addr::LOOPBACK, Addr::LOOPBACK, ports::SLP, b"ping"),
        );
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(recv.borrow().len(), 1);
        assert_eq!(recv.borrow()[0].payload, b"ping");
    }

    #[test]
    fn one_hop_radio_delivery_with_route() {
        let mut w = ideal_world(2);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        let (echo, recv, _) = Echo::new(9000);
        w.spawn(b, Box::new(echo));
        w.run_for(SimDuration::from_millis(1));
        // Install a direct route a -> b.
        let baddr = w.node(b).addr();
        w.install_route(a, baddr, via(baddr, 1));
        let aaddr = w.node(a).addr();
        w.inject(a, dgram(aaddr, baddr, 9000, b"hello"));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(recv.borrow().len(), 1);
    }

    #[test]
    fn multihop_forwarding_follows_routes() {
        let mut w = ideal_world(3);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let r = w.add_node(NodeConfig::manet(80.0, 0.0));
        let b = w.add_node(NodeConfig::manet(160.0, 0.0));
        let (echo, recv, _) = Echo::new(9000);
        w.spawn(b, Box::new(echo));
        w.run_for(SimDuration::from_millis(1));
        let (aa, ra, ba) = (w.node(a).addr(), w.node(r).addr(), w.node(b).addr());
        w.install_route(a, ba, via(ra, 2));
        w.install_route(r, ba, via(ba, 1));
        w.inject(a, dgram(aa, ba, 9000, b"via relay"));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(recv.borrow().len(), 1);
        // The relay counted forwarded traffic.
        assert_eq!(w.stats(r).get("fwd").packets, 1);
    }

    #[test]
    fn no_route_parks_packet_and_signals_route_needed() {
        let mut w = ideal_world(4);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        let (echo_a, _, events_a) = Echo::new(9001);
        w.spawn(a, Box::new(echo_a));
        let (echo_b, recv_b, _) = Echo::new(9000);
        w.spawn(b, Box::new(echo_b));
        w.run_for(SimDuration::from_millis(1));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.inject(a, dgram(aa, ba, 9000, b"waiting"));
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(w.node(a).pending_packets(), 1);
        assert!(events_a
            .borrow()
            .iter()
            .any(|e| matches!(e, LocalEvent::RouteNeeded { dst } if *dst == ba)));
        // Installing a route flushes the parked packet.
        w.install_route(a, ba, via(ba, 1));
        // Any event on the node triggers the flush; use a local event.
        w.inject(a, dgram(Addr::LOOPBACK, Addr::LOOPBACK, 9001, b"tick"));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(recv_b.borrow().len(), 1);
        assert_eq!(w.node(a).pending_packets(), 0);
    }

    #[test]
    fn pending_packets_dropped_after_timeout() {
        let mut w = ideal_world(5);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let _b = w.add_node(NodeConfig::manet(50.0, 0.0));
        w.run_for(SimDuration::from_millis(1));
        let (aa, ba) = (w.node(NodeId(0)).addr(), w.node(NodeId(1)).addr());
        // Two lengths to one destination, so one sweep drops both: the
        // bytes must be the (odd) sum, not packets × the truncated mean.
        w.inject(a, dgram(aa, ba, 9000, b"doomed"));
        w.inject(a, dgram(aa, ba, 9000, b"doomed!"));
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(w.node(a).pending_packets(), 0);
        let dropped = w.stats(a).get("drop.pending_timeout");
        let bytes = (6 + 7 + 2 * crate::net::UDP_IP_OVERHEAD) as u64;
        assert_eq!((dropped.packets, dropped.bytes), (2, bytes));
    }

    #[test]
    fn broadcast_reaches_only_nodes_in_range() {
        let mut w = ideal_world(6);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(60.0, 0.0));
        let c = w.add_node(NodeConfig::manet(500.0, 0.0));
        let (eb, rb, _) = Echo::new(9000);
        let (ec, rc, _) = Echo::new(9000);
        w.spawn(b, Box::new(eb));
        w.spawn(c, Box::new(ec));
        w.run_for(SimDuration::from_millis(1));
        let aa = w.node(a).addr();
        w.inject(a, dgram(aa, Addr::BROADCAST, 9000, b"anyone?"));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(rb.borrow().len(), 1);
        assert_eq!(rc.borrow().len(), 0);
    }

    #[test]
    fn unicast_to_unreachable_neighbor_reports_link_failure() {
        let mut w = ideal_world(7);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        let (ea, _, events) = Echo::new(9001);
        w.spawn(a, Box::new(ea));
        w.run_for(SimDuration::from_millis(1));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.install_route(a, ba, via(ba, 1));
        // Move b out of range, then send.
        w.set_mobility(b, Mobility::fixed(10_000.0, 0.0));
        w.inject(a, dgram(aa, ba, 9000, b"lost"));
        w.run_for(SimDuration::from_millis(100));
        assert!(events
            .borrow()
            .iter()
            .any(|e| matches!(e, LocalEvent::LinkTxFailed { neighbor } if *neighbor == ba)));
        assert_eq!(w.stats(a).get("drop.l2_fail").packets, 1);
        assert!(w.stats(a).get("radio.retx").packets >= 4);
    }

    #[test]
    fn wired_nodes_exchange_datagrams_directly() {
        let mut w = ideal_world(8);
        let p1 = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 1)));
        let p2 = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 2)));
        let (echo, recv, _) = Echo::new(ports::SIP);
        w.spawn(p2, Box::new(echo));
        w.run_for(SimDuration::from_millis(1));
        w.inject(
            p1,
            dgram(
                Addr::new(82, 1, 1, 1),
                Addr::new(82, 1, 1, 2),
                ports::SIP,
                b"REGISTER",
            ),
        );
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 1);
        // Wired latency applied: delivery happened, but not instantly.
        assert_eq!(w.stats(p1).get("wired.tx").packets, 1);
    }

    #[test]
    fn manet_node_without_uplink_drops_public_traffic() {
        let mut w = ideal_world(9);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        w.run_for(SimDuration::from_millis(1));
        let aa = w.node(a).addr();
        w.inject(a, dgram(aa, Addr::new(82, 1, 1, 1), 5060, b"INVITE"));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.stats(a).get("drop.no_uplink").packets, 1);
    }

    #[test]
    fn gateway_bridges_manet_to_wired() {
        let mut w = ideal_world(10);
        let gw = w.add_node(NodeConfig::gateway(0.0, 0.0));
        let srv_addr = Addr::new(82, 1, 1, 1);
        let srv = w.add_node(NodeConfig::wired(srv_addr));
        let (echo, recv, _) = Echo::new(ports::SIP);
        w.spawn(srv, Box::new(echo));
        w.run_for(SimDuration::from_millis(1));
        let ga = w.node(gw).addr();
        w.inject(gw, dgram(ga, srv_addr, ports::SIP, b"hello internet"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 1);
    }

    #[test]
    fn node_down_drops_everything_and_keeps_its_ports_across_restart() {
        let mut w = ideal_world(11);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        let (eb, rb, _) = Echo::new(9000);
        w.spawn(b, Box::new(eb));
        w.run_for(SimDuration::from_millis(1));
        w.set_node_up(b, false);
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.install_route(a, ba, via(ba, 1));
        w.inject(a, dgram(aa, ba, 9000, b"to the void"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(rb.borrow().len(), 0);
        w.set_node_up(b, true);
        w.inject(a, dgram(aa, ba, 9000, b"back"));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(rb.borrow().len(), 1);
        assert_eq!(rb.borrow()[0].payload, b"back");
    }

    type LifeLog = Log<(SimTime, usize, Option<u64>)>;

    /// Logs `(time, process index, None)` at each start and
    /// `(time, index, Some(token))` at each firing of the timer chain
    /// that `on_start` begins, one link every `period`.
    struct Life {
        idx: usize,
        period: SimDuration,
        log: LifeLog,
    }

    impl Process for Life {
        fn name(&self) -> &'static str {
            "life"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.log.borrow_mut().push((ctx.now(), self.idx, None));
            ctx.set_timer(self.period, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.log
                .borrow_mut()
                .push((ctx.now(), self.idx, Some(token)));
            ctx.set_timer(self.period, token + 1);
        }
    }

    #[test]
    fn restart_reruns_on_start_in_index_order_and_drops_the_old_chains() {
        let mut w = ideal_world(12);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let log = LifeLog::default();
        for idx in 0..2 {
            let (period, log) = (SimDuration::from_millis(100), log.clone());
            w.spawn(a, Box::new(Life { idx, period, log }));
        }
        w.run_until(SimTime::from_millis(250));
        // Down for 10 ms, shorter than a period: both chains' next
        // firings (at 300 ms) fall after the restart.
        w.set_node_up(a, false);
        w.run_until(SimTime::from_millis(260));
        w.set_node_up(a, true);
        w.run_until(SimTime::from_millis(470));
        // Each start and firing, in both processes in index order; none at
        // 300 or 400 ms, where the pre-crash chains were due.
        let want: Vec<_> = [0, 100, 200, 260, 360, 460]
            .into_iter()
            .zip([None, Some(0), Some(1), None, Some(0), Some(1)])
            .flat_map(|(t, token)| [0, 1].map(|idx| (SimTime::from_millis(t), idx, token)))
            .collect();
        assert_eq!(*log.borrow(), want);
        assert_eq!(w.stats(a).get("timer.stale_crash").packets, 2);
    }

    #[test]
    fn a_frame_queued_after_a_restart_gets_its_own_airtime() {
        use crate::radio::{BITRATE_BPS, MAC_OVERHEAD};
        use crate::trace::TraceKind;
        let mut w = ideal_world(13);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        w.add_node(NodeConfig::manet(50.0, 0.0));
        w.trace_mut().set_enabled(true);
        w.run_until(SimTime::from_millis(1));
        let aa = w.node(a).addr();
        // A short frame goes on the air; the node crashes and restarts
        // before its `TxDone`, then queues a long one.
        w.inject(a, dgram(aa, Addr::BROADCAST, 9000, &[1; 10]));
        w.run_until(SimTime::from_micros(1_050));
        w.set_node_up(a, false);
        w.run_until(SimTime::from_micros(1_060));
        w.set_node_up(a, true);
        let queued = w.now();
        let long = dgram(aa, Addr::BROADCAST, 9000, &[2; 1400]);
        let airtime =
            MAC_OVERHEAD + SimDuration::from_secs_f64(long.wire_len() as f64 * 8.0 / BITRATE_BPS);
        w.inject(a, long);
        w.run_until(SimTime::from_millis(10));
        let mut sent = w.trace().entries().filter(|e| e.kind == TraceKind::RadioTx);
        let at = sent.next().expect("the long frame went out").time;
        assert!(sent.next().is_none(), "the crash dropped the short frame");
        assert!(
            at >= queued + airtime,
            "sent at {at:?}, {airtime:?} airtime"
        );
    }

    type SignalLog = Log<(SimTime, usize, LocalEvent)>;

    /// Logs `(time, process index, event)` for each local event it
    /// receives of the kinds in `takes`; emits `emit` from `on_start`.
    struct Signal {
        idx: usize,
        takes: &'static [LocalKind],
        emit: Option<LocalEvent>,
        log: SignalLog,
    }

    impl Process for Signal {
        fn name(&self) -> &'static str {
            "signal"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.take_local(self.takes);
            if let Some(ev) = self.emit.take() {
                ctx.emit(ev);
            }
        }
        fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
            self.log
                .borrow_mut()
                .push((ctx.now(), self.idx, ev.clone()));
        }
    }

    /// Spawns one `Signal` per entry of `takes` on `node`; `emit` names
    /// the one that emits an event from its `on_start`, and the event.
    fn spawn_signals(
        w: &mut World,
        node: NodeId,
        takes: &[&'static [LocalKind]],
        emit: Option<(usize, &LocalEvent)>,
    ) -> SignalLog {
        let log = Rc::new(RefCell::new(Vec::new()));
        for (idx, &takes) in takes.iter().enumerate() {
            let emit = emit.filter(|&(at, _)| at == idx).map(|(_, ev)| ev.clone());
            let log = log.clone();
            w.spawn(
                node,
                Box::new(Signal {
                    idx,
                    takes,
                    emit,
                    log,
                }),
            );
        }
        log
    }

    const UP: &[LocalKind] = &[LocalKind::InternetUp];

    #[test]
    fn emit_reaches_every_other_taker_1us_later_in_index_order() {
        let mut w = ideal_world(12);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        w.run_for(SimDuration::from_millis(3));
        let up = LocalEvent::InternetUp {
            public: Addr::new(82, 1, 1, 9),
        };
        let log = spawn_signals(&mut w, a, &[UP, UP, UP, UP], Some((1, &up)));
        w.run_for(SimDuration::from_millis(1));
        let at = SimTime::from_micros(3_001);
        assert_eq!(
            *log.borrow(),
            [(at, 0, up.clone()), (at, 2, up.clone()), (at, 3, up)]
        );
    }

    #[test]
    fn a_restart_receives_nothing_its_last_incarnation_sent_itself() {
        let mut w = ideal_world(18);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let (echo, recv, events) = Echo::new(9000);
        w.spawn(a, Box::new(echo));
        let up = LocalEvent::InternetUp {
            public: Addr::new(82, 1, 1, 9),
        };
        let log = spawn_signals(&mut w, a, &[UP, &[]], Some((1, &up)));
        // The starts run, and the second signal process emits its signal,
        // once (due in 1 µs); the node sends itself a datagram over
        // loopback (50 µs) and one that needs a route (`RouteNeeded` in
        // 1 µs). Then it crashes and restarts before any of them is due.
        w.run_until(SimTime::ZERO);
        let aa = w.node(a).addr();
        w.inject(a, dgram(Addr::LOOPBACK, Addr::LOOPBACK, 9000, b"old"));
        w.inject(a, dgram(aa, Addr::manet(77), 9000, b"unrouted"));
        w.set_node_up(a, false);
        w.set_node_up(a, true);
        w.run_until(SimTime::from_millis(1));
        assert!(
            recv.borrow().is_empty(),
            "the loopback datagram was dropped"
        );
        assert!(events.borrow().is_empty(), "so was the RouteNeeded");
        assert!(log.borrow().is_empty(), "and the emitted signal");
    }

    #[test]
    fn a_process_that_does_not_take_a_kind_is_never_called_with_it() {
        let mut w = ideal_world(12);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let up = LocalEvent::InternetUp {
            public: Addr::new(82, 1, 1, 9),
        };
        let down: &'static [LocalKind] = &[LocalKind::InternetDown];
        let log = spawn_signals(&mut w, a, &[down, UP, &[], UP, down], Some((3, &up)));
        w.run_for(SimDuration::from_millis(1));
        let at = SimTime::from_micros(1);
        assert_eq!(*log.borrow(), [(at, 1, up)]);
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        fn run(seed: u64) -> Vec<(u64, u32)> {
            let mut w = World::new(WorldConfig::new(seed));
            let a = w.add_node(NodeConfig::manet(0.0, 0.0));
            let b = w.add_node(NodeConfig::manet(70.0, 0.0));
            w.trace_mut().set_enabled(true);
            let (eb, _, _) = Echo::new(9000);
            w.spawn(b, Box::new(eb));
            w.run_for(SimDuration::from_millis(1));
            let aa = w.node(a).addr();
            for i in 0..20 {
                w.inject(a, dgram(aa, Addr::BROADCAST, 9000, &[i as u8; 100]));
            }
            w.run_for(SimDuration::from_secs(1));
            w.trace()
                .entries()
                .map(|e| (e.time.as_micros(), e.node.0))
                .collect()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn default_handler_captures_public_traffic() {
        struct Capture {
            got: Rc<RefCell<Vec<Datagram>>>,
        }
        impl Process for Capture {
            fn name(&self) -> &'static str {
                "capture"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_default_handler(true);
            }
            fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
                self.got.borrow_mut().push(d.clone());
            }
        }
        let mut w = ideal_world(12);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let got = Rc::new(RefCell::new(Vec::new()));
        w.spawn(a, Box::new(Capture { got: got.clone() }));
        w.run_for(SimDuration::from_millis(1));
        let aa = w.node(a).addr();
        w.inject(a, dgram(aa, Addr::new(82, 9, 9, 9), 5060, b"tunnel me"));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].dst.addr, Addr::new(82, 9, 9, 9));
    }

    #[test]
    fn claimed_public_addr_routes_from_backbone_to_claimant() {
        struct Claim {
            addr: Addr,
            got: Rc<RefCell<Vec<Datagram>>>,
        }
        impl Process for Claim {
            fn name(&self) -> &'static str {
                "claim"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.claim_public_addr(self.addr);
            }
            fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
                self.got.borrow_mut().push(d.clone());
            }
        }
        let mut w = ideal_world(13);
        let gw = w.add_node(NodeConfig::gateway(0.0, 0.0));
        let srv = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 1)));
        let leased = Addr::new(82, 130, 0, 5);
        let got = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            gw,
            Box::new(Claim {
                addr: leased,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_millis(1));
        w.inject(
            srv,
            dgram(Addr::new(82, 1, 1, 1), leased, 5060, b"inbound call"),
        );
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(got.borrow().len(), 1);
    }

    #[test]
    fn ttl_expires_in_forwarding_loops() {
        let mut w = ideal_world(14);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        w.run_for(SimDuration::from_millis(1));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        let target = Addr::manet(99);
        // Deliberate two-node routing loop for `target`.
        w.install_route(a, target, via(ba, 1));
        w.install_route(b, target, via(aa, 1));
        w.inject(a, dgram(aa, target, 9000, b"looping"));
        w.run_for(SimDuration::from_secs(2));
        let drops = w.stats(a).get("drop.ttl").packets + w.stats(b).get("drop.ttl").packets;
        assert_eq!(drops, 1, "loop must terminate via TTL");
    }

    #[test]
    fn run_until_a_past_time_does_not_rewind_the_clock() {
        let mut w = ideal_world(15);
        w.run_until(SimTime::from_secs(2));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.now(), SimTime::from_secs(2));
    }

    #[test]
    fn a_past_event_fires_now_and_a_future_one_waits_for_its_time() {
        let mut w = ideal_world(16);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        w.run_until(SimTime::from_secs(2));
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(1), a)
            .restart_at(SimTime::from_secs(3), a);
        w.install_fault_plan(plan);
        w.run_until(SimTime::from_secs(2));
        assert!(!w.is_up(a), "the crash due at 1 s fired at 2 s");
        let events = w.events_processed();
        w.run_until(SimTime::from_micros(2_999_999));
        assert_eq!(w.events_processed(), events);
        w.run_until(SimTime::from_secs(3));
        assert!(w.is_up(a));
    }

    /// The ledger's event rows partition the event count by kind, and the
    /// kinds that ran often enough to be metered show host time.
    #[test]
    fn the_ledgers_rows_sum_to_the_event_count() {
        let mut w = ideal_world(19);
        let ids: Vec<NodeId> = (0..3)
            .map(|i| w.add_node(NodeConfig::manet(i as f64 * 40.0, 0.0)))
            .collect();
        for &id in &ids {
            w.spawn(id, Box::new(Echo::new(9000).0));
        }
        w.run_for(SimDuration::from_millis(1));
        let src = w.node(ids[0]).addr();
        for i in 0..200u8 {
            w.inject(ids[0], dgram(src, Addr::BROADCAST, 9000, &[i; 32]));
        }
        w.run_for(SimDuration::from_secs(1));
        let reg = w.obs_registry();
        let row = |name, kind| reg.counter(name, &[("kind", kind)]);
        let events: u64 = EVENT_KINDS.iter().map(|k| row("sim.events", k)).sum();
        if !crate::obs_enabled() {
            assert_eq!(events + reg.sum_prefix("sim.host_ns"), 0);
            return;
        }
        assert_eq!(events, w.events_processed());
        assert_eq!(row("sim.events", "DeliverRadioBatch"), 2 * 200);
        assert_eq!(row("sim.events", "TxDone"), 200);
        assert!(row("sim.host_ns", "DeliverRadioBatch") > 0);
    }

    /// The wheels' fixed footprint is what the smallest workload
    /// (`roam_internet`, 8.2 MB) would see of the queue.
    #[test]
    fn an_empty_worlds_queue_owns_under_64_kb() {
        let bytes = ideal_world(17).queue.heap_bytes();
        assert!(bytes <= 64 * 1024, "{bytes} B");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{LinkSelector, PacketFaultKind};
    use crate::net::SocketAddr;
    use crate::process::Ctx;
    use crate::world::tests::via;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Sink {
        port: u16,
        received: Rc<RefCell<Vec<Datagram>>>,
    }

    impl Sink {
        fn new(port: u16) -> (Sink, Rc<RefCell<Vec<Datagram>>>) {
            let received = Rc::new(RefCell::new(Vec::new()));
            (
                Sink {
                    port,
                    received: received.clone(),
                },
                received,
            )
        }
    }

    impl Process for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(self.port);
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: &Datagram) {
            self.received.borrow_mut().push(dgram.clone());
        }
    }

    fn dgram(src: Addr, dst: Addr, port: u16, payload: &[u8]) -> Datagram {
        Datagram::new(
            SocketAddr::new(src, port),
            SocketAddr::new(dst, port),
            payload.to_vec(),
        )
    }

    fn two_node_world(seed: u64) -> (World, NodeId, NodeId, Rc<RefCell<Vec<Datagram>>>) {
        let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        let (sink, recv) = Sink::new(9000);
        w.spawn(b, Box::new(sink));
        w.run_for(SimDuration::from_millis(1));
        let ba = w.node(b).addr();
        w.install_route(a, ba, via(ba, 1));
        (w, a, b, recv)
    }

    #[test]
    fn scheduled_crash_and_restart_fire_and_are_counted() {
        let (mut w, a, b, recv) = two_node_world(21);
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(1), b)
            .restart_at(SimTime::from_secs(2), b);
        w.install_fault_plan(plan);
        w.run_until(SimTime::from_millis(1500));
        assert!(!w.is_up(b), "crashed at t=1s");
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.inject(a, dgram(aa, ba, 9000, b"into the void"));
        w.run_until(SimTime::from_secs(3));
        assert!(w.is_up(b), "restarted at t=2s");
        assert_eq!(recv.borrow().len(), 0, "nothing delivered while down");
        assert_eq!(w.stats(b).get("fault.crash").packets, 1);
        assert_eq!(w.stats(b).get("fault.restart").packets, 1);
    }

    #[test]
    fn link_cut_fails_unicast_until_link_up() {
        let (mut w, a, b, recv) = two_node_world(22);
        w.apply_fault(FaultAction::LinkDown(a, b));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.inject(a, dgram(aa, ba, 9000, b"blocked"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 0);
        assert_eq!(w.stats(a).get("drop.l2_fail").packets, 1);
        w.apply_fault(FaultAction::LinkUp(a, b));
        w.inject(a, dgram(aa, ba, 9000, b"through"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 1);
        assert_eq!(w.stats(a).get("fault.link_down").packets, 1);
        assert_eq!(w.stats(a).get("fault.link_up").packets, 1);
    }

    #[test]
    fn partition_blocks_broadcast_across_boundary_and_heal_restores() {
        let (mut w, a, b, recv) = two_node_world(23);
        w.apply_fault(FaultAction::Partition(vec![a]));
        assert!(w.link_faulted(a, b));
        assert!(!w.link_faulted(a, a));
        let aa = w.node(a).addr();
        w.inject(a, dgram(aa, Addr::BROADCAST, 9000, b"anyone?"));
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(recv.borrow().len(), 0, "partition blocks the boundary");
        w.apply_fault(FaultAction::Heal);
        assert!(!w.link_faulted(a, b));
        w.inject(a, dgram(aa, Addr::BROADCAST, 9000, b"healed"));
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(recv.borrow().len(), 1);
        assert_eq!(w.stats(a).get("fault.partition").packets, 1);
        assert_eq!(w.stats(a).get("fault.heal").packets, 1);
    }

    #[test]
    fn blackhole_drops_after_successful_tx_without_retries() {
        let (mut w, a, b, recv) = two_node_world(24);
        w.install_fault_plan(FaultPlan::new().packet_fault(
            LinkSelector::Pair(a, b),
            PacketFaultKind::Blackhole,
            1.0,
            SimTime::ZERO,
            SimTime::MAX,
        ));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.inject(a, dgram(aa, ba, 9000, b"swallowed"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 0);
        assert_eq!(w.stats(a).get("fault.blackhole").packets, 1);
        assert_eq!(
            w.stats(a).get("radio.tx").packets,
            1,
            "link layer saw success"
        );
        assert_eq!(
            w.stats(a).get("radio.retx").packets,
            0,
            "no retries for blackholed frames"
        );
    }

    #[test]
    fn duplicate_fault_delivers_frame_twice() {
        let (mut w, a, _b, recv) = two_node_world(25);
        w.install_fault_plan(FaultPlan::new().packet_fault(
            LinkSelector::From(a),
            PacketFaultKind::Duplicate,
            1.0,
            SimTime::ZERO,
            SimTime::MAX,
        ));
        let (aa, ba) = (w.node(a).addr(), w.node(NodeId(1)).addr());
        w.inject(a, dgram(aa, ba, 9000, b"twice"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 2);
        assert_eq!(recv.borrow()[0].payload, recv.borrow()[1].payload);
        assert_eq!(w.stats(a).get("fault.duplicate").packets, 1);
    }

    #[test]
    fn corrupt_fault_mangles_payload_in_flight() {
        let (mut w, a, _b, recv) = two_node_world(26);
        w.install_fault_plan(FaultPlan::new().packet_fault(
            LinkSelector::All,
            PacketFaultKind::Corrupt,
            1.0,
            SimTime::ZERO,
            SimTime::MAX,
        ));
        let (aa, ba) = (w.node(a).addr(), w.node(NodeId(1)).addr());
        w.inject(a, dgram(aa, ba, 9000, b"pristine bytes here"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 1, "corrupt frames still arrive");
        assert_ne!(recv.borrow()[0].payload, b"pristine bytes here".to_vec());
        assert_eq!(w.stats(a).get("fault.corrupt").packets, 1);
    }

    #[test]
    fn reorder_fault_lets_later_frames_overtake() {
        let (mut w, a, _b, recv) = two_node_world(27);
        // Huge extra delay on the first window only: the early frame gets
        // delayed past the later (unfaulted) one.
        w.install_fault_plan(FaultPlan::new().packet_fault(
            LinkSelector::All,
            PacketFaultKind::Reorder {
                max_extra: SimDuration::from_millis(500),
            },
            1.0,
            SimTime::ZERO,
            SimTime::from_millis(200),
        ));
        let (aa, ba) = (w.node(a).addr(), w.node(NodeId(1)).addr());
        w.inject(a, dgram(aa, ba, 9000, b"first"));
        w.run_until(SimTime::from_millis(300));
        w.inject(a, dgram(aa, ba, 9000, b"second"));
        w.run_for(SimDuration::from_secs(1));
        let got: Vec<Vec<u8>> = recv.borrow().iter().map(|d| d.payload.to_vec()).collect();
        assert_eq!(got.len(), 2);
        assert!(w.stats(a).get("fault.reorder").packets >= 1);
    }

    #[test]
    fn packet_fault_window_expires() {
        let (mut w, a, _b, recv) = two_node_world(28);
        w.install_fault_plan(FaultPlan::new().packet_fault(
            LinkSelector::All,
            PacketFaultKind::Blackhole,
            1.0,
            SimTime::ZERO,
            SimTime::from_millis(100),
        ));
        let (aa, ba) = (w.node(a).addr(), w.node(NodeId(1)).addr());
        w.inject(a, dgram(aa, ba, 9000, b"eaten"));
        w.run_until(SimTime::from_millis(200));
        w.inject(a, dgram(aa, ba, 9000, b"survives"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 1);
        assert_eq!(recv.borrow()[0].payload, b"survives".to_vec());
    }

    #[test]
    fn chaos_runs_are_deterministic_per_seed() {
        fn run(seed: u64) -> Vec<(u64, u32)> {
            let mut w = World::new(WorldConfig::new(seed));
            let a = w.add_node(NodeConfig::manet(0.0, 0.0));
            let b = w.add_node(NodeConfig::manet(60.0, 0.0));
            let c = w.add_node(NodeConfig::manet(120.0, 0.0));
            w.trace_mut().set_enabled(true);
            let (sink, _) = Sink::new(9000);
            w.spawn(c, Box::new(sink));
            let mut churn_rng = SimRng::from_seed_and_stream(seed, 77);
            let plan = FaultPlan::new()
                .with_poisson_churn(
                    &[b],
                    2.0,
                    1.0,
                    SimTime::ZERO,
                    SimTime::from_secs(8),
                    &mut churn_rng,
                )
                .partition_at(SimTime::from_secs(3), vec![a])
                .heal_at(SimTime::from_secs(5))
                .packet_fault(
                    LinkSelector::All,
                    PacketFaultKind::Duplicate,
                    0.3,
                    SimTime::ZERO,
                    SimTime::MAX,
                )
                .packet_fault(
                    LinkSelector::All,
                    PacketFaultKind::Corrupt,
                    0.2,
                    SimTime::ZERO,
                    SimTime::MAX,
                );
            w.install_fault_plan(plan);
            w.run_for(SimDuration::from_millis(1));
            let aa = w.node(a).addr();
            for i in 0..30 {
                w.inject(a, dgram(aa, Addr::BROADCAST, 9000, &[i as u8; 64]));
            }
            w.run_for(SimDuration::from_secs(10));
            w.trace()
                .entries()
                .map(|e| (e.time.as_micros(), e.node.0))
                .collect()
        }
        assert_eq!(run(91), run(91));
        assert_ne!(run(91), run(92));
    }
}

#[cfg(test)]
mod carrier_sense_tests {
    use super::*;
    use crate::net::SocketAddr;
    use crate::radio::RadioConfig;

    /// Two saturating senders in range of each other: with carrier sense
    /// their transmissions serialize (deferrals counted); without, both
    /// blast concurrently.
    #[test]
    fn carrier_sense_defers_concurrent_senders() {
        fn run(carrier_sense: bool) -> (u64, u64) {
            let radio = RadioConfig {
                carrier_sense,
                ..RadioConfig::ideal()
            };
            let mut w = World::new(WorldConfig::new(71).with_radio(radio));
            let a = w.add_node(NodeConfig::manet(0.0, 0.0));
            let b = w.add_node(NodeConfig::manet(50.0, 0.0));
            // Saturate both queues with broadcasts.
            for i in 0..200 {
                for n in [a, b] {
                    let src = SocketAddr::new(w.node(n).addr(), 9000);
                    let dst = SocketAddr::new(Addr::BROADCAST, 9000);
                    w.inject(n, Datagram::new(src, dst, vec![i as u8; 1000]));
                }
            }
            w.run_for(SimDuration::from_secs(5));
            let defers =
                w.stats(a).get("radio.cs_defer").packets + w.stats(b).get("radio.cs_defer").packets;
            let sent = w.stats(a).get("radio.tx").packets + w.stats(b).get("radio.tx").packets;
            (defers, sent)
        }
        let (defers_on, sent_on) = run(true);
        let (defers_off, sent_off) = run(false);
        assert!(defers_on > 50, "carrier sense must defer: {defers_on}");
        assert_eq!(defers_off, 0);
        assert_eq!(sent_on, 400, "all frames eventually sent");
        assert_eq!(sent_off, 400);
    }

    /// Out-of-range senders never defer for each other.
    #[test]
    fn carrier_sense_ignores_far_transmitters() {
        let radio = RadioConfig {
            carrier_sense: true,
            ..RadioConfig::ideal()
        };
        let mut w = World::new(WorldConfig::new(72).with_radio(radio));
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(500.0, 0.0));
        for n in [a, b] {
            for i in 0..50 {
                let src = SocketAddr::new(w.node(n).addr(), 9000);
                let dst = SocketAddr::new(Addr::BROADCAST, 9000);
                w.inject(n, Datagram::new(src, dst, vec![i as u8; 1000]));
            }
        }
        w.run_for(SimDuration::from_secs(5));
        let defers =
            w.stats(a).get("radio.cs_defer").packets + w.stats(b).get("radio.cs_defer").packets;
        assert_eq!(defers, 0);
    }
}
