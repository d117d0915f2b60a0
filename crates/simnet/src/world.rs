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

use crate::exec::{EngineScratch, Event};
use crate::fasthash::FastMap;
use crate::fault::{FaultAction, FaultPlan, PacketFault};
use crate::grid::NeighborGrid;
use crate::net::{Addr, Datagram};
use crate::node::{HotNode, Node, NodeConfig, NodeId};
use crate::process::{LocalEvent, Process};
use crate::queue::EventQueue;
use crate::radio::RadioConfig;
use crate::rng::SimRng;
use crate::stats::NodeStats;
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
    /// Spatial index over node positions serving radio range queries;
    /// lazily rebuilt (see [`crate::grid`]).
    pub(crate) grid: NeighborGrid,
    /// Ids of every radio node in creation order: the candidate list of
    /// the full-scan reference. Interface flags are fixed at creation,
    /// so [`World::add_node`] maintains this incrementally.
    pub(crate) radio_ids: Vec<NodeId>,
    /// Set only by [`World::with_full_scan_reference`].
    pub(crate) full_scan: bool,
    /// Reused dispatch hot-path buffers.
    pub(crate) scratch: EngineScratch,
    /// Dense mirror of per-node liveness + position state (see
    /// [`HotNode`]); kept in lockstep with `nodes` by every mutation
    /// path. Radio fan-out filters read it instead of the full `Node`
    /// structs.
    pub(crate) hot: Vec<HotNode>,
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
            radio_ids: Vec::new(),
            full_scan: false,
            scratch: EngineScratch::default(),
            hot: Vec::new(),
            tracing_default: false,
        }
    }

    /// Test support: a world whose radio range queries scan every radio
    /// node instead of the spatial grid — the reference implementation
    /// the equivalence tests compare the grid against. Trace-identical
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
        let alias = cfg.public_alias;
        let mut node = Node::new(id, addr, cfg, rng);
        node.obs.set_tracing(self.tracing_default);
        if let Some(alias) = alias {
            assert!(alias.is_public(), "public alias {alias} must be public");
            assert!(
                !self.addr_map.contains_key(&alias),
                "address {alias} already assigned"
            );
            node.local_addrs.push(alias);
            self.addr_map.insert(alias, id);
        }
        if let Some(t) = node.mobility.next_replan() {
            self.schedule_at(t, Event::Replan { node: id });
        }
        if node.has_radio {
            self.radio_ids.push(id);
        }
        self.addr_map.insert(addr, id);
        self.hot.push(HotNode::of(&node));
        self.nodes.push(node);
        self.grid.invalidate();
        id
    }

    /// Re-mirrors a node's hot fields after a mutation of its liveness
    /// or mobility.
    fn refresh_hot(&mut self, id: NodeId) {
        self.hot[id.0 as usize] = HotNode::of(&self.nodes[id.0 as usize]);
    }

    /// Starts a process on `node`; `on_start` runs at the current time.
    /// Returns the process index on that node.
    pub fn spawn(&mut self, node: NodeId, proc: Box<dyn Process>) -> usize {
        let n = self.node_mut(node);
        let idx = n.procs.len();
        n.proc_names.push(proc.name());
        n.procs.push(Some(proc));
        self.schedule(SimDuration::ZERO, Event::Start { node, proc: idx });
        idx
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
    /// `sim.obs_bytes`: what every node's `NodeStats` and `NodeObs` occupy
    /// — their inline `size_of` plus the heap behind their counters,
    /// gauges, histograms and span log, by capacity (`NodeStats` only in
    /// an obs-less build) — so the cost of the instrumentation is in its
    /// own output; and the event queue's own account: `sim.queue_len`
    /// (events queued now), `sim.queue_slots` (the most ever queued at
    /// once) and `sim.queue_bytes` (slab, near heap, wheels and spill, by
    /// capacity).
    pub fn obs_registry(&self) -> siphoc_obs::Registry {
        let mut reg = siphoc_obs::Registry::new();
        let inline = std::mem::size_of::<NodeStats>() + std::mem::size_of::<siphoc_obs::NodeObs>();
        let mut obs_bytes = self.nodes.len() * inline;
        for n in &self.nodes {
            obs_bytes += n.stats.heap_bytes() + n.obs.heap_bytes();
            let label = n.id.to_string();
            n.obs.merge_metrics_into(&mut reg, &label);
            for (name, c) in n.stats.iter() {
                reg.counter_add(name, &[("node", &label)], c.packets);
                reg.counter_add(&format!("{name}_bytes"), &[("node", &label)], c.bytes);
            }
        }
        reg.gauge_set("sim.now_us", &[], self.now.as_micros() as f64);
        reg.gauge_set("sim.events", &[], self.events as f64);
        reg.gauge_set("sim.nodes", &[], self.nodes.len() as f64);
        reg.gauge_set("sim.obs_bytes", &[], obs_bytes as f64);
        reg.gauge_set("sim.queue_len", &[], self.queue.len() as f64);
        reg.gauge_set("sim.queue_slots", &[], self.queue.slots() as f64);
        reg.gauge_set("sim.queue_bytes", &[], self.queue.heap_bytes() as f64);
        reg
    }

    /// Every span recorded so far, tagged with the owning node's id.
    /// Spans still open at the current sim time are included, marked
    /// `unfinished`. Empty unless tracing was enabled on an obs build.
    pub fn obs_spans(&self) -> Vec<siphoc_obs::TaggedSpan> {
        let now_us = self.now.as_micros();
        let mut out = Vec::new();
        for n in &self.nodes {
            let label = n.id.to_string();
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

    /// Renders all recorded spans as Chrome `trace_event` JSON (an array of
    /// events loadable in `about:tracing` or Perfetto). Correlated spans
    /// (same call-id) are grouped into one "process" row per call.
    pub fn obs_chrome_trace(&self) -> String {
        siphoc_obs::chrome_trace_json(&self.obs_spans())
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

    /// Aggregated counters across every node.
    pub fn total_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for n in &self.nodes {
            total.merge(&n.stats);
        }
        total
    }

    /// Powers a node down (dropping its queued frames) or back up. On
    /// power-up every process receives [`LocalEvent::NodeRestarted`] so it
    /// can re-arm its timers.
    pub fn set_node_up(&mut self, id: NodeId, up: bool) {
        let n = self.node_mut(id);
        if n.up == up {
            return;
        }
        n.up = up;
        if !up {
            n.tx_queue.clear();
            n.tx_busy = false;
            n.pending.clear();
            n.routes.clear();
        } else {
            self.schedule(
                SimDuration::ZERO,
                Event::Local {
                    node: id,
                    exclude: None,
                    ev: LocalEvent::NodeRestarted,
                },
            );
        }
        self.hot[id.0 as usize].up = up;
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
                if self.node(n).up {
                    self.node_mut(n).stats.count("fault.crash", 0);
                    self.set_node_up(n, false);
                }
            }
            FaultAction::NodeRestart(n) => {
                if !self.node(n).up {
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
                self.schedule(
                    SimDuration::ZERO,
                    Event::Local {
                        node: n,
                        exclude: None,
                        ev: LocalEvent::Custom {
                            kind: crate::fault::COMPROMISE_EVENT,
                            data: vec![kind.to_byte()],
                        },
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

    /// Teleports a (static) node to a new position.
    pub fn move_node(&mut self, id: NodeId, x: f64, y: f64) {
        self.node_mut(id).mobility = crate::mobility::Mobility::fixed(x, y);
        self.refresh_hot(id);
        self.grid.invalidate_node(&self.nodes, id, self.now);
    }

    /// Replaces a node's mobility model, scheduling its replan events.
    pub fn set_mobility(&mut self, id: NodeId, mobility: crate::mobility::Mobility) {
        let next = mobility.next_replan();
        self.node_mut(id).mobility = mobility;
        self.refresh_hot(id);
        self.grid.invalidate_node(&self.nodes, id, self.now);
        if let Some(t) = next {
            self.schedule_at(t, Event::Replan { node: id });
        }
    }

    /// Runs the event loop until (and including) time `t`. The clock
    /// never moves backwards: a `t` in the past dispatches nothing and
    /// leaves `now()` where it was.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((time, event)) = self.queue.pop_at_or_before(t) {
            debug_assert!(time >= self.now, "event queue went backwards");
            self.now = time;
            self.dispatch(event);
        }
        self.now = self.now.max(t);
    }

    /// Runs the event loop for `d` simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Injects a datagram as if a process on `node` had sent it.
    /// Useful for tests and workload drivers.
    pub fn inject(&mut self, node: NodeId, dgram: Datagram) {
        self.route_and_send(node, dgram, false);
    }

    /// Installs a static route on a node. Intended for tests and
    /// experiment setup that want fixed topologies without running a
    /// routing protocol.
    pub fn install_route(&mut self, node: NodeId, dst: Addr, route: crate::route::Route) {
        self.node_mut(node).routes.insert(dst, route);
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

    /// Re-plans a mobile node's trajectory at one of its waypoints.
    pub(crate) fn replan(&mut self, node: NodeId) {
        let now = self.now;
        let n = self.node_mut(node);
        n.mobility.replan(now, &mut n.rng);
        if let Some(t) = n.mobility.next_replan() {
            self.schedule_at(t, Event::Replan { node });
        }
        // The node's trajectory changed: re-mirror its hot state and
        // re-bin just this node in the spatial index — replans are
        // per-node events, and a full rebuild here made one roaming node
        // cost O(n) per waypoint in an otherwise static city.
        self.refresh_hot(node);
        self.grid.invalidate_node(&self.nodes, node, now);
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
    use crate::process::{Ctx, LocalEvent};
    use crate::route::Route;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Test process that records everything it receives and can send one
    /// datagram at start.
    struct Echo {
        port: u16,
        received: Rc<RefCell<Vec<Datagram>>>,
        events: Rc<RefCell<Vec<LocalEvent>>>,
        send_at_start: Option<Datagram>,
    }

    impl Echo {
        #[allow(clippy::type_complexity)]
        fn new(
            port: u16,
        ) -> (
            Echo,
            Rc<RefCell<Vec<Datagram>>>,
            Rc<RefCell<Vec<LocalEvent>>>,
        ) {
            let received = Rc::new(RefCell::new(Vec::new()));
            let events = Rc::new(RefCell::new(Vec::new()));
            (
                Echo {
                    port,
                    received: received.clone(),
                    events: events.clone(),
                    send_at_start: None,
                },
                received,
                events,
            )
        }
    }

    impl Process for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(self.port);
            if let Some(d) = self.send_at_start.take() {
                ctx.send(d);
            }
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
        let n = w.node_mut(a);
        n.routes.insert(
            baddr,
            Route {
                next_hop: baddr,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
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
        w.node_mut(a).routes.insert(
            ba,
            Route {
                next_hop: ra,
                hops: 2,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
        w.node_mut(r).routes.insert(
            ba,
            Route {
                next_hop: ba,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
        w.inject(a, dgram(aa, ba, 9000, b"via relay"));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(recv.borrow().len(), 1);
        // The relay counted forwarded traffic.
        assert_eq!(w.node(r).stats().get("fwd").packets, 1);
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
        w.node_mut(a).routes.insert(
            ba,
            Route {
                next_hop: ba,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
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
        let dropped = w.node(a).stats().get("drop.pending_timeout");
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
        w.node_mut(a).routes.insert(
            ba,
            Route {
                next_hop: ba,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
        // Move b out of range, then send.
        w.move_node(b, 10_000.0, 0.0);
        w.inject(a, dgram(aa, ba, 9000, b"lost"));
        w.run_for(SimDuration::from_millis(100));
        assert!(events
            .borrow()
            .iter()
            .any(|e| matches!(e, LocalEvent::LinkTxFailed { neighbor } if *neighbor == ba)));
        assert_eq!(w.node(a).stats().get("drop.l2_fail").packets, 1);
        assert!(w.node(a).stats().get("radio.retx").packets >= 4);
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
        assert_eq!(w.node(p1).stats().get("wired.tx").packets, 1);
    }

    #[test]
    fn manet_node_without_uplink_drops_public_traffic() {
        let mut w = ideal_world(9);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        w.run_for(SimDuration::from_millis(1));
        let aa = w.node(a).addr();
        w.inject(a, dgram(aa, Addr::new(82, 1, 1, 1), 5060, b"INVITE"));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.node(a).stats().get("drop.no_uplink").packets, 1);
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
    fn node_down_drops_everything_and_restart_signals() {
        let mut w = ideal_world(11);
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        let (eb, rb, events_b) = Echo::new(9000);
        w.spawn(b, Box::new(eb));
        w.run_for(SimDuration::from_millis(1));
        w.set_node_up(b, false);
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.node_mut(a).routes.insert(
            ba,
            Route {
                next_hop: ba,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
        w.inject(a, dgram(aa, ba, 9000, b"to the void"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(rb.borrow().len(), 0);
        w.set_node_up(b, true);
        w.run_for(SimDuration::from_millis(10));
        assert!(events_b
            .borrow()
            .iter()
            .any(|e| matches!(e, LocalEvent::NodeRestarted)));
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
        w.node_mut(a).routes.insert(
            target,
            Route {
                next_hop: ba,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
        w.node_mut(b).routes.insert(
            target,
            Route {
                next_hop: aa,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
        w.inject(a, dgram(aa, target, 9000, b"looping"));
        w.run_for(SimDuration::from_secs(2));
        let drops =
            w.node(a).stats().get("drop.ttl").packets + w.node(b).stats().get("drop.ttl").packets;
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
        assert!(!w.node(a).is_up(), "the crash due at 1 s fired at 2 s");
        let events = w.events_processed();
        w.run_until(SimTime::from_micros(2_999_999));
        assert_eq!(w.events_processed(), events);
        w.run_until(SimTime::from_secs(3));
        assert!(w.node(a).is_up());
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
    use crate::route::Route;
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
        w.node_mut(a).routes.insert(
            ba,
            Route {
                next_hop: ba,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
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
        assert!(!w.node(b).is_up(), "crashed at t=1s");
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.inject(a, dgram(aa, ba, 9000, b"into the void"));
        w.run_until(SimTime::from_secs(3));
        assert!(w.node(b).is_up(), "restarted at t=2s");
        assert_eq!(recv.borrow().len(), 0, "nothing delivered while down");
        assert_eq!(w.node(b).stats().get("fault.crash").packets, 1);
        assert_eq!(w.node(b).stats().get("fault.restart").packets, 1);
    }

    #[test]
    fn link_cut_fails_unicast_until_link_up() {
        let (mut w, a, b, recv) = two_node_world(22);
        w.apply_fault(FaultAction::LinkDown(a, b));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.inject(a, dgram(aa, ba, 9000, b"blocked"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 0);
        assert_eq!(w.node(a).stats().get("drop.l2_fail").packets, 1);
        w.apply_fault(FaultAction::LinkUp(a, b));
        w.inject(a, dgram(aa, ba, 9000, b"through"));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(recv.borrow().len(), 1);
        assert_eq!(w.node(a).stats().get("fault.link_down").packets, 1);
        assert_eq!(w.node(a).stats().get("fault.link_up").packets, 1);
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
        assert_eq!(w.node(a).stats().get("fault.partition").packets, 1);
        assert_eq!(w.node(a).stats().get("fault.heal").packets, 1);
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
        assert_eq!(w.node(a).stats().get("fault.blackhole").packets, 1);
        assert_eq!(
            w.node(a).stats().get("radio.tx").packets,
            1,
            "link layer saw success"
        );
        assert_eq!(
            w.node(a).stats().get("radio.retx").packets,
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
        assert_eq!(w.node(a).stats().get("fault.duplicate").packets, 1);
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
        assert_eq!(w.node(a).stats().get("fault.corrupt").packets, 1);
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
        assert!(w.node(a).stats().get("fault.reorder").packets >= 1);
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
            let defers = w.node(a).stats().get("radio.cs_defer").packets
                + w.node(b).stats().get("radio.cs_defer").packets;
            let sent = w.node(a).stats().get("radio.tx").packets
                + w.node(b).stats().get("radio.tx").packets;
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
        let defers = w.node(a).stats().get("radio.cs_defer").packets
            + w.node(b).stats().get("radio.cs_defer").packets;
        assert_eq!(defers, 0);
    }
}
