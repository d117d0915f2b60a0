//! Nodes: the hosts of the simulated network.
//!
//! A node bundles a network stack (addresses, port bindings, forwarding
//! table, transmit queue) with the set of [`Process`]es running on it,
//! which the world keeps in one arena (`World::procs`). What every radio
//! node uses on every frame — its transmit queue, its RNG and the
//! counters a send writes — is inline in its [`Node`], in one
//! [`Transmit`]; what only a node that runs a protocol stack uses —
//! aliases, a second port or process, claimed addresses, the default
//! handler, routes and parked datagrams — is in one [`ProtoState`]
//! box, created on first use. A beacon node never creates it. Nodes
//! come in three kinds, mirroring the paper's deployment:
//!
//! * **MANET** nodes — radio only (the laptops/iPAQs),
//! * **wired** nodes — backbone only (Internet SIP providers, callers),
//! * **gateway-capable** nodes — both (the MANET node with Internet access).

use std::collections::VecDeque;

use crate::fasthash::FastMap;
use crate::mobility::{Area, Leg, Mobility, Position, WaypointParams};
use crate::net::{Addr, Datagram};
use crate::process::Process;
use crate::radio::Frame;
use crate::rng::SimRng;
use crate::route::RoutingTable;
use crate::stats::{Counter, NodeStats};
use crate::time::SimTime;

/// Identifier of a node within a world; indexes are dense and start at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Configuration for a node added to a world.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    pub(crate) addr: Option<Addr>,
    pub(crate) public_alias: Option<Addr>,
    pub(crate) radio: bool,
    pub(crate) wired: bool,
    pub(crate) mobility: Mobility,
}

impl NodeConfig {
    /// A radio-only MANET node at the given position.
    pub fn manet(x: f64, y: f64) -> NodeConfig {
        NodeConfig {
            addr: None,
            public_alias: None,
            radio: true,
            wired: false,
            mobility: Mobility::fixed(x, y),
        }
    }

    /// A wired-only Internet host with the given public address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a public address.
    pub fn wired(addr: Addr) -> NodeConfig {
        assert!(addr.is_public(), "wired nodes need a public address");
        NodeConfig {
            addr: Some(addr),
            public_alias: None,
            radio: false,
            wired: true,
            mobility: Mobility::fixed(0.0, 0.0),
        }
    }

    /// A MANET node that additionally has a wired Internet uplink (a
    /// gateway candidate in SIPHoc terms).
    pub fn gateway(x: f64, y: f64) -> NodeConfig {
        NodeConfig {
            addr: None,
            public_alias: None,
            radio: true,
            wired: true,
            mobility: Mobility::fixed(x, y),
        }
    }

    /// Gives the node a public alias address — the wired-side identity of
    /// a gateway. Backbone traffic for the alias is delivered to this
    /// node, and gateway-resident services use it as their public source.
    ///
    /// # Panics
    ///
    /// Panics (at `add_node` time) if `addr` is not public.
    pub fn with_public_alias(mut self, addr: Addr) -> NodeConfig {
        self.public_alias = Some(addr);
        self
    }

    /// Replaces the mobility model (radio nodes only).
    pub fn with_mobility(mut self, mobility: Mobility) -> NodeConfig {
        self.mobility = mobility;
        self
    }
}

/// A datagram parked while an on-demand route is being discovered.
#[derive(Debug)]
pub(crate) struct PendingPacket {
    pub dgram: Datagram,
    pub deadline: SimTime,
}

/// A node's transmit FIFO. The frame on the air is a field of the node;
/// the ring behind it is allocated only when a second frame queues up
/// (never, on a node that beacons; once, on a relay).
#[derive(Debug, Default)]
pub(crate) struct TxQueue {
    head: Option<Frame>,
    /// Empty whenever `head` is `None`.
    rest: VecDeque<Frame>,
}

impl TxQueue {
    pub(crate) fn front(&self) -> Option<&Frame> {
        self.head.as_ref()
    }

    pub(crate) fn front_mut(&mut self) -> Option<&mut Frame> {
        self.head.as_mut()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    pub(crate) fn push_back(&mut self, frame: Frame) {
        if self.head.is_none() {
            self.head = Some(frame);
        } else {
            self.rest.push_back(frame);
        }
    }

    pub(crate) fn pop_front(&mut self) -> Option<Frame> {
        let next = self.rest.pop_front();
        std::mem::replace(&mut self.head, next)
    }

    pub(crate) fn clear(&mut self) {
        self.head = None;
        self.rest.clear();
    }
}

/// Port → arena slot of the process bound to it, sorted by port, for a
/// node's second and later bindings (its first is in its [`RecvEntry`]):
/// a node binds a handful of ports once and looks one up on every
/// delivery.
#[derive(Debug, Default)]
pub(crate) struct PortMap(Vec<(u16, u32)>);

impl PortMap {
    /// Position of `port`, or where it would be inserted.
    fn find(&self, port: u16) -> Result<usize, usize> {
        self.0.binary_search_by_key(&port, |&(p, _)| p)
    }

    pub(crate) fn get(&self, port: u16) -> Option<u32> {
        self.find(port).ok().map(|at| self.0[at].1)
    }

    /// Binds `port` to process `slot` unless it is bound already; returns
    /// the binder that holds it afterwards.
    pub(crate) fn bind(&mut self, port: u16, slot: u32) -> u32 {
        match self.find(port) {
            Ok(at) => self.0[at].1,
            Err(at) => {
                self.0.insert(at, (port, slot));
                slot
            }
        }
    }
}

/// A process in the world's arena (`World::procs`), beside the
/// [`LocalKind`](crate::process::LocalKind) mask it subscribed with. The
/// process is taken out while it runs.
pub(crate) struct ProcSlot {
    pub proc: Option<Box<dyn Process>>,
    pub takes: u16,
}

/// "No process": the [`RecvEntry`] slots of a node that has none.
pub(crate) const NO_PROC: u32 = u32::MAX;

/// What a delivery needs of a node before its process runs, in the
/// dense column `World::recv`, one entry per node.
///
/// A broadcast reaches every node in range, and at city scale most of
/// them receive it on the port they bound first, with the process they
/// spawned first. Reading that through the full `Node` (several cache
/// lines) and the heap blocks behind its counters, port map and process
/// list costs each receiver several cache misses; an entry packs what
/// the receive path reads into 32 bytes, two to a cache line. The `radio.rx` counter lives here and nowhere
/// else; the address is a copy of `Node::addr`, fixed at creation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecvEntry {
    /// Frames received over the radio; `World::stats` and the
    /// registry report it as `radio.rx`.
    pub rx: Counter,
    /// As `Node::addr`.
    pub addr: Addr,
    /// Arena slot of the node's process 0; [`NO_PROC`] until one is
    /// spawned. Processes 1.. are in `ProtoState::procs`.
    pub proc0: u32,
    /// Arena slot of the process bound to `port`, the node's first
    /// binding; [`NO_PROC`] until it binds one. Later bindings are in
    /// `ProtoState::port_bindings`.
    pub port_proc: u32,
    pub port: u16,
}

impl RecvEntry {
    pub(crate) fn new(addr: Addr) -> RecvEntry {
        RecvEntry {
            rx: Counter::default(),
            addr,
            proc0: NO_PROC,
            port_proc: NO_PROC,
            port: 0,
        }
    }
}

/// The facts about a node that change after its creation — whether it
/// is up, which incarnation it is in, and the leg it is on — in the
/// dense arena `World::hot`, one entry per node and their only home.
///
/// Radio fan-out touches `up` and the position of every candidate
/// receiver; at city scale those reads dominate, and pulling them
/// through the full `Node` struct (several cache lines, pointer-rich)
/// thrashes the cache. An entry packs them into 64 bytes, beside the
/// interface flags fixed at creation, whether the node has datagrams
/// parked, and the speed bound the spatial index needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotNode {
    /// Whether the node is powered on.
    pub up: bool,
    /// As `Node::has_radio`; fixed at creation.
    pub has_radio: bool,
    /// Whether the node has a wired (Internet) interface, and this its
    /// only home; fixed at creation.
    pub has_wired: bool,
    /// Whether `ProtoState::pending` holds anything, between events: set when
    /// a datagram parks, cleared by a crash and by the flush that ends
    /// every event on the node (a sweep's too) once nothing is left. A
    /// delivery flushes only a node that has it set.
    pub parked: bool,
    /// Which life of the node this is; a crash ends one (see
    /// `exec::Event::Own`).
    pub inc: u32,
    /// Bound on the node's speed in m/s: 0 for a static node, the
    /// waypoint model's top speed otherwise. It sets the node's skin and
    /// the drift horizon of the neighbour lists in [`crate::grid`].
    pub max_speed: f64,
    /// The leg the node is on; a static node is parked on one.
    pub leg: Leg,
}

impl HotNode {
    /// An up node in its first incarnation, parked at the origin until
    /// [`HotNode::place`] moves it.
    pub(crate) fn new(cfg: &NodeConfig) -> HotNode {
        HotNode {
            up: true,
            has_radio: cfg.radio,
            has_wired: cfg.wired,
            parked: false,
            inc: 0,
            max_speed: 0.0,
            leg: Leg::parked((0.0, 0.0)),
        }
    }

    /// Position at `now`.
    #[inline]
    pub(crate) fn position(&self, now: SimTime) -> Position {
        self.leg.position(now)
    }

    /// Puts the node on `mobility`'s leg, with its speed bound; returns
    /// what the node's next replan draws from, if it has one.
    pub(crate) fn place(&mut self, mobility: Mobility) -> Option<(WaypointParams, Area)> {
        match mobility {
            Mobility::Static { pos } => {
                self.leg = Leg::parked(pos);
                self.max_speed = 0.0;
                None
            }
            Mobility::RandomWaypoint { params, area, leg } => {
                self.leg = leg;
                self.max_speed = params.max_speed.max(params.min_speed);
                Some((params, area))
            }
        }
    }
}

/// What a radio send touches of its node, inline in the [`Node`]: the
/// transmit queue, the end of the frame on the air, the RNG that draws
/// airtime and loss, and the four counters `simnet::exec` writes once
/// per frame. `World::stats` reports each counter under its name once
/// it has counted, as if it were in the node's [`NodeStats`].
#[derive(Debug)]
pub(crate) struct Transmit {
    /// The frame on the air or waiting for the carrier first; the radio
    /// is busy exactly while it is not empty.
    pub queue: TxQueue,
    pub until: SimTime,
    pub rng: SimRng,
    /// `radio.bcast_tx`: broadcasts handed to the radio.
    pub bcast_tx: Counter,
    /// `radio.tx`: frames that left the radio.
    pub tx: Counter,
    /// `radio.retx`: unicast retransmissions.
    pub retx: Counter,
    /// `fwd`: transit datagrams routed on.
    pub fwd: Counter,
}

/// What a node holds only once it runs more than a one-process,
/// one-port, route-less radio stack, behind one box in `Node::proto`:
/// created by the first alias, second process or binding, claimed
/// address, default handler, route (`Ctx::routes`,
/// `World::install_route`) or parked datagram, and kept for the rest of
/// the run.
#[derive(Debug, Default)]
pub(crate) struct ProtoState {
    /// Addresses the node answers to besides `Node::addr`, such as a
    /// leased tunnel address.
    pub aliases: Vec<Addr>,
    /// Arena slots (`World::procs`) of processes 1.., in spawn order;
    /// process 0's is in the node's [`RecvEntry`].
    pub procs: Vec<u32>,
    pub port_bindings: PortMap,
    /// Public addresses claimed by a process, with its arena slot.
    pub addr_handlers: FastMap<Addr, u32>,
    /// Arena slot of the process that handles the default route.
    pub default_handler: Option<u32>,
    pub routes: RoutingTable,
    pub pending: FastMap<Addr, Vec<PendingPacket>>,
}

impl ProtoState {
    /// Bytes of heap the box and what it holds occupy, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let parked: usize = self.pending.values().map(Vec::capacity).sum();
        size_of::<ProtoState>()
            + self.aliases.capacity() * size_of::<Addr>()
            + self.procs.capacity() * size_of::<u32>()
            + self.port_bindings.0.capacity() * size_of::<(u16, u32)>()
            + self.addr_handlers.capacity() * size_of::<(Addr, u32)>()
            + self.routes.heap_bytes()
            + self.pending.capacity() * size_of::<(Addr, Vec<PendingPacket>)>()
            + parked * size_of::<PendingPacket>()
    }
}

/// The table `Node::routes` and `Ctx::routes_ref` read on a node that
/// has no [`ProtoState`].
pub(crate) static NO_ROUTES: RoutingTable = RoutingTable::new();

/// A host in the simulated network. Public accessors expose read-only state
/// for tests and experiment harnesses; mutation happens through the world.
///
/// A node's id is its index in `World::nodes`; its liveness, leg and
/// `has_wired` are in its [`HotNode`], and its processes, names
/// included, in the world's arena.
pub struct Node {
    pub(crate) addr: Addr,
    pub(crate) has_radio: bool,
    /// Which mobility model the node is on: `World::set_mobility` bumps
    /// it, and a replan armed under an earlier one is dropped (see
    /// `exec::Event::Replan`).
    pub(crate) mobility_gen: u32,
    /// What a random-waypoint node draws its next leg from; `None` for
    /// a static node. Its current leg is in its arena entry ([`HotNode`]).
    pub(crate) waypoint: Option<Box<(WaypointParams, Area)>>,
    pub(crate) tx: Transmit,
    /// `None` until the node first needs it (see [`ProtoState`]).
    pub(crate) proto: Option<Box<ProtoState>>,
    /// Every counter but `radio.rx`, which is in the node's
    /// [`RecvEntry`], and the four in its [`Transmit`]; `World::stats`
    /// reports them all.
    pub(crate) stats: NodeStats,
    pub(crate) obs: siphoc_obs::NodeObs,
}

impl Node {
    pub(crate) fn new(addr: Addr, cfg: &NodeConfig, rng: SimRng) -> Node {
        Node {
            addr,
            has_radio: cfg.radio,
            mobility_gen: 0,
            waypoint: None,
            tx: Transmit {
                queue: TxQueue::default(),
                until: SimTime::ZERO,
                rng,
                bcast_tx: Counter::default(),
                tx: Counter::default(),
                retx: Counter::default(),
                fwd: Counter::default(),
            },
            proto: None,
            stats: NodeStats::default(),
            obs: Default::default(),
        }
    }

    /// The node's [`ProtoState`], boxed now if it has none yet.
    pub(crate) fn proto_mut(&mut self) -> &mut ProtoState {
        self.proto.get_or_insert_with(Box::default)
    }

    /// The node's primary address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Every address the node currently answers to: the primary, then
    /// its aliases (such as a leased tunnel address) in the order they
    /// were added.
    pub fn local_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        let aliases = self.proto.as_deref().map_or(&[][..], |p| &p.aliases);
        std::iter::once(self.addr).chain(aliases.iter().copied())
    }

    /// Whether `addr` is the loopback, the primary or an alias: every
    /// local address but a claimed one.
    pub(crate) fn answers_to(&self, addr: Addr) -> bool {
        addr.is_loopback()
            || addr == self.addr
            || self
                .proto
                .as_deref()
                .is_some_and(|p| p.aliases.contains(&addr))
    }

    /// Whether `addr` is delivered locally on this node.
    pub fn is_local_addr(&self, addr: Addr) -> bool {
        self.answers_to(addr)
            || self
                .proto
                .as_deref()
                .is_some_and(|p| p.addr_handlers.contains_key(&addr))
    }

    /// Whether the node has a radio interface.
    pub fn has_radio(&self) -> bool {
        self.has_radio
    }

    /// The node's forwarding table (an empty one until it has routes).
    pub fn routes(&self) -> &RoutingTable {
        self.proto.as_deref().map_or(&NO_ROUTES, |p| &p.routes)
    }

    /// The node's observability shard (metrics + spans). A no-op shell
    /// unless the `obs` feature is enabled.
    pub fn obs(&self) -> &siphoc_obs::NodeObs {
        &self.obs
    }

    /// Number of datagrams parked awaiting route discovery.
    pub fn pending_packets(&self) -> usize {
        self.proto
            .as_deref()
            .map_or(0, |p| p.pending.values().map(Vec::len).sum())
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("addr", &self.addr)
            .field("radio", &self.has_radio)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{L2Dst, SocketAddr};
    use crate::process::Ctx;
    use crate::time::SimDuration;
    use crate::world::{World, WorldConfig};

    /// Ceiling on `size_of::<Node>()`, with and without the inline obs
    /// shard: `World::nodes` pays it once per node, used or not.
    const NODE_INLINE_MAX: usize = if crate::obs_enabled() { 312 } else { 248 };

    /// Ceiling on `size_of::<ProtoState>()`: a node that runs a protocol
    /// stack pays it once, in its box.
    const PROTO_STATE_INLINE_MAX: usize = 184;

    /// Ceiling on `size_of::<HotNode>()`: every radio fan-out reads one
    /// per candidate receiver.
    const HOT_NODE_INLINE_MAX: usize = 64;

    /// Ceiling on `size_of::<RecvEntry>()`: every radio reception reads
    /// one, two to a cache line.
    const RECV_ENTRY_INLINE_MAX: usize = 32;

    #[test]
    fn node_stays_under_its_inline_ceiling() {
        assert!(
            std::mem::size_of::<Node>() <= NODE_INLINE_MAX,
            "Node is {} B inline",
            std::mem::size_of::<Node>()
        );
    }

    #[test]
    fn the_protocol_state_box_stays_under_its_inline_ceiling() {
        let size = std::mem::size_of::<ProtoState>();
        assert!(size <= PROTO_STATE_INLINE_MAX, "ProtoState is {size} B");
    }

    #[test]
    fn an_arena_entry_stays_under_its_inline_ceiling() {
        let size = std::mem::size_of::<HotNode>();
        assert!(size <= HOT_NODE_INLINE_MAX, "HotNode is {size} B inline");
    }

    #[test]
    fn a_receive_column_entry_stays_under_its_inline_ceiling() {
        let size = std::mem::size_of::<RecvEntry>();
        assert!(
            size <= RECV_ENTRY_INLINE_MAX,
            "RecvEntry is {size} B inline"
        );
    }

    fn frame(tag: u8) -> Frame {
        let at = SocketAddr::new(Addr::manet(0), 9);
        Frame {
            dst: L2Dst::Broadcast,
            dgram: Datagram::new(at, at, vec![tag]),
            retries_left: 0,
        }
    }

    #[test]
    fn tx_queue_is_fifo_across_head_and_ring() {
        for n in 1..=5u8 {
            let mut q = TxQueue::default();
            let mut out = Vec::new();
            for tag in 0..n {
                q.push_back(frame(tag));
                assert_eq!(
                    q.front().expect("queued").dgram.payload[0] as usize,
                    out.len()
                );
                // Pop after every second push, so pops interleave with
                // frames still arriving behind the head.
                if tag % 2 == 1 {
                    out.extend(q.pop_front().map(|f| f.dgram.payload[0]));
                }
            }
            while let Some(f) = q.pop_front() {
                out.push(f.dgram.payload[0]);
            }
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert!(q.is_empty() && q.front_mut().is_none());
        }
        let mut q = TxQueue::default();
        (0..3).for_each(|tag| q.push_back(frame(tag)));
        q.front_mut().expect("head").retries_left = 7;
        assert_eq!(q.front().expect("head").retries_left, 7);
        q.clear();
        assert!(q.is_empty() && q.rest.is_empty() && q.pop_front().is_none());
    }

    #[test]
    fn tx_queue_allocates_no_ring_for_one_frame_at_a_time() {
        let mut q = TxQueue::default();
        for tag in 0..1000u32 {
            q.push_back(frame(tag as u8));
            assert_eq!(
                q.pop_front().expect("just pushed").dgram.payload[0],
                tag as u8
            );
        }
        assert_eq!(q.rest.capacity(), 0);
    }

    #[test]
    fn port_map_finds_every_bound_port_and_keeps_the_first_binder() {
        for ports in [1usize, 6, 97] {
            let mut map = PortMap::default();
            // Bound in descending order: lookups rely on the sort.
            for i in (0..ports as u32).rev() {
                assert_eq!(map.bind(5000 + 3 * i as u16, i), i);
            }
            for i in 0..ports as u32 {
                assert_eq!(map.get(5000 + 3 * i as u16), Some(i));
                assert_eq!(map.get(5001 + 3 * i as u16), None);
            }
            assert_eq!(map.bind(5000, 0), 0, "same process binds again");
            assert_eq!(
                map.bind(5000, 42),
                0,
                "another process is told who holds it"
            );
            assert_eq!(map.0.len(), ports);
        }
    }

    /// Broadcasts `burst` beacons at a random phase, then every 500 ms.
    struct Beacon {
        burst: usize,
    }

    impl Process for Beacon {
        fn name(&self) -> &'static str {
            "beacon"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(7000);
            let phase = ctx.rng().range_u64(0, 500_000);
            ctx.set_timer(SimDuration::from_micros(phase), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            for _ in 0..self.burst {
                ctx.send_to(SocketAddr::new(Addr::BROADCAST, 7000), 7000, vec![0u8; 64]);
            }
            ctx.set_timer(SimDuration::from_millis(500), 0);
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: &Datagram) {}
    }

    #[test]
    fn only_a_node_that_queues_behind_its_own_frame_owns_a_ring() {
        let mut w = World::new(WorldConfig::new(11));
        let ids: Vec<NodeId> = (0..225)
            .map(|i| {
                w.add_node(NodeConfig::manet(
                    (i % 15) as f64 * 70.0,
                    (i / 15) as f64 * 70.0,
                ))
            })
            .collect();
        for &id in &ids[1..] {
            w.spawn(id, Box::new(Beacon { burst: 1 }));
        }
        w.spawn(ids[0], Box::new(Beacon { burst: 3 }));
        w.run_until(SimTime::from_secs(20));
        assert!(w.total_stats().get("radio.rx").packets > 10_000);
        let rings: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|&id| w.node(id).tx.queue.rest.capacity() > 0)
            .collect();
        assert_eq!(rings, [ids[0]]);
    }

    /// A radio node that runs one process on one port and has no route
    /// keeps everything in its `Node` and the columns: no `ProtoState`
    /// box and no named counter, though it sent and received. Each thing
    /// that does box the state boxes it on the node that does it.
    #[test]
    fn a_beacon_node_boxes_no_state_and_names_no_counter() {
        let mut w = World::new(WorldConfig::new(12));
        let ids: Vec<NodeId> = (0..100)
            .map(|i| {
                w.add_node(NodeConfig::manet(
                    (i % 10) as f64 * 70.0,
                    (i / 10) as f64 * 70.0,
                ))
            })
            .collect();
        for &id in &ids {
            w.spawn(id, Box::new(Beacon { burst: 1 }));
        }
        // Node 1 runs a second process, node 2 gets a route.
        w.spawn(ids[1], Box::new(Listener { port: 7001 }));
        let route = crate::route::Route {
            next_hop: Addr::manet(3),
            hops: 1,
            expires: SimTime::MAX,
            seq: 0,
        };
        w.install_route(ids[2], Addr::manet(3), route);
        w.run_until(SimTime::from_secs(3));
        let stats = w.total_stats();
        assert!(stats.get("radio.bcast_tx").packets >= 500);
        assert!(stats.get("radio.rx").packets > 1_000);
        let boxed: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|&id| w.node(id).proto.is_some())
            .collect();
        assert_eq!(boxed, [ids[1], ids[2]]);
        for &id in &ids {
            let n = w.node(id);
            assert_eq!(n.stats.heap_bytes(), 0, "{id} named a counter");
            assert!(n.tx.tx.packets > 0, "{id} sent");
            assert_eq!(n.local_addrs().collect::<Vec<_>>(), [n.addr()]);
        }
        assert!(w.node(ids[0]).routes().is_empty());
        assert_eq!(w.node(ids[2]).routes().len(), 1);
    }

    /// Binds `port` and listens.
    struct Listener {
        port: u16,
    }

    impl Process for Listener {
        fn name(&self) -> &'static str {
            "listener"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(self.port);
        }
    }

    #[test]
    #[should_panic(expected = "port 7000 on n0 already bound by another process (binder: beacon)")]
    fn binding_a_port_another_process_holds_panics_with_the_binder() {
        let mut w = World::new(WorldConfig::new(1));
        let id = w.add_node(NodeConfig::manet(0.0, 0.0));
        w.spawn(id, Box::new(Beacon { burst: 1 }));
        w.spawn(id, Box::new(Beacon { burst: 1 }));
        w.run_until(SimTime::from_secs(1));
    }

    #[test]
    fn config_kinds_set_interfaces() {
        let m = NodeConfig::manet(1.0, 2.0);
        assert!(m.radio && !m.wired);
        let w = NodeConfig::wired(Addr::new(82, 1, 1, 1));
        assert!(!w.radio && w.wired);
        let g = NodeConfig::gateway(0.0, 0.0);
        assert!(g.radio && g.wired);
    }

    #[test]
    #[should_panic(expected = "public address")]
    fn wired_config_rejects_manet_addr() {
        let _ = NodeConfig::wired(Addr::manet(0));
    }

    #[test]
    fn node_answers_to_aliases_and_loopback() {
        let cfg = NodeConfig::manet(0.0, 0.0);
        let mut n = Node::new(Addr::manet(0), &cfg, SimRng::from_seed_and_stream(0, 0));
        assert!(n.is_local_addr(Addr::manet(0)));
        assert!(n.is_local_addr(Addr::LOOPBACK));
        assert!(!n.is_local_addr(Addr::manet(1)));
        assert!(n.proto.is_none());
        n.proto_mut().aliases.push(Addr::new(82, 1, 1, 9));
        assert!(n.is_local_addr(Addr::new(82, 1, 1, 9)));
        assert_eq!(
            n.local_addrs().collect::<Vec<_>>(),
            [Addr::manet(0), Addr::new(82, 1, 1, 9)]
        );
    }
}
