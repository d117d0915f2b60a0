//! Nodes: the hosts of the simulated network.
//!
//! A node bundles a network stack (addresses, port bindings, forwarding
//! table, transmit queue) with the set of [`Process`]es running on it. Nodes
//! come in three kinds, mirroring the paper's deployment:
//!
//! * **MANET** nodes — radio only (the laptops/iPAQs),
//! * **wired** nodes — backbone only (Internet SIP providers, callers),
//! * **gateway-capable** nodes — both (the MANET node with Internet access).

use std::collections::VecDeque;

use crate::fasthash::FastMap;
use crate::mobility::Mobility;
use crate::net::{Addr, Datagram};
use crate::process::Process;
use crate::radio::Frame;
use crate::rng::SimRng;
use crate::route::RoutingTable;
use crate::stats::NodeStats;
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

/// Port → index of the process bound to it, sorted by port: a node binds
/// a handful of ports once and looks one up on every delivery.
#[derive(Debug, Default)]
pub(crate) struct PortMap(Vec<(u16, u32)>);

impl PortMap {
    /// Position of `port`, or where it would be inserted.
    fn find(&self, port: u16) -> Result<usize, usize> {
        self.0.binary_search_by_key(&port, |&(p, _)| p)
    }

    pub(crate) fn get(&self, port: u16) -> Option<usize> {
        self.find(port).ok().map(|at| self.0[at].1 as usize)
    }

    /// Binds `port` to process `idx` unless it is bound already; returns
    /// the binder that holds it afterwards.
    pub(crate) fn bind(&mut self, port: u16, idx: usize) -> usize {
        match self.find(port) {
            Ok(at) => self.0[at].1 as usize,
            Err(at) => {
                self.0.insert(at, (port, idx as u32));
                idx
            }
        }
    }
}

/// Cache-hot per-node state, mirrored out of the [`Node`] arena into a
/// dense SoA-style vector (`World::hot`).
///
/// Radio fan-out touches `up` + position of every candidate receiver; at
/// city scale those reads dominate, and pulling them through the full
/// `Node` struct (several cache lines, pointer-rich) thrashes the cache.
/// `HotNode` packs exactly the broadcast-filter fields into 56 bytes.
///
/// Positions are interpolated by the same `mobility::leg_position`
/// function the authoritative `Mobility` model uses, so both paths are
/// bit-identical. Entries are rewritten by every path that changes a
/// node's liveness or trajectory (`add_node`, `set_node_up`, replans,
/// explicit moves).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotNode {
    pub up: bool,
    pub has_radio: bool,
    /// Whether the node is on a waypoint leg (false = parked at `from`).
    moving: bool,
    from: (f64, f64),
    to: (f64, f64),
    start: SimTime,
    arrive: SimTime,
}

impl HotNode {
    /// Snapshots the hot fields of `n`.
    pub(crate) fn of(n: &Node) -> HotNode {
        match &n.mobility {
            Mobility::Static { pos } => HotNode {
                up: n.up,
                has_radio: n.has_radio,
                moving: false,
                from: *pos,
                to: *pos,
                start: SimTime::ZERO,
                arrive: SimTime::ZERO,
            },
            Mobility::RandomWaypoint { leg, .. } => HotNode {
                up: n.up,
                has_radio: n.has_radio,
                moving: true,
                from: leg.from,
                to: leg.to,
                start: leg.start,
                arrive: leg.arrive,
            },
        }
    }

    /// Position at `now`; identical to `Node::position(now)`.
    #[inline]
    pub(crate) fn position(&self, now: SimTime) -> (f64, f64) {
        if !self.moving {
            return self.from;
        }
        crate::mobility::leg_position(self.from, self.to, self.start, self.arrive, now)
    }
}

/// A host in the simulated network. Public accessors expose read-only state
/// for tests and experiment harnesses; mutation happens through the world.
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) addr: Addr,
    pub(crate) local_addrs: Vec<Addr>,
    pub(crate) has_radio: bool,
    pub(crate) has_wired: bool,
    pub(crate) up: bool,
    pub(crate) mobility: Mobility,
    pub(crate) procs: Vec<Option<Box<dyn Process>>>,
    pub(crate) proc_names: Vec<&'static str>,
    pub(crate) port_bindings: PortMap,
    pub(crate) addr_handlers: FastMap<Addr, usize>,
    pub(crate) default_handler: Option<usize>,
    pub(crate) routes: RoutingTable,
    pub(crate) pending: FastMap<Addr, Vec<PendingPacket>>,
    pub(crate) tx_queue: TxQueue,
    pub(crate) tx_busy: bool,
    pub(crate) tx_until: SimTime,
    pub(crate) rng: SimRng,
    pub(crate) stats: NodeStats,
    pub(crate) obs: siphoc_obs::NodeObs,
}

impl Node {
    pub(crate) fn new(id: NodeId, addr: Addr, cfg: NodeConfig, rng: SimRng) -> Node {
        Node {
            id,
            addr,
            local_addrs: vec![addr],
            has_radio: cfg.radio,
            has_wired: cfg.wired,
            up: true,
            mobility: cfg.mobility,
            procs: Vec::new(),
            proc_names: Vec::new(),
            port_bindings: PortMap::default(),
            addr_handlers: FastMap::default(),
            default_handler: None,
            routes: RoutingTable::new(),
            pending: FastMap::default(),
            tx_queue: TxQueue::default(),
            tx_busy: false,
            tx_until: SimTime::ZERO,
            rng,
            stats: NodeStats::default(),
            obs: siphoc_obs::NodeObs::default(),
        }
    }

    /// The node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's primary address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Every address the node currently answers to (primary plus aliases
    /// such as a leased tunnel address).
    pub fn local_addrs(&self) -> &[Addr] {
        &self.local_addrs
    }

    /// Whether `addr` is delivered locally on this node.
    pub fn is_local_addr(&self, addr: Addr) -> bool {
        addr.is_loopback()
            || self.local_addrs.contains(&addr)
            || self.addr_handlers.contains_key(&addr)
    }

    /// Whether the node has a radio interface.
    pub fn has_radio(&self) -> bool {
        self.has_radio
    }

    /// Whether the node has a wired (Internet) interface.
    pub fn has_wired(&self) -> bool {
        self.has_wired
    }

    /// Whether the node is powered on.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The node's forwarding table.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// The node's traffic counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The node's observability shard (metrics + spans). A no-op shell
    /// unless the `obs` feature is enabled.
    pub fn obs(&self) -> &siphoc_obs::NodeObs {
        &self.obs
    }

    /// Position at `now` (radio nodes; wired nodes report their fixed
    /// placeholder position).
    pub fn position(&self, now: SimTime) -> (f64, f64) {
        self.mobility.position(now)
    }

    /// Names of the processes hosted on this node, in spawn order.
    pub fn process_names(&self) -> &[&'static str] {
        &self.proc_names
    }

    /// Number of datagrams parked awaiting route discovery.
    pub fn pending_packets(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .field("radio", &self.has_radio)
            .field("wired", &self.has_wired)
            .field("up", &self.up)
            .field("procs", &self.proc_names)
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
    const NODE_INLINE_MAX: usize = if crate::obs_enabled() { 608 } else { 520 };

    #[test]
    fn node_stays_under_its_inline_ceiling() {
        assert!(
            std::mem::size_of::<Node>() <= NODE_INLINE_MAX,
            "Node is {} B inline",
            std::mem::size_of::<Node>()
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
            for i in (0..ports).rev() {
                assert_eq!(map.bind(5000 + 3 * i as u16, i), i);
            }
            for i in 0..ports {
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
            .filter(|&id| w.node(id).tx_queue.rest.capacity() > 0)
            .collect();
        assert_eq!(rings, [ids[0]]);
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
    fn hot_node_positions_match_mobility_exactly() {
        use crate::mobility::{Area, Mobility, WaypointParams};
        use crate::time::SimDuration;
        let mut rng = SimRng::from_seed_and_stream(7, 7);
        let params = WaypointParams::new(1.0, 9.0, SimDuration::from_secs(1));
        let area = Area::new(300.0, 300.0);
        let mob = Mobility::random_waypoint((5.0, 5.0), params, area, SimTime::ZERO, &mut rng);
        let mut n = Node::new(
            NodeId(0),
            Addr::manet(0),
            NodeConfig::manet(0.0, 0.0).with_mobility(mob),
            SimRng::from_seed_and_stream(0, 0),
        );
        n.up = false;
        let h = HotNode::of(&n);
        assert!(!h.up && h.has_radio);
        for us in [0u64, 1, 500_000, 1_234_567, 60_000_000] {
            let t = SimTime::from_micros(us);
            // Bit-identical, not approximately equal: trace digests
            // depend on the hot arena never diverging from the model.
            assert_eq!(h.position(t), n.position(t));
        }
        let stat = HotNode::of(&Node::new(
            NodeId(1),
            Addr::manet(1),
            NodeConfig::manet(3.0, 4.0),
            SimRng::from_seed_and_stream(1, 1),
        ));
        assert_eq!(stat.position(SimTime::from_secs(42)), (3.0, 4.0));
    }

    #[test]
    fn node_answers_to_aliases_and_loopback() {
        let cfg = NodeConfig::manet(0.0, 0.0);
        let mut n = Node::new(
            NodeId(0),
            Addr::manet(0),
            cfg,
            SimRng::from_seed_and_stream(0, 0),
        );
        assert!(n.is_local_addr(Addr::manet(0)));
        assert!(n.is_local_addr(Addr::LOOPBACK));
        assert!(!n.is_local_addr(Addr::manet(1)));
        n.local_addrs.push(Addr::new(82, 1, 1, 9));
        assert!(n.is_local_addr(Addr::new(82, 1, 1, 9)));
    }
}
