//! The process (agent) model.
//!
//! The paper's system runs as "five components running as independent
//! operating system processes within a node". The simulator mirrors this: a
//! node hosts any number of [`Process`] implementations that communicate only
//! through datagrams (including loopback datagrams between processes on the
//! same node) and node-local [`LocalEvent`] signals — the analogue of the
//! netlink/ioctl channels the Linux deployment used.
//!
//! Processes are driven by callbacks and act on the world exclusively through
//! the [`Ctx`] handed to each callback. Side effects (sends, timers) are
//! applied by the world after the callback returns, keeping dispatch
//! re-entrancy-free and deterministic.

use crate::net::{Addr, Datagram, L2Dst, Payload, SocketAddr};
use crate::rng::SimRng;
use crate::route::RoutingTable;
use crate::stats::NodeStats;
use crate::time::{SimDuration, SimTime};

/// A protocol or application process hosted on a node.
///
/// All callbacks default to no-ops so implementations only override what
/// they react to. Implementations should treat timer tokens they no longer
/// expect as stale and ignore them — timers cannot be cancelled.
pub trait Process {
    /// Short name used in traces and diagnostics (e.g. `"aodv"`, `"proxy"`).
    fn name(&self) -> &'static str;

    /// Called once when the process is started.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called for every datagram delivered to a port this process has bound.
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let _ = (ctx, dgram);
    }

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called for node-local events emitted by other processes on this node
    /// or by the network stack.
    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        let _ = (ctx, ev);
    }
}

/// Node-local signals between processes and the network stack.
///
/// These model the kernel notifications (`libipq` verdicts, route change
/// netlink messages, 802.11 TX status) the real deployment relied on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalEvent {
    /// The stack has a packet for `dst` but no route; an on-demand routing
    /// protocol should start discovery.
    RouteNeeded {
        /// Destination lacking a route.
        dst: Addr,
    },
    /// A route toward `dst` was installed.
    RouteAdded {
        /// Destination now reachable.
        dst: Addr,
    },
    /// The route toward `dst` was lost (link break / RERR).
    RouteLost {
        /// Destination no longer reachable.
        dst: Addr,
    },
    /// A layer-2 unicast to `neighbor` exhausted its retries — the 802.11
    /// TX-failure feedback AODV uses for link-break detection.
    LinkTxFailed {
        /// The unreachable neighbor.
        neighbor: Addr,
    },
    /// The node was powered back up after a failure; processes should re-arm
    /// their periodic timers.
    NodeRestarted,
    /// Free-form signal between cooperating processes.
    Custom {
        /// Discriminator understood by the receiver.
        kind: &'static str,
        /// Opaque payload.
        data: Vec<u8>,
    },
}

/// Side effects queued by a [`Ctx`]; applied by the world after dispatch.
/// Public only so external unit tests can hold the effect buffer
/// [`Ctx::for_test`] borrows; not part of the stable API.
#[doc(hidden)]
#[derive(Debug)]
pub enum Effect {
    Bind(u16),
    Send(Datagram),
    SendLink { dst: L2Dst, dgram: Datagram },
    SetTimer { delay: SimDuration, token: u64 },
    Emit(LocalEvent),
    AddLocalAddr(Addr),
    RemoveLocalAddr(Addr),
    ClaimPublicAddr(Addr),
    ReleasePublicAddr(Addr),
    SetDefaultHandler(bool),
}

/// The capability handle a process uses to observe and act on its node.
///
/// `Ctx` is constructed by the world for the duration of one callback.
/// Mutations of the routing table are applied synchronously; everything else
/// (sends, timers, local events) takes effect when the callback returns.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) addr: Addr,
    pub(crate) has_wired: bool,
    #[allow(dead_code)]
    pub(crate) proc_index: usize,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) routes: &'a mut RoutingTable,
    pub(crate) stats: &'a mut NodeStats,
    pub(crate) obs: &'a mut siphoc_obs::NodeObs,
    pub(crate) effects: &'a mut Vec<Effect>,
}

impl<'a> Ctx<'a> {
    /// Builds a context over borrowed parts — test support for unit
    /// testing [`Process`] implementations outside a running world.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn for_test(
        now: SimTime,
        addr: Addr,
        rng: &'a mut SimRng,
        routes: &'a mut RoutingTable,
        stats: &'a mut NodeStats,
        obs: &'a mut siphoc_obs::NodeObs,
        effects: &'a mut Vec<Effect>,
    ) -> Ctx<'a> {
        Ctx {
            now,
            addr,
            has_wired: false,
            proc_index: 0,
            rng,
            routes,
            stats,
            obs,
            effects,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node's primary network address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Whether the hosting node has a wired Internet uplink (gateway
    /// candidates in SIPHoc terms).
    pub fn has_wired(&self) -> bool {
        self.has_wired
    }

    /// The node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The node's forwarding table (shared with the network stack).
    pub fn routes(&mut self) -> &mut RoutingTable {
        self.routes
    }

    /// Read-only view of the forwarding table.
    pub fn routes_ref(&self) -> &RoutingTable {
        self.routes
    }

    /// The node's traffic counters.
    pub fn stats(&mut self) -> &mut NodeStats {
        self.stats
    }

    /// The node's observability shard: typed metrics and span tracing.
    /// Every method is a no-op shell unless the `obs` feature is on, so
    /// instrumentation sites need no `cfg` guards.
    pub fn obs(&mut self) -> &mut siphoc_obs::NodeObs {
        self.obs
    }

    /// Current sim time in microseconds — the timestamp unit spans use.
    pub fn now_us(&self) -> u64 {
        self.now.as_micros()
    }

    /// Opens an observability span at the current sim time. Returns
    /// `SpanId::NONE` (and records nothing) unless tracing is enabled on an
    /// obs build, so call sites need no guards.
    pub fn span_enter(
        &mut self,
        cat: siphoc_obs::SpanCat,
        name: &'static str,
    ) -> siphoc_obs::SpanId {
        let t = self.now.as_micros();
        self.obs.span_enter(cat, name, t)
    }

    /// Closes a span at the current sim time; safe on `SpanId::NONE`.
    pub fn span_exit(&mut self, id: siphoc_obs::SpanId, ok: bool) {
        let t = self.now.as_micros();
        self.obs.span_exit(id, t, ok);
    }

    /// Records a zero-duration instant event at the current sim time.
    pub fn span_instant(
        &mut self,
        cat: siphoc_obs::SpanCat,
        name: &'static str,
        corr: Option<&str>,
    ) {
        let t = self.now.as_micros();
        self.obs.span_instant(cat, name, t, corr);
    }

    /// Binds a UDP-like port to this process. Datagrams addressed to the
    /// node on that port are delivered to [`Process::on_datagram`].
    ///
    /// Binding a port already bound by another process on the node panics at
    /// apply time: port collisions are configuration bugs.
    pub fn bind(&mut self, port: u16) {
        self.effects.push(Effect::Bind(port));
    }

    /// Sends a datagram through the node's network stack: loopback, radio
    /// (with multihop forwarding), wired uplink or tunnel — whatever the
    /// stack's forwarding rules select.
    pub fn send(&mut self, dgram: Datagram) {
        self.effects.push(Effect::Send(dgram));
    }

    /// Convenience for [`Ctx::send`]: builds the datagram with this node's
    /// primary address as source.
    pub fn send_to(&mut self, dst: SocketAddr, src_port: u16, payload: impl Into<Payload>) {
        let src = SocketAddr::new(self.addr, src_port);
        self.send(Datagram::new(src, dst, payload));
    }

    /// Sends a datagram to another process on this same node via loopback.
    pub fn send_local(&mut self, dst_port: u16, src_port: u16, payload: Vec<u8>) {
        let src = SocketAddr::new(Addr::LOOPBACK, src_port);
        let dst = SocketAddr::new(Addr::LOOPBACK, dst_port);
        self.send(Datagram::new(src, dst, payload));
    }

    /// Transmits a raw layer-2 frame, bypassing the forwarding table.
    /// Routing protocols use this for link-local control traffic.
    pub fn send_link(&mut self, dst: L2Dst, dgram: Datagram) {
        self.effects.push(Effect::SendLink { dst, dgram });
    }

    /// Schedules [`Process::on_timer`] with `token` after `delay`.
    ///
    /// Timers cannot be cancelled; keep per-token generation counters and
    /// ignore stale firings instead.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::SetTimer { delay, token });
    }

    /// Emits a node-local event to every *other* process on this node.
    pub fn emit(&mut self, ev: LocalEvent) {
        self.effects.push(Effect::Emit(ev));
    }

    /// Adds an alias address to this node (e.g. the public address leased to
    /// a tunnel client); datagrams to it are then delivered locally.
    pub fn add_local_addr(&mut self, addr: Addr) {
        self.effects.push(Effect::AddLocalAddr(addr));
    }

    /// Removes an alias address added with [`Ctx::add_local_addr`].
    pub fn remove_local_addr(&mut self, addr: Addr) {
        self.effects.push(Effect::RemoveLocalAddr(addr));
    }

    /// Claims a public address on behalf of this process: the world routes
    /// backbone traffic for `addr` to this node, and the stack hands any
    /// datagram addressed to it to this process regardless of port. Used by
    /// the gateway's tunnel server for leased client addresses.
    pub fn claim_public_addr(&mut self, addr: Addr) {
        self.effects.push(Effect::ClaimPublicAddr(addr));
    }

    /// Releases a claim made with [`Ctx::claim_public_addr`].
    pub fn release_public_addr(&mut self, addr: Addr) {
        self.effects.push(Effect::ReleasePublicAddr(addr));
    }

    /// Registers (or unregisters) this process as the node's default
    /// handler: datagrams the stack cannot route (public destination, no
    /// uplink) are delivered to it instead of being dropped. The SIPHoc
    /// Connection Provider's tunnel client uses this to capture
    /// Internet-bound traffic, mirroring the paper's default route onto the
    /// tunnel interface.
    pub fn set_default_handler(&mut self, enabled: bool) {
        self.effects.push(Effect::SetDefaultHandler(enabled));
    }

    /// Re-injects a datagram into the node's forwarding path as if it had
    /// just been produced locally. Tunnel endpoints use this to forward
    /// decapsulated traffic.
    pub fn reinject(&mut self, dgram: Datagram) {
        self.effects.push(Effect::Send(dgram));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe;

    impl Process for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
    }

    #[test]
    fn default_callbacks_are_noops() {
        // Exercises the default Process impls through a minimal Ctx.
        let mut rng = SimRng::from_seed_and_stream(0, 0);
        let mut routes = RoutingTable::new();
        let mut stats = NodeStats::default();
        let mut obs = siphoc_obs::NodeObs::default();
        let mut effects = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            addr: Addr::manet(0),
            has_wired: false,
            proc_index: 0,
            rng: &mut rng,
            routes: &mut routes,
            stats: &mut stats,
            obs: &mut obs,
            effects: &mut effects,
        };
        let mut p = Probe;
        p.on_start(&mut ctx);
        p.on_timer(&mut ctx, 1);
        p.on_local_event(&mut ctx, &LocalEvent::NodeRestarted);
        assert!(effects.is_empty());
    }

    #[test]
    fn ctx_queues_effects() {
        let mut rng = SimRng::from_seed_and_stream(0, 0);
        let mut routes = RoutingTable::new();
        let mut stats = NodeStats::default();
        let mut obs = siphoc_obs::NodeObs::default();
        let mut effects = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            addr: Addr::manet(3),
            has_wired: false,
            proc_index: 1,
            rng: &mut rng,
            routes: &mut routes,
            stats: &mut stats,
            obs: &mut obs,
            effects: &mut effects,
        };
        ctx.bind(5060);
        ctx.send_to(SocketAddr::new(Addr::manet(1), 5060), 5060, b"hi".to_vec());
        ctx.set_timer(SimDuration::from_secs(1), 42);
        ctx.emit(LocalEvent::RouteNeeded {
            dst: Addr::manet(9),
        });
        assert_eq!(effects.len(), 4);
        match &effects[1] {
            Effect::Send(d) => {
                assert_eq!(d.src.addr, Addr::manet(3));
                assert_eq!(d.payload, b"hi");
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn send_local_uses_loopback_endpoints() {
        let mut rng = SimRng::from_seed_and_stream(0, 0);
        let mut routes = RoutingTable::new();
        let mut stats = NodeStats::default();
        let mut obs = siphoc_obs::NodeObs::default();
        let mut effects = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            addr: Addr::manet(0),
            has_wired: false,
            proc_index: 0,
            rng: &mut rng,
            routes: &mut routes,
            stats: &mut stats,
            obs: &mut obs,
            effects: &mut effects,
        };
        ctx.send_local(427, 5555, b"q".to_vec());
        match &effects[0] {
            Effect::Send(d) => {
                assert!(d.src.addr.is_loopback());
                assert!(d.dst.addr.is_loopback());
                assert_eq!(d.dst.port, 427);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }
}
