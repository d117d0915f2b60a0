//! The process (agent) model.
//!
//! The paper's system runs as "five components running as independent
//! operating system processes within a node". The simulator mirrors this: a
//! node hosts any number of [`Process`] implementations that communicate only
//! through datagrams (including loopback datagrams between processes on the
//! same node) and node-local [`LocalEvent`] signals — the analogue of the
//! netlink/ioctl and local-socket channels the Linux deployment used. A
//! signal never leaves its node, so it is a typed value, not bytes: each
//! one the stack uses is its own variant, and a process names the
//! variants it takes ([`Ctx::take_local`]) so dispatch visits only those
//! processes.
//!
//! Processes are driven by callbacks and act on the world exclusively through
//! the [`Ctx`] handed to each callback. Side effects (sends, timers) are
//! applied by the world after the callback returns, keeping dispatch
//! re-entrancy-free and deterministic.

use crate::fault::MaliciousKind;
use crate::net::{Addr, Datagram, L2Dst, Payload, SocketAddr};
use crate::rng::SimRng;
use crate::route::RoutingTable;
use crate::stats::NodeStats;
use crate::time::{SimDuration, SimTime};

/// A protocol or application process hosted on a node.
///
/// All callbacks default to no-ops so implementations only override what
/// they react to.
///
/// A crash drops every timer the process armed and every datagram or
/// signal its node had in flight to itself, and power-up runs
/// [`Process::on_start`] again. So `on_start` begins an incarnation: it
/// arms every timer chain the process runs, drops the state whose
/// timers the crash took (transactions, discoveries, sessions), and
/// keeps configuration and what the node itself advertises.
pub trait Process {
    /// Short name used in traces and diagnostics (e.g. `"aodv"`, `"proxy"`).
    fn name(&self) -> &'static str;

    /// Called when the process is spawned, and again each time its node
    /// powers back up after a crash.
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
    /// or by the network stack — only for the kinds the process took with
    /// [`Ctx::take_local`].
    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        let _ = (ctx, ev);
    }
}

/// Node-local signals between processes and the network stack.
///
/// The first two come from the network stack and model what the real
/// deployment learned from its kernel (a `libipq` no-route verdict, 802.11
/// TX status); the rest model the local IPC between its daemons.
/// Every payload is a typed value built from simnet's own types, so a
/// receiver matches a variant and parses nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalEvent {
    /// The stack has a packet for `dst` but no route; an on-demand routing
    /// protocol should start discovery.
    RouteNeeded {
        /// Destination lacking a route.
        dst: Addr,
    },
    /// A layer-2 unicast to `neighbor` exhausted its retries — the 802.11
    /// TX-failure feedback AODV uses for link-break detection.
    LinkTxFailed {
        /// The unreachable neighbor.
        neighbor: Addr,
    },
    /// Connection Provider → proxy and UA: the node is attached to the
    /// Internet under `public` (its wired address, or a tunnel lease; a
    /// new value after a gateway handoff renumbers the node).
    InternetUp {
        /// The node's public address.
        public: Addr,
    },
    /// Connection Provider → proxy: Internet attachment lost.
    InternetDown,
    /// UA → media: start (or re-home) the RTP stream of a call.
    MediaStart {
        /// The call's SIP Call-ID.
        call_id: String,
        /// The peer's RTP endpoint from its SDP.
        remote: SocketAddr,
    },
    /// UA → media: the call ended; freeze its session report.
    MediaStop {
        /// The call's SIP Call-ID.
        call_id: String,
    },
    /// MANET SLP → on-demand routing: flood a service query. `query` is
    /// the encoded SLP query entry the routing protocol carries on air.
    FloodQuery {
        /// Encoded query entry.
        query: Vec<u8>,
    },
    /// Routing handler → MANET SLP: piggybacked entries changed the
    /// registry, so lookups waiting on it may now resolve.
    HandlerUpdated,
    /// World → adversary: a scheduled
    /// [`FaultAction::Compromise`](crate::fault::FaultAction::Compromise)
    /// turned the node malicious.
    Compromise(MaliciousKind),
}

/// A [`LocalEvent`]'s variant without its payload: what a process
/// subscribes to with [`Ctx::take_local`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalKind {
    /// [`LocalEvent::RouteNeeded`].
    RouteNeeded,
    /// [`LocalEvent::LinkTxFailed`].
    LinkTxFailed,
    /// [`LocalEvent::InternetUp`].
    InternetUp,
    /// [`LocalEvent::InternetDown`].
    InternetDown,
    /// [`LocalEvent::MediaStart`].
    MediaStart,
    /// [`LocalEvent::MediaStop`].
    MediaStop,
    /// [`LocalEvent::FloodQuery`].
    FloodQuery,
    /// [`LocalEvent::HandlerUpdated`].
    HandlerUpdated,
    /// [`LocalEvent::Compromise`].
    Compromise,
}

impl LocalKind {
    /// This kind's bit in a subscription mask.
    pub fn bit(self) -> u16 {
        1 << self as u16
    }
}

impl LocalEvent {
    /// The event's variant.
    pub fn kind(&self) -> LocalKind {
        match self {
            LocalEvent::RouteNeeded { .. } => LocalKind::RouteNeeded,
            LocalEvent::LinkTxFailed { .. } => LocalKind::LinkTxFailed,
            LocalEvent::InternetUp { .. } => LocalKind::InternetUp,
            LocalEvent::InternetDown => LocalKind::InternetDown,
            LocalEvent::MediaStart { .. } => LocalKind::MediaStart,
            LocalEvent::MediaStop { .. } => LocalKind::MediaStop,
            LocalEvent::FloodQuery { .. } => LocalKind::FloodQuery,
            LocalEvent::HandlerUpdated => LocalKind::HandlerUpdated,
            LocalEvent::Compromise(_) => LocalKind::Compromise,
        }
    }
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
    TakeLocal(u16),
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

    /// Opens a span whose duration its owner reads when it closes it
    /// ([`Timed::close`]), correlated with `corr` while tracing; an empty
    /// `corr` correlates nothing.
    pub fn span_timed(
        &mut self,
        cat: siphoc_obs::SpanCat,
        name: &'static str,
        corr: impl std::fmt::Display,
    ) -> Timed {
        let span = self.span_enter(cat, name);
        if self.obs.tracing() {
            let corr = corr.to_string();
            if !corr.is_empty() {
                self.obs.span_corr(span, &corr);
            }
        }
        Timed {
            span,
            started_us: self.now_us(),
        }
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
    /// Tunnel endpoints forward decapsulated traffic with it, as if the
    /// inner datagram had just been produced on this node.
    pub fn send(&mut self, dgram: Datagram) {
        self.effects.push(Effect::Send(dgram));
    }

    /// Convenience for [`Ctx::send`]: builds the datagram with this node's
    /// primary address as source.
    pub fn send_to(&mut self, dst: SocketAddr, src_port: u16, payload: impl Into<Payload>) {
        let src = SocketAddr::new(self.addr, src_port);
        self.send(Datagram::new(src, dst, payload));
    }

    /// Sends a datagram to another process on this same node via
    /// loopback, 50 µs later; a crash in between drops it.
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
    /// A timer belongs to the node's current incarnation: a crash drops
    /// it unseen. Within one incarnation a timer cannot be cancelled, so
    /// an owner that re-arms a chain before the old timer fires ignores
    /// the superseded token (as AODV's discovery generation does) and
    /// counts it as the obs counter `timer.superseded`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::SetTimer { delay, token });
    }

    /// Emits a node-local event, 1 µs later, to every *other* process on
    /// this node that took its kind with [`Ctx::take_local`], in
    /// process-index order; a crash in between drops it.
    pub fn emit(&mut self, ev: LocalEvent) {
        self.effects.push(Effect::Emit(ev));
    }

    /// Declares the local-event kinds this process takes, replacing any
    /// earlier declaration. A process calls it once, in
    /// [`Process::on_start`]; [`Process::on_local_event`] then sees those
    /// kinds only. A process that never calls it sees none.
    pub fn take_local(&mut self, kinds: &[LocalKind]) {
        let mask = kinds.iter().fold(0, |m, k| m | k.bit());
        self.effects.push(Effect::TakeLocal(mask));
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
}

/// A span and when it opened, held by an operation that records its own
/// duration; [`Ctx::span_timed`] opens one. Packed to 4-byte alignment,
/// so its 12 bytes share a word with a holder's next 4-byte field.
#[derive(Debug)]
#[repr(C, packed(4))]
pub struct Timed {
    span: siphoc_obs::SpanId,
    started_us: u64,
}

impl Timed {
    /// Closes the span, if still open, and returns how long since it
    /// opened, in µs.
    pub fn close(&mut self, ctx: &mut Ctx<'_>, ok: bool) -> u64 {
        ctx.span_exit(std::mem::take(&mut self.span), ok);
        ctx.now_us().saturating_sub(self.started_us)
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

    /// Runs `f` on a context for the node at `addr`; returns the effects
    /// it queued.
    fn effects_of(addr: Addr, f: impl FnOnce(&mut Ctx<'_>)) -> Vec<Effect> {
        let mut rng = SimRng::from_seed_and_stream(0, 0);
        let mut routes = RoutingTable::new();
        let mut stats = NodeStats::default();
        let mut obs = siphoc_obs::NodeObs::default();
        let mut effects = Vec::new();
        f(&mut Ctx::for_test(
            SimTime::ZERO,
            addr,
            &mut rng,
            &mut routes,
            &mut stats,
            &mut obs,
            &mut effects,
        ));
        effects
    }

    #[test]
    fn default_callbacks_are_noops() {
        let effects = effects_of(Addr::manet(0), |ctx| {
            let mut p = Probe;
            p.on_start(ctx);
            p.on_timer(ctx, 1);
            p.on_local_event(ctx, &LocalEvent::InternetDown);
        });
        assert!(effects.is_empty());
    }

    #[test]
    fn ctx_queues_effects() {
        let effects = effects_of(Addr::manet(3), |ctx| {
            ctx.bind(5060);
            ctx.send_to(SocketAddr::new(Addr::manet(1), 5060), 5060, b"hi".to_vec());
            ctx.set_timer(SimDuration::from_secs(1), 42);
            ctx.emit(LocalEvent::RouteNeeded {
                dst: Addr::manet(9),
            });
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
        let effects = effects_of(Addr::manet(0), |ctx| {
            ctx.send_local(427, 5555, b"q".to_vec());
        });
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
