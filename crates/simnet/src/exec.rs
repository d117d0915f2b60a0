//! Event dispatch.
//!
//! Everything that happens *inside* one event — process calls, effect
//! application, forwarding, the radio channel, delivery — lives here, as
//! a plain `impl World` block; the event loop and the global fault state
//! live in [`crate::world`], the pending events in [`crate::queue`].
//!
//! Dispatch schedules child events straight into the world's queue in
//! birth order, which is what fixes their `seq` assignment, and records
//! trace entries in capture order.

use std::borrow::Cow;

use crate::fault::{corrupt_payload, FaultAction, PacketFaultKind};
use crate::net::{Addr, Datagram, L2Dst};
use crate::node::{NodeId, PendingPacket, NO_PROC};
use crate::process::{Ctx, Effect, LocalEvent, Routes};
use crate::radio::{tx_time, Frame, BACKOFF_MAX, PROP_DELAY, UNICAST_RETRIES};
use crate::time::SimDuration;
use crate::trace::{TraceEntry, TraceKind};
use crate::world::World;

/// Delay of a node-local loopback delivery.
const LOOPBACK_DELAY: SimDuration = SimDuration::from_micros(50);
/// Delay of a local signal, and of a datagram handed to the node's
/// default handler.
const SIGNAL_DELAY: SimDuration = SimDuration::from_micros(1);
/// How long a datagram may wait for on-demand route discovery before it
/// is dropped (`drop.pending_timeout`).
const PENDING_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// A queued simulation event; the world's queue orders them by
/// `(time, seq)`.
#[derive(Debug)]
pub(crate) enum Event {
    /// An event `node` armed for itself, in the incarnation `inc` it was
    /// armed in; dispatch drops it unseen once a crash has ended that
    /// incarnation. [`World::arm`] is its one constructor.
    Own {
        node: NodeId,
        inc: u32,
        ev: Own,
    },
    /// A datagram from another node, over the radio or the backbone; it
    /// reaches the node if the node is up when it arrives.
    Deliver {
        node: NodeId,
        dgram: Datagram,
        via: Via,
    },
    /// One radio broadcast frame fanned out to every surviving receiver.
    /// All per-receiver `Deliver`s of a frame share one delivery time and
    /// would receive consecutive `seq`s, so nothing can ever sort between
    /// them — popping them as one queue entry preserves dispatch order
    /// exactly while removing a push+pop per receiver. Only used while no
    /// packet faults are active (faults need per-copy scheduling).
    DeliverRadioBatch {
        dgram: Datagram,
        receivers: Vec<NodeId>,
    },
    /// The next leg of `node`'s waypoint walk, under the mobility model
    /// `gen` it was armed in (`Node::mobility_gen`); dispatch drops it
    /// once `World::set_mobility` has replaced that model.
    Replan {
        node: NodeId,
        gen: u32,
    },
    Fault(FaultAction),
}

/// The kinds the host-time ledger files events under, as
/// `sim.host_ns{kind=…}` and `sim.events{kind=…}`; `Event::kind` picks
/// one.
pub(crate) const EVENT_KINDS: [&str; 13] = [
    "Start",
    "Timer",
    "TxStart",
    "TxDone",
    "DeliverLoopback",
    "DeliverHandler",
    "Local",
    "PendingSweep",
    "DeliverRadio",
    "DeliverWired",
    "DeliverRadioBatch",
    "Replan",
    "Fault",
];

impl Event {
    /// This event's index in [`EVENT_KINDS`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Event::Own { ev, .. } => match ev {
                Own::Start(_) => 0,
                Own::Timer { .. } => 1,
                Own::TxStart => 2,
                Own::TxDone => 3,
                Own::Deliver { via, .. } if *via == Via::Loopback => 4,
                Own::Deliver { .. } => 5,
                Own::Local { .. } => 6,
                Own::PendingSweep => 7,
            },
            Event::Deliver { via, .. } if *via == Via::Radio => 8,
            Event::Deliver { .. } => 9,
            Event::DeliverRadioBatch { .. } => 10,
            Event::Replan { .. } => 11,
            Event::Fault(_) => 12,
        }
    }
}

/// What a node arms for itself (see [`Event::Own`]). A process is named
/// by its slot in the world's arena (`World::procs`).
#[derive(Debug)]
pub(crate) enum Own {
    /// A process's `on_start`.
    Start(u32),
    Timer {
        proc: u32,
        token: u64,
    },
    TxStart,
    TxDone,
    /// A datagram the node sent to itself: over loopback, or to the
    /// process that handles its default route.
    Deliver {
        dgram: Datagram,
        via: Via,
    },
    /// A signal a process emitted (`exclude` names it) or the engine
    /// raised for the node.
    Local {
        exclude: Option<u32>,
        ev: LocalEvent,
    },
    PendingSweep,
}

/// How a datagram reaches a node: from another node over the `Radio` or
/// the backbone (`Wired`) in an [`Event::Deliver`], or from itself over
/// `Loopback` or to its default `Handler` in an [`Own::Deliver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    Loopback,
    Wired,
    Radio,
    Handler(u32),
}

enum CallKind<'a> {
    Start,
    Datagram(&'a Datagram),
    Timer(u64),
    Local(&'a LocalEvent),
}

/// Reusable buffers for the per-event hot path: radio-range candidates,
/// process effects, pending-flush destinations, recycled batch receiver
/// vectors and the process slots a local event visits. Owned by the
/// world, so steady-state dispatch allocates nothing.
#[derive(Default)]
pub(crate) struct EngineScratch {
    pub candidates: Vec<NodeId>,
    pub effects: Vec<Effect>,
    pub ready: Vec<Addr>,
    pub batch_pool: Vec<Vec<NodeId>>,
    pub slots: Vec<u32>,
}

impl World {
    /// Dispatches one popped event, then flushes the pending queue of the
    /// node it ran on. Batch deliveries flush each receiver inline;
    /// mobility replans and fault actions change global state and park
    /// nothing. An [`Event::Own`] from an ended incarnation is dropped
    /// unseen, but still counts as an event and still flushes.
    pub(crate) fn dispatch(&mut self, event: Event) {
        self.events += 1;
        let node = match event {
            Event::Own { node, inc, ev } => {
                if self.hot[node.0 as usize].inc == inc {
                    self.dispatch_own(node, ev);
                } else if matches!(ev, Own::Timer { .. }) {
                    // Armed in an incarnation that a crash has since ended.
                    self.nodes[node.0 as usize]
                        .stats
                        .count("timer.stale_crash", 0);
                }
                node
            }
            Event::Deliver { node, dgram, via } => {
                self.deliver(node, Cow::Owned(dgram), via);
                node
            }
            Event::DeliverRadioBatch { dgram, receivers } => {
                return self.deliver_batch(dgram, receivers)
            }
            Event::Replan { node, gen } => return self.replan(node, gen),
            Event::Fault(action) => return self.apply_fault(action),
        };
        self.flush_pending(node);
    }

    fn dispatch_own(&mut self, node: NodeId, ev: Own) {
        match ev {
            Own::Start(proc) => self.call_proc(node, proc, CallKind::Start),
            Own::Timer { proc, token } => self.call_proc(node, proc, CallKind::Timer(token)),
            Own::TxStart => self.start_tx(node),
            Own::TxDone => self.tx_done(node),
            Own::Deliver { dgram, via } => self.deliver(node, Cow::Owned(dgram), via),
            Own::Local { exclude, ev } => {
                // The node's processes, read once: process 0's slot from
                // the receive column, the rest from `ProtoState::procs`.
                // Whether a process takes the kind is read as its turn
                // comes.
                let bit = ev.kind().bit();
                let mut slots = std::mem::take(&mut self.scratch.slots);
                slots.clear();
                let proc0 = self.recv[node.0 as usize].proc0;
                if proc0 != NO_PROC {
                    slots.push(proc0);
                    if let Some(p) = &self.nodes[node.0 as usize].proto {
                        slots.extend_from_slice(&p.procs);
                    }
                }
                for &slot in &slots {
                    if self.procs[slot as usize].takes & bit != 0 && Some(slot) != exclude {
                        self.call_proc(node, slot, CallKind::Local(&ev));
                    }
                }
                self.scratch.slots = slots;
            }
            Own::PendingSweep => self.sweep_pending(node),
        }
    }

    /// Drops parked datagrams whose route-discovery deadline has passed.
    fn sweep_pending(&mut self, node: NodeId) {
        let now = self.now;
        let n = &mut self.nodes[node.0 as usize];
        let Some(p) = n.proto.as_deref_mut() else {
            return;
        };
        let stats = &mut n.stats;
        p.pending.retain(|_, pkts| {
            pkts.retain(|p| {
                let keep = p.deadline > now;
                if !keep {
                    stats.count("drop.pending_timeout", p.dgram.wire_len());
                }
                keep
            });
            !pkts.is_empty()
        });
    }

    /// Runs one callback of the process in arena slot `slot` on `node`.
    /// What it needs before the process runs comes from the dense
    /// columns: its liveness and `has_wired` from `hot`, its address
    /// from `recv`. The `Ctx` borrows the node's RNG, routes and
    /// counters, which only a process that uses them reads; a node's
    /// first mutable use of its routes boxes its [`ProtoState`].
    ///
    /// [`ProtoState`]: crate::node::ProtoState
    fn call_proc(&mut self, node: NodeId, slot: u32, kind: CallKind<'_>) {
        let now = self.now;
        let h = &self.hot[node.0 as usize];
        let (up, has_wired) = (h.up, h.has_wired);
        if !up {
            return;
        }
        let Some(mut proc) = self.procs[slot as usize].proc.take() else {
            return;
        };
        let addr = self.recv[node.0 as usize].addr;
        let n = &mut self.nodes[node.0 as usize];
        // Effects are collected into the reused scratch buffer; process
        // calls never nest (effect application only schedules), so one
        // buffer suffices.
        let mut effects = std::mem::take(&mut self.scratch.effects);
        debug_assert!(effects.is_empty());
        {
            let mut ctx = Ctx {
                now,
                addr,
                has_wired,
                rng: &mut n.tx.rng,
                routes: Routes::Node(&mut n.proto),
                stats: &mut n.stats,
                obs: &mut n.obs,
                effects: &mut effects,
            };
            match kind {
                CallKind::Start => proc.on_start(&mut ctx),
                CallKind::Datagram(d) => proc.on_datagram(&mut ctx, d),
                CallKind::Timer(token) => proc.on_timer(&mut ctx, token),
                CallKind::Local(ev) => proc.on_local_event(&mut ctx, ev),
            }
        }
        self.procs[slot as usize].proc = Some(proc);
        self.apply_effects(node, slot, &mut effects);
        effects.clear();
        self.scratch.effects = effects;
    }

    fn apply_effects(&mut self, node: NodeId, slot: u32, effects: &mut Vec<Effect>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Bind(port) => self.bind(node, port, slot),
                Effect::Send(dgram) => self.route_and_send(node, dgram),
                Effect::SendLink { dst, dgram } => self.enqueue_frame(node, dst, dgram),
                Effect::SetTimer { delay, token } => {
                    self.arm(delay, node, Own::Timer { proc: slot, token });
                }
                Effect::Emit(ev) => {
                    let exclude = Some(slot);
                    self.arm(SIGNAL_DELAY, node, Own::Local { exclude, ev });
                }
                Effect::TakeLocal(mask) => self.procs[slot as usize].takes = mask,
                Effect::AddLocalAddr(a) => {
                    let n = &mut self.nodes[node.0 as usize];
                    if a != n.addr {
                        let aliases = &mut n.proto_mut().aliases;
                        if !aliases.contains(&a) {
                            aliases.push(a);
                        }
                    }
                }
                Effect::RemoveLocalAddr(a) => {
                    if let Some(p) = &mut self.nodes[node.0 as usize].proto {
                        p.aliases.retain(|x| *x != a);
                    }
                }
                Effect::ClaimPublicAddr(a) => {
                    self.addr_map.insert(a, node);
                    let n = &mut self.nodes[node.0 as usize];
                    n.proto_mut().addr_handlers.insert(a, slot);
                }
                Effect::ReleasePublicAddr(a) => {
                    if self.node_by_addr(a) == Some(node) {
                        self.addr_map.remove(&a);
                    }
                    if let Some(p) = &mut self.nodes[node.0 as usize].proto {
                        p.addr_handlers.remove(&a);
                    }
                }
                Effect::SetDefaultHandler(true) => {
                    self.nodes[node.0 as usize].proto_mut().default_handler = Some(slot);
                }
                Effect::SetDefaultHandler(false) => {
                    if let Some(p) = &mut self.nodes[node.0 as usize].proto {
                        if p.default_handler == Some(slot) {
                            p.default_handler = None;
                        }
                    }
                }
            }
        }
    }

    /// Binds `port` on `node` to the process in `slot`: the node's first
    /// binding goes to its `RecvEntry`, later ones to the port map in its
    /// `ProtoState`.
    ///
    /// # Panics
    ///
    /// Panics if another process on the node holds `port`, naming the
    /// process that asked.
    fn bind(&mut self, node: NodeId, port: u16, slot: u32) {
        let r = &mut self.recv[node.0 as usize];
        let holder = if r.port_proc == NO_PROC {
            (r.port, r.port_proc) = (port, slot);
            slot
        } else if r.port == port {
            r.port_proc
        } else {
            self.nodes[node.0 as usize]
                .proto_mut()
                .port_bindings
                .bind(port, slot)
        };
        if holder != slot {
            let name = self.procs[slot as usize]
                .proc
                .as_ref()
                .map_or("?", |p| p.name());
            panic!("port {port} on {node} already bound by another process (binder: {name})");
        }
    }

    /// Arena slot of the process bound to `port` on `node`.
    fn bound(&self, node: NodeId, port: u16) -> Option<u32> {
        let r = &self.recv[node.0 as usize];
        if r.port_proc == NO_PROC {
            None
        } else if r.port == port {
            Some(r.port_proc)
        } else {
            let proto = self.nodes[node.0 as usize].proto.as_deref();
            proto.and_then(|p| p.port_bindings.get(port))
        }
    }

    // ------------------------------------------------------------------
    // Forwarding
    // ------------------------------------------------------------------

    /// Sends a datagram that starts at `node`: one a process sent, a test
    /// injected or a route discovery released. A broadcast goes on the
    /// air, a datagram for the node itself over loopback, and anything
    /// else to [`World::route`].
    pub(crate) fn route_and_send(&mut self, node: NodeId, dgram: Datagram) {
        if !self.hot[node.0 as usize].up {
            return;
        }
        let n = &mut self.nodes[node.0 as usize];
        if dgram.dst.addr.is_broadcast() {
            n.tx.bcast_tx.add(dgram.wire_len());
            self.enqueue_frame(node, L2Dst::Broadcast, dgram);
            return;
        }
        if n.is_local_addr(dgram.dst.addr) {
            self.record(node, TraceKind::Loopback, None, &dgram);
            let via = Via::Loopback;
            self.arm(LOOPBACK_DELAY, node, Own::Deliver { dgram, via });
            return;
        }
        self.route(node, dgram);
    }

    /// Forwards transit traffic, which [`World::deliver`] found to be
    /// neither a broadcast nor for `node`: steps its TTL and routes it.
    fn forward(&mut self, node: NodeId, mut dgram: Datagram) {
        let n = &mut self.nodes[node.0 as usize];
        if dgram.ttl <= 1 {
            n.stats.count("drop.ttl", dgram.wire_len());
            return;
        }
        dgram.ttl -= 1;
        n.tx.fwd.add(dgram.wire_len());
        self.route(node, dgram);
    }

    /// Routes a unicast datagram that is not for `node`: to the next hop
    /// of an active route, over the uplink or to the default handler if
    /// its destination is public, or parked while a route is discovered.
    fn route(&mut self, node: NodeId, dgram: Datagram) {
        let now = self.now;
        let dst = dgram.dst;
        let n = &mut self.nodes[node.0 as usize];
        let proto = n.proto.as_deref_mut();
        if let Some(route) = proto.and_then(|p| p.routes.lookup_active(dst.addr, now)) {
            self.enqueue_frame(node, L2Dst::Unicast(route.next_hop), dgram);
            return;
        }

        if dst.addr.is_public() && self.hot[node.0 as usize].has_wired {
            self.wired_send(node, dgram);
            return;
        }
        if dst.addr.is_public() {
            if let Some(h) = n.proto.as_deref().and_then(|p| p.default_handler) {
                let via = Via::Handler(h);
                self.arm(SIGNAL_DELAY, node, Own::Deliver { dgram, via });
            } else {
                n.stats.count("drop.no_uplink", dgram.wire_len());
            }
            return;
        }
        if dst.addr.is_manet() && n.has_radio {
            let deadline = now + PENDING_TIMEOUT;
            let wire = dgram.wire_len();
            n.proto_mut()
                .pending
                .entry(dst.addr)
                .or_default()
                .push(PendingPacket { dgram, deadline });
            n.stats.count("pending.queued", wire);
            self.hot[node.0 as usize].parked = true;
            self.arm_at(deadline, node, Own::PendingSweep);
            let ev = LocalEvent::RouteNeeded { dst: dst.addr };
            self.arm(SIGNAL_DELAY, node, Own::Local { exclude: None, ev });
            return;
        }
        n.stats.count("drop.no_route", dgram.wire_len());
    }

    /// Re-sends parked datagrams for destinations that acquired a route.
    /// A node with nothing parked returns on its `HotNode` flag.
    fn flush_pending(&mut self, node: NodeId) {
        if !self.hot[node.0 as usize].parked {
            return;
        }
        let now = self.now;
        // Parking a datagram boxed the node's state.
        let Some(p) = self.nodes[node.0 as usize].proto.as_deref() else {
            return;
        };
        // Destination list goes through the reused scratch buffer
        // (route_and_send below never re-enters flush_pending).
        let mut ready = std::mem::take(&mut self.scratch.ready);
        debug_assert!(ready.is_empty());
        ready.extend(
            p.pending
                .keys()
                .filter(|d| p.routes.lookup(**d, now).is_some())
                .copied(),
        );
        // `pending` is a hash map; fix the flush order so re-sends (and
        // the events they schedule) are independent of hasher internals.
        ready.sort_unstable();
        for &dst in &ready {
            let proto = self.nodes[node.0 as usize].proto.as_deref_mut();
            let pkts = proto.and_then(|p| p.pending.remove(&dst));
            for p in pkts.unwrap_or_default() {
                // TTL was already decremented (if transit) before parking.
                self.route_and_send(node, p.dgram);
            }
        }
        ready.clear();
        self.scratch.ready = ready;
        let proto = self.nodes[node.0 as usize].proto.as_deref();
        self.hot[node.0 as usize].parked = proto.is_some_and(|p| !p.pending.is_empty());
    }

    fn wired_send(&mut self, node: NodeId, dgram: Datagram) {
        let Some(target) = self.node_by_addr(dgram.dst.addr) else {
            self.nodes[node.0 as usize]
                .stats
                .count("drop.wired_unroutable", dgram.wire_len());
            return;
        };
        if !self.hot[target.0 as usize].has_wired {
            self.nodes[node.0 as usize]
                .stats
                .count("drop.wired_unroutable", dgram.wire_len());
            return;
        }
        let wire = dgram.wire_len();
        let jitter_us = {
            let max = self.cfg.wired_jitter.as_micros();
            let n = &mut self.nodes[node.0 as usize];
            if max == 0 {
                0
            } else {
                n.tx.rng.range_u64(0, max)
            }
        };
        self.nodes[node.0 as usize].stats.count("wired.tx", wire);
        let delay = self.cfg.wired_latency + SimDuration::from_micros(jitter_us);
        self.schedule(
            delay,
            Event::Deliver {
                node: target,
                dgram,
                via: Via::Wired,
            },
        );
    }

    // ------------------------------------------------------------------
    // Radio
    // ------------------------------------------------------------------

    fn enqueue_frame(&mut self, node: NodeId, dst: L2Dst, dgram: Datagram) {
        let n = &mut self.nodes[node.0 as usize];
        if !n.has_radio {
            n.stats.count("drop.no_radio", dgram.wire_len());
            return;
        }
        let idle = n.tx.queue.is_empty();
        n.tx.queue.push_back(Frame {
            dst,
            dgram,
            retries_left: UNICAST_RETRIES,
        });
        if idle {
            self.start_tx(node);
        }
    }

    /// Radio-range candidates of `node`: its neighbour list (see
    /// [`crate::grid`]), or every other radio node in a
    /// [`World::with_full_scan_reference`] world. Either way the result
    /// is a superset of the true in-range set, sorted by node id, and the
    /// caller must still apply exact distance and liveness filters —
    /// which is what makes the two paths trace-identical.
    /// Takes the reusable candidate buffer filled for `node`;
    /// return it with [`World::recycle_candidates`] when done so the
    /// next transmission reuses the allocation.
    fn radio_candidates(&mut self, node: NodeId) -> Vec<NodeId> {
        let mut out = std::mem::take(&mut self.scratch.candidates);
        out.clear();
        if self.full_scan {
            let radio = self.hot.iter().enumerate();
            let others = radio.filter(|&(i, h)| h.has_radio && i != node.0 as usize);
            out.extend(others.map(|(i, _)| NodeId(i as u32)));
        } else {
            out.extend_from_slice(self.grid.neighbors(&self.hot, node, self.now));
        }
        out
    }

    fn recycle_candidates(&mut self, buf: Vec<NodeId>) {
        self.scratch.candidates = buf;
    }

    /// Puts the frame at the head of `node`'s queue on the air, or defers
    /// it while the carrier is busy; an empty queue leaves the radio idle.
    fn start_tx(&mut self, node: NodeId) {
        let radio = self.cfg.radio;
        let now = self.now;
        if self.nodes[node.0 as usize].tx.queue.is_empty() {
            return;
        }
        // Carrier sense: defer while any node in range is on the air.
        if radio.carrier_sense {
            let pos = self.hot[node.0 as usize].position(now);
            let candidates = self.radio_candidates(node);
            let busy_until = candidates
                .iter()
                .filter_map(|&id| {
                    let h = &self.hot[id.0 as usize];
                    let until = self.nodes[id.0 as usize].tx.until;
                    (h.up
                        && until > now
                        && crate::mobility::distance(pos, h.position(now)) <= radio.range)
                        .then_some(until)
                })
                .max();
            self.recycle_candidates(candidates);
            if let Some(until) = busy_until {
                let backoff = {
                    let n = &mut self.nodes[node.0 as usize];
                    SimDuration::from_micros(n.tx.rng.range_u64(0, BACKOFF_MAX.as_micros()))
                };
                self.nodes[node.0 as usize].stats.count("radio.cs_defer", 0);
                self.arm_at(until + backoff, node, Own::TxStart);
                return;
            }
        }
        let n = &mut self.nodes[node.0 as usize];
        let front = n.tx.queue.front().expect("checked above");
        let wire = front.dgram.wire_len();
        let t = tx_time(wire, &mut n.tx.rng);
        n.obs.hist_record("radio.airtime_us", t.as_micros());
        n.tx.until = now + t;
        self.arm(t, node, Own::TxDone);
    }

    fn tx_done(&mut self, node: NodeId) {
        let radio = self.cfg.radio;
        let now = self.now;
        let n = &mut self.nodes[node.0 as usize];
        let Some(front) = n.tx.queue.front() else {
            return;
        };
        let pos = self.hot[node.0 as usize].position(now);
        let wire = front.dgram.wire_len();

        match front.dst {
            L2Dst::Broadcast => {
                // A broadcast is never retried: the frame leaves the queue
                // here and its datagram moves into the event scheduled below.
                let dgram = n.tx.queue.pop_front().expect("front checked").dgram;
                n.tx.tx.add(wire);
                self.record(node, TraceKind::RadioTx, None, &dgram);
                // Per-receiver loss draws below consume the transmitter's
                // RNG in iteration order, so the candidate order (node id)
                // is part of the determinism contract. The loss model's
                // per-range invariants are hoisted out of the loop;
                // sampling stays bit-identical.
                let candidates = self.radio_candidates(node);
                let loss = radio.loss.prepare(radio.range);
                // Without packet faults every surviving receiver gets the
                // identical frame at the identical time, so the fan-out is
                // queued as one batch event (see `DeliverRadioBatch`).
                // With faults active each copy may be dropped, mutated or
                // delayed individually, so it keeps per-receiver scheduling.
                let faults_active = !self.packet_faults.is_empty();
                let mut batch = self.scratch.batch_pool.pop().unwrap_or_default();
                for &rx in &candidates {
                    // Liveness + position come from the hot arena: the
                    // fan-out filter is the innermost loop of city-scale
                    // runs, and 64-byte `HotNode`s keep it in cache where
                    // the full `Node` structs cannot.
                    let r = &self.hot[rx.0 as usize];
                    if !r.up {
                        continue;
                    }
                    let dist = crate::mobility::distance(pos, r.position(now));
                    if dist > radio.range || self.link_faulted(node, rx) {
                        continue;
                    }
                    let lost = {
                        let n = &mut self.nodes[node.0 as usize];
                        loss.sample_loss(dist, &mut n.tx.rng)
                    };
                    if !lost {
                        if faults_active {
                            self.deliver_radio_frame(node, rx, dgram.clone());
                        } else {
                            batch.push(rx);
                        }
                    }
                }
                self.recycle_candidates(candidates);
                if batch.is_empty() {
                    self.scratch.batch_pool.push(batch);
                } else {
                    self.schedule(
                        PROP_DELAY,
                        Event::DeliverRadioBatch {
                            dgram,
                            receivers: batch,
                        },
                    );
                }
                self.start_tx(node);
            }
            L2Dst::Unicast(neighbor) => {
                let retries_left = front.retries_left;
                // The neighbour, if it is up, in range and the frame
                // survives the channel (one loss draw, only when in range).
                let target = self.node_by_addr(neighbor).filter(|&target| {
                    let t = &self.hot[target.0 as usize];
                    let dist = crate::mobility::distance(pos, t.position(now));
                    t.up && t.has_radio
                        && !self.link_faulted(node, target)
                        && dist <= radio.range
                        && !radio
                            .loss
                            .prepare(radio.range)
                            .sample_loss(dist, &mut self.nodes[node.0 as usize].tx.rng)
                });
                let n = &mut self.nodes[node.0 as usize];
                if let Some(target) = target {
                    let dgram = n.tx.queue.pop_front().expect("front checked").dgram;
                    n.tx.tx.add(wire);
                    self.record(node, TraceKind::RadioTx, None, &dgram);
                    self.deliver_radio_frame(node, target, dgram);
                    self.start_tx(node);
                } else if retries_left > 0 {
                    n.tx.retx.add(wire);
                    if let Some(f) = n.tx.queue.front_mut() {
                        f.retries_left -= 1;
                    }
                    // Stay busy: retransmit after another full TX time.
                    let t = tx_time(wire, &mut n.tx.rng);
                    n.obs.hist_record("radio.airtime_us", t.as_micros());
                    n.tx.until = now + t;
                    self.arm(t, node, Own::TxDone);
                } else {
                    let dgram = n.tx.queue.pop_front().expect("front checked").dgram;
                    n.stats.count("drop.l2_fail", wire);
                    self.record(node, TraceKind::Drop, Some("l2-retries-exhausted"), &dgram);
                    let ev = LocalEvent::LinkTxFailed { neighbor };
                    self.arm(SIGNAL_DELAY, node, Own::Local { exclude: None, ev });
                    self.start_tx(node);
                }
            }
        }
    }

    /// Schedules radio delivery of a successfully transmitted frame,
    /// applying any active per-link packet faults (blackhole, corrupt,
    /// duplicate, reorder). Fault randomness comes from the world's
    /// dedicated fault stream; every applied fault is counted on the
    /// transmitter under the `fault.` prefix.
    fn deliver_radio_frame(&mut self, tx: NodeId, rx: NodeId, dgram: Datagram) {
        let mut dgram = dgram;
        let mut extra = SimDuration::ZERO;
        let mut copies: u64 = 1;
        // By index: `PacketFault` is `Copy`, and the arms below need the
        // rest of `self`.
        for i in 0..self.packet_faults.len() {
            let f = self.packet_faults[i];
            if !f.applies(self.now, tx, rx) || !self.fault_rng.chance(f.probability) {
                continue;
            }
            let wire = dgram.wire_len();
            match f.kind {
                PacketFaultKind::Blackhole => {
                    self.nodes[tx.0 as usize]
                        .stats
                        .count("fault.blackhole", wire);
                    self.record(tx, TraceKind::Drop, Some("fault-blackhole"), &dgram);
                    return;
                }
                PacketFaultKind::Corrupt => {
                    corrupt_payload(dgram.payload.make_mut(), &mut self.fault_rng);
                    self.nodes[tx.0 as usize].stats.count("fault.corrupt", wire);
                }
                PacketFaultKind::Duplicate => {
                    copies += 1;
                    self.nodes[tx.0 as usize]
                        .stats
                        .count("fault.duplicate", wire);
                }
                PacketFaultKind::Reorder { max_extra } => {
                    let max_us = max_extra.as_micros();
                    if max_us > 0 {
                        let jitter = self.fault_rng.range_u64(0, max_us);
                        extra += SimDuration::from_micros(jitter);
                        self.nodes[tx.0 as usize].stats.count("fault.reorder", wire);
                    }
                }
            }
        }
        // Space duplicate copies slightly apart so they interleave with
        // other in-flight traffic rather than arriving back to back in
        // the same microsecond. The last copy takes the datagram itself.
        let mut deliver_copy = |i: u64, dgram: Datagram| {
            let gap = SimDuration::from_micros(i * 150);
            self.schedule(
                PROP_DELAY + extra + gap,
                Event::Deliver {
                    node: rx,
                    dgram,
                    via: Via::Radio,
                },
            );
        };
        for i in 0..copies - 1 {
            deliver_copy(i, dgram.clone());
        }
        deliver_copy(copies - 1, dgram);
    }

    // ------------------------------------------------------------------
    // Delivery
    // ------------------------------------------------------------------

    /// Dispatches a batched radio fan-out: each receiver is one logical
    /// delivery, processed exactly as the per-receiver `Deliver` events it
    /// replaces (including the per-event pending flush and the event
    /// meter, which counts logical events so throughput numbers stay
    /// comparable with per-event scheduling). Every receiver's process
    /// reads the batch's one datagram; only a forward copies it.
    fn deliver_batch(&mut self, dgram: Datagram, mut receivers: Vec<NodeId>) {
        self.events += receivers.len() as u64 - 1;
        for &rx in &receivers {
            self.deliver(rx, Cow::Borrowed(&dgram), Via::Radio);
            self.flush_pending(rx);
        }
        receivers.clear();
        self.scratch.batch_pool.push(receivers);
    }

    /// Delivers `dgram` to `node`. A radio broadcast reads only the
    /// dense columns (`hot`, `recv`, the process arena) unless the node
    /// bound the frame's port after its first binding. A unicast is
    /// checked for locality here, once: what is not for the node is
    /// forwarded unchecked.
    fn deliver(&mut self, node: NodeId, dgram: Cow<'_, Datagram>, via: Via) {
        if !self.hot[node.0 as usize].up {
            return;
        }
        match via {
            Via::Radio => {
                self.recv[node.0 as usize].rx.add(dgram.wire_len());
                self.record(node, TraceKind::RadioRx, None, &dgram);
            }
            Via::Wired => {
                let n = &mut self.nodes[node.0 as usize];
                n.stats.count("wired.rx", dgram.wire_len());
                self.record(node, TraceKind::WiredRx, None, &dgram);
            }
            Via::Handler(slot) => {
                self.call_proc(node, slot, CallKind::Datagram(&dgram));
                return;
            }
            Via::Loopback => {}
        }

        let dst = dgram.dst;
        if dst.addr.is_broadcast() {
            if let Some(slot) = self.bound(node, dst.port) {
                self.call_proc(node, slot, CallKind::Datagram(&dgram));
            }
            return;
        }
        let n = &self.nodes[node.0 as usize];
        let claimed = n
            .proto
            .as_deref()
            .and_then(|p| p.addr_handlers.get(&dst.addr));
        if let Some(&slot) = claimed {
            self.call_proc(node, slot, CallKind::Datagram(&dgram));
            return;
        }
        if n.answers_to(dst.addr) {
            if let Some(slot) = self.bound(node, dst.port) {
                self.call_proc(node, slot, CallKind::Datagram(&dgram));
            } else {
                self.nodes[node.0 as usize]
                    .stats
                    .count("drop.no_listener", dgram.wire_len());
            }
            return;
        }
        // Transit traffic: forward.
        self.forward(node, dgram.into_owned());
    }

    fn record(
        &mut self,
        node: NodeId,
        kind: TraceKind,
        reason: Option<&'static str>,
        dgram: &Datagram,
    ) {
        if self.trace.is_enabled() {
            self.trace.record(TraceEntry {
                time: self.now,
                node,
                kind,
                reason,
                dgram: dgram.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::SocketAddr;
    use crate::node::{NodeConfig, NodeId};
    use crate::process::{LocalKind, Process};
    use crate::radio::RadioConfig;
    use crate::route::Route;
    use crate::time::SimTime;
    use crate::world::WorldConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Ceiling on `size_of::<Event>()`: every queued event pays it, plus
    /// its 16-byte key, in the queue's slab.
    const EVENT_INLINE_MAX: usize = 64;

    #[test]
    fn event_stays_under_its_inline_ceiling() {
        let size = std::mem::size_of::<Event>();
        assert!(size <= EVENT_INLINE_MAX, "Event is {size} B inline");
    }

    /// What a [`Multi`] saw: `(process index, port)` per datagram, with
    /// port 0 for a `RouteNeeded` signal.
    type Seen = Rc<RefCell<Vec<(usize, u16)>>>;

    /// Binds `ports` in the order given, takes `RouteNeeded`, and
    /// optionally claims a public address or handles the default route.
    struct Multi {
        name: &'static str,
        idx: usize,
        ports: Vec<u16>,
        claim: Option<Addr>,
        default: bool,
        seen: Seen,
    }

    impl Process for Multi {
        fn name(&self) -> &'static str {
            self.name
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for &port in &self.ports {
                ctx.bind(port);
            }
            ctx.take_local(&[LocalKind::RouteNeeded]);
            if let Some(addr) = self.claim {
                ctx.claim_public_addr(addr);
            }
            if self.default {
                ctx.set_default_handler(true);
            }
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: &Datagram) {
            self.seen.borrow_mut().push((self.idx, dgram.dst.port));
        }
        fn on_local_event(&mut self, _ctx: &mut Ctx<'_>, _ev: &LocalEvent) {
            self.seen.borrow_mut().push((self.idx, 0));
        }
    }

    fn multi(idx: usize, ports: &[u16], seen: &Seen) -> Multi {
        Multi {
            name: "multi",
            idx,
            ports: ports.to_vec(),
            claim: None,
            default: false,
            seen: Rc::clone(seen),
        }
    }

    fn dgram(src: Addr, dst: Addr, port: u16) -> Datagram {
        Datagram::new(
            SocketAddr::new(src, port),
            SocketAddr::new(dst, port),
            vec![7; 16],
        )
    }

    fn direct(next_hop: Addr) -> Route {
        Route {
            next_hop,
            hops: 1,
            expires: SimTime::MAX,
            seq: 0,
        }
    }

    const CLAIMED: Addr = Addr::new(82, 130, 0, 9);

    /// Every way a datagram reaches a process, across the boundary
    /// between a node's first port binding (in its receive column entry)
    /// and its later ones (in its port map), for four processes whose
    /// five ports are bound in six orders; then the same after a restart.
    #[test]
    fn each_delivery_reaches_the_process_bound_to_it_in_any_binding_order() {
        let ports = [7000u16, 7001, 7002, 7003, 7004];
        // Which ports each of processes 0..3 binds, in its binding order;
        // the node's first binding is process 0's first port.
        let layouts: [[&[u16]; 4]; 6] = [
            [&[7003, 7001], &[7000], &[7002, 7004], &[]],
            [&[7000], &[7004, 7001], &[7003], &[7002]],
            [&[7004, 7003, 7002], &[7001], &[], &[7000]],
            [&[], &[7002, 7000], &[7004], &[7001, 7003]],
            [&[7001], &[7003], &[7000, 7002], &[7004]],
            [&[7002], &[], &[7001, 7004, 7000], &[7003]],
        ];
        for (case, layout) in layouts.iter().enumerate() {
            let mut w =
                World::new(WorldConfig::new(40 + case as u64).with_radio(RadioConfig::ideal()));
            let a = w.add_node(NodeConfig::manet(0.0, 0.0));
            let b = w.add_node(NodeConfig::manet(50.0, 0.0));
            let seen = Seen::default();
            for (idx, bound) in layout.iter().enumerate() {
                let mut p = multi(idx, bound, &seen);
                p.claim = (idx == 2).then_some(CLAIMED);
                p.default = idx == 3;
                w.spawn(a, Box::new(p));
            }
            let binder = |port: u16| layout.iter().position(|b| b.contains(&port)).unwrap();
            let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
            w.install_route(b, aa, direct(aa));
            w.run_for(SimDuration::from_millis(1));
            for life in 0..2 {
                let mut want = Vec::new();
                for &port in &ports {
                    w.inject(b, dgram(ba, Addr::BROADCAST, port));
                    w.inject(b, dgram(ba, aa, port));
                    w.inject(a, dgram(Addr::LOOPBACK, Addr::LOOPBACK, port));
                    want.extend([(binder(port), port); 3]);
                }
                // A port nobody bound is nobody's.
                w.inject(b, dgram(ba, Addr::BROADCAST, 7009));
                // The claimed address reaches its claimant (2), any other
                // public address the default handler (3).
                w.inject(a, dgram(aa, CLAIMED, 5060));
                w.inject(a, dgram(aa, Addr::new(82, 1, 1, 1), 5061));
                want.extend([(2, 5060), (3, 5061)]);
                w.run_for(SimDuration::from_millis(200));
                let mut got = std::mem::take(&mut *seen.borrow_mut());
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "layout {case}, life {life}");
                assert_eq!(w.stats(a).get("drop.no_listener").packets, 0);

                // A signal reaches every taker in process-index order.
                w.inject(a, dgram(aa, Addr::manet(77), 9));
                w.run_for(SimDuration::from_millis(1));
                let signalled = std::mem::take(&mut *seen.borrow_mut());
                assert_eq!(signalled, [(0, 0), (1, 0), (2, 0), (3, 0)], "layout {case}");

                // A restart re-runs every `on_start`, which binds again.
                w.set_node_up(a, false);
                w.set_node_up(a, true);
                w.run_for(SimDuration::from_millis(1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "port 7001 on n0 already bound by another process (binder: rogue)")]
    fn binding_a_port_held_in_the_port_map_panics_and_names_the_binder() {
        let mut w = World::new(WorldConfig::new(1));
        let id = w.add_node(NodeConfig::manet(0.0, 0.0));
        let seen = Seen::default();
        w.spawn(id, Box::new(multi(0, &[7000, 7001], &seen)));
        let mut rogue = multi(1, &[7001], &seen);
        rogue.name = "rogue";
        w.spawn(id, Box::new(rogue));
        w.run_until(SimTime::from_secs(1));
    }

    /// `a` parks a datagram for `b` (two hops away at 160 m, no route);
    /// `c`, beside `a`, runs nothing.
    fn parked_world(seed: u64) -> (World, [NodeId; 3], Seen) {
        let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(80.0, 0.0));
        let c = w.add_node(NodeConfig::manet(-50.0, 0.0));
        let seen = Seen::default();
        w.spawn(b, Box::new(multi(0, &[9000], &seen)));
        w.run_for(SimDuration::from_millis(1));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.inject(a, dgram(aa, ba, 9000));
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(w.node(a).pending_packets(), 1);
        assert!(w.hot[a.0 as usize].parked);
        (w, [a, b, c], seen)
    }

    /// Once a route exists, the next event on the node flushes what it
    /// parked, and a broadcast reception delivered in a batch is one.
    #[test]
    fn a_batch_delivery_flushes_a_datagram_parked_for_a_route() {
        let (mut w, [a, b, c], seen) = parked_world(50);
        let ba = w.node(b).addr();
        w.install_route(a, ba, direct(ba));
        let ca = w.node(c).addr();
        w.inject(c, dgram(ca, Addr::BROADCAST, 9001));
        w.run_for(SimDuration::from_millis(20));
        assert_eq!(*seen.borrow(), [(0, 9000)]);
        assert_eq!(w.node(a).pending_packets(), 0);
        assert!(!w.hot[a.0 as usize].parked);
        assert!(w.now() < SimTime::from_secs(1), "before the sweep");
    }

    #[test]
    fn a_sweep_and_a_crash_each_clear_the_parked_flag() {
        let (mut w, [a, ..], _) = parked_world(51);
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(w.stats(a).get("drop.pending_timeout").packets, 1);
        assert!(!w.hot[a.0 as usize].parked, "the sweep emptied it");

        let (mut w, [a, ..], _) = parked_world(52);
        w.set_node_up(a, false);
        assert_eq!(w.node(a).pending_packets(), 0);
        assert!(!w.hot[a.0 as usize].parked, "the crash emptied it");
    }

    /// `radio.rx` lives in the receive column; each node's registry row,
    /// and its `World::stats`, count exactly its `RadioRx` trace entries
    /// — broadcasts in batches, unicasts one by one, lossy channel. The
    /// four counters in `Transmit` (`radio.bcast_tx`, `radio.tx`,
    /// `radio.retx`, `fwd`) each count here, and `World::stats`,
    /// `total_stats` and the registry report each under its name; a node
    /// that never sent reports none of the four, not a zero.
    #[test]
    fn each_nodes_radio_rx_row_counts_its_radio_receptions() {
        let mut w = World::new(WorldConfig::new(53));
        w.trace_mut().set_enabled(true);
        let ids: Vec<NodeId> = (0..12)
            .map(|i| {
                w.add_node(NodeConfig::manet(
                    (i % 4) as f64 * 60.0,
                    (i / 4) as f64 * 60.0,
                ))
            })
            .collect();
        let silent = w.add_node(NodeConfig::manet(90.0, 30.0));
        let seen = Seen::default();
        for (idx, &id) in ids.iter().chain([&silent]).enumerate() {
            w.spawn(id, Box::new(multi(idx, &[9000], &seen)));
        }
        w.run_for(SimDuration::from_millis(1));
        for (k, &id) in ids.iter().enumerate() {
            let src = w.node(id).addr();
            let next = w.node(ids[(k + 1) % ids.len()]).addr();
            w.install_route(id, next, direct(next));
            for _ in 0..5 {
                w.inject(id, dgram(src, Addr::BROADCAST, 9000));
                w.inject(id, dgram(src, next, 9000));
            }
        }
        // Two hops: node 1 forwards what node 0 sends to node 2.
        let [a0, a1, a2] = [0, 1, 2].map(|k| w.node(ids[k]).addr());
        w.install_route(
            ids[0],
            a2,
            Route {
                hops: 2,
                ..direct(a1)
            },
        );
        for _ in 0..5 {
            w.inject(ids[0], dgram(a0, a2, 9000));
        }
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.trace().evicted(), 0);
        let reg = w.obs_registry();
        let traced = |id: NodeId, kind: TraceKind| {
            let entries = w.trace().entries();
            entries.filter(|e| e.node == id && e.kind == kind).count() as u64
        };
        let mut total = 0;
        for &id in ids.iter().chain([&silent]) {
            let rx = traced(id, TraceKind::RadioRx);
            let label = id.to_string();
            assert_eq!(reg.counter("radio.rx", &[("node", &label)]), rx, "{id}");
            assert_eq!(w.stats(id).get("radio.rx").packets, rx, "{id}");
            let tx = traced(id, TraceKind::RadioTx);
            assert_eq!(reg.counter("radio.tx", &[("node", &label)]), tx, "{id}");
            total += rx;
        }
        assert!(total > 100, "{total} receptions");
        assert_eq!(w.total_stats().get("radio.rx").packets, total);

        let sent = ["radio.bcast_tx", "radio.tx", "radio.retx", "fwd"];
        for name in sent {
            let mut sum = crate::stats::Counter::default();
            for &id in &ids {
                let c = w.stats(id).get(name);
                let label = id.to_string();
                let labels = [("node", label.as_str())];
                assert_eq!(reg.counter(name, &labels), c.packets, "{name} {id}");
                assert_eq!(reg.counter(&format!("{name}_bytes"), &labels), c.bytes);
                sum.merge(c);
            }
            assert!(sum.packets > 0, "{name} never counted");
            assert_eq!(w.total_stats().get(name), sum, "{name}");
        }

        assert!(w.stats(silent).get("radio.rx").packets > 0);
        let names: Vec<&str> = w.stats(silent).iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["radio.rx"]);
        let doc = reg.to_json();
        let counters = doc.get("counters").expect("counters");
        for name in sent {
            let key = format!("{name}{{node={silent}}}");
            assert!(counters.get(&key).is_none(), "{key} is reported");
        }
    }
}
