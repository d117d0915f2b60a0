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

use crate::fault::{corrupt_payload, FaultAction, PacketFaultKind};
use crate::net::{Addr, Datagram, L2Dst};
use crate::node::{NodeId, PendingPacket};
use crate::process::{Ctx, Effect, LocalEvent};
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
    Replan {
        node: NodeId,
    },
    Fault(FaultAction),
}

/// What a node arms for itself (see [`Event::Own`]).
#[derive(Debug)]
pub(crate) enum Own {
    /// A process's `on_start`.
    Start(usize),
    Timer {
        proc: usize,
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
        exclude: Option<usize>,
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
    Handler(usize),
}

enum CallKind<'a> {
    Start,
    Datagram(Datagram),
    Timer(u64),
    Local(&'a LocalEvent),
}

/// Reusable buffers for the per-event hot path: radio-range candidates,
/// process effects, pending-flush destinations and recycled batch
/// receiver vectors. Owned by the world, so steady-state dispatch
/// allocates nothing.
#[derive(Default)]
pub(crate) struct EngineScratch {
    pub candidates: Vec<NodeId>,
    pub effects: Vec<Effect>,
    pub ready: Vec<Addr>,
    pub batch_pool: Vec<Vec<NodeId>>,
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
                self.deliver(node, dgram, via);
                node
            }
            Event::DeliverRadioBatch { dgram, receivers } => {
                return self.deliver_batch(dgram, receivers)
            }
            Event::Replan { node } => return self.replan(node),
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
            Own::Deliver { dgram, via } => self.deliver(node, dgram, via),
            Own::Local { exclude, ev } => {
                let bit = ev.kind().bit();
                let count = self.nodes[node.0 as usize].procs.len();
                for idx in 0..count {
                    let taken = self.nodes[node.0 as usize].procs[idx].1 & bit != 0;
                    if taken && Some(idx) != exclude {
                        self.call_proc(node, idx, CallKind::Local(&ev));
                    }
                }
            }
            Own::PendingSweep => self.sweep_pending(node),
        }
    }

    /// Drops parked datagrams whose route-discovery deadline has passed.
    fn sweep_pending(&mut self, node: NodeId) {
        let now = self.now;
        let n = &mut self.nodes[node.0 as usize];
        let stats = &mut n.stats;
        n.pending.retain(|_, pkts| {
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

    fn call_proc(&mut self, node: NodeId, idx: usize, kind: CallKind<'_>) {
        let now = self.now;
        let n = &mut self.nodes[node.0 as usize];
        if !self.hot[node.0 as usize].up || idx >= n.procs.len() {
            return;
        }
        let Some(mut proc) = n.procs[idx].0.take() else {
            return;
        };
        // Effects are collected into the reused scratch buffer; process
        // calls never nest (effect application only schedules), so one
        // buffer suffices.
        let mut effects = std::mem::take(&mut self.scratch.effects);
        debug_assert!(effects.is_empty());
        {
            let mut ctx = Ctx {
                now,
                addr: n.addr,
                has_wired: n.has_wired,
                rng: &mut n.rng,
                routes: &mut n.routes,
                stats: &mut n.stats,
                obs: &mut n.obs,
                effects: &mut effects,
            };
            match kind {
                CallKind::Start => proc.on_start(&mut ctx),
                CallKind::Datagram(d) => proc.on_datagram(&mut ctx, &d),
                CallKind::Timer(token) => proc.on_timer(&mut ctx, token),
                CallKind::Local(ev) => proc.on_local_event(&mut ctx, ev),
            }
        }
        self.nodes[node.0 as usize].procs[idx].0 = Some(proc);
        self.apply_effects(node, idx, &mut effects);
        effects.clear();
        self.scratch.effects = effects;
    }

    fn apply_effects(&mut self, node: NodeId, idx: usize, effects: &mut Vec<Effect>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Bind(port) => {
                    let n = &mut self.nodes[node.0 as usize];
                    let name = n.proc_names[idx];
                    if n.port_bindings.bind(port, idx) != idx {
                        panic!("port {port} on {node} already bound by another process (binder: {name})");
                    }
                }
                Effect::Send(dgram) => self.route_and_send(node, dgram, false),
                Effect::SendLink { dst, dgram } => self.enqueue_frame(node, dst, dgram),
                Effect::SetTimer { delay, token } => {
                    self.arm(delay, node, Own::Timer { proc: idx, token });
                }
                Effect::Emit(ev) => {
                    let exclude = Some(idx);
                    self.arm(SIGNAL_DELAY, node, Own::Local { exclude, ev });
                }
                Effect::TakeLocal(mask) => self.nodes[node.0 as usize].procs[idx].1 = mask,
                Effect::AddLocalAddr(a) => {
                    let n = &mut self.nodes[node.0 as usize];
                    if !n.local_addrs.contains(&a) {
                        n.local_addrs.push(a);
                    }
                }
                Effect::RemoveLocalAddr(a) => {
                    let n = &mut self.nodes[node.0 as usize];
                    n.local_addrs.retain(|x| *x != a);
                }
                Effect::ClaimPublicAddr(a) => {
                    self.addr_map.insert(a, node);
                    self.nodes[node.0 as usize].addr_handlers.insert(a, idx);
                }
                Effect::ReleasePublicAddr(a) => {
                    if self.node_by_addr(a) == Some(node) {
                        self.addr_map.remove(&a);
                    }
                    self.nodes[node.0 as usize].addr_handlers.remove(&a);
                }
                Effect::SetDefaultHandler(enabled) => {
                    let n = &mut self.nodes[node.0 as usize];
                    if enabled {
                        n.default_handler = Some(idx);
                    } else if n.default_handler == Some(idx) {
                        n.default_handler = None;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Forwarding
    // ------------------------------------------------------------------

    /// Routes a datagram out of `node`. `forwarded` marks transit traffic,
    /// which has its TTL decremented.
    pub(crate) fn route_and_send(&mut self, node: NodeId, dgram: Datagram, forwarded: bool) {
        if !self.hot[node.0 as usize].up {
            return;
        }
        let n = &mut self.nodes[node.0 as usize];
        let dst = dgram.dst;
        if dst.addr.is_broadcast() {
            n.stats.count("radio.bcast_tx", dgram.wire_len());
            self.enqueue_frame(node, L2Dst::Broadcast, dgram);
            return;
        }
        if n.is_local_addr(dst.addr) {
            self.record(node, TraceKind::Loopback, None, &dgram);
            let via = Via::Loopback;
            self.arm(LOOPBACK_DELAY, node, Own::Deliver { dgram, via });
            return;
        }

        let mut dgram = dgram;
        if forwarded {
            if dgram.ttl <= 1 {
                n.stats.count("drop.ttl", dgram.wire_len());
                return;
            }
            dgram.ttl -= 1;
            n.stats.count("fwd", dgram.wire_len());
        }

        let now = self.now;
        let n = &mut self.nodes[node.0 as usize];
        if let Some(route) = n.routes.lookup_active(dst.addr, now) {
            self.enqueue_frame(node, L2Dst::Unicast(route.next_hop), dgram);
            return;
        }

        if dst.addr.is_public() && n.has_wired {
            self.wired_send(node, dgram);
            return;
        }
        if dst.addr.is_public() {
            if let Some(h) = n.default_handler {
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
            let n = &mut self.nodes[node.0 as usize];
            n.pending
                .entry(dst.addr)
                .or_default()
                .push(PendingPacket { dgram, deadline });
            n.stats.count("pending.queued", wire);
            self.arm_at(deadline, node, Own::PendingSweep);
            let ev = LocalEvent::RouteNeeded { dst: dst.addr };
            self.arm(SIGNAL_DELAY, node, Own::Local { exclude: None, ev });
            return;
        }
        n.stats.count("drop.no_route", dgram.wire_len());
    }

    /// Re-sends parked datagrams for destinations that acquired a route.
    fn flush_pending(&mut self, node: NodeId) {
        let now = self.now;
        let n = &mut self.nodes[node.0 as usize];
        if n.pending.is_empty() {
            return;
        }
        // Destination list goes through the reused scratch buffer
        // (route_and_send below never re-enters flush_pending).
        let mut ready = std::mem::take(&mut self.scratch.ready);
        debug_assert!(ready.is_empty());
        ready.extend(
            n.pending
                .keys()
                .filter(|d| n.routes.lookup(**d, now).is_some())
                .copied(),
        );
        // `pending` is a hash map; fix the flush order so re-sends (and
        // the events they schedule) are independent of hasher internals.
        ready.sort_unstable();
        for &dst in &ready {
            let pkts = self.nodes[node.0 as usize]
                .pending
                .remove(&dst)
                .unwrap_or_default();
            for p in pkts {
                // TTL was already decremented (if transit) before parking.
                self.route_and_send(node, p.dgram, false);
            }
        }
        ready.clear();
        self.scratch.ready = ready;
    }

    fn wired_send(&mut self, node: NodeId, dgram: Datagram) {
        let Some(target) = self.node_by_addr(dgram.dst.addr) else {
            self.nodes[node.0 as usize]
                .stats
                .count("drop.wired_unroutable", dgram.wire_len());
            return;
        };
        if !self.nodes[target.0 as usize].has_wired {
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
                n.rng.range_u64(0, max)
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
        n.tx_queue.push_back(Frame {
            dst,
            dgram,
            retries_left: UNICAST_RETRIES,
        });
        if !n.tx_busy {
            n.tx_busy = true;
            self.start_tx(node);
        }
    }

    /// Radio-range candidate set around `pos`, excluding `node` itself and
    /// non-radio nodes, sorted by node id. This inspects only nearby grid
    /// cells; a [`World::with_full_scan_reference`] world lists every
    /// other radio node instead. Either way the result
    /// is a superset of the true in-range set in the same order, and the
    /// caller must still apply exact distance and liveness filters —
    /// which is what makes the two paths trace-identical.
    /// Takes the reusable candidate buffer filled for `node`;
    /// return it with [`World::recycle_candidates`] when done so the
    /// next transmission reuses the allocation.
    fn radio_candidates(&mut self, node: NodeId, pos: crate::mobility::Position) -> Vec<NodeId> {
        let mut out = std::mem::take(&mut self.scratch.candidates);
        out.clear();
        if !self.full_scan {
            self.grid.candidates_into(
                &self.hot,
                node,
                pos,
                self.cfg.radio.range,
                self.now,
                &mut out,
            );
        } else {
            out.extend(self.radio_ids.iter().copied().filter(|&id| id != node));
        }
        out
    }

    fn recycle_candidates(&mut self, buf: Vec<NodeId>) {
        self.scratch.candidates = buf;
    }

    fn start_tx(&mut self, node: NodeId) {
        let radio = self.cfg.radio;
        let now = self.now;
        if self.nodes[node.0 as usize].tx_queue.is_empty() {
            self.nodes[node.0 as usize].tx_busy = false;
            return;
        }
        // Carrier sense: defer while any node in range is on the air.
        if radio.carrier_sense {
            let pos = self.hot[node.0 as usize].position(now);
            let candidates = self.radio_candidates(node, pos);
            let busy_until = candidates
                .iter()
                .filter_map(|&id| {
                    let h = &self.hot[id.0 as usize];
                    let until = self.nodes[id.0 as usize].tx_until;
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
                    SimDuration::from_micros(n.rng.range_u64(0, BACKOFF_MAX.as_micros()))
                };
                self.nodes[node.0 as usize].stats.count("radio.cs_defer", 0);
                self.arm_at(until + backoff, node, Own::TxStart);
                return;
            }
        }
        let n = &mut self.nodes[node.0 as usize];
        let front = n.tx_queue.front().expect("checked above");
        let wire = front.dgram.wire_len();
        let t = tx_time(wire, &mut n.rng);
        n.obs.hist_record("radio.airtime_us", t.as_micros());
        n.tx_until = now + t;
        self.arm(t, node, Own::TxDone);
    }

    fn tx_done(&mut self, node: NodeId) {
        let radio = self.cfg.radio;
        let now = self.now;
        let n = &mut self.nodes[node.0 as usize];
        let Some(front) = n.tx_queue.front() else {
            n.tx_busy = false;
            return;
        };
        let pos = self.hot[node.0 as usize].position(now);
        let wire = front.dgram.wire_len();

        match front.dst {
            L2Dst::Broadcast => {
                // A broadcast is never retried: the frame leaves the queue
                // here and its datagram moves into the event scheduled below.
                let dgram = n.tx_queue.pop_front().expect("front checked").dgram;
                n.stats.count("radio.tx", wire);
                self.record(node, TraceKind::RadioTx, None, &dgram);
                // Per-receiver loss draws below consume the transmitter's
                // RNG in iteration order, so the candidate order (node id)
                // is part of the determinism contract. The loss model's
                // per-range invariants are hoisted out of the loop;
                // sampling stays bit-identical.
                let candidates = self.radio_candidates(node, pos);
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
                        loss.sample_loss(dist, &mut n.rng)
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
                self.next_frame(node);
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
                            .sample_loss(dist, &mut self.nodes[node.0 as usize].rng)
                });
                let n = &mut self.nodes[node.0 as usize];
                if let Some(target) = target {
                    let dgram = n.tx_queue.pop_front().expect("front checked").dgram;
                    n.stats.count("radio.tx", wire);
                    self.record(node, TraceKind::RadioTx, None, &dgram);
                    self.deliver_radio_frame(node, target, dgram);
                    self.next_frame(node);
                } else if retries_left > 0 {
                    n.stats.count("radio.retx", wire);
                    if let Some(f) = n.tx_queue.front_mut() {
                        f.retries_left -= 1;
                    }
                    // Stay busy: retransmit after another full TX time.
                    let t = tx_time(wire, &mut n.rng);
                    n.obs.hist_record("radio.airtime_us", t.as_micros());
                    n.tx_until = now + t;
                    self.arm(t, node, Own::TxDone);
                } else {
                    let dgram = n.tx_queue.pop_front().expect("front checked").dgram;
                    n.stats.count("drop.l2_fail", wire);
                    self.record(node, TraceKind::Drop, Some("l2-retries-exhausted"), &dgram);
                    let ev = LocalEvent::LinkTxFailed { neighbor };
                    self.arm(SIGNAL_DELAY, node, Own::Local { exclude: None, ev });
                    self.next_frame(node);
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

    /// Starts on the frame behind the one `tx_done` just took off the
    /// queue, or goes idle.
    fn next_frame(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.0 as usize];
        if n.tx_queue.is_empty() {
            n.tx_busy = false;
        } else {
            self.start_tx(node);
        }
    }

    // ------------------------------------------------------------------
    // Delivery
    // ------------------------------------------------------------------

    /// Dispatches a batched radio fan-out: each receiver is one logical
    /// delivery, processed exactly as the per-receiver `Deliver` events it
    /// replaces (including the per-event pending flush and the event
    /// meter, which counts logical events so throughput numbers stay
    /// comparable with per-event scheduling).
    fn deliver_batch(&mut self, dgram: Datagram, mut receivers: Vec<NodeId>) {
        self.events += receivers.len() as u64 - 1;
        for &rx in &receivers {
            self.deliver(rx, dgram.clone(), Via::Radio);
            self.flush_pending(rx);
        }
        receivers.clear();
        self.scratch.batch_pool.push(receivers);
    }

    fn deliver(&mut self, node: NodeId, dgram: Datagram, via: Via) {
        if !self.hot[node.0 as usize].up {
            return;
        }
        let n = &mut self.nodes[node.0 as usize];
        match via {
            Via::Radio => {
                n.stats.count("radio.rx", dgram.wire_len());
                self.record(node, TraceKind::RadioRx, None, &dgram);
            }
            Via::Wired => {
                n.stats.count("wired.rx", dgram.wire_len());
                self.record(node, TraceKind::WiredRx, None, &dgram);
            }
            Via::Handler(h) => {
                self.call_proc(node, h, CallKind::Datagram(dgram));
                return;
            }
            Via::Loopback => {}
        }

        let n = &self.nodes[node.0 as usize];
        let dst = dgram.dst;
        if dst.addr.is_broadcast() {
            if let Some(idx) = n.port_bindings.get(dst.port) {
                self.call_proc(node, idx, CallKind::Datagram(dgram));
            }
            return;
        }
        if let Some(&idx) = n.addr_handlers.get(&dst.addr) {
            self.call_proc(node, idx, CallKind::Datagram(dgram));
            return;
        }
        if n.is_local_addr(dst.addr) {
            if let Some(idx) = n.port_bindings.get(dst.port) {
                self.call_proc(node, idx, CallKind::Datagram(dgram));
            } else {
                self.nodes[node.0 as usize]
                    .stats
                    .count("drop.no_listener", dgram.wire_len());
            }
            return;
        }
        // Transit traffic: forward.
        self.route_and_send(node, dgram, true);
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

    /// Ceiling on `size_of::<Event>()`: every queued event pays it, plus
    /// its 16-byte key, in the queue's slab.
    const EVENT_INLINE_MAX: usize = 72;

    #[test]
    fn event_stays_under_its_inline_ceiling() {
        let size = std::mem::size_of::<Event>();
        assert!(size <= EVENT_INLINE_MAX, "Event is {size} B inline");
    }
}
