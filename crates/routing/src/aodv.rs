//! Ad hoc On-Demand Distance Vector routing (RFC 3561 subset).
//!
//! One of the two routing protocols SIPHoc plugs into (paper §3.1: "our
//! system supports two routing protocols, AODV and OLSR"). The
//! implementation covers:
//!
//! * on-demand route discovery with expanding-ring search (RREQ/RREP),
//! * destination sequence numbers for loop freedom,
//! * intermediate-node replies from fresh cached routes,
//! * hello beacons and link-layer feedback for link-break detection,
//! * route error propagation (RERR),
//! * **piggybacking**: an optional [`RoutingHandler`](crate::handler::RoutingHandler) attaches opaque
//!   service entries to originated control messages and absorbs entries
//!   from received ones; *service queries* flood on RREQs with an unknown
//!   destination, and nodes whose handler produces an answer return it on a
//!   service RREP — this is how MANET SLP resolves a SIP user and learns
//!   the route to its proxy in one round (paper Fig. 5).

use std::collections::BTreeMap;

use siphoc_simnet::net::{ports, Addr, Datagram, L2Dst, SocketAddr};
use siphoc_simnet::obs::{SpanCat, SpanId};
use siphoc_simnet::process::{Ctx, LocalEvent, LocalKind, Process};
use siphoc_simnet::route::Route;
use siphoc_simnet::time::{SimDuration, SimTime};

use crate::handler::{fit_budget, MsgKind, Piggyback, SharedHandler, PIGGYBACK_BUDGET};
use crate::wire::{read_entries, write_entries, Reader, WireError, Writer};

/// Lifetime of an active route (RFC 3561 §10 `ACTIVE_ROUTE_TIMEOUT`).
const ACTIVE_ROUTE_TIMEOUT: SimDuration = SimDuration::from_secs(6);
/// Hello beacon period (§10 `HELLO_INTERVAL`).
const HELLO_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Hello periods a neighbor may miss before its link counts as broken
/// (§10 `ALLOWED_HELLO_LOSS`; the RFC suggests 2).
const ALLOWED_HELLO_LOSS: u64 = 3;
/// Route-discovery retries after the first attempt at `NET_DIAMETER`
/// (§10 `RREQ_RETRIES`).
const RREQ_RETRIES: u32 = 2;
/// Initial TTL of the expanding-ring search (§6.4 `TTL_START`).
const TTL_START: u8 = 2;
/// TTL increment per ring (§6.4 `TTL_INCREMENT`).
const TTL_INCREMENT: u8 = 2;
/// Ring TTL beyond which the search jumps to `NET_DIAMETER`
/// (§6.4 `TTL_THRESHOLD`).
const TTL_THRESHOLD: u8 = 7;
/// Network diameter bound (§10 `NET_DIAMETER`).
const NET_DIAMETER: u8 = 35;
/// Per-hop traversal estimate that sizes discovery timeouts
/// (§10 `NODE_TRAVERSAL_TIME`).
const NODE_TRAVERSAL_TIME: SimDuration = SimDuration::from_millis(40);

const TYPE_RREQ: u8 = 1;
const TYPE_RREP: u8 = 2;
const TYPE_RERR: u8 = 3;
const TYPE_HELLO: u8 = 4;

const FLAG_UNKNOWN_SEQ: u8 = 0b0000_0001;
const FLAG_SERVICE: u8 = 0b0000_0010;

/// An AODV control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AodvMsg {
    /// Route request, flooded with a bounded TTL.
    Rreq {
        /// Unknown-destination-sequence / service-query flags.
        flags: u8,
        /// Hops travelled so far.
        hop_count: u8,
        /// Remaining flood radius.
        ttl: u8,
        /// Originator-scoped request id for duplicate suppression.
        rreq_id: u32,
        /// Requested destination ([`Addr::UNSPECIFIED`] for service queries).
        dst: Addr,
        /// Last known destination sequence number.
        dst_seq: u32,
        /// Requesting node.
        orig: Addr,
        /// Originator sequence number.
        orig_seq: u32,
        /// Piggybacked service entries.
        entries: Vec<Vec<u8>>,
    },
    /// Route reply, forwarded hop-by-hop along the reverse path.
    Rrep {
        /// Service-reply flag.
        flags: u8,
        /// Hops from the replying node so far.
        hop_count: u8,
        /// Node the route leads to (the answering node for service replies).
        dst: Addr,
        /// Destination sequence number.
        dst_seq: u32,
        /// Node the reply travels to.
        orig: Addr,
        /// Route lifetime granted by the replier.
        lifetime: SimDuration,
        /// Piggybacked service entries.
        entries: Vec<Vec<u8>>,
    },
    /// Route error listing now-unreachable destinations.
    Rerr {
        /// `(destination, last known sequence number)` pairs.
        dests: Vec<(Addr, u32)>,
    },
    /// One-hop hello beacon.
    Hello {
        /// Originator sequence number.
        seq: u32,
        /// Piggybacked service entries.
        entries: Vec<Vec<u8>>,
    },
}

impl AodvMsg {
    /// Serializes the message.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            AodvMsg::Rreq {
                flags,
                hop_count,
                ttl,
                rreq_id,
                dst,
                dst_seq,
                orig,
                orig_seq,
                entries,
            } => {
                w.u8(TYPE_RREQ)
                    .u8(*flags)
                    .u8(*hop_count)
                    .u8(*ttl)
                    .u32(*rreq_id);
                w.addr(*dst).u32(*dst_seq).addr(*orig).u32(*orig_seq);
                write_entries(&mut w, entries);
            }
            AodvMsg::Rrep {
                flags,
                hop_count,
                dst,
                dst_seq,
                orig,
                lifetime,
                entries,
            } => {
                w.u8(TYPE_RREP).u8(*flags).u8(*hop_count);
                w.addr(*dst)
                    .u32(*dst_seq)
                    .addr(*orig)
                    // Milliseconds; whatever does not fit reads as the longest.
                    .u32(u32::try_from(lifetime.as_micros() / 1000).unwrap_or(u32::MAX));
                write_entries(&mut w, entries);
            }
            AodvMsg::Rerr { dests } => {
                w.u8(TYPE_RERR).u8(dests.len() as u8);
                for (a, s) in dests {
                    w.addr(*a).u32(*s);
                }
            }
            AodvMsg::Hello { seq, entries } => {
                w.u8(TYPE_HELLO).u32(*seq);
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
    pub fn parse(bytes: &[u8]) -> Result<AodvMsg, WireError> {
        let mut r = Reader::new(bytes);
        match r.u8("type")? {
            TYPE_RREQ => Ok(AodvMsg::Rreq {
                flags: r.u8("flags")?,
                hop_count: r.u8("hop_count")?,
                ttl: r.u8("ttl")?,
                rreq_id: r.u32("rreq_id")?,
                dst: r.addr("dst")?,
                dst_seq: r.u32("dst_seq")?,
                orig: r.addr("orig")?,
                orig_seq: r.u32("orig_seq")?,
                entries: read_entries(&mut r)?,
            }),
            TYPE_RREP => Ok(AodvMsg::Rrep {
                flags: r.u8("flags")?,
                hop_count: r.u8("hop_count")?,
                dst: r.addr("dst")?,
                dst_seq: r.u32("dst_seq")?,
                orig: r.addr("orig")?,
                lifetime: SimDuration::from_millis(r.u32("lifetime")? as u64),
                entries: read_entries(&mut r)?,
            }),
            TYPE_RERR => {
                let n = r.u8("dest count")? as usize;
                let mut dests = Vec::with_capacity(n);
                for _ in 0..n {
                    dests.push((r.addr("dest")?, r.u32("dest seq")?));
                }
                Ok(AodvMsg::Rerr { dests })
            }
            TYPE_HELLO => Ok(AodvMsg::Hello {
                seq: r.u32("seq")?,
                entries: read_entries(&mut r)?,
            }),
            _ => Err(WireError::new("unknown AODV message type")),
        }
    }
}

const TAG_HELLO: u64 = 1;
const TAG_DISCOVERY: u64 = 2;
/// A discovery token carries its generation in its top 24 bits, so the
/// generation counter wraps there.
const GENERATION_MASK: u32 = (1 << 24) - 1;

fn discovery_token(dst: Addr, generation: u32) -> u64 {
    TAG_DISCOVERY | ((dst.0 as u64) << 8) | ((generation as u64) << 40)
}

fn token_tag(token: u64) -> u64 {
    token & 0xff
}

fn token_dst(token: u64) -> Addr {
    Addr(((token >> 8) & 0xffff_ffff) as u32)
}

fn token_generation(token: u64) -> u32 {
    (token >> 40) as u32
}

/// Sequence-number freshness per RFC 3561 §6.1 (signed rollover compare).
fn seq_newer(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

#[derive(Debug)]
struct Discovery {
    retries_used: u32,
    ttl: u8,
    generation: u32,
    span: SpanId,
    started_us: u64,
}

/// The AODV routing process. Spawn exactly one per MANET node.
#[derive(Default)]
pub struct AodvProcess {
    handler: Piggyback,
    seq: u32,
    rreq_id: u32,
    hello_seq: u32,
    pending: BTreeMap<Addr, Discovery>,
    seen_rreq: BTreeMap<(Addr, u32), SimTime>,
    neighbors: BTreeMap<Addr, SimTime>,
    generation: u32,
}

impl std::fmt::Debug for AodvProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AodvProcess")
            .field("seq", &self.seq)
            .field("pending", &self.pending.len())
            .field("neighbors", &self.neighbors.len())
            .finish_non_exhaustive()
    }
}

impl AodvProcess {
    /// Creates a process with no piggyback handler.
    pub fn new() -> AodvProcess {
        AodvProcess::default()
    }

    /// Attaches the piggyback handler (the libipq-capture analogue).
    pub fn with_handler(mut self, handler: SharedHandler) -> AodvProcess {
        self.handler = Piggyback(Some(handler));
        self
    }

    fn broadcast(&mut self, ctx: &mut Ctx<'_>, msg: &AodvMsg, counter: &'static str) {
        let payload = msg.to_bytes();
        ctx.stats().count(counter, payload.len());
        let src = SocketAddr::new(ctx.addr(), ports::AODV);
        let dst = SocketAddr::new(Addr::BROADCAST, ports::AODV);
        ctx.send_link(L2Dst::Broadcast, Datagram::new(src, dst, payload));
    }

    fn unicast(&mut self, ctx: &mut Ctx<'_>, next_hop: Addr, msg: &AodvMsg, counter: &'static str) {
        let payload = msg.to_bytes();
        ctx.stats().count(counter, payload.len());
        let src = SocketAddr::new(ctx.addr(), ports::AODV);
        let dst = SocketAddr::new(next_hop, ports::AODV);
        ctx.send_link(L2Dst::Unicast(next_hop), Datagram::new(src, dst, payload));
    }

    /// Installs or refreshes a route if the AODV update rules allow it.
    fn update_route(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Addr,
        next_hop: Addr,
        hops: u8,
        seq: u32,
        lifetime: SimDuration,
    ) {
        if dst == ctx.addr() {
            return;
        }
        let now = ctx.now();
        let expires = now + lifetime;
        let current = ctx.routes().lookup(dst, now);
        let accept = match current {
            None => true,
            Some(r) => {
                seq_newer(seq, r.seq)
                    || (seq == r.seq && hops < r.hops)
                    || (seq == r.seq && next_hop == r.next_hop)
            }
        };
        if accept {
            ctx.routes().insert(
                dst,
                Route {
                    next_hop,
                    hops,
                    expires,
                    seq,
                },
            );
        } else if let Some(r) = current {
            // Refresh lifetime of the retained route when traffic proves it.
            if r.next_hop == next_hop {
                if let Some(e) = ctx.routes().get_mut(dst) {
                    if e.expires < expires {
                        e.expires = expires;
                    }
                }
            }
        }
    }

    /// Advances the discovery generation within what a token carries.
    fn next_generation(&mut self) -> u32 {
        self.generation = (self.generation + 1) & GENERATION_MASK;
        self.generation
    }

    fn start_discovery(&mut self, ctx: &mut Ctx<'_>, dst: Addr) {
        if self.pending.contains_key(&dst) {
            return;
        }
        let generation = self.next_generation();
        let span = ctx.span_enter(SpanCat::Routing, "route.discovery");
        if ctx.obs().tracing() {
            let corr = dst.to_string();
            ctx.obs().span_corr(span, &corr);
        }
        let started_us = ctx.now_us();
        self.pending.insert(
            dst,
            Discovery {
                retries_used: 0,
                ttl: TTL_START,
                generation,
                span,
                started_us,
            },
        );
        self.send_rreq(ctx, dst, TTL_START, generation);
    }

    fn send_rreq(&mut self, ctx: &mut Ctx<'_>, dst: Addr, ttl: u8, generation: u32) {
        self.seq = self.seq.wrapping_add(1);
        self.rreq_id = self.rreq_id.wrapping_add(1);
        let known = ctx.routes_ref().lookup(dst, ctx.now());
        let (dst_seq, flags) = match known {
            Some(r) => (r.seq, 0),
            None => (0, FLAG_UNKNOWN_SEQ),
        };
        let entries = self.handler.collect(ctx, MsgKind::AodvRreq);
        let msg = AodvMsg::Rreq {
            flags,
            hop_count: 0,
            ttl,
            rreq_id: self.rreq_id,
            dst,
            dst_seq,
            orig: ctx.addr(),
            orig_seq: self.seq,
            entries,
        };
        self.seen_rreq.insert((ctx.addr(), self.rreq_id), ctx.now());
        self.broadcast(ctx, &msg, "aodv.rreq");
        // RFC ring traversal time: 2 * NTT * (TTL + 2).
        let timeout = NODE_TRAVERSAL_TIME * 2 * (ttl as u64 + 2);
        ctx.set_timer(timeout, discovery_token(dst, generation));
    }

    fn flood_service_query(&mut self, ctx: &mut Ctx<'_>, query: Vec<u8>) {
        self.seq = self.seq.wrapping_add(1);
        self.rreq_id = self.rreq_id.wrapping_add(1);
        let mut entries = vec![query];
        entries.extend(self.handler.collect(ctx, MsgKind::AodvRreq));
        let entries = fit_budget(entries, PIGGYBACK_BUDGET);
        let msg = AodvMsg::Rreq {
            flags: FLAG_UNKNOWN_SEQ | FLAG_SERVICE,
            hop_count: 0,
            ttl: NET_DIAMETER,
            rreq_id: self.rreq_id,
            dst: Addr::UNSPECIFIED,
            dst_seq: 0,
            orig: ctx.addr(),
            orig_seq: self.seq,
            entries,
        };
        self.seen_rreq.insert((ctx.addr(), self.rreq_id), ctx.now());
        self.broadcast(ctx, &msg, "aodv.rreq_service");
    }

    fn on_rreq(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AodvMsg) {
        let AodvMsg::Rreq {
            flags,
            hop_count,
            ttl,
            rreq_id,
            dst,
            dst_seq,
            orig,
            orig_seq,
            entries,
        } = msg
        else {
            return;
        };
        if orig == ctx.addr() {
            return;
        }
        // Route to the link sender.
        self.update_route(ctx, from, from, 1, 0, ACTIVE_ROUTE_TIMEOUT);
        // Duplicate suppression.
        if self.seen_rreq.contains_key(&(orig, rreq_id)) {
            return;
        }
        self.seen_rreq.insert((orig, rreq_id), ctx.now());
        // Reverse route to the originator.
        self.update_route(
            ctx,
            orig,
            from,
            hop_count.saturating_add(1),
            orig_seq,
            ACTIVE_ROUTE_TIMEOUT,
        );

        let answers = self
            .handler
            .deliver(ctx, MsgKind::AodvRreq, from, orig, &entries);

        let service = flags & FLAG_SERVICE != 0;
        if service {
            if !answers.is_empty() {
                self.seq = self.seq.wrapping_add(1);
                let reply = AodvMsg::Rrep {
                    flags: FLAG_SERVICE,
                    hop_count: 0,
                    dst: ctx.addr(),
                    dst_seq: self.seq,
                    orig,
                    lifetime: ACTIVE_ROUTE_TIMEOUT,
                    entries: fit_budget(answers, PIGGYBACK_BUDGET),
                };
                self.unicast(ctx, from, &reply, "aodv.rrep_service");
            }
            if ttl > 1 {
                let fwd = AodvMsg::Rreq {
                    flags,
                    hop_count: hop_count.saturating_add(1),
                    ttl: ttl - 1,
                    rreq_id,
                    dst,
                    dst_seq,
                    orig,
                    orig_seq,
                    entries,
                };
                self.broadcast(ctx, &fwd, "aodv.rreq_service");
            }
            return;
        }

        if dst == ctx.addr() {
            // RFC 3561 §6.6.1: destination replies with max(own, requested).
            if seq_newer(dst_seq, self.seq) {
                self.seq = dst_seq;
            }
            self.seq = self.seq.wrapping_add(1);
            let reply = AodvMsg::Rrep {
                flags: 0,
                hop_count: 0,
                dst,
                dst_seq: self.seq,
                orig,
                lifetime: ACTIVE_ROUTE_TIMEOUT,
                entries: self.handler.collect(ctx, MsgKind::AodvRrep),
            };
            self.unicast(ctx, from, &reply, "aodv.rrep");
            return;
        }

        if flags & FLAG_UNKNOWN_SEQ == 0 {
            if let Some(r) = ctx.routes_ref().lookup(dst, ctx.now()) {
                if !seq_newer(dst_seq, r.seq) && r.seq != 0 {
                    let reply = AodvMsg::Rrep {
                        flags: 0,
                        hop_count: r.hops,
                        dst,
                        dst_seq: r.seq,
                        orig,
                        lifetime: r.expires.saturating_since(ctx.now()),
                        entries: Vec::new(),
                    };
                    self.unicast(ctx, from, &reply, "aodv.rrep");
                    return;
                }
            }
        }

        if ttl > 1 {
            let fwd = AodvMsg::Rreq {
                flags,
                hop_count: hop_count.saturating_add(1),
                ttl: ttl - 1,
                rreq_id,
                dst,
                dst_seq,
                orig,
                orig_seq,
                entries,
            };
            self.broadcast(ctx, &fwd, "aodv.rreq");
        }
    }

    fn on_rrep(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AodvMsg) {
        let AodvMsg::Rrep {
            flags,
            hop_count,
            dst,
            dst_seq,
            orig,
            lifetime,
            entries,
        } = msg
        else {
            return;
        };
        self.update_route(ctx, from, from, 1, 0, ACTIVE_ROUTE_TIMEOUT);
        self.update_route(
            ctx,
            dst,
            from,
            hop_count.saturating_add(1),
            dst_seq,
            lifetime,
        );
        let _ = self
            .handler
            .deliver(ctx, MsgKind::AodvRrep, from, dst, &entries);
        let _ = flags;

        if orig == ctx.addr() {
            if let Some(d) = self.pending.remove(&dst) {
                ctx.span_exit(d.span, true);
                let waited = ctx.now_us().saturating_sub(d.started_us);
                ctx.obs().hist_record("aodv.discovery_us", waited);
            }
            return;
        }
        // Forward along the reverse path.
        if let Some(r) = ctx.routes_ref().lookup(orig, ctx.now()) {
            let fwd = AodvMsg::Rrep {
                flags,
                hop_count: hop_count.saturating_add(1),
                dst,
                dst_seq,
                orig,
                lifetime,
                entries,
            };
            self.unicast(ctx, r.next_hop, &fwd, "aodv.rrep");
        } else {
            ctx.stats().count("aodv.rrep_no_reverse", 1);
        }
    }

    fn on_rerr(&mut self, ctx: &mut Ctx<'_>, from: Addr, dests: Vec<(Addr, u32)>) {
        let mut propagate = Vec::new();
        for (dst, seq) in dests {
            let now = ctx.now();
            if let Some(r) = ctx.routes_ref().lookup(dst, now) {
                if r.next_hop == from {
                    ctx.routes().remove(dst);
                    propagate.push((dst, seq));
                }
            }
        }
        if !propagate.is_empty() {
            let msg = AodvMsg::Rerr { dests: propagate };
            self.broadcast(ctx, &msg, "aodv.rerr");
        }
    }

    fn on_link_break(&mut self, ctx: &mut Ctx<'_>, neighbor: Addr) {
        self.neighbors.remove(&neighbor);
        let lost = ctx.routes().invalidate_via(neighbor);
        if lost.is_empty() {
            return;
        }
        // Seq unknown after loss; receivers match on next-hop.
        let dests = lost.into_iter().map(|dst| (dst, 0)).collect();
        let msg = AodvMsg::Rerr { dests };
        self.broadcast(ctx, &msg, "aodv.rerr");
    }

    fn on_hello_timer(&mut self, ctx: &mut Ctx<'_>) {
        // Expire silent neighbors.
        let hold = HELLO_INTERVAL * ALLOWED_HELLO_LOSS;
        let now = ctx.now();
        let stale: Vec<Addr> = self
            .neighbors
            .iter()
            .filter(|(_, t)| now.saturating_since(**t) > hold)
            .map(|(a, _)| *a)
            .collect();
        for n in stale {
            self.on_link_break(ctx, n);
        }
        // Purge the duplicate cache (PATH_DISCOVERY_TIME ~ 5.6 s; use 10 s).
        self.seen_rreq
            .retain(|_, t| now.saturating_since(*t) < SimDuration::from_secs(10));

        self.hello_seq = self.hello_seq.wrapping_add(1);
        let msg = AodvMsg::Hello {
            seq: self.hello_seq,
            entries: self.handler.collect(ctx, MsgKind::AodvHello),
        };
        self.broadcast(ctx, &msg, "aodv.hello");
        ctx.set_timer(HELLO_INTERVAL, TAG_HELLO);
    }
}

impl Process for AodvProcess {
    fn name(&self) -> &'static str {
        "aodv"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::AODV);
        ctx.take_local(&[
            LocalKind::RouteNeeded,
            LocalKind::LinkTxFailed,
            LocalKind::FloodQuery,
        ]);
        // A restart forgets what it learned; its sequence numbers go on.
        for (_, d) in std::mem::take(&mut self.pending) {
            ctx.span_exit(d.span, false);
        }
        self.seen_rreq.clear();
        self.neighbors.clear();
        // RFC 3561 §6.2: data traffic over a route extends its lifetime.
        ctx.routes().set_keepalive(Some(ACTIVE_ROUTE_TIMEOUT));
        // Stagger first hellos to avoid network-wide synchronization.
        let jitter = ctx.rng().range_u64(0, HELLO_INTERVAL.as_micros());
        ctx.set_timer(SimDuration::from_micros(jitter), TAG_HELLO);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let from = dgram.src.addr;
        if from == ctx.addr() {
            return;
        }
        let Ok(msg) = AodvMsg::parse(&dgram.payload) else {
            ctx.stats().count("aodv.malformed", dgram.payload.len());
            return;
        };
        match msg {
            AodvMsg::Rreq { .. } => self.on_rreq(ctx, from, msg),
            AodvMsg::Rrep { .. } => self.on_rrep(ctx, from, msg),
            AodvMsg::Rerr { dests } => self.on_rerr(ctx, from, dests),
            AodvMsg::Hello { entries, .. } => {
                self.neighbors.insert(from, ctx.now());
                let hold = HELLO_INTERVAL * (ALLOWED_HELLO_LOSS + 1);
                self.update_route(ctx, from, from, 1, 0, hold);
                let _ = self
                    .handler
                    .deliver(ctx, MsgKind::AodvHello, from, from, &entries);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token_tag(token) {
            TAG_HELLO => self.on_hello_timer(ctx),
            TAG_DISCOVERY => {
                let dst = token_dst(token);
                let generation = token_generation(token);
                let Some(d) = self.pending.get(&dst) else {
                    return;
                };
                if d.generation != generation {
                    // Stale timer from a superseded attempt.
                    ctx.obs().counter_add("timer.superseded", 1);
                    return;
                }
                if ctx.routes_ref().lookup(dst, ctx.now()).is_some() {
                    if let Some(d) = self.pending.remove(&dst) {
                        ctx.span_exit(d.span, true);
                        let waited = ctx.now_us().saturating_sub(d.started_us);
                        ctx.obs().hist_record("aodv.discovery_us", waited);
                    }
                    return;
                }
                let d = self.pending.get_mut(&dst).expect("pending entry vanished");
                // RFC 3561 §6.4: ring escalation is free; only attempts at
                // NET_DIAMETER count against RREQ_RETRIES.
                if d.ttl >= NET_DIAMETER {
                    if d.retries_used >= RREQ_RETRIES {
                        if let Some(d) = self.pending.remove(&dst) {
                            ctx.span_exit(d.span, false);
                        }
                        ctx.stats().count("aodv.discovery_failed", 1);
                        return;
                    }
                    d.retries_used += 1;
                }
                let next_ttl = if d.ttl >= TTL_THRESHOLD {
                    NET_DIAMETER
                } else {
                    d.ttl.saturating_add(TTL_INCREMENT)
                };
                d.ttl = next_ttl;
                let generation = self.next_generation();
                self.pending
                    .get_mut(&dst)
                    .expect("pending entry vanished")
                    .generation = generation;
                self.send_rreq(ctx, dst, next_ttl, generation);
            }
            _ => {}
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        match ev {
            LocalEvent::RouteNeeded { dst } if dst.is_manet() => {
                self.start_discovery(ctx, *dst);
            }
            LocalEvent::LinkTxFailed { neighbor } => self.on_link_break(ctx, *neighbor),
            LocalEvent::FloodQuery { query } => self.flood_service_query(ctx, query.clone()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn chain_world(n: usize, spacing: f64) -> (World, Vec<NodeId>) {
        let mut w = World::new(WorldConfig::new(99).with_radio(RadioConfig::ideal()));
        let ids: Vec<NodeId> = (0..n)
            .map(|i| w.add_node(NodeConfig::manet(i as f64 * spacing, 0.0)))
            .collect();
        for &id in &ids {
            w.spawn(id, Box::new(AodvProcess::new()));
        }
        (w, ids)
    }

    /// Sink process recording data traffic on a port.
    struct Sink {
        port: u16,
        got: Rc<RefCell<Vec<Datagram>>>,
    }
    impl Process for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(self.port);
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
            self.got.borrow_mut().push(d.clone());
        }
    }

    #[test]
    fn message_round_trips() {
        let msgs = vec![
            AodvMsg::Rreq {
                flags: FLAG_UNKNOWN_SEQ,
                hop_count: 3,
                ttl: 7,
                rreq_id: 42,
                dst: Addr::manet(5),
                dst_seq: 9,
                orig: Addr::manet(0),
                orig_seq: 17,
                entries: vec![b"svc".to_vec()],
            },
            AodvMsg::Rrep {
                flags: FLAG_SERVICE,
                hop_count: 2,
                dst: Addr::manet(5),
                dst_seq: 10,
                orig: Addr::manet(0),
                lifetime: SimDuration::from_secs(6),
                entries: vec![],
            },
            AodvMsg::Rerr {
                dests: vec![(Addr::manet(1), 3), (Addr::manet(2), 0)],
            },
            AodvMsg::Hello {
                seq: 77,
                entries: vec![b"x".to_vec()],
            },
        ];
        for m in msgs {
            assert_eq!(AodvMsg::parse(&m.to_bytes()).unwrap(), m);
        }
        assert!(AodvMsg::parse(&[9, 9]).is_err());
        assert!(AodvMsg::parse(&[]).is_err());
    }

    #[test]
    fn seq_compare_handles_rollover() {
        assert!(seq_newer(2, 1));
        assert!(!seq_newer(1, 2));
        assert!(!seq_newer(5, 5));
        assert!(seq_newer(1, u32::MAX)); // rollover
    }

    #[test]
    fn discovers_route_over_three_hop_chain() {
        let (mut w, ids) = chain_world(4, 80.0);
        let got = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            ids[3],
            Box::new(Sink {
                port: 9000,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(2)); // let hellos settle
        let src = w.node(ids[0]).addr();
        let dst = w.node(ids[3]).addr();
        w.inject(
            ids[0],
            Datagram::new(
                SocketAddr::new(src, 9000),
                SocketAddr::new(dst, 9000),
                b"data".to_vec(),
            ),
        );
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(got.borrow().len(), 1, "data must arrive after discovery");
        let r = w
            .node(ids[0])
            .routes()
            .lookup(dst, w.now())
            .expect("route installed");
        assert_eq!(r.hops, 3);
        assert_eq!(r.next_hop, w.node(ids[1]).addr());
    }

    #[test]
    fn expanding_ring_reaches_far_destinations() {
        // 6 hops > ttl_start + one increment, so the search must escalate.
        let (mut w, ids) = chain_world(7, 80.0);
        let got = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            ids[6],
            Box::new(Sink {
                port: 9000,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(2));
        let src = w.node(ids[0]).addr();
        let dst = w.node(ids[6]).addr();
        w.inject(
            ids[0],
            Datagram::new(
                SocketAddr::new(src, 9000),
                SocketAddr::new(dst, 9000),
                b"far".to_vec(),
            ),
        );
        w.run_for(SimDuration::from_secs(5));
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(
            w.node(ids[0]).routes().lookup(dst, w.now()).unwrap().hops,
            6
        );
    }

    #[test]
    fn link_break_triggers_rerr_and_rediscovery() {
        let (mut w, ids) = chain_world(4, 80.0);
        let got = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            ids[3],
            Box::new(Sink {
                port: 9000,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(2));
        let src = w.node(ids[0]).addr();
        let dst = w.node(ids[3]).addr();
        let send = |w: &mut World, payload: &[u8]| {
            let d = Datagram::new(
                SocketAddr::new(src, 9000),
                SocketAddr::new(dst, 9000),
                payload.to_vec(),
            );
            w.inject(ids[0], d);
        };
        send(&mut w, b"first");
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(got.borrow().len(), 1);
        // Kill the relay adjacent to the destination.
        w.set_node_up(ids[2], false);
        w.run_for(SimDuration::from_secs(6));
        // The route via ids[2] must disappear (hello loss or TX failure).
        send(&mut w, b"second");
        w.run_for(SimDuration::from_secs(4));
        // No alternate path exists, so the packet is dropped — but the
        // stale route must be gone.
        assert!(w.node(ids[0]).routes().lookup(dst, w.now()).is_none());
        assert_eq!(got.borrow().len(), 1);
        // Bring the relay back: rediscovery must succeed.
        w.set_node_up(ids[2], true);
        w.run_for(SimDuration::from_secs(3));
        send(&mut w, b"third");
        w.run_for(SimDuration::from_secs(4));
        assert_eq!(got.borrow().len(), 2);
    }

    #[test]
    fn no_route_to_nonexistent_destination() {
        let (mut w, ids) = chain_world(3, 80.0);
        w.run_for(SimDuration::from_secs(2));
        let src = w.node(ids[0]).addr();
        let ghost = Addr::manet(77);
        w.inject(
            ids[0],
            Datagram::new(
                SocketAddr::new(src, 9000),
                SocketAddr::new(ghost, 9000),
                b"?".to_vec(),
            ),
        );
        w.run_for(SimDuration::from_secs(20));
        assert!(w.node(ids[0]).routes().lookup(ghost, w.now()).is_none());
        assert_eq!(w.stats(ids[0]).get("aodv.discovery_failed").packets, 1);
        assert_eq!(w.node(ids[0]).pending_packets(), 0, "buffered packet swept");
    }

    #[test]
    fn discovery_still_fails_once_the_generation_wraps() {
        let mut w = World::new(WorldConfig::new(99).with_radio(RadioConfig::ideal()));
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let mut aodv = AodvProcess::new();
        aodv.generation = GENERATION_MASK;
        w.spawn(a, Box::new(aodv));
        let src = w.node(a).addr();
        w.inject(
            a,
            Datagram::new(
                SocketAddr::new(src, 9000),
                SocketAddr::new(Addr::manet(77), 9000),
                b"?".to_vec(),
            ),
        );
        w.run_for(SimDuration::from_secs(20));
        let failed = w.stats(a).get("aodv.discovery_failed").packets;
        assert_eq!(failed, 1, "every ring timer was read as superseded");
        if siphoc_simnet::obs_enabled() {
            let node = a.to_string();
            let superseded = w
                .obs_registry()
                .counter("timer.superseded", &[("node", &node)]);
            assert_eq!(superseded, 0);
        }
    }

    #[test]
    fn ring_search_follows_the_rfc_3561_schedule() {
        use siphoc_simnet::process::Effect;
        let (own, ghost) = (Addr::manet(0), Addr::manet(77));
        let mut p = AodvProcess::new();
        let mut rng = SimRng::from_seed_and_stream(1, 1);
        let mut routes = RoutingTable::new();
        let mut stats = Default::default();
        let mut obs = Default::default();
        let mut now = SimTime::ZERO;
        // `(RREQ TTL, time until the next attempt)` per round.
        let mut rounds = Vec::new();
        let mut pending = None;
        loop {
            let mut fx = Vec::new();
            let mut ctx = Ctx::for_test(
                now,
                own,
                &mut rng,
                &mut routes,
                &mut stats,
                &mut obs,
                &mut fx,
            );
            match pending {
                None => p.on_local_event(&mut ctx, &LocalEvent::RouteNeeded { dst: ghost }),
                Some(token) => p.on_timer(&mut ctx, token),
            }
            let sent = fx.iter().find_map(|e| match e {
                Effect::SendLink { dgram, .. } => match AodvMsg::parse(&dgram.payload) {
                    Ok(AodvMsg::Rreq { ttl, dst, .. }) if dst == ghost => Some(ttl),
                    _ => None,
                },
                _ => None,
            });
            let Some(ttl) = sent else {
                assert_eq!(stats.get("aodv.discovery_failed").packets, 1);
                break;
            };
            let (delay, token) = fx
                .iter()
                .find_map(|e| match e {
                    Effect::SetTimer { delay, token } => Some((*delay, *token)),
                    _ => None,
                })
                .expect("every RREQ arms its ring timer");
            rounds.push((ttl, delay.as_micros() / 1000));
            now += delay;
            pending = Some(token);
        }
        // TTL_START 2, TTL_INCREMENT 2 up to TTL_THRESHOLD 7, then
        // NET_DIAMETER 35 once plus RREQ_RETRIES = 2 more; each round
        // lasts 2 × NODE_TRAVERSAL_TIME (40 ms) × (TTL + 2).
        assert_eq!(
            rounds,
            [
                (2, 320),
                (4, 480),
                (6, 640),
                (8, 800),
                (35, 2960),
                (35, 2960),
                (35, 2960)
            ]
        );
    }

    #[test]
    fn hello_neighbors_are_learned() {
        let (mut w, ids) = chain_world(2, 50.0);
        w.run_for(SimDuration::from_secs(3));
        let b = w.node(ids[1]).addr();
        let r = w.node(ids[0]).routes().lookup(b, w.now());
        assert!(r.is_some(), "hello should install neighbor route");
        assert_eq!(r.unwrap().hops, 1);
    }

    /// Handler that answers service queries for a fixed key.
    struct AnswerBob {
        queries_seen: Rc<RefCell<u32>>,
        answers_seen: Rc<RefCell<Vec<Vec<u8>>>>,
        answer: Option<Vec<u8>>,
    }
    impl crate::handler::RoutingHandler for AnswerBob {
        fn name(&self) -> &'static str {
            "answer-bob"
        }
        fn collect_outgoing(&mut self, _ctx: &mut Ctx<'_>, _k: MsgKind, _b: usize) -> Vec<Vec<u8>> {
            Vec::new()
        }
        fn process_incoming(
            &mut self,
            _ctx: &mut Ctx<'_>,
            kind: MsgKind,
            _from: Addr,
            _origin: Addr,
            entries: &[Vec<u8>],
        ) -> Vec<Vec<u8>> {
            if kind == MsgKind::AodvRreq && entries.iter().any(|e| e == b"who-is-bob") {
                *self.queries_seen.borrow_mut() += 1;
                return self.answer.iter().cloned().collect();
            }
            if kind == MsgKind::AodvRrep {
                self.answers_seen
                    .borrow_mut()
                    .extend(entries.iter().cloned());
            }
            Vec::new()
        }
    }

    #[test]
    fn service_query_floods_and_answer_rides_rrep() {
        let mut w = World::new(WorldConfig::new(7).with_radio(RadioConfig::ideal()));
        let ids: Vec<NodeId> = (0..4)
            .map(|i| w.add_node(NodeConfig::manet(i as f64 * 80.0, 0.0)))
            .collect();
        let mut handlers = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let q = Rc::new(RefCell::new(0));
            let a = Rc::new(RefCell::new(Vec::new()));
            let h: Rc<RefCell<AnswerBob>> = Rc::new(RefCell::new(AnswerBob {
                queries_seen: q.clone(),
                answers_seen: a.clone(),
                answer: (i == 3).then(|| b"bob-is-at-10.0.0.4".to_vec()),
            }));
            w.spawn(id, Box::new(AodvProcess::new().with_handler(h.clone())));
            handlers.push((q, a));
        }
        w.run_for(SimDuration::from_secs(2));
        // Node 0 floods a service query.
        let src = w.node(ids[0]).addr();
        let _ = src;
        // Emit via a helper process is overkill — drive the local event
        // through a one-shot process.
        struct Trigger;
        impl Process for Trigger {
            fn name(&self) -> &'static str {
                "trigger"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.emit(LocalEvent::FloodQuery {
                    query: b"who-is-bob".to_vec(),
                });
            }
        }
        w.spawn(ids[0], Box::new(Trigger));
        w.run_for(SimDuration::from_secs(2));
        // The far node saw the query and its answer travelled back to 0.
        assert_eq!(*handlers[3].0.borrow(), 1, "query reached node 3");
        assert!(
            handlers[0]
                .1
                .borrow()
                .iter()
                .any(|e| e == b"bob-is-at-10.0.0.4"),
            "answer delivered to originator"
        );
        // Bonus: originator also learned the route to the answering node.
        let bob_addr = w.node(ids[3]).addr();
        assert!(w.node(ids[0]).routes().lookup(bob_addr, w.now()).is_some());
    }
}
