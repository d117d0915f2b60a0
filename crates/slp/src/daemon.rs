//! The SLP daemon: the one process behind `127.0.0.1:427`.
//!
//! Paper §2: the SIPHoc proxy and the Gateway and Connection Providers
//! find users and gateways through a daemon offering the standard SLP
//! interface on the loopback. E2, E3, E7 and A1 compare MANET SLP with
//! three related-work location services behind that same interface, so
//! one daemon serves all five, and its [`Dissemination`] names which.
//!
//! Every service shares the client API: local registrations (signed with
//! the node key when there is one) and their acks, hits answered from the
//! node's [`SharedRegistry`], one table of waiting lookups run on the
//! service's retry schedule, and the 10 s purge. The services differ in
//! four places only:
//!
//! | service | a registration | a miss | own timer | accepts on air |
//! |---|---|---|---|---|
//! | `OnDemand` | rides AODV traffic (handler) | floods a query on a service RREQ | — | — |
//! | `Proactive` | is gossiped on OLSR traffic (handler) | waits for gossip | — | — |
//! | `Multicast` | stays local | floods an `MRQST` | — | `MRQST`, `SRVRPLY` |
//! | `FloodRegistrations` | floods a `BREG` at once | waits for the replica | `BREG` re-flood, 10 s | `BREG` |
//! | `Hello(period)` | waits for the next HELLO | waits for the replica | `PHELLO`, every period | `PHELLO` |

use siphoc_routing::wire::{send_control, FloodMemory, Retention};
use siphoc_simnet::ident::KeyPair;
use siphoc_simnet::net::{ports, Addr, Datagram, L2Dst, SocketAddr};
use siphoc_simnet::obs::SpanCat;
use siphoc_simnet::process::{Ctx, LocalEvent, LocalKind, Process, Timed};
use siphoc_simnet::time::{SimDuration, SimTime};

use crate::msg::SlpMsg;
use crate::registry::SharedRegistry;
use crate::service::{ServiceEntry, ServiceQuery};

/// A location service: how entries spread and how a lookup miss resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dissemination {
    /// MANET SLP over AODV: the routing handler advertises own entries on
    /// originated control messages; a miss floods a query on a service
    /// RREQ.
    OnDemand,
    /// MANET SLP over OLSR: the handler gossips the full registry on
    /// periodic control messages; a miss waits for gossip.
    Proactive,
    /// Standard SLP (RFC 2608 multicast convergence): registrations stay
    /// local; a miss floods an `MRQST`, and every service agent holding a
    /// match unicasts a `SRVRPLY` back — under AODV, after a route
    /// discovery. The related work calls this "very inefficient in
    /// MANETs"; E2 and E3 measure it.
    Multicast,
    /// Broadcast REGISTER (Leggio et al.): every registration is flooded
    /// network-wide at once and re-flooded every 10 s; lookups read the
    /// local replica.
    FloodRegistrations,
    /// Proactive HELLO mapping (O'Doherty's Pico SIP): every node
    /// broadcasts its whole mapping table to its neighbours every period,
    /// even when empty; mappings spread epidemically and lookups read the
    /// local replica.
    Hello(SimDuration),
}

impl Dissemination {
    /// The retry schedule of a miss: `rounds` rounds of `round` each, then
    /// "not found". One flood round on demand; long enough for gossip to
    /// arrive when proactive; RFC 2608 §13's `CONFIG_RETRY` and two
    /// retransmissions; one wait for a replica to fill.
    fn retry(self) -> (SimDuration, u32) {
        match self {
            Dissemination::OnDemand => (SimDuration::from_millis(800), 3),
            Dissemination::Proactive => (SimDuration::from_secs(3), 3),
            Dissemination::Multicast => (SimDuration::from_secs(2), 3),
            Dissemination::FloodRegistrations | Dissemination::Hello(_) => {
                (SimDuration::from_secs(2), 1)
            }
        }
    }

    /// Whether a miss (and each retry) floods the network.
    fn floods_lookups(self) -> bool {
        matches!(self, Dissemination::OnDemand | Dissemination::Multicast)
    }

    /// The period of the service's own broadcast, if it has one.
    fn period(self) -> Option<SimDuration> {
        match self {
            Dissemination::FloodRegistrations => Some(REFLOOD_INTERVAL),
            Dissemination::Hello(period) => Some(period),
            _ => None,
        }
    }
}

/// Flood radius of `MRQST` and `BREG` floods.
const FLOOD_TTL: u8 = 16;
/// Broadcast REGISTER's re-flood period.
const REFLOOD_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Period of the registry purge.
const PURGE_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// How long a handled flood is remembered. One exactly 60 s old is
/// forgotten.
const SEEN_RETENTION: Retention = Retention::Below(SimDuration::from_secs(60));

const TAG_QUERY: u64 = 1;
const TAG_PURGE: u64 = 2;
const TAG_PERIOD: u64 = 3;

/// A lookup waiting for its answer.
#[derive(Debug)]
struct Pending {
    xid: u32,
    requester: SocketAddr,
    /// The query; its `qid` is the flood id when the miss floods.
    query: ServiceQuery,
    deadline: SimTime,
    retries_left: u32,
    /// Exhaustive sweep: the miss path runs even when the local registry
    /// already holds matches, and the reply waits for the full deadline
    /// so late answers from distant providers are included.
    exhaustive: bool,
    /// The lookup's span, and its start for the `slp.lookup_us`
    /// histogram.
    span: Timed,
}

/// The SLP daemon process.
#[derive(Debug)]
pub struct SlpDaemon {
    mode: Dissemination,
    registry: SharedRegistry,
    pending: Vec<Pending>,
    /// Id of the last flood this node originated: a query, an `MRQST` or
    /// a `BREG`.
    last_flood: u32,
    /// Other nodes' floods already handled.
    seen: FloodMemory,
    /// When set, every local registration is signed with this key at
    /// creation time (the daemon is the single choke point where entries
    /// are born, so proxy and gateway adverts both come out signed).
    identity: Option<KeyPair>,
}

impl SlpDaemon {
    /// Creates the daemon over the node's registry. Under MANET SLP, pass
    /// the registry the routing handler shares, and the mode that matches
    /// the routing protocol: AODV on demand, OLSR proactive.
    pub fn new(mode: Dissemination, registry: SharedRegistry) -> SlpDaemon {
        SlpDaemon {
            mode,
            registry,
            pending: Vec::new(),
            last_flood: 0,
            seen: FloodMemory::default(),
            identity: None,
        }
    }

    /// Signs all local registrations with `kp` (the node's identity key).
    #[must_use]
    pub fn with_identity(mut self, kp: KeyPair) -> SlpDaemon {
        self.identity = Some(kp);
        self
    }

    /// Entries stored under `(service_type, key)`, as they were stored.
    fn stored(&self, service_type: &str, key: &str, now: SimTime) -> Vec<ServiceEntry> {
        let registry = self.registry.borrow();
        registry
            .lookup(service_type, key, now)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Answers a hit at once; a miss, and any exhaustive sweep, waits on
    /// the service's retry schedule.
    fn lookup(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: SocketAddr,
        xid: u32,
        service_type: String,
        key: String,
        exhaustive: bool,
    ) {
        let now = ctx.now();
        if !exhaustive {
            let found = self.stored(&service_type, &key, now);
            if !found.is_empty() {
                ctx.stats().count("slp.lookup_hit", 1);
                ctx.span_instant(SpanCat::Slp, "slp.hit", Some(&key));
                reply(ctx, from, xid, found);
                return;
            }
            ctx.stats().count("slp.lookup_miss", 1);
        } else {
            ctx.stats().count("slp.lookup_sweep", 1);
        }
        // A wildcard lookup (the gateway probe's empty key) correlates
        // with nothing.
        let span = ctx.span_timed(SpanCat::Slp, "slp.lookup", &key);
        let qid = if self.mode.floods_lookups() {
            self.last_flood += 1;
            self.last_flood
        } else {
            0
        };
        let query = ServiceQuery {
            service_type,
            key,
            origin: ctx.addr(),
            qid: u64::from(qid),
        };
        flood_lookup(ctx, self.mode, &query);
        let (round, rounds) = self.mode.retry();
        self.pending.push(Pending {
            xid,
            requester: from,
            query,
            deadline: now + round,
            retries_left: rounds - 1,
            exhaustive,
            span,
        });
        ctx.set_timer(round, TAG_QUERY);
    }

    /// Drains, then sweeps: what a lookup timer does, and — for the
    /// replicas — what a fresh entry does.
    fn settle(&mut self, ctx: &mut Ctx<'_>) {
        self.drain(ctx);
        self.sweep(ctx);
    }

    /// Answers every waiting lookup the registry can now satisfy.
    /// Exhaustive sweeps are left alone: a first match must not cut their
    /// collection window short — they resolve at the deadline in `sweep`.
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let registry = self.registry.borrow();
        let resolved: Vec<(usize, Vec<ServiceEntry>)> = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.exhaustive)
            .map(|(i, p)| (i, registry.matching(&p.query, now)))
            .filter(|(_, found)| !found.is_empty())
            .collect();
        drop(registry);
        for (i, found) in resolved.into_iter().rev() {
            let p = self.pending.remove(i);
            answer(ctx, p, found);
        }
    }

    /// Retries or finishes every lookup past its deadline: a sweep
    /// answers with whatever the registry gathered, an ordinary lookup out
    /// of retries gives up empty-handed.
    fn sweep(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let (round, _) = self.mode.retry();
        let mut done = Vec::new();
        let mut retries = Vec::new();
        for (i, p) in self.pending.iter_mut().enumerate() {
            if p.deadline > now {
                continue;
            }
            if !p.exhaustive && p.retries_left > 0 {
                p.retries_left -= 1;
                p.deadline = now + round;
                retries.push(p.query.clone());
            } else {
                done.push(i);
            }
        }
        for i in done.into_iter().rev() {
            let p = self.pending.remove(i);
            let found = if p.exhaustive {
                self.registry.borrow().matching(&p.query, now)
            } else {
                Vec::new()
            };
            answer(ctx, p, found);
        }
        // Proactive lookups share one timer per sweep; every other service
        // arms one per retry.
        if self.mode == Dissemination::Proactive {
            if !self.pending.is_empty() {
                ctx.set_timer(round, TAG_QUERY);
            }
        } else {
            for q in retries {
                flood_lookup(ctx, self.mode, &q);
                ctx.set_timer(round, TAG_QUERY);
            }
        }
    }

    /// A replica learns an entry; a fresh one settles the waiting lookups.
    fn absorb(&mut self, ctx: &mut Ctx<'_>, entry: ServiceEntry) {
        let fresh = self.registry.borrow_mut().absorb(entry, ctx.now());
        if fresh {
            self.settle(ctx);
        }
    }

    /// Broadcast REGISTER: floods the node's own entries, if it has any.
    fn flood_own(&mut self, ctx: &mut Ctx<'_>) {
        let entries = self.registry.borrow().local_entries(ctx.now());
        if entries.is_empty() {
            return;
        }
        self.last_flood += 1;
        let msg = SlpMsg::FloodReg {
            origin: ctx.addr(),
            fid: self.last_flood,
            ttl: FLOOD_TTL,
            entries,
        };
        send_control(ctx, L2Dst::Broadcast, "bcast_reg.flood", &msg);
    }
}

/// What a miss triggers, and each retry repeats: on demand the query
/// floods on a service RREQ, under standard SLP as an `MRQST`.
fn flood_lookup(ctx: &mut Ctx<'_>, mode: Dissemination, query: &ServiceQuery) {
    match mode {
        Dissemination::OnDemand => {
            let query = query.to_wire();
            ctx.stats().count("slp.query_flood", query.len());
            ctx.emit(LocalEvent::FloodQuery { query });
        }
        Dissemination::Multicast => {
            let own = ctx.addr();
            let msg = SlpMsg::McastRqst {
                origin: own,
                fid: query.qid as u32,
                ttl: FLOOD_TTL,
                reply_to: SocketAddr::new(own, ports::SLP),
                service_type: query.service_type.clone(),
                key: query.key.clone(),
            };
            send_control(ctx, L2Dst::Broadcast, "slp_std.mrqst", &msg);
        }
        _ => {}
    }
}

/// Answers a waiting lookup; empty `entries` means not found.
fn answer(ctx: &mut Ctx<'_>, mut p: Pending, entries: Vec<ServiceEntry>) {
    let waited = p.span.close(ctx, !entries.is_empty());
    if entries.is_empty() && !p.exhaustive {
        ctx.stats().count("slp.lookup_failed", 1);
    } else {
        ctx.obs().hist_record("slp.lookup_us", waited);
    }
    reply(ctx, p.requester, p.xid, entries);
}

/// Sends a lookup result to a client of the local API.
fn reply(ctx: &mut Ctx<'_>, client: SocketAddr, xid: u32, entries: Vec<ServiceEntry>) {
    let msg = SlpMsg::SrvRply { xid, entries };
    ctx.send(Datagram::new(loopback_api(), client, msg.to_wire()));
}

fn loopback_api() -> SocketAddr {
    SocketAddr::new(Addr::LOOPBACK, ports::SLP)
}

impl Process for SlpDaemon {
    fn name(&self) -> &'static str {
        match self.mode {
            Dissemination::OnDemand | Dissemination::Proactive => "manet-slp",
            Dissemination::Multicast => "standard-slp",
            Dissemination::FloodRegistrations => "bcast-registration",
            Dissemination::Hello(_) => "proactive-hello",
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::SLP);
        ctx.take_local(&[LocalKind::HandlerUpdated]);
        for mut p in self.pending.drain(..) {
            p.span.close(ctx, false);
        }
        // After a crash, learned entries may name nodes that left (the
        // paper's churn): keep only the node's own; gossip re-fills.
        let dropped = self.registry.borrow_mut().drop_remote();
        if dropped > 0 {
            ctx.stats().count("slp.purged_restart", dropped);
        }
        // The service's own broadcast starts at a random phase of its
        // period.
        if let Some(period) = self.mode.period() {
            let phase = ctx.rng().range_u64(0, period.as_micros().max(1));
            ctx.set_timer(SimDuration::from_micros(phase), TAG_PERIOD);
        }
        ctx.set_timer(PURGE_INTERVAL, TAG_PURGE);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let Ok(mut msg) = SlpMsg::parse(&dgram.payload) else {
            ctx.stats().count("slp.malformed", dgram.payload.len());
            return;
        };
        let ack = |ctx: &mut Ctx<'_>, xid| {
            let msg = SlpMsg::SrvAck { xid };
            ctx.send(Datagram::new(loopback_api(), dgram.src, msg.to_wire()));
        };
        match msg {
            SlpMsg::SrvReg {
                xid,
                service_type,
                key,
                contact,
                lifetime_secs,
            } => {
                let mut registry = self.registry.borrow_mut();
                let entry = ServiceEntry {
                    service_type,
                    key,
                    contact,
                    origin: ctx.addr(),
                    seq: registry.next_seq(),
                    lifetime_secs,
                    auth: None,
                };
                let entry = match &self.identity {
                    Some(kp) => entry.signed(kp),
                    None => entry,
                };
                registry.register_local(entry, ctx.now());
                drop(registry);
                ack(ctx, xid);
                // The defining behaviour of broadcast REGISTER.
                if self.mode == Dissemination::FloodRegistrations {
                    self.flood_own(ctx);
                }
            }
            SlpMsg::SrvDeReg {
                xid,
                service_type,
                key,
            } => {
                let origin = ctx.addr();
                self.registry
                    .borrow_mut()
                    .deregister_local(&service_type, &key, origin);
                ack(ctx, xid);
            }
            SlpMsg::SrvRqst {
                xid,
                service_type,
                key,
            } => self.lookup(ctx, dgram.src, xid, service_type, key, false),
            SlpMsg::SrvRqstX {
                xid,
                service_type,
                key,
            } => self.lookup(ctx, dgram.src, xid, service_type, key, true),
            SlpMsg::McastRqst {
                origin,
                fid,
                ref mut ttl,
                reply_to,
                ref service_type,
                ref key,
            } if self.mode == Dissemination::Multicast => {
                if !self.seen.first_sight(ctx.addr(), origin, fid, ctx.now()) {
                    return;
                }
                // Standard SLP service agents speak for themselves: the
                // registry holds local registrations only.
                let found = self.stored(service_type, key, ctx.now());
                if !found.is_empty() {
                    let rply = SlpMsg::SrvRply {
                        xid: fid,
                        entries: found,
                    }
                    .to_wire();
                    ctx.stats().count("slp_std.rply", rply.len());
                    // Routed unicast: under AODV this triggers route
                    // discovery.
                    ctx.send_to(reply_to, ports::SLP, rply);
                }
                if *ttl > 1 {
                    *ttl -= 1;
                    send_control(ctx, L2Dst::Broadcast, "slp_std.mrqst", &msg);
                }
            }
            SlpMsg::SrvRply { xid, entries } if self.mode == Dissemination::Multicast => {
                // A service agent's answer to this node's `MRQST`, matched
                // by flood id: the first answer wins.
                let fid = u64::from(xid);
                if let Some(i) = self.pending.iter().position(|p| p.query.qid == fid) {
                    let p = self.pending.remove(i);
                    answer(ctx, p, entries);
                }
            }
            SlpMsg::FloodReg {
                origin,
                fid,
                ref mut ttl,
                ref entries,
            } if self.mode == Dissemination::FloodRegistrations => {
                if !self.seen.first_sight(ctx.addr(), origin, fid, ctx.now()) {
                    return;
                }
                for e in entries {
                    self.absorb(ctx, e.clone());
                }
                if *ttl > 1 {
                    *ttl -= 1;
                    send_control(ctx, L2Dst::Broadcast, "bcast_reg.flood", &msg);
                }
            }
            SlpMsg::Hello { entries } if matches!(self.mode, Dissemination::Hello(_)) => {
                if dgram.src.addr != ctx.addr() {
                    for e in entries {
                        self.absorb(ctx, e);
                    }
                }
            }
            _ => ctx.stats().count("slp.unexpected_msg", dgram.payload.len()),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TAG_QUERY => self.settle(ctx),
            TAG_PURGE => {
                let now = ctx.now();
                self.registry.borrow_mut().purge(now);
                self.seen.forget(now, SEEN_RETENTION);
                ctx.set_timer(PURGE_INTERVAL, TAG_PURGE);
            }
            TAG_PERIOD => {
                let Some(period) = self.mode.period() else {
                    return;
                };
                if self.mode == Dissemination::FloodRegistrations {
                    self.flood_own(ctx);
                } else {
                    // HELLOs go out even when empty — "inefficient
                    // utilization of resources if the mappings remain
                    // unused" is the measured claim.
                    let entries = self.registry.borrow().all_entries(ctx.now());
                    let msg = SlpMsg::Hello { entries };
                    send_control(ctx, L2Dst::Broadcast, "phello.hello", &msg);
                }
                ctx.set_timer(period, TAG_PERIOD);
            }
            _ => {}
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        // MANET SLP's handler absorbed fresh piggybacked entries.
        if *ev == LocalEvent::HandlerUpdated {
            self.drain(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manet::ManetSlpHandler;
    use crate::registry::shared_registry;
    use siphoc_routing::aodv::AodvProcess;
    use siphoc_routing::olsr::OlsrProcess;
    use siphoc_simnet::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const CLIENT_PORT: u16 = 9427;

    /// Every service, with HELLOs every 2 s so a short chain converges
    /// quickly.
    const SERVICES: [Dissemination; 5] = [
        Dissemination::OnDemand,
        Dissemination::Proactive,
        Dissemination::Multicast,
        Dissemination::FloodRegistrations,
        Dissemination::Hello(SimDuration::from_secs(2)),
    ];

    type Log = Rc<RefCell<Vec<(SimTime, SlpMsg)>>>;

    /// A scripted client of the local API: sends each payload at its
    /// time, and logs every answer.
    struct Client {
        script: Vec<(SimTime, Vec<u8>)>,
        log: Log,
    }

    impl Process for Client {
        fn name(&self) -> &'static str {
            "slp-client"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(CLIENT_PORT);
            for (i, (at, _)) in self.script.iter().enumerate() {
                ctx.set_timer(at.saturating_since(ctx.now()), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let payload = self.script[token as usize].1.clone();
            ctx.send_local(ports::SLP, CLIENT_PORT, payload);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
            let msg = SlpMsg::parse(&dgram.payload).expect("the daemon answers in SLP");
            self.log.borrow_mut().push((ctx.now(), msg));
        }
    }

    fn client(w: &mut World, node: NodeId, script: Vec<(SimTime, Vec<u8>)>) -> Log {
        let log = Log::default();
        let client = Client {
            script,
            log: log.clone(),
        };
        w.spawn(node, Box::new(client));
        log
    }

    fn reg(xid: u32, key: &str, contact: &str) -> Vec<u8> {
        SlpMsg::SrvReg {
            xid,
            service_type: "sip".into(),
            key: key.into(),
            contact: contact.parse().unwrap(),
            lifetime_secs: 600,
        }
        .to_wire()
    }

    fn rqst(xid: u32, key: &str) -> Vec<u8> {
        SlpMsg::SrvRqst {
            xid,
            service_type: "sip".into(),
            key: key.into(),
        }
        .to_wire()
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// `n` nodes 80 m apart, each running `mode`'s routing protocol —
    /// with MANET SLP's handler for the two MANET modes — and a daemon.
    fn chain(mode: Dissemination, n: usize) -> (World, Vec<(NodeId, SharedRegistry)>) {
        let mut w = World::new(WorldConfig::new(32).with_radio(RadioConfig::ideal()));
        let nodes = (0..n)
            .map(|i| {
                let id = w.add_node(NodeConfig::manet(i as f64 * 80.0, 0.0));
                let registry = shared_registry();
                let handler =
                    || Rc::new(RefCell::new(ManetSlpHandler::new(registry.clone(), mode)));
                let routing: Box<dyn Process> = match mode {
                    Dissemination::OnDemand => Box::new(AodvProcess::new().with_handler(handler())),
                    Dissemination::Proactive => {
                        Box::new(OlsrProcess::new().with_handler(handler()))
                    }
                    _ => Box::new(AodvProcess::new()),
                };
                w.spawn(id, routing);
                w.spawn(id, Box::new(SlpDaemon::new(mode, registry.clone())));
                (id, registry)
            })
            .collect();
        (w, nodes)
    }

    #[test]
    fn every_service_answers_the_client_api_alike() {
        // Request and answer each cross the 50 µs loopback once.
        let loopback = SimDuration::from_micros(2 * 50);
        for mode in SERVICES {
            let (mut w, nodes) = chain(mode, 1);
            let dereg = SlpMsg::SrvDeReg {
                xid: 3,
                service_type: "sip".into(),
                key: "alice@v.ch".into(),
            };
            let log = client(
                &mut w,
                nodes[0].0,
                vec![
                    (ms(100), reg(1, "alice@v.ch", "10.0.0.1:5060")),
                    (ms(200), rqst(2, "alice@v.ch")),
                    (ms(300), dereg.to_wire()),
                    (ms(400), rqst(4, "alice@v.ch")),
                    (ms(500), b"SRVREG not-a-number".to_vec()),
                ],
            );
            w.run_for(SimDuration::from_secs(20));
            let alice = ServiceEntry::sip_binding(
                "alice@v.ch",
                "10.0.0.1:5060".parse().unwrap(),
                Addr::manet(0),
                1,
                600,
            );
            let (round, rounds) = mode.retry();
            let deadline = ms(400) + round * u64::from(rounds);
            let expected = vec![
                (ms(100) + loopback, SlpMsg::SrvAck { xid: 1 }),
                (
                    ms(200) + loopback,
                    SlpMsg::SrvRply {
                        xid: 2,
                        entries: vec![alice],
                    },
                ),
                (ms(300) + loopback, SlpMsg::SrvAck { xid: 3 }),
                (
                    deadline + loopback,
                    SlpMsg::SrvRply {
                        xid: 4,
                        entries: vec![],
                    },
                ),
            ];
            assert_eq!(*log.borrow(), expected, "{mode:?}");
            let stats = w.stats(nodes[0].0);
            for (counter, n) in [
                ("slp.lookup_hit", 1),
                ("slp.lookup_miss", 1),
                ("slp.lookup_failed", 1),
                ("slp.malformed", 1),
                ("slp.unexpected_msg", 0),
            ] {
                assert_eq!(stats.get(counter).packets, n, "{mode:?} {counter}");
            }
        }
    }

    #[test]
    fn lookup_for_unknown_service_reports_empty_after_retries() {
        // Every round of a miss floods on demand and under standard SLP;
        // the replicated services wait once.
        for (mode, round_ms, rounds, flood, floods) in [
            (SERVICES[0], 800, 3, "slp.query_flood", 3),
            (SERVICES[1], 3000, 3, "slp.query_flood", 0),
            (SERVICES[2], 2000, 3, "slp_std.mrqst", 3),
            (SERVICES[3], 2000, 1, "bcast_reg.flood", 0),
            (SERVICES[4], 2000, 1, "slp.query_flood", 0),
        ] {
            let (mut w, nodes) = chain(mode, 1);
            let log = client(&mut w, nodes[0].0, vec![(ms(100), rqst(2, "ghost@v.ch"))]);
            w.run_for(SimDuration::from_secs(20));
            let loopback = SimDuration::from_micros(2 * 50);
            let answered = ms(100 + rounds * round_ms) + loopback;
            let empty = SlpMsg::SrvRply {
                xid: 2,
                entries: vec![],
            };
            assert_eq!(*log.borrow(), vec![(answered, empty)], "{mode:?}");
            let stats = w.stats(nodes[0].0);
            assert_eq!(stats.get(flood).packets, floods, "{mode:?}");
            assert_eq!(stats.get("slp.lookup_failed").packets, 1, "{mode:?}");
        }
    }

    #[test]
    fn every_service_resolves_a_binding_three_hops_away() {
        // (service, lookup at, answered within): MANET SLP on demand floods
        // one query round; standard SLP floods an MRQST whose answer
        // needs an AODV route discovery; the rest answer from the local
        // replica once gossip, the flood or the HELLOs brought it.
        for (mode, at, within) in [
            (SERVICES[0], 3, 100),
            (SERVICES[1], 30, 10),
            (SERVICES[2], 2, 5000),
            (SERVICES[3], 2, 10),
            (SERVICES[4], 15, 10),
        ] {
            let (mut w, nodes) = chain(mode, 4);
            let (near, far) = (nodes[0].0, nodes[3].0);
            client(
                &mut w,
                far,
                vec![(ms(0), reg(1, "bob@v.ch", "10.0.0.4:5060"))],
            );
            let asked = SimTime::from_secs(at);
            let log = client(&mut w, near, vec![(asked, rqst(2, "bob@v.ch"))]);
            w.run_for(SimDuration::from_secs(at + 5));
            let log = log.borrow();
            let [(answered, SlpMsg::SrvRply { entries, .. })] = &log[..] else {
                panic!("{mode:?}: one reply expected, got {log:?}");
            };
            assert_eq!(entries.len(), 1, "{mode:?}: {entries:?}");
            assert_eq!(entries[0].contact.to_string(), "10.0.0.4:5060");
            let latency = answered.saturating_since(asked);
            assert!(
                latency < SimDuration::from_millis(within),
                "{mode:?}: {latency}"
            );
            // Every service but standard SLP leaves the binding in the
            // near node's registry: replicated, or cached from the
            // service RREP.
            let cached = !nodes[0]
                .1
                .borrow()
                .lookup("sip", "bob@v.ch", w.now())
                .is_empty();
            assert_eq!(cached, mode != Dissemination::Multicast, "{mode:?}");
            match mode {
                // The service RREP also taught the near node a route.
                Dissemination::OnDemand => assert!(w
                    .node(near)
                    .routes()
                    .lookup(Addr::manet(3), w.now())
                    .is_some()),
                // Both middle nodes forwarded the flood.
                Dissemination::Multicast => {
                    for &(id, _) in &nodes[1..3] {
                        assert!(w.stats(id).get("slp_std.mrqst").packets >= 1);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn proactive_hello_sends_even_with_no_mappings() {
        let (mut w, nodes) = chain(SERVICES[4], 2);
        w.run_for(SimDuration::from_secs(10));
        // The cited inefficiency: resources burned with zero users.
        assert!(w.stats(nodes[0].0).get("phello.hello").packets >= 4);
    }

    /// The flood memory under each caller's rule, at the boundary: AODV
    /// forgets a RREQ exactly 10 s old, OLSR still holds a TC exactly
    /// 30 s old and forgets it 1 µs later, and this daemon forgets a flood
    /// exactly 60 s old. None takes a repeat, or the node's own flood, for
    /// a first sight.
    #[test]
    fn each_flood_memory_keeps_its_callers_retention() {
        use siphoc_routing::{aodv::RREQ_RETENTION, olsr::TC_RETENTION};
        let (own, other) = (Addr::manet(0), Addr::manet(1));
        let t0 = SimTime::from_secs(5);
        // `(rule, the oldest age still held)`, in µs.
        for (keep, held) in [
            (RREQ_RETENTION, 9_999_999),
            (TC_RETENTION, 30_000_000),
            (SEEN_RETENTION, 59_999_999),
        ] {
            for (age, kept) in [(held, true), (held + 1, false)] {
                let mut m = FloodMemory::default();
                assert!(m.first_sight(own, other, 7, t0));
                assert!(!m.first_sight(own, other, 7, t0), "a repeat");
                assert!(!m.first_sight(own, own, 7, t0), "the node's own flood");
                let now = t0 + SimDuration::from_micros(age);
                m.forget(now, keep);
                assert_eq!(
                    m.first_sight(own, other, 7, now),
                    !kept,
                    "{keep:?} at {age} µs"
                );
            }
        }
    }
}
