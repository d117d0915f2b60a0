//! MANET SLP: the paper's distributed service location layer.
//!
//! Two cooperating pieces per node share one [`SlpRegistry`]:
//!
//! * [`ManetSlpHandler`] — the routing-handler plugin ("the routing
//!   specific functionality is encapsulated within a routing handler"). It
//!   piggybacks registrations onto routing control messages, absorbs the
//!   ones it sees, and — on AODV service-query RREQs — produces answers
//!   that ride back on the route reply (paper Fig. 5).
//! * [`ManetSlpProcess`] — the SLP daemon offering the standard SLP
//!   interface on `127.0.0.1:427` to the SIPHoc proxy and the Gateway /
//!   Connection Providers. Lookups are answered from the shared registry;
//!   misses (in on-demand mode) trigger a routing-layer query flood.
//!
//! Dissemination style follows the routing protocol: with **AODV** the
//! handler attaches the node's *own* registrations to originated control
//! traffic and resolves misses with query floods (on-demand); with
//! **OLSR** every node gossips *everything it knows* on periodic
//! HELLO/TC messages, so the registry fully replicates and lookups are
//! local (proactive). Experiment E7 contrasts the two.

use std::cell::RefCell;
use std::rc::Rc;

use siphoc_simnet::net::{ports, Addr, Datagram, SocketAddr};
use siphoc_simnet::obs::{SpanCat, SpanId};
use siphoc_simnet::process::{Ctx, LocalEvent, Process};
use siphoc_simnet::time::{SimDuration, SimTime};

use siphoc_routing::handler::{MsgKind, RoutingHandler, FLOOD_QUERY_EVENT, HANDLER_UPDATED_EVENT};

use siphoc_simnet::ident::KeyPair;

use crate::msg::SlpMsg;
use crate::registry::{Absorb, SlpRegistry};
use crate::service::{ServiceEntry, ServiceQuery, SlpRecord};

/// How registrations spread through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dissemination {
    /// AODV style: advertise own entries on originated control messages;
    /// resolve lookup misses by flooding a query on a service RREQ.
    OnDemand,
    /// OLSR style: gossip the full registry on periodic control messages;
    /// lookups only consult the (eventually complete) local registry.
    Proactive,
}

/// Additional flood rounds before a lookup reports "not found".
const QUERY_RETRIES: u32 = 2;

impl Dissemination {
    /// How long a lookup waits before retrying: one flood round on
    /// demand, long enough for gossip to arrive when proactive.
    fn query_timeout(self) -> SimDuration {
        match self {
            Dissemination::OnDemand => SimDuration::from_millis(800),
            Dissemination::Proactive => SimDuration::from_secs(3),
        }
    }
}

/// The registry shared between daemon and handler.
pub type SharedRegistry = Rc<RefCell<SlpRegistry>>;

/// Creates a fresh shared registry.
pub fn shared_registry() -> SharedRegistry {
    Rc::new(RefCell::new(SlpRegistry::new()))
}

/// The routing-handler side of MANET SLP.
#[derive(Debug)]
pub struct ManetSlpHandler {
    registry: SharedRegistry,
    mode: Dissemination,
    /// Minimum interval between re-attaching an *unchanged* entry to
    /// periodic control messages. Changed entries (new sequence number)
    /// go out immediately; on-demand messages (AODV RREQ/RREP) always
    /// carry current entries since they are rare and latency-critical.
    min_readvertise: SimDuration,
    /// `(type, key, origin)` → `(seq, last attached)`.
    attach_log: std::collections::BTreeMap<(String, String, Addr), (u64, SimTime)>,
}

impl ManetSlpHandler {
    /// Creates the handler over a shared registry with the default 8 s
    /// re-advertisement throttle.
    pub fn new(registry: SharedRegistry, mode: Dissemination) -> ManetSlpHandler {
        ManetSlpHandler {
            registry,
            mode,
            min_readvertise: SimDuration::from_secs(8),
            attach_log: std::collections::BTreeMap::new(),
        }
    }

    /// Overrides the re-advertisement throttle ([`SimDuration::ZERO`]
    /// attaches everything to every message — the A1 ablation's
    /// unthrottled variant).
    pub fn with_min_readvertise(mut self, min: SimDuration) -> ManetSlpHandler {
        self.min_readvertise = min;
        self
    }

    /// Filters `entries` down to those not recently attached unchanged,
    /// updating the attach log for the survivors.
    fn throttle(&mut self, entries: Vec<ServiceEntry>, now: SimTime) -> Vec<ServiceEntry> {
        if self.min_readvertise.is_zero() {
            return entries;
        }
        entries
            .into_iter()
            .filter(|e| {
                let key = (e.service_type.clone(), e.key.clone(), e.origin);
                match self.attach_log.get(&key) {
                    Some((seq, last))
                        if *seq >= e.seq && now.saturating_since(*last) < self.min_readvertise =>
                    {
                        false
                    }
                    _ => {
                        self.attach_log.insert(key, (e.seq, now));
                        true
                    }
                }
            })
            .collect()
    }
}

impl RoutingHandler for ManetSlpHandler {
    fn name(&self) -> &'static str {
        "manet-slp"
    }

    fn collect_outgoing(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: MsgKind,
        _budget: usize,
    ) -> Vec<Vec<u8>> {
        let now = ctx.now();
        let entries = {
            let reg = self.registry.borrow();
            match self.mode {
                Dissemination::OnDemand => {
                    // Own registrations ride originated control messages;
                    // learned ones are served on demand via query replies.
                    reg.local_entries(now)
                }
                Dissemination::Proactive => match kind {
                    // Full gossip on network-wide and one-hop messages
                    // alike; hop-by-hop relay of learned entries is what
                    // replicates the registry everywhere.
                    MsgKind::OlsrHello | MsgKind::OlsrTc | MsgKind::AodvHello => {
                        reg.all_entries(now)
                    }
                    _ => reg.local_entries(now),
                },
            }
        };
        // Periodic vehicles are throttled; on-demand ones carry current
        // state (a service RREP must answer even if recently advertised).
        let entries = match kind {
            MsgKind::AodvHello | MsgKind::OlsrHello | MsgKind::OlsrTc => {
                self.throttle(entries, now)
            }
            MsgKind::AodvRreq | MsgKind::AodvRrep => entries,
        };
        entries.iter().map(ServiceEntry::to_wire).collect()
    }

    fn process_incoming(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: MsgKind,
        _from: Addr,
        _origin: Addr,
        entries: &[Vec<u8>],
    ) -> Vec<Vec<u8>> {
        let now = ctx.now();
        let mut answers = Vec::new();
        let mut changed = false;
        for raw in entries {
            match SlpRecord::parse(raw) {
                Ok(SlpRecord::Reg(e)) => match self.registry.borrow_mut().absorb_checked(e, now) {
                    Absorb::Fresh => changed = true,
                    Absorb::Stale => {}
                    Absorb::Unsigned | Absorb::BadSig => {
                        ctx.stats().count("slp.auth_reject", raw.len());
                    }
                    Absorb::PinMismatch => {
                        ctx.stats().count("slp.auth_pin_reject", raw.len());
                    }
                },
                Ok(SlpRecord::Query(q)) => {
                    if kind == MsgKind::AodvRreq {
                        for m in self.registry.borrow().matching(&q, now) {
                            answers.push(m.to_wire());
                        }
                    }
                }
                Err(_) => {
                    ctx.stats().count("slp.malformed_record", raw.len());
                }
            }
        }
        if changed {
            ctx.emit(LocalEvent::Custom {
                kind: HANDLER_UPDATED_EVENT,
                data: Vec::new(),
            });
        }
        answers
    }
}

const TAG_QUERY: u64 = 1;
const TAG_PURGE: u64 = 2;

#[derive(Debug)]
struct PendingQuery {
    xid: u32,
    requester: SocketAddr,
    query: ServiceQuery,
    deadline: SimTime,
    retries_left: u32,
    /// Exhaustive sweep: the network flood runs even when the local
    /// registry already holds matches, and the reply waits for the full
    /// deadline so late answers from distant providers are included.
    exhaustive: bool,
    /// Open observability span covering the distributed lookup.
    span: SpanId,
    /// When the lookup started, for the `slp.lookup_us` histogram.
    started_us: u64,
}

/// The MANET SLP daemon process.
pub struct ManetSlpProcess {
    mode: Dissemination,
    registry: SharedRegistry,
    pending: Vec<PendingQuery>,
    next_qid: u64,
    /// When set, every local registration is signed with this key at
    /// creation time (the daemon is the single choke point where entries
    /// are born, so proxy and gateway adverts both come out signed).
    identity: Option<KeyPair>,
}

impl std::fmt::Debug for ManetSlpProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManetSlpProcess")
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl ManetSlpProcess {
    /// Creates the daemon over a shared registry; match `mode` to the
    /// routing protocol in use.
    pub fn new(mode: Dissemination, registry: SharedRegistry) -> ManetSlpProcess {
        ManetSlpProcess {
            mode,
            registry,
            pending: Vec::new(),
            next_qid: 0,
            identity: None,
        }
    }

    /// Signs all local registrations with `kp` (the node's identity key).
    #[must_use]
    pub fn with_identity(mut self, kp: KeyPair) -> ManetSlpProcess {
        self.identity = Some(kp);
        self
    }

    fn reply(&self, ctx: &mut Ctx<'_>, to: SocketAddr, xid: u32, entries: Vec<ServiceEntry>) {
        let msg = SlpMsg::SrvRply { xid, entries };
        let src = SocketAddr::new(Addr::LOOPBACK, ports::SLP);
        ctx.send(Datagram::new(src, to, msg.to_wire()));
    }

    fn flood(&mut self, ctx: &mut Ctx<'_>, query: &ServiceQuery) {
        ctx.stats().count("slp.query_flood", query.to_wire().len());
        ctx.emit(LocalEvent::Custom {
            kind: FLOOD_QUERY_EVENT,
            data: query.to_wire(),
        });
    }

    fn handle_lookup(
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
            let found: Vec<ServiceEntry> = self
                .registry
                .borrow()
                .lookup(&service_type, &key, now)
                .into_iter()
                .cloned()
                .collect();
            if !found.is_empty() {
                ctx.stats().count("slp.lookup_hit", 1);
                ctx.span_instant(SpanCat::Slp, "slp.hit", Some(&key));
                self.reply(ctx, from, xid, found);
                return;
            }
            ctx.stats().count("slp.lookup_miss", 1);
        } else {
            ctx.stats().count("slp.lookup_sweep", 1);
        }
        let span = ctx.span_enter(SpanCat::Slp, "slp.lookup");
        // Wildcard lookups (e.g. the gateway probe's empty key) have no
        // meaningful correlation; an empty key would render as its own
        // bogus per-call group in the Chrome trace.
        if !key.is_empty() {
            ctx.obs().span_corr(span, &key);
        }
        let started_us = ctx.now_us();
        self.next_qid += 1;
        let query = ServiceQuery {
            service_type,
            key,
            origin: ctx.addr(),
            qid: self.next_qid,
        };
        if self.mode == Dissemination::OnDemand {
            self.flood(ctx, &query);
        }
        let deadline = now + self.mode.query_timeout();
        self.pending.push(PendingQuery {
            xid,
            requester: from,
            query,
            deadline,
            retries_left: QUERY_RETRIES,
            exhaustive,
            span,
            started_us,
        });
        ctx.set_timer(self.mode.query_timeout(), TAG_QUERY);
    }

    /// Answers any pending query the registry can now satisfy. Exhaustive
    /// sweeps are excluded: a first match must not cut their collection
    /// window short — they resolve at the deadline in `sweep_deadlines`.
    fn drain_pending(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut resolved = Vec::new();
        for (i, p) in self.pending.iter().enumerate() {
            if p.exhaustive {
                continue;
            }
            let found = self.registry.borrow().matching(&p.query, now);
            if !found.is_empty() {
                resolved.push((i, p.requester, p.xid, found, p.span, p.started_us));
            }
        }
        for (i, requester, xid, found, span, started_us) in resolved.into_iter().rev() {
            self.pending.remove(i);
            ctx.span_exit(span, true);
            let waited = ctx.now_us().saturating_sub(started_us);
            ctx.obs().hist_record("slp.lookup_us", waited);
            self.reply(ctx, requester, xid, found);
        }
    }

    fn sweep_deadlines(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let timeout = self.mode.query_timeout();
        // (index, finished-sweep?) — sweeps resolve with whatever the
        // registry gathered; ordinary queries give up empty-handed.
        let mut done = Vec::new();
        let mut refloods = Vec::new();
        for (i, p) in self.pending.iter_mut().enumerate() {
            if p.deadline > now {
                continue;
            }
            if p.exhaustive {
                done.push((i, true));
            } else if p.retries_left > 0 {
                p.retries_left -= 1;
                p.deadline = now + timeout;
                refloods.push(p.query.clone());
            } else {
                done.push((i, false));
            }
        }
        for (i, sweep) in done.into_iter().rev() {
            let p = self.pending.remove(i);
            let found = if sweep {
                self.registry.borrow().matching(&p.query, now)
            } else {
                ctx.stats().count("slp.lookup_failed", 1);
                Vec::new()
            };
            ctx.span_exit(p.span, !found.is_empty());
            if sweep {
                let waited = ctx.now_us().saturating_sub(p.started_us);
                ctx.obs().hist_record("slp.lookup_us", waited);
            }
            self.reply(ctx, p.requester, p.xid, found);
        }
        if self.mode == Dissemination::OnDemand {
            for q in refloods {
                self.flood(ctx, &q);
                ctx.set_timer(timeout, TAG_QUERY);
            }
        } else if !self.pending.is_empty() {
            ctx.set_timer(timeout, TAG_QUERY);
        }
    }
}

impl Process for ManetSlpProcess {
    fn name(&self) -> &'static str {
        "manet-slp"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::SLP);
        ctx.set_timer(SimDuration::from_secs(10), TAG_PURGE);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let Ok(msg) = SlpMsg::parse(&dgram.payload) else {
            ctx.stats().count("slp.malformed", dgram.payload.len());
            return;
        };
        match msg {
            SlpMsg::SrvReg {
                xid,
                service_type,
                key,
                contact,
                lifetime_secs,
            } => {
                let now = ctx.now();
                let origin = ctx.addr();
                let mut reg = self.registry.borrow_mut();
                let seq = reg.next_seq();
                let entry = ServiceEntry {
                    service_type,
                    key,
                    contact,
                    origin,
                    seq,
                    lifetime_secs,
                    auth: None,
                };
                let entry = match &self.identity {
                    Some(kp) => entry.signed(kp),
                    None => entry,
                };
                reg.register_local(entry, now);
                drop(reg);
                let src = SocketAddr::new(Addr::LOOPBACK, ports::SLP);
                ctx.send(Datagram::new(
                    src,
                    dgram.src,
                    SlpMsg::SrvAck { xid }.to_wire(),
                ));
                // New local state may answer someone's outstanding query on
                // the next control message; nothing further to do here.
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
                let src = SocketAddr::new(Addr::LOOPBACK, ports::SLP);
                ctx.send(Datagram::new(
                    src,
                    dgram.src,
                    SlpMsg::SrvAck { xid }.to_wire(),
                ));
            }
            SlpMsg::SrvRqst {
                xid,
                service_type,
                key,
            } => {
                self.handle_lookup(ctx, dgram.src, xid, service_type, key, false);
            }
            SlpMsg::SrvRqstX {
                xid,
                service_type,
                key,
            } => {
                self.handle_lookup(ctx, dgram.src, xid, service_type, key, true);
            }
            _ => {
                ctx.stats().count("slp.unexpected_msg", dgram.payload.len());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TAG_QUERY => {
                self.drain_pending(ctx);
                self.sweep_deadlines(ctx);
            }
            TAG_PURGE => {
                let now = ctx.now();
                self.registry.borrow_mut().purge(now);
                ctx.set_timer(SimDuration::from_secs(10), TAG_PURGE);
            }
            _ => {}
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        match ev {
            LocalEvent::Custom { kind, .. } if *kind == HANDLER_UPDATED_EVENT => {
                self.drain_pending(ctx);
            }
            LocalEvent::NodeRestarted => {
                for p in self.pending.drain(..) {
                    ctx.span_exit(p.span, false);
                }
                // Entries learned before the crash may describe a network
                // that no longer exists (the paper's churn scenario: nodes
                // and gateways leave at any time). Keep only what this
                // node itself advertises; fresh gossip re-fills the rest.
                let dropped = self.registry.borrow_mut().drop_remote();
                if dropped > 0 {
                    ctx.stats().count("slp.purged_restart", dropped);
                }
                ctx.set_timer(SimDuration::from_secs(10), TAG_PURGE);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_routing::aodv::AodvProcess;
    use siphoc_routing::olsr::OlsrProcess;
    use siphoc_simnet::prelude::*;

    /// Test client that registers a service and/or performs one lookup.
    #[allow(clippy::type_complexity)]
    struct SlpClient {
        register: Option<(String, String, SocketAddr)>,
        lookup_at: Option<(SimTime, String, String)>,
        replies: Rc<RefCell<Vec<(SimTime, Vec<ServiceEntry>)>>>,
    }

    impl SlpClient {
        #[allow(clippy::type_complexity)]
        fn new(
            register: Option<(String, String, SocketAddr)>,
            lookup_at: Option<(SimTime, String, String)>,
        ) -> (SlpClient, Rc<RefCell<Vec<(SimTime, Vec<ServiceEntry>)>>>) {
            let replies = Rc::new(RefCell::new(Vec::new()));
            (
                SlpClient {
                    register,
                    lookup_at,
                    replies: replies.clone(),
                },
                replies,
            )
        }
    }

    impl Process for SlpClient {
        fn name(&self) -> &'static str {
            "slp-client"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(9427);
            if let Some((t, k, contact)) = self.register.take() {
                let m = SlpMsg::SrvReg {
                    xid: 1,
                    service_type: t,
                    key: k,
                    contact,
                    lifetime_secs: 600,
                };
                ctx.send_local(ports::SLP, 9427, m.to_wire());
            }
            if let Some((at, _, _)) = &self.lookup_at {
                let delay = at.saturating_since(ctx.now());
                ctx.set_timer(delay, 7);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token == 7 {
                if let Some((_, t, k)) = self.lookup_at.take() {
                    let m = SlpMsg::SrvRqst {
                        xid: 2,
                        service_type: t,
                        key: k,
                    };
                    ctx.send_local(ports::SLP, 9427, m.to_wire());
                }
            }
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
            if let Ok(SlpMsg::SrvRply { entries, .. }) = SlpMsg::parse(&dgram.payload) {
                self.replies.borrow_mut().push((ctx.now(), entries));
            }
        }
    }

    use std::cell::RefCell;
    use std::rc::Rc;

    /// A node running the routing protocol `mode` pairs with: AODV on
    /// demand, OLSR proactive.
    fn add_slp_node(
        w: &mut World,
        pos: (f64, f64),
        mode: Dissemination,
    ) -> (NodeId, SharedRegistry) {
        let id = w.add_node(NodeConfig::manet(pos.0, pos.1));
        let registry = shared_registry();
        let handler: Rc<RefCell<ManetSlpHandler>> =
            Rc::new(RefCell::new(ManetSlpHandler::new(registry.clone(), mode)));
        let routing: Box<dyn Process> = match mode {
            Dissemination::OnDemand => Box::new(AodvProcess::new().with_handler(handler)),
            Dissemination::Proactive => Box::new(OlsrProcess::new().with_handler(handler)),
        };
        w.spawn(id, routing);
        w.spawn(id, Box::new(ManetSlpProcess::new(mode, registry.clone())));
        (id, registry)
    }

    #[test]
    fn local_register_then_local_lookup() {
        let mut w = World::new(WorldConfig::new(31).with_radio(RadioConfig::ideal()));
        let (id, _) = add_slp_node(&mut w, (0.0, 0.0), Dissemination::OnDemand);
        let (client, replies) = SlpClient::new(
            Some((
                "sip".into(),
                "alice@v.ch".into(),
                "10.0.0.1:5060".parse().unwrap(),
            )),
            Some((SimTime::from_millis(100), "sip".into(), "alice@v.ch".into())),
        );
        w.spawn(id, Box::new(client));
        w.run_for(SimDuration::from_secs(1));
        let r = replies.borrow();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1.len(), 1);
        assert_eq!(r[0].1[0].key, "alice@v.ch");
    }

    #[test]
    fn aodv_on_demand_lookup_across_three_hops() {
        let mut w = World::new(WorldConfig::new(32).with_radio(RadioConfig::ideal()));
        let mut nodes = Vec::new();
        for i in 0..4 {
            let pos = (i as f64 * 80.0, 0.0);
            nodes.push(add_slp_node(&mut w, pos, Dissemination::OnDemand));
        }
        // Bob's proxy registers on the far node.
        let (far, _) = nodes[3];
        let (reg_client, _) = SlpClient::new(
            Some((
                "sip".into(),
                "bob@v.ch".into(),
                "10.0.0.4:5060".parse().unwrap(),
            )),
            None,
        );
        w.spawn(far, Box::new(reg_client));
        w.run_for(SimDuration::from_secs(3));
        // Alice looks Bob up from the near node.
        let (near, near_reg) = (nodes[0].0, nodes[0].1.clone());
        let (lookup_client, replies) = SlpClient::new(
            None,
            Some((SimTime::from_secs(3), "sip".into(), "bob@v.ch".into())),
        );
        w.spawn(near, Box::new(lookup_client));
        w.run_for(SimDuration::from_secs(5));
        let r = replies.borrow();
        assert_eq!(r.len(), 1, "lookup must be answered");
        assert_eq!(r[0].1.len(), 1, "binding found: {:?}", r[0].1);
        assert_eq!(r[0].1[0].contact.to_string(), "10.0.0.4:5060");
        // The querying node cached the learned binding.
        assert!(!near_reg
            .borrow()
            .lookup("sip", "bob@v.ch", w.now())
            .is_empty());
        // And it learned a route to Bob's node from the service RREP.
        assert!(w
            .node(near)
            .routes()
            .lookup_specific(Addr::manet(3), w.now())
            .is_some());
    }

    #[test]
    fn olsr_proactive_lookup_is_local_after_gossip() {
        let mut w = World::new(WorldConfig::new(33).with_radio(RadioConfig::ideal()));
        let mut nodes = Vec::new();
        for i in 0..4 {
            let pos = (i as f64 * 80.0, 0.0);
            nodes.push(add_slp_node(&mut w, pos, Dissemination::Proactive));
        }
        let (far, _) = nodes[3];
        let (reg_client, _) = SlpClient::new(
            Some((
                "sip".into(),
                "bob@v.ch".into(),
                "10.0.0.4:5060".parse().unwrap(),
            )),
            None,
        );
        w.spawn(far, Box::new(reg_client));
        // Let gossip replicate.
        w.run_for(SimDuration::from_secs(30));
        for (i, (_, reg)) in nodes.iter().enumerate() {
            assert!(
                !reg.borrow().lookup("sip", "bob@v.ch", w.now()).is_empty(),
                "node {i} missing gossiped binding"
            );
        }
        // Lookup resolves instantly from the local registry.
        let (near, _) = nodes[0];
        let (lookup_client, replies) = SlpClient::new(
            None,
            Some((SimTime::from_secs(30), "sip".into(), "bob@v.ch".into())),
        );
        w.spawn(near, Box::new(lookup_client));
        w.run_for(SimDuration::from_secs(1));
        let r = replies.borrow();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1.len(), 1);
        let latency = r[0].0.saturating_since(SimTime::from_secs(30));
        assert!(
            latency < SimDuration::from_millis(10),
            "local lookup took {latency}"
        );
    }

    #[test]
    fn lookup_for_unknown_service_reports_empty_after_retries() {
        // The first round plus `QUERY_RETRIES` = 2 more, each one
        // `query_timeout` long; on demand every round floods a query.
        for (mode, round_ms, floods) in [
            (Dissemination::OnDemand, 800, 3),
            (Dissemination::Proactive, 3000, 0),
        ] {
            let mut w = World::new(WorldConfig::new(34).with_radio(RadioConfig::ideal()));
            let (id, _) = add_slp_node(&mut w, (0.0, 0.0), mode);
            let asked = SimTime::from_millis(100);
            let (client, replies) =
                SlpClient::new(None, Some((asked, "sip".into(), "ghost@v.ch".into())));
            w.spawn(id, Box::new(client));
            w.run_for(SimDuration::from_secs(20));
            let r = replies.borrow();
            assert_eq!(r.len(), 1, "{mode:?}");
            assert!(r[0].1.is_empty(), "{mode:?}");
            // Request and reply each cross the 50 µs loopback once.
            let loopback = SimDuration::from_micros(2 * 50);
            let answered = asked + SimDuration::from_millis(3 * round_ms) + loopback;
            assert_eq!(r[0].0, answered, "{mode:?}");
            let stats = w.node(id).stats();
            assert_eq!(stats.get("slp.query_flood").packets, floods, "{mode:?}");
            assert_eq!(stats.get("slp.lookup_failed").packets, 1, "{mode:?}");
        }
    }
}
