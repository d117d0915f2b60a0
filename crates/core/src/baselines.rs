//! Related-work baselines, implemented rather than cited.
//!
//! The paper's §5 dismisses several earlier approaches to SIP session
//! establishment in MANETs. To let the experiments measure those claims
//! (E2 lookup delay, E3 control overhead, A1 ablation), the two main
//! alternatives are implemented behind the *same* `127.0.0.1:427` client
//! API as MANET SLP, so harnesses can swap them in for the SIPHoc proxy's
//! location service without touching anything else:
//!
//! * [`BroadcastRegistration`] — "fully distributed SIP session initiation
//!   [...] incorporating REGISTER broadcast messages which makes the
//!   approach inefficient and SIP incompatible" (Leggio et al.): every
//!   registration is flooded network-wide and refreshed by re-flooding;
//!   lookups are answered from the local replica.
//! * [`ProactiveHello`] — "a pro-active mapping of all SIP clients in the
//!   MANETs using a HELLO method \[which\] leads to inefficient utilization
//!   of resources if the mappings remain unused" (O'Doherty's Pico SIP):
//!   every node periodically broadcasts its entire mapping table in
//!   dedicated one-hop HELLOs; mappings spread epidemically.
//!
//! Both pay with dedicated control packets for what MANET SLP gets (nearly)
//! free by piggybacking on routing traffic.

use std::collections::BTreeMap;

use siphoc_simnet::net::{ports, Addr, Datagram, L2Dst, SocketAddr};
use siphoc_simnet::process::{Ctx, Process};
use siphoc_simnet::time::{SimDuration, SimTime};

use siphoc_slp::msg::SlpMsg;
use siphoc_slp::registry::SlpRegistry;
use siphoc_slp::service::ServiceEntry;

/// Flood radius for broadcast registrations.
const FLOOD_TTL: u8 = 16;
/// How long a lookup waits for the replica to fill before reporting
/// "not found".
const LOOKUP_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Re-flood period of [`BroadcastRegistration`].
const REFLOOD_INTERVAL: SimDuration = SimDuration::from_secs(10);

const TAG_REFRESH: u64 = 1;
const TAG_LOOKUP: u64 = 2;
const TAG_PURGE: u64 = 3;

#[derive(Debug)]
struct PendingLookup {
    xid: u32,
    requester: SocketAddr,
    service_type: String,
    key: String,
    deadline: SimTime,
}

/// Common machinery of both baselines: local registry, client API,
/// pending lookups.
#[derive(Default)]
struct BaselineCore {
    registry: SlpRegistry,
    pending: Vec<PendingLookup>,
}

impl BaselineCore {
    fn reply(&self, ctx: &mut Ctx<'_>, to: SocketAddr, xid: u32, entries: Vec<ServiceEntry>) {
        let src = SocketAddr::new(Addr::LOOPBACK, ports::SLP);
        ctx.send(Datagram::new(
            src,
            to,
            SlpMsg::SrvRply { xid, entries }.to_wire(),
        ));
    }

    /// Handles a client API message; returns a newly registered local
    /// entry when one was created (for immediate dissemination).
    fn on_client_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: SlpMsg,
        from: SocketAddr,
    ) -> Option<ServiceEntry> {
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
                let seq = self.registry.next_seq();
                let entry = ServiceEntry {
                    service_type,
                    key,
                    contact,
                    origin,
                    seq,
                    lifetime_secs,
                    auth: None,
                };
                self.registry.register_local(entry.clone(), now);
                let src = SocketAddr::new(Addr::LOOPBACK, ports::SLP);
                ctx.send(Datagram::new(src, from, SlpMsg::SrvAck { xid }.to_wire()));
                Some(entry)
            }
            SlpMsg::SrvDeReg {
                xid,
                service_type,
                key,
            } => {
                let origin = ctx.addr();
                self.registry.deregister_local(&service_type, &key, origin);
                let src = SocketAddr::new(Addr::LOOPBACK, ports::SLP);
                ctx.send(Datagram::new(src, from, SlpMsg::SrvAck { xid }.to_wire()));
                None
            }
            SlpMsg::SrvRqst {
                xid,
                service_type,
                key,
            } => {
                let now = ctx.now();
                let found: Vec<ServiceEntry> = self
                    .registry
                    .lookup(&service_type, &key, now)
                    .into_iter()
                    .cloned()
                    .collect();
                if found.is_empty() {
                    let deadline = now + LOOKUP_TIMEOUT;
                    self.pending.push(PendingLookup {
                        xid,
                        requester: from,
                        service_type,
                        key,
                        deadline,
                    });
                    ctx.set_timer(LOOKUP_TIMEOUT, TAG_LOOKUP);
                } else {
                    self.reply(ctx, from, xid, found);
                }
                None
            }
            _ => None,
        }
    }

    /// Serves pending lookups the replica can now satisfy; expires the
    /// rest.
    fn drain_pending(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut done = Vec::new();
        for (i, p) in self.pending.iter().enumerate() {
            let found: Vec<ServiceEntry> = self
                .registry
                .lookup(&p.service_type, &p.key, now)
                .into_iter()
                .cloned()
                .collect();
            if !found.is_empty() {
                done.push((i, p.requester, p.xid, found));
            } else if p.deadline <= now {
                done.push((i, p.requester, p.xid, Vec::new()));
            }
        }
        for (i, requester, xid, found) in done.into_iter().rev() {
            self.pending.remove(i);
            self.reply(ctx, requester, xid, found);
        }
    }

    fn absorb(&mut self, ctx: &mut Ctx<'_>, entry: ServiceEntry) -> bool {
        let now = ctx.now();
        let fresh = self.registry.absorb(entry, now);
        if fresh {
            self.drain_pending(ctx);
        }
        fresh
    }
}

// ----------------------------------------------------------------------
// Broadcast registration (Leggio et al.)
// ----------------------------------------------------------------------

/// Flooded-REGISTER location service. Wire: `BREG <origin> <fid> <ttl>`
/// then one entry per line.
#[derive(Default)]
pub struct BroadcastRegistration {
    core: BaselineCore,
    seen: BTreeMap<(Addr, u32), SimTime>,
    next_fid: u32,
}

impl std::fmt::Debug for BroadcastRegistration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BroadcastRegistration")
            .finish_non_exhaustive()
    }
}

impl BroadcastRegistration {
    /// Creates the baseline process.
    pub fn new() -> BroadcastRegistration {
        BroadcastRegistration::default()
    }

    fn flood_entries(
        &mut self,
        ctx: &mut Ctx<'_>,
        origin: Addr,
        fid: u32,
        ttl: u8,
        entries: &[ServiceEntry],
    ) {
        let mut payload = format!("BREG {origin} {fid} {ttl}").into_bytes();
        for e in entries {
            payload.push(b'\n');
            payload.extend_from_slice(&e.to_wire());
        }
        ctx.stats().count("bcast_reg.flood", payload.len());
        let src = SocketAddr::new(ctx.addr(), ports::SLP);
        let dst = SocketAddr::new(Addr::BROADCAST, ports::SLP);
        ctx.send_link(L2Dst::Broadcast, Datagram::new(src, dst, payload));
    }

    fn flood_own(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let own = self.core.registry.local_entries(now);
        if own.is_empty() {
            return;
        }
        self.next_fid += 1;
        let fid = self.next_fid;
        let origin = ctx.addr();
        self.seen.insert((origin, fid), now);
        self.flood_entries(ctx, origin, fid, FLOOD_TTL, &own);
    }

    fn on_flood(&mut self, ctx: &mut Ctx<'_>, payload: &[u8]) {
        let text = String::from_utf8_lossy(payload);
        let mut lines = text.lines();
        let Some(head) = lines.next() else { return };
        let mut it = head.split_ascii_whitespace();
        if it.next() != Some("BREG") {
            return;
        }
        let (Some(origin), Some(fid), Some(ttl)) = (
            it.next().and_then(|v| v.parse::<Addr>().ok()),
            it.next().and_then(|v| v.parse::<u32>().ok()),
            it.next().and_then(|v| v.parse::<u8>().ok()),
        ) else {
            return;
        };
        if origin == ctx.addr() || self.seen.contains_key(&(origin, fid)) {
            return;
        }
        self.seen.insert((origin, fid), ctx.now());
        let entries: Vec<ServiceEntry> = lines.filter_map(|l| l.parse().ok()).collect();
        for e in &entries {
            self.core.absorb(ctx, e.clone());
        }
        if ttl > 1 {
            self.flood_entries(ctx, origin, fid, ttl - 1, &entries);
        }
    }
}

impl Process for BroadcastRegistration {
    fn name(&self) -> &'static str {
        "bcast-registration"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::SLP);
        let jitter = ctx.rng().range_u64(0, REFLOOD_INTERVAL.as_micros());
        ctx.set_timer(SimDuration::from_micros(jitter), TAG_REFRESH);
        ctx.set_timer(SimDuration::from_secs(10), TAG_PURGE);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        if dgram.payload.starts_with(b"BREG") {
            self.on_flood(ctx, &dgram.payload);
            return;
        }
        if let Ok(msg) = SlpMsg::parse(&dgram.payload) {
            if self.core.on_client_msg(ctx, msg, dgram.src).is_some() {
                // New local registration: flood it immediately — the
                // defining behavior of this approach.
                self.flood_own(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TAG_REFRESH => {
                self.flood_own(ctx);
                ctx.set_timer(REFLOOD_INTERVAL, TAG_REFRESH);
            }
            TAG_LOOKUP => self.core.drain_pending(ctx),
            TAG_PURGE => {
                let now = ctx.now();
                self.core.registry.purge(now);
                self.seen
                    .retain(|_, t| now.saturating_since(*t) < SimDuration::from_secs(60));
                ctx.set_timer(SimDuration::from_secs(10), TAG_PURGE);
            }
            _ => {}
        }
    }
}

// ----------------------------------------------------------------------
// Proactive HELLO mapping (Pico SIP)
// ----------------------------------------------------------------------

/// Periodic full-mapping HELLO broadcaster. Wire: `PHELLO` then one entry
/// per line; one hop, epidemic convergence through re-broadcast of
/// learned entries.
pub struct ProactiveHello {
    core: BaselineCore,
    hello_interval: SimDuration,
}

impl std::fmt::Debug for ProactiveHello {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProactiveHello").finish_non_exhaustive()
    }
}

impl ProactiveHello {
    /// Creates the baseline process, broadcasting every `hello_interval`.
    pub fn new(hello_interval: SimDuration) -> ProactiveHello {
        ProactiveHello {
            core: BaselineCore::default(),
            hello_interval,
        }
    }

    fn hello(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let all = self.core.registry.all_entries(now);
        // HELLOs go out even when empty — "inefficient utilization of
        // resources if the mappings remain unused" is the measured claim.
        let mut payload = b"PHELLO".to_vec();
        for e in &all {
            payload.push(b'\n');
            payload.extend_from_slice(&e.to_wire());
        }
        ctx.stats().count("phello.hello", payload.len());
        let src = SocketAddr::new(ctx.addr(), ports::SLP);
        let dst = SocketAddr::new(Addr::BROADCAST, ports::SLP);
        ctx.send_link(L2Dst::Broadcast, Datagram::new(src, dst, payload));
    }
}

impl Process for ProactiveHello {
    fn name(&self) -> &'static str {
        "proactive-hello"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::SLP);
        let jitter = ctx
            .rng()
            .range_u64(0, self.hello_interval.as_micros().max(1));
        ctx.set_timer(SimDuration::from_micros(jitter), TAG_REFRESH);
        ctx.set_timer(SimDuration::from_secs(10), TAG_PURGE);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        if dgram.payload.starts_with(b"PHELLO") {
            if dgram.src.addr == ctx.addr() {
                return;
            }
            let text = String::from_utf8_lossy(&dgram.payload);
            for line in text.lines().skip(1) {
                if let Ok(e) = line.parse::<ServiceEntry>() {
                    self.core.absorb(ctx, e);
                }
            }
            return;
        }
        if let Ok(msg) = SlpMsg::parse(&dgram.payload) {
            let _ = self.core.on_client_msg(ctx, msg, dgram.src);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TAG_REFRESH => {
                self.hello(ctx);
                ctx.set_timer(self.hello_interval, TAG_REFRESH);
            }
            TAG_LOOKUP => self.core.drain_pending(ctx),
            TAG_PURGE => {
                let now = ctx.now();
                self.core.registry.purge(now);
                ctx.set_timer(SimDuration::from_secs(10), TAG_PURGE);
            }
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

    struct Client {
        register: Option<(String, SocketAddr)>,
        lookup_at: Option<(SimTime, String)>,
        replies: Rc<RefCell<Vec<(SimTime, usize)>>>,
    }
    impl Process for Client {
        fn name(&self) -> &'static str {
            "client"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(9400);
            if let Some((key, contact)) = self.register.take() {
                let m = SlpMsg::SrvReg {
                    xid: 1,
                    service_type: "sip".into(),
                    key,
                    contact,
                    lifetime_secs: 600,
                };
                ctx.send_local(ports::SLP, 9400, m.to_wire());
            }
            if let Some((at, _)) = &self.lookup_at {
                ctx.set_timer(at.saturating_since(ctx.now()), 5);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token == 5 {
                if let Some((_, key)) = self.lookup_at.take() {
                    let m = SlpMsg::SrvRqst {
                        xid: 2,
                        service_type: "sip".into(),
                        key,
                    };
                    ctx.send_local(ports::SLP, 9400, m.to_wire());
                }
            }
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
            if let Ok(SlpMsg::SrvRply { entries, .. }) = SlpMsg::parse(&d.payload) {
                self.replies.borrow_mut().push((ctx.now(), entries.len()));
            }
        }
    }

    fn chain<F: Fn() -> Box<dyn Process>>(n: usize, make: F) -> (World, Vec<NodeId>) {
        let mut w = World::new(WorldConfig::new(81).with_radio(RadioConfig::ideal()));
        let ids: Vec<NodeId> = (0..n)
            .map(|i| w.add_node(NodeConfig::manet(i as f64 * 80.0, 0.0)))
            .collect();
        for &id in &ids {
            w.spawn(id, make());
        }
        (w, ids)
    }

    #[test]
    fn broadcast_registration_replicates_to_all_nodes() {
        let (mut w, ids) = chain(4, || Box::new(BroadcastRegistration::new()));
        let replies = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            ids[3],
            Box::new(Client {
                register: Some(("bob@v.ch".into(), "10.0.0.4:5060".parse().unwrap())),
                lookup_at: None,
                replies: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        w.spawn(
            ids[0],
            Box::new(Client {
                register: None,
                lookup_at: Some((SimTime::from_secs(2), "bob@v.ch".into())),
                replies: replies.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(10));
        let r = replies.borrow();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1, 1, "lookup answered from local replica");
        // The lookup was fast: the flood replicated before it was issued.
        assert!(r[0].0 < SimTime::from_millis(2200), "{}", r[0].0);
    }

    #[test]
    fn proactive_hello_converges_within_a_few_periods() {
        let (mut w, ids) = chain(4, || {
            Box::new(ProactiveHello::new(SimDuration::from_secs(2)))
        });
        let replies = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            ids[3],
            Box::new(Client {
                register: Some(("bob@v.ch".into(), "10.0.0.4:5060".parse().unwrap())),
                lookup_at: None,
                replies: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        // Chain of 4: needs ≥3 HELLO periods to cross; look up at t=15.
        w.spawn(
            ids[0],
            Box::new(Client {
                register: None,
                lookup_at: Some((SimTime::from_secs(15), "bob@v.ch".into())),
                replies: replies.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(20));
        let r = replies.borrow();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1, 1, "mapping replicated epidemically");
    }

    #[test]
    fn proactive_hello_sends_even_with_no_mappings() {
        let (mut w, ids) = chain(2, || {
            Box::new(ProactiveHello::new(SimDuration::from_secs(2)))
        });
        w.run_for(SimDuration::from_secs(10));
        // The cited inefficiency: resources burned with zero users.
        assert!(w.node(ids[0]).stats().get("phello.hello").packets >= 4);
    }

    #[test]
    fn lookup_for_missing_key_times_out_empty() {
        let (mut w, ids) = chain(2, || Box::new(BroadcastRegistration::new()));
        let replies = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            ids[0],
            Box::new(Client {
                register: None,
                lookup_at: Some((SimTime::from_secs(1), "ghost@v.ch".into())),
                replies: replies.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(10));
        let r = replies.borrow();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1, 0);
    }
}
