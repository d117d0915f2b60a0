//! Standard SLP baseline (RFC 2608 style multicast convergence).
//!
//! The related work the paper cites found that "SLP in its original form
//! is very inefficient in MANETs due to its heavy use of multicast
//! messages". This module implements that original form so the lookup
//! experiments (E2/E3) can measure the inefficiency instead of citing it:
//!
//! * registrations stay **local** to the registering node's service agent —
//!   nothing is disseminated;
//! * a lookup floods an `MRQST` network-wide (IP multicast over a MANET
//!   degenerates to flooding), retransmitting with the multicast
//!   convergence algorithm;
//! * any node holding a matching registration unicasts a `SRVRPLY` back to
//!   the requester — which, under AODV, first triggers a full route
//!   discovery for the reply path.
//!
//! The process exposes the same `127.0.0.1:427` client API as
//! [`crate::manet::ManetSlpProcess`], so the two are interchangeable in
//! every harness.

use std::collections::BTreeMap;

use siphoc_simnet::net::{ports, Addr, Datagram, L2Dst, SocketAddr};
use siphoc_simnet::process::{Ctx, Process};
use siphoc_simnet::time::{SimDuration, SimTime};

use crate::msg::SlpMsg;
use crate::registry::SlpRegistry;
use crate::service::{ServiceEntry, ServiceQuery};

/// Convergence retransmission interval (RFC 2608 §13 `CONFIG_RETRY`).
const RETRY_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Retransmissions before a lookup gives up.
const RETRIES: u32 = 2;
/// Flood radius of multicast requests.
const FLOOD_TTL: u8 = 16;

const TAG_RETRY: u64 = 1;
const TAG_PURGE: u64 = 2;

#[derive(Debug)]
struct PendingLookup {
    xid: u32,
    requester: SocketAddr,
    query: ServiceQuery,
    fid: u32,
    deadline: SimTime,
    retries_left: u32,
}

/// The standard SLP agent process (service agent + user agent in one).
#[derive(Default)]
pub struct StandardSlpProcess {
    local: SlpRegistry,
    pending: Vec<PendingLookup>,
    seen_floods: BTreeMap<(Addr, u32), SimTime>,
    next_fid: u32,
}

impl std::fmt::Debug for StandardSlpProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandardSlpProcess")
            .field("local_entries", &self.local.len())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl StandardSlpProcess {
    /// Creates a standard SLP agent.
    pub fn new() -> StandardSlpProcess {
        StandardSlpProcess::default()
    }

    fn reply_local(&self, ctx: &mut Ctx<'_>, to: SocketAddr, xid: u32, entries: Vec<ServiceEntry>) {
        let src = SocketAddr::new(Addr::LOOPBACK, ports::SLP);
        ctx.send(Datagram::new(
            src,
            to,
            SlpMsg::SrvRply { xid, entries }.to_wire(),
        ));
    }

    fn flood(&mut self, ctx: &mut Ctx<'_>, msg: &SlpMsg) {
        let payload = msg.to_wire();
        ctx.stats().count("slp_std.mrqst", payload.len());
        let src = SocketAddr::new(ctx.addr(), ports::SLP);
        let dst = SocketAddr::new(Addr::BROADCAST, ports::SLP);
        ctx.send_link(L2Dst::Broadcast, Datagram::new(src, dst, payload));
    }

    fn start_lookup(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: SocketAddr,
        xid: u32,
        service_type: String,
        key: String,
    ) {
        let now = ctx.now();
        // Local service agent first.
        let found: Vec<ServiceEntry> = self
            .local
            .lookup(&service_type, &key, now)
            .into_iter()
            .cloned()
            .collect();
        if !found.is_empty() {
            self.reply_local(ctx, from, xid, found);
            return;
        }
        self.next_fid += 1;
        let fid = self.next_fid;
        let query = ServiceQuery {
            service_type: service_type.clone(),
            key: key.clone(),
            origin: ctx.addr(),
            qid: fid as u64,
        };
        let msg = SlpMsg::McastRqst {
            origin: ctx.addr(),
            fid,
            ttl: FLOOD_TTL,
            reply_to: SocketAddr::new(ctx.addr(), ports::SLP),
            service_type,
            key,
        };
        self.seen_floods.insert((ctx.addr(), fid), now);
        self.flood(ctx, &msg);
        self.pending.push(PendingLookup {
            xid,
            requester: from,
            query,
            fid,
            deadline: now + RETRY_INTERVAL,
            retries_left: RETRIES,
        });
        ctx.set_timer(RETRY_INTERVAL, TAG_RETRY);
    }

    fn on_mcast_rqst(&mut self, ctx: &mut Ctx<'_>, msg: SlpMsg) {
        let SlpMsg::McastRqst {
            origin,
            fid,
            ttl,
            reply_to,
            service_type,
            key,
        } = msg
        else {
            return;
        };
        if origin == ctx.addr() {
            return;
        }
        let now = ctx.now();
        if self.seen_floods.contains_key(&(origin, fid)) {
            return;
        }
        self.seen_floods.insert((origin, fid), now);
        // Answer from local registrations only — standard SLP service
        // agents speak for themselves.
        let found: Vec<ServiceEntry> = self
            .local
            .lookup(&service_type, &key, now)
            .into_iter()
            .cloned()
            .collect();
        if !found.is_empty() {
            let rply = SlpMsg::SrvRply {
                xid: fid,
                entries: found,
            };
            ctx.stats().count("slp_std.rply", rply.to_wire().len());
            // Routed unicast: under AODV this triggers route discovery.
            ctx.send_to(reply_to, ports::SLP, rply.to_wire());
        }
        if ttl > 1 {
            let fwd = SlpMsg::McastRqst {
                origin,
                fid,
                ttl: ttl - 1,
                reply_to,
                service_type,
                key,
            };
            self.flood(ctx, &fwd);
        }
    }

    fn on_network_reply(&mut self, ctx: &mut Ctx<'_>, xid_fid: u32, entries: Vec<ServiceEntry>) {
        // Match by flood id; first answer wins.
        if let Some(i) = self.pending.iter().position(|p| p.fid == xid_fid) {
            let p = self.pending.remove(i);
            debug_assert!(entries.iter().all(|e| p.query.matches(e)));
            self.reply_local(ctx, p.requester, p.xid, entries);
        }
    }

    fn sweep(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let own = ctx.addr();
        let mut give_up = Vec::new();
        let mut refloods = Vec::new();
        for (i, p) in self.pending.iter_mut().enumerate() {
            if p.deadline > now {
                continue;
            }
            if p.retries_left > 0 {
                p.retries_left -= 1;
                p.deadline = now + RETRY_INTERVAL;
                refloods.push(SlpMsg::McastRqst {
                    origin: own,
                    fid: p.fid,
                    ttl: FLOOD_TTL,
                    reply_to: SocketAddr::new(own, ports::SLP),
                    service_type: p.query.service_type.clone(),
                    key: p.query.key.clone(),
                });
            } else {
                give_up.push(i);
            }
        }
        for m in refloods {
            self.flood(ctx, &m);
            ctx.set_timer(RETRY_INTERVAL, TAG_RETRY);
        }
        for i in give_up.into_iter().rev() {
            let p = self.pending.remove(i);
            ctx.stats().count("slp_std.lookup_failed", 1);
            self.reply_local(ctx, p.requester, p.xid, Vec::new());
        }
    }
}

impl Process for StandardSlpProcess {
    fn name(&self) -> &'static str {
        "standard-slp"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::SLP);
        ctx.set_timer(SimDuration::from_secs(10), TAG_PURGE);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let Ok(msg) = SlpMsg::parse(&dgram.payload) else {
            ctx.stats().count("slp_std.malformed", dgram.payload.len());
            return;
        };
        let local_client = dgram.src.addr.is_loopback();
        match msg {
            SlpMsg::SrvReg {
                xid,
                service_type,
                key,
                contact,
                lifetime_secs,
            } if local_client => {
                let now = ctx.now();
                let origin = ctx.addr();
                let seq = self.local.next_seq();
                self.local.register_local(
                    ServiceEntry {
                        service_type,
                        key,
                        contact,
                        origin,
                        seq,
                        lifetime_secs,
                        auth: None,
                    },
                    now,
                );
                let src = SocketAddr::new(Addr::LOOPBACK, ports::SLP);
                ctx.send(Datagram::new(
                    src,
                    dgram.src,
                    SlpMsg::SrvAck { xid }.to_wire(),
                ));
            }
            SlpMsg::SrvDeReg {
                xid,
                service_type,
                key,
            } if local_client => {
                let origin = ctx.addr();
                self.local.deregister_local(&service_type, &key, origin);
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
            } if local_client => {
                self.start_lookup(ctx, dgram.src, xid, service_type, key);
            }
            SlpMsg::McastRqst { .. } => self.on_mcast_rqst(ctx, msg),
            SlpMsg::SrvRply { xid, entries } if !local_client => {
                self.on_network_reply(ctx, xid, entries);
            }
            _ => {
                ctx.stats()
                    .count("slp_std.unexpected_msg", dgram.payload.len());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TAG_RETRY => self.sweep(ctx),
            TAG_PURGE => {
                let now = ctx.now();
                self.local.purge(now);
                self.seen_floods
                    .retain(|_, t| now.saturating_since(*t) < SimDuration::from_secs(60));
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
    use siphoc_simnet::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[allow(clippy::type_complexity)]
    struct Client {
        register: Option<(String, String, SocketAddr)>,
        lookup_at: Option<(SimTime, String, String)>,
        replies: Rc<RefCell<Vec<(SimTime, Vec<ServiceEntry>)>>>,
    }

    impl Process for Client {
        fn name(&self) -> &'static str {
            "client"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(9427);
            if let Some((t, k, c)) = self.register.take() {
                let m = SlpMsg::SrvReg {
                    xid: 1,
                    service_type: t,
                    key: k,
                    contact: c,
                    lifetime_secs: 600,
                };
                ctx.send_local(ports::SLP, 9427, m.to_wire());
            }
            if let Some((at, _, _)) = &self.lookup_at {
                ctx.set_timer(at.saturating_since(ctx.now()), 7);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token == 7 {
                if let Some((_, t, k)) = self.lookup_at.take() {
                    ctx.send_local(
                        ports::SLP,
                        9427,
                        SlpMsg::SrvRqst {
                            xid: 2,
                            service_type: t,
                            key: k,
                        }
                        .to_wire(),
                    );
                }
            }
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
            if let Ok(SlpMsg::SrvRply { entries, .. }) = SlpMsg::parse(&dgram.payload) {
                self.replies.borrow_mut().push((ctx.now(), entries));
            }
        }
    }

    fn world_with_std_slp(n: usize) -> (World, Vec<NodeId>) {
        let mut w = World::new(WorldConfig::new(44).with_radio(RadioConfig::ideal()));
        let ids: Vec<NodeId> = (0..n)
            .map(|i| w.add_node(NodeConfig::manet(i as f64 * 80.0, 0.0)))
            .collect();
        for &id in &ids {
            w.spawn(id, Box::new(AodvProcess::new()));
            w.spawn(id, Box::new(StandardSlpProcess::new()));
        }
        (w, ids)
    }

    #[test]
    fn flood_lookup_finds_remote_registration() {
        let (mut w, ids) = world_with_std_slp(4);
        let replies = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            ids[3],
            Box::new(Client {
                register: Some((
                    "sip".into(),
                    "bob@v.ch".into(),
                    "10.0.0.4:5060".parse().unwrap(),
                )),
                lookup_at: None,
                replies: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        w.spawn(
            ids[0],
            Box::new(Client {
                register: None,
                lookup_at: Some((SimTime::from_secs(2), "sip".into(), "bob@v.ch".into())),
                replies: replies.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(15));
        let r = replies.borrow();
        assert_eq!(r.len(), 1, "lookup must complete");
        assert_eq!(r[0].1.len(), 1, "{:?}", r[0].1);
        assert_eq!(r[0].1[0].contact.to_string(), "10.0.0.4:5060");
        // The flood reached everyone: every node forwarded the MRQST.
        for &id in &ids[1..3] {
            assert!(
                w.node(id).stats().get("slp_std.mrqst").packets >= 1,
                "node {id} did not forward"
            );
        }
    }

    #[test]
    fn lookup_gives_up_empty_when_nothing_registered() {
        let (mut w, ids) = world_with_std_slp(3);
        let replies = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            ids[0],
            Box::new(Client {
                register: None,
                lookup_at: Some((SimTime::from_secs(1), "sip".into(), "ghost@v.ch".into())),
                replies: replies.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(20));
        let r = replies.borrow();
        assert_eq!(r.len(), 1);
        assert!(r[0].1.is_empty());
    }

    #[test]
    fn registrations_do_not_replicate() {
        // The defining inefficiency: registration state stays local.
        let (mut w, ids) = world_with_std_slp(2);
        w.spawn(
            ids[1],
            Box::new(Client {
                register: Some((
                    "sip".into(),
                    "bob@v.ch".into(),
                    "10.0.0.2:5060".parse().unwrap(),
                )),
                lookup_at: None,
                replies: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        w.run_for(SimDuration::from_secs(5));
        // Node 0 never heard about it without asking.
        assert_eq!(w.node(ids[0]).stats().get("slp_std.rply").packets, 0);
    }
}
