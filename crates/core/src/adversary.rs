//! In-simulation adversaries: the attack half of the security experiments.
//!
//! A node carrying this process behaves honestly until the fault plan
//! delivers a [`COMPROMISE_EVENT`], after which it mounts one of the
//! [`MaliciousKind`] attacks against the SIPHoc control plane:
//!
//! - **Rogue gateway** — impersonates every `service:gateway` advert it
//!   has cached, rewriting the contact to itself with a far-future
//!   sequence number, and runs a fake tunnel server that grants bogus
//!   leases, answers keepalive pings (so victims believe the tunnel is
//!   healthy) and silently drops every tunneled datagram.
//! - **AOR hijack** — impersonates cached `service:sip` bindings the same
//!   way, so INVITEs for the victim AOR are routed to the attacker, where
//!   they are counted and blackholed.
//! - **Forged adverts** — both of the above at once: a cache-poisoning
//!   flood over every advert the attacker has seen.
//!
//! ## Dolev–Yao discipline
//!
//! The adversary fabricates, replays and drops messages, but it only ever
//! signs with its *own* key (the one given to [`Adversary::new`]): nothing here
//! calls [`siphoc_simnet::ident::unmix64`] on a victim public key, which
//! is the modeled-unforgeability invariant documented in
//! `siphoc_simnet::ident` and DESIGN.md. Forged entries therefore carry
//! either no signature or a valid signature under the attacker's key —
//! exactly what a real network attacker without the victim's key could
//! produce — and the defense (verify + first-use pins at cache insert)
//! rejects them on both counts.
//!
//! Poisoning is injected through the attacker's **own** shared SLP
//! registry via `register_local`: the compromised node skips its own
//! verification (it is the attacker) and its unmodified SLP daemon then
//! disseminates the forgeries exactly like honest adverts, which is what
//! makes the attack realistic — the wire protocol is unchanged.

use siphoc_simnet::fault::{MaliciousKind, COMPROMISE_EVENT};
use siphoc_simnet::ident::KeyPair;
use siphoc_simnet::net::{ports, Addr, Datagram, SocketAddr};
use siphoc_simnet::process::{Ctx, LocalEvent, Process};
use siphoc_simnet::time::SimDuration;

use siphoc_sip::msg::{Method, SipMessage};
use siphoc_slp::manet::SharedRegistry;
use siphoc_slp::service::{service_types, ServiceEntry};

use crate::tunnel::TunnelMsg;

use std::collections::{BTreeMap, BTreeSet};

/// Port the adversary parks hijacked SIP traffic on. Distinct from the
/// real proxy port so the attacker node's own (honest) proxy keeps
/// working — the forged adverts point here instead.
pub const HIJACK_PORT: u16 = 5999;

const TAG_POISON: u64 = 1;

/// Added to the impersonated entry's sequence number so the victim's
/// steadily-incrementing re-adverts never win the freshness race back.
const SEQ_BOOST: u64 = 1 << 40;

/// Re-poison cadence: how often forged entries are re-registered (and
/// newly-cached honest adverts get impersonated too).
const REPOISON: SimDuration = SimDuration::from_secs(5);

/// Base of the bogus public-address pool handed out by the fake tunnel
/// server (TEST-NET-3; never routable).
const BOGUS_PUBLIC: Addr = Addr::new(203, 0, 113, 1);

/// The adversary process. Dormant until compromised. Gateway-targeting
/// kinds bind the tunnel port when they go rogue, which a real gateway's
/// tunnel server — and the Connection Provider's tunnel *client* on any
/// attached node — already owns; deploy those on plain MANET nodes
/// built `without_connection_provider` (the attacker shuts its own
/// client down before impersonating a server). SIP-targeting kinds use
/// a dedicated port and coexist with the full stack.
#[derive(Debug)]
pub struct Adversary {
    /// The attacker's own keypair. Set in defense-on worlds so forgeries
    /// are validly signed *by the attacker* — the strongest attack the
    /// Dolev–Yao model allows. `None` sends unsigned forgeries.
    identity: Option<KeyPair>,
    registry: Option<SharedRegistry>,
    active: Option<MaliciousKind>,
    /// Forged entries by `(service_type, key, origin)`, re-registered
    /// every poison tick so their lifetimes never lapse.
    forged: BTreeMap<(String, String, Addr), ServiceEntry>,
    /// Call-IDs of INVITEs captured on the hijack port.
    hijacked: BTreeSet<String>,
    /// Fake leases handed out, keyed by client address (stable grants).
    leases: BTreeMap<Addr, Addr>,
}

impl Adversary {
    /// Creates a dormant adversary that signs its forgeries with
    /// `identity`, or not at all.
    pub fn new(identity: Option<KeyPair>) -> Adversary {
        Adversary {
            identity,
            registry: None,
            active: None,
            forged: BTreeMap::new(),
            hijacked: BTreeSet::new(),
            leases: BTreeMap::new(),
        }
    }

    /// Attaches the node's shared SLP registry — the poisoning vector.
    pub fn with_registry(mut self, registry: SharedRegistry) -> Adversary {
        self.registry = Some(registry);
        self
    }

    /// The attack currently mounted, if any.
    pub fn active(&self) -> Option<MaliciousKind> {
        self.active
    }

    fn targets_gateways(kind: MaliciousKind) -> bool {
        matches!(
            kind,
            MaliciousKind::RogueGateway | MaliciousKind::ForgedAdverts
        )
    }

    fn targets_sip(kind: MaliciousKind) -> bool {
        matches!(
            kind,
            MaliciousKind::AorHijack | MaliciousKind::ForgedAdverts
        )
    }

    /// Impersonates every honest advert in the cache that matches the
    /// active attack, and refreshes previously forged entries.
    fn poison(&mut self, ctx: &mut Ctx<'_>) {
        let Some(kind) = self.active else { return };
        let Some(registry) = self.registry.clone() else {
            return;
        };
        let now = ctx.now();
        let own = ctx.addr();
        let mut reg = registry.borrow_mut();
        let mut fresh = 0usize;
        for e in reg.all_entries(now) {
            if e.contact.addr == own || e.origin == own {
                continue;
            }
            let port = if e.service_type == service_types::GATEWAY {
                if !Adversary::targets_gateways(kind) {
                    continue;
                }
                ports::TUNNEL
            } else if e.service_type == service_types::SIP {
                if !Adversary::targets_sip(kind) {
                    continue;
                }
                HIJACK_PORT
            } else {
                continue;
            };
            let triple = (e.service_type.clone(), e.key.clone(), e.origin);
            if self.forged.contains_key(&triple) {
                continue;
            }
            let entry = ServiceEntry {
                service_type: e.service_type.clone(),
                key: e.key.clone(),
                contact: SocketAddr::new(own, port),
                origin: e.origin,
                seq: e.seq + SEQ_BOOST,
                lifetime_secs: e.lifetime_secs.max(120),
                auth: None,
            };
            let entry = match &self.identity {
                Some(kp) => entry.signed(kp),
                None => entry,
            };
            self.forged.insert(triple, entry);
            fresh += 1;
        }
        for entry in self.forged.values() {
            reg.register_local(entry.clone(), now);
        }
        drop(reg);
        for _ in 0..fresh {
            ctx.stats().count("rogue.forged", 1);
        }
    }

    fn on_tunnel_port(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        if !self.active.is_some_and(Adversary::targets_gateways) {
            return;
        }
        let Some(msg) = TunnelMsg::parse(&dgram.payload) else {
            return;
        };
        let own = ctx.addr();
        match msg {
            TunnelMsg::Connect => {
                let next = BOGUS_PUBLIC.0 + self.leases.len() as u32;
                let public = *self
                    .leases
                    .entry(dgram.src.addr)
                    .or_insert_with(|| Addr(next));
                ctx.stats().count("rogue.lease", 1);
                let reply = TunnelMsg::Lease {
                    public,
                    lifetime_secs: 60,
                };
                ctx.send(Datagram::new(
                    SocketAddr::new(own, ports::TUNNEL),
                    dgram.src,
                    reply.to_wire(),
                ));
            }
            TunnelMsg::Ping { seq } => {
                // Answer keepalives so captured clients stay captured.
                ctx.stats().count("rogue.pong", 1);
                ctx.send(Datagram::new(
                    SocketAddr::new(own, ports::TUNNEL),
                    dgram.src,
                    TunnelMsg::Pong { seq }.to_wire(),
                ));
            }
            TunnelMsg::Data { .. } => {
                // The blackhole: tunneled traffic goes nowhere.
                ctx.stats().count("rogue.blackholed", 1);
            }
            TunnelMsg::Lease { .. } | TunnelMsg::Pong { .. } | TunnelMsg::Relay(_) => {}
        }
    }

    fn on_hijack_port(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        if !self.active.is_some_and(Adversary::targets_sip) {
            return;
        }
        let Ok(msg) = SipMessage::parse(&String::from_utf8_lossy(&dgram.payload)) else {
            return;
        };
        ctx.stats().count("rogue.sip_blackholed", 1);
        let SipMessage::Request { method, .. } = &msg else {
            return;
        };
        if *method != Method::Invite {
            return;
        }
        let Some(call_id) = msg.call_id() else { return };
        if self.hijacked.insert(call_id.to_owned()) {
            // One count per call: retransmissions of a captured INVITE
            // are the transaction layer talking to the void.
            ctx.stats().count("rogue.hijacked_calls", 1);
        }
    }
}

impl Process for Adversary {
    fn name(&self) -> &'static str {
        "adversary"
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        let LocalEvent::Custom { kind, data } = ev else {
            return;
        };
        if *kind != COMPROMISE_EVENT {
            return;
        }
        let Some(mk) = data.first().copied().and_then(MaliciousKind::from_byte) else {
            return;
        };
        self.active = Some(mk);
        ctx.stats().count("rogue.active", 1);
        // Bind lazily: a dormant adversary leaves zero footprint, so runs
        // that never fire the compromise stay byte-identical.
        if Adversary::targets_gateways(mk) {
            ctx.bind(ports::TUNNEL);
        }
        if Adversary::targets_sip(mk) {
            ctx.bind(HIJACK_PORT);
        }
        self.poison(ctx);
        ctx.set_timer(REPOISON, TAG_POISON);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TAG_POISON && self.active.is_some() {
            self.poison(ctx);
            ctx.set_timer(REPOISON, TAG_POISON);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        match dgram.dst.port {
            ports::TUNNEL => self.on_tunnel_port(ctx, dgram),
            HIJACK_PORT => self.on_hijack_port(ctx, dgram),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::process::Effect;
    use siphoc_simnet::rng::SimRng;
    use siphoc_simnet::route::RoutingTable;
    use siphoc_simnet::stats::NodeStats;
    use siphoc_simnet::time::SimTime;
    use siphoc_slp::manet::shared_registry;

    fn harness(
        f: impl FnOnce(&mut Ctx<'_>, &mut Adversary),
        adv: &mut Adversary,
    ) -> (NodeStats, Vec<Effect>) {
        let mut rng = SimRng::from_seed_and_stream(7, 0);
        let mut routes = RoutingTable::new();
        let mut stats = NodeStats::default();
        let mut obs = siphoc_simnet::obs::NodeObs::default();
        let mut effects = Vec::new();
        let mut ctx = Ctx::for_test(
            SimTime::ZERO,
            Addr::manet(9),
            &mut rng,
            &mut routes,
            &mut stats,
            &mut obs,
            &mut effects,
        );
        f(&mut ctx, adv);
        (stats, effects)
    }

    fn compromise(kind: MaliciousKind) -> LocalEvent {
        LocalEvent::Custom {
            kind: COMPROMISE_EVENT,
            data: vec![kind.to_byte()],
        }
    }

    #[test]
    fn dormant_until_compromised() {
        let reg = shared_registry();
        let mut adv = Adversary::new(None).with_registry(reg.clone());
        let victim = ServiceEntry::gateway(
            SocketAddr::new(Addr::manet(2), ports::TUNNEL),
            Addr::manet(2),
            1,
            600,
        );
        reg.borrow_mut().absorb(victim, SimTime::ZERO);
        let (_, effects) = harness(|ctx, adv| adv.on_timer(ctx, TAG_POISON), &mut adv);
        assert!(adv.active().is_none());
        assert!(effects.is_empty());
        assert_eq!(reg.borrow().all_entries(SimTime::ZERO).len(), 1);
    }

    #[test]
    fn rogue_gateway_impersonates_cached_gateway_adverts() {
        let reg = shared_registry();
        let gw = Addr::manet(2);
        let victim = ServiceEntry::gateway(SocketAddr::new(gw, ports::TUNNEL), gw, 3, 600);
        reg.borrow_mut().absorb(victim, SimTime::ZERO);
        let mut adv = Adversary::new(None).with_registry(reg.clone());
        let (stats, _) = harness(
            |ctx, adv| adv.on_local_event(ctx, &compromise(MaliciousKind::RogueGateway)),
            &mut adv,
        );
        assert_eq!(stats.get("rogue.forged").packets, 1);
        let entries = reg.borrow().all_entries(SimTime::ZERO);
        let forged = entries
            .iter()
            .find(|e| e.service_type == service_types::GATEWAY)
            .expect("gateway entry");
        // Same origin (impersonation), attacker contact, boosted seq.
        assert_eq!(forged.origin, gw);
        assert_eq!(
            forged.contact,
            SocketAddr::new(Addr::manet(9), ports::TUNNEL)
        );
        assert!(forged.seq > SEQ_BOOST);
    }

    #[test]
    fn rogue_tunnel_grants_bogus_lease_and_blackholes_data() {
        let mut adv = Adversary::new(None);
        let client = SocketAddr::new(Addr::manet(4), 9000);
        let me = SocketAddr::new(Addr::manet(9), ports::TUNNEL);
        let (stats, effects) = harness(
            |ctx, adv| {
                adv.on_local_event(ctx, &compromise(MaliciousKind::RogueGateway));
                let connect = Datagram::new(client, me, TunnelMsg::Connect.to_wire());
                adv.on_datagram(ctx, &connect);
                let inner = Datagram::new(
                    SocketAddr::new(Addr::manet(4), 5060),
                    SocketAddr::new(Addr::new(8, 8, 8, 8), 5060),
                    b"x".to_vec(),
                );
                let data = Datagram::new(client, me, TunnelMsg::Data { inner }.to_wire());
                adv.on_datagram(ctx, &data);
            },
            &mut adv,
        );
        assert_eq!(stats.get("rogue.lease").packets, 1);
        assert_eq!(stats.get("rogue.blackholed").packets, 1);
        let lease_sent = effects.iter().any(|e| match e {
            Effect::Send(d) => {
                TunnelMsg::parse(&d.payload).is_some_and(|m| matches!(m, TunnelMsg::Lease { .. }))
            }
            _ => false,
        });
        assert!(lease_sent, "fake lease reply expected");
    }

    #[test]
    fn hijacked_invites_counted_once_per_call() {
        let mut adv = Adversary::new(None);
        let invite = concat!(
            "INVITE sip:bob@manet.example SIP/2.0\r\n",
            "Via: SIP/2.0/UDP 10.0.0.4:5060\r\n",
            "From: <sip:alice@manet.example>;tag=1\r\n",
            "To: <sip:bob@manet.example>\r\n",
            "Call-ID: call-h1\r\n",
            "CSeq: 1 INVITE\r\n",
            "\r\n"
        );
        let me = SocketAddr::new(Addr::manet(9), HIJACK_PORT);
        let from = SocketAddr::new(Addr::manet(4), 5060);
        let (stats, effects) = harness(
            |ctx, adv| {
                adv.on_local_event(ctx, &compromise(MaliciousKind::AorHijack));
                let d = Datagram::new(from, me, invite.as_bytes().to_vec());
                adv.on_datagram(ctx, &d);
                adv.on_datagram(ctx, &d); // retransmission
            },
            &mut adv,
        );
        assert_eq!(stats.get("rogue.hijacked_calls").packets, 1);
        assert_eq!(stats.get("rogue.sip_blackholed").packets, 2);
        // Signaling blackhole: no reply of any kind.
        assert!(!effects.iter().any(|e| matches!(e, Effect::Send(_))));
    }

    #[test]
    fn forged_entries_are_attacker_signed_when_identity_set() {
        let reg = shared_registry();
        let gw = Addr::manet(2);
        let honest = KeyPair::for_addr(gw.0);
        let victim =
            ServiceEntry::gateway(SocketAddr::new(gw, ports::TUNNEL), gw, 3, 600).signed(&honest);
        reg.borrow_mut().absorb(victim, SimTime::ZERO);
        let attacker = KeyPair::for_addr(Addr::manet(9).0);
        let mut adv = Adversary::new(Some(attacker)).with_registry(reg.clone());
        harness(
            |ctx, adv| adv.on_local_event(ctx, &compromise(MaliciousKind::ForgedAdverts)),
            &mut adv,
        );
        let entries = reg.borrow().all_entries(SimTime::ZERO);
        let forged = entries
            .iter()
            .find(|e| e.contact.addr == Addr::manet(9))
            .expect("forged entry");
        // Valid signature — under the attacker's key, not the victim's.
        assert!(forged.auth_valid());
        assert_eq!(forged.advertiser_identity(), Some(attacker.identity()),);
        assert_ne!(forged.advertiser_identity(), Some(honest.identity()));
    }
}
