//! Tunnel and Connection Provider lifecycle: lease allocation across
//! multiple clients, expiry after client death, and reconnection after a
//! gateway restart.

use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::simnet::prelude::*;

const GW_PUB: Addr = Addr(0x52824001); // 82.130.64.1

fn world_with_gateway(seed: u64, clients: usize) -> (World, NodeId, Vec<NodeId>) {
    let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
    let gw = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(GW_PUB)
            .with_dns(DnsDirectory::new()),
    );
    let mut ids = Vec::new();
    for i in 0..clients {
        let n = deploy(&mut w, NodeSpec::relay(60.0, i as f64 * 30.0 - 30.0));
        ids.push(n.id);
    }
    (w, gw.id, ids)
}

#[test]
fn every_client_gets_a_distinct_lease() {
    let (mut w, gw, clients) = world_with_gateway(701, 3);
    w.run_for(SimDuration::from_secs(20));
    assert!(w.stats(gw).get("tunnel.lease").packets >= 3);
    let mut leases = Vec::new();
    for &c in &clients {
        let aliases: Vec<Addr> = w.node(c).local_addrs().filter(|a| a.is_public()).collect();
        assert_eq!(aliases.len(), 1, "client {c} holds exactly one lease");
        leases.push(aliases[0]);
    }
    leases.sort();
    leases.dedup();
    assert_eq!(leases.len(), clients.len(), "leases must be distinct");
}

#[test]
fn dead_client_lease_expires_and_backbone_traffic_is_dropped() {
    let (mut w, gw, clients) = world_with_gateway(702, 1);
    w.run_for(SimDuration::from_secs(15));
    let lease = w
        .node(clients[0])
        .local_addrs()
        .find(|a| a.is_public())
        .expect("client leased");
    // Kill the client; lease lifetime is 60 s, so after ~130 s the server
    // must have expired it.
    w.set_node_up(clients[0], false);
    w.run_for(SimDuration::from_secs(130));
    assert!(w.stats(gw).get("tunnel.lease_expired").packets >= 1);
    // Backbone traffic for the stale lease is dropped, not tunneled.
    let before = w.stats(gw).get("tunnel.to_client").packets;
    let srv = w.add_node(wireless_adhoc_voip::simnet::node::NodeConfig::wired(
        Addr::new(82, 1, 1, 1),
    ));
    w.inject(
        srv,
        Datagram::new(
            SocketAddr::new(Addr::new(82, 1, 1, 1), 5060),
            SocketAddr::new(lease, 5060),
            b"too late".to_vec(),
        ),
    );
    w.run_for(SimDuration::from_secs(2));
    let after = w.stats(gw).get("tunnel.to_client").packets;
    assert_eq!(before, after, "expired lease must not forward");
}

/// The server's lease sweep runs every 60 s from its start. A gateway
/// restart whose outage spans a sweep starts the chain again, so a dead
/// client's lease is still swept.
#[test]
fn restarted_gateway_still_sweeps_an_expired_lease() {
    let (mut w, gw, clients) = world_with_gateway(704, 1);
    w.run_for(SimDuration::from_secs(15));
    assert!(w.node(clients[0]).local_addrs().any(|a| a.is_public()));
    // The client dies for good; its lease lapses by t = 75 s. The
    // gateway is down across the sweep due at 60 s.
    w.set_node_up(clients[0], false);
    w.install_fault_plan(
        FaultPlan::new()
            .crash_at(SimTime::from_secs(55), gw)
            .restart_at(SimTime::from_secs(65), gw),
    );
    w.run_until(SimTime::from_secs(200));
    assert_eq!(w.stats(gw).get("tunnel.lease_expired").packets, 1);
}

#[test]
fn client_reconnects_after_gateway_restart() {
    let (mut w, gw, clients) = world_with_gateway(703, 1);
    w.run_for(SimDuration::from_secs(15));
    assert!(w.node(clients[0]).local_addrs().any(|a| a.is_public()));

    w.set_node_up(gw, false);
    // Refresh failures take up to max_refresh_failures × lease/2 ≈ 90 s to
    // declare the tunnel down.
    w.run_for(SimDuration::from_secs(150));
    assert!(
        !w.node(clients[0]).local_addrs().any(|a| a.is_public()),
        "lease must be torn down after the gateway vanished"
    );
    w.set_node_up(gw, true);
    w.run_for(SimDuration::from_secs(60));
    assert!(
        w.node(clients[0]).local_addrs().any(|a| a.is_public()),
        "client must re-discover and re-lease after gateway restart"
    );
}

/// A datagram for a lease the client gave up at a mid-call handoff is
/// dropped where it lands, not looped. The old gateway still maps the old
/// address to the client; re-injected there, the datagram would be
/// captured as Internet-bound, tunneled to the new gateway, carried by the
/// backbone back to the old one and tunneled to the client again — once
/// per round trip until the old lease lapsed.
#[test]
fn datagram_for_a_handed_off_lease_is_dropped_not_looped() {
    use wireless_adhoc_voip::core::config::VoipAppConfig;
    use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
    use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess};
    use wireless_adhoc_voip::simnet::net::ports;
    use wireless_adhoc_voip::simnet::node::NodeConfig;
    use wireless_adhoc_voip::simnet::trace::TraceKind;
    use wireless_adhoc_voip::sip::ua::{CallEvent, UaConfig, UserAgent};
    use wireless_adhoc_voip::sip::uri::Aor;

    let provider = Addr::new(82, 1, 1, 1);
    let peer = Addr::new(82, 1, 1, 50);
    let mut w = World::new(WorldConfig::new(705).with_radio(RadioConfig::ideal()));
    let dns = DnsDirectory::new().with_record("voicehoc.ch", provider);
    let p = w.add_node(NodeConfig::wired(provider));
    w.spawn(
        p,
        Box::new(SipProviderProcess::new(ProviderConfig::new(
            "voicehoc.ch",
            dns.clone(),
        ))),
    );
    let peer_node = w.add_node(NodeConfig::wired(peer));
    let mut iris = UaConfig::new(
        Aor::new("iris", "voicehoc.ch"),
        SocketAddr::new(provider, ports::SIP),
    );
    iris.answer_delay = SimDuration::ZERO;
    w.spawn(peer_node, Box::new(UserAgent::new(iris).0));
    w.spawn(
        peer_node,
        Box::new(MediaProcess::new(MediaConfig::pcmu(8000)).0),
    );

    let gws = [
        deploy(
            &mut w,
            NodeSpec::relay(0.0, 0.0)
                .with_gateway(GW_PUB)
                .with_dns(dns.clone()),
        ),
        deploy(
            &mut w,
            NodeSpec::relay(120.0, 0.0)
                .with_gateway(Addr::new(82, 130, 65, 1))
                .with_dns(dns.clone()),
        ),
    ];
    let alice_ua = VoipAppConfig::fig2("alice", "voicehoc.ch")
        .to_ua_config()
        .expect("config")
        .call_at(
            SimTime::from_secs(25),
            Aor::new("iris", "voicehoc.ch"),
            SimDuration::from_secs(30),
        );
    let alice = deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0).with_dns(dns).with_user(alice_ua),
    );
    let lease = |w: &World| w.node(alice.id).local_addrs().find(|a| a.is_public());

    w.run_until(SimTime::from_secs(35));
    assert!(
        alice.ua_logs[0]
            .borrow()
            .any(|e| matches!(e, CallEvent::Established { .. })),
        "the call must be up before the handoff"
    );
    let old = lease(&w).expect("leased");
    let old_gw = if old.0 & 0xffff_ff00 == GW_PUB.0 & 0xffff_ff00 {
        &gws[0]
    } else {
        &gws[1]
    };

    // Mid-call handoff: the serving gateway drops off long enough for the
    // keepalives to declare it dead, then comes back with its lease table
    // intact, still mapping the old address to alice.
    w.set_node_up(old_gw.id, false);
    w.run_for(SimDuration::from_secs(5));
    assert!(w.stats(alice.id).get("cp.handoff_ok").packets >= 1);
    w.set_node_up(old_gw.id, true);
    w.run_for(SimDuration::from_secs(3));
    assert_ne!(lease(&w), Some(old), "alice moved to the other gateway");

    // The wired peer sends once to the old address.
    let marker = b"for the handed-off lease";
    w.trace_mut().set_enabled(true);
    w.inject(
        peer_node,
        Datagram::new(
            SocketAddr::new(peer, 8000),
            SocketAddr::new(old, 8000),
            marker.to_vec(),
        ),
    );
    w.run_for(SimDuration::from_secs(2));
    let tunneled_in = w
        .trace()
        .find(|e| {
            e.node == alice.id
                && e.kind == TraceKind::RadioRx
                && e.dgram.src.addr == old_gw.addr
                && e.dgram.payload.windows(marker.len()).any(|x| x == marker)
        })
        .len();
    assert_eq!(
        tunneled_in, 1,
        "the old gateway must reach alice with it once, not once per round trip"
    );
    assert!(w.stats(alice.id).get("cp.stale_lease_drop").packets >= 1);
}

/// GatewayHealth regression (the merged blocklist + attestation book):
/// the death blocklist is transient per handoff while identity pins are
/// permanent, and a pinned gateway presenting a different key is refused
/// even after its death has been forgiven. Guards the dedupe of the old
/// separate `dead_gateway` field and pin map — with two books, clearing
/// one could silently clear the other.
#[test]
fn gateway_health_forgives_death_but_never_a_key_change() {
    use wireless_adhoc_voip::core::connection::GatewayHealth;
    use wireless_adhoc_voip::simnet::ident::KeyPair;

    let gw = Addr::new(10, 0, 0, 1);
    let real = KeyPair::for_addr(gw.0).identity();
    let imposter = KeyPair::for_addr(0x0a00_00fe).identity();

    let mut health = GatewayHealth::default();
    assert!(health.attest(gw, real), "first use must pin and admit");
    assert_eq!(health.pinned(gw), Some(real));

    // The gateway dies mid-handoff: blocklisted, but the pin stays.
    health.mark_dead(gw);
    assert!(health.is_dead(gw));
    assert_eq!(health.pinned(gw), Some(real), "death must not unpin");

    // Handoff resolves: death is forgiven, the pin still stands.
    health.clear_dead();
    assert!(!health.is_dead(gw));
    assert_eq!(health.pinned(gw), Some(real), "clear_dead must not unpin");

    // The restarted gateway re-attests under its original key: admitted.
    assert!(
        health.attest(gw, real),
        "a restarted gateway with its original key must be re-leasable"
    );
    assert!(!health.is_dead(gw));

    // An attacker at the same address with a different key: refused, and
    // refused again after every future handoff — pins never expire.
    assert!(!health.attest(gw, imposter), "key change must be refused");
    health.clear_dead();
    assert!(
        !health.attest(gw, imposter),
        "key change must stay refused after the handoff resolves"
    );
    assert!(
        health.attest(gw, real),
        "the original key must still be admitted after the imposter"
    );
}

/// Full-stack version of the same promise: in a secure world the client
/// re-leases from a restarted gateway, because the deterministic node
/// key re-attests under the identity pinned before the crash.
#[test]
fn secure_client_releases_restarted_gateway_under_original_key() {
    let mut w = World::new(WorldConfig::new(704).with_radio(RadioConfig::ideal()));
    let gw = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_security()
            .with_gateway(GW_PUB)
            .with_dns(DnsDirectory::new()),
    );
    let client = deploy(&mut w, NodeSpec::relay(60.0, 0.0).with_security());
    w.run_for(SimDuration::from_secs(15));
    assert!(
        w.node(client.id).local_addrs().any(|a| a.is_public()),
        "secure client must lease from the attested gateway"
    );

    w.set_node_up(gw.id, false);
    w.run_for(SimDuration::from_secs(150));
    assert!(
        !w.node(client.id).local_addrs().any(|a| a.is_public()),
        "lease must be torn down after the gateway vanished"
    );

    w.set_node_up(gw.id, true);
    w.run_for(SimDuration::from_secs(60));
    assert!(
        w.node(client.id).local_addrs().any(|a| a.is_public()),
        "re-attestation under the pinned identity must allow the re-lease"
    );
}

/// Records, with its instant, every `InternetUp` and `InternetDown` the
/// node's Connection Provider emits.
struct Connectivity(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

impl Process for Connectivity {
    fn name(&self) -> &'static str {
        "connectivity-log"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.take_local(&[LocalKind::InternetUp, LocalKind::InternetDown]);
    }
    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        let line = match ev {
            LocalEvent::InternetUp { public } => format!("{} up {public}\n", ctx.now_us()),
            LocalEvent::InternetDown => format!("{} down\n", ctx.now_us()),
            _ => return,
        };
        self.0.borrow_mut().extend_from_slice(line.as_bytes());
    }
}

/// Port the Connection Provider sends its SLP gateway queries from.
const CP_SLP_PORT: u16 = 4271;

/// A traced world with the given gateways (`(x, y)` each, pools
/// 82.130.64+i.0/24) and one client at (60, 0) built by `client`; returns
/// the world, the gateways, the client and its connectivity log.
fn cp_world(
    seed: u64,
    gateways: &[(f64, f64)],
    client: impl FnOnce(NodeSpec) -> NodeSpec,
) -> (
    World,
    Vec<wireless_adhoc_voip::core::nodesetup::SiphocNode>,
    wireless_adhoc_voip::core::nodesetup::SiphocNode,
    std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
) {
    let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
    let gws = gateways
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            deploy(
                &mut w,
                NodeSpec::relay(x, y)
                    .with_gateway(Addr::new(82, 130, 64 + i as u8, 1))
                    .with_dns(DnsDirectory::new()),
            )
        })
        .collect();
    let c = deploy(&mut w, client(NodeSpec::relay(60.0, 0.0)));
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    w.spawn(c.id, Box::new(Connectivity(log.clone())));
    w.trace_mut().set_capacity(1 << 20);
    w.trace_mut().set_enabled(true);
    (w, gws, c, log)
}

/// The gateway whose pool the client's public alias comes from.
fn serving(
    w: &World,
    gws: &[wireless_adhoc_voip::core::nodesetup::SiphocNode],
    client: NodeId,
) -> NodeId {
    let public = w
        .node(client)
        .local_addrs()
        .find(|a| a.is_public())
        .expect("client leased");
    let i = (public.0 >> 8 & 0xff) as usize - 64;
    gws[i].id
}

/// Appends to `out`, each with its capture instant, every payload the
/// client's Connection Provider put on the air or on loopback, then the
/// connectivity log.
fn cp_bytes(w: &World, client: NodeId, log: &std::cell::RefCell<Vec<u8>>, out: &mut Vec<u8>) {
    use wireless_adhoc_voip::simnet::trace::TraceKind;
    assert_eq!(
        w.trace().evicted(),
        0,
        "the capture must hold the whole run"
    );
    let own = w.node(client).addr();
    for e in w.trace().entries() {
        let d = &e.dgram;
        if e.node == client
            && matches!(e.kind, TraceKind::RadioTx | TraceKind::Loopback)
            && d.src.addr == own
            && (d.src.port == ports::TUNNEL || d.src.port == CP_SLP_PORT)
        {
            out.extend_from_slice(&e.time.as_micros().to_le_bytes());
            out.extend_from_slice(&d.payload);
        }
    }
    out.extend_from_slice(&log.borrow());
}

/// Injects, as if the gateway `gw` had sent it, a grant of
/// 82.130.64.200 for 60 s to the client `c`, which asked for none.
fn inject_unsolicited_grant(
    w: &mut World,
    gw: &wireless_adhoc_voip::core::nodesetup::SiphocNode,
    c: &wireless_adhoc_voip::core::nodesetup::SiphocNode,
) {
    let grant = wireless_adhoc_voip::core::tunnel::TunnelMsg::Lease {
        public: Addr::new(82, 130, 64, 200),
        lifetime_secs: 60,
    };
    w.inject(
        gw.id,
        Datagram::new(
            SocketAddr::new(gw.addr, ports::TUNNEL),
            SocketAddr::new(c.addr, ports::TUNNEL),
            grant.to_wire(),
        ),
    );
}

/// The bytes of the Connection Provider's decisions no golden digest
/// pins: a warm standby promoted, a break-before-make fallback, an
/// advance through cold contacts after connect timeouts, a probe that
/// finds no gateway, a teardown after refresh failures and an
/// unsolicited grant dropped. One FNV-1a over every payload the provider
/// sends and every connectivity signal it emits, with their instants.
#[test]
fn connection_provider_keeps_its_bytes() {
    const PINNED: u64 = 0x5bb2_2c97_9826_2f2e;
    let two = [(0.0, 0.0), (120.0, 0.0)];
    let mut bytes = Vec::new();
    let count = |w: &World, n: NodeId, name: &str| w.stats(n).get(name).packets;

    // Warm promotion: the standby takes over in the event that saw the
    // serving gateway die.
    let (mut w, gws, c, log) = cp_world(801, &two, |s| s);
    w.run_for(SimDuration::from_secs(20));
    let dead = serving(&w, &gws, c.id);
    w.set_node_up(dead, false);
    w.run_for(SimDuration::from_secs(10));
    assert!(count(&w, c.id, "cp.promote") >= 1);
    cp_bytes(&w, c.id, &log, &mut bytes);

    // Break-before-make: no standby, so the handoff handshakes with the
    // best ranked survivor.
    let cold = |s: NodeSpec| s.with_standby(0, SimDuration::from_secs(10));
    let (mut w, gws, c, log) = cp_world(802, &two, cold);
    w.run_for(SimDuration::from_secs(20));
    let dead = serving(&w, &gws, c.id);
    w.set_node_up(dead, false);
    w.run_for(SimDuration::from_secs(10));
    assert_eq!(count(&w, c.id, "cp.promote"), 0);
    assert!(count(&w, c.id, "cp.handoff_ok") >= 1);
    cp_bytes(&w, c.id, &log, &mut bytes);

    // Every gateway dies: each candidate times out in turn, the provider
    // advances through the cold contacts and then goes offline.
    let three = [(0.0, 0.0), (120.0, 0.0), (60.0, 60.0)];
    let (mut w, gws, c, log) = cp_world(803, &three, cold);
    w.run_for(SimDuration::from_secs(20));
    for g in &gws {
        w.set_node_up(g.id, false);
    }
    w.run_for(SimDuration::from_secs(30));
    assert!(count(&w, c.id, "cp.standby_advance") >= 1);
    assert!(count(&w, c.id, "cp.tunnel_down") >= 1);
    cp_bytes(&w, c.id, &log, &mut bytes);

    // The only gateway dies: no candidate, so the handoff probes, finds
    // nothing and declares the node offline.
    let (mut w, gws, c, log) = cp_world(804, &two[..1], cold);
    w.run_for(SimDuration::from_secs(20));
    w.set_node_up(gws[0].id, false);
    w.run_for(SimDuration::from_secs(20));
    assert!(count(&w, c.id, "cp.probe") >= 2);
    assert!(count(&w, c.id, "cp.tunnel_down") >= 1);
    cp_bytes(&w, c.id, &log, &mut bytes);

    // Without keepalives the refresh chain alone notices the dead gateway.
    let quiet = |s: NodeSpec| s.with_keepalive(SimDuration::ZERO, 3);
    let (mut w, gws, c, log) = cp_world(805, &two[..1], quiet);
    w.run_for(SimDuration::from_secs(15));
    w.set_node_up(gws[0].id, false);
    w.run_for(SimDuration::from_secs(135));
    assert_eq!(count(&w, c.id, "cp.tunnel_down"), 1);
    cp_bytes(&w, c.id, &log, &mut bytes);

    // A grant from the gateway's address that answers no TCONNECT
    // changes nothing.
    let (mut w, gws, c, log) = cp_world(806, &two[..1], |s| s);
    w.run_for(SimDuration::from_secs(15));
    inject_unsolicited_grant(&mut w, &gws[0], &c);
    w.run_for(SimDuration::from_secs(40));
    assert_eq!(count(&w, c.id, "cp.lease_renumbered"), 0);
    assert_eq!(count(&w, c.id, "cp.lease_unsolicited"), 1);
    cp_bytes(&w, c.id, &log, &mut bytes);

    let got = wireless_adhoc_voip::simnet::ident::h64(&bytes);
    assert_eq!(got, PINNED, "got {got:#018x}");
}

/// A grant the client did not ask for, from its serving gateway's
/// address (flow 6 above), is dropped: the client keeps its public
/// address and announces nothing, and the gateway's own grants keep
/// refreshing the lease.
#[test]
fn an_unsolicited_grant_does_not_renumber_the_client() {
    let (mut w, gws, c, log) = cp_world(806, &[(0.0, 0.0)], |s| s);
    let public = |w: &World| w.node(c.id).local_addrs().find(|a| a.is_public());
    let count = |w: &World, name: &str| w.stats(c.id).get(name).packets;
    w.run_for(SimDuration::from_secs(15));
    let leased = public(&w).expect("client leased");
    let announced = log.borrow().clone();
    let refreshes = count(&w, "cp.tconnect");

    inject_unsolicited_grant(&mut w, &gws[0], &c);
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(public(&w), Some(leased));
    assert_eq!(count(&w, "cp.lease_unsolicited"), 1);

    w.run_for(SimDuration::from_secs(40));
    assert!(count(&w, "cp.tconnect") > refreshes, "a refresh went out");
    assert_eq!(public(&w), Some(leased));
    assert_eq!(count(&w, "cp.lease_renumbered"), 0);
    assert_eq!(count(&w, "cp.lease_unsolicited"), 1);
    assert_eq!(count(&w, "cp.tunnel_down"), 0);
    assert_eq!(*log.borrow(), announced, "no InternetUp after the grant");
}

/// A grant of lifetime zero (one corrupted byte of "60" can make one)
/// must not spin the refresh chain: every refresh period is at least half
/// of `MIN_REFRESH_LEASE`, so the tunnel survives the grant. The grant is
/// injected just after a refresh went out, so it is the one that answers
/// it, and the gateway's own answer finds nothing left to answer.
#[test]
fn a_zero_lifetime_grant_keeps_the_tunnel_up() {
    let (mut w, gw, clients) = world_with_gateway(703, 1);
    w.run_for(SimDuration::from_secs(15));
    let c = clients[0];
    let public = w
        .node(c)
        .local_addrs()
        .find(|a| a.is_public())
        .expect("client leased");
    let before = w.stats(c).get("cp.tconnect").packets;
    while w.stats(c).get("cp.tconnect").packets == before {
        w.run_for(SimDuration::from_micros(100));
    }
    let tconnects = before + 1;
    let grant = wireless_adhoc_voip::core::tunnel::TunnelMsg::Lease {
        public,
        lifetime_secs: 0,
    };
    let gw_addr = w.node(gw).addr();
    w.inject(
        gw,
        Datagram::new(
            SocketAddr::new(gw_addr, ports::TUNNEL),
            SocketAddr::new(w.node(c).addr(), ports::TUNNEL),
            grant.to_wire(),
        ),
    );
    w.run_for(SimDuration::from_millis(100));
    let stats = w.stats(c);
    assert_eq!(stats.get("cp.tconnect").packets, tconnects);
    assert_eq!(stats.get("cp.lease_unsolicited").packets, 1);
    assert_eq!(stats.get("cp.tunnel_down").packets, 0);
    assert!(w.node(c).local_addrs().any(|a| a == public));
    // The next refresh renews the lease at its usual lifetime.
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(w.stats(c).get("cp.tunnel_down").packets, 0);
    assert!(w.node(c).local_addrs().any(|a| a == public));
}
