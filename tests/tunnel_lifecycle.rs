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
    assert!(w.node(gw).stats().get("tunnel.lease").packets >= 3);
    let mut leases = Vec::new();
    for &c in &clients {
        let aliases: Vec<Addr> = w
            .node(c)
            .local_addrs()
            .iter()
            .copied()
            .filter(|a| a.is_public())
            .collect();
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
        .iter()
        .copied()
        .find(|a| a.is_public())
        .expect("client leased");
    // Kill the client; lease lifetime is 60 s, so after ~130 s the server
    // must have expired it.
    w.set_node_up(clients[0], false);
    w.run_for(SimDuration::from_secs(130));
    assert!(w.node(gw).stats().get("tunnel.lease_expired").packets >= 1);
    // Backbone traffic for the stale lease is dropped, not tunneled.
    let before = w.node(gw).stats().get("tunnel.to_client").packets;
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
    let after = w.node(gw).stats().get("tunnel.to_client").packets;
    assert_eq!(before, after, "expired lease must not forward");
}

#[test]
fn client_reconnects_after_gateway_restart() {
    let (mut w, gw, clients) = world_with_gateway(703, 1);
    w.run_for(SimDuration::from_secs(15));
    assert!(w
        .node(clients[0])
        .local_addrs()
        .iter()
        .any(|a| a.is_public()));

    w.set_node_up(gw, false);
    // Refresh failures take up to max_refresh_failures × lease/2 ≈ 90 s to
    // declare the tunnel down.
    w.run_for(SimDuration::from_secs(150));
    assert!(
        !w.node(clients[0])
            .local_addrs()
            .iter()
            .any(|a| a.is_public()),
        "lease must be torn down after the gateway vanished"
    );
    w.set_node_up(gw, true);
    w.run_for(SimDuration::from_secs(60));
    assert!(
        w.node(clients[0])
            .local_addrs()
            .iter()
            .any(|a| a.is_public()),
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
    let lease = |w: &World| {
        w.node(alice.id)
            .local_addrs()
            .iter()
            .copied()
            .find(|a| a.is_public())
    };

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
    assert!(w.node(alice.id).stats().get("cp.handoff_ok").packets >= 1);
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
    assert!(w.node(alice.id).stats().get("cp.stale_lease_drop").packets >= 1);
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
        w.node(client.id)
            .local_addrs()
            .iter()
            .any(|a| a.is_public()),
        "secure client must lease from the attested gateway"
    );

    w.set_node_up(gw.id, false);
    w.run_for(SimDuration::from_secs(150));
    assert!(
        !w.node(client.id)
            .local_addrs()
            .iter()
            .any(|a| a.is_public()),
        "lease must be torn down after the gateway vanished"
    );

    w.set_node_up(gw.id, true);
    w.run_for(SimDuration::from_secs(60));
    assert!(
        w.node(client.id)
            .local_addrs()
            .iter()
            .any(|a| a.is_public()),
        "re-attestation under the pinned identity must allow the re-lease"
    );
}
