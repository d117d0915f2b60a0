//! Multiple gateways: the Connection Provider fails over to a surviving
//! gateway when the one it leased from dies — the deployment property the
//! paper's "as soon as one node in the MANET is connected" transparency
//! claim implies but never demonstrates. With tunnel keepalives the
//! detection is fast (missed pings, not lease-refresh timeouts), so both
//! tests hold the stack to a 5 s detection + re-lease budget.

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, SiphocNode};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess};
use wireless_adhoc_voip::simnet::net::ports;
use wireless_adhoc_voip::simnet::node::NodeConfig;
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::ua::{CallEvent, UaConfig, UserAgent};
use wireless_adhoc_voip::sip::uri::Aor;

const PROVIDER: Addr = Addr(0x52010101);

/// Provider + wired callee ("iris", with a media plane) on the Internet
/// side; returns the DNS directory MANET nodes should use.
fn internet_side(w: &mut World) -> DnsDirectory {
    let dns = DnsDirectory::new().with_record("voicehoc.ch", PROVIDER);
    let p = w.add_node(NodeConfig::wired(PROVIDER));
    w.spawn(
        p,
        Box::new(SipProviderProcess::new(ProviderConfig::new(
            "voicehoc.ch",
            dns.clone(),
        ))),
    );
    let iris_node = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 50)));
    let mut iris_cfg = UaConfig::new(
        Aor::new("iris", "voicehoc.ch"),
        SocketAddr::new(PROVIDER, ports::SIP),
    );
    iris_cfg.answer_delay = SimDuration::ZERO;
    let (iris, _iris_log) = UserAgent::new(iris_cfg);
    w.spawn(iris_node, Box::new(iris));
    let (im, _) = MediaProcess::new(MediaConfig::pcmu(8000));
    w.spawn(iris_node, Box::new(im));
    dns
}

fn public_leases(w: &World, node: &SiphocNode) -> Vec<Addr> {
    w.node(node.id)
        .local_addrs()
        .iter()
        .copied()
        .filter(|a| a.is_public())
        .collect()
}

#[test]
fn client_fails_over_to_second_gateway_within_five_seconds() {
    let mut w = World::new(WorldConfig::new(901).with_radio(RadioConfig::ideal()));
    let dns = internet_side(&mut w);

    // Two gateways flanking the client.
    let gw1 = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(Addr::new(82, 130, 64, 1))
            .with_dns(dns.clone()),
    );
    let gw2 = deploy(
        &mut w,
        NodeSpec::relay(120.0, 0.0)
            .with_gateway(Addr::new(82, 130, 65, 1))
            .with_dns(dns.clone()),
    );
    let alice_ua = VoipAppConfig::fig2("alice", "voicehoc.ch")
        .to_ua_config()
        .expect("config")
        .call_at(
            SimTime::from_secs(40),
            Aor::new("iris", "voicehoc.ch"),
            SimDuration::from_secs(5),
        );
    let alice = deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0).with_dns(dns).with_user(alice_ua),
    );

    // Lease established with whichever gateway ranked best.
    w.run_for(SimDuration::from_secs(20));
    let first_lease = public_leases(&w, &alice);
    assert_eq!(first_lease.len(), 1, "one lease held");
    let leased_from_gw1 = first_lease[0].0 & 0xffff_ff00 == 0x5282_4000;
    let (dead, alive) = if leased_from_gw1 {
        (gw1.id, gw2.id)
    } else {
        (gw2.id, gw1.id)
    };

    // Kill the serving gateway. Keepalives (1 s interval, 3 missed pings)
    // must detect the death and re-lease from the survivor within 5 s —
    // not the ~90 s the lease-refresh path would need.
    w.set_node_up(dead, false);
    let killed_at = w.now();
    let mut release_after = None;
    for step in 1..=100u64 {
        w.run_for(SimDuration::from_millis(100));
        let leases = public_leases(&w, &alice);
        if leases.iter().any(|a| *a != first_lease[0]) {
            release_after = Some(SimDuration::from_millis(100 * step));
            break;
        }
    }
    let release_after = release_after.expect("re-leased after failover");
    assert!(
        release_after <= SimDuration::from_secs(5),
        "detection + re-lease took {release_after:?}, budget is 5 s"
    );
    let second_lease = public_leases(&w, &alice);
    assert_eq!(second_lease.len(), 1, "exactly one lease after failover");
    assert_ne!(
        second_lease[0], first_lease[0],
        "lease must come from the other pool"
    );
    assert!(w.node(alive).stats().get("tunnel.lease").packets >= 1);
    assert!(w.node(alice.id).stats().get("cp.gateway_dead").packets >= 1);
    let _ = killed_at;

    // And the Internet call at t=40 succeeds through the new gateway.
    w.run_until(SimTime::from_secs(60));
    let a = alice.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "call through the surviving gateway: {:?}",
        a.events()
    );
}

/// Regression: standby promotion must *re-rank* the warm set (fewest
/// hops first, freshest advert as the tie-break), not pop it in insertion
/// order. Discovery is staggered so the orders disagree: a distant
/// gateway is warmed first, then a one-hop gateway powers on and is
/// warmed second. When the active gateway dies, the promotion must pick
/// the late-arriving near gateway — the insertion-order pop this guards
/// against would hand the call to the 3-hop one.
#[test]
fn promotion_prefers_closest_standby_over_insertion_order() {
    let mut w = World::new(WorldConfig::new(903).with_radio(RadioConfig::ideal()));
    let dns = internet_side(&mut w);

    // gwA — alice — r1 — r2 — gwB in a line (gwB three hops from alice);
    // gwC one hop from alice, off the line, initially powered down.
    let gw_a = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(Addr::new(82, 130, 64, 1))
            .with_standby(2, SimDuration::from_secs(1))
            .with_dns(dns.clone()),
    );
    let alice = deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0)
            .with_standby(2, SimDuration::from_secs(1))
            .with_dns(dns.clone()),
    );
    deploy(&mut w, NodeSpec::relay(120.0, 0.0).with_dns(dns.clone()));
    deploy(&mut w, NodeSpec::relay(180.0, 0.0).with_dns(dns.clone()));
    deploy(
        &mut w,
        NodeSpec::relay(240.0, 0.0)
            .with_gateway(Addr::new(82, 130, 65, 1))
            .with_dns(dns.clone()),
    );
    // Phase 1: gwA serves (one hop beats three), gwB is the only standby.
    w.run_for(SimDuration::from_secs(15));
    let first_lease = public_leases(&w, &alice);
    assert_eq!(first_lease.len(), 1, "one lease held");
    assert_eq!(
        first_lease[0].0 & 0xffff_ff00,
        0x5282_4000,
        "nearest gateway must serve first"
    );
    assert!(
        w.node(alice.id).stats().get("cp.standby_warm").packets >= 1,
        "the far gateway must be pre-warmed"
    );

    // Phase 2: the near alternative joins the MANET *after* gwB is
    // already warm, so it lands second in insertion order.
    deploy(
        &mut w,
        NodeSpec::relay(60.0, 60.0)
            .with_gateway(Addr::new(82, 130, 66, 1))
            .with_dns(dns),
    );
    w.run_for(SimDuration::from_secs(15));
    assert!(
        w.node(alice.id).stats().get("cp.standby_warm").packets >= 2,
        "both alternatives must be warm before the kill"
    );

    // Phase 3: the serving gateway dies; promotion must pick gwC (1 hop),
    // not gwB (3 hops, warmed first).
    w.set_node_up(gw_a.id, false);
    let mut promoted = false;
    for _ in 0..50 {
        w.run_for(SimDuration::from_millis(100));
        if w.node(alice.id).stats().get("cp.handoff_ok").packets >= 1 {
            promoted = true;
            break;
        }
    }
    assert!(promoted, "handoff must complete within 5 s of the kill");
    assert!(w.node(alice.id).stats().get("cp.promote").packets >= 1);
    let second_lease = public_leases(&w, &alice);
    assert_eq!(second_lease.len(), 1, "exactly one lease after promotion");
    assert_eq!(
        second_lease[0].0 & 0xffff_ff00,
        0x5282_4200,
        "promotion must re-rank by hops: the one-hop gateway wins even \
         though the three-hop one was warmed first (got {})",
        second_lease[0]
    );
}

/// A promoted standby stops being a standby: its standby keepalive and
/// refresh chains die at promotion and one active keepalive chain takes
/// over. Chains that survived promotion would ping the new gateway twice
/// per interval, once as the active lease and once as the standby.
#[test]
fn promoted_standby_runs_one_keepalive_chain() {
    let mut w = World::new(WorldConfig::new(904).with_radio(RadioConfig::ideal()));
    let dns = internet_side(&mut w);
    let gws = [
        deploy(
            &mut w,
            NodeSpec::relay(0.0, 0.0)
                .with_gateway(Addr::new(82, 130, 64, 1))
                .with_dns(dns.clone()),
        ),
        deploy(
            &mut w,
            NodeSpec::relay(120.0, 0.0)
                .with_gateway(Addr::new(82, 130, 65, 1))
                .with_dns(dns.clone()),
        ),
    ];
    let alice = deploy(&mut w, NodeSpec::relay(60.0, 0.0).with_dns(dns));
    w.run_for(SimDuration::from_secs(20));
    let first = public_leases(&w, &alice);
    assert_eq!(first.len(), 1, "one lease held");
    assert!(
        w.node(alice.id).stats().get("cp.standby_warm").packets >= 1,
        "the other gateway must be a warm standby"
    );
    let (dead, promoted) = if first[0].0 & 0xffff_ff00 == 0x5282_4000 {
        (&gws[0], &gws[1])
    } else {
        (&gws[1], &gws[0])
    };

    w.set_node_up(dead.id, false);
    let promoted_in_time = (0..50).any(|_| {
        w.run_for(SimDuration::from_millis(100));
        w.node(alice.id).stats().get("cp.promote").packets >= 1
    });
    assert!(promoted_in_time, "the standby must be promoted within 5 s");

    let count = |w: &World, node: NodeId, name: &str| w.node(node).stats().get(name).packets;
    let ping = count(&w, alice.id, "cp.ping");
    let standby_ping = count(&w, alice.id, "cp.standby_ping");
    let served = count(&w, promoted.id, "tunnel.ping");
    w.run_for(SimDuration::from_secs(10));
    // At most ⌈10 s / 1 s keepalive interval⌉ + 1; fewer than 8 would mean
    // the active chain never started.
    let bound = 11;
    let pings = count(&w, alice.id, "cp.ping") - ping;
    assert!(
        (8..=bound).contains(&pings),
        "{pings} active pings in 10 s after promotion, bound {bound}"
    );
    assert_eq!(
        count(&w, alice.id, "cp.standby_ping"),
        standby_ping,
        "the promoted lease must stop its standby keepalives"
    );
    let served = count(&w, promoted.id, "tunnel.ping") - served;
    assert!(
        served <= bound,
        "the promoted gateway answered {served} pings in 10 s, bound {bound}"
    );
}

/// The tentpole property: a call that is *already up* survives the death
/// of the gateway carrying it. Keepalives detect the dead gateway, the
/// Connection Provider re-leases from the survivor, the UA re-INVITEs
/// with its new public contact and media re-homes — no SIP teardown, no
/// failure event, and RTP keeps flowing on the new path.
#[test]
fn established_call_survives_gateway_death() {
    let mut w = World::new(WorldConfig::new(902).with_radio(RadioConfig::ideal()));
    let dns = internet_side(&mut w);

    // Near gateway — alice — relay — far gateway, in a line: the hop
    // ranking makes the near gateway the deterministic first choice.
    let gw_near = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(Addr::new(82, 130, 64, 1))
            .with_dns(dns.clone()),
    );
    let mut alice_ua = VoipAppConfig::fig2("alice", "voicehoc.ch")
        .to_ua_config()
        .expect("config");
    alice_ua.answer_delay = SimDuration::ZERO;
    let alice_ua = alice_ua.call_at(
        SimTime::from_secs(25),
        Aor::new("iris", "voicehoc.ch"),
        SimDuration::from_secs(30),
    );
    let alice = deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0)
            .with_dns(dns.clone())
            .with_user(alice_ua),
    );
    deploy(&mut w, NodeSpec::relay(120.0, 0.0).with_dns(dns.clone()));
    let gw_far = deploy(
        &mut w,
        NodeSpec::relay(180.0, 0.0)
            .with_gateway(Addr::new(82, 130, 65, 1))
            .with_dns(dns),
    );

    // Call up and media flowing before the kill.
    w.run_until(SimTime::from_secs(35));
    let first_lease = public_leases(&w, &alice);
    assert_eq!(first_lease.len(), 1, "one lease held");
    assert!(
        alice.ua_logs[0]
            .borrow()
            .any(|e| matches!(e, CallEvent::Established { .. })),
        "call must be up before the gateway dies"
    );
    let dead = if first_lease[0].0 & 0xffff_ff00 == 0x5282_4000 {
        gw_near.id
    } else {
        gw_far.id
    };

    w.set_node_up(dead, false);

    // Handoff completes within the 5 s budget...
    let mut handed_off = false;
    for _ in 0..50 {
        w.run_for(SimDuration::from_millis(100));
        if w.node(alice.id).stats().get("cp.handoff_ok").packets >= 1 {
            handed_off = true;
            break;
        }
    }
    assert!(handed_off, "handoff must complete within 5 s of the kill");
    assert!(w.node(alice.id).stats().get("cp.gateway_dead").packets >= 1);
    // ...as a renumbering, not an outage: the tunnel never reported down.
    assert_eq!(
        w.node(alice.id).stats().get("cp.tunnel_down").packets,
        0,
        "a successful handoff must not report an Internet outage"
    );

    // RTP resumes on the new path: packets received by alice keep
    // growing well after the old gateway (and its leased address) died.
    let rtp_mid = w.node(alice.id).stats().get("media.rtp_rx").packets;
    w.run_until(SimTime::from_secs(50));
    let rtp_late = w.node(alice.id).stats().get("media.rtp_rx").packets;
    assert!(
        rtp_late > rtp_mid + 50,
        "media must keep flowing after the handoff ({rtp_mid} -> {rtp_late})"
    );
    // The re-homing was driven by an in-dialog re-INVITE, and the call
    // was never torn down.
    assert!(
        w.node(alice.id).stats().get("sip.reinvite_tx").packets >= 1,
        "UA must re-INVITE with the new public contact"
    );
    w.run_until(SimTime::from_secs(70));
    let a = alice.ua_logs[0].borrow();
    assert!(
        !a.any(|e| matches!(e, CallEvent::Failed { .. })),
        "call must survive the handoff: {:?}",
        a.events()
    );
    assert_eq!(
        a.count(|e| matches!(e, CallEvent::Established { .. })),
        1,
        "exactly one establishment — survival, not re-dial: {:?}",
        a.events()
    );
}
