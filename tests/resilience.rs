//! Failure injection across the stack: relay crashes mid-call, route
//! healing, lossy channels, duplicate suppression under retransmission,
//! and partition behavior. These exercise the paths the emergency-response
//! scenario (paper §1) depends on.

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, SiphocNode};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::ua::{CallEvent, UaConfig};
use wireless_adhoc_voip::sip::uri::Aor;

fn user(name: &str, call: Option<(u64, &str, u64)>) -> UaConfig {
    let mut ua = VoipAppConfig::fig2(name, "voicehoc.ch")
        .to_ua_config()
        .expect("config");
    ua.answer_delay = SimDuration::from_millis(50);
    if let Some((at, to, dur)) = call {
        ua = ua.call_at(
            SimTime::from_secs(at),
            Aor::new(to, "voicehoc.ch"),
            SimDuration::from_secs(dur),
        );
    }
    ua
}

/// Diamond topology: caller - {relay-a, relay-b} - callee, so one relay
/// can die without partitioning.
fn diamond(seed: u64, call: (u64, &str, u64)) -> (World, SiphocNode, SiphocNode, NodeId, NodeId) {
    let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_user(user("alice", Some(call))),
    );
    let ra = deploy(&mut w, NodeSpec::relay(60.0, 40.0));
    let rb = deploy(&mut w, NodeSpec::relay(60.0, -40.0));
    let bob = deploy(
        &mut w,
        NodeSpec::relay(120.0, 0.0).with_user(user("bob", None)),
    );
    (w, alice, bob, ra.id, rb.id)
}

#[test]
fn relay_crash_mid_call_heals_via_alternate_path() {
    let (mut w, alice, bob, ra, _rb) = diamond(501, (5, "bob", 25));
    w.run_for(SimDuration::from_secs(10));
    assert!(alice.ua_logs[0]
        .borrow()
        .any(|e| matches!(e, CallEvent::Established { .. })));

    // Kill whichever relay carries the media path.
    let bob_route = w.node(alice.id).routes().lookup(bob.addr, w.now());
    let victim = bob_route.map(|r| r.next_hop);
    let victim_id = victim.and_then(|a| w.node_by_addr(a)).unwrap_or(ra);
    w.set_node_up(victim_id, false);
    w.run_for(SimDuration::from_secs(35));

    // The call survives to its scripted BYE: media kept flowing over the
    // other relay after AODV repaired the route.
    let a = alice.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(
            e,
            CallEvent::Terminated {
                by_remote: false,
                ..
            }
        )),
        "{:?}",
        a.events()
    );
    let reports = alice.media_reports.as_ref().expect("media").borrow();
    let r = &reports[0];
    assert!(
        r.loss_fraction < 0.25,
        "healing should bound the outage: loss {}",
        r.loss_fraction
    );
    assert!(
        r.received > 700,
        "most of the 25 s call flowed: {}",
        r.received
    );
}

#[test]
fn callee_crash_mid_call_ends_with_silence_not_panic() {
    let (mut w, alice, bob, _ra, _rb) = diamond(502, (5, "bob", 60));
    w.run_for(SimDuration::from_secs(10));
    w.set_node_up(bob.id, false);
    w.run_for(SimDuration::from_secs(70));
    // Alice's scripted BYE goes unanswered; her UA logged the local
    // termination and the media report shows the one-sided stream.
    let a = alice.ua_logs[0].borrow();
    assert!(a.any(|e| matches!(e, CallEvent::Terminated { .. })));
    let reports = alice.media_reports.as_ref().expect("media").borrow();
    assert_eq!(reports.len(), 1);
    // She kept sending; nothing came back after the crash.
    assert!(reports[0].sent > reports[0].received);
}

#[test]
fn call_succeeds_over_lossy_channel_via_retransmission() {
    let radio = RadioConfig {
        loss: LossModel {
            base: 0.25,
            clear_fraction: 1.0,
            edge_loss: 0.0,
        },
        ..RadioConfig::default_80211b()
    };
    let mut w = World::new(WorldConfig::new(503).with_radio(radio));
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_user(user("alice", Some((5, "bob", 5)))),
    );
    let bob = deploy(
        &mut w,
        NodeSpec::relay(50.0, 0.0).with_user(user("bob", None)),
    );
    w.run_for(SimDuration::from_secs(40));
    let a = alice.ua_logs[0].borrow();
    let b = bob.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "25% loss must be survivable: {:?}",
        a.events()
    );
    // Exactly one dialog despite SIP retransmissions (no duplicate calls).
    assert_eq!(b.count(|e| matches!(e, CallEvent::IncomingCall { .. })), 1);
    assert_eq!(a.count(|e| matches!(e, CallEvent::Established { .. })), 1);
}

#[test]
fn partitioned_network_fails_calls_then_recovers_on_merge() {
    let mut w = World::new(WorldConfig::new(504).with_radio(RadioConfig::ideal()));
    // Two islands 1 km apart.
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_user(user("alice", Some((5, "bob", 5)))),
    );
    let bob = deploy(
        &mut w,
        NodeSpec::relay(1000.0, 0.0).with_user(user("bob", None)),
    );
    w.run_for(SimDuration::from_secs(30));
    let failed = alice.ua_logs[0]
        .borrow()
        .any(|e| matches!(e, CallEvent::Failed { .. }));
    assert!(failed, "call across the partition must fail");

    // Bob walks into range; a later call succeeds. Drive the second call
    // via a fresh UA script by moving the node and re-calling.
    w.set_mobility(bob.id, Mobility::fixed(60.0, 0.0));
    w.run_for(SimDuration::from_secs(5));
    // Re-register fresh state propagates; place a manual second call by
    // deploying carol next to alice who calls bob.
    let carol = deploy(
        &mut w,
        NodeSpec::relay(0.0, 50.0).with_user(user("carol", Some((42, "bob", 4)))),
    );
    w.run_for(SimDuration::from_secs(25));
    assert!(
        carol.ua_logs[0]
            .borrow()
            .any(|e| matches!(e, CallEvent::Established { .. })),
        "after the merge, calls must succeed: {:?}",
        carol.ua_logs[0].borrow().events()
    );
}

#[test]
fn proxy_survives_malformed_sip_and_slp_traffic() {
    let mut w = World::new(WorldConfig::new(505).with_radio(RadioConfig::ideal()));
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_user(user("alice", None)),
    );
    w.run_for(SimDuration::from_secs(2));
    // Blast garbage at every service port on the node.
    let src = SocketAddr::new(Addr::manet(0), 9999);
    for port in [5060u16, 427, 654, 7077, 5070, 8000] {
        for payload in [b"\xff\xfe\xfd".to_vec(), b"INVITE".to_vec(), vec![0u8; 200]] {
            let dst = SocketAddr::new(alice.addr, port);
            w.inject(alice.id, Datagram::new(src, dst, payload));
        }
    }
    w.run_for(SimDuration::from_secs(5));
    // The node still works: registration state intact.
    assert!(!alice
        .registry
        .borrow()
        .lookup("sip", "alice@voicehoc.ch", w.now())
        .is_empty());
    let malformed = w.stats(alice.id).sum_prefix("proxy.malformed").packets
        + w.stats(alice.id).sum_prefix("slp.malformed").packets
        + w.stats(alice.id).sum_prefix("aodv.malformed").packets;
    assert!(malformed > 0, "garbage must be counted, not crash");
}
