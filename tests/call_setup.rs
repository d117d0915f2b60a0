//! F3 — paper Fig. 3: establishing calls between users in an isolated
//! MANET with no centralized SIP server, through the full SIPHoc stack
//! (UA → local proxy → MANET SLP → remote proxy → UA), over both AODV
//! and OLSR.

use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::ua::{CallEvent, UaConfig};
use wireless_adhoc_voip::sip::uri::Aor;

fn ua(user: &str, call: Option<(u64, &str, u64)>) -> UaConfig {
    let cfg = wireless_adhoc_voip::core::config::VoipAppConfig::fig2(user, "voicehoc.ch");
    let mut ua = cfg.to_ua_config().expect("localhost proxy resolves");
    if let Some((at, to, dur)) = call {
        ua = ua.call_at(
            SimTime::from_secs(at),
            Aor::new(to, "voicehoc.ch"),
            SimDuration::from_secs(dur),
        );
    }
    ua
}

fn manet_world(seed: u64) -> World {
    World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()))
}

#[test]
fn one_hop_call_over_aodv() {
    let mut w = manet_world(101);
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_user(ua("alice", Some((5, "bob", 10)))),
    );
    let bob = deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0).with_user(ua("bob", None)),
    );
    w.run_for(SimDuration::from_secs(25));

    let a = alice.ua_logs[0].borrow();
    let b = bob.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Registered)),
        "{:?}",
        a.events()
    );
    assert!(b.any(|e| matches!(e, CallEvent::Registered)));
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "{:?}",
        a.events()
    );
    assert!(
        b.any(|e| matches!(e, CallEvent::Established { .. })),
        "{:?}",
        b.events()
    );
    assert!(a.any(|e| matches!(
        e,
        CallEvent::Terminated {
            by_remote: false,
            ..
        }
    )));
    assert!(b.any(|e| matches!(
        e,
        CallEvent::Terminated {
            by_remote: true,
            ..
        }
    )));

    // Media flowed in both directions with good quality.
    let ra = alice.media_reports.as_ref().unwrap().borrow();
    let rb = bob.media_reports.as_ref().unwrap().borrow();
    assert_eq!(ra.len(), 1);
    assert_eq!(rb.len(), 1);
    assert!(ra[0].received > 400, "alice received {}", ra[0].received);
    assert!(ra[0].quality.mos > 4.0, "MOS {}", ra[0].quality.mos);
    assert!(rb[0].quality.mos > 4.0);
}

#[test]
fn multihop_call_over_aodv_chain() {
    let mut w = manet_world(102);
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_user(ua("alice", Some((6, "bob", 8)))),
    );
    let _r1 = deploy(&mut w, NodeSpec::relay(80.0, 0.0));
    let _r2 = deploy(&mut w, NodeSpec::relay(160.0, 0.0));
    let bob = deploy(
        &mut w,
        NodeSpec::relay(240.0, 0.0).with_user(ua("bob", None)),
    );
    w.run_for(SimDuration::from_secs(13));

    // The route between the endpoints really is 3 hops — sampled while the
    // call's media still holds it active. (Idle routes now expire after
    // ACTIVE_ROUTE_TIMEOUT: gateway probes back off instead of re-flooding
    // the mesh every few seconds.)
    let route = w
        .node(alice.id)
        .routes()
        .lookup_specific(bob.addr, w.now())
        .expect("route to bob's node");
    assert_eq!(route.hops, 3);

    w.run_for(SimDuration::from_secs(12));

    let a = alice.ua_logs[0].borrow();
    let b = bob.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "caller events: {:?}",
        a.events()
    );
    assert!(b.any(|e| matches!(e, CallEvent::Established { .. })));

    // Media crossed the relays.
    let ra = alice.media_reports.as_ref().unwrap().borrow();
    assert!(ra[0].received > 300, "received {}", ra[0].received);
    assert!(ra[0].quality.mos > 3.5, "MOS {}", ra[0].quality.mos);
}

#[test]
fn call_over_olsr_proactive() {
    let mut w = manet_world(103);
    let mk = |x: f64| NodeSpec::relay(x, 0.0).with_routing(RoutingProtocol::Olsr);
    let alice = deploy(&mut w, mk(0.0).with_user(ua("alice", Some((25, "bob", 6)))));
    let _relay = deploy(&mut w, mk(80.0));
    let bob = deploy(&mut w, mk(160.0).with_user(ua("bob", None)));
    // OLSR + proactive SLP need gossip time before the call at t=25.
    w.run_for(SimDuration::from_secs(40));

    let a = alice.ua_logs[0].borrow();
    let b = bob.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "caller events: {:?}",
        a.events()
    );
    assert!(b.any(|e| matches!(e, CallEvent::Established { .. })));

    // Proactive mode: bob's binding had replicated to alice's registry
    // before the call, so the lookup was local.
    assert!(w.node(alice.id).stats().get("slp.lookup_hit").packets >= 1);
}

#[test]
fn call_to_unknown_user_fails_cleanly() {
    let mut w = manet_world(104);
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_user(ua("alice", Some((5, "ghost", 5)))),
    );
    let _bob = deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0).with_user(ua("bob", None)),
    );
    w.run_for(SimDuration::from_secs(30));
    let a = alice.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(
            e,
            CallEvent::Failed {
                code: Some(404),
                ..
            }
        )),
        "{:?}",
        a.events()
    );
}

#[test]
fn simultaneous_bidirectional_calls() {
    let mut w = manet_world(105);
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_user(ua("alice", Some((5, "bob", 10)))),
    );
    let bob = deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0).with_user(ua("bob", None)),
    );
    let carol = deploy(
        &mut w,
        NodeSpec::relay(30.0, 50.0).with_user(ua("carol", Some((6, "bob", 5)))),
    );
    w.run_for(SimDuration::from_secs(25));

    // Bob auto-answers both calls (two dialogs on one UA).
    let b = bob.ua_logs[0].borrow();
    assert_eq!(
        b.count(|e| matches!(e, CallEvent::IncomingCall { .. })),
        2,
        "{:?}",
        b.events()
    );
    let a = alice.ua_logs[0].borrow();
    let c = carol.ua_logs[0].borrow();
    assert!(a.any(|e| matches!(e, CallEvent::Established { .. })));
    assert!(c.any(|e| matches!(e, CallEvent::Established { .. })));
}

#[test]
fn deterministic_replay_same_seed() {
    fn run(seed: u64) -> Vec<String> {
        let mut w = manet_world(seed);
        let alice = deploy(
            &mut w,
            NodeSpec::relay(0.0, 0.0).with_user(ua("alice", Some((5, "bob", 5)))),
        );
        let _bob = deploy(
            &mut w,
            NodeSpec::relay(60.0, 0.0).with_user(ua("bob", None)),
        );
        w.run_for(SimDuration::from_secs(20));
        let log = alice.ua_logs[0].borrow();
        log.events()
            .iter()
            .map(|(t, e)| format!("{t}:{e:?}"))
            .collect()
    }
    assert_eq!(run(106), run(106));
}
