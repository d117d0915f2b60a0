//! The full SIPHoc stack over DSDV — the third routing protocol behind
//! the plugin interface, proving the paper's generality claim end to end.

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::ua::CallEvent;
use wireless_adhoc_voip::sip::uri::Aor;

#[test]
fn multihop_call_over_dsdv() {
    let mut w = World::new(WorldConfig::new(801).with_radio(RadioConfig::ideal()));
    let mk = |x: f64| NodeSpec::relay(x, 0.0).with_routing(RoutingProtocol::Dsdv);
    let alice_ua = VoipAppConfig::fig2("alice", "voicehoc.ch")
        .to_ua_config()
        .expect("config")
        .call_at(
            SimTime::from_secs(90), // DSDV + proactive SLP convergence
            Aor::new("bob", "voicehoc.ch"),
            SimDuration::from_secs(8),
        );
    let alice = deploy(&mut w, mk(0.0).with_user(alice_ua));
    let _relay = deploy(&mut w, mk(80.0));
    let bob = deploy(
        &mut w,
        mk(160.0).with_user(
            VoipAppConfig::fig2("bob", "voicehoc.ch")
                .to_ua_config()
                .expect("config"),
        ),
    );
    w.run_for(SimDuration::from_secs(110));

    let a = alice.ua_logs[0].borrow();
    let b = bob.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "caller events: {:?}",
        a.events()
    );
    assert!(b.any(|e| matches!(e, CallEvent::Established { .. })));
    // DSDV routes were in place before the call (proactive).
    let r = w
        .node(alice.id)
        .routes()
        .lookup_specific(bob.addr, w.now())
        .expect("route");
    assert_eq!(r.hops, 2);
    // Bob's binding had replicated via DSDV-update piggybacking.
    assert!(w.node(alice.id).stats().get("slp.lookup_hit").packets >= 1);
    assert!(w.node(alice.id).stats().get("dsdv.piggyback").bytes > 0);
}
