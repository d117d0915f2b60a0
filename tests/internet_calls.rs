//! §3.2 / T1 — phone calls to and from the Internet: "users can use their
//! official SIP phone number transparently for phone calls within the
//! MANET and for calls to the Internet as soon as one node in the MANET is
//! connected to the Internet. Should the MANET be temporarily connected to
//! the Internet, also VoIP calls from the Internet to user[s] in the MANET
//! become possible."

use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess};
use wireless_adhoc_voip::simnet::net::ports;
use wireless_adhoc_voip::simnet::node::NodeConfig;
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::ua::{CallEvent, UaConfig, UaLogHandle, UserAgent};
use wireless_adhoc_voip::sip::uri::Aor;

const PROVIDER: Addr = Addr(0x52010101); // 82.1.1.1
const GATEWAY_PUB: Addr = Addr(0x52824001); // 82.130.64.1

fn dns() -> DnsDirectory {
    DnsDirectory::new().with_record("voicehoc.ch", PROVIDER)
}

/// World with: provider for voicehoc.ch, one Internet UA ("iris"), a MANET
/// of `manet_nodes` nodes whose first node is the gateway, and "alice" on
/// the *last* MANET node (hops away from the gateway).
struct Setup {
    world: World,
    alice_log: UaLogHandle,
    iris_log: UaLogHandle,
    alice_node: NodeId,
}

fn setup(
    seed: u64,
    manet_nodes: usize,
    alice_calls: Option<(u64, &str)>,
    iris_calls: Option<(u64, &str)>,
) -> Setup {
    let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
    let p = w.add_node(NodeConfig::wired(PROVIDER));
    w.spawn(
        p,
        Box::new(SipProviderProcess::new(ProviderConfig::new(
            "voicehoc.ch",
            dns(),
        ))),
    );

    // Internet user.
    let iris_node = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 50)));
    let mut iris = UaConfig::new(
        Aor::new("iris", "voicehoc.ch"),
        SocketAddr::new(PROVIDER, ports::SIP),
    );
    if let Some((at, to)) = iris_calls {
        iris = iris.call_at(
            SimTime::from_secs(at),
            Aor::new(to, "voicehoc.ch"),
            SimDuration::from_secs(8),
        );
    }
    let (iris_ua, iris_log) = UserAgent::new(iris);
    w.spawn(iris_node, Box::new(iris_ua));
    let (iris_media, _iris_reports) = MediaProcess::new(MediaConfig::pcmu(8000));
    w.spawn(iris_node, Box::new(iris_media));

    // MANET: gateway at x=0, then relays, alice on the last node.
    let _gw = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(GATEWAY_PUB)
            .with_dns(dns()),
    );
    for i in 1..manet_nodes.saturating_sub(1) {
        deploy(
            &mut w,
            NodeSpec::relay(i as f64 * 80.0, 0.0).with_dns(dns()),
        );
    }
    let mut alice = wireless_adhoc_voip::core::config::VoipAppConfig::fig2("alice", "voicehoc.ch")
        .to_ua_config()
        .unwrap();
    if let Some((at, to)) = alice_calls {
        alice = alice.call_at(
            SimTime::from_secs(at),
            Aor::new(to, "voicehoc.ch"),
            SimDuration::from_secs(8),
        );
    }
    let alice_x = (manet_nodes.saturating_sub(1)) as f64 * 80.0;
    let alice_node = deploy(
        &mut w,
        NodeSpec::relay(alice_x, 0.0)
            .with_dns(dns())
            .with_user(alice),
    );
    let alice_log = alice_node.ua_logs[0].clone();
    Setup {
        world: w,
        alice_log,
        iris_log,
        alice_node: alice_node.id,
    }
}

#[test]
fn manet_user_registers_at_provider_through_tunnel() {
    let mut s = setup(201, 3, None, None);
    s.world.run_for(SimDuration::from_secs(30));
    // The provider registered alice under the leased public address: an
    // Internet-side lookup would now resolve her. We verify indirectly:
    // the gateway leased an address and tunneled the REGISTER.
    let gw = NodeId(2); // provider, iris, then the gateway
    let st = s.world.stats(gw);
    assert!(st.get("tunnel.lease").packets >= 1, "no lease granted");
    assert!(
        st.get("tunnel.to_internet").packets >= 1,
        "nothing tunneled out"
    );
    // And alice's local registration also succeeded (MANET side).
    assert!(s
        .alice_log
        .borrow()
        .any(|e| matches!(e, CallEvent::Registered)));
}

#[test]
fn call_from_manet_to_internet() {
    let mut s = setup(202, 3, Some((20, "iris")), None);
    s.world.run_for(SimDuration::from_secs(45));
    let a = s.alice_log.borrow();
    let i = s.iris_log.borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "alice: {:?}",
        a.events()
    );
    assert!(
        i.any(|e| matches!(e, CallEvent::IncomingCall { .. })),
        "iris: {:?}",
        i.events()
    );
    assert!(i.any(|e| matches!(e, CallEvent::Established { .. })));
    // Call ended by alice after 8 s.
    assert!(a.any(|e| matches!(
        e,
        CallEvent::Terminated {
            by_remote: false,
            ..
        }
    )));
    assert!(i.any(|e| matches!(
        e,
        CallEvent::Terminated {
            by_remote: true,
            ..
        }
    )));
}

#[test]
fn call_from_internet_to_manet() {
    let mut s = setup(203, 3, None, Some((25, "alice")));
    s.world.run_for(SimDuration::from_secs(50));
    let a = s.alice_log.borrow();
    let i = s.iris_log.borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::IncomingCall { .. })),
        "alice: {:?}",
        a.events()
    );
    assert!(
        i.any(|e| matches!(e, CallEvent::Established { .. })),
        "iris: {:?}",
        i.events()
    );
    assert!(a.any(|e| matches!(e, CallEvent::Established { .. })));
}

#[test]
fn media_crosses_the_tunnel_with_usable_quality() {
    let mut s = setup(204, 2, Some((20, "iris")), None);
    s.world.run_for(SimDuration::from_secs(45));
    // Alice's media reports live on her node's media process.
    let a = s.alice_log.borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "{:?}",
        a.events()
    );
    drop(a);
    // RTP flowed both ways across the tunnel: check stats on alice's node.
    let st = s.world.stats(s.alice_node);
    assert!(
        st.get("media.rtp_tx").packets > 300,
        "tx {}",
        st.get("media.rtp_tx").packets
    );
    assert!(
        st.get("media.rtp_rx").packets > 300,
        "rx {}",
        st.get("media.rtp_rx").packets
    );
}

#[test]
fn gateway_loss_is_detected_and_calls_fail_over_to_manet_only() {
    // With the gateway gone, Internet calls fail but MANET-internal calls
    // keep working — the transparency claim's resilience half.
    let mut s = setup(205, 3, Some((60, "iris")), None);
    // Let registration/tunnel settle, then kill the gateway.
    s.world.run_for(SimDuration::from_secs(30));
    let gw = NodeId(2);
    s.world.set_node_up(gw, false);
    s.world.run_for(SimDuration::from_secs(120));
    let a = s.alice_log.borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Failed { .. })),
        "call should fail without gateway: {:?}",
        a.events()
    );
}
