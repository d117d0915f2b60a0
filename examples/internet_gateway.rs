//! Paper §3.2: phone calls to and from the Internet.
//!
//! A three-node MANET where only one node has Internet access. Alice —
//! three radio hops from the gateway — uses her official `voicehoc.ch`
//! address transparently: her proxy registers her at the real provider
//! through the automatically discovered gateway tunnel, she calls an
//! Internet user, and later the Internet user calls *her*. The same run
//! also reproduces the paper's provider-interoperability findings
//! (siphoc.ch ✓, netvoip.ch ✓, polyphone.ethz.ch ✗).
//!
//! Run with: `cargo run --example internet_gateway`

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess};
use wireless_adhoc_voip::simnet::net::ports;
use wireless_adhoc_voip::simnet::node::NodeConfig;
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::ua::{CallEvent, UaConfig, UserAgent};
use wireless_adhoc_voip::sip::uri::Aor;

fn main() {
    let mut world = World::new(WorldConfig::new(32));

    // ---- The Internet: three providers, one reachable caller ---------
    let voicehoc = Addr::new(82, 1, 1, 1);
    let netvoip = Addr::new(82, 2, 2, 2);
    // polyphone.ethz.ch requires its own outbound proxy, which SIPHoc has
    // overwritten with "localhost" — so its domain resolves to nothing
    // usable. It is deliberately absent from DNS.
    let dns = DnsDirectory::new()
        .with_record("voicehoc.ch", voicehoc)
        .with_record("netvoip.ch", netvoip);

    let p1 = world.add_node(NodeConfig::wired(voicehoc));
    world.spawn(
        p1,
        Box::new(SipProviderProcess::new(ProviderConfig::new(
            "voicehoc.ch",
            dns.clone(),
        ))),
    );
    let p2 = world.add_node(NodeConfig::wired(netvoip));
    world.spawn(
        p2,
        Box::new(SipProviderProcess::new(ProviderConfig::new(
            "netvoip.ch",
            dns.clone(),
        ))),
    );

    let iris_node = world.add_node(NodeConfig::wired(Addr::new(82, 2, 2, 50)));
    let iris_cfg = UaConfig::new(
        Aor::new("iris", "netvoip.ch"),
        SocketAddr::new(netvoip, ports::SIP),
    )
    .call_at(
        SimTime::from_secs(60),
        Aor::new("alice", "voicehoc.ch"),
        SimDuration::from_secs(10),
    );
    let (iris_ua, iris_log) = UserAgent::new(iris_cfg);
    world.spawn(iris_node, Box::new(iris_ua));
    let (iris_media, _) = MediaProcess::new(MediaConfig::pcmu(8000));
    world.spawn(iris_node, Box::new(iris_media));

    // ---- The MANET: gateway, relay, alice -----------------------------
    let gw = deploy(
        &mut world,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(Addr::new(82, 130, 64, 1))
            .with_dns(dns.clone()),
    );
    deploy(&mut world, NodeSpec::relay(80.0, 0.0).with_dns(dns.clone()));

    // Alice calls iris at t=25 and carol@polyphone at t=45.
    let alice_ua = VoipAppConfig::fig2("Alice", "voicehoc.ch")
        .to_ua_config()
        .expect("config resolves")
        .call_at(
            SimTime::from_secs(25),
            Aor::new("iris", "netvoip.ch"),
            SimDuration::from_secs(10),
        )
        .call_at(
            SimTime::from_secs(45),
            Aor::new("carol", "polyphone.ethz.ch"),
            SimDuration::from_secs(10),
        );
    let alice = deploy(
        &mut world,
        NodeSpec::relay(160.0, 0.0)
            .with_dns(dns)
            .with_user(alice_ua),
    );

    println!("topology: alice --radio-- relay --radio-- gateway ~~wired~~ providers/iris");
    world.run_for(SimDuration::from_secs(90));

    // ---- Timeline ------------------------------------------------------
    println!("\n=== alice's timeline (2 hops from the gateway) ===");
    for (t, e) in alice.ua_logs[0].borrow().events() {
        println!("  {t}  {e:?}");
    }
    println!("\n=== iris's timeline (on the Internet) ===");
    for (t, e) in iris_log.borrow().events() {
        println!("  {t}  {e:?}");
    }

    // ---- Gateway accounting -------------------------------------------
    let st = world.stats(gw.id);
    println!("\n=== gateway tunnel accounting ===");
    for name in ["tunnel.lease", "tunnel.to_internet", "tunnel.to_client"] {
        let c = st.get(name);
        println!(
            "  {name:<22} {:>7} packets {:>10} bytes",
            c.packets, c.bytes
        );
    }

    // ---- Interop matrix (paper §3.2) ------------------------------------
    let a = alice.ua_logs[0].borrow();
    let ok_out = a.any(|e| matches!(e, CallEvent::Established { .. }));
    let ok_in = a.any(|e| matches!(e, CallEvent::IncomingCall { .. }));
    let poly_failed = a.any(|e| matches!(e, CallEvent::Failed { .. }));
    println!("\n=== provider interoperability (paper §3.2) ===");
    println!(
        "  netvoip.ch          outbound call: {}",
        if ok_out { "OK" } else { "FAILED" }
    );
    println!(
        "  voicehoc.ch         inbound call:  {}",
        if ok_in { "OK" } else { "FAILED" }
    );
    println!(
        "  polyphone.ethz.ch   outbound call: {} (requires provider-specific outbound proxy — the paper's open issue)",
        if poly_failed { "FAILED as documented" } else { "unexpectedly OK" }
    );
    assert!(ok_out && ok_in && poly_failed);
}
