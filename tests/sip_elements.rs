//! The two stateless SIP elements — the SIPHoc proxy (paper §2) and the
//! Internet provider (§3.2) — on the wire: one byte pin over the flows
//! no golden digest covers.

use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess};
use wireless_adhoc_voip::simnet::ident::KeyPair;
use wireless_adhoc_voip::simnet::net::ports;
use wireless_adhoc_voip::simnet::node::NodeConfig;
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::simnet::trace::TraceKind;
use wireless_adhoc_voip::sip::ua::{ActionKind, CallEvent, ScriptedAction, UaConfig, UserAgent};
use wireless_adhoc_voip::sip::uri::Aor;

/// Port the SIPHoc proxy sends its SLP adverts and lookups from.
const PROXY_SLP_PORT: u16 = 4270;

const PROVIDER: Addr = Addr(0x52010101); // 82.1.1.1
const PROVIDER2: Addr = Addr(0x52020202); // 82.2.2.2

fn fig2(user: &str) -> UaConfig {
    wireless_adhoc_voip::core::config::VoipAppConfig::fig2(user, "voicehoc.ch")
        .to_ua_config()
        .unwrap()
}

fn call(ua: UaConfig, at: u64, to: Aor, secs: u64) -> UaConfig {
    ua.call_at(SimTime::from_secs(at), to, SimDuration::from_secs(secs))
}

fn traced(seed: u64) -> World {
    let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
    w.trace_mut().set_capacity(1 << 20);
    w.trace_mut().set_enabled(true);
    w
}

fn provider(w: &mut World, addr: Addr, domain: &str, dns: DnsDirectory) -> NodeId {
    let p = w.add_node(NodeConfig::wired(addr));
    w.spawn(
        p,
        Box::new(SipProviderProcess::new(ProviderConfig::new(domain, dns))),
    );
    p
}

/// An Internet user agent on its own wired node.
fn internet_ua(w: &mut World, addr: Addr, cfg: UaConfig) -> NodeId {
    let n = w.add_node(NodeConfig::wired(addr));
    let (ua, _log) = UserAgent::new(cfg);
    w.spawn(n, Box::new(ua));
    let (media, _reports) = MediaProcess::new(MediaConfig::pcmu(8000));
    w.spawn(n, Box::new(media));
    n
}

/// A response whose top Via names neither element: both must drop it.
fn stray_response(from: SocketAddr, to: SocketAddr) -> Datagram {
    let text = "SIP/2.0 200 OK\r\n\
                Via: SIP/2.0/UDP 10.9.9.9:5060;branch=z9hG4bKstray\r\n\
                Via: SIP/2.0/UDP 10.9.9.8:5070;branch=z9hG4bKorig\r\n\
                From: <sip:x@voicehoc.ch>;tag=1\r\n\
                To: <sip:y@voicehoc.ch>;tag=2\r\n\
                Call-ID: stray\r\n\
                CSeq: 1 INVITE\r\n\
                Content-Length: 0\r\n\r\n";
    Datagram::new(from, to, text.as_bytes())
}

/// Appends to `out`, each with its capture instant, every SIP payload a
/// SIPHoc proxy or a provider sent (source port 5060, on the air, on
/// loopback or arriving over the wire) and every SLP message a proxy
/// sent, then the two misrouted-response counters.
fn element_bytes(w: &World, out: &mut Vec<u8>) {
    assert_eq!(
        w.trace().evicted(),
        0,
        "the capture must hold the whole run"
    );
    for e in w.trace().entries() {
        let d = &e.dgram;
        if matches!(
            e.kind,
            TraceKind::RadioTx | TraceKind::Loopback | TraceKind::WiredRx
        ) && (d.src.port == ports::SIPHOC_PROXY || d.src.port == PROXY_SLP_PORT)
        {
            out.extend_from_slice(&e.time.as_micros().to_le_bytes());
            out.extend_from_slice(&d.payload);
        }
    }
    let stats = w.total_stats();
    for name in ["proxy.misrouted_response", "provider.misrouted_response"] {
        out.extend_from_slice(&stats.get(name).packets.to_le_bytes());
    }
}

/// The bytes of both stateless elements on the flows no golden digest
/// pins: a MANET call resolved through SLP, an SLP miss answered 404, a
/// de-registration, calls MANET→Internet and Internet→MANET through the
/// ALG, the REGISTER replay on `InternetUp` and a REGISTER forwarded
/// with the Internet up, a 401 challenge and a 403
/// with security on, the provider's 404 and 503, a cross-domain call
/// through two providers, and a response whose top Via is neither
/// element's. One FNV-1a over every payload with its instant.
#[test]
fn stateless_elements_keep_their_bytes() {
    const PINNED: u64 = 0x4f71_4100_d170_91f7;
    let mut bytes = Vec::new();
    let count = |w: &World, name: &str| w.total_stats().get(name).packets;

    // MANET only: alice calls bob through SLP, then a user nobody
    // advertises (404 after the SLP miss); bob de-registers; a stray
    // response reaches alice's proxy.
    let mut w = traced(901);
    let bob_aor = Aor::new("bob", "voicehoc.ch");
    let alice = fig2("alice");
    let alice = call(alice, 5, bob_aor.clone(), 5);
    let alice = call(alice, 15, Aor::new("ghost", "voicehoc.ch"), 5);
    let mut bob = fig2("bob");
    bob.script.push(ScriptedAction {
        at: SimTime::from_secs(25),
        kind: ActionKind::Unregister,
    });
    let a = deploy(&mut w, NodeSpec::relay(0.0, 0.0).with_user(alice));
    deploy(&mut w, NodeSpec::relay(60.0, 0.0).with_user(bob));
    w.run_for(SimDuration::from_secs(28));
    w.inject(
        a.id,
        stray_response(
            SocketAddr::new(a.addr, 5070),
            SocketAddr::new(a.addr, ports::SIPHOC_PROXY),
        ),
    );
    w.run_for(SimDuration::from_secs(2));
    assert!(count(&w, "proxy.fwd_to_remote_proxy") >= 1);
    assert!(count(&w, "proxy.lookup_failed") >= 1);
    assert_eq!(count(&w, "proxy.misrouted_response"), 1);
    element_bytes(&w, &mut bytes);

    // The Internet: alice registers before the gateway's lease (replayed
    // on `InternetUp`), calls iris, iris calls back; dave registers with
    // the lease up; iris then calls a user the provider does not know
    // (404) and one at a domain DNS cannot resolve (503); a stray
    // response reaches the provider.
    let mut w = traced(902);
    let dns = DnsDirectory::new().with_record("voicehoc.ch", PROVIDER);
    let p = provider(&mut w, PROVIDER, "voicehoc.ch", dns.clone());
    let iris = UaConfig::new(
        Aor::new("iris", "voicehoc.ch"),
        SocketAddr::new(PROVIDER, ports::SIP),
    );
    let iris = call(iris, 35, Aor::new("alice", "voicehoc.ch"), 5);
    let iris = call(iris, 48, Aor::new("ghost", "voicehoc.ch"), 2);
    let iris = call(iris, 52, Aor::new("carol", "polyphone.ethz.ch"), 2);
    internet_ua(&mut w, Addr::new(82, 1, 1, 50), iris);
    deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(Addr::new(82, 130, 64, 1))
            .with_dns(dns.clone()),
    );
    deploy(&mut w, NodeSpec::relay(80.0, 0.0).with_dns(dns.clone()));
    let alice = call(fig2("alice"), 20, Aor::new("iris", "voicehoc.ch"), 5);
    let a = deploy(
        &mut w,
        NodeSpec::relay(160.0, 0.0).with_dns(dns).with_user(alice),
    );
    w.run_for(SimDuration::from_secs(40));
    // A user who first registers while the Internet is up.
    let mut dave = fig2("dave");
    dave.local_port = 5072;
    w.spawn(a.id, Box::new(UserAgent::new(dave).0));
    w.run_for(SimDuration::from_secs(18));
    w.inject(
        p,
        stray_response(
            SocketAddr::new(PROVIDER, 5070),
            SocketAddr::new(PROVIDER, ports::SIP),
        ),
    );
    w.run_for(SimDuration::from_secs(2));
    assert!(count(&w, "proxy.register_provider") >= 2);
    assert!(count(&w, "proxy.fwd_to_provider") >= 1);
    assert!(count(&w, "provider.unresolvable_domain") >= 1);
    assert_eq!(count(&w, "provider.misrouted_response"), 1);
    element_bytes(&w, &mut bytes);

    // Two providers: a cross-domain call.
    let mut w = traced(903);
    let dns = DnsDirectory::new()
        .with_record("voicehoc.ch", PROVIDER)
        .with_record("netvoip.ch", PROVIDER2);
    provider(&mut w, PROVIDER, "voicehoc.ch", dns.clone());
    provider(&mut w, PROVIDER2, "netvoip.ch", dns);
    let bob = Aor::new("bob", "netvoip.ch");
    let alice = UaConfig::new(
        Aor::new("alice", "voicehoc.ch"),
        SocketAddr::new(PROVIDER, ports::SIP),
    );
    internet_ua(
        &mut w,
        Addr::new(82, 1, 1, 10),
        call(alice, 2, bob.clone(), 3),
    );
    internet_ua(
        &mut w,
        Addr::new(82, 2, 2, 10),
        UaConfig::new(bob, SocketAddr::new(PROVIDER2, ports::SIP)),
    );
    w.run_for(SimDuration::from_secs(10));
    element_bytes(&w, &mut bytes);

    // Security on: alice registers through a 401 challenge and pins her
    // key; alice calls bob; then a second user agent on her node claims
    // her AOR under another key and gets a 403.
    let mut w = traced(904);
    let a = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_security()
            .with_user(call(fig2("alice"), 3, bob_aor, 3)),
    );
    deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0)
            .with_security()
            .with_user(fig2("bob")),
    );
    w.run_for(SimDuration::from_secs(8));
    let mut impostor = fig2("alice").with_identity(KeyPair::for_name("mallory"));
    impostor.local_port = 5072;
    let (impostor, _log) = UserAgent::new(impostor);
    w.spawn(a.id, Box::new(impostor));
    w.run_for(SimDuration::from_secs(4));
    assert!(count(&w, "proxy.auth_challenge") >= 3);
    assert!(count(&w, "proxy.auth_reject") >= 1);
    element_bytes(&w, &mut bytes);

    let got = wireless_adhoc_voip::simnet::ident::h64(&bytes);
    assert_eq!(got, PINNED, "got {got:#018x}");
}

/// Sends, as if from `from`, an INVITE for `sip:bob@<next>:5070` (a hop
/// the element would forward to) with `Max-Forwards: 0` to the element at
/// `element`, and returns every payload the element sent back to `from`.
fn answers_to_exhausted_invite(
    w: &mut World,
    node: NodeId,
    from: SocketAddr,
    element: SocketAddr,
    next: Addr,
) -> Vec<String> {
    w.trace_mut().set_capacity(1 << 10);
    w.trace_mut().set_enabled(true);
    let invite = format!(
        "INVITE sip:bob@{next}:5070 SIP/2.0\r\n\
         Via: SIP/2.0/UDP {from};branch=z9hG4bKmf0\r\n\
         Max-Forwards: 0\r\n\
         From: <sip:alice@voicehoc.ch>;tag=a\r\n\
         To: <sip:bob@voicehoc.ch>\r\n\
         Call-ID: mf0\r\n\
         CSeq: 1 INVITE\r\n\
         Content-Length: 0\r\n\r\n"
    );
    w.inject(node, Datagram::new(from, element, invite.as_bytes()));
    w.run_for(SimDuration::from_secs(1));
    w.trace()
        .entries()
        .filter(|e| e.kind != TraceKind::RadioRx && e.dgram.src == element && e.dgram.dst == from)
        .map(|e| String::from_utf8_lossy(&e.dgram.payload).into_owned())
        .collect()
}

/// RFC 3261 §16.3 step 3: a request the SIPHoc proxy would forward but
/// whose Max-Forwards is 0 is answered 483 Too Many Hops.
#[test]
fn siphoc_proxy_answers_exhausted_max_forwards_483() {
    let mut w = traced(911);
    let n = deploy(&mut w, NodeSpec::relay(0.0, 0.0));
    let answers = answers_to_exhausted_invite(
        &mut w,
        n.id,
        SocketAddr::new(n.addr, 5070),
        SocketAddr::new(n.addr, ports::SIPHOC_PROXY),
        Addr::new(10, 0, 0, 99),
    );
    let [answer] = &answers[..] else {
        panic!("{answers:?}");
    };
    assert!(
        answer.starts_with("SIP/2.0 483 Too Many Hops\r\n"),
        "{answer}"
    );
    let exhausted = w.node(n.id).stats().get("proxy.max_forwards_exhausted");
    assert_eq!(exhausted.packets, 1);
}

/// The same at an Internet provider.
#[test]
fn provider_answers_exhausted_max_forwards_483() {
    let mut w = traced(912);
    let dns = DnsDirectory::new().with_record("voicehoc.ch", PROVIDER);
    let p = provider(&mut w, PROVIDER, "voicehoc.ch", dns);
    let ua = Addr::new(82, 1, 1, 10);
    let n = w.add_node(NodeConfig::wired(ua));
    let answers = answers_to_exhausted_invite(
        &mut w,
        n,
        SocketAddr::new(ua, 5070),
        SocketAddr::new(PROVIDER, ports::SIP),
        Addr::new(82, 1, 1, 99),
    );
    let [answer] = &answers[..] else {
        panic!("{answers:?}");
    };
    assert!(
        answer.starts_with("SIP/2.0 483 Too Many Hops\r\n"),
        "{answer}"
    );
    assert_eq!(w.node(p).stats().get("provider.reject").packets, 1);
}

/// `bob@a.ch` and `bob@b.ch` are both bound on one SIPHoc proxy: an
/// INVITE for `sip:bob@b.ch` reaches `bob@b.ch`, not the first AOR in
/// table order with the same user part.
#[test]
fn a_domain_request_uri_reaches_its_own_aor() {
    let ua = |user: &str, domain: &str, port: u16| {
        let proxy = SocketAddr::new(Addr::LOOPBACK, ports::SIPHOC_PROXY);
        let mut cfg = UaConfig::new(Aor::new(user, domain), proxy);
        cfg.local_port = port;
        cfg
    };
    let mut w = traced(913);
    let alice = call(ua("alice", "a.ch", 5074), 2, Aor::new("bob", "b.ch"), 2);
    let n = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_user(ua("bob", "a.ch", 5070))
            .with_user(ua("bob", "b.ch", 5072))
            .with_user(alice),
    );
    w.run_for(SimDuration::from_secs(6));
    let incoming = |i: usize| {
        n.ua_logs[i]
            .borrow()
            .any(|e| matches!(e, CallEvent::IncomingCall { .. }))
    };
    assert!(!incoming(0), "bob@a.ch took bob@b.ch's call");
    assert!(incoming(1), "{:?}", n.ua_logs[1].borrow().events());
    assert!(n.ua_logs[2]
        .borrow()
        .any(|e| matches!(e, CallEvent::Established { .. })));
}

/// A response whose only Via is the element's own has nowhere further to
/// go: the provider drops it, and does not count it as misrouted.
#[test]
fn a_response_with_only_the_elements_via_is_dropped() {
    let mut w = traced(914);
    let dns = DnsDirectory::new().with_record("voicehoc.ch", PROVIDER);
    let p = provider(&mut w, PROVIDER, "voicehoc.ch", dns);
    let ua = Addr::new(82, 1, 1, 10);
    let n = w.add_node(NodeConfig::wired(ua));
    let element = SocketAddr::new(PROVIDER, ports::SIP);
    let text = format!(
        "SIP/2.0 200 OK\r\n\
         Via: SIP/2.0/UDP {element};branch=z9hG4bKpown\r\n\
         From: <sip:x@voicehoc.ch>;tag=1\r\n\
         To: <sip:y@voicehoc.ch>;tag=2\r\n\
         Call-ID: last-via\r\n\
         CSeq: 1 INVITE\r\n\
         Content-Length: 0\r\n\r\n"
    );
    let from = SocketAddr::new(ua, 5070);
    w.inject(n, Datagram::new(from, element, text.as_bytes()));
    w.run_for(SimDuration::from_secs(1));
    assert!(!w.trace().entries().any(|e| e.dgram.src == element));
    let stats = w.node(p).stats();
    assert_eq!(stats.get("sip.proxy_fwd").packets, 0);
    assert_eq!(stats.get("provider.misrouted_response").packets, 0);
}
