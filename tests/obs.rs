//! End-to-end observability: a traced call-setup run must yield a Chrome
//! trace covering every stage of Fig. 3 (REGISTER, SLP resolution, the
//! INVITE transaction, media start), the metrics registry must export in
//! both formats, and — the determinism contract — tracing must not change
//! a single reported number.
//!
//! The trace and metrics documents are validated with hand-rolled
//! structural checks: scenarios are built directly (not via JSON) and no
//! JSON parser is used, so the test runs in offline environments.

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
use wireless_adhoc_voip::internet::relay::{RelayConfig, TurnRelay};
use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess};
use wireless_adhoc_voip::routing::aodv::AodvProcess;
use wireless_adhoc_voip::scenario::{
    CallSpec, NodeSpecJson, ObsDump, RadioKind, RoutingKind, Scenario, ScenarioReport,
};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::simnet::trace::TraceKind;
use wireless_adhoc_voip::sip::ua::{CallEvent, UaConfig, UaLogHandle, UserAgent};
use wireless_adhoc_voip::sip::uri::Aor;

fn node(x: f64, user: Option<&str>, calls: Vec<CallSpec>) -> NodeSpecJson {
    NodeSpecJson {
        x,
        y: 0.0,
        user: user.map(str::to_owned),
        calls,
        gateway: None,
        mobility: None,
        nat: false,
        adversary: false,
    }
}

/// Alice at one end of a three-hop chain calls Bob at the other: the
/// setup needs real route discovery and a MANET SLP resolution, so every
/// span family shows up in the trace.
fn call_scenario() -> Scenario {
    Scenario {
        seed: 11,
        duration_secs: 25,
        radio: RadioKind::Ideal,
        routing: RoutingKind::Aodv,
        domain: "voicehoc.ch".to_owned(),
        nodes: vec![
            node(
                0.0,
                Some("alice"),
                vec![CallSpec {
                    at_secs: 5,
                    to: "bob".into(),
                    duration_secs: 8,
                }],
            ),
            node(60.0, None, Vec::new()),
            node(120.0, None, Vec::new()),
            node(180.0, Some("bob"), Vec::new()),
        ],
        providers: Vec::new(),
        chaos: None,
        keepalive: None,
        standby: None,
        relays: Vec::new(),
        secure: false,
    }
}

fn run_traced() -> (ScenarioReport, ObsDump) {
    call_scenario().run_with_obs().expect("scenario runs")
}

/// Minimal structural JSON check: brackets and braces balance outside of
/// string literals and the document is a single array/object. Not a
/// parser — enough to catch truncation and broken escaping.
fn assert_balanced_json(doc: &str) {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    for c in doc.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' => {
                depth -= 1;
                assert!(depth >= 0, "closing bracket without opener");
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string literal");
    assert_eq!(depth, 0, "unbalanced brackets");
}

#[test]
fn tests_build_with_observability_compiled_in() {
    assert!(
        wireless_adhoc_voip::simnet::obs_enabled(),
        "integration tests must exercise the instrumented configuration"
    );
}

#[test]
fn call_setup_trace_covers_every_stage() {
    let (report, dump) = run_traced();
    let alice = report.users.iter().find(|u| u.user == "alice").unwrap();
    assert_eq!(
        alice.calls_established, 1,
        "call must complete: {:?}",
        alice.timeline
    );

    let trace = &dump.chrome_trace;
    assert_balanced_json(trace);
    assert!(
        trace.trim_start().starts_with('['),
        "trace_event array format"
    );

    // Every stage of the Fig. 3 walkthrough appears as a span or instant.
    // (Route discovery is deliberately absent: SLP piggybacking on AODV
    // floods pre-populates every route the call needs — the paper's core
    // claim. `route_discovery_spans_without_piggyback` covers that span.)
    for name in [
        "\"name\": \"sip.register\"",
        "\"name\": \"slp.lookup\"",  // MANET SLP flood by the daemon
        "\"name\": \"slp.resolve\"", // proxy-side consult (step 6)
        "\"name\": \"sip.invite\"",
        "\"name\": \"sip.answer\"",
        "\"name\": \"media.start\"",
    ] {
        assert!(trace.contains(name), "trace missing {name}");
    }
    // Complete spans, instants and process metadata all present.
    for ph in ["\"ph\": \"X\"", "\"ph\": \"i\"", "\"ph\": \"M\""] {
        assert!(trace.contains(ph), "trace missing {ph} events");
    }
    // The INVITE span carries the Call-ID, grouping the call's timeline
    // into its own trace process.
    assert!(
        trace.contains("\"process_name\""),
        "per-call process metadata missing"
    );
    assert!(
        trace.contains("\"corr\": "),
        "correlation keys missing from span args"
    );
}

#[test]
fn metrics_exports_cover_stack_counters_and_histograms() {
    let (_, dump) = run_traced();
    let prom = &dump.metrics_prometheus;
    for needle in [
        "# TYPE sip_calls_established counter",
        "sip_call_setup_us_bucket",
        "sip_call_setup_us_count",
        "# TYPE sim_events gauge",
        "sip_txn_rtt_us_count",
    ] {
        assert!(
            prom.contains(needle),
            "prometheus export missing {needle:?}:\n{prom}"
        );
    }
    // Bridged NodeStats counters carry a node label.
    assert!(prom.contains("node=\""), "per-node labels missing");

    let json = &dump.metrics_json;
    assert_balanced_json(json);
    for needle in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "sip.call_setup_us",
        "\"p95\"",
    ] {
        assert!(json.contains(needle), "json export missing {needle:?}");
    }
}

#[test]
fn tracing_does_not_change_the_report() {
    let scenario = call_scenario();
    let plain = scenario.run().expect("untraced run");
    let (traced, _) = scenario.run_with_obs().expect("traced run");
    assert_eq!(plain.control_bytes, traced.control_bytes);
    assert_eq!(plain.rtp_packets, traced.rtp_packets);
    assert_eq!(plain.faults_injected, traced.faults_injected);
    assert_eq!(plain.users.len(), traced.users.len());
    for (a, b) in plain.users.iter().zip(&traced.users) {
        assert_eq!(a.user, b.user);
        assert_eq!(a.calls_placed, b.calls_placed);
        assert_eq!(a.calls_established, b.calls_established);
        assert_eq!(a.calls_received, b.calls_received);
        assert_eq!(a.worst_mos, b.worst_mos);
        assert_eq!(
            a.timeline, b.timeline,
            "event timelines diverged for {}",
            a.user
        );
    }
}

/// Without SLP piggyback traffic, a unicast toward an unknown address
/// must go through real AODV route discovery — and leave a span plus a
/// latency histogram behind.
#[test]
fn route_discovery_spans_without_piggyback() {
    let mut w = World::new(WorldConfig::new(42).with_radio(RadioConfig::ideal()));
    w.set_tracing(true);
    let ids: Vec<NodeId> = (0..3)
        .map(|i| w.add_node(NodeConfig::manet(i as f64 * 60.0, 0.0)))
        .collect();
    for &id in &ids {
        w.spawn(id, Box::new(AodvProcess::new()));
    }
    w.run_for(SimDuration::from_millis(200));
    let far = w.node(ids[2]).addr();
    let src = SocketAddr::new(w.node(ids[0]).addr(), 9000);
    w.inject(
        ids[0],
        Datagram::new(src, SocketAddr::new(far, 9000), vec![1, 2, 3]),
    );
    w.run_for(SimDuration::from_secs(2));

    let trace = w.obs_chrome_trace();
    assert_balanced_json(&trace);
    assert!(
        trace.contains("\"name\": \"route.discovery\""),
        "discovery span missing:\n{trace}"
    );
    assert!(trace.contains("\"cat\": \"routing\""));
    assert!(
        trace.contains("\"ok\": true"),
        "discovery should succeed on an ideal chain"
    );

    let prom = w.obs_registry().render_prometheus();
    assert!(
        prom.contains("aodv_discovery_us_count"),
        "discovery latency histogram missing:\n{prom}"
    );
}

/// Every `NodeStats` counter is bridged into the registry under its own
/// name and a `node` label. A counter that a process *also* adds to its
/// `NodeObs` shard under the same name lands on the same registry key
/// and exports twice the truth.
fn assert_registry_matches_node_stats(w: &World) {
    let reg = w.obs_registry();
    for (name, total) in w.total_stats().iter() {
        let exported: u64 = w
            .node_ids()
            .iter()
            .map(|id| reg.counter(name, &[("node", &id.to_string())]))
            .sum();
        assert_eq!(
            exported, total.packets,
            "{name}: --metrics-out exports {exported}, NodeStats counted {}",
            total.packets
        );
    }
}

#[test]
fn exported_counters_equal_node_stats() {
    // Proactive SLP over OLSR: bob's binding replicates to alice's
    // registry before the call, so her lookup is a local hit.
    let mut w = World::new(WorldConfig::new(103).with_radio(RadioConfig::ideal()));
    let ua = |user: &str| {
        VoipAppConfig::fig2(user, "voicehoc.ch")
            .to_ua_config()
            .expect("localhost proxy resolves")
    };
    let mk = |x: f64| NodeSpec::relay(x, 0.0).with_routing(RoutingProtocol::Olsr);
    let call = ua("alice").call_at(
        SimTime::from_secs(25),
        Aor::new("bob", "voicehoc.ch"),
        SimDuration::from_secs(6),
    );
    deploy(&mut w, mk(0.0).with_user(call));
    deploy(&mut w, mk(80.0));
    deploy(&mut w, mk(160.0).with_user(ua("bob")));
    w.run_for(SimDuration::from_secs(40));
    assert!(w.total_stats().get("slp.lookup_hit").packets >= 1);
    assert_registry_matches_node_stats(&w);

    // AODV toward an address nobody owns: discovery exhausts its retries.
    let mut w = World::new(WorldConfig::new(42).with_radio(RadioConfig::ideal()));
    let ids: Vec<NodeId> = (0..2)
        .map(|i| w.add_node(NodeConfig::manet(i as f64 * 60.0, 0.0)))
        .collect();
    for &id in &ids {
        w.spawn(id, Box::new(AodvProcess::new()));
    }
    w.run_for(SimDuration::from_millis(200));
    let src = SocketAddr::new(w.node(ids[0]).addr(), 9000);
    let nobody = SocketAddr::new(Addr::manet(99), 9000);
    w.inject(ids[0], Datagram::new(src, nobody, vec![1, 2, 3]));
    w.run_for(SimDuration::from_secs(30));
    assert!(w.total_stats().get("aodv.discovery_failed").packets >= 1);
    assert_registry_matches_node_stats(&w);

    // Make-before-break handoff mid-call: alice sits between an open
    // gateway and one NAT'd behind the TURN-style relay, leases from one,
    // keeps the other warm, and is promoted onto it when the first dies —
    // so her media crosses the relay on one side of the handoff.
    const PROVIDER: Addr = Addr(0x52010101);
    const RELAY: Addr = Addr(0x5201_0301);
    let mut w = World::new(WorldConfig::new(1701).with_radio(RadioConfig::ideal()));
    let dns = DnsDirectory::new().with_record("voicehoc.ch", PROVIDER);
    let provider = w.add_node(NodeConfig::wired(PROVIDER));
    let cfg = ProviderConfig::new("voicehoc.ch", dns.clone());
    w.spawn(provider, Box::new(SipProviderProcess::new(cfg)));
    let iris = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 50)));
    let iris_ua = UaConfig::new(
        Aor::new("iris", "voicehoc.ch"),
        SocketAddr::new(PROVIDER, ports::SIP),
    );
    w.spawn(iris, Box::new(UserAgent::new(iris_ua).0));
    w.spawn(iris, Box::new(MediaProcess::new(MediaConfig::pcmu(8000)).0));
    let relay = w.add_node(NodeConfig::wired(RELAY));
    let pool = RelayConfig {
        pool_base: Addr(RELAY.0 + 100),
        ..RelayConfig::default()
    };
    w.spawn(relay, Box::new(TurnRelay::new(pool)));
    let mk = |x: f64| {
        NodeSpec::relay(x, 0.0)
            .with_keepalive(SimDuration::from_millis(5), 1)
            .with_standby(1, SimDuration::from_millis(500))
            .with_dns(dns.clone())
    };
    let open = deploy(&mut w, mk(0.0).with_gateway(Addr::new(82, 130, 64, 1)));
    let call = ua("alice").call_at(
        SimTime::from_secs(30),
        Aor::new("iris", "voicehoc.ch"),
        SimDuration::from_secs(30),
    );
    let alice = deploy(&mut w, mk(60.0).with_user(call));
    let natted = deploy(
        &mut w,
        mk(120.0).with_nat_gateway(
            Addr::new(82, 130, 65, 1),
            SocketAddr::new(RELAY, ports::TUNNEL),
        ),
    );
    w.run_until(SimTime::from_secs(35));
    let addrs = w.node(alice.id).local_addrs();
    let lease: Vec<&Addr> = addrs.iter().filter(|a| a.is_public()).collect();
    assert_eq!(lease.len(), 1, "one active lease mid-call");
    let serving = if lease[0].0 >> 8 == RELAY.0 >> 8 {
        natted.id
    } else {
        open.id
    };
    w.set_node_up(serving, false);
    w.run_until(SimTime::from_secs(70));
    let total = w.total_stats();
    for name in [
        "cp.gateway_dead",
        "cp.promote",
        "cp.handoff_ok",
        "media.relayed",
    ] {
        assert!(total.get(name).packets >= 1, "{name} never counted");
    }
    assert_registry_matches_node_stats(&w);
}

#[test]
fn traced_runs_are_reproducible() {
    let (_, a) = run_traced();
    let (_, b) = run_traced();
    assert_eq!(
        a.chrome_trace, b.chrome_trace,
        "trace differs between identical seeds"
    );
    assert_eq!(a.metrics_prometheus, b.metrics_prometheus);
    assert_eq!(a.metrics_json, b.metrics_json);
}

/// SIP state is proportional to live calls: eight UAs on one hub node
/// place 210 one-second calls. While calls run, `sip.dialogs_live` and
/// `sip.txn_active` read the node's live totals (every UA contributes its
/// share); a retransmitted INVITE and BYE arriving inside the 64×T1
/// linger are absorbed by the state that lingers for exactly that; and
/// once the linger of the last call has lapsed both gauges read 0. The
/// event queue's own gauges tell the same story from below: timers pile
/// up while calls linger, the slab remembers the most it ever held.
#[test]
fn sip_state_gauges_track_live_calls_and_return_to_zero() {
    const USERS: usize = 8;
    const CALLS: u64 = 210;
    let proxy = SocketAddr::new(Addr::LOOPBACK, ports::SIPHOC_PROXY);
    let aor = |i: usize| Aor::new(&format!("u{i}"), "voicehoc.ch");
    let mut uas: Vec<UaConfig> = (0..USERS)
        .map(|i| {
            let mut ua = UaConfig::new(aor(i), proxy);
            ua.local_port = 6000 + i as u16;
            ua.rtp_port = 20_000 + i as u16;
            ua
        })
        .collect();
    for k in 0..CALLS {
        let (caller, callee) = (k as usize % USERS, (k as usize + 3) % USERS);
        uas[caller] = uas[caller].clone().call_at(
            SimTime::from_millis(2_000 + 50 * k),
            aor(callee),
            SimDuration::from_secs(1),
        );
    }
    let mut w = World::new(WorldConfig::new(77));
    let mut spec = NodeSpec::relay(0.0, 0.0).without_connection_provider();
    spec.users = uas;
    let hub = deploy(&mut w, spec);
    w.trace_mut().set_enabled(true);

    let read = |w: &World, name: &str, labels: &[(&str, &str)]| {
        w.obs_registry()
            .gauge(name, labels)
            .unwrap_or_else(|| panic!("{name} never set"))
    };
    let gauge = |w: &World, name: &str| read(w, name, &[("node", &hub.id.to_string())]);
    let world_gauge = |w: &World, name: &str| read(w, name, &[]);
    let count = |logs: &[UaLogHandle], pred: fn(&CallEvent) -> bool| -> usize {
        logs.iter().map(|l| l.borrow().count(pred)).sum()
    };
    let placed = |e: &CallEvent| matches!(e, CallEvent::OutgoingCall { .. });
    let rang = |e: &CallEvent| matches!(e, CallEvent::IncomingCall { .. });
    let ended = |e: &CallEvent| matches!(e, CallEvent::Terminated { .. });
    let hung_up = |e: &CallEvent| {
        matches!(
            e,
            CallEvent::Terminated {
                by_remote: false,
                ..
            }
        )
    };

    // Mid-run, before anything can have retired: every call placed so far
    // holds a dialog on each side and an INVITE transaction on each side,
    // every call hung up so far a BYE transaction on each side, and each
    // UA's REGISTER transaction still lingers.
    w.run_until(SimTime::from_millis(8_020));
    let (calls, byes) = (count(&hub.ua_logs, placed), count(&hub.ua_logs, hung_up));
    assert!(calls > 100 && byes > 50 && byes < calls, "{calls} / {byes}");
    assert_eq!(gauge(&w, "sip.dialogs_live"), (2 * calls) as f64);
    assert_eq!(
        gauge(&w, "sip.txn_active"),
        (USERS + 2 * calls + 2 * byes) as f64
    );

    // All calls over, none retired: replay to the callee side a copy of
    // the first INVITE and of the first BYE a UA received.
    w.run_until(SimTime::from_secs(20));
    assert_eq!(count(&hub.ua_logs, ended), 2 * CALLS as usize);
    assert_eq!(gauge(&w, "sip.dialogs_live"), (2 * CALLS) as f64);
    // Every call left timers waiting out the linger in the queue.
    let lingering = world_gauge(&w, "sim.queue_len");
    assert!(lingering >= CALLS as f64, "{lingering} events queued");
    for start in [&b"INVITE "[..], &b"BYE "[..]] {
        let to_ua = |port: u16| (6000..6000 + USERS as u16).contains(&port);
        let copy = w
            .trace()
            .find(|e| {
                e.kind == TraceKind::Loopback
                    && to_ua(e.dgram.dst.port)
                    && e.dgram.payload.starts_with(start)
            })
            .first()
            .expect("the trace holds a request delivered to a UA")
            .dgram
            .clone();
        w.inject(hub.id, copy);
    }
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(w.node(hub.id).stats().get("sip.txn_replay").packets, 2);
    assert_eq!(count(&hub.ua_logs, rang), CALLS as usize, "no second ring");
    assert_eq!(count(&hub.ua_logs, ended), 2 * CALLS as usize);
    assert_eq!(gauge(&w, "sip.dialogs_live"), (2 * CALLS) as f64);

    // The last BYE left at about 13.7 s; 64×T1 later nothing is left.
    w.run_until(SimTime::from_secs(46));
    assert_eq!(gauge(&w, "sip.dialogs_live"), 0.0);
    assert_eq!(gauge(&w, "sip.txn_active"), 0.0);
    // The queue drained with the state it served; the slab keeps its
    // high-water mark, and 88 B a slot bound its bytes from below.
    let (len, slots) = (
        world_gauge(&w, "sim.queue_len"),
        world_gauge(&w, "sim.queue_slots"),
    );
    assert!(len < lingering / 4.0, "{len} of {lingering} still queued");
    assert!(slots >= lingering && slots < 20.0 * CALLS as f64, "{slots}");
    assert!(world_gauge(&w, "sim.queue_bytes") >= 88.0 * slots);
}
