//! End-to-end observability: a traced call-setup run must yield a Chrome
//! trace covering every stage of Fig. 3 (REGISTER, SLP resolution, the
//! INVITE transaction, media start), the metrics document must carry the
//! stack's counters and histograms, and — the determinism contract —
//! tracing must not change a single reported number.
//!
//! The trace and metrics documents must read back through the stack's
//! own JSON reader, and the tests look up what they assert in the
//! document read back.
//!
//! Tests that assert what was recorded need the `obs` feature; the
//! determinism and `NodeStats`-bridge tests run in both builds.

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
use wireless_adhoc_voip::internet::relay::{AddrPool, RelayConfig, TurnRelay};
use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess};
use wireless_adhoc_voip::routing::aodv::AodvProcess;
use wireless_adhoc_voip::scenario::{CallSpec, NodeSpecJson, ObsDump, Scenario, ScenarioReport};
#[cfg(feature = "obs")]
use wireless_adhoc_voip::simnet::obs::chrome_trace_json;
#[cfg(feature = "obs")]
use wireless_adhoc_voip::simnet::obs::json::{self, Value};
use wireless_adhoc_voip::simnet::prelude::*;
#[cfg(feature = "obs")]
use wireless_adhoc_voip::simnet::trace::TraceKind;
#[cfg(feature = "obs")]
use wireless_adhoc_voip::sip::ua::{CallEvent, UaLogHandle};
use wireless_adhoc_voip::sip::ua::{UaConfig, UserAgent};
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
        radio: RadioConfig::ideal(),
        routing: RoutingProtocol::Aodv,
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

/// Writes an exported document and reads it back, failing the test
/// with the reader's message or if it does not read back as written.
#[cfg(feature = "obs")]
fn read_back(doc: &Value) -> Value {
    let text = doc.to_pretty();
    let back = json::parse(&text).unwrap_or_else(|e| panic!("not JSON ({e}):\n{text}"));
    assert_eq!(&back, doc, "the document does not read back as written");
    back
}

#[cfg(feature = "obs")]
fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// The events of a Chrome trace document.
#[cfg(feature = "obs")]
fn events(trace: &Value) -> &[Value] {
    match trace {
        Value::Arr(events) => events,
        _ => panic!("trace_event array format"),
    }
}

/// The members of section `name` (`counters`, `gauges` or
/// `histograms`) of a metrics document.
#[cfg(feature = "obs")]
fn section<'d>(metrics: &'d Value, name: &str) -> &'d [(String, Value)] {
    match metrics.get(name) {
        Some(Value::Obj(members)) => members,
        _ => panic!("metrics document has no {name} object"),
    }
}

/// The series of metric `name` in section `sec`, whatever their labels.
#[cfg(feature = "obs")]
fn series<'d>(metrics: &'d Value, sec: &str, name: &str) -> Vec<&'d Value> {
    let members = section(metrics, sec).iter();
    let named = members.filter(|(k, _)| k.split('{').next() == Some(name));
    named.map(|(_, v)| v).collect()
}

#[cfg(feature = "obs")]
#[test]
fn tests_build_with_observability_compiled_in() {
    assert!(
        wireless_adhoc_voip::simnet::obs_enabled(),
        "integration tests must exercise the instrumented configuration"
    );
}

#[cfg(feature = "obs")]
#[test]
fn call_setup_trace_covers_every_stage() {
    let (report, dump) = run_traced();
    let alice = report.users.iter().find(|u| u.user == "alice").unwrap();
    assert_eq!(
        alice.calls_established, 1,
        "call must complete: {:?}",
        alice.timeline
    );

    let trace = read_back(&dump.chrome_trace);
    let events = events(&trace);
    let has = |key: &str, want: &str| events.iter().any(|e| e.get(key) == Some(&text(want)));

    // Every stage of the Fig. 3 walkthrough appears as a span or instant.
    // (Route discovery is deliberately absent: SLP piggybacking on AODV
    // floods pre-populates every route the call needs — the paper's core
    // claim. `route_discovery_spans_without_piggyback` covers that span.)
    for name in [
        "sip.register",
        "slp.lookup",  // MANET SLP flood by the daemon
        "slp.resolve", // proxy-side consult (step 6)
        "sip.invite",
        "sip.answer",
        "media.start",
    ] {
        assert!(has("name", name), "trace missing {name}");
    }
    // Complete spans, instants and process metadata all present.
    for ph in ["X", "i", "M"] {
        assert!(has("ph", ph), "trace missing {ph} events");
    }
    // The INVITE span carries the Call-ID, grouping the call's timeline
    // into its own trace process.
    assert!(
        has("name", "process_name"),
        "per-call process metadata missing"
    );
    assert!(
        events
            .iter()
            .any(|e| e.get("args").and_then(|a| a.get("corr")).is_some()),
        "correlation keys missing from span args"
    );
}

#[cfg(feature = "obs")]
#[test]
fn metrics_exports_cover_stack_counters_and_histograms() {
    let (_, dump) = run_traced();
    let metrics = read_back(&dump.metrics);
    for (section, name) in [
        ("counters", "sip.calls_established"),
        ("histograms", "sip.call_setup_us"),
        ("gauges", "sim.events"),
        ("histograms", "sip.txn_rtt_us"),
    ] {
        assert!(
            !series(&metrics, section, name).is_empty(),
            "metrics document has no {section} {name:?}"
        );
    }
    // Bridged NodeStats counters carry a node label.
    assert!(
        section(&metrics, "counters")
            .iter()
            .any(|(k, _)| k.contains("{node=")),
        "per-node labels missing"
    );

    // Every histogram's buckets hold exactly its samples.
    for (key, h) in section(&metrics, "histograms") {
        let Some(Value::Arr(buckets)) = h.get("buckets") else {
            panic!("{key} has no buckets");
        };
        let in_buckets: u64 = buckets
            .iter()
            .map(|b| match b {
                Value::Arr(pair) => match pair[..] {
                    [Value::Int(_), Value::Int(n)] => n,
                    _ => panic!("{key}: a bucket is not [upper, count]"),
                },
                _ => panic!("{key}: a bucket is not [upper, count]"),
            })
            .sum();
        assert_eq!(h.get("count"), Some(&Value::Int(in_buckets)), "{key}");
        assert!(h.get("p95").is_some(), "{key} has no p95");
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
/// must go through real AODV route discovery. Each of the four ways a
/// discovery ends closes its `route.discovery` span once: ok, with one
/// `aodv.discovery_us` sample, when a RREP arrives or a ring's timer
/// finds a route; not ok and with no sample when it gives up (counted as
/// `aodv.discovery_failed`) or its node restarts (not counted).
#[cfg(feature = "obs")]
#[test]
fn route_discovery_spans_without_piggyback() {
    for end in ["rrep", "timer", "give up", "restart"] {
        let mut w = World::new(WorldConfig::new(42).with_radio(RadioConfig::ideal()));
        w.set_tracing(true);
        let ids: Vec<NodeId> = (0..3)
            .map(|i| w.add_node(NodeConfig::manet(i as f64 * 60.0, 0.0)))
            .collect();
        for &id in &ids {
            w.spawn(id, Box::new(AodvProcess::new()));
        }
        w.run_for(SimDuration::from_millis(200));
        // The chain's far end answers; nobody answers for manet(99).
        let dst = match end {
            "rrep" => w.node(ids[2]).addr(),
            _ => Addr::manet(99),
        };
        let src = SocketAddr::new(w.node(ids[0]).addr(), 9000);
        w.inject(
            ids[0],
            Datagram::new(src, SocketAddr::new(dst, 9000), vec![1, 2, 3]),
        );
        match end {
            // A route turns up before the first ring's timer, 320 ms on.
            "timer" => {
                w.run_for(SimDuration::from_millis(100));
                let route = Route {
                    next_hop: w.node(ids[1]).addr(),
                    hops: 2,
                    expires: w.now() + SimDuration::from_secs(6),
                    seq: 1,
                };
                w.install_route(ids[0], dst, route);
            }
            "restart" => {
                w.run_for(SimDuration::from_secs(1));
                w.set_node_up(ids[0], false);
                w.set_node_up(ids[0], true);
            }
            _ => {}
        }
        w.run_for(SimDuration::from_secs(30));
        let found = matches!(end, "rrep" | "timer");

        let trace = read_back(&chrome_trace_json(&w.obs_spans()));
        // Only the source's own discovery: in "timer", the relay that the
        // installed route names starts one of its own.
        let spans: Vec<&Value> = events(&trace)
            .iter()
            .filter(|e| e.get("name") == Some(&text("route.discovery")))
            .filter(|e| e.get("args").and_then(|a| a.get("node")) == Some(&text("n0")))
            .collect();
        assert_eq!(spans.len(), 1, "{end}:\n{}", trace.to_pretty());
        let args = spans[0].get("args");
        assert_eq!(spans[0].get("cat"), Some(&text("routing")));
        assert_eq!(args.and_then(|a| a.get("note")), None, "{end}: left open");
        assert_eq!(
            args.and_then(|a| a.get("ok")),
            Some(&Value::Bool(found)),
            "{end}"
        );

        let metrics = read_back(&w.obs_registry().to_json());
        let samples: u64 = series(&metrics, "histograms", "aodv.discovery_us")
            .iter()
            .map(|h| match h.get("count") {
                Some(Value::Int(n)) => *n,
                _ => 0,
            })
            .sum();
        assert_eq!(samples, u64::from(found), "{end}");
        let failed = w.stats(ids[0]).get("aodv.discovery_failed").packets;
        assert_eq!(failed, u64::from(end == "give up"), "{end}");
    }
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
        pool: AddrPool::new(Addr(RELAY.0 + 100), 64),
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
    let (a, host_rows) = without_host_time(&a.metrics);
    assert_eq!(a, without_host_time(&b.metrics).0);
    assert_eq!(host_rows > 0, wireless_adhoc_voip::simnet::obs_enabled());
}

/// A metrics document without its `sim.host_ns{kind=…}` rows, the only
/// ones that are not a function of the seed, and how many it dropped.
fn without_host_time(
    metrics: &wireless_adhoc_voip::simnet::obs::json::Value,
) -> (wireless_adhoc_voip::simnet::obs::json::Value, usize) {
    use wireless_adhoc_voip::simnet::obs::json::Value;
    let mut doc = metrics.clone();
    let mut dropped = 0;
    if let Value::Obj(sections) = &mut doc {
        for (_, section) in sections {
            if let Value::Obj(members) = section {
                let before = members.len();
                members.retain(|(key, _)| !key.starts_with("sim.host_ns{"));
                dropped += before - members.len();
            }
        }
    }
    (doc, dropped)
}

/// SIP state is proportional to live calls: eight UAs on one hub node
/// place 210 one-second calls. While calls run, `sip.dialogs_live` and
/// `sip.txn_active` read the node's live totals (every UA contributes its
/// share); a retransmitted INVITE and BYE arriving inside the 64×T1
/// linger are absorbed by the state that lingers for exactly that; and
/// once the linger of the last call has lapsed both gauges read 0. The
/// event queue's own gauges tell the same story from below: timers pile
/// up while calls linger, the slab remembers the most it ever held.
#[cfg(feature = "obs")]
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
    assert_eq!(w.stats(hub.id).get("sip.txn_replay").packets, 2);
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

/// A call whose INVITE carried no SDP still ends its setup: the ACK that
/// confirms it closes the callee's `sip.answer` span (not ok, since no
/// media can start), and `sip.calls_established` counts only what the
/// UA's log calls established. The INVITE and its ACK are injected.
#[cfg(feature = "obs")]
#[test]
fn an_sdp_less_call_closes_its_answer_span() {
    let mut w = World::new(WorldConfig::new(7));
    let id = w.add_node(NodeConfig::manet(0.0, 0.0));
    let addr = w.node(id).addr();
    let (ua, log) = UserAgent::new(UaConfig::new(
        Aor::new("bob", "voicehoc.ch"),
        SocketAddr::new(addr, ports::SIPHOC_PROXY),
    ));
    w.spawn(id, Box::new(ua));
    w.set_tracing(true);
    w.trace_mut().set_enabled(true);
    w.run_for(SimDuration::from_secs(1));

    // The peer's port is bound by nobody: its responses are dropped.
    let (ua_at, peer) = (SocketAddr::new(addr, 5070), SocketAddr::new(addr, 5999));
    let request = |start: &str, to: &str, cseq: &str| {
        let text = format!(
            "{start} sip:bob@{ua_at} SIP/2.0\r\n\
             Via: SIP/2.0/UDP {peer};branch=z9hG4bKsdpless\r\n\
             From: <sip:alice@voicehoc.ch>;tag=a1\r\nTo: {to}\r\n\
             Call-ID: sdp-less\r\nCSeq: {cseq}\r\n\
             Contact: <sip:alice@{peer}>\r\nContent-Length: 0\r\n\r\n"
        );
        Datagram::new(peer, ua_at, text.into_bytes())
    };
    w.inject(id, request("INVITE", "<sip:bob@voicehoc.ch>", "1 INVITE"));
    w.run_for(SimDuration::from_secs(1));
    let oks = |w: &World| -> Vec<String> {
        let sent = w.trace().find(|e| e.dgram.dst == peer);
        let text = sent
            .iter()
            .map(|e| String::from_utf8_lossy(&e.dgram.payload));
        text.filter(|t| t.starts_with("SIP/2.0 200"))
            .map(|t| t.into_owned())
            .collect()
    };
    let answered = oks(&w).len();
    let to = oks(&w)[0]
        .lines()
        .find_map(|l| l.strip_prefix("To: "))
        .expect("the UA answered with a To")
        .to_owned();
    w.inject(id, request("ACK", &to, "1 ACK"));
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(oks(&w).len(), answered, "the ACK stops the 200");

    let spans = w.obs_spans();
    let answer = spans
        .iter()
        .find(|s| s.span.name == "sip.answer" && s.span.corr.as_deref() == Some("sdp-less"))
        .expect("the call opened a sip.answer span");
    assert_eq!(answer.span.note, None, "sip.answer left open: {answer:?}");
    assert!(!answer.span.ok);
    let established = log
        .borrow()
        .count(|e| matches!(e, CallEvent::Established { .. }));
    let counted = w
        .obs_registry()
        .counter("sip.calls_established", &[("node", &id.to_string())]);
    assert_eq!(counted, established as u64);
}
