//! Chaos-plan integration tests: the fault-injection engine drives node
//! churn, partitions and per-link packet faults against the full SIPHoc
//! stack, and every layer must degrade gracefully — calls survive or are
//! re-established, corrupted traffic shows up only as drop counters, and
//! nothing panics. This is the paper's §1 emergency-response claim
//! ("any node may leave or crash at any time") made executable.

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
use wireless_adhoc_voip::simnet::net::ports;
use wireless_adhoc_voip::simnet::node::NodeConfig;
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::simnet::trace::TraceKind;
use wireless_adhoc_voip::sip::ua::{CallEvent, UaConfig, UserAgent};
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

/// The acceptance scenario: a 20-node mesh under Poisson churn, a 15 s
/// partition + heal, and 1% duplicate/corrupt faults on every link.
/// A call inside one island survives the whole disruption; a call across
/// the healed boundary establishes afterwards. Repeated across 5 seeds.
#[test]
fn chaos_mesh_calls_survive_churn_partition_and_packet_faults() {
    for seed in [1101u64, 1102, 1103, 1104, 1105] {
        let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));

        // 5x4 grid at 55 m spacing (radio range 100 m): alice and bob in
        // the two left columns, carol in the far right corner.
        let mut grid = Vec::new();
        let mut alice = None;
        let mut bob = None;
        let mut carol = None;
        for col in 0..5u32 {
            for row in 0..4u32 {
                let (x, y) = (col as f64 * 55.0, row as f64 * 55.0);
                let spec = match (col, row) {
                    (0, 0) => NodeSpec::relay(x, y).with_user(user("alice", Some((8, "bob", 20)))),
                    (1, 3) => NodeSpec::relay(x, y).with_user(user("bob", None)),
                    (4, 3) => NodeSpec::relay(x, y).with_user(user("carol", Some((45, "bob", 5)))),
                    _ => NodeSpec::relay(x, y),
                };
                let n = deploy(&mut w, spec);
                match (col, row) {
                    (0, 0) => alice = Some(n),
                    (1, 3) => bob = Some(n),
                    (4, 3) => carol = Some(n),
                    _ => grid.push(n),
                }
            }
        }
        let (alice, bob, carol) = (alice.unwrap(), bob.unwrap(), carol.unwrap());

        // Left island = the two columns holding alice and bob.
        let island: Vec<NodeId> = w
            .node_ids()
            .into_iter()
            .filter(|&id| w.position(id).0 <= 60.0)
            .collect();
        assert_eq!(island.len(), 8);

        // Churn four interior right-side relays (never the callers, never
        // the whole right island at once).
        let churners: Vec<NodeId> = grid
            .iter()
            .map(|n| n.id)
            .filter(|&id| {
                let (x, y) = w.position(id);
                (110.0..=165.0).contains(&x) && (55.0..=110.0).contains(&y)
            })
            .collect();
        assert_eq!(churners.len(), 4);

        let mut churn_rng = SimRng::from_seed_and_stream(seed, 4242);
        let plan = FaultPlan::new()
            .with_poisson_churn(
                &churners,
                12.0,
                4.0,
                SimTime::from_secs(5),
                SimTime::from_secs(35),
                &mut churn_rng,
            )
            .partition_at(SimTime::from_secs(15), island)
            .heal_at(SimTime::from_secs(30))
            .packet_fault(
                LinkSelector::All,
                PacketFaultKind::Duplicate,
                0.01,
                SimTime::ZERO,
                SimTime::from_secs(90),
            )
            .packet_fault(
                LinkSelector::All,
                PacketFaultKind::Corrupt,
                0.01,
                SimTime::ZERO,
                SimTime::from_secs(90),
            );
        w.install_fault_plan(plan);
        w.run_for(SimDuration::from_secs(75));

        // Call 1 never left the island: it must establish and live through
        // churn, partition and packet faults.
        let a = alice.ua_logs[0].borrow();
        assert!(
            a.any(|e| matches!(e, CallEvent::Established { .. })),
            "seed {seed}: intra-island call must survive: {:?}",
            a.events()
        );
        // Call 2 crosses the healed boundary.
        let c = carol.ua_logs[0].borrow();
        assert!(
            c.any(|e| matches!(e, CallEvent::Established { .. })),
            "seed {seed}: cross-boundary call must establish after heal: {:?}",
            c.events()
        );
        // Both scripted calls reached bob (exact duplicate-suppression
        // accounting is covered by the forced-duplication test below).
        let b = bob.ua_logs[0].borrow();
        assert!(
            b.count(|e| matches!(e, CallEvent::IncomingCall { .. })) >= 2,
            "seed {seed}: bob sees both scripted calls: {:?}",
            b.events()
        );

        // The plan actually fired, and corruption surfaced only as counters.
        let total = w.total_stats();
        assert!(total.get("fault.partition").packets >= 1, "seed {seed}");
        assert!(total.get("fault.heal").packets >= 1, "seed {seed}");
        assert!(
            total.get("fault.crash").packets >= 1,
            "seed {seed}: churn must crash someone"
        );
        assert!(total.get("fault.duplicate").packets > 0, "seed {seed}");
        assert!(total.get("fault.corrupt").packets > 0, "seed {seed}");
    }
}

/// Every frame duplicated, half jittered out of order: the transaction
/// layer and UA dialog handling absorb it all — one incoming call, one
/// establishment, no duplicate dialogs.
#[test]
fn forced_duplication_and_reordering_yield_single_dialog() {
    let mut w = World::new(WorldConfig::new(1201).with_radio(RadioConfig::ideal()));
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_user(user("alice", Some((5, "bob", 5)))),
    );
    let bob = deploy(
        &mut w,
        NodeSpec::relay(50.0, 0.0).with_user(user("bob", None)),
    );
    let plan = FaultPlan::new()
        .packet_fault(
            LinkSelector::All,
            PacketFaultKind::Duplicate,
            1.0,
            SimTime::ZERO,
            SimTime::from_secs(60),
        )
        .packet_fault(
            LinkSelector::All,
            PacketFaultKind::Reorder {
                max_extra: SimDuration::from_millis(30),
            },
            0.5,
            SimTime::ZERO,
            SimTime::from_secs(60),
        );
    w.install_fault_plan(plan);
    w.run_for(SimDuration::from_secs(40));

    let a = alice.ua_logs[0].borrow();
    let b = bob.ua_logs[0].borrow();
    assert_eq!(
        a.count(|e| matches!(e, CallEvent::Established { .. })),
        1,
        "alice: {:?}",
        a.events()
    );
    assert_eq!(
        b.count(|e| matches!(e, CallEvent::IncomingCall { .. })),
        1,
        "bob: {:?}",
        b.events()
    );
    assert!(w.total_stats().get("fault.duplicate").packets > 0);
    assert!(w.total_stats().get("fault.reorder").packets > 0);
}

/// A crash-restarted node must not keep NATing through its dead lease:
/// the Connection Provider's `on_start` tears down the stale public
/// alias when the node restarts, and then leases afresh.
#[test]
fn restarted_node_drops_stale_lease_then_releases() {
    let mut w = World::new(WorldConfig::new(1301).with_radio(RadioConfig::ideal()));
    let gw = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_gateway(Addr::new(82, 130, 64, 1)),
    );
    let alice = deploy(&mut w, NodeSpec::relay(60.0, 0.0));
    w.run_for(SimDuration::from_secs(20));
    let leased = |w: &World| w.node(alice.id).local_addrs().any(|a| a.is_public());
    assert!(leased(&w), "client must lease before the crash");

    w.install_fault_plan(
        FaultPlan::new()
            .crash_at(w.now() + SimDuration::from_secs(1), alice.id)
            .restart_at(w.now() + SimDuration::from_secs(3), alice.id),
    );
    // 50 ms after the restart: the teardown has run but the first
    // re-probe, at a random phase of the 5 s check interval, has not, so
    // the pre-crash alias must be gone.
    w.run_for(SimDuration::from_secs(3) + SimDuration::from_millis(50));
    assert!(
        !leased(&w),
        "stale public alias must not survive a restart: {:?}",
        w.node(alice.id).local_addrs().collect::<Vec<_>>()
    );

    w.run_for(SimDuration::from_secs(30));
    assert!(leased(&w), "restarted node re-leases");
    assert!(
        w.stats(gw.id).get("tunnel.lease").packets >= 2,
        "gateway granted a fresh lease after the restart"
    );
    assert!(w.stats(alice.id).get("fault.crash").packets >= 1);
    assert!(w.stats(alice.id).get("fault.restart").packets >= 1);
}

/// A restarted node's MANET SLP registry keeps only what the node itself
/// advertises; everything learned before the crash is purged so a healed
/// network is never served stale gateway bindings.
#[test]
fn restart_purges_learned_slp_entries() {
    let mut w = World::new(WorldConfig::new(1401).with_radio(RadioConfig::ideal()));
    let _gw = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0).with_gateway(Addr::new(82, 130, 64, 1)),
    );
    let alice = deploy(&mut w, NodeSpec::relay(60.0, 0.0));
    w.run_for(SimDuration::from_secs(20));
    let learned_before = alice
        .registry
        .borrow()
        .all_entries(w.now())
        .iter()
        .filter(|e| e.origin != alice.addr)
        .count();
    assert!(learned_before > 0, "client learned the gateway advert");

    w.set_node_up(alice.id, false);
    w.run_for(SimDuration::from_secs(1));
    w.set_node_up(alice.id, true);
    // 1 ms later the restart purge has run, and no gossip can have
    // re-taught the entries yet.
    w.run_for(SimDuration::from_millis(1));
    let learned_after = alice
        .registry
        .borrow()
        .all_entries(w.now())
        .iter()
        .filter(|e| e.origin != alice.addr)
        .count();
    assert_eq!(learned_after, 0, "learned entries purged on restart");
    assert!(w.stats(alice.id).get("slp.purged_restart").packets >= 1);
}

/// Poisson churn on the gateways themselves: the serving gateway dies and
/// comes back repeatedly while a client holds a tunnel. Keepalive-driven
/// dead-gateway detection must fire at least once, the client must hold a
/// lease again once the churn window closes, and a late Internet call
/// must still establish.
#[test]
fn gateway_churn_client_recovers_and_calls_after() {
    let mut w = World::new(WorldConfig::new(1601).with_radio(RadioConfig::ideal()));
    let dns = DnsDirectory::new().with_record("voicehoc.ch", Addr(0x52010101));
    let p = w.add_node(NodeConfig::wired(Addr(0x52010101)));
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
        SocketAddr::new(Addr(0x52010101), ports::SIP),
    );
    iris_cfg.answer_delay = SimDuration::ZERO;
    let (iris, _iris_log) = UserAgent::new(iris_cfg);
    w.spawn(iris_node, Box::new(iris));

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
    let alice = deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0)
            .with_dns(dns)
            .with_user(user("alice", Some((110, "iris", 5)))),
    );

    // Both gateways churn (up ~25 s, down ~8 s) between t=20 and t=90;
    // the fault engine guarantees everyone is back up by the window end.
    let mut churn_rng = SimRng::from_seed_and_stream(1601, 4243);
    let plan = FaultPlan::new().with_poisson_churn(
        &[gw1.id, gw2.id],
        25.0,
        8.0,
        SimTime::from_secs(20),
        SimTime::from_secs(90),
        &mut churn_rng,
    );
    w.install_fault_plan(plan);
    w.run_until(SimTime::from_secs(140));

    let st = w.stats(alice.id);
    assert!(
        st.get("cp.gateway_dead").packets >= 1,
        "keepalives must catch at least one gateway death"
    );
    assert!(w.total_stats().get("fault.crash").packets >= 1);
    assert!(
        w.node(alice.id).local_addrs().any(|a| a.is_public()),
        "client must hold a lease after the churn window"
    );
    let a = alice.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "Internet call after the churn must establish: {:?}",
        a.events()
    );
}

/// The double fault the multi-homed standby design must absorb: the
/// serving gateway AND the hottest standby crash in the same instant —
/// inside one keepalive detection window. Whichever death is detected
/// first, the Connection Provider must end up leased from the surviving
/// third gateway without ever declaring an Internet outage (the standbys
/// turn both switches into renumberings), and a call placed afterwards
/// establishes through the survivor.
#[test]
fn double_kill_of_serving_gateway_and_top_standby_lands_on_third() {
    let mut w = World::new(WorldConfig::new(1701).with_radio(RadioConfig::ideal()));
    let dns = DnsDirectory::new().with_record("voicehoc.ch", Addr(0x52010101));
    let p = w.add_node(NodeConfig::wired(Addr(0x52010101)));
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
        SocketAddr::new(Addr(0x52010101), ports::SIP),
    );
    iris_cfg.answer_delay = SimDuration::ZERO;
    let (iris, _iris_log) = UserAgent::new(iris_cfg);
    w.spawn(iris_node, Box::new(iris));

    // Hop counts pin the standby ranking: gwA (1 hop) serves, gwB
    // (2 hops, east arm) is the top standby, gwC (3 hops, north arm) the
    // second. The arms are disjoint past alice, so killing gwA and gwB
    // cannot partition gwC.
    let gw_a = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(Addr::new(82, 130, 64, 1))
            .with_dns(dns.clone()),
    );
    let alice = deploy(
        &mut w,
        NodeSpec::relay(60.0, 0.0)
            .with_standby(2, SimDuration::from_secs(1))
            .with_dns(dns.clone())
            .with_user(user("alice", Some((45, "iris", 5)))),
    );
    deploy(&mut w, NodeSpec::relay(120.0, 0.0).with_dns(dns.clone()));
    let gw_b = deploy(
        &mut w,
        NodeSpec::relay(180.0, 0.0)
            .with_gateway(Addr::new(82, 130, 65, 1))
            .with_dns(dns.clone()),
    );
    deploy(&mut w, NodeSpec::relay(60.0, 60.0).with_dns(dns.clone()));
    deploy(&mut w, NodeSpec::relay(60.0, 120.0).with_dns(dns.clone()));
    deploy(
        &mut w,
        NodeSpec::relay(60.0, 180.0)
            .with_gateway(Addr::new(82, 130, 66, 1))
            .with_dns(dns),
    );

    let leases = |w: &World| -> Vec<Addr> {
        w.node(alice.id)
            .local_addrs()
            .filter(|a| a.is_public())
            .collect()
    };

    // Lease from the near gateway, both alternatives pre-warmed.
    w.run_for(SimDuration::from_secs(20));
    let first = leases(&w);
    assert_eq!(first.len(), 1, "one lease held before the kill");
    assert_eq!(
        first[0].0 & 0xffff_ff00,
        0x5282_4000,
        "nearest gateway serves first"
    );
    assert!(
        w.stats(alice.id).get("cp.standby_warm").packets >= 2,
        "both alternatives must be warm before the kill"
    );

    // Both crashes land in the same instant — one detection window.
    let kill_at = w.now() + SimDuration::from_millis(10);
    w.install_fault_plan(
        FaultPlan::new()
            .crash_at(kill_at, gw_a.id)
            .crash_at(kill_at, gw_b.id),
    );
    let mut on_third = None;
    for step in 1..=150u64 {
        w.run_for(SimDuration::from_millis(100));
        let now_leased = leases(&w);
        if now_leased.len() == 1 && now_leased[0].0 & 0xffff_ff00 == 0x5282_4200 {
            on_third = Some(SimDuration::from_millis(100 * step));
            break;
        }
    }
    let took = on_third.expect("the third gateway must end up serving");
    assert!(
        took <= SimDuration::from_secs(12),
        "double handoff took {took:?}, budget is two detection windows"
    );
    let st = w.stats(alice.id);
    assert!(st.get("cp.gateway_dead").packets >= 1);
    assert!(
        st.get("cp.promote").packets >= 1,
        "the surviving standby must be promoted, not re-leased cold"
    );
    assert!(st.get("cp.handoff_ok").packets >= 1);
    assert_eq!(
        st.get("cp.tunnel_down").packets,
        0,
        "a double kill with a surviving standby must not declare an outage"
    );
    assert_eq!(
        leases(&w).len(),
        1,
        "exactly one lease after the dust settles"
    );
    assert!(w.total_stats().get("fault.crash").packets >= 2);

    // And the late Internet call establishes through the survivor.
    w.run_until(SimTime::from_secs(60));
    let a = alice.ua_logs[0].borrow();
    assert!(
        a.any(|e| matches!(e, CallEvent::Established { .. })),
        "call through the third gateway must establish: {:?}",
        a.events()
    );
}

/// With no gateway anywhere, the Connection Provider's re-probes back off
/// exponentially instead of hammering the (empty) MANET every 5 s.
#[test]
fn gateway_probes_back_off_when_no_gateway_exists() {
    let mut w = World::new(WorldConfig::new(1501).with_radio(RadioConfig::ideal()));
    let alice = deploy(&mut w, NodeSpec::relay(0.0, 0.0));
    let bob = deploy(&mut w, NodeSpec::relay(50.0, 0.0));
    let _ = bob;
    w.run_for(SimDuration::from_secs(120));
    let probes = w.stats(alice.id).get("cp.probe").packets;
    // A fixed 5 s interval would fire ~24 probes in 120 s; capped
    // exponential backoff (5, 10, 20, 40, 60, 60...) stays far below
    // that while still probing occasionally.
    assert!(probes >= 2, "the provider must keep probing: {probes}");
    assert!(probes <= 14, "backoff must damp the probe rate: {probes}");
}

/// Rogue gateway under link churn, defenses on: a compromised relay
/// impersonates both gateways' adverts while two alternate relays churn
/// and every link drops/duplicates frames, then the serving gateway is
/// killed mid-call. Across seeds the hardened stack must never touch the
/// attacker — zero bogus leases granted, zero tunneled packets
/// blackholed, no TEST-NET-3 address ever held — and the client must
/// still re-home to the surviving real gateway.
#[test]
fn rogue_gateway_under_link_churn_hijacks_nothing_with_defenses_on() {
    for seed in [1801u64, 1802, 1803, 1804, 1805] {
        let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
        let dns = DnsDirectory::new().with_record("voicehoc.ch", Addr(0x52010101));
        let p = w.add_node(NodeConfig::wired(Addr(0x52010101)));
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
            SocketAddr::new(Addr(0x52010101), ports::SIP),
        );
        iris_cfg.answer_delay = SimDuration::ZERO;
        let (iris, _iris_log) = UserAgent::new(iris_cfg);
        w.spawn(iris_node, Box::new(iris));

        // Secure chain: GW-A — alice — {mallory + two churning relays} —
        // GW-B. Mallory sits on the direct path; the flanking relays keep
        // alternate routes flapping instead of cleanly up or down.
        // Proactive (OLSR) dissemination: honest adverts gossip everywhere
        // during warmup, so every node pins the real gateway identities
        // before the compromise. (Trust-on-first-use is only as good as
        // first use — the attacker-first window is a documented
        // limitation, see DESIGN.md § threat model.)
        let secure = |x: f64, y: f64| {
            NodeSpec::relay(x, y)
                .with_security()
                .with_routing(RoutingProtocol::Olsr)
                .with_standby(0, SimDuration::from_secs(10))
                .with_dns(dns.clone())
        };
        let gw_a = deploy(
            &mut w,
            secure(0.0, 0.0).with_gateway(Addr::new(82, 130, 64, 1)),
        );
        let mut ua = user("alice", None);
        ua.answer_delay = SimDuration::ZERO;
        let ua = ua.call_at(
            SimTime::from_secs(30),
            Aor::new("iris", "voicehoc.ch"),
            SimDuration::from_secs(40),
        );
        let alice = deploy(&mut w, secure(60.0, 0.0).with_user(ua));
        let mallory = deploy(
            &mut w,
            secure(120.0, 0.0)
                .without_connection_provider()
                .with_adversary(),
        );
        let relay_n = deploy(&mut w, secure(110.0, 55.0));
        let relay_s = deploy(&mut w, secure(110.0, -55.0));
        let gw_b = deploy(
            &mut w,
            secure(180.0, 0.0).with_gateway(Addr::new(82, 130, 65, 1)),
        );

        let mut churn_rng = SimRng::from_seed_and_stream(seed, 4244);
        let plan = FaultPlan::new()
            .compromise_at(
                SimTime::from_secs(20),
                mallory.id,
                MaliciousKind::RogueGateway,
            )
            .with_poisson_churn(
                &[relay_n.id, relay_s.id],
                10.0,
                4.0,
                SimTime::from_secs(10),
                SimTime::from_secs(70),
                &mut churn_rng,
            )
            .packet_fault(
                LinkSelector::All,
                PacketFaultKind::Duplicate,
                0.01,
                SimTime::ZERO,
                SimTime::from_secs(80),
            )
            .packet_fault(
                LinkSelector::All,
                PacketFaultKind::Corrupt,
                0.01,
                SimTime::ZERO,
                SimTime::from_secs(80),
            );
        w.install_fault_plan(plan);

        // Call up on the first lease, then kill the serving gateway so the
        // break-before-make re-lease runs against the poisoned registry.
        w.run_until(SimTime::from_secs(40));
        let pool = |a: Addr| Addr(a.0 & 0xffff_ff00);
        let first: Vec<Addr> = w
            .node(alice.id)
            .local_addrs()
            .filter(|a| a.is_public())
            .collect();
        assert_eq!(first.len(), 1, "seed {seed}: no lease before the kill");
        let serving = if pool(first[0]) == pool(Addr::new(82, 130, 64, 101)) {
            gw_a.id
        } else {
            gw_b.id
        };
        w.set_node_up(serving, false);
        w.run_until(SimTime::from_secs(80));

        // Zero hijacks: the attacker's fake tunnel server never granted a
        // lease, never blackholed a packet, and alice never held a
        // TEST-NET-3 address.
        let mal = w.stats(mallory.id);
        assert_eq!(
            mal.get("rogue.lease").packets,
            0,
            "seed {seed}: attacker granted a bogus lease with defenses on"
        );
        assert_eq!(
            mal.get("rogue.blackholed").packets,
            0,
            "seed {seed}: attacker captured tunneled traffic with defenses on"
        );
        assert!(
            mal.get("rogue.forged").packets >= 1,
            "seed {seed}: the compromise never fired — the run tested nothing"
        );
        let bogus_pool = Addr(0xcb00_7100); // 203.0.113.0/24
        assert!(
            !w.node(alice.id)
                .local_addrs()
                .any(|a| pool(a) == bogus_pool),
            "seed {seed}: client holds a TEST-NET-3 lease"
        );
        // And the client re-homed to the surviving *real* gateway.
        assert!(
            w.node(alice.id)
                .local_addrs()
                .any(|a| a.is_public() && pool(a) != pool(first[0])),
            "seed {seed}: client never re-homed to the survivor"
        );
        let a = alice.ua_logs[0].borrow();
        assert!(
            a.any(|e| matches!(e, CallEvent::Established { .. })),
            "seed {seed}: the call never established: {:?}",
            a.events()
        );
    }
}

/// HELLOs the second of two idle nodes sends in t = 20–40 s, after it was
/// down from t = 10.3 s for `outage` (seed 7, ideal radio).
fn hellos_after_outage(routing: RoutingProtocol, outage: SimDuration) -> u64 {
    let mut w = World::new(WorldConfig::new(7).with_radio(RadioConfig::ideal()));
    deploy(&mut w, NodeSpec::relay(0.0, 0.0).with_routing(routing));
    let probe = deploy(&mut w, NodeSpec::relay(60.0, 0.0).with_routing(routing)).id;
    let down = SimTime::from_millis(10_300);
    w.install_fault_plan(
        FaultPlan::new()
            .crash_at(down, probe)
            .restart_at(down + outage, probe),
    );
    let counter = match routing {
        RoutingProtocol::Aodv => "aodv.hello",
        RoutingProtocol::Olsr => "olsr.hello",
    };
    w.run_until(SimTime::from_secs(20));
    let before = w.stats(probe).get(counter).packets;
    w.run_until(SimTime::from_secs(40));
    w.stats(probe).get(counter).packets - before
}

/// A restart starts one HELLO chain, whether or not the pre-crash
/// timer would have fired after it: AODV says hello every second and
/// OLSR every two, after a 200 ms outage as after a 5 s one.
#[test]
fn a_restart_leaves_one_hello_chain() {
    for outage in [SimDuration::from_millis(200), SimDuration::from_secs(5)] {
        assert_eq!(
            hellos_after_outage(RoutingProtocol::Aodv, outage),
            20,
            "AODV after {outage:?}"
        );
        assert_eq!(
            hellos_after_outage(RoutingProtocol::Olsr, outage),
            10,
            "OLSR after {outage:?}"
        );
    }
}

/// A UA whose REGISTER refresh fell in the outage registers again at
/// restart, and keeps refreshing.
#[test]
fn a_restarted_ua_registers_again() {
    let mut w = World::new(WorldConfig::new(1501).with_radio(RadioConfig::ideal()));
    let mut ua = user("alice", None);
    // Refresh every 10 s; the one due at 10 s falls in the outage.
    ua.register_expires = SimDuration::from_secs(20);
    let alice = deploy(&mut w, NodeSpec::relay(0.0, 0.0).with_user(ua));
    w.trace_mut().set_enabled(true);
    w.install_fault_plan(
        FaultPlan::new()
            .crash_at(SimTime::from_secs(8), alice.id)
            .restart_at(SimTime::from_secs(12), alice.id),
    );
    w.run_until(SimTime::from_secs(40));
    let sent: Vec<u64> = w
        .trace()
        .entries()
        .filter(|e| e.kind == TraceKind::Loopback && e.dgram.payload.starts_with(b"REGISTER "))
        .map(|e| e.time.as_micros() / 1_000_000)
        .collect();
    assert_eq!(sent, [0, 12, 22, 32], "REGISTERs sent, by second");
    let log = alice.ua_logs[0].borrow();
    let registered: Vec<SimTime> = log
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, CallEvent::Registered))
        .map(|(t, _)| *t)
        .collect();
    assert_eq!(registered.len(), 2, "registered at {registered:?}");
    assert!(registered[1] >= SimTime::from_secs(12));
}

/// A restart re-arms only the scripted actions still ahead: the call
/// placed before the crash is not placed again, the later one is placed
/// once.
#[test]
fn a_restarted_ua_does_not_place_a_past_call_again() {
    let mut w = World::new(WorldConfig::new(1502).with_radio(RadioConfig::ideal()));
    let bob = user("bob", None);
    let alice = user("alice", Some((5, "bob", 3))).call_at(
        SimTime::from_secs(15),
        Aor::new("bob", "voicehoc.ch"),
        SimDuration::from_secs(3),
    );
    let alice = deploy(&mut w, NodeSpec::relay(0.0, 0.0).with_user(alice));
    let bob = deploy(&mut w, NodeSpec::relay(60.0, 0.0).with_user(bob));
    w.install_fault_plan(
        FaultPlan::new()
            .crash_at(SimTime::from_secs(6), alice.id)
            .restart_at(SimTime::from_secs(8), alice.id),
    );
    w.run_until(SimTime::from_secs(30));
    let a = alice.ua_logs[0].borrow();
    let placed: Vec<SimTime> = a
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, CallEvent::OutgoingCall { .. }))
        .map(|(t, _)| *t)
        .collect();
    assert_eq!(
        placed,
        [SimTime::from_secs(5), SimTime::from_secs(15)],
        "{:?}",
        a.events()
    );
    let b = bob.ua_logs[0].borrow();
    assert_eq!(
        b.count(|e| matches!(e, CallEvent::IncomingCall { .. })),
        2,
        "bob: {:?}",
        b.events()
    );
}
