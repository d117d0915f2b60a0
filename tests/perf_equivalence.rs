//! Seed-for-seed equivalence of the optimized simulator hot path.
//!
//! The spatial neighbor index and the shared (`Arc`) datagram payloads are
//! pure optimizations: for any seed they must produce *byte-identical*
//! packet traces and event counts compared to (a) the pre-optimization
//! simulator and (b) the retained full-scan reference path. These tests
//! pin both properties:
//!
//! * golden digests — FNV-1a hashes of the full packet trace (every field,
//!   payload bytes included). Any drift in receiver discovery order, RNG
//!   draw order, loss sampling or fault handling changes the digest.
//! * grid ↔ full-scan equivalence — the same scenario run on
//!   `World::new` and on the `World::with_full_scan_reference` test
//!   world must trace identically, including under mobility
//!   (drift-bounded cell queries) and chaos faults.

#[path = "support/city.rs"]
mod city;

use city::{build_city, CityParams};
use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::simnet::trace::TraceKind;
use wireless_adhoc_voip::sip::ua::{ActionKind, CallEvent, ScriptedAction, UaConfig};
use wireless_adhoc_voip::sip::uri::Aor;

// ----------------------------------------------------------------------
// Digest machinery
// ----------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Hashes every field of every trace entry plus the world's dispatched
/// event count. Any behavioral difference in the hot path shows up here.
fn world_digest(w: &World) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(w.events_processed());
    for e in w.trace().entries() {
        h.write_u64(e.time.as_micros());
        h.write_u64(e.node.0 as u64);
        h.write_u64(match e.kind {
            TraceKind::RadioTx => 1,
            TraceKind::RadioRx => 2,
            TraceKind::WiredRx => 3,
            TraceKind::Loopback => 4,
            TraceKind::Drop => 5,
        });
        h.write(e.reason.unwrap_or("").as_bytes());
        h.write_u64(e.dgram.src.addr.0 as u64);
        h.write_u64(e.dgram.src.port as u64);
        h.write_u64(e.dgram.dst.addr.0 as u64);
        h.write_u64(e.dgram.dst.port as u64);
        h.write_u64(e.dgram.ttl as u64);
        h.write(&e.dgram.payload);
    }
    h.0
}

// ----------------------------------------------------------------------
// Scenarios
// ----------------------------------------------------------------------

/// The world under test, or the full-scan reference it must equal.
fn world(seed: u64, spatial: bool) -> World {
    let cfg = WorldConfig::new(seed);
    if spatial {
        World::new(cfg)
    } else {
        World::with_full_scan_reference(cfg)
    }
}

/// Broadcast-heavy static mesh on the lossy radio: every node beacons
/// every 200 ms; per-receiver loss draws make the digest sensitive to
/// receiver-iteration order.
fn run_bcast_mesh(seed: u64, spatial: bool) -> u64 {
    let mut w = world(seed, spatial);
    let mut rng = SimRng::from_seed_and_stream(seed, 4242);
    let mut ids = Vec::new();
    for i in 0..25 {
        let x = (i % 5) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        let y = (i / 5) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        ids.push(w.add_node(NodeConfig::manet(x, y)));
    }
    w.trace_mut().set_enabled(true);
    let mut t_ms = 0u64;
    while t_ms < 5_000 {
        w.run_until(SimTime::from_millis(t_ms));
        for &id in &ids {
            let src = SocketAddr::new(w.node(id).addr(), 9900);
            let dst = SocketAddr::new(Addr::BROADCAST, 9900);
            w.inject(id, Datagram::new(src, dst, vec![0xB5u8; 64]));
        }
        t_ms += 200;
    }
    w.run_until(SimTime::from_millis(5_000));
    world_digest(&w)
}

/// Full SIPHoc stack under mobility and chaos: waypoint movement forces
/// grid rebuilds, AODV/SLP exercise unicast + piggyback paths, duplicate
/// and corrupt packet faults exercise the fault delivery path (including
/// payload copy-on-write).
fn run_mobile_chaos(seed: u64, spatial: bool) -> u64 {
    let mut w = world(seed, spatial);
    let area = Area::new(300.0, 300.0);
    let params = WaypointParams::new(1.0, 15.0, SimDuration::from_secs(1));
    let mut rng = SimRng::from_seed_and_stream(seed, 777);
    for i in 0..10 {
        let x = (i % 4) as f64 * 75.0;
        let y = (i / 4) as f64 * 75.0;
        let mut spec = NodeSpec::relay(x, y).without_connection_provider();
        if i == 0 || i == 3 {
            let mut ua = VoipAppConfig::fig2(if i == 0 { "a" } else { "b" }, "voicehoc.ch")
                .to_ua_config()
                .expect("config");
            ua.answer_delay = SimDuration::from_millis(50);
            if i == 0 {
                ua = ua.call_at(
                    SimTime::from_secs(3),
                    Aor::new("b", "voicehoc.ch"),
                    SimDuration::from_secs(4),
                );
            }
            spec = spec.with_user(ua);
        }
        let start = area.sample(&mut rng);
        spec = spec.with_mobility(Mobility::random_waypoint(
            start,
            params,
            area,
            SimTime::ZERO,
            &mut rng,
        ));
        deploy(&mut w, spec);
    }
    w.trace_mut().set_enabled(true);
    let plan = FaultPlan::new()
        .crash_at(SimTime::from_secs(6), NodeId(7))
        .restart_at(SimTime::from_secs(8), NodeId(7))
        .packet_fault(
            LinkSelector::All,
            PacketFaultKind::Duplicate,
            0.05,
            SimTime::ZERO,
            SimTime::MAX,
        )
        .packet_fault(
            LinkSelector::All,
            PacketFaultKind::Corrupt,
            0.05,
            SimTime::ZERO,
            SimTime::MAX,
        );
    w.install_fault_plan(plan);
    w.run_for(SimDuration::from_secs(12));
    world_digest(&w)
}

/// Full SIPHoc stack over **OLSR** on the lossy default radio: twelve
/// nodes on random waypoints, one call placed once HELLO/TC gossip has
/// converged, and the callee's node crashed mid-call and restarted, so that
/// MPR selection, TC flooding, route computation, `LinkTxFailed` (RTP to
/// the dead node exhausts its retries) and `NodeRestarted` all run.
/// Returns the digest and how many frames ran out of link-layer retries.
fn run_olsr_roam(seed: u64) -> (u64, u64) {
    let mut w = World::new(WorldConfig::new(seed));
    let area = Area::new(240.0, 240.0);
    let params = WaypointParams::new(1.0, 6.0, SimDuration::from_secs(1));
    let mut rng = SimRng::from_seed_and_stream(seed, 1212);
    for i in 0..12 {
        let mut spec = NodeSpec::relay(0.0, 0.0)
            .with_routing(RoutingProtocol::Olsr)
            .without_connection_provider();
        if i == 0 || i == 5 {
            let mut ua = VoipAppConfig::fig2(if i == 0 { "a" } else { "b" }, "voicehoc.ch")
                .to_ua_config()
                .expect("config");
            ua.answer_delay = SimDuration::from_millis(50);
            if i == 0 {
                ua = ua.call_at(
                    SimTime::from_secs(20),
                    Aor::new("b", "voicehoc.ch"),
                    SimDuration::from_secs(8),
                );
            }
            spec = spec.with_user(ua);
        }
        let start = area.sample(&mut rng);
        spec = spec.with_mobility(Mobility::random_waypoint(
            start,
            params,
            area,
            SimTime::ZERO,
            &mut rng,
        ));
        deploy(&mut w, spec);
    }
    w.trace_mut().set_enabled(true);
    w.install_fault_plan(
        FaultPlan::new()
            .crash_at(SimTime::from_secs(24), NodeId(5))
            .restart_at(SimTime::from_secs(27), NodeId(5)),
    );
    w.run_for(SimDuration::from_secs(36));
    (
        world_digest(&w),
        w.total_stats().get("drop.l2_fail").packets,
    )
}

/// 1000-node [`city`] world (districts, mobile convoys,
/// emergency swarm) beaconing for two simulated seconds: the scale at
/// which the hot-node mirror, batched fan-out and the mobile-only grid
/// refresh all engage. The trace ring is widened so nothing is evicted.
fn run_city(seed: u64) -> World {
    let mut w = World::new(WorldConfig::new(seed));
    build_city(&mut w, CityParams::with_nodes(1000));
    w.trace_mut().set_enabled(true);
    w.trace_mut().set_capacity(1 << 20);
    w.run_until(SimTime::from_secs(2));
    assert_eq!(w.trace().evicted(), 0, "trace ring too small for the city");
    w
}

/// Signalling hub: eight default-[`UaConfig`] user agents on one node,
/// behind its loopback SIPHoc proxy, place 41 calls. Forty are answered,
/// held and hung up; the last rings a user who never answers, so the
/// INVITE is retransmitted on the T1 schedule (each copy replayed a 180)
/// and the client transaction times out at 64×T1. Covers what the radio
/// goldens barely touch: transaction timers, media start/stop events
/// fanning out to every process on the node, and loopback dispatch.
/// Returns the digest and the caller-side established / failed counts.
fn run_sip_hub(seed: u64) -> (u64, usize, usize) {
    const USERS: usize = 8;
    const SILENT: usize = USERS - 1;
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
    uas[SILENT].auto_answer = false;
    let mut call = |k: usize, caller: usize, callee: usize| {
        uas[caller].script.push(ScriptedAction {
            at: SimTime::from_millis(2_000 + 130 * k as u64),
            kind: ActionKind::Call {
                to: aor(callee),
                duration: SimDuration::from_millis(1_500 + 70 * (k as u64 % 5)),
            },
        });
    };
    for k in 0..40 {
        call(k, k % SILENT, (k + 3) % SILENT);
    }
    call(40, 0, SILENT);

    let mut w = World::new(WorldConfig::new(seed));
    let mut spec = NodeSpec::relay(0.0, 0.0).without_connection_provider();
    spec.users = uas;
    let hub = deploy(&mut w, spec);
    w.trace_mut().set_enabled(true);
    w.run_until(SimTime::from_secs(45));
    assert_eq!(w.trace().evicted(), 0, "trace ring too small for the hub");

    let (mut established, mut failed) = (0, 0);
    for log in &hub.ua_logs {
        let log = log.borrow();
        let placed: Vec<&str> = log
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                CallEvent::OutgoingCall { call_id, .. } => Some(call_id.as_str()),
                _ => None,
            })
            .collect();
        for (_, e) in log.events() {
            match e {
                CallEvent::Established { call_id, .. } if placed.contains(&call_id.as_str()) => {
                    established += 1
                }
                CallEvent::Failed { .. } => failed += 1,
                _ => {}
            }
        }
    }
    (world_digest(&w), established, failed)
}

// ----------------------------------------------------------------------
// Golden digests
// ----------------------------------------------------------------------

/// `(seed, bcast-mesh digest, mobile-chaos digest)` recorded by running
/// these exact scenarios on the commit before the sharded executor was
/// deleted and `Engine` flattened to plain borrows; both are pure
/// simplifications and must reproduce them bit-for-bit. Captured with the
/// `rand` stand-in under `benchmark/stubs/`.
const GOLDEN: [(u64, u64, u64); 2] = [
    (2301, 0x05558af32b531dc2, 0xbfc5def302206d0e),
    (2302, 0x1a54aec88506258a, 0x3f4ef220e422bc9b),
];

#[test]
fn golden_trace_digests_are_reproduced() {
    for (seed, want_bcast, want_chaos) in GOLDEN {
        let got_bcast = run_bcast_mesh(seed, true);
        assert_eq!(
            got_bcast, want_bcast,
            "bcast mesh digest drifted for seed {seed}: got {got_bcast:#018x}"
        );
        let got_chaos = run_mobile_chaos(seed, true);
        assert_eq!(
            got_chaos, want_chaos,
            "mobile chaos digest drifted for seed {seed}: got {got_chaos:#018x}"
        );
    }
}

/// `(seed, OLSR roam digest)` recorded on the commit before OLSR's MPR
/// selection and route computation became change-tracked bitset kernels
/// (they rebuilt a `BTreeMap` edge map on every HELLO and TC). The
/// rewrite is a pure optimization and must reproduce them bit-for-bit.
/// Captured with the `rand` stand-in under `benchmark/stubs/`.
const GOLDEN_OLSR: [(u64, u64); 2] = [(2301, 0x1e46ea35d04149f0), (2302, 0x4f628c46f019eeeb)];

#[test]
fn golden_olsr_digests_are_reproduced() {
    for (seed, want) in GOLDEN_OLSR {
        let (got, l2_fail) = run_olsr_roam(seed);
        assert!(
            l2_fail > 0,
            "seed {seed}: no frame exhausted its retries, LinkTxFailed never fired"
        );
        assert_eq!(
            got, want,
            "OLSR roam digest drifted for seed {seed}: got {got:#018x}"
        );
    }
}

/// `(seed, city digest)` for [`run_city`], recorded on the same commit
/// and with the same `rand` stand-in as [`GOLDEN`].
const GOLDEN_CITY: [(u64, u64); 2] = [(2301, 0xc64df2e7e19a055b), (2302, 0xcf52c244d7931ed7)];

/// City scale: the golden digests hold, the same seed reproduces its
/// digest, and trace timestamps never go backwards.
#[test]
fn city_digests_are_golden_reproducible_and_time_monotone() {
    for (seed, want) in GOLDEN_CITY {
        let w = run_city(seed);
        let got = world_digest(&w);
        assert_eq!(
            got, want,
            "city digest drifted for seed {seed}: got {got:#018x}"
        );
        assert_eq!(
            world_digest(&run_city(seed)),
            got,
            "seed {seed}: same seed must reproduce exactly"
        );
        let mut last = SimTime::ZERO;
        for e in w.trace().entries() {
            assert!(
                e.time >= last,
                "seed {seed}: trace went backwards: {} after {}",
                e.time,
                last
            );
            last = e.time;
        }
    }
}

/// Observation state is sized by what it holds, not by what passed through
/// it: on the same city, the bytes every node's counters, gauges and
/// histograms occupy (`sim.obs_bytes`: the inline `NodeStats` + `NodeObs`,
/// 24 + 88 B, and the heap behind them by capacity — deterministic, unlike
/// RSS) are small once each node has beaconed and stay small under ten
/// times the traffic. The one thing still allowed to grow is a
/// histogram's span, up to the width of what it samples: airtime covers
/// 18 buckets, a node's first six samples about 11 of them (375 B per
/// node at 2 s, 423 B at 20 s, 425 B at 40 s). With the `obs` feature off
/// this counts `NodeStats` alone (119 B at 2 s, 120 B at 40 s).
#[test]
fn city_observation_bytes_per_node_are_small_and_flat_under_traffic() {
    let mut w = World::new(WorldConfig::new(2301));
    build_city(&mut w, CityParams::with_nodes(1000));
    let mut per_node_at = |secs: u64| {
        w.run_until(SimTime::from_secs(secs));
        let reg = w.obs_registry();
        let gauge = |name| reg.gauge(name, &[]).expect("world gauge");
        gauge("sim.obs_bytes") / gauge("sim.nodes")
    };
    let early = per_node_at(2);
    let late = per_node_at(20);
    assert!(
        early > 0.0 && late <= 512.0,
        "{early} B of observation state per node at 2 s, {late} B at 20 s"
    );
    assert!(
        late <= early * 1.25,
        "observation state grew under constant live state: {early} -> {late} B per node"
    );
}

/// `(seed, hub digest)` for [`run_sip_hub`], recorded on the commit before
/// the second SIP retransmit-timer path, the UA's media-event switch and
/// the per-event dispatch view and output buffer were deleted; all three
/// are pure simplifications of the default configuration and must
/// reproduce them bit-for-bit. Captured with the `rand` stand-in under
/// `benchmark/stubs/`.
const GOLDEN_HUB: [(u64, u64); 2] = [(2301, 0x7cf4c6875de06658), (2302, 0xb0a4272a05ef3216)];

#[test]
fn golden_hub_digests_are_reproduced() {
    for (seed, want) in GOLDEN_HUB {
        let (got, established, failed) = run_sip_hub(seed);
        assert_eq!(
            established, 40,
            "seed {seed}: answered calls must establish"
        );
        assert_eq!(
            failed, 1,
            "seed {seed}: the unanswered INVITE must time out"
        );
        assert_eq!(
            got, want,
            "hub digest drifted for seed {seed}: got {got:#018x}"
        );
    }
}

#[test]
fn grid_and_full_scan_trace_identically() {
    for seed in [9301u64, 9302, 9303] {
        assert_eq!(
            run_bcast_mesh(seed, true),
            run_bcast_mesh(seed, false),
            "bcast mesh: grid vs full scan diverged for seed {seed}"
        );
        assert_eq!(
            run_mobile_chaos(seed, true),
            run_mobile_chaos(seed, false),
            "mobile chaos: grid vs full scan diverged for seed {seed}"
        );
    }
}

#[test]
fn same_seed_is_deterministic_across_runs() {
    assert_eq!(run_bcast_mesh(4401, true), run_bcast_mesh(4401, true));
    assert_eq!(run_mobile_chaos(4402, true), run_mobile_chaos(4402, true));
    assert_ne!(run_bcast_mesh(4401, true), run_bcast_mesh(4403, true));
}
