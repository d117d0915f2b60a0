//! Seed-for-seed equivalence of the optimized simulator hot path.
//!
//! The spatial neighbor index and the shared (`Arc`) datagram payloads are
//! pure optimizations: for any seed they must produce *byte-identical*
//! packet traces and event counts compared to (a) the pre-optimization
//! simulator and (b) the retained full-scan reference path. These tests
//! pin both properties:
//!
//! * golden digests — the packet trace's run fingerprint, which folds
//!   every field of every entry (payload bytes included) and the
//!   dispatched event count. Any drift in receiver discovery order, RNG
//!   draw order, loss sampling or fault handling changes the digest.
//! * grid ↔ full-scan equivalence — the same scenario run on
//!   `World::new` and on the `World::with_full_scan_reference` test
//!   world must trace identically, including under mobility
//!   (drift-bounded cell queries) and chaos faults. A mismatch names the
//!   first second whose checkpoint differs.

#[path = "support/city.rs"]
mod city;
#[path = "support/fingerprint.rs"]
mod fingerprint;

use city::{build_city, CityParams};
use fingerprint::{assert_same_run, start_fingerprint, Fingerprint};
use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::ua::{ActionKind, CallEvent, ScriptedAction, UaConfig};
use wireless_adhoc_voip::sip::uri::Aor;

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
fn run_bcast_mesh(seed: u64, spatial: bool) -> Fingerprint {
    let mut w = world(seed, spatial);
    let mut rng = SimRng::from_seed_and_stream(seed, 4242);
    let mut ids = Vec::new();
    for i in 0..25 {
        let x = (i % 5) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        let y = (i / 5) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        ids.push(w.add_node(NodeConfig::manet(x, y)));
    }
    start_fingerprint(&mut w);
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
    Fingerprint::of(&w)
}

/// Full SIPHoc stack under mobility and chaos: waypoint movement forces
/// neighbour-list refreshes, AODV/SLP exercise unicast + piggyback paths, duplicate
/// and corrupt packet faults exercise the fault delivery path (including
/// payload copy-on-write).
fn run_mobile_chaos(seed: u64, spatial: bool) -> Fingerprint {
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
    start_fingerprint(&mut w);
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
    Fingerprint::of(&w)
}

/// Full SIPHoc stack over **OLSR** on the lossy default radio: twelve
/// nodes on random waypoints, one call placed once HELLO/TC gossip has
/// converged, and the callee's node crashed mid-call and restarted, so that
/// MPR selection, TC flooding, route computation, `LinkTxFailed` (RTP to
/// the dead node exhausts its retries) and a second `on_start` all run.
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
    start_fingerprint(&mut w);
    w.install_fault_plan(
        FaultPlan::new()
            .crash_at(SimTime::from_secs(24), NodeId(5))
            .restart_at(SimTime::from_secs(27), NodeId(5)),
    );
    w.run_for(SimDuration::from_secs(36));
    (
        w.trace().digest(),
        w.total_stats().get("drop.l2_fail").packets,
    )
}

/// 1000-node [`city`] world (districts, mobile convoys,
/// emergency swarm) beaconing for two simulated seconds: the scale at
/// which the hot-node mirror, batched fan-out and the neighbour lists'
/// mobile-only refresh all engage. The trace ring is widened so the
/// time-order check reads every entry.
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
/// emitted on a node with no process that takes them, and loopback
/// dispatch.
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
    start_fingerprint(&mut w);
    w.run_until(SimTime::from_secs(45));

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
    (w.trace().digest(), established, failed)
}

// ----------------------------------------------------------------------
// Golden digests
// ----------------------------------------------------------------------

/// `(seed, bcast-mesh digest, mobile-chaos digest)` recorded by running
/// these exact scenarios on the commit before the sharded executor was
/// deleted and `Engine` flattened to plain borrows; both are pure
/// simplifications and must reproduce them bit-for-bit. Captured with the
/// `rand` stand-in under `benchmark/stubs/`. The mobile-chaos values were
/// re-pinned once when AODV stopped emitting the route-added/lost local
/// signals no process took: every trace entry is equal, only the event
/// count fell (by 43 and 99, the signals those runs had sent). Seed
/// 2302's was re-pinned again when the 2xx ACK took the INVITE's CSeq
/// instead of the dialog's latest: a re-ACK after a BYE now reads `1 ACK`
/// where it read `2 ACK`. Event count, times, endpoints and payload
/// lengths are equal; only those payload bytes differ. Both were
/// re-pinned when a restart became a second `on_start`: node 7's AODV
/// now sends its first HELLO after the restart at a random phase of its
/// period, as at spawn, instead of 1 µs after the restart. The first
/// differing entry is that early HELLO's `RadioTx` on n7 at 8.000452 s
/// (seed 2301) and 8.000508 s (seed 2302), which only the old run has.
///
/// All ten `GOLDEN*` values were re-pinned once more, with no run
/// changed, when the digest moved from a whole-trace FNV-1a written in
/// this file into the packet trace's own run fingerprint
/// (`PacketTrace::digest`). Proof, with the old digest computed beside
/// the new one in the same runs: every run still reproduced its old
/// value (`0x05558af32b531dc2` and `0x256b9f935b1694a2` here for seed
/// 2301, `0x1a54aec88506258a` and `0x1f9c63fe2a92d878` for 2302), and
/// across these ten runs and thirteen others (the full-scan references,
/// a payload byte, bit 7 of payload byte 7 and of bytes 7 and 15, a 1 µs
/// later send, a 1 µs later timer, a source port, an extra event that
/// sends nothing, …) two runs had equal old digests exactly when they
/// had equal fingerprints, but for one pair: the same extra event at
/// 2.5 s and at 5 s, which only the fingerprint's per-second checkpoints
/// tell apart. The table is in CHANGES.md.
const GOLDEN: [(u64, u64, u64); 2] = [
    (2301, 0x7ccb1937eecbb781, 0x88677da617a3aeab),
    (2302, 0x2b1d587b307965e1, 0x40f17d269bbea7dd),
];

#[test]
fn golden_trace_digests_are_reproduced() {
    for (seed, want_bcast, want_chaos) in GOLDEN {
        let got_bcast = run_bcast_mesh(seed, true).digest;
        assert_eq!(
            got_bcast, want_bcast,
            "bcast mesh digest drifted for seed {seed}: got {got_bcast:#018x}"
        );
        let got_chaos = run_mobile_chaos(seed, true).digest;
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
/// Captured with the `rand` stand-in under `benchmark/stubs/`. Re-pinned
/// once, like [`GOLDEN`]'s mobile-chaos values, for the route-lost signals
/// OLSR stopped sending: equal trace, 4 and 17 fewer events. Both were
/// re-pinned again for the ACK CSeq, payload bytes only, as [`GOLDEN`]'s.
/// And again when a restart became a second `on_start`: the callee's UA
/// registers anew as n5 comes back. The first differing entry is that
/// REGISTER's `Loopback` on n5 at 27.000000 s, which only the new run
/// has. Re-pinned with [`GOLDEN`] for the run fingerprint, from
/// `0x4bee00d4f1b59d8c` and `0xce5bd46f7b0032d6`.
const GOLDEN_OLSR: [(u64, u64); 2] = [(2301, 0x4e1f49f6f990a95c), (2302, 0x8f4ece4a3ab7b71f)];

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
/// and with the same `rand` stand-in as [`GOLDEN`]. Re-pinned with
/// [`GOLDEN`] for the run fingerprint, from `0xc64df2e7e19a055b` and
/// `0xcf52c244d7931ed7`.
const GOLDEN_CITY: [(u64, u64); 2] = [(2301, 0x4ec4715ea809ec51), (2302, 0xfd7ff4a1d5d030c2)];

/// City scale: the golden digests hold, the same seed reproduces its
/// digest, and trace timestamps never go backwards.
#[test]
fn city_digests_are_golden_reproducible_and_time_monotone() {
    for (seed, want) in GOLDEN_CITY {
        let w = run_city(seed);
        let got = Fingerprint::of(&w);
        assert_eq!(
            got.digest, want,
            "city digest drifted for seed {seed}: got {:#018x}",
            got.digest
        );
        assert_same_run(
            &Fingerprint::of(&run_city(seed)),
            &got,
            &format!("seed {seed}: same seed must reproduce exactly"),
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
/// histograms occupy (`sim.obs_bytes`: the inline `NodeStats`, five
/// engine counters and `NodeObs`, 24 + 80 + 88 B, and the heap behind
/// them by capacity — deterministic, unlike RSS) are small once each node
/// has beaconed and stay small under ten times the traffic. The one thing
/// still allowed to grow is a histogram's span, up to the width of what
/// it samples: airtime covers 18 buckets, a node's first six samples
/// about 11 of them (361 B per node at 2 s, 407 B at 20 s, 409 B at
/// 40 s). With the `obs` feature off this counts the counters alone: a
/// beacon node names none, so 104 B, flat.
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
/// `benchmark/stubs/`. Re-pinned with [`GOLDEN`] for the run
/// fingerprint, from `0x7cf4c6875de06658` and `0xb0a4272a05ef3216`.
const GOLDEN_HUB: [(u64, u64); 2] = [(2301, 0x7c640dfaa1a97585), (2302, 0x4c930a32dd59881f)];

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
        assert_same_run(
            &run_bcast_mesh(seed, true),
            &run_bcast_mesh(seed, false),
            &format!("bcast mesh: grid vs full scan diverged for seed {seed}"),
        );
        assert_same_run(
            &run_mobile_chaos(seed, true),
            &run_mobile_chaos(seed, false),
            &format!("mobile chaos: grid vs full scan diverged for seed {seed}"),
        );
    }
}

#[test]
fn same_seed_is_deterministic_across_runs() {
    assert_same_run(
        &run_bcast_mesh(4401, true),
        &run_bcast_mesh(4401, true),
        "bcast mesh: same seed",
    );
    assert_same_run(
        &run_mobile_chaos(4402, true),
        &run_mobile_chaos(4402, true),
        "mobile chaos: same seed",
    );
    assert_ne!(run_bcast_mesh(4401, true), run_bcast_mesh(4403, true));
}
