//! Seed-for-seed equivalence of the optimized simulator hot path.
//!
//! The spatial neighbor index and the shared (`Arc`) datagram payloads are
//! pure optimizations: for any seed they must produce *byte-identical*
//! packet traces and event counts compared to (a) the pre-optimization
//! simulator and (b) the retained full-scan reference path. These tests
//! pin both properties:
//!
//! * golden digests — FNV-1a hashes of the full packet trace (every field,
//!   payload bytes included) captured from the seed-era simulator before
//!   the grid/zero-copy changes landed. Any drift in receiver discovery
//!   order, RNG draw order, loss sampling or fault handling changes the
//!   digest.
//! * grid ↔ full-scan equivalence — the same scenario run with
//!   `use_spatial_index` on and off must trace identically, including
//!   under mobility (drift-bounded cell queries) and chaos faults.

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::simnet::trace::TraceKind;
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

/// Broadcast-heavy static mesh on the lossy radio: every node beacons
/// every 200 ms; per-receiver loss draws make the digest sensitive to
/// receiver-iteration order.
fn run_bcast_mesh(seed: u64, spatial: bool) -> u64 {
    run_bcast_mesh_threads(seed, spatial, 1)
}

fn run_bcast_mesh_threads(seed: u64, spatial: bool, threads: usize) -> u64 {
    let mut cfg = WorldConfig::new(seed);
    cfg.use_spatial_index = spatial;
    let mut w = World::new(cfg);
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
        if threads == 1 {
            w.run_until(SimTime::from_millis(t_ms));
        } else {
            w.run_until_threads(SimTime::from_millis(t_ms), threads);
        }
        for &id in &ids {
            let src = SocketAddr::new(w.node(id).addr(), 9900);
            let dst = SocketAddr::new(Addr::BROADCAST, 9900);
            w.inject(id, Datagram::new(src, dst, vec![0xB5u8; 64]));
        }
        t_ms += 200;
    }
    if threads == 1 {
        w.run_until(SimTime::from_millis(5_000));
    } else {
        w.run_until_threads(SimTime::from_millis(5_000), threads);
    }
    world_digest(&w)
}

/// Full SIPHoc stack under mobility and chaos: waypoint movement forces
/// grid rebuilds, AODV/SLP exercise unicast + piggyback paths, duplicate
/// and corrupt packet faults exercise the fault delivery path (including
/// payload copy-on-write).
fn run_mobile_chaos(seed: u64, spatial: bool) -> u64 {
    run_mobile_chaos_threads(seed, spatial, 1)
}

fn run_mobile_chaos_threads(seed: u64, spatial: bool, threads: usize) -> u64 {
    let mut cfg = WorldConfig::new(seed);
    cfg.use_spatial_index = spatial;
    let mut w = World::new(cfg);
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
    if threads == 1 {
        w.run_for(SimDuration::from_secs(12));
    } else {
        w.run_for_threads(SimDuration::from_secs(12), threads);
    }
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
            .with_routing(RoutingProtocol::olsr())
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

// ----------------------------------------------------------------------
// Golden digests (captured from the pre-grid, pre-Arc-payload simulator)
// ----------------------------------------------------------------------

/// `(seed, bcast-mesh digest, mobile-chaos digest)` recorded by running
/// these exact scenarios on the seed-era hot path (full node scan,
/// `Vec<u8>` payloads). The optimized simulator must reproduce them
/// bit-for-bit.
const GOLDEN: [(u64, u64, u64); 2] = [
    (2301, 0xc09cee5e3eec047b, 0x6c221399a060c612),
    (2302, 0xfc3431acfa0b46a3, 0x5efe7332d5c78b55),
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

/// The sharded parallel runner must reproduce the sequential trace
/// byte-for-byte: same digests at 1, 2 and 4 threads, for both the
/// broadcast-heavy mesh (big windows, many conflict components) and the
/// chaos scenario (packet faults force the sequential fallback on every
/// window — the fallback itself must also be exact).
#[test]
fn thread_matrix_reproduces_sequential_digests() {
    for (seed, want_bcast, want_chaos) in GOLDEN {
        for threads in [2usize, 4] {
            let got = run_bcast_mesh_threads(seed, true, threads);
            assert_eq!(
                got, want_bcast,
                "bcast mesh digest drifted for seed {seed} at {threads} threads: got {got:#018x}"
            );
            let got = run_mobile_chaos_threads(seed, true, threads);
            assert_eq!(
                got, want_chaos,
                "mobile chaos digest drifted for seed {seed} at {threads} threads: got {got:#018x}"
            );
        }
    }
}
