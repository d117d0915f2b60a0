//! E1 — Session establishment time vs hop count.
//!
//! The headline figure of the SIPHoc evaluation: how long from INVITE to
//! Established over 1–7 hop chains, for
//!
//! * AODV **cold** — first-ever call, routes and binding unknown: pays
//!   MANET SLP resolution (service RREQ/RREP) which *also* installs the
//!   route, then the SIP handshake;
//! * AODV **warm** — second call on the same pair: binding cached, route
//!   alive, pure SIP handshake cost;
//! * OLSR — proactive routes and fully replicated bindings: lookup is
//!   local, setup is the SIP handshake over pre-computed routes.
//!
//! Expected shape: cold grows clearly with hops (flood + reply + signaling
//! round trips), warm/OLSR grow gently (per-hop forwarding only), and
//! OLSR ≈ warm. Run with `--release`.

use siphoc_bench::measure::call_measurement;
use siphoc_bench::topology::{ideal_world, siphoc_chain};
use siphoc_bench::Series;
use siphoc_core::nodesetup::RoutingProtocol;
use siphoc_simnet::prelude::*;
use siphoc_sip::uri::Aor;

const SEEDS: [u64; 5] = [1101, 1102, 1103, 1104, 1105];
const MAX_HOPS: usize = 7;

fn run_one(seed: u64, hops: usize, routing: RoutingProtocol, warm: bool) -> Option<(f64, f64)> {
    let proactive = routing != RoutingProtocol::Aodv;
    let mut w = ideal_world(seed);
    // Caller on node 0, callee on node `hops`.
    let mut nodes = siphoc_chain(&mut w, hops + 1, routing, &[(hops, "bob")]);
    // Give proactive protocols (and their gossip) time to converge; keep
    // AODV cold by calling before periodic floods spread the binding.
    // DSDV needs diameter x update-interval.
    let (first_call, settle) = if proactive {
        (90u64, 90u64)
    } else {
        (3u64, 0u64)
    };
    let mut ua = siphoc_bench::topology::bench_ua("alice");
    ua = ua.call_at(
        SimTime::from_secs(first_call),
        Aor::new("bob", "voicehoc.ch"),
        SimDuration::from_secs(3),
    );
    if warm {
        // Second call 4 s after the first: binding cached, route from the
        // first call still within its active lifetime.
        ua = ua.call_at(
            SimTime::from_secs(first_call + 4),
            Aor::new("bob", "voicehoc.ch"),
            SimDuration::from_secs(3),
        );
    }
    let caller = siphoc_core::nodesetup::deploy(
        &mut w,
        siphoc_core::nodesetup::NodeSpec::relay(0.0, -60.0)
            .with_routing(routing)
            .without_connection_provider()
            .with_user(ua),
    );
    let _ = settle;
    let _ = &mut nodes;
    w.run_for(SimDuration::from_secs(first_call + 20));
    let k = if warm { 1 } else { 0 };
    let m = call_measurement(&caller, k);
    m.setup.map(|d| (hops as f64, d.as_millis_f64()))
}

fn sweep(label: &str, routing: RoutingProtocol, warm: bool) -> Series {
    let mut series = Series::new(label);
    for hops in 1..=MAX_HOPS {
        let mut samples = Vec::new();
        for seed in SEEDS {
            if let Some((_, ms)) = run_one(seed, hops, routing, warm) {
                samples.push(ms);
            }
        }
        if let Some(mean) = siphoc_bench::mean(&samples) {
            series.push(hops as f64, mean);
        }
    }
    series
}

fn main() {
    println!(
        "E1: session establishment time vs hop count ({} seeds per point)\n",
        SEEDS.len()
    );
    let cold = sweep("aodv-cold", RoutingProtocol::Aodv, false);
    let warm = sweep("aodv-warm", RoutingProtocol::Aodv, true);
    let olsr = sweep("olsr", RoutingProtocol::Olsr, false);
    let dsdv = sweep("dsdv", RoutingProtocol::Dsdv, false);

    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "hops", "aodv-cold", "aodv-warm", "olsr", "dsdv"
    );
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "", "(ms)", "(ms)", "(ms)", "(ms)"
    );
    for i in 0..cold.points.len() {
        let h = cold.points[i].0;
        let c = cold.points[i].1;
        let find = |s: &Series| {
            s.points
                .iter()
                .find(|(x, _)| *x == h)
                .map(|(_, y)| *y)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{h:>5.0} {c:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            find(&warm),
            find(&olsr),
            find(&dsdv)
        );
    }
    println!("\nshape check: cold > warm at every hop count; cold grows with hops.");
}
