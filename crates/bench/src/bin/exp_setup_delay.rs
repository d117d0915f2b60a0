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
use siphoc_core::nodesetup::RoutingProtocol;
use siphoc_simnet::prelude::*;
use siphoc_sip::uri::Aor;

const SEEDS: [u64; 5] = [1101, 1102, 1103, 1104, 1105];
const MAX_HOPS: usize = 7;

/// Setup time in ms of the measured call, `None` if it never established.
fn run_one(seed: u64, hops: usize, routing: RoutingProtocol, warm: bool) -> Option<f64> {
    let mut w = ideal_world(seed);
    // Caller on node 0, callee on node `hops`.
    siphoc_chain(&mut w, hops + 1, routing, &[(hops, "bob")]);
    // Give OLSR (and its gossip) time to converge; keep AODV cold by
    // calling before periodic floods spread the binding.
    let first_call = if routing == RoutingProtocol::Aodv {
        3u64
    } else {
        90u64
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
    w.run_for(SimDuration::from_secs(first_call + 20));
    let k = if warm { 1 } else { 0 };
    call_measurement(&caller, k)
        .setup
        .map(|d| d.as_millis_f64())
}

/// `(hops, mean setup ms)` for every hop count with at least one
/// established call.
fn sweep(routing: RoutingProtocol, warm: bool) -> Vec<(usize, f64)> {
    (1..=MAX_HOPS)
        .filter_map(|hops| {
            let samples: Vec<f64> = SEEDS
                .iter()
                .filter_map(|&seed| run_one(seed, hops, routing, warm))
                .collect();
            siphoc_bench::mean(&samples).map(|mean| (hops, mean))
        })
        .collect()
}

fn main() {
    println!(
        "E1: session establishment time vs hop count ({} seeds per point)\n",
        SEEDS.len()
    );
    let cold = sweep(RoutingProtocol::Aodv, false);
    let warm = sweep(RoutingProtocol::Aodv, true);
    let olsr = sweep(RoutingProtocol::Olsr, false);

    println!(
        "{:>5} {:>12} {:>12} {:>12}",
        "hops", "aodv-cold", "aodv-warm", "olsr"
    );
    println!("{:>5} {:>12} {:>12} {:>12}", "", "(ms)", "(ms)", "(ms)");
    for &(h, c) in &cold {
        let find = |s: &[(usize, f64)]| {
            s.iter()
                .find(|(x, _)| *x == h)
                .map_or(f64::NAN, |(_, y)| *y)
        };
        println!(
            "{h:>5} {c:>12.1} {:>12.1} {:>12.1}",
            find(&warm),
            find(&olsr)
        );
    }
    println!("\nshape check: cold > warm at every hop count; cold grows with hops.");
}
