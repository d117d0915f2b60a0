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

use siphoc_bench::topology::ideal_world;
use siphoc_core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use siphoc_simnet::prelude::*;
use siphoc_sip::uri::Aor;

use crate::grid::{rising, seed_mean, slope, within, Cell::Num, Column, Grid, Section};
use crate::worlds::{bench_ua, call_setup, siphoc_chain};
use crate::{Shape, Table};

const SEEDS: [u64; 5] = [1101, 1102, 1103, 1104, 1105];
const MAX_HOPS: usize = 7;

/// Setup time in ms of the measured call, `None` if it never established.
fn run_one(seed: u64, hops: usize, routing: RoutingProtocol, warm: bool) -> Option<[f64; 1]> {
    let mut w = ideal_world(seed);
    // Caller beside node 0, callee on node `hops`.
    siphoc_chain(&mut w, hops + 1, routing, &[(hops, "bob")]);
    // Give OLSR (and its gossip) time to converge; keep AODV cold by
    // calling before periodic floods spread the binding.
    let first_call = if routing == RoutingProtocol::Aodv {
        3u64
    } else {
        90u64
    };
    let bob = Aor::new("bob", "voicehoc.ch");
    let talk = SimDuration::from_secs(3);
    let mut ua = bench_ua("alice").call_at(SimTime::from_secs(first_call), bob.clone(), talk);
    if warm {
        // Second call 4 s after the first: binding cached, route from the
        // first call still within its active lifetime.
        ua = ua.call_at(SimTime::from_secs(first_call + 4), bob, talk);
    }
    let caller = deploy(
        &mut w,
        NodeSpec::relay(0.0, -60.0)
            .with_routing(routing)
            .without_connection_provider()
            .with_user(ua),
    );
    w.run_for(SimDuration::from_secs(first_call + 20));
    call_setup(&caller, usize::from(warm)).map(|d| [d.as_millis_f64()])
}

fn run() -> Grid {
    let mut s = Section::new(&[
        Column::num("hops", 5, 0),
        Column::num("aodv-cold", 12, 1),
        Column::num("aodv-warm", 12, 1),
        Column::num("olsr", 12, 1),
    ]);
    s.legend = Some(format!(
        "{:>5} {:>12} {:>12} {:>12}",
        "", "(ms)", "(ms)", "(ms)"
    ));
    for hops in 1..=MAX_HOPS {
        let mean =
            |routing, warm| Num(seed_mean(&SEEDS, |seed| run_one(seed, hops, routing, warm)).0[0]);
        s.rows.push(vec![
            Num(hops as f64),
            mean(RoutingProtocol::Aodv, false),
            mean(RoutingProtocol::Aodv, true),
            mean(RoutingProtocol::Olsr, false),
        ]);
    }
    Grid::of(s)
}

pub const TABLE: Table = Table {
    id: "E1",
    title: "E1: session establishment time vs hop count (5 seeds per point)",
    run,
    shape: &[
        Shape {
            claim: "aodv-cold, aodv-warm and olsr each strictly increase with hops",
            holds: |g| (1..=3).all(|c| rising(&g.col(0, c))),
        },
        Shape {
            claim: "at 1 hop cold is within 0.1 ms of warm (hellos already carried the binding \
                    to the neighbour); from 2 hops on the service-query flood costs cold ≥ 3 ms more",
            holds: |g| {
                let (cold, warm) = (g.col(0, 1), g.col(0, 2));
                let extra: Vec<f64> = cold.iter().zip(warm).map(|(c, w)| c - w).collect();
                extra[0].abs() <= 0.1 && extra[1..].iter().all(|e| *e >= 3.0)
            },
        },
        Shape {
            claim: "a hop costs cold 2.5–3.5 ms and warm and olsr 1.5–2.0 ms",
            holds: |g| {
                let per_hop = |c| slope(&g.col(0, c));
                within(&[per_hop(1)], 2.5, 3.5) && within(&[per_hop(2), per_hop(3)], 1.5, 2.0)
            },
        },
        Shape {
            claim: "olsr stays within 0.5 ms of aodv-warm at every hop count",
            holds: |g| (g.col(0, 2).iter().zip(g.col(0, 3))).all(|(w, o)| (w - o).abs() <= 0.5),
        },
    ],
};
