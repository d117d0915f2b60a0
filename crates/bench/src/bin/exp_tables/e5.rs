//! E5 — Internet integration cost vs distance to the gateway.
//!
//! A chain MANET with the gateway at one end; the measured node sits
//! 1–5 hops away. Reported per distance:
//!
//! * gateway discovery + tunnel establishment time (Connection Provider
//!   start → lease held), which starts from the Connection Provider's
//!   0–5 s probe jitter (the paper's "periodically checks"),
//! * Internet call setup time (INVITE → Established to an Internet UA).
//!   It carries a large constant: the proxy only falls through to the
//!   Internet after the MANET SLP lookup exhausts its retries (~2.4 s) —
//!   the price of "MANET first, Internet second" resolution — plus
//!   per-hop forwarding.

use siphoc_core::nodesetup::{deploy, NodeSpec};
use siphoc_internet::dns::DnsDirectory;
use siphoc_simnet::prelude::*;
use siphoc_sip::uri::Aor;

use crate::grid::{rising, seed_mean, within, Cell::Num, Column, Grid, Section};
use crate::worlds::{bench_ua, call_setup, ideal_world, internet_side, SPACING};
use crate::{Shape, Table};

const SEEDS: [u64; 5] = [5501, 5502, 5503, 5504, 5505];
const PROVIDER: Addr = Addr(0x52010101);
const GW_PUB: Addr = Addr(0x52824001);

/// `[tunnel-up s, call setup ms]`.
fn run_one(seed: u64, hops: usize) -> Option<[f64; 2]> {
    let mut w = ideal_world(seed);
    let dns = DnsDirectory::new().with_record("voicehoc.ch", PROVIDER);
    let iris_at = Addr::new(82, 1, 1, 50);
    internet_side(&mut w, "voicehoc.ch", PROVIDER, &dns, iris_at, |ua| ua);

    // Gateway at x=0; relays; measured node `hops` away.
    deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(GW_PUB)
            .with_dns(dns.clone()),
    );
    for i in 1..hops {
        deploy(
            &mut w,
            NodeSpec::relay(i as f64 * SPACING, 0.0).with_dns(dns.clone()),
        );
    }
    let ua = bench_ua("alice").call_at(
        SimTime::from_secs(30),
        Aor::new("iris", "voicehoc.ch"),
        SimDuration::from_secs(5),
    );
    let alice = deploy(
        &mut w,
        NodeSpec::relay(hops as f64 * SPACING, 0.0)
            .with_dns(dns)
            .with_user(ua),
    );

    // Tunnel establishment time: when alice's node gains its leased
    // public alias, at 100 ms resolution.
    let tunnel_at = (1..=300)
        .map(|step| SimTime::from_millis(100 * step))
        .find(|at| {
            w.run_until(*at);
            w.node(alice.id).local_addrs().nth(1).is_some()
        })?;
    w.run_until(SimTime::from_secs(60));
    let setup = call_setup(&alice, 0)?;
    Some([tunnel_at.as_secs_f64(), setup.as_millis_f64()])
}

fn run() -> Grid {
    let mut s = Section::new(&[
        Column::num("hops", 5, 0),
        Column::num("tunnel-up (s)", 16, 2),
        Column::num("call-setup (ms)", 18, 1),
    ]);
    for hops in 1..=5usize {
        let ([tunnel, setup], _) = seed_mean(&SEEDS, |seed| run_one(seed, hops));
        s.rows.push(vec![Num(hops as f64), Num(tunnel), Num(setup)]);
    }
    Grid::of(s)
}

pub const TABLE: Table = Table {
    id: "E5",
    title: "E5: Internet integration vs hops to gateway (5 seeds per point)",
    run,
    shape: &[
        Shape {
            claim: "call setup strictly increases with hops and stays within 2.6–2.8 s",
            holds: |g| rising(&g.col(0, 2)) && within(&g.col(0, 2), 2600.0, 2800.0),
        },
        Shape {
            claim: "tunnel-up lies inside the Connection Provider's 0–5 s probe jitter plus one \
                    flood round at every hop count (not ordered by hops)",
            holds: |g| within(&g.col(0, 1), 0.0, 5.1),
        },
    ],
};
