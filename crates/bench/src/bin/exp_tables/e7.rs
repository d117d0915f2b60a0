//! E7 — Registration propagation: how long until a new user's binding is
//! resolvable from across the network, per location service.
//!
//! A user registers at t=10 s on one corner of a 4×4 grid; the opposite
//! corner polls the binding through the local API every 250 ms for 60 s.
//! Reported number: registration → first successful lookup.

use siphoc_bench::topology::ideal_world;
use siphoc_simnet::prelude::*;

use crate::grid::{seed_mean, within, Cell, Column, Grid, Section};
use crate::location::{location_grid, look_up, register, LocationKind, SERVICES};
use crate::{Shape, Table};

const SEEDS: [u64; 5] = [7701, 7702, 7703, 7704, 7705];
const REGISTER_AT: u64 = 10;
const POLL_MS: u64 = 250;
const SIDE: usize = 4;

/// Seconds from registration to the first poll that finds the binding.
fn run_one(seed: u64, kind: LocationKind) -> Option<[f64; 1]> {
    let mut w = ideal_world(seed);
    let ids = location_grid(&mut w, kind, SIDE);
    // The probe registers when it starts: run the world to REGISTER_AT,
    // then spawn the registrar on the far corner.
    w.run_for(SimDuration::from_secs(REGISTER_AT));
    register(&mut w, *ids.last().expect("nodes"), "newuser@v.ch");
    // Poller on the near corner.
    let registered = SimTime::from_secs(REGISTER_AT);
    let polls = (0..240).map(|k| registered + SimDuration::from_millis(50 + k * POLL_MS));
    let results = look_up(&mut w, ids[0], "newuser@v.ch", polls);
    w.run_for(SimDuration::from_secs(75));
    let r = results.borrow();
    let first = r.iter().find(|res| res.found)?;
    Some([first.answered.saturating_since(registered).as_secs_f64()])
}

fn run() -> Grid {
    let mut s = Section::new(&[
        Column::label("service", 18),
        Column::num("visible(s)", 14, 2),
        Column::num("misses", 8, 0),
    ]);
    for (label, kind) in SERVICES {
        let ([mean], missed) = seed_mean(&SEEDS, |seed| run_one(seed, kind));
        s.rows.push(vec![
            Cell::text(label),
            if mean.is_nan() {
                Cell::text("never")
            } else {
                Cell::Num(mean)
            },
            Cell::Num(missed as f64),
        ]);
    }
    Grid::of(s)
}

/// Rows in `SERVICES` order: manet-slp/aodv, manet-slp/olsr,
/// standard-slp, bcast-register, proactive-hello.
pub const TABLE: Table = Table {
    id: "E7",
    title: "E7: registration propagation on a 4x4 grid (5 seeds, poll 250 ms)",
    run,
    shape: &[
        Shape {
            claim: "no service misses: the binding becomes visible in every run",
            holds: |g| within(&g.col(0, 2), 0.0, 0.0),
        },
        Shape {
            claim: "manet-slp/aodv and bcast-register resolve at the first poll, within 0.1 s",
            holds: |g| within(&[g.col(0, 1)[0], g.col(0, 1)[3]], 0.0, 0.1),
        },
        Shape {
            claim: "standard-slp resolves within 1 s",
            holds: |g| within(&g.col(0, 1)[2..3], 0.0, 1.0),
        },
        Shape {
            claim: "replicated services wait for a gossip round: manet-slp/olsr 1–5 s, \
                    proactive-hello 5–30 s",
            holds: |g| within(&g.col(0, 1)[1..2], 1.0, 5.0) && within(&g.col(0, 1)[4..], 5.0, 30.0),
        },
    ],
};
