//! E3 — Control overhead vs network size and number of users.
//!
//! Measures on-air control bytes per node per second over a quiet 120 s
//! window (registrations present, no calls) for each location service.
//! SIPHoc's claim: piggybacking adds *bytes to existing packets* instead
//! of new packets, so its overhead tracks the routing protocol's own
//! baseline; the alternatives add packet floods or periodic dedicated
//! messages on top.

use siphoc_bench::topology::ideal_world;
use siphoc_simnet::prelude::*;

use crate::grid::{falling, flat, rising, within, Cell::Num, Grid, Section};
use crate::location::{location_grid, register, service_columns, LocationKind, SERVICES};
use crate::worlds::control_bytes_per_node_second;
use crate::{Shape, Table};

const SEED: u64 = 3301;
const MEASURE_SECS: u64 = 120;

fn run_one(side: usize, users: usize, kind: LocationKind) -> f64 {
    let mut w = ideal_world(SEED);
    let ids = location_grid(&mut w, kind, side);
    for (u, id) in ids.iter().enumerate().take(users) {
        register(&mut w, *id, &format!("user{u}@v.ch"));
    }
    w.run_for(SimDuration::from_secs(MEASURE_SECS));
    control_bytes_per_node_second(&w)
}

/// One section: a row per `(shown, side, users)` — the sweep value the
/// row is labelled with and the grid it runs on.
fn section(
    caption: &'static str,
    sweep: &'static str,
    worlds: &[(usize, usize, usize)],
) -> Section {
    let mut s = Section::new(&service_columns(sweep, 1));
    s.caption = Some(caption);
    for &(shown, side, users) in worlds {
        let cells = SERVICES.map(|(_, kind)| Num(run_one(side, users, kind)));
        let row = [Num(shown as f64)].into_iter().chain(cells);
        s.rows.push(row.collect());
    }
    s
}

fn run() -> Grid {
    let by_size = section(
        "-- vs network size (4 users registered) --",
        "nodes",
        &[2, 3, 4, 5].map(|side| (side * side, side, 4)),
    );
    let by_users = section(
        "-- vs registered users (16 nodes) --",
        "users",
        &[0, 2, 4, 8, 16].map(|users| (users, 4, users)),
    );
    Grid {
        sections: vec![by_size, by_users],
        ..Grid::default()
    }
}

/// Section 1, vs users: columns 1–5 are manet-slp/aodv, manet-slp/olsr,
/// standard-slp, bcast-register, proactive-hello.
pub const TABLE: Table = Table {
    id: "E3",
    title: "E3: control overhead (bytes/node/s), 120 s quiet network",
    run,
    shape: &[
        Shape {
            claim: "standard-slp is flat in users and in network size",
            holds: |g| flat(&[g.col(0, 3), g.col(1, 3)].concat()),
        },
        Shape {
            claim: "bcast-register and proactive-hello strictly grow with users",
            holds: |g| rising(&g.col(1, 4)) && rising(&g.col(1, 5)),
        },
        Shape {
            claim: "manet-slp/aodv at 16 users is ≥ 4× below both",
            holds: |g| {
                [4, 5]
                    .iter()
                    .all(|c| 4.0 * g.col(1, 1)[4] <= g.col(1, *c)[4])
            },
        },
        Shape {
            claim: "with no user every AODV-based service is within 1 B/node/s of the routing \
                    baseline",
            holds: |g| {
                let baseline = g.col(1, 3)[0];
                let idle = [1, 4, 5].map(|c| g.col(1, c)[0]);
                within(&idle, baseline - 1.0, baseline + 1.0)
            },
        },
        Shape {
            claim: "at 4 users manet-slp/aodv's per-node cost strictly falls as the network grows",
            holds: |g| falling(&g.col(0, 1)),
        },
        Shape {
            claim: "manet-slp/olsr is the most expensive service in every row",
            holds: |g| g.tops_every_row(0, 2) && g.tops_every_row(1, 2),
        },
    ],
};
