//! E2 — Lookup delay of the location-service alternatives vs network size.
//!
//! A user registered on one corner of a grid is looked up from the
//! opposite corner, for every location service behind the common
//! `127.0.0.1:427` API:
//!
//! * MANET SLP over AODV — on-demand query piggybacked on a service RREQ;
//! * MANET SLP over OLSR — proactive replication, local lookup;
//! * standard SLP — multicast convergence flood + unicast reply (which
//!   itself needs an AODV route discovery and its ring-search timers —
//!   the paper's "very inefficient in MANETs" claim, measured);
//! * broadcast-REGISTER and proactive-HELLO baselines — replicated, local.

use siphoc_bench::topology::ideal_world;
use siphoc_simnet::prelude::*;

use crate::grid::{rising, seed_mean, within, Cell, Grid, Section};
use crate::location::{location_grid, look_up, register, service_columns, LocationKind, SERVICES};
use crate::{Shape, Table};

const SEEDS: [u64; 5] = [2201, 2202, 2203, 2204, 2205];
const SIDES: [usize; 4] = [2, 3, 4, 5]; // 4..25 nodes

/// Latency in ms of the one lookup, `None` if it found nothing.
fn run_one(seed: u64, side: usize, kind: LocationKind) -> Option<[f64; 1]> {
    let mut w = ideal_world(seed);
    let ids = location_grid(&mut w, kind, side);
    // Register bob on the far corner at t≈0.
    register(&mut w, *ids.last().expect("nodes"), "bob@v.ch");
    // Look up from the near corner after the replicated services have had
    // time to converge (30 s covers OLSR TC and baseline refresh periods).
    let at = [SimTime::from_secs(30)].into_iter();
    let results = look_up(&mut w, ids[0], "bob@v.ch", at);
    w.run_for(SimDuration::from_secs(45));
    let r = results.borrow();
    let first = r.first().filter(|first| first.found)?;
    Some([first.latency().as_millis_f64()])
}

fn run() -> Grid {
    let mut s = Section::new(&service_columns("nodes", 2));
    s.legend = Some(format!("{:>7} (mean ms; '!' marks runs with misses)", ""));
    for side in SIDES {
        let mut row = vec![Cell::Num((side * side) as f64)];
        for (_, kind) in SERVICES {
            let ([mean], missed) = seed_mean(&SEEDS, |seed| run_one(seed, side, kind));
            row.push(if mean.is_nan() {
                Cell::text("miss")
            } else {
                Cell::Flagged(mean, missed > 0)
            });
        }
        s.rows.push(row);
    }
    Grid::of(s)
}

pub const TABLE: Table = Table {
    id: "E2",
    title: "E2: lookup delay vs network size (5 seeds per point)",
    run,
    shape: &[
        Shape {
            claim: "every service answers every lookup: no miss, no '!'",
            holds: |g| {
                let mut cells = g.sections[0].rows.iter().flat_map(|row| &row[1..]);
                cells.all(|cell| matches!(cell, Cell::Flagged(_, false)))
            },
        },
        Shape {
            claim: "manet-slp/olsr, bcast-register and proactive-hello answer from the local \
                    replica: under 0.2 ms at every size",
            holds: |g| [2, 4, 5].iter().all(|c| within(&g.col(0, *c), 0.0, 0.2)),
        },
        Shape {
            claim: "manet-slp/aodv strictly grows with network size and stays under 5 ms",
            holds: |g| rising(&g.col(0, 1)) && within(&g.col(0, 1), 0.0, 5.0),
        },
        Shape {
            claim: "standard-slp is the slowest service at every size, over 100× manet-slp/aodv \
                    from 16 nodes on",
            holds: |g| {
                let (std, aodv) = (g.col(0, 3), g.col(0, 1));
                g.tops_every_row(0, 3) && (2..std.len()).all(|r| std[r] > 100.0 * aodv[r])
            },
        },
    ],
};
