//! A1 — Ablation: what exactly does piggybacking buy?
//!
//! Three variants of service dissemination over identical 4×4 AODV grids
//! with 6 registered users, measured over 120 quiet seconds plus one
//! cross-grid lookup:
//!
//! 1. **piggyback (throttled)** — SIPHoc as shipped: entries ride existing
//!    routing messages, unchanged entries re-attach at most every 8 s;
//! 2. **piggyback (unthrottled)** — entries ride *every* routing message
//!    (the naive reading of the paper's mechanism);
//! 3. **dedicated messages** — same information in standalone packets
//!    (the proactive-HELLO baseline at the same 8 s period).
//!
//! Reported: control payload bytes/node/s, extra *packets* on the air
//! versus the pure-routing baseline, and lookup latency.

use siphoc_bench::topology::ideal_world;
use siphoc_simnet::prelude::*;

use crate::grid::{within, Cell, Cell::Num, Column, Grid, Section};
use crate::location::{location_grid, look_up, register, LocationKind};
use crate::worlds::control_bytes_per_node_second;
use crate::{Shape, Table};

const SEED: u64 = 8801;
const SIDE: usize = 4;
const USERS: usize = 6;
const MEASURE_SECS: u64 = 120;

/// The variants under their row labels; dedicated messages are the
/// proactive-HELLO baseline at the throttle's own 8 s period.
const VARIANTS: [(&str, LocationKind); 3] = [
    ("piggyback (8s throttle)", LocationKind::ManetSlpAodv),
    (
        "piggyback (unthrottled)",
        LocationKind::ManetSlpAodvUnthrottled,
    ),
    ("dedicated messages", LocationKind::ProactiveHello(8)),
];

fn dedicated_packets(world: &World) -> u64 {
    let total = world.total_stats();
    ["phello.", "slp_std.", "bcast_reg."]
        .iter()
        .map(|prefix| total.sum_prefix(prefix).packets)
        .sum()
}

fn run_one((label, kind): (&str, LocationKind)) -> Vec<Cell> {
    let mut w = ideal_world(SEED);
    let ids = location_grid(&mut w, kind, SIDE);
    for (u, id) in ids.iter().enumerate().take(USERS) {
        register(&mut w, *id, &format!("user{u}@v.ch"));
    }
    // One lookup from the far corner for the user on the near corner.
    let at = [SimTime::from_secs(60)].into_iter();
    let results = look_up(&mut w, *ids.last().expect("nodes"), "user0@v.ch", at);
    w.run_for(SimDuration::from_secs(MEASURE_SECS));
    let lookup = results.borrow().first().copied().filter(|l| l.found);
    vec![
        Cell::text(label),
        Num(control_bytes_per_node_second(&w)),
        Num(dedicated_packets(&w) as f64),
        lookup.map_or(Cell::text("miss"), |l| Num(l.latency().as_millis_f64())),
    ]
}

fn run() -> Grid {
    let mut s = Section::new(&[
        Column::label("variant", 26),
        Column::num("ctrl B/node/s", 14, 1),
        Column::num("extra packets", 16, 0),
        Column::num("lookup(ms)", 12, 2),
    ]);
    s.rows = VARIANTS.map(run_one).to_vec();
    Grid::of(s)
}

/// Rows: throttled piggyback, unthrottled piggyback, dedicated messages.
pub const TABLE: Table = Table {
    id: "A1",
    title: "A1: piggybacking ablation (4x4 grid, 6 users, 120s)",
    run,
    shape: &[
        Shape {
            claim: "both piggyback variants add zero packets; dedicated messages add at least 100",
            holds: |g| within(&g.col(0, 2)[..2], 0.0, 0.0) && g.col(0, 2)[2] >= 100.0,
        },
        Shape {
            claim: "the 8 s throttle costs the fewest bytes; unthrottled piggybacking and \
                    dedicated messages each cost 3.5–4.5× as much",
            holds: |g| {
                let bytes = g.col(0, 1);
                within(&[bytes[1] / bytes[0], bytes[2] / bytes[0]], 3.5, 4.5)
            },
        },
        Shape {
            claim: "every variant resolves the lookup: dedicated messages from the local replica \
                    (< 0.2 ms), piggybacking in one flood round (1–5 ms)",
            holds: |g| within(&g.col(0, 3)[..2], 1.0, 5.0) && within(&g.col(0, 3)[2..], 0.0, 0.2),
        },
    ],
};
