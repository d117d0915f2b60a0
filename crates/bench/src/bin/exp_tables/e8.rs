//! E8 — Scalability with network size (the paper's stated future work:
//! "as a next step, we plan to explore the scalability of the system as
//! the number of nodes grows").
//!
//! Constant-density random topologies from 10 to 50 nodes; a quarter of
//! the nodes run users and half of those place staggered calls while the
//! whole network idles otherwise. Reported per size: call success within
//! 10 s, mean setup time, control payload bytes/node/s, and SLP lookup
//! outcome mix. The system's costs are per-neighborhood (hellos) and
//! per-call (floods), not per-network.

use siphoc_bench::topology::ideal_world;
use siphoc_core::nodesetup::{deploy, NodeSpec};
use siphoc_simnet::prelude::*;

use crate::grid::{within, Cell, Cell::Num, Column, Grid, Section};
use crate::worlds::{control_bytes_per_node_second, paired_ua, setups_within_deadline};
use crate::{Shape, Table};

const SEEDS: [u64; 3] = [8881, 8882, 8883];
const SIZES: [usize; 5] = [10, 20, 30, 40, 50];
/// Node density: one node per (85 m)² keeps the topology connected w.h.p.
const CELL: f64 = 85.0;
const RUN_SECS: u64 = 120;

struct Outcome {
    attempted: usize,
    /// Setup ms of the calls that made the deadline.
    setup_ms: Vec<f64>,
    ctrl_bytes_per_node_s: f64,
    lookup_hits: u64,
    lookup_misses: u64,
}

fn run_one(seed: u64, n: usize) -> Outcome {
    let mut w = ideal_world(seed);
    // Constant-density square area.
    let side = (n as f64).sqrt() * CELL;
    let mut rng = SimRng::from_seed_and_stream(seed, 4242);
    let users = n / 4;
    let calls = |i: usize| i % 2 == 0 && i + 1 < users;
    let mut nodes = Vec::new();
    for i in 0..n {
        // Jittered grid placement: connected but irregular.
        let cols = (n as f64).sqrt().ceil() as usize;
        let gx = (i % cols) as f64 * CELL + rng.range_f64(-20.0, 20.0);
        let gy = (i / cols) as f64 * CELL + rng.range_f64(-20.0, 20.0);
        let mut spec =
            NodeSpec::relay(gx.clamp(0.0, side), gy.clamp(0.0, side)).without_connection_provider();
        if i < users {
            spec = spec.with_user(paired_ua(i, calls(i), 20 + i as u64 * 5, 10));
        }
        nodes.push(deploy(&mut w, spec));
    }
    w.run_for(SimDuration::from_secs(RUN_SECS));

    let callers: Vec<_> = (0..users)
        .filter(|i| calls(*i))
        .map(|i| &nodes[i])
        .collect();
    let total = w.total_stats();
    Outcome {
        attempted: callers.len(),
        setup_ms: setups_within_deadline(callers.into_iter()),
        ctrl_bytes_per_node_s: control_bytes_per_node_second(&w),
        lookup_hits: total.get("slp.lookup_hit").packets,
        lookup_misses: total.get("slp.lookup_miss").packets,
    }
}

fn run() -> Grid {
    let mut s = Section::new(&[
        Column::num("nodes", 6, 0),
        Column::num("calls", 9, 0),
        Column::num("success(%)", 11, 0),
        Column::num("setup(ms)", 11, 1),
        Column::num("ctrl B/node/s", 13, 1),
        Column::num("hit:miss", 11, 0),
    ]);
    for n in SIZES {
        let runs = SEEDS.map(|seed| run_one(seed, n));
        let attempted: usize = runs.iter().map(|o| o.attempted).sum();
        let setup: Vec<f64> = runs.iter().flat_map(|o| o.setup_ms.clone()).collect();
        let ctrl: Vec<f64> = runs.iter().map(|o| o.ctrl_bytes_per_node_s).collect();
        let hits: u64 = runs.iter().map(|o| o.lookup_hits).sum();
        let misses: u64 = runs.iter().map(|o| o.lookup_misses).sum();
        s.rows.push(vec![
            Num(n as f64),
            Num(attempted as f64),
            Num(100.0 * setup.len() as f64 / attempted.max(1) as f64),
            Num(siphoc_bench::mean(&setup).unwrap_or(f64::NAN)),
            Num(siphoc_bench::mean(&ctrl).unwrap_or(f64::NAN)),
            // The colon sits three from the column's right edge.
            Cell::Text(format!("{hits:>8}:{misses:<2}")),
        ]);
    }
    Grid::of(s)
}

pub const TABLE: Table = Table {
    id: "E8",
    title: "E8: scalability with network size (3 seeds per point)",
    run,
    shape: &[
        Shape {
            claim: "call success within the 10 s deadline is ≥ 85 % at every size",
            holds: |g| within(&g.col(0, 2), 85.0, 100.0),
        },
        Shape {
            claim: "control bytes per node-second stay within ±20 % of the 10-node row",
            holds: |g| {
                let base = g.col(0, 4)[0];
                within(&g.col(0, 4), 0.8 * base, 1.2 * base)
            },
        },
        Shape {
            claim: "mean setup stays under 10 ms at every size (not ordered by size)",
            holds: |g| within(&g.col(0, 3), 0.0, 10.0),
        },
    ],
};
