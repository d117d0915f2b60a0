//! F6 — Deployment footprint (paper §4).
//!
//! The paper reports static sizes for the iPAQ port: a 1.2 MB system
//! (proxy, Gateway Provider, Connection Provider, MANET SLP plus ~20
//! shared libraries) against the handheld's 32 MB flash, of which the OS
//! takes 25 MB, plus a 1 MB VoIP application. Binary sizes do not
//! translate across languages and decades, so this harness accounts the
//! footprint dimension the middleware *scales* with: per-node runtime
//! state as the network and user population grow — the number that
//! decides whether the 7 MB of free flash/RAM headroom survives a large
//! MANET. `EXPERIMENTS.md` restates the paper's static numbers alongside.

use siphoc_bench::topology::ideal_world;
use siphoc_core::metrics::{node_footprint, ROUTE_ENTRY_BYTES, SLP_ENTRY_BYTES};
use siphoc_core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use siphoc_simnet::prelude::*;

use crate::grid::{flat, within, Cell, Cell::Num, Column, Grid, Section};
use crate::worlds::{bench_ua, grid_positions};
use crate::{Shape, Table};

const SCALES: [(usize, usize); 3] = [(3, 4), (4, 8), (5, 12)];

fn run_one(side: usize, users: usize, routing: RoutingProtocol, label: &str) -> Vec<Cell> {
    let mut w = ideal_world(9901);
    let mut nodes = Vec::new();
    for (i, (x, y)) in grid_positions(side).enumerate() {
        let mut spec = NodeSpec::relay(x, y)
            .with_routing(routing)
            .without_connection_provider();
        if i < users {
            spec = spec.with_user(bench_ua(&format!("user{i}")));
        }
        nodes.push(deploy(&mut w, spec));
    }
    // Let the network converge; OLSR replicates everything.
    w.run_for(SimDuration::from_secs(60));
    let mut max_routes = 0usize;
    let mut max_slp = 0usize;
    let mut sum_bytes = 0usize;
    for n in &nodes {
        let fp = node_footprint(&w, n.id, Some(&n.registry));
        max_routes = max_routes.max(fp.routing_entries);
        max_slp = max_slp.max(fp.slp_entries);
        sum_bytes += fp.routing_bytes + fp.slp_bytes;
    }
    let mean_bytes = sum_bytes / nodes.len();
    let counts = [side * side, users, max_routes, max_slp, mean_bytes];
    let label = [Cell::text(label)].into_iter();
    label.chain(counts.map(|n| Num(n as f64))).collect()
}

fn run() -> Grid {
    let mut s = Section::new(&[
        Column::label("stack", 12),
        Column::num("nodes", 6, 0),
        Column::num("users", 6, 0),
        Column::num("max routes", 12, 0),
        Column::num("max SLP", 10, 0),
        Column::num("mean bytes", 12, 0),
    ]);
    for (routing, label) in [
        (RoutingProtocol::Aodv, "siphoc/aodv"),
        (RoutingProtocol::Olsr, "siphoc/olsr"),
    ] {
        for (side, users) in SCALES {
            s.rows.push(run_one(side, users, routing, label));
        }
    }
    Grid {
        subtitle: Some(format!(
            "(route entry = {ROUTE_ENTRY_BYTES} B, SLP entry = {SLP_ENTRY_BYTES} B accounting units)"
        )),
        sections: vec![s],
        notes: vec![
            "paper's static footprint for context: middleware 1.2 MB,".to_owned(),
            "VoIP app 1.0 MB, OS 25 MB of the iPAQ's 32 MB flash.".to_owned(),
        ],
    }
}

/// Rows 0–2 are AODV at 9, 16 and 25 nodes, rows 3–5 OLSR at the same
/// sizes; columns: 1 nodes, 2 users, 3 max routes, 4 max SLP, 5 mean bytes.
pub const TABLE: Table = Table {
    id: "F6",
    title: "F6: per-node middleware state vs scale",
    run,
    shape: &[
        Shape {
            claim: "runtime state stays under 4 KB per node at every size",
            holds: |g| within(&g.col(0, 5), 1.0, 4096.0),
        },
        Shape {
            claim: "AODV's largest routing table does not grow with the network",
            holds: |g| flat(&g.col(0, 3)[..3]),
        },
        Shape {
            claim: "under OLSR some node holds a route to every other node and a binding for \
                    every user, at every size",
            holds: |g| {
                let [nodes, users, routes, slp] = [1, 2, 3, 4].map(|c| g.col(0, c));
                (3..6).all(|r| routes[r] == nodes[r] - 1.0 && slp[r] == users[r])
            },
        },
        Shape {
            claim: "at every size OLSR holds more state per node than AODV",
            holds: |g| (0..3).all(|r| g.col(0, 5)[r] < g.col(0, 5)[r + 3]),
        },
    ],
};
