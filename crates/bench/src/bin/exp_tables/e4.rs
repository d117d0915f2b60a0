//! E4 — Call setup success rate vs mobility.
//!
//! 20 SIPHoc nodes move by random waypoint in a 350×250 m area; four of
//! them call four others at staggered times while everything moves.
//! Swept over maximum node speed (0 = static control). Reported: fraction
//! of attempted calls established within a 10 s deadline, and mean MOS of
//! sessions that carried any media.
//!
//! The static control (speed 0) is *not* an upper bound: uniformly
//! scattered static nodes keep whatever chronically lossy links the
//! placement drew, while mobile nodes average their link quality over
//! time — a known random-topology artifact worth seeing in the data.

use siphoc_core::nodesetup::{deploy, NodeSpec};
use siphoc_simnet::mobility::{Area, Mobility, WaypointParams};
use siphoc_simnet::prelude::*;

use crate::grid::{falling, within, Cell::Num, Column, Grid, Section};
use crate::worlds::{paired_ua, setups_within_deadline};
use crate::{Shape, Table};

const SEEDS: [u64; 4] = [4401, 4402, 4403, 4404];
const N: usize = 20;
const AREA_W: f64 = 350.0;
const AREA_H: f64 = 250.0;
const SPEEDS: [f64; 5] = [0.0, 1.5, 5.0, 10.0, 15.0];
/// Users on the first 8 nodes; even ones call odd ones.
const USERS: usize = 8;

/// `(attempted, established within the deadline, MOS of each session that
/// carried media)`.
fn run_one(seed: u64, speed: f64) -> (usize, usize, Vec<f64>) {
    let mut w = World::new(WorldConfig::new(seed)); // typical lossy radio
    let area = Area::new(AREA_W, AREA_H);
    let mut rng = SimRng::from_seed_and_stream(seed, 999);
    let mut nodes = Vec::new();
    for i in 0..N {
        let pos = area.sample(&mut rng);
        let mut spec = NodeSpec::relay(pos.0, pos.1).without_connection_provider();
        if speed > 0.0 {
            // Random waypoint from a start of the node's own stream, at
            // speed/3 … speed (never slower than 0.5 m/s) with 2 s pauses.
            let mut own = SimRng::from_seed_and_stream(seed, 50_000 + i as u64);
            let start = area.sample(&mut own);
            let pace =
                WaypointParams::new((speed / 3.0).max(0.5), speed, SimDuration::from_secs(2));
            let walk = Mobility::random_waypoint(start, pace, area, SimTime::ZERO, &mut own);
            spec = spec.with_mobility(walk);
        }
        if i < USERS {
            spec = spec.with_user(paired_ua(i, i % 2 == 0, 30 + i as u64 * 10, 20));
        }
        nodes.push(deploy(&mut w, spec));
    }
    w.run_for(SimDuration::from_secs(140));

    let callers: Vec<_> = nodes[..USERS].iter().step_by(2).collect();
    let mut mos = Vec::new();
    for node in &callers {
        let reports = node.media_reports.as_ref().expect("media").borrow();
        mos.extend(
            reports
                .iter()
                .filter(|r| r.received > 0)
                .map(|r| r.quality.mos),
        );
    }
    let established = setups_within_deadline(callers.iter().copied()).len();
    (callers.len(), established, mos)
}

fn run() -> Grid {
    let mut s = Section::new(&[
        Column::num("speed(m/s)", 11, 1),
        Column::num("attempts", 10, 0),
        Column::num("success(%)", 12, 0),
        Column::num("meanMOS", 10, 2),
    ]);
    for speed in SPEEDS {
        let mut att = 0;
        let mut est = 0;
        let mut mos = Vec::new();
        for seed in SEEDS {
            let (a, e, m) = run_one(seed, speed);
            att += a;
            est += e;
            mos.extend(m);
        }
        s.rows.push(vec![
            Num(speed),
            Num(att as f64),
            Num(100.0 * est as f64 / att.max(1) as f64),
            Num(siphoc_bench::mean(&mos).unwrap_or(f64::NAN)),
        ]);
    }
    Grid::of(s)
}

/// Row 0 is the static control: reported, not asserted.
pub const TABLE: Table = Table {
    id: "E4",
    title: "E4: call success under mobility (20 nodes, 4 seeds per speed)",
    run,
    shape: &[
        Shape {
            claim: "for speed > 0 every call sets up inside the 10 s deadline",
            holds: |g| within(&g.col(0, 2)[1..], 100.0, 100.0),
        },
        Shape {
            claim: "for speed > 0 mean MOS strictly falls with speed",
            holds: |g| falling(&g.col(0, 3)[1..]),
        },
    ],
};
