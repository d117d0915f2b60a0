//! A2 — Radio-model ablation: does shared-channel contention change the
//! experiment shapes?
//!
//! `DESIGN.md` records the simplification that senders contend only
//! through their own transmit queues. This ablation re-runs E6's voice
//! call with carrier sensing enabled (nodes defer while any in-range node
//! transmits) and compares. Where the two models agree, the
//! simplification is harmless at paper-scale traffic; where they diverge
//! the contention model is the honest one.

use siphoc_simnet::prelude::*;

use crate::grid::{seed_mean, within, Cell::Num, Column, Grid, Section};
use crate::worlds::{lossless, voice_call, VoiceScene, SPACING};
use crate::{Shape, Table};

const SEEDS: [u64; 3] = [8811, 8812, 8813];
const SCENE: VoiceScene = VoiceScene {
    bystanders: &[],
    caller: "alice",
    caller_y: SPACING,
    talk_secs: 20,
};

fn run() -> Grid {
    let mut s = Section::new(&[
        Column::num("hops", 5, 0),
        Column::num("loss% (queue)", 14, 2),
        Column::num("MOS", 10, 2),
        Column::num("loss% (CSMA)", 14, 2),
        Column::num("MOS", 10, 2),
    ]);
    for hops in [1usize, 2, 4, 6] {
        let mut row = vec![Num(hops as f64)];
        for carrier_sense in [false, true] {
            let radio = RadioConfig {
                carrier_sense,
                ..RadioConfig::default_80211b()
            };
            let ([loss, _delay, mos], _) =
                seed_mean(&SEEDS, |seed| voice_call(seed, radio, &SCENE, hops, 0));
            row.extend([Num(loss), Num(mos)]);
        }
        s.rows.push(row);
    }
    Grid::of(s)
}

/// Rows are 1, 2, 4 and 6 hops; columns 1–2 the queue-only radio's loss
/// and MOS, 3–4 the carrier-sensing one's.
pub const TABLE: Table = Table {
    id: "A2",
    title: "A2: carrier-sense ablation, voice quality vs hops (3 seeds)",
    run,
    shape: &[
        Shape {
            claim: "the two radio models agree through 4 hops: no loss, MOS at the G.711 ceiling",
            holds: |g| {
                lossless(&g.col(0, 1)[..3], &g.col(0, 2)[..3])
                    && lossless(&g.col(0, 3)[..3], &g.col(0, 4)[..3])
            },
        },
        Shape {
            claim: "at 6 hops the queue-only default loses nothing; carrier sense loses 1–3 % \
                    and keeps MOS ≥ 4.0",
            holds: |g| {
                lossless(&g.col(0, 1)[3..], &g.col(0, 2)[3..])
                    && within(&g.col(0, 3)[3..], 1.0, 3.0)
                    && within(&g.col(0, 4)[3..], 4.0, 4.375)
            },
        },
    ],
};
