//! E6 — Voice quality vs hop count and background load.
//!
//! One 30 s PCMU call over a chain of increasing length, on the typical
//! lossy radio; then the same 4-hop call with 0–4 competing ~2.8 Mb/s CBR
//! streams crossing the chain. Reported: effective loss, mean one-way
//! delay and E-model MOS at the caller.
//!
//! Link-layer retransmission hides the per-hop loss of the typical radio
//! at one call's load, so quality sits at the G.711 ceiling until the
//! channel itself is gone.

use siphoc_simnet::prelude::*;

use crate::grid::{rising, seed_mean, slope, within, Cell, Cell::Num, Column, Grid, Section};
use crate::worlds::{lossless, voice_call, VoiceScene};
use crate::{Shape, Table};

const SEEDS: [u64; 4] = [6601, 6602, 6603, 6604];
const SCENE: VoiceScene = VoiceScene {
    bystanders: &[(0, "alice")],
    caller: "carol",
    caller_y: 50.0,
    talk_secs: 30,
};

/// One section: a row per `(shown, hops, streams)` — the sweep value the
/// row is labelled with and the call it places.
fn section(
    caption: &'static str,
    sweep: &'static str,
    width: usize,
    calls: &[(usize, usize, usize)],
) -> Section {
    let mut s = Section::new(&[
        Column::num(sweep, width, 0),
        Column::num("loss(%)", 9, 2),
        Column::num("delay(ms)", 10, 2),
        Column::num("MOS", 7, 2),
    ]);
    s.caption = Some(caption);
    for &(shown, hops, streams) in calls {
        let radio = RadioConfig::default_80211b();
        let shown = Num(shown as f64);
        let run = |seed| voice_call(seed, radio, &SCENE, hops, streams);
        let (cells, _) = seed_mean(&SEEDS, run);
        s.rows.push(if cells[2].is_nan() {
            vec![shown, Cell::Rest("call setup failed (saturated)")]
        } else {
            [shown].into_iter().chain(cells.map(Num)).collect()
        });
    }
    s
}

fn run() -> Grid {
    let by_hops = section(
        "-- vs hop count (no background load) --",
        "hops",
        5,
        &[1, 2, 3, 4, 5, 6].map(|hops| (hops, hops, 0)),
    );
    let by_load = section(
        "-- 4-hop call vs background CBR streams (250 pps x 1400 B (~2.8 Mb/s) each) --",
        "streams",
        8,
        &[0, 1, 2, 3, 4].map(|streams| (streams, 4, streams)),
    );
    Grid {
        sections: vec![by_hops, by_load],
        ..Grid::default()
    }
}

pub const TABLE: Table = Table {
    id: "E6",
    title: "E6: voice quality, typical lossy radio (4 seeds per point)",
    run,
    shape: &[
        Shape {
            claim: "loss is 0 and MOS at the G.711 ceiling at every hop count 1–6",
            holds: |g| lossless(&g.col(0, 1), &g.col(0, 3)),
        },
        Shape {
            claim: "one-way delay strictly grows with hops, by 0.5–0.8 ms per hop",
            holds: |g| rising(&g.col(0, 2)) && within(&[slope(&g.col(0, 2))], 0.5, 0.8),
        },
        Shape {
            claim: "with 0–3 background streams loss stays 0 and MOS at the ceiling while delay \
                    strictly grows",
            holds: |g| lossless(&g.col(1, 1)[..4], &g.col(1, 3)[..4]) && rising(&g.col(1, 2)[..4]),
        },
        Shape {
            claim: "the fourth stream saturates the relays: no seed's call sets up",
            holds: |g| matches!(g.sections[1].rows[4][..], [_, Cell::Rest(_)]),
        },
    ],
};
