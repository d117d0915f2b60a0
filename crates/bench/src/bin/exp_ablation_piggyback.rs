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
//! versus the pure-routing baseline, and lookup latency. Run with
//! `--release`.

use std::cell::RefCell;
use std::rc::Rc;

use siphoc_bench::location::{LookupProbe, LookupResult};
use siphoc_bench::measure::control_bytes_per_node_second;
use siphoc_bench::topology::SPACING;
use siphoc_core::baselines::ProactiveHello;
use siphoc_routing::aodv::AodvProcess;
use siphoc_simnet::node::NodeConfig;
use siphoc_simnet::prelude::*;
use siphoc_slp::manet::{shared_registry, Dissemination, ManetSlpHandler, ManetSlpProcess};

const SEED: u64 = 8801;
const SIDE: usize = 4;
const USERS: usize = 6;
const MEASURE_SECS: u64 = 120;

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Throttled,
    Unthrottled,
    Dedicated,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Throttled => "piggyback (8s throttle)",
            Variant::Unthrottled => "piggyback (unthrottled)",
            Variant::Dedicated => "dedicated messages",
        }
    }
}

fn build(world: &mut World, variant: Variant) -> Vec<NodeId> {
    let mut ids = Vec::new();
    for i in 0..SIDE * SIDE {
        let x = (i % SIDE) as f64 * SPACING;
        let y = (i / SIDE) as f64 * SPACING;
        let id = world.add_node(NodeConfig::manet(x, y));
        match variant {
            Variant::Throttled | Variant::Unthrottled => {
                let registry = shared_registry();
                let mut handler = ManetSlpHandler::new(registry.clone(), Dissemination::OnDemand);
                if variant == Variant::Unthrottled {
                    handler = handler.with_min_readvertise(SimDuration::ZERO);
                }
                let handler = Rc::new(RefCell::new(handler));
                world.spawn(id, Box::new(AodvProcess::new().with_handler(handler)));
                world.spawn(
                    id,
                    Box::new(ManetSlpProcess::new(Dissemination::OnDemand, registry)),
                );
            }
            Variant::Dedicated => {
                world.spawn(id, Box::new(AodvProcess::new()));
                let hello = ProactiveHello::new(SimDuration::from_secs(8));
                world.spawn(id, Box::new(hello));
            }
        }
        ids.push(id);
    }
    ids
}

fn dedicated_packets(world: &World) -> u64 {
    let total = world.total_stats();
    ["phello.", "slp_std.", "bcast_reg."]
        .iter()
        .map(|prefix| total.sum_prefix(prefix).packets)
        .sum()
}

fn run(variant: Variant) -> (f64, u64, Option<LookupResult>) {
    let mut w = World::new(WorldConfig::new(SEED).with_radio(RadioConfig::ideal()));
    let ids = build(&mut w, variant);
    for (u, id) in ids.iter().enumerate().take(USERS) {
        let contact = SocketAddr::new(w.node(*id).addr(), 5060);
        let (reg, _) = LookupProbe::new(Some((format!("user{u}@v.ch"), contact)), Vec::new());
        w.spawn(*id, Box::new(reg));
    }
    // One lookup from the far corner for the user on the near corner.
    let (probe, results) = LookupProbe::new(
        None,
        vec![(SimTime::from_secs(60), "user0@v.ch".to_owned())],
    );
    w.spawn(*ids.last().expect("nodes"), Box::new(probe));
    w.run_for(SimDuration::from_secs(MEASURE_SECS));
    let bytes = control_bytes_per_node_second(&w, SimDuration::from_secs(MEASURE_SECS));
    let extra_packets = dedicated_packets(&w);
    let lookup = results.borrow().first().copied();
    (bytes, extra_packets, lookup)
}

fn main() {
    println!("A1: piggybacking ablation ({SIDE}x{SIDE} grid, {USERS} users, {MEASURE_SECS}s)\n");
    println!(
        "{:<26} {:>14} {:>16} {:>12}",
        "variant", "ctrl B/node/s", "extra packets", "lookup(ms)"
    );
    for variant in [Variant::Throttled, Variant::Unthrottled, Variant::Dedicated] {
        let (bytes, extra, lookup) = run(variant);
        let lookup_ms = lookup
            .filter(|l| l.found)
            .map(|l| format!("{:.2}", l.latency().as_millis_f64()))
            .unwrap_or_else(|| "miss".to_owned());
        println!(
            "{:<26} {:>14.1} {:>16} {:>12}",
            variant.label(),
            bytes,
            extra,
            lookup_ms
        );
    }
    println!("\nshape check: throttled piggyback has the lowest byte cost and ZERO");
    println!("extra packets; dedicated messages pay whole packets for the same data.");
}
