//! E8 — Scalability with network size (the paper's stated future work:
//! "as a next step, we plan to explore the scalability of the system as
//! the number of nodes grows").
//!
//! Constant-density random topologies from 10 to 50 nodes; a quarter of
//! the nodes run users and half of those place staggered calls while the
//! whole network idles otherwise. Reported per size: call success within
//! 10 s, mean setup time, control payload bytes/node/s, and SLP lookup
//! outcome mix.
//!
//! Expected shape: success holds and setup time grows mildly with the
//! larger diameters; per-node control overhead stays near-flat — the
//! system's costs are per-neighborhood (hellos) and per-call (floods),
//! not per-network. Run with `--release`.

use siphoc_bench::measure::call_measurement;
use siphoc_bench::record::arg;
use siphoc_bench::topology::bench_ua;
use siphoc_core::nodesetup::{deploy, NodeSpec, SiphocNode};
use siphoc_simnet::prelude::*;
use siphoc_sip::uri::Aor;

const SEEDS: [u64; 3] = [8881, 8882, 8883];
/// Node density: one node per (85 m)² keeps the topology connected w.h.p.
const CELL: f64 = 85.0;
const SETUP_DEADLINE: SimDuration = SimDuration::from_secs(10);

struct Outcome {
    attempted: usize,
    ok: usize,
    setup_ms: Vec<f64>,
    ctrl_bytes_per_node_s: f64,
    lookup_hits: u64,
    lookup_misses: u64,
}

fn run_one(seed: u64, n: usize) -> Outcome {
    let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
    // Constant-density square area.
    let side = (n as f64).sqrt() * CELL;
    let mut rng = SimRng::from_seed_and_stream(seed, 4242);
    let users = n / 4;
    let mut nodes: Vec<SiphocNode> = Vec::new();
    for i in 0..n {
        // Jittered grid placement: connected but irregular.
        let cols = (n as f64).sqrt().ceil() as usize;
        let gx = (i % cols) as f64 * CELL + rng.range_f64(-20.0, 20.0);
        let gy = (i / cols) as f64 * CELL + rng.range_f64(-20.0, 20.0);
        let mut spec =
            NodeSpec::relay(gx.clamp(0.0, side), gy.clamp(0.0, side)).without_connection_provider();
        if i < users {
            let mut ua = bench_ua(&format!("u{i}"));
            if i % 2 == 0 && i + 1 < users {
                ua = ua.call_at(
                    SimTime::from_secs(20 + (i as u64) * 5),
                    Aor::new(&format!("u{}", i + 1), "voicehoc.ch"),
                    SimDuration::from_secs(10),
                );
            }
            spec = spec.with_user(ua);
        }
        nodes.push(deploy(&mut w, spec));
    }
    let run_secs = 120u64;
    w.run_for(SimDuration::from_secs(run_secs));

    let mut attempted = 0;
    let mut ok = 0;
    let mut setup_ms = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        if i < users && i % 2 == 0 && i + 1 < users {
            attempted += 1;
            let m = call_measurement(node, 0);
            if let Some(s) = m.setup {
                if s <= SETUP_DEADLINE {
                    ok += 1;
                    setup_ms.push(s.as_millis_f64());
                }
            }
        }
    }
    let ctrl =
        siphoc_bench::measure::control_bytes_per_node_second(&w, SimDuration::from_secs(run_secs));
    let total = w.total_stats();
    let hits = total.get("slp.lookup_hit").packets;
    let misses = total.get("slp.lookup_miss").packets;
    Outcome {
        attempted,
        ok,
        setup_ms,
        ctrl_bytes_per_node_s: ctrl,
        lookup_hits: hits,
        lookup_misses: misses,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs: usize = arg(&args, "--jobs").unwrap_or(1);
    println!(
        "E8: scalability with network size ({} seeds per point)\n",
        SEEDS.len()
    );
    println!(
        "{:>6} {:>9} {:>11} {:>11} {:>13} {:>11}",
        "nodes", "calls", "success(%)", "setup(ms)", "ctrl B/node/s", "hit:miss"
    );
    // Every (size, seed) run is an isolated world: fan the whole sweep
    // out over a worker pool under --jobs, then aggregate in input order.
    const SIZES: [usize; 5] = [10, 20, 30, 40, 50];
    let cases: Vec<(usize, u64)> = SIZES
        .iter()
        .flat_map(|&n| SEEDS.iter().map(move |&s| (n, s)))
        .collect();
    let mut results = siphoc_bench::parallel::run_indexed(jobs, cases.len(), |i| {
        let (n, seed) = cases[i];
        run_one(seed, n)
    })
    .into_iter();
    for n in SIZES {
        let mut attempted = 0;
        let mut ok = 0;
        let mut setup = Vec::new();
        let mut ctrl = Vec::new();
        let mut hits = 0;
        let mut misses = 0;
        for _seed in SEEDS {
            let o = results.next().expect("one result per case");
            attempted += o.attempted;
            ok += o.ok;
            setup.extend(o.setup_ms);
            ctrl.push(o.ctrl_bytes_per_node_s);
            hits += o.lookup_hits;
            misses += o.lookup_misses;
        }
        println!(
            "{n:>6} {attempted:>9} {:>11.0} {:>11.1} {:>13.1} {:>8}:{}",
            100.0 * ok as f64 / attempted.max(1) as f64,
            siphoc_bench::mean(&setup).unwrap_or(f64::NAN),
            siphoc_bench::mean(&ctrl).unwrap_or(f64::NAN),
            hits,
            misses
        );
    }
    println!("\nshape check: success holds, setup grows mildly with diameter,");
    println!("per-node control overhead stays near-flat as the network grows.");
}
