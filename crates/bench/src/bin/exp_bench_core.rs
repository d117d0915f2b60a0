//! `exp_bench_core` — wall-clock benchmark of the simulator hot path.
//!
//! Unlike the `exp_*` experiments (which reproduce paper numbers inside
//! simulated time), this harness measures the *simulator itself*: how many
//! events per wall-clock second the core event loop sustains on fixed,
//! broadcast-heavy MANET workloads. Three scenario families, all seeds
//! fixed:
//!
//! * `bcast_N` — an N-node constant-density mesh where every node
//!   broadcasts a 64-byte beacon every 100 ms. Isolates the radio
//!   broadcast path (receiver discovery + loss sampling + delivery), the
//!   quadratic hot spot this harness exists to watch.
//! * `siphoc_N` — an N-node mesh running the full SIPHoc stack (AODV with
//!   SLP piggybacking) with staggered calls between user pairs. Measures
//!   the same hot path under realistic protocol traffic.
//! * `city_N` — the district/convoy/swarm city of `siphoc_bench::city`,
//!   beaconing on per-node timers; the full sweep runs it at 10 000 and
//!   100 000 nodes, where the working set no longer fits in cache.
//!
//! Output: an aligned text table on stdout plus `results/BENCH_core.json`
//! (written with plain string formatting — no JSON dependency) recording
//! per scenario: node count, simulated seconds, wall-clock ms, events
//! dispatched and events/sec, plus the process-wide peak RSS once per
//! document. Each scenario runs `--reps N`
//! times (default 3) and the table/JSON report the fastest repetition —
//! the minimum is the standard noise-robust wall-clock estimator; all
//! repetition times are kept in the JSON as `wall_ms_runs`. CI runs
//! `--smoke` (smallest mesh of each family only, one rep; failure means
//! panic, never a perf number).
//!
//! `--check <baseline.json>` compares this run against a previously
//! recorded file: event counts must match exactly (they are
//! deterministic; a mismatch means the baseline is stale) and wall time
//! may regress by at most 20%, else the process exits non-zero. The
//! wall-time gate only applies when the baseline's `provenance` block
//! matches this machine (core count and CPU model); cross-machine
//! checks report wall-time overruns as warnings, because wall-clock
//! numbers from different hardware are not commensurable. The binary
//! also refuses to run if it was built with the `obs` feature compiled
//! into the simulator (pass `--allow-obs` to deliberately measure an
//! instrumented build).
//!
//! Run with `--release`; debug numbers are meaningless.

use std::fmt::Write as _;
use std::time::Instant;

use siphoc_bench::city::{build_city, CityParams};
use siphoc_bench::record::{
    arg, check_or_exit, fastest, peak_rss_kb, refuse_obs_build, render_provenance, Measured,
};
use siphoc_bench::topology::bench_ua;
use siphoc_core::nodesetup::{deploy, NodeSpec};
use siphoc_simnet::prelude::*;
use siphoc_sip::uri::Aor;

const BCAST_SEED: u64 = 60_001;
const SIPHOC_SEED: u64 = 60_002;
const CITY_SEED: u64 = 60_003;
/// Node density: one node per (85 m)² keeps meshes connected w.h.p.
const CELL: f64 = 85.0;
const BEACON_PORT: u16 = 9900;
const BEACON_BYTES: usize = 64;
const BEACON_INTERVAL_MS: u64 = 100;

/// One measured scenario run.
struct Sample {
    name: String,
    nodes: usize,
    sim_secs: f64,
    /// Fastest repetition (see `wall_ms_runs` for every repetition).
    wall_ms: f64,
    wall_ms_runs: Vec<f64>,
    events: u64,
    radio_tx: u64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return f64::NAN;
        }
        self.events as f64 / (self.wall_ms / 1000.0)
    }
}

/// Discards every datagram; binding the beacon port makes deliveries take
/// the full dispatch path (port lookup + process call) instead of being
/// dropped at the node boundary.
struct NullSink;

impl Process for NullSink {
    fn name(&self) -> &'static str {
        "bench-sink"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(BEACON_PORT);
    }
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: &Datagram) {}
}

/// Jittered constant-density grid placement for node `i` of `n`.
fn mesh_position(i: usize, n: usize, rng: &mut SimRng) -> (f64, f64) {
    let side = (n as f64).sqrt() * CELL;
    let cols = (n as f64).sqrt().ceil() as usize;
    let x = (i % cols) as f64 * CELL + rng.range_f64(-20.0, 20.0);
    let y = (i / cols) as f64 * CELL + rng.range_f64(-20.0, 20.0);
    (x.clamp(0.0, side), y.clamp(0.0, side))
}

/// Pure broadcast-flood workload: every node beacons every 100 ms.
fn run_bcast(n: usize, sim_secs: u64) -> Sample {
    let mut w = World::new(WorldConfig::new(BCAST_SEED));
    let mut place_rng = SimRng::from_seed_and_stream(BCAST_SEED, 4242);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let (x, y) = mesh_position(i, n, &mut place_rng);
        let id = w.add_node(NodeConfig::manet(x, y));
        w.spawn(id, Box::new(NullSink));
        ids.push(id);
    }
    let started = Instant::now();
    let total_ms = sim_secs * 1000;
    let mut t_ms = 0u64;
    while t_ms < total_ms {
        w.run_until(SimTime::from_millis(t_ms));
        for &id in &ids {
            let src = SocketAddr::new(w.node(id).addr(), BEACON_PORT);
            let dst = SocketAddr::new(Addr::BROADCAST, BEACON_PORT);
            w.inject(id, Datagram::new(src, dst, vec![0xB5u8; BEACON_BYTES]));
        }
        t_ms += BEACON_INTERVAL_MS;
    }
    w.run_until(SimTime::from_millis(total_ms));
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    Sample {
        name: format!("bcast_{n}"),
        nodes: n,
        sim_secs: sim_secs as f64,
        wall_ms,
        wall_ms_runs: vec![wall_ms],
        events: w.events_processed(),
        radio_tx: w.total_stats().get("radio.tx").packets,
    }
}

/// Full-stack workload: AODV + MANET SLP piggybacking, staggered calls.
fn run_siphoc(n: usize, sim_secs: u64) -> Sample {
    let mut w = World::new(WorldConfig::new(SIPHOC_SEED));
    let mut place_rng = SimRng::from_seed_and_stream(SIPHOC_SEED, 4242);
    let users = (n / 10).max(4);
    for i in 0..n {
        let (x, y) = mesh_position(i, n, &mut place_rng);
        let mut spec = NodeSpec::relay(x, y).without_connection_provider();
        if i < users {
            let mut ua = bench_ua(&format!("u{i}"));
            if i % 2 == 0 && i + 1 < users {
                ua = ua.call_at(
                    SimTime::from_millis(5000 + (i as u64) * 500),
                    Aor::new(&format!("u{}", i + 1), "voicehoc.ch"),
                    SimDuration::from_secs(5),
                );
            }
            spec = spec.with_user(ua);
        }
        deploy(&mut w, spec);
    }
    let started = Instant::now();
    w.run_for(SimDuration::from_secs(sim_secs));
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    Sample {
        name: format!("siphoc_{n}"),
        nodes: n,
        sim_secs: sim_secs as f64,
        wall_ms,
        wall_ms_runs: vec![wall_ms],
        events: w.events_processed(),
        radio_tx: w.total_stats().get("radio.tx").packets,
    }
}

/// City-scale workload: districts on a coarse super-grid, mobile convoys
/// and a dense emergency swarm, all beaconing on their own timers so the
/// whole run is one `run_until` call.
fn run_city(n: usize, sim_secs: u64) -> Sample {
    let mut w = World::new(WorldConfig::new(CITY_SEED));
    build_city(&mut w, CityParams::with_nodes(n));
    let started = Instant::now();
    w.run_until(SimTime::from_secs(sim_secs));
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    Sample {
        name: format!("city_{n}"),
        nodes: n,
        sim_secs: sim_secs as f64,
        wall_ms,
        wall_ms_runs: vec![wall_ms],
        events: w.events_processed(),
        radio_tx: w.total_stats().get("radio.tx").packets,
    }
}

/// Runs a scenario `reps` times and keeps the fastest repetition
/// (identical seeds mean identical event counts; only wall time varies).
fn best_of(reps: usize, run: impl Fn() -> Sample) -> Sample {
    let mut runs: Vec<Sample> = (0..reps.max(1)).map(|_| run()).collect();
    let wall_ms_runs: Vec<f64> = runs.iter().map(|s| s.wall_ms).collect();
    let mut best = runs.swap_remove(fastest(&wall_ms_runs));
    best.wall_ms_runs = wall_ms_runs;
    best
}

fn render_json(samples: &[Sample], jobs: usize) -> String {
    let mut out = String::from("{\n  \"bench\": \"exp_bench_core\",\n");
    out.push_str(&render_provenance(jobs));
    let _ = writeln!(out, "  \"process_rss_peak_kb\": {},", peak_rss_kb());
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"nodes\": {}, \"sim_secs\": {:.1}, \"wall_ms\": {:.1}, \
             \"wall_ms_runs\": [{}], \"events\": {}, \"events_per_sec\": {:.0}, \
             \"radio_tx\": {}}}",
            s.name,
            s.nodes,
            s.sim_secs,
            s.wall_ms,
            s.wall_ms_runs
                .iter()
                .map(|w| format!("{w:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
            s.events,
            s.events_per_sec(),
            s.radio_tx
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    refuse_obs_build("exp_bench_core", &args);
    let reps: usize = arg(&args, "--reps").unwrap_or(if smoke { 1 } else { 3 });
    // Smoke runs get their own default path so a CI canary never
    // clobbers the recorded full-sweep numbers.
    let out_path: String = arg(&args, "--out").unwrap_or_else(|| {
        let default = if smoke {
            "results/BENCH_core_smoke.json"
        } else {
            "results/BENCH_core.json"
        };
        default.to_owned()
    });

    let jobs: usize = arg(&args, "--jobs").unwrap_or(1);

    // (size, simulated seconds) — the 1000-node points run shorter so a
    // full sweep stays in CI-friendly wall time even pre-optimization.
    let bcast_points: &[(usize, u64)] = if smoke {
        &[(50, 5)]
    } else {
        &[(50, 30), (200, 20), (1000, 10)]
    };
    let siphoc_points: &[(usize, u64)] = if smoke {
        &[(50, 5)]
    } else {
        &[(50, 30), (200, 20), (1000, 10)]
    };
    let city_points: &[(usize, u64)] = if smoke {
        &[(500, 2)]
    } else {
        &[(10_000, 3), (100_000, 2)]
    };

    println!(
        "BENCH core: simulator hot-path throughput{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<12} {:>6} {:>9} {:>10} {:>12} {:>13} {:>10}",
        "scenario", "nodes", "sim(s)", "wall(ms)", "events", "events/sec", "radio.tx"
    );
    // One flat task list so `--jobs` can sweep scenarios concurrently
    // (results stay in declaration order). With --jobs 1 (the default,
    // and what scripts/bench.sh uses for recorded numbers) everything
    // runs inline.
    enum Point {
        Bcast(usize, u64),
        Siphoc(usize, u64),
        City(usize, u64),
    }
    let mut points: Vec<Point> = Vec::new();
    points.extend(bcast_points.iter().map(|&(n, s)| Point::Bcast(n, s)));
    points.extend(siphoc_points.iter().map(|&(n, s)| Point::Siphoc(n, s)));
    points.extend(city_points.iter().map(|&(n, s)| Point::City(n, s)));
    let samples: Vec<Sample> =
        siphoc_simnet::parallel::run_indexed(jobs, points.len(), |i| match points[i] {
            Point::Bcast(n, secs) => best_of(reps, || run_bcast(n, secs)),
            Point::Siphoc(n, secs) => best_of(reps, || run_siphoc(n, secs)),
            Point::City(n, secs) => best_of(reps, || run_city(n, secs)),
        });
    for s in &samples {
        println!(
            "{:<12} {:>6} {:>9.1} {:>10.1} {:>12} {:>13.0} {:>10}",
            s.name,
            s.nodes,
            s.sim_secs,
            s.wall_ms,
            s.events,
            s.events_per_sec(),
            s.radio_tx
        );
    }

    let json = render_json(&samples, jobs);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\ncannot write {out_path}: {e}"),
    }

    if let Some(base_path) = arg::<String>(&args, "--check") {
        let measured: Vec<Measured<'_>> = samples
            .iter()
            .map(|s| Measured {
                name: &s.name,
                wall_ms: s.wall_ms,
                events: s.events,
            })
            .collect();
        check_or_exit(&measured, &base_path);
    }
}
