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
//! dispatched, events/sec and peak RSS. Each scenario runs `--reps N`
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
    rss_peak_kb: u64,
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

/// Peak resident set size of this process in kB (Linux `VmHWM`; 0 where
/// unavailable). Monotonic over the process lifetime.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
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
        rss_peak_kb: peak_rss_kb(),
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
        rss_peak_kb: peak_rss_kb(),
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
        rss_peak_kb: peak_rss_kb(),
    }
}

/// Runs a scenario `reps` times and keeps the fastest repetition
/// (identical seeds mean identical event counts; only wall time varies).
fn best_of(reps: usize, run: impl Fn() -> Sample) -> Sample {
    let mut runs: Vec<Sample> = (0..reps.max(1)).map(|_| run()).collect();
    let wall_ms_runs: Vec<f64> = runs.iter().map(|s| s.wall_ms).collect();
    let best_idx = wall_ms_runs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("at least one repetition");
    let mut best = runs.swap_remove(best_idx);
    best.wall_ms_runs = wall_ms_runs;
    best
}

/// Hardware parallelism of the recording machine (0 where unknown).
fn current_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0)
}

/// CPU model string (Linux `/proc/cpuinfo` `model name`; "unknown"
/// elsewhere). Part of provenance so `--check` can tell whether a
/// baseline's wall-clock numbers were recorded on comparable hardware.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_owned())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Captures where the numbers came from: hardware parallelism, CPU
/// model, sweep concurrency, toolchain and source revision. Wall-clock
/// numbers are only comparable across runs with matching provenance.
fn render_provenance(jobs: usize) -> String {
    let cores = current_cores();
    let cpu = cpu_model();
    let cmd_line = |cmd: &str, args: &[&str]| -> String {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let rustc = cmd_line("rustc", &["-V"]);
    let rev = cmd_line("git", &["rev-parse", "--short", "HEAD"]);
    format!(
        "  \"provenance\": {{\"cores\": {cores}, \"cpu\": \"{cpu}\", \"jobs\": {jobs}, \
         \"rustc\": \"{rustc}\", \"git_rev\": \"{rev}\"}},\n"
    )
}

fn render_json(samples: &[Sample], jobs: usize) -> String {
    let mut out = String::from("{\n  \"bench\": \"exp_bench_core\",\n");
    out.push_str(&render_provenance(jobs));
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"nodes\": {}, \"sim_secs\": {:.1}, \"wall_ms\": {:.1}, \
             \"wall_ms_runs\": [{}], \"events\": {}, \"events_per_sec\": {:.0}, \
             \"radio_tx\": {}, \"rss_peak_kb\": {}}}",
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
            s.radio_tx,
            s.rss_peak_kb
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `"key": <number>` from a flat JSON object chunk. Keys are
/// matched with their trailing colon so `wall_ms` never matches
/// `wall_ms_runs` and `events` never matches `events_per_sec`.
fn json_num(chunk: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let i = chunk.find(&pat)? + pat.len();
    let rest = &chunk[i..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "value"` from a flat JSON object chunk. Values are
/// taken up to the next quote — good enough for the provenance strings
/// this harness writes (none contain escapes).
fn json_str<'a>(chunk: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let i = chunk.find(&pat)? + pat.len();
    let rest = &chunk[i..];
    rest.split('"').next()
}

/// Parses the scenario list out of a `render_json` document:
/// `(name, wall_ms, events)` per scenario. Hand-rolled for the same
/// reason `render_json` is: no JSON dependency in the bench binary.
fn parse_baseline(text: &str) -> Vec<(String, f64, u64)> {
    let mut out = Vec::new();
    for chunk in text.split("\"name\":").skip(1) {
        let Some(name) = chunk.split('"').nth(1) else {
            continue;
        };
        let Some(wall_ms) = json_num(chunk, "wall_ms") else {
            continue;
        };
        let Some(events) = json_num(chunk, "events") else {
            continue;
        };
        out.push((name.to_owned(), wall_ms, events as u64));
    }
    out
}

/// Allowed wall-clock slowdown vs the baseline before `--check` fails.
const CHECK_THRESHOLD: f64 = 1.20;

/// Absolute grace added on top of the relative threshold. Smoke scenarios
/// finish in single-digit milliseconds, where scheduler noise alone
/// exceeds 20%; the floor absorbs that while leaving the relative
/// threshold in charge of every workload large enough to measure.
const CHECK_NOISE_FLOOR_MS: f64 = 50.0;

/// Compares this run against a checked-in baseline. Event counts are
/// deterministic and must match *exactly* — a mismatch means the workload
/// changed and the baseline is stale, which would make the wall-time
/// comparison meaningless. Wall time may regress by at most 20% — but
/// only when the baseline's `provenance` says it was recorded on this
/// machine class (same core count and CPU model). Wall-clock numbers
/// recorded elsewhere are not commensurable, so a cross-machine check
/// reports overruns as warnings instead of failing: the honest gate is
/// "event counts always, wall time only against your own hardware".
fn check_against_baseline(samples: &[Sample], path: &str) -> Result<Vec<String>, Vec<String>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Err(vec![format!("cannot read baseline {path}: {e}")]),
    };
    let baseline = parse_baseline(&text);
    let base_cores = json_num(&text, "cores").map(|c| c as usize);
    let base_cpu = json_str(&text, "cpu");
    let same_machine =
        base_cores == Some(current_cores()) && base_cpu.is_none_or(|c| c == cpu_model());
    let mut failures = Vec::new();
    let mut report = Vec::new();
    if !same_machine {
        report.push(format!(
            "baseline provenance (cores: {}, cpu: {}) differs from this machine \
             (cores: {}, cpu: {}); wall-time overruns are WARNINGS, event counts still gate",
            base_cores.map_or("absent".to_owned(), |c| c.to_string()),
            base_cpu.unwrap_or("absent"),
            current_cores(),
            cpu_model()
        ));
    }
    for s in samples {
        let Some((_, base_wall, base_events)) =
            baseline.iter().find(|(name, _, _)| *name == s.name)
        else {
            failures.push(format!(
                "{}: not in baseline {path}; regenerate it (scripts/bench.sh --smoke --out {path})",
                s.name
            ));
            continue;
        };
        if s.events != *base_events {
            failures.push(format!(
                "{}: {} events vs {} in the baseline — the deterministic workload changed, \
                 regenerate the baseline before gating on wall time",
                s.name, s.events, base_events
            ));
            continue;
        }
        let limit = base_wall * CHECK_THRESHOLD + CHECK_NOISE_FLOOR_MS;
        let ratio = s.wall_ms / base_wall.max(f64::MIN_POSITIVE);
        if s.wall_ms > limit {
            let line = format!(
                "{}: {:.1} ms vs baseline {:.1} ms ({:+.0}%, limit {:.1} ms = +{:.0}% + {:.0} ms noise floor)",
                s.name,
                s.wall_ms,
                base_wall,
                (ratio - 1.0) * 100.0,
                limit,
                (CHECK_THRESHOLD - 1.0) * 100.0,
                CHECK_NOISE_FLOOR_MS
            );
            if same_machine {
                failures.push(line);
            } else {
                report.push(format!("WARN (cross-machine, not gating): {line}"));
            }
        } else {
            report.push(format!(
                "{}: {:.1} ms vs baseline {:.1} ms (limit {:.1} ms) — ok",
                s.name, s.wall_ms, base_wall, limit
            ));
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Published numbers must measure the bare hot path: refuse to run if
    // this binary was built with observability compiled in (e.g. via a
    // whole-workspace build that unified the `obs` feature into simnet).
    if siphoc_simnet::obs_enabled() && !args.iter().any(|a| a == "--allow-obs") {
        eprintln!(
            "exp_bench_core: built with the `obs` feature enabled; numbers would not measure \
             the bare hot path. Build with `cargo build --release -p siphoc-bench` \
             (scripts/bench.sh does) or pass --allow-obs to measure an instrumented build."
        );
        std::process::exit(2);
    }
    let reps: usize = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 3 });
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        // Smoke runs get their own default path so a CI canary never
        // clobbers the recorded full-sweep numbers.
        .unwrap_or_else(|| {
            if smoke {
                "results/BENCH_core_smoke.json".to_owned()
            } else {
                "results/BENCH_core.json".to_owned()
            }
        });

    let jobs: usize = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

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
        "{:<12} {:>6} {:>9} {:>10} {:>12} {:>13} {:>10} {:>12}",
        "scenario",
        "nodes",
        "sim(s)",
        "wall(ms)",
        "events",
        "events/sec",
        "radio.tx",
        "rss_peak_kb"
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
            "{:<12} {:>6} {:>9.1} {:>10.1} {:>12} {:>13.0} {:>10} {:>12}",
            s.name,
            s.nodes,
            s.sim_secs,
            s.wall_ms,
            s.events,
            s.events_per_sec(),
            s.radio_tx,
            s.rss_peak_kb
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

    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1).cloned());
    if let Some(base_path) = check_path {
        match check_against_baseline(&samples, &base_path) {
            Ok(report) => {
                println!("\nregression check vs {base_path}:");
                for line in report {
                    println!("  {line}");
                }
            }
            Err(failures) => {
                eprintln!("\nregression check vs {base_path} FAILED:");
                for line in failures {
                    eprintln!("  {line}");
                }
                std::process::exit(1);
            }
        }
    }
}
