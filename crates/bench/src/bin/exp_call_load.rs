//! `exp_call_load` — SIP control-plane capacity benchmark (E11).
//!
//! Drives the scriptable call-load generator in `bench::load` against the
//! signaling hot path: N registered UAs on one hub node place M calls/s
//! through the local SIPHoc proxy/registrar, all over loopback, so the
//! wall-clock cost is almost pure SIP parse/render, transaction
//! bookkeeping and registrar lookups. Scenario families:
//!
//! * `steady_uN_rM[_poisson]` — M calls/s for a fixed window, uniform or
//!   Poisson arrivals. The rate ladder locates the saturation knee.
//! * `regstorm_uN` — the partition-heal shape: every UA re-REGISTERs in
//!   synchronized waves (short expiry keeps the population in phase).
//! * `byestorm_uN` / `reinvitestorm_uN` — the gateway-handoff shape: all
//!   established dialogs BYE or re-INVITE at the same instant.
//!
//! Reported per scenario: wall ms, events, offered/established calls,
//! sustained calls/s (established per *wall* second), real-time factor
//! (sim seconds per wall second) and p50/p95/p99 call setup delay (sim
//! time, from caller-side UA logs — no obs needed). The *knee* is the
//! offered rate where the real-time factor crosses 1.0 — beyond it the
//! stack can no longer keep up with its offered signaling load in real
//! time — interpolated between the two ladder rungs that straddle it.
//!
//! Output: aligned table on stdout plus `results/BENCH_sip.json`, opened
//! by a provenance block (machine, toolchain, revision, obs on or off).
//! `--check <baseline>` enforces what is deterministic — every rung in
//! the baseline, exact event counts — and prints wall time beside the
//! recorded one for information; wall time is gated by `benchmark/`
//! (`--workload sip_hub`) only. Run with `--release`.

use std::fmt::Write as _;

use siphoc_bench::load::{run_load, Arrival, LoadReport, LoadScenario, LoadSpec};
use siphoc_bench::percentile;
use siphoc_bench::record::{arg, check_or_exit, fastest, peak_rss_kb, render_provenance, Measured};
use siphoc_simnet::prelude::*;

const LOAD_SEED: u64 = 61_001;
/// Registered UAs in every scenario (even; callers pair across the ring).
const USERS: usize = 96;

/// One measured scenario: the fastest repetition plus every rep's wall.
struct Sample {
    report: LoadReport,
    wall_ms_runs: Vec<f64>,
}

/// p50/p95/p99 of the caller-observed setup delay, in milliseconds.
fn setup_percentiles(report: &LoadReport) -> (f64, f64, f64) {
    let ms: Vec<f64> = report
        .setup_us
        .iter()
        .map(|&us| us as f64 / 1000.0)
        .collect();
    (
        percentile(&ms, 50.0).unwrap_or(f64::NAN),
        percentile(&ms, 95.0).unwrap_or(f64::NAN),
        percentile(&ms, 99.0).unwrap_or(f64::NAN),
    )
}

/// Runs a spec `reps` times and keeps the fastest repetition (identical
/// seeds mean identical event counts; only wall time varies).
fn best_of(reps: usize, spec: &LoadSpec) -> Sample {
    let mut runs: Vec<LoadReport> = (0..reps.max(1)).map(|_| run_load(spec)).collect();
    let wall_ms_runs: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
    Sample {
        report: runs.swap_remove(fastest(&wall_ms_runs)),
        wall_ms_runs,
    }
}

/// Saturation knee of the steady-rate ladder: the offered calls/s where
/// the real-time factor crosses 1.0. Within each rung `wall/sim` grows
/// close to linearly with offered rate, so the crossing is interpolated
/// between the two rungs that straddle it. Returns `None` while every
/// rung still runs faster than real time (knee above the ladder).
fn find_knee(ladder: &[&LoadReport]) -> Option<f64> {
    for pair in ladder.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        // u = wall/sim = 1/rtf; saturation is u >= 1.
        let ua = (a.wall_ms / 1000.0) / a.sim_secs;
        let ub = (b.wall_ms / 1000.0) / b.sim_secs;
        if ua < 1.0 && ub >= 1.0 {
            let t = (1.0 - ua) / (ub - ua);
            return Some(a.rate_cps + t * (b.rate_cps - a.rate_cps));
        }
    }
    None
}

fn render_json(samples: &[Sample], jobs: usize, knee: Option<f64>, peak_cps: f64) -> String {
    let mut out = String::from("{\n  \"bench\": \"exp_call_load\",\n");
    out.push_str(&render_provenance(jobs));
    let _ = write!(
        out,
        "  \"process_rss_peak_kb\": {},\n  \"knee_cps\": {},\n  \
         \"peak_sustained_cps\": {peak_cps:.0},\n",
        peak_rss_kb(),
        knee.map(|k| format!("{k:.0}"))
            .unwrap_or_else(|| "null".to_owned())
    );
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let r = &s.report;
        let (p50, p95, p99) = setup_percentiles(r);
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"users\": {}, \"rate_cps\": {:.0}, \"arrival\": \"{}\", \
             \"sim_secs\": {:.1}, \"wall_ms\": {:.1}, \"wall_ms_runs\": [{}], \"events\": {}, \
             \"offered\": {}, \"established\": {}, \"failed\": {}, \"terminated\": {}, \
             \"registers\": {}, \"reinvites_ok\": {}, \"sustained_cps\": {:.0}, \"rtf\": {:.2}, \
             \"setup_p50_ms\": {:.2}, \"setup_p95_ms\": {:.2}, \"setup_p99_ms\": {:.2}}}",
            r.name,
            r.users,
            r.rate_cps,
            r.arrival,
            r.sim_secs,
            r.wall_ms,
            s.wall_ms_runs
                .iter()
                .map(|w| format!("{w:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
            r.events,
            r.offered,
            r.established,
            r.failed,
            r.terminated,
            r.registers,
            r.reinvites_ok,
            r.wall_cps(),
            r.rtf(),
            p50,
            p95,
            p99
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps: usize = arg(&args, "--reps").unwrap_or(if smoke { 1 } else { 3 });
    // Smoke runs get their own default path so a CI canary never
    // clobbers the recorded full-sweep numbers.
    let out_path: String = arg(&args, "--out").unwrap_or_else(|| {
        let default = if smoke {
            "results/BENCH_sip_smoke.json"
        } else {
            "results/BENCH_sip.json"
        };
        default.to_owned()
    });
    let jobs: usize = arg(&args, "--jobs").unwrap_or(1);

    // The steady-rate ladder. Rungs above 400 calls/s run a shorter
    // window so a pre-optimization sweep stays in CI-friendly wall time;
    // the knee interpolation works on per-rung real-time factors, so the
    // window may differ across rungs. Smoke points are an exact subset of
    // the full sweep (same parameters → same deterministic event counts),
    // which lets CI `--smoke --check results/BENCH_sip.json`.
    let window = |rate: f64| -> SimDuration {
        if rate > 4000.0 {
            SimDuration::from_secs(2)
        } else if rate > 400.0 {
            SimDuration::from_secs(5)
        } else {
            SimDuration::from_secs(10)
        }
    };
    let steady = |rate: f64, arrival: Arrival| -> LoadSpec {
        LoadSpec {
            users: USERS,
            scenario: LoadScenario::Steady {
                rate_cps: rate,
                arrival,
                window: window(rate),
            },
            seed: LOAD_SEED,
        }
    };
    let storm = |scenario: LoadScenario| -> LoadSpec {
        LoadSpec {
            users: USERS,
            scenario,
            seed: LOAD_SEED,
        }
    };
    let reg_storm = storm(LoadScenario::RegStorm {
        sim: SimDuration::from_secs(8),
    });

    let mut specs: Vec<LoadSpec> = Vec::new();
    let ladder_rates: &[f64] = if smoke {
        &[50.0]
    } else {
        &[
            50.0, 200.0, 1000.0, 4000.0, 8000.0, 16000.0, 32000.0, 48000.0, 64000.0, 96000.0,
        ]
    };
    for &r in ladder_rates {
        specs.push(steady(r, Arrival::Uniform));
    }
    if !smoke {
        specs.push(steady(1000.0, Arrival::Poisson));
    }
    specs.push(reg_storm);
    if !smoke {
        specs.push(storm(LoadScenario::ByeStorm));
        specs.push(storm(LoadScenario::ReinviteStorm));
    }

    println!(
        "BENCH sip: signaling control-plane capacity{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<22} {:>6} {:>8} {:>10} {:>12} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9}",
        "scenario",
        "users",
        "rate",
        "wall(ms)",
        "events",
        "offered",
        "estab",
        "rtf",
        "cps(wall)",
        "p50(ms)",
        "p99(ms)"
    );
    let samples: Vec<Sample> =
        siphoc_bench::parallel::run_indexed(jobs, specs.len(), |i| best_of(reps, &specs[i]));
    for s in &samples {
        let r = &s.report;
        let (p50, _, p99) = setup_percentiles(r);
        println!(
            "{:<22} {:>6} {:>8.0} {:>10.1} {:>12} {:>9} {:>9} {:>7.2} {:>9.0} {:>9.2} {:>9.2}",
            r.name,
            r.users,
            r.rate_cps,
            r.wall_ms,
            r.events,
            r.offered,
            r.established,
            r.rtf(),
            r.wall_cps(),
            p50,
            p99
        );
    }

    // Every steady scenario must establish what it offered — loopback
    // signaling has no loss, so a shortfall is a stack bug, not load.
    for s in &samples {
        let r = &s.report;
        if r.rate_cps > 0.0 {
            assert_eq!(
                r.established, r.offered,
                "{}: {} of {} offered calls established — signaling stack dropped calls",
                r.name, r.established, r.offered
            );
        }
    }

    let ladder: Vec<&LoadReport> = samples
        .iter()
        .map(|s| &s.report)
        .filter(|r| r.rate_cps > 0.0 && r.arrival == "uniform")
        .collect();
    let knee = find_knee(&ladder);
    let peak_cps = ladder.iter().map(|r| r.wall_cps()).fold(0.0f64, f64::max);
    match knee {
        Some(k) => println!(
            "\nsaturation knee: ~{k:.0} offered calls/s (real-time factor crosses 1.0); \
             peak sustained {peak_cps:.0} calls/s"
        ),
        None => println!(
            "\nsaturation knee: above the ladder (every rung faster than real time); \
             peak sustained {peak_cps:.0} calls/s"
        ),
    }

    let json = render_json(&samples, jobs, knee, peak_cps);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("cannot write {out_path}: {e}"),
    }

    if let Some(base_path) = arg::<String>(&args, "--check") {
        let measured: Vec<Measured<'_>> = samples
            .iter()
            .map(|s| Measured {
                name: &s.report.name,
                wall_ms: s.report.wall_ms,
                events: s.report.events,
            })
            .collect();
        check_or_exit(&measured, &base_path);
    }
}
