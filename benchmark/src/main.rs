//! End-to-end and per-layer benchmark of the SIPHoc reproduction.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! benchmark --seed N [--reps R] [--seconds S] [--out FILE]  every workload, full report
//! benchmark --compare A.json B.json                         apply the bounds to two reports
//! ```
//!
//! See `README.md` next to this package for what is measured and why.

mod child;
mod json;
mod measure;
mod metrics;
mod probes;
mod report;
mod runs;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use json::Value;
use metrics::{END_TO_END, PER_LAYER};

/// `run_seconds` of `BENCHMARK.json`: the host time one invocation
/// measures at scale 1 — [`runs::REPS`] repetitions of a window frozen
/// at about 5 s on the 2.1 GHz reference core. `--seconds` scales the
/// windows (offered calls, simulated span) in proportion.
pub const REFERENCE_SECONDS: u64 = 15;

/// Seed of the full report when none is given.
const DEFAULT_SEED: u64 = 20_070_901;

struct Args {
    flags: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Args {
    /// `--name value` pairs and bare words; `--child` and `--compare`
    /// take no value of their own.
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            bare: Vec::new(),
        };
        let mut argv = argv;
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some(name @ ("child" | "compare")) => {
                    args.flags.push((name.to_owned(), String::new()))
                }
                Some(name) => {
                    let value = argv
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.to_owned(), value));
                }
                None => args.bare.push(a),
            }
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn scale_of(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && (0.05..=600.0).contains(&seconds) {
        Ok(seconds / REFERENCE_SECONDS as f64)
    } else {
        Err(format!("--seconds {seconds} is outside 0.05..=600"))
    }
}

fn workload_arg(args: &Args) -> Result<String, String> {
    let name: String = args.get("workload")?.ok_or("--workload is required")?;
    if workloads::NAMES.contains(&name.as_str()) {
        Ok(name)
    } else {
        Err(format!(
            "unknown workload {name:?}; one of {:?}",
            workloads::NAMES
        ))
    }
}

/// `--child`: one run, one JSON line.
fn child_mode(args: &Args) -> Result<ExitCode, String> {
    args.only(&["child", "workload", "seed", "scale", "traced", "setup-only"])?;
    let workload = workload_arg(args)?;
    let seed = args.get("seed")?.ok_or("--seed is required")?;
    let scale: f64 = args.get("scale")?.ok_or("--scale is required")?;
    if args.has("setup-only") {
        let setup_s = child::run_setup_only(&workload, seed, scale).ok_or("unknown workload")?;
        println!(
            "{}",
            Value::obj([("setup_s", Value::from(setup_s))]).render()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let traced = args.get::<u8>("traced")?.unwrap_or(0) != 0;
    let result = child::run_child(&workload, seed, scale, traced).ok_or("unknown workload")?;
    println!("{}", result.to_json().render());
    Ok(ExitCode::SUCCESS)
}

/// The driver's contract: metrics by name with units, then one JSON
/// object with exactly `correct`, `attempted`, `failed`, `metrics`.
fn driver_mode(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let workload = workload_arg(args)?;
    let seed: u64 = args.get("seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.get("seconds")?.unwrap_or(REFERENCE_SECONDS as f64);
    let scale = scale_of(seconds)?;
    let trace = match args.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };

    println!(
        "# {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    println!("# {}", report::why(&workload));
    let (rows, checks, attempted, failed): (Vec<(&str, f64, &str)>, _, _, _) = if trace {
        let run = runs::per_layer(&workload, seed, scale, None)?;
        let rows = PER_LAYER
            .iter()
            .map(|m| (m.name, run.values[m.name], m.unit))
            .collect();
        (rows, run.checks, run.attempted, run.failed)
    } else {
        let run = runs::end_to_end(&workload, seed, scale, runs::REPS)?;
        let rows = END_TO_END
            .iter()
            .map(|m| (m.name, run.values[m.name], m.unit))
            .collect();
        (rows, run.checks, run.attempted, run.failed)
    };
    print!("{}", report::print_metrics(rows.iter().copied()));
    print!("{}", report::print_checks(&checks));
    let correct = checks.iter().all(|c| c.ok);
    let metrics = Value::obj(rows.iter().map(|(name, value, unit)| {
        (
            *name,
            Value::obj([("value", Value::from(*value)), ("unit", Value::from(*unit))]),
        )
    }));
    // Keys in the order the contract shows them.
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.render()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The one command: every workload, `reps` repetitions each, then one
/// traced pass each; prints every metric, verifies outputs, writes the
/// report.
fn suite_mode(args: &Args) -> Result<ExitCode, String> {
    args.only(&["seed", "reps", "seconds", "out"])?;
    let seed: u64 = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let reps: usize = args.get("reps")?.unwrap_or(runs::REPS);
    if reps < 3 {
        return Err("--reps must be at least 3".to_owned());
    }
    let seconds: f64 = args.get("seconds")?.unwrap_or(REFERENCE_SECONDS as f64);
    let scale = scale_of(seconds)?;
    let out: Option<String> = args.get("out")?;

    let mut sections = Vec::new();
    let mut child_spans = Vec::new();
    let mut all_correct = true;
    for workload in workloads::NAMES {
        println!("== {workload}: {}", report::why(workload));
        let e2e = runs::end_to_end(workload, seed, scale, reps)?;
        let rows = END_TO_END
            .iter()
            .map(|m| (m.name, e2e.values[m.name], m.unit));
        print!("{}", report::print_metrics(rows));
        let untraced = (e2e.reps[0].clone(), e2e.values["run_wall_s"]);
        let layers = runs::per_layer(workload, seed, scale, Some(untraced))?;
        let rows = PER_LAYER
            .iter()
            .map(|m| (m.name, layers.values[m.name], m.unit));
        print!("{}", report::print_metrics(rows));
        print!("{}", report::print_checks(&e2e.checks));
        print!("{}", report::print_checks(&layers.checks));
        all_correct &= e2e.correct() && layers.correct();
        child_spans.extend(
            e2e.reps
                .iter()
                .chain([&layers.traced])
                .map(|r| r.spans.clone()),
        );
        sections.push((
            workload.to_owned(),
            report::workload_json(workload, &e2e, &layers),
        ));
    }
    let child_spans: Vec<&[spans::Span]> = child_spans.iter().map(Vec::as_slice).collect();
    let spans = report::merge_spans(&child_spans);
    let report = report::report_json(seed, reps, seconds, sections, &spans);
    if let Some(path) = out {
        std::fs::write(&path, report.render_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("report written to {path}");
    }
    if all_correct {
        println!("all output checks passed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("OUTPUT CHECKS FAILED");
        Ok(ExitCode::FAILURE)
    }
}

fn compare_mode(args: &Args) -> Result<ExitCode, String> {
    args.only(&["compare"])?;
    let [a, b] = args.bare.as_slice() else {
        return Err("--compare takes two report files".to_owned());
    };
    let read = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, any_worse) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| {
        if args.has("child") {
            child_mode(&args)
        } else if args.has("compare") {
            compare_mode(&args)
        } else if args.has("workload") {
            driver_mode(&args)
        } else {
            suite_mode(&args)
        }
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
