//! Recording and gating of the wall-clock benchmark documents
//! (`results/BENCH_*.json`): the provenance block every document opens
//! with, the process-wide peak RSS, and the `--check <baseline>`
//! regression gate shared by `exp_bench_core` and `exp_call_load`.
//!
//! Documents are written and read with plain string formatting — the
//! bench binaries carry no JSON dependency.

/// The value following `flag` on the command line, parsed.
pub fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)?.parse().ok()
}

/// Published numbers must measure the bare hot path: exits with status 2
/// if this binary was built with observability compiled in (e.g. by a
/// whole-workspace build that unified the `obs` feature into simnet),
/// unless `--allow-obs` asks to measure an instrumented build.
pub fn refuse_obs_build(bin: &str, args: &[String]) {
    if siphoc_simnet::obs_enabled() && !args.iter().any(|a| a == "--allow-obs") {
        eprintln!(
            "{bin}: built with the `obs` feature enabled; numbers would not measure the bare \
             hot path. Build with `cargo build --release -p siphoc-bench` or pass --allow-obs \
             to measure an instrumented build."
        );
        std::process::exit(2);
    }
}

/// Index of the fastest of `walls_ms` (identical seeds mean identical
/// event counts; only wall time varies, and the minimum is the standard
/// noise-robust estimator).
pub fn fastest(walls_ms: &[f64]) -> usize {
    walls_ms
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("at least one repetition")
}

/// Peak resident set size of this process in kB (Linux `VmHWM`; 0 where
/// unavailable). Monotonic over the process lifetime, so it describes the
/// whole run, never one scenario: documents record it once, as
/// `process_rss_peak_kb`.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
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

/// The `"provenance"` line of a document: hardware parallelism, CPU
/// model, sweep concurrency, toolchain and source revision. Wall-clock
/// numbers are only comparable across runs with matching provenance.
pub fn render_provenance(jobs: usize) -> String {
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
/// this module writes (none contain escapes).
fn json_str<'a>(chunk: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let i = chunk.find(&pat)? + pat.len();
    chunk[i..].split('"').next()
}

/// `(name, wall_ms, events)` per scenario row of a recorded document.
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

/// What `--check` compares of one measured scenario.
#[derive(Debug, Clone, Copy)]
pub struct Measured<'a> {
    /// Scenario name, as written to the document.
    pub name: &'a str,
    /// Fastest repetition's wall clock, ms.
    pub wall_ms: f64,
    /// Events the simulator dispatched.
    pub events: u64,
}

/// Compares this run against a checked-in baseline. Event counts are
/// deterministic and must match *exactly* — a mismatch means the workload
/// changed and the baseline is stale, which would make the wall-time
/// comparison meaningless. Wall time may regress by at most 20% — but
/// only when the baseline's `provenance` says it was recorded on this
/// machine class (same core count and CPU model). Wall-clock numbers
/// recorded elsewhere are not commensurable, so a cross-machine check
/// reports overruns as warnings instead of failing: the honest gate is
/// "event counts always, wall time only against your own hardware".
/// Returns the report lines, or the failures.
pub fn check_against_baseline(
    samples: &[Measured<'_>],
    path: &str,
) -> Result<Vec<String>, Vec<String>> {
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
        let Some((_, base_wall, base_events)) = baseline.iter().find(|(name, _, _)| name == s.name)
        else {
            failures.push(format!(
                "{}: not in baseline {path}; regenerate it (rerun with --out {path})",
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

/// The `--check` step of a bench binary's `main`: prints the report, or
/// prints the failures and exits non-zero.
pub fn check_or_exit(samples: &[Measured<'_>], base_path: &str) {
    match check_against_baseline(samples, base_path) {
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

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str =
        "{\n  \"bench\": \"x\",\n  \"provenance\": {\"cores\": 1, \"cpu\": \"abacus\", \
        \"jobs\": 1},\n  \"scenarios\": [\n    {\"name\": \"a_1\", \"wall_ms\": 10.0, \
        \"wall_ms_runs\": [12.0, 10.0], \"events\": 42, \"events_per_sec\": 4200},\n    \
        {\"name\": \"b_2\", \"wall_ms\": 7.5, \"wall_ms_runs\": [7.5], \"events\": 7}\n  ]\n}\n";

    #[test]
    fn baseline_rows_parse_by_exact_key() {
        assert_eq!(
            parse_baseline(DOC),
            vec![("a_1".to_owned(), 10.0, 42), ("b_2".to_owned(), 7.5, 7)]
        );
        assert_eq!(json_str(DOC, "cpu"), Some("abacus"));
    }

    #[test]
    fn event_drift_fails_and_cross_machine_overruns_only_warn() {
        let path = std::env::temp_dir().join(format!("bench_record_{}.json", std::process::id()));
        std::fs::write(&path, DOC).unwrap();
        let path_str = path.to_str().unwrap();
        let row = |name, wall_ms, events| Measured {
            name,
            wall_ms,
            events,
        };
        // No machine has CPU model "abacus": 100× slower is only a warning.
        let report = check_against_baseline(&[row("a_1", 1000.0, 42)], path_str).unwrap();
        assert!(report.iter().any(|l| l.starts_with("WARN")), "{report:?}");
        let failures = check_against_baseline(&[row("b_2", 1.0, 8)], path_str).unwrap_err();
        assert!(failures[0].contains("8 events vs 7"), "{failures:?}");
        let failures = check_against_baseline(&[row("c_3", 1.0, 1)], path_str).unwrap_err();
        assert!(failures[0].contains("not in baseline"), "{failures:?}");
        let _ = std::fs::remove_file(&path);
    }
}
