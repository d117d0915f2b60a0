//! Recording and gating of `exp_call_load`'s document
//! (`results/BENCH_sip.json`): the provenance block it opens with, the
//! process-wide peak RSS, and the `--check <baseline>` gate on what is
//! deterministic. Wall time is gated in one place only, `benchmark/`.
//!
//! Documents are written and read with plain string formatting — the
//! bench binaries carry no JSON dependency.

/// The value following `flag` on the command line, parsed.
pub fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)?.parse().ok()
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

/// CPU model string (Linux `/proc/cpuinfo` `model name`; "unknown"
/// elsewhere).
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
/// model, sweep concurrency, whether observability was compiled in,
/// toolchain and source revision. Wall-clock numbers are only comparable
/// across runs with matching provenance.
pub fn render_provenance(jobs: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
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
    let obs = siphoc_simnet::obs_enabled();
    format!(
        "  \"provenance\": {{\"cores\": {cores}, \"cpu\": \"{cpu}\", \"jobs\": {jobs}, \
         \"obs\": {obs}, \"rustc\": \"{rustc}\", \"git_rev\": \"{rev}\"}},\n"
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
/// changed and the baseline is stale — and every measured row must be in
/// the baseline. Wall time is reported beside the recorded one for
/// information and never fails the check. Returns the report lines, or
/// the failures.
pub fn check_against_baseline(
    samples: &[Measured<'_>],
    path: &str,
) -> Result<Vec<String>, Vec<String>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Err(vec![format!("cannot read baseline {path}: {e}")]),
    };
    let baseline = parse_baseline(&text);
    let mut failures = Vec::new();
    let mut report = Vec::new();
    for s in samples {
        match baseline.iter().find(|(name, _, _)| name == s.name) {
            None => failures.push(format!(
                "{}: not in baseline {path}; regenerate it (rerun with --out {path})",
                s.name
            )),
            Some((_, _, base_events)) if s.events != *base_events => failures.push(format!(
                "{}: {} events vs {} in the baseline — the deterministic workload changed",
                s.name, s.events, base_events
            )),
            Some((_, base_wall, _)) => report.push(format!(
                "{}: {} events — ok ({:.1} ms here, {:.1} ms recorded; informational)",
                s.name, s.events, s.wall_ms, base_wall
            )),
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
            println!("\nevent-count check vs {base_path}:");
            for line in report {
                println!("  {line}");
            }
        }
        Err(failures) => {
            eprintln!("\nevent-count check vs {base_path} FAILED:");
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
    }

    #[test]
    fn event_drift_and_missing_rows_fail_and_wall_time_only_informs() {
        let path = std::env::temp_dir().join(format!("bench_record_{}.json", std::process::id()));
        std::fs::write(&path, DOC).unwrap();
        let path_str = path.to_str().unwrap();
        let row = |name, wall_ms, events| Measured {
            name,
            wall_ms,
            events,
        };
        // 100× slower than recorded: reported, not gated.
        let report = check_against_baseline(&[row("a_1", 1000.0, 42)], path_str).unwrap();
        assert!(
            report[0].contains("1000.0 ms here, 10.0 ms recorded; informational"),
            "{report:?}"
        );
        let failures = check_against_baseline(&[row("b_2", 1.0, 8)], path_str).unwrap_err();
        assert!(failures[0].contains("8 events vs 7"), "{failures:?}");
        let failures = check_against_baseline(&[row("c_3", 1.0, 1)], path_str).unwrap_err();
        assert!(failures[0].contains("not in baseline"), "{failures:?}");
        let _ = std::fs::remove_file(&path);
    }
}
