//! The full report (`benchmark --seed N`) and `--compare A.json B.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::child::checks_to_json;
use crate::json::Value;
use crate::measure::Check;
use crate::metrics::{valid_name, valid_unit, Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::runs::{EndToEndRun, PerLayerRun};
use crate::spans::{self, Span};
use crate::stats;
use crate::workloads;

/// Why each workload is in the benchmark; `BENCHMARK.json` carries the
/// same lines.
pub fn why(workload: &str) -> &'static str {
    match workload {
        "mesh_calls" => "400-node lossy AODV mesh with media: the one load where radio, routing, SLP lookups, proxy/UA and RTP all work at once",
        "sip_hub" => "96 UAs on one node at 2000 calls/s: SIP parse/render/txn/registrar do the work, radio/routing/SLP/media none",
        "city_beacon" => "100k-node beacon city: simnet alone (queue, grid, fan-out, loss) with a cache-hostile working set and no protocol stack",
        "roam_internet" => "all-mobile OLSR MANET behind 3 gateways calling the Internet both ways: proactive floods, SLP absorbs, tunnel, provider",
        _ => "",
    }
}

/// Where the numbers came from. Host times compare only between reports
/// whose provenance matches.
pub fn provenance() -> Value {
    let run = |cmd: &str, args: &[&str]| -> String {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Value::obj([
        (
            "available_parallelism",
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("cpu_model", Value::from(cpu)),
        ("rustc", Value::from(run("rustc", &["-V"]))),
        (
            "git_rev",
            Value::from(run("git", &["rev-parse", "--short", "HEAD"])),
        ),
        (
            "build_profile",
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "simnet_obs_enabled",
            Value::from(wireless_adhoc_voip::simnet::obs_enabled()),
        ),
    ])
}

fn quartile_fields(runs: &[f64]) -> Vec<(&'static str, Value)> {
    let mut out = vec![("n", Value::from(runs.len()))];
    if let Some(m) = stats::median(runs) {
        out.push(("median", Value::from(m)));
    }
    if let Some((q1, _, q3)) = stats::quartiles(runs) {
        out.push(("q1", Value::from(q1)));
        out.push(("q3", Value::from(q3)));
    }
    out
}

/// One workload's section of the report.
pub fn workload_json(name: &str, e2e: &EndToEndRun, layers: &PerLayerRun) -> Value {
    let end_to_end = END_TO_END.iter().map(|m| {
        let runs = &e2e.runs[m.name];
        let mut fields = vec![
            ("value", Value::from(e2e.values[m.name])),
            ("unit", Value::from(m.unit)),
            ("better", Value::from(m.better.as_str())),
            ("bound", Value::from(m.bound)),
            (
                "runs",
                Value::Arr(runs.iter().map(|x| Value::from(*x)).collect()),
            ),
        ];
        fields.extend(quartile_fields(runs));
        (m.name, Value::obj(fields))
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        (
            m.name,
            Value::obj([
                ("value", Value::from(layers.values[m.name])),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.as_str())),
            ]),
        )
    });
    let checks: Vec<Check> = e2e.checks.iter().chain(&layers.checks).cloned().collect();
    let sim = |k: &str| e2e.reps[0].sim(k).map_or(Value::Null, Value::from);
    Value::obj([
        ("why", Value::from(why(name))),
        ("end_to_end", Value::obj(end_to_end)),
        ("per_layer", Value::obj(per_layer)),
        ("attempted", Value::from(e2e.attempted)),
        ("failed", Value::from(e2e.failed)),
        ("correct", Value::from(checks.iter().all(|c| c.ok))),
        ("checks", checks_to_json(&checks)),
        (
            "samples",
            Value::obj([
                ("calls_offered", sim("offered")),
                ("calls_established", sim("established")),
                ("calls_failed", sim("failed")),
                ("setup_delay_n", sim("setup_delay_n")),
                ("mos_n", sim("mos_n")),
                ("sim_digest", Value::from(e2e.reps[0].digest.as_str())),
            ]),
        ),
    ])
}

/// All spans of a report on one list: each child's spans keep their own
/// clock (seconds since that child started) and are re-parented under
/// indices of the merged list.
pub fn merge_spans(children: &[&[Span]]) -> Vec<Span> {
    let mut out = Vec::new();
    for spans in children {
        let base = out.len();
        out.extend(spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    out
}

pub fn report_json(
    seed: u64,
    reps: usize,
    seconds: f64,
    workloads: Vec<(String, Value)>,
    spans: &[Span],
) -> Value {
    Value::obj([
        ("benchmark", Value::from("wireless-adhoc-voip/benchmark")),
        ("seed", Value::from(seed)),
        ("reps", Value::from(reps)),
        ("seconds", Value::from(seconds)),
        ("provenance", provenance()),
        ("workloads", Value::obj(workloads)),
        ("spans", spans::to_json(spans)),
    ])
}

// ---------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------

/// `name value unit` lines for a map of metrics, in table order.
pub fn print_metrics<'a>(rows: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut out = String::new();
    for (name, value, unit) in rows {
        assert!(
            valid_name(name) && valid_unit(unit),
            "metric {name} [{unit}] breaks the naming rules"
        );
        assert!(value.is_finite(), "metric {name} is not finite");
        let _ = writeln!(out, "  {name:<36} {value:>18.6} {unit}");
    }
    out
}

pub fn print_checks(checks: &[Check]) -> String {
    let mut out = String::new();
    for c in checks {
        let _ = writeln!(
            out,
            "  check {:<34} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    out
}

// ---------------------------------------------------------------------
// Compare
// ---------------------------------------------------------------------

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// A's own runs spread wider than the bound, and B's runs do not all
    /// beat A's: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub runs: Vec<f64>,
}

/// Applies a metric's bound. `exact` holds a simulated metric of two
/// same-seed reports to equality in the worse direction (it is a pure
/// function of the seed). `setup_s` also gets an absolute allowance of
/// 0.05 s: a 25 % bound on a 30 ms set-up would be noise.
pub fn judge(m: &EndToEnd, a: &Reading, b: &Reading, exact: bool) -> Verdict {
    let better = |x: f64, y: f64| match m.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let worse_by = match m.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let bound = if exact { 0.0 } else { m.bound };
    let floor = if m.name == "setup_s" { 0.05 } else { 0.0 };
    let allowed = (bound * a.value.abs()).max(floor);
    if !exact && stats::iqr_share(&a.runs).is_some_and(|s| s > m.bound) {
        let clean_win = b.runs.iter().all(|y| a.runs.iter().all(|x| better(*y, *x)));
        return if clean_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn readings(report: &Value) -> Result<BTreeMap<(String, String), Reading>, String> {
    let workloads = report
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("report has no `workloads` object")?;
    let mut out = BTreeMap::new();
    for (w, section) in workloads {
        let metrics = section
            .get("end_to_end")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("workload {w} has no `end_to_end` object"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{w}/{name} has no numeric `value`"))?;
            let runs = m
                .get("runs")
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            out.insert((w.clone(), name.clone()), Reading { value, runs });
        }
    }
    Ok(out)
}

/// Compares two reports; returns the table and whether any row is worse.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let (ra, rb) = (readings(a)?, readings(b)?);
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<14} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut any_worse = false;
    for w in workloads::NAMES {
        for m in &END_TO_END {
            let key = (w.to_owned(), m.name.to_owned());
            let (Some(x), Some(y)) = (ra.get(&key), rb.get(&key)) else {
                return Err(format!("{w}/{} is missing from one of the reports", m.name));
            };
            let exact = m.simulated && same_seed;
            let verdict = judge(m, x, y, exact);
            any_worse |= verdict == Verdict::Worse;
            let change = if x.value != 0.0 {
                (y.value - x.value) / x.value.abs()
            } else {
                0.0
            };
            let bound = if exact {
                "exact".to_owned()
            } else {
                format!("{:.0}%", m.bound * 100.0)
            };
            let _ = writeln!(
                table,
                "{:<14} {:<26} {:>16.6} {:>16.6} {:>+8.2}% {:>7}  {}",
                w,
                m.name,
                x.value,
                y.value,
                change * 100.0,
                bound,
                verdict.as_str()
            );
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn reading(value: f64, runs: &[f64]) -> Reading {
        Reading {
            value,
            runs: runs.to_vec(),
        }
    }

    #[test]
    fn bounds_apply_in_the_worse_direction_only() {
        let wall = metric("run_wall_s");
        let a = reading(10.0, &[10.0, 10.1, 9.9]);
        let (inside, outside) = (
            10.0 * (1.0 + wall.bound) - 0.1,
            10.0 * (1.0 + wall.bound) + 0.1,
        );
        assert_eq!(
            judge(wall, &a, &reading(inside, &[inside; 3]), false),
            Verdict::Ok
        );
        assert_eq!(
            judge(wall, &a, &reading(outside, &[outside; 3]), false),
            Verdict::Worse
        );
        assert_eq!(
            judge(wall, &a, &reading(5.0, &[5.0; 3]), false),
            Verdict::Ok
        );
        let share = metric("calls_established_share");
        let a = reading(0.9, &[0.9; 3]);
        assert_eq!(
            judge(share, &a, &reading(0.95, &[0.95; 3]), false),
            Verdict::Ok
        );
        assert_eq!(
            judge(share, &a, &reading(0.7, &[0.7; 3]), false),
            Verdict::Worse
        );
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_unless_every_run_wins() {
        let wall = metric("run_wall_s");
        let noisy = reading(10.0, &[6.0, 10.0, 15.0, 8.0, 13.0]);
        assert!(stats::iqr_share(&noisy.runs).unwrap() > wall.bound);
        assert_eq!(
            judge(wall, &noisy, &reading(14.0, &[14.0; 3]), false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wall, &noisy, &reading(9.5, &[9.5; 3]), false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wall, &noisy, &reading(5.0, &[5.0, 5.5, 5.9]), false),
            Verdict::Ok
        );
    }

    #[test]
    fn simulated_metrics_of_one_seed_are_held_to_equality() {
        let p95 = metric("setup_delay_p95_ms");
        let a = reading(2480.0, &[2480.0; 3]);
        assert_eq!(
            judge(p95, &a, &reading(2480.0, &[2480.0; 3]), true),
            Verdict::Ok
        );
        assert_eq!(
            judge(p95, &a, &reading(2480.5, &[2480.5; 3]), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(p95, &a, &reading(2400.0, &[2400.0; 3]), true),
            Verdict::Ok
        );
        // Across seeds the listed bound applies instead.
        assert_eq!(
            judge(p95, &a, &reading(2500.0, &[2500.0; 3]), false),
            Verdict::Ok
        );
    }

    #[test]
    fn setup_gets_an_absolute_allowance() {
        let setup = metric("setup_s");
        let a = reading(0.030, &[0.030, 0.031, 0.029]);
        assert_eq!(
            judge(setup, &a, &reading(0.070, &[0.07; 3]), false),
            Verdict::Ok
        );
        assert_eq!(
            judge(setup, &a, &reading(0.090, &[0.09; 3]), false),
            Verdict::Worse
        );
        let big = reading(2.0, &[2.0, 2.02, 1.98]);
        assert_eq!(
            judge(setup, &big, &reading(2.4, &[2.4; 3]), false),
            Verdict::Ok
        );
        assert_eq!(
            judge(setup, &big, &reading(2.6, &[2.6; 3]), false),
            Verdict::Worse
        );
    }

    fn toy_report(seed: u64, wall: f64) -> Value {
        let section = |_: &str| {
            Value::obj([(
                "end_to_end",
                Value::obj(END_TO_END.iter().map(|m| {
                    let v = if m.name == "run_wall_s" { wall } else { 1.5 };
                    (
                        m.name,
                        Value::obj([
                            ("value", Value::from(v)),
                            ("runs", Value::Arr(vec![Value::from(v); 3])),
                        ]),
                    )
                })),
            )])
        };
        Value::obj([
            ("seed", Value::from(seed)),
            (
                "workloads",
                Value::obj(workloads::NAMES.iter().map(|w| (*w, section(w)))),
            ),
        ])
    }

    /// The writer's output is what `--compare` reads.
    #[test]
    fn compare_reads_what_the_writer_wrote() {
        let a = json::parse(&toy_report(1, 5.0).render_pretty()).unwrap();
        let same = json::parse(&toy_report(1, 5.2).render()).unwrap();
        let slow = json::parse(&toy_report(1, 7.0).render()).unwrap();
        let (table, worse) = compare(&a, &same).unwrap();
        assert!(!worse, "{table}");
        assert_eq!(table.lines().count(), 1 + 4 * END_TO_END.len());
        assert!(
            table.contains("exact"),
            "same seed holds simulated metrics to equality"
        );
        let (table, worse) = compare(&a, &slow).unwrap();
        assert!(worse && table.matches("worse").count() == 4, "{table}");
        assert!(compare(&a, &Value::obj::<&str>([])).is_err());
        let other_seed = toy_report(2, 5.0);
        assert!(!compare(&a, &other_seed).unwrap().0.contains("exact"));
    }

    #[test]
    fn merged_spans_keep_their_parents() {
        let span = |name: &str, parent| Span {
            name: name.to_owned(),
            start_s: 0.0,
            end_s: 1.0,
            parent,
            workload: "w".to_owned(),
        };
        let first = [span("workload", None), span("run", Some(0))];
        let second = [
            span("workload", None),
            span("run", Some(0)),
            span("collect", Some(0)),
        ];
        let merged = merge_spans(&[&first, &second]);
        let parents: Vec<Option<usize>> = merged.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2), Some(2)]);
    }
}
