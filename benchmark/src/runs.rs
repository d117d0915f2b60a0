//! The parent's side of a measurement: run the repetitions as child
//! processes, one after another, and reduce them to the reported numbers.

use std::collections::BTreeMap;

use crate::child::{self, ChildResult, PARENT_LAYERS};
use crate::measure::{check, Check};
use crate::metrics::{END_TO_END, NOT_APPLICABLE, PER_LAYER};
use crate::stats;

/// Repetitions behind every end-to-end number in driver mode.
pub const REPS: usize = 3;

/// A set-up shorter than this is sampled [`SHORT_SETUP_SAMPLES`] times
/// (in set-up-only child processes beyond the repetitions): the median of
/// three 30 ms readings moves by 20 % from one invocation to the next.
const SHORT_SETUP_S: f64 = 1.0;
const SHORT_SETUP_SAMPLES: usize = 9;

/// Host time of the measured window with interference filtered out:
/// slice `i` is the same simulated work in every repetition, so its cost
/// is taken from the repetition that ran it fastest, and the slices are
/// summed. That removes the spikes and slow seconds that hit one
/// repetition; the sandbox's minutes-long drift hits all three alike and
/// stays in (README, "The noise floor").
pub fn fastest_slices(reps: &[ChildResult]) -> f64 {
    let slices = reps.iter().map(|r| r.slice_wall_s.len()).min().unwrap_or(0);
    (0..slices)
        .map(|i| {
            reps.iter()
                .map(|r| r.slice_wall_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// End-to-end result of one workload and seed.
pub struct EndToEndRun {
    pub reps: Vec<ChildResult>,
    /// The reported value of every end-to-end metric.
    pub values: BTreeMap<&'static str, f64>,
    /// The per-repetition readings behind each value.
    pub runs: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

impl EndToEndRun {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// `(attempted, failed)`: calls offered (beacons sent, on the workload
/// without calls) and how many of them ended without a verified outcome.
/// A call the *simulated* network failed to complete is an outcome,
/// counted in `calls_established_share`; an operation fails here only
/// when the program lost track of it — which the `calls_conserved` check
/// also flags.
fn operations(r: &ChildResult) -> (u64, u64) {
    let get = |k: &str| r.sim(k).unwrap_or(0.0) as u64;
    let offered = get("offered");
    if offered == 0 {
        return (get("beacons_sent").max(1), 0);
    }
    let unplaced = offered.abs_diff(get("placed"));
    let unresolved = offered.saturating_sub(get("established") + get("failed"));
    (offered, unplaced + unresolved)
}

fn same_simulation(a: &ChildResult, b: &ChildResult) -> bool {
    a.digest == b.digest && a.sim == b.sim
}

pub fn end_to_end(
    workload: &str,
    seed: u64,
    scale: f64,
    reps: usize,
) -> Result<EndToEndRun, String> {
    let reps: Vec<ChildResult> = (0..reps.max(1))
        .map(|_| child::spawn(workload, seed, scale, false))
        .collect::<Result<_, _>>()?;
    let first = &reps[0];

    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    if stats::median(&setups).is_some_and(|m| m < SHORT_SETUP_S) {
        while setups.len() < SHORT_SETUP_SAMPLES {
            setups.push(child::spawn_setup_only(workload, seed, scale)?);
        }
    }

    let mut values = BTreeMap::new();
    let mut runs = BTreeMap::new();
    for m in &END_TO_END {
        let (value, readings) = match m.name {
            "setup_s" => (
                stats::median(&setups).expect("at least one repetition"),
                setups.clone(),
            ),
            "run_wall_s" => (
                fastest_slices(&reps),
                reps.iter().map(ChildResult::run_wall_s).collect(),
            ),
            "rss_peak_mb" => {
                let v: Vec<f64> = reps.iter().map(|r| r.rss_peak_mb).collect();
                (stats::median(&v).expect("at least one repetition"), v)
            }
            name => {
                let v = first.sim(name).unwrap_or(NOT_APPLICABLE);
                (v, vec![v; reps.len()])
            }
        };
        values.insert(m.name, value);
        runs.insert(m.name, readings);
    }

    let mut checks = first.checks.clone();
    checks.push(check(
        "repetitions_agree",
        reps.iter()
            .all(|r| same_simulation(first, r) && r.checks == first.checks),
        format!(
            "digests {:?}",
            reps.iter().map(|r| r.digest.as_str()).collect::<Vec<_>>()
        ),
    ));
    let zeros: Vec<&str> = values
        .iter()
        .filter(|(_, v)| **v == 0.0 || !v.is_finite())
        .map(|(k, _)| *k)
        .collect();
    checks.push(check(
        "metrics_are_finite_and_nonzero",
        zeros.is_empty(),
        format!("offending: {zeros:?}"),
    ));
    let (attempted, failed) = operations(first);
    Ok(EndToEndRun {
        reps,
        values,
        runs,
        attempted,
        failed,
        checks,
    })
}

/// Per-layer result of one workload and seed: one untraced and one
/// traced run of the same inputs.
pub struct PerLayerRun {
    pub traced: ChildResult,
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

impl PerLayerRun {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// The traced pass. `untraced` comes from an end-to-end run already made
/// for the same inputs, with that run's `run_wall_s`; without one, a
/// single untraced repetition is run first.
pub fn per_layer(
    workload: &str,
    seed: u64,
    scale: f64,
    untraced: Option<(ChildResult, f64)>,
) -> Result<PerLayerRun, String> {
    // The caller of a known untraced run already holds its checks; the
    // traced child's own are the same ones (asserted below).
    let (untraced, run_wall_s, mut checks) = match untraced {
        Some((r, wall)) => (r, wall, Vec::new()),
        None => {
            let r = child::spawn(workload, seed, scale, false)?;
            let (wall, checks) = (r.run_wall_s(), r.checks.clone());
            (r, wall, checks)
        }
    };
    let traced = child::spawn(workload, seed, scale, true)?;

    let events = untraced.sim("window_events").unwrap_or(0.0);
    let offered = untraced.sim("offered").unwrap_or(0.0);
    let sip_msgs = untraced.sim("sip_msgs").unwrap_or(0.0);
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let layer = |name: &str| traced.layers.get(name).copied().unwrap_or(0.0);
    let mut values = BTreeMap::new();
    for m in &PER_LAYER {
        let v = match m.name {
            "simnet.host_ns_per_event" => per(run_wall_s * 1e9, events),
            "sip.host_us_per_call" => per(run_wall_s * 1e6, offered),
            // Each SIP message on a wire was rendered once and parsed once.
            "sip.codec_share_est" => per(
                sip_msgs * (layer("sip.parse_ns_per_msg") + layer("sip.render_ns_per_msg")) * 1e-9,
                run_wall_s,
            ),
            name => {
                debug_assert!(!PARENT_LAYERS.contains(&name));
                layer(name)
            }
        };
        values.insert(m.name, v);
    }

    checks.push(check(
        "traced_run_reproduces_untraced",
        same_simulation(&untraced, &traced) && untraced.checks == traced.checks,
        format!("digests {} {}", untraced.digest, traced.digest),
    ));
    if workload == "sip_hub" {
        // The hub is where the SIP codec must weigh something; the other
        // halves of "each workload loads its own layers" are counter
        // checks the child already made.
        let share = values["sip.codec_share_est"];
        checks.push(check(
            "hub_time_goes_to_sip",
            share > 0.02,
            format!("sip.codec_share_est {share:.3}"),
        ));
    }
    let (attempted, failed) = operations(&untraced);
    Ok(PerLayerRun {
        traced,
        values,
        attempted,
        failed,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(slices: &[f64]) -> ChildResult {
        ChildResult {
            traced: false,
            setup_s: 0.0,
            slice_wall_s: slices.to_vec(),
            rss_peak_mb: 1.0,
            sim: BTreeMap::new(),
            digest: String::new(),
            layers: BTreeMap::new(),
            checks: Vec::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn fastest_slices_takes_each_slice_from_its_best_repetition() {
        let reps = [
            rep(&[1.0, 5.0, 1.0]),
            rep(&[4.0, 1.0, 1.5]),
            rep(&[2.0, 2.0, 0.5]),
        ];
        assert_eq!(fastest_slices(&reps), 1.0 + 1.0 + 0.5);
        assert_eq!(fastest_slices(&reps[..1]), 7.0);
        assert_eq!(fastest_slices(&[]), 0.0);
    }

    #[test]
    fn operations_count_only_lost_outcomes() {
        let mut r = rep(&[1.0]);
        r.sim = [
            ("offered", 10.0),
            ("placed", 10.0),
            ("established", 7.0),
            ("failed", 3.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        assert_eq!(operations(&r), (10, 0));
        r.sim.insert("failed".to_owned(), 2.0);
        assert_eq!(operations(&r), (10, 1));
        r.sim.insert("placed".to_owned(), 9.0);
        assert_eq!(operations(&r), (10, 2));
        let mut city = rep(&[1.0]);
        city.sim.insert("beacons_sent".to_owned(), 500.0);
        assert_eq!(operations(&city), (500, 0));
    }
}
