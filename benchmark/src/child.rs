//! Child-process isolation: every repetition of a workload runs in a
//! fresh process of this same binary, so each reports its own `VmHWM`
//! and its own cold set-up, and no run inherits another's heap.
//!
//! The child prints one JSON line on stdout; the parent parses it back.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{self, Value};
use crate::measure::{self, Check, Counters, Measured};
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::spans::{self, Recorder, Span};

/// What a child reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub traced: bool,
    pub setup_s: f64,
    pub slice_wall_s: Vec<f64>,
    pub rss_peak_mb: f64,
    /// Simulated statistics by name; identical across repetitions of a
    /// seed, traced or not. Absent where undefined (no calls, no media).
    pub sim: BTreeMap<String, f64>,
    pub digest: String,
    /// Per-layer metrics the child can compute alone (traced runs only).
    pub layers: BTreeMap<String, f64>,
    pub checks: Vec<Check>,
    pub spans: Vec<Span>,
}

impl ChildResult {
    pub fn run_wall_s(&self) -> f64 {
        self.slice_wall_s.iter().sum()
    }

    pub fn sim(&self, name: &str) -> Option<f64> {
        self.sim.get(name).copied()
    }
}

fn sim_map(m: &Measured) -> BTreeMap<String, f64> {
    let s = &m.sim;
    let mut out = BTreeMap::new();
    let mut put = |k: &str, v: Option<f64>| {
        if let Some(v) = v {
            out.insert(k.to_owned(), v);
        }
    };
    put("window_events", Some(s.window_events as f64));
    put("total_events", Some(s.total_events as f64));
    put("offered", Some(s.offered as f64));
    put("placed", Some(s.placed as f64));
    put("established", Some(s.established as f64));
    put("failed", Some(s.failed as f64));
    put("setup_delay_n", Some(s.setup_delays_ms.len() as f64));
    put("mos_n", Some(s.mos.len() as f64));
    put("control_bytes", Some(s.control_bytes as f64));
    put("radio_nodes", Some(s.radio_nodes as f64));
    put("window_sim_s", Some(s.window_sim_s));
    put("calls_established_share", s.established_share());
    put("setup_delay_p50_ms", s.setup_delay_ms(50.0));
    put("setup_delay_p95_ms", s.setup_delay_ms(95.0));
    put("mos_p50", s.mos_p50());
    put("mos_ok_share", s.mos_ok_share());
    put("control_bytes_per_node_s", s.control_bytes_per_node_s());
    put("sip_msgs", Some(measure::sip_msgs(&m.counters) as f64));
    put(
        "beacons_sent",
        Some(measure::packets(&m.counters, "radio.bcast_tx") as f64),
    );
    out
}

/// Per-layer metrics from one traced run: window counters, the
/// program's own sim-time histograms, probes. The three that need the
/// untraced run's host time are added by the parent.
fn layer_map(m: &Measured, probes: &[(&'static str, f64)]) -> BTreeMap<String, f64> {
    let c: &Counters = &m.counters;
    let n = |name: &str| measure::packets(c, name) as f64;
    let hist = |name: &str| m.hists.get(name);
    let q_ms = |name: &str, q: f64| hist(name).map_or(0.0, |h| h.quantile(q) as f64 / 1000.0);
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (ctrl_msgs, ctrl_bytes) = measure::routing_control(c);
    let lookups = n("slp.lookup_hit") + n("slp.lookup_miss");
    let offered = m.sim.offered as f64;
    let sip_msgs = measure::sip_msgs(c) as f64;

    let mut out: BTreeMap<String, f64> = [
        ("simnet.events", m.sim.window_events as f64),
        ("simnet.radio_tx", n("radio.tx")),
        ("simnet.radio_rx", n("radio.rx")),
        ("simnet.radio_retx", n("radio.retx")),
        ("simnet.cs_defer", n("radio.cs_defer")),
        ("simnet.fwd", n("fwd")),
        ("simnet.wired_tx", n("wired.tx")),
        ("simnet.drops", measure::prefix_sum(c, "drop.").0 as f64),
        ("simnet.pending_queued", n("pending.queued")),
        (
            "simnet.airtime_sim_us_p50",
            hist("radio.airtime_us").map_or(0.0, |h| h.quantile(0.5) as f64),
        ),
        ("routing.ctrl_msgs", ctrl_msgs as f64),
        ("routing.ctrl_bytes", ctrl_bytes as f64),
        (
            "routing.discoveries",
            hist("aodv.discovery_us").map_or(0.0, |h| h.count() as f64),
        ),
        ("routing.discovery_failed", n("aodv.discovery_failed")),
        (
            "routing.discovery_sim_ms_p50",
            q_ms("aodv.discovery_us", 0.5),
        ),
        (
            "routing.discovery_sim_ms_p95",
            q_ms("aodv.discovery_us", 0.95),
        ),
        (
            "slp.piggyback_msgs",
            n("aodv.piggyback") + n("olsr.piggyback") + n("dsdv.piggyback"),
        ),
        ("slp.lookups", lookups),
        ("slp.lookup_hit_share", share(n("slp.lookup_hit"), lookups)),
        ("slp.lookup_failed", n("slp.lookup_failed")),
        ("slp.query_floods", n("slp.query_flood")),
        ("slp.lookup_sim_ms_p50", q_ms("slp.lookup_us", 0.5)),
        ("slp.lookup_sim_ms_p95", q_ms("slp.lookup_us", 0.95)),
        ("sip.txn_tx", n("sip.txn_tx")),
        ("sip.msgs_per_call", share(sip_msgs, offered)),
        ("sip.proxy_fwd", n("sip.proxy_fwd")),
        ("sip.malformed_dropped", n("sip.malformed_dropped")),
        ("sip.txn_rtt_sim_ms_p50", q_ms("sip.txn_rtt_us", 0.5)),
        ("media.rtp_tx", n("media.rtp_tx")),
        ("media.rtp_rx", n("media.rtp_rx")),
        (
            "media.rtp_loss_share",
            share(
                (n("media.rtp_tx") - n("media.rtp_rx")).max(0.0),
                n("media.rtp_tx"),
            ),
        ),
        ("media.rtcp_tx", n("media.rtcp_tx")),
        ("core.proxy_deliver_local", n("proxy.deliver_local")),
        ("core.proxy_fwd_remote", n("proxy.fwd_to_remote_proxy")),
        ("core.proxy_fwd_provider", n("proxy.fwd_to_provider")),
        ("core.proxy_lookup_failed", n("proxy.lookup_failed")),
        ("core.tunnel_up", n("cp.tunnel_up")),
        ("core.tunneled_out", n("cp.tunneled_out")),
        ("core.tunneled_in", n("cp.tunneled_in")),
        ("core.keepalive_pings", n("cp.ping")),
        (
            "core.tunnel_handshake_sim_ms_p50",
            q_ms("cp.handshake_us", 0.5),
        ),
        ("internet.provider_register", n("provider.register")),
        ("internet.provider_reject", n("provider.reject")),
        ("internet.wired_rx", n("wired.rx")),
        ("obs.tracing_overhead_share", m.tracing_overhead_share),
        ("obs.spans_recorded", m.program_spans as f64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    out.extend(probes.iter().map(|(k, v)| ((*k).to_owned(), *v)));
    out
}

/// The per-layer metrics only the parent can compute: they need the
/// untraced run's host time.
pub const PARENT_LAYERS: [&str; 3] = [
    "simnet.host_ns_per_event",
    "sip.host_us_per_call",
    "sip.codec_share_est",
];

/// Entry point of `--child`: one run, one JSON line. Returns `None` for
/// an unknown workload.
pub fn run_child(workload: &str, seed: u64, scale: f64, traced: bool) -> Option<ChildResult> {
    let mut rec = Recorder::new(workload);
    rec.enter("workload");
    let mut m = measure::run(workload, seed, scale, traced, &mut rec)?;
    let layers = match m.captured.take() {
        Some(captured) => {
            rec.enter("probes");
            let probes = probes::run_all(&captured, &mut rec);
            rec.exit();
            layer_map(&m, &probes)
        }
        None => BTreeMap::new(),
    };
    rec.exit();
    Some(ChildResult {
        traced,
        setup_s: m.setup_s,
        sim: sim_map(&m),
        digest: format!("{:016x}", m.sim.digest),
        slice_wall_s: m.slice_wall_s,
        rss_peak_mb: m.rss_peak_mb,
        layers,
        checks: m.checks,
        spans: rec.spans().to_vec(),
    })
}

/// Entry point of `--child --setup-only`: build and warm up, nothing
/// more; the extra samples behind a short `setup_s`.
pub fn run_setup_only(workload: &str, seed: u64, scale: f64) -> Option<f64> {
    let mut rec = Recorder::new(workload);
    measure::set_up(workload, seed, scale, &mut rec).map(|(_, setup_s)| setup_s)
}

fn num_map(m: &BTreeMap<String, f64>) -> Value {
    Value::Obj(
        m.iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect(),
    )
}

fn read_num_map(v: &Value) -> Option<BTreeMap<String, f64>> {
    v.as_obj()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

pub fn checks_to_json(checks: &[Check]) -> Value {
    Value::Arr(
        checks
            .iter()
            .map(|c| {
                Value::obj([
                    ("name", Value::from(c.name.as_str())),
                    ("ok", Value::from(c.ok)),
                    ("detail", Value::from(c.detail.as_str())),
                ])
            })
            .collect(),
    )
}

fn checks_from_json(v: &Value) -> Option<Vec<Check>> {
    v.as_arr()?
        .iter()
        .map(|c| {
            Some(Check {
                name: c.get("name")?.as_str()?.to_owned(),
                ok: c.get("ok")?.as_bool()?,
                detail: c.get("detail")?.as_str()?.to_owned(),
            })
        })
        .collect()
}

impl ChildResult {
    pub fn to_json(&self) -> Value {
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::from(*x)).collect());
        Value::obj([
            ("traced", Value::from(self.traced)),
            ("setup_s", Value::from(self.setup_s)),
            ("slice_wall_s", nums(&self.slice_wall_s)),
            ("rss_peak_mb", Value::from(self.rss_peak_mb)),
            ("sim", num_map(&self.sim)),
            ("digest", Value::from(self.digest.as_str())),
            ("layers", num_map(&self.layers)),
            ("checks", checks_to_json(&self.checks)),
            ("spans", spans::to_json(&self.spans)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<ChildResult> {
        let nums = |k: &str| -> Option<Vec<f64>> {
            v.get(k)?.as_arr()?.iter().map(Value::as_f64).collect()
        };
        Some(ChildResult {
            traced: v.get("traced")?.as_bool()?,
            setup_s: v.get("setup_s")?.as_f64()?,
            slice_wall_s: nums("slice_wall_s")?,
            rss_peak_mb: v.get("rss_peak_mb")?.as_f64()?,
            sim: read_num_map(v.get("sim")?)?,
            digest: v.get("digest")?.as_str()?.to_owned(),
            layers: read_num_map(v.get("layers")?)?,
            checks: checks_from_json(v.get("checks")?)?,
            spans: spans::from_json(v.get("spans")?)?,
        })
    }
}

/// Re-executes this binary with `--child` and the given arguments, waits
/// for it and parses the last line it printed. The child inherits
/// stderr, so its panics are visible; anything but a clean exit with a
/// parsable last line is an error.
fn spawn_child(workload: &str, seed: u64, scale: f64, extra: &[&str]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("--child")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for {workload} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(line).map_err(|e| format!("child output: {e}"))
}

/// One full run in a fresh process.
pub fn spawn(workload: &str, seed: u64, scale: f64, traced: bool) -> Result<ChildResult, String> {
    let value = spawn_child(
        workload,
        seed,
        scale,
        &["--traced", if traced { "1" } else { "0" }],
    )?;
    let result = ChildResult::from_json(&value).ok_or("child output has the wrong shape")?;
    if result.traced {
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| !PARENT_LAYERS.contains(n) && !result.layers.contains_key(*n))
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "traced child left out per-layer metrics: {missing:?}"
            ));
        }
    }
    Ok(result)
}

/// One set-up in a fresh process; returns its `setup_s`.
pub fn spawn_setup_only(workload: &str, seed: u64, scale: f64) -> Result<f64, String> {
    spawn_child(workload, seed, scale, &["--setup-only", "1"])?
        .get("setup_s")
        .and_then(Value::as_f64)
        .ok_or_else(|| "setup-only child output has the wrong shape".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_result_round_trips_through_json() {
        let r = ChildResult {
            traced: true,
            setup_s: 1.626_000_000_1,
            slice_wall_s: vec![0.1, 0.2, 0.300_000_000_000_04],
            rss_peak_mb: 37.5,
            sim: [
                ("offered".to_owned(), 320.0),
                ("mos_p50".to_owned(), 4.378_969_488_722_515),
            ]
            .into_iter()
            .collect(),
            digest: "00ff00ff00ff00ff".to_owned(),
            layers: [("simnet.events".to_owned(), 7e6)].into_iter().collect(),
            checks: vec![measure::check(
                "calls_conserved",
                true,
                "offered 320 \"ok\"".to_owned(),
            )],
            spans: vec![Span {
                name: "workload".to_owned(),
                start_s: 0.0,
                end_s: 2.0,
                parent: None,
                workload: "toy".to_owned(),
            }],
        };
        let back = ChildResult::from_json(&json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!((back.run_wall_s() - 0.6).abs() < 1e-12);
    }
}
