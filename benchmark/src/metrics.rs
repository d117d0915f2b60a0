//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for
//! the acceptance driver; a unit test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// across runs with *different* seeds (what the driver does).
    pub bound: f64,
    /// Simulated statistic: a pure function of the seed, so between two
    /// reports of the same seed any difference at all is a change in
    /// behaviour and `--compare` holds it to equality.
    pub simulated: bool,
}

/// Reported where a metric does not apply to a workload (call metrics on
/// `city_beacon`, media and overhead metrics on `sip_hub`): the driver
/// wants every end-to-end metric from every workload and none of them
/// zero, and a constant cannot regress.
pub const NOT_APPLICABLE: f64 = 1.0;

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        simulated: false,
    },
    EndToEnd {
        name: "calls_established_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.15,
        simulated: true,
    },
    EndToEnd {
        name: "setup_delay_p50_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.15,
        simulated: true,
    },
    EndToEnd {
        name: "setup_delay_p95_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "mos_p50",
        unit: "mos",
        better: Better::Higher,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "mos_ok_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.15,
        simulated: true,
    },
    EndToEnd {
        name: "control_bytes_per_node_s",
        unit: "B/node/sim_s",
        better: Better::Lower,
        bound: 0.25,
        simulated: true,
    },
];

/// A per-layer metric: `<crate>.<name>`.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Units: `count` = events in the measured window; `sim_ms`/`sim_us` =
/// simulated time from the program's own histograms (whole run, warm-up
/// included); `ns`/`us` = host time from probes or derived from
/// `run_wall_s`; `share` = ratio in `[0, 1]`.
pub const PER_LAYER: [PerLayer; 73] = [
    lo("simnet.events", "count"),
    lo("simnet.host_ns_per_event", "ns"),
    lo("simnet.radio_tx", "count"),
    lo("simnet.radio_rx", "count"),
    lo("simnet.radio_retx", "count"),
    lo("simnet.cs_defer", "count"),
    lo("simnet.fwd", "count"),
    lo("simnet.wired_tx", "count"),
    lo("simnet.drops", "count"),
    lo("simnet.pending_queued", "count"),
    lo("simnet.airtime_sim_us_p50", "sim_us"),
    lo("simnet.timer_event_ns", "ns"),
    lo("simnet.bcast_rx_ns", "ns"),
    lo("simnet.unicast_hop_ns", "ns"),
    lo("simnet.loss_sample_ns", "ns"),
    lo("simnet.route_lookup_ns", "ns"),
    lo("routing.ctrl_msgs", "count"),
    lo("routing.ctrl_bytes", "B"),
    lo("routing.discoveries", "count"),
    lo("routing.discovery_failed", "count"),
    lo("routing.discovery_sim_ms_p50", "sim_ms"),
    lo("routing.discovery_sim_ms_p95", "sim_ms"),
    lo("routing.decode_ns_per_msg", "ns"),
    lo("routing.encode_ns_per_msg", "ns"),
    lo("slp.piggyback_msgs", "count"),
    lo("slp.lookups", "count"),
    hi("slp.lookup_hit_share", "share"),
    lo("slp.lookup_failed", "count"),
    lo("slp.query_floods", "count"),
    lo("slp.lookup_sim_ms_p50", "sim_ms"),
    lo("slp.lookup_sim_ms_p95", "sim_ms"),
    lo("slp.decode_ns_per_msg", "ns"),
    lo("slp.encode_ns_per_msg", "ns"),
    lo("slp.registry_absorb_ns", "ns"),
    lo("slp.registry_lookup_ns", "ns"),
    lo("sip.txn_tx", "count"),
    lo("sip.msgs_per_call", "count"),
    lo("sip.proxy_fwd", "count"),
    lo("sip.malformed_dropped", "count"),
    lo("sip.txn_rtt_sim_ms_p50", "sim_ms"),
    lo("sip.host_us_per_call", "us"),
    lo("sip.parse_ns_per_msg", "ns"),
    lo("sip.render_ns_per_msg", "ns"),
    lo("sip.registrar_bind_ns", "ns"),
    lo("sip.registrar_lookup_ns", "ns"),
    lo("sip.codec_share_est", "share"),
    lo("media.rtp_tx", "count"),
    hi("media.rtp_rx", "count"),
    lo("media.rtp_loss_share", "share"),
    lo("media.rtcp_tx", "count"),
    lo("media.rtp_decode_ns", "ns"),
    lo("media.rtp_encode_ns", "ns"),
    lo("media.jitter_on_packet_ns", "ns"),
    lo("media.quality_eval_ns", "ns"),
    lo("core.proxy_deliver_local", "count"),
    lo("core.proxy_fwd_remote", "count"),
    lo("core.proxy_fwd_provider", "count"),
    lo("core.proxy_lookup_failed", "count"),
    lo("core.tunnel_up", "count"),
    lo("core.tunneled_out", "count"),
    lo("core.tunneled_in", "count"),
    lo("core.keepalive_pings", "count"),
    lo("core.tunnel_handshake_sim_ms_p50", "sim_ms"),
    lo("core.tunnel_decode_ns", "ns"),
    lo("core.tunnel_encode_ns", "ns"),
    lo("internet.provider_register", "count"),
    lo("internet.provider_reject", "count"),
    lo("internet.wired_rx", "count"),
    lo("obs.tracing_overhead_share", "share"),
    lo("obs.spans_recorded", "count"),
    lo("obs.counter_add_ns", "ns"),
    lo("obs.hist_record_ns", "ns"),
    lo("obs.span_enter_exit_ns", "ns"),
];

/// The name rule of the driver's contract: starts with a letter or a
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit rule of the driver's contract: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    #[test]
    fn name_charset_is_enforced() {
        for ok in [
            "setup_s",
            "simnet.host_ns_per_event",
            "a",
            "9lives",
            "x-y.z_0",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "µs",
            "a%",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for w in crate::workloads::NAMES {
            assert!(valid_name(w) && seen.insert(w), "{w}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| m.name.contains('.')));
    }

    /// `BENCHMARK.json` is the driver's copy of these tables.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
        let listed: Vec<(String, String, String, Option<f64>)> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|k| doc.get(k).and_then(Value::as_arr).unwrap())
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, Option<f64>)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, Some(m.bound)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better, None)))
            .map(|(n, u, b, bound)| (n.to_owned(), u.to_owned(), b.as_str().to_owned(), bound))
            .collect();
        assert_eq!(listed, ours);

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::NAMES
            .iter()
            .map(|w| ((*w).to_owned(), crate::report::why(w).to_owned()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| !why.is_empty() && why.len() <= 200));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(crate::REFERENCE_SECONDS)
        );
    }
}
