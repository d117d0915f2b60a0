//! Measurement helpers: call setup latency, control-overhead accounting,
//! sample aggregation.

use siphoc_core::metrics::control_bytes;
use siphoc_core::nodesetup::SiphocNode;
use siphoc_simnet::prelude::*;
use siphoc_sip::ua::CallEvent;

/// Outcome of one measured call attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallMeasurement {
    /// INVITE sent → Established at the caller; `None` if never
    /// established.
    pub setup: Option<SimDuration>,
    /// Whether the call failed with a final error or timeout.
    pub failed: bool,
}

/// Extracts the `k`-th call attempt measurement from a caller's log.
pub fn call_measurement(node: &SiphocNode, k: usize) -> CallMeasurement {
    let log = node.ua_logs[0].borrow();
    let placed: Vec<SimTime> = log
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, CallEvent::OutgoingCall { .. }))
        .map(|(t, _)| *t)
        .collect();
    let Some(&placed_at) = placed.get(k) else {
        return CallMeasurement {
            setup: None,
            failed: true,
        };
    };
    let window_end = placed.get(k + 1).copied().unwrap_or(SimTime::MAX);
    let established = log
        .events()
        .iter()
        .find(|(t, e)| {
            *t >= placed_at && *t < window_end && matches!(e, CallEvent::Established { .. })
        })
        .map(|(t, _)| *t);
    let failed = log
        .events()
        .iter()
        .any(|(t, e)| *t >= placed_at && *t < window_end && matches!(e, CallEvent::Failed { .. }));
    CallMeasurement {
        setup: established.map(|t| t - placed_at),
        failed,
    }
}

/// Control bytes (`siphoc_core::metrics::control_bytes`) per radio node
/// per second over a run of `duration`.
pub fn control_bytes_per_node_second(world: &World, duration: SimDuration) -> f64 {
    let n = world
        .node_ids()
        .iter()
        .filter(|id| world.node(**id).has_radio())
        .count()
        .max(1);
    control_bytes(&world.total_stats()) as f64 / n as f64 / duration.as_secs_f64()
}

/// Mean of a slice, `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Percentile via nearest-rank (p in 0..=100), `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    Some(sorted[rank.min(sorted.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ideal_world, siphoc_chain};
    use siphoc_core::nodesetup::RoutingProtocol;
    use siphoc_sip::uri::Aor;

    #[test]
    fn call_measurement_extracts_setup_time() {
        let mut w = ideal_world(9);
        let mut nodes = siphoc_chain(&mut w, 2, RoutingProtocol::Aodv, &[(0, "a"), (1, "b")]);
        // Schedule a's call by rebuilding its UA config is awkward here;
        // instead use the log-based extraction on a scripted deployment.
        let _ = &mut nodes;
        // Deploy a dedicated caller with a script.
        let ua = siphoc_core::config::VoipAppConfig::fig2("x", "voicehoc.ch")
            .to_ua_config()
            .unwrap()
            .call_at(
                SimTime::from_secs(3),
                Aor::new("b", "voicehoc.ch"),
                SimDuration::from_secs(2),
            );
        let caller = siphoc_core::nodesetup::deploy(
            &mut w,
            siphoc_core::nodesetup::NodeSpec::relay(0.0, 60.0).with_user(ua),
        );
        w.run_for(SimDuration::from_secs(12));
        let m = call_measurement(&caller, 0);
        assert!(m.setup.is_some(), "call should establish");
        assert!(!m.failed);
        let s = m.setup.unwrap();
        assert!(s < SimDuration::from_secs(3), "setup {s}");
        // A second attempt that never happened reports failure.
        let m2 = call_measurement(&caller, 1);
        assert!(m2.setup.is_none() && m2.failed);
    }

    #[test]
    fn control_bytes_counts_routing_traffic() {
        for (routing, prefix) in [
            (RoutingProtocol::Aodv, "aodv."),
            (RoutingProtocol::Olsr, "olsr."),
        ] {
            let mut w = ideal_world(10);
            let _ = siphoc_chain(&mut w, 3, routing, &[]);
            w.run_for(SimDuration::from_secs(10));
            let total = w.total_stats();
            let routed = total.sum_prefix(prefix).bytes;
            assert!(routed > 0, "{prefix} chain is silent");
            assert_eq!(control_bytes(&total), routed);
            assert!(control_bytes_per_node_second(&w, SimDuration::from_secs(10)) > 0.0);
        }
    }

    #[test]
    fn mean_and_percentile() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(mean(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
