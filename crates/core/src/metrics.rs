//! Footprint accounting and experiment aggregation helpers.
//!
//! Paper §4 reports a 1.2 MB system footprint ("four services and about
//! 20 shared libraries") fitting the iPAQ's 32 MB flash next to a 25 MB
//! OS. A simulator cannot re-measure ARM binary sizes; instead this module
//! accounts the footprint dimension the middleware actually *controls*:
//! the per-component runtime state each node carries, which is the scaling
//! quantity the deployment section cares about (F6 in `DESIGN.md`). The
//! static-code figures from the paper are restated alongside in
//! `EXPERIMENTS.md`.

use siphoc_simnet::node::NodeId;
use siphoc_simnet::stats::NodeStats;
use siphoc_simnet::time::SimTime;
use siphoc_simnet::world::World;

use siphoc_slp::manet::SharedRegistry;

/// Estimated in-memory size of one node's middleware state, by component.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FootprintReport {
    /// Bytes attributed to the routing table.
    pub routing_bytes: usize,
    /// Number of routing entries.
    pub routing_entries: usize,
    /// Bytes attributed to the MANET SLP registry.
    pub slp_bytes: usize,
    /// Number of SLP entries.
    pub slp_entries: usize,
}

/// Approximate in-memory cost of one forwarding-table entry: destination,
/// next hop, hops, expiry, seq plus map overhead.
pub const ROUTE_ENTRY_BYTES: usize = 48;

/// Approximate in-memory cost of one SLP entry: strings, contact, origin,
/// seq, expiry plus map overhead.
pub const SLP_ENTRY_BYTES: usize = 96;

/// Computes the footprint of one node.
pub fn node_footprint(
    world: &World,
    node: NodeId,
    registry: Option<&SharedRegistry>,
    now: SimTime,
) -> FootprintReport {
    let routing_entries = world.node(node).routes().len();
    let slp_entries = registry.map(|r| r.borrow().len()).unwrap_or(0);
    let _ = now;
    FootprintReport {
        routing_bytes: routing_entries * ROUTE_ENTRY_BYTES,
        routing_entries,
        slp_bytes: slp_entries * SLP_ENTRY_BYTES,
        slp_entries,
    }
}

/// A named series of `(x, y)` measurements — the exchange format between
/// experiment binaries and `EXPERIMENTS.md`.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Series label (e.g. `"aodv-cold"`).
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: &str) -> Series {
        Series {
            label: label.to_owned(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Renders as aligned text rows.
    pub fn render(&self, x_name: &str, y_name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {}  ({x_name} -> {y_name})", self.label);
        for (x, y) in &self.points {
            let _ = writeln!(out, "{x:>10.3}  {y:>12.4}");
        }
        out
    }
}

/// On-air control bytes in `stats` (one node's, or
/// `World::total_stats()`): routing control traffic — which carries any
/// piggybacked SLP — plus the dedicated location-service traffic of the
/// baselines (standard SLP floods, broadcast registrations, proactive
/// hellos). The one definition every overhead number is built on.
pub fn control_bytes(stats: &NodeStats) -> u64 {
    [
        "aodv.",
        "olsr.",
        "dsdv.",
        "slp_std.",
        "bcast_reg.",
        "phello.",
    ]
    .iter()
    .map(|prefix| stats.sum_prefix(prefix).bytes)
    .sum()
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

    #[test]
    fn series_renders_rows() {
        let mut s = Series::new("aodv-cold");
        s.push(1.0, 42.5);
        s.push(2.0, 55.25);
        let text = s.render("hops", "ms");
        assert!(text.contains("aodv-cold"));
        assert!(text.contains("42.5"));
        assert_eq!(text.lines().count(), 3);
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

    #[test]
    fn control_bytes_sums_on_air_prefixes_and_deducts_nothing() {
        let mut s = NodeStats::default();
        for name in ["aodv.rreq", "dsdv.update", "phello.hello"] {
            s.count(name, 10);
        }
        // Lookup accounting is not on air: neither added nor deducted.
        s.count("slp.query_flood", 1000);
        s.count("media.rtp_rx", 1000);
        assert_eq!(control_bytes(&s), 30);
    }

    #[test]
    fn footprint_scales_with_entries() {
        let r = FootprintReport {
            routing_bytes: 10 * ROUTE_ENTRY_BYTES,
            routing_entries: 10,
            slp_bytes: 3 * SLP_ENTRY_BYTES,
            slp_entries: 3,
        };
        assert_eq!(r.routing_bytes, 480);
        assert_eq!(r.slp_bytes, 288);
    }
}
