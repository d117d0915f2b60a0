//! Footprint and control-overhead accounting.
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
use siphoc_simnet::world::World;

use siphoc_slp::registry::SharedRegistry;

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
) -> FootprintReport {
    let routing_entries = world.node(node).routes().len();
    let slp_entries = registry.map(|r| r.borrow().len()).unwrap_or(0);
    FootprintReport {
        routing_bytes: routing_entries * ROUTE_ENTRY_BYTES,
        routing_entries,
        slp_bytes: slp_entries * SLP_ENTRY_BYTES,
        slp_entries,
    }
}

/// On-air control bytes in `stats` (one node's, or
/// `World::total_stats()`): routing control traffic — which carries any
/// piggybacked SLP — plus the dedicated transmissions of the related-work
/// location services (standard SLP's `MRQST` floods and `SRVRPLY`
/// answers, broadcast REGISTERs, proactive HELLOs). Lookup outcomes are
/// counted under `slp.` for every service and never sum here. The one
/// definition every overhead number is built on.
pub fn control_bytes(stats: &NodeStats) -> u64 {
    ["aodv.", "olsr.", "slp_std.", "bcast_reg.", "phello."]
        .iter()
        .map(|prefix| stats.sum_prefix(prefix).bytes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_bytes_sums_on_air_prefixes_and_deducts_nothing() {
        let mut s = NodeStats::default();
        for name in ["aodv.rreq", "olsr.hello", "phello.hello"] {
            s.count(name, 10);
        }
        // Lookup accounting is not on air: neither added nor deducted.
        s.count("slp.query_flood", 1000);
        s.count("media.rtp_rx", 1000);
        assert_eq!(control_bytes(&s), 30);
    }

    #[test]
    fn a_failed_standard_slp_lookup_costs_only_its_transmissions() {
        use siphoc_routing::aodv::AodvProcess;
        use siphoc_simnet::net::{ports, Addr, Datagram, SocketAddr};
        use siphoc_simnet::prelude::*;
        use siphoc_slp::daemon::{Dissemination, SlpDaemon};
        use siphoc_slp::msg::SlpMsg;
        use siphoc_slp::registry::shared_registry;

        let mut w = World::new(WorldConfig::new(5).with_radio(RadioConfig::ideal()));
        let mut nodes = Vec::new();
        for x in [0.0, 80.0] {
            let id = w.add_node(NodeConfig::manet(x, 0.0));
            w.spawn(id, Box::new(AodvProcess::new()));
            let daemon = SlpDaemon::new(Dissemination::Multicast, shared_registry());
            w.spawn(id, Box::new(daemon));
            nodes.push(id);
        }
        w.run_for(SimDuration::from_secs(1));
        let rqst = SlpMsg::SrvRqst {
            xid: 1,
            service_type: "sip".into(),
            key: "ghost@v.ch".into(),
        };
        let client = SocketAddr::new(Addr::LOOPBACK, 9999);
        let daemon = SocketAddr::new(Addr::LOOPBACK, ports::SLP);
        w.inject(nodes[0], Datagram::new(client, daemon, rqst.to_wire()));
        w.run_for(SimDuration::from_secs(10));
        let total = w.total_stats();
        assert_eq!(total.get("slp.lookup_failed").packets, 1);
        let on_air = total.get("slp_std.mrqst").bytes + total.get("slp_std.rply").bytes;
        assert!(on_air > 0);
        assert_eq!(
            control_bytes(&total),
            total.sum_prefix("aodv.").bytes + on_air
        );
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
