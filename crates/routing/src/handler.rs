//! The routing-handler plugin interface.
//!
//! The paper's central mechanism is *routing-message piggybacking*: "MANET
//! SLP works by piggybacking service information onto routing messages. This
//! is done by capturing routing messages (using the libipq library under
//! linux) and extending them with service information. To assure generality,
//! the routing specific functionality is encapsulated within a routing
//! handler."
//!
//! In the simulator the capture point is explicit: every routing protocol
//! process accepts an optional shared [`RoutingHandler`] and invokes it
//!
//! * just before serializing an outgoing control message
//!   ([`RoutingHandler::collect_outgoing`]) so the handler can attach opaque
//!   service entries, and
//! * for every received control message
//!   ([`RoutingHandler::process_incoming`]) so the handler can absorb
//!   entries — and, for request/reply protocols like AODV, return answer
//!   entries that ride back toward the origin on the route reply.
//!
//! The entries themselves are opaque byte blobs; the `siphoc-slp` crate
//! defines their content. This keeps the routing crate service-agnostic,
//! exactly as the paper's plugin design intends.

use std::cell::RefCell;
use std::rc::Rc;

use siphoc_simnet::net::Addr;
use siphoc_simnet::process::Ctx;

/// The kind of routing control message a handler is invoked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// AODV route request (flooded network-wide).
    AodvRreq,
    /// AODV route reply (unicast back along the reverse path).
    AodvRrep,
    /// AODV hello beacon (one hop).
    AodvHello,
    /// OLSR hello (one hop).
    OlsrHello,
    /// OLSR topology control (flooded via MPRs).
    OlsrTc,
}

impl MsgKind {
    /// Whether messages of this kind propagate beyond one hop — handlers
    /// use this to decide which messages are worth piggybacking on.
    pub fn is_network_wide(self) -> bool {
        matches!(
            self,
            MsgKind::AodvRreq | MsgKind::AodvRrep | MsgKind::OlsrTc
        )
    }
}

/// A plugin invoked on every routing control message.
///
/// Handlers are shared between the routing process (which calls them) and a
/// service process such as MANET SLP (which owns the state behind them), so
/// they are passed around as [`SharedHandler`].
pub trait RoutingHandler {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;

    /// Returns entries to attach to an outgoing message of `kind`. The
    /// total encoded size of the returned entries should stay within
    /// `budget` bytes; the routing process truncates the list otherwise.
    fn collect_outgoing(&mut self, ctx: &mut Ctx<'_>, kind: MsgKind, budget: usize)
        -> Vec<Vec<u8>>;

    /// Processes entries received on a message of `kind`. `from` is the
    /// link-layer sender, `origin` the node that originated the message.
    ///
    /// The returned entries, if any, are *answers*: on AODV the routing
    /// process generates a service reply carrying them back toward
    /// `origin`. Protocols without a reply primitive ignore the return
    /// value.
    fn process_incoming(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: MsgKind,
        from: Addr,
        origin: Addr,
        entries: &[Vec<u8>],
    ) -> Vec<Vec<u8>>;
}

/// A handler shared between the routing process and its owner.
pub type SharedHandler = Rc<RefCell<dyn RoutingHandler>>;

/// Byte budget for piggybacked service entries per routing control
/// message, the same for every protocol.
pub const PIGGYBACK_BUDGET: usize = 512;

/// Truncates `entries` so their encoded size (1 count byte + 2 length bytes
/// per entry + payload) fits in `budget` bytes.
pub fn fit_budget(mut entries: Vec<Vec<u8>>, budget: usize) -> Vec<Vec<u8>> {
    let mut used = 1usize;
    let mut keep = 0usize;
    for e in &entries {
        let cost = 2 + e.len();
        if used + cost > budget {
            break;
        }
        used += cost;
        keep += 1;
    }
    entries.truncate(keep);
    entries
}

/// Name of the node-local event a service process emits to ask an
/// on-demand routing protocol to flood a service query (see
/// `siphoc-slp::manet`). The event payload is the encoded query entry.
pub const FLOOD_QUERY_EVENT: &str = "routing.flood_query";

/// Name of the node-local event routing handlers emit when piggybacked
/// entries changed handler state, waking any process waiting on lookups.
pub const HANDLER_UPDATED_EVENT: &str = "routing.handler_updated";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_wide_classification() {
        assert!(MsgKind::AodvRreq.is_network_wide());
        assert!(MsgKind::AodvRrep.is_network_wide());
        assert!(MsgKind::OlsrTc.is_network_wide());
        assert!(!MsgKind::AodvHello.is_network_wide());
        assert!(!MsgKind::OlsrHello.is_network_wide());
    }

    #[test]
    fn fit_budget_truncates_greedily() {
        let entries = vec![vec![0u8; 10], vec![0u8; 10], vec![0u8; 10]];
        // Each entry costs 12 bytes; 1 byte header.
        assert_eq!(fit_budget(entries.clone(), 25).len(), 2);
        assert_eq!(fit_budget(entries.clone(), 13).len(), 1);
        assert_eq!(fit_budget(entries.clone(), 12).len(), 0);
        assert_eq!(fit_budget(entries, 1000).len(), 3);
    }
}
