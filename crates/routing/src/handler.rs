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

/// A routing process's piggyback handler, if one is attached: the one
/// path both protocols take to attach entries to an outgoing message and
/// to hand received ones over.
#[derive(Default)]
pub(crate) struct Piggyback(pub(crate) Option<SharedHandler>);

impl Piggyback {
    /// Entries the handler attaches to an outgoing `kind` message, cut to
    /// [`PIGGYBACK_BUDGET`] and counted as `<protocol>.piggyback` at 2
    /// length bytes plus the payload each; none without a handler.
    pub(crate) fn collect(&self, ctx: &mut Ctx<'_>, kind: MsgKind) -> Vec<Vec<u8>> {
        let Some(h) = &self.0 else {
            return Vec::new();
        };
        let entries = h.borrow_mut().collect_outgoing(ctx, kind, PIGGYBACK_BUDGET);
        let entries = fit_budget(entries, PIGGYBACK_BUDGET);
        let extra: usize = entries.iter().map(|e| e.len() + 2).sum();
        if extra > 0 {
            let counter = match kind {
                MsgKind::AodvRreq | MsgKind::AodvRrep | MsgKind::AodvHello => "aodv.piggyback",
                MsgKind::OlsrHello | MsgKind::OlsrTc => "olsr.piggyback",
            };
            ctx.stats().count(counter, extra);
        }
        entries
    }

    /// Hands the entries received on a `kind` message to the handler and
    /// returns its answers; an empty list is not handed over.
    pub(crate) fn deliver(
        &self,
        ctx: &mut Ctx<'_>,
        kind: MsgKind,
        from: Addr,
        origin: Addr,
        entries: &[Vec<u8>],
    ) -> Vec<Vec<u8>> {
        match &self.0 {
            Some(h) if !entries.is_empty() => h
                .borrow_mut()
                .process_incoming(ctx, kind, from, origin, entries),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
