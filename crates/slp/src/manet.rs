//! MANET SLP's routing half: the paper's piggyback handler.
//!
//! MANET SLP is two cooperating pieces per node sharing one
//! [`SharedRegistry`]: the [`SlpDaemon`](crate::daemon::SlpDaemon) behind
//! the local API, and [`ManetSlpHandler`] — the routing-handler plugin
//! ("the routing specific functionality is encapsulated within a routing
//! handler"). The handler piggybacks registrations onto routing control
//! messages, absorbs the ones it sees, and — on AODV service-query RREQs
//! — produces answers that ride back on the route reply (paper Fig. 5).
//!
//! Dissemination style follows the routing protocol: with **AODV** the
//! handler attaches the node's *own* registrations to originated control
//! traffic and the daemon resolves misses with query floods
//! ([`Dissemination::OnDemand`]); with **OLSR** every node gossips
//! *everything it knows* on periodic HELLO/TC messages, so the registry
//! fully replicates and lookups are local
//! ([`Dissemination::Proactive`]). Experiment E7 contrasts the two.

use siphoc_simnet::net::Addr;
use siphoc_simnet::process::{Ctx, LocalEvent};
use siphoc_simnet::time::{SimDuration, SimTime};

use siphoc_routing::handler::{MsgKind, RoutingHandler};

use crate::daemon::Dissemination;
use crate::registry::{Absorb, SharedRegistry};
use crate::service::{ServiceEntry, SlpRecord};

/// The routing-handler side of MANET SLP.
#[derive(Debug)]
pub struct ManetSlpHandler {
    registry: SharedRegistry,
    mode: Dissemination,
    /// Minimum interval between re-attaching an *unchanged* entry to
    /// periodic control messages. Changed entries (new sequence number)
    /// go out immediately; on-demand messages (AODV RREQ/RREP) always
    /// carry current entries since they are rare and latency-critical.
    min_readvertise: SimDuration,
    /// `(type, key, origin)` → `(seq, last attached)`.
    attach_log: std::collections::BTreeMap<(String, String, Addr), (u64, SimTime)>,
}

impl ManetSlpHandler {
    /// Creates the handler over a shared registry with the default 8 s
    /// re-advertisement throttle.
    pub fn new(registry: SharedRegistry, mode: Dissemination) -> ManetSlpHandler {
        ManetSlpHandler {
            registry,
            mode,
            min_readvertise: SimDuration::from_secs(8),
            attach_log: std::collections::BTreeMap::new(),
        }
    }

    /// Overrides the re-advertisement throttle ([`SimDuration::ZERO`]
    /// attaches everything to every message — the A1 ablation's
    /// unthrottled variant).
    pub fn with_min_readvertise(mut self, min: SimDuration) -> ManetSlpHandler {
        self.min_readvertise = min;
        self
    }

    /// Filters `entries` down to those not recently attached unchanged,
    /// updating the attach log for the survivors.
    fn throttle(&mut self, entries: Vec<ServiceEntry>, now: SimTime) -> Vec<ServiceEntry> {
        if self.min_readvertise.is_zero() {
            return entries;
        }
        entries
            .into_iter()
            .filter(|e| {
                let key = (e.service_type.clone(), e.key.clone(), e.origin);
                match self.attach_log.get(&key) {
                    Some((seq, last))
                        if *seq >= e.seq && now.saturating_since(*last) < self.min_readvertise =>
                    {
                        false
                    }
                    _ => {
                        self.attach_log.insert(key, (e.seq, now));
                        true
                    }
                }
            })
            .collect()
    }
}

impl RoutingHandler for ManetSlpHandler {
    fn name(&self) -> &'static str {
        "manet-slp"
    }

    fn collect_outgoing(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: MsgKind,
        _budget: usize,
    ) -> Vec<Vec<u8>> {
        let now = ctx.now();
        let entries = {
            let reg = self.registry.borrow();
            match (self.mode, kind) {
                // Proactive: full gossip on network-wide and one-hop
                // messages alike; hop-by-hop relay of learned entries is
                // what replicates the registry everywhere.
                (
                    Dissemination::Proactive,
                    MsgKind::OlsrHello | MsgKind::OlsrTc | MsgKind::AodvHello,
                ) => reg.all_entries(now),
                // Own registrations ride originated control messages;
                // learned ones are served on demand via query replies.
                _ => reg.local_entries(now),
            }
        };
        // Periodic vehicles are throttled; on-demand ones carry current
        // state (a service RREP must answer even if recently advertised).
        let entries = match kind {
            MsgKind::AodvHello | MsgKind::OlsrHello | MsgKind::OlsrTc => {
                self.throttle(entries, now)
            }
            MsgKind::AodvRreq | MsgKind::AodvRrep => entries,
        };
        entries.iter().map(ServiceEntry::to_wire).collect()
    }

    fn process_incoming(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: MsgKind,
        _from: Addr,
        _origin: Addr,
        entries: &[Vec<u8>],
    ) -> Vec<Vec<u8>> {
        let now = ctx.now();
        let mut answers = Vec::new();
        let mut changed = false;
        for raw in entries {
            match SlpRecord::parse(raw) {
                Ok(SlpRecord::Reg(e)) => match self.registry.borrow_mut().absorb_checked(e, now) {
                    Absorb::Fresh => changed = true,
                    Absorb::Stale => {}
                    Absorb::Unsigned | Absorb::BadSig => {
                        ctx.stats().count("slp.auth_reject", raw.len());
                    }
                    Absorb::PinMismatch => {
                        ctx.stats().count("slp.auth_pin_reject", raw.len());
                    }
                },
                Ok(SlpRecord::Query(q)) => {
                    if kind == MsgKind::AodvRreq {
                        for m in self.registry.borrow().matching(&q, now) {
                            answers.push(m.to_wire());
                        }
                    }
                }
                Err(_) => {
                    ctx.stats().count("slp.malformed_record", raw.len());
                }
            }
        }
        if changed {
            ctx.emit(LocalEvent::HandlerUpdated);
        }
        answers
    }
}
