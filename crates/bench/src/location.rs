//! Location-service experiment scaffolding (E2, E3, E7, A1).
//!
//! Every location service in the workspace — MANET SLP in both
//! dissemination modes, standard SLP, broadcast registration, proactive
//! HELLO — answers the same client API on `127.0.0.1:427`, so one probe
//! process measures them all interchangeably.

use std::cell::RefCell;
use std::rc::Rc;

use siphoc_core::baselines::{BroadcastRegistration, ProactiveHello};
use siphoc_routing::aodv::AodvProcess;
use siphoc_routing::olsr::OlsrProcess;
use siphoc_simnet::net::{ports, Datagram, SocketAddr};
use siphoc_simnet::node::NodeConfig;
use siphoc_simnet::prelude::*;
use siphoc_simnet::process::{Ctx, Process};
use siphoc_slp::manet::{shared_registry, Dissemination, ManetSlpHandler, ManetSlpProcess};
use siphoc_slp::msg::SlpMsg;
use siphoc_slp::standard::StandardSlpProcess;

/// The location-service alternatives under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocationKind {
    /// MANET SLP over AODV (on-demand piggybacking) — SIPHoc's default.
    ManetSlpAodv,
    /// MANET SLP over OLSR (proactive piggybacking).
    ManetSlpOlsr,
    /// RFC 2608 multicast-convergence SLP (runs over AODV).
    StandardSlp,
    /// Broadcast-REGISTER flooding (Leggio et al.; runs over AODV).
    BroadcastReg,
    /// Proactive HELLO mapping (Pico SIP; runs over AODV).
    ProactiveHello,
}

impl LocationKind {
    /// Human-readable label for result tables.
    pub fn label(self) -> &'static str {
        match self {
            LocationKind::ManetSlpAodv => "manet-slp/aodv",
            LocationKind::ManetSlpOlsr => "manet-slp/olsr",
            LocationKind::StandardSlp => "standard-slp",
            LocationKind::BroadcastReg => "bcast-register",
            LocationKind::ProactiveHello => "proactive-hello",
        }
    }

    /// All variants, for sweep loops.
    pub fn all() -> [LocationKind; 5] {
        [
            LocationKind::ManetSlpAodv,
            LocationKind::ManetSlpOlsr,
            LocationKind::StandardSlp,
            LocationKind::BroadcastReg,
            LocationKind::ProactiveHello,
        ]
    }
}

/// Spawns routing + the chosen location service on a fresh node at the
/// given position; returns the node id.
pub fn add_location_node(world: &mut World, kind: LocationKind, x: f64, y: f64) -> NodeId {
    let id = world.add_node(NodeConfig::manet(x, y));
    match kind {
        LocationKind::ManetSlpAodv => {
            let registry = shared_registry();
            let handler = Rc::new(RefCell::new(ManetSlpHandler::new(
                registry.clone(),
                Dissemination::OnDemand,
            )));
            world.spawn(id, Box::new(AodvProcess::new().with_handler(handler)));
            world.spawn(
                id,
                Box::new(ManetSlpProcess::new(Dissemination::OnDemand, registry)),
            );
        }
        LocationKind::ManetSlpOlsr => {
            let registry = shared_registry();
            let handler = Rc::new(RefCell::new(ManetSlpHandler::new(
                registry.clone(),
                Dissemination::Proactive,
            )));
            world.spawn(id, Box::new(OlsrProcess::new().with_handler(handler)));
            world.spawn(
                id,
                Box::new(ManetSlpProcess::new(Dissemination::Proactive, registry)),
            );
        }
        LocationKind::StandardSlp => {
            world.spawn(id, Box::new(AodvProcess::new()));
            world.spawn(id, Box::new(StandardSlpProcess::new()));
        }
        LocationKind::BroadcastReg => {
            world.spawn(id, Box::new(AodvProcess::new()));
            world.spawn(id, Box::new(BroadcastRegistration::new()));
        }
        LocationKind::ProactiveHello => {
            world.spawn(id, Box::new(AodvProcess::new()));
            world.spawn(
                id,
                Box::new(ProactiveHello::new(SimDuration::from_secs(10))),
            );
        }
    }
    id
}

/// One lookup result captured by the probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupResult {
    /// When the request was issued.
    pub issued: SimTime,
    /// When the reply arrived.
    pub answered: SimTime,
    /// Whether a binding was found.
    pub found: bool,
}

impl LookupResult {
    /// Request→reply latency.
    pub fn latency(&self) -> SimDuration {
        self.answered.saturating_since(self.issued)
    }
}

/// Shared lookup results.
pub type LookupLog = Rc<RefCell<Vec<LookupResult>>>;

const PROBE_PORT: u16 = 9500;

/// A probe that can register one binding at start and perform scheduled
/// lookups against the node-local location service.
pub struct LookupProbe {
    register: Option<(String, SocketAddr)>,
    lookups: Vec<(SimTime, String)>,
    issued: Vec<SimTime>,
    results: LookupLog,
    next_xid: u32,
}

impl std::fmt::Debug for LookupProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookupProbe").finish_non_exhaustive()
    }
}

impl LookupProbe {
    /// Creates a probe and the handle to its results.
    pub fn new(
        register: Option<(String, SocketAddr)>,
        lookups: Vec<(SimTime, String)>,
    ) -> (LookupProbe, LookupLog) {
        let results: LookupLog = Rc::new(RefCell::new(Vec::new()));
        (
            LookupProbe {
                register,
                lookups,
                issued: Vec::new(),
                results: results.clone(),
                next_xid: 100,
            },
            results,
        )
    }
}

impl Process for LookupProbe {
    fn name(&self) -> &'static str {
        "lookup-probe"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(PROBE_PORT);
        if let Some((key, contact)) = self.register.take() {
            self.next_xid += 1;
            let m = SlpMsg::SrvReg {
                xid: self.next_xid,
                service_type: "sip".to_owned(),
                key,
                contact,
                lifetime_secs: 3600,
            };
            ctx.send_local(ports::SLP, PROBE_PORT, m.to_wire());
        }
        for (i, (at, _)) in self.lookups.iter().enumerate() {
            ctx.set_timer(at.saturating_since(ctx.now()), i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some((_, key)) = self.lookups.get(token as usize).cloned() else {
            return;
        };
        self.next_xid += 1;
        self.issued.push(ctx.now());
        let m = SlpMsg::SrvRqst {
            xid: self.next_xid,
            service_type: "sip".to_owned(),
            key,
        };
        ctx.send_local(ports::SLP, PROBE_PORT, m.to_wire());
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        if let Ok(SlpMsg::SrvRply { entries, .. }) = SlpMsg::parse(&dgram.payload) {
            let k = self.results.borrow().len();
            let issued = self.issued.get(k).copied().unwrap_or(ctx.now());
            self.results.borrow_mut().push(LookupResult {
                issued,
                answered: ctx.now(),
                found: !entries.is_empty(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::SPACING;

    #[test]
    fn probe_measures_each_service_kind() {
        for kind in LocationKind::all() {
            let mut w = World::new(WorldConfig::new(17).with_radio(RadioConfig::ideal()));
            let a = add_location_node(&mut w, kind, 0.0, 0.0);
            let b = add_location_node(&mut w, kind, SPACING, 0.0);
            let (reg, _) = LookupProbe::new(
                Some(("bob@v.ch".into(), "10.0.0.2:5060".parse().unwrap())),
                Vec::new(),
            );
            w.spawn(b, Box::new(reg));
            let (probe, results) =
                LookupProbe::new(None, vec![(SimTime::from_secs(30), "bob@v.ch".to_owned())]);
            w.spawn(a, Box::new(probe));
            w.run_for(SimDuration::from_secs(45));
            let r = results.borrow();
            assert_eq!(r.len(), 1, "{}: lookup must be answered", kind.label());
            assert!(r[0].found, "{}: binding must be found", kind.label());
            assert!(
                r[0].latency() < SimDuration::from_secs(10),
                "{}",
                kind.label()
            );
        }
    }
}
