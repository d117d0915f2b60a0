//! Location-service scaffolding of E2, E3, E7 and A1.
//!
//! Every location service in the workspace — MANET SLP in both
//! dissemination modes, standard SLP, broadcast registration, proactive
//! HELLO — answers the same client API on `127.0.0.1:427`, so one probe
//! process measures them all interchangeably.

use std::cell::RefCell;
use std::rc::Rc;

use siphoc_core::baselines::{self, BroadcastRegistration};
use siphoc_routing::aodv::AodvProcess;
use siphoc_routing::handler::SharedHandler;
use siphoc_routing::olsr::OlsrProcess;
use siphoc_simnet::net::{ports, Datagram, SocketAddr};
use siphoc_simnet::node::NodeConfig;
use siphoc_simnet::prelude::*;
use siphoc_simnet::process::{Ctx, Process};
use siphoc_slp::manet::{shared_registry, Dissemination, ManetSlpHandler, ManetSlpProcess};
use siphoc_slp::msg::SlpMsg;
use siphoc_slp::standard::StandardSlpProcess;

use crate::grid::Column;
use crate::worlds::grid_positions;

/// A location service, with the routing protocol it runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocationKind {
    /// MANET SLP over AODV (on-demand piggybacking) — SIPHoc's default:
    /// unchanged entries re-attach to periodic messages at most every 8 s.
    ManetSlpAodv,
    /// The same with the throttle off, so entries ride *every* routing
    /// message — the naive reading of the paper's mechanism (A1 only).
    ManetSlpAodvUnthrottled,
    /// MANET SLP over OLSR (proactive piggybacking).
    ManetSlpOlsr,
    /// RFC 2608 multicast-convergence SLP (runs over AODV).
    StandardSlp,
    /// Broadcast-REGISTER flooding (Leggio et al.; runs over AODV).
    BroadcastReg,
    /// Proactive HELLO mapping (Pico SIP; runs over AODV), one dedicated
    /// message per node every this many seconds.
    ProactiveHello(u64),
}

/// The five services E2, E3 and E7 compare, under their table labels.
pub const SERVICES: [(&str, LocationKind); 5] = [
    ("manet-slp/aodv", LocationKind::ManetSlpAodv),
    ("manet-slp/olsr", LocationKind::ManetSlpOlsr),
    ("standard-slp", LocationKind::StandardSlp),
    ("bcast-register", LocationKind::BroadcastReg),
    ("proactive-hello", LocationKind::ProactiveHello(10)),
];

/// The columns of a sweep over [`SERVICES`] (E2, E3): the sweep variable,
/// then one column per service.
pub fn service_columns(sweep: &'static str, precision: usize) -> Vec<Column> {
    let services = SERVICES.map(|(label, _)| Column::num(label, 16, precision));
    [Column::num(sweep, 7, 0)]
        .into_iter()
        .chain(services)
        .collect()
}

/// Spawns routing + the chosen location service on a fresh node at the
/// given position; returns the node id.
pub fn add_location_node(world: &mut World, kind: LocationKind, x: f64, y: f64) -> NodeId {
    use LocationKind::*;
    let id = world.add_node(NodeConfig::manet(x, y));
    // MANET SLP is two halves sharing a registry: the handler the
    // routing process calls, and the process behind the local API.
    let manet_slp = |mode| -> (SharedHandler, Box<dyn Process>) {
        let registry = shared_registry();
        let mut handler = ManetSlpHandler::new(registry.clone(), mode);
        if kind == ManetSlpAodvUnthrottled {
            handler = handler.with_min_readvertise(SimDuration::ZERO);
        }
        let process = ManetSlpProcess::new(mode, registry);
        (Rc::new(RefCell::new(handler)), Box::new(process))
    };
    let aodv = || Box::new(AodvProcess::new());
    let (routing, service): (Box<dyn Process>, Box<dyn Process>) = match kind {
        ManetSlpAodv | ManetSlpAodvUnthrottled => {
            let (handler, slp) = manet_slp(Dissemination::OnDemand);
            (Box::new(AodvProcess::new().with_handler(handler)), slp)
        }
        ManetSlpOlsr => {
            let (handler, slp) = manet_slp(Dissemination::Proactive);
            (Box::new(OlsrProcess::new().with_handler(handler)), slp)
        }
        StandardSlp => (aodv(), Box::new(StandardSlpProcess::new())),
        BroadcastReg => (aodv(), Box::new(BroadcastRegistration::new())),
        ProactiveHello(period) => {
            let period = SimDuration::from_secs(period);
            (aodv(), Box::new(baselines::ProactiveHello::new(period)))
        }
    };
    world.spawn(id, routing);
    world.spawn(id, service);
    id
}

/// A `side × side` grid of [`add_location_node`]s, near corner first.
pub fn location_grid(world: &mut World, kind: LocationKind, side: usize) -> Vec<NodeId> {
    grid_positions(side)
        .map(|(x, y)| add_location_node(world, kind, x, y))
        .collect()
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
struct LookupProbe {
    register: Option<(String, SocketAddr)>,
    lookups: Vec<(SimTime, String)>,
    issued: Vec<SimTime>,
    results: LookupLog,
    next_xid: u32,
}

fn spawn_probe(
    world: &mut World,
    node: NodeId,
    register: Option<(String, SocketAddr)>,
    lookups: Vec<(SimTime, String)>,
) -> LookupLog {
    let results = LookupLog::default();
    let probe = LookupProbe {
        register,
        lookups,
        issued: Vec::new(),
        results: results.clone(),
        next_xid: 100,
    };
    world.spawn(node, Box::new(probe));
    results
}

/// Registers `key` with `node`'s location service, from now on, as
/// reachable at the node's own `:5060`.
pub fn register(world: &mut World, node: NodeId, key: &str) {
    let contact = SocketAddr::new(world.node(node).addr(), 5060);
    spawn_probe(world, node, Some((key.to_owned(), contact)), Vec::new());
}

/// Has `node` look `key` up at each of `times`; the results arrive in the
/// returned log.
pub fn look_up(
    world: &mut World,
    node: NodeId,
    key: &str,
    times: impl Iterator<Item = SimTime>,
) -> LookupLog {
    let lookups = times.map(|t| (t, key.to_owned())).collect();
    spawn_probe(world, node, None, lookups)
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
    use crate::worlds::SPACING;

    #[test]
    fn probe_measures_each_service_kind() {
        for (label, kind) in SERVICES {
            let mut w = World::new(WorldConfig::new(17).with_radio(RadioConfig::ideal()));
            let a = add_location_node(&mut w, kind, 0.0, 0.0);
            let b = add_location_node(&mut w, kind, SPACING, 0.0);
            register(&mut w, b, "bob@v.ch");
            let results = look_up(&mut w, a, "bob@v.ch", [SimTime::from_secs(30)].into_iter());
            w.run_for(SimDuration::from_secs(45));
            let r = results.borrow();
            assert_eq!(r.len(), 1, "{}: lookup must be answered", label);
            assert!(r[0].found, "{}: binding must be found", label);
            assert!(r[0].latency() < SimDuration::from_secs(10), "{}", label);
        }
    }
}
