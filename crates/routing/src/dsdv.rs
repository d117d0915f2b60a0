//! Destination-Sequenced Distance Vector routing (Perkins & Bhagwat).
//!
//! A third routing protocol behind the same plugin interface — the paper
//! only ships AODV and OLSR handlers but stresses that "to assure
//! generality, the routing specific functionality is encapsulated within
//! a routing handler"; DSDV demonstrates that generality. The
//! implementation covers:
//!
//! * periodic full-table broadcasts plus triggered incremental updates,
//! * per-destination sequence numbers (even = alive, odd = broken) for
//!   loop freedom,
//! * route selection by newest sequence, then lowest metric,
//! * link-break propagation with odd sequence numbers,
//! * **piggybacking** through the shared [`RoutingHandler`] interface —
//!   DSDV's periodic updates are a proactive dissemination vehicle like
//!   OLSR's, so pair it with proactive-mode handlers.
//!
//! Omitted from the original paper: settling-time damping of fluctuating
//! routes (update intervals here are long enough that damping never
//! triggers at simulated scale).
//!
//! [`RoutingHandler`]: crate::handler::RoutingHandler

use std::collections::BTreeMap;

use siphoc_simnet::net::{Addr, Datagram, L2Dst, SocketAddr};
use siphoc_simnet::process::{Ctx, LocalEvent, Process};
use siphoc_simnet::route::Route;
use siphoc_simnet::time::{SimDuration, SimTime};

use crate::handler::{fit_budget, MsgKind, SharedHandler, PIGGYBACK_BUDGET};
use crate::wire::{read_entries, write_entries, Reader, WireError, Writer};

/// UDP port for DSDV updates (RIP's, since DSDV has no assignment).
pub const DSDV_PORT: u16 = 520;

/// Metric value meaning unreachable.
pub const METRIC_INFINITY: u8 = 16;

/// Period of full-table broadcasts.
const UPDATE_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Delay before a triggered (incremental) update after a change.
const TRIGGERED_DELAY: SimDuration = SimDuration::from_millis(200);
/// Updates a neighbor may miss before its routes break.
const ALLOWED_UPDATE_LOSS: u64 = 3;

/// One advertised route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsdvEntry {
    /// Destination.
    pub dest: Addr,
    /// Hop count ([`METRIC_INFINITY`] = broken).
    pub metric: u8,
    /// Destination sequence number.
    pub seq: u32,
}

/// A DSDV update message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsdvUpdate {
    /// Advertised routes.
    pub routes: Vec<DsdvEntry>,
    /// Piggybacked service entries.
    pub entries: Vec<Vec<u8>>,
}

impl DsdvUpdate {
    /// Serializes the update.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(1); // version/type
        w.u16(self.routes.len() as u16);
        for r in &self.routes {
            w.addr(r.dest).u8(r.metric).u32(r.seq);
        }
        write_entries(&mut w, &self.entries);
        w.into_bytes()
    }

    /// Parses an update.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input.
    pub fn parse(bytes: &[u8]) -> Result<DsdvUpdate, WireError> {
        let mut r = Reader::new(bytes);
        if r.u8("type")? != 1 {
            return Err(WireError::new("unknown DSDV message type"));
        }
        let n = r.u16("route count")? as usize;
        let mut routes = Vec::with_capacity(n);
        for _ in 0..n {
            routes.push(DsdvEntry {
                dest: r.addr("dest")?,
                metric: r.u8("metric")?,
                seq: r.u32("seq")?,
            });
        }
        Ok(DsdvUpdate {
            routes,
            entries: read_entries(&mut r)?,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct TableEntry {
    next_hop: Addr,
    metric: u8,
    seq: u32,
    heard: SimTime,
}

const TAG_PERIODIC: u64 = 1;
const TAG_TRIGGERED: u64 = 2;

/// The DSDV routing process. Spawn exactly one per MANET node.
#[derive(Default)]
pub struct DsdvProcess {
    handler: Option<SharedHandler>,
    own_seq: u32,
    table: BTreeMap<Addr, TableEntry>,
    dirty: bool,
    triggered_armed: bool,
}

impl std::fmt::Debug for DsdvProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsdvProcess")
            .field("routes", &self.table.len())
            .field("own_seq", &self.own_seq)
            .finish_non_exhaustive()
    }
}

impl DsdvProcess {
    /// Creates a process with no handler.
    pub fn new() -> DsdvProcess {
        DsdvProcess::default()
    }

    /// Attaches the piggyback handler.
    pub fn with_handler(mut self, handler: SharedHandler) -> DsdvProcess {
        self.handler = Some(handler);
        self
    }

    /// Number of live (non-infinite) routes (diagnostics).
    pub fn route_count(&self) -> usize {
        self.table
            .values()
            .filter(|e| e.metric < METRIC_INFINITY)
            .count()
    }

    fn collect_piggyback(&mut self, ctx: &mut Ctx<'_>) -> Vec<Vec<u8>> {
        match &self.handler {
            Some(h) => {
                // DSDV is a proactive vehicle; reuse the OLSR-TC kind so
                // proactive handlers gossip their full registry.
                let entries = fit_budget(
                    h.borrow_mut()
                        .collect_outgoing(ctx, MsgKind::OlsrTc, PIGGYBACK_BUDGET),
                    PIGGYBACK_BUDGET,
                );
                let extra: usize = entries.iter().map(|e| e.len() + 2).sum();
                if extra > 0 {
                    ctx.stats().count("dsdv.piggyback", extra);
                }
                entries
            }
            None => Vec::new(),
        }
    }

    fn broadcast_update(&mut self, ctx: &mut Ctx<'_>, full: bool) {
        self.own_seq = self.own_seq.wrapping_add(2); // stays even
        let mut routes = vec![DsdvEntry {
            dest: ctx.addr(),
            metric: 0,
            seq: self.own_seq,
        }];
        let now = ctx.now();
        let hold = UPDATE_INTERVAL * ALLOWED_UPDATE_LOSS;
        for (dest, e) in &self.table {
            if full || e.metric >= METRIC_INFINITY {
                // Full dumps carry everything; triggered updates at least
                // the broken routes.
                if now.saturating_since(e.heard) <= hold || e.metric >= METRIC_INFINITY {
                    routes.push(DsdvEntry {
                        dest: *dest,
                        metric: e.metric,
                        seq: e.seq,
                    });
                }
            }
        }
        let update = DsdvUpdate {
            routes,
            entries: self.collect_piggyback(ctx),
        };
        let payload = update.to_bytes();
        ctx.stats().count(
            if full {
                "dsdv.full_update"
            } else {
                "dsdv.triggered_update"
            },
            payload.len(),
        );
        let src = SocketAddr::new(ctx.addr(), DSDV_PORT);
        let dst = SocketAddr::new(Addr::BROADCAST, DSDV_PORT);
        ctx.send_link(L2Dst::Broadcast, Datagram::new(src, dst, payload));
        self.dirty = false;
    }

    fn arm_triggered(&mut self, ctx: &mut Ctx<'_>) {
        self.dirty = true;
        if !self.triggered_armed {
            self.triggered_armed = true;
            ctx.set_timer(TRIGGERED_DELAY, TAG_TRIGGERED);
        }
    }

    /// DSDV acceptance rule: newer sequence wins; same sequence keeps the
    /// better metric.
    fn consider(&mut self, ctx: &mut Ctx<'_>, dest: Addr, via: Addr, metric: u8, seq: u32) {
        if dest == ctx.addr() {
            return;
        }
        let now = ctx.now();
        let accept = match self.table.get(&dest) {
            None => true,
            Some(cur) => {
                let newer = (seq.wrapping_sub(cur.seq) as i32) > 0;
                newer || (seq == cur.seq && metric < cur.metric)
            }
        };
        if !accept {
            return;
        }
        let had_route = self
            .table
            .get(&dest)
            .map(|e| e.metric < METRIC_INFINITY)
            .unwrap_or(false);
        self.table.insert(
            dest,
            TableEntry {
                next_hop: via,
                metric,
                seq,
                heard: now,
            },
        );
        if metric < METRIC_INFINITY {
            self.install(ctx, dest);
            if !had_route {
                ctx.emit(LocalEvent::RouteAdded { dst: dest });
            }
        } else {
            ctx.routes().remove(dest);
            if had_route {
                ctx.emit(LocalEvent::RouteLost { dst: dest });
            }
            self.arm_triggered(ctx);
        }
    }

    fn install(&self, ctx: &mut Ctx<'_>, dest: Addr) {
        let Some(e) = self.table.get(&dest) else {
            return;
        };
        let expires = ctx.now() + UPDATE_INTERVAL * (ALLOWED_UPDATE_LOSS + 1);
        ctx.routes().insert(
            dest,
            Route {
                next_hop: e.next_hop,
                hops: e.metric,
                expires,
                seq: e.seq,
            },
        );
    }

    fn on_update(&mut self, ctx: &mut Ctx<'_>, from: Addr, update: DsdvUpdate) {
        // The sender itself is a 1-hop neighbor.
        self.consider(
            ctx,
            from,
            from,
            1,
            self.table.get(&from).map(|e| e.seq).unwrap_or(0),
        );
        for r in &update.routes {
            let metric = r.metric.saturating_add(1).min(METRIC_INFINITY);
            self.consider(ctx, r.dest, from, metric, r.seq);
        }
        if let Some(h) = &self.handler {
            if !update.entries.is_empty() {
                let _ = h.borrow_mut().process_incoming(
                    ctx,
                    MsgKind::OlsrTc,
                    from,
                    from,
                    &update.entries,
                );
            }
        }
    }

    fn break_via(&mut self, ctx: &mut Ctx<'_>, neighbor: Addr) {
        let mut broke = false;
        for (dest, e) in self.table.iter_mut() {
            if e.next_hop == neighbor && e.metric < METRIC_INFINITY {
                e.metric = METRIC_INFINITY;
                e.seq = e.seq.wrapping_add(1); // odd = broken, owned by us
                ctx.routes().remove(*dest);
                ctx.emit(LocalEvent::RouteLost { dst: *dest });
                broke = true;
            }
        }
        if broke {
            self.arm_triggered(ctx);
        }
    }

    fn sweep_silent_neighbors(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let hold = UPDATE_INTERVAL * ALLOWED_UPDATE_LOSS;
        let silent: Vec<Addr> = self
            .table
            .iter()
            .filter(|(_, e)| e.metric == 1 && now.saturating_since(e.heard) > hold)
            .map(|(d, _)| *d)
            .collect();
        for n in silent {
            self.break_via(ctx, n);
        }
    }
}

impl Process for DsdvProcess {
    fn name(&self) -> &'static str {
        "dsdv"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(DSDV_PORT);
        let jitter = ctx.rng().range_u64(0, UPDATE_INTERVAL.as_micros());
        ctx.set_timer(SimDuration::from_micros(jitter), TAG_PERIODIC);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let from = dgram.src.addr;
        if from == ctx.addr() {
            return;
        }
        match DsdvUpdate::parse(&dgram.payload) {
            Ok(update) => {
                // Mark the neighbor as freshly heard.
                if let Some(e) = self.table.get_mut(&from) {
                    e.heard = ctx.now();
                }
                self.on_update(ctx, from, update);
            }
            Err(_) => ctx.stats().count("dsdv.malformed", dgram.payload.len()),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TAG_PERIODIC => {
                self.sweep_silent_neighbors(ctx);
                self.broadcast_update(ctx, true);
                ctx.set_timer(UPDATE_INTERVAL, TAG_PERIODIC);
            }
            TAG_TRIGGERED => {
                self.triggered_armed = false;
                if self.dirty {
                    self.broadcast_update(ctx, false);
                }
            }
            _ => {}
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        match ev {
            LocalEvent::LinkTxFailed { neighbor } => self.break_via(ctx, *neighbor),
            LocalEvent::NodeRestarted => {
                self.table.clear();
                self.dirty = false;
                self.triggered_armed = false;
                ctx.set_timer(SimDuration::from_millis(10), TAG_PERIODIC);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn chain(n: usize) -> (World, Vec<NodeId>) {
        let mut w = World::new(WorldConfig::new(91).with_radio(RadioConfig::ideal()));
        let ids: Vec<NodeId> = (0..n)
            .map(|i| w.add_node(NodeConfig::manet(i as f64 * 80.0, 0.0)))
            .collect();
        for &id in &ids {
            w.spawn(id, Box::new(DsdvProcess::new()));
        }
        (w, ids)
    }

    #[test]
    fn update_round_trips() {
        let u = DsdvUpdate {
            routes: vec![
                DsdvEntry {
                    dest: Addr::manet(0),
                    metric: 0,
                    seq: 4,
                },
                DsdvEntry {
                    dest: Addr::manet(5),
                    metric: METRIC_INFINITY,
                    seq: 7,
                },
            ],
            entries: vec![b"svc".to_vec()],
        };
        assert_eq!(DsdvUpdate::parse(&u.to_bytes()).unwrap(), u);
        assert!(DsdvUpdate::parse(&[9]).is_err());
        assert!(DsdvUpdate::parse(&[]).is_err());
    }

    #[test]
    fn proactive_routes_converge_along_chain() {
        let (mut w, ids) = chain(5);
        // Convergence needs diameter × update_interval in the worst case.
        w.run_for(SimDuration::from_secs(60));
        for &a in &ids {
            for &b in &ids {
                if a == b {
                    continue;
                }
                let dst = w.node(b).addr();
                assert!(
                    w.node(a).routes().lookup_specific(dst, w.now()).is_some(),
                    "missing route {a}->{b}"
                );
            }
        }
        let far = w.node(ids[4]).addr();
        assert_eq!(
            w.node(ids[0])
                .routes()
                .lookup_specific(far, w.now())
                .unwrap()
                .hops,
            4
        );
    }

    #[test]
    fn data_flows_over_dsdv_routes() {
        struct Sink {
            got: Rc<RefCell<u32>>,
        }
        impl Process for Sink {
            fn name(&self) -> &'static str {
                "sink"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.bind(9000);
            }
            fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _d: &Datagram) {
                *self.got.borrow_mut() += 1;
            }
        }
        let (mut w, ids) = chain(4);
        let got = Rc::new(RefCell::new(0));
        w.spawn(ids[3], Box::new(Sink { got: got.clone() }));
        w.run_for(SimDuration::from_secs(60));
        let (src, dst) = (w.node(ids[0]).addr(), w.node(ids[3]).addr());
        w.inject(
            ids[0],
            Datagram::new(
                SocketAddr::new(src, 9000),
                SocketAddr::new(dst, 9000),
                b"dsdv".to_vec(),
            ),
        );
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(*got.borrow(), 1);
    }

    #[test]
    fn broken_link_produces_odd_sequence_and_heals() {
        let (mut w, ids) = chain(3);
        w.run_for(SimDuration::from_secs(60));
        let far = w.node(ids[2]).addr();
        assert!(w
            .node(ids[0])
            .routes()
            .lookup_specific(far, w.now())
            .is_some());
        w.set_node_up(ids[1], false);
        // Silent-neighbor detection needs allowed_update_loss × interval.
        w.run_for(SimDuration::from_secs(60));
        assert!(
            w.node(ids[0])
                .routes()
                .lookup_specific(far, w.now())
                .is_none(),
            "route via dead relay must break"
        );
        w.set_node_up(ids[1], true);
        w.run_for(SimDuration::from_secs(60));
        assert!(
            w.node(ids[0])
                .routes()
                .lookup_specific(far, w.now())
                .is_some(),
            "route must heal after relay restart"
        );
    }

    #[test]
    fn newer_sequence_replaces_worse_metric_only_when_newer() {
        let mut p = DsdvProcess::new();
        // Drive `consider` directly through a minimal ctx.
        let mut rng = siphoc_simnet::rng::SimRng::from_seed_and_stream(0, 0);
        let mut routes = siphoc_simnet::route::RoutingTable::new();
        let mut stats = siphoc_simnet::stats::NodeStats::default();
        let mut obs = siphoc_simnet::obs::NodeObs::default();
        let mut effects = Vec::new();
        let mut ctx = siphoc_simnet::process::Ctx::for_test(
            SimTime::ZERO,
            NodeId(0),
            Addr::manet(0),
            &mut rng,
            &mut routes,
            &mut stats,
            &mut obs,
            &mut effects,
        );
        let dest = Addr::manet(9);
        p.consider(&mut ctx, dest, Addr::manet(1), 3, 10);
        assert_eq!(p.table[&dest].metric, 3);
        // Same seq, worse metric: rejected.
        p.consider(&mut ctx, dest, Addr::manet(2), 5, 10);
        assert_eq!(p.table[&dest].metric, 3);
        // Same seq, better metric: accepted.
        p.consider(&mut ctx, dest, Addr::manet(2), 2, 10);
        assert_eq!(p.table[&dest].metric, 2);
        // Newer seq, worse metric: accepted (freshness wins).
        p.consider(&mut ctx, dest, Addr::manet(3), 6, 12);
        assert_eq!(p.table[&dest].metric, 6);
    }
}
