//! The Connection Provider.
//!
//! Paper §2: "a Connection Provider that manages connections of the node
//! to the Internet when there is a gateway in the MANET. It periodically
//! checks whether it can find a gateway service (using MANET SLP) and
//! open\[s\] a layer two tunnel connection to the node offering the tunnel
//! server."
//!
//! Once a lease is held, the Connection Provider is the node's default
//! handler: Internet-bound datagrams the stack cannot route are captured,
//! source-NATed to the leased public address and encapsulated toward the
//! gateway; tunneled traffic from the gateway is decapsulated and
//! re-injected locally. It tells the rest of the node about connectivity
//! changes through the [`INTERNET_UP_EVENT`] / [`INTERNET_DOWN_EVENT`]
//! node-local events the SIPHoc proxy listens for.

use std::collections::BTreeMap;

use siphoc_simnet::net::{ports, Addr, Datagram, SocketAddr};
use siphoc_simnet::obs::{SpanCat, SpanId};
use siphoc_simnet::process::{Ctx, LocalEvent, Process};
use siphoc_simnet::time::{SimDuration, SimTime};

use siphoc_slp::manet::SharedRegistry;
use siphoc_slp::msg::SlpMsg;
use siphoc_slp::registry::rank_gateways;
use siphoc_slp::service::{service_types, ServiceEntry};

use crate::tunnel::TunnelMsg;

/// Node-local event: the node is attached to the Internet. Payload:
/// the public address, as text.
pub const INTERNET_UP_EVENT: &str = "siphoc.internet_up";
/// Node-local event: Internet attachment lost. No payload.
pub const INTERNET_DOWN_EVENT: &str = "siphoc.internet_down";

/// Port the Connection Provider uses for its SLP client exchanges.
const CP_SLP_PORT: u16 = 4271;

/// Period of the gateway-service check (paper: "periodically checks").
const CHECK_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// How long to wait for a lease reply before retrying.
const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Consecutive refresh failures before declaring the tunnel down.
const MAX_REFRESH_FAILURES: u32 = 2;
/// Ceiling for the exponential backoff applied to re-probes after
/// repeated gateway failures (lease refusals, connect timeouts, refresh
/// losses). The first retry still happens after `CHECK_INTERVAL`; each
/// further consecutive failure doubles the wait, capped here and jittered
/// to avoid synchronized probing.
const BACKOFF_MAX: SimDuration = SimDuration::from_secs(60);

/// Connection Provider configuration.
#[derive(Debug, Clone)]
pub struct ConnectionProviderConfig {
    /// The node's own wired public address, when it *is* a gateway — the
    /// provider then reports connectivity immediately and never tunnels.
    pub wired_public: Option<Addr>,
    /// Interval between tunnel liveness pings while Connected.
    /// `SimDuration::ZERO` disables keepalives entirely, restoring the
    /// lease-refresh-only liveness of the pre-handoff provider.
    pub keepalive_interval: SimDuration,
    /// Consecutive unanswered pings before the gateway is declared dead
    /// and a mid-call handoff begins. Detection latency is therefore
    /// `(keepalive_max_missed + 1) * keepalive_interval` in the worst
    /// case — ~4 s with the defaults, inside the 5 s handoff budget.
    pub keepalive_max_missed: u32,
    /// Number of *warm standby* leases to hold alongside the active one
    /// (make-before-break). Each standby is a live lease on a ranked
    /// `service:gateway` candidate, kept warm with its own keepalive and
    /// refresh chains, so a dead active gateway is replaced by promotion
    /// instead of a fresh handshake. `0` disables multi-homing and
    /// restores the cold-contact (break-before-make) failover.
    pub standby_target: u32,
    /// Period of the standby maintenance scan: expired or dead standbys
    /// are dropped and the warm set is replenished back to
    /// `standby_target` from the current gateway ranking.
    pub standby_refresh: SimDuration,
}

impl Default for ConnectionProviderConfig {
    fn default() -> ConnectionProviderConfig {
        ConnectionProviderConfig {
            wired_public: None,
            keepalive_interval: SimDuration::from_secs(1),
            keepalive_max_missed: 3,
            standby_target: 1,
            standby_refresh: SimDuration::from_secs(10),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    /// No gateway known.
    Idle,
    /// SLP query outstanding.
    Probing { xid: u32 },
    /// TCONNECT sent, waiting for the lease.
    Connecting { gateway: SocketAddr, attempts: u32 },
    /// Tunnel established.
    Connected {
        gateway: SocketAddr,
        public: Addr,
        lease: SimDuration,
        refresh_failures: u32,
        refresh_outstanding: bool,
        missed_pings: u32,
    },
}

const TAG_CHECK: u64 = 1;
const TAG_CONNECT_TIMEOUT: u64 = 2;
const TAG_REFRESH: u64 = 3;
const TAG_KEEPALIVE: u64 = 4;
const TAG_STANDBY_SCAN: u64 = 5;
const TAG_STANDBY_KA: u64 = 6;
const TAG_STANDBY_REFRESH: u64 = 7;
const TAG_STANDBY_TIMEOUT: u64 = 8;

/// Timers cannot be cancelled, so the refresh and keepalive chains carry a
/// generation in the token's upper bits; a fired timer whose generation no
/// longer matches is a stale chain and is ignored. Standby chains carry
/// the standby's id instead — a fired timer whose id no longer names a
/// live standby is likewise stale.
const fn tok(tag: u64, gen: u64) -> u64 {
    tag | (gen << 8)
}

/// A warm standby: a live lease held on a non-active gateway, pre-warmed
/// so promotion at handoff time is a state flip, not a handshake.
#[derive(Debug, Clone)]
struct Standby {
    /// Distinguishes this standby's timer chains from any predecessor's.
    id: u64,
    /// The gateway's tunnel-server contact.
    gateway: SocketAddr,
    /// The node that advertised the gateway (hop ranking, liveness).
    origin: Addr,
    /// The leased public address once the standby is warm; `None` while
    /// the TCONNECT is still outstanding.
    public: Option<Addr>,
    /// Granted lease lifetime.
    lease: SimDuration,
    /// When the standby's lease lapses unless refreshed.
    lease_expires: SimTime,
    /// When the gateway's SLP advert lapses; a standby whose advert
    /// expired is dropped (`cp.standby_expired`) — the gateway stopped
    /// re-announcing and is not worth keeping warm.
    advert_expires: SimTime,
    /// Consecutive unanswered standby keepalive pings.
    missed_pings: u32,
}

/// A cold standby contact from the last probe: no lease held, just a
/// ranked fallback for when the registry has nothing better.
#[derive(Debug, Clone)]
struct ColdContact {
    contact: SocketAddr,
    origin: Addr,
    /// When the advert backing this contact lapses.
    expires: SimTime,
}

/// Orders standby contacts for a failover: fewest hops to the
/// advertising origin first (unreachable last), then the freshest advert,
/// then origin for a stable total order — the same desirability order as
/// `rank_gateways`, applied at failover time instead of insertion time.
fn rank_cold_contacts(contacts: &mut [ColdContact], mut hops_to: impl FnMut(Addr) -> Option<u8>) {
    contacts.sort_by_key(|c| {
        (
            hops_to(c.origin).unwrap_or(u8::MAX),
            std::cmp::Reverse(c.expires),
            c.origin,
        )
    });
}

/// Per-gateway health book: one struct owning both the handoff
/// blocklist (the gateway just watched die) and the attestation pins
/// (trust-on-first-use identity per gateway address). Keeping them
/// together makes the lifecycle explicit: the *dead* mark is transient —
/// cleared when the handoff resolves — while a *pin* is permanent, so a
/// restarted gateway that re-attests under its original key is
/// re-leasable, and one that comes back under a new key never is.
#[derive(Debug, Default)]
pub struct GatewayHealth {
    /// The gateway most recently declared dead. Its SLP adverts may
    /// outlive it in neighbor caches for a full lifetime; every candidate
    /// ranking skips it until the handoff resolves.
    dead: Option<Addr>,
    /// Gateway address → pinned advertiser identity (first signed advert
    /// seen). Defense-in-depth behind the SLP registry's origin pins.
    pins: BTreeMap<Addr, u64>,
}

impl GatewayHealth {
    /// Whether `addr` is the blocklisted dead gateway.
    pub fn is_dead(&self, addr: Addr) -> bool {
        self.dead == Some(addr)
    }

    /// Whether a gateway entry names the blocklisted dead one (by tunnel
    /// contact or by advertising origin).
    pub fn entry_dead(&self, e: &ServiceEntry) -> bool {
        self.is_dead(e.contact.addr) || self.is_dead(e.origin)
    }

    /// Blocklists `addr` for the duration of the current handoff.
    pub fn mark_dead(&mut self, addr: Addr) {
        self.dead = Some(addr);
    }

    /// Ends the blocklist: the handoff resolved (new lease, or declared
    /// outage). Pins persist — death is forgiven, key changes are not.
    pub fn clear_dead(&mut self) {
        self.dead = None;
    }

    /// Attests a signed gateway advert: pins the identity on first use;
    /// a pinned gateway presenting a *different* identity is marked dead
    /// and refused. Returns whether the gateway may be leased from.
    pub fn attest(&mut self, addr: Addr, identity: u64) -> bool {
        match self.pins.get(&addr) {
            Some(pinned) if *pinned != identity => {
                self.dead = Some(addr);
                false
            }
            _ => {
                self.pins.insert(addr, identity);
                true
            }
        }
    }

    /// The identity pinned for a gateway address, if any.
    pub fn pinned(&self, addr: Addr) -> Option<u64> {
        self.pins.get(&addr).copied()
    }
}

/// The Connection Provider process.
#[derive(Debug)]
pub struct ConnectionProvider {
    cfg: ConnectionProviderConfig,
    state: State,
    next_xid: u32,
    consecutive_failures: u32,
    handshake_span: SpanId,
    handshake_started_us: u64,
    /// Generation of the live keepalive timer chain.
    ka_gen: u64,
    /// Generation of the live lease-refresh timer chain.
    refresh_gen: u64,
    ping_seq: u64,
    /// Cold `service:gateway` contacts beyond the one we leased from —
    /// the fallback set a handoff re-ranks when no warm standby survives.
    standby: Vec<ColdContact>,
    /// Warm standby leases (make-before-break), at most
    /// `cfg.standby_target` of them.
    warm: Vec<Standby>,
    /// Id generator for standby timer chains.
    next_standby_id: u64,
    /// Generation of the live standby maintenance scan chain.
    scan_gen: u64,
    /// The node's MANET SLP registry, for ranking fresh gateway
    /// candidates at handoff time.
    registry: Option<SharedRegistry>,
    handoff_span: SpanId,
    handoff_started_us: u64,
    /// The public address held when the current handoff began; `Some`
    /// exactly while a handoff is in flight.
    handoff_from: Option<Addr>,
    /// Dead-gateway blocklist and attestation pins, one book.
    gw_health: GatewayHealth,
    /// Earliest time the next exhaustive gateway sweep may run. The
    /// registry only learns what floods past this node; when the warm set
    /// is short, the scan sweeps the network for additional gateways —
    /// throttled, since a single-gateway MANET would otherwise flood on
    /// every scan forever.
    next_sweep_at: SimTime,
}

impl ConnectionProvider {
    /// Creates a Connection Provider.
    pub fn new(cfg: ConnectionProviderConfig) -> ConnectionProvider {
        ConnectionProvider {
            cfg,
            state: State::Idle,
            next_xid: 0,
            consecutive_failures: 0,
            handshake_span: SpanId::NONE,
            handshake_started_us: 0,
            ka_gen: 0,
            refresh_gen: 0,
            ping_seq: 0,
            standby: Vec::new(),
            warm: Vec::new(),
            next_standby_id: 0,
            scan_gen: 0,
            registry: None,
            handoff_span: SpanId::NONE,
            handoff_started_us: 0,
            handoff_from: None,
            gw_health: GatewayHealth::default(),
            next_sweep_at: SimTime::ZERO,
        }
    }

    /// Attaches the node's shared MANET SLP registry so gateway handoff
    /// can rank live `service:gateway` candidates instead of re-probing.
    pub fn with_registry(mut self, registry: SharedRegistry) -> ConnectionProvider {
        self.registry = Some(registry);
        self
    }

    /// Whether the node currently holds a tunnel lease (or is a gateway).
    pub fn is_connected(&self) -> bool {
        self.cfg.wired_public.is_some() || matches!(self.state, State::Connected { .. })
    }

    fn probe(&mut self, ctx: &mut Ctx<'_>) {
        self.next_xid += 1;
        let xid = self.next_xid;
        self.state = State::Probing { xid };
        ctx.stats().count("cp.probe", 1);
        let m = SlpMsg::SrvRqst {
            xid,
            service_type: service_types::GATEWAY.to_owned(),
            key: String::new(),
        };
        ctx.send_local(ports::SLP, CP_SLP_PORT, m.to_wire());
    }

    /// Schedules the next gateway re-check, backing off exponentially
    /// (with jitter) after consecutive failures so a gateway-less MANET
    /// is not flooded with synchronized probe traffic.
    fn schedule_recheck(&mut self, ctx: &mut Ctx<'_>) {
        let shift = self.consecutive_failures.min(16);
        let backoff = CHECK_INTERVAL
            .as_micros()
            .saturating_mul(1u64 << shift)
            .min(BACKOFF_MAX.as_micros());
        // Uniform in [backoff/2, backoff): desynchronizes nodes that all
        // lost the same gateway at the same instant.
        let delay = ctx.rng().range_u64((backoff / 2).max(1), backoff.max(2));
        ctx.set_timer(SimDuration::from_micros(delay), TAG_CHECK);
    }

    fn connect(&mut self, ctx: &mut Ctx<'_>, gateway: SocketAddr, attempts: u32) {
        self.state = State::Connecting { gateway, attempts };
        if attempts == 0 {
            self.handshake_span = ctx.span_enter(SpanCat::Tunnel, "tunnel.handshake");
            if ctx.obs().tracing() {
                let corr = gateway.addr.to_string();
                ctx.obs().span_corr(self.handshake_span, &corr);
            }
            self.handshake_started_us = ctx.now_us();
        }
        ctx.stats().count("cp.tconnect", 1);
        ctx.send_to(gateway, ports::TUNNEL, TunnelMsg::Connect.to_wire());
        ctx.set_timer(CONNECT_TIMEOUT, TAG_CONNECT_TIMEOUT);
    }

    fn teardown(&mut self, ctx: &mut Ctx<'_>) {
        // A handshake abandoned mid-flight (e.g. restart while Connecting)
        // must not linger as an open span.
        ctx.span_exit(self.handshake_span, false);
        self.handshake_span = SpanId::NONE;
        // Likewise a handoff in flight: give up on it cleanly (emits
        // INTERNET_DOWN, releases the default handler).
        self.fail_handoff(ctx);
        self.ka_gen += 1;
        self.refresh_gen += 1;
        self.standby.clear();
        if let State::Connected { public, .. } = self.state {
            ctx.remove_local_addr(public);
            ctx.set_default_handler(false);
            ctx.emit(LocalEvent::Custom {
                kind: INTERNET_DOWN_EVENT,
                data: Vec::new(),
            });
            ctx.stats().count("cp.tunnel_down", 1);
        }
        self.state = State::Idle;
    }

    /// Ranked `service:gateway` entries for every live advert the node
    /// knows, best first, excluding `exclude` (the gateway just declared
    /// dead).
    fn candidate_gateways(&mut self, ctx: &Ctx<'_>, exclude: Option<Addr>) -> Vec<ServiceEntry> {
        let Some(reg) = self.registry.clone() else {
            return Vec::new();
        };
        let now = ctx.now();
        let mut entries: Vec<ServiceEntry> = {
            let routes = ctx.routes_ref();
            reg.borrow()
                .gateway_candidates(now, |a| routes.lookup_specific(a, now).map(|r| r.hops))
        };
        entries.retain(|e| exclude != Some(e.contact.addr) && exclude != Some(e.origin));
        let mut kept = Vec::with_capacity(entries.len());
        for e in entries {
            if self.admit_gateway(&e) {
                kept.push(e);
            }
        }
        kept
    }

    /// Judges one offered gateway entry: signed adverts must pass
    /// attestation (trust-on-first-use identity pin — a pinned gateway
    /// that changed keys is marked dead here), and the handoff blocklist
    /// refuses the gateway just watched die. Unsigned entries skip
    /// attestation, keeping the legacy path byte-identical.
    fn admit_gateway(&mut self, e: &ServiceEntry) -> bool {
        if let Some(identity) = e.advertiser_identity() {
            if !self.gw_health.attest(e.contact.addr, identity) {
                return false;
            }
        }
        !self.gw_health.entry_dead(e)
    }

    /// Pops the best remaining cold standby contact, dropping entries for
    /// the gateway that just failed and contacts whose backing advert
    /// lapsed, then **re-ranking the survivors against current routes** —
    /// the ranking captured at probe time is stale by the time a failover
    /// needs it (nodes moved, routes changed, adverts refreshed).
    fn next_standby(&mut self, ctx: &mut Ctx<'_>, failed: Addr) -> Option<SocketAddr> {
        let now = ctx.now();
        self.standby
            .retain(|c| c.contact.addr != failed && c.origin != failed);
        let before = self.standby.len();
        self.standby.retain(|c| c.expires > now);
        let lapsed = before - self.standby.len();
        if lapsed > 0 {
            ctx.stats().count("cp.standby_expired", lapsed);
        }
        {
            let routes = ctx.routes_ref();
            rank_cold_contacts(&mut self.standby, |a| {
                routes.lookup_specific(a, now).map(|r| r.hops)
            });
        }
        if self.standby.is_empty() {
            None
        } else {
            Some(self.standby.remove(0).contact)
        }
    }

    /// Records the tail of a gateway ranking as the cold fallback set.
    fn keep_cold(&mut self, entries: &[ServiceEntry], now: SimTime) {
        self.standby = entries
            .iter()
            .map(|e| ColdContact {
                contact: e.contact,
                origin: e.origin,
                expires: e.expires_at(now),
            })
            .collect();
    }

    /// Drops every warm standby (teardown, declared outage) and kills the
    /// maintenance scan chain. Nothing is released on the gateway side:
    /// standby leases are soft state and expire there.
    fn drop_standbys(&mut self, ctx: &mut Ctx<'_>) {
        let warm = self.warm.iter().filter(|s| s.public.is_some()).count();
        if warm > 0 {
            ctx.stats().count("cp.standby_drop", warm);
        }
        self.warm.clear();
        self.scan_gen += 1;
    }

    /// One standby maintenance pass: refresh advert lifetimes from the
    /// registry, expire standbys whose advert or lease lapsed, and
    /// replenish the warm set back to `standby_target` from the current
    /// gateway ranking. Runs on the `TAG_STANDBY_SCAN` chain while a
    /// lease is held.
    fn maintain_standbys(&mut self, ctx: &mut Ctx<'_>) {
        let State::Connected { gateway, .. } = &self.state else {
            return;
        };
        let active = gateway.addr;
        let now = ctx.now();
        let candidates = self.candidate_gateways(ctx, Some(active));
        // A steadily re-announced gateway must not age out of the warm
        // set: adopt the freshest advert lifetime the registry holds.
        for s in &mut self.warm {
            if let Some(e) = candidates.iter().find(|e| e.origin == s.origin) {
                s.advert_expires = s.advert_expires.max(e.expires_at(now));
            }
        }
        self.expire_standbys(ctx, now);
        let before = self.standby.len();
        self.standby.retain(|c| c.expires > now);
        let lapsed = before - self.standby.len();
        if lapsed > 0 {
            ctx.stats().count("cp.standby_expired", lapsed);
        }
        // Replenish: best-ranked candidates first, cold contacts as a
        // last resort, skipping gateways already in the warm set.
        let mut pool: Vec<(SocketAddr, Addr, SimTime)> = candidates
            .iter()
            .map(|e| (e.contact, e.origin, e.expires_at(now)))
            .collect();
        for c in &self.standby {
            if c.contact.addr != active && !pool.iter().any(|(ct, ..)| ct.addr == c.contact.addr) {
                pool.push((c.contact, c.origin, c.expires));
            }
        }
        for (contact, origin, advert_expires) in pool {
            if self.warm.len() as u32 >= self.cfg.standby_target {
                break;
            }
            if self
                .warm
                .iter()
                .any(|s| s.gateway.addr == contact.addr || s.origin == origin)
            {
                continue;
            }
            if self.gw_health.is_dead(contact.addr) || self.gw_health.is_dead(origin) {
                continue;
            }
            self.next_standby_id += 1;
            let id = self.next_standby_id;
            self.warm.push(Standby {
                id,
                gateway: contact,
                origin,
                public: None,
                lease: SimDuration::ZERO,
                lease_expires: now,
                advert_expires,
                missed_pings: 0,
            });
            ctx.stats().count("cp.standby_connect", 1);
            ctx.send_to(contact, ports::TUNNEL, TunnelMsg::Connect.to_wire());
            ctx.set_timer(CONNECT_TIMEOUT, tok(TAG_STANDBY_TIMEOUT, id));
        }
        // Still short of the target? The registry holds too few distinct
        // gateways — sweep the network for more. Answers are absorbed into
        // the registry as they flood back; a later scan warms them. (The
        // startup probe races every node's simultaneous discovery and is
        // answered by the *nearest* match, so a multi-homed node must keep
        // looking for alternatives it never heard of.)
        if (self.warm.len() as u32) < self.cfg.standby_target && now >= self.next_sweep_at {
            self.next_sweep_at = now + self.cfg.standby_refresh.max(SimDuration::from_secs(5));
            self.next_xid += 1;
            ctx.stats().count("cp.standby_sweep", 1);
            let m = SlpMsg::SrvRqstX {
                xid: self.next_xid,
                service_type: service_types::GATEWAY.to_owned(),
                key: String::new(),
            };
            ctx.send_local(ports::SLP, CP_SLP_PORT, m.to_wire());
        }
    }

    /// Drops warm standbys whose SLP advert lifetime (or held lease)
    /// lapsed, with the `cp.standby_expired` counter.
    fn expire_standbys(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let before = self.warm.len();
        self.warm
            .retain(|s| s.advert_expires > now && (s.public.is_none() || s.lease_expires > now));
        let lapsed = before - self.warm.len();
        if lapsed > 0 {
            ctx.stats().count("cp.standby_expired", lapsed);
        }
    }

    /// Flips a warm standby into the active lease (make-before-break
    /// promotion): the standby tunnel is already up, leased and verified
    /// live, so the handoff completes in the same event that detected the
    /// death — no handshake on the critical path.
    fn promote(&mut self, ctx: &mut Ctx<'_>, s: Standby) {
        let public = s.public.expect("only warm standbys are promoted");
        let now = ctx.now();
        let lease = s.lease_expires.saturating_since(now);
        self.state = State::Connected {
            gateway: s.gateway,
            public,
            lease,
            refresh_failures: 0,
            refresh_outstanding: false,
            missed_pings: 0,
        };
        self.consecutive_failures = 0;
        ctx.add_local_addr(public);
        ctx.set_default_handler(true);
        ctx.stats().count("cp.promote", 1);
        ctx.emit(LocalEvent::Custom {
            kind: INTERNET_UP_EVENT,
            data: public.to_string().into_bytes(),
        });
        // Re-anchor the refresh and liveness chains on the promoted
        // gateway; the standby's own chains died with its removal. The
        // immediate TCONNECT re-confirms the lease server-side.
        self.refresh_gen += 1;
        ctx.stats().count("cp.tconnect", 1);
        ctx.send_to(s.gateway, ports::TUNNEL, TunnelMsg::Connect.to_wire());
        let refresh_in = lease.max(SimDuration::from_secs(2)) / 2;
        ctx.set_timer(refresh_in, tok(TAG_REFRESH, self.refresh_gen));
        if !self.cfg.keepalive_interval.is_zero() {
            self.ka_gen += 1;
            ctx.set_timer(self.cfg.keepalive_interval, tok(TAG_KEEPALIVE, self.ka_gen));
        }
        if self.handoff_from.take().is_some() {
            ctx.span_exit(self.handoff_span, true);
            self.handoff_span = SpanId::NONE;
            let took = ctx.now_us().saturating_sub(self.handoff_started_us);
            ctx.obs().hist_record("cp.handoff_us", took);
            ctx.obs().hist_record("cp.promote_us", took);
            ctx.stats().count("cp.handoff_ok", 1);
        }
    }

    /// The serving gateway stopped answering pings: declare it dead and
    /// immediately lease from the best ranked survivor. The default
    /// handler stays installed and no INTERNET_DOWN is emitted — a
    /// successful handoff looks to the upper layers like a lease
    /// renumbering, not an outage.
    fn begin_handoff(&mut self, ctx: &mut Ctx<'_>) {
        let State::Connected {
            gateway, public, ..
        } = &self.state
        else {
            return;
        };
        let (gateway, public) = (*gateway, *public);
        ctx.stats().count("cp.gateway_dead", 1);
        self.handoff_span = ctx.span_enter(SpanCat::Tunnel, "tunnel.handoff");
        if ctx.obs().tracing() {
            let corr = gateway.addr.to_string();
            ctx.obs().span_corr(self.handoff_span, &corr);
        }
        self.handoff_started_us = ctx.now_us();
        // The old lease is dead with its gateway; stop answering for it.
        ctx.remove_local_addr(public);
        self.handoff_from = Some(public);
        self.ka_gen += 1;
        self.gw_health.mark_dead(gateway.addr);
        // First-hand death evidence beats the advert lifetime: drop the
        // dead gateway's cached SLP entries so a fallback lookup floods
        // for survivors instead of hitting the stale cache until expiry.
        if let Some(reg) = &self.registry {
            let purged = reg.borrow_mut().purge_origin(gateway.addr);
            if purged > 0 {
                ctx.stats().count("cp.slp_purged", purged);
            }
        }
        // Make-before-break: drop standbys that rode the dead gateway,
        // expire the stale, re-rank the survivors against *current*
        // routes (hops, then advert freshness) and promote the hottest
        // warm one — a pre-warmed lease makes the switch a state flip
        // with no handshake on the critical path.
        let now = ctx.now();
        let rode_dead = self
            .warm
            .iter()
            .filter(|s| {
                (s.gateway.addr == gateway.addr || s.origin == gateway.addr) && s.public.is_some()
            })
            .count();
        if rode_dead > 0 {
            ctx.stats().count("cp.standby_dead", rode_dead);
        }
        self.warm
            .retain(|s| s.gateway.addr != gateway.addr && s.origin != gateway.addr);
        self.expire_standbys(ctx, now);
        {
            let routes = ctx.routes_ref();
            self.warm.sort_by_key(|s| {
                (
                    routes
                        .lookup_specific(s.origin, now)
                        .map(|r| r.hops)
                        .unwrap_or(u8::MAX),
                    std::cmp::Reverse(s.advert_expires),
                    s.origin,
                )
            });
        }
        if let Some(i) = self.warm.iter().position(|s| s.public.is_some()) {
            let s = self.warm.remove(i);
            self.promote(ctx, s);
            return;
        }
        // No warm standby survived: break-before-make fallback through
        // the registry ranking, then the cold contacts, then a probe.
        let mut candidates = self.candidate_gateways(ctx, Some(gateway.addr));
        if candidates.is_empty() {
            // Stale SLP standby may still name the dead gateway's
            // neighbors; fall back to whatever the last probe ranked,
            // re-ranked against current routes.
            match self.next_standby(ctx, gateway.addr) {
                Some(best) => self.connect(ctx, best, 0),
                None => {
                    // No candidate at all — fall back to a fresh SLP
                    // probe. The handoff stays in flight (`handoff_from`
                    // kept): the probe is its continuation, and only an
                    // empty or exhausted probe declares the node offline.
                    self.probe(ctx);
                }
            }
            return;
        }
        let best = candidates.remove(0);
        self.keep_cold(&candidates, now);
        self.connect(ctx, best.contact, 0);
    }

    /// Gives up an in-flight handoff: the node is genuinely offline now,
    /// so release the default handler and tell the stack.
    fn fail_handoff(&mut self, ctx: &mut Ctx<'_>) {
        // Whatever the outcome, the warm set does not survive going
        // offline — standbys are maintained only alongside a live lease.
        self.drop_standbys(ctx);
        if self.handoff_from.take().is_some() {
            ctx.span_exit(self.handoff_span, false);
            self.handoff_span = SpanId::NONE;
            ctx.set_default_handler(false);
            ctx.emit(LocalEvent::Custom {
                kind: INTERNET_DOWN_EVENT,
                data: Vec::new(),
            });
            ctx.stats().count("cp.tunnel_down", 1);
        }
        // The blocklist exists to keep the *handoff* from re-picking the
        // gateway it just watched die. Once the outage is declared, normal
        // probing resumes — and must be allowed to find that same gateway
        // again after it restarts (its purged adverts can only reappear
        // through a fresh announcement). Attestation pins persist: the
        // restarted gateway is re-leasable only under its original key.
        self.gw_health.clear_dead();
    }

    fn on_lease(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, public: Addr, lifetime_secs: u32) {
        let lease = SimDuration::from_secs(lifetime_secs as u64);
        match &mut self.state {
            State::Connecting { gateway, .. } if gateway.addr == from.addr => {
                let gateway = *gateway;
                self.state = State::Connected {
                    gateway,
                    public,
                    lease,
                    refresh_failures: 0,
                    refresh_outstanding: false,
                    missed_pings: 0,
                };
                self.consecutive_failures = 0;
                // A fresh lease from a (different) gateway ends the
                // blocklist: if the dead one comes back it re-announces
                // and competes on equal footing again.
                self.gw_health.clear_dead();
                ctx.span_exit(self.handshake_span, true);
                self.handshake_span = SpanId::NONE;
                let took = ctx.now_us().saturating_sub(self.handshake_started_us);
                ctx.obs().hist_record("cp.handshake_us", took);
                ctx.add_local_addr(public);
                ctx.set_default_handler(true);
                ctx.stats().count("cp.tunnel_up", 1);
                ctx.emit(LocalEvent::Custom {
                    kind: INTERNET_UP_EVENT,
                    data: public.to_string().into_bytes(),
                });
                self.refresh_gen += 1;
                ctx.set_timer(lease / 2, tok(TAG_REFRESH, self.refresh_gen));
                if !self.cfg.keepalive_interval.is_zero() {
                    self.ka_gen += 1;
                    ctx.set_timer(self.cfg.keepalive_interval, tok(TAG_KEEPALIVE, self.ka_gen));
                }
                if self.handoff_from.take().is_some() {
                    ctx.span_exit(self.handoff_span, true);
                    self.handoff_span = SpanId::NONE;
                    let took = ctx.now_us().saturating_sub(self.handoff_started_us);
                    ctx.obs().hist_record("cp.handoff_us", took);
                    ctx.stats().count("cp.handoff_ok", 1);
                }
                // A standby lease on the now-active gateway merged into
                // the active one; count it as released, not leaked.
                let merged = self
                    .warm
                    .iter()
                    .filter(|s| s.gateway.addr == from.addr && s.public.is_some())
                    .count();
                if merged > 0 {
                    ctx.stats().count("cp.standby_drop", merged);
                }
                self.warm.retain(|s| s.gateway.addr != from.addr);
                // Multi-homing: start (or restart) the standby
                // maintenance chain that keeps `standby_target` warm
                // leases alongside this one.
                if self.cfg.standby_target > 0 && !self.cfg.standby_refresh.is_zero() {
                    self.scan_gen += 1;
                    ctx.set_timer(
                        SimDuration::from_millis(10),
                        tok(TAG_STANDBY_SCAN, self.scan_gen),
                    );
                }
            }
            State::Connected {
                gateway,
                public: cur_public,
                lease: cur_lease,
                refresh_outstanding,
                refresh_failures,
                missed_pings,
            } if gateway.addr == from.addr => {
                *refresh_outstanding = false;
                *refresh_failures = 0;
                // A lease grant is proof of life as good as a pong.
                *missed_pings = 0;
                // The grant is authoritative: adopt a renumbered public
                // address and a shortened (or lengthened) lifetime instead
                // of silently drifting from the server's view.
                let old_public = *cur_public;
                *cur_public = public;
                let lease_changed = *cur_lease != lease;
                *cur_lease = lease;
                if old_public != public {
                    ctx.remove_local_addr(old_public);
                    ctx.add_local_addr(public);
                    ctx.stats().count("cp.lease_renumbered", 1);
                    ctx.emit(LocalEvent::Custom {
                        kind: INTERNET_UP_EVENT,
                        data: public.to_string().into_bytes(),
                    });
                }
                if lease_changed {
                    self.refresh_gen += 1;
                    ctx.set_timer(lease / 2, tok(TAG_REFRESH, self.refresh_gen));
                }
            }
            _ => {
                // Not for the active tunnel: a standby warming up (first
                // grant) or refreshing. Handled outside the match so the
                // state borrow is released.
            }
        }
        if !self.standby_owns_lease(from) {
            return;
        }
        self.on_standby_lease(ctx, from, public, lease);
    }

    /// Whether a lease grant from `from` belongs to a warm-set entry (and
    /// not to the active/connecting tunnel, which consumed it above).
    fn standby_owns_lease(&self, from: SocketAddr) -> bool {
        self.warm.iter().any(|s| s.gateway.addr == from.addr)
    }

    /// A lease grant for a standby: record it warm. The granted public
    /// address is *held*, never installed — the node keeps exactly one
    /// active public alias, so pre-warming is invisible to the stack
    /// until promotion.
    fn on_standby_lease(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: SocketAddr,
        public: Addr,
        lease: SimDuration,
    ) {
        let now = ctx.now();
        let ka = self.cfg.keepalive_interval;
        let Some(s) = self.warm.iter_mut().find(|s| s.gateway.addr == from.addr) else {
            return;
        };
        let newly_warm = s.public.is_none();
        s.public = Some(public);
        s.lease = lease;
        s.lease_expires = now + lease;
        s.missed_pings = 0;
        let id = s.id;
        if newly_warm {
            ctx.stats().count("cp.standby_warm", 1);
            // The standby gets its own keepalive and refresh chains so
            // it is *verified* warm, not merely leased-once.
            if !ka.is_zero() {
                ctx.set_timer(ka, tok(TAG_STANDBY_KA, id));
            }
            ctx.set_timer(lease / 2, tok(TAG_STANDBY_REFRESH, id));
        }
    }

    /// Captured Internet-bound datagram: NAT the source and tunnel it.
    fn tunnel_out(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let State::Connected {
            gateway, public, ..
        } = &self.state
        else {
            ctx.stats().count("cp.no_tunnel_drop", dgram.wire_len());
            return;
        };
        let mut inner = dgram.clone();
        if !inner.src.addr.is_public() {
            inner.src.addr = *public;
        }
        let gateway = *gateway;
        let msg = TunnelMsg::Data { inner };
        ctx.stats().count("cp.tunneled_out", dgram.wire_len());
        ctx.send_to(gateway, ports::TUNNEL, msg.to_wire());
    }
}

impl Process for ConnectionProvider {
    fn name(&self) -> &'static str {
        "connection-provider"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(CP_SLP_PORT);
        if let Some(public) = self.cfg.wired_public {
            // Gateways are attached by definition; the tunnel port belongs
            // to their tunnel *server*.
            ctx.emit(LocalEvent::Custom {
                kind: INTERNET_UP_EVENT,
                data: public.to_string().into_bytes(),
            });
            return;
        }
        ctx.bind(ports::TUNNEL);
        let jitter = ctx.rng().range_u64(0, CHECK_INTERVAL.as_micros());
        ctx.set_timer(SimDuration::from_micros(jitter), TAG_CHECK);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        // SLP replies to our gateway probes.
        if dgram.dst.port == CP_SLP_PORT {
            if let Ok(SlpMsg::SrvRply { xid, entries }) = SlpMsg::parse(&dgram.payload) {
                if let State::Probing { xid: expect } = self.state {
                    if xid == expect {
                        // Rank every offered gateway (hops, then
                        // freshness): lease from the best, keep the rest
                        // as warm standby for handoff. Neighbor caches may
                        // still advertise the blocklisted dead gateway.
                        let mut entries: Vec<ServiceEntry> = entries
                            .into_iter()
                            .filter(|e| self.admit_gateway(e))
                            .collect::<Vec<_>>();
                        {
                            let now = ctx.now();
                            let routes = ctx.routes_ref();
                            rank_gateways(&mut entries, |a| {
                                routes.lookup_specific(a, now).map(|r| r.hops)
                            });
                        }
                        match entries.first() {
                            Some(gw) => {
                                let best = gw.contact;
                                let now = ctx.now();
                                self.keep_cold(&entries[1..], now);
                                self.connect(ctx, best, 0);
                            }
                            None => {
                                self.fail_handoff(ctx);
                                self.state = State::Idle;
                                self.consecutive_failures =
                                    self.consecutive_failures.saturating_add(1);
                                self.schedule_recheck(ctx);
                            }
                        }
                    }
                }
            }
            return;
        }
        // Tunnel port traffic or default-handler captures.
        if dgram.dst.port == ports::TUNNEL && dgram.dst.addr == ctx.addr() {
            match TunnelMsg::parse(&dgram.payload) {
                Some(TunnelMsg::Lease {
                    public,
                    lifetime_secs,
                }) => {
                    self.on_lease(ctx, dgram.src, public, lifetime_secs);
                }
                Some(TunnelMsg::Data { inner }) => {
                    ctx.stats().count("cp.tunneled_in", inner.wire_len());
                    ctx.reinject(inner);
                }
                Some(TunnelMsg::Pong { .. }) => {
                    let mut active = false;
                    if let State::Connected {
                        gateway,
                        missed_pings,
                        ..
                    } = &mut self.state
                    {
                        if gateway.addr == dgram.src.addr {
                            *missed_pings = 0;
                            active = true;
                        }
                    }
                    if active {
                        ctx.stats().count("cp.pong", 1);
                    } else if let Some(s) = self
                        .warm
                        .iter_mut()
                        .find(|s| s.gateway.addr == dgram.src.addr)
                    {
                        // A standby answering its keepalive: still warm.
                        s.missed_pings = 0;
                        ctx.stats().count("cp.standby_pong", 1);
                    }
                }
                Some(TunnelMsg::Connect)
                | Some(TunnelMsg::Ping { .. })
                | Some(TunnelMsg::Relay(_))
                | None => {
                    ctx.stats().count("cp.unexpected_msg", dgram.payload.len());
                }
            }
            return;
        }
        // Anything else delivered to us is a default-handler capture of an
        // Internet-bound datagram.
        self.tunnel_out(ctx, dgram);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let gen = token >> 8;
        match token & 0xff {
            TAG_CHECK => match self.state {
                State::Idle => self.probe(ctx),
                State::Probing { .. } => {
                    // SLP lookup never answered (should not happen — the
                    // daemon always replies); retry.
                    self.probe(ctx);
                }
                _ => {}
            },
            TAG_CONNECT_TIMEOUT => {
                if let State::Connecting { gateway, attempts } = self.state {
                    if attempts < 2 {
                        self.connect(ctx, gateway, attempts + 1);
                    } else if let Some(next) = self.next_standby(ctx, gateway.addr) {
                        // This gateway never answered; advance through the
                        // warm-standby ranking before giving up.
                        ctx.span_exit(self.handshake_span, false);
                        self.handshake_span = SpanId::NONE;
                        ctx.stats().count("cp.standby_advance", 1);
                        self.connect(ctx, next, 0);
                    } else {
                        ctx.span_exit(self.handshake_span, false);
                        self.handshake_span = SpanId::NONE;
                        self.fail_handoff(ctx);
                        self.state = State::Idle;
                        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                        self.schedule_recheck(ctx);
                    }
                }
            }
            TAG_REFRESH => {
                if gen != self.refresh_gen {
                    return;
                }
                if let State::Connected {
                    gateway,
                    lease,
                    refresh_failures,
                    refresh_outstanding,
                    ..
                } = &mut self.state
                {
                    if *refresh_outstanding {
                        *refresh_failures += 1;
                    }
                    if *refresh_failures > MAX_REFRESH_FAILURES {
                        self.teardown(ctx);
                        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                        self.schedule_recheck(ctx);
                        return;
                    }
                    *refresh_outstanding = true;
                    let gateway = *gateway;
                    let lease = *lease;
                    ctx.stats().count("cp.tconnect", 1);
                    ctx.send_to(gateway, ports::TUNNEL, TunnelMsg::Connect.to_wire());
                    ctx.set_timer(lease / 2, tok(TAG_REFRESH, self.refresh_gen));
                }
            }
            TAG_KEEPALIVE => {
                if gen != self.ka_gen {
                    return;
                }
                let dead = matches!(
                    &self.state,
                    State::Connected { missed_pings, .. }
                        if *missed_pings >= self.cfg.keepalive_max_missed
                );
                if dead {
                    self.begin_handoff(ctx);
                    return;
                }
                if let State::Connected {
                    gateway,
                    missed_pings,
                    ..
                } = &mut self.state
                {
                    *missed_pings += 1;
                    let gateway = *gateway;
                    self.ping_seq += 1;
                    ctx.stats().count("cp.ping", 1);
                    ctx.send_to(
                        gateway,
                        ports::TUNNEL,
                        TunnelMsg::Ping { seq: self.ping_seq }.to_wire(),
                    );
                    ctx.set_timer(self.cfg.keepalive_interval, tok(TAG_KEEPALIVE, self.ka_gen));
                }
            }
            TAG_STANDBY_SCAN => {
                if gen != self.scan_gen || self.cfg.standby_target == 0 {
                    return;
                }
                if matches!(self.state, State::Connected { .. }) {
                    self.maintain_standbys(ctx);
                }
                // The chain survives Probing/Connecting interludes (a
                // handoff in flight) and dies only by generation.
                ctx.set_timer(
                    self.cfg.standby_refresh,
                    tok(TAG_STANDBY_SCAN, self.scan_gen),
                );
            }
            TAG_STANDBY_KA => {
                // `gen` is the standby id; a missing id means the standby
                // was promoted, dropped or expired — the chain dies here.
                let Some(i) = self.warm.iter().position(|s| s.id == gen) else {
                    return;
                };
                if self.warm[i].missed_pings >= self.cfg.keepalive_max_missed {
                    self.warm.remove(i);
                    ctx.stats().count("cp.standby_dead", 1);
                    // Replenished by the next maintenance scan.
                    return;
                }
                self.warm[i].missed_pings += 1;
                let gw = self.warm[i].gateway;
                self.ping_seq += 1;
                ctx.stats().count("cp.standby_ping", 1);
                ctx.send_to(
                    gw,
                    ports::TUNNEL,
                    TunnelMsg::Ping { seq: self.ping_seq }.to_wire(),
                );
                ctx.set_timer(self.cfg.keepalive_interval, tok(TAG_STANDBY_KA, gen));
            }
            TAG_STANDBY_REFRESH => {
                let Some(s) = self.warm.iter().find(|s| s.id == gen) else {
                    return;
                };
                let (gw, lease) = (s.gateway, s.lease);
                ctx.stats().count("cp.standby_refresh", 1);
                ctx.send_to(gw, ports::TUNNEL, TunnelMsg::Connect.to_wire());
                let refresh_in = lease.max(SimDuration::from_secs(2)) / 2;
                ctx.set_timer(refresh_in, tok(TAG_STANDBY_REFRESH, gen));
            }
            TAG_STANDBY_TIMEOUT => {
                // Only meaningful while the standby never warmed: the
                // TCONNECT went unanswered, so stop waiting for it.
                if let Some(i) = self
                    .warm
                    .iter()
                    .position(|s| s.id == gen && s.public.is_none())
                {
                    self.warm.remove(i);
                    ctx.stats().count("cp.standby_timeout", 1);
                }
            }
            _ => {}
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        if matches!(ev, LocalEvent::NodeRestarted) {
            // A crash does not clear the node's address aliases or
            // default-handler registration, and the gateway side of any
            // pre-crash lease is gone; tear everything down before
            // starting over so the restarted node does not keep NATing
            // through a dead tunnel.
            self.teardown(ctx);
            self.consecutive_failures = 0;
            match self.cfg.wired_public {
                Some(public) => ctx.emit(LocalEvent::Custom {
                    kind: INTERNET_UP_EVENT,
                    data: public.to_string().into_bytes(),
                }),
                None => ctx.set_timer(SimDuration::from_millis(100), TAG_CHECK),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_node_reports_connected_immediately() {
        let cp = ConnectionProvider::new(ConnectionProviderConfig {
            wired_public: Some(Addr::new(82, 130, 64, 1)),
            ..ConnectionProviderConfig::default()
        });
        assert!(cp.is_connected());
    }

    #[test]
    fn fresh_provider_is_disconnected() {
        let cp = ConnectionProvider::new(ConnectionProviderConfig::default());
        assert!(!cp.is_connected());
    }

    fn cold(n: u32, now: SimTime, life: u64) -> ColdContact {
        ColdContact {
            contact: SocketAddr::new(Addr::manet(n), ports::TUNNEL),
            origin: Addr::manet(n),
            expires: now + SimDuration::from_secs(life),
        }
    }

    /// Regression: standby contacts used to be popped in insertion order,
    /// so a failover could chase a gateway that had drifted three hops
    /// away while a one-hop candidate sat later in the list. The ranking
    /// must be recomputed against current routes at failover time.
    #[test]
    fn cold_contacts_rerank_by_current_hops_not_insertion_order() {
        let now = SimTime::from_secs(100);
        // Inserted far-first (the ranking at probe time); by failover
        // time node 2 is nearest and node 3 is unreachable.
        let mut contacts = vec![cold(1, now, 30), cold(2, now, 30), cold(3, now, 30)];
        rank_cold_contacts(&mut contacts, |a| {
            if a == Addr::manet(1) {
                Some(3)
            } else if a == Addr::manet(2) {
                Some(1)
            } else {
                None
            }
        });
        assert_eq!(contacts[0].origin, Addr::manet(2), "nearest first");
        assert_eq!(contacts[1].origin, Addr::manet(1));
        assert_eq!(contacts[2].origin, Addr::manet(3), "unreachable last");
    }

    #[test]
    fn gateway_health_pins_on_first_use_and_kills_key_rotation() {
        let mut h = GatewayHealth::default();
        let gw = Addr::manet(5);
        assert!(h.attest(gw, 0xaaaa), "first use pins");
        assert_eq!(h.pinned(gw), Some(0xaaaa));
        assert!(h.attest(gw, 0xaaaa), "same key re-attests");
        assert!(!h.attest(gw, 0xbbbb), "rotated key refused");
        assert!(h.is_dead(gw), "rotation marks the gateway dead");
        // The pin survives; the original key alone can clear the way.
        h.clear_dead();
        assert!(h.attest(gw, 0xaaaa));
        assert!(!h.is_dead(gw));
    }

    #[test]
    fn gateway_health_death_is_transient_pins_are_not() {
        let mut h = GatewayHealth::default();
        let gw = Addr::manet(7);
        assert!(h.attest(gw, 0x1111));
        h.mark_dead(gw);
        assert!(h.is_dead(gw));
        // Handoff resolved: the restarted-and-reattested gateway is
        // re-leasable under its original identity.
        h.clear_dead();
        assert!(!h.is_dead(gw));
        assert!(h.attest(gw, 0x1111));
        assert_eq!(h.pinned(gw), Some(0x1111));
    }

    #[test]
    fn cold_contacts_tiebreak_on_advert_freshness() {
        let now = SimTime::from_secs(100);
        let mut contacts = vec![cold(1, now, 10), cold(2, now, 50)];
        rank_cold_contacts(&mut contacts, |_| Some(2));
        assert_eq!(
            contacts[0].origin,
            Addr::manet(2),
            "equal hops: fresher advert wins"
        );
    }
}
