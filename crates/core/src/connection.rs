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
//! changes with the typed node-local signals [`LocalEvent::InternetUp`]
//! (carrying the public address) and [`LocalEvent::InternetDown`]: the
//! SIPHoc proxy registers its users at their providers on the first, and
//! the UA re-INVITEs its Internet calls when a handoff changes the address.
//!
//! A gateway the node might use is one `Candidate`, and every list of
//! them is ordered by the one key in `rank`. Every lease the node holds,
//! the active one and each warm standby, is one `Lease` in one `Vec`, its
//! keepalive, refresh and connect-timeout chains keyed by its id. A lease
//! goes *handshaking → held → active*: the active one is the held lease
//! `State::Active` names, and it alone owns the default route and the
//! public alias. A handoff promotes a held standby by naming it; with none
//! held, `State::Connecting` handshakes.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use siphoc_simnet::net::{ports, Addr, Datagram, SocketAddr};
use siphoc_simnet::obs::SpanCat;
use siphoc_simnet::process::{Ctx, LocalEvent, Process, Timed};
use siphoc_simnet::time::{SimDuration, SimTime};

use siphoc_slp::msg::SlpMsg;
use siphoc_slp::registry::SharedRegistry;
use siphoc_slp::service::{service_types, ServiceEntry};

use crate::tunnel::TunnelMsg;

/// Port the Connection Provider uses for its SLP client exchanges.
const CP_SLP_PORT: u16 = 4271;

/// Period of the gateway-service check (paper: "periodically checks").
const CHECK_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// How long to wait for a lease reply before retrying.
const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Unanswered refreshes the active lease survives: when the next one is
/// due after more than this many, the tunnel is down.
const MAX_REFRESH_FAILURES: u32 = 2;
/// Floor of the lifetime a lease halves into its refresh period, so a
/// zero or one-second grant cannot spin the refresh chain.
const MIN_REFRESH_LEASE: SimDuration = SimDuration::from_secs(2);
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No gateway known.
    Idle,
    /// SLP query outstanding.
    Probing { xid: u32 },
    /// TCONNECT sent to `gw`, waiting for the lease that will become the
    /// active one; `id` keys this attempt's timeout and then the lease.
    Connecting {
        gw: Candidate,
        attempts: u32,
        id: u64,
    },
    /// The lease with this id is active.
    Active(u64),
}

const TAG_CHECK: u64 = 1;
const TAG_CONNECT_TIMEOUT: u64 = 2;
const TAG_REFRESH: u64 = 3;
const TAG_KEEPALIVE: u64 = 4;
const TAG_STANDBY_SCAN: u64 = 5;

/// Timers cannot be cancelled, so a lease's chains carry its id in the
/// token's upper bits; a fired timer whose id names no lease (or no
/// pending handshake) is superseded: it is ignored and counted as the
/// obs counter `timer.superseded`.
const fn tok(tag: u64, id: u64) -> u64 {
    tag | (id << 8)
}

/// A gateway the node might lease from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    /// The gateway's tunnel-server contact.
    contact: SocketAddr,
    /// The node that advertised the gateway (hop ranking, liveness).
    origin: Addr,
    /// When the gateway's SLP advert lapses; a candidate whose advert
    /// expired is dropped (`cp.standby_expired`) — the gateway stopped
    /// re-announcing.
    advert_expires: SimTime,
}

impl Candidate {
    /// The candidate an SLP gateway entry read at `now` names.
    fn of(e: &ServiceEntry, now: SimTime) -> Candidate {
        Candidate {
            contact: e.contact,
            origin: e.origin,
            advert_expires: e.expires_at(now),
        }
    }

    /// Whether `addr` is this gateway or the node that advertised it.
    fn involves(&self, addr: Addr) -> bool {
        self.contact.addr == addr || self.origin == addr
    }
}

/// Orders gateway candidates best first by the one ranking key: fewest
/// hops to the advertising origin (unreachable last), then the later
/// advert expiry (a fresher advert is likelier to be alive), then the
/// origin for a stable total order. Applied when a list is used, against
/// current routes: a ranking taken earlier is stale by then.
fn rank<T>(items: &mut [T], hops_to: impl Fn(Addr) -> Option<u8>, gw: impl Fn(&T) -> Candidate) {
    items.sort_by_key(|t| {
        let c = gw(t);
        let hops = hops_to(c.origin).unwrap_or(u8::MAX);
        (hops, Reverse(c.advert_expires), c.origin)
    });
}

/// This node's current hop count to an address, for `rank`.
fn hops_to<'a>(ctx: &'a Ctx<'_>) -> impl Fn(Addr) -> Option<u8> + 'a {
    let (now, routes) = (ctx.now(), ctx.routes_ref());
    move |a| routes.lookup(a, now).map(|r| r.hops)
}

/// The one expiry pass: drops the members of `set` that are not `live`
/// (cold contacts and standbys whose advert or held lease lapsed),
/// counting them as `cp.standby_expired`.
fn expire<T>(ctx: &mut Ctx<'_>, set: &mut Vec<T>, live: impl FnMut(&T) -> bool) {
    let before = set.len();
    set.retain(live);
    let lapsed = before - set.len();
    if lapsed > 0 {
        ctx.stats().count("cp.standby_expired", lapsed);
    }
}

/// Sends a TCONNECT (a fresh lease request or a refresh) to `gateway`.
fn send_connect(ctx: &mut Ctx<'_>, gateway: SocketAddr, counter: &'static str) {
    ctx.stats().count(counter, 1);
    ctx.send_to(gateway, ports::TUNNEL, TunnelMsg::Connect.to_wire());
}

/// One tunnel lease: the active one or a warm standby.
#[derive(Debug, Clone)]
struct Lease {
    /// Keys this lease's timer chains. Promotion issues a fresh id, so
    /// the chains the lease ran as a standby die with the old one.
    id: u64,
    /// The gateway the lease is held on. Its origin and advert expiry
    /// rank and expire standbys only.
    gw: Candidate,
    /// The leased public address once granted; `None` while the TCONNECT
    /// is still outstanding.
    public: Option<Addr>,
    /// Granted lease lifetime.
    lease: SimDuration,
    /// When the lease lapses unless refreshed.
    lease_expires: SimTime,
    /// Consecutive unanswered keepalive pings.
    missed_pings: u32,
    /// Refreshes sent since the last grant (active lease only).
    unanswered_refreshes: u32,
    /// When the refresh chain next fires. A grant that changes the
    /// lifetime re-arms the chain; the superseded timer fires at another
    /// instant and is ignored.
    refresh_due: SimTime,
}

impl Lease {
    /// A lease on `gw` whose TCONNECT is outstanding.
    fn pending(id: u64, gw: Candidate, now: SimTime) -> Lease {
        Lease {
            id,
            gw,
            public: None,
            lease: SimDuration::ZERO,
            lease_expires: now,
            missed_pings: 0,
            unanswered_refreshes: 0,
            refresh_due: now,
        }
    }

    /// Whether neither the advert nor a held lease has lapsed.
    fn live(&self, now: SimTime) -> bool {
        self.gw.advert_expires > now && (self.public.is_none() || self.lease_expires > now)
    }

    /// (Re-)arms the refresh chain: every lease refreshes at half its
    /// lifetime, floored at half of `MIN_REFRESH_LEASE`.
    fn arm_refresh(&mut self, ctx: &mut Ctx<'_>) {
        let period = self.lease.max(MIN_REFRESH_LEASE) / 2;
        self.refresh_due = ctx.now() + period;
        ctx.set_timer(period, tok(TAG_REFRESH, self.id));
    }
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

    /// Whether a candidate names the blocklisted dead gateway (by tunnel
    /// contact or by advertising origin).
    fn blocks(&self, gw: &Candidate) -> bool {
        self.is_dead(gw.contact.addr) || self.is_dead(gw.origin)
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
    /// The handshake span, open from the first TCONNECT to a gateway
    /// until its grant or until the provider gives that gateway up.
    handshake: Option<Timed>,
    ping_seq: u64,
    /// Cold `service:gateway` contacts beyond the one we leased from —
    /// the fallback set a handoff re-ranks when no warm standby survives.
    cold: Vec<Candidate>,
    /// The active lease (while `State::Active`) and every standby, at
    /// most `cfg.standby_target` of them.
    leases: Vec<Lease>,
    /// Id generator for leases and handshakes.
    next_id: u64,
    /// When the standby maintenance scan next runs; `None` while no scan
    /// chain is live. A restarted chain leaves the old timer firing at an
    /// instant this no longer names.
    scan_due: Option<SimTime>,
    /// The node's MANET SLP registry, for ranking fresh gateway
    /// candidates at handoff time.
    registry: Option<SharedRegistry>,
    /// The handoff span; `Some` exactly while a handoff is in flight.
    handoff: Option<Timed>,
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
            handshake: None,
            ping_seq: 0,
            cold: Vec::new(),
            leases: Vec::new(),
            next_id: 0,
            scan_due: None,
            registry: None,
            handoff: None,
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
        self.cfg.wired_public.is_some() || matches!(self.state, State::Active(_))
    }

    /// The active lease's id.
    fn active_id(&self) -> Option<u64> {
        match self.state {
            State::Active(id) => Some(id),
            _ => None,
        }
    }

    /// The active lease's gateway and public address.
    fn active(&self) -> Option<(SocketAddr, Addr)> {
        let id = self.active_id()?;
        let l = self.leases.iter().find(|l| l.id == id)?;
        Some((l.gw.contact, l.public?))
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

    fn connect(&mut self, ctx: &mut Ctx<'_>, gw: Candidate, attempts: u32) {
        self.next_id += 1;
        let id = self.next_id;
        self.state = State::Connecting { gw, attempts, id };
        if attempts == 0 {
            self.handshake =
                Some(ctx.span_timed(SpanCat::Tunnel, "tunnel.handshake", gw.contact.addr));
        }
        send_connect(ctx, gw.contact, "cp.tconnect");
        ctx.set_timer(CONNECT_TIMEOUT, tok(TAG_CONNECT_TIMEOUT, id));
    }

    /// Handshakes with the head of `ranked` and keeps the tail as the
    /// cold contacts; `false`, touching nothing, when `ranked` is empty.
    fn connect_best(&mut self, ctx: &mut Ctx<'_>, mut ranked: Vec<Candidate>) -> bool {
        if ranked.is_empty() {
            return false;
        }
        let best = ranked.remove(0);
        self.cold = ranked;
        self.connect(ctx, best, 0);
        true
    }

    /// Ends everything the provider holds: the handshake or handoff in
    /// flight, every lease with its chains, the cold contacts and the
    /// standby scan. A node that was online (a lease active or a handoff
    /// in flight) releases the default handler and tells the stack.
    fn teardown(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(mut h) = self.handshake.take() {
            h.close(ctx, false);
        }
        // Nothing is released on the gateway side: standby leases are soft
        // state and expire there.
        let active = self.active_id();
        let warm = self
            .leases
            .iter()
            .filter(|l| Some(l.id) != active && l.public.is_some())
            .count();
        if warm > 0 {
            ctx.stats().count("cp.standby_drop", warm);
        }
        let mut online = false;
        if let Some(mut h) = self.handoff.take() {
            h.close(ctx, false);
            online = true;
        }
        if let Some((_, public)) = self.active() {
            ctx.remove_local_addr(public);
            online = true;
        }
        if online {
            ctx.set_default_handler(false);
            ctx.emit(LocalEvent::InternetDown);
            ctx.stats().count("cp.tunnel_down", 1);
        }
        // The blocklist exists to keep a *handoff* from re-picking the
        // gateway it just watched die. Offline, normal probing resumes —
        // and must be allowed to find that same gateway again after it
        // restarts (its purged adverts can only reappear through a fresh
        // announcement). Attestation pins persist: the restarted gateway
        // is re-leasable only under its original key.
        self.gw_health.clear_dead();
        self.cold.clear();
        self.leases.clear();
        self.scan_due = None;
        self.state = State::Idle;
    }

    /// The one way offline: no gateway answered, none was found, or the
    /// active one stopped granting. Tears down, counts the failure and
    /// schedules the backed-off re-check.
    fn go_offline(&mut self, ctx: &mut Ctx<'_>) {
        self.teardown(ctx);
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.schedule_recheck(ctx);
    }

    /// Judges one offered gateway entry: signed adverts must pass
    /// attestation (trust-on-first-use identity pin — a pinned gateway
    /// that changed keys is marked dead here), and the handoff blocklist
    /// refuses the gateway just watched die. Unsigned entries skip
    /// attestation, keeping the legacy path byte-identical.
    fn admit(&mut self, e: &ServiceEntry, now: SimTime) -> Option<Candidate> {
        if let Some(identity) = e.advertiser_identity() {
            if !self.gw_health.attest(e.contact.addr, identity) {
                return None;
            }
        }
        let gw = Candidate::of(e, now);
        (!self.gw_health.blocks(&gw)).then_some(gw)
    }

    /// Every gateway with a live advert in the registry, ranked, without
    /// the one involving `exclude` (the gateway just declared dead).
    fn candidate_gateways(&mut self, ctx: &Ctx<'_>, exclude: Addr) -> Vec<Candidate> {
        let Some(reg) = self.registry.clone() else {
            return Vec::new();
        };
        let now = ctx.now();
        let mut entries = reg.borrow().gateway_candidates(now);
        rank(&mut entries, hops_to(ctx), |e| Candidate::of(e, now));
        entries
            .iter()
            .filter(|e| !Candidate::of(e, now).involves(exclude))
            .filter_map(|e| self.admit(e, now))
            .collect()
    }

    /// Pops the best remaining cold contact, dropping entries for the
    /// gateway that just failed and contacts whose advert lapsed.
    fn next_cold(&mut self, ctx: &mut Ctx<'_>, failed: Addr) -> Option<Candidate> {
        let now = ctx.now();
        self.cold.retain(|c| !c.involves(failed));
        expire(ctx, &mut self.cold, |c| c.advert_expires > now);
        rank(&mut self.cold, hops_to(ctx), |c| *c);
        (!self.cold.is_empty()).then(|| self.cold.remove(0))
    }

    /// Drops standbys whose advert or held lease lapsed.
    fn expire_standbys(&mut self, ctx: &mut Ctx<'_>) {
        let (now, active) = (ctx.now(), self.active_id());
        expire(ctx, &mut self.leases, |l| {
            Some(l.id) == active || l.live(now)
        });
    }

    /// One standby maintenance pass: refresh advert lifetimes from the
    /// registry, expire standbys whose advert or lease lapsed, and
    /// replenish the warm set back to `standby_target` from the current
    /// gateway ranking. Runs on the `TAG_STANDBY_SCAN` chain while a
    /// lease is active.
    fn maintain_standbys(&mut self, ctx: &mut Ctx<'_>) {
        let (Some(active_id), Some((gateway, _))) = (self.active_id(), self.active()) else {
            return;
        };
        let active = gateway.addr;
        let now = ctx.now();
        let mut pool = self.candidate_gateways(ctx, active);
        // A steadily re-announced gateway must not age out of the warm
        // set: adopt the freshest advert lifetime the registry holds.
        for s in self.leases.iter_mut().filter(|l| l.id != active_id) {
            if let Some(c) = pool.iter().find(|c| c.origin == s.gw.origin) {
                s.gw.advert_expires = s.gw.advert_expires.max(c.advert_expires);
            }
        }
        self.expire_standbys(ctx);
        expire(ctx, &mut self.cold, |c| c.advert_expires > now);
        // Replenish: best-ranked candidates first, cold contacts as a
        // last resort, skipping gateways already in the warm set.
        for c in &self.cold {
            if c.contact.addr != active && !pool.iter().any(|p| p.contact.addr == c.contact.addr) {
                pool.push(*c);
            }
        }
        // The active lease plus `standby_target` standbys fill the set.
        for gw in pool {
            if self.leases.len() as u32 > self.cfg.standby_target {
                break;
            }
            if self.leases.iter().any(|s| {
                s.id != active_id
                    && (s.gw.contact.addr == gw.contact.addr || s.gw.origin == gw.origin)
            }) || self.gw_health.blocks(&gw)
            {
                continue;
            }
            self.next_id += 1;
            let id = self.next_id;
            self.leases.push(Lease::pending(id, gw, now));
            send_connect(ctx, gw.contact, "cp.standby_connect");
            ctx.set_timer(CONNECT_TIMEOUT, tok(TAG_CONNECT_TIMEOUT, id));
        }
        // Still short of the target? The registry holds too few distinct
        // gateways — sweep the network for more. Answers are absorbed into
        // the registry as they flood back; a later scan warms them. (The
        // startup probe races every node's simultaneous discovery and is
        // answered by the *nearest* match, so a multi-homed node must keep
        // looking for alternatives it never heard of.)
        if self.leases.len() as u32 <= self.cfg.standby_target && now >= self.next_sweep_at {
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

    /// Starts the active lease's refresh chain, then its keepalive chain.
    fn arm_active(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let l = &mut self.leases[i];
        l.arm_refresh(ctx);
        if !self.cfg.keepalive_interval.is_zero() {
            ctx.set_timer(self.cfg.keepalive_interval, tok(TAG_KEEPALIVE, l.id));
        }
    }

    /// Gives the node a public address: alias, default handler, counter,
    /// then the InternetUp signal.
    fn install(&mut self, ctx: &mut Ctx<'_>, public: Addr, counter: &'static str) {
        ctx.add_local_addr(public);
        ctx.set_default_handler(true);
        ctx.stats().count(counter, 1);
        ctx.emit(LocalEvent::InternetUp { public });
    }

    /// Closes an in-flight handoff as a success.
    fn handoff_done(&mut self, ctx: &mut Ctx<'_>, promoted: bool) {
        if let Some(mut h) = self.handoff.take() {
            let took = h.close(ctx, true);
            ctx.obs().hist_record("cp.handoff_us", took);
            if promoted {
                ctx.obs().hist_record("cp.promote_us", took);
            }
            ctx.stats().count("cp.handoff_ok", 1);
        }
    }

    /// Makes the warm standby `leases[i]` the active lease
    /// (make-before-break promotion): its tunnel is already up, leased
    /// and verified live, so the handoff completes in the same event that
    /// detected the death — no handshake on the critical path.
    fn promote(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        self.next_id += 1;
        let id = self.next_id;
        let now = ctx.now();
        let l = &mut self.leases[i];
        let public = l.public.expect("only warm standbys are promoted");
        l.id = id;
        l.lease = l.lease_expires.saturating_since(now);
        l.missed_pings = 0;
        l.unanswered_refreshes = 0;
        let gateway = l.gw.contact;
        self.state = State::Active(id);
        self.consecutive_failures = 0;
        self.install(ctx, public, "cp.promote");
        // The immediate TCONNECT re-confirms the lease server-side.
        send_connect(ctx, gateway, "cp.tconnect");
        self.arm_active(ctx, i);
        self.handoff_done(ctx, true);
    }

    /// The serving gateway stopped answering pings: declare it dead and
    /// immediately lease from the best ranked survivor. The default
    /// handler stays installed and no InternetDown is emitted — a
    /// successful handoff looks to the upper layers like a lease
    /// renumbering, not an outage.
    fn begin_handoff(&mut self, ctx: &mut Ctx<'_>) {
        let (Some(id), Some((gateway, public))) = (self.active_id(), self.active()) else {
            return;
        };
        let dead = gateway.addr;
        ctx.stats().count("cp.gateway_dead", 1);
        self.handoff = Some(ctx.span_timed(SpanCat::Tunnel, "tunnel.handoff", dead));
        // The old lease is dead with its gateway; stop answering for it.
        ctx.remove_local_addr(public);
        self.leases.retain(|l| l.id != id);
        self.gw_health.mark_dead(dead);
        // First-hand death evidence beats the advert lifetime: drop the
        // dead gateway's cached SLP entries so a fallback lookup floods
        // for survivors instead of hitting the stale cache until expiry.
        if let Some(reg) = &self.registry {
            let purged = reg.borrow_mut().purge_origin(dead);
            if purged > 0 {
                ctx.stats().count("cp.slp_purged", purged);
            }
        }
        // Make-before-break: drop standbys that rode the dead gateway,
        // expire the stale, re-rank the survivors and promote the hottest
        // warm one — a pre-warmed lease makes the switch a state flip
        // with no handshake on the critical path.
        let warm_dead = self
            .leases
            .iter()
            .filter(|s| s.gw.involves(dead) && s.public.is_some())
            .count();
        if warm_dead > 0 {
            ctx.stats().count("cp.standby_dead", warm_dead);
        }
        self.leases.retain(|s| !s.gw.involves(dead));
        self.expire_standbys(ctx);
        rank(&mut self.leases, hops_to(ctx), |s| s.gw);
        if let Some(i) = self.leases.iter().position(|s| s.public.is_some()) {
            self.promote(ctx, i);
            return;
        }
        // No warm standby survived: break-before-make fallback through
        // the registry ranking, then the cold contacts, then a probe.
        let candidates = self.candidate_gateways(ctx, dead);
        if !self.connect_best(ctx, candidates) {
            match self.next_cold(ctx, dead) {
                Some(best) => self.connect(ctx, best, 0),
                // No candidate at all — fall back to a fresh SLP probe.
                // The handoff stays in flight: the probe is its
                // continuation, and only an empty or exhausted probe
                // declares the node offline.
                None => self.probe(ctx),
            }
        }
    }

    /// A lease grant: the handshake's first grant makes the active lease;
    /// any other grant is for a lease already in the set, active or
    /// standby.
    fn on_lease(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, public: Addr, lifetime_secs: u32) {
        let lease = SimDuration::from_secs(lifetime_secs as u64);
        if let State::Connecting { gw, id, .. } = self.state {
            if gw.contact.addr == from.addr {
                self.on_first_grant(ctx, id, gw, public, lease);
                return;
            }
        }
        let Some(i) = self
            .leases
            .iter()
            .position(|l| l.gw.contact.addr == from.addr)
        else {
            return;
        };
        let now = ctx.now();
        let active = self.state == State::Active(self.leases[i].id);
        let l = &mut self.leases[i];
        let (old_public, old_lease) = (l.public, l.lease);
        l.public = Some(public);
        l.lease = lease;
        l.lease_expires = now + lease;
        // A lease grant is proof of life as good as a pong.
        l.missed_pings = 0;
        if active {
            l.unanswered_refreshes = 0;
            // The grant is authoritative: adopt a renumbered public
            // address and a shortened (or lengthened) lifetime instead of
            // silently drifting from the server's view.
            if let Some(old) = old_public.filter(|old| *old != public) {
                ctx.remove_local_addr(old);
                ctx.add_local_addr(public);
                ctx.stats().count("cp.lease_renumbered", 1);
                ctx.emit(LocalEvent::InternetUp { public });
            }
            if old_lease != lease {
                l.arm_refresh(ctx);
            }
        } else if old_public.is_none() {
            // A standby's first grant: it is warm now. The granted public
            // address is *held*, never installed — the node keeps exactly
            // one active public alias, so pre-warming is invisible to the
            // stack until promotion. Its own keepalive and refresh chains
            // keep it *verified* warm, not merely leased-once.
            ctx.stats().count("cp.standby_warm", 1);
            if !self.cfg.keepalive_interval.is_zero() {
                ctx.set_timer(self.cfg.keepalive_interval, tok(TAG_KEEPALIVE, l.id));
            }
            l.arm_refresh(ctx);
        }
    }

    /// The grant that ends the handshake: the node is on the Internet.
    fn on_first_grant(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: u64,
        gw: Candidate,
        public: Addr,
        lease: SimDuration,
    ) {
        let now = ctx.now();
        self.state = State::Active(id);
        self.consecutive_failures = 0;
        // A fresh lease from a (different) gateway ends the blocklist: if
        // the dead one comes back it re-announces and competes on equal
        // footing again.
        self.gw_health.clear_dead();
        if let Some(mut h) = self.handshake.take() {
            let took = h.close(ctx, true);
            ctx.obs().hist_record("cp.handshake_us", took);
        }
        self.install(ctx, public, "cp.tunnel_up");
        // A standby lease on the now-active gateway merges into the
        // active one; count it as released, not leaked.
        let same = |s: &Lease| s.gw.contact.addr == gw.contact.addr;
        let merged = self
            .leases
            .iter()
            .filter(|s| same(s) && s.public.is_some())
            .count();
        self.leases.retain(|s| !same(s));
        self.leases.push(Lease {
            public: Some(public),
            lease,
            lease_expires: now + lease,
            ..Lease::pending(id, gw, now)
        });
        self.arm_active(ctx, self.leases.len() - 1);
        self.handoff_done(ctx, false);
        if merged > 0 {
            ctx.stats().count("cp.standby_drop", merged);
        }
        // Multi-homing: start (or restart) the standby maintenance chain
        // that keeps `standby_target` warm leases alongside this one.
        if self.cfg.standby_target > 0 && !self.cfg.standby_refresh.is_zero() {
            let first = SimDuration::from_millis(10);
            self.scan_due = Some(now + first);
            ctx.set_timer(first, TAG_STANDBY_SCAN);
        }
    }

    /// Captured Internet-bound datagram: NAT the source and tunnel it.
    fn tunnel_out(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let Some((gateway, public)) = self.active() else {
            ctx.stats().count("cp.no_tunnel_drop", dgram.wire_len());
            return;
        };
        let mut inner = dgram.clone();
        if !inner.src.addr.is_public() {
            inner.src.addr = public;
        }
        let msg = TunnelMsg::Data { inner };
        ctx.stats().count("cp.tunneled_out", dgram.wire_len());
        ctx.send_to(gateway, ports::TUNNEL, msg.to_wire());
    }

    /// A lease's connect timeout: the active handshake retries, advances
    /// to the next cold contact or gives up; a standby that never warmed
    /// is dropped. Any other firing is stale.
    fn on_connect_timeout(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        if let State::Connecting { gw, attempts, id } = self.state {
            if id == key {
                if attempts < 2 {
                    self.connect(ctx, gw, attempts + 1);
                    return;
                }
                let next = self.next_cold(ctx, gw.contact.addr);
                if let Some(mut h) = self.handshake.take() {
                    h.close(ctx, false);
                }
                match next {
                    // This gateway never answered; advance through the
                    // cold ranking before giving up.
                    Some(next) => {
                        ctx.stats().count("cp.standby_advance", 1);
                        self.connect(ctx, next, 0);
                    }
                    None => self.go_offline(ctx),
                }
                return;
            }
        }
        if let Some(i) = self
            .leases
            .iter()
            .position(|l| l.id == key && l.public.is_none())
        {
            self.leases.remove(i);
            ctx.stats().count("cp.standby_timeout", 1);
        } else {
            ctx.obs().counter_add("timer.superseded", 1);
        }
    }

    /// A lease's refresh chain. The active lease counts unanswered
    /// refreshes and goes offline after too many; a standby just re-sends
    /// and lapses on its own if the gateway is gone.
    fn on_refresh(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        let now = ctx.now();
        let Some(i) = self
            .leases
            .iter()
            .position(|l| l.id == key && l.refresh_due == now)
        else {
            ctx.obs().counter_add("timer.superseded", 1);
            return;
        };
        let active = self.state == State::Active(key);
        let l = &mut self.leases[i];
        if active {
            if l.unanswered_refreshes > MAX_REFRESH_FAILURES {
                self.go_offline(ctx);
                return;
            }
            l.unanswered_refreshes += 1;
        }
        let counter = if active {
            "cp.tconnect"
        } else {
            "cp.standby_refresh"
        };
        send_connect(ctx, l.gw.contact, counter);
        l.arm_refresh(ctx);
    }

    /// A lease's keepalive chain. Too many unanswered pings start a
    /// handoff away from the active lease, and drop a standby (the next
    /// maintenance scan replaces it).
    fn on_keepalive(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        let Some(i) = self.leases.iter().position(|l| l.id == key) else {
            ctx.obs().counter_add("timer.superseded", 1);
            return;
        };
        let active = self.state == State::Active(key);
        if self.leases[i].missed_pings >= self.cfg.keepalive_max_missed {
            if active {
                self.begin_handoff(ctx);
            } else {
                self.leases.remove(i);
                ctx.stats().count("cp.standby_dead", 1);
            }
            return;
        }
        self.leases[i].missed_pings += 1;
        self.ping_seq += 1;
        let ping = TunnelMsg::Ping { seq: self.ping_seq };
        let counter = if active { "cp.ping" } else { "cp.standby_ping" };
        ctx.stats().count(counter, 1);
        ctx.send_to(self.leases[i].gw.contact, ports::TUNNEL, ping.to_wire());
        ctx.set_timer(self.cfg.keepalive_interval, tok(TAG_KEEPALIVE, key));
    }
}

impl Process for ConnectionProvider {
    fn name(&self) -> &'static str {
        "connection-provider"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(CP_SLP_PORT);
        // A crash keeps the node's aliases and default handler, but the
        // gateway side of its lease is gone: tear down before starting
        // over, or a restarted node NATs through a dead tunnel.
        self.teardown(ctx);
        self.consecutive_failures = 0;
        if let Some(public) = self.cfg.wired_public {
            // Gateways are attached by definition; the tunnel port belongs
            // to their tunnel *server*.
            ctx.emit(LocalEvent::InternetUp { public });
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
                if self.state == (State::Probing { xid }) {
                    // Lease from the best offered gateway and keep the
                    // rest as cold contacts for handoff. Neighbor caches
                    // may still advertise the blocklisted dead gateway.
                    let now = ctx.now();
                    let mut offered: Vec<Candidate> =
                        entries.iter().filter_map(|e| self.admit(e, now)).collect();
                    rank(&mut offered, hops_to(ctx), |c| *c);
                    if !self.connect_best(ctx, offered) {
                        self.go_offline(ctx);
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
                    // A public address other than the active lease is one
                    // this node gave up at a handoff or renumbering, which
                    // its old gateway may still map here. Re-injected, it
                    // would be captured as Internet-bound, tunneled to the
                    // new gateway and sent back to the old one: a loop
                    // until the old lease lapses.
                    let held = self.active().map(|(_, public)| public);
                    if inner.dst.addr.is_public() && held != Some(inner.dst.addr) {
                        ctx.stats().count("cp.stale_lease_drop", inner.wire_len());
                        return;
                    }
                    ctx.stats().count("cp.tunneled_in", inner.wire_len());
                    ctx.send(inner);
                }
                Some(TunnelMsg::Pong { .. }) => {
                    let from = dgram.src.addr;
                    if let Some(l) = self.leases.iter_mut().find(|l| l.gw.contact.addr == from) {
                        l.missed_pings = 0;
                        let active = self.state == State::Active(l.id);
                        ctx.stats()
                            .count(if active { "cp.pong" } else { "cp.standby_pong" }, 1);
                    }
                }
                Some(TunnelMsg::Connect | TunnelMsg::Ping { .. } | TunnelMsg::Relay(_)) | None => {
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
        let key = token >> 8;
        match token & 0xff {
            // A probe still outstanding was never answered (should not
            // happen — the daemon always replies): retry.
            TAG_CHECK if matches!(self.state, State::Idle | State::Probing { .. }) => {
                self.probe(ctx)
            }
            TAG_CONNECT_TIMEOUT => self.on_connect_timeout(ctx, key),
            TAG_REFRESH => self.on_refresh(ctx, key),
            TAG_KEEPALIVE => self.on_keepalive(ctx, key),
            TAG_STANDBY_SCAN => {
                let now = ctx.now();
                if self.scan_due != Some(now) {
                    return;
                }
                self.maintain_standbys(ctx);
                // The chain survives Probing/Connecting interludes (a
                // handoff in flight) and dies only with the warm set.
                self.scan_due = Some(now + self.cfg.standby_refresh);
                ctx.set_timer(self.cfg.standby_refresh, TAG_STANDBY_SCAN);
            }
            _ => {}
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

    fn gw(n: u32, now: SimTime, life: u64) -> Candidate {
        Candidate {
            contact: SocketAddr::new(Addr::manet(n), ports::TUNNEL),
            origin: Addr::manet(n),
            advert_expires: now + SimDuration::from_secs(life),
        }
    }

    fn origins(ranked: &[Candidate]) -> Vec<Addr> {
        ranked.iter().map(|c| c.origin).collect()
    }

    /// Regression: cold contacts used to be popped in insertion order,
    /// so a failover could chase a gateway that had drifted three hops
    /// away while a one-hop candidate sat later in the list. The ranking
    /// must be recomputed against current routes when a list is used.
    #[test]
    fn candidates_rerank_by_current_hops_not_insertion_order() {
        let now = SimTime::from_secs(100);
        // Inserted far-first (the ranking at probe time); by failover
        // time node 2 is nearest and node 3 is unreachable.
        let mut cands = vec![gw(1, now, 30), gw(2, now, 30), gw(3, now, 30)];
        let hops = |a| match a {
            a if a == Addr::manet(1) => Some(3),
            a if a == Addr::manet(2) => Some(1),
            _ => None,
        };
        rank(&mut cands, hops, |c| *c);
        let want = [Addr::manet(2), Addr::manet(1), Addr::manet(3)];
        assert_eq!(origins(&cands), want, "nearest first, unreachable last");
    }

    #[test]
    fn candidates_tiebreak_on_advert_freshness_then_origin() {
        let now = SimTime::from_secs(100);
        let mut cands = vec![gw(3, now, 50), gw(1, now, 10), gw(2, now, 50)];
        rank(&mut cands, |_| Some(2), |c| *c);
        let want = [Addr::manet(2), Addr::manet(3), Addr::manet(1)];
        assert_eq!(origins(&cands), want, "equal hops: fresher advert wins");
    }

    /// The key is the candidate's, whatever holds it: an SLP entry ranks
    /// by the expiry its remaining lifetime gives.
    #[test]
    fn entries_rank_by_the_candidate_they_name() {
        let now = SimTime::from_secs(100);
        let entry = |n: u32, life| {
            ServiceEntry::gateway(
                SocketAddr::new(Addr::manet(n), ports::TUNNEL),
                Addr::manet(n),
                1,
                life,
            )
        };
        let mut entries = vec![entry(1, 60), entry(2, 30), entry(3, 60)];
        let hops = |a| (a != Addr::manet(3)).then_some(1);
        rank(&mut entries, hops, |e| Candidate::of(e, now));
        let got: Vec<Addr> = entries.iter().map(|e| e.origin).collect();
        assert_eq!(got, [Addr::manet(1), Addr::manet(2), Addr::manet(3)]);
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

    /// The blocklist refuses a candidate by its contact or its origin.
    #[test]
    fn gateway_health_blocks_by_contact_or_origin() {
        let now = SimTime::ZERO;
        let mut h = GatewayHealth::default();
        let relayed = Candidate {
            origin: Addr::manet(9),
            ..gw(4, now, 60)
        };
        assert!(!h.blocks(&relayed));
        h.mark_dead(Addr::manet(4));
        assert!(h.blocks(&relayed));
        h.mark_dead(Addr::manet(9));
        assert!(h.blocks(&relayed));
        h.mark_dead(Addr::manet(5));
        assert!(!h.blocks(&relayed));
    }
}
