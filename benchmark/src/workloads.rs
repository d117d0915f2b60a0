//! The four workloads: generators from a seed, at any size.
//!
//! Every generator is a plain function of `(seed, params)`: the frozen
//! parameter sets ([`MeshParams::frozen`] …) are what the benchmark
//! measures, and unit tests call the same functions at toy size. All
//! workloads are open-loop in simulated time — call arrivals are scripted
//! up front and never wait for an outcome.
//!
//! Times inside a world: `[0, warmup_end)` is warm-up (convergence,
//! registrations, leases — part of `setup_s`), `[warmup_end, run_end]` is
//! the measured window. Calls are *offered* only inside
//! `[warmup_end, last_arrival]`; the rest of the window lets every call
//! finish or time out (SIP Timer B is 32 s), so that established + failed
//! = offered can be checked.

use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, RoutingProtocol, SiphocNode};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess, ReportLog};
use wireless_adhoc_voip::simnet::mobility::{Area, Mobility, WaypointParams};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::ua::{ActionKind, ScriptedAction, UaConfig, UaLogHandle, UserAgent};
use wireless_adhoc_voip::sip::uri::Aor;

/// SIP domain of every user; the Internet provider of `roam_internet`
/// owns it.
pub const DOMAIN: &str = "voicehoc.ch";
/// SIP port of the single user agent on a mesh node (the UA default).
pub const UA_PORT: u16 = 5070;
/// First SIP port of the user agents sharing the `sip_hub` node.
pub const HUB_UA_PORT_BASE: u16 = 6000;
/// RTP port of every media process (the UA default).
pub const RTP_PORT: u16 = 8000;
/// Broadcast port of the `city_beacon` beacons.
pub const CITY_PORT: u16 = 9950;

/// RNG stream labels, one per independent generator decision, so that
/// resizing one part of a workload does not reshuffle another.
mod stream {
    pub const PLACE: u64 = 0xB001;
    pub const USERS: u64 = 0xB002;
    pub const ARRIVALS: u64 = 0xB003;
    pub const PAIRS: u64 = 0xB004;
    pub const MOBILITY: u64 = 0xB005;
}

/// Workload names, in reporting order.
pub const NAMES: [&str; 4] = ["mesh_calls", "sip_hub", "city_beacon", "roam_internet"];

/// A generated world, ready to run, with every handle the collector
/// needs.
pub struct Built {
    pub world: World,
    /// Deployed SIPHoc nodes (UA logs, media report logs).
    pub nodes: Vec<SiphocNode>,
    /// Logs of user agents that live outside `nodes` (wired Internet UAs).
    pub wired_logs: Vec<UaLogHandle>,
    /// Media report logs of the wired Internet endpoints.
    pub wired_reports: Vec<ReportLog>,
    /// End of warm-up; calls placed before it are not measured.
    pub warmup_end: SimTime,
    /// End of the measured window.
    pub run_end: SimTime,
    /// Calls scripted inside the measured window.
    pub offered: usize,
    /// Calls scripted during warm-up (run, but excluded from metrics).
    pub warmup_calls: usize,
}

impl Built {
    /// Every UA log of the world.
    pub fn ua_logs(&self) -> impl Iterator<Item = &UaLogHandle> {
        self.nodes
            .iter()
            .flat_map(|n| n.ua_logs.iter())
            .chain(self.wired_logs.iter())
    }

    /// Every media report log of the world.
    pub fn report_logs(&self) -> impl Iterator<Item = &ReportLog> {
        self.nodes
            .iter()
            .filter_map(|n| n.media_reports.as_ref())
            .chain(self.wired_reports.iter())
    }
}

/// `count` arrival instants of a Poisson process over `[from, from+span)`
/// conditioned on its count: sorted uniform draws. Fixing the count keeps
/// the offered load identical across seeds; only the spacing varies.
pub fn poisson_arrivals(
    rng: &mut SimRng,
    from: SimTime,
    span: SimDuration,
    count: usize,
) -> Vec<SimTime> {
    let span_us = span.as_micros().max(1);
    let mut at: Vec<SimTime> = (0..count)
        .map(|_| from + SimDuration::from_micros(rng.range_u64(0, span_us)))
        .collect();
    at.sort();
    at
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_u64(0, i as u64 + 1) as usize);
    }
}

/// Caller/callee index pairs for `count` calls among `n` users: callers
/// cycle through a seeded shuffle of the users, and in each round of `n`
/// calls the callee is the caller's image under a seeded cyclic shift of
/// that shuffle — a permutation without fixed points, so nobody calls
/// themselves and every user is called once per round.
fn call_pairs(rng: &mut SimRng, n: usize, count: usize) -> Vec<(usize, usize)> {
    assert!(n >= 2, "need at least two users to place a call");
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut order);
    let mut pairs = Vec::with_capacity(count);
    let mut shift = 0;
    for k in 0..count {
        if k % n == 0 {
            shift = 1 + rng.range_u64(0, n as u64 - 1) as usize;
        }
        pairs.push((order[k % n], order[(k % n + shift) % n]));
    }
    pairs
}

fn aor(user: &str) -> Aor {
    Aor::new(user, DOMAIN)
}

/// Appends a call to a UA's script.
fn script_call(ua: &mut UaConfig, at: SimTime, callee: &str, hold: SimDuration) {
    ua.script.push(ScriptedAction {
        at,
        kind: ActionKind::Call {
            to: aor(callee),
            duration: hold,
        },
    });
}

fn local_proxy() -> SocketAddr {
    SocketAddr::new(Addr::LOOPBACK, ports::SIPHOC_PROXY)
}

/// Jittered constant-density grid position of node `i` of `n`.
fn grid_position(i: usize, n: usize, pitch: f64, jitter: f64, rng: &mut SimRng) -> (f64, f64) {
    let cols = (n as f64).sqrt().ceil() as usize;
    let x = (i % cols) as f64 * pitch + rng.range_f64(-jitter, jitter);
    let y = (i / cols) as f64 * pitch + rng.range_f64(-jitter, jitter);
    (x, y)
}

// ---------------------------------------------------------------------
// mesh_calls
// ---------------------------------------------------------------------

/// Parameters of `mesh_calls`.
#[derive(Debug, Clone, Copy)]
pub struct MeshParams {
    pub nodes: usize,
    pub users: usize,
    pub calls: usize,
    /// Grid pitch and placement jitter, metres.
    pub pitch: f64,
    pub jitter: f64,
    /// Of every ten calls, this many go to a user at most `near_hops`
    /// lattice hops away; the rest go `far_hops` (inclusive range) away.
    pub near_per_ten: usize,
    pub near_hops: usize,
    pub far_hops: (usize, usize),
    pub warmup: SimDuration,
    /// Span over which the calls arrive.
    pub arrivals: SimDuration,
    pub hold: SimDuration,
    /// Quiet tail after the last possible arrival.
    pub drain: SimDuration,
}

impl MeshParams {
    /// The measured configuration, scaled in offered calls and arrival
    /// span by `scale` (1.0 = the frozen reference run).
    pub fn frozen(scale: f64) -> MeshParams {
        MeshParams {
            nodes: 400,
            users: 200,
            calls: scaled(480, scale),
            pitch: 76.0,
            jitter: 3.0,
            near_per_ten: 7,
            near_hops: 2,
            far_hops: (8, 12),
            warmup: SimDuration::from_secs(20),
            arrivals: SimDuration::from_secs(80).mul_f64(scale),
            hold: SimDuration::from_secs(15),
            drain: SimDuration::from_secs(35),
        }
    }
}

/// Lattice hop distance between grid slots `a` and `b` of an `n`-node
/// grid (only axis neighbours are in radio range at the frozen pitch).
fn lattice_hops(a: usize, b: usize, n: usize) -> usize {
    let cols = (n as f64).sqrt().ceil() as usize;
    (a % cols).abs_diff(b % cols) + (a / cols).abs_diff(b / cols)
}

/// ~400-node jittered grid, lossy 802.11b radio, AODV with piggybacked
/// MANET SLP, no Connection Provider, media on.
///
/// The call mix is bimodal on purpose. AODV's expanding-ring search makes
/// setup delay a mixture of well-separated modes (first ring ≈ 0.21 s …
/// full-diameter flood ≈ 2.5 s), and with uniformly random pairs the
/// median sits between modes and jumps by 10× from seed to seed. Sending
/// 70 % of the calls to a neighbour within the first ring and 30 % across
/// town puts the median inside the fast mode and the 95th percentile
/// inside the slow one, where both are steady.
pub fn build_mesh_calls(seed: u64, p: MeshParams) -> Built {
    assert!(p.users >= 2 && p.users <= p.nodes && p.near_per_ten <= 10);
    let mut world = World::new(WorldConfig::new(seed));
    let mut place = SimRng::from_seed_and_stream(seed, stream::PLACE);

    // Which grid slots host a user: a seeded subset.
    let mut slots: Vec<usize> = (0..p.nodes).collect();
    shuffle(
        &mut SimRng::from_seed_and_stream(seed, stream::USERS),
        &mut slots,
    );
    let user_slots = &slots[..p.users];

    let warmup_end = SimTime::ZERO + p.warmup;
    let arrivals = poisson_arrivals(
        &mut SimRng::from_seed_and_stream(seed, stream::ARRIVALS),
        warmup_end,
        p.arrivals,
        p.calls,
    );
    let mut pair_rng = SimRng::from_seed_and_stream(seed, stream::PAIRS);
    let mut callers: Vec<usize> = (0..p.users).collect();
    shuffle(&mut pair_rng, &mut callers);
    let mut uas: Vec<UaConfig> = (0..p.users)
        .map(|u| UaConfig::new(aor(&format!("u{u}")), local_proxy()))
        .collect();
    for (k, &at) in arrivals.iter().enumerate() {
        let caller = callers[k % p.users];
        let hops = |u: usize| lattice_hops(user_slots[caller], user_slots[u], p.nodes);
        let near = k % 10 < p.near_per_ten;
        let mut pool: Vec<usize> = (0..p.users)
            .filter(|&u| u != caller)
            .filter(|&u| {
                if near {
                    hops(u) <= p.near_hops
                } else {
                    (p.far_hops.0..=p.far_hops.1).contains(&hops(u))
                }
            })
            .collect();
        if pool.is_empty() {
            // No user in the wanted band (toy sizes, corner callers): take
            // the other user closest to it instead.
            let wanted = if near { 0 } else { p.far_hops.0 };
            let pick = (0..p.users)
                .filter(|&u| u != caller)
                .min_by_key(|&u| hops(u).abs_diff(wanted));
            pool.push(pick.expect("at least two users"));
        }
        let callee = pool[pair_rng.range_u64(0, pool.len() as u64) as usize];
        script_call(&mut uas[caller], at, &format!("u{callee}"), p.hold);
    }

    let mut user_of_slot = vec![None; p.nodes];
    for (u, &slot) in user_slots.iter().enumerate() {
        user_of_slot[slot] = Some(u);
    }
    let mut uas: Vec<Option<UaConfig>> = uas.into_iter().map(Some).collect();
    let mut nodes = Vec::with_capacity(p.nodes);
    for (i, user) in user_of_slot.iter().enumerate() {
        let (x, y) = grid_position(i, p.nodes, p.pitch, p.jitter, &mut place);
        let mut spec = NodeSpec::relay(x, y).without_connection_provider();
        if let Some(u) = user {
            spec = spec.with_user(uas[*u].take().expect("one node per user"));
        }
        nodes.push(deploy(&mut world, spec));
    }
    Built {
        world,
        nodes,
        wired_logs: Vec::new(),
        wired_reports: Vec::new(),
        warmup_end,
        run_end: warmup_end + p.arrivals + p.hold.max(p.drain),
        offered: p.calls,
        warmup_calls: 0,
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(2)
}

// ---------------------------------------------------------------------
// sip_hub
// ---------------------------------------------------------------------

/// Parameters of `sip_hub`.
#[derive(Debug, Clone, Copy)]
pub struct HubParams {
    pub users: usize,
    /// Offered calls per simulated second.
    pub rate_cps: f64,
    /// Registration burst settles before any load.
    pub ramp: SimDuration,
    /// Span of load that belongs to warm-up.
    pub warmup_load: SimDuration,
    /// Span of measured load.
    pub load: SimDuration,
    pub hold: SimDuration,
    pub drain: SimDuration,
}

impl HubParams {
    pub fn frozen(scale: f64) -> HubParams {
        HubParams {
            users: 96,
            rate_cps: 2000.0,
            ramp: SimDuration::from_secs(1),
            warmup_load: SimDuration::from_secs(2),
            load: SimDuration::from_secs(18).mul_f64(scale),
            hold: SimDuration::from_secs(2),
            drain: SimDuration::from_secs(3),
        }
    }
}

/// 96 user agents on one node behind its loopback SIPHoc proxy, every
/// `UaConfig`/`TxnConfig` default left alone except the per-user ports a
/// shared node needs; no media plane, no Connection Provider.
pub fn build_sip_hub(seed: u64, p: HubParams) -> Built {
    assert!(p.users >= 2);
    let mut uas: Vec<UaConfig> = (0..p.users)
        .map(|i| {
            let mut ua = UaConfig::new(aor(&format!("u{i}")), local_proxy());
            ua.local_port = HUB_UA_PORT_BASE + i as u16;
            ua.rtp_port = 20_000 + i as u16;
            ua
        })
        .collect();

    let load_start = SimTime::ZERO + p.ramp;
    let warmup_end = load_start + p.warmup_load;
    let warmup_calls = (p.rate_cps * p.warmup_load.as_secs_f64()).round() as usize;
    let offered = (p.rate_cps * p.load.as_secs_f64()).round() as usize;
    let mut arr_rng = SimRng::from_seed_and_stream(seed, stream::ARRIVALS);
    let mut arrivals = poisson_arrivals(&mut arr_rng, load_start, p.warmup_load, warmup_calls);
    arrivals.extend(poisson_arrivals(&mut arr_rng, warmup_end, p.load, offered));
    let pairs = call_pairs(
        &mut SimRng::from_seed_and_stream(seed, stream::PAIRS),
        p.users,
        arrivals.len(),
    );
    for (&at, &(caller, callee)) in arrivals.iter().zip(&pairs) {
        script_call(&mut uas[caller], at, &format!("u{callee}"), p.hold);
    }

    let mut world = World::new(WorldConfig::new(seed));
    let mut spec = NodeSpec::relay(0.0, 0.0).without_connection_provider();
    spec.users = uas;
    spec.media = false;
    let hub = deploy(&mut world, spec);
    Built {
        world,
        nodes: vec![hub],
        wired_logs: Vec::new(),
        wired_reports: Vec::new(),
        warmup_end,
        run_end: warmup_end + p.load + p.hold + p.drain,
        offered,
        warmup_calls,
    }
}

// ---------------------------------------------------------------------
// city_beacon
// ---------------------------------------------------------------------

/// Parameters of `city_beacon` (layout rules of the repository's city
/// bench: ~80 % district meshes on a 600 m super-grid, 15 % convoys at
/// vehicle speed, 5 % — at most 60 nodes — one dense fast-beaconing
/// swarm).
#[derive(Debug, Clone, Copy)]
pub struct CityParams {
    pub nodes: usize,
    pub district_size: usize,
    pub beacon_every: SimDuration,
    pub swarm_beacon_every: SimDuration,
    pub payload: usize,
    pub warmup: SimDuration,
    pub measured: SimDuration,
}

impl CityParams {
    pub fn frozen(scale: f64) -> CityParams {
        CityParams {
            nodes: 100_000,
            district_size: 25,
            beacon_every: SimDuration::from_millis(500),
            swarm_beacon_every: SimDuration::from_millis(50),
            payload: 64,
            warmup: SimDuration::from_secs(1),
            measured: SimDuration::from_millis(3500).mul_f64(scale),
        }
    }
}

/// Timer-driven broadcast beacon with a random first phase drawn from
/// the node's own stream; received beacons take the full dispatch path
/// and are discarded. All beacons of a class share one payload buffer.
struct Beacon {
    every: SimDuration,
    payload: Payload,
}

impl Process for Beacon {
    fn name(&self) -> &'static str {
        "city-beacon"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(CITY_PORT);
        let phase = ctx.rng().range_u64(0, self.every.as_micros().max(1));
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let src = SocketAddr::new(ctx.addr(), CITY_PORT);
        let dst = SocketAddr::new(Addr::BROADCAST, CITY_PORT);
        ctx.send(Datagram::new(src, dst, self.payload.clone()));
        ctx.set_timer(self.every, 0);
    }
}

const DISTRICT_PITCH: f64 = 600.0;
const DISTRICT_NODE_PITCH: f64 = 70.0;

/// The district/convoy/swarm city: `simnet` alone, no protocol stack.
pub fn build_city_beacon(seed: u64, p: CityParams) -> Built {
    let mut world = World::new(WorldConfig::new(seed));
    let mut rng = SimRng::from_seed_and_stream(seed, stream::PLACE);
    let payload = Payload::from(vec![0xC1u8; p.payload]);
    let swarm_n = (p.nodes / 20).clamp(4, 60);
    let convoy_n = (p.nodes * 15 / 100).max(4);
    let district_n = p.nodes.saturating_sub(swarm_n + convoy_n);
    let add = |world: &mut World, cfg: NodeConfig, every: SimDuration| {
        let id = world.add_node(cfg);
        let beacon = Beacon {
            every,
            payload: payload.clone(),
        };
        world.spawn(id, Box::new(beacon));
    };

    let per = p.district_size.max(1);
    let super_cols = (district_n.div_ceil(per) as f64).sqrt().ceil().max(1.0) as usize;
    let d_cols = (per as f64).sqrt().ceil() as usize;
    for i in 0..district_n {
        let (d, k) = (i / per, i % per);
        let x = (d % super_cols) as f64 * DISTRICT_PITCH
            + (k % d_cols) as f64 * DISTRICT_NODE_PITCH
            + rng.range_f64(-15.0, 15.0);
        let y = (d / super_cols) as f64 * DISTRICT_PITCH
            + (k / d_cols) as f64 * DISTRICT_NODE_PITCH
            + rng.range_f64(-15.0, 15.0);
        add(&mut world, NodeConfig::manet(x, y), p.beacon_every);
    }

    let side = (super_cols as f64 * DISTRICT_PITCH).max(DISTRICT_PITCH);
    let area = Area::new(side, side);
    let vehicle = WaypointParams::new(8.0, 15.0, SimDuration::from_secs(2));
    for _ in 0..convoy_n {
        let start = area.sample(&mut rng);
        let mobility = Mobility::random_waypoint(start, vehicle, area, SimTime::ZERO, &mut rng);
        add(
            &mut world,
            NodeConfig::manet(start.0, start.1).with_mobility(mobility),
            p.beacon_every,
        );
    }

    let swarm_cols = (swarm_n as f64).sqrt().ceil() as usize;
    for i in 0..swarm_n {
        let x = DISTRICT_PITCH * 0.5 + (i % swarm_cols) as f64 * 12.0 + rng.range_f64(-3.0, 3.0);
        let y = DISTRICT_PITCH * 0.5 + (i / swarm_cols) as f64 * 12.0 + rng.range_f64(-3.0, 3.0);
        add(&mut world, NodeConfig::manet(x, y), p.swarm_beacon_every);
    }

    let warmup_end = SimTime::ZERO + p.warmup;
    Built {
        world,
        nodes: Vec::new(),
        wired_logs: Vec::new(),
        wired_reports: Vec::new(),
        warmup_end,
        run_end: warmup_end + p.measured,
        offered: 0,
        warmup_calls: 0,
    }
}

// ---------------------------------------------------------------------
// roam_internet
// ---------------------------------------------------------------------

/// Parameters of `roam_internet`.
#[derive(Debug, Clone, Copy)]
pub struct RoamParams {
    pub manet_nodes: usize,
    pub gateways: usize,
    pub manet_users: usize,
    pub internet_users: usize,
    pub calls: usize,
    /// Of every `inbound_of` calls, `inbound_per` go Internet→MANET; the
    /// rest go MANET→Internet.
    pub inbound_per: usize,
    pub inbound_of: usize,
    /// Area per node, as the side of its square share, metres.
    pub node_share: f64,
    pub min_speed: f64,
    pub max_speed: f64,
    pub warmup: SimDuration,
    pub arrivals: SimDuration,
    pub hold: SimDuration,
    pub drain: SimDuration,
}

impl RoamParams {
    pub fn frozen(scale: f64) -> RoamParams {
        RoamParams {
            manet_nodes: 55,
            gateways: 3,
            manet_users: 22,
            internet_users: 24,
            calls: scaled(280, scale),
            inbound_per: 2,
            inbound_of: 3,
            node_share: 55.0,
            min_speed: 0.5,
            max_speed: 1.5,
            warmup: SimDuration::from_secs(30),
            arrivals: SimDuration::from_secs(100).mul_f64(scale),
            hold: SimDuration::from_secs(4),
            drain: SimDuration::from_secs(35),
        }
    }
}

const PROVIDER: Addr = Addr::new(82, 1, 1, 1);
/// Seed of the frozen `roam_internet` map (start positions, first legs).
const MAP_SEED: u64 = 0x5109_40C0;

/// All-mobile OLSR MANET behind three gateways, a wired provider and
/// wired Internet user agents; calls cross the tunnel in both directions.
pub fn build_roam_internet(seed: u64, p: RoamParams) -> Built {
    assert!(p.gateways >= 1 && p.gateways + p.manet_users <= p.manet_nodes);
    assert!(p.manet_users >= 1 && p.internet_users >= 1);
    assert!(p.inbound_per <= p.inbound_of && p.inbound_of >= 1);
    let mut world = World::new(WorldConfig::new(seed));
    let dns = DnsDirectory::new().with_record(DOMAIN, PROVIDER);

    let provider = world.add_node(NodeConfig::wired(PROVIDER));
    world.spawn(
        provider,
        Box::new(SipProviderProcess::new(ProviderConfig::new(
            DOMAIN,
            dns.clone(),
        ))),
    );

    // Script the calls first: each direction cycles through seeded
    // shuffles of its callers and callees.
    let warmup_end = SimTime::ZERO + p.warmup;
    let arrivals = poisson_arrivals(
        &mut SimRng::from_seed_and_stream(seed, stream::ARRIVALS),
        warmup_end,
        p.arrivals,
        p.calls,
    );
    let mut pair_rng = SimRng::from_seed_and_stream(seed, stream::PAIRS);
    let mut manet_order: Vec<usize> = (0..p.manet_users).collect();
    let mut inet_order: Vec<usize> = (0..p.internet_users).collect();
    shuffle(&mut pair_rng, &mut manet_order);
    shuffle(&mut pair_rng, &mut inet_order);
    let manet_name = |m: usize| format!("m{m}");
    let inet_name = |i: usize| format!("i{i}");
    let mut manet_uas: Vec<UaConfig> = (0..p.manet_users)
        .map(|m| UaConfig::new(aor(&manet_name(m)), local_proxy()))
        .collect();
    let mut inet_uas: Vec<UaConfig> = (0..p.internet_users)
        .map(|i| UaConfig::new(aor(&inet_name(i)), SocketAddr::new(PROVIDER, ports::SIP)))
        .collect();
    for (k, &at) in arrivals.iter().enumerate() {
        let m = manet_order[k % p.manet_users];
        // A different stride on the Internet side, so pairs do not repeat
        // when both populations have the same size.
        let i = inet_order[(k + k / p.internet_users) % p.internet_users];
        if k % p.inbound_of < p.inbound_per {
            script_call(&mut inet_uas[i], at, &manet_name(m), p.hold);
        } else {
            script_call(&mut manet_uas[m], at, &inet_name(i), p.hold);
        }
    }

    // Wired Internet endpoints: UA + media process on a node each.
    let mut wired_logs = Vec::new();
    let mut wired_reports = Vec::new();
    for (i, cfg) in inet_uas.into_iter().enumerate() {
        let addr = Addr::new(82, 2, (i / 200) as u8, 1 + (i % 200) as u8);
        let id = world.add_node(NodeConfig::wired(addr));
        let (ua, log) = UserAgent::new(cfg);
        world.spawn(id, Box::new(ua));
        let (media, reports) = MediaProcess::new(MediaConfig::pcmu(RTP_PORT));
        world.spawn(id, Box::new(media));
        wired_logs.push(log);
        wired_reports.push(reports);
    }

    // The MANET: everyone on random waypoints. Where the nodes start and
    // where their first legs lead is a fixed map (`MAP_SEED`), the same
    // for every seed: OLSR's host cost follows the topology's density so
    // closely that seeded placement alone moved `run_wall_s` by ±15 %.
    // Everything else — who calls whom and when, every later waypoint,
    // loss, backoff — still follows the seed. Gateways are the first
    // `gateways` nodes; users sit on a seeded subset of the others. Only
    // nodes with a user (and the gateways) run a Connection Provider:
    // with its default warm standby every client holds two leases, and
    // the default 64-address pool per gateway would not cover clients on
    // pure relays as well.
    let side = (p.manet_nodes as f64).sqrt() * p.node_share;
    let area = Area::new(side, side);
    let walk = WaypointParams::new(p.min_speed, p.max_speed, SimDuration::ZERO);
    let mut mob_rng = SimRng::from_seed_and_stream(MAP_SEED, stream::MOBILITY);
    let mut slots: Vec<usize> = (p.gateways..p.manet_nodes).collect();
    shuffle(
        &mut SimRng::from_seed_and_stream(seed, stream::USERS),
        &mut slots,
    );
    let mut user_of_node = vec![None; p.manet_nodes];
    for (m, &node) in slots[..p.manet_users].iter().enumerate() {
        user_of_node[node] = Some(m);
    }
    let mut manet_uas: Vec<Option<UaConfig>> = manet_uas.into_iter().map(Some).collect();
    let mut nodes = Vec::with_capacity(p.manet_nodes);
    for (n, user) in user_of_node.iter().enumerate() {
        let start = area.sample(&mut mob_rng);
        let mobility = Mobility::random_waypoint(start, walk, area, SimTime::ZERO, &mut mob_rng);
        let mut spec = NodeSpec::relay(start.0, start.1)
            .with_routing(RoutingProtocol::olsr())
            .with_mobility(mobility)
            .with_dns(dns.clone());
        if n < p.gateways {
            // Public blocks 256 apart: each gateway leases from base+100.
            spec = spec.with_gateway(Addr::new(82, 130, 64 + n as u8, 1));
        } else if let Some(m) = user {
            spec = spec.with_user(manet_uas[*m].take().expect("one node per user"));
        } else {
            spec = spec.without_connection_provider();
        }
        nodes.push(deploy(&mut world, spec));
    }

    Built {
        world,
        nodes,
        wired_logs,
        wired_reports,
        warmup_end,
        run_end: warmup_end + p.arrivals + p.hold.max(p.drain),
        offered: p.calls,
        warmup_calls: 0,
    }
}

/// Builds a workload by name at its frozen parameters.
pub fn build_frozen(name: &str, seed: u64, scale: f64) -> Option<Built> {
    Some(match name {
        "mesh_calls" => build_mesh_calls(seed, MeshParams::frozen(scale)),
        "sip_hub" => build_sip_hub(seed, HubParams::frozen(scale)),
        "city_beacon" => build_city_beacon(seed, CityParams::frozen(scale)),
        "roam_internet" => build_roam_internet(seed, RoamParams::frozen(scale)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    /// Runs a built world to its end and condenses everything it did.
    fn fingerprint(mut b: Built) -> (u64, String, usize) {
        b.world.run_until(b.run_end);
        let placed: usize = b.ua_logs().map(|l| l.borrow().events().len()).sum();
        (
            b.world.events_processed(),
            b.world.total_stats().to_string(),
            placed,
        )
    }

    fn assert_seeded(build: impl Fn(u64) -> Built) {
        let (a, again, other) = (
            fingerprint(build(11)),
            fingerprint(build(11)),
            fingerprint(build(12)),
        );
        assert!(a.0 > 0, "the toy world must do something");
        assert_eq!(a, again, "same seed, same run");
        assert_ne!(a, other, "another seed, another run");
    }

    fn toy_mesh() -> MeshParams {
        MeshParams {
            nodes: 16,
            users: 8,
            calls: 6,
            pitch: 76.0,
            jitter: 3.0,
            near_per_ten: 7,
            near_hops: 2,
            far_hops: (3, 6),
            warmup: secs(5.0),
            arrivals: secs(5.0),
            hold: secs(2.0),
            drain: secs(3.0),
        }
    }

    #[test]
    fn mesh_calls_is_a_function_of_the_seed() {
        assert_seeded(|seed| build_mesh_calls(seed, toy_mesh()));
        let b = build_mesh_calls(3, toy_mesh());
        assert_eq!((b.offered, b.nodes.len()), (6, 16));
        assert_eq!(b.ua_logs().count(), 8);
        assert_eq!(b.report_logs().count(), 8, "media runs where a user lives");
        assert_eq!(b.run_end, SimTime::ZERO + secs(13.0));
    }

    #[test]
    fn sip_hub_is_a_function_of_the_seed() {
        let p = HubParams {
            users: 6,
            rate_cps: 20.0,
            ramp: secs(1.0),
            warmup_load: secs(0.5),
            load: secs(1.0),
            hold: secs(0.5),
            drain: secs(1.0),
        };
        assert_seeded(|seed| build_sip_hub(seed, p));
        let b = build_sip_hub(3, p);
        assert_eq!((b.offered, b.warmup_calls, b.nodes.len()), (20, 10, 1));
        assert_eq!(b.ua_logs().count(), 6);
        assert_eq!(b.report_logs().count(), 0, "no media plane on the hub");
        assert_eq!(b.warmup_end, SimTime::ZERO + secs(1.5));
    }

    #[test]
    fn city_beacon_is_a_function_of_the_seed() {
        let p = CityParams {
            nodes: 120,
            warmup: secs(0.2),
            measured: secs(0.5),
            ..CityParams::frozen(1.0)
        };
        assert_seeded(|seed| build_city_beacon(seed, p));
        let b = build_city_beacon(3, p);
        assert_eq!(b.world.node_count(), 120);
        assert_eq!((b.offered, b.ua_logs().count()), (0, 0));
    }

    #[test]
    fn roam_internet_is_a_function_of_the_seed() {
        let p = RoamParams {
            manet_nodes: 10,
            gateways: 1,
            manet_users: 3,
            internet_users: 3,
            calls: 4,
            node_share: 50.0,
            warmup: secs(20.0),
            arrivals: secs(5.0),
            hold: secs(2.0),
            drain: secs(12.0),
            ..RoamParams::frozen(1.0)
        };
        assert_seeded(|seed| build_roam_internet(seed, p));
        let b = build_roam_internet(3, p);
        // Provider + 3 wired endpoints + 10 MANET nodes.
        assert_eq!(b.world.node_count(), 14);
        assert_eq!((b.ua_logs().count(), b.report_logs().count()), (6, 6));
        assert_eq!(b.offered, 4);
    }

    #[test]
    fn arrivals_are_sorted_counted_and_inside_their_span() {
        let mut rng = SimRng::from_seed_and_stream(5, 5);
        let from = SimTime::from_secs(3);
        let at = poisson_arrivals(&mut rng, from, secs(2.0), 500);
        assert_eq!(at.len(), 500);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        assert!(at.iter().all(|t| *t >= from && *t < from + secs(2.0)));
        assert!(poisson_arrivals(&mut rng, from, secs(2.0), 0).is_empty());
    }

    #[test]
    fn call_pairs_never_pair_a_user_with_themselves() {
        let mut rng = SimRng::from_seed_and_stream(6, 6);
        let pairs = call_pairs(&mut rng, 7, 50);
        assert_eq!(pairs.len(), 50);
        assert!(pairs.iter().all(|(a, b)| a != b && *a < 7 && *b < 7));
        // One round calls every user exactly once.
        let mut callees: Vec<usize> = pairs[..7].iter().map(|p| p.1).collect();
        callees.sort_unstable();
        assert_eq!(callees, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn lattice_hops_are_manhattan_on_the_grid() {
        // 16 slots = 4 columns: slot 0 is (0,0), slot 15 is (3,3).
        assert_eq!(lattice_hops(0, 15, 16), 6);
        assert_eq!(lattice_hops(5, 6, 16), 1);
        assert_eq!(lattice_hops(2, 14, 16), 3);
        assert_eq!(lattice_hops(9, 9, 16), 0);
    }
}
