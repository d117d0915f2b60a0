//! City-scale scenario generator for the simulator-core benchmarks.
//!
//! Builds a deterministic metropolitan-area MANET out of three
//! ingredient populations:
//!
//! * **Districts** — static neighborhood meshes laid out on a coarse
//!   super-grid. The super-grid pitch (600 m) is far beyond the 100 m
//!   radio range, so districts never hear each other.
//! * **Convoys** — mobile columns (delivery routes, bus lines) of
//!   waypoint-driven nodes sweeping through the map at vehicle speeds.
//!   They cross district boundaries and force the spatial index to
//!   re-bin them as they drift.
//! * **Emergency swarm** — one dense fast-beaconing cluster (an incident
//!   response team) that concentrates traffic in a single hot spot, so
//!   load is never uniform.
//!
//! Every node runs [`CityBeacon`]: a timer-driven broadcast beacon whose
//! phase is drawn from the node's own RNG stream. Timer-driven (rather
//! than injected from the harness) traffic keeps a whole run inside a
//! single `run_until` call.

use siphoc_simnet::mobility::{Area, Mobility, WaypointParams};
use siphoc_simnet::prelude::*;

/// Broadcast port the beacons use.
pub const CITY_PORT: u16 = 9950;

/// Super-grid pitch between district origins, metres. Far beyond the
/// radio range, so districts stay disconnected from each other.
pub const DISTRICT_PITCH: f64 = 600.0;

/// Intra-district node pitch, metres (connected mesh at 100 m range).
const NODE_PITCH: f64 = 70.0;

/// Shape of a generated city.
#[derive(Debug, Clone, Copy)]
pub struct CityParams {
    /// Total node budget; the generator splits it ~80% districts,
    /// ~15% convoys, ~5% emergency swarm.
    pub nodes: usize,
    /// Nodes per district mesh.
    pub district_size: usize,
    /// Beacon period for ordinary nodes.
    pub beacon_every: SimDuration,
    /// Beacon period for the emergency swarm (denser traffic).
    pub swarm_beacon_every: SimDuration,
    /// Beacon payload size in bytes.
    pub payload: usize,
}

impl CityParams {
    /// Standard parameters for an `n`-node city.
    pub fn with_nodes(n: usize) -> CityParams {
        CityParams {
            nodes: n,
            district_size: 25,
            beacon_every: SimDuration::from_millis(500),
            swarm_beacon_every: SimDuration::from_millis(50),
            payload: 64,
        }
    }
}

/// Timer-driven broadcast beacon: binds its port, arms a timer with a
/// random phase within the first period (from the node's own RNG stream,
/// so placement and phase are reproducible per seed), and re-arms on
/// every fire. Received beacons take the full dispatch path and are
/// discarded.
///
/// The payload is a shared [`Payload`] template — typically one
/// allocation per beacon class for the whole city — so each fire clones
/// a refcount instead of materializing a fresh buffer per node per
/// send (at 100 k nodes that is hundreds of thousands of identical
/// allocations per simulated second).
#[derive(Debug)]
pub struct CityBeacon {
    every: SimDuration,
    payload: Payload,
}

impl CityBeacon {
    /// A beacon firing every `every`, broadcasting `payload`.
    pub fn new(every: SimDuration, payload: impl Into<Payload>) -> CityBeacon {
        CityBeacon {
            every,
            payload: payload.into(),
        }
    }
}

impl Process for CityBeacon {
    fn name(&self) -> &'static str {
        "city-beacon"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(CITY_PORT);
        let period = self.every.as_micros().max(1);
        let phase = ctx.rng().range_u64(0, period);
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let src = SocketAddr::new(ctx.addr(), CITY_PORT);
        let dst = SocketAddr::new(Addr::BROADCAST, CITY_PORT);
        ctx.send(Datagram::new(src, dst, self.payload.clone()));
        ctx.set_timer(self.every, 0);
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: &Datagram) {}
}

/// Builds the city into `world` and returns the node ids, grouped as
/// `(district_nodes, convoy_nodes, swarm_nodes)`.
///
/// Deterministic per `(world seed, params)`: all placement jitter comes
/// from the world-seed-derived stream `8787`, and beacon phases come
/// from each node's own stream.
pub fn build_city(
    world: &mut World,
    params: CityParams,
) -> (Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
    let mut rng = SimRng::from_seed_and_stream(world.config().seed, 8787);
    // One payload template per beacon class; every node's every fire
    // clones the refcount, never the bytes.
    let beacon_payload = Payload::from(vec![0xC1u8; params.payload]);
    let swarm_payload = Payload::from(vec![0xC1u8; params.payload]);
    let swarm_n = (params.nodes / 20).clamp(4, 60);
    let convoy_n = (params.nodes * 15 / 100).max(4);
    let district_n = params.nodes.saturating_sub(swarm_n + convoy_n);

    // Districts on the super-grid, row-major.
    let districts = district_n.div_ceil(params.district_size.max(1));
    let super_cols = (districts as f64).sqrt().ceil().max(1.0) as usize;
    let d_cols = (params.district_size as f64).sqrt().ceil().max(1.0) as usize;
    let mut district_ids = Vec::with_capacity(district_n);
    for i in 0..district_n {
        let d = i / params.district_size;
        let k = i % params.district_size;
        let ox = (d % super_cols) as f64 * DISTRICT_PITCH;
        let oy = (d / super_cols) as f64 * DISTRICT_PITCH;
        let x = ox + (k % d_cols) as f64 * NODE_PITCH + rng.range_f64(-15.0, 15.0);
        let y = oy + (k / d_cols) as f64 * NODE_PITCH + rng.range_f64(-15.0, 15.0);
        let id = world.add_node(NodeConfig::manet(x, y));
        world.spawn(
            id,
            Box::new(CityBeacon::new(params.beacon_every, beacon_payload.clone())),
        );
        district_ids.push(id);
    }

    // Convoys sweep the whole map at vehicle speeds.
    let side = super_cols as f64 * DISTRICT_PITCH;
    let area = Area::new(side.max(DISTRICT_PITCH), side.max(DISTRICT_PITCH));
    let wp = WaypointParams::new(8.0, 15.0, SimDuration::from_secs(2));
    let mut convoy_ids = Vec::with_capacity(convoy_n);
    for _ in 0..convoy_n {
        let start = area.sample(&mut rng);
        let id = world.add_node(NodeConfig::manet(start.0, start.1));
        world.set_mobility(
            id,
            Mobility::random_waypoint(start, wp, area, SimTime::ZERO, &mut rng),
        );
        world.spawn(
            id,
            Box::new(CityBeacon::new(params.beacon_every, beacon_payload.clone())),
        );
        convoy_ids.push(id);
    }

    // Emergency swarm: one dense cluster in the map's first district
    // gap, beaconing fast.
    let (sx, sy) = (DISTRICT_PITCH * 0.5, DISTRICT_PITCH * 0.5);
    let swarm_cols = (swarm_n as f64).sqrt().ceil().max(1.0) as usize;
    let mut swarm_ids = Vec::with_capacity(swarm_n);
    for i in 0..swarm_n {
        let x = sx + (i % swarm_cols) as f64 * 12.0 + rng.range_f64(-3.0, 3.0);
        let y = sy + (i / swarm_cols) as f64 * 12.0 + rng.range_f64(-3.0, 3.0);
        let id = world.add_node(NodeConfig::manet(x, y));
        world.spawn(
            id,
            Box::new(CityBeacon::new(
                params.swarm_beacon_every,
                swarm_payload.clone(),
            )),
        );
        swarm_ids.push(id);
    }

    (district_ids, convoy_ids, swarm_ids)
}
