//! Topology builders shared by the experiment binaries.

use siphoc_core::config::VoipAppConfig;
use siphoc_core::nodesetup::{deploy, NodeSpec, RoutingProtocol, SiphocNode};
use siphoc_simnet::mobility::{Area, Mobility, WaypointParams};
use siphoc_simnet::prelude::*;
use siphoc_simnet::rng::SimRng;

/// Default node spacing along chains: comfortably inside the
/// clear part of the 100 m radio range.
pub const SPACING: f64 = 60.0;

/// Creates a world with the ideal (lossless) radio — used when an
/// experiment isolates protocol latency from stochastic loss.
pub fn ideal_world(seed: u64) -> World {
    World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()))
}

/// Creates a world with the typical lossy radio.
pub fn typical_world(seed: u64) -> World {
    World::new(WorldConfig::new(seed))
}

/// Deploys a chain of `n` SIPHoc nodes; `users` maps node index → user
/// name. Returns the deployed handles in chain order.
pub fn siphoc_chain(
    world: &mut World,
    n: usize,
    routing: RoutingProtocol,
    users: &[(usize, &str)],
) -> Vec<SiphocNode> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut spec = NodeSpec::relay(i as f64 * SPACING, 0.0)
            .with_routing(routing)
            .without_connection_provider();
        if let Some((_, name)) = users.iter().find(|(slot, _)| *slot == i) {
            let ua = bench_ua(name);
            spec = spec.with_user(ua);
        }
        out.push(deploy(world, spec));
    }
    out
}

/// Builds a bench user agent: Fig. 2 configuration but with zero
/// auto-answer delay, so setup-time measurements see protocol latency
/// rather than a fixed ring time.
pub fn bench_ua(name: &str) -> siphoc_sip::ua::UaConfig {
    let mut ua = VoipAppConfig::fig2(name, "voicehoc.ch")
        .to_ua_config()
        .expect("localhost proxy resolves");
    ua.answer_delay = SimDuration::ZERO;
    ua
}

/// Random-waypoint mobility for node `index`, derived deterministically
/// from the world seed.
pub fn waypoint(
    seed: u64,
    index: u64,
    area: Area,
    min_speed: f64,
    max_speed: f64,
    pause_s: u64,
) -> Mobility {
    let mut rng = SimRng::from_seed_and_stream(seed, 50_000 + index);
    let start = area.sample(&mut rng);
    Mobility::random_waypoint(
        start,
        WaypointParams::new(min_speed, max_speed, SimDuration::from_secs(pause_s)),
        area,
        SimTime::ZERO,
        &mut rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_positions_are_spaced() {
        let mut w = ideal_world(1);
        let nodes = siphoc_chain(&mut w, 3, RoutingProtocol::Aodv, &[(0, "a"), (2, "b")]);
        assert_eq!(nodes.len(), 3);
        assert_eq!(w.node(nodes[2].id).position(SimTime::ZERO).0, 2.0 * SPACING);
        assert_eq!(nodes[0].ua_logs.len(), 1);
        assert_eq!(nodes[1].ua_logs.len(), 0);
    }
}
