//! The world every latency harness starts from.

use siphoc_simnet::prelude::*;

/// Creates a world with the ideal (lossless) radio — used when an
/// experiment isolates protocol latency from stochastic loss.
pub fn ideal_world(seed: u64) -> World {
    World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()))
}
