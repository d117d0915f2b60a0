//! # siphoc-simnet
//!
//! A deterministic discrete-event wireless network simulator — the testbed
//! substrate for the SIPHoc reproduction (see the workspace `DESIGN.md`).
//!
//! The paper deployed its middleware on ~10 Linux laptops and iPAQ handhelds
//! in 802.11 ad hoc mode. This crate replaces that hardware with a simulated
//! world that preserves everything the middleware can observe: multihop
//! topologies, per-hop serialization delay, distance-dependent loss,
//! link-layer unicast retries with TX-failure feedback, node mobility and a
//! wired Internet backbone reachable through gateway nodes.
//!
//! ## Model
//!
//! * A [`world::World`] owns nodes and a time-ordered event queue; all
//!   randomness derives from one seed, so runs are exactly reproducible.
//! * Each [`node::Node`] hosts [`process::Process`]es — the analogue of the
//!   paper's "five components running as independent operating system
//!   processes" — communicating only via datagrams and node-local events.
//! * Datagrams are UDP-like: unreliable, unordered, delivered whole.
//! * Forwarding uses a per-node [`route::RoutingTable`] managed by whatever
//!   routing-protocol process runs on the node (see `siphoc-routing`).
//!
//! ## Example
//!
//! ```
//! use siphoc_simnet::prelude::*;
//!
//! let mut world = World::new(WorldConfig::new(42));
//! let a = world.add_node(NodeConfig::manet(0.0, 0.0));
//! let b = world.add_node(NodeConfig::manet(80.0, 0.0));
//! world.run_for(SimDuration::from_secs(1));
//! assert_ne!(world.node(a).addr(), world.node(b).addr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Re-export of the observability crate so downstream stack crates can
/// instrument without their own `siphoc-obs` dependency: `use
/// siphoc_simnet::obs::{SpanCat, SpanId};`. Every recording method is a
/// no-op shell unless `siphoc-obs`'s `enabled` feature is on.
pub use siphoc_obs as obs;

/// Whether this build records observability data: `siphoc-obs`'s
/// `enabled` feature, which the root crate's `obs` feature turns on.
pub const fn obs_enabled() -> bool {
    siphoc_obs::enabled()
}

pub(crate) mod exec;
pub mod fasthash;
pub mod fault;
pub(crate) mod grid;
pub mod ident;
pub mod mobility;
pub mod net;
pub mod node;
pub mod process;
mod queue;
pub mod radio;
pub mod rng;
pub mod route;
pub mod stats;
pub mod time;
pub mod trace;
pub mod world;

/// Convenient glob import of the types nearly every user needs.
pub mod prelude {
    pub use crate::fault::{
        FaultAction, FaultPlan, LinkSelector, MaliciousKind, PacketFault, PacketFaultKind,
    };
    pub use crate::mobility::{Area, Mobility, WaypointParams};
    pub use crate::net::{ports, Addr, Datagram, L2Dst, Payload, SocketAddr};
    pub use crate::node::{NodeConfig, NodeId};
    pub use crate::process::{Ctx, LocalEvent, LocalKind, Process};
    pub use crate::radio::{LossModel, RadioConfig};
    pub use crate::rng::SimRng;
    pub use crate::route::{Route, RoutingTable};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::world::{World, WorldConfig};
}
