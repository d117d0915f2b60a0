//! Node assembly: deploying the full SIPHoc stack on a simulated node.
//!
//! This is the programmatic equivalent of installing the paper's 1.2 MB
//! software bundle on a laptop or iPAQ: one call spawns the five
//! components of Fig. 1 — VoIP application(s), SIPHoc proxy, MANET SLP,
//! Gateway Provider and Connection Provider — wired together exactly as
//! the architecture prescribes, plus the media plane.

use siphoc_simnet::mobility::Mobility;
use siphoc_simnet::net::Addr;
use siphoc_simnet::node::NodeConfig as SimNodeConfig;
use siphoc_simnet::node::NodeId;
use siphoc_simnet::process::Process;
use siphoc_simnet::world::World;

use siphoc_internet::dns::DnsDirectory;
use siphoc_internet::relay::AddrPool;
use siphoc_media::session::{MediaConfig, MediaProcess, ReportLog};
use siphoc_routing::aodv::AodvProcess;
use siphoc_routing::olsr::OlsrProcess;
use siphoc_sip::ua::{UaConfig, UaLogHandle, UserAgent};
use siphoc_slp::daemon::{Dissemination, SlpDaemon};
use siphoc_slp::manet::ManetSlpHandler;
use siphoc_slp::registry::{shared_registry, SharedRegistry};

use crate::adversary::Adversary;
use crate::connection::{ConnectionProvider, ConnectionProviderConfig};
use crate::gateway::GatewayProvider;
use crate::proxy::{SiphocProxy, SiphocProxyConfig};
use crate::tunnel::{TunnelServer, TunnelServerConfig};

use siphoc_simnet::ident::KeyPair;

use std::cell::RefCell;
use std::rc::Rc;

/// Which routing protocol (and thus SLP dissemination style) a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingProtocol {
    /// AODV with on-demand MANET SLP.
    Aodv,
    /// OLSR with proactive MANET SLP.
    Olsr,
}

impl RoutingProtocol {
    /// [`RoutingProtocol::Olsr`], under the name `benchmark/` calls.
    pub fn olsr() -> RoutingProtocol {
        RoutingProtocol::Olsr
    }

    fn dissemination(self) -> Dissemination {
        match self {
            RoutingProtocol::Aodv => Dissemination::OnDemand,
            RoutingProtocol::Olsr => Dissemination::Proactive,
        }
    }
}

/// Specification of one SIPHoc node.
#[derive(Debug)]
pub struct NodeSpec {
    /// Initial position in meters.
    pub position: (f64, f64),
    /// Mobility model; `None` keeps the node static.
    pub mobility: Option<Mobility>,
    /// Routing protocol.
    pub routing: RoutingProtocol,
    /// VoIP applications to run (usually one; may be empty for pure
    /// relays).
    pub users: Vec<UaConfig>,
    /// Public wired-side address; `Some` makes the node a gateway running
    /// the Gateway Provider and tunnel server.
    pub gateway_public: Option<Addr>,
    /// Domain directory shared with the Internet substrate.
    pub dns: DnsDirectory,
    /// Whether to run the media plane.
    pub media: bool,
    /// Whether to run the Connection Provider. Disable only in
    /// experiments that must keep its periodic gateway lookups (and the
    /// binding gossip they carry) off the air.
    pub connection_provider: bool,
    /// Tunnel keepalive override for the Connection Provider:
    /// `(interval, max_missed_pings)`. `None` keeps the defaults; an
    /// interval of `SimDuration::ZERO` disables keepalives (and with them
    /// fast dead-gateway detection and mid-call handoff).
    pub keepalive: Option<(siphoc_simnet::time::SimDuration, u32)>,
    /// Standby-lease override for the Connection Provider:
    /// `(standby_target, refresh_cadence)`. `None` keeps the defaults; a
    /// target of `0` disables multi-homing and restores pure
    /// break-before-make failover.
    pub standby: Option<(u32, siphoc_simnet::time::SimDuration)>,
    /// When set on a gateway, its wired side is NAT'd: lease addresses
    /// are allocated through this TURN-style relay instead of being
    /// claimed locally.
    pub gateway_relay: Option<siphoc_simnet::net::SocketAddr>,
    /// Turns on the PKI-less defense layer: the SLP daemon signs local
    /// adverts with the node key and verifies + pins at cache insert,
    /// the proxy challenges REGISTERs, and user agents answer with
    /// self-certifying credentials. Off by default — insecure nodes take
    /// byte-identical code paths to the pre-security stack.
    pub secure: bool,
    /// Deploys a dormant [`Adversary`] on this node; the fault plan's
    /// `Compromise` action activates it. Only meaningful on plain MANET
    /// nodes (a rogue gateway binds the tunnel port a real gateway's
    /// tunnel server already owns).
    pub adversary: bool,
}

impl NodeSpec {
    /// A plain MANET node at `(x, y)` running AODV, no users.
    pub fn relay(x: f64, y: f64) -> NodeSpec {
        NodeSpec {
            position: (x, y),
            mobility: None,
            routing: RoutingProtocol::Aodv,
            users: Vec::new(),
            gateway_public: None,
            dns: DnsDirectory::new(),
            media: false,
            connection_provider: true,
            keepalive: None,
            standby: None,
            gateway_relay: None,
            secure: false,
            adversary: false,
        }
    }

    /// Enables the defense layer (signed + pinned SLP, REGISTER auth).
    pub fn with_security(mut self) -> NodeSpec {
        self.secure = true;
        self
    }

    /// Arms this node with a dormant adversary (activated by the fault
    /// plan's `Compromise` action). In secure worlds the attacker signs
    /// its forgeries with its own node key — the strongest attack the
    /// Dolev–Yao model allows.
    pub fn with_adversary(mut self) -> NodeSpec {
        self.adversary = true;
        self
    }

    /// Overrides the Connection Provider's tunnel keepalive behavior:
    /// ping every `interval`, declare the gateway dead after `max_missed`
    /// consecutive unanswered pings. `SimDuration::ZERO` disables
    /// keepalives entirely.
    pub fn with_keepalive(
        mut self,
        interval: siphoc_simnet::time::SimDuration,
        max_missed: u32,
    ) -> NodeSpec {
        self.keepalive = Some((interval, max_missed));
        self
    }

    /// Overrides the Connection Provider's multi-homing: hold warm leases
    /// on up to `target` standby gateways, refreshing the pool every
    /// `refresh`. `target = 0` disables standbys (break-before-make).
    pub fn with_standby(
        mut self,
        target: u32,
        refresh: siphoc_simnet::time::SimDuration,
    ) -> NodeSpec {
        self.standby = Some((target, refresh));
        self
    }

    /// Makes the node a NAT'd gateway: it advertises and serves tunnel
    /// leases as usual, but the lease addresses are allocated on (and all
    /// Internet traffic hairpins through) the TURN-style relay at
    /// `relay`.
    pub fn with_nat_gateway(
        mut self,
        public: Addr,
        relay: siphoc_simnet::net::SocketAddr,
    ) -> NodeSpec {
        self.gateway_public = Some(public);
        self.gateway_relay = Some(relay);
        self
    }

    /// Disables the Connection Provider (experiment isolation).
    pub fn without_connection_provider(mut self) -> NodeSpec {
        self.connection_provider = false;
        self
    }

    /// Adds a VoIP user (builder style).
    pub fn with_user(mut self, ua: UaConfig) -> NodeSpec {
        self.users.push(ua);
        self.media = true;
        self
    }

    /// Makes the node a gateway with the given public address.
    pub fn with_gateway(mut self, public: Addr) -> NodeSpec {
        self.gateway_public = Some(public);
        self
    }

    /// Sets the routing protocol.
    pub fn with_routing(mut self, routing: RoutingProtocol) -> NodeSpec {
        self.routing = routing;
        self
    }

    /// Sets the DNS directory.
    pub fn with_dns(mut self, dns: DnsDirectory) -> NodeSpec {
        self.dns = dns;
        self
    }

    /// Sets the mobility model.
    pub fn with_mobility(mut self, mobility: Mobility) -> NodeSpec {
        self.mobility = Some(mobility);
        self
    }
}

/// Handles to everything observable on a deployed SIPHoc node.
#[derive(Debug)]
pub struct SiphocNode {
    /// Simulator node id.
    pub id: NodeId,
    /// MANET address.
    pub addr: Addr,
    /// The node's MANET SLP registry (Fig. 4 dumps, assertions).
    pub registry: SharedRegistry,
    /// One event log per deployed user agent, in `users` order.
    pub ua_logs: Vec<UaLogHandle>,
    /// Media session reports, when the media plane runs.
    pub media_reports: Option<ReportLog>,
}

/// Deploys a SIPHoc node into the world (paper Fig. 1 composition).
pub fn deploy(world: &mut World, spec: NodeSpec) -> SiphocNode {
    let (x, y) = spec.position;
    let mut cfg = match spec.gateway_public {
        Some(public) => SimNodeConfig::gateway(x, y).with_public_alias(public),
        None => SimNodeConfig::manet(x, y),
    };
    if let Some(m) = spec.mobility {
        cfg = cfg.with_mobility(m);
    }
    let id = world.add_node(cfg);
    let addr = world.node(id).addr();
    // The node's self-certifying key: deterministic per address, so a
    // secure deployment needs no key-distribution step (and no RNG draw).
    let node_key = spec.secure.then(|| KeyPair::for_addr(addr.0));

    // Routing + MANET SLP handler (the libipq capture analogue).
    let registry = shared_registry();
    if spec.secure {
        registry.borrow_mut().set_require_signed(true);
    }
    let handler = Rc::new(RefCell::new(ManetSlpHandler::new(
        registry.clone(),
        spec.routing.dissemination(),
    )));
    let routing: Box<dyn Process> = match spec.routing {
        RoutingProtocol::Aodv => Box::new(AodvProcess::new().with_handler(handler)),
        RoutingProtocol::Olsr => Box::new(OlsrProcess::new().with_handler(handler)),
    };
    world.spawn(id, routing);

    // MANET SLP daemon.
    let mut slp = SlpDaemon::new(spec.routing.dissemination(), registry.clone());
    if let Some(kp) = node_key {
        slp = slp.with_identity(kp);
    }
    world.spawn(id, Box::new(slp));

    // SIPHoc proxy.
    let proxy_cfg = SiphocProxyConfig {
        dns: spec.dns.clone(),
        auth: spec.secure,
    };
    world.spawn(id, Box::new(SiphocProxy::new(proxy_cfg)));

    // Connection Provider (every node), Gateway Provider + tunnel server
    // (gateways only).
    if spec.connection_provider {
        let mut cp_cfg = ConnectionProviderConfig {
            wired_public: spec.gateway_public,
            ..ConnectionProviderConfig::default()
        };
        if let Some((interval, max_missed)) = spec.keepalive {
            cp_cfg.keepalive_interval = interval;
            cp_cfg.keepalive_max_missed = max_missed;
        }
        if let Some((target, refresh)) = spec.standby {
            cp_cfg.standby_target = target;
            cp_cfg.standby_refresh = refresh;
        }
        world.spawn(
            id,
            Box::new(ConnectionProvider::new(cp_cfg).with_registry(registry.clone())),
        );
    }
    if let Some(public) = spec.gateway_public {
        // Each gateway leases from its own public block (base + 100), so
        // multiple gateways never hand out colliding addresses.
        let tunnel_cfg = TunnelServerConfig {
            pool: AddrPool::new(Addr(public.0 + 100), 64),
            relay: spec.gateway_relay,
            wired_public: Some(public),
        };
        world.spawn(id, Box::new(TunnelServer::new(tunnel_cfg)));
        world.spawn(id, Box::new(GatewayProvider::new()));
    }

    // Media plane.
    let media_reports = if spec.media {
        let rtp_port = spec.users.first().map(|u| u.rtp_port).unwrap_or(8000);
        let (media, reports) = MediaProcess::new(MediaConfig::pcmu(rtp_port));
        world.spawn(id, Box::new(media));
        Some(reports)
    } else {
        None
    };

    // Adversary (dormant until the fault plan compromises the node).
    if spec.adversary {
        world.spawn(
            id,
            Box::new(Adversary::new(node_key).with_registry(registry.clone())),
        );
    }

    // VoIP applications. Their "localhost" outbound proxy is this node's
    // SIPHoc proxy.
    let mut ua_logs = Vec::new();
    for mut ua_cfg in spec.users {
        if spec.secure && ua_cfg.identity.is_none() {
            // Per-user key so the AOR pin names the user, not the box.
            ua_cfg.identity = Some(KeyPair::for_name(&ua_cfg.aor.to_string()));
        }
        let (ua, log) = UserAgent::new(ua_cfg);
        world.spawn(id, Box::new(ua));
        ua_logs.push(log);
    }

    SiphocNode {
        id,
        addr,
        registry,
        ua_logs,
        media_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::prelude::*;

    #[test]
    fn deploy_spawns_expected_processes() {
        let mut w = World::new(WorldConfig::new(71).with_radio(RadioConfig::ideal()));
        let spec = NodeSpec::relay(0.0, 0.0);
        let n = deploy(&mut w, spec);
        let names = w.node(n.id).process_names().to_vec();
        assert!(names.contains(&"aodv"));
        assert!(names.contains(&"manet-slp"));
        assert!(names.contains(&"siphoc-proxy"));
        assert!(names.contains(&"connection-provider"));
        assert!(!names.contains(&"tunnel-server"));
    }

    #[test]
    fn secure_deploy_arms_defenses_and_adversary_stays_dormant() {
        let mut w = World::new(WorldConfig::new(73).with_radio(RadioConfig::ideal()));
        let spec = NodeSpec::relay(0.0, 0.0).with_security().with_adversary();
        let n = deploy(&mut w, spec);
        assert!(n.registry.borrow().require_signed());
        let names = w.node(n.id).process_names().to_vec();
        assert!(names.contains(&"adversary"));
        // Insecure deploys keep the legacy policy.
        let plain = deploy(&mut w, NodeSpec::relay(10.0, 0.0));
        assert!(!plain.registry.borrow().require_signed());
    }

    #[test]
    fn gateway_deploy_adds_tunnel_and_provider() {
        let mut w = World::new(WorldConfig::new(72).with_radio(RadioConfig::ideal()));
        let spec = NodeSpec::relay(0.0, 0.0).with_gateway(Addr::new(82, 130, 64, 1));
        let n = deploy(&mut w, spec);
        let names = w.node(n.id).process_names().to_vec();
        assert!(names.contains(&"tunnel-server"));
        assert!(names.contains(&"gateway-provider"));
        assert!(w.node(n.id).has_wired());
        assert!(w
            .node(n.id)
            .local_addrs()
            .contains(&Addr::new(82, 130, 64, 1)));
    }
}
