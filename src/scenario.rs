//! Declarative scenarios: drive a full SIPHoc simulation from a JSON
//! description instead of Rust code.
//!
//! This is the downstream-user entry point: describe nodes, users, calls,
//! mobility, gateways and providers in a file, run it with the
//! `siphoc-sim` binary (or [`Scenario::run`]), and read back a structured
//! [`ScenarioReport`].
//!
//! ```json
//! {
//!   "seed": 42,
//!   "duration_secs": 30,
//!   "routing": "aodv",
//!   "nodes": [
//!     { "x": 0,  "y": 0, "user": "alice",
//!       "calls": [ { "at_secs": 5, "to": "bob", "duration_secs": 10 } ] },
//!     { "x": 60, "y": 0, "user": "bob" }
//!   ]
//! }
//! ```

use serde::{Deserialize, Serialize};

use siphoc_core::config::VoipAppConfig;
use siphoc_core::nodesetup::{deploy, NodeSpec, RoutingProtocol, SiphocNode};
use siphoc_internet::dns::DnsDirectory;
use siphoc_internet::provider::{ProviderConfig, SipProviderProcess};
use siphoc_internet::relay::{RelayConfig, TurnRelay};
use siphoc_simnet::mobility::{Area, Mobility, WaypointParams};
use siphoc_simnet::net::{ports, Addr, SocketAddr};
use siphoc_simnet::node::NodeConfig;
use siphoc_simnet::prelude::*;
use siphoc_simnet::rng::SimRng;
use siphoc_sip::ua::CallEvent;
use siphoc_sip::uri::Aor;

/// Which radio model a scenario uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum RadioKind {
    /// Lossless channel.
    Ideal,
    /// 802.11b-like channel with distance loss.
    #[default]
    Typical,
}

/// Routing protocol selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum RoutingKind {
    /// On-demand AODV (SIPHoc's default).
    #[default]
    Aodv,
    /// Proactive OLSR.
    Olsr,
}

impl RoutingKind {
    fn to_protocol(self) -> RoutingProtocol {
        match self {
            RoutingKind::Aodv => RoutingProtocol::Aodv,
            RoutingKind::Olsr => RoutingProtocol::Olsr,
        }
    }
}

/// A scripted call in a scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CallSpec {
    /// When the caller dials, in seconds from scenario start.
    pub at_secs: u64,
    /// Callee user name (same SIP domain as the caller).
    pub to: String,
    /// How long the caller stays on the call once established.
    pub duration_secs: u64,
}

/// Random-waypoint mobility parameters for one node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MobilitySpec {
    /// Minimum speed, m/s.
    pub min_speed: f64,
    /// Maximum speed, m/s.
    pub max_speed: f64,
    /// Pause at each waypoint, seconds.
    #[serde(default)]
    pub pause_secs: u64,
}

/// One node in a scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSpecJson {
    /// Position, meters.
    pub x: f64,
    /// Position, meters.
    pub y: f64,
    /// User name running a VoIP application here, if any.
    #[serde(default)]
    pub user: Option<String>,
    /// Scripted calls placed by this node's user.
    #[serde(default)]
    pub calls: Vec<CallSpec>,
    /// Public address making this node an Internet gateway.
    #[serde(default)]
    pub gateway: Option<String>,
    /// Random-waypoint mobility (area = bounding box of all nodes + margin).
    #[serde(default)]
    pub mobility: Option<MobilitySpec>,
    /// Marks a gateway as NAT'd on its wired side: its tunnel leases are
    /// allocated through the scenario's TURN-style relay and all
    /// Internet traffic hairpins there. Requires `gateway` on this node
    /// and at least one entry in the scenario's `relays`.
    #[serde(default)]
    pub nat: bool,
    /// Arms the node with a dormant adversary process, activated by a
    /// `compromise` fault event targeting this node.
    #[serde(default)]
    pub adversary: bool,
}

/// Tunnel keepalive configuration, applied to every node's Connection
/// Provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeepaliveSpec {
    /// Ping interval, milliseconds. `0` disables keepalives (and with
    /// them fast dead-gateway detection and mid-call handoff).
    pub interval_ms: u64,
    /// Consecutive unanswered pings before the gateway is declared dead.
    #[serde(default = "default_max_missed")]
    pub max_missed: u32,
}

// See `default_reorder_ms` on why this needs the allow.
#[allow(dead_code)]
fn default_max_missed() -> u32 {
    3
}

/// Multi-homing configuration, applied to every node's Connection
/// Provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StandbySpec {
    /// How many warm standby gateway leases to hold alongside the active
    /// one. `0` disables multi-homing (break-before-make failover).
    pub target: u32,
    /// Standby pool maintenance cadence, milliseconds.
    #[serde(default = "default_standby_refresh_ms")]
    pub refresh_ms: u64,
}

// See `default_reorder_ms` on why this needs the allow.
#[allow(dead_code)]
fn default_standby_refresh_ms() -> u64 {
    10_000
}

/// A TURN-style media relay on the wired Internet (required by NAT'd
/// gateways).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelaySpec {
    /// Public address the relay listens on.
    pub addr: String,
}

/// A simulated Internet SIP provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProviderSpec {
    /// Domain the provider serves.
    pub domain: String,
    /// Public address its proxy listens on.
    pub addr: String,
}

/// One scheduled fault in a chaos plan. Nodes are referenced by their
/// index in the scenario's `nodes` array.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "action", rename_all = "snake_case")]
pub enum FaultEventSpec {
    /// Power a node down.
    Crash {
        /// When, seconds from scenario start.
        at_secs: u64,
        /// Node index.
        node: usize,
    },
    /// Power a node back up.
    Restart {
        /// When, seconds from scenario start.
        at_secs: u64,
        /// Node index.
        node: usize,
    },
    /// Administratively cut the radio link between two nodes.
    LinkDown {
        /// When, seconds from scenario start.
        at_secs: u64,
        /// First endpoint, node index.
        a: usize,
        /// Second endpoint, node index.
        b: usize,
    },
    /// Restore a previously cut link.
    LinkUp {
        /// When, seconds from scenario start.
        at_secs: u64,
        /// First endpoint, node index.
        a: usize,
        /// Second endpoint, node index.
        b: usize,
    },
    /// Cut every radio link between `island` members and the rest.
    Partition {
        /// When, seconds from scenario start.
        at_secs: u64,
        /// Island members, node indices.
        island: Vec<usize>,
    },
    /// Remove the partition and every explicit link cut.
    Heal {
        /// When, seconds from scenario start.
        at_secs: u64,
    },
    /// Turn a node malicious. The node must be armed with an adversary
    /// (`"adversary": true` in its spec); the event activates the attack.
    Compromise {
        /// When, seconds from scenario start.
        at_secs: u64,
        /// Node index.
        node: usize,
        /// Which attack the node mounts.
        kind: MaliciousKindSpec,
    },
}

/// The attack family of a `compromise` fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MaliciousKindSpec {
    /// Impersonate gateway adverts and blackhole tunneled traffic.
    RogueGateway,
    /// Impersonate SIP binding adverts to capture a victim's calls.
    AorHijack,
    /// Cache-poisoning flood over every advert seen.
    ForgedAdverts,
}

impl MaliciousKindSpec {
    fn to_kind(self) -> MaliciousKind {
        match self {
            MaliciousKindSpec::RogueGateway => MaliciousKind::RogueGateway,
            MaliciousKindSpec::AorHijack => MaliciousKind::AorHijack,
            MaliciousKindSpec::ForgedAdverts => MaliciousKind::ForgedAdverts,
        }
    }
}

/// Per-link packet fault kind selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum PacketFaultKindSpec {
    /// Deliver matching frames twice.
    Duplicate,
    /// Add extra delivery jitter so frames overtake each other.
    Reorder,
    /// Flip payload bytes before delivery.
    Corrupt,
    /// Silently drop frames after link-layer success.
    Blackhole,
}

/// A probabilistic packet fault on radio links.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PacketFaultSpec {
    /// What happens to afflicted frames.
    pub kind: PacketFaultKindSpec,
    /// Per-frame probability in `[0, 1]`.
    pub probability: f64,
    /// Window start, seconds from scenario start.
    #[serde(default)]
    pub from_secs: u64,
    /// Window end (exclusive); omitted = active forever.
    #[serde(default)]
    pub until_secs: Option<u64>,
    /// Restrict to the link between two node indices (both directions);
    /// omitted = every link.
    #[serde(default)]
    pub a: Option<usize>,
    /// Second endpoint of the restricted link.
    #[serde(default)]
    pub b: Option<usize>,
    /// Maximum extra delay for `reorder` faults, milliseconds.
    #[serde(default = "default_reorder_ms")]
    pub max_extra_ms: u64,
}

// Referenced only from `#[serde(default = ...)]` attributes, which offline
// builds with a derive stub do not expand into calls.
#[allow(dead_code)]
fn default_reorder_ms() -> u64 {
    50
}

/// Poisson churn over a set of nodes: alternating exponentially
/// distributed up and down times inside a window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Node indices subject to churn.
    pub nodes: Vec<usize>,
    /// Mean up-time, seconds.
    pub mean_up_secs: f64,
    /// Mean down-time, seconds.
    pub mean_down_secs: f64,
    /// Window start, seconds from scenario start.
    #[serde(default)]
    pub from_secs: u64,
    /// Window end; every churned node is back up by then.
    pub until_secs: u64,
}

/// The fault-injection plan of a scenario: scheduled topology faults,
/// probabilistic packet faults and Poisson node churn. Deterministic for
/// a given scenario seed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChaosSpec {
    /// Scheduled topology faults.
    #[serde(default)]
    pub events: Vec<FaultEventSpec>,
    /// Probabilistic per-link packet faults.
    #[serde(default)]
    pub packet_faults: Vec<PacketFaultSpec>,
    /// Poisson node churn.
    #[serde(default)]
    pub churn: Option<ChurnSpec>,
}

/// A complete scenario description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// World seed (replays are exact).
    pub seed: u64,
    /// How long to run.
    pub duration_secs: u64,
    /// Radio model.
    #[serde(default)]
    pub radio: RadioKind,
    /// Routing protocol for every node.
    #[serde(default)]
    pub routing: RoutingKind,
    /// SIP domain users register under.
    #[serde(default = "default_domain")]
    pub domain: String,
    /// The MANET nodes.
    pub nodes: Vec<NodeSpecJson>,
    /// Internet providers (needed for gateway scenarios).
    #[serde(default)]
    pub providers: Vec<ProviderSpec>,
    /// Fault-injection plan, if any.
    #[serde(default)]
    pub chaos: Option<ChaosSpec>,
    /// Tunnel keepalive override for every node; omitted keeps the
    /// Connection Provider defaults.
    #[serde(default)]
    pub keepalive: Option<KeepaliveSpec>,
    /// Multi-homing override for every node; omitted keeps the
    /// Connection Provider defaults (one warm standby).
    #[serde(default)]
    pub standby: Option<StandbySpec>,
    /// TURN-style media relays on the wired side. NAT'd gateways
    /// allocate their leases through the first relay.
    #[serde(default)]
    pub relays: Vec<RelaySpec>,
    /// Turns on the PKI-less defense layer on every node: signed SLP
    /// adverts verified and pinned at cache insert, challenge-based
    /// REGISTER auth, gateway attestation. Off by default — insecure
    /// scenarios replay byte-identically against their golden digests.
    #[serde(default)]
    pub secure: bool,
}

// See `default_reorder_ms` on why this needs the allow.
#[allow(dead_code)]
fn default_domain() -> String {
    "voicehoc.ch".to_owned()
}

/// Per-user outcome in a scenario report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserReport {
    /// The user.
    pub user: String,
    /// Calls placed.
    pub calls_placed: usize,
    /// Calls established.
    pub calls_established: usize,
    /// Incoming calls received.
    pub calls_received: usize,
    /// Worst MOS across this node's media sessions, if media flowed.
    pub worst_mos: Option<f64>,
    /// Human-readable event timeline.
    pub timeline: Vec<String>,
}

/// The structured outcome of a scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Echo of the seed.
    pub seed: u64,
    /// Simulated seconds executed.
    pub duration_secs: u64,
    /// Per-user outcomes.
    pub users: Vec<UserReport>,
    /// Total control payload bytes across routing and SLP.
    pub control_bytes: u64,
    /// Total RTP packets delivered.
    pub rtp_packets: u64,
    /// Fault-engine firings: topology events executed plus packet faults
    /// applied (`fault.*` counters summed over all nodes).
    pub faults_injected: u64,
}

/// Observability artifacts captured by [`Scenario::run_with_obs`].
///
/// All three strings are self-contained documents: the Chrome trace loads
/// directly in `about:tracing` / [Perfetto](https://ui.perfetto.dev), the
/// Prometheus text is scrape-format, and the JSON mirrors the registry.
/// With the `obs` feature disabled they are still valid documents, just
/// (near-)empty.
#[derive(Debug, Clone)]
pub struct ObsDump {
    /// Chrome `trace_event` JSON (per-call timelines + per-node tracks).
    pub chrome_trace: String,
    /// Prometheus text exposition of the merged metrics registry.
    pub metrics_prometheus: String,
    /// JSON rendering of the merged metrics registry.
    pub metrics_json: String,
}

/// Error running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The description failed validation.
    Invalid(String),
    /// JSON parse failure.
    Json(serde_json::Error),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
            ScenarioError::Json(e) => write!(f, "invalid scenario JSON: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<serde_json::Error> for ScenarioError {
    fn from(e: serde_json::Error) -> ScenarioError {
        ScenarioError::Json(e)
    }
}

impl Scenario {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on malformed JSON or an invalid
    /// description.
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        let s: Scenario = serde_json::from_str(text)?;
        s.validate()?;
        Ok(s)
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        if self.nodes.is_empty() {
            return Err(ScenarioError::Invalid("at least one node required".into()));
        }
        let users: Vec<&String> = self.nodes.iter().filter_map(|n| n.user.as_ref()).collect();
        for n in &self.nodes {
            for c in &n.calls {
                if n.user.is_none() {
                    return Err(ScenarioError::Invalid(format!(
                        "node at ({}, {}) places calls but has no user",
                        n.x, n.y
                    )));
                }
                if !users.iter().any(|u| **u == c.to) {
                    return Err(ScenarioError::Invalid(format!(
                        "callee {:?} is not a user",
                        c.to
                    )));
                }
            }
            if let Some(g) = &n.gateway {
                let addr: Addr = g
                    .parse()
                    .map_err(|_| ScenarioError::Invalid(format!("bad gateway address {g:?}")))?;
                if !addr.is_public() {
                    return Err(ScenarioError::Invalid(format!(
                        "gateway address {g} must be public"
                    )));
                }
            }
            if n.nat {
                if n.gateway.is_none() {
                    return Err(ScenarioError::Invalid(format!(
                        "node at ({}, {}) is marked nat but is not a gateway",
                        n.x, n.y
                    )));
                }
                if self.relays.is_empty() {
                    return Err(ScenarioError::Invalid(
                        "nat gateways need at least one relay".into(),
                    ));
                }
            }
        }
        for p in &self.providers {
            p.addr.parse::<Addr>().map_err(|_| {
                ScenarioError::Invalid(format!("bad provider address {:?}", p.addr))
            })?;
        }
        for r in &self.relays {
            let addr: Addr = r
                .addr
                .parse()
                .map_err(|_| ScenarioError::Invalid(format!("bad relay address {:?}", r.addr)))?;
            if !addr.is_public() {
                return Err(ScenarioError::Invalid(format!(
                    "relay address {} must be public",
                    r.addr
                )));
            }
        }
        if let Some(chaos) = &self.chaos {
            self.validate_chaos(chaos)?;
        }
        Ok(())
    }

    fn validate_chaos(&self, chaos: &ChaosSpec) -> Result<(), ScenarioError> {
        let check = |i: usize| -> Result<(), ScenarioError> {
            if i >= self.nodes.len() {
                return Err(ScenarioError::Invalid(format!(
                    "chaos references node index {i}, but only {} nodes exist",
                    self.nodes.len()
                )));
            }
            Ok(())
        };
        for ev in &chaos.events {
            match ev {
                FaultEventSpec::Crash { node, .. } | FaultEventSpec::Restart { node, .. } => {
                    check(*node)?;
                }
                FaultEventSpec::LinkDown { a, b, .. } | FaultEventSpec::LinkUp { a, b, .. } => {
                    check(*a)?;
                    check(*b)?;
                }
                FaultEventSpec::Partition { island, .. } => {
                    for &i in island {
                        check(i)?;
                    }
                }
                FaultEventSpec::Heal { .. } => {}
                FaultEventSpec::Compromise { node, .. } => {
                    check(*node)?;
                    if !self.nodes[*node].adversary {
                        return Err(ScenarioError::Invalid(format!(
                            "compromise targets node {node}, which is not armed \
                             with an adversary (set \"adversary\": true)"
                        )));
                    }
                }
            }
        }
        for pf in &chaos.packet_faults {
            if !(0.0..=1.0).contains(&pf.probability) {
                return Err(ScenarioError::Invalid(format!(
                    "packet fault probability {} outside [0, 1]",
                    pf.probability
                )));
            }
            match (pf.a, pf.b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    check(a)?;
                    check(b)?;
                }
                _ => {
                    return Err(ScenarioError::Invalid(
                        "packet fault link needs both endpoints a and b".into(),
                    ));
                }
            }
        }
        if let Some(churn) = &chaos.churn {
            if churn.mean_up_secs <= 0.0 || churn.mean_down_secs <= 0.0 {
                return Err(ScenarioError::Invalid(
                    "churn means must be positive".into(),
                ));
            }
            for &i in &churn.nodes {
                check(i)?;
            }
        }
        Ok(())
    }

    fn build_fault_plan(
        &self,
        chaos: &ChaosSpec,
        deployed: &[(Option<String>, SiphocNode)],
    ) -> FaultPlan {
        let id = |i: usize| deployed[i].1.id;
        let mut plan = FaultPlan::new();
        for ev in &chaos.events {
            plan = match *ev {
                FaultEventSpec::Crash { at_secs, node } => {
                    plan.crash_at(SimTime::from_secs(at_secs), id(node))
                }
                FaultEventSpec::Restart { at_secs, node } => {
                    plan.restart_at(SimTime::from_secs(at_secs), id(node))
                }
                FaultEventSpec::LinkDown { at_secs, a, b } => {
                    plan.link_down_at(SimTime::from_secs(at_secs), id(a), id(b))
                }
                FaultEventSpec::LinkUp { at_secs, a, b } => {
                    plan.link_up_at(SimTime::from_secs(at_secs), id(a), id(b))
                }
                FaultEventSpec::Partition {
                    at_secs,
                    ref island,
                } => plan.partition_at(
                    SimTime::from_secs(at_secs),
                    island.iter().map(|&i| id(i)).collect(),
                ),
                FaultEventSpec::Heal { at_secs } => plan.heal_at(SimTime::from_secs(at_secs)),
                FaultEventSpec::Compromise {
                    at_secs,
                    node,
                    kind,
                } => plan.compromise_at(SimTime::from_secs(at_secs), id(node), kind.to_kind()),
            };
        }
        for pf in &chaos.packet_faults {
            let on = match (pf.a, pf.b) {
                (Some(a), Some(b)) => LinkSelector::Pair(id(a), id(b)),
                _ => LinkSelector::All,
            };
            let kind = match pf.kind {
                PacketFaultKindSpec::Duplicate => PacketFaultKind::Duplicate,
                PacketFaultKindSpec::Reorder => PacketFaultKind::Reorder {
                    max_extra: SimDuration::from_millis(pf.max_extra_ms),
                },
                PacketFaultKindSpec::Corrupt => PacketFaultKind::Corrupt,
                PacketFaultKindSpec::Blackhole => PacketFaultKind::Blackhole,
            };
            let until = pf.until_secs.map_or(SimTime::MAX, SimTime::from_secs);
            plan = plan.packet_fault(
                on,
                kind,
                pf.probability,
                SimTime::from_secs(pf.from_secs),
                until,
            );
        }
        if let Some(churn) = &chaos.churn {
            let ids: Vec<_> = churn.nodes.iter().map(|&i| id(i)).collect();
            let mut rng = SimRng::from_seed_and_stream(self.seed, 91_000);
            plan = plan.with_poisson_churn(
                &ids,
                churn.mean_up_secs,
                churn.mean_down_secs,
                SimTime::from_secs(churn.from_secs),
                SimTime::from_secs(churn.until_secs),
                &mut rng,
            );
        }
        plan
    }

    /// Runs the scenario to completion and reports.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] if validation fails.
    pub fn run(&self) -> Result<ScenarioReport, ScenarioError> {
        let (report, _world) = self.run_world(false)?;
        Ok(report)
    }

    /// Runs the scenario with span tracing enabled and additionally
    /// returns the observability artifacts: a Chrome trace of every SIP
    /// transaction / SLP lookup / route discovery / tunnel handshake,
    /// plus the merged metrics registry in both export formats.
    ///
    /// Tracing is out-of-band: the [`ScenarioReport`] is bit-identical
    /// to what [`Scenario::run`] returns for the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] if validation fails.
    pub fn run_with_obs(&self) -> Result<(ScenarioReport, ObsDump), ScenarioError> {
        let (report, world) = self.run_world(true)?;
        let registry = world.obs_registry();
        let dump = ObsDump {
            chrome_trace: world.obs_chrome_trace(),
            metrics_prometheus: registry.render_prometheus(),
            metrics_json: registry.render_json(),
        };
        Ok((report, dump))
    }

    fn run_world(&self, tracing: bool) -> Result<(ScenarioReport, World), ScenarioError> {
        self.validate()?;
        let radio = match self.radio {
            RadioKind::Ideal => RadioConfig::ideal(),
            RadioKind::Typical => RadioConfig::default_80211b(),
        };
        let mut world = World::new(WorldConfig::new(self.seed).with_radio(radio));
        world.set_tracing(tracing);

        // DNS + providers.
        let mut dns = DnsDirectory::new();
        for p in &self.providers {
            dns.insert(&p.domain, p.addr.parse().expect("validated"));
        }
        for p in &self.providers {
            let id = world.add_node(NodeConfig::wired(p.addr.parse().expect("validated")));
            world.spawn(
                id,
                Box::new(SipProviderProcess::new(ProviderConfig::new(
                    &p.domain,
                    dns.clone(),
                ))),
            );
        }

        // TURN-style relays. Each gets its own relayed pool (base + 100,
        // the same convention gateways use for their lease blocks).
        let mut relay_endpoint = None;
        for r in &self.relays {
            let addr: Addr = r.addr.parse().expect("validated");
            let id = world.add_node(NodeConfig::wired(addr));
            world.spawn(
                id,
                Box::new(TurnRelay::new(RelayConfig {
                    pool_base: Addr(addr.0 + 100),
                    ..RelayConfig::default()
                })),
            );
            relay_endpoint.get_or_insert(SocketAddr::new(addr, ports::TUNNEL));
        }

        // Movement area: bounding box of all nodes plus margin.
        let max_x = self.nodes.iter().map(|n| n.x).fold(0.0, f64::max) + 50.0;
        let max_y = self.nodes.iter().map(|n| n.y).fold(0.0, f64::max) + 50.0;
        let area = Area::new(max_x.max(1.0), max_y.max(1.0));

        // MANET nodes.
        let mut deployed: Vec<(Option<String>, SiphocNode)> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let mut spec = NodeSpec::relay(n.x, n.y)
                .with_routing(self.routing.to_protocol())
                .with_dns(dns.clone());
            if self.secure {
                spec = spec.with_security();
            }
            if n.adversary {
                spec = spec.with_adversary();
            }
            if let Some(ka) = &self.keepalive {
                spec = spec.with_keepalive(SimDuration::from_millis(ka.interval_ms), ka.max_missed);
            }
            if let Some(sb) = &self.standby {
                spec = spec.with_standby(sb.target, SimDuration::from_millis(sb.refresh_ms));
            }
            if let Some(g) = &n.gateway {
                let public = g.parse().expect("validated");
                spec = if n.nat {
                    spec.with_nat_gateway(public, relay_endpoint.expect("validated"))
                } else {
                    spec.with_gateway(public)
                };
            }
            if let Some(m) = &n.mobility {
                let mut rng = SimRng::from_seed_and_stream(self.seed, 90_000 + i as u64);
                spec = spec.with_mobility(Mobility::random_waypoint(
                    (n.x, n.y),
                    WaypointParams::new(
                        m.min_speed,
                        m.max_speed,
                        SimDuration::from_secs(m.pause_secs),
                    ),
                    area,
                    SimTime::ZERO,
                    &mut rng,
                ));
            }
            if let Some(user) = &n.user {
                let mut ua = VoipAppConfig::fig2(user, &self.domain)
                    .to_ua_config()
                    .expect("localhost proxy resolves");
                for c in &n.calls {
                    ua = ua.call_at(
                        SimTime::from_secs(c.at_secs),
                        Aor::new(&c.to, &self.domain),
                        SimDuration::from_secs(c.duration_secs),
                    );
                }
                spec = spec.with_user(ua);
            }
            deployed.push((n.user.clone(), deploy(&mut world, spec)));
        }

        if let Some(chaos) = &self.chaos {
            world.install_fault_plan(self.build_fault_plan(chaos, &deployed));
        }

        world.run_for(SimDuration::from_secs(self.duration_secs));

        // Collect the report.
        let mut users = Vec::new();
        for (user, node) in &deployed {
            let Some(user) = user else { continue };
            let log = node.ua_logs[0].borrow();
            let worst_mos = node.media_reports.as_ref().and_then(|r| {
                r.borrow()
                    .iter()
                    .map(|s| s.quality.mos)
                    .fold(None, |acc: Option<f64>, m| {
                        Some(acc.map_or(m, |a| a.min(m)))
                    })
            });
            users.push(UserReport {
                user: user.clone(),
                calls_placed: log.count(|e| matches!(e, CallEvent::OutgoingCall { .. })),
                calls_established: log.count(|e| matches!(e, CallEvent::Established { .. })),
                calls_received: log.count(|e| matches!(e, CallEvent::IncomingCall { .. })),
                worst_mos,
                timeline: log
                    .events()
                    .iter()
                    .map(|(t, e)| format!("{t} {e:?}"))
                    .collect(),
            });
        }
        let total = world.total_stats();
        let control_bytes = siphoc_core::metrics::control_bytes(&total);
        let rtp_packets = total.get("media.rtp_rx").packets;
        let faults_injected = total.sum_prefix("fault.").packets;
        Ok((
            ScenarioReport {
                seed: self.seed,
                duration_secs: self.duration_secs,
                users,
                control_bytes,
                rtp_packets,
                faults_injected,
            },
            world,
        ))
    }
}

/// Convenience endpoint used by the `siphoc-sim` binary.
pub fn provider_endpoint(addr: Addr) -> SocketAddr {
    SocketAddr::new(addr, ports::SIP)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_NODE: &str = r#"{
        "seed": 7,
        "duration_secs": 25,
        "radio": "ideal",
        "nodes": [
            { "x": 0,  "y": 0, "user": "alice",
              "calls": [ { "at_secs": 5, "to": "bob", "duration_secs": 8 } ] },
            { "x": 60, "y": 0, "user": "bob" }
        ]
    }"#;

    #[test]
    fn two_node_scenario_completes_a_call() {
        let scenario = Scenario::from_json(TWO_NODE).unwrap();
        let report = scenario.run().unwrap();
        let alice = report.users.iter().find(|u| u.user == "alice").unwrap();
        let bob = report.users.iter().find(|u| u.user == "bob").unwrap();
        assert_eq!(alice.calls_placed, 1);
        assert_eq!(alice.calls_established, 1);
        assert_eq!(bob.calls_received, 1);
        assert!(alice.worst_mos.unwrap() > 4.0);
        assert!(report.rtp_packets > 700);
        // The report itself serializes (machine-readable output).
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"calls_established\":1"));
    }

    #[test]
    fn scenario_replays_identically() {
        let s = Scenario::from_json(TWO_NODE).unwrap();
        let a = serde_json::to_string(&s.run().unwrap()).unwrap();
        let b = serde_json::to_string(&s.run().unwrap()).unwrap();
        assert_eq!(a, b);
    }

    fn two_node_scenario() -> Scenario {
        Scenario {
            seed: 7,
            duration_secs: 25,
            radio: RadioKind::Ideal,
            routing: RoutingKind::Aodv,
            domain: default_domain(),
            nodes: vec![
                NodeSpecJson {
                    x: 0.0,
                    y: 0.0,
                    user: Some("alice".into()),
                    calls: vec![CallSpec {
                        at_secs: 5,
                        to: "bob".into(),
                        duration_secs: 8,
                    }],
                    gateway: None,
                    mobility: None,
                    nat: false,
                    adversary: false,
                },
                NodeSpecJson {
                    x: 60.0,
                    y: 0.0,
                    user: Some("bob".into()),
                    calls: Vec::new(),
                    gateway: None,
                    mobility: None,
                    nat: false,
                    adversary: false,
                },
            ],
            providers: Vec::new(),
            chaos: None,
            keepalive: None,
            standby: None,
            relays: Vec::new(),
            secure: false,
        }
    }

    #[test]
    fn chaos_plan_fires_and_calls_still_complete() {
        // Built directly (not via JSON) so the test exercises the fault
        // translation itself: a short partition plus forced duplication.
        let mut s = two_node_scenario();
        s.duration_secs = 40;
        s.chaos = Some(ChaosSpec {
            events: vec![
                FaultEventSpec::Partition {
                    at_secs: 20,
                    island: vec![0],
                },
                FaultEventSpec::Heal { at_secs: 25 },
            ],
            packet_faults: vec![PacketFaultSpec {
                kind: PacketFaultKindSpec::Duplicate,
                probability: 1.0,
                from_secs: 0,
                until_secs: None,
                a: None,
                b: None,
                max_extra_ms: 50,
            }],
            churn: None,
        });
        let report = s.run().unwrap();
        let alice = report.users.iter().find(|u| u.user == "alice").unwrap();
        assert_eq!(alice.calls_established, 1, "{:?}", alice.timeline);
        assert!(report.faults_injected > 0);
    }

    #[test]
    fn chaos_spec_parses_from_json() {
        let text = r#"{
            "seed": 3, "duration_secs": 10, "radio": "ideal",
            "nodes": [ { "x": 0, "y": 0 }, { "x": 50, "y": 0 } ],
            "chaos": {
                "events": [
                    { "action": "crash", "at_secs": 2, "node": 1 },
                    { "action": "restart", "at_secs": 4, "node": 1 },
                    { "action": "link_down", "at_secs": 5, "a": 0, "b": 1 },
                    { "action": "heal", "at_secs": 6 }
                ],
                "packet_faults": [
                    { "kind": "reorder", "probability": 0.2, "max_extra_ms": 30 },
                    { "kind": "corrupt", "probability": 0.01, "until_secs": 8 }
                ],
                "churn": { "nodes": [1], "mean_up_secs": 5,
                           "mean_down_secs": 2, "until_secs": 9 }
            }
        }"#;
        let s = Scenario::from_json(text).unwrap();
        let chaos = s.chaos.as_ref().unwrap();
        assert_eq!(chaos.events.len(), 4);
        assert_eq!(chaos.packet_faults.len(), 2);
        assert!(chaos.churn.is_some());
        let report = s.run().unwrap();
        assert!(report.faults_injected > 0);
    }

    #[test]
    fn chaos_validation_rejects_bad_references() {
        let mut s = two_node_scenario();
        s.chaos = Some(ChaosSpec {
            events: vec![FaultEventSpec::Crash {
                at_secs: 1,
                node: 9,
            }],
            ..ChaosSpec::default()
        });
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid(_))));

        s.chaos = Some(ChaosSpec {
            packet_faults: vec![PacketFaultSpec {
                kind: PacketFaultKindSpec::Corrupt,
                probability: 1.5,
                from_secs: 0,
                until_secs: None,
                a: None,
                b: None,
                max_extra_ms: 50,
            }],
            ..ChaosSpec::default()
        });
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid(_))));

        s.chaos = Some(ChaosSpec {
            churn: Some(ChurnSpec {
                nodes: vec![0],
                mean_up_secs: 0.0,
                mean_down_secs: 1.0,
                from_secs: 0,
                until_secs: 5,
            }),
            ..ChaosSpec::default()
        });
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn nat_validation_requires_gateway_and_relay() {
        let mut s = two_node_scenario();
        s.nodes[0].nat = true;
        assert!(
            matches!(s.validate(), Err(ScenarioError::Invalid(_))),
            "nat without gateway must be rejected"
        );
        s.nodes[0].gateway = Some("82.130.64.1".into());
        assert!(
            matches!(s.validate(), Err(ScenarioError::Invalid(_))),
            "nat without a relay must be rejected"
        );
        s.relays.push(RelaySpec {
            addr: "10.0.0.9".into(),
        });
        assert!(
            matches!(s.validate(), Err(ScenarioError::Invalid(_))),
            "relay address must be public"
        );
        s.relays[0].addr = "82.130.66.1".into();
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        assert!(Scenario::from_json("{}").is_err());
        let no_callee = r#"{"seed":1,"duration_secs":5,"nodes":[
            {"x":0,"y":0,"user":"a","calls":[{"at_secs":1,"to":"ghost","duration_secs":1}]}]}"#;
        assert!(matches!(
            Scenario::from_json(no_callee),
            Err(ScenarioError::Invalid(_))
        ));
        let bad_gw = r#"{"seed":1,"duration_secs":5,"nodes":[
            {"x":0,"y":0,"gateway":"10.0.0.1"}]}"#;
        assert!(matches!(
            Scenario::from_json(bad_gw),
            Err(ScenarioError::Invalid(_))
        ));
        let relay_only = r#"{"seed":1,"duration_secs":1,"nodes":[{"x":0,"y":0}]}"#;
        assert!(Scenario::from_json(relay_only).is_ok());
    }
}
