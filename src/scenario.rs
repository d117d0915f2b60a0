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
//!
//! The reader ([`Scenario::from_json`], on `siphoc_obs::json`) maps each
//! key onto the field of the same name. Keys it does not know are
//! ignored, an omitted optional key takes the default its field names,
//! `null` reads as absent for an `Option`, and a wrong type or an unknown
//! name is an error that names the key.

use siphoc_core::config::VoipAppConfig;
use siphoc_core::nodesetup::{deploy, NodeSpec, RoutingProtocol, SiphocNode};
use siphoc_internet::dns::DnsDirectory;
use siphoc_internet::provider::{ProviderConfig, SipProviderProcess};
use siphoc_internet::relay::{AddrPool, RelayConfig, TurnRelay};
use siphoc_simnet::mobility::{Area, Mobility, WaypointParams};
use siphoc_simnet::net::{ports, Addr, SocketAddr};
use siphoc_simnet::node::NodeConfig;
use siphoc_simnet::obs::chrome_trace_json;
use siphoc_simnet::obs::json::{self, Fields, FromJson, Value};
use siphoc_simnet::prelude::*;
use siphoc_simnet::rng::SimRng;
use siphoc_simnet::trace::Checkpoint;
use siphoc_sip::ua::CallEvent;
use siphoc_sip::uri::Aor;

/// A scripted call in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSpec {
    /// When the caller dials, in seconds from scenario start.
    pub at_secs: u64,
    /// Callee user name (same SIP domain as the caller).
    pub to: String,
    /// How long the caller stays on the call once established.
    pub duration_secs: u64,
}

impl FromJson for CallSpec {
    fn from_json(v: &Value, at: &str) -> Result<CallSpec, String> {
        let f = Fields::of(v, at)?;
        Ok(CallSpec {
            at_secs: f.req("at_secs")?,
            to: f.req("to")?,
            duration_secs: f.req("duration_secs")?,
        })
    }
}

/// Random-waypoint mobility parameters for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilitySpec {
    /// Minimum speed, m/s.
    pub min_speed: f64,
    /// Maximum speed, m/s.
    pub max_speed: f64,
    /// Pause at each waypoint, seconds; `0` when omitted.
    pub pause_secs: u64,
}

impl FromJson for MobilitySpec {
    fn from_json(v: &Value, at: &str) -> Result<MobilitySpec, String> {
        let f = Fields::of(v, at)?;
        Ok(MobilitySpec {
            min_speed: f.req("min_speed")?,
            max_speed: f.req("max_speed")?,
            pause_secs: f.or("pause_secs", 0)?,
        })
    }
}

/// One node in a scenario. Every field but the position may be omitted.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpecJson {
    /// Position, meters.
    pub x: f64,
    /// Position, meters.
    pub y: f64,
    /// User name running a VoIP application here, if any.
    pub user: Option<String>,
    /// Scripted calls placed by this node's user.
    pub calls: Vec<CallSpec>,
    /// Public address making this node an Internet gateway.
    pub gateway: Option<String>,
    /// Random-waypoint mobility (area = bounding box of all nodes + margin).
    pub mobility: Option<MobilitySpec>,
    /// Marks a gateway as NAT'd on its wired side: its tunnel leases are
    /// allocated through the scenario's TURN-style relay and all
    /// Internet traffic hairpins there. Requires `gateway` on this node
    /// and at least one entry in the scenario's `relays`.
    pub nat: bool,
    /// Arms the node with a dormant adversary process, activated by a
    /// `compromise` fault event targeting this node.
    pub adversary: bool,
}

impl FromJson for NodeSpecJson {
    fn from_json(v: &Value, at: &str) -> Result<NodeSpecJson, String> {
        let f = Fields::of(v, at)?;
        Ok(NodeSpecJson {
            x: f.req("x")?,
            y: f.req("y")?,
            user: f.opt("user")?,
            calls: f.or("calls", Vec::new())?,
            gateway: f.opt("gateway")?,
            mobility: f.opt("mobility")?,
            nat: f.or("nat", false)?,
            adversary: f.or("adversary", false)?,
        })
    }
}

/// Tunnel keepalive configuration, applied to every node's Connection
/// Provider.
#[derive(Debug, Clone, PartialEq)]
pub struct KeepaliveSpec {
    /// Ping interval, milliseconds. `0` disables keepalives (and with
    /// them fast dead-gateway detection and mid-call handoff).
    pub interval_ms: u64,
    /// Consecutive unanswered pings before the gateway is declared dead;
    /// `3` when omitted.
    pub max_missed: u32,
}

impl FromJson for KeepaliveSpec {
    fn from_json(v: &Value, at: &str) -> Result<KeepaliveSpec, String> {
        let f = Fields::of(v, at)?;
        Ok(KeepaliveSpec {
            interval_ms: f.req("interval_ms")?,
            max_missed: f.or("max_missed", 3)?,
        })
    }
}

/// Multi-homing configuration, applied to every node's Connection
/// Provider.
#[derive(Debug, Clone, PartialEq)]
pub struct StandbySpec {
    /// How many warm standby gateway leases to hold alongside the active
    /// one. `0` disables multi-homing (break-before-make failover).
    pub target: u32,
    /// Standby pool maintenance cadence, milliseconds; `10000` when
    /// omitted.
    pub refresh_ms: u64,
}

impl FromJson for StandbySpec {
    fn from_json(v: &Value, at: &str) -> Result<StandbySpec, String> {
        let f = Fields::of(v, at)?;
        Ok(StandbySpec {
            target: f.req("target")?,
            refresh_ms: f.or("refresh_ms", 10_000)?,
        })
    }
}

/// A TURN-style media relay on the wired Internet (required by NAT'd
/// gateways).
#[derive(Debug, Clone, PartialEq)]
pub struct RelaySpec {
    /// Public address the relay listens on.
    pub addr: String,
}

impl FromJson for RelaySpec {
    fn from_json(v: &Value, at: &str) -> Result<RelaySpec, String> {
        Ok(RelaySpec {
            addr: Fields::of(v, at)?.req("addr")?,
        })
    }
}

/// A simulated Internet SIP provider.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderSpec {
    /// Domain the provider serves.
    pub domain: String,
    /// Public address its proxy listens on.
    pub addr: String,
}

impl FromJson for ProviderSpec {
    fn from_json(v: &Value, at: &str) -> Result<ProviderSpec, String> {
        let f = Fields::of(v, at)?;
        Ok(ProviderSpec {
            domain: f.req("domain")?,
            addr: f.req("addr")?,
        })
    }
}

/// One scheduled fault in a chaos plan. Nodes are referenced by their
/// index in the scenario's `nodes` array. In JSON the variant is the
/// snake_case name under `"action"`, beside the variant's fields.
#[derive(Debug, Clone, PartialEq)]
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
        /// Which attack the node mounts: `"rogue_gateway"`,
        /// `"aor_hijack"` or `"forged_adverts"`.
        kind: MaliciousKind,
    },
}

impl FromJson for FaultEventSpec {
    fn from_json(v: &Value, at: &str) -> Result<FaultEventSpec, String> {
        let f = Fields::of(v, at)?;
        let action: String = f.req("action")?;
        let at_secs = || f.req("at_secs");
        Ok(match action.as_str() {
            "crash" => FaultEventSpec::Crash {
                at_secs: at_secs()?,
                node: f.req("node")?,
            },
            "restart" => FaultEventSpec::Restart {
                at_secs: at_secs()?,
                node: f.req("node")?,
            },
            "link_down" => FaultEventSpec::LinkDown {
                at_secs: at_secs()?,
                a: f.req("a")?,
                b: f.req("b")?,
            },
            "link_up" => FaultEventSpec::LinkUp {
                at_secs: at_secs()?,
                a: f.req("a")?,
                b: f.req("b")?,
            },
            "partition" => FaultEventSpec::Partition {
                at_secs: at_secs()?,
                island: f.req("island")?,
            },
            "heal" => FaultEventSpec::Heal {
                at_secs: at_secs()?,
            },
            "compromise" => FaultEventSpec::Compromise {
                at_secs: at_secs()?,
                node: f.req("node")?,
                kind: f.name(
                    "kind",
                    &[
                        ("rogue_gateway", MaliciousKind::RogueGateway),
                        ("aor_hijack", MaliciousKind::AorHijack),
                        ("forged_adverts", MaliciousKind::ForgedAdverts),
                    ],
                    None,
                )?,
            },
            other => {
                return Err(format!(
                    "{at}.action: unknown variant {other:?}, expected one of crash, restart, \
                     link_down, link_up, partition, heal, compromise"
                ))
            }
        })
    }
}

/// A probabilistic packet fault on radio links.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketFaultSpec {
    /// What happens to afflicted frames: `"duplicate"`, `"reorder"`,
    /// `"corrupt"` or `"blackhole"`. A reorder's bound is the JSON key
    /// `max_extra_ms`, 50 ms when omitted.
    pub kind: PacketFaultKind,
    /// Per-frame probability in `[0, 1]`.
    pub probability: f64,
    /// Window start, seconds from scenario start; `0` when omitted.
    pub from_secs: u64,
    /// Window end (exclusive); omitted = active forever.
    pub until_secs: Option<u64>,
    /// Restrict to the link between two node indices (both directions);
    /// omitted = every link.
    pub a: Option<usize>,
    /// Second endpoint of the restricted link.
    pub b: Option<usize>,
}

impl FromJson for PacketFaultSpec {
    fn from_json(v: &Value, at: &str) -> Result<PacketFaultSpec, String> {
        let f = Fields::of(v, at)?;
        let mut kind = f.name(
            "kind",
            &[
                ("duplicate", PacketFaultKind::Duplicate),
                (
                    "reorder",
                    PacketFaultKind::Reorder {
                        max_extra: SimDuration::ZERO,
                    },
                ),
                ("corrupt", PacketFaultKind::Corrupt),
                ("blackhole", PacketFaultKind::Blackhole),
            ],
            None,
        )?;
        if let PacketFaultKind::Reorder { max_extra } = &mut kind {
            let ms: u64 = f.or("max_extra_ms", 50)?;
            let us = ms
                .checked_mul(1_000)
                .ok_or_else(|| format!("{at}.max_extra_ms: out of range"))?;
            *max_extra = SimDuration::from_micros(us);
        }
        Ok(PacketFaultSpec {
            kind,
            probability: f.req("probability")?,
            from_secs: f.or("from_secs", 0)?,
            until_secs: f.opt("until_secs")?,
            a: f.opt("a")?,
            b: f.opt("b")?,
        })
    }
}

/// Poisson churn over a set of nodes: alternating exponentially
/// distributed up and down times inside a window.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Node indices subject to churn.
    pub nodes: Vec<usize>,
    /// Mean up-time, seconds.
    pub mean_up_secs: f64,
    /// Mean down-time, seconds.
    pub mean_down_secs: f64,
    /// Window start, seconds from scenario start; `0` when omitted.
    pub from_secs: u64,
    /// Window end; every churned node is back up by then.
    pub until_secs: u64,
}

impl FromJson for ChurnSpec {
    fn from_json(v: &Value, at: &str) -> Result<ChurnSpec, String> {
        let f = Fields::of(v, at)?;
        Ok(ChurnSpec {
            nodes: f.req("nodes")?,
            mean_up_secs: f.req("mean_up_secs")?,
            mean_down_secs: f.req("mean_down_secs")?,
            from_secs: f.or("from_secs", 0)?,
            until_secs: f.req("until_secs")?,
        })
    }
}

/// The fault-injection plan of a scenario: scheduled topology faults,
/// probabilistic packet faults and Poisson node churn. Deterministic for
/// a given scenario seed. Every part may be omitted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosSpec {
    /// Scheduled topology faults.
    pub events: Vec<FaultEventSpec>,
    /// Probabilistic per-link packet faults.
    pub packet_faults: Vec<PacketFaultSpec>,
    /// Poisson node churn.
    pub churn: Option<ChurnSpec>,
}

impl FromJson for ChaosSpec {
    fn from_json(v: &Value, at: &str) -> Result<ChaosSpec, String> {
        let f = Fields::of(v, at)?;
        Ok(ChaosSpec {
            events: f.or("events", Vec::new())?,
            packet_faults: f.or("packet_faults", Vec::new())?,
            churn: f.opt("churn")?,
        })
    }
}

/// A complete scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// World seed (replays are exact).
    pub seed: u64,
    /// How long to run.
    pub duration_secs: u64,
    /// Radio model: `"ideal"` (lossless) or `"typical"` (802.11b-like
    /// with distance loss, the default).
    pub radio: RadioConfig,
    /// Routing protocol for every node: `"aodv"` (the default) or
    /// `"olsr"`.
    pub routing: RoutingProtocol,
    /// SIP domain users register under; `voicehoc.ch` when omitted.
    pub domain: String,
    /// The MANET nodes.
    pub nodes: Vec<NodeSpecJson>,
    /// Internet providers (needed for gateway scenarios).
    pub providers: Vec<ProviderSpec>,
    /// Fault-injection plan, if any.
    pub chaos: Option<ChaosSpec>,
    /// Tunnel keepalive override for every node; omitted keeps the
    /// Connection Provider defaults.
    pub keepalive: Option<KeepaliveSpec>,
    /// Multi-homing override for every node; omitted keeps the
    /// Connection Provider defaults (one warm standby).
    pub standby: Option<StandbySpec>,
    /// TURN-style media relays on the wired side. NAT'd gateways
    /// allocate their leases through the first relay.
    pub relays: Vec<RelaySpec>,
    /// Turns on the PKI-less defense layer on every node: signed SLP
    /// adverts verified and pinned at cache insert, challenge-based
    /// REGISTER auth, gateway attestation. Off by default — insecure
    /// scenarios replay byte-identically against their golden digests.
    pub secure: bool,
}

/// Per-user outcome in a scenario report.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
    /// The run fingerprint: the packet trace's final digest.
    pub fingerprint: u64,
    /// The trace's checkpoints, one per simulated second in which
    /// something happened: each covers everything before its `at`.
    pub checkpoints: Vec<Checkpoint>,
}

impl ScenarioReport {
    /// The report as a JSON document, members in field order (what
    /// `siphoc-sim --json` prints); the fingerprint and each checkpoint's
    /// digest are 16-digit hex strings, beside the checkpoint's second.
    pub fn to_json(&self) -> String {
        let count = |n: usize| Value::Int(n as u64);
        let hex = |h: u64| Value::Str(format!("{h:016x}"));
        let users = self.users.iter().map(|u| {
            Value::obj([
                ("user", Value::Str(u.user.clone())),
                ("calls_placed", count(u.calls_placed)),
                ("calls_established", count(u.calls_established)),
                ("calls_received", count(u.calls_received)),
                ("worst_mos", u.worst_mos.map_or(Value::Null, Value::Float)),
                (
                    "timeline",
                    Value::Arr(u.timeline.iter().cloned().map(Value::Str).collect()),
                ),
            ])
        });
        Value::obj([
            ("seed", Value::Int(self.seed)),
            ("duration_secs", Value::Int(self.duration_secs)),
            ("users", Value::Arr(users.collect())),
            ("control_bytes", Value::Int(self.control_bytes)),
            ("rtp_packets", Value::Int(self.rtp_packets)),
            ("faults_injected", Value::Int(self.faults_injected)),
            ("fingerprint", hex(self.fingerprint)),
            (
                "checkpoints",
                Value::Arr(
                    self.checkpoints
                        .iter()
                        .map(|c| {
                            Value::obj([
                                ("at_s", Value::Int(c.at.as_micros() / 1_000_000)),
                                ("digest", hex(c.digest)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }
}

/// Observability artifacts captured by [`Scenario::run_with_obs`].
///
/// Both are self-contained JSON documents, written with
/// [`Value::to_pretty`]: the Chrome trace loads directly in
/// `about:tracing` / [Perfetto](https://ui.perfetto.dev), and the
/// metrics document mirrors the registry. With the `obs` feature disabled
/// they are still valid documents, just (near-)empty.
#[derive(Debug, Clone)]
pub struct ObsDump {
    /// Chrome `trace_event` array (per-call timelines + per-node tracks).
    pub chrome_trace: Value,
    /// The merged metrics registry ([`Registry::to_json`]).
    ///
    /// [`Registry::to_json`]: siphoc_simnet::obs::Registry::to_json
    pub metrics: Value,
}

/// Error running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The description failed validation.
    Invalid(String),
    /// The text is not JSON, or a key holds the wrong type or an unknown
    /// variant; the message names the key.
    Json(String),
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

impl Scenario {
    /// Parses a scenario from JSON text. Keys the format does not know
    /// are ignored, so files written for an older format replay.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on malformed JSON or an invalid
    /// description.
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        let s = json::parse(text)
            .and_then(|v| Scenario::read(&v))
            .map_err(ScenarioError::Json)?;
        s.validate()?;
        Ok(s)
    }

    fn read(v: &Value) -> Result<Scenario, String> {
        let f = Fields::of(v, "")?;
        let typical = RadioConfig::default_80211b();
        Ok(Scenario {
            seed: f.req("seed")?,
            duration_secs: f.req("duration_secs")?,
            radio: f.name(
                "radio",
                &[("ideal", RadioConfig::ideal()), ("typical", typical)],
                Some(typical),
            )?,
            routing: f.name(
                "routing",
                &[
                    ("aodv", RoutingProtocol::Aodv),
                    ("olsr", RoutingProtocol::Olsr),
                ],
                Some(RoutingProtocol::Aodv),
            )?,
            domain: f.or("domain", "voicehoc.ch".to_owned())?,
            nodes: f.req("nodes")?,
            providers: f.or("providers", Vec::new())?,
            chaos: f.opt("chaos")?,
            keepalive: f.opt("keepalive")?,
            standby: f.opt("standby")?,
            relays: f.or("relays", Vec::new())?,
            secure: f.or("secure", false)?,
        })
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
                } => plan.compromise_at(SimTime::from_secs(at_secs), id(node), kind),
            };
        }
        for pf in &chaos.packet_faults {
            let on = match (pf.a, pf.b) {
                (Some(a), Some(b)) => LinkSelector::Pair(id(a), id(b)),
                _ => LinkSelector::All,
            };
            let until = pf.until_secs.map_or(SimTime::MAX, SimTime::from_secs);
            plan = plan.packet_fault(
                on,
                pf.kind,
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
    /// plus the merged metrics registry.
    ///
    /// Tracing is out-of-band: the [`ScenarioReport`] is bit-identical
    /// to what [`Scenario::run`] returns for the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] if validation fails.
    pub fn run_with_obs(&self) -> Result<(ScenarioReport, ObsDump), ScenarioError> {
        let (report, world) = self.run_world(true)?;
        let dump = ObsDump {
            chrome_trace: chrome_trace_json(&world.obs_spans()),
            metrics: world.obs_registry().to_json(),
        };
        Ok((report, dump))
    }

    fn run_world(&self, tracing: bool) -> Result<(ScenarioReport, World), ScenarioError> {
        self.validate()?;
        let mut world = World::new(WorldConfig::new(self.seed).with_radio(self.radio));
        world.set_tracing(tracing);
        // The packet trace keeps nothing but the run fingerprint; like
        // span tracing it schedules no event and draws no randomness.
        world.trace_mut().set_capacity(0);
        world.trace_mut().set_enabled(true);

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
                    pool: AddrPool::new(Addr(addr.0 + 100), 64),
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
                .with_routing(self.routing)
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
                fingerprint: world.trace().digest(),
                checkpoints: world.trace().checkpoints().to_vec(),
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
        // The report itself serializes (machine-readable output), with
        // the run fingerprint and one checkpoint per simulated second.
        let json = report.to_json();
        assert!(json.contains("\"calls_established\": 1"));
        assert!(json.contains(&format!("\"fingerprint\": \"{:016x}\"", report.fingerprint)));
        assert_eq!(report.checkpoints.len(), 25);
        let last = report.checkpoints.last().unwrap();
        assert_eq!(last.at, SimTime::from_secs(25));
        assert!(json.contains("\"at_s\": 25,"));
        assert!(json.contains(&format!("\"digest\": \"{:016x}\"", last.digest)));
    }

    #[test]
    fn scenario_replays_identically() {
        let s = Scenario::from_json(TWO_NODE).unwrap();
        let a = s.run().unwrap().to_json();
        let b = s.run().unwrap().to_json();
        assert_eq!(a, b);
    }

    fn two_node_scenario() -> Scenario {
        Scenario {
            seed: 7,
            duration_secs: 25,
            radio: RadioConfig::ideal(),
            routing: RoutingProtocol::Aodv,
            domain: "voicehoc.ch".into(),
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
                kind: PacketFaultKind::Duplicate,
                probability: 1.0,
                from_secs: 0,
                until_secs: None,
                a: None,
                b: None,
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
                kind: PacketFaultKind::Corrupt,
                probability: 1.5,
                from_secs: 0,
                until_secs: None,
                a: None,
                b: None,
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
