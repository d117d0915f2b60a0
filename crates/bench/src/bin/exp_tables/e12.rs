//! E12 — adversarial faults vs the PKI-less defense layer (not a paper
//! figure: the paper's trust model accepts adverts, REGISTERs and leases
//! on receipt).
//!
//! Two attacks from the malicious fault family run against the full
//! stack, each twice per seed — defenses off (the paper's trust-everyone
//! baseline) and on (signed SLP adverts + registry pins, challenge
//! REGISTER auth, gateway attestation):
//!
//! * **AOR hijack** — a compromised relay on the only path between two
//!   callers impersonates the callee's SIP binding in its own shared
//!   registry (victim origin kept, contact flipped to the attacker's
//!   blackhole port, sequence boosted past any honest refresh). The
//!   unmodified SLP daemon gossips the forgery; defense-off every INVITE
//!   lands on the attacker. Defense-on the forgery dies at cache-insert
//!   (AOR + origin pins) and calls complete normally.
//! * **Rogue gateway** — the compromised node impersonates both real
//!   gateways' adverts, then the serving gateway is killed. The
//!   break-before-make re-lease consults the poisoned registry;
//!   defense-off the client `TCONNECT`s to the attacker's fake tunnel
//!   server, accepts a TEST-NET-3 lease, and its tunneled traffic is
//!   blackholed. Defense-on the forgeries are rejected and the client
//!   re-homes to the surviving real gateway.
//!
//! The ablation arm runs the hijack topology *benign* (no compromise)
//! with defenses off vs on and reports call-setup delay plus per-advert
//! wire bytes — the price of the signature layer. Its fifteen calls per
//! arm support a median and a maximum, no higher percentile.

use siphoc_core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use siphoc_internet::dns::DnsDirectory;
use siphoc_internet::provider::{ProviderConfig, SipProviderProcess};
use siphoc_simnet::ident::KeyPair;
use siphoc_simnet::net::ports;
use siphoc_simnet::prelude::*;
use siphoc_sip::ua::{CallEvent, UaConfig, UaLog, UserAgent};
use siphoc_sip::uri::Aor;
use siphoc_slp::service::ServiceEntry;

use crate::grid::{percentile, within, Cell, Cell::Num, Column, Grid, Section};
use crate::worlds::{bench_ua, ideal_world, metro_world, pool_of, public_addrs};
use crate::{Shape, Table};

const SEEDS: [u64; 5] = [7701, 7702, 7703, 7704, 7705];
const PROVIDER: Addr = Addr(0x52010101);
const GW_A: Addr = Addr(0x5282_4001); // 82.130.64.1
const GW_B: Addr = Addr(0x5282_4101); // 82.130.65.1
const DOMAIN: &str = "voicehoc.ch";

/// The bogus lease pool handed out by the fake tunnel server
/// (TEST-NET-3, the /24 of `core::adversary`'s `BOGUS_PUBLIC`).
const BOGUS_POOL: Addr = Addr(0xcb00_7100); // 203.0.113.0

/// One arm of the experiment, run with defenses off and then on.
#[derive(Clone, Copy, PartialEq)]
pub enum Arm {
    /// AOR hijack in a 3-node chain.
    Hijack,
    /// Rogue gateway + serving-gateway kill in E9's topology.
    Rogue,
    /// The hijack chain with no compromise: what the defenses cost.
    Benign,
}

/// The arms of every seed, in table order.
const ARMS: [Arm; 3] = [Arm::Hijack, Arm::Rogue, Arm::Benign];

impl Arm {
    fn label(self, secure: bool) -> String {
        let name = match self {
            Arm::Hijack => "hijack",
            Arm::Rogue => "rogue",
            Arm::Benign => "benign",
        };
        format!("{name}/{}", if secure { "on" } else { "off" })
    }
}

/// What one run reads off its world.
#[derive(Default)]
pub struct Outcome {
    /// Calls alice placed.
    pub calls: usize,
    /// Calls that established.
    pub established: usize,
    /// INVITEs blackholed by the attacker (unique Call-IDs).
    pub hijacked: u64,
    /// Rogue-gateway runs: did the client end up on a bogus lease?
    pub captured: bool,
    /// Rogue-gateway runs: did the client hold a lease from the other,
    /// real gateway after the kill?
    pub rehomed: bool,
    /// Bogus leases the fake tunnel server granted.
    pub bogus_leases: u64,
    /// Tunneled datagrams the attacker dropped.
    pub blackholed: u64,
    /// OutgoingCall → Established per completed call, milliseconds.
    pub setup_ms: Vec<f64>,
}

impl Outcome {
    /// Whether the attack of `arm` won this run: every placed call
    /// swallowed by the blackhole and none established, or the client
    /// captured by the rogue gateway. A benign run has no attack.
    fn attack_won(&self, arm: Arm) -> bool {
        match arm {
            Arm::Hijack => {
                self.calls > 0 && self.hijacked as usize >= self.calls && self.established == 0
            }
            Arm::Rogue => self.captured,
            Arm::Benign => false,
        }
    }
}

fn chain_spec(x: f64, secure: bool) -> NodeSpec {
    let spec = NodeSpec::relay(x, 0.0).with_routing(RoutingProtocol::Olsr);
    if secure {
        spec.with_security()
    } else {
        spec
    }
}

fn setup_deltas(log: &UaLog) -> Vec<f64> {
    let mut out = Vec::new();
    for (t0, ev) in log.events() {
        let CallEvent::OutgoingCall { call_id, .. } = ev else {
            continue;
        };
        let est = log.events().iter().find_map(|(t, e)| match e {
            CallEvent::Established { call_id: c, .. } if c == call_id => Some(*t),
            _ => None,
        });
        if let Some(t1) = est {
            out.push(t1.saturating_since(*t0).as_secs_f64() * 1e3);
        }
    }
    out
}

/// AOR hijack: alice — mallory — bob in a line; mallory is the only
/// relay, so every INVITE and every gossiped advert crosses it. With
/// `attack`, mallory is compromised at t=20 s and alice's three calls
/// (t=30/45/60) run against the poisoned caches.
fn run_hijack(seed: u64, secure: bool, attack: bool) -> Outcome {
    let mut w = ideal_world(seed);
    let mut ua = bench_ua("alice");
    for at in [30u64, 45, 60] {
        ua = ua.call_at(
            SimTime::from_secs(at),
            Aor::new("bob", DOMAIN),
            SimDuration::from_secs(5),
        );
    }
    let alice = deploy(&mut w, chain_spec(0.0, secure).with_user(ua));
    let mallory = deploy(&mut w, chain_spec(60.0, secure).with_adversary());
    deploy(&mut w, chain_spec(120.0, secure).with_user(bench_ua("bob")));

    if attack {
        w.install_fault_plan(FaultPlan::new().compromise_at(
            SimTime::from_secs(20),
            mallory.id,
            MaliciousKind::AorHijack,
        ));
    }
    w.run_until(SimTime::from_secs(80));

    let log = alice.ua_logs[0].borrow();
    let rogue = w.stats(mallory.id);
    Outcome {
        calls: log.count(|e| matches!(e, CallEvent::OutgoingCall { .. })),
        established: log.count(|e| matches!(e, CallEvent::Established { .. })),
        hijacked: rogue.get("rogue.hijacked_calls").packets,
        setup_ms: setup_deltas(&log),
        ..Outcome::default()
    }
}

/// Rogue gateway: E9's chain (two real gateways flanking the MANET,
/// alice mid-call to a wired UA, break-before-make Connection Provider).
/// Mallory is compromised at t=35; the serving gateway dies at t=50 and
/// the forced re-lease runs against the poisoned registry.
fn run_rogue(seed: u64, secure: bool) -> Outcome {
    let mut w = metro_world(seed);
    let dns = DnsDirectory::new().with_record(DOMAIN, PROVIDER);
    let p = w.add_node(NodeConfig::wired(PROVIDER));
    let provider = SipProviderProcess::new(ProviderConfig::new(DOMAIN, dns.clone()));
    w.spawn(p, Box::new(provider));
    let iris_node = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 50)));
    let (iris, _) = UserAgent::new(UaConfig::new(
        Aor::new("iris", DOMAIN),
        SocketAddr::new(PROVIDER, ports::SIP),
    ));
    w.spawn(iris_node, Box::new(iris));

    // Break-before-make on every MANET node: the kill must force a
    // re-lease *through the registry* rather than a standby promotion.
    let tune = |x: f64| {
        chain_spec(x, secure)
            .with_standby(0, SimDuration::from_secs(10))
            .with_dns(dns.clone())
    };

    let gw_a = deploy(&mut w, tune(0.0).with_gateway(GW_A));
    let ua = bench_ua("alice").call_at(
        SimTime::from_secs(30),
        Aor::new("iris", DOMAIN),
        SimDuration::from_secs(45),
    );
    let alice = deploy(&mut w, tune(60.0).with_user(ua));
    // The rogue tunnel server needs the tunnel port, which the Connection
    // Provider's client half owns on an attached node — the attacker
    // shuts its own client down before going rogue.
    let mallory = deploy(
        &mut w,
        tune(120.0).without_connection_provider().with_adversary(),
    );
    let gw_b = deploy(&mut w, tune(180.0).with_gateway(GW_B));

    w.install_fault_plan(FaultPlan::new().compromise_at(
        SimTime::from_secs(35),
        mallory.id,
        MaliciousKind::RogueGateway,
    ));

    // Lease + call up; find the serving gateway before the kill.
    w.run_until(SimTime::from_secs(50));
    let first = public_addrs(&w, alice.id);
    let serving = match first.first() {
        Some(a) if pool_of(*a) != pool_of(Addr(GW_A.0 + 100)) => gw_b.id,
        _ => gw_a.id,
    };
    w.set_node_up(serving, false);
    w.run_until(SimTime::from_secs(75));

    let after = public_addrs(&w, alice.id);
    let captured = after.iter().any(|a| pool_of(*a) == BOGUS_POOL);
    let rehomed = first.first().is_some_and(|f| {
        let elsewhere = |a: &Addr| ![pool_of(*f), BOGUS_POOL].contains(&pool_of(*a));
        after.iter().any(elsewhere)
    });
    let log = alice.ua_logs[0].borrow();
    let rogue = w.stats(mallory.id);
    Outcome {
        calls: log.count(|e| matches!(e, CallEvent::OutgoingCall { .. })),
        established: log.count(|e| matches!(e, CallEvent::Established { .. })),
        captured,
        rehomed,
        bogus_leases: rogue.get("rogue.lease").packets,
        blackholed: rogue.get("rogue.blackholed").packets,
        ..Outcome::default()
    }
}

fn run_case(seed: u64, arm: Arm, secure: bool) -> Outcome {
    match arm {
        Arm::Hijack => run_hijack(seed, secure, true),
        Arm::Rogue => run_rogue(seed, secure),
        Arm::Benign => run_hijack(seed, secure, false),
    }
}

/// Per-advert bytes `[unsigned, signed]` of a SIP binding and of a
/// gateway advert — the wire cost of the defense.
fn advert_bytes() -> [(&'static str, [usize; 2]); 2] {
    let origin = Addr::new(10, 0, 0, 3);
    let kp = KeyPair::for_addr(origin.0);
    let sip = ServiceEntry::sip_binding(
        "bob@voicehoc.ch",
        SocketAddr::new(origin, ports::SIP),
        origin,
        7,
        120,
    );
    let gw = ServiceEntry::gateway(SocketAddr::new(origin, ports::TUNNEL), origin, 7, 60);
    let sizes = |e: ServiceEntry| [e.to_wire().len(), e.signed(&kp).to_wire().len()];
    [("sip binding", sizes(sip)), ("gateway", sizes(gw))]
}

/// The table of every `(seed, arm, defenses on)` run, in run order; then
/// how many runs each attack won, the benign arm's setup delay and the
/// advert sizes.
pub fn grid(runs: &[(u64, Arm, bool, Outcome)]) -> Grid {
    let mut per_run = Section::new(&[
        Column::num("seed", 6, 0),
        Column::num("case", 11, 0),
        Column::num("calls", 6, 0),
        Column::num("est", 6, 0),
        Column::num("hijacked", 9, 0),
        Column::num("captured", 9, 0),
        Column::num("rehomed", 8, 0),
        Column::num("leases", 7, 0),
        Column::num("blackholed", 11, 0),
    ]);
    for (seed, arm, secure, o) in runs {
        let rogue_only = |b: bool| match arm {
            Arm::Rogue => Cell::text(if b { "yes" } else { "no" }),
            Arm::Hijack | Arm::Benign => Cell::text("-"),
        };
        per_run.rows.push(vec![
            Num(*seed as f64),
            Cell::Text(arm.label(*secure)),
            Num(o.calls as f64),
            Num(o.established as f64),
            Num(o.hijacked as f64),
            rogue_only(o.captured),
            rogue_only(o.rehomed),
            Num(o.bogus_leases as f64),
            Num(o.blackholed as f64),
        ]);
    }

    let of = |arm: Arm, secure: bool| {
        let runs = runs.iter().filter(move |r| (r.1, r.2) == (arm, secure));
        runs.map(|r| &r.3)
    };
    let mut wins = Section::new(&[
        Column::label("attack", 14),
        Column::num("defenses off", 13, 0),
        Column::num("defenses on", 12, 0),
    ]);
    wins.caption = Some("-- runs the attack won, of 5 --");
    for (label, arm) in [("aor hijack", Arm::Hijack), ("rogue gateway", Arm::Rogue)] {
        let won = |secure| Num(of(arm, secure).filter(|o| o.attack_won(arm)).count() as f64);
        wins.rows
            .push(vec![Cell::text(label), won(false), won(true)]);
    }

    let mut ablation = Section::new(&[
        Column::label("defenses", 9),
        Column::num("setup p50 (ms)", 15, 2),
        Column::num("max (ms)", 9, 2),
        Column::num("calls", 6, 0),
    ]);
    ablation.caption = Some("-- benign arm: call setup --");
    for secure in [false, true] {
        let setups = of(Arm::Benign, secure).flat_map(|o| o.setup_ms.iter().copied());
        let ms: Vec<f64> = setups.collect();
        let pct = |p| Num(percentile(&ms, p).unwrap_or(f64::NAN));
        let label = Cell::text(if secure { "on" } else { "off" });
        ablation
            .rows
            .push(vec![label, pct(50.0), pct(100.0), Num(ms.len() as f64)]);
    }

    let mut adverts = Section::new(&[
        Column::label("advert", 12),
        Column::num("unsigned (B)", 13, 0),
        Column::num("signed (B)", 11, 0),
        Column::num("added (B)", 10, 0),
    ]);
    adverts.caption = Some("-- advert wire size --");
    for (label, [unsigned, signed]) in advert_bytes() {
        adverts.rows.push(vec![
            Cell::text(label),
            Num(unsigned as f64),
            Num(signed as f64),
            Num((signed - unsigned) as f64),
        ]);
    }
    Grid {
        sections: vec![per_run, wins, ablation, adverts],
        ..Grid::default()
    }
}

fn run() -> Grid {
    let run = |(seed, arm, secure)| (seed, arm, secure, run_case(seed, arm, secure));
    grid(&every_run().map(run).collect::<Vec<_>>())
}

/// `(seed, arm, defenses on)` of every run, in table order.
pub fn every_run() -> impl Iterator<Item = (u64, Arm, bool)> {
    let arms = |seed| ARMS.into_iter().map(move |arm| (seed, arm));
    let sides = |(seed, arm)| [false, true].map(|secure| (seed, arm, secure));
    SEEDS.into_iter().flat_map(arms).flat_map(sides)
}

/// Section 0 holds one row per run — seed, case, calls, est, hijacked,
/// captured, rehomed, leases, blackholed; section 1 the attacks' wins
/// with defenses off and on; section 2 the benign arm's setup p50, max
/// and calls; section 3 the advert sizes.
pub const TABLE: Table = Table {
    id: "E12",
    title: "E12: adversarial faults vs PKI-less defenses (5 seeds)",
    run,
    shape: &[
        Shape {
            claim: "hijack and rogue gateway each succeed on 5/5 runs with defenses off and 0/5 \
                    with defenses on",
            holds: |g| within(&g.col(1, 1), 5.0, 5.0) && within(&g.col(1, 2), 0.0, 0.0),
        },
        Shape {
            claim: "every defense-on hijack run establishes its 3 calls with 0 hijacked",
            holds: |g| {
                let cells = |r: &Vec<Cell>| [2, 3, 4].map(|c| r[c].value());
                g.rows_with(0, 1, "hijack/on")
                    .all(|r| cells(r) == [3.0, 3.0, 0.0])
            },
        },
        Shape {
            claim: "every defense-on rogue run re-homes to the surviving real gateway",
            holds: |g| {
                g.rows_with(0, 1, "rogue/on")
                    .all(|r| r[6] == Cell::text("yes"))
            },
        },
        Shape {
            claim: "signing adds 34 B per advert",
            holds: |g| within(&g.col(3, 3), 34.0, 34.0),
        },
        Shape {
            claim: "the defenses move the benign arm's setup p50 and max by less than 0.5 ms \
                    either way",
            holds: |g| {
                [1, 2]
                    .map(|c| g.col(2, c))
                    .iter()
                    .all(|x| (x[1] - x[0]).abs() < 0.5)
            },
        },
    ],
};
