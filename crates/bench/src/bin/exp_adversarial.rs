//! E12 — adversarial faults vs the PKI-less defense layer.
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
//! with defenses off vs on and reports call-setup delay percentiles plus
//! per-advert wire bytes — the price of the signature layer. Run with
//! `--release`; `--smoke` runs the first seed only and writes no results
//! file; the full run renders `results/BENCH_adversarial.json`.

use std::fmt::Write as _;

use siphoc_bench::record::{arg, render_provenance};
use siphoc_core::config::VoipAppConfig;
use siphoc_core::nodesetup::{deploy, NodeSpec, RoutingProtocol};
use siphoc_internet::dns::DnsDirectory;
use siphoc_internet::provider::{ProviderConfig, SipProviderProcess};
use siphoc_simnet::net::ports;
use siphoc_simnet::prelude::*;
use siphoc_sip::ua::{CallEvent, UaConfig, UserAgent};
use siphoc_sip::uri::Aor;
use siphoc_slp::service::ServiceEntry;

const SEEDS: [u64; 5] = [7701, 7702, 7703, 7704, 7705];
const PROVIDER: Addr = Addr(0x52010101);
const GW_A: Addr = Addr(0x5282_4001); // 82.130.64.1
const GW_B: Addr = Addr(0x5282_4101); // 82.130.65.1
const DOMAIN: &str = "voicehoc.ch";

/// The bogus lease pool handed out by the fake tunnel server
/// (TEST-NET-3, the /24 of `core::adversary`'s `BOGUS_PUBLIC`).
const BOGUS_POOL: Addr = Addr(0xcb00_7100); // 203.0.113.0

#[derive(Clone, Copy, PartialEq)]
enum Case {
    /// AOR hijack in a 3-node chain; `attack: false` is the benign
    /// ablation run measuring setup-delay overhead.
    Hijack { secure: bool, attack: bool },
    /// Rogue gateway + serving-gateway kill in the handoff topology.
    Rogue { secure: bool },
}

impl Case {
    fn label(self) -> String {
        let (name, secure) = match self {
            Case::Hijack {
                secure,
                attack: true,
            } => ("hijack", secure),
            Case::Hijack {
                secure,
                attack: false,
            } => ("benign", secure),
            Case::Rogue { secure } => ("rogue", secure),
        };
        format!("{name}/{}", if secure { "on" } else { "off" })
    }
}

#[derive(Default)]
struct Outcome {
    /// Calls alice placed / calls that established.
    calls: usize,
    established: usize,
    /// INVITEs blackholed by the attacker (unique Call-IDs).
    hijacked: u64,
    /// Rogue-gateway runs: did the client end up on a bogus lease?
    captured: bool,
    /// Rogue-gateway runs: did the client hold a lease from a pool other
    /// than its first one after the kill (bogus or survivor)?
    rehomed: bool,
    /// Bogus leases the fake tunnel server granted.
    bogus_leases: u64,
    /// Tunneled datagrams the attacker dropped.
    blackholed: u64,
    /// OutgoingCall → Established per completed call, milliseconds.
    setup_ms: Vec<f64>,
}

fn chain_spec(x: f64, secure: bool) -> NodeSpec {
    let spec = NodeSpec::relay(x, 0.0).with_routing(RoutingProtocol::Olsr);
    if secure {
        spec.with_security()
    } else {
        spec
    }
}

fn setup_deltas(log: &siphoc_sip::ua::UaLog) -> Vec<f64> {
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
    let wc = WorldConfig::new(seed).with_radio(RadioConfig::ideal());
    let mut w = World::new(wc);

    let mut ua = VoipAppConfig::fig2("alice", DOMAIN)
        .to_ua_config()
        .expect("config");
    ua.answer_delay = SimDuration::ZERO;
    for at in [30u64, 45, 60] {
        ua = ua.call_at(
            SimTime::from_secs(at),
            Aor::new("bob", DOMAIN),
            SimDuration::from_secs(5),
        );
    }
    let alice = deploy(&mut w, chain_spec(0.0, secure).with_user(ua));
    let mallory = deploy(&mut w, chain_spec(60.0, secure).with_adversary());
    let mut bob_ua = VoipAppConfig::fig2("bob", DOMAIN)
        .to_ua_config()
        .expect("config");
    bob_ua.answer_delay = SimDuration::ZERO;
    deploy(&mut w, chain_spec(120.0, secure).with_user(bob_ua));

    if attack {
        w.install_fault_plan(FaultPlan::new().compromise_at(
            SimTime::from_secs(20),
            mallory.id,
            MaliciousKind::AorHijack,
        ));
    }
    w.run_until(SimTime::from_secs(80));

    let log = alice.ua_logs[0].borrow();
    Outcome {
        calls: log.count(|e| matches!(e, CallEvent::OutgoingCall { .. })),
        established: log.count(|e| matches!(e, CallEvent::Established { .. })),
        hijacked: w
            .node(mallory.id)
            .stats()
            .get("rogue.hijacked_calls")
            .packets,
        setup_ms: setup_deltas(&log),
        ..Outcome::default()
    }
}

fn pool_of(lease: Addr) -> Addr {
    Addr(lease.0 & 0xffff_ff00)
}

/// Rogue gateway: the exp_handoff chain (two real gateways flanking the
/// MANET, alice mid-call to a wired UA, break-before-make Connection
/// Provider). Mallory is compromised at t=35; the serving gateway dies
/// at t=50 and the forced re-lease runs against the poisoned registry.
fn run_rogue(seed: u64, secure: bool) -> Outcome {
    let mut wc = WorldConfig::new(seed).with_radio(RadioConfig::ideal());
    wc.wired_latency = SimDuration::from_millis(5);
    wc.wired_jitter = SimDuration::from_millis(1);
    let mut w = World::new(wc);
    let dns = DnsDirectory::new().with_record(DOMAIN, PROVIDER);
    let p = w.add_node(NodeConfig::wired(PROVIDER));
    w.spawn(
        p,
        Box::new(SipProviderProcess::new(ProviderConfig::new(
            DOMAIN,
            dns.clone(),
        ))),
    );
    let iris_node = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 50)));
    let (iris, _ilog) = UserAgent::new(UaConfig::new(
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
    let mut ua = VoipAppConfig::fig2("alice", DOMAIN)
        .to_ua_config()
        .expect("config");
    ua.answer_delay = SimDuration::ZERO;
    let ua = ua.call_at(
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
    let first: Vec<Addr> = w
        .node(alice.id)
        .local_addrs()
        .iter()
        .copied()
        .filter(|a| a.is_public())
        .collect();
    let serving = first
        .first()
        .map(|a| {
            if pool_of(*a) == pool_of(Addr(GW_A.0 + 100)) {
                gw_a.id
            } else {
                gw_b.id
            }
        })
        .unwrap_or(gw_a.id);
    w.set_node_up(serving, false);
    w.run_until(SimTime::from_secs(75));

    let after: Vec<Addr> = w
        .node(alice.id)
        .local_addrs()
        .iter()
        .copied()
        .filter(|a| a.is_public() || pool_of(*a) == BOGUS_POOL)
        .collect();
    let captured = after.iter().any(|a| pool_of(*a) == BOGUS_POOL);
    let rehomed = match first.first() {
        Some(f) => after.iter().any(|a| pool_of(*a) != pool_of(*f)),
        None => false,
    };
    let log = alice.ua_logs[0].borrow();
    Outcome {
        calls: log.count(|e| matches!(e, CallEvent::OutgoingCall { .. })),
        established: log.count(|e| matches!(e, CallEvent::Established { .. })),
        hijacked: 0,
        captured,
        rehomed,
        bogus_leases: w.node(mallory.id).stats().get("rogue.lease").packets,
        blackholed: w.node(mallory.id).stats().get("rogue.blackholed").packets,
        setup_ms: Vec::new(),
    }
}

fn run_case(seed: u64, case: Case) -> Outcome {
    match case {
        Case::Hijack { secure, attack } => run_hijack(seed, secure, attack),
        Case::Rogue { secure } => run_rogue(seed, secure),
    }
}

/// Per-advert bytes, signed vs unsigned — the wire cost of the defense.
fn advert_bytes() -> (usize, usize, usize, usize) {
    let origin = Addr::new(10, 0, 0, 3);
    let kp = siphoc_simnet::ident::KeyPair::for_addr(origin.0);
    let sip = ServiceEntry::sip_binding(
        "bob@voicehoc.ch",
        SocketAddr::new(origin, ports::SIP),
        origin,
        7,
        120,
    );
    let gw = ServiceEntry::gateway(SocketAddr::new(origin, ports::TUNNEL), origin, 7, 60);
    (
        sip.to_wire().len(),
        sip.signed(&kp).to_wire().len(),
        gw.to_wire().len(),
        gw.signed(&kp).to_wire().len(),
    )
}

struct Rates {
    hijack_off: f64,
    hijack_on: f64,
    rogue_off: f64,
    rogue_on: f64,
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    jobs: usize,
    seeds: usize,
    rates: &Rates,
    insecure_ms: &[f64],
    secure_ms: &[f64],
) -> String {
    let pct = |xs: &[f64], p: f64| siphoc_bench::percentile(xs, p).unwrap_or(f64::NAN);
    let (sip_u, sip_s, gw_u, gw_s) = advert_bytes();
    let mut out = String::from("{\n  \"bench\": \"exp_adversarial\",\n");
    out.push_str(&render_provenance(jobs));
    let _ = write!(
        out,
        "  \"attacks\": {{\n    \"aor_hijack\": {{\"defense_off_success\": {:.2}, \
         \"defense_on_success\": {:.2}, \"calls_per_run\": 3, \"seeds\": {seeds}}},\n    \
         \"rogue_gateway\": {{\"defense_off_success\": {:.2}, \
         \"defense_on_success\": {:.2}, \"seeds\": {seeds}}}\n  }},\n",
        rates.hijack_off, rates.hijack_on, rates.rogue_off, rates.rogue_on,
    );
    let _ = write!(
        out,
        "  \"ablation\": {{\n    \"setup_ms_insecure\": {{\"p50\": {:.2}, \"p95\": {:.2}, \
         \"p99\": {:.2}, \"n\": {}}},\n    \"setup_ms_secure\": {{\"p50\": {:.2}, \
         \"p95\": {:.2}, \"p99\": {:.2}, \"n\": {}}},\n    \
         \"advert_bytes\": {{\"sip_unsigned\": {sip_u}, \"sip_signed\": {sip_s}, \
         \"gateway_unsigned\": {gw_u}, \"gateway_signed\": {gw_s}}}\n  }}\n}}\n",
        pct(insecure_ms, 50.0),
        pct(insecure_ms, 95.0),
        pct(insecure_ms, 99.0),
        insecure_ms.len(),
        pct(secure_ms, 50.0),
        pct(secure_ms, 95.0),
        pct(secure_ms, 99.0),
        secure_ms.len(),
    );
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let jobs: usize = arg(&args, "--jobs").unwrap_or(1);
    let seeds: &[u64] = if smoke { &SEEDS[..1] } else { &SEEDS[..] };
    println!(
        "E12: adversarial faults vs PKI-less defenses ({} seed{})\n",
        seeds.len(),
        if seeds.len() == 1 { "" } else { "s" }
    );
    println!(
        "{:>6} {:>11} {:>6} {:>6} {:>9} {:>9} {:>7} {:>11}",
        "seed", "case", "calls", "est", "hijacked", "captured", "leases", "blackholed"
    );

    let variants = [
        Case::Hijack {
            secure: false,
            attack: true,
        },
        Case::Hijack {
            secure: true,
            attack: true,
        },
        Case::Rogue { secure: false },
        Case::Rogue { secure: true },
        Case::Hijack {
            secure: false,
            attack: false,
        },
        Case::Hijack {
            secure: true,
            attack: false,
        },
    ];
    let mut cases = Vec::new();
    for &seed in seeds {
        for &case in &variants {
            cases.push((seed, case));
        }
    }
    let results = siphoc_bench::parallel::run_indexed(jobs, cases.len(), |i| {
        let (seed, case) = cases[i];
        run_case(seed, case)
    });

    // Per-variant tallies across seeds.
    let mut hijack_succ = [0usize; 2]; // [off, on] runs where the attack won
    let mut hijack_runs = [0usize; 2];
    let mut hijack_clean = [true; 2]; // defense-on: all calls established
    let mut rogue_succ = [0usize; 2];
    let mut rogue_runs = [0usize; 2];
    let mut rogue_rehomed_ok = true; // defense-on: survivor re-lease happened
    let mut setup_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (&(seed, case), r) in cases.iter().zip(&results) {
        println!(
            "{seed:>6} {:>11} {:>6} {:>6} {:>9} {:>9} {:>7} {:>11}",
            case.label(),
            r.calls,
            r.established,
            r.hijacked,
            if matches!(case, Case::Rogue { .. }) {
                if r.captured {
                    "yes"
                } else {
                    "no"
                }
            } else {
                "-"
            },
            r.bogus_leases,
            r.blackholed,
        );
        let arm = |secure: bool| usize::from(secure);
        match case {
            Case::Hijack {
                secure,
                attack: true,
            } => {
                hijack_runs[arm(secure)] += 1;
                // The attack wins a run when every placed call was
                // swallowed by the blackhole and none established.
                if r.calls > 0 && r.hijacked as usize >= r.calls && r.established == 0 {
                    hijack_succ[arm(secure)] += 1;
                }
                if secure && (r.established < r.calls || r.hijacked > 0) {
                    hijack_clean[1] = false;
                }
            }
            Case::Rogue { secure } => {
                rogue_runs[arm(secure)] += 1;
                if r.captured {
                    rogue_succ[arm(secure)] += 1;
                }
                if secure && !r.rehomed {
                    rogue_rehomed_ok = false;
                }
            }
            Case::Hijack {
                secure,
                attack: false,
            } => {
                setup_ms[arm(secure)].extend_from_slice(&r.setup_ms);
            }
        }
    }
    let rate = |succ: usize, runs: usize| succ as f64 / runs.max(1) as f64;
    let rates = Rates {
        hijack_off: rate(hijack_succ[0], hijack_runs[0]),
        hijack_on: rate(hijack_succ[1], hijack_runs[1]),
        rogue_off: rate(rogue_succ[0], rogue_runs[0]),
        rogue_on: rate(rogue_succ[1], rogue_runs[1]),
    };
    let pct = |xs: &[f64], p: f64| siphoc_bench::percentile(xs, p).unwrap_or(f64::NAN);
    println!(
        "\naor hijack:    {:.0}% success defenses off, {:.0}% defenses on",
        rates.hijack_off * 100.0,
        rates.hijack_on * 100.0
    );
    println!(
        "rogue gateway: {:.0}% success defenses off, {:.0}% defenses on",
        rates.rogue_off * 100.0,
        rates.rogue_on * 100.0
    );
    let (sip_u, sip_s, gw_u, gw_s) = advert_bytes();
    println!(
        "setup delay:   insecure p50/p95/p99 {:.1}/{:.1}/{:.1} ms, secure {:.1}/{:.1}/{:.1} ms",
        pct(&setup_ms[0], 50.0),
        pct(&setup_ms[0], 95.0),
        pct(&setup_ms[0], 99.0),
        pct(&setup_ms[1], 50.0),
        pct(&setup_ms[1], 95.0),
        pct(&setup_ms[1], 99.0),
    );
    println!(
        "advert bytes:  sip {sip_u} -> {sip_s} (+{}), gateway {gw_u} -> {gw_s} (+{})",
        sip_s - sip_u,
        gw_s - gw_u
    );

    assert!(
        rates.hijack_off > 0.8,
        "AOR hijack succeeded on only {:.0}% of defense-off runs (need > 80%)",
        rates.hijack_off * 100.0
    );
    assert!(
        rates.hijack_on == 0.0,
        "AOR hijack succeeded on {:.0}% of defense-on runs (need 0%)",
        rates.hijack_on * 100.0
    );
    assert!(
        hijack_clean[1],
        "a defense-on hijack run lost calls — the defense must be transparent"
    );
    assert!(
        rates.rogue_off > 0.8,
        "rogue gateway captured only {:.0}% of defense-off runs (need > 80%)",
        rates.rogue_off * 100.0
    );
    assert!(
        rates.rogue_on == 0.0,
        "rogue gateway captured {:.0}% of defense-on runs (need 0%)",
        rates.rogue_on * 100.0
    );
    assert!(
        rogue_rehomed_ok,
        "a defense-on rogue run never re-homed to the surviving gateway"
    );
    assert!(
        !setup_ms[0].is_empty() && !setup_ms[1].is_empty(),
        "ablation runs produced no established calls"
    );

    if !smoke {
        let json = render_json(jobs, seeds.len(), &rates, &setup_ms[0], &setup_ms[1]);
        std::fs::write("results/BENCH_adversarial.json", &json).expect("write results");
        println!("\nwrote results/BENCH_adversarial.json");
    }
    println!("\nreading: impersonation forgeries replace honest cache entries when");
    println!("nothing is verified, and die at cache-insert against identity pins;");
    println!("the signature layer costs bytes per advert, not call-setup latency.");
}
