//! Scriptable SIP call-load generator (the SIPp-style harness).
//!
//! Builds a "hub" world — one SIPHoc node hosting N registered user
//! agents behind its own proxy, all signaling over loopback and
//! self-addressed unicast — and drives it with a scripted workload:
//! steady call arrivals (uniform or Poisson), synchronized registration
//! storms (every UA re-REGISTERs at once, the partition-heal shape), and
//! BYE / re-INVITE storms (the gateway-handoff shape).
//!
//! Because every message stays on one node, the wall-clock cost of a run
//! is almost entirely SIP parse/render, transaction bookkeeping and
//! registrar lookups — exactly the signaling hot path `exp_call_load`
//! exists to measure. Call setup delay is extracted from the caller-side
//! [`UaLog`]s (OutgoingCall → Established per Call-ID), so the harness
//! works on obs-free builds.

use std::time::Instant;

use siphoc_core::nodesetup::{deploy, NodeSpec};
use siphoc_simnet::prelude::*;
use siphoc_sip::ua::{ActionKind, CallEvent, ScriptedAction, UaConfig};
use siphoc_sip::uri::Aor;

use crate::topology::ideal_world;

/// SIP domain all load-generator users live in.
const DOMAIN: &str = "voicehoc.ch";
/// First UA SIP port on the hub node (one per user).
const UA_PORT_BASE: u16 = 6000;
/// First advertised RTP port (SDP only; the hub runs no media plane).
const RTP_PORT_BASE: u16 = 20000;
/// Registration burst at t=0 settles before the measured load starts.
const RAMP: SimDuration = SimDuration::from_secs(2);
/// Established-call hold time for steady arrivals.
const HOLD: SimDuration = SimDuration::from_secs(2);
/// Drain time after the last scripted action.
const TAIL: SimDuration = SimDuration::from_secs(3);

/// Call arrival process for steady load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Evenly spaced: one call every `1/rate` seconds.
    Uniform,
    /// Poisson: exponential inter-arrival gaps with mean `1/rate`.
    Poisson,
}

impl Arrival {
    /// Lowercase token used in scenario names and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Arrival::Uniform => "uniform",
            Arrival::Poisson => "poisson",
        }
    }
}

/// What the generator scripts on top of the registered hub.
#[derive(Debug, Clone, Copy)]
pub enum LoadScenario {
    /// M calls/s across the user population for `window`.
    Steady {
        /// Offered call rate.
        rate_cps: f64,
        /// Arrival process.
        arrival: Arrival,
        /// Load window length.
        window: SimDuration,
    },
    /// Every UA re-REGISTERs in synchronized waves (short expiry, so the
    /// half-life refresh fires simultaneously across the population).
    RegStorm {
        /// Total simulated run length.
        sim: SimDuration,
    },
    /// Calls set up, then every caller hangs up all of them at once.
    ByeStorm,
    /// Calls set up, then every caller re-INVITEs all of them at once.
    ReinviteStorm,
}

/// One load-generator run: N users × a scenario, fully deterministic.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Registered user agents on the hub (must be even; callers pair
    /// with callees `users/2` apart).
    pub users: usize,
    /// The scripted workload.
    pub scenario: LoadScenario,
    /// World seed (also seeds the Poisson arrival stream).
    pub seed: u64,
}

impl LoadSpec {
    /// Stable scenario name for tables, JSON and `--check` baselines.
    pub fn name(&self) -> String {
        match self.scenario {
            LoadScenario::Steady {
                rate_cps, arrival, ..
            } => {
                let suffix = match arrival {
                    Arrival::Uniform => "",
                    Arrival::Poisson => "_poisson",
                };
                format!("steady_u{}_r{}{}", self.users, rate_cps as u64, suffix)
            }
            LoadScenario::RegStorm { .. } => format!("regstorm_u{}", self.users),
            LoadScenario::ByeStorm => format!("byestorm_u{}", self.users),
            LoadScenario::ReinviteStorm => format!("reinvitestorm_u{}", self.users),
        }
    }

    /// Offered calls/s (0 for storm scenarios).
    pub fn rate_cps(&self) -> f64 {
        match self.scenario {
            LoadScenario::Steady { rate_cps, .. } => rate_cps,
            _ => 0.0,
        }
    }
}

/// Everything one run measures.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Scenario name (see [`LoadSpec::name`]).
    pub name: String,
    /// Registered user agents.
    pub users: usize,
    /// Offered call rate (0 for storms).
    pub rate_cps: f64,
    /// Arrival process token.
    pub arrival: &'static str,
    /// Simulated seconds the run covered.
    pub sim_secs: f64,
    /// Wall-clock milliseconds of the `World` run.
    pub wall_ms: f64,
    /// Events the simulator dispatched.
    pub events: u64,
    /// Calls the script offered.
    pub offered: usize,
    /// Calls that reached Established at the caller.
    pub established: usize,
    /// Calls that failed (final error or transaction timeout).
    pub failed: usize,
    /// Dialogs that terminated (both BYE directions).
    pub terminated: usize,
    /// REGISTER requests the hub proxy accepted.
    pub registers: u64,
    /// In-dialog re-INVITEs completed (200 ACKed at the initiator).
    pub reinvites_ok: u64,
    /// Caller-side setup delays, µs, in call order (unsorted).
    pub setup_us: Vec<u64>,
}

impl LoadReport {
    /// Calls established per wall-clock second — the sustained signaling
    /// throughput of the stack on this hardware.
    pub fn wall_cps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return f64::NAN;
        }
        self.established as f64 / (self.wall_ms / 1000.0)
    }

    /// Real-time factor: simulated seconds per wall second. A scenario
    /// with `rtf < 1` offers more signaling than the stack can process
    /// in real time — the saturation criterion the knee search uses.
    pub fn rtf(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return f64::NAN;
        }
        self.sim_secs / (self.wall_ms / 1000.0)
    }
}

/// One user's [`UaConfig`] on the hub node.
fn hub_ua(i: usize, register_expires: SimDuration) -> UaConfig {
    let aor = Aor::new(&format!("u{i}"), DOMAIN);
    let proxy = SocketAddr::new(Addr::LOOPBACK, ports::SIPHOC_PROXY);
    let mut cfg = UaConfig::new(aor, proxy);
    cfg.local_port = UA_PORT_BASE + i as u16;
    cfg.rtp_port = RTP_PORT_BASE + i as u16;
    cfg.register_expires = register_expires;
    cfg.answer_delay = SimDuration::ZERO;
    cfg
}

/// Builds the scripted UA population for `spec`. Returns the configs and
/// the `(offered, sim_total)` pair.
fn build_population(spec: &LoadSpec) -> (Vec<UaConfig>, usize, SimDuration) {
    let n = spec.users;
    assert!(n >= 2 && n % 2 == 0, "users must be even and >= 2, got {n}");
    match spec.scenario {
        LoadScenario::Steady {
            rate_cps,
            arrival,
            window,
        } => {
            let mut uas: Vec<UaConfig> = (0..n)
                .map(|i| hub_ua(i, SimDuration::from_secs(3600)))
                .collect();
            let offered = (rate_cps * window.as_secs_f64()).round() as usize;
            let mut gap_rng = SimRng::from_seed_and_stream(spec.seed, 7777);
            let mut at = SimTime::ZERO + RAMP;
            for k in 0..offered {
                let caller = k % n;
                let callee = (caller + n / 2) % n;
                let callee_aor = Aor::new(&format!("u{callee}"), DOMAIN);
                uas[caller].script.push(ScriptedAction {
                    at,
                    kind: ActionKind::Call {
                        to: callee_aor,
                        duration: HOLD,
                    },
                });
                let gap = match arrival {
                    Arrival::Uniform => 1.0 / rate_cps,
                    Arrival::Poisson => gap_rng.exp_secs(1.0 / rate_cps),
                };
                at += SimDuration::from_micros((gap * 1e6) as u64);
            }
            (uas, offered, RAMP + window + HOLD + TAIL)
        }
        LoadScenario::RegStorm { sim } => {
            // Half-life refresh at expires/2 keeps every UA perfectly in
            // phase: the whole population re-REGISTERs every 2 s.
            let uas = (0..n)
                .map(|i| hub_ua(i, SimDuration::from_secs(4)))
                .collect();
            (uas, 0, sim)
        }
        LoadScenario::ByeStorm | LoadScenario::ReinviteStorm => {
            // Pairs (2i → 2i+1) set up staggered calls that outlive the
            // run, then every caller fires the storm action at once.
            let storm_at = SimTime::ZERO + RAMP + SimDuration::from_secs(2);
            let hold = SimDuration::from_secs(1000); // never auto-BYEs
            let uas = (0..n)
                .map(|i| {
                    let mut ua = hub_ua(i, SimDuration::from_secs(3600));
                    if i % 2 == 0 {
                        let callee = Aor::new(&format!("u{}", i + 1), DOMAIN);
                        let at = SimTime::ZERO + RAMP + SimDuration::from_millis(10 * i as u64);
                        ua = ua.call_at(at, callee, hold);
                        let kind = match spec.scenario {
                            LoadScenario::ByeStorm => ActionKind::HangupAll,
                            _ => ActionKind::ReinviteAll,
                        };
                        ua.script.push(ScriptedAction { at: storm_at, kind });
                    }
                    ua
                })
                .collect();
            (
                uas,
                n / 2,
                RAMP + SimDuration::from_secs(2) + SimDuration::from_secs(3),
            )
        }
    }
}

/// Runs one load scenario and measures it.
pub fn run_load(spec: &LoadSpec) -> LoadReport {
    let (uas, offered, sim_total) = build_population(spec);
    let mut w = ideal_world(spec.seed);
    let mut node_spec = NodeSpec::relay(0.0, 0.0).without_connection_provider();
    node_spec.users = uas;
    node_spec.media = false; // signaling plane only
    let hub = deploy(&mut w, node_spec);

    let started = Instant::now();
    w.run_until(SimTime::ZERO + sim_total);
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;

    let mut established = 0usize;
    let mut failed = 0usize;
    let mut terminated = 0usize;
    let mut setup_us: Vec<u64> = Vec::new();
    for log in &hub.ua_logs {
        let log = log.borrow();
        // Caller-side pairing: OutgoingCall(t0) → Established(t1) on the
        // same Call-ID within the same UA's log.
        let mut placed: Vec<(SimTime, &str)> = Vec::new();
        for (t, ev) in log.events() {
            match ev {
                CallEvent::OutgoingCall { call_id, .. } => placed.push((*t, call_id)),
                CallEvent::Established { call_id, .. } => {
                    if let Some(pos) = placed.iter().position(|(_, id)| id == call_id) {
                        let (t0, _) = placed.swap_remove(pos);
                        established += 1;
                        setup_us.push((*t - t0).as_micros());
                    }
                }
                CallEvent::Failed { .. } => failed += 1,
                CallEvent::Terminated { .. } => terminated += 1,
                _ => {}
            }
        }
    }

    let stats = w.total_stats();
    LoadReport {
        name: spec.name(),
        users: spec.users,
        rate_cps: spec.rate_cps(),
        arrival: match spec.scenario {
            LoadScenario::Steady { arrival, .. } => arrival.as_str(),
            _ => "storm",
        },
        sim_secs: sim_total.as_secs_f64(),
        wall_ms,
        events: w.events_processed(),
        offered,
        established,
        failed,
        terminated,
        registers: stats.get("proxy.register_local").packets,
        reinvites_ok: stats.get("sip.reinvite_ok").packets,
        setup_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_load_establishes_offered_calls() {
        let spec = LoadSpec {
            users: 8,
            scenario: LoadScenario::Steady {
                rate_cps: 5.0,
                arrival: Arrival::Uniform,
                window: SimDuration::from_secs(2),
            },
            seed: 42,
        };
        let r = run_load(&spec);
        assert_eq!(r.offered, 10);
        assert_eq!(r.established, 10, "all loopback calls must establish");
        assert_eq!(r.failed, 0);
        assert_eq!(r.setup_us.len(), 10);
        assert!(r.registers >= 8, "every UA registers at start");
        assert!(r.setup_us.iter().all(|&us| us > 0));
    }

    #[test]
    fn poisson_arrivals_are_deterministic_per_seed() {
        let spec = LoadSpec {
            users: 8,
            scenario: LoadScenario::Steady {
                rate_cps: 10.0,
                arrival: Arrival::Poisson,
                window: SimDuration::from_secs(2),
            },
            seed: 7,
        };
        let a = run_load(&spec);
        let b = run_load(&spec);
        assert_eq!(a.events, b.events);
        assert_eq!(a.setup_us, b.setup_us);
    }

    #[test]
    fn reg_storm_registers_in_waves() {
        let spec = LoadSpec {
            users: 8,
            scenario: LoadScenario::RegStorm {
                sim: SimDuration::from_secs(7),
            },
            seed: 42,
        };
        let r = run_load(&spec);
        // t=0 storm plus half-life refreshes at 2, 4, 6 s.
        assert!(
            r.registers >= 8 * 3,
            "expected several synchronized REGISTER waves, saw {}",
            r.registers
        );
    }

    #[test]
    fn bye_storm_terminates_every_pair() {
        let spec = LoadSpec {
            users: 8,
            scenario: LoadScenario::ByeStorm,
            seed: 42,
        };
        let r = run_load(&spec);
        assert_eq!(r.established, 4);
        // Both sides log Terminated for each of the 4 dialogs.
        assert!(r.terminated >= 4, "BYE storm left dialogs up: {r:?}");
    }

    #[test]
    fn reinvite_storm_renegotiates_every_pair() {
        let spec = LoadSpec {
            users: 8,
            scenario: LoadScenario::ReinviteStorm,
            seed: 42,
        };
        let r = run_load(&spec);
        assert_eq!(r.established, 4);
        assert!(
            r.reinvites_ok >= 4,
            "re-INVITE storm did not complete: {r:?}"
        );
    }
}
