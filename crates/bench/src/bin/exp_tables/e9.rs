//! E9 — Mid-call gateway handoff (paper §1: "any node may leave or
//! crash"): break-before-make vs make-before-break.
//!
//! Two gateways flank a chain MANET; alice (one hop from the near
//! gateway, two from the far one) holds an Internet call to a wired UA
//! when the serving gateway is powered off mid-call. Each seed runs
//! twice, side by side:
//!
//! * **bbm** (break-before-make): no standbys, 1 s keepalives. Death
//!   detection → fresh `TCONNECT` to the survivor → re-INVITE. Handoff is
//!   keepalive-bounded, ~4 s.
//! * **mbb** (make-before-break): the Connection Provider pre-warms a
//!   standby lease on the second gateway and pings it on the same fast
//!   cadence as the active one (5 ms, 1 missed). On death it *promotes*
//!   the warm standby instead of re-leasing: handoff is one detection
//!   interval, tens of milliseconds, and the media stall stays inside one
//!   jitter-buffer depth (60 ms).
//!
//! Reported per run: handoff time (kill → replacement lease held), the
//! worst RTP receive stall around the kill (inter-arrival beyond the
//! 20 ms packet schedule — the displacement a jitter buffer must absorb),
//! survival, the standby promotions behind it, and — on the last seed,
//! where the far gateway is NAT'd — how many media packets crossed the
//! TURN-style relay.

use siphoc_core::nodesetup::{deploy, NodeSpec};
use siphoc_internet::dns::DnsDirectory;
use siphoc_internet::relay::{AddrPool, RelayConfig, TurnRelay};
use siphoc_simnet::net::ports;
use siphoc_simnet::prelude::*;
use siphoc_sip::ua::CallEvent;
use siphoc_sip::uri::Aor;

use crate::grid::{mean, Cell, Cell::Num, Column, Grid, Section};
use crate::worlds::{bench_ua, internet_side, metro_world, pool_of, public_addrs};
use crate::{Shape, Table};

pub const SEEDS: [u64; 5] = [6601, 6602, 6603, 6604, 6605];
/// The seed whose far gateway is NAT'd: its leases, and the media
/// re-homed onto them, go through the TURN-style relay.
pub const NAT_SEED: u64 = 6605;
const PROVIDER: Addr = Addr(0x52010101);
const GW_NEAR: Addr = Addr(0x5282_4001); // 82.130.64.1
const GW_FAR: Addr = Addr(0x5282_4101); // 82.130.65.1
const RELAY: Addr = Addr(0x5282_4201); // 82.130.66.1
/// RTP packet spacing; a stall is the inter-arrival beyond it.
const PTIME_MS: f64 = 20.0;

/// How every MANET node's Connection Provider fails over.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Break-before-make: no standby, re-lease after detection.
    Bbm,
    /// Make-before-break: promote a pre-warmed standby lease.
    Mbb,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Bbm => "bbm",
            Mode::Mbb => "mbb",
        }
    }
}

/// What one run reads off its world.
pub struct Run {
    /// Kill → replacement lease held.
    pub handoff_ms: f64,
    /// Worst RTP inter-arrival around the kill, beyond [`PTIME_MS`].
    pub stall_ms: f64,
    /// No failed call, RTP still arriving after the kill, and a
    /// completed handoff.
    pub survived: bool,
    /// Warm standbys the Connection Provider promoted (`cp.promote`).
    pub promoted: u64,
    /// Media packets through the TURN relay ([`NAT_SEED`] only).
    pub relayed: Option<u64>,
}

/// `None` when alice holds no single lease before the kill or no
/// replacement within the watch window after it.
fn run_one(seed: u64, mode: Mode) -> Option<Run> {
    let nat_far = seed == NAT_SEED;
    let mut w = metro_world(seed);
    let dns = DnsDirectory::new().with_record("voicehoc.ch", PROVIDER);
    let iris_at = Addr::new(82, 1, 1, 50);
    internet_side(&mut w, "voicehoc.ch", PROVIDER, &dns, iris_at, |ua| ua);
    let relay_node = nat_far.then(|| {
        let id = w.add_node(NodeConfig::wired(RELAY));
        let config = RelayConfig {
            pool: AddrPool::new(Addr(RELAY.0 + 100), 64),
        };
        w.spawn(id, Box::new(TurnRelay::new(config)));
        id
    });

    // Mode-specific Connection Provider tuning on every MANET node.
    let tune = |spec: NodeSpec| match mode {
        Mode::Bbm => spec.with_standby(0, SimDuration::from_secs(10)),
        // Fast detection + one pre-warmed standby lease.
        Mode::Mbb => spec
            .with_keepalive(SimDuration::from_millis(5), 1)
            .with_standby(1, SimDuration::from_millis(500)),
    };

    // Near gateway — alice — relay — far gateway, in a line.
    let gw_near = deploy(
        &mut w,
        tune(NodeSpec::relay(0.0, 0.0))
            .with_gateway(GW_NEAR)
            .with_dns(dns.clone()),
    );
    let ua = bench_ua("alice").call_at(
        SimTime::from_secs(30),
        Aor::new("iris", "voicehoc.ch"),
        SimDuration::from_secs(30),
    );
    let alice = deploy(
        &mut w,
        tune(NodeSpec::relay(60.0, 0.0))
            .with_dns(dns.clone())
            .with_user(ua),
    );
    deploy(
        &mut w,
        tune(NodeSpec::relay(120.0, 0.0)).with_dns(dns.clone()),
    );
    let far_spec = tune(NodeSpec::relay(180.0, 0.0)).with_dns(dns);
    let far_spec = if nat_far {
        far_spec.with_nat_gateway(GW_FAR, SocketAddr::new(RELAY, ports::TUNNEL))
    } else {
        far_spec.with_gateway(GW_FAR)
    };
    let gw_far = deploy(&mut w, far_spec);

    // Lease + call up, media flowing.
    w.run_until(SimTime::from_secs(35));
    let first = public_addrs(&w, alice.id);
    if first.len() != 1 {
        return None;
    }
    let dead = if pool_of(first[0]) == pool_of(Addr(GW_NEAR.0 + 100)) {
        gw_near.id
    } else {
        gw_far.id
    };
    let rtp_before = w.stats(alice.id).get("media.rtp_rx").packets;

    // Kill the serving gateway mid-call; watch for the new lease and the
    // worst RTP receive stall. mbb polls at 5 ms so sub-100 ms handoffs
    // and sub-60 ms media gaps resolve; bbm at 100 ms (second-scale).
    w.set_node_up(dead, false);
    let killed_at = w.now();
    let (poll, steps) = match mode {
        Mode::Bbm => (SimDuration::from_millis(100), 100), // 10 s window
        Mode::Mbb => (SimDuration::from_millis(5), 600),   // 3 s window
    };
    let mut handoff_at = None;
    let mut last_rtp = rtp_before;
    let mut last_rx_at = killed_at;
    // Worst RTP inter-arrival across the handoff; packets normally land
    // every ptime, so the stall a jitter buffer must absorb is the
    // inter-arrival minus that schedule.
    let mut max_gap = SimDuration::ZERO;
    for _ in 0..steps {
        w.run_for(poll);
        let now = w.now();
        let rtp = w.stats(alice.id).get("media.rtp_rx").packets;
        if rtp > last_rtp {
            max_gap = max_gap.max(now.saturating_since(last_rx_at));
            last_rtp = rtp;
            last_rx_at = now;
        }
        if handoff_at.is_none() {
            let leases = public_addrs(&w, alice.id);
            if leases.iter().any(|a| pool_of(*a) != pool_of(first[0])) {
                handoff_at = Some(now);
            }
        }
    }
    let handoff_ms = handoff_at?.saturating_since(killed_at).as_secs_f64() * 1e3;

    // Let the call run out; did it survive the handoff?
    w.run_until(SimTime::from_secs(70));
    let failed = alice.ua_logs[0]
        .borrow()
        .any(|e| matches!(e, CallEvent::Failed { .. }));
    let stats = w.stats(alice.id);
    Some(Run {
        handoff_ms,
        stall_ms: (max_gap.as_secs_f64() * 1e3 - PTIME_MS).max(0.0),
        survived: !failed
            && stats.get("media.rtp_rx").packets > rtp_before
            && stats.get("cp.handoff_ok").packets >= 1,
        promoted: stats.get("cp.promote").packets,
        relayed: relay_node.map(|id| w.stats(id).get("media.relayed").packets),
    })
}

/// The table of every `(seed, mode)` run, in run order; then the mean
/// handoff per mode (NaN when a run of that mode has none).
pub fn grid(runs: &[(u64, Mode, Option<Run>)]) -> Grid {
    let mut per_run = Section::new(&[
        Column::num("seed", 6, 0),
        Column::num("mode", 5, 0),
        Column::num("nat", 6, 0),
        Column::num("handoff (ms)", 13, 1),
        Column::num("stall (ms)", 10, 1),
        Column::num("survived", 9, 0),
        Column::num("promoted", 9, 0),
        Column::num("relayed", 8, 0),
    ]);
    let dash = || Cell::text("-");
    for (seed, mode, run) in runs {
        let nat = if *seed == NAT_SEED { "yes" } else { "-" };
        let mut row = vec![Num(*seed as f64), Cell::text(mode.label()), Cell::text(nat)];
        row.extend(match run {
            Some(r) => [
                Num(r.handoff_ms),
                Num(r.stall_ms),
                Cell::text(if r.survived { "yes" } else { "NO" }),
                Num(r.promoted as f64),
                r.relayed.map_or_else(dash, |n| Num(n as f64)),
            ],
            None => [dash(), dash(), Cell::text("NO"), dash(), dash()],
        });
        per_run.rows.push(row);
    }
    let mut means = Section::new(&[
        Column::label("mode", 5),
        Column::num("mean handoff (ms)", 18, 1),
    ]);
    for mode in [Mode::Bbm, Mode::Mbb] {
        let handoffs: Vec<f64> = runs
            .iter()
            .filter(|(_, m, _)| *m == mode)
            .map(|(_, _, run)| run.as_ref().map_or(f64::NAN, |r| r.handoff_ms))
            .collect();
        let handoff = Num(mean(&handoffs).unwrap_or(f64::NAN));
        means.rows.push(vec![Cell::text(mode.label()), handoff]);
    }
    Grid {
        sections: vec![per_run, means],
        ..Grid::default()
    }
}

fn run() -> Grid {
    let modes = |seed| [Mode::Bbm, Mode::Mbb].map(|mode| (seed, mode, run_one(seed, mode)));
    grid(&SEEDS.into_iter().flat_map(modes).collect::<Vec<_>>())
}

/// Section 0 holds one row per run — seed, mode, nat, handoff, stall,
/// survived, promoted, relayed — and section 1 the bbm and mbb means.
pub const TABLE: Table = Table {
    id: "E9",
    title: "E9: mid-call gateway handoff, break-before-make vs make-before-break (5 seeds)",
    run,
    shape: &[
        Shape {
            claim: "every run survives: no failed call, RTP still arriving after the kill, and a \
                    completed handoff",
            holds: |g| g.sections[0].rows.iter().all(|r| r[5] == Cell::text("yes")),
        },
        Shape {
            claim: "every mbb run hands off by promoting its warm standby (cp.promote ≥ 1)",
            holds: |g| g.rows_with(0, 1, "mbb").all(|r| r[6].value() >= 1.0),
        },
        Shape {
            claim: "bbm mean handoff ≤ 5,000 ms: keepalive detection, then a cold re-lease",
            holds: |g| g.col(1, 1)[0] <= 5000.0,
        },
        Shape {
            claim: "mbb mean handoff < 100 ms: one detection interval",
            holds: |g| g.col(1, 1)[1] < 100.0,
        },
        Shape {
            claim: "every mbb stall ≤ 60 ms, one jitter-buffer depth",
            holds: |g| g.rows_with(0, 1, "mbb").all(|r| r[4].value() <= 60.0),
        },
        Shape {
            claim: "the NAT'd seed relays media in both modes",
            holds: |g| {
                let nat: Vec<_> = g.rows_with(0, 2, "yes").collect();
                nat.len() == 2 && nat.iter().all(|r| r[7].value() > 0.0)
            },
        },
    ],
};
