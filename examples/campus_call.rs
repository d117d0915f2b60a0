//! Campus scenario: "VoIP over a MANET would provide users with a free
//! communication system ... for instance within a university campus"
//! (paper §1 and §6).
//!
//! 25 laptops in a 5×5 grid across a 240×240 m campus; eight students call
//! each other over multiple hops, concurrently. Prints per-call setup
//! latency, hop counts and voice quality.
//!
//! Run with: `cargo run --release --example campus_call`

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec, SiphocNode};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::ua::CallEvent;
use wireless_adhoc_voip::sip::uri::Aor;

const GRID: usize = 5;
const SPACING: f64 = 60.0;

fn main() {
    let mut world = World::new(WorldConfig::new(2026));

    // Users on the four corners and the midpoints; everyone else relays.
    let user_slots: &[(usize, &str)] = &[
        (0, "ana"),
        (4, "ben"),
        (12, "cam"),
        (20, "dia"),
        (24, "eli"),
        (2, "fee"),
        (10, "gus"),
        (14, "hal"),
    ];
    // Who calls whom (caller, callee, start, duration in seconds).
    let calls: &[(&str, &str, u64, u64)] = &[
        ("ana", "eli", 10, 20), // corner to corner: the long diagonal
        ("ben", "dia", 12, 20), // the other diagonal
        ("cam", "fee", 15, 15),
        ("gus", "hal", 18, 15),
    ];

    let mut nodes: Vec<SiphocNode> = Vec::new();
    for i in 0..GRID * GRID {
        let x = (i % GRID) as f64 * SPACING;
        let y = (i / GRID) as f64 * SPACING;
        let mut spec = NodeSpec::relay(x, y);
        if let Some((_, name)) = user_slots.iter().find(|(slot, _)| *slot == i) {
            let mut ua = VoipAppConfig::fig2(name, "voicehoc.ch")
                .to_ua_config()
                .expect("config resolves");
            for (from, to, at, dur) in calls {
                if from == name {
                    ua = ua.call_at(
                        SimTime::from_secs(*at),
                        Aor::new(to, "voicehoc.ch"),
                        SimDuration::from_secs(*dur),
                    );
                }
            }
            spec = spec.with_user(ua);
        }
        nodes.push(deploy(&mut world, spec));
    }

    println!(
        "campus: {} nodes on a {GRID}x{GRID} grid, {} users, {} calls",
        nodes.len(),
        user_slots.len(),
        calls.len()
    );
    world.run_for(SimDuration::from_secs(60));

    println!(
        "\n{:<6} {:<6} {:>10} {:>6} {:>8} {:>8} {:>6}",
        "caller", "callee", "setup(ms)", "hops", "loss(%)", "delay", "MOS"
    );
    for (from, to, at, _) in calls {
        let caller_slot = user_slots
            .iter()
            .find(|(_, n)| n == from)
            .expect("caller exists")
            .0;
        let callee_slot = user_slots
            .iter()
            .find(|(_, n)| n == to)
            .expect("callee exists")
            .0;
        let caller = &nodes[caller_slot];
        let callee = &nodes[callee_slot];
        let log = caller.ua_logs[0].borrow();
        let placed = log
            .first_time(|e| matches!(e, CallEvent::OutgoingCall { to: t, .. } if t.user == *to))
            .unwrap_or(SimTime::from_secs(*at));
        let established = log.first_time(|e| matches!(e, CallEvent::Established { .. }));
        let setup_ms = established
            .map(|t| t.saturating_since(placed).as_millis_f64())
            .unwrap_or(f64::NAN);
        let hops = world
            .node(caller.id)
            .routes()
            .lookup(callee.addr, world.now())
            .map(|r| r.hops.to_string())
            .unwrap_or_else(|| "-".to_owned());
        let reports = caller.media_reports.as_ref().expect("media runs").borrow();
        let (loss, delay, mos) = reports
            .first()
            .map(|r| {
                (
                    r.loss_fraction * 100.0,
                    r.mean_delay.to_string(),
                    r.quality.mos,
                )
            })
            .unwrap_or((f64::NAN, "-".to_owned(), f64::NAN));
        println!("{from:<6} {to:<6} {setup_ms:>10.1} {hops:>6} {loss:>8.2} {delay:>8} {mos:>6.2}");
    }

    // Network-wide accounting.
    let total = world.total_stats();
    println!("\n=== network totals over 60 s ===");
    for prefix in ["aodv.", "slp.", "proxy.", "media."] {
        let c = total.sum_prefix(prefix);
        println!(
            "  {prefix:<8} {:>8} packets, {:>10} bytes",
            c.packets, c.bytes
        );
    }
    let piggy = total.get("aodv.piggyback");
    println!(
        "  piggybacked service bytes: {} (zero dedicated SLP packets on air)",
        piggy.bytes
    );
}
