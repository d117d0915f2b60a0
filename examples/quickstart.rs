//! Quickstart: the paper's §3.1 walkthrough in one binary.
//!
//! Two laptops form an isolated two-node MANET. Alice and Bob each run an
//! out-of-the-box VoIP application configured exactly like paper Fig. 2 —
//! ordinary SIP account, outbound proxy `localhost` — and Alice calls Bob
//! with **no centralized SIP server anywhere**.
//!
//! Run with: `cargo run --example quickstart`

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::uri::Aor;

fn main() {
    // ---- Paper Fig. 2: the VoIP application configuration ------------
    let alice_cfg = VoipAppConfig::fig2("Alice", "voicehoc.ch");
    println!("=== VoIP application configuration (paper Fig. 2) ===");
    println!("{}\n", alice_cfg.to_json());

    // ---- Build the world: two nodes in radio range -------------------
    let mut world = World::new(WorldConfig::new(42));
    let alice_ua = alice_cfg
        .to_ua_config()
        .expect("localhost outbound proxy resolves")
        .call_at(
            SimTime::from_secs(5),
            Aor::new("bob", "voicehoc.ch"),
            SimDuration::from_secs(10),
        );
    let bob_ua = VoipAppConfig::fig2("Bob", "voicehoc.ch")
        .to_ua_config()
        .expect("localhost outbound proxy resolves");

    let alice = deploy(&mut world, NodeSpec::relay(0.0, 0.0).with_user(alice_ua));
    let bob = deploy(&mut world, NodeSpec::relay(60.0, 0.0).with_user(bob_ua));
    println!("deployed alice on {} and bob on {}", alice.addr, bob.addr);
    println!(
        "processes on alice's node: {:?}\n",
        world.process_names(alice.id)
    );

    // ---- Run: registration, call, talk, hang up ----------------------
    world.run_for(SimDuration::from_secs(25));

    // ---- Paper Fig. 4: the MANET SLP state on Bob's node -------------
    println!("=== MANET SLP state on bob's node (paper Fig. 4) ===");
    print!("{}", bob.registry.borrow().render(world.now()));

    // ---- Call timeline ------------------------------------------------
    println!("\n=== alice's call timeline ===");
    for (t, e) in alice.ua_logs[0].borrow().events() {
        println!("  {t}  {e:?}");
    }
    println!("\n=== bob's call timeline ===");
    for (t, e) in bob.ua_logs[0].borrow().events() {
        println!("  {t}  {e:?}");
    }

    // ---- Voice quality -------------------------------------------------
    println!("\n=== media quality ===");
    for (who, node) in [("alice", &alice), ("bob", &bob)] {
        for r in node
            .media_reports
            .as_ref()
            .expect("media deployed")
            .borrow()
            .iter()
        {
            println!(
                "  {who}: {} frames sent, {} received, loss {:.2}%, delay {}, MOS {:.2}",
                r.sent,
                r.received,
                r.loss_fraction * 100.0,
                r.mean_delay,
                r.quality.mos
            );
        }
    }
}
