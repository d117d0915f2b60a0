//! T1 — Provider interoperability matrix (paper §3.2).
//!
//! "We have tested this feature with three different SIP providers,
//! siphoc.ch, netvoip.ch and polyphone.ethz.ch. Typically, SIP providers
//! have their SIP proxy running on the domain they assign the SIP
//! addresses from. If that is the case (as for siphoc.ch and netvoip.ch),
//! one can make phone calls to and from the Internet without a problem.
//! However, a problem occurs if the SIP provider requires a special
//! outbound proxy to be set in the VoIP configuration (as for
//! polyphone.ethz.ch)."
//!
//! For each provider, a MANET user two hops from the gateway attempts an
//! outbound call to an Internet user of that provider and receives an
//! inbound call back.

use siphoc_bench::topology::ideal_world;
use siphoc_core::config::VoipAppConfig;
use siphoc_core::nodesetup::{deploy, NodeSpec};
use siphoc_internet::dns::DnsDirectory;
use siphoc_simnet::prelude::*;
use siphoc_sip::ua::CallEvent;
use siphoc_sip::uri::Aor;

use crate::grid::{Cell, Column, Grid, Section};
use crate::worlds::{call_setup, internet_side, SPACING};
use crate::{Shape, Table};

/// `(domain, proxy address, whether the proxy is reachable via the
/// domain)` — false is the polyphone case: it needs a provider-specific
/// outbound proxy.
const PROVIDERS: [(&str, Addr, bool); 3] = [
    ("siphoc.ch", Addr(0x52010101), true),
    ("netvoip.ch", Addr(0x52020202), true),
    ("polyphone.ethz.ch", Addr(0x52030303), false),
];

/// `(outbound call established, inbound call established)`.
fn run_provider(domain: &str, addr: Addr, reachable_via_domain: bool) -> (bool, bool) {
    let mut w = ideal_world(9301);
    let mut dns = DnsDirectory::new();
    if reachable_via_domain {
        dns.insert(domain, addr);
    }
    // Internet-side user of this provider; calls the MANET user at t=60.
    let iris_at = Addr::new(82, 9, 9, 9);
    let iris_log = internet_side(&mut w, domain, addr, &dns, iris_at, |ua| {
        ua.call_at(
            SimTime::from_secs(60),
            Aor::new("alice", domain),
            SimDuration::from_secs(5),
        )
    });

    // MANET: gateway, relay, alice (provider account: this domain).
    deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .with_gateway(Addr::new(82, 130, 64, 1))
            .with_dns(dns.clone()),
    );
    deploy(&mut w, NodeSpec::relay(SPACING, 0.0).with_dns(dns.clone()));
    let alice_ua = VoipAppConfig::fig2("alice", domain)
        .to_ua_config()
        .expect("config resolves")
        .call_at(
            SimTime::from_secs(25),
            Aor::new("iris", domain),
            SimDuration::from_secs(5),
        );
    let alice = deploy(
        &mut w,
        NodeSpec::relay(2.0 * SPACING, 0.0)
            .with_dns(dns)
            .with_user(alice_ua),
    );

    w.run_for(SimDuration::from_secs(90));
    let outbound_ok = call_setup(&alice, 0).is_some();
    let inbound_ok = iris_log
        .borrow()
        .any(|e| matches!(e, CallEvent::Established { .. }));
    (outbound_ok, inbound_ok)
}

fn row(domain: &str, outbound_ok: bool, inbound_ok: bool) -> Vec<Cell> {
    let ok = |ok| Cell::text(if ok { "OK" } else { "FAIL" });
    vec![Cell::text(domain), ok(outbound_ok), ok(inbound_ok)]
}

fn run() -> Grid {
    let mut s = Section::new(&[
        Column::label("provider", 20),
        Column::num("outbound", 10, 0),
        Column::num("inbound", 10, 0),
    ]);
    for (domain, addr, reachable_via_domain) in PROVIDERS {
        let (outbound_ok, inbound_ok) = run_provider(domain, addr, reachable_via_domain);
        s.rows.push(row(domain, outbound_ok, inbound_ok));
    }
    Grid {
        notes: vec![
            "paper's result: siphoc.ch OK, netvoip.ch OK, polyphone.ethz.ch".to_owned(),
            "fails (special outbound proxy overwritten by SIPHoc — open issue).".to_owned(),
        ],
        ..Grid::of(s)
    }
}

pub const TABLE: Table = Table {
    id: "T1",
    title: "T1: provider interoperability (MANET user, 2 hops from gateway)",
    run,
    shape: &[
        Shape {
            claim: "siphoc.ch: outbound and inbound both OK, as in the paper",
            holds: |g| g.sections[0].rows[0] == row("siphoc.ch", true, true),
        },
        Shape {
            claim: "netvoip.ch: outbound and inbound both OK, as in the paper",
            holds: |g| g.sections[0].rows[1] == row("netvoip.ch", true, true),
        },
        Shape {
            claim: "polyphone.ethz.ch: both directions fail, as in the paper",
            holds: |g| g.sections[0].rows[2] == row("polyphone.ethz.ch", false, false),
        },
    ],
};
