//! F3 — The paper's Fig. 3 call-setup walkthrough, with timings.
//!
//! Reconstructs the eight numbered steps of "how a call between two users
//! in an ad hoc network is established" from the packet trace of a real
//! run (3-hop chain, AODV), and prints when each step happened:
//!
//! 1/3. the applications register with their local proxies,
//! 2/4. the proxies advertise the users via MANET SLP,
//! 5.   the caller's INVITE reaches its local proxy,
//! 6.   the proxy consults MANET SLP (service query on the routing layer),
//! 7.   the resolved INVITE is forwarded to the responsible remote proxy,
//! 8.   the remote proxy delivers it to the callee's application.

use siphoc_bench::topology::ideal_world;
use siphoc_core::nodesetup::{deploy, NodeSpec};
use siphoc_simnet::prelude::*;
use siphoc_simnet::trace::TraceEntry;
use siphoc_simnet::trace::TraceKind::{self, Loopback, RadioRx, RadioTx};
use siphoc_sip::uri::Aor;

use crate::grid::{rising, Cell, Cell::Num, Column, Grid, Section};
use crate::worlds::bench_ua;
use crate::{Shape, Table};

/// Where each step shows in the trace: its text (indented one blank off
/// the time column), the entry kind, whether on bob's node rather than
/// alice's, what the payload starts with and contains, and the
/// destination port it must have, if any.
type Step = (
    &'static str,
    TraceKind,
    bool,
    &'static str,
    &'static str,
    Option<u16>,
);
#[rustfmt::skip]
const STEPS: [Step; 9] = [
    (" step 1: alice's REGISTER reaches her local proxy", Loopback, false, "REGISTER", "", None),
    (" step 2: alice's proxy advertises her via MANET SLP", Loopback, false, "SRVREG", "", None),
    (" step 3: bob's REGISTER reaches his local proxy", Loopback, true, "REGISTER", "", None),
    (" step 4: bob's proxy advertises him via MANET SLP", Loopback, true, "SRVREG", "", None),
    (" step 5: alice's INVITE reaches her local proxy", Loopback, false, "INVITE", "", None),
    (" step 6: proxy consults MANET SLP (SRVRQST)", Loopback, false, "SRVRQST", "", None),
    ("         ... resolved on the routing layer (service RREP arrives)",
        RadioRx, false, "", "bob@voicehoc.ch", Some(654)),
    (" step 7: INVITE forwarded to bob's proxy (on air)", RadioTx, false, "INVITE", "", None),
    (" step 8: bob's proxy delivers the INVITE to his application",
        Loopback, true, "INVITE", "", Some(5070)),
];

fn run() -> Grid {
    let mut w = ideal_world(333);
    w.trace_mut().set_enabled(true);
    let alice_ua = bench_ua("alice").call_at(
        SimTime::from_secs(2),
        Aor::new("bob", "voicehoc.ch"),
        SimDuration::from_secs(3),
    );
    let alice = deploy(
        &mut w,
        NodeSpec::relay(0.0, 0.0)
            .without_connection_provider()
            .with_user(alice_ua),
    );
    for x in [60.0, 120.0] {
        deploy(
            &mut w,
            NodeSpec::relay(x, 0.0).without_connection_provider(),
        );
    }
    let bob = deploy(
        &mut w,
        NodeSpec::relay(180.0, 0.0)
            .without_connection_provider()
            .with_user(bench_ua("bob")),
    );
    w.run_for(SimDuration::from_secs(8));

    // A step happens at the first trace entry that fits its row of STEPS.
    let entries: Vec<_> = w.trace().entries().collect();
    let times = STEPS.map(|(_, kind, on_bob, prefix, needle, port)| {
        let node = if on_bob { bob.id } else { alice.id };
        let fits = |e: &TraceEntry| {
            let payload = String::from_utf8_lossy(&e.dgram.payload);
            let port_fits = port.is_none_or(|p| e.dgram.dst.port == p);
            e.kind == kind
                && e.node == node
                && port_fits
                && payload.starts_with(prefix)
                && payload.contains(needle)
        };
        entries.iter().find(|e| fits(e)).map(|e| e.time)
    });
    let mut s = Section::new(&[Column::num("", 12, 6).unit("s"), Column::label("", 0)]);
    for ((what, ..), at) in STEPS.iter().zip(times) {
        let secs = at.map_or(f64::NAN, SimTime::as_secs_f64);
        s.rows.push(vec![Num(secs), Cell::text(what)]);
    }
    let mut grid = Grid::of(s);
    if let [.., Some(invite), Some(query), Some(resolved), _, Some(delivered)] = times {
        grid.notes.push(format!(
            "SLP resolution took {}; proxy-to-application delivery {} end to end.",
            resolved.saturating_since(query),
            delivered.saturating_since(invite)
        ));
    }
    grid
}

pub const TABLE: Table = Table {
    id: "F3",
    title: "F3: Fig. 3 steps, reconstructed from the packet trace",
    run,
    shape: &[
        Shape {
            claim: "all eight steps, and the service RREP that resolves step 6, are observable \
                    in the trace",
            holds: |g| g.col(0, 0).iter().all(|t| t.is_finite()),
        },
        Shape {
            claim: "registration precedes advertisement on both nodes; steps 5, 6, the RREP, 7 \
                    and 8 happen in that order",
            holds: |g| {
                let t = g.col(0, 0);
                t[0] < t[1] && t[2] < t[3] && rising(&t[4..])
            },
        },
    ],
};
