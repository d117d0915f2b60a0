//! World construction and call measurement shared by the tables: the
//! lossless and the metro-backbone world, chains and grids of SIPHoc
//! nodes, the bench user agent, the voice call E6 and A2 both place, the
//! Internet side E5, T1 and E9 dial, and the readers that turn a caller's
//! log, its leases and a world's counters into cells.

use siphoc_core::config::VoipAppConfig;
use siphoc_core::metrics::control_bytes;
use siphoc_core::nodesetup::{deploy, NodeSpec, RoutingProtocol, SiphocNode};
use siphoc_internet::dns::DnsDirectory;
use siphoc_internet::provider::{ProviderConfig, SipProviderProcess};
use siphoc_media::session::{MediaConfig, MediaProcess};
use siphoc_simnet::net::ports;
use siphoc_simnet::node::NodeConfig;
use siphoc_simnet::prelude::*;
use siphoc_simnet::process::{Ctx, Process};
use siphoc_sip::ua::{CallEvent, UaConfig, UaLogHandle, UserAgent};
use siphoc_sip::uri::Aor;

use crate::grid::within;

/// Default node spacing along chains and grids: comfortably inside the
/// clear part of the 100 m radio range.
pub const SPACING: f64 = 60.0;

/// A call counts as successful when it establishes within this deadline —
/// callers do not wait out the full 32 s SIP timeout in practice.
pub const SETUP_DEADLINE: SimDuration = SimDuration::from_secs(10);

/// Creates a world with the ideal (lossless) radio — used when an
/// experiment isolates protocol latency from stochastic loss.
pub fn ideal_world(seed: u64) -> World {
    World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()))
}

/// [`ideal_world`] on a regional backbone: 5 ± 1 ms wired legs instead
/// of the 20 ms continental default. E9's budget (media gap within one
/// jitter-buffer depth) assumes gateway, provider and callee share a
/// metro backbone — three wired legs sit between the re-INVITE and the
/// first re-homed RTP packet — and E12's rogue-gateway arm runs E9's
/// world.
pub fn metro_world(seed: u64) -> World {
    let mut config = WorldConfig::new(seed).with_radio(RadioConfig::ideal());
    config.wired_latency = SimDuration::from_millis(5);
    config.wired_jitter = SimDuration::from_millis(1);
    World::new(config)
}

/// The /24 a leased public address belongs to: one per gateway (its
/// address + 100 lies in it), one for a rogue's bogus leases.
pub fn pool_of(lease: Addr) -> Addr {
    Addr(lease.0 & 0xffff_ff00)
}

/// The public addresses `node` holds now: its gateway leases.
pub fn public_addrs(world: &World, node: NodeId) -> Vec<Addr> {
    let addrs = world.node(node).local_addrs();
    addrs.filter(|a| a.is_public()).collect()
}

/// Deploys a chain of `n` SIPHoc nodes; `users` maps node index → user
/// name. Returns the deployed handles in chain order.
pub fn siphoc_chain(
    world: &mut World,
    n: usize,
    routing: RoutingProtocol,
    users: &[(usize, &str)],
) -> Vec<SiphocNode> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut spec = NodeSpec::relay(i as f64 * SPACING, 0.0)
            .with_routing(routing)
            .without_connection_provider();
        if let Some((_, name)) = users.iter().find(|(slot, _)| *slot == i) {
            spec = spec.with_user(bench_ua(name));
        }
        out.push(deploy(world, spec));
    }
    out
}

/// Positions of a `side × side` grid at [`SPACING`], row by row from the
/// origin: the first is the near corner, the last the far one.
pub fn grid_positions(side: usize) -> impl Iterator<Item = (f64, f64)> {
    (0..side * side).map(move |i| ((i % side) as f64 * SPACING, (i / side) as f64 * SPACING))
}

/// Builds a bench user agent: Fig. 2 configuration but with zero
/// auto-answer delay, so setup-time measurements see protocol latency
/// rather than a fixed ring time.
pub fn bench_ua(name: &str) -> UaConfig {
    let mut ua = VoipAppConfig::fig2(name, "voicehoc.ch")
        .to_ua_config()
        .expect("localhost proxy resolves");
    ua.answer_delay = SimDuration::ZERO;
    ua
}

/// The bench user agent of `u{i}` in a population where every even user
/// with a partner calls the odd user after it, `at` seconds in.
pub fn paired_ua(i: usize, calls: bool, at: u64, talk_secs: u64) -> UaConfig {
    let ua = bench_ua(&format!("u{i}"));
    if !calls {
        return ua;
    }
    ua.call_at(
        SimTime::from_secs(at),
        Aor::new(&format!("u{}", i + 1), "voicehoc.ch"),
        SimDuration::from_secs(talk_secs),
    )
}

/// A constant-bit-rate cross-traffic source: 250 pps × 1400 B ≈ 2.8 Mb/s,
/// a meaningful fraction of the 11 Mb/s link rate, so a handful of
/// streams saturates the shared relays.
struct CbrSource {
    dst: SocketAddr,
    port: u16,
}

impl Process for CbrSource {
    fn name(&self) -> &'static str {
        "cbr"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(self.port);
        ctx.set_timer(SimDuration::from_millis(4), 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_to(self.dst, self.port, vec![0u8; 1400]);
        ctx.set_timer(SimDuration::from_millis(4), 1);
    }
}

/// What E6 and A2 hold fixed around the voice call they both sweep.
pub struct VoiceScene {
    /// Users on the chain besides bob, who sits on its last node.
    pub bystanders: &'static [(usize, &'static str)],
    /// The caller's name; her node stands `caller_y` metres beside node 0.
    pub caller: &'static str,
    /// See `caller`.
    pub caller_y: f64,
    /// Talk time; the call starts at t = 10 s and the world runs 10 s
    /// past its end.
    pub talk_secs: u64,
}

/// One PCMU call down an AODV chain of `hops` hops under `radio`, with
/// `cbr_streams` background streams crossing the chain (node k → node
/// k+2, port 9600+k). `[loss %, mean one-way delay ms, MOS]` at the
/// caller; `None` when the call carried no media.
pub fn voice_call(
    seed: u64,
    radio: RadioConfig,
    scene: &VoiceScene,
    hops: usize,
    cbr_streams: usize,
) -> Option<[f64; 3]> {
    let mut w = World::new(WorldConfig::new(seed).with_radio(radio));
    let mut users = scene.bystanders.to_vec();
    users.push((hops, "bob"));
    let nodes = siphoc_chain(&mut w, hops + 1, RoutingProtocol::Aodv, &users);
    let ua = bench_ua(scene.caller).call_at(
        SimTime::from_secs(10),
        Aor::new("bob", "voicehoc.ch"),
        SimDuration::from_secs(scene.talk_secs),
    );
    let caller = deploy(
        &mut w,
        NodeSpec::relay(0.0, scene.caller_y)
            .without_connection_provider()
            .with_user(ua),
    );
    for k in 0..cbr_streams {
        let dst = SocketAddr::new(nodes[(k + 2) % nodes.len()].addr, 9700);
        let port = 9600 + k as u16;
        w.spawn(nodes[k % nodes.len()].id, Box::new(CbrSource { dst, port }));
    }
    w.run_for(SimDuration::from_secs(scene.talk_secs + 20));
    let reports = caller.media_reports.as_ref().expect("media").borrow();
    let r = reports.first().filter(|r| r.received > 0)?;
    Some([
        r.loss_fraction * 100.0,
        r.mean_delay.as_millis_f64(),
        r.quality.mos,
    ])
}

/// What [`voice_call`] reports when nothing was lost: loss 0 and MOS at
/// the E-model's G.711 ceiling, 4.38 at the tables' two decimals.
pub fn lossless(loss: &[f64], mos: &[f64]) -> bool {
    within(loss, 0.0, 0.0) && within(mos, 4.375, 4.385)
}

/// The wired side E5, T1 and E9 dial: the provider of `domain` at `provider`
/// and its Internet user iris (with a media plane) at `iris_at`, running
/// `script(iris's config)`. Returns iris's call log.
pub fn internet_side(
    world: &mut World,
    domain: &str,
    provider: Addr,
    dns: &DnsDirectory,
    iris_at: Addr,
    script: impl FnOnce(UaConfig) -> UaConfig,
) -> UaLogHandle {
    let p = world.add_node(NodeConfig::wired(provider));
    let config = ProviderConfig::new(domain, dns.clone());
    world.spawn(p, Box::new(SipProviderProcess::new(config)));
    let iris_node = world.add_node(NodeConfig::wired(iris_at));
    let (iris, log) = UserAgent::new(script(UaConfig::new(
        Aor::new("iris", domain),
        SocketAddr::new(provider, ports::SIP),
    )));
    world.spawn(iris_node, Box::new(iris));
    let (media, _) = MediaProcess::new(MediaConfig::pcmu(8000));
    world.spawn(iris_node, Box::new(media));
    log
}

/// INVITE sent → Established of the caller's `k`-th call attempt; `None`
/// if it never established (or was never placed).
pub fn call_setup(node: &SiphocNode, k: usize) -> Option<SimDuration> {
    let log = node.ua_logs[0].borrow();
    let mut placed = log
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, CallEvent::OutgoingCall { .. }))
        .map(|(t, _)| *t)
        .skip(k);
    let placed_at = placed.next()?;
    let window_end = placed.next().unwrap_or(SimTime::MAX);
    log.events()
        .iter()
        .find(|(t, e)| {
            *t >= placed_at && *t < window_end && matches!(e, CallEvent::Established { .. })
        })
        .map(|(t, _)| *t - placed_at)
}

/// Setup times in ms of the callers' first calls, those that established
/// within [`SETUP_DEADLINE`] only.
pub fn setups_within_deadline<'a>(callers: impl Iterator<Item = &'a SiphocNode>) -> Vec<f64> {
    callers
        .filter_map(|node| call_setup(node, 0))
        .filter(|s| *s <= SETUP_DEADLINE)
        .map(|s| s.as_millis_f64())
        .collect()
}

/// Control bytes (`siphoc_core::metrics::control_bytes`) per radio node
/// per second of the world's run so far.
pub fn control_bytes_per_node_second(world: &World) -> f64 {
    let n = world
        .node_ids()
        .iter()
        .filter(|id| world.node(**id).has_radio())
        .count()
        .max(1);
    control_bytes(&world.total_stats()) as f64 / n as f64 / world.now().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_positions_are_spaced() {
        let mut w = ideal_world(1);
        let nodes = siphoc_chain(&mut w, 3, RoutingProtocol::Aodv, &[(0, "a"), (2, "b")]);
        assert_eq!(nodes.len(), 3);
        assert_eq!(w.position(nodes[2].id).0, 2.0 * SPACING);
        assert_eq!(nodes[0].ua_logs.len(), 1);
        assert_eq!(nodes[1].ua_logs.len(), 0);
        let grid: Vec<_> = grid_positions(2).collect();
        assert_eq!(
            grid,
            [
                (0.0, 0.0),
                (SPACING, 0.0),
                (0.0, SPACING),
                (SPACING, SPACING)
            ]
        );
    }

    #[test]
    fn call_setup_extracts_setup_time() {
        let mut w = ideal_world(9);
        siphoc_chain(&mut w, 2, RoutingProtocol::Aodv, &[(0, "a"), (1, "b")]);
        let ua = bench_ua("x").call_at(
            SimTime::from_secs(3),
            Aor::new("b", "voicehoc.ch"),
            SimDuration::from_secs(2),
        );
        let caller = deploy(&mut w, NodeSpec::relay(0.0, 60.0).with_user(ua));
        w.run_for(SimDuration::from_secs(12));
        let s = call_setup(&caller, 0).expect("call should establish");
        assert!(s < SimDuration::from_secs(3), "setup {s}");
        assert_eq!(setups_within_deadline([&caller].into_iter()).len(), 1);
        // A second attempt that never happened reports no setup.
        assert_eq!(call_setup(&caller, 1), None);
    }

    #[test]
    fn control_bytes_counts_routing_traffic() {
        for (routing, prefix) in [
            (RoutingProtocol::Aodv, "aodv."),
            (RoutingProtocol::Olsr, "olsr."),
        ] {
            let mut w = ideal_world(10);
            siphoc_chain(&mut w, 3, routing, &[]);
            w.run_for(SimDuration::from_secs(10));
            let total = w.total_stats();
            let routed = total.sum_prefix(prefix).bytes;
            assert!(routed > 0, "{prefix} chain is silent");
            assert_eq!(control_bytes(&total), routed);
            assert!(control_bytes_per_node_second(&w) > 0.0);
        }
    }
}
