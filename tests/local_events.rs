//! Each stack process takes exactly the node-local signals it acts on,
//! and starts again cleanly after a crash.
//!
//! `World::dispatch` calls `on_local_event` only on the processes whose
//! `Ctx::take_local` subscription names the event's kind. These tests
//! hold every stack process to its subscription: `on_start` declares the
//! kinds in the table below, and every kind it does not take leaves no
//! effect and no counter behind, so skipping the call changes nothing.
//!
//! A node's restart runs every process's `on_start` again (DESIGN.md
//! "Crash and restart"). Each test below also runs `on_start` twice on
//! one host, and the second run must look like the first.

use wireless_adhoc_voip::core::adversary::Adversary;
use wireless_adhoc_voip::core::connection::{ConnectionProvider, ConnectionProviderConfig};
use wireless_adhoc_voip::core::gateway::GatewayProvider;
use wireless_adhoc_voip::core::proxy::{SiphocProxy, SiphocProxyConfig};
use wireless_adhoc_voip::core::tunnel::{TunnelServer, TunnelServerConfig};
use wireless_adhoc_voip::internet::dns::DnsDirectory;
use wireless_adhoc_voip::internet::provider::{ProviderConfig, SipProviderProcess};
use wireless_adhoc_voip::internet::relay::{RelayConfig, TurnRelay};
use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess};
use wireless_adhoc_voip::routing::aodv::AodvProcess;
use wireless_adhoc_voip::routing::olsr::OlsrProcess;
use wireless_adhoc_voip::simnet::fault::MaliciousKind;
use wireless_adhoc_voip::simnet::net::{Addr, SocketAddr};
use wireless_adhoc_voip::simnet::process::{Ctx, Effect, LocalEvent, LocalKind, Process};
use wireless_adhoc_voip::simnet::rng::SimRng;
use wireless_adhoc_voip::simnet::route::RoutingTable;
use wireless_adhoc_voip::simnet::stats::NodeStats;
use wireless_adhoc_voip::simnet::time::{SimDuration, SimTime};
use wireless_adhoc_voip::sip::ua::{UaConfig, UserAgent};
use wireless_adhoc_voip::sip::uri::Aor;
use wireless_adhoc_voip::slp::daemon::{Dissemination, SlpDaemon};
use wireless_adhoc_voip::slp::registry::shared_registry;

/// One event of every kind.
fn one_of_each() -> Vec<LocalEvent> {
    let call_id = "c1@10.0.0.9".to_owned();
    vec![
        LocalEvent::RouteNeeded {
            dst: Addr::manet(5),
        },
        LocalEvent::LinkTxFailed {
            neighbor: Addr::manet(5),
        },
        LocalEvent::InternetUp {
            public: Addr::new(82, 130, 64, 9),
        },
        LocalEvent::InternetDown,
        LocalEvent::MediaStart {
            call_id: call_id.clone(),
            remote: SocketAddr::new(Addr::manet(5), 8000),
        },
        LocalEvent::MediaStop { call_id },
        LocalEvent::FloodQuery {
            query: b"Q sip bob@voicehoc.ch 10.0.0.9 1".to_vec(),
        },
        LocalEvent::HandlerUpdated,
        LocalEvent::Compromise(MaliciousKind::RogueGateway),
    ]
}

fn mask(kinds: &[LocalKind]) -> u16 {
    kinds.iter().fold(0, |m, k| m | k.bit())
}

/// What a process may touch through its `Ctx`, owned by the test.
struct Host {
    rng: SimRng,
    routes: RoutingTable,
    stats: NodeStats,
    obs: wireless_adhoc_voip::simnet::obs::NodeObs,
    effects: Vec<Effect>,
}

impl Host {
    fn new() -> Host {
        Host {
            rng: SimRng::from_seed_and_stream(7, 0),
            routes: RoutingTable::new(),
            stats: NodeStats::default(),
            obs: Default::default(),
            effects: Vec::new(),
        }
    }

    fn call(&mut self, f: impl FnOnce(&mut Ctx<'_>)) {
        let mut ctx = Ctx::for_test(
            SimTime::from_secs(5),
            Addr::manet(9),
            &mut self.rng,
            &mut self.routes,
            &mut self.stats,
            &mut self.obs,
            &mut self.effects,
        );
        f(&mut ctx);
    }

    fn counters(&self) -> Vec<(&'static str, u64, u64)> {
        self.stats
            .iter()
            .map(|(name, c)| (name, c.packets, c.bytes))
            .collect()
    }
}

/// What one `on_start` declared: the ports it bound, the subscription
/// masks it took and the number of timers it armed.
#[derive(Debug, PartialEq)]
struct Start {
    binds: Vec<u16>,
    takes: Vec<u16>,
    timers: usize,
}

impl Start {
    /// Runs `on_start` on `host` and reads its effects off.
    fn run(proc: &mut dyn Process, host: &mut Host) -> Start {
        host.effects.clear();
        host.call(|ctx| proc.on_start(ctx));
        let mut start = Start {
            binds: Vec::new(),
            takes: Vec::new(),
            timers: 0,
        };
        for e in host.effects.drain(..) {
            match e {
                Effect::Bind(port) => start.binds.push(port),
                Effect::TakeLocal(m) => start.takes.push(m),
                Effect::SetTimer { .. } => start.timers += 1,
                _ => {}
            }
        }
        start
    }
}

/// Starts `proc`, checks that it takes exactly `takes` (a process that
/// takes nothing need not declare), then hands it one event of every
/// other kind and checks that none leaves a trace.
fn takes_exactly(mut proc: Box<dyn Process>, takes: &[LocalKind]) {
    let name = proc.name();
    let mut host = Host::new();
    let declared = Start::run(proc.as_mut(), &mut host).takes;
    assert!(declared.len() <= 1, "{name} declared {declared:?}");
    let taken = declared.first().copied().unwrap_or(0);
    assert_eq!(taken, mask(takes), "{name} subscription");
    let before = host.counters();
    let events = one_of_each();
    // Nine distinct bits: `one_of_each` has every kind.
    assert_eq!(
        mask(&events.iter().map(LocalEvent::kind).collect::<Vec<_>>()),
        0x1ff
    );
    for ev in events.iter().filter(|ev| !takes.contains(&ev.kind())) {
        host.call(|ctx| proc.on_local_event(ctx, ev));
        assert!(
            host.effects.is_empty(),
            "{name} acted on {ev:?}: {:?}",
            host.effects
        );
        assert_eq!(host.counters(), before, "{name} counted on {ev:?}");
    }
}

/// Runs `proc`'s `on_start` twice on one host, as a spawn and then a
/// restart do. The second run must not panic, and must bind the same
/// ports, take the same kinds and arm as many timers as the first.
fn starts_again_cleanly(mut proc: Box<dyn Process>) {
    let name = proc.name();
    let mut host = Host::new();
    let first = Start::run(proc.as_mut(), &mut host);
    let again = Start::run(proc.as_mut(), &mut host);
    assert_eq!(again, first, "{name} started differently the second time");
}

#[test]
fn ua_takes_internet_up_only() {
    let aor: Aor = "alice@voicehoc.ch".parse().unwrap();
    let cfg = UaConfig::new(aor, SocketAddr::new(Addr::LOOPBACK, 5060));
    takes_exactly(
        Box::new(UserAgent::new(cfg.clone()).0),
        &[LocalKind::InternetUp],
    );
    // A call still ahead of the restart is armed again.
    let bob: Aor = "bob@voicehoc.ch".parse().unwrap();
    let cfg = cfg.call_at(SimTime::from_secs(9), bob, SimDuration::from_secs(3));
    starts_again_cleanly(Box::new(UserAgent::new(cfg).0));
}

#[test]
fn proxy_takes_internet_and_restart() {
    let proxy = || Box::new(SiphocProxy::new(SiphocProxyConfig::default()));
    takes_exactly(proxy(), &[LocalKind::InternetUp, LocalKind::InternetDown]);
    starts_again_cleanly(proxy());
}

#[test]
fn slp_daemon_takes_handler_updates_and_restart() {
    for mode in [Dissemination::OnDemand, Dissemination::Proactive] {
        let daemon = || Box::new(SlpDaemon::new(mode, shared_registry()));
        takes_exactly(daemon(), &[LocalKind::HandlerUpdated]);
        starts_again_cleanly(daemon());
    }
}

#[test]
fn aodv_takes_route_needs_link_failures_floods_and_restart() {
    takes_exactly(
        Box::new(AodvProcess::new()),
        &[
            LocalKind::RouteNeeded,
            LocalKind::LinkTxFailed,
            LocalKind::FloodQuery,
        ],
    );
    starts_again_cleanly(Box::new(AodvProcess::new()));
}

#[test]
fn olsr_takes_link_failures_and_restart() {
    takes_exactly(Box::new(OlsrProcess::new()), &[LocalKind::LinkTxFailed]);
    starts_again_cleanly(Box::new(OlsrProcess::new()));
}

#[test]
fn media_takes_start_and_stop() {
    let media = || Box::new(MediaProcess::new(MediaConfig::pcmu(8000)).0);
    takes_exactly(media(), &[LocalKind::MediaStart, LocalKind::MediaStop]);
    starts_again_cleanly(media());
}

#[test]
fn gateway_provider_takes_restart() {
    takes_exactly(Box::new(GatewayProvider::new()), &[]);
    starts_again_cleanly(Box::new(GatewayProvider::new()));
}

#[test]
fn connection_provider_takes_restart() {
    for wired_public in [None, Some(Addr::new(82, 130, 64, 1))] {
        let cp = || {
            Box::new(ConnectionProvider::new(ConnectionProviderConfig {
                wired_public,
                ..ConnectionProviderConfig::default()
            }))
        };
        takes_exactly(cp(), &[]);
        starts_again_cleanly(cp());
    }
}

#[test]
fn adversary_takes_compromise() {
    takes_exactly(Box::new(Adversary::new(None)), &[LocalKind::Compromise]);
    starts_again_cleanly(Box::new(Adversary::new(None)));
}

#[test]
fn tunnel_server_relay_and_provider_take_nothing_and_restart() {
    let servers: [fn() -> Box<dyn Process>; 3] = [
        || Box::new(TunnelServer::new(TunnelServerConfig::default())),
        || Box::new(TurnRelay::new(RelayConfig::default())),
        || {
            let cfg = ProviderConfig::new("voicehoc.ch", DnsDirectory::new());
            Box::new(SipProviderProcess::new(cfg))
        },
    ];
    for make in servers {
        takes_exactly(make(), &[]);
        starts_again_cleanly(make());
    }
}
