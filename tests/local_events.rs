//! Each stack process takes exactly the node-local signals it acts on.
//!
//! `World::dispatch` calls `on_local_event` only on the processes whose
//! `Ctx::take_local` subscription names the event's kind. These tests
//! hold every stack process to its subscription: `on_start` declares the
//! kinds in the table below, and every kind it does not take leaves no
//! effect and no counter behind, so skipping the call changes nothing.

use wireless_adhoc_voip::core::adversary::Adversary;
use wireless_adhoc_voip::core::connection::{ConnectionProvider, ConnectionProviderConfig};
use wireless_adhoc_voip::core::gateway::GatewayProvider;
use wireless_adhoc_voip::core::proxy::{SiphocProxy, SiphocProxyConfig};
use wireless_adhoc_voip::media::session::{MediaConfig, MediaProcess};
use wireless_adhoc_voip::routing::aodv::AodvProcess;
use wireless_adhoc_voip::routing::olsr::OlsrProcess;
use wireless_adhoc_voip::simnet::fault::MaliciousKind;
use wireless_adhoc_voip::simnet::net::{Addr, SocketAddr};
use wireless_adhoc_voip::simnet::process::{Ctx, Effect, LocalEvent, LocalKind, Process};
use wireless_adhoc_voip::simnet::rng::SimRng;
use wireless_adhoc_voip::simnet::route::RoutingTable;
use wireless_adhoc_voip::simnet::stats::NodeStats;
use wireless_adhoc_voip::simnet::time::SimTime;
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
        LocalEvent::NodeRestarted,
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

/// Starts `proc`, checks that it takes exactly `takes`, then hands it
/// one event of every other kind and checks that none leaves a trace.
fn takes_exactly(mut proc: Box<dyn Process>, takes: &[LocalKind]) {
    let name = proc.name();
    let mut host = Host::new();
    host.call(|ctx| proc.on_start(ctx));
    let declared: Vec<u16> = host
        .effects
        .iter()
        .filter_map(|e| match e {
            Effect::TakeLocal(m) => Some(*m),
            _ => None,
        })
        .collect();
    assert_eq!(declared, [mask(takes)], "{name} subscription");
    host.effects.clear();
    let before = host.counters();
    let events = one_of_each();
    // Ten distinct bits: `one_of_each` has every kind.
    assert_eq!(
        mask(&events.iter().map(LocalEvent::kind).collect::<Vec<_>>()),
        0x3ff
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

#[test]
fn ua_takes_internet_up_only() {
    let aor: Aor = "alice@voicehoc.ch".parse().unwrap();
    let cfg = UaConfig::new(aor, SocketAddr::new(Addr::LOOPBACK, 5060));
    takes_exactly(Box::new(UserAgent::new(cfg).0), &[LocalKind::InternetUp]);
}

#[test]
fn proxy_takes_internet_and_restart() {
    takes_exactly(
        Box::new(SiphocProxy::new(SiphocProxyConfig::default())),
        &[
            LocalKind::InternetUp,
            LocalKind::InternetDown,
            LocalKind::NodeRestarted,
        ],
    );
}

#[test]
fn slp_daemon_takes_handler_updates_and_restart() {
    for mode in [Dissemination::OnDemand, Dissemination::Proactive] {
        takes_exactly(
            Box::new(SlpDaemon::new(mode, shared_registry())),
            &[LocalKind::HandlerUpdated, LocalKind::NodeRestarted],
        );
    }
}

#[test]
fn aodv_takes_route_needs_link_failures_floods_and_restart() {
    takes_exactly(
        Box::new(AodvProcess::new()),
        &[
            LocalKind::RouteNeeded,
            LocalKind::LinkTxFailed,
            LocalKind::NodeRestarted,
            LocalKind::FloodQuery,
        ],
    );
}

#[test]
fn olsr_takes_link_failures_and_restart() {
    takes_exactly(
        Box::new(OlsrProcess::new()),
        &[LocalKind::LinkTxFailed, LocalKind::NodeRestarted],
    );
}

#[test]
fn media_takes_start_and_stop() {
    takes_exactly(
        Box::new(MediaProcess::new(MediaConfig::pcmu(8000)).0),
        &[LocalKind::MediaStart, LocalKind::MediaStop],
    );
}

#[test]
fn gateway_provider_takes_restart() {
    takes_exactly(
        Box::new(GatewayProvider::new()),
        &[LocalKind::NodeRestarted],
    );
}

#[test]
fn connection_provider_takes_restart() {
    for wired_public in [None, Some(Addr::new(82, 130, 64, 1))] {
        let cfg = ConnectionProviderConfig {
            wired_public,
            ..ConnectionProviderConfig::default()
        };
        takes_exactly(
            Box::new(ConnectionProvider::new(cfg)),
            &[LocalKind::NodeRestarted],
        );
    }
}

#[test]
fn adversary_takes_compromise() {
    takes_exactly(Box::new(Adversary::new(None)), &[LocalKind::Compromise]);
}
