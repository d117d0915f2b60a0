//! Simulated Internet SIP providers.
//!
//! A provider is the combination the paper's §3.2 interacts with —
//! registrar plus proxy for one domain, reachable at the address its
//! domain resolves to ("typically, SIP providers have their SIP proxy
//! running on the domain they assign the SIP addresses from"). The
//! reproduction runs three of them, mirroring the paper's test set:
//! `siphoc.ch` and `netvoip.ch` (well-behaved) and `polyphone.ethz.ch`
//! (requires a special outbound proxy, so its domain does not resolve to a
//! usable next hop — the documented interop failure).
//!
//! The provider answers REGISTER statefully (transaction layer, binding
//! table) and forwards everything else statelessly.

use siphoc_simnet::net::{ports, Datagram, SocketAddr};
use siphoc_simnet::process::{Ctx, Process};

use siphoc_sip::msg::{Method, SipMessage, StatusCode};
use siphoc_sip::proxy::{
    prepare_forward_request, prepare_forward_response, response_target, stateless_response,
    transmit, ForwardDecision,
};
use siphoc_sip::registrar::BindingTable;
use siphoc_sip::txn::{TransactionLayer, TxnEvent};
use siphoc_sip::uri::SipUri;

use crate::dns::DnsDirectory;

/// Provider configuration.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// The domain this provider owns (e.g. `voicehoc.ch`).
    pub domain: String,
    /// Directory used to reach other providers.
    pub dns: DnsDirectory,
}

impl ProviderConfig {
    /// Standard provider for `domain`.
    pub fn new(domain: &str, dns: DnsDirectory) -> ProviderConfig {
        ProviderConfig {
            domain: domain.to_lowercase(),
            dns,
        }
    }
}

/// The provider process. Spawn on a wired node.
pub struct SipProviderProcess {
    cfg: ProviderConfig,
    bindings: BindingTable,
    txn: TransactionLayer,
}

impl std::fmt::Debug for SipProviderProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SipProviderProcess")
            .field("domain", &self.cfg.domain)
            .field("bindings", &self.bindings.len())
            .finish_non_exhaustive()
    }
}

impl SipProviderProcess {
    /// Creates a provider.
    pub fn new(cfg: ProviderConfig) -> SipProviderProcess {
        SipProviderProcess {
            cfg,
            bindings: BindingTable::new(),
            txn: TransactionLayer::new(ports::SIP),
        }
    }

    /// Read-only view of the registrations (tests / diagnostics).
    pub fn bindings(&self) -> &BindingTable {
        &self.bindings
    }

    fn is_our_domain(&self, uri: &SipUri) -> bool {
        uri.host.eq_ignore_ascii_case(&self.cfg.domain)
    }

    /// Decides where a request should go next. `None` means it was
    /// answered locally.
    fn route_request(&mut self, ctx: &mut Ctx<'_>, msg: &SipMessage) -> Option<SocketAddr> {
        let SipMessage::Request { uri, method, .. } = msg else {
            return None;
        };
        // Numeric host: direct.
        if let Some(dst) = uri.socket_addr(ports::SIP) {
            return Some(dst);
        }
        if self.is_our_domain(uri) {
            let aor = uri.aor();
            let now = ctx.now();
            match self.bindings.lookup(&aor, now) {
                Some(b) => {
                    let dst = b.contact.socket_addr(ports::SIP);
                    match dst {
                        Some(d) => Some(d),
                        None => {
                            ctx.stats().count("provider.bad_contact", 1);
                            None
                        }
                    }
                }
                None => {
                    if *method != Method::Ack {
                        let resp = stateless_response(msg, StatusCode::NOT_FOUND, ctx);
                        if let Some(t) = response_target(msg) {
                            transmit(ctx, ports::SIP, &resp, t);
                        }
                    }
                    None
                }
            }
        } else {
            match self.cfg.dns.resolve(&uri.host) {
                Some(addr) => Some(SocketAddr::new(addr, ports::SIP)),
                None => {
                    if *method != Method::Ack {
                        let resp = stateless_response(msg, StatusCode::SERVICE_UNAVAILABLE, ctx);
                        if let Some(t) = response_target(msg) {
                            transmit(ctx, ports::SIP, &resp, t);
                        }
                    }
                    ctx.stats().count("provider.unresolvable_domain", 1);
                    None
                }
            }
        }
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, msg: SipMessage, from: SocketAddr) {
        let method = msg.method().expect("requests have methods");
        let register_for_us = method == Method::Register
            && msg
                .to_header()
                .map(|t| t.uri.host.eq_ignore_ascii_case(&self.cfg.domain))
                .unwrap_or(false);

        if register_for_us {
            // Stateful: absorb retransmissions through a server txn.
            match self.txn.on_datagram(ctx, msg, from) {
                Some(TxnEvent::Request { key, msg, .. }) => {
                    let now = ctx.now();
                    ctx.stats().count("provider.register", 1);
                    let resp = self.bindings.handle_register(&msg, now);
                    self.txn.respond(ctx, &key, resp);
                }
                _ => { /* retransmission replayed internally */ }
            }
            return;
        }

        let Some(dst) = self.route_request(ctx, &msg) else {
            return;
        };
        let sent_by = SocketAddr::new(ctx.addr(), ports::SIP);
        // Rewrite the Request-URI to the registered contact when routing
        // into our own domain, so downstream elements route numerically.
        let mut msg = msg;
        if let SipMessage::Request { uri, .. } = &mut msg {
            if self.is_our_domain(uri) {
                let aor = uri.aor();
                if let Some(b) = self.bindings.lookup(&aor, ctx.now()) {
                    *uri = b.contact.clone();
                }
            }
        }
        match prepare_forward_request(msg, sent_by) {
            ForwardDecision::Forward(fwd) => transmit(ctx, ports::SIP, &fwd, dst),
            ForwardDecision::Reject(code) => {
                ctx.stats().count("provider.reject", 1);
                let _ = code;
            }
        }
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, msg: SipMessage, from: SocketAddr) {
        // Try our own (registrar) client transactions first — the provider
        // sends none today, but the layer also absorbs strays cleanly.
        let own_via = msg
            .top_via()
            .map(|v| v.sent_by.addr == ctx.addr())
            .unwrap_or(false);
        if !own_via {
            ctx.stats().count("provider.misrouted_response", 1);
            return;
        }
        let _ = from;
        if let Some((fwd, target)) = prepare_forward_response(msg) {
            transmit(ctx, ports::SIP, &fwd, target);
        }
    }
}

impl Process for SipProviderProcess {
    fn name(&self) -> &'static str {
        "sip-provider"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::SIP);
        // Transactions lose their timers in a crash; bindings expire on
        // their own clock and stay.
        self.txn = TransactionLayer::new(ports::SIP);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let Ok(msg) = SipMessage::parse(&String::from_utf8_lossy(&dgram.payload)) else {
            ctx.stats().count("provider.malformed", dgram.payload.len());
            return;
        };
        if msg.is_request() {
            self.on_request(ctx, msg, dgram.src);
        } else {
            self.on_response(ctx, msg, dgram.src);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.txn.owns_token(token) {
            let _ = self.txn.on_timer(ctx, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::net::Addr;
    use siphoc_simnet::prelude::*;
    use siphoc_sip::ua::{CallEvent, UaConfig, UserAgent};
    use siphoc_sip::uri::Aor;

    fn internet_world() -> (World, NodeId, Addr) {
        let mut w = World::new(WorldConfig::new(61));
        let provider_addr = Addr::new(82, 1, 1, 1);
        let p = w.add_node(NodeConfig::wired(provider_addr));
        (w, p, provider_addr)
    }

    #[test]
    fn register_and_call_between_two_internet_uas() {
        let (mut w, p, paddr) = internet_world();
        let dns = DnsDirectory::new().with_record("voicehoc.ch", paddr);
        w.spawn(
            p,
            Box::new(SipProviderProcess::new(ProviderConfig::new(
                "voicehoc.ch",
                dns,
            ))),
        );

        let ua1n = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 10)));
        let ua2n = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 11)));
        let alice = Aor::new("alice", "voicehoc.ch");
        let bob = Aor::new("bob", "voicehoc.ch");
        let proxy = SocketAddr::new(paddr, ports::SIP);
        let cfg1 = UaConfig::new(alice, proxy).call_at(
            SimTime::from_secs(2),
            bob.clone(),
            SimDuration::from_secs(5),
        );
        let cfg2 = UaConfig::new(bob, proxy);
        let (ua1, log1) = UserAgent::new(cfg1);
        let (ua2, log2) = UserAgent::new(cfg2);
        w.spawn(ua1n, Box::new(ua1));
        w.spawn(ua2n, Box::new(ua2));
        w.run_for(SimDuration::from_secs(12));

        assert!(log1.borrow().any(|e| matches!(e, CallEvent::Registered)));
        assert!(log2.borrow().any(|e| matches!(e, CallEvent::Registered)));
        assert!(
            log1.borrow()
                .any(|e| matches!(e, CallEvent::Established { .. })),
            "{:?}",
            log1.borrow().events()
        );
        assert!(log2
            .borrow()
            .any(|e| matches!(e, CallEvent::Established { .. })));
        assert!(log1.borrow().any(|e| matches!(
            e,
            CallEvent::Terminated {
                by_remote: false,
                ..
            }
        )));
        assert!(log2.borrow().any(|e| matches!(
            e,
            CallEvent::Terminated {
                by_remote: true,
                ..
            }
        )));
    }

    #[test]
    fn call_to_unregistered_user_gets_404() {
        let (mut w, p, paddr) = internet_world();
        let dns = DnsDirectory::new().with_record("voicehoc.ch", paddr);
        w.spawn(
            p,
            Box::new(SipProviderProcess::new(ProviderConfig::new(
                "voicehoc.ch",
                dns,
            ))),
        );
        let uan = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 10)));
        let proxy = SocketAddr::new(paddr, ports::SIP);
        let cfg = UaConfig::new(Aor::new("alice", "voicehoc.ch"), proxy).call_at(
            SimTime::from_secs(2),
            Aor::new("ghost", "voicehoc.ch"),
            SimDuration::from_secs(5),
        );
        let (ua, log) = UserAgent::new(cfg);
        w.spawn(uan, Box::new(ua));
        w.run_for(SimDuration::from_secs(10));
        assert!(
            log.borrow().any(|e| matches!(
                e,
                CallEvent::Failed {
                    code: Some(404),
                    ..
                }
            )),
            "{:?}",
            log.borrow().events()
        );
    }

    #[test]
    fn cross_domain_call_via_two_providers() {
        let mut w = World::new(WorldConfig::new(62));
        let p1a = Addr::new(82, 1, 1, 1);
        let p2a = Addr::new(82, 2, 2, 2);
        let dns = DnsDirectory::new()
            .with_record("voicehoc.ch", p1a)
            .with_record("netvoip.ch", p2a);
        let p1 = w.add_node(NodeConfig::wired(p1a));
        let p2 = w.add_node(NodeConfig::wired(p2a));
        w.spawn(
            p1,
            Box::new(SipProviderProcess::new(ProviderConfig::new(
                "voicehoc.ch",
                dns.clone(),
            ))),
        );
        w.spawn(
            p2,
            Box::new(SipProviderProcess::new(ProviderConfig::new(
                "netvoip.ch",
                dns,
            ))),
        );

        let ua1n = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 10)));
        let ua2n = w.add_node(NodeConfig::wired(Addr::new(82, 2, 2, 10)));
        let alice = Aor::new("alice", "voicehoc.ch");
        let bob = Aor::new("bob", "netvoip.ch");
        let cfg1 = UaConfig::new(alice, SocketAddr::new(p1a, ports::SIP)).call_at(
            SimTime::from_secs(2),
            bob.clone(),
            SimDuration::from_secs(3),
        );
        let cfg2 = UaConfig::new(bob, SocketAddr::new(p2a, ports::SIP));
        let (ua1, log1) = UserAgent::new(cfg1);
        let (ua2, log2) = UserAgent::new(cfg2);
        w.spawn(ua1n, Box::new(ua1));
        w.spawn(ua2n, Box::new(ua2));
        w.run_for(SimDuration::from_secs(12));
        assert!(
            log1.borrow()
                .any(|e| matches!(e, CallEvent::Established { .. })),
            "{:?}",
            log1.borrow().events()
        );
        assert!(log2
            .borrow()
            .any(|e| matches!(e, CallEvent::Established { .. })));
    }

    #[test]
    fn unresolvable_domain_gets_503() {
        let (mut w, p, paddr) = internet_world();
        // polyphone.ethz.ch is NOT in DNS: requires its own outbound proxy.
        let dns = DnsDirectory::new().with_record("voicehoc.ch", paddr);
        w.spawn(
            p,
            Box::new(SipProviderProcess::new(ProviderConfig::new(
                "voicehoc.ch",
                dns,
            ))),
        );
        let uan = w.add_node(NodeConfig::wired(Addr::new(82, 1, 1, 10)));
        let cfg = UaConfig::new(
            Aor::new("alice", "voicehoc.ch"),
            SocketAddr::new(paddr, ports::SIP),
        )
        .call_at(
            SimTime::from_secs(2),
            Aor::new("carol", "polyphone.ethz.ch"),
            SimDuration::from_secs(3),
        );
        let (ua, log) = UserAgent::new(cfg);
        w.spawn(uan, Box::new(ua));
        w.run_for(SimDuration::from_secs(10));
        assert!(
            log.borrow().any(|e| matches!(
                e,
                CallEvent::Failed {
                    code: Some(503),
                    ..
                }
            )),
            "{:?}",
            log.borrow().events()
        );
    }
}
