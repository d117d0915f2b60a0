//! The SIPHoc proxy.
//!
//! "A \[proxy\] with a standard SIP interface but implementing
//! MANET-specific functionality. Each \[proxy\] serves as an outbound SIP
//! proxy for the local VoIP application" (paper §2). Concretely, per the
//! paper's Fig. 3 walkthrough:
//!
//! 1. the local VoIP application registers with this proxy (step 1);
//! 2. the proxy advertises itself through MANET SLP as the responsible
//!    contact for the user (step 2, Fig. 4);
//! 3. call setup requests from the application are routed through the
//!    proxy (step 5), which consults MANET SLP for the callee (step 6);
//! 4. the resolved request is forwarded to the responsible remote proxy
//!    (step 7), which hands it to its local application (step 8).
//!
//! For Internet transparency (§3.2) the proxy additionally: forwards
//! registrations to the user's real provider whenever the Connection
//! Provider reports connectivity — with the Contact rewritten to the
//! leased public address — and falls back to the provider for callees
//! MANET SLP cannot resolve. SDP bodies crossing into the Internet get
//! their connection address rewritten to the public lease (the ALG step a
//! real L2-tunnel deployment gets for free from DHCP-assigned interface
//! addresses).
//!
//! Forwarding is stateless (RFC 3261 §16.11); reliability stays with the
//! user agents' transaction layers.

use std::collections::BTreeMap;

use siphoc_simnet::net::{ports, Addr, Datagram, SocketAddr};
use siphoc_simnet::obs::SpanCat;
use siphoc_simnet::process::{Ctx, LocalEvent, LocalKind, Process, Timed};
use siphoc_simnet::time::SimDuration;

use siphoc_internet::dns::DnsDirectory;
use siphoc_sip::auth::{self, RegisterAuth, RegisterAuthOutcome};
use siphoc_sip::msg::{Method, SipMessage, StatusCode};
use siphoc_sip::proxy::{Counters, StatelessProxy};
use siphoc_sip::registrar::BindingTable;
use siphoc_sip::sdp::Sdp;
use siphoc_sip::uri::{Aor, SipUri};
use siphoc_slp::msg::SlpMsg;
use siphoc_slp::service::service_types;

/// Port the proxy uses for its SLP client exchanges.
const PROXY_SLP_PORT: u16 = 4270;

/// Lifetime of the proxy's MANET SLP advertisements.
const SLP_LIFETIME_SECS: u32 = 120;
/// Advertisements are renewed at half their lifetime.
const READVERT_INTERVAL: SimDuration = SimDuration::from_secs(SLP_LIFETIME_SECS as u64 / 2);

/// The proxy's counters as a stateless element.
const COUNTERS: Counters = Counters {
    tx: "proxy.tx",
    max_forwards_exhausted: "proxy.max_forwards_exhausted",
    misrouted: "proxy.misrouted_response",
};

/// SIPHoc proxy configuration.
#[derive(Debug, Clone, Default)]
pub struct SiphocProxyConfig {
    /// Domain directory for reaching Internet providers.
    pub dns: DnsDirectory,
    /// Challenge local REGISTERs with self-certifying identity auth
    /// (401/403, trust-on-first-use AOR pinning). Off by default: the
    /// legacy wire exchange stays byte-identical.
    pub auth: bool,
}

#[derive(Debug)]
struct Parked {
    msg: SipMessage,
    /// The `slp.resolve` span, open until the lookup ends either way.
    span: Timed,
}

const TAG_READVERT: u64 = 1;

/// The SIPHoc proxy process.
pub struct SiphocProxy {
    cfg: SiphocProxyConfig,
    local: BindingTable,
    /// Last REGISTER per AOR, replayed to the provider on connectivity.
    register_cache: BTreeMap<String, SipMessage>,
    pending: BTreeMap<u32, Parked>,
    next_xid: u32,
    /// The stateless element; its public alias is the Internet lease,
    /// set while the Connection Provider reports connectivity.
    sip: StatelessProxy,
    /// REGISTER challenge/pin state, lazily created on the first local
    /// REGISTER when `cfg.auth` is on (the nonce salt needs the node
    /// address, unavailable at construction).
    reg_auth: Option<RegisterAuth>,
}

impl std::fmt::Debug for SiphocProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiphocProxy")
            .field("local_bindings", &self.local.len())
            .field("pending_lookups", &self.pending.len())
            .field("internet", &self.sip.public())
            .finish_non_exhaustive()
    }
}

/// The ALG step for messages leaving toward the Internet: rewrites
/// private SDP connection addresses *and* private Contact URIs to the
/// public lease. A real layer-2 tunnel deployment gets the former for
/// free from the DHCP-assigned tunnel interface address; the Contact
/// rewrite points in-dialog requests from the Internet back at this
/// proxy, which re-targets them to the local user.
fn internet_alg(msg: &mut SipMessage, public: Option<Addr>, dst: SocketAddr) {
    if !dst.addr.is_public() {
        return;
    }
    let Some(public) = public else {
        return;
    };
    if let Some(contact) = msg.contact() {
        let private = contact
            .uri
            .socket_addr(ports::SIP)
            .is_some_and(|sa| !sa.addr.is_public());
        if private {
            let user = contact.uri.user.unwrap_or_default();
            let rewritten =
                SipUri::from_socket(Some(&user), SocketAddr::new(public, ports::SIPHOC_PROXY));
            msg.headers_mut().set("Contact", format!("<{rewritten}>"));
        }
    }
    let is_sdp = msg
        .headers()
        .get("Content-Type")
        .is_some_and(|ct| ct.eq_ignore_ascii_case("application/sdp"));
    if !is_sdp {
        return;
    }
    if let Ok(mut sdp) = msg.body().parse::<Sdp>() {
        if !sdp.addr.is_public() {
            sdp.addr = public;
            let text = sdp.to_string();
            msg.set_body(&text, Some("application/sdp"));
        }
    }
}

impl SiphocProxy {
    /// Creates a proxy.
    pub fn new(cfg: SiphocProxyConfig) -> SiphocProxy {
        SiphocProxy {
            cfg,
            local: BindingTable::new(),
            register_cache: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_xid: 0,
            sip: StatelessProxy::new(ports::SIPHOC_PROXY, COUNTERS).with_edit(internet_alg),
            reg_auth: None,
        }
    }

    /// The identity pinned for an AOR by REGISTER auth, if any.
    pub fn pinned_aor_identity(&self, aor: &str) -> Option<u64> {
        self.reg_auth.as_ref()?.pinned_identity(aor)
    }

    /// The local registrations (tests / Fig. 4 style dumps).
    pub fn local_bindings(&self) -> &BindingTable {
        &self.local
    }

    fn slp_request(&mut self, ctx: &mut Ctx<'_>, msg: SlpMsg) {
        ctx.send_local(ports::SLP, PROXY_SLP_PORT, msg.to_wire());
    }

    /// Advertises through MANET SLP this proxy as the contact for `key`,
    /// or with `withdraw` takes that advert back.
    fn advertise(&mut self, ctx: &mut Ctx<'_>, key: String, withdraw: bool) {
        self.next_xid += 1;
        let xid = self.next_xid;
        let service_type = service_types::SIP.to_owned();
        let msg = if withdraw {
            SlpMsg::SrvDeReg {
                xid,
                service_type,
                key,
            }
        } else {
            SlpMsg::SrvReg {
                xid,
                service_type,
                key,
                contact: SocketAddr::new(ctx.addr(), ports::SIPHOC_PROXY),
                lifetime_secs: SLP_LIFETIME_SECS,
            }
        };
        self.slp_request(ctx, msg);
    }

    // ------------------------------------------------------------------
    // Registration (Fig. 3 steps 1–2)
    // ------------------------------------------------------------------

    fn on_local_register(&mut self, ctx: &mut Ctx<'_>, msg: SipMessage) {
        if self.cfg.auth {
            let salt = u64::from(ctx.addr().0);
            let guard = self.reg_auth.get_or_insert_with(|| RegisterAuth::new(salt));
            match guard.check(&msg) {
                RegisterAuthOutcome::Accept { .. } => {}
                RegisterAuthOutcome::Challenge { nonce } => {
                    ctx.stats().count("proxy.auth_challenge", 1);
                    let challenge = auth::Challenge { nonce };
                    let header = (auth::WWW_AUTHENTICATE, &challenge as _);
                    self.sip
                        .answer(ctx, &msg, StatusCode::UNAUTHORIZED, Some(header));
                    return;
                }
                RegisterAuthOutcome::Reject => {
                    ctx.stats().count("proxy.auth_reject", 1);
                    self.sip.answer(ctx, &msg, StatusCode::FORBIDDEN, None);
                    return;
                }
            }
        }
        let (resp, accepted) = self.local.handle_register(&msg, ctx.now());
        self.sip.reply(ctx, &msg, &resp);
        let Some(accepted) = accepted else { return };
        ctx.stats().count("proxy.register_local", 1);

        // Step 2: advertise (or withdraw) through MANET SLP — the proxy's
        // own endpoint is the responsible contact for the user (Fig. 4).
        let key = accepted.aor.to_string();
        let withdraw = accepted.expires_secs == 0;
        if withdraw {
            self.register_cache.remove(&key);
        } else {
            self.register_cache.insert(key.clone(), msg.clone());
        }
        ctx.stats().count("proxy.slp_advertise", 1);
        self.advertise(ctx, key, withdraw);

        // §3.2: with Internet connectivity, also register at the real
        // provider under the public lease.
        if self.sip.public().is_some() && !withdraw {
            self.forward_register_to_provider(ctx, &msg);
        }
    }

    fn forward_register_to_provider(&mut self, ctx: &mut Ctx<'_>, msg: &SipMessage) {
        let Some(to) = msg.to_header() else { return };
        let Some(provider) = self.cfg.dns.resolve(&to.uri.aor().domain) else {
            // The polyphone.ethz.ch case: the provider needs an outbound
            // proxy we have overwritten, so its domain is not a usable
            // next hop (open issue acknowledged in the paper).
            ctx.stats().count("proxy.provider_unresolvable", 1);
            return;
        };
        let provider = SocketAddr::new(provider, ports::SIP);
        // Rewritten here, before the forward re-sets Max-Forwards, the
        // Contact stays ahead of Max-Forwards on the wire; the forward's
        // ALG then finds it public and leaves it.
        let mut fwd = msg.clone();
        internet_alg(&mut fwd, self.sip.public(), provider);
        ctx.stats().count("proxy.register_provider", 1);
        self.sip.forward(ctx, fwd, provider);
    }

    // ------------------------------------------------------------------
    // Request routing (Fig. 3 steps 5–8)
    // ------------------------------------------------------------------

    fn on_request(&mut self, ctx: &mut Ctx<'_>, mut msg: SipMessage, from: SocketAddr) {
        // A corrupted datagram can parse as a response (or a request whose
        // mandatory parts were mangled); drop it rather than panic.
        let SipMessage::Request { method, uri, .. } = &msg else {
            ctx.stats().count("sip.malformed_dropped", 1);
            return;
        };
        let local_src = from.addr.is_loopback() || self.sip.is_own(ctx, from.addr);
        if *method == Method::Register && local_src {
            self.on_local_register(ctx, msg);
            return;
        }

        // Route without cloning the message: resolve the target first,
        // then move the message along the chosen path.
        enum RouteTo {
            Local(SipUri, SocketAddr),
            Direct(SocketAddr),
            NotFound,
            Slp(Aor),
        }
        let now = ctx.now();
        let route = if let Some(dst) = uri.socket_addr(ports::SIP) {
            // Numeric Request-URIs: either one of our own advertised
            // endpoints, which names the local user by its user part
            // alone, or a direct forward.
            if self.sip.is_own(ctx, dst.addr) {
                let user = uri.user.as_deref().unwrap_or("");
                match self
                    .local
                    .lookup_by_user(user)
                    .and_then(|aor| self.local.resolve(aor, now))
                {
                    Some((contact, dst)) => RouteTo::Local(contact.clone(), dst),
                    None => RouteTo::NotFound,
                }
            } else {
                RouteTo::Direct(dst)
            }
        } else {
            // Domain Request-URI: a local user by its AOR, else SLP.
            let aor = uri.aor();
            match self.local.resolve(&aor, now) {
                Some((contact, dst)) => RouteTo::Local(contact.clone(), dst),
                None => RouteTo::Slp(aor),
            }
        };

        match route {
            RouteTo::Local(contact, dst) => {
                if let SipMessage::Request { uri, .. } = &mut msg {
                    *uri = contact;
                }
                ctx.stats().count("proxy.deliver_local", 1);
                self.sip.forward(ctx, msg, dst);
            }
            RouteTo::Direct(dst) => self.sip.forward(ctx, msg, dst),
            RouteTo::NotFound => self.sip.answer(ctx, &msg, StatusCode::NOT_FOUND, None),
            RouteTo::Slp(aor) => {
                // Step 6: consult MANET SLP for the responsible proxy.
                self.next_xid += 1;
                let xid = self.next_xid;
                ctx.stats().count("proxy.slp_lookup", 1);
                let call_id = msg.call_id().unwrap_or_default();
                let span = ctx.span_timed(SpanCat::Slp, "slp.resolve", call_id);
                self.pending.insert(xid, Parked { msg, span });
                self.slp_request(
                    ctx,
                    SlpMsg::SrvRqst {
                        xid,
                        service_type: service_types::SIP.to_owned(),
                        key: aor.to_string(),
                    },
                );
            }
        }
    }

    fn on_slp_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        xid: u32,
        entries: Vec<siphoc_slp::service::ServiceEntry>,
    ) {
        let Some(Parked { msg, mut span }) = self.pending.remove(&xid) else {
            return;
        };
        // Ignore our own advertisement — local bindings were checked first.
        let own = ctx.addr();
        let target = entries.iter().find(|e| e.origin != own).map(|e| e.contact);
        if let Some(dst) = target {
            // Step 7: forward to the responsible remote proxy.
            span.close(ctx, true);
            ctx.stats().count("proxy.fwd_to_remote_proxy", 1);
            self.sip.forward(ctx, msg, dst);
            return;
        }
        // MANET miss: try the Internet (§3.2).
        if self.sip.public().is_some() {
            if let SipMessage::Request { uri, .. } = &msg {
                if let Some(provider) = self.cfg.dns.resolve(&uri.host) {
                    span.close(ctx, true);
                    ctx.stats().count("proxy.fwd_to_provider", 1);
                    self.sip
                        .forward(ctx, msg, SocketAddr::new(provider, ports::SIP));
                    return;
                }
                ctx.stats().count("proxy.provider_unresolvable", 1);
            }
        }
        span.close(ctx, false);
        ctx.stats().count("proxy.lookup_failed", 1);
        self.sip.answer(ctx, &msg, StatusCode::NOT_FOUND, None);
    }

    /// Refreshes the SLP advertisements for all live local bindings.
    fn readvertise(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let adverts: Vec<String> = self
            .local
            .iter()
            .filter(|(aor, _)| self.local.lookup(aor, now).is_some())
            .map(|(aor, _)| aor.to_string())
            .collect();
        for key in adverts {
            self.advertise(ctx, key, false);
        }
    }
}

impl Process for SiphocProxy {
    fn name(&self) -> &'static str {
        "siphoc-proxy"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::SIPHOC_PROXY);
        ctx.bind(PROXY_SLP_PORT);
        ctx.take_local(&[LocalKind::InternetUp, LocalKind::InternetDown]);
        // Lookups parked before a crash wait for replies that died with it.
        for (_, mut parked) in std::mem::take(&mut self.pending) {
            parked.span.close(ctx, false);
        }
        ctx.set_timer(READVERT_INTERVAL, TAG_READVERT);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        if dgram.dst.port == PROXY_SLP_PORT {
            match SlpMsg::parse(&dgram.payload) {
                Ok(SlpMsg::SrvRply { xid, entries }) => self.on_slp_reply(ctx, xid, entries),
                Ok(SlpMsg::SrvAck { .. }) => {}
                _ => ctx
                    .stats()
                    .count("proxy.slp_unexpected", dgram.payload.len()),
            }
            return;
        }
        let Ok(msg) = SipMessage::parse(&String::from_utf8_lossy(&dgram.payload)) else {
            ctx.stats().count("proxy.malformed", dgram.payload.len());
            return;
        };
        if msg.is_request() {
            self.on_request(ctx, msg, dgram.src);
        } else {
            self.sip.relay(ctx, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TAG_READVERT {
            let now = ctx.now();
            self.local.sweep(now);
            self.readvertise(ctx);
            ctx.set_timer(READVERT_INTERVAL, TAG_READVERT);
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        match ev {
            LocalEvent::InternetUp { public } => {
                self.sip.set_public(Some(*public));
                ctx.stats().count("proxy.internet_up", 1);
                // Register every cached local user at its provider.
                let cached: Vec<SipMessage> = self.register_cache.values().cloned().collect();
                for msg in cached {
                    self.forward_register_to_provider(ctx, &msg);
                }
            }
            LocalEvent::InternetDown => {
                self.sip.set_public(None);
                ctx.stats().count("proxy.internet_down", 1);
            }
            _ => {}
        }
    }

    /// `sip.bindings`: the contacts the local registrar holds now, an
    /// expired one until the next sweep removes it.
    fn gauges(&self, report: &mut dyn FnMut(&'static str, f64)) {
        report("sip.bindings", self.local.bindings_len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_proxy_has_no_bindings_or_internet() {
        let p = SiphocProxy::new(SiphocProxyConfig::default());
        assert!(p.local_bindings().is_empty());
        assert!(p.sip.public().is_none());
    }
}
