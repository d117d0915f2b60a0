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
use siphoc_simnet::obs::{SpanCat, SpanId};
use siphoc_simnet::process::{Ctx, LocalEvent, LocalKind, Process};
use siphoc_simnet::time::{SimDuration, SimTime};

use siphoc_internet::dns::DnsDirectory;
use siphoc_sip::auth::{self, RegisterAuth, RegisterAuthOutcome};
use siphoc_sip::msg::{Method, SipMessage, StatusCode};
use siphoc_sip::proxy::{
    prepare_forward_request, prepare_forward_response, response_target, stateless_response,
    ForwardDecision,
};
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
    span: SpanId,
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
    internet: Option<Addr>,
    /// REGISTER challenge/pin state, lazily created on the first local
    /// REGISTER when `cfg.auth` is on (the nonce salt needs the node
    /// address, unavailable at construction).
    reg_auth: Option<RegisterAuth>,
    /// Reusable render buffer: each transmit serializes here and copies
    /// the bytes once, into the datagram payload.
    scratch: String,
}

impl std::fmt::Debug for SiphocProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiphocProxy")
            .field("local_bindings", &self.local.len())
            .field("pending_lookups", &self.pending.len())
            .field("internet", &self.internet)
            .finish_non_exhaustive()
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
            internet: None,
            reg_auth: None,
            scratch: String::new(),
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

    fn is_local_source(&self, ctx: &Ctx<'_>, src: SocketAddr) -> bool {
        src.addr.is_loopback() || src.addr == ctx.addr() || Some(src.addr) == self.internet
    }

    /// Transmits a SIP message, choosing the correct source address: the
    /// public lease for Internet-bound traffic, the MANET address
    /// otherwise.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, msg: &SipMessage, dst: SocketAddr) {
        let src_addr = if dst.addr.is_public() {
            self.internet.unwrap_or_else(|| ctx.addr())
        } else {
            ctx.addr()
        };
        msg.render_into(&mut self.scratch);
        ctx.stats().count("proxy.tx", self.scratch.len());
        let src = SocketAddr::new(src_addr, ports::SIPHOC_PROXY);
        ctx.send(Datagram::new(src, dst, self.scratch.as_bytes()));
    }

    /// The Via sent-by the proxy stamps when forwarding toward `dst`.
    fn sent_by_for(&self, ctx: &Ctx<'_>, dst: SocketAddr) -> SocketAddr {
        let addr = if dst.addr.is_public() {
            self.internet.unwrap_or_else(|| ctx.addr())
        } else {
            ctx.addr()
        };
        SocketAddr::new(addr, ports::SIPHOC_PROXY)
    }

    /// The ALG step for messages leaving toward the Internet: rewrites
    /// private SDP connection addresses *and* private Contact URIs to the
    /// public lease. A real layer-2 tunnel deployment gets the former for
    /// free from the DHCP-assigned tunnel interface address; the Contact
    /// rewrite points in-dialog requests from the Internet back at this
    /// proxy, which re-targets them to the local user.
    fn apply_internet_alg(&self, ctx: &Ctx<'_>, msg: &mut SipMessage, dst: SocketAddr) {
        if !dst.addr.is_public() {
            return;
        }
        let Some(public) = self.internet else {
            return;
        };
        if let Some(contact) = msg.contact() {
            let private = contact
                .uri
                .socket_addr(ports::SIP)
                .map(|sa| !sa.addr.is_public())
                .unwrap_or(false);
            if private {
                let user = contact.uri.user.unwrap_or_default();
                let rewritten =
                    SipUri::from_socket(Some(&user), SocketAddr::new(public, ports::SIPHOC_PROXY));
                msg.headers_mut().set("Contact", format!("<{rewritten}>"));
            }
        }
        let _ = ctx;
        let is_sdp = msg
            .headers()
            .get("Content-Type")
            .map(|ct| ct.eq_ignore_ascii_case("application/sdp"))
            .unwrap_or(false);
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

    fn forward(&mut self, ctx: &mut Ctx<'_>, msg: SipMessage, dst: SocketAddr) {
        let sent_by = self.sent_by_for(ctx, dst);
        match prepare_forward_request(msg, sent_by) {
            ForwardDecision::Forward(mut fwd) => {
                self.apply_internet_alg(ctx, &mut fwd, dst);
                self.transmit(ctx, &fwd, dst);
            }
            ForwardDecision::Reject(_) => {
                ctx.stats().count("proxy.max_forwards_exhausted", 1);
            }
        }
    }

    fn respond(&mut self, ctx: &mut Ctx<'_>, req: &SipMessage, code: StatusCode) {
        if req.method() == Some(Method::Ack) {
            return;
        }
        let resp = stateless_response(req, code, ctx);
        if let Some(target) = response_target(req) {
            self.transmit(ctx, &resp, target);
        }
    }

    fn slp_request(&mut self, ctx: &mut Ctx<'_>, msg: SlpMsg) {
        ctx.send_local(ports::SLP, PROXY_SLP_PORT, msg.to_wire());
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
                    let mut resp = stateless_response(&msg, StatusCode::UNAUTHORIZED, ctx);
                    resp.headers_mut()
                        .push(auth::WWW_AUTHENTICATE, auth::Challenge { nonce });
                    if let Some(target) = response_target(&msg) {
                        self.transmit(ctx, &resp, target);
                    }
                    return;
                }
                RegisterAuthOutcome::Reject => {
                    ctx.stats().count("proxy.auth_reject", 1);
                    self.respond(ctx, &msg, StatusCode::FORBIDDEN);
                    return;
                }
            }
        }
        let now = ctx.now();
        let resp = self.local.handle_register(&msg, now);
        let accepted = resp.status() == Some(StatusCode::OK);
        if let Some(target) = response_target(&msg) {
            self.transmit(ctx, &resp, target);
        }
        if !accepted {
            return;
        }
        ctx.stats().count("proxy.register_local", 1);
        let Some(to) = msg.to_header() else { return };
        let aor = to.uri.aor();
        let expires = msg
            .contact()
            .and_then(|c| c.expires_param())
            .or_else(|| msg.expires());

        // Step 2: advertise (or withdraw) through MANET SLP — the proxy's
        // own endpoint is the responsible contact for the user (Fig. 4).
        self.next_xid += 1;
        let slp_msg = if expires == Some(0) {
            self.register_cache.remove(&aor.to_string());
            SlpMsg::SrvDeReg {
                xid: self.next_xid,
                service_type: service_types::SIP.to_owned(),
                key: aor.to_string(),
            }
        } else {
            self.register_cache.insert(aor.to_string(), msg.clone());
            SlpMsg::SrvReg {
                xid: self.next_xid,
                service_type: service_types::SIP.to_owned(),
                key: aor.to_string(),
                contact: SocketAddr::new(ctx.addr(), ports::SIPHOC_PROXY),
                lifetime_secs: SLP_LIFETIME_SECS,
            }
        };
        ctx.stats().count("proxy.slp_advertise", 1);
        self.slp_request(ctx, slp_msg);

        // §3.2: with Internet connectivity, also register at the real
        // provider under the public lease.
        if self.internet.is_some() && expires != Some(0) {
            self.forward_register_to_provider(ctx, &msg);
        }
    }

    fn forward_register_to_provider(&mut self, ctx: &mut Ctx<'_>, msg: &SipMessage) {
        let Some(public) = self.internet else { return };
        let Some(to) = msg.to_header() else { return };
        let domain = to.uri.aor().domain;
        let Some(provider) = self.cfg.dns.resolve(&domain) else {
            // The polyphone.ethz.ch case: the provider needs an outbound
            // proxy we have overwritten, so its domain is not a usable
            // next hop (open issue acknowledged in the paper).
            ctx.stats().count("proxy.provider_unresolvable", 1);
            return;
        };
        let mut fwd = msg.clone();
        let user = to.uri.aor().user;
        let contact_uri =
            SipUri::from_socket(Some(&user), SocketAddr::new(public, ports::SIPHOC_PROXY));
        fwd.headers_mut().set("Contact", format!("<{contact_uri}>"));
        ctx.stats().count("proxy.register_provider", 1);
        self.forward(ctx, fwd, SocketAddr::new(provider, ports::SIP));
    }

    // ------------------------------------------------------------------
    // Request routing (Fig. 3 steps 5–8)
    // ------------------------------------------------------------------

    /// Resolves the live local binding for `user`: the rewritten
    /// Request-URI and the socket to forward to. Resolving before moving
    /// the message keeps the forwarding path clone-free.
    fn local_target(&self, user: &str, now: SimTime) -> Option<(SipUri, SocketAddr)> {
        let binding = self
            .local
            .lookup_by_user(user)
            .and_then(|aor| self.local.lookup(aor, now))?;
        let dst = binding.contact.socket_addr(ports::SIP)?;
        Some((binding.contact.clone(), dst))
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, mut msg: SipMessage, from: SocketAddr) {
        let local_src = self.is_local_source(ctx, from);
        // A corrupted datagram can parse as a response (or a request whose
        // mandatory parts were mangled); drop it rather than panic.
        let method = match &msg {
            SipMessage::Request { method, .. } => *method,
            SipMessage::Response { .. } => {
                ctx.stats().count("sip.malformed_dropped", 1);
                return;
            }
        };

        if method == Method::Register && local_src {
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
        let route = {
            let SipMessage::Request { uri, .. } = &msg else {
                unreachable!("responses rejected above")
            };
            // Numeric Request-URIs: either one of our own advertised
            // endpoints (deliver to the local user named in the URI) or a
            // direct forward.
            if let Some(dst) = uri.socket_addr(ports::SIP) {
                let ours = dst.addr == ctx.addr() || Some(dst.addr) == self.internet;
                if ours {
                    let user = uri.user.as_deref().unwrap_or("");
                    match self.local_target(user, now) {
                        Some((contact, dst)) => RouteTo::Local(contact, dst),
                        None => RouteTo::NotFound,
                    }
                } else {
                    RouteTo::Direct(dst)
                }
            } else {
                // Domain Request-URI.
                let aor = uri.aor();
                if self.local.lookup(&aor, now).is_some() {
                    match self.local_target(&aor.user, now) {
                        Some((contact, dst)) => RouteTo::Local(contact, dst),
                        None => RouteTo::NotFound,
                    }
                } else {
                    RouteTo::Slp(aor)
                }
            }
        };

        match route {
            RouteTo::Local(contact, dst) => {
                if let SipMessage::Request { uri, .. } = &mut msg {
                    *uri = contact;
                }
                ctx.stats().count("proxy.deliver_local", 1);
                self.forward(ctx, msg, dst);
            }
            RouteTo::Direct(dst) => self.forward(ctx, msg, dst),
            RouteTo::NotFound => self.respond(ctx, &msg, StatusCode::NOT_FOUND),
            RouteTo::Slp(aor) => {
                // Step 6: consult MANET SLP for the responsible proxy.
                self.next_xid += 1;
                let xid = self.next_xid;
                ctx.stats().count("proxy.slp_lookup", 1);
                let span = ctx.span_enter(SpanCat::Slp, "slp.resolve");
                if ctx.obs().tracing() {
                    if let Some(call_id) = msg.call_id() {
                        let corr = call_id.to_owned();
                        ctx.obs().span_corr(span, &corr);
                    }
                }
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
        let Some(parked) = self.pending.remove(&xid) else {
            return;
        };
        let msg = parked.msg;
        // Ignore our own advertisement — local bindings were checked first.
        let own = ctx.addr();
        let target = entries.iter().find(|e| e.origin != own).map(|e| e.contact);
        if let Some(dst) = target {
            // Step 7: forward to the responsible remote proxy.
            ctx.span_exit(parked.span, true);
            ctx.stats().count("proxy.fwd_to_remote_proxy", 1);
            self.forward(ctx, msg, dst);
            return;
        }
        // MANET miss: try the Internet (§3.2).
        if self.internet.is_some() {
            if let SipMessage::Request { uri, .. } = &msg {
                if let Some(provider) = self.cfg.dns.resolve(&uri.host) {
                    ctx.span_exit(parked.span, true);
                    ctx.stats().count("proxy.fwd_to_provider", 1);
                    self.forward(ctx, msg, SocketAddr::new(provider, ports::SIP));
                    return;
                }
                ctx.stats().count("proxy.provider_unresolvable", 1);
            }
        }
        ctx.span_exit(parked.span, false);
        ctx.stats().count("proxy.lookup_failed", 1);
        self.respond(ctx, &msg, StatusCode::NOT_FOUND);
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, msg: SipMessage) {
        let ours = msg
            .top_via()
            .map(|v| v.sent_by.addr == ctx.addr() || Some(v.sent_by.addr) == self.internet)
            .unwrap_or(false);
        if !ours {
            ctx.stats().count("proxy.misrouted_response", 1);
            return;
        }
        if let Some((mut fwd, target)) = prepare_forward_response(msg) {
            self.apply_internet_alg(ctx, &mut fwd, target);
            self.transmit(ctx, &fwd, target);
        }
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
            self.next_xid += 1;
            let m = SlpMsg::SrvReg {
                xid: self.next_xid,
                service_type: service_types::SIP.to_owned(),
                key,
                contact: SocketAddr::new(ctx.addr(), ports::SIPHOC_PROXY),
                lifetime_secs: SLP_LIFETIME_SECS,
            };
            self.slp_request(ctx, m);
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
        for (_, parked) in std::mem::take(&mut self.pending) {
            ctx.span_exit(parked.span, false);
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
            self.on_response(ctx, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TAG_READVERT {
            let now = ctx.now();
            self.local.sweep(now);
            ctx.obs()
                .gauge_set("sip.bindings", self.local.bindings_len() as f64);
            self.readvertise(ctx);
            ctx.set_timer(READVERT_INTERVAL, TAG_READVERT);
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        match ev {
            LocalEvent::InternetUp { public } => {
                self.internet = Some(*public);
                ctx.stats().count("proxy.internet_up", 1);
                // Register every cached local user at its provider.
                let cached: Vec<SipMessage> = self.register_cache.values().cloned().collect();
                for msg in cached {
                    self.forward_register_to_provider(ctx, &msg);
                }
            }
            LocalEvent::InternetDown => {
                self.internet = None;
                ctx.stats().count("proxy.internet_down", 1);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_proxy_has_no_bindings_or_internet() {
        let p = SiphocProxy::new(SiphocProxyConfig::default());
        assert!(p.local_bindings().is_empty());
        assert!(p.internet.is_none());
    }
}
