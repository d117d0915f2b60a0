//! A scriptable SIP user agent — the simulator's stand-in for the paper's
//! out-of-the-box VoIP applications (Kphone, Twinkle, Minisip).
//!
//! The user agent speaks only standard SIP through its configured
//! **outbound proxy** — paper Fig. 2: "the only difference to the
//! traditional configuration for use in the Internet is that an outbound
//! proxy is specified", pointing at the SIPHoc proxy on `localhost`.
//! Everything MANET-specific happens behind that proxy; the UA is oblivious
//! to the network type, which is precisely the paper's transparency claim.
//!
//! Behavior: registers at start (and refreshes), can place calls from a
//! pre-programmed script, auto-answers incoming calls after a ring delay,
//! exchanges SDP, signals the media layer via node-local events, and hangs
//! up after the scripted call duration. All externally observable steps are
//! appended to a shared [`UaLog`].

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use siphoc_simnet::fasthash::FastMap;
use siphoc_simnet::net::{Addr, Datagram, SocketAddr};
use siphoc_simnet::obs::{SpanCat, SpanId};
use siphoc_simnet::process::{Ctx, LocalEvent, Process};
use siphoc_simnet::time::{SimDuration, SimTime};

use std::sync::Arc;

use siphoc_simnet::ident::KeyPair;

use crate::auth;
use crate::headers::{CSeq, NameAddr};
use crate::msg::{Method, SipMessage, StatusCode};
use crate::sdp::Sdp;
use crate::txn::{TransactionLayer, TxnEvent, TXN_LIFETIME};
use crate::uri::{Aor, SipUri};

/// Node-local event kind emitted when media should start flowing. The
/// payload is `call_id|local_rtp_port|remote_addr:port` in UTF-8.
pub const MEDIA_START_EVENT: &str = "sip.media_start";
/// Node-local event kind emitted when media should stop. Payload:
/// `call_id`.
pub const MEDIA_STOP_EVENT: &str = "sip.media_stop";

/// Mirror of `siphoc_core::connection::INTERNET_UP_EVENT` (the crate
/// dependency points the other way, so the constant cannot be imported).
/// The Connection Provider emits it with the leased public address as
/// payload; the UA watches it so a mid-call gateway handoff (public
/// address change) triggers in-dialog re-INVITEs that re-target media.
const INTERNET_UP_EVENT: &str = "siphoc.internet_up";

/// User agent configuration (the paper Fig. 2 dialog, as data).
#[derive(Debug, Clone)]
pub struct UaConfig {
    /// The user's address-of-record, e.g. `alice@voicehoc.ch`.
    pub aor: Aor,
    /// Where all requests are sent: the SIPHoc proxy on this node
    /// (`127.0.0.1:5060`) in MANET deployments.
    pub outbound_proxy: SocketAddr,
    /// Local SIP port of this UA.
    pub local_port: u16,
    /// Local RTP port offered in SDP.
    pub rtp_port: u16,
    /// Registration lifetime requested.
    pub register_expires: SimDuration,
    /// Whether to register at startup (true for all paper scenarios).
    pub register: bool,
    /// Auto-answer incoming calls.
    pub auto_answer: bool,
    /// Ring time before auto-answering.
    pub answer_delay: SimDuration,
    /// Scripted actions.
    pub script: Vec<ScriptedAction>,
    /// Self-certifying identity used to answer registrar REGISTER
    /// challenges (`None` = legacy unauthenticated registration; the UA
    /// then treats a 401 as a registration failure).
    pub identity: Option<KeyPair>,
}

impl UaConfig {
    /// A standard configuration for `user@domain` behind the local proxy.
    pub fn new(aor: Aor, outbound_proxy: SocketAddr) -> UaConfig {
        UaConfig {
            aor,
            outbound_proxy,
            local_port: 5070,
            rtp_port: 8000,
            register_expires: SimDuration::from_secs(3600),
            register: true,
            auto_answer: true,
            answer_delay: SimDuration::from_millis(200),
            script: Vec::new(),
            identity: None,
        }
    }

    /// Equips the UA with a signing identity for challenge-based
    /// REGISTER authentication.
    pub fn with_identity(mut self, kp: KeyPair) -> UaConfig {
        self.identity = Some(kp);
        self
    }

    /// Adds a scripted call.
    pub fn call_at(mut self, at: SimTime, to: Aor, duration: SimDuration) -> UaConfig {
        self.script.push(ScriptedAction {
            at,
            kind: ActionKind::Call { to, duration },
        });
        self
    }
}

/// A pre-programmed user action.
#[derive(Debug, Clone)]
pub struct ScriptedAction {
    /// When to perform it.
    pub at: SimTime,
    /// What to do.
    pub kind: ActionKind,
}

/// The kinds of scripted actions.
#[derive(Debug, Clone)]
pub enum ActionKind {
    /// Place a call and hang up after `duration` of established media.
    Call {
        /// Callee.
        to: Aor,
        /// Established-call duration before the caller sends BYE.
        duration: SimDuration,
    },
    /// Terminate every active call now.
    HangupAll,
    /// Send an in-dialog re-INVITE on every confirmed dialog now (the
    /// load harness's gateway-handoff storm shape).
    ReinviteAll,
    /// De-register (Expires: 0).
    Unregister,
}

/// Externally observable UA milestones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallEvent {
    /// REGISTER accepted by the registrar/proxy.
    Registered,
    /// REGISTER failed (final error or transaction timeout).
    RegisterFailed,
    /// INVITE sent.
    OutgoingCall {
        /// Call-ID of the new dialog.
        call_id: String,
        /// Callee AOR.
        to: Aor,
    },
    /// 180 received (caller side).
    Ringing {
        /// Call-ID.
        call_id: String,
    },
    /// Call established (caller: 200 received and ACKed; callee: 200 ACKed
    /// by peer).
    Established {
        /// Call-ID.
        call_id: String,
        /// Where the peer receives RTP.
        remote_rtp: SocketAddr,
    },
    /// INVITE received.
    IncomingCall {
        /// Call-ID.
        call_id: String,
        /// Caller AOR.
        from: Aor,
    },
    /// Dialog ended.
    Terminated {
        /// Call-ID.
        call_id: String,
        /// Whether the peer initiated the BYE.
        by_remote: bool,
    },
    /// Call setup failed.
    Failed {
        /// Call-ID.
        call_id: String,
        /// Final status code, if one arrived (None = timeout).
        code: Option<u16>,
    },
}

/// Shared, timestamped log of UA events.
#[derive(Debug, Default)]
pub struct UaLog {
    events: Vec<(SimTime, CallEvent)>,
}

impl UaLog {
    /// All events in order.
    pub fn events(&self) -> &[(SimTime, CallEvent)] {
        &self.events
    }

    /// Times of the first event matching the predicate.
    pub fn first_time(&self, mut pred: impl FnMut(&CallEvent) -> bool) -> Option<SimTime> {
        self.events.iter().find(|(_, e)| pred(e)).map(|(t, _)| *t)
    }

    /// Whether any event matches.
    pub fn any(&self, mut pred: impl FnMut(&CallEvent) -> bool) -> bool {
        self.events.iter().any(|(_, e)| pred(e))
    }

    /// Count of matching events.
    pub fn count(&self, mut pred: impl FnMut(&CallEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

/// Shared handle to a UA's event log.
pub type UaLogHandle = Rc<RefCell<UaLog>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DialogState {
    Early,
    Confirmed,
    Terminated,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Caller,
    Callee,
}

struct Dialog {
    idx: u64,
    call_id: String,
    local_tag: String,
    remote_tag: Option<String>,
    /// Rendered `From` value for requests this side sends in the dialog
    /// (`<sip:user@domain>;tag=local` — fixed for the dialog's lifetime).
    hdr_from: String,
    /// Rendered `To` value for requests this side sends; the remote tag
    /// is appended as soon as it is learned.
    hdr_to: String,
    remote_aor: Aor,
    remote_target: Option<SipUri>,
    local_seq: u32,
    state: DialogState,
    role: Role,
    remote_rtp: Option<SocketAddr>,
    invite_branch: Option<Arc<str>>,
    invite_key: Option<Arc<str>>,
    /// The peer's INVITE, held while the dialog is `Early` — the only
    /// state that still builds responses (200, 487) from it.
    pending_invite: Option<SipMessage>,
    /// CSeq of the peer's latest INVITE: tells a retransmit from a
    /// re-INVITE for as long as the dialog exists.
    invite_cseq: Option<CSeq>,
    /// Rendered Contact value and SDP body of our last 2xx answer,
    /// replayed on a fresh transaction when a rebranched INVITE
    /// retransmit arrives. Only these parts of the answer survive
    /// verbatim — the replay is rebuilt against the new Via stack — so
    /// storing two strings beats cloning the whole response per call.
    /// Dropped on termination: a terminated dialog answers nothing.
    answer_resp: Option<(String, String)>,
    duration: Option<SimDuration>,
    cancelled: bool,
    /// Open observability span covering call setup (INVITE->ACK).
    span: SpanId,
    /// When setup started, for the `sip.call_setup_us` histogram.
    setup_started_us: u64,
    /// CSeq of an in-flight outgoing re-INVITE (gateway handoff re-homing);
    /// `None` when no re-INVITE is outstanding.
    reinvite_cseq: Option<u32>,
}

impl Dialog {
    /// Ends the dialog: drops what only a live dialog reads and queues it
    /// on `terminated` for removal once the linger has lapsed. Idempotent
    /// — duplicated finals and BYEs reach dialogs that are already over.
    fn terminate(&mut self, now: SimTime, terminated: &mut VecDeque<(SimTime, u64)>) {
        if self.state == DialogState::Terminated {
            return;
        }
        self.state = DialogState::Terminated;
        self.pending_invite = None;
        self.answer_resp = None;
        terminated.push_back((now, self.idx));
    }
}

const TAG_REGISTER: u64 = 1;
const TAG_SCRIPT: u64 = 2;
const TAG_ANSWER: u64 = 3;
const TAG_BYE: u64 = 4;
const TXN_TOKEN_BASE: u64 = 0x5150_0000_0000_0000;

fn tok(tag: u64, idx: u64) -> u64 {
    tag | (idx << 8)
}

/// Renders an AOR as a bare name-addr value (`<sip:user@domain>`),
/// byte-identical to `NameAddr::new(aor.to_uri()).to_string()` but
/// without the `fmt::Display` round-trip.
fn name_addr_value(aor: &Aor) -> String {
    let mut s = String::with_capacity(aor.user.len() + aor.domain.len() + 7);
    s.push_str("<sip:");
    s.push_str(&aor.user);
    s.push('@');
    s.push_str(&aor.domain);
    s.push('>');
    s
}

/// Appends `;tag=` to a rendered name-addr value.
fn tagged(base: &str, tag: &str) -> String {
    let mut s = String::with_capacity(base.len() + 5 + tag.len());
    s.push_str(base);
    s.push_str(";tag=");
    s.push_str(tag);
    s
}

/// Stamps a response's To header with this side's dialog tag. To is
/// inherited verbatim from the request, so when it carries no tag yet the
/// value is extended in place — the same bytes `NameAddr` would render —
/// and only a pre-tagged To pays for the parse-and-replace path.
fn set_to_tag(resp: &mut SipMessage, tag: &str) {
    let Some(cur) = resp.headers().get("To") else {
        return;
    };
    if !cur.contains(";tag=") {
        let v = tagged(cur, tag);
        resp.headers_mut().set_owned("To", v);
    } else if let Some(mut to) = resp.to_header() {
        to.set_tag(tag);
        resp.headers_mut().set("To", to);
    }
}

/// Pre-rendered strings that are fixed for a given local address: the
/// From/To name-addr base, the Contact value, and the SDP body split
/// around its session id. Rebuilt if a gateway handoff renumbers the
/// node; every call then splices bytes instead of re-running `Display`.
#[derive(Default)]
struct RenderCache {
    addr: Option<Addr>,
    from_base: String,
    contact: String,
    sdp_head: String,
    sdp_tail: String,
}

/// The user agent process.
pub struct UserAgent {
    cfg: UaConfig,
    txn: TransactionLayer,
    log: UaLogHandle,
    /// Boxed: a B-tree leaf reserves eleven entries, filled or not, so
    /// inline dialogs cost their size again in slack.
    dialogs: BTreeMap<String, Box<Dialog>>,
    render: RenderCache,
    /// Dialog index → call-id. Timer tokens carry the dialog index;
    /// this side index resolves them in O(1) instead of a scan.
    dialog_by_idx: FastMap<u64, String>,
    /// Terminated dialogs in termination order, with when they ended.
    /// Each stays 64×T1 — as long as the transactions that can still
    /// deliver a retransmission to it — and is then removed by
    /// [`UserAgent::settle`].
    terminated: VecDeque<(SimTime, u64)>,
    /// `(transactions, dialogs)` last added into the node's
    /// `sip.txn_active` / `sip.dialogs_live` gauges; UAs sharing a node
    /// each contribute their delta, so the gauges read the node total.
    reported: (usize, usize),
    next_dialog: u64,
    register_branch: Option<Arc<str>>,
    register_cseq: u32,
    registered: bool,
    register_span: SpanId,
    /// Nonce from the registrar's last 401 challenge; included (signed)
    /// in every subsequent REGISTER until the registrar rotates it.
    auth_nonce: Option<u64>,
    /// `true` while a challenged REGISTER retry is in flight — a second
    /// 401 then fails registration instead of looping.
    auth_inflight: bool,
    /// Expires value of the last REGISTER, replayed on the auth retry.
    last_expires: u32,
    /// Last public address announced via `INTERNET_UP_EVENT`; a *change*
    /// (gateway handoff renumbered the node) re-INVITEs Internet calls.
    last_public: Option<String>,
}

impl std::fmt::Debug for UserAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserAgent")
            .field("aor", &self.cfg.aor.to_string())
            .field("dialogs", &self.dialogs.len())
            .finish_non_exhaustive()
    }
}

impl UserAgent {
    /// Creates a user agent and the log handle to observe it.
    pub fn new(cfg: UaConfig) -> (UserAgent, UaLogHandle) {
        let log: UaLogHandle = Rc::new(RefCell::new(UaLog::default()));
        let txn = TransactionLayer::new(cfg.local_port, TXN_TOKEN_BASE);
        (
            UserAgent {
                cfg,
                txn,
                log: log.clone(),
                dialogs: BTreeMap::new(),
                render: RenderCache::default(),
                dialog_by_idx: FastMap::default(),
                terminated: VecDeque::new(),
                reported: (0, 0),
                next_dialog: 0,
                register_branch: None,
                register_cseq: 0,
                registered: false,
                register_span: SpanId::NONE,
                auth_nonce: None,
                auth_inflight: false,
                last_expires: 0,
                last_public: None,
            },
            log,
        )
    }

    fn emit_log(&self, ctx: &Ctx<'_>, ev: CallEvent) {
        self.log.borrow_mut().events.push((ctx.now(), ev));
    }

    fn local_contact(&self, ctx: &Ctx<'_>) -> SipUri {
        SipUri::from_socket(
            Some(&self.cfg.aor.user),
            SocketAddr::new(ctx.addr(), self.cfg.local_port),
        )
    }

    fn new_tag(&mut self, ctx: &mut Ctx<'_>) -> String {
        format!("{:08x}", ctx.rng().next_u64() as u32)
    }

    fn base_request(&mut self, ctx: &mut Ctx<'_>, method: Method, uri: SipUri) -> SipMessage {
        let mut m = SipMessage::request(method, uri);
        m.headers_mut().push("Max-Forwards", 70);
        m.headers_mut().push("User-Agent", "siphoc-ua/0.1");
        let _ = ctx;
        m
    }

    /// The pre-rendered string cache for the node's current address,
    /// rebuilding it after a handoff renumbered the node.
    fn render_cache(&mut self, ctx: &Ctx<'_>) -> &RenderCache {
        let addr = ctx.addr();
        if self.render.addr != Some(addr) {
            let aor = &self.cfg.aor;
            self.render.addr = Some(addr);
            self.render.from_base = name_addr_value(aor);
            self.render.contact = format!("<sip:{}@{}:{}>", aor.user, addr, self.cfg.local_port);
            self.render.sdp_head = format!("v=0\r\no={} ", aor.user);
            self.render.sdp_tail = format!(
                " IN IP4 {addr}\r\ns=-\r\nc=IN IP4 {addr}\r\nt=0 0\r\nm=audio {} RTP/AVP 0\r\n",
                self.cfg.rtp_port
            );
        }
        &self.render
    }

    /// Renders an SDP body, splicing the cached template around the
    /// session id when `sdp` is this UA's canonical single-PCMU-stream
    /// description (the overwhelmingly common case), and falling back to
    /// the full serializer otherwise.
    fn sdp_body(&mut self, ctx: &Ctx<'_>, sdp: &Sdp) -> String {
        let canonical = sdp.origin_user == self.cfg.aor.user && sdp.audio_port == self.cfg.rtp_port;
        let cache = self.render_cache(ctx);
        if canonical && Some(sdp.addr) == cache.addr && sdp.payload_types == [0] {
            use std::fmt::Write as _;
            let mut b = String::with_capacity(cache.sdp_head.len() + cache.sdp_tail.len() + 42);
            b.push_str(&cache.sdp_head);
            let _ = write!(b, "{0} {0}", sdp.session_id);
            b.push_str(&cache.sdp_tail);
            b
        } else {
            sdp.to_string()
        }
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    fn send_register(&mut self, ctx: &mut Ctx<'_>, expires: u32) {
        let domain_uri = SipUri::host_only(&self.cfg.aor.domain, None);
        let mut m = self.base_request(ctx, Method::Register, domain_uri);
        self.register_cseq += 1;
        let tag = self.new_tag(ctx);
        let id = NameAddr::new(self.cfg.aor.to_uri());
        m.headers_mut().push("From", id.clone().with_tag(&tag));
        m.headers_mut().push("To", &id);
        m.headers_mut().push(
            "Call-ID",
            format!("reg-{}-{}", self.cfg.aor.user, self.cfg.local_port),
        );
        m.headers_mut()
            .push("CSeq", CSeq::new(self.register_cseq, "REGISTER"));
        let contact_value = NameAddr::new(self.local_contact(ctx)).to_string();
        m.headers_mut().push_owned("Contact", contact_value.clone());
        m.headers_mut().push("Expires", expires);
        self.last_expires = expires;
        // Answer the registrar's outstanding challenge, if any. The
        // credential signs (nonce, aor, contact) so a snooped value
        // cannot re-bind the AOR elsewhere.
        if let (Some(kp), Some(nonce)) = (&self.cfg.identity, self.auth_nonce) {
            let aor_s = self.cfg.aor.to_string();
            let cred = auth::Credential::answer(kp, nonce, &aor_s, &contact_value);
            m.headers_mut().push(auth::AUTHORIZATION, cred);
        }
        ctx.span_exit(self.register_span, true);
        self.register_span = ctx.span_enter(SpanCat::Sip, "sip.register");
        ctx.obs().span_corr(
            self.register_span,
            &format!("reg-{}-{}", self.cfg.aor.user, self.cfg.local_port),
        );
        let branch = self.txn.send_request(ctx, m, self.cfg.outbound_proxy);
        self.register_branch = Some(branch);
    }

    // ------------------------------------------------------------------
    // Outgoing calls
    // ------------------------------------------------------------------

    fn place_call(&mut self, ctx: &mut Ctx<'_>, to: Aor, duration: SimDuration) {
        let idx = self.next_dialog;
        self.next_dialog += 1;
        let call_id = format!(
            "call-{}-{}-{:x}",
            self.cfg.aor.user,
            idx,
            ctx.rng().next_u64()
        );
        let local_tag = self.new_tag(ctx);

        let hdr_from = tagged(&self.render_cache(ctx).from_base, &local_tag);
        let hdr_to = name_addr_value(&to);
        let contact = self.render_cache(ctx).contact.clone();
        let mut m = self.base_request(ctx, Method::Invite, to.to_uri());
        m.headers_mut().push_owned("From", hdr_from.clone());
        m.headers_mut().push_owned("To", hdr_to.clone());
        m.headers_mut().push_owned("Call-ID", call_id.clone());
        m.headers_mut().push("CSeq", CSeq::new(1, "INVITE"));
        m.headers_mut().push_owned("Contact", contact);
        let sdp = Sdp::audio(
            &self.cfg.aor.user,
            ctx.rng().next_u64() >> 1,
            SocketAddr::new(ctx.addr(), self.cfg.rtp_port),
        );
        let body = self.sdp_body(ctx, &sdp);
        m.set_body_string(body, Some("application/sdp"));

        let span = ctx.span_enter(SpanCat::Sip, "sip.invite");
        ctx.obs().span_corr(span, &call_id);
        ctx.obs().counter_add("sip.calls_placed", 1);
        let setup_started_us = ctx.now_us();
        let branch = self.txn.send_request(ctx, m, self.cfg.outbound_proxy);
        let dialog = Dialog {
            idx,
            call_id: call_id.clone(),
            local_tag,
            remote_tag: None,
            hdr_from,
            hdr_to,
            remote_aor: to.clone(),
            remote_target: None,
            local_seq: 1,
            state: DialogState::Early,
            role: Role::Caller,
            remote_rtp: None,
            invite_branch: Some(branch),
            invite_key: None,
            pending_invite: None,
            invite_cseq: None,
            answer_resp: None,
            duration: Some(duration),
            cancelled: false,
            span,
            setup_started_us,
            reinvite_cseq: None,
        };
        self.dialog_by_idx.insert(idx, call_id.clone());
        self.dialogs.insert(call_id.clone(), Box::new(dialog));
        self.emit_log(ctx, CallEvent::OutgoingCall { call_id, to });
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_>, call_id: &str) {
        let Some(d) = self.dialogs.get(call_id) else {
            return;
        };
        let target = d
            .remote_target
            .clone()
            .unwrap_or_else(|| d.remote_aor.to_uri());
        let branch = d.invite_branch.clone().unwrap_or_else(|| Arc::from(""));
        let (hdr_from, hdr_to, local_seq) = (d.hdr_from.clone(), d.hdr_to.clone(), d.local_seq);
        let mut m = self.base_request(ctx, Method::Ack, target);
        m.headers_mut().push(
            "Via",
            crate::headers::Via::new(SocketAddr::new(ctx.addr(), self.cfg.local_port), &branch),
        );
        m.headers_mut().push_owned("From", hdr_from);
        m.headers_mut().push_owned("To", hdr_to);
        m.headers_mut().push_owned("Call-ID", call_id.to_owned());
        m.headers_mut().push("CSeq", CSeq::new(local_seq, "ACK"));
        self.txn
            .send_request_with_branch(ctx, m, self.cfg.outbound_proxy, branch);
    }

    fn send_bye(&mut self, ctx: &mut Ctx<'_>, call_id: &str) {
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        if d.state != DialogState::Confirmed {
            return;
        }
        d.local_seq += 1;
        let seq = d.local_seq;
        let target = d
            .remote_target
            .clone()
            .unwrap_or_else(|| d.remote_aor.to_uri());
        let (hdr_from, hdr_to) = (d.hdr_from.clone(), d.hdr_to.clone());
        let mut m = self.base_request(ctx, Method::Bye, target);
        m.headers_mut().push_owned("From", hdr_from);
        m.headers_mut().push_owned("To", hdr_to);
        m.headers_mut().push_owned("Call-ID", call_id.to_owned());
        m.headers_mut().push("CSeq", CSeq::new(seq, "BYE"));
        self.txn.send_request(ctx, m, self.cfg.outbound_proxy);
        self.end_media(ctx, call_id);
        if let Some(d) = self.dialogs.get_mut(call_id) {
            d.terminate(ctx.now(), &mut self.terminated);
        }
        self.emit_log(
            ctx,
            CallEvent::Terminated {
                call_id: call_id.to_owned(),
                by_remote: false,
            },
        );
    }

    /// Sends an in-dialog re-INVITE (RFC 3261 §14) refreshing this side's
    /// Contact and SDP. Used after a gateway handoff renumbered the node:
    /// the outbound proxy's ALG rewrites Contact/SDP to the *new* public
    /// address, so the remote endpoint re-targets signaling and media.
    fn send_reinvite(&mut self, ctx: &mut Ctx<'_>, call_id: &str) {
        let contact = self.local_contact(ctx);
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        if d.state != DialogState::Confirmed {
            return;
        }
        d.local_seq += 1;
        let seq = d.local_seq;
        d.reinvite_cseq = Some(seq);
        let target = d
            .remote_target
            .clone()
            .unwrap_or_else(|| d.remote_aor.to_uri());
        let (hdr_from, hdr_to) = (d.hdr_from.clone(), d.hdr_to.clone());
        let mut m = self.base_request(ctx, Method::Invite, target);
        m.headers_mut().push_owned("From", hdr_from);
        m.headers_mut().push_owned("To", hdr_to);
        m.headers_mut().push_owned("Call-ID", call_id.to_owned());
        m.headers_mut().push("CSeq", CSeq::new(seq, "INVITE"));
        m.headers_mut().push("Contact", NameAddr::new(contact));
        // Session id from the clock, not the RNG: re-INVITEs are driven
        // by connectivity events and must not perturb the RNG stream of
        // runs where they never fire.
        let sdp = Sdp::audio(
            &self.cfg.aor.user,
            ctx.now_us(),
            SocketAddr::new(ctx.addr(), self.cfg.rtp_port),
        );
        let body = self.sdp_body(ctx, &sdp);
        m.set_body_string(body, Some("application/sdp"));
        ctx.stats().count("sip.reinvite_tx", 1);
        let branch = self.txn.send_request(ctx, m, self.cfg.outbound_proxy);
        if let Some(d) = self.dialogs.get_mut(call_id) {
            d.invite_branch = Some(branch);
        }
    }

    /// Handles an in-dialog re-INVITE on the callee side: adopt the
    /// peer's refreshed Contact/SDP, answer 200 with our current
    /// endpoints, and re-home the media session if the peer's RTP
    /// endpoint moved.
    fn on_reinvite(&mut self, ctx: &mut Ctx<'_>, key: &Arc<str>, msg: &SipMessage, call_id: &str) {
        ctx.stats().count("sip.reinvite_rx", 1);
        let contact_value = self.render_cache(ctx).contact.clone();
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        let prev_rtp = d.remote_rtp;
        if let Some(c) = msg.contact() {
            d.remote_target = Some(c.uri);
        }
        let offer = msg.body().parse::<Sdp>().ok();
        if let Some(o) = &offer {
            d.remote_rtp = Some(o.rtp_endpoint());
        }
        let local_tag = d.local_tag.clone();
        let new_rtp = d.remote_rtp;
        let mut ok = SipMessage::response_to(msg, StatusCode::OK);
        set_to_tag(&mut ok, &local_tag);
        ok.headers_mut()
            .push_owned("Contact", contact_value.clone());
        let mut answer_body = String::new();
        if let Some(o) = offer {
            // Clock-derived session id for the same determinism reason as
            // `send_reinvite`.
            if let Some(a) = o.answer(
                &self.cfg.aor.user,
                ctx.now_us(),
                SocketAddr::new(ctx.addr(), self.cfg.rtp_port),
            ) {
                answer_body = self.sdp_body(ctx, &a);
                ok.set_body_string(answer_body.clone(), Some("application/sdp"));
            }
        }
        // Store the refreshed transaction state so a retransmitted
        // re-INVITE replays this 200 (the existing rebranch path).
        if let Some(d) = self.dialogs.get_mut(call_id) {
            d.invite_cseq = msg.cseq();
            d.answer_resp = Some((contact_value, answer_body));
            d.invite_key = Some(key.clone());
        }
        self.txn.respond(ctx, key, ok);
        if let Some(rtp) = new_rtp {
            if prev_rtp != new_rtp {
                self.start_media(ctx, call_id, rtp);
            }
        }
    }

    /// Cancels a caller-side dialog that is still ringing (RFC 3261 §9):
    /// CANCEL copies the INVITE's Request-URI, Call-ID, From and CSeq
    /// number. The 487 that follows terminates the dialog.
    fn send_cancel(&mut self, ctx: &mut Ctx<'_>, call_id: &str) {
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        if d.state != DialogState::Early || d.role != Role::Caller || d.cancelled {
            return;
        }
        d.cancelled = true;
        let (remote_aor, local_tag) = (d.remote_aor.clone(), d.local_tag.clone());
        let mut m = self.base_request(ctx, Method::Cancel, remote_aor.to_uri());
        m.headers_mut().push(
            "From",
            NameAddr::new(self.cfg.aor.to_uri()).with_tag(&local_tag),
        );
        m.headers_mut()
            .push("To", NameAddr::new(remote_aor.to_uri()));
        m.headers_mut().push("Call-ID", call_id);
        m.headers_mut().push("CSeq", CSeq::new(1, "CANCEL"));
        self.txn.send_request(ctx, m, self.cfg.outbound_proxy);
    }

    fn start_media(&self, ctx: &mut Ctx<'_>, call_id: &str, remote_rtp: SocketAddr) {
        ctx.span_instant(SpanCat::Media, "media.start", Some(call_id));
        let payload = format!("{call_id}|{}|{}", self.cfg.rtp_port, remote_rtp);
        ctx.emit(LocalEvent::Custom {
            kind: MEDIA_START_EVENT,
            data: payload.into_bytes(),
        });
    }

    fn end_media(&self, ctx: &mut Ctx<'_>, call_id: &str) {
        ctx.span_instant(SpanCat::Media, "media.stop", Some(call_id));
        ctx.emit(LocalEvent::Custom {
            kind: MEDIA_STOP_EVENT,
            data: call_id.as_bytes().to_vec(),
        });
    }

    // ------------------------------------------------------------------
    // Incoming requests
    // ------------------------------------------------------------------

    fn on_invite(&mut self, ctx: &mut Ctx<'_>, key: Arc<str>, msg: SipMessage) {
        let Some(call_id) = msg.call_id().map(str::to_owned) else {
            return;
        };
        let Some(from) = msg.from_header() else {
            return;
        };
        if let Some(d) = self.dialogs.get(&call_id) {
            // A retransmitted INVITE can surface on a *new* server
            // transaction when an earlier flight's Via branch was mangled
            // in transit: same dialog, different key. Detect it by From
            // tag + CSeq and replay our current response on the fresh
            // transaction so the caller can still reach us.
            let retransmit = d.role == Role::Callee
                && d.state != DialogState::Terminated
                && from.tag().map(str::to_owned) == d.remote_tag
                && msg.cseq() == d.invite_cseq;
            if retransmit {
                ctx.stats().count("sip.invite_rebranch", 1);
                if let Some((contact, body)) = d.answer_resp.clone() {
                    // Rebuild against *this* flight's Via stack — the
                    // stored 200 answers the original (possibly mangled)
                    // request and would route back along dead branches.
                    // A response's To is the request To plus our tag,
                    // which is exactly this side's From value.
                    let hdr_to = d.hdr_from.clone();
                    let mut ok = SipMessage::response_to(&msg, StatusCode::OK);
                    ok.headers_mut().set_owned("To", hdr_to);
                    ok.headers_mut().set_owned("Contact", contact);
                    if !body.is_empty() {
                        ok.set_body_string(body, Some("application/sdp"));
                    }
                    self.txn.respond(ctx, &key, ok);
                } else {
                    let local_tag = d.local_tag.clone();
                    if let Some(d) = self.dialogs.get_mut(&call_id) {
                        // Answer on the clean transaction when it fires.
                        d.invite_key = Some(key.clone());
                        d.pending_invite = Some(msg.clone());
                    }
                    let mut ringing = SipMessage::response_to(&msg, StatusCode::RINGING);
                    set_to_tag(&mut ringing, &local_tag);
                    self.txn.respond(ctx, &key, ringing);
                }
            } else {
                // A genuine in-dialog re-INVITE: confirmed dialog, the
                // peer's tag matches, and the CSeq advanced past the
                // original INVITE. Anything else (spurious mid-setup
                // INVITE, mangled tag) still busies out.
                let in_dialog = d.state == DialogState::Confirmed
                    && from.tag().map(str::to_owned) == d.remote_tag
                    && match (msg.cseq(), &d.invite_cseq) {
                        (Some(new), Some(orig)) => new.seq > orig.seq,
                        // Caller-side dialogs never stored a peer INVITE:
                        // any tag-matching INVITE on a confirmed dialog is
                        // the peer re-negotiating.
                        (Some(_), None) => d.role == Role::Caller,
                        _ => false,
                    };
                if in_dialog {
                    self.on_reinvite(ctx, &key, &msg, &call_id);
                } else {
                    let resp = SipMessage::response_to(&msg, StatusCode::BUSY);
                    self.txn.respond(ctx, &key, resp);
                }
            }
            return;
        }
        let idx = self.next_dialog;
        self.next_dialog += 1;
        let local_tag = self.new_tag(ctx);
        let remote_rtp = msg.body().parse::<Sdp>().ok().map(|s| s.rtp_endpoint());
        let remote_target = msg.contact().map(|c| c.uri);
        let span = ctx.span_enter(SpanCat::Sip, "sip.answer");
        ctx.obs().span_corr(span, &call_id);
        let setup_started_us = ctx.now_us();
        // Build the ringing response before the INVITE moves into the
        // dialog — the pending request is stored, never cloned.
        let mut ringing = SipMessage::response_to(&msg, StatusCode::RINGING);
        set_to_tag(&mut ringing, &local_tag);
        let remote_aor = from.uri.aor();
        let remote_tag = from.tag().map(str::to_owned);
        let invite_cseq = msg.cseq();
        let hdr_from = tagged(&self.render_cache(ctx).from_base, &local_tag);
        let hdr_to = match &remote_tag {
            Some(t) => tagged(&name_addr_value(&remote_aor), t),
            None => name_addr_value(&remote_aor),
        };
        let dialog = Dialog {
            idx,
            call_id: call_id.clone(),
            local_tag,
            remote_tag,
            hdr_from,
            hdr_to,
            remote_aor,
            remote_target,
            local_seq: 0,
            state: DialogState::Early,
            role: Role::Callee,
            remote_rtp,
            invite_branch: None,
            invite_key: Some(key.clone()),
            pending_invite: Some(msg),
            invite_cseq,
            answer_resp: None,
            duration: None,
            cancelled: false,
            span,
            setup_started_us,
            reinvite_cseq: None,
        };
        self.dialog_by_idx.insert(idx, call_id.clone());
        self.dialogs.insert(call_id.clone(), Box::new(dialog));
        self.emit_log(
            ctx,
            CallEvent::IncomingCall {
                call_id,
                from: from.uri.aor(),
            },
        );
        // Ring.
        self.txn.respond(ctx, &key, ringing);
        if self.cfg.auto_answer {
            ctx.set_timer(self.cfg.answer_delay, tok(TAG_ANSWER, idx));
        }
    }

    fn answer_call(&mut self, ctx: &mut Ctx<'_>, idx: u64) {
        let Some(call_id) = self
            .dialog_by_idx
            .get(&idx)
            .filter(|id| {
                self.dialogs
                    .get(id.as_str())
                    .is_some_and(|d| d.state == DialogState::Early && d.role == Role::Callee)
            })
            .cloned()
        else {
            return;
        };
        let (key, invite, local_tag) = {
            let Some(d) = self.dialogs.get_mut(&call_id) else {
                return;
            };
            let Some(key) = d.invite_key.clone() else {
                return;
            };
            // Borrow the stored INVITE by moving it out for the duration
            // of the answer build; it is put back below.
            let Some(invite) = d.pending_invite.take() else {
                return;
            };
            (key, invite, d.local_tag.clone())
        };
        let mut ok = SipMessage::response_to(&invite, StatusCode::OK);
        set_to_tag(&mut ok, &local_tag);
        let contact = self.render_cache(ctx).contact.clone();
        ok.headers_mut().push_owned("Contact", contact.clone());
        let mut answer_body = String::new();
        if let Ok(offer) = invite.body().parse::<Sdp>() {
            let answer = offer.answer(
                &self.cfg.aor.user,
                ctx.rng().next_u64() >> 1,
                SocketAddr::new(ctx.addr(), self.cfg.rtp_port),
            );
            if let Some(a) = answer {
                answer_body = self.sdp_body(ctx, &a);
                ok.set_body_string(answer_body.clone(), Some("application/sdp"));
            }
        }
        if let Some(d) = self.dialogs.get_mut(&call_id) {
            d.pending_invite = Some(invite);
            d.answer_resp = Some((contact, answer_body));
        }
        self.txn.respond(ctx, &key, ok);
        // Established is logged when the ACK arrives.
    }

    fn on_bye(&mut self, ctx: &mut Ctx<'_>, key: Arc<str>, msg: SipMessage) {
        let resp = SipMessage::response_to(&msg, StatusCode::OK);
        self.txn.respond(ctx, &key, resp);
        if let Some(call_id) = msg.call_id().map(str::to_owned) {
            if let Some(d) = self.dialogs.get_mut(&call_id) {
                if d.state != DialogState::Terminated {
                    d.terminate(ctx.now(), &mut self.terminated);
                    self.end_media(ctx, &call_id);
                    self.emit_log(
                        ctx,
                        CallEvent::Terminated {
                            call_id,
                            by_remote: true,
                        },
                    );
                }
            }
        }
    }

    fn on_cancel(&mut self, ctx: &mut Ctx<'_>, key: Arc<str>, msg: SipMessage) {
        let resp = SipMessage::response_to(&msg, StatusCode::OK);
        self.txn.respond(ctx, &key, resp);
        if let Some(call_id) = msg.call_id().map(str::to_owned) {
            let early_callee = self
                .dialogs
                .get(&call_id)
                .map(|d| d.state == DialogState::Early && d.role == Role::Callee)
                .unwrap_or(false);
            if early_callee {
                let (ikey, invite, tag) = {
                    let d = &self.dialogs[&call_id];
                    (
                        d.invite_key.clone(),
                        d.pending_invite.clone(),
                        d.local_tag.clone(),
                    )
                };
                if let (Some(ikey), Some(invite)) = (ikey, invite) {
                    let mut resp = SipMessage::response_to(&invite, StatusCode::TERMINATED);
                    set_to_tag(&mut resp, &tag);
                    self.txn.respond(ctx, &ikey, resp);
                }
                if let Some(d) = self.dialogs.get_mut(&call_id) {
                    d.terminate(ctx.now(), &mut self.terminated);
                    let span = d.span;
                    ctx.span_exit(span, false);
                }
                self.emit_log(
                    ctx,
                    CallEvent::Terminated {
                        call_id,
                        by_remote: true,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Responses
    // ------------------------------------------------------------------

    fn on_response(&mut self, ctx: &mut Ctx<'_>, branch: Arc<str>, msg: SipMessage) {
        if Some(&branch) == self.register_branch.as_ref() {
            let Some(status) = msg.status() else { return };
            if status == StatusCode::UNAUTHORIZED && self.cfg.identity.is_some() {
                // Challenged: retry once per challenge with a signed
                // credential. A second 401 on the retry is a real
                // failure (wrong key, hijacked pin) — do not loop.
                let challenge = msg
                    .headers()
                    .get(auth::WWW_AUTHENTICATE)
                    .and_then(|v| v.parse::<auth::Challenge>().ok());
                if let Some(ch) = challenge.filter(|_| !self.auth_inflight) {
                    self.auth_nonce = Some(ch.nonce);
                    self.auth_inflight = true;
                    ctx.stats().count("ua.auth_challenged", 1);
                    let expires = self.last_expires;
                    self.send_register(ctx, expires);
                    return;
                }
            }
            if status.is_success() {
                self.auth_inflight = false;
                ctx.span_exit(self.register_span, true);
                self.register_span = SpanId::NONE;
                if !self.registered {
                    self.registered = true;
                    self.emit_log(ctx, CallEvent::Registered);
                }
            } else if status.is_final() {
                self.auth_inflight = false;
                ctx.span_exit(self.register_span, false);
                self.register_span = SpanId::NONE;
                self.emit_log(ctx, CallEvent::RegisterFailed);
            }
            return;
        }
        let Some(call_id) = msg.call_id().map(str::to_owned) else {
            return;
        };
        let Some(status) = msg.status() else { return };
        let method = msg.cseq().map(|c| c.method).unwrap_or_default();

        if method == "INVITE" {
            let Some(d) = self.dialogs.get_mut(&call_id) else {
                return;
            };
            if status == StatusCode::RINGING && d.state == DialogState::Early {
                self.emit_log(ctx, CallEvent::Ringing { call_id });
                return;
            }
            if status.is_success() {
                if d.state == DialogState::Terminated {
                    // A retransmitted 200 that outlived the call (we sent
                    // BYE meanwhile): the peer still wants its ACK, but
                    // the dialog stays over.
                    self.send_ack(ctx, &call_id);
                    return;
                }
                let was_early = d.state == DialogState::Early;
                let prev_rtp = d.remote_rtp;
                d.state = DialogState::Confirmed;
                let new_tag = msg.to_header().and_then(|t| t.tag().map(str::to_owned));
                if new_tag != d.remote_tag {
                    d.remote_tag = new_tag;
                    let base = name_addr_value(&d.remote_aor);
                    d.hdr_to = match &d.remote_tag {
                        Some(t) => tagged(&base, t),
                        None => base,
                    };
                }
                if let Some(c) = msg.contact() {
                    d.remote_target = Some(c.uri);
                }
                if let Ok(sdp) = msg.body().parse::<Sdp>() {
                    d.remote_rtp = Some(sdp.rtp_endpoint());
                }
                // Only the 200 answering *our* outstanding re-INVITE may
                // re-home media: a duplicated (or corrupted) retransmit of
                // the original 200 must stay a bare re-ACK.
                let reinvite_done = !was_early
                    && d.reinvite_cseq.is_some()
                    && d.reinvite_cseq == msg.cseq().map(|c| c.seq);
                if reinvite_done {
                    d.reinvite_cseq = None;
                }
                let remote_rtp = d.remote_rtp;
                let duration = d.duration;
                let idx = d.idx;
                let (span, started_us) = (d.span, d.setup_started_us);
                // Always (re-)ACK, also for retransmitted 200s.
                self.send_ack(ctx, &call_id);
                if reinvite_done {
                    ctx.stats().count("sip.reinvite_ok", 1);
                    if let Some(rtp) = remote_rtp {
                        if prev_rtp != remote_rtp {
                            self.start_media(ctx, &call_id, rtp);
                        }
                    }
                }
                if was_early {
                    ctx.span_exit(span, true);
                    ctx.obs().counter_add("sip.calls_established", 1);
                    let setup = ctx.now_us().saturating_sub(started_us);
                    ctx.obs().hist_record("sip.call_setup_us", setup);
                    if let Some(rtp) = remote_rtp {
                        self.start_media(ctx, &call_id, rtp);
                        self.emit_log(
                            ctx,
                            CallEvent::Established {
                                call_id: call_id.clone(),
                                remote_rtp: rtp,
                            },
                        );
                    }
                    if let Some(dur) = duration {
                        ctx.set_timer(dur, tok(TAG_BYE, idx));
                    }
                }
            } else if status.is_final() {
                // Duplicated or reordered finals can race dialog teardown;
                // a missing dialog is a drop, not a crash.
                let Some(d) = self.dialogs.get_mut(&call_id) else {
                    ctx.stats().count("sip.malformed_dropped", 1);
                    return;
                };
                let (ended, cancelled) = {
                    let was_early = d.state == DialogState::Early;
                    d.terminate(ctx.now(), &mut self.terminated);
                    (was_early, d.cancelled)
                };
                let span = d.span;
                if ended {
                    ctx.span_exit(span, false);
                    if cancelled {
                        self.emit_log(
                            ctx,
                            CallEvent::Terminated {
                                call_id,
                                by_remote: false,
                            },
                        );
                    } else {
                        self.emit_log(
                            ctx,
                            CallEvent::Failed {
                                call_id,
                                code: Some(status.0),
                            },
                        );
                    }
                }
            }
        }
        // BYE and other in-dialog responses need no further action.
    }

    /// Closes every datagram and timer handler: removes the dialogs whose
    /// linger has lapsed and publishes what is still live. Riding on the
    /// handlers costs no timer of its own. It is prompt for a call that
    /// ended with BYE or a refusal we sent: that transaction starts as the
    /// dialog ends, so its 64×T1 cleanup timer lands here just as the
    /// linger lapses. A caller whose INVITE was refused waits for its
    /// next handler of any kind.
    fn settle(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(&(ended, idx)) = self.terminated.front() {
            if ended + TXN_LIFETIME > ctx.now() {
                break;
            }
            self.terminated.pop_front();
            if let Some(call_id) = self.dialog_by_idx.remove(&idx) {
                self.dialogs.remove(&call_id);
            }
        }
        let live = (self.txn.active_count(), self.dialogs.len());
        if live != self.reported {
            let delta = |now: usize, before: usize| now as f64 - before as f64;
            ctx.obs()
                .gauge_add("sip.txn_active", delta(live.0, self.reported.0));
            ctx.obs()
                .gauge_add("sip.dialogs_live", delta(live.1, self.reported.1));
            self.reported = live;
        }
    }

    fn on_txn_timeout(&mut self, ctx: &mut Ctx<'_>, branch: Arc<str>, msg: SipMessage) {
        if Some(&branch) == self.register_branch.as_ref() {
            ctx.span_exit(self.register_span, false);
            self.register_span = SpanId::NONE;
            self.emit_log(ctx, CallEvent::RegisterFailed);
            return;
        }
        if msg.method() == Some(Method::Invite) {
            if let Some(call_id) = msg.call_id().map(str::to_owned) {
                if let Some(d) = self.dialogs.get_mut(&call_id) {
                    if d.state == DialogState::Early {
                        d.terminate(ctx.now(), &mut self.terminated);
                        let span = d.span;
                        ctx.span_exit(span, false);
                        self.emit_log(
                            ctx,
                            CallEvent::Failed {
                                call_id,
                                code: None,
                            },
                        );
                    }
                }
            }
        }
    }
}

impl Process for UserAgent {
    fn name(&self) -> &'static str {
        "voip-app"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(self.cfg.local_port);
        if self.cfg.register {
            self.send_register(
                ctx,
                self.cfg.register_expires.as_micros() as u32 / 1_000_000,
            );
            // Refresh at half-life.
            ctx.set_timer(self.cfg.register_expires / 2, tok(TAG_REGISTER, 0));
        }
        for (i, action) in self.cfg.script.iter().enumerate() {
            let delay = action.at.saturating_since(ctx.now());
            ctx.set_timer(delay, tok(TAG_SCRIPT, i as u64));
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        let Ok(msg) = SipMessage::parse(&String::from_utf8_lossy(&dgram.payload)) else {
            ctx.stats().count("ua.malformed", dgram.payload.len());
            return;
        };
        match self.txn.on_datagram(ctx, msg, dgram.src) {
            Some(TxnEvent::Request { key, msg, .. }) => match msg.method() {
                Some(Method::Invite) => self.on_invite(ctx, key, msg),
                Some(Method::Bye) => self.on_bye(ctx, key, msg),
                Some(Method::Cancel) => self.on_cancel(ctx, key, msg),
                Some(Method::Options) => {
                    let resp = SipMessage::response_to(&msg, StatusCode::OK);
                    self.txn.respond(ctx, &key, resp);
                }
                _ => {
                    let resp = SipMessage::response_to(&msg, StatusCode::SERVER_ERROR);
                    self.txn.respond(ctx, &key, resp);
                }
            },
            Some(TxnEvent::Ack { msg }) => {
                // Our 200 was acknowledged: the callee-side dialog is live.
                if let Some(call_id) = msg.call_id().map(str::to_owned) {
                    let info = self.dialogs.get_mut(&call_id).and_then(|d| {
                        if d.state == DialogState::Early && d.role == Role::Callee {
                            d.state = DialogState::Confirmed;
                            d.pending_invite = None;
                            d.remote_rtp.map(|rtp| (rtp, d.span, d.setup_started_us))
                        } else {
                            None
                        }
                    });
                    if let Some((rtp, span, started_us)) = info {
                        ctx.span_exit(span, true);
                        ctx.obs().counter_add("sip.calls_established", 1);
                        let setup = ctx.now_us().saturating_sub(started_us);
                        ctx.obs().hist_record("sip.call_setup_us", setup);
                        self.start_media(ctx, &call_id, rtp);
                        self.emit_log(
                            ctx,
                            CallEvent::Established {
                                call_id,
                                remote_rtp: rtp,
                            },
                        );
                    }
                }
            }
            Some(TxnEvent::Response { branch, msg }) => self.on_response(ctx, branch, msg),
            Some(TxnEvent::Timeout { branch, msg }) => self.on_txn_timeout(ctx, branch, msg),
            None => {}
        }
        self.settle(ctx);
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        let LocalEvent::Custom { kind, data } = ev else {
            return;
        };
        if *kind != INTERNET_UP_EVENT {
            return;
        }
        let public = String::from_utf8_lossy(data).into_owned();
        let changed = self
            .last_public
            .as_deref()
            .is_some_and(|prev| prev != public);
        self.last_public = Some(public);
        if !changed {
            return;
        }
        // The node was renumbered mid-session (gateway handoff). Every
        // confirmed Internet call still names the dead lease in its
        // Contact/SDP on the remote side; re-INVITE so the proxy ALG
        // stamps the new public address and the peer re-targets media.
        let internet_calls: Vec<String> = self
            .dialogs
            .values()
            .filter(|d| {
                d.state == DialogState::Confirmed
                    && d.remote_rtp.is_some_and(|r| r.addr.is_public())
            })
            .map(|d| d.call_id.clone())
            .collect();
        for call_id in internet_calls {
            self.send_reinvite(ctx, &call_id);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.txn.owns_token(token) {
            if let Some(TxnEvent::Timeout { branch, msg }) = self.txn.on_timer(ctx, token) {
                self.on_txn_timeout(ctx, branch, msg);
            }
        } else {
            self.on_own_timer(ctx, token);
        }
        self.settle(ctx);
    }
}

impl UserAgent {
    fn on_own_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let tag = token & 0xff;
        let idx = token >> 8;
        match tag {
            TAG_REGISTER => {
                self.send_register(
                    ctx,
                    self.cfg.register_expires.as_micros() as u32 / 1_000_000,
                );
                ctx.set_timer(self.cfg.register_expires / 2, tok(TAG_REGISTER, 0));
            }
            TAG_SCRIPT => {
                let Some(action) = self.cfg.script.get(idx as usize).cloned() else {
                    return;
                };
                match action.kind {
                    ActionKind::Call { to, duration } => self.place_call(ctx, to, duration),
                    ActionKind::HangupAll => {
                        let confirmed: Vec<String> = self
                            .dialogs
                            .values()
                            .filter(|d| d.state == DialogState::Confirmed)
                            .map(|d| d.call_id.clone())
                            .collect();
                        for id in confirmed {
                            self.send_bye(ctx, &id);
                        }
                        let ringing: Vec<String> = self
                            .dialogs
                            .values()
                            .filter(|d| d.state == DialogState::Early && d.role == Role::Caller)
                            .map(|d| d.call_id.clone())
                            .collect();
                        for id in ringing {
                            self.send_cancel(ctx, &id);
                        }
                    }
                    ActionKind::ReinviteAll => {
                        let confirmed: Vec<String> = self
                            .dialogs
                            .values()
                            .filter(|d| d.state == DialogState::Confirmed)
                            .map(|d| d.call_id.clone())
                            .collect();
                        for id in confirmed {
                            self.send_reinvite(ctx, &id);
                        }
                    }
                    ActionKind::Unregister => {
                        self.send_register(ctx, 0);
                        self.registered = false;
                    }
                }
            }
            TAG_ANSWER => self.answer_call(ctx, idx),
            TAG_BYE => {
                if let Some(call_id) = self
                    .dialog_by_idx
                    .get(&idx)
                    .filter(|id| {
                        self.dialogs
                            .get(id.as_str())
                            .is_some_and(|d| d.state == DialogState::Confirmed)
                    })
                    .cloned()
                {
                    self.send_bye(ctx, &call_id);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::prelude::*;

    /// What one call costs the dialog B-tree inline, lingering included
    /// (eleven entries a leaf): the key and a pointer.
    const DIALOG_ENTRY_BYTES: usize = 32;

    #[test]
    fn a_dialog_entry_is_a_key_and_a_pointer() {
        let entry = std::mem::size_of::<(String, Box<Dialog>)>();
        assert_eq!(entry, DIALOG_ENTRY_BYTES);
    }

    /// Back-to-back test without a proxy: two UAs pointing their
    /// "outbound proxy" directly at each other's SIP port, with static
    /// routes. Exercises INVITE/180/200/ACK/media/BYE end-to-end.
    fn b2b_world() -> (World, UaLogHandle, UaLogHandle) {
        b2b_world_with(SimDuration::from_secs(5), |cfg| cfg)
    }

    /// [`b2b_world`] with the scripted call lasting `talk`, and the
    /// caller's configuration passed through `caller` last.
    fn b2b_world_with(
        talk: SimDuration,
        caller: impl FnOnce(UaConfig) -> UaConfig,
    ) -> (World, UaLogHandle, UaLogHandle) {
        let mut w = World::new(WorldConfig::new(21).with_radio(RadioConfig::ideal()));
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.install_route(
            a,
            ba,
            Route {
                next_hop: ba,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
        w.install_route(
            b,
            aa,
            Route {
                next_hop: aa,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );

        let alice = Aor::new("alice", "voicehoc.ch");
        let bob = Aor::new("bob", "voicehoc.ch");
        let mut cfg_a = UaConfig::new(alice, SocketAddr::new(ba, 5070));
        cfg_a.register = false; // no registrar in this test
        let cfg_a = caller(cfg_a.call_at(SimTime::from_secs(1), bob.clone(), talk));
        let mut cfg_b = UaConfig::new(bob, SocketAddr::new(aa, 5070));
        cfg_b.register = false;
        let (ua_a, log_a) = UserAgent::new(cfg_a);
        let (ua_b, log_b) = UserAgent::new(cfg_b);
        w.spawn(a, Box::new(ua_a));
        w.spawn(b, Box::new(ua_b));
        (w, log_a, log_b)
    }

    #[test]
    fn full_call_lifecycle_back_to_back() {
        let (mut w, log_a, log_b) = b2b_world();
        w.run_for(SimDuration::from_secs(10));
        let a = log_a.borrow();
        let b = log_b.borrow();
        assert!(a.any(|e| matches!(e, CallEvent::OutgoingCall { .. })));
        assert!(b.any(|e| matches!(e, CallEvent::IncomingCall { .. })));
        assert!(a.any(|e| matches!(e, CallEvent::Ringing { .. })));
        assert!(
            a.any(|e| matches!(e, CallEvent::Established { .. })),
            "{:?}",
            a.events()
        );
        assert!(
            b.any(|e| matches!(e, CallEvent::Established { .. })),
            "{:?}",
            b.events()
        );
        // Caller hangs up after 5 s of talk.
        assert!(a.any(|e| matches!(
            e,
            CallEvent::Terminated {
                by_remote: false,
                ..
            }
        )));
        assert!(b.any(|e| matches!(
            e,
            CallEvent::Terminated {
                by_remote: true,
                ..
            }
        )));
        // Timing: established ~1.2 s (1 s script + 200 ms ring).
        let est = a
            .first_time(|e| matches!(e, CallEvent::Established { .. }))
            .unwrap();
        assert!(
            est >= SimTime::from_millis(1150) && est < SimTime::from_millis(1600),
            "{est}"
        );
        let bye = a
            .first_time(|e| matches!(e, CallEvent::Terminated { .. }))
            .unwrap();
        assert!(bye.saturating_since(est) >= SimDuration::from_secs(5));
    }

    #[test]
    fn retransmitted_200_after_bye_does_not_revive_the_dialog() {
        // A zero-length call: the caller's BYE leaves in the instant its
        // ACK does, so the duplicate of the 200 (every callee frame is
        // delivered twice, 150 µs apart) finds the dialog terminated.
        let (mut w, log_a, log_b) = b2b_world_with(SimDuration::ZERO, |mut cfg| {
            cfg.script.push(ScriptedAction {
                at: SimTime::from_secs(3),
                kind: ActionKind::HangupAll,
            });
            cfg
        });
        w.install_fault_plan(FaultPlan::new().packet_fault(
            LinkSelector::From(NodeId(1)),
            PacketFaultKind::Duplicate,
            1.0,
            SimTime::ZERO,
            SimTime::MAX,
        ));
        w.run_for(SimDuration::from_secs(10));
        let terminated = |log: &UaLogHandle| {
            log.borrow()
                .count(|e| matches!(e, CallEvent::Terminated { .. }))
        };
        assert_eq!(terminated(&log_a), 1, "{:?}", log_a.borrow().events());
        assert_eq!(terminated(&log_b), 1, "{:?}", log_b.borrow().events());
        // INVITE, ACK, BYE and the re-ACK the duplicate is still owed —
        // not a second BYE from `HangupAll` finding a revived call.
        assert_eq!(w.node(NodeId(0)).stats().get("sip.txn_tx").packets, 4);
    }

    #[test]
    fn sdp_endpoints_exchanged_correctly() {
        let (mut w, log_a, log_b) = b2b_world();
        w.run_for(SimDuration::from_secs(4));
        let a = log_a.borrow();
        let b = log_b.borrow();
        let a_remote = a
            .events()
            .iter()
            .find_map(|(_, e)| match e {
                CallEvent::Established { remote_rtp, .. } => Some(*remote_rtp),
                _ => None,
            })
            .unwrap();
        let b_remote = b
            .events()
            .iter()
            .find_map(|(_, e)| match e {
                CallEvent::Established { remote_rtp, .. } => Some(*remote_rtp),
                _ => None,
            })
            .unwrap();
        // Each side points at the *other* node's RTP socket.
        assert_eq!(a_remote.to_string(), "10.0.0.2:8000");
        assert_eq!(b_remote.to_string(), "10.0.0.1:8000");
    }

    #[test]
    fn call_to_nowhere_times_out() {
        let mut w = World::new(WorldConfig::new(22).with_radio(RadioConfig::ideal()));
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        // Outbound proxy points at a dead address with a static route into
        // the void (packets fall into pending and get dropped).
        let mut cfg = UaConfig::new(
            Aor::new("alice", "voicehoc.ch"),
            SocketAddr::new(Addr::manet(99), 5060),
        );
        cfg.register = false;
        let cfg = cfg.call_at(
            SimTime::from_secs(1),
            Aor::new("ghost", "nowhere.org"),
            SimDuration::from_secs(5),
        );
        let (ua, log) = UserAgent::new(cfg);
        w.spawn(a, Box::new(ua));
        w.run_for(SimDuration::from_secs(60));
        let log = log.borrow();
        assert!(
            log.any(|e| matches!(e, CallEvent::Failed { code: None, .. })),
            "{:?}",
            log.events()
        );
    }

    #[test]
    fn media_events_emitted_on_establish_and_teardown() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct MediaProbe {
            events: Rc<RefCell<Vec<String>>>,
        }
        impl Process for MediaProbe {
            fn name(&self) -> &'static str {
                "media-probe"
            }
            fn on_local_event(&mut self, _ctx: &mut Ctx<'_>, ev: &LocalEvent) {
                if let LocalEvent::Custom { kind, data } = ev {
                    if *kind == MEDIA_START_EVENT || *kind == MEDIA_STOP_EVENT {
                        self.events
                            .borrow_mut()
                            .push(format!("{kind}:{}", String::from_utf8_lossy(data)));
                    }
                }
            }
        }

        let (mut w, _log_a, _log_b) = b2b_world();
        let probe_events = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            NodeId(0),
            Box::new(MediaProbe {
                events: probe_events.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(10));
        let evs = probe_events.borrow();
        assert!(
            evs.iter().any(|e| e.starts_with("sip.media_start:")),
            "{evs:?}"
        );
        assert!(
            evs.iter().any(|e| e.starts_with("sip.media_stop:")),
            "{evs:?}"
        );
        // Start payload carries local port and the peer RTP endpoint.
        let start = evs
            .iter()
            .find(|e| e.starts_with("sip.media_start:"))
            .unwrap();
        assert!(start.contains("|8000|10.0.0.2:8000"), "{start}");
    }
}
