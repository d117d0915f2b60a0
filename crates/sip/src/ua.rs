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
use siphoc_simnet::process::{Ctx, LocalEvent, LocalKind, Process, Timed};
use siphoc_simnet::time::{SimDuration, SimTime};

use std::sync::Arc;

use siphoc_simnet::ident::KeyPair;

use crate::auth;
use crate::headers::{CSeq, NameAddr, Via};
use crate::msg::{Method, SipMessage, StatusCode};
use crate::sdp::Sdp;
use crate::txn::{TransactionLayer, TxnEvent, TXN_LIFETIME};
use crate::uri::{Aor, SipUri};

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

    /// This UA's SIP contact on a node at `at`.
    fn contact(&self, at: Addr) -> SipUri {
        SipUri::from_socket(Some(&self.aor.user), SocketAddr::new(at, self.local_port))
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

/// How a dialog ended: what [`UserAgent::end`] stops and logs.
#[derive(Debug, Clone, Copy)]
enum Ending {
    /// A BYE, sent or received: the call's media stops.
    Bye { by_remote: bool },
    /// The peer's CANCEL of its INVITE.
    Cancelled,
    /// A non-2xx final to our INVITE: the 487 to our CANCEL, or a refusal.
    Refused(u16),
    /// Our INVITE's transaction timed out.
    TimedOut,
}

struct Dialog {
    idx: u64,
    call_id: String,
    local_tag: String,
    remote_tag: Option<String>,
    remote_aor: Aor,
    remote_target: Option<SipUri>,
    local_seq: u32,
    state: DialogState,
    role: Role,
    remote_rtp: Option<SocketAddr>,
    invite_branch: Option<Arc<str>>,
    invite_key: Option<Arc<str>>,
    /// The peer's INVITE, held while the dialog is `Early` — the only
    /// state that still builds responses (200, 487) from it. Boxed: it
    /// is dropped at the ACK, so a confirmed dialog carries one pointer.
    pending_invite: Option<Box<SipMessage>>,
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
    /// Whether a 180 was logged: ringing is a milestone, not one per
    /// replayed 180.
    rang: bool,
    /// Call setup (INVITE->ACK): its span, open until setup is over
    /// either way, and its start for the `sip.call_setup_us` histogram.
    setup: Timed,
    /// CSeq of an in-flight outgoing re-INVITE (gateway handoff re-homing);
    /// `None` when no re-INVITE is outstanding.
    reinvite_cseq: Option<u32>,
}

impl Dialog {
    /// A dialog being set up, with its setup span open: the caller's
    /// `sip.invite` or the callee's `sip.answer`.
    fn early(
        ctx: &mut Ctx<'_>,
        idx: u64,
        call_id: &str,
        local_tag: String,
        remote_aor: Aor,
        role: Role,
    ) -> Dialog {
        let name = match role {
            Role::Caller => "sip.invite",
            Role::Callee => "sip.answer",
        };
        let setup = ctx.span_timed(SpanCat::Sip, name, call_id);
        Dialog {
            idx,
            call_id: call_id.to_owned(),
            local_tag,
            remote_tag: None,
            remote_aor,
            remote_target: None,
            local_seq: 0,
            state: DialogState::Early,
            role,
            remote_rtp: None,
            invite_branch: None,
            invite_key: None,
            pending_invite: None,
            invite_cseq: None,
            answer_resp: None,
            duration: None,
            cancelled: false,
            rang: false,
            setup,
            reinvite_cseq: None,
        }
    }

    /// Every request this side sends in the dialog (RFC 3261 § 12.2.1.1):
    /// to the peer's target, From us, To the peer, on the dialog's
    /// Call-ID with CSeq `seq`. Only the 2xx ACK brings its own `via`, on
    /// its INVITE's branch; it goes third, after User-Agent.
    fn request(&self, method: Method, seq: u32, aor: &Aor, via: Option<Via>) -> SipMessage {
        let target = self.remote_target.clone();
        let mut m = base_request(method, target.unwrap_or_else(|| self.remote_aor.to_uri()));
        let h = m.headers_mut();
        if let Some(via) = via {
            h.push("Via", via);
        }
        h.push(
            "From",
            NameAddr::new(aor.to_uri()).with_tag(&self.local_tag),
        );
        let to = NameAddr::new(self.remote_aor.to_uri());
        match &self.remote_tag {
            Some(t) => h.push("To", to.with_tag(t)),
            None => h.push("To", to),
        }
        h.push("Call-ID", &self.call_id);
        h.push("CSeq", CSeq::new(seq, method.as_str()));
        m
    }

    /// This side's INVITE at the dialog's current CSeq, the first or a
    /// re-INVITE: our Contact, and an SDP offer with session id `session`.
    fn invite(&self, cfg: &UaConfig, at: Addr, session: u64) -> SipMessage {
        let mut m = self.request(Method::Invite, self.local_seq, &cfg.aor, None);
        m.headers_mut()
            .push("Contact", NameAddr::new(cfg.contact(at)));
        let sdp = Sdp::audio(&cfg.aor.user, session, SocketAddr::new(at, cfg.rtp_port));
        m.set_body(sdp, Some("application/sdp"));
        m
    }

    /// Whether this is the callee side of a call not yet confirmed: the
    /// peer's INVITE is still answerable, cancellable and ACKable.
    fn early_callee(&self) -> bool {
        self.state == DialogState::Early && self.role == Role::Callee
    }

    /// Ends the dialog: drops what only a live dialog reads and queues it
    /// on `terminated` for removal once the linger has lapsed. Returns
    /// whether it was live: duplicated finals and BYEs reach dialogs that
    /// are already over, and change nothing.
    fn terminate(&mut self, now: SimTime, terminated: &mut VecDeque<(SimTime, u64)>) -> bool {
        if self.state == DialogState::Terminated {
            return false;
        }
        self.state = DialogState::Terminated;
        self.pending_invite = None;
        self.answer_resp = None;
        terminated.push_back((now, self.idx));
        true
    }
}

const TAG_REGISTER: u64 = 1;
const TAG_SCRIPT: u64 = 2;
const TAG_ANSWER: u64 = 3;
const TAG_BYE: u64 = 4;

fn tok(tag: u64, idx: u64) -> u64 {
    tag | (idx << 8)
}

/// A response to `req` whose To carries this side's dialog tag.
fn tagged_response(req: &SipMessage, code: StatusCode, tag: &str) -> SipMessage {
    let mut resp = SipMessage::response_to(req, code);
    if let Some(mut to) = resp.to_header() {
        to.set_tag(tag);
        resp.headers_mut().set("To", to);
    }
    resp
}

/// Every 2xx that answers an INVITE in a dialog tagged `tag` — a first
/// answer, a re-INVITE's, and the replay on a rebranched retransmit: our
/// Contact, and the SDP answer when there is one.
fn answer_ok(invite: &SipMessage, tag: &str, (contact, body): &(String, String)) -> SipMessage {
    let mut ok = tagged_response(invite, StatusCode::OK, tag);
    ok.headers_mut().push("Contact", contact);
    if !body.is_empty() {
        ok.set_body(body, Some("application/sdp"));
    }
    ok
}

fn new_tag(ctx: &mut Ctx<'_>) -> String {
    format!("{:08x}", ctx.rng().next_u64() as u32)
}

fn base_request(method: Method, uri: SipUri) -> SipMessage {
    let mut m = SipMessage::request(method, uri);
    m.headers_mut().push("Max-Forwards", 70);
    m.headers_mut().push("User-Agent", "siphoc-ua/0.1");
    m
}

/// The user agent process.
pub struct UserAgent {
    cfg: UaConfig,
    txn: TransactionLayer,
    log: UaLogHandle,
    /// Boxed: a B-tree leaf reserves eleven entries, filled or not, so
    /// inline dialogs cost their size again in slack.
    dialogs: BTreeMap<String, Box<Dialog>>,
    /// Dialog index → call-id. Timer tokens carry the dialog index;
    /// this side index resolves them in O(1) instead of a scan.
    /// Without it `sip_hub` runs 33.6 % longer (EXPERIMENTS.md "One way to build a SIP message").
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
    /// Last public address announced via [`LocalEvent::InternetUp`]; a
    /// *change* (gateway handoff renumbered the node) re-INVITEs Internet
    /// calls.
    last_public: Option<Addr>,
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
        let txn = TransactionLayer::new(cfg.local_port);
        (
            UserAgent {
                cfg,
                txn,
                log: log.clone(),
                dialogs: BTreeMap::new(),
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

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    fn send_register(&mut self, ctx: &mut Ctx<'_>, expires: u32) {
        let domain_uri = SipUri::host_only(&self.cfg.aor.domain, None);
        let mut m = base_request(Method::Register, domain_uri);
        self.register_cseq += 1;
        let tag = new_tag(ctx);
        let id = NameAddr::new(self.cfg.aor.to_uri());
        m.headers_mut().push("From", id.clone().with_tag(&tag));
        m.headers_mut().push("To", &id);
        m.headers_mut().push(
            "Call-ID",
            format!("reg-{}-{}", self.cfg.aor.user, self.cfg.local_port),
        );
        m.headers_mut()
            .push("CSeq", CSeq::new(self.register_cseq, "REGISTER"));
        let contact_value = NameAddr::new(self.cfg.contact(ctx.addr())).to_string();
        m.headers_mut().push("Contact", &contact_value);
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
        let local_tag = new_tag(ctx);
        let session = ctx.rng().next_u64() >> 1;
        let mut dialog = Dialog {
            local_seq: 1,
            duration: Some(duration),
            ..Dialog::early(ctx, idx, &call_id, local_tag, to.clone(), Role::Caller)
        };
        ctx.obs().counter_add("sip.calls_placed", 1);
        let invite = dialog.invite(&self.cfg, ctx.addr(), session);
        dialog.invite_branch = Some(self.txn.send_request(ctx, invite, self.cfg.outbound_proxy));
        self.dialog_by_idx.insert(idx, call_id.clone());
        self.dialogs.insert(call_id.clone(), Box::new(dialog));
        self.emit_log(ctx, CallEvent::OutgoingCall { call_id, to });
    }

    /// Acknowledges a 2xx to the INVITE whose CSeq number is `seq`
    /// (RFC 3261 §13.2.2.4: the ACK carries the INVITE's CSeq, whatever
    /// the dialog sent since).
    fn send_ack(&mut self, ctx: &mut Ctx<'_>, call_id: &str, seq: u32) {
        let Some(d) = self.dialogs.get(call_id) else {
            return;
        };
        let branch = d.invite_branch.clone().unwrap_or_else(|| Arc::from(""));
        let via = Via::new(SocketAddr::new(ctx.addr(), self.cfg.local_port), &branch);
        let m = d.request(Method::Ack, seq, &self.cfg.aor, Some(via));
        self.txn
            .send_request_with_branch(ctx, m, self.cfg.outbound_proxy, branch);
    }

    /// Hangs up a confirmed call.
    fn send_bye(&mut self, ctx: &mut Ctx<'_>, call_id: &str) {
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        d.local_seq += 1;
        let m = d.request(Method::Bye, d.local_seq, &self.cfg.aor, None);
        self.txn.send_request(ctx, m, self.cfg.outbound_proxy);
        self.end(ctx, call_id, Ending::Bye { by_remote: false });
    }

    /// Sends an in-dialog re-INVITE (RFC 3261 §14) on a confirmed call,
    /// refreshing this side's Contact and SDP. Used after a gateway
    /// handoff renumbered the node: the outbound proxy's ALG rewrites
    /// Contact/SDP to the *new* public address, so the remote endpoint
    /// re-targets signaling and media.
    fn send_reinvite(&mut self, ctx: &mut Ctx<'_>, call_id: &str) {
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        d.local_seq += 1;
        d.reinvite_cseq = Some(d.local_seq);
        // Session id from the clock, not the RNG: re-INVITEs are driven
        // by connectivity events and must not perturb the RNG stream of
        // runs where they never fire.
        let invite = d.invite(&self.cfg, ctx.addr(), ctx.now_us());
        ctx.stats().count("sip.reinvite_tx", 1);
        d.invite_branch = Some(self.txn.send_request(ctx, invite, self.cfg.outbound_proxy));
    }

    /// Cancels a caller-side dialog that is still ringing (RFC 3261 §9):
    /// CANCEL copies the INVITE's Request-URI, Call-ID, From and CSeq
    /// number. The 487 that follows terminates the dialog.
    fn send_cancel(&mut self, ctx: &mut Ctx<'_>, call_id: &str) {
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        d.cancelled = true;
        let m = d.request(Method::Cancel, d.local_seq, &self.cfg.aor, None);
        self.txn.send_request(ctx, m, self.cfg.outbound_proxy);
    }

    /// Answers `invite` with 200 on transaction `key`: our Contact and the
    /// SDP answer to its offer, built by [`answer_ok`] and kept for the
    /// rebranch replay. `session` gives the answer's session id, asked
    /// only when the offer parses: the RNG for a first answer, the clock
    /// for a re-INVITE.
    fn answer(
        &mut self,
        ctx: &mut Ctx<'_>,
        call_id: &str,
        key: &str,
        invite: &SipMessage,
        session: impl FnOnce(&mut Ctx<'_>) -> u64,
    ) {
        let contact = NameAddr::new(self.cfg.contact(ctx.addr())).to_string();
        let mut body = String::new();
        if let Ok(offer) = invite.body().parse::<Sdp>() {
            let session = session(ctx);
            let rtp = SocketAddr::new(ctx.addr(), self.cfg.rtp_port);
            if let Some(a) = offer.answer(&self.cfg.aor.user, session, rtp) {
                body = a.to_string();
            }
        }
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        let ok = answer_ok(invite, &d.local_tag, d.answer_resp.insert((contact, body)));
        self.txn.respond(ctx, key, ok);
    }

    /// Handles an in-dialog re-INVITE on the callee side: adopt the
    /// peer's refreshed Contact/SDP, answer 200 with our current
    /// endpoints, and re-home the media session if the peer's RTP
    /// endpoint moved.
    fn on_reinvite(&mut self, ctx: &mut Ctx<'_>, key: &Arc<str>, msg: &SipMessage, call_id: &str) {
        ctx.stats().count("sip.reinvite_rx", 1);
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        let prev_rtp = d.remote_rtp;
        if let Some(c) = msg.contact() {
            d.remote_target = Some(c.uri);
        }
        if let Ok(offer) = msg.body().parse::<Sdp>() {
            d.remote_rtp = Some(offer.rtp_endpoint());
        }
        let new_rtp = d.remote_rtp;
        // A retransmitted re-INVITE replays this 200 (the rebranch path).
        d.invite_cseq = msg.cseq();
        d.invite_key = Some(key.clone());
        // Clock-derived session id for the same determinism reason as
        // `send_reinvite`.
        self.answer(ctx, call_id, key, msg, |ctx| ctx.now_us());
        if let Some(rtp) = new_rtp.filter(|_| prev_rtp != new_rtp) {
            self.start_media(ctx, call_id, rtp);
        }
    }

    fn start_media(&self, ctx: &mut Ctx<'_>, call_id: &str, remote: SocketAddr) {
        ctx.span_instant(SpanCat::Media, "media.start", Some(call_id));
        let call_id = call_id.to_owned();
        ctx.emit(LocalEvent::MediaStart { call_id, remote });
    }

    // ------------------------------------------------------------------
    // Milestones
    // ------------------------------------------------------------------

    /// Confirms dialog `call_id`: the one place a call is established,
    /// the caller's on a 200 it has ACKed, the callee's on the ACK of its
    /// 200. Closes the setup span, ok only when the peer's SDP named an
    /// RTP endpoint. With one, counts the call, records its setup time,
    /// starts media and logs `Established`. A caller then arms its
    /// hang-up.
    fn establish(&mut self, ctx: &mut Ctx<'_>, call_id: &str) {
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        d.state = DialogState::Confirmed;
        d.pending_invite = None;
        let (remote_rtp, duration, idx) = (d.remote_rtp, d.duration, d.idx);
        let setup = d.setup.close(ctx, remote_rtp.is_some());
        if let Some(rtp) = remote_rtp {
            ctx.obs().counter_add("sip.calls_established", 1);
            ctx.obs().hist_record("sip.call_setup_us", setup);
            self.start_media(ctx, call_id, rtp);
            let call_id = call_id.to_owned();
            let ev = CallEvent::Established {
                call_id,
                remote_rtp: rtp,
            };
            self.emit_log(ctx, ev);
        }
        if let Some(dur) = duration {
            ctx.set_timer(dur, tok(TAG_BYE, idx));
        }
    }

    /// Ends dialog `call_id` the way `ending` says: the one place a call
    /// ends. Terminates the dialog, stops media after a BYE, closes a
    /// setup span still open, and logs `Terminated` or `Failed`. A dialog
    /// already over is left as it is.
    fn end(&mut self, ctx: &mut Ctx<'_>, call_id: &str, ending: Ending) {
        let Some(d) = self.dialogs.get_mut(call_id) else {
            return;
        };
        if !d.terminate(ctx.now(), &mut self.terminated) {
            return;
        }
        // `Ok(by_remote)` for a call torn down, `Err(code)` for a setup
        // that failed.
        let outcome = match ending {
            Ending::Bye { by_remote } => Ok(by_remote),
            Ending::Cancelled => Ok(true),
            Ending::Refused(_) if d.cancelled => Ok(false),
            Ending::Refused(code) => Err(Some(code)),
            Ending::TimedOut => Err(None),
        };
        if let Ending::Bye { .. } = ending {
            ctx.span_instant(SpanCat::Media, "media.stop", Some(call_id));
            let call_id = call_id.to_owned();
            ctx.emit(LocalEvent::MediaStop { call_id });
        }
        d.setup.close(ctx, false);
        let call_id = call_id.to_owned();
        let ev = match outcome {
            Ok(by_remote) => CallEvent::Terminated { call_id, by_remote },
            Err(code) => CallEvent::Failed { call_id, code },
        };
        self.emit_log(ctx, ev);
    }

    /// The Call-IDs of every dialog `pred` holds for, in Call-ID order.
    fn call_ids(&self, pred: impl Fn(&Dialog) -> bool) -> Vec<String> {
        let matching = self.dialogs.values().filter(|d| pred(d));
        matching.map(|d| d.call_id.clone()).collect()
    }

    /// The Call-ID of dialog `idx`, while it lives and `pred` holds for
    /// it: what a dialog's timer token resolves to.
    fn call_id_at(&self, idx: u64, pred: impl Fn(&Dialog) -> bool) -> Option<String> {
        let call_id = self.dialog_by_idx.get(&idx)?;
        let d = self.dialogs.get(call_id)?;
        pred(d).then(|| call_id.clone())
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
            let same_peer = from.tag() == d.remote_tag.as_deref();
            let retransmit = d.role == Role::Callee
                && d.state != DialogState::Terminated
                && same_peer
                && msg.cseq() == d.invite_cseq;
            if retransmit {
                ctx.stats().count("sip.invite_rebranch", 1);
                if let Some(answer) = &d.answer_resp {
                    // Rebuild against *this* flight's Via stack — the
                    // stored 200 answers the original (possibly mangled)
                    // request and would route back along dead branches.
                    let ok = answer_ok(&msg, &d.local_tag, answer);
                    self.txn.respond(ctx, &key, ok);
                } else {
                    let ringing = tagged_response(&msg, StatusCode::RINGING, &d.local_tag);
                    if let Some(d) = self.dialogs.get_mut(&call_id) {
                        // Answer on the clean transaction when it fires.
                        d.invite_key = Some(key.clone());
                        d.pending_invite = Some(Box::new(msg));
                    }
                    self.txn.respond(ctx, &key, ringing);
                }
            } else {
                // A genuine in-dialog re-INVITE: confirmed dialog, the
                // peer's tag matches, and the CSeq advanced past the
                // original INVITE. Anything else (spurious mid-setup
                // INVITE, mangled tag) still busies out.
                let in_dialog = d.state == DialogState::Confirmed
                    && same_peer
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
        let local_tag = new_tag(ctx);
        // Build the ringing response before the INVITE moves into the
        // dialog — the pending request is stored, never cloned.
        let ringing = tagged_response(&msg, StatusCode::RINGING, &local_tag);
        let remote_aor = from.uri.aor();
        let dialog = Dialog {
            remote_tag: from.tag().map(str::to_owned),
            remote_target: msg.contact().map(|c| c.uri),
            remote_rtp: msg.body().parse::<Sdp>().ok().map(|s| s.rtp_endpoint()),
            invite_key: Some(key.clone()),
            invite_cseq: msg.cseq(),
            pending_invite: Some(Box::new(msg)),
            ..Dialog::early(ctx, idx, &call_id, local_tag, remote_aor, Role::Callee)
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

    /// Answers a call still ringing; it is established when the ACK
    /// arrives.
    fn answer_call(&mut self, ctx: &mut Ctx<'_>, idx: u64) {
        let Some(call_id) = self.call_id_at(idx, Dialog::early_callee) else {
            return;
        };
        let Some(d) = self.dialogs.get_mut(&call_id) else {
            return;
        };
        let Some(key) = d.invite_key.clone() else {
            return;
        };
        // Move the stored INVITE out for the answer; it goes back below.
        let Some(invite) = d.pending_invite.take() else {
            return;
        };
        self.answer(ctx, &call_id, &key, &invite, |ctx| {
            ctx.rng().next_u64() >> 1
        });
        if let Some(d) = self.dialogs.get_mut(&call_id) {
            d.pending_invite = Some(invite);
        }
    }

    fn on_bye(&mut self, ctx: &mut Ctx<'_>, key: Arc<str>, msg: SipMessage) {
        let resp = SipMessage::response_to(&msg, StatusCode::OK);
        self.txn.respond(ctx, &key, resp);
        if let Some(call_id) = msg.call_id() {
            self.end(ctx, call_id, Ending::Bye { by_remote: true });
        }
    }

    fn on_cancel(&mut self, ctx: &mut Ctx<'_>, key: Arc<str>, msg: SipMessage) {
        let resp = SipMessage::response_to(&msg, StatusCode::OK);
        self.txn.respond(ctx, &key, resp);
        let Some(call_id) = msg.call_id() else {
            return;
        };
        let Some(d) = self.dialogs.get(call_id).filter(|d| d.early_callee()) else {
            return;
        };
        if let (Some(ikey), Some(invite)) = (&d.invite_key, &d.pending_invite) {
            let resp = tagged_response(invite, StatusCode::TERMINATED, &d.local_tag);
            self.txn.respond(ctx, ikey, resp);
        }
        self.end(ctx, call_id, Ending::Cancelled);
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
        let Some(cseq) = msg.cseq() else { return };
        if cseq.method != "INVITE" {
            // BYE and other in-dialog responses need no action.
            return;
        }
        let Some(d) = self.dialogs.get_mut(&call_id) else {
            return;
        };
        if status == StatusCode::RINGING && d.state == DialogState::Early {
            if !std::mem::replace(&mut d.rang, true) {
                self.emit_log(ctx, CallEvent::Ringing { call_id });
            }
        } else if status.is_success() {
            if d.state == DialogState::Terminated {
                // A retransmitted 200 that outlived the call (we sent
                // BYE meanwhile): the peer still wants its ACK, but
                // the dialog stays over.
                self.send_ack(ctx, &call_id, cseq.seq);
                return;
            }
            let was_early = d.state == DialogState::Early;
            let prev_rtp = d.remote_rtp;
            d.remote_tag = msg.to_header().and_then(|t| t.tag().map(str::to_owned));
            if let Some(c) = msg.contact() {
                d.remote_target = Some(c.uri);
            }
            if let Ok(sdp) = msg.body().parse::<Sdp>() {
                d.remote_rtp = Some(sdp.rtp_endpoint());
            }
            // Only the 200 answering *our* outstanding re-INVITE may
            // re-home media: a duplicated (or corrupted) retransmit of
            // the original 200 must stay a bare re-ACK.
            let reinvite_done = !was_early && d.reinvite_cseq == Some(cseq.seq);
            if reinvite_done {
                d.reinvite_cseq = None;
            }
            let remote_rtp = d.remote_rtp;
            // Always (re-)ACK, also for retransmitted 200s.
            self.send_ack(ctx, &call_id, cseq.seq);
            if was_early {
                self.establish(ctx, &call_id);
            } else if reinvite_done {
                ctx.stats().count("sip.reinvite_ok", 1);
                if let Some(rtp) = remote_rtp.filter(|_| prev_rtp != remote_rtp) {
                    self.start_media(ctx, &call_id, rtp);
                }
            }
        } else if status.is_final() {
            if d.state == DialogState::Early {
                self.end(ctx, &call_id, Ending::Refused(status.0));
            } else {
                // A refused re-INVITE ends the dialog too, unlogged and
                // with media left running — RFC 3261 § 14.1 would keep
                // the dialog as it was.
                d.terminate(ctx.now(), &mut self.terminated);
            }
        }
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
        if msg.method() != Some(Method::Invite) {
            return;
        }
        let Some(call_id) = msg.call_id() else {
            return;
        };
        if self
            .dialogs
            .get(call_id)
            .is_some_and(|d| d.state == DialogState::Early)
        {
            self.end(ctx, call_id, Ending::TimedOut);
        }
    }
}

impl Process for UserAgent {
    fn name(&self) -> &'static str {
        "voip-app"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(self.cfg.local_port);
        ctx.take_local(&[LocalKind::InternetUp]);
        // After a crash (a REGISTER went out before), every transaction
        // and dialog lost its timers: drop them all, and register anew.
        let restart = self.register_cseq > 0;
        for d in self.dialogs.values_mut() {
            d.setup.close(ctx, false);
        }
        self.dialogs.clear();
        self.dialog_by_idx.clear();
        self.terminated.clear();
        self.txn = TransactionLayer::new(self.cfg.local_port);
        ctx.span_exit(self.register_span, false);
        self.register_span = SpanId::NONE;
        self.registered = false;
        self.auth_inflight = false;
        self.settle(ctx);
        self.send_register(
            ctx,
            self.cfg.register_expires.as_micros() as u32 / 1_000_000,
        );
        // Refresh at half-life.
        ctx.set_timer(self.cfg.register_expires / 2, tok(TAG_REGISTER, 0));
        // A restart arms only actions still ahead: one whose time has come
        // ran before the crash or fell in the outage, never twice.
        for (i, action) in self.cfg.script.iter().enumerate() {
            if restart && action.at <= ctx.now() {
                continue;
            }
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
                if let Some(call_id) = msg.call_id() {
                    if self.dialogs.get(call_id).is_some_and(|d| d.early_callee()) {
                        self.establish(ctx, call_id);
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
        let LocalEvent::InternetUp { public } = *ev else {
            return;
        };
        let previous = self.last_public.replace(public);
        if previous.is_none_or(|prev| prev == public) {
            return;
        }
        // The node was renumbered mid-session (gateway handoff). Every
        // confirmed Internet call still names the dead lease in its
        // Contact/SDP on the remote side; re-INVITE so the proxy ALG
        // stamps the new public address and the peer re-targets media.
        let internet_calls = self.call_ids(|d| {
            d.state == DialogState::Confirmed && d.remote_rtp.is_some_and(|r| r.addr.is_public())
        });
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
        let confirmed = |d: &Dialog| d.state == DialogState::Confirmed;
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
                        for id in self.call_ids(confirmed) {
                            self.send_bye(ctx, &id);
                        }
                        let ringing = |d: &Dialog| {
                            d.state == DialogState::Early && d.role == Role::Caller && !d.cancelled
                        };
                        for id in self.call_ids(ringing) {
                            self.send_cancel(ctx, &id);
                        }
                    }
                    ActionKind::ReinviteAll => {
                        for id in self.call_ids(confirmed) {
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
                if let Some(call_id) = self.call_id_at(idx, confirmed) {
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
    use siphoc_simnet::trace::TraceKind;

    /// What one call costs the dialog B-tree inline, lingering included
    /// (eleven entries a leaf): the key and a pointer.
    const DIALOG_ENTRY_BYTES: usize = 32;

    /// Ceiling on the boxed dialog itself: tags, targets and CSeqs, but
    /// no pre-rendered header strings and no inline INVITE.
    const DIALOG_INLINE_MAX: usize = 384;

    #[test]
    fn a_dialog_entry_is_a_key_and_a_pointer() {
        let entry = std::mem::size_of::<(String, Box<Dialog>)>();
        assert_eq!(entry, DIALOG_ENTRY_BYTES);
    }

    #[test]
    fn a_dialog_holds_no_rendered_headers() {
        let dialog = std::mem::size_of::<Dialog>();
        assert!(dialog <= DIALOG_INLINE_MAX, "dialog is {dialog} B");
    }

    /// Back-to-back test without a proxy: two UAs pointing their
    /// "outbound proxy" directly at each other's SIP port, with static
    /// routes. Exercises INVITE/180/200/ACK/media/BYE end-to-end. There
    /// is no registrar: each UA's REGISTER reaches the peer UA, which
    /// answers 500.
    fn b2b_world() -> (World, UaLogHandle, UaLogHandle) {
        b2b_world_with(SimDuration::from_secs(5), |cfg| cfg, |cfg| cfg)
    }

    /// [`b2b_world`] with the scripted call lasting `talk`, and the
    /// caller's and the callee's configurations passed through `caller`
    /// and `callee` last.
    fn b2b_world_with(
        talk: SimDuration,
        caller: impl FnOnce(UaConfig) -> UaConfig,
        callee: impl FnOnce(UaConfig) -> UaConfig,
    ) -> (World, UaLogHandle, UaLogHandle) {
        let mut w = World::new(WorldConfig::new(21).with_radio(RadioConfig::ideal()));
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        for (from, next_hop) in [(a, ba), (b, aa)] {
            let route = Route {
                next_hop,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            };
            w.install_route(from, next_hop, route);
        }

        let alice = Aor::new("alice", "voicehoc.ch");
        let bob = Aor::new("bob", "voicehoc.ch");
        let cfg_a = UaConfig::new(alice, SocketAddr::new(ba, 5070));
        let cfg_a = caller(cfg_a.call_at(SimTime::from_secs(1), bob.clone(), talk));
        let cfg_b = callee(UaConfig::new(bob, SocketAddr::new(aa, 5070)));
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
        let (mut w, log_a, log_b) = b2b_world_with(
            SimDuration::ZERO,
            |cfg| then(cfg, SimTime::from_secs(3), ActionKind::HangupAll),
            |cfg| cfg,
        );
        w.install_fault_plan(FaultPlan::new().packet_fault(
            LinkSelector::From(NodeId(1)),
            PacketFaultKind::Duplicate,
            1.0,
            SimTime::ZERO,
            SimTime::MAX,
        ));
        w.trace_mut().set_enabled(true);
        w.run_for(SimDuration::from_secs(10));
        let terminated = |log: &UaLogHandle| {
            log.borrow()
                .count(|e| matches!(e, CallEvent::Terminated { .. }))
        };
        assert_eq!(terminated(&log_a), 1, "{:?}", log_a.borrow().events());
        assert_eq!(terminated(&log_b), 1, "{:?}", log_b.borrow().events());
        // INVITE, ACK, BYE and the re-ACK the duplicate is still owed —
        // not a second BYE from `HangupAll` finding a revived call. Both
        // ACKs carry the INVITE's CSeq, the re-ACK after the BYE too.
        let call: Vec<String> = sent_sip(&w, NodeId(0))
            .iter()
            .filter_map(|m| m.headers().get("CSeq").map(str::to_owned))
            .filter(|cseq| !cseq.ends_with(" REGISTER"))
            .collect();
        assert_eq!(call, ["1 INVITE", "1 ACK", "2 BYE", "1 ACK"]);
    }

    /// `cfg` with `kind` scripted at `at`.
    fn then(mut cfg: UaConfig, at: SimTime, kind: ActionKind) -> UaConfig {
        cfg.script.push(ScriptedAction { at, kind });
        cfg
    }

    /// Every SIP message node `from` put on the air, in order.
    fn sent_sip(w: &World, from: NodeId) -> Vec<SipMessage> {
        w.trace()
            .entries()
            .filter(|e| e.node == from && e.kind == TraceKind::RadioTx)
            .filter_map(|e| SipMessage::parse(&String::from_utf8_lossy(&e.dgram.payload)).ok())
            .collect()
    }

    /// Relays the caller's requests to the callee, rewriting the Via
    /// branch of the first INVITE — a first flight mangled in transit.
    struct BranchMangler {
        callee: SocketAddr,
        mangled: bool,
    }

    const MANGLER_PORT: u16 = 5999;

    impl Process for BranchMangler {
        fn name(&self) -> &'static str {
            "branch-mangler"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(MANGLER_PORT);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
            let mut text = String::from_utf8_lossy(&dgram.payload).into_owned();
            if !self.mangled && text.starts_with("INVITE ") {
                self.mangled = true;
                text = text.replacen("branch=z9hG4bK", "branch=z9hG4bKmangled", 1);
            }
            ctx.send_to(self.callee, MANGLER_PORT, text.into_bytes());
        }
    }

    /// [`b2b_world`] with the caller's requests relayed through a
    /// [`BranchMangler`] on its own node, traced.
    fn rebranch_world() -> (World, UaLogHandle) {
        let (mut w, log_a, _log_b) = b2b_world_with(
            SimDuration::from_secs(5),
            |mut cfg| {
                cfg.outbound_proxy = SocketAddr::new(Addr::manet(0), MANGLER_PORT);
                cfg
            },
            |cfg| cfg,
        );
        let callee = SocketAddr::new(w.node(NodeId(1)).addr(), 5070);
        w.spawn(
            NodeId(0),
            Box::new(BranchMangler {
                callee,
                mangled: false,
            }),
        );
        w.trace_mut().set_enabled(true);
        (w, log_a)
    }

    #[test]
    fn rebranched_invite_retransmit_replays_the_first_200() {
        // The callee answers the mangled first INVITE on a transaction the
        // caller never matches; the caller's retransmit arrives on a fresh
        // one and must get the same 200 back.
        let (mut w, log_a) = rebranch_world();
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(w.stats(NodeId(1)).get("sip.invite_rebranch").packets, 1);
        assert!(log_a
            .borrow()
            .any(|e| matches!(e, CallEvent::Established { .. })));
        let oks: Vec<SipMessage> = sent_sip(&w, NodeId(1))
            .into_iter()
            .filter(|m| m.status() == Some(StatusCode::OK) && m.method() == Some(Method::Invite))
            .collect();
        let mangled = |m: &SipMessage| m.top_via().unwrap().branch.contains("mangled");
        let first = oks
            .iter()
            .find(|m| mangled(m))
            .expect("200 on the mangled branch");
        let replay = oks
            .iter()
            .find(|m| !mangled(m))
            .expect("200 on the fresh branch");
        for name in ["To", "Contact"] {
            assert_eq!(
                replay.headers().get(name),
                first.headers().get(name),
                "{name}"
            );
        }
        assert!(!first.body().is_empty());
        assert_eq!(replay.body(), first.body());
    }

    /// The bytes of the messages no golden digest pins: a CANCEL while
    /// ringing, its 200 and the 487; a re-INVITE on a confirmed call, its
    /// 200 and the ACK; and the 200 replayed on a rebranched INVITE. One
    /// FNV-1a over every SIP payload the three flows put on the air.
    #[test]
    fn cancel_reinvite_and_replay_keep_their_bytes() {
        const PINNED: u64 = 0x9d4a_9b65_2a8b_5b26;
        let mut air = Vec::new();
        let mut run = |mut w: World| {
            w.trace_mut().set_enabled(true);
            w.run_for(SimDuration::from_secs(4));
            let mut lines = Vec::new();
            for e in w.trace().entries().filter(|e| e.kind == TraceKind::RadioTx) {
                air.extend_from_slice(&e.dgram.payload);
                let text = String::from_utf8_lossy(&e.dgram.payload).into_owned();
                let cseq = SipMessage::parse(&text).ok().and_then(|m| m.cseq());
                let first = text.lines().next().unwrap_or("").to_owned();
                lines.push((first, cseq.map(|c| c.to_string()).unwrap_or_default()));
            }
            lines
        };
        let sent = |lines: &[(String, String)], start: &str, cseq: &str| {
            lines.iter().any(|(l, c)| l.starts_with(start) && c == cseq)
        };

        // The caller hangs up 100 ms into the callee's 200 ms ring.
        let hangup = |cfg| then(cfg, SimTime::from_millis(1_100), ActionKind::HangupAll);
        let (w, _, _) = b2b_world_with(SimDuration::from_secs(5), hangup, |cfg| cfg);
        let lines = run(w);
        assert!(sent(&lines, "CANCEL ", "1 CANCEL"), "{lines:?}");
        assert!(sent(&lines, "SIP/2.0 200", "1 CANCEL"), "{lines:?}");
        assert!(sent(&lines, "SIP/2.0 487", "1 INVITE"), "{lines:?}");

        let reinvite = |cfg| then(cfg, SimTime::from_secs(2), ActionKind::ReinviteAll);
        let (w, _, _) = b2b_world_with(SimDuration::from_secs(5), reinvite, |cfg| cfg);
        let lines = run(w);
        assert!(sent(&lines, "INVITE ", "2 INVITE"), "{lines:?}");
        assert!(sent(&lines, "SIP/2.0 200", "2 INVITE"), "{lines:?}");
        assert!(sent(&lines, "ACK ", "2 ACK"), "{lines:?}");

        let (w, _) = rebranch_world();
        let lines = run(w);
        let oks = lines
            .iter()
            .filter(|(l, c)| l.starts_with("SIP/2.0 200") && c == "1 INVITE");
        assert!(oks.count() >= 2, "{lines:?}");

        let got = siphoc_simnet::ident::h64(&air);
        assert_eq!(got, PINNED, "got {got:#018x}");
    }

    #[test]
    fn ringing_is_logged_once_per_dialog() {
        // The callee never answers: each INVITE retransmit draws another
        // 180 until the INVITE times out.
        let (mut w, log_a, _log_b) = b2b_world_with(
            SimDuration::from_secs(5),
            |cfg| cfg,
            |mut cfg| {
                cfg.auto_answer = false;
                cfg
            },
        );
        w.trace_mut().set_enabled(true);
        w.run_for(SimDuration::from_secs(40));
        let ringing = sent_sip(&w, NodeId(1))
            .iter()
            .filter(|m| m.status() == Some(StatusCode::RINGING))
            .count();
        assert!(ringing > 1, "{ringing} 180s");
        let a = log_a.borrow();
        assert_eq!(
            a.count(|e| matches!(e, CallEvent::Ringing { .. })),
            1,
            "{:?}",
            a.events()
        );
        assert!(a.any(|e| matches!(e, CallEvent::Failed { code: None, .. })));
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
        let cfg = UaConfig::new(
            Aor::new("alice", "voicehoc.ch"),
            SocketAddr::new(Addr::manet(99), 5060),
        )
        .call_at(
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
            events: Rc<RefCell<Vec<LocalEvent>>>,
        }
        impl Process for MediaProbe {
            fn name(&self) -> &'static str {
                "media-probe"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.take_local(&[LocalKind::MediaStart, LocalKind::MediaStop]);
            }
            fn on_local_event(&mut self, _ctx: &mut Ctx<'_>, ev: &LocalEvent) {
                if matches!(
                    ev,
                    LocalEvent::MediaStart { .. } | LocalEvent::MediaStop { .. }
                ) {
                    self.events.borrow_mut().push(ev.clone());
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
        // The start carries the peer's RTP endpoint; the stop names the
        // same call.
        let Some(LocalEvent::MediaStart { call_id, remote }) = evs.first() else {
            panic!("{evs:?}");
        };
        assert_eq!(*remote, "10.0.0.2:8000".parse::<SocketAddr>().unwrap());
        assert!(
            evs.iter()
                .any(|e| matches!(e, LocalEvent::MediaStop { call_id: c } if c == call_id)),
            "{evs:?}"
        );
    }
}
