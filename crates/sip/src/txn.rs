//! SIP transaction layer (RFC 3261 §17 subset, UDP only).
//!
//! User agents and registrars embed a [`TransactionLayer`] to get reliable
//! request/response exchanges over the lossy MANET: client transactions
//! retransmit with T1 exponential backoff until a response or timeout;
//! server transactions absorb retransmitted requests by replaying their
//! last response, and retransmit final INVITE responses until acknowledged.
//!
//! Deviations from the RFC, chosen for simplicity and documented here:
//!
//! * the ACK for a 2xx reuses the INVITE's branch, so it matches the
//!   server transaction directly (stateless proxies on the path derive
//!   their branch deterministically from the incoming branch, preserving
//!   the match end-to-end);
//! * 2xx responses to INVITE are retransmitted by the server *transaction*
//!   rather than the TU;
//! * client transactions linger in `Completed` until their overall timer
//!   fires, re-surfacing retransmitted finals so the TU can re-ACK;
//! * a transaction retains only what its remaining states can still read,
//!   so one that merely lingers (64×T1 after its final) costs bytes, not
//!   parsed messages:
//!
//!   | role, state              | retained beyond ids, timers and target        |
//!   |--------------------------|-----------------------------------------------|
//!   | client `Trying`          | the request (retransmitted; handed to the TU on timeout) and its CSeq method |
//!   | client `Completed`       | the CSeq method (the response match check)    |
//!   | server `Proceeding`      | last provisional as rendered bytes, if any    |
//!   | server `Completed`/`Confirmed` | the final as rendered bytes (the same buffer the first transmission carried) and whether it was a 2xx |

use std::sync::Arc;

use siphoc_simnet::fasthash::FastMap;
use siphoc_simnet::net::{Payload, SocketAddr};
use siphoc_simnet::process::Ctx;
use siphoc_simnet::time::SimDuration;

use crate::headers::{Via, BRANCH_COOKIE};
use crate::msg::{Method, SipMessage};

/// RTT estimate and base retransmission interval (RFC 3261 §17.1.1.1
/// `T1`).
const T1: SimDuration = SimDuration::from_millis(500);
/// Retransmission interval cap (§17.1.2.2 `T2`).
const T2: SimDuration = SimDuration::from_secs(4);
/// Overall transaction lifetime, 64 × `T1` (§17 Timers B, F, H and J).
pub const TXN_LIFETIME: SimDuration = SimDuration::from_micros(64 * T1.as_micros());

/// Events the transaction layer surfaces to its transaction user.
/// Branch and key identifiers are shared `Arc<str>`s — the TU stores them
/// in its dialogs without copying the string.
#[derive(Debug)]
pub enum TxnEvent {
    /// A response matched a client transaction (provisional, final, or a
    /// re-surfaced retransmitted final).
    Response {
        /// Branch of the matching client transaction.
        branch: Arc<str>,
        /// The response.
        msg: SipMessage,
    },
    /// A new request arrived; answer it with
    /// [`TransactionLayer::respond`] using `key`.
    Request {
        /// Server-transaction key for responding.
        key: Arc<str>,
        /// The request.
        msg: SipMessage,
        /// Transport-level source.
        from: SocketAddr,
    },
    /// An ACK confirmed a final response (2xx ACKs are surfaced so the TU
    /// can complete its dialog; non-2xx ACKs are absorbed internally).
    Ack {
        /// The ACK request.
        msg: SipMessage,
    },
    /// A client transaction exhausted its retransmissions.
    Timeout {
        /// Branch of the timed-out transaction.
        branch: Arc<str>,
        /// The original request.
        msg: SipMessage,
    },
}

enum ClientState {
    /// No final yet: the request is retransmitted, and handed back to the
    /// TU if the transaction times out. Boxed, so that the table slots of
    /// lingering `Completed` transactions do not reserve room for it.
    Trying(Box<SipMessage>),
    /// A final arrived; nothing reads the request any more.
    Completed,
}

struct ClientTxn {
    branch: Arc<str>,
    /// CSeq method of the request, which a matching response must repeat.
    cseq_method: Option<String>,
    dst: SocketAddr,
    state: ClientState,
    interval: SimDuration,
    invite: bool,
    /// When the first flight left, for the `sip.txn_rtt_us` histogram.
    started_us: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    Proceeding,
    Completed,
    Confirmed,
}

struct ServerTxn {
    id: u64,
    /// The last response as transmitted, replayed byte for byte, and
    /// whether it was a 2xx (decides if an ACK is surfaced to the TU).
    last_response: Option<(Payload, bool)>,
    response_target: SocketAddr,
    state: ServerState,
    interval: SimDuration,
    invite: bool,
}

const KIND_RETRANS: u64 = 0;
const KIND_TIMEOUT: u64 = 1;
const KIND_SRV_RETRANS: u64 = 2;
const KIND_SRV_CLEANUP: u64 = 3;

/// The transaction layer. Embed one per SIP element (UA, registrar).
pub struct TransactionLayer {
    local_port: u16,
    token_base: u64,
    next_id: u64,
    clients: FastMap<Arc<str>, ClientTxn>,
    /// Timer-token id → branch, so timer dispatch is O(1) instead of a
    /// scan over every live transaction.
    client_by_id: FastMap<u64, Arc<str>>,
    servers: FastMap<Arc<str>, ServerTxn>,
    server_by_id: FastMap<u64, Arc<str>>,
    /// Reusable render buffer: every outgoing message is serialized here
    /// and copied once into its datagram payload, so steady-state
    /// transmit allocates only that payload.
    scratch: String,
}

impl std::fmt::Debug for TransactionLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionLayer")
            .field("clients", &self.clients.len())
            .field("servers", &self.servers.len())
            .finish_non_exhaustive()
    }
}

fn server_key(branch: &str, method: Method) -> String {
    // ACK matches its INVITE transaction.
    let m = match method {
        Method::Ack => Method::Invite,
        other => other,
    };
    let m = m.as_str();
    let mut key = String::with_capacity(branch.len() + 1 + m.len());
    key.push_str(branch);
    key.push('|');
    key.push_str(m);
    key
}

impl TransactionLayer {
    /// Creates a layer sending from `local_port`. Timer tokens the layer
    /// arms all satisfy [`TransactionLayer::owns_token`] with respect to
    /// `token_base`; the owning process must route those tokens to
    /// [`TransactionLayer::on_timer`]. Pick a base whose low 32 bits are
    /// zero and which does not collide with the owner's own tokens.
    pub fn new(local_port: u16, token_base: u64) -> TransactionLayer {
        TransactionLayer {
            local_port,
            token_base,
            next_id: 0,
            clients: FastMap::default(),
            client_by_id: FastMap::default(),
            servers: FastMap::default(),
            server_by_id: FastMap::default(),
            scratch: String::new(),
        }
    }

    /// Whether `token` belongs to this layer.
    pub fn owns_token(&self, token: u64) -> bool {
        token & !0xffff_ffff == self.token_base
    }

    /// Live transactions in either role — the `sip.txn_active` gauge.
    pub fn active_count(&self) -> usize {
        self.clients.len() + self.servers.len()
    }

    /// Generates a fresh RFC 3261 branch value.
    pub fn new_branch(&mut self, ctx: &mut Ctx<'_>) -> String {
        format!("{BRANCH_COOKIE}{:016x}", ctx.rng().next_u64())
    }

    /// Timer token of one transaction deadline; every deadline is one ctx
    /// timer at the RFC-exact instant.
    fn token(&self, id: u64, kind: u64) -> u64 {
        self.token_base | (id << 2) | kind
    }

    /// Renders `msg` through the scratch buffer into payload bytes — the
    /// one copy a transmission makes.
    fn render(scratch: &mut String, msg: &SipMessage) -> Payload {
        msg.render_into(scratch);
        Payload::from(scratch.as_bytes())
    }

    /// Sends rendered bytes and counts them, optionally under an extra
    /// counter first (retransmit/replay bookkeeping).
    fn send(&self, ctx: &mut Ctx<'_>, dst: SocketAddr, wire: Payload, extra: Option<&'static str>) {
        if let Some(name) = extra {
            ctx.stats().count(name, wire.len());
        }
        ctx.stats().count("sip.txn_tx", wire.len());
        ctx.send_to(dst, self.local_port, wire);
    }

    /// Starts a client transaction: stamps a new Via (sent from this node
    /// and port), transmits, and arms retransmission and timeout timers.
    /// Returns the branch identifying the transaction.
    pub fn send_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut msg: SipMessage,
        dst: SocketAddr,
    ) -> Arc<str> {
        let branch = self.new_branch(ctx);
        let via = Via::new(SocketAddr::new(ctx.addr(), self.local_port), &branch);
        msg.headers_mut().push_front("Via", via);
        let branch: Arc<str> = branch.into();
        self.send_request_with_branch(ctx, msg, dst, branch.clone());
        branch
    }

    /// Starts a client transaction for a message that already carries its
    /// top Via with `branch` (used when the caller controls Via contents,
    /// e.g. to reuse the INVITE branch on a 2xx ACK).
    pub fn send_request_with_branch(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: SipMessage,
        dst: SocketAddr,
        branch: Arc<str>,
    ) {
        let invite = msg.method() == Some(Method::Invite);
        let is_ack = msg.method() == Some(Method::Ack);
        let wire = Self::render(&mut self.scratch, &msg);
        self.send(ctx, dst, wire, None);
        if is_ack {
            return; // ACK is fire-and-forget at the transaction layer.
        }
        let id = self.next_id;
        self.next_id += 1;
        let txn = ClientTxn {
            branch: branch.clone(),
            cseq_method: msg.cseq().map(|c| c.method),
            dst,
            state: ClientState::Trying(Box::new(msg)),
            interval: T1,
            invite,
            started_us: ctx.now_us(),
        };
        ctx.set_timer(T1, self.token(id, KIND_RETRANS));
        ctx.set_timer(TXN_LIFETIME, self.token(id, KIND_TIMEOUT));
        self.client_by_id.insert(id, branch.clone());
        self.clients.insert(branch, txn);
    }

    /// Sends a response for the server transaction `key`; final responses
    /// to INVITE are retransmitted until acknowledged.
    pub fn respond(&mut self, ctx: &mut Ctx<'_>, key: &str, resp: SipMessage) {
        let Some(txn) = self.servers.get_mut(key) else {
            return;
        };
        let target = txn.response_target;
        let status = resp.status();
        let is_final = status.is_some_and(|s| s.is_final());
        let (id, invite) = (txn.id, txn.invite);
        if is_final {
            txn.state = ServerState::Completed;
        }
        // Render once; the transaction keeps the very bytes it sends.
        let wire = Self::render(&mut self.scratch, &resp);
        txn.last_response = Some((wire.clone(), status.is_some_and(|s| s.is_success())));
        if is_final {
            if invite {
                ctx.set_timer(T1, self.token(id, KIND_SRV_RETRANS));
            }
            ctx.set_timer(TXN_LIFETIME, self.token(id, KIND_SRV_CLEANUP));
        }
        self.send(ctx, target, wire, None);
    }

    /// Handles a SIP message arriving on the layer's port. Returns the
    /// event the TU must process, if any.
    pub fn on_datagram(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: SipMessage,
        from: SocketAddr,
    ) -> Option<TxnEvent> {
        if msg.is_request() {
            self.on_request(ctx, msg, from)
        } else {
            self.on_response(ctx, msg)
        }
    }

    fn on_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: SipMessage,
        from: SocketAddr,
    ) -> Option<TxnEvent> {
        let method = msg.method()?;
        let via = msg.top_via()?;
        let key = server_key(&via.branch, method);

        if method == Method::Ack {
            match self.servers.get_mut(key.as_str()) {
                Some(txn) => {
                    let final_was_2xx = matches!(txn.last_response, Some((_, true)));
                    let first_ack = txn.state != ServerState::Confirmed;
                    txn.state = ServerState::Confirmed;
                    if final_was_2xx && first_ack {
                        return Some(TxnEvent::Ack { msg });
                    }
                    return None;
                }
                // ACK without a matching transaction: hand to the TU.
                None => return Some(TxnEvent::Ack { msg }),
            }
        }

        if let Some(txn) = self.servers.get(key.as_str()) {
            // Retransmitted request: replay the stored bytes.
            if let Some((wire, _)) = &txn.last_response {
                self.send(
                    ctx,
                    txn.response_target,
                    wire.clone(),
                    Some("sip.txn_replay"),
                );
            }
            return None;
        }

        let id = self.next_id;
        self.next_id += 1;
        let key: Arc<str> = key.into();
        let txn = ServerTxn {
            id,
            last_response: None,
            response_target: via.response_target(),
            state: ServerState::Proceeding,
            interval: T1,
            invite: method == Method::Invite,
        };
        self.server_by_id.insert(id, key.clone());
        self.servers.insert(key.clone(), txn);
        Some(TxnEvent::Request { key, msg, from })
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, msg: SipMessage) -> Option<TxnEvent> {
        let via = msg.top_via()?;
        let txn = self.clients.get_mut(via.branch.as_str())?;
        // CSeq method must match the request's.
        if msg.cseq().map(|c| c.method) != txn.cseq_method {
            return None;
        }
        let final_resp = msg.status().map(|s| s.is_final()).unwrap_or(false);
        if final_resp && matches!(txn.state, ClientState::Trying(_)) {
            // Dropping the request here is what keeps a lingering
            // transaction small.
            txn.state = ClientState::Completed;
            let rtt = ctx.now_us().saturating_sub(txn.started_us);
            ctx.obs().hist_record("sip.txn_rtt_us", rtt);
        }
        let branch = txn.branch.clone();
        Some(TxnEvent::Response { branch, msg })
    }

    /// Handles one of the layer's timer tokens, resolving the one
    /// `(id, kind)` deadline it encodes. O(1): the id maps point straight
    /// at the transaction, no scan.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> Option<TxnEvent> {
        debug_assert!(self.owns_token(token));
        let kind = token & 0b11;
        let id = (token & 0xffff_ffff) >> 2;
        match kind {
            KIND_RETRANS => {
                let branch = self.client_by_id.get(&id)?;
                let txn = self.clients.get_mut(branch)?;
                let ClientState::Trying(msg) = &txn.state else {
                    return None;
                };
                txn.interval = if txn.invite {
                    txn.interval * 2
                } else {
                    (txn.interval * 2).min(T2)
                };
                let (dst, next) = (txn.dst, txn.interval);
                let wire = Self::render(&mut self.scratch, msg);
                self.send(ctx, dst, wire, Some("sip.txn_retx"));
                ctx.set_timer(next, self.token(id, KIND_RETRANS));
                None
            }
            KIND_TIMEOUT => {
                let branch = self.client_by_id.remove(&id)?;
                let txn = self.clients.remove(&branch)?;
                match txn.state {
                    ClientState::Trying(msg) => Some(TxnEvent::Timeout { branch, msg: *msg }),
                    ClientState::Completed => None,
                }
            }
            KIND_SRV_RETRANS => {
                let key = self.server_by_id.get(&id)?;
                let txn = self.servers.get_mut(key)?;
                if txn.state != ServerState::Completed {
                    return None;
                }
                let (wire, _) = txn.last_response.as_ref()?;
                let wire = wire.clone();
                txn.interval = (txn.interval * 2).min(T2);
                let (target, next) = (txn.response_target, txn.interval);
                self.send(ctx, target, wire, Some("sip.txn_retx"));
                ctx.set_timer(next, self.token(id, KIND_SRV_RETRANS));
                None
            }
            KIND_SRV_CLEANUP => {
                let key = self.server_by_id.remove(&id)?;
                self.servers.remove(&key);
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::StatusCode;
    use crate::uri::SipUri;
    use siphoc_simnet::net::Datagram;
    use siphoc_simnet::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Ceiling on a client-transaction table slot: most slots are
    /// `Completed` and lingering, so the request is not in them.
    const CLIENT_TXN_SLOT_MAX: usize = 96;

    #[test]
    fn a_client_transaction_slot_holds_no_request_inline() {
        let slot = std::mem::size_of::<(Arc<str>, ClientTxn)>();
        assert!(slot <= CLIENT_TXN_SLOT_MAX, "slot is {slot} B");
    }

    /// Minimal transaction user: a client that fires one request (OPTIONS
    /// unless `method` is changed) and logs its retransmissions, and a
    /// server that answers or stays silent.
    struct TxnPeer {
        layer: TransactionLayer,
        port: u16,
        send_to: Option<SocketAddr>,
        method: Method,
        answer: bool,
        log: Rc<RefCell<Vec<String>>>,
    }

    impl TxnPeer {
        fn new(
            port: u16,
            send_to: Option<SocketAddr>,
            answer: bool,
        ) -> (TxnPeer, Rc<RefCell<Vec<String>>>) {
            let log = Rc::new(RefCell::new(Vec::new()));
            (
                TxnPeer {
                    layer: TransactionLayer::new(port, 0x1_0000_0000),
                    port,
                    send_to,
                    method: Method::Options,
                    answer,
                    log: log.clone(),
                },
                log,
            )
        }

        fn request(&self, ctx: &mut Ctx<'_>) -> SipMessage {
            let uri: SipUri = "sip:peer@10.0.0.2".parse().unwrap();
            let mut m = SipMessage::request(self.method, uri);
            m.headers_mut().push("From", "<sip:me@10.0.0.1>;tag=a");
            m.headers_mut().push("To", "<sip:peer@10.0.0.2>");
            m.headers_mut()
                .push("Call-ID", format!("cid-{}", ctx.rng().next_u64()));
            m.headers_mut()
                .push("CSeq", format!("1 {}", self.method.as_str()));
            m.headers_mut().push("Max-Forwards", 70);
            m
        }
    }

    impl Process for TxnPeer {
        fn name(&self) -> &'static str {
            "txn-peer"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(self.port);
            if let Some(dst) = self.send_to {
                let msg = self.request(ctx);
                self.layer.send_request(ctx, msg, dst);
            }
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
            let Ok(msg) = SipMessage::parse(&String::from_utf8_lossy(&dgram.payload)) else {
                return;
            };
            match self.layer.on_datagram(ctx, msg, dgram.src) {
                Some(TxnEvent::Request { key, msg, .. }) => {
                    self.log.borrow_mut().push("request".into());
                    if self.answer {
                        let resp = SipMessage::response_to(&msg, StatusCode::OK);
                        self.layer.respond(ctx, &key, resp);
                    }
                }
                Some(TxnEvent::Response { msg, .. }) => {
                    self.log
                        .borrow_mut()
                        .push(format!("response {}", msg.status().unwrap().0));
                }
                Some(TxnEvent::Timeout { .. }) => self.log.borrow_mut().push("timeout".into()),
                Some(TxnEvent::Ack { .. }) => self.log.borrow_mut().push("ack".into()),
                None => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if self.layer.owns_token(token) {
                let retx_before = ctx.stats().get("sip.txn_retx").packets;
                let ev = self.layer.on_timer(ctx, token);
                if ctx.stats().get("sip.txn_retx").packets > retx_before {
                    let ms = ctx.now().as_micros() / 1000;
                    self.log.borrow_mut().push(format!("retx {ms}"));
                }
                if let Some(TxnEvent::Timeout { .. }) = ev {
                    self.log.borrow_mut().push("timeout".into());
                }
            }
        }
    }

    /// A layer driven by hand, one call at a time, outside a world.
    struct HandDriven {
        layer: TransactionLayer,
        rng: SimRng,
        routes: RoutingTable,
        stats: siphoc_simnet::stats::NodeStats,
        obs: siphoc_simnet::obs::NodeObs,
    }

    impl HandDriven {
        fn new() -> HandDriven {
            HandDriven {
                layer: TransactionLayer::new(5080, 0x1_0000_0000),
                rng: SimRng::from_seed_and_stream(7, 0),
                routes: RoutingTable::new(),
                stats: Default::default(),
                obs: Default::default(),
            }
        }

        /// Runs `f` against the layer and returns its result with the
        /// payloads it sent.
        fn call<R>(
            &mut self,
            f: impl FnOnce(&mut TransactionLayer, &mut Ctx<'_>) -> R,
        ) -> (R, Vec<Payload>) {
            let mut effects = Vec::new();
            let mut ctx = Ctx::for_test(
                SimTime::ZERO,
                Addr::manet(0),
                &mut self.rng,
                &mut self.routes,
                &mut self.stats,
                &mut self.obs,
                &mut effects,
            );
            let r = f(&mut self.layer, &mut ctx);
            let sent = effects
                .into_iter()
                .filter_map(|e| match e {
                    siphoc_simnet::process::Effect::Send(d) => Some(d.payload),
                    _ => None,
                })
                .collect();
            (r, sent)
        }
    }

    fn request(method: Method) -> SipMessage {
        let mut m = SipMessage::request(method, "sip:peer@10.0.0.2".parse().unwrap());
        m.headers_mut().push("From", "<sip:me@10.0.0.1>;tag=a");
        m.headers_mut().push("To", "<sip:peer@10.0.0.2>");
        m.headers_mut().push("Call-ID", "cid-1");
        m.headers_mut()
            .push("CSeq", format!("1 {}", method.as_str()));
        m
    }

    fn parsed(wire: &Payload) -> SipMessage {
        SipMessage::parse(std::str::from_utf8(wire).unwrap()).unwrap()
    }

    #[test]
    fn replays_resend_the_first_transmission_byte_for_byte() {
        let peer = SocketAddr::new(Addr::manet(1), 5080);
        let mut invite = request(Method::Invite);
        invite
            .headers_mut()
            .push_front("Via", Via::new(peer, "z9hG4bKreplay"));
        let mut b = HandDriven::new();
        let (ev, _) = b.call(|l, ctx| l.on_datagram(ctx, invite.clone(), peer));
        let Some(TxnEvent::Request { key, .. }) = ev else {
            panic!("first flight must surface: {ev:?}");
        };
        let mut ok = SipMessage::response_to(&invite, StatusCode::OK);
        ok.set_body("v=0\r\n", Some("application/sdp"));
        let ((), first) = b.call(|l, ctx| l.respond(ctx, &key, ok.clone()));
        assert_eq!(first.len(), 1);
        assert_eq!(parsed(&first[0]), ok);

        // A retransmitted INVITE and the server's own 2xx retransmit
        // timer both resend the stored bytes.
        let (ev, replay) = b.call(|l, ctx| l.on_datagram(ctx, invite.clone(), peer));
        assert!(ev.is_none());
        assert_eq!(replay, first);
        let retrans = b.layer.token(0, KIND_SRV_RETRANS);
        let (ev, retx) = b.call(|l, ctx| l.on_timer(ctx, retrans));
        assert!(ev.is_none());
        assert_eq!(retx, first);

        // The stored flag, not a stored message, says the final was a
        // 2xx: the first ACK surfaces, a duplicate does not.
        let mut ack = request(Method::Ack);
        ack.headers_mut()
            .push_front("Via", Via::new(peer, "z9hG4bKreplay"));
        let (ev, _) = b.call(|l, ctx| l.on_datagram(ctx, ack.clone(), peer));
        assert!(matches!(ev, Some(TxnEvent::Ack { .. })), "{ev:?}");
        let (ev, _) = b.call(|l, ctx| l.on_datagram(ctx, ack.clone(), peer));
        assert!(ev.is_none());
    }

    #[test]
    fn completed_client_matches_responses_without_its_request() {
        let dst = SocketAddr::new(Addr::manet(1), 5080);
        let mut b = HandDriven::new();
        let (branch, sent) = b.call(|l, ctx| l.send_request(ctx, request(Method::Options), dst));
        let ok = SipMessage::response_to(&parsed(&sent[0]), StatusCode::OK);
        for flight in ["first", "retransmitted"] {
            let (ev, _) = b.call(|l, ctx| l.on_datagram(ctx, ok.clone(), dst));
            let Some(TxnEvent::Response { branch: got, msg }) = ev else {
                panic!("{flight} final must surface: {ev:?}");
            };
            assert_eq!((got, msg), (branch.clone(), ok.clone()));
        }
        // The CSeq-method check survives the request being dropped.
        let mut wrong = ok.clone();
        wrong.headers_mut().set("CSeq", "1 INVITE");
        let (ev, _) = b.call(|l, ctx| l.on_datagram(ctx, wrong, dst));
        assert!(ev.is_none(), "{ev:?}");
        // Completed: no retransmission, and the timeout only cleans up.
        let (retrans, timeout) = (
            b.layer.token(0, KIND_RETRANS),
            b.layer.token(0, KIND_TIMEOUT),
        );
        let (ev, sent) = b.call(|l, ctx| l.on_timer(ctx, retrans));
        assert!(ev.is_none() && sent.is_empty());
        let (ev, _) = b.call(|l, ctx| l.on_timer(ctx, timeout));
        assert!(ev.is_none());
        assert_eq!(b.layer.active_count(), 0);
    }

    #[test]
    fn timeout_hands_back_the_request_as_sent() {
        let dst = SocketAddr::new(Addr::manet(1), 5080);
        let mut b = HandDriven::new();
        let (branch, sent) = b.call(|l, ctx| l.send_request(ctx, request(Method::Invite), dst));
        let retrans = b.layer.token(0, KIND_RETRANS);
        let (_, retx) = b.call(|l, ctx| l.on_timer(ctx, retrans));
        assert_eq!(retx, sent, "a retransmission repeats the first flight");
        let timeout = b.layer.token(0, KIND_TIMEOUT);
        let (ev, _) = b.call(|l, ctx| l.on_timer(ctx, timeout));
        let Some(TxnEvent::Timeout { branch: got, msg }) = ev else {
            panic!("an unanswered request must time out: {ev:?}");
        };
        assert_eq!((got, msg), (branch, parsed(&sent[0])));
        assert_eq!(b.layer.active_count(), 0);
    }

    fn two_nodes(loss: LossModel) -> (World, NodeId, NodeId) {
        let radio = RadioConfig {
            loss,
            ..RadioConfig::ideal()
        };
        let mut w = World::new(WorldConfig::new(11).with_radio(radio));
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        // Static neighbor routes; the txn tests are not about routing.
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
        (w, a, b)
    }

    #[test]
    fn request_response_over_clean_link() {
        let (mut w, a, b) = two_nodes(LossModel::IDEAL);
        let dst = SocketAddr::new(w.node(b).addr(), 5080);
        let (client, clog) = TxnPeer::new(5080, Some(dst), false);
        let (server, slog) = TxnPeer::new(5080, None, true);
        w.spawn(a, Box::new(client));
        w.spawn(b, Box::new(server));
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(slog.borrow().as_slice(), ["request"]);
        assert_eq!(clog.borrow().as_slice(), ["response 200"]);
    }

    #[test]
    fn retransmission_recovers_from_heavy_loss() {
        // 60% loss per frame: the first attempts will almost surely fail,
        // retransmission must push it through eventually.
        let loss = LossModel {
            base: 0.6,
            clear_fraction: 1.0,
            edge_loss: 0.0,
        };
        let (mut w, a, b) = two_nodes(loss);
        let dst = SocketAddr::new(w.node(b).addr(), 5080);
        let (client, clog) = TxnPeer::new(5080, Some(dst), false);
        let (server, slog) = TxnPeer::new(5080, None, true);
        w.spawn(a, Box::new(client));
        w.spawn(b, Box::new(server));
        w.run_for(SimDuration::from_secs(40));
        assert!(
            slog.borrow().contains(&"request".to_string()),
            "request never arrived"
        );
        assert!(
            clog.borrow().iter().any(|e| e == "response 200"),
            "response never arrived: {:?}",
            clog.borrow()
        );
        // Server saw exactly ONE logical request despite retransmissions.
        assert_eq!(slog.borrow().iter().filter(|e| *e == "request").count(), 1);
    }

    #[test]
    fn unanswered_request_times_out() {
        let (mut w, a, b) = two_nodes(LossModel::IDEAL);
        let dst = SocketAddr::new(w.node(b).addr(), 5080);
        let (client, clog) = TxnPeer::new(5080, Some(dst), false);
        let (server, _slog) = TxnPeer::new(5080, None, false); // never answers
        w.spawn(a, Box::new(client));
        w.spawn(b, Box::new(server));
        w.run_for(SimDuration::from_secs(40));
        assert!(clog.borrow().contains(&"timeout".to_string()));
    }

    /// What an unanswered `method` client transaction logs up to and
    /// including 64×T1 (the peer receives the request and stays silent).
    fn unanswered_schedule(method: Method) -> Vec<String> {
        let (mut w, a, b) = two_nodes(LossModel::IDEAL);
        let dst = SocketAddr::new(w.node(b).addr(), 5080);
        let (mut client, clog) = TxnPeer::new(5080, Some(dst), false);
        client.method = method;
        let (server, _slog) = TxnPeer::new(5080, None, false);
        w.spawn(a, Box::new(client));
        w.spawn(b, Box::new(server));
        w.run_until(SimTime::from_millis(31_999));
        assert!(!clog.borrow().contains(&"timeout".to_string()));
        w.run_until(SimTime::from_secs(32));
        let log = clog.borrow().clone();
        log
    }

    #[test]
    fn unanswered_requests_follow_the_rfc_3261_timer_schedule() {
        let schedule = |retx_ms: &[u64]| -> Vec<String> {
            let retx = retx_ms.iter().map(|ms| format!("retx {ms}"));
            retx.chain(["timeout".to_owned()]).collect()
        };
        // Timer E: T1 doubling, capped at T2 = 4 s; Timer F at 64×T1.
        assert_eq!(
            unanswered_schedule(Method::Options),
            schedule(&[500, 1500, 3500, 7500, 11_500, 15_500, 19_500, 23_500, 27_500, 31_500])
        );
        // Timer A: T1 doubling, uncapped; Timer B at 64×T1.
        assert_eq!(
            unanswered_schedule(Method::Invite),
            schedule(&[500, 1500, 3500, 7500, 15_500, 31_500])
        );
    }
}
