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
//!   fires, re-surfacing retransmitted finals so the TU can re-ACK.

use std::sync::Arc;

use siphoc_simnet::fasthash::FastMap;
use siphoc_simnet::net::SocketAddr;
use siphoc_simnet::process::Ctx;
use siphoc_simnet::time::SimDuration;

use crate::headers::{Via, BRANCH_COOKIE};
use crate::msg::{Method, SipMessage};

/// Transaction timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct TxnConfig {
    /// RTT estimate; base retransmission interval (RFC `T1`, 500 ms).
    pub t1: SimDuration,
    /// Retransmission interval cap (RFC `T2`, 4 s).
    pub t2: SimDuration,
    /// Overall transaction lifetime in units of T1 (RFC uses 64).
    pub timeout_t1_multiple: u64,
}

impl Default for TxnConfig {
    fn default() -> TxnConfig {
        TxnConfig {
            t1: SimDuration::from_millis(500),
            t2: SimDuration::from_secs(4),
            timeout_t1_multiple: 64,
        }
    }
}

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Trying,
    Completed,
}

struct ClientTxn {
    branch: Arc<str>,
    msg: SipMessage,
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
    last_response: Option<SipMessage>,
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
    cfg: TxnConfig,
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
    /// exactly once, so steady-state transmit allocates only the datagram
    /// payload itself.
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
    pub fn new(local_port: u16, token_base: u64, cfg: TxnConfig) -> TransactionLayer {
        TransactionLayer {
            cfg,
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

    /// Number of live client transactions.
    pub fn client_count(&self) -> usize {
        self.clients.len()
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

    /// Sends `self.scratch` (already rendered) and counts it, optionally
    /// under an extra counter first (retransmit/replay bookkeeping).
    fn send_scratch(&mut self, ctx: &mut Ctx<'_>, dst: SocketAddr, extra: Option<&'static str>) {
        if let Some(name) = extra {
            ctx.stats().count(name, self.scratch.len());
        }
        ctx.stats().count("sip.txn_tx", self.scratch.len());
        ctx.send_to(dst, self.local_port, self.scratch.as_bytes().to_vec());
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, msg: &SipMessage, dst: SocketAddr) {
        let mut scratch = std::mem::take(&mut self.scratch);
        msg.render_into(&mut scratch);
        self.scratch = scratch;
        self.send_scratch(ctx, dst, None);
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
        self.transmit(ctx, &msg, dst);
        if is_ack {
            return; // ACK is fire-and-forget at the transaction layer.
        }
        let id = self.next_id;
        self.next_id += 1;
        let txn = ClientTxn {
            branch: branch.clone(),
            msg,
            dst,
            state: ClientState::Trying,
            interval: self.cfg.t1,
            invite,
            started_us: ctx.now_us(),
        };
        ctx.set_timer(self.cfg.t1, self.token(id, KIND_RETRANS));
        ctx.set_timer(
            self.cfg.t1 * self.cfg.timeout_t1_multiple,
            self.token(id, KIND_TIMEOUT),
        );
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
        let is_final = resp.status().map(|s| s.is_final()).unwrap_or(false);
        let (id, invite) = (txn.id, txn.invite);
        if is_final {
            txn.state = ServerState::Completed;
        }
        // Render once into the scratch buffer, then store the response
        // without cloning it.
        let mut scratch = std::mem::take(&mut self.scratch);
        resp.render_into(&mut scratch);
        self.scratch = scratch;
        self.servers
            .get_mut(key)
            .expect("looked up above")
            .last_response = Some(resp);
        if is_final {
            if invite {
                ctx.set_timer(self.cfg.t1, self.token(id, KIND_SRV_RETRANS));
            }
            ctx.set_timer(
                self.cfg.t1 * self.cfg.timeout_t1_multiple,
                self.token(id, KIND_SRV_CLEANUP),
            );
        }
        self.send_scratch(ctx, target, None);
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
                    let final_was_2xx = txn
                        .last_response
                        .as_ref()
                        .and_then(SipMessage::status)
                        .map(|s| s.is_success())
                        .unwrap_or(false);
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

        if self.servers.contains_key(key.as_str()) {
            // Retransmitted request: replay the last response, rendered
            // straight from the stored message — no clone.
            let mut scratch = std::mem::take(&mut self.scratch);
            let txn = &self.servers[key.as_str()];
            let target = txn.response_target;
            let has_resp = match &txn.last_response {
                Some(resp) => {
                    resp.render_into(&mut scratch);
                    true
                }
                None => false,
            };
            self.scratch = scratch;
            if has_resp {
                self.send_scratch(ctx, target, Some("sip.txn_replay"));
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
            interval: self.cfg.t1,
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
        if msg.cseq().map(|c| c.method) != txn.msg.cseq().map(|c| c.method) {
            return None;
        }
        let final_resp = msg.status().map(|s| s.is_final()).unwrap_or(false);
        if final_resp && txn.state == ClientState::Trying {
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
                let branch = self.client_by_id.get(&id)?.clone();
                let mut scratch = std::mem::take(&mut self.scratch);
                let mut send = None;
                if let Some(txn) = self.clients.get_mut(&branch) {
                    if txn.state == ClientState::Trying {
                        txn.interval = if txn.invite {
                            txn.interval * 2
                        } else {
                            (txn.interval * 2).min(self.cfg.t2)
                        };
                        txn.msg.render_into(&mut scratch);
                        send = Some((txn.dst, txn.interval));
                    }
                }
                self.scratch = scratch;
                if let Some((dst, next)) = send {
                    self.send_scratch(ctx, dst, Some("sip.txn_retx"));
                    ctx.set_timer(next, self.token(id, KIND_RETRANS));
                }
                None
            }
            KIND_TIMEOUT => {
                let branch = self.client_by_id.remove(&id)?;
                let txn = self.clients.remove(&branch)?;
                if txn.state == ClientState::Trying {
                    Some(TxnEvent::Timeout {
                        branch,
                        msg: txn.msg,
                    })
                } else {
                    None
                }
            }
            KIND_SRV_RETRANS => {
                let key = self.server_by_id.get(&id)?.clone();
                let mut scratch = std::mem::take(&mut self.scratch);
                let mut send = None;
                if let Some(txn) = self.servers.get_mut(&key) {
                    if txn.state == ServerState::Completed {
                        if let Some(resp) = &txn.last_response {
                            resp.render_into(&mut scratch);
                            txn.interval = (txn.interval * 2).min(self.cfg.t2);
                            send = Some((txn.response_target, txn.interval));
                        }
                    }
                }
                self.scratch = scratch;
                if let Some((target, next)) = send {
                    self.send_scratch(ctx, target, Some("sip.txn_retx"));
                    ctx.set_timer(next, self.token(id, KIND_SRV_RETRANS));
                }
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
                    layer: TransactionLayer::new(port, 0x1_0000_0000, TxnConfig::default()),
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
