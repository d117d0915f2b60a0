//! The stateless SIP element (RFC 3261 §16.11).
//!
//! Both the SIPHoc proxy (`siphoc-core`) and the simulated Internet
//! providers (`siphoc-internet`) are one [`StatelessProxy`] plus a
//! routing policy. The element does the rest, each in one place: it
//! sends, forwards a request, answers one, and relays a response.
//! A forwarded request gains a Via whose branch is **derived
//! deterministically from the incoming top branch**, so retransmissions
//! and the ACK of a 2xx take the same path and keep matching downstream
//! server transactions; a relayed response pops the element's Via and
//! follows the next one. End-to-end reliability stays with the user
//! agents' transaction layers.

use std::fmt;

use siphoc_simnet::ident::h64;
use siphoc_simnet::net::{Addr, Datagram, SocketAddr};
use siphoc_simnet::process::Ctx;

use crate::headers::{Via, BRANCH_COOKIE};
use crate::msg::{Method, SipMessage, StatusCode};

/// Max-Forwards assumed when a request carries none (RFC 3261 §8.1.1.6).
const DEFAULT_MAX_FORWARDS: u32 = 70;

/// Derives the deterministic branch a stateless proxy uses when
/// forwarding a request whose top Via carries `incoming_branch`.
pub fn derive_branch(incoming_branch: &str) -> String {
    // FNV-1a over the incoming branch: stable, cheap, collision-unlikely
    // at simulation scale.
    let h = h64(incoming_branch.as_bytes());
    format!("{BRANCH_COOKIE}p{h:016x}")
}

/// The counter names an element reports under.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Every message sent, with its rendered length.
    pub tx: &'static str,
    /// A request not forwarded because its Max-Forwards was 0.
    pub max_forwards_exhausted: &'static str,
    /// A response dropped because its top Via is not the element's.
    pub misrouted: &'static str,
}

/// An edit applied to every message the element forwards or relays, just
/// before it is sent: the message, the element's public alias and the
/// destination.
pub type Edit = fn(&mut SipMessage, Option<Addr>, SocketAddr);

/// One stateless SIP element on one port.
#[derive(Debug)]
pub struct StatelessProxy {
    port: u16,
    counters: Counters,
    edit: Option<Edit>,
    /// A second address of the element's node, when it has one: the
    /// source of whatever it sends toward a public destination.
    public: Option<Addr>,
    /// Reusable render buffer: each send serializes here and copies the
    /// bytes once, into the datagram payload.
    scratch: String,
}

impl StatelessProxy {
    /// An element sending from `port` and counting under `counters`.
    pub fn new(port: u16, counters: Counters) -> StatelessProxy {
        StatelessProxy {
            port,
            counters,
            edit: None,
            public: None,
            scratch: String::new(),
        }
    }

    /// Applies `edit` to every forwarded request and relayed response.
    pub fn with_edit(mut self, edit: Edit) -> StatelessProxy {
        self.edit = Some(edit);
        self
    }

    /// The element's public alias, if it has one.
    pub fn public(&self) -> Option<Addr> {
        self.public
    }

    /// Gives the element a public alias (`Some`) or takes it away.
    pub fn set_public(&mut self, public: Option<Addr>) {
        self.public = public;
    }

    /// `true` when `addr` is one of the element's own addresses.
    pub fn is_own(&self, ctx: &Ctx<'_>, addr: Addr) -> bool {
        addr == ctx.addr() || Some(addr) == self.public
    }

    /// The socket the element sends from toward `dst`: its public alias
    /// toward a public destination, the node's address otherwise. It is
    /// also the sent-by of the Via a forwarded request gains.
    fn source(&self, ctx: &Ctx<'_>, dst: SocketAddr) -> SocketAddr {
        let addr = match self.public {
            Some(public) if dst.addr.is_public() => public,
            _ => ctx.addr(),
        };
        SocketAddr::new(addr, self.port)
    }

    /// Sends `msg` to `dst`.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, msg: &SipMessage, dst: SocketAddr) {
        msg.render_into(&mut self.scratch);
        ctx.stats().count(self.counters.tx, self.scratch.len());
        let src = self.source(ctx, dst);
        ctx.send(Datagram::new(src, dst, self.scratch.as_bytes()));
    }

    /// Sends `resp` to where `req`'s top Via asks responses to go.
    pub fn reply(&mut self, ctx: &mut Ctx<'_>, req: &SipMessage, resp: &SipMessage) {
        if let Some(via) = req.top_via() {
            self.send(ctx, resp, via.response_target());
        }
    }

    /// Answers `req` statelessly with `code` (and `header`, if given),
    /// adding a To tag if it has none. An ACK is never answered.
    pub fn answer(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: &SipMessage,
        code: StatusCode,
        header: Option<(&str, &dyn fmt::Display)>,
    ) {
        if req.method() == Some(Method::Ack) {
            return;
        }
        let mut resp = SipMessage::response_to(req, code);
        if let Some(mut to) = resp.to_header() {
            if to.tag().is_none() {
                to.set_tag(&format!("{:08x}", ctx.rng().next_u64() as u32));
                resp.headers_mut().set("To", to);
            }
        }
        if let Some((name, value)) = header {
            resp.headers_mut().push(name, value);
        }
        self.reply(ctx, req, &resp);
    }

    /// Forwards a request to `dst`: decrements Max-Forwards, pushes the
    /// element's Via with the derived branch, applies the edit and sends.
    /// A request whose Max-Forwards is already 0 is answered 483 instead
    /// (RFC 3261 §16.3 step 3).
    pub fn forward(&mut self, ctx: &mut Ctx<'_>, mut msg: SipMessage, dst: SocketAddr) {
        let mf = msg.max_forwards().unwrap_or(DEFAULT_MAX_FORWARDS);
        if mf == 0 {
            ctx.stats().count(self.counters.max_forwards_exhausted, 1);
            self.answer(ctx, &msg, StatusCode::TOO_MANY_HOPS, None);
            return;
        }
        msg.headers_mut().set("Max-Forwards", mf - 1);
        let incoming = msg.top_via().map(|v| v.branch).unwrap_or_default();
        let via = Via::new(self.source(ctx, dst), &derive_branch(&incoming));
        msg.headers_mut().push_front("Via", via);
        self.edited_send(ctx, msg, dst);
    }

    /// Relays a response: pops the element's own top Via and sends the
    /// response on to the next Via's response target. A response whose
    /// top Via is not the element's is counted and dropped, and so is one
    /// with no Via left.
    pub fn relay(&mut self, ctx: &mut Ctx<'_>, mut msg: SipMessage) {
        let ours = msg
            .top_via()
            .is_some_and(|v| self.is_own(ctx, v.sent_by.addr));
        if !ours {
            ctx.stats().count(self.counters.misrouted, 1);
            return;
        }
        msg.headers_mut().remove_first("Via");
        if let Some(next) = msg.top_via() {
            self.edited_send(ctx, msg, next.response_target());
        }
    }

    fn edited_send(&mut self, ctx: &mut Ctx<'_>, mut msg: SipMessage, dst: SocketAddr) {
        if let Some(edit) = self.edit {
            edit(&mut msg, self.public, dst);
        }
        self.send(ctx, &msg, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_branch_is_deterministic_and_distinct() {
        let a = derive_branch("z9hG4bKabc");
        let b = derive_branch("z9hG4bKabc");
        let c = derive_branch("z9hG4bKxyz");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with(BRANCH_COOKIE));
    }
}
