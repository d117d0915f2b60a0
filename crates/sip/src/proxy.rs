//! Stateless proxy primitives (RFC 3261 §16.11).
//!
//! Both the SIPHoc proxy (`siphoc-core`) and the simulated Internet
//! providers (`siphoc-internet`) forward requests and responses
//! statelessly: requests gain a Via whose branch is **derived
//! deterministically from the incoming top branch**, so retransmissions
//! and the ACK of a 2xx take the same path and keep matching downstream
//! server transactions; responses pop the proxy's Via and follow the next
//! one. End-to-end reliability stays with the user agents' transaction
//! layers.

use siphoc_simnet::net::SocketAddr;
use siphoc_simnet::process::Ctx;

use crate::headers::{Via, BRANCH_COOKIE};
use crate::msg::{SipMessage, StatusCode};

/// Derives the deterministic branch a stateless proxy uses when
/// forwarding a request whose top Via carries `incoming_branch`.
pub fn derive_branch(incoming_branch: &str) -> String {
    // FNV-1a over the incoming branch: stable, cheap, collision-unlikely
    // at simulation scale.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in incoming_branch.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{BRANCH_COOKIE}p{h:016x}")
}

/// Outcome of [`prepare_forward_request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardDecision {
    /// Forward the (rewritten) request.
    Forward(SipMessage),
    /// Max-Forwards exhausted: answer 483/processing error instead.
    Reject(StatusCode),
}

/// Prepares a request for stateless forwarding from `sent_by`:
/// decrements Max-Forwards and pushes the proxy's Via with a derived
/// branch. Does not transmit.
pub fn prepare_forward_request(mut msg: SipMessage, sent_by: SocketAddr) -> ForwardDecision {
    let mf = msg.max_forwards().unwrap_or(70);
    if mf == 0 {
        return ForwardDecision::Reject(StatusCode::SERVER_ERROR);
    }
    msg.headers_mut().set("Max-Forwards", mf - 1);
    let incoming = msg.top_via().map(|v| v.branch).unwrap_or_default();
    let via = Via::new(sent_by, &derive_branch(&incoming));
    msg.headers_mut().push_front("Via", via);
    ForwardDecision::Forward(msg)
}

/// Prepares a response for stateless forwarding: pops the top Via (which
/// must be the proxy's own) and returns the message plus where to send it
/// (the next Via's response target). Returns `None` when no Via remains —
/// the response was addressed to the proxy itself or is malformed.
pub fn prepare_forward_response(mut msg: SipMessage) -> Option<(SipMessage, SocketAddr)> {
    msg.headers_mut().remove_first("Via")?;
    let next = msg.top_via()?;
    let target = next.response_target();
    Some((msg, target))
}

/// Transmits a SIP message from `port` on the current node.
pub fn transmit(ctx: &mut Ctx<'_>, port: u16, msg: &SipMessage, dst: SocketAddr) {
    let wire = msg.to_bytes();
    ctx.stats().count("sip.proxy_fwd", wire.len());
    ctx.send_to(dst, port, wire);
}

/// Builds a stateless response to `req` (no server transaction): mirrors
/// the mandatory headers and adds a To tag if missing.
pub fn stateless_response(req: &SipMessage, code: StatusCode, ctx: &mut Ctx<'_>) -> SipMessage {
    let mut resp = SipMessage::response_to(req, code);
    if let Some(mut to) = resp.to_header() {
        if to.tag().is_none() {
            to.set_tag(&format!("{:08x}", ctx.rng().next_u64() as u32));
            resp.headers_mut().set("To", to);
        }
    }
    resp
}

/// Where a stateless element sends a response it originates: the top
/// Via's response target.
pub fn response_target(req: &SipMessage) -> Option<SocketAddr> {
    req.top_via().map(|v| v.response_target())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Method;
    use crate::uri::SipUri;

    fn req_with_via(branch: &str) -> SipMessage {
        let uri: SipUri = "sip:bob@voicehoc.ch".parse().unwrap();
        let mut m = SipMessage::request(Method::Invite, uri);
        m.headers_mut()
            .push("Via", format!("SIP/2.0/UDP 10.0.0.1:5070;branch={branch}"));
        m.headers_mut().push("Max-Forwards", 70);
        m.headers_mut()
            .push("From", "<sip:alice@voicehoc.ch>;tag=a");
        m.headers_mut().push("To", "<sip:bob@voicehoc.ch>");
        m.headers_mut().push("Call-ID", "c1");
        m.headers_mut().push("CSeq", "1 INVITE");
        m
    }

    #[test]
    fn derive_branch_is_deterministic_and_distinct() {
        let a = derive_branch("z9hG4bKabc");
        let b = derive_branch("z9hG4bKabc");
        let c = derive_branch("z9hG4bKxyz");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with(BRANCH_COOKIE));
    }

    #[test]
    fn forward_request_stacks_via_and_decrements_mf() {
        let req = req_with_via("z9hG4bKorig");
        let sent_by: SocketAddr = "10.0.0.5:5060".parse().unwrap();
        let ForwardDecision::Forward(fwd) = prepare_forward_request(req, sent_by) else {
            panic!("should forward");
        };
        assert_eq!(fwd.max_forwards(), Some(69));
        let vias: Vec<&str> = fwd.headers().get_all("Via").collect();
        assert_eq!(vias.len(), 2);
        assert!(vias[0].contains("10.0.0.5:5060"));
        assert!(vias[0].contains(&derive_branch("z9hG4bKorig")));
    }

    #[test]
    fn exhausted_max_forwards_rejected() {
        let mut req = req_with_via("z9hG4bKorig");
        req.headers_mut().set("Max-Forwards", 0);
        let sent_by: SocketAddr = "10.0.0.5:5060".parse().unwrap();
        assert!(matches!(
            prepare_forward_request(req, sent_by),
            ForwardDecision::Reject(_)
        ));
    }

    #[test]
    fn forward_response_pops_and_targets_next_via() {
        let req = req_with_via("z9hG4bKorig");
        let sent_by: SocketAddr = "10.0.0.5:5060".parse().unwrap();
        let ForwardDecision::Forward(fwd) = prepare_forward_request(req, sent_by) else {
            panic!();
        };
        let resp = SipMessage::response_to(&fwd, StatusCode::OK);
        let (popped, target) = prepare_forward_response(resp).unwrap();
        assert_eq!(target.to_string(), "10.0.0.1:5070");
        assert_eq!(popped.headers().get_all("Via").count(), 1);
        // A response with a single Via has nowhere further to go.
        let resp2 = popped;
        assert!(prepare_forward_response(resp2).is_none());
    }
}
