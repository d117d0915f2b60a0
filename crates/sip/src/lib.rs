//! # siphoc-sip
//!
//! An RFC 3261 subset SIP stack: URIs, text wire format, transactions with
//! retransmission over lossy links, registration bindings, SDP
//! offer/answer, and a scriptable user agent — the "out-of-the-box VoIP
//! application" of the paper's demonstrations (Kphone/Twinkle/Minisip
//! stand-in). See the workspace `DESIGN.md` for how it plugs into SIPHoc.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod headers;
pub mod msg;
pub mod proxy;
pub mod registrar;
pub mod sdp;
pub mod txn;
pub mod ua;
pub mod uri;

/// Trace dissector for SIP signaling (ports 5060/5070-range): returns the
/// request line or status line as the info column.
pub fn sip_dissector(port: u16, payload: &[u8]) -> Option<(String, String)> {
    if !(port == 5060 || (5070..5100).contains(&port)) {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let first = text.lines().next()?;
    let looks_sip = first.ends_with("SIP/2.0") || first.starts_with("SIP/2.0 ");
    looks_sip.then(|| ("sip".to_owned(), first.to_owned()))
}
