//! SIP messages: methods, status codes, headers, requests and responses,
//! and the RFC 3261 text wire format.
//!
//! Messages serialize to and parse from real SIP text (`CRLF` line endings,
//! `SIP/2.0` version tokens), so the "out-of-the-box VoIP application"
//! claim of the paper is meaningful in the reproduction: the user agent and
//! the SIPHoc proxy interoperate purely through standard bytes.

use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

use crate::headers::{CSeq, NameAddr, Via};
use crate::uri::SipUri;

/// SIP request methods used by the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Bind an AOR to a contact (RFC 3261 §10).
    Register,
    /// Initiate a session.
    Invite,
    /// Acknowledge a final INVITE response.
    Ack,
    /// Terminate a session.
    Bye,
    /// Cancel a pending INVITE.
    Cancel,
    /// Capability query / keep-alive.
    Options,
}

impl Method {
    /// The canonical uppercase token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Register => "REGISTER",
            Method::Invite => "INVITE",
            Method::Ack => "ACK",
            Method::Bye => "BYE",
            Method::Cancel => "CANCEL",
            Method::Options => "OPTIONS",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Method {
    type Err = ParseMsgError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "REGISTER" => Ok(Method::Register),
            "INVITE" => Ok(Method::Invite),
            "ACK" => Ok(Method::Ack),
            "BYE" => Ok(Method::Bye),
            "CANCEL" => Ok(Method::Cancel),
            "OPTIONS" => Ok(Method::Options),
            _ => Err(ParseMsgError::new("unsupported method")),
        }
    }
}

/// A response status code with its reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 100 Trying.
    pub const TRYING: StatusCode = StatusCode(100);
    /// 180 Ringing.
    pub const RINGING: StatusCode = StatusCode(180);
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 401 Unauthorized.
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    /// 403 Forbidden.
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 408 Request Timeout.
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// 480 Temporarily Unavailable.
    pub const UNAVAILABLE: StatusCode = StatusCode(480);
    /// 486 Busy Here.
    pub const BUSY: StatusCode = StatusCode(486);
    /// 487 Request Terminated.
    pub const TERMINATED: StatusCode = StatusCode(487);
    /// 500 Server Internal Error.
    pub const SERVER_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// Standard reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            100 => "Trying",
            180 => "Ringing",
            200 => "OK",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            408 => "Request Timeout",
            480 => "Temporarily Unavailable",
            486 => "Busy Here",
            487 => "Request Terminated",
            500 => "Server Internal Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// `true` for 1xx.
    pub fn is_provisional(self) -> bool {
        (100..200).contains(&self.0)
    }

    /// `true` for anything ≥ 200.
    pub fn is_final(self) -> bool {
        self.0 >= 200
    }

    /// `true` for 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An ordered, case-insensitive multimap of SIP headers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    items: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty header set.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Empty header set with room for `n` lines (hot-path constructors).
    fn with_capacity(n: usize) -> Headers {
        Headers {
            items: Vec::with_capacity(n),
        }
    }

    /// Appends a header.
    pub fn push(&mut self, name: &str, value: impl fmt::Display) {
        self.items.push((name.to_owned(), value.to_string()));
    }

    /// Prepends a header (used for Via stacking at proxies).
    pub fn push_front(&mut self, name: &str, value: impl fmt::Display) {
        self.items.insert(0, (name.to_owned(), value.to_string()));
    }

    /// First value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.items
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values of `name`, in order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.items
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Replaces every occurrence of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl fmt::Display) {
        self.remove(name);
        self.push(name, value);
    }

    /// Removes every occurrence of `name`.
    pub fn remove(&mut self, name: &str) {
        self.items.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
    }

    /// Removes and returns the *first* occurrence of `name` (Via popping).
    pub fn remove_first(&mut self, name: &str) -> Option<String> {
        let idx = self
            .items
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))?;
        Some(self.items.remove(idx).1)
    }

    /// Iterates `(name, value)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.items.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A SIP message: request or response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SipMessage {
    /// A request.
    Request {
        /// Request method.
        method: Method,
        /// Request-URI.
        uri: SipUri,
        /// Headers.
        headers: Headers,
        /// Body (SDP for INVITE/200).
        body: String,
    },
    /// A response.
    Response {
        /// Status code.
        code: StatusCode,
        /// Headers.
        headers: Headers,
        /// Body.
        body: String,
    },
}

impl SipMessage {
    /// Builds a request with empty headers and body.
    pub fn request(method: Method, uri: SipUri) -> SipMessage {
        SipMessage::Request {
            method,
            uri,
            headers: Headers::new(),
            body: String::new(),
        }
    }

    /// Builds a response to `req`, copying the headers a response must
    /// mirror (Via chain, From, To, Call-ID, CSeq) per RFC 3261 §8.2.6.
    ///
    /// # Panics
    ///
    /// Panics if `req` is a response.
    pub fn response_to(req: &SipMessage, code: StatusCode) -> SipMessage {
        let SipMessage::Request { headers, .. } = req else {
            panic!("response_to called on a response");
        };
        let mut h = Headers::with_capacity(8);
        for via in headers.get_all("Via") {
            h.push("Via", via);
        }
        for name in ["From", "To", "Call-ID", "CSeq"] {
            if let Some(v) = headers.get(name) {
                h.push(name, v);
            }
        }
        SipMessage::Response {
            code,
            headers: h,
            body: String::new(),
        }
    }

    /// Shared view of the headers.
    pub fn headers(&self) -> &Headers {
        match self {
            SipMessage::Request { headers, .. } | SipMessage::Response { headers, .. } => headers,
        }
    }

    /// Mutable view of the headers.
    pub fn headers_mut(&mut self) -> &mut Headers {
        match self {
            SipMessage::Request { headers, .. } | SipMessage::Response { headers, .. } => headers,
        }
    }

    /// The body.
    pub fn body(&self) -> &str {
        match self {
            SipMessage::Request { body, .. } | SipMessage::Response { body, .. } => body,
        }
    }

    /// Replaces the body with `body` rendered and sets Content-Length
    /// (and Content-Type when a type is given).
    pub fn set_body(&mut self, body: impl fmt::Display, content_type: Option<&str>) {
        let body = body.to_string();
        if let Some(ct) = content_type {
            self.headers_mut().set("Content-Type", ct);
        }
        self.headers_mut().set("Content-Length", body.len());
        match self {
            SipMessage::Request { body: b, .. } | SipMessage::Response { body: b, .. } => {
                *b = body;
            }
        }
    }

    /// `true` for requests.
    pub fn is_request(&self) -> bool {
        matches!(self, SipMessage::Request { .. })
    }

    /// The method (of the request, or from CSeq for responses).
    pub fn method(&self) -> Option<Method> {
        match self {
            SipMessage::Request { method, .. } => Some(*method),
            SipMessage::Response { .. } => self.cseq().and_then(|c| c.method.parse().ok()),
        }
    }

    /// The status code, for responses.
    pub fn status(&self) -> Option<StatusCode> {
        match self {
            SipMessage::Response { code, .. } => Some(*code),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Typed header accessors
    // ------------------------------------------------------------------

    /// Top (first) Via, parsed.
    pub fn top_via(&self) -> Option<Via> {
        self.headers().get("Via")?.parse().ok()
    }

    /// `From`, parsed.
    pub fn from_header(&self) -> Option<NameAddr> {
        self.headers().get("From")?.parse().ok()
    }

    /// `To`, parsed.
    pub fn to_header(&self) -> Option<NameAddr> {
        self.headers().get("To")?.parse().ok()
    }

    /// `Contact`, parsed.
    pub fn contact(&self) -> Option<NameAddr> {
        self.headers().get("Contact")?.parse().ok()
    }

    /// `CSeq`, parsed.
    pub fn cseq(&self) -> Option<CSeq> {
        self.headers().get("CSeq")?.parse().ok()
    }

    /// `Call-ID` value.
    pub fn call_id(&self) -> Option<&str> {
        self.headers().get("Call-ID")
    }

    /// `Expires` in seconds.
    pub fn expires(&self) -> Option<u32> {
        self.headers().get("Expires")?.parse().ok()
    }

    /// `Max-Forwards`, if present and numeric.
    pub fn max_forwards(&self) -> Option<u32> {
        self.headers().get("Max-Forwards")?.parse().ok()
    }

    // ------------------------------------------------------------------
    // Wire format
    // ------------------------------------------------------------------

    /// Serializes RFC 3261 wire text into a caller-owned buffer,
    /// replacing its contents. The transaction layer renders every
    /// outgoing message through one reusable scratch buffer, so the
    /// steady-state transmit path performs no per-message allocation.
    pub fn render_into(&self, out: &mut String) {
        out.clear();
        out.reserve(256 + self.body().len());
        match self {
            SipMessage::Request { method, uri, .. } => {
                out.push_str(method.as_str());
                out.push(' ');
                let _ = write!(out, "{uri}");
                out.push_str(" SIP/2.0\r\n");
            }
            SipMessage::Response { code, .. } => {
                out.push_str("SIP/2.0 ");
                let _ = write!(out, "{}", code.0);
                out.push(' ');
                out.push_str(code.reason());
                out.push_str("\r\n");
            }
        }
        for (n, v) in self.headers().iter() {
            out.push_str(n);
            out.push_str(": ");
            out.push_str(v);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(self.body());
    }

    /// Serializes to RFC 3261 wire text.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Serializes to bytes (UTF-8 wire text).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_wire().into_bytes()
    }

    /// Parses a message from wire text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseMsgError`] for anything that is not a well-formed
    /// request or response with the supported methods.
    pub fn parse(input: &str) -> Result<SipMessage, ParseMsgError> {
        let (head, body) = match input.split_once("\r\n\r\n") {
            Some((h, b)) => (h, b),
            None => (input.trim_end_matches("\r\n"), ""),
        };
        let mut lines = head.split("\r\n");
        let start = lines
            .next()
            .ok_or_else(|| ParseMsgError::new("empty message"))?;

        let mut headers = Headers::with_capacity(8);
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (n, v) = line
                .split_once(':')
                .ok_or_else(|| ParseMsgError::new("header line without colon"))?;
            headers.push(n.trim(), v.trim());
        }

        if let Some(rest) = start.strip_prefix("SIP/2.0 ") {
            let mut it = rest.splitn(2, ' ');
            let code: u16 = it
                .next()
                .and_then(|c| c.parse().ok())
                .ok_or_else(|| ParseMsgError::new("bad status code"))?;
            if !(100..700).contains(&code) {
                return Err(ParseMsgError::new("status code out of range"));
            }
            Ok(SipMessage::Response {
                code: StatusCode(code),
                headers,
                body: body.to_owned(),
            })
        } else {
            let mut it = start.split(' ');
            let method: Method = it
                .next()
                .ok_or_else(|| ParseMsgError::new("missing method"))?
                .parse()?;
            let uri: SipUri = it
                .next()
                .ok_or_else(|| ParseMsgError::new("missing request-URI"))?
                .parse()
                .map_err(|_| ParseMsgError::new("bad request-URI"))?;
            match it.next() {
                Some("SIP/2.0") => {}
                _ => return Err(ParseMsgError::new("bad SIP version")),
            }
            Ok(SipMessage::Request {
                method,
                uri,
                headers,
                body: body.to_owned(),
            })
        }
    }
}

/// Error returned for unparseable SIP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMsgError {
    what: &'static str,
}

impl ParseMsgError {
    fn new(what: &'static str) -> ParseMsgError {
        ParseMsgError { what }
    }
}

impl fmt::Display for ParseMsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SIP message: {}", self.what)
    }
}

impl std::error::Error for ParseMsgError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_invite() -> SipMessage {
        let mut m = SipMessage::request(Method::Invite, "sip:bob@voicehoc.ch".parse().unwrap());
        m.headers_mut()
            .push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bK776");
        m.headers_mut().push("Max-Forwards", 70);
        m.headers_mut()
            .push("From", "<sip:alice@voicehoc.ch>;tag=1928");
        m.headers_mut().push("To", "<sip:bob@voicehoc.ch>");
        m.headers_mut().push("Call-ID", "a84b4c76e66710");
        m.headers_mut().push("CSeq", "314159 INVITE");
        m.headers_mut().push("Contact", "<sip:alice@10.0.0.1:5070>");
        m.set_body(
            "v=0\r\no=alice 1 1 IN IP4 10.0.0.1\r\n",
            Some("application/sdp"),
        );
        m
    }

    #[test]
    fn request_wire_round_trip() {
        let m = sample_invite();
        let wire = m.to_wire();
        assert!(wire.starts_with("INVITE sip:bob@voicehoc.ch SIP/2.0\r\n"));
        let parsed = SipMessage::parse(&wire).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn response_wire_round_trip() {
        let req = sample_invite();
        let mut resp = SipMessage::response_to(&req, StatusCode::RINGING);
        resp.headers_mut()
            .push("Contact", "<sip:bob@10.0.0.2:5070>");
        let wire = resp.to_wire();
        assert!(wire.starts_with("SIP/2.0 180 Ringing\r\n"));
        let parsed = SipMessage::parse(&wire).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn response_mirrors_required_headers() {
        let req = sample_invite();
        let resp = SipMessage::response_to(&req, StatusCode::OK);
        assert_eq!(resp.call_id(), Some("a84b4c76e66710"));
        assert_eq!(resp.cseq().unwrap(), CSeq::new(314159, "INVITE"));
        assert_eq!(resp.headers().get_all("Via").len(), 1);
        assert_eq!(resp.from_header().unwrap().tag(), Some("1928"));
    }

    #[test]
    fn via_stacking_pops_in_order() {
        let mut m = sample_invite();
        m.headers_mut()
            .push_front("Via", "SIP/2.0/UDP 10.0.0.9:5060;branch=z9hG4bKproxy");
        let vias = m.headers().get_all("Via");
        assert_eq!(vias.len(), 2);
        assert!(vias[0].contains("10.0.0.9"));
        let popped = m.headers_mut().remove_first("Via").unwrap();
        assert!(popped.contains("10.0.0.9"));
        assert!(m
            .top_via()
            .unwrap()
            .sent_by
            .to_string()
            .contains("10.0.0.1"));
    }

    #[test]
    fn body_and_content_length_are_consistent() {
        let m = sample_invite();
        let len: usize = m.headers().get("Content-Length").unwrap().parse().unwrap();
        assert_eq!(len, m.body().len());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SipMessage::parse("").is_err());
        assert!(SipMessage::parse("HELLO WORLD\r\n\r\n").is_err());
        assert!(SipMessage::parse("INVITE sip:x@y\r\n\r\n").is_err()); // missing version
        assert!(SipMessage::parse("SIP/2.0 9999 Weird\r\n\r\n").is_err());
        assert!(SipMessage::parse("INVITE sip:x@y SIP/2.0\r\nNoColonHere\r\n\r\n").is_err());
    }

    #[test]
    fn headers_case_insensitive_access() {
        let m = sample_invite();
        assert_eq!(m.headers().get("call-id"), Some("a84b4c76e66710"));
        assert_eq!(m.headers().get("CALL-ID"), Some("a84b4c76e66710"));
    }

    #[test]
    fn method_parse_rejects_unknown() {
        assert!("SUBSCRIBE".parse::<Method>().is_err());
        assert_eq!("INVITE".parse::<Method>().unwrap(), Method::Invite);
    }

    #[test]
    fn status_classification() {
        assert!(StatusCode::TRYING.is_provisional());
        assert!(!StatusCode::TRYING.is_final());
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::NOT_FOUND.is_final());
        assert!(!StatusCode::NOT_FOUND.is_success());
    }
}
