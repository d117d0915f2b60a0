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

/// An ordered, case-insensitive multimap of SIP headers: one text buffer
/// and a span index into it.
///
/// `text` holds each line's name and value back to back; `items` holds,
/// per line in order, where its name starts, where the name ends and the
/// value starts, and where the value ends. Edits append to `text` and
/// rewrite `items`; the text of a removed or replaced line stays until
/// the set is dropped. Names match case-insensitively, and a compact
/// form (RFC 3261 § 7.3.3) matches its long form; a line keeps the
/// spelling it was written with.
#[derive(Clone, Default)]
pub struct Headers {
    text: String,
    items: Vec<Span>,
}

/// A header line in [`Headers`]' text: name start, name end (the value's
/// start), value end.
type Span = (u32, u32, u32);

/// The long form of a compact header name (RFC 3261 § 7.3.3, and the
/// RFC 3262/3265/3903/4028 names beside it), or `name` itself.
fn long_form(name: &str) -> &str {
    let [c] = name.as_bytes() else {
        return name;
    };
    match c.to_ascii_lowercase() {
        b'c' => "Content-Type",
        b'e' => "Content-Encoding",
        b'f' => "From",
        b'i' => "Call-ID",
        b'k' => "Supported",
        b'l' => "Content-Length",
        b'm' => "Contact",
        b's' => "Subject",
        b't' => "To",
        b'v' => "Via",
        _ => name,
    }
}

/// Whether the line at `span` of `text` is named `long`, a long form.
fn named(text: &str, &(start, mid, _): &Span, long: &str) -> bool {
    long_form(&text[start as usize..mid as usize]).eq_ignore_ascii_case(long)
}

/// `n` as a text offset.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("header text stays under 4 GiB")
}

impl Headers {
    /// Creates an empty header set.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Empty header set with room for `lines` lines of `text` bytes.
    fn with_capacity(lines: usize, text: usize) -> Headers {
        Headers {
            text: String::with_capacity(text),
            items: Vec::with_capacity(lines),
        }
    }

    fn name(&self, &(start, mid, _): &Span) -> &str {
        &self.text[start as usize..mid as usize]
    }

    fn value(&self, &(_, mid, end): &Span) -> &str {
        &self.text[mid as usize..end as usize]
    }

    /// Appends `name`, then what `value` writes, to the text; returns
    /// the line's span.
    fn append(&mut self, name: &str, value: impl FnOnce(&mut String)) -> Span {
        let start = offset(self.text.len());
        self.text.push_str(name);
        let mid = offset(self.text.len());
        value(&mut self.text);
        (start, mid, offset(self.text.len()))
    }

    /// Appends a line whose value is text already.
    fn push_line(&mut self, name: &str, value: &str) {
        let span = self.append(name, |text| text.push_str(value));
        self.items.push(span);
    }

    /// Appends a header.
    pub fn push(&mut self, name: &str, value: impl fmt::Display) {
        let span = self.append(name, |text| {
            let _ = write!(text, "{value}");
        });
        self.items.push(span);
    }

    /// Prepends a header (used for Via stacking at proxies).
    pub fn push_front(&mut self, name: &str, value: impl fmt::Display) {
        let span = self.append(name, |text| {
            let _ = write!(text, "{value}");
        });
        self.items.insert(0, span);
    }

    /// First value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        let long = long_form(name);
        let span = self
            .items
            .iter()
            .find(|span| named(&self.text, span, long))?;
        Some(self.value(span))
    }

    /// All values of `name`, in order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let long = long_form(name);
        self.items
            .iter()
            .filter(move |span| named(&self.text, span, long))
            .map(|span| self.value(span))
    }

    /// Replaces every occurrence of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl fmt::Display) {
        self.remove(name);
        self.push(name, value);
    }

    /// Removes every occurrence of `name`.
    pub fn remove(&mut self, name: &str) {
        let long = long_form(name);
        self.items.retain(|span| !named(&self.text, span, long));
    }

    /// Removes the *first* occurrence of `name` (Via popping) and returns
    /// its value.
    pub fn remove_first(&mut self, name: &str) -> Option<&str> {
        let long = long_form(name);
        let idx = self
            .items
            .iter()
            .position(|span| named(&self.text, span, long))?;
        let span = self.items.remove(idx);
        Some(self.value(&span))
    }

    /// Iterates `(name, value)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.items
            .iter()
            .map(|span| (self.name(span), self.value(span)))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Bytes the set holds on the heap: its text buffer and its index.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity() + self.items.capacity() * std::mem::size_of::<Span>()
    }
}

/// Two sets are equal when they hold the same lines in the same order,
/// whatever text their edits left behind.
impl PartialEq for Headers {
    fn eq(&self, other: &Headers) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Headers {}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
        let mut h = Headers::with_capacity(8, headers.text.len());
        for via in headers.get_all("Via") {
            h.push_line("Via", via);
        }
        for name in ["From", "To", "Call-ID", "CSeq"] {
            if let Some(v) = headers.get(name) {
                h.push_line(name, v);
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
        if u32::try_from(head.len()).is_err() {
            return Err(ParseMsgError::new("header section too long"));
        }
        let mut lines = head.split("\r\n");
        let start = lines
            .next()
            .ok_or_else(|| ParseMsgError::new("empty message"))?;

        // One index slot per line feed: exact for CRLF-only text.
        let line_feeds = head.bytes().filter(|&b| b == b'\n').count();
        let mut headers = Headers::with_capacity(line_feeds, head.len());
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (n, v) = line
                .split_once(':')
                .ok_or_else(|| ParseMsgError::new("header line without colon"))?;
            headers.push_line(n.trim(), v.trim());
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

    /// Ceiling on a message inline: the start line's parts, the header
    /// text and its span index, and the body.
    const SIP_MESSAGE_INLINE_MAX: usize = 160;

    #[test]
    fn a_sip_message_is_its_parts_inline() {
        let size = std::mem::size_of::<SipMessage>();
        assert!(size <= SIP_MESSAGE_INLINE_MAX, "SipMessage is {size} B");
    }

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
        assert_eq!(resp.headers().get_all("Via").count(), 1);
        assert_eq!(resp.from_header().unwrap().tag(), Some("1928"));
    }

    #[test]
    fn via_stacking_pops_in_order() {
        let mut m = sample_invite();
        m.headers_mut()
            .push_front("Via", "SIP/2.0/UDP 10.0.0.9:5060;branch=z9hG4bKproxy");
        let vias: Vec<&str> = m.headers().get_all("Via").collect();
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

    /// RFC 3261 § 7.3.3: a compact name is the same header as its long
    /// form, for every lookup and edit, and is rendered as written.
    #[test]
    fn compact_header_names_are_their_long_forms() {
        let wire = "INVITE sip:bob@voicehoc.ch SIP/2.0\r\n\
            v: SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKc1\r\n\
            Via: SIP/2.0/UDP 10.0.0.7:5060;branch=z9hG4bKc2\r\n\
            f: <sip:alice@voicehoc.ch>;tag=1\r\n\
            T: <sip:bob@voicehoc.ch>\r\n\
            i: c1@10.0.0.1\r\n\
            CSeq: 1 INVITE\r\n\
            m: <sip:alice@10.0.0.1:5070>\r\n\
            l: 0\r\n\r\n";
        let mut m = SipMessage::parse(wire).unwrap();
        assert_eq!(m.top_via().unwrap().branch, "z9hG4bKc1");
        assert_eq!(m.headers().get_all("via").count(), 2);
        assert_eq!(m.headers().get("V"), m.headers().get("Via"));
        assert_eq!(m.from_header().unwrap().tag(), Some("1"));
        assert!(m.to_header().is_some());
        assert_eq!(m.call_id(), Some("c1@10.0.0.1"));
        assert!(m.contact().is_some());
        assert_eq!(m.headers().get("Content-Length"), Some("0"));
        assert_eq!(m.to_wire(), wire);
        let resp = SipMessage::response_to(&m, StatusCode::OK);
        assert_eq!(resp.headers().get_all("Via").count(), 2);
        assert_eq!(resp.call_id(), Some("c1@10.0.0.1"));
        m.headers_mut().set("Content-Length", 3);
        assert_eq!(m.headers().get_all("l").collect::<Vec<_>>(), ["3"]);
        assert_eq!(
            m.headers_mut().remove_first("VIA"),
            Some("SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKc1")
        );
        m.headers_mut().remove("v");
        assert!(m.top_via().is_none());
        assert_eq!(m.headers().len(), 6);
    }

    #[test]
    fn method_parse_rejects_unknown() {
        assert!("SUBSCRIBE".parse::<Method>().is_err());
        assert_eq!("INVITE".parse::<Method>().unwrap(), Method::Invite);
    }

    #[test]
    fn status_classification() {
        assert!(!StatusCode::RINGING.is_final());
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::NOT_FOUND.is_final());
        assert!(!StatusCode::NOT_FOUND.is_success());
    }
}
