//! Typed SIP header values.
//!
//! A message's headers are one text buffer and a span index into it
//! ([`crate::msg::Headers`]): a lookup returns a slice of that text, and
//! nothing is parsed until a caller asks for a typed view. This module
//! provides the views the stack actually computes with: `Via` (routing
//! of responses), name-addr values (`From`/`To`/`Contact` with tags) and
//! `CSeq`. Each parses from, and renders back to, one header value.

use std::fmt;
use std::str::FromStr;

use siphoc_simnet::net::SocketAddr;

use crate::uri::{ParseUriError, SipUri};

/// Magic cookie every RFC 3261 branch parameter starts with.
pub const BRANCH_COOKIE: &str = "z9hG4bK";

/// A `Via` header value: `SIP/2.0/UDP host:port;branch=...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Via {
    /// The `host:port` the message was sent from.
    pub sent_by: SocketAddr,
    /// The branch parameter (transaction id).
    pub branch: String,
    /// `received` parameter, when a downstream element recorded the actual
    /// source address.
    pub received: Option<SocketAddr>,
}

impl Via {
    /// Creates a Via for a message sent from `sent_by` with `branch`.
    pub fn new(sent_by: SocketAddr, branch: &str) -> Via {
        Via {
            sent_by,
            branch: branch.to_owned(),
            received: None,
        }
    }

    /// Where a response to this Via should be sent.
    pub fn response_target(&self) -> SocketAddr {
        self.received.unwrap_or(self.sent_by)
    }
}

impl fmt::Display for Via {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SIP/2.0/UDP {};branch={}", self.sent_by, self.branch)?;
        if let Some(r) = self.received {
            write!(f, ";received={}", r.addr)?;
        }
        Ok(())
    }
}

/// Error when parsing a typed header value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHeaderError {
    header: &'static str,
    input: String,
}

impl ParseHeaderError {
    fn new(header: &'static str, input: &str) -> ParseHeaderError {
        ParseHeaderError {
            header,
            input: input.to_owned(),
        }
    }
}

impl fmt::Display for ParseHeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} header: {:?}", self.header, self.input)
    }
}

impl std::error::Error for ParseHeaderError {}

impl From<ParseUriError> for ParseHeaderError {
    fn from(e: ParseUriError) -> ParseHeaderError {
        ParseHeaderError {
            header: "uri",
            input: e.to_string(),
        }
    }
}

impl FromStr for Via {
    type Err = ParseHeaderError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseHeaderError::new("Via", s);
        let rest = s.trim().strip_prefix("SIP/2.0/UDP").ok_or_else(err)?;
        let rest = rest.trim_start();
        let mut parts = rest.split(';');
        let sent_by: SocketAddr = parts
            .next()
            .ok_or_else(err)?
            .trim()
            .parse()
            .map_err(|_| err())?;
        let mut branch = None;
        let mut received = None;
        for p in parts {
            let p = p.trim();
            if let Some(b) = p.strip_prefix("branch=") {
                branch = Some(b.to_owned());
            } else if let Some(r) = p.strip_prefix("received=") {
                let addr = r.parse().map_err(|_| err())?;
                received = Some(SocketAddr::new(addr, sent_by.port));
            }
        }
        Ok(Via {
            sent_by,
            branch: branch.ok_or_else(err)?,
            received,
        })
    }
}

/// A name-addr header value: `"Display" <sip:uri>;tag=...` — the shape of
/// `From`, `To` and `Contact`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameAddr {
    /// Optional display name.
    pub display: Option<String>,
    /// The wrapped URI.
    pub uri: SipUri,
    /// Header parameters (after the closing `>`), notably `tag`.
    pub params: Vec<(String, String)>,
}

impl NameAddr {
    /// Wraps a URI with no display name or parameters.
    pub fn new(uri: SipUri) -> NameAddr {
        NameAddr {
            display: None,
            uri,
            params: Vec::new(),
        }
    }

    /// The `tag` parameter, if present.
    pub fn tag(&self) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("tag"))
            .map(|(_, v)| v.as_str())
    }

    /// Sets (or replaces) the `tag` parameter.
    pub fn set_tag(&mut self, tag: &str) {
        self.params.retain(|(n, _)| !n.eq_ignore_ascii_case("tag"));
        self.params.push(("tag".to_owned(), tag.to_owned()));
    }

    /// Returns self with the tag set (builder style).
    pub fn with_tag(mut self, tag: &str) -> NameAddr {
        self.set_tag(tag);
        self
    }

    /// The `expires` parameter parsed as seconds, if present (Contact).
    pub fn expires_param(&self) -> Option<u32> {
        self.params
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("expires"))
            .and_then(|(_, v)| v.parse().ok())
    }
}

impl fmt::Display for NameAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(d) = &self.display {
            write!(f, "\"{d}\" ")?;
        }
        write!(f, "<{}>", self.uri)?;
        for (n, v) in &self.params {
            write!(f, ";{n}={v}")?;
        }
        Ok(())
    }
}

impl FromStr for NameAddr {
    type Err = ParseHeaderError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseHeaderError::new("name-addr", s);
        let s = s.trim();
        let (display, rest) = if let Some(stripped) = s.strip_prefix('"') {
            let end = stripped.find('"').ok_or_else(err)?;
            (
                Some(stripped[..end].to_owned()),
                stripped[end + 1..].trim_start(),
            )
        } else {
            (None, s)
        };
        let (uri_str, param_str) = if let Some(open) = rest.find('<') {
            let close = rest.find('>').ok_or_else(err)?;
            if close < open {
                return Err(err());
            }
            (&rest[open + 1..close], rest[close + 1..].trim_start())
        } else {
            // addr-spec form without angle brackets: params belong to header.
            match rest.split_once(';') {
                Some((u, p)) => (u, &rest[u.len() + 1..][..p.len()]),
                None => (rest, ""),
            }
        };
        let uri: SipUri = uri_str.trim().parse()?;
        let mut params = Vec::new();
        for p in param_str.split(';') {
            let p = p.trim();
            if p.is_empty() {
                continue;
            }
            let (n, v) = p.split_once('=').ok_or_else(err)?;
            params.push((n.to_owned(), v.to_owned()));
        }
        Ok(NameAddr {
            display,
            uri,
            params,
        })
    }
}

/// A `CSeq` header value: sequence number and method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CSeq {
    /// The sequence number.
    pub seq: u32,
    /// The method name (uppercase).
    pub method: String,
}

impl CSeq {
    /// Creates a CSeq.
    pub fn new(seq: u32, method: &str) -> CSeq {
        CSeq {
            seq,
            method: method.to_owned(),
        }
    }
}

impl fmt::Display for CSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.seq, self.method)
    }
}

impl FromStr for CSeq {
    type Err = ParseHeaderError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseHeaderError::new("CSeq", s);
        let mut it = s.split_whitespace();
        let seq = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let method = it.next().ok_or_else(err)?.to_owned();
        if it.next().is_some() {
            return Err(err());
        }
        Ok(CSeq { seq, method })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn via_round_trip() {
        let v = Via::new("10.0.0.1:5060".parse().unwrap(), "z9hG4bKabc123");
        let s = v.to_string();
        assert_eq!(s, "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bKabc123");
        assert_eq!(s.parse::<Via>().unwrap(), v);
    }

    #[test]
    fn via_with_received_targets_received() {
        let v: Via = "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bKx;received=10.0.0.9"
            .parse()
            .unwrap();
        assert_eq!(v.response_target().to_string(), "10.0.0.9:5060");
    }

    #[test]
    fn via_requires_branch() {
        assert!("SIP/2.0/UDP 10.0.0.1:5060".parse::<Via>().is_err());
        assert!("SIP/2.0/TCP 10.0.0.1:5060;branch=z9hG4bKx"
            .parse::<Via>()
            .is_err());
    }

    #[test]
    fn name_addr_round_trip_with_tag() {
        let na: NameAddr = "\"Alice\" <sip:alice@voicehoc.ch>;tag=77aa"
            .parse()
            .unwrap();
        assert_eq!(na.display.as_deref(), Some("Alice"));
        assert_eq!(na.tag(), Some("77aa"));
        assert_eq!(na.to_string(), "\"Alice\" <sip:alice@voicehoc.ch>;tag=77aa");
    }

    #[test]
    fn name_addr_without_brackets() {
        let na: NameAddr = "sip:bob@10.0.0.2:5060".parse().unwrap();
        assert_eq!(na.uri.to_string(), "sip:bob@10.0.0.2:5060");
        assert!(na.tag().is_none());
    }

    #[test]
    fn set_tag_replaces_existing() {
        let mut na = NameAddr::new("sip:x@y.z".parse().unwrap()).with_tag("a");
        na.set_tag("b");
        assert_eq!(na.tag(), Some("b"));
        assert_eq!(na.params.len(), 1);
    }

    #[test]
    fn cseq_round_trip() {
        let c: CSeq = "314159 INVITE".parse().unwrap();
        assert_eq!(c, CSeq::new(314159, "INVITE"));
        assert_eq!(c.to_string(), "314159 INVITE");
        assert!("oops INVITE".parse::<CSeq>().is_err());
        assert!("1".parse::<CSeq>().is_err());
        assert!("1 INVITE extra".parse::<CSeq>().is_err());
    }
}
