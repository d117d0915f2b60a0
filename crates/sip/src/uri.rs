//! SIP URIs and addresses-of-record.
//!
//! The subset of RFC 3261 §19.1 the system needs: `sip:user@host[:port]`
//! with an optional parameter list. The *address-of-record* (AOR) — the
//! `user@domain` identity a user registers under, e.g.
//! `sip:Alice@voicehoc.ch` from paper Fig. 2 — is the key MANET SLP stores
//! bindings for.

use std::fmt;
use std::str::FromStr;

use siphoc_simnet::net::{Addr, SocketAddr};

/// A parsed SIP URI.
///
/// # Examples
///
/// ```
/// use siphoc_sip::uri::SipUri;
///
/// let uri: SipUri = "sip:alice@voicehoc.ch".parse()?;
/// assert_eq!(uri.user.as_deref(), Some("alice"));
/// assert_eq!(uri.host, "voicehoc.ch");
/// assert_eq!(uri.to_string(), "sip:alice@voicehoc.ch");
/// # Ok::<(), siphoc_sip::uri::ParseUriError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SipUri {
    /// User part, if any.
    pub user: Option<String>,
    /// Host: a domain name or a textual IP address.
    pub host: String,
    /// Explicit port, if any.
    pub port: Option<u16>,
    /// URI parameters in order, e.g. `[("transport", Some("udp"))]`.
    pub params: Vec<(String, Option<String>)>,
}

impl SipUri {
    /// Builds `sip:user@host`.
    pub fn new(user: &str, host: &str) -> SipUri {
        SipUri {
            user: Some(user.to_owned()),
            host: host.to_owned(),
            port: None,
            params: Vec::new(),
        }
    }

    /// Builds a user-less host URI `sip:host[:port]`.
    pub fn host_only(host: &str, port: Option<u16>) -> SipUri {
        SipUri {
            user: None,
            host: host.to_owned(),
            port,
            params: Vec::new(),
        }
    }

    /// Builds a URI whose host is a numeric simulator address.
    pub fn from_socket(user: Option<&str>, sock: SocketAddr) -> SipUri {
        SipUri {
            user: user.map(str::to_owned),
            host: sock.addr.to_string(),
            port: Some(sock.port),
            params: Vec::new(),
        }
    }

    /// The address-of-record: the URI stripped of port and parameters,
    /// with the host lowercased.
    pub fn aor(&self) -> Aor {
        Aor {
            user: self.user.clone().unwrap_or_default().to_lowercase(),
            domain: self.host.to_lowercase(),
        }
    }

    /// Attempts to interpret the host as a numeric simulator address.
    pub fn socket_addr(&self, default_port: u16) -> Option<SocketAddr> {
        let addr: Addr = self.host.parse().ok()?;
        Some(SocketAddr::new(addr, self.port.unwrap_or(default_port)))
    }
}

impl fmt::Display for SipUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sip:")?;
        if let Some(u) = &self.user {
            write!(f, "{u}@")?;
        }
        write!(f, "{}", self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        for (n, v) in &self.params {
            match v {
                Some(v) => write!(f, ";{n}={v}")?,
                None => write!(f, ";{n}")?,
            }
        }
        Ok(())
    }
}

/// Error returned when a SIP URI fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUriError {
    input: String,
}

impl fmt::Display for ParseUriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SIP URI: {:?}", self.input)
    }
}

impl std::error::Error for ParseUriError {}

impl FromStr for SipUri {
    type Err = ParseUriError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseUriError {
            input: s.to_owned(),
        };
        let rest = s
            .strip_prefix("sip:")
            .or_else(|| s.strip_prefix("SIP:"))
            .ok_or_else(err)?;
        let (core, param_str) = match rest.split_once(';') {
            Some((c, p)) => (c, Some(p)),
            None => (rest, None),
        };
        let (user, hostport) = match core.split_once('@') {
            Some((u, h)) => (Some(u), h),
            None => (None, core),
        };
        if hostport.is_empty() {
            return Err(err());
        }
        let (host, port) = match hostport.rsplit_once(':') {
            Some((h, p)) if p.chars().all(|c| c.is_ascii_digit()) && !p.is_empty() => {
                (h, Some(p.parse().map_err(|_| err())?))
            }
            _ => (hostport, None),
        };
        if host.is_empty() {
            return Err(err());
        }
        if let Some(u) = user {
            if u.is_empty() {
                return Err(err());
            }
        }
        let mut params = Vec::new();
        if let Some(ps) = param_str {
            for p in ps.split(';') {
                if p.is_empty() {
                    return Err(err());
                }
                match p.split_once('=') {
                    Some((n, v)) => params.push((n.to_owned(), Some(v.to_owned()))),
                    None => params.push((p.to_owned(), None)),
                }
            }
        }
        Ok(SipUri {
            user: user.map(str::to_owned),
            host: host.to_owned(),
            port,
            params,
        })
    }
}

/// An address-of-record: the stable `user@domain` identity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Aor {
    /// User part (lowercased).
    pub user: String,
    /// Domain part (lowercased).
    pub domain: String,
}

impl Aor {
    /// Builds an AOR, normalizing case.
    pub fn new(user: &str, domain: &str) -> Aor {
        Aor {
            user: user.to_lowercase(),
            domain: domain.to_lowercase(),
        }
    }

    /// The AOR as a SIP URI.
    pub fn to_uri(&self) -> SipUri {
        SipUri::new(&self.user, &self.domain)
    }
}

impl fmt::Display for Aor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.user, self.domain)
    }
}

impl FromStr for Aor {
    type Err = ParseUriError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Accept both bare "user@domain" and full SIP URIs.
        if let Ok(uri) = s.parse::<SipUri>() {
            if uri.user.is_some() {
                return Ok(uri.aor());
            }
        }
        let (user, domain) = s.split_once('@').ok_or(ParseUriError {
            input: s.to_owned(),
        })?;
        if user.is_empty() || domain.is_empty() {
            return Err(ParseUriError {
                input: s.to_owned(),
            });
        }
        Ok(Aor::new(user, domain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_uri() {
        let u: SipUri = "sip:bob@10.0.0.2:5060;transport=udp;lr".parse().unwrap();
        assert_eq!(u.user.as_deref(), Some("bob"));
        assert_eq!(u.host, "10.0.0.2");
        assert_eq!(u.port, Some(5060));
        assert_eq!(
            u.params,
            [
                ("transport".into(), Some("udp".into())),
                ("lr".into(), None)
            ]
        );
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "sip:alice@voicehoc.ch",
            "sip:bob@10.0.0.2:5060",
            "sip:10.0.0.1:5060",
            "sip:carol@example.org;transport=udp",
        ] {
            let u: SipUri = s.parse().unwrap();
            assert_eq!(u.to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "alice@voicehoc.ch",
            "sip:",
            "sip:@host",
            "sip:user@",
            "sip:a@b;;",
        ] {
            assert!(s.parse::<SipUri>().is_err(), "{s} should fail");
        }
    }

    #[test]
    fn aor_normalizes_case_and_strips_port() {
        let u: SipUri = "sip:Alice@VoiceHoc.CH:5070".parse().unwrap();
        assert_eq!(u.aor(), Aor::new("alice", "voicehoc.ch"));
        assert_eq!(u.aor().to_string(), "alice@voicehoc.ch");
    }

    #[test]
    fn aor_parses_both_forms() {
        assert_eq!(
            "alice@voicehoc.ch".parse::<Aor>().unwrap(),
            Aor::new("alice", "voicehoc.ch")
        );
        assert_eq!(
            "sip:alice@voicehoc.ch".parse::<Aor>().unwrap(),
            Aor::new("alice", "voicehoc.ch")
        );
        assert!("nodomain".parse::<Aor>().is_err());
    }

    #[test]
    fn socket_addr_conversion() {
        let u: SipUri = "sip:bob@10.0.0.2".parse().unwrap();
        let sa = u.socket_addr(5060).unwrap();
        assert_eq!(sa.to_string(), "10.0.0.2:5060");
        let d: SipUri = "sip:bob@voicehoc.ch".parse().unwrap();
        assert!(d.socket_addr(5060).is_none(), "domain is not numeric");
    }

    #[test]
    fn numeric_host_with_port_parses() {
        let u = SipUri::from_socket(Some("alice"), "10.0.0.1:5070".parse().unwrap());
        assert_eq!(u.to_string(), "sip:alice@10.0.0.1:5070");
    }
}
