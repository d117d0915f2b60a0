//! SLP message formats.
//!
//! Every message the SLP daemon sends or takes shares one line-oriented
//! text syntax — a head line, then one [`ServiceEntry`] per line where
//! the message carries entries. Two families:
//!
//! * the **local API** between SLP clients (the SIPHoc proxy, the Gateway
//!   and Connection Providers) and the daemon on `127.0.0.1:427` —
//!   `SRVREG` / `SRVDEREG` / `SRVRQST` / `SRVRQSTX` / `SRVRPLY` /
//!   `SRVACK`, the same for every location service, which the lookup
//!   experiments (E2, E7) rely on; and
//! * the **on-air** messages of the three related-work services (MANET
//!   SLP itself rides routing traffic instead): standard SLP's `MRQST`
//!   floods and their unicast `SRVRPLY` answers, broadcast REGISTER's
//!   `BREG` floods, and Pico SIP's one-hop `PHELLO`.

use std::fmt;
use std::str::{FromStr, SplitAsciiWhitespace};

use siphoc_simnet::net::{Addr, SocketAddr};

use crate::service::{ParseEntryError, ServiceEntry};

/// An SLP API or network message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlpMsg {
    /// Register a service (client → daemon). The daemon assigns origin and
    /// sequence number.
    SrvReg {
        /// Client-chosen exchange id.
        xid: u32,
        /// Service type.
        service_type: String,
        /// Lookup key (empty allowed).
        key: String,
        /// Advertised endpoint.
        contact: SocketAddr,
        /// Requested lifetime in seconds.
        lifetime_secs: u32,
    },
    /// Remove a registration (client → daemon).
    SrvDeReg {
        /// Exchange id.
        xid: u32,
        /// Service type.
        service_type: String,
        /// Lookup key.
        key: String,
    },
    /// Acknowledge a registration (daemon → client).
    SrvAck {
        /// Echoed exchange id.
        xid: u32,
    },
    /// Look up services (client → daemon).
    SrvRqst {
        /// Exchange id.
        xid: u32,
        /// Service type.
        service_type: String,
        /// Lookup key (empty = any of the type).
        key: String,
    },
    /// Exhaustive lookup (client → daemon): always sweep the network —
    /// even when the local registry already holds matches — and reply
    /// with everything known once the sweep settles. Multi-homed clients
    /// use this to discover *additional* providers of a service they
    /// already consume (e.g. standby gateways beyond the active one).
    SrvRqstX {
        /// Exchange id.
        xid: u32,
        /// Service type.
        service_type: String,
        /// Lookup key (empty = any of the type).
        key: String,
    },
    /// Lookup result (daemon → client, or a standard-SLP service agent's
    /// answer to an `MRQST`). Empty means not found.
    SrvRply {
        /// Echoed exchange id (the flood id, answering an `MRQST`).
        xid: u32,
        /// Matching entries.
        entries: Vec<ServiceEntry>,
    },
    /// Standard-SLP multicast-convergence request, flooded hop by hop.
    McastRqst {
        /// Flood originator.
        origin: Addr,
        /// Flood id for duplicate suppression.
        fid: u32,
        /// Remaining flood radius.
        ttl: u8,
        /// Where matching service agents unicast their reply.
        reply_to: SocketAddr,
        /// Service type.
        service_type: String,
        /// Lookup key.
        key: String,
    },
    /// Broadcast REGISTER (Leggio et al.): the originator's own entries,
    /// flooded hop by hop.
    FloodReg {
        /// Flood originator.
        origin: Addr,
        /// Flood id for duplicate suppression.
        fid: u32,
        /// Remaining flood radius.
        ttl: u8,
        /// The originator's registrations.
        entries: Vec<ServiceEntry>,
    },
    /// Proactive HELLO (Pico SIP): everything the sender knows, one hop.
    Hello {
        /// The sender's whole mapping table.
        entries: Vec<ServiceEntry>,
    },
}

fn key_out(key: &str) -> &str {
    if key.is_empty() {
        "-"
    } else {
        key
    }
}

/// Writes one entry per line after the head line.
fn entry_lines(f: &mut fmt::Formatter<'_>, entries: &[ServiceEntry]) -> fmt::Result {
    entries.iter().try_for_each(|e| write!(f, "\n{e}"))
}

impl fmt::Display for SlpMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlpMsg::SrvReg {
                xid,
                service_type,
                key,
                contact,
                lifetime_secs,
            } => {
                write!(
                    f,
                    "SRVREG {xid} {service_type} {} {contact} {lifetime_secs}",
                    key_out(key)
                )
            }
            SlpMsg::SrvDeReg {
                xid,
                service_type,
                key,
            } => {
                write!(f, "SRVDEREG {xid} {service_type} {}", key_out(key))
            }
            SlpMsg::SrvAck { xid } => write!(f, "SRVACK {xid}"),
            SlpMsg::SrvRqst {
                xid,
                service_type,
                key,
            } => {
                write!(f, "SRVRQST {xid} {service_type} {}", key_out(key))
            }
            SlpMsg::SrvRqstX {
                xid,
                service_type,
                key,
            } => {
                write!(f, "SRVRQSTX {xid} {service_type} {}", key_out(key))
            }
            SlpMsg::SrvRply { xid, entries } => {
                write!(f, "SRVRPLY {xid} {}", entries.len())?;
                entry_lines(f, entries)
            }
            SlpMsg::McastRqst {
                origin,
                fid,
                ttl,
                reply_to,
                service_type,
                key,
            } => {
                write!(
                    f,
                    "MRQST {origin} {fid} {ttl} {reply_to} {service_type} {}",
                    key_out(key)
                )
            }
            SlpMsg::FloodReg {
                origin,
                fid,
                ttl,
                entries,
            } => {
                write!(f, "BREG {origin} {fid} {ttl}")?;
                entry_lines(f, entries)
            }
            SlpMsg::Hello { entries } => {
                f.write_str("PHELLO")?;
                entry_lines(f, entries)
            }
        }
    }
}

/// The words of a head line after its kind, read in order.
struct Fields<'a>(SplitAsciiWhitespace<'a>);

impl<'a> Fields<'a> {
    fn word(&mut self, what: &'static str) -> Result<&'a str, ParseEntryError> {
        self.0.next().ok_or(ParseEntryError::new(what))
    }

    fn parse<T: FromStr>(&mut self, what: &'static str) -> Result<T, ParseEntryError> {
        self.word(what)?
            .parse()
            .map_err(|_| ParseEntryError::new(what))
    }

    fn string(&mut self, what: &'static str) -> Result<String, ParseEntryError> {
        self.word(what).map(str::to_owned)
    }

    /// A key; `-` is the empty key.
    fn key(&mut self) -> Result<String, ParseEntryError> {
        let raw = self.word("key")?;
        Ok(if raw == "-" {
            String::new()
        } else {
            raw.to_owned()
        })
    }
}

impl SlpMsg {
    /// Serializes the message.
    pub fn to_wire(&self) -> Vec<u8> {
        self.to_string().into_bytes()
    }

    /// Parses a message from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEntryError`] on malformed input.
    pub fn parse(bytes: &[u8]) -> Result<SlpMsg, ParseEntryError> {
        let text = std::str::from_utf8(bytes).map_err(|_| ParseEntryError::new("utf8"))?;
        let mut lines = text.lines();
        let head = lines.next().ok_or(ParseEntryError::new("empty"))?;
        let mut words = head.split_ascii_whitespace();
        let kind = words.next().ok_or(ParseEntryError::new("kind"))?;
        let mut f = Fields(words);
        // Every line after the head is an entry.
        let rest = |lines: std::str::Lines<'_>| -> Result<Vec<ServiceEntry>, ParseEntryError> {
            lines.map(str::parse).collect()
        };
        Ok(match kind {
            "SRVREG" => SlpMsg::SrvReg {
                xid: f.parse("xid")?,
                service_type: f.string("type")?,
                key: f.key()?,
                contact: f.parse("contact")?,
                lifetime_secs: f.parse("lifetime")?,
            },
            "SRVDEREG" => SlpMsg::SrvDeReg {
                xid: f.parse("xid")?,
                service_type: f.string("type")?,
                key: f.key()?,
            },
            "SRVACK" => SlpMsg::SrvAck {
                xid: f.parse("xid")?,
            },
            "SRVRQST" => SlpMsg::SrvRqst {
                xid: f.parse("xid")?,
                service_type: f.string("type")?,
                key: f.key()?,
            },
            "SRVRQSTX" => SlpMsg::SrvRqstX {
                xid: f.parse("xid")?,
                service_type: f.string("type")?,
                key: f.key()?,
            },
            "SRVRPLY" => {
                let xid = f.parse("xid")?;
                let n: usize = f.parse("count")?;
                // The count comes off the wire: it bounds the loop, not
                // the allocation.
                let mut entries = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let line = lines.next().ok_or(ParseEntryError::new("entry line"))?;
                    entries.push(line.parse()?);
                }
                SlpMsg::SrvRply { xid, entries }
            }
            "MRQST" => SlpMsg::McastRqst {
                origin: f.parse("origin")?,
                fid: f.parse("fid")?,
                ttl: f.parse("ttl")?,
                reply_to: f.parse("reply_to")?,
                service_type: f.string("type")?,
                key: f.key()?,
            },
            "BREG" => SlpMsg::FloodReg {
                origin: f.parse("origin")?,
                fid: f.parse("fid")?,
                ttl: f.parse("ttl")?,
                entries: rest(lines)?,
            },
            "PHELLO" => SlpMsg::Hello {
                entries: rest(lines)?,
            },
            _ => return Err(ParseEntryError::new("unknown kind")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_round_trip() {
        let entry = ServiceEntry::sip_binding(
            "alice@v.ch",
            "10.0.0.1:5060".parse().unwrap(),
            Addr::manet(0),
            1,
            60,
        );
        let msgs = vec![
            SlpMsg::SrvReg {
                xid: 1,
                service_type: "sip".into(),
                key: "alice@v.ch".into(),
                contact: "10.0.0.1:5060".parse().unwrap(),
                lifetime_secs: 120,
            },
            SlpMsg::SrvDeReg {
                xid: 2,
                service_type: "sip".into(),
                key: "alice@v.ch".into(),
            },
            SlpMsg::SrvAck { xid: 3 },
            SlpMsg::SrvRqst {
                xid: 4,
                service_type: "gateway".into(),
                key: String::new(),
            },
            SlpMsg::SrvRqstX {
                xid: 9,
                service_type: "gateway".into(),
                key: String::new(),
            },
            SlpMsg::SrvRply {
                xid: 5,
                entries: vec![entry.clone(), entry.clone()],
            },
            SlpMsg::SrvRply {
                xid: 6,
                entries: vec![],
            },
            SlpMsg::McastRqst {
                origin: Addr::manet(3),
                fid: 9,
                ttl: 8,
                reply_to: "10.0.0.4:427".parse().unwrap(),
                service_type: "sip".into(),
                key: "bob@v.ch".into(),
            },
            SlpMsg::FloodReg {
                origin: Addr::manet(3),
                fid: 2,
                ttl: 16,
                entries: vec![entry.clone()],
            },
            SlpMsg::Hello { entries: vec![] },
            SlpMsg::Hello {
                entries: vec![entry.clone(), entry],
            },
        ];
        for m in msgs {
            let parsed = SlpMsg::parse(&m.to_wire()).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            assert_eq!(parsed, m);
        }
    }

    #[test]
    fn flood_and_hello_render_their_historical_bytes() {
        let entry = ServiceEntry::sip_binding(
            "bob@v.ch",
            "10.0.0.4:5060".parse().unwrap(),
            Addr::manet(3),
            1,
            600,
        );
        let line = "SLP1 reg sip bob@v.ch 10.0.0.4:5060 10.0.0.4 1 600";
        let breg = SlpMsg::FloodReg {
            origin: Addr::manet(3),
            fid: 7,
            ttl: 15,
            entries: vec![entry.clone()],
        };
        assert_eq!(breg.to_string(), format!("BREG 10.0.0.4 7 15\n{line}"));
        let hello = SlpMsg::Hello {
            entries: vec![entry],
        };
        assert_eq!(hello.to_string(), format!("PHELLO\n{line}"));
        assert_eq!(SlpMsg::Hello { entries: vec![] }.to_string(), "PHELLO");
    }

    #[test]
    fn empty_key_round_trips_as_dash() {
        let m = SlpMsg::SrvRqst {
            xid: 1,
            service_type: "gateway".into(),
            key: String::new(),
        };
        assert!(m.to_string().ends_with(" -"));
        assert_eq!(SlpMsg::parse(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn malformed_rejected() {
        assert!(SlpMsg::parse(b"").is_err());
        assert!(SlpMsg::parse(b"NOPE 1").is_err());
        assert!(SlpMsg::parse(b"SRVRPLY 1 2\nSLP1 reg sip a 10.0.0.1:5060 10.0.0.1 1 60").is_err());
        assert!(SlpMsg::parse(b"SRVREG x sip a 10.0.0.1:5060 60").is_err());
        // A count read from the wire is not an allocation size.
        assert!(SlpMsg::parse(b"SRVRPLY 1 18446744073709551615").is_err());
        assert!(SlpMsg::parse(b"BREG 10.0.0.1 1").is_err());
        assert!(SlpMsg::parse(b"PHELLO\nSLP1 reg sip a").is_err());
    }
}
