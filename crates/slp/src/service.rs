//! Service entries: the records MANET SLP stores and disseminates.
//!
//! SIPHoc advertises two service types through SLP:
//!
//! * `sip` — one entry per registered user, binding an address-of-record to
//!   the SIP endpoint of the proxy responsible for it (paper Fig. 4:
//!   "the proxy has advertised its own SIP endpoint address as the
//!   responsible contact address for the given user"), and
//! * `gateway` — published by the Gateway Provider on Internet-connected
//!   nodes, naming its layer-2 tunnel server.
//!
//! Entries use a human-readable single-line wire form (`SLP1 reg ...`),
//! which keeps packet captures legible — the property paper Fig. 5 relies
//! on to show SIP contact information inside an AODV route reply. Two
//! constraints of the format: keys and service types must be free of
//! whitespace, and the literal key `-` is reserved (it marks the empty
//! key on the wire and canonicalizes to it).

use std::fmt;
use std::str::FromStr;

use siphoc_simnet::ident::{self, KeyPair};
use siphoc_simnet::net::{Addr, SocketAddr};
use siphoc_simnet::time::SimTime;

/// Well-known service types.
pub mod service_types {
    /// SIP user binding: key is the AOR (`alice@voicehoc.ch`).
    pub const SIP: &str = "sip";
    /// Internet gateway: key is empty, contact is the tunnel server.
    pub const GATEWAY: &str = "gateway";
}

/// Authentication tail of a signed advert: the advertiser's public key
/// and its signature over [`ServiceEntry::signing_bytes`]. Appended to
/// the wire record as two extra hex tokens; unsigned entries serialize
/// exactly as before, so enabling the defense changes no bytes of
/// defense-off runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryAuth {
    /// The advertiser's public key (see [`siphoc_simnet::ident`]).
    pub pk: u64,
    /// Signature over the entry's signing bytes.
    pub sig: u64,
}

/// A service registration entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEntry {
    /// Service type (`"sip"`, `"gateway"`).
    pub service_type: String,
    /// Lookup key within the type; the AOR for `sip`, empty for `gateway`.
    pub key: String,
    /// The advertised endpoint.
    pub contact: SocketAddr,
    /// Node that registered the entry (tie-breaking and refresh source).
    pub origin: Addr,
    /// Per-origin version; higher replaces lower for the same
    /// `(type, key, origin)`.
    pub seq: u64,
    /// Remaining lifetime in seconds at the time of serialization.
    pub lifetime_secs: u32,
    /// Signature tail; `None` for legacy/unsigned adverts.
    pub auth: Option<EntryAuth>,
}

impl ServiceEntry {
    /// Builds a SIP user binding.
    pub fn sip_binding(
        aor: &str,
        contact: SocketAddr,
        origin: Addr,
        seq: u64,
        lifetime_secs: u32,
    ) -> ServiceEntry {
        ServiceEntry {
            service_type: service_types::SIP.to_owned(),
            key: aor.to_lowercase(),
            contact,
            origin,
            seq,
            lifetime_secs,
            auth: None,
        }
    }

    /// Builds a gateway advertisement.
    pub fn gateway(
        contact: SocketAddr,
        origin: Addr,
        seq: u64,
        lifetime_secs: u32,
    ) -> ServiceEntry {
        ServiceEntry {
            service_type: service_types::GATEWAY.to_owned(),
            key: String::new(),
            contact,
            origin,
            seq,
            lifetime_secs,
            auth: None,
        }
    }

    /// The bytes a signature covers: every field except the remaining
    /// lifetime (refreshes re-serialize with a recomputed lifetime and
    /// must not invalidate the signature) and the auth tail itself.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let key: &str = if self.key.is_empty() { "-" } else { &self.key };
        format!(
            "{} {} {} {} {}",
            self.service_type, key, self.contact, self.origin, self.seq
        )
        .into_bytes()
    }

    /// Attaches a signature tail produced with `kp`.
    #[must_use]
    pub fn signed(mut self, kp: &KeyPair) -> ServiceEntry {
        let sig = kp.sign(&self.signing_bytes());
        self.auth = Some(EntryAuth {
            pk: kp.public(),
            sig,
        });
        self
    }

    /// Verifies the signature tail. Unsigned entries fail.
    pub fn auth_valid(&self) -> bool {
        match self.auth {
            Some(EntryAuth { pk, sig }) => ident::verify(pk, &self.signing_bytes(), sig),
            None => false,
        }
    }

    /// The advertiser's self-certifying identity (hash of the attached
    /// public key), if the entry carries an auth tail.
    pub fn advertiser_identity(&self) -> Option<u64> {
        self.auth.map(|a| ident::identity_of(a.pk))
    }

    /// The SLP-style service URL, e.g.
    /// `service:sip://alice@voicehoc.ch!10.0.0.1:5060`.
    pub fn service_url(&self) -> String {
        if self.key.is_empty() {
            format!("service:{}://{}", self.service_type, self.contact)
        } else {
            format!(
                "service:{}://{}!{}",
                self.service_type, self.key, self.contact
            )
        }
    }

    /// Absolute expiry given the instant the entry was (de)serialized.
    pub fn expires_at(&self, now: SimTime) -> SimTime {
        now + siphoc_simnet::time::SimDuration::from_secs(self.lifetime_secs as u64)
    }

    /// Encodes the entry as a one-line wire record.
    pub fn to_wire(&self) -> Vec<u8> {
        self.wire_with_lifetime(self.lifetime_secs)
    }

    /// The wire record of this entry with `lifetime_secs` in place of its
    /// own: how a stored entry goes out with its remaining lifetime
    /// recomputed, without a copy of the entry.
    pub fn wire_with_lifetime(&self, lifetime_secs: u32) -> Vec<u8> {
        Wire(self, lifetime_secs).to_string().into_bytes()
    }
}

/// An entry's wire line, with the lifetime to write.
struct Wire<'a>(&'a ServiceEntry, u32);

impl fmt::Display for Wire<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Wire(e, lifetime_secs) = self;
        // `-` marks the empty key so the field count stays fixed.
        let key: &str = if e.key.is_empty() { "-" } else { &e.key };
        write!(
            f,
            "SLP1 reg {} {} {} {} {} {}",
            e.service_type, key, e.contact, e.origin, e.seq, lifetime_secs
        )?;
        if let Some(EntryAuth { pk, sig }) = e.auth {
            write!(f, " {pk:016x} {sig:016x}")?;
        }
        Ok(())
    }
}

impl fmt::Display for ServiceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Wire(self, self.lifetime_secs).fmt(f)
    }
}

/// Error parsing a service entry or query from its wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEntryError {
    what: &'static str,
}

impl ParseEntryError {
    pub(crate) fn new(what: &'static str) -> ParseEntryError {
        ParseEntryError { what }
    }
}

impl fmt::Display for ParseEntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SLP record: {}", self.what)
    }
}

impl std::error::Error for ParseEntryError {}

impl FromStr for ServiceEntry {
    type Err = ParseEntryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split_ascii_whitespace();
        if it.next() != Some("SLP1") || it.next() != Some("reg") {
            return Err(ParseEntryError::new("not a reg record"));
        }
        let service_type = it.next().ok_or(ParseEntryError::new("type"))?.to_owned();
        let key_raw = it.next().ok_or(ParseEntryError::new("key"))?;
        let key = if key_raw == "-" {
            String::new()
        } else {
            key_raw.to_owned()
        };
        let contact = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(ParseEntryError::new("contact"))?;
        let origin = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(ParseEntryError::new("origin"))?;
        let seq = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(ParseEntryError::new("seq"))?;
        let lifetime_secs = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(ParseEntryError::new("lifetime"))?;
        // Optional auth tail: exactly two hex tokens, or nothing.
        let auth = match it.next() {
            None => None,
            Some(pk_raw) => {
                let pk =
                    u64::from_str_radix(pk_raw, 16).map_err(|_| ParseEntryError::new("auth pk"))?;
                let sig = it
                    .next()
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .ok_or(ParseEntryError::new("auth sig"))?;
                Some(EntryAuth { pk, sig })
            }
        };
        if it.next().is_some() {
            return Err(ParseEntryError::new("trailing fields"));
        }
        Ok(ServiceEntry {
            service_type,
            key,
            contact,
            origin,
            seq,
            lifetime_secs,
            auth,
        })
    }
}

/// A query piggybacked onto routing traffic (AODV service-query RREQs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceQuery {
    /// Requested service type.
    pub service_type: String,
    /// Requested key (`-` wire form for empty).
    pub key: String,
    /// The querying node.
    pub origin: Addr,
    /// Query id for matching replies to retries.
    pub qid: u64,
}

impl fmt::Display for ServiceQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key: &str = if self.key.is_empty() { "-" } else { &self.key };
        write!(
            f,
            "SLP1 qry {} {} {} {}",
            self.service_type, key, self.origin, self.qid
        )
    }
}

impl ServiceQuery {
    /// Encodes the query as a one-line wire record.
    pub fn to_wire(&self) -> Vec<u8> {
        self.to_string().into_bytes()
    }

    /// Whether an entry satisfies this query.
    pub fn matches(&self, entry: &ServiceEntry) -> bool {
        entry.service_type == self.service_type && (self.key.is_empty() || entry.key == self.key)
    }
}

impl FromStr for ServiceQuery {
    type Err = ParseEntryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split_ascii_whitespace();
        if it.next() != Some("SLP1") || it.next() != Some("qry") {
            return Err(ParseEntryError::new("not a qry record"));
        }
        let service_type = it.next().ok_or(ParseEntryError::new("type"))?.to_owned();
        let key_raw = it.next().ok_or(ParseEntryError::new("key"))?;
        let key = if key_raw == "-" {
            String::new()
        } else {
            key_raw.to_owned()
        };
        let origin = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(ParseEntryError::new("origin"))?;
        let qid = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(ParseEntryError::new("qid"))?;
        Ok(ServiceQuery {
            service_type,
            key,
            origin,
            qid,
        })
    }
}

/// Decodes an arbitrary piggyback record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlpRecord {
    /// A registration entry.
    Reg(ServiceEntry),
    /// A query.
    Query(ServiceQuery),
}

impl SlpRecord {
    /// Parses either record kind from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEntryError`] if the bytes are not a valid record.
    pub fn parse(bytes: &[u8]) -> Result<SlpRecord, ParseEntryError> {
        let s = std::str::from_utf8(bytes).map_err(|_| ParseEntryError::new("utf8"))?;
        if let Ok(e) = s.parse::<ServiceEntry>() {
            return Ok(SlpRecord::Reg(e));
        }
        s.parse::<ServiceQuery>().map(SlpRecord::Query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> ServiceEntry {
        ServiceEntry::sip_binding(
            "alice@voicehoc.ch",
            "10.0.0.1:5060".parse().unwrap(),
            Addr::manet(0),
            7,
            120,
        )
    }

    #[test]
    fn entry_wire_round_trip() {
        let e = entry();
        let s = e.to_string();
        assert_eq!(
            s,
            "SLP1 reg sip alice@voicehoc.ch 10.0.0.1:5060 10.0.0.1 7 120"
        );
        assert_eq!(s.parse::<ServiceEntry>().unwrap(), e);
    }

    #[test]
    fn gateway_entry_uses_dash_key() {
        let g = ServiceEntry::gateway("10.0.0.3:7077".parse().unwrap(), Addr::manet(2), 1, 60);
        let s = g.to_string();
        assert!(s.contains(" gateway - "), "{s}");
        assert_eq!(s.parse::<ServiceEntry>().unwrap(), g);
        assert_eq!(g.service_url(), "service:gateway://10.0.0.3:7077");
    }

    #[test]
    fn sip_service_url_includes_aor_and_contact() {
        assert_eq!(
            entry().service_url(),
            "service:sip://alice@voicehoc.ch!10.0.0.1:5060"
        );
    }

    #[test]
    fn query_round_trip_and_matching() {
        let q = ServiceQuery {
            service_type: "sip".into(),
            key: "bob@voicehoc.ch".into(),
            origin: Addr::manet(4),
            qid: 99,
        };
        let parsed: ServiceQuery = q.to_string().parse().unwrap();
        assert_eq!(parsed, q);
        assert!(!q.matches(&entry()));
        let bob = ServiceEntry::sip_binding(
            "bob@voicehoc.ch",
            "10.0.0.2:5060".parse().unwrap(),
            Addr::manet(1),
            1,
            60,
        );
        assert!(q.matches(&bob));
        // Empty-key query matches any entry of the type.
        let any_gw = ServiceQuery {
            service_type: "gateway".into(),
            key: String::new(),
            origin: Addr::manet(4),
            qid: 1,
        };
        let gw = ServiceEntry::gateway("10.0.0.3:7077".parse().unwrap(), Addr::manet(2), 1, 60);
        assert!(any_gw.matches(&gw));
    }

    #[test]
    fn record_parse_distinguishes_kinds() {
        let e = entry();
        assert_eq!(SlpRecord::parse(&e.to_wire()).unwrap(), SlpRecord::Reg(e));
        let q = ServiceQuery {
            service_type: "sip".into(),
            key: "x@y".into(),
            origin: Addr::manet(0),
            qid: 3,
        };
        assert_eq!(SlpRecord::parse(&q.to_wire()).unwrap(), SlpRecord::Query(q));
        assert!(SlpRecord::parse(b"junk").is_err());
        assert!(SlpRecord::parse(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn malformed_entries_rejected() {
        for s in [
            "SLP1 reg sip alice@v", // truncated
            "SLP1 reg sip a 10.0.0.1:5060 10.0.0.1 7 120 extra",
            "SLP2 reg sip a 10.0.0.1:5060 10.0.0.1 7 120",
            // Auth tail must be exactly two hex tokens.
            "SLP1 reg sip a 10.0.0.1:5060 10.0.0.1 7 120 deadbeef",
            "SLP1 reg sip a 10.0.0.1:5060 10.0.0.1 7 120 deadbeef beef junk",
            "SLP1 reg sip a 10.0.0.1:5060 10.0.0.1 7 120 deadbeef nothex",
        ] {
            assert!(s.parse::<ServiceEntry>().is_err(), "{s}");
        }
    }

    #[test]
    fn signed_entry_round_trips_and_verifies() {
        let kp = siphoc_simnet::ident::KeyPair::for_addr(0x0a00_0001);
        let e = entry().signed(&kp);
        assert!(e.auth_valid());
        assert_eq!(e.advertiser_identity(), Some(kp.identity()));
        let parsed: ServiceEntry = e.to_string().parse().unwrap();
        assert_eq!(parsed, e);
        assert!(parsed.auth_valid());
        // Unsigned entries serialize byte-identically to the legacy form.
        assert_eq!(
            entry().to_string(),
            "SLP1 reg sip alice@voicehoc.ch 10.0.0.1:5060 10.0.0.1 7 120"
        );
        assert!(!entry().auth_valid());
    }

    #[test]
    fn tampered_signed_entry_fails_verification() {
        let kp = siphoc_simnet::ident::KeyPair::for_addr(0x0a00_0001);
        let mut e = entry().signed(&kp);
        // The signature survives a lifetime refresh...
        e.lifetime_secs = 30;
        assert!(e.auth_valid());
        // ...but not a re-targeted contact, origin or seq bump.
        let mut hijacked = e.clone();
        hijacked.contact = "10.0.0.9:5060".parse().unwrap();
        assert!(!hijacked.auth_valid());
        let mut forged_origin = e.clone();
        forged_origin.origin = Addr::manet(8);
        assert!(!forged_origin.auth_valid());
        let mut boosted = e.clone();
        boosted.seq = u64::MAX;
        assert!(!boosted.auth_valid());
        // A different principal's key cannot stand in.
        let other = siphoc_simnet::ident::KeyPair::for_addr(0x0a00_0009);
        let stolen = entry().signed(&other);
        assert_ne!(stolen.advertiser_identity(), e.advertiser_identity());
    }
}
