//! Registration bindings (RFC 3261 §10).
//!
//! A [`BindingTable`] maps an address-of-record to its current contacts
//! with expiry. Three components reuse it: the SIPHoc proxy (local user
//! registrations it then advertises through MANET SLP), the simulated
//! Internet SIP providers, and the broadcast-registration baseline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use siphoc_simnet::fasthash::FastMap;
use siphoc_simnet::time::{SimDuration, SimTime};

use crate::msg::{Method, SipMessage, StatusCode};
use crate::uri::{Aor, SipUri};

/// Registration lifetime granted when a REGISTER carries neither an
/// `expires` Contact parameter nor an `Expires` header (RFC 3261
/// §10.2.1.1 suggests one hour).
const DEFAULT_EXPIRES_SECS: u32 = 3600;

/// One registered contact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The contact URI the AOR resolves to.
    pub contact: SipUri,
    /// When the binding lapses.
    pub expires: SimTime,
}

/// The registrar's binding store.
///
/// # Examples
///
/// ```
/// use siphoc_sip::registrar::BindingTable;
/// use siphoc_sip::uri::Aor;
/// use siphoc_simnet::time::{SimDuration, SimTime};
///
/// let mut table = BindingTable::new();
/// let aor = Aor::new("alice", "voicehoc.ch");
/// table.bind(aor.clone(), "sip:alice@10.0.0.1:5070".parse().unwrap(),
///            SimTime::ZERO + SimDuration::from_secs(3600));
/// assert!(table.lookup(&aor, SimTime::ZERO).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct BindingTable {
    /// Contact lists, hash-indexed: the lookup on every forwarded INVITE
    /// is O(1) instead of a BTreeMap walk.
    bindings: FastMap<Aor, Vec<Binding>>,
    /// AORs in sorted order — preserves the old BTreeMap iteration order
    /// that SLP readvertisement and `Display` depend on.
    order: Vec<Aor>,
    /// Expiry wheel: a lazy min-heap of `(deadline, aor)`. Refreshing a
    /// binding pushes a new entry rather than re-keying the old one;
    /// stale entries are skipped on pop because [`sweep`](Self::sweep)
    /// re-checks the live contact list.
    expiry: BinaryHeap<Reverse<(SimTime, Aor)>>,
    /// User part → its AORs (sorted), so "first AOR with this user" — the
    /// proxy's local-delivery lookup — is O(1) instead of a table scan.
    by_user: FastMap<String, Vec<Aor>>,
    /// Total contact bindings across all AORs (the `sip.bindings` gauge).
    contacts: usize,
}

impl BindingTable {
    /// Creates an empty table.
    pub fn new() -> BindingTable {
        BindingTable::default()
    }

    /// Adds or refreshes a binding.
    pub fn bind(&mut self, aor: Aor, contact: SipUri, expires: SimTime) {
        if !self.bindings.contains_key(&aor) {
            if let Err(i) = self.order.binary_search(&aor) {
                self.order.insert(i, aor.clone());
            }
            let users = self.by_user.entry(aor.user.clone()).or_default();
            if let Err(i) = users.binary_search(&aor) {
                users.insert(i, aor.clone());
            }
            self.bindings.insert(aor.clone(), Vec::new());
        }
        self.expiry.push(Reverse((expires, aor.clone())));
        let list = self.bindings.get_mut(&aor).expect("just inserted");
        match list.iter_mut().find(|b| b.contact == contact) {
            Some(b) => b.expires = expires,
            None => {
                list.push(Binding { contact, expires });
                self.contacts += 1;
            }
        }
    }

    /// Drops an AOR from every index (its contact list is already empty
    /// or about to be discarded).
    fn forget(&mut self, aor: &Aor) {
        self.bindings.remove(aor);
        if let Ok(i) = self.order.binary_search(aor) {
            self.order.remove(i);
        }
        if let Some(users) = self.by_user.get_mut(&aor.user) {
            users.retain(|a| a != aor);
            if users.is_empty() {
                self.by_user.remove(&aor.user);
            }
        }
    }

    /// Removes a specific contact binding.
    pub fn unbind(&mut self, aor: &Aor, contact: &SipUri) {
        if let Some(list) = self.bindings.get_mut(aor) {
            let before = list.len();
            list.retain(|b| &b.contact != contact);
            self.contacts -= before - list.len();
            if list.is_empty() {
                self.forget(aor);
            }
        }
    }

    /// The freshest unexpired contact for `aor`.
    pub fn lookup(&self, aor: &Aor, now: SimTime) -> Option<&Binding> {
        self.bindings
            .get(aor)?
            .iter()
            .filter(|b| b.expires > now)
            .max_by_key(|b| b.expires)
    }

    /// The first AOR (in table order) whose user part is `user` — the
    /// proxy's local-delivery lookup.
    pub fn lookup_by_user(&self, user: &str) -> Option<&Aor> {
        self.by_user.get(user).and_then(|v| v.first())
    }

    /// Eagerly drops every binding whose deadline has passed, driven by
    /// the expiry wheel: cost is proportional to the number of due (or
    /// stale) wheel entries, never to the table size. Returns how many
    /// contact bindings were dropped.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        while let Some(Reverse((deadline, _))) = self.expiry.peek() {
            if *deadline > now {
                break;
            }
            let Some(Reverse((_, aor))) = self.expiry.pop() else {
                break;
            };
            // Re-check against the live list: a refresh leaves this wheel
            // entry stale, and the refreshed deadline has its own entry.
            let Some(list) = self.bindings.get_mut(&aor) else {
                continue;
            };
            let before = list.len();
            list.retain(|b| b.expires > now);
            removed += before - list.len();
            if list.is_empty() {
                self.forget(&aor);
            }
        }
        self.contacts -= removed;
        removed
    }

    /// Drops expired bindings. Every binding has a wheel entry at its
    /// exact deadline, so this is the eager sweep under the old name.
    pub fn purge(&mut self, now: SimTime) {
        self.sweep(now);
    }

    /// Number of AORs with at least one binding (expired included until
    /// swept).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Total contact bindings across all AORs (expired included until
    /// swept) — the `sip.bindings` gauge.
    pub fn bindings_len(&self) -> usize {
        self.contacts
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates over `(aor, bindings)` in AOR order.
    pub fn iter(&self) -> impl Iterator<Item = (&Aor, &[Binding])> {
        self.order.iter().map(|a| (a, self.bindings[a].as_slice()))
    }

    /// Processes a REGISTER request against this table, returning the
    /// response to send.
    ///
    /// Handles refresh, de-registration (`Expires: 0`) and malformed
    /// requests (missing To/Contact → 500, wrong method → 500).
    pub fn handle_register(&mut self, req: &SipMessage, now: SimTime) -> SipMessage {
        if req.method() != Some(Method::Register) {
            return SipMessage::response_to(req, StatusCode::SERVER_ERROR);
        }
        let Some(to) = req.to_header() else {
            return SipMessage::response_to(req, StatusCode::SERVER_ERROR);
        };
        let Some(contact) = req.contact() else {
            return SipMessage::response_to(req, StatusCode::SERVER_ERROR);
        };
        let aor = to.uri.aor();
        let expires_secs = contact
            .expires_param()
            .or_else(|| req.expires())
            .unwrap_or(DEFAULT_EXPIRES_SECS);
        if expires_secs == 0 {
            self.unbind(&aor, &contact.uri);
        } else {
            self.bind(
                aor,
                contact.uri.clone(),
                now + SimDuration::from_secs(expires_secs as u64),
            );
        }
        let mut resp = SipMessage::response_to(req, StatusCode::OK);
        resp.headers_mut().push("Contact", &contact);
        resp.headers_mut().push("Expires", expires_secs);
        resp
    }
}

impl std::fmt::Display for BindingTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no registrations)");
        }
        for (aor, list) in self.iter() {
            for b in list {
                writeln!(f, "{aor} -> {} (expires {})", b.contact, b.expires)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Headers;

    fn register_req(aor: &str, contact: &str, expires: Option<u32>) -> SipMessage {
        let uri: SipUri = format!("sip:{}", aor.split('@').nth(1).unwrap())
            .parse()
            .unwrap();
        let mut m = SipMessage::request(Method::Register, uri);
        let h: &mut Headers = m.headers_mut();
        h.push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bK1");
        h.push("From", format!("<sip:{aor}>;tag=t1"));
        h.push("To", format!("<sip:{aor}>"));
        h.push("Call-ID", "reg-1");
        h.push("CSeq", "1 REGISTER");
        h.push("Contact", format!("<{contact}>"));
        if let Some(e) = expires {
            h.push("Expires", e);
        }
        m
    }

    #[test]
    fn register_binds_and_expires() {
        let mut t = BindingTable::new();
        let req = register_req("alice@voicehoc.ch", "sip:alice@10.0.0.1:5070", Some(60));
        let resp = t.handle_register(&req, SimTime::ZERO);
        assert_eq!(resp.status(), Some(StatusCode::OK));
        let aor = Aor::new("alice", "voicehoc.ch");
        assert!(t.lookup(&aor, SimTime::from_secs(59)).is_some());
        assert!(t.lookup(&aor, SimTime::from_secs(61)).is_none());
    }

    #[test]
    fn reregistration_refreshes_not_duplicates() {
        let mut t = BindingTable::new();
        let req = register_req("alice@voicehoc.ch", "sip:alice@10.0.0.1:5070", Some(60));
        t.handle_register(&req, SimTime::ZERO);
        t.handle_register(&req, SimTime::from_secs(30));
        let aor = Aor::new("alice", "voicehoc.ch");
        assert_eq!(t.bindings_len(), 1);
        assert!(t.lookup(&aor, SimTime::from_secs(89)).is_some());
    }

    #[test]
    fn expires_zero_unbinds() {
        let mut t = BindingTable::new();
        t.handle_register(
            &register_req("alice@voicehoc.ch", "sip:alice@10.0.0.1:5070", Some(60)),
            SimTime::ZERO,
        );
        t.handle_register(
            &register_req("alice@voicehoc.ch", "sip:alice@10.0.0.1:5070", Some(0)),
            SimTime::from_secs(1),
        );
        assert!(t.is_empty());
    }

    #[test]
    fn multiple_contacts_freshest_wins() {
        let mut t = BindingTable::new();
        let aor = Aor::new("bob", "voicehoc.ch");
        t.bind(
            aor.clone(),
            "sip:bob@10.0.0.2:5070".parse().unwrap(),
            SimTime::from_secs(100),
        );
        t.bind(
            aor.clone(),
            "sip:bob@10.0.0.3:5070".parse().unwrap(),
            SimTime::from_secs(200),
        );
        let b = t.lookup(&aor, SimTime::ZERO).unwrap();
        assert_eq!(b.contact.to_string(), "sip:bob@10.0.0.3:5070");
        assert_eq!(t.bindings_len(), 2);
    }

    #[test]
    fn purge_drops_expired() {
        let mut t = BindingTable::new();
        let aor = Aor::new("bob", "voicehoc.ch");
        t.bind(
            aor,
            "sip:bob@10.0.0.2:5070".parse().unwrap(),
            SimTime::from_secs(10),
        );
        t.purge(SimTime::from_secs(11));
        assert!(t.is_empty());
    }

    #[test]
    fn malformed_register_rejected() {
        let mut t = BindingTable::new();
        let mut req = register_req("alice@voicehoc.ch", "sip:alice@10.0.0.1:5070", None);
        req.headers_mut().remove("Contact");
        let resp = t.handle_register(&req, SimTime::ZERO);
        assert_eq!(resp.status(), Some(StatusCode::SERVER_ERROR));
        assert!(t.is_empty());
    }
}
