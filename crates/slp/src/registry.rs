//! The distributed SLP registry state.
//!
//! Each node keeps one [`SlpRegistry`], shared (as a [`SharedRegistry`])
//! between the SLP daemon process and, under MANET SLP, the routing
//! handler that gossips its contents. Entries are versioned per
//! `(type, key, origin)` with a sequence number, so epidemic
//! dissemination converges and refreshes win over staleness.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use siphoc_simnet::net::Addr;
use siphoc_simnet::time::SimTime;

use crate::service::{ServiceEntry, ServiceQuery};

/// Values named by `(service_type, key, origin)`, kept in that order.
///
/// Nested maps, `type → key → origins`, so every question is asked with
/// borrowed `&str`s: one name is a lookup, `(type, key, ·)` or
/// `(type, ·, ·)` is one ordered read, and only a `(type, key)` never
/// seen before allocates. A key's origins are a `Vec` sorted by address:
/// nearly always one, seldom more than a handful.
#[derive(Debug)]
pub(crate) struct ServiceMap<T> {
    types: TextMap<TextMap<Vec<(Addr, T)>>>,
}

/// Where [`ServiceMap::place`] found a name: its value, or the gap a value
/// for it goes into.
pub(crate) enum Place<'a, T> {
    Taken(&'a mut T),
    Vacant {
        at: &'a mut Vec<(Addr, T)>,
        i: usize,
        origin: Addr,
    },
}

impl<T> Place<'_, T> {
    /// Stores `v` at the name, replacing what was there.
    pub(crate) fn set(self, v: T) {
        match self {
            Place::Taken(old) => *old = v,
            Place::Vacant { at, i, origin } => {
                // One slot at a time: a key rarely has a second origin.
                at.reserve_exact(1);
                at.insert(i, (origin, v));
            }
        }
    }
}

impl<T> Default for ServiceMap<T> {
    fn default() -> ServiceMap<T> {
        ServiceMap {
            types: TextMap::default(),
        }
    }
}

impl<T> ServiceMap<T> {
    pub(crate) fn get(&self, service_type: &str, key: &str, origin: Addr) -> Option<&T> {
        let at = self.types.get(service_type)?.get(key)?;
        let i = at.binary_search_by_key(&origin, |(o, _)| *o).ok()?;
        Some(&at[i].1)
    }

    /// The value named `(service_type, key, origin)`, or the place for
    /// one. Allocates the two names only for a `(type, key)` never seen
    /// before; every caller then fills a vacant place.
    pub(crate) fn place(&mut self, service_type: &str, key: &str, origin: Addr) -> Place<'_, T> {
        let at = self.types.get_or_insert(service_type).get_or_insert(key);
        match at.binary_search_by_key(&origin, |(o, _)| *o) {
            Ok(i) => Place::Taken(&mut at[i].1),
            Err(i) => Place::Vacant { at, i, origin },
        }
    }

    /// Removes the value named `(service_type, key, origin)`.
    pub(crate) fn remove(&mut self, service_type: &str, key: &str, origin: Addr) {
        let Some(keys) = self.types.get_mut(service_type) else {
            return;
        };
        let Some(at) = keys.get_mut(key) else {
            return;
        };
        at.retain(|(o, _)| *o != origin);
        if at.is_empty() {
            keys.remove(key);
            if keys.is_empty() {
                self.types.remove(service_type);
            }
        }
    }

    /// Every value under `(service_type, key)` in order; an empty key
    /// reads every key of the type.
    pub(crate) fn range(&self, service_type: &str, key: &str) -> impl Iterator<Item = &T> {
        let keys = self.types.get(service_type);
        let (every, one) = if key.is_empty() {
            (keys, None)
        } else {
            (None, keys.and_then(|keys| keys.get(key)))
        };
        every
            .into_iter()
            .flat_map(TextMap::values)
            .chain(one)
            .flat_map(|at| at.iter().map(|(_, v)| v))
    }

    /// Every value, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.types
            .values()
            .flat_map(TextMap::values)
            .flat_map(|at| at.iter().map(|(_, v)| v))
    }

    /// Keeps the values `keep` holds to, and forgets the names left
    /// empty. Returns how many values went.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) -> usize {
        let mut removed = 0;
        self.types.retain(|keys| {
            keys.retain(|at| {
                let before = at.len();
                at.retain(|(_, v)| keep(v));
                removed += before - at.len();
                !at.is_empty()
            });
            !keys.is_empty()
        });
        removed
    }

    pub(crate) fn len(&self) -> usize {
        self.types
            .values()
            .flat_map(TextMap::values)
            .map(Vec::len)
            .sum()
    }
}

/// Strings to values in string order, searched by each string's first
/// eight bytes read as one integer: a search compares integers inside the
/// tree and reads the text of only the strings that share the head. A
/// node holds hundreds of registry maps, so a search mostly runs on cold
/// memory, where every text it reads is one more cache miss.
#[derive(Debug)]
struct TextMap<V> {
    /// Head → the strings with that head and their values, in string
    /// order.
    heads: BTreeMap<u64, Vec<(String, V)>>,
}

/// The first eight bytes of `s`, zero-padded, as a big-endian integer.
/// Where two heads differ their order is the strings' order, so ordering
/// by `(head, text)` is ordering by text.
fn head(s: &str) -> u64 {
    let mut bytes = [0; 8];
    let n = s.len().min(8);
    bytes[..n].copy_from_slice(&s.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

impl<V> Default for TextMap<V> {
    fn default() -> TextMap<V> {
        TextMap {
            heads: BTreeMap::new(),
        }
    }
}

impl<V> TextMap<V> {
    fn get(&self, s: &str) -> Option<&V> {
        let group = self.heads.get(&head(s))?;
        group.iter().find(|(t, _)| t == s).map(|(_, v)| v)
    }

    fn get_mut(&mut self, s: &str) -> Option<&mut V> {
        let group = self.heads.get_mut(&head(s))?;
        group.iter_mut().find(|(t, _)| t == s).map(|(_, v)| v)
    }

    /// The value for `s`, a default one if `s` is new; only a new `s`
    /// allocates.
    fn get_or_insert(&mut self, s: &str) -> &mut V
    where
        V: Default,
    {
        let group = self.heads.entry(head(s)).or_default();
        let i = match group.binary_search_by(|(t, _)| t.as_str().cmp(s)) {
            Ok(i) => i,
            Err(i) => {
                group.reserve_exact(1);
                group.insert(i, (s.to_owned(), V::default()));
                i
            }
        };
        &mut group[i].1
    }

    fn remove(&mut self, s: &str) {
        let h = head(s);
        if let Some(group) = self.heads.get_mut(&h) {
            group.retain(|(t, _)| t != s);
            if group.is_empty() {
                self.heads.remove(&h);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Every value, in string order.
    fn values(&self) -> impl Iterator<Item = &V> {
        self.heads.values().flatten().map(|(_, v)| v)
    }

    fn retain(&mut self, mut keep: impl FnMut(&mut V) -> bool) {
        self.heads.retain(|_, group| {
            group.retain_mut(|(_, v)| keep(v));
            !group.is_empty()
        });
    }
}

#[derive(Debug, Clone)]
struct Stored {
    entry: ServiceEntry,
    expires: SimTime,
    local: bool,
}

impl Stored {
    /// The entry with the lifetime it has left at `now`, if any.
    fn live(&self, now: SimTime) -> Option<(&ServiceEntry, u32)> {
        (self.expires > now).then(|| {
            let left = self.expires.saturating_since(now).as_secs_f64() as u32;
            (&self.entry, left)
        })
    }
}

/// Outcome of [`SlpRegistry::absorb_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absorb {
    /// New or fresher than stored — worth re-gossiping.
    Fresh,
    /// Already known (possibly with its expiry extended) or stale.
    Stale,
    /// Rejected: the auth policy requires signed adverts and this one
    /// carries no auth tail.
    Unsigned,
    /// Rejected: the signature does not verify over the entry's fields.
    BadSig,
    /// Rejected: validly signed, but under a different identity than the
    /// one pinned on first use for this AOR or origin.
    PinMismatch,
}

impl Absorb {
    /// Whether the entry was rejected by the auth policy.
    pub fn rejected(self) -> bool {
        matches!(
            self,
            Absorb::Unsigned | Absorb::BadSig | Absorb::PinMismatch
        )
    }
}

/// A node's view of all known service registrations.
///
/// Every question reads only the entries it is about: a query or lookup
/// reads one key's origins (every key of the type for the empty key),
/// the node's own entries come from their own index, and an absorbed
/// entry finds its slot by borrowed name. Answers come in `(type, key,
/// origin)` order.
#[derive(Debug, Default)]
pub struct SlpRegistry {
    entries: ServiceMap<Stored>,
    /// The names of the entries with `Stored::local` set, in the same
    /// order.
    local: BTreeSet<(String, String, Addr)>,
    seq: u64,
    /// Verify-at-cache-insert policy: when set, [`SlpRegistry::absorb`]
    /// drops unsigned or badly-signed entries and enforces first-use
    /// identity pins. Off by default — defense-off runs take the exact
    /// legacy code path.
    require_signed: bool,
    /// First-use identity pins (trust-on-first-use). Keys are
    /// `("aor", <aor>)` for SIP bindings and `("origin", <addr>)` for
    /// every signed advertiser. Pins outlive entry expiry and restarts:
    /// they are the node's memory of who legitimately owns a name.
    pins: BTreeMap<(&'static str, String), u64>,
}

impl SlpRegistry {
    /// Creates an empty registry.
    pub fn new() -> SlpRegistry {
        SlpRegistry::default()
    }

    /// Next local sequence number (monotone per node).
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Registers a local service (the node's own advertisement). Signed
    /// local entries pin their own identity, so later forged adverts for
    /// the same AOR or origin lose the first-use race even on the
    /// advertising node itself.
    pub fn register_local(&mut self, entry: ServiceEntry, now: SimTime) {
        if self.require_signed {
            if let Some(id) = entry.advertiser_identity() {
                self.record_pins(&entry, id);
            }
        }
        self.local
            .insert((entry.service_type.clone(), entry.key.clone(), entry.origin));
        let place = self
            .entries
            .place(&entry.service_type, &entry.key, entry.origin);
        place.set(Stored {
            expires: entry.expires_at(now),
            entry,
            local: true,
        });
    }

    /// Turns the verify-at-cache-insert auth policy on or off.
    pub fn set_require_signed(&mut self, on: bool) {
        self.require_signed = on;
    }

    /// Whether the auth policy is active.
    pub fn require_signed(&self) -> bool {
        self.require_signed
    }

    /// The identity pinned for an AOR, if any.
    pub fn pinned_aor_identity(&self, aor: &str) -> Option<u64> {
        self.pins.get(&("aor", aor.to_owned())).copied()
    }

    /// The identity pinned for an advertising origin, if any.
    pub fn pinned_origin_identity(&self, origin: Addr) -> Option<u64> {
        self.pins.get(&("origin", origin.to_string())).copied()
    }

    fn record_pins(&mut self, entry: &ServiceEntry, id: u64) {
        self.pins.insert(("origin", entry.origin.to_string()), id);
        if entry.service_type == crate::service::service_types::SIP {
            self.pins.insert(("aor", entry.key.clone()), id);
        }
    }

    /// Auth-policy gate: verifies the signature and the first-use pins,
    /// recording new pins on success.
    fn check_and_pin(&mut self, entry: &ServiceEntry) -> Result<(), Absorb> {
        let Some(id) = entry.advertiser_identity() else {
            return Err(Absorb::Unsigned);
        };
        if !entry.auth_valid() {
            return Err(Absorb::BadSig);
        }
        if self
            .pinned_origin_identity(entry.origin)
            .is_some_and(|p| p != id)
        {
            return Err(Absorb::PinMismatch);
        }
        if entry.service_type == crate::service::service_types::SIP
            && self
                .pinned_aor_identity(&entry.key)
                .is_some_and(|p| p != id)
        {
            return Err(Absorb::PinMismatch);
        }
        self.record_pins(entry, id);
        Ok(())
    }

    /// Removes a local registration.
    pub fn deregister_local(&mut self, service_type: &str, key: &str, origin: Addr) {
        self.entries.remove(service_type, key, origin);
        self.local
            .remove(&(service_type.to_owned(), key.to_owned(), origin));
    }

    /// Absorbs a remote entry learned from piggybacked traffic. Returns
    /// `true` when the entry was new or fresher than what was stored (and
    /// so worth re-gossiping). A re-announcement with an *equal* seq from
    /// the same origin is not fresher, but it is a refresh: it extends the
    /// stored expiry so steadily re-advertised services never lapse
    /// mid-refresh.
    pub fn absorb(&mut self, entry: ServiceEntry, now: SimTime) -> bool {
        self.absorb_checked(entry, now) == Absorb::Fresh
    }

    /// [`SlpRegistry::absorb`] with the auth-policy verdict exposed, so
    /// callers can count *why* an entry was dropped. With the policy off
    /// this never returns a rejection and behaves exactly like the
    /// legacy `absorb`.
    pub fn absorb_checked(&mut self, entry: ServiceEntry, now: SimTime) -> Absorb {
        if self.require_signed {
            if let Err(verdict) = self.check_and_pin(&entry) {
                return verdict;
            }
        }
        let mut place = self
            .entries
            .place(&entry.service_type, &entry.key, entry.origin);
        if let Place::Taken(existing) = &mut place {
            if existing.local {
                return Absorb::Stale;
            }
            if existing.expires > now {
                if existing.entry.seq > entry.seq {
                    return Absorb::Stale;
                }
                if existing.entry.seq == entry.seq {
                    existing.expires = existing.expires.max(entry.expires_at(now));
                    return Absorb::Stale;
                }
            }
        }
        place.set(Stored {
            expires: entry.expires_at(now),
            entry,
            local: false,
        });
        Absorb::Fresh
    }

    /// All unexpired entries matching `(service_type, key)`; an empty key
    /// matches every entry of the type.
    pub fn lookup(&self, service_type: &str, key: &str, now: SimTime) -> Vec<&ServiceEntry> {
        self.entries
            .range(service_type, key)
            .filter_map(|s| s.live(now))
            .map(|(e, _)| e)
            .collect()
    }

    /// Unexpired entries matching a query, each with the lifetime it has
    /// left: the borrowed form of [`SlpRegistry::matching`].
    pub fn matching_iter(
        &self,
        query: &ServiceQuery,
        now: SimTime,
    ) -> impl Iterator<Item = (&ServiceEntry, u32)> {
        self.entries
            .range(&query.service_type, &query.key)
            .filter_map(move |s| s.live(now))
    }

    /// All unexpired entries matching a query.
    pub fn matching(&self, query: &ServiceQuery, now: SimTime) -> Vec<ServiceEntry> {
        self.matching_iter(query, now).map(refreshed).collect()
    }

    /// The node's own unexpired registrations, each with the lifetime it
    /// has left: the borrowed form of [`SlpRegistry::local_entries`].
    pub fn local_iter(&self, now: SimTime) -> impl Iterator<Item = (&ServiceEntry, u32)> {
        self.local
            .iter()
            .filter_map(move |(t, k, o)| self.entries.get(t, k, *o)?.live(now))
    }

    /// The node's own registrations, with lifetimes recomputed for
    /// serialization.
    pub fn local_entries(&self, now: SimTime) -> Vec<ServiceEntry> {
        self.local_iter(now).map(refreshed).collect()
    }

    /// Every unexpired entry (local and learned), each with the lifetime
    /// it has left: the borrowed form of [`SlpRegistry::all_entries`].
    pub fn all_iter(&self, now: SimTime) -> impl Iterator<Item = (&ServiceEntry, u32)> {
        self.entries.iter().filter_map(move |s| s.live(now))
    }

    /// Every unexpired entry (local and learned), lifetimes recomputed.
    /// Used by proactive gossip (OLSR mode).
    pub fn all_entries(&self, now: SimTime) -> Vec<ServiceEntry> {
        self.all_iter(now).map(refreshed).collect()
    }

    /// All unexpired `service:gateway` entries, lifetimes recomputed, in
    /// origin order. The Connection Provider ranks them for lease
    /// candidacy.
    pub fn gateway_candidates(&self, now: SimTime) -> Vec<ServiceEntry> {
        self.entries
            .range(crate::service::service_types::GATEWAY, "")
            .filter_map(|s| s.live(now))
            .map(refreshed)
            .collect()
    }

    /// Removes every learned entry announced by `origin` — used when the
    /// node has first-hand evidence the origin is dead (e.g. a gateway
    /// that stopped answering tunnel keepalives) and its adverts must not
    /// keep satisfying lookups until they expire. Local registrations are
    /// untouched. Returns how many entries were dropped.
    pub fn purge_origin(&mut self, origin: Addr) -> usize {
        self.entries.retain(|s| s.local || s.entry.origin != origin)
    }

    /// Drops expired entries.
    pub fn purge(&mut self, now: SimTime) {
        if self.entries.retain(|s| s.expires > now) > 0 {
            let entries = &self.entries;
            self.local
                .retain(|(t, k, o)| entries.get(t, k, *o).is_some());
        }
    }

    /// Drops every *learned* (non-local) entry, returning how many were
    /// removed. Used after crashes and partition heals: entries absorbed
    /// before the disruption may name gateways or proxies that no longer
    /// exist, and serving them stale is worse than re-flooding a query.
    pub fn drop_remote(&mut self) -> usize {
        self.entries.retain(|s| s.local)
    }

    /// Number of stored entries (expired included until purged).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Renders the registry in the style of paper Fig. 4 (the MANET SLP
    /// process state listing).
    pub fn render(&self, now: SimTime) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "MANET SLP registrations ({} entries):", self.len());
        for s in self.entries.iter() {
            let marker = if s.local { "local " } else { "remote" };
            let _ = writeln!(
                out,
                "  [{marker}] {}  (expires {}, seq {})",
                s.entry.service_url(),
                s.expires,
                s.entry.seq
            );
        }
        let _ = now;
        out
    }
}

/// A node's registry, shared between the SLP daemon and the routing
/// handler.
pub type SharedRegistry = Rc<RefCell<SlpRegistry>>;

/// Creates a fresh shared registry.
pub fn shared_registry() -> SharedRegistry {
    Rc::new(RefCell::new(SlpRegistry::new()))
}

/// An owned copy of a live entry, carrying the lifetime it has left.
fn refreshed((e, lifetime_secs): (&ServiceEntry, u32)) -> ServiceEntry {
    ServiceEntry {
        lifetime_secs,
        ..e.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::rng::SimRng;
    use siphoc_simnet::time::SimDuration;

    fn sip(aor: &str, origin: u32, seq: u64, lifetime: u32) -> ServiceEntry {
        ServiceEntry::sip_binding(
            aor,
            format!("10.0.0.{}:5060", origin + 1).parse().unwrap(),
            Addr::manet(origin),
            seq,
            lifetime,
        )
    }

    #[test]
    fn absorb_accepts_new_and_fresher_only() {
        let mut r = SlpRegistry::new();
        let now = SimTime::ZERO;
        assert!(r.absorb(sip("alice@v.ch", 1, 5, 60), now));
        assert!(
            !r.absorb(sip("alice@v.ch", 1, 5, 60), now),
            "same seq rejected"
        );
        assert!(
            !r.absorb(sip("alice@v.ch", 1, 4, 60), now),
            "older rejected"
        );
        assert!(r.absorb(sip("alice@v.ch", 1, 6, 60), now), "newer accepted");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn same_seq_reannouncement_extends_expiry() {
        let mut r = SlpRegistry::new();
        assert!(r.absorb(sip("alice@v.ch", 1, 5, 60), SimTime::ZERO));
        // Re-announced at t=50 with the same seq: not re-gossiped, but the
        // lifetime restarts, so the entry must survive past the original
        // t=60 expiry.
        assert!(!r.absorb(sip("alice@v.ch", 1, 5, 60), SimTime::from_secs(50)));
        assert_eq!(
            r.lookup("sip", "alice@v.ch", SimTime::from_secs(90)).len(),
            1,
            "refresh must extend expiry"
        );
        assert!(r
            .lookup("sip", "alice@v.ch", SimTime::from_secs(120))
            .is_empty());
    }

    #[test]
    fn same_seq_refresh_never_shortens_expiry() {
        let mut r = SlpRegistry::new();
        assert!(r.absorb(sip("alice@v.ch", 1, 5, 100), SimTime::ZERO));
        // A same-seq copy with a shorter lifetime (e.g. relayed late) must
        // not pull the expiry earlier.
        assert!(!r.absorb(sip("alice@v.ch", 1, 5, 10), SimTime::from_secs(5)));
        assert_eq!(
            r.lookup("sip", "alice@v.ch", SimTime::from_secs(90)).len(),
            1
        );
    }

    #[test]
    fn gateway_candidates_read_live_gateways_in_origin_order() {
        let mut r = SlpRegistry::new();
        let now = SimTime::ZERO;
        let gw = |origin: u32, lifetime| {
            ServiceEntry::gateway(
                format!("82.130.{origin}.1:7077").parse().unwrap(),
                Addr::manet(origin),
                1,
                lifetime,
            )
        };
        r.absorb(gw(4, 60), now);
        r.absorb(gw(1, 60), now);
        r.absorb(gw(3, 30), now); // lapsed by the read
        r.absorb(gw(2, 90), now);
        r.absorb(sip("alice@v.ch", 9, 1, 60), now); // not a gateway
        let read = r.gateway_candidates(SimTime::from_secs(40));
        let got: Vec<(Addr, u32)> = read.iter().map(|e| (e.origin, e.lifetime_secs)).collect();
        assert_eq!(
            got,
            vec![
                (Addr::manet(1), 20),
                (Addr::manet(2), 50),
                (Addr::manet(4), 20)
            ]
        );
    }

    #[test]
    fn local_entries_never_overwritten_by_gossip() {
        let mut r = SlpRegistry::new();
        let now = SimTime::ZERO;
        r.register_local(sip("alice@v.ch", 0, 1, 60), now);
        assert!(!r.absorb(sip("alice@v.ch", 0, 99, 60), now));
        assert_eq!(r.lookup("sip", "alice@v.ch", now)[0].seq, 1);
    }

    #[test]
    fn lookup_filters_by_type_key_and_expiry() {
        let mut r = SlpRegistry::new();
        let now = SimTime::ZERO;
        r.absorb(sip("alice@v.ch", 1, 1, 10), now);
        r.absorb(sip("bob@v.ch", 2, 1, 100), now);
        r.absorb(
            ServiceEntry::gateway("10.0.0.9:7077".parse().unwrap(), Addr::manet(8), 1, 100),
            now,
        );
        assert_eq!(r.lookup("sip", "alice@v.ch", now).len(), 1);
        assert_eq!(r.lookup("sip", "", now).len(), 2, "empty key matches type");
        assert_eq!(r.lookup("gateway", "", now).len(), 1);
        let later = SimTime::from_secs(50);
        assert!(r.lookup("sip", "alice@v.ch", later).is_empty(), "expired");
    }

    #[test]
    fn same_aor_from_two_origins_both_kept() {
        let mut r = SlpRegistry::new();
        let now = SimTime::ZERO;
        r.absorb(sip("alice@v.ch", 1, 1, 60), now);
        r.absorb(sip("alice@v.ch", 2, 1, 60), now);
        assert_eq!(r.lookup("sip", "alice@v.ch", now).len(), 2);
    }

    #[test]
    fn refreshed_lifetime_shrinks_with_age() {
        let mut r = SlpRegistry::new();
        r.register_local(sip("alice@v.ch", 0, 1, 100), SimTime::ZERO);
        let at_40 = SimTime::from_secs(40);
        let e = &r.local_entries(at_40)[0];
        assert_eq!(e.lifetime_secs, 60);
    }

    #[test]
    fn purge_removes_expired() {
        let mut r = SlpRegistry::new();
        r.absorb(sip("a@v.ch", 1, 1, 10), SimTime::ZERO);
        r.purge(SimTime::from_secs(20));
        assert!(r.is_empty());
    }

    #[test]
    fn auth_policy_rejects_unsigned_and_forged() {
        use siphoc_simnet::ident::KeyPair;
        let mut r = SlpRegistry::new();
        r.set_require_signed(true);
        let now = SimTime::ZERO;
        let alice = KeyPair::for_addr(Addr::manet(1).0);
        let mallory = KeyPair::for_addr(Addr::manet(6).0);

        // Unsigned: dropped outright.
        assert_eq!(
            r.absorb_checked(sip("alice@v.ch", 1, 1, 60), now),
            Absorb::Unsigned
        );
        // Validly signed: accepted, pins alice's identity for the AOR.
        assert_eq!(
            r.absorb_checked(sip("alice@v.ch", 1, 1, 60).signed(&alice), now),
            Absorb::Fresh
        );
        assert_eq!(r.pinned_aor_identity("alice@v.ch"), Some(alice.identity()));
        // Tampered copy (signature no longer covers the fields): dropped.
        let mut tampered = sip("alice@v.ch", 1, 9, 60).signed(&alice);
        tampered.contact = "10.0.0.66:5060".parse().unwrap();
        assert_eq!(r.absorb_checked(tampered, now), Absorb::BadSig);
        // Mallory hijacks the AOR from her own origin with her own valid
        // key and a huge seq: pin mismatch, dropped, cache unchanged.
        let hijack = sip("alice@v.ch", 6, u64::MAX, 60).signed(&mallory);
        assert!(hijack.auth_valid());
        assert_eq!(r.absorb_checked(hijack, now), Absorb::PinMismatch);
        assert_eq!(r.lookup("sip", "alice@v.ch", now).len(), 1);
        assert_eq!(r.lookup("sip", "alice@v.ch", now)[0].origin, Addr::manet(1));
    }

    #[test]
    fn auth_policy_pins_gateway_origins() {
        use siphoc_simnet::ident::KeyPair;
        let mut r = SlpRegistry::new();
        r.set_require_signed(true);
        let now = SimTime::ZERO;
        let gw_key = KeyPair::for_addr(Addr::manet(2).0);
        let mallory = KeyPair::for_addr(Addr::manet(6).0);
        let gw = ServiceEntry::gateway("82.130.64.1:7077".parse().unwrap(), Addr::manet(2), 1, 60);
        assert_eq!(
            r.absorb_checked(gw.clone().signed(&gw_key), now),
            Absorb::Fresh
        );
        assert_eq!(
            r.pinned_origin_identity(Addr::manet(2)),
            Some(gw_key.identity())
        );
        // Impersonation: mallory forges the gateway's origin under her own
        // key (she cannot sign as the gateway) with a fresher seq.
        let mut forged = gw.clone();
        forged.seq = 99;
        forged.contact = "82.130.64.1:7077".parse().unwrap();
        assert_eq!(
            r.absorb_checked(forged.signed(&mallory), now),
            Absorb::PinMismatch
        );
        // The gateway's own key change is equally a pin mismatch — the
        // Connection Provider treats that as gateway death.
        let rotated = KeyPair::from_secret(0x5eed);
        let mut rekeyed = gw;
        rekeyed.seq = 100;
        assert_eq!(
            r.absorb_checked(rekeyed.signed(&rotated), now),
            Absorb::PinMismatch
        );
        // The legitimate gateway itself keeps refreshing fine.
        let fresh =
            ServiceEntry::gateway("82.130.64.1:7077".parse().unwrap(), Addr::manet(2), 2, 60);
        assert_eq!(r.absorb_checked(fresh.signed(&gw_key), now), Absorb::Fresh);
    }

    #[test]
    fn auth_policy_off_accepts_everything_unchanged() {
        let mut r = SlpRegistry::new();
        assert!(!r.require_signed());
        let now = SimTime::ZERO;
        assert_eq!(
            r.absorb_checked(sip("alice@v.ch", 1, 1, 60), now),
            Absorb::Fresh
        );
        // Forged unsigned hijack sails through — the documented defense-off
        // behavior the adversarial experiment measures.
        assert_eq!(
            r.absorb_checked(sip("alice@v.ch", 6, u64::MAX, 60), now),
            Absorb::Fresh
        );
        assert_eq!(r.lookup("sip", "alice@v.ch", now).len(), 2);
        assert_eq!(r.pinned_aor_identity("alice@v.ch"), None);
    }

    #[test]
    fn local_registration_wins_the_pin_race() {
        use siphoc_simnet::ident::KeyPair;
        let mut r = SlpRegistry::new();
        r.set_require_signed(true);
        let now = SimTime::ZERO;
        let me = KeyPair::for_addr(Addr::manet(0).0);
        let mallory = KeyPair::for_addr(Addr::manet(6).0);
        r.register_local(sip("alice@v.ch", 0, 1, 60), now); // unsigned: no pin
        r.register_local(sip("alice@v.ch", 0, 2, 60).signed(&me), now);
        assert_eq!(r.pinned_aor_identity("alice@v.ch"), Some(me.identity()));
        assert_eq!(
            r.absorb_checked(sip("alice@v.ch", 6, 9, 60).signed(&mallory), now),
            Absorb::PinMismatch
        );
    }

    #[test]
    fn render_shows_local_and_remote() {
        let mut r = SlpRegistry::new();
        let now = SimTime::ZERO;
        r.register_local(sip("alice@v.ch", 0, 1, 60), now);
        r.absorb(sip("bob@v.ch", 1, 1, 60), now);
        let s = r.render(now);
        assert!(s.contains("[local ]"));
        assert!(s.contains("[remote]"));
        assert!(s.contains("service:sip://alice@v.ch!10.0.0.1:5060"));
    }

    /// The reference the differential test holds [`SlpRegistry`] to: one
    /// map keyed by owned `(type, key, origin)` tuples, and every question
    /// a filter over all of it.
    #[derive(Default)]
    struct ScanOracle {
        entries: BTreeMap<(String, String, Addr), Stored>,
    }

    impl ScanOracle {
        fn name(e: &ServiceEntry) -> (String, String, Addr) {
            (e.service_type.clone(), e.key.clone(), e.origin)
        }

        fn register_local(&mut self, entry: ServiceEntry, now: SimTime) {
            let expires = entry.expires_at(now);
            self.entries.insert(
                Self::name(&entry),
                Stored {
                    entry,
                    expires,
                    local: true,
                },
            );
        }

        fn deregister_local(&mut self, service_type: &str, key: &str, origin: Addr) {
            self.entries
                .remove(&(service_type.to_owned(), key.to_owned(), origin));
        }

        fn absorb(&mut self, entry: ServiceEntry, now: SimTime) -> Absorb {
            let key = Self::name(&entry);
            match self.entries.get_mut(&key) {
                Some(existing) if existing.local => Absorb::Stale,
                Some(existing) if existing.entry.seq > entry.seq && existing.expires > now => {
                    Absorb::Stale
                }
                Some(existing) if existing.entry.seq == entry.seq && existing.expires > now => {
                    existing.expires = existing.expires.max(entry.expires_at(now));
                    Absorb::Stale
                }
                _ => {
                    let expires = entry.expires_at(now);
                    let local = false;
                    self.entries.insert(
                        key,
                        Stored {
                            entry,
                            expires,
                            local,
                        },
                    );
                    Absorb::Fresh
                }
            }
        }

        fn live(&self, now: SimTime) -> impl Iterator<Item = &Stored> {
            self.entries.values().filter(move |s| s.expires > now)
        }

        fn lookup(&self, service_type: &str, key: &str, now: SimTime) -> Vec<&ServiceEntry> {
            self.live(now)
                .filter(|s| {
                    s.entry.service_type == service_type && (key.is_empty() || s.entry.key == key)
                })
                .map(|s| &s.entry)
                .collect()
        }

        fn matching(&self, query: &ServiceQuery, now: SimTime) -> Vec<ServiceEntry> {
            self.live(now)
                .filter(|s| query.matches(&s.entry))
                .map(|s| old_refreshed(s, now))
                .collect()
        }

        fn local_entries(&self, now: SimTime) -> Vec<ServiceEntry> {
            self.live(now)
                .filter(|s| s.local)
                .map(|s| old_refreshed(s, now))
                .collect()
        }

        fn all_entries(&self, now: SimTime) -> Vec<ServiceEntry> {
            self.live(now).map(|s| old_refreshed(s, now)).collect()
        }

        fn gateway_candidates(&self, now: SimTime) -> Vec<ServiceEntry> {
            self.live(now)
                .filter(|s| s.entry.service_type == crate::service::service_types::GATEWAY)
                .map(|s| old_refreshed(s, now))
                .collect()
        }

        fn purge_origin(&mut self, origin: Addr) -> usize {
            let before = self.entries.len();
            self.entries
                .retain(|_, s| s.local || s.entry.origin != origin);
            before - self.entries.len()
        }

        fn purge(&mut self, now: SimTime) {
            self.entries.retain(|_, s| s.expires > now);
        }

        fn drop_remote(&mut self) -> usize {
            let before = self.entries.len();
            self.entries.retain(|_, s| s.local);
            before - self.entries.len()
        }

        fn render(&self) -> String {
            use std::fmt::Write as _;
            let mut out = format!(
                "MANET SLP registrations ({} entries):\n",
                self.entries.len()
            );
            for s in self.entries.values() {
                let marker = if s.local { "local " } else { "remote" };
                let _ = writeln!(
                    out,
                    "  [{marker}] {}  (expires {}, seq {})",
                    s.entry.service_url(),
                    s.expires,
                    s.entry.seq
                );
            }
            out
        }
    }

    fn old_refreshed(s: &Stored, now: SimTime) -> ServiceEntry {
        let mut e = s.entry.clone();
        e.lifetime_secs = s.expires.saturating_since(now).as_secs_f64() as u32;
        e
    }

    /// Types and keys where one prefixes another, ones that share their
    /// first eight bytes (the map's search head) and one that differs from
    /// another only by a trailing NUL (the head's padding), and the empty
    /// key (a gateway's, but any type may carry it).
    const TYPES: [&str; 5] = ["sip", "sipx", "gateway", "gateway-a", "gateway-b"];
    const KEYS: [&str; 7] = [
        "",
        "u1",
        "u1\0",
        "u10",
        "u2",
        "u1@voicehoc.ch",
        "u1@voicehoc.net",
    ];
    const ORIGINS: u32 = 4;

    fn assert_same(r: &SlpRegistry, o: &ScanOracle, now: SimTime, step: usize) {
        for t in TYPES {
            for k in KEYS {
                let q = ServiceQuery {
                    service_type: t.to_owned(),
                    key: k.to_owned(),
                    origin: Addr::manet(9),
                    qid: 1,
                };
                assert_eq!(
                    r.matching(&q, now),
                    o.matching(&q, now),
                    "step {step}: {t}/{k}"
                );
                assert_eq!(
                    r.lookup(t, k, now),
                    o.lookup(t, k, now),
                    "step {step}: {t}/{k}"
                );
            }
        }
        assert_eq!(r.local_entries(now), o.local_entries(now), "step {step}");
        assert_eq!(r.all_entries(now), o.all_entries(now), "step {step}");
        assert_eq!(
            r.gateway_candidates(now),
            o.gateway_candidates(now),
            "step {step}"
        );
        assert_eq!(r.len(), o.entries.len(), "step {step}");
        assert_eq!(r.is_empty(), o.entries.is_empty(), "step {step}");
        assert_eq!(r.render(now), o.render(), "step {step}");
    }

    /// A seeded random walk over local (de)registrations, absorbs with
    /// older, equal and newer seqs, purges, origin purges and remote
    /// drops, with time now and then jumping past every lifetime. Half
    /// the steps reuse the previous step's name, so one name sees
    /// register, deregister and absorb in a row.
    fn registry_walk(seed: u64) {
        let mut rng = SimRng::from_seed_and_stream(seed, 427);
        let mut r = SlpRegistry::new();
        let mut o = ScanOracle::default();
        let mut now = SimTime::ZERO;
        let mut seqs: BTreeMap<(usize, usize, u32), u64> = BTreeMap::new();
        let (mut most, mut locals_seen) = (0, 0);
        let mut name = (0, 0, 0);
        for step in 0..3000 {
            now += match rng.range_u64(0, 40) {
                0 => SimDuration::from_secs(rng.range_u64(20, 40)),
                _ => SimDuration::from_millis(rng.range_u64(0, 1500)),
            };
            if rng.chance(0.5) {
                name = (
                    rng.range_u64(0, TYPES.len() as u64) as usize,
                    rng.range_u64(0, KEYS.len() as u64) as usize,
                    rng.range_u64(0, u64::from(ORIGINS)) as u32,
                );
            }
            let (t, k, origin) = name;
            let seq = seqs.entry((t, k, origin)).or_insert(5);
            // Older, equal or newer than the last seq this name carried.
            let drawn = match rng.range_u64(0, 3) {
                0 => *seq - 1,
                1 => *seq,
                _ => *seq + 1,
            };
            *seq = (*seq).max(drawn);
            let entry = ServiceEntry {
                service_type: TYPES[t].to_owned(),
                key: KEYS[k].to_owned(),
                contact: format!("10.0.0.{}:5060", origin + 1).parse().unwrap(),
                origin: Addr::manet(origin),
                seq: drawn,
                lifetime_secs: rng.range_u64(1, 30) as u32,
                auth: None,
            };
            match rng.range_u64(0, 100) {
                0..=59 => assert_eq!(
                    r.absorb_checked(entry.clone(), now),
                    o.absorb(entry, now),
                    "step {step}"
                ),
                60..=74 => {
                    r.register_local(entry.clone(), now);
                    o.register_local(entry, now);
                }
                75..=84 => {
                    let (t, k, a) = (TYPES[t], KEYS[k], Addr::manet(origin));
                    r.deregister_local(t, k, a);
                    o.deregister_local(t, k, a);
                }
                85..=92 => {
                    r.purge(now);
                    o.purge(now);
                }
                93..=96 => assert_eq!(
                    r.purge_origin(Addr::manet(origin)),
                    o.purge_origin(Addr::manet(origin)),
                    "step {step}"
                ),
                _ => assert_eq!(r.drop_remote(), o.drop_remote(), "step {step}"),
            }
            assert_same(&r, &o, now, step);
            most = most.max(o.entries.len());
            locals_seen = locals_seen.max(o.local_entries(now).len());
        }
        // The walk reached a full registry with several own entries live.
        assert!(most >= 20 && locals_seen >= 3, "{most} {locals_seen}");
    }

    #[test]
    fn range_reads_match_the_scan_oracle_on_random_walks() {
        for seed in [1, 2, 3, 4] {
            registry_walk(seed);
        }
    }

    #[test]
    fn an_expired_local_entry_leaves_the_index_on_purge() {
        let mut r = SlpRegistry::new();
        r.register_local(sip("alice@v.ch", 0, 1, 10), SimTime::ZERO);
        r.register_local(sip("bob@v.ch", 0, 1, 100), SimTime::ZERO);
        let later = SimTime::from_secs(20);
        assert_eq!(r.local_entries(later).len(), 1, "expired, not yet purged");
        r.purge(later);
        assert_eq!(r.local.len(), 1);
        assert_eq!(r.local_entries(later)[0].key, "bob@v.ch");
    }
}
