//! The distributed SLP registry state.
//!
//! Each node keeps one [`SlpRegistry`], shared (as a [`SharedRegistry`])
//! between the SLP daemon process and, under MANET SLP, the routing
//! handler that gossips its contents. Entries are versioned per
//! `(type, key, origin)` with a sequence number, so epidemic
//! dissemination converges and refreshes win over staleness.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use siphoc_simnet::time::SimTime;

use crate::service::{ServiceEntry, ServiceQuery};

#[derive(Debug, Clone)]
struct Stored {
    entry: ServiceEntry,
    expires: SimTime,
    local: bool,
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
#[derive(Debug, Default)]
pub struct SlpRegistry {
    /// Keyed by `(service_type, key, origin)`.
    entries: BTreeMap<(String, String, siphoc_simnet::net::Addr), Stored>,
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
        let expires = entry.expires_at(now);
        let key = (entry.service_type.clone(), entry.key.clone(), entry.origin);
        self.entries.insert(
            key,
            Stored {
                entry,
                expires,
                local: true,
            },
        );
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
    pub fn pinned_origin_identity(&self, origin: siphoc_simnet::net::Addr) -> Option<u64> {
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
    pub fn deregister_local(
        &mut self,
        service_type: &str,
        key: &str,
        origin: siphoc_simnet::net::Addr,
    ) {
        self.entries
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
        let key = (entry.service_type.clone(), entry.key.clone(), entry.origin);
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
                self.entries.insert(
                    key,
                    Stored {
                        entry,
                        expires,
                        local: false,
                    },
                );
                Absorb::Fresh
            }
        }
    }

    /// All unexpired entries matching `(service_type, key)`; an empty key
    /// matches every entry of the type.
    pub fn lookup(&self, service_type: &str, key: &str, now: SimTime) -> Vec<&ServiceEntry> {
        self.entries
            .values()
            .filter(|s| {
                s.expires > now
                    && s.entry.service_type == service_type
                    && (key.is_empty() || s.entry.key == key)
            })
            .map(|s| &s.entry)
            .collect()
    }

    /// All unexpired entries matching a query.
    pub fn matching(&self, query: &ServiceQuery, now: SimTime) -> Vec<ServiceEntry> {
        self.entries
            .values()
            .filter(|s| s.expires > now && query.matches(&s.entry))
            .map(|s| refreshed(s, now))
            .collect()
    }

    /// The node's own registrations, with lifetimes recomputed for
    /// serialization.
    pub fn local_entries(&self, now: SimTime) -> Vec<ServiceEntry> {
        self.entries
            .values()
            .filter(|s| s.local && s.expires > now)
            .map(|s| refreshed(s, now))
            .collect()
    }

    /// Every unexpired entry (local and learned), lifetimes recomputed.
    /// Used by proactive gossip (OLSR mode).
    pub fn all_entries(&self, now: SimTime) -> Vec<ServiceEntry> {
        self.entries
            .values()
            .filter(|s| s.expires > now)
            .map(|s| refreshed(s, now))
            .collect()
    }

    /// All unexpired `service:gateway` entries ranked for lease candidacy:
    /// fewest hops first (per `hops_to`; unreachable sorts last), then the
    /// longest remaining lifetime, then origin for a stable total order.
    /// The Connection Provider leases from the head and keeps the tail as
    /// warm standby for mid-call handoff.
    pub fn gateway_candidates(
        &self,
        now: SimTime,
        hops_to: impl FnMut(siphoc_simnet::net::Addr) -> Option<u8>,
    ) -> Vec<ServiceEntry> {
        let mut out: Vec<ServiceEntry> = self
            .entries
            .values()
            .filter(|s| {
                s.expires > now && s.entry.service_type == crate::service::service_types::GATEWAY
            })
            .map(|s| refreshed(s, now))
            .collect();
        rank_gateways(&mut out, hops_to);
        out
    }

    /// Removes every learned entry announced by `origin` — used when the
    /// node has first-hand evidence the origin is dead (e.g. a gateway
    /// that stopped answering tunnel keepalives) and its adverts must not
    /// keep satisfying lookups until they expire. Local registrations are
    /// untouched. Returns how many entries were dropped.
    pub fn purge_origin(&mut self, origin: siphoc_simnet::net::Addr) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|_, s| s.local || s.entry.origin != origin);
        before - self.entries.len()
    }

    /// Drops expired entries.
    pub fn purge(&mut self, now: SimTime) {
        self.entries.retain(|_, s| s.expires > now);
    }

    /// Drops every *learned* (non-local) entry, returning how many were
    /// removed. Used after crashes and partition heals: entries absorbed
    /// before the disruption may name gateways or proxies that no longer
    /// exist, and serving them stale is worse than re-flooding a query.
    pub fn drop_remote(&mut self) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, s| s.local);
        before - self.entries.len()
    }

    /// Number of stored entries (expired included until purged).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the registry in the style of paper Fig. 4 (the MANET SLP
    /// process state listing).
    pub fn render(&self, now: SimTime) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "MANET SLP registrations ({} entries):",
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

fn refreshed(s: &Stored, now: SimTime) -> ServiceEntry {
    let mut e = s.entry.clone();
    e.lifetime_secs = s.expires.saturating_since(now).as_secs_f64() as u32;
    e
}

/// Orders gateway entries by lease desirability: hop count to the origin
/// ascending (no route = `u8::MAX`, last), remaining lifetime descending
/// (fresher adverts are likelier to still be alive), origin ascending as a
/// deterministic tiebreak.
pub fn rank_gateways(
    entries: &mut [ServiceEntry],
    mut hops_to: impl FnMut(siphoc_simnet::net::Addr) -> Option<u8>,
) {
    entries.sort_by_key(|e| {
        (
            hops_to(e.origin).unwrap_or(u8::MAX),
            std::cmp::Reverse(e.lifetime_secs),
            e.origin,
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::net::Addr;

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
    fn gateway_candidates_rank_by_hops_then_freshness() {
        let mut r = SlpRegistry::new();
        let now = SimTime::ZERO;
        let gw = |origin: u32, seq, lifetime| {
            ServiceEntry::gateway(
                format!("82.130.{origin}.1:7077").parse().unwrap(),
                Addr::manet(origin),
                seq,
                lifetime,
            )
        };
        r.absorb(gw(1, 1, 60), now); // 3 hops
        r.absorb(gw(2, 1, 60), now); // 1 hop
        r.absorb(gw(3, 1, 30), now); // 1 hop but staler
        r.absorb(gw(4, 1, 60), now); // unreachable
        r.absorb(sip("alice@v.ch", 9, 1, 60), now); // not a gateway
        let hops = |a: Addr| match a {
            a if a == Addr::manet(1) => Some(3),
            a if a == Addr::manet(2) => Some(1),
            a if a == Addr::manet(3) => Some(1),
            _ => None,
        };
        let ranked = r.gateway_candidates(now, hops);
        let origins: Vec<Addr> = ranked.iter().map(|e| e.origin).collect();
        assert_eq!(
            origins,
            vec![
                Addr::manet(2),
                Addr::manet(3),
                Addr::manet(1),
                Addr::manet(4)
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
}
