//! Per-node IP-style forwarding table.
//!
//! The forwarding table is owned by the node's network stack and *managed* by
//! whichever routing protocol process runs on the node (AODV installs routes
//! on demand, OLSR keeps them proactively). This mirrors the split between
//! the kernel FIB and the user-space routing daemon in the paper's Linux
//! deployment. The table holds per-destination routes only: the paper's
//! default route onto the SIPHoc tunnel is the node's default handler
//! (`Ctx::set_default_handler`), not an entry here.

use std::fmt;

use crate::net::Addr;
use crate::time::SimTime;

/// A single route entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Next hop toward the destination (a direct radio neighbor).
    pub next_hop: Addr,
    /// Path length in hops, 1 for direct neighbors.
    pub hops: u8,
    /// Entry becomes invalid at this instant ([`SimTime::MAX`] = no expiry).
    pub expires: SimTime,
    /// Destination sequence number (AODV freshness; 0 when unused).
    pub seq: u32,
}

/// The forwarding table of one node: one `(destination, route)` entry
/// per destination, kept sorted by destination, so a lookup is a binary
/// search over one contiguous array.
///
/// # Examples
///
/// ```
/// use siphoc_simnet::route::{Route, RoutingTable};
/// use siphoc_simnet::net::Addr;
/// use siphoc_simnet::time::SimTime;
///
/// let mut table = RoutingTable::new();
/// let dst = Addr::manet(5);
/// table.insert(dst, Route { next_hop: Addr::manet(1), hops: 2, expires: SimTime::MAX, seq: 0 });
/// assert_eq!(table.lookup(dst, SimTime::ZERO).unwrap().hops, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    /// Ascending by destination, one entry per destination.
    entries: Vec<(Addr, Route)>,
    keepalive: Option<crate::time::SimDuration>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub const fn new() -> RoutingTable {
        RoutingTable {
            entries: Vec::new(),
            keepalive: None,
        }
    }

    /// Bytes of heap the entries occupy, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(Addr, Route)>()
    }

    /// Where `dst` sits in `entries`, or where it would be inserted.
    fn find(&self, dst: Addr) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&dst, |(d, _)| *d)
    }

    /// Installs or replaces the route for `dst`.
    pub fn insert(&mut self, dst: Addr, route: Route) {
        match self.find(dst) {
            Ok(at) => self.entries[at].1 = route,
            Err(at) => self.entries.insert(at, (dst, route)),
        }
    }

    /// Installs or replaces the route of every `(dst, route)` pair, which
    /// come in strictly ascending destination order: `insert` for each,
    /// in one pass over the table.
    ///
    /// # Panics
    ///
    /// Panics if a destination is not above the one before it.
    pub fn insert_ascending(&mut self, routes: impl IntoIterator<Item = (Addr, Route)>) {
        let (mut at, mut last) = (0, None);
        for (dst, route) in routes {
            assert!(last < Some(dst), "{dst} after {last:?}: not ascending");
            last = Some(dst);
            while self.entries.get(at).is_some_and(|(d, _)| *d < dst) {
                at += 1;
            }
            match self.entries.get_mut(at) {
                Some((d, r)) if *d == dst => *r = route,
                _ => self.entries.insert(at, (dst, route)),
            }
            at += 1;
        }
    }

    /// Removes the route for `dst`, returning it if present.
    pub fn remove(&mut self, dst: Addr) -> Option<Route> {
        let at = self.find(dst).ok()?;
        Some(self.entries.remove(at).1)
    }

    /// Looks up an unexpired route for `dst` at time `now`; there is no
    /// fallback entry.
    pub fn lookup(&self, dst: Addr, now: SimTime) -> Option<Route> {
        let at = self.find(dst).ok()?;
        let r = self.entries[at].1;
        (r.expires > now).then_some(r)
    }

    /// Sets the keepalive extension for routes that carry data traffic.
    ///
    /// Reactive protocols (AODV) call this with their active-route
    /// timeout: RFC 3561 §6.2 requires an entry's lifetime to be pushed
    /// out each time the route forwards a packet, so routes in active use
    /// never expire mid-flow. Proactive protocols leave it unset — their
    /// periodic updates already refresh entries.
    pub fn set_keepalive(&mut self, extend: Option<crate::time::SimDuration>) {
        self.keepalive = extend;
    }

    /// Looks up an unexpired route for `dst` and, when a keepalive
    /// extension is configured, pushes the entry's expiry out to
    /// `now + keepalive`. The forwarding path uses this so data traffic
    /// keeps its own routes alive.
    pub fn lookup_active(&mut self, dst: Addr, now: SimTime) -> Option<Route> {
        let keepalive = self.keepalive;
        let r = self.get_mut(dst).filter(|r| r.expires > now)?;
        if let Some(extend) = keepalive {
            r.expires = r.expires.max(now + extend);
        }
        Some(*r)
    }

    /// Returns a mutable reference to the entry for `dst`, if present
    /// (expired entries included, so callers can refresh them).
    pub fn get_mut(&mut self, dst: Addr) -> Option<&mut Route> {
        let at = self.find(dst).ok()?;
        Some(&mut self.entries[at].1)
    }

    /// Drops every entry whose next hop is `neighbor`, returning the
    /// affected destinations in ascending order. Routing protocols call
    /// this on link breaks.
    pub fn invalidate_via(&mut self, neighbor: Addr) -> Vec<Addr> {
        let mut dead = Vec::new();
        self.entries.retain(|(d, r)| {
            let via = r.next_hop == neighbor;
            if via {
                dead.push(*d);
            }
            !via
        });
        dead
    }

    /// Removes all expired entries.
    pub fn purge_expired(&mut self, now: SimTime) {
        self.entries.retain(|(_, r)| r.expires > now);
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of entries, including expired ones.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(destination, route)` pairs in ascending
    /// destination order.
    pub fn iter(&self) -> impl Iterator<Item = (&Addr, &Route)> {
        self.entries.iter().map(|(d, r)| (d, r))
    }
}

impl fmt::Display for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "destination      next-hop         hops seq")?;
        for (dst, r) in self.iter() {
            writeln!(
                f,
                "{:<16} {:<16} {:<4} {}",
                dst.to_string(),
                r.next_hop.to_string(),
                r.hops,
                r.seq
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;
    use std::collections::BTreeMap;

    /// Ceiling on `size_of::<(Addr, Route)>()`: every table entry pays
    /// it, and a lookup's binary search strides over it.
    const ROUTE_ENTRY_INLINE_MAX: usize = 32;

    #[test]
    fn route_entry_stays_under_its_inline_ceiling() {
        let size = std::mem::size_of::<(Addr, Route)>();
        assert!(size <= ROUTE_ENTRY_INLINE_MAX, "a route entry is {size} B");
    }

    fn route(next: u32, hops: u8, expires: SimTime) -> Route {
        Route {
            next_hop: Addr::manet(next),
            hops,
            expires,
            seq: 0,
        }
    }

    #[test]
    fn lookup_respects_expiry() {
        let mut t = RoutingTable::new();
        let dst = Addr::manet(9);
        t.insert(dst, route(1, 2, SimTime::from_secs(10)));
        assert!(t.lookup(dst, SimTime::from_secs(5)).is_some());
        assert!(t.lookup(dst, SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn invalidate_via_removes_matching_entries() {
        let mut t = RoutingTable::new();
        t.insert(Addr::manet(5), route(1, 2, SimTime::MAX));
        t.insert(Addr::manet(6), route(1, 3, SimTime::MAX));
        t.insert(Addr::manet(7), route(2, 1, SimTime::MAX));
        let mut dead = t.invalidate_via(Addr::manet(1));
        dead.sort();
        assert_eq!(dead, vec![Addr::manet(5), Addr::manet(6)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn purge_expired_removes_stale_entries() {
        let mut t = RoutingTable::new();
        let now = SimTime::from_secs(100);
        t.insert(Addr::manet(1), route(1, 1, SimTime::from_secs(50)));
        t.insert(Addr::manet(2), route(2, 1, now + SimDuration::from_secs(1)));
        t.purge_expired(now);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_active_extends_expiry_only_with_keepalive() {
        let mut t = RoutingTable::new();
        let dst = Addr::manet(9);
        t.insert(dst, route(1, 2, SimTime::from_secs(10)));
        // Without keepalive: plain lookup, no refresh.
        assert!(t.lookup_active(dst, SimTime::from_secs(5)).is_some());
        assert!(t.lookup_active(dst, SimTime::from_secs(10)).is_none());

        t.insert(dst, route(1, 2, SimTime::from_secs(10)));
        t.set_keepalive(Some(SimDuration::from_secs(6)));
        assert!(t.lookup_active(dst, SimTime::from_secs(9)).is_some());
        // Use at t=9 pushed the expiry to t=15.
        assert!(t.lookup(dst, SimTime::from_secs(14)).is_some());
        assert!(t.lookup(dst, SimTime::from_secs(15)).is_none());
        // An already-expired route is not resurrected.
        assert!(t.lookup_active(dst, SimTime::from_secs(20)).is_none());
    }

    #[test]
    #[should_panic(expected = "not ascending")]
    fn insert_ascending_refuses_a_repeated_destination() {
        let dst = Addr::manet(2);
        let r = route(1, 1, SimTime::MAX);
        RoutingTable::new().insert_ascending([(dst, r), (dst, r)]);
    }

    #[test]
    fn display_lists_routes() {
        let mut t = RoutingTable::new();
        t.insert(Addr::manet(5), route(1, 2, SimTime::MAX));
        let s = t.to_string();
        assert!(s.contains("10.0.0.6"));
        assert!(s.contains("10.0.0.2"));
    }

    /// The table as a `BTreeMap`, the representation it replaced: the
    /// oracle of the random walk below.
    #[derive(Default)]
    struct Oracle {
        entries: BTreeMap<Addr, Route>,
        keepalive: Option<SimDuration>,
    }

    impl Oracle {
        fn lookup(&self, dst: Addr, now: SimTime) -> Option<Route> {
            self.entries.get(&dst).filter(|r| r.expires > now).copied()
        }

        fn lookup_active(&mut self, dst: Addr, now: SimTime) -> Option<Route> {
            if let Some(extend) = self.keepalive {
                if let Some(r) = self.entries.get_mut(&dst) {
                    if r.expires > now {
                        let refreshed = now + extend;
                        if r.expires < refreshed {
                            r.expires = refreshed;
                        }
                        return Some(*r);
                    }
                }
            }
            self.lookup(dst, now)
        }

        fn invalidate_via(&mut self, neighbor: Addr) -> Vec<Addr> {
            let dead: Vec<Addr> = (self.entries.iter())
                .filter(|(_, r)| r.next_hop == neighbor)
                .map(|(d, _)| *d)
                .collect();
            for d in &dead {
                self.entries.remove(d);
            }
            dead
        }
    }

    #[test]
    fn matches_a_btreemap_on_random_walks() {
        for seed in 1..=8 {
            let mut rng = SimRng::from_seed_and_stream(seed, 3561);
            let mut table = RoutingTable::new();
            let mut oracle = Oracle::default();
            let mut now = SimTime::ZERO;
            for step in 0..3000 {
                now += SimDuration::from_millis(rng.range_u64(0, 300));
                let dst = Addr::manet(rng.range_u64(0, 48) as u32);
                let at = |rng: &mut SimRng| now + SimDuration::from_millis(rng.range_u64(0, 5_000));
                match rng.range_u64(0, 100) {
                    0..=34 => {
                        let r = route(rng.range_u64(0, 6) as u32, 1, at(&mut rng));
                        table.insert(dst, r);
                        oracle.entries.insert(dst, r);
                    }
                    35..=44 => assert_eq!(table.remove(dst), oracle.entries.remove(&dst)),
                    45..=49 => {
                        let mut batch: Vec<(Addr, Route)> = (0..rng.range_u64(0, 20))
                            .map(|_| {
                                let dst = Addr::manet(rng.range_u64(0, 48) as u32);
                                (dst, route(rng.range_u64(0, 6) as u32, 2, at(&mut rng)))
                            })
                            .collect();
                        batch.sort_by_key(|(d, _)| *d);
                        batch.dedup_by_key(|(d, _)| *d);
                        oracle.entries.extend(batch.iter().copied());
                        table.insert_ascending(batch);
                    }
                    50..=54 => {
                        let expires = at(&mut rng);
                        let got = table.get_mut(dst).map(|r| {
                            r.expires = expires;
                            *r
                        });
                        let want = oracle.entries.get_mut(&dst).map(|r| {
                            r.expires = expires;
                            *r
                        });
                        assert_eq!(got, want);
                    }
                    55..=69 => assert_eq!(table.lookup(dst, now), oracle.lookup(dst, now)),
                    70..=84 => {
                        assert_eq!(
                            table.lookup_active(dst, now),
                            oracle.lookup_active(dst, now)
                        );
                    }
                    85..=89 => {
                        let extend = rng
                            .chance(0.5)
                            .then(|| SimDuration::from_millis(rng.range_u64(1, 3_000)));
                        table.set_keepalive(extend);
                        oracle.keepalive = extend;
                    }
                    90..=93 => {
                        let neighbor = Addr::manet(rng.range_u64(0, 6) as u32);
                        assert_eq!(
                            table.invalidate_via(neighbor),
                            oracle.invalidate_via(neighbor)
                        );
                    }
                    94..=98 => {
                        table.purge_expired(now);
                        oracle.entries.retain(|_, r| r.expires > now);
                    }
                    _ => {
                        table.clear();
                        oracle.entries.clear();
                    }
                }
                let got: Vec<(Addr, Route)> = table.iter().map(|(d, r)| (*d, *r)).collect();
                let want: Vec<(Addr, Route)> =
                    oracle.entries.iter().map(|(d, r)| (*d, *r)).collect();
                assert_eq!(got, want, "seed {seed}, step {step}");
                assert_eq!(table.len(), oracle.entries.len());
                assert_eq!(table.is_empty(), oracle.entries.is_empty());
            }
        }
    }
}
