//! Per-node IP-style forwarding table.
//!
//! The forwarding table is owned by the node's network stack and *managed* by
//! whichever routing protocol process runs on the node (AODV installs routes
//! on demand, OLSR keeps them proactively). This mirrors the split between
//! the kernel FIB and the user-space routing daemon in the paper's Linux
//! deployment. The table holds per-destination routes only: the paper's
//! default route onto the SIPHoc tunnel is the node's default handler
//! (`Ctx::set_default_handler`), not an entry here.

use std::collections::BTreeMap;
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

/// The forwarding table of one node.
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
    entries: BTreeMap<Addr, Route>,
    keepalive: Option<crate::time::SimDuration>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> RoutingTable {
        RoutingTable::default()
    }

    /// Installs or replaces the route for `dst`.
    pub fn insert(&mut self, dst: Addr, route: Route) {
        self.entries.insert(dst, route);
    }

    /// Removes the route for `dst`, returning it if present.
    pub fn remove(&mut self, dst: Addr) -> Option<Route> {
        self.entries.remove(&dst)
    }

    /// Looks up an unexpired route for `dst` at time `now`; there is no
    /// fallback entry.
    pub fn lookup(&self, dst: Addr, now: SimTime) -> Option<Route> {
        match self.entries.get(&dst) {
            Some(r) if r.expires > now => Some(*r),
            _ => None,
        }
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

    /// Returns a mutable reference to the entry for `dst`, if present
    /// (expired entries included, so callers can refresh them).
    pub fn get_mut(&mut self, dst: Addr) -> Option<&mut Route> {
        self.entries.get_mut(&dst)
    }

    /// Drops every entry whose next hop is `neighbor`, returning the
    /// affected destinations. Routing protocols call this on link breaks.
    pub fn invalidate_via(&mut self, neighbor: Addr) -> Vec<Addr> {
        let dead: Vec<Addr> = self
            .entries
            .iter()
            .filter(|(_, r)| r.next_hop == neighbor)
            .map(|(d, _)| *d)
            .collect();
        for d in &dead {
            self.entries.remove(d);
        }
        dead
    }

    /// Removes all expired entries.
    pub fn purge_expired(&mut self, now: SimTime) {
        self.entries.retain(|_, r| r.expires > now);
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

    /// Iterates over `(destination, route)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Addr, &Route)> {
        self.entries.iter()
    }
}

impl fmt::Display for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows: Vec<_> = self.entries.iter().collect();
        rows.sort_by_key(|(d, _)| **d);
        writeln!(f, "destination      next-hop         hops seq")?;
        for (dst, r) in rows {
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
    use crate::time::SimDuration;

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
    fn display_lists_routes() {
        let mut t = RoutingTable::new();
        t.insert(Addr::manet(5), route(1, 2, SimTime::MAX));
        let s = t.to_string();
        assert!(s.contains("10.0.0.6"));
        assert!(s.contains("10.0.0.2"));
    }
}
