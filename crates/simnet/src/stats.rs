//! Traffic and event counters.
//!
//! Every node keeps a [`NodeStats`] with named counters; experiment
//! harnesses aggregate them across the world to produce the overhead series
//! (experiment E3 in `DESIGN.md`). Counter names are dotted paths such as
//! `"aodv.rreq"` or `"drop.no_route"` so related counters group naturally.

use std::fmt;

use siphoc_obs::NameMap;

/// A single packet/byte counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Number of packets (or events) counted.
    pub packets: u64,
    /// Total bytes attributed to the counter.
    pub bytes: u64,
}

impl Counter {
    /// Adds one packet of `bytes` bytes.
    pub fn add(&mut self, bytes: usize) {
        self.packets += 1;
        self.bytes += bytes as u64;
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: Counter) {
        self.packets += other.packets;
        self.bytes += other.bytes;
    }
}

/// Named counters for one node.
///
/// # Examples
///
/// ```
/// use siphoc_simnet::stats::NodeStats;
///
/// let mut stats = NodeStats::default();
/// stats.count("aodv.rreq", 48);
/// stats.count("aodv.rreq", 48);
/// assert_eq!(stats.get("aodv.rreq").packets, 2);
/// assert_eq!(stats.get("aodv.rreq").bytes, 96);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    counters: NameMap<Counter>,
}

impl NodeStats {
    /// Adds one packet of `bytes` bytes to the named counter.
    pub fn count(&mut self, name: &'static str, bytes: usize) {
        self.counters.entry(name).add(bytes);
    }

    /// Returns the named counter (zero if never touched).
    pub fn get(&self, name: &str) -> Counter {
        self.counters.get(name).copied().unwrap_or_default()
    }

    /// Sums every counter whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> Counter {
        let mut total = Counter::default();
        for (name, c) in self.counters.iter() {
            if name.starts_with(prefix) {
                total.merge(*c);
            }
        }
        total
    }

    /// Iterates over `(name, counter)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Counter)> + '_ {
        self.counters.iter().map(|(n, c)| (n, *c))
    }

    /// Merges all counters of `other` into this instance.
    pub fn merge(&mut self, other: &NodeStats) {
        for (name, c) in other.iter() {
            self.counters.entry(name).merge(c);
        }
    }

    /// Resets every counter to zero.
    pub fn clear(&mut self) {
        self.counters.clear();
    }

    /// Bytes of heap the counters occupy, by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.counters.heap_bytes()
    }
}

impl fmt::Display for NodeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counters.is_empty() {
            return writeln!(f, "(no traffic)");
        }
        writeln!(f, "{:<28} {:>10} {:>12}", "counter", "packets", "bytes")?;
        for (name, c) in self.iter() {
            writeln!(f, "{:<28} {:>10} {:>12}", name, c.packets, c.bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sum_groups_counters() {
        let mut s = NodeStats::default();
        s.count("aodv.rreq", 10);
        s.count("aodv.rrep", 20);
        s.count("olsr.hello", 30);
        let aodv = s.sum_prefix("aodv.");
        assert_eq!(aodv.packets, 2);
        assert_eq!(aodv.bytes, 30);
        assert_eq!(s.sum_prefix("").bytes, 60);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = NodeStats::default();
        a.count("x", 1);
        let mut b = NodeStats::default();
        b.count("x", 2);
        b.count("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x").bytes, 3);
        assert_eq!(a.get("x").packets, 2);
        assert_eq!(a.get("y").bytes, 3);
    }

    /// `NodeStats` against the `BTreeMap` it used to be, fed the same
    /// counts in three insertion orders.
    #[test]
    fn agrees_with_a_btreemap_in_any_insertion_order() {
        use std::collections::BTreeMap;
        let counts: [(&'static str, usize); 8] = [
            ("radio.tx", 60),
            ("aodv.rreq", 48),
            ("slp.lookup", 20),
            ("aodv.rrep", 44),
            ("radio.tx", 1500),
            ("aodv", 1),
            ("aodv.rreq", 48),
            ("radio.rx", 60),
        ];
        let mut oracle = BTreeMap::<&'static str, Counter>::new();
        for (name, bytes) in counts {
            oracle.entry(name).or_default().add(bytes);
        }
        let want: Vec<_> = oracle.iter().map(|(n, c)| (*n, *c)).collect();

        let mut reversed = counts;
        reversed.reverse();
        let mut sorted = counts;
        sorted.sort_unstable();
        for order in [counts, reversed, sorted] {
            let mut s = NodeStats::default();
            for (name, bytes) in order {
                s.count(name, bytes);
            }
            assert_eq!(s.iter().collect::<Vec<_>>(), want);
            assert_eq!(s.get("never.counted"), Counter::default());
            for prefix in ["", "aodv", "aodv.", "radio.t", "slp.lookup.x", "z"] {
                let mut sum = Counter::default();
                for (_, c) in oracle.iter().filter(|(n, _)| n.starts_with(prefix)) {
                    sum.merge(*c);
                }
                assert_eq!(s.sum_prefix(prefix), sum, "prefix {prefix:?}");
            }
            assert_eq!(s.heap_bytes(), want.len() * 32, "grown exactly");

            // Merging into a store that holds other names interleaves them.
            let mut total = NodeStats::default();
            total.count("olsr.hello", 30);
            total.count("aodv.rreq", 2);
            total.merge(&s);
            assert_eq!(total.get("aodv.rreq").bytes, 98);
            assert_eq!(total.get("olsr.hello").packets, 1);
            assert_eq!(total.iter().count(), want.len() + 1);
            assert!(total.iter().map(|(n, _)| n).is_sorted());

            s.clear();
            assert_eq!(s.iter().count(), 0);
            assert_eq!(s.get("radio.tx"), Counter::default());
            assert_eq!(s.sum_prefix(""), Counter::default());
        }
    }

    #[test]
    fn display_is_never_empty() {
        let s = NodeStats::default();
        assert!(!s.to_string().is_empty());
    }
}
