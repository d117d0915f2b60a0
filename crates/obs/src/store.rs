//! The one per-node store behind every named counter, gauge and
//! histogram: a `Vec` of `(name, value)` kept in name order.
//!
//! A node touches a handful of names (three on a beacon-only node, up to
//! about fifty under the full stack), so a vector costs its entries and
//! nothing else, where a `BTreeMap` pays a node-sized allocation (eleven
//! slots) for its first key. Iteration is in name order by construction,
//! which is what the exporters and the benchmark's digest over counter
//! names rely on.

/// Values keyed by `&'static str`, iterated in name order.
///
/// Names compare by text, so two equal literals at different addresses
/// (one per codegen unit, say) share a slot. Capacity grows one entry at a
/// time: the set of names a node uses settles within its first few
/// events, and amortised doubling would leave up to half of every node's
/// store empty.
///
/// # Examples
///
/// ```
/// use siphoc_obs::NameMap;
///
/// let mut m = NameMap::<u64>::default();
/// *m.entry("slp.lookup") += 2;
/// *m.entry("aodv.rreq") += 1;
/// *m.entry("slp.lookup") += 1;
/// let seen: Vec<_> = m.iter().map(|(n, v)| (n, *v)).collect();
/// assert_eq!(seen, [("aodv.rreq", 1), ("slp.lookup", 3)]);
/// assert_eq!(m.get("olsr.hello"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameMap<V> {
    /// Sorted by name, no duplicates.
    slots: Vec<(&'static str, V)>,
}

impl<V> NameMap<V> {
    /// The value stored under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&V> {
        let i = self.slots.binary_search_by(|(n, _)| (**n).cmp(name)).ok()?;
        Some(&self.slots[i].1)
    }

    /// The value stored under `name`, inserted as `V::default()` first if
    /// the name is new.
    ///
    /// This is the per-packet path, and the caller nearly always passes
    /// the very literal the slot was made from, so the slots are scanned
    /// comparing length, then address, and bytes only when the addresses
    /// differ. For the 1–40 names a node holds that measured 4–20 ns; a
    /// text binary search, with its `memcmp` calls and unpredictable
    /// branches, 7–80 ns, and the tree this store replaced 9–40 ns
    /// (EXPERIMENTS.md "What a city node costs").
    #[inline]
    pub fn entry(&mut self, name: &'static str) -> &mut V
    where
        V: Default,
    {
        let hit = self.slots.iter().position(|(n, _)| {
            n.len() == name.len() && (n.as_ptr() == name.as_ptr() || *n == name)
        });
        let i = hit.unwrap_or_else(|| self.insert(name));
        &mut self.slots[i].1
    }

    /// Adds a slot for a name not yet stored, at its place in name order.
    #[cold]
    fn insert(&mut self, name: &'static str) -> usize
    where
        V: Default,
    {
        let i = self.slots.partition_point(|(n, _)| *n < name);
        self.slots.reserve_exact(1);
        self.slots.insert(i, (name, V::default()));
        i
    }

    /// `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &V)> + '_ {
        self.slots.iter().map(|(n, v)| (*n, v))
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Forgets every name (the allocation is kept).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Bytes of heap the entries occupy, by capacity. Heap owned by the
    /// values themselves is the caller's to add.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(&'static str, V)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Name literals the oracle test draws from; unsorted on purpose.
    const NAMES: [&str; 9] = [
        "radio.tx",
        "aodv.rreq",
        "sip.txn_tx",
        "aodv.rrep",
        "radio.rx",
        "slp.lookup",
        "aodv.",
        "media.rtp_tx",
        "radio.tx_bytes",
    ];

    /// A deterministic index stream (xorshift64*), so the test needs no
    /// RNG crate.
    fn draws(mut x: u64, n: usize) -> impl Iterator<Item = usize> {
        std::iter::repeat_with(move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize
        })
        .take(n)
    }

    #[test]
    fn matches_a_btreemap_whatever_the_insertion_order() {
        for seed in 1..=8u64 {
            let mut map = NameMap::<u64>::default();
            let mut oracle = BTreeMap::<&'static str, u64>::new();
            for (k, d) in draws(seed, 200).enumerate() {
                let name = NAMES[d % NAMES.len()];
                *map.entry(name) += k as u64;
                *oracle.entry(name).or_default() += k as u64;
                assert_eq!(map.slots.capacity(), map.slots.len(), "grown exactly");
            }
            let got: Vec<_> = map.iter().map(|(n, v)| (n, *v)).collect();
            let want: Vec<_> = oracle.iter().map(|(n, v)| (*n, *v)).collect();
            assert_eq!(got, want, "seed {seed}");
            for name in NAMES {
                assert_eq!(map.get(name), oracle.get(name));
            }
            assert_eq!(map.get("never.counted"), None);
            assert_eq!(map.get(""), None);
        }
    }

    #[test]
    fn equal_text_at_different_addresses_shares_one_slot() {
        let heap: &'static str = Box::leak(String::from("aodv.rreq").into_boxed_str());
        let literal: &'static str = "aodv.rreq";
        assert_ne!(heap.as_ptr(), literal.as_ptr());
        let mut map = NameMap::<u64>::default();
        *map.entry(literal) += 1;
        *map.entry(heap) += 1;
        assert_eq!(map.iter().count(), 1);
        assert_eq!(map.get("aodv.rreq"), Some(&2));
    }

    #[test]
    fn clear_empties_and_heap_bytes_follow_capacity() {
        let mut map = NameMap::<u64>::default();
        assert!(map.is_empty());
        assert_eq!(map.heap_bytes(), 0);
        *map.entry("b") += 1;
        *map.entry("a") += 1;
        assert_eq!(map.heap_bytes(), 2 * std::mem::size_of::<(&str, u64)>());
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.get("a"), None);
        *map.entry("a") += 5;
        assert_eq!(map.get("a"), Some(&5));
    }
}
