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

    /// Merges `c` into the named counter, unless it counted nothing.
    pub(crate) fn add(&mut self, name: &'static str, c: Counter) {
        if c.packets > 0 {
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

/// Host cost of the event loop by event kind, for the `obs` build: one
/// dispatch in 2^[`Ledger::SAMPLE_SHIFT`] is metered, chosen by a
/// counter, so the ledger draws no random number and cannot move a
/// run. Every event is counted; a kind's metered cost is scaled up to
/// all its events at export.
///
/// The meter is handed in as a function: host nanoseconds
/// ([`siphoc_obs::host_ns`]) in the world, anything monotonic in a
/// test.
#[derive(Debug)]
pub(crate) struct Ledger<const KINDS: usize> {
    meter: fn() -> u64,
    /// What two back-to-back readings cost, taken off every sample.
    pair: u64,
    tick: u32,
    rows: [LedgerRow; KINDS],
}

#[derive(Debug, Clone, Copy, Default)]
struct LedgerRow {
    /// Events dispatched, a batch counting once per receiver.
    events: u64,
    /// The share of `events` inside metered dispatches.
    metered_events: u64,
    /// Meter units spent in metered dispatches.
    metered_cost: u64,
}

impl<const KINDS: usize> Ledger<KINDS> {
    /// One dispatch in 2^SAMPLE_SHIFT is metered. A reading pair costs
    /// 60–120 ns on a 2-vCPU host with a TSC clock, and the cheapest
    /// event kind 0.3 µs: at 1 in 64 the ledger costs under 1 % of any
    /// workload's loop.
    pub(crate) const SAMPLE_SHIFT: u32 = 6;

    pub(crate) fn new(meter: fn() -> u64) -> Self {
        let reading_pair = || {
            let start = meter();
            meter().saturating_sub(start)
        };
        let pair = if crate::obs_enabled() {
            (0..8).map(|_| reading_pair()).min().unwrap_or(0)
        } else {
            0
        };
        Ledger {
            meter,
            pair,
            tick: 0,
            rows: [LedgerRow::default(); KINDS],
        }
    }

    /// A reading if the dispatch about to start is one the ledger
    /// meters; `None` for the others, and always in an obs-less build.
    #[inline]
    pub(crate) fn start(&mut self) -> Option<u64> {
        if !crate::obs_enabled() {
            return None;
        }
        self.tick = self.tick.wrapping_add(1);
        (self.tick & ((1 << Self::SAMPLE_SHIFT) - 1) == 0).then(|| (self.meter)())
    }

    /// Files `events` dispatched events of `kind`, and the cost since
    /// `start` if that reading was taken.
    #[inline]
    pub(crate) fn record(&mut self, kind: usize, events: u64, start: Option<u64>) {
        if !crate::obs_enabled() {
            return;
        }
        let row = &mut self.rows[kind];
        row.events += events;
        if let Some(start) = start {
            let cost = (self.meter)().saturating_sub(start);
            row.metered_events += events;
            row.metered_cost += cost.saturating_sub(self.pair);
        }
    }

    /// Writes `sim.events{kind=…}` (exact) and `sim.host_ns{kind=…}`
    /// (metered cost per event × events) for every kind that ran.
    pub(crate) fn export(&self, names: &[&str; KINDS], reg: &mut siphoc_obs::Registry) {
        for (row, name) in self.rows.iter().zip(names) {
            if row.events == 0 {
                continue;
            }
            let labels = [("kind", *name)];
            reg.counter_add("sim.events", &labels, row.events);
            let scaled = (row.metered_cost as u128 * row.events as u128)
                .checked_div(row.metered_events as u128)
                .unwrap_or(0);
            reg.counter_add("sim.host_ns", &labels, scaled as u64);
        }
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

            s.clear();
            assert_eq!(s.iter().count(), 0);
            assert_eq!(s.get("radio.tx"), Counter::default());
            assert_eq!(s.sum_prefix(""), Counter::default());
        }
    }

    /// The ledger meters one dispatch in 64 by its counter alone, counts
    /// every event, and scales each kind's metered cost per event up to
    /// all of its events.
    #[test]
    fn the_ledger_meters_one_dispatch_in_64_and_scales_it_up() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // The meter reads a clock this test alone moves.
        static CLOCK: AtomicU64 = AtomicU64::new(0);
        let mut ledger = Ledger::<3>::new(|| CLOCK.load(Ordering::Relaxed));
        let mut metered = 0;
        for i in 0..640u64 {
            let start = ledger.start();
            metered += u64::from(start.is_some());
            // Kind 0: one event costing 5; kind 1: a batch of 3 costing
            // 9 on every tenth dispatch. Kind 2 never runs.
            let (kind, events, cost) = if i % 10 == 9 { (1, 3, 9) } else { (0, 1, 5) };
            CLOCK.fetch_add(cost, Ordering::Relaxed);
            ledger.record(kind, events, start);
        }
        let mut reg = siphoc_obs::Registry::new();
        ledger.export(&["a", "b", "c"], &mut reg);
        let row = |name, kind| reg.counter(name, &[("kind", kind)]);
        if !crate::obs_enabled() {
            assert!(reg.is_empty() && metered == 0);
            return;
        }
        assert_eq!(metered, 10, "dispatches 64, 128, … 640");
        assert_eq!((row("sim.events", "a"), row("sim.events", "b")), (576, 192));
        // Dispatch 640 is the one metered batch: 9 over 3 events.
        assert_eq!(row("sim.host_ns", "a"), 576 * 5);
        assert_eq!(row("sim.host_ns", "b"), 192 * 3);
        assert_eq!(row("sim.events", "c") + row("sim.host_ns", "c"), 0);
    }

    #[test]
    fn display_is_never_empty() {
        let s = NodeStats::default();
        assert!(!s.to_string().is_empty());
    }
}
