//! Typed, hierarchical metrics: counters, gauges and HDR-style latency
//! histograms with label support, exportable as Prometheus text or JSON.
//!
//! Metric names keep the repo's dotted convention (`sip.call_setup_us`);
//! the Prometheus exporter rewrites dots to underscores since `.` is not
//! legal in a Prometheus metric name. Labels are sorted key/value pairs;
//! the per-node aggregation in `siphoc-simnet` attaches a `node` label
//! when it merges node-local shards into one [`Registry`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of sub-bucket bits per octave. 16 sub-buckets bound the
/// relative quantile error at 1/16 ≈ 6.25% — the classic HDR trade-off.
const SUB_BITS: u32 = 4;
/// Values below `2^(SUB_BITS+1)` are recorded exactly.
const LINEAR_LIMIT: u64 = 1 << (SUB_BITS + 1);

/// A log-linear (HDR-style) histogram of `u64` samples.
///
/// Values up to 31 are exact; above that each power-of-two octave is split
/// into 16 sub-buckets, so quantile estimates carry at most ~6% relative
/// error while the whole range of `u64` fits in under a thousand buckets.
///
/// Only the occupied span of buckets is stored, from the one holding the
/// smallest sample to the one holding the largest: a per-node histogram of
/// a few samples in one octave costs those few buckets, not the hundred
/// empty ones below them. The span is a function of the samples alone
/// (it starts at the minimum's bucket and ends at the maximum's), so `==`
/// does not depend on recording order.
///
/// # Examples
///
/// ```
/// use siphoc_obs::metrics::Histogram;
///
/// let mut h = Histogram::default();
/// for v in [10, 20, 30, 1000, 2000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 10);
/// assert_eq!(h.max(), 2000);
/// assert!(h.quantile(0.5) >= 30 && h.quantile(0.5) < 32);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// [`bucket_index`] of `buckets[0]`; 0 while empty.
    base: usize,
    /// Counts for bucket indices `base..base + buckets.len()`.
    buckets: Vec<u64>,
}

/// The bucket a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & ((1 << SUB_BITS) - 1)) as usize;
    LINEAR_LIMIT as usize + ((msb - SUB_BITS - 1) as usize) * (1 << SUB_BITS) + sub
}

/// Inclusive upper bound of a bucket (used for `le` export and quantiles).
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_LIMIT as usize {
        return idx as u64;
    }
    let b = idx - LINEAR_LIMIT as usize;
    let octave = (b / (1 << SUB_BITS)) as u32;
    let sub = (b % (1 << SUB_BITS)) as u64;
    let msb = octave + SUB_BITS + 1;
    let shift = msb - SUB_BITS;
    // `- 1` first: the top bucket's bound is `u64::MAX`, one below a sum
    // that does not fit.
    (1u64 << msb) - 1 + ((sub + 1) << shift)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let idx = bucket_index(v);
        if idx.wrapping_sub(self.base) >= self.buckets.len() {
            self.widen(idx, idx + 1);
        }
        self.buckets[idx - self.base] += 1;
    }

    /// Extends the stored span to cover bucket indices `lo..hi`, growing
    /// by exactly the missing buckets at either end. A histogram sees its
    /// whole range within its first few samples, so doubling would only
    /// strand capacity on every node.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.buckets.is_empty() {
            self.base = lo;
        }
        let front = self.base.saturating_sub(lo);
        let back = hi.saturating_sub(self.base + self.buckets.len());
        self.buckets.reserve_exact(front + back);
        self.buckets.resize(self.buckets.len() + front + back, 0);
        self.buckets.rotate_right(front);
        self.base -= front;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket holding the matching sample, clamped to the observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(self.base + i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.widen(other.base, other.base + other.buckets.len());
        let at = other.base - self.base;
        for (mine, &c) in self.buckets[at..].iter_mut().zip(&other.buckets) {
            *mine += c;
        }
    }

    /// Iterates non-empty buckets as `(upper_bound, count)` in order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(self.base + i), c))
    }

    /// Bytes of heap the bucket span occupies, by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u64>()
    }
}

/// A metric identity: dotted name plus sorted `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted metric name, e.g. `sip.call_setup_us`.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_owned(),
            labels,
        }
    }
}

/// A typed metrics registry: the aggregation and export surface.
///
/// Hot paths record into per-node shards (`NodeObs`); a [`Registry`] is
/// what those shards merge into for export, and what harness-level code
/// records world-scoped series into directly.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    hists: BTreeMap<MetricKey, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `v` to a counter.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        *self
            .counters
            .entry(MetricKey::new(name, labels))
            .or_default() += v;
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.gauges.insert(MetricKey::new(name, labels), v);
    }

    /// Records one histogram sample.
    pub fn hist_record(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.hists
            .entry(MetricKey::new(name, labels))
            .or_default()
            .record(v);
    }

    /// Merges a pre-built histogram (node-shard export path).
    pub fn hist_merge(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.hists
            .entry(MetricKey::new(name, labels))
            .or_default()
            .merge(h);
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&MetricKey::new(name, labels)).copied()
    }

    /// A histogram, if recorded.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.hists.get(&MetricKey::new(name, labels))
    }

    /// Sums every counter whose name starts with `prefix`, across labels.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Merges every metric of `other` into this registry.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Whether the registry holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Dots in metric names become underscores; histograms export as
    /// cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for (k, v) in &self.counters {
            prom_type_line(&mut out, &mut last_name, &k.name, "counter");
            let _ = writeln!(
                out,
                "{}{} {}",
                prom_name(&k.name),
                prom_labels(&k.labels, None),
                v
            );
        }
        for (k, v) in &self.gauges {
            prom_type_line(&mut out, &mut last_name, &k.name, "gauge");
            let _ = writeln!(
                out,
                "{}{} {}",
                prom_name(&k.name),
                prom_labels(&k.labels, None),
                v
            );
        }
        for (k, h) in &self.hists {
            prom_type_line(&mut out, &mut last_name, &k.name, "histogram");
            let name = prom_name(&k.name);
            let mut cumulative = 0u64;
            for (upper, count) in h.nonzero_buckets() {
                cumulative += count;
                let le = upper.to_string();
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    name,
                    prom_labels(&k.labels, Some(("le", &le))),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                name,
                prom_labels(&k.labels, Some(("le", "+Inf"))),
                h.count()
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                name,
                prom_labels(&k.labels, None),
                h.sum()
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                name,
                prom_labels(&k.labels, None),
                h.count()
            );
        }
        out
    }

    /// Renders the registry as a JSON document with `counters`, `gauges`
    /// and `histograms` sections. Deterministic: keys are emitted in
    /// `BTreeMap` order.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            let _ = write!(
                out,
                "{}\n    \"{}\": {}",
                if first { "" } else { "," },
                crate::esc(&json_key(k)),
                v
            );
            first = false;
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            let _ = write!(
                out,
                "{}\n    \"{}\": {}",
                if first { "" } else { "," },
                crate::esc(&json_key(k)),
                fmt_f64(*v)
            );
            first = false;
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.hists {
            let _ = write!(
                out,
                "{}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                if first { "" } else { "," },
                crate::esc(&json_key(k)),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                fmt_f64(h.mean()),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99)
            );
            first = false;
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }
}

/// `name{a="x",b="y"}` for a flat JSON key.
fn json_key(k: &MetricKey) -> String {
    if k.labels.is_empty() {
        return k.name.clone();
    }
    let mut s = k.name.clone();
    s.push('{');
    for (i, (lk, lv)) in k.labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{lk}={lv}");
    }
    s.push('}');
    s
}

/// Formats an `f64` so integers stay integral (`3` not `3.0` is wrong for
/// JSON gauges — keep one decimal for stability).
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Prometheus metric name: dots become underscores.
fn prom_name(name: &str) -> String {
    name.replace(['.', '-'], "_")
}

/// Emits one `# TYPE` line per metric name.
fn prom_type_line(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if last != name {
        let _ = writeln!(out, "# TYPE {} {}", prom_name(name), kind);
        *last = name.to_owned();
    }
}

/// Renders a Prometheus label set, optionally with one extra pair.
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut s = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            s.push(',');
        }
        let _ = write!(s, "{}=\"{}\"", prom_name(k), crate::esc(v));
        first = false;
    }
    if let Some((k, v)) = extra {
        if !first {
            s.push(',');
        }
        let _ = write!(s, "{}=\"{}\"", k, crate::esc(v));
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_bounded() {
        let mut values: Vec<u64> = (0..63)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotonic at {v}");
            assert!(bucket_upper(idx) >= v, "upper bound below value at {v}");
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < 1024);
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.07, "p50 = {p50}");
        let p99 = h.quantile(0.99) as f64;
        assert!((p99 - 990.0).abs() / 990.0 < 0.07, "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [3u64, 17, 900, 70_000] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 1_000_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    /// The dense-from-zero histogram this crate used before buckets were
    /// span-stored, kept as the reference the span form must agree with.
    #[derive(Default)]
    struct DenseHistogram {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: Vec<u64>,
    }

    impl DenseHistogram {
        fn record(&mut self, v: u64) {
            if self.count == 0 {
                self.min = v;
                self.max = v;
            } else {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            self.count += 1;
            self.sum = self.sum.saturating_add(v);
            let idx = bucket_index(v);
            if idx >= self.buckets.len() {
                self.buckets.resize(idx + 1, 0);
            }
            self.buckets[idx] += 1;
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (idx, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper(idx).min(self.max).max(self.min);
                }
            }
            self.max
        }

        fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            }
        }

        fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
            let filled = self.buckets.iter().enumerate().filter(|(_, &c)| c > 0);
            filled.map(|(i, &c)| (bucket_upper(i), c)).collect()
        }
    }

    fn recorded(samples: &[u64]) -> (Histogram, DenseHistogram) {
        let (mut h, mut dense) = (Histogram::default(), DenseHistogram::default());
        for &v in samples {
            h.record(v);
            dense.record(v);
            assert_eq!(h.buckets.capacity(), h.buckets.len(), "grown exactly");
        }
        (h, dense)
    }

    fn assert_agrees(h: &Histogram, dense: &DenseHistogram, what: &str) {
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (dense.count, dense.sum, dense.min, dense.max),
            "{what}"
        );
        assert_eq!(h.mean(), dense.mean(), "{what}");
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), dense.quantile(q), "{what}: q = {q}");
        }
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, dense.nonzero_buckets(), "{what}");
        assert_eq!(h.heap_bytes(), 8 * h.buckets.len(), "grown exactly: {what}");
        if h.count() > 0 {
            assert_eq!(h.base, bucket_index(h.min()), "{what}");
            assert_eq!(
                h.base + h.buckets.len() - 1,
                bucket_index(h.max()),
                "{what}"
            );
        }
    }

    /// Sample sets for the oracle: the linear/log boundary and the far end
    /// of `u64`, then seeded draws whose magnitude (and so whose bucket)
    /// jumps around, then a tight cluster like a node's airtime samples.
    fn sample_sets() -> Vec<Vec<u64>> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut sets = vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![0, 31, 32, 33, u64::MAX],
            vec![33, 32, 31],
        ];
        for len in [1usize, 2, 9, 200] {
            sets.push((0..len).map(|_| next() >> (next() % 64)).collect());
        }
        sets.push((0..9).map(|_| 370 + next() % 400).collect());
        sets
    }

    #[test]
    fn span_histogram_agrees_with_the_dense_reference() {
        for samples in sample_sets() {
            let what = format!("{samples:?}");
            let (h, dense) = recorded(&samples);
            assert_agrees(&h, &dense, &what);

            // The span is canonical: the drawn order above, ascending and
            // descending all compare equal.
            let mut ascending = samples.clone();
            ascending.sort_unstable();
            let descending: Vec<u64> = ascending.iter().rev().copied().collect();
            assert_eq!(recorded(&ascending).0, h, "ascending {what}");
            assert_eq!(recorded(&descending).0, h, "descending {what}");
        }
    }

    #[test]
    fn span_histogram_merge_agrees_with_the_dense_reference() {
        let sets = sample_sets();
        for a in &sets {
            for b in &sets {
                let what = format!("{a:?} + {b:?}");
                let both: Vec<u64> = a.iter().chain(b).copied().collect();
                let (all, dense) = recorded(&both);
                let (mut ab, mut ba) = (recorded(a).0, recorded(b).0);
                ab.merge(&recorded(b).0);
                ba.merge(&recorded(a).0);
                assert_agrees(&ab, &dense, &what);
                assert_agrees(&ba, &dense, &what);
                assert_eq!(ab, all, "a.merge(b): {what}");
                assert_eq!(ba, all, "b.merge(a): {what}");
            }
        }
    }

    #[test]
    fn registry_counters_and_prefix_sums() {
        let mut r = Registry::new();
        r.counter_add("sip.txn_tx", &[("node", "n0")], 2);
        r.counter_add("sip.txn_tx", &[("node", "n1")], 3);
        r.counter_add("slp.lookup_hit", &[], 1);
        assert_eq!(r.counter("sip.txn_tx", &[("node", "n0")]), 2);
        assert_eq!(r.sum_prefix("sip."), 5);
        assert_eq!(r.sum_prefix(""), 6);
    }

    #[test]
    fn registry_merge_accumulates() {
        let mut a = Registry::new();
        a.counter_add("x", &[], 1);
        a.hist_record("h", &[], 10);
        let mut b = Registry::new();
        b.counter_add("x", &[], 2);
        b.gauge_set("g", &[], 4.0);
        b.hist_record("h", &[], 20);
        a.merge(&b);
        assert_eq!(a.counter("x", &[]), 3);
        assert_eq!(a.gauge("g", &[]), Some(4.0));
        assert_eq!(a.hist("h", &[]).unwrap().count(), 2);
    }

    #[test]
    fn prometheus_snapshot() {
        let mut r = Registry::new();
        r.counter_add("sip.txn_tx", &[("node", "n0")], 7);
        r.gauge_set("world.nodes", &[], 2.0);
        r.hist_record("sip.call_setup_us", &[], 100);
        r.hist_record("sip.call_setup_us", &[], 100);
        let text = r.render_prometheus();
        let expected = "\
# TYPE sip_txn_tx counter
sip_txn_tx{node=\"n0\"} 7
# TYPE world_nodes gauge
world_nodes 2
# TYPE sip_call_setup_us histogram
sip_call_setup_us_bucket{le=\"103\"} 2
sip_call_setup_us_bucket{le=\"+Inf\"} 2
sip_call_setup_us_sum 200
sip_call_setup_us_count 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_snapshot() {
        let mut r = Registry::new();
        r.counter_add("a.b", &[("node", "n1")], 4);
        r.gauge_set("g", &[], 1.5);
        r.hist_record("h_us", &[], 8);
        let json = r.render_json();
        let expected = "{\n  \"counters\": {\n    \"a.b{node=n1}\": 4\n  },\n  \"gauges\": {\n    \"g\": 1.5\n  },\n  \"histograms\": {\n    \"h_us\": {\"count\": 1, \"sum\": 8, \"min\": 8, \"max\": 8, \"mean\": 8.0, \"p50\": 8, \"p95\": 8, \"p99\": 8}\n  }\n}\n";
        assert_eq!(json, expected);
    }

    #[test]
    fn empty_registry_renders_valid_documents() {
        let r = Registry::new();
        assert_eq!(r.render_prometheus(), "");
        assert!(r.render_json().contains("\"counters\": {}"));
        assert!(r.is_empty());
    }
}
