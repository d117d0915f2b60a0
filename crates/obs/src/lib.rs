//! Observability spine for the SIPHoc reproduction.
//!
//! Five pieces, mirroring what a serving stack ships with:
//!
//! * [`metrics`] — a typed registry of counters, gauges and HDR-style
//!   latency histograms with label support, exported as one JSON
//!   document. Replaces flat string-counter dumps as the export
//!   surface; the simulator's per-node `NodeStats` shards are merged
//!   into a [`Registry`] with a `node` label at export time. A gauge is
//!   never kept per node: the simulator reads each one from the state
//!   it measures (a UA's transactions and dialogs, a proxy's bindings)
//!   when it exports, so gauges read the same whether this crate's
//!   `enabled` feature is on or off.
//! * [`store`] — the name-ordered `Vec` store every per-node counter and
//!   histogram lives in (`NodeObs` here, `NodeStats` in
//!   `siphoc-simnet`), sized by what it holds.
//! * [`span`] — structured span tracing on *virtual sim time*, recorded
//!   out-of-band so traced and untraced runs are event-identical.
//! * [`chrome`] — Chrome `trace_event` JSON export (spans correlated by
//!   Call-ID share one lane group per call), viewable in
//!   `chrome://tracing` or Perfetto.
//! * [`json`] — the JSON value tree, reader and pretty writer that the
//!   scenario files and Fig. 2's account dialog go through. Both
//!   exporters above build a [`json::Value`] and print it with
//!   [`json::Value::to_pretty`].
//!
//! # Zero cost when disabled
//!
//! Hot-path instrumentation goes through [`NodeObs`], the per-node
//! facade. With the `enabled` cargo feature off (the default), `NodeObs`
//! is a zero-sized struct whose methods are empty `#[inline]` bodies —
//! call sites compile away entirely, which is what lets the bench
//! harness pin "obs off ⇒ no regression". The registry, span log and
//! exporters themselves are always compiled: they only run on cold
//! export paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod span;
pub mod store;

pub use chrome::{chrome_trace_json, TaggedSpan};
pub use metrics::{Histogram, Registry};
pub use span::{SpanCat, SpanId, SpanLog, SpanRecord};
pub use store::NameMap;

/// Whether this build records observability data.
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Host nanoseconds on the monotonic clock since the first reading in
/// this process: the one host-clock read under `crates/`. The
/// simulator's host-time ledger takes it as its meter; nothing that
/// decides what a run does may read it.
#[allow(clippy::disallowed_methods)]
pub fn host_ns() -> u64 {
    static BASE: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let now = std::time::Instant::now();
    now.duration_since(*BASE.get_or_init(|| now)).as_nanos() as u64
}

/// Per-node observability shard: metric counters and histograms plus
/// the span log, all keyed by `&'static str` so the hot path never
/// allocates a metric name.
///
/// Spans additionally respect a runtime `tracing` switch (off by
/// default): metrics are always recorded when the feature is on, spans
/// only when tracing is turned on for the node (the simulator's
/// `World::set_tracing` flips every node).
#[cfg(feature = "enabled")]
#[derive(Debug, Default)]
pub struct NodeObs {
    tracing: bool,
    /// Created by the first span recorded while tracing is on.
    spans: Option<Box<SpanLog>>,
    counters: NameMap<u64>,
    hists: NameMap<Histogram>,
}

/// Per-node observability shard (no-op build): zero-sized, every method
/// an empty inline body.
#[cfg(not(feature = "enabled"))]
#[derive(Debug, Default)]
pub struct NodeObs;

#[cfg(feature = "enabled")]
impl NodeObs {
    /// Whether span tracing is currently on for this node.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Turns span tracing on or off for this node.
    #[inline]
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Adds `v` to a node-local counter.
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name) += v;
    }

    /// Records one sample into a node-local histogram.
    #[inline]
    pub fn hist_record(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).record(v);
    }

    /// Opens a span (no-op unless tracing is on; returns
    /// [`SpanId::NONE`] then).
    #[inline]
    pub fn span_enter(&mut self, cat: SpanCat, name: &'static str, now_us: u64) -> SpanId {
        if !self.tracing {
            return SpanId::NONE;
        }
        self.spans.get_or_insert_default().enter(cat, name, now_us)
    }

    /// Attaches a correlation key (Call-ID) to an open span.
    #[inline]
    pub fn span_corr(&mut self, id: SpanId, corr: &str) {
        if let Some(spans) = &mut self.spans {
            spans.correlate(id, corr);
        }
    }

    /// Closes a span.
    #[inline]
    pub fn span_exit(&mut self, id: SpanId, now_us: u64, ok: bool) {
        if let Some(spans) = &mut self.spans {
            spans.exit(id, now_us, ok);
        }
    }

    /// Records a point-in-time marker (no-op unless tracing is on).
    #[inline]
    pub fn span_instant(
        &mut self,
        cat: SpanCat,
        name: &'static str,
        now_us: u64,
        corr: Option<&str>,
    ) {
        if self.tracing {
            self.spans
                .get_or_insert_default()
                .instant(cat, name, now_us, corr);
        }
    }

    /// Completed spans recorded by this node.
    pub fn spans(&self) -> &[SpanRecord] {
        self.spans.as_deref().map_or(&[], SpanLog::records)
    }

    /// Still-open spans as unfinished records ending at `now_us`.
    pub fn open_spans(&self, now_us: u64) -> Vec<SpanRecord> {
        self.spans
            .as_deref()
            .map_or_else(Vec::new, |s| s.open_records(now_us))
    }

    /// Merges this shard's metrics into `reg`, labelling each series
    /// with `node`.
    pub fn merge_metrics_into(&self, reg: &mut Registry, node: &str) {
        let labels = [("node", node)];
        for (name, v) in self.counters.iter() {
            reg.counter_add(name, &labels, *v);
        }
        for (name, h) in self.hists.iter() {
            reg.hist_merge(name, &labels, h);
        }
        let dropped = self.spans.as_deref().map_or(0, SpanLog::dropped);
        if dropped > 0 {
            reg.counter_add("obs.spans_dropped", &labels, dropped);
        }
    }

    /// Bytes of heap this shard occupies, by capacity: its counters and
    /// histograms, and the span log with its record vectors
    /// once a traced node has one. The shard's own `size_of` is the
    /// caller's to add.
    pub fn heap_bytes(&self) -> usize {
        let buckets: usize = self.hists.iter().map(|(_, h)| h.heap_bytes()).sum();
        let spans = self
            .spans
            .as_deref()
            .map_or(0, |s| std::mem::size_of::<SpanLog>() + s.heap_bytes());
        self.counters.heap_bytes() + self.hists.heap_bytes() + buckets + spans
    }
}

#[cfg(not(feature = "enabled"))]
impl NodeObs {
    /// Whether span tracing is currently on (never, in a no-op build).
    #[inline(always)]
    pub fn tracing(&self) -> bool {
        false
    }

    /// Turns span tracing on or off (no-op build: ignored).
    #[inline(always)]
    pub fn set_tracing(&mut self, _on: bool) {}

    /// Adds to a counter (no-op build: compiled away).
    #[inline(always)]
    pub fn counter_add(&mut self, _name: &'static str, _v: u64) {}

    /// Records a histogram sample (no-op build: compiled away).
    #[inline(always)]
    pub fn hist_record(&mut self, _name: &'static str, _v: u64) {}

    /// Opens a span (no-op build: always [`SpanId::NONE`]).
    #[inline(always)]
    pub fn span_enter(&mut self, _cat: SpanCat, _name: &'static str, _now_us: u64) -> SpanId {
        SpanId::NONE
    }

    /// Attaches a correlation key (no-op build: compiled away).
    #[inline(always)]
    pub fn span_corr(&mut self, _id: SpanId, _corr: &str) {}

    /// Closes a span (no-op build: compiled away).
    #[inline(always)]
    pub fn span_exit(&mut self, _id: SpanId, _now_us: u64, _ok: bool) {}

    /// Records an instant marker (no-op build: compiled away).
    #[inline(always)]
    pub fn span_instant(
        &mut self,
        _cat: SpanCat,
        _name: &'static str,
        _now_us: u64,
        _corr: Option<&str>,
    ) {
    }

    /// Completed spans (no-op build: always empty).
    pub fn spans(&self) -> &[SpanRecord] {
        &[]
    }

    /// Still-open spans (no-op build: always empty).
    pub fn open_spans(&self, _now_us: u64) -> Vec<SpanRecord> {
        Vec::new()
    }

    /// Merges shard metrics into `reg` (no-op build: nothing to merge).
    pub fn merge_metrics_into(&self, _reg: &mut Registry, _node: &str) {}

    /// Bytes of heap the shard's metrics occupy (no-op build: none).
    pub fn heap_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    #[test]
    fn node_obs_records_metrics_without_tracing() {
        let mut obs = NodeObs::default();
        obs.counter_add("sip.txn_tx", 2);
        obs.hist_record("sip.call_setup_us", 1200);
        // Spans require the runtime switch.
        let id = obs.span_enter(SpanCat::Sip, "sip.invite", 0);
        assert!(id.is_none());
        obs.set_tracing(true);
        let id = obs.span_enter(SpanCat::Sip, "sip.invite", 0);
        assert!(!id.is_none());
        obs.span_exit(id, 10, true);
        assert_eq!(obs.spans().len(), 1);

        let mut reg = Registry::new();
        obs.merge_metrics_into(&mut reg, "n0");
        assert_eq!(reg.counter("sip.txn_tx", &[("node", "n0")]), 2);
        assert_eq!(
            reg.hist("sip.call_setup_us", &[("node", "n0")])
                .unwrap()
                .count(),
            1
        );
        // One counter slot, one histogram slot, one bucket — and the span
        // log with at least one open-slab slot, free-list entry and record.
        let slots = std::mem::size_of::<(&str, u64)>() + std::mem::size_of::<(&str, Histogram)>();
        let spans = obs.spans.as_deref().expect("a span was recorded");
        assert!(spans.heap_bytes() > std::mem::size_of::<SpanRecord>());
        assert_eq!(
            obs.heap_bytes(),
            slots + 8 + std::mem::size_of::<SpanLog>() + spans.heap_bytes()
        );
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn span_log_exists_only_once_a_traced_node_records_a_span() {
        /// Ceiling on `size_of::<NodeObs>()`: every node carries it inline.
        const NODE_OBS_INLINE_MAX: usize = 64;
        assert!(std::mem::size_of::<NodeObs>() <= NODE_OBS_INLINE_MAX);

        let mut traced = NodeObs::default();
        traced.set_tracing(true);
        assert!(traced.spans.is_none(), "tracing on, nothing recorded yet");
        assert!(traced.spans().is_empty() && traced.open_spans(5).is_empty());
        let id = traced.span_enter(SpanCat::Sip, "sip.invite", 0);
        traced.span_exit(id, 10, true);
        assert_eq!(traced.spans().len(), 1);

        // A stale id is inert with tracing off again, and on a node that
        // never traced it does not even create the log.
        traced.set_tracing(false);
        let mut untraced = NodeObs::default();
        for obs in [&mut traced, &mut untraced] {
            obs.span_corr(id, "call-1");
            obs.span_exit(id, 20, false);
            obs.span_instant(SpanCat::Sip, "sip.ack", 20, None);
        }
        assert_eq!(traced.spans().len(), 1);
        assert_eq!(traced.spans()[0].corr, None);
        assert!(untraced.spans.is_none() && untraced.heap_bytes() == 0);

        // The retention cap still reports what it dropped.
        traced.set_tracing(true);
        traced.spans.as_deref_mut().expect("log exists").set_cap(2);
        for t in 30..33 {
            traced.span_instant(SpanCat::Sip, "sip.ack", t, None);
        }
        let mut reg = Registry::new();
        traced.merge_metrics_into(&mut reg, "n0");
        assert_eq!(reg.counter("obs.spans_dropped", &[("node", "n0")]), 2);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_node_obs_is_zero_sized_and_inert() {
        assert_eq!(std::mem::size_of::<NodeObs>(), 0);
        let mut obs = NodeObs::default();
        obs.counter_add("x", 1);
        obs.set_tracing(true);
        let id = obs.span_enter(SpanCat::Sip, "s", 0);
        assert!(id.is_none());
        assert!(obs.spans().is_empty());
        let mut reg = Registry::new();
        obs.merge_metrics_into(&mut reg, "n0");
        assert!(reg.is_empty());
        assert_eq!(obs.heap_bytes(), 0);
    }
}
