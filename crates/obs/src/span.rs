//! Structured span tracing on virtual sim time.
//!
//! Spans are recorded *out-of-band*: entering or exiting a span never
//! schedules simulator events, never draws from any RNG stream and never
//! changes dispatch order, so a traced run is event-identical to an
//! untraced one — the determinism contract `tests/perf_equivalence.rs`
//! pins. Open spans live in a slab with a LIFO free list (the same idiom
//! as the simulator's event-queue slab), so enter/exit is two vector
//! index operations with no per-span allocation beyond the optional
//! correlation string.

/// What subsystem a span belongs to; becomes the Chrome `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanCat {
    /// SIP user agents, transactions and proxies.
    Sip,
    /// SLP lookups and resolution.
    Slp,
    /// Route discovery and maintenance.
    Routing,
    /// Gateway tunnel handshakes.
    Tunnel,
    /// Media/RTP milestones.
    Media,
    /// Simulator-internal spans.
    Sim,
}

impl SpanCat {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanCat::Sip => "sip",
            SpanCat::Slp => "slp",
            SpanCat::Routing => "routing",
            SpanCat::Tunnel => "tunnel",
            SpanCat::Media => "media",
            SpanCat::Sim => "sim",
        }
    }
}

/// A completed (or instant) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Subsystem category.
    pub cat: SpanCat,
    /// Span name, e.g. `sip.invite`.
    pub name: &'static str,
    /// Start, in sim microseconds.
    pub start_us: u64,
    /// Duration in sim microseconds (0 for instants).
    pub dur_us: u64,
    /// Correlation key — the Call-ID for call-scoped spans.
    pub corr: Option<Box<str>>,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// Free-form annotation.
    pub note: Option<Box<str>>,
    /// True for point-in-time markers.
    pub instant: bool,
}

#[derive(Debug)]
struct OpenSpan {
    cat: SpanCat,
    name: &'static str,
    start_us: u64,
    corr: Option<Box<str>>,
    note: Option<Box<str>>,
}

/// Handle to an open span.
///
/// Instrumented structs store one unconditionally; with the `enabled`
/// feature off nothing ever hands out a non-[`SpanId::NONE`] handle and
/// every operation on it is a no-op through [`crate::NodeObs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The null handle: operations on it are ignored.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this is the null handle.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

impl Default for SpanId {
    fn default() -> SpanId {
        SpanId::NONE
    }
}

/// Default cap on retained completed spans per log.
const DEFAULT_SPAN_CAP: usize = 1 << 18;

/// An append-mostly log of spans for one node.
#[derive(Debug)]
pub struct SpanLog {
    /// Slab of open spans; `None` slots are free.
    open: Vec<Option<OpenSpan>>,
    /// LIFO free list of open-slab slots.
    free: Vec<u32>,
    done: Vec<SpanRecord>,
    cap: usize,
    dropped: u64,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            open: Vec::new(),
            free: Vec::new(),
            done: Vec::new(),
            cap: DEFAULT_SPAN_CAP,
            dropped: 0,
        }
    }
}

impl SpanLog {
    /// Opens a span. The returned id must be passed to [`SpanLog::exit`]
    /// exactly once; the caller should overwrite its stored copy with
    /// [`SpanId::NONE`] afterwards (slots are reused).
    pub fn enter(&mut self, cat: SpanCat, name: &'static str, now_us: u64) -> SpanId {
        let span = OpenSpan {
            cat,
            name,
            start_us: now_us,
            corr: None,
            note: None,
        };
        match self.free.pop() {
            Some(slot) => {
                self.open[slot as usize] = Some(span);
                SpanId(slot)
            }
            None => {
                if self.open.len() >= u32::MAX as usize - 1 {
                    return SpanId::NONE;
                }
                self.open.push(Some(span));
                SpanId((self.open.len() - 1) as u32)
            }
        }
    }

    /// Attaches a correlation key (Call-ID) to an open span.
    pub fn correlate(&mut self, id: SpanId, corr: &str) {
        if let Some(Some(span)) = self.open.get_mut(id.0 as usize) {
            span.corr = Some(corr.into());
        }
    }

    /// Attaches a free-form note to an open span.
    pub fn note(&mut self, id: SpanId, note: &str) {
        if let Some(Some(span)) = self.open.get_mut(id.0 as usize) {
            span.note = Some(note.into());
        }
    }

    /// Closes a span. No-op for [`SpanId::NONE`] or already-closed ids.
    pub fn exit(&mut self, id: SpanId, now_us: u64, ok: bool) {
        if id.is_none() {
            return;
        }
        let Some(slot) = self.open.get_mut(id.0 as usize) else {
            return;
        };
        let Some(span) = slot.take() else {
            return;
        };
        self.free.push(id.0);
        self.push(SpanRecord {
            cat: span.cat,
            name: span.name,
            start_us: span.start_us,
            dur_us: now_us.saturating_sub(span.start_us),
            corr: span.corr,
            ok,
            note: span.note,
            instant: false,
        });
    }

    /// Records a point-in-time marker.
    pub fn instant(&mut self, cat: SpanCat, name: &'static str, now_us: u64, corr: Option<&str>) {
        self.push(SpanRecord {
            cat,
            name,
            start_us: now_us,
            dur_us: 0,
            corr: corr.map(Into::into),
            ok: true,
            note: None,
            instant: true,
        });
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.done.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.done.push(rec);
    }

    /// Completed spans, in completion order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.done
    }

    /// Still-open spans rendered as unfinished records ending at
    /// `now_us` — chaos debugging wants to see what never completed.
    pub fn open_records(&self, now_us: u64) -> Vec<SpanRecord> {
        self.open
            .iter()
            .flatten()
            .map(|s| SpanRecord {
                cat: s.cat,
                name: s.name,
                start_us: s.start_us,
                dur_us: now_us.saturating_sub(s.start_us),
                corr: s.corr.clone(),
                ok: false,
                note: Some("unfinished".into()),
                instant: false,
            })
            .collect()
    }

    /// Spans discarded because the retention cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes of heap the open-span slab, its free list and the completed
    /// records occupy, by capacity (correlation and note strings are not
    /// followed).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.open.capacity() * size_of::<Option<OpenSpan>>()
            + self.free.capacity() * size_of::<u32>()
            + self.done.capacity() * size_of::<SpanRecord>()
    }

    /// Changes the retention cap for completed spans.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_produces_record_with_duration() {
        let mut log = SpanLog::default();
        let id = log.enter(SpanCat::Sip, "sip.invite", 1000);
        log.correlate(id, "call-1");
        log.exit(id, 3500, true);
        let recs = log.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "sip.invite");
        assert_eq!(recs[0].dur_us, 2500);
        assert_eq!(recs[0].corr.as_deref(), Some("call-1"));
        assert!(recs[0].ok);
    }

    #[test]
    fn slots_are_reused_lifo_and_double_exit_is_safe() {
        let mut log = SpanLog::default();
        let a = log.enter(SpanCat::Slp, "slp.lookup", 0);
        log.exit(a, 10, true);
        log.exit(a, 20, false); // stale: slot is free, must be ignored
        let b = log.enter(SpanCat::Slp, "slp.lookup", 30);
        assert_eq!(a, b); // LIFO reuse of slot 0
        log.exit(b, 40, true);
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn none_id_is_inert() {
        let mut log = SpanLog::default();
        log.exit(SpanId::NONE, 5, true);
        log.correlate(SpanId::NONE, "x");
        assert!(log.records().is_empty());
    }

    #[test]
    fn open_records_mark_unfinished() {
        let mut log = SpanLog::default();
        log.enter(SpanCat::Tunnel, "tunnel.handshake", 100);
        let open = log.open_records(400);
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].dur_us, 300);
        assert!(!open[0].ok);
        assert_eq!(open[0].note.as_deref(), Some("unfinished"));
    }

    #[test]
    fn retention_cap_drops_and_counts() {
        let mut log = SpanLog::default();
        log.set_cap(2);
        for i in 0..4 {
            log.instant(SpanCat::Media, "media.start", i, None);
        }
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.dropped(), 2);
    }
}
