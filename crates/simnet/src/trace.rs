//! Packet capture.
//!
//! The paper demonstrates its piggybacking mechanism with a Wireshark
//! capture of an AODV route reply carrying encapsulated SIP contact
//! information (paper Fig. 5). [`PacketTrace`] is the simulator's capture
//! facility: when enabled, every frame transmission, delivery and drop is
//! recorded and can be rendered as a Wireshark-style text listing through a
//! pluggable [`Dissector`].
//!
//! The capture is also the run's fingerprint: every entry it records is
//! folded into a running hash (FNV-1a steps, each followed by a
//! rotation) whether or not the ring keeps it, and the fold closes a
//! [`Checkpoint`] at each whole second of simulated time in which
//! something happened, so two runs that part ways can be told apart by
//! the first second at which they differ.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::ident::{fold_word, fold_words, FNV_OFFSET};
use crate::net::{Datagram, Payload};
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Simulated time between two checkpoints of the run fingerprint.
pub const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Slots of the fold's payload-hash cache.
const PAYLOAD_SLOTS: usize = 64;

/// What happened to a captured packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Frame put on the air by `node`.
    RadioTx,
    /// Frame received by `node`.
    RadioRx,
    /// Datagram delivered over the wired backbone.
    WiredRx,
    /// Datagram delivered over loopback.
    Loopback,
    /// Packet dropped; the reason is recorded in the entry.
    Drop,
}

/// One captured packet event.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Capture time.
    pub time: SimTime,
    /// Node observing the event.
    pub node: NodeId,
    /// Event kind.
    pub kind: TraceKind,
    /// Drop reason, when `kind == Drop`.
    pub reason: Option<&'static str>,
    /// The captured datagram (payload included).
    pub dgram: Datagram,
}

/// Protocol dissector used when rendering a trace as text.
///
/// Given a destination port and payload, returns `Some((proto, info))` when
/// the dissector understands the packet, mirroring Wireshark's protocol and
/// info columns.
pub type Dissector = fn(port: u16, payload: &[u8]) -> Option<(String, String)>;

/// The run fingerprint at a whole second of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// The second the checkpoint closed at. It covers every entry and
    /// event before this instant, none at it.
    pub at: SimTime,
    /// The fold of those entries, chained from the checkpoint before,
    /// and of the count of events dispatched by then.
    pub digest: u64,
}

/// A bounded in-memory packet capture.
///
/// The capture is a ring buffer: once `capacity` entries are retained,
/// each new record evicts the oldest one, so long-running captures keep
/// the *most recent* window of traffic at a fixed memory ceiling instead
/// of freezing at the start of the run. Entry numbers in [`render`]
/// \(`PacketTrace::render`) are absolute capture indices — they keep
/// counting across evictions, so the same packet renders under the same
/// number no matter how much was evicted after it.
///
/// Every recorded entry is also folded into the run fingerprint
/// ([`PacketTrace::digest`], [`PacketTrace::checkpoints`]), evicted or
/// not: at capacity 0 the trace keeps nothing but the fingerprint.
#[derive(Debug)]
pub struct PacketTrace {
    enabled: bool,
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    /// Entries evicted from the front so far; also the absolute index of
    /// the oldest retained entry.
    evicted: u64,
    /// The fold ([`fold_word`]) of every entry recorded, chained through
    /// the checkpoints.
    fold: u64,
    /// Events dispatched by the end of the last traced `World::run_until`.
    events: u64,
    checkpoints: Vec<Checkpoint>,
    /// Events dispatched by the last checkpoint closed.
    checkpoint_events: Option<u64>,
    /// The earliest instant the next checkpoint may close at.
    next_checkpoint: SimTime,
    /// Payloads hashed lately and their hashes, by buffer address. A
    /// frame's hops and receptions share one buffer, so on a radio mesh
    /// most entries find theirs here. The held clone keeps the address
    /// from being reused by another buffer (and makes a fault's
    /// `Payload::make_mut` copy a buffer it could have edited in place).
    /// Empty until the first record.
    payload_hashes: Vec<Option<(Payload, u64)>>,
}

impl Default for PacketTrace {
    fn default() -> PacketTrace {
        PacketTrace::new()
    }
}

impl PacketTrace {
    /// Creates a disabled trace with a 100 000-entry ring.
    pub fn new() -> PacketTrace {
        PacketTrace {
            enabled: false,
            entries: VecDeque::new(),
            capacity: 100_000,
            evicted: 0,
            fold: FNV_OFFSET,
            events: 0,
            checkpoints: Vec::new(),
            checkpoint_events: None,
            next_checkpoint: SimTime::ZERO,
            payload_hashes: Vec::new(),
        }
    }

    /// Enables or disables capturing. Disabling does not clear prior entries.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Returns whether capturing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Caps the number of retained entries. When the ring is full, each
    /// new record evicts the oldest retained entry; shrinking below the
    /// current length evicts immediately.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
    }

    /// Records an event if capturing is enabled: folds it into the run
    /// fingerprint, then retains it, evicting the oldest retained entry
    /// once the ring is full.
    pub fn record(&mut self, entry: TraceEntry) {
        if !self.enabled {
            return;
        }
        let payload = self.payload_hash(&entry.dgram.payload);
        self.fold = fold_entry(self.fold, &entry, payload);
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(entry);
    }

    /// All retained entries in capture order (oldest first).
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &TraceEntry> + '_ {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by the ring so far. `evicted() + len()` is the
    /// total ever recorded; `evicted()` is also the absolute index of the
    /// oldest retained entry.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Discards all captured entries and resets the absolute numbering.
    /// The run fingerprint is kept.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.evicted = 0;
    }

    /// The fold of `payload`'s length, then of its bytes a word at a
    /// time, looked up by buffer before it is computed.
    fn payload_hash(&mut self, payload: &Payload) -> u64 {
        if self.payload_hashes.is_empty() {
            self.payload_hashes.resize(PAYLOAD_SLOTS, None);
        }
        let slot = &mut self.payload_hashes[(payload.as_ptr() as usize >> 4) % PAYLOAD_SLOTS];
        match slot {
            Some((seen, h)) if std::ptr::eq::<[u8]>(&**seen, &**payload) => *h,
            _ => {
                let h = fold_words(fold_word(FNV_OFFSET, payload.len() as u64), payload);
                *slot = Some((payload.clone(), h));
                h
            }
        }
    }

    /// The run fingerprint: the fold of every entry recorded so far,
    /// chained through the checkpoints, and of the count of events
    /// dispatched by the end of the last traced `World::run_until`.
    pub fn digest(&self) -> u64 {
        fold_word(self.fold, self.events)
    }

    /// The checkpoints closed so far, oldest first: one at each whole
    /// second the world ran through with the trace enabled, unless no
    /// event was dispatched in the second before it. An idle second
    /// closes none, so the list, like [`PacketTrace::digest`], depends on
    /// the events alone and not on how a run is sliced into
    /// `World::run_until` calls.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// The instant the next checkpoint closes at, if the trace is
    /// enabled and a run from `now` through `until` reaches it. The
    /// world dispatches every event before it, then calls
    /// [`PacketTrace::close_checkpoint`].
    pub(crate) fn checkpoint_due(&self, now: SimTime, until: SimTime) -> Option<SimTime> {
        if !self.enabled {
            return None;
        }
        // A trace enabled mid-run starts at the first whole second after
        // `now`: the events at `now` may already have run.
        let step = CHECKPOINT_INTERVAL.as_micros();
        let after_now = SimTime::from_micros((now.as_micros() / step + 1) * step);
        let at = self.next_checkpoint.max(after_now);
        (at <= until).then_some(at)
    }

    /// Closes the checkpoint at `at`, folding in the `events` dispatched
    /// before it, unless none was dispatched since the last one closed.
    pub(crate) fn close_checkpoint(&mut self, at: SimTime, events: u64) {
        self.next_checkpoint = at + CHECKPOINT_INTERVAL;
        if self.checkpoint_events == Some(events) {
            return;
        }
        self.checkpoint_events = Some(events);
        self.fold = fold_word(self.fold, events);
        self.checkpoints.push(Checkpoint {
            at,
            digest: self.fold,
        });
    }

    /// Notes the `events` dispatched by the end of a run, for
    /// [`PacketTrace::digest`]; a disabled trace notes nothing.
    pub(crate) fn note_events(&mut self, events: u64) {
        if self.enabled {
            self.events = events;
        }
    }

    /// Renders the capture as a Wireshark-style text listing using the given
    /// dissectors (tried in order; first match wins).
    pub fn render(&self, dissectors: &[Dissector]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>6} {:<9} {:<21} {:<21} {:>5}  {:<8} info",
            "no.", "time", "node", "event", "source", "destination", "len", "proto"
        );
        if self.evicted > 0 {
            let _ = writeln!(
                out,
                "  ... {} older entries evicted by the capture ring ...",
                self.evicted
            );
        }
        for (i, e) in self.entries.iter().enumerate() {
            let i = self.evicted + i as u64;
            let (proto, info) = dissect(dissectors, &e.dgram);
            let event = match e.kind {
                TraceKind::RadioTx => "radio-tx",
                TraceKind::RadioRx => "radio-rx",
                TraceKind::WiredRx => "wired-rx",
                TraceKind::Loopback => "loopback",
                TraceKind::Drop => "drop",
            };
            let info = match e.reason {
                Some(r) => format!("[{r}] {info}"),
                None => info,
            };
            let _ = writeln!(
                out,
                "{:>5} {:>12.6} {:>6} {:<9} {:<21} {:<21} {:>5}  {:<8} {}",
                i,
                e.time.as_secs_f64(),
                e.node.0,
                event,
                e.dgram.src.to_string(),
                e.dgram.dst.to_string(),
                e.dgram.payload.len(),
                proto,
                info
            );
        }
        out
    }

    /// Returns captured entries matching a predicate.
    pub fn find(&self, mut pred: impl FnMut(&TraceEntry) -> bool) -> Vec<&TraceEntry> {
        self.entries.iter().filter(|e| pred(e)).collect()
    }
}

/// Folds one entry in five words: its time; its node, kind, TTL and
/// drop reason's length; each endpoint's address and port; and the
/// `payload` hash. Then a drop's reason. Each step is a bijection of
/// the state, so one differing field always moves the fingerprint, and
/// [`fold_word`]'s rotation keeps two differences in the same bits of
/// later words from cancelling.
fn fold_entry(h: u64, e: &TraceEntry, payload: u64) -> u64 {
    let d = &e.dgram;
    let reason = e.reason.map_or(0, str::len) as u64;
    let kind: u64 = match e.kind {
        TraceKind::RadioTx => 1,
        TraceKind::RadioRx => 2,
        TraceKind::WiredRx => 3,
        TraceKind::Loopback => 4,
        TraceKind::Drop => 5,
    };
    let words = [
        e.time.as_micros(),
        u64::from(e.node.0) | kind << 32 | u64::from(d.ttl) << 40 | reason << 48,
        u64::from(d.src.addr.0) | u64::from(d.src.port) << 32,
        u64::from(d.dst.addr.0) | u64::from(d.dst.port) << 32,
        payload,
    ];
    let h = words.into_iter().fold(h, fold_word);
    match e.reason {
        Some(r) => fold_words(h, r.as_bytes()),
        None => h,
    }
}

fn dissect(dissectors: &[Dissector], dgram: &Datagram) -> (String, String) {
    for d in dissectors {
        if let Some((proto, info)) = d(dgram.dst.port, &dgram.payload) {
            return (proto, info);
        }
    }
    ("udp".to_owned(), format!("{} bytes", dgram.payload.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::net::{Addr, SocketAddr};
    use crate::node::NodeConfig;
    use crate::world::{World, WorldConfig};

    fn entry(kind: TraceKind, port: u16) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_millis(12),
            node: NodeId(1),
            kind,
            reason: None,
            dgram: Datagram::new(
                SocketAddr::new(Addr::manet(0), 1000),
                SocketAddr::new(Addr::manet(1), port),
                b"xyz".to_vec(),
            ),
        }
    }

    fn entry_at(port: u16) -> TraceEntry {
        entry(TraceKind::RadioRx, port)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = PacketTrace::new();
        let empty = t.digest();
        t.record(entry(TraceKind::RadioTx, 5060));
        assert!(t.is_empty());
        assert_eq!(t.digest(), empty, "a disabled trace folded an entry");
        t.set_enabled(true);
        t.record(entry(TraceKind::RadioTx, 5060));
        assert_eq!(t.len(), 1);
        assert_ne!(t.digest(), empty);
    }

    /// Four nodes in range of one another, each broadcasting a beacon
    /// every 500 ms for 4 s, traced into a ring of `capacity` entries.
    /// Node 0's beacon at `odd_at_ms` has one byte flipped; `plan` is
    /// installed before the run.
    fn beacon_run(capacity: usize, odd_at_ms: Option<u64>, plan: FaultPlan) -> World {
        let mut w = World::new(WorldConfig::new(7));
        let ids: Vec<NodeId> = (0..4)
            .map(|i| w.add_node(NodeConfig::manet(30.0 * f64::from(i), 0.0)))
            .collect();
        w.install_fault_plan(plan);
        w.trace_mut().set_capacity(capacity);
        w.trace_mut().set_enabled(true);
        for t_ms in (0..4_000).step_by(500) {
            w.run_until(SimTime::from_millis(t_ms));
            for &id in &ids {
                let mut payload = vec![id.0 as u8; 24];
                if id == ids[0] && odd_at_ms == Some(t_ms) {
                    payload[5] ^= 1;
                }
                let src = SocketAddr::new(w.node(id).addr(), 9900);
                let dst = SocketAddr::new(Addr::BROADCAST, 9900);
                w.inject(id, Datagram::new(src, dst, payload));
            }
        }
        w.run_until(SimTime::from_secs(4));
        w
    }

    fn checkpoint_digests(w: &World) -> Vec<u64> {
        w.trace().checkpoints().iter().map(|c| c.digest).collect()
    }

    #[test]
    fn the_fold_covers_evicted_entries() {
        let full = beacon_run(usize::MAX, None, FaultPlan::new());
        assert_eq!(full.trace().evicted(), 0);
        assert!(full.trace().len() > 16, "{} entries", full.trace().len());
        let at: Vec<SimTime> = full.trace().checkpoints().iter().map(|c| c.at).collect();
        assert_eq!(at, (1..=4).map(SimTime::from_secs).collect::<Vec<_>>());
        for capacity in [0, 16] {
            let w = beacon_run(capacity, None, FaultPlan::new());
            assert_eq!(w.trace().len(), capacity);
            assert_eq!(
                w.trace().digest(),
                full.trace().digest(),
                "capacity {capacity}"
            );
            assert_eq!(w.trace().checkpoints(), full.trace().checkpoints());
        }
    }

    #[test]
    fn checkpoints_part_at_the_first_second_after_a_change() {
        let base = checkpoint_digests(&beacon_run(0, None, FaultPlan::new()));
        let odd = checkpoint_digests(&beacon_run(0, Some(2_500), FaultPlan::new()));
        assert_eq!(base[..2], odd[..2], "checkpoints at 1 s and 2 s");
        for (i, (a, b)) in base.iter().zip(&odd).enumerate().skip(2) {
            assert_ne!(a, b, "checkpoint at {} s", i + 1);
        }
    }

    #[test]
    fn an_event_that_sends_nothing_moves_the_fingerprint() {
        let base = beacon_run(usize::MAX, None, FaultPlan::new());
        // A heal with no partition in place: one event, no packet, at
        // 2 s sharp, which the checkpoint at 2 s does not cover.
        let heal = FaultPlan::new().heal_at(SimTime::from_secs(2));
        let extra = beacon_run(usize::MAX, None, heal);
        assert_eq!(extra.events_processed(), base.events_processed() + 1);
        assert_eq!(extra.trace().len(), base.trace().len());
        assert_ne!(extra.trace().digest(), base.trace().digest());
        let (a, b) = (checkpoint_digests(&base), checkpoint_digests(&extra));
        assert_eq!(a[..2], b[..2], "checkpoints at 1 s and 2 s");
        assert_ne!(a[2], b[2], "checkpoint at 3 s");
    }

    #[test]
    fn every_field_of_an_entry_moves_the_digest() {
        let digest = |e: TraceEntry| {
            let mut t = PacketTrace::new();
            t.set_enabled(true);
            t.record(e);
            t.digest()
        };
        let base = entry(TraceKind::Drop, 5060);
        let edits: [fn(&mut TraceEntry); 10] = [
            |e| e.time = SimTime::from_micros(12_001),
            |e| e.node = NodeId(2),
            |e| e.kind = TraceKind::RadioTx,
            |e| e.reason = Some("no_route"),
            |e| e.dgram.src.addr = Addr::manet(7),
            |e| e.dgram.src.port += 1,
            |e| e.dgram.dst.addr = Addr::manet(7),
            |e| e.dgram.dst.port += 1,
            |e| e.dgram.ttl -= 1,
            |e| e.dgram.payload = b"xyz\0".into(),
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut e = base.clone();
            edit(&mut e);
            assert_ne!(digest(e), digest(base.clone()), "edit {i}");
        }
    }

    #[test]
    fn differences_in_the_top_bits_do_not_cancel() {
        // A frame is recorded once as sent and once per receiver, from
        // one buffer; a plain FNV-1a step would carry a difference in bit
        // 63 through unchanged, and the second record would undo it.
        let twice = |edit: fn(&mut TraceEntry)| {
            let mut e = entry(TraceKind::RadioTx, 5060);
            e.dgram.payload = (0u8..24).collect::<Vec<u8>>().into();
            edit(&mut e);
            let mut t = PacketTrace::new();
            t.set_enabled(true);
            t.record(e.clone());
            e.kind = TraceKind::RadioRx;
            t.record(e);
            t.digest()
        };
        let base = twice(|_| {});
        let edits: [fn(&mut TraceEntry); 4] = [
            |e| e.dgram.payload.make_mut()[7] ^= 0x80,
            |e| {
                let p = e.dgram.payload.make_mut();
                p[7] ^= 0x80;
                p[15] ^= 0x80;
            },
            |e| e.dgram.src.port ^= 0x8000,
            |e| e.dgram.ttl ^= 0x80,
        ];
        for (i, edit) in edits.iter().enumerate() {
            assert_ne!(twice(*edit), base, "edit {i}");
        }
    }

    #[test]
    fn the_fingerprint_does_not_depend_on_how_a_run_is_sliced() {
        // Two beacon rounds, then a queue that drains long before 10 s.
        let run = |slices: u64| {
            let mut w = World::new(WorldConfig::new(7));
            let ids: Vec<NodeId> = (0..3)
                .map(|i| w.add_node(NodeConfig::manet(30.0 * f64::from(i), 0.0)))
                .collect();
            w.trace_mut().set_capacity(0);
            w.trace_mut().set_enabled(true);
            for round in 0..2 {
                w.run_until(SimTime::from_millis(1_500 * round));
                for &id in &ids {
                    let src = SocketAddr::new(w.node(id).addr(), 9900);
                    let dst = SocketAddr::new(Addr::BROADCAST, 9900);
                    w.inject(id, Datagram::new(src, dst, vec![1; 24]));
                }
            }
            for i in 1..=slices {
                w.run_until(SimTime::from_secs(2 + 8 * i / slices));
            }
            (w.trace().checkpoints().to_vec(), w.trace().digest())
        };
        let whole = run(1);
        let at: Vec<SimTime> = whole.0.iter().map(|c| c.at).collect();
        assert_eq!(at, [SimTime::from_secs(1), SimTime::from_secs(2)]);
        assert_eq!(run(8), whole);
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_absolute_numbering() {
        let mut t = PacketTrace::new();
        t.set_enabled(true);
        t.set_capacity(2);
        for port in 0..5u16 {
            t.record(entry_at(port));
        }
        // The two newest entries survive; three were evicted.
        assert_eq!(t.len(), 2);
        assert_eq!(t.evicted(), 3);
        let ports: Vec<u16> = t.entries().map(|e| e.dgram.dst.port).collect();
        assert_eq!(ports, vec![3, 4]);
        // Rendered numbers are absolute capture indices.
        let out = t.render(&[]);
        assert!(out.contains("3 older entries evicted"), "{out}");
        assert!(out.contains("\n    3 "), "{out}");
        assert!(out.contains("\n    4 "), "{out}");

        // Shrinking the cap evicts immediately.
        t.set_capacity(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.evicted(), 4);

        // A zero-capacity ring retains nothing but keeps counting.
        t.set_capacity(0);
        t.record(entry_at(9));
        assert!(t.is_empty());
        assert_eq!(t.evicted(), 6);

        // Clearing resets the numbering.
        t.clear();
        assert_eq!(t.evicted(), 0);
    }

    #[test]
    fn render_uses_dissectors_in_order() {
        let mut t = PacketTrace::new();
        t.set_enabled(true);
        t.record(entry(TraceKind::RadioTx, 654));
        fn sip(_port: u16, _p: &[u8]) -> Option<(String, String)> {
            None
        }
        fn aodv(port: u16, _p: &[u8]) -> Option<(String, String)> {
            (port == 654).then(|| ("aodv".to_owned(), "RREQ".to_owned()))
        }
        let out = t.render(&[sip as Dissector, aodv as Dissector]);
        assert!(out.contains("aodv"), "{out}");
        assert!(out.contains("RREQ"), "{out}");
        // Unknown traffic falls back to a generic udp row.
        let mut t2 = PacketTrace::new();
        t2.set_enabled(true);
        t2.record(entry(TraceKind::Drop, 9));
        let out2 = t2.render(&[]);
        assert!(out2.contains("udp"), "{out2}");
    }
}
