//! The world's event queue: a two-level time wheel in front of a small
//! binary heap.
//!
//! **Contract:** events pop in exactly ascending `(time, seq)`, where
//! `seq` counts pushes — so equal-time events fire in scheduling order.
//!
//! A queued event lives in a slab slot beside its key. Only events
//! earlier than the *horizon* — the end of inner bucket `cur` — are ever
//! ordered: they sit, as 24-byte keys, in the `near` heap. Everything
//! later waits unsorted, as a bare `u32` slot, in the bucket of its time:
//!
//! * `inner`: [`INNER_BUCKETS`] buckets of 2^[`BUCKET_SHIFT`] µs, holding
//!   bucket numbers in `(cur, cur + INNER_BUCKETS)`;
//! * `outer`: [`OUTER_BUCKETS`] buckets one whole inner wheel wide,
//!   holding the outer bucket numbers after the one `cur` is in;
//! * `spill`: a heap for the rare event beyond the outer wheel.
//!
//! When `near` runs dry the horizon steps to the next occupied bucket
//! (found in the occupancy bitmaps, so idle gaps cost nothing) and pours
//! it into `near`; crossing into an outer bucket first re-places its
//! slots, and the spill entries the outer wheel now reaches, one level
//! in. Every event with a bucket number `<= cur` is in `near` and every
//! other event is strictly later than all of them, so the heap alone
//! decides pop order — exactly the comparisons one big heap would make,
//! among the few hundred events that are due instead of all that exist.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::exec::Event;
use crate::time::SimTime;

/// Inner buckets are 2^10 µs = 1.024 ms wide: one 802.11b airtime (671 µs
/// at the median on `mesh_calls`) ends in the bucket it starts in or the
/// next, so the near heap holds about a millisecond of the world's work.
const BUCKET_SHIFT: u32 = 10;
/// 2^9 = 512 inner buckets span 524 ms: SIP T1 and the 500 ms beacon and
/// hello periods land in the inner wheel directly and are never re-placed.
const INNER_BITS: u32 = 9;
const INNER_BUCKETS: u64 = 1 << INNER_BITS;
/// 128 outer buckets of 524 ms span 67 s: the 32 s dialog and transaction
/// linger (64×T1) fits with room to spare; only hour-scale registration
/// refreshes reach the spill.
const OUTER_BUCKETS: u64 = 128;
/// Shift from microseconds to an outer bucket number.
const OUTER_SHIFT: u32 = BUCKET_SHIFT + INNER_BITS;
/// Entries of storage the near heap (24 KB) and a drained bucket (256 B,
/// so 160 KB over both wheels) keep for their next use; what a fuller
/// millisecond made them take beyond it goes back to the allocator.
const NEAR_KEEP: usize = 1024;
const BUCKET_KEEP: usize = 64;

/// Ordering key of a queued event plus its slab slot. Keeping the (large)
/// `Event` out of the heap makes every sift move 24 bytes.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

/// One slab entry; `event` is `None` while the slot is on the free list.
struct Slot {
    time: SimTime,
    seq: u64,
    event: Option<Event>,
}

/// One wheel level: unsorted buckets of slab slots addressed by absolute
/// bucket number modulo the (power-of-two) wheel size, with one occupancy
/// bit per bucket.
struct Wheel {
    buckets: Vec<Vec<u32>>,
    occupied: Vec<u64>,
}

impl Wheel {
    fn new(size: u64) -> Wheel {
        Wheel {
            buckets: vec![Vec::new(); size as usize],
            occupied: vec![0; size as usize / 64],
        }
    }

    fn index(&self, number: u64) -> usize {
        (number & (self.buckets.len() as u64 - 1)) as usize
    }

    fn push(&mut self, number: u64, slot: u32) {
        let i = self.index(number);
        self.buckets[i].push(slot);
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    /// Marks bucket `number` unoccupied and hands it out for draining.
    fn vacate(&mut self, number: u64) -> &mut Vec<u32> {
        let i = self.index(number);
        self.occupied[i / 64] &= !(1 << (i % 64));
        &mut self.buckets[i]
    }

    /// First occupied bucket number in `from..to` (at most one turn of
    /// the wheel), a word of the bitmap at a time.
    fn next_occupied(&self, from: u64, to: u64) -> Option<u64> {
        let mut number = from;
        while number < to {
            let i = self.index(number);
            let rest = self.occupied[i / 64] >> (i % 64);
            if rest != 0 {
                let hit = number + u64::from(rest.trailing_zeros());
                return (hit < to).then_some(hit);
            }
            number += 64 - (i % 64) as u64;
        }
        None
    }

    fn is_empty(&self) -> bool {
        self.occupied.iter().all(|&w| w == 0)
    }

    fn heap_bytes(&self) -> usize {
        let slots: usize = self.buckets.iter().map(Vec::capacity).sum();
        self.buckets.capacity() * std::mem::size_of::<Vec<u32>>()
            + slots * std::mem::size_of::<u32>()
            + self.occupied.capacity() * std::mem::size_of::<u64>()
    }
}

/// The heap key of a parked slot.
fn key_of(slab: &[Slot], slot: u32) -> Key {
    let entry = &slab[slot as usize];
    Key {
        time: entry.time,
        seq: entry.seq,
        slot,
    }
}

/// Empties a drained bucket, keeping at most [`BUCKET_KEEP`] entries of
/// its storage.
fn recycle(bucket: &mut Vec<u32>) {
    bucket.clear();
    bucket.shrink_to(BUCKET_KEEP);
}

/// See the module docs.
pub(crate) struct EventQueue {
    seq: u64,
    /// Backing storage of every queued event; free slots are reused LIFO.
    slab: Vec<Slot>,
    free: Vec<u32>,
    /// Number of the inner bucket most recently poured into `near`.
    cur: u64,
    near: BinaryHeap<Reverse<Key>>,
    inner: Wheel,
    outer: Wheel,
    spill: BinaryHeap<Reverse<Key>>,
}

impl EventQueue {
    pub(crate) fn new() -> EventQueue {
        EventQueue {
            seq: 0,
            slab: Vec::new(),
            free: Vec::new(),
            cur: 0,
            near: BinaryHeap::new(),
            inner: Wheel::new(INNER_BUCKETS),
            outer: Wheel::new(OUTER_BUCKETS),
            spill: BinaryHeap::new(),
        }
    }

    /// Queues `event` at `time` behind everything already queued for that
    /// instant.
    pub(crate) fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Slot {
            time,
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                u32::try_from(self.slab.len() - 1).expect("event slab overflow")
            }
        };
        self.place(Key { time, seq, slot });
    }

    /// Pops the earliest event if it is due at or before `t`.
    pub(crate) fn pop_at_or_before(&mut self, t: SimTime) -> Option<(SimTime, Event)> {
        if self.near.is_empty() && !self.step() {
            return None;
        }
        let top = self.near.peek_mut()?;
        if top.0.time > t {
            return None;
        }
        let Reverse(key) = PeekMut::pop(top);
        let event = self.slab[key.slot as usize]
            .event
            .take()
            .expect("queued slot is empty");
        self.free.push(key.slot);
        Some((key.time, event))
    }

    /// Events queued now.
    pub(crate) fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// High-water mark of events queued at once (slab slots ever made).
    pub(crate) fn slots(&self) -> usize {
        self.slab.len()
    }

    /// Heap bytes behind the queue, by capacity: slab, free list, near
    /// heap, both wheels and the spill.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<Slot>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + (self.near.capacity() + self.spill.capacity()) * std::mem::size_of::<Key>()
            + self.inner.heap_bytes()
            + self.outer.heap_bytes()
    }

    /// Files a keyed slot where its time belongs relative to `cur`.
    fn place(&mut self, key: Key) {
        let bucket = key.time.as_micros() >> BUCKET_SHIFT;
        if bucket <= self.cur {
            self.near.push(Reverse(key));
        } else if bucket - self.cur < INNER_BUCKETS {
            self.inner.push(bucket, key.slot);
        } else if (bucket >> INNER_BITS) - (self.cur >> INNER_BITS) < OUTER_BUCKETS {
            self.outer.push(bucket >> INNER_BITS, key.slot);
        } else {
            self.spill.push(Reverse(key));
        }
    }

    /// With `near` empty, moves the horizon to the next bucket that holds
    /// anything and pours it in. Returns `false` when nothing is queued.
    fn step(&mut self) -> bool {
        self.near.shrink_to(NEAR_KEEP);
        while self.near.is_empty() {
            let outer_now = self.cur >> INNER_BITS;
            let outer_end = (outer_now + 1) << INNER_BITS;
            if let Some(bucket) = self.inner.next_occupied(self.cur + 1, outer_end) {
                self.cur = bucket;
            } else {
                // Nothing left in this outer bucket. Occupied inner
                // buckets, if any, belong to the next one; otherwise skip
                // to the first outer bucket, or spill entry, there is.
                let next = if !self.inner.is_empty() {
                    outer_now + 1
                } else if let Some(next) = self
                    .outer
                    .next_occupied(outer_now + 1, outer_now + OUTER_BUCKETS)
                {
                    next
                } else if let Some(Reverse(key)) = self.spill.peek() {
                    key.time.as_micros() >> OUTER_SHIFT
                } else {
                    return false;
                };
                self.cur = next << INNER_BITS;
                self.cascade(next);
            }
            let slab = &self.slab;
            let bucket = self.inner.vacate(self.cur);
            self.near
                .extend(bucket.iter().map(|&slot| Reverse(key_of(slab, slot))));
            recycle(bucket);
        }
        true
    }

    /// On entering outer bucket `number`: re-places its slots, and the
    /// spill entries now within the outer wheel's reach, one level in.
    fn cascade(&mut self, number: u64) {
        // By index: `place` files these slots in `near` or `inner`, never
        // back into the bucket being read.
        let i = self.outer.index(number);
        for k in 0..self.outer.buckets[i].len() {
            let key = key_of(&self.slab, self.outer.buckets[i][k]);
            self.place(key);
        }
        recycle(self.outer.vacate(number));
        let reach = number + OUTER_BUCKETS;
        let within = |top: &Reverse<Key>| top.0.time.as_micros() >> OUTER_SHIFT < reach;
        while self.spill.peek().is_some_and(within) {
            let Reverse(key) = self.spill.pop().expect("peeked above");
            self.place(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::rng::SimRng;

    /// Ceiling on a slab slot: the `(time, seq)` key beside the largest
    /// `Event`. Every queued event pays it.
    const EVENT_SLOT_MAX: usize = 88;

    #[test]
    fn slab_slot_stays_under_its_ceiling() {
        let size = std::mem::size_of::<Slot>();
        assert!(size <= EVENT_SLOT_MAX, "a queue slot is {size} B");
    }

    /// An event whose token is the queue's `seq` for it (pushes so far).
    fn push(q: &mut EventQueue, time: u64) {
        let event = Event::Timer {
            node: NodeId(0),
            proc: 0,
            token: q.seq,
        };
        q.push(SimTime::from_micros(time), event);
    }

    fn pop(q: &mut EventQueue, t: SimTime) -> Option<(u64, u64)> {
        q.pop_at_or_before(t).map(|(time, event)| match event {
            Event::Timer { token, .. } => (time.as_micros(), token),
            other => panic!("pushed only timers, popped {other:?}"),
        })
    }

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| pop(q, SimTime::MAX)).collect()
    }

    fn next_time(q: &mut EventQueue) -> Option<u64> {
        if q.near.is_empty() && !q.step() {
            return None;
        }
        q.near.peek().map(|key| key.0.time.as_micros())
    }

    /// The delays the stack really schedules: now, a local event, a
    /// loopback, an airtime, an RTP frame, T1 (give or take a bucket), the
    /// 64×T1 linger, a registration refresh, and far past the outer wheel.
    fn delay(rng: &mut SimRng) -> u64 {
        match rng.range_u64(0, 16) {
            0 | 1 => 0,
            2..=4 => 1,
            5 | 6 => 50,
            7..=9 => rng.range_u64(300, 2_500),
            10 | 11 => 20_000,
            12 => rng.range_u64(498_000, 502_000),
            13 => 32_000_000,
            14 => 3_600_000_000,
            _ => rng.range_u64(70_000_000, 40_000_000_000),
        }
    }

    #[test]
    fn pops_match_a_binary_heap_oracle() {
        for seed in 0..20 {
            let mut rng = SimRng::from_seed_and_stream(seed, 22);
            let mut q = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut now = 0;
            for op in 0..200_000 {
                // Grow for the first half of the run, shrink in the second.
                let push_share = if op < 100_000 { 11 } else { 9 };
                if rng.range_u64(0, 20) < push_share {
                    let time = now + delay(&mut rng);
                    oracle.push(Reverse((time, q.seq)));
                    push(&mut q, time);
                } else {
                    // Sometimes stop short of the next event, as
                    // `run_until` does, which leaves the horizon ahead of
                    // the pushes that follow.
                    let limit = match rng.range_u64(0, 4) {
                        0 => now + rng.range_u64(0, 3_000),
                        _ => u64::MAX,
                    };
                    let want = oracle.peek().map(|top| top.0);
                    assert_eq!(next_time(&mut q), want.map(|(time, _)| time));
                    let want = want.filter(|&(time, _)| time <= limit);
                    assert_eq!(pop(&mut q, SimTime::from_micros(limit)), want);
                    if let Some((time, _)) = want {
                        oracle.pop();
                        now = time;
                    }
                }
                assert_eq!(q.len(), oracle.len());
            }
            let rest: Vec<_> = std::iter::from_fn(|| oracle.pop().map(|top| top.0)).collect();
            assert_eq!(drain(&mut q), rest, "seed {seed}");
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn equal_times_across_a_bucket_edge_pop_in_push_order() {
        let mut q = EventQueue::new();
        let edge = 7 << BUCKET_SHIFT;
        for _ in 0..5 {
            push(&mut q, edge);
            push(&mut q, edge - 1);
        }
        let before = [1, 3, 5, 7, 9].map(|seq| (edge - 1, seq));
        let after = [0, 2, 4, 6, 8].map(|seq| (edge, seq));
        assert_eq!(drain(&mut q), [before, after].concat());
    }

    #[test]
    fn a_lone_far_timer_fires_at_its_microsecond_across_an_idle_gap() {
        // Three hours out, then as far as time goes: a queue that walked
        // the 2^54 empty buckets in between would never return.
        for at in [3 * 3_600_000_000 + 7, u64::MAX - 5] {
            let mut q = EventQueue::new();
            push(&mut q, 40);
            assert_eq!(pop(&mut q, SimTime::MAX), Some((40, 0)));
            push(&mut q, at);
            assert_eq!(pop(&mut q, SimTime::from_micros(at - 1)), None);
            assert_eq!(pop(&mut q, SimTime::from_micros(at)), Some((at, 1)));
            assert_eq!(pop(&mut q, SimTime::MAX), None);
        }
    }

    #[test]
    fn a_push_below_the_horizon_pops_before_everything_later() {
        let mut q = EventQueue::new();
        let far = 10_000_000;
        push(&mut q, far);
        // Stopping early still moved the horizon to the far bucket.
        assert_eq!(pop(&mut q, SimTime::from_secs(1)), None);
        push(&mut q, 2_000_000);
        push(&mut q, far - 1);
        push(&mut q, far);
        push(&mut q, 1_000_000);
        assert_eq!(
            drain(&mut q),
            [
                (1_000_000, 4),
                (2_000_000, 1),
                (far - 1, 2),
                (far, 0),
                (far, 3)
            ]
        );
    }

    #[test]
    fn a_burst_at_one_instant_drains_in_order_and_gives_its_capacity_back() {
        let mut q = EventQueue::new();
        for _ in 0..100_000 {
            push(&mut q, 5_000);
        }
        push(&mut q, 9_000);
        for seq in 0..100_000 {
            assert_eq!(pop(&mut q, SimTime::MAX), Some((5_000, seq)));
        }
        assert!(q.near.capacity() >= 100_000);
        assert_eq!(pop(&mut q, SimTime::MAX), Some((9_000, 100_000)));
        assert!(q.near.capacity() <= NEAR_KEEP, "{}", q.near.capacity());
        let buckets = q.inner.buckets.iter().map(Vec::capacity).max();
        assert!(buckets <= Some(BUCKET_KEEP), "{buckets:?}");
    }
}
