//! Hierarchical timing-wheel calendar backend.
//!
//! A hashed hierarchical timing wheel in the style of Varghese & Lauck's
//! scheme (and the Linux / tokio timer wheels), specialised for a
//! discrete-event simulator where *pops are globally ordered*: the consumer
//! always takes the earliest `(time, seq)` entry, never "all timers in this
//! tick". That requirement shapes the design:
//!
//! * **Levels.** [`LEVELS`] wheel levels of [`SLOTS_PER_LEVEL`] slots each.
//!   A level-0 slot spans `2^SLOT_BITS` ns (1.024 µs); each higher level is
//!   64× coarser, so the wheel covers `2^(SLOT_BITS + 6·LEVELS)` ns
//!   (≈ 17 s) past the cursor. Anything farther goes to a sorted
//!   *overflow* heap and is re-distributed when the cursor reaches it.
//! * **Current slot: a sorted run plus a side heap.** When the cursor
//!   reaches a level-0 slot its bucket is sorted once by `(time, seq)`
//!   (keys are unique, so the order is fully determined) into `run`, stored
//!   latest-first so a pop is `Vec::pop` off the back. Entries that arrive
//!   at or before the cursor's slot *after* that — a same-slot reschedule,
//!   or the head of a cascaded block — go to a binary heap (`cur`).
//!   The global minimum is the earlier of `run.last()` and `cur.peek()`:
//!   every other entry sits in a strictly later level-0 slot, hence at a
//!   strictly later time. Same-instant entries always share a slot, so
//!   FIFO tie-breaks reduce to the `seq` ordering between those two heads
//!   — identical to a plain binary heap.
//! * **Eager normalisation.** After every push and pop the wheel restores
//!   the invariant *`run` or `cur` is non-empty whenever `len > 0`* by
//!   advancing the cursor to the next occupied slot (cascading coarser
//!   levels down as needed). This keeps `peek` a `&self` O(1) operation,
//!   matching the `BinaryHeap` contract the simulator was built against.
//!
//! Scheduling earlier than the cursor's slot is legal (the cursor can run
//! ahead of the last *popped* time after normalisation); such entries land
//! in `cur` and are ordered against the run like any other.
//!
//! Occupancy is tracked as one `u64` bitmask per level, so "find the next
//! occupied slot" is a masked `trailing_zeros`, and an idle wheel costs
//! nothing to skip across arbitrarily large gaps.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// log2 of the level-0 slot width in nanoseconds (1024 ns per slot).
pub const SLOT_BITS: u32 = 10;
/// log2 of the slot count per level.
pub const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
pub const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
/// Number of wheel levels before the sorted overflow heap takes over.
pub const LEVELS: usize = 4;
/// Slot-number bits covered by the wheel proper (beyond it: overflow).
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// A calendar entry: `(time, seq)` orders pops, `payload` rides along.
pub(crate) struct CalEntry<T> {
    time: Time,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for CalEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for CalEntry<T> {}

impl<T> PartialOrd for CalEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for CalEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Hierarchical timing wheel with a sorted overflow level.
///
/// Same push/pop/peek contract as one `BinaryHeap` over
/// `(time, seq)` — pops are globally ordered — but near-future scheduling
/// is O(1) and pops take the back of the current slot's sorted run (or the
/// head of its side heap) plus an occasional cascade, instead of
/// sifting a single calendar-wide heap.
pub struct TimingWheel<T> {
    /// `LEVELS × SLOTS_PER_LEVEL` buckets, indexed `lvl * 64 + slot`.
    slots: Vec<Vec<CalEntry<T>>>,
    /// One occupancy bit per slot, per level.
    occ: [u64; LEVELS],
    /// The bucket promoted at the cursor's level-0 slot, sorted
    /// latest-first: the back is its earliest entry.
    run: Vec<CalEntry<T>>,
    /// Entries placed at or before the cursor's slot since that promotion,
    /// earliest-first.
    cur: BinaryHeap<CalEntry<T>>,
    /// Entries beyond the wheel horizon, earliest-first.
    overflow: BinaryHeap<CalEntry<T>>,
    /// Level-0 slot number of the cursor (`time >> SLOT_BITS` units).
    cur_slot: u64,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel. Buckets and heaps grow on demand and stay
    /// allocated once touched.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS_PER_LEVEL).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            run: Vec::new(),
            cur: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur_slot: 0,
            len: 0,
        }
    }

    /// Inserts an entry. `seq` must be unique and increasing per insertion;
    /// ties on `time` pop in `seq` order (FIFO).
    ///
    /// `dead` is a liveness filter: any entry for which it returns `true`
    /// is silently dropped whenever a cascade or promotion touches it,
    /// instead of being carried toward delivery. Dropping is unobservable
    /// in the pop sequence (the caller would have discarded the entry at
    /// the head anyway), but on cancellation-heavy schedules it keeps dead
    /// timers from cascading through every level and being sorted into
    /// the current slot.
    pub fn push_reap(
        &mut self,
        time: Time,
        seq: u64,
        payload: T,
        dead: &mut dyn FnMut(&T) -> bool,
    ) {
        self.place(CalEntry { time, seq, payload });
        self.len += 1;
        if self.run.is_empty() && self.cur.is_empty() {
            self.advance(dead);
        }
    }

    /// Removes and returns the earliest `(time, seq)` entry, under the
    /// liveness filter of [`push_reap`](Self::push_reap). The returned
    /// entry itself is *not* filtered — entries already promoted into the
    /// current slot are delivered and discarded by the caller — only the
    /// cascade work this pop triggers.
    pub fn pop_reap(&mut self, dead: &mut dyn FnMut(&T) -> bool) -> Option<(Time, u64, T)> {
        let e = if self.run_is_next() {
            self.run.pop()
        } else {
            self.cur.pop()
        }?;
        self.len -= 1;
        if self.run.is_empty() && self.cur.is_empty() && self.len > 0 {
            self.advance(dead);
        }
        Some((e.time, e.seq, e.payload))
    }

    /// The earliest entry without removing it.
    ///
    /// O(1): normalisation guarantees the global minimum is the back of
    /// the sorted run or the head of the side heap.
    pub fn peek(&self) -> Option<(Time, u64, &T)> {
        let e = if self.run_is_next() {
            self.run.last()
        } else {
            self.cur.peek()
        }?;
        Some((e.time, e.seq, &e.payload))
    }

    /// True when the next pop comes off the sorted run rather than the
    /// side heap. `CalEntry`'s order is reversed (earliest is greatest).
    fn run_is_next(&self) -> bool {
        match (self.run.last(), self.cur.peek()) {
            (Some(r), Some(h)) => r > h,
            (r, _) => r.is_some(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Routes one entry to the current slot's side heap, a wheel level, or
    /// the overflow heap, relative to the current cursor. Does not touch
    /// `len`.
    fn place(&mut self, e: CalEntry<T>) {
        let s0 = e.time.as_nanos() >> SLOT_BITS;
        if s0 <= self.cur_slot {
            self.cur.push(e);
            return;
        }
        // Highest bit where the slot numbers differ picks the level: the
        // entry shares all coarser slot digits with the cursor, so it lands
        // in the cursor's current block at that level.
        // lint:allow(panic-path): divisor is the non-zero LEVEL_BITS const.
        let lvl = ((63 - (s0 ^ self.cur_slot).leading_zeros()) / LEVEL_BITS) as usize;
        if lvl >= LEVELS {
            self.overflow.push(e);
        } else {
            let idx = ((s0 >> (LEVEL_BITS * lvl as u32)) & 63) as usize;
            // lint:allow(panic-path): lvl < LEVELS checked above; idx is
            // masked to < 64 = SLOTS_PER_LEVEL.
            self.occ[lvl] |= 1u64 << idx;
            // lint:allow(panic-path): same bounds as the occ update.
            self.slots[lvl * SLOTS_PER_LEVEL + idx].push(e);
        }
    }

    /// Lowest occupied slot index strictly after `rel` in `mask`, if any.
    fn next_occupied(mask: u64, rel: u32) -> Option<u32> {
        if rel >= 63 {
            return None;
        }
        let m = mask & (!0u64 << (rel + 1));
        (m != 0).then(|| m.trailing_zeros())
    }

    /// Advances the cursor until the current slot holds an entry,
    /// cascading coarser levels (and the overflow heap) down as needed.
    /// Entries flagged by `dead` are dropped at the first touch instead of
    /// being re-placed or promoted.
    ///
    /// Precondition: `run` and `cur` are empty (no-op when the wheel is
    /// empty).
    fn advance(&mut self, dead: &mut dyn FnMut(&T) -> bool) {
        loop {
            if !self.run.is_empty() || !self.cur.is_empty() || self.len == 0 {
                return;
            }
            // Next occupied level-0 slot in the cursor's block: promote it.
            let rel0 = (self.cur_slot & 63) as u32;
            // lint:allow(panic-path): occ is [u64; LEVELS] with LEVELS > 0;
            // index 0 is a constant within bounds.
            if let Some(idx) = Self::next_occupied(self.occ[0], rel0) {
                self.cur_slot = (self.cur_slot & !63) + u64::from(idx);
                // lint:allow(panic-path): constant index 0 < LEVELS.
                self.occ[0] &= !(1u64 << idx);
                // lint:allow(panic-path): idx is a bit position in a u64
                // mask, so < 64 = SLOTS_PER_LEVEL.
                let mut bucket = std::mem::take(&mut self.slots[idx as usize]);
                let before = bucket.len();
                bucket.retain(|e| !dead(&e.payload));
                self.len -= before - bucket.len();
                // One in-place sort instead of a heapify plus a sift per
                // pop: `(time, seq)` keys are unique, so the unstable sort
                // has exactly one result. The spent run buffer is recycled
                // into the promoted slot: without the swap-back every
                // promotion dropped one grown buffer and left a
                // zero-capacity slot behind, so each slot re-grew through
                // the same doubling sequence on every wheel rotation (the
                // dominant steady-state allocation source).
                bucket.sort_unstable();
                // lint:allow(panic-path): same idx bound as the take above.
                self.slots[idx as usize] = std::mem::replace(&mut self.run, bucket);
                // If the whole bucket was dead, keep advancing.
                continue;
            }
            // Level 0 exhausted: cascade the earliest occupied slot of the
            // lowest occupied level. Every entry there precedes everything
            // at coarser levels, because blocks are 64-aligned.
            let mut cascaded = false;
            for lvl in 1..LEVELS {
                let shift = LEVEL_BITS * lvl as u32;
                let cursor_l = self.cur_slot >> shift;
                let rel = (cursor_l & 63) as u32;
                // lint:allow(panic-path): lvl ranges over 1..LEVELS, within
                // the [u64; LEVELS] occupancy array.
                if let Some(idx) = Self::next_occupied(self.occ[lvl], rel) {
                    // lint:allow(panic-path): lvl < LEVELS as above.
                    self.occ[lvl] &= !(1u64 << idx);
                    let slot_l = (cursor_l & !63) + u64::from(idx);
                    // Jump to the start of the cascaded slot: its entries
                    // re-place into strictly finer levels (or `cur`).
                    self.cur_slot = slot_l << shift;
                    // lint:allow(panic-path): lvl < LEVELS and idx < 64 (a
                    // u64 bit position), so the flat slot index is in range.
                    let flat = lvl * SLOTS_PER_LEVEL + idx as usize;
                    // Drain in place and hand the emptied buffer back to the
                    // slot: consuming the Vec here dropped its capacity, so
                    // the slot re-grew from zero on every later cascade.
                    // Re-placement cannot target this slot again (entries of
                    // a cascaded slot land at strictly finer levels, or in
                    // `cur`), so the restore never clobbers a re-place.
                    // lint:allow(panic-path): flat bounds proven above.
                    let mut bucket = std::mem::take(&mut self.slots[flat]);
                    for e in bucket.drain(..) {
                        if dead(&e.payload) {
                            self.len -= 1;
                        } else {
                            self.place(e);
                        }
                    }
                    // lint:allow(panic-path): flat bounds proven above.
                    self.slots[flat] = bucket;
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Wheel fully drained: pull the next top-level block out of the
            // overflow heap (all in-wheel levels are empty here).
            match self.overflow.peek() {
                None => return, // only dead entries remained and were dropped
                Some(head) => {
                    // Jump straight to the earliest entry's slot so it
                    // lands in `cur` when re-placed.
                    self.cur_slot = head.time.as_nanos() >> SLOT_BITS;
                }
            }
            let block = self.cur_slot >> WHEEL_BITS;
            while let Some(head) = self.overflow.peek() {
                if (head.time.as_nanos() >> SLOT_BITS) >> WHEEL_BITS != block {
                    break;
                }
                let e = self.overflow.pop().expect("peeked entry exists");
                if dead(&e.payload) {
                    self.len -= 1;
                } else {
                    self.place(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    /// The calendar with every entry live: what the reaping calls reduce
    /// to when nothing is cancelled.
    fn push<T>(w: &mut TimingWheel<T>, time: Time, seq: u64, payload: T) {
        w.push_reap(time, seq, payload, &mut |_| false);
    }

    fn pop<T>(w: &mut TimingWheel<T>) -> Option<(Time, u64, T)> {
        w.pop_reap(&mut |_| false)
    }

    fn drain<T>(w: &mut TimingWheel<T>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| pop(w).map(|(t, s, _)| (t.as_nanos(), s))).collect()
    }

    #[test]
    fn single_slot_fifo() {
        let mut w = TimingWheel::new();
        for i in 0..10u64 {
            push(&mut w, Time::from_nanos(500), i, ());
        }
        let order = drain(&mut w);
        assert_eq!(order, (0..10).map(|i| (500, i)).collect::<Vec<_>>());
    }

    #[test]
    fn cross_level_ordering() {
        // One entry per level plus overflow, pushed in reverse order.
        let times = [
            1u64 << 40,            // overflow (beyond 2^34 ns horizon)
            1 << (SLOT_BITS + 20), // level 3
            1 << (SLOT_BITS + 14), // level 2
            1 << (SLOT_BITS + 8),  // level 1
            1 << SLOT_BITS,        // level 0
            5,                     // current slot
        ];
        let mut w = TimingWheel::new();
        for (i, &t) in times.iter().enumerate() {
            push(&mut w, Time::from_nanos(t), i as u64, ());
        }
        let order = drain(&mut w);
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(order, want);
    }

    #[test]
    fn push_behind_cursor_still_ordered() {
        // Normalisation runs the cursor ahead to slot(10_000); a later push
        // at t=200 (an earlier slot) must still pop first.
        let mut w = TimingWheel::new();
        push(&mut w, Time::from_nanos(10_000), 0, ());
        push(&mut w, Time::from_nanos(200), 1, ());
        assert_eq!(drain(&mut w), vec![(200, 1), (10_000, 0)]);
    }

    #[test]
    fn push_behind_the_run_tail_pops_first() {
        // Slot 1 (1024..2048 ns) is promoted into a sorted run when slot 0
        // drains; entries placed into it afterwards go to the side heap and
        // must still interleave with the run in (time, seq) order.
        let mut w = TimingWheel::new();
        push(&mut w, Time::from_nanos(5), 0, ());
        for (seq, t) in [(1, 1500), (2, 1100), (3, 1900), (4, 1500)] {
            push(&mut w, Time::from_nanos(t), seq, ());
        }
        assert_eq!(pop(&mut w).map(|(t, s, _)| (t.as_nanos(), s)), Some((5, 0)));
        assert_eq!(w.run.len(), 4, "slot 1 promoted into the run");
        // Earlier than the run tail, equal to a run entry (FIFO by seq: it
        // follows both 1500s already there), later than the run head, and
        // earlier than the cursor's slot altogether.
        for (seq, t) in [(5, 1050), (6, 1500), (7, 1950), (8, 900)] {
            push(&mut w, Time::from_nanos(t), seq, ());
        }
        assert_eq!(w.cur.len(), 4, "late arrivals wait in the side heap");
        assert_eq!(w.peek().map(|(t, s, _)| (t.as_nanos(), s)), Some((900, 8)));
        assert_eq!(
            drain(&mut w),
            vec![
                (900, 8),
                (1050, 5),
                (1100, 2),
                (1500, 1),
                (1500, 4),
                (1500, 6),
                (1900, 3),
                (1950, 7),
            ]
        );
    }

    #[test]
    fn promoted_bucket_capacity_returns_to_its_slot() {
        // Regression: a promotion that drops the spent current-slot buffer
        // leaves a zero-capacity slot behind, and every slot re-grows on
        // every wheel rotation (`tests/alloc_free_datapath.rs` counts it).
        let mut w = TimingWheel::new();
        push(&mut w, Time::from_nanos(5), 0, ()); // holds the cursor at slot 0
        for i in 1..=100u64 {
            push(&mut w, Time::from_nanos((1 << SLOT_BITS) + i), i, ());
        }
        push(&mut w, Time::from_nanos(2 << SLOT_BITS), 101, ());
        let grown = w.slots[1].capacity();
        assert!(grown >= 100);
        // Leaving slot 0 promotes slot 1's bucket, buffer and all.
        pop(&mut w);
        assert_eq!((w.cur_slot, w.run.capacity()), (1, grown));
        // Draining it promotes slot 2, which receives the spent buffer.
        for _ in 0..100 {
            pop(&mut w);
        }
        assert_eq!(w.cur_slot, 2);
        assert_eq!(w.slots[2].capacity(), grown, "spent run buffer dropped");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Deterministic pseudo-random interleaving, wheel vs. reference heap.
        let mut w = TimingWheel::new();
        let mut h: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = |range: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % range
        };
        let mut seq = 0u64;
        let mut last = 0u64;
        for _ in 0..5_000 {
            if next(3) < 2 {
                // Mix of near-future, far-future and same-instant times.
                let dt = match next(4) {
                    0 => 0,
                    1 => next(1 << 12),
                    2 => next(1 << 20),
                    _ => next(1 << 36),
                };
                let t = Time::from_nanos(last + dt);
                push(&mut w, t, seq, ());
                h.push(Reverse((t, seq)));
                seq += 1;
            } else {
                let a = pop(&mut w).map(|(t, s, _)| (t, s));
                let b = h.pop().map(|Reverse(e)| e);
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    last = t.as_nanos();
                }
            }
            assert_eq!(w.len(), h.len());
            assert_eq!(
                w.peek().map(|(t, s, _)| (t, s)),
                h.peek().map(|&Reverse(e)| e)
            );
        }
        loop {
            let a = pop(&mut w).map(|(t, s, _)| (t, s));
            let b = h.pop().map(|Reverse(e)| e);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn far_future_overflow_roundtrip() {
        let mut w = TimingWheel::new();
        push(&mut w, Time::from_nanos(u64::MAX - 1), 0, "far");
        push(&mut w, Time::from_nanos(3), 1, "near");
        assert_eq!(pop(&mut w).map(|(_, _, p)| p), Some("near"));
        assert_eq!(pop(&mut w).map(|(_, _, p)| p), Some("far"));
        assert!(pop(&mut w).is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn empty_wheel_behaviour() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(w.peek().is_none());
        assert!(pop(&mut w).is_none());
    }
}
