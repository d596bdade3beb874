//! Property tests for the deterministic event calendar.
//!
//! The calendar's contract (DESIGN.md "Determinism & invariants"): pops are
//! totally ordered by `(time, insertion order)` — time never goes backwards,
//! and events scheduled for the same instant fire in FIFO order. Both the
//! batch and the interleaved schedule/pop paths must uphold it.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use flexpass_simcore::event::EventQueue;
use flexpass_simcore::time::{Time, TimeDelta};
use flexpass_simcore::wheel::SLOT_BITS;
use flexpass_simcore::TimerHandle;
use proptest::prelude::*;

/// Reference model for the differential test: the calendar as one binary
/// heap over `(time, insertion seq)` with cancellation as a set lookup at
/// pop. The payload of every entry is its own sequence number, which also
/// serves as the cancellation handle.
#[derive(Default)]
struct RefCalendar {
    /// `(time, seq, cancellable)`, earliest first.
    heap: BinaryHeap<Reverse<(Time, u64, bool)>>,
    /// Cancellable entries neither fired nor cancelled yet.
    pending: BTreeSet<u64>,
    next_seq: u64,
    popped: u64,
}

impl RefCalendar {
    fn schedule(&mut self, time: Time, cancellable: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq, cancellable)));
        if cancellable {
            self.pending.insert(seq);
        }
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        self.pending.remove(&seq)
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        loop {
            let Reverse((time, seq, cancellable)) = self.heap.pop()?;
            if cancellable && !self.pending.remove(&seq) {
                continue;
            }
            self.popped += 1;
            return Some((time, seq));
        }
    }
}

/// The calendar and the reference model driven in lock step: every
/// schedule, cancellation and pop goes to both, and every observable they
/// return is compared on the spot.
#[derive(Default)]
struct Pair {
    wheel: EventQueue<u64>,
    heap: RefCalendar,
    /// Outstanding cancellable timers as (queue handle, model seq) pairs,
    /// so a cancellation targets the same logical timer in both. Entries
    /// stay after their timer fires: cancelling those must fail in both.
    handles: Vec<(TimerHandle, u64)>,
    last_time: Time,
}

impl Pair {
    fn schedule(&mut self, dt: u64, cancellable: bool) {
        let at = self.last_time + TimeDelta::nanos(dt);
        let seq = self.heap.schedule(at, cancellable);
        if cancellable {
            self.handles
                .push((self.wheel.schedule_cancelable(at, seq), seq));
        } else {
            self.wheel.schedule(at, seq);
        }
    }

    fn cancel(&mut self, i: usize) {
        if !self.handles.is_empty() {
            let (h, seq) = self.handles.swap_remove(i % self.handles.len());
            assert_eq!(
                self.wheel.cancel(h),
                self.heap.cancel(seq),
                "calendar disagreed with the heap on cancel result"
            );
        }
    }

    fn pop(&mut self) -> bool {
        let a = self.wheel.pop();
        assert_eq!(a, self.heap.pop(), "calendar diverged from the heap on pop");
        if let Some((t, _)) = a {
            assert!(t >= self.last_time, "time went backwards");
            self.last_time = t;
        }
        a.is_some()
    }

    /// Drains both to the end: the full residual sequence must match.
    fn drain(mut self) {
        while self.pop() {}
        assert_eq!(self.wheel.popped(), self.heap.popped);
    }
}

/// One step of the randomized differential tape, decoded from a raw
/// `(kind, arg)` pair. Times are offsets from the last popped instant so
/// schedules never land in the past; an offset of 0 produces same-instant
/// ties, exercising the FIFO tie-break.
#[derive(Debug, Clone)]
enum Op {
    Pop,
    Schedule(u64),
    ScheduleCancelable(u64),
    /// Cancel the pending handle at (index % live handles), if any.
    Cancel(usize),
}

fn decode(kind: u8, arg: u64) -> Op {
    match kind % 7 {
        0 | 1 => Op::Pop,
        // Mix short offsets (dense ties, same-slot collisions) with long
        // ones that reach every wheel level and the overflow heap.
        2 => Op::Schedule(arg % 2_000_000),
        3 => Op::Schedule(arg % (1 << 36)),
        4 | 5 => Op::ScheduleCancelable(arg % 2_000_000),
        _ => Op::Cancel(arg as usize),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pop_order_is_total_monotone_and_fifo_stable(
        times in prop::collection::vec(0u64..50, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards: {:?}", w);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie broke out of FIFO order: {:?}", w);
            }
        }
        // The pop order is exactly a stable sort of insertions by time.
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(popped, expect);
    }

    #[test]
    fn interleaved_schedule_pop_stays_monotone(
        ops in prop::collection::vec(0u64..20, 1..200),
    ) {
        // op == 0 pops; op > 0 schedules at (last popped time + op - 1), so
        // schedules never land in the past and ties (op == 1) are common.
        let mut q = EventQueue::new();
        let mut last = 0u64;
        let mut n = 0usize;
        for &op in &ops {
            if op == 0 {
                if let Some((t, _)) = q.pop() {
                    prop_assert!(t.as_nanos() >= last);
                    last = t.as_nanos();
                }
            } else {
                q.schedule(Time::from_nanos(last + op - 1), n);
                n += 1;
            }
        }
        while let Some((t, _)) = q.pop() {
            prop_assert!(t.as_nanos() >= last);
            last = t.as_nanos();
        }
    }

    /// Differential check: the calendar is observably a binary heap over
    /// `(time, insertion order)`. Any interleaving of schedules, pops and
    /// cancellations — including same-instant ties and cancel-then-pop races
    /// (lazy deletion) — must yield the identical `(time, payload)` pop
    /// sequence from `EventQueue` and from the reference model.
    #[test]
    fn wheel_and_heap_pop_identically_under_cancellation(
        tape in prop::collection::vec((0u8..=255, 0u64..u64::MAX), 1..300),
    ) {
        let mut pair = Pair::default();
        for (kind, arg) in tape {
            match decode(kind, arg) {
                Op::Pop => {
                    pair.pop();
                }
                Op::Schedule(dt) => pair.schedule(dt, false),
                Op::ScheduleCancelable(dt) => pair.schedule(dt, true),
                Op::Cancel(i) => pair.cancel(i),
            }
        }
        pair.drain();
    }

    /// The same differential check aimed at the current slot's sorted run.
    /// Each round parks a bucket of entries in one level-0 slot ahead of the
    /// cursor, pops into it — the calendar sorts the bucket into its run —
    /// and then, with the run part-drained, schedules more entries around
    /// it: at the instant just popped, before the run's next entry, after
    /// it, and past the slot's end. Those cannot join the sorted run; they
    /// must still interleave with it in `(time, seq)` order. Cancellations
    /// hit entries inside the run, entries beside it and timers that have
    /// already fired.
    #[test]
    fn pushes_into_a_part_drained_run_pop_in_order(
        rounds in prop::collection::vec(
            (
                prop::collection::vec((0u64..(1 << SLOT_BITS), any::<bool>()), 4..40),
                0usize..40,
                prop::collection::vec((0u64..(3 << (SLOT_BITS - 1)), any::<bool>()), 0..12),
                prop::collection::vec(any::<usize>(), 0..8),
                0usize..20,
            ),
            1..12,
        ),
    ) {
        let mut pair = Pair::default();
        for (bucket, pops, around, cancels, more_pops) in rounds {
            // An entry at the current instant keeps the cursor where it is
            // while the bucket fills two slots ahead.
            pair.schedule(0, false);
            let now = pair.last_time.as_nanos();
            let slot_start = ((now >> SLOT_BITS) + 2) << SLOT_BITS;
            for (offset, cancellable) in bucket {
                pair.schedule(slot_start + offset - now, cancellable);
            }
            for _ in 0..=pops {
                pair.pop();
            }
            for (dt, cancellable) in around {
                pair.schedule(dt, cancellable);
            }
            for i in cancels {
                pair.cancel(i);
            }
            for _ in 0..more_pops {
                pair.pop();
            }
        }
        pair.drain();
    }
}
