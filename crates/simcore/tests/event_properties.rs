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
        let ops: Vec<Op> = tape.into_iter().map(|(k, a)| decode(k, a)).collect();
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap = RefCalendar::default();
        // Outstanding cancellable timers as (queue handle, model seq) pairs,
        // so a cancellation targets the same logical timer in both.
        let mut handles = Vec::new();
        let mut last_time = Time::ZERO;
        for op in ops {
            match op {
                Op::Pop => {
                    let a = wheel.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b, "calendar diverged from the heap on pop");
                    if let Some((t, _)) = a {
                        prop_assert!(t >= last_time, "time went backwards");
                        last_time = t;
                    }
                }
                Op::Schedule(dt) => {
                    let at = last_time + TimeDelta::nanos(dt);
                    let seq = heap.schedule(at, false);
                    wheel.schedule(at, seq);
                }
                Op::ScheduleCancelable(dt) => {
                    let at = last_time + TimeDelta::nanos(dt);
                    let seq = heap.schedule(at, true);
                    handles.push((wheel.schedule_cancelable(at, seq), seq));
                }
                Op::Cancel(i) => {
                    if !handles.is_empty() {
                        let (h, seq) = handles.swap_remove(i % handles.len());
                        prop_assert_eq!(
                            wheel.cancel(h),
                            heap.cancel(seq),
                            "calendar disagreed with the heap on cancel result"
                        );
                    }
                }
            }
        }
        // Drain both to the end: the full residual sequence must match.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b, "calendar diverged from the heap on final drain");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.popped(), heap.popped);
    }
}
