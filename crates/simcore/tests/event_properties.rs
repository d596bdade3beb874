//! Property tests for the deterministic event calendar.
//!
//! The calendar's contract (DESIGN.md "Determinism & invariants"): pops are
//! totally ordered by `(time, insertion order)` — time never goes backwards,
//! and events scheduled for the same instant fire in FIFO order. Both the
//! batch and the interleaved schedule/pop paths must uphold it, a muted
//! timer's pop re-arms it exactly as a re-schedule at that instant would,
//! and a timer moved later in place pops exactly as a cancel plus a
//! schedule would have.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use flexpass_simcore::event::EventQueue;
use flexpass_simcore::time::{Time, TimeDelta};
use flexpass_simcore::wheel::SLOT_BITS;
use flexpass_simcore::TimerHandle;
use proptest::prelude::*;

/// Reference model for the differential test: the calendar as one binary
/// heap over `(time, insertion seq)`. A cancellable entry is a timer,
/// identified by its index in `timers`; cancellation is a lookup at pop,
/// a muted timer is re-armed by hand when it pops, and a re-arm is a
/// cancel plus a schedule of the same payload. The payload of every entry
/// is the sequence number it was first scheduled under.
/// A reference entry: `(time, seq, payload, timer)`.
type RefEntry = (Time, u64, u64, Option<usize>);

#[derive(Default)]
struct RefCalendar {
    /// Earliest first.
    heap: BinaryHeap<Reverse<RefEntry>>,
    timers: Vec<RefTimer>,
    /// The period of the first successful mute.
    period: Option<TimeDelta>,
    next_seq: u64,
    popped: u64,
    rearmed: u64,
    /// The instant of the last pop.
    now: Time,
}

struct RefTimer {
    /// Sequence number of the timer's live entry; `None` once it fired or
    /// was cancelled.
    pending: Option<u64>,
    mute: Option<TimeDelta>,
    /// The time of the timer's latest entry.
    due: Time,
    payload: u64,
}

impl RefCalendar {
    /// Schedules an entry; returns its payload and, if cancellable, its
    /// timer.
    fn schedule(&mut self, time: Time, cancellable: bool) -> (u64, Option<usize>) {
        let payload = self.next_seq;
        (payload, self.push(time, payload, cancellable))
    }

    /// Schedules `payload` under the next sequence number; returns its
    /// timer if cancellable.
    fn push(&mut self, time: Time, payload: u64, cancellable: bool) -> Option<usize> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let timer = cancellable.then(|| {
            self.timers.push(RefTimer {
                pending: Some(seq),
                mute: None,
                due: time,
                payload,
            });
            self.timers.len() - 1
        });
        self.heap.push(Reverse((time, seq, payload, timer)));
        timer
    }

    /// Re-arms timer `id` at `time` as a cancel plus a schedule of its
    /// payload; returns the new timer and the cancel's result.
    fn rearm(&mut self, id: usize, time: Time) -> (usize, bool) {
        let was_pending = self.cancel(id);
        let payload = self.timers[id].payload;
        let new = self.push(time, payload, true).expect("a timer");
        (new, was_pending)
    }

    fn cancel(&mut self, id: usize) -> bool {
        let t = &mut self.timers[id];
        t.mute = None;
        t.pending.take().is_some()
    }

    /// The calendar's contract: a pending timer takes any non-zero period
    /// equal to the first one muted with; anything else is refused.
    fn mute(&mut self, id: usize, period: TimeDelta) -> bool {
        if self.timers[id].pending.is_none() || period == TimeDelta::ZERO {
            return false;
        }
        if *self.period.get_or_insert(period) != period {
            return false;
        }
        self.timers[id].mute = Some(period);
        true
    }

    fn unmute(&mut self, id: usize) -> bool {
        let t = &mut self.timers[id];
        t.mute = None;
        t.pending.is_some()
    }

    fn is_live(&self, seq: u64, timer: Option<usize>) -> bool {
        timer.is_none_or(|id| self.timers[id].pending == Some(seq))
    }

    /// The earliest live entry.
    fn head(&self) -> Option<&RefEntry> {
        self.heap
            .iter()
            .map(|Reverse(e)| e)
            .filter(|(_, seq, _, timer)| self.is_live(*seq, *timer))
            .min()
    }

    /// The timer whose entry is the earliest live one, if that entry is a
    /// timer's.
    fn head_timer(&self) -> Option<usize> {
        self.head().and_then(|e| e.3)
    }

    fn step(&mut self) -> Option<(Time, Option<u64>)> {
        loop {
            let Reverse((time, seq, payload, timer)) = self.heap.pop()?;
            if !self.is_live(seq, timer) {
                continue;
            }
            self.popped += 1;
            if let Some(id) = timer {
                if let Some(period) = self.timers[id].mute {
                    self.rearmed += 1;
                    let rearm = self.next_seq;
                    self.next_seq += 1;
                    self.timers[id].pending = Some(rearm);
                    self.timers[id].due = time + period;
                    self.heap
                        .push(Reverse((time + period, rearm, payload, timer)));
                    self.now = time;
                    return Some((time, None));
                }
                self.timers[id].pending = None;
            }
            self.now = time;
            return Some((time, Some(payload)));
        }
    }
}

/// The calendar and the reference model driven in lock step: every
/// schedule, cancellation, mute and pop goes to both, and every
/// observable they return is compared on the spot.
#[derive(Default)]
struct Pair {
    wheel: EventQueue<u64>,
    heap: RefCalendar,
    /// Outstanding cancellable timers as (queue handle, model timer)
    /// pairs, so a cancellation or a mute targets the same logical timer
    /// in both. Entries stay after their timer fires: cancelling or muting
    /// those must fail in both.
    handles: Vec<(TimerHandle, usize)>,
    last_time: Time,
    /// Re-arms the calendar took in place.
    deferred: u64,
}

impl Pair {
    fn schedule(&mut self, dt: u64, cancellable: bool) {
        let at = self.last_time + TimeDelta::nanos(dt);
        let (payload, timer) = self.heap.schedule(at, cancellable);
        match timer {
            Some(id) => self
                .handles
                .push((self.wheel.schedule_cancelable(at, payload), id)),
            None => self.wheel.schedule(at, payload),
        }
    }

    fn cancel(&mut self, i: usize) {
        if !self.handles.is_empty() {
            let (h, id) = self.handles.swap_remove(i % self.handles.len());
            assert_eq!(
                self.wheel.cancel(h),
                self.heap.cancel(id),
                "calendar disagreed with the heap on cancel result"
            );
        }
    }

    fn mute(&mut self, i: usize, period: Option<TimeDelta>) {
        if let Some(&(h, id)) = self.handles.get(i % self.handles.len().max(1)) {
            let (a, b) = match period {
                Some(p) => (self.wheel.mute(h, p), self.heap.mute(id, p)),
                None => (self.wheel.unmute(h), self.heap.unmute(id)),
            };
            assert_eq!(a, b, "calendar disagreed with the heap on (un)mute result");
        }
    }

    /// Mutes the timer at the head of the calendar, if the head is one.
    fn mute_head(&mut self, period: TimeDelta) {
        if let Some(&(h, id)) = self.head_handle() {
            assert!(self.wheel.is_pending(h), "head timer not pending");
            assert_eq!(self.wheel.mute(h, period), self.heap.mute(id, period));
        }
    }

    /// The handle pair of the timer at the head of the calendar, if the
    /// head is one.
    fn head_handle(&self) -> Option<&(TimerHandle, usize)> {
        let head = self.heap.head_timer();
        self.handles.iter().find(|e| Some(e.1) == head)
    }

    /// Re-arms the handle at (index % handles) `offset` ns from its
    /// latest deadline (no earlier than now), pending or not.
    fn rearm(&mut self, i: usize, offset: i64) {
        if !self.handles.is_empty() {
            self.rearm_at(i % self.handles.len(), offset);
        }
    }

    /// [`rearm`](Self::rearm) aimed at the calendar's head timer.
    fn rearm_head(&mut self, offset: i64) {
        let head = self.head_handle().copied();
        if let Some(k) = head.and_then(|e| self.handles.iter().position(|&f| f == e)) {
            self.rearm_at(k, offset);
        }
    }

    /// The queue side as `Host::settle` drives it: `rearm_later`, and
    /// when that refuses, a cancel plus a fresh `schedule_cancelable`. The
    /// calendar must take the re-arm in place exactly when the timer is
    /// pending, unmuted and not moved earlier.
    fn rearm_at(&mut self, k: usize, offset: i64) {
        let (h, id) = self.handles[k];
        let (due, payload) = (self.heap.timers[id].due, self.heap.timers[id].payload);
        let at = Time::from_nanos(due.as_nanos().saturating_add_signed(offset)).max(self.last_time);
        let in_place = self.heap.timers[id].pending.is_some()
            && self.heap.timers[id].mute.is_none()
            && at >= due;
        let (new_id, was_pending) = self.heap.rearm(id, at);
        let h = if self.wheel.rearm_later(h, at) {
            assert!(in_place, "calendar moved a timer it must refuse");
            self.deferred += 1;
            h
        } else {
            assert!(!in_place, "calendar refused a later re-arm");
            assert_eq!(
                self.wheel.cancel(h),
                was_pending,
                "cancel result after refusal"
            );
            self.wheel.schedule_cancelable(at, payload)
        };
        self.handles[k] = (h, new_id);
    }

    /// Peeks at the next event's time, then steps.
    fn pop(&mut self) -> bool {
        assert_eq!(
            self.wheel.peek_time(),
            self.heap.head().map(|e| e.0),
            "calendar disagreed with the heap on the next event's time"
        );
        assert_eq!(self.wheel.now(), self.heap.now, "peek moved the clock");
        self.step()
    }

    /// Steps without a peek first, so the step itself meets the stale
    /// entries at the head.
    fn step(&mut self) -> bool {
        let a = self.wheel.step();
        assert_eq!(
            a,
            self.heap.step(),
            "calendar diverged from the heap on pop"
        );
        assert_eq!(self.wheel.popped(), self.heap.popped, "pop counts differ");
        assert_eq!(self.wheel.now(), self.heap.now, "clocks differ");
        if let Some((t, _)) = a {
            assert!(t >= self.last_time, "time went backwards");
            self.last_time = t;
        }
        a.is_some()
    }

    /// Unmutes every timer, then drains both to the end: the full residual
    /// sequence must match.
    fn drain(mut self) {
        for i in 0..self.handles.len() {
            self.mute(i, None);
        }
        while self.pop() {}
        assert_eq!(self.wheel.popped(), self.heap.popped);
        assert_eq!(self.wheel.rearmed(), self.heap.rearmed);
        assert_eq!(self.wheel.deferred(), self.deferred);
    }
}

/// One step of the randomized differential tape, decoded from a raw
/// `(kind, arg)` pair. Times are offsets from the last popped instant so
/// schedules never land in the past; an offset of 0 produces same-instant
/// ties, exercising the FIFO tie-break.
#[derive(Debug, Clone)]
enum Op {
    Pop,
    /// A pop without the peek before it.
    Step,
    Schedule(u64),
    ScheduleCancelable(u64),
    /// Cancel the pending handle at (index % live handles), if any.
    Cancel(usize),
    /// Mute (`Some(period)`) or unmute (`None`) the handle at (index %
    /// handles), whether or not it is still pending.
    Mute(usize, Option<TimeDelta>),
    /// Mute the timer at the head of the calendar, if the head is one.
    MuteHead(TimeDelta),
    /// Re-arm the handle at (index % handles) this many ns from its
    /// latest deadline, whether or not it is still pending or muted.
    Rearm(usize, i64),
    /// Re-arm the timer at the head of the calendar, if the head is one.
    RearmHead(i64),
}

/// A mute period: mostly the test case's own (`base`, a few nanoseconds,
/// so re-arms tie with entries scheduled a few nanoseconds ahead),
/// sometimes zero or another one, which the calendar refuses.
fn period(base: u64, arg: u64) -> TimeDelta {
    TimeDelta::nanos(match arg % 16 {
        0 => 0,
        1 => 1 << 33,
        2 => base + 1,
        _ => base,
    })
}

/// A re-arm offset from the timer's deadline: as often equal, later
/// (near, or far enough to reach every wheel level) or earlier.
fn rearm_offset(arg: u64) -> i64 {
    let near = (arg % 2_000_000) as i64;
    match (arg >> 32) % 4 {
        0 => 0,
        1 => near,
        2 => (arg % (1 << 36)) as i64,
        _ => -near,
    }
}

fn decode(base: u64, kind: u8, arg: u64) -> Op {
    match kind % 15 {
        0 => Op::Pop,
        1 => Op::Step,
        // Mix short offsets (dense ties, same-slot collisions) with long
        // ones that reach every wheel level and the overflow heap.
        2 => Op::Schedule(arg % 2_000_000),
        3 => Op::Schedule(arg % (1 << 36)),
        4 => Op::Schedule(arg % 8),
        5 => Op::ScheduleCancelable(arg % 2_000_000),
        6 => Op::ScheduleCancelable(arg % 8),
        7 => Op::Cancel(arg as usize),
        8 => Op::Mute((arg >> 20) as usize, Some(period(base, arg))),
        9 => Op::Mute((arg >> 20) as usize, None),
        10 => Op::MuteHead(period(base, arg)),
        12 | 13 => Op::Rearm((arg >> 40) as usize, rearm_offset(arg)),
        14 => Op::RearmHead(rearm_offset(arg)),
        _ => Op::Pop,
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
    /// `(time, insertion order)`. Any interleaving of schedules, pops,
    /// cancellations, mutes and re-arms — including same-instant ties,
    /// cancel-then-pop races (lazy deletion), cancels of muted timers,
    /// mutes of stale handles and of the calendar's head, and re-arms to
    /// the same, a later or an earlier deadline of pending, muted, fired
    /// and head timers — must yield the identical `(time, payload)` step
    /// sequence (payload-less steps included), `peek_time`, `popped()` and
    /// `now()` from `EventQueue` and from the reference model, which
    /// re-arms a muted timer by hand and a re-armed one by cancel and
    /// schedule.
    #[test]
    fn wheel_and_heap_pop_identically_under_cancellation(
        tape in prop::collection::vec((0u8..=255, 0u64..u64::MAX), 1..300),
        base in 1u64..7,
    ) {
        let mut pair = Pair::default();
        for (kind, arg) in tape {
            match decode(base, kind, arg) {
                Op::Pop => {
                    pair.pop();
                }
                Op::Step => {
                    pair.step();
                }
                Op::Schedule(dt) => pair.schedule(dt, false),
                Op::ScheduleCancelable(dt) => pair.schedule(dt, true),
                Op::Cancel(i) => pair.cancel(i),
                Op::Mute(i, period) => pair.mute(i, period),
                Op::MuteHead(period) => pair.mute_head(period),
                Op::Rearm(i, offset) => pair.rearm(i, offset),
                Op::RearmHead(offset) => pair.rearm_head(offset),
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
