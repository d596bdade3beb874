//! Deterministic event calendar.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is the
//! global insertion order. This makes the simulation fully deterministic:
//! two events scheduled for the same instant fire in the order they were
//! scheduled, independent of calendar internals.
//!
//! The calendar is a hierarchical [`TimingWheel`] (see [`crate::wheel`])
//! for O(1) near-future scheduling. `tests/event_properties.rs` pins it
//! differentially against a plain binary heap over `(time, seq)`.
//!
//! On top of the plain calendar sits a cancellable timer layer:
//! [`EventQueue::schedule_cancelable`] returns a generation-tagged
//! [`TimerHandle`]; [`EventQueue::cancel`] invalidates it in O(1) and the
//! dead entry is lazily discarded — at the latest when it reaches the head
//! of the calendar, or earlier when a wheel cascade touches it (dead
//! entries are dropped instead of re-placed, so cancellation-heavy loads
//! never carry them through the levels).
//! Cancelled entries are invisible to every observable: they are never
//! returned, never advance `now()`, never count as `popped()`, and never
//! reach the audit hooks — so a run with cancellations pops the same
//! delivered sequence as if the cancelled events had never been scheduled.
//!
//! A pending timer whose deadline only moves later (an RTO pushed back by
//! every ACK) keeps its one calendar entry ([`EventQueue::rearm_later`]):
//! the re-arm draws the sequence number a fresh schedule would and records
//! the new `(time, seq)` as the timer's *due key* in the slab. An entry
//! that pops under another key than its timer's due key is pushed back
//! under the due key, as unseen as a dead entry, so the delivered sequence
//! is that of a cancel plus a schedule.
//!
//! A pending timer may be *muted* ([`EventQueue::mute`]): its owner promises
//! that the next pops would only re-arm it one period later. The calendar
//! then keeps that promise itself. A muted pop counts, advances `now()` and
//! reaches the hooks like any pop; the entry goes back `period` later under
//! the same handle with the next sequence number — the `(time, seq)` the
//! owner's own re-arm would have drawn — and [`EventQueue::step`] returns
//! the step without a payload. Re-armed entries wait on a FIFO lane beside
//! the wheel: all mutes share one period, so a lane filled in pop order is
//! sorted as it stands, and a re-arm costs a push, not a wheel placement
//! and a sort.

use std::collections::VecDeque;
use std::num::NonZeroU32;

use crate::time::{Time, TimeDelta};
use crate::wheel::TimingWheel;

/// Identifies one armed cancellable timer.
///
/// The handle is a `(slot, generation)` pair into the queue's timer slab.
/// Slots are recycled, but each reuse bumps the generation, so a stale
/// handle (already fired or cancelled) cannot alias a newer timer until
/// its slot has been reused 2^31 times:
/// [`EventQueue::cancel`] and [`EventQueue::is_pending`] on it are no-ops.
///
/// Slot 0 of the slab is never handed out, so the slot number is non-zero
/// and `Option<TimerHandle>` costs the same 8 bytes as the handle: every
/// calendar entry carries one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle {
    slot: NonZeroU32,
    generation: u32,
}

impl TimerHandle {
    fn index(self) -> usize {
        self.slot.get() as usize
    }
}

/// In-calendar payload wrapper: cancellable entries carry their slab slot
/// so the pop path can check liveness and recycle the slot.
struct Scheduled<E> {
    payload: E,
    timer: Option<TimerHandle>,
}

/// The liveness word of one timer slab slot, in 4 bytes, since the
/// liveness check of every pop and cascade reads it and the slab holds a
/// slot per calendar entry of a cancellable timer, dead ones included: the
/// generation of the slot's timer in the low 31 bits, and [`MUTED`] on
/// top. The slot's due key lives beside it, in `EventQueue::due`.
#[derive(Clone, Copy, Default)]
struct TimerSlot(u32);

/// The slot's timer is muted. A slot's generation wraps after 2^31 reuses.
const MUTED: u32 = 1 << 31;

impl TimerSlot {
    fn generation(self) -> u32 {
        self.0 & !MUTED
    }

    /// An entry whose handle carries another generation is dead.
    fn is_dead(self, h: TimerHandle) -> bool {
        self.generation() != h.generation
    }

    fn is_muted(self) -> bool {
        self.0 & MUTED != 0
    }

    fn set_muted(&mut self, muted: bool) {
        self.0 = self.generation() | if muted { MUTED } else { 0 };
    }

    /// Ends the slot's current timer (it fired or was cancelled):
    /// outstanding handles go stale and the mute, if any, is dropped.
    fn retire(&mut self) {
        self.0 = self.generation().wrapping_add(1) & !MUTED;
    }
}

/// What a popped calendar entry does.
enum Fate {
    /// A cancelled leftover: discarded unseen.
    Dead,
    /// A timer re-armed later since the entry was placed: pushed back
    /// unseen under this due key.
    Moved(Time, u64),
    /// Its payload is returned.
    Deliver,
    /// A muted timer: placed again on the lane.
    Rearm,
}

/// Liveness filter for cascade-time reaping: flags cancelled entries so
/// the wheel drops them at the first cascade touch, recycling their slab
/// slot on the spot (the generation was already bumped by `cancel`).
/// Borrows the slab fields individually so the wheel can be borrowed
/// mutably alongside.
fn dead_filter<'a, E>(
    timers: &'a [TimerSlot],
    free: &'a mut Vec<NonZeroU32>,
) -> impl FnMut(&Scheduled<E>) -> bool + 'a {
    move |e| match e.timer {
        Some(h) if timers.get(h.index()).is_some_and(|t| t.is_dead(h)) => {
            free.push(h.slot);
            true
        }
        _ => false,
    }
}

/// A deterministic min-calendar of timestamped events.
///
/// # Examples
///
/// ```
/// use flexpass_simcore::event::EventQueue;
/// use flexpass_simcore::time::Time;
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_nanos(5), 'b');
/// q.schedule(Time::from_nanos(5), 'c');
/// q.schedule(Time::from_nanos(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
///
/// Cancellable timers:
///
/// ```
/// use flexpass_simcore::event::EventQueue;
/// use flexpass_simcore::time::Time;
///
/// let mut q = EventQueue::new();
/// let h = q.schedule_cancelable(Time::from_nanos(10), "rto");
/// q.schedule(Time::from_nanos(20), "later");
/// assert!(q.cancel(h));
/// assert!(!q.cancel(h)); // double-cancel is a no-op
/// assert_eq!(q.pop(), Some((Time::from_nanos(20), "later")));
/// ```
pub struct EventQueue<E> {
    wheel: TimingWheel<Scheduled<E>>,
    next_seq: u64,
    popped: u64,
    last_time: Time,
    /// Release-mode past-time schedules clamped up to `now` (satellite:
    /// observable instead of silent).
    clamped: u64,
    /// Successful [`cancel`](Self::cancel) calls.
    cancelled: u64,
    /// Pops of muted timers, which the calendar re-armed itself.
    rearmed: u64,
    /// Successful [`rearm_later`](Self::rearm_later) calls.
    deferred: u64,
    /// The timer slab. A calendar entry whose recorded generation no
    /// longer matches its slot's is dead and is skipped on pop. Slot 0 is a
    /// placeholder no handle refers to (see [`TimerHandle`]).
    timers: Vec<TimerSlot>,
    /// `due[i]`: the `(time, seq)` slot `i`'s pending timer fires under.
    /// Its calendar entry may sit under an earlier key after a
    /// [`rearm_later`](Self::rearm_later); kept beside `timers` so the
    /// liveness words the cascades scan stay dense.
    due: Vec<(Time, u64)>,
    /// The one period timers are muted with, set by the first mute (a
    /// simulation has one: its update period).
    mute_period: Option<TimeDelta>,
    /// The entries the calendar re-armed, as `(time, seq, entry)`. Filled in
    /// pop order with `(pop time + mute_period, next seq)`, the lane is
    /// sorted as it stands; the earliest entry of the calendar is the
    /// earlier of the wheel's head and the lane's front.
    lane: VecDeque<(Time, u64, Scheduled<E>)>,
    /// Slab slots whose calendar entry has drained and can be reused.
    free_slots: Vec<NonZeroU32>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar; it grows to what the run schedules.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
            next_seq: 0,
            popped: 0,
            last_time: Time::ZERO,
            clamped: 0,
            cancelled: 0,
            rearmed: 0,
            deferred: 0,
            timers: vec![TimerSlot::default()],
            due: vec![(Time::ZERO, 0)],
            mute_period: None,
            lane: VecDeque::new(),
            free_slots: Vec::new(),
        }
    }

    /// Schedules `payload` to fire at absolute instant `time`.
    ///
    /// Scheduling in the past (before the last popped event) is a logic error
    /// in the caller and panics in debug builds; in release builds the event
    /// fires "now" at the head of the queue, preserving monotonic pops, and
    /// the clamp is counted in [`clamped`](Self::clamped).
    pub fn schedule(&mut self, time: Time, payload: E) {
        self.schedule_entry(
            time,
            Scheduled {
                payload,
                timer: None,
            },
        );
    }

    /// Schedules `payload` like [`schedule`](Self::schedule), returning a
    /// [`TimerHandle`] that can [`cancel`](Self::cancel) the event before
    /// it fires. Costs one slab slot over a plain schedule; deletion is
    /// lazy (the entry is discarded when it reaches the calendar head).
    pub fn schedule_cancelable(&mut self, time: Time, payload: E) -> TimerHandle {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.timers.len())
                    .ok()
                    .and_then(NonZeroU32::new)
                    .expect("timer slab holds slot 0 and fewer than 2^32 slots");
                self.timers.push(TimerSlot::default());
                self.due.push((Time::ZERO, 0));
                s
            }
        };
        let generation = self
            .timers
            .get(slot.get() as usize)
            .expect("slab slot just allocated")
            .generation();
        let handle = TimerHandle { slot, generation };
        let key = self.schedule_entry(
            time,
            Scheduled {
                payload,
                timer: Some(handle),
            },
        );
        *self.due_mut(handle) = key;
        handle
    }

    /// Places `entry` under `time` (clamped to `now`) and the next
    /// sequence number, and returns that key.
    fn schedule_entry(&mut self, time: Time, entry: Scheduled<E>) -> (Time, u64) {
        debug_assert!(
            time >= self.last_time,
            "scheduled event at {time:?} before current time {:?}",
            self.last_time
        );
        flexpass_simhooks::on_event_schedule(time.as_nanos(), self.last_time.as_nanos());
        if time < self.last_time {
            self.clamped += 1;
        }
        let time = time.max(self.last_time);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.place(time, seq, entry);
        (time, seq)
    }

    /// Puts `entry` into the wheel under `(time, seq)`.
    fn place(&mut self, time: Time, seq: u64, entry: Scheduled<E>) {
        self.wheel.push_reap(
            time,
            seq,
            entry,
            &mut dead_filter(&self.timers, &mut self.free_slots),
        );
    }

    /// The due key of `handle`'s slab slot.
    fn due_mut(&mut self, handle: TimerHandle) -> &mut (Time, u64) {
        self.due
            .get_mut(handle.index())
            .expect("slab slot valid while its handle is outstanding")
    }

    /// Cancels a pending cancellable event. Returns `true` if the handle
    /// was still live; `false` (a no-op) if it already fired or was
    /// already cancelled. O(1): the calendar entry is discarded lazily.
    /// A mute on the handle ends with it.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        match self.live_slot(handle) {
            Some(t) => {
                t.retire();
                self.cancelled += 1;
                true
            }
            None => false,
        }
    }

    /// Moves the pending timer `handle` to `time` without a new calendar
    /// entry: observably a [`cancel`](Self::cancel) plus a
    /// [`schedule_cancelable`](Self::schedule_cancelable) of the same
    /// payload at `time`, except that the handle stays valid. The re-arm
    /// draws the sequence number that schedule would, so ties break as
    /// they would have. Returns `false`, and leaves the timer as it was,
    /// when the handle is not pending, the timer is muted, or `time` is
    /// earlier than its current deadline; the caller then cancels and
    /// schedules.
    pub fn rearm_later(&mut self, handle: TimerHandle, time: Time) -> bool {
        let unmuted = self.live_slot(handle).is_some_and(|t| !t.is_muted());
        if !unmuted || time < self.due_mut(handle).0 {
            return false;
        }
        flexpass_simhooks::on_event_schedule(time.as_nanos(), self.last_time.as_nanos());
        let seq = self.next_seq;
        self.next_seq += 1;
        *self.due_mut(handle) = (time, seq);
        self.deferred += 1;
        true
    }

    /// True while `handle`'s event is still scheduled (not yet fired or
    /// cancelled).
    pub fn is_pending(&self, handle: TimerHandle) -> bool {
        self.timers
            .get(handle.index())
            .is_some_and(|t| !t.is_dead(handle))
    }

    /// Mutes the pending timer `handle`: from its next pop on, the calendar
    /// re-arms it `period` later itself instead of returning its payload
    /// (see [`step`](Self::step)), until [`unmute`](Self::unmute) or
    /// [`cancel`](Self::cancel). The caller promises that delivering those
    /// pops would have done nothing but that re-arm. Returns `false`, and
    /// leaves the timer as it was, when the handle is no longer pending,
    /// `period` is zero, or it differs from the period of an earlier mute;
    /// refusing is always safe, as the owner then re-arms itself.
    pub fn mute(&mut self, handle: TimerHandle, period: TimeDelta) -> bool {
        if period == TimeDelta::ZERO || self.mute_period.is_some_and(|p| p != period) {
            return false;
        }
        let Some(t) = self.live_slot(handle) else {
            return false;
        };
        t.set_muted(true);
        self.mute_period = Some(period);
        true
    }

    /// Lifts a mute: the next pop of `handle` returns its payload again.
    /// Returns whether the handle is pending (a no-op otherwise).
    pub fn unmute(&mut self, handle: TimerHandle) -> bool {
        self.live_slot(handle).map(|t| t.set_muted(false)).is_some()
    }

    /// The slab slot `handle` names, while its timer is pending.
    fn live_slot(&mut self, handle: TimerHandle) -> Option<&mut TimerSlot> {
        self.timers
            .get_mut(handle.index())
            .filter(|t| !t.is_dead(handle))
    }

    /// What a popped entry does. A timer that fires, and a dead entry,
    /// give their slab slot back.
    fn settle(&mut self, time: Time, seq: u64, entry: &Scheduled<E>) -> Fate {
        let Some(h) = entry.timer else {
            return Fate::Deliver;
        };
        let t = self
            .timers
            .get_mut(h.index())
            .expect("slab slot valid while its handle is outstanding");
        if t.is_dead(h) {
            self.free_slots.push(h.slot);
            return Fate::Dead;
        }
        let due = *self
            .due
            .get(h.index())
            .expect("slab slot valid while its handle is outstanding");
        if due != (time, seq) {
            return Fate::Moved(due.0, due.1);
        }
        if t.is_muted() {
            return Fate::Rearm;
        }
        // Delivered: invalidate outstanding handles.
        t.retire();
        self.free_slots.push(h.slot);
        Fate::Deliver
    }

    /// Pops the earliest live event: `(time, Some(payload))`, or
    /// `(time, None)` for a muted timer, which the calendar has just put
    /// back one period later. Either way the step counts in
    /// [`popped`](Self::popped), advances `now()` and reaches the hooks.
    ///
    /// Cancelled entries encountered on the way are discarded, and entries
    /// of timers re-armed later put back under their due key, without any
    /// observable effect (no `popped` tick, no `now()` advance, no audit
    /// callback).
    pub fn step(&mut self) -> Option<(Time, Option<E>)> {
        loop {
            let (time, seq, entry) = self.pop_head()?;
            let fate = self.settle(time, seq, &entry);
            match fate {
                Fate::Dead => continue,
                Fate::Moved(due, due_seq) => {
                    self.place(due, due_seq, entry);
                    continue;
                }
                Fate::Deliver | Fate::Rearm => {}
            }
            self.popped += 1;
            self.last_time = time;
            flexpass_simhooks::on_event_pop(time.as_nanos(), seq);
            return Some(match fate {
                Fate::Rearm => {
                    self.rearm(time, entry);
                    (time, None)
                }
                _ => (time, Some(entry.payload)),
            });
        }
    }

    /// Removes the earliest calendar entry, dead or alive.
    fn pop_head(&mut self) -> Option<(Time, u64, Scheduled<E>)> {
        if self.lane_is_next() {
            self.lane.pop_front()
        } else {
            self.wheel
                .pop_reap(&mut dead_filter(&self.timers, &mut self.free_slots))
        }
    }

    /// True when the lane's front comes before the wheel's head.
    fn lane_is_next(&self) -> bool {
        match (self.lane.front(), self.wheel.peek()) {
            (Some(&(time, seq, _)), Some((t, s, _))) => (time, seq) < (t, s),
            (front, _) => front.is_some(),
        }
    }

    /// Puts a muted timer popped at `time` back on the lane, one period
    /// later under the next sequence number. Kept out of line: most pops
    /// deliver, and the pop loop stays as small as it was without mutes.
    #[inline(never)]
    fn rearm(&mut self, time: Time, entry: Scheduled<E>) {
        let at = time + self.mute_period.expect("a muted timer has a period");
        flexpass_simhooks::on_event_schedule(at.as_nanos(), self.last_time.as_nanos());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rearmed += 1;
        *self.due_mut(entry.timer.expect("a muted entry is a timer's")) = (at, seq);
        self.lane.push_back((at, seq, entry));
    }

    /// Removes and returns the earliest live event, if any: [`step`]
    /// without the muted re-arms, which it passes over (each still counts
    /// as a pop). A calendar holding a muted timer never drains, so code
    /// that mutes drives the calendar through [`step`].
    ///
    /// [`step`]: Self::step
    pub fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            if let (time, Some(payload)) = self.step()? {
                return Some((time, payload));
            }
        }
    }

    /// Timestamp of the earliest pending *live* event.
    ///
    /// Takes `&mut self` because cancelled leftovers at the calendar head
    /// are drained here, and entries of timers re-armed later put back —
    /// otherwise a stale timestamp could leak into `run_until`-style
    /// deadline checks.
    pub fn peek_time(&mut self) -> Option<Time> {
        loop {
            let (time, seq, entry) = if self.lane_is_next() {
                self.lane
                    .front()
                    .map(|(time, seq, entry)| (*time, *seq, entry))
                    .expect("the lane has a front")
            } else {
                self.wheel.peek()?
            };
            if !entry.timer.is_some_and(|h| self.is_stale(h, time, seq)) {
                return Some(time);
            }
            let (time, seq, entry) = self.pop_head().expect("peeked entry exists");
            match self.settle(time, seq, &entry) {
                Fate::Moved(due, due_seq) => self.place(due, due_seq, entry),
                fate => debug_assert!(matches!(fate, Fate::Dead)),
            }
        }
    }

    /// True when `handle`'s entry under `(time, seq)` is not the one to
    /// deliver: its timer was cancelled, or re-armed later.
    fn is_stale(&self, handle: TimerHandle, time: Time, seq: u64) -> bool {
        !self.is_pending(handle) || self.due.get(handle.index()) != Some(&(time, seq))
    }

    /// Number of pending calendar entries, *including* cancelled ones not
    /// yet lazily discarded.
    pub fn len(&self) -> usize {
        self.wheel.len() + self.lane.len()
    }

    /// True when no calendar entries are pending (live or cancelled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of live events popped so far (a cheap progress metric).
    /// Cancelled entries never count.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Timestamp of the most recently popped event (the current virtual time).
    pub fn now(&self) -> Time {
        self.last_time
    }

    /// Number of release-mode past-time schedules clamped up to `now`.
    /// Always 0 in a healthy run (debug builds panic instead).
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Number of successful [`cancel`](Self::cancel) calls so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Number of muted pops so far: steps without a payload, each of which
    /// re-armed its timer (see [`mute`](Self::mute)). They count in
    /// [`popped`](Self::popped) too.
    pub fn rearmed(&self) -> u64 {
        self.rearmed
    }

    /// Number of successful [`rearm_later`](Self::rearm_later) calls so
    /// far: re-arms that cost neither a cancel nor a calendar entry.
    pub fn deferred(&self) -> u64 {
        self.deferred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeDelta;

    /// Regression pin: a calendar entry around a 16-byte payload (the size
    /// of `simnet::sim::Event`) is 40 bytes — time, sequence, payload and
    /// an 8-byte optional timer handle. At 64 bytes (a 12-byte `Option`
    /// around a niche-less handle, a 32-byte event) every sort and sift
    /// moved a cache line per entry.
    #[test]
    fn calendar_entry_is_forty_bytes() {
        use crate::wheel::CalEntry;
        use std::mem::size_of;
        assert_eq!(size_of::<Option<TimerHandle>>(), 8);
        assert!(size_of::<CalEntry<Scheduled<[u64; 2]>>>() <= 40);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(30), 3);
        q.schedule(Time::from_nanos(10), 1);
        q.schedule(Time::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap(), (Time::from_nanos(10), 1));
        assert_eq!(q.pop().unwrap(), (Time::from_nanos(20), 2));
        assert_eq!(q.pop().unwrap(), (Time::from_nanos(30), 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time::from_nanos(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(10), "a");
        let (t, _) = q.pop().unwrap();
        q.schedule(t + TimeDelta::nanos(5), "b");
        q.schedule(t + TimeDelta::nanos(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.popped(), 3);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.schedule(Time::from_micros(3), ());
        q.pop();
        assert_eq!(q.now(), Time::from_micros(3));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.peek_time().is_none());
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(Time::from_nanos(10), "timer");
        q.schedule(Time::from_nanos(20), "event");
        assert!(q.is_pending(h));
        assert!(q.cancel(h));
        assert!(!q.is_pending(h));
        // The dead entry is skipped: neither pop nor peek ever sees it.
        assert_eq!(q.peek_time(), Some(Time::from_nanos(20)));
        assert_eq!(q.pop(), Some((Time::from_nanos(20), "event")));
        assert!(q.pop().is_none());
        assert_eq!(q.popped(), 1);
        assert_eq!(q.cancelled(), 1);
        // now() was never advanced by the cancelled entry's timestamp.
        assert_eq!(q.now(), Time::from_nanos(20));
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        let h = q.schedule_cancelable(Time::from_nanos(5), ());
        assert!(q.cancel(h));
        assert!(!q.cancel(h));
        assert_eq!(q.cancelled(), 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(Time::from_nanos(5), "t");
        assert_eq!(q.pop(), Some((Time::from_nanos(5), "t")));
        assert!(!q.is_pending(h));
        assert!(!q.cancel(h));
        assert_eq!(q.cancelled(), 0);
    }

    #[test]
    fn rearm_after_cancel_uses_fresh_generation() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_cancelable(Time::from_nanos(10), "first");
        assert!(q.cancel(h1));
        // Re-arm: may reuse the slab slot, but the old handle stays dead.
        let h2 = q.schedule_cancelable(Time::from_nanos(30), "second");
        assert_ne!(h1, h2);
        assert!(!q.is_pending(h1));
        assert!(q.is_pending(h2));
        assert!(!q.cancel(h1));
        assert_eq!(q.pop(), Some((Time::from_nanos(30), "second")));
        assert!(!q.is_pending(h2));
    }

    #[test]
    fn slot_reuse_after_fire_does_not_alias() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_cancelable(Time::from_nanos(1), 1);
        assert!(q.pop().is_some()); // h1 fires, slot recycled
        let h2 = q.schedule_cancelable(Time::from_nanos(2), 2);
        assert!(!q.cancel(h1)); // stale handle must not kill h2
        assert!(q.is_pending(h2));
        assert_eq!(q.pop(), Some((Time::from_nanos(2), 2)));
    }

    #[test]
    fn queue_of_only_cancelled_entries_is_effectively_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let hs: Vec<_> = (0..8)
            .map(|i| q.schedule_cancelable(Time::from_nanos(i), i as u32))
            .collect();
        for h in hs {
            assert!(q.cancel(h));
        }
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.popped(), 0);
        assert_eq!(q.now(), Time::ZERO);
    }

    #[test]
    fn muted_timer_rearms_itself_until_unmuted() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(Time::from_nanos(10), "tick");
        q.schedule(Time::from_nanos(25), "other");
        assert!(q.mute(h, TimeDelta::nanos(10)));
        // Pops at 10 and 20 are steps without a payload; the handle stays
        // pending across them, and the re-armed entry at 30 ties with
        // nothing scheduled before it.
        assert_eq!(q.step(), Some((Time::from_nanos(10), None)));
        assert_eq!(q.step(), Some((Time::from_nanos(20), None)));
        assert!(q.is_pending(h));
        assert_eq!(q.step(), Some((Time::from_nanos(25), Some("other"))));
        assert!(q.unmute(h));
        assert_eq!(q.pop(), Some((Time::from_nanos(30), "tick")));
        assert_eq!((q.popped(), q.rearmed()), (4, 2));
        // Fired: muting or unmuting the stale handle does nothing.
        assert!(!q.mute(h, TimeDelta::nanos(10)) && !q.unmute(h));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_and_slot_reuse_end_a_mute() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_cancelable(Time::from_nanos(10), 1);
        assert!(q.mute(h1, TimeDelta::nanos(5)));
        assert!(q.cancel(h1));
        assert!(q.peek_time().is_none()); // reaps h1's entry, freeing its slot
        let h2 = q.schedule_cancelable(Time::from_nanos(20), 2);
        assert_eq!(h1.slot, h2.slot);
        assert_eq!(q.step(), Some((Time::from_nanos(20), Some(2))));
        // A zero period is refused, and so is one other than the 5 ns the
        // calendar was first muted with.
        let h3 = q.schedule_cancelable(Time::from_nanos(30), 3);
        assert!(!q.mute(h3, TimeDelta::ZERO));
        assert!(!q.mute(h3, TimeDelta::nanos(3)));
        assert!(q.mute(h3, TimeDelta::nanos(5)));
        assert!(q.unmute(h3));
        assert_eq!(q.step(), Some((Time::from_nanos(30), Some(3))));
    }

    #[test]
    fn later_rearms_keep_one_calendar_entry() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(Time::from_nanos(10), "rto");
        for i in 1..=10_000 {
            assert!(q.rearm_later(h, Time::from_micros(i)));
        }
        assert_eq!((q.len(), q.cancelled(), q.deferred()), (1, 0, 10_000));
        assert_eq!(q.pop(), Some((Time::from_millis(10), "rto")));
        assert!(q.pop().is_none());
        assert_eq!(q.popped(), 1);
    }

    #[test]
    fn rearm_later_refuses_earlier_muted_and_stale_timers() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(Time::from_nanos(50), 1);
        q.schedule(Time::from_nanos(60), 2);
        assert!(!q.rearm_later(h, Time::from_nanos(49)));
        // A later deadline is taken, and so is an equal one; either ties
        // after the entry at 60 as a fresh schedule would.
        assert!(q.rearm_later(h, Time::from_nanos(60)));
        assert!(q.rearm_later(h, Time::from_nanos(60)));
        // The entry at 50 is put back unseen: peek and pop see 60.
        assert_eq!(q.peek_time(), Some(Time::from_nanos(60)));
        assert_eq!(q.now(), Time::ZERO);
        assert!(q.mute(h, TimeDelta::nanos(5)));
        assert!(!q.rearm_later(h, Time::from_nanos(70)));
        assert!(q.unmute(h));
        assert_eq!(q.pop(), Some((Time::from_nanos(60), 2)));
        assert_eq!(q.pop(), Some((Time::from_nanos(60), 1)));
        assert!(!q.rearm_later(h, Time::from_nanos(80)));
        assert_eq!((q.popped(), q.deferred(), q.len()), (2, 2, 0));
    }

    // Release-only: in debug builds a past-time schedule panics via
    // debug_assert before the clamp counter is reached.
    #[cfg(not(debug_assertions))]
    #[test]
    fn past_time_schedule_is_clamped_and_counted() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(100), "a");
        q.pop();
        q.schedule(Time::from_nanos(50), "late");
        assert_eq!(q.clamped(), 1);
        // The clamped event fires "now", preserving monotone pops.
        assert_eq!(q.pop(), Some((Time::from_nanos(100), "late")));
    }
}
