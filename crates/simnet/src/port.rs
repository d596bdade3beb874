//! Egress port scheduling: strict priority levels, Deficit Weighted Round
//! Robin within a level, and token-bucket shaping.
//!
//! The FlexPass switch configuration (§4.1) is expressed as:
//!
//! * Q0 (credits): strict priority level 0, token-bucket shaped to
//!   `w_q × CREDIT_RATE_FULL_FRACTION` of line rate, tiny static buffer.
//! * Q1 (FlexPass data) and Q2 (legacy): priority level 1, DWRR with weights
//!   `w_q` and `1 − w_q`.
//!
//! The scheduler is work conserving: while the shaped credit queue waits for
//! tokens, lower-priority data queues are served; if *only* shaped traffic is
//! pending, the port reports the next token-eligibility instant so the
//! simulator can schedule a wake-up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::WireBytes;

use crate::arena::{PacketArena, PacketId};
use crate::consts::DATA_WIRE;
use crate::hooks;
use crate::queue::{DropReason, Enqueue, PacketQueue, QueueConfig};

/// Scheduling attributes of one queue within a port.
#[derive(Clone, Copy, Debug)]
pub struct QueueSched {
    /// Strict priority level; 0 is served first.
    pub level: u8,
    /// DWRR weight among queues of the same level (relative, not normalized).
    pub weight: f64,
    /// Optional token-bucket shaper (rate, burst). Only supported on
    /// queues that are alone at their priority level (the credit queue).
    pub shaper: Option<(Rate, WireBytes)>,
}

impl QueueSched {
    /// A strict-priority queue at `level` with no shaping.
    pub fn strict(level: u8) -> Self {
        QueueSched {
            level,
            weight: 1.0,
            shaper: None,
        }
    }

    /// A DWRR queue at `level` with the given weight.
    pub fn weighted(level: u8, weight: f64) -> Self {
        assert!(weight > 0.0, "DWRR weight must be positive");
        QueueSched {
            level,
            weight,
            shaper: None,
        }
    }

    /// Adds a token-bucket shaper.
    pub fn shaped(mut self, rate: Rate, burst: WireBytes) -> Self {
        self.shaper = Some((rate, burst));
        self
    }
}

/// Full configuration of a port: line rate plus per-queue policy + schedule.
#[derive(Clone, Debug)]
pub struct PortConfig {
    /// Line rate.
    pub rate: Rate,
    /// Per-queue configuration, in queue-index order.
    pub queues: Vec<(QueueConfig, QueueSched)>,
}

impl PortConfig {
    /// A single plain FIFO at line rate (simple reference ports).
    pub fn single_fifo(rate: Rate) -> Self {
        PortConfig {
            rate,
            queues: vec![(QueueConfig::plain(), QueueSched::strict(0))],
        }
    }
}

/// Bytes queued against one switch's shared buffer.
///
/// The count lives with the ports, not the switch: every port of a switch
/// holds the same pool, charges it when a dynamically thresholded
/// (uncapped) queue admits a packet and credits it when that queue is
/// served, so the count is exact for any caller of [`Port::enqueue`] and
/// [`Port::next_packet`], whether or not it goes through the switch.
///
/// The cell is an atomic only so that ports (and so the simulator) stay
/// `Send`. A switch and its ports are driven by one thread at a time, so
/// an update is a `Relaxed` load and a `Relaxed` store — two plain moves —
/// and not a `fetch_add`: a locked read-modify-write is a full fence, and
/// on every switch hop it would wait for the datapath's outstanding store
/// misses (arena slots, queue links) to drain, tying the cost of a hop to
/// memory latency at that moment.
#[derive(Debug, Default)]
pub(crate) struct BufferPool(AtomicU64);

impl BufferPool {
    /// Bytes currently queued against the pool.
    pub(crate) fn used(&self) -> WireBytes {
        WireBytes::new(self.0.load(Ordering::Relaxed))
    }

    fn charge(&self, bytes: WireBytes) {
        let used = self.0.load(Ordering::Relaxed);
        self.0
            .store(used.wrapping_add(bytes.get()), Ordering::Relaxed);
    }

    fn credit(&self, bytes: WireBytes) {
        let used = self.0.load(Ordering::Relaxed);
        self.0
            .store(used.wrapping_sub(bytes.get()), Ordering::Relaxed);
    }
}

/// What the scheduler decided on a service opportunity.
#[derive(Debug)]
pub enum Decision {
    /// Transmit this packet (already dequeued; ownership of the id passes
    /// to the caller, who releases it at delivery or drop).
    Send(PacketId),
    /// Nothing is eligible now, but a shaped queue becomes eligible at the
    /// given instant: wake the port then.
    WaitUntil(Time),
    /// No backlog at all.
    Idle,
}

/// Token-bucket units: one token is a "bit-nanosecond", the credit earned
/// by 1 bps over 1 ns. A byte costs `8 × 1e9` tokens.
const TOKENS_PER_BYTE: u128 = 8 * 1_000_000_000;

/// Token-bucket shaper with exact integer accounting.
///
/// Refilling over `dt` nanoseconds at `rate` bps adds `dt × rate` tokens;
/// transmitting `b` bytes spends `b ×` [`TOKENS_PER_BYTE`]. Keeping tokens
/// in bit-nanoseconds makes the bucket drift-free (no float rounding), so
/// `eligible_at` can compute the exact wake-up instant with one ceiling
/// division and repeated refill/spend cycles conserve credit bit-for-bit.
#[derive(Debug)]
struct Shaper {
    rate: Rate,
    burst: u128,
    tokens: u128,
    last: Time,
    hook_id: hooks::ComponentId,
}

impl Shaper {
    fn new(rate: Rate, burst: WireBytes) -> Self {
        let burst = u128::from(burst.get()) * TOKENS_PER_BYTE;
        Shaper {
            rate,
            burst,
            tokens: burst,
            last: Time::ZERO,
            hook_id: hooks::new_component_id(),
        }
    }

    /// Tokens needed to transmit `bytes`.
    fn need(bytes: WireBytes) -> u128 {
        u128::from(bytes.get()) * TOKENS_PER_BYTE
    }

    fn refill(&mut self, now: Time) {
        let dt = u128::from(now.saturating_since(self.last).as_nanos());
        self.tokens = (self.tokens + dt * u128::from(self.rate.as_bps())).min(self.burst);
        self.last = now;
        hooks::on_shaper_tokens(self.hook_id, self.tokens, self.burst);
    }

    /// Consumes `need` tokens; caller must have checked availability.
    fn spend(&mut self, need: u128) {
        debug_assert!(self.tokens >= need, "shaper overspend");
        self.tokens -= need;
        hooks::on_shaper_tokens(self.hook_id, self.tokens, self.burst);
    }

    fn eligible_at(&self, now: Time, need: u128) -> Time {
        if self.tokens >= need {
            return now;
        }
        if self.rate.as_bps() == 0 {
            return Time::MAX;
        }
        let deficit = need - self.tokens;
        let ns = deficit.div_ceil(u128::from(self.rate.as_bps()));
        now.saturating_add(TimeDelta::nanos(u64::try_from(ns).unwrap_or(u64::MAX)))
    }
}

/// Most queues a port can hold (Homa's eight strict queues are the widest
/// profile). Bounds the inline level and index tables of [`Port`].
pub const MAX_QUEUES: usize = 8;

/// One strict-priority level: a run of adjacent queues in [`Port`]'s
/// queue block, plus the DWRR pointer over them.
#[derive(Clone, Copy, Debug, Default)]
struct Level {
    /// Block position of the level's first queue.
    first: u8,
    /// Queues at this level, in configuration order.
    len: u8,
    /// Round-robin pointer, as an offset from `first`.
    pos: u8,
    /// Whether the queue under the pointer still needs its visit quantum.
    fresh: bool,
    /// The level's only queue has a token-bucket shaper.
    shaped: bool,
}

impl Level {
    /// Rotates the pointer to the next member and marks it fresh.
    fn advance(&mut self) {
        self.pos += 1;
        if self.pos >= self.len {
            self.pos = 0;
        }
        self.fresh = true;
    }
}

/// One queue of a port together with all of its scheduler state. Keeping
/// the pieces in a single struct (instead of parallel `Vec`s indexed by
/// queue id) means one bounds check per service decision and no way for
/// the arrays to fall out of sync.
///
/// `repr(C)` and the 64-byte alignment put the DWRR counters and the
/// queue's list ends and byte ledgers — all a service decision reads and
/// writes here, and what an admission touches first — in the entry's first
/// cache line; policy, counters, shaper and observer ids follow it.
#[derive(Debug)]
#[repr(C, align(64))]
struct QState {
    /// DWRR deficit counter, in wire bytes.
    deficit: f64,
    /// DWRR per-visit quantum, in wire bytes.
    quantum: f64,
    queue: PacketQueue,
    sched: QueueSched,
    shaper: Option<Shaper>,
}

// Regression pin: the DWRR counters plus the queue's list ends and byte
// ledgers must fit the entry's first cache line. A field added ahead of the
// queue's configuration, or a wider id, costs every service decision a
// second line per queue.
const _: () = assert!(std::mem::offset_of!(QState, queue) + PacketQueue::HOT_BYTES <= 64);

/// Per-port transmit counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortCounters {
    /// Packets transmitted.
    pub tx_pkts: u64,
    /// Wire bytes transmitted.
    pub tx_bytes: WireBytes,
}

/// An egress port: a set of queues plus the scheduler state, attached to a
/// simplex link towards `peer`.
///
/// The port owns one heap block, the queue entries, stored by strict level
/// (configuration order within a level) so a level is a contiguous range of
/// it. The level table, the map from configured queue index to block
/// position and the packet backlog are inline: an idle poll reads this
/// header alone, and a service decision reads it plus one cache line per
/// queue it inspects.
#[derive(Debug)]
pub struct Port {
    /// Line rate.
    pub rate: Rate,
    /// Peer node this port transmits to (set during topology wiring).
    pub peer: usize,
    /// Propagation delay of the attached link.
    pub prop: TimeDelta,
    /// End of the in-flight serialization, if transmitting.
    pub busy_until: Option<Time>,
    /// Earliest already-scheduled idle wake-up (dedup for shaper waits).
    pub pending_wake: Option<Time>,
    /// Packets queued across all queues.
    backlog: u32,
    n_levels: u8,
    /// Bit `i` set: the queue at block position `i` counts against `pool`.
    pooled: u8,
    levels: [Level; MAX_QUEUES],
    /// Block position of each configured queue index (`u8::MAX` past the
    /// last queue).
    slot_of: [u8; MAX_QUEUES],
    qs: Vec<QState>,
    /// The switch's shared-buffer pool, for the uncapped queues of switch
    /// ports.
    pool: Option<Arc<BufferPool>>,
    counters: PortCounters,
}

impl Port {
    /// Builds a port from its configuration. `peer`/`prop` are filled in by
    /// the topology wiring.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no queue or more than
    /// [`MAX_QUEUES`], or shapes a queue that shares its priority level.
    pub fn new(cfg: &PortConfig) -> Self {
        let n = cfg.queues.len();
        assert!(
            (1..=MAX_QUEUES).contains(&n),
            "port needs between 1 and {MAX_QUEUES} queues"
        );

        // Block order: by strict level, configuration order within a level.
        // A queue's position is the number of queues that sort before it.
        let level_of = |i: usize| cfg.queues.get(i).map_or(u8::MAX, |q| q.1.level);
        let mut slot_of = [u8::MAX; MAX_QUEUES];
        let mut order = [0usize; MAX_QUEUES];
        for (i, slot) in slot_of.iter_mut().enumerate().take(n) {
            let key = (level_of(i), i);
            let rank = (0..n).filter(|&j| (level_of(j), j) < key).count();
            *slot = rank as u8;
            *order.get_mut(rank).expect("rank below the queue count") = i;
        }
        let mut qs: Vec<QState> = order
            .iter()
            .take(n)
            .map(|&i| {
                let &(qc, sched) = cfg.queues.get(i).expect("order holds configured indices");
                QState {
                    deficit: 0.0,
                    quantum: 0.0,
                    queue: PacketQueue::new(qc),
                    sched,
                    shaper: sched.shaper.map(|(r, b)| Shaper::new(r, b)),
                }
            })
            .collect();

        // Cut the block into strict levels, ascending.
        let mut levels = [Level::default(); MAX_QUEUES];
        let mut n_levels = 0u8;
        let mut first = 0u8;
        let runs = qs.chunk_by_mut(|a, b| a.sched.level == b.sched.level);
        for (level, members) in levels.iter_mut().zip(runs) {
            // Shapers only on single-queue levels (covers every paper config).
            let shaped = members.iter().any(|q| q.shaper.is_some());
            assert!(
                members.len() == 1 || !shaped,
                "shaped queues must be alone at their priority level"
            );
            // DWRR quantum: proportional to weight, scaled so the largest
            // weight in a level gets one MTU per round.
            let wmax = members
                .iter()
                .map(|q| q.sched.weight)
                .fold(0.0_f64, f64::max);
            for q in members.iter_mut() {
                // lint:allow(panic-path): f64 ratio; wmax >= weight > 0
                // (weights are asserted positive in QueueSched::weighted).
                q.quantum = (q.sched.weight / wmax * DATA_WIRE.as_f64()).max(1.0);
            }
            *level = Level {
                first,
                len: members.len() as u8,
                pos: 0,
                fresh: true,
                shaped,
            };
            first += level.len;
            n_levels += 1;
        }

        Port {
            rate: cfg.rate,
            peer: usize::MAX,
            prop: TimeDelta::ZERO,
            busy_until: None,
            pending_wake: None,
            backlog: 0,
            n_levels,
            pooled: 0,
            levels,
            slot_of,
            qs,
            pool: None,
            counters: PortCounters::default(),
        }
    }

    /// A switch port: as [`Port::new`], with every uncapped queue counted
    /// against the switch's shared-buffer `pool`.
    pub(crate) fn with_pool(cfg: &PortConfig, pool: &Arc<BufferPool>) -> Self {
        let mut port = Port::new(cfg);
        for (slot, q) in port.qs.iter().enumerate() {
            if q.queue.config().cap_bytes == WireBytes::MAX {
                port.pooled |= 1 << slot;
            }
        }
        port.pool = Some(Arc::clone(pool));
        port
    }

    /// Number of queues.
    pub fn num_queues(&self) -> usize {
        self.qs.len()
    }

    /// The entry of configured queue `idx`.
    fn state(&self, idx: usize) -> &QState {
        self.slot_of
            .get(idx)
            .and_then(|&slot| self.qs.get(usize::from(slot)))
            .expect("queue index within num_queues")
    }

    /// Immutable access to a queue (metrics / admission checks).
    pub fn queue(&self, idx: usize) -> &PacketQueue {
        &self.state(idx).queue
    }

    /// Sum of bytes across all queues.
    pub fn backlog_bytes(&self) -> WireBytes {
        self.qs.iter().map(|q| q.queue.bytes()).sum()
    }

    /// True if any queue holds packets.
    pub fn has_backlog(&self) -> bool {
        self.backlog != 0
    }

    /// Transmit counters.
    pub fn counters(&self) -> PortCounters {
        self.counters
    }

    /// Scheduling attributes of queue `idx`.
    pub fn sched(&self, idx: usize) -> &QueueSched {
        &self.state(idx).sched
    }

    /// Offers the packet behind `id` to queue `qidx` applying that
    /// queue's own policies. Shared-buffer admission must have been
    /// checked by the caller. On `Err` the caller keeps the id.
    pub fn enqueue(
        &mut self,
        arena: &mut PacketArena,
        qidx: usize,
        id: PacketId,
    ) -> Result<(), DropReason> {
        let slot = usize::from(*self.slot_of.get(qidx).unwrap_or(&u8::MAX));
        let q = self
            .qs
            .get_mut(slot)
            .expect("queue index within num_queues");
        let before = q.queue.bytes();
        match q.queue.offer(arena, id) {
            Enqueue::Admitted => {
                self.backlog += 1;
                if self.pooled & (1 << slot) != 0 {
                    if let Some(pool) = &self.pool {
                        pool.charge(q.queue.bytes() - before);
                    }
                }
                Ok(())
            }
            Enqueue::Dropped(r) => Err(r),
        }
    }

    /// Serialization time of `bytes` at line rate.
    pub fn serialize(&self, bytes: WireBytes) -> TimeDelta {
        self.rate.serialize_wire(bytes)
    }

    /// Runs the scheduler for one service opportunity at `now`.
    pub fn next_packet(&mut self, arena: &mut PacketArena, now: Time) -> Decision {
        // The scan below changes nothing when every queue is empty (no
        // shaper refill, no DWRR rotation), so an idle poll can stop at the
        // header.
        if self.backlog == 0 {
            return Decision::Idle;
        }
        let mut wake: Option<Time> = None;
        let mut chosen: Option<(usize, usize)> = None;
        let n_levels = usize::from(self.n_levels);
        for (li, level) in self.levels.iter_mut().take(n_levels).enumerate() {
            let first = usize::from(level.first);
            if level.len == 1 {
                let q = self.qs.get_mut(first).expect("level ranges index queues");
                let Some(head) = q.queue.head_bytes(arena) else {
                    continue; // empty queue
                };
                if level.shaped {
                    if let Some(shaper) = q.shaper.as_mut() {
                        shaper.refill(now);
                        let need = Shaper::need(head);
                        if shaper.tokens < need {
                            let at = shaper.eligible_at(now, need);
                            wake = Some(wake.map_or(at, |w: Time| w.min(at)));
                            // Work conserving: fall through to lower levels.
                            continue;
                        }
                        shaper.spend(need);
                    }
                }
                chosen = Some((li, first));
                break;
            }
            let members = self
                .qs
                .get_mut(first..first + usize::from(level.len))
                .expect("level ranges index queues");
            if let Some(off) = Self::dwrr_pick(level, members, arena) {
                chosen = Some((li, first + off));
                break;
            }
        }
        match chosen {
            Some((li, slot)) => self.serve(arena, li, slot),
            None => match wake {
                Some(t) => Decision::WaitUntil(t),
                None => Decision::Idle,
            },
        }
    }

    /// DWRR selection among `members`, the queues of `level`. Returns the
    /// offset of the queue to serve, or `None` if the level has no backlog.
    fn dwrr_pick(level: &mut Level, members: &mut [QState], arena: &PacketArena) -> Option<usize> {
        // Progress bound: one full cycle adds `quantum` to every backlogged
        // queue's deficit, so the queue whose head needs the fewest
        // additional quanta is served within that many cycles. This is
        // exact for any head size and weight vector (+2 cycles of slack
        // for the rotation in progress), unlike a `MTU / min_quantum`
        // heuristic, which under-counts whenever a head packet is large
        // relative to its own queue's quantum (e.g. a jumbo frame on a
        // tiny-weight queue) and then trips the unreachable!() below.
        let min_rounds = members
            .iter()
            .filter_map(|q| {
                let head = q.queue.head_bytes(arena)?.as_f64();
                let need = (head - q.deficit).max(0.0);
                // lint:allow(raw-cast): round count, not a byte quantity
                // lint:allow(panic-path): f64 ratio; quantum >= 1.0 by
                // construction in Port::new.
                Some((need / q.quantum).ceil() as usize)
            })
            .min()?; // no backlog at this level
        let max_passes = members.len() * (min_rounds + 2);
        for _ in 0..=max_passes {
            let off = usize::from(level.pos);
            let q = members.get_mut(off).expect("pos stays within the level");
            let Some(head) = q.queue.head_bytes(arena) else {
                q.deficit = 0.0;
                level.advance();
                continue;
            };
            if level.fresh {
                q.deficit += q.quantum;
                level.fresh = false;
            }
            if q.deficit >= head.as_f64() {
                return Some(off);
            }
            level.advance();
        }
        // lint:allow(panic-path): progress bound proven above; a trip here
        // is a scheduler logic bug that must abort the run.
        unreachable!("DWRR failed to make progress");
    }

    /// Dequeues from the queue at block position `slot` of level `li`,
    /// updating deficits and counters.
    fn serve(&mut self, arena: &mut PacketArena, li: usize, slot: usize) -> Decision {
        let q = self
            .qs
            .get_mut(slot)
            .expect("served position within the queue block");
        let id = q.queue.dequeue(arena).expect("serve on empty queue");
        let wire = arena.get(id).expect("served id is live").wire;
        let size = wire.as_f64();
        if self.pooled & (1 << slot) != 0 {
            if let Some(pool) = &self.pool {
                pool.credit(wire);
            }
        }
        // Update DWRR state if this queue shares its level.
        let level = self.levels.get_mut(li).expect("queue belongs to a level");
        if level.len > 1 {
            q.deficit -= size;
            let advance = match q.queue.head_bytes(arena) {
                None => {
                    q.deficit = 0.0;
                    true
                }
                Some(next_head) => q.deficit < next_head.as_f64(),
            };
            if advance {
                level.advance();
            }
        }
        self.backlog -= 1;
        self.counters.tx_pkts += 1;
        self.counters.tx_bytes += wire;
        Decision::Send(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{CTRL_WIRE, DATA_HEADER_WIRE};
    use crate::packet::{CreditInfo, DataInfo, Packet, Payload, Subflow, TrafficClass};
    use flexpass_simcore::units::Bytes;

    /// Decision with the sent packet copied out of the arena, so tests can
    /// assert on packet contents directly.
    #[derive(Debug)]
    enum Out {
        Send(Packet),
        WaitUntil(Time),
        Idle,
    }

    fn enq(
        port: &mut Port,
        a: &mut PacketArena,
        qidx: usize,
        pkt: Packet,
    ) -> Result<(), DropReason> {
        let id = a.acquire(pkt);
        port.enqueue(a, qidx, id).inspect_err(|_| {
            a.release(id);
        })
    }

    fn next(port: &mut Port, a: &mut PacketArena, now: Time) -> Out {
        match port.next_packet(a, now) {
            Decision::Send(id) => Out::Send(a.release(id).expect("sent id is live")),
            Decision::WaitUntil(t) => Out::WaitUntil(t),
            Decision::Idle => Out::Idle,
        }
    }

    fn data(wire: u64) -> Packet {
        Packet::new(
            1,
            0,
            1,
            WireBytes::new(wire),
            TrafficClass::NewData,
            Payload::Data(DataInfo {
                flow_seq: 0,
                sub_seq: 0,
                sub: Subflow::Only,
                payload: Bytes::new(wire.saturating_sub(DATA_HEADER_WIRE.get())),
                retx: false,
            }),
        )
    }

    fn credit() -> Packet {
        Packet::new(
            2,
            1,
            0,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        )
    }

    fn drain(port: &mut Port, a: &mut PacketArena, now: Time, n: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        for _ in 0..n {
            match next(port, a, now) {
                Out::Send(p) => out.push(p),
                _ => break,
            }
        }
        out
    }

    /// The scheduler in the shape it had before the queue block was
    /// flattened: queue entries in configuration order, a `Vec` of levels
    /// each owning the `Vec` of its member indices, every level scanned on
    /// every call, no backlog count. It shares [`PacketQueue`] and
    /// [`Shaper`] with [`Port`]; what it pins is the service order.
    struct RefPort {
        qs: Vec<RefQueue>,
        levels: Vec<RefLevel>,
        counters: PortCounters,
    }

    struct RefQueue {
        queue: PacketQueue,
        shaper: Option<Shaper>,
        deficit: f64,
        quantum: f64,
        level: usize,
    }

    struct RefLevel {
        members: Vec<usize>,
        pos: usize,
        fresh: bool,
    }

    impl RefLevel {
        fn advance(&mut self) {
            self.pos = (self.pos + 1) % self.members.len();
            self.fresh = true;
        }
    }

    impl RefPort {
        fn new(cfg: &PortConfig) -> Self {
            let mut qs: Vec<RefQueue> = cfg
                .queues
                .iter()
                .map(|&(qc, sched)| RefQueue {
                    queue: PacketQueue::new(qc),
                    shaper: sched.shaper.map(|(r, b)| Shaper::new(r, b)),
                    deficit: 0.0,
                    quantum: 0.0,
                    level: 0,
                })
                .collect();
            let mut ids: Vec<u8> = cfg.queues.iter().map(|q| q.1.level).collect();
            ids.sort_unstable();
            ids.dedup();
            let levels: Vec<RefLevel> = ids
                .iter()
                .map(|&l| RefLevel {
                    members: (0..qs.len())
                        .filter(|&i| cfg.queues[i].1.level == l)
                        .collect(),
                    pos: 0,
                    fresh: true,
                })
                .collect();
            for (li, level) in levels.iter().enumerate() {
                let weight = |i: usize| cfg.queues[i].1.weight;
                let wmax = level.members.iter().map(|&i| weight(i)).fold(0.0, f64::max);
                for &i in &level.members {
                    qs[i].quantum = (weight(i) / wmax * DATA_WIRE.as_f64()).max(1.0);
                    qs[i].level = li;
                }
            }
            RefPort {
                qs,
                levels,
                counters: PortCounters::default(),
            }
        }

        fn enqueue(
            &mut self,
            arena: &mut PacketArena,
            qidx: usize,
            id: PacketId,
        ) -> Result<(), DropReason> {
            match self.qs[qidx].queue.offer(arena, id) {
                Enqueue::Admitted => Ok(()),
                Enqueue::Dropped(r) => Err(r),
            }
        }

        fn backlog_bytes(&self) -> WireBytes {
            self.qs.iter().map(|q| q.queue.bytes()).sum()
        }

        fn next_packet(&mut self, arena: &mut PacketArena, now: Time) -> Decision {
            let mut wake: Option<Time> = None;
            let mut chosen = None;
            for level in &mut self.levels {
                if let &[qi] = level.members.as_slice() {
                    let q = &mut self.qs[qi];
                    let Some(head) = q.queue.head_bytes(arena) else {
                        continue;
                    };
                    if let Some(shaper) = q.shaper.as_mut() {
                        shaper.refill(now);
                        let need = Shaper::need(head);
                        if shaper.tokens < need {
                            let at = shaper.eligible_at(now, need);
                            wake = Some(wake.map_or(at, |w: Time| w.min(at)));
                            continue;
                        }
                        shaper.spend(need);
                    }
                    chosen = Some(qi);
                    break;
                }
                if let Some(qi) = Self::dwrr_pick(level, &mut self.qs, arena) {
                    chosen = Some(qi);
                    break;
                }
            }
            match chosen {
                Some(qi) => self.serve(arena, qi),
                None => wake.map_or(Decision::Idle, Decision::WaitUntil),
            }
        }

        fn dwrr_pick(
            level: &mut RefLevel,
            qs: &mut [RefQueue],
            arena: &PacketArena,
        ) -> Option<usize> {
            let min_rounds = level
                .members
                .iter()
                .filter_map(|&i| {
                    let q = &qs[i];
                    let head = q.queue.head_bytes(arena)?.as_f64();
                    Some(((head - q.deficit).max(0.0) / q.quantum).ceil() as usize)
                })
                .min()?;
            for _ in 0..=level.members.len() * (min_rounds + 2) {
                let qi = level.members[level.pos];
                let q = &mut qs[qi];
                let Some(head) = q.queue.head_bytes(arena) else {
                    q.deficit = 0.0;
                    level.advance();
                    continue;
                };
                if level.fresh {
                    q.deficit += q.quantum;
                    level.fresh = false;
                }
                if q.deficit >= head.as_f64() {
                    return Some(qi);
                }
                level.advance();
            }
            unreachable!("reference DWRR failed to make progress");
        }

        fn serve(&mut self, arena: &mut PacketArena, qi: usize) -> Decision {
            let q = &mut self.qs[qi];
            let id = q.queue.dequeue(arena).expect("serve on empty queue");
            let wire = arena.get(id).expect("served id is live").wire;
            let level = &mut self.levels[q.level];
            if level.members.len() > 1 {
                q.deficit -= wire.as_f64();
                let advance = match q.queue.head_bytes(arena) {
                    None => {
                        q.deficit = 0.0;
                        true
                    }
                    Some(next_head) => q.deficit < next_head.as_f64(),
                };
                if advance {
                    level.advance();
                }
            }
            self.counters.tx_pkts += 1;
            self.counters.tx_bytes += wire;
            Decision::Send(id)
        }
    }

    /// The paper's FlexPass port: shaped, capped credit queue above two
    /// DWRR data queues with marking and selective dropping.
    fn flexpass_cfg() -> PortConfig {
        PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (
                    QueueConfig::capped(WireBytes::new(1_000)),
                    QueueSched::strict(0).shaped(Rate::from_mbps(400), CTRL_WIRE * 2),
                ),
                (
                    QueueConfig::plain()
                        .with_ecn(WireBytes::new(20_000))
                        .with_red_threshold(WireBytes::new(30_000)),
                    QueueSched::weighted(1, 0.3),
                ),
                (
                    QueueConfig::plain().with_ecn(WireBytes::new(25_000)),
                    QueueSched::weighted(1, 0.7),
                ),
            ],
        }
    }

    /// Homa's eight strict queues: the widest profile, one queue per level.
    fn homa_cfg() -> PortConfig {
        PortConfig {
            rate: Rate::from_gbps(10),
            queues: (0..8)
                .map(|i| (QueueConfig::plain(), QueueSched::strict(i)))
                .collect(),
        }
    }

    /// Levels out of configuration order: the queue block is a permutation
    /// of the configured indices (no shipped profile is).
    fn shuffled_cfg() -> PortConfig {
        PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::weighted(2, 0.2)),
                (QueueConfig::plain(), QueueSched::strict(0)),
                (QueueConfig::plain(), QueueSched::weighted(2, 0.5)),
                (
                    QueueConfig::capped(WireBytes::new(4_000)),
                    QueueSched::strict(1).shaped(Rate::from_gbps(1), CTRL_WIRE * 4),
                ),
                (QueueConfig::plain(), QueueSched::weighted(2, 0.3)),
            ],
        }
    }

    /// Property: the flat port and the reference scheduler, fed the same
    /// seeded tape of enqueues and service opportunities, agree after
    /// every step on the decision (which packet, which wake-up instant),
    /// the transmit and per-queue counters and the backlog — under the
    /// auditor, which holds both to queue byte conservation and shaper
    /// bounds throughout.
    #[test]
    fn flat_port_serves_like_the_reference_scheduler() {
        use flexpass_simcore::rng::SimRng;

        let profiles = [
            ("flexpass", flexpass_cfg()),
            ("homa", homa_cfg()),
            ("fifo", PortConfig::single_fifo(Rate::from_gbps(10))),
            ("shuffled", shuffled_cfg()),
        ];
        crate::audit::install();
        for (name, cfg) in &profiles {
            for seed in 0..8u64 {
                let mut rng = SimRng::new(0x9027 ^ seed);
                let (mut flat, mut flat_arena) = (Port::new(cfg), PacketArena::new());
                let (mut reference, mut ref_arena) = (RefPort::new(cfg), PacketArena::new());
                let mut now = Time::from_micros(1);
                let mut sent = 0u64;
                for step in 0..3_000u64 {
                    let at = format!("{name} seed {seed} step {step}");
                    // Fill faster than the drain at first, then let it empty.
                    if rng.chance(if step < 2_000 { 0.55 } else { 0.3 }) {
                        let q = rng.index(cfg.queues.len());
                        let wire = CTRL_WIRE.get() + rng.next_below(1_500);
                        // A control payload: the tape drives ports, not
                        // flows, so the auditor's end-to-end flow ledger
                        // has nothing to balance.
                        let mut pkt = Packet::new(
                            step,
                            0,
                            1,
                            WireBytes::new(wire),
                            TrafficClass::NewCtrl,
                            Payload::CreditReq { pkts: 0 },
                        );
                        if rng.chance(0.3) {
                            pkt = pkt.red();
                        }
                        if rng.chance(0.5) {
                            pkt = pkt.ecn();
                        }
                        let got = enq(&mut flat, &mut flat_arena, q, pkt);
                        let id = ref_arena.acquire(pkt);
                        let want = reference.enqueue(&mut ref_arena, q, id).inspect_err(|_| {
                            ref_arena.release(id);
                        });
                        assert_eq!(got, want, "admission diverged at {at}");
                    } else {
                        now += TimeDelta::nanos(rng.next_below(2_000));
                        let got = next(&mut flat, &mut flat_arena, now);
                        let want = match reference.next_packet(&mut ref_arena, now) {
                            Decision::Send(id) => {
                                Out::Send(ref_arena.release(id).expect("sent id is live"))
                            }
                            Decision::WaitUntil(t) => Out::WaitUntil(t),
                            Decision::Idle => Out::Idle,
                        };
                        match (&got, &want) {
                            (Out::Send(g), Out::Send(w)) => {
                                assert_eq!((g.flow, g.ecn_ce), (w.flow, w.ecn_ce), "{at}");
                                sent += 1;
                            }
                            (Out::WaitUntil(g), Out::WaitUntil(w)) => {
                                assert_eq!(g, w, "{at}");
                                // Sometimes sleep until the shaper allows.
                                if rng.chance(0.5) {
                                    now = *g;
                                }
                            }
                            (Out::Idle, Out::Idle) => {}
                            _ => panic!("decision diverged at {at}: {got:?} vs {want:?}"),
                        }
                    }
                    assert_eq!(flat.backlog_bytes(), reference.backlog_bytes(), "{at}");
                    assert_eq!(flat.has_backlog(), flat_arena.live() > 0, "{at}");
                    assert_eq!(flat_arena.live(), ref_arena.live(), "{at}");
                    assert_eq!(flat.counters().tx_pkts, reference.counters.tx_pkts, "{at}");
                    assert_eq!(
                        flat.counters().tx_bytes,
                        reference.counters.tx_bytes,
                        "{at}"
                    );
                    for (i, q) in reference.qs.iter().enumerate() {
                        assert_eq!(flat.queue(i).counters(), q.queue.counters(), "{at} q{i}");
                        assert_eq!(flat.queue(i).len(), q.queue.len(), "{at} q{i}");
                    }
                }
                assert!(sent > 500, "{name} seed {seed}: tape served only {sent}");
            }
        }
        let report = crate::audit::finish();
        assert!(report.is_clean(), "{report}");
        assert!(report.counters.dequeues > 0, "the auditor saw the tape");
    }

    #[test]
    fn strict_priority_order() {
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::strict(0)),
                (QueueConfig::plain(), QueueSched::strict(1)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        enq(&mut port, &mut a, 1, data(DATA_WIRE.get())).unwrap();
        enq(&mut port, &mut a, 0, data(100)).unwrap();
        let out = drain(&mut port, &mut a, Time::ZERO, 2);
        assert_eq!(out[0].wire, WireBytes::new(100));
        assert_eq!(out[1].wire, DATA_WIRE);
    }

    #[test]
    fn dwrr_equal_weights_alternate() {
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::weighted(0, 0.5)),
                (QueueConfig::plain(), QueueSched::weighted(0, 0.5)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        for _ in 0..10 {
            enq(&mut port, &mut a, 0, data(DATA_WIRE.get())).unwrap();
            enq(&mut port, &mut a, 1, data(538)).unwrap();
        }
        // Byte share, not packet share, must be balanced: queue 1's packets
        // are smaller so it should send ~2.8x as many packets.
        let mut bytes = [0u64; 2];
        let mut served = 0;
        while let Out::Send(p) = next(&mut port, &mut a, Time::ZERO) {
            let qi = if p.wire == DATA_WIRE { 0 } else { 1 };
            bytes[qi] += p.wire.get();
            served += 1;
            if served > 14 {
                break;
            }
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.6..1.7).contains(&ratio), "byte ratio {ratio}");
    }

    #[test]
    fn dwrr_weight_ratio_converges() {
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::weighted(0, 0.4)),
                (QueueConfig::plain(), QueueSched::weighted(0, 0.6)),
            ],
        };
        // Use distinguishable sizes close enough to be fair by bytes.
        let mut counts = [0u64; 2];
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        for _ in 0..1000 {
            enq(&mut port, &mut a, 0, data(1537)).unwrap();
            enq(&mut port, &mut a, 1, data(DATA_WIRE.get())).unwrap();
        }
        for _ in 0..1000 {
            match next(&mut port, &mut a, Time::ZERO) {
                Out::Send(p) => {
                    if p.wire == WireBytes::new(1537) {
                        counts[0] += 1
                    } else {
                        counts[1] += 1
                    }
                }
                _ => break,
            }
        }
        let share = counts[0] as f64 / (counts[0] + counts[1]) as f64;
        assert!((share - 0.4).abs() < 0.03, "queue-0 share {share}");
    }

    #[test]
    fn work_conservation_under_shaped_credit_queue() {
        // Credit queue shaped to a tiny rate; data must flow meanwhile.
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (
                    QueueConfig::capped(WireBytes::new(1_000)),
                    QueueSched::strict(0).shaped(Rate::from_mbps(1), CTRL_WIRE),
                ),
                (QueueConfig::plain(), QueueSched::strict(1)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        let t0 = Time::from_millis(1);
        // Exhaust the initial token burst with one credit.
        enq(&mut port, &mut a, 0, credit()).unwrap();
        match next(&mut port, &mut a, t0) {
            Out::Send(p) => assert_eq!(p.wire, CTRL_WIRE),
            other => panic!("expected credit send, got {other:?}"),
        }
        // Now the bucket is empty; a queued credit must wait but data flows.
        enq(&mut port, &mut a, 0, credit()).unwrap();
        enq(&mut port, &mut a, 1, data(DATA_WIRE.get())).unwrap();
        match next(&mut port, &mut a, t0) {
            Out::Send(p) => assert_eq!(p.wire, DATA_WIRE),
            other => panic!("expected data send, got {other:?}"),
        }
        // Only the credit remains: scheduler reports the wake time.
        match next(&mut port, &mut a, t0) {
            Out::WaitUntil(t) => {
                // 84 bytes at 1 Mbps = 672 us.
                let dt = t - t0;
                assert!(
                    (dt.as_micros_f64() - 672.0).abs() < 1.0,
                    "wake after {dt:?}"
                );
                // At the wake time the credit becomes eligible.
                match next(&mut port, &mut a, t) {
                    Out::Send(p) => assert_eq!(p.wire, CTRL_WIRE),
                    other => panic!("expected credit after wait, got {other:?}"),
                }
            }
            other => panic!("expected WaitUntil, got {other:?}"),
        }
    }

    #[test]
    fn dwrr_serves_jumbo_from_tiny_weight_queue() {
        // Regression: the old pass bound, n * (ceil(MTU / min_quantum) + 2),
        // under-counts whenever the head packet needs more rounds than an
        // MTU would relative to its own queue's quantum. A 9000-byte jumbo
        // on a weight-0.001 queue (quantum 1.538) needs ~5852 rounds; the
        // old bound allowed ~1002 and hit the unreachable!() panic.
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::weighted(0, 0.001)),
                (QueueConfig::plain(), QueueSched::weighted(0, 1.0)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        enq(&mut port, &mut a, 0, data(9_000)).unwrap();
        match next(&mut port, &mut a, Time::ZERO) {
            Out::Send(p) => assert_eq!(p.wire, WireBytes::new(9_000)),
            other => panic!("expected jumbo send, got {other:?}"),
        }
        assert!(!port.has_backlog());
    }

    #[test]
    fn idle_when_empty() {
        let mut port = Port::new(&PortConfig::single_fifo(Rate::from_gbps(10)));
        let mut a = PacketArena::new();
        assert!(matches!(next(&mut port, &mut a, Time::ZERO), Out::Idle));
        assert!(!port.has_backlog());
    }

    #[test]
    fn shaper_rate_enforced_over_time() {
        // Drain credits as fast as the scheduler lets us and verify the
        // long-run rate matches the shaper.
        let rate = Rate::from_mbps(100);
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![(
                QueueConfig::plain(),
                QueueSched::strict(0).shaped(rate, CTRL_WIRE * 2),
            )],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        for _ in 0..1000 {
            enq(&mut port, &mut a, 0, credit()).unwrap();
        }
        let mut now = Time::ZERO;
        let mut sent = 0u64;
        let mut last = Time::ZERO;
        while sent < 1000 {
            match next(&mut port, &mut a, now) {
                Out::Send(_) => {
                    sent += 1;
                    last = now;
                }
                Out::WaitUntil(t) => now = t,
                Out::Idle => break,
            }
        }
        let achieved_bps = (1000.0 - 2.0) * CTRL_WIRE.as_f64() * 8.0 / last.as_secs_f64();
        let target = rate.as_bps() as f64;
        assert!(
            (achieved_bps - target).abs() / target < 0.01,
            "achieved {achieved_bps} vs {target}"
        );
    }
}
