//! A byte-accounted FIFO queue with ECN marking and per-color accounting.
//!
//! One [`PacketQueue`] corresponds to one egress queue (Q0/Q1/Q2 in the
//! paper). The queue implements the two switch mechanisms FlexPass relies on
//! (§4.1):
//!
//! * **ECN marking**: arriving ECN-capable packets are CE-marked when the
//!   instantaneous queue length exceeds the marking threshold (DCTCP-style
//!   step marking, the standard RED configuration for DCTCP).
//! * **Selective dropping**: the queue tracks how many queued bytes are
//!   *red* (reactive sub-flow packets); an arriving red packet is dropped
//!   when admitting it would push the red byte count past the selective-drop
//!   threshold. Green packets are only subject to the overall buffer limits.
//!
//! Buffer admission against the switch-level shared buffer happens in
//! [`crate::switch`]; this module only enforces the queue's own static cap
//! (used for the tiny credit-queue buffer).
//!
//! Storage is an **intrusive singly-linked FIFO of [`PacketId`]s**: the
//! queue holds only `head`/`tail`/`len`, and each packet's successor link
//! is threaded through its [`PacketArena`] slot. Enqueue and dequeue are
//! pointer writes into the slab — no per-packet heap node, no ring-buffer
//! doubling mid-sim. While a packet is queued the queue
//! *owns* its id (the one live copy that will be handed onward), which is
//! what makes reconstructing successor ids from slot generations sound.

use flexpass_simcore::units::WireBytes;

use crate::arena::{PacketArena, PacketId};
use crate::hooks::{self, HookPacket};
use crate::packet::Color;
use crate::trace::TraceEvent;

/// Why a packet was dropped at enqueue time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// The queue's static byte cap was exceeded (e.g. credit queue < 1 kB).
    QueueCap,
    /// The switch shared buffer / dynamic threshold rejected the packet.
    Buffer,
    /// Selective dropping: red bytes would exceed the red threshold.
    SelectiveRed,
}

/// Static configuration of one egress queue.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Static byte cap; `WireBytes::MAX` means "no static cap" (shared
    /// buffer governs admission instead).
    pub cap_bytes: WireBytes,
    /// ECN/RED step-marking threshold; `None` disables marking.
    pub ecn_threshold: Option<WireBytes>,
    /// Selective-drop threshold for red bytes; `None` disables selective
    /// dropping.
    pub red_threshold: Option<WireBytes>,
}

impl QueueConfig {
    /// A plain FIFO with no marking or dropping policies.
    pub fn plain() -> Self {
        QueueConfig {
            cap_bytes: WireBytes::MAX,
            ecn_threshold: None,
            red_threshold: None,
        }
    }

    /// A queue with a static byte cap (credit queues).
    pub fn capped(cap_bytes: WireBytes) -> Self {
        QueueConfig {
            cap_bytes,
            ecn_threshold: None,
            red_threshold: None,
        }
    }

    /// Adds an ECN step-marking threshold.
    pub fn with_ecn(mut self, bytes: WireBytes) -> Self {
        self.ecn_threshold = Some(bytes);
        self
    }

    /// Adds a selective-drop (red) threshold.
    pub fn with_red_threshold(mut self, bytes: WireBytes) -> Self {
        self.red_threshold = Some(bytes);
        self
    }
}

/// Counters exported by each queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Packets admitted.
    pub enqueued: u64,
    /// Packets CE-marked on admission.
    pub ecn_marked: u64,
    /// Packets dropped by the static cap.
    pub dropped_cap: u64,
    /// Packets dropped by selective (red) dropping.
    pub dropped_red: u64,
    /// Bytes dropped by selective (red) dropping.
    pub dropped_red_bytes: WireBytes,
}

/// A FIFO egress queue: an intrusive list of arena-resident packets.
///
/// `repr(C)` fixes the field order: the list ends and the byte ledgers —
/// what every `offer`, `dequeue` and `head_bytes` reads and writes — come
/// first (`HOT_BYTES` of them), so a port can lay them in
/// one cache line with its own per-queue scheduler state; configuration,
/// counters and observer ids follow.
#[derive(Debug)]
#[repr(C)]
pub struct PacketQueue {
    head: Option<PacketId>,
    tail: Option<PacketId>,
    len: usize,
    bytes: WireBytes,
    red_bytes: WireBytes,
    cfg: QueueConfig,
    counters: QueueCounters,
    hook_id: hooks::ComponentId,
}

/// Result of offering a packet to the queue.
#[derive(Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Admitted (possibly CE-marked inside).
    Admitted,
    /// Dropped for the given reason. The caller still owns the id and is
    /// responsible for releasing it.
    Dropped(DropReason),
}

impl PacketQueue {
    /// Bytes at the front of the struct holding the list ends and ledgers.
    pub(crate) const HOT_BYTES: usize = std::mem::offset_of!(PacketQueue, cfg);

    /// Creates an empty queue with the given configuration. The queue
    /// itself owns no packet storage — backing slots live in the shared
    /// [`PacketArena`].
    pub fn new(cfg: QueueConfig) -> Self {
        PacketQueue {
            head: None,
            tail: None,
            len: 0,
            bytes: WireBytes::ZERO,
            red_bytes: WireBytes::ZERO,
            cfg,
            counters: QueueCounters::default(),
            hook_id: hooks::new_component_id(),
        }
    }

    /// The queue's configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// Queued bytes.
    pub fn bytes(&self) -> WireBytes {
        self.bytes
    }

    /// Queued red bytes.
    pub fn red_bytes(&self) -> WireBytes {
        self.red_bytes
    }

    /// Queued packets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counters snapshot.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Wire size of the head packet, if any.
    pub fn head_bytes(&self, arena: &PacketArena) -> Option<WireBytes> {
        self.head
            .map(|id| arena.get(id).expect("queued id is live").wire)
    }

    /// Offers the packet behind `id` to the queue, applying the queue's
    /// own policies: static cap, selective red dropping, and ECN marking.
    ///
    /// On `Admitted` the queue takes ownership of `id` until `dequeue`
    /// hands it back; on `Dropped` the caller keeps it (and must release
    /// it). Shared-buffer admission must be checked by the caller *before*
    /// this (the switch knows the buffer state; the queue does not).
    pub fn offer(&mut self, arena: &mut PacketArena, id: PacketId) -> Enqueue {
        let (size, color, ecn_capable) = {
            let pkt = arena.get(id).expect("offered id is live");
            (pkt.wire, pkt.color, pkt.ecn_capable)
        };
        if self
            .cfg
            .cap_bytes
            .checked_sub(size)
            .is_none_or(|room| self.bytes > room)
        {
            self.counters.dropped_cap += 1;
            return Enqueue::Dropped(DropReason::QueueCap);
        }
        if color == Color::Red {
            if let Some(red_thr) = self.cfg.red_threshold {
                if self.red_bytes + size > red_thr {
                    self.counters.dropped_red += 1;
                    self.counters.dropped_red_bytes += size;
                    return Enqueue::Dropped(DropReason::SelectiveRed);
                }
            }
        }
        if let Some(ecn_thr) = self.cfg.ecn_threshold {
            if ecn_capable && self.bytes > ecn_thr {
                let pkt = arena.get_mut(id).expect("offered id is live");
                pkt.ecn_ce = true;
                self.counters.ecn_marked += 1;
                hooks::record(|t_ns| {
                    let p = arena.get(id).expect("offered id is live").info();
                    TraceEvent::EcnMark {
                        t_ns,
                        queue: self.hook_id.0,
                        flow: p.flow,
                        seq: p.seq,
                    }
                });
            }
        }
        if color == Color::Red {
            self.red_bytes += size;
        }
        self.bytes += size;
        self.counters.enqueued += 1;
        {
            let pkt = arena.get(id).expect("offered id is live");
            hooks::on_enqueue(self.hook_id, pkt, self.bytes.get());
        }
        arena.clear_next(id);
        match self.tail {
            Some(t) => arena.set_next(t, id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        self.len += 1;
        Enqueue::Admitted
    }

    /// Removes and returns the head packet's id, handing ownership back to
    /// the caller (who delivers, forwards, or releases it).
    pub fn dequeue(&mut self, arena: &mut PacketArena) -> Option<PacketId> {
        let id = self.head?;
        self.head = arena.next_of(id);
        if self.head.is_none() {
            self.tail = None;
        }
        self.len -= 1;
        let (size, color) = {
            let pkt = arena.get(id).expect("queued id is live");
            (pkt.wire, pkt.color)
        };
        self.bytes -= size;
        if color == Color::Red {
            self.red_bytes -= size;
        }
        {
            let pkt = arena.get(id).expect("queued id is live");
            hooks::on_dequeue(self.hook_id, pkt, self.bytes.get());
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::CTRL_WIRE;
    use crate::packet::{CreditInfo, DataInfo, Packet, Payload, Subflow, TrafficClass};
    use flexpass_simcore::rng::SimRng;
    use flexpass_simcore::units::Bytes;

    fn mk(wire: u64, red: bool, ecn: bool) -> Packet {
        let wire = WireBytes::new(wire);
        let p = Packet::new(
            1,
            0,
            1,
            wire,
            TrafficClass::NewData,
            Payload::Data(DataInfo {
                flow_seq: 0,
                sub_seq: 0,
                sub: Subflow::Reactive,
                payload: Bytes::new(1000),
                retx: false,
            }),
        );
        let p = if red { p.red() } else { p };
        if ecn {
            p.ecn()
        } else {
            p
        }
    }

    /// Offer a packet value, releasing the id again if the queue refuses
    /// it (mirrors what switch/host call sites do).
    fn offer_pkt(q: &mut PacketQueue, a: &mut PacketArena, pkt: Packet) -> Enqueue {
        let id = a.acquire(pkt);
        let r = q.offer(a, id);
        if matches!(r, Enqueue::Dropped(_)) {
            a.release(id);
        }
        r
    }

    /// Dequeue straight to a packet value, releasing the slot.
    fn dequeue_pkt(q: &mut PacketQueue, a: &mut PacketArena) -> Option<Packet> {
        let id = q.dequeue(a)?;
        a.release(id)
    }

    #[test]
    fn fifo_order_and_byte_accounting() {
        let mut a = PacketArena::new();
        let mut q = PacketQueue::new(QueueConfig::plain());
        offer_pkt(&mut q, &mut a, mk(100, false, false));
        offer_pkt(&mut q, &mut a, mk(200, true, false));
        assert_eq!(q.bytes(), WireBytes::new(300));
        assert_eq!(q.red_bytes(), WireBytes::new(200));
        assert_eq!(q.head_bytes(&a), Some(WireBytes::new(100)));
        assert_eq!(
            dequeue_pkt(&mut q, &mut a).unwrap().wire,
            WireBytes::new(100)
        );
        assert_eq!(q.bytes(), WireBytes::new(200));
        assert_eq!(
            dequeue_pkt(&mut q, &mut a).unwrap().wire,
            WireBytes::new(200)
        );
        assert_eq!(q.bytes(), WireBytes::ZERO);
        assert_eq!(q.red_bytes(), WireBytes::ZERO);
        assert!(dequeue_pkt(&mut q, &mut a).is_none());
        assert_eq!(a.live(), 0, "queue drained back to an empty arena");
    }

    #[test]
    fn static_cap_drops() {
        let mut a = PacketArena::new();
        let mut q = PacketQueue::new(QueueConfig::capped(WireBytes::new(1_000)));
        for _ in 0..11 {
            offer_pkt(&mut q, &mut a, mk(CTRL_WIRE.get(), false, false));
        }
        // 11 * 84 = 924 fits; a 12th would exceed 1000.
        assert_eq!(q.len(), 11);
        assert_eq!(
            offer_pkt(&mut q, &mut a, mk(CTRL_WIRE.get(), false, false)),
            Enqueue::Dropped(DropReason::QueueCap)
        );
        assert_eq!(q.counters().dropped_cap, 1);
        assert_eq!(a.live(), 11, "dropped packet's slot was released");
    }

    #[test]
    fn selective_drop_hits_only_red() {
        let mut a = PacketArena::new();
        let mut q = PacketQueue::new(QueueConfig::plain().with_red_threshold(WireBytes::new(500)));
        assert_eq!(
            offer_pkt(&mut q, &mut a, mk(400, true, false)),
            Enqueue::Admitted
        );
        // Red bytes would reach 800 > 500 -> dropped.
        assert_eq!(
            offer_pkt(&mut q, &mut a, mk(400, true, false)),
            Enqueue::Dropped(DropReason::SelectiveRed)
        );
        // Green packets are unaffected.
        assert_eq!(
            offer_pkt(&mut q, &mut a, mk(400, false, false)),
            Enqueue::Admitted
        );
        assert_eq!(q.counters().dropped_red, 1);
        assert_eq!(q.counters().dropped_red_bytes, WireBytes::new(400));
        assert_eq!(q.bytes(), WireBytes::new(800));
        assert_eq!(q.red_bytes(), WireBytes::new(400));
    }

    #[test]
    fn ecn_marks_above_threshold_only_capable_packets() {
        let mut a = PacketArena::new();
        let mut q = PacketQueue::new(QueueConfig::plain().with_ecn(WireBytes::new(500)));
        offer_pkt(&mut q, &mut a, mk(600, false, true));
        // Queue was empty (0 <= 500) at arrival: no mark.
        assert_eq!(q.counters().ecn_marked, 0);
        offer_pkt(&mut q, &mut a, mk(100, false, true));
        // Queue length 600 > 500: marked.
        assert_eq!(q.counters().ecn_marked, 1);
        // Non-capable packet above threshold: not marked.
        offer_pkt(&mut q, &mut a, mk(100, false, false));
        assert_eq!(q.counters().ecn_marked, 1);
        let x = dequeue_pkt(&mut q, &mut a).unwrap();
        let y = dequeue_pkt(&mut q, &mut a).unwrap();
        let z = dequeue_pkt(&mut q, &mut a).unwrap();
        assert!(!x.ecn_ce && y.ecn_ce && !z.ecn_ce);
    }

    #[test]
    fn credit_queue_profile() {
        // The paper's Q0: < 1 kB buffer so excess credits are dropped.
        let mut a = PacketArena::new();
        let mut q = PacketQueue::new(QueueConfig::capped(WireBytes::new(1_000)));
        let mut admitted = 0;
        for _ in 0..100 {
            let pkt = Packet::new(
                9,
                0,
                1,
                CTRL_WIRE,
                TrafficClass::Credit,
                Payload::Credit(CreditInfo { idx: 0 }),
            );
            if offer_pkt(&mut q, &mut a, pkt) == Enqueue::Admitted {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 11);
    }

    /// A `VecDeque<Packet>`-backed oracle re-implementing the queue's
    /// admission policies verbatim (the pre-arena implementation).
    struct ModelQueue {
        cfg: QueueConfig,
        fifo: std::collections::VecDeque<Packet>,
        bytes: WireBytes,
        red_bytes: WireBytes,
    }

    enum ModelResult {
        Admitted,
        Dropped(DropReason),
    }

    impl ModelQueue {
        fn offer(&mut self, mut pkt: Packet) -> ModelResult {
            let size = pkt.wire;
            if self
                .cfg
                .cap_bytes
                .checked_sub(size)
                .is_none_or(|room| self.bytes > room)
            {
                return ModelResult::Dropped(DropReason::QueueCap);
            }
            if pkt.color == Color::Red {
                if let Some(red_thr) = self.cfg.red_threshold {
                    if self.red_bytes + size > red_thr {
                        return ModelResult::Dropped(DropReason::SelectiveRed);
                    }
                }
            }
            if let Some(ecn_thr) = self.cfg.ecn_threshold {
                if pkt.ecn_capable && self.bytes > ecn_thr {
                    pkt.ecn_ce = true;
                }
            }
            if pkt.color == Color::Red {
                self.red_bytes += size;
            }
            self.bytes += size;
            self.fifo.push_back(pkt);
            ModelResult::Admitted
        }

        fn dequeue(&mut self) -> Option<Packet> {
            let pkt = self.fifo.pop_front()?;
            self.bytes -= pkt.wire;
            if pkt.color == Color::Red {
                self.red_bytes -= pkt.wire;
            }
            Some(pkt)
        }
    }

    /// Differential check (wheel-vs-heap playbook): the arena-backed
    /// intrusive FIFO and the `VecDeque` oracle must produce identical
    /// enqueue/dequeue/drop sequences under a randomized policy workload.
    #[test]
    fn differential_arena_vs_vecdeque_model() {
        let cfg = QueueConfig::capped(WireBytes::new(4_000))
            .with_ecn(WireBytes::new(1_200))
            .with_red_threshold(WireBytes::new(1_000));
        let mut arena = PacketArena::with_capacity(8);
        let mut real = PacketQueue::new(cfg);
        let mut model = ModelQueue {
            cfg,
            fifo: std::collections::VecDeque::new(),
            bytes: WireBytes::ZERO,
            red_bytes: WireBytes::ZERO,
        };
        let mut rng = SimRng::new(0xD1FF);
        for step in 0..6000u32 {
            if rng.chance(0.6) {
                let wire = CTRL_WIRE.get() + rng.next_below(600);
                let pkt = mk(wire, rng.chance(0.4), rng.chance(0.5));
                let got = offer_pkt(&mut real, &mut arena, pkt);
                match (got, model.offer(pkt)) {
                    (Enqueue::Admitted, ModelResult::Admitted) => {}
                    (Enqueue::Dropped(r1), ModelResult::Dropped(r2)) => {
                        assert_eq!(r1, r2, "drop reasons diverged at step {step}")
                    }
                    _ => panic!("admission diverged at step {step}"),
                }
            } else {
                let got = dequeue_pkt(&mut real, &mut arena);
                let want = model.dequeue();
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => {
                        assert_eq!(g.wire, w.wire, "wire diverged at step {step}");
                        assert_eq!(g.color, w.color, "color diverged at step {step}");
                        assert_eq!(g.ecn_ce, w.ecn_ce, "CE mark diverged at step {step}");
                    }
                    _ => panic!("emptiness diverged at step {step}"),
                }
            }
            assert_eq!(real.bytes(), model.bytes, "byte ledger diverged at {step}");
            assert_eq!(real.red_bytes(), model.red_bytes);
            assert_eq!(real.len(), model.fifo.len());
            assert_eq!(arena.live(), model.fifo.len(), "arena leaks slots");
        }
    }
}
