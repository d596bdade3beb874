//! Generation-indexed packet arena: the hot datapath's only packet store.
//!
//! Every in-flight [`Packet`] lives in one slab slot and is addressed by a
//! [`PacketId`] — a `(u32 index, u32 generation)` pair. Releasing a slot
//! bumps its generation, so any id minted before the release can never
//! match again: stale access and double-release are rejected by a plain
//! integer comparison instead of corrupting a reused slot.
//!
//! The same `next` field that threads the free list through unused slots
//! threads the intrusive FIFO of [`crate::queue::PacketQueue`] through
//! live ones — a queued packet's successor link costs no allocation and no
//! separate node. A simulator's slab starts empty; an acquire that finds it
//! full doubles it, so it reaches a high-water mark of `n` packets in about
//! log2 `n` growth events during warm-up, each counted as telemetry
//! ([`PacketArena::grows`]), and the zero-alloc gate checks none follow.
//!
//! Lifecycle: `acquire` (endpoint send) → enqueue (NIC/switch queue links
//! the id) → dequeue (port serves the id) → `release` (deliver or drop
//! copies the `Copy` packet out for observers, then frees the slot).

use crate::packet::Packet;

/// Sentinel index: "no slot". Doubles as the free-list and FIFO terminator.
const NIL: u32 = u32::MAX;

/// Handle to a live packet in a [`PacketArena`].
///
/// Ids are plain data (8 bytes, `Copy`); holding one confers no borrow.
/// An id is *live* from `acquire` until the matching `release`; after
/// that, every arena operation on it returns `None` (the slot's
/// generation has moved on).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PacketId {
    idx: u32,
    gen: u32,
}

impl PacketId {
    /// Slot index, for diagnostics only — never a substitute for the id.
    pub fn index(self) -> u32 {
        self.idx
    }

    /// Generation the id was minted under.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

#[derive(Debug)]
struct Slot {
    /// Current generation. An id matches only while `id.gen == gen`;
    /// `release` bumps this, retiring every outstanding copy of the id.
    gen: u32,
    /// Free-list link (slot free) or FIFO successor (slot live and
    /// queued). `NIL` terminates both.
    next: u32,
    pkt: Packet,
}

/// Slab of packets addressed by generation-checked ids.
#[derive(Debug)]
pub struct PacketArena {
    slots: Vec<Slot>,
    /// Head of the free list (`NIL` when every slot is live).
    free: u32,
    live: usize,
    high_water: usize,
    grows: u64,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketArena {
    /// An empty arena; slots are added on demand.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Preallocate `n` slots so the first `n` concurrent packets cost no
    /// heap traffic.
    pub fn with_capacity(n: usize) -> Self {
        let mut a = PacketArena {
            slots: Vec::with_capacity(n),
            free: NIL,
            live: 0,
            high_water: 0,
            grows: 0,
        };
        a.grow_to(n);
        a.grows = 0;
        a
    }

    /// Extend the slab to at least `n` slots, pushing the new slots onto
    /// the free list. Cold path: construction and overflow only.
    fn grow_to(&mut self, n: usize) {
        while self.slots.len() < n {
            let idx = self.slots.len() as u32;
            // lint:allow(alloc-in-datapath): slab growth is the cold
            // overflow path; steady state never reaches it.
            self.slots.push(Slot {
                gen: 0,
                next: self.free,
                pkt: Packet::placeholder(),
            });
            self.free = idx;
        }
    }

    /// One growth event: every slot is live, so double the slab.
    #[cold]
    fn grow(&mut self) {
        self.grows += 1;
        self.grow_to(self.slots.len().saturating_mul(2).max(1));
    }

    /// Store `pkt` in a free slot and mint the id for it.
    pub fn acquire(&mut self, pkt: Packet) -> PacketId {
        if self.free == NIL {
            self.grow();
        }
        let idx = self.free;
        let slot = self
            .slots
            .get_mut(idx as usize)
            .expect("free-list head indexes an existing slot");
        self.free = slot.next;
        slot.next = NIL;
        slot.pkt = pkt;
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        PacketId { idx, gen: slot.gen }
    }

    /// Free the slot behind `id`, returning the packet it held. `None` if
    /// the id is stale (already released, or the slot was reused): the
    /// generation check makes double-release a visible no-op instead of a
    /// corruption.
    pub fn release(&mut self, id: PacketId) -> Option<Packet> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        // Bump first: from here on every copy of `id` is dead.
        slot.gen = slot.gen.wrapping_add(1);
        let pkt = slot.pkt;
        slot.next = self.free;
        self.free = id.idx;
        self.live -= 1;
        Some(pkt)
    }

    /// The packet behind `id`, or `None` if the id is stale.
    pub fn get(&self, id: PacketId) -> Option<&Packet> {
        let slot = self.slots.get(id.idx as usize)?;
        if slot.gen == id.gen {
            Some(&slot.pkt)
        } else {
            None
        }
    }

    /// Mutable access to the packet behind `id` (e.g. ECN marking in the
    /// queue), or `None` if the id is stale.
    pub fn get_mut(&mut self, id: PacketId) -> Option<&mut Packet> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen == id.gen {
            Some(&mut slot.pkt)
        } else {
            None
        }
    }

    /// Clear the FIFO successor of a live `of` (it becomes a queue tail).
    pub(crate) fn clear_next(&mut self, of: PacketId) {
        let slot = self
            .slots
            .get_mut(of.idx as usize)
            .filter(|s| s.gen == of.gen)
            .expect("intrusive link target is a live id");
        slot.next = NIL;
    }

    /// Link live `next` as the FIFO successor of live `of`.
    pub(crate) fn set_next(&mut self, of: PacketId, next: PacketId) {
        debug_assert!(self.get(next).is_some(), "successor must be live");
        let slot = self
            .slots
            .get_mut(of.idx as usize)
            .filter(|s| s.gen == of.gen)
            .expect("intrusive link target is a live id");
        slot.next = next.idx;
    }

    /// The FIFO successor of live `of`, as a full id (the successor's
    /// current generation — sound because a queued packet is live by the
    /// queue's ownership invariant).
    pub(crate) fn next_of(&self, of: PacketId) -> Option<PacketId> {
        let slot = self
            .slots
            .get(of.idx as usize)
            .filter(|s| s.gen == of.gen)
            .expect("intrusive link target is a live id");
        if slot.next == NIL {
            return None;
        }
        let nslot = self
            .slots
            .get(slot.next as usize)
            .expect("intrusive links stay inside the slab");
        Some(PacketId {
            idx: slot.next,
            gen: nslot.gen,
        })
    }

    /// Packets currently live.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Most packets ever live at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Slots in the slab (free + live).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Post-construction slab growth events (each doubles the slab). Zero
    /// in steady state once the arena is sized to the workload.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Release every id in `ids` (drained in order) and append the
    /// packets to `out`. Test-harness convenience mirroring the
    /// simulator's flush order; stale ids are skipped.
    pub fn drain_into(&mut self, ids: &mut Vec<PacketId>, out: &mut Vec<Packet>) {
        for id in ids.drain(..) {
            if let Some(pkt) = self.release(id) {
                out.push(pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::data_wire_bytes;
    use crate::packet::{DataInfo, Payload, Subflow, TrafficClass};
    use flexpass_simcore::rng::SimRng;
    use flexpass_simcore::units::Bytes;

    fn pkt(seq: u32) -> Packet {
        Packet::new(
            7,
            0,
            1,
            data_wire_bytes(Bytes::new(1000)),
            TrafficClass::NewData,
            Payload::Data(DataInfo {
                flow_seq: seq,
                sub_seq: seq,
                sub: Subflow::Proactive,
                payload: Bytes::new(1000),
                retx: false,
            }),
        )
    }

    fn seq_of(p: &Packet) -> u32 {
        match p.payload {
            Payload::Data(d) => d.flow_seq,
            _ => u32::MAX,
        }
    }

    #[test]
    fn acquire_release_roundtrip() {
        let mut a = PacketArena::with_capacity(4);
        assert_eq!(a.capacity(), 4);
        let id = a.acquire(pkt(3));
        assert_eq!(a.live(), 1);
        assert_eq!(a.get(id).map(seq_of), Some(3));
        let back = a.release(id).expect("live id releases");
        assert_eq!(seq_of(&back), 3);
        assert_eq!(a.live(), 0);
        assert_eq!(a.grows(), 0, "preallocated arena never grew");
    }

    #[test]
    fn stale_id_rejected_after_release_and_reuse() {
        let mut a = PacketArena::with_capacity(1);
        let first = a.acquire(pkt(1));
        assert!(a.release(first).is_some());
        // Double release is a visible no-op.
        assert!(a.release(first).is_none());
        // The slot is reused under a new generation; the stale id still
        // misses.
        let second = a.acquire(pkt(2));
        assert_eq!(second.index(), first.index(), "slot reused");
        assert_ne!(second.generation(), first.generation());
        assert!(a.get(first).is_none());
        assert!(a.get_mut(first).is_none());
        assert_eq!(a.get(second).map(seq_of), Some(2));
        assert!(a.release(first).is_none());
        assert_eq!(a.live(), 1, "stale release must not free the reused slot");
    }

    /// Property: under random interleaved acquire/release, no two live ids
    /// ever share a slot, every live id resolves, and every retired id is
    /// rejected. Deterministic pseudo-random exercise via [`SimRng`].
    #[test]
    fn no_two_live_ids_share_a_slot() {
        let mut rng = SimRng::new(0xA4E7A);
        let mut a = PacketArena::with_capacity(8);
        let mut live: Vec<PacketId> = Vec::new();
        let mut retired: Vec<PacketId> = Vec::new();
        for step in 0..4000u32 {
            if live.is_empty() || rng.chance(0.55) {
                live.push(a.acquire(pkt(step)));
            } else {
                let pick = rng.index(live.len());
                let id = live.swap_remove(pick);
                assert!(a.release(id).is_some(), "live id must release");
                retired.push(id);
            }
            // No two live ids share a slot index.
            let mut idxs: Vec<u32> = live.iter().map(|i| i.index()).collect();
            idxs.sort_unstable();
            let before = idxs.len();
            idxs.dedup();
            assert_eq!(idxs.len(), before, "duplicate live slot at step {step}");
            assert_eq!(a.live(), live.len());
            // Spot-check stale rejection as slots get reused.
            if let Some(old) = retired.last() {
                assert!(a.get(*old).is_none(), "retired id resolved at step {step}");
            }
        }
        for id in &live {
            assert!(a.get(*id).is_some());
        }
        for id in &retired {
            assert!(a.get(*id).is_none());
            assert!(a.release(*id).is_none());
        }
    }

    /// Regression: the slab grew one slot per miss, so a 256 → 1,262-slot
    /// warm-up reported 1,006 growth events. It doubles instead: `grows`
    /// counts growth events, not slots, and ids minted before a growth
    /// stay valid across it.
    #[test]
    fn growth_doubles_and_keeps_ids_valid() {
        let mut a = PacketArena::with_capacity(2);
        let mut ids: Vec<PacketId> = Vec::new();
        for (n, cap, grows) in [(2, 2, 0), (3, 4, 1), (4, 4, 1), (5, 8, 2), (9, 16, 3)] {
            while ids.len() < n {
                ids.push(a.acquire(pkt(ids.len() as u32)));
            }
            assert_eq!((a.capacity(), a.grows()), (cap, grows), "at {n} live");
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(a.get(*id).map(seq_of), Some(i as u32));
            }
        }
        assert_eq!((a.live(), a.high_water()), (9, 9));
        // A slot released before a growth is reused after it, and the id
        // it had stays dead.
        let old = ids.swap_remove(0);
        assert!(a.release(old).is_some());
        while a.capacity() == 16 {
            ids.push(a.acquire(pkt(99)));
        }
        assert!(a.get(old).is_none());
        assert_eq!(a.grows(), 4);
        // An empty arena grows from nothing.
        let mut empty = PacketArena::new();
        let id = empty.acquire(pkt(7));
        assert_eq!(empty.get(id).map(seq_of), Some(7));
        assert_eq!(empty.grows(), 1);
    }

    #[test]
    fn intrusive_links_thread_through_slots() {
        let mut a = PacketArena::with_capacity(4);
        let x = a.acquire(pkt(0));
        let y = a.acquire(pkt(1));
        a.clear_next(x);
        assert_eq!(a.next_of(x), None);
        a.set_next(x, y);
        a.clear_next(y);
        assert_eq!(a.next_of(x), Some(y));
        assert_eq!(a.next_of(y), None);
    }

    #[test]
    fn drain_into_releases_in_order() {
        let mut a = PacketArena::with_capacity(4);
        let mut ids = vec![a.acquire(pkt(10)), a.acquire(pkt(11))];
        let mut out = Vec::new();
        a.drain_into(&mut ids, &mut out);
        assert!(ids.is_empty());
        assert_eq!(out.iter().map(seq_of).collect::<Vec<_>>(), [10, 11]);
        assert_eq!(a.live(), 0);
    }
}
