//! End hosts.
//!
//! A host owns one NIC egress [`Port`] — configured exactly like an edge
//! switch port (§5, footnote 6: "NIC is essentially a special type of edge
//! switch") — and one table of live transport [`Endpoint`]s keyed by flow.
//!
//! # The flow table
//!
//! An incast receiver holds hundreds of live flows and re-arms a pacing
//! timer on nearly every event, so neither a lookup nor a re-arm may cost
//! more than a few cache lines, whatever the table holds:
//!
//! * **Slots.** Each live flow owns one slot of a slab: its id, its boxed
//!   endpoint, and the calendar handles of its armed cancellable timers,
//!   inline and keyed by timer kind (at most [`MAX_ARMED_KINDS`] at once).
//!   Retired slots go on a free list threaded through the slots
//!   themselves and are reused; nothing ever shifts.
//! * **Index.** `FlowId → slot` is an open-addressed table (linear
//!   probing from `mix64(flow)`, at most half full, backward-shift
//!   deletion so there are no tombstones). It is only ever probed, never
//!   iterated, and it is rebuilt from the slab in slot order, so its
//!   layout cannot leak into the run.
//!
//! A delivered packet, a timer event and a `TimerCmd::Arm` / `Cancel` each
//! resolve their flow with **one index probe** ([`Host::deliver`],
//! [`Host::fire_timer`], `Host::settle`) and then work on the slot: a
//! re-arm moves the handle the slot holds to the later deadline
//! (`EventQueue::rearm_later`), or, for an earlier deadline or a muted
//! timer, cancels it and overwrites it in place.
//!
//! # Retirement
//!
//! An endpoint that reports `finished()` keeps its slot until the
//! commands that callback staged are applied: `Host::settle` (which
//! `Sim::flush` calls) retires it last, so a `Cancel` issued while
//! finishing still finds the handle it names. Timers
//! left armed at that point are *forgotten*, not cancelled: their calendar
//! entries still pop as events, find no flow, and do nothing — exactly the
//! event sequence of a table that kept them. A forgotten timer is unmuted
//! first, so it pops once into nobody instead of re-arming forever.
//!
//! [`Host::new`] allocates neither; the slab and the index double as the
//! live-flow count first reaches each size, so steady-state churn stays
//! off the heap.

use flexpass_simcore::event::EventQueue;
use flexpass_simcore::rng::mix64;
use flexpass_simcore::time::Time;
use flexpass_simcore::units::Bytes;
use flexpass_simcore::TimerHandle;

use crate::arena::{PacketArena, PacketId};
use crate::endpoint::{AppEvent, Endpoint, EndpointCtx, MuteHint, TimerCmd};
use crate::hooks;
use crate::packet::{FlowId, HostId, Packet};
use crate::port::Port;
use crate::queue::DropReason;
use crate::sim::{timer_flow, timer_kind};
use crate::switch::{ClassMap, SwitchProfile};
use crate::trace::TraceEvent;

/// Most cancellable timer kinds one endpoint may hold armed at once; a
/// slot stores their handles inline. The transports arm at most two
/// (credit pacing + feedback, or RTO + reactive RTO; the linger timer is
/// fire-and-forget); [`Host`] panics on a fifth.
pub const MAX_ARMED_KINDS: usize = 4;

/// Per-host counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCounters {
    /// Packets that arrived for a flow this host no longer (or never) knew.
    pub stray_rx: u64,
    /// Packets dropped at the NIC egress, by any reason.
    pub nic_drops: u64,
    /// Data bytes received by endpoints on this host.
    pub rx_data_bytes: Bytes,
}

/// What a live flow keeps in its slot.
struct Live {
    flow: FlowId,
    endpoint: Box<dyn Endpoint>,
    /// `kinds[i]` is the timer kind of `armed[i]` while that is `Some`.
    kinds: [u16; MAX_ARMED_KINDS],
    armed: [Option<TimerHandle>; MAX_ARMED_KINDS],
}

/// One slab entry of the flow table.
enum Slot {
    Live(Live),
    /// On the free list, naming the next free slot ([`NO_SLOT`] ends it).
    Free(u32),
}

/// The slot number no slot has.
const NO_SLOT: u32 = u32::MAX;

impl Live {
    /// The cell holding the handle armed for timer `kind`, if one is.
    fn armed_mut(&mut self, kind: u16) -> Option<&mut Option<TimerHandle>> {
        let cells = self.kinds.iter().zip(&mut self.armed);
        cells
            .filter(|(k, a)| **k == kind && a.is_some())
            .map(|(_, a)| a)
            .next()
    }
}

/// A live slot of one host's flow table: what an index probe resolves a
/// flow to. Valid until that flow retires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FlowSlot(u32);

impl FlowSlot {
    fn pos(self) -> usize {
        self.0 as usize
    }
}

/// One entry of the open-addressed `FlowId → slot` index. The key sits
/// beside the slot number so a probe compares without leaving the index.
#[derive(Clone, Copy)]
struct IndexEntry {
    flow: FlowId,
    slot: u32,
}

impl IndexEntry {
    const VACANT: IndexEntry = IndexEntry {
        flow: 0,
        slot: NO_SLOT,
    };

    fn is_vacant(&self) -> bool {
        self.slot == Self::VACANT.slot
    }
}

/// Where `flow`'s probe sequence starts in an index of `mask + 1` entries.
fn home(flow: FlowId, mask: usize) -> usize {
    mix64(flow) as usize & mask
}

/// Writes `flow → slot` into the first vacant entry of `flow`'s probe
/// sequence. The caller keeps the index at most half full and `flow`
/// absent from it.
fn index_put(index: &mut [IndexEntry], flow: FlowId, slot: u32) {
    let mask = index.len().wrapping_sub(1);
    let mut i = home(flow, mask);
    loop {
        let e = index.get_mut(i).expect("probe stays inside the index");
        if e.is_vacant() {
            *e = IndexEntry { flow, slot };
            return;
        }
        i = (i + 1) & mask;
    }
}

/// An end host: NIC port + transport endpoints.
pub struct Host {
    /// This host's index in the topology host list.
    pub host_id: HostId,
    /// NIC egress port towards the ToR (or single switch).
    pub nic: Port,
    class_map: ClassMap,
    slots: Vec<Slot>,
    /// Head of the list of slots whose flow retired, reused last-in
    /// first-out.
    free_head: u32,
    /// Empty, or a power of two of entries at least twice `live`.
    index: Vec<IndexEntry>,
    // 10,240 hosts sit inline in the scale point's node table: counters
    // are as wide as a slot number, not wider.
    live: u32,
    /// Handles held across all slots.
    armed: u32,
    /// The slot whose endpoint finished in the callback now being flushed.
    finished: Option<u32>,
    counters: HostCounters,
}

impl Host {
    /// Creates a host whose NIC is configured from `profile` (queue set and
    /// class map identical to edge switches; shared-buffer admission is not
    /// applied at hosts).
    pub fn new(host_id: HostId, profile: &SwitchProfile) -> Self {
        Host {
            host_id,
            nic: Port::new(&profile.port),
            class_map: profile.class_map,
            slots: Vec::new(),
            free_head: NO_SLOT,
            index: Vec::new(),
            live: 0,
            armed: 0,
            finished: None,
            counters: HostCounters::default(),
        }
    }

    /// Counters snapshot.
    pub fn counters(&self) -> HostCounters {
        self.counters
    }

    /// Number of live endpoints.
    pub fn live_flows(&self) -> usize {
        self.live as usize
    }

    /// Number of cancellable timers live endpoints currently hold armed.
    pub fn armed_timers(&self) -> usize {
        self.armed as usize
    }

    /// Resizes the index to `len` entries (a power of two) and re-enters
    /// every live slot, in slot order.
    fn rebuild_index(&mut self, len: usize) {
        self.index.clear();
        self.index.resize(len, IndexEntry::VACANT);
        for (pos, slot) in self.slots.iter().enumerate() {
            if let Slot::Live(live) = slot {
                let pos = u32::try_from(pos).expect("slab holds fewer than 2^32 slots");
                index_put(&mut self.index, live.flow, pos);
            }
        }
    }

    /// Position of `flow`'s entry in the index and the slot it names: the
    /// one probe every lookup makes.
    fn probe(&self, flow: FlowId) -> Option<(usize, u32)> {
        let mask = self.index.len().wrapping_sub(1);
        let mut i = home(flow, mask);
        loop {
            // An empty index has no entry at any position.
            let e = self.index.get(i)?;
            if e.is_vacant() {
                return None;
            }
            if e.flow == flow {
                return Some((i, e.slot));
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot holding `flow`, if the flow is live here.
    fn find(&self, flow: FlowId) -> Option<FlowSlot> {
        self.probe(flow).map(|(_, slot)| FlowSlot(slot))
    }

    /// Vacates `flow`'s index entry, shifting the rest of its probe run
    /// back over the hole so no lookup ever meets a tombstone.
    fn index_remove(&mut self, flow: FlowId) {
        let Some((mut hole, _)) = self.probe(flow) else {
            return;
        };
        let mask = self.index.len().wrapping_sub(1);
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let e = *self.index.get(i).expect("probe stays inside the index");
            if e.is_vacant() {
                break;
            }
            // `e` may move into the hole unless its home lies cyclically
            // after the hole: it must stay reachable from its home.
            if (i.wrapping_sub(home(e.flow, mask)) & mask) >= (i.wrapping_sub(hole) & mask) {
                *self.index.get_mut(hole).expect("hole is an index position") = e;
                hole = i;
            }
        }
        *self.index.get_mut(hole).expect("hole is an index position") = IndexEntry::VACANT;
    }

    /// Registers an endpoint for `flow` and runs its `activate` callback.
    /// An endpoint registered under a live flow's id replaces that flow's
    /// endpoint and inherits its armed timers.
    pub fn register(&mut self, flow: FlowId, mut ep: Box<dyn Endpoint>, ctx: &mut EndpointCtx) {
        debug_assert!(self.finished.is_none(), "previous callback not flushed");
        ep.activate(ctx);
        if ep.finished() {
            return;
        }
        if let Some(s) = self.find(flow) {
            self.live_mut(s).endpoint = ep;
            return;
        }
        if (self.live_flows() + 1) * 2 > self.index.len() {
            self.rebuild_index((self.index.len() * 2).max(4));
        }
        let live = Slot::Live(Live {
            flow,
            endpoint: ep,
            kinds: [0; MAX_ARMED_KINDS],
            armed: [None; MAX_ARMED_KINDS],
        });
        let pos = match self.slots.get_mut(self.free_head as usize) {
            Some(slot) => {
                let Slot::Free(next) = *slot else {
                    // lint:allow(panic-path): the free list names free slots
                    unreachable!("live slot on the free list");
                };
                *slot = live;
                std::mem::replace(&mut self.free_head, next)
            }
            // `NO_SLOT`: nothing to reuse.
            None => {
                let pos =
                    u32::try_from(self.slots.len()).expect("slab holds fewer than 2^32 slots");
                self.slots.push(live);
                pos
            }
        };
        index_put(&mut self.index, flow, pos);
        self.live += 1;
    }

    fn live_mut(&mut self, s: FlowSlot) -> &mut Live {
        match self.slots.get_mut(s.pos()) {
            Some(Slot::Live(live)) => live,
            // lint:allow(panic-path): the index names live slots only
            _ => unreachable!("an indexed slot is live"),
        }
    }

    /// Delivers an arriving packet to the owning endpoint. Returns `false`
    /// if no endpoint claimed it (stray late packet — dropped).
    pub fn deliver(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) -> bool {
        debug_assert!(self.finished.is_none(), "previous callback not flushed");
        if pkt.is_data() {
            self.counters.rx_data_bytes += pkt.payload_bytes();
        }
        let Some(s) = self.find(pkt.flow) else {
            self.counters.stray_rx += 1;
            return false;
        };
        let ep = &mut self.live_mut(s).endpoint;
        ep.on_packet(pkt, ctx);
        if ep.finished() {
            self.finished = Some(s.0);
        }
        true
    }

    /// Fires the timer `token` on its flow's endpoint; a timer whose flow
    /// has departed is a no-op. `events` is the calendar the timer popped
    /// from: if this delivery consumed the handle the slot holds for the
    /// token's kind (it went stale when the calendar popped the entry),
    /// the slot forgets it. A `Set` timer sharing the token leaves an
    /// armed one pending.
    pub fn fire_timer<E>(&mut self, token: u64, events: &EventQueue<E>, ctx: &mut EndpointCtx) {
        debug_assert!(self.finished.is_none(), "previous callback not flushed");
        let Some(s) = self.find(timer_flow(token)) else {
            return;
        };
        let consumed = self
            .live_mut(s)
            .armed_mut(timer_kind(token))
            .and_then(|a| a.take_if(|hd| !events.is_pending(*hd)));
        if consumed.is_some() {
            self.armed -= 1;
        }
        let ep = &mut self.live_mut(s).endpoint;
        ep.on_timer(token, ctx);
        if ep.finished() {
            self.finished = Some(s.0);
        }
    }

    /// The handle slot `s` holds armed for `kind`, left in place.
    fn armed(&mut self, s: FlowSlot, kind: u16) -> Option<TimerHandle> {
        self.live_mut(s).armed_mut(kind).and_then(|a| *a)
    }

    /// Removes and returns the handle slot `s` holds armed for `kind`.
    fn take_armed(&mut self, s: FlowSlot, kind: u16) -> Option<TimerHandle> {
        let hd = self.live_mut(s).armed_mut(kind)?.take();
        self.armed -= 1;
        hd
    }

    /// Records `hd` as slot `s`'s armed timer of `kind`. The caller has
    /// taken any previous handle of that kind ([`Host::take_armed`]).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint already holds [`MAX_ARMED_KINDS`] other
    /// kinds armed.
    fn set_armed(&mut self, s: FlowSlot, kind: u16, hd: TimerHandle) {
        let live = self.live_mut(s);
        let (k, a) = live
            .kinds
            .iter_mut()
            .zip(&mut live.armed)
            .find(|(_, a)| a.is_none())
            .expect("an endpoint arms at most MAX_ARMED_KINDS timer kinds at once");
        *k = kind;
        *a = Some(hd);
        self.armed += 1;
    }

    /// Settles a callback at `now`: applies the timer commands, then the
    /// mute hints, it staged in `scratch` (draining both) to `events`,
    /// whose timer payload for a token is `event(token)`; then retires its
    /// endpoint if it finished.
    ///
    /// The flow a timer belongs to rides in the token's high bits (tokens
    /// are namespaced per endpoint; see
    /// [`timer_token`](crate::sim::timer_token)): one probe of the flow
    /// table finds the slot holding its armed handles. A flow that is not
    /// live holds none, and a timer armed for it fires as a no-op. An
    /// `Arm` moves the handle its slot holds when the calendar lets it
    /// ([`EventQueue::rearm_later`]), and cancels and replaces it
    /// otherwise: the same calendar, one entry fewer.
    pub(crate) fn settle<E>(
        &mut self,
        now: Time,
        scratch: &mut Scratch,
        events: &mut EventQueue<E>,
        event: impl Fn(u64) -> E,
    ) {
        for cmd in scratch.timers.drain(..) {
            match cmd {
                TimerCmd::Set(at, token) => events.schedule(at.max(now), event(token)),
                TimerCmd::Arm(at, token) => {
                    let at = at.max(now);
                    let slot = self.find(timer_flow(token));
                    let kind = timer_kind(token);
                    let held = slot.and_then(|s| self.armed(s, kind));
                    if held.is_some_and(|hd| events.rearm_later(hd, at)) {
                        continue;
                    }
                    if let Some(old) = slot.and_then(|s| self.take_armed(s, kind)) {
                        events.cancel(old);
                    }
                    let hd = events.schedule_cancelable(at, event(token));
                    if let Some(s) = slot {
                        self.set_armed(s, kind, hd);
                    }
                }
                TimerCmd::Cancel(token) => {
                    let slot = self.find(timer_flow(token));
                    if let Some(old) = slot.and_then(|s| self.take_armed(s, timer_kind(token))) {
                        events.cancel(old);
                        hooks::record(|t_ns| TraceEvent::TimerCancel {
                            t_ns,
                            flow: timer_flow(token),
                            kind: timer_kind(token),
                        });
                    }
                }
            }
        }
        // Mute hints name the timer each token has armed once the commands
        // above have run.
        for (token, period) in scratch.mutes.drain(..) {
            let armed = self
                .find(timer_flow(token))
                .and_then(|s| self.armed(s, timer_kind(token)));
            if let Some(hd) = armed {
                match period {
                    Some(period) => events.mute(hd, period),
                    None => events.unmute(hd),
                };
            }
        }
        // Only now may an endpoint that finished in this callback leave
        // the table: the commands above could still name its timers.
        self.retire_finished(events);
    }

    /// Retires the endpoint that finished in the callback just flushed,
    /// if one did: its slot joins the free list and its index entry is
    /// vacated. Handles it still held are unmuted in `events` and
    /// forgotten, not cancelled — the calendar entries pop once as events
    /// that find no flow.
    fn retire_finished<E>(&mut self, events: &mut EventQueue<E>) {
        let Some(pos) = self.finished.take() else {
            return;
        };
        let slot = self.live_mut(FlowSlot(pos));
        let flow = slot.flow;
        let mut forgotten = 0;
        for &hd in slot.armed.iter().flatten() {
            events.unmute(hd);
            forgotten += 1;
        }
        self.armed -= forgotten;
        self.index_remove(flow);
        // Drops the endpoint.
        *self
            .slots
            .get_mut(pos as usize)
            .expect("slot is in the slab") = Slot::Free(self.free_head);
        self.free_head = pos;
        self.live -= 1;
    }

    /// Offers the packet behind `id` to the NIC egress queue chosen by the
    /// host's class map. Returns the queue index on success; on `Err` the
    /// caller keeps the id (and must release it).
    pub fn nic_enqueue(
        &mut self,
        arena: &mut PacketArena,
        id: PacketId,
    ) -> Result<usize, (DropReason, PacketId)> {
        let qidx = self
            .class_map
            .queue_for(arena.get(id).expect("enqueued id is live"));
        match self.nic.enqueue(arena, qidx, id) {
            Ok(()) => Ok(qidx),
            Err(r) => {
                self.counters.nic_drops += 1;
                Err((r, id))
            }
        }
    }
}

/// Scratch buffers a host callback writes into; owned by the simulator and
/// reused across events to avoid per-packet allocation. `tx` stages
/// [`PacketId`]s — the packets themselves are already arena-resident by
/// the time an endpoint hands them over.
#[derive(Default)]
pub struct Scratch {
    /// Ids of packets to transmit.
    pub tx: Vec<PacketId>,
    /// Timer requests, in issue order.
    pub timers: Vec<TimerCmd>,
    /// Application events.
    pub app: Vec<AppEvent>,
    /// Mute hints, in issue order.
    pub mutes: Vec<MuteHint>,
}

impl Scratch {
    /// Empties all buffers, retaining their capacity for the next burst.
    pub fn clear(&mut self) {
        self.tx.clear();
        self.timers.clear();
        self.app.clear();
        self.mutes.clear();
    }

    /// Current backing capacities `(tx, timers, app)` — watched by the
    /// audit layer to prove the buffers are reused, not re-grown, across
    /// bursts.
    pub fn capacities(&self) -> (usize, usize, usize) {
        (
            self.tx.capacity(),
            self.timers.capacity(),
            self.app.capacity(),
        )
    }

    /// Builds an [`EndpointCtx`] over these buffers and the packet arena;
    /// it collects mute hints.
    pub fn ctx<'a>(&'a mut self, now: Time, arena: &'a mut PacketArena) -> EndpointCtx<'a> {
        EndpointCtx::new(now, arena, &mut self.tx, &mut self.timers, &mut self.app)
            .with_mutes(&mut self.mutes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::CTRL_WIRE;
    use crate::packet::{Payload, TrafficClass};
    use crate::port::{PortConfig, QueueSched};
    use crate::queue::QueueConfig;
    use crate::sim::{timer_token, MAX_FLOW_ID};
    use flexpass_simcore::time::{Rate, TimeDelta};
    use flexpass_simcore::units::WireBytes;
    use flexpass_simcore::SimRng;

    fn profile() -> SwitchProfile {
        SwitchProfile {
            port: PortConfig {
                rate: Rate::from_gbps(10),
                queues: vec![
                    (
                        QueueConfig::capped(WireBytes::new(1_000)),
                        QueueSched::strict(0),
                    ),
                    (QueueConfig::plain(), QueueSched::weighted(1, 0.5)),
                    (QueueConfig::plain(), QueueSched::weighted(1, 0.5)),
                ],
            },
            class_map: ClassMap::Split {
                credit: 0,
                new_data: 1,
                new_ctrl: 1,
                legacy: 2,
            },
            shared_buffer: None,
        }
    }

    struct CountEp {
        got: u32,
        done_after: u32,
    }

    impl Endpoint for CountEp {
        fn activate(&mut self, _ctx: &mut EndpointCtx) {}
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {
            self.got += 1;
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
        fn finished(&self) -> bool {
            self.got >= self.done_after
        }
    }

    fn ctrl_pkt(flow: FlowId) -> Packet {
        Packet::new(
            flow,
            1,
            0,
            CTRL_WIRE,
            TrafficClass::NewCtrl,
            Payload::CreditReq { pkts: 0 },
        )
    }

    /// Length of the free list.
    fn free_slots(h: &Host) -> usize {
        let mut n = 0;
        let mut next = h.free_head;
        while let Some(Slot::Free(after)) = h.slots.get(next as usize) {
            n += 1;
            next = *after;
        }
        assert_eq!(next, NO_SLOT, "free list ends at a live slot");
        n
    }

    fn count_ep(done_after: u32) -> Box<dyn Endpoint> {
        Box::new(CountEp { got: 0, done_after })
    }

    /// `deliver` as the simulator performs it: the callback, then the
    /// retirement that ends its flush.
    fn deliver(h: &mut Host, flow: FlowId, scratch: &mut Scratch, arena: &mut PacketArena) -> bool {
        let claimed = h.deliver(&ctrl_pkt(flow), &mut scratch.ctx(Time::ZERO, arena));
        h.retire_finished(&mut EventQueue::<()>::new());
        claimed
    }

    #[test]
    fn delivery_and_cleanup() {
        let mut h = Host::new(0, &profile());
        let mut arena = PacketArena::new();
        let mut scratch = Scratch::default();
        h.register(7, count_ep(2), &mut scratch.ctx(Time::ZERO, &mut arena));
        assert_eq!(h.live_flows(), 1);
        assert!(deliver(&mut h, 7, &mut scratch, &mut arena));
        assert_eq!(h.live_flows(), 1);
        assert!(deliver(&mut h, 7, &mut scratch, &mut arena));
        // Endpoint reached its target and was dropped.
        assert_eq!(h.live_flows(), 0);
        // Late packet counts as stray.
        assert!(!deliver(&mut h, 7, &mut scratch, &mut arena));
        assert_eq!(h.counters().stray_rx, 1);
    }

    #[test]
    fn immediately_finished_endpoint_not_registered() {
        let mut h = Host::new(0, &profile());
        let mut arena = PacketArena::new();
        let mut scratch = Scratch::default();
        h.register(9, count_ep(0), &mut scratch.ctx(Time::ZERO, &mut arena));
        assert_eq!(h.live_flows(), 0);
    }

    /// `Sim` builds 10,240 of these for the scale point: an idle host owns
    /// no table memory, and the first registration takes a four-entry index.
    #[test]
    fn idle_host_owns_no_table_memory() {
        use std::mem::size_of;
        assert_eq!((size_of::<Slot>(), size_of::<IndexEntry>()), (64, 16));
        let mut h = Host::new(0, &profile());
        assert_eq!((h.slots.capacity(), h.index.capacity()), (0, 0));
        let mut arena = PacketArena::new();
        let mut scratch = Scratch::default();
        h.register(1, count_ep(1), &mut scratch.ctx(Time::ZERO, &mut arena));
        assert_eq!((h.slots.len(), h.index.len()), (1, 4));
    }

    /// Registration past half the index doubles it, a freed slot
    /// is reused, and every flow resolves whatever order it arrived in.
    #[test]
    fn table_grows_and_reuses_slots() {
        let mut h = Host::new(0, &profile());
        let mut arena = PacketArena::new();
        let mut scratch = Scratch::default();
        for flow in [9u64, 2, 17, 5, 1 << 40, 33] {
            h.register(flow, count_ep(1), &mut scratch.ctx(Time::ZERO, &mut arena));
        }
        assert_eq!((h.live_flows(), h.slots.len(), h.index.len()), (6, 6, 16));
        assert!(deliver(&mut h, 17, &mut scratch, &mut arena));
        assert_eq!((h.live_flows(), free_slots(&h)), (5, 1));
        h.register(6, count_ep(1), &mut scratch.ctx(Time::ZERO, &mut arena));
        assert_eq!((h.live_flows(), h.slots.len(), free_slots(&h)), (6, 6, 0));
        for flow in [2u64, 5, 6, 9, 33, 1 << 40] {
            assert!(deliver(&mut h, flow, &mut scratch, &mut arena));
        }
        assert!(!deliver(&mut h, 17, &mut scratch, &mut arena));
        assert_eq!((h.live_flows(), h.counters().stray_rx), (0, 1));
    }

    #[test]
    fn nic_classifies_by_class_map() {
        let mut h = Host::new(0, &profile());
        let mut arena = PacketArena::new();
        let id = arena.acquire(ctrl_pkt(1));
        let qi = h.nic_enqueue(&mut arena, id).unwrap();
        assert_eq!(qi, 1);
        let legacy = Packet::new(
            2,
            0,
            1,
            CTRL_WIRE,
            TrafficClass::Legacy,
            Payload::CreditReq { pkts: 0 },
        );
        let id = arena.acquire(legacy);
        assert_eq!(h.nic_enqueue(&mut arena, id).unwrap(), 2);
    }

    #[test]
    fn stale_timer_is_noop() {
        let mut h = Host::new(0, &profile());
        let mut arena = PacketArena::new();
        let mut scratch = Scratch::default();
        let events: EventQueue<u64> = EventQueue::new();
        // No flow 3 registered; must not panic.
        h.fire_timer(
            timer_token(3, 1),
            &events,
            &mut scratch.ctx(Time::ZERO, &mut arena),
        );
    }

    #[test]
    #[should_panic(expected = "at most MAX_ARMED_KINDS")]
    fn a_fifth_armed_kind_is_refused() {
        let mut h = Host::new(0, &profile());
        let mut arena = PacketArena::new();
        let mut scratch = Scratch::default();
        let mut events: EventQueue<u64> = EventQueue::new();
        h.register(1, count_ep(1), &mut scratch.ctx(Time::ZERO, &mut arena));
        let s = h.find(1).expect("registered");
        for kind in 1..=5u16 {
            let hd = events.schedule_cancelable(Time::from_micros(1), timer_token(1, kind));
            h.set_armed(s, kind, hd);
        }
    }

    /// The sorted-`Vec` tables `Host` held before the slab, kept as the
    /// reference model. The method bodies are the ones this file had, with
    /// the one specified difference: a retiring flow's armed entries are
    /// unmuted and forgotten (`retire_finished`), where the old table kept
    /// them until they fired as no-ops.
    struct RefTables {
        flows: Vec<(FlowId, Box<dyn Endpoint>)>,
        armed: Vec<(u64, TimerHandle)>,
        finished: Option<FlowId>,
    }

    impl RefTables {
        fn arm_timer(&mut self, token: u64, hd: TimerHandle) -> Option<TimerHandle> {
            match self.armed.binary_search_by_key(&token, |e| e.0) {
                Ok(pos) => Some(std::mem::replace(&mut self.armed[pos].1, hd)),
                Err(pos) => {
                    self.armed.insert(pos, (token, hd));
                    None
                }
            }
        }

        fn armed_handle(&self, token: u64) -> Option<TimerHandle> {
            match self.armed.binary_search_by_key(&token, |e| e.0) {
                Ok(pos) => Some(self.armed[pos].1),
                Err(_) => None,
            }
        }

        fn take_armed(&mut self, token: u64) -> Option<TimerHandle> {
            match self.armed.binary_search_by_key(&token, |e| e.0) {
                Ok(pos) => Some(self.armed.remove(pos).1),
                Err(_) => None,
            }
        }

        fn flow_pos(&self, flow: FlowId) -> Result<usize, usize> {
            self.flows.binary_search_by_key(&flow, |e| e.0)
        }

        fn register(&mut self, flow: FlowId, mut ep: Box<dyn Endpoint>, ctx: &mut EndpointCtx) {
            ep.activate(ctx);
            if !ep.finished() {
                match self.flow_pos(flow) {
                    Ok(pos) => self.flows[pos].1 = ep,
                    Err(pos) => self.flows.insert(pos, (flow, ep)),
                }
            }
        }

        fn deliver(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) -> bool {
            match self.flow_pos(pkt.flow) {
                Ok(pos) => {
                    let ep = &mut self.flows[pos].1;
                    ep.on_packet(pkt, ctx);
                    if ep.finished() {
                        self.flows.remove(pos);
                        self.finished = Some(pkt.flow);
                    }
                    true
                }
                Err(_) => false,
            }
        }

        fn fire_timer(&mut self, flow: FlowId, token: u64, ctx: &mut EndpointCtx) {
            if let Ok(pos) = self.flow_pos(flow) {
                let ep = &mut self.flows[pos].1;
                ep.on_timer(token, ctx);
                if ep.finished() {
                    self.flows.remove(pos);
                    self.finished = Some(flow);
                }
            }
        }

        fn retire_finished(&mut self, events: &mut EventQueue<u64>) {
            if let Some(flow) = self.finished.take() {
                for &(_, hd) in self.armed.iter().filter(|e| timer_flow(e.0) == flow) {
                    events.unmute(hd);
                }
                self.armed.retain(|e| timer_flow(e.0) != flow);
            }
        }

        /// The old `Sim::flush` timer and mute loops over these tables,
        /// with `Host::settle`'s in-place move of a re-arm to a later
        /// deadline.
        fn settle(&mut self, now: Time, scratch: &mut Scratch, events: &mut EventQueue<u64>) {
            for cmd in scratch.timers.drain(..) {
                match cmd {
                    TimerCmd::Set(at, token) => events.schedule(at.max(now), token),
                    TimerCmd::Arm(at, token) => {
                        let held = self.armed_handle(token);
                        if held.is_some_and(|hd| events.rearm_later(hd, at.max(now))) {
                            continue;
                        }
                        if let Some(old) = self.take_armed(token) {
                            events.cancel(old);
                        }
                        let hd = events.schedule_cancelable(at.max(now), token);
                        self.arm_timer(token, hd);
                    }
                    TimerCmd::Cancel(token) => {
                        if let Some(old) = self.take_armed(token) {
                            events.cancel(old);
                        }
                    }
                }
            }
            for (token, period) in scratch.mutes.drain(..) {
                if let Some(hd) = self.armed_handle(token) {
                    match period {
                        Some(period) => events.mute(hd, period),
                        None => events.unmute(hd),
                    };
                }
            }
            self.retire_finished(events);
        }
    }

    /// Timer kinds a [`ScriptEp`] arms: four, the most a slot holds.
    const KINDS: [u16; MAX_ARMED_KINDS] = [1, 5, 9, 14];

    type CallLog = std::sync::Arc<std::sync::Mutex<Vec<(FlowId, u64)>>>;

    /// The one period every mute hint names (the calendar takes one).
    const MUTE_PERIOD: TimeDelta = TimeDelta::nanos(7_000);

    /// An endpoint driven by its own seeded stream: every callback logs
    /// itself, stages up to three timer commands on its own tokens, now
    /// and then a mute hint, and (outside `activate`) finishes one time in
    /// fifty — in that same callback, commands and all.
    struct ScriptEp {
        flow: FlowId,
        rng: SimRng,
        done: bool,
        log: CallLog,
    }

    impl ScriptEp {
        fn act(&mut self, what: u64, may_finish: bool, ctx: &mut EndpointCtx) {
            assert!(!self.done, "flow {} called after it finished", self.flow);
            self.log.lock().expect("lock").push((self.flow, what));
            for _ in 0..self.rng.next_below(4) {
                let token = timer_token(self.flow, KINDS[self.rng.index(KINDS.len())]);
                let at = ctx.now + TimeDelta::nanos(self.rng.next_below(40_000));
                match self.rng.next_below(5) {
                    0 => ctx.cancel_timer(token),
                    1 => ctx.set_timer(at, token),
                    _ => ctx.arm_timer(at, token),
                }
            }
            if self.rng.chance(0.1) {
                let token = timer_token(self.flow, KINDS[self.rng.index(KINDS.len())]);
                ctx.mute_timer(token, self.rng.chance(0.7).then_some(MUTE_PERIOD));
            }
            self.done = may_finish && self.rng.chance(0.02);
        }
    }

    impl Endpoint for ScriptEp {
        fn activate(&mut self, ctx: &mut EndpointCtx) {
            self.act(u64::MAX, false, ctx);
        }
        fn on_packet(&mut self, _pkt: &Packet, ctx: &mut EndpointCtx) {
            self.act(u64::MAX - 1, true, ctx);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
            self.act(token, true, ctx);
        }
        fn finished(&self) -> bool {
            self.done
        }
    }

    /// The slab table and the reference, each with its own copy of every
    /// endpoint and its own calendar. Both calendars see the same
    /// operations in the same order, so they stay in lockstep and hand out
    /// equal handles.
    struct Pair {
        host: Host,
        reference: RefTables,
        events: [EventQueue<u64>; 2],
        arena: PacketArena,
        scratch: [Scratch; 2],
        logs: [CallLog; 2],
    }

    impl Pair {
        fn endpoint(&self, side: usize, flow: FlowId, salt: u64) -> Box<dyn Endpoint> {
            Box::new(ScriptEp {
                flow,
                rng: SimRng::new(mix64(flow) ^ salt),
                done: false,
                log: self.logs[side].clone(),
            })
        }

        fn register(&mut self, flow: FlowId, salt: u64) {
            let now = self.events[0].now();
            let (a, b) = (self.endpoint(0, flow, salt), self.endpoint(1, flow, salt));
            let [sa, sb] = &mut self.scratch;
            self.host
                .register(flow, a, &mut sa.ctx(now, &mut self.arena));
            self.reference
                .register(flow, b, &mut sb.ctx(now, &mut self.arena));
            self.flush();
        }

        fn deliver(&mut self, flow: FlowId) {
            let now = self.events[0].now();
            let [sa, sb] = &mut self.scratch;
            let pkt = ctrl_pkt(flow);
            let claimed = self.host.deliver(&pkt, &mut sa.ctx(now, &mut self.arena));
            let expect = self
                .reference
                .deliver(&pkt, &mut sb.ctx(now, &mut self.arena));
            assert_eq!(claimed, expect, "flow {flow} claimed by one table only");
            self.flush();
        }

        /// Pops the next timer event from both calendars and fires it: the
        /// reference through the old `Sim::dispatch` arm, verbatim.
        fn fire(&mut self) {
            let [ea, eb] = &mut self.events;
            let popped = ea.pop();
            assert_eq!(popped, eb.pop(), "the calendars diverged");
            let Some((now, token)) = popped else {
                return;
            };
            let [sa, sb] = &mut self.scratch;
            self.host
                .fire_timer(token, ea, &mut sa.ctx(now, &mut self.arena));
            if let Some(hd) = self.reference.armed_handle(token) {
                if !eb.is_pending(hd) {
                    self.reference.take_armed(token);
                }
            }
            self.reference
                .fire_timer(token >> 16, token, &mut sb.ctx(now, &mut self.arena));
            self.flush();
        }

        /// Settles the callback on both sides — the host through
        /// [`Host::settle`], the one `Sim::flush` calls — then the checks:
        /// same endpoint called, same handle armed for every token the
        /// callback named, same table sizes, same calendars.
        fn flush(&mut self) {
            let [sa, sb] = &mut self.scratch;
            assert_eq!(
                (&sa.timers, &sa.mutes),
                (&sb.timers, &sb.mutes),
                "the two copies of an endpoint diverged"
            );
            let [la, lb] = &self.logs;
            assert_eq!(
                std::mem::take(&mut *la.lock().expect("lock")),
                std::mem::take(&mut *lb.lock().expect("lock")),
                "a different endpoint was called"
            );
            let named: Vec<u64> = (sa.timers.iter())
                .map(|cmd| match *cmd {
                    TimerCmd::Set(_, t) | TimerCmd::Arm(_, t) | TimerCmd::Cancel(t) => t,
                })
                .chain(sa.mutes.iter().map(|m| m.0))
                .collect();
            let [ea, eb] = &mut self.events;
            let (h, r) = (&mut self.host, &mut self.reference);
            h.settle(ea.now(), sa, ea, |token| token);
            r.settle(eb.now(), sb, eb);
            sa.clear();
            sb.clear();
            for token in named {
                let armed = h
                    .find(timer_flow(token))
                    .and_then(|s| h.armed(s, timer_kind(token)));
                assert_eq!(armed, r.armed_handle(token), "armed handle of {token:#x}");
            }
            assert_eq!(h.live_flows(), r.flows.len());
            assert_eq!(h.armed_timers(), r.armed.len());
            assert_eq!(
                (ea.len(), ea.cancelled(), ea.deferred()),
                (eb.len(), eb.cancelled(), eb.deferred())
            );
        }
    }

    /// Differential test against the sorted-`Vec` reference: seeded random
    /// register / re-register / deliver / stray / arm / re-arm / cancel /
    /// mute / unmute / fire / finish sequences with at least 1,000 flows
    /// live throughout.
    #[test]
    fn slab_table_matches_sorted_vec_reference() {
        const LIVE: usize = 1_100;
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let mut p = Pair {
                host: Host::new(0, &profile()),
                reference: RefTables {
                    flows: Vec::new(),
                    armed: Vec::new(),
                    finished: None,
                },
                events: [EventQueue::new(), EventQueue::new()],
                arena: PacketArena::new(),
                scratch: Default::default(),
                logs: Default::default(),
            };
            // Every id ever registered: the departed ones draw strays.
            let mut ids: Vec<FlowId> = Vec::new();
            let (mut fired, mut min_live, mut max_armed) = (0u64, usize::MAX, 0);
            for step in 0..60_000u64 {
                if p.host.live_flows() < LIVE {
                    // Dense ids and ids spread over all 48 bits.
                    let flow = if rng.chance(0.5) {
                        step
                    } else {
                        rng.next_u64() & MAX_FLOW_ID
                    };
                    ids.push(flow);
                    p.register(flow, seed);
                    continue;
                }
                min_live = min_live.min(p.host.live_flows());
                max_armed = max_armed.max(p.host.armed_timers());
                let flow = ids[rng.index(ids.len())];
                match rng.next_below(8) {
                    0 => p.register(flow, step),
                    1 | 2 => p.deliver(flow),
                    _ => {
                        p.fire();
                        fired += 1;
                    }
                }
            }
            assert!(min_live >= 1_000, "seed {seed}: only {min_live} flows live");
            assert!(max_armed >= 1_500, "seed {seed}: only {max_armed} armed");
            assert!(fired > 30_000 && p.host.counters().stray_rx > 100);
            assert!(p.events[0].rearmed() > 100, "seed {seed}: mutes never held");
            assert!(
                p.events[0].deferred() > 1_000,
                "seed {seed}: no re-arm moved"
            );
            assert_eq!(
                free_slots(&p.host) + p.host.live_flows(),
                p.host.slots.len()
            );
        }
    }
}
