//! Runtime invariant auditing for the FlexPass simulator.
//!
//! The paper's evaluation claims (FCT distributions, coexistence fairness,
//! drop and credit-waste rates) are only reproducible if the simulator is
//! bit-for-bit deterministic under a fixed seed and exactly conserves bytes,
//! buffer occupancy, and credits. This crate is the runtime half of that
//! contract (the static half is `cargo xtask lint`): a set of ledgers that
//! shadow the simulator's own accounting and report any divergence as a
//! [`Violation`] carrying the offending component, virtual time, and packet.
//!
//! Audited invariants:
//!
//! * **Queue byte conservation** — for every queue, the byte occupancy the
//!   queue reports after each enqueue/dequeue must equal the auditor's own
//!   running sum of admitted minus dequeued wire bytes, and never
//!   underflow. (`bytes enqueued = bytes dequeued + bytes still queued`;
//!   drops never enter the ledger because dropped packets are never
//!   admitted.)
//! * **Shared-buffer bounds** — a switch's claimed shared-buffer usage must
//!   stay within `[0, pool]`.
//! * **Shared-buffer count** — the running byte count a switch admits
//!   against must equal the sum over its dynamically thresholded queues.
//! * **Credit-shaper bounds** — a token bucket's level must stay within
//!   `[0, burst]` after every refill and spend.
//! * **Event order** — event timestamps popped from the calendar must be
//!   monotonically non-decreasing, with FIFO (insertion-order) tie-breaking
//!   for equal timestamps, and no event may be scheduled in the past.
//! * **Flow byte conservation** — end to end, for every flow and globally:
//!   `sender payload bytes out = receiver payload bytes in + dropped +
//!   in-flight`, where in-flight is tracked independently through
//!   queue-admission and wire-departure hooks.
//!
//! # Usage
//!
//! The auditor is thread-local (the simulator is single-threaded per run)
//! and dormant unless installed. Every hook is `#[inline]` and opens by
//! testing a thread-local `Cell<bool>` that `install` sets and `finish` /
//! `take_partial` clear; the ledger work sits behind it in a `#[cold]`
//! out-of-line call. With no auditor installed an instrumented hot path
//! therefore pays one thread-local load and one branch per hook:
//!
//! ```
//! flexpass_simaudit::install();
//! // ... run an instrumented simulation ...
//! let report = flexpass_simaudit::finish();
//! assert!(report.is_clean(), "{report}");
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;

/// Which audited invariant a violation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// A queue's claimed byte occupancy diverged from the audit ledger.
    QueueConservation,
    /// Shared-buffer usage left `[0, pool]`.
    BufferBounds,
    /// A switch's running shared-buffer count diverged from its queues.
    BufferCount,
    /// A token bucket exceeded its burst or went negative.
    CreditShaper,
    /// Event calendar popped out of order (time or FIFO tie-break), or an
    /// event was scheduled in the past.
    EventOrder,
    /// End-to-end flow byte conservation failed at finish.
    FlowConservation,
    /// A reusable scratch buffer's capacity shrank between flushes — it was
    /// replaced (reallocated) instead of reused, breaking the zero-alloc
    /// steady-state contract.
    ScratchReuse,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Invariant::QueueConservation => "queue-conservation",
            Invariant::BufferBounds => "buffer-bounds",
            Invariant::BufferCount => "buffer-count",
            Invariant::CreditShaper => "credit-shaper",
            Invariant::EventOrder => "event-order",
            Invariant::FlowConservation => "flow-conservation",
            Invariant::ScratchReuse => "scratch-reuse",
        };
        f.write_str(s)
    }
}

/// One invariant violation, with enough context to locate the bug.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The invariant that failed.
    pub invariant: Invariant,
    /// The offending component (audit id assigned at creation, in
    /// deterministic creation order).
    pub component: ComponentId,
    /// Virtual time (nanoseconds) of the most recent calendar pop when the
    /// violation was detected.
    pub time_ns: u64,
    /// The packet involved, if any: `(flow id, sequence)`.
    pub packet: Option<(u64, u64)>,
    /// Human-readable specifics (expected vs observed values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] component #{} at t={}ns",
            self.invariant, self.component.0, self.time_ns
        )?;
        if let Some((flow, seq)) = self.packet {
            write!(f, " pkt(flow={flow}, seq={seq})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Identity of an audited component (queue, shaper, switch, calendar),
/// assigned in creation order so ids are deterministic under a fixed seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ComponentId(pub u64);

/// The facts a hook needs about one packet.
#[derive(Clone, Copy, Debug)]
pub struct PktInfo {
    /// Flow id.
    pub flow: u64,
    /// A per-flow sequence (data packets) or 0.
    pub seq: u64,
    /// True for data-bearing packets (these enter flow conservation).
    pub data: bool,
    /// Application payload bytes (0 for control).
    pub payload_bytes: u64,
    /// On-the-wire bytes.
    pub wire_bytes: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct QueueLedger {
    /// Wire bytes the ledger believes are queued.
    wire_occ: u64,
    /// Cumulative admitted wire bytes.
    enq_bytes: u64,
    /// Cumulative dequeued wire bytes.
    deq_bytes: u64,
    /// Packets admitted.
    enq_pkts: u64,
    /// Packets dequeued.
    deq_pkts: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct FlowLedger {
    /// Payload bytes senders handed to their NIC.
    tx_bytes: u64,
    /// Payload bytes that arrived at a host.
    rx_bytes: u64,
    /// Payload bytes reported dropped (any reason, any hop).
    dropped_bytes: u64,
    /// Payload bytes currently in queues or on the wire, per the hooks.
    inflight_bytes: i64,
}

/// Aggregate counters the auditor collected (useful as a cheap digest).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditCounters {
    /// Calendar events popped.
    pub events: u64,
    /// Packets admitted across all queues.
    pub enqueues: u64,
    /// Packets dequeued across all queues.
    pub dequeues: u64,
    /// Data payload bytes sent by endpoints.
    pub flow_tx_bytes: u64,
    /// Data payload bytes received by hosts.
    pub flow_rx_bytes: u64,
    /// Data payload bytes dropped.
    pub flow_dropped_bytes: u64,
    /// Events scheduled in the past of virtual time (release builds clamp
    /// these to "now"; each is also an [`Invariant::EventOrder`] violation).
    pub schedule_clamps: u64,
    /// Times a tracked scratch buffer grew its capacity. Warm-up growth is
    /// expected; steady-state growth means the datapath still allocates.
    pub scratch_grows: u64,
}

/// Everything the auditor learned over one run.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Recorded violations, in detection order (capped; see
    /// [`AuditReport::total_violations`]).
    pub violations: Vec<Violation>,
    /// Total violations detected, including any beyond the recording cap.
    pub total_violations: u64,
    /// Aggregate counters.
    pub counters: AuditCounters,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} violation(s), {} events, {} enq / {} deq, flow bytes tx={} rx={} dropped={}",
            self.total_violations,
            self.counters.events,
            self.counters.enqueues,
            self.counters.dequeues,
            self.counters.flow_tx_bytes,
            self.counters.flow_rx_bytes,
            self.counters.flow_dropped_bytes,
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if self.total_violations as usize > self.violations.len() {
            writeln!(
                f,
                "  ... and {} more",
                self.total_violations as usize - self.violations.len()
            )?;
        }
        Ok(())
    }
}

/// Cap on stored violations; the total count keeps incrementing past it.
const MAX_RECORDED: usize = 64;

#[derive(Default)]
struct Auditor {
    queues: BTreeMap<u64, QueueLedger>,
    flows: BTreeMap<u64, FlowLedger>,
    /// Last reported total scratch capacity per component.
    scratch_caps: BTreeMap<u64, u64>,
    violations: Vec<Violation>,
    total_violations: u64,
    counters: AuditCounters,
    /// Virtual time of the last calendar pop.
    now_ns: u64,
    /// Sequence number of the last calendar pop.
    last_seq: u64,
    any_pop: bool,
}

thread_local! {
    static AUDITOR: RefCell<Option<Auditor>> = const { RefCell::new(None) };
    /// Whether `AUDITOR` holds an auditor: what the hooks test.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static NEXT_COMPONENT: RefCell<u64> = const { RefCell::new(0) };
}

/// Allocates a component id. Always available (independent of whether an
/// auditor is installed) so components created before `install()` still get
/// deterministic identities; the counter is thread-local, hence stable
/// under `cargo test`'s thread-per-test model.
pub fn new_component_id() -> ComponentId {
    NEXT_COMPONENT.with(|c| {
        let mut c = c.borrow_mut();
        *c += 1;
        ComponentId(*c)
    })
}

/// Starts auditing on this thread. Replaces any previous auditor.
pub fn install() {
    AUDITOR.with(|a| *a.borrow_mut() = Some(Auditor::default()));
    ACTIVE.set(true);
}

/// True when an auditor is installed on this thread.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.get()
}

/// Detaches this thread's auditor, if any, and lowers the hooks' flag.
fn uninstall() -> Option<Auditor> {
    ACTIVE.set(false);
    AUDITOR.with(|a| a.borrow_mut().take())
}

/// Runs the final conservation checks, uninstalls the auditor, and returns
/// its report.
///
/// # Panics
///
/// Panics if no auditor is installed.
pub fn finish() -> AuditReport {
    let mut aud = uninstall().expect("simaudit::finish() without install()");
    aud.final_checks();
    AuditReport {
        violations: aud.violations,
        total_violations: aud.total_violations,
        counters: aud.counters,
    }
}

/// One domain thread's auditor state, detached without running the final
/// conservation checks. A partitioned run splits one logical simulation
/// across threads; a packet mid-handoff between domains is in flight in
/// *neither* thread's ledger, so per-thread final checks would report
/// phantom conservation failures. Instead each domain thread detaches its
/// state with [`take_partial`], the parent absorbs all of them with
/// [`absorb_partial`] (restoring global ledgers in which every byte is
/// accounted for), and the parent's own `finish()` runs the checks once.
pub struct PartialAudit(Auditor);

/// Uninstalls this thread's auditor *without* final checks and returns its
/// raw state for merging on another thread, or `None` when no auditor is
/// installed here.
pub fn take_partial() -> Option<PartialAudit> {
    uninstall().map(PartialAudit)
}

/// Merges a domain thread's partial state into this thread's auditor.
/// A no-op when no auditor is installed.
pub fn absorb_partial(p: PartialAudit) {
    if is_active() {
        with_auditor(|a| a.merge(p.0));
    }
}

/// The recording side of a hook; callers have tested [`is_active`].
#[cold]
#[inline(never)]
fn with_auditor(f: impl FnOnce(&mut Auditor)) {
    AUDITOR.with(|a| {
        if let Some(aud) = a.borrow_mut().as_mut() {
            f(aud);
        }
    });
}

impl Auditor {
    fn violate(
        &mut self,
        invariant: Invariant,
        component: ComponentId,
        packet: Option<(u64, u64)>,
        detail: String,
    ) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation {
                invariant,
                component,
                time_ns: self.now_ns,
                packet,
                detail,
            });
        }
    }

    /// Folds another auditor's ledgers into this one. Queue and flow
    /// ledgers sum fieldwise (they are disjoint in practice — component
    /// ids are unique and a split flow's two halves touch different
    /// ledger fields — but summing is correct either way). Violations
    /// concatenate up to the recording cap; virtual time takes the max;
    /// the event-order cursor (`last_seq`/`any_pop`) keeps this
    /// auditor's own view, since merged pops were ordered per-thread.
    fn merge(&mut self, other: Auditor) {
        for (qid, l) in other.queues {
            let e = self.queues.entry(qid).or_default();
            e.wire_occ += l.wire_occ;
            e.enq_bytes += l.enq_bytes;
            e.deq_bytes += l.deq_bytes;
            e.enq_pkts += l.enq_pkts;
            e.deq_pkts += l.deq_pkts;
        }
        for (fid, l) in other.flows {
            let e = self.flows.entry(fid).or_default();
            e.tx_bytes += l.tx_bytes;
            e.rx_bytes += l.rx_bytes;
            e.dropped_bytes += l.dropped_bytes;
            e.inflight_bytes += l.inflight_bytes;
        }
        for (cid, cap) in other.scratch_caps {
            let e = self.scratch_caps.entry(cid).or_default();
            *e = (*e).max(cap);
        }
        for v in other.violations {
            if self.violations.len() < MAX_RECORDED {
                self.violations.push(v);
            }
        }
        self.total_violations += other.total_violations;
        self.counters.events += other.counters.events;
        self.counters.enqueues += other.counters.enqueues;
        self.counters.dequeues += other.counters.dequeues;
        self.counters.flow_tx_bytes += other.counters.flow_tx_bytes;
        self.counters.flow_rx_bytes += other.counters.flow_rx_bytes;
        self.counters.flow_dropped_bytes += other.counters.flow_dropped_bytes;
        self.counters.schedule_clamps += other.counters.schedule_clamps;
        self.counters.scratch_grows += other.counters.scratch_grows;
        self.now_ns = self.now_ns.max(other.now_ns);
    }

    fn final_checks(&mut self) {
        // Per-flow conservation: tx = rx + dropped + in-flight.
        let flows: Vec<(u64, FlowLedger)> = self.flows.iter().map(|(k, v)| (*k, *v)).collect();
        for (flow, l) in flows {
            let accounted = l.rx_bytes as i64 + l.dropped_bytes as i64 + l.inflight_bytes;
            if l.tx_bytes as i64 != accounted || l.inflight_bytes < 0 {
                self.violate(
                    Invariant::FlowConservation,
                    ComponentId(0),
                    Some((flow, 0)),
                    format!(
                        "flow {flow}: tx {} != rx {} + dropped {} + inflight {}",
                        l.tx_bytes, l.rx_bytes, l.dropped_bytes, l.inflight_bytes
                    ),
                );
            }
        }
        // Queue ledger identity: admitted = dequeued + still queued.
        let queues: Vec<(u64, QueueLedger)> = self.queues.iter().map(|(k, v)| (*k, *v)).collect();
        for (qid, l) in queues {
            if l.enq_bytes != l.deq_bytes + l.wire_occ {
                self.violate(
                    Invariant::QueueConservation,
                    ComponentId(qid),
                    None,
                    format!(
                        "queue ledger: enq {} != deq {} + occupancy {}",
                        l.enq_bytes, l.deq_bytes, l.wire_occ
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hooks. Each tests the thread's flag first and is a no-op unless an
// auditor is installed.
// ---------------------------------------------------------------------------

/// A calendar event was popped at `time_ns` with insertion sequence `seq`.
#[inline]
pub fn on_event_pop(time_ns: u64, seq: u64) {
    if !is_active() {
        return;
    }
    with_auditor(|a| {
        a.counters.events += 1;
        if a.any_pop {
            if time_ns < a.now_ns {
                a.violate(
                    Invariant::EventOrder,
                    ComponentId(0),
                    None,
                    format!("popped t={time_ns}ns after t={}ns", a.now_ns),
                );
            } else if time_ns == a.now_ns && seq <= a.last_seq {
                a.violate(
                    Invariant::EventOrder,
                    ComponentId(0),
                    None,
                    format!(
                        "FIFO tie-break broken at t={time_ns}ns: seq {seq} after {}",
                        a.last_seq
                    ),
                );
            }
        }
        a.any_pop = true;
        a.now_ns = time_ns;
        a.last_seq = seq;
    });
}

/// An event was offered to the calendar for `time_ns` while virtual time
/// was `now_ns`.
#[inline]
pub fn on_event_schedule(time_ns: u64, now_ns: u64) {
    if !is_active() {
        return;
    }
    with_auditor(|a| {
        if time_ns < now_ns {
            a.counters.schedule_clamps += 1;
            a.violate(
                Invariant::EventOrder,
                ComponentId(0),
                None,
                format!("scheduled t={time_ns}ns in the past of t={now_ns}ns"),
            );
        }
    });
}

/// Queue `q` admitted `pkt` and now claims `queue_bytes_after` queued wire
/// bytes.
#[inline]
pub fn on_enqueue(q: ComponentId, pkt: PktInfo, queue_bytes_after: u64) {
    if !is_active() {
        return;
    }
    with_auditor(|a| {
        a.counters.enqueues += 1;
        let l = a.queues.entry(q.0).or_default();
        l.wire_occ += pkt.wire_bytes;
        l.enq_bytes += pkt.wire_bytes;
        l.enq_pkts += 1;
        let expect = l.wire_occ;
        if queue_bytes_after != expect {
            a.violate(
                Invariant::QueueConservation,
                q,
                Some((pkt.flow, pkt.seq)),
                format!("enqueue: queue claims {queue_bytes_after} B, ledger {expect} B"),
            );
        }
        if pkt.data {
            a.flows.entry(pkt.flow).or_default().inflight_bytes += pkt.payload_bytes as i64;
        }
    });
}

/// Queue `q` dequeued `pkt` and now claims `queue_bytes_after` queued wire
/// bytes. The packet is about to serialize onto the wire, so per-flow
/// in-flight accounting is unchanged (it moves from "queued" to "on wire"
/// within the same hook pair).
#[inline]
pub fn on_dequeue(q: ComponentId, pkt: PktInfo, queue_bytes_after: u64) {
    if !is_active() {
        return;
    }
    with_auditor(|a| {
        a.counters.dequeues += 1;
        let l = a.queues.entry(q.0).or_default();
        if l.wire_occ < pkt.wire_bytes {
            let occ = l.wire_occ;
            a.violate(
                Invariant::QueueConservation,
                q,
                Some((pkt.flow, pkt.seq)),
                format!(
                    "dequeue of {} B underflows ledger occupancy {occ} B",
                    pkt.wire_bytes
                ),
            );
            return;
        }
        l.wire_occ -= pkt.wire_bytes;
        l.deq_bytes += pkt.wire_bytes;
        l.deq_pkts += 1;
        let expect = l.wire_occ;
        if queue_bytes_after != expect {
            a.violate(
                Invariant::QueueConservation,
                q,
                Some((pkt.flow, pkt.seq)),
                format!("dequeue: queue claims {queue_bytes_after} B, ledger {expect} B"),
            );
        }
        if pkt.data {
            a.flows.entry(pkt.flow).or_default().inflight_bytes -= pkt.payload_bytes as i64;
        }
    });
}

/// Switch `sw` reports `used` of `pool` shared-buffer bytes in use.
#[inline]
pub fn on_shared_buffer(sw: ComponentId, used: u64, pool: u64) {
    if !is_active() {
        return;
    }
    with_auditor(|a| {
        if used > pool {
            a.violate(
                Invariant::BufferBounds,
                sw,
                None,
                format!("shared buffer {used} B exceeds pool {pool} B"),
            );
        }
    });
}

/// Switch `sw` counts `counted` shared-buffer bytes in use while its
/// dynamically thresholded queues hold `queued` between them.
#[inline]
pub fn on_shared_count(sw: ComponentId, counted: u64, queued: u64) {
    if !is_active() {
        return;
    }
    with_auditor(|a| {
        if counted != queued {
            a.violate(
                Invariant::BufferCount,
                sw,
                None,
                format!("shared-buffer count {counted} B, queues hold {queued} B"),
            );
        }
    });
}

/// Token bucket `shaper` holds `tokens` of at most `burst` (both in
/// bit-nanoseconds; see `simnet::port`). Called after refills and spends.
#[inline]
pub fn on_shaper_tokens(shaper: ComponentId, tokens: u128, burst: u128) {
    if !is_active() {
        return;
    }
    with_auditor(|a| {
        if tokens > burst {
            a.violate(
                Invariant::CreditShaper,
                shaper,
                None,
                format!("token bucket holds {tokens} > burst {burst} (bit-ns)"),
            );
        }
    });
}

/// A data packet of `pkt.flow` left a sender endpoint towards its NIC.
#[inline]
pub fn on_flow_tx(pkt: PktInfo) {
    if !is_active() || !pkt.data {
        return;
    }
    with_auditor(|a| {
        a.counters.flow_tx_bytes += pkt.payload_bytes;
        a.flows.entry(pkt.flow).or_default().tx_bytes += pkt.payload_bytes;
    });
}

/// A data packet arrived at a host (whether or not an endpoint claimed it).
#[inline]
pub fn on_flow_rx(pkt: PktInfo) {
    if !is_active() || !pkt.data {
        return;
    }
    with_auditor(|a| {
        a.counters.flow_rx_bytes += pkt.payload_bytes;
        a.flows.entry(pkt.flow).or_default().rx_bytes += pkt.payload_bytes;
    });
}

/// A data packet was dropped (queue cap, shared buffer, selective red,
/// or injected loss).
#[inline]
pub fn on_flow_drop(pkt: PktInfo) {
    if !is_active() || !pkt.data {
        return;
    }
    with_auditor(|a| {
        a.counters.flow_dropped_bytes += pkt.payload_bytes;
        a.flows.entry(pkt.flow).or_default().dropped_bytes += pkt.payload_bytes;
    });
}

/// A data packet started propagating on a link (scheduled to arrive).
#[inline]
pub fn on_wire_depart(pkt: PktInfo) {
    if !is_active() || !pkt.data {
        return;
    }
    with_auditor(|a| {
        a.flows.entry(pkt.flow).or_default().inflight_bytes += pkt.payload_bytes as i64;
    });
}

/// Component `c` reports the total capacity of its reusable scratch
/// buffers after a flush. Capacity may grow (warm-up) — each growth bumps
/// [`AuditCounters::scratch_grows`] — but must never shrink: a shrink means
/// the buffer was replaced with a fresh allocation instead of being reused.
#[inline]
pub fn on_scratch_capacity(c: ComponentId, cap: u64) {
    if !is_active() {
        return;
    }
    with_auditor(|a| {
        let last = a.scratch_caps.get(&c.0).copied().unwrap_or(0);
        if cap < last {
            a.violate(
                Invariant::ScratchReuse,
                c,
                None,
                format!(
                    "scratch capacity shrank from {last} to {cap} (buffer replaced, not reused)"
                ),
            );
        } else if cap > last {
            a.counters.scratch_grows += 1;
        }
        a.scratch_caps.insert(c.0, cap);
    });
}

/// A packet finished propagating and reached a node.
#[inline]
pub fn on_wire_arrive(pkt: PktInfo) {
    if !is_active() || !pkt.data {
        return;
    }
    with_auditor(|a| {
        a.flows.entry(pkt.flow).or_default().inflight_bytes -= pkt.payload_bytes as i64;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_pkt(flow: u64, seq: u64, payload: u64, wire: u64) -> PktInfo {
        PktInfo {
            flow,
            seq,
            data: true,
            payload_bytes: payload,
            wire_bytes: wire,
        }
    }

    #[test]
    fn clean_run_has_no_violations() {
        install();
        let q = new_component_id();
        let p = data_pkt(1, 0, 1460, 1538);
        on_flow_tx(p);
        on_enqueue(q, p, 1538);
        on_dequeue(q, p, 0);
        on_wire_depart(p);
        on_wire_arrive(p);
        on_flow_rx(p);
        on_event_pop(10, 0);
        on_event_pop(10, 1);
        on_event_pop(20, 0);
        let report = finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.counters.flow_tx_bytes, 1460);
        assert_eq!(report.counters.flow_rx_bytes, 1460);
    }

    #[test]
    fn occupancy_mismatch_detected() {
        install();
        let q = new_component_id();
        let p = data_pkt(2, 7, 100, 120);
        on_enqueue(q, p, 999); // queue claims the wrong occupancy
        let report = finish();
        assert!(!report.is_clean());
        assert_eq!(report.violations[0].invariant, Invariant::QueueConservation);
        assert_eq!(report.violations[0].packet, Some((2, 7)));
    }

    #[test]
    fn lost_bytes_break_flow_conservation() {
        install();
        let p = data_pkt(3, 0, 1000, 1078);
        on_flow_tx(p);
        // Never received, dropped, or left in flight: conservation fails.
        let report = finish();
        assert!(!report.is_clean());
        assert_eq!(report.violations[0].invariant, Invariant::FlowConservation);
    }

    #[test]
    fn dropped_bytes_balance() {
        install();
        let q = new_component_id();
        let p = data_pkt(4, 1, 500, 578);
        on_flow_tx(p);
        on_enqueue(q, p, 578);
        on_dequeue(q, p, 0);
        on_wire_depart(p);
        on_wire_arrive(p);
        on_flow_drop(p); // injected loss at the receiving switch
        let report = finish();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn event_order_violations_detected() {
        install();
        on_event_pop(100, 0);
        on_event_pop(50, 1); // time went backwards
        on_event_pop(50, 1); // and a FIFO tie-break repeat
        on_event_schedule(10, 50); // schedule in the past
        let report = finish();
        assert_eq!(report.total_violations, 3);
        assert!(report
            .violations
            .iter()
            .all(|v| v.invariant == Invariant::EventOrder));
    }

    #[test]
    fn shaper_and_buffer_bounds() {
        install();
        let s = new_component_id();
        on_shaper_tokens(s, 10, 100);
        on_shaper_tokens(s, 101, 100);
        on_shared_buffer(s, 5, 10);
        on_shared_buffer(s, 11, 10);
        on_shared_count(s, 7, 7);
        on_shared_count(s, 7, 8);
        let report = finish();
        assert_eq!(report.total_violations, 3);
        assert_eq!(report.violations[2].invariant, Invariant::BufferCount);
    }

    #[test]
    fn scratch_capacity_may_grow_but_not_shrink() {
        install();
        let c = new_component_id();
        on_scratch_capacity(c, 0); // empty at start
        on_scratch_capacity(c, 64); // warm-up growth
        on_scratch_capacity(c, 64); // steady state: reused, no growth
        on_scratch_capacity(c, 128); // more warm-up growth
        let report = finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.counters.scratch_grows, 2);

        install();
        let c = new_component_id();
        on_scratch_capacity(c, 128);
        on_scratch_capacity(c, 16); // buffer replaced with a fresh allocation
        let report = finish();
        assert!(!report.is_clean());
        assert_eq!(report.violations[0].invariant, Invariant::ScratchReuse);
    }

    #[test]
    fn split_flow_conserves_after_partial_merge() {
        // Sender half audited on one "thread state", receiver half on
        // another; each alone would fail conservation, the merge is clean.
        install();
        let p = data_pkt(9, 0, 1460, 1538);
        on_flow_tx(p);
        on_wire_depart(p);
        let sender_half = take_partial().expect("installed");

        install();
        on_wire_arrive(p);
        on_flow_rx(p);
        let receiver_half = take_partial().expect("installed");

        install();
        absorb_partial(sender_half);
        absorb_partial(receiver_half);
        let report = finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.counters.flow_tx_bytes, 1460);
        assert_eq!(report.counters.flow_rx_bytes, 1460);
    }

    #[test]
    fn partial_merge_carries_violations_and_counters() {
        install();
        on_event_pop(100, 0);
        on_event_pop(50, 0); // time went backwards: one violation
        let bad = take_partial().expect("installed");

        install();
        on_event_pop(10, 0);
        absorb_partial(bad);
        let report = finish();
        assert_eq!(report.total_violations, 1);
        assert_eq!(report.counters.events, 3);
    }

    #[test]
    fn take_partial_without_install_is_none() {
        assert!(take_partial().is_none());
    }

    #[test]
    fn inactive_hooks_record_nothing() {
        // No install(): nothing panics, and nothing is kept for a later
        // auditor to find.
        on_event_pop(5, 0);
        on_flow_tx(data_pkt(1, 0, 10, 20));
        on_enqueue(new_component_id(), data_pkt(1, 0, 10, 20), 999);
        assert!(!is_active());
        install();
        let report = finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.counters, AuditCounters::default());
    }

    #[test]
    fn active_flag_follows_install_and_finish() {
        assert!(!is_active());
        install();
        assert!(is_active());
        install(); // replacing an auditor keeps the hooks armed
        assert!(is_active());
        let _ = finish();
        assert!(!is_active());
    }

    /// The `--par-sim` protocol: a domain thread installs, runs, detaches
    /// its state; the parent absorbs it into its own auditor. The flag the
    /// hooks test is per thread and follows each step.
    #[test]
    fn active_flag_follows_partial_handoff_between_threads() {
        let partial = std::thread::spawn(|| {
            assert!(!is_active());
            install();
            assert!(is_active());
            on_event_pop(1, 0);
            let partial = take_partial().expect("installed");
            assert!(!is_active());
            on_event_pop(2, 1); // detached: not recorded anywhere
            partial
        })
        .join()
        .expect("domain thread");
        assert!(!is_active(), "a domain thread's install armed the parent");
        install();
        absorb_partial(partial);
        assert!(is_active());
        let report = finish();
        assert_eq!(report.counters.events, 1);
        assert!(!is_active());
    }
}
