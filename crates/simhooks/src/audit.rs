//! The auditor sink: runtime invariant checks.
//!
//! The paper's evaluation claims (FCT distributions, coexistence fairness,
//! drop and credit-waste rates) are only reproducible if the simulator is
//! bit-for-bit deterministic under a fixed seed and exactly conserves bytes,
//! buffer occupancy, and credits. The auditor is the runtime half of that
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
//! ```
//! flexpass_simhooks::audit::install();
//! // ... run an instrumented simulation ...
//! let report = flexpass_simhooks::audit::finish();
//! assert!(report.is_clean(), "{report}");
//! ```

use std::collections::BTreeMap;
use std::fmt;

pub use crate::ComponentId;
use crate::{arm, armed_for, disarm, with_state, PktInfo, AUDIT};

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
    /// The offending component (id assigned at creation, in deterministic
    /// creation order).
    pub component: ComponentId,
    /// Virtual time (nanoseconds) of the most recent calendar pop when the
    /// violation was detected.
    pub time_ns: u64,
    /// The packet involved, if any: `(flow id, sequence)`.
    pub packet: Option<(u64, i64)>,
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

/// The component of a violation that belongs to the run as a whole.
const RUN: ComponentId = ComponentId(0);

#[derive(Default)]
pub(crate) struct Auditor {
    queues: BTreeMap<u64, QueueLedger>,
    flows: BTreeMap<u64, FlowLedger>,
    /// Last reported total scratch capacity per component.
    scratch_caps: BTreeMap<u64, u64>,
    violations: Vec<Violation>,
    total_violations: u64,
    counters: AuditCounters,
    /// Sequence number of the last calendar pop.
    last_seq: u64,
    any_pop: bool,
}

/// Starts auditing on this thread. Replaces any previous auditor.
pub fn install() {
    arm(AUDIT, |s| s.auditor = Some(Auditor::default()));
}

/// True when an auditor is installed on this thread.
#[inline]
pub fn is_active() -> bool {
    armed_for(AUDIT)
}

/// Runs the final conservation checks, uninstalls the auditor, and returns
/// its report.
///
/// # Panics
///
/// Panics if no auditor is installed.
pub fn finish() -> AuditReport {
    let (aud, clock) = disarm(AUDIT, |s| (s.auditor.take(), s.clock_ns));
    let mut aud = aud.expect("audit::finish() without install()");
    aud.final_checks(clock);
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
pub struct PartialAudit(Auditor, u64);

/// Uninstalls this thread's auditor *without* final checks and returns its
/// raw state for merging on another thread, or `None` when no auditor is
/// installed here.
pub fn take_partial() -> Option<PartialAudit> {
    disarm(AUDIT, |s| Some(PartialAudit(s.auditor.take()?, s.clock_ns)))
}

/// Merges a domain thread's partial state into this thread's auditor;
/// virtual time takes the later of the two clocks. A no-op when no auditor
/// is installed.
pub fn absorb_partial(p: PartialAudit) {
    if is_active() {
        with_state(|s| {
            if let Some(a) = s.auditor.as_mut() {
                a.merge(p.0);
                s.clock_ns = s.clock_ns.max(p.1);
            }
        });
    }
}

impl Auditor {
    fn violate(
        &mut self,
        now_ns: u64,
        invariant: Invariant,
        component: ComponentId,
        packet: Option<(u64, i64)>,
        detail: String,
    ) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation {
                invariant,
                component,
                time_ns: now_ns,
                packet,
                detail,
            });
        }
    }

    /// Folds another auditor's ledgers into this one. Queue and flow
    /// ledgers sum fieldwise (they are disjoint in practice — component
    /// ids are unique and a split flow's two halves touch different
    /// ledger fields — but summing is correct either way). Violations
    /// concatenate up to the recording cap; the event-order cursor
    /// (`last_seq`/`any_pop`) keeps this auditor's own view, since merged
    /// pops were ordered per-thread.
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
    }

    fn final_checks(&mut self, now_ns: u64) {
        // Per-flow conservation: tx = rx + dropped + in-flight.
        for (flow, l) in std::mem::take(&mut self.flows) {
            let accounted = l.rx_bytes as i64 + l.dropped_bytes as i64 + l.inflight_bytes;
            if l.tx_bytes as i64 != accounted || l.inflight_bytes < 0 {
                let detail = format!(
                    "flow {flow}: tx {} != rx {} + dropped {} + inflight {}",
                    l.tx_bytes, l.rx_bytes, l.dropped_bytes, l.inflight_bytes
                );
                self.violate(
                    now_ns,
                    Invariant::FlowConservation,
                    RUN,
                    Some((flow, 0)),
                    detail,
                );
            }
        }
        // Queue ledger identity: admitted = dequeued + still queued.
        for (qid, l) in std::mem::take(&mut self.queues) {
            if l.enq_bytes != l.deq_bytes + l.wire_occ {
                let detail = format!(
                    "queue ledger: enq {} != deq {} + occupancy {}",
                    l.enq_bytes, l.deq_bytes, l.wire_occ
                );
                self.violate(
                    now_ns,
                    Invariant::QueueConservation,
                    ComponentId(qid),
                    None,
                    detail,
                );
            }
        }
    }

    // -----------------------------------------------------------------------
    // One method per hook; `now_ns` is the clock, the time of the previous
    // calendar pop. The hooks run in the calling crate, so the methods that
    // are a bare comparison on every event or packet are `#[inline]`.
    // -----------------------------------------------------------------------

    #[inline]
    pub(crate) fn event_pop(&mut self, now_ns: u64, time_ns: u64, seq: u64) {
        self.counters.events += 1;
        if self.any_pop {
            if time_ns < now_ns {
                let detail = format!("popped t={time_ns}ns after t={now_ns}ns");
                self.violate(now_ns, Invariant::EventOrder, RUN, None, detail);
            } else if time_ns == now_ns && seq <= self.last_seq {
                let last = self.last_seq;
                let detail =
                    format!("FIFO tie-break broken at t={time_ns}ns: seq {seq} after {last}");
                self.violate(now_ns, Invariant::EventOrder, RUN, None, detail);
            }
        }
        self.any_pop = true;
        self.last_seq = seq;
    }

    #[inline]
    pub(crate) fn event_schedule(&mut self, clock_ns: u64, time_ns: u64, now_ns: u64) {
        if time_ns < now_ns {
            self.counters.schedule_clamps += 1;
            let detail = format!("scheduled t={time_ns}ns in the past of t={now_ns}ns");
            self.violate(clock_ns, Invariant::EventOrder, RUN, None, detail);
        }
    }

    pub(crate) fn enqueue(&mut self, now_ns: u64, q: ComponentId, pkt: PktInfo, bytes_after: u64) {
        self.counters.enqueues += 1;
        let l = self.queues.entry(q.0).or_default();
        l.wire_occ += pkt.wire_bytes;
        l.enq_bytes += pkt.wire_bytes;
        l.enq_pkts += 1;
        let expect = l.wire_occ;
        if bytes_after != expect {
            let detail = format!("enqueue: queue claims {bytes_after} B, ledger {expect} B");
            self.violate(
                now_ns,
                Invariant::QueueConservation,
                q,
                Some((pkt.flow, pkt.seq)),
                detail,
            );
        }
        if pkt.data {
            self.flows.entry(pkt.flow).or_default().inflight_bytes += pkt.payload_bytes as i64;
        }
    }

    /// The packet is about to serialize onto the wire, so per-flow
    /// in-flight accounting is unchanged (it moves from "queued" to "on
    /// wire" within the dequeue/wire-depart hook pair).
    pub(crate) fn dequeue(&mut self, now_ns: u64, q: ComponentId, pkt: PktInfo, bytes_after: u64) {
        self.counters.dequeues += 1;
        let l = self.queues.entry(q.0).or_default();
        if l.wire_occ < pkt.wire_bytes {
            let occ = l.wire_occ;
            let detail = format!(
                "dequeue of {} B underflows ledger occupancy {occ} B",
                pkt.wire_bytes
            );
            self.violate(
                now_ns,
                Invariant::QueueConservation,
                q,
                Some((pkt.flow, pkt.seq)),
                detail,
            );
            return;
        }
        l.wire_occ -= pkt.wire_bytes;
        l.deq_bytes += pkt.wire_bytes;
        l.deq_pkts += 1;
        let expect = l.wire_occ;
        if bytes_after != expect {
            let detail = format!("dequeue: queue claims {bytes_after} B, ledger {expect} B");
            self.violate(
                now_ns,
                Invariant::QueueConservation,
                q,
                Some((pkt.flow, pkt.seq)),
                detail,
            );
        }
        if pkt.data {
            self.flows.entry(pkt.flow).or_default().inflight_bytes -= pkt.payload_bytes as i64;
        }
    }

    #[inline]
    pub(crate) fn shared_buffer(&mut self, now_ns: u64, sw: ComponentId, used: u64, pool: u64) {
        if used > pool {
            let detail = format!("shared buffer {used} B exceeds pool {pool} B");
            self.violate(now_ns, Invariant::BufferBounds, sw, None, detail);
        }
    }

    #[inline]
    pub(crate) fn shared_count(&mut self, now_ns: u64, sw: ComponentId, counted: u64, queued: u64) {
        if counted != queued {
            let detail = format!("shared-buffer count {counted} B, queues hold {queued} B");
            self.violate(now_ns, Invariant::BufferCount, sw, None, detail);
        }
    }

    #[inline]
    pub(crate) fn shaper_tokens(&mut self, now_ns: u64, c: ComponentId, tokens: u128, burst: u128) {
        if tokens > burst {
            let detail = format!("token bucket holds {tokens} > burst {burst} (bit-ns)");
            self.violate(now_ns, Invariant::CreditShaper, c, None, detail);
        }
    }

    /// Capacity may grow (warm-up) — each growth bumps
    /// [`AuditCounters::scratch_grows`] — but must never shrink: a shrink
    /// means the buffer was replaced with a fresh allocation instead of
    /// being reused.
    pub(crate) fn scratch_capacity(&mut self, now_ns: u64, c: ComponentId, cap: u64) {
        let last = self.scratch_caps.get(&c.0).copied().unwrap_or(0);
        if cap < last {
            let detail = format!(
                "scratch capacity shrank from {last} to {cap} (buffer replaced, not reused)"
            );
            self.violate(now_ns, Invariant::ScratchReuse, c, None, detail);
        } else if cap > last {
            self.counters.scratch_grows += 1;
        }
        self.scratch_caps.insert(c.0, cap);
    }

    // The flow hooks below see data packets only, save `flow_drop`, which
    // sees every dropped packet.

    pub(crate) fn flow_tx(&mut self, pkt: PktInfo) {
        self.counters.flow_tx_bytes += pkt.payload_bytes;
        self.flows.entry(pkt.flow).or_default().tx_bytes += pkt.payload_bytes;
    }

    pub(crate) fn flow_rx(&mut self, pkt: PktInfo) {
        self.counters.flow_rx_bytes += pkt.payload_bytes;
        self.flows.entry(pkt.flow).or_default().rx_bytes += pkt.payload_bytes;
    }

    pub(crate) fn flow_drop(&mut self, pkt: PktInfo) {
        if pkt.data {
            self.counters.flow_dropped_bytes += pkt.payload_bytes;
            self.flows.entry(pkt.flow).or_default().dropped_bytes += pkt.payload_bytes;
        }
    }

    pub(crate) fn wire_depart(&mut self, pkt: PktInfo) {
        self.flows.entry(pkt.flow).or_default().inflight_bytes += pkt.payload_bytes as i64;
    }

    pub(crate) fn wire_arrive(&mut self, pkt: PktInfo) {
        self.flows.entry(pkt.flow).or_default().inflight_bytes -= pkt.payload_bytes as i64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        new_component_id, on_dequeue, on_drop, on_enqueue, on_event_pop, on_event_schedule,
        on_flow_rx, on_flow_tx, on_scratch_capacity, on_shaper_tokens, on_shared_buffer,
        on_shared_count, on_wire_arrive, on_wire_depart, trace::DropCause,
    };

    fn data_pkt(flow: u64, seq: i64, payload: u64, wire: u64) -> PktInfo {
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
        on_flow_tx(&p);
        on_enqueue(q, &p, 1538);
        on_dequeue(q, &p, 0);
        on_wire_depart(&p);
        on_wire_arrive(&p);
        on_flow_rx(&p);
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
        on_enqueue(q, &p, 999); // queue claims the wrong occupancy
        let report = finish();
        assert!(!report.is_clean());
        assert_eq!(report.violations[0].invariant, Invariant::QueueConservation);
        assert_eq!(report.violations[0].packet, Some((2, 7)));
    }

    #[test]
    fn lost_bytes_break_flow_conservation() {
        install();
        let p = data_pkt(3, 0, 1000, 1078);
        on_flow_tx(&p);
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
        on_flow_tx(&p);
        on_enqueue(q, &p, 578);
        on_dequeue(q, &p, 0);
        on_wire_depart(&p);
        on_wire_arrive(&p);
        on_drop(0, &p, DropCause::InjectedLoss); // injected loss at a switch
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
        on_shared_count(s, 7, || 7);
        on_shared_count(s, 7, || 8);
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
        on_flow_tx(&p);
        on_wire_depart(&p);
        let sender_half = take_partial().expect("installed");

        install();
        on_wire_arrive(&p);
        on_flow_rx(&p);
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
        on_flow_tx(&data_pkt(1, 0, 10, 20));
        on_enqueue(new_component_id(), &data_pkt(1, 0, 10, 20), 999);
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
