//! The simulator's datapath hooks and their two sinks.
//!
//! `simcore` and `simnet` call the hooks below at every datapath
//! transition: calendar pops and schedules, queue admissions and
//! departures, drops, wire departures and arrivals, shared-buffer, shaper
//! and scratch-buffer readings, and, through [`record`], the endpoint
//! facts a post-mortem wants (credits, retransmissions, timeouts, timer
//! cancels). Two sinks listen, each optional:
//!
//! * [`audit`] — the invariant auditor: ledgers that shadow the
//!   simulator's own accounting and report any divergence as an
//!   [`audit::Violation`] (byte and credit conservation, buffer and shaper
//!   bounds, event order, scratch reuse);
//! * [`trace`] — the packet-lifecycle tracer: typed [`trace::TraceEvent`]s
//!   in a bounded ring buffer, newest-wins.
//!
//! Both live in one thread-local state (the simulator is single-threaded
//! per run) beside the virtual clock, set at every calendar pop, and the
//! component-id counter. One flag word says which sinks are installed:
//! every hook is `#[inline]` and opens by testing it, with the sink work
//! behind it in a `#[cold]` out-of-line call, so with no sink installed a
//! hook is a thread-local load and a branch. The sinks only observe: no
//! hook returns a value and no simulation code branches on a sink, so an
//! audited or traced run executes the same simulation as a plain one.
//!
//! ```
//! flexpass_simhooks::audit::install();
//! flexpass_simhooks::trace::install(Default::default());
//! // ... build a simulation and run it ...
//! let log = flexpass_simhooks::trace::finish();
//! let report = flexpass_simhooks::audit::finish();
//! assert!(report.is_clean(), "{report}");
//! ```

use std::cell::{Cell, RefCell};

pub mod audit;
pub mod trace;

use audit::Auditor;
use trace::{DropCause, TraceEvent, Tracer};

/// Identity of a hooked component (queue, shaper, switch, scratch
/// buffer), assigned in creation order by [`new_component_id`];
/// `ComponentId(0)` names the run as a whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ComponentId(pub u64);

/// A packet as the hooks read it. The simulator's packet type implements
/// this once (`simnet::hooks`); a hook reads a packet only while a sink is
/// installed.
pub trait HookPacket {
    /// The facts the sinks need about this packet.
    fn info(&self) -> PktInfo;
}

/// The facts a hook needs about one packet.
#[derive(Clone, Copy, Debug)]
pub struct PktInfo {
    /// Flow id.
    pub flow: u64,
    /// The per-flow data sequence, `-1` for control packets.
    pub seq: i64,
    /// True for data-bearing packets (these enter flow conservation).
    pub data: bool,
    /// Application payload bytes (0 for control).
    pub payload_bytes: u64,
    /// On-the-wire bytes.
    pub wire_bytes: u64,
}

impl HookPacket for PktInfo {
    fn info(&self) -> PktInfo {
        *self
    }
}

struct State {
    auditor: Option<Auditor>,
    tracer: Option<Tracer>,
    /// Virtual time of the last calendar pop while a sink was installed.
    clock_ns: u64,
    /// The id [`new_component_id`] hands out next; never reset.
    next_id: u64,
}

/// Flag bit of the auditor.
const AUDIT: u8 = 1;
/// Flag bit of the tracer.
const TRACE: u8 = 2;

thread_local! {
    static STATE: RefCell<State> = const {
        RefCell::new(State {
            auditor: None,
            tracer: None,
            clock_ns: 0,
            next_id: 1,
        })
    };
    /// Which sinks `STATE` holds, as `AUDIT | TRACE` bits: what the hooks
    /// test.
    static ARMED: Cell<u8> = const { Cell::new(0) };
}

#[inline]
fn armed_for(sinks: u8) -> bool {
    ARMED.get() & sinks != 0
}

/// Installs one sink into the state, replacing an earlier one of its kind.
/// The clock restarts when the first sink arms.
fn arm(sink: u8, put: impl FnOnce(&mut State)) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if ARMED.get() == 0 {
            s.clock_ns = 0;
        }
        put(&mut s);
    });
    ARMED.set(ARMED.get() | sink);
}

/// Lowers one sink's flag bit and detaches it with `take`.
fn disarm<T>(sink: u8, take: impl FnOnce(&mut State) -> T) -> T {
    ARMED.set(ARMED.get() & !sink);
    STATE.with(|s| take(&mut s.borrow_mut()))
}

/// The sink side of a hook; callers have tested the flag.
#[cold]
#[inline(never)]
fn with_state(f: impl FnOnce(&mut State)) {
    STATE.with(|s| f(&mut s.borrow_mut()));
}

/// Allocates a component id. Ids come from one counter per thread that
/// never resets, whether or not a sink is installed: components built
/// before an auditor arms keep distinct ids, and the tracer writes a queue
/// relative to the counter at its own install, so a trace depends only on
/// the run it recorded.
pub fn new_component_id() -> ComponentId {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let id = s.next_id;
        s.next_id += 1;
        ComponentId(id)
    })
}

/// Feeds one transition to the auditor (with the clock) when it is
/// installed.
#[inline]
fn audit_with(f: impl FnOnce(&mut Auditor, u64)) {
    if armed_for(AUDIT) {
        with_state(|s| {
            if let Some(a) = s.auditor.as_mut() {
                f(a, s.clock_ns);
            }
        });
    }
}

/// Feeds a data packet's transition to the auditor's flow ledgers; a
/// control packet stays out of flow conservation and out of the cold path.
#[inline]
fn audit_flow(pkt: &impl HookPacket, f: impl FnOnce(&mut Auditor, PktInfo)) {
    if armed_for(AUDIT) {
        let p = pkt.info();
        if p.data {
            audit_with(|a, _| f(a, p));
        }
    }
}

/// Feeds one packet transition to both sinks: `audit` to the auditor's
/// ledgers, and the event `event` builds from the clock to the tracer.
#[inline]
fn audit_and_record(
    pkt: &impl HookPacket,
    audit: impl FnOnce(&mut Auditor, u64, PktInfo),
    event: impl FnOnce(u64, PktInfo) -> TraceEvent,
) {
    if armed_for(AUDIT | TRACE) {
        with_state(|s| {
            let p = pkt.info();
            if let Some(a) = s.auditor.as_mut() {
                audit(a, s.clock_ns, p);
            }
            if let Some(t) = s.tracer.as_mut() {
                t.record(event(s.clock_ns, p));
            }
        });
    }
}

/// Records the event `event` builds from the current virtual time (ns),
/// when a tracer is installed; `event` runs only then. A queue in the
/// event is its [`ComponentId`].
#[inline]
pub fn record(event: impl FnOnce(u64) -> TraceEvent) {
    if armed_for(TRACE) {
        with_state(|s| {
            if let Some(t) = s.tracer.as_mut() {
                t.record(event(s.clock_ns));
            }
        });
    }
}

/// A calendar event was popped at `time_ns` with insertion sequence `seq`:
/// the clock the sinks read moves here.
#[inline]
pub fn on_event_pop(time_ns: u64, seq: u64) {
    if armed_for(AUDIT | TRACE) {
        with_state(|s| {
            if let Some(a) = s.auditor.as_mut() {
                a.event_pop(s.clock_ns, time_ns, seq);
            }
            s.clock_ns = time_ns;
        });
    }
}

/// An event was offered to the calendar for `time_ns` while virtual time
/// was `now_ns`.
#[inline]
pub fn on_event_schedule(time_ns: u64, now_ns: u64) {
    audit_with(|a, clock| a.event_schedule(clock, time_ns, now_ns));
}

/// Queue `q` admitted `pkt` and now claims `bytes_after` queued wire bytes.
#[inline]
pub fn on_enqueue(q: ComponentId, pkt: &impl HookPacket, bytes_after: u64) {
    audit_and_record(
        pkt,
        |a, clock, p| a.enqueue(clock, q, p, bytes_after),
        |t_ns, p| TraceEvent::Enqueue {
            t_ns,
            queue: q.0,
            flow: p.flow,
            seq: p.seq,
            bytes_after,
        },
    );
}

/// Queue `q` released `pkt` to the wire and now claims `bytes_after`
/// queued wire bytes.
#[inline]
pub fn on_dequeue(q: ComponentId, pkt: &impl HookPacket, bytes_after: u64) {
    audit_and_record(
        pkt,
        |a, clock, p| a.dequeue(clock, q, p, bytes_after),
        |t_ns, p| TraceEvent::Dequeue {
            t_ns,
            queue: q.0,
            flow: p.flow,
            seq: p.seq,
            bytes_after,
        },
    );
}

/// `pkt` was dropped at topology node `node` for `cause`.
#[inline]
pub fn on_drop(node: u64, pkt: &impl HookPacket, cause: DropCause) {
    audit_and_record(
        pkt,
        |a, _, p| a.flow_drop(p),
        |t_ns, p| TraceEvent::Drop {
            t_ns,
            node,
            flow: p.flow,
            seq: p.seq,
            cause,
        },
    );
}

/// Switch `sw` reports `used` of `pool` shared-buffer bytes in use.
#[inline]
pub fn on_shared_buffer(sw: ComponentId, used: u64, pool: u64) {
    audit_with(|a, clock| a.shared_buffer(clock, sw, used, pool));
}

/// Switch `sw` counts `counted` shared-buffer bytes in use; `queued`
/// recomputes what its dynamically thresholded queues hold between them,
/// and runs only while an auditor is installed.
#[inline]
pub fn on_shared_count(sw: ComponentId, counted: u64, queued: impl FnOnce() -> u64) {
    audit_with(|a, clock| a.shared_count(clock, sw, counted, queued()));
}

/// Token bucket `shaper` holds `tokens` of at most `burst` (both in
/// bit-nanoseconds; see `simnet::port`). Called after refills and spends.
#[inline]
pub fn on_shaper_tokens(shaper: ComponentId, tokens: u128, burst: u128) {
    audit_with(|a, clock| a.shaper_tokens(clock, shaper, tokens, burst));
}

/// Component `c` reports the total capacity of its reusable scratch
/// buffers after a flush.
#[inline]
pub fn on_scratch_capacity(c: ComponentId, cap: u64) {
    audit_with(|a, clock| a.scratch_capacity(clock, c, cap));
}

/// A sender endpoint handed `pkt` to its NIC.
#[inline]
pub fn on_flow_tx(pkt: &impl HookPacket) {
    audit_flow(pkt, Auditor::flow_tx);
}

/// `pkt` arrived at a host (whether or not an endpoint claimed it).
#[inline]
pub fn on_flow_rx(pkt: &impl HookPacket) {
    audit_flow(pkt, Auditor::flow_rx);
}

/// `pkt` started propagating on a link.
#[inline]
pub fn on_wire_depart(pkt: &impl HookPacket) {
    audit_flow(pkt, Auditor::wire_depart);
}

/// `pkt` finished propagating and reached a node.
#[inline]
pub fn on_wire_arrive(pkt: &impl HookPacket) {
    audit_flow(pkt, Auditor::wire_arrive);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_pkt(flow: u64, seq: i64) -> PktInfo {
        PktInfo {
            flow,
            seq,
            data: true,
            payload_bytes: 1460,
            wire_bytes: 1538,
        }
    }

    /// Both sinks armed see one transition through one call, at one clock.
    #[test]
    fn both_sinks_see_one_transition_at_one_clock() {
        audit::install();
        trace::install(trace::TraceFilter::all());
        let q = new_component_id();
        let p = data_pkt(1, 0);
        on_event_pop(100, 0);
        on_flow_tx(&p);
        on_enqueue(q, &p, 1538);
        on_event_pop(250, 1);
        on_dequeue(q, &p, 0);
        on_wire_depart(&p);
        on_wire_arrive(&p);
        on_drop(4, &p, DropCause::InjectedLoss);
        let log = trace::finish();
        assert!(audit::is_active() && !trace::is_active());
        let report = audit::finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.counters.enqueues, 1);
        let times: Vec<u64> = log.events.iter().map(|e| e.t_ns()).collect();
        assert_eq!(times, [100, 250, 250]);
    }

    /// The id rule: the counter never resets, so an auditor installed
    /// after the components were built keeps them apart, while the tracer
    /// numbers queues from its own install.
    #[test]
    fn ids_never_reset_and_traces_number_queues_from_install() {
        let before = new_component_id();
        trace::install(trace::TraceFilter::all());
        let first = new_component_id();
        let second = new_component_id();
        assert!(before < first && first < second);
        let p = data_pkt(1, -1);
        on_enqueue(second, &p, 10);
        record(|t_ns| TraceEvent::EcnMark {
            t_ns,
            queue: first.0,
            flow: 1,
            seq: -1,
        });
        let log = trace::finish();
        let queues: Vec<u64> = log
            .events
            .iter()
            .map(|e| match *e {
                TraceEvent::Enqueue { queue, .. } | TraceEvent::EcnMark { queue, .. } => queue,
                _ => u64::MAX,
            })
            .collect();
        assert_eq!(queues, [1, 0]);
    }

    /// The clock restarts when the first sink arms, not when a second one
    /// joins a run in progress.
    #[test]
    fn clock_restarts_only_when_the_first_sink_arms() {
        audit::install();
        on_event_pop(500, 0);
        trace::install(trace::TraceFilter::all());
        record(|t_ns| TraceEvent::CreditWasted { t_ns, flow: 1 });
        let log = trace::finish();
        let _ = audit::finish();
        assert_eq!(log.events[0].t_ns(), 500);
        trace::install(trace::TraceFilter::all());
        record(|t_ns| TraceEvent::CreditWasted { t_ns, flow: 1 });
        assert_eq!(trace::finish().events[0].t_ns(), 0);
    }
}
