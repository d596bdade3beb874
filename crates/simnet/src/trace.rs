//! Trace hook shim.
//!
//! With the `trace` feature (the default) every function forwards to
//! [`flexpass_simtrace`], which records typed packet-lifecycle events into a
//! thread-local bounded ring buffer — but only while a tracer is installed.
//! The shims and the hooks behind them are `#[inline]`, and a shim that
//! takes a packet tests [`is_active`] before it reads the packet, so with
//! no tracer each call site is a thread-local load and a branch. Without
//! the feature the whole module compiles to no-ops and zero-sized state, so
//! instrumented call sites need no `cfg` of their own.
//!
//! Tracing is strictly observation-only: no hook returns a value and no
//! simulation code branches on tracer state, so traced and untraced runs
//! execute bit-identically (see DESIGN.md "Packet-lifecycle tracing").
//!
//! The typical protocol, mirroring [`crate::audit`]:
//!
//! ```
//! flexpass_simnet::trace::install(Default::default());
//! // ... build a Sim and run it ...
//! let log = flexpass_simnet::trace::finish();
//! println!("{log}");
//! ```

use flexpass_simcore::time::Time;
use flexpass_simcore::units::WireBytes;

use crate::packet::Packet;
#[cfg(feature = "trace")]
use crate::packet::Payload;
use crate::queue::DropReason;
use crate::sim::NodeId;

#[cfg(feature = "trace")]
pub use flexpass_simtrace::{
    finish, install, install_with_capacity, is_active, new_queue_id, DropCause, EventKind, QueueId,
    TraceEvent, TraceFilter, TraceLog,
};

#[cfg(not(feature = "trace"))]
pub use stub::{finish, install, is_active, new_queue_id, QueueId, TraceFilter, TraceLog};

/// Per-flow data sequence of `pkt`, or `-1` for control packets.
#[cfg(feature = "trace")]
fn seq_of(pkt: &Packet) -> i64 {
    match pkt.payload {
        Payload::Data(d) => i64::from(d.flow_seq),
        _ => -1,
    }
}

/// Advances the tracer clock to the dispatch time `now`.
#[inline]
pub fn now(t: Time) {
    #[cfg(feature = "trace")]
    flexpass_simtrace::on_event_time(t.as_nanos());
    #[cfg(not(feature = "trace"))]
    let _ = t;
}

/// Queue `q` admitted `pkt`; the queue now holds `bytes_after`.
#[inline]
pub fn enqueue(q: QueueId, pkt: &Packet, bytes_after: WireBytes) {
    #[cfg(feature = "trace")]
    if is_active() {
        flexpass_simtrace::on_enqueue(q, pkt.flow, seq_of(pkt), bytes_after.get());
    }
    #[cfg(not(feature = "trace"))]
    let _ = (q, pkt, bytes_after);
}

/// Queue `q` released `pkt`; the queue now holds `bytes_after`.
#[inline]
pub fn dequeue(q: QueueId, pkt: &Packet, bytes_after: WireBytes) {
    #[cfg(feature = "trace")]
    if is_active() {
        flexpass_simtrace::on_dequeue(q, pkt.flow, seq_of(pkt), bytes_after.get());
    }
    #[cfg(not(feature = "trace"))]
    let _ = (q, pkt, bytes_after);
}

/// Queue `q` ECN-marked `pkt` on admission.
#[inline]
pub fn ecn_mark(q: QueueId, pkt: &Packet) {
    #[cfg(feature = "trace")]
    if is_active() {
        flexpass_simtrace::on_ecn_mark(q, pkt.flow, seq_of(pkt));
    }
    #[cfg(not(feature = "trace"))]
    let _ = (q, pkt);
}

/// `pkt` was dropped at `node` for `reason` (congestion or buffer).
#[inline]
pub fn dropped(node: NodeId, pkt: &Packet, reason: DropReason) {
    #[cfg(feature = "trace")]
    if is_active() {
        let cause = match reason {
            DropReason::QueueCap => DropCause::QueueCap,
            DropReason::Buffer => DropCause::Buffer,
            DropReason::SelectiveRed => DropCause::SelectiveRed,
        };
        flexpass_simtrace::on_drop(node as u64, pkt.flow, seq_of(pkt), cause);
    }
    #[cfg(not(feature = "trace"))]
    let _ = (node, pkt, reason);
}

/// `pkt` was destroyed by injected (non-congestion) loss at `node`.
#[inline]
pub fn injected_loss(node: NodeId, pkt: &Packet) {
    #[cfg(feature = "trace")]
    if is_active() {
        flexpass_simtrace::on_drop(node as u64, pkt.flow, seq_of(pkt), DropCause::InjectedLoss);
    }
    #[cfg(not(feature = "trace"))]
    let _ = (node, pkt);
}

/// A receiver sent credit `idx` for `flow`.
#[inline]
pub fn credit_sent(flow: u64, idx: u64) {
    #[cfg(feature = "trace")]
    flexpass_simtrace::on_credit_sent(flow, idx);
    #[cfg(not(feature = "trace"))]
    let _ = (flow, idx);
}

/// A credit reached `flow`'s sender with no data left to spend it on.
#[inline]
pub fn credit_wasted(flow: u64) {
    #[cfg(feature = "trace")]
    flexpass_simtrace::on_credit_wasted(flow);
    #[cfg(not(feature = "trace"))]
    let _ = flow;
}

/// `flow`'s sender retransmitted data sequence `seq`.
#[inline]
pub fn retransmit(flow: u64, seq: u32) {
    #[cfg(feature = "trace")]
    flexpass_simtrace::on_retransmit(flow, i64::from(seq));
    #[cfg(not(feature = "trace"))]
    let _ = (flow, seq);
}

/// `flow`'s retransmission timer fired at backoff level `backoff`.
#[inline]
pub fn rto(flow: u64, backoff: u32) {
    #[cfg(feature = "trace")]
    flexpass_simtrace::on_rto(flow, backoff);
    #[cfg(not(feature = "trace"))]
    let _ = (flow, backoff);
}

/// An armed endpoint timer identified by `token` was cancelled.
#[inline]
pub fn timer_cancel(token: u64) {
    #[cfg(feature = "trace")]
    flexpass_simtrace::on_timer_cancel(token >> 16, crate::sim::timer_kind(token));
    #[cfg(not(feature = "trace"))]
    let _ = token;
}

// ---------------------------------------------------------------------------
// No-op stand-ins when tracing is compiled out, so components can keep
// zero-sized trace ids and harnesses compile either way.
// ---------------------------------------------------------------------------

#[cfg(not(feature = "trace"))]
mod stub {
    use std::fmt;

    /// Zero-sized stand-in for a trace queue id.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct QueueId;

    /// Zero-sized stand-in filter.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct TraceFilter;

    /// No-op: tracing is compiled out.
    pub fn new_queue_id() -> QueueId {
        QueueId
    }

    /// No-op: tracing is compiled out.
    pub fn install(_filter: TraceFilter) {}

    /// Always false: tracing is compiled out.
    pub fn is_active() -> bool {
        false
    }

    /// Empty stand-in log.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct TraceLog;

    impl fmt::Display for TraceLog {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("trace: disabled (built without the `trace` feature)")
        }
    }

    /// Empty stand-in log.
    pub fn finish() -> TraceLog {
        TraceLog
    }
}
