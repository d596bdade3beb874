//! Trace hook shim.
//!
//! The one `Packet` → trace-event adapter: every function forwards to
//! [`flexpass_simtrace`], which records typed packet-lifecycle events into a
//! thread-local bounded ring buffer — but only while a tracer is installed.
//! The shims and the hooks behind them are `#[inline]`, and a shim that
//! takes a packet tests [`is_active`] before it reads the packet, so with
//! no tracer each call site is a thread-local load and a branch.
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

use crate::packet::{Packet, Payload};
use crate::queue::DropReason;
use crate::sim::NodeId;

pub use flexpass_simtrace::{
    finish, install, install_with_capacity, is_active, new_queue_id, DropCause, EventKind, QueueId,
    TraceEvent, TraceFilter, TraceLog,
};

/// Per-flow data sequence of `pkt`, or `-1` for control packets.
fn seq_of(pkt: &Packet) -> i64 {
    match pkt.payload {
        Payload::Data(d) => i64::from(d.flow_seq),
        _ => -1,
    }
}

/// Advances the tracer clock to the dispatch time `now`.
#[inline]
pub fn now(t: Time) {
    flexpass_simtrace::on_event_time(t.as_nanos());
}

/// Queue `q` admitted `pkt`; the queue now holds `bytes_after`.
#[inline]
pub fn enqueue(q: QueueId, pkt: &Packet, bytes_after: WireBytes) {
    if is_active() {
        flexpass_simtrace::on_enqueue(q, pkt.flow, seq_of(pkt), bytes_after.get());
    }
}

/// Queue `q` released `pkt`; the queue now holds `bytes_after`.
#[inline]
pub fn dequeue(q: QueueId, pkt: &Packet, bytes_after: WireBytes) {
    if is_active() {
        flexpass_simtrace::on_dequeue(q, pkt.flow, seq_of(pkt), bytes_after.get());
    }
}

/// Queue `q` ECN-marked `pkt` on admission.
#[inline]
pub fn ecn_mark(q: QueueId, pkt: &Packet) {
    if is_active() {
        flexpass_simtrace::on_ecn_mark(q, pkt.flow, seq_of(pkt));
    }
}

/// `pkt` was dropped at `node` for `reason` (congestion or buffer).
#[inline]
pub fn dropped(node: NodeId, pkt: &Packet, reason: DropReason) {
    if is_active() {
        let cause = match reason {
            DropReason::QueueCap => DropCause::QueueCap,
            DropReason::Buffer => DropCause::Buffer,
            DropReason::SelectiveRed => DropCause::SelectiveRed,
        };
        flexpass_simtrace::on_drop(node as u64, pkt.flow, seq_of(pkt), cause);
    }
}

/// `pkt` was destroyed by injected (non-congestion) loss at `node`.
#[inline]
pub fn injected_loss(node: NodeId, pkt: &Packet) {
    if is_active() {
        flexpass_simtrace::on_drop(node as u64, pkt.flow, seq_of(pkt), DropCause::InjectedLoss);
    }
}

/// A receiver sent credit `idx` for `flow`.
#[inline]
pub fn credit_sent(flow: u64, idx: u64) {
    flexpass_simtrace::on_credit_sent(flow, idx);
}

/// A credit reached `flow`'s sender with no data left to spend it on.
#[inline]
pub fn credit_wasted(flow: u64) {
    flexpass_simtrace::on_credit_wasted(flow);
}

/// `flow`'s sender retransmitted data sequence `seq`.
#[inline]
pub fn retransmit(flow: u64, seq: u32) {
    flexpass_simtrace::on_retransmit(flow, i64::from(seq));
}

/// `flow`'s retransmission timer fired at backoff level `backoff`.
#[inline]
pub fn rto(flow: u64, backoff: u32) {
    flexpass_simtrace::on_rto(flow, backoff);
}

/// An armed endpoint timer identified by `token` was cancelled.
#[inline]
pub fn timer_cancel(token: u64) {
    flexpass_simtrace::on_timer_cancel(token >> 16, crate::sim::timer_kind(token));
}
