//! Audit hook shim.
//!
//! The one `Packet` → [`PktInfo`] adapter: every function forwards to
//! [`flexpass_simaudit`], which checks queue byte conservation, shared-buffer
//! and credit-shaper bounds, and end-to-end flow byte conservation — but
//! only while an auditor is installed. The shims and the hooks behind them
//! are `#[inline]`, and a shim that takes a packet tests [`is_active`]
//! before it reads the packet into a [`PktInfo`], so with no auditor each
//! call site is a thread-local load and a branch.
//!
//! The typical test-side protocol:
//!
//! ```
//! flexpass_simnet::audit::install();
//! // ... build a Sim and run it ...
//! let report = flexpass_simnet::audit::finish();
//! assert!(report.is_clean(), "{report}");
//! ```

use flexpass_simcore::units::WireBytes;

use crate::packet::{Packet, Payload};

pub use flexpass_simaudit::{
    absorb_partial, finish, install, is_active, new_component_id, take_partial, AuditCounters,
    AuditReport, ComponentId, Invariant, PartialAudit, PktInfo, Violation,
};

fn info(pkt: &Packet) -> PktInfo {
    let seq = match pkt.payload {
        Payload::Data(d) => d.flow_seq as u64,
        _ => 0,
    };
    PktInfo {
        flow: pkt.flow,
        seq,
        data: pkt.is_data(),
        payload_bytes: pkt.payload_bytes().get(),
        wire_bytes: pkt.wire.get(),
    }
}

/// Queue `q` admitted `pkt`; the queue now claims `bytes_after` queued bytes.
#[inline]
pub fn enqueue(q: ComponentId, pkt: &Packet, bytes_after: WireBytes) {
    if is_active() {
        flexpass_simaudit::on_enqueue(q, info(pkt), bytes_after.get());
    }
}

/// Queue `q` released `pkt`; the queue now claims `bytes_after` queued bytes.
#[inline]
pub fn dequeue(q: ComponentId, pkt: &Packet, bytes_after: WireBytes) {
    if is_active() {
        flexpass_simaudit::on_dequeue(q, info(pkt), bytes_after.get());
    }
}

/// Switch `sw` has `used` of `pool` shared-buffer bytes admitted.
#[inline]
pub fn shared_buffer(sw: ComponentId, used: WireBytes, pool: WireBytes) {
    flexpass_simaudit::on_shared_buffer(sw, used.get(), pool.get());
}

/// Switch `sw` counts `counted` bytes in its dynamically thresholded queues;
/// `scan` recomputes that from the queues and runs only while an auditor is
/// installed.
#[inline]
pub fn shared_count(sw: ComponentId, counted: WireBytes, scan: impl FnOnce() -> WireBytes) {
    if is_active() {
        flexpass_simaudit::on_shared_count(sw, counted.get(), scan().get());
    }
}

/// Token bucket `shaper` holds `tokens` of at most `burst` bit-nanoseconds.
#[inline]
pub fn shaper_tokens(shaper: ComponentId, tokens: u128, burst: u128) {
    flexpass_simaudit::on_shaper_tokens(shaper, tokens, burst);
}

/// An endpoint handed `pkt` to its NIC.
#[inline]
pub fn flow_tx(pkt: &Packet) {
    if is_active() {
        flexpass_simaudit::on_flow_tx(info(pkt));
    }
}

/// `pkt` arrived at a host.
#[inline]
pub fn flow_rx(pkt: &Packet) {
    if is_active() {
        flexpass_simaudit::on_flow_rx(info(pkt));
    }
}

/// `pkt` was dropped (queue cap, shared buffer, selective red, or injected
/// loss).
#[inline]
pub fn flow_drop(pkt: &Packet) {
    if is_active() {
        flexpass_simaudit::on_flow_drop(info(pkt));
    }
}

/// Component `c` reports `cap` total scratch-buffer capacity after a flush.
/// Growth is warm-up; a shrink (buffer replaced, not reused) is a
/// violation.
#[inline]
pub fn scratch_capacity(c: ComponentId, cap: u64) {
    flexpass_simaudit::on_scratch_capacity(c, cap);
}

/// `pkt` started propagating on a link.
#[inline]
pub fn wire_depart(pkt: &Packet) {
    if is_active() {
        flexpass_simaudit::on_wire_depart(info(pkt));
    }
}

/// `pkt` finished propagating and reached a node.
#[inline]
pub fn wire_arrive(pkt: &Packet) {
    if is_active() {
        flexpass_simaudit::on_wire_arrive(info(pkt));
    }
}
