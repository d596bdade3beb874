//! Hook shim.
//!
//! The datapath calls the hooks of [`flexpass_simhooks`] through this
//! module, one call per transition, and whichever sinks are installed —
//! the [`crate::audit`] auditor, the [`crate::trace`] tracer, or both — see
//! it. What simnet adds is the one `Packet` → [`PktInfo`] adapter, which a
//! hook runs only while a sink is installed, and the one `DropReason` →
//! [`DropCause`] adapter.
//!
//! ```
//! flexpass_simnet::audit::install();
//! // ... build a Sim and run it ...
//! let report = flexpass_simnet::audit::finish();
//! assert!(report.is_clean(), "{report}");
//! ```

use flexpass_simhooks::trace::DropCause;
use flexpass_simhooks::PktInfo;

use crate::packet::{Packet, Payload};
use crate::queue::DropReason;

pub use flexpass_simhooks::{
    new_component_id, on_dequeue, on_drop, on_enqueue, on_flow_rx, on_flow_tx, on_scratch_capacity,
    on_shaper_tokens, on_shared_buffer, on_shared_count, on_wire_arrive, on_wire_depart, record,
    ComponentId, HookPacket,
};

impl HookPacket for Packet {
    fn info(&self) -> PktInfo {
        let seq = match self.payload {
            Payload::Data(d) => i64::from(d.flow_seq),
            _ => -1,
        };
        PktInfo {
            flow: self.flow,
            seq,
            data: self.is_data(),
            payload_bytes: self.payload_bytes().get(),
            wire_bytes: self.wire.get(),
        }
    }
}

impl From<DropReason> for DropCause {
    fn from(reason: DropReason) -> Self {
        match reason {
            DropReason::QueueCap => DropCause::QueueCap,
            DropReason::Buffer => DropCause::Buffer,
            DropReason::SelectiveRed => DropCause::SelectiveRed,
        }
    }
}
