//! Packet-level network substrate for the FlexPass reproduction.
//!
//! This crate models everything "below" the transport protocols:
//!
//! * [`packet`] — the on-wire packet model: traffic classes (DSCP analog),
//!   ECN bits, drop-precedence color, and transport payload headers.
//! * [`arena`] — the generation-indexed packet arena: every in-flight
//!   packet lives in one slab slot, addressed by a
//!   [`arena::PacketId`] whose generation tag rejects stale handles.
//! * [`queue`] — a byte-accounted FIFO with ECN marking and per-color
//!   (selective-drop) accounting.
//! * [`port`] — an egress port scheduling several queues with strict
//!   priority levels, Deficit Weighted Round Robin within a level, and
//!   token-bucket shaping (used for ExpressPass credit queues).
//! * [`switch`] — an output-queued switch with a shared buffer, dynamic
//!   buffer thresholds [Choudhury & Hahne], per-class queue mapping and
//!   ECMP routing.
//! * [`host`] — end hosts whose NIC egress is a full [`port::Port`] (the
//!   paper treats NICs as edge switches), hosting transport [`endpoint`]s.
//! * [`topology`] — dumbbell, single-switch star ("testbed"), and the
//!   paper's 3-tier Clos (8 core / 16 agg / 32 ToR / 192 hosts, 3:1
//!   oversubscribed).
//! * [`sim`] — the deterministic event-driven driver tying it together.
//! * [`loopback`] — endpoints without a fabric: one callback at a time, or
//!   a sender/receiver pair exchanging one flow, for tests and benches.
//! * [`parsim`] / [`partition`] — the engine callers drive: [`ParSim`]
//!   cuts the fabric itself into per-thread domains at rack granularity
//!   (`--par-sim N` on the experiments binary) and advances them in
//!   conservative lock-step windows bounded by the cut's minimum link
//!   propagation; a fabric it does not cut runs as one [`Sim`] inline.
//! * [`hooks`] — the datapath's calls into `flexpass-simhooks`, inert
//!   until one of its two sinks is installed: the [`audit`] invariant
//!   auditor (byte conservation ledgers, buffer and shaper bounds) and the
//!   [`trace`] packet-lifecycle tracer.
//!
//! Transport protocols implement [`endpoint::Endpoint`] and are plugged in
//! through [`sim::TransportFactory`]; see the `flexpass-transport` and
//! `flexpass` crates.

// Test code is exempt from the determinism bans in clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod arena;
pub mod consts;
pub mod endpoint;
pub mod hooks;
pub mod host;
pub mod loopback;
pub mod packet;
pub mod parsim;
pub mod partition;
pub mod port;
pub mod queue;
pub mod sim;
pub mod switch;
pub mod topology;

pub use arena::{PacketArena, PacketId};
pub use consts::*;
pub use endpoint::{AppEvent, Endpoint, EndpointCtx, RxStats, TxStats};
pub use flexpass_simhooks::{audit, trace};
pub use packet::{
    AckInfo, Color, CreditInfo, DataInfo, FlowId, FlowSpec, GrantInfo, HostId, Packet, Payload,
    Subflow, TrafficClass,
};
pub use parsim::ParSim;
pub use port::{Port, PortConfig, QueueSched};
pub use queue::{DropReason, QueueConfig};
pub use sim::{
    Event, FlowRole, NetEnv, NetObserver, NodeId, NullObserver, PartitionCtx, Sim, Stop,
    TransportFactory,
};
pub use switch::{Switch, SwitchProfile};
pub use topology::{ClosParams, Topology};
