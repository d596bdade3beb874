//! Measurement for the FlexPass reproduction: a [`Recorder`] implementing
//! the simulator's observer hooks, plus the derived statistics every figure
//! needs (FCT percentiles by size/tag, throughput time series per
//! transport and sub-flow, starvation time, queue occupancy, drop and
//! retransmission accounting).

// Test code is exempt from the determinism bans in clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod recorder;

pub use recorder::{FctStats, FlowRecord, Recorder, SeriesKey};
