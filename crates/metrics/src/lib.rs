//! Measurement for the FlexPass reproduction: a [`Recorder`] implementing
//! the simulator's observer hooks, plus the derived statistics every figure
//! needs (FCT percentiles by size/tag, throughput time series per
//! transport and sub-flow, starvation time, queue occupancy, drop and
//! retransmission accounting).

pub mod recorder;

pub use recorder::{FctStats, FlowRecord, Recorder, SeriesKey};
