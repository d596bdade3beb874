//! Workload generation: empirical flow-size distributions, Poisson
//! background traffic, and incast foreground traffic (§6 benchmarks).

pub mod cdf;
pub mod generate;
pub mod trace;

pub use cdf::{CdfError, FlowSizeCdf};
pub use generate::{background, foreground_incast, incast, BackgroundParams, ForegroundParams};
pub use trace::{parse_trace, render_trace, TraceError};
