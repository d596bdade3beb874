//! `flexbench`: the end-to-end benchmark of the FlexPass simulator, with
//! outside-in per-layer attribution. See `README.md` in this directory.

pub mod clock;
pub mod json;
pub mod layers;
pub mod loopback;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod units;
