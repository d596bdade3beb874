//! Discrete-event simulation core used by the FlexPass reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`time`] — fixed-point virtual time ([`Time`], [`TimeDelta`]) in
//!   nanoseconds, byte/rate arithmetic ([`Rate`]) for serialization delays.
//! * [`event`] — a deterministic event calendar ([`EventQueue`]) ordered by
//!   `(time, insertion sequence)` so equal-time events fire FIFO, with
//!   cancellable timers ([`TimerHandle`]).
//! * [`wheel`] — the hierarchical timing wheel the calendar stores its
//!   entries in.
//! * [`rng`] — seeded deterministic randomness and a symmetric flow hash for
//!   ECMP path selection.
//! * [`progress`] — atomic progress counters ([`ProgressProbe`]) a running
//!   simulation publishes into, for cross-thread heartbeat reporting.
//! * [`stats`] — online mean/variance, exact percentiles, the bounded-memory
//!   [`FctSketch`] quantile histogram, time-binned series.
//! * [`mem`] — linux-gated process-RSS self-measurement for scale
//!   reporting (`/proc/self/status`).
//! * [`units`] — byte-accounting newtypes ([`Bytes`], [`WireBytes`],
//!   [`PktCount`]) keeping payload and wire bytes apart at compile time.
//!
//! # Examples
//!
//! ```
//! use flexpass_simcore::event::EventQueue;
//! use flexpass_simcore::time::{Time, TimeDelta};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Time::ZERO + TimeDelta::micros(2), "second");
//! q.schedule(Time::ZERO + TimeDelta::micros(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, Time::from_nanos(1_000));
//! ```

// Test code is exempt from the determinism bans in clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod event;
pub mod mem;
pub mod progress;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;
pub mod wheel;

pub use event::{EventQueue, TimerHandle};
pub use progress::ProgressProbe;
pub use rng::SimRng;
pub use stats::{FctSketch, OnlineStats, Percentiles, TimeSeries};
pub use time::{Rate, Time, TimeDelta};
pub use units::{Bytes, PktCount, WireBytes};
