//! Baseline datacenter transports for the FlexPass reproduction.
//!
//! * [`dctcp`] — DCTCP [Alizadeh 2010]: ECN-fraction window control with
//!   SACK loss recovery; the "legacy reactive" transport throughout the
//!   paper's evaluation, and (as a reusable window core) the congestion
//!   control of FlexPass's reactive sub-flow.
//! * [`expresspass`] — ExpressPass [Cho 2017]: receiver-driven, credit-
//!   scheduled transport with per-switch credit shaping and credit-rate
//!   feedback control; the proactive control loop FlexPass adopts.
//! * [`homa`] — a simplified Homa [Montazeri 2018]: receiver-driven grants
//!   over strict priority queues; used for the motivation experiment
//!   (Figure 1b).
//! * [`common`] — the reliability kit every transport here and FlexPass
//!   compose: the sender's [`Scoreboard`](common::Scoreboard) (cumulative +
//!   SACK marking, sorted lost set, lost-first pick),
//!   [`RtoTimer`](common::RtoTimer), [`RttEstimator`] and [`DctcpWindow`];
//!   the receiver's [`Reassembly`], [`AckBuilder`] and
//!   [`RxTail`](common::RxTail) (completion report + linger).

// Test code is exempt from the determinism bans in clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod common;
pub mod dctcp;
pub mod expresspass;
pub mod homa;

pub use common::{AckBuilder, DctcpWindow, PktState, Reassembly, RttEstimator};
pub use dctcp::{DctcpConfig, DctcpFactory, DctcpReceiver, DctcpSender};
pub use expresspass::{CreditEngine, EpConfig, EpReceiver, EpSender, ExpressPassFactory};
pub use homa::{HomaConfig, HomaFactory, HomaReceiver, HomaSender};
