//! Baseline datacenter transports for the FlexPass reproduction.
//!
//! * [`dctcp`] — DCTCP [Alizadeh 2010]: ECN-fraction window control with
//!   SACK loss recovery; the "legacy reactive" transport throughout the
//!   paper's evaluation, and (as a reusable window core) the congestion
//!   control of FlexPass's reactive sub-flow.
//! * [`expresspass`] — ExpressPass [Cho 2017]: receiver-driven, credit-
//!   scheduled transport with per-switch credit shaping and credit-rate
//!   feedback control; the proactive control loop FlexPass adopts. Its
//!   sender, gated by a DCTCP window, is also the Layering (LY) baseline.
//! * [`homa`] — a simplified Homa [Montazeri 2018]: receiver-driven grants
//!   over strict priority queues; used for the motivation experiment
//!   (Figure 1b).
//! * [`common`] — the reliability kit every transport here and FlexPass
//!   compose: the sender's [`Scoreboard`](common::Scoreboard) (cumulative +
//!   SACK marking, lost-first pick, the triple-duplicate-ACK rule),
//!   [`RtoTimer`](common::RtoTimer), [`RttEstimator`] and [`DctcpWindow`];
//!   on the receive side, one arrival set per sequence space, each a
//!   [`SeqFrontier`] (word bitset + cumulative point, whose word searches
//!   every range scan of the kit goes through, and from which every ACK is
//!   built): the per-flow one lives in [`Reassembly`], which the
//!   single-loop receivers also ACK from through
//!   [`RxTail`](common::RxTail) (completion report + linger).

// Test code is exempt from the determinism bans in clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod common;
pub mod dctcp;
pub mod expresspass;
pub mod homa;

pub use common::{DctcpWindow, PktState, Reassembly, RttEstimator, SeqFrontier};
pub use dctcp::{DctcpFactory, DctcpReceiver, DctcpSender};
pub use expresspass::{CreditEngine, EpConfig, EpReceiver, EpSender, ExpressPassFactory};
pub use homa::{HomaConfig, HomaFactory, HomaReceiver, HomaSender};
