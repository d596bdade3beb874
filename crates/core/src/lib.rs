//! FlexPass: a flexible credit-based transport for datacenter networks
//! (Lim et al., EuroSys 2023) — the paper's primary contribution.
//!
//! A FlexPass flow is split into two cooperating sub-flows sharing one send
//! buffer:
//!
//! * a **proactive sub-flow** — ExpressPass credits allocated against the
//!   *minimum guaranteed* bandwidth (`w_q` of line rate), delivering
//!   predictable, loss-free scheduled packets;
//! * a **reactive sub-flow** — DCTCP-windowed unscheduled packets that
//!   opportunistically soak up spare bandwidth left by legacy traffic; its
//!   packets are colored *red* so switches can selectively drop them the
//!   moment they would build a queue.
//!
//! The sender keeps the paper's per-packet state machine (Figure 4):
//! `Pending → SentReactive/SentProactive → Acked`, with `Lost` detected per
//! sub-flow; credits drain in the priority order **Lost → Pending → Sent as
//! reactive** (the last being the tail-latency-saving "proactive
//! retransmission"). The reactive sub-flow never retransmits: recovery
//! always rides the reliable proactive channel.
//!
//! Modules:
//!
//! * [`config`] — all protocol knobs with the paper's defaults.
//! * [`sender`] / [`receiver`] — the FlexPass endpoints.
//! * [`profiles`] — switch/NIC queue configurations for every deployment
//!   scheme (FlexPass, Naïve, Oracle WFQ, Layering, Homa-mix, DCTCP-only).
//! * [`schemes`] — the deployment model (per-rack upgrades) and the
//!   [`schemes::SchemeFactory`] mixing legacy and upgraded flows.
//! * [`layering`] — the Layering (LY) comparison scheme: ExpressPass with a
//!   DCTCP window overlay.
//!
//! # Examples
//!
//! ```
//! use flexpass::config::FlexPassConfig;
//! use flexpass::profiles::{flexpass_profile, ProfileParams};
//! use flexpass::FlexPassFactory;
//! use flexpass_simcore::time::{Rate, Time, TimeDelta};
//! use flexpass_simcore::units::Bytes;
//! use flexpass_simnet::packet::FlowSpec;
//! use flexpass_simnet::sim::{NullObserver, Sim};
//! use flexpass_simnet::topology::Topology;
//!
//! let params = ProfileParams::testbed(Rate::from_gbps(10));
//! let profile = flexpass_profile(&params);
//! let topo = Topology::star(3, params.rate, TimeDelta::micros(5), &profile, &profile);
//! let cfg = FlexPassConfig::new(0.5);
//! let mut sim = Sim::new(topo, Box::new(FlexPassFactory::new(cfg)), NullObserver);
//! sim.schedule_flow(FlowSpec {
//!     id: 1, src: 0, dst: 2, size: Bytes::new(100_000), start: Time::ZERO, tag: 0, fg: false,
//! });
//! sim.run_to_completion(TimeDelta::millis(5));
//! assert_eq!(sim.flows_completed(), 1);
//! ```

// Test code is exempt from the determinism bans in clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod config;
pub mod layering;
pub mod profiles;
pub mod receiver;
pub mod schemes;
pub mod sender;

pub use config::{CreditPolicy, FlexPassConfig};
pub use receiver::FlexPassReceiver;
pub use schemes::{Deployment, Scheme, SchemeFactory};
pub use sender::FlexPassSender;

use flexpass_simnet::endpoint::Endpoint;
use flexpass_simnet::packet::FlowSpec;
use flexpass_simnet::sim::{NetEnv, TransportFactory};

/// Factory producing pure FlexPass flows (every host upgraded).
pub struct FlexPassFactory {
    /// Configuration applied to every flow.
    pub cfg: FlexPassConfig,
}

impl FlexPassFactory {
    /// Creates a factory from a configuration.
    pub fn new(cfg: FlexPassConfig) -> Self {
        FlexPassFactory { cfg }
    }
}

impl TransportFactory for FlexPassFactory {
    fn sender(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(FlexPassSender::new(*flow, self.cfg, env))
    }
    fn receiver(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(FlexPassReceiver::new(*flow, self.cfg, env))
    }
}
