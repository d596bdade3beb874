//! The gradual-deployment model and the scheme-mixing transport factory.
//!
//! A deployment upgrades hosts rack by rack (§4.3 "Deployment scenario");
//! a flow uses the new transport only when *both* endpoints are upgraded
//! (§6.2). Everything else stays on DCTCP.

use flexpass_simcore::rng::SimRng;
use flexpass_simcore::units::Bytes;
use flexpass_simnet::endpoint::Endpoint;
use flexpass_simnet::packet::FlowSpec;
use flexpass_simnet::sim::{NetEnv, TransportFactory};
use flexpass_simnet::switch::SwitchProfile;
use flexpass_transport::dctcp::{DctcpReceiver, DctcpSender};
use flexpass_transport::expresspass::{EpConfig, EpReceiver, EpSender};

use crate::config::FlexPassConfig;
use crate::profiles::{flexpass_profile, naive_profile, owf_profile, ProfileParams};
use crate::receiver::FlexPassReceiver;
use crate::sender::FlexPassSender;

/// Flow tag for legacy (DCTCP) flows in metrics.
pub const TAG_LEGACY: u32 = 0;
/// Flow tag for upgraded (new-transport) flows in metrics.
pub const TAG_UPGRADED: u32 = 1;

/// The deployment schemes compared in §6.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Naïve ExpressPass rollout: shared queue, full-rate credits.
    Naive,
    /// Oracle weighted fair queueing: per-queue isolation with weights set
    /// from the known upgraded-traffic fraction.
    OracleWfq,
    /// Layering: ExpressPass + DCTCP window overlay in a shared queue.
    Layering,
    /// FlexPass.
    FlexPass,
}

impl Scheme {
    /// All schemes, in the paper's presentation order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Naive,
        Scheme::OracleWfq,
        Scheme::Layering,
        Scheme::FlexPass,
    ];

    /// Display label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Naive => "naive",
            Scheme::OracleWfq => "owf",
            Scheme::Layering => "ly",
            Scheme::FlexPass => "flexpass",
        }
    }

    /// The switch/NIC profile for this scheme. `upgraded_frac` is the
    /// oracle's knowledge of the upgraded traffic share (only oWF uses it).
    pub fn profile(&self, p: &ProfileParams, upgraded_frac: f64) -> SwitchProfile {
        match self {
            Scheme::Naive => naive_profile(p),
            Scheme::OracleWfq => owf_profile(p, upgraded_frac),
            // LY's window reads the marks of Naïve's shared ECN queue.
            Scheme::Layering => naive_profile(p),
            Scheme::FlexPass => flexpass_profile(p),
        }
    }
}

/// Which hosts have been upgraded to the new transport.
#[derive(Clone, Debug)]
pub struct Deployment {
    upgraded: Vec<bool>,
}

impl Deployment {
    /// No host upgraded.
    pub fn none(n_hosts: usize) -> Self {
        Deployment {
            upgraded: vec![false; n_hosts],
        }
    }

    /// Every host upgraded.
    pub fn full(n_hosts: usize) -> Self {
        Deployment {
            upgraded: vec![true; n_hosts],
        }
    }

    /// An explicit per-host upgrade map.
    pub fn from_hosts(upgraded: Vec<bool>) -> Self {
        Deployment { upgraded }
    }

    /// Upgrades a fraction of racks (the paper's per-rack rollout): racks
    /// are chosen by a deterministic shuffle of `rng`.
    pub fn by_rack_ratio(rack_of: &[usize], ratio: f64, rng: &mut SimRng) -> Self {
        assert!((0.0..=1.0).contains(&ratio));
        let n_racks = rack_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut racks: Vec<usize> = (0..n_racks).collect();
        // Fisher-Yates with the deterministic RNG.
        for i in (1..racks.len()).rev() {
            let j = rng.index(i + 1);
            racks.swap(i, j);
        }
        let k = (ratio * n_racks as f64).round() as usize;
        let chosen: std::collections::BTreeSet<usize> = racks.into_iter().take(k).collect();
        Deployment {
            upgraded: rack_of.iter().map(|r| chosen.contains(r)).collect(),
        }
    }

    /// Whether a host is upgraded.
    pub fn host_upgraded(&self, host: usize) -> bool {
        self.upgraded[host]
    }

    /// A flow is upgraded when both endpoints are (§6.2).
    pub fn flow_upgraded(&self, spec: &FlowSpec) -> bool {
        self.upgraded[spec.src] && self.upgraded[spec.dst]
    }

    /// Number of upgraded hosts.
    pub fn upgraded_hosts(&self) -> usize {
        self.upgraded.iter().filter(|&&u| u).count()
    }

    /// Metrics tag for a flow under this deployment.
    pub fn tag_for(&self, spec: &FlowSpec) -> u32 {
        if self.flow_upgraded(spec) {
            TAG_UPGRADED
        } else {
            TAG_LEGACY
        }
    }

    /// Fraction of the given flows' bytes that would ride the new
    /// transport — the oracle input for oWF queue weights.
    pub fn upgraded_byte_fraction(&self, flows: &[FlowSpec]) -> f64 {
        let mut total = Bytes::ZERO;
        let mut upgraded = Bytes::ZERO;
        for f in flows {
            total += f.size;
            if self.flow_upgraded(f) {
                upgraded += f.size;
            }
        }
        if total.is_zero() {
            0.0
        } else {
            upgraded.as_f64() / total.as_f64()
        }
    }
}

/// A transport factory that mixes legacy DCTCP flows with upgraded flows of
/// the configured scheme.
pub struct SchemeFactory {
    scheme: Scheme,
    deployment: Deployment,
    ep: EpConfig,
    fp: FlexPassConfig,
}

impl SchemeFactory {
    /// Builds the factory for `scheme` under `deployment`.
    ///
    /// * Naïve / Layering: ExpressPass credits at the full link rate.
    /// * oWF: credits scaled to the oracle's `upgraded_frac`.
    /// * FlexPass: `fp_cfg` (usually [`FlexPassConfig::new`] with w_q).
    pub fn new(
        scheme: Scheme,
        deployment: Deployment,
        fp_cfg: FlexPassConfig,
        upgraded_frac: f64,
    ) -> Self {
        let mut ep = EpConfig::default();
        if scheme == Scheme::OracleWfq {
            ep.max_rate_frac = upgraded_frac.clamp(0.02, 0.98);
        }
        SchemeFactory {
            scheme,
            deployment,
            ep,
            fp: fp_cfg,
        }
    }

    /// The deployment in effect (e.g. to tag flows consistently).
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }
}

impl TransportFactory for SchemeFactory {
    fn sender(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        if !self.deployment.flow_upgraded(flow) {
            return Box::new(DctcpSender::new(*flow, env));
        }
        match self.scheme {
            Scheme::Naive | Scheme::OracleWfq => Box::new(EpSender::new(*flow, env)),
            Scheme::Layering => Box::new(EpSender::layered(*flow, env)),
            Scheme::FlexPass => Box::new(FlexPassSender::new(*flow, self.fp, env)),
        }
    }

    fn receiver(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        if !self.deployment.flow_upgraded(flow) {
            return Box::new(DctcpReceiver::new(*flow, env));
        }
        match self.scheme {
            Scheme::Naive | Scheme::OracleWfq | Scheme::Layering => {
                Box::new(EpReceiver::new(*flow, self.ep, env))
            }
            Scheme::FlexPass => Box::new(FlexPassReceiver::new(*flow, self.fp, env)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simcore::time::Time;

    fn spec(src: usize, dst: usize) -> FlowSpec {
        FlowSpec {
            id: 1,
            src,
            dst,
            size: Bytes::new(1000),
            start: Time::ZERO,
            tag: 0,
            fg: false,
        }
    }

    #[test]
    fn rack_deployment_upgrades_whole_racks() {
        let rack_of: Vec<usize> = (0..24).map(|h| h / 6).collect(); // 4 racks
        let mut rng = SimRng::new(1);
        let d = Deployment::by_rack_ratio(&rack_of, 0.5, &mut rng);
        assert_eq!(d.upgraded_hosts(), 12);
        // Hosts of the same rack share upgrade status.
        for h in 0..24 {
            assert_eq!(d.host_upgraded(h), d.host_upgraded(6 * (h / 6)));
        }
    }

    #[test]
    fn flow_upgraded_requires_both_ends() {
        let rack_of: Vec<usize> = (0..12).map(|h| h / 6).collect(); // 2 racks
        let mut rng = SimRng::new(2);
        let d = Deployment::by_rack_ratio(&rack_of, 0.5, &mut rng);
        let up: Vec<usize> = (0..12).filter(|&h| d.host_upgraded(h)).collect();
        let down: Vec<usize> = (0..12).filter(|&h| !d.host_upgraded(h)).collect();
        assert!(d.flow_upgraded(&spec(up[0], up[1])));
        assert!(!d.flow_upgraded(&spec(up[0], down[0])));
        assert!(!d.flow_upgraded(&spec(down[0], down[1])));
        assert_eq!(d.tag_for(&spec(up[0], up[1])), TAG_UPGRADED);
        assert_eq!(d.tag_for(&spec(down[0], down[1])), TAG_LEGACY);
    }

    #[test]
    fn ratio_extremes() {
        let rack_of: Vec<usize> = (0..12).map(|h| h / 6).collect();
        let mut rng = SimRng::new(3);
        assert_eq!(
            Deployment::by_rack_ratio(&rack_of, 0.0, &mut rng).upgraded_hosts(),
            0
        );
        assert_eq!(
            Deployment::by_rack_ratio(&rack_of, 1.0, &mut rng).upgraded_hosts(),
            12
        );
        assert_eq!(Deployment::none(5).upgraded_hosts(), 0);
        assert_eq!(Deployment::full(5).upgraded_hosts(), 5);
    }

    #[test]
    fn upgraded_byte_fraction() {
        let d = Deployment {
            upgraded: vec![true, true, false],
        };
        let flows = vec![
            FlowSpec {
                size: Bytes::new(3000),
                ..spec(0, 1)
            },
            FlowSpec {
                size: Bytes::new(1000),
                ..spec(0, 2)
            },
        ];
        assert!((d.upgraded_byte_fraction(&flows) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::ALL.len(), 4);
        assert_eq!(Scheme::FlexPass.label(), "flexpass");
    }
}
