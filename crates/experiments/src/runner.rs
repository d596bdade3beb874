//! Shared scenario plumbing: scale presets and simulation helpers.

use flexpass_metrics::Recorder;
use flexpass_simcore::time::TimeDelta;
use flexpass_simnet::packet::FlowSpec;
pub use flexpass_simnet::sim::Stop;
use flexpass_simnet::sim::TransportFactory;
use flexpass_simnet::switch::SwitchProfile;
use flexpass_simnet::topology::{ClosParams, Topology};
use flexpass_simnet::ParSim;

use crate::orchestrate;

/// How large to run a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunScale {
    /// Seconds-per-point scale for CI / benches: small Clos, few flows.
    Smoke,
    /// The default: paper topology, reduced flow counts.
    Default,
    /// Paper-scale flow counts (hours of CPU, like the ns-2 artifact).
    Full,
}

impl RunScale {
    /// Background flow count per sweep point.
    pub fn flows(&self) -> usize {
        match self {
            RunScale::Smoke => 300,
            RunScale::Default => 1_000,
            RunScale::Full => 20_000,
        }
    }

    /// Clos fabric to simulate.
    pub fn clos(&self) -> ClosParams {
        match self {
            RunScale::Smoke => ClosParams::small(),
            _ => ClosParams::default(),
        }
    }

    /// Parses `smoke`/`default`/`full`.
    pub fn parse(s: &str) -> Option<RunScale> {
        match s {
            "smoke" => Some(RunScale::Smoke),
            "default" => Some(RunScale::Default),
            "full" => Some(RunScale::Full),
            _ => None,
        }
    }
}

/// Run to completion with the 20 ms drain every figure that waits for its
/// flows allows.
pub const DRAINED: Stop = Stop::Drained(TimeDelta::millis(20));

/// The one drive loop: builds the engine over `topo` with `--par-sim`'s
/// domain count (the engine cuts the fabric itself, or runs it whole on
/// this thread where it does not cut), schedules `flows`, optionally
/// samples the queues every `sampling`, runs to `stop`, and returns
/// `recorder` with every domain's measurements folded in, in domain order
/// (split-flow specs dedup inside [`Recorder::absorb`]). Inside a pool
/// task, the progress probe [`orchestrate`] installed on the worker thread
/// is attached so the heartbeat can watch the run; it is observational
/// only and cannot change any outcome.
pub fn run(
    topo: Topology,
    factory: Box<dyn TransportFactory>,
    mut recorder: Recorder,
    flows: &[FlowSpec],
    sampling: Option<TimeDelta>,
    stop: Stop,
) -> Recorder {
    let domains = orchestrate::par_sim();
    let mut sim = ParSim::new(topo, factory, domains, || recorder.fresh_like());
    if let Some(p) = orchestrate::task_probe() {
        sim.attach_progress(p);
    }
    if let Some(every) = sampling {
        sim.enable_sampling(every);
    }
    for f in flows {
        sim.schedule_flow(*f);
    }
    sim.run(stop);
    for domain in sim.into_observers() {
        recorder.absorb(domain);
    }
    recorder
}

/// Star testbed topology helper (§6.1: hosts behind one switch). Host NICs
/// use the unshaped variant of the switch profile (credit shaping is a
/// switch-port function; see `flexpass::profiles::host_variant`).
pub fn star_topo(n_hosts: usize, profile: &SwitchProfile) -> Topology {
    let rate = profile.port.rate;
    let host = flexpass::profiles::host_variant(profile);
    Topology::star(n_hosts, rate, TimeDelta::micros(5), profile, &host)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_presets() {
        assert_eq!(RunScale::parse("smoke"), Some(RunScale::Smoke));
        assert_eq!(RunScale::parse("full"), Some(RunScale::Full));
        assert_eq!(RunScale::parse("x"), None);
        assert!(RunScale::Smoke.flows() < RunScale::Default.flows());
        assert_eq!(RunScale::Smoke.clos().n_hosts(), 48);
        assert_eq!(RunScale::Default.clos().n_hosts(), 192);
    }
}
