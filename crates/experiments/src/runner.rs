//! Shared scenario plumbing: scale presets and simulation helpers.

use flexpass_metrics::Recorder;
use flexpass_simcore::time::{Time, TimeDelta};
use flexpass_simnet::packet::FlowSpec;
use flexpass_simnet::sim::{Sim, TransportFactory};
use flexpass_simnet::switch::SwitchProfile;
use flexpass_simnet::topology::{ClosParams, Topology};
use flexpass_simnet::{partition, ParSim};

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

/// When [`run`] stops a simulation.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// At this virtual time (long-running-flow microbenchmarks measure
    /// throughput over a window rather than completion).
    At(Time),
    /// Once every flow has completed, plus this much drain.
    Drained(TimeDelta),
}

/// Run to completion with the 20 ms drain every figure that waits for its
/// flows allows.
pub const DRAINED: Stop = Stop::Drained(TimeDelta::millis(20));

/// The one drive loop: builds a simulator over `topo`, schedules `flows`,
/// optionally samples the queues every `sampling`, runs to `stop`, and
/// returns the recorder. `--par-sim N` selects the partitioned engine
/// where the fabric cuts (see `build_par`). Inside a pool task, the
/// progress probe [`orchestrate`] installed on the worker thread is
/// attached so the heartbeat can watch the run; it is observational only
/// and cannot change any outcome.
pub fn run(
    topo: Topology,
    factory: Box<dyn TransportFactory>,
    recorder: Recorder,
    flows: &[FlowSpec],
    sampling: Option<TimeDelta>,
    stop: Stop,
) -> Recorder {
    let probe = orchestrate::task_probe();
    match build_par(orchestrate::par_sim(), topo, factory, &recorder, flows) {
        Ok(mut par) => {
            if let Some(p) = probe {
                par.attach_progress(p);
            }
            if let Some(every) = sampling {
                par.enable_sampling(every);
            }
            for f in flows {
                par.schedule_flow(*f);
            }
            match stop {
                Stop::At(deadline) => par.run_until(deadline),
                Stop::Drained(grace) => par.run_to_completion(grace),
            }
            merge_domains(recorder, par)
        }
        Err((topo, factory)) => {
            let mut sim = Sim::with_flow_capacity(topo, factory, recorder, flows.len());
            if let Some(p) = probe {
                sim.attach_progress(p);
            }
            if let Some(every) = sampling {
                sim.enable_sampling(every);
            }
            for f in flows {
                sim.schedule_flow(*f);
            }
            match stop {
                Stop::At(deadline) => sim.run_until(deadline),
                Stop::Drained(grace) => sim.run_to_completion(grace),
            }
            sim.observer
        }
    }
}

/// Builds the partitioned engine when `--par-sim` asks for more than one
/// domain, the factory supports per-domain cloning, and the topology cuts
/// usefully. Otherwise hands the topology and factory back (`Err`) so the
/// caller runs the serial engine.
fn build_par(
    n: usize,
    topo: Topology,
    factory: Box<dyn TransportFactory>,
    recorder: &Recorder,
    flows: &[FlowSpec],
) -> Result<ParSim<Recorder>, (Topology, Box<dyn TransportFactory>)> {
    if n < 2 {
        return Err((topo, factory));
    }
    let mut factories = Vec::with_capacity(n);
    for _ in 0..n {
        match factory.try_clone() {
            Some(f) => factories.push(f),
            None => return Err((topo, factory)),
        }
    }
    match partition(topo, n) {
        Ok(part) => {
            // The partitioner may produce fewer domains than requested
            // (fewer racks than `n`); drop the surplus clones.
            factories.truncate(part.n_domains());
            let observers: Vec<Recorder> = (0..part.n_domains())
                .map(|_| recorder.fresh_like())
                .collect();
            Ok(ParSim::new(part, factories, observers, flows.len()))
        }
        Err(topo) => Err((topo, factory)),
    }
}

/// Folds the per-domain recorders back into `base` in domain order
/// (deterministic merge; split-flow specs dedup inside
/// [`Recorder::absorb`]).
fn merge_domains(base: Recorder, par: ParSim<Recorder>) -> Recorder {
    let mut merged = base;
    for obs in par.into_observers() {
        merged.absorb(obs);
    }
    merged
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
