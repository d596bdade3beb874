//! Workload builders for measuring the simulation substrate.
//!
//! `flexbench` (the benchmark of record, see `BENCHMARK.json`) times the
//! calendar and multipod workloads per layer, and the root package's
//! `tests/alloc_free_datapath.rs` counts allocations over [`datapath_sim`].

// Test code is exempt from the determinism bans in clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

use flexpass::{FlexPassConfig, FlexPassFactory};
use flexpass_simcore::event::EventQueue;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::Bytes;
use flexpass_simnet::port::{PortConfig, QueueSched};
use flexpass_simnet::queue::QueueConfig;
use flexpass_simnet::switch::{ClassMap, SwitchProfile};
use flexpass_simnet::topology::ClosParams;
use flexpass_simnet::{FlowSpec, NullObserver, ParSim, Sim, Topology};

/// Which calendar backend a workload runs against. The timing wheel is
/// the only one; the parameter is kept for `flexbench`'s call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The hierarchical timing wheel.
    Wheel,
}

/// Uniform batch workload: schedules `n` events at random instants within
/// a ~1 s horizon, then drains the calendar. Exercises raw push/pop cost
/// with no cancellations. Returns the number of events delivered.
pub fn uniform_workload(_backend: Backend, n: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut rng = SimRng::new(1);
    for i in 0..n {
        q.schedule(Time::from_nanos(rng.next_below(1 << 30)), i);
    }
    let mut delivered = 0u64;
    while q.pop().is_some() {
        delivered += 1;
    }
    delivered
}

/// Timer-churn workload modelling a transport's steady state: every step
/// pops and replaces a hot near-future event (a packet in flight, ~µs
/// horizon) while re-arming a cancellable RTO-style timer ~1 ms out — 90%
/// of which are cancelled before they fire, the common fate of a
/// retransmission timer under steady acks. The calendar population is
/// dominated by pending-and-doomed far timers, which the wheel parks in a
/// coarse level until cascade-time reaping discards them.
/// Returns the number of *live* events delivered.
pub fn timer_heavy_workload(_backend: Backend, n: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut rng = SimRng::new(7);
    let mut rto = std::collections::VecDeque::with_capacity(16);
    let mut now = Time::ZERO;
    let mut delivered = 0u64;
    for i in 0..n {
        // The hot event: next packet arrival within ~2 µs.
        q.schedule(now + TimeDelta::nanos(1 + rng.next_below(1 << 11)), i);
        // The RTO: ~1 ms out; progress (9 steps in 10) cancels the oldest
        // outstanding one, as an ack would.
        rto.push_back(q.schedule_cancelable(
            now + TimeDelta::nanos((1 << 20) + rng.next_below(1 << 12)),
            i,
        ));
        if i % 10 != 0 {
            if let Some(h) = rto.pop_front() {
                q.cancel(h);
            }
        }
        if let Some((t, _)) = q.pop() {
            now = t;
            delivered += 1;
        }
    }
    while q.pop().is_some() {
        delivered += 1;
    }
    delivered
}

/// The FlexPass factory (`w_q` = 0.5) every workload here runs.
fn flexpass_factory() -> Box<FlexPassFactory> {
    Box::new(FlexPassFactory::new(FlexPassConfig::new(0.5)))
}

/// Builds the warm-datapath workload: a star fabric with every host pair
/// exchanging one long FlexPass flow, sized so the network stays busy for
/// several simulated milliseconds. The alloc-free-datapath test warms it
/// up with [`Sim::run_until`], snapshots its allocator counter, runs a
/// measured window, and divides the allocation delta by the
/// [`Sim::events_processed`] delta. At steady state (all flows started,
/// none finished, every queue and timer table at its working size) that
/// ratio is what the `alloc-in-datapath` lint bounds statically.
pub fn datapath_sim(hosts: usize, flow_bytes: u64) -> Sim<NullObserver> {
    let rate = Rate::from_gbps(10);
    let profile = SwitchProfile {
        port: PortConfig {
            rate,
            queues: vec![(QueueConfig::plain(), QueueSched::strict(0))],
        },
        class_map: ClassMap::Single,
        shared_buffer: None,
    };
    let topo = Topology::star(hosts, rate, TimeDelta::micros(5), &profile, &profile);
    let mut sim = Sim::new(topo, flexpass_factory(), NullObserver);
    for i in 0..hosts as u64 {
        let src = i as usize;
        let dst = (src + 1) % hosts;
        sim.schedule_flow(FlowSpec {
            id: i,
            src,
            dst,
            size: Bytes::new(flow_bytes),
            start: Time::from_micros(i),
            tag: 0,
            fg: false,
        });
    }
    sim
}

/// Hosts in the multipod workload fabric.
pub const MULTIPOD_HOSTS: usize = 64;

/// The 64-host two-pod Clos used by the multipod workloads: 8 ToRs of
/// 8 hosts, two aggs per pod. Two domains cut it one pod per domain,
/// four into rack pairs.
pub fn multipod_params() -> ClosParams {
    ClosParams {
        hosts_per_tor: 8,
        ..ClosParams::small()
    }
}

fn multipod_profile() -> SwitchProfile {
    SwitchProfile {
        port: PortConfig {
            rate: Rate::from_gbps(40),
            queues: vec![(QueueConfig::plain(), QueueSched::strict(0))],
        },
        class_map: ClassMap::Single,
        shared_buffer: None,
    }
}

/// One long FlexPass flow per host to the host one rack over — mostly
/// intra-pod traffic, with the rack-boundary flows crossing the cut (16
/// of 64 at the pod cut, 32 at rack-pair granularity). Sized so nothing
/// completes inside the measured window.
fn multipod_flows() -> Vec<FlowSpec> {
    (0..MULTIPOD_HOSTS as u64)
        .map(|i| {
            let src = i as usize;
            FlowSpec {
                id: i,
                src,
                dst: (src + 8) % MULTIPOD_HOSTS,
                size: Bytes::new(50_000_000),
                start: Time::from_micros(i),
                tag: 0,
                fg: false,
            }
        })
        .collect()
}

/// Builds the multipod workload on the serial engine.
pub fn multipod_sim() -> Sim<NullObserver> {
    let profile = multipod_profile();
    let topo = Topology::clos(multipod_params(), &profile, &profile);
    let mut sim = Sim::new(topo, flexpass_factory(), NullObserver);
    for f in multipod_flows() {
        sim.schedule_flow(f);
    }
    sim
}

/// Builds the same workload on the engine asked for `domains` domains
/// (the two-pod Clos cuts into any count from 2 to 8).
pub fn multipod_par_sim(domains: usize) -> ParSim<NullObserver> {
    let profile = multipod_profile();
    let topo = Topology::clos(multipod_params(), &profile, &profile);
    let mut sim = ParSim::new(topo, flexpass_factory(), domains, || NullObserver);
    for f in multipod_flows() {
        sim.schedule_flow(f);
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_delivers_everything() {
        assert_eq!(uniform_workload(Backend::Wheel, 5_000), 5_000);
    }

    #[test]
    fn multipod_serial_and_parallel_agree() {
        // FlexPass at 40G saturation is feedback-sensitive: cross-cut
        // arrivals occupy different same-instant calendar positions than in
        // the serial run, so event counts agree only up to tie order (see
        // the parsim module doc). Exact equality is asserted by the
        // tie-free differential tests in simnet; here we bound the drift.
        let mut serial = multipod_sim();
        serial.run_until(Time::from_micros(300));
        let mut par = multipod_par_sim(2);
        par.run_until(Time::from_micros(300));
        assert_eq!(par.n_domains(), 2);
        let (s, p) = (serial.events_processed(), par.events_processed());
        let drift = s.abs_diff(p);
        assert!(
            drift * 1000 <= s,
            "engines diverged beyond tie-order noise: serial {s}, par {p}"
        );
        assert_eq!(par.flows_completed(), 0, "flows must outlive the window");
        let per_domain = par.events_per_domain();
        assert_eq!(per_domain.len(), 2);
        assert!(
            per_domain.iter().all(|&e| e > 0),
            "idle domain: {per_domain:?}"
        );
    }

    /// `events_processed` on a scheduled engine that has not run yet
    /// (it used to subtract every scheduled split flow and underflow).
    #[test]
    fn fresh_partitioned_engine_has_processed_nothing() {
        assert_eq!(multipod_par_sim(2).events_processed(), 0);
    }

    #[test]
    fn datapath_sim_reaches_steady_state() {
        let mut sim = datapath_sim(8, 50_000_000);
        sim.run_until(Time::from_micros(500));
        let warm = sim.events_processed();
        assert!(warm > 1_000, "only {warm} events by warm-up");
        assert_eq!(sim.flows_started(), 8, "all flows active");
        sim.run_until(Time::from_micros(1_000));
        assert!(sim.events_processed() > warm, "no progress in the window");
        assert_eq!(sim.flows_completed(), 0, "flows must outlive the window");
    }
}
