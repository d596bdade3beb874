//! Differential property tests: the partitioned conservative-sync engine
//! (`ParSim`) must agree with the serial engine on randomized multi-pod
//! Clos fabrics — identical flow-completion counts, identical per-flow
//! FCTs, and identical adjusted event counts at 2 and 4 domains.
//!
//! The transport is a deterministic paced blaster (fixed burst every 2 µs,
//! no congestion feedback) and flow starts carry prime-offset jitter, so
//! no two same-instant events contend for a port and the runs are exactly
//! comparable. Feedback transports at saturation agree only up to calendar
//! tie order of same-instant events on opposite sides of a cut (see the
//! `parsim` module doc); the bench crate bounds that drift separately.

use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::Bytes;
use flexpass_simnet::consts::{data_wire_bytes, packets_for, payload_of_packet};
use flexpass_simnet::endpoint::{AppEvent, Endpoint, EndpointCtx, RxStats, TxStats};
use flexpass_simnet::packet::{DataInfo, Packet, Payload, Subflow, TrafficClass};
use flexpass_simnet::port::{PortConfig, QueueSched};
use flexpass_simnet::queue::QueueConfig;
use flexpass_simnet::sim::{timer_token, NetEnv, NetObserver, Sim, Stop, TransportFactory};
use flexpass_simnet::switch::{ClassMap, SwitchProfile};
use flexpass_simnet::topology::{ClosParams, Topology};
use flexpass_simnet::{FlowSpec, ParSim};
use proptest::prelude::*;

fn profile() -> SwitchProfile {
    SwitchProfile {
        port: PortConfig {
            rate: Rate::from_gbps(40),
            queues: vec![(QueueConfig::plain(), QueueSched::strict(0))],
        },
        class_map: ClassMap::Single,
        shared_buffer: None,
    }
}

/// Paced blast sender: four packets per 2 µs timer tick until the flow's
/// bytes are out. Stateless per flow, so the emission schedule is a pure
/// function of the spec — identical in every domain layout.
struct PacedSender {
    spec: FlowSpec,
    next_seq: u32,
    done: bool,
}

impl Endpoint for PacedSender {
    fn activate(&mut self, ctx: &mut EndpointCtx) {
        ctx.set_timer(ctx.now, timer_token(self.spec.id, 1));
    }
    fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut EndpointCtx) {
        let total = packets_for(self.spec.size).get();
        for _ in 0..4 {
            if self.next_seq >= total {
                break;
            }
            let pay = payload_of_packet(self.spec.size, self.next_seq);
            ctx.send(Packet::new(
                self.spec.id,
                self.spec.src,
                self.spec.dst,
                data_wire_bytes(pay),
                TrafficClass::Legacy,
                Payload::Data(DataInfo {
                    flow_seq: self.next_seq,
                    sub_seq: self.next_seq,
                    sub: Subflow::Only,
                    payload: pay,
                    retx: false,
                }),
            ));
            self.next_seq += 1;
        }
        if self.next_seq < total {
            ctx.set_timer(ctx.now + TimeDelta::micros(2), timer_token(self.spec.id, 1));
        } else if !self.done {
            self.done = true;
            ctx.emit(AppEvent::SenderDone {
                flow: self.spec.id,
                stats: TxStats::default(),
            });
        }
    }
    fn finished(&self) -> bool {
        self.done
    }
}

struct CountReceiver {
    spec: FlowSpec,
    got: Bytes,
    done: bool,
}

impl Endpoint for CountReceiver {
    fn activate(&mut self, _ctx: &mut EndpointCtx) {}
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        self.got += pkt.payload_bytes();
        if self.got >= self.spec.size && !self.done {
            self.done = true;
            ctx.emit(AppEvent::FlowCompleted {
                flow: self.spec.id,
                stats: RxStats::default(),
            });
        }
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
    fn finished(&self) -> bool {
        self.done
    }
}

struct PacedFactory;

impl TransportFactory for PacedFactory {
    fn sender(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(PacedSender {
            spec: *flow,
            next_seq: 0,
            done: false,
        })
    }
    fn receiver(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(CountReceiver {
            spec: *flow,
            got: Bytes::ZERO,
            done: false,
        })
    }
}

/// Records flow completions `(flow id, fct ns)` for order-insensitive
/// comparison after sorting.
#[derive(Default)]
struct FctLog {
    completed: Vec<(u64, u64)>,
}

impl NetObserver for FctLog {
    fn on_app_event(&mut self, ev: &AppEvent, now: Time) {
        if let AppEvent::FlowCompleted { flow, .. } = ev {
            self.completed.push((*flow, now.as_nanos()));
        }
    }
}

/// Derives a valid flow set from opaque seeds: `src != dst` by
/// construction, sizes a few packets to a couple dozen, starts jittered
/// by primes so no two flows share an instant.
fn flows_from_seeds(seeds: &[u64], n_hosts: usize) -> Vec<FlowSpec> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let src = (s % n_hosts as u64) as usize;
            let hop = 1 + ((s >> 8) as usize % (n_hosts - 1));
            FlowSpec {
                id: i as u64,
                src,
                dst: (src + hop) % n_hosts,
                size: Bytes::new(6_000 + (s >> 16) % 30_000),
                start: Time::from_nanos(i as u64 * 977 + (s >> 32) % 739),
                tag: 0,
                fg: false,
            }
        })
        .collect()
}

type RunResult = (u64, usize, Vec<(u64, u64)>);

fn run_serial(params: ClosParams, flows: &[FlowSpec]) -> RunResult {
    let p = profile();
    let topo = Topology::clos(params, &p, &p);
    let mut sim = Sim::new(topo, Box::new(PacedFactory), FctLog::default());
    for f in flows {
        sim.schedule_flow(*f);
    }
    sim.run_to_completion(TimeDelta::micros(50));
    let mut fcts = sim.observer.completed.clone();
    fcts.sort_unstable();
    (sim.events_processed(), sim.flows_completed(), fcts)
}

fn run_par(params: ClosParams, flows: &[FlowSpec], n: usize) -> RunResult {
    let p = profile();
    let topo = Topology::clos(params, &p, &p);
    let mut par = ParSim::new(topo, Box::new(PacedFactory), n, FctLog::default);
    assert!(par.n_domains() >= 2, "multi-pod clos partitions");
    for f in flows {
        par.schedule_flow(*f);
    }
    par.run(Stop::Drained(TimeDelta::micros(50)));
    let events = par.events_processed();
    let done = par.flows_completed();
    let mut fcts: Vec<(u64, u64)> = par
        .into_observers()
        .into_iter()
        .flat_map(|o| o.completed)
        .collect();
    fcts.sort_unstable();
    (events, done, fcts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serial and partitioned runs of a randomized multi-pod fabric agree
    /// exactly: completions, per-flow FCTs, and adjusted event counts.
    #[test]
    fn par_engine_matches_serial_on_random_fabrics(
        n_tor in prop::sample::select(vec![4usize, 6, 8]),
        hosts_per_tor in prop::sample::select(vec![2usize, 3, 4]),
        seeds in prop::collection::vec(0u64..u64::MAX, 4..13),
    ) {
        let params = ClosParams { n_tor, hosts_per_tor, ..ClosParams::small() };
        let flows = flows_from_seeds(&seeds, n_tor * hosts_per_tor);
        let serial = run_serial(params, &flows);
        prop_assert_eq!(serial.1, flows.len(), "serial run must complete every flow");
        for n in [2usize, 4] {
            let par = run_par(params, &flows, n);
            prop_assert_eq!(par.1, serial.1, "completions diverged at n={}", n);
            prop_assert_eq!(&par.2, &serial.2, "per-flow FCTs diverged at n={}", n);
            prop_assert_eq!(par.0, serial.0, "event counts diverged at n={}", n);
        }
    }

    /// The partitioned engine is deterministic: two runs at the same
    /// domain count are bit-for-bit identical in everything we can see.
    #[test]
    fn par_engine_is_deterministic(
        n_tor in prop::sample::select(vec![4usize, 8]),
        seeds in prop::collection::vec(0u64..u64::MAX, 4..10),
    ) {
        let params = ClosParams { n_tor, hosts_per_tor: 3, ..ClosParams::small() };
        let flows = flows_from_seeds(&seeds, n_tor * 3);
        for n in [2usize, 4] {
            let first = run_par(params, &flows, n);
            let second = run_par(params, &flows, n);
            prop_assert_eq!(first, second, "nondeterministic run at n={}", n);
        }
    }
}
