//! Micro-drivers: each times one layer's public entry points in isolation.
//!
//! `simnet.sim.run` is one opaque call from the benchmark's side, so its
//! time is attributed from outside: every driver here reports what one
//! operation of one layer costs on this host, and the exact post-run
//! counters say how many such operations a workload made. Drivers use
//! fixed seeds and sizes; none depends on the workload seed. Each value is
//! the fastest of [`ROUNDS`] identical rounds.

use std::collections::BTreeMap;
use std::hint::black_box;

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{flexpass_profile, host_variant, ProfileParams};
use flexpass::schemes::Scheme;
use flexpass::FlexPassFactory;
use flexpass_bench::{multipod_par_sim, multipod_sim, timer_heavy_workload, uniform_workload};
use flexpass_experiments::runner::RunScale;
use flexpass_experiments::sweep::{self, SweepSpec};
use flexpass_metrics::Recorder;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::Bytes;
use flexpass_simcore::FctSketch;
use flexpass_simnet::endpoint::{RxStats, TxStats};
use flexpass_simnet::port::Decision;
use flexpass_simnet::queue::{Enqueue, PacketQueue};
use flexpass_simnet::sim::{Node, TransportFactory};
use flexpass_simnet::topology::ClosParams;
use flexpass_simnet::{
    trace, AppEvent, Color, DataInfo, FlowSpec, NetObserver, Packet, PacketArena, PacketId,
    Payload, Port, QueueConfig, Subflow, Switch, Topology, TrafficClass, CTRL_WIRE, DATA_WIRE,
    MTU_PAYLOAD,
};
use flexpass_transport::dctcp::DctcpFactory;
use flexpass_transport::expresspass::ExpressPassFactory;
use flexpass_workload::{background, BackgroundParams, FlowSizeCdf};

use crate::clock::timed;
use crate::loopback;
use crate::spans::Spans;
use crate::stats::fastest;
use crate::units::{star_steady, UnitAcc};

/// Rounds per driver; the reported value is the fastest round's.
const ROUNDS: usize = 3;

/// Fastest of [`ROUNDS`] rounds: the host nanoseconds one of the `ops`
/// operations of `round` takes. A round's own set-up (an arena, a queue)
/// is on the clock; every driver makes it negligible beside `ops`.
fn ns_per_op(ops: u64, mut round: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| timed(&mut round).1 * 1e9 / ops as f64)
        .collect();
    fastest(&samples)
}

fn data_packet(flow: u64, src: usize, dst: usize, class: TrafficClass, color: Color) -> Packet {
    let mut p = Packet::new(
        flow,
        src,
        dst,
        DATA_WIRE,
        class,
        Payload::Data(DataInfo {
            flow_seq: 0,
            sub_seq: 0,
            sub: Subflow::Only,
            payload: MTU_PAYLOAD,
            retx: false,
        }),
    );
    p.color = color;
    p.ecn_capable = true;
    p
}

fn credit_packet(flow: u64) -> Packet {
    Packet::new(
        flow,
        1,
        0,
        CTRL_WIRE,
        TrafficClass::Credit,
        Payload::Credit(flexpass_simnet::CreditInfo { idx: 0 }),
    )
}

fn calendar(out: &mut BTreeMap<&'static str, f64>) {
    use flexpass_bench::Backend::Wheel;
    const N: u64 = 300_000;
    out.insert(
        "simcore.calendar.uniform_ns_per_op",
        ns_per_op(N, || {
            black_box(uniform_workload(Wheel, N));
        }),
    );
    out.insert(
        "simcore.calendar.timer_churn_ns_per_op",
        ns_per_op(N, || {
            black_box(timer_heavy_workload(Wheel, N));
        }),
    );
}

fn sketch(out: &mut BTreeMap<&'static str, f64>) {
    const N: u64 = 1_000_000;
    let mut rng = SimRng::new(11);
    let samples: Vec<f64> = (0..N).map(|_| rng.exponential(1e-3)).collect();
    out.insert(
        "simcore.stats.sketch_record_ns",
        ns_per_op(N, || {
            let mut s = FctSketch::new();
            for &x in &samples {
                s.push(x);
            }
            black_box(s.count());
        }),
    );
}

fn arena(out: &mut BTreeMap<&'static str, f64>) {
    const BATCH: usize = 64;
    const BATCHES: u64 = 20_000;
    let pkt = data_packet(1, 0, 1, TrafficClass::NewData, Color::Green);
    out.insert(
        "simnet.arena.acquire_release_ns",
        ns_per_op(BATCHES * BATCH as u64, || {
            let mut arena = PacketArena::with_capacity(BATCH);
            let mut ids = Vec::with_capacity(BATCH);
            for _ in 0..BATCHES {
                for _ in 0..BATCH {
                    ids.push(arena.acquire(pkt));
                }
                for id in ids.drain(..) {
                    black_box(arena.release(id));
                }
            }
        }),
    );
}

fn queue(out: &mut BTreeMap<&'static str, f64>) {
    const DEPTH: usize = 48; // crosses the 60 kB ECN threshold, stays under the red one
    const PASSES: u64 = 20_000;
    let params = ProfileParams::testbed(Rate::from_gbps(10));
    let cfg = QueueConfig::plain()
        .with_ecn(params.fp_ecn)
        .with_red_threshold(params.fp_red);
    out.insert(
        "simnet.queue.offer_dequeue_ns",
        ns_per_op(PASSES * DEPTH as u64, || {
            let mut arena = PacketArena::with_capacity(DEPTH);
            let ids: Vec<PacketId> = (0..DEPTH)
                .map(|i| {
                    let color = if i % 2 == 0 { Color::Green } else { Color::Red };
                    arena.acquire(data_packet(1, 0, 1, TrafficClass::NewData, color))
                })
                .collect();
            let mut q = PacketQueue::new(cfg);
            for _ in 0..PASSES {
                for &id in &ids {
                    black_box(q.offer(&mut arena, id));
                }
                while let Some(id) = q.dequeue(&mut arena) {
                    black_box(id);
                }
            }
        }),
    );

    // Refusals: one queue full to its static cap, one past its red
    // threshold; every offer after the fill is dropped and leaves the
    // queue as it was.
    const OFFERS: u64 = 1_000_000;
    let fill = |q: &mut PacketQueue, arena: &mut PacketArena| loop {
        let id = arena.acquire(data_packet(1, 0, 1, TrafficClass::NewData, Color::Red));
        if q.offer(arena, id) != Enqueue::Admitted {
            return id;
        }
    };
    out.insert(
        "simnet.queue.drop_path_ns",
        ns_per_op(OFFERS, || {
            let mut arena = PacketArena::with_capacity(256);
            let mut capped = PacketQueue::new(QueueConfig::capped(DATA_WIRE * 8));
            let mut red = PacketQueue::new(QueueConfig::plain().with_red_threshold(DATA_WIRE * 8));
            let probe_capped = fill(&mut capped, &mut arena);
            let probe_red = fill(&mut red, &mut arena);
            let mut refused = 0;
            for _ in 0..OFFERS / 2 {
                refused += u64::from(capped.offer(&mut arena, probe_capped) != Enqueue::Admitted);
                refused += u64::from(red.offer(&mut arena, probe_red) != Enqueue::Admitted);
            }
            assert_eq!(refused, OFFERS, "drop-path driver admitted a packet");
        }),
    );
}

/// Takes one service opportunity; returns whether a packet left.
fn serve(port: &mut Port, arena: &mut PacketArena, now: &mut Time) -> bool {
    match port.next_packet(arena, *now) {
        Decision::Send(id) => {
            let pkt = arena.release(id).expect("sent id is live");
            *now += port.serialize(pkt.wire);
            true
        }
        Decision::WaitUntil(t) => {
            *now = (*now).max(t);
            false
        }
        Decision::Idle => false,
    }
}

fn offer(port: &mut Port, arena: &mut PacketArena, q: usize, pkt: Packet) {
    let id = arena.acquire(pkt);
    if port.enqueue(arena, q, id).is_err() {
        arena.release(id);
    }
}

fn port(out: &mut BTreeMap<&'static str, f64>) {
    const PKTS: u64 = 500_000;
    let cfg = flexpass_profile(&ProfileParams::testbed(Rate::from_gbps(10))).port;

    // DWRR: the FlexPass and legacy queues stay backlogged and the credit
    // queue is offered one credit per two data packets; every service
    // opportunity is taken the instant the previous frame ends.
    out.insert(
        "simnet.port.dwrr_ns_per_pkt",
        ns_per_op(PKTS, || {
            let mut arena = PacketArena::with_capacity(256);
            let mut port = Port::new(&cfg);
            let mut now = Time::ZERO;
            let mut sent = 0;
            while sent < PKTS {
                if port.queue(1).len() < 8 {
                    for (q, class) in [(1, TrafficClass::NewData), (2, TrafficClass::Legacy)] {
                        let pkt = data_packet(1, 0, 1, class, Color::Green);
                        offer(&mut port, &mut arena, q, pkt);
                    }
                    offer(&mut port, &mut arena, 0, credit_packet(1));
                }
                sent += u64::from(serve(&mut port, &mut arena, &mut now));
            }
        }),
    );

    // Shaper: only the credit queue is backlogged, so every other call
    // finds the bucket short and computes the wake-up instant.
    out.insert(
        "simnet.port.shaper_ns_per_pkt",
        ns_per_op(PKTS, || {
            let mut arena = PacketArena::with_capacity(64);
            let mut port = Port::new(&cfg);
            let mut now = Time::ZERO;
            let mut sent = 0;
            while sent < PKTS {
                if port.queue(0).is_empty() {
                    offer(&mut port, &mut arena, 0, credit_packet(1));
                }
                sent += u64::from(serve(&mut port, &mut arena, &mut now));
            }
        }),
    );
}

/// Feeds `switches` packets to random destinations among `n_hosts` and
/// times `Switch::receive` alone: each batch is received on the clock and
/// drained off it.
fn switch_receive_ns(switches: &mut [&mut Switch], n_hosts: usize) -> f64 {
    const BATCH: usize = 32;
    const BATCHES: usize = 6_000;
    let mut round = || {
        let mut rng = SimRng::new(5);
        let mut arena = PacketArena::with_capacity(4 * BATCH);
        let mut secs = 0.0;
        let mut touched = Vec::with_capacity(BATCH);
        for _ in 0..BATCHES {
            let work: Vec<(usize, PacketId)> = (0..BATCH)
                .map(|_| {
                    let flow = rng.next_u64();
                    let dst = rng.index(n_hosts);
                    let src = (dst + 1 + rng.index(n_hosts - 1)) % n_hosts;
                    let pkt = data_packet(flow, src, dst, TrafficClass::NewData, Color::Green);
                    (rng.index(switches.len()), arena.acquire(pkt))
                })
                .collect();
            let ((), t) = timed(|| {
                for &(sw, id) in &work {
                    match switches[sw].receive(&mut arena, id) {
                        Ok(port) => touched.push((sw, port)),
                        Err((_, id)) => {
                            arena.release(id);
                        }
                    }
                }
            });
            secs += t;
            for (sw, port) in touched.drain(..) {
                let port = &mut switches[sw].ports[port];
                while let Decision::Send(id) = port.next_packet(&mut arena, Time::MAX) {
                    arena.release(id);
                }
            }
        }
        secs * 1e9 / (BATCH * BATCHES) as f64
    };
    fastest(&(0..ROUNDS).map(|_| round()).collect::<Vec<_>>())
}

fn switches_of(topo: &mut Topology, keep: impl Fn(&Switch) -> bool) -> Vec<&mut Switch> {
    topo.nodes
        .iter_mut()
        .filter_map(|n| match n {
            Node::Switch(s) if keep(s) => Some(s),
            _ => None,
        })
        .collect()
}

fn switch_and_topology(out: &mut BTreeMap<&'static str, f64>) {
    let testbed = flexpass_profile(&ProfileParams::testbed(Rate::from_gbps(10)));
    let mut star = Topology::star(
        8,
        Rate::from_gbps(10),
        TimeDelta::micros(5),
        &testbed,
        &host_variant(&testbed),
    );
    out.insert(
        "simnet.switch.receive_ns_star",
        switch_receive_ns(&mut switches_of(&mut star, |_| true), 8),
    );

    let small = ClosParams::small();
    let profile = Scheme::FlexPass.profile(&ProfileParams::simulation(small.link_rate), 1.0);
    let host = host_variant(&profile);
    let builds: Vec<f64> = (0..5)
        .map(|_| timed(|| black_box(Topology::clos(small, &profile, &host))).1)
        .collect();
    out.insert("simnet.topology.build_clos48_s", fastest(&builds));

    // The 10,240-host fabric is built once: it costs seconds and hundreds
    // of MiB. Packets go to random ToRs and aggs, so the route tables are
    // visited the way a run visits them — mostly out of cache.
    let big = ClosParams::with_hosts(10_240);
    let (mut topo, secs) = timed(|| Topology::clos(big, &profile, &host));
    out.insert("simnet.topology.build_clos10k_s", secs);
    let table_bytes: usize = switches_of(&mut topo, |_| true)
        .iter()
        .map(|s| {
            s.routes.capacity() * std::mem::size_of::<Vec<u16>>()
                + s.routes.iter().map(|r| r.capacity() * 2).sum::<usize>()
        })
        .sum();
    out.insert(
        "simnet.topology.route_table_mb_clos10k",
        table_bytes as f64 / (1024.0 * 1024.0),
    );
    let mut edge = switches_of(&mut topo, |s| s.tier <= 1);
    out.insert(
        "simnet.switch.receive_ns_clos10k",
        switch_receive_ns(&mut edge, big.n_hosts()),
    );
}

fn transports(out: &mut BTreeMap<&'static str, f64>) {
    let size = Bytes::new(10_000_000);
    let mut drive = |name, factory: &mut dyn TransportFactory, drop_every| {
        let rounds: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let run = loopback::run(factory, size, drop_every);
                assert!(run.completed, "{name}: loopback flow did not complete");
                run.ns_per_callback()
            })
            .collect();
        out.insert(name, fastest(&rounds));
    };
    drive("transport.dctcp.ns_per_pkt", &mut DctcpFactory::new(), None);
    drive(
        "transport.expresspass.ns_per_pkt",
        &mut ExpressPassFactory::new(),
        None,
    );
    let mut fp = FlexPassFactory::new(FlexPassConfig::new(0.5));
    drive("core.flexpass.ns_per_pkt", &mut fp, None);
    drive("core.flexpass.lossy_ns_per_pkt", &mut fp, Some(50));
}

fn workload_and_recorder(out: &mut BTreeMap<&'static str, f64>) {
    const FLOWS: usize = 100_000;
    let cdf = FlowSizeCdf::web_search();
    let params = BackgroundParams {
        n_hosts: 48,
        host_rate: Rate::from_gbps(40),
        oversub: 3.0,
        load: 0.5,
        n_flows: FLOWS,
        seed: 3,
        first_id: 0,
    };
    out.insert(
        "workload.background_ns_per_flow",
        ns_per_op(FLOWS as u64, || {
            black_box(background(&cdf, &params));
        }),
    );

    let flows = background(&cdf, &params);
    let feed = |rec: &mut Recorder| {
        for (i, f) in flows.iter().enumerate() {
            let spec = FlowSpec {
                tag: (i % 2) as u32,
                ..*f
            };
            rec.on_flow_start(&spec, f.start);
            let done = f.start + TimeDelta::micros(50 + (i as u64 % 977));
            rec.on_app_event(
                &AppEvent::FlowCompleted {
                    flow: f.id,
                    stats: RxStats::default(),
                },
                done,
            );
            rec.on_app_event(
                &AppEvent::SenderDone {
                    flow: f.id,
                    stats: TxStats::default(),
                },
                done,
            );
        }
    };
    let mut exact = Recorder::new();
    out.insert(
        "metrics.recorder.exact_ns_per_flow",
        ns_per_op(FLOWS as u64, || {
            exact = Recorder::new();
            feed(&mut exact);
        }),
    );
    out.insert(
        "metrics.recorder.streaming_ns_per_flow",
        ns_per_op(FLOWS as u64, || {
            let mut rec = Recorder::new().with_streaming();
            feed(&mut rec);
            black_box(rec.completed());
        }),
    );
    let summaries: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            timed(|| {
                for tag in [None, Some(0), Some(1)] {
                    black_box((
                        exact.p99_small(tag),
                        exact.avg_fct(tag),
                        exact.stddev_small(tag),
                    ));
                }
            })
            .1
        })
        .collect();
    out.insert("metrics.recorder.summary_s", fastest(&summaries));
}

/// Cost of the observability layers when armed, on a short `star_steady`
/// window: `(armed − plain) / plain`, each side the fastest of [`ROUNDS`]
/// rounds taken in alternation.
fn observability(out: &mut BTreeMap<&'static str, f64>) {
    const WINDOW_MS: u64 = 20;
    let run = |audited| {
        let unit = star_steady(1, WINDOW_MS, &mut Spans::off(), UnitAcc::new(audited));
        assert_eq!(unit.failed_check, None);
        unit.wall_s
    };
    let (mut plain, mut audited, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        plain.push(run(false));
        audited.push(run(true));
        trace::install(trace::TraceFilter::all());
        traced.push(run(false));
        black_box(trace::finish());
    }
    let plain = fastest(&plain);
    out.insert(
        "simnet.audit.overhead_frac",
        (fastest(&audited) - plain) / plain,
    );
    out.insert(
        "simnet.trace.overhead_frac",
        (fastest(&traced) - plain) / plain,
    );
}

/// The two thread-using layers, serial over parallel host time. With two
/// cores or fewer these do not repeat within a tenth (see the README);
/// they are reported for orientation and never gated.
fn parallel_layers(out: &mut BTreeMap<&'static str, f64>) {
    let until = Time::from_micros(250);
    let serial = timed(|| {
        let mut sim = multipod_sim();
        sim.run_until(until);
        black_box(sim.events_processed())
    })
    .1;
    let par = timed(|| {
        let mut sim = multipod_par_sim(2);
        sim.run_until(until);
        black_box(sim.events_processed())
    })
    .1;
    out.insert("simnet.parsim.speedup_2", serial / par);

    let mut spec = SweepSpec::fig10(RunScale::Smoke);
    spec.schemes = vec![Scheme::Naive, Scheme::FlexPass];
    spec.ratios = vec![0.5];
    spec.n_flows = Some(150);
    let jobs1 = timed(|| black_box(sweep::run_sweep_jobs(1, "flexbench", &spec))).1;
    let jobs2 = timed(|| black_box(sweep::run_sweep_jobs(2, "flexbench", &spec))).1;
    out.insert("experiments.orchestrate.jobs2_speedup", jobs1 / jobs2);
}

/// The metrics [`run_all`] produces, with their units.
pub const METRICS: [(&str, &str); 25] = [
    ("simcore.calendar.uniform_ns_per_op", "ns"),
    ("simcore.calendar.timer_churn_ns_per_op", "ns"),
    ("simcore.stats.sketch_record_ns", "ns"),
    ("simnet.arena.acquire_release_ns", "ns"),
    ("simnet.queue.offer_dequeue_ns", "ns"),
    ("simnet.queue.drop_path_ns", "ns"),
    ("simnet.port.dwrr_ns_per_pkt", "ns"),
    ("simnet.port.shaper_ns_per_pkt", "ns"),
    ("simnet.switch.receive_ns_star", "ns"),
    ("simnet.switch.receive_ns_clos10k", "ns"),
    ("simnet.topology.build_clos48_s", "s"),
    ("simnet.topology.build_clos10k_s", "s"),
    ("simnet.topology.route_table_mb_clos10k", "MiB"),
    ("transport.dctcp.ns_per_pkt", "ns"),
    ("transport.expresspass.ns_per_pkt", "ns"),
    ("core.flexpass.ns_per_pkt", "ns"),
    ("core.flexpass.lossy_ns_per_pkt", "ns"),
    ("workload.background_ns_per_flow", "ns"),
    ("metrics.recorder.exact_ns_per_flow", "ns"),
    ("metrics.recorder.streaming_ns_per_flow", "ns"),
    ("metrics.recorder.summary_s", "s"),
    ("simnet.audit.overhead_frac", "frac"),
    ("simnet.trace.overhead_frac", "frac"),
    ("simnet.parsim.speedup_2", "x"),
    ("experiments.orchestrate.jobs2_speedup", "x"),
];

/// Runs every micro-driver.
pub fn run_all() -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    calendar(&mut out);
    sketch(&mut out);
    arena(&mut out);
    queue(&mut out);
    port(&mut out);
    switch_and_topology(&mut out);
    transports(&mut out);
    workload_and_recorder(&mut out);
    observability(&mut out);
    parallel_layers(&mut out);
    out
}
