//! The four workload units: what one repetition builds, runs and checks.
//!
//! A unit is a batch, closed run: generate flows from the seed, build the
//! fabric, construct the simulator, run it, summarise. The simulator only
//! ever sees the generated `FlowSpec`s. Each call into a layer's public
//! functions is wrapped in a span; the two end-to-end times are read at
//! the unit's own phase boundaries whether or not spans are recorded.

use std::collections::BTreeMap;

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{
    dctcp_profile, flexpass_profile, host_variant, naive_profile, ProfileParams,
};
use flexpass::schemes::{Deployment, Scheme, SchemeFactory, TAG_LEGACY, TAG_UPGRADED};
use flexpass::FlexPassFactory;
use flexpass_experiments::runner::{star_topo, RunScale};
use flexpass_experiments::scale::{self, ScaleSpec};
use flexpass_experiments::sweep::{self, SweepPoint, SweepSpec};
use flexpass_metrics::Recorder;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::{Bytes, WireBytes};
use flexpass_simnet::sim::{Node, TransportFactory};
use flexpass_simnet::switch::SwitchProfile;
use flexpass_simnet::{audit, FlowSpec, NetObserver, Packet, Sim, Topology};
use flexpass_transport::dctcp::DctcpFactory;
use flexpass_transport::expresspass::ExpressPassFactory;
use flexpass_workload::incast;

use crate::clock;
use crate::spans::Spans;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8-host star, 16 long flows, fixed 200 ms virtual window.
    StarSteady,
    /// The fig10 slice: 48-host Clos, four schemes to completion.
    ClosSweep,
    /// The 10,240-host Clos with the streaming recorder.
    ClosScale,
    /// 64→1 incast, 30 rounds, once per transport.
    IncastLoss,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::StarSteady,
        Workload::ClosSweep,
        Workload::ClosScale,
        Workload::IncastLoss,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StarSteady => "star_steady",
            Workload::ClosSweep => "clos_sweep",
            Workload::ClosScale => "clos_scale",
            Workload::IncastLoss => "incast_loss",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs one repetition of the workload. With `audited`, every
    /// simulation of the unit runs under the `simaudit` invariant layer
    /// and a violation fails the unit.
    pub fn run_unit(self, seed: u64, audited: bool, spans: &mut Spans) -> UnitResult {
        spans.next_unit();
        let acc = UnitAcc::new(audited);
        match self {
            Workload::StarSteady => star_steady(seed, STAR_WINDOW_MS, spans, acc),
            Workload::ClosSweep => clos_sweep(seed, spans, acc),
            Workload::ClosScale => clos_scale(seed, spans, acc),
            Workload::IncastLoss => incast_loss(seed, spans, acc),
        }
    }
}

/// Exact post-run counters, keyed by layer-qualified name. They are read
/// off `sim.nodes`, the `Sim` accessors and the recorder after the run, so
/// they cost the measured window nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<&'static str, u64>);

/// Every key a [`Counts`] can hold.
pub const COUNT_NAMES: [&str; 22] = [
    "simnet.sim.events",
    "simnet.arena.high_water",
    "simnet.arena.grows",
    "simnet.sim.timers_cancelled",
    "simnet.sim.schedule_clamps",
    "simnet.switch.forwarded",
    "simnet.switch.dropped_buffer",
    "simnet.switch.dropped_red",
    "simnet.switch.dropped_cap",
    "simnet.queue.ecn_marked",
    "simnet.port.tx_pkts",
    "simnet.host.nic_drops",
    "simnet.host.stray_rx",
    "simnet.host.rx_data_bytes",
    "transport.timeouts",
    "transport.retx_pkts",
    "transport.data_bytes",
    "transport.credits_received",
    "transport.credits_wasted",
    "core.flexpass.proactive_retx_pkts",
    "core.flexpass.redundant_bytes",
    "core.flexpass.reorder_peak_bytes",
];

impl Counts {
    fn add(&mut self, key: &'static str, v: u64) {
        debug_assert!(COUNT_NAMES.contains(&key), "undeclared count {key}");
        *self.0.entry(key).or_insert(0) += v;
    }

    fn max(&mut self, key: &'static str, v: u64) {
        debug_assert!(COUNT_NAMES.contains(&key), "undeclared count {key}");
        let e = self.0.entry(key).or_insert(0);
        *e = (*e).max(v);
    }

    /// The count under `key`, 0 when the unit never touched it.
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Folds the simulator-side counters of one finished run in.
    fn add_sim<O: NetObserver>(&mut self, sim: &Sim<O>) {
        let (_, high_water, _, grows) = sim.arena_stats();
        self.add("simnet.sim.events", sim.events_processed());
        self.max("simnet.arena.high_water", high_water as u64);
        self.add("simnet.arena.grows", grows);
        self.add("simnet.sim.timers_cancelled", sim.timers_cancelled());
        self.add("simnet.sim.schedule_clamps", sim.schedule_clamps());
        for node in &sim.nodes {
            let ports = match node {
                Node::Switch(s) => {
                    let c = s.counters();
                    self.add("simnet.switch.forwarded", c.forwarded);
                    self.add("simnet.switch.dropped_buffer", c.dropped_buffer);
                    self.add("simnet.switch.dropped_red", c.dropped_red);
                    self.add("simnet.switch.dropped_cap", c.dropped_cap);
                    s.ports.as_slice()
                }
                Node::Host(h) => {
                    let c = h.counters();
                    self.add("simnet.host.nic_drops", c.nic_drops);
                    self.add("simnet.host.stray_rx", c.stray_rx);
                    self.add("simnet.host.rx_data_bytes", c.rx_data_bytes.get());
                    std::slice::from_ref(&h.nic)
                }
            };
            for p in ports {
                self.add("simnet.port.tx_pkts", p.counters().tx_pkts);
                for q in 0..p.num_queues() {
                    self.add("simnet.queue.ecn_marked", p.queue(q).counters().ecn_marked);
                }
            }
        }
    }

    /// Folds the transport-side counters the recorder collected in.
    fn add_recorder(&mut self, rec: &Recorder) {
        for tx in rec.tx_by_tag.values() {
            self.add("transport.timeouts", tx.timeouts);
            self.add("transport.retx_pkts", tx.retx_pkts);
            self.add("transport.data_bytes", tx.data_bytes);
            self.add("transport.credits_received", tx.credits_received);
            self.add("transport.credits_wasted", tx.credits_wasted);
            self.add("core.flexpass.proactive_retx_pkts", tx.proactive_retx_pkts);
            self.add("core.flexpass.redundant_bytes", tx.redundant_bytes);
        }
        let peak = rec.flows.iter().map(|r| r.reorder_peak).max().unwrap_or(0);
        self.max("core.flexpass.reorder_peak_bytes", peak);
    }
}

/// FNV-1a over the simulated results, so two runs can be told identical
/// without keeping either.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Flow ids, sizes and FCT bit patterns of an exact recorder.
    fn exact_fcts(&mut self, rec: &Recorder) {
        for r in &rec.flows {
            self.u64(r.flow);
            self.u64(r.size);
            self.f64(r.fct);
        }
    }
}

/// What one repetition measured and checked.
#[derive(Clone, Debug)]
pub struct UnitResult {
    /// Host seconds for generation, topology, construction and scheduling
    /// (and warm-up on `star_steady`).
    pub setup_s: f64,
    /// Host seconds from `sim.run_*` start until results are summarised.
    pub wall_s: f64,
    /// The part of `wall_s` spent inside `sim.run_*`.
    pub run_s: f64,
    /// Flows offered.
    pub offered: u64,
    /// Flows that failed; every flow fails when a unit check does.
    pub failed: u64,
    /// The unit check that failed, if any.
    pub failed_check: Option<String>,
    /// Event count, completions, delivered bytes and a hash of the FCTs.
    pub digest: String,
    /// Exact counters.
    pub counts: Counts,
}

/// Accumulates a unit's phase times and checks while it runs.
pub struct UnitAcc {
    audited: bool,
    setup_ns: u64,
    wall_ns: u64,
    run_ns: u64,
    offered: u64,
    completed: u64,
    failed_check: Option<String>,
    hash: Fnv,
    counts: Counts,
}

impl UnitAcc {
    /// A fresh accumulator; `audited` arms the invariant layer around
    /// every simulation of the unit.
    pub fn new(audited: bool) -> Self {
        UnitAcc {
            audited,
            setup_ns: 0,
            wall_ns: 0,
            run_ns: 0,
            offered: 0,
            completed: 0,
            failed_check: None,
            hash: Fnv::new(),
            counts: Counts::default(),
        }
    }

    /// Records the first failing check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failed_check.is_none() {
            self.failed_check = Some(what());
        }
    }

    /// Arms the auditor for one simulation. Its ledgers describe a single
    /// simulation, so a unit of several points arms it once per point.
    fn audit_begin(&self) {
        if self.audited {
            audit::install();
        }
    }

    fn audit_end(&mut self, label: &str) {
        if self.audited {
            let clean = audit::finish().is_clean();
            self.check(clean, || {
                format!("{label}: audit found an invariant violated")
            });
        }
    }

    fn finish(self) -> UnitResult {
        let failed = if self.failed_check.is_some() {
            self.offered
        } else {
            self.offered - self.completed
        };
        let c = &self.counts;
        UnitResult {
            setup_s: self.setup_ns as f64 / 1e9,
            wall_s: self.wall_ns as f64 / 1e9,
            run_s: self.run_ns as f64 / 1e9,
            offered: self.offered,
            failed,
            failed_check: self.failed_check,
            digest: format!(
                "e{}-c{}-b{}-h{:016x}",
                c.get("simnet.sim.events"),
                self.completed,
                c.get("simnet.host.rx_data_bytes"),
                self.hash.0
            ),
            counts: self.counts,
        }
    }
}

/// Constructs the simulator and schedules every flow.
fn construct<O: NetObserver>(
    spans: &mut Spans,
    topo: Topology,
    factory: Box<dyn TransportFactory>,
    observer: O,
    flows: &[FlowSpec],
) -> Sim<O> {
    let sp = spans.enter("simnet.sim.construct");
    let mut sim = Sim::with_flow_capacity(topo, factory, observer, flows.len());
    for f in flows {
        sim.schedule_flow(*f);
    }
    spans.exit(sp);
    sim
}

/// Grace period after the last completion, as every figure uses.
const GRACE: TimeDelta = TimeDelta::millis(20);

/// Runs a completion workload's simulator and checks the properties every
/// completion run must have: all flows complete and each delivers exactly
/// its size.
fn run_to_completion(
    spans: &mut Spans,
    acc: &mut UnitAcc,
    sim: &mut Sim<Recorder>,
    flows: &[FlowSpec],
    label: &str,
) {
    let t0 = clock::now_ns();
    let sp = spans.enter("simnet.sim.run");
    sim.run_to_completion(GRACE);
    spans.exit(sp);
    acc.run_ns += clock::now_ns() - t0;
    acc.audit_end(label);

    let offered: Bytes = flows.iter().map(|f| f.size).sum();
    let rec = &sim.observer;
    acc.offered += flows.len() as u64;
    acc.completed += rec.completed() as u64;
    let rx_before = acc.counts.get("simnet.host.rx_data_bytes");
    acc.counts.add_sim(sim);
    acc.counts.add_recorder(rec);
    let delivered = acc.counts.get("simnet.host.rx_data_bytes") - rx_before;
    acc.check(rec.completed() == flows.len(), || {
        format!("{label}: completed {} of {}", rec.completed(), flows.len())
    });
    acc.check(sim.flows_completed() == flows.len(), || {
        format!("{label}: sim counted {} completions", sim.flows_completed())
    });
    acc.check(delivered >= offered.get(), || {
        format!("{label}: hosts received {delivered} B of {offered:?}")
    });
    if !rec.is_streaming() {
        let recorded: u64 = rec.flows.iter().map(|r| r.size).sum();
        acc.check(recorded == offered.get(), || {
            format!("{label}: recorded payload {recorded} B, offered {offered:?}")
        });
    }
}

/// Shifts every start time by a seeded amount below `max_ns`.
///
/// This is all a workload's seed does. Two seeds then offer the same
/// flows — sizes, pairs, arrival process — in different packet
/// interleavings: the simulated run differs (so does its digest) while the
/// work offered does not. Seeding the generators themselves moves the
/// offered volume with the seed (±20 % of `wall_s` on `clos_sweep`), and
/// runs on different seeds are what the benchmark's spread is taken over.
fn jitter_starts(flows: &mut [FlowSpec], seed: u64, max_ns: u64) {
    let mut rng = SimRng::new(seed);
    for f in flows {
        f.start += TimeDelta::nanos(rng.next_below(max_ns));
    }
}

/// Seed of the generators behind `clos_sweep` and `clos_scale`.
const GENERATOR_SEED: u64 = 1;

// ---------------------------------------------------------------- star_steady

/// The measured virtual window of `star_steady`.
pub const STAR_WINDOW_MS: u64 = 200;
const STAR_WARMUP_MS: u64 = 2;
const STAR_HOSTS: usize = 8;
/// Hosts 5 and 7 stay on DCTCP.
const STAR_UPGRADED: [bool; STAR_HOSTS] = [true, true, true, true, true, false, true, false];

/// Per-flow delivered payload; the only thing `star_steady` observes.
struct DeliveredByFlow(Vec<u64>);

impl NetObserver for DeliveredByFlow {
    fn on_delivered(&mut self, pkt: &Packet, _now: Time) {
        if pkt.is_data() {
            if let Some(b) = self.0.get_mut(pkt.flow as usize) {
                *b += pkt.payload_bytes().get();
            }
        }
    }
}

/// Two senders per receiver (`src→src+1`, `src→src+3`), sized so none
/// completes.
pub fn star_flows(seed: u64) -> Vec<FlowSpec> {
    let deployment = Deployment::from_hosts(STAR_UPGRADED.to_vec());
    let mut flows = Vec::with_capacity(2 * STAR_HOSTS);
    for hop in [1, 3] {
        for src in 0..STAR_HOSTS {
            let mut f = FlowSpec {
                id: flows.len() as u64,
                src,
                dst: (src + hop) % STAR_HOSTS,
                size: Bytes::new(300_000_000),
                start: Time::ZERO,
                tag: 0,
                fg: false,
            };
            f.tag = deployment.tag_for(&f);
            flows.push(f);
        }
    }
    jitter_starts(&mut flows, seed, 100_000);
    flows
}

/// The `star_steady` unit over a `window_ms` virtual window (the workload
/// uses [`STAR_WINDOW_MS`]; the audit/trace overhead probes a shorter one).
pub fn star_steady(seed: u64, window_ms: u64, spans: &mut Spans, mut acc: UnitAcc) -> UnitResult {
    acc.audit_begin();
    let t0 = clock::now_ns();

    let sp = spans.enter("workload.generate");
    let flows = star_flows(seed);
    spans.exit(sp);

    let sp = spans.enter("simnet.topology.build");
    let profile = flexpass_profile(&ProfileParams::testbed(Rate::from_gbps(10)));
    let topo = star_topo(STAR_HOSTS, &profile);
    spans.exit(sp);

    let deployment = Deployment::from_hosts(STAR_UPGRADED.to_vec());
    let frac = deployment.upgraded_byte_fraction(&flows);
    let factory = SchemeFactory::new(Scheme::FlexPass, deployment, FlexPassConfig::new(0.5), frac);
    let observer = DeliveredByFlow(vec![0; flows.len()]);
    let mut sim = construct(spans, topo, Box::new(factory), observer, &flows);

    let sp = spans.enter("simnet.sim.warmup");
    sim.run_until(Time::from_millis(STAR_WARMUP_MS));
    spans.exit(sp);
    let t1 = clock::now_ns();
    acc.setup_ns = t1 - t0;

    let sp = spans.enter("simnet.sim.run");
    sim.run_until(Time::from_millis(STAR_WARMUP_MS + window_ms));
    spans.exit(sp);
    acc.run_ns = clock::now_ns() - t1;
    acc.audit_end("star_steady");

    let sp = spans.enter("metrics.recorder.summarize");
    acc.offered = flows.len() as u64;
    acc.counts.add_sim(&sim);
    acc.check(sim.flows_started() == flows.len(), || {
        format!("star_steady: {} flows started", sim.flows_started())
    });
    acc.check(sim.flows_completed() == 0, || {
        "star_steady: a flow completed inside the window".to_string()
    });
    for (id, &bytes) in sim.observer.0.iter().enumerate() {
        acc.hash.u64(bytes);
        if bytes > 0 {
            acc.completed += 1;
        } else {
            acc.check(false, || {
                format!("star_steady: flow {id} delivered nothing")
            });
        }
    }
    spans.exit(sp);
    acc.wall_ns = clock::now_ns() - t1;
    acc.finish()
}

// ----------------------------------------------------------------- clos_sweep

/// The fig10 slice `clos_sweep` runs: every scheme at this deploy ratio.
pub const SWEEP_RATIO: f64 = 0.5;

/// Start-time jitter on the Clos fabrics: about one base RTT.
const CLOS_JITTER_NS: u64 = 20_000;

/// The sweep specification.
pub fn sweep_spec() -> SweepSpec {
    let mut spec = SweepSpec::fig10(RunScale::Smoke);
    spec.ratios = vec![SWEEP_RATIO];
    spec.seed = GENERATOR_SEED;
    spec
}

/// The statistics `sweep::run_point` keeps of one finished point.
fn summarize_point(scheme: Scheme, ratio: f64, rec: &Recorder) -> SweepPoint {
    let tags = [None, Some(TAG_LEGACY), Some(TAG_UPGRADED)];
    let upgraded: Vec<u64> = rec
        .flows
        .iter()
        .filter(|r| r.tag == TAG_UPGRADED)
        .map(|r| r.reorder_peak)
        .collect();
    SweepPoint {
        scheme: scheme.label(),
        ratio,
        p99_small: tags.map(|t| rec.p99_small(t)),
        avg: tags.map(|t| rec.avg_fct(t)),
        stddev_small: tags.map(|t| rec.stddev_small(t)),
        reorder_mean: if upgraded.is_empty() {
            0.0
        } else {
            upgraded.iter().map(|&b| b as f64).sum::<f64>() / upgraded.len() as f64
        },
        timeouts: rec.total_timeouts() as f64,
        redundancy: rec.redundancy_fraction(),
        flows: rec.completed() as f64,
    }
}

/// One (scheme, ratio) point rebuilt from the public pieces
/// `sweep::run_point` itself uses, so that set-up and run are timed apart
/// and the `Sim` counters can be read. A test holds it equal to
/// `sweep::run_point` field for field (without `jitter_seed`, which the
/// workload adds on top).
fn sweep_point_into(
    scheme: Scheme,
    ratio: f64,
    spec: &SweepSpec,
    jitter_seed: Option<u64>,
    spans: &mut Spans,
    acc: &mut UnitAcc,
) -> SweepPoint {
    let parent = spans.enter(&format!("experiments.sweep.point.{}", scheme.label()));
    acc.audit_begin();
    let t0 = clock::now_ns();

    let sp = spans.enter("workload.generate");
    let clos = spec.scale.clos();
    let n_hosts = clos.n_hosts();
    let rack_of: Vec<usize> = (0..n_hosts).map(|h| h / clos.hosts_per_tor).collect();
    let mut rng = SimRng::new(spec.seed.wrapping_mul(0x9E37).wrapping_add(7));
    let deployment = Deployment::by_rack_ratio(&rack_of, ratio, &mut rng);
    let mut flows = sweep::build_flows(spec, &deployment, n_hosts);
    if let Some(seed) = jitter_seed {
        jitter_starts(&mut flows, seed, CLOS_JITTER_NS);
    }
    let frac = deployment.upgraded_byte_fraction(&flows);
    spans.exit(sp);

    let sp = spans.enter("simnet.topology.build");
    let mut params = ProfileParams::simulation(clos.link_rate);
    params.wq = spec.wq;
    params.fp_red = WireBytes::new(spec.sel_drop);
    let profile = scheme.profile(&params, frac);
    let topo = Topology::clos(clos, &profile, &host_variant(&profile));
    spans.exit(sp);

    let factory = SchemeFactory::new(scheme, deployment, FlexPassConfig::new(spec.wq), frac);
    let mut sim = construct(spans, topo, Box::new(factory), Recorder::new(), &flows);
    let t1 = clock::now_ns();
    acc.setup_ns += t1 - t0;

    run_to_completion(spans, acc, &mut sim, &flows, scheme.label());

    let sp = spans.enter("metrics.recorder.summarize");
    let point = summarize_point(scheme, ratio, &sim.observer);
    acc.hash.exact_fcts(&sim.observer);
    spans.exit(sp);
    acc.wall_ns += clock::now_ns() - t1;
    spans.exit(parent);
    point
}

/// [`sweep_point_into`] on its own, for the equality test.
pub fn sweep_point(scheme: Scheme, ratio: f64, spec: &SweepSpec) -> SweepPoint {
    sweep_point_into(
        scheme,
        ratio,
        spec,
        None,
        &mut Spans::off(),
        &mut UnitAcc::new(false),
    )
}

fn clos_sweep(seed: u64, spans: &mut Spans, mut acc: UnitAcc) -> UnitResult {
    let spec = sweep_spec();
    let points: Vec<SweepPoint> = spec
        .schemes
        .iter()
        .map(|&scheme| sweep_point_into(scheme, SWEEP_RATIO, &spec, Some(seed), spans, &mut acc))
        .collect();

    let t0 = clock::now_ns();
    let sp = spans.enter("experiments.csv.render");
    let csv = sweep::to_csv(&points).render();
    spans.exit(sp);
    acc.wall_ns += clock::now_ns() - t0;
    acc.check(csv.lines().count() == points.len() + 1, || {
        format!("clos_sweep: CSV has {} lines", csv.lines().count())
    });
    for b in csv.bytes() {
        acc.hash.u64(u64::from(b));
    }
    acc.finish()
}

// ------------------------------------------------------------------ clos_scale

/// The scale point: the full 10,240-host fabric, few flows.
pub fn scale_spec() -> ScaleSpec {
    ScaleSpec {
        hosts: 10_240,
        n_flows: 4_000,
        size_cap: 100_000.0,
        load: 0.1,
        seed: GENERATOR_SEED,
    }
}

fn clos_scale(seed: u64, spans: &mut Spans, mut acc: UnitAcc) -> UnitResult {
    acc.audit_begin();
    let t0 = clock::now_ns();

    let sp = spans.enter("experiments.scale.build_point");
    let (topo, factory, mut flows) = scale::build_point(&scale_spec());
    jitter_starts(&mut flows, seed, CLOS_JITTER_NS);
    spans.exit(sp);
    let recorder = Recorder::new().with_streaming();
    let mut sim = construct(spans, topo, factory, recorder, &flows);
    let t1 = clock::now_ns();
    acc.setup_ns = t1 - t0;

    run_to_completion(spans, &mut acc, &mut sim, &flows, "clos_scale");

    let sp = spans.enter("metrics.recorder.summarize");
    let rec = &sim.observer;
    let streamed: u64 = rec.sketches().values().map(|s| s.count()).sum();
    acc.check(streamed == flows.len() as u64, || {
        format!("clos_scale: sketches hold {streamed} completions")
    });
    acc.check(rec.live_flows() == 0 && rec.retained_samples() == 0, || {
        format!(
            "clos_scale: {} live flows, {} retained samples",
            rec.live_flows(),
            rec.retained_samples()
        )
    });
    acc.hash.f64(rec.p99_small(None));
    acc.hash.f64(rec.avg_fct(None));
    spans.exit(sp);

    let sp = spans.enter("experiments.csv.render");
    let csv = scale::sketch_csv(rec).render();
    spans.exit(sp);
    for b in csv.bytes() {
        acc.hash.u64(u64::from(b));
    }
    acc.wall_ns = clock::now_ns() - t1;
    acc.finish()
}

// ----------------------------------------------------------------- incast_loss

const INCAST_SENDERS: usize = 64;
const INCAST_ROUNDS: u64 = 30;
const INCAST_RESP_BYTES: u64 = 64_000;
const INCAST_ROUND_GAP_US: u64 = 3_000;

/// The transports `incast_loss` runs, with the fabric each runs on.
pub const INCAST_TRANSPORTS: [&str; 3] = ["dctcp", "expresspass", "flexpass"];

fn incast_transport(name: &str) -> (Box<dyn TransportFactory>, SwitchProfile) {
    let params = ProfileParams::testbed(Rate::from_gbps(10));
    match name {
        "dctcp" => (Box::new(DctcpFactory::new()), dctcp_profile(&params)),
        "expresspass" => (Box::new(ExpressPassFactory::new()), naive_profile(&params)),
        _ => (
            Box::new(FlexPassFactory::new(FlexPassConfig::new(0.5))),
            flexpass_profile(&params),
        ),
    }
}

/// 30 rounds of a 64→1 incast. The jitter stays under the 1.2 µs a
/// frame takes on the wire, so a round remains one synchronized burst.
pub fn incast_flows(seed: u64) -> Vec<FlowSpec> {
    let senders: Vec<usize> = (0..INCAST_SENDERS).collect();
    let mut flows: Vec<FlowSpec> = (0..INCAST_ROUNDS)
        .flat_map(|round| {
            incast(
                &senders,
                INCAST_SENDERS,
                INCAST_RESP_BYTES,
                Time::from_micros(10 + round * INCAST_ROUND_GAP_US),
                round * INCAST_SENDERS as u64,
            )
        })
        .collect();
    jitter_starts(&mut flows, seed, 1_000);
    flows
}

fn incast_loss(seed: u64, spans: &mut Spans, mut acc: UnitAcc) -> UnitResult {
    for name in INCAST_TRANSPORTS {
        let parent = spans.enter(&format!("bench.incast.point.{name}"));
        acc.audit_begin();
        let t0 = clock::now_ns();

        let sp = spans.enter("workload.generate");
        let flows = incast_flows(seed);
        spans.exit(sp);

        let sp = spans.enter("simnet.topology.build");
        let (factory, profile) = incast_transport(name);
        let topo = star_topo(INCAST_SENDERS + 1, &profile);
        spans.exit(sp);

        let mut sim = construct(spans, topo, factory, Recorder::new(), &flows);
        let t1 = clock::now_ns();
        acc.setup_ns += t1 - t0;

        run_to_completion(spans, &mut acc, &mut sim, &flows, name);

        let sp = spans.enter("metrics.recorder.summarize");
        let stats = sim.observer.fct_stats(|_| true);
        acc.hash.f64(stats.max);
        acc.hash.f64(stats.p99);
        acc.hash.exact_fcts(&sim.observer);
        spans.exit(sp);
        acc.wall_ns += clock::now_ns() - t1;
        spans.exit(parent);
    }
    acc.finish()
}
