//! The simulation engine the experiments, the bench crate and the engine
//! tests drive: a whole [`Topology`] and one factory go in, and the engine
//! cuts the fabric itself ([`partition`]); every domain builds its
//! endpoints from that one factory. One domain — `domains < 2` or a fabric
//! with no useful cut — is a plain [`Sim`] run inline on the calling
//! thread, so thread-local observers
//! (`audit`, `trace`) installed by the caller see every event. Two or
//! more domains run on scoped threads under conservative windowed
//! synchronization.
//!
//! # Protocol (two or more domains)
//!
//! Each domain runs an ordinary [`Sim`] over its slice of the fabric. The
//! engine advances all domains in lock-step windows. Per window, every
//! domain thread:
//!
//! 1. waits at a barrier (making the previous window's cross-domain
//!    sends visible),
//! 2. drains its inboxes in ascending sender-domain order (each channel
//!    is FIFO, so the injection order — and therefore calendar tie order
//!    for same-instant arrivals — is deterministic),
//! 3. publishes its earliest pending event time into a shared minimum,
//!    plus its completion/event counters,
//! 4. waits at a second barrier (the minimum is now final),
//! 5. computes the same run/stop decision every other domain computes
//!    from the same shared snapshot, then processes every local event
//!    strictly before `horizon = t_min + lookahead`,
//! 6. pushes the packets that crossed a cut into the destination
//!    domain's channel, stamped with their arrival instant.
//!
//! Soundness: an event at `t ≥ t_min` in any domain can influence another
//! domain no earlier than `t + lookahead ≥ horizon` (the cut's minimum
//! link propagation), so events before the horizon are causally closed —
//! the classic conservative null-message guarantee, here enforced by a
//! global window barrier instead of per-channel null messages. Messages
//! generated inside window `w` carry arrival times `≥ horizon_w` and are
//! injected at the top of window `w+1`, before the next minimum is taken.
//!
//! # Determinism
//!
//! Runs are deterministic for a fixed domain count: the window sequence
//! is a pure function of event times, inbox drain order is fixed, and
//! each domain's intra-window execution is the serial engine's. Results
//! across *different* domain counts agree up to calendar tie order of
//! same-instant events on different sides of a cut (and exactly, for the
//! figure workloads CI byte-diffs).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Barrier, OnceLock};

use flexpass_simcore::time::{Time, TimeDelta};
use flexpass_simcore::ProgressProbe;

use crate::audit;
use crate::packet::{FlowSpec, Packet};
use crate::partition::{partition, Partition};
use crate::sim::{FlowRole, NetObserver, NodeId, PartitionCtx, Sim, Stop, TransportFactory};
use crate::topology::Topology;

/// A packet in flight across a domain cut: `(arrival instant, destination
/// node, packet value)`. The packet left the sender domain's arena and
/// will be re-acquired in the receiver domain's arena on injection.
type Handoff = (Time, NodeId, Packet);

/// The simulation driver: one [`Sim`] per domain of the fabric it cut.
pub struct ParSim<O: NetObserver + Send> {
    sims: Vec<Sim<O>>,
    domain_of: Arc<Vec<u32>>,
    host_domain: Vec<u32>,
    lookahead: TimeDelta,
    total_flows: usize,
    probe: Option<Arc<ProgressProbe>>,
}

impl<O: NetObserver + Send> ParSim<O> {
    /// Cuts `topo` into at most `domains` domains and builds one [`Sim`]
    /// per domain, all sharing `factory`, each with an observer from
    /// `observer` (called once per domain, in domain order).
    pub fn new(
        topo: Topology,
        factory: Box<dyn TransportFactory>,
        domains: usize,
        mut observer: impl FnMut() -> O,
    ) -> Self {
        let factory: Arc<dyn TransportFactory> = Arc::from(factory);
        let Partition {
            parts,
            domain_of,
            host_domain,
            lookahead,
        } = partition(topo, domains);
        let cut = parts.len() > 1;
        assert!(
            !cut || lookahead > TimeDelta::ZERO,
            "a cut needs positive lookahead"
        );
        let sims = parts
            .into_iter()
            .enumerate()
            .map(|(me, topo)| {
                let mut sim = Sim::sharing(topo, Arc::clone(&factory), observer());
                if cut {
                    sim.set_partition(PartitionCtx {
                        domain_of: Arc::clone(&domain_of),
                        me: u32::try_from(me).expect("domain count fits u32"),
                    });
                }
                sim
            })
            .collect();
        ParSim {
            sims,
            domain_of,
            host_domain,
            lookahead,
            total_flows: 0,
            probe: None,
        }
    }

    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.sims.len()
    }

    /// Schedules a flow. An intra-domain flow registers both endpoint
    /// halves in its domain; a cut-crossing flow is split — receiver half
    /// in the destination host's domain, sender half in the source's.
    pub fn schedule_flow(&mut self, spec: FlowSpec) {
        let domain = |host: usize| {
            let d = self.host_domain.get(host).expect("flow endpoint in range");
            *d as usize
        };
        let (sd, rd) = (domain(spec.src), domain(spec.dst));
        self.total_flows += 1;
        let mut half = |d: usize, role| {
            let sim = self.sims.get_mut(d).expect("host domain in range");
            sim.schedule_flow_role(spec, role);
        };
        if sd == rd {
            half(sd, FlowRole::Both);
        } else {
            half(rd, FlowRole::Receiver);
            half(sd, FlowRole::Sender);
        }
    }

    /// Enables periodic queue sampling in every domain (it stops once the
    /// scheduled flows have completed).
    pub fn enable_sampling(&mut self, every: TimeDelta) {
        for sim in &mut self.sims {
            sim.enable_sampling(every);
        }
    }

    /// Attaches a progress probe the next [`ParSim::run`] publishes into:
    /// event totals, virtual time and arena statistics, plus per-domain
    /// event counts when the fabric is cut (domain 0's thread publishes at
    /// window boundaries).
    pub fn attach_progress(&mut self, probe: Arc<ProgressProbe>) {
        self.probe = Some(probe);
    }

    /// Flows completed across all domains (each completion fires exactly
    /// once, receiver-side, so the sum has no double counting).
    pub fn flows_completed(&self) -> usize {
        self.sims.iter().map(|s| s.flows_completed()).sum()
    }

    /// Total events processed, comparable with a serial run: a split flow
    /// pops one FlowStart in each of its two domains where the serial
    /// engine pops one, so the sender halves' pops are subtracted. All
    /// other event kinds map one-to-one.
    pub fn events_processed(&self) -> u64 {
        self.sims
            .iter()
            .map(|s| s.events_processed() - s.sender_half_starts)
            .sum()
    }

    /// Raw events processed per domain (load-balance metric; includes the
    /// duplicate FlowStart of split flows).
    pub fn events_per_domain(&self) -> Vec<u64> {
        self.sims.iter().map(|s| s.events_processed()).collect()
    }

    /// Consumes the engine, returning the per-domain observers in domain
    /// order (merge with the metrics layer's absorb operation).
    pub fn into_observers(self) -> Vec<O> {
        self.sims.into_iter().map(|s| s.observer).collect()
    }

    /// [`ParSim::run`] to [`Stop::At`].
    pub fn run_until(&mut self, deadline: Time) {
        self.run(Stop::At(deadline));
    }

    /// Runs to `stop`: [`Sim::run`] inline for one domain, the window
    /// protocol of the module doc for more. Under [`Stop::Drained`] the
    /// drain is anchored at the global completion instant.
    ///
    /// # Panics
    ///
    /// Panics under [`Stop::Drained`] if every calendar drains while flows
    /// are incomplete (same contract as [`Sim::run`]), or if a domain
    /// thread panics (the panic message is re-raised on the calling
    /// thread).
    pub fn run(&mut self, stop: Stop) {
        if let [only] = self.sims.as_mut_slice() {
            if let Some(probe) = &self.probe {
                only.attach_progress(Arc::clone(probe));
            }
            return only.run(stop);
        }
        let k = self.sims.len();
        let shared = Shared {
            barrier: Barrier::new(k),
            tmin: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
            poisoned: [AtomicBool::new(false), AtomicBool::new(false)],
            domains: (0..k).map(|_| DomainCounters::default()).collect(),
            last_comp: AtomicU64::new(0),
            drained_incomplete: AtomicBool::new(false),
            panic_msg: OnceLock::new(),
            probe: self.probe.as_deref(),
            domain_of: &self.domain_of,
            stop,
            lookahead: self.lookahead,
            total_flows: self.total_flows,
            audit_active: audit::is_active(),
        };

        // k×k cross-domain channels; txs[i][j] sends i→j, rxs[j][i]
        // receives from i. The self-channel exists but stays empty.
        let mut txs: Vec<Vec<Sender<Handoff>>> = (0..k).map(|_| Vec::with_capacity(k)).collect();
        let mut rxs: Vec<Vec<Receiver<Handoff>>> = (0..k).map(|_| Vec::with_capacity(k)).collect();
        for i in 0..k {
            for j in 0..k {
                let (tx, rx) = std::sync::mpsc::channel();
                txs.get_mut(i).expect("sender row in range").push(tx);
                rxs.get_mut(j).expect("receiver row in range").push(rx);
            }
        }

        #[expect(
            clippy::disallowed_methods,
            reason = "the parallel engine's domain runners: one thread per domain, \
                      each a single-threaded simulation in lock-step windows"
        )]
        let partials: Vec<Option<audit::PartialAudit>> = std::thread::scope(|s| {
            let shared = &shared;
            let mut handles = Vec::with_capacity(k);
            for (me, ((sim, my_tx), my_rx)) in self.sims.iter_mut().zip(txs).zip(rxs).enumerate() {
                handles.push(s.spawn(move || domain_loop(shared, me, sim, &my_tx, &my_rx)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("domain threads catch their own panics"))
                .collect()
        });

        // Domain threads installed their own auditor when the calling
        // thread has one active; their partial states merge back here.
        for p in partials.into_iter().flatten() {
            audit::absorb_partial(p);
        }

        if shared.drained_incomplete.load(Ordering::SeqCst) {
            // lint:allow(panic-path): same contract as the serial engine —
            // a drained calendar with incomplete flows is a transport bug.
            panic!(
                "event queue drained with {}/{} flows incomplete",
                shared.completed(),
                shared.total_flows
            );
        }
        if shared.poisoned.iter().any(|p| p.load(Ordering::SeqCst)) {
            let msg = shared.panic_msg.get().map(String::as_str);
            // lint:allow(panic-path): re-raise a domain thread's panic on
            // the calling thread so orchestrate's fault isolation sees it.
            panic!("{}", msg.unwrap_or("domain thread panicked"));
        }
    }
}

/// What one domain publishes at each window boundary.
#[derive(Default)]
struct DomainCounters {
    completed: AtomicUsize,
    events: AtomicU64,
    arena_grows: AtomicU64,
    arena_hw: AtomicU64,
}

/// The state the domain threads of one run share.
struct Shared<'a> {
    barrier: Barrier,
    /// The window's global minimum event time. The two cells ping-pong by
    /// window parity: while window w's cell converges, domain 0 resets the
    /// other for window w+1 (ordered by the barriers on both sides).
    tmin: [AtomicU64; 2],
    /// A faulted domain says so in the cell of the window it publishes
    /// into, like its t-min: a flag raised at any instant could be seen
    /// by one thread's decision and missed by another's, and the one
    /// that stayed would wait at the next barrier alone.
    poisoned: [AtomicBool; 2],
    domains: Vec<DomainCounters>,
    last_comp: AtomicU64,
    drained_incomplete: AtomicBool,
    panic_msg: OnceLock<String>,
    probe: Option<&'a ProgressProbe>,
    domain_of: &'a [u32],
    stop: Stop,
    lookahead: TimeDelta,
    total_flows: usize,
    audit_active: bool,
}

impl Shared<'_> {
    fn completed(&self) -> usize {
        let done = |d: &DomainCounters| d.completed.load(Ordering::SeqCst);
        self.domains.iter().map(done).sum()
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn payload_msg(e: Box<dyn std::any::Any + Send>) -> String {
    match e.downcast::<String>() {
        Ok(s) => *s,
        Err(e) => match e.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "domain thread panicked".to_string(),
        },
    }
}

fn domain_loop<O: NetObserver + Send>(
    sh: &Shared<'_>,
    me: usize,
    sim: &mut Sim<O>,
    my_tx: &[Sender<Handoff>],
    my_rx: &[Receiver<Handoff>],
) -> Option<audit::PartialAudit> {
    if sh.audit_active {
        audit::install();
    }

    // The drain deadline, once known. `Stop::At` fixes it up front; under
    // `Stop::Drained` every thread arms it at the same window, from the
    // same shared completion snapshot.
    let mut deadline: Option<Time> = match sh.stop {
        Stop::At(t) => Some(t),
        Stop::Drained(_) => None,
    };
    let mine = sh.domains.get(me).expect("one counter set per domain");
    let mut w: usize = 0;
    // This domain caught a panic: it does no more work and says so at
    // the next publication.
    let mut faulted = false;

    loop {
        // B1: the previous window's channel sends are now visible.
        sh.barrier.wait();

        // Catchable per-window work, phase 1: drain inboxes (ascending
        // sender order keeps calendar tie order deterministic).
        if !faulted {
            let drained = catch_unwind(AssertUnwindSafe(|| {
                for rx in my_rx {
                    while let Ok((at, node, pkt)) = rx.try_recv() {
                        sim.inject_arrival(at, node, pkt);
                    }
                }
            }));
            if let Err(e) = drained {
                let _ = sh.panic_msg.set(payload_msg(e));
                faulted = true;
            }
        }

        // Publish this domain's state for the window decision.
        let poison = sh.poisoned.get(w & 1).expect("two parity cells");
        let my_min = if faulted {
            poison.store(true, Ordering::SeqCst);
            u64::MAX
        } else {
            sim.next_event_time().map_or(u64::MAX, |t| t.as_nanos())
        };
        let cell = sh.tmin.get(w & 1).expect("two parity cells");
        cell.fetch_min(my_min, Ordering::SeqCst);
        let (_, hw, _, grows) = sim.arena_stats();
        mine.completed
            .store(sim.flows_completed(), Ordering::SeqCst);
        mine.events.store(sim.events_processed(), Ordering::SeqCst);
        mine.arena_grows.store(grows, Ordering::SeqCst);
        mine.arena_hw.store(hw as u64, Ordering::SeqCst);
        sh.last_comp
            .fetch_max(sim.last_completion().as_nanos(), Ordering::SeqCst);

        // B2: the global minimum and all counters are final.
        sh.barrier.wait();

        // Every thread computes the identical decision from the same
        // shared snapshot — no thread may diverge, or barriers deadlock.
        if poison.load(Ordering::SeqCst) {
            break;
        }
        let t_min = cell.load(Ordering::SeqCst);
        if let (None, Stop::Drained(grace)) = (deadline, sh.stop) {
            if sh.completed() >= sh.total_flows {
                // Global completion: anchor the grace window at the max
                // per-domain completion instant (= the serial completion
                // time) and stop periodic sampling, as the serial engine
                // does when its flow table completes.
                deadline = Some(Time::from_nanos(sh.last_comp.load(Ordering::SeqCst)) + grace);
                sim.stop_sampling();
            }
        }
        if t_min == u64::MAX {
            // Only `Stop::Drained` with flows still incomplete has no
            // deadline here.
            if deadline.is_none() {
                sh.drained_incomplete.store(true, Ordering::SeqCst);
            }
            break;
        }
        let t_min = Time::from_nanos(t_min);
        if deadline.is_some_and(|dl| t_min > dl) {
            break;
        }

        if me == 0 {
            // Reset the other parity cell for window w+1. Safe: every
            // thread finished reading it (window w-1's decision) before
            // B1 of this window, and none writes it before B1 of w+1.
            let other = sh.tmin.get((w + 1) & 1).expect("two parity cells");
            other.store(u64::MAX, Ordering::SeqCst);
            if let Some(p) = sh.probe {
                let (mut events, mut grows, mut hw) = (0, 0, 0);
                for (d, c) in sh.domains.iter().enumerate() {
                    let e = c.events.load(Ordering::SeqCst);
                    p.publish_domain_events(d, e);
                    events += e;
                    grows += c.arena_grows.load(Ordering::SeqCst);
                    hw += c.arena_hw.load(Ordering::SeqCst);
                }
                p.publish(events, t_min.as_nanos());
                p.publish_arena(grows, hw);
            }
        }

        // The causally closed window: [t_min, t_min + lookahead), capped
        // one past the drain deadline so deadline-instant events still
        // run (`Stop::At` is inclusive).
        let mut horizon = t_min.saturating_add(sh.lookahead);
        if let Some(dl) = deadline {
            horizon = horizon.min(dl.saturating_add(TimeDelta::nanos(1)));
        }

        // Catchable per-window work, phase 2: run the window, then hand
        // off cut-crossing packets. Send errors are ignored — every
        // receiver lives until all domains leave at the same decision.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            sim.run_window(horizon);
            for &(at, node, pkt) in &sim.outbox {
                let d = sh.domain_of.get(node).copied().unwrap_or(0) as usize;
                if let Some(tx) = my_tx.get(d) {
                    let _ = tx.send((at, node, pkt));
                }
            }
            sim.outbox.clear();
        }));
        if let Err(e) = ran {
            let _ = sh.panic_msg.set(payload_msg(e));
            faulted = true;
        }
        w += 1;
    }

    if sh.audit_active {
        audit::take_partial()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{AppEvent, Endpoint, EndpointCtx, RxStats, TxStats};
    use crate::packet::{DataInfo, Payload, Subflow, TrafficClass};
    use crate::port::{Port, PortConfig, QueueSched};
    use crate::queue::QueueConfig;
    use crate::sim::NetEnv;
    use crate::switch::{ClassMap, SwitchProfile};
    use crate::topology::ClosParams;
    use flexpass_simcore::time::Rate;
    use flexpass_simcore::units::Bytes;
    use proptest::prelude::*;

    fn profile(rate: Rate) -> SwitchProfile {
        SwitchProfile {
            port: PortConfig {
                rate,
                queues: vec![(QueueConfig::plain(), QueueSched::strict(0))],
            },
            class_map: ClassMap::Single,
            shared_buffer: None,
        }
    }

    /// Windowed blast transport: the sender emits a burst of packets per
    /// timer tick until the flow's bytes are sent; the receiver counts
    /// and completes. Simple, deterministic, and stateless per flow.
    struct PacedSender {
        spec: FlowSpec,
        next_seq: u32,
        done: bool,
    }

    impl Endpoint for PacedSender {
        fn activate(&mut self, ctx: &mut EndpointCtx) {
            ctx.set_timer(ctx.now, crate::sim::timer_token(self.spec.id, 1));
        }
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut EndpointCtx) {
            let total = crate::consts::packets_for(self.spec.size).get();
            for _ in 0..4 {
                if self.next_seq >= total {
                    break;
                }
                let pay = crate::consts::payload_of_packet(self.spec.size, self.next_seq);
                ctx.send(Packet::new(
                    self.spec.id,
                    self.spec.src,
                    self.spec.dst,
                    crate::consts::data_wire_bytes(pay),
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
                ctx.set_timer(
                    ctx.now + TimeDelta::micros(2),
                    crate::sim::timer_token(self.spec.id, 1),
                );
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

    /// Records flow completions `(flow id, fct ns)`; order-insensitive
    /// comparison via sorting.
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

    fn clos_flows(n_hosts: usize, n_flows: u64) -> Vec<FlowSpec> {
        (0..n_flows)
            .map(|i| {
                let src = (i as usize * 7) % n_hosts;
                let dst = (src + 1 + (i as usize * 13) % (n_hosts - 1)) % n_hosts;
                FlowSpec {
                    id: i,
                    src,
                    dst,
                    size: Bytes::new(20_000 + (i % 5) * 3_000),
                    start: Time::from_nanos(i * 977),
                    tag: 0,
                    fg: false,
                }
            })
            .collect()
    }

    type RunResult = (u64, usize, Vec<(u64, u64)>);

    fn serial_over(
        topo: Topology,
        factory: Box<dyn TransportFactory>,
        flows: &[FlowSpec],
    ) -> RunResult {
        let mut sim = Sim::new(topo, factory, FctLog::default());
        for f in flows {
            sim.schedule_flow(*f);
        }
        sim.run_to_completion(TimeDelta::micros(50));
        let mut fcts = sim.observer.completed.clone();
        fcts.sort_unstable();
        (sim.events_processed(), sim.flows_completed(), fcts)
    }

    /// Runs `flows` to completion on an engine asked for `n` domains;
    /// also returns how many it cut.
    fn par_over(
        topo: Topology,
        factory: Box<dyn TransportFactory>,
        flows: &[FlowSpec],
        n: usize,
    ) -> (RunResult, usize) {
        let mut par = ParSim::new(topo, factory, n, FctLog::default);
        for f in flows {
            par.schedule_flow(*f);
        }
        par.run(Stop::Drained(TimeDelta::micros(50)));
        let k = par.n_domains();
        let events = par.events_processed();
        let done = par.flows_completed();
        let mut fcts: Vec<(u64, u64)> = par
            .into_observers()
            .into_iter()
            .flat_map(|o| o.completed)
            .collect();
        fcts.sort_unstable();
        ((events, done, fcts), k)
    }

    fn clos(params: ClosParams) -> Topology {
        let p = profile(Rate::from_gbps(40));
        Topology::clos(params, &p, &p)
    }

    fn run_serial(params: ClosParams, flows: &[FlowSpec]) -> RunResult {
        serial_over(clos(params), Box::new(PacedFactory), flows)
    }

    fn run_par(params: ClosParams, flows: &[FlowSpec], n: usize) -> RunResult {
        let (result, k) = par_over(clos(params), Box::new(PacedFactory), flows, n);
        assert_eq!(k, n, "clos partitions");
        result
    }

    /// [`run_par`] on a multi-pod fabric the engine may cut into fewer
    /// than `n` domains.
    fn run_par_multi_pod(params: ClosParams, flows: &[FlowSpec], n: usize) -> RunResult {
        let (result, k) = par_over(clos(params), Box::new(PacedFactory), flows, n);
        assert!(k >= 2, "multi-pod clos partitions");
        result
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

    // Differential properties on randomized multi-pod Clos fabrics. The
    // paced transport has no congestion feedback and the flow starts carry
    // prime-offset jitter, so no two same-instant events contend for a
    // port and serial and partitioned runs are exactly comparable.
    // Feedback transports at saturation agree only up to calendar tie
    // order across a cut (see the module doc); the bench crate bounds that
    // drift separately.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Serial and partitioned runs of a randomized multi-pod fabric
        /// agree exactly: completions, per-flow FCTs, and adjusted event
        /// counts, at 2 and 4 domains.
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
                let par = run_par_multi_pod(params, &flows, n);
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
                let first = run_par_multi_pod(params, &flows, n);
                let second = run_par_multi_pod(params, &flows, n);
                prop_assert_eq!(first, second, "nondeterministic run at n={}", n);
            }
        }
    }

    #[test]
    fn parallel_matches_serial_on_small_clos() {
        let params = ClosParams::small();
        let flows = clos_flows(48, 40);
        let serial = run_serial(params, &flows);
        for n in [2, 4] {
            let par = run_par(params, &flows, n);
            assert_eq!(par.1, serial.1, "completions at n={n}");
            assert_eq!(par.2, serial.2, "per-flow FCTs at n={n}");
            assert_eq!(par.0, serial.0, "adjusted event counts at n={n}");
        }
    }

    #[test]
    fn sampling_stops_after_completion() {
        struct SampleCount(u64);
        impl NetObserver for SampleCount {
            fn on_queue_sample(&mut self, _node: NodeId, _port: usize, _queues: &Port, _now: Time) {
                self.0 += 1;
            }
        }
        let topo = clos(ClosParams::small());
        let mut par = ParSim::new(topo, Box::new(PacedFactory), 2, || SampleCount(0));
        assert_eq!(par.n_domains(), 2, "clos partitions");
        par.enable_sampling(TimeDelta::micros(10));
        for f in clos_flows(48, 4) {
            par.schedule_flow(f);
        }
        // Terminates: sampling must not keep the run alive forever.
        par.run(Stop::Drained(TimeDelta::micros(50)));
        let samples: u64 = par.into_observers().into_iter().map(|o| o.0).sum();
        assert!(samples > 0, "sampling ran");
    }

    #[test]
    fn domain_thread_panic_propagates_with_message() {
        struct PanicReceiver;
        impl Endpoint for PanicReceiver {
            fn activate(&mut self, _ctx: &mut EndpointCtx) {}
            fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {
                panic!("injected domain fault");
            }
            fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
            fn finished(&self) -> bool {
                false
            }
        }
        struct PanicFactory;
        impl TransportFactory for PanicFactory {
            fn sender(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
                PacedFactory.sender(flow, env)
            }
            fn receiver(&self, _flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(PanicReceiver)
            }
        }
        let topo = clos(ClosParams::small());
        let mut par = ParSim::new(topo, Box::new(PanicFactory), 2, FctLog::default);
        assert_eq!(par.n_domains(), 2, "clos partitions");
        par.schedule_flow(FlowSpec {
            id: 1,
            src: 0,
            dst: 1,
            size: Bytes::new(10_000),
            start: Time::ZERO,
            tag: 0,
            fg: false,
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par.run(Stop::Drained(TimeDelta::micros(50)));
        }))
        .expect_err("fault must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected domain fault"), "got: {msg}");
    }

    /// The same fabric, factory and flows on a bare [`Sim`] and on an engine
    /// that cannot cut: identical events, completions and per-flow FCTs.
    #[test]
    fn one_domain_engine_is_the_bare_sim() {
        let p = profile(Rate::from_gbps(40));
        let star = || Topology::star(8, Rate::from_gbps(40), TimeDelta::micros(2), &p, &p);
        let one_rack = || {
            clos(ClosParams {
                n_core: 1,
                n_agg: 1,
                n_tor: 1,
                aggs_per_pod: 1,
                ..ClosParams::small()
            })
        };
        let small = || clos(ClosParams::small());
        let cases: [(&str, &dyn Fn() -> Topology, usize); 3] = [
            ("star", &star, 4),
            ("one rack", &one_rack, 2),
            ("n = 1", &small, 1),
        ];
        for (name, topo, n) in cases {
            let flows = clos_flows(topo().hosts.len(), 12);
            let serial = serial_over(topo(), Box::new(PacedFactory), &flows);
            assert_eq!(serial.1, flows.len(), "{name}: serial run completes");
            let (par, k) = par_over(topo(), Box::new(PacedFactory), &flows, n);
            assert_eq!(k, 1, "{name}: one domain");
            assert_eq!(par, serial, "{name}");
        }
    }

    /// A one-domain run spawns no thread: the thread-local tracer and
    /// auditor the caller installed see its events.
    #[test]
    fn one_domain_runs_on_the_calling_thread() {
        let p = profile(Rate::from_gbps(40));
        let topo = Topology::star(4, Rate::from_gbps(40), TimeDelta::micros(2), &p, &p);
        crate::trace::install(Default::default());
        audit::install();
        let mut par = ParSim::new(topo, Box::new(PacedFactory), 4, FctLog::default);
        for f in clos_flows(4, 3) {
            par.schedule_flow(f);
        }
        par.run(Stop::Drained(TimeDelta::micros(50)));
        let report = audit::finish();
        let log = crate::trace::finish();
        assert_eq!(par.flows_completed(), 3);
        assert_eq!(report.counters.events, par.events_processed());
        assert!(log.total > 0, "the caller's tracer saw no event");
    }

    /// `events_processed` subtracts the duplicate FlowStarts *popped*, not
    /// the split flows scheduled: nothing before the run, and only the
    /// started ones after a deadline that falls between start times.
    #[test]
    fn events_processed_counts_popped_duplicates_only() {
        let params = ClosParams::small();
        // Host 0 and host 47 sit on opposite sides of a two-domain cut.
        let flows: Vec<FlowSpec> = (0..4u64)
            .map(|i| FlowSpec {
                id: i,
                src: 0,
                dst: 47,
                size: Bytes::new(20_000),
                start: Time::from_micros(100 * i),
                tag: 0,
                fg: false,
            })
            .collect();
        let mut par = ParSim::new(clos(params), Box::new(PacedFactory), 2, FctLog::default);
        let mut sim = Sim::new(clos(params), Box::new(PacedFactory), FctLog::default());
        for f in &flows {
            par.schedule_flow(*f);
            sim.schedule_flow(*f);
        }
        assert_eq!(par.n_domains(), 2);
        assert_eq!(par.events_processed(), 0, "nothing has run yet");
        // Two of the four split flows have started by 150 us.
        par.run_until(Time::from_micros(150));
        sim.run_until(Time::from_micros(150));
        assert_eq!(par.events_processed(), sim.events_processed());
    }
}
