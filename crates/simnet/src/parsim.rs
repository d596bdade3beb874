//! The partitioned parallel engine: conservative windowed synchronization
//! over the per-domain simulators a [`Partition`] produces.
//!
//! # Protocol
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
use crate::partition::Partition;
use crate::sim::{FlowRole, NetObserver, NodeId, PartitionCtx, Sim, TransportFactory};

/// A packet in flight across a domain cut: `(arrival instant, destination
/// node, packet value)`. The packet left the sender domain's arena and
/// will be re-acquired in the receiver domain's arena on injection.
type Handoff = (Time, NodeId, Packet);

/// How the engine decides when to stop.
#[derive(Clone, Copy)]
enum Mode {
    /// Run until every scheduled flow completed, then drain a grace
    /// period anchored at the global completion instant (mirrors
    /// [`Sim::run_to_completion`]).
    Completion(TimeDelta),
    /// Run until virtual time would pass the deadline (mirrors
    /// [`Sim::run_until`], inclusive).
    Until(Time),
}

/// The partitioned parallel simulation driver: one [`Sim`] per domain,
/// advanced in conservative lock-step windows on scoped threads.
pub struct ParSim<O: NetObserver + Send> {
    sims: Vec<Sim<O>>,
    domain_of: Arc<Vec<u32>>,
    host_domain: Vec<u32>,
    lookahead: TimeDelta,
    total_flows: usize,
    split_flows: u64,
    probe: Option<Arc<ProgressProbe>>,
}

impl<O: NetObserver + Send> ParSim<O> {
    /// Builds the engine from a [`Partition`], one factory clone and one
    /// observer per domain.
    ///
    /// # Panics
    ///
    /// Panics if the factory or observer count does not match the domain
    /// count.
    pub fn new(
        part: Partition,
        factories: Vec<Box<dyn TransportFactory>>,
        observers: Vec<O>,
        expected_flows: usize,
    ) -> Self {
        let Partition {
            parts,
            domain_of,
            host_domain,
            lookahead,
        } = part;
        assert_eq!(parts.len(), factories.len(), "one factory per domain");
        assert_eq!(parts.len(), observers.len(), "one observer per domain");
        assert!(lookahead > TimeDelta::ZERO, "lookahead must be positive");
        let mut sims = Vec::with_capacity(parts.len());
        for (me, ((topo, factory), observer)) in
            parts.into_iter().zip(factories).zip(observers).enumerate()
        {
            let mut sim = Sim::with_flow_capacity(topo, factory, observer, expected_flows);
            sim.set_partition(PartitionCtx {
                domain_of: Arc::clone(&domain_of),
                me: u32::try_from(me).expect("domain count fits u32"),
            });
            sims.push(sim);
        }
        ParSim {
            sims,
            domain_of,
            host_domain,
            lookahead,
            total_flows: 0,
            split_flows: 0,
            probe: None,
        }
    }

    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.sims.len()
    }

    /// The conservative window width (minimum cut-link propagation).
    pub fn lookahead(&self) -> TimeDelta {
        self.lookahead
    }

    /// Schedules a flow. An intra-domain flow registers both endpoint
    /// halves in its domain; a cut-crossing flow is split — receiver half
    /// in the destination host's domain, sender half in the source's.
    pub fn schedule_flow(&mut self, spec: FlowSpec) {
        let sd = self
            .host_domain
            .get(spec.src)
            .copied()
            .expect("flow source host in range") as usize;
        let rd = self
            .host_domain
            .get(spec.dst)
            .copied()
            .expect("flow destination host in range") as usize;
        self.total_flows += 1;
        if sd == rd {
            self.sims
                .get_mut(sd)
                .expect("host domain in range")
                .schedule_flow_role(spec, FlowRole::Both);
        } else {
            self.split_flows += 1;
            self.sims
                .get_mut(rd)
                .expect("host domain in range")
                .schedule_flow_role(spec, FlowRole::Receiver);
            self.sims
                .get_mut(sd)
                .expect("host domain in range")
                .schedule_flow_role(spec, FlowRole::Sender);
        }
    }

    /// Enables periodic queue sampling in every domain (stopped by the
    /// engine at the first window barrier after global completion).
    pub fn enable_sampling(&mut self, every: TimeDelta) {
        for sim in &mut self.sims {
            sim.enable_sampling(every);
        }
    }

    /// Enables random non-congestion loss. Each domain draws from its own
    /// stream (seed mixed with the domain index), so the realized loss
    /// pattern differs from a serial run with the same seed — only the
    /// statistical rate carries over.
    pub fn inject_loss(&mut self, p: f64, seed: u64) {
        for (d, sim) in self.sims.iter_mut().enumerate() {
            sim.inject_loss(
                p,
                seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(d as u64 + 1)),
            );
        }
    }

    /// Attaches a progress probe; domain 0's thread publishes aggregated
    /// event totals, per-domain counts, and arena statistics at window
    /// boundaries.
    pub fn attach_progress(&mut self, probe: Arc<ProgressProbe>) {
        self.probe = Some(probe);
    }

    /// Flows completed across all domains (each completion fires exactly
    /// once, receiver-side, so the sum has no double counting).
    pub fn flows_completed(&self) -> usize {
        self.sims.iter().map(|s| s.flows_completed()).sum()
    }

    /// Unique flows scheduled.
    pub fn flows_scheduled(&self) -> usize {
        self.total_flows
    }

    /// Total events processed, adjusted to be comparable with a serial
    /// run: a split flow pops one FlowStart event in each of its two
    /// domains where the serial engine pops one, so the duplicate is
    /// subtracted. All other event kinds map one-to-one.
    pub fn events_processed(&self) -> u64 {
        let raw: u64 = self.sims.iter().map(|s| s.events_processed()).sum();
        raw - self.split_flows
    }

    /// Raw events processed per domain (load-balance metric; includes the
    /// duplicate FlowStart of split flows).
    pub fn events_per_domain(&self) -> Vec<u64> {
        self.sims.iter().map(|s| s.events_processed()).collect()
    }

    /// Summed arena statistics `(live, high_water, capacity, grows)`
    /// across the per-domain arenas.
    pub fn arena_stats(&self) -> (usize, usize, usize, u64) {
        let mut acc = (0usize, 0usize, 0usize, 0u64);
        for s in &self.sims {
            let (live, hw, cap, grows) = s.arena_stats();
            acc = (acc.0 + live, acc.1 + hw, acc.2 + cap, acc.3 + grows);
        }
        acc
    }

    /// Packets dropped by loss injection, across domains.
    pub fn injected_losses(&self) -> u64 {
        self.sims.iter().map(|s| s.injected_losses()).sum()
    }

    /// Consumes the engine, returning the per-domain observers in domain
    /// order (merge with the metrics layer's absorb operation).
    pub fn into_observers(self) -> Vec<O> {
        self.sims.into_iter().map(|s| s.observer).collect()
    }

    /// Runs until every flow completes, then drains `grace` beyond the
    /// global completion instant — the parallel analogue of
    /// [`Sim::run_to_completion`].
    ///
    /// # Panics
    ///
    /// Panics if every calendar drains while flows are incomplete (same
    /// contract as the serial engine), or if a domain thread panics (the
    /// panic message is re-raised on the calling thread).
    pub fn run_to_completion(&mut self, grace: TimeDelta) {
        self.run_engine(Mode::Completion(grace));
    }

    /// Runs until virtual time would pass `deadline` (inclusive), the
    /// parallel analogue of [`Sim::run_until`].
    pub fn run_until(&mut self, deadline: Time) {
        self.run_engine(Mode::Until(deadline));
    }

    fn run_engine(&mut self, mode: Mode) {
        let k = self.sims.len();
        debug_assert!(k >= 2, "partition yields at least two domains");
        let lookahead = self.lookahead;
        let total_flows = self.total_flows;
        let probe = self.probe.clone();
        let domain_of = Arc::clone(&self.domain_of);

        // Shared window state. The two t-min cells ping-pong by window
        // parity: while window w's cell converges, domain 0 resets the
        // other for window w+1 (ordered by the barriers on both sides).
        let barrier = Barrier::new(k);
        let tmin = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];
        let completed: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
        let events: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        let arena_grows: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        let arena_hw: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        let last_comp = AtomicU64::new(0);
        // A faulted domain says so in the cell of the window it publishes
        // into, like its t-min: a flag raised at any instant could be seen
        // by one thread's decision and missed by another's, and the one
        // that stayed would wait at the next barrier alone.
        let poisoned = [AtomicBool::new(false), AtomicBool::new(false)];
        let drained_incomplete = AtomicBool::new(false);
        let panic_msg: OnceLock<String> = OnceLock::new();

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

        // Domain threads install their own auditor when the calling
        // thread has one active; partial states merge back afterwards.
        let audit_active = audit::is_active();

        let partials: Vec<Option<audit::PartialAudit>> = std::thread::scope(|s| {
            let barrier = &barrier;
            let tmin = &tmin;
            let completed = &completed;
            let events = &events;
            let arena_grows = &arena_grows;
            let arena_hw = &arena_hw;
            let last_comp = &last_comp;
            let poisoned = &poisoned;
            let drained_incomplete = &drained_incomplete;
            let panic_msg = &panic_msg;
            let probe = probe.as_ref();
            let domain_of = &domain_of;

            let mut handles = Vec::with_capacity(k);
            for (me, ((sim, my_tx), my_rx)) in self.sims.iter_mut().zip(txs).zip(rxs).enumerate() {
                // lint:allow(thread-spawn): the parallel engine's domain
                // runners are a blessed thread home (xtask/src/config.rs).
                handles.push(s.spawn(move || {
                    domain_loop(DomainCtx {
                        me,
                        sim,
                        my_tx,
                        my_rx,
                        barrier,
                        tmin,
                        completed,
                        events,
                        arena_grows,
                        arena_hw,
                        last_comp,
                        poisoned,
                        drained_incomplete,
                        panic_msg,
                        probe,
                        domain_of,
                        mode,
                        lookahead,
                        total_flows,
                        audit_active,
                    })
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("domain threads catch their own panics"))
                .collect()
        });

        for p in partials.into_iter().flatten() {
            audit::absorb_partial(p);
        }

        if drained_incomplete.load(Ordering::SeqCst) {
            let done: usize = completed.iter().map(|c| c.load(Ordering::SeqCst)).sum();
            // lint:allow(panic-path): same contract as the serial engine —
            // a drained calendar with incomplete flows is a transport bug.
            panic!("event queue drained with {done}/{total_flows} flows incomplete");
        }
        if poisoned.iter().any(|p| p.load(Ordering::SeqCst)) {
            let msg = panic_msg
                .get()
                .map(String::as_str)
                .unwrap_or("domain thread panicked");
            // lint:allow(panic-path): re-raise a domain thread's panic on
            // the calling thread so orchestrate's fault isolation sees it.
            panic!("{msg}");
        }
    }
}

/// Everything one domain thread needs; bundled so the spawn closure stays
/// readable.
struct DomainCtx<'a, 'sim, O: NetObserver + Send> {
    me: usize,
    sim: &'sim mut Sim<O>,
    my_tx: Vec<Sender<Handoff>>,
    my_rx: Vec<Receiver<Handoff>>,
    barrier: &'a Barrier,
    tmin: &'a [AtomicU64; 2],
    completed: &'a [AtomicUsize],
    events: &'a [AtomicU64],
    arena_grows: &'a [AtomicU64],
    arena_hw: &'a [AtomicU64],
    last_comp: &'a AtomicU64,
    poisoned: &'a [AtomicBool; 2],
    drained_incomplete: &'a AtomicBool,
    panic_msg: &'a OnceLock<String>,
    probe: Option<&'a Arc<ProgressProbe>>,
    domain_of: &'a Arc<Vec<u32>>,
    mode: Mode,
    lookahead: TimeDelta,
    total_flows: usize,
    audit_active: bool,
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

fn domain_loop<O: NetObserver + Send>(ctx: DomainCtx<'_, '_, O>) -> Option<audit::PartialAudit> {
    let DomainCtx {
        me,
        sim,
        my_tx,
        my_rx,
        barrier,
        tmin,
        completed,
        events,
        arena_grows,
        arena_hw,
        last_comp,
        poisoned,
        drained_incomplete,
        panic_msg,
        probe,
        domain_of,
        mode,
        lookahead,
        total_flows,
        audit_active,
    } = ctx;

    if audit_active {
        audit::install();
    }

    let grace = match mode {
        Mode::Completion(g) => g,
        Mode::Until(_) => TimeDelta::ZERO,
    };
    // The drain deadline, once known. In Until mode it is fixed up
    // front; in Completion mode every thread arms it at the same window,
    // from the same shared completion snapshot.
    let mut deadline: Option<Time> = match mode {
        Mode::Completion(_) => None,
        Mode::Until(t) => Some(t),
    };
    let mut w: usize = 0;
    // This domain caught a panic: it does no more work and says so at
    // the next publication.
    let mut faulted = false;

    loop {
        // B1: the previous window's channel sends are now visible.
        barrier.wait();

        // Catchable per-window work, phase 1: drain inboxes (ascending
        // sender order keeps calendar tie order deterministic).
        if !faulted {
            let drained = catch_unwind(AssertUnwindSafe(|| {
                for rx in &my_rx {
                    while let Ok((at, node, pkt)) = rx.try_recv() {
                        sim.inject_arrival(at, node, pkt);
                    }
                }
            }));
            if let Err(e) = drained {
                let _ = panic_msg.set(payload_msg(e));
                faulted = true;
            }
        }

        // Publish this domain's state for the window decision.
        let poison = poisoned.get(w & 1).expect("two parity cells");
        let my_min = if faulted {
            poison.store(true, Ordering::SeqCst);
            u64::MAX
        } else {
            sim.next_event_time().map_or(u64::MAX, |t| t.as_nanos())
        };
        let cell = tmin.get(w & 1).expect("two parity cells");
        cell.fetch_min(my_min, Ordering::SeqCst);
        if let Some(c) = completed.get(me) {
            c.store(sim.flows_completed(), Ordering::SeqCst);
        }
        if let Some(c) = events.get(me) {
            c.store(sim.events_processed(), Ordering::SeqCst);
        }
        let (_, hw, _, grows) = sim.arena_stats();
        if let Some(c) = arena_grows.get(me) {
            c.store(grows, Ordering::SeqCst);
        }
        if let Some(c) = arena_hw.get(me) {
            c.store(hw as u64, Ordering::SeqCst);
        }
        last_comp.fetch_max(sim.last_completion().as_nanos(), Ordering::SeqCst);

        // B2: the global minimum and all counters are final.
        barrier.wait();

        // Every thread computes the identical decision from the same
        // shared snapshot — no thread may diverge, or barriers deadlock.
        if poison.load(Ordering::SeqCst) {
            break;
        }
        let t_min = cell.load(Ordering::SeqCst);
        let done: usize = completed.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        if matches!(mode, Mode::Completion(_)) && deadline.is_none() && done >= total_flows {
            // Global completion: anchor the grace window at the max
            // per-domain completion instant (= the serial completion
            // time) and stop periodic sampling, as the serial engine
            // does when its flow table completes.
            deadline = Some(Time::from_nanos(last_comp.load(Ordering::SeqCst)) + grace);
            sim.stop_sampling();
        }
        if t_min == u64::MAX {
            if matches!(mode, Mode::Completion(_)) && done < total_flows {
                drained_incomplete.store(true, Ordering::SeqCst);
            }
            break;
        }
        let t_min = Time::from_nanos(t_min);
        if let Some(dl) = deadline {
            if t_min > dl {
                break;
            }
        }

        if me == 0 {
            // Reset the other parity cell for window w+1. Safe: every
            // thread finished reading it (window w-1's decision) before
            // B1 of this window, and none writes it before B1 of w+1.
            let other = tmin.get((w + 1) & 1).expect("two parity cells");
            other.store(u64::MAX, Ordering::SeqCst);
            if let Some(p) = probe {
                let total: u64 = events.iter().map(|c| c.load(Ordering::SeqCst)).sum();
                p.publish(total, t_min.as_nanos());
                for (d, c) in events.iter().enumerate() {
                    p.publish_domain_events(d, c.load(Ordering::SeqCst));
                }
                let grows: u64 = arena_grows.iter().map(|c| c.load(Ordering::SeqCst)).sum();
                let hw: u64 = arena_hw.iter().map(|c| c.load(Ordering::SeqCst)).sum();
                p.publish_arena(grows, hw);
            }
        }

        // The causally closed window: [t_min, t_min + lookahead), capped
        // one past the drain deadline so deadline-instant events still
        // run (run_until is inclusive).
        let mut horizon = t_min.saturating_add(lookahead);
        if let Some(dl) = deadline {
            horizon = horizon.min(dl.saturating_add(TimeDelta::nanos(1)));
        }

        // Catchable per-window work, phase 2: run the window, then hand
        // off cut-crossing packets. Send errors are ignored — every
        // receiver lives until all domains leave at the same decision.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            sim.run_window(horizon);
            let outbox_len = sim.outbox.len();
            for i in 0..outbox_len {
                let (at, node, pkt) = *sim.outbox.get(i).expect("outbox index in range");
                let d = domain_of.get(node).copied().unwrap_or(0) as usize;
                if let Some(tx) = my_tx.get(d) {
                    let _ = tx.send((at, node, pkt));
                }
            }
            sim.outbox.clear();
        }));
        if let Err(e) = ran {
            let _ = panic_msg.set(payload_msg(e));
            faulted = true;
        }
        w += 1;
    }

    if audit_active {
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
    use crate::partition::partition;
    use crate::port::{PortConfig, QueueSched};
    use crate::queue::QueueConfig;
    use crate::sim::{NetEnv, NodeId};
    use crate::switch::{ClassMap, QueueSample, SwitchProfile};
    use crate::topology::{ClosParams, Topology};
    use flexpass_simcore::time::Rate;
    use flexpass_simcore::units::Bytes;

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
    /// and completes. Simple, deterministic, and stateless per flow, so
    /// the factory clones trivially.
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
        fn sender(&mut self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
            Box::new(PacedSender {
                spec: *flow,
                next_seq: 0,
                done: false,
            })
        }
        fn receiver(&mut self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
            Box::new(CountReceiver {
                spec: *flow,
                got: Bytes::ZERO,
                done: false,
            })
        }
        fn try_clone(&self) -> Option<Box<dyn TransportFactory>> {
            Some(Box::new(PacedFactory))
        }
    }

    /// Records flow completions `(flow id, fct ns)`; order-insensitive
    /// comparison via sorting.
    #[derive(Default)]
    struct FctLog {
        started: Vec<(u64, u64)>,
        completed: Vec<(u64, u64)>,
    }

    impl NetObserver for FctLog {
        fn on_flow_start(&mut self, spec: &FlowSpec, now: Time) {
            self.started.push((spec.id, now.as_nanos()));
        }
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

    fn run_serial(params: ClosParams, flows: &[FlowSpec]) -> (u64, usize, Vec<(u64, u64)>) {
        let p = profile(Rate::from_gbps(40));
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

    fn run_par(params: ClosParams, flows: &[FlowSpec], n: usize) -> (u64, usize, Vec<(u64, u64)>) {
        let p = profile(Rate::from_gbps(40));
        let topo = Topology::clos(params, &p, &p);
        let part = partition(topo, n).ok().expect("clos partitions");
        let k = part.n_domains();
        let factories: Vec<Box<dyn TransportFactory>> = (0..k)
            .map(|_| Box::new(PacedFactory) as Box<dyn TransportFactory>)
            .collect();
        let observers: Vec<FctLog> = (0..k).map(|_| FctLog::default()).collect();
        let mut par = ParSim::new(part, factories, observers, flows.len());
        for f in flows {
            par.schedule_flow(*f);
        }
        par.run_to_completion(TimeDelta::micros(50));
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
            fn on_queue_sample(
                &mut self,
                _node: NodeId,
                _port: usize,
                _s: &QueueSample,
                _now: Time,
            ) {
                self.0 += 1;
            }
        }
        let p = profile(Rate::from_gbps(40));
        let topo = Topology::clos(ClosParams::small(), &p, &p);
        let part = partition(topo, 2).ok().expect("clos partitions");
        let k = part.n_domains();
        let factories: Vec<Box<dyn TransportFactory>> = (0..k)
            .map(|_| Box::new(PacedFactory) as Box<dyn TransportFactory>)
            .collect();
        let observers: Vec<SampleCount> = (0..k).map(|_| SampleCount(0)).collect();
        let mut par = ParSim::new(part, factories, observers, 4);
        par.enable_sampling(TimeDelta::micros(10));
        for f in clos_flows(48, 4) {
            par.schedule_flow(f);
        }
        // Terminates: sampling must not keep the run alive forever.
        par.run_to_completion(TimeDelta::micros(50));
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
            fn sender(&mut self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
                PacedFactory.sender(flow, env)
            }
            fn receiver(&mut self, _flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(PanicReceiver)
            }
            fn try_clone(&self) -> Option<Box<dyn TransportFactory>> {
                Some(Box::new(PanicFactory))
            }
        }
        let p = profile(Rate::from_gbps(40));
        let topo = Topology::clos(ClosParams::small(), &p, &p);
        let part = partition(topo, 2).ok().expect("clos partitions");
        let k = part.n_domains();
        let factories: Vec<Box<dyn TransportFactory>> = (0..k)
            .map(|_| Box::new(PanicFactory) as Box<dyn TransportFactory>)
            .collect();
        let observers: Vec<FctLog> = (0..k).map(|_| FctLog::default()).collect();
        let mut par = ParSim::new(part, factories, observers, 1);
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
            par.run_to_completion(TimeDelta::micros(50));
        }))
        .expect_err("fault must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected domain fault"), "got: {msg}");
    }
}
