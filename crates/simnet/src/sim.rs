//! The event-driven simulation driver.
//!
//! [`Sim`] owns the wired topology, the event calendar, and the transport
//! factory. Its inner loop dispatches four event kinds: packet arrivals,
//! port service opportunities, endpoint timers, and flow starts. All
//! behaviour is deterministic given the topology, factory, and workload.

use std::sync::Arc;

use flexpass_simcore::event::EventQueue;
use flexpass_simcore::progress::PUBLISH_EVERY;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};

use crate::arena::{PacketArena, PacketId};
use crate::endpoint::{AppEvent, Endpoint};
use crate::hooks;
use crate::host::{Host, Scratch};
use crate::packet::{FlowId, FlowSpec, Packet};
use crate::port::{Decision, Port};
use crate::queue::DropReason;
use crate::switch::Switch;
use crate::topology::Topology;
use crate::trace::DropCause;

/// Index into the simulator's node table.
pub type NodeId = usize;

/// A network element.
pub enum Node {
    /// A switch.
    Switch(Switch),
    /// An end host.
    Host(Host),
}

impl Node {
    /// Egress port `idx` of this node (hosts expose their NIC as port 0).
    pub fn port_mut(&mut self, idx: usize) -> &mut Port {
        match self {
            Node::Switch(s) => s.ports.get_mut(idx).expect("port index within switch"),
            Node::Host(h) => {
                debug_assert_eq!(idx, 0);
                &mut h.nic
            }
        }
    }

    /// Immutable port access.
    pub fn port(&self, idx: usize) -> &Port {
        match self {
            Node::Switch(s) => s.ports.get(idx).expect("port index within switch"),
            Node::Host(h) => {
                debug_assert_eq!(idx, 0);
                &h.nic
            }
        }
    }
}

/// Static facts transports may consult when a flow is created.
#[derive(Clone, Copy, Debug)]
pub struct NetEnv {
    /// Host access link rate.
    pub host_rate: Rate,
    /// Worst-case propagation-only RTT in the fabric.
    pub base_rtt: TimeDelta,
    /// Number of hosts.
    pub n_hosts: usize,
}

/// Hook points for measurement. All methods have empty defaults; recorders
/// implement what they need.
pub trait NetObserver {
    /// A flow was started (its spec is now known to the metrics layer).
    fn on_flow_start(&mut self, _spec: &FlowSpec, _now: Time) {}
    /// An endpoint raised an application event.
    fn on_app_event(&mut self, _ev: &AppEvent, _now: Time) {}
    /// A data packet reached its destination host.
    fn on_delivered(&mut self, _pkt: &Packet, _now: Time) {}
    /// A packet was dropped.
    fn on_drop(&mut self, _pkt: &Packet, _reason: DropReason, _node: NodeId, _now: Time) {}
    /// Periodic queue occupancy sample: egress port `port` of switch
    /// `node`, whose queues the observer reads as they stand.
    fn on_queue_sample(&mut self, _node: NodeId, _port: usize, _queues: &Port, _now: Time) {}
}

/// An observer that records nothing.
pub struct NullObserver;

impl NetObserver for NullObserver {}

/// When a run stops — the one statement of the rule, for [`Sim::run`] and
/// [`crate::ParSim::run`] alike.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Once every event at or before this virtual time has run
    /// (long-running-flow microbenchmarks measure throughput over a
    /// window rather than completion).
    At(Time),
    /// Once every scheduled flow has completed (receiver side), plus this
    /// much drain so senders can finish their own cleanup.
    Drained(TimeDelta),
}

/// Which endpoint halves of a flow this simulator instance owns. A serial
/// run owns both; a partitioned run whose flow crosses a domain cut splits
/// the flow, registering the sender half in the source host's domain and
/// the receiver half in the destination host's domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowRole {
    /// Both endpoint halves (serial runs and intra-domain flows).
    Both,
    /// Sender half only (source host is local, destination is foreign).
    Sender,
    /// Receiver half only (destination host is local, source is foreign).
    Receiver,
}

/// Partition membership shared by every domain of a partitioned run: which
/// domain each global node id belongs to, and which domain this simulator
/// instance is. Installed by the parallel engine; `None` (the serial case)
/// keeps every datapath branch on its pre-partition path.
#[derive(Clone, Debug)]
pub struct PartitionCtx {
    /// Domain owning each node, indexed by global [`NodeId`].
    pub domain_of: std::sync::Arc<Vec<u32>>,
    /// The domain this simulator instance runs.
    pub me: u32,
}

/// Creates the two endpoint halves of each flow. Scheme layers (oWF, Naïve,
/// FlexPass, ...) implement this to mix transports across hosts.
///
/// Endpoint construction is a pure function of `(flow, env)`: a factory
/// holds only configuration and the deployment map. So every domain of a
/// cut fabric ([`crate::ParSim`]) builds from one shared factory, and
/// `Send + Sync` lets it be made on the orchestrating thread and read from
/// the worker and domain threads that drive the simulation.
pub trait TransportFactory: Send + Sync {
    /// Builds the sender endpoint.
    fn sender(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint>;
    /// Builds the receiver endpoint.
    fn receiver(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint>;
}

/// Simulation events.
///
/// Every calendar entry carries one, and a calendar pop moves it, so it is
/// kept to 16 bytes: node ids and flow-table indices are stored as `u32`,
/// port indices as `u16` (the width route tables already use), and a timer
/// names its flow through the token's high bits (see [`timer_token`]).
#[derive(Debug)]
pub enum Event {
    /// A packet finishes propagating to `node`.
    Arrive {
        /// Receiving node.
        node: u32,
        /// The packet's arena id (the packet itself stays in the slab).
        pkt: PacketId,
    },
    /// Egress port `port` of `node` may transmit.
    PortReady {
        /// Node owning the port.
        node: u32,
        /// Port index.
        port: u16,
    },
    /// An endpoint timer fires.
    Timer {
        /// Host node.
        host: u32,
        /// Opaque token the endpoint registered; the owning flow is
        /// `token >> 16`.
        token: u64,
    },
    /// A scheduled flow begins.
    FlowStart {
        /// Index into the flow table.
        idx: u32,
    },
    /// Periodic queue sampling tick.
    Sample,
}

impl Event {
    fn node(id: NodeId) -> u32 {
        u32::try_from(id).expect("node id fits u32")
    }

    fn arrive(node: NodeId, pkt: PacketId) -> Self {
        Event::Arrive {
            node: Self::node(node),
            pkt,
        }
    }

    fn port_ready(node: NodeId, port: usize) -> Self {
        Event::PortReady {
            node: Self::node(node),
            port: u16::try_from(port).expect("port index fits u16"),
        }
    }

    fn timer(host: NodeId, token: u64) -> Self {
        Event::Timer {
            host: Self::node(host),
            token,
        }
    }
}

/// The simulator.
pub struct Sim<O: NetObserver> {
    events: EventQueue<Event>,
    /// All nodes (public for post-run counter inspection).
    pub nodes: Vec<Node>,
    /// Node id of each host.
    pub hosts: Vec<NodeId>,
    /// Rack of each host.
    pub rack_of: Vec<usize>,
    flows: Vec<FlowSpec>,
    factory: Arc<dyn TransportFactory>,
    env: NetEnv,
    /// The measurement observer.
    pub observer: O,
    /// The packet slab: every in-flight packet lives here, addressed by
    /// generation-checked [`PacketId`]s.
    arena: PacketArena,
    scratch: Scratch,
    /// Hook identities of the scratch buffers `(tx, timers, app)`.
    scratch_ids: [hooks::ComponentId; 3],
    completed: usize,
    started: usize,
    sample_every: Option<TimeDelta>,
    /// Non-congestion loss injection: `(probability, rng)`.
    loss: Option<(f64, SimRng)>,
    /// Packets dropped by loss injection.
    injected_losses: u64,
    /// Partition membership (`None` in a serial run).
    partition: Option<PartitionCtx>,
    /// Endpoint halves owned per flow, parallel to `flows`.
    roles: Vec<FlowRole>,
    /// Packets that crossed a domain cut this window: `(arrival instant,
    /// destination node, packet)`, drained by the parallel engine into the
    /// owning domain's channel. Always empty in a serial run.
    pub(crate) outbox: Vec<(Time, NodeId, Packet)>,
    /// Instant the most recent flow completed (receiver side).
    last_completion: Time,
    /// FlowStarts popped for sender-only halves: the one pop a flow split
    /// across a cut adds over a serial run.
    pub(crate) sender_half_starts: u64,
    /// Progress probe [`Sim::step`] publishes into.
    progress: Option<std::sync::Arc<flexpass_simcore::ProgressProbe>>,
}

impl<O: NetObserver> Sim<O> {
    /// Builds a simulator over a wired topology. The calendar, the packet
    /// arena and every host's flow table start empty and double as the run
    /// first needs more, so all of their growth falls in warm-up.
    pub fn new(topo: Topology, factory: Box<dyn TransportFactory>, observer: O) -> Self {
        Self::sharing(topo, Arc::from(factory), observer)
    }

    /// [`Sim::new`]; the flow count is ignored.
    pub fn with_flow_capacity(
        topo: Topology,
        factory: Box<dyn TransportFactory>,
        observer: O,
        _expected_flows: usize,
    ) -> Self {
        Self::new(topo, factory, observer)
    }

    /// [`Sim::new`] over a factory other simulators share (the domains of
    /// one [`crate::ParSim`]).
    pub(crate) fn sharing(topo: Topology, factory: Arc<dyn TransportFactory>, observer: O) -> Self {
        let env = NetEnv {
            host_rate: topo.host_rate,
            base_rtt: topo.base_rtt,
            n_hosts: topo.hosts.len(),
        };
        Sim {
            events: EventQueue::new(),
            nodes: topo.nodes,
            hosts: topo.hosts,
            rack_of: topo.rack_of,
            flows: Vec::new(),
            factory,
            env,
            observer,
            arena: PacketArena::new(),
            scratch: Scratch::default(),
            scratch_ids: [
                hooks::new_component_id(),
                hooks::new_component_id(),
                hooks::new_component_id(),
            ],
            completed: 0,
            started: 0,
            sample_every: None,
            loss: None,
            injected_losses: 0,
            partition: None,
            roles: Vec::new(),
            outbox: Vec::new(),
            last_completion: Time::ZERO,
            sender_half_starts: 0,
            progress: None,
        }
    }

    /// Installs partition membership (parallel engine only). From here on
    /// packets transmitted towards foreign nodes are diverted to the
    /// outbox instead of the local calendar, and periodic sampling keeps
    /// rescheduling until [`Sim::stop_sampling`] — the local flow table no
    /// longer knows when the *global* run is done.
    pub(crate) fn set_partition(&mut self, ctx: PartitionCtx) {
        self.partition = Some(ctx);
    }

    /// True when `node` belongs to another partition domain. Always false
    /// in a serial run — the whole cross-domain path is unreachable there.
    fn is_foreign(&self, node: NodeId) -> bool {
        match &self.partition {
            Some(ctx) => match ctx.domain_of.get(node) {
                Some(&d) => d != ctx.me,
                None => false,
            },
            None => false,
        }
    }

    /// Arena occupancy and growth statistics `(live, high_water, capacity,
    /// grows)`. The slab starts empty and doubles, so `grows` is about
    /// log2 of `high_water`.
    pub fn arena_stats(&self) -> (usize, usize, usize, u64) {
        (
            self.arena.live(),
            self.arena.high_water(),
            self.arena.capacity(),
            self.arena.grows(),
        )
    }

    /// Enables random non-congestion packet loss (§4.3 "Handling proactive
    /// data packet losses": e.g. switch failures or link corruption). Every
    /// packet arriving at a *switch* is dropped with probability `p`,
    /// independently, from a deterministic seeded stream. Transports must
    /// recover; proactive sub-flows use their highest-priority
    /// retransmission path.
    pub fn inject_loss(&mut self, p: f64, seed: u64) {
        assert!((0.0..1.0).contains(&p), "loss probability out of range");
        self.loss = Some((p, SimRng::new(seed ^ 0x10_55)));
    }

    /// Packets dropped by the loss injector so far.
    pub fn injected_losses(&self) -> u64 {
        self.injected_losses
    }

    /// Environment facts handed to transports.
    pub fn env(&self) -> NetEnv {
        self.env
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.events.now()
    }

    /// Total events processed (progress metric).
    pub fn events_processed(&self) -> u64 {
        self.events.popped()
    }

    /// Release-mode past-time schedules the calendar clamped up to "now".
    /// Always 0 in a healthy run (debug builds panic instead); exposed so
    /// the condition is observable rather than silent.
    pub fn schedule_clamps(&self) -> u64 {
        self.events.clamped()
    }

    /// Cancellable timers successfully cancelled so far (run statistic).
    pub fn timers_cancelled(&self) -> u64 {
        self.events.cancelled()
    }

    /// Re-arms that moved a pending timer to a later deadline in place,
    /// without a cancel or a new calendar entry (run statistic; see
    /// `EventQueue::rearm_later`).
    pub fn timers_deferred(&self) -> u64 {
        self.events.deferred()
    }

    /// Timer pops the calendar completed itself by re-arming a muted timer
    /// (run statistic; they count in [`Sim::events_processed`] too).
    pub fn timers_rearmed(&self) -> u64 {
        self.events.rearmed()
    }

    /// Attaches a progress probe the event loop publishes into every
    /// [`PUBLISH_EVERY`] events (see [`flexpass_simcore::progress`]).
    /// Purely observational — cannot change any simulated outcome.
    pub fn attach_progress(&mut self, probe: std::sync::Arc<flexpass_simcore::ProgressProbe>) {
        self.progress = Some(probe);
    }

    /// Number of flows that have completed (receiver side).
    pub fn flows_completed(&self) -> usize {
        self.completed
    }

    /// Number of flows whose endpoints have been created so far.
    pub fn flows_started(&self) -> usize {
        self.started
    }

    /// Enables periodic queue sampling with the given interval.
    pub fn enable_sampling(&mut self, every: TimeDelta) {
        if self.sample_every.is_none() {
            self.events.schedule(self.now() + every, Event::Sample);
        }
        self.sample_every = Some(every);
    }

    /// Schedules a flow for simulation.
    ///
    /// # Panics
    ///
    /// Panics if source and destination hosts coincide or are out of
    /// range, or if the flow id exceeds [`MAX_FLOW_ID`].
    pub fn schedule_flow(&mut self, spec: FlowSpec) {
        self.schedule_flow_role(spec, FlowRole::Both);
    }

    /// Schedules a flow owning only the given endpoint halves (the
    /// partitioned engine splits a cut-crossing flow across two domains).
    ///
    /// # Panics
    ///
    /// Panics if source and destination hosts coincide or are out of
    /// range, or if the flow id exceeds [`MAX_FLOW_ID`].
    pub fn schedule_flow_role(&mut self, spec: FlowSpec, role: FlowRole) {
        assert!(spec.src != spec.dst, "flow to self");
        assert!(spec.src < self.hosts.len() && spec.dst < self.hosts.len());
        assert!(
            spec.id <= MAX_FLOW_ID,
            "flow id {} does not fit a timer token",
            spec.id
        );
        let idx = u32::try_from(self.flows.len()).expect("flow table index fits u32");
        self.events.schedule(spec.start, Event::FlowStart { idx });
        self.flows.push(spec);
        self.roles.push(role);
    }

    /// Runs to `stop`.
    ///
    /// # Panics
    ///
    /// Under [`Stop::Drained`], panics if the calendar empties before all
    /// flows complete (lost packets with no retransmission path — a
    /// transport bug).
    pub fn run(&mut self, stop: Stop) {
        let deadline = match stop {
            Stop::At(deadline) => deadline,
            Stop::Drained(grace) => {
                while self.completed < self.flows.len() {
                    if !self.step() {
                        // lint:allow(panic-path): a drained calendar with
                        // incomplete flows means a transport lost its
                        // retransmission path.
                        panic!(
                            "event queue drained with {}/{} flows incomplete",
                            self.completed,
                            self.flows.len()
                        );
                    }
                }
                self.now() + grace
            }
        };
        self.run_window(deadline.saturating_add(TimeDelta::nanos(1)));
    }

    /// [`Sim::run`] to [`Stop::At`]: until the calendar empties or virtual
    /// time would pass `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        self.run(Stop::At(deadline));
    }

    /// [`Sim::run`] to [`Stop::Drained`].
    pub fn run_to_completion(&mut self, grace: TimeDelta) {
        self.run(Stop::Drained(grace));
    }

    /// Runs every event strictly before `horizon` (the conservative-sync
    /// window of the partitioned engine: the exclusive bound means two
    /// domains can never both process an event at the horizon instant, so
    /// a cross-cut arrival injected *at* the horizon is still in this
    /// domain's future).
    pub fn run_window(&mut self, horizon: Time) {
        while self.events.peek_time().is_some_and(|t| t < horizon) {
            self.step();
        }
    }

    /// Pops and dispatches one event; `false` when the calendar is empty.
    /// A muted timer's pop is a step the calendar completed itself (it
    /// re-armed the timer), so there is nothing to dispatch. Every loop
    /// advances through here, so this is the progress probe's only
    /// publisher.
    fn step(&mut self) -> bool {
        let Some((now, ev)) = self.events.step() else {
            return false;
        };
        if let Some(ev) = ev {
            self.dispatch(now, ev);
        }
        if let Some(probe) = &self.progress {
            let popped = self.events.popped();
            if popped & (PUBLISH_EVERY - 1) == 0 {
                probe.publish(popped, now.as_nanos());
                // lint:allow(raw-cast): slot count widened for the probe
                probe.publish_arena(self.arena.grows(), self.arena.high_water() as u64);
            }
        }
        true
    }

    /// Earliest pending event, or `None` when the calendar is empty. The
    /// partitioned engine's per-window global minimum is computed over
    /// these.
    pub fn next_event_time(&mut self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Schedules the arrival of a packet handed over from another domain:
    /// the packet value enters this domain's private arena and its Arrive
    /// event joins the local calendar. `at` is never in this domain's past
    /// — conservative synchronization guarantees cross-cut arrivals land
    /// at or beyond the window horizon.
    pub fn inject_arrival(&mut self, at: Time, node: NodeId, pkt: Packet) {
        let pid = self.arena.acquire(pkt);
        self.events.schedule(at, Event::arrive(node, pid));
    }

    /// Instant the most recent flow completed locally (receiver side);
    /// [`Time::ZERO`] if none has. The partitioned engine takes the max
    /// across domains to anchor the post-completion grace window exactly
    /// where the serial engine would.
    pub fn last_completion(&self) -> Time {
        self.last_completion
    }

    /// Stops periodic queue sampling (partitioned runs: the engine calls
    /// this at the first window barrier after global completion, mirroring
    /// the serial engine's "stop when the local flow table completes").
    pub fn stop_sampling(&mut self) {
        self.sample_every = None;
    }

    fn dispatch(&mut self, now: Time, ev: Event) {
        match ev {
            Event::Arrive { node, pkt } => self.arrive(now, node as NodeId, pkt),
            Event::PortReady { node, port } => {
                self.port_ready(now, node as NodeId, usize::from(port))
            }
            Event::Timer { host, token } => {
                let host = host as NodeId;
                self.scratch.clear();
                let mut ctx = self.scratch.ctx(now, &mut self.arena);
                host_mut(&mut self.nodes, host).fire_timer(token, &self.events, &mut ctx);
                self.flush(now, host);
            }
            Event::FlowStart { idx } => self.flow_start(now, idx as usize),
            Event::Sample => {
                for (n, node) in self.nodes.iter().enumerate() {
                    if let Node::Switch(sw) = node {
                        for (p, port) in sw.ports.iter().enumerate() {
                            self.observer.on_queue_sample(n, p, port, now);
                        }
                    }
                }
                if let Some(every) = self.sample_every {
                    // Partitioned domains cannot see global completion, so
                    // they resample until the engine calls stop_sampling
                    // at the completion barrier.
                    if self.partition.is_some() || self.completed < self.flows.len() {
                        self.events.schedule(now + every, Event::Sample);
                    }
                }
            }
        }
    }

    fn arrive(&mut self, now: Time, node: NodeId, pid: PacketId) {
        hooks::on_wire_arrive(self.arena.get(pid).expect("arriving id is live"));
        if let Some((p, rng)) = &mut self.loss {
            if matches!(self.nodes.get(node), Some(Node::Switch(_))) && rng.chance(*p) {
                self.injected_losses += 1;
                let pkt = self.arena.release(pid).expect("arriving id is live");
                hooks::on_drop(node as u64, &pkt, DropCause::InjectedLoss);
                return;
            }
        }
        match self.nodes.get_mut(node).expect("arrival node id in range") {
            Node::Switch(sw) => {
                let res = sw.receive(&mut self.arena, pid);
                match res {
                    Ok(port_idx) => {
                        let idle = sw
                            .ports
                            .get(port_idx)
                            .is_some_and(|p| p.busy_until.is_none());
                        if idle {
                            self.events.schedule(now, Event::port_ready(node, port_idx));
                        }
                    }
                    Err((reason, pid)) => {
                        let pkt = self.arena.release(pid).expect("dropped id is live");
                        hooks::on_drop(node as u64, &pkt, reason.into());
                        self.observer.on_drop(&pkt, reason, node, now)
                    }
                }
            }
            Node::Host(h) => {
                // Copy the packet out and retire its slot before the
                // endpoint callback: the ctx holds `&mut arena` so the
                // endpoint can stage replies into fresh slots.
                let pkt = self.arena.release(pid).expect("arriving id is live");
                debug_assert_eq!(h.host_id, pkt.dst, "misrouted packet");
                hooks::on_flow_rx(&pkt);
                if pkt.is_data() {
                    self.observer.on_delivered(&pkt, now);
                }
                self.scratch.clear();
                {
                    let mut ctx = self.scratch.ctx(now, &mut self.arena);
                    h.deliver(&pkt, &mut ctx);
                }
                self.flush(now, node);
            }
        }
    }

    fn port_ready(&mut self, now: Time, node: NodeId, port: usize) {
        let p = self
            .nodes
            .get_mut(node)
            .expect("port-ready node id in range")
            .port_mut(port);
        // Clear any wake bookkeeping that is now in the past. This must
        // happen even on the early busy-return below: a shaper wake that
        // fires while the port is mid-transmission would otherwise leave
        // `pending_wake` stale forever, suppressing all future WaitUntil
        // scheduling — with a full shaped queue (arrivals dropped, so no
        // enqueue kicks either) the port would deadlock.
        if let Some(w) = p.pending_wake {
            if w <= now {
                p.pending_wake = None;
            }
        }
        if let Some(t) = p.busy_until {
            if t > now {
                return; // Still serializing; the end-of-tx event will come.
            }
        }
        p.busy_until = None;
        match p.next_packet(&mut self.arena, now) {
            Decision::Send(pid) => {
                let wire = self.arena.get(pid).expect("sent id is live").wire;
                let ser = p.serialize(wire);
                let peer = p.peer;
                let prop = p.prop;
                p.busy_until = Some(now + ser);
                hooks::on_wire_depart(self.arena.get(pid).expect("sent id is live"));
                self.events
                    .schedule(now + ser, Event::port_ready(node, port));
                if self.is_foreign(peer) {
                    // The link crosses a domain cut: the packet leaves this
                    // domain's arena (its id dies here — generation safety
                    // survives the handoff) and rides the outbox to the
                    // peer domain, where it re-enters that domain's arena.
                    let pkt = self.arena.release(pid).expect("sent id is live");
                    self.outbox.push((now + ser + prop, peer, pkt));
                } else {
                    self.events
                        .schedule(now + ser + prop, Event::arrive(peer, pid));
                }
            }
            Decision::WaitUntil(t) => {
                if p.pending_wake.is_none_or(|w| t < w) {
                    p.pending_wake = Some(t);
                    self.events.schedule(t, Event::port_ready(node, port));
                }
            }
            Decision::Idle => {}
        }
    }

    fn flow_start(&mut self, now: Time, idx: usize) {
        self.started += 1;
        let spec = *self.flows.get(idx).expect("flow index from schedule_flow");
        let role = *self.roles.get(idx).expect("role recorded per flow");
        self.sender_half_starts += u64::from(role == FlowRole::Sender);
        self.observer.on_flow_start(&spec, now);

        // Receiver first so the sender's first packet finds it (for a
        // split flow the halves start in different domains; the cut's
        // lookahead guarantees the first packet still arrives after the
        // receiver's own FlowStart at the same instant has run).
        if matches!(role, FlowRole::Both | FlowRole::Receiver) {
            let receiver = self.factory.receiver(&spec, &self.env);
            self.register_endpoint(now, spec.dst, spec.id, receiver);
        }
        if matches!(role, FlowRole::Both | FlowRole::Sender) {
            let sender = self.factory.sender(&spec, &self.env);
            self.register_endpoint(now, spec.src, spec.id, sender);
        }
    }

    fn register_endpoint(
        &mut self,
        now: Time,
        host_id: usize,
        flow: FlowId,
        ep: Box<dyn Endpoint>,
    ) {
        let node = *self.hosts.get(host_id).expect("host id in range");
        self.scratch.clear();
        let mut ctx = self.scratch.ctx(now, &mut self.arena);
        host_mut(&mut self.nodes, node).register(flow, ep, &mut ctx);
        self.flush(now, node);
    }

    /// Drains the scratch buffers after a host callback: transmit packets
    /// through the NIC, schedule timers, apply mute hints, surface app
    /// events.
    fn flush(&mut self, now: Time, node: NodeId) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for pid in scratch.tx.drain(..) {
            hooks::on_flow_tx(self.arena.get(pid).expect("staged tx id is live"));
            match host_mut(&mut self.nodes, node).nic_enqueue(&mut self.arena, pid) {
                Ok(_q) => {
                    let nic_idle = self
                        .nodes
                        .get(node)
                        .is_some_and(|n| n.port(0).busy_until.is_none());
                    if nic_idle {
                        self.events.schedule(now, Event::port_ready(node, 0));
                    }
                }
                Err((reason, pid)) => {
                    let pkt = self.arena.release(pid).expect("dropped id is live");
                    hooks::on_drop(node as u64, &pkt, reason.into());
                    self.observer.on_drop(&pkt, reason, node, now)
                }
            }
        }
        host_mut(&mut self.nodes, node).settle(now, &mut scratch, &mut self.events, |token| {
            Event::timer(node, token)
        });
        for ev in scratch.app.drain(..) {
            if matches!(ev, AppEvent::FlowCompleted { .. }) {
                self.completed += 1;
                self.last_completion = now;
            }
            self.observer.on_app_event(&ev, now);
        }
        // Prove the scratch buffers are reused, not replaced: capacity may
        // only grow (warm-up), never shrink.
        if crate::audit::is_active() {
            let (tx, timers, app) = scratch.capacities();
            let [tx_id, timers_id, app_id] = self.scratch_ids;
            hooks::on_scratch_capacity(tx_id, tx as u64);
            hooks::on_scratch_capacity(timers_id, timers as u64);
            hooks::on_scratch_capacity(app_id, app as u64);
        }
        self.scratch = scratch;
    }
}

/// The host at `node`: a free function over the node table, so the caller
/// keeps the simulator's other fields borrowable.
fn host_mut(nodes: &mut [Node], node: NodeId) -> &mut Host {
    match nodes.get_mut(node) {
        Some(Node::Host(h)) => h,
        // lint:allow(panic-path): only hosts arm timers, own endpoints and
        // stage packets, and `Topology` maps every host id to a host node.
        _ => unreachable!("node {node} is not a host"),
    }
}

/// Largest flow id a timer token can carry: the low 16 bits of a token
/// hold the timer kind, so a wider id would alias another flow's timers.
pub const MAX_FLOW_ID: FlowId = (1 << 48) - 1;

/// Builds a timer token namespaced by flow id: the simulator routes the
/// timer back to the owning endpoint via the high bits.
///
/// # Examples
///
/// ```
/// use flexpass_simnet::sim::timer_token;
///
/// let t = timer_token(42, 3);
/// assert_eq!(t >> 16, 42);
/// assert_eq!(t & 0xFFFF, 3);
/// ```
pub fn timer_token(flow: FlowId, kind: u16) -> u64 {
    (flow << 16) | kind as u64
}

/// Extracts the owning flow from a timer token.
pub fn timer_flow(token: u64) -> FlowId {
    token >> 16
}

/// Extracts the endpoint-local kind from a timer token.
pub fn timer_kind(token: u64) -> u16 {
    (token & 0xFFFF) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{data_wire_bytes, packets_for, payload_of_packet, CTRL_WIRE};
    use crate::endpoint::{EndpointCtx, RxStats, TxStats};
    use crate::packet::{DataInfo, Payload, Subflow, TrafficClass};
    use crate::port::{PortConfig, QueueSched};
    use crate::queue::QueueConfig;
    use crate::switch::ClassMap;
    use crate::switch::SwitchProfile;
    use crate::topology::ClosParams;
    use flexpass_simcore::units::{Bytes, WireBytes};

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

    /// A trivially simple transport: the sender blasts every packet at once
    /// (no congestion control); the receiver counts bytes and completes.
    struct BlastSender {
        spec: FlowSpec,
        sent: bool,
    }

    impl Endpoint for BlastSender {
        fn activate(&mut self, ctx: &mut EndpointCtx) {
            let n = packets_for(self.spec.size);
            for i in 0..n.get() {
                let pay = payload_of_packet(self.spec.size, i);
                ctx.send(Packet::new(
                    self.spec.id,
                    self.spec.src,
                    self.spec.dst,
                    data_wire_bytes(pay),
                    TrafficClass::Legacy,
                    Payload::Data(DataInfo {
                        flow_seq: i,
                        sub_seq: i,
                        sub: Subflow::Only,
                        payload: pay,
                        retx: false,
                    }),
                ));
            }
            self.sent = true;
            ctx.emit(AppEvent::SenderDone {
                flow: self.spec.id,
                stats: TxStats::default(),
            });
        }
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
        fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
        fn finished(&self) -> bool {
            self.sent
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

    struct BlastFactory;

    impl TransportFactory for BlastFactory {
        fn sender(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
            Box::new(BlastSender {
                spec: *flow,
                sent: false,
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

    struct FctObserver {
        start: Time,
        done_at: Option<Time>,
    }

    impl NetObserver for FctObserver {
        fn on_flow_start(&mut self, _spec: &FlowSpec, now: Time) {
            self.start = now;
        }
        fn on_app_event(&mut self, ev: &AppEvent, now: Time) {
            if matches!(ev, AppEvent::FlowCompleted { .. }) {
                self.done_at = Some(now);
            }
        }
    }

    fn flow(id: u64, src: usize, dst: usize, size: u64, start: Time) -> FlowSpec {
        FlowSpec {
            id,
            src,
            dst,
            size: Bytes::new(size),
            start,
            tag: 0,
            fg: false,
        }
    }

    /// Regression pin: the calendar is sized around a 16-byte, 8-aligned
    /// event (see `simcore::event::tests::calendar_entry_is_forty_bytes`).
    /// A `usize` node id or a flow id carried beside its token puts it
    /// back at 24–32 bytes.
    #[test]
    fn event_is_sixteen_bytes() {
        assert!(std::mem::size_of::<Event>() <= 16);
        assert!(std::mem::align_of::<Event>() <= 8);
    }

    /// The whole driver must be `Send` so one sweep point can run on a
    /// worker thread, and a factory `Sync` so the domains of a cut fabric
    /// share it: `Endpoint` and `TransportFactory` carry those supertraits,
    /// everything else is owned data. A compile-time check.
    #[test]
    fn sim_is_send() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Sim<NullObserver>>();
        assert_sync::<Arc<dyn TransportFactory>>();
        assert_send::<Box<dyn Endpoint>>();
    }

    /// A simulator owns no packet slots until a packet needs one.
    #[test]
    fn arena_starts_empty() {
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(128, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let sim = Sim::new(topo, Box::new(BlastFactory), NullObserver);
        assert_eq!(sim.arena_stats(), (0, 0, 0, 0));
    }

    #[test]
    fn single_flow_fct_matches_hand_calculation() {
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(BlastFactory),
            FctObserver {
                start: Time::ZERO,
                done_at: None,
            },
        );
        // 10 packets of 1460 B = 14,600 B.
        sim.schedule_flow(flow(1, 0, 1, 14_600, Time::from_micros(100)));
        sim.run_to_completion(TimeDelta::millis(1));
        // Hand calculation: 10 packets of 1538 B at 10 Gbps serialize in
        // 1230.4 ns each. Host NIC pipeline + switch: last packet leaves NIC
        // at 100us + 10*1230.4ns, arrives switch +5us +1230.4ns (store and
        // forward), leaves switch immediately after, arrives host +5us.
        let done = sim.observer.done_at.expect("flow completed");
        let expect_ns = 100_000.0 + 10.0 * 1230.4 + 5_000.0 + 1230.4 + 5_000.0;
        let got = done.as_nanos() as f64;
        assert!(
            (got - expect_ns).abs() < 10.0,
            "FCT {got} ns vs expected {expect_ns} ns"
        );
    }

    /// The event loop publishes into an attached probe on every
    /// `PUBLISH_EVERY`-th event and at no other time.
    #[test]
    fn probe_publishes_on_step_boundary() {
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(topo, Box::new(BlastFactory), NullObserver);
        let probe = std::sync::Arc::new(flexpass_simcore::ProgressProbe::new());
        sim.attach_progress(std::sync::Arc::clone(&probe));
        sim.schedule_flow(flow(1, 0, 1, 1_000_000, Time::ZERO));
        // Before the publish boundary the probe still shows the initial 0.
        for _ in 0..PUBLISH_EVERY - 1 {
            assert!(sim.step());
        }
        assert_eq!(probe.events(), 0);
        assert!(sim.step()); // event number PUBLISH_EVERY → publish fires
        assert_eq!(probe.events(), PUBLISH_EVERY);
        assert_eq!(probe.vtime_ns(), sim.now().as_nanos());
        assert!(probe.arena_high_water() > 0);
    }

    /// The hooks find the auditor through a thread-local flag, not through
    /// anything captured when the simulator was built: one installed after
    /// construction still sees every event of the run.
    #[test]
    fn auditor_installed_after_construction_counts_every_event() {
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(3, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(topo, Box::new(BlastFactory), NullObserver);
        sim.schedule_flow(flow(1, 0, 2, 100_000, Time::ZERO));
        sim.schedule_flow(flow(2, 1, 2, 60_000, Time::from_micros(3)));
        crate::audit::install();
        sim.run_to_completion(TimeDelta::millis(1));
        let report = crate::audit::finish();
        assert!(report.is_clean(), "{report}");
        assert!(sim.events_processed() > 500);
        assert_eq!(report.counters.events, sim.events_processed());
        assert_eq!(report.counters.enqueues, report.counters.dequeues);
    }

    #[test]
    fn flows_complete_across_clos() {
        let p = profile(Rate::from_gbps(40));
        let topo = Topology::clos(ClosParams::small(), &p, &p);
        let n = topo.hosts.len();
        let mut sim = Sim::new(topo, Box::new(BlastFactory), NullObserver);
        for i in 0..20u64 {
            let src = (i as usize * 7) % n;
            let dst = (src + 1 + (i as usize * 13) % (n - 1)) % n;
            sim.schedule_flow(flow(i, src, dst, 50_000 + i * 1000, Time::from_micros(i)));
        }
        sim.run_to_completion(TimeDelta::millis(1));
        assert_eq!(sim.flows_completed(), 20);
    }

    #[test]
    fn drops_reported_when_buffer_overflows() {
        // Tiny switch queues force drops with a blast sender.
        let mut p = profile(Rate::from_gbps(10));
        p.port.queues[0].0 = QueueConfig::capped(WireBytes::new(20_000));
        let host_p = profile(Rate::from_gbps(10));
        let topo = Topology::star(3, Rate::from_gbps(10), TimeDelta::micros(5), &p, &host_p);

        struct DropCount {
            drops: u64,
        }
        impl NetObserver for DropCount {
            fn on_drop(&mut self, _p: &Packet, _r: DropReason, _n: NodeId, _now: Time) {
                self.drops += 1;
            }
        }

        let mut sim = Sim::new(topo, Box::new(BlastFactory), DropCount { drops: 0 });
        // Two senders to one receiver at the same instant: the 10 Gbps
        // access link to host 2 must overflow the 20 kB queue.
        sim.schedule_flow(flow(1, 0, 2, 1_000_000, Time::ZERO));
        sim.schedule_flow(flow(2, 1, 2, 1_000_000, Time::ZERO));
        sim.run_until(Time::from_millis(50));
        assert!(sim.observer.drops > 0, "expected buffer drops");
    }

    #[test]
    fn timer_roundtrip() {
        struct TimerEp {
            fired: bool,
            flow: FlowId,
        }
        impl Endpoint for TimerEp {
            fn activate(&mut self, ctx: &mut EndpointCtx) {
                ctx.set_timer(ctx.now + TimeDelta::micros(50), timer_token(self.flow, 1));
            }
            fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
            fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
                assert_eq!(timer_kind(token), 1);
                self.fired = true;
                ctx.emit(AppEvent::FlowCompleted {
                    flow: self.flow,
                    stats: RxStats::default(),
                });
            }
            fn finished(&self) -> bool {
                self.fired
            }
        }
        struct TimerFactory;
        impl TransportFactory for TimerFactory {
            fn sender(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(TimerEp {
                    fired: false,
                    flow: flow.id,
                })
            }
            fn receiver(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(TimerEp {
                    fired: false,
                    flow: flow.id,
                })
            }
        }
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(topo, Box::new(TimerFactory), NullObserver);
        sim.schedule_flow(flow(3, 0, 1, 100, Time::from_micros(10)));
        sim.run_until(Time::from_millis(1));
        assert_eq!(sim.flows_completed(), 2); // Both halves emitted.
        assert_eq!(sim.now(), Time::from_micros(60));
    }

    /// The cancellable-timer protocol end to end: `arm_timer` replaces a
    /// previously armed token (the old deadline never fires), `cancel_timer`
    /// suppresses delivery entirely, and once a timer fires its slot leaves
    /// the host's armed-timer table.
    #[test]
    fn cancellable_timers_cancel_and_rearm_via_sim() {
        #[derive(Default)]
        struct Seen {
            b_fired: Vec<Time>,
            c_fired: u32,
        }
        struct Ep {
            flow: FlowId,
            seen: std::sync::Arc<std::sync::Mutex<Seen>>,
            done: bool,
        }
        impl Endpoint for Ep {
            fn activate(&mut self, ctx: &mut EndpointCtx) {
                // Plain driver timer (kind 1) plus two cancellable ones:
                // B (kind 2) to be re-armed later, C (kind 3) to be
                // cancelled outright.
                ctx.set_timer(ctx.now + TimeDelta::micros(50), timer_token(self.flow, 1));
                ctx.arm_timer(ctx.now + TimeDelta::micros(60), timer_token(self.flow, 2));
                ctx.arm_timer(ctx.now + TimeDelta::micros(70), timer_token(self.flow, 3));
            }
            fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
            fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
                match timer_kind(token) {
                    1 => {
                        // Push B from 60 us out to 140 us and kill C.
                        ctx.arm_timer(ctx.now + TimeDelta::micros(90), timer_token(self.flow, 2));
                        ctx.cancel_timer(timer_token(self.flow, 3));
                    }
                    2 => {
                        self.seen.lock().expect("lock").b_fired.push(ctx.now);
                        if !self.done {
                            self.done = true;
                            ctx.emit(AppEvent::FlowCompleted {
                                flow: self.flow,
                                stats: RxStats::default(),
                            });
                        }
                    }
                    3 => self.seen.lock().expect("lock").c_fired += 1,
                    _ => unreachable!(),
                }
            }
            fn finished(&self) -> bool {
                self.done
            }
        }
        struct F(std::sync::Arc<std::sync::Mutex<Seen>>);
        impl TransportFactory for F {
            fn sender(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(Ep {
                    flow: flow.id,
                    seen: self.0.clone(),
                    done: false,
                })
            }
            fn receiver(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(Ep {
                    flow: flow.id,
                    seen: self.0.clone(),
                    done: false,
                })
            }
        }
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Seen::default()));
        let mut sim = Sim::new(topo, Box::new(F(seen.clone())), NullObserver);
        sim.schedule_flow(flow(4, 0, 1, 100, Time::ZERO));
        sim.run_until(Time::from_millis(1));
        // Both endpoints saw B fire exactly once, at the re-armed instant
        // (50 + 90 us) rather than the original 60 us; C never fired.
        {
            let s = seen.lock().expect("lock");
            assert_eq!(
                s.b_fired.as_slice(),
                &[Time::from_micros(140), Time::from_micros(140)]
            );
            assert_eq!(s.c_fired, 0, "cancelled timer fired");
        }
        // Delivered + cancelled timers all left each host's table.
        for n in [sim.hosts[0], sim.hosts[1]] {
            if let Node::Host(h) = &sim.nodes[n] {
                assert_eq!(h.armed_timers(), 0, "armed-timer table not drained");
            }
        }
        // Each endpoint cancelled C and moved B later in place once.
        assert_eq!((sim.timers_cancelled(), sim.timers_deferred()), (2, 2));
    }

    /// What an [`EdgeEp`] does when its driver timer (kind 1, 10 µs after
    /// the flow starts) fires. Every variant but the last also finishes
    /// in that same callback.
    #[derive(Clone, Copy)]
    enum AtDriver {
        /// `arm_timer` kind 2 this many µs out.
        Arm(u64),
        /// `cancel_timer` kind 2.
        Cancel,
        /// Nothing: whatever is armed stays armed.
        Leave,
        /// No driver timer at all; the endpoint finishes when kind 2 fires.
        RunToKind2,
    }

    /// Sender half: arms kind 2 at `armed_us` after activation if given,
    /// then follows `at_driver`. Records every `on_timer` it receives.
    struct EdgeEp {
        flow: FlowId,
        armed_us: Option<u64>,
        at_driver: AtDriver,
        done: bool,
        fired: Fired,
    }

    impl Endpoint for EdgeEp {
        fn activate(&mut self, ctx: &mut EndpointCtx) {
            if !matches!(self.at_driver, AtDriver::RunToKind2) {
                ctx.set_timer(ctx.now + TimeDelta::micros(10), timer_token(self.flow, 1));
            }
            if let Some(us) = self.armed_us {
                ctx.arm_timer(ctx.now + TimeDelta::micros(us), timer_token(self.flow, 2));
            }
        }
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
        fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
            let mut fired = self.fired.lock().expect("lock");
            fired.push((self.flow, timer_kind(token), ctx.now));
            match self.at_driver {
                AtDriver::Arm(us) => {
                    ctx.arm_timer(ctx.now + TimeDelta::micros(us), timer_token(self.flow, 2))
                }
                AtDriver::Cancel => ctx.cancel_timer(timer_token(self.flow, 2)),
                AtDriver::Leave | AtDriver::RunToKind2 => {}
            }
            self.done = true;
        }
        fn finished(&self) -> bool {
            self.done
        }
    }

    /// Receiver half: finished before it is ever registered.
    struct Absent;

    impl Endpoint for Absent {
        fn activate(&mut self, _ctx: &mut EndpointCtx) {}
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
        fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
        fn finished(&self) -> bool {
            true
        }
    }

    /// Builds an [`EdgeEp`] per flow from `(flow id, armed_us, at_driver)`.
    struct EdgeFactory {
        scripts: Vec<(FlowId, Option<u64>, AtDriver)>,
        fired: Fired,
    }

    impl TransportFactory for EdgeFactory {
        fn sender(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
            let &(_, armed_us, at_driver) = self
                .scripts
                .iter()
                .find(|s| s.0 == flow.id)
                .expect("scripted flow");
            Box::new(EdgeEp {
                flow: flow.id,
                armed_us,
                at_driver,
                done: false,
                fired: self.fired.clone(),
            })
        }
        fn receiver(&self, _flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
            Box::new(Absent)
        }
    }

    type Fired = std::sync::Arc<std::sync::Mutex<Vec<(FlowId, u16, Time)>>>;

    /// A two-host star whose senders follow `scripts`, and the record of
    /// every timer they receive.
    fn edge_sim(scripts: Vec<(FlowId, Option<u64>, AtDriver)>) -> (Sim<NullObserver>, Fired) {
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let fired = Fired::default();
        let factory = EdgeFactory {
            scripts,
            fired: fired.clone(),
        };
        (Sim::new(topo, Box::new(factory), NullObserver), fired)
    }

    /// Timers around an endpoint that finishes: the delivered event
    /// sequence is that of a table which kept every armed entry until it
    /// fired. The event and cancel counts are those of the sorted-`Vec`
    /// tables at `6644693`, hard-coded.
    #[test]
    fn timers_around_a_finishing_endpoint() {
        let (mut sim, fired) = edge_sim(vec![
            // Arms and finishes in one callback: kind 2 pops at 30 µs and
            // finds nobody.
            (1, None, AtDriver::Arm(20)),
            // Re-arms and finishes in one callback: the 50 µs arming is
            // cancelled, the 30 µs one pops as a no-op.
            (2, Some(50), AtDriver::Arm(20)),
            // Cancels and finishes in one callback: nothing pops.
            (3, Some(50), AtDriver::Cancel),
            // Finishes with kind 2 still armed: it pops at 50 µs as a
            // no-op, and is not counted as cancelled.
            (4, Some(50), AtDriver::Leave),
            // The same, armed far out (200 µs) ...
            (5, Some(200), AtDriver::Leave),
            // ... so that flow 6, started at 100 µs into the slot flow 5
            // vacated (the last one freed) and holding the same kind
            // armed for 300 µs, is live when 5's timer pops.
            (6, Some(200), AtDriver::RunToKind2),
        ]);
        for id in 1..=5 {
            sim.schedule_flow(flow(id, 0, 1, 100, Time::ZERO));
        }
        sim.schedule_flow(flow(6, 0, 1, 100, Time::from_micros(100)));
        sim.run_until(Time::from_millis(1));

        // Each driver timer reached its own endpoint, once; the only kind-2
        // delivery is flow 6's own, at its own deadline.
        let at = Time::from_micros;
        assert_eq!(
            fired.lock().expect("lock").as_slice(),
            &[
                (1, 1, at(10)),
                (2, 1, at(10)),
                (3, 1, at(10)),
                (4, 1, at(10)),
                (5, 1, at(10)),
                (6, 2, at(300)),
            ]
        );
        // 6 flow starts + 5 driver timers + no-op pops for flows 1, 2, 4, 5
        // + flow 6's timer; the last event is that one.
        assert_eq!(sim.events_processed(), 16);
        assert_eq!(sim.now(), at(300));
        // Flow 2's replaced arming and flow 3's cancel.
        assert_eq!(sim.timers_cancelled(), 2);
        assert_eq!(sim.next_event_time(), None);
        for &n in &sim.hosts {
            if let Node::Host(h) = &sim.nodes[n] {
                assert_eq!((h.live_flows(), h.armed_timers()), (0, 0));
            }
        }
    }

    /// Sender half with a 10 µs periodic kind-2 tick that, with `hints`,
    /// mutes itself at its first pop; a kind-1 timer at 95 µs finishes
    /// the endpoint with the tick still armed.
    struct TickEp {
        flow: FlowId,
        hints: bool,
        done: bool,
        fired: Fired,
    }

    impl Endpoint for TickEp {
        fn activate(&mut self, ctx: &mut EndpointCtx) {
            ctx.arm_timer(ctx.now + TimeDelta::micros(10), timer_token(self.flow, 2));
            ctx.set_timer(ctx.now + TimeDelta::micros(95), timer_token(self.flow, 1));
        }
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
        fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
            self.fired
                .lock()
                .expect("lock")
                .push((self.flow, timer_kind(token), ctx.now));
            if timer_kind(token) == 1 {
                self.done = true;
                return;
            }
            let period = TimeDelta::micros(10);
            ctx.arm_timer(ctx.now + period, token);
            if self.hints {
                ctx.mute_timer(token, Some(period));
            }
        }
        fn finished(&self) -> bool {
            self.done
        }
    }

    struct TickFactory {
        hints: bool,
        fired: Fired,
    }

    impl TransportFactory for TickFactory {
        fn sender(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
            Box::new(TickEp {
                flow: flow.id,
                hints: self.hints,
                done: false,
                fired: self.fired.clone(),
            })
        }
        fn receiver(&self, _flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
            Box::new(Absent)
        }
    }

    /// An endpoint mutes its periodic tick and then finishes without
    /// cancelling it: retirement unmutes the tick, which pops once into
    /// nobody, so the calendar drains with the event and cancel counts of
    /// the same script with its hints dropped; only the endpoint calls
    /// differ.
    #[test]
    fn a_muted_tick_around_a_finishing_endpoint() {
        let run = |hints| {
            let p = profile(Rate::from_gbps(10));
            let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
            let fired = Fired::default();
            let factory = TickFactory {
                hints,
                fired: fired.clone(),
            };
            let mut sim = Sim::new(topo, Box::new(factory), NullObserver);
            sim.schedule_flow(flow(1, 0, 1, 100, Time::ZERO));
            sim.run_until(Time::from_millis(1));
            let calls = fired.lock().expect("lock").len();
            let counts = (
                sim.events_processed(),
                sim.timers_cancelled(),
                sim.now(),
                sim.next_event_time(),
            );
            (counts, sim.timers_rearmed(), calls)
        };
        let at = Time::from_micros;
        // The flow start, ticks at 10..=90 µs, the finishing timer at
        // 95 µs and the tick at 100 µs that finds nobody.
        let counts = (12, 0, at(100), None);
        assert_eq!(run(false), (counts, 0, 10));
        // Only the first tick reaches the endpoint; the calendar re-arms
        // the other eight.
        assert_eq!(run(true), (counts, 8, 2));
    }

    /// A flow id must fit the 48 bits a timer token leaves it: one bit
    /// more would alias flow 0's timers.
    #[test]
    #[should_panic(expected = "does not fit a timer token")]
    fn flow_id_beyond_the_token_is_refused() {
        let (mut sim, _) = edge_sim(Vec::new());
        sim.schedule_flow(flow(1 << 48, 0, 1, 100, Time::ZERO));
    }

    #[test]
    fn largest_flow_id_arms_fires_and_drains() {
        assert_eq!(MAX_FLOW_ID, (1 << 48) - 1);
        let (mut sim, fired) = edge_sim(vec![(MAX_FLOW_ID, Some(40), AtDriver::RunToKind2)]);
        sim.schedule_flow(flow(MAX_FLOW_ID, 0, 1, 100, Time::ZERO));
        sim.run_until(Time::from_millis(1));
        assert_eq!(
            fired.lock().expect("lock").as_slice(),
            &[(MAX_FLOW_ID, 2, Time::from_micros(40))]
        );
        assert_eq!((sim.events_processed(), sim.next_event_time()), (2, None));
        if let Node::Host(h) = &sim.nodes[sim.hosts[0]] {
            assert_eq!((h.live_flows(), h.armed_timers()), (0, 0));
        }
    }

    #[test]
    fn sampling_emits_queue_samples() {
        struct SampleCount {
            n: u64,
        }
        impl NetObserver for SampleCount {
            fn on_queue_sample(&mut self, _node: NodeId, _port: usize, _queues: &Port, _now: Time) {
                self.n += 1;
            }
        }
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(topo, Box::new(BlastFactory), SampleCount { n: 0 });
        sim.enable_sampling(TimeDelta::micros(100));
        sim.schedule_flow(flow(1, 0, 1, 1_000_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::ZERO);
        // 1 MB at 10 Gbps takes ~822 us; expect ~8 ticks x 2 ports.
        assert!(sim.observer.n >= 10, "samples {}", sim.observer.n);
    }

    #[test]
    fn control_packet_sizes_obeyed() {
        let wire = CTRL_WIRE;
        assert!(
            wire < WireBytes::new(100),
            "control packets must fit a minimum frame"
        );
    }

    /// Regression test: a shaper wake that fires while the port is busy
    /// must not leave stale `pending_wake` bookkeeping behind. With the
    /// bug, a shaped queue whose arrivals are dropped (full cap) would
    /// never be served again and its packets never delivered.
    #[test]
    fn shaped_queue_drains_after_wake_lands_mid_transmission() {
        use crate::packet::CreditInfo;
        use crate::port::QueueSched;

        struct Burst {
            flow: FlowId,
            sent_data: bool,
        }
        impl Endpoint for Burst {
            fn activate(&mut self, ctx: &mut EndpointCtx) {
                // Five credits into the shaped Q0: the first drains the
                // token burst; the rest must wait for refills.
                for i in 0..5 {
                    ctx.send(Packet::new(
                        self.flow,
                        0,
                        1,
                        CTRL_WIRE,
                        TrafficClass::Credit,
                        Payload::Credit(CreditInfo { idx: i }),
                    ));
                }
                // A large data packet lands while the shaper wake is
                // pending; its serialization swallows the wake event.
                ctx.set_timer(ctx.now + TimeDelta::micros(100), timer_token(self.flow, 1));
            }
            fn on_packet(&mut self, _p: &Packet, _ctx: &mut EndpointCtx) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut EndpointCtx) {
                self.sent_data = true;
                ctx.send(Packet::new(
                    self.flow,
                    0,
                    1,
                    crate::consts::DATA_WIRE,
                    TrafficClass::Legacy,
                    Payload::CreditReq { pkts: 0 },
                ));
            }
            fn finished(&self) -> bool {
                false
            }
        }

        struct Count {
            credits: u32,
        }
        impl Endpoint for Count {
            fn activate(&mut self, _ctx: &mut EndpointCtx) {}
            fn on_packet(&mut self, p: &Packet, _ctx: &mut EndpointCtx) {
                if matches!(p.payload, Payload::Credit(_)) {
                    self.credits += 1;
                }
            }
            fn on_timer(&mut self, _t: u64, _ctx: &mut EndpointCtx) {}
            fn finished(&self) -> bool {
                false
            }
        }

        struct F;
        impl TransportFactory for F {
            fn sender(&self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(Burst {
                    flow: flow.id,
                    sent_data: false,
                })
            }
            fn receiver(&self, _flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(Count { credits: 0 })
            }
        }

        // Slow 10 Mbps line so the data packet serializes for 1.23 ms;
        // credit shaper at 1 Mbps with an 84 B burst.
        let sw = SwitchProfile {
            port: PortConfig {
                rate: Rate::from_mbps(10),
                queues: vec![
                    (
                        QueueConfig::capped(WireBytes::new(1_000)),
                        QueueSched::strict(0).shaped(Rate::from_mbps(1), CTRL_WIRE),
                    ),
                    (QueueConfig::plain(), QueueSched::strict(1)),
                ],
            },
            class_map: ClassMap::Split {
                credit: 0,
                new_data: 1,
                new_ctrl: 1,
                legacy: 1,
            },
            shared_buffer: None,
        };
        let topo = Topology::star(2, Rate::from_mbps(10), TimeDelta::micros(5), &sw, &sw);
        let mut sim = Sim::new(topo, Box::new(F), NullObserver);
        sim.schedule_flow(FlowSpec {
            id: 1,
            src: 0,
            dst: 1,
            size: Bytes::new(100),
            start: Time::ZERO,
            tag: 0,
            fg: false,
        });
        sim.run_until(Time::from_millis(50));
        // All five credits must eventually reach host 1 despite the wake
        // being swallowed by the data transmission.
        if let Node::Host(h) = &sim.nodes[sim.hosts[1]] {
            // Count endpoint holds the tally; verify no backlog remains.
            assert!(!h.nic.has_backlog());
        }
        let backlog: WireBytes = (0..sim.nodes.len())
            .map(|n| match &sim.nodes[n] {
                Node::Switch(s) => s.ports.iter().map(|p| p.backlog_bytes()).sum(),
                Node::Host(h) => h.nic.backlog_bytes(),
            })
            .sum();
        assert_eq!(
            backlog,
            WireBytes::ZERO,
            "shaped queue wedged with {backlog}"
        );
    }

    #[test]
    fn cross_cut_handoff_rejects_stale_ids() {
        // Generation safety across the domain cut: a packet leaving on a
        // cut link is released from the sender domain's arena (its id dies
        // there) and re-acquired by the receiver domain's `inject_arrival`
        // under a fresh generation. Ids minted before either transition
        // must stay dead even after the slot is reused. Two full Sims
        // stand in for the two domains of a star fabric split as
        // {host 0, switch} / {host 1}.
        let p = profile(Rate::from_gbps(10));
        let mk = || Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        // Star node order: node 0 is the switch, hosts follow.
        let domain_of = std::sync::Arc::new(vec![0u32, 0, 1]);
        let mut a = Sim::new(mk(), Box::new(BlastFactory), NullObserver);
        a.set_partition(PartitionCtx {
            domain_of: domain_of.clone(),
            me: 0,
        });
        let mut b = Sim::new(mk(), Box::new(BlastFactory), NullObserver);
        b.set_partition(PartitionCtx { domain_of, me: 1 });
        let spec = flow(7, 0, 1, 4_000, Time::ZERO);
        a.schedule_flow_role(spec, FlowRole::Sender);
        b.schedule_flow_role(spec, FlowRole::Receiver);

        // Sender side: a probe id acquired and released before the run
        // leaves its slot on top of the free list, so the engine's first
        // data packet reuses it under a bumped generation. The stale probe
        // must never alias the live packet, during the run or after the
        // cut branch releases it into the outbox.
        let probe_pkt = || {
            Packet::new(
                99,
                0,
                1,
                CTRL_WIRE,
                TrafficClass::Legacy,
                Payload::CreditReq { pkts: 0 },
            )
        };
        let probe_a = a.arena.acquire(probe_pkt());
        assert!(a.arena.release(probe_a).is_some());
        a.run_until(Time::from_micros(100));
        assert!(
            a.arena.get(probe_a).is_none(),
            "stale id revived in domain 0"
        );
        let records: Vec<(Time, NodeId, Packet)> = a.outbox.drain(..).collect();
        assert!(!records.is_empty(), "no packets crossed the cut");
        assert_eq!(a.arena.live(), 0, "handoff must release the sender slot");

        // Receiver side: the same probe trick on the peer arena, then the
        // real handoff path. `inject_arrival` re-acquires the released
        // slot, so the pre-handoff id must be rejected while the
        // handed-off packet is live in that slot.
        let probe_b = b.arena.acquire(probe_pkt());
        assert!(b.arena.release(probe_b).is_some());
        for (at, node, pkt) in records {
            b.inject_arrival(at, node, pkt);
        }
        assert!(b.arena.live() > 0, "injected packets must be live");
        assert!(
            b.arena.get(probe_b).is_none(),
            "stale id aliases a handed-off packet"
        );
        b.run_until(Time::from_micros(200));
        assert_eq!(b.flows_completed(), 1, "receiver half must complete");
        assert!(
            b.arena.get(probe_b).is_none(),
            "stale id revived in domain 1"
        );
    }
}
