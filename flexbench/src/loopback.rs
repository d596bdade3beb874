//! Endpoint loopback harness: times a transport "from outside".
//!
//! A sender/receiver pair built by a [`TransportFactory`] exchanges one
//! flow's packets directly through [`EndpointCtx`] — no ports, queues,
//! switches or calendar. Packets cross with zero delay in FIFO order;
//! timers live in a small binary heap and advance virtual time only when
//! no packet is in flight. The result is host nanoseconds per endpoint
//! callback (`activate`, `on_packet`, `on_timer`), the harness's own
//! shuttling included — a constant the two sides of a comparison share.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::Bytes;
use flexpass_simnet::endpoint::TimerCmd;
use flexpass_simnet::sim::TransportFactory;
use flexpass_simnet::{AppEvent, Endpoint, EndpointCtx, FlowSpec, NetEnv, Packet, PacketArena};

use crate::clock;

/// What one loopback flow did.
#[derive(Clone, Copy, Debug)]
pub struct LoopbackRun {
    /// Endpoint callbacks made.
    pub callbacks: u64,
    /// Data packets the harness dropped (lossy variant).
    pub dropped: u64,
    /// The receiver reported the flow complete.
    pub completed: bool,
    /// Host seconds for the whole exchange.
    pub secs: f64,
}

impl LoopbackRun {
    /// Host nanoseconds per endpoint callback.
    pub fn ns_per_callback(&self) -> f64 {
        self.secs * 1e9 / self.callbacks.max(1) as f64
    }
}

/// Sender is side 0, receiver side 1.
const SIDES: usize = 2;

/// The callback budget: a transport that needs more than this for one
/// flow is livelocked, and the run is reported as not completed.
const MAX_CALLBACKS: u64 = 50_000_000;

/// A pending timer. Ordered by `(at, seq)`: `seq` keeps FIFO order among
/// equal times, as the simulator's calendar does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Timer {
    at: Time,
    seq: u64,
    side: usize,
    token: u64,
    cancellable: bool,
}

struct Harness {
    eps: [Box<dyn Endpoint>; SIDES],
    now: Time,
    arena: PacketArena,
    tx: Vec<flexpass_simnet::PacketId>,
    timer_cmds: Vec<TimerCmd>,
    app: Vec<AppEvent>,
    /// Packets in flight, with the side they are addressed to.
    wire: VecDeque<(usize, Packet)>,
    timers: BinaryHeap<Reverse<Timer>>,
    /// The live arming of each cancellable `(side, token)`.
    armed: BTreeMap<(usize, u64), u64>,
    seq: u64,
    drop_every: Option<u64>,
    data_seen: u64,
    out: LoopbackRun,
}

impl Harness {
    /// Makes one callback on `side` and moves what it emitted.
    fn call(&mut self, side: usize, f: impl FnOnce(&mut dyn Endpoint, &mut EndpointCtx)) {
        if self.eps[side].finished() {
            return; // the host would have dropped the endpoint
        }
        {
            let mut ctx = EndpointCtx::new(
                self.now,
                &mut self.arena,
                &mut self.tx,
                &mut self.timer_cmds,
                &mut self.app,
            );
            f(self.eps[side].as_mut(), &mut ctx);
        }
        self.out.callbacks += 1;

        for id in self.tx.drain(..) {
            let Some(pkt) = self.arena.release(id) else {
                continue;
            };
            if pkt.is_data() {
                self.data_seen += 1;
                if self
                    .drop_every
                    .is_some_and(|n| self.data_seen.is_multiple_of(n))
                {
                    self.out.dropped += 1;
                    continue;
                }
            }
            self.wire.push_back((1 - side, pkt));
        }
        for cmd in self.timer_cmds.drain(..) {
            self.seq += 1;
            let seq = self.seq;
            let (at, token, cancellable) = match cmd {
                TimerCmd::Set(at, token) => (at, token, false),
                TimerCmd::Arm(at, token) => {
                    self.armed.insert((side, token), seq);
                    (at, token, true)
                }
                TimerCmd::Cancel(token) => {
                    self.armed.remove(&(side, token));
                    continue;
                }
            };
            self.timers.push(Reverse(Timer {
                at,
                seq,
                side,
                token,
                cancellable,
            }));
        }
        for ev in self.app.drain(..) {
            if matches!(ev, AppEvent::FlowCompleted { .. }) {
                self.out.completed = true;
            }
        }
    }

    fn run(mut self) -> LoopbackRun {
        let t0 = clock::now_ns();
        self.call(1, |ep, ctx| ep.activate(ctx));
        self.call(0, |ep, ctx| ep.activate(ctx));
        while self.out.callbacks < MAX_CALLBACKS && !self.eps.iter().all(|e| e.finished()) {
            if let Some((side, pkt)) = self.wire.pop_front() {
                self.call(side, |ep, ctx| ep.on_packet(&pkt, ctx));
            } else if let Some(Reverse(t)) = self.timers.pop() {
                if t.cancellable {
                    if self.armed.get(&(t.side, t.token)) != Some(&t.seq) {
                        continue; // cancelled or re-armed since
                    }
                    self.armed.remove(&(t.side, t.token));
                }
                self.now = self.now.max(t.at);
                self.call(t.side, |ep, ctx| ep.on_timer(t.token, ctx));
            } else {
                break; // nothing in flight and nothing armed
            }
        }
        self.out.secs = clock::secs_since(t0);
        self.out
    }
}

/// Runs one `size`-byte flow between a fresh sender/receiver pair of
/// `factory`; `drop_every = Some(n)` drops every `n`-th data packet.
pub fn run(
    factory: &mut dyn TransportFactory,
    size: Bytes,
    drop_every: Option<u64>,
) -> LoopbackRun {
    let spec = FlowSpec {
        id: 1,
        src: 0,
        dst: 1,
        size,
        start: Time::ZERO,
        tag: 0,
        fg: false,
    };
    let env = NetEnv {
        host_rate: Rate::from_gbps(10),
        base_rtt: TimeDelta::micros(20),
        n_hosts: SIDES,
    };
    Harness {
        eps: [factory.sender(&spec, &env), factory.receiver(&spec, &env)],
        now: Time::ZERO,
        arena: PacketArena::with_capacity(256),
        tx: Vec::new(),
        timer_cmds: Vec::new(),
        app: Vec::new(),
        wire: VecDeque::new(),
        timers: BinaryHeap::new(),
        armed: BTreeMap::new(),
        seq: 0,
        drop_every,
        data_seen: 0,
        out: LoopbackRun {
            callbacks: 0,
            dropped: 0,
            completed: false,
            secs: 0.0,
        },
    }
    .run()
}
