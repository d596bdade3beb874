//! Endpoints without a fabric: a one-callback [`Driver`] and, built on it,
//! a sender/receiver pair that exchanges one flow's packets directly
//! ([`run`]).
//!
//! The pair crosses packets with zero delay in FIFO order and keeps timers
//! in a small `(at, seq)` heap, as the simulator's calendar orders them;
//! virtual time advances only when no packet is in flight. A finished
//! endpoint is never called again, mute hints are dropped (every tick is
//! delivered), and a run stops after [`MAX_CALLBACKS`] callbacks.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::Bytes;

use crate::arena::PacketArena;
use crate::endpoint::{AppEvent, Endpoint, EndpointCtx, TimerCmd};
use crate::host::Scratch;
use crate::packet::{FlowId, FlowSpec, Packet};
use crate::sim::{NetEnv, TransportFactory};

/// Makes one endpoint callback at a time over its own arena and the
/// host's scratch buffers, and moves every packet a callback sends out of
/// the arena into [`Driver::sent`].
#[derive(Default)]
pub struct Driver {
    arena: PacketArena,
    /// Timer commands, application events and mute hints issued since the
    /// last [`clear`](Self::clear); its `tx` is empty between callbacks.
    pub out: Scratch,
    /// Packets sent since the last [`clear`](Self::clear), in emission
    /// order.
    pub sent: Vec<Packet>,
}

impl Driver {
    /// Makes one callback `f` at `now`.
    pub fn call<R>(&mut self, now: Time, f: impl FnOnce(&mut EndpointCtx) -> R) -> R {
        let r = f(&mut self.out.ctx(now, &mut self.arena));
        self.arena.drain_into(&mut self.out.tx, &mut self.sent);
        r
    }

    /// Empties [`out`](Self::out) and [`sent`](Self::sent).
    pub fn clear(&mut self) {
        self.out.clear();
        self.sent.clear();
    }
}

/// The callback budget: a pair that needs more than this for one flow is
/// livelocked, and its run stops there.
pub const MAX_CALLBACKS: u64 = 50_000_000;

/// What one loopback flow did.
#[derive(Debug, Default)]
pub struct PairRun {
    /// Endpoint callbacks made.
    pub callbacks: u64,
    /// Packets the drop hook dropped.
    pub dropped: u64,
    /// Every application event, in the order raised.
    pub events: Vec<AppEvent>,
}

impl PairRun {
    /// The receiver reported the flow complete.
    pub fn completed(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, AppEvent::FlowCompleted { .. }))
    }
}

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

/// Sender is side 0, receiver side 1.
struct Pair<D> {
    eps: [Box<dyn Endpoint>; 2],
    driver: Driver,
    now: Time,
    /// Packets in flight, with the side they are addressed to.
    wire: VecDeque<(usize, Packet)>,
    timers: BinaryHeap<Reverse<Timer>>,
    /// The live arming of each cancellable `(side, token)`.
    armed: BTreeMap<(usize, u64), u64>,
    seq: u64,
    drop: D,
    out: PairRun,
}

impl<D: FnMut(&Packet) -> bool> Pair<D> {
    /// Makes one callback on `side` and moves what it issued.
    fn call(&mut self, side: usize, f: impl FnOnce(&mut dyn Endpoint, &mut EndpointCtx)) {
        let ep = self.eps[side].as_mut();
        if ep.finished() {
            return; // the host would have dropped the endpoint
        }
        let driver = &mut self.driver;
        f(ep, &mut driver.out.ctx(self.now, &mut driver.arena));
        self.out.callbacks += 1;

        // Released straight onto the wire, not through `sent`, so a packet
        // is copied once.
        for id in driver.out.tx.drain(..) {
            let Some(pkt) = driver.arena.release(id) else {
                continue;
            };
            if (self.drop)(&pkt) {
                self.out.dropped += 1;
            } else {
                self.wire.push_back((1 - side, pkt));
            }
        }
        for cmd in self.driver.out.timers.drain(..) {
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
        self.out.events.append(&mut self.driver.out.app);
        self.driver.out.mutes.clear();
    }

    fn run(mut self, budget: u64) -> PairRun {
        self.call(1, |ep, ctx| ep.activate(ctx));
        self.call(0, |ep, ctx| ep.activate(ctx));
        while self.out.callbacks < budget && !self.eps.iter().all(|e| e.finished()) {
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
        self.out
    }
}

/// Drives `eps` (sender, receiver) until both finish, nothing is left to
/// do, or `budget` callbacks were made.
fn drive(eps: [Box<dyn Endpoint>; 2], drop: impl FnMut(&Packet) -> bool, budget: u64) -> PairRun {
    Pair {
        eps,
        driver: Driver::default(),
        now: Time::ZERO,
        wire: VecDeque::new(),
        timers: BinaryHeap::new(),
        armed: BTreeMap::new(),
        seq: 0,
        drop,
        out: PairRun::default(),
    }
    .run(budget)
}

/// The network a loopback pair runs on: two hosts, 10 Gbps, 20 µs RTT.
pub const ENV: NetEnv = NetEnv {
    host_rate: Rate::from_gbps(10),
    base_rtt: TimeDelta::micros(20),
    n_hosts: 2,
};

/// Flow `id` of `size` bytes from host 0 to host 1, starting at zero.
pub fn flow(id: FlowId, size: Bytes) -> FlowSpec {
    FlowSpec {
        id,
        src: 0,
        dst: 1,
        size,
        start: Time::ZERO,
        tag: 0,
        fg: false,
    }
}

/// Runs one `size`-byte flow between a fresh sender/receiver pair of
/// `factory` on [`ENV`]; `drop` sees every packet either side sends, once,
/// and drops it when it returns true.
pub fn run(
    factory: &dyn TransportFactory,
    size: Bytes,
    drop: impl FnMut(&Packet) -> bool,
) -> PairRun {
    let spec = flow(1, size);
    let eps = [factory.sender(&spec, &ENV), factory.receiver(&spec, &ENV)];
    drive(eps, drop, MAX_CALLBACKS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::CTRL_WIRE;
    use crate::packet::{Payload, TrafficClass::NewCtrl};
    use std::sync::mpsc;

    /// One callback as a script sees it: a packet by its flow id, a timer
    /// by its token.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Call {
        Activate,
        Packet(u64),
        Timer(u64),
    }

    /// An endpoint that hands each callback to a script, which returns
    /// whether the endpoint is now finished; a later call panics.
    struct Script<F>(F, bool);

    impl<F: FnMut(Call, &mut EndpointCtx) -> bool + Send> Script<F> {
        fn act(&mut self, call: Call, ctx: &mut EndpointCtx) {
            assert!(!self.1, "{call:?} after the endpoint finished");
            self.1 = (self.0)(call, ctx);
        }
    }

    impl<F: FnMut(Call, &mut EndpointCtx) -> bool + Send> Endpoint for Script<F> {
        fn activate(&mut self, ctx: &mut EndpointCtx) {
            self.act(Call::Activate, ctx);
        }
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
            self.act(Call::Packet(pkt.flow), ctx);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
            self.act(Call::Timer(token), ctx);
        }
        fn finished(&self) -> bool {
            self.1
        }
    }

    fn pair(
        sender: impl FnMut(Call, &mut EndpointCtx) -> bool + Send + 'static,
        receiver: impl FnMut(Call, &mut EndpointCtx) -> bool + Send + 'static,
    ) -> [Box<dyn Endpoint>; 2] {
        [
            Box::new(Script(sender, false)),
            Box::new(Script(receiver, false)),
        ]
    }

    /// A control packet from `side` to the other, tagged `tag` as its
    /// flow id.
    fn pkt(side: usize, tag: u64) -> Packet {
        let payload = Payload::CreditReq { pkts: 0 };
        Packet::new(tag, side, 1 - side, CTRL_WIRE, NewCtrl, payload)
    }

    fn us(n: u64) -> Time {
        Time::from_micros(n)
    }

    /// `(now, token)` of each timer a sender gets after issuing `start`'s
    /// commands in its `activate`.
    fn fired(start: impl Fn(&mut EndpointCtx) + Send + 'static) -> Vec<(Time, u64)> {
        let (log, fired) = mpsc::channel();
        let sender = move |call, ctx: &mut EndpointCtx| {
            match call {
                Call::Activate => start(ctx),
                Call::Timer(token) => log.send((ctx.now, token)).unwrap(),
                Call::Packet(_) => {}
            }
            false
        };
        drive(pair(sender, |_, _| true), |_| false, 100);
        fired.try_iter().collect()
    }

    #[test]
    fn an_arm_supersedes_the_earlier_arming_of_its_token() {
        let fired = fired(|ctx| {
            ctx.arm_timer(us(5), 1);
            ctx.arm_timer(us(10), 1);
        });
        assert_eq!(fired, [(us(10), 1)]);
    }

    #[test]
    fn cancel_removes_an_armed_timer_and_a_set_timer_still_fires() {
        let fired = fired(|ctx| {
            ctx.arm_timer(us(5), 1);
            ctx.set_timer(us(6), 2);
            ctx.cancel_timer(1);
            ctx.cancel_timer(2);
        });
        assert_eq!(fired, [(us(6), 2)]);
    }

    #[test]
    fn equal_time_timers_fire_in_issue_order() {
        let fired = fired(|ctx| {
            ctx.set_timer(us(5), 3);
            ctx.arm_timer(us(5), 1);
            ctx.set_timer(us(5), 2);
        });
        assert_eq!(fired, [(us(5), 3), (us(5), 1), (us(5), 2)]);
    }

    /// The sender finishes on the first echo, with two echoes still on
    /// the wire and two timers pending; the receiver lives on until its
    /// own timer. `Script` panics on a call after finishing.
    #[test]
    fn a_finished_endpoint_is_never_called_again() {
        let sender = |call, ctx: &mut EndpointCtx| {
            if call == Call::Activate {
                (0..3).for_each(|tag| ctx.send(pkt(0, tag)));
                ctx.arm_timer(us(5), 1);
                ctx.set_timer(us(6), 2);
            }
            matches!(call, Call::Packet(_))
        };
        let receiver = |call, ctx: &mut EndpointCtx| {
            match call {
                Call::Activate => ctx.arm_timer(us(10), 9),
                Call::Packet(tag) => ctx.send(pkt(1, tag)),
                Call::Timer(_) => return true,
            }
            false
        };
        let run = drive(pair(sender, receiver), |_| false, 100);
        // Two activates, three packets in, one echo back, one timer.
        assert_eq!(run.callbacks, 7);
    }

    /// The sender's odd packets drop; the receiver echoes the rest.
    #[test]
    fn the_drop_hook_sees_each_emitted_packet_once() {
        let sender = |call, ctx: &mut EndpointCtx| {
            if call == Call::Activate {
                (0..6).for_each(|tag| ctx.send(pkt(0, tag)));
            }
            false
        };
        let receiver = |call, ctx: &mut EndpointCtx| {
            if let Call::Packet(tag) = call {
                ctx.send(pkt(1, tag + 100));
            }
            false
        };
        let mut seen = Vec::new();
        let drop_odd = |p: &Packet| {
            seen.push(p.flow);
            p.flow % 2 == 1
        };
        let run = drive(pair(sender, receiver), drop_odd, 100);
        assert_eq!(seen, [0, 1, 2, 3, 4, 5, 100, 102, 104]);
        assert_eq!(run.dropped, 3);
    }

    #[test]
    fn an_exhausted_budget_ends_the_run_not_completed() {
        let rearm = |_, ctx: &mut EndpointCtx| {
            ctx.arm_timer(ctx.now + TimeDelta::micros(1), 1);
            false
        };
        let run = drive(pair(rearm, |_, _| true), |_| false, 1_000);
        assert_eq!(run.callbacks, 1_000);
        assert!(!run.completed());
    }
}
