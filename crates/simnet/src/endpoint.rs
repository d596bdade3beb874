//! The transport endpoint abstraction.
//!
//! A transport protocol is implemented as two [`Endpoint`]s per flow — one at
//! the sender, one at the receiver — reacting to packet arrivals and timers.
//! Endpoints never touch the network directly; they emit packets, timer
//! requests and application events through an [`EndpointCtx`], which the host
//! drains into the simulator.

use flexpass_simcore::time::{Time, TimeDelta};
use flexpass_simcore::units::Bytes;

use crate::arena::{PacketArena, PacketId};
use crate::packet::{FlowId, Packet};

/// Sender-side transmission statistics, reported on [`AppEvent::SenderDone`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Data packets transmitted (including retransmissions).
    pub data_pkts: u64,
    /// Application bytes transmitted (including redundant bytes).
    pub data_bytes: u64,
    /// Loss-recovery retransmissions (state was `Lost`).
    pub retx_pkts: u64,
    /// FlexPass "proactive retransmissions" of unacked reactive packets.
    pub proactive_retx_pkts: u64,
    /// Redundant application bytes (received more than once at the peer is
    /// tracked receiver-side; this counts bytes *sent* more than once).
    pub redundant_bytes: u64,
    /// Retransmission timeouts that fired.
    pub timeouts: u64,
    /// Credit packets received (proactive transports).
    pub credits_received: u64,
    /// Credits that arrived with nothing useful to send (wasted credits).
    pub credits_wasted: u64,
}

impl TxStats {
    /// Adds every counter of `other` to this one (per-tag and per-domain
    /// aggregation). The destructuring is exhaustive: a new field that is
    /// not summed here does not compile.
    pub fn add(&mut self, other: &TxStats) {
        let TxStats {
            data_pkts,
            data_bytes,
            retx_pkts,
            proactive_retx_pkts,
            redundant_bytes,
            timeouts,
            credits_received,
            credits_wasted,
        } = *other;
        self.data_pkts += data_pkts;
        self.data_bytes += data_bytes;
        self.retx_pkts += retx_pkts;
        self.proactive_retx_pkts += proactive_retx_pkts;
        self.redundant_bytes += redundant_bytes;
        self.timeouts += timeouts;
        self.credits_received += credits_received;
        self.credits_wasted += credits_wasted;
    }

    /// Accounts for one transmitted data packet of `payload` application
    /// bytes; `retx` marks a loss-recovery retransmission.
    pub fn count_data(&mut self, payload: Bytes, retx: bool) {
        self.data_pkts += 1;
        self.data_bytes += payload.get();
        if retx {
            self.retx_pkts += 1;
            self.redundant_bytes += payload.get();
        }
    }
}

/// Receiver-side statistics, reported on [`AppEvent::FlowCompleted`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RxStats {
    /// Data packets received (including duplicates).
    pub pkts_received: u64,
    /// Duplicate data packets discarded during reassembly.
    pub dup_pkts: u64,
    /// Peak bytes buffered out-of-order awaiting reassembly.
    pub reorder_peak_bytes: u64,
}

/// Events endpoints raise towards the application / metrics layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppEvent {
    /// All application bytes of the flow were delivered in order.
    FlowCompleted {
        /// The completed flow.
        flow: FlowId,
        /// Receiver-side statistics.
        stats: RxStats,
    },
    /// The sender saw every byte acknowledged.
    SenderDone {
        /// The finished flow.
        flow: FlowId,
        /// Sender-side statistics.
        stats: TxStats,
    },
}

/// One buffered timer request, drained by the simulator after the callback.
///
/// Kept as a single ordered list (rather than separate arm/cancel buffers)
/// so the calendar sees requests in exactly the order the endpoint issued
/// them — sequence numbers, and therefore FIFO tie-breaks, stay
/// deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerCmd {
    /// Fire-and-forget timer at `(at, token)`; never cancelled.
    Set(Time, u64),
    /// Arm (or re-arm, replacing any previous arming of the same token)
    /// a cancellable timer at `(at, token)`. A re-arm to a deadline no
    /// earlier than the armed one moves that timer in place; otherwise
    /// the armed one is cancelled and a new one scheduled. Either way the
    /// calendar pops as if it had been cancelled and rescheduled.
    Arm(Time, u64),
    /// Cancel the armed timer for `token`, if any.
    Cancel(u64),
}

/// A mute hint: `(token, Some(period))` mutes the armed timer of `token`,
/// `(token, None)` lifts the mute (see [`EndpointCtx::mute_timer`]).
pub type MuteHint = (u64, Option<TimeDelta>);

/// Output channel endpoints write into during a callback.
///
/// `send` moves the packet straight into the [`PacketArena`] and stages
/// only its [`PacketId`] — from the first callback on, a packet's bytes
/// live in exactly one place until release.
pub struct EndpointCtx<'a> {
    /// Current virtual time.
    pub now: Time,
    arena: &'a mut PacketArena,
    tx: &'a mut Vec<PacketId>,
    timers: &'a mut Vec<TimerCmd>,
    app: &'a mut Vec<AppEvent>,
    /// Where mute hints go; `None` drops them.
    mutes: Option<&'a mut Vec<MuteHint>>,
}

impl<'a> EndpointCtx<'a> {
    /// Builds a context around the host's scratch buffers and the packet
    /// arena. It drops mute hints, so every timer tick is delivered.
    pub fn new(
        now: Time,
        arena: &'a mut PacketArena,
        tx: &'a mut Vec<PacketId>,
        timers: &'a mut Vec<TimerCmd>,
        app: &'a mut Vec<AppEvent>,
    ) -> Self {
        EndpointCtx {
            now,
            arena,
            tx,
            timers,
            app,
            mutes: None,
        }
    }

    /// [`EndpointCtx::new`] that also collects mute hints into `mutes`.
    pub(crate) fn with_mutes(self, mutes: &'a mut Vec<MuteHint>) -> Self {
        EndpointCtx {
            mutes: Some(mutes),
            ..self
        }
    }

    /// Transmits a packet through the host NIC: the packet enters the
    /// arena here and travels as an id from now on.
    pub fn send(&mut self, pkt: Packet) {
        self.tx.push(self.arena.acquire(pkt));
    }

    /// Requests a fire-and-forget timer callback at absolute time `at` with
    /// an opaque token.
    ///
    /// These timers are not cancellable; endpoints must treat stale tokens
    /// as no-ops. For timers that are routinely superseded (RTO re-arms,
    /// pacing chains) prefer [`arm_timer`](Self::arm_timer), which replaces
    /// instead of stacking stale entries in the calendar.
    pub fn set_timer(&mut self, at: Time, token: u64) {
        self.timers.push(TimerCmd::Set(at, token));
    }

    /// Arms a cancellable timer for `token` at absolute time `at`,
    /// *replacing* any previously armed timer with the same token
    /// (cancel-and-replace semantics; see [`TimerCmd::Arm`] for how the
    /// calendar keeps one entry). At most one armed timer exists per
    /// `(endpoint host, token)` at a time, and an endpoint may hold at most
    /// [`MAX_ARMED_KINDS`](crate::host::MAX_ARMED_KINDS) kinds armed at
    /// once. A timer still armed when the endpoint finishes is not
    /// cancelled: it fires into nobody.
    pub fn arm_timer(&mut self, at: Time, token: u64) {
        self.timers.push(TimerCmd::Arm(at, token));
    }

    /// Cancels the armed timer for `token`. A no-op when none is armed —
    /// cancelling an already-fired or never-armed token is safe.
    pub fn cancel_timer(&mut self, token: u64) {
        self.timers.push(TimerCmd::Cancel(token));
    }

    /// Hints that the armed timer of `token` is idle: with `Some(period)`,
    /// each of its pops would only re-arm it `period` later, so the
    /// calendar may do that itself without calling the endpoint; `None`
    /// withdraws the hint, and must come before anything makes the next
    /// pop do more. The hint applies, after this callback's timer
    /// commands, to the timer the token then has armed; re-arming or
    /// cancelling the token ends it. A hint changes who re-arms the timer,
    /// never what happens, so a driver may drop it.
    pub fn mute_timer(&mut self, token: u64, period: Option<TimeDelta>) {
        if let Some(mutes) = &mut self.mutes {
            mutes.push((token, period));
        }
    }

    /// Raises an application event.
    pub fn emit(&mut self, ev: AppEvent) {
        self.app.push(ev);
    }
}

/// One half (sender or receiver) of a transport protocol instance.
/// `Send` is a supertrait so a whole simulation — hosts hold their live
/// endpoints as `Box<dyn Endpoint>` — can be constructed on one thread and
/// driven on a worker thread by the experiment orchestrator. Endpoints are
/// plain state machines over owned data, so this costs implementors nothing.
pub trait Endpoint: Send {
    /// Called once when the flow starts (sender) or is registered (receiver).
    fn activate(&mut self, ctx: &mut EndpointCtx);

    /// Called for every packet addressed to this flow at this host.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx);

    /// Called when a previously requested timer fires.
    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx);

    /// True once the endpoint has no further work. After the callback that
    /// first reports it, the host applies that callback's commands, drops
    /// the endpoint and never calls it again.
    fn finished(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::CTRL_WIRE;
    use crate::packet::{Payload, TrafficClass};

    struct Echo {
        done: bool,
    }

    impl Endpoint for Echo {
        fn activate(&mut self, ctx: &mut EndpointCtx) {
            ctx.set_timer(ctx.now + flexpass_simcore::time::TimeDelta::micros(1), 7);
        }
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
            ctx.send(Packet::new(
                pkt.flow,
                pkt.dst,
                pkt.src,
                CTRL_WIRE,
                TrafficClass::NewCtrl,
                Payload::CreditReq { pkts: 0 },
            ));
        }
        fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
            assert_eq!(token, 7);
            self.done = true;
            ctx.emit(AppEvent::SenderDone {
                flow: 1,
                stats: TxStats::default(),
            });
        }
        fn finished(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn ctx_collects_outputs() {
        let mut arena = PacketArena::new();
        let mut tx_ids = Vec::new();
        let mut timers = Vec::new();
        let mut app = Vec::new();
        let mut ep = Echo { done: false };
        {
            let mut ctx =
                EndpointCtx::new(Time::ZERO, &mut arena, &mut tx_ids, &mut timers, &mut app);
            ep.activate(&mut ctx);
            let pkt = Packet::new(
                1,
                0,
                1,
                CTRL_WIRE,
                TrafficClass::NewCtrl,
                Payload::CreditReq { pkts: 0 },
            );
            ep.on_packet(&pkt, &mut ctx);
            ep.on_timer(7, &mut ctx);
        }
        assert_eq!(timers.len(), 1);
        assert!(matches!(timers[0], TimerCmd::Set(_, 7)));
        let mut tx = Vec::new();
        arena.drain_into(&mut tx_ids, &mut tx);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].src, 1);
        assert_eq!(tx[0].dst, 0);
        assert_eq!(app.len(), 1);
        assert!(ep.finished());
        assert_eq!(arena.live(), 0);
    }
}
