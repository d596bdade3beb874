//! ExpressPass [Cho 2017]: receiver-driven credit-scheduled transport.
//!
//! The receiver paces small credit packets towards the sender; every credit
//! that survives the network's rate-limited credit queues (Q0) triggers one
//! data packet on the reverse (symmetric) path. Credit drops at the shaped
//! queues are the congestion signal: the receiver runs a feedback loop that
//! probes for the highest credit rate whose loss stays under a target.
//!
//! This implementation follows the SIGCOMM '17 algorithm: per-update-period
//! credit-loss measurement, binary-search increase `w ← (w + w_max)/2`, and
//! multiplicative decrease on excess loss. FlexPass reuses the receiver's
//! [`CreditLoop`] for its proactive sub-flow with the credit rate scaled by
//! `w_q`.

use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, TimeDelta};
use flexpass_simnet::consts::{packets_for, DATA_WIRE};
use flexpass_simnet::endpoint::{AppEvent, Endpoint, EndpointCtx, TxStats};
use flexpass_simnet::hooks;
use flexpass_simnet::packet::{
    AckInfo, CreditInfo, DataInfo, FlowId, FlowSpec, Packet, Payload, TrafficClass,
};
use flexpass_simnet::sim::{timer_kind, timer_token, NetEnv, TransportFactory};
use flexpass_simnet::trace::TraceEvent;

use crate::common::{data_packet, DctcpWindow, RtoTimer, RxTail, Scoreboard, MIN_RTO};
use crate::dctcp::{G, INIT_CWND, MAX_CWND};

/// Timer kind: receiver credit pacing tick.
const TK_CREDIT: u16 = 3;
/// Timer kind: receiver feedback update.
const TK_FEEDBACK: u16 = 4;
/// Timer kind: sender retransmission / re-request backstop.
const TK_RTO: u16 = 5;
/// Timer kind: receiver linger teardown.
const TK_LINGER: u16 = 6;

/// The credit-rate knobs the evaluation turns; every other feedback
/// parameter is a constant of this module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpConfig {
    /// Fraction of the host line rate the triggered data may reach (1.0 for
    /// plain ExpressPass; `w_q` under FlexPass / oWF).
    pub max_rate_frac: f64,
    /// Initial credit rate as a fraction of the maximum.
    pub init_rate_frac: f64,
}

impl Default for EpConfig {
    fn default() -> Self {
        EpConfig {
            max_rate_frac: 1.0,
            init_rate_frac: 0.5,
        }
    }
}

/// Target credit-loss rate of the feedback loop.
pub const TARGET_LOSS: f64 = 0.125;
/// Initial binary-search weight.
pub const W_INIT: f64 = 0.5;
/// Minimum binary-search weight.
pub const W_MIN: f64 = 0.01;
/// Minimum credit rate as a fraction of the maximum.
pub const MIN_RATE_FRAC: f64 = 0.01;
/// Credit pacing jitter: each interval is scaled by a uniform factor in
/// `[1 - j/2, 1 + j/2]`. Without jitter, equal-rate flows phase-lock at
/// the shaped credit queues and drops concentrate on the same flows
/// forever (the simulator is deterministic; real ExpressPass jitters
/// credit pacing for the same reason).
pub const PACING_JITTER: f64 = 0.5;
/// Maximum rate increase per feedback update, in bps of triggered data
/// (the paper sets S_max to 50 Mbps of credits ~ 1 Gbps of data).
/// Without it the binary-search increase overshoots wildly whenever the
/// fair share is far below the per-flow maximum (e.g. high incast).
pub const MAX_STEP_BPS: f64 = 1e9;

/// Accounts for (and traces) a credit of `flow` that arrived with nothing
/// it could trigger.
pub fn waste_credit(stats: &mut TxStats, flow: FlowId) {
    stats.credits_wasted += 1;
    hooks::record(|t_ns| TraceEvent::CreditWasted { t_ns, flow });
}

/// ExpressPass sender: transmits one data packet per received credit.
///
/// A layered sender ([`layered`](Self::layered), the Layering scheme of
/// §6.2 [Wei 2019]) also keeps a DCTCP window over its data, which is
/// ECN-capable so the window sees marks: a credit that arrives while the
/// window is full is wasted, like one with nothing left to send. That
/// window throttles even when no legacy traffic competes.
pub struct EpSender {
    spec: FlowSpec,
    sb: Scoreboard,
    win: Option<DctcpWindow>,
    rto: RtoTimer,
    stats: TxStats,
    done: bool,
}

impl EpSender {
    /// Creates a sender for `spec`.
    pub fn new(spec: FlowSpec, _env: &NetEnv) -> Self {
        EpSender {
            spec,
            sb: Scoreboard::new(packets_for(spec.size).get()),
            win: None,
            rto: RtoTimer::new(spec.id, TK_RTO),
            stats: TxStats::default(),
            done: false,
        }
    }

    /// Creates a sender for `spec` whose credits are gated by a DCTCP
    /// window.
    pub fn layered(spec: FlowSpec, env: &NetEnv) -> Self {
        EpSender {
            win: Some(DctcpWindow::new(INIT_CWND, G, MAX_CWND)),
            ..EpSender::new(spec, env)
        }
    }

    /// Transmission statistics so far.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    fn send_request(&mut self, ctx: &mut EndpointCtx) {
        let pkts = self.sb.total();
        ctx.send(Packet::to_receiver(
            &self.spec,
            TrafficClass::NewCtrl,
            Payload::CreditReq { pkts },
        ));
    }

    fn update_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto.update(ctx, !self.done, MIN_RTO);
    }

    fn on_credit(&mut self, credit: CreditInfo, ctx: &mut EndpointCtx) {
        self.stats.credits_received += 1;
        // A fresh credit carries a lost packet first, then new data, unless
        // the window is full.
        let picked = match &self.win {
            Some(w) if self.sb.in_flight() >= w.cwnd_pkts() => None,
            _ => self.sb.pick(),
        };
        match picked {
            Some((seq, retx)) => {
                let class = TrafficClass::NewData;
                let pkt = data_packet(&self.spec, class, seq, credit.idx, retx, &mut self.stats);
                ctx.send(if self.win.is_some() { pkt.ecn() } else { pkt });
                self.update_rto(ctx);
            }
            None => waste_credit(&mut self.stats, self.spec.id),
        }
    }

    fn on_ack(&mut self, ack: &AckInfo, ctx: &mut EndpointCtx) {
        // A third duplicate marks a loss; the next credit carries it.
        let (newly, marked) = self.sb.read_ack(ack);
        let snd_nxt = self.sb.next_pending();
        if newly > 0 {
            self.rto.progress(ctx.now);
            if let Some(win) = &mut self.win {
                win.on_ack(newly, ack.acked_flow_seq, ack.ece, snd_nxt);
            }
        } else if let (Some(win), Some(_)) = (&mut self.win, marked) {
            win.on_loss(ack.cum, snd_nxt);
        }
        if self.sb.all_acked() && !self.done {
            self.done = true;
            ctx.emit(AppEvent::SenderDone {
                flow: self.spec.id,
                stats: self.stats,
            });
        }
        self.update_rto(ctx);
    }

    fn on_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto.fired();
        // No progress for a full RTO: presume in-flight data lost and credits
        // stalled; re-request credits. Only count a timeout when data was
        // actually outstanding — a credit-starved idle sender re-requesting
        // credits is not a loss-recovery timeout.
        self.rto.back_off(ctx.now);
        if self.sb.lose_outstanding() {
            self.stats.timeouts += 1;
        }
        if let Some(win) = &mut self.win {
            win.on_timeout(self.sb.next_pending());
        }
        self.send_request(ctx);
        self.update_rto(ctx);
    }
}

impl Endpoint for EpSender {
    fn activate(&mut self, ctx: &mut EndpointCtx) {
        self.rto.progress(ctx.now);
        // Proactive transports wait one RTT for credits (no unscheduled
        // packets in plain ExpressPass).
        self.send_request(ctx);
        self.update_rto(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        match pkt.payload {
            Payload::Credit(c) => self.on_credit(c, ctx),
            Payload::Ack(a) => self.on_ack(&a, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        if timer_kind(token) == TK_RTO {
            self.on_rto(ctx);
        }
    }

    fn finished(&self) -> bool {
        // The RTO is cancelled on completion — no stale fire to wait out.
        self.done
    }
}

/// Fewest credits a period must have sent for its feedback update to run.
const MIN_CREDIT_SAMPLE: u64 = 8;

/// The ExpressPass credit-rate feedback engine, shared between the plain
/// ExpressPass receiver and the FlexPass proactive sub-flow.
///
/// Rates are expressed as the *data* rate the credits trigger (bps); the
/// credit packets themselves are `CTRL_WIRE / DATA_WIRE` times smaller.
#[derive(Clone, Debug, PartialEq)]
pub struct CreditEngine {
    max_rate: f64,
    cur_rate: f64,
    w: f64,
    prev_increase: bool,
    rng: SimRng,
    /// Credits sent during the current observation period.
    pub credits_sent_period: u64,
    /// Credit-triggered data packets received during the period.
    pub data_rcvd_period: u64,
}

impl CreditEngine {
    /// Creates an engine whose maximum triggered-data rate is
    /// `host_rate * cfg.max_rate_frac`. `seed` (typically the flow id)
    /// decorrelates pacing jitter across flows.
    pub fn new(cfg: EpConfig, env: &NetEnv, seed: u64) -> Self {
        let max_rate = env.host_rate.as_bps() as f64 * cfg.max_rate_frac;
        CreditEngine {
            max_rate,
            cur_rate: max_rate * cfg.init_rate_frac,
            w: W_INIT,
            prev_increase: false,
            rng: SimRng::new(seed ^ 0xC0DE_CAFE),
            credits_sent_period: 0,
            data_rcvd_period: 0,
        }
    }

    /// Current credit rate, as the data rate it triggers (bps).
    pub fn rate(&self) -> f64 {
        self.cur_rate
    }

    /// Interval until the next credit at the current rate, with pacing
    /// jitter applied.
    ///
    /// The base interval is an exact integer serialization time; only the
    /// jitter factor goes through the contained [`TimeDelta::mul_f64`]
    /// scaling, keeping float arithmetic out of the time domain.
    pub fn credit_interval(&mut self) -> TimeDelta {
        let rate = Rate::from_bps((self.cur_rate.round() as u64).max(1));
        let base = rate.serialize_wire(DATA_WIRE);
        let factor = 1.0 + PACING_JITTER * (self.rng.next_f64() - 0.5);
        base.mul_f64(factor)
    }

    /// True while this period has sent too few credits for an update.
    fn sample_short(&self) -> bool {
        self.credits_sent_period < MIN_CREDIT_SAMPLE
    }

    /// Runs one feedback update over the counters accumulated since the
    /// last call (SIGCOMM '17 algorithm: binary-search increase under the
    /// target loss, multiplicative decrease above it); returns whether it
    /// ran. Updates are skipped (counters keep accumulating, nothing
    /// changes) until at least a handful of credits were sent: with
    /// per-RTT update periods and a low current rate, a 1-credit sample
    /// would read as 0 % or 100 % loss depending on pipeline phase and pin
    /// the rate at the minimum.
    pub fn feedback_update(&mut self) -> bool {
        if self.sample_short() {
            return false;
        }
        let delivered = self.data_rcvd_period.min(self.credits_sent_period);
        let loss = 1.0 - delivered as f64 / self.credits_sent_period as f64;
        let w_max = 0.5;
        if loss <= TARGET_LOSS {
            if self.prev_increase {
                self.w = (self.w + w_max) / 2.0;
            }
            self.prev_increase = true;
            let target =
                (1.0 - self.w) * self.cur_rate + self.w * self.max_rate * (1.0 + TARGET_LOSS);
            // S_max: bound the per-update increase.
            self.cur_rate = target.min(self.cur_rate + MAX_STEP_BPS);
        } else {
            self.cur_rate *= (1.0 - loss) * (1.0 + TARGET_LOSS);
            self.w = (self.w / 2.0).max(W_MIN);
            self.prev_increase = false;
        }
        self.cur_rate = self
            .cur_rate
            .clamp(self.max_rate * MIN_RATE_FRAC, self.max_rate);
        self.credits_sent_period = 0;
        self.data_rcvd_period = 0;
        true
    }
}

/// The receiver half of the credit loop: paces credits towards the sender
/// at the [`CreditEngine`]'s rate and lets the engine re-tune that rate once
/// per update period. Shared by the ExpressPass receiver and the FlexPass
/// proactive sub-flow, which differ only in the engine's configuration.
///
/// A loop goes idle → crediting → halted. [`start`](Self::start) arms one
/// pacing tick and one feedback tick, each re-arming itself when it fires;
/// [`halt`](Self::halt) cancels both, and the owner never restarts a
/// completed flow. So a tick only ever fires while the loop is crediting.
///
/// Under incast most feedback ticks find the sample short and do nothing
/// but re-arm. After one such tick the loop mutes the tick
/// ([`EndpointCtx::mute_timer`]) so the calendar re-arms it alone, and
/// unmutes it only on the credit that completes the sample, the one thing
/// that makes the next tick act.
#[derive(Clone, Debug, PartialEq)]
pub struct CreditLoop {
    spec: FlowSpec,
    engine: CreditEngine,
    /// Index of the next credit; also the number sent so far.
    credit_idx: u32,
    crediting: bool,
    /// The feedback tick is muted: the sample is short, so every pop would
    /// only re-arm the tick, and the calendar does that itself.
    muted: bool,
    update_period: TimeDelta,
    credit_token: u64,
    feedback_token: u64,
}

impl CreditLoop {
    /// Creates an idle loop for `spec` whose pacing and feedback timers use
    /// the owner's timer kinds `credit_kind` and `feedback_kind`.
    pub fn new(
        spec: &FlowSpec,
        cfg: EpConfig,
        env: &NetEnv,
        credit_kind: u16,
        feedback_kind: u16,
    ) -> Self {
        CreditLoop {
            spec: *spec,
            engine: CreditEngine::new(cfg, env, spec.id),
            credit_idx: 0,
            crediting: false,
            muted: false,
            update_period: env.base_rtt.max(TimeDelta::micros(20)),
            credit_token: timer_token(spec.id, credit_kind),
            feedback_token: timer_token(spec.id, feedback_kind),
        }
    }

    /// Current credit rate (as the data rate it would trigger, bps).
    pub fn rate(&self) -> f64 {
        self.engine.rate()
    }

    /// Total credits sent.
    pub fn credits_sent(&self) -> u64 {
        u64::from(self.credit_idx)
    }

    /// Starts issuing credits: arms the pacing and the feedback tick. A
    /// repeat request while crediting arms nothing.
    pub fn start(&mut self, ctx: &mut EndpointCtx) {
        if self.crediting {
            return;
        }
        self.crediting = true;
        ctx.arm_timer(ctx.now, self.credit_token);
        self.arm_feedback(ctx);
    }

    fn arm_feedback(&mut self, ctx: &mut EndpointCtx) {
        ctx.arm_timer(ctx.now + self.update_period, self.feedback_token);
        self.muted = false;
    }

    /// The flow completed: cancels both ticks.
    pub fn halt(&mut self, ctx: &mut EndpointCtx) {
        self.crediting = false;
        self.muted = false;
        ctx.cancel_timer(self.credit_token);
        ctx.cancel_timer(self.feedback_token);
    }

    /// Counts one credit-triggered data packet towards this period's
    /// credit-loss measurement.
    pub fn on_data(&mut self) {
        self.engine.data_rcvd_period += 1;
    }

    /// Timer dispatch for the pacing and feedback ticks; other tokens are
    /// ignored.
    pub fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        if token == self.credit_token {
            let idx = self.credit_idx;
            self.credit_idx += 1;
            self.engine.credits_sent_period += 1;
            if self.muted && !self.engine.sample_short() {
                ctx.mute_timer(self.feedback_token, None);
                self.muted = false;
            }
            hooks::record(|t_ns| TraceEvent::CreditSent {
                t_ns,
                flow: self.spec.id,
                idx: u64::from(idx),
            });
            ctx.send(Packet::to_sender(
                &self.spec,
                TrafficClass::Credit,
                Payload::Credit(CreditInfo { idx }),
            ));
            ctx.arm_timer(ctx.now + self.engine.credit_interval(), token);
        } else if token == self.feedback_token {
            let acted = self.engine.feedback_update();
            self.arm_feedback(ctx);
            if !acted {
                ctx.mute_timer(token, Some(self.update_period));
                self.muted = true;
            }
        }
    }
}

/// ExpressPass receiver: paces credits under feedback control, reassembles
/// data, and acknowledges every packet.
pub struct EpReceiver {
    tail: RxTail,
    credit: CreditLoop,
}

impl EpReceiver {
    /// Creates a receiver for `spec` whose credit loop runs under `cfg`.
    pub fn new(spec: FlowSpec, cfg: EpConfig, env: &NetEnv) -> Self {
        EpReceiver {
            tail: RxTail::new(&spec, TK_LINGER),
            credit: CreditLoop::new(&spec, cfg, env, TK_CREDIT, TK_FEEDBACK),
        }
    }

    /// Current credit rate (as the data rate it would trigger, bps).
    pub fn credit_rate(&self) -> f64 {
        self.credit.rate()
    }

    /// Total credits sent (introspection).
    pub fn credits_sent(&self) -> u64 {
        self.credit.credits_sent()
    }

    fn on_data(&mut self, pkt: &Packet, d: DataInfo, ctx: &mut EndpointCtx) {
        self.credit.on_data();
        self.tail.on_data(pkt, d, TrafficClass::NewCtrl, ctx);
        if self.tail.completing() {
            self.credit.halt(ctx);
        }
        self.tail.finish_if_complete(ctx);
    }
}

impl Endpoint for EpReceiver {
    fn activate(&mut self, _ctx: &mut EndpointCtx) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        match pkt.payload {
            Payload::CreditReq { .. } if !self.tail.completed() => self.credit.start(ctx),
            Payload::Data(d) => self.on_data(pkt, d, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        self.credit.on_timer(token, ctx);
        self.tail.on_timer(token);
    }

    fn finished(&self) -> bool {
        self.tail.torn_down()
    }
}

/// Factory producing plain ExpressPass flows.
#[derive(Default)]
pub struct ExpressPassFactory;

impl ExpressPassFactory {
    /// Factory with default parameters (full-rate credit allocation).
    pub fn new() -> Self {
        ExpressPassFactory
    }
}

impl TransportFactory for ExpressPassFactory {
    fn sender(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(EpSender::new(*flow, env))
    }
    fn receiver(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(EpReceiver::new(*flow, EpConfig::default(), env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simcore::time::Time;
    use flexpass_simcore::units::{Bytes, WireBytes};
    use flexpass_simnet::consts::{CREDIT_RATE_FULL_FRACTION, CTRL_WIRE};
    use flexpass_simnet::loopback::{Driver, ENV};
    use flexpass_simnet::packet::Subflow;
    use flexpass_simnet::port::{PortConfig, QueueSched};
    use flexpass_simnet::queue::QueueConfig;
    use flexpass_simnet::sim::{NetObserver, Sim};
    use flexpass_simnet::switch::{ClassMap, SwitchProfile};
    use flexpass_simnet::topology::Topology;
    use proptest::prelude::*;

    /// An ExpressPass-only profile: Q0 credits shaped to the full credit
    /// fraction, Q1 for data/control.
    fn ep_profile(rate: Rate) -> SwitchProfile {
        let credit_rate = rate.scale(CREDIT_RATE_FULL_FRACTION);
        SwitchProfile {
            port: PortConfig {
                rate,
                queues: vec![
                    (
                        QueueConfig::capped(WireBytes::new(1_000)),
                        QueueSched::strict(0).shaped(credit_rate, CTRL_WIRE * 2),
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
            shared_buffer: Some((WireBytes::new(4_500_000), 0.25)),
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

    fn credit(spec: &FlowSpec, idx: u32) -> Packet {
        Packet::to_sender(
            spec,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx }),
        )
    }

    struct Fct {
        done: Vec<(u64, Time)>,
    }

    impl NetObserver for Fct {
        fn on_app_event(&mut self, ev: &AppEvent, now: Time) {
            if let AppEvent::FlowCompleted { flow, .. } = ev {
                self.done.push((*flow, now));
            }
        }
    }

    #[test]
    fn single_flow_reaches_near_line_rate() {
        let p = ep_profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(ExpressPassFactory::new()),
            Fct { done: vec![] },
        );
        // 5 MB: ideal = 5e6/1460 pkts * 1538B * 8 / 10G = 4.2 ms; credit
        // ramp-up adds some.
        sim.schedule_flow(flow(1, 0, 1, 5_000_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(20));
        let fct = sim.observer.done[0].1.as_millis_f64();
        assert!(fct < 6.5, "EP single-flow FCT {fct} ms too slow");
    }

    #[test]
    fn two_flows_converge_to_fair_share() {
        let p = ep_profile(Rate::from_gbps(10));
        let topo = Topology::star(3, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(ExpressPassFactory::new()),
            Fct { done: vec![] },
        );
        sim.schedule_flow(flow(1, 0, 2, 4_000_000, Time::ZERO));
        sim.schedule_flow(flow(2, 1, 2, 4_000_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(40));
        let t1 = sim.observer.done[0].1.as_millis_f64();
        let t2 = sim.observer.done[1].1.as_millis_f64();
        // The shared credit shaper at the receiver's switch port splits
        // credits roughly evenly, but the per-flow binary search makes the
        // completion-time gap a noisy fairness proxy: sweeping the pacing
        // jitter seeds (flow ids) gives gaps of 0.23-0.47, so assert the
        // robust bound rather than a value tuned to one lucky seed.
        assert!((t1 - t2).abs() / t1.max(t2) < 0.5, "t1 {t1} t2 {t2}");
    }

    #[test]
    fn incast_no_timeouts() {
        // The paper's headline property: credit scheduling avoids incast
        // buffer overflow entirely, so no sender ever times out.
        let p = ep_profile(Rate::from_gbps(10));
        let topo = Topology::star(9, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);

        struct TimeoutCount {
            timeouts: u64,
            done: usize,
        }
        impl NetObserver for TimeoutCount {
            fn on_app_event(&mut self, ev: &AppEvent, _now: Time) {
                match ev {
                    AppEvent::SenderDone { stats, .. } => self.timeouts += stats.timeouts,
                    AppEvent::FlowCompleted { .. } => self.done += 1,
                }
            }
        }

        let mut sim = Sim::new(
            topo,
            Box::new(ExpressPassFactory::new()),
            TimeoutCount {
                timeouts: 0,
                done: 0,
            },
        );
        for i in 0..32u64 {
            sim.schedule_flow(flow(i, (i % 8) as usize, 8, 64_000, Time::ZERO));
        }
        sim.run_to_completion(TimeDelta::millis(20));
        assert_eq!(sim.observer.done, 32);
        assert_eq!(sim.observer.timeouts, 0, "ExpressPass must not time out");
    }

    #[test]
    fn credit_feedback_rate_rises_without_loss() {
        let mut eng = CreditEngine::new(EpConfig::default(), &ENV, 1);
        let initial = eng.rate();
        // Simulate lossless periods: every credit produces data.
        for _ in 0..10 {
            eng.credits_sent_period = 100;
            eng.data_rcvd_period = 100;
            eng.feedback_update();
        }
        assert!(eng.rate() > initial * 1.5);
        assert!(eng.rate() <= 10e9 * 1.13);
    }

    #[test]
    fn credit_feedback_rate_drops_on_loss() {
        let mut eng = CreditEngine::new(EpConfig::default(), &ENV, 2);
        eng.cur_rate = 10e9;
        eng.credits_sent_period = 100;
        eng.data_rcvd_period = 50;
        eng.feedback_update();
        assert!(eng.rate() < 10e9 * 0.6, "rate {}", eng.rate());
    }

    #[test]
    fn lost_data_recovered_without_stall() {
        // Force drops by shrinking the data queue drastically; EP should
        // still finish via dupack-triggered retransmission on credits.
        let mut p = ep_profile(Rate::from_gbps(10));
        p.port.queues[1].0 = QueueConfig::capped(WireBytes::new(10_000));
        let topo = Topology::star(3, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(ExpressPassFactory::new()),
            Fct { done: vec![] },
        );
        sim.schedule_flow(flow(1, 0, 2, 500_000, Time::ZERO));
        sim.schedule_flow(flow(2, 1, 2, 500_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(50));
        assert_eq!(sim.observer.done.len(), 2);
    }

    #[test]
    fn wasted_credits_counted_for_tiny_flow() {
        let p = ep_profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);

        struct Waste {
            wasted: u64,
        }
        impl NetObserver for Waste {
            fn on_app_event(&mut self, ev: &AppEvent, _now: Time) {
                if let AppEvent::SenderDone { stats, .. } = ev {
                    self.wasted += stats.credits_wasted;
                }
            }
        }
        let mut sim = Sim::new(
            topo,
            Box::new(ExpressPassFactory::new()),
            Waste { wasted: 0 },
        );
        sim.schedule_flow(flow(1, 0, 1, 1460, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(10));
        // Credits beyond the single packet are wasted until the ACK returns.
        assert!(sim.observer.wasted > 0);
    }

    /// A credit request arms one pacing tick and one feedback tick, a
    /// repeat request arms nothing, and the pacing tick credits and
    /// re-arms itself.
    #[test]
    fn credit_loop_start_arms_one_chain() {
        use flexpass_simnet::endpoint::TimerCmd::Arm;

        let spec = flow(7, 0, 1, 100 * 1460, Time::ZERO);
        let (credit, feedback) = (timer_token(7, TK_CREDIT), timer_token(7, TK_FEEDBACK));
        let mut cl = CreditLoop::new(&spec, EpConfig::default(), &ENV, TK_CREDIT, TK_FEEDBACK);
        let mut drv = Driver::default();
        let us = Time::from_micros;

        drv.call(us(0), |ctx| cl.start(ctx));
        assert_eq!(drv.out.timers, [Arm(us(0), credit), Arm(us(20), feedback)]);
        assert!(drv.sent.is_empty());
        // A second request while crediting arms nothing.
        drv.clear();
        drv.call(us(0), |ctx| cl.start(ctx));
        assert!(drv.out.timers.is_empty());
        // The live chain sends a credit and re-arms itself.
        drv.call(us(0), |ctx| cl.on_timer(credit, ctx));
        let cmds = &drv.out.timers;
        assert_eq!((cmds.len(), drv.sent.len()), (1, 1));
        assert!(matches!(cmds[0], Arm(at, tok) if tok == credit && at > us(0)));
        assert_eq!(cl.credits_sent(), 1);
    }

    /// The promise a mute makes: while the loop holds its feedback tick
    /// muted, delivering that tick would only re-arm it. Seeded sequences
    /// of start, halt, credit ticks, feedback ticks and data drive a
    /// loop, and the calendar's side is modelled from what the loop
    /// issues: a tick is in the calendar from its arming until it fires or
    /// is cancelled, a mute hint applies after the callback's commands to
    /// the tick then armed, and re-arming or cancelling ends the mute. A
    /// tick the calendar holds muted goes to a clone instead, which must
    /// emit exactly `[Arm(now + update_period)]`, send nothing, and end
    /// equal to the loop.
    #[test]
    fn a_muted_feedback_tick_would_only_rearm() {
        use flexpass_simnet::endpoint::TimerCmd;

        let (mut muted_ticks, mut acting_ticks) = (0u64, 0u64);
        for seed in 0..64u64 {
            let mut rng = SimRng::new(seed);
            let spec = flow(seed, 0, 1, 100 * 1460, Time::ZERO);
            let (credit, feedback) = (timer_token(seed, TK_CREDIT), timer_token(seed, TK_FEEDBACK));
            let mut cl = CreditLoop::new(&spec, EpConfig::default(), &ENV, TK_CREDIT, TK_FEEDBACK);
            let mut drv = Driver::default();
            // The calendar: which ticks are armed, and the feedback mute.
            let (mut credit_armed, mut feedback_armed, mut muted) = (false, false, false);
            // Credit ticks per feedback tick, around the sample of 8.
            let credit_weight = 1 + rng.next_below(12);
            let (mut now, mut halted) = (Time::ZERO, false);
            for step in 0..1_000 {
                now += TimeDelta::nanos(rng.next_below(4_000));
                let op = if step == 0 { 0 } else { rng.next_below(28) };
                if (3..=6).contains(&op) && feedback_armed && muted {
                    let mut clone = cl.clone();
                    drv.clear();
                    drv.call(now, |ctx| clone.on_timer(feedback, ctx));
                    let rearm = TimerCmd::Arm(now + cl.update_period, feedback);
                    assert_eq!(
                        (drv.out.timers.as_slice(), drv.sent.len()),
                        (&[rearm][..], 0)
                    );
                    assert!(clone == cl, "seed {seed} step {step}: a muted tick acted");
                    muted_ticks += 1;
                    continue;
                }
                drv.clear();
                drv.call(now, |ctx| match op {
                    0 => cl.start(ctx),
                    2 if rng.chance(0.05) => {
                        cl.halt(ctx);
                        halted = true;
                    }
                    3..=6 if feedback_armed => {
                        feedback_armed = false;
                        muted = false;
                        acting_ticks += u64::from(!cl.engine.sample_short());
                        cl.on_timer(feedback, ctx);
                    }
                    op if op >= 7 && op < 7 + credit_weight && credit_armed => {
                        credit_armed = false;
                        cl.on_timer(credit, ctx);
                    }
                    _ => cl.on_data(),
                });
                for cmd in &drv.out.timers {
                    match *cmd {
                        TimerCmd::Arm(_, t) if t == credit => credit_armed = true,
                        TimerCmd::Cancel(t) if t == credit => credit_armed = false,
                        TimerCmd::Arm(_, t) if t == feedback => {
                            (feedback_armed, muted) = (true, false)
                        }
                        TimerCmd::Cancel(t) if t == feedback => {
                            (feedback_armed, muted) = (false, false)
                        }
                        other => panic!("unexpected timer command {other:?}"),
                    }
                }
                for &(t, period) in &drv.out.mutes {
                    assert_eq!(
                        (t, period.is_none_or(|p| p == cl.update_period)),
                        (feedback, true)
                    );
                    muted = feedback_armed && period.is_some();
                }
                assert_eq!(cl.muted, muted, "seed {seed} step {step}");
                if halted {
                    break;
                }
            }
        }
        assert!(muted_ticks > 1_000, "only {muted_ticks} muted ticks");
        assert!(acting_ticks > 200, "only {acting_ticks} acting ticks");
    }

    #[test]
    fn window_gates_credits() {
        let spec = flow(3, 0, 1, 100 * 1460, Time::ZERO);
        let mut s = EpSender::layered(spec, &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| {
            s.activate(ctx);
            // Initial window is 10: the 11th credit is wasted.
            for i in 0..12 {
                s.on_packet(&credit(&spec, i), ctx);
            }
        });
        assert_eq!(s.stats.data_pkts, 10);
        assert_eq!(s.stats.credits_wasted, 2);
        let data = drv.sent.iter().filter(|p| p.is_data());
        assert_eq!(data.clone().count(), 10);
        // LY data must be ECN-capable (the window needs marks).
        assert!(data.clone().all(|p| p.ecn_capable));
    }

    #[test]
    fn acks_open_window_for_more_credits() {
        let spec = flow(3, 0, 1, 100 * 1460, Time::ZERO);
        let mut s = EpSender::layered(spec, &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| {
            s.activate(ctx);
            for i in 0..10 {
                s.on_packet(&credit(&spec, i), ctx);
            }
        });
        assert_eq!(s.sb.in_flight(), 10);
        let ack = AckInfo {
            sub: Subflow::Only,
            cum: 5,
            sack: [(0, 0); 3],
            sack_n: 0,
            ece: false,
            acked_flow_seq: 4,
        };
        let ack = Packet::to_sender(&spec, TrafficClass::NewCtrl, Payload::Ack(ack));
        drv.call(Time::ZERO, |ctx| s.on_packet(&ack, ctx));
        assert_eq!(s.sb.in_flight(), 5);
        drv.call(Time::ZERO, |ctx| s.on_packet(&credit(&spec, 10), ctx));
        assert_eq!(s.stats.data_pkts, 11);
    }

    /// Drives a plain or a layered sender over a random tape of credits,
    /// data delivered or dropped (each delivery answered by the cumulative
    /// and SACK ACK of the receiver's arrival set, ECN-echo at random) and
    /// RTO fires, then a lossless tail until the flow completes; checks
    /// the invariants of `sender_holds_credit_window_and_done_invariants`
    /// after every step.
    fn sender_tape(seed: u64, layered: bool) {
        use crate::common::SeqFrontier;

        let mut rng = SimRng::new(seed);
        let n = 1 + rng.next_below(80) as u32;
        let spec = flow(seed, 0, 1, u64::from(n) * 1460, Time::ZERO);
        let mut s = match layered {
            true => EpSender::layered(spec, &ENV),
            false => EpSender::new(spec, &ENV),
        };
        let rto = timer_token(spec.id, TK_RTO);
        let mut drv = Driver::default();
        // The receiver's arrivals and the data still on the wire.
        let (mut arrived, mut wire) = (SeqFrontier::default(), Vec::new());
        let (mut credits, mut data, mut dones) = (0u64, 0u64, 0u32);
        let (mut idx, mut now) = (0u32, Time::ZERO);
        for step in 0..5_000u32 {
            // The lossless tail: a credit, then every packet on the wire,
            // then an RTO when nothing is left to deliver.
            let tail = step >= 600;
            let op = match tail {
                false => rng.next_below(10),
                true if s.done => break,
                true if !wire.is_empty() => 4,
                true if step % 2 == 0 => 0,
                true => 8,
            };
            now += TimeDelta::micros(1 + rng.next_below(50));
            let before = s.sb.in_flight();
            drv.clear();
            drv.call(now, |ctx| match op {
                0..=3 => {
                    credits += 1;
                    s.on_packet(&credit(&spec, idx), ctx);
                    idx += 1;
                }
                4..=7 if !wire.is_empty() => {
                    let seq = wire.swap_remove(rng.index(wire.len()));
                    if tail || rng.chance(0.85) {
                        arrived.insert(seq);
                        let ack = arrived.ack(Subflow::Only, rng.chance(0.3), seq, seq);
                        let class = TrafficClass::NewCtrl;
                        s.on_packet(&Packet::to_sender(&spec, class, Payload::Ack(ack)), ctx);
                    }
                }
                8 if !s.done => s.on_timer(rto, ctx),
                _ => {}
            });
            for p in &drv.sent {
                if let Payload::Data(d) = p.payload {
                    data += 1;
                    prop_assert_eq!(p.ecn_capable, layered);
                    wire.push(d.flow_seq);
                }
            }
            prop_assert!(data <= credits, "{} data on {} credits", data, credits);
            if let (0..=3, Some(w)) = (op, &s.win) {
                let (after, cwnd) = (s.sb.in_flight(), w.cwnd_pkts());
                prop_assert!(
                    after <= cwnd.max(before),
                    "{} in flight, cwnd {}",
                    after,
                    cwnd
                );
            }
            for ev in &drv.out.app {
                prop_assert!(matches!(ev, AppEvent::SenderDone { .. }));
                prop_assert_eq!(arrived.cum(), n);
                dones += 1;
            }
        }
        prop_assert_eq!(dones, 1, "layered {}: {} packets", layered, n);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A plain and a layered sender over random tapes (see
        /// `sender_tape`): a data packet is only ever sent on a credit; a
        /// credit never takes the layered sender's in-flight count past
        /// its window (a loss may shrink the window under packets already
        /// in flight); data is ECN-capable exactly when layered; and
        /// `SenderDone` comes once, only after the receiver holds every
        /// packet.
        #[test]
        fn sender_holds_credit_window_and_done_invariants(seed in 0u64..100_000) {
            sender_tape(seed, false);
            sender_tape(seed, true);
        }
    }
}
