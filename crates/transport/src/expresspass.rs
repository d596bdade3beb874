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
//! multiplicative decrease on excess loss. FlexPass reuses this endpoint
//! pair for its proactive sub-flow with the credit rate scaled by `w_q`.

use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simnet::consts::{
    data_wire_bytes, packets_for, payload_of_packet, CTRL_WIRE, DATA_WIRE,
};
use flexpass_simnet::endpoint::{AppEvent, Endpoint, EndpointCtx, RxStats, TxStats};
use flexpass_simnet::packet::{
    AckInfo, CreditInfo, DataInfo, FlowSpec, Packet, Payload, Subflow, TrafficClass,
};
use flexpass_simnet::sim::{timer_kind, timer_token, NetEnv, TransportFactory};
use flexpass_simnet::trace;

use crate::common::{AckBuilder, PktState, Reassembly, RttEstimator};

/// Timer kind: receiver credit pacing tick.
const TK_CREDIT: u16 = 3;
/// Timer kind: receiver feedback update.
const TK_FEEDBACK: u16 = 4;
/// Timer kind: sender retransmission / re-request backstop.
const TK_RTO: u16 = 5;
/// Timer kind: receiver linger teardown.
const TK_LINGER: u16 = 6;

/// ExpressPass parameters.
#[derive(Clone, Copy, Debug)]
pub struct EpConfig {
    /// Traffic class for data packets.
    pub data_class: TrafficClass,
    /// Traffic class for control packets (requests, ACKs).
    pub ctrl_class: TrafficClass,
    /// Fraction of the host line rate the triggered data may reach (1.0 for
    /// plain ExpressPass; `w_q` under FlexPass / oWF).
    pub max_rate_frac: f64,
    /// Target credit-loss rate of the feedback loop.
    pub target_loss: f64,
    /// Initial binary-search weight.
    pub w_init: f64,
    /// Minimum binary-search weight.
    pub w_min: f64,
    /// Initial credit rate as a fraction of the maximum.
    pub init_rate_frac: f64,
    /// Minimum credit rate as a fraction of the maximum.
    pub min_rate_frac: f64,
    /// Credit pacing jitter: each interval is scaled by a uniform factor in
    /// `[1 - j/2, 1 + j/2]`. Without jitter, equal-rate flows phase-lock at
    /// the shaped credit queues and drops concentrate on the same flows
    /// forever (the simulator is deterministic; real ExpressPass jitters
    /// credit pacing for the same reason).
    pub pacing_jitter: f64,
    /// Maximum rate increase per feedback update, in bps of triggered data
    /// (the paper sets S_max to 50 Mbps of credits ~ 1 Gbps of data).
    /// Without it the binary-search increase overshoots wildly whenever the
    /// fair share is far below the per-flow maximum (e.g. high incast).
    pub max_step_bps: f64,
    /// Sender-side retransmission / credit re-request timeout floor.
    pub min_rto: TimeDelta,
    /// Receiver linger before teardown.
    pub linger: TimeDelta,
}

impl Default for EpConfig {
    fn default() -> Self {
        EpConfig {
            data_class: TrafficClass::NewData,
            ctrl_class: TrafficClass::NewCtrl,
            max_rate_frac: 1.0,
            target_loss: 0.125,
            w_init: 0.5,
            w_min: 0.01,
            init_rate_frac: 0.5,
            min_rate_frac: 0.01,
            pacing_jitter: 0.5,
            max_step_bps: 1e9,
            min_rto: TimeDelta::millis(4),
            linger: TimeDelta::millis(16),
        }
    }
}

/// ExpressPass sender: transmits one data packet per received credit.
pub struct EpSender {
    spec: FlowSpec,
    cfg: EpConfig,
    n: u32,
    states: Vec<PktState>,
    snd_una: u32,
    next_pending: u32,
    dupacks: u32,
    acked: u32,
    rtt: RttEstimator,
    last_progress: Time,
    /// Deadline of the currently armed (cancellable) RTO, if any.
    rto_deadline: Option<Time>,
    rto_backoff: u32,
    /// Packets currently marked `Lost`, kept sorted for O(log n) lookup.
    lost: std::collections::BTreeSet<u32>,
    stats: TxStats,
    done: bool,
}

impl EpSender {
    /// Creates a sender for `spec`.
    pub fn new(spec: FlowSpec, cfg: EpConfig, _env: &NetEnv) -> Self {
        let n = packets_for(spec.size).get();
        EpSender {
            spec,
            cfg,
            n,
            states: vec![PktState::Pending; n as usize],
            snd_una: 0,
            next_pending: 0,
            dupacks: 0,
            acked: 0,
            rtt: RttEstimator::new(cfg.min_rto),
            last_progress: Time::ZERO,
            rto_deadline: None,
            rto_backoff: 0,
            lost: std::collections::BTreeSet::new(),
            stats: TxStats::default(),
            done: false,
        }
    }

    /// Transmission statistics so far.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    fn send_request(&mut self, ctx: &mut EndpointCtx) {
        ctx.send(Packet::new(
            self.spec.id,
            self.spec.src,
            self.spec.dst,
            CTRL_WIRE,
            self.cfg.ctrl_class,
            Payload::CreditReq { pkts: self.n },
        ));
    }

    /// Keeps the armed RTO tracking `last_progress + rto()` via
    /// cancel-and-replace arming; cancelled outright once the flow is done.
    /// The deadline is a monotone maximum (fresh arms start at
    /// `now + rto()`, re-arms never move earlier), matching the envelope
    /// the old lazy fire-and-recheck chain converged to.
    fn update_rto(&mut self, ctx: &mut EndpointCtx) {
        let token = timer_token(self.spec.id, TK_RTO);
        if self.done {
            if self.rto_deadline.take().is_some() {
                ctx.cancel_timer(token);
            }
            return;
        }
        let at = match self.rto_deadline {
            Some(d) => (self.last_progress + self.rto()).max(d),
            None => ctx.now + self.rto(),
        };
        if self.rto_deadline != Some(at) {
            self.rto_deadline = Some(at);
            ctx.arm_timer(at, token);
        }
    }

    fn rto(&self) -> TimeDelta {
        self.rtt.rto() * (1u64 << self.rto_backoff.min(8))
    }

    /// Picks the packet a fresh credit should carry: lost first, then new.
    fn pick(&mut self) -> Option<u32> {
        if let Some(&seq) = self.lost.iter().next() {
            return Some(seq);
        }
        while self.next_pending < self.n
            && self.states[self.next_pending as usize] != PktState::Pending
        {
            self.next_pending += 1;
        }
        if self.next_pending < self.n {
            let s = self.next_pending;
            self.next_pending += 1;
            return Some(s);
        }
        None
    }

    fn on_credit(&mut self, credit: CreditInfo, ctx: &mut EndpointCtx) {
        self.stats.credits_received += 1;
        if self.done {
            self.stats.credits_wasted += 1;
            trace::credit_wasted(self.spec.id);
            ctx.send(Packet::new(
                self.spec.id,
                self.spec.src,
                self.spec.dst,
                CTRL_WIRE,
                self.cfg.ctrl_class,
                Payload::CreditStop,
            ));
            return;
        }
        match self.pick() {
            Some(seq) => {
                let retx = self.states[seq as usize] == PktState::Lost;
                self.lost.remove(&seq);
                self.states[seq as usize] = PktState::Sent;
                let pay = payload_of_packet(self.spec.size, seq);
                self.stats.data_pkts += 1;
                self.stats.data_bytes += pay.get();
                if retx {
                    self.stats.retx_pkts += 1;
                    self.stats.redundant_bytes += pay.get();
                    trace::retransmit(self.spec.id, seq);
                }
                ctx.send(Packet::new(
                    self.spec.id,
                    self.spec.src,
                    self.spec.dst,
                    data_wire_bytes(pay),
                    self.cfg.data_class,
                    Payload::Data(DataInfo {
                        flow_seq: seq,
                        sub_seq: credit.idx,
                        sub: Subflow::Only,
                        payload: pay,
                        retx,
                    }),
                ));
                self.update_rto(ctx);
            }
            None => {
                self.stats.credits_wasted += 1;
                trace::credit_wasted(self.spec.id);
            }
        }
    }

    fn mark_acked(&mut self, seq: u32, now: Time) -> u64 {
        let st = &mut self.states[seq as usize];
        if *st == PktState::Acked {
            return 0;
        }
        *st = PktState::Acked;
        self.lost.remove(&seq);
        self.acked += 1;
        self.last_progress = now;
        1
    }

    fn on_ack(&mut self, ack: &AckInfo, ctx: &mut EndpointCtx) {
        let prev_una = self.snd_una;
        let mut newly = 0;
        while self.snd_una < ack.cum.min(self.n) {
            newly += self.mark_acked(self.snd_una, ctx.now);
            self.snd_una += 1;
        }
        for r in 0..ack.sack_n as usize {
            let (lo, hi) = ack.sack[r];
            for s in lo..hi.min(self.n) {
                newly += self.mark_acked(s, ctx.now);
            }
        }
        if newly > 0 {
            self.rto_backoff = 0;
            self.dupacks = 0;
        } else if ack.cum == prev_una && ack.cum < self.n {
            self.dupacks += 1;
            if self.dupacks == 3 {
                self.dupacks = 0;
                if self.states[self.snd_una as usize] == PktState::Sent {
                    // Next credit will carry the retransmission.
                    self.states[self.snd_una as usize] = PktState::Lost;
                    self.lost.insert(self.snd_una);
                }
            }
        }
        if self.acked >= self.n && !self.done {
            self.done = true;
            ctx.emit(AppEvent::SenderDone {
                flow: self.spec.id,
                stats: self.stats,
            });
        }
        self.update_rto(ctx);
    }

    fn on_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto_deadline = None;
        if self.done {
            return;
        }
        // No progress for a full RTO: presume in-flight data lost and credits
        // stalled; re-request credits. Only count a timeout when data was
        // actually outstanding — a credit-starved idle sender re-requesting
        // credits is not a loss-recovery timeout.
        self.rto_backoff += 1;
        trace::rto(self.spec.id, self.rto_backoff);
        let mut any_lost = false;
        for s in self.snd_una..self.next_pending.min(self.n) {
            if self.states[s as usize] == PktState::Sent {
                self.states[s as usize] = PktState::Lost;
                self.lost.insert(s);
                any_lost = true;
            }
        }
        if any_lost {
            self.stats.timeouts += 1;
        }
        self.last_progress = ctx.now;
        self.send_request(ctx);
        self.update_rto(ctx);
    }
}

impl Endpoint for EpSender {
    fn activate(&mut self, ctx: &mut EndpointCtx) {
        self.last_progress = ctx.now;
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

/// The ExpressPass credit-rate feedback engine, shared between the plain
/// ExpressPass receiver and the FlexPass proactive sub-flow.
///
/// Rates are expressed as the *data* rate the credits trigger (bps); the
/// credit packets themselves are `CTRL_WIRE / DATA_WIRE` times smaller.
#[derive(Clone, Debug)]
pub struct CreditEngine {
    cfg: EpConfig,
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
            cfg,
            max_rate,
            cur_rate: max_rate * cfg.init_rate_frac,
            w: cfg.w_init,
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
        let j = self.cfg.pacing_jitter;
        let factor = 1.0 + j * (self.rng.next_f64() - 0.5);
        base.mul_f64(factor)
    }

    /// Runs one feedback update over the counters accumulated since the
    /// last call (SIGCOMM '17 algorithm: binary-search increase under the
    /// target loss, multiplicative decrease above it).
    /// Updates are skipped (counters keep accumulating) until at least a
    /// handful of credits were sent: with per-RTT update periods and a low
    /// current rate, a 1-credit sample would read as 0 % or 100 % loss
    /// depending on pipeline phase and pin the rate at the minimum.
    pub fn feedback_update(&mut self) {
        const MIN_CREDIT_SAMPLE: u64 = 8;
        if self.credits_sent_period < MIN_CREDIT_SAMPLE {
            return;
        }
        let delivered = self.data_rcvd_period.min(self.credits_sent_period);
        let loss = 1.0 - delivered as f64 / self.credits_sent_period as f64;
        let w_max = 0.5;
        if loss <= self.cfg.target_loss {
            if self.prev_increase {
                self.w = (self.w + w_max) / 2.0;
            }
            self.prev_increase = true;
            let target = (1.0 - self.w) * self.cur_rate
                + self.w * self.max_rate * (1.0 + self.cfg.target_loss);
            // S_max: bound the per-update increase.
            self.cur_rate = target.min(self.cur_rate + self.cfg.max_step_bps);
        } else {
            self.cur_rate *= (1.0 - loss) * (1.0 + self.cfg.target_loss);
            self.w = (self.w / 2.0).max(self.cfg.w_min);
            self.prev_increase = false;
        }
        self.cur_rate = self
            .cur_rate
            .clamp(self.max_rate * self.cfg.min_rate_frac, self.max_rate);
        self.credits_sent_period = 0;
        self.data_rcvd_period = 0;
    }
}

/// ExpressPass receiver: paces credits under feedback control, reassembles
/// data, and acknowledges every packet.
pub struct EpReceiver {
    spec: FlowSpec,
    cfg: EpConfig,
    reasm: Reassembly,
    acks: AckBuilder,
    engine: CreditEngine,
    credit_idx: u32,
    crediting: bool,
    credit_chain_live: bool,
    update_period: TimeDelta,
    completed: bool,
    torn_down: bool,
    /// Total credits sent (introspection).
    pub credits_sent: u64,
}

impl EpReceiver {
    /// Creates a receiver for `spec`.
    pub fn new(spec: FlowSpec, cfg: EpConfig, env: &NetEnv) -> Self {
        let n = packets_for(spec.size);
        let reasm = Reassembly::new(spec.size, n);
        let n = n.get();
        let engine = CreditEngine::new(cfg, env, spec.id);
        EpReceiver {
            spec,
            cfg,
            reasm,
            acks: AckBuilder::new(n),
            engine,
            credit_idx: 0,
            crediting: false,
            credit_chain_live: false,
            update_period: env.base_rtt.max(TimeDelta::micros(20)),
            completed: false,
            torn_down: false,
            credits_sent: 0,
        }
    }

    /// Current credit rate (as the data rate it would trigger, bps).
    pub fn credit_rate(&self) -> f64 {
        self.engine.rate()
    }

    fn start_crediting(&mut self, ctx: &mut EndpointCtx) {
        if self.crediting {
            return;
        }
        self.crediting = true;
        if !self.credit_chain_live {
            self.credit_chain_live = true;
            ctx.arm_timer(ctx.now, timer_token(self.spec.id, TK_CREDIT));
            ctx.arm_timer(
                ctx.now + self.update_period,
                timer_token(self.spec.id, TK_FEEDBACK),
            );
        }
    }

    fn send_credit(&mut self, ctx: &mut EndpointCtx) {
        let idx = self.credit_idx;
        self.credit_idx += 1;
        self.credits_sent += 1;
        self.engine.credits_sent_period += 1;
        trace::credit_sent(self.spec.id, u64::from(idx));
        ctx.send(Packet::new(
            self.spec.id,
            self.spec.dst,
            self.spec.src,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx }),
        ));
    }

    fn on_data(&mut self, pkt: &Packet, d: DataInfo, ctx: &mut EndpointCtx) {
        self.engine.data_rcvd_period += 1;
        self.reasm.on_packet(d.flow_seq);
        self.acks.on_packet(d.flow_seq);
        let info = self
            .acks
            .build(Subflow::Only, pkt.ecn_ce, d.flow_seq, d.flow_seq);
        ctx.send(Packet::new(
            self.spec.id,
            self.spec.dst,
            self.spec.src,
            CTRL_WIRE,
            self.cfg.ctrl_class,
            Payload::Ack(info),
        ));
        if self.reasm.complete() && !self.completed {
            self.completed = true;
            self.crediting = false;
            // Completion is final (`CreditReq` is ignored once completed),
            // so the pacing chains can be cancelled outright instead of
            // firing one last stale tick each. A mid-flow `CreditStop`, by
            // contrast, must let the chain fire and observe `!crediting` —
            // restart depends on that stale-fire termination.
            ctx.cancel_timer(timer_token(self.spec.id, TK_CREDIT));
            ctx.cancel_timer(timer_token(self.spec.id, TK_FEEDBACK));
            ctx.emit(AppEvent::FlowCompleted {
                flow: self.spec.id,
                stats: RxStats {
                    pkts_received: self.reasm.received_count() as u64 + self.reasm.duplicates(),
                    dup_pkts: self.reasm.duplicates(),
                    reorder_peak_bytes: self.reasm.reorder_peak().get(),
                },
            });
            ctx.set_timer(
                ctx.now + self.cfg.linger,
                timer_token(self.spec.id, TK_LINGER),
            );
        }
    }
}

impl Endpoint for EpReceiver {
    fn activate(&mut self, _ctx: &mut EndpointCtx) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        match pkt.payload {
            Payload::CreditReq { .. } if !self.completed => {
                self.start_crediting(ctx);
            }
            Payload::CreditStop => {
                self.crediting = false;
            }
            Payload::Data(d) => self.on_data(pkt, d, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        match timer_kind(token) {
            TK_CREDIT => {
                if self.crediting && !self.completed {
                    self.send_credit(ctx);
                    ctx.arm_timer(
                        ctx.now + self.engine.credit_interval(),
                        timer_token(self.spec.id, TK_CREDIT),
                    );
                } else {
                    self.credit_chain_live = false;
                }
            }
            TK_FEEDBACK if self.crediting && !self.completed => {
                self.engine.feedback_update();
                ctx.arm_timer(
                    ctx.now + self.update_period,
                    timer_token(self.spec.id, TK_FEEDBACK),
                );
            }
            TK_LINGER => {
                self.torn_down = true;
            }
            _ => {}
        }
    }

    fn finished(&self) -> bool {
        self.torn_down
    }
}

/// Factory producing plain ExpressPass flows.
pub struct ExpressPassFactory {
    /// Configuration applied to every flow.
    pub cfg: EpConfig,
}

impl ExpressPassFactory {
    /// Factory with default parameters (full-rate credit allocation).
    pub fn new() -> Self {
        ExpressPassFactory {
            cfg: EpConfig::default(),
        }
    }
}

impl Default for ExpressPassFactory {
    fn default() -> Self {
        Self::new()
    }
}

impl TransportFactory for ExpressPassFactory {
    fn sender(&mut self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(EpSender::new(*flow, self.cfg, env))
    }
    fn receiver(&mut self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(EpReceiver::new(*flow, self.cfg, env))
    }
    fn try_clone(&self) -> Option<Box<dyn TransportFactory>> {
        Some(Box::new(ExpressPassFactory { cfg: self.cfg }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simcore::units::{Bytes, WireBytes};
    use flexpass_simnet::consts::CREDIT_RATE_FULL_FRACTION;
    use flexpass_simnet::port::{PortConfig, QueueSched};
    use flexpass_simnet::queue::QueueConfig;
    use flexpass_simnet::sim::{NetObserver, NullObserver, Sim};
    use flexpass_simnet::switch::{ClassMap, SwitchProfile};
    use flexpass_simnet::topology::Topology;

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
        let env = NetEnv {
            host_rate: Rate::from_gbps(10),
            base_rtt: TimeDelta::micros(20),
            n_hosts: 2,
        };
        let mut eng = CreditEngine::new(EpConfig::default(), &env, 1);
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
        let env = NetEnv {
            host_rate: Rate::from_gbps(10),
            base_rtt: TimeDelta::micros(20),
            n_hosts: 2,
        };
        let mut eng = CreditEngine::new(EpConfig::default(), &env, 2);
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
        let _ = NullObserver;
        assert!(sim.observer.wasted > 0);
    }
}
