//! DCTCP [Alizadeh 2010]: the legacy reactive transport of the evaluation.
//!
//! Per-packet ACKs with SACK, triple-duplicate-ACK fast retransmit with
//! NewReno partial-ACK recovery, a retransmission timer with the paper's
//! 4 ms `RTO_min`, and the DCTCP ECN-fraction window (see
//! [`crate::common::DctcpWindow`]).

use flexpass_simcore::time::Time;
use flexpass_simnet::consts::packets_for;
use flexpass_simnet::endpoint::{AppEvent, Endpoint, EndpointCtx, TxStats};
use flexpass_simnet::packet::{AckInfo, FlowSpec, Packet, Payload, TrafficClass};
use flexpass_simnet::sim::{timer_kind, NetEnv, TransportFactory};

use crate::common::{
    data_packet, DctcpWindow, RtoTimer, RttEstimator, RxTail, Scoreboard, MIN_RTO,
};

/// Timer kind: sender retransmission timer.
const TK_RTO: u16 = 1;
/// Timer kind: receiver linger before teardown.
const TK_LINGER: u16 = 2;

/// Initial congestion window, in packets.
pub const INIT_CWND: f64 = 10.0;
/// ECN-fraction EWMA gain `g`.
pub const G: f64 = 1.0 / 16.0;
/// Upper bound on the congestion window, in packets.
pub const MAX_CWND: f64 = 4096.0;

/// DCTCP sender endpoint.
pub struct DctcpSender {
    spec: FlowSpec,
    sb: Scoreboard,
    sent_at: Vec<Option<Time>>,
    win: DctcpWindow,
    rtt: RttEstimator,
    /// Its own count, not [`Scoreboard::read_ack`]'s: it restarts only when
    /// the cumulative point moves and fires once per recovery.
    dupacks: u32,
    /// Fast-recovery high-water mark: `Some(point)` while recovering from a
    /// triple-duplicate-ACK loss, where `point` was the send frontier when
    /// recovery started. Cumulative ACKs below `point` are partial ACKs
    /// (NewReno): each one exposes the next hole, which is retransmitted
    /// immediately instead of waiting for three fresh duplicate ACKs.
    recovery: Option<u32>,
    rto: RtoTimer,
    stats: TxStats,
    done: bool,
}

impl DctcpSender {
    /// Creates a sender for `spec`.
    pub fn new(spec: FlowSpec, _env: &NetEnv) -> Self {
        let n = packets_for(spec.size).get();
        DctcpSender {
            spec,
            sb: Scoreboard::new(n),
            sent_at: vec![None; n as usize],
            win: DctcpWindow::new(INIT_CWND, G, MAX_CWND),
            rtt: RttEstimator::new(MIN_RTO),
            dupacks: 0,
            recovery: None,
            rto: RtoTimer::new(spec.id, TK_RTO),
            stats: TxStats::default(),
            done: false,
        }
    }

    /// Congestion window (for tests / introspection).
    pub fn cwnd(&self) -> f64 {
        self.win.cwnd()
    }

    /// Transmission statistics so far.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    /// True while anything is in flight, awaiting retransmission or unsent.
    fn has_work(&self) -> bool {
        self.sb.in_flight() > 0
            || self.sb.first_lost().is_some()
            || self.sb.next_pending() < self.sb.total()
    }

    fn update_rto(&mut self, ctx: &mut EndpointCtx) {
        let live = !self.done && self.has_work();
        self.rto.update(ctx, live, self.rtt.rto());
    }

    /// Sends as much as the window allows: lost packets first, then new.
    fn pump(&mut self, ctx: &mut EndpointCtx) {
        let cwnd = self.win.cwnd_pkts();
        while self.sb.in_flight() < cwnd {
            let Some((seq, retx)) = self.sb.pick() else {
                break;
            };
            self.sent_at[seq as usize] = Some(ctx.now);
            let pkt = data_packet(
                &self.spec,
                TrafficClass::Legacy,
                seq,
                seq,
                retx,
                &mut self.stats,
            );
            ctx.send(pkt.ecn());
        }
    }

    fn on_ack(&mut self, ack: &AckInfo, ctx: &mut EndpointCtx) {
        let n = self.sb.total();
        let prev_una = self.sb.snd_una();
        let (sent_at, rtt, now) = (&self.sent_at, &mut self.rtt, ctx.now);
        let newly = self.sb.apply_ack(ack, |seq| {
            if let Some(t) = sent_at[seq as usize] {
                rtt.sample(now.saturating_since(t));
            }
        });
        if newly > 0 {
            self.rto.progress(ctx.now);
            // Highest sequence this ACK presents evidence for: the top of
            // the cumulative range and of each SACK block.
            let mut high = ack.cum.min(n).checked_sub(1);
            for &(lo, hi) in &ack.sack[..ack.sack_n as usize] {
                if lo < hi.min(n) {
                    high = high.max(Some(hi.min(n) - 1));
                }
            }
            if let Some(high) = high {
                self.win
                    .on_ack(newly, high, ack.ece, self.sb.next_pending());
            }
        }
        if self.sb.snd_una() > prev_una {
            // The cumulative point advanced: duplicate-ACK counting restarts.
            self.dupacks = 0;
            match self.recovery {
                Some(point) if self.sb.snd_una() < point => {
                    // Partial ACK (NewReno): the packet now at snd_una is the
                    // next hole from the same loss event. Retransmit it
                    // immediately; the window was already reduced when
                    // recovery started.
                    self.sb.mark_lost(self.sb.snd_una());
                }
                Some(_) => self.recovery = None,
                None => {}
            }
        } else if ack.cum == prev_una && ack.cum < n {
            // A duplicate cumulative ACK, even one whose SACK blocks carry
            // new information: the receiver is still missing snd_una.
            self.dupacks += 1;
            if self.dupacks >= 3 && self.recovery.is_none() {
                // Fast retransmit the first unacked packet, once per window.
                self.sb.mark_lost(self.sb.snd_una());
                self.recovery = Some(self.sb.next_pending());
                self.win.on_loss(ack.cum, self.sb.next_pending());
            }
        }

        if self.sb.snd_una() >= n && !self.done {
            self.done = true;
            ctx.emit(AppEvent::SenderDone {
                flow: self.spec.id,
                stats: self.stats,
            });
        } else {
            self.pump(ctx);
        }
        self.update_rto(ctx);
    }

    fn on_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto.fired();
        // Timeout: every in-flight packet is presumed lost.
        self.stats.timeouts += 1;
        self.rto.back_off(ctx.now);
        self.recovery = None;
        self.sb.lose_outstanding();
        self.win.on_timeout(self.sb.next_pending());
        self.pump(ctx);
        self.update_rto(ctx);
    }
}

impl Endpoint for DctcpSender {
    fn activate(&mut self, ctx: &mut EndpointCtx) {
        self.rto.progress(ctx.now);
        self.pump(ctx);
        self.update_rto(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        if let Payload::Ack(ack) = pkt.payload {
            self.on_ack(&ack, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        if timer_kind(token) == TK_RTO {
            self.on_rto(ctx);
        }
    }

    fn finished(&self) -> bool {
        // The RTO is cancelled on completion, so no teardown linger is
        // needed to absorb a stale timer fire.
        self.done
    }
}

/// DCTCP receiver endpoint: per-packet cumulative + SACK acknowledgment,
/// flow completion detection, and a linger period to re-ACK stray
/// retransmissions.
pub struct DctcpReceiver {
    tail: RxTail,
}

impl DctcpReceiver {
    /// Creates a receiver for `spec`.
    pub fn new(spec: FlowSpec, _env: &NetEnv) -> Self {
        DctcpReceiver {
            tail: RxTail::new(&spec, TK_LINGER),
        }
    }
}

impl Endpoint for DctcpReceiver {
    fn activate(&mut self, _ctx: &mut EndpointCtx) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        if let Payload::Data(d) = pkt.payload {
            self.tail.on_data(pkt, d, TrafficClass::Legacy, ctx);
            self.tail.finish_if_complete(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, _ctx: &mut EndpointCtx) {
        self.tail.on_timer(token);
    }

    fn finished(&self) -> bool {
        self.tail.torn_down()
    }
}

/// Factory producing plain DCTCP flows.
#[derive(Default)]
pub struct DctcpFactory;

impl DctcpFactory {
    /// Factory with the paper's parameters.
    pub fn new() -> Self {
        DctcpFactory
    }
}

impl TransportFactory for DctcpFactory {
    fn sender(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(DctcpSender::new(*flow, env))
    }
    fn receiver(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(DctcpReceiver::new(*flow, env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simcore::time::{Rate, TimeDelta};
    use flexpass_simcore::units::{Bytes, WireBytes};
    use flexpass_simnet::loopback::{Driver, ENV};
    use flexpass_simnet::packet::Subflow;
    use flexpass_simnet::port::{PortConfig, QueueSched};
    use flexpass_simnet::queue::QueueConfig;
    use flexpass_simnet::sim::timer_token;
    use flexpass_simnet::sim::{NetObserver, NodeId, Sim};
    use flexpass_simnet::switch::{ClassMap, SwitchProfile};
    use flexpass_simnet::topology::Topology;

    fn profile(rate: Rate, ecn_kb: u64, cap: Option<u64>) -> SwitchProfile {
        let qc = match cap {
            Some(c) => {
                QueueConfig::capped(WireBytes::new(c)).with_ecn(WireBytes::new(ecn_kb * 1000))
            }
            None => QueueConfig::plain().with_ecn(WireBytes::new(ecn_kb * 1000)),
        };
        SwitchProfile {
            port: PortConfig {
                rate,
                queues: vec![(qc, QueueSched::strict(0))],
            },
            class_map: ClassMap::Single,
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
        drops: u64,
    }

    impl NetObserver for Fct {
        fn on_app_event(&mut self, ev: &AppEvent, now: Time) {
            if let AppEvent::FlowCompleted { flow, .. } = ev {
                self.done.push((*flow, now));
            }
        }
        fn on_drop(
            &mut self,
            _p: &Packet,
            _r: flexpass_simnet::queue::DropReason,
            _n: NodeId,
            _now: Time,
        ) {
            self.drops += 1;
        }
    }

    #[test]
    fn single_flow_completes_and_uses_link() {
        let p = profile(Rate::from_gbps(10), 60, None);
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(DctcpFactory::new()),
            Fct {
                done: Vec::new(),
                drops: 0,
            },
        );
        // 10 MB flow: ideal time = 10e6/1460*1538*8/10e9 = 8.42 ms.
        sim.schedule_flow(flow(1, 0, 1, 10_000_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(20));
        let (_, at) = sim.observer.done[0];
        let fct_ms = at.as_millis_f64();
        assert!(
            fct_ms < 10.0,
            "DCTCP should run near line rate; FCT {fct_ms} ms"
        );
    }

    #[test]
    fn two_flows_share_fairly() {
        let p = profile(Rate::from_gbps(10), 60, None);
        let topo = Topology::star(3, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(DctcpFactory::new()),
            Fct {
                done: Vec::new(),
                drops: 0,
            },
        );
        sim.schedule_flow(flow(1, 0, 2, 5_000_000, Time::ZERO));
        sim.schedule_flow(flow(2, 1, 2, 5_000_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(20));
        let t1 = sim.observer.done[0].1.as_millis_f64();
        let t2 = sim.observer.done[1].1.as_millis_f64();
        // Both ~2x single-flow time; neither starved.
        assert!((t1 - t2).abs() / t1.max(t2) < 0.35, "t1 {t1} t2 {t2}");
        assert!(t1.max(t2) < 13.0, "sharing too slow: {t1} {t2}");
    }

    #[test]
    fn ecn_keeps_queue_bounded() {
        // With step marking at 60 kB the standing queue should stay well
        // below a drop-tail-only queue.
        let p = profile(Rate::from_gbps(10), 60, None);
        let topo = Topology::star(3, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);

        struct QueuePeak {
            peak: u64,
        }
        // Observer totals feed assertions only; raw u64 is the reporting domain.
        impl NetObserver for QueuePeak {
            fn on_queue_sample(
                &mut self,
                _node: NodeId,
                _port: usize,
                queues: &flexpass_simnet::port::Port,
                _now: Time,
            ) {
                self.peak = self.peak.max(queues.backlog_bytes().get());
            }
        }

        let mut sim = Sim::new(topo, Box::new(DctcpFactory::new()), QueuePeak { peak: 0 });
        sim.enable_sampling(TimeDelta::micros(50));
        sim.schedule_flow(flow(1, 0, 2, 4_000_000, Time::ZERO));
        sim.schedule_flow(flow(2, 1, 2, 4_000_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(20));
        assert!(
            sim.observer.peak < 200_000,
            "queue peak {} should be ECN-bounded",
            sim.observer.peak
        );
        assert!(sim.observer.peak > 10_000, "queue never built up?");
    }

    #[test]
    fn recovers_from_heavy_incast_drops() {
        // Small switch queues + 16-to-1 incast forces drops; every flow must
        // still complete via fast retransmit / RTO.
        let p = profile(Rate::from_gbps(10), 60, Some(100_000));
        let topo = Topology::star(17, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(DctcpFactory::new()),
            Fct {
                done: Vec::new(),
                drops: 0,
            },
        );
        for i in 0..16u64 {
            sim.schedule_flow(flow(i, i as usize, 16, 64_000, Time::ZERO));
        }
        sim.run_to_completion(TimeDelta::millis(20));
        assert_eq!(sim.observer.done.len(), 16);
        assert!(sim.observer.drops > 0, "incast should overflow the queue");
    }

    #[test]
    fn sender_stats_track_retransmissions() {
        let p = profile(Rate::from_gbps(10), 60, Some(30_000));
        let topo = Topology::star(9, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);

        struct TxCapture {
            retx: u64,
            timeouts: u64,
        }
        impl NetObserver for TxCapture {
            fn on_app_event(&mut self, ev: &AppEvent, _now: Time) {
                if let AppEvent::SenderDone { stats, .. } = ev {
                    self.retx += stats.retx_pkts;
                    self.timeouts += stats.timeouts;
                }
            }
        }

        let mut sim = Sim::new(
            topo,
            Box::new(DctcpFactory::new()),
            TxCapture {
                retx: 0,
                timeouts: 0,
            },
        );
        for i in 0..8u64 {
            sim.schedule_flow(flow(i, i as usize, 8, 256_000, Time::ZERO));
        }
        sim.run_to_completion(TimeDelta::millis(40));
        assert!(sim.observer.retx > 0, "expected retransmissions");
    }

    #[test]
    fn short_flow_first_rtt() {
        // A 1-packet flow completes in roughly one one-way latency.
        let p = profile(Rate::from_gbps(10), 60, None);
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(DctcpFactory::new()),
            Fct {
                done: Vec::new(),
                drops: 0,
            },
        );
        sim.schedule_flow(flow(1, 0, 1, 1000, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(10));
        let at = sim.observer.done[0].1;
        assert!(
            at < Time::from_micros(15),
            "1-packet FCT {at:?} should be ~1 one-way delay"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let p = profile(Rate::from_gbps(10), 60, None);
            let topo = Topology::star(5, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
            let mut sim = Sim::new(
                topo,
                Box::new(DctcpFactory::new()),
                Fct {
                    done: Vec::new(),
                    drops: 0,
                },
            );
            for i in 0..4u64 {
                sim.schedule_flow(flow(i, i as usize, 4, 500_000 + i * 10_000, Time::ZERO));
            }
            sim.run_to_completion(TimeDelta::millis(20));
            sim.observer.done
        };
        assert_eq!(run(), run());
    }

    /// Builds an ACK packet for flow 7 (receiver at host 1, sender at 0).
    fn ack_pkt(cum: u32, sack: &[(u32, u32)], acked_flow_seq: u32, ece: bool) -> Packet {
        let mut blocks = [(0u32, 0u32); flexpass_simnet::packet::MAX_SACK];
        for (i, r) in sack.iter().enumerate() {
            blocks[i] = *r;
        }
        let ack = AckInfo {
            sub: Subflow::Only,
            cum,
            sack: blocks,
            sack_n: sack.len() as u8,
            ece,
            acked_flow_seq,
        };
        let spec = flow(7, 0, 1, 0, Time::ZERO);
        Packet::to_sender(&spec, TrafficClass::Legacy, Payload::Ack(ack))
    }

    /// Regression: duplicate ACKs whose SACK blocks carry new information
    /// must still count toward fast retransmit, and partial ACKs during
    /// recovery must expose the next hole without three fresh dupacks.
    ///
    /// Before the fix, any ACK that SACKed a new packet reset the dupack
    /// counter (`newly > 0` cleared it), so a sender whose every dupack
    /// carries SACK news never fast-retransmitted; and after a fast
    /// retransmit the second hole stalled until the RTO.
    #[test]
    fn fast_retransmit_survives_sack_progress_and_partial_acks() {
        let spec = flow(7, 0, 1, 14_600, Time::ZERO); // n = 10 packets
        let mut tx = DctcpSender::new(spec, &ENV); // INIT_CWND = 10
        let mut drv = Driver::default();
        let retx_seqs = |sent: &[Packet]| -> Vec<u32> {
            sent.iter()
                .filter_map(|p| match p.payload {
                    Payload::Data(d) if d.retx => Some(d.flow_seq),
                    _ => None,
                })
                .collect()
        };
        drv.call(Time::ZERO, |ctx| tx.activate(ctx));
        assert_eq!(drv.sent.len(), 10, "initial window should cover the flow");

        // Packets 0 and 1 are lost; 2..=9 arrive, each generating a
        // duplicate cumulative ACK with a growing SACK block.
        drv.call(Time::ZERO, |ctx| {
            for k in 3..=10u32 {
                tx.on_packet(&ack_pkt(0, &[(2, k)], k - 1, false), ctx);
            }
        });
        assert_eq!(
            retx_seqs(&drv.sent),
            vec![0],
            "three dupacks (with SACK news) must fast-retransmit the hole"
        );

        // The retransmitted 0 arrives: a partial ACK (cum = 1 < recovery
        // point). The sender must expose and retransmit hole 1 immediately.
        drv.call(Time::ZERO, |ctx| {
            tx.on_packet(&ack_pkt(1, &[(2, 10)], 0, false), ctx)
        });
        assert_eq!(
            retx_seqs(&drv.sent),
            vec![0, 1],
            "partial ACK must retransmit the next hole without new dupacks"
        );

        // The retransmitted 1 completes the flow.
        drv.call(Time::ZERO, |ctx| {
            tx.on_packet(&ack_pkt(10, &[], 1, false), ctx)
        });
        assert_eq!(tx.stats().timeouts, 0, "recovery must not need the RTO");
        assert!(matches!(drv.out.app[..], [AppEvent::SenderDone { .. }]));
    }

    /// Regression: the window's high-water sequence must come from acked
    /// evidence (cumulative point and SACK tops), not from the raw
    /// `acked_flow_seq` of whichever packet triggered the ACK.
    ///
    /// Before the fix, `cum.saturating_sub(1).max(acked_flow_seq)` let a
    /// retransmission-triggered ACK from beyond the recovery point unlock a
    /// second window decrease in the same loss window.
    #[test]
    fn single_loss_window_decreases_once() {
        let spec = flow(7, 0, 1, 29_200, Time::ZERO); // n = 20 packets
        let mut tx = DctcpSender::new(spec, &ENV);
        tx.win = DctcpWindow::new(8.0, G, MAX_CWND);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| tx.activate(ctx));

        // Three pure duplicate ACKs: one halving, recover_until = 8.
        drv.call(Time::ZERO, |ctx| {
            for _ in 0..3 {
                tx.on_packet(&ack_pkt(0, &[], 1, false), ctx);
            }
        });
        assert!((tx.cwnd() - 4.0).abs() < 1e-9, "cwnd {}", tx.cwnd());

        // An ECE-marked dupack SACKing packet 5 (below the recovery point)
        // but stamped with acked_flow_seq = 9: evidence stops at 5, so no
        // second decrease is allowed.
        drv.call(Time::ZERO, |ctx| {
            tx.on_packet(&ack_pkt(0, &[(5, 6)], 9, true), ctx)
        });
        assert!(
            tx.cwnd() > 3.9,
            "window halved twice in one loss window: cwnd {}",
            tx.cwnd()
        );
    }

    /// The trace layer records the retransmissions and drops of an incast.
    #[test]
    fn trace_records_incast_drops_and_retransmissions() {
        use flexpass_simnet::trace;
        trace::install(trace::TraceFilter::default());
        let p = profile(Rate::from_gbps(10), 60, Some(100_000));
        let topo = Topology::star(17, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(DctcpFactory::new()),
            Fct {
                done: Vec::new(),
                drops: 0,
            },
        );
        for i in 0..16u64 {
            sim.schedule_flow(flow(i, i as usize, 16, 64_000, Time::ZERO));
        }
        sim.run_to_completion(TimeDelta::millis(20));
        let log = trace::finish();
        let count = |k: trace::EventKind| log.events.iter().filter(|e| e.kind() == k).count();
        assert!(count(trace::EventKind::Drop) > 0, "incast should drop");
        assert!(
            count(trace::EventKind::Retransmit) > 0,
            "drops should surface as traced retransmissions"
        );
        assert!(count(trace::EventKind::Enqueue) > 0);
        assert_eq!(sim.observer.done.len(), 16);
    }

    #[test]
    fn receiver_linger_reacks_stray_retx() {
        let spec = flow(9, 0, 1, 2920, Time::ZERO);
        let mut rx = DctcpReceiver::new(spec, &ENV);
        let mut drv = Driver::default();
        let mk =
            |seq: u32| Packet::data(&spec, TrafficClass::Legacy, seq, Subflow::Only, seq, false);
        drv.call(Time::ZERO, |ctx| {
            rx.on_packet(&mk(0), ctx);
            rx.on_packet(&mk(1), ctx);
        });
        assert!(!rx.finished(), "receiver lingers after completion");
        // Duplicate after completion still generates an ACK.
        drv.call(Time::ZERO, |ctx| rx.on_packet(&mk(1), ctx));
        // Linger timer tears it down.
        drv.call(Time::ZERO, |ctx| {
            rx.on_timer(timer_token(9, TK_LINGER), ctx)
        });
        assert!(rx.finished());
        assert_eq!(drv.sent.len(), 3);
        assert_eq!(drv.out.app.len(), 1);
    }

    /// The receiver acknowledges every data packet at once: a clean
    /// in-order one, a CE-marked one (echoing the mark) and one that
    /// arrives out of order.
    #[test]
    fn receiver_acks_every_packet_immediately() {
        let spec = flow(9, 0, 1, 5 * 1460, Time::ZERO);
        let mut rx = DctcpReceiver::new(spec, &ENV);
        let mut drv = Driver::default();
        let mk =
            |seq: u32| Packet::data(&spec, TrafficClass::Legacy, seq, Subflow::Only, seq, false);
        let mut marked = mk(1);
        marked.ecn_ce = true;
        for (pkt, cum, ece) in [(mk(0), 1, false), (marked, 2, true), (mk(3), 2, false)] {
            drv.sent.clear();
            drv.call(Time::ZERO, |ctx| rx.on_packet(&pkt, ctx));
            let [ack] = &drv.sent[..] else {
                panic!("expected exactly one ACK, got {}", drv.sent.len());
            };
            let Payload::Ack(info) = ack.payload else {
                panic!("expected an ACK, got {:?}", ack.payload);
            };
            assert_eq!((info.cum, info.ece), (cum, ece));
        }
        assert!(
            drv.out.timers.is_empty() && drv.out.app.is_empty(),
            "the flow is not complete"
        );
    }
}
