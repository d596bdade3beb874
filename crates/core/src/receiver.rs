//! The FlexPass receiver: reassembly across both sub-flows, per-sub-flow
//! acknowledgment, and the ExpressPass credit loop scaled to `w_q`.

use flexpass_simnet::consts::packets_for;
use flexpass_simnet::endpoint::{Endpoint, EndpointCtx};
use flexpass_simnet::packet::{DataInfo, FlowSpec, Packet, Payload, Subflow, TrafficClass};
use flexpass_simnet::sim::{timer_kind, NetEnv};
use flexpass_transport::common::{RxTail, SeqFrontier};
use flexpass_transport::expresspass::CreditLoop;

use crate::config::{CreditPolicy, FlexPassConfig};

/// Timer kind: credit pacing tick.
const TK_CREDIT: u16 = 10;
/// Timer kind: credit feedback update.
const TK_FEEDBACK: u16 = 11;
/// Timer kind: linger teardown.
const TK_LINGER: u16 = 12;

/// The FlexPass receiver endpoint.
pub struct FlexPassReceiver {
    cfg: FlexPassConfig,
    tail: RxTail,
    /// Arrivals on the reactive sub-flow (rseq space), which its ACKs
    /// report.
    racks: SeqFrontier,
    /// Arrivals on the proactive sub-flow (pseq space).
    packs: SeqFrontier,
    credit: CreditLoop,
}

impl FlexPassReceiver {
    /// Creates a receiver for `spec`. The credit engine's maximum rate is
    /// the host line rate scaled by `cfg.wq` (§4.1: credits are allocated
    /// against the minimum guaranteed bandwidth only).
    pub fn new(spec: FlowSpec, cfg: FlexPassConfig, env: &NetEnv) -> Self {
        let n = packets_for(spec.size).get();
        FlexPassReceiver {
            cfg,
            tail: RxTail::new(&spec, TK_LINGER),
            racks: SeqFrontier::with_capacity(n),
            packs: SeqFrontier::with_capacity(n),
            credit: CreditLoop::new(&spec, cfg.credit_loop(), env, TK_CREDIT, TK_FEEDBACK),
        }
    }

    /// Unique packets received so far (introspection).
    pub fn received(&self) -> u32 {
        self.tail.reasm().received_count()
    }

    /// Total credits sent (introspection).
    pub fn credits_sent(&self) -> u64 {
        self.credit.credits_sent()
    }

    fn on_data(&mut self, pkt: &Packet, d: DataInfo, ctx: &mut EndpointCtx) {
        // Reassemble on the per-flow sequence; duplicates (e.g. a reactive
        // original racing its proactive retransmission) are discarded here.
        self.tail.reassemble(d.flow_seq);

        // Acknowledge on the sub-flow the copy actually arrived on.
        let (acks, sub) = match d.sub {
            Subflow::Reactive => (&mut self.racks, Subflow::Reactive),
            Subflow::Proactive | Subflow::Only => {
                self.credit.on_data();
                (&mut self.packs, Subflow::Proactive)
            }
        };
        acks.insert(d.sub_seq);
        let info = acks.ack(sub, pkt.ecn_ce, d.flow_seq, d.sub_seq);
        ctx.send(Packet::to_sender(
            self.tail.spec(),
            TrafficClass::NewCtrl,
            Payload::Ack(info),
        ));

        if self.tail.completing() {
            self.credit.halt(ctx);
        }
        self.tail.finish_if_complete(ctx);
    }
}

impl Endpoint for FlexPassReceiver {
    fn activate(&mut self, _ctx: &mut EndpointCtx) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        match pkt.payload {
            Payload::CreditReq { .. } if !self.tail.completed() => self.credit.start(ctx),
            Payload::Data(d) => self.on_data(pkt, d, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        // A fixed-rate loop (pHost-style) never adapts: its feedback chain
        // ends at the first tick.
        if timer_kind(token) == TK_FEEDBACK && self.cfg.credit_policy == CreditPolicy::FixedRate {
            return;
        }
        self.credit.on_timer(token, ctx);
        self.tail.on_timer(token);
    }

    fn finished(&self) -> bool {
        self.tail.torn_down()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simcore::time::Time;
    use flexpass_simcore::units::Bytes;
    use flexpass_simnet::endpoint::{AppEvent, TimerCmd};
    use flexpass_simnet::loopback::{flow, Driver, ENV};
    use flexpass_simnet::sim::timer_token;

    fn spec(size: u64) -> FlowSpec {
        flow(7, Bytes::new(size))
    }

    fn data(flow_seq: u32, sub: Subflow, sub_seq: u32, ce: bool) -> Packet {
        let mut p = Packet::data(
            &spec(4 * 1460),
            TrafficClass::NewData,
            flow_seq,
            sub,
            sub_seq,
            false,
        );
        p.ecn_ce = ce;
        p
    }

    fn req() -> Packet {
        Packet::to_receiver(
            &spec(4 * 1460),
            TrafficClass::NewCtrl,
            Payload::CreditReq { pkts: 4 },
        )
    }

    #[test]
    fn credit_request_starts_pacing() {
        let mut r = FlexPassReceiver::new(spec(4 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| r.on_packet(&req(), ctx));
        // Pacing + feedback timers armed.
        assert_eq!(drv.out.timers.len(), 2);
        // Fire the pacing timer: a credit goes out.
        let TimerCmd::Arm(at, tok) = drv.out.timers[0] else {
            panic!("expected an Arm, got {:?}", drv.out.timers[0]);
        };
        drv.call(at, |ctx| r.on_timer(tok, ctx));
        let credits = drv
            .sent
            .iter()
            .filter(|p| matches!(p.payload, Payload::Credit(_)))
            .count();
        assert_eq!(credits, 1);
        assert_eq!(drv.sent[0].class, TrafficClass::Credit);
        assert_eq!(r.credits_sent(), 1);
    }

    #[test]
    fn acks_ride_correct_subflow_and_echo_ce() {
        let mut r = FlexPassReceiver::new(spec(4 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| {
            r.on_packet(&data(0, Subflow::Reactive, 0, true), ctx)
        });
        drv.call(Time::ZERO, |ctx| {
            r.on_packet(&data(1, Subflow::Proactive, 0, false), ctx)
        });
        assert_eq!(drv.sent.len(), 2);
        match drv.sent[0].payload {
            Payload::Ack(a) => {
                assert_eq!(a.sub, Subflow::Reactive);
                assert!(a.ece);
                assert_eq!(a.cum, 1);
            }
            _ => panic!("expected reactive ack"),
        }
        match drv.sent[1].payload {
            Payload::Ack(a) => {
                assert_eq!(a.sub, Subflow::Proactive);
                assert!(!a.ece);
                assert_eq!(a.cum, 1);
            }
            _ => panic!("expected proactive ack"),
        }
    }

    #[test]
    fn duplicate_copies_discarded_in_reassembly() {
        let mut r = FlexPassReceiver::new(spec(2 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        // Packet 0 arrives reactive, then again as a proactive retx.
        drv.call(Time::ZERO, |ctx| {
            r.on_packet(&data(0, Subflow::Reactive, 0, false), ctx)
        });
        drv.call(Time::ZERO, |ctx| {
            r.on_packet(&data(0, Subflow::Proactive, 0, false), ctx)
        });
        drv.call(Time::ZERO, |ctx| {
            r.on_packet(&data(1, Subflow::Proactive, 1, false), ctx)
        });
        assert!(r.reasm_complete_for_test());
        let done: Vec<_> = drv
            .out
            .app
            .iter()
            .filter_map(|e| match e {
                AppEvent::FlowCompleted { stats, .. } => Some(*stats),
                _ => None,
            })
            .collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].dup_pkts, 1);
        assert_eq!(done[0].pkts_received, 3);
    }

    #[test]
    fn completion_stops_crediting() {
        let mut r = FlexPassReceiver::new(spec(1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| r.on_packet(&req(), ctx));
        drv.out.timers.clear();
        drv.call(Time::ZERO, |ctx| {
            r.on_packet(&data(0, Subflow::Reactive, 0, false), ctx)
        });
        // Completion cancels both credit-loop ticks.
        for kind in [TK_CREDIT, TK_FEEDBACK] {
            let cancel = TimerCmd::Cancel(timer_token(7, kind));
            assert!(
                drv.out.timers.contains(&cancel),
                "{cancel:?} not in {:?}",
                drv.out.timers
            );
        }
        // Linger tears down.
        let linger_tok = timer_token(7, TK_LINGER);
        drv.call(Time::from_millis(20), |ctx| r.on_timer(linger_tok, ctx));
        assert!(r.finished());
    }

    impl FlexPassReceiver {
        fn reasm_complete_for_test(&self) -> bool {
            self.tail.reasm().complete()
        }
    }
}
