//! The Layering (LY) comparison scheme [Wei 2019, "ExpressPass+"]:
//! ExpressPass credits gated by a DCTCP-adjusted window.
//!
//! A data packet is sent only when a credit arrives *and* the window allows
//! it; the window reacts to ECN marks on the (shared) data queue. This
//! mitigates starvation of legacy traffic but, as §6.2 shows, the window
//! needlessly throttles transmission even when no legacy traffic competes.

use flexpass_simnet::consts::packets_for;
use flexpass_simnet::endpoint::{AppEvent, Endpoint, EndpointCtx, TxStats};
use flexpass_simnet::packet::{AckInfo, CreditInfo, FlowSpec, Packet, Payload, TrafficClass};
use flexpass_simnet::sim::{timer_kind, NetEnv};
use flexpass_transport::common::{data_packet, DctcpWindow, RtoTimer, Scoreboard, MIN_RTO};
use flexpass_transport::dctcp::{G, INIT_CWND, MAX_CWND};
use flexpass_transport::expresspass::waste_credit;

/// Timer kind: sender retransmission backstop.
const TK_RTO: u16 = 13;

/// The Layering sender: ExpressPass clocking + DCTCP window limit.
pub struct LySender {
    spec: FlowSpec,
    sb: Scoreboard,
    win: DctcpWindow,
    rto: RtoTimer,
    stats: TxStats,
    done: bool,
}

impl LySender {
    /// Creates a sender for `spec`.
    pub fn new(spec: FlowSpec, _env: &NetEnv) -> Self {
        LySender {
            spec,
            sb: Scoreboard::new(packets_for(spec.size).get()),
            win: DctcpWindow::new(INIT_CWND, G, MAX_CWND),
            rto: RtoTimer::new(spec.id, TK_RTO),
            stats: TxStats::default(),
            done: false,
        }
    }

    /// Current window (introspection).
    pub fn cwnd(&self) -> f64 {
        self.win.cwnd()
    }

    fn update_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto.update(ctx, !self.done, MIN_RTO);
    }

    fn send_request(&mut self, ctx: &mut EndpointCtx) {
        let pkts = self.sb.total();
        ctx.send(Packet::to_receiver(
            &self.spec,
            TrafficClass::NewCtrl,
            Payload::CreditReq { pkts },
        ));
        self.update_rto(ctx);
    }

    fn on_credit(&mut self, credit: CreditInfo, ctx: &mut EndpointCtx) {
        self.stats.credits_received += 1;
        // The layering gate: credits beyond the DCTCP window are wasted,
        // like credits with nothing left to send.
        let picked = if self.sb.in_flight() >= self.win.cwnd_pkts() {
            None
        } else {
            self.sb.pick()
        };
        let Some((seq, retx)) = picked else {
            waste_credit(&mut self.stats, self.spec.id);
            return;
        };
        let class = TrafficClass::NewData;
        let pkt = data_packet(&self.spec, class, seq, credit.idx, retx, &mut self.stats);
        ctx.send(pkt.ecn());
        self.update_rto(ctx);
    }

    fn on_ack(&mut self, ack: &AckInfo, ctx: &mut EndpointCtx) {
        let (newly, marked) = self.sb.read_ack(ack);
        if newly > 0 {
            self.rto.progress(ctx.now);
            self.win
                .on_ack(newly, ack.acked_flow_seq, ack.ece, self.sb.next_pending());
        } else if marked.is_some() {
            self.win.on_loss(ack.cum, self.sb.next_pending());
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
}

impl Endpoint for LySender {
    fn activate(&mut self, ctx: &mut EndpointCtx) {
        self.rto.progress(ctx.now);
        self.send_request(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        match pkt.payload {
            Payload::Credit(c) => self.on_credit(c, ctx),
            Payload::Ack(a) => self.on_ack(&a, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        if timer_kind(token) != TK_RTO {
            return;
        }
        self.rto.fired();
        self.rto.back_off(ctx.now);
        // Only count a timeout when data was actually outstanding.
        if self.sb.lose_outstanding() {
            self.stats.timeouts += 1;
        }
        self.win.on_timeout(self.sb.next_pending());
        self.send_request(ctx);
    }

    fn finished(&self) -> bool {
        // The RTO is cancelled on completion — no stale fire to wait out.
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simcore::time::{Rate, Time, TimeDelta};
    use flexpass_simcore::units::Bytes;
    use flexpass_simnet::packet::{Subflow, TrafficClass};

    fn env() -> NetEnv {
        NetEnv {
            host_rate: Rate::from_gbps(10),
            base_rtt: TimeDelta::micros(20),
            n_hosts: 2,
        }
    }

    fn spec(size: u64) -> FlowSpec {
        FlowSpec {
            id: 3,
            src: 0,
            dst: 1,
            size: Bytes::new(size),
            start: Time::ZERO,
            tag: 0,
            fg: false,
        }
    }

    fn credit(idx: u32) -> Packet {
        Packet::to_sender(
            &spec(1460),
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx }),
        )
    }

    #[test]
    fn window_gates_credits() {
        let mut s = LySender::new(spec(100 * 1460), &env());
        let mut arena = flexpass_simnet::arena::PacketArena::new();
        let mut tx_ids = Vec::new();
        let mut tx = Vec::new();
        let mut tm = Vec::new();
        let mut app = Vec::new();
        {
            let mut ctx = EndpointCtx::new(Time::ZERO, &mut arena, &mut tx_ids, &mut tm, &mut app);
            s.activate(&mut ctx);
            // Initial window is 10: the 11th credit is wasted.
            for i in 0..12 {
                s.on_packet(&credit(i), &mut ctx);
            }
        }
        arena.drain_into(&mut tx_ids, &mut tx);
        assert_eq!(s.stats.data_pkts, 10);
        assert_eq!(s.stats.credits_wasted, 2);
        let data = tx.iter().filter(|p| p.is_data()).count();
        assert_eq!(data, 10);
        // LY data must be ECN-capable (the window needs marks).
        assert!(tx.iter().filter(|p| p.is_data()).all(|p| p.ecn_capable));
    }

    #[test]
    fn acks_open_window_for_more_credits() {
        let mut s = LySender::new(spec(100 * 1460), &env());
        let mut arena = flexpass_simnet::arena::PacketArena::new();
        let mut tx_ids = Vec::new();
        let mut tm = Vec::new();
        let mut app = Vec::new();
        let mut ctx = EndpointCtx::new(Time::ZERO, &mut arena, &mut tx_ids, &mut tm, &mut app);
        s.activate(&mut ctx);
        for i in 0..10 {
            s.on_packet(&credit(i), &mut ctx);
        }
        assert_eq!(s.sb.in_flight(), 10);
        let ack = AckInfo {
            sub: Subflow::Only,
            cum: 5,
            sack: [(0, 0); 3],
            sack_n: 0,
            ece: false,
            acked_flow_seq: 4,
        };
        s.on_packet(
            &Packet::to_sender(&spec(1460), TrafficClass::NewCtrl, Payload::Ack(ack)),
            &mut ctx,
        );
        assert_eq!(s.sb.in_flight(), 5);
        s.on_packet(&credit(10), &mut ctx);
        assert_eq!(s.stats.data_pkts, 11);
    }
}
