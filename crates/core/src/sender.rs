//! The FlexPass sender: the Figure-4 per-packet state machine over a shared
//! send buffer, with a credit-clocked proactive sub-flow and a
//! DCTCP-windowed reactive sub-flow.
//!
//! The per-packet states live in the kit's [`Scoreboard`], the same one the
//! single-loop senders keep; what is FlexPass's own is `SubflowTx`, the
//! slot bookkeeping of each sub-flow's sequence space, and the policy that
//! maps a closed slot back to its packet.

use flexpass_simnet::consts::packets_for;
use flexpass_simnet::endpoint::{AppEvent, Endpoint, EndpointCtx, TxStats};
use flexpass_simnet::hooks;
use flexpass_simnet::packet::{
    AckInfo, CreditInfo, FlowSpec, Packet, Payload, Subflow, TrafficClass,
};
use flexpass_simnet::sim::{timer_kind, NetEnv};
use flexpass_simnet::trace::TraceEvent;
use flexpass_transport::common::{
    DctcpWindow, PktState, RtoTimer, Scoreboard, SeqFrontier, MIN_RTO,
};
use flexpass_transport::dctcp::{G, INIT_CWND, MAX_CWND};
use flexpass_transport::expresspass::waste_credit;

use crate::config::{FlexPassConfig, SplitPolicy};

/// Timer kind: sender retransmission / credit re-request backstop.
const TK_RTO: u16 = 9;
/// Timer kind: reactive sub-flow stall (tail-loss) detector.
const TK_R_RTO: u16 = 14;

/// Per-sub-flow sequence bookkeeping: maps sub-flow sequence numbers to the
/// flow-level packets they carried and tracks which are still outstanding.
#[derive(Debug, Default)]
struct SubflowTx {
    /// `sub_seq -> flow_seq`.
    map: Vec<u32>,
    /// Closed slots: acknowledged, deemed lost, or superseded. Every slot
    /// below its frontier is closed, so scans start there.
    closed: SeqFrontier,
    /// Open (in-flight) slots.
    inflight: u32,
    /// Highest slot acknowledged (cumulative or selective).
    high_acked: u32,
}

impl SubflowTx {
    fn assign(&mut self, flow_seq: u32) -> u32 {
        let sub_seq = self.map.len() as u32;
        self.map.push(flow_seq);
        self.inflight += 1;
        sub_seq
    }

    fn next_seq(&self) -> u32 {
        self.map.len() as u32
    }

    fn close(&mut self, sub_seq: u32) {
        if sub_seq < self.next_seq() && self.closed.insert(sub_seq) {
            self.inflight -= 1;
        }
    }

    /// The lowest open slot in `from..to`.
    fn next_open(&self, from: u32, to: u32) -> Option<u32> {
        let to = to.min(self.next_seq());
        Some(self.closed.next(from, to, false)).filter(|&s| s < to)
    }

    /// Applies a cumulative + selective ACK; fills `newly` (cleared first)
    /// with the slots it closed. The buffer is caller-owned scratch so
    /// per-ACK processing allocates nothing once warm.
    fn apply_ack(&mut self, ack: &AckInfo, newly: &mut Vec<u32>) {
        newly.clear();
        for (mut lo, hi) in ack.ranges(self.closed.cum()) {
            if hi > 0 {
                self.high_acked = self.high_acked.max(hi - 1);
            }
            while let Some(s) = self.next_open(lo, hi) {
                self.close(s);
                newly.push(s);
                lo = s + 1;
            }
        }
    }

    /// Open slots presumed lost because at least `dup_thresh` later slots
    /// were acknowledged. Results are
    /// appended to the caller's reusable `lost` buffer (cleared first) so
    /// the per-ACK path stays allocation-free in steady state.
    fn sweep_lost(&self, dup_thresh: u32, lost: &mut Vec<u32>) {
        lost.clear();
        let limit = (self.high_acked + 1).saturating_sub(dup_thresh);
        let mut at = self.closed.cum();
        while let Some(s) = self.next_open(at, limit) {
            lost.push(s);
            at = s + 1;
        }
    }
}

/// The FlexPass sender endpoint.
pub struct FlexPassSender {
    spec: FlowSpec,
    cfg: FlexPassConfig,
    /// Figure-4 per-packet states, indexed by `flow_seq`.
    sb: Scoreboard,
    /// Last reactive sub-seq each packet was assigned, if any.
    rseq_of: Vec<Option<u32>>,
    /// Last proactive sub-seq each packet was assigned, if any.
    pseq_of: Vec<Option<u32>>,
    reactive: SubflowTx,
    proactive: SubflowTx,
    rwin: DctcpWindow,
    /// Frontier for RC3-style tail allocation.
    tail: i64,
    /// Full-stall timer: no ACK on either sub-flow for a (backed-off) RTO.
    rto: RtoTimer,
    /// Reactive tail-loss timer: progress is a reactive ACK closing
    /// outstanding slots; it never backs off.
    r_rto: RtoTimer,
    /// Reusable sub-seq scratch for ACK application and loss sweeps
    /// (take/restore around iteration; never reallocated once warm).
    seq_scratch: Vec<u32>,
    stats: TxStats,
    done: bool,
}

impl FlexPassSender {
    /// Creates a sender for `spec`.
    pub fn new(spec: FlowSpec, cfg: FlexPassConfig, _env: &NetEnv) -> Self {
        let n = packets_for(spec.size).get();
        FlexPassSender {
            spec,
            cfg,
            sb: Scoreboard::new(n),
            rseq_of: vec![None; n as usize],
            pseq_of: vec![None; n as usize],
            reactive: SubflowTx::default(),
            proactive: SubflowTx::default(),
            rwin: DctcpWindow::new(INIT_CWND, G, MAX_CWND),
            tail: i64::from(n) - 1,
            rto: RtoTimer::new(spec.id, TK_RTO),
            r_rto: RtoTimer::new(spec.id, TK_R_RTO),
            seq_scratch: Vec::new(),
            stats: TxStats::default(),
            done: false,
        }
    }

    /// Transmission statistics so far.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    /// Reactive congestion window (introspection).
    pub fn reactive_cwnd(&self) -> f64 {
        self.rwin.cwnd()
    }

    /// Keeps the full-stall RTO armed while the flow is live.
    fn update_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto.update(ctx, !self.done, MIN_RTO);
    }

    /// Keeps the reactive tail-loss timer armed while reactive slots are
    /// outstanding.
    fn update_reactive_rto(&mut self, ctx: &mut EndpointCtx) {
        let live = !self.done && self.reactive.inflight > 0;
        self.r_rto.update(ctx, live, MIN_RTO);
    }

    fn send_request(&mut self, ctx: &mut EndpointCtx) {
        ctx.send(Packet::to_receiver(
            &self.spec,
            TrafficClass::NewCtrl,
            Payload::CreditReq {
                pkts: self.sb.total(),
            },
        ));
        self.update_rto(ctx);
    }

    /// Highest `Pending` packet from the tail (RC3 variant).
    fn next_tail_pending(&mut self) -> Option<u32> {
        while self.tail >= 0 && self.sb.state(self.tail as u32) != PktState::Pending {
            self.tail -= 1;
        }
        (self.tail >= 0).then_some(self.tail as u32)
    }

    fn data_packet(&self, flow_seq: u32, sub: Subflow, sub_seq: u32, retx: bool) -> Packet {
        let class = match sub {
            Subflow::Reactive => self.cfg.reactive_class,
            _ => TrafficClass::NewData,
        };
        let p = Packet::data(&self.spec, class, flow_seq, sub, sub_seq, retx);
        if sub == Subflow::Reactive {
            // Reactive packets are red (selectively droppable) and
            // ECN-capable so DCTCP-style marking throttles them early.
            p.red().ecn()
        } else {
            p
        }
    }

    /// Sends `flow_seq` on the reactive sub-flow.
    fn send_reactive(&mut self, flow_seq: u32, ctx: &mut EndpointCtx) {
        debug_assert_eq!(self.sb.state(flow_seq), PktState::Pending);
        let sub_seq = self.reactive.assign(flow_seq);
        self.rseq_of[flow_seq as usize] = Some(sub_seq);
        self.sb.set(flow_seq, PktState::SentReactive);
        let pkt = self.data_packet(flow_seq, Subflow::Reactive, sub_seq, false);
        self.stats.count_data(pkt.payload_bytes(), false);
        ctx.send(pkt);
        self.update_rto(ctx);
        self.update_reactive_rto(ctx);
    }

    /// Pumps the reactive window: new data only (the reactive sub-flow is
    /// never used for retransmission, §4.2).
    fn pump_reactive(&mut self, ctx: &mut EndpointCtx) {
        let cwnd = self.rwin.cwnd_pkts();
        while self.reactive.inflight < cwnd {
            let seq = match self.cfg.split {
                SplitPolicy::Shared => self.sb.next_new(),
                SplitPolicy::Rc3Tail => self.next_tail_pending(),
            };
            match seq {
                Some(s) => self.send_reactive(s, ctx),
                None => break,
            }
        }
    }

    /// Handles a credit: transmit on the proactive sub-flow in the paper's
    /// priority order — Lost, then Pending, then Sent-as-reactive.
    fn on_credit(&mut self, _credit: CreditInfo, ctx: &mut EndpointCtx) {
        self.stats.credits_received += 1;
        enum Kind {
            LossRecovery,
            NewData,
            ProactiveRetx,
        }
        let (flow_seq, kind) = if let Some(s) = self.sb.first_lost() {
            (s, Kind::LossRecovery)
        } else if let Some(s) = self.sb.next_new() {
            (s, Kind::NewData)
        } else if let Some(s) = self
            .sb
            .first_sent_reactive()
            .filter(|_| self.cfg.proactive_retx)
        {
            (s, Kind::ProactiveRetx)
        } else {
            waste_credit(&mut self.stats, self.spec.id);
            return;
        };
        let retx = !matches!(kind, Kind::NewData);
        let sub_seq = self.proactive.assign(flow_seq);
        self.pseq_of[flow_seq as usize] = Some(sub_seq);
        self.sb.set(flow_seq, PktState::SentProactive);
        let pkt = self.data_packet(flow_seq, Subflow::Proactive, sub_seq, retx);
        self.stats
            .count_data(pkt.payload_bytes(), matches!(kind, Kind::LossRecovery));
        if let Kind::ProactiveRetx = kind {
            self.stats.proactive_retx_pkts += 1;
            self.stats.redundant_bytes += pkt.payload_bytes().get();
        }
        if retx {
            hooks::record(|t_ns| TraceEvent::Retransmit {
                t_ns,
                flow: self.spec.id,
                seq: i64::from(flow_seq),
            });
        }
        ctx.send(pkt);
        self.update_rto(ctx);
        // A proactive send may have consumed a `SentReactive` packet; the
        // reactive timer keys off open slots, which are unchanged here, so
        // no reactive update is needed.
    }

    /// Marks `flow_seq` acknowledged, closing any open sub-flow slots that
    /// carried it.
    fn ack_flow_seq(&mut self, flow_seq: u32) {
        if self.sb.state(flow_seq) == PktState::Acked {
            return;
        }
        self.sb.set(flow_seq, PktState::Acked);
        if let Some(r) = self.rseq_of[flow_seq as usize] {
            self.reactive.close(r);
        }
        if let Some(p) = self.pseq_of[flow_seq as usize] {
            self.proactive.close(p);
        }
    }

    /// The slot bookkeeping of sub-flow `sub`.
    fn tx(&mut self, sub: Subflow) -> &mut SubflowTx {
        match sub {
            Subflow::Reactive => &mut self.reactive,
            _ => &mut self.proactive,
        }
    }

    /// Closes slot `sub_seq` of sub-flow `sub` as lost. If that slot
    /// carried the packet's latest copy — the packet is still in the
    /// sub-flow's sent state — the packet becomes `Lost`, to be recovered
    /// on the proactive sub-flow (§4.2, §4.3).
    fn lose_slot(&mut self, sub: Subflow, sub_seq: u32) {
        let tx = self.tx(sub);
        tx.close(sub_seq);
        let flow_seq = tx.map[sub_seq as usize];
        let sent = match sub {
            Subflow::Reactive => PktState::SentReactive,
            _ => PktState::SentProactive,
        };
        if self.sb.state(flow_seq) == sent {
            self.sb.set(flow_seq, PktState::Lost);
        }
    }

    /// Applies an ACK of sub-flow `sub`: acknowledges the packets of the
    /// slots it closes, then loses the open slots with >= 3 acknowledged
    /// above them (SACK-based loss detection). Returns how many slots the
    /// ACK closed and whether the sweep lost any.
    fn apply_and_sweep(&mut self, sub: Subflow, ack: &AckInfo) -> (u64, bool) {
        let mut seqs = std::mem::take(&mut self.seq_scratch);
        self.tx(sub).apply_ack(ack, &mut seqs);
        let n_new = seqs.len() as u64;
        for &sub_seq in &seqs {
            let flow_seq = self.tx(sub).map[sub_seq as usize];
            self.ack_flow_seq(flow_seq);
        }
        self.tx(sub).sweep_lost(3, &mut seqs);
        let had_loss = !seqs.is_empty();
        for &sub_seq in &seqs {
            self.lose_slot(sub, sub_seq);
        }
        seqs.clear();
        self.seq_scratch = seqs;
        (n_new, had_loss)
    }

    fn on_reactive_ack(&mut self, ack: &AckInfo, ctx: &mut EndpointCtx) {
        let (n_new, had_loss) = self.apply_and_sweep(Subflow::Reactive, ack);
        if n_new > 0 {
            self.rto.progress(ctx.now);
            self.r_rto.progress(ctx.now);
            self.rwin.on_ack(
                n_new,
                self.reactive.high_acked,
                ack.ece,
                self.reactive.next_seq(),
            );
        } else if ack.ece {
            // Window update from a duplicate ACK still carries the mark.
            self.rwin
                .on_ack(0, self.reactive.high_acked, true, self.reactive.next_seq());
        }
        if had_loss {
            self.rwin
                .on_loss(self.reactive.high_acked, self.reactive.next_seq());
        }
        self.check_done(ctx);
        if !self.done {
            self.pump_reactive(ctx);
        }
        self.update_rto(ctx);
        self.update_reactive_rto(ctx);
    }

    fn on_proactive_ack(&mut self, ack: &AckInfo, ctx: &mut EndpointCtx) {
        if self.apply_and_sweep(Subflow::Proactive, ack).0 > 0 {
            self.rto.progress(ctx.now);
        }
        self.check_done(ctx);
        self.update_rto(ctx);
        // A proactive ACK can close stale reactive slots via `ack_flow_seq`.
        self.update_reactive_rto(ctx);
    }

    fn check_done(&mut self, ctx: &mut EndpointCtx) {
        if self.sb.all_acked() && !self.done {
            self.done = true;
            ctx.emit(AppEvent::SenderDone {
                flow: self.spec.id,
                stats: self.stats,
            });
        }
    }

    /// Reactive tail-loss handling: if the reactive sub-flow made no
    /// progress for a full RTO while slots are outstanding, the tail of its
    /// window was dropped with no later ACKs to reveal it. Close every open
    /// slot (recovery rides the proactive sub-flow, §4.2) and restart the
    /// window conservatively.
    fn on_reactive_rto(&mut self, ctx: &mut EndpointCtx) {
        self.r_rto.fired();
        let mut at = self.reactive.closed.cum();
        while let Some(s) = self.reactive.next_open(at, u32::MAX) {
            self.lose_slot(Subflow::Reactive, s);
            at = s + 1;
        }
        self.rwin.on_timeout(self.reactive.next_seq());
        self.r_rto.progress(ctx.now);
        self.pump_reactive(ctx);
        self.update_rto(ctx);
        self.update_reactive_rto(ctx);
    }

    fn on_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto.fired();
        // Full stall: presume all in-flight packets lost, re-request
        // credits, and restart the reactive window from one packet. Only
        // count a timeout when data was actually outstanding.
        self.rto.back_off(ctx.now);
        if self.sb.in_flight() > 0 {
            self.stats.timeouts += 1;
        }
        for s in 0..self.sb.total() {
            if self.sb.state(s).in_flight() {
                if let Some(r) = self.rseq_of[s as usize] {
                    self.lose_slot(Subflow::Reactive, r);
                }
                if let Some(p) = self.pseq_of[s as usize] {
                    self.lose_slot(Subflow::Proactive, p);
                }
            }
        }
        self.rwin.on_timeout(self.reactive.next_seq());
        self.send_request(ctx);
        // All reactive slots were closed above; retire the tail-loss timer.
        self.update_reactive_rto(ctx);
    }
}

impl Endpoint for FlexPassSender {
    fn activate(&mut self, ctx: &mut EndpointCtx) {
        self.rto.progress(ctx.now);
        self.r_rto.progress(ctx.now);
        self.send_request(ctx);
        if self.cfg.reactive_first_rtt {
            // Unlike the proactive sub-flow (which waits one RTT for
            // credits), the reactive sub-flow may transmit immediately.
            self.pump_reactive(ctx);
        }
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        match pkt.payload {
            Payload::Credit(c) => self.on_credit(c, ctx),
            Payload::Ack(a) => match a.sub {
                Subflow::Reactive => self.on_reactive_ack(&a, ctx),
                Subflow::Proactive => self.on_proactive_ack(&a, ctx),
                Subflow::Only => {}
            },
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        match timer_kind(token) {
            TK_RTO => self.on_rto(ctx),
            TK_R_RTO => self.on_reactive_rto(ctx),
            _ => {}
        }
    }

    fn finished(&self) -> bool {
        // Both timers are cancelled on completion (see `check_done`
        // callers), so the endpoint can be dropped immediately.
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simcore::rng::SimRng;
    use flexpass_simcore::time::Time;
    use flexpass_simcore::units::Bytes;
    use flexpass_simnet::loopback::{flow, Driver, ENV};
    use flexpass_simnet::packet::{Color, DataInfo};
    use flexpass_simnet::sim::timer_token;
    use proptest::prelude::*;

    fn spec(size: u64) -> FlowSpec {
        flow(5, Bytes::new(size))
    }

    /// The data headers among `sent`, in emission order.
    fn data_sent(sent: &[Packet]) -> Vec<DataInfo> {
        sent.iter()
            .filter_map(|p| match p.payload {
                Payload::Data(d) => Some(d),
                _ => None,
            })
            .collect()
    }

    fn credit(idx: u32) -> Packet {
        let credit = Payload::Credit(CreditInfo { idx });
        Packet::to_sender(&spec(0), TrafficClass::Credit, credit)
    }

    fn ack(sub: Subflow, cum: u32, ece: bool) -> Packet {
        let ack = AckInfo {
            sub,
            cum,
            sack: [(0, 0); 3],
            sack_n: 0,
            ece,
            acked_flow_seq: cum.saturating_sub(1),
        };
        Packet::to_sender(&spec(0), TrafficClass::NewCtrl, Payload::Ack(ack))
    }

    /// [`ack`] with `[lo, hi)` as its one SACK block.
    fn sack_ack(sub: Subflow, cum: u32, lo: u32, hi: u32) -> Packet {
        let mut pkt = ack(sub, cum, false);
        if let Payload::Ack(a) = &mut pkt.payload {
            (a.sack[0], a.sack_n, a.acked_flow_seq) = ((lo, hi), 1, hi.saturating_sub(1));
        }
        pkt
    }

    #[test]
    fn first_rtt_reactive_burst_and_credit_request() {
        let mut s = FlexPassSender::new(spec(100 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        // One CreditReq + init_cwnd (10) reactive packets.
        assert_eq!(drv.sent.len(), 11);
        assert!(matches!(
            drv.sent[0].payload,
            Payload::CreditReq { pkts: 100 }
        ));
        for p in &drv.sent[1..] {
            match p.payload {
                Payload::Data(d) => {
                    assert_eq!(d.sub, Subflow::Reactive);
                    assert!(p.ecn_capable);
                    assert_eq!(p.color, Color::Red);
                }
                _ => panic!("expected reactive data"),
            }
        }
        assert_eq!(s.reactive.inflight, 10);
    }

    #[test]
    fn credit_sends_pending_then_proactive_retx() {
        let cfg = FlexPassConfig::new(0.5);
        let mut s = FlexPassSender::new(spec(3 * 1460), cfg, &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        // All 3 packets went reactive (cwnd 10 > 3). A credit now has no
        // Lost/Pending left: proactive retransmission of packet 0.
        let before = drv.sent.len();
        drv.call(Time::ZERO, |ctx| s.on_packet(&credit(0), ctx));
        assert_eq!(drv.sent.len(), before + 1);
        match drv.sent.last().unwrap().payload {
            Payload::Data(d) => {
                assert_eq!(d.sub, Subflow::Proactive);
                assert_eq!(d.flow_seq, 0);
                assert!(d.retx);
            }
            _ => panic!("expected proactive data"),
        }
        assert_eq!(s.stats().proactive_retx_pkts, 1);
        assert_eq!(s.sb.state(0), PktState::SentProactive);
    }

    #[test]
    fn proactive_retx_disabled_wastes_credit() {
        let mut cfg = FlexPassConfig::new(0.5);
        cfg.proactive_retx = false;
        let mut s = FlexPassSender::new(spec(3 * 1460), cfg, &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        drv.call(Time::ZERO, |ctx| s.on_packet(&credit(0), ctx));
        assert_eq!(s.stats().credits_wasted, 1);
    }

    #[test]
    fn lost_has_highest_credit_priority() {
        let mut s = FlexPassSender::new(spec(50 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        // Reactive sent 0..10. SACK far above rseq 2 implies it was lost.
        drv.call(Time::ZERO, |ctx| {
            s.on_packet(&sack_ack(Subflow::Reactive, 2, 5, 9), ctx)
        });
        assert_eq!(s.sb.state(2), PktState::Lost);
        // Next credit must carry packet 2 (loss recovery beats new data).
        let before = drv.sent.len();
        drv.call(Time::ZERO, |ctx| s.on_packet(&credit(0), ctx));
        match drv.sent[before..]
            .iter()
            .find(|p| p.is_data())
            .expect("data sent")
            .payload
        {
            Payload::Data(d) => {
                assert_eq!(d.flow_seq, 2);
                assert_eq!(d.sub, Subflow::Proactive);
                assert!(d.retx);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn reactive_never_retransmits() {
        let mut s = FlexPassSender::new(spec(30 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        // Loss detected on rseq 0 via sacks above; window opens on 7 acks.
        drv.call(Time::ZERO, |ctx| {
            s.on_packet(&sack_ack(Subflow::Reactive, 0, 1, 8), ctx)
        });
        assert_eq!(s.sb.state(0), PktState::Lost);
        for d in data_sent(&drv.sent) {
            if d.sub == Subflow::Reactive {
                assert!(!d.retx, "reactive retransmission is forbidden");
            }
        }
        // And the lost packet never reappears with a reactive header.
        let reactive0 = data_sent(&drv.sent)
            .iter()
            .filter(|d| d.sub == Subflow::Reactive && d.flow_seq == 0)
            .count();
        assert_eq!(reactive0, 1);
    }

    #[test]
    fn proactive_ack_clears_stale_reactive_slot() {
        let mut s = FlexPassSender::new(spec(3 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        assert_eq!(s.reactive.inflight, 3);
        // Credit triggers proactive retx of packet 0; its proactive ACK must
        // release the reactive slot so the window is not pinned.
        drv.call(Time::ZERO, |ctx| s.on_packet(&credit(0), ctx));
        drv.call(Time::ZERO, |ctx| {
            s.on_packet(&ack(Subflow::Proactive, 1, false), ctx)
        });
        assert_eq!(s.sb.state(0), PktState::Acked);
        assert_eq!(s.reactive.inflight, 2);
    }

    #[test]
    fn reactive_loss_spares_a_packet_resent_proactively() {
        let mut s = FlexPassSender::new(spec(5 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        // All 5 packets went reactive; a credit resends packet 0 proactively.
        drv.call(Time::ZERO, |ctx| s.on_packet(&credit(0), ctx));
        assert_eq!(s.sb.state(0), PktState::SentProactive);
        // SACKs of reactive slots 1..5 sweep slot 0 as lost, but the
        // packet's latest copy rides the proactive sub-flow: not `Lost`.
        drv.call(Time::ZERO, |ctx| {
            s.on_packet(&sack_ack(Subflow::Reactive, 0, 1, 5), ctx)
        });
        assert_eq!(s.reactive.inflight, 0);
        assert_eq!(s.sb.state(0), PktState::SentProactive);
        // So the next credit has nothing to carry.
        let before = drv.sent.len();
        drv.call(Time::ZERO, |ctx| s.on_packet(&credit(1), ctx));
        assert_eq!(drv.sent.len(), before);
        assert_eq!(s.stats().credits_wasted, 1);
    }

    #[test]
    fn completes_via_mixed_acks() {
        let mut s = FlexPassSender::new(spec(4 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        drv.call(Time::ZERO, |ctx| {
            s.on_packet(&ack(Subflow::Reactive, 4, false), ctx)
        });
        assert!(s.done);
        assert_eq!(drv.out.app.len(), 1);
        match drv.out.app[0] {
            AppEvent::SenderDone { stats, .. } => {
                assert_eq!(stats.data_pkts, 4);
                assert_eq!(stats.timeouts, 0);
            }
            _ => panic!("expected SenderDone"),
        }
    }

    #[test]
    fn ece_shrinks_reactive_window() {
        let mut s = FlexPassSender::new(spec(500 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        // Ack everything outstanding with marks, repeatedly; the window must
        // stay bounded rather than doubling away.
        let mut cum = 0;
        for _ in 0..12 {
            let upto = s.reactive.next_seq();
            while cum < upto {
                cum += 1;
                drv.call(Time::ZERO, |ctx| {
                    s.on_packet(&ack(Subflow::Reactive, cum, true), ctx)
                });
            }
        }
        assert!(
            s.reactive_cwnd() < 64.0,
            "cwnd {} should be suppressed by marks",
            s.reactive_cwnd()
        );
    }

    #[test]
    fn rc3_tail_allocation() {
        let cfg = FlexPassConfig::rc3_splitting(0.5);
        let mut s = FlexPassSender::new(spec(100 * 1460), cfg, &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        // Reactive packets come from the end of the flow.
        let reactive_seqs: Vec<u32> = data_sent(&drv.sent)
            .iter()
            .filter(|d| d.sub == Subflow::Reactive)
            .map(|d| d.flow_seq)
            .collect();
        assert_eq!(reactive_seqs, (90..100).rev().collect::<Vec<_>>());
        // Credits pull from the head.
        drv.call(Time::ZERO, |ctx| s.on_packet(&credit(0), ctx));
        match drv.sent.last().unwrap().payload {
            Payload::Data(d) => {
                assert_eq!(d.flow_seq, 0);
                assert_eq!(d.sub, Subflow::Proactive);
            }
            _ => panic!("expected proactive head packet"),
        }
    }

    #[test]
    fn rto_marks_all_inflight_lost_and_rerequests() {
        let mut s = FlexPassSender::new(spec(20 * 1460), FlexPassConfig::new(0.5), &ENV);
        let mut drv = Driver::default();
        drv.call(Time::ZERO, |ctx| s.activate(ctx));
        // Fire the timer well past the deadline.
        drv.call(Time::from_millis(100), |ctx| {
            s.on_timer(timer_token(5, TK_RTO), ctx)
        });
        assert_eq!(s.stats().timeouts, 1);
        assert!((0..10).all(|i| s.sb.state(i) == PktState::Lost));
        assert_eq!(s.reactive.inflight, 0);
        // A second CreditReq went out.
        let reqs = drv
            .sent
            .iter()
            .filter(|p| matches!(p.payload, Payload::CreditReq { .. }))
            .count();
        assert_eq!(reqs, 2);
    }

    #[test]
    fn subflow_tx_sweep_lost() {
        let mut t = SubflowTx::default();
        for fs in 0..10 {
            t.assign(fs);
        }
        // Slots 5..9 acked: slots 0..4 have >= 3 acks above once high_acked
        // reaches 8, so everything below 6 is sweepable.
        for s in 5..10 {
            t.close(s);
        }
        t.high_acked = 9;
        let mut lost = Vec::new();
        t.sweep_lost(3, &mut lost);
        assert_eq!(lost, vec![0, 1, 2, 3, 4]);
    }

    /// A random sub-flow ACK over `next` assigned slots: the cumulative
    /// point is stale (at or below `frontier`, the lowest open slot) or
    /// random, and the SACK blocks may overlap, be empty or run past
    /// `next`.
    fn random_sub_ack(rng: &mut SimRng, next: u32, frontier: u32) -> AckInfo {
        let cum = match rng.chance(0.5) {
            true => rng.next_below(u64::from(frontier) + 1) as u32,
            false => rng.next_below(u64::from(next) + 8) as u32,
        };
        let mut sack = [(0, 0); 3];
        for b in &mut sack {
            let lo = rng.next_below(u64::from(next) + 8) as u32;
            *b = (lo, lo + rng.next_below(40) as u32);
        }
        let sack_n = rng.next_below(4) as u8;
        AckInfo {
            sub: Subflow::Reactive,
            cum,
            sack,
            sack_n,
            ece: false,
            acked_flow_seq: 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `SubflowTx` against a `Vec<bool>` model of its closed slots over
        /// random assign / ACK / slot-loss tapes: the slots an ACK closes,
        /// in ACK order (the cumulative range, then each block ascending),
        /// the open count, the highest acknowledged slot and the
        /// `sweep_lost(3)` output.
        #[test]
        fn subflow_tx_matches_model(seed in 0u64..100_000) {
            let mut rng = SimRng::new(seed);
            let mut t = SubflowTx::default();
            let (mut closed, mut high) = (Vec::<bool>::new(), 0u32);
            let (mut newly, mut lost) = (Vec::new(), Vec::new());
            for _ in 0..300 {
                let next = closed.len() as u32;
                match rng.next_below(5) {
                    0 => {
                        for _ in 0..=rng.next_below(8) {
                            prop_assert_eq!(t.assign(7), closed.len() as u32);
                            closed.push(false);
                        }
                    }
                    1 if next > 0 => {
                        let s = rng.next_below(u64::from(next)) as usize;
                        t.close(s as u32);
                        closed[s] = true;
                    }
                    _ => {
                        let frontier = closed.iter().position(|&c| !c).unwrap_or(closed.len());
                        let ack = random_sub_ack(&mut rng, next, frontier as u32);
                        let mut want = Vec::new();
                        let blocks = ack.sack[..ack.sack_n as usize].iter();
                        for &(lo, hi) in std::iter::once(&(0, ack.cum)).chain(blocks) {
                            for s in lo..hi.min(next) {
                                if !std::mem::replace(&mut closed[s as usize], true) {
                                    want.push(s);
                                }
                            }
                            high = high.max(hi.saturating_sub(1));
                        }
                        t.apply_ack(&ack, &mut newly);
                        prop_assert_eq!(&newly, &want);
                    }
                }
                prop_assert_eq!(t.inflight as usize, closed.iter().filter(|&&c| !c).count());
                prop_assert_eq!(t.high_acked, high);
                let limit = (high + 1).saturating_sub(3).min(closed.len() as u32);
                let want: Vec<u32> = (0..limit).filter(|&s| !closed[s as usize]).collect();
                t.sweep_lost(3, &mut lost);
                prop_assert_eq!(&lost, &want);
            }
        }
    }
}
