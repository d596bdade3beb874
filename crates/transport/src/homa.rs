//! A simplified Homa [Montazeri 2018] for the Figure 1(b) motivation
//! experiment: receiver-driven grants over strict priority queues.
//!
//! The sender blindly transmits one RTT worth of "unscheduled" packets; the
//! receiver then issues grants that keep one RTT of data in flight until the
//! message completes. Data packets carry a network priority the switch maps
//! to one of 8 strict queues ([`flexpass_simnet::switch::ClassMap::ByPrio`]).
//! Reliability uses the same per-packet ACK machinery as the other
//! transports (real Homa uses resend requests; the difference is immaterial
//! for the aggregate-throughput motivation experiment this backs).

use flexpass_simcore::units::Bytes;
use flexpass_simnet::consts::packets_for;
use flexpass_simnet::endpoint::{AppEvent, Endpoint, EndpointCtx, TxStats};
use flexpass_simnet::packet::{AckInfo, FlowSpec, GrantInfo, Packet, Payload, TrafficClass};
use flexpass_simnet::sim::{timer_kind, NetEnv, TransportFactory};

use crate::common::{data_packet, RtoTimer, RxTail, Scoreboard, MIN_RTO};

/// Timer kind: sender retransmission backstop.
const TK_RTO: u16 = 7;
/// Timer kind: receiver linger teardown.
const TK_LINGER: u16 = 8;

/// The Homa-lite priorities Figure 1(b) turns.
#[derive(Clone, Copy, Debug)]
pub struct HomaConfig {
    /// Priority used by unscheduled packets (0 is the network's highest).
    pub unsched_prio: u8,
    /// Priority granted to scheduled packets of large messages.
    pub sched_prio: u8,
}

impl Default for HomaConfig {
    fn default() -> Self {
        HomaConfig {
            unsched_prio: 1,
            sched_prio: 6,
        }
    }
}

/// One RTT worth of data (the unscheduled window and the granted in-flight
/// target): 25 kB ~ BDP of a 10 Gbps link at 20 us RTT.
const RTT_BYTES: Bytes = Bytes::new(25_000);

/// The unscheduled / grant window in packets.
fn rtt_pkts() -> u32 {
    packets_for(RTT_BYTES).get()
}

/// Homa-lite sender.
pub struct HomaSender {
    spec: FlowSpec,
    cfg: HomaConfig,
    sb: Scoreboard,
    granted: u32,
    rto: RtoTimer,
    stats: TxStats,
    done: bool,
}

impl HomaSender {
    /// Creates a sender for `spec`.
    pub fn new(spec: FlowSpec, cfg: HomaConfig, _env: &NetEnv) -> Self {
        let n = packets_for(spec.size).get();
        HomaSender {
            spec,
            cfg,
            sb: Scoreboard::new(n),
            granted: rtt_pkts().min(n),
            rto: RtoTimer::new(spec.id, TK_RTO),
            stats: TxStats::default(),
            done: false,
        }
    }

    fn update_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto.update(ctx, !self.done, MIN_RTO);
    }

    /// Sends everything currently authorized by `granted`: retransmissions
    /// first, all at priority `prio`.
    fn pump(&mut self, prio: u8, ctx: &mut EndpointCtx) {
        while let Some((seq, retx)) = self.sb.pick_below(self.granted) {
            let class = TrafficClass::NewData;
            let pkt = data_packet(&self.spec, class, seq, seq, retx, &mut self.stats);
            ctx.send(pkt.with_prio(prio));
        }
        self.update_rto(ctx);
    }

    fn on_ack(&mut self, ack: &AckInfo, ctx: &mut EndpointCtx) {
        let (newly, marked) = self.sb.read_ack(ack);
        if newly > 0 {
            self.rto.progress(ctx.now);
        }
        if marked == Some(true) {
            self.pump(self.cfg.sched_prio, ctx);
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

impl Endpoint for HomaSender {
    fn activate(&mut self, ctx: &mut EndpointCtx) {
        self.rto.progress(ctx.now);
        // Unscheduled burst: one RTT of data, blindly.
        self.pump(self.cfg.unsched_prio, ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        match pkt.payload {
            Payload::Grant(g) => {
                self.granted = self.granted.max(g.upto.min(self.sb.total()));
                self.pump(g.prio, ctx);
            }
            Payload::Ack(a) => self.on_ack(&a, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        if timer_kind(token) != TK_RTO {
            return;
        }
        self.rto.fired();
        self.stats.timeouts += 1;
        self.rto.back_off(ctx.now);
        self.sb.lose_outstanding();
        self.pump(self.cfg.sched_prio, ctx);
    }

    fn finished(&self) -> bool {
        // The RTO is cancelled on completion — no stale fire to wait out.
        self.done
    }
}

/// Homa-lite receiver: grants to keep one RTT in flight, acknowledges every
/// packet, reassembles, and completes.
pub struct HomaReceiver {
    cfg: HomaConfig,
    tail: RxTail,
    granted: u32,
}

impl HomaReceiver {
    /// Creates a receiver for `spec`.
    pub fn new(spec: FlowSpec, cfg: HomaConfig, _env: &NetEnv) -> Self {
        let n = packets_for(spec.size).get();
        HomaReceiver {
            cfg,
            tail: RxTail::new(&spec, TK_LINGER),
            granted: rtt_pkts().min(n),
        }
    }
}

impl Endpoint for HomaReceiver {
    fn activate(&mut self, _ctx: &mut EndpointCtx) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        if let Payload::Data(d) = pkt.payload {
            let class = TrafficClass::NewCtrl;
            self.tail.on_data(pkt, d, class, ctx);
            // Grant to keep one RTT of data outstanding (self-clocked).
            let reasm = self.tail.reasm();
            let target = (reasm.received_count() + rtt_pkts()).min(reasm.total());
            if target > self.granted && !reasm.complete() {
                self.granted = target;
                let grant = GrantInfo {
                    upto: target,
                    prio: self.cfg.sched_prio,
                };
                ctx.send(Packet::to_sender(
                    self.tail.spec(),
                    class,
                    Payload::Grant(grant),
                ));
            }
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

/// Factory producing Homa-lite flows.
pub struct HomaFactory {
    /// Configuration applied to every flow.
    pub cfg: HomaConfig,
}

impl HomaFactory {
    /// Factory with default parameters.
    pub fn new(cfg: HomaConfig) -> Self {
        HomaFactory { cfg }
    }
}

impl TransportFactory for HomaFactory {
    fn sender(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(HomaSender::new(*flow, self.cfg, env))
    }
    fn receiver(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        Box::new(HomaReceiver::new(*flow, self.cfg, env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simcore::time::{Rate, Time, TimeDelta};
    use flexpass_simcore::units::WireBytes;
    use flexpass_simnet::port::{PortConfig, QueueSched};
    use flexpass_simnet::queue::QueueConfig;
    use flexpass_simnet::sim::{NetObserver, Sim};
    use flexpass_simnet::switch::{ClassMap, SwitchProfile};
    use flexpass_simnet::topology::Topology;

    /// Eight strict priority queues, control at queue 0 (paper footnote 3).
    fn homa_profile(rate: Rate) -> SwitchProfile {
        SwitchProfile {
            port: PortConfig {
                rate,
                queues: (0..8)
                    .map(|i| (QueueConfig::plain(), QueueSched::strict(i)))
                    .collect(),
            },
            class_map: ClassMap::ByPrio {
                base: 0,
                n: 8,
                ctrl: 0,
                legacy: 0,
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
    fn single_message_completes_fast() {
        let p = homa_profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(HomaFactory::new(HomaConfig::default())),
            Fct { done: vec![] },
        );
        // 20 kB fits in the unscheduled window: completes in ~1 one-way +
        // serialization, well under one RTT + grants.
        sim.schedule_flow(flow(1, 0, 1, 20_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(5));
        let at = sim.observer.done[0].1;
        assert!(at < Time::from_micros(40), "unscheduled FCT {at:?}");
    }

    #[test]
    fn long_message_sustains_throughput() {
        let p = homa_profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(HomaFactory::new(HomaConfig::default())),
            Fct { done: vec![] },
        );
        sim.schedule_flow(flow(1, 0, 1, 5_000_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::millis(10));
        let fct = sim.observer.done[0].1.as_millis_f64();
        // Ideal 4.2 ms; grant clocking should stay close.
        assert!(fct < 5.5, "Homa long-flow FCT {fct} ms");
    }

    #[test]
    fn many_flows_all_complete() {
        let p = homa_profile(Rate::from_gbps(10));
        let topo = Topology::star(9, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(HomaFactory::new(HomaConfig::default())),
            Fct { done: vec![] },
        );
        for i in 0..16u64 {
            sim.schedule_flow(flow(i, (i % 8) as usize, 8, 200_000, Time::ZERO));
        }
        sim.run_to_completion(TimeDelta::millis(50));
        assert_eq!(sim.observer.done.len(), 16);
    }

    #[test]
    fn grants_cap_in_flight() {
        assert_eq!(rtt_pkts(), 18);
        let env = NetEnv {
            host_rate: Rate::from_gbps(10),
            base_rtt: TimeDelta::micros(20),
            n_hosts: 2,
        };
        let cfg = HomaConfig::default();
        let s = HomaSender::new(flow(1, 0, 1, 10_000_000, Time::ZERO), cfg, &env);
        assert_eq!(s.granted, 18);
    }
}
