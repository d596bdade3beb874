//! Property tests for the FlexPass sender's Figure-4 state machine, driven
//! directly with synthetic credits and acknowledgments.

// A test may use what clippy.toml bans: this one keys a HashMap by Subflow.
#![allow(clippy::disallowed_types)]

use flexpass::config::FlexPassConfig;
use flexpass::FlexPassSender;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::Bytes;
use flexpass_simnet::arena::PacketArena;
use flexpass_simnet::consts::CTRL_WIRE;
use flexpass_simnet::endpoint::{AppEvent, Endpoint, EndpointCtx, TimerCmd};
use flexpass_simnet::packet::{
    AckInfo, CreditInfo, DataInfo, FlowSpec, Packet, Payload, Subflow, TrafficClass,
};
use flexpass_simnet::sim::NetEnv;
use proptest::prelude::*;
use std::collections::HashMap;

fn env() -> NetEnv {
    NetEnv {
        host_rate: Rate::from_gbps(10),
        base_rtt: TimeDelta::micros(20),
        n_hosts: 2,
    }
}

fn spec(n_pkts: u32) -> FlowSpec {
    FlowSpec {
        id: 9,
        src: 0,
        dst: 1,
        size: Bytes::new(1460) * u64::from(n_pkts),
        start: Time::ZERO,
        tag: 0,
        fg: false,
    }
}

fn credit(idx: u32) -> Packet {
    Packet::new(
        9,
        1,
        0,
        CTRL_WIRE,
        TrafficClass::Credit,
        Payload::Credit(CreditInfo { idx }),
    )
}

fn ack(sub: Subflow, cum: u32, lo: u32, hi: u32) -> Packet {
    let sack_n = u8::from(hi > lo);
    Packet::new(
        9,
        1,
        0,
        CTRL_WIRE,
        TrafficClass::NewCtrl,
        Payload::Ack(AckInfo {
            sub,
            cum,
            sack: [(lo, hi), (0, 0), (0, 0)],
            sack_n,
            ece: false,
            acked_flow_seq: hi.max(cum).saturating_sub(1),
        }),
    )
}

/// A synthetic "network + receiver" that delivers a configurable fraction
/// of packets and acknowledges per sub-flow, in order.
struct FakeReceiver {
    /// Received sub-seqs per sub-flow.
    got: HashMap<Subflow, Vec<bool>>,
}

impl FakeReceiver {
    fn new() -> Self {
        let mut got = HashMap::new();
        got.insert(Subflow::Reactive, Vec::new());
        got.insert(Subflow::Proactive, Vec::new());
        FakeReceiver { got }
    }

    /// Records delivery of a data packet; returns the ACK to feed back.
    fn deliver(&mut self, d: DataInfo) -> Packet {
        let v = self.got.get_mut(&d.sub).expect("subflow");
        if d.sub_seq as usize >= v.len() {
            v.resize(d.sub_seq as usize + 1, false);
        }
        v[d.sub_seq as usize] = true;
        let cum = v.iter().position(|&g| !g).unwrap_or(v.len()) as u32;
        // Single SACK range around the newest arrival.
        let mut lo = d.sub_seq;
        while lo > cum && v[(lo - 1) as usize] {
            lo -= 1;
        }
        let mut hi = d.sub_seq + 1;
        while (hi as usize) < v.len() && v[hi as usize] {
            hi += 1;
        }
        ack(d.sub, cum, lo.max(cum), hi.max(cum))
    }
}

/// Applies buffered timer commands to a one-slot-per-token table and
/// returns the tokens due at `now`, mimicking the simulator's arm/cancel
/// bookkeeping (Set and Arm both land in the table; Cancel clears it).
fn drain_timers(
    armed: &mut std::collections::BTreeMap<u64, Time>,
    tm: &mut Vec<TimerCmd>,
    now: Time,
) -> Vec<u64> {
    for cmd in tm.drain(..) {
        match cmd {
            TimerCmd::Set(at, tok) | TimerCmd::Arm(at, tok) => {
                armed.insert(tok, at);
            }
            TimerCmd::Cancel(tok) => {
                armed.remove(&tok);
            }
        }
    }
    let due: Vec<u64> = armed
        .iter()
        .filter(|&(_, &at)| at <= now)
        .map(|(&tok, _)| tok)
        .collect();
    for tok in &due {
        armed.remove(tok);
    }
    due
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any pattern of packet drops, enough credits eventually deliver
    /// the whole flow: the state machine never deadlocks, never double
    /// counts, and reports SenderDone exactly once with consistent stats.
    #[test]
    fn sender_completes_under_random_drops(
        seed in 0u64..100_000,
        n in 1u32..120,
        drop_rate in 0.0f64..0.6,
    ) {
        let mut s = FlexPassSender::new(spec(n), FlexPassConfig::new(0.5), &env());
        let mut rx = FakeReceiver::new();
        let mut rng = SimRng::new(seed);
        let mut arena = PacketArena::new();
        let mut tx_ids = Vec::new();
        let mut tx = Vec::new();
        let mut tm = Vec::new();
        let mut app = Vec::new();
        let mut armed = std::collections::BTreeMap::new();
        let mut now = Time::ZERO;
        {
            let mut ctx = EndpointCtx::new(now, &mut arena, &mut tx_ids, &mut tm, &mut app);
            s.activate(&mut ctx);
        }
        arena.drain_into(&mut tx_ids, &mut tx);
        let mut credit_idx = 0u32;
        let mut rounds = 0;
        while !s.finished() && rounds < 50_000 {
            rounds += 1;
            now += TimeDelta::micros(3);
            // Process everything the sender emitted last step: data packets
            // are delivered or dropped; delivered ones produce acks that we
            // feed back immediately (plus the next credit).
            let outgoing: Vec<Packet> = std::mem::take(&mut tx);
            let mut inbound: Vec<Packet> = Vec::new();
            for p in outgoing {
                if let Payload::Data(d) = p.payload {
                    // Proactive packets are never congestion-dropped (§4.1);
                    // reactive packets drop at the given rate.
                    let dropped = d.sub == Subflow::Reactive && rng.chance(drop_rate);
                    if !dropped {
                        inbound.push(rx.deliver(d));
                    }
                }
            }
            // One credit per round keeps the proactive loop clocked.
            inbound.push(credit(credit_idx));
            credit_idx += 1;
            {
                let mut ctx = EndpointCtx::new(now, &mut arena, &mut tx_ids, &mut tm, &mut app);
                for p in inbound {
                    s.on_packet(&p, &mut ctx);
                }
            }
            arena.drain_into(&mut tx_ids, &mut tx);
            // Fire any due timers through the arm/cancel table.
            let due = drain_timers(&mut armed, &mut tm, now);
            {
                let mut ctx = EndpointCtx::new(now, &mut arena, &mut tx_ids, &mut tm, &mut app);
                for token in due {
                    s.on_timer(token, &mut ctx);
                }
            }
            arena.drain_into(&mut tx_ids, &mut tx);
        }
        prop_assert!(s.finished(), "sender wedged after {rounds} rounds (n={n})");
        let dones: Vec<_> = app
            .iter()
            .filter(|e| matches!(e, AppEvent::SenderDone { .. }))
            .collect();
        prop_assert_eq!(dones.len(), 1, "SenderDone emitted {} times", dones.len());
        if let AppEvent::SenderDone { stats, .. } = dones[0] {
            prop_assert!(stats.data_pkts >= n as u64);
            prop_assert!(stats.data_bytes >= n as u64 * 1460);
            // Redundant bytes are bounded by total sent bytes.
            prop_assert!(stats.redundant_bytes <= stats.data_bytes);
        }
    }

    /// With a lossless network, the flow completes with zero
    /// retransmissions and zero redundancy.
    #[test]
    fn lossless_run_has_no_redundancy(seed in 0u64..10_000, n in 1u32..100) {
        let mut s = FlexPassSender::new(spec(n), FlexPassConfig::new(0.5), &env());
        let mut rx = FakeReceiver::new();
        let _ = seed;
        let mut arena = PacketArena::new();
        let mut tx_ids = Vec::new();
        let mut tx = Vec::new();
        let mut tm = Vec::new();
        let mut app = Vec::new();
        let mut armed = std::collections::BTreeMap::new();
        let mut now = Time::ZERO;
        {
            let mut ctx = EndpointCtx::new(now, &mut arena, &mut tx_ids, &mut tm, &mut app);
            s.activate(&mut ctx);
        }
        arena.drain_into(&mut tx_ids, &mut tx);
        let mut credit_idx = 0u32;
        let mut rounds = 0;
        while !s.finished() && rounds < 10_000 {
            rounds += 1;
            now += TimeDelta::micros(2);
            let outgoing: Vec<Packet> = std::mem::take(&mut tx);
            let mut inbound = Vec::new();
            for p in outgoing {
                if let Payload::Data(d) = p.payload {
                    inbound.push(rx.deliver(d));
                }
            }
            // Only issue a credit while data remains; acks answer instantly,
            // so the sender should finish without ever needing recovery.
            inbound.push(credit(credit_idx));
            credit_idx += 1;
            {
                let mut ctx = EndpointCtx::new(now, &mut arena, &mut tx_ids, &mut tm, &mut app);
                for p in inbound {
                    s.on_packet(&p, &mut ctx);
                }
            }
            arena.drain_into(&mut tx_ids, &mut tx);
            // Fire due timers through the arm/cancel table.
            let due = drain_timers(&mut armed, &mut tm, now);
            {
                let mut ctx = EndpointCtx::new(now, &mut arena, &mut tx_ids, &mut tm, &mut app);
                for token in due {
                    s.on_timer(token, &mut ctx);
                }
            }
            arena.drain_into(&mut tx_ids, &mut tx);
        }
        prop_assert!(s.finished());
        prop_assert_eq!(s.stats().retx_pkts, 0);
        prop_assert_eq!(s.stats().timeouts, 0);
    }
}
