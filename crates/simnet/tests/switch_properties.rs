//! Property test for the switch's shared-buffer byte count: whatever mix of
//! arrivals, refusals, scheduled service and direct port drains a switch
//! sees, the count it admits against equals what its uncapped queues hold.

use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::{Bytes, WireBytes};
use flexpass_simnet::arena::PacketArena;
use flexpass_simnet::audit;
use flexpass_simnet::consts::{CTRL_WIRE, DATA_HEADER_WIRE};
use flexpass_simnet::packet::{CreditInfo, DataInfo, Packet, Payload, Subflow, TrafficClass};
use flexpass_simnet::port::{Decision, PortConfig, QueueSched};
use flexpass_simnet::queue::{DropReason, QueueConfig};
use flexpass_simnet::sim::Node;
use flexpass_simnet::switch::{ClassMap, Switch, SwitchProfile};
use flexpass_simnet::topology::Topology;
use proptest::prelude::*;

const HOSTS: usize = 4;

/// The FlexPass queue set with everything small, so a few dozen packets
/// reach the credit cap, the red threshold and the shared-buffer limits.
fn tight_profile() -> SwitchProfile {
    SwitchProfile {
        port: PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (
                    QueueConfig::capped(WireBytes::new(1_000)),
                    QueueSched::strict(0).shaped(Rate::from_mbps(50), CTRL_WIRE * 2),
                ),
                (
                    QueueConfig::plain()
                        .with_ecn(WireBytes::new(6_000))
                        .with_red_threshold(WireBytes::new(8_000)),
                    QueueSched::weighted(1, 0.5),
                ),
                (
                    QueueConfig::plain().with_ecn(WireBytes::new(9_000)),
                    QueueSched::weighted(1, 0.5),
                ),
            ],
        },
        class_map: ClassMap::Split {
            credit: 0,
            new_data: 1,
            new_ctrl: 1,
            legacy: 2,
        },
        shared_buffer: Some((WireBytes::new(60_000), 0.5)),
    }
}

fn star_switch() -> Switch {
    let profile = tight_profile();
    let topo = Topology::star(
        HOSTS,
        Rate::from_gbps(10),
        TimeDelta::micros(5),
        &profile,
        &profile,
    );
    match topo.nodes.into_iter().next() {
        Some(Node::Switch(s)) => s,
        _ => panic!("node 0 of a star is the switch"),
    }
}

fn random_packet(rng: &mut SimRng, flow: u64) -> Packet {
    let dst = rng.index(HOSTS);
    let src = (dst + 1 + rng.index(HOSTS - 1)) % HOSTS;
    if rng.chance(0.2) {
        return Packet::new(
            flow,
            src,
            dst,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        );
    }
    let wire = WireBytes::new(200 + rng.index(1_339) as u64);
    let class = if rng.chance(0.5) {
        TrafficClass::NewData
    } else {
        TrafficClass::Legacy
    };
    let pkt = Packet::new(
        flow,
        src,
        dst,
        wire,
        class,
        Payload::Data(DataInfo {
            flow_seq: 0,
            sub_seq: 0,
            sub: Subflow::Reactive,
            payload: Bytes::new(wire.get() - DATA_HEADER_WIRE.get()),
            retx: false,
        }),
    );
    if class == TrafficClass::NewData && rng.chance(0.6) {
        pkt.red()
    } else {
        pkt
    }
}

/// What `Switch::shared_used` must equal, recomputed through the ports'
/// public accessors.
fn queued_in_uncapped(sw: &Switch) -> WireBytes {
    sw.ports
        .iter()
        .flat_map(|p| (0..p.num_queues()).map(move |q| p.queue(q)))
        .filter(|q| q.config().cap_bytes == WireBytes::MAX)
        .map(|q| q.bytes())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shared_count_tracks_uncapped_queues(seed in 0u64..1_000_000) {
        audit::install();
        let mut rng = SimRng::new(seed);
        let mut sw = star_switch();
        let mut arena = PacketArena::new();
        let mut now = Time::ZERO;
        let (mut admitted, mut buffer, mut cap, mut red) = (0u32, 0u32, 0u32, 0u32);
        for step in 0..3_000u64 {
            let port = rng.index(HOSTS);
            match rng.index(20) {
                // An arrival: admitted, or refused for any of the reasons.
                0..=13 => {
                    let id = arena.acquire(random_packet(&mut rng, step));
                    match sw.receive(&mut arena, id) {
                        Ok(_) => admitted += 1,
                        Err((reason, id)) => {
                            arena.release(id);
                            match reason {
                                DropReason::Buffer => buffer += 1,
                                DropReason::QueueCap => cap += 1,
                                DropReason::SelectiveRed => red += 1,
                            }
                        }
                    }
                }
                // One service opportunity, as `Sim::port_ready` takes it.
                14..=18 => match sw.ports[port].next_packet(&mut arena, now) {
                    Decision::Send(id) => {
                        let wire = arena.release(id).expect("sent id is live").wire;
                        now += sw.ports[port].serialize(wire);
                    }
                    Decision::WaitUntil(t) => now = t,
                    Decision::Idle => {}
                },
                // A caller draining the port directly, past the switch.
                _ => {
                    while let Decision::Send(id) = sw.ports[port].next_packet(&mut arena, Time::MAX) {
                        arena.release(id);
                    }
                }
            }
            prop_assert_eq!(sw.shared_used(), queued_in_uncapped(&sw), "step {}", step);
        }
        prop_assert!(
            admitted > 0 && buffer > 0 && cap > 0 && red > 0,
            "every outcome exercised: {admitted} admitted, {buffer} buffer, {cap} cap, {red} red"
        );
        for port in &mut sw.ports {
            while let Decision::Send(id) = port.next_packet(&mut arena, Time::MAX) {
                arena.release(id);
            }
        }
        prop_assert_eq!(sw.shared_used(), WireBytes::ZERO);
        // The audit layer checked the same equality at every admission.
        let report = audit::finish();
        prop_assert!(report.is_clean(), "{}", report);
    }
}
