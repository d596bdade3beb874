//! Property tests over topology construction and ECMP routing.

use flexpass_simcore::time::{Rate, TimeDelta};
use flexpass_simnet::packet::{Packet, Payload, TrafficClass};
use flexpass_simnet::port::{PortConfig, QueueSched};
use flexpass_simnet::queue::QueueConfig;
use flexpass_simnet::sim::{Node, NodeId};
use flexpass_simnet::switch::{ClassMap, SwitchProfile};
use flexpass_simnet::topology::{ClosParams, Topology};
use proptest::prelude::*;

fn profile() -> SwitchProfile {
    SwitchProfile {
        port: PortConfig {
            rate: Rate::from_gbps(40),
            queues: vec![(QueueConfig::plain(), QueueSched::strict(0))],
        },
        class_map: ClassMap::Single,
        shared_buffer: None,
    }
}

fn pkt(flow: u64, src: usize, dst: usize) -> Packet {
    Packet::new(
        flow,
        src,
        dst,
        flexpass_simnet::consts::DATA_WIRE,
        TrafficClass::Legacy,
        Payload::CreditReq { pkts: 0 },
    )
}

/// Follows hop-by-hop routing decisions; returns node ids visited.
fn walk(t: &Topology, p: Packet, from: NodeId) -> Vec<NodeId> {
    let mut path = vec![from];
    let mut cur = from;
    for _ in 0..32 {
        let next = match &t.nodes[cur] {
            Node::Host(h) => {
                if h.host_id == p.dst && path.len() > 1 {
                    break;
                }
                h.nic.peer
            }
            Node::Switch(s) => {
                let port = s.route(&p);
                s.ports[port].peer
            }
        };
        path.push(next);
        cur = next;
        if let Node::Host(h) = &t.nodes[cur] {
            if h.host_id == p.dst {
                break;
            }
        }
    }
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any valid Clos shape: every flow's forward path reaches its
    /// destination within 6 hops, and the reverse path visits exactly the
    /// same nodes (the symmetric-routing property ExpressPass needs).
    #[test]
    fn clos_routing_sound_and_symmetric(
        pods in 2usize..5,
        aggs_per_pod in prop::sample::select(vec![1usize, 2]),
        tors_per_pod in 1usize..4,
        hosts_per_tor in 2usize..5,
        cores_per_agg in 1usize..3,
        flow_salt in 0u64..1000,
    ) {
        let p = ClosParams {
            n_core: aggs_per_pod * cores_per_agg,
            n_agg: pods * aggs_per_pod,
            n_tor: pods * tors_per_pod,
            hosts_per_tor,
            aggs_per_pod,
            link_rate: Rate::from_gbps(40),
            host_prop: TimeDelta::micros(3),
            fabric_prop: TimeDelta::micros(2),
        };
        let t = Topology::clos(p, &profile(), &profile());
        let n = t.hosts.len();
        prop_assert_eq!(n, p.n_hosts());

        // Check a spread of pairs including intra-rack, intra-pod and
        // cross-pod.
        let pairs = [
            (0, 1 % n),
            (0, n - 1),
            (n / 2, 0),
            ((flow_salt as usize) % n, (flow_salt as usize * 7 + 1) % n),
        ];
        for &(a, b) in &pairs {
            if a == b {
                continue;
            }
            let fwd = walk(&t, pkt(flow_salt, a, b), t.hosts[a]);
            prop_assert_eq!(
                *fwd.last().unwrap(),
                t.hosts[b],
                "flow {}->{} did not reach destination: {:?}",
                a,
                b,
                fwd
            );
            prop_assert!(fwd.len() <= 7, "path too long: {fwd:?}");
            let rev = walk(&t, pkt(flow_salt, b, a), t.hosts[b]);
            let mut rr = rev.clone();
            rr.reverse();
            prop_assert_eq!(&fwd, &rr, "asymmetric path {}<->{}", a, b);
        }
    }

    /// Star topologies route every pair directly through the hub.
    #[test]
    fn star_routing(n_hosts in 2usize..32, flow in 0u64..100) {
        let t = Topology::star(
            n_hosts,
            Rate::from_gbps(10),
            TimeDelta::micros(5),
            &profile(),
            &profile(),
        );
        let a = (flow as usize) % n_hosts;
        let b = (a + 1) % n_hosts;
        let path = walk(&t, pkt(flow, a, b), t.hosts[a]);
        prop_assert_eq!(path.len(), 3);
        prop_assert_eq!(path[1], 0);
    }

    /// Dumbbell: cross-side pairs traverse both switches; same-side pairs
    /// stay local.
    #[test]
    fn dumbbell_routing(left in 1usize..6, right in 1usize..6, flow in 0u64..100) {
        let t = Topology::dumbbell(
            left,
            right,
            Rate::from_gbps(10),
            TimeDelta::micros(1),
            TimeDelta::micros(2),
            &profile(),
            &profile(),
        );
        // Cross-side.
        let path = walk(&t, pkt(flow, 0, left), t.hosts[0]);
        prop_assert_eq!(path.len(), 4);
        // Same-side (if possible).
        if left >= 2 {
            let path = walk(&t, pkt(flow, 0, 1), t.hosts[0]);
            prop_assert_eq!(path.len(), 3);
        }
    }
}

/// The paper's fabric has 8 ports everywhere and a 28 us base RTT.
#[test]
fn paper_fabric_shape() {
    let t = Topology::clos(ClosParams::default(), &profile(), &profile());
    assert_eq!(t.hosts.len(), 192);
    assert_eq!(t.base_rtt, TimeDelta::micros(28));
    for node in &t.nodes {
        if let Node::Switch(s) = node {
            assert_eq!(s.ports.len(), 8);
        }
    }
}
