//! Topology builders: star ("testbed"), dumbbell, and the paper's 3-tier
//! Clos fabric.
//!
//! All builders produce a [`Topology`]: pre-wired nodes with shortest-path
//! ECMP routing tables installed. Port creation order is deterministic
//! (neighbors in ascending id order) which, combined with the symmetric flow
//! hash, guarantees that a flow's forward data path and reverse credit/ACK
//! path traverse the same links — the property ExpressPass credit shaping
//! depends on.
//!
//! Routes are keyed by destination *rack* — the switch a host attaches
//! to — not by host: a host has exactly one link, so every path to it is a
//! path to its rack's switch plus the access link. One BFS per rack fills
//! one candidate list per (switch, rack); what a switch stores is therefore
//! independent of how many hosts hang off each rack.
//!
//! `Graph::build` is where a fabric is checked, once: every host has one
//! link, every rack one switch and every switch at most one rack, and every
//! switch has a candidate port towards every rack with hosts. A fabric that
//! breaks one of these panics at build, naming the offending node; the
//! datapath relies on them without re-checking.

use std::collections::VecDeque;
use std::sync::Arc;

use flexpass_simcore::time::{Rate, TimeDelta};

use crate::host::Host;
use crate::sim::{Node, NodeId};
use crate::switch::{Switch, SwitchProfile};

/// A wired network ready to simulate.
pub struct Topology {
    /// All nodes; switches and hosts interleaved.
    pub nodes: Vec<Node>,
    /// Node id of each host, indexed by host id.
    pub hosts: Vec<NodeId>,
    /// Rack (ToR index) of each host; used for per-rack gradual deployment.
    pub rack_of: Vec<usize>,
    /// Host access link rate.
    pub host_rate: Rate,
    /// Worst-case propagation-only round-trip time between two hosts.
    pub base_rtt: TimeDelta,
}

/// Parameters of the paper's 3-tier Clos (§6.2 defaults).
#[derive(Clone, Copy, Debug)]
pub struct ClosParams {
    /// Core switches (paper: 8).
    pub n_core: usize,
    /// Aggregation switches (paper: 16).
    pub n_agg: usize,
    /// ToR switches (paper: 32).
    pub n_tor: usize,
    /// Hosts per ToR (paper: 6; 3:1 oversubscription with 2 uplinks).
    pub hosts_per_tor: usize,
    /// Aggregation switches per pod (paper: 2).
    pub aggs_per_pod: usize,
    /// Uniform link rate (paper: 40 Gbps).
    pub link_rate: Rate,
    /// Host–ToR propagation delay (includes host processing delay).
    pub host_prop: TimeDelta,
    /// Fabric link propagation delay.
    pub fabric_prop: TimeDelta,
}

impl Default for ClosParams {
    fn default() -> Self {
        // 6 hops host-to-host across the core; 2*(3+2+2+2+2+3) = 28 us RTT,
        // matching the paper's quoted base RTT.
        ClosParams {
            n_core: 8,
            n_agg: 16,
            n_tor: 32,
            hosts_per_tor: 6,
            aggs_per_pod: 2,
            link_rate: Rate::from_gbps(40),
            host_prop: TimeDelta::micros(3),
            fabric_prop: TimeDelta::micros(2),
        }
    }
}

/// How a [`ClosParams`] divides into pods and core groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosShape {
    /// Pods: `n_agg / aggs_per_pod`.
    pub pods: usize,
    /// ToRs per pod: `n_tor / pods`.
    pub tors_per_pod: usize,
    /// Cores each aggregation switch links to: `n_core / aggs_per_pod`.
    pub cores_per_agg: usize,
}

/// A [`ClosParams`] count that does not divide evenly (a zero divisor
/// never does).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosError {
    /// The field that does not divide: `n_agg`, `n_tor` or `n_core`.
    pub field: &'static str,
    /// Its value.
    pub count: usize,
    /// What it must be a multiple of.
    pub divisor: usize,
}

impl ClosParams {
    /// Divides the fabric into pods and core groups, or names the count
    /// that does not divide.
    pub fn shape(&self) -> Result<ClosShape, ClosError> {
        let split = |field, count: usize, divisor: usize| match count.checked_rem(divisor) {
            Some(0) => Ok(count / divisor),
            _ => Err(ClosError {
                field,
                count,
                divisor,
            }),
        };
        let pods = split("n_agg", self.n_agg, self.aggs_per_pod)?;
        Ok(ClosShape {
            pods,
            tors_per_pod: split("n_tor", self.n_tor, pods)?,
            cores_per_agg: split("n_core", self.n_core, self.aggs_per_pod)?,
        })
    }

    /// Total host count.
    pub fn n_hosts(&self) -> usize {
        self.n_tor * self.hosts_per_tor
    }

    /// Rack (ToR index) of every host, indexed by host id: hosts are
    /// numbered rack by rack.
    pub fn rack_of(&self) -> Vec<usize> {
        (0..self.n_hosts())
            .map(|h| h / self.hosts_per_tor)
            .collect()
    }

    /// A proportionally shrunk fabric for quick tests and benches
    /// (2 core / 4 agg / 8 ToR / `hosts_per_tor * 8` hosts).
    pub fn small() -> Self {
        ClosParams {
            n_core: 2,
            n_agg: 4,
            n_tor: 8,
            hosts_per_tor: 6,
            aggs_per_pod: 2,
            ..ClosParams::default()
        }
    }

    /// A scaled-out fabric with at least `hosts` hosts (rounded up to a
    /// whole pod): dense 40-host racks, 8 ToRs and 2 aggs per pod, 8
    /// cores — the shape the `scale` scenario drives to O(10k) hosts.
    /// Keeps the paper's link rates and propagation delays.
    pub fn with_hosts(hosts: usize) -> Self {
        const HOSTS_PER_TOR: usize = 40;
        const TORS_PER_POD: usize = 8;
        const AGGS_PER_POD: usize = 2;
        let per_pod = HOSTS_PER_TOR * TORS_PER_POD;
        let pods = hosts.div_ceil(per_pod).max(1);
        ClosParams {
            n_core: 8,
            n_agg: pods * AGGS_PER_POD,
            n_tor: pods * TORS_PER_POD,
            hosts_per_tor: HOSTS_PER_TOR,
            aggs_per_pod: AGGS_PER_POD,
            ..ClosParams::default()
        }
    }
}

/// Intermediate graph description used by all builders.
struct Graph {
    /// For each node: `(neighbor, propagation delay)` in port order.
    adj: Vec<Vec<(usize, TimeDelta)>>,
    /// `Some(host_id)` for host nodes, `None` for switches.
    host_of: Vec<Option<usize>>,
    /// Switch tier for hash slicing (ToR = 0, Agg = 1, Core = 2).
    tier: Vec<u8>,
}

impl Graph {
    fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            host_of: vec![None; n],
            tier: vec![0; n],
        }
    }

    fn link(&mut self, a: usize, b: usize, prop: TimeDelta) {
        self.adj[a].push((b, prop));
        self.adj[b].push((a, prop));
    }

    /// Materializes nodes, wires ports, and installs routing tables.
    fn build(
        self,
        n_hosts: usize,
        rack_of: Vec<usize>,
        host_rate: Rate,
        sw_profile: &SwitchProfile,
        host_profile: &SwitchProfile,
    ) -> Topology {
        let n = self.adj.len();
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        let mut hosts = vec![usize::MAX; n_hosts];
        for (id, maybe_host) in self.host_of.iter().enumerate() {
            match maybe_host {
                Some(h) => {
                    assert_eq!(self.adj[id].len(), 1, "hosts have exactly one port");
                    nodes.push(Node::Host(Host::new(*h, host_profile)));
                    hosts[*h] = id;
                }
                None => {
                    nodes.push(Node::Switch(Switch::new(
                        sw_profile,
                        self.adj[id].len(),
                        self.tier[id],
                    )));
                }
            }
        }
        assert!(hosts.iter().all(|&x| x != usize::MAX));

        // Wire ports to peers.
        for (id, nbrs) in self.adj.iter().enumerate() {
            for (pi, &(peer, prop)) in nbrs.iter().enumerate() {
                let port = match &mut nodes[id] {
                    Node::Switch(s) => &mut s.ports[pi],
                    Node::Host(h) => &mut h.nic,
                };
                port.peer = peer;
                port.prop = prop;
            }
        }

        // Racks: every host of a rack attaches to the same switch, and no
        // two racks share one.
        assert_eq!(rack_of.len(), n_hosts, "one rack per host");
        #[derive(Clone)]
        struct Rack {
            /// Node id of the switch the rack's hosts attach to.
            switch: usize,
            /// `(host, access port on the switch)` of every host.
            access: Vec<(usize, u16)>,
            /// The two largest access-link delays (for `base_rtt`).
            far: [TimeDelta; 2],
        }
        let n_racks = rack_of.iter().max().map_or(0, |&r| r + 1);
        let mut racks = vec![
            Rack {
                switch: usize::MAX,
                access: Vec::new(),
                far: [TimeDelta::ZERO; 2],
            };
            n_racks
        ];
        for (h, &r) in rack_of.iter().enumerate() {
            let (sw, prop) = self.adj[hosts[h]][0];
            if racks[r].switch != sw {
                // The rack's first host: its switch must be free.
                assert!(racks[r].switch == usize::MAX, "rack {r} spans two switches");
                let other = racks.iter().position(|o| o.switch == sw);
                assert!(
                    other.is_none(),
                    "switch {sw} serves racks {} and {r}",
                    other.unwrap_or(r)
                );
                racks[r].switch = sw;
            }
            let rack = &mut racks[r];
            let port = self.adj[sw]
                .iter()
                .position(|&(v, _)| v == hosts[h])
                .expect("links are duplex");
            rack.access.push((h, port as u16));
            let [a, b] = &mut rack.far;
            if prop > *a {
                (*a, *b) = (prop, *a);
            } else if prop > *b {
                *b = prop;
            }
        }
        let host_rack: Arc<[u32]> = rack_of
            .iter()
            .map(|&r| u32::try_from(r).expect("rack index fits u32"))
            .collect();
        for node in &mut nodes {
            if let Node::Switch(s) = node {
                s.install_routes(Arc::clone(&host_rack), vec![Vec::new(); n_racks]);
            }
        }
        for (r, rack) in racks.iter().enumerate() {
            if let Some(Node::Switch(s)) = nodes.get_mut(rack.switch) {
                s.attach_hosts(r, &rack.access);
            }
        }

        // Shortest-path ECMP tables: one BFS per rack, from its switch,
        // over the switch graph (hosts are leaves and relay nothing).
        // `prop_to` follows the first-discovered path, so `base_rtt` is
        // the worst access + fabric + access delay over host pairs.
        let mut max_prop = TimeDelta::ZERO;
        let mut dist = vec![u32::MAX; n];
        let mut prop_to = vec![TimeDelta::ZERO; n];
        let mut queue = VecDeque::new();
        for (r, rack) in racks.iter().enumerate() {
            let root = rack.switch;
            if root == usize::MAX {
                continue; // rack id with no hosts
            }
            dist.fill(u32::MAX);
            dist[root] = 0;
            prop_to[root] = TimeDelta::ZERO;
            queue.push_back(root);
            while let Some(u) = queue.pop_front() {
                for &(v, prop) in &self.adj[u] {
                    if dist[v] == u32::MAX && self.host_of[v].is_none() {
                        dist[v] = dist[u] + 1;
                        prop_to[v] = prop_to[u] + prop;
                        queue.push_back(v);
                    }
                }
            }
            // A switch the BFS reached has a neighbour one hop nearer (its
            // BFS parent), so its candidate list is non-empty: `route`
            // relies on this instead of checking per packet.
            for (id, node) in nodes.iter_mut().enumerate() {
                let Node::Switch(sw) = node else { continue };
                if id == root {
                    continue;
                }
                assert!(dist[id] != u32::MAX, "switch {id} cannot reach rack {r}");
                sw.routes[r] = self.adj[id]
                    .iter()
                    .enumerate()
                    .filter(|(_, &(v, _))| dist[v].checked_add(1) == Some(dist[id]))
                    .map(|(pi, _)| pi as u16)
                    .collect();
            }
            // Two hosts of this rack, or one here and one in another rack.
            if rack.access.len() >= 2 {
                max_prop = max_prop.max(rack.far[0] + rack.far[1]);
            }
            for (r2, other) in racks.iter().enumerate() {
                if r2 != r && other.switch != usize::MAX {
                    max_prop = max_prop.max(rack.far[0] + prop_to[other.switch] + other.far[0]);
                }
            }
        }

        Topology {
            nodes,
            hosts,
            rack_of,
            host_rate,
            base_rtt: max_prop * 2,
        }
    }
}

impl Topology {
    /// `n_hosts` hosts hanging off one switch at `rate` ("testbed" star;
    /// also used for the dumbbell-style 2-to-1 microbenchmarks).
    pub fn star(
        n_hosts: usize,
        rate: Rate,
        host_prop: TimeDelta,
        sw_profile: &SwitchProfile,
        host_profile: &SwitchProfile,
    ) -> Topology {
        assert!(n_hosts >= 2);
        let mut g = Graph::new(n_hosts + 1);
        // Node 0 is the switch; hosts follow.
        for h in 0..n_hosts {
            g.host_of[1 + h] = Some(h);
            g.link(0, 1 + h, host_prop);
        }
        g.build(n_hosts, vec![0; n_hosts], rate, sw_profile, host_profile)
    }

    /// Classic dumbbell: `n_left` hosts on switch L, `n_right` on switch R,
    /// joined by a single bottleneck link at the same rate.
    pub fn dumbbell(
        n_left: usize,
        n_right: usize,
        rate: Rate,
        host_prop: TimeDelta,
        bottleneck_prop: TimeDelta,
        sw_profile: &SwitchProfile,
        host_profile: &SwitchProfile,
    ) -> Topology {
        let n_hosts = n_left + n_right;
        let mut g = Graph::new(n_hosts + 2);
        // Nodes 0 and 1 are the switches.
        g.link(0, 1, bottleneck_prop);
        let mut rack_of = Vec::with_capacity(n_hosts);
        for h in 0..n_hosts {
            let sw = if h < n_left { 0 } else { 1 };
            g.host_of[2 + h] = Some(h);
            g.link(sw, 2 + h, host_prop);
            rack_of.push(sw);
        }
        g.build(n_hosts, rack_of, rate, sw_profile, host_profile)
    }

    /// The paper's 3-tier Clos fabric.
    ///
    /// # Panics
    ///
    /// Panics if [`ClosParams::shape`] fails, or if some switch cannot
    /// reach some rack (e.g. no cores joining the pods).
    pub fn clos(
        p: ClosParams,
        sw_profile: &SwitchProfile,
        host_profile: &SwitchProfile,
    ) -> Topology {
        let shape = p
            .shape()
            .expect("ClosParams divide into pods and core groups");
        let n_hosts = p.n_hosts();

        // Node layout: [cores][aggs][tors][hosts].
        let core_base = 0;
        let agg_base = core_base + p.n_core;
        let tor_base = agg_base + p.n_agg;
        let host_base = tor_base + p.n_tor;
        let mut g = Graph::new(host_base + n_hosts);
        for c in 0..p.n_core {
            g.tier[core_base + c] = 2;
        }
        for a in 0..p.n_agg {
            g.tier[agg_base + a] = 1;
        }
        for t in 0..p.n_tor {
            g.tier[tor_base + t] = 0;
        }

        // Hosts to ToRs (port order: hosts first, then uplinks — ascending).
        let rack_of = p.rack_of();
        for (h, &t) in rack_of.iter().enumerate() {
            g.host_of[host_base + h] = Some(h);
            g.link(tor_base + t, host_base + h, p.host_prop);
        }
        // ToRs to both aggs in their pod, ascending agg order.
        for t in 0..p.n_tor {
            let pod = t / shape.tors_per_pod;
            for j in 0..p.aggs_per_pod {
                let a = pod * p.aggs_per_pod + j;
                g.link(tor_base + t, agg_base + a, p.fabric_prop);
            }
        }
        // Aggs to their core group, ascending core order.
        for a in 0..p.n_agg {
            let j = a % p.aggs_per_pod;
            for k in 0..shape.cores_per_agg {
                let c = j * shape.cores_per_agg + k;
                g.link(agg_base + a, core_base + c, p.fabric_prop);
            }
        }

        g.build(n_hosts, rack_of, p.link_rate, sw_profile, host_profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Payload, TrafficClass};
    use crate::port::{PortConfig, QueueSched};
    use crate::queue::QueueConfig;
    use crate::switch::ClassMap;

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
            crate::consts::DATA_WIRE,
            TrafficClass::Legacy,
            Payload::CreditReq { pkts: 0 },
        )
    }

    #[test]
    fn star_wiring() {
        let t = Topology::star(
            9,
            Rate::from_gbps(10),
            TimeDelta::micros(5),
            &profile(),
            &profile(),
        );
        assert_eq!(t.nodes.len(), 10);
        assert_eq!(t.hosts.len(), 9);
        assert_eq!(t.base_rtt, TimeDelta::micros(20));
        match &t.nodes[0] {
            Node::Switch(s) => {
                assert_eq!(s.ports.len(), 9);
                // One rack, served here: no fabric candidates, every host
                // behind its own access port.
                assert_eq!(s.routes, vec![Vec::<u16>::new()]);
                for h in 0..9 {
                    assert_eq!(s.candidates(h), [h as u16]);
                }
            }
            _ => panic!("node 0 should be the switch"),
        }
    }

    #[test]
    fn clos_shape() {
        let t = Topology::clos(ClosParams::default(), &profile(), &profile());
        assert_eq!(t.hosts.len(), 192);
        assert_eq!(t.nodes.len(), 8 + 16 + 32 + 192);
        // 28 us base RTT across the core.
        assert_eq!(t.base_rtt, TimeDelta::micros(28));
        // Every switch has 8 ports in the paper fabric.
        for node in &t.nodes {
            if let Node::Switch(s) = node {
                assert_eq!(s.ports.len(), 8);
            }
        }
        // Racks are assigned 6 hosts each.
        assert_eq!(t.rack_of.len(), 192);
        assert_eq!(t.rack_of.iter().filter(|&&r| r == 0).count(), 6);
    }

    /// `with_hosts` must round up to whole pods and always have the
    /// [`ClosParams::shape`] `Topology::clos` builds from.
    #[test]
    fn with_hosts_rounds_to_whole_pods() {
        let p = ClosParams::with_hosts(10_240);
        assert_eq!(p.n_hosts(), 10_240);
        assert_eq!(p.n_tor, 256);
        assert_eq!(p.n_agg, 64);
        assert_eq!(p.n_core, 8);
        // Partial pod rounds up.
        let p = ClosParams::with_hosts(321);
        assert_eq!(p.n_hosts(), 640);
        // Degenerate request still builds one pod.
        let p = ClosParams::with_hosts(0);
        assert_eq!(p.n_hosts(), 320);
        // Every size has a shape (build the smallest one for real to
        // exercise the wiring).
        for hosts in [1, 320, 2_560, 10_240] {
            let shape = ClosParams::with_hosts(hosts).shape().unwrap();
            assert_eq!((shape.tors_per_pod, shape.cores_per_agg), (8, 4));
            assert_eq!(shape.pods, hosts.div_ceil(320));
        }
        let t = Topology::clos(ClosParams::with_hosts(1), &profile(), &profile());
        assert_eq!(t.hosts.len(), 320);
        assert_eq!(t.rack_of.iter().filter(|&&r| r == 0).count(), 40);
    }

    #[test]
    fn shape_names_the_count_that_does_not_divide() {
        let small = ClosParams::small();
        let err = |field, count, divisor| {
            Err(ClosError {
                field,
                count,
                divisor,
            })
        };
        assert_eq!(ClosParams { n_agg: 5, ..small }.shape(), err("n_agg", 5, 2));
        assert_eq!(ClosParams { n_tor: 7, ..small }.shape(), err("n_tor", 7, 2));
        assert_eq!(
            ClosParams { n_core: 3, ..small }.shape(),
            err("n_core", 3, 2)
        );
        let no_aggs = ClosParams {
            aggs_per_pod: 0,
            ..small
        };
        assert_eq!(no_aggs.shape(), err("n_agg", 4, 0));
    }

    /// Without cores the pods are islands: the fabric used to build and
    /// then panic on the first cross-pod packet.
    #[test]
    #[should_panic(expected = "switch 2 cannot reach rack 0")]
    fn clos_without_cores_fails_at_build() {
        let p = ClosParams {
            n_core: 0,
            ..ClosParams::small()
        };
        Topology::clos(p, &profile(), &profile());
    }

    /// Two switches with one host each and no link between them.
    #[test]
    #[should_panic(expected = "switch 1 cannot reach rack 0")]
    fn disconnected_graph_fails_at_build() {
        let mut g = Graph::new(4);
        for h in 0..2 {
            g.host_of[2 + h] = Some(h);
            g.link(h, 2 + h, TimeDelta::micros(1));
        }
        g.build(2, vec![0, 1], Rate::from_gbps(10), &profile(), &profile());
    }

    #[test]
    #[should_panic(expected = "switch 0 serves racks 0 and 1")]
    fn two_racks_on_one_switch_fail_at_build() {
        let mut g = Graph::new(3);
        for h in 0..2 {
            g.host_of[1 + h] = Some(h);
            g.link(0, 1 + h, TimeDelta::micros(1));
        }
        g.build(2, vec![0, 1], Rate::from_gbps(10), &profile(), &profile());
    }

    #[test]
    fn clos_ecmp_candidates() {
        let t = Topology::clos(ClosParams::default(), &profile(), &profile());
        // ToR 0 (node 8 + 16 = 24) routing to a host in another pod: both
        // uplinks are candidates.
        let far_host = 191;
        match &t.nodes[24] {
            Node::Switch(tor0) => {
                assert_eq!(tor0.tier, 0);
                assert_eq!(tor0.routes.len(), 32);
                assert_eq!(tor0.candidates(far_host), [6, 7]);
                assert_eq!(tor0.routes[t.rack_of[far_host]], [6, 7]);
                // To a local host: exactly one (the access port).
                assert_eq!(tor0.candidates(0), [0]);
                assert!(tor0.routes[0].is_empty());
            }
            _ => panic!("node 24 should be ToR 0"),
        }
        // Agg routing to a far pod: all 4 core uplinks are candidates.
        match &t.nodes[8] {
            Node::Switch(agg0) => {
                assert_eq!(agg0.tier, 1);
                assert_eq!(agg0.routes.len(), 32);
                assert_eq!(agg0.candidates(far_host).len(), 4);
                // Into its own pod: the one downlink to that ToR.
                assert_eq!(agg0.candidates(0).len(), 1);
            }
            _ => panic!("node 8 should be Agg 0"),
        }
    }

    #[test]
    fn clos_path_symmetry() {
        // Forward and reverse packets of the same flow must traverse the
        // same switches. Walk both directions hop by hop.
        let t = Topology::clos(ClosParams::default(), &profile(), &profile());
        for flow in 0..200u64 {
            let (src, dst) = (0usize, 190usize);
            let fwd = walk(&t, pkt(flow, src, dst), t.hosts[src]);
            let rev = walk(&t, pkt(flow, dst, src), t.hosts[dst]);
            let mut rev_rev = rev.clone();
            rev_rev.reverse();
            assert_eq!(fwd, rev_rev, "flow {flow} asymmetric");
        }
    }

    /// Follows routing decisions from `from` to the packet's destination,
    /// returning the sequence of node ids visited (inclusive).
    fn walk(t: &Topology, p: Packet, from: NodeId) -> Vec<NodeId> {
        let mut path = vec![from];
        let mut cur = from;
        for _ in 0..16 {
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

    #[test]
    fn clos_ecmp_spreads_flows() {
        // Different flows between the same pair should use different cores.
        let t = Topology::clos(ClosParams::default(), &profile(), &profile());
        let mut cores_seen = std::collections::HashSet::new();
        for flow in 0..64u64 {
            let path = walk(&t, pkt(flow, 0, 190), t.hosts[0]);
            // Path: host, tor, agg, core, agg, tor, host.
            assert_eq!(path.len(), 7, "path {path:?}");
            cores_seen.insert(path[3]);
        }
        assert!(cores_seen.len() >= 4, "only cores {cores_seen:?} used");
    }

    #[test]
    fn dumbbell_routes_through_bottleneck() {
        let t = Topology::dumbbell(
            2,
            2,
            Rate::from_gbps(10),
            TimeDelta::micros(1),
            TimeDelta::micros(2),
            &profile(),
            &profile(),
        );
        let path = walk(&t, pkt(1, 0, 2), t.hosts[0]);
        // host0 -> swL -> swR -> host2.
        assert_eq!(path.len(), 4);
        assert_eq!(path[1], 0);
        assert_eq!(path[2], 1);
        assert_eq!(t.base_rtt, TimeDelta::micros(8));
    }

    /// The per-host construction the rack-keyed tables replaced, kept as
    /// the reference: one BFS per destination *host* over the whole graph
    /// (rebuilt from the wired ports), one candidate list per (switch,
    /// host), and `base_rtt` from a hosts² maximum. Returns
    /// `tables[node][host]` (empty for host nodes) and the base RTT.
    fn per_host_reference(t: &Topology) -> (Vec<Vec<Vec<u16>>>, TimeDelta) {
        let adj: Vec<Vec<(usize, TimeDelta)>> = t
            .nodes
            .iter()
            .map(|node| match node {
                Node::Switch(s) => s.ports.iter().map(|p| (p.peer, p.prop)).collect(),
                Node::Host(h) => vec![(h.nic.peer, h.nic.prop)],
            })
            .collect();
        let n = adj.len();
        let n_hosts = t.hosts.len();
        let mut tables: Vec<Vec<Vec<u16>>> = t
            .nodes
            .iter()
            .map(|node| match node {
                Node::Switch(_) => vec![Vec::new(); n_hosts],
                Node::Host(_) => Vec::new(),
            })
            .collect();
        let mut max_prop = TimeDelta::ZERO;
        for h in 0..n_hosts {
            let dst = t.hosts[h];
            let mut dist = vec![u32::MAX; n];
            let mut prop_to = vec![TimeDelta::ZERO; n];
            let mut queue = VecDeque::new();
            dist[dst] = 0;
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for &(v, prop) in &adj[u] {
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        prop_to[v] = prop_to[u] + prop;
                        queue.push_back(v);
                    }
                }
            }
            for (id, table) in tables.iter_mut().enumerate() {
                if table.is_empty() || dist[id] == u32::MAX {
                    continue;
                }
                table[h] = adj[id]
                    .iter()
                    .enumerate()
                    .filter(|(_, &(v, _))| dist[v] + 1 == dist[id])
                    .map(|(pi, _)| pi as u16)
                    .collect();
            }
            for other in 0..n_hosts {
                if other != h {
                    max_prop = max_prop.max(prop_to[t.hosts[other]]);
                }
            }
        }
        (tables, max_prop * 2)
    }

    /// Every (switch, destination host) resolves to the same candidate
    /// ports in the same order as the per-host reference — hence the same
    /// ECMP pick for any `path_hash` — and `base_rtt` is equal.
    fn assert_matches_reference(name: &str, t: &Topology) {
        let (tables, base_rtt) = per_host_reference(t);
        assert_eq!(t.base_rtt, base_rtt, "{name}: base_rtt");
        let mut checked = 0usize;
        for (id, node) in t.nodes.iter().enumerate() {
            let Node::Switch(s) = node else { continue };
            for (h, cands) in tables[id].iter().enumerate() {
                assert_eq!(
                    s.candidates(h),
                    cands.as_slice(),
                    "{name}: switch {id} -> host {h}"
                );
                assert!(!cands.is_empty(), "{name}: no route");
                for flow in [0u64, 1, 0xdead_beef, u64::MAX] {
                    let p = pkt(flow, (h + 1) % t.hosts.len(), h);
                    let slice = p.path_hash >> (16 * s.tier as u64);
                    let want = cands[(slice % cands.len() as u64) as usize];
                    assert_eq!(s.route(&p), want as usize);
                }
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn rack_keyed_routes_match_per_host_reference() {
        let p = profile();
        let g10 = Rate::from_gbps(10);
        let us = TimeDelta::micros;
        assert_matches_reference("star", &Topology::star(9, g10, us(5), &p, &p));
        assert_matches_reference(
            "dumbbell",
            &Topology::dumbbell(3, 2, g10, us(1), us(2), &p, &p),
        );
        // Unequal access delays exercise the farthest-pair bookkeeping.
        assert_matches_reference(
            "lopsided dumbbell",
            &Topology::dumbbell(1, 4, g10, us(7), us(2), &p, &p),
        );
        for (name, params) in [
            ("clos default", ClosParams::default()),
            ("clos small", ClosParams::small()),
            ("clos with_hosts(1)", ClosParams::with_hosts(1)),
        ] {
            assert_matches_reference(name, &Topology::clos(params, &p, &p));
        }
    }

    /// At 10,240 hosts no switch holds more than one candidate list per
    /// rack, and every switch shares the one host→rack table: a per-host
    /// table cannot come back unnoticed.
    #[test]
    fn route_state_is_per_rack_at_scale() {
        let params = ClosParams::with_hosts(10_240);
        let t = Topology::clos(params, &profile(), &profile());
        assert_eq!(t.rack_of, params.rack_of());
        let n_racks = params.n_tor;
        let mut tables = Vec::new();
        for node in &t.nodes {
            let Node::Switch(s) = node else { continue };
            assert!(s.routes.len() <= n_racks, "{} lists", s.routes.len());
            let cands: usize = s.routes.iter().map(Vec::len).sum();
            assert!(cands <= n_racks * s.ports.len());
            tables.push(s.rack_table());
        }
        assert_eq!(tables.len(), params.n_core + params.n_agg + params.n_tor);
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, tables[0])));
        assert_eq!(tables[0].len(), 10_240);
        assert_eq!(t.base_rtt, TimeDelta::micros(28));
    }
}
