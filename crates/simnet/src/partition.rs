//! Fabric partitioning for the simulation engine ([`crate::parsim`] is the
//! only caller).
//!
//! [`partition`] cuts a wired [`Topology`] into at most `n` per-thread
//! domains at rack granularity — one domain holding the input unchanged
//! when `n < 2` or the fabric has no useful cut (a star, a single rack).
//! Racks are chunked contiguously (so a Clos pod never straddles a cut
//! unless the domain count forces it), every host follows its rack, and
//! switches join the domain most of their already-assigned neighbors live
//! in (ToRs follow their hosts, aggs follow their ToRs, cores break ties
//! towards the lowest domain). Each domain receives a full-length node
//! table in which foreign slots hold inert placeholder hosts — global
//! [`crate::sim::NodeId`]s, route tables, and peer indices stay valid
//! without rewriting, and a packet that reaches a placeholder trips the
//! misrouting debug assertion immediately.
//!
//! The cut's *lookahead* — the minimum propagation delay over all
//! cut-crossing links — is what makes conservative synchronization sound:
//! an event at time `t` in one domain can influence another no earlier
//! than `t + lookahead`, so all domains may safely process events in
//! `[t_min, t_min + lookahead)` in parallel (see `parsim.rs`).

use std::sync::Arc;

use flexpass_simcore::time::TimeDelta;

use crate::host::Host;
use crate::port::{Port, PortConfig};
use crate::sim::Node;
use crate::switch::{ClassMap, SwitchProfile};
use crate::topology::Topology;

/// A fabric cut into per-thread domains.
pub struct Partition {
    /// One full-length topology per domain; foreign node slots hold inert
    /// placeholder hosts (`host_id == usize::MAX`). A one-domain partition
    /// holds the input topology itself.
    pub parts: Vec<Topology>,
    /// Owning domain of every global node id.
    pub domain_of: Arc<Vec<u32>>,
    /// Owning domain of every host index.
    pub host_domain: Vec<u32>,
    /// Minimum propagation delay over cut-crossing links.
    pub lookahead: TimeDelta,
}

impl Partition {
    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.parts.len()
    }

    /// The uncut fabric: one domain owning every node.
    fn whole(topo: Topology) -> Partition {
        Partition {
            domain_of: Arc::new(vec![0; topo.nodes.len()]),
            host_domain: vec![0; topo.hosts.len()],
            lookahead: topo.base_rtt,
            parts: vec![topo],
        }
    }
}

/// Egress ports of a node (hosts expose their NIC as a single port).
fn ports_of(node: &Node) -> &[Port] {
    match node {
        Node::Switch(s) => &s.ports,
        Node::Host(h) => std::slice::from_ref(&h.nic),
    }
}

/// Cuts `topo` into at most `n` domains. Where a useful cut does not
/// exist — `n < 2`, fewer than two racks, or a degenerate fabric with a
/// zero-latency cut link (conservative sync needs strictly positive
/// lookahead) — the result is one domain holding `topo` unchanged.
pub fn partition(topo: Topology, n: usize) -> Partition {
    // Racks present, ascending. rack_of values are dense small indices
    // (ToR index in a Clos), so a direct-mapped table suffices.
    let mut racks: Vec<usize> = topo.rack_of.clone();
    racks.sort_unstable();
    racks.dedup();
    if n < 2 || racks.len() < 2 {
        return Partition::whole(topo);
    }

    // Contiguous rack chunks of near-equal size; k = number of nonempty
    // chunks (≤ n when racks < n, ≥ 2 with two racks and n ≥ 2).
    let per_chunk = racks.len().div_ceil(n);
    let max_rack = *racks.last().expect("racks nonempty");
    let mut rack_dom: Vec<u32> = vec![0; max_rack + 1];
    let mut k = 0usize;
    for chunk in racks.chunks(per_chunk) {
        let d = u32::try_from(k).expect("domain count fits u32");
        for &r in chunk {
            if let Some(slot) = rack_dom.get_mut(r) {
                *slot = d;
            }
        }
        k += 1;
    }

    let host_domain: Vec<u32> = topo
        .rack_of
        .iter()
        .map(|&r| rack_dom.get(r).copied().unwrap_or(0))
        .collect();

    // Node → domain. Hosts follow their rack; switches by iterated
    // majority vote over already-assigned neighbors (deterministic:
    // passes sweep nodes in id order, ties break to the lowest domain).
    let n_nodes = topo.nodes.len();
    let mut domain_of: Vec<Option<u32>> = vec![None; n_nodes];
    for (h, &node_id) in topo.hosts.iter().enumerate() {
        if let (Some(slot), Some(&d)) = (domain_of.get_mut(node_id), host_domain.get(h)) {
            *slot = Some(d);
        }
    }
    loop {
        let mut changed = false;
        for i in 0..n_nodes {
            if domain_of.get(i).copied().flatten().is_some() {
                continue;
            }
            let node = topo.nodes.get(i).expect("node index in range");
            let mut votes: Vec<u32> = vec![0; k];
            for p in ports_of(node) {
                if let Some(Some(d)) = domain_of.get(p.peer).copied() {
                    if let Some(v) = votes.get_mut(d as usize) {
                        *v += 1;
                    }
                }
            }
            let best = votes
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(d, &v)| (d, v));
            if let Some((d, v)) = best {
                if v > 0 {
                    if let Some(slot) = domain_of.get_mut(i) {
                        *slot = Some(u32::try_from(d).expect("domain count fits u32"));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let domain_of: Vec<u32> = domain_of.into_iter().map(|d| d.unwrap_or(0)).collect();

    // Lookahead: minimum propagation over cut links. A duplex link is
    // examined from both sides; min is symmetric so that is harmless.
    let mut lookahead: Option<TimeDelta> = None;
    for (i, node) in topo.nodes.iter().enumerate() {
        let di = domain_of.get(i).copied().unwrap_or(0);
        for p in ports_of(node) {
            let dp = domain_of.get(p.peer).copied().unwrap_or(di);
            if dp != di {
                lookahead = Some(match lookahead {
                    Some(l) => l.min(p.prop),
                    None => p.prop,
                });
            }
        }
    }
    let lookahead = match lookahead {
        // No cut link at all: the domains are disconnected from each
        // other, so any positive lookahead is sound.
        None => topo.base_rtt,
        Some(l) if l > TimeDelta::ZERO => l,
        // A zero-latency cut would force zero-width windows.
        Some(_) => return Partition::whole(topo),
    };

    // Split the single node table into per-domain full-length tables.
    // Foreign slots get inert placeholder hosts: the sentinel host id
    // makes the misrouting debug assertion fire if a packet ever lands
    // on one, and `Node::Host` keeps them out of queue sampling (which
    // only walks switches).
    let Topology {
        nodes,
        hosts,
        rack_of,
        host_rate,
        base_rtt,
    } = topo;
    let placeholder_profile = SwitchProfile {
        port: PortConfig::single_fifo(host_rate),
        class_map: ClassMap::Single,
        shared_buffer: None,
    };
    let mut tables: Vec<Vec<Node>> = (0..k).map(|_| Vec::with_capacity(n_nodes)).collect();
    for (i, node) in nodes.into_iter().enumerate() {
        let d = domain_of.get(i).copied().unwrap_or(0) as usize;
        let mut node = Some(node);
        for (j, table) in tables.iter_mut().enumerate() {
            if j == d {
                table.push(
                    node.take()
                        .expect("each node moves into exactly one domain"),
                );
            } else {
                table.push(Node::Host(Host::new(usize::MAX, &placeholder_profile)));
            }
        }
    }
    let parts: Vec<Topology> = tables
        .into_iter()
        .map(|nodes| Topology {
            nodes,
            hosts: hosts.clone(),
            rack_of: rack_of.clone(),
            host_rate,
            base_rtt,
        })
        .collect();

    Partition {
        parts,
        domain_of: Arc::new(domain_of),
        host_domain,
        lookahead,
    }
}

/// True when `node` is a foreign-slot placeholder rather than a real
/// element of this domain.
pub fn is_placeholder(node: &Node) -> bool {
    matches!(node, Node::Host(h) if h.host_id == usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::QueueSched;
    use crate::queue::QueueConfig;
    use crate::topology::ClosParams;
    use flexpass_simcore::time::Rate;

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

    fn two_pod_64() -> ClosParams {
        ClosParams {
            n_core: 2,
            n_agg: 4,
            n_tor: 8,
            hosts_per_tor: 8,
            aggs_per_pod: 2,
            ..ClosParams::small()
        }
    }

    /// Where no cut exists the partition is one domain holding the input's
    /// own node table: a star, a single rack, `n = 1`.
    #[test]
    fn uncuttable_inputs_are_one_domain_holding_the_input() {
        let p = profile();
        let star = || Topology::star(4, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let one_rack = || {
            let params = ClosParams {
                n_core: 1,
                n_agg: 1,
                n_tor: 1,
                aggs_per_pod: 1,
                ..ClosParams::small()
            };
            Topology::clos(params, &p, &p)
        };
        let clos = || Topology::clos(ClosParams::small(), &p, &p);
        let cases: [(&str, &dyn Fn() -> Topology, usize); 3] = [
            ("star", &star, 2),
            ("one rack", &one_rack, 4),
            ("n = 1", &clos, 1),
        ];
        for (name, build, n) in cases {
            let topo = build();
            let table: Vec<*const Node> = topo.nodes.iter().map(std::ptr::from_ref).collect();
            let (n_nodes, n_hosts) = (topo.nodes.len(), topo.hosts.len());
            let part = partition(topo, n);
            assert_eq!(part.n_domains(), 1, "{name}");
            let kept: Vec<*const Node> =
                part.parts[0].nodes.iter().map(std::ptr::from_ref).collect();
            assert_eq!(
                kept, table,
                "{name}: the node table is the input's, not a copy"
            );
            assert_eq!(*part.domain_of, vec![0; n_nodes], "{name}");
            assert_eq!(part.host_domain, vec![0; n_hosts], "{name}");
            assert!(part.lookahead > TimeDelta::ZERO, "{name}");
        }
    }

    #[test]
    fn clos_small_splits_hosts_evenly() {
        let p = profile();
        let topo = Topology::clos(ClosParams::small(), &p, &p);
        let n_hosts = topo.hosts.len();
        let part = partition(topo, 2);
        assert_eq!(part.n_domains(), 2);
        let d0 = part.host_domain.iter().filter(|&&d| d == 0).count();
        assert_eq!(d0, n_hosts / 2, "hosts split evenly");
        // Lookahead is the fabric propagation delay of the cut links.
        assert_eq!(part.lookahead, ClosParams::small().fabric_prop);
    }

    #[test]
    fn every_node_owned_exactly_once() {
        let p = profile();
        let topo = Topology::clos(two_pod_64(), &p, &p);
        let n_nodes = topo.nodes.len();
        let part = partition(topo, 4);
        let mut owned = vec![0usize; n_nodes];
        for part_topo in &part.parts {
            assert_eq!(part_topo.nodes.len(), n_nodes, "full-length tables");
            for (i, node) in part_topo.nodes.iter().enumerate() {
                if !is_placeholder(node) {
                    owned[i] += 1;
                }
            }
        }
        assert!(owned.iter().all(|&c| c == 1), "each node owned once");
        // The ownership map agrees with the tables.
        for (i, &d) in part.domain_of.iter().enumerate() {
            let node = &part.parts[d as usize].nodes[i];
            assert!(!is_placeholder(node), "owner table holds the real node");
        }
    }

    /// Cutting the fabric moves switches between node tables but copies no
    /// routing state: every domain's switches still route by the one
    /// host→rack table the builder installed.
    #[test]
    fn domains_share_the_rack_table() {
        let p = profile();
        let part = partition(Topology::clos(two_pod_64(), &p, &p), 4);
        let tables: Vec<_> = part
            .parts
            .iter()
            .flat_map(|t| &t.nodes)
            .filter_map(|n| match n {
                Node::Switch(s) => Some(s.rack_table()),
                Node::Host(_) => None,
            })
            .collect();
        assert_eq!(tables.len(), 2 + 4 + 8);
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, tables[0])));
    }

    #[test]
    fn two_pods_two_domains_cuts_at_core() {
        let p = profile();
        let params = two_pod_64();
        let topo = Topology::clos(params, &p, &p);
        let part = partition(topo, 2);
        assert_eq!(part.n_domains(), 2);
        // 64 hosts, one pod per domain.
        assert_eq!(part.host_domain.len(), 64);
        let d0 = part.host_domain.iter().filter(|&&d| d == 0).count();
        assert_eq!(d0, 32);
        assert_eq!(part.lookahead, params.fabric_prop);
        assert!(part.lookahead > TimeDelta::ZERO);
    }
}
