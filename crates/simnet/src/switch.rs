//! Output-queued switch with shared-buffer dynamic thresholds, per-class
//! queue mapping, and ECMP routing.
//!
//! What a packet touches here does not grow with the fabric: the route
//! lookup reads the shared host→rack table, then one candidate list of
//! this switch's per-rack table (or, for a host attached here, its access
//! port); shared-buffer admission reads one byte count that the ports
//! keep up to date themselves (`port::BufferPool`).

use std::sync::Arc;

use flexpass_simcore::units::WireBytes;

use crate::arena::{PacketArena, PacketId};
use crate::hooks;
use crate::packet::{Packet, TrafficClass};
use crate::port::{BufferPool, Port, PortConfig};
use crate::queue::DropReason;

/// How packets map to egress queues (the DSCP → queue configuration an
/// operator would install).
#[derive(Clone, Copy, Debug)]
pub enum ClassMap {
    /// Everything shares queue 0 (plain FIFO switch).
    Single,
    /// Explicit per-class queue indices. Classes may share an index (the
    /// Naïve scheme maps `NewData` and `Legacy` to the same queue).
    Split {
        /// Queue for [`TrafficClass::Credit`].
        credit: usize,
        /// Queue for [`TrafficClass::NewData`].
        new_data: usize,
        /// Queue for [`TrafficClass::NewCtrl`].
        new_ctrl: usize,
        /// Queue for [`TrafficClass::Legacy`].
        legacy: usize,
    },
    /// Homa-style: data packets choose `base + pkt.prio`; control packets
    /// and legacy traffic get fixed queues.
    ByPrio {
        /// First data queue index; packet priority is added to it.
        base: usize,
        /// Number of priority queues.
        n: usize,
        /// Queue for control packets (grants, ACKs).
        ctrl: usize,
        /// Queue for legacy traffic.
        legacy: usize,
    },
}

impl ClassMap {
    /// Egress queue index for `pkt`.
    pub fn queue_for(&self, pkt: &Packet) -> usize {
        match *self {
            ClassMap::Single => 0,
            ClassMap::Split {
                credit,
                new_data,
                new_ctrl,
                legacy,
            } => match pkt.class {
                TrafficClass::Credit => credit,
                TrafficClass::NewData => new_data,
                TrafficClass::NewCtrl => new_ctrl,
                TrafficClass::Legacy => legacy,
            },
            ClassMap::ByPrio {
                base,
                n,
                ctrl,
                legacy,
            } => match pkt.class {
                TrafficClass::Legacy => legacy,
                TrafficClass::NewCtrl | TrafficClass::Credit => ctrl,
                TrafficClass::NewData => base + (pkt.prio as usize).min(n - 1),
            },
        }
    }
}

/// Configuration shared by every port of a switch (and by host NICs, which
/// the paper configures identically to edge switches).
#[derive(Clone, Debug)]
pub struct SwitchProfile {
    /// Per-port queue set and scheduling.
    pub port: PortConfig,
    /// DSCP → queue mapping.
    pub class_map: ClassMap,
    /// Shared buffer `(total, dynamic threshold alpha)`; `None` disables
    /// shared-buffer admission (host NICs).
    pub shared_buffer: Option<(WireBytes, f64)>,
}

/// Per-switch drop counters, by reason.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchCounters {
    /// Drops due to the shared buffer / dynamic threshold.
    pub dropped_buffer: u64,
    /// Drops due to a queue's static cap (credit queue overflow).
    pub dropped_cap: u64,
    /// Selective (red) drops.
    pub dropped_red: u64,
    /// Packets forwarded.
    pub forwarded: u64,
}

/// The hosts attached to a switch: their rack and access ports.
#[derive(Debug)]
struct Access {
    /// Rack this switch serves, or `u32::MAX` when no host attaches here.
    rack: u32,
    /// Lowest attached host id.
    base: usize,
    /// `ports[host - base]` is the access port towards `host`
    /// (`u16::MAX` for a host id in the range that attaches elsewhere).
    ports: Vec<u16>,
}

impl Access {
    /// The access table of `rack` from its `(host, access port)` pairs.
    fn new(rack: usize, hosts: &[(usize, u16)]) -> Self {
        let base = hosts.iter().map(|&(h, _)| h).min().unwrap_or(0);
        let end = hosts.iter().map(|&(h, _)| h + 1).max().unwrap_or(0);
        let mut ports = vec![u16::MAX; end - base];
        for &(h, port) in hosts {
            *ports
                .get_mut(h - base)
                .expect("host within its rack's range") = port;
        }
        Access {
            rack: u32::try_from(rack).expect("rack index fits u32"),
            base,
            ports,
        }
    }
}

/// An output-queued switch.
#[derive(Debug)]
pub struct Switch {
    /// Topology tier (ToR = 0, Agg = 1, Core = 2); selects the ECMP hash
    /// slice so both flow directions make aligned choices.
    pub tier: u8,
    /// Egress ports.
    pub ports: Vec<Port>,
    /// ECMP candidates: `routes[rack]` lists egress port indices on
    /// shortest paths towards that rack's switch (empty for the rack this
    /// switch serves itself: its hosts resolve through the access table).
    pub routes: Vec<Vec<u16>>,
    /// Rack of every host; one table shared by all switches of a fabric.
    rack_of: Arc<[u32]>,
    /// Hosts attached to this switch.
    access: Access,
    /// Bytes queued in this switch's dynamically thresholded queues.
    pool: Arc<BufferPool>,
    class_map: ClassMap,
    shared_buffer: Option<(WireBytes, f64)>,
    counters: SwitchCounters,
    hook_id: hooks::ComponentId,
}

impl Switch {
    /// Creates a switch with `nports` identical ports from `profile`.
    pub fn new(profile: &SwitchProfile, nports: usize, tier: u8) -> Self {
        let pool = Arc::new(BufferPool::default());
        Switch {
            tier,
            ports: (0..nports)
                .map(|_| Port::with_pool(&profile.port, &pool))
                .collect(),
            routes: Vec::new(),
            rack_of: Arc::from([]),
            access: Access {
                rack: u32::MAX,
                base: 0,
                ports: Vec::new(),
            },
            pool,
            class_map: profile.class_map,
            shared_buffer: profile.shared_buffer,
            counters: SwitchCounters::default(),
            hook_id: hooks::new_component_id(),
        }
    }

    /// Drop / forward counters.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// The class map in use.
    pub fn class_map(&self) -> ClassMap {
        self.class_map
    }

    /// Installs the fabric's shared host→rack table and the per-rack
    /// candidate lists (the topology builder fills them in).
    pub(crate) fn install_routes(&mut self, rack_of: Arc<[u32]>, routes: Vec<Vec<u16>>) {
        self.rack_of = rack_of;
        self.routes = routes;
    }

    /// Makes this the switch of `rack`, with its `(host, access port)`
    /// pairs (the topology builder proves no switch serves two racks).
    pub(crate) fn attach_hosts(&mut self, rack: usize, hosts: &[(usize, u16)]) {
        self.access = Access::new(rack, hosts);
    }

    /// The fabric-wide host→rack table this switch routes by.
    #[cfg(test)]
    pub(crate) fn rack_table(&self) -> &Arc<[u32]> {
        &self.rack_of
    }

    /// Egress ports on shortest paths towards host `dst`, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a host of the fabric.
    pub fn candidates(&self, dst: usize) -> &[u16] {
        let rack = *self
            .rack_of
            .get(dst)
            .expect("destination host in rack table");
        if rack == self.access.rack {
            let port = self.access.ports.get(dst.wrapping_sub(self.access.base));
            return std::slice::from_ref(port.expect("local host in access table"));
        }
        self.routes
            .get(rack as usize)
            .expect("destination rack in route table")
    }

    /// Selects the egress port for `pkt` by ECMP over the shortest-path
    /// candidates, using the tier-specific slice of the symmetric flow hash.
    ///
    /// The topology builder proves every candidate list of a built fabric
    /// non-empty; an empty one (a hand-wired switch) yields `usize::MAX`,
    /// which no port has.
    pub fn route(&self, pkt: &Packet) -> usize {
        let cands = self.candidates(pkt.dst);
        if let &[only] = cands {
            return only as usize;
        }
        let h = pkt.path_hash >> (16 * self.tier as u64);
        let pick = h.checked_rem(cands.len() as u64);
        pick.and_then(|i| cands.get(i as usize))
            .map_or(usize::MAX, |&port| port as usize)
    }

    /// Bytes currently admitted against the shared buffer (dynamically
    /// thresholded queues only; statically capped queues are exempt). Read
    /// off the pool the ports charge and credit, so it is exact however
    /// the ports are filled and drained.
    pub fn shared_used(&self) -> WireBytes {
        self.pool.used()
    }

    /// [`Switch::shared_used`] recomputed from the queues themselves: the
    /// reference the audit layer holds the pool count to.
    fn scan_shared(&self) -> WireBytes {
        self.ports
            .iter()
            .map(|p| {
                (0..p.num_queues())
                    .filter(|&qi| p.queue(qi).config().cap_bytes == WireBytes::MAX)
                    .map(|qi| p.queue(qi).bytes())
                    .sum::<WireBytes>()
            })
            .sum()
    }

    /// Attempts to enqueue the packet behind `id` at the routed egress
    /// port. Returns the port index on success so the caller can kick the
    /// port's service loop; on `Err` the caller keeps the id (and must
    /// release it).
    pub fn receive(
        &mut self,
        arena: &mut PacketArena,
        id: PacketId,
    ) -> Result<usize, (DropReason, PacketId)> {
        let (port_idx, qidx, size) = {
            let pkt = arena.get(id).expect("received id is live");
            (self.route(pkt), self.class_map.queue_for(pkt), pkt.wire)
        };

        // Dynamic shared-buffer admission (statically capped queues such as
        // the credit queue manage their own tiny buffer instead).
        let port = self.ports.get(port_idx).expect("routed port in range");
        if port.queue(qidx).config().cap_bytes == WireBytes::MAX {
            if let Some((total, alpha)) = self.shared_buffer {
                let used = self.shared_used();
                let free = total.saturating_sub(used);
                let threshold = WireBytes::from_f64(alpha * free.as_f64());
                let qbytes = port.queue(qidx).bytes();
                if used + size > total || qbytes + size > threshold {
                    self.counters.dropped_buffer += 1;
                    return Err((DropReason::Buffer, id));
                }
                hooks::on_shared_buffer(self.hook_id, (used + size).get(), total.get());
                hooks::on_shared_count(self.hook_id, used.get(), || self.scan_shared().get());
            }
        }

        let port = self.ports.get_mut(port_idx).expect("routed port in range");
        match port.enqueue(arena, qidx, id) {
            Ok(()) => {
                self.counters.forwarded += 1;
                Ok(port_idx)
            }
            Err(r) => {
                match r {
                    DropReason::QueueCap => self.counters.dropped_cap += 1,
                    DropReason::SelectiveRed => self.counters.dropped_red += 1,
                    DropReason::Buffer => self.counters.dropped_buffer += 1,
                }
                Err((r, id))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{CTRL_WIRE, DATA_WIRE};
    use crate::packet::{CreditInfo, DataInfo, Payload, Subflow};
    use crate::port::QueueSched;
    use crate::queue::QueueConfig;
    use flexpass_simcore::time::Rate;
    use flexpass_simcore::units::Bytes;

    fn flexpass_profile() -> SwitchProfile {
        SwitchProfile {
            port: PortConfig {
                rate: Rate::from_gbps(10),
                queues: vec![
                    (
                        QueueConfig::capped(WireBytes::new(1_000)),
                        QueueSched::strict(0).shaped(Rate::from_mbps(273), CTRL_WIRE * 2),
                    ),
                    (
                        QueueConfig::plain()
                            .with_ecn(WireBytes::new(65_000))
                            .with_red_threshold(WireBytes::new(150_000)),
                        QueueSched::weighted(1, 0.5),
                    ),
                    (
                        QueueConfig::plain().with_ecn(WireBytes::new(100_000)),
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
            shared_buffer: Some((WireBytes::new(4_500_000), 0.25)),
        }
    }

    fn data_to(dst: usize, class: TrafficClass, red: bool) -> Packet {
        let p = Packet::new(
            5,
            0,
            dst,
            DATA_WIRE,
            class,
            Payload::Data(DataInfo {
                flow_seq: 0,
                sub_seq: 0,
                sub: Subflow::Reactive,
                payload: Bytes::new(1460),
                retx: false,
            }),
        );
        if red {
            p.red()
        } else {
            p
        }
    }

    fn wired_switch() -> Switch {
        let mut sw = Switch::new(&flexpass_profile(), 2, 0);
        // Host 0 (rack 0) behind port 0, host 1 (rack 1) behind port 1.
        sw.install_routes(Arc::from([0, 1]), vec![vec![0], vec![1]]);
        sw
    }

    /// Receive a packet value, releasing the slot again on a drop (what
    /// the simulator's arrive path does).
    fn recv(sw: &mut Switch, a: &mut PacketArena, pkt: Packet) -> Result<usize, DropReason> {
        let id = a.acquire(pkt);
        sw.receive(a, id).map_err(|(r, id)| {
            a.release(id);
            r
        })
    }

    #[test]
    fn class_map_split() {
        let sw = wired_switch();
        let credit = Packet::new(
            5,
            1,
            0,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        );
        assert_eq!(sw.class_map().queue_for(&credit), 0);
        assert_eq!(
            sw.class_map()
                .queue_for(&data_to(1, TrafficClass::NewData, false)),
            1
        );
        assert_eq!(
            sw.class_map()
                .queue_for(&data_to(1, TrafficClass::Legacy, false)),
            2
        );
    }

    #[test]
    fn class_map_by_prio() {
        let cm = ClassMap::ByPrio {
            base: 1,
            n: 8,
            ctrl: 0,
            legacy: 1,
        };
        let p = data_to(1, TrafficClass::NewData, false).with_prio(3);
        assert_eq!(cm.queue_for(&p), 4);
        // Legacy maps to the highest-priority data queue (paper footnote 3).
        assert_eq!(cm.queue_for(&data_to(1, TrafficClass::Legacy, false)), 1);
        // Priorities beyond the range clamp.
        let p = data_to(1, TrafficClass::NewData, false).with_prio(200);
        assert_eq!(cm.queue_for(&p), 8);
    }

    #[test]
    fn routes_and_forwards() {
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        let port = recv(&mut sw, &mut a, data_to(1, TrafficClass::NewData, false)).unwrap();
        assert_eq!(port, 1);
        assert_eq!(sw.counters().forwarded, 1);
        assert_eq!(sw.ports[1].backlog_bytes(), DATA_WIRE);
    }

    #[test]
    fn selective_red_drop_at_switch() {
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        // 150 kB red threshold: 97 full packets fit, the 98th red is dropped.
        let mut admitted = 0u64;
        for _ in 0..120 {
            if recv(&mut sw, &mut a, data_to(1, TrafficClass::NewData, true)).is_ok() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 150_000 / DATA_WIRE.get());
        assert!(sw.counters().dropped_red > 0);
        // Green packets still admitted past the red threshold.
        assert!(recv(&mut sw, &mut a, data_to(1, TrafficClass::NewData, false)).is_ok());
    }

    #[test]
    fn dynamic_threshold_limits_queue() {
        // Alpha = 0.25, total 4.5 MB: an empty switch admits one queue up to
        // threshold alpha/(1+alpha) * total = 0.9 MB.
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        let mut admitted_bytes = 0u64;
        for _ in 0..2000 {
            match recv(&mut sw, &mut a, data_to(1, TrafficClass::Legacy, false)) {
                Ok(_) => admitted_bytes += DATA_WIRE.get(),
                Err(r) => {
                    assert_eq!(r, DropReason::Buffer);
                    break;
                }
            }
        }
        let expected = (0.25f64 / 1.25 * 4_500_000.0) as u64;
        assert!(
            (admitted_bytes as i64 - expected as i64).unsigned_abs() < 5 * DATA_WIRE.get(),
            "admitted {admitted_bytes}, expected ~{expected}"
        );
    }

    #[test]
    fn credit_queue_exempt_from_shared_buffer() {
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        // Fill legacy queue to its dynamic limit.
        while recv(&mut sw, &mut a, data_to(1, TrafficClass::Legacy, false)).is_ok() {}
        // Credits still admitted (own tiny buffer).
        let credit = Packet::new(
            5,
            0,
            1,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        );
        assert!(recv(&mut sw, &mut a, credit).is_ok());
    }

    #[test]
    fn ports_report_occupancy_by_class() {
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        recv(&mut sw, &mut a, data_to(1, TrafficClass::NewData, true)).unwrap();
        recv(&mut sw, &mut a, data_to(1, TrafficClass::Legacy, false)).unwrap();
        let (new_data, legacy) = (sw.ports[1].queue(1), sw.ports[1].queue(2));
        assert_eq!(
            (new_data.bytes(), new_data.red_bytes()),
            (DATA_WIRE, DATA_WIRE)
        );
        assert_eq!(
            (legacy.bytes(), legacy.red_bytes()),
            (DATA_WIRE, WireBytes::ZERO)
        );
        assert_eq!(sw.ports[0].backlog_bytes(), WireBytes::ZERO);
    }
}
