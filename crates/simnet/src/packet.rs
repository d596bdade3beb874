//! The packet model: flows, traffic classes, colors, and transport headers.

use flexpass_simcore::rng::symmetric_flow_hash;
use flexpass_simcore::time::Time;
use flexpass_simcore::units::{Bytes, WireBytes};

use crate::consts::{data_wire_bytes, payload_of_packet, CTRL_WIRE};

/// Globally unique flow identifier.
pub type FlowId = u64;

/// Host index (position in the topology's host list).
pub type HostId = usize;

/// One flow to be simulated: `size` application bytes from `src` to `dst`
/// starting at `start`. `tag` is an opaque label used by metrics to group
/// flows (e.g. "legacy DCTCP" vs "upgraded FlexPass"); `fg` marks foreground
/// (incast) flows in mixed-traffic scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Unique id; also the ECMP hash salt so both directions share a path.
    pub id: FlowId,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Application bytes to transfer.
    pub size: Bytes,
    /// Flow arrival time.
    pub start: Time,
    /// Metrics grouping label (scheme-defined).
    pub tag: u32,
    /// Foreground (incast) flow marker.
    pub fg: bool,
}

impl FlowSpec {
    /// Symmetric ECMP path hash for this flow.
    pub fn path_hash(&self) -> u64 {
        symmetric_flow_hash(self.src as u64, self.dst as u64, self.id)
    }
}

/// Traffic class — the simulator's stand-in for a DSCP value. Switches map
/// classes to egress queues via their [`crate::switch::SwitchProfile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// ExpressPass / FlexPass credit packets (Q0: strict priority, shaped).
    Credit,
    /// New-transport data packets (Q1 under FlexPass / oWF).
    NewData,
    /// New-transport control packets (ACKs, credit requests; Q1, green).
    NewCtrl,
    /// Legacy reactive traffic, data and ACKs (Q2).
    Legacy,
}

/// Drop-precedence color for selective dropping (§5: color-aware dropping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Color {
    /// Protected: dropped only when the whole queue/buffer overflows.
    Green,
    /// Droppable: dropped once the per-queue red-byte threshold is exceeded.
    Red,
}

/// Which FlexPass sub-flow a data packet belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subflow {
    /// Credit-scheduled sub-flow (ExpressPass control loop).
    Proactive,
    /// Opportunistic, window-clocked sub-flow (DCTCP control loop).
    Reactive,
    /// Single-loop transports (plain DCTCP / ExpressPass / Homa).
    Only,
}

/// Data packet header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataInfo {
    /// Per-flow sequence number, in packets, used for reassembly.
    pub flow_seq: u32,
    /// Per-sub-flow sequence number, in packets, used for loss detection.
    pub sub_seq: u32,
    /// Sub-flow the packet was sent on.
    pub sub: Subflow,
    /// Application bytes carried.
    pub payload: Bytes,
    /// True if this is a retransmission (any kind).
    pub retx: bool,
}

/// Up to this many SACK ranges ride in each ACK.
pub const MAX_SACK: usize = 3;

/// ACK header (cumulative + selective acknowledgment, per sub-flow).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckInfo {
    /// Sub-flow this ACK belongs to.
    pub sub: Subflow,
    /// Next expected `sub_seq` (cumulative).
    pub cum: u32,
    /// SACK ranges `[lo, hi)` in `sub_seq` space, above `cum`.
    pub sack: [(u32, u32); MAX_SACK],
    /// Number of valid entries in `sack`.
    pub sack_n: u8,
    /// ECN echo: the acknowledged data packet carried a CE mark.
    pub ece: bool,
    /// `flow_seq` of the data packet that triggered this ACK (receiver-side
    /// dedup/report aid).
    pub acked_flow_seq: u32,
}

impl AckInfo {
    /// What this ACK acknowledges, as ranges `[lo, hi)` in the order a
    /// sender applies them: `from..cum` (`from` is the sender's own
    /// cumulative point), then each SACK block.
    #[inline]
    pub fn ranges(&self, from: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let sack = self.sack.iter().take(self.sack_n.into()).copied();
        std::iter::once((from, self.cum)).chain(sack)
    }
}

/// Credit packet header (ExpressPass).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditInfo {
    /// Monotonic credit index, used to measure credit loss in the feedback
    /// loop.
    pub idx: u32,
}

/// Homa-style grant header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantInfo {
    /// Grant authorizes transmission of packets with `sub_seq < upto`.
    pub upto: u32,
    /// Network priority the granted packets should use.
    pub prio: u8,
}

/// Transport payload of a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Application data.
    Data(DataInfo),
    /// Acknowledgment.
    Ack(AckInfo),
    /// ExpressPass credit.
    Credit(CreditInfo),
    /// Request to start sending credits (carries the flow size in packets).
    CreditReq {
        /// Total flow length in packets.
        pkts: u32,
    },
    /// Homa grant.
    Grant(GrantInfo),
}

/// A simulated packet. Kept small and `Copy` (no heap allocations) as
/// millions of these flow through the event queue.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Originating host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// On-wire size (serialization + buffer occupancy).
    pub wire: WireBytes,
    /// Traffic class (DSCP analog) for queue mapping.
    pub class: TrafficClass,
    /// Drop-precedence color.
    pub color: Color,
    /// Whether the packet is ECN-capable.
    pub ecn_capable: bool,
    /// Congestion Experienced mark (set by switches).
    pub ecn_ce: bool,
    /// Homa priority level (0 = highest); unused by other transports.
    pub prio: u8,
    /// Symmetric ECMP hash (identical for both flow directions).
    pub path_hash: u64,
    /// Transport header.
    pub payload: Payload,
}

impl Packet {
    /// Builds a packet for `flow` travelling `src -> dst`.
    ///
    /// The ECMP `path_hash` is derived symmetrically from the endpoints and
    /// flow id, so ACK/credit packets built with swapped `src`/`dst` follow
    /// the same fabric path in reverse.
    pub fn new(
        flow: FlowId,
        src: HostId,
        dst: HostId,
        wire: WireBytes,
        class: TrafficClass,
        payload: Payload,
    ) -> Packet {
        Packet {
            flow,
            src,
            dst,
            wire,
            class,
            color: Color::Green,
            ecn_capable: false,
            ecn_ce: false,
            prio: 0,
            path_hash: symmetric_flow_hash(src as u64, dst as u64, flow),
            payload,
        }
    }

    /// Data packet `flow_seq` of `spec`, sender to receiver, carrying that
    /// packet's share of the flow's bytes as slot `sub_seq` of sub-flow
    /// `sub`.
    pub fn data(
        spec: &FlowSpec,
        class: TrafficClass,
        flow_seq: u32,
        sub: Subflow,
        sub_seq: u32,
        retx: bool,
    ) -> Packet {
        let payload = payload_of_packet(spec.size, flow_seq);
        let info = DataInfo {
            flow_seq,
            sub_seq,
            sub,
            payload,
            retx,
        };
        Packet::new(
            spec.id,
            spec.src,
            spec.dst,
            data_wire_bytes(payload),
            class,
            Payload::Data(info),
        )
    }

    /// Control packet (credit request) from `spec`'s sender to its receiver.
    pub fn to_receiver(spec: &FlowSpec, class: TrafficClass, payload: Payload) -> Packet {
        Packet::new(spec.id, spec.src, spec.dst, CTRL_WIRE, class, payload)
    }

    /// Control packet (ACK, credit, grant) from `spec`'s receiver back to its
    /// sender.
    pub fn to_sender(spec: &FlowSpec, class: TrafficClass, payload: Payload) -> Packet {
        Packet::new(spec.id, spec.dst, spec.src, CTRL_WIRE, class, payload)
    }

    /// Inert filler for arena slots that have never held a real packet.
    pub(crate) fn placeholder() -> Packet {
        Packet::new(
            0,
            0,
            0,
            WireBytes::ZERO,
            TrafficClass::NewCtrl,
            Payload::CreditReq { pkts: 0 },
        )
    }

    /// Marks the packet red (subject to selective dropping).
    pub fn red(mut self) -> Packet {
        self.color = Color::Red;
        self
    }

    /// Marks the packet ECN-capable.
    pub fn ecn(mut self) -> Packet {
        self.ecn_capable = true;
        self
    }

    /// Sets the Homa-style priority.
    pub fn with_prio(mut self, p: u8) -> Packet {
        self.prio = p;
        self
    }

    /// True for data-bearing packets.
    pub fn is_data(&self) -> bool {
        matches!(self.payload, Payload::Data(_))
    }

    /// Application bytes carried (zero for control packets).
    pub fn payload_bytes(&self) -> Bytes {
        match self.payload {
            Payload::Data(d) => d.payload,
            _ => Bytes::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_pkt(flow: FlowId, src: HostId, dst: HostId) -> Packet {
        Packet::new(
            flow,
            src,
            dst,
            data_wire_bytes(Bytes::new(1460)),
            TrafficClass::NewData,
            Payload::Data(DataInfo {
                flow_seq: 0,
                sub_seq: 0,
                sub: Subflow::Proactive,
                payload: Bytes::new(1460),
                retx: false,
            }),
        )
    }

    #[test]
    fn path_hash_symmetric_across_directions() {
        let fwd = data_pkt(7, 3, 9);
        let rev = Packet::new(
            7,
            9,
            3,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        );
        assert_eq!(fwd.path_hash, rev.path_hash);
    }

    #[test]
    fn builders_set_flags() {
        let p = data_pkt(1, 0, 1).red().ecn().with_prio(3);
        assert_eq!(p.color, Color::Red);
        assert!(p.ecn_capable);
        assert!(!p.ecn_ce);
        assert_eq!(p.prio, 3);
        assert!(p.is_data());
        assert_eq!(p.payload_bytes(), Bytes::new(1460));
    }

    #[test]
    fn flow_spec_hash_matches_packet_hash() {
        let spec = FlowSpec {
            id: 42,
            src: 5,
            dst: 17,
            size: Bytes::new(1_000_000),
            start: Time::ZERO,
            tag: 0,
            fg: false,
        };
        let p = data_pkt(42, 5, 17);
        assert_eq!(spec.path_hash(), p.path_hash);
    }

    #[test]
    fn control_packets_have_no_payload_bytes() {
        let p = Packet::new(
            1,
            0,
            1,
            CTRL_WIRE,
            TrafficClass::NewCtrl,
            Payload::CreditReq { pkts: 0 },
        );
        assert!(!p.is_data());
        assert_eq!(p.payload_bytes(), Bytes::ZERO);
    }
}
