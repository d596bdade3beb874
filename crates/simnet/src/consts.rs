//! Wire-format constants shared by all transports.
//!
//! Sizes are *on-wire* Ethernet bytes (frame + preamble + inter-frame gap),
//! used both for serialization time and buffer occupancy. The paper's
//! thresholds are quoted in kB of queue length; the ~2.5 % framing overhead
//! relative to IP bytes is irrelevant at the granularity of its results.
//!
//! This module is the **only** blessed crossing between the payload-byte and
//! wire-byte domains (see `simcore::units`): [`data_wire_bytes`] maps a
//! payload to its on-wire size, and [`packets_for`] / [`payload_of_packet`]
//! packetize a flow. Everything downstream stays in whichever typed domain
//! it received.

use flexpass_simcore::units::{Bytes, PktCount, WireBytes};

/// Maximum application payload carried by one data packet.
pub const MTU_PAYLOAD: Bytes = Bytes::new(1_460);

/// On-wire size of a full data packet: 1460 B payload + TCP/IP-like + FlexPass
/// headers + Ethernet framing, preamble and IFG.
pub const DATA_WIRE: WireBytes = WireBytes::new(1_538);

/// On-wire size of the headers of a data packet (used for runt last packets).
pub const DATA_HEADER_WIRE: WireBytes = WireBytes::new(DATA_WIRE.get() - MTU_PAYLOAD.get());

/// On-wire size of a control packet (credit, ACK, grant, request): a minimum
/// 64 B Ethernet frame plus preamble and IFG.
pub const CTRL_WIRE: WireBytes = WireBytes::new(84);

/// Fraction of link capacity the ExpressPass credit queue must be limited to
/// so that the triggered data packets exactly fill the link:
/// `CTRL_WIRE / (CTRL_WIRE + DATA_WIRE)`.
pub const CREDIT_RATE_FULL_FRACTION: f64 =
    CTRL_WIRE.get() as f64 / (CTRL_WIRE.get() as f64 + DATA_WIRE.get() as f64);

/// On-wire size of a data packet carrying `payload` bytes.
///
/// This is a domain crossing: the payload rides inside the wire frame, so
/// the payload count re-enters the wire domain here — and only here.
pub fn data_wire_bytes(payload: Bytes) -> WireBytes {
    debug_assert!(payload > Bytes::ZERO && payload <= MTU_PAYLOAD);
    (DATA_HEADER_WIRE + WireBytes::new(payload.get())).max(CTRL_WIRE)
}

/// Largest flow [`packets_for`] can count: `u32::MAX` full packets.
pub const MAX_FLOW_BYTES: Bytes = Bytes::new(MTU_PAYLOAD.get() * u32::MAX as u64);

/// Number of data packets needed to carry `size` bytes of application data.
///
/// A zero-byte flow still takes one (runt) packet: connection setup and
/// completion signalling ride on data packets in this model. `size` is at
/// most [`MAX_FLOW_BYTES`].
pub fn packets_for(size: Bytes) -> PktCount {
    let n = size.div_ceil(MTU_PAYLOAD).max(1);
    debug_assert!(n <= u32::MAX as u64);
    PktCount::new(n as u32)
}

/// Payload carried by packet index `i` (0-based) of a `size`-byte flow.
pub fn payload_of_packet(size: Bytes, i: u32) -> Bytes {
    let n = packets_for(size);
    debug_assert!(i < n.get());
    if i + 1 < n.get() {
        MTU_PAYLOAD
    } else {
        size - n.saturating_sub(PktCount::ONE) * MTU_PAYLOAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_fraction_is_about_5_percent() {
        assert!((CREDIT_RATE_FULL_FRACTION - 0.0518).abs() < 0.001);
    }

    #[test]
    fn packets_for_sizes() {
        assert_eq!(packets_for(Bytes::new(1)), PktCount::new(1));
        assert_eq!(packets_for(Bytes::new(1460)), PktCount::new(1));
        assert_eq!(packets_for(Bytes::new(1461)), PktCount::new(2));
        assert_eq!(packets_for(Bytes::new(64_000)), PktCount::new(44));
        assert_eq!(packets_for(MAX_FLOW_BYTES), PktCount::new(u32::MAX));
    }

    #[test]
    fn zero_size_flow_still_takes_one_packet() {
        assert_eq!(packets_for(Bytes::ZERO), PktCount::ONE);
        assert_eq!(payload_of_packet(Bytes::ZERO, 0), Bytes::ZERO);
    }

    #[test]
    fn exact_mtu_multiple_has_full_last_packet() {
        for mult in [1u64, 2, 44, 1000] {
            let size = MTU_PAYLOAD * mult;
            let n = packets_for(size);
            assert_eq!(u64::from(n.get()), mult, "size {size}");
            assert_eq!(payload_of_packet(size, n.get() - 1), MTU_PAYLOAD);
        }
    }

    #[test]
    fn payload_partition_conserves_bytes() {
        for raw in [1u64, 100, 1460, 1461, 2920, 64_000, 1_000_000] {
            let size = Bytes::new(raw);
            let n = packets_for(size);
            let total: Bytes = (0..n.get()).map(|i| payload_of_packet(size, i)).sum();
            assert_eq!(total, size, "size {size}");
        }
    }

    #[test]
    fn wire_bytes_bounds() {
        assert_eq!(data_wire_bytes(MTU_PAYLOAD), DATA_WIRE);
        assert!(data_wire_bytes(Bytes::new(1)) >= CTRL_WIRE);
    }
}
