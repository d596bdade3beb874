//! Units-of-measure newtypes for byte accounting.
//!
//! FlexPass's evaluation hinges on exact byte accounting: *wire* bytes
//! (frame + preamble + inter-frame gap) drive serialization delay, credit
//! pacing, RED/ECN thresholds, and shared-buffer occupancy, while *payload*
//! bytes drive flow completion and goodput. Mixing the two is a silent
//! ~5 % error that no runtime audit reliably catches. This module makes the
//! distinction a compile error:
//!
//! * [`Bytes`] — application/payload bytes (flow sizes, per-packet payload).
//! * [`WireBytes`] — on-wire bytes including all framing overhead.
//! * [`PktCount`] — a count of packets (never bytes).
//!
//! There is deliberately **no** `From`/`Into` between [`Bytes`] and
//! [`WireBytes`]; the only blessed conversions are the wire-format functions
//! in `simnet::consts` (`data_wire_bytes`, `packets_for`,
//! `payload_of_packet`), which encode the header/framing model in one place.
//!
//! Arithmetic is checked: `+` / `-` panic on overflow or underflow instead
//! of wrapping, so byte-conservation bugs surface at the faulty operation
//! rather than as corrupted counters thousands of events later. Escaping to
//! raw integers is explicit (`get`) and crossing to floats goes through the
//! contained `as_f64` / `from_f64` pair so the `raw-cast` lint can pin every
//! remaining numeric cast to this file and `simcore::time`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use crate::time::{Rate, TimeDelta};

/// Application (payload) bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(u64);

/// On-wire bytes: frame, preamble and inter-frame gap included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireBytes(u64);

/// A count of packets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PktCount(u32);

macro_rules! byte_newtype {
    ($ty:ident, $what:expr) => {
        impl $ty {
            /// Zero.
            pub const ZERO: $ty = $ty(0);
            /// Largest representable value (used for "uncapped" sentinels).
            pub const MAX: $ty = $ty(u64::MAX);

            /// Wraps a raw count.
            pub const fn new(n: u64) -> $ty {
                $ty(n)
            }

            /// Unwraps to the raw count (explicit escape hatch).
            pub const fn get(self) -> u64 {
                self.0
            }

            /// True when zero.
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }

            /// Checked addition; `None` on overflow.
            pub const fn checked_add(self, rhs: $ty) -> Option<$ty> {
                match self.0.checked_add(rhs.0) {
                    Some(n) => Some($ty(n)),
                    None => None,
                }
            }

            /// Checked subtraction; `None` on underflow.
            pub const fn checked_sub(self, rhs: $ty) -> Option<$ty> {
                match self.0.checked_sub(rhs.0) {
                    Some(n) => Some($ty(n)),
                    None => None,
                }
            }

            /// Subtraction clamped at zero.
            pub const fn saturating_sub(self, rhs: $ty) -> $ty {
                $ty(self.0.saturating_sub(rhs.0))
            }

            /// Addition clamped at `MAX`.
            pub const fn saturating_add(self, rhs: $ty) -> $ty {
                $ty(self.0.saturating_add(rhs.0))
            }

            /// Ceiling division by `rhs`, e.g. packetization.
            pub const fn div_ceil(self, rhs: $ty) -> u64 {
                self.0.div_ceil(rhs.0)
            }

            /// Lossy conversion to `f64` for reporting / weighted math.
            /// Exact for values below 2^53 — far beyond any simulated
            /// buffer or flow size.
            pub fn as_f64(self) -> f64 {
                self.0 as f64 // lint:allow(raw-cast): the one contained widening
            }

            /// Converts back from a non-negative finite `f64` (truncating),
            /// for threshold math that is specified as a float fraction.
            ///
            /// # Panics
            /// On NaN, infinite, or negative input.
            pub fn from_f64(v: f64) -> $ty {
                assert!(v.is_finite() && v >= 0.0, "{} from invalid f64 {v}", $what);
                $ty(v as u64) // lint:allow(raw-cast): contained narrowing
            }
        }

        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                match self.checked_add(rhs) {
                    Some(n) => n,
                    // lint:allow(panic-path): checked-arithmetic contract; overflow is a caller bug
                    None => panic!("{} overflow: {} + {}", $what, self.0, rhs.0),
                }
            }
        }

        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                match self.checked_sub(rhs) {
                    Some(n) => n,
                    // lint:allow(panic-path): checked-arithmetic contract; overflow is a caller bug
                    None => panic!("{} underflow: {} - {}", $what, self.0, rhs.0),
                }
            }
        }

        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                *self = *self + rhs;
            }
        }

        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                *self = *self - rhs;
            }
        }

        impl Mul<u64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: u64) -> $ty {
                match self.0.checked_mul(rhs) {
                    Some(n) => $ty(n),
                    // lint:allow(panic-path): checked-arithmetic contract; overflow is a caller bug
                    None => panic!("{} overflow: {} * {}", $what, self.0, rhs),
                }
            }
        }

        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold($ty::ZERO, |a, b| a + b)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} B", self.0)
            }
        }
    };
}

byte_newtype!(Bytes, "Bytes");
byte_newtype!(WireBytes, "WireBytes");

impl PktCount {
    /// Zero packets.
    pub const ZERO: PktCount = PktCount(0);
    /// One packet.
    pub const ONE: PktCount = PktCount(1);

    /// Wraps a raw count.
    pub const fn new(n: u32) -> PktCount {
        PktCount(n)
    }

    /// Unwraps to the raw count.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: PktCount) -> Option<PktCount> {
        match self.0.checked_add(rhs.0) {
            Some(n) => Some(PktCount(n)),
            None => None,
        }
    }

    /// Subtraction clamped at zero.
    pub const fn saturating_sub(self, rhs: PktCount) -> PktCount {
        PktCount(self.0.saturating_sub(rhs.0))
    }
}

impl Add for PktCount {
    type Output = PktCount;
    fn add(self, rhs: PktCount) -> PktCount {
        match self.checked_add(rhs) {
            Some(n) => n,
            // lint:allow(panic-path): checked-arithmetic contract; overflow is a caller bug
            None => panic!("PktCount overflow: {} + {}", self.0, rhs.0),
        }
    }
}

impl fmt::Display for PktCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pkts", self.0)
    }
}

/// Multiplying a packet count by a per-packet wire size yields wire bytes.
impl Mul<WireBytes> for PktCount {
    type Output = WireBytes;
    fn mul(self, rhs: WireBytes) -> WireBytes {
        rhs * u64::from(self.0)
    }
}

/// Multiplying a packet count by a per-packet payload yields payload bytes.
impl Mul<Bytes> for PktCount {
    type Output = Bytes;
    fn mul(self, rhs: Bytes) -> Bytes {
        rhs * u64::from(self.0)
    }
}

// Typed entry points into rate arithmetic. These live here (same crate as
// `Rate`) so the untyped `Rate::serialize(u64)` / `Rate::bytes_over` can
// eventually become private plumbing.
impl Rate {
    /// Serialization delay of `w` on-wire bytes at this rate.
    pub fn serialize_wire(self, w: WireBytes) -> TimeDelta {
        self.serialize(w.get())
    }

    /// On-wire bytes transferable in `d` at this rate (floor).
    pub fn wire_bytes_over(self, d: TimeDelta) -> WireBytes {
        WireBytes::new(self.bytes_over(d))
    }

    /// Payload bytes transferable in `d` at this rate (floor).
    pub fn payload_bytes_over(self, d: TimeDelta) -> Bytes {
        Bytes::new(self.bytes_over(d))
    }
}

#[cfg(test)]
// Test expectations compare floats that are exact by construction.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn checked_arithmetic_roundtrip() {
        let a = Bytes::new(1460);
        let b = Bytes::new(40);
        assert_eq!((a + b).get(), 1500);
        assert_eq!((a - b).get(), 1420);
        assert_eq!(a.saturating_sub(a + b), Bytes::ZERO);
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(Bytes::MAX.checked_add(Bytes::new(1)), None);
        let mut c = WireBytes::new(84);
        c += WireBytes::new(1538);
        c -= WireBytes::new(84);
        assert_eq!(c, WireBytes::new(1538));
    }

    #[test]
    #[should_panic(expected = "Bytes underflow")]
    fn sub_underflow_panics() {
        let _ = Bytes::new(1) - Bytes::new(2);
    }

    #[test]
    #[should_panic(expected = "WireBytes overflow")]
    fn add_overflow_panics() {
        let _ = WireBytes::MAX + WireBytes::new(1);
    }

    #[test]
    fn pkt_count_scales_bytes() {
        assert_eq!(
            PktCount::new(3) * WireBytes::new(1538),
            WireBytes::new(4614)
        );
        assert_eq!(PktCount::new(2) * Bytes::new(1460), Bytes::new(2920));
        assert_eq!((PktCount::ONE + PktCount::new(4)).get(), 5);
        assert_eq!(
            PktCount::new(2).saturating_sub(PktCount::new(5)),
            PktCount::ZERO
        );
    }

    #[test]
    fn sum_and_display() {
        let total: Bytes = [1u64, 2, 3].into_iter().map(Bytes::new).sum();
        assert_eq!(total, Bytes::new(6));
        assert_eq!(format!("{}", WireBytes::new(84)), "84 B");
        assert_eq!(format!("{}", PktCount::new(7)), "7 pkts");
    }

    #[test]
    fn float_crossings_are_contained() {
        assert_eq!(Bytes::new(1500).as_f64(), 1500.0);
        assert_eq!(WireBytes::from_f64(1537.9), WireBytes::new(1537));
        assert_eq!(Bytes::from_f64(0.0), Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "from invalid f64")]
    fn from_f64_rejects_negative() {
        let _ = WireBytes::from_f64(-1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// serialize/bytes_over round-trip: sending the serialization time
        /// of `w` wire bytes back through the rate recovers at least `w`
        /// (ceiling delay) but never a full extra byte's worth of slack
        /// beyond what one delay quantum can carry.
        #[test]
        fn rate_roundtrip_recovers_wire_bytes(
            bps in 1_000u64..400_000_000_000,
            raw in 1u64..10_000_000,
        ) {
            let rate = Rate::from_bps(bps);
            let w = WireBytes::new(raw);
            let d = rate.serialize_wire(w);
            let back = rate.wire_bytes_over(d);
            prop_assert!(back >= w, "{back} < {w} at {bps} bps");
            // The ceiling in serialize overshoots by < 1 ns of bytes.
            let slack = rate.wire_bytes_over(TimeDelta::nanos(1));
            prop_assert!(back.get() <= w.get() + slack.get().max(1));
        }

        /// serialize is monotone in the byte count: more bytes never take
        /// less time, expressed in the typed Bytes domain.
        #[test]
        fn rate_serialize_monotone_in_bytes(
            bps in 1_000u64..400_000_000_000,
            a in 0u64..5_000_000,
            extra in 0u64..5_000_000,
        ) {
            let rate = Rate::from_bps(bps);
            let small = Bytes::new(a);
            let large = small + Bytes::new(extra);
            prop_assert!(
                rate.serialize(large.get()) >= rate.serialize(small.get())
            );
        }

        /// bytes_over is monotone in the interval and additive up to one
        /// quantum: splitting an interval never yields more bytes.
        #[test]
        fn rate_bytes_over_monotone(
            bps in 1_000u64..400_000_000_000,
            ns_a in 0u64..1_000_000_000,
            ns_b in 0u64..1_000_000_000,
        ) {
            let rate = Rate::from_bps(bps);
            let whole = rate.payload_bytes_over(TimeDelta::nanos(ns_a + ns_b));
            let parts = rate.payload_bytes_over(TimeDelta::nanos(ns_a))
                + rate.payload_bytes_over(TimeDelta::nanos(ns_b));
            prop_assert!(parts <= whole);
            prop_assert!(whole.get() - parts.get() <= 2); // two floor losses
        }
    }
}
