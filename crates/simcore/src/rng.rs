//! Deterministic randomness and flow hashing.
//!
//! All stochastic behaviour in the simulator (workload arrivals, flow sizes,
//! jitter) flows through [`SimRng`], a seeded splitmix/xoshiro-style PRNG, so
//! that every experiment is exactly reproducible from its seed. ECMP path
//! selection uses [`symmetric_flow_hash`], which is invariant under swapping
//! source and destination — the property ExpressPass (and hence FlexPass)
//! requires so that credit packets retrace the data path in reverse.

/// A small, fast, seedable PRNG (xoshiro256** core with splitmix64 seeding).
///
/// We implement it directly rather than going through `rand`'s trait stack in
/// the hot path; `rand` remains available for distributions in the workload
/// crate.
///
/// # Examples
///
/// ```
/// use flexpass_simcore::rng::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // the bounds used here and determinism is what matters.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform usize index in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// A 64-bit mix of an arbitrary key (used for hashing tuples).
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// Symmetric per-flow hash for ECMP.
///
/// The hash is identical for `(a, b)` and `(b, a)` endpoints so forward data
/// packets and reverse credit/ACK packets of the same flow pick the same
/// up/down path through a Clos fabric (given consistent next-hop ordering).
/// `salt` distinguishes flows between the same endpoint pair.
///
/// # Examples
///
/// ```
/// use flexpass_simcore::rng::symmetric_flow_hash;
///
/// assert_eq!(symmetric_flow_hash(3, 9, 77), symmetric_flow_hash(9, 3, 77));
/// assert_ne!(symmetric_flow_hash(3, 9, 77), symmetric_flow_hash(3, 9, 78));
/// ```
pub fn symmetric_flow_hash(a: u64, b: u64, salt: u64) -> u64 {
    let lo = a.min(b);
    let hi = a.max(b);
    mix64(mix64(lo ^ 0xA076_1D64_78BD_642F) ^ mix64(hi ^ 0xE703_7ED1_A0B4_28DB) ^ mix64(salt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_sampling_in_range_and_covers() {
        let mut r = SimRng::new(4);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(5);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn symmetric_hash_is_symmetric() {
        for a in 0..20u64 {
            for b in 0..20u64 {
                assert_eq!(symmetric_flow_hash(a, b, 5), symmetric_flow_hash(b, a, 5));
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(11);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
