//! Statistics kernels shared by the metrics and experiment crates.

use crate::time::{Time, TimeDelta};

/// Online mean / variance / min / max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use flexpass_simcore::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.stddev(), 2.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean = mean;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentiles over a retained sample set.
///
/// Samples are kept and sorted on demand; experiments here record at most a
/// few hundred thousand flows, so exactness is affordable and avoids sketch
/// error in tail metrics (the paper's headline numbers are 99th percentiles).
/// Datacenter-scale runs should use [`FctSketch`] instead, which holds
/// bounded memory per metric regardless of flow count.
///
/// Non-finite samples (NaN, ±inf) are rejected at [`Percentiles::push`] and
/// counted ([`Percentiles::rejected_non_finite`]) instead of poisoning the
/// sample set — a NaN used to abort the whole run at report time, deep in
/// the sort comparator, long after the bad sample was recorded.
#[derive(Clone, Debug, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
    non_finite: u64,
}

impl Percentiles {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
            non_finite: 0,
        }
    }

    /// Adds one sample. Non-finite values are counted and discarded rather
    /// than recorded (see [`Percentiles::rejected_non_finite`]).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Non-finite samples rejected at [`Percentiles::push`]. Nonzero means
    /// an upstream metric produced NaN/inf — audit-visible, never fatal.
    pub fn rejected_non_finite(&self) -> u64 {
        self.non_finite
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp is a belt-and-braces total order: push() already
            // keeps non-finite values out, so this can never panic.
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) using nearest-rank on the sorted
    /// samples. Returns 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Median.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Maximum sample (0 when empty).
    pub fn max(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        *self.samples.last().expect("non-empty")
    }

    /// Appends every sample of `other`. Quantiles, mean, and max over the
    /// merged set are identical to pooling the raw samples (the set is
    /// re-sorted on demand), so per-domain sample sets from a partitioned
    /// run merge without approximation.
    pub fn merge(&mut self, other: &Percentiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
        self.non_finite += other.non_finite;
    }

    /// Population standard deviation (0 when empty).
    pub fn stddev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n as f64;
        var.sqrt()
    }
}

/// Sub-buckets per octave in [`FctSketch`] (64 = 6 mantissa bits).
const SKETCH_SUB_BITS: u32 = 6;
const SKETCH_SUBS: usize = 1 << SKETCH_SUB_BITS;
/// Smallest representable octave: FCTs below 2^-40 s (~1 ps) clamp into
/// the first bin. Simulated FCTs are at least a serialization delay, so
/// the clamp is unreachable in practice.
const SKETCH_MIN_EXP: i32 = -40;
/// Largest representable octave: FCTs of 2^12 s (~68 min) and above clamp
/// into the last bin.
const SKETCH_MAX_EXP: i32 = 12;
const SKETCH_BINS: usize = ((SKETCH_MAX_EXP - SKETCH_MIN_EXP) as usize) * SKETCH_SUBS;

/// Bounded-memory FCT quantile sketch: a log-spaced fixed-bin histogram
/// with exact count / mean / min / max / variance on the side.
///
/// Each power-of-two octave of the sample range is split into
/// `SKETCH_SUBS` (64) linear sub-buckets, HDR-histogram style. Bucketing
/// extracts the exponent and top mantissa bits of the `f64` directly — no
/// floating-point log, so the bin index is platform-independent and exact.
/// A bucket spans a relative width of `1/64`, so any quantile read from a
/// bucket midpoint is within [`FctSketch::RELATIVE_ERROR`] of the exact
/// order statistic; count, mean, min, max, and stddev are exact because
/// they come from an embedded [`OnlineStats`], not the bins.
///
/// Memory is a fixed ~26 kB per sketch regardless of sample count — the
/// property that lets a streaming recorder survive datacenter-scale runs
/// where retaining per-flow samples is O(flows).
///
/// Non-finite samples are rejected and counted
/// ([`FctSketch::rejected_non_finite`]), mirroring [`Percentiles`].
///
/// [`FctSketch::merge`] adds bin counts integer-exactly and merges the
/// side statistics with the same pairwise update as
/// [`OnlineStats::merge`]; merging per-domain sketches in a fixed domain
/// order is therefore deterministic, and quantiles over the merged bins
/// are identical to sketching the pooled samples.
#[derive(Clone, Debug)]
pub struct FctSketch {
    bins: Box<[u64; SKETCH_BINS]>,
    stats: OnlineStats,
    non_finite: u64,
}

impl Default for FctSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl FctSketch {
    /// Worst-case relative error of any quantile against the exact order
    /// statistic: one bucket spans `[L, L * (1 + 1/64))`, and quantiles
    /// report the bucket midpoint, so the true value is within half a
    /// bucket width. Stated as the full bucket width for a safe bound.
    pub const RELATIVE_ERROR: f64 = 1.0 / SKETCH_SUBS as f64;

    /// An empty sketch.
    pub fn new() -> Self {
        FctSketch {
            bins: Box::new([0u64; SKETCH_BINS]),
            stats: OnlineStats::new(),
            non_finite: 0,
        }
    }

    /// Bin index of a finite sample. Zero and negative values clamp into
    /// the first bin; out-of-range magnitudes clamp into the end bins.
    fn bucket_of(x: f64) -> usize {
        if x <= 0.0 {
            return 0;
        }
        let bits = x.to_bits();
        // lint:allow(raw-cast): IEEE-754 exponent field extraction.
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp < SKETCH_MIN_EXP {
            return 0;
        }
        if exp >= SKETCH_MAX_EXP {
            return SKETCH_BINS - 1;
        }
        // lint:allow(raw-cast): top mantissa bits select the sub-bucket.
        let sub = ((bits >> (52 - SKETCH_SUB_BITS)) & (SKETCH_SUBS as u64 - 1)) as usize;
        (exp - SKETCH_MIN_EXP) as usize * SKETCH_SUBS + sub
    }

    /// Exact power of two via bit construction (`k` within the sketch's
    /// exponent range): deterministic on every platform, no libm.
    fn pow2(k: i32) -> f64 {
        debug_assert!((-1022..=1023).contains(&k));
        f64::from_bits(((k + 1023) as u64) << 52)
    }

    /// Midpoint of a bin's value range.
    fn bin_midpoint(bin: usize) -> f64 {
        let exp = SKETCH_MIN_EXP + (bin / SKETCH_SUBS) as i32;
        let sub = (bin % SKETCH_SUBS) as f64;
        let base = Self::pow2(exp);
        let lo = base * (1.0 + sub / SKETCH_SUBS as f64);
        let hi = base * (1.0 + (sub + 1.0) / SKETCH_SUBS as f64);
        0.5 * (lo + hi)
    }

    /// Adds one sample. Non-finite values are counted and discarded.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.stats.push(x);
        self.bins[Self::bucket_of(x)] += 1;
    }

    /// Number of recorded samples (exact).
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.count() == 0
    }

    /// Non-finite samples rejected at [`FctSketch::push`].
    pub fn rejected_non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Sample mean, exact (0 when empty).
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Smallest sample, exact (0 when empty).
    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    /// Largest sample, exact (0 when empty).
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// Population standard deviation, exact (0 when empty).
    pub fn stddev(&self) -> f64 {
        self.stats.stddev()
    }

    /// The `q`-quantile (`q` in `[0, 1]`), nearest-rank over the binned
    /// counts — same rank convention as [`Percentiles::quantile`]. The
    /// result is the selected bucket's midpoint clamped into the exact
    /// `[min, max]` observed range, so it is within
    /// [`FctSketch::RELATIVE_ERROR`] of the exact order statistic.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.stats.count();
        if n == 0 {
            return 0.0;
        }
        // lint:allow(raw-cast): nearest-rank index from a fraction.
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bin_midpoint(i).clamp(self.stats.min(), self.stats.max());
            }
        }
        self.stats.max()
    }

    /// 99th percentile (within [`FctSketch::RELATIVE_ERROR`]).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Median (within [`FctSketch::RELATIVE_ERROR`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Folds another sketch into this one: bin counts add exactly, side
    /// statistics merge as [`OnlineStats::merge`]. Merging per-domain
    /// sketches in ascending domain order is bit-deterministic.
    pub fn merge(&mut self, other: &FctSketch) {
        for (dst, src) in self.bins.iter_mut().zip(other.bins.iter()) {
            *dst += src;
        }
        self.stats.merge(&other.stats);
        self.non_finite += other.non_finite;
    }
}

/// A fixed-bin time series accumulating a value per bin (e.g. bytes per ms).
///
/// Used for throughput-vs-time plots (Figures 1, 7, 9) and starvation-time
/// accounting (Figure 9c).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bin: TimeDelta,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: TimeDelta) -> Self {
        assert!(bin > TimeDelta::ZERO, "zero bin width");
        TimeSeries {
            bin,
            bins: Vec::new(),
        }
    }

    /// Adds `value` to the bin containing instant `t`.
    pub fn add(&mut self, t: Time, value: f64) {
        // lint:allow(raw-cast): ns / ns is a dimensionless bin index
        let idx = (t.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += value;
    }

    /// All bins in time order (possibly empty trailing bins are absent).
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Iterates `(bin start time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Time, f64)> + '_ {
        let w = self.bin.as_nanos();
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &v)| (Time::from_nanos(i as u64 * w), v))
    }

    /// Adds `other`'s bins elementwise, extending this series if `other`
    /// is longer. Exact for the integral payload-byte values recorded per
    /// bin, so per-domain series from a partitioned run sum to the serial
    /// series bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the bin widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.bin, other.bin, "time-series bin width mismatch");
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0.0);
        }
        for (dst, src) in self.bins.iter_mut().zip(other.bins.iter()) {
            *dst += src;
        }
    }
}

/// Converts bytes accumulated in a bin to the average rate in Gbps.
/// Reporting-only: the result never feeds back into simulation time.
pub fn bytes_to_gbps(bytes: f64, bin: TimeDelta) -> f64 {
    bytes * 8.0 / bin.as_secs_f64() / 1e9 // lint:allow(float-time)
}

#[cfg(test)]
// Test expectations compare floats that are exact by construction.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.variance(), 1.0);
    }

    #[test]
    fn online_stats_merge_matches_pooled() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in data.iter().enumerate() {
            whole.push(x);
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.push(i as f64);
        }
        assert_eq!(p.quantile(0.99), 99.0);
        assert_eq!(p.quantile(1.0), 100.0);
        assert_eq!(p.quantile(0.0), 1.0);
        assert_eq!(p.p50(), 50.0);
        assert_eq!(p.mean(), 50.5);
        assert_eq!(p.max(), 100.0);
    }

    #[test]
    fn percentiles_empty_is_zero() {
        let mut p = Percentiles::new();
        assert_eq!(p.p99(), 0.0);
        assert_eq!(p.mean(), 0.0);
        assert_eq!(p.stddev(), 0.0);
    }

    #[test]
    fn timeseries_bins() {
        let mut ts = TimeSeries::new(TimeDelta::millis(1));
        ts.add(Time::from_micros(100), 5.0);
        ts.add(Time::from_micros(900), 5.0);
        ts.add(Time::from_micros(1500), 2.0);
        assert_eq!(ts.bins(), &[10.0, 2.0]);
    }

    #[test]
    fn timeseries_iter_times() {
        let mut ts = TimeSeries::new(TimeDelta::millis(2));
        ts.add(Time::from_millis(3), 1.0);
        let pts: Vec<_> = ts.iter().collect();
        assert_eq!(pts[1], (Time::from_millis(2), 1.0));
    }

    #[test]
    fn percentiles_merge_matches_pooled() {
        let mut whole = Percentiles::new();
        let mut a = Percentiles::new();
        let mut b = Percentiles::new();
        for i in 1..=100 {
            let x = ((i * 37) % 101) as f64;
            whole.push(x);
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.p50(), whole.p50());
        assert_eq!(a.p99(), whole.p99());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn timeseries_merge_sums_elementwise() {
        let mut a = TimeSeries::new(TimeDelta::millis(1));
        let mut b = TimeSeries::new(TimeDelta::millis(1));
        a.add(Time::from_micros(100), 5.0);
        b.add(Time::from_micros(200), 2.0);
        b.add(Time::from_micros(1500), 4.0);
        a.merge(&b);
        assert_eq!(a.bins(), &[7.0, 4.0]);
    }

    #[test]
    fn bytes_to_gbps_conversion() {
        // 1.25 MB in 1 ms = 10 Gbps.
        assert!((bytes_to_gbps(1_250_000.0, TimeDelta::millis(1)) - 10.0).abs() < 1e-9);
    }

    /// Regression (NaN panic path): a NaN pushed into a Percentiles set
    /// must not abort at report time; it is rejected and counted.
    #[test]
    fn percentiles_reject_non_finite_without_panicking() {
        let mut p = Percentiles::new();
        p.push(1.0);
        p.push(f64::NAN);
        p.push(f64::INFINITY);
        p.push(f64::NEG_INFINITY);
        p.push(2.0);
        assert_eq!(p.count(), 2);
        assert_eq!(p.rejected_non_finite(), 3);
        // The panic used to fire here, inside the sort comparator.
        assert_eq!(p.p99(), 2.0);
        assert_eq!(p.p50(), 1.0);
        let mut merged = Percentiles::new();
        merged.merge(&p);
        assert_eq!(merged.rejected_non_finite(), 3);
    }

    /// Deterministic pseudo-random FCT-like samples spanning ~6 orders of
    /// magnitude (microseconds to seconds), heavy-tailed like a flow-size
    /// mix.
    fn fct_samples(n: u64, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                // xorshift64*: cheap, deterministic, good enough spread.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let u =
                    (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
                // Map uniform [0,1) to log-uniform [1e-6, 1e0) seconds.
                1e-6 * 1e6f64.powf(u)
            })
            .collect()
    }

    #[test]
    fn sketch_quantiles_within_documented_error() {
        let data = fct_samples(50_000, 42);
        let mut sketch = FctSketch::new();
        let mut exact = Percentiles::new();
        for &x in &data {
            sketch.push(x);
            exact.push(x);
        }
        assert_eq!(sketch.count(), 50_000);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let e = exact.quantile(q);
            let s = sketch.quantile(q);
            assert!(
                (s - e).abs() <= FctSketch::RELATIVE_ERROR * e,
                "q{q}: sketch {s} vs exact {e}"
            );
        }
        // Count/mean/min/max/stddev come from the exact side statistics,
        // not the bins (mean/stddev via Welford, so equal to the naive
        // sum only up to accumulation rounding).
        assert!((sketch.mean() - exact.mean()).abs() < 1e-12 * exact.mean().abs().max(1.0));
        assert_eq!(sketch.max(), exact.max());
        assert_eq!(
            sketch.min(),
            data.iter().copied().fold(f64::INFINITY, f64::min)
        );
        assert!((sketch.stddev() - exact.stddev()).abs() < 1e-9 * exact.stddev().max(1.0));
    }

    #[test]
    fn sketch_merge_is_deterministic_and_matches_pooled() {
        let data = fct_samples(10_000, 7);
        let mut pooled = FctSketch::new();
        let mut parts: Vec<FctSketch> = (0..4).map(|_| FctSketch::new()).collect();
        for (i, &x) in data.iter().enumerate() {
            pooled.push(x);
            parts[i % 4].push(x);
        }
        let merge_all = |parts: &[FctSketch]| {
            let mut m = FctSketch::new();
            for p in parts {
                m.merge(p);
            }
            m
        };
        let a = merge_all(&parts);
        let b = merge_all(&parts);
        // Bit-identical across repeated merges in the same order.
        for q in [0.5, 0.99] {
            assert_eq!(a.quantile(q).to_bits(), b.quantile(q).to_bits());
        }
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        // Bin counts of the merged sketch equal the pooled sketch exactly,
        // so quantiles agree bit-for-bit with a single-recorder run.
        assert_eq!(a.count(), pooled.count());
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile(q).to_bits(), pooled.quantile(q).to_bits());
        }
        assert_eq!(a.max(), pooled.max());
    }

    #[test]
    fn sketch_rejects_non_finite_and_clamps_range() {
        let mut s = FctSketch::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        assert_eq!(s.count(), 0);
        assert_eq!(s.rejected_non_finite(), 2);
        assert_eq!(s.quantile(0.5), 0.0);
        // Out-of-range magnitudes land in the clamp bins without panicking.
        s.push(0.0);
        s.push(1e-300);
        s.push(1e300);
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), 1e300);
        // Quantiles stay inside the exact observed range despite clamping.
        assert!(s.quantile(1.0) <= s.max());
        assert!(s.quantile(0.0) >= s.min());
    }

    #[test]
    fn sketch_single_sample_quantile_is_exact() {
        let mut s = FctSketch::new();
        s.push(123e-6);
        // Midpoint clamps into [min, max] = [x, x]: exact for one sample.
        assert_eq!(s.quantile(0.5), 123e-6);
        assert_eq!(s.p99(), 123e-6);
    }
}
