//! Empirical flow-size distributions.
//!
//! Piecewise-linear approximations of the published CDFs the paper
//! evaluates on: web search [Alizadeh 2010], data mining [Greenberg 2009],
//! and the Facebook cache-follower and Hadoop workloads [Roy 2015]. Exact
//! point values are reconstructions of the published curves (the originals
//! ship only as plots or ns-2 inputs); the shapes — small-flow mass and
//! heavy tails — are what the reproduction depends on.
//!
//! [`FlowSizeCdf::new`] checks its points once and returns a [`CdfError`]
//! naming the first bad one; every other method relies on that check. A
//! single point is a valid point mass, so [`FlowSizeCdf::truncate`] is
//! total.

use flexpass_simcore::rng::SimRng;

/// A flow-size distribution given as CDF points `(bytes, probability)`.
#[derive(Clone, Debug)]
pub struct FlowSizeCdf {
    name: &'static str,
    /// Non-empty, bytes increasing, probabilities non-decreasing in
    /// [0, 1] and ending at 1.
    points: Vec<(f64, f64)>,
}

/// Why a list of points is not a flow-size CDF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CdfError {
    /// There are no points.
    Empty,
    /// Point `i` does not have more bytes than point `i - 1`.
    BytesNotIncreasing(usize),
    /// Point `i`'s probability is below point `i - 1`'s or outside [0, 1].
    Probability(usize),
    /// The last probability is not 1.
    EndsBelowOne,
}

impl std::fmt::Display for CdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdfError::Empty => write!(f, "CDF has no points"),
            CdfError::BytesNotIncreasing(i) => write!(f, "CDF bytes do not increase at point {i}"),
            CdfError::Probability(i) => {
                write!(f, "CDF probability decreases or leaves [0, 1] at point {i}")
            }
            CdfError::EndsBelowOne => write!(f, "CDF must end at 1"),
        }
    }
}

impl std::error::Error for CdfError {}

impl FlowSizeCdf {
    /// Builds a distribution from CDF points `(bytes, probability)`: bytes
    /// strictly increasing, probabilities non-decreasing in [0, 1] and
    /// ending at 1. A single point `(x, 1.0)` is a point mass at `x`.
    pub fn new(name: &'static str, points: Vec<(f64, f64)>) -> Result<Self, CdfError> {
        let mut prev: Option<(f64, f64)> = None;
        for (i, &(x, c)) in points.iter().enumerate() {
            if !prev.is_none_or(|(x0, _)| x0 < x) {
                return Err(CdfError::BytesNotIncreasing(i));
            }
            if !((0.0..=1.0).contains(&c) && prev.is_none_or(|(_, c0)| c0 <= c)) {
                return Err(CdfError::Probability(i));
            }
            prev = Some((x, c));
        }
        match prev {
            None => Err(CdfError::Empty),
            Some((_, c)) if (c - 1.0).abs() >= 1e-9 => Err(CdfError::EndsBelowOne),
            Some(_) => Ok(FlowSizeCdf { name, points }),
        }
    }

    /// One of the published tables below, which are valid by inspection
    /// (`all_distributions_valid` builds each).
    fn published(name: &'static str, points: Vec<(f64, f64)>) -> Self {
        Self::new(name, points).expect("published CDF tables are well formed")
    }

    /// The distribution's name (used in output labels).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Samples one flow size in bytes (inverse-transform with linear
    /// interpolation between points).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        self.quantile(u)
    }

    /// The `u`-quantile of the distribution.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let mut below = None;
        for &(x1, c1) in &self.points {
            if u <= c1 {
                // `u` is above `below`'s probability, so `c1 > c0`.
                let x = below.map_or(x1, |(x0, c0)| {
                    let f = (u - c0) / (c1 - c0);
                    x0 + f * (x1 - x0)
                });
                return x.max(1.0) as u64;
            }
            below = Some((x1, c1));
        }
        // Past the last probability (within `new`'s rounding of 1): the
        // largest size. `new` admits no empty list, so `below` is set.
        below.map_or(0, |(x, _)| x as u64)
    }

    /// Analytic mean of the piecewise-linear distribution, in bytes.
    pub fn mean(&self) -> f64 {
        let mut m = self.points[0].0 * self.points[0].1;
        for w in self.points.windows(2) {
            let (x0, c0) = w[0];
            let (x1, c1) = w[1];
            m += (c1 - c0) * (x0 + x1) / 2.0;
        }
        m
    }

    /// Returns a copy truncated at `max_bytes` (tail mass collapses onto
    /// the cap; a cap at or below the first point leaves a point mass on
    /// it). Used to keep the heavy-tailed data-mining workload simulable at
    /// reduced scale; documented in DESIGN.md.
    pub fn truncate(&self, max_bytes: f64) -> FlowSizeCdf {
        // A prefix of valid points below the cap, closed by the cap at
        // probability 1, is valid again.
        let mut points: Vec<(f64, f64)> = self
            .points
            .iter()
            .copied()
            .filter(|&(x, _)| x < max_bytes)
            .collect();
        let last_c = points.last().map_or(0.0, |p| p.1);
        if last_c < 1.0 {
            points.push((max_bytes, 1.0));
        }
        FlowSizeCdf {
            name: self.name,
            points,
        }
    }

    /// Web search [Alizadeh 2010]: the paper's primary workload. Mix of
    /// small queries and multi-MB responses; mean ~1.6 MB.
    pub fn web_search() -> Self {
        Self::published(
            "websearch",
            vec![
                (5_000.0, 0.0),
                (10_000.0, 0.15),
                (20_000.0, 0.20),
                (30_000.0, 0.30),
                (50_000.0, 0.40),
                (80_000.0, 0.53),
                (200_000.0, 0.60),
                (1_000_000.0, 0.70),
                (2_000_000.0, 0.80),
                (5_000_000.0, 0.90),
                (10_000_000.0, 0.97),
                (30_000_000.0, 1.0),
            ],
        )
    }

    /// Data mining [Greenberg 2009, VL2]: extremely heavy tail — most
    /// flows are a few hundred bytes, a tiny fraction reach ~1 GB.
    pub fn data_mining() -> Self {
        Self::published(
            "datamining",
            vec![
                (100.0, 0.0),
                (180.0, 0.10),
                (250.0, 0.20),
                (560.0, 0.30),
                (900.0, 0.40),
                (1_100.0, 0.50),
                (1_870.0, 0.60),
                (3_160.0, 0.70),
                (10_000.0, 0.80),
                (400_000.0, 0.90),
                (3_160_000.0, 0.95),
                (100_000_000.0, 0.98),
                (1_000_000_000.0, 1.0),
            ],
        )
    }

    /// Cache follower [Roy 2015]: Facebook cache tier; mostly sub-2 kB
    /// objects with a moderate tail.
    pub fn cache_follower() -> Self {
        Self::published(
            "cachefollower",
            vec![
                (65.0, 0.0),
                (150.0, 0.05),
                (300.0, 0.20),
                (575.0, 0.50),
                (1_450.0, 0.70),
                (2_100.0, 0.80),
                (10_000.0, 0.90),
                (100_000.0, 0.96),
                (1_000_000.0, 0.99),
                (10_000_000.0, 1.0),
            ],
        )
    }

    /// Hadoop [Roy 2015]: Facebook Hadoop tier; dominated by small RPCs.
    pub fn hadoop() -> Self {
        Self::published(
            "hadoop",
            vec![
                (116.0, 0.0),
                (200.0, 0.10),
                (300.0, 0.30),
                (500.0, 0.50),
                (1_000.0, 0.70),
                (2_000.0, 0.80),
                (10_000.0, 0.90),
                (100_000.0, 0.97),
                (1_000_000.0, 0.99),
                (10_000_000.0, 1.0),
            ],
        )
    }

    /// All four workloads, in the appendix's presentation order.
    pub fn all() -> Vec<FlowSizeCdf> {
        vec![
            Self::cache_follower(),
            Self::web_search(),
            Self::data_mining(),
            Self::hadoop(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let c = FlowSizeCdf::new("t", vec![(100.0, 0.0), (200.0, 0.5), (1000.0, 1.0)]).unwrap();
        assert_eq!(c.quantile(0.0), 100);
        assert_eq!(c.quantile(0.25), 150);
        assert_eq!(c.quantile(0.5), 200);
        assert_eq!(c.quantile(0.75), 600);
        assert_eq!(c.quantile(1.0), 1000);
    }

    #[test]
    fn mean_matches_hand_calculation() {
        let c = FlowSizeCdf::new("t", vec![(100.0, 0.0), (200.0, 0.5), (1000.0, 1.0)]).unwrap();
        // 0.5*150 + 0.5*600 = 375.
        assert!((c.mean() - 375.0).abs() < 1e-9);
    }

    #[test]
    fn sample_mean_converges() {
        let c = FlowSizeCdf::web_search();
        let mut rng = SimRng::new(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| c.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let expect = c.mean();
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "sampled {mean}, analytic {expect}"
        );
    }

    #[test]
    fn web_search_mean_is_megabytes() {
        let m = FlowSizeCdf::web_search().mean();
        assert!(m > 1e6 && m < 3e6, "web search mean {m}");
    }

    #[test]
    fn data_mining_is_heavy_tailed() {
        let c = FlowSizeCdf::data_mining();
        // Median tiny, p99 huge.
        assert!(c.quantile(0.5) < 2_000);
        assert!(c.quantile(0.99) > 10_000_000);
    }

    #[test]
    fn hadoop_is_small_flow_dominated() {
        let c = FlowSizeCdf::hadoop();
        assert!(c.quantile(0.7) <= 1_000);
        assert!(c.mean() < 100_000.0);
    }

    #[test]
    fn truncate_caps_tail() {
        let c = FlowSizeCdf::data_mining().truncate(30_000_000.0);
        assert_eq!(c.quantile(1.0), 30_000_000);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            assert!(c.sample(&mut rng) <= 30_000_000);
        }
        // Small-flow region unchanged.
        assert_eq!(c.quantile(0.5), FlowSizeCdf::data_mining().quantile(0.5));
    }

    #[test]
    fn all_distributions_valid() {
        for c in FlowSizeCdf::all() {
            assert!(c.mean() > 0.0);
            assert!(c.quantile(1.0) >= c.quantile(0.0));
        }
    }

    /// A cap at or below the first point leaves a point mass on the cap.
    #[test]
    fn truncate_below_first_point_is_a_point_mass() {
        for cap in [5_000.0, 1_000.0] {
            let c = FlowSizeCdf::web_search().truncate(cap);
            for u in [0.0, 0.5, 1.0] {
                assert_eq!(c.quantile(u), cap as u64);
            }
            assert!((c.mean() - cap).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_incomplete_cdf() {
        let err = FlowSizeCdf::new("bad", vec![(1.0, 0.0), (2.0, 0.9)]).unwrap_err();
        assert_eq!(err, CdfError::EndsBelowOne);
        assert_eq!(err.to_string(), "CDF must end at 1");
    }

    /// Each malformed table names its first bad point.
    #[test]
    fn rejects_malformed_points() {
        let bad = |points: &[(f64, f64)]| FlowSizeCdf::new("bad", points.to_vec()).unwrap_err();
        assert_eq!(bad(&[]), CdfError::Empty);
        assert_eq!(
            bad(&[(1.0, 0.0), (1.0, 1.0)]),
            CdfError::BytesNotIncreasing(1)
        );
        assert_eq!(
            bad(&[(1.0, 0.0), (f64::NAN, 1.0)]),
            CdfError::BytesNotIncreasing(1)
        );
        assert_eq!(
            bad(&[(1.0, 0.5), (2.0, 0.4), (3.0, 1.0)]),
            CdfError::Probability(1)
        );
        assert_eq!(bad(&[(1.0, -0.1), (2.0, 1.0)]), CdfError::Probability(0));
        assert_eq!(bad(&[(1.0, 1.5)]), CdfError::Probability(0));
        assert_eq!(bad(&[(1.0, f64::NAN)]), CdfError::Probability(0));
    }
}
