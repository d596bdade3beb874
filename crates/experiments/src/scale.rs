//! The `scale` scenario: a parameterized Clos driven to O(10k) hosts,
//! built on the streaming recorder so metrics memory stays O(live flows)
//! instead of O(flows).
//!
//! Unlike the paper figures (192-host fabric, exact per-flow records),
//! this scenario exists to prove the substrate scales: a dense 40-host
//! rack / 8-ToR-pod fabric from [`ClosParams::with_hosts`], a Poisson
//! background workload, a fully-upgraded FlexPass deployment, and a
//! [`Recorder`] in streaming mode. It runs through
//! [`crate::orchestrate`] (so `--par-sim N` partitions the fabric and
//! the heartbeat reports events/sec, arena growth, and process RSS) and
//! writes one CSV of per-(tag, size-decade) sketch statistics.
//!
//! Invoked explicitly (`--fig scale`), never as part of `--fig all`:
//! the default point simulates 10,240 hosts.

use flexpass::config::FlexPassConfig;
use flexpass::schemes::{Deployment, Scheme};
use flexpass_metrics::Recorder;
use flexpass_simnet::packet::FlowSpec;
use flexpass_simnet::sim::TransportFactory;
use flexpass_simnet::topology::{ClosParams, Topology};
use flexpass_workload::{background, BackgroundParams, FlowSizeCdf};

use crate::csvout::{f, Csv};
use crate::figures::SKETCH_COLUMNS;
use crate::orchestrate::grid;
use crate::runner::{run, RunScale, DRAINED};
use crate::sweep::{self, SEL_DROP};

/// Parameters of one scale point.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSpec {
    /// Requested host count (rounded up to whole pods by
    /// [`ClosParams::with_hosts`]).
    pub hosts: usize,
    /// Background flows to schedule.
    pub n_flows: usize,
    /// Flow-size truncation cap, bytes (bounds the run length).
    pub size_cap: f64,
    /// Target core load.
    pub load: f64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl ScaleSpec {
    /// The preset for a `--scale` level: smoke stays CI-sized, default
    /// and full drive the 10k-host fabric with growing flow counts.
    pub fn preset(scale: RunScale) -> ScaleSpec {
        let (hosts, n_flows, size_cap) = match scale {
            RunScale::Smoke => (2_560, 5_000, 100_000.0),
            RunScale::Default => (10_240, 20_000, 1_000_000.0),
            RunScale::Full => (10_240, 200_000, 10_000_000.0),
        };
        ScaleSpec {
            hosts,
            n_flows,
            size_cap,
            load: 0.1,
            seed: 1,
        }
    }
}

/// Builds the topology, transport factory, and workload of one scale
/// point: [`sweep::build_point`] on the dense fabric, every host upgraded
/// to FlexPass. `flexbench`'s `clos_scale` workload builds its simulation
/// from this, so it measures exactly the scenario's point.
pub fn build_point(spec: &ScaleSpec) -> (Topology, Box<dyn TransportFactory>, Vec<FlowSpec>) {
    let clos = ClosParams::with_hosts(spec.hosts);
    let n_hosts = clos.n_hosts();
    let cdf = FlowSizeCdf::web_search().truncate(spec.size_cap);
    let flows = background(
        &cdf,
        &BackgroundParams {
            n_hosts,
            host_rate: clos.link_rate,
            oversub: 3.0,
            load: spec.load,
            n_flows: spec.n_flows,
            seed: spec.seed,
            first_id: 0,
        },
    );
    sweep::build_point(
        clos,
        Scheme::FlexPass,
        Deployment::full(n_hosts),
        flows,
        FlexPassConfig::new(0.5),
        0.5,
        SEL_DROP,
    )
}

/// Runs one scale point with a streaming recorder (exact mode would
/// retain `n_flows` records — the failure mode this scenario exists to
/// avoid).
pub fn run_point(spec: &ScaleSpec) -> Recorder {
    let (topo, factory, flows) = build_point(spec);
    let recorder = Recorder::new().with_streaming();
    run(topo, factory, recorder, &flows, None, DRAINED)
}

/// Renders the per-(tag, size-decade) sketch table: counts are exact,
/// mean/max exact, p50/p99 within the sketch's documented relative
/// error. Deterministic row order (BTreeMap key order).
pub fn sketch_csv(rec: &Recorder) -> Csv {
    let mut csv = Csv::new(SKETCH_COLUMNS);
    for ((tag, decade), s) in rec.sketches() {
        csv.row([
            tag.to_string(),
            decade.to_string(),
            s.count().to_string(),
            f(s.mean() * 1e3),
            f(s.p50() * 1e3),
            f(s.p99() * 1e3),
            f(s.max() * 1e3),
        ]);
    }
    csv
}

/// The full scenario: one point at the preset for `scale`, run as a
/// one-cell grid so the heartbeat (events/sec, arena growth, RSS) covers
/// it. The sketch rows are whatever (tag, size-decade) pairs the run saw,
/// so a failed point has none: its table is the header alone.
pub fn scenario(scale: RunScale) -> Vec<Csv> {
    let spec = ScaleSpec::preset(scale);
    let label = format!("{}h-{}f", spec.hosts, spec.n_flows);
    let mut cells = grid("scale", vec![spec], |_| label.clone(), run_point);
    let Some(rec) = cells.pop().and_then(|(_, rec)| rec) else {
        return vec![Csv::new(SKETCH_COLUMNS)];
    };

    let peak = flexpass_simcore::mem::peak_rss_bytes()
        .map(|b| format!("{} MiB", b / (1024 * 1024)))
        .unwrap_or_else(|| "n/a".to_string());
    eprintln!(
        "scale: {} flows completed | live {} | retained samples {} | \
         p99(<100kB) {:.3} ms | avg {:.3} ms | peak rss {}",
        rec.completed(),
        rec.live_flows(),
        rec.retained_samples(),
        rec.p99_small(None) * 1e3,
        rec.avg_fct(None) * 1e3,
        peak,
    );

    vec![sketch_csv(&rec)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole differential: the same fig9-scale (tiny Clos)
    /// simulation run once exact and once streaming must agree — count,
    /// mean, max exactly; p50/p99 within the sketch's documented error.
    #[test]
    fn streaming_matches_exact_on_a_real_simulation() {
        let spec = ScaleSpec {
            hosts: 48,
            n_flows: 200,
            size_cap: 100_000.0,
            load: 0.1,
            seed: 7,
        };
        // Small-fabric override: with_hosts rounds 48 up to a whole pod
        // (320 hosts); that is fine — the point is exact-vs-streaming on
        // identical inputs, not the fabric size.
        let run = |streaming: bool| {
            let (topo, factory, flows) = build_point(&spec);
            let rec = if streaming {
                Recorder::new().with_streaming()
            } else {
                Recorder::new()
            };
            run(topo, factory, rec, &flows, None, DRAINED)
        };
        let exact = run(false);
        let stream = run(true);
        assert!(exact.completed() > 0, "simulation completed no flows");
        assert_eq!(stream.completed(), exact.completed());
        assert_eq!(stream.retained_samples(), 0);
        assert!((stream.avg_fct(None) - exact.avg_fct(None)).abs() < 1e-12);
        let (sp, ep) = (stream.p99_small(None), exact.p99_small(None));
        assert!(
            (sp - ep).abs() <= flexpass_simcore::FctSketch::RELATIVE_ERROR * ep,
            "streaming p99 {sp} vs exact {ep}"
        );
        let ss = stream.streaming_stats(None, false);
        let es = exact.fct_stats(|_| true);
        assert_eq!(ss.count, es.count);
        assert!((ss.max - es.max).abs() < 1e-12);
        assert!(
            (ss.p50 - es.p50).abs() <= flexpass_simcore::FctSketch::RELATIVE_ERROR * es.p50,
            "streaming p50 {} vs exact {}",
            ss.p50,
            es.p50
        );
    }

    /// Sketch-merge determinism across `--par-sim` domain merges: a
    /// partitioned run's merged streaming recorder must be bit-identical
    /// across repeats, and its exact side statistics must match the
    /// serial run (quantiles too — bin counts are permutation-invariant,
    /// so even event reordering across domains cannot move them).
    #[test]
    #[allow(clippy::float_cmp)] // bit-identical determinism is the claim
    fn par_sim_domain_merge_is_deterministic() {
        use flexpass_simnet::ParSim;

        let spec = ScaleSpec {
            hosts: 48,
            n_flows: 150,
            size_cap: 100_000.0,
            load: 0.1,
            seed: 11,
        };
        let run_par = || {
            let (topo, factory, flows) = build_point(&spec);
            let mut merged = Recorder::new().with_streaming();
            let mut par = ParSim::new(topo, factory, 2, || merged.fresh_like());
            assert_eq!(par.n_domains(), 2, "a multi-pod clos must partition");
            for fl in &flows {
                par.schedule_flow(*fl);
            }
            par.run(DRAINED);
            for obs in par.into_observers() {
                merged.absorb(obs);
            }
            merged
        };
        let a = run_par();
        let b = run_par();
        assert!(a.completed() > 0);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.live_flows(), 0, "split flows must retire after absorb");
        // Bit-identical quantiles and side stats across repeats.
        assert_eq!(a.p99_small(None), b.p99_small(None));
        assert_eq!(a.avg_fct(None), b.avg_fct(None));
        let qa: Vec<f64> = a.sketches().values().map(|s| s.quantile(0.75)).collect();
        let qb: Vec<f64> = b.sketches().values().map(|s| s.quantile(0.75)).collect();
        assert_eq!(qa, qb);

        // And the exact-side aggregates agree with a serial streaming run.
        let (topo, factory, flows) = build_point(&spec);
        let serial = run(
            topo,
            factory,
            Recorder::new().with_streaming(),
            &flows,
            None,
            DRAINED,
        );
        assert_eq!(a.completed(), serial.completed());
    }

    #[test]
    fn sketch_csv_is_deterministic_and_labelled() {
        use flexpass_simcore::time::Time;
        use flexpass_simcore::units::Bytes;
        use flexpass_simnet::endpoint::RxStats;
        use flexpass_simnet::packet::FlowSpec;
        use flexpass_simnet::sim::NetObserver;
        let mut r = Recorder::new().with_streaming();
        for (i, size) in [5_000u64, 50_000, 5_000_000].iter().enumerate() {
            let spec = FlowSpec {
                id: i as u64,
                src: 0,
                dst: 1,
                size: Bytes::new(*size),
                start: Time::ZERO,
                tag: 1,
                fg: false,
            };
            r.on_flow_start(&spec, Time::ZERO);
            r.on_app_event(
                &flexpass_simnet::endpoint::AppEvent::FlowCompleted {
                    flow: i as u64,
                    stats: RxStats::default(),
                },
                Time::from_micros(100 * (i as u64 + 1)),
            );
        }
        // `flexbench` hashes these bytes into `clos_scale`'s digest.
        assert_eq!(
            sketch_csv(&r).render(),
            "tag,size_decade,flows,avg_fct_ms,p50_fct_ms,p99_fct_ms,max_fct_ms\n\
             1,3,1,0.100000,0.100000,0.100000,0.100000\n\
             1,4,1,0.200000,0.200000,0.200000,0.200000\n\
             1,6,1,0.300000,0.300000,0.300000,0.300000\n"
        );
    }
}
