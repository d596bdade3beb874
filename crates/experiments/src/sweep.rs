//! The deployment-ratio sweep engine behind every Clos figure (5, 10–18
//! and the ablation): a scheme is rolled out rack by rack and FCT
//! statistics are collected per flow type (legacy vs upgraded). A figure
//! is a list of `(label prefix, SweepSpec)` run as one grid; what it turns
//! (the scheme, a FlexPass variant, w_q, the selective-drop threshold, the
//! load, the workload) is a field of its specs, and its rows are
//! [`SweepPoint`] cells plus the few columns derived across points.
//!
//! Every (sweep, scheme, ratio, seed) is an independent deterministic
//! simulation, so the sweeps fan across the worker pool in
//! [`crate::orchestrate`] and results reassemble in spec order — output
//! is byte-identical for any `--jobs` value. A point that panics is
//! isolated: surviving seeds of the cell still aggregate, and the failure
//! is reported at exit.
//!
//! **Seed-averaging semantics** (`SweepSpec::seeds > 1`, CSV columns):
//! every mean-like column — FCT means/percentiles, `reorder_mean_kb`,
//! `timeouts`, `redundancy_frac`, `flows` — is the arithmetic mean over
//! seeds, so `timeouts`/`flows` are *per-run means*, not sums.
//! `stddev_small_*` pools variances (square root of the mean per-seed
//! variance): arithmetically averaging standard deviations would bias
//! Figure 13 low, since the sqrt of a mean exceeds the mean of sqrts.

use flexpass::config::{CreditPolicy, FlexPassConfig};
use flexpass::profiles::{host_variant, ProfileParams};
use flexpass::schemes::{Deployment, Scheme, SchemeFactory, TAG_LEGACY, TAG_UPGRADED};
use flexpass_metrics::Recorder;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::TimeDelta;
use flexpass_simcore::units::WireBytes;
use flexpass_simnet::packet::FlowSpec;
use flexpass_simnet::sim::TransportFactory;
use flexpass_simnet::topology::{ClosParams, Topology};
use flexpass_workload::FlowSizeCdf;
use flexpass_workload::{background, foreground_incast, BackgroundParams, ForegroundParams};

use crate::csvout::{count, f, Csv};
use crate::figures::{Output, SWEEP_COLUMNS};
use crate::orchestrate;
use crate::runner::{run, RunScale, DRAINED};

/// The paper's selective-dropping threshold, bytes (§6.2).
pub const SEL_DROP: u64 = 150_000;

/// What to sweep.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Schemes to compare.
    pub schemes: Vec<Scheme>,
    /// Deployment ratios (fraction of upgraded racks).
    pub ratios: Vec<f64>,
    /// Background flow-size distribution.
    pub cdf: FlowSizeCdf,
    /// Target core load.
    pub load: f64,
    /// Add 10 % foreground incast traffic (Figure 11).
    pub mixed: bool,
    /// Scale preset.
    pub scale: RunScale,
    /// RNG seed.
    pub seed: u64,
    /// Queue weight w_q (paper default 0.5).
    pub wq: f64,
    /// Selective-dropping threshold, bytes (paper default 150 kB).
    pub sel_drop: u64,
    /// Overrides the scale preset's background flow count (the secondary
    /// figures' 600 at the default scale, and the benches).
    pub n_flows: Option<usize>,
    /// Number of independent seeds to average each point over (tail
    /// percentiles at reduced flow counts are noisy order statistics).
    pub seeds: u32,
    /// The FlexPass endpoint configuration at the sweep's `wq` (a design
    /// variant for Figure 5 and the ablation).
    pub flexpass_cfg: fn(f64) -> FlexPassConfig,
    /// The rollout's RNG seed, the same for every workload seed; `None`
    /// draws it from each workload seed.
    pub rollout_seed: Option<u64>,
}

impl SweepSpec {
    /// The Figure-10 configuration: all four schemes, web search at 50 %
    /// core load, background traffic only.
    pub fn fig10(scale: RunScale) -> Self {
        SweepSpec {
            schemes: Scheme::ALL.to_vec(),
            ratios: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            cdf: FlowSizeCdf::web_search(),
            load: 0.5,
            mixed: false,
            scale,
            seed: 1,
            wq: 0.5,
            sel_drop: SEL_DROP,
            n_flows: None,
            seeds: 1,
            flexpass_cfg: FlexPassConfig::new,
            rollout_seed: None,
        }
    }

    /// The flow-count override of the secondary figures (5, 14–16, 18,
    /// ablation): 600 flows per point at the default scale, the preset's
    /// count otherwise.
    fn reduced_flows(scale: RunScale) -> Option<usize> {
        (scale == RunScale::Default).then_some(600)
    }

    /// FlexPass alone at `ratios`, workload seed `seed`: the base of the
    /// figures that turn a FlexPass knob (5, 17, 18, ablation).
    fn flexpass(scale: RunScale, ratios: &[f64], seed: u64) -> Self {
        SweepSpec {
            schemes: vec![Scheme::FlexPass],
            ratios: ratios.to_vec(),
            seed,
            ..SweepSpec::fig10(scale)
        }
    }
}

/// Results of one (scheme, ratio) point.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Scheme label.
    pub scheme: &'static str,
    /// Deployment ratio.
    pub ratio: f64,
    /// p99 FCT of small flows (< 100 kB), all / legacy / upgraded, seconds.
    pub p99_small: [f64; 3],
    /// Average FCT over all sizes, all / legacy / upgraded, seconds.
    pub avg: [f64; 3],
    /// Std dev of small-flow FCT, all / legacy / upgraded, seconds.
    /// Seed-averaged points pool variances (see [`aggregate_seeds`]).
    pub stddev_small: [f64; 3],
    /// Mean reorder-buffer peak over upgraded flows, bytes.
    pub reorder_mean: f64,
    /// Sender timeouts: per-run count, or the mean over seeds.
    pub timeouts: f64,
    /// Redundant bytes / sent bytes.
    pub redundancy: f64,
    /// Flows completed: per-run count, or the mean over seeds.
    pub flows: f64,
}

impl SweepPoint {
    /// The point's statistics, named once: the formatted cell of CSV
    /// column `column`, for every table that carries sweep points (Figures
    /// 5 and 17 name the all-flows p99 and average as their one FCT).
    ///
    /// # Panics
    ///
    /// If `column` is not a statistic of a sweep point.
    fn cell(&self, column: &str) -> String {
        match column {
            "scheme" => self.scheme.to_string(),
            "deploy_ratio" => format!("{:.2}", self.ratio),
            "p99_small_all_ms" | "p99_small_ms" => f(self.p99_small[0] * 1e3),
            "p99_small_legacy_ms" => f(self.p99_small[1] * 1e3),
            "p99_small_upgraded_ms" => f(self.p99_small[2] * 1e3),
            "avg_all_ms" | "avg_fct_ms" => f(self.avg[0] * 1e3),
            "avg_legacy_ms" => f(self.avg[1] * 1e3),
            "avg_upgraded_ms" => f(self.avg[2] * 1e3),
            "stddev_small_all_ms" => f(self.stddev_small[0] * 1e3),
            "stddev_small_legacy_ms" => f(self.stddev_small[1] * 1e3),
            "stddev_small_upgraded_ms" => f(self.stddev_small[2] * 1e3),
            "reorder_mean_kb" => f(self.reorder_mean / 1e3),
            "timeouts" => count(self.timeouts),
            "redundancy_frac" => f(self.redundancy),
            "flows" => count(self.flows),
            other => panic!("a sweep point has no column `{other}`"),
        }
    }
}

/// Generates the workload for one sweep point and tags flows by deployment.
pub fn build_flows(spec: &SweepSpec, deployment: &Deployment, n_hosts: usize) -> Vec<FlowSpec> {
    // The heavy data-mining tail is truncated to keep reduced-scale runs
    // bounded (see DESIGN.md); full scale keeps 100 MB flows.
    let cap = match spec.scale {
        RunScale::Smoke => 10_000_000.0,
        RunScale::Default => 30_000_000.0,
        RunScale::Full => 100_000_000.0,
    };
    let cdf = spec.cdf.truncate(cap);
    let p = BackgroundParams {
        n_hosts,
        host_rate: spec.scale.clos().link_rate,
        oversub: 3.0,
        load: spec.load,
        n_flows: spec.n_flows.unwrap_or_else(|| spec.scale.flows()),
        seed: spec.seed,
        first_id: 0,
    };
    let mut flows = background(&cdf, &p);
    if spec.mixed {
        // Foreground = 10 % of total volume; per paper each event has every
        // other host send four 8 kB flows (fanout shrinks with smoke scale).
        let bg_bytes: flexpass_simcore::units::Bytes = flows.iter().map(|fl| fl.size).sum();
        let span = flows.last().map_or(1.0, |fl| fl.start.as_secs_f64());
        let fg_bps = bg_bytes.as_f64() * 8.0 / span / 9.0;
        let fanout = (n_hosts - 1).min(47);
        let event_bytes = (fanout * 4) as f64 * 8_000.0;
        let n_events = ((fg_bps / 8.0 * span) / event_bytes).ceil() as usize;
        let fg = foreground_incast(&ForegroundParams {
            n_hosts,
            fanout,
            flows_per_sender: 4,
            resp_bytes: 8_000,
            volume_bps: fg_bps,
            n_events: n_events.max(1),
            seed: spec.seed ^ 0xF0F0,
            first_id: flows.len() as u64,
        });
        flows.extend(fg);
    }
    for fl in &mut flows {
        fl.tag = deployment.tag_for(fl);
    }
    flows
}

/// The seed used for replicate `k` of a point (replicates must not share
/// the workload RNG stream, hence the prime stride).
fn seed_for(spec: &SweepSpec, k: u32) -> u64 {
    spec.seed.wrapping_add(k as u64 * 7919)
}

/// Aggregates the surviving per-seed results of the (scheme, ratio) cell.
///
/// Mean-like statistics — FCT means and percentiles, `reorder_mean`,
/// `redundancy`, `timeouts`, `flows` — take the arithmetic mean over
/// seeds, so every column of a multi-seed row is in per-run units.
/// `stddev_small` pools variances — sqrt of the mean per-seed variance —
/// because standard deviations do not average: the mean of sqrts
/// under-estimates the pooled spread Figure 13 plots. A cell that lost
/// every seed is the mean of nothing: each statistic is 0/0 = NaN, never a
/// fabricated zero.
pub fn aggregate_seeds(scheme: &'static str, ratio: f64, points: &[SweepPoint]) -> SweepPoint {
    let nf = points.len() as f64;
    let mean3 = |stat: fn(&SweepPoint) -> [f64; 3]| {
        [0, 1, 2].map(|i| points.iter().map(|p| stat(p)[i]).sum::<f64>() / nf)
    };
    let mean = |stat: fn(&SweepPoint) -> f64| points.iter().map(stat).sum::<f64>() / nf;
    SweepPoint {
        scheme,
        ratio,
        p99_small: mean3(|p| p.p99_small),
        avg: mean3(|p| p.avg),
        stddev_small: mean3(|p| p.stddev_small.map(|s| s * s)).map(f64::sqrt),
        reorder_mean: mean(|p| p.reorder_mean),
        timeouts: mean(|p| p.timeouts),
        redundancy: mean(|p| p.redundancy),
        flows: mean(|p| p.flows),
    }
}

/// The rack-by-rack rollout of a Clos: `ratio` of the racks upgraded,
/// chosen by an RNG seeded with `seed` (each figure keeps its own seed).
pub fn rollout(clos: &ClosParams, ratio: f64, seed: u64) -> Deployment {
    Deployment::by_rack_ratio(&clos.rack_of(), ratio, &mut SimRng::new(seed))
}

/// The one deployment point: `scheme` rolled out over `deployment` on the
/// `clos` fabric. Tags `flows` by the deployment, derives the switch
/// profile from the upgraded byte fraction, `wq` and the selective-drop
/// threshold `sel_drop`, and pairs the topology with the scheme's
/// transport factory (`cfg` configures FlexPass endpoints). Everything a
/// figure varies is an argument; nothing else builds a Clos.
pub fn build_point(
    clos: ClosParams,
    scheme: Scheme,
    deployment: Deployment,
    mut flows: Vec<FlowSpec>,
    cfg: FlexPassConfig,
    wq: f64,
    sel_drop: u64,
) -> (Topology, Box<dyn TransportFactory>, Vec<FlowSpec>) {
    for fl in &mut flows {
        fl.tag = deployment.tag_for(fl);
    }
    let frac = deployment.upgraded_byte_fraction(&flows);
    let mut params = ProfileParams::simulation(clos.link_rate);
    params.wq = wq;
    params.fp_red = WireBytes::new(sel_drop);
    let profile = scheme.profile(&params, frac);
    let topo = Topology::clos(clos, &profile, &host_variant(&profile));
    let factory = SchemeFactory::new(scheme, deployment, cfg, frac);
    (topo, Box::new(factory), flows)
}

/// Runs one (scheme, ratio) point of `spec` at its workload seed to
/// completion into `recorder`: the rollout of `spec.rollout_seed` (or
/// one drawn from the workload seed), the workload of [`build_flows`],
/// the fabric of [`build_point`] with `spec.flexpass_cfg`'s endpoints.
pub(crate) fn run_spec_point(
    scheme: Scheme,
    ratio: f64,
    spec: &SweepSpec,
    recorder: Recorder,
    sampling: Option<TimeDelta>,
) -> Recorder {
    let clos = spec.scale.clos();
    let derived = || spec.seed.wrapping_mul(0x9E37).wrapping_add(7);
    let deployment = rollout(&clos, ratio, spec.rollout_seed.unwrap_or_else(derived));
    let flows = build_flows(spec, &deployment, clos.n_hosts());
    let cfg = (spec.flexpass_cfg)(spec.wq);
    let (topo, factory, flows) =
        build_point(clos, scheme, deployment, flows, cfg, spec.wq, spec.sel_drop);
    run(topo, factory, recorder, &flows, sampling, DRAINED)
}

/// The statistics a sweep keeps of one finished run.
fn point_from_recorder(scheme: Scheme, ratio: f64, rec: &Recorder) -> SweepPoint {
    let by_type = |stat: fn(&Recorder, Option<u32>) -> f64| {
        [None, Some(TAG_LEGACY), Some(TAG_UPGRADED)].map(|tag| stat(rec, tag))
    };
    let upgraded = || rec.flows.iter().filter(|r| r.tag == TAG_UPGRADED);
    let reorder_mean = match upgraded().count() {
        0 => 0.0,
        n => upgraded().map(|r| r.reorder_peak as f64).sum::<f64>() / n as f64,
    };
    SweepPoint {
        scheme: scheme.label(),
        ratio,
        p99_small: by_type(Recorder::p99_small),
        avg: by_type(Recorder::avg_fct),
        stddev_small: by_type(Recorder::stddev_small),
        reorder_mean,
        timeouts: rec.total_timeouts() as f64,
        redundancy: rec.redundancy_fraction(),
        flows: rec.completed() as f64,
    }
}

/// Runs one (scheme, ratio) point averaged over `spec.seeds` seeds: the
/// one-cell case of the sweep grid, as [`run_sweep_jobs`] is its
/// one-sweep case. A seed that panics is dropped (see [`aggregate_seeds`]).
pub fn run_point(scheme: Scheme, ratio: f64, spec: &SweepSpec) -> SweepPoint {
    let cell = SweepSpec {
        schemes: vec![scheme],
        ratios: vec![ratio],
        ..spec.clone()
    };
    run_sweep_jobs(orchestrate::jobs(), "point", &cell).remove(0)
}

/// Runs the full sweep with an explicit worker count: the flattened
/// (scheme, ratio, seed) triples are independent cells of one grid, and
/// results reassemble in spec order, so the output is byte-identical
/// for every `jobs` value. A seed whose simulation panics is dropped from
/// its cell (surviving seeds still aggregate) and surfaces through
/// [`orchestrate::take_failures`]; a cell that loses *every* seed renders
/// as NaN statistics (see [`aggregate_seeds`]).
pub fn run_sweep_jobs(jobs: usize, group: &str, spec: &SweepSpec) -> Vec<SweepPoint> {
    let sweeps = [(String::new(), spec.clone())];
    run_sweeps(jobs, group, &sweeps).remove(0)
}

/// Runs several sweeps as one grid: every (sweep, scheme, ratio, seed) is a
/// cell labelled `<prefix><scheme>:r<ratio>:s<seed>`, the prefix telling
/// apart sweeps that repeat the `scheme:rR:sK` labels. Returns each
/// sweep's points in spec order.
fn run_sweeps(jobs: usize, group: &str, sweeps: &[(String, SweepSpec)]) -> Vec<Vec<SweepPoint>> {
    let mut keys = Vec::new();
    for (i, (_, spec)) in sweeps.iter().enumerate() {
        for &scheme in &spec.schemes {
            for &ratio in &spec.ratios {
                keys.extend((0..spec.seeds.max(1)).map(|k| (i, scheme, ratio, k)));
            }
        }
    }
    let cells = orchestrate::grid_on(
        jobs,
        group,
        keys,
        |&(i, scheme, ratio, k)| format!("{}{}:r{ratio:.2}:s{k}", sweeps[i].0, scheme.label()),
        |&(i, scheme, ratio, k)| {
            let mut spec = sweeps[i].1.clone();
            spec.seed = seed_for(&spec, k);
            let rec = run_spec_point(scheme, ratio, &spec, Recorder::new(), None);
            point_from_recorder(scheme, ratio, &rec)
        },
    );
    let mut out = vec![Vec::new(); sweeps.len()];
    // A (scheme, ratio) cell is the run of keys over which the seed index
    // climbs.
    for seeds in cells.chunk_by(|a, b| a.0 .3 < b.0 .3) {
        let (i, scheme, ratio, _) = seeds[0].0;
        let survivors: Vec<SweepPoint> = seeds.iter().filter_map(|(_, p)| p.clone()).collect();
        out[i].push(aggregate_seeds(scheme.label(), ratio, &survivors));
    }
    out
}

/// Renders the points of several sweeps, sweep after sweep, one row each
/// under `columns`: `own(i, point, column)` fills the columns that are not
/// a statistic of a point of sweep `i`, [`SweepPoint::cell`] the rest.
fn rows<S: AsRef<[SweepPoint]>>(
    columns: &[&str],
    sweeps: &[S],
    own: impl Fn(usize, &SweepPoint, &str) -> Option<String>,
) -> Csv {
    let mut csv = Csv::new(columns);
    for (i, points) in sweeps.iter().enumerate() {
        for p in points.as_ref() {
            csv.row_by(|column| own(i, p, column).unwrap_or_else(|| p.cell(column)));
        }
    }
    csv
}

/// Renders sweep points as the CSVs behind Figures 10–13 (or 11 with
/// mixed traffic): one wide table carrying every series.
///
/// Column semantics when `seeds > 1`: every column is averaged over
/// seeds — `timeouts` and `flows` are per-run means (not sums across
/// seeds), and the `stddev_small_*` columns are pooled standard
/// deviations (sqrt of the mean per-seed variance). See
/// [`aggregate_seeds`].
pub fn to_csv(points: &[SweepPoint]) -> Csv {
    rows(SWEEP_COLUMNS, &[points], |_, _, _| None)
}

/// Figure 10 (background only) or Figure 11 (mixed): the sweep's points
/// under each output's columns — the wide table and, for Figure 10, the
/// per-flow-type reshapes of Figures 12 (p99) and 13 (stddev).
pub fn fig10_or_11(group: &str, mixed: bool, scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let spec = SweepSpec {
        mixed,
        ..SweepSpec::fig10(scale)
    };
    let points = run_sweep_jobs(orchestrate::jobs(), group, &spec);
    out.iter()
        .map(|o| rows(o.columns, &[&points], |_, _, _| None))
        .collect()
}

/// A named FlexPass design: its endpoint configuration at a queue weight.
type Design = (&'static str, fn(f64) -> FlexPassConfig);

/// Figure 5: FlexPass against one alternative design (`other`, a name and
/// its endpoint configuration) at each of `ratios`, ratio by ratio,
/// FlexPass first: every (ratio, design) pair is a one-point sweep.
fn fig5(group: &str, other: Design, ratios: &[f64], scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let designs: [Design; 2] = [("flexpass", FlexPassConfig::new), other];
    let sweeps: Vec<(String, SweepSpec)> = ratios
        .iter()
        .flat_map(|&ratio| {
            designs.map(|(name, flexpass_cfg)| {
                let spec = SweepSpec {
                    flexpass_cfg,
                    rollout_seed: Some(77),
                    n_flows: SweepSpec::reduced_flows(scale),
                    ..SweepSpec::flexpass(scale, &[ratio], 11)
                };
                (format!("{name}:"), spec)
            })
        })
        .collect();
    let points = run_sweeps(orchestrate::jobs(), group, &sweeps);
    let variant = |i: usize| designs[i % designs.len()].0.to_string();
    vec![rows(out[0].columns, &points, |i, _, column| {
        (column == "variant").then(|| variant(i))
    })]
}

/// Figure 5(a): FlexPass vs RC3-style splitting at 50/100 % deployment —
/// p99 FCT of small flows vs mean reordering buffer.
pub fn fig5a(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    fig5(
        "fig5a",
        ("rc3_split", FlexPassConfig::rc3_splitting),
        &[0.5, 1.0],
        scale,
        out,
    )
}

/// Figure 5(b): FlexPass vs alternative queueing (the reactive sub-flow in
/// the legacy queue) across deployment ratios.
pub fn fig5b(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let ratios = [0.25, 0.5, 0.75, 1.0];
    fig5(
        "fig5b",
        ("alternative", FlexPassConfig::alternative_queueing),
        &ratios,
        scale,
        out,
    )
}

/// Figure 14: p99 small-flow FCT vs deployment under loads 10/40/70 % for
/// naive ExpressPass vs FlexPass — three sweeps, one grid.
pub fn fig14(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let loads = [0.1, 0.4, 0.7];
    let sweeps: Vec<(String, SweepSpec)> = loads
        .iter()
        .map(|&load| {
            let spec = SweepSpec {
                schemes: vec![Scheme::Naive, Scheme::FlexPass],
                ratios: vec![0.0, 0.5, 1.0],
                load,
                n_flows: SweepSpec::reduced_flows(scale),
                ..SweepSpec::fig10(scale)
            };
            (format!("l{load:.1}:"), spec)
        })
        .collect();
    let points = run_sweeps(orchestrate::jobs(), "fig14", &sweeps);
    vec![rows(out[0].columns, &points, |i, _, column| {
        (column == "load").then(|| format!("{:.1}", loads[i]))
    })]
}

/// Figures 15/16: the sweep over all four realistic workloads, one grid.
pub fn fig15_16(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let sweeps: Vec<(String, SweepSpec)> = FlowSizeCdf::all()
        .into_iter()
        .map(|cdf| {
            let spec = SweepSpec {
                ratios: vec![0.0, 0.5, 1.0],
                cdf,
                n_flows: SweepSpec::reduced_flows(scale),
                ..SweepSpec::fig10(scale)
            };
            (format!("{}:", spec.cdf.name()), spec)
        })
        .collect();
    let points = run_sweeps(orchestrate::jobs(), "fig15_16", &sweeps);
    vec![rows(out[0].columns, &points, |i, p, column| match column {
        "workload" => Some(sweeps[i].1.cdf.name().to_string()),
        "p99_gain_vs_0" => {
            // Gain relative to the 0 % (all-DCTCP) point of the same
            // scheme, the first of the scheme's run of ratios.
            let of_scheme = points[i].iter().find(|q| q.scheme == p.scheme);
            let base = of_scheme.map_or(0.0, |q| q.p99_small[0]);
            let gain = if base == 0.0 {
                0.0
            } else {
                1.0 - p.p99_small[0] / base
            };
            Some(f(gain))
        }
        _ => None,
    })]
}

/// Figure 17: the selective-dropping threshold trade-off at full
/// deployment — a lower threshold improves small-flow tail FCT (tighter
/// queue bound) but degrades overall average FCT (more reactive drops).
pub fn fig17(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let thresholds = [50_000, 100_000, 150_000, 200_000];
    let sweeps: Vec<(String, SweepSpec)> = thresholds
        .iter()
        .map(|&sel_drop| {
            let spec = SweepSpec {
                sel_drop,
                ..SweepSpec::flexpass(scale, &[1.0], 21)
            };
            (format!("thr{}k:", sel_drop / 1000), spec)
        })
        .collect();
    let points = run_sweeps(orchestrate::jobs(), "fig17", &sweeps);
    // Degradation of overall average FCT relative to the most permissive
    // threshold (largest), as the paper plots it.
    let baseline = points.iter().flatten().last().map_or(1.0, |p| p.avg[0]);
    vec![rows(out[0].columns, &points, |i, p, column| match column {
        "sel_drop_kb" => Some((thresholds[i] / 1000).to_string()),
        "avg_fct_degradation" => Some(f(p.avg[0] / baseline - 1.0)),
        _ => None,
    })]
}

/// Figure 18: the queue-weight (w_q) trade-off — smaller w_q shields
/// legacy flows during the rollout; larger w_q improves FlexPass's tail
/// FCT at full deployment. A weight's row comes from its three points: the
/// all-DCTCP baseline under the same switch configuration, mid-rollout,
/// full.
pub fn fig18(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let weights = [0.4, 0.45, 0.5, 0.55, 0.6];
    let sweeps: Vec<(String, SweepSpec)> = weights
        .iter()
        .map(|&wq| {
            let spec = SweepSpec {
                wq,
                n_flows: SweepSpec::reduced_flows(scale),
                ..SweepSpec::flexpass(scale, &[0.0, 0.5, 1.0], 31)
            };
            (format!("wq{wq:.2}:"), spec)
        })
        .collect();
    let mut csv = Csv::new(out[0].columns);
    for (wq, points) in weights
        .iter()
        .zip(run_sweeps(orchestrate::jobs(), "fig18", &sweeps))
    {
        let [base, mid, full] = [0, 1, 2].map(|i| points[i].p99_small);
        // Growth of the legacy tail over its baseline, floored at zero by
        // comparison: `f64::max` would turn a failed cell's NaN into 0.
        let growth = mid[1] / base[1] - 1.0;
        let worst = if base[1] == 0.0 || growth < 0.0 {
            0.0
        } else {
            growth
        };
        csv.row([format!("{wq:.2}"), f(worst), f(full[0] * 1e3)]);
    }
    vec![csv]
}

/// The ablation of FlexPass's design choices (the paper motivates each in
/// §4.2–4.3 but does not isolate them), each toggled off at 50 % and 100 %
/// deployment: proactive retransmission (without it reactive tail losses
/// wait for timers), first-RTT reactive transmission (without it FlexPass
/// waits an RTT for credits like ExpressPass), and the credit allocator
/// (pHost-style fixed-rate tokens for ExpressPass feedback, §4.3).
pub fn ablation(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let variants: [Design; 4] = [
        ("full", FlexPassConfig::new),
        ("no_proactive_retx", |wq| FlexPassConfig {
            proactive_retx: false,
            ..FlexPassConfig::new(wq)
        }),
        ("no_first_rtt", |wq| FlexPassConfig {
            reactive_first_rtt: false,
            ..FlexPassConfig::new(wq)
        }),
        ("fixed_rate_credits", |wq| FlexPassConfig {
            credit_policy: CreditPolicy::FixedRate,
            ..FlexPassConfig::new(wq)
        }),
    ];
    let sweeps = variants.map(|(name, flexpass_cfg)| {
        let spec = SweepSpec {
            flexpass_cfg,
            rollout_seed: Some(13),
            n_flows: SweepSpec::reduced_flows(scale),
            ..SweepSpec::flexpass(scale, &[0.5, 1.0], 61)
        };
        (format!("{name}:"), spec)
    });
    let points = run_sweeps(orchestrate::jobs(), "ablation", &sweeps);
    vec![rows(out[0].columns, &points, |i, _, column| {
        (column == "variant").then(|| variants[i].0.to_string())
    })]
}

#[cfg(test)]
mod tests {
    // Exact float equality is the point here: the inputs are
    // hand-built dyadic values and aggregation must not perturb them.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn point(stddev: f64, timeouts: f64, flows: f64) -> SweepPoint {
        SweepPoint {
            scheme: "x",
            ratio: 0.5,
            p99_small: [1.0; 3],
            avg: [2.0; 3],
            stddev_small: [stddev; 3],
            reorder_mean: 4.0,
            timeouts,
            redundancy: 0.2,
            flows,
        }
    }

    /// The seed-aggregation bugfixes: timeouts/flows are means (the old
    /// code summed them), and stddevs pool variances (the old code took
    /// the arithmetic mean of per-seed stddevs).
    #[test]
    fn aggregate_means_counts_and_pools_variance() {
        let seeds = [point(3.0, 10.0, 100.0), point(4.0, 20.0, 200.0)];
        let agg = aggregate_seeds("x", 0.5, &seeds);
        assert_eq!(agg.timeouts, 15.0);
        assert_eq!(agg.flows, 150.0);
        let pooled = ((9.0 + 16.0) / 2.0f64).sqrt();
        for i in 0..3 {
            assert!((agg.stddev_small[i] - pooled).abs() < 1e-12);
            assert_eq!(agg.p99_small[i], 1.0);
            assert_eq!(agg.avg[i], 2.0);
        }
        assert_eq!(agg.reorder_mean, 4.0);
        assert!((agg.redundancy - 0.2).abs() < 1e-12);
    }

    /// A single seed aggregates to itself (pooling one variance is the
    /// identity), so `seeds = 1` tables are unchanged by the fix.
    #[test]
    fn aggregate_single_seed_is_identity() {
        let p = point(3.0, 7.0, 30.0);
        let agg = aggregate_seeds(p.scheme, p.ratio, std::slice::from_ref(&p));
        assert_eq!(agg.stddev_small, p.stddev_small);
        assert_eq!(agg.timeouts, p.timeouts);
        assert_eq!(agg.flows, p.flows);
    }

    /// A cell that lost every seed is the mean of nothing: NaN in every
    /// statistic, under its own scheme and ratio.
    #[test]
    fn aggregate_of_no_survivor_is_nan() {
        let agg = aggregate_seeds("x", 0.5, &[]);
        assert_eq!((agg.scheme, agg.ratio), ("x", 0.5));
        let stats = [agg.reorder_mean, agg.timeouts, agg.redundancy, agg.flows];
        let per_type = [agg.p99_small, agg.avg, agg.stddev_small];
        assert!(stats
            .iter()
            .chain(per_type.iter().flatten())
            .all(|v| v.is_nan()));
    }

    /// `flexbench` hashes these bytes into `clos_sweep`'s digest: the wide
    /// table of a hand-built point, pinned against a literal.
    #[test]
    fn to_csv_bytes_are_pinned() {
        let p = SweepPoint {
            scheme: "flexpass",
            ratio: 0.25,
            p99_small: [0.001, 0.002, 0.003],
            avg: [0.01, 0.02, 0.03],
            stddev_small: [0.0001, 0.0002, 0.0003],
            reorder_mean: 12_345.0,
            timeouts: 7.0,
            redundancy: 0.015,
            flows: 300.5,
        };
        assert_eq!(
            to_csv(&[p]).render(),
            "scheme,deploy_ratio,p99_small_all_ms,p99_small_legacy_ms,p99_small_upgraded_ms,\
             avg_all_ms,avg_legacy_ms,avg_upgraded_ms,stddev_small_all_ms,\
             stddev_small_legacy_ms,stddev_small_upgraded_ms,reorder_mean_kb,timeouts,\
             redundancy_frac,flows\n\
             flexpass,0.25,1.000000,2.000000,3.000000,10.000000,20.000000,30.000000,\
             0.100000,0.200000,0.300000,12.345000,7,0.015000,300.50\n"
        );
    }

    /// An engine that does not cut is the bare `Sim` over the same fabric
    /// and flows, down to the rendered sweep row: a star, a one-rack
    /// fabric, one domain asked for.
    #[test]
    fn one_domain_engine_renders_the_bare_sims_bytes() {
        use crate::runner::star_topo;
        use flexpass_simnet::{ParSim, Sim};

        let (scheme, ratio, deploy_seed) = (Scheme::FlexPass, 0.5, 7);
        let spec = SweepSpec {
            n_flows: Some(25),
            rollout_seed: Some(deploy_seed),
            ..SweepSpec::fig10(RunScale::Smoke)
        };
        let small = spec.scale.clos();
        let one_rack = ClosParams {
            n_core: 1,
            n_agg: 1,
            n_tor: 1,
            aggs_per_pod: 1,
            ..small
        };
        type Point = (Topology, Box<dyn TransportFactory>, Vec<FlowSpec>);
        let point = |clos: ClosParams| -> Point {
            let deployment = rollout(&clos, ratio, deploy_seed);
            let flows = build_flows(&spec, &deployment, clos.n_hosts());
            build_point(
                clos,
                scheme,
                deployment,
                flows,
                FlexPassConfig::new(spec.wq),
                spec.wq,
                spec.sel_drop,
            )
        };
        let star = || {
            let (_, factory, flows) = point(one_rack);
            let profile = scheme.profile(&ProfileParams::simulation(one_rack.link_rate), 0.5);
            (star_topo(one_rack.n_hosts(), &profile), factory, flows)
        };
        let csv = |rec: &Recorder| to_csv(&[point_from_recorder(scheme, ratio, rec)]).render();
        let bare = |(topo, factory, flows): Point| {
            let mut sim = Sim::new(topo, factory, Recorder::new());
            for f in &flows {
                sim.schedule_flow(*f);
            }
            sim.run(DRAINED);
            assert_eq!(sim.observer.completed(), flows.len());
            csv(&sim.observer)
        };

        let cases: [(&str, &dyn Fn() -> Point, usize); 3] = [
            ("star", &star, 4),
            ("one rack", &|| point(one_rack), 2),
            ("n = 1", &|| point(small), 1),
        ];
        for (name, build, n) in cases {
            let (topo, factory, flows) = build();
            let mut par = ParSim::new(topo, factory, n, Recorder::new);
            assert_eq!(par.n_domains(), 1, "{name}");
            for f in &flows {
                par.schedule_flow(*f);
            }
            par.run(DRAINED);
            let mut merged = Recorder::new();
            for domain in par.into_observers() {
                merged.absorb(domain);
            }
            assert_eq!(csv(&merged), bare(build()), "{name}");
        }
        // And through `runner::run`, which asks for `--par-sim`'s default 1.
        let through_runner = run_spec_point(scheme, ratio, &spec, Recorder::new(), None);
        assert_eq!(csv(&through_runner), bare(point(small)));
    }

    /// A variant sweep reaches `seeds`: each seed's workload follows
    /// `seed_for` over the one fixed rollout, under the variant's
    /// endpoints, and the cell is the aggregate of those one-seed points.
    #[test]
    fn variant_sweep_averages_its_seeds_over_a_fixed_rollout() {
        let (ratio, rollout_seed) = (0.5, 77);
        let spec = SweepSpec {
            flexpass_cfg: FlexPassConfig::rc3_splitting,
            rollout_seed: Some(rollout_seed),
            n_flows: Some(25),
            seeds: 2,
            ..SweepSpec::flexpass(RunScale::Smoke, &[ratio], 11)
        };
        let one_seed = |k| {
            let clos = spec.scale.clos();
            let deployment = rollout(&clos, ratio, rollout_seed);
            let workload = SweepSpec {
                seed: seed_for(&spec, k),
                ..spec.clone()
            };
            let flows = build_flows(&workload, &deployment, clos.n_hosts());
            let cfg = FlexPassConfig::rc3_splitting(spec.wq);
            let (topo, factory, flows) = build_point(
                clos,
                Scheme::FlexPass,
                deployment,
                flows,
                cfg,
                spec.wq,
                spec.sel_drop,
            );
            let rec = run(topo, factory, Recorder::new(), &flows, None, DRAINED);
            point_from_recorder(Scheme::FlexPass, ratio, &rec)
        };
        let seeds = [one_seed(0), one_seed(1)];
        let row = |points: &[SweepPoint]| to_csv(points).render();
        assert_ne!(
            row(&seeds[..1]),
            row(&seeds[1..]),
            "the seeds ran one workload"
        );
        let want = aggregate_seeds("flexpass", ratio, &seeds);
        assert_eq!(row(&run_sweep_jobs(2, "test", &spec)), row(&[want]));
    }
}
