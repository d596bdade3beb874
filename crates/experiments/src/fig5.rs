//! Figure 5: design-alternative comparisons.
//! (a) FlexPass vs RC3-style flow splitting: tail FCT and reordering
//! buffer; (b) FlexPass vs the "alternative queueing" scheme (reactive
//! sub-flow in the legacy queue) across deployment ratios.

use flexpass::config::FlexPassConfig;
use flexpass::schemes::{Scheme, TAG_UPGRADED};
use flexpass_metrics::Recorder;

use crate::csvout::{f, Csv};
use crate::orchestrate::{self, Task};
use crate::runner::{RunScale, ScenarioResult};
use crate::sweep::{reorder_mean, run_spec_point, SweepSpec};

/// Runs FlexPass with a given protocol configuration at one deployment
/// ratio; returns `(p99 small all, p99 small upgraded, mean reorder peak of
/// upgraded flows)`.
pub fn run_variant(cfg: FlexPassConfig, ratio: f64, scale: RunScale) -> (f64, f64, f64) {
    let spec = SweepSpec {
        seed: 11,
        wq: cfg.wq,
        n_flows: SweepSpec::reduced_flows(scale),
        ..SweepSpec::fig10(scale)
    };
    let rec = run_spec_point(
        Scheme::FlexPass,
        ratio,
        &spec,
        77,
        cfg,
        Recorder::new(),
        None,
    );
    (
        rec.p99_small(None),
        rec.p99_small(Some(TAG_UPGRADED)),
        reorder_mean(&rec),
    )
}

/// FlexPass against one alternative design at each of `ratios`, every
/// (variant, ratio) pair a pool task: the rows `(label, ratio, run_variant
/// result)` in grid order, NaN where a point failed.
fn versus(
    group: &str,
    other: (&'static str, FlexPassConfig),
    ratios: &[f64],
    scale: RunScale,
) -> Vec<(&'static str, f64, (f64, f64, f64))> {
    let grid: Vec<(&str, FlexPassConfig, f64)> = ratios
        .iter()
        .flat_map(|&ratio| {
            [
                ("flexpass", FlexPassConfig::new(0.5), ratio),
                (other.0, other.1, ratio),
            ]
        })
        .collect();
    let tasks = grid
        .iter()
        .map(|&(label, cfg, ratio)| {
            Task::new(format!("{label}:r{ratio:.2}"), move || {
                run_variant(cfg, ratio, scale)
            })
        })
        .collect();
    grid.iter()
        .zip(orchestrate::run_tasks(group, tasks))
        .map(|(&(label, _, ratio), r)| (label, ratio, r.unwrap_or((f64::NAN, f64::NAN, f64::NAN))))
        .collect()
}

/// Figure 5(a): FlexPass vs RC3-style splitting at 50/100 % deployment —
/// p99 FCT of small flows vs mean reordering buffer.
pub fn fig5a(scale: RunScale) -> ScenarioResult {
    let other = ("rc3_split", FlexPassConfig::rc3_splitting(0.5));
    let mut csv = Csv::new(&["variant", "deploy_ratio", "p99_small_ms", "reorder_mean_kb"]);
    for (label, ratio, (p99, _p99u, reorder)) in versus("fig5a", other, &[0.5, 1.0], scale) {
        csv.row(&[
            label.into(),
            format!("{ratio:.2}"),
            f(p99 * 1e3),
            f(reorder / 1e3),
        ]);
    }
    ScenarioResult::new("fig5a_rc3_split", csv)
}

/// Figure 5(b): FlexPass vs alternative queueing across deployment ratios.
pub fn fig5b(scale: RunScale) -> ScenarioResult {
    let other = ("alternative", FlexPassConfig::alternative_queueing(0.5));
    let mut csv = Csv::new(&["variant", "deploy_ratio", "p99_small_ms"]);
    for (label, ratio, (p99, _, _)) in versus("fig5b", other, &[0.25, 0.5, 0.75, 1.0], scale) {
        csv.row(&[label.into(), format!("{ratio:.2}"), f(p99 * 1e3)]);
    }
    ScenarioResult::new("fig5b_alt_queueing", csv)
}
