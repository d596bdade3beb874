//! Figure 5: design-alternative comparisons.
//! (a) FlexPass vs RC3-style flow splitting: tail FCT and reordering
//! buffer; (b) FlexPass vs the "alternative queueing" scheme (reactive
//! sub-flow in the legacy queue) across deployment ratios.

use flexpass::config::FlexPassConfig;

use crate::csvout::{f, Csv};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::RunScale;
use crate::sweep::{reorder_mean, run_variant};

/// FlexPass against one alternative design at each of `ratios`, every
/// (variant, ratio) pair a grid cell. One row per cell, by column: the
/// variant, the ratio, the p99 in ms and — where `out` has a fourth, as
/// Figure 5(a) does — the mean reorder buffer in kB.
fn versus(
    group: &str,
    other: (&'static str, FlexPassConfig),
    ratios: &[f64],
    scale: RunScale,
    out: &Output,
) -> Vec<Csv> {
    let keys = ratios
        .iter()
        .flat_map(|&ratio| {
            [
                ("flexpass", FlexPassConfig::new(0.5), ratio),
                (other.0, other.1, ratio),
            ]
        })
        .collect();
    let cells = grid(
        group,
        keys,
        |(label, _, ratio)| format!("{label}:r{ratio:.2}"),
        |&(_, cfg, ratio)| {
            let rec = run_variant(cfg, ratio, scale, 11, 77);
            [rec.p99_small(None), reorder_mean(&rec)]
        },
    );
    let mut csv = Csv::new(out.columns);
    for ((label, _, ratio), cell) in cells {
        let [p99, reorder] = or_nan(cell);
        csv.row_by(|column| match column {
            "variant" => label.into(),
            "deploy_ratio" => format!("{ratio:.2}"),
            "p99_small_ms" => f(p99 * 1e3),
            "reorder_mean_kb" => f(reorder / 1e3),
            other => panic!("figure 5 has no column `{other}`"),
        });
    }
    vec![csv]
}

/// Figure 5(a): FlexPass vs RC3-style splitting at 50/100 % deployment —
/// p99 FCT of small flows vs mean reordering buffer.
pub fn fig5a(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let other = ("rc3_split", FlexPassConfig::rc3_splitting(0.5));
    versus("fig5a", other, &[0.5, 1.0], scale, &out[0])
}

/// Figure 5(b): FlexPass vs alternative queueing across deployment ratios.
pub fn fig5b(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let other = ("alternative", FlexPassConfig::alternative_queueing(0.5));
    versus("fig5b", other, &[0.25, 0.5, 0.75, 1.0], scale, &out[0])
}
