//! Figure 17: the selective-dropping threshold trade-off at full
//! deployment — a lower threshold improves small-flow tail FCT (tighter
//! queue bound) but degrades overall average FCT (more reactive drops).

use flexpass::schemes::Scheme;

use crate::csvout::{f, Csv};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::RunScale;
use crate::sweep::{run_point, SweepSpec};

/// Runs the threshold sweep at 100 % deployment, one grid cell per
/// threshold.
pub fn fig17(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let cells = grid(
        "fig17",
        vec![50_000u64, 100_000, 150_000, 200_000],
        |thr| format!("thr{}k", thr / 1000),
        |&thr| {
            let spec = SweepSpec {
                seed: 21,
                sel_drop: thr,
                ..SweepSpec::fig10(scale)
            };
            let p = run_point(Scheme::FlexPass, 1.0, &spec);
            [p.p99_small[0], p.avg[0]]
        },
    );
    let rows: Vec<(u64, [f64; 2])> = cells.into_iter().map(|(t, c)| (t, or_nan(c))).collect();
    // Degradation of overall average FCT relative to the most permissive
    // threshold (largest), as the paper plots it.
    let baseline_avg = rows.last().map_or(1.0, |(_, [_, avg])| *avg);
    let mut csv = Csv::new(out[0].columns);
    for (thr, [p99, avg]) in rows {
        csv.row([
            (thr / 1000).to_string(),
            f(p99 * 1e3),
            f(avg * 1e3),
            f(avg / baseline_avg - 1.0),
        ]);
    }
    vec![csv]
}
