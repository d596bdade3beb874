//! Figure 17: the selective-dropping threshold trade-off at full
//! deployment — a lower threshold improves small-flow tail FCT (tighter
//! queue bound) but degrades overall average FCT (more reactive drops).

use flexpass::schemes::Scheme;

use crate::csvout::{f, Csv};
use crate::orchestrate::{self, Task};
use crate::runner::{RunScale, ScenarioResult};
use crate::sweep::{run_point, SweepSpec};

/// Runs the threshold sweep at 100 % deployment. The four threshold
/// points are independent simulations, so they go through the worker
/// pool; a failed point renders as NaN and is reported at exit.
pub fn fig17(scale: RunScale) -> ScenarioResult {
    let thresholds: &[u64] = &[50_000, 100_000, 150_000, 200_000];
    let tasks: Vec<Task<(f64, f64)>> = thresholds
        .iter()
        .map(|&thr| {
            let spec = SweepSpec {
                seed: 21,
                sel_drop: thr,
                ..SweepSpec::fig10(scale)
            };
            Task::new(format!("thr{}k", thr / 1000), move || {
                let p = run_point(Scheme::FlexPass, 1.0, &spec);
                (p.p99_small[0], p.avg[0])
            })
        })
        .collect();
    let rows: Vec<(u64, f64, f64)> = thresholds
        .iter()
        .zip(orchestrate::run_tasks("fig17", tasks))
        .map(|(&thr, r)| {
            let (p99, avg) = r.unwrap_or((f64::NAN, f64::NAN));
            (thr, p99, avg)
        })
        .collect();
    // Degradation of overall average FCT relative to the most permissive
    // threshold (largest), as the paper plots it.
    let baseline_avg = rows.last().map(|r| r.2).unwrap_or(1.0);
    let mut csv = Csv::new(&[
        "sel_drop_kb",
        "p99_small_ms",
        "avg_fct_ms",
        "avg_fct_degradation",
    ]);
    for (thr, p99, avg) in rows {
        csv.row(&[
            (thr / 1000).to_string(),
            f(p99 * 1e3),
            f(avg * 1e3),
            f(avg / baseline_avg - 1.0),
        ]);
    }
    ScenarioResult::new("fig17_seldrop_threshold", csv)
}
