//! Figure 18: the queue-weight (w_q) trade-off — smaller w_q shields
//! legacy flows during the rollout; larger w_q improves FlexPass's tail
//! FCT at full deployment.

use flexpass::schemes::Scheme;

use crate::csvout::{f, Csv};
use crate::orchestrate::{self, Task};
use crate::runner::{RunScale, ScenarioResult};
use crate::sweep::{run_point, SweepSpec};

/// Runs the w_q sweep. Each weight needs three deployment points
/// (baseline 0 %, mid-rollout, full); all 15 simulations are independent,
/// so the whole grid is flattened onto the worker pool and the per-weight
/// rows are assembled afterwards from results in task order.
pub fn fig18(scale: RunScale) -> ScenarioResult {
    let weights = [0.4, 0.45, 0.5, 0.55, 0.6];
    // Mid-rollout ratios used to find the worst legacy degradation.
    let mid_ratios = [0.5];
    let ratios: Vec<f64> = std::iter::once(0.0)
        .chain(mid_ratios)
        .chain(std::iter::once(1.0))
        .collect();
    let mut tasks: Vec<Task<SweepPointLite>> = Vec::new();
    for &wq in &weights {
        for &ratio in &ratios {
            let spec = SweepSpec {
                seed: 31,
                wq,
                n_flows: SweepSpec::reduced_flows(scale),
                ..SweepSpec::fig10(scale)
            };
            tasks.push(Task::new(format!("wq{wq:.2}:r{ratio:.2}"), move || {
                let p = run_point(Scheme::FlexPass, ratio, &spec);
                SweepPointLite {
                    p99_small_all: p.p99_small[0],
                    p99_small_legacy: p.p99_small[1],
                }
            }));
        }
    }
    let mut results = orchestrate::run_tasks("fig18", tasks).into_iter();
    let mut csv = Csv::new(&["wq", "legacy_p99_max_degradation", "p99_small_full_ms"]);
    for &wq in &weights {
        let mut next = || {
            results
                .next()
                .expect("one result per (wq, ratio) task")
                .unwrap_or(SweepPointLite {
                    p99_small_all: f64::NAN,
                    p99_small_legacy: f64::NAN,
                })
        };
        // Baseline: all-DCTCP under the same switch configuration.
        let base = next().p99_small_legacy;
        let mut worst = 0.0f64;
        for _ in &mid_ratios {
            let p = next();
            if base > 0.0 && p.p99_small_legacy > 0.0 {
                worst = worst.max(p.p99_small_legacy / base - 1.0);
            }
        }
        let full = next();
        csv.row(&[format!("{wq:.2}"), f(worst), f(full.p99_small_all * 1e3)]);
    }
    ScenarioResult::new("fig18_wq_tradeoff", csv)
}

/// The two statistics fig18 keeps per grid point.
#[derive(Clone, Copy)]
struct SweepPointLite {
    p99_small_all: f64,
    p99_small_legacy: f64,
}
