//! Figure 18: the queue-weight (w_q) trade-off — smaller w_q shields
//! legacy flows during the rollout; larger w_q improves FlexPass's tail
//! FCT at full deployment.

use flexpass::schemes::Scheme;

use crate::csvout::{f, Csv};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::RunScale;
use crate::sweep::{run_point, SweepSpec};

/// The deployment points of one weight: the all-DCTCP baseline under the
/// same switch configuration, mid-rollout, full.
const RATIOS: [f64; 3] = [0.0, 0.5, 1.0];

/// Runs the w_q sweep. Each weight needs its three deployment points; all
/// 15 simulations are independent, so the whole grid goes to the pool at
/// once and each weight's row is assembled from its three cells.
pub fn fig18(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let keys = [0.4, 0.45, 0.5, 0.55, 0.6]
        .iter()
        .flat_map(|&wq| RATIOS.map(|ratio| (wq, ratio)))
        .collect();
    let cells = grid(
        "fig18",
        keys,
        |(wq, ratio)| format!("wq{wq:.2}:r{ratio:.2}"),
        |&(wq, ratio)| {
            let spec = SweepSpec {
                seed: 31,
                wq,
                n_flows: SweepSpec::reduced_flows(scale),
                ..SweepSpec::fig10(scale)
            };
            let p = run_point(Scheme::FlexPass, ratio, &spec);
            [p.p99_small[0], p.p99_small[1]]
        },
    );
    let mut csv = Csv::new(out[0].columns);
    for weight in cells.chunks(RATIOS.len()) {
        let [[_, base], [_, mid], [full, _]] = [0, 1, 2].map(|i| or_nan(weight[i].1));
        // Growth of the legacy tail over its baseline, floored at zero by
        // comparison: `f64::max` would turn a failed cell's NaN into 0.
        let growth = mid / base - 1.0;
        let worst = if base == 0.0 || growth < 0.0 {
            0.0
        } else {
            growth
        };
        csv.row([format!("{:.2}", weight[0].0 .0), f(worst), f(full * 1e3)]);
    }
    vec![csv]
}
