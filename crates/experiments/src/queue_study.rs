//! §6.2 "Bounded queue" + §4.2 redundancy: Q1 occupancy statistics during
//! the rollout, the share of red (reactive) bytes in it, the selective-drop
//! rate, and the proactive-retransmission redundancy fraction.

use flexpass::schemes::Scheme;
use flexpass_metrics::Recorder;
use flexpass_simcore::time::TimeDelta;

use crate::csvout::{count, f, Csv};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::RunScale;
use crate::sweep::{run_spec_point, SweepSpec};

/// One deployment point with queue sampling enabled: the ten statistics of
/// its row, in column order and units.
fn run_queue_point(ratio: f64, scale: RunScale) -> [f64; 10] {
    let spec = SweepSpec {
        seed: 41,
        rollout_seed: Some(99),
        ..SweepSpec::fig10(scale)
    };
    let mut rec = run_spec_point(
        Scheme::FlexPass,
        ratio,
        &spec,
        Recorder::new().with_queue_watch(1),
        Some(TimeDelta::micros(100)),
    );
    [
        rec.q_bytes.mean() / 1e3,
        rec.q_bytes.quantile(0.9) / 1e3,
        rec.q_busy_bytes.mean() / 1e3,
        rec.q_busy_bytes.quantile(0.9) / 1e3,
        rec.q_red_bytes.mean() / 1e3,
        rec.q_red_bytes.quantile(0.9) / 1e3,
        rec.q_peak as f64 / 1e3,
        rec.red_drops as f64,
        rec.redundancy_fraction(),
        rec.total_timeouts() as f64,
    ]
}

/// The queue-occupancy and redundancy study at 50 % and 100 % deployment.
/// The pool group is the output's stem.
pub fn queue_study(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let cells = grid(
        out[0].stem,
        vec![0.5, 1.0],
        |ratio| format!("r{ratio:.2}"),
        |&ratio| run_queue_point(ratio, scale),
    );
    let mut csv = Csv::new(out[0].columns);
    for (ratio, cell) in cells {
        let [kb @ .., red_drops, redundancy, timeouts] = or_nan(cell);
        let tail = [count(red_drops), f(redundancy), count(timeouts)];
        csv.row(
            std::iter::once(format!("{ratio:.2}"))
                .chain(kb.map(f))
                .chain(tail),
        );
    }
    vec![csv]
}
