//! §6.2 "Bounded queue" + §4.2 redundancy: Q1 occupancy statistics during
//! the rollout, the share of red (reactive) bytes in it, the selective-drop
//! rate, and the proactive-retransmission redundancy fraction.

use flexpass::config::FlexPassConfig;
use flexpass::schemes::Scheme;
use flexpass_metrics::Recorder;
use flexpass_simcore::time::TimeDelta;

use crate::csvout::{f, Csv};
use crate::orchestrate::{self, Task};
use crate::runner::{RunScale, ScenarioResult};
use crate::sweep::{run_spec_point, SweepSpec};

/// One deployment point with queue sampling enabled.
fn run_queue_point(ratio: f64, scale: RunScale) -> Recorder {
    let spec = SweepSpec {
        seed: 41,
        ..SweepSpec::fig10(scale)
    };
    run_spec_point(
        Scheme::FlexPass,
        ratio,
        &spec,
        99,
        FlexPassConfig::new(0.5),
        Recorder::new().with_queue_watch(1),
        Some(TimeDelta::micros(100)),
    )
}

/// The queue-occupancy and redundancy study at 50 % and 100 % deployment.
pub fn queue_study(scale: RunScale) -> ScenarioResult {
    let mut csv = Csv::new(&[
        "deploy_ratio",
        "q1_avg_kb",
        "q1_p90_kb",
        "q1_busy_avg_kb",
        "q1_busy_p90_kb",
        "q1_red_avg_kb",
        "q1_red_p90_kb",
        "q1_peak_kb",
        "red_drop_pkts",
        "redundancy_frac",
        "timeouts",
    ]);
    let ratios = [0.5, 1.0];
    let tasks: Vec<Task<Recorder>> = ratios
        .iter()
        .map(|&ratio| {
            Task::new(format!("r{ratio:.2}"), move || {
                run_queue_point(ratio, scale)
            })
        })
        .collect();
    for (&ratio, r) in ratios
        .iter()
        .zip(orchestrate::run_tasks("queue_study", tasks))
    {
        let mut rec = r.unwrap_or_else(|_| Recorder::new());
        let avg = rec.q_bytes.mean();
        let p90 = rec.q_bytes.quantile(0.9);
        let busy_avg = rec.q_busy_bytes.mean();
        let busy_p90 = rec.q_busy_bytes.quantile(0.9);
        let ravg = rec.q_red_bytes.mean();
        let rp90 = rec.q_red_bytes.quantile(0.9);
        csv.row(&[
            format!("{ratio:.2}"),
            f(avg / 1e3),
            f(p90 / 1e3),
            f(busy_avg / 1e3),
            f(busy_p90 / 1e3),
            f(ravg / 1e3),
            f(rp90 / 1e3),
            f(rec.q_peak as f64 / 1e3),
            rec.red_drops.to_string(),
            f(rec.redundancy_fraction()),
            rec.total_timeouts().to_string(),
        ]);
    }
    ScenarioResult::new("queue_study", csv)
}
