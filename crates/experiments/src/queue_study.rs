//! §6.2 "Bounded queue" + §4.2 redundancy: Q1 occupancy statistics during
//! the rollout, the share of red (reactive) bytes in it, the selective-drop
//! rate, and the proactive-retransmission redundancy fraction.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::ProfileParams;
use flexpass::schemes::{Deployment, Scheme, SchemeFactory};
use flexpass_metrics::Recorder;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::TimeDelta;
use flexpass_simnet::topology::Topology;
use flexpass_workload::FlowSizeCdf;

use std::sync::Arc;

use flexpass_simcore::ProgressProbe;

use crate::csvout::{f, Csv};
use crate::orchestrate::{self, Task, TaskCtx};
use crate::runner::{run_flows_probed, RunScale, ScenarioResult};
use crate::sweep::{build_flows, SweepSpec};

/// One deployment point with queue sampling enabled.
fn run_queue_point(ratio: f64, scale: RunScale, probe: Option<Arc<ProgressProbe>>) -> Recorder {
    let spec = SweepSpec {
        schemes: vec![Scheme::FlexPass],
        ratios: vec![ratio],
        cdf: FlowSizeCdf::web_search(),
        load: 0.5,
        mixed: false,
        scale,
        seed: 41,
        wq: 0.5,
        sel_drop: 150_000,
        n_flows: None,
        seeds: 1,
    };
    let clos = scale.clos();
    let n_hosts = clos.n_hosts();
    let mut rng = SimRng::new(99);
    let deployment = Deployment::by_rack_ratio(&clos.rack_of(), ratio, &mut rng);
    let flows = build_flows(&spec, &deployment, n_hosts);
    let frac = deployment.upgraded_byte_fraction(&flows);
    let params = ProfileParams::simulation(clos.link_rate);
    let profile = Scheme::FlexPass.profile(&params, frac);
    let host = flexpass::profiles::host_variant(&profile);
    let topo = Topology::clos(clos, &profile, &host);
    let factory = SchemeFactory::new(Scheme::FlexPass, deployment, FlexPassConfig::new(0.5), frac);
    run_flows_probed(
        topo,
        Box::new(factory),
        Recorder::new().with_queue_watch(1),
        &flows,
        Some(TimeDelta::micros(100)),
        TimeDelta::millis(20),
        probe,
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
            Task::new(format!("r{ratio:.2}"), move |ctx: &TaskCtx| {
                run_queue_point(ratio, scale, Some(Arc::clone(&ctx.probe)))
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
