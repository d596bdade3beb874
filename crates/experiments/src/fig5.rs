//! Figure 5: design-alternative comparisons.
//! (a) FlexPass vs RC3-style flow splitting: tail FCT and reordering
//! buffer; (b) FlexPass vs the "alternative queueing" scheme (reactive
//! sub-flow in the legacy queue) across deployment ratios.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::ProfileParams;
use flexpass::schemes::{Deployment, Scheme, SchemeFactory, TAG_UPGRADED};
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

/// Runs FlexPass with a given protocol configuration at one deployment
/// ratio; returns `(p99 small all, p99 small upgraded, mean reorder peak of
/// upgraded flows)`.
pub fn run_variant(cfg: FlexPassConfig, ratio: f64, scale: RunScale) -> (f64, f64, f64) {
    run_variant_probed(cfg, ratio, scale, None)
}

fn run_variant_probed(
    cfg: FlexPassConfig,
    ratio: f64,
    scale: RunScale,
    probe: Option<Arc<ProgressProbe>>,
) -> (f64, f64, f64) {
    let spec = SweepSpec {
        schemes: vec![Scheme::FlexPass],
        ratios: vec![ratio],
        cdf: FlowSizeCdf::web_search(),
        load: 0.5,
        mixed: false,
        scale,
        seed: 11,
        wq: cfg.wq,
        sel_drop: 150_000,
        n_flows: if scale == RunScale::Default {
            Some(600)
        } else {
            None
        },
        seeds: 1,
    };
    let clos = scale.clos();
    let n_hosts = clos.n_hosts();
    let mut rng = SimRng::new(77);
    let deployment = Deployment::by_rack_ratio(&clos.rack_of(), ratio, &mut rng);
    let flows = build_flows(&spec, &deployment, n_hosts);
    let frac = deployment.upgraded_byte_fraction(&flows);
    let params = ProfileParams::simulation(clos.link_rate);
    let profile = Scheme::FlexPass.profile(&params, frac);
    let host = flexpass::profiles::host_variant(&profile);
    let topo = Topology::clos(clos, &profile, &host);
    let factory = SchemeFactory::new(Scheme::FlexPass, deployment, cfg, frac);
    let rec = run_flows_probed(
        topo,
        Box::new(factory),
        Recorder::new(),
        &flows,
        None,
        TimeDelta::millis(20),
        probe,
    );
    let upgraded: Vec<f64> = rec
        .flows
        .iter()
        .filter(|r| r.tag == TAG_UPGRADED)
        .map(|r| r.reorder_peak as f64)
        .collect();
    let reorder = if upgraded.is_empty() {
        0.0
    } else {
        upgraded.iter().sum::<f64>() / upgraded.len() as f64
    };
    (
        rec.p99_small(None),
        rec.p99_small(Some(TAG_UPGRADED)),
        reorder,
    )
}

/// Figure 5(a): FlexPass vs RC3-style splitting at 25/50/75/100 %
/// deployment — p99 FCT of small flows vs mean reordering buffer.
pub fn fig5a(scale: RunScale) -> ScenarioResult {
    let grid: Vec<(&str, FlexPassConfig, f64)> = [0.5, 1.0]
        .iter()
        .flat_map(|&ratio| {
            [
                ("flexpass", FlexPassConfig::new(0.5), ratio),
                ("rc3_split", FlexPassConfig::rc3_splitting(0.5), ratio),
            ]
        })
        .collect();
    let tasks: Vec<Task<(f64, f64, f64)>> = grid
        .iter()
        .map(|&(label, cfg, ratio)| {
            Task::new(format!("{label}:r{ratio:.2}"), move |ctx: &TaskCtx| {
                run_variant_probed(cfg, ratio, scale, Some(Arc::clone(&ctx.probe)))
            })
        })
        .collect();
    let mut csv = Csv::new(&["variant", "deploy_ratio", "p99_small_ms", "reorder_mean_kb"]);
    for ((label, _, ratio), r) in grid.iter().zip(orchestrate::run_tasks("fig5a", tasks)) {
        let (p99, _p99u, reorder) = r.unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        csv.row(&[
            (*label).into(),
            format!("{ratio:.2}"),
            f(p99 * 1e3),
            f(reorder / 1e3),
        ]);
    }
    ScenarioResult::new("fig5a_rc3_split", csv)
}

/// Figure 5(b): FlexPass vs alternative queueing across deployment ratios.
pub fn fig5b(scale: RunScale) -> ScenarioResult {
    let grid: Vec<(&str, FlexPassConfig, f64)> = [0.25, 0.5, 0.75, 1.0]
        .iter()
        .flat_map(|&ratio| {
            [
                ("flexpass", FlexPassConfig::new(0.5), ratio),
                (
                    "alternative",
                    FlexPassConfig::alternative_queueing(0.5),
                    ratio,
                ),
            ]
        })
        .collect();
    let tasks: Vec<Task<(f64, f64, f64)>> = grid
        .iter()
        .map(|&(label, cfg, ratio)| {
            Task::new(format!("{label}:r{ratio:.2}"), move |ctx: &TaskCtx| {
                run_variant_probed(cfg, ratio, scale, Some(Arc::clone(&ctx.probe)))
            })
        })
        .collect();
    let mut csv = Csv::new(&["variant", "deploy_ratio", "p99_small_ms"]);
    for ((label, _, ratio), r) in grid.iter().zip(orchestrate::run_tasks("fig5b", tasks)) {
        let (p99, _, _) = r.unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        csv.row(&[(*label).into(), format!("{ratio:.2}"), f(p99 * 1e3)]);
    }
    ScenarioResult::new("fig5b_alt_queueing", csv)
}
