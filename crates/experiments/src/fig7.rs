//! Figure 7: per-sub-flow throughput of FlexPass on the testbed topology
//! (10 Gbps, w_q = 0.5): (a) one FlexPass flow alone, (b) two FlexPass
//! flows, (c) one DCTCP + one FlexPass flow.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{flexpass_profile, ProfileParams};
use flexpass::schemes::{Deployment, Scheme, SchemeFactory};
use flexpass_metrics::Recorder;
use flexpass_simcore::time::Rate;
use flexpass_simnet::packet::{FlowSpec, Subflow};

use crate::csvout::{f, Csv};
use crate::fig1::{long_flow, run_testbed, steady_mean};
use crate::orchestrate;
use crate::runner::{star_topo, ScenarioResult};

/// FlexPass on the 3-host star with `upgraded_hosts` upgraded (w_q = 0.5).
/// Figure 9(b) is the same testbed with a DCTCP competitor.
pub(crate) fn run(flows: &[FlowSpec], upgraded_hosts: &[usize], window_ms: u64) -> Recorder {
    let params = ProfileParams::testbed(Rate::from_gbps(10));
    let topo = star_topo(3, &flexpass_profile(&params));
    let mut up = vec![false; 3];
    for &h in upgraded_hosts {
        up[h] = true;
    }
    let deployment = Deployment::from_hosts(up);
    let factory = SchemeFactory::new(Scheme::FlexPass, deployment, FlexPassConfig::new(0.5), 0.5);
    run_testbed(topo, Box::new(factory), flows, window_ms)
}

fn subflow_csv(rec: &Recorder, window_ms: u64) -> Csv {
    let mut csv = Csv::new(&["time_ms", "proactive_gbps", "reactive_gbps", "dctcp_gbps"]);
    let zero = Vec::new();
    let pro = rec
        .series((1, Subflow::Proactive))
        .map(|s| s.bins().to_vec())
        .unwrap_or(zero.clone());
    let rea = rec
        .series((1, Subflow::Reactive))
        .map(|s| s.bins().to_vec())
        .unwrap_or(zero.clone());
    let leg = rec.throughput_gbps(0);
    let to_gbps = |v: &[f64], t: usize| v.get(t).copied().unwrap_or(0.0) * 8.0 / 1e6;
    for t in 0..window_ms as usize {
        csv.row(&[
            t.to_string(),
            f(to_gbps(&pro, t)),
            f(to_gbps(&rea, t)),
            f(leg.get(t).copied().unwrap_or(0.0)),
        ]);
    }
    csv
}

/// Figure 7(a): one FlexPass flow alone — proactive takes w_q of the link,
/// reactive soaks up the rest.
pub fn fig7a() -> ScenarioResult {
    let rec = orchestrate::run_isolated("fig7a", "one_flexpass", Recorder::new, || {
        run(&[long_flow(1, 0, 2, 1)], &[0, 1, 2], 45)
    });
    ScenarioResult::new("fig7a_one_flexpass", subflow_csv(&rec, 45))
}

/// Figure 7(b): two FlexPass flows — proactive sub-flows share the
/// guaranteed half; reactive sub-flows starve.
pub fn fig7b() -> ScenarioResult {
    let rec = orchestrate::run_isolated("fig7b", "two_flexpass", Recorder::new, || {
        run(
            &[long_flow(1, 0, 2, 1), long_flow(2, 1, 2, 1)],
            &[0, 1, 2],
            90,
        )
    });
    ScenarioResult::new("fig7b_two_flexpass", subflow_csv(&rec, 90))
}

/// Figure 7(c): one DCTCP + one FlexPass flow — each transport gets its
/// guaranteed half; the reactive sub-flow finds no spare bandwidth.
pub fn fig7c() -> ScenarioResult {
    let rec = orchestrate::run_isolated("fig7c", "dctcp_flexpass", Recorder::new, || {
        run(&[long_flow(1, 0, 2, 0), long_flow(2, 1, 2, 1)], &[1, 2], 90)
    });
    ScenarioResult::new("fig7c_dctcp_flexpass", subflow_csv(&rec, 90))
}

/// Helper for tests: steady-state mean of a sub-flow series over the last
/// half of the window, in Gbps.
pub fn steady_subflow_gbps(rec: &Recorder, sub: Subflow, window_ms: usize) -> f64 {
    let gbps: Vec<f64> = match rec.series((1, sub)) {
        Some(s) => s.bins().iter().map(|b| b * 8.0 / 1e6).collect(),
        None => return 0.0,
    };
    steady_mean(&gbps, window_ms)
}
