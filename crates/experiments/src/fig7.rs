//! Figure 7: per-sub-flow throughput of FlexPass on the testbed topology
//! (10 Gbps, w_q = 0.5): (a) one FlexPass flow alone, (b) two FlexPass
//! flows, (c) one DCTCP + one FlexPass flow.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{flexpass_profile, ProfileParams};
use flexpass::schemes::{Deployment, Scheme, SchemeFactory};
use flexpass_metrics::Recorder;
use flexpass_simcore::time::Rate;
use flexpass_simnet::packet::{FlowSpec, Subflow};

use crate::csvout::Csv;
use crate::fig1::{long_flow, run_testbed, series_csv, steady_mean};
use crate::figures::Output;
use crate::orchestrate::grid;
use crate::runner::star_topo;

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

/// Per-millisecond throughput of flow 1's proactive and reactive sub-flows
/// and of the legacy tag over the window, in Gbps.
fn subflow_series(rec: &Recorder, window_ms: u64) -> Vec<[f64; 3]> {
    let bins = |sub| rec.series((1, sub)).map_or(&[][..], |s| s.bins());
    let (pro, rea) = (bins(Subflow::Proactive), bins(Subflow::Reactive));
    let leg = rec.throughput_gbps(0);
    let at = |v: &[f64], t: usize| v.get(t).copied().unwrap_or(0.0);
    (0..window_ms as usize)
        .map(|t| [at(pro, t) * 8.0 / 1e6, at(rea, t) * 8.0 / 1e6, at(&leg, t)])
        .collect()
}

/// Figure 7, one grid cell per panel: (a) one FlexPass flow alone —
/// proactive takes w_q of the link, reactive soaks up the rest; (b) two
/// FlexPass flows — the proactive sub-flows share the guaranteed half, the
/// reactive ones starve; (c) one DCTCP + one FlexPass flow — each transport
/// gets its guaranteed half and the reactive sub-flow finds no spare
/// bandwidth.
pub fn fig7(out: &[Output]) -> Vec<Csv> {
    let (fp, dctcp) = (long_flow(1, 0, 2, 1), long_flow(1, 0, 2, 0));
    let panels: Vec<(&str, Vec<FlowSpec>, &[usize], u64)> = vec![
        ("one_flexpass", vec![fp], &[0, 1, 2], 45),
        (
            "two_flexpass",
            vec![fp, long_flow(2, 1, 2, 1)],
            &[0, 1, 2],
            90,
        ),
        (
            "dctcp_flexpass",
            vec![dctcp, long_flow(2, 1, 2, 1)],
            &[1, 2],
            90,
        ),
    ];
    let cells = grid(
        "fig7",
        panels,
        |(label, ..)| label.to_string(),
        |(_, flows, upgraded, window_ms)| {
            subflow_series(&run(flows, upgraded, *window_ms), *window_ms)
        },
    );
    cells
        .iter()
        .zip(out)
        .map(|(((.., window_ms), series), out)| {
            series_csv(out.columns, *window_ms, series.as_deref())
        })
        .collect()
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
