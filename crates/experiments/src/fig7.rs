//! Figure 7: per-sub-flow throughput of FlexPass on the testbed topology
//! (10 Gbps, w_q = 0.5): (a) one FlexPass flow alone, (b) two FlexPass
//! flows, (c) one DCTCP + one FlexPass flow.

use flexpass::schemes::Scheme;
use flexpass_metrics::Recorder;
use flexpass_simnet::packet::{FlowSpec, Subflow};

use crate::csvout::Csv;
use crate::fig1::{long_flow, series_csv, testbed, HOST_0_LEGACY};
use crate::figures::Output;
use crate::orchestrate::grid;

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
    let all = [true; 3];
    let panels: Vec<(&str, Vec<FlowSpec>, [bool; 3], u64)> = vec![
        ("one_flexpass", vec![fp], all, 45),
        ("two_flexpass", vec![fp, long_flow(2, 1, 2, 1)], all, 90),
        (
            "dctcp_flexpass",
            vec![dctcp, long_flow(2, 1, 2, 1)],
            HOST_0_LEGACY,
            90,
        ),
    ];
    let cells = grid(
        "fig7",
        panels,
        |(label, ..)| label.to_string(),
        |(_, flows, upgraded, window_ms)| {
            let rec = testbed(Scheme::FlexPass, *upgraded, flows, *window_ms);
            subflow_series(&rec, *window_ms)
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
