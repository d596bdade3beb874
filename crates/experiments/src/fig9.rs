//! Figure 9: coexistence with legacy traffic on the testbed topology.
//! (a) ExpressPass starves a competing DCTCP flow under the naive rollout;
//! (b) FlexPass and DCTCP share the link evenly;
//! (c) starvation time — the fraction of time a transport held < 20 % of
//! the link.

use flexpass::profiles::{naive_profile, ProfileParams};
use flexpass_metrics::Recorder;
use flexpass_simcore::time::{Rate, Time};
use flexpass_simnet::packet::FlowSpec;
use flexpass_transport::expresspass::EpConfig;

use crate::csvout::{f, Csv};
use crate::fig1::{long_flow, run_testbed, series_csv, TagFactory};
use crate::orchestrate::{self, Task};
use crate::runner::{star_topo, ScenarioResult};

const WINDOW_MS: u64 = 90;

/// One legacy DCTCP flow (host 0) and one upgraded flow (host 1) into
/// host 2.
fn competitors() -> [FlowSpec; 2] {
    [long_flow(1, 0, 2, 0), long_flow(2, 1, 2, 1)]
}

/// Runs ExpressPass vs DCTCP (naive rollout).
pub fn run_ep_vs_dctcp() -> Recorder {
    let params = ProfileParams::testbed(Rate::from_gbps(10));
    let topo = star_topo(3, &naive_profile(&params));
    let factory = TagFactory::dctcp_vs_ep(EpConfig::default());
    run_testbed(topo, Box::new(factory), &competitors(), WINDOW_MS)
}

/// Runs FlexPass vs DCTCP (FlexPass switch configuration, w_q = 0.5).
pub fn run_fp_vs_dctcp() -> Recorder {
    // Hosts 1 and 2 upgraded: flow 2 runs FlexPass, flow 1 stays DCTCP.
    crate::fig7::run(&competitors(), &[1, 2], WINDOW_MS)
}

/// Starvation fraction of a tag over the steady window (threshold 20 % of
/// the 10 G link, skipping the first 5 ms of ramp-up).
pub fn starvation(rec: &Recorder, tag: u32) -> f64 {
    rec.starvation_fraction(
        tag,
        10.0,
        0.2,
        Time::from_millis(5),
        Time::from_millis(WINDOW_MS),
    )
}

/// The full Figure 9: two throughput time series plus the starvation bar.
/// The two coexistence runs are independent, so they share the worker
/// pool; a failed run falls back to an empty recorder (all-zero series)
/// and is reported at exit.
pub fn fig9() -> Vec<ScenarioResult> {
    let mut results = orchestrate::run_tasks(
        "fig9",
        vec![
            Task::new("ep_vs_dctcp", run_ep_vs_dctcp),
            Task::new("fp_vs_dctcp", run_fp_vs_dctcp),
        ],
    )
    .into_iter();
    let mut next = || {
        results
            .next()
            .expect("one result per coexistence run")
            .unwrap_or_else(|_| Recorder::new())
    };
    let ep = next();
    let fp = next();

    let mut bars = Csv::new(&["scheme", "dctcp_starved_frac", "new_starved_frac"]);
    for (scheme, rec) in [("expresspass", &ep), ("flexpass", &fp)] {
        bars.row(&[scheme.into(), f(starvation(rec, 0)), f(starvation(rec, 1))]);
    }

    let series = |rec, new_label| series_csv(rec, WINDOW_MS, ["dctcp_gbps", new_label]);
    vec![
        ScenarioResult::new("fig9a_ep_vs_dctcp", series(&ep, "expresspass_gbps")),
        ScenarioResult::new("fig9b_fp_vs_dctcp", series(&fp, "flexpass_gbps")),
        ScenarioResult::new("fig9c_starvation", bars),
    ]
}
