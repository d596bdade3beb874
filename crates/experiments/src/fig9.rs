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
use crate::fig1::{long_flow, run_testbed, series_csv, tag_series, TagFactory};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::star_topo;

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
/// The two coexistence runs are independent, so each is one grid cell that
/// sends back its series and its two starvation fractions.
pub fn fig9(out: &[Output]) -> Vec<Csv> {
    /// A coexistence run: its cell label, its scheme in the bar table, and
    /// the simulation.
    type Run = (&'static str, &'static str, fn() -> Recorder);
    let runs: Vec<Run> = vec![
        ("ep_vs_dctcp", "expresspass", run_ep_vs_dctcp),
        ("fp_vs_dctcp", "flexpass", run_fp_vs_dctcp),
    ];
    let cells = grid(
        "fig9",
        runs,
        |(label, ..)| label.to_string(),
        |(.., run)| {
            let rec = run();
            let starved = [starvation(&rec, 0), starvation(&rec, 1)];
            (tag_series(&rec, WINDOW_MS), starved)
        },
    );
    let mut bars = Csv::new(out[2].columns);
    let mut tables = Vec::new();
    for (((_, scheme, _), cell), out) in cells.iter().zip(out) {
        let (series, starved) = cell.as_ref().map(|(s, b)| (&s[..], *b)).unzip();
        tables.push(series_csv(out.columns, WINDOW_MS, series));
        bars.row(std::iter::once(scheme.to_string()).chain(or_nan(starved).map(f)));
    }
    tables.push(bars);
    tables
}
