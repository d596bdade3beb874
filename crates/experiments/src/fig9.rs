//! Figure 9: coexistence with legacy traffic on the testbed topology.
//! (a) ExpressPass starves a competing DCTCP flow under the naive rollout;
//! (b) FlexPass and DCTCP share the link evenly;
//! (c) starvation time — the fraction of time a transport held < 20 % of
//! the link.

use flexpass::schemes::Scheme;
use flexpass_metrics::Recorder;
use flexpass_simcore::time::Time;

use crate::csvout::{f, Csv};
use crate::fig1::{long_flow, series_csv, tag_series, testbed, HOST_0_LEGACY};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};

const WINDOW_MS: u64 = 90;

/// Starvation fraction of a tag over the steady window (threshold 20 % of
/// the 10 G link, skipping the first 5 ms of ramp-up).
fn starvation(rec: &Recorder, tag: u32) -> f64 {
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
    // A coexistence run: its cell label, its scheme in the bar table, and
    // the scheme the upgraded flow runs (the naive rollout for ExpressPass).
    let runs = vec![
        ("ep_vs_dctcp", "expresspass", Scheme::Naive),
        ("fp_vs_dctcp", "flexpass", Scheme::FlexPass),
    ];
    // A legacy DCTCP flow from host 0 and an upgraded one from host 1.
    let competitors = [long_flow(1, 0, 2, 0), long_flow(2, 1, 2, 1)];
    let cells = grid(
        "fig9",
        runs,
        |(label, ..)| label.to_string(),
        |&(.., scheme)| {
            let rec = testbed(scheme, HOST_0_LEGACY, &competitors, WINDOW_MS);
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
