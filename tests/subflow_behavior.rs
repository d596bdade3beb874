//! Integration tests for the Figure-7 sub-flow bandwidth claims, read from
//! the tables Figure 7 writes at smoke scale. Those are the committed
//! `results/` tables: `tests/claims.rs::testbed_figures_write_the_committed_results`
//! runs the figure and holds its output to them byte for byte.

use std::path::Path;

use flexpass_experiments::claims::{Fold, Read};
use flexpass_experiments::csvout::Csv;
use flexpass_experiments::figures::{selected, Output};

/// Figure 7's three outputs and their committed tables.
fn fig7() -> Vec<(&'static Output, Csv)> {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let figure = selected("fig7").next().expect("fig7 is in the table");
    let table = |out: &'static Output| (out, Csv::read(&results, out.stem).expect(out.stem));
    figure.outputs.iter().map(table).collect()
}

/// Steady-state (second-half) mean of `column` of output `stem`, in Gbps.
fn steady(tables: &[(&Output, Csv)], stem: &'static str, column: &'static str) -> f64 {
    let (_, csv) = tables.iter().find(|(out, _)| out.stem == stem).expect(stem);
    let read = Read {
        stem,
        key: &[],
        column,
        fold: Fold::Steady,
    };
    read.fold(csv)
}

/// Figure 7(a): alone on the link, the proactive sub-flow takes about w_q
/// of the capacity and the reactive sub-flow soaks up the rest; together
/// they saturate the link.
#[test]
fn single_flexpass_flow_uses_both_subflows() {
    let tables = fig7();
    let pro = steady(&tables, "fig7a_one_flexpass", "proactive_gbps");
    let rea = steady(&tables, "fig7a_one_flexpass", "reactive_gbps");
    assert!(
        (3.5..5.5).contains(&pro),
        "proactive should hold ~w_q of 10G, got {pro:.2}"
    );
    assert!(
        (3.5..6.0).contains(&rea),
        "reactive should fill the spare half, got {rea:.2}"
    );
    assert!(pro + rea > 8.5, "link underutilized: {:.2}", pro + rea);
}

/// Figure 7(c): against a legacy DCTCP flow, FlexPass holds its guaranteed
/// half almost entirely through the proactive sub-flow; the reactive
/// sub-flow finds essentially no spare bandwidth.
#[test]
fn flexpass_vs_dctcp_reactive_starves() {
    let tables = fig7();
    let dctcp = steady(&tables, "fig7c_dctcp_flexpass", "dctcp_gbps");
    let pro = steady(&tables, "fig7c_dctcp_flexpass", "proactive_gbps");
    let rea = steady(&tables, "fig7c_dctcp_flexpass", "reactive_gbps");
    assert!((3.5..6.0).contains(&dctcp), "DCTCP {dctcp:.2}");
    assert!((3.5..6.0).contains(&pro), "proactive {pro:.2}");
    assert!(
        rea < 1.0,
        "reactive should find no spare bandwidth, got {rea:.2}"
    );
}

/// The fig7 scenario builders produce non-empty, well-formed CSV tables.
#[test]
fn fig7_csvs_well_formed() {
    let tables = fig7();
    assert_eq!(tables.len(), 3);
    for (out, csv) in tables {
        assert!(!csv.is_empty(), "{} empty", out.stem);
        let text = csv.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("time_ms,"));
        assert!(lines.len() >= 45);
    }
}
