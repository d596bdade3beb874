//! Cross-crate integration tests for the paper's coexistence claims
//! (§2.2 motivation and §6.1 testbed results), read from the tables
//! Figure 9 writes at smoke scale. Those are the committed `results/`
//! tables: `tests/claims.rs::testbed_figures_write_the_committed_results`
//! runs the figure and holds its output to them byte for byte.

use std::path::Path;

use flexpass_experiments::claims::{Fold, Key, Read};
use flexpass_experiments::csvout::Csv;
use flexpass_experiments::figures::{selected, Output};

/// Figure 9's three outputs and their committed tables.
fn fig9() -> Vec<(&'static Output, Csv)> {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let figure = selected("fig9").next().expect("fig9 is in the table");
    let table = |out: &'static Output| (out, Csv::read(&results, out.stem).expect(out.stem));
    figure.outputs.iter().map(table).collect()
}

/// `column` of the rows of output `stem` that match `key`, folded.
fn stat(
    tables: &[(&Output, Csv)],
    stem: &'static str,
    key: Key,
    column: &'static str,
    fold: Fold,
) -> f64 {
    let (_, csv) = tables.iter().find(|(out, _)| out.stem == stem).expect(stem);
    let read = Read {
        stem,
        key,
        column,
        fold,
    };
    read.fold(csv)
}

/// §2.2 / Figure 9(a): a naive ExpressPass rollout starves a competing
/// DCTCP flow to a few percent of the link.
#[test]
fn naive_expresspass_starves_dctcp() {
    let tables = fig9();
    let steady = |column| stat(&tables, "fig9a_ep_vs_dctcp", &[], column, Fold::Steady);
    let dctcp = steady("dctcp_gbps");
    let ep = steady("expresspass_gbps");
    assert!(ep > 8.0, "ExpressPass should dominate; got {ep:.2} Gbps");
    assert!(dctcp < 1.5, "DCTCP should be starved; got {dctcp:.2} Gbps");
    // Paper: 96.86 % starvation time for the legacy flow.
    let key = &[("scheme", "expresspass")];
    let starved = |column| stat(&tables, "fig9c_starvation", key, column, Fold::One);
    let legacy = starved("dctcp_starved_frac");
    assert!(legacy > 0.9, "legacy starvation fraction {legacy}");
}

/// Figure 9(b, c): under FlexPass the legacy flow and the upgraded flow
/// each hold about half the link and neither is ever starved.
#[test]
fn flexpass_shares_link_with_dctcp() {
    let tables = fig9();
    let steady = |column| stat(&tables, "fig9b_fp_vs_dctcp", &[], column, Fold::Steady);
    let dctcp = steady("dctcp_gbps");
    let fp = steady("flexpass_gbps");
    // Paper: 51 % / 48 %.
    assert!(
        (3.5..6.5).contains(&dctcp),
        "DCTCP share {dctcp:.2} Gbps not balanced"
    );
    assert!(
        (3.5..6.5).contains(&fp),
        "FlexPass share {fp:.2} Gbps not balanced"
    );
    let key = &[("scheme", "flexpass")];
    let starved = |column| stat(&tables, "fig9c_starvation", key, column, Fold::One);
    assert!(
        starved("dctcp_starved_frac") < 0.01,
        "legacy starved under FlexPass"
    );
    assert!(starved("new_starved_frac") < 0.01, "FlexPass starved");
}
