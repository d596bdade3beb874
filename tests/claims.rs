//! The paper's claims as rows of the figure table
//! (`flexpass_experiments::claims`): they hold on the committed `results/`,
//! EXPERIMENTS.md prints exactly what they evaluate to, and the testbed
//! figures still write the committed bytes.

use std::path::{Path, PathBuf};

use flexpass_experiments::claims::evaluate;
use flexpass_experiments::figures::{selected, FIGURES};
use flexpass_experiments::RunScale;

fn repo(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(repo(path)).expect(path)
}

/// Every claim evaluates to a number on the committed results and holds
/// unless it is a known deviation (all misses are reported at once);
/// `results/claims.csv` and EXPERIMENTS.md's block between its `claims`
/// markers are that evaluation.
#[test]
fn committed_results_hold_every_claim() {
    let csv = evaluate(&repo("results"));
    let in_all = FIGURES.iter().filter(|f| f.in_all).flat_map(|f| f.claims);
    assert_eq!(csv.len(), in_all.count(), "a claim's CSV is missing");
    let mut misses = Vec::new();
    for row in csv.rows() {
        let [figure, claim, _, measured, holds, class] = &row[..] else {
            panic!("a claims.csv row: {row:?}")
        };
        let number = measured.parse::<f64>().is_ok_and(f64::is_finite);
        if !(number && (holds == "yes" || class == "KnownDeviation")) {
            misses.push(format!("{figure}/{claim} ({class}) measured {measured}"));
        }
    }
    assert!(misses.is_empty(), "claims missed:\n{}", misses.join("\n"));
    let stale = "results/claims.csv is stale: rerun `--fig none --out results`";
    assert!(read("results/claims.csv") == csv.render(), "{stale}");

    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let mut expected = line(csv.header()) + "|---|---|---|---|---|---|\n";
    expected.extend(csv.rows().iter().map(|row| line(row)));
    let (begin, end) = ("<!-- claims:begin -->\n", "<!-- claims:end -->");
    let text = read("EXPERIMENTS.md");
    let rest = text.split_once(begin).map_or("", |(_, rest)| rest);
    assert!(
        rest.split_once(end)
            .is_some_and(|(block, _)| block == expected),
        "EXPERIMENTS.md's claims block is stale; it should read:\n{begin}{expected}{end}"
    );
}

/// The scale-independent testbed figures run at smoke scale write the
/// committed CSVs byte for byte, so their claims are the rows above.
/// Figure 7's tables are millisecond series long enough for a steady state.
#[test]
fn testbed_figures_write_the_committed_results() {
    for name in ["fig1a", "fig1b", "fig7", "fig8", "fig9"] {
        let figure = selected(name).next().expect("a figure of the table");
        for (out, csv) in figure.run(RunScale::Smoke).expect("takes no input") {
            let committed = read(&format!("results/{}.csv", out.stem));
            assert!(csv.render() == committed, "{} moved", out.stem);
            let series = csv.header()[0] == "time_ms" && csv.len() >= 44;
            assert!(name != "fig7" || series, "{}: not a 44 ms series", out.stem);
        }
    }
}
