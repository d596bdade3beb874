//! The figure table: everything that describes a figure, once.
//!
//! A [`Figure`] is one `--fig` name. It owns whether `--fig all` includes
//! it, the function that runs it, and its [`Output`]s — per CSV the file
//! stem, the column list, and the [`Chart`]s `--plot` draws from it. The
//! figure modules take their headers from here (`Csv::new(out[0].columns)`)
//! and return their tables in output order; [`Figure::run`] pairs each table
//! with its output and refuses one whose header is not the output's column
//! list. [`crate::plot::plot_results`] walks the same outputs, and the tests
//! below hold the table against the committed checksums and the documents.

use crate::csvout::Csv;
use crate::runner::RunScale;
use crate::{
    ablation, custom, fig1, fig17, fig18, fig5, fig7, fig8, fig9, queue_study, scale, sweep,
};

/// One line chart of an output: a series per distinct value of the
/// `series` columns and per `y` column, against `x`.
pub struct Chart {
    /// Key columns: rows that agree on all of them form one series.
    pub series: &'static [&'static str],
    /// The x column.
    pub x: &'static str,
    /// The y columns; the first names the file, `<stem>_<y[0]>.svg`.
    pub y: &'static [&'static str],
    /// Chart title.
    pub title: &'static str,
    /// x-axis label.
    pub x_label: &'static str,
    /// y-axis label.
    pub y_label: &'static str,
}

/// One CSV a figure writes.
pub struct Output {
    /// File stem: the table lands in `<out>/<stem>.csv`.
    pub stem: &'static str,
    /// The header, in order.
    pub columns: &'static [&'static str],
    /// What `--plot` draws from it.
    pub charts: &'static [Chart],
}

/// Runs a figure at a scale: one table per output, in output order. `Err`
/// is a problem with the user's input (the trace replay's file).
type RunFn = fn(RunScale, &'static [Output]) -> Result<Vec<Csv>, String>;

/// One `--fig` name.
pub struct Figure {
    /// The name `--fig` takes.
    pub name: &'static str,
    /// Whether `--fig all` runs it.
    pub in_all: bool,
    run: RunFn,
    /// The CSVs it writes.
    pub outputs: &'static [Output],
}

impl Figure {
    /// Runs the figure and pairs each table with the output it belongs to.
    ///
    /// # Panics
    ///
    /// If the figure returned a table count or a header the table does not
    /// declare — a bug in the figure module, caught before anything is
    /// written.
    pub fn run(&self, scale: RunScale) -> Result<Vec<(&'static Output, Csv)>, String> {
        let tables = (self.run)(scale, self.outputs)?;
        assert_eq!(tables.len(), self.outputs.len(), "{}: tables", self.name);
        for (out, csv) in self.outputs.iter().zip(&tables) {
            assert_eq!(csv.header(), out.columns, "{}.csv: header", out.stem);
        }
        Ok(self.outputs.iter().zip(tables).collect())
    }
}

/// An output `--plot` draws nothing from.
const fn table(stem: &'static str, columns: &'static [&'static str]) -> Output {
    Output {
        stem,
        columns,
        charts: &[],
    }
}

/// A chart of `y` against the deployment ratio, one line per distinct
/// value of the `series` columns.
const fn vs_deployment(
    series: &'static [&'static str],
    y: &'static [&'static str],
    title: &'static str,
    y_label: &'static str,
) -> Chart {
    Chart {
        series,
        x: "deploy_ratio",
        y,
        title,
        x_label: "deployment ratio",
        y_label,
    }
}

/// The wide deployment-sweep table of Figures 10 and 11 — what
/// [`sweep::to_csv`] renders.
pub const SWEEP_COLUMNS: &[&str] = &[
    "scheme",
    "deploy_ratio",
    "p99_small_all_ms",
    "p99_small_legacy_ms",
    "p99_small_upgraded_ms",
    "avg_all_ms",
    "avg_legacy_ms",
    "avg_upgraded_ms",
    "stddev_small_all_ms",
    "stddev_small_legacy_ms",
    "stddev_small_upgraded_ms",
    "reorder_mean_kb",
    "timeouts",
    "redundancy_frac",
    "flows",
];

/// The per-(tag, size-decade) sketch table — what [`scale::sketch_csv`]
/// renders.
pub const SKETCH_COLUMNS: &[&str] = &[
    "tag",
    "size_decade",
    "flows",
    "avg_fct_ms",
    "p50_fct_ms",
    "p99_fct_ms",
    "max_fct_ms",
];

const EP_VS_DCTCP: &[&str] = &["time_ms", "dctcp_gbps", "expresspass_gbps"];
const SUBFLOWS: &[&str] = &["time_ms", "proactive_gbps", "reactive_gbps", "dctcp_gbps"];

/// Every figure the binary can produce, in `--fig all` order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig1a",
        in_all: true,
        run: |_, out| Ok(fig1::fig1a(out)),
        outputs: &[Output {
            stem: "fig1a_ep_vs_dctcp",
            columns: EP_VS_DCTCP,
            charts: &[Chart {
                series: &[],
                x: "time_ms",
                y: &["dctcp_gbps", "expresspass_gbps"],
                title: "Fig 1a: DCTCP under naive ExpressPass",
                x_label: "time (ms)",
                y_label: "throughput (Gbps)",
            }],
        }],
    },
    Figure {
        name: "fig1b",
        in_all: true,
        run: |_, out| Ok(fig1::fig1b(out)),
        outputs: &[table(
            "fig1b_homa_vs_dctcp",
            &["time_ms", "dctcp_gbps", "homa_gbps"],
        )],
    },
    Figure {
        name: "fig5a",
        in_all: true,
        run: |scale, out| Ok(fig5::fig5a(scale, out)),
        outputs: &[table(
            "fig5a_rc3_split",
            &["variant", "deploy_ratio", "p99_small_ms", "reorder_mean_kb"],
        )],
    },
    Figure {
        name: "fig5b",
        in_all: true,
        run: |scale, out| Ok(fig5::fig5b(scale, out)),
        outputs: &[table(
            "fig5b_alt_queueing",
            &["variant", "deploy_ratio", "p99_small_ms"],
        )],
    },
    Figure {
        name: "fig7",
        in_all: true,
        run: |_, out| Ok(fig7::fig7(out)),
        outputs: &[
            table("fig7a_one_flexpass", SUBFLOWS),
            table("fig7b_two_flexpass", SUBFLOWS),
            table("fig7c_dctcp_flexpass", SUBFLOWS),
        ],
    },
    Figure {
        name: "fig8",
        in_all: true,
        run: |_, out| Ok(fig8::fig8(out)),
        outputs: &[Output {
            stem: "fig8_incast",
            columns: &["transport", "n_flows", "max_fct_ms", "timeouts"],
            charts: &[Chart {
                series: &["transport"],
                x: "n_flows",
                y: &["max_fct_ms"],
                title: "Fig 8: incast tail FCT",
                x_label: "number of flows",
                y_label: "max FCT (ms)",
            }],
        }],
    },
    Figure {
        name: "fig9",
        in_all: true,
        run: |_, out| Ok(fig9::fig9(out)),
        outputs: &[
            table("fig9a_ep_vs_dctcp", EP_VS_DCTCP),
            Output {
                stem: "fig9b_fp_vs_dctcp",
                columns: &["time_ms", "dctcp_gbps", "flexpass_gbps"],
                charts: &[Chart {
                    series: &[],
                    x: "time_ms",
                    y: &["dctcp_gbps", "flexpass_gbps"],
                    title: "Fig 9b: DCTCP vs FlexPass",
                    x_label: "time (ms)",
                    y_label: "throughput (Gbps)",
                }],
            },
            table(
                "fig9c_starvation",
                &["scheme", "dctcp_starved_frac", "new_starved_frac"],
            ),
        ],
    },
    // Also produces the per-type data of Figures 12–13.
    Figure {
        name: "fig10",
        in_all: true,
        run: |scale, out| Ok(sweep::fig10_or_11("fig10", false, scale, out)),
        outputs: &[
            Output {
                stem: "fig10_sweep",
                columns: SWEEP_COLUMNS,
                charts: &[
                    vs_deployment(
                        &["scheme"],
                        &["p99_small_all_ms"],
                        "Fig 10a: p99 FCT (<100kB) vs deployment",
                        "p99 FCT (ms)",
                    ),
                    vs_deployment(
                        &["scheme"],
                        &["avg_all_ms"],
                        "Fig 10b: average FCT vs deployment",
                        "avg FCT (ms)",
                    ),
                ],
            },
            Output {
                stem: "fig12_p99_by_type",
                columns: &[
                    "scheme",
                    "deploy_ratio",
                    "p99_small_legacy_ms",
                    "p99_small_upgraded_ms",
                ],
                charts: &[vs_deployment(
                    &["scheme"],
                    &["p99_small_upgraded_ms"],
                    "Fig 12: upgraded-flow p99 by scheme",
                    "p99 FCT (ms)",
                )],
            },
            Output {
                stem: "fig13_stddev_by_type",
                columns: &[
                    "scheme",
                    "deploy_ratio",
                    "stddev_small_legacy_ms",
                    "stddev_small_upgraded_ms",
                ],
                charts: &[vs_deployment(
                    &["scheme"],
                    &["stddev_small_legacy_ms"],
                    "Fig 13: legacy small-flow FCT stddev",
                    "stddev (ms)",
                )],
            },
        ],
    },
    Figure {
        name: "fig11",
        in_all: true,
        run: |scale, out| Ok(sweep::fig10_or_11("fig11", true, scale, out)),
        outputs: &[Output {
            stem: "fig11_sweep",
            columns: SWEEP_COLUMNS,
            charts: &[vs_deployment(
                &["scheme"],
                &["p99_small_all_ms"],
                "Fig 11a: p99 FCT (<100kB), mixed traffic",
                "p99 FCT (ms)",
            )],
        }],
    },
    Figure {
        name: "fig14",
        in_all: true,
        run: |scale, out| Ok(sweep::fig14(scale, out)),
        outputs: &[Output {
            stem: "fig14_load_sweep",
            columns: &[
                "scheme",
                "load",
                "deploy_ratio",
                "p99_small_all_ms",
                "p99_small_legacy_ms",
                "p99_small_upgraded_ms",
            ],
            charts: &[vs_deployment(
                &["scheme", "load"],
                &["p99_small_all_ms"],
                "Fig 14: p99 FCT across loads",
                "p99 FCT (ms)",
            )],
        }],
    },
    // Covers Figure 16's average-FCT series.
    Figure {
        name: "fig15",
        in_all: true,
        run: |scale, out| Ok(sweep::fig15_16(scale, out)),
        outputs: &[table(
            "fig15_16_workloads",
            &[
                "workload",
                "scheme",
                "deploy_ratio",
                "p99_small_all_ms",
                "avg_all_ms",
                "p99_gain_vs_0",
            ],
        )],
    },
    Figure {
        name: "fig17",
        in_all: true,
        run: |scale, out| Ok(fig17::fig17(scale, out)),
        outputs: &[Output {
            stem: "fig17_seldrop_threshold",
            columns: &[
                "sel_drop_kb",
                "p99_small_ms",
                "avg_fct_ms",
                "avg_fct_degradation",
            ],
            charts: &[Chart {
                series: &[],
                x: "sel_drop_kb",
                y: &["avg_fct_degradation"],
                title: "Fig 17: selective-drop threshold trade-off",
                x_label: "threshold (kB)",
                y_label: "avg FCT degradation (fraction)",
            }],
        }],
    },
    Figure {
        name: "fig18",
        in_all: true,
        run: |scale, out| Ok(fig18::fig18(scale, out)),
        outputs: &[Output {
            stem: "fig18_wq_tradeoff",
            columns: &["wq", "legacy_p99_max_degradation", "p99_small_full_ms"],
            charts: &[Chart {
                series: &[],
                x: "wq",
                y: &["legacy_p99_max_degradation"],
                title: "Fig 18: w_q trade-off",
                x_label: "w_q",
                y_label: "legacy p99 degradation (fraction)",
            }],
        }],
    },
    Figure {
        name: "queue",
        in_all: true,
        run: |scale, out| Ok(queue_study::queue_study(scale, out)),
        outputs: &[table(
            "queue_study",
            &[
                "deploy_ratio",
                "q1_avg_kb",
                "q1_p90_kb",
                "q1_busy_avg_kb",
                "q1_busy_p90_kb",
                "q1_red_avg_kb",
                "q1_red_p90_kb",
                "q1_peak_kb",
                "red_drop_pkts",
                "redundancy_frac",
                "timeouts",
            ],
        )],
    },
    // This reproduction's design-choice study.
    Figure {
        name: "ablation",
        in_all: true,
        run: |scale, out| Ok(ablation::ablation(scale, out)),
        outputs: &[table(
            "ablation_design_choices",
            &[
                "variant",
                "deploy_ratio",
                "p99_small_upgraded_ms",
                "avg_upgraded_ms",
                "timeouts",
                "redundancy_frac",
            ],
        )],
    },
    // Explicit-only: the default point simulates a 10,240-host fabric.
    Figure {
        name: "scale",
        in_all: false,
        run: |scale, _| Ok(scale::scenario(scale)),
        outputs: &[table("scale_fct_sketch", SKETCH_COLUMNS)],
    },
    // Explicit-only: needs `--trace FILE`.
    Figure {
        name: "custom",
        in_all: false,
        run: custom::replay,
        outputs: &[table(
            "custom_trace",
            &[
                "flow_type",
                "flows",
                "avg_fct_ms",
                "p50_fct_ms",
                "p99_fct_ms",
                "max_fct_ms",
                "p99_small_ms",
            ],
        )],
    },
];

/// The table entries `--fig fig` selects, in table order: the `in_all`
/// ones for `all`, otherwise the one of that name (none if unknown).
pub fn selected(fig: &str) -> impl Iterator<Item = &'static Figure> + '_ {
    FIGURES.iter().filter(move |f| {
        if fig == "all" {
            f.in_all
        } else {
            f.name == fig
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    fn read(path: &str) -> String {
        std::fs::read_to_string(format!("{ROOT}/{path}")).expect("read the repository file")
    }

    fn names(fig: &str) -> Vec<&'static str> {
        selected(fig).map(|f| f.name).collect()
    }

    /// The stems of the outputs of the figures `fig` selects, sorted.
    fn stems(fig: &str) -> Vec<&'static str> {
        let mut stems: Vec<&str> = selected(fig)
            .flat_map(|f| f.outputs)
            .map(|o| o.stem)
            .collect();
        stems.sort_unstable();
        stems
    }

    /// The `<stem>` of every `<dir>/<stem>.csv` line of a checksum file, in
    /// file order (`sha256sum` sorted them).
    fn checksummed(path: &str) -> Vec<String> {
        read(path)
            .lines()
            .map(|line| {
                let file = line.rsplit('/').next().expect("a path");
                file.strip_suffix(".csv").expect("a csv").to_string()
            })
            .collect()
    }

    #[test]
    fn figure_names_and_stems_are_unique() {
        let mut seen: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), FIGURES.len());
        for selector in ["all", "none"] {
            assert!(!seen.contains(&selector), "`{selector}` is a selector");
        }
        let mut all_stems: Vec<&str> = FIGURES.iter().flat_map(|f| stems(f.name)).collect();
        let outputs = all_stems.len();
        all_stems.sort_unstable();
        all_stems.dedup();
        assert_eq!(all_stems.len(), outputs, "two outputs share a stem");
    }

    #[test]
    fn all_runs_the_in_all_entries_in_table_order() {
        assert_eq!(
            names("all"),
            [
                "fig1a", "fig1b", "fig5a", "fig5b", "fig7", "fig8", "fig9", "fig10", "fig11",
                "fig14", "fig15", "fig17", "fig18", "queue", "ablation"
            ]
        );
        assert_eq!(names("scale"), ["scale"]);
        assert_eq!(names("custom"), ["custom"]);
        assert_eq!(names("fig9"), ["fig9"]);
        assert!(names("fig16").is_empty());
        assert!(names("none").is_empty());
    }

    /// The table writes exactly the files CI checksums: `--fig all` the 21
    /// of `results/smoke.sha256`, `--fig scale` the one of
    /// `results/scale_smoke.sha256`.
    #[test]
    fn stems_are_the_checksummed_files() {
        assert_eq!(stems("all"), checksummed("results/smoke.sha256"));
        assert_eq!(stems("all").len(), 21);
        assert_eq!(stems("scale"), checksummed("results/scale_smoke.sha256"));
    }

    #[test]
    fn charts_plot_columns_their_output_has() {
        for out in FIGURES.iter().flat_map(|f| f.outputs) {
            for chart in out.charts {
                assert!(!chart.y.is_empty(), "{}: a chart without y", out.stem);
                let named = chart.series.iter().chain([&chart.x]).chain(chart.y);
                for column in named {
                    assert!(
                        out.columns.contains(column),
                        "{}: chart column `{column}` is not in {:?}",
                        out.stem,
                        out.columns
                    );
                }
            }
        }
    }

    /// The driver's header check: a figure whose table is not under its
    /// output's columns is refused before anything is written.
    #[test]
    #[should_panic(expected = "stem.csv: header")]
    fn a_table_under_the_wrong_header_is_refused() {
        const WRONG: Figure = Figure {
            name: "wrong",
            in_all: false,
            run: |_, _| Ok(vec![Csv::new(&["a", "c"])]),
            outputs: &[table("stem", &["a", "b"])],
        };
        let _ = WRONG.run(RunScale::Smoke);
    }

    /// Every figure name a text prints after `--fig ` (placeholders such
    /// as `NAME` excluded).
    fn advertised(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for line in text.lines() {
            let mut rest = line;
            while let Some(at) = rest.find("--fig ") {
                rest = &rest[at + "--fig ".len()..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && !name.chars().all(|c| c.is_ascii_uppercase()) {
                    out.push(name);
                }
            }
        }
        out
    }

    /// Every `` `<stem>.csv` `` a text prints in backticks.
    fn printed_stems(text: &str) -> Vec<&str> {
        text.split('`')
            .filter_map(|token| token.strip_suffix(".csv"))
            .filter(|stem| {
                let plain = |c: char| c.is_ascii_alphanumeric() || c == '_';
                !stem.is_empty() && stem.chars().all(plain)
            })
            .collect()
    }

    /// A document cannot advertise a figure the binary rejects or a file it
    /// does not write: every name README.md, DESIGN.md and EXPERIMENTS.md
    /// print after `--fig`, every name in the first column of README's
    /// `--fig` table, and every `<stem>.csv` they print is in [`FIGURES`].
    #[test]
    fn documented_figures_exist() {
        let all_stems: Vec<&str> = FIGURES.iter().flat_map(|f| stems(f.name)).collect();
        let (mut checked, mut files) = (0, 0);
        for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
            let text = read(doc);
            let mut wanted = advertised(&text);
            if doc == "README.md" {
                // Rows of the `| `--fig` | Paper figure | Output |` table.
                let rows = text
                    .lines()
                    .skip_while(|l| !l.starts_with("| `--fig` |"))
                    .skip(2)
                    .take_while(|l| l.starts_with('|'));
                for row in rows {
                    let cell = row.split('|').nth(1).expect("first column");
                    wanted.extend(cell.split('`').skip(1).step_by(2).map(str::to_string));
                }
            }
            for name in wanted {
                assert!(
                    name == "all" || name == "none" || names(&name) == [name.as_str()],
                    "{doc} advertises `--fig {name}`, which the binary rejects"
                );
                checked += 1;
            }
            for stem in printed_stems(&text) {
                assert!(
                    all_stems.contains(&stem),
                    "{doc} prints `{stem}.csv`, which no figure writes"
                );
                files += 1;
            }
        }
        assert!(checked >= FIGURES.len(), "only {checked} names found");
        assert!(files >= 15, "only {files} file names found");
    }
}
