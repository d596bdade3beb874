//! The figure table: everything that describes a figure, once.
//!
//! A [`Figure`] is one `--fig` name. It owns whether `--fig all` includes
//! it, the function that runs it, and its [`Output`]s — per CSV the file
//! stem, the column list, and the [`Chart`]s `--plot` draws from it. The
//! figure modules take their headers from here (`Csv::new(out[0].columns)`)
//! and return their tables in output order; [`Figure::run`] pairs each table
//! with its output and refuses one whose header is not the output's column
//! list. [`crate::plot::plot_results`] walks the same outputs, a figure's
//! [`Claim`]s read them ([`crate::claims::evaluate`]), and the tests below
//! hold the table against the committed checksums and the documents.

use crate::claims::Claim;
use crate::csvout::Csv;
use crate::runner::RunScale;
use crate::{custom, fig1, fig7, fig8, fig9, queue_study, scale, sweep};

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
    /// What the paper claims about it, read from those CSVs.
    pub claims: &'static [Claim],
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
        claims: paper::FIG1A,
    },
    Figure {
        name: "fig1b",
        in_all: true,
        run: |_, out| Ok(fig1::fig1b(out)),
        outputs: &[table(
            "fig1b_homa_vs_dctcp",
            &["time_ms", "dctcp_gbps", "homa_gbps"],
        )],
        claims: paper::FIG1B,
    },
    Figure {
        name: "fig5a",
        in_all: true,
        run: |scale, out| Ok(sweep::fig5a(scale, out)),
        outputs: &[table(
            "fig5a_rc3_split",
            &["variant", "deploy_ratio", "p99_small_ms", "reorder_mean_kb"],
        )],
        claims: paper::FIG5A,
    },
    Figure {
        name: "fig5b",
        in_all: true,
        run: |scale, out| Ok(sweep::fig5b(scale, out)),
        outputs: &[table(
            "fig5b_alt_queueing",
            &["variant", "deploy_ratio", "p99_small_ms"],
        )],
        claims: paper::FIG5B,
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
        claims: paper::FIG7,
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
        claims: paper::FIG8,
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
        claims: paper::FIG9,
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
        claims: paper::FIG10,
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
        claims: &[],
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
        claims: &[],
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
        claims: paper::FIG15,
    },
    Figure {
        name: "fig17",
        in_all: true,
        run: |scale, out| Ok(sweep::fig17(scale, out)),
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
        claims: paper::FIG17,
    },
    Figure {
        name: "fig18",
        in_all: true,
        run: |scale, out| Ok(sweep::fig18(scale, out)),
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
        claims: paper::FIG18,
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
        claims: paper::QUEUE,
    },
    // This reproduction's design-choice study.
    Figure {
        name: "ablation",
        in_all: true,
        run: |scale, out| Ok(sweep::ablation(scale, out)),
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
        claims: paper::ABLATION,
    },
    // Explicit-only: the default point simulates a 10,240-host fabric.
    Figure {
        name: "scale",
        in_all: false,
        run: |scale, _| Ok(scale::scenario(scale)),
        outputs: &[table("scale_fct_sketch", SKETCH_COLUMNS)],
        claims: &[],
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
        claims: &[],
    },
];

/// The paper's claims, per figure. Each tolerance follows from the paper's
/// value by one rule per kind, never from the measurement: a testbed share
/// ±0.5 Gbps (5 % of the 10 G link), a fraction of time ±0.05 (one the paper
/// puts under 1 % is bounded at 0.01), a count or an ordering exactly,
/// "flat" within 5 %, any other number ± a quarter of itself (of the change,
/// for a relative change: `0.56x` is −44 %). A `DirectionOnly` row bounds a
/// direction, so its bound is not the rule's. A claim that misses is
/// `KnownDeviation`, and EXPERIMENTS.md says why.
#[rustfmt::skip]
mod paper {
    use crate::claims::Class::{DirectionOnly, KnownDeviation, Reproduced};
    use crate::claims::Cmp::{self, AtLeast, AtMost, Near};
    use crate::claims::Fold::{self, Fall, Max, Min, One, Rise, Steady};
    use crate::claims::{Claim, Class, Key, Read, Stat};

    const fn claim(id: &'static str, paper: &'static str, class: Class, cmp: Cmp, stat: Stat) -> Claim {
        Claim { id, paper, class, cmp, stat }
    }
    /// `column` of the rows of output `stem` that match `key`, folded.
    const fn read(fold: Fold, stem: &'static str, key: Key, column: &'static str) -> Read {
        Read { stem, key, column, fold }
    }
    const fn of(fold: Fold, stem: &'static str, key: Key, column: &'static str) -> Stat {
        Stat::Of(read(fold, stem, key, column))
    }
    /// The steady state of `column` of the time series `stem`.
    const fn steady(stem: &'static str, column: &'static str) -> Read {
        read(Steady, stem, &[], column)
    }
    /// `column` of output `stem`'s row `num` over that of its row `den`.
    const fn versus(stem: &'static str, column: &'static str, num: Key, den: Key) -> Stat {
        Stat::Ratio([read(One, stem, num, column), read(One, stem, den, column)])
    }
    /// FlexPass's upgraded small-flow p99 over its legacy one at a ratio.
    const fn upgraded_over_legacy(ratio: Key) -> Stat {
        let stem = "fig12_p99_by_type";
        Stat::Ratio([read(One, stem, ratio, "p99_small_upgraded_ms"), read(One, stem, ratio, "p99_small_legacy_ms")])
    }

    type Pair = (&'static str, &'static str);
    const FP: Pair = ("scheme", "flexpass");
    const NAIVE: Pair = ("scheme", "naive");
    const LY: Pair = ("scheme", "ly");
    const R0: Pair = ("deploy_ratio", "0.00");
    const R25: Pair = ("deploy_ratio", "0.25");
    const R50: Pair = ("deploy_ratio", "0.50");
    const R75: Pair = ("deploy_ratio", "0.75");
    const R100: Pair = ("deploy_ratio", "1.00");
    const DCTCP: Pair = ("transport", "dctcp");
    const N96: Pair = ("n_flows", "96");
    const FULL: Pair = ("variant", "full");
    const SWEEP: &str = "fig10_sweep";
    const P99: &str = "p99_small_all_ms";
    const DESIGN_CHOICES: &str = "ablation_design_choices";
    const UPGRADED_P99: &str = "p99_small_upgraded_ms";
    const ONE_FP: &str = "fig7a_one_flexpass";

    pub(super) const FIG1A: &[Claim] = &[
        claim("dctcp_share", "DCTCP ≈ 0.5 Gbps (5 % of 10 G)", Reproduced, AtMost(0.5, 0.5),
            of(Steady, "fig1a_ep_vs_dctcp", &[], "dctcp_gbps")),
    ];
    pub(super) const FIG1B: &[Claim] = &[
        claim("dctcp_share", "DCTCP ≈ 0.5 Gbps (5 % of 10 G)", Reproduced, AtMost(0.5, 0.5),
            of(Steady, "fig1b_homa_vs_dctcp", &[], "dctcp_gbps")),
    ];
    pub(super) const FIG5A: &[Claim] = &[
        claim("rc3_reorder_buffer", "RC3 needs a much larger buffer (≥ 2x)", Reproduced, AtLeast(2.0, 0.0),
            versus("fig5a_rc3_split", "reorder_mean_kb", &[("variant", "rc3_split"), R100], &[("variant", "flexpass"), R100])),
    ];
    pub(super) const FIG5B: &[Claim] = &[
        claim("alt_queueing_p99", "alternative queueing p99 above FlexPass", KnownDeviation, AtMost(1.0, 0.0),
            versus("fig5b_alt_queueing", "p99_small_ms", &[("variant", "flexpass"), R50], &[("variant", "alternative"), R50])),
    ];
    pub(super) const FIG7: &[Claim] = &[
        claim("a_proactive_over_reactive", "each ≈ half the link (1x)", Reproduced, Near(1.0, 0.25),
            Stat::Ratio([steady(ONE_FP, "proactive_gbps"), steady(ONE_FP, "reactive_gbps")])),
        claim("b_reactive", "reactive ≈ 0 Gbps", KnownDeviation, AtMost(0.0, 0.5),
            of(Steady, "fig7b_two_flexpass", &[], "reactive_gbps")),
        claim("c_reactive", "reactive ≈ 0 Gbps", Reproduced, AtMost(0.0, 0.5),
            of(Steady, "fig7c_dctcp_flexpass", &[], "reactive_gbps")),
        claim("a_proactive_share", "proactive ≈ half (bound: 3.5–5.5 Gbps)", DirectionOnly, Near(4.5, 1.0),
            of(Steady, ONE_FP, &[], "proactive_gbps")),
        claim("a_reactive_share", "reactive fills the other half (5 Gbps)", Reproduced, Near(5.0, 0.5),
            of(Steady, ONE_FP, &[], "reactive_gbps")),
        claim("a_link_full", "together they fill the link (bound: 8.5 Gbps)", DirectionOnly, AtLeast(8.5, 0.0),
            Stat::Sum([steady(ONE_FP, "proactive_gbps"), steady(ONE_FP, "reactive_gbps")])),
        claim("c_dctcp_share", "DCTCP ≈ half the link (5 Gbps)", Reproduced, Near(5.0, 0.5),
            of(Steady, "fig7c_dctcp_flexpass", &[], "dctcp_gbps")),
        claim("c_proactive_share", "FlexPass's half is proactive (bound: 3.5–6 Gbps)", DirectionOnly, Near(4.75, 1.25),
            of(Steady, "fig7c_dctcp_flexpass", &[], "proactive_gbps")),
    ];
    pub(super) const FIG8: &[Claim] = &[
        claim("credit_timeouts", "EP/FlexPass: 0 at every fan-in", Reproduced, AtMost(0.0, 0.0),
            of(Max, "fig8_incast", &[("transport", "expresspass|flexpass")], "timeouts")),
        claim("dctcp_timeouts", "DCTCP times out beyond 48 flows", DirectionOnly, AtLeast(1.0, 0.0),
            of(Max, "fig8_incast", &[DCTCP], "timeouts")),
        claim("fp_max_fct_vs_dctcp", "up to -83.5 % (0.165x)", KnownDeviation, Near(0.165, 0.21),
            versus("fig8_incast", "max_fct_ms", &[("transport", "flexpass"), N96], &[DCTCP, N96])),
    ];
    pub(super) const FIG9: &[Claim] = &[
        claim("ep_dctcp_share", "DCTCP 0.93 Gbps (9.3 %)", Reproduced, Near(0.93, 0.5),
            of(Steady, "fig9a_ep_vs_dctcp", &[], "dctcp_gbps")),
        claim("fp_dctcp_share", "DCTCP 5.1 Gbps (51 %)", Reproduced, Near(5.1, 0.5),
            of(Steady, "fig9b_fp_vs_dctcp", &[], "dctcp_gbps")),
        claim("ep_dctcp_starved", "96.86 % of the time", Reproduced, Near(0.9686, 0.05),
            of(One, "fig9c_starvation", &[("scheme", "expresspass")], "dctcp_starved_frac")),
        claim("fp_dctcp_starved", "0.08 % of the time", Reproduced, AtMost(0.01, 0.0),
            of(One, "fig9c_starvation", &[FP], "dctcp_starved_frac")),
        claim("ep_share", "ExpressPass 9.07 Gbps (90.7 %)", Reproduced, Near(9.07, 0.5),
            of(Steady, "fig9a_ep_vs_dctcp", &[], "expresspass_gbps")),
        claim("fp_share", "FlexPass 4.8 Gbps (48 %)", Reproduced, Near(4.8, 0.5),
            of(Steady, "fig9b_fp_vs_dctcp", &[], "flexpass_gbps")),
        claim("fp_new_starved", "FlexPass never starved (< 1 %)", Reproduced, AtMost(0.01, 0.0),
            of(One, "fig9c_starvation", &[FP], "new_starved_frac")),
    ];
    pub(super) const FIG10: &[Claim] = &[
        claim("fp_tail_cut_at_100", "p99 small -44 % (0.56x)", Reproduced, Near(0.56, 0.11),
            versus(SWEEP, P99, &[FP, R100], &[FP, R0])),
        claim("fp_avg_flat", "avg FCT: nearly no harm (1x)", Reproduced, AtMost(1.0, 0.05),
            Stat::Ratio([read(Max, SWEEP, &[FP], "avg_all_ms"), read(One, SWEEP, &[FP, R0], "avg_all_ms")])),
        claim("naive_legacy_inflation", "legacy p99 up to +87 % (1.87x)", DirectionOnly, AtLeast(1.0, 0.0),
            Stat::Ratio([
                read(Max, "fig12_p99_by_type", &[NAIVE, ("deploy_ratio", "0.25|0.50|0.75")], "p99_small_legacy_ms"),
                read(One, "fig12_p99_by_type", &[NAIVE, R0], "p99_small_legacy_ms"),
            ])),
        claim("naive_tail_at_100", "p99 small -31 % (0.69x)", KnownDeviation, Near(0.69, 0.0775),
            versus(SWEEP, P99, &[NAIVE, R100], &[NAIVE, R0])),
        claim("ly_never_wins", "layering never beats the baseline", Reproduced, AtLeast(1.0, 0.0),
            Stat::Ratio([read(Min, SWEEP, &[LY, ("deploy_ratio", "0.25|0.50|0.75|1.00")], P99), read(One, SWEEP, &[LY, R0], P99)])),
        claim("fp_upgraded_vs_legacy_r0.25", "upgraded p99 below legacy", Reproduced, AtMost(1.0, 0.0),
            upgraded_over_legacy(&[FP, R25])),
        claim("fp_upgraded_vs_legacy_r0.50", "upgraded p99 below legacy", Reproduced, AtMost(1.0, 0.0),
            upgraded_over_legacy(&[FP, R50])),
        claim("fp_upgraded_vs_legacy_r0.75", "upgraded p99 below legacy", Reproduced, AtMost(1.0, 0.0),
            upgraded_over_legacy(&[FP, R75])),
        claim("legacy_stddev_fp_vs_naive", "legacy σ at 50 %: +19 % vs +127 %", DirectionOnly, AtMost(1.0, 0.0),
            versus("fig13_stddev_by_type", "stddev_small_legacy_ms", &[FP, R50], &[NAIVE, R50])),
        claim("fp_zero_timeouts", "FlexPass: 0 timeouts", Reproduced, AtMost(0.0, 0.0),
            of(Max, SWEEP, &[FP], "timeouts")),
        claim("fp_small_stddev_at_100", "small-flow σ below the baseline's", DirectionOnly, AtMost(1.0, 0.0),
            versus(SWEEP, "stddev_small_all_ms", &[FP, R100], &[FP, R0])),
        claim("fp_legacy_tail_at_50", "legacy p99 protected (bound: 2.5x)", DirectionOnly, AtMost(2.5, 0.0),
            versus("fig12_p99_by_type", "p99_small_legacy_ms", &[FP, R50], &[FP, R0])),
    ];
    pub(super) const FIG15: &[Claim] = &[
        claim("fp_gain_every_workload", "p99 gain > 0 everywhere (up to 63 %)", Reproduced, AtLeast(0.0, 0.0),
            of(Min, "fig15_16_workloads", &[FP, R100], "p99_gain_vs_0")),
        claim("others_never_gain", "FlexPass the only scheme that gains", Reproduced, AtMost(0.0, 0.0),
            of(Max, "fig15_16_workloads", &[("scheme", "naive|owf|ly"), R100], "p99_gain_vs_0")),
    ];
    pub(super) const FIG17: &[Claim] = &[
        claim("avg_worse_at_lower_threshold", "lower threshold, worse avg FCT", Reproduced, AtMost(0.0, 0.0),
            of(Rise, "fig17_seldrop_threshold", &[], "avg_fct_degradation")),
        claim("p99_better_at_lower_threshold", "lower threshold, better p99", KnownDeviation, AtMost(0.0, 0.0),
            of(Fall, "fig17_seldrop_threshold", &[], "p99_small_ms")),
    ];
    pub(super) const FIG18: &[Claim] = &[
        claim("legacy_insensitive_to_wq", "insensitive (bound: naive's +72 %)", DirectionOnly, AtMost(0.72, 0.0),
            of(Max, "fig18_wq_tradeoff", &[], "legacy_p99_max_degradation")),
    ];
    pub(super) const QUEUE: &[Claim] = &[
        claim("zero_timeouts", "0 timeouts", Reproduced, AtMost(0.0, 0.0),
            of(Max, "queue_study", &[], "timeouts")),
        claim("q1_avg_kb_at_100", "22.0 kB", Reproduced, Near(22.0, 5.5),
            of(One, "queue_study", &[R100], "q1_busy_avg_kb")),
        claim("q1_p90_kb_at_100", "73.9 kB", Reproduced, Near(73.9, 18.475),
            of(One, "queue_study", &[R100], "q1_busy_p90_kb")),
        claim("q1_avg_kb_at_50", "10.6 kB", KnownDeviation, Near(10.6, 2.65),
            of(One, "queue_study", &[R50], "q1_busy_avg_kb")),
        claim("redundancy_at_50", "0.7 % of volume", Reproduced, AtMost(0.007, 0.00175),
            of(One, "queue_study", &[R50], "redundancy_frac")),
    ];
    pub(super) const ABLATION: &[Claim] = &[
        claim("no_proactive_retx_p99", "§4.2: retx spares reactive losses an RTO", DirectionOnly, AtLeast(1.0, 0.0),
            versus(DESIGN_CHOICES, UPGRADED_P99, &[("variant", "no_proactive_retx"), R100], &[FULL, R100])),
        claim("no_first_rtt_avg", "§4.1: first-RTT reactive skips the ramp-up", DirectionOnly, AtLeast(1.0, 0.0),
            versus(DESIGN_CHOICES, "avg_upgraded_ms", &[("variant", "no_first_rtt"), R50], &[FULL, R50])),
        claim("fixed_rate_credits_p99", "§4.3: another allocator works (1x)", Reproduced, Near(1.0, 0.25),
            versus(DESIGN_CHOICES, UPGRADED_P99, &[("variant", "fixed_rate_credits"), R50], &[FULL, R50])),
    ];
}

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
    use crate::claims::Key;

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

    /// Every column a chart or a claim reads (a claim's key columns too) is
    /// declared by its output, a claim's output is one of its own figure's
    /// — so a claim skipped for a missing CSV is one whose figure did not
    /// run — and no claim reads a type at a ratio without such flows.
    #[test]
    fn charts_and_claims_read_columns_their_output_has() {
        let declared = |out: &Output, column: &&str| {
            assert!(out.columns.contains(column), "{}: no `{column}`", out.stem);
        };
        for figure in FIGURES {
            for out in figure.outputs {
                for chart in out.charts {
                    assert!(!chart.y.is_empty(), "{}: a chart without y", out.stem);
                    let named = chart.series.iter().chain([&chart.x]).chain(chart.y);
                    named.for_each(|column| declared(out, column));
                }
            }
            for claim in figure.claims {
                let ids = figure.claims.iter().filter(|c| c.id == claim.id).count();
                assert_eq!(ids, 1, "{}: two claims {}", figure.name, claim.id);
                for read in claim.stat.reads() {
                    let empty = reads_an_empty_population(read.key, read.column);
                    assert!(!empty, "{}: {read:?}", claim.id);
                    let out = figure.outputs.iter().find(|o| o.stem == read.stem);
                    let out = out.unwrap_or_else(|| panic!("{}: no {}", figure.name, read.stem));
                    let named = read.key.iter().map(|(c, _)| c).chain([&read.column]);
                    named.for_each(|column| declared(out, column));
                }
            }
        }
        assert!(FIGURES.iter().flat_map(|f| f.claims).count() >= 12);
    }

    /// Whether a claim reading `column` of the rows `key` selects may read
    /// a per-type cell at a ratio where that type has no flows: the sweep
    /// tables print `0.000000` for the upgraded flows at ratio 0.00 and the
    /// legacy flows at 1.00.
    fn reads_an_empty_population(key: Key, column: &str) -> bool {
        let empty_at = match column {
            c if c.contains("_upgraded") => "0.00",
            c if c.contains("_legacy") => "1.00",
            _ => return false,
        };
        let ratios = key.iter().find(|(c, _)| *c == "deploy_ratio");
        ratios.is_none_or(|(_, v)| v.split('|').any(|r| r == empty_at))
    }

    #[test]
    fn a_claim_on_an_empty_population_is_refused() {
        let refused = reads_an_empty_population;
        assert!(refused(
            &[("deploy_ratio", "0.00")],
            "p99_small_upgraded_ms"
        ));
        assert!(refused(&[("deploy_ratio", "0.50|1.00")], "avg_legacy_ms"));
        assert!(refused(&[("scheme", "flexpass")], "avg_upgraded_ms"));
        assert!(!refused(&[("deploy_ratio", "0.00")], "avg_legacy_ms"));
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
            claims: &[],
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
    /// `--fig` table, and every `<stem>.csv` they print is in [`FIGURES`]
    /// — or is `claims.csv`, the one file the binary writes for no figure.
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
                    stem == "claims" || all_stems.contains(&stem),
                    "{doc} prints `{stem}.csv`, which no figure writes"
                );
                files += 1;
            }
        }
        assert!(checked >= FIGURES.len(), "only {checked} names found");
        assert!(files >= 15, "only {files} file names found");
    }
}
