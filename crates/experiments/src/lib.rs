//! Experiment harness reproducing every table and figure of the FlexPass
//! paper (EuroSys '23).
//!
//! Each scenario module supplies the workload, switch configuration and
//! schemes of one paper figure and returns its tables. What a figure *is*
//! — its `--fig` name, the CSV stems it writes, their columns, the charts
//! drawn from them — is one row of [`figures::FIGURES`]; the modules take
//! their headers from it, the `flexpass-experiments` binary dispatches
//! `--fig NAME` through it and writes what comes back, and [`plot`] walks
//! the same rows, whose paper claims [`claims::evaluate`] checks into
//! `claims.csv`. `EXPERIMENTS.md`'s paper-vs-measured is rendered from it.
//!
//! Three more pieces are shared by every scenario and exist once:
//! [`sweep::build_point`] builds a deployment point on the Clos (the
//! rollout figures differ only in its arguments and in the fields of a
//! [`sweep::SweepSpec`] they override), [`runner::run`] drives an engine
//! to a [`runner::Stop`] condition, and [`orchestrate::grid`] fans a
//! figure's points across the worker pool — keys in, `(key, result)` back
//! in key order, a failed point `None` — installing each cell's progress
//! probe and packet tracer on the worker thread.
//!
//! | Module | Paper figure | What it reproduces |
//! |--------|--------------|--------------------|
//! | [`fig1`] | Fig. 1 (a, b) | ExpressPass / Homa starving DCTCP on a shared 10 G link; the long-flow testbed helpers figures 7 and 9 reuse |
//! | [`fig7`] | Fig. 7 (a–c) | per-sub-flow throughput on the testbed topology |
//! | [`fig8`] | Fig. 8 | incast tail FCT vs number of flows |
//! | [`fig9`] | Fig. 9 (a–c) | coexistence throughput + starvation time |
//! | [`sweep`] | Figs. 5, 10–18, ablation | [`sweep::build_point`] and every Clos rollout as sweeps: schemes, loads, workloads, thresholds, w_q, FlexPass design variants and ablations |
//! | [`queue_study`] | §6.2 text | bounded-queue occupancy and redundancy fraction |
//! | [`scale`] | (extension) | O(10k)-host Clos with streaming (bounded-memory) FCT sketches |
//! | [`custom`] | (extension) | replay of a user flow trace under any scheme, ratio or w_q |

pub mod claims;
pub mod csvout;
pub mod custom;
pub mod fig1;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod figures;
pub mod orchestrate;
pub mod plot;
pub mod queue_study;
pub mod runner;
pub mod scale;
pub mod sweep;
pub mod tracecfg;

pub use runner::RunScale;
