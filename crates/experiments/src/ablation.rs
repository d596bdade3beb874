//! Ablation study of FlexPass's design choices (DESIGN.md calls these out;
//! the paper motivates each in §4.2–4.3 but does not isolate them):
//!
//! * **proactive retransmission** (the Lost → Pending → Sent-as-reactive
//!   credit priority) — without it, reactive tail losses wait for timers;
//! * **first-RTT reactive transmission** — without it, FlexPass waits a
//!   full RTT for credits like plain ExpressPass;
//! * **credit allocation policy** — ExpressPass feedback vs pHost-style
//!   fixed-rate tokens (§4.3 extensibility).

use flexpass::config::{CreditPolicy, FlexPassConfig};
use flexpass::schemes::{Scheme, TAG_UPGRADED};
use flexpass_metrics::Recorder;

use crate::csvout::{f, Csv};
use crate::orchestrate::{self, Task};
use crate::runner::{RunScale, ScenarioResult};
use crate::sweep::{run_spec_point, SweepSpec};

/// One ablation variant.
struct Variant {
    name: &'static str,
    cfg: FlexPassConfig,
}

fn variants() -> Vec<Variant> {
    let base = FlexPassConfig::new(0.5);
    vec![
        Variant {
            name: "full",
            cfg: base,
        },
        Variant {
            name: "no_proactive_retx",
            cfg: FlexPassConfig {
                proactive_retx: false,
                ..base
            },
        },
        Variant {
            name: "no_first_rtt",
            cfg: FlexPassConfig {
                reactive_first_rtt: false,
                ..base
            },
        },
        Variant {
            name: "fixed_rate_credits",
            cfg: FlexPassConfig {
                credit_policy: CreditPolicy::FixedRate,
                ..base
            },
        },
    ]
}

/// Runs one FlexPass variant at `ratio` deployment; returns
/// `(p99 small upgraded, avg upgraded, timeouts, redundancy)`.
fn run_variant(cfg: FlexPassConfig, ratio: f64, scale: RunScale) -> (f64, f64, u64, f64) {
    let spec = SweepSpec {
        seed: 61,
        n_flows: SweepSpec::reduced_flows(scale),
        ..SweepSpec::fig10(scale)
    };
    let rec = run_spec_point(
        Scheme::FlexPass,
        ratio,
        &spec,
        13,
        cfg,
        Recorder::new(),
        None,
    );
    (
        rec.p99_small(Some(TAG_UPGRADED)),
        rec.avg_fct(Some(TAG_UPGRADED)),
        rec.total_timeouts(),
        rec.redundancy_fraction(),
    )
}

/// The ablation table: each design choice toggled off, at 50 % and 100 %
/// deployment.
pub fn ablation(scale: RunScale) -> ScenarioResult {
    let mut csv = Csv::new(&[
        "variant",
        "deploy_ratio",
        "p99_small_upgraded_ms",
        "avg_upgraded_ms",
        "timeouts",
        "redundancy_frac",
    ]);
    let ratios = [0.5, 1.0];
    let mut tasks: Vec<Task<(f64, f64, u64, f64)>> = Vec::new();
    for v in variants() {
        for &ratio in &ratios {
            let cfg = v.cfg;
            tasks.push(Task::new(format!("{}:r{ratio:.2}", v.name), move || {
                run_variant(cfg, ratio, scale)
            }));
        }
    }
    let mut results = orchestrate::run_tasks("ablation", tasks).into_iter();
    for v in variants() {
        for &ratio in &ratios {
            match results.next().expect("one result per (variant, ratio)") {
                Ok((p99, avg, timeouts, red)) => csv.row(&[
                    v.name.into(),
                    format!("{ratio:.2}"),
                    f(p99 * 1e3),
                    f(avg * 1e3),
                    timeouts.to_string(),
                    f(red),
                ]),
                Err(_) => csv.row(&[
                    v.name.into(),
                    format!("{ratio:.2}"),
                    f(f64::NAN),
                    f(f64::NAN),
                    "nan".into(),
                    f(f64::NAN),
                ]),
            }
        }
    }
    ScenarioResult::new("ablation_design_choices", csv)
}
