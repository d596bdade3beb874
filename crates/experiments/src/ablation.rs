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
use flexpass::schemes::TAG_UPGRADED;

use crate::csvout::{count, f, Csv};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::RunScale;
use crate::sweep::run_variant;

/// The ablation variants: the full design, then each choice toggled off.
fn variants() -> [(&'static str, FlexPassConfig); 4] {
    let base = FlexPassConfig::new(0.5);
    let no_proactive_retx = FlexPassConfig {
        proactive_retx: false,
        ..base
    };
    let no_first_rtt = FlexPassConfig {
        reactive_first_rtt: false,
        ..base
    };
    let fixed_rate_credits = FlexPassConfig {
        credit_policy: CreditPolicy::FixedRate,
        ..base
    };
    [
        ("full", base),
        ("no_proactive_retx", no_proactive_retx),
        ("no_first_rtt", no_first_rtt),
        ("fixed_rate_credits", fixed_rate_credits),
    ]
}

/// The ablation table: each design choice toggled off, at 50 % and 100 %
/// deployment.
pub fn ablation(scale: RunScale, out: &[Output]) -> Vec<Csv> {
    let keys = variants()
        .iter()
        .flat_map(|&(name, cfg)| [0.5, 1.0].map(|ratio| (name, cfg, ratio)))
        .collect();
    let cells = grid(
        "ablation",
        keys,
        |(name, _, ratio)| format!("{name}:r{ratio:.2}"),
        |&(_, cfg, ratio)| {
            let rec = run_variant(cfg, ratio, scale, 61, 13);
            [
                rec.p99_small(Some(TAG_UPGRADED)),
                rec.avg_fct(Some(TAG_UPGRADED)),
                rec.total_timeouts() as f64,
                rec.redundancy_fraction(),
            ]
        },
    );
    let mut csv = Csv::new(out[0].columns);
    for ((name, _, ratio), cell) in cells {
        let [p99, avg, timeouts, redundancy] = or_nan(cell);
        csv.row([
            name.into(),
            format!("{ratio:.2}"),
            f(p99 * 1e3),
            f(avg * 1e3),
            count(timeouts),
            f(redundancy),
        ]);
    }
    vec![csv]
}
