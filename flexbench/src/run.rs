//! One benchmark run: one workload, one seed, one process.
//!
//! An untraced run repeats the workload's unit for the measuring time and
//! reports the fastest `wall_s` and the median `setup_s`. A traced run alternates
//! untraced and traced repetitions, adds an audited one and every
//! micro-driver, and reports the per-layer metrics; end-to-end numbers
//! never come from it.

use std::path::Path;

use flexpass_simcore::mem;

use crate::clock;
use crate::layers;
use crate::metrics::{self, Decl, END_TO_END};
use crate::spans::Spans;
use crate::stats::{fastest, median};
use crate::units::{UnitResult, Workload};

/// Untraced/traced repetition pairs of a traced run.
const TRACE_PAIRS: usize = 2;

/// What a run reports: the contract's result line plus the digest.
#[derive(Debug)]
pub struct RunReport {
    /// Every check passed.
    pub correct: bool,
    /// Flows offered over all repetitions.
    pub attempted: u64,
    /// Flows failed over all repetitions.
    pub failed: u64,
    /// The metrics of this run's mode, with units.
    pub metrics: Vec<(Decl, f64)>,
    /// The digest every repetition agreed on (the first one's otherwise).
    pub digest: String,
    /// Failed checks, by name.
    pub failures: Vec<String>,
}

impl RunReport {
    fn from_units(units: &[UnitResult]) -> RunReport {
        let digest = units[0].digest.clone();
        let mut failures: Vec<String> = units
            .iter()
            .filter_map(|u| u.failed_check.clone())
            .collect();
        if let Some(other) = units.iter().find(|u| u.digest != digest) {
            failures.push(format!(
                "digest differs between repetitions: {digest} vs {}",
                other.digest
            ));
        }
        RunReport {
            correct: false,
            attempted: units.iter().map(|u| u.offered).sum(),
            failed: units.iter().map(|u| u.failed).sum(),
            metrics: Vec::new(),
            digest,
            failures,
        }
    }

    fn finish(mut self) -> RunReport {
        self.correct = self.failures.is_empty() && self.failed == 0;
        self
    }

    /// The result line the driver reads.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                // JSON has no NaN or infinity; a metric that could not be
                // taken reads 0.
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn peak_rss_mb() -> f64 {
    mem::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// Repeats the unit until `seconds` of host time have been measured.
/// Set-up is repeated with every unit and `setup_s` is the median of them.
///
/// `wall_s` is the fastest repetition's. The simulator is deterministic
/// and single-threaded, so repetitions of one seed execute the same
/// instructions and differ only by what the host adds: on the 2-core VM
/// this was sized on a pointer-chasing loop wandered ±10 % over minutes
/// while an ALU loop held ±2 % — memory contention from outside, in bursts
/// of tens of seconds. The minimum discards it where a median over the two
/// to nine repetitions a run fits cannot (spread over ten runs: 4–7 %
/// against 6–10 %).
///
/// Peak RSS is read after the first repetition, while the heap is what a
/// single simulation leaves: later repetitions reuse and fragment it, and
/// how many of them fit into `seconds` would otherwise show in the figure.
pub fn untraced(w: Workload, seed: u64, seconds: f64) -> RunReport {
    let t0 = clock::now_ns();
    let mut units = vec![w.run_unit(seed, false, &mut Spans::off())];
    let rss_mb = peak_rss_mb();
    while clock::secs_since(t0) < seconds {
        units.push(w.run_unit(seed, false, &mut Spans::off()));
    }
    let column = |f: fn(&UnitResult) -> f64| units.iter().map(f).collect::<Vec<_>>();
    let (walls, setups) = (column(|u| u.wall_s), column(|u| u.setup_s));
    eprintln!(
        "{} repetitions: wall_s {walls:.3?} setup_s {setups:.4?}",
        units.len()
    );
    let mut report = RunReport::from_units(&units);
    if !rss_mb.is_finite() {
        report.failures.push("peak RSS is not readable".to_string());
    }
    let [wall, setup, rss] = END_TO_END;
    report.metrics = vec![
        (wall, fastest(&walls)),
        (setup, median(&setups)),
        (rss, rss_mb),
    ];
    report.finish()
}

/// Untraced and traced repetitions in alternation, one audited
/// repetition, then the micro-drivers. Writes the spans to
/// `<out>/<workload>/trace.json`.
///
/// One repetition's `wall_s` wanders by a few percent on its own, more
/// than recording a dozen spans can cost; the overhead is therefore taken
/// between the fastest of [`TRACE_PAIRS`] repetitions on each side.
pub fn traced(w: Workload, seed: u64, out: &Path) -> std::io::Result<RunReport> {
    let mut spans = Spans::on();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        plain.push(w.run_unit(seed, false, &mut Spans::off()));
        traced.push(w.run_unit(seed, false, &mut spans));
    }
    let audited = w.run_unit(seed, true, &mut Spans::off());
    let layers = layers::run_all();

    let dir = out.join(w.name());
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("trace.json"), spans.to_json())?;

    let fastest_unit = |units: &[UnitResult]| {
        let walls = units.iter().map(|u| u.wall_s);
        (0..units.len())
            .zip(walls)
            .min_by(|a, b| a.1.total_cmp(&b.1))
    };
    let (Some((t, _)), Some((_, untraced_wall_s))) = (fastest_unit(&traced), fastest_unit(&plain))
    else {
        unreachable!("TRACE_PAIRS is at least 1");
    };
    // `spans` numbers the traced repetitions from 1.
    let metrics =
        metrics::per_layer_values(&traced[t], t as u32 + 1, untraced_wall_s, &spans, &layers);
    let units: Vec<UnitResult> = plain.into_iter().chain(traced).chain([audited]).collect();
    let mut report = RunReport::from_units(&units);
    report.metrics = metrics;
    Ok(report.finish())
}
