//! Tier-1 guarantees of the experiment orchestration layer: the worker
//! pool must not change results (byte-identical CSV for any `--jobs`
//! value) and must isolate panicking points instead of killing the sweep.

use std::sync::LazyLock;

use flexpass::schemes::Scheme;
use flexpass_experiments::orchestrate;
use flexpass_experiments::runner::RunScale;
use flexpass_experiments::sweep::{run_sweep_jobs, to_csv, SweepSpec};

/// 2 schemes x 2 ratios x 2 seeds = 8 points, each a few thousand events.
static TINY: LazyLock<SweepSpec> = LazyLock::new(|| {
    let mut spec = SweepSpec::fig10(RunScale::Smoke);
    spec.schemes = vec![Scheme::Naive, Scheme::FlexPass];
    spec.ratios = vec![0.0, 0.5];
    spec.seed = 3;
    spec.n_flows = Some(30);
    spec.seeds = 2;
    spec
});

/// The tentpole determinism claim: each point is a deterministic
/// single-threaded simulation and results reassemble in spec order, so
/// the rendered CSV must be byte-identical whether the pool runs 1 or 4
/// workers.
#[test]
fn jobs_do_not_change_output() {
    let spec = &*TINY;
    let serial = to_csv(&run_sweep_jobs(1, "jobs1", spec)).render();
    let parallel = to_csv(&run_sweep_jobs(4, "jobs4", spec)).render();
    assert_eq!(
        serial, parallel,
        "CSV differs between --jobs 1 and --jobs 4"
    );
    // Sanity: the table actually carries data (header + 4 cells).
    assert_eq!(serial.lines().count(), 5);
}

/// A panicking point must not take down the sweep: the other points
/// complete, the failed seed is dropped from its cell (surviving seeds
/// still aggregate), and the failure is recorded for the exit code.
#[test]
fn panicking_point_is_isolated() {
    let spec = &*TINY;
    let victim = "iso:flexpass:r0.50:s1";
    orchestrate::inject_panic(Some(victim.to_string()));
    let points = run_sweep_jobs(2, "iso", spec);
    orchestrate::inject_panic(None);

    // Every cell still produced a row, in spec order.
    assert_eq!(points.len(), 4);
    let labels: Vec<(&str, f64)> = points.iter().map(|p| (p.scheme, p.ratio)).collect();
    assert_eq!(
        labels,
        vec![
            ("naive", 0.0),
            ("naive", 0.5),
            ("flexpass", 0.0),
            ("flexpass", 0.5)
        ]
    );
    // The victim cell aggregated its surviving seed — real data, not NaN.
    assert!(points.iter().all(|p| p.flows > 0.0));

    // The failure was recorded with its qualified label and the panic
    // message, for the binary's exit-code report.
    let failures = orchestrate::take_failures();
    assert!(
        failures.iter().any(|f| f.label == victim),
        "no failure recorded for {victim}: {failures:?}"
    );
}
