//! `flexpass-experiments` — regenerates every table and figure of the
//! FlexPass paper as CSV files.
//!
//! Usage:
//!
//! ```text
//! flexpass-experiments --fig all            [--out results] [--scale default] [--jobs N]
//! flexpass-experiments --fig fig10          # one figure
//! ```
//!
//! Figures: fig1a fig1b fig5a fig5b fig7 fig8 fig9 fig10 fig11 fig14
//! fig15 fig17 fig18 queue ablation  (fig10 also produces the per-type
//! data of figs 12–13; fig15 covers fig16's average-FCT series; ablation
//! is this reproduction's design-choice study). `--fig custom --trace F`
//! replays a user flow trace (`src,dst,size_bytes,start_us`). `--fig
//! scale` (explicit-only, never part of `all`) drives an O(10k)-host
//! Clos with the streaming bounded-memory recorder; combine with
//! `--par-sim N` for the partitioned engine and watch the heartbeat for
//! events/sec, arena growth, and process RSS.
//!
//! `--trace[=FILTER]` (no file argument) arms packet-lifecycle tracing:
//! every simulation point writes `<out>/traces/<group>-<label>.jsonl`
//! (events + telemetry summary; `FILTER` is a comma-separated event-kind
//! list, default all). Summarize with `cargo xtask trace-report`. Tracing
//! is observation-only: CSVs stay byte-identical with it on or off.
//!
//! `--par-sim N` partitions each simulation into `N` parallel domains
//! (rack-granular fabric cut, conservative windowed synchronization; see
//! DESIGN.md §14). `--par-sim 1` (the default) is the serial engine,
//! byte-identical to previous releases; topologies too small to cut
//! (e.g. single-rack stars) silently fall back to serial.
//!
//! `--jobs N` sets the worker-thread count for the experiment pool
//! (default: available parallelism; `--jobs 1` runs serially). Output is
//! byte-identical for every value — each simulation point is its own
//! deterministic single-threaded run, and results reassemble in spec
//! order. A point that panics is isolated: the rest of the sweep
//! completes, the failed cells are listed at exit, and the exit code is
//! nonzero. `--inject-panic LABEL` deliberately fails the named task
//! (labels as printed in failure reports, e.g. `fig10:naive:r0.50:s0`)
//! to exercise that path end to end.

use std::path::PathBuf;
// lint:allow(wall-clock): per-figure elapsed-time reporting only.
use std::time::Instant;

use flexpass_experiments::custom::{run_trace_file, CustomSpec};
use flexpass_experiments::orchestrate;
use flexpass_experiments::runner::RunScale;
use flexpass_experiments::{
    ablation, fig1, fig17, fig18, fig5, fig7, fig8, fig9, queue_study, sweep,
};

const USAGE: &str = "usage: flexpass-experiments [--fig NAME|all] [--out DIR] [--scale smoke|default|full] [--jobs N] [--par-sim N] [--trace[=FILTER]] [--inject-panic LABEL]";

/// Prints `msg` and the usage line, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value following the flag at `args[i]`; a usage error if it is the
/// last argument.
fn value(args: &[String], i: usize) -> &str {
    match args.get(i + 1) {
        Some(v) => v,
        None => usage_error(&format!("{} requires a value", args[i])),
    }
}

fn main() {
    let mut fig = String::from("all");
    let mut out = PathBuf::from("results");
    let mut scale = RunScale::Default;
    let mut trace: Option<PathBuf> = None;
    let mut packet_trace: Option<String> = None;
    let mut plot = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                fig = value(&args, i).to_string();
                i += 2;
            }
            "--out" => {
                out = PathBuf::from(value(&args, i));
                i += 2;
            }
            "--plot" => {
                plot = true;
                i += 1;
            }
            // `--trace FILE` (replay input for --fig custom) predates
            // `--trace[=FILTER]` (packet-lifecycle tracing). A following
            // non-flag argument keeps the legacy replay meaning; bare
            // `--trace` (last arg or followed by a flag) arms tracing.
            "--trace" => {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    trace = Some(PathBuf::from(&args[i + 1]));
                    i += 2;
                } else {
                    packet_trace = Some(String::new());
                    i += 1;
                }
            }
            s if s.starts_with("--trace=") => {
                packet_trace = Some(s["--trace=".len()..].to_string());
                i += 1;
            }
            "--scale" => {
                let v = value(&args, i);
                scale = RunScale::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v} (smoke|default|full)");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--jobs" => {
                let v = value(&args, i);
                let n: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs takes a positive integer, got {v}");
                    std::process::exit(2);
                });
                if n == 0 {
                    eprintln!("--jobs must be >= 1");
                    std::process::exit(2);
                }
                orchestrate::set_jobs(n);
                i += 2;
            }
            "--par-sim" => {
                let v = value(&args, i);
                let n: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("--par-sim takes a positive integer, got {v}");
                    std::process::exit(2);
                });
                if n == 0 {
                    eprintln!("--par-sim must be >= 1");
                    std::process::exit(2);
                }
                orchestrate::set_par_sim(n);
                i += 2;
            }
            "--inject-panic" => {
                orchestrate::inject_panic(Some(value(&args, i).to_string()));
                i += 2;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }

    if let Some(spec) = &packet_trace {
        if let Err(e) = flexpass_experiments::tracecfg::enable(spec, &out) {
            eprintln!("--trace: {e}");
            std::process::exit(2);
        }
        eprintln!("packet tracing armed -> {}/traces/", out.display());
    }

    let all = fig == "all";
    // `--fig none --plot` renders charts from existing CSVs only.
    let want = |name: &str| all || fig == name;
    let mut ran = 0;

    let emit = |results: Vec<flexpass_experiments::ScenarioResult>| {
        for r in results {
            if let Err(e) = r.csv.write(&out, &r.name) {
                eprintln!("cannot write {}/{}.csv: {e}", out.display(), r.name);
                std::process::exit(1);
            }
            println!(
                "wrote {}/{}.csv ({} rows)",
                out.display(),
                r.name,
                r.csv.len()
            );
        }
    };

    macro_rules! run {
        ($name:expr, $body:expr) => {
            if want($name) {
                // lint:allow(wall-clock): figure wall-time banner.
                let t = Instant::now();
                eprintln!("== {} ==", $name);
                emit($body);
                eprintln!("== {} done in {:.1?} ==", $name, t.elapsed());
                ran += 1;
            }
        };
    }

    run!("fig1a", vec![fig1::fig1a()]);
    run!("fig1b", vec![fig1::fig1b()]);
    run!("fig5a", vec![fig5::fig5a(scale)]);
    run!("fig5b", vec![fig5::fig5b(scale)]);
    run!("fig7", vec![fig7::fig7a(), fig7::fig7b(), fig7::fig7c()]);
    run!("fig8", vec![fig8::fig8()]);
    run!("fig9", fig9::fig9());
    run!("fig10", sweep::fig10_or_11(scale, false));
    run!("fig11", sweep::fig10_or_11(scale, true));
    run!("fig14", vec![sweep::fig14(scale)]);
    run!("fig15", vec![sweep::fig15_16(scale)]);
    run!("fig17", vec![fig17::fig17(scale)]);
    run!("fig18", vec![fig18::fig18(scale)]);
    run!("queue", vec![queue_study::queue_study(scale)]);
    run!("ablation", vec![ablation::ablation(scale)]);
    // Explicit-only (not part of `all`): the default point simulates a
    // 10,240-host fabric.
    if fig == "scale" {
        // lint:allow(wall-clock): figure wall-time banner.
        let t = Instant::now();
        eprintln!("== scale ==");
        emit(flexpass_experiments::scale::scenario(scale));
        eprintln!("== scale done in {:.1?} ==", t.elapsed());
        ran += 1;
    }
    if fig == "custom" {
        let path = trace.unwrap_or_else(|| {
            eprintln!("--fig custom requires --trace FILE (src,dst,size_bytes,start_us)");
            std::process::exit(2);
        });
        let spec = CustomSpec {
            scale,
            ..CustomSpec::default()
        };
        let (rec, result) = run_trace_file(&path, &spec).unwrap_or_else(|e| {
            eprintln!("trace replay failed: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "replayed {} flows: avg {:.3} ms, p99(<100kB) {:.3} ms",
            rec.completed(),
            rec.avg_fct(None) * 1e3,
            rec.p99_small(None) * 1e3
        );
        emit(vec![result]);
        ran += 1;
    }

    if plot {
        match flexpass_experiments::plot::plot_results(&out) {
            Ok(n) => println!("rendered {n} SVG charts into {}", out.display()),
            Err(e) => eprintln!("plotting failed: {e}"),
        }
        ran += 1;
    }

    if ran == 0 {
        eprintln!("no figure matched '{fig}'");
        std::process::exit(2);
    }

    let failures = orchestrate::take_failures();
    if !failures.is_empty() {
        eprintln!("{} point(s) FAILED:", failures.len());
        for failure in &failures {
            eprintln!("  {failure}");
        }
        eprintln!("the remaining points completed; failed cells render as NaN/empty rows");
        std::process::exit(1);
    }
}
