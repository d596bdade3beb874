//! `flexpass-experiments` — regenerates every table and figure of the
//! FlexPass paper as CSV files.
//!
//! Usage:
//!
//! ```text
//! flexpass-experiments --fig all            [--out results] [--scale default] [--jobs N]
//! flexpass-experiments --fig NAME           # one figure
//! ```
//!
//! The figure names are those of the library's figure table
//! (`flexpass_experiments::figures::FIGURES`), which also owns each
//! figure's CSV stems, columns and charts; this file parses flags and
//! writes what the table's entries return. An unknown `--fig` lists the
//! names; `--fig none` runs nothing (with `--plot`: render charts from the
//! CSVs already in `--out`). Two entries are explicit-only, never
//! part of `all`: the trace replay (`--trace F` names its input, a
//! `src,dst,size_bytes,start_us` flow trace; without `--fig custom` it is
//! a usage error) and the O(10k)-host Clos on
//! the streaming bounded-memory recorder — combine that one with
//! `--par-sim N` for the partitioned engine and watch the heartbeat for
//! events/sec, arena growth, and process RSS.
//!
//! `--trace[=FILTER]` (no file argument) arms packet-lifecycle tracing:
//! every simulation point writes `<out>/traces/<group>-<label>.jsonl`
//! (events + telemetry summary; `FILTER` is a comma-separated event-kind
//! list, default all). Summarize with `cargo xtask trace-report`. Tracing
//! is observation-only: CSVs stay byte-identical with it on or off. The
//! tracer is thread-local and the domain threads of a cut fabric do not
//! carry it, so `--trace` together with `--par-sim N` for `N >= 2` is a
//! usage error.
//!
//! `--par-sim N` asks the engine to cut each simulation's fabric into up
//! to `N` parallel domains (rack-granular cut, conservative windowed
//! synchronization; see DESIGN.md §14). `--par-sim 1` (the default) and
//! topologies with no useful cut (e.g. single-rack stars) run as one
//! domain on the calling thread.
//!
//! `--jobs N` sets the worker-thread count for the experiment pool
//! (default: available parallelism; `--jobs 1` runs serially). Output is
//! byte-identical for every value — each simulation point is its own
//! deterministic single-threaded run, and results reassemble in spec
//! order. A point that panics is isolated: the rest of the sweep
//! completes, the numeric columns of its rows read `NaN`, the failed cells
//! are listed at exit, and the exit code is nonzero (as it is when a CSV
//! or a chart cannot be written). `--inject-panic LABEL` deliberately fails the named task
//! (labels as printed in failure reports, e.g. `fig10:naive:r0.50:s0`)
//! to exercise that path end to end; a label no task has is a usage error.

use std::path::PathBuf;
// lint:allow(wall-clock): per-figure elapsed-time reporting only.
use std::time::Instant;

use flexpass_experiments::figures::{selected, FIGURES};
use flexpass_experiments::runner::RunScale;
use flexpass_experiments::{custom, orchestrate};

const USAGE: &str = "usage: flexpass-experiments [--fig NAME|all|none] [--out DIR] [--scale smoke|default|full] [--jobs N] [--par-sim N] [--plot] [--trace[=FILTER]] [--inject-panic LABEL]";

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

/// The positive integer following the flag at `args[i]`; a usage error
/// otherwise.
fn positive(args: &[String], i: usize) -> usize {
    match value(args, i).parse() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!(
            "{} takes a positive integer, got {}",
            args[i],
            value(args, i)
        )),
    }
}

fn main() {
    let mut fig = String::from("all");
    let mut out = PathBuf::from("results");
    let mut scale = RunScale::Default;
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
            // `--trace FILE` (the replay figure's input) predates
            // `--trace[=FILTER]` (packet-lifecycle tracing). A following
            // non-flag argument keeps the legacy replay meaning; bare
            // `--trace` (last arg or followed by a flag) arms tracing.
            "--trace" => {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    custom::TRACE_FILE.get_or_init(|| PathBuf::from(&args[i + 1]));
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
                    usage_error(&format!("unknown scale {v} (smoke|default|full)"))
                });
                i += 2;
            }
            "--jobs" => {
                orchestrate::set_jobs(positive(&args, i));
                i += 2;
            }
            "--par-sim" => {
                orchestrate::set_par_sim(positive(&args, i));
                i += 2;
            }
            "--inject-panic" => {
                orchestrate::inject_panic(Some(value(&args, i).to_string()));
                i += 2;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }

    // A word after `--trace` that no selected figure reads as a replay
    // file was almost surely meant as a tracing filter.
    if let Some(file) = custom::TRACE_FILE.get() {
        if !selected(&fig).any(|f| f.name == "custom") {
            let file = file.display();
            usage_error(&format!(
                "--trace {file} names a replay file, which only --fig custom reads; \
                 to trace packets write --trace={file}"
            ));
        }
    }
    if let Some(spec) = &packet_trace {
        if orchestrate::par_sim() >= 2 {
            usage_error(
                "--trace cannot be combined with --par-sim N >= 2: domain threads carry no tracer",
            );
        }
        if let Err(e) = flexpass_experiments::tracecfg::enable(spec, &out) {
            eprintln!("--trace: {e}");
            std::process::exit(2);
        }
        eprintln!("packet tracing armed -> {}/traces/", out.display());
    }

    // Only the literal `none` selects no figure.
    if fig != "none" && selected(&fig).next().is_none() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        usage_error(&format!(
            "no figure matched '{fig}'; figures: all none {}",
            names.join(" ")
        ));
    }
    for figure in selected(&fig) {
        // lint:allow(wall-clock): figure wall-time banner.
        let t = Instant::now();
        eprintln!("== {} ==", figure.name);
        let tables = figure.run(scale).unwrap_or_else(|e| usage_error(&e));
        for (output, csv) in tables {
            if let Err(e) = csv.write(&out, output.stem) {
                eprintln!("cannot write {}/{}.csv: {e}", out.display(), output.stem);
                std::process::exit(1);
            }
            println!(
                "wrote {}/{}.csv ({} rows)",
                out.display(),
                output.stem,
                csv.len()
            );
        }
        eprintln!("== {} done in {:.1?} ==", figure.name, t.elapsed());
    }

    if plot {
        match flexpass_experiments::plot::plot_results(&out) {
            Ok(n) => println!("rendered {n} SVG charts into {}", out.display()),
            Err(e) => {
                eprintln!("plotting failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let failures = orchestrate::take_failures();
    if !failures.is_empty() {
        eprintln!("{} point(s) FAILED:", failures.len());
        for failure in &failures {
            eprintln!("  {failure}");
        }
        eprintln!("the remaining points completed; failed cells render as NaN");
    }
    if let Some(label) = orchestrate::unmatched_injection() {
        usage_error(&format!("--inject-panic {label} matched no task"));
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
