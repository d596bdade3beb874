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
//! writes what the table's entries return. After them it writes
//! `claims.csv`: every paper claim of the table evaluated over the CSVs in
//! `--out` (`flexpass_experiments::claims`). An unknown `--fig` lists the
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
//! (events + one `meta` line; `FILTER` is a comma-separated event-kind
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

use flexpass_experiments::csvout::Csv;
use flexpass_experiments::figures::{selected, FIGURES};
use flexpass_experiments::runner::RunScale;
use flexpass_experiments::{claims, custom, orchestrate};

const USAGE: &str = "usage: flexpass-experiments [--fig NAME|all|none] [--out DIR] [--scale smoke|default|full] [--jobs N] [--par-sim N] [--plot] [--trace[=FILTER]] [--inject-panic LABEL]";

/// Prints `msg` and the usage line, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value following `flag`; a usage error if there is none.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
}

/// The positive integer following `flag`; a usage error otherwise.
fn positive(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    let v = value(args, flag);
    let n = v.parse().ok().filter(|&n| n >= 1);
    n.unwrap_or_else(|| usage_error(&format!("{flag} takes a positive integer, got {v}")))
}

fn main() {
    let mut fig = String::from("all");
    let mut out = PathBuf::from("results");
    let mut scale = RunScale::Default;
    let mut packet_trace: Option<String> = None;
    let mut plot = false;

    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--fig" => fig = value(&mut args, &flag),
            "--out" => out = PathBuf::from(value(&mut args, &flag)),
            "--plot" => plot = true,
            // `--trace FILE` (the replay figure's input) predates
            // `--trace[=FILTER]` (packet-lifecycle tracing). A following
            // non-flag argument keeps the legacy replay meaning; bare
            // `--trace` (last arg or followed by a flag) arms tracing.
            "--trace" => match args.next_if(|a| !a.starts_with("--")) {
                Some(file) => {
                    custom::TRACE_FILE.get_or_init(|| PathBuf::from(file));
                }
                None => packet_trace = Some(String::new()),
            },
            s if s.starts_with("--trace=") => {
                packet_trace = Some(s["--trace=".len()..].to_string());
            }
            "--scale" => {
                let v = value(&mut args, &flag);
                scale = RunScale::parse(&v).unwrap_or_else(|| {
                    usage_error(&format!("unknown scale {v} (smoke|default|full)"))
                });
            }
            "--jobs" => orchestrate::set_jobs(positive(&mut args, &flag)),
            "--par-sim" => orchestrate::set_par_sim(positive(&mut args, &flag)),
            "--inject-panic" => orchestrate::inject_panic(Some(value(&mut args, &flag))),
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
    let write = |stem: &str, csv: &Csv| {
        if let Err(e) = csv.write(&out, stem) {
            eprintln!("cannot write {}/{stem}.csv: {e}", out.display());
            std::process::exit(1);
        }
        println!("wrote {}/{stem}.csv ({} rows)", out.display(), csv.len());
    };
    for figure in selected(&fig) {
        #[expect(
            clippy::disallowed_types,
            reason = "the per-figure wall-time banner; no simulation reads it"
        )]
        let t = std::time::Instant::now();
        eprintln!("== {} ==", figure.name);
        let tables = figure.run(scale).unwrap_or_else(|e| usage_error(&e));
        for (output, csv) in tables {
            write(output.stem, &csv);
        }
        eprintln!("== {} done in {:.1?} ==", figure.name, t.elapsed());
    }
    write("claims", &claims::evaluate(&out));

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
