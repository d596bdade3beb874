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
//! The figure names are the first column of the `FIGURES` table below;
//! an unknown `--fig` lists them. Two entries are explicit-only, never
//! part of `all`: the trace replay (`--trace F` names its input, a
//! `src,dst,size_bytes,start_us` flow trace) and the O(10k)-host Clos on
//! the streaming bounded-memory recorder — combine that one with
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
//! DESIGN.md §14). `--par-sim 1` (the default) is the serial engine;
//! topologies too small to cut (e.g. single-rack stars) silently fall
//! back to serial.
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
use std::sync::OnceLock;
// lint:allow(wall-clock): per-figure elapsed-time reporting only.
use std::time::Instant;

use flexpass_experiments::custom::{run_trace_file, CustomSpec};
use flexpass_experiments::orchestrate;
use flexpass_experiments::runner::{RunScale, ScenarioResult};
use flexpass_experiments::{
    ablation, fig1, fig17, fig18, fig5, fig7, fig8, fig9, queue_study, scale, sweep,
};

const USAGE: &str = "usage: flexpass-experiments [--fig NAME|all] [--out DIR] [--scale smoke|default|full] [--jobs N] [--par-sim N] [--trace[=FILTER]] [--inject-panic LABEL]";

/// One `--fig` name: whether `--fig all` includes it, and what it runs.
type Figure = (&'static str, bool, fn(RunScale) -> Vec<ScenarioResult>);

/// Every figure the binary can produce, in `--fig all` order.
const FIGURES: &[Figure] = &[
    ("fig1a", true, |_| vec![fig1::fig1a()]),
    ("fig1b", true, |_| vec![fig1::fig1b()]),
    ("fig5a", true, |s| vec![fig5::fig5a(s)]),
    ("fig5b", true, |s| vec![fig5::fig5b(s)]),
    ("fig7", true, |_| {
        vec![fig7::fig7a(), fig7::fig7b(), fig7::fig7c()]
    }),
    ("fig8", true, |_| vec![fig8::fig8()]),
    ("fig9", true, |_| fig9::fig9()),
    // Also produces the per-type data of Figures 12–13.
    ("fig10", true, |s| sweep::fig10_or_11(s, false)),
    ("fig11", true, |s| sweep::fig10_or_11(s, true)),
    ("fig14", true, |s| vec![sweep::fig14(s)]),
    // Covers Figure 16's average-FCT series.
    ("fig15", true, |s| vec![sweep::fig15_16(s)]),
    ("fig17", true, |s| vec![fig17::fig17(s)]),
    ("fig18", true, |s| vec![fig18::fig18(s)]),
    ("queue", true, |s| vec![queue_study::queue_study(s)]),
    // This reproduction's design-choice study.
    ("ablation", true, |s| vec![ablation::ablation(s)]),
    // Explicit-only: the default point simulates a 10,240-host fabric.
    ("scale", false, scale::scenario),
    // Explicit-only: needs `--trace FILE`.
    ("custom", false, replay),
];

/// The table entries `--fig fig` selects, in table order: the `in_all`
/// ones for `all`, otherwise the one of that name (none if unknown).
fn selected(fig: &str) -> impl Iterator<Item = &'static Figure> + '_ {
    FIGURES
        .iter()
        .filter(move |(name, in_all, _)| if fig == "all" { *in_all } else { *name == fig })
}

/// The replay input (`--trace FILE`).
static REPLAY: OnceLock<PathBuf> = OnceLock::new();

/// Replays the `--trace FILE` flows on the Clos of `scale`.
fn replay(scale: RunScale) -> Vec<ScenarioResult> {
    let Some(path) = REPLAY.get() else {
        usage_error("the trace replay requires --trace FILE (src,dst,size_bytes,start_us)");
    };
    let spec = CustomSpec {
        scale,
        ..CustomSpec::default()
    };
    let (rec, result) = run_trace_file(path, &spec).unwrap_or_else(|e| {
        eprintln!("trace replay failed: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "replayed {} flows: avg {:.3} ms, p99(<100kB) {:.3} ms",
        rec.completed(),
        rec.avg_fct(None) * 1e3,
        rec.p99_small(None) * 1e3
    );
    vec![result]
}

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
                    REPLAY.get_or_init(|| PathBuf::from(&args[i + 1]));
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

    if let Some(spec) = &packet_trace {
        if let Err(e) = flexpass_experiments::tracecfg::enable(spec, &out) {
            eprintln!("--trace: {e}");
            std::process::exit(2);
        }
        eprintln!("packet tracing armed -> {}/traces/", out.display());
    }

    // `--fig none --plot` renders charts from existing CSVs only.
    if selected(&fig).next().is_none() && !plot {
        let names: Vec<&str> = FIGURES.iter().map(|(name, ..)| *name).collect();
        usage_error(&format!(
            "no figure matched '{fig}'; figures: all {}",
            names.join(" ")
        ));
    }
    for (name, _, run) in selected(&fig) {
        // lint:allow(wall-clock): figure wall-time banner.
        let t = Instant::now();
        eprintln!("== {name} ==");
        for r in run(scale) {
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
        eprintln!("== {name} done in {:.1?} ==", t.elapsed());
    }

    if plot {
        match flexpass_experiments::plot::plot_results(&out) {
            Ok(n) => println!("rendered {n} SVG charts into {}", out.display()),
            Err(e) => eprintln!("plotting failed: {e}"),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn names(fig: &str) -> Vec<&'static str> {
        selected(fig).map(|(name, ..)| *name).collect()
    }

    #[test]
    fn figure_names_are_unique() {
        let mut seen: Vec<&str> = FIGURES.iter().map(|(name, ..)| *name).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), FIGURES.len());
        assert!(
            !seen.contains(&"all"),
            "`all` is the selector, not a figure"
        );
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

    /// A document cannot advertise a figure the binary rejects: every
    /// name README.md and DESIGN.md print after `--fig`, and every name in
    /// the first column of README's `--fig` table, is in [`FIGURES`].
    #[test]
    fn documented_figures_exist() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut checked = 0;
        for doc in ["README.md", "DESIGN.md"] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).expect("read the document");
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
        }
        assert!(checked >= FIGURES.len(), "only {checked} names found");
    }
}
