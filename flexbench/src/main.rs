//! `flexbench` command line.
//!
//! * `flexbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]`
//!   makes one run and prints one JSON result line last (what the
//!   benchmark driver calls);
//! * `flexbench [suite] [--seed N] [--runs N] [--seconds S] [--trace]
//!   [--out DIR]` runs every workload `--runs` times as child processes and
//!   prints every metric with its median, quartiles and bound;
//! * `flexbench compare A.json B.json` applies the bounds of
//!   `BENCHMARK.json` to two suite results.

use std::path::PathBuf;
use std::process::ExitCode;

use flexbench::json::Json;
use flexbench::metrics::MANIFEST;
use flexbench::suite::{self, SuiteOpts};
use flexbench::units::Workload;
use flexbench::{clock, run};

const USAGE: &str = "usage:
  flexbench --workload <star_steady|clos_sweep|clos_scale|incast_loss> --seed N --seconds S --trace <0|1> [--out DIR]
  flexbench [suite] [--seed N] [--runs N] [--seconds S] [--trace] [--out DIR]
  flexbench compare A.json B.json";

/// Fewest runs per workload the suite accepts: quartiles need them.
const MIN_RUNS: u64 = 5;

/// Under the build directory, never the source tree.
fn default_out() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("flexbench-out")))
        .unwrap_or_else(|| PathBuf::from("target/flexbench-out"))
}

fn run_seconds_default() -> u64 {
    Json::parse(MANIFEST)
        .ok()
        .and_then(|m| m.get("run_seconds").and_then(Json::as_f64))
        .map_or(10, |s| s as u64)
}

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    runs: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        runs: 10,
        seconds: run_seconds_default(),
        trace: false,
        out: default_out(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name}: '{v}' is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = number("--seed", value("--seed")?)?,
            "--runs" => a.runs = number("--runs", value("--runs")?)?,
            "--seconds" => a.seconds = number("--seconds", value("--seconds")?)?,
            "--out" => a.out = PathBuf::from(value("--out")?),
            // The driver passes `--trace 0|1`; by hand a bare `--trace`
            // switches it on.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") | Some("1") => it.next().as_deref() == Some("1"),
                    _ => true,
                }
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            s if s.starts_with('-') => return Err(format!("unknown option {s}\n{USAGE}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

fn one_run(a: &Args, name: &str) -> Result<bool, String> {
    let w = Workload::parse(name).ok_or(format!("unknown workload '{name}'\n{USAGE}"))?;
    let t0 = clock::now_ns();
    let report = if a.trace {
        run::traced(w, a.seed, &a.out).map_err(|e| format!("{}: {e}", a.out.display()))?
    } else {
        run::untraced(w, a.seed, a.seconds as f64)
    };
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    eprintln!("{name} seed {} took {:.1} s", a.seed, clock::secs_since(t0));
    println!("digest {}", report.digest);
    println!("{}", report.to_json_line());
    Ok(report.correct)
}

fn dispatch() -> Result<bool, String> {
    let a = parse_args()?;
    let positional: Vec<&str> = a.positional.iter().map(String::as_str).collect();
    match (a.workload.as_deref(), positional.as_slice()) {
        (Some(name), []) => one_run(&a, name),
        (None, [] | ["suite"]) => {
            if a.runs < MIN_RUNS {
                return Err(format!("--runs must be at least {MIN_RUNS}"));
            }
            let opts = SuiteOpts {
                seed: a.seed,
                runs: a.runs,
                seconds: a.seconds,
                trace: a.trace,
            };
            suite::run(opts, &a.out).map(|()| true)
        }
        (None, ["compare", x, y]) => suite::compare(x.as_ref(), y.as_ref()),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
