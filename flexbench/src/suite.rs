//! The whole benchmark from one command, and the comparison of two such
//! runs.
//!
//! The parent spawns itself once per (workload, seed) as a sequential
//! child, so every run gets a fresh heap and its own peak RSS; runs are
//! interleaved round-robin across workloads so that drift on the host
//! lands on all of them alike. Nothing runs concurrently.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{self, END_TO_END, MANIFEST};
use crate::stats::{median, quartiles, spread};
use crate::units::Workload;

/// The results of one workload over the suite's seeds.
#[derive(Debug, Default)]
struct WorkloadRuns {
    seeds: Vec<u64>,
    digests: Vec<String>,
    attempted: u64,
    failed: u64,
    /// End-to-end samples per metric, one per seed.
    end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer values of the single traced run: `(name, unit, value)`.
    per_layer: Vec<(String, String, f64)>,
}

/// One child run; returns its result line and digest.
fn child(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Path,
) -> Result<(Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{} seed {seed}: no result line ({e}); stderr: {stderr}",
            w.name()
        )
    })?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{} seed {seed} failed: {}",
            w.name(),
            stderr.trim()
        ));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .unwrap_or("")
        .to_string();
    Ok((result, digest))
}

fn metric_values(result: &Json) -> impl Iterator<Item = (&str, &str, f64)> {
    result
        .get("metrics")
        .map_or(&[][..], Json::members)
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.as_str(),
                m.get("unit")?.as_str()?,
                m.get("value")?.as_f64()?,
            ))
        })
}

/// Options of the `suite` command.
#[derive(Clone, Copy, Debug)]
pub struct SuiteOpts {
    /// First seed; run `r` of a workload uses `seed + r`.
    pub seed: u64,
    /// Runs per workload.
    pub runs: u64,
    /// Measuring time of one run.
    pub seconds: u64,
    /// Add one traced run per workload.
    pub trace: bool,
}

/// Runs every workload `runs` times, prints every metric and writes
/// `<out>/suite.json`. Errors name the run or check that failed.
pub fn run(opts: SuiteOpts, out: &Path) -> Result<(), String> {
    let manifest = Json::parse(MANIFEST)?;
    let mut all: BTreeMap<&str, WorkloadRuns> = BTreeMap::new();
    for r in 0..opts.runs {
        for w in Workload::ALL {
            let seed = opts.seed + r;
            eprintln!("run {}/{} {} seed {seed}", r + 1, opts.runs, w.name());
            let (result, digest) = child(w, seed, opts.seconds, false, out)?;
            let runs = all.entry(w.name()).or_default();
            runs.seeds.push(seed);
            runs.digests.push(digest);
            let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            runs.attempted += count("attempted");
            runs.failed += count("failed");
            for (name, _, v) in metric_values(&result) {
                runs.end_to_end.entry(name.to_string()).or_default().push(v);
            }
        }
    }
    if opts.trace {
        for w in Workload::ALL {
            eprintln!("traced run {} seed {}", w.name(), opts.seed);
            let (result, digest) = child(w, opts.seed, opts.seconds, true, out)?;
            let runs = all.entry(w.name()).or_default();
            if runs.digests.first().is_some_and(|d| *d != digest) {
                return Err(format!("{}: traced digest {digest} differs", w.name()));
            }
            runs.per_layer = metric_values(&result)
                .map(|(n, u, v)| (n.to_string(), u.to_string(), v))
                .collect();
        }
    }

    println!(
        "{:<12} {:<12} {:>5} {:>3} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>6}",
        "workload", "metric", "unit", "n", "median", "q1", "q3", "min", "max", "spread", "bound"
    );
    for w in Workload::ALL {
        let runs = &all[w.name()];
        for decl in END_TO_END {
            let v = &runs.end_to_end[decl.name];
            let (q1, q3) = quartiles(v);
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            println!(
                "{:<12} {:<12} {:>5} {:>3} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>7.4} {:>6.2}",
                w.name(),
                decl.name,
                decl.unit,
                v.len(),
                median(v),
                q1,
                q3,
                min,
                max,
                spread(v),
                metrics::bound(&manifest, decl.name).unwrap_or(f64::NAN),
            );
        }
        println!(
            "{:<12} failed_frac  {}/{} flows; digests {}",
            w.name(),
            runs.failed,
            runs.attempted,
            runs.digests.join(" ")
        );
    }
    if opts.trace {
        println!(
            "\nper-layer metrics (one traced run per workload, seed {})",
            opts.seed
        );
        println!(
            "{:<46} {:>6} {}",
            "metric",
            "unit",
            Workload::ALL.map(Workload::name).join(" ")
        );
        let n = all[Workload::ALL[0].name()].per_layer.len();
        for i in 0..n {
            let (name, unit, _) = &all[Workload::ALL[0].name()].per_layer[i];
            let row: Vec<String> = Workload::ALL
                .iter()
                .map(|w| format!("{:>14.4}", all[w.name()].per_layer[i].2))
                .collect();
            println!("{name:<46} {unit:>6} {}", row.join(" "));
        }
    }

    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let path = out.join("suite.json");
    std::fs::write(&path, to_json(&opts, &all)).map_err(|e| e.to_string())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn to_json(opts: &SuiteOpts, all: &BTreeMap<&str, WorkloadRuns>) -> String {
    let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
    let mut s = format!(
        "{{\n  \"seed\": {}, \"runs\": {}, \"seconds\": {},\n  \"workloads\": {{\n",
        opts.seed, opts.runs, opts.seconds
    );
    for (i, (name, runs)) in all.iter().enumerate() {
        let seeds: Vec<String> = runs.seeds.iter().map(u64::to_string).collect();
        let digests: Vec<String> = runs.digests.iter().map(|d| format!("\"{d}\"")).collect();
        let e2e: Vec<String> = runs
            .end_to_end
            .iter()
            .map(|(m, v)| format!("\"{m}\": [{}]", list(v)))
            .collect();
        let layers: Vec<String> = runs
            .per_layer
            .iter()
            .map(|(m, u, v)| format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        let _ = write!(
            s,
            "    \"{name}\": {{\n      \"seeds\": [{}],\n      \"digests\": [{}],\n      \
             \"attempted\": {}, \"failed\": {},\n      \"end_to_end\": {{{}}},\n      \
             \"per_layer\": {{{}}}\n    }}{}\n",
            seeds.join(", "),
            digests.join(", "),
            runs.attempted,
            runs.failed,
            e2e.join(", "),
            layers.join(", "),
            if i + 1 < all.len() { "," } else { "" }
        );
    }
    s.push_str("  }\n}\n");
    s
}

/// How set B stands against set A on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is lower by more than the bound.
    Better,
    /// B's median is higher by more than the bound.
    Worse,
    /// The medians are within the bound of each other.
    Unchanged,
    /// A set's own spread is wider than the bound, so it cannot tell.
    Unresolved,
}

/// Applies `bound` to two sample sets of a lower-is-better metric.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    // `!(x <= bound)` also catches the NaN spread of a single sample.
    if !(spread(a) <= bound && spread(b) <= bound) {
        return Verdict::Unresolved;
    }
    let change = (median(b) - median(a)) / median(a);
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn samples(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// Compares two `suite.json` files with the bounds of `BENCHMARK.json`,
/// one row per workload × end-to-end metric, then the digests and exact
/// per-layer counts. Returns whether B is nowhere worse or unresolved and
/// every exact value agrees.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let manifest = Json::parse(MANIFEST)?;
    let mut ok = true;
    println!(
        "{:<12} {:<12} {:>10} {:>10} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound"
    );
    for w in Workload::ALL {
        for decl in END_TO_END {
            let (sa, sb) = (
                samples(&a, w.name(), decl.name),
                samples(&b, w.name(), decl.name),
            );
            let bound = metrics::bound(&manifest, decl.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", decl.name))?;
            let v = verdict(&sa, &sb, bound);
            ok &= matches!(v, Verdict::Better | Verdict::Unchanged);
            println!(
                "{:<12} {:<12} {:>10.4} {:>10.4} {:>+8.4} {:>8.4} {:>8.4} {:>6.2}  {:?}",
                w.name(),
                decl.name,
                median(&sa),
                median(&sb),
                (median(&sb) - median(&sa)) / median(&sa),
                spread(&sa),
                spread(&sb),
                bound,
                v
            );
        }
    }
    // Exact values compare only between sets run on the same seeds.
    for w in Workload::ALL {
        let of = |set: &Json, key: &str| {
            set.get("workloads")
                .and_then(|x| x.get(w.name()))
                .and_then(|x| x.get(key))
                .cloned()
        };
        if of(&a, "seeds") != of(&b, "seeds") {
            println!(
                "{:<12} seeds differ: digests and counts not compared",
                w.name()
            );
            continue;
        }
        if of(&a, "digests") != of(&b, "digests") {
            ok = false;
            println!("{:<12} digests differ between the sets", w.name());
        }
        let (Some(pa), Some(pb)) = (of(&a, "per_layer"), of(&b, "per_layer")) else {
            continue;
        };
        for (name, m) in pa.members() {
            let other = pb.get(name);
            let is_count = m.get("unit").and_then(Json::as_str) == Some("count");
            if is_count && other.is_some_and(|o| o.get("value") != m.get("value")) {
                ok = false;
                println!(
                    "{:<12} exact count {name} differs between the sets",
                    w.name()
                );
            }
        }
    }
    println!(
        "{}",
        if ok {
            "sets agree within the bounds"
        } else {
            "sets DISAGREE"
        }
    );
    Ok(ok)
}
