//! Command-line errors of `flexpass-experiments`: a flag missing its
//! value, a malformed value, an unknown flag or an unknown figure is a
//! usage error (exit 2, the message and the usage line), never a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flexpass-experiments"))
        .args(args)
        .output()
        .expect("spawn flexpass-experiments");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn flag_missing_its_value_is_a_usage_error() {
    for flag in [
        "--fig",
        "--out",
        "--scale",
        "--jobs",
        "--par-sim",
        "--inject-panic",
    ] {
        let (code, stderr) = run(&[flag]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} requires a value")),
            "{flag}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}

/// A repeated setting used to be resolved silently: the last `--fig` won
/// and the first replay file did.
#[test]
fn a_setting_given_twice_is_a_usage_error() {
    for (args, flag) in [
        (
            &["--fig", "fig10", "--fig", "fig9", "--scale", "smoke"][..],
            "--fig",
        ),
        (&["--fig", "none", "--out", "a", "--out", "b"], "--out"),
        (
            &["--fig", "none", "--scale", "smoke", "--scale", "smoke"],
            "--scale",
        ),
        (&["--fig", "none", "--jobs", "1", "--jobs", "2"], "--jobs"),
        (
            &["--fig", "none", "--par-sim", "1", "--par-sim", "1"],
            "--par-sim",
        ),
        (
            &["--inject-panic", "a", "--inject-panic", "b"],
            "--inject-panic",
        ),
        (
            &["--fig", "custom", "--trace", "a.csv", "--trace", "b.csv"],
            "--trace FILE",
        ),
        (
            &["--fig", "none", "--trace=rto", "--trace=drop"],
            "--trace[=FILTER]",
        ),
        (
            &["--fig", "none", "--trace", "--trace=drop"],
            "--trace[=FILTER]",
        ),
    ] {
        assert_usage_error(args, &format!("{flag} given twice"));
    }
    // A replay file and a tracing filter are two settings: parsing gets
    // past both, to the check that tracing needs a single domain.
    let args = [
        "--fig",
        "custom",
        "--trace",
        "a.csv",
        "--trace=rto",
        "--par-sim",
        "2",
    ];
    let stderr = assert_usage_error(&args, "--trace cannot be combined with --par-sim");
    assert!(!stderr.contains("given twice"), "{stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let (code, stderr) = run(&["--no-such-flag"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Asserts a usage error whose message contains `needle`.
fn assert_usage_error(args: &[&str], needle: &str) -> String {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn malformed_values_are_usage_errors() {
    assert_usage_error(&["--scale", "x"], "unknown scale x");
    for flag in ["--jobs", "--par-sim"] {
        for bad in ["abc", "0"] {
            assert_usage_error(
                &[flag, bad],
                &format!("{flag} takes a positive integer, got {bad}"),
            );
        }
    }
    assert_usage_error(&["--fig", "custom"], "requires --trace FILE");
}

/// The tracer is thread-local and domain threads do not carry it: the
/// combination used to exit 0 with every trace file reading `"total":0`.
#[test]
fn trace_with_a_cut_fabric_is_a_usage_error() {
    for args in [
        ["--fig", "none", "--par-sim", "2", "--trace=drop,rto"],
        ["--fig", "none", "--trace", "--par-sim", "2"],
    ] {
        let stderr = assert_usage_error(&args, "--trace cannot be combined with --par-sim");
        assert!(!stderr.contains("tracing armed"), "{stderr}");
    }
    // One domain runs on the calling thread, under its tracer.
    let out = std::env::temp_dir().join(format!("flexpass-cli-trace-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let (code, stderr) = run(&["--fig", "none", "--par-sim", "1", "--trace", "--out", out]);
    assert_eq!(code, Some(0), "{stderr}");
    let _ = std::fs::remove_dir_all(out);
}

/// `--trace WORD` names `--fig custom`'s replay file; with any other
/// selection it used to exit 0 having traced nothing.
#[test]
fn trace_word_without_the_replay_figure_is_a_usage_error() {
    for fig in ["fig1a", "all", "none"] {
        let stderr = assert_usage_error(
            &["--fig", fig, "--scale", "smoke", "--trace", "rto"],
            "only --fig custom reads",
        );
        assert!(stderr.contains("--trace=rto"), "{fig}: {stderr}");
    }
}

/// A misspelt `--inject-panic` label used to exit 0, turning a fault
/// check into a silent pass.
#[test]
fn inject_panic_label_matching_no_task_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("flexpass-cli-inject-{}", std::process::id()));
    let out = dir.to_str().expect("utf-8 temp path");
    let label = "fig1a:ep_vs_dctcpX";
    let args = [
        "--fig",
        "fig1a",
        "--scale",
        "smoke",
        "--out",
        out,
        "--inject-panic",
        label,
    ];
    let (code, stderr) = run(&args);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains(&format!("--inject-panic {label} matched no task")),
        "{stderr}"
    );
}

#[test]
fn unknown_figure_lists_the_valid_names() {
    // `fig16` is a paper figure but not a `--fig` name (`fig15` emits its
    // series), so documents have advertised it by mistake.
    for fig in ["nope", "fig16"] {
        let stderr = assert_usage_error(&["--fig", fig], &format!("no figure matched '{fig}'"));
        for name in ["all", "fig1a", "fig15", "ablation", "scale", "custom"] {
            assert!(
                stderr.split_whitespace().any(|w| w == name),
                "{fig}: `{name}` not listed: {stderr}"
            );
        }
    }
}

/// Replays a trace file holding `text` at smoke scale; returns the exit
/// code and stderr.
fn replay(tag: &str, text: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("flexpass-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("trace.csv");
    std::fs::write(&trace, text).expect("write trace");
    let result = run(&[
        "--fig",
        "custom",
        "--scale",
        "smoke",
        "--trace",
        trace.to_str().expect("utf-8 temp path"),
        "--out",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[test]
fn trace_host_beyond_the_fabric_is_an_input_error() {
    let (code, stderr) = replay("range", "src,dst,size_bytes,start_us\n0,10000,1000,0\n");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("trace host 10000 out of range"), "{stderr}");
    assert!(stderr.contains("-host fabric"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A NaN size used to panic (exit 101); a negative or NaN host id used to
/// replay as host 0; a size of 2^32 + 1 packets wrapped to one packet, and
/// a start past the clock horizon overflowed the clock. Each is an input
/// error naming its column.
#[test]
fn trace_value_out_of_its_domain_is_an_input_error() {
    for (row, field) in [
        ("0,1,NaN,0", "size_bytes"),
        ("-1,1,1000,0", "src"),
        ("NaN,2,1000,0", "src"),
        ("0,1,6270652253620,0", "size_bytes"),
        ("0,1,1000,1e16", "start_us"),
    ] {
        let (code, stderr) = replay("domain", &format!("{row}\n"));
        assert_eq!(code, Some(2), "{row}: {stderr}");
        assert!(
            stderr.contains(&format!("trace line 1, {field}: ")),
            "{row}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{row}: {stderr}");
    }
}

#[test]
fn unwritable_out_dir_is_reported_not_panicked() {
    // /proc rejects directory creation for every user, root included.
    let (code, stderr) = run(&["--fig", "fig1a", "--scale", "smoke", "--out", "/proc/nope"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot write /proc/nope/fig1a_ep_vs_dctcp.csv: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn only_none_selects_no_figure() {
    // `--plot` used to let any unknown name through, having run nothing.
    assert_usage_error(&["--fig", "fig99", "--plot"], "no figure matched 'fig99'");
}

/// Runs the binary at smoke scale into a fresh directory with `args`;
/// returns the exit code and the data rows of each CSV named in `stems`.
fn run_into_temp(tag: &str, args: &[&str], stems: &[&str]) -> (Option<i32>, Vec<Vec<Vec<String>>>) {
    let dir = std::env::temp_dir().join(format!("flexpass-cli-{tag}-{}", std::process::id()));
    let mut all = vec![
        "--scale",
        "smoke",
        "--out",
        dir.to_str().expect("utf-8 temp path"),
    ];
    all.extend(args);
    let (code, _) = run(&all);
    let tables = stems
        .iter()
        .map(|stem| {
            let text = std::fs::read_to_string(dir.join(format!("{stem}.csv"))).expect("the csv");
            let rows = text.lines().skip(1);
            rows.map(|l| l.split(',').map(str::to_string).collect())
                .collect()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (code, tables)
}

fn finite(cell: &str) -> bool {
    cell.parse::<f64>().is_ok_and(f64::is_finite)
}

/// A failed cell renders as NaN in what is computed from it — never as
/// the zero that `f64::max` or an empty recorder used to fabricate — and
/// the cells of the points that ran keep their values.
#[test]
fn failed_cells_render_as_nan_not_zero() {
    let (code, tables) = run_into_temp(
        "fig18",
        &[
            "--fig",
            "fig18",
            "--inject-panic",
            "fig18:wq0.50:flexpass:r0.50:s0",
        ],
        &["fig18_wq_tradeoff"],
    );
    assert_eq!(code, Some(1));
    assert_eq!(tables[0].len(), 5);
    for row in &tables[0] {
        let (degradation, full) = (&row[1], &row[2]);
        assert_eq!(degradation == "NaN", row[0] == "0.50", "{row:?}");
        assert!(finite(full), "the full-deployment cell ran: {row:?}");
    }

    let (code, tables) = run_into_temp(
        "fig9",
        &["--fig", "fig9", "--inject-panic", "fig9:fp_vs_dctcp"],
        &["fig9a_ep_vs_dctcp", "fig9b_fp_vs_dctcp", "fig9c_starvation"],
    );
    assert_eq!(code, Some(1));
    let [ran, failed, bars] = &tables[..] else {
        panic!("three tables")
    };
    assert!(ran.iter().all(|row| finite(&row[1]) && finite(&row[2])));
    assert_eq!(failed.len(), 90);
    assert!(failed
        .iter()
        .all(|row| !finite(&row[1]) && !finite(&row[2])));
    for row in bars {
        let ran = row[0] == "expresspass";
        assert!(row.iter().skip(1).all(|c| finite(c) == ran), "{row:?}");
    }
}

/// A chart that cannot be written fails the run like a CSV that cannot.
#[test]
fn plot_write_failure_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("flexpass-cli-plot-{}", std::process::id()));
    // The chart's file name is taken by a directory.
    std::fs::create_dir_all(dir.join("fig8_incast_max_fct_ms.svg")).expect("create temp dir");
    std::fs::write(
        dir.join("fig8_incast.csv"),
        "transport,n_flows,max_fct_ms,timeouts\ndctcp,8,1.0,0\n",
    )
    .expect("write csv");
    let out = dir.to_str().expect("utf-8 temp path");
    let (code, stderr) = run(&["--fig", "none", "--plot", "--out", out]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("plotting failed: "), "{stderr}");
}
