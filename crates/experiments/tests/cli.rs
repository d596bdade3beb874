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

#[test]
fn trace_host_beyond_the_fabric_is_an_input_error() {
    let dir = std::env::temp_dir().join(format!("flexpass-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("trace.csv");
    std::fs::write(&trace, "src,dst,size_bytes,start_us\n0,10000,1000,0\n").expect("write trace");
    let (code, stderr) = run(&[
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
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("trace host 10000 out of range"), "{stderr}");
    assert!(stderr.contains("-host fabric"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
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
