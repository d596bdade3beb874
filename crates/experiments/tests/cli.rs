//! Command-line errors of `flexpass-experiments`: a flag missing its value
//! or an unknown flag is a usage error (exit 2), never a panic.

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
