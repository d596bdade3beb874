//! Workspace automation tasks, invoked as `cargo xtask <task>`.
//!
//! Tasks:
//!
//! * `lint` — the units, panic and allocation static-analysis pass over
//!   the simulation crates (see `lint.rs` and DESIGN.md "Static pass"; the
//!   determinism bans are clippy's, in `clippy.toml`). Findings can be rendered for humans (default) or as
//!   GitHub Actions error annotations (`--format github`); a clean run
//!   prints the size of the call graph it checked.
//! * `trace-report` — post-mortem summary of `--trace` JSONL logs (see
//!   `trace_report.rs` and DESIGN.md "Packet-lifecycle tracing").

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{lint, trace_report};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Github,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_args(&args[1..]) {
            Ok(fmt) => run_lint(fmt),
            Err(msg) => {
                eprintln!("{msg}");
                print_usage();
                ExitCode::FAILURE
            }
        },
        Some("trace-report") => match trace_report::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        },
        Some("help") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown task `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn parse_lint_args(args: &[String]) -> Result<Format, String> {
    let mut fmt = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = if let Some(v) = arg.strip_prefix("--format=") {
            v.to_string()
        } else if arg == "--format" {
            it.next()
                .ok_or_else(|| "--format requires a value".to_string())?
                .clone()
        } else {
            return Err(format!("unknown argument `{arg}`"));
        };
        fmt = match value.as_str() {
            "human" => Format::Human,
            "github" => Format::Github,
            other => return Err(format!("unknown format `{other}`")),
        };
    }
    Ok(fmt)
}

fn print_usage() {
    eprintln!("usage: cargo xtask <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint [--format human|github]");
    eprintln!("          run the units, panic and allocation lint over the simulation crates;");
    eprintln!("          policy in xtask/src/config.rs");
    eprintln!("  trace-report PATH...");
    eprintln!("          summarize packet-lifecycle trace logs (JSONL files or");
    eprintln!("          directories from the experiments binary's --trace)");
    eprintln!();
    eprintln!("lint rules:");
    for (name, why) in lint::RULES {
        eprintln!("  {name:<20} {why}");
    }
}

fn run_lint(fmt: Format) -> ExitCode {
    let root = workspace_root();
    let outcome = match lint::lint_workspace_full(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let findings = &outcome.findings;
    for f in findings {
        match fmt {
            Format::Human => eprintln!("{f}"),
            // `::error` annotations surface inline on the PR diff. The
            // message must be data-escaped: a raw newline (witness chains
            // are multi-line) would truncate the annotation and corrupt
            // the workflow log.
            Format::Github => println!(
                "::error file={},line={},col={},title=lint {}::{}",
                f.file,
                f.line,
                f.col,
                f.rule,
                github_escape_data(&format!("{} ({})", f.text, f.why))
            ),
        }
    }
    if findings.is_empty() {
        println!("xtask lint: clean ({outcome})");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Escapes an annotation *message* for GitHub Actions workflow commands:
/// `%` first, then newlines — the documented `%0A` encoding renders a
/// multi-line witness chain as one annotation.
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// The workspace root is one level above this crate's manifest dir.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .expect("xtask crate lives directly under the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn github_escape_keeps_witness_chains_on_one_annotation() {
        assert_eq!(
            github_escape_data("A -> B\n  -> f.rs [index] x[i] (50% off)"),
            "A -> B%0A  -> f.rs [index] x[i] (50%25 off)"
        );
        // `%` escapes first, or `%0A` would double-escape.
        assert_eq!(github_escape_data("%\n"), "%25%0A");
    }
}
