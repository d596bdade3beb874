//! Workspace automation tasks, invoked as `cargo xtask <task>`.
//!
//! Tasks:
//!
//! * `lint` — the determinism & units static-analysis pass over the
//!   simulation crates (see `lint.rs` and DESIGN.md "Determinism &
//!   invariants"). Findings can be rendered for humans (default) or as
//!   GitHub Actions error annotations (`--format github`). `--report
//!   alloc` dumps the
//!   allocation-site inventory of the hot datapath modules instead, and
//!   `--report callgraph` the call-graph summary with every
//!   panic/alloc-reachable witness chain.
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

#[derive(Clone, Copy)]
struct LintArgs {
    fmt: Format,
    report_alloc: bool,
    report_callgraph: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_args(&args[1..]) {
            Ok(la) => run_lint(la),
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

fn parse_lint_args(args: &[String]) -> Result<LintArgs, String> {
    let mut la = LintArgs {
        fmt: Format::Human,
        report_alloc: false,
        report_callgraph: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--report" {
            let what = it
                .next()
                .ok_or_else(|| "--report requires a value".to_string())?;
            match what.as_str() {
                "alloc" => la.report_alloc = true,
                "callgraph" => la.report_callgraph = true,
                other => {
                    return Err(format!(
                        "unknown report `{other}` (expected `alloc` or `callgraph`)"
                    ))
                }
            }
            continue;
        }
        let value = if let Some(v) = arg.strip_prefix("--format=") {
            v.to_string()
        } else if arg == "--format" {
            it.next()
                .ok_or_else(|| "--format requires a value".to_string())?
                .clone()
        } else {
            return Err(format!("unknown argument `{arg}`"));
        };
        la.fmt = match value.as_str() {
            "human" => Format::Human,
            "github" => Format::Github,
            other => return Err(format!("unknown format `{other}`")),
        };
    }
    Ok(la)
}

fn print_usage() {
    eprintln!("usage: cargo xtask <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint [--format human|github] [--report alloc|callgraph]");
    eprintln!("          run the determinism & units lint over the simulation crates;");
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

fn run_lint(la: LintArgs) -> ExitCode {
    let root = workspace_root();
    let outcome = match lint::lint_workspace_full(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if la.report_alloc {
        println!("{}", alloc_report_json(&outcome.alloc_report));
        return ExitCode::SUCCESS;
    }
    if la.report_callgraph {
        println!("{}", callgraph_report_json(&outcome.callgraph));
        return ExitCode::SUCCESS;
    }
    let findings = &outcome.findings;
    match la.fmt {
        Format::Human => {
            for f in findings {
                eprintln!("{f}");
            }
            if findings.is_empty() {
                println!("xtask lint: clean");
            } else {
                eprintln!("xtask lint: {} finding(s)", findings.len());
            }
        }
        Format::Github => {
            for f in findings {
                // `::error` annotations surface inline on the PR diff. The
                // message must be data-escaped: a raw newline (witness
                // chains are multi-line) would truncate the annotation and
                // corrupt the workflow log.
                println!(
                    "::error file={},line={},col={},title=lint {}::{}",
                    f.file,
                    f.line,
                    f.col,
                    f.rule,
                    github_escape_data(&format!("{} ({})", f.text, f.why))
                );
            }
            if findings.is_empty() {
                println!("xtask lint: clean");
            } else {
                eprintln!("xtask lint: {} finding(s)", findings.len());
            }
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders the hot-module allocation inventory as a JSON array (hand-rolled:
/// the workspace builds offline with no serde dependency), ordered by
/// (file, line, col) — byte-stable across runs for diffing in CI.
fn alloc_report_json(sites: &[xtask::rules::alloc::AllocSite]) -> String {
    let mut out = String::from("[");
    for (i, s) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":{},\"line\":{},\"col\":{},\"func\":{},\"kind\":{},\"gated\":{},\"text\":{}}}",
            json_str(&s.file),
            s.line,
            s.col,
            json_str(&s.func),
            json_str(&s.kind),
            s.gated,
            json_str(&s.text)
        ));
    }
    if !sites.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Renders the call-graph summary plus witness inventory as a single JSON
/// object — fully sorted upstream, so byte-identical across runs.
fn callgraph_report_json(report: &xtask::rules::reachable::CallgraphReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\n  \"fns\":{},", report.fn_count));
    out.push_str(&format!("\n  \"edges\":{},", report.edge_count));
    let panic_count = report
        .witnesses
        .iter()
        .filter(|w| w.rule == "panic-reachable")
        .count();
    let alloc_count = report.witnesses.len() - panic_count;
    out.push_str(&format!("\n  \"panic_reachable_count\":{panic_count},"));
    out.push_str(&format!("\n  \"alloc_reachable_count\":{alloc_count},"));
    out.push_str("\n  \"entries\":[");
    for (i, e) in report.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(e));
    }
    out.push_str("],\n  \"witnesses\":[");
    for (i, w) in report.witnesses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let chain = w
            .chain
            .iter()
            .map(|c| json_str(c))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "\n    {{\"rule\":{},\"entry\":{},\"chain\":[{}],\"file\":{},\"line\":{},\"col\":{},\"kind\":{},\"text\":{}}}",
            json_str(w.rule),
            json_str(&w.entry),
            chain,
            json_str(&w.file),
            w.line,
            w.col,
            json_str(&w.kind),
            json_str(&w.text)
        ));
    }
    if !report.witnesses.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

/// Escapes an annotation *message* for GitHub Actions workflow commands:
/// `%` first, then newlines — the documented `%0A` encoding renders a
/// multi-line witness chain as one annotation.
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn json_escapes_special_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn github_escape_keeps_witness_chains_on_one_annotation() {
        assert_eq!(
            github_escape_data("A -> B\n  -> f.rs [index] x[i] (50% off)"),
            "A -> B%0A  -> f.rs [index] x[i] (50%25 off)"
        );
        // `%` escapes first, or `%0A` would double-escape.
        assert_eq!(github_escape_data("%\n"), "%25%0A");
    }

    #[test]
    fn callgraph_report_json_shape() {
        let report = xtask::rules::reachable::CallgraphReport {
            fn_count: 2,
            edge_count: 1,
            entries: vec!["Port::next_packet".into()],
            witnesses: vec![xtask::rules::reachable::Witness {
                rule: "panic-reachable",
                entry: "Port::next_packet".into(),
                entry_file: "crates/simnet/src/port.rs".into(),
                entry_line: 3,
                entry_col: 12,
                chain: vec!["Port::next_packet".into(), "helper".into()],
                file: "crates/simnet/src/host.rs".into(),
                line: 9,
                col: 5,
                kind: "unwrap".into(),
                text: "x.unwrap()".into(),
            }],
        };
        let j = callgraph_report_json(&report);
        assert!(j.contains("\"fns\":2"));
        assert!(j.contains("\"panic_reachable_count\":1"));
        assert!(j.contains("\"alloc_reachable_count\":0"));
        assert!(j.contains("\"chain\":[\"Port::next_packet\",\"helper\"]"));
        let empty = callgraph_report_json(&Default::default());
        assert!(empty.contains("\"witnesses\":[]"));
    }

    #[test]
    fn alloc_report_json_shape() {
        let sites = vec![xtask::rules::alloc::AllocSite {
            file: "crates/simnet/src/queue.rs".into(),
            line: 10,
            col: 4,
            func: "Queue::enqueue".into(),
            kind: "growth:push".into(),
            text: "self.q.push(p);".into(),
            gated: false,
            tok: 0,
        }];
        let j = alloc_report_json(&sites);
        assert!(j.contains("\"kind\":\"growth:push\""));
        assert!(j.contains("\"gated\":false"));
        assert_eq!(alloc_report_json(&[]), "[]");
    }
}
