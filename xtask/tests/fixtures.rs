//! UI-test harness for the lint rules.
//!
//! Each `tests/lint_fixtures/<name>.rs` file is linted as if it lived at
//! the path declared by its `//@ file:` directive (default: a simnet
//! source file, so all rules apply), and the findings are compared
//! against the `<name>.expected` sidecar: one `line:col rule` per line,
//! sorted. An empty sidecar asserts the fixture is clean — that's how the
//! false-positive regressions are pinned.
//!
//! A *directory* `tests/lint_fixtures/<name>/` is a multi-file fixture for
//! the interprocedural call-graph rules: every member `.rs` file declares
//! its pretended path with `//@ file:` (so one member can live in a hot
//! module and another outside it). The sidecar `<name>.expected` sits next
//! to the directory and uses `file:line:col rule` lines (the file
//! disambiguates multi-file anchors).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use xtask::config::LintConfig;
use xtask::lint;
use xtask::rules::reachable;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

struct Fixture {
    name: String,
    src: String,
    /// Path the fixture pretends to live at.
    file: String,
    expected: Vec<String>,
}

fn load_fixtures() -> Vec<Fixture> {
    let dir = fixture_dir();
    let mut out = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_stem()
            .expect("stem")
            .to_string_lossy()
            .into_owned();
        let src = fs::read_to_string(&path).expect("read fixture");
        let mut file = "crates/simnet/src/fixture.rs".to_string();
        for line in src.lines() {
            let Some(d) = line.strip_prefix("//@ ") else {
                continue;
            };
            if let Some(v) = d.strip_prefix("file:") {
                file = v.trim().to_string();
            } else {
                panic!("{name}: unknown directive `{line}`");
            }
        }
        let sidecar = path.with_extension("expected");
        let expected = fs::read_to_string(&sidecar)
            .unwrap_or_else(|_| panic!("{name}: missing sidecar {}", sidecar.display()))
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        out.push(Fixture {
            name,
            src,
            file,
            expected,
        });
    }
    out
}

/// One multi-file (directory) fixture for the call-graph rules.
struct DirFixture {
    name: String,
    /// `(declared path, source)` per member, in filename order.
    members: Vec<(String, String)>,
    expected: Vec<String>,
}

fn load_dir_fixtures() -> Vec<DirFixture> {
    let dir = fixture_dir();
    let mut out = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .expect("dir name")
            .to_string_lossy()
            .into_owned();
        let mut files: Vec<_> = fs::read_dir(&path)
            .expect("fixture subdir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "{name}: no .rs members");
        let mut members = Vec::new();
        for f in files {
            let src = fs::read_to_string(&f).expect("read member");
            let mut file = None;
            for line in src.lines() {
                let Some(d) = line.strip_prefix("//@ ") else {
                    continue;
                };
                if let Some(v) = d.strip_prefix("file:") {
                    file = Some(v.trim().to_string());
                } else {
                    panic!("{name}: unknown directive `{line}`");
                }
            }
            let file = file.unwrap_or_else(|| {
                panic!("{name}: member {} needs a //@ file: directive", f.display())
            });
            members.push((file, src));
        }
        let sidecar = path.with_extension("expected");
        let expected = fs::read_to_string(&sidecar)
            .unwrap_or_else(|_| panic!("{name}: missing sidecar {}", sidecar.display()))
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        out.push(DirFixture {
            name,
            members,
            expected,
        });
    }
    out
}

fn format_findings(findings: &[lint::Finding]) -> Vec<String> {
    let mut got: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{} {}", f.line, f.col, f.rule))
        .collect();
    got.sort();
    got
}

#[test]
fn fixtures_cover_every_rule() {
    let fixtures = load_fixtures();
    let dir_fixtures = load_dir_fixtures();
    assert!(
        fixtures.len() >= lint::RULES.len(),
        "expected a corpus, found {}",
        fixtures.len()
    );
    assert!(
        dir_fixtures.len() >= 3,
        "expected a call-graph corpus, found {}",
        dir_fixtures.len()
    );
    // Every rule must be exercised by at least one expected finding; both
    // sidecar formats put the rule in the second whitespace field.
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    let expected_lines = fixtures
        .iter()
        .map(|f| (&f.name, &f.expected))
        .chain(dir_fixtures.iter().map(|f| (&f.name, &f.expected)));
    for (name, expected) in expected_lines {
        for line in expected {
            let rule = line.split_whitespace().nth(1).expect("line:col rule");
            if let Some((rule_name, _)) = lint::RULES.iter().find(|(n, _)| *n == rule) {
                *by_rule.entry(rule_name).or_insert(0) += 1;
            } else if rule == lint::UNKNOWN_RULE {
                *by_rule.entry(lint::UNKNOWN_RULE).or_insert(0) += 1;
            } else {
                panic!("{name}: unknown rule `{rule}` in sidecar");
            }
        }
    }
    let missing: Vec<&str> = lint::RULES
        .iter()
        .map(|(n, _)| *n)
        .chain([lint::UNKNOWN_RULE])
        .filter(|n| !by_rule.contains_key(n))
        .collect();
    assert!(missing.is_empty(), "rules without fixtures: {missing:?}");
    // And at least one clean fixture per corpus (the FP regressions).
    assert!(
        fixtures.iter().any(|f| f.expected.is_empty()),
        "no false-positive regression fixtures"
    );
    assert!(
        dir_fixtures.iter().any(|f| f.expected.is_empty()),
        "no clean call-graph fixture"
    );
}

#[test]
fn dir_fixtures_match_expected_witnesses() {
    let mut failures = Vec::new();
    for f in load_dir_fixtures() {
        let findings = reachable::check_sources(&f.members, &LintConfig::default());
        let mut got: Vec<String> = findings
            .iter()
            .map(|fi| format!("{}:{}:{} {}", fi.file, fi.line, fi.col, fi.rule))
            .collect();
        got.sort();
        let mut want = f.expected.clone();
        want.sort();
        if got != want {
            failures.push(format!(
                "{}: expected\n  {}\ngot\n  {}",
                f.name,
                want.join("\n  "),
                got.join("\n  ")
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

#[test]
fn fixtures_match_expected_diagnostics() {
    let mut failures = Vec::new();
    for f in &load_fixtures() {
        let got = format_findings(&lint::lint_source(&f.file, &f.src));
        let mut want = f.expected.clone();
        want.sort();
        if got != want {
            failures.push(format!(
                "{}: expected\n  {}\ngot\n  {}",
                f.name,
                want.join("\n  "),
                got.join("\n  ")
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}
