//! Units, panic and allocation static-analysis pass (AST-based).
//!
//! The simulation must be bit-for-bit reproducible under a fixed seed, its
//! byte accounting must keep the payload and wire domains apart (see
//! `simcore::units`), and its per-event datapath must head toward
//! zero-alloc (ROADMAP-1). The determinism bans (hash collections, wall
//! clocks, threads, blocking locks) are clippy's, in the workspace's
//! `clippy.toml`: clippy resolves names, so an alias, a glob import or a
//! re-export cannot hide a use. This pass checks what a path ban cannot
//! say. It drives a hand-rolled tokenizer (`crate::tokenize`) and
//! recursive-descent parser (`crate::parse`), and runs the rule families in
//! `crate::rules`:
//!
//! * `float-time` — calls to the float↔time conversions (`as_secs_f64`,
//!   `as_micros_f64`, `as_millis_f64`, `from_secs_f64`) outside
//!   `simcore/src/time.rs`. Time arithmetic must stay in integer
//!   nanoseconds.
//! * `raw-cast` — a bare numeric `as` cast whose source expression names a
//!   byte or time quantity (`*bytes*`, `*wire*`, `*payload*`, `*mtu*`,
//!   `size`, `*nanos*`, `*micros*`, `*millis*`, `*secs*`). Byte quantities
//!   convert through `simcore::units` (`.get()`, `as_f64()`, `from_f64`),
//!   time through `simcore::time`.
//! * `panic-path` — `panic!` / `unreachable!` / `.unwrap(...)` /
//!   `.expect("")` with an empty rationale in simulation code, plus — in
//!   the hot modules only — subscripts and bare `/` / `%` as implicit
//!   panic sites. Hot paths must either handle the case or document the
//!   impossibility with a `lint:allow(panic-path)` rationale; `.expect`
//!   with a non-empty message is allowed.
//! * `unit-mixing` — arithmetic that combines wire-byte names
//!   (`DATA_WIRE`, `DATA_HEADER_WIRE`, `CTRL_WIRE`, `WireBytes`) with
//!   payload-byte names (`MTU_PAYLOAD`, `Bytes`, `payload`) in one
//!   expression. The only blessed domain crossing is `simnet::consts`.
//! * `raw-header-size` — the numeric literals `78`, `84` and `1538`
//!   (any spelling: `1_538`, `1538u64`, `1538.0`) outside the unit homes.
//!   Unlike every other rule this one applies to `#[cfg(test)]` code too,
//!   and also sweeps the simulation crates' `tests/` directories. `1460`
//!   (`MTU_PAYLOAD`) is *not* flagged: payload sizes appear legitimately
//!   in workload tables.
//! * `alloc-in-datapath` — allocation-shaped expressions (constructions,
//!   `vec!`/`format!`, copying conversions, non-`Copy` clones) in the hot
//!   per-event modules, outside constructors.
//! * `panic-reachable` / `alloc-reachable` — interprocedural: a BFS over
//!   the workspace call graph (`crate::callgraph`) from the hot-module
//!   entry points must reach no panic or allocation leaf *outside* the hot
//!   modules (inside them the file-local rules already apply); violations
//!   report shortest witness chains. `LintConfig::known_infallible` names
//!   the fns the BFS trusts.
//!
//! Escape hatch: a `lint:allow(<rule>)` comment on the offending line,
//! directly above it (comment runs count as one block), or directly above
//! the statement containing it suppresses that rule. A directive naming
//! no rule of [`RULES`] suppresses nothing and is itself a finding
//! (`unknown-rule`), in every `.rs` file under `crates/`. The policy (hot
//! modules, trusted fns) is `LintConfig::default()` in `config.rs`. There
//! is no ledger of grandfathered findings: every finding of
//! [`lint_workspace_full`] fails the run.
//!
//! Beyond the simulation crates, the pass also covers the files in
//! [`LINTED_EXTRA_FILES`]: the experiment orchestrator, which every
//! simulation point runs under.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph;
use crate::config::LintConfig;
use crate::rules;
use crate::tokenize::{scan, Comment, Kind};

/// Crate directories (relative to the workspace root) the pass covers.
const LINTED_CRATES: &[&str] = &[
    "crates/simcore",
    "crates/simnet",
    "crates/transport",
    "crates/core",
];

/// Individual files outside the linted crates the pass also covers: the
/// orchestrator every simulation point runs under.
pub const LINTED_EXTRA_FILES: &[&str] = &["crates/experiments/src/orchestrate.rs"];

/// `(name, rationale)` for every rule: the names a `lint:allow` may give.
pub const RULES: &[(&str, &str)] = &[
    ("float-time", rules::WHY_FLOAT_TIME),
    ("raw-cast", rules::WHY_RAW_CAST),
    ("panic-path", rules::WHY_PANIC),
    ("unit-mixing", rules::WHY_MIXING),
    ("raw-header-size", rules::WHY_HEADER_SIZE),
    ("alloc-in-datapath", rules::WHY_ALLOC),
    ("panic-reachable", rules::WHY_PANIC_REACH),
    ("alloc-reachable", rules::WHY_ALLOC_REACH),
];

/// The finding a `lint:allow` directive naming no rule of [`RULES`] gets.
/// It is not a rule: no directive can suppress it.
pub const UNKNOWN_RULE: &str = "unknown-rule";

const WHY_UNKNOWN_RULE: &str = "a lint:allow directive naming no lint rule suppresses nothing; \
     name one of `cargo xtask lint`'s rules (the determinism bans are clippy.toml's)";

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in (workspace-relative).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (chars).
    pub col: usize,
    /// Rule name (e.g. `panic-path`), or [`UNKNOWN_RULE`].
    pub rule: &'static str,
    /// The offending source line, trimmed (or a synthesized description
    /// for cross-file findings).
    pub text: String,
    /// Why the construct is banned.
    pub why: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {} ({})",
            self.file, self.line, self.col, self.rule, self.text, self.why
        )
    }
}

/// Full result of a workspace sweep.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The findings — any of them fails the build.
    pub findings: Vec<Finding>,
    /// Functions in the call graph the `*-reachable` rules walk.
    pub fns: usize,
    /// Resolved call edges between them.
    pub edges: usize,
}

impl fmt::Display for Outcome {
    /// The size of the analysis: the ledger a clean run reports.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let witnesses = self
            .findings
            .iter()
            .filter(|f| f.rule.ends_with("-reachable"))
            .count();
        write!(
            f,
            "{} fns, {} call edges, {witnesses} reachable witnesses",
            self.fns, self.edges
        )
    }
}

/// Lints every `src/**/*.rs` file of the covered crates under `root`, plus
/// the individually covered [`LINTED_EXTRA_FILES`] and the restricted
/// sweeps (header sizes in `tests/`, directives everywhere under
/// `crates/`); then walks the call graph of the fully linted files.
pub fn lint_workspace_full(root: &Path) -> io::Result<Outcome> {
    let cfg = LintConfig::default();
    let mut findings = Vec::new();
    // The fully linted sources double as the call-graph universe.
    let mut cg_sources: Vec<(String, String)> = Vec::new();
    for krate in LINTED_CRATES {
        let src_dir = root.join(krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = rel_path(root, &path);
            let src = fs::read_to_string(&path)?;
            findings.extend(lint_source_with(&rel, &src, &cfg));
            cg_sources.push((rel, src));
        }
    }
    for rel in LINTED_EXTRA_FILES {
        let src = fs::read_to_string(root.join(rel))?;
        findings.extend(lint_source_with(rel, &src, &cfg));
        cg_sources.push((rel.to_string(), src));
    }
    // Header-size-literal sweep over the simulation crates' integration
    // tests. In-file `#[cfg(test)]` modules are already covered (the rule
    // ignores the test exemption); this extends it to `tests/`, where the
    // packet-building helpers live. Only `raw-header-size` applies there —
    // integration tests may unwrap, cast and panic freely.
    for krate in LINTED_CRATES {
        let dir = root.join(krate).join("tests");
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = rel_path(root, &path);
            let src = fs::read_to_string(&path)?;
            findings.extend(
                lint_source_with(&rel, &src, &cfg)
                    .into_iter()
                    .filter(|f| f.rule == "raw-header-size"),
            );
        }
    }
    // Every file under crates/ the sweeps above did not lint in full is
    // read for its directives: a `lint:allow` naming no rule is reported
    // wherever it stands.
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    for path in files {
        let rel = rel_path(root, &path);
        if cg_sources.iter().any(|(linted, _)| *linted == rel) {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        findings.extend(unknown_rules(&rel, &scan(&src).comments));
    }
    // Interprocedural pass: call graph over all linted sources, witness
    // chains from the hot-module entry points.
    let graph = callgraph::build(&cg_sources, &cfg);
    findings.extend(rules::reachable::findings(&graph));
    // Several witnesses can anchor at the same entry token; the text
    // tie-break keeps the order byte-stable.
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.text).cmp(&(&b.file, b.line, b.col, b.rule, &b.text))
    });
    Ok(Outcome {
        findings,
        fns: graph.fns.len(),
        edges: graph.edge_count,
    })
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A `lint:allow(...)` directive extracted from one comment.
struct Allow {
    rules: Vec<String>,
    start_line: usize,
    end_line: usize,
}

/// Shared `lint:allow` suppression machinery: a directive suppresses a rule
/// at a token when it trails the token's line, sits in the comment block
/// directly above that line, or directly above the statement containing it.
/// Built once per file; used by the file-local driver and by the call-graph
/// rules' leaf filter so both honor the exact same adjacency.
pub struct Suppressor {
    allows: Vec<Allow>,
    /// Lines containing (part of) a code token; everything else is blank or
    /// comment-only, which adjacency may skip over.
    code_line: Vec<bool>,
    /// For each token, the 1-based line its statement started on.
    stmt_start: Vec<usize>,
}

impl Suppressor {
    pub fn new(scanned: &crate::tokenize::Scan) -> Self {
        let toks = &scanned.tokens;
        let max_line = toks
            .iter()
            .map(|t| t.line + t.text.matches('\n').count())
            .max()
            .unwrap_or(0);
        let mut code_line = vec![false; max_line + 2];
        for t in toks {
            let span = t.text.matches('\n').count();
            for line in code_line.iter_mut().skip(t.line).take(span + 1) {
                *line = true;
            }
        }
        Suppressor {
            allows: collect_allows(&scanned.comments),
            code_line,
            stmt_start: stmt_starts(toks),
        }
    }

    /// Whether any rule in `rules` is allowed at token `tok`.
    pub fn suppressed(&self, toks: &[crate::tokenize::Tok], tok: usize, rules: &[&str]) -> bool {
        let t = &toks[tok];
        let stmt = self.stmt_start[tok];
        let comment_only = |l: usize| !self.code_line.get(l).copied().unwrap_or(false);
        self.allows.iter().any(|a| {
            a.rules.iter().any(|r| rules.contains(&r.as_str()))
                && (
                    // Trailing comment on the token's own line.
                    (a.start_line <= t.line && a.end_line >= t.line)
                    // Comment block directly above the token's line
                    // (intervening blank / comment-only lines are fine).
                    || (a.end_line < t.line && (a.end_line + 1..t.line).all(comment_only))
                    // Comment block directly above the statement the token
                    // sits in (covers multi-line statements).
                    || (a.end_line < stmt && (a.end_line + 1..stmt).all(comment_only))
                )
        })
    }
}

/// Lints one file's source text under the workspace policy (no
/// baseline). `file` is the workspace-relative path, used for
/// reporting and the per-file home exemptions.
pub fn lint_source(file: &str, src: &str) -> Vec<Finding> {
    lint_source_with(file, src, &LintConfig::default())
}

/// Lints one file's source text under an explicit configuration.
pub fn lint_source_with(file: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    let scanned = scan(src);
    let toks = &scanned.tokens;
    let ast = crate::parse::parse(toks);
    let ctx = rules::FileCtx::new(file, toks, &ast, cfg);
    let cands = rules::run_file_rules(&ctx);

    let lines: Vec<&str> = src.lines().collect();
    let suppressor = Suppressor::new(&scanned);

    let mut findings = unknown_rules(file, &scanned.comments);
    for c in cands {
        let t = &toks[c.tok];
        if suppressor.suppressed(toks, c.tok, &[c.rule]) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line: t.line,
            col: t.col,
            rule: c.rule,
            text: lines
                .get(t.line - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
            why: c.why,
        });
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

/// For each token, the 1-based line on which its statement started.
/// Statements are delimited by `;`, `{` and `}`.
fn stmt_starts(toks: &[crate::tokenize::Tok]) -> Vec<usize> {
    let mut out = Vec::with_capacity(toks.len());
    let mut cur: Option<usize> = None;
    for t in toks {
        let s = *cur.get_or_insert(t.line);
        out.push(s);
        if t.kind == Kind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            cur = None;
        }
    }
    out
}

/// The rule names of every `lint:allow(...)` directive in one comment,
/// each with the 1-based line it is written on.
fn allowed_rules(c: &Comment) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (line, text) in (c.start_line..).zip(c.text.lines()) {
        let mut rest = text;
        while let Some(pos) = rest.find("lint:allow(") {
            rest = &rest[pos + "lint:allow(".len()..];
            let Some(end) = rest.find(')') else { break };
            out.extend(rest[..end].split(',').map(|s| (line, s.trim().to_string())));
            rest = &rest[end..];
        }
    }
    out
}

/// Extracts `lint:allow(...)` directives from comments.
fn collect_allows(comments: &[Comment]) -> Vec<Allow> {
    comments
        .iter()
        .filter_map(|c| {
            let rules: Vec<String> = allowed_rules(c).into_iter().map(|(_, r)| r).collect();
            (!rules.is_empty()).then_some(Allow {
                rules,
                start_line: c.start_line,
                end_line: c.end_line,
            })
        })
        .collect()
}

/// One [`UNKNOWN_RULE`] finding per directive name that is not a rule: a
/// misspelt or retired name would otherwise suppress nothing, silently.
fn unknown_rules(file: &str, comments: &[Comment]) -> Vec<Finding> {
    comments
        .iter()
        .flat_map(|c| allowed_rules(c).into_iter().map(move |r| (c, r)))
        .filter(|(_, (_, rule))| !RULES.iter().any(|(name, _)| name == rule))
        .map(|(c, (line, rule))| Finding {
            file: file.to_string(),
            line,
            col: c.col,
            rule: UNKNOWN_RULE,
            text: format!("lint:allow({rule}) names no rule"),
            why: WHY_UNKNOWN_RULE,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(file: &str, src: &str) -> Vec<&'static str> {
        lint_source(file, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_source_passes() {
        let src = r#"
            use std::collections::BTreeMap;
            fn f() {
                let m: BTreeMap<u32, u32> = BTreeMap::new();
                for (k, v) in &m { let _ = (k, v); }
            }
        "#;
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn extra_files_cover_the_orchestrator() {
        assert!(LINTED_EXTRA_FILES.contains(&"crates/experiments/src/orchestrate.rs"));
    }

    #[test]
    fn float_time_flagged_outside_time_rs() {
        let src = "fn f(d: TimeDelta) -> f64 { d.as_secs_f64() * 2.0 }";
        assert_eq!(rules_hit("crates/transport/src/x.rs", src), ["float-time"]);
    }

    #[test]
    fn float_time_allowed_in_time_rs() {
        let src = "pub fn as_secs_f64(self) -> f64 { self.0 as f64 / 1e9 }";
        assert!(lint_source("crates/simcore/src/time.rs", src).is_empty());
    }

    #[test]
    fn float_time_definition_outside_home_is_not_a_use() {
        // FP fix over the token pass: defining a helper named like the
        // conversion (e.g. a trait impl forwarding to simcore::time) is
        // not itself float math.
        let src = "fn as_secs_f64(x: Seconds) -> f64 { x.to_f64() }";
        assert!(lint_source("crates/transport/src/x.rs", src).is_empty());
    }

    // --- literals and comments can no longer yield findings ---

    #[test]
    fn string_literal_not_flagged() {
        let src = r#"fn f() -> &'static str { "calls x.unwrap() and d.as_secs_f64()" }"#;
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_string_not_flagged() {
        let src = r###"fn f() -> &'static str { r#"panic!("1538")"# }"###;
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn block_comment_not_flagged() {
        let src = "/* x.unwrap() inside /* a nested */ block comment */ fn f() {}";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn doc_comment_prose_not_flagged() {
        let src = "/// Unlike `x.unwrap()`, this never panics.\nfn f() {}";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    // --- lint:allow spans ---

    #[test]
    fn allow_comment_suppresses_same_line() {
        let src = "fn f(d: TimeDelta) -> f64 { d.as_secs_f64() } // lint:allow(float-time)";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_next_line() {
        let src = "// lint:allow(panic-path): checked by the caller\nfn f(o: Option<u8>) -> u8 { o.unwrap() }";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_does_not_leak_past_one_statement() {
        let src = "// lint:allow(panic-path)\nfn ok() {}\nfn f(o: Option<u8>) -> u8 { o.unwrap() }";
        assert_eq!(rules_hit("crates/simnet/src/x.rs", src), ["panic-path"]);
    }

    #[test]
    fn allow_naming_no_rule_is_reported() {
        // A retired rule's name suppresses nothing, so it must not pass
        // silently: the directive is a finding naming file, line and name.
        let src =
            "fn f(o: Option<u8>) -> u8 {\n    o.unwrap() // lint:allow(panic-path, wall-clock)\n}";
        let found = lint_source("crates/simnet/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(
            found[0].to_string(),
            format!(
                "crates/simnet/src/x.rs:2:16: [unknown-rule] lint:allow(wall-clock) names no rule \
                 ({WHY_UNKNOWN_RULE})"
            )
        );
    }

    #[test]
    fn allow_above_multi_line_statement() {
        let src = "fn f(x: SomeStruct) -> u64 {\n    // lint:allow(raw-cast): reporting only\n    let v = x\n        .wire_bytes() as u64;\n    v\n}";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_through_comment_run() {
        // The directive sits in the first line of a two-line comment block.
        let src = "fn f() {\n    // lint:allow(panic-path): progress bound proven above; a trip\n    // here is a scheduler bug that must abort the run.\n    unreachable!(\"no progress\");\n}";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    // --- cfg(test) exemption ---

    #[test]
    fn test_tail_module_exempt() {
        let src = r#"
fn prod() {}

#[cfg(test)]
mod tests {
    fn t(o: Option<u8>, d: TimeDelta) -> f64 { o.unwrap(); d.as_secs_f64() }
}
"#;
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn non_tail_test_module_exempt_but_code_after_still_linted() {
        let src = r#"
fn prod() {}

#[cfg(test)]
mod early_tests {
    fn t(o: Option<u8>) -> u8 { o.unwrap() }
}

fn late_prod(o: Option<u8>) -> u8 { o.unwrap() }
"#;
        let found = lint_source("crates/simnet/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "panic-path");
        assert_eq!(found[0].line, 9);
    }

    #[test]
    fn cfg_test_attribute_with_inline_between() {
        let src = "#[cfg(test)]\n#[inline]\nfn t(o: Option<u8>) -> u8 { o.unwrap() }\nfn f(o: Option<u8>) -> u8 { o.unwrap() }";
        let found = lint_source("crates/simnet/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("panic-path", 4));
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn f(o: Option<u8>) -> u8 { o.unwrap() }";
        assert_eq!(rules_hit("crates/simnet/src/x.rs", src), ["panic-path"]);
    }

    // --- raw-cast ---

    #[test]
    fn raw_cast_on_byte_quantity_flagged() {
        let src = "fn f(wire_bytes: u64) -> f64 { wire_bytes as f64 }";
        assert_eq!(rules_hit("crates/simnet/src/x.rs", src), ["raw-cast"]);
    }

    #[test]
    fn raw_cast_on_method_chain_flagged() {
        let src =
            "fn f(t: Time, bin: TimeDelta) -> usize { (t.as_nanos() / bin.as_nanos()) as usize }";
        assert_eq!(rules_hit("crates/simcore/src/x.rs", src), ["raw-cast"]);
    }

    #[test]
    fn raw_cast_on_size_flagged() {
        let src = "fn f(size: u64) -> u32 { size as u32 }";
        assert_eq!(rules_hit("crates/transport/src/x.rs", src), ["raw-cast"]);
    }

    #[test]
    fn dimensionless_cast_not_flagged() {
        let src = "fn f(seq: u32, n: u32) -> usize { seq as usize + n as usize }";
        assert!(lint_source("crates/transport/src/x.rs", src).is_empty());
    }

    #[test]
    fn index_expression_is_not_the_cast_source() {
        // FP fix over the token pass: the subscript names a byte quantity,
        // but the value being cast is the (dimensionless) element.
        let src = "fn f(slots: &[u32], byte_pos: usize, n: u32) -> u64 { slots[byte_pos % 4] as u64 + u64::from(n) }";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn cast_in_units_home_not_flagged() {
        let src = "pub fn as_f64(self) -> f64 { self.0 as f64 }";
        // (no byte-ish ident here anyway, but the home exemption must hold
        // even for e.g. `payload_bytes as f64`)
        let src2 = "fn f(payload_bytes: u64) -> f64 { payload_bytes as f64 }";
        assert!(lint_source("crates/simcore/src/units.rs", src).is_empty());
        assert!(lint_source("crates/simcore/src/units.rs", src2).is_empty());
        assert!(lint_source("crates/simnet/src/consts.rs", src2).is_empty());
    }

    // --- panic-path ---

    #[test]
    fn panic_and_unreachable_flagged() {
        let src = "fn f(x: u8) { if x > 3 { panic!(\"bad\"); } else { unreachable!() } }";
        assert_eq!(
            rules_hit("crates/simnet/src/x.rs", src),
            ["panic-path", "panic-path"]
        );
    }

    #[test]
    fn unwrap_flagged_but_expect_and_unwrap_or_allowed() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), ["panic-path"]);
        let ok = "fn f(o: Option<u8>) -> u8 { o.expect(\"set by caller\") }";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
        let ok2 = "fn f(o: Option<u8>) -> u8 { o.unwrap_or(0).min(o.unwrap_or_default()) }";
        assert!(lint_source("crates/core/src/x.rs", ok2).is_empty());
    }

    #[test]
    fn fn_named_unwrap_is_a_definition_not_a_use() {
        // FP fix over the token pass, which flagged `fn unwrap(` itself.
        let src = "impl Slot { fn unwrap(self) -> Packet { self.p } }";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    // --- unit-mixing ---

    #[test]
    fn unit_mixing_flagged() {
        let src = "fn f(payload: u64) -> u64 { DATA_WIRE.get() + payload }";
        assert_eq!(rules_hit("crates/transport/src/x.rs", src), ["unit-mixing"]);
    }

    #[test]
    fn unit_mixing_allowed_in_consts_home() {
        let src = "pub fn data_wire_bytes(payload: Bytes) -> WireBytes { (DATA_HEADER_WIRE + WireBytes::new(payload.get())).max(CTRL_WIRE) }";
        assert!(lint_source("crates/simnet/src/consts.rs", src).is_empty());
    }

    #[test]
    fn unit_families_without_arithmetic_not_flagged() {
        let src = "fn f(w: WireBytes, p: Bytes) -> (WireBytes, Bytes) { (w, p) }";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn use_list_naming_both_families_not_flagged() {
        let src = "use flexpass_simcore::units::{Bytes, WireBytes};\nfn f() {}";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn trait_bound_plus_does_not_mix_units() {
        // FP fix over the token pass: `+` in a bound is not arithmetic.
        let src = "fn f<T: Into<WireBytes> + From<Bytes>>(x: T) -> T { x }";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    // --- raw-header-size ---

    #[test]
    fn header_size_literals_flagged_in_any_spelling() {
        for src in [
            "fn f() -> u64 { 1538 }",
            "fn f() -> u64 { 1_538 }",
            "fn f() -> u64 { 1538u64 }",
            "fn f() -> f64 { 1538.0 }",
            "fn f(w: u64) -> u64 { w - 78 }",
            "fn f() -> u64 { 84 }",
        ] {
            assert_eq!(
                rules_hit("crates/simnet/src/x.rs", src),
                ["raw-header-size"],
                "{src}"
            );
        }
    }

    #[test]
    fn header_size_rule_applies_inside_cfg_test() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper(wire: u64) -> u64 { wire - 78 }\n}";
        assert_eq!(
            rules_hit("crates/simnet/src/x.rs", src),
            ["raw-header-size"]
        );
    }

    #[test]
    fn non_header_numbers_not_flagged() {
        for src in [
            "fn f() -> u64 { 1460 }", // MTU_PAYLOAD: legit in size tables
            "fn f() -> u64 { 1537 }",
            "fn f() -> u64 { 0x84 }", // bit pattern, not a byte count
            "fn f() -> f64 { 1538.5 }",
            "fn f() -> u64 { 840 }",
        ] {
            assert!(
                lint_source("crates/simnet/src/x.rs", src).is_empty(),
                "{src}"
            );
        }
    }

    #[test]
    fn header_size_allowed_in_unit_homes_and_via_allow() {
        let src = "pub const DATA_WIRE: WireBytes = WireBytes::new(1_538);";
        assert!(lint_source("crates/simnet/src/consts.rs", src).is_empty());
        assert!(lint_source("crates/simcore/src/units.rs", src).is_empty());
        let allowed =
            "fn f() -> u64 { 1538 } // lint:allow(raw-header-size): byte-identical fixture";
        assert!(lint_source("crates/simnet/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn header_size_in_attribute_not_flagged() {
        // FP fix over the token pass: attribute token trees are not code.
        let src = "#[repr(align(84))]\nstruct Aligned(u8);";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    // --- alloc-in-datapath ---

    #[test]
    fn alloc_flagged_only_in_hot_modules() {
        let src = "fn on_event(&mut self) { let v = Vec::new(); self.q.push(v); }";
        assert_eq!(
            rules_hit("crates/simnet/src/queue.rs", src),
            ["alloc-in-datapath"]
        );
        // Same code in a non-hot module: quiet.
        assert!(lint_source("crates/simnet/src/topology.rs", src).is_empty());
    }

    #[test]
    fn constructors_are_exempt_from_alloc() {
        let src = "impl Queue {\n\
                       pub fn new(cap: usize) -> Self { Queue { q: Vec::with_capacity(cap) } }\n\
                       pub fn with_limit(cap: usize) -> Queue { Queue { q: Vec::with_capacity(cap) } }\n\
                   }\nstruct Queue { q: Vec<u8> }";
        assert!(lint_source("crates/simnet/src/queue.rs", src).is_empty());
    }

    #[test]
    fn copy_clone_not_flagged_but_non_copy_clone_is() {
        let src = "#[derive(Clone, Copy)]\nstruct Stamp(u64);\n\
                   struct Spec { name: String }\n\
                   struct Q { t: Stamp, spec: Spec }\n\
                   impl Q {\n\
                       fn tick(&mut self) { let _ = self.t.clone(); }\n\
                       fn bad(&mut self) -> Spec { self.spec.clone() }\n\
                   }";
        let found = lint_source("crates/simnet/src/port.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "alloc-in-datapath");
        assert!(found[0].text.contains("spec.clone"));
    }

    #[test]
    fn alloc_macros_and_conversions_flagged() {
        let src = "fn drain(&mut self) { let label = format!(\"q{}\", 1); let v = vec![0u8; 4]; let s = label.to_owned(); let _ = (v, s); }";
        let hits = rules_hit("crates/simcore/src/wheel.rs", src);
        assert_eq!(
            hits,
            [
                "alloc-in-datapath",
                "alloc-in-datapath",
                "alloc-in-datapath"
            ]
        );
    }

    // --- the workspace itself ---

    #[test]
    fn repo_is_currently_clean() {
        // The workspace itself must pass its own lint; run it from the
        // xtask test binary so `cargo test` catches regressions without a
        // separate CI step.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("workspace root")
            .to_path_buf();
        let outcome = lint_workspace_full(&root).expect("walk workspace");
        assert!(
            outcome.findings.is_empty(),
            "xtask lint found:\n{}",
            outcome
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
