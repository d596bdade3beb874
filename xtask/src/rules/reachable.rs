//! `panic-reachable` / `alloc-reachable`: interprocedural twins of
//! `panic-path` and `alloc-in-datapath`, run over the workspace call graph
//! (`crate::callgraph`).
//!
//! Entry points are every non-test, non-constructor fn defined in a hot
//! module (`LintConfig::hot_modules`). A BFS from the entries must reach
//! no panic or allocation leaf; each violation reports the *shortest*
//! witness chain `entry -> f -> g` ending at the leaf's file, kind, and
//! source line. The chain text deliberately omits line numbers, which the
//! finding's own position and the `--report callgraph` JSON carry.
//!
//! Leaves inside hot-module files are *not* reported here — the file-local
//! rules already flag them — so the interprocedural rules cover exactly
//! the cross-file blind spot. Fns named in `LintConfig::known_infallible`
//! are not traversed into: the allowlist is for hand-proven helpers (e.g.
//! masked ring indexing) where a `lint:allow` at every call site would be
//! noise. A `lint:allow(panic-path)` / `lint:allow(panic-reachable)` (or
//! the `alloc-*` pair) on the leaf itself also removes it from the leaf
//! set, with the same adjacency rules as every other suppression.

use std::collections::VecDeque;

use crate::callgraph::{self, Family};
use crate::config::LintConfig;
use crate::lint::Finding;

use super::{WHY_ALLOC_REACH, WHY_PANIC_REACH};

/// One witness: the shortest call chain from an entry point to a leaf.
#[derive(Debug, Clone)]
pub struct Witness {
    pub rule: &'static str,
    /// Entry qname plus its definition site (the finding anchor).
    pub entry: String,
    pub entry_file: String,
    pub entry_line: usize,
    pub entry_col: usize,
    /// Qnames from the entry to the leaf's enclosing fn.
    pub chain: Vec<String>,
    /// Leaf position.
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub kind: String,
    pub text: String,
}

impl Witness {
    /// The finding text: chain + leaf, no line numbers.
    pub fn chain_text(&self) -> String {
        format!(
            "{}\n  -> {} [{}] {}",
            self.chain.join(" -> "),
            self.file,
            self.kind,
            self.text
        )
    }
}

/// Deterministic summary for `--report callgraph`.
#[derive(Debug, Default)]
pub struct CallgraphReport {
    pub fn_count: usize,
    pub edge_count: usize,
    /// Entry-point qnames, sorted and deduplicated.
    pub entries: Vec<String>,
    /// All witnesses, sorted.
    pub witnesses: Vec<Witness>,
}

/// Runs the interprocedural analysis over `(path, source)` pairs,
/// returning the per-rule findings and the full report.
pub fn analyze(sources: &[(String, String)], cfg: &LintConfig) -> (Vec<Finding>, CallgraphReport) {
    let graph = callgraph::build(sources, cfg);

    let mut entry_ids: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| {
            let f = &graph.fns[i];
            !f.infallible && f.hot && !f.is_ctor
        })
        .collect();
    entry_ids.sort_by(|&a, &b| {
        (&graph.fns[a].qname, &graph.fns[a].file).cmp(&(&graph.fns[b].qname, &graph.fns[b].file))
    });

    // Multi-source BFS. First discovery wins: minimum depth, ties broken
    // by entry qname order (sources are enqueued sorted) and then by
    // callee qname (adjacency is sorted).
    let mut parent: Vec<Option<usize>> = vec![None; graph.fns.len()];
    let mut seen = vec![false; graph.fns.len()];
    let mut queue = VecDeque::new();
    for &e in &entry_ids {
        if !seen[e] {
            seen[e] = true;
            queue.push_back(e);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &graph.fns[u].callees {
            if seen[v] || graph.fns[v].infallible {
                continue;
            }
            seen[v] = true;
            parent[v] = Some(u);
            queue.push_back(v);
        }
    }

    let mut witnesses = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        // Leaves in hot files are the file-local rules' business; the
        // interprocedural rules cover exactly the cross-file remainder.
        if !seen[id] || node.hot || node.leaves.is_empty() {
            continue;
        }
        let mut chain = vec![node.qname.clone()];
        let mut root = id;
        while let Some(p) = parent[root] {
            root = p;
            chain.push(graph.fns[root].qname.clone());
        }
        chain.reverse();
        let entry = &graph.fns[root];
        for l in &node.leaves {
            witnesses.push(Witness {
                rule: match l.family {
                    Family::Panic => "panic-reachable",
                    Family::Alloc => "alloc-reachable",
                },
                entry: entry.qname.clone(),
                entry_file: entry.file.clone(),
                entry_line: entry.line,
                entry_col: entry.col,
                chain: chain.clone(),
                file: node.file.clone(),
                line: l.line,
                col: l.col,
                kind: l.kind.clone(),
                text: l.text.clone(),
            });
        }
    }
    witnesses.sort_by(|a, b| {
        (a.rule, &a.file, a.line, a.col, &a.kind, &a.entry)
            .cmp(&(b.rule, &b.file, b.line, b.col, &b.kind, &b.entry))
    });

    let findings = witnesses
        .iter()
        .map(|w| Finding {
            file: w.entry_file.clone(),
            line: w.entry_line,
            col: w.entry_col,
            rule: w.rule,
            text: w.chain_text(),
            why: match w.rule {
                "panic-reachable" => WHY_PANIC_REACH,
                _ => WHY_ALLOC_REACH,
            },
        })
        .collect();

    let mut entries: Vec<String> = entry_ids
        .iter()
        .map(|&i| graph.fns[i].qname.clone())
        .collect();
    entries.dedup();

    let report = CallgraphReport {
        fn_count: graph.fns.len(),
        edge_count: graph.edge_count,
        entries,
        witnesses,
    };
    (findings, report)
}

/// The findings alone, for the fixture harness.
pub fn check_sources(sources: &[(String, String)], cfg: &LintConfig) -> Vec<Finding> {
    analyze(sources, cfg).0
}
