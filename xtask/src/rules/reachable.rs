//! `panic-reachable` / `alloc-reachable`: interprocedural twins of
//! `panic-path` and `alloc-in-datapath`, run over the workspace call graph
//! (`crate::callgraph`).
//!
//! Entry points are every non-test, non-constructor fn defined in a hot
//! module (`LintConfig::hot_modules`). A BFS from the entries must reach
//! no panic or allocation leaf; each violation reports the *shortest*
//! witness chain `entry -> f -> g` ending at the leaf's file, kind, and
//! source line. The chain text deliberately omits line numbers: the
//! finding's own position anchors it at the entry.
//!
//! Leaves inside hot-module files are *not* reported here — the file-local
//! rules already flag them — so the interprocedural rules cover exactly
//! the cross-file blind spot. A `lint:allow(panic-path)` /
//! `lint:allow(panic-reachable)` (or the `alloc-*` pair) on the leaf
//! itself removes it from the leaf set, with the same adjacency rules as
//! every other suppression.

use std::collections::VecDeque;

use crate::callgraph::{self, Family, Graph};
use crate::config::LintConfig;
use crate::lint::Finding;

use super::{WHY_ALLOC_REACH, WHY_PANIC_REACH};

/// The witnesses of `graph`, one finding per reachable leaf, anchored at
/// the entry of its shortest chain.
pub fn findings(graph: &Graph) -> Vec<Finding> {
    let mut entry_ids: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| graph.fns[i].hot && !graph.fns[i].is_ctor)
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
            if seen[v] {
                continue;
            }
            seen[v] = true;
            parent[v] = Some(u);
            queue.push_back(v);
        }
    }

    let mut findings = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        // Leaves in hot files are the file-local rules' business; the
        // interprocedural rules cover exactly the cross-file remainder.
        if !seen[id] || node.hot || node.leaves.is_empty() {
            continue;
        }
        let mut chain = vec![node.qname.as_str()];
        let mut root = id;
        while let Some(p) = parent[root] {
            root = p;
            chain.push(&graph.fns[root].qname);
        }
        chain.reverse();
        let entry = &graph.fns[root];
        for l in &node.leaves {
            let (rule, why) = match l.family {
                Family::Panic => ("panic-reachable", WHY_PANIC_REACH),
                Family::Alloc => ("alloc-reachable", WHY_ALLOC_REACH),
            };
            findings.push(Finding {
                file: entry.file.clone(),
                line: entry.line,
                col: entry.col,
                rule,
                text: format!(
                    "{}\n  -> {} [{}] {}",
                    chain.join(" -> "),
                    node.file,
                    l.kind,
                    l.text
                ),
                why,
            });
        }
    }
    findings
}

/// The findings over `(path, source)` pairs, for the fixture harness.
pub fn check_sources(sources: &[(String, String)], cfg: &LintConfig) -> Vec<Finding> {
    findings(&callgraph::build(sources, cfg))
}
