//! Workspace-wide call graph over the linted sources.
//!
//! Built on the same tokenizer/parser as the per-file rules: every non-test
//! fn in the linted files becomes a node, and call expressions inside its
//! body become edges, resolved with the declared-type heuristics below. The
//! graph feeds the interprocedural rules in `crate::rules::reachable`
//! (`panic-reachable` / `alloc-reachable`), which BFS from the datapath
//! entry points and report shortest witness chains.
//!
//! Call resolution (best-effort, deterministic — see DESIGN.md §11–12 for
//! the known imprecision):
//!
//! * `self.m(..)` → method `m` on the enclosing impl type;
//! * `Type::f(..)` / `Self::f(..)` → the method on that type (the impl's
//!   Self path root), wherever its impl lives;
//! * `x.m(..)` → method on `x`'s declared type, when a param or `let`
//!   ascription names it;
//! * `self.field.m(..)` / `x.field.m(..)` → method on the field's type
//!   root, via a workspace-wide struct-field registry;
//! * `free_fn(..)` → the same-file free fn, else the unique workspace free
//!   fn of that name;
//! * `module::f(..)` (lowercase qualifier) → the free fn `f` in the file
//!   named `module.rs`, else the unique workspace free fn;
//! * any other method receiver → the unique workspace method of that name,
//!   if exactly one exists. This fallback can invent an edge: a std
//!   `.iter()` or `.next()` resolves to the one workspace method of that
//!   name, even in a crate the caller cannot depend on.
//!
//! Unresolvable calls (trait-object dispatch, fn pointers, closures,
//! macro-generated code) produce no edge. The graph is thus neither sound
//! nor complete, which is why every file of the per-event path is a hot
//! module, checked file by file, and the graph only covers what leaves
//! them; the dynamic allocation count of `tests/alloc_free_datapath.rs`
//! covers the rest.

use std::collections::BTreeMap;

use crate::config::LintConfig;
use crate::lint::Suppressor;
use crate::parse;
use crate::rules::{self, FileCtx, FnScope};
use crate::tokenize::scan;

/// Leaf family: which interprocedural rule the leaf feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Panic,
    Alloc,
}

/// One panic/alloc site inside a fn body, post-`lint:allow` filtering.
#[derive(Debug, Clone)]
pub struct Leaf {
    pub family: Family,
    /// Site classification (`unwrap`, `index`, `int-div`, `Vec::new`, …).
    pub kind: String,
    pub line: usize,
    pub col: usize,
    /// Trimmed source line.
    pub text: String,
}

/// One function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file the fn is defined in.
    pub file: String,
    /// `Owner::name` for methods, plain `name` for free fns.
    pub qname: String,
    /// Position of the fn's name token (witness anchors).
    pub line: usize,
    pub col: usize,
    /// Defined in a hot-module file (candidate entry point).
    pub hot: bool,
    /// Constructor by the alloc rule's definition (never an entry point).
    pub is_ctor: bool,
    /// Resolved callees (node indices), sorted by callee qname.
    pub callees: Vec<usize>,
    pub leaves: Vec<Leaf>,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub fns: Vec<FnNode>,
    pub edge_count: usize,
}

/// Raw (unresolved) call shapes collected per fn in the first pass.
enum RawCall {
    /// `f(..)` — a bare path call.
    Free(String),
    /// `module::f(..)` — lowercase qualifier.
    Mod(String, String),
    /// `Type::f(..)` — uppercase qualifier (Self already substituted).
    Assoc(String, String),
    /// `recv.m(..)` with the receiver chain root/field, if simple.
    Method {
        name: String,
        recv_root: Option<String>,
        recv_field: Option<String>,
    },
}

/// Per-fn facts gathered in the first pass (before cross-file resolution).
struct FnDecl {
    node: FnNode,
    owner: Option<String>,
    name: String,
    file_idx: usize,
    is_free: bool,
    /// Declared types in scope: params and `let` ascriptions.
    env: BTreeMap<String, String>,
    calls: Vec<RawCall>,
}

/// Builds the call graph from `(workspace-relative path, source)` pairs.
/// Deterministic: node order follows the given file order, edges are
/// sorted by callee qname.
pub fn build(sources: &[(String, String)], cfg: &LintConfig) -> Graph {
    let mut decls: Vec<FnDecl> = Vec::new();
    // struct name -> field name -> type root, across all files.
    let mut fields: BTreeMap<(String, String), String> = BTreeMap::new();
    // file basename (module name) -> file indices.
    let mut basenames: BTreeMap<String, Vec<usize>> = BTreeMap::new();

    for (file_idx, (rel, src)) in sources.iter().enumerate() {
        if let Some(stem) = rel.rsplit('/').next().and_then(|f| f.strip_suffix(".rs")) {
            basenames
                .entry(stem.to_string())
                .or_default()
                .push(file_idx);
        }
        let scanned = scan(src);
        let ast = parse::parse(&scanned.tokens);
        let ctx = FileCtx::new(rel, &scanned.tokens, &ast, cfg);
        let suppressor = Suppressor::new(&scanned);
        let lines: Vec<&str> = src.lines().collect();

        ctx.ast.walk(&mut |item, _| {
            if item.kind == parse::ItemKind::Struct {
                for f in &item.fields {
                    fields.insert((item.name.clone(), f.name.clone()), f.ty_root.clone());
                }
            }
        });

        let panic_sites = rules::panics::sites(&ctx);
        for scope in &ctx.fns {
            if scope.in_test {
                continue;
            }
            let (bs, be) = scope.body;
            let name = scope.item.name.clone();
            let qname = match scope.owner {
                Some(o) => format!("{o}::{name}"),
                None => name.clone(),
            };
            let name_tok = scope.item.name_tok.unwrap_or(scope.item.start);
            let t = &ctx.toks[name_tok];

            let mut leaves = Vec::new();
            for s in &panic_sites {
                if s.tok < bs || s.tok >= be {
                    continue;
                }
                if suppressor.suppressed(ctx.toks, s.tok, &["panic-path", "panic-reachable"]) {
                    continue;
                }
                leaves.push(leaf(&ctx, &lines, s.tok, Family::Panic, s.kind.to_string()));
            }
            for (tok, kind) in rules::alloc::classify_scope(&ctx, scope) {
                if suppressor.suppressed(ctx.toks, tok, &["alloc-in-datapath", "alloc-reachable"]) {
                    continue;
                }
                leaves.push(leaf(&ctx, &lines, tok, Family::Alloc, kind));
            }
            leaves.sort_by(|a, b| (a.line, a.col, &a.kind).cmp(&(b.line, b.col, &b.kind)));

            let mut calls = Vec::new();
            for p in &ctx.paths {
                let first = p.segs[0].0;
                if first < bs || first >= be || p.is_macro || !p.is_call {
                    continue;
                }
                if p.segs.len() == 1 {
                    calls.push(RawCall::Free(p.last().to_string()));
                } else {
                    let qual = &p.segs[p.segs.len() - 2].1;
                    let f = p.last().to_string();
                    let qual = if qual == "Self" {
                        scope.owner.map(str::to_string)
                    } else {
                        Some(qual.clone())
                    };
                    match qual {
                        Some(q) if q.starts_with(char::is_uppercase) => {
                            calls.push(RawCall::Assoc(q, f));
                        }
                        Some(q) => calls.push(RawCall::Mod(q, f)),
                        None => calls.push(RawCall::Free(f)),
                    }
                }
            }
            for m in &ctx.methods {
                if m.tok < bs || m.tok >= be {
                    continue;
                }
                calls.push(RawCall::Method {
                    name: m.name.clone(),
                    recv_root: m.recv_root.clone(),
                    recv_field: m.recv_field.clone(),
                });
            }

            decls.push(FnDecl {
                node: FnNode {
                    file: rel.clone(),
                    qname,
                    line: t.line,
                    col: t.col,
                    hot: ctx.hot_module,
                    is_ctor: rules::alloc::is_constructor(&ctx, scope),
                    callees: Vec::new(),
                    leaves,
                },
                owner: scope.owner.map(str::to_string),
                name,
                file_idx,
                is_free: scope.owner.is_none(),
                env: fn_env(&ctx, scope),
                calls,
            });
        }
    }

    // Resolution indices.
    let mut free_local: BTreeMap<(usize, &str), usize> = BTreeMap::new();
    let mut free_global: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut methods_global: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, d) in decls.iter().enumerate() {
        if d.is_free {
            free_local.insert((d.file_idx, d.name.as_str()), id);
            free_global.entry(d.name.as_str()).or_default().push(id);
        } else {
            let owner = d.owner.as_deref().unwrap_or_default();
            methods
                .entry((owner, d.name.as_str()))
                .or_default()
                .push(id);
            methods_global.entry(d.name.as_str()).or_default().push(id);
        }
    }
    let unique = |v: Option<&Vec<usize>>| match v {
        Some(v) if v.len() == 1 => v.first().copied(),
        _ => None,
    };

    let mut edge_count = 0usize;
    let mut all_callees: Vec<Vec<usize>> = Vec::with_capacity(decls.len());
    for d in &decls {
        let mut callees = Vec::new();
        for call in &d.calls {
            let target = match call {
                RawCall::Free(f) => free_local
                    .get(&(d.file_idx, f.as_str()))
                    .copied()
                    .or_else(|| unique(free_global.get(f.as_str()))),
                RawCall::Mod(module, f) => basenames
                    .get(module.as_str())
                    .and_then(|files| {
                        let hits: Vec<usize> = files
                            .iter()
                            .filter_map(|&fi| free_local.get(&(fi, f.as_str())).copied())
                            .collect();
                        unique(Some(&hits))
                    })
                    .or_else(|| unique(free_global.get(f.as_str()))),
                RawCall::Assoc(ty, f) => unique(methods.get(&(ty.as_str(), f.as_str()))),
                RawCall::Method {
                    name,
                    recv_root,
                    recv_field,
                } => {
                    let ty = match (recv_root.as_deref(), recv_field.as_deref()) {
                        (Some("self"), None) => d.owner.clone(),
                        (Some("self"), Some(field)) => d
                            .owner
                            .as_ref()
                            .and_then(|o| fields.get(&(o.clone(), field.to_string())).cloned()),
                        (Some(root), None) => d.env.get(root).cloned(),
                        (Some(root), Some(field)) => d
                            .env
                            .get(root)
                            .and_then(|ty| fields.get(&(ty.clone(), field.to_string())).cloned()),
                        _ => None,
                    };
                    ty.and_then(|ty| unique(methods.get(&(ty.as_str(), name.as_str()))))
                        .or_else(|| unique(methods_global.get(name.as_str())))
                }
            };
            if let Some(id) = target {
                callees.push(id);
            }
        }
        callees.sort_by(|&a, &b| {
            (&decls[a].node.qname, &decls[a].node.file)
                .cmp(&(&decls[b].node.qname, &decls[b].node.file))
        });
        callees.dedup();
        edge_count += callees.len();
        all_callees.push(callees);
    }

    let mut fns: Vec<FnNode> = decls.into_iter().map(|d| d.node).collect();
    for (node, callees) in fns.iter_mut().zip(all_callees) {
        node.callees = callees;
    }
    Graph { fns, edge_count }
}

fn leaf(ctx: &FileCtx, lines: &[&str], tok: usize, family: Family, kind: String) -> Leaf {
    let t = &ctx.toks[tok];
    Leaf {
        family,
        kind,
        line: t.line,
        col: t.col,
        text: lines
            .get(t.line - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
    }
}

/// Declared types in scope: params and `let` ascriptions.
fn fn_env(ctx: &FileCtx, scope: &FnScope) -> BTreeMap<String, String> {
    let sig = (scope.item.sig_start, scope.item.sig_end());
    parse::param_types_in(ctx.toks, sig)
        .into_iter()
        .chain(parse::let_types_in(ctx.toks, scope.body))
        .collect()
}
