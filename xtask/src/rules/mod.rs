//! The lint rules, run over the parsed AST.
//!
//! Each submodule contributes *candidates* — `(token, rule, rationale)`
//! triples — from one family of checks; the driver in `lint.rs` applies
//! `lint:allow` suppression on top. Splitting candidates
//! from findings keeps every rule a pure function of the token stream +
//! AST, which is what the fixture corpus pins down.
//!
//! Rule families (the determinism bans — hash collections, wall clocks,
//! threads, blocking locks — are clippy's, in `clippy.toml`):
//!
//! * [`units`] — `float-time`, `raw-cast`, `unit-mixing`,
//!   `raw-header-size`: byte/time unit-discipline checks.
//! * [`panics`] — `panic-path`: panics, `.unwrap()`, empty `.expect("")`
//!   rationales, and (in hot modules) subscripts and bare `/` / `%` as
//!   implicit panic sites.
//! * [`alloc`] — `alloc-in-datapath`: allocation-shaped expressions in the
//!   hot per-event modules.
//! * [`reachable`] — `panic-reachable` / `alloc-reachable`: interprocedural
//!   twins of `panic-path` and `alloc-in-datapath` over the workspace call
//!   graph (`crate::callgraph`), reporting shortest witness chains from
//!   the datapath entry points (workspace level, not per file).

pub mod alloc;
pub mod panics;
pub mod reachable;
pub mod units;

use crate::config::LintConfig;
use crate::parse::{self, Ast, Item, ItemKind, MethodCall, PathRef};
use crate::tokenize::Tok;

pub const WHY_FLOAT_TIME: &str =
    "float time arithmetic outside simcore::time; keep time in integer ns";
pub const WHY_RAW_CAST: &str =
    "bare numeric cast on a byte/time quantity; convert through simcore::units / simcore::time";
pub const WHY_PANIC: &str =
    "panic in simulation code; handle the case or justify with lint:allow(panic-path)";
pub const WHY_MIXING: &str =
    "arithmetic mixing wire bytes and payload bytes; cross domains in simnet::consts only";
pub const WHY_HEADER_SIZE: &str =
    "raw header/frame-size literal; use simnet::consts (DATA_HEADER_WIRE / CTRL_WIRE / DATA_WIRE)";
pub const WHY_ALLOC: &str =
    "allocation in the per-event datapath; preallocate in a constructor or reuse a buffer";
pub const WHY_PANIC_REACH: &str =
    "panic reachable from a datapath entry point; make the chain infallible or justify the \
     leaf with a lint:allow";
pub const WHY_ALLOC_REACH: &str =
    "allocation reachable from a datapath entry point; preallocate, hoist the allocation out \
     of the chain, or justify the leaf with a lint:allow";

/// The only file allowed to define/use the float↔time conversions.
pub const FLOAT_TIME_HOME: &str = "crates/simcore/src/time.rs";

/// Files whose whole point is unit conversion: the typed-units layer, the
/// time layer, and the blessed payload↔wire crossing. `raw-cast`,
/// `unit-mixing` and `raw-header-size` do not apply there.
pub const UNIT_HOMES: &[&str] = &[
    "crates/simcore/src/units.rs",
    "crates/simcore/src/time.rs",
    "crates/simnet/src/consts.rs",
];

/// One pre-suppression rule candidate, anchored at a token.
#[derive(Debug, Clone, Copy)]
pub struct Cand {
    pub tok: usize,
    pub rule: &'static str,
    pub why: &'static str,
}

/// One function's body plus the context rules need to reason about it.
pub struct FnScope<'a> {
    pub item: &'a Item,
    /// Inherited `#[cfg(test)]`.
    pub in_test: bool,
    /// Enclosing `impl` type name, when the fn is a method.
    pub owner: Option<&'a str>,
    /// Body token range.
    pub body: (usize, usize),
}

/// Everything the per-file rules see: tokens, AST, config, and the derived
/// per-token flags each rule shares.
pub struct FileCtx<'a> {
    pub file: &'a str,
    pub toks: &'a [Tok],
    pub ast: &'a Ast,
    pub cfg: &'a LintConfig,
    /// Token is inside a `#[cfg(test)]` item (attributes included).
    pub exempt: Vec<bool>,
    /// Token is an item's own name (definitions are not uses).
    pub def_name: Vec<bool>,
    /// Token is inside an attribute's token tree.
    pub in_attr: Vec<bool>,
    /// Token is inside a fn body or const/static initializer.
    pub in_body: Vec<bool>,
    /// All path references outside `use` items.
    pub paths: Vec<PathRef>,
    /// All method calls in the file.
    pub methods: Vec<MethodCall>,
    /// Fn bodies and const/static initializers with their test flag
    /// (expression-scoped rules run over these).
    pub bodies: Vec<(usize, usize, bool)>,
    /// Fn scopes, for the alloc rule and the call graph.
    pub fns: Vec<FnScope<'a>>,
    /// File matches the configured hot-module list.
    pub hot_module: bool,
    pub float_home: bool,
    pub unit_home: bool,
}

impl<'a> FileCtx<'a> {
    pub fn new(file: &'a str, toks: &'a [Tok], ast: &'a Ast, cfg: &'a LintConfig) -> Self {
        let n = toks.len();
        let mut exempt = vec![false; n];
        let mut def_name = vec![false; n];
        let mut in_use = vec![false; n];
        let mut in_body = vec![false; n];
        let mut bodies = Vec::new();
        ast.walk(&mut |item, in_test| {
            if in_test {
                for f in exempt.iter_mut().take(item.end.min(n)).skip(item.start) {
                    *f = true;
                }
            }
            if let Some(t) = item.name_tok {
                if t < n {
                    def_name[t] = true;
                }
            }
            if item.kind == ItemKind::Use {
                for f in in_use.iter_mut().take(item.end.min(n)).skip(item.start) {
                    *f = true;
                }
            }
            if matches!(item.kind, ItemKind::Fn | ItemKind::Const | ItemKind::Static) {
                if let Some((bs, be)) = item.body {
                    for f in in_body.iter_mut().take(be.min(n)).skip(bs) {
                        *f = true;
                    }
                    bodies.push((bs, be, in_test));
                }
            }
        });
        // Attribute spans: everything each_code_tok skips.
        let mut in_attr = vec![true; n];
        parse::each_code_tok(toks, (0, n), |i| in_attr[i] = false);

        let mut fns = Vec::new();
        collect_fns(&ast.items, false, None, &mut fns);

        let paths = parse::paths_in(toks, (0, n))
            .into_iter()
            .filter(|p| !in_use[p.segs[0].0])
            .collect();
        let methods = parse::method_calls_in(toks, (0, n));

        FileCtx {
            file,
            toks,
            ast,
            cfg,
            exempt,
            def_name,
            in_attr,
            in_body,
            paths,
            methods,
            bodies,
            fns,
            hot_module: cfg.hot_modules.iter().any(|m| file.ends_with(m.as_str())),
            float_home: file.ends_with(FLOAT_TIME_HOME),
            unit_home: UNIT_HOMES.iter().any(|h| file.ends_with(h)),
        }
    }
}

fn collect_fns<'a>(
    items: &'a [Item],
    in_test: bool,
    owner: Option<&'a str>,
    out: &mut Vec<FnScope<'a>>,
) {
    for it in items {
        let t = in_test || it.cfg_test;
        match it.kind {
            ItemKind::Fn => {
                if let Some(body) = it.body {
                    out.push(FnScope {
                        item: it,
                        in_test: t,
                        owner,
                        body,
                    });
                }
            }
            ItemKind::Impl => collect_fns(&it.children, t, Some(it.name.as_str()), out),
            ItemKind::Mod | ItemKind::Trait => collect_fns(&it.children, t, owner, out),
            _ => {}
        }
    }
}

/// Runs every per-file rule, returning deduplicated, position-sorted
/// candidates.
pub fn run_file_rules(ctx: &FileCtx) -> Vec<Cand> {
    let mut cands = Vec::new();
    units::candidates(ctx, &mut cands);
    panics::candidates(ctx, &mut cands);
    alloc::candidates(ctx, &mut cands);
    cands.sort_by_key(|c| (c.tok, c.rule));
    cands.dedup_by_key(|c| (c.tok, c.rule));
    cands
}
