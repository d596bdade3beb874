//! `alloc-in-datapath`: allocation-shaped expressions in the hot per-event
//! modules (`LintConfig::hot_modules`).
//!
//! The rule classifies every fn body in a hot module, excluding test code
//! and *constructors* (named `new`/`default`, prefixed `new_`/`with_`, or
//! returning `Self`/the impl type): constructors are exactly where
//! preallocation is supposed to happen. Inside the remaining bodies it
//! flags:
//!
//! * container/box construction: `Vec::new`, `Vec::with_capacity`,
//!   `Box::new`, `String::from`, … (any configured-alloc type × ctor);
//! * the allocating macros `vec![…]` and `format!(…)`;
//! * copying conversions: `.to_vec()`, `.to_string()`, `.to_owned()`,
//!   `.collect()`, and every `.clone()`. A clone of a `Copy` value is
//!   clippy's `clone_on_copy` (denied in the workspace `Cargo.toml`), so
//!   any `.clone()` that compiles clean is one this rule should see.
//!
//! Growth (`push`, `insert`, `reserve`, …) is not flagged: a `push` on a
//! buffer that has reached its steady-state size does not allocate. The
//! counting-allocator test (`tests/alloc_free_datapath.rs`) is the dynamic
//! counterpart that catches growth past warm-up.

use super::{Cand, FileCtx, FnScope, WHY_ALLOC};

/// Types whose associated constructors allocate.
const ALLOC_TYPES: &[&str] = &[
    "Box",
    "Vec",
    "VecDeque",
    "String",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "Rc",
    "Arc",
];

/// Associated fns on [`ALLOC_TYPES`] that allocate.
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Copying conversion methods.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone"];

/// Emits the allocation sites of the file's non-constructor hot fn bodies
/// as `alloc-in-datapath` candidates.
pub fn candidates(ctx: &FileCtx, out: &mut Vec<Cand>) {
    if !ctx.hot_module {
        return;
    }
    for scope in &ctx.fns {
        if scope.in_test || is_constructor(ctx, scope) {
            continue;
        }
        let mut sites = classify_scope(ctx, scope);
        sites.sort_unstable();
        sites.dedup();
        out.extend(sites.into_iter().map(|(tok, _)| Cand {
            tok,
            rule: "alloc-in-datapath",
            why: WHY_ALLOC,
        }));
    }
}

/// Classifies one fn scope's allocation sites regardless of module
/// hotness or constructor status: `(token, kind)` pairs. The file-local
/// rule applies the hot/constructor policy on top; the call-graph rule
/// (`alloc-reachable`) takes them as leaves wherever the scope is
/// reachable from a datapath entry.
pub fn classify_scope(ctx: &FileCtx, scope: &FnScope) -> Vec<(usize, String)> {
    let (bs, be) = scope.body;
    let mut out = Vec::new();
    for p in &ctx.paths {
        let first = p.segs[0].0;
        if first < bs || first >= be {
            continue;
        }
        if p.is_macro && matches!(p.last(), "vec" | "format") {
            out.push((p.last_tok(), format!("{}!", p.last())));
            continue;
        }
        if p.is_call {
            for w in p.segs.windows(2) {
                if ALLOC_TYPES.contains(&w[0].1.as_str()) && ALLOC_CTORS.contains(&w[1].1.as_str())
                {
                    out.push((w[1].0, format!("{}::{}", w[0].1, w[1].1)));
                    break;
                }
            }
        }
    }
    for m in &ctx.methods {
        if m.tok < bs || m.tok >= be {
            continue;
        }
        if ALLOC_METHODS.contains(&m.name.as_str()) {
            out.push((m.tok, m.name.clone()));
        }
    }
    out
}

/// Constructors are exempt: fns named per config, or returning `Self` /
/// the impl type.
pub fn is_constructor(ctx: &FileCtx, scope: &FnScope) -> bool {
    let name = scope.item.name.as_str();
    if ctx.cfg.constructor_names.iter().any(|n| n == name) {
        return true;
    }
    if ctx
        .cfg
        .constructor_prefixes
        .iter()
        .any(|p| name.starts_with(p.as_str()))
    {
        return true;
    }
    // Return type mentions Self or the owner type.
    let sig = (scope.item.sig_start, scope.item.sig_end());
    let mut after_arrow = false;
    for i in sig.0..sig.1.min(ctx.toks.len()) {
        let t = &ctx.toks[i];
        if t.text == "->" {
            after_arrow = true;
        } else if after_arrow && (t.text == "Self" || scope.owner.is_some_and(|o| o == t.text)) {
            return true;
        }
    }
    false
}
