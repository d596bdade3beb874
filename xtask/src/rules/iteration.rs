//! `unordered-iteration`: loops and iterator-method calls over types
//! outside the ordered-collections allowlist (`LintConfig::ordered_types`)
//! in deterministic code.
//!
//! `hash-collections` already bans the std hash types wholesale; this rule
//! closes the gap for *other* unordered sources — third-party maps, slab
//! re-use patterns, custom containers — at the point where their order
//! actually leaks into event processing: iteration.
//!
//! Resolution is deliberately conservative. A receiver or iterated
//! expression is checked only when its type can be resolved from a `let`
//! ascription, a typed fn parameter, or a `self.field` whose struct is
//! defined in the same file; everything else is skipped, never guessed.
//! Ranges (`0..n`) and call-result expressions in `for` headers are
//! skipped too (the latter are covered by the method-call scan when the
//! receiver is resolvable).

use std::collections::BTreeMap;

use crate::parse::{for_loops_in, let_types_in, method_calls_in, param_types_in};
use crate::tokenize::Kind;

use super::{Cand, FileCtx, FnScope, WHY_ITER};

/// Iterator-producing methods worth checking on a resolved receiver.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

pub fn candidates(ctx: &FileCtx, out: &mut Vec<Cand>) {
    for scope in &ctx.fns {
        if scope.in_test {
            continue;
        }
        let env = fn_env(ctx, scope);
        for fl in for_loops_in(ctx.toks, scope.body) {
            if let Some(ty) = iterated_type(ctx, scope, &env, fl.iter) {
                if !ctx.ordered(&ty) {
                    out.push(Cand {
                        tok: fl.tok,
                        rule: "unordered-iteration",
                        why: WHY_ITER,
                    });
                }
            }
        }
        for m in method_calls_in(ctx.toks, scope.body) {
            if !ITER_METHODS.contains(&m.name.as_str()) {
                continue;
            }
            let ty = match (&m.recv_root, &m.recv_field) {
                (Some(root), None) if root == "self" => None,
                (Some(root), Some(field)) if root == "self" => {
                    scope.owner.and_then(|o| ctx.struct_field_type(o, field))
                }
                (Some(root), None) => env.get(root.as_str()).cloned(),
                _ => None,
            };
            if let Some(ty) = ty {
                if !ctx.ordered(&ty) {
                    out.push(Cand {
                        tok: m.tok,
                        rule: "unordered-iteration",
                        why: WHY_ITER,
                    });
                }
            }
        }
    }
}

impl FileCtx<'_> {
    fn ordered(&self, ty: &str) -> bool {
        self.cfg.ordered_types.iter().any(|t| t == ty)
    }
}

fn fn_env(ctx: &FileCtx, scope: &FnScope) -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    for (name, ty) in param_types_in(ctx.toks, (scope.item.sig_start, scope.item.sig_end())) {
        env.insert(name, ty);
    }
    for (name, ty) in let_types_in(ctx.toks, scope.body) {
        env.insert(name, ty);
    }
    env
}

/// Resolves the type of a `for … in <expr>` header when the expression is
/// a (possibly borrowed) plain identifier or `self.field`. Ranges and
/// anything ending in a call are skipped.
fn iterated_type(
    ctx: &FileCtx,
    scope: &FnScope,
    env: &BTreeMap<String, String>,
    iter: (usize, usize),
) -> Option<String> {
    let mut names: Vec<&str> = Vec::new();
    let mut dots = 0usize;
    for i in iter.0..iter.1.min(ctx.toks.len()) {
        let t = &ctx.toks[i];
        match t.kind {
            Kind::Punct => match t.text.as_str() {
                "&" | "&&" => {}
                "." => dots += 1,
                ".." | "..=" => return None, // range expression
                _ => return None,            // calls, indexing, tuples, …
            },
            Kind::Ident if t.text == "mut" => {}
            Kind::Ident => names.push(t.text.as_str()),
            _ => return None,
        }
    }
    match (names.as_slice(), dots) {
        ([name], 0) => env.get(*name).cloned(),
        (["self", field], 1) => scope.owner.and_then(|o| ctx.struct_field_type(o, field)),
        _ => None,
    }
}
