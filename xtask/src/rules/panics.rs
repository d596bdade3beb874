//! `panic-path`: explicit and implicit panic sites in simulation code.
//!
//! Explicit sites — `panic!` / `unreachable!` macros, `.unwrap()` (method
//! or path call), and `.expect("")` with an *empty or whitespace-only*
//! rationale — are flagged in every linted file. A `.expect` that states a
//! real rationale is allowed, as are the non-panicking `unwrap_or*` family
//! (they simply aren't named `unwrap`).
//!
//! Implicit sites — subscripts (`x[i]`, including slicing) and bare `/` /
//! `%` on non-literal operands — are flagged only inside the hot modules
//! (`LintConfig::hot_modules`): there an out-of-range index or a
//! zero divisor aborts the event loop mid-run. Divisions whose adjacent
//! operand is a float literal, or whose divisor is a nonzero integer
//! literal, cannot panic and are skipped; divisions on variables the rule
//! cannot type (e.g. two `f64` locals) need a `lint:allow(panic-path)`
//! rationale. Outside the hot modules the same implicit sites still feed
//! the transitive `panic-reachable` rule's leaf set (see
//! `crate::callgraph`).
//!
//! Ported false-positive fix: a *definition* of a fn named `unwrap` (e.g.
//! an infallible accessor on a sim type) is no longer flagged — the item's
//! own name is not a call.

use crate::parse;
use crate::tokenize::Kind;

use super::{Cand, FileCtx, WHY_PANIC};

/// One potential panic site, pre-suppression.
#[derive(Debug, Clone, Copy)]
pub struct PanicSite {
    /// Anchor token index.
    pub tok: usize,
    /// Classification: `panic!`, `unreachable!`, `unwrap`, `expect-empty`,
    /// `index`, `int-div`.
    pub kind: &'static str,
    /// Implicit sites (`index`, `int-div`) are file-local findings only in
    /// hot modules; explicit sites are flagged everywhere.
    pub implicit: bool,
}

/// Every panic site in the file, excluding `#[cfg(test)]` code and item
/// definitions. This is the shared leaf set: `candidates` turns it into
/// file-local `panic-path` findings, and the call-graph rule
/// (`panic-reachable`) consumes it transitively.
pub fn sites(ctx: &FileCtx) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for p in &ctx.paths {
        let t = p.last_tok();
        if ctx.exempt[t] || ctx.def_name[t] {
            continue;
        }
        if p.is_macro && matches!(p.last(), "panic" | "unreachable") {
            out.push(PanicSite {
                tok: t,
                kind: if p.last() == "panic" {
                    "panic!"
                } else {
                    "unreachable!"
                },
                implicit: false,
            });
        } else if p.is_call && p.last() == "unwrap" {
            out.push(PanicSite {
                tok: t,
                kind: "unwrap",
                implicit: false,
            });
        }
    }

    let code = parse::code_indices(ctx.toks, (0, ctx.toks.len()));
    // Position of each code token in `code`, for prev/next lookups.
    let mut pos = vec![usize::MAX; ctx.toks.len()];
    for (i, &t) in code.iter().enumerate() {
        pos[t] = i;
    }

    for m in &ctx.methods {
        if ctx.exempt[m.tok] {
            continue;
        }
        if m.name == "unwrap" {
            out.push(PanicSite {
                tok: m.tok,
                kind: "unwrap",
                implicit: false,
            });
        } else if m.name == "expect" && empty_expect_rationale(ctx, &code, &pos, m.tok) {
            out.push(PanicSite {
                tok: m.tok,
                kind: "expect-empty",
                implicit: false,
            });
        }
    }

    // Implicit sites: subscripts and bare `/` / `%` inside fn bodies.
    for (i, &ti) in code.iter().enumerate() {
        let t = &ctx.toks[ti];
        if t.kind != Kind::Punct || ctx.exempt[ti] || !ctx.in_body[ti] {
            continue;
        }
        match t.text.as_str() {
            "[" => {
                // Indexing, not an array/slice literal, type, or pattern:
                // the subscript follows a value expression.
                let indexes = i > 0
                    && code.get(i - 1).is_some_and(|&p| {
                        let prev = &ctx.toks[p];
                        matches!(prev.text.as_str(), ")" | "]")
                            || (prev.kind == Kind::Ident && !is_keyword(&prev.text))
                    });
                if indexes {
                    out.push(PanicSite {
                        tok: ti,
                        kind: "index",
                        implicit: true,
                    });
                }
            }
            "/" | "%" | "/=" | "%=" => {
                let prev_float = i > 0
                    && code.get(i - 1).is_some_and(|&p| {
                        ctx.toks[p].kind == Kind::Num && is_float_literal(&ctx.toks[p].text)
                    });
                let divisor_safe = code.get(i + 1).is_some_and(|&nx| {
                    let n = &ctx.toks[nx];
                    n.kind == Kind::Num
                        && (is_float_literal(&n.text) || is_nonzero_int_literal(&n.text))
                });
                if !prev_float && !divisor_safe {
                    out.push(PanicSite {
                        tok: ti,
                        kind: "int-div",
                        implicit: true,
                    });
                }
            }
            _ => {}
        }
    }

    out.sort_by_key(|s| s.tok);
    out.dedup_by_key(|s| s.tok);
    out
}

pub fn candidates(ctx: &FileCtx, out: &mut Vec<Cand>) {
    for s in sites(ctx) {
        if s.implicit && !ctx.hot_module {
            continue;
        }
        out.push(Cand {
            tok: s.tok,
            rule: "panic-path",
            why: WHY_PANIC,
        });
    }
}

/// True when the `.expect(...)` at `tok` passes an empty or whitespace-only
/// string literal. Non-literal arguments are left alone — they at least
/// name *something*.
fn empty_expect_rationale(ctx: &FileCtx, code: &[usize], pos: &[usize], tok: usize) -> bool {
    let Some(&i) = pos.get(tok) else { return false };
    if i == usize::MAX {
        return false;
    }
    // `expect` then `(` then the argument; turbofish never appears here.
    if !matches!(code.get(i + 1), Some(&o) if ctx.toks[o].text == "(") {
        return false;
    }
    // The tokenizer stores `Str` tokens quote-stripped, so the text IS the
    // literal's content.
    match code.get(i + 2) {
        Some(&a) if ctx.toks[a].kind == Kind::Str => ctx.toks[a].text.trim().is_empty(),
        _ => false,
    }
}

/// Keywords that may directly precede `[` without it being indexing
/// (patterns, array types, expressions like `return [..]`).
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "let"
            | "mut"
            | "ref"
            | "in"
            | "if"
            | "else"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "loop"
            | "while"
            | "for"
            | "move"
            | "as"
            | "dyn"
            | "impl"
            | "where"
            | "unsafe"
            | "box"
            | "const"
            | "static"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "crate"
            | "super"
    )
}

fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b") {
        return false;
    }
    text.contains('.')
        || text.contains('e')
        || text.contains('E')
        || text.ends_with("f32")
        || text.ends_with("f64")
}

fn is_nonzero_int_literal(text: &str) -> bool {
    if is_float_literal(text) {
        return false;
    }
    let t = text
        .strip_prefix("0x")
        .or_else(|| text.strip_prefix("0o"))
        .or_else(|| text.strip_prefix("0b"))
        .unwrap_or(text);
    t.chars()
        .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
        .any(|c| matches!(c, '1'..='9' | 'a'..='f' | 'A'..='F'))
}
