//! Nondeterminism sources: `hash-collections`, `wall-clock`,
//! `ambient-rng`, `thread-spawn`, `sync-locks`.
//!
//! All five are *path* rules: a bare `HashMap` in an expression or type
//! position, `std::time::Instant`, `rand::thread_rng` / `rand::random`,
//! any `std::thread` path, and `std::sync::Mutex` / `RwLock` in the
//! configured lock-free modules. Matching on parsed path segments (instead
//! of raw adjacent tokens) is what lets `thread::spawn` on a *locally
//! aliased* module stay unflagged while `use std::{thread, …}` — invisible
//! to the token pass, which only saw `std :: thread` spelled out — is now
//! caught through the expanded use-tree.
//!
//! Two file-scoped gates from `LintConfig`: `thread-spawn`
//! is skipped in the blessed thread homes (the parallel engine's domain
//! runners), and `sync-locks` fires only in the lock-free modules, where
//! a blocking lock is either a hot-path serialization point or a deadlock
//! risk at the engine's window barriers (channels + barriers only).

use crate::parse::ItemKind;

use super::{Cand, FileCtx, WHY_CLOCK, WHY_HASH, WHY_LOCKS, WHY_RNG, WHY_THREAD};

/// Path prefixes under which the hash collections live.
const HASH_PREFIXES: &[&str] = &["std", "collections", "hash_map", "hash_set"];

/// Path prefixes under which the wall clocks live.
const CLOCK_PREFIXES: &[&str] = &["std", "time"];

/// Path prefixes under which the blocking locks live.
const LOCK_PREFIXES: &[&str] = &["std", "sync"];

pub fn candidates(ctx: &FileCtx, out: &mut Vec<Cand>) {
    // File-scoped gates: blessed thread homes drop `thread-spawn`, and
    // `sync-locks` only applies inside the lock-free modules.
    let keep = |c: &Cand| match c.rule {
        "thread-spawn" => !ctx.thread_home,
        "sync-locks" => ctx.lock_free,
        _ => true,
    };
    // Expression/type positions (everything outside `use` declarations).
    for p in &ctx.paths {
        for (si, (tok, seg)) in p.segs.iter().enumerate() {
            if ctx.exempt[*tok] || ctx.def_name[*tok] {
                continue;
            }
            let prev = if si == 0 {
                None
            } else {
                Some(p.segs[si - 1].1.as_str())
            };
            if let Some(c) = classify(seg, prev, *tok) {
                if keep(&c) {
                    out.push(c);
                }
            }
        }
    }
    // `use` declarations, through the expanded tree — this sees the full
    // path of every leaf even in grouped imports.
    ctx.ast.walk(&mut |item, in_test| {
        if item.kind != ItemKind::Use || in_test {
            return;
        }
        for up in &item.use_paths {
            for (si, seg) in up.segs.iter().enumerate() {
                let prev = if si == 0 {
                    None
                } else {
                    Some(up.segs[si - 1].as_str())
                };
                // Anchor at the leaf: it's the only per-leaf token the
                // tree expansion keeps, and it is on the offending line.
                if let Some(c) = classify(seg, prev, up.anchor) {
                    if keep(&c) {
                        out.push(c);
                    }
                    break; // one finding per leaf
                }
            }
        }
    });
}

/// Classifies one path segment given the segment before it. `None` means
/// the name is used bare (imported or local), which counts for the type
/// names but not for `random`/`thread` (too generic bare).
fn classify(seg: &str, prev: Option<&str>, tok: usize) -> Option<Cand> {
    let cand = |rule, why| Some(Cand { tok, rule, why });
    match seg {
        "HashMap" | "HashSet"
            if prev.is_none() || prev.is_some_and(|p| HASH_PREFIXES.contains(&p)) =>
        {
            cand("hash-collections", WHY_HASH)
        }
        "Instant" | "SystemTime"
            if prev.is_none() || prev.is_some_and(|p| CLOCK_PREFIXES.contains(&p)) =>
        {
            cand("wall-clock", WHY_CLOCK)
        }
        "thread_rng" if prev.is_none() || prev == Some("rand") => cand("ambient-rng", WHY_RNG),
        "random" if prev == Some("rand") => cand("ambient-rng", WHY_RNG),
        "thread" if prev == Some("std") => cand("thread-spawn", WHY_THREAD),
        "Mutex" | "RwLock"
            if prev.is_none() || prev.is_some_and(|p| LOCK_PREFIXES.contains(&p)) =>
        {
            cand("sync-locks", WHY_LOCKS)
        }
        _ => None,
    }
}
