//! Library surface of the workspace automation crate.
//!
//! The binary (`cargo xtask …`) is a thin CLI over these modules; they are
//! also exported as a library so the integration tests (notably the lint
//! fixture corpus under `tests/`) can drive the analyzer directly.
//!
//! Layering, bottom to top:
//!
//! * [`tokenize`] — hand-rolled lexer producing spanned tokens + comments.
//! * [`parse`] — recursive-descent parser grouping tokens into items with
//!   bodies, fields and variants, plus expression extractors.
//! * [`config`] — the lint policy, as code: hot modules, constructor
//!   names, known-infallible fns.
//! * [`callgraph`] — workspace-wide call graph (nodes, resolved edges,
//!   panic/alloc leaves) over the parsed sources.
//! * [`rules`] — the rule implementations over the AST, including the
//!   interprocedural `reachable` pair on top of the call graph.
//! * [`lint`] — the driver: file sweep, suppression comments, and the
//!   findings with the size of the call graph they were checked on.
//! * [`trace_report`] — post-mortem summary of `--trace` JSONL logs.

pub mod callgraph;
pub mod config;
pub mod lint;
pub mod parse;
pub mod rules;
pub mod tokenize;
pub mod trace_report;
