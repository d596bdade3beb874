//@ file: crates/simnet/src/fixture.rs
// FP regression (panic-path, float-time): prose in comments and string
// literals must never produce findings.
/// Unlike `x.unwrap()`, this never panics.
fn f() -> &'static str {
    "calls d.as_secs_f64() and then unwrap()"
}
/* panic!() inside /* a nested */ block comment */
fn g() -> &'static str {
    r#"panic!("unreachable")"#
}
