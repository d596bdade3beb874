//@ file: crates/simnet/src/fixture.rs
// A directive must name a rule of this lint: a misspelt or retired name
// suppresses nothing and is reported where it stands.
fn f(d: TimeDelta) -> f64 { d.as_secs_f64() } // lint:allow(float_time)
// lint:allow(wall-clock): retired; clippy.toml bans Instant now
fn g() {}
/* lint:allow(panic-path, hash-collections) */
fn h(o: Option<u8>) -> u8 { o.unwrap() }
