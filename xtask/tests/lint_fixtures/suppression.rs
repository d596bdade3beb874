//@ file: crates/simnet/src/fixture.rs
fn f(d: TimeDelta) -> f64 { d.as_secs_f64() } // lint:allow(float-time)
// lint:allow(panic-path): the caller checked it
fn g(o: Option<u8>) -> u8 { o.unwrap() }
fn h(o: Option<u8>) -> u8 { o.unwrap() }
