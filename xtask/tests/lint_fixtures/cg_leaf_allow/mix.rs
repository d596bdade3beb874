//@ file: crates/simnet/src/mix.rs
pub fn first(xs: &[u64; 4]) -> u64 {
    // lint:allow(panic-reachable): a fixed-size array has an index 0.
    xs[0]
}
