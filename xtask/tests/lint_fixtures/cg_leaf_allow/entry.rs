//@ file: crates/simnet/src/sim.rs
// The helper's subscript would be a witness, but the leaf itself carries
// a lint:allow, so it drops out of the leaf set: clean.
pub struct Sim;

impl Sim {
    pub fn dispatch(&mut self, xs: &[u64; 4]) -> u64 {
        mix::first(xs)
    }
}
