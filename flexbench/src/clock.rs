//! The benchmark's only wall-clock reads.
//!
//! Simulation code in this workspace may not read host time (the
//! `wall-clock` lint keeps runs replayable); a benchmark has to. Every
//! `Instant` read of `flexbench` goes through [`now_ns`], so the exemption
//! has one home.

// lint:allow(wall-clock): host-time measurement is this module's purpose;
// nothing it returns is ever fed back into a simulation.
use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    // A process would have to run for 584 years to overflow u64 ns.
    origin.elapsed().as_nanos() as u64
}

/// Seconds elapsed since the reading `start_ns`.
pub fn secs_since(start_ns: u64) -> f64 {
    now_ns().saturating_sub(start_ns) as f64 / 1e9
}

/// Times one call, returning its result and the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now_ns();
    let out = f();
    (out, secs_since(t0))
}
