//! Steady-state datapath allocations per simulated event.
//!
//! The dynamic twin of the `alloc-in-datapath` / `alloc-reachable` lints:
//! the lints find allocation *sites* in the hot modules, this test proves
//! the warm datapath actually stays (near-)allocation-free at runtime,
//! including everything the lints cannot see (transport endpoints,
//! `BTreeMap` node splits, trace sinks).
//!
//! It must stay the only test in this binary: the counter is process-wide,
//! and a test running on another thread would allocate into the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flexpass_simcore::time::Time;

/// Allocator acquisitions (alloc + realloc calls) since process start.
/// `Relaxed`: a statistic read from the thread that allocates.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the counter is a plain
// atomic and cannot affect allocation correctness.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one allocator round-trip, not an alloc+dealloc pair.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; layout and size are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Allocator-internal effects and the rare far-horizon wheel bucket keep
/// the measured number just above zero (last measured 0.0016).
const MAX_ALLOCS_PER_EVENT: f64 = 0.02;

#[test]
fn warm_datapath_allocates_under_ceiling() {
    // 8-host FlexPass star, flows sized to outlive the window. Start-up
    // (flow arrival, endpoint boxing, buffer growth to working size) is
    // excluded on purpose: the claim is about the steady state.
    let mut sim = flexpass_bench::datapath_sim(8, 50_000_000);
    sim.run_until(Time::from_micros(2_000));
    let warm_events = sim.events_processed();
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(Time::from_micros(6_000));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let events = sim.events_processed() - warm_events;
    assert!(events > 100_000, "measurement window too small: {events}");
    assert_eq!(sim.flows_completed(), 0, "flows must outlive the window");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{allocs} allocations over {events} events = {per_event:.4} allocs/event \
         (ceiling {MAX_ALLOCS_PER_EVENT})"
    );
}
