//! Steady-state datapath allocations per simulated event.
//!
//! The dynamic twin of the `alloc-in-datapath` / `alloc-reachable` lints:
//! the lints find allocation *sites* in the hot modules, this test proves
//! the warm datapath actually stays (near-)allocation-free at runtime,
//! including everything the lints cannot see (transport endpoints,
//! `BTreeMap` node splits, trace sinks).
//!
//! Three windows share the one test function: a lightly loaded star (at
//! most four flows per host), a 64 → 1 incast (640 flows on one host) and
//! a 64-host two-pod Clos. Every table starts empty, so these windows are
//! the check that all growth falls in warm-up.
//!
//! It must stay the only test in this binary: the counter is process-wide,
//! and a test running on another thread would allocate into the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{flexpass_profile, ProfileParams};
use flexpass::FlexPassFactory;
use flexpass_experiments::runner::star_topo;
use flexpass_simcore::time::{Rate, Time};
use flexpass_simnet::sim::{Node, NullObserver};
use flexpass_simnet::Sim;
use flexpass_workload::incast;

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

/// Table growth that outlasts warm-up keeps the measured number just
/// above zero. In the star window (last measured 243 allocations over
/// 154,747 events = 0.0016), 217 are `TimingWheel::place` growing a wheel
/// bucket, 25 are FlexPass sequence-set growth (`SeqSet::insert`,
/// `SeqFrontier::insert`, `SubflowTx::assign`) and 1 is an arena grow.
const MAX_ALLOCS_PER_EVENT: f64 = 0.02;

/// Warms `sim` to `warm_us`, runs it on to `end_us`, and holds the
/// allocator round-trips per event of that second stretch under the
/// ceiling. No flow may complete: the claim is about the steady state.
fn assert_window_under_ceiling(name: &str, sim: &mut Sim<NullObserver>, warm_us: u64, end_us: u64) {
    sim.run_until(Time::from_micros(warm_us));
    let warm_events = sim.events_processed();
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(Time::from_micros(end_us));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let events = sim.events_processed() - warm_events;
    assert!(
        events > 100_000,
        "{name}: measurement window too small: {events}"
    );
    assert_eq!(
        sim.flows_completed(),
        0,
        "{name}: flows must outlive the window"
    );
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{name}: {allocs} allocations over {events} events = {per_event:.4} allocs/event \
         (ceiling {MAX_ALLOCS_PER_EVENT})"
    );
}

#[test]
fn warm_datapath_allocates_under_ceiling() {
    // 8-host FlexPass star, flows sized to outlive the window. Start-up
    // (flow arrival, endpoint boxing, buffer growth to working size) is
    // excluded on purpose: the claim is about the steady state.
    let mut sim = flexpass_bench::datapath_sim(8, 50_000_000);
    assert_window_under_ceiling("star", &mut sim, 2_000, 6_000);

    // Second window, high fan-in: ten waves of a 64 → 1 FlexPass incast on
    // the testbed fabric (ECN, selective drops, RTOs), so one host's flow
    // table holds 640 live endpoints that each re-arm pacing timers. The
    // table starts empty and doubles to its working size during warm-up;
    // it must not touch the heap after it (last measured 672 allocations /
    // 464,530 events = 0.0014, 640 live).
    const SENDERS: usize = 64;
    let profile = flexpass_profile(&ProfileParams::testbed(Rate::from_gbps(10)));
    let factory = FlexPassFactory::new(FlexPassConfig::new(0.5));
    let mut sim = Sim::new(
        star_topo(SENDERS + 1, &profile),
        Box::new(factory),
        NullObserver,
    );
    let senders: Vec<usize> = (0..SENDERS).collect();
    for wave in 0..10u64 {
        let start = Time::from_micros(10 + 100 * wave);
        for f in incast(&senders, SENDERS, 2_000_000, start, wave * SENDERS as u64) {
            sim.schedule_flow(f);
        }
    }
    assert_window_under_ceiling("incast", &mut sim, 20_000, 30_000);
    match &sim.nodes[sim.hosts[SENDERS]] {
        Node::Host(h) => assert!(h.live_flows() >= 500, "fan-in fell to {}", h.live_flows()),
        Node::Switch(_) => unreachable!("host id maps to a host"),
    }

    // Third window, a fabric with switches between the racks: the 64-host
    // two-pod Clos (ToR, agg and core tiers, ECMP), one long FlexPass flow
    // per host (last measured 532 allocations / 661,871 events = 0.0008).
    let mut sim = flexpass_bench::multipod_sim();
    assert_window_under_ceiling("multipod", &mut sim, 300, 1_000);
}
