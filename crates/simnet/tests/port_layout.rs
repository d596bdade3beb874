//! Heap allocations per [`Port`].
//!
//! A port owns one heap block: its queue entries, each with its scheduler
//! state, shaper and level bookkeeping inline. The fabric of the 10k-host
//! scenario builds ~30k ports, and a service decision that follows a
//! `Vec` of levels into a `Vec` of members into a `Vec` of queues pays a
//! dependent cache miss per hop — so the count is pinned here.
//!
//! It must stay the only test in this binary: the counter is process-wide,
//! and a test running on another thread would allocate into the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flexpass_simcore::time::Rate;
use flexpass_simcore::units::WireBytes;
use flexpass_simnet::consts::CTRL_WIRE;
use flexpass_simnet::port::{Port, PortConfig, QueueSched, MAX_QUEUES};
use flexpass_simnet::queue::QueueConfig;

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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; layout and size are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_port_is_one_heap_allocation() {
    let rate = Rate::from_gbps(10);
    let flexpass = PortConfig {
        rate,
        queues: vec![
            (
                QueueConfig::capped(WireBytes::new(1_000)),
                QueueSched::strict(0).shaped(Rate::from_mbps(400), CTRL_WIRE * 2),
            ),
            (QueueConfig::plain(), QueueSched::weighted(1, 0.5)),
            (QueueConfig::plain(), QueueSched::weighted(1, 0.5)),
        ],
    };
    let homa = PortConfig {
        rate,
        queues: (0..MAX_QUEUES)
            .map(|i| (QueueConfig::plain(), QueueSched::strict(i as u8)))
            .collect(),
    };
    for (name, cfg) in [
        ("flexpass", flexpass),
        ("homa", homa),
        ("fifo", PortConfig::single_fifo(rate)),
    ] {
        let before = ALLOCS.load(Ordering::Relaxed);
        let port = Port::new(&cfg);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(port.num_queues(), cfg.queues.len());
        assert_eq!(
            allocs, 1,
            "{name}: Port::new made {allocs} heap allocations, not one block"
        );
    }
}
