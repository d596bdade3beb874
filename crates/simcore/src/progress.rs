//! Cross-thread progress observation for long simulation runs.
//!
//! A [`ProgressProbe`] is a pair of atomic counters — events popped and
//! virtual time reached — that a running simulation's event loop
//! publishes into and an orchestration layer polls from another thread
//! (e.g. a heartbeat printing points-done / events-per-second to stderr).
//!
//! The probe is strictly *observational*: nothing in the simulation ever
//! reads it back, so attaching one cannot perturb event order or any other
//! simulated outcome. Publishing uses relaxed atomics — the heartbeat
//! tolerates slightly stale values, and the loop publishes only every
//! [`PUBLISH_EVERY`] pops to keep the hot path free of contention.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How many event pops elapse between probe publications. A power of two
/// so the loop can mask instead of dividing.
pub const PUBLISH_EVERY: u64 = 1024;

/// Maximum number of per-domain event slots a probe tracks (the partitioned
/// engine publishes one counter per domain; a fixed cap keeps the probe
/// allocation-free and lock-free).
pub const MAX_DOMAINS: usize = 16;

/// Atomic progress counters shared between a simulation thread (writer)
/// and a monitoring thread (reader).
#[derive(Debug, Default)]
pub struct ProgressProbe {
    /// Events popped from the calendar so far.
    events: AtomicU64,
    /// Virtual time reached, in nanoseconds.
    vtime_ns: AtomicU64,
    /// Number of partition domains publishing into `domain_events`
    /// (0 for a serial run).
    n_domains: AtomicUsize,
    /// Events processed per partition domain (first `n_domains` slots).
    domain_events: [AtomicU64; MAX_DOMAINS],
    /// Packet-arena slab doublings since construction (the slab starts
    /// empty, so about log2 of the high-water mark).
    arena_grows: AtomicU64,
    /// Packet-arena high-water mark (peak live packets).
    arena_high_water: AtomicU64,
}

impl ProgressProbe {
    /// A probe with both counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the current totals (called from the simulation thread).
    pub fn publish(&self, events: u64, vtime_ns: u64) {
        self.events.store(events, Ordering::Relaxed);
        self.vtime_ns.store(vtime_ns, Ordering::Relaxed);
    }

    /// Events popped, as last published.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Virtual time reached in nanoseconds, as last published.
    pub fn vtime_ns(&self) -> u64 {
        self.vtime_ns.load(Ordering::Relaxed)
    }

    /// Publishes the packet-arena growth statistics (simulation thread).
    pub fn publish_arena(&self, grows: u64, high_water: u64) {
        self.arena_grows.store(grows, Ordering::Relaxed);
        self.arena_high_water.store(high_water, Ordering::Relaxed);
    }

    /// Arena slab growths, as last published.
    pub fn arena_grows(&self) -> u64 {
        self.arena_grows.load(Ordering::Relaxed)
    }

    /// Arena high-water mark, as last published.
    pub fn arena_high_water(&self) -> u64 {
        self.arena_high_water.load(Ordering::Relaxed)
    }

    /// Publishes the events-processed count of one partition domain
    /// (partitioned engine only; domains beyond [`MAX_DOMAINS`] are
    /// silently ignored in the balance report, never lost from totals —
    /// the aggregate `events` counter is published separately).
    pub fn publish_domain_events(&self, domain: usize, events: u64) {
        if let Some(slot) = self.domain_events.get(domain) {
            slot.store(events, Ordering::Relaxed);
            self.n_domains.fetch_max(domain + 1, Ordering::Relaxed);
        }
    }

    /// Per-domain event counts (empty for a serial run).
    pub fn domain_events(&self) -> Vec<u64> {
        let n = self.n_domains.load(Ordering::Relaxed).min(MAX_DOMAINS);
        self.domain_events
            .iter()
            .take(n)
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// `(max, min)` events across domains, when at least two domains have
    /// published. The ratio is the heartbeat's load-balance figure.
    pub fn domain_balance(&self) -> Option<(u64, u64)> {
        let counts = self.domain_events();
        if counts.len() < 2 {
            return None;
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        Some((max, min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_and_read_back() {
        let p = ProgressProbe::new();
        assert_eq!(p.events(), 0);
        assert_eq!(p.vtime_ns(), 0);
        p.publish(1024, 5_000_000);
        assert_eq!(p.events(), 1024);
        assert_eq!(p.vtime_ns(), 5_000_000);
    }

    #[test]
    fn domain_slots_and_arena_stats() {
        let p = ProgressProbe::new();
        assert!(p.domain_balance().is_none());
        p.publish_domain_events(0, 100);
        assert!(p.domain_balance().is_none(), "one domain has no balance");
        p.publish_domain_events(1, 50);
        assert_eq!(p.domain_events(), vec![100, 50]);
        assert_eq!(p.domain_balance(), Some((100, 50)));
        // Out-of-range domains are ignored, not panicked on.
        p.publish_domain_events(MAX_DOMAINS + 3, 1);
        assert_eq!(p.domain_events().len(), 2);
        p.publish_arena(3, 512);
        assert_eq!((p.arena_grows(), p.arena_high_water()), (3, 512));
    }

    #[test]
    fn readable_across_threads() {
        let p = Arc::new(ProgressProbe::new());
        let writer = Arc::clone(&p);
        let h = std::thread::spawn(move || writer.publish(7, 9));
        h.join().expect("writer thread");
        assert_eq!((p.events(), p.vtime_ns()), (7, 9));
    }
}
