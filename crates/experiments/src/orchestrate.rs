//! Work-queue orchestration: fan independent simulation runs across worker
//! threads with per-task fault isolation and a progress heartbeat.
//!
//! The paper's evaluation is a grid of *independent* (scheme, ratio, seed)
//! simulation points — the classic multi-instance scaling case (cf.
//! SimBricks): each point is one deterministic single-threaded simulation,
//! so the only sound parallelism is across points, never within one. This
//! module supplies that layer for every experiment module:
//!
//! * **Grid** — [`grid`] takes the keys of a figure's simulation points, a
//!   label fn and a cell fn; `--jobs` scoped worker threads ([`set_jobs`] /
//!   [`jobs`]) claim key indexes off a shared atomic counter and run the
//!   cell fn on each. Every key comes back with its result in *key order*,
//!   so output is byte-identical for any job count: determinism lives
//!   inside each cell, ordering lives here. It is the only way a figure
//!   reaches the pool.
//! * **Fault isolation** — each cell runs under `catch_unwind`. A
//!   panicking cell comes back as `None` and the other cells keep running;
//!   its [`TaskFailure`] (label and panic message) goes to a process-wide
//!   registry the binary drains at exit ([`take_failures`]) to report
//!   failed cells and exit nonzero. What a failed cell looks like in a CSV
//!   is decided once, in [`or_nan`]: every statistic is `NaN`.
//! * **Heartbeat** — while tasks run, a monitor thread reports tasks
//!   done / total, events popped (published by each cell's
//!   `EventQueue` via a [`ProgressProbe`]), virtual time reached, and
//!   wall-clock events/sec to stderr.
//!
//! This module is the one place in the workspace where wall-clock time and
//! `std::thread` are legitimate: both stay strictly *outside* the
//! simulations (`cargo xtask lint` enforces that elsewhere; the scoped
//! `lint:allow` comments below are its blessed escape hatch). The
//! `simhooks` sinks, the auditor and the tracer, are thread-local, so
//! per-point audits and traces keep working on worker threads.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use flexpass_simcore::ProgressProbe;

/// Heartbeat period. Short experiment groups finish before the first beat
/// and stay silent; long sweeps report a few times a minute.
// lint:allow(wall-clock): heartbeat pacing is orchestration, not simulation.
const HEARTBEAT: std::time::Duration = std::time::Duration::from_secs(5);

/// Requested worker count; 0 = use available parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Requested domain count of each simulation's engine (`--par-sim`).
static PAR_SIM: AtomicUsize = AtomicUsize::new(1);

/// Process-wide record of every task that panicked, drained by the binary
/// to report failed cells and choose its exit code.
static FAILURES: Mutex<Vec<TaskFailure>> = Mutex::new(Vec::new());

/// Fault-injection hook: a task whose qualified label equals this label
/// panics on entry, and sets the flag beside it. Used by tests and CI to
/// prove isolation end to end.
static INJECT_PANIC: Mutex<Option<(String, bool)>> = Mutex::new(None);

/// Sets the worker-thread count used by [`grid`]. `0` restores the
/// default (available parallelism). `1` runs the tasks one after another
/// on a single worker; output is the same for every value.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The effective worker-thread count.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        // lint:allow(thread-spawn): querying parallelism, not spawning.
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Sets the domain count [`crate::runner::run`] asks each simulation's
/// engine ([`flexpass_simnet::ParSim`]) for. The engine cuts the fabric
/// into at most that many domains; `1` (the default), or a fabric with no
/// useful cut, is one domain run on the calling thread.
pub fn set_par_sim(n: usize) {
    PAR_SIM.store(n, Ordering::SeqCst);
}

/// The requested domain count (never 0).
pub fn par_sim() -> usize {
    PAR_SIM.load(Ordering::SeqCst).max(1)
}

/// Arms the fault-injection hook: the next task whose qualified
/// `group:label` (or bare label) equals `label` panics on entry.
/// `None` disarms it.
pub fn inject_panic(label: Option<String>) {
    *INJECT_PANIC.lock().expect("inject registry poisoned") = label.map(|l| (l, false));
}

/// The label [`inject_panic`] armed, if no task has matched it: a
/// misspelt label would otherwise pass a fault-injection check silently.
pub fn unmatched_injection() -> Option<String> {
    match &*INJECT_PANIC.lock().expect("inject registry poisoned") {
        Some((label, false)) => Some(label.clone()),
        _ => None,
    }
}

/// Drains the process-wide failure registry (oldest first).
pub fn take_failures() -> Vec<TaskFailure> {
    std::mem::take(&mut *FAILURES.lock().expect("failure registry poisoned"))
}

/// A task that panicked: which one, and what the panic said.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// Qualified label, `group:label`.
    pub label: String,
    /// Panic payload rendered as text.
    pub message: String,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.label, self.message)
    }
}

thread_local! {
    /// The probe of the pool task running on this worker thread. Set and
    /// cleared by [`run_one`] only, like the thread-local tracer beside it.
    static TASK_PROBE: RefCell<Option<Arc<ProgressProbe>>> = const { RefCell::new(None) };
}

/// The progress probe of the pool task running on the calling thread
/// (`None` outside the pool). [`crate::runner::run`] attaches it to every
/// simulation it drives, so the heartbeat sees each task's live event
/// count without the task's closure naming the probe.
pub(crate) fn task_probe() -> Option<Arc<ProgressProbe>> {
    TASK_PROBE.with(|p| p.borrow().clone())
}

/// Shared progress state between workers and the heartbeat thread.
struct PoolState {
    group: String,
    total: usize,
    done: AtomicUsize,
    /// Events popped by tasks that already finished (success or panic).
    finished_events: AtomicU64,
    /// `(label, probe)` of tasks currently running.
    active: Mutex<Vec<(String, Arc<ProgressProbe>)>>,
}

impl PoolState {
    /// Sum of finished-task events and every active probe's live count,
    /// plus the maximum virtual time any active task has reached (ns).
    fn snapshot(&self) -> (u64, u64) {
        let mut events = self.finished_events.load(Ordering::Relaxed);
        let mut max_vt = 0u64;
        for (_, probe) in self.active.lock().expect("active registry poisoned").iter() {
            events += probe.events();
            max_vt = max_vt.max(probe.vtime_ns());
        }
        (events, max_vt)
    }
}

/// Runs one simulation per key on the configured number of worker threads
/// (see [`set_jobs`]) — the one way a figure reaches the pool. `label`
/// names a key's cell in heartbeats, failure reports, `--inject-panic` and
/// trace file names (qualified as `group:label`); `cell` runs it. Returns
/// every key with its cell's result **in key order**, regardless of
/// completion order. A cell that panics is `None`: the other cells keep
/// running, and the failure goes to the process-wide registry the binary
/// drains for its exit code ([`take_failures`]).
pub fn grid<K: Sync, T: Send>(
    group: &str,
    keys: Vec<K>,
    label: impl Fn(&K) -> String + Sync,
    cell: impl Fn(&K) -> T + Sync,
) -> Vec<(K, Option<T>)> {
    grid_on(jobs(), group, keys, label, cell)
}

/// The one failure rule: the statistics of a failed cell are all NaN, which
/// every `csvout` formatter renders as `NaN` — never a fabricated zero.
/// Arithmetic over them stays NaN as long as it avoids `f64::max`/`min`,
/// which drop a NaN operand.
pub fn or_nan<const N: usize>(cell: Option<[f64; N]>) -> [f64; N] {
    cell.unwrap_or([f64::NAN; N])
}

/// [`grid`] with an explicit worker count (the sweep engine and tests
/// compare job counts without touching the global setting).
pub fn grid_on<K: Sync, T: Send>(
    jobs: usize,
    group: &str,
    keys: Vec<K>,
    label: impl Fn(&K) -> String + Sync,
    cell: impl Fn(&K) -> T + Sync,
) -> Vec<(K, Option<T>)> {
    let n = keys.len();
    let workers = jobs.max(1).min(n.max(1));
    let state = PoolState {
        group: group.to_string(),
        total: n,
        done: AtomicUsize::new(0),
        finished_events: AtomicU64::new(0),
        active: Mutex::new(Vec::new()),
    };

    // One write-once slot per key, claimed via the shared index counter.
    let slots: Vec<Mutex<Option<Result<T, TaskFailure>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    // lint:allow(thread-spawn): the pool itself — the one blessed home of
    // threads in this workspace. Simulations stay single-threaded inside.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::SeqCst);
                if idx >= n {
                    return;
                }
                let key = &keys[idx];
                let outcome = run_one(&state, label(key), || cell(key));
                *slots[idx].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
        // Heartbeat: monitor-only; exits as soon as all workers are done.
        scope.spawn(|| heartbeat(&state, &stop));
        // The scope joins the workers only after this closure returns, and
        // the heartbeat needs its stop signal first: wait on the counter.
        while state.done.load(Ordering::SeqCst) < n {
            // lint:allow(thread-spawn, wall-clock): waiting for workers.
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
    });

    // Failures enter the registry in key order, whatever order they
    // happened in.
    let mut failures = FAILURES.lock().expect("failure registry poisoned");
    keys.into_iter()
        .zip(slots)
        .map(|(key, slot)| {
            let outcome = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("every key was claimed and completed");
            match outcome {
                Ok(result) => (key, Some(result)),
                Err(failure) => {
                    failures.push(failure);
                    (key, None)
                }
            }
        })
        .collect()
}

/// Runs one cell under `catch_unwind`, maintaining the pool's progress
/// accounting around it.
fn run_one<T>(state: &PoolState, label: String, run: impl FnOnce() -> T) -> Result<T, TaskFailure> {
    let qualified = format!("{}:{label}", state.group);
    let probe = Arc::new(ProgressProbe::new());
    state
        .active
        .lock()
        .expect("active registry poisoned")
        .push((label.clone(), Arc::clone(&probe)));

    let armed = match &mut *INJECT_PANIC.lock().expect("inject registry poisoned") {
        Some((l, fired)) if *l == qualified || *l == label => {
            *fired = true;
            true
        }
        _ => false,
    };
    // The progress probe and the packet tracer (--trace) wrap every
    // point the same way: both are thread-local, so install/collect must
    // bracket the run on this worker thread. Observation-only — results
    // are unaffected.
    TASK_PROBE.with(|p| *p.borrow_mut() = Some(Arc::clone(&probe)));
    crate::tracecfg::install_for_run();
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        if armed {
            // lint:allow(panic-path): deliberate fault injection, proving
            // per-point isolation in tests and CI.
            panic!("injected fault (--inject-panic)");
        }
        run()
    }));
    crate::tracecfg::finish_run(&qualified);
    TASK_PROBE.with(|p| p.borrow_mut().take());

    state
        .active
        .lock()
        .expect("active registry poisoned")
        .retain(|(_, p)| !Arc::ptr_eq(p, &probe));
    state
        .finished_events
        .fetch_add(probe.events(), Ordering::Relaxed);
    state.done.fetch_add(1, Ordering::SeqCst);

    outcome.map_err(|payload| {
        let failure = TaskFailure {
            label: qualified,
            message: panic_message(payload.as_ref()),
        };
        eprintln!("  [{}] point FAILED — {}", state.group, failure);
        failure
    })
}

/// Renders a panic payload as text (panics carry `&str` or `String`
/// payloads in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Periodically reports pool progress to stderr until `stop` is set.
fn heartbeat(state: &PoolState, stop: &AtomicBool) {
    // lint:allow(wall-clock): events/sec is a wall-clock rate over the
    // orchestration layer; virtual time inside each point is untouched.
    let started = std::time::Instant::now();
    let mut last_events = 0u64;
    let mut last_at = started;
    loop {
        // Sleep in short slices so a finishing pool is not held open.
        for _ in 0..(HEARTBEAT.as_millis() / 50).max(1) {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            // lint:allow(thread-spawn, wall-clock): heartbeat pacing.
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let done = state.done.load(Ordering::SeqCst);
        let (events, max_vt) = state.snapshot();
        // lint:allow(wall-clock, float-time): wall-clock rate reporting.
        let dt = last_at.elapsed().as_secs_f64();
        let rate = if dt > 0.0 {
            (events.saturating_sub(last_events)) as f64 / dt
        } else {
            0.0
        };
        last_events = events;
        // lint:allow(wall-clock): heartbeat bookkeeping.
        last_at = std::time::Instant::now();
        let active = state.active.lock().expect("active registry poisoned");
        let names: Vec<&str> = active.iter().take(4).map(|(l, _)| l.as_str()).collect();
        eprintln!(
            "  [{}] {}/{} points done | {:.1}M events | vt {:.3}s | {:.2}M ev/s | running: {}{}{}{}",
            state.group,
            done,
            state.total,
            events as f64 / 1e6,
            max_vt as f64 / 1e9,
            rate / 1e6,
            names.join(", "),
            if active.len() > names.len() {
                ", …"
            } else {
                ""
            },
            partition_segment(&active),
            rss_segment(),
        );
    }
}

/// Renders the engine suffix of a heartbeat line: per-domain load balance
/// (worst max/min ratio over the active probes that publish domain
/// counters) and summed packet-arena growth statistics. Empty when no
/// active task runs a cut fabric and the arenas report nothing.
fn partition_segment(active: &[(String, Arc<ProgressProbe>)]) -> String {
    let probes = || active.iter().map(|(_, probe)| probe);
    // A domain that has published no event yet makes its ratio infinite.
    let ratio = |(max, min): (u64, u64)| match min {
        0 => f64::INFINITY,
        _ => max as f64 / min as f64,
    };
    let worst = probes()
        .filter_map(|p| p.domain_balance())
        .map(ratio)
        .reduce(f64::max);
    let grows: u64 = probes().map(|p| p.arena_grows()).sum();
    let high_water = probes().map(|p| p.arena_high_water()).max().unwrap_or(0);
    let mut out = String::new();
    if let Some(ratio) = worst {
        out.push_str(&format!(" | domains max/min {ratio:.2}"));
    }
    if high_water > 0 {
        out.push_str(&format!(" | arena grows {grows} hw {high_water}"));
    }
    out
}

/// Renders the process-RSS suffix of a heartbeat line (current and peak,
/// MiB). Empty where `/proc/self/status` is unavailable.
fn rss_segment() -> String {
    match (
        flexpass_simcore::mem::current_rss_bytes(),
        flexpass_simcore::mem::peak_rss_bytes(),
    ) {
        (Some(cur), Some(peak)) => format!(
            " | rss {}M peak {}M",
            cur / (1024 * 1024),
            peak / (1024 * 1024)
        ),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Results come back in key order for any job count, even when
    /// completion order is scrambled.
    #[test]
    fn grid_returns_results_in_key_order() {
        for jobs in [1, 3] {
            let cells = grid_on(
                jobs,
                "test",
                (0..16u64).collect(),
                |i| format!("t{i}"),
                |&i| {
                    // Stagger so later cells can finish first.
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) % 5));
                    i * i
                },
            );
            let want: Vec<(u64, Option<u64>)> = (0..16).map(|i| (i, Some(i * i))).collect();
            assert_eq!(cells, want, "jobs {jobs}");
        }
    }

    /// A panicking cell is isolated: it comes back `None`, the others
    /// complete, and the failure is registered for the exit code under its
    /// `group:label` with the panic message.
    #[test]
    fn panicking_cell_is_none_and_registered() {
        let cells = grid_on(
            2,
            "gridtest",
            vec!["ok-a", "boom", "ok-b"],
            |k| k.to_string(),
            |&k| {
                assert!(k != "boom", "deliberate test panic");
                k.len()
            },
        );
        assert_eq!(
            cells,
            [("ok-a", Some(4)), ("boom", None), ("ok-b", Some(4))]
        );
        // Other tests may have registered failures of their own; this one
        // is told apart by its group.
        let failures = take_failures();
        let mine: Vec<&TaskFailure> = failures
            .iter()
            .filter(|f| f.label.starts_with("gridtest:"))
            .collect();
        assert_eq!(mine.len(), 1, "{failures:?}");
        assert_eq!(mine[0].label, "gridtest:boom");
        assert!(
            mine[0].message.contains("deliberate test panic"),
            "{}",
            mine[0]
        );
    }

    /// The one failure rule: every statistic of a failed cell is NaN, and a
    /// cell that ran is passed through.
    #[test]
    #[allow(clippy::float_cmp)] // values are passed through untouched
    fn failed_cell_statistics_are_nan() {
        assert!(or_nan::<3>(None).iter().all(|v| v.is_nan()));
        assert_eq!(or_nan(Some([1.0, 2.0])), [1.0, 2.0]);
    }

    /// The probe installed for a cell is live: counts published during
    /// the run are visible afterwards (and folded into pool totals), and
    /// the installation ends with the cell.
    #[test]
    fn task_probe_is_observable() {
        assert!(task_probe().is_none(), "no probe outside the pool");
        let cells = grid_on(
            1,
            "test",
            vec![()],
            |()| "probe".to_string(),
            |()| {
                let probe = task_probe().expect("installed by run_one");
                probe.publish(12345, 67890);
                probe.events()
            },
        );
        assert_eq!(cells[0].1, Some(12345));
    }

    #[test]
    fn jobs_default_is_positive() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn par_sim_never_reports_zero() {
        assert!(par_sim() >= 1);
    }

    /// The heartbeat's partition suffix reports the worst balance ratio
    /// across active probes and the summed arena stats — and stays empty
    /// for purely serial pools.
    #[test]
    fn partition_segment_formats() {
        let quiet = Arc::new(ProgressProbe::new());
        assert_eq!(partition_segment(&[("a".to_string(), quiet)]), "");

        let balanced = Arc::new(ProgressProbe::new());
        balanced.publish_domain_events(0, 100);
        balanced.publish_domain_events(1, 50);
        let skewed = Arc::new(ProgressProbe::new());
        skewed.publish_domain_events(0, 300);
        skewed.publish_domain_events(1, 100);
        skewed.publish_arena(2, 512);
        let seg = partition_segment(&[("b".to_string(), balanced), ("s".to_string(), skewed)]);
        assert_eq!(seg, " | domains max/min 3.00 | arena grows 2 hw 512");

        // A serial run reports its arena alone.
        let serial = Arc::new(ProgressProbe::new());
        serial.publish_arena(9, 300);
        let seg = partition_segment(&[("h".to_string(), serial)]);
        assert_eq!(seg, " | arena grows 9 hw 300");
    }

    /// RSS reporting is best-effort but must be well-formed where
    /// available (linux: always).
    #[test]
    fn rss_segment_is_well_formed() {
        let seg = rss_segment();
        if cfg!(target_os = "linux") {
            assert!(seg.starts_with(" | rss "), "{seg}");
            assert!(seg.contains("M peak "), "{seg}");
        } else {
            assert!(seg.is_empty());
        }
    }
}
