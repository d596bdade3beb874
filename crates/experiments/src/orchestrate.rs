//! Work-queue orchestration: fan independent simulation runs across worker
//! threads with per-task fault isolation and a progress heartbeat.
//!
//! The paper's evaluation is a grid of *independent* (scheme, ratio, seed)
//! simulation points — the classic multi-instance scaling case (cf.
//! SimBricks): each point is one deterministic single-threaded simulation,
//! so the only sound parallelism is across points, never within one. This
//! module supplies that layer for every experiment module:
//!
//! * **Work queue** — [`run_tasks`] pops task indexes off a shared atomic
//!   counter and runs each closure on one of `--jobs` scoped worker
//!   threads ([`set_jobs`] / [`jobs`]). Results are reassembled in *spec
//!   order* (task index), so output is byte-identical for any job count:
//!   determinism lives inside each task, ordering lives here.
//! * **Fault isolation** — each task runs under `catch_unwind`. A
//!   panicking task becomes a [`TaskFailure`] carrying its label and the
//!   panic message; the other tasks keep running. Failures are returned to
//!   the caller *and* recorded in a process-wide registry the binary
//!   drains at exit ([`take_failures`]) to report failed cells and exit
//!   nonzero.
//! * **Heartbeat** — while tasks run, a monitor thread reports tasks
//!   done / total, events popped (published by each task's
//!   `EventQueue` via a [`ProgressProbe`]), virtual time reached, and
//!   wall-clock events/sec to stderr.
//!
//! This module is the one place in the workspace where wall-clock time and
//! `std::thread` are legitimate: both stay strictly *outside* the
//! simulations (`cargo xtask lint` enforces that elsewhere; the scoped
//! `lint:allow` comments below are its blessed escape hatch). The
//! `simaudit` runtime auditor is thread-local, so per-point audits keep
//! working on worker threads.

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

/// Requested intra-simulation partition domains; 1 = the serial engine.
static PAR_SIM: AtomicUsize = AtomicUsize::new(1);

/// Process-wide record of every task that panicked, drained by the binary
/// to report failed cells and choose its exit code. Tests use the
/// per-call return value of [`run_tasks`] instead, so they never race on
/// this registry.
static FAILURES: Mutex<Vec<TaskFailure>> = Mutex::new(Vec::new());

/// Fault-injection hook: a task whose qualified label equals this value
/// panics on entry. Used by tests and CI to prove isolation end to end.
static INJECT_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// Sets the worker-thread count used by [`run_tasks`]. `0` restores the
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

/// Sets the intra-simulation partition-domain count used by the runner
/// helpers. `1` (the default) keeps the serial engine; `n > 1` asks
/// [`crate::runner`] to cut each fabric into `n` domains and run them on
/// the partitioned engine ([`flexpass_simnet::ParSim`]). Topologies the
/// partitioner rejects (single rack, too few racks) fall back to serial.
pub fn set_par_sim(n: usize) {
    PAR_SIM.store(n, Ordering::SeqCst);
}

/// The effective partition-domain count (never 0).
pub fn par_sim() -> usize {
    PAR_SIM.load(Ordering::SeqCst).max(1)
}

/// Arms the fault-injection hook: the next task whose qualified
/// `group:label` (or bare label) equals `label` panics on entry.
/// `None` disarms it.
pub fn inject_panic(label: Option<String>) {
    *INJECT_PANIC.lock().expect("inject registry poisoned") = label;
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

/// One labelled unit of work for [`run_tasks`].
pub struct Task<T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Task<T> {
    /// A task with a display label (used in heartbeats and failure
    /// reports) and the closure to run.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Task {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The task's label.
    pub fn label(&self) -> &str {
        &self.label
    }
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

/// Runs `tasks` on the configured number of worker threads (see
/// [`set_jobs`]) and returns one result per task **in task order**,
/// regardless of completion order. Panicking tasks yield `Err` and are
/// also recorded in the process-wide failure registry.
pub fn run_tasks<T: Send>(group: &str, tasks: Vec<Task<T>>) -> Vec<Result<T, TaskFailure>> {
    run_tasks_on(jobs(), group, tasks)
}

/// Runs a single closure through the pool so one-run figures get the same
/// heartbeat and fault isolation as sweeps. On panic the failure is
/// registered for the exit code and `fallback()` is returned (typically
/// an empty recorder, so the figure still renders a — visibly empty —
/// table).
pub fn run_isolated<T: Send>(
    group: &str,
    label: &str,
    fallback: impl FnOnce() -> T,
    run: impl FnOnce() -> T + Send + 'static,
) -> T {
    run_tasks(group, vec![Task::new(label, run)])
        .pop()
        .expect("one result for one task")
        .unwrap_or_else(|_| fallback())
}

/// [`run_tasks`] with an explicit worker count (tests use this to compare
/// job counts without touching the global setting).
pub fn run_tasks_on<T: Send>(
    jobs: usize,
    group: &str,
    tasks: Vec<Task<T>>,
) -> Vec<Result<T, TaskFailure>> {
    let n = tasks.len();
    let workers = jobs.max(1).min(n.max(1));
    let state = PoolState {
        group: group.to_string(),
        total: n,
        done: AtomicUsize::new(0),
        finished_events: AtomicU64::new(0),
        active: Mutex::new(Vec::new()),
    };

    // One write-once slot per task, claimed via the shared index counter.
    let slots: Vec<Mutex<Option<Result<T, TaskFailure>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Tasks are FnOnce: they are *moved* out of this vector (not cloned)
    // exactly once each, guarded by the `next` counter.
    let queue: Vec<Mutex<Option<Task<T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();

    // lint:allow(thread-spawn): the pool itself — the one blessed home of
    // threads in this workspace. Simulations stay single-threaded inside.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::SeqCst);
                if idx >= n {
                    return;
                }
                let task = queue[idx]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("task taken twice");
                let outcome = run_one(&state, group, task);
                *slots[idx].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
        // Heartbeat: monitor-only; exits as soon as all workers are done.
        scope.spawn(|| heartbeat(&state, &stop));
        // The scope implicitly joins the workers; the heartbeat needs an
        // explicit stop signal first — emitted by a dedicated closer
        // thread would be overkill, so workers' completion is detected by
        // the scope joining *after* this closure returns. Instead, wait on
        // the counter here.
        while state.done.load(Ordering::SeqCst) < n {
            // lint:allow(thread-spawn, wall-clock): waiting for workers.
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
    });

    let results: Vec<Result<T, TaskFailure>> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task index was claimed and completed")
        })
        .collect();

    let failed: Vec<TaskFailure> = results
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    if !failed.is_empty() {
        FAILURES
            .lock()
            .expect("failure registry poisoned")
            .extend(failed);
    }
    results
}

/// Runs one task under `catch_unwind`, maintaining the pool's progress
/// accounting around it.
fn run_one<T>(state: &PoolState, group: &str, task: Task<T>) -> Result<T, TaskFailure> {
    let label = task.label.clone();
    let qualified = format!("{group}:{label}");
    let probe = Arc::new(ProgressProbe::new());
    state
        .active
        .lock()
        .expect("active registry poisoned")
        .push((label.clone(), Arc::clone(&probe)));

    let armed = INJECT_PANIC
        .lock()
        .expect("inject registry poisoned")
        .as_deref()
        .is_some_and(|l| l == qualified || l == label);
    let run = task.run;
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

/// Renders the partitioned-engine suffix of a heartbeat line: per-domain
/// load balance (worst max/min ratio over the active probes that publish
/// domain counters) and summed packet-arena growth statistics. Empty when
/// no active task runs partitioned and the arenas report nothing.
fn partition_segment(active: &[(String, Arc<ProgressProbe>)]) -> String {
    let mut worst: Option<(u64, u64)> = None;
    let mut grows = 0u64;
    let mut high_water = 0u64;
    for (_, probe) in active {
        if let Some((max, min)) = probe.domain_balance() {
            let beats = match worst {
                // Compare max/min ratios without dividing: a/b > c/d
                // iff a*d > c*b for non-negative operands.
                Some((wmax, wmin)) => max.saturating_mul(wmin) > wmax.saturating_mul(min),
                None => true,
            };
            if beats {
                worst = Some((max, min));
            }
        }
        grows += probe.arena_grows();
        high_water = high_water.max(probe.arena_high_water());
    }
    let mut out = String::new();
    if let Some((max, min)) = worst {
        let ratio = if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        };
        out.push_str(&format!(" | domains max/min {ratio:.2}"));
    }
    if grows > 0 || high_water > 0 {
        out.push_str(&format!(" | arena grows {grows} hw {high_water}"));
    }
    // Any growth after construction means the preallocation sizing was
    // wrong for this workload — the exact failure the hinted-cap fix
    // addresses — so make it impossible to miss in the log.
    if grows > 0 {
        out.push_str(" (WARN: arena preallocation undersized)");
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

    /// Results come back in task order for any job count, even when
    /// completion order is scrambled.
    #[test]
    fn results_in_task_order() {
        for jobs in [1, 4] {
            let tasks: Vec<Task<usize>> = (0..16)
                .map(|i| {
                    Task::new(format!("t{i}"), move || {
                        // Stagger so later tasks can finish first.
                        std::thread::sleep(std::time::Duration::from_millis(((16 - i) % 5) as u64));
                        i * i
                    })
                })
                .collect();
            let out = run_tasks_on(jobs, "test", tasks);
            let values: Vec<usize> = out.into_iter().map(|r| r.expect("task ok")).collect();
            assert_eq!(values, (0..16).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// A panicking task is isolated: the others complete, the failure
    /// carries the label and message.
    #[test]
    fn panicking_task_is_isolated() {
        let tasks: Vec<Task<u32>> = vec![
            Task::new("ok-a", || 1),
            Task::new("boom", || panic!("deliberate test panic")),
            Task::new("ok-b", || 3),
        ];
        let out = run_tasks_on(2, "test", tasks);
        assert_eq!(out.len(), 3);
        assert_eq!(*out[0].as_ref().expect("a ok"), 1);
        assert_eq!(*out[2].as_ref().expect("b ok"), 3);
        let err = out[1].as_ref().expect_err("boom failed");
        assert_eq!(err.label, "test:boom");
        assert!(err.message.contains("deliberate test panic"), "{err}");
    }

    /// The probe installed for a task is live: counts published during
    /// the run are visible afterwards (and folded into pool totals), and
    /// the installation ends with the task.
    #[test]
    fn task_probe_is_observable() {
        assert!(task_probe().is_none(), "no probe outside the pool");
        let tasks = vec![Task::new("probe", || {
            let probe = task_probe().expect("installed by run_one");
            probe.publish(12345, 67890);
            probe.events()
        })];
        let out = run_tasks_on(1, "test", tasks);
        assert_eq!(*out[0].as_ref().expect("ok"), 12345);
    }

    /// The heartbeat blind spot: a task that only calls the frozen
    /// `sweep::run_point` (as fig17/fig18 do) never names the probe, yet
    /// its simulation must have published into it by the time it returns.
    #[test]
    fn run_point_publishes_into_its_tasks_probe() {
        use crate::runner::RunScale;
        use crate::sweep::{run_point, SweepSpec};
        use flexpass::schemes::Scheme;

        let spec = SweepSpec {
            n_flows: Some(30),
            ..SweepSpec::fig10(RunScale::Smoke)
        };
        let tasks = vec![Task::new("point", move || {
            let point = run_point(Scheme::FlexPass, 0.5, &spec);
            let probe = task_probe().expect("installed by run_one");
            (point.flows, probe.events(), probe.vtime_ns())
        })];
        let out = run_tasks_on(1, "test", tasks);
        let (flows, events, vtime_ns) = *out[0].as_ref().expect("ok");
        assert!(flows > 0.0, "the point completed no flows");
        assert!(events > 0, "no events reached the task's probe");
        assert!(vtime_ns > 0, "no virtual time reached the task's probe");
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
        assert_eq!(
            seg,
            " | domains max/min 3.00 | arena grows 2 hw 512 \
             (WARN: arena preallocation undersized)"
        );

        // High-water alone (a healthy preallocated run) reports without
        // the warning.
        let healthy = Arc::new(ProgressProbe::new());
        healthy.publish_arena(0, 256);
        let seg = partition_segment(&[("h".to_string(), healthy)]);
        assert_eq!(seg, " | arena grows 0 hw 256");
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
