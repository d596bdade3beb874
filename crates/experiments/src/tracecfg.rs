//! Process-wide packet-tracing configuration for the experiments binary.
//!
//! `--trace[=FILTER]` arms this module once at startup; every simulation
//! point the orchestrator runs then gets a thread-local tracer installed
//! around it ([`install_for_run`] / [`finish_run`] are called by
//! `orchestrate::run_one` on the worker thread). Each point writes
//! `<out>/traces/<group>-<label>.jsonl`: the recorded events in time
//! order, then one `"kind":"meta"` line with the ring accounting. Their
//! totals are `cargo xtask trace-report`'s to fold. A file holds exactly
//! one run: it is truncated on write, so re-running into the same `--out`
//! replaces the traces instead of doubling them.
//!
//! Tracing is observation-only: the tracer records what the datapath
//! already did and no simulation code branches on it, so experiment CSVs
//! are byte-identical with tracing on or off (`tests/trace_determinism.rs`
//! and the CI byte-diff hold this).

use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once, OnceLock};

use flexpass_simnet::trace::{self, TraceFilter};

struct TraceCfg {
    filter: TraceFilter,
    dir: PathBuf,
    /// Files this process has written, to catch two tasks sharing a label.
    written: Mutex<BTreeSet<PathBuf>>,
}

static DUPLICATE_LABEL_WARNING: Once = Once::new();

static CFG: OnceLock<TraceCfg> = OnceLock::new();

/// Arms packet tracing for the rest of the process: `spec` is a
/// comma-separated event-kind list (empty or `all` records everything),
/// traces land under `<out_dir>/traces/`. Errors on a bad spec or a
/// second call.
pub fn enable(spec: &str, out_dir: &Path) -> Result<(), String> {
    let filter = TraceFilter::parse(spec)?;
    let dir = out_dir.join("traces");
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    CFG.set(TraceCfg {
        filter,
        dir,
        written: Mutex::default(),
    })
    .map_err(|_| "packet tracing enabled twice".to_string())
}

/// Whether `--trace` was given.
pub fn enabled() -> bool {
    CFG.get().is_some()
}

/// Installs the thread-local tracer for one simulation point, if tracing
/// is armed. Must run on the thread that will run the simulation.
pub fn install_for_run() {
    if let Some(cfg) = CFG.get() {
        trace::install(cfg.filter);
    }
}

/// Collects this thread's tracer and writes the labelled JSONL file.
/// No-op when tracing is off. IO failures are reported to stderr but
/// never fail the run: the simulation result is already in hand.
pub fn finish_run(label: &str) {
    let Some(cfg) = CFG.get() else { return };
    if !trace::is_active() {
        return;
    }
    let log = trace::finish();
    let path = cfg.dir.join(format!("{}.jsonl", sanitize(label)));
    let meta = format!(
        "{{\"kind\":\"meta\",\"label\":\"{}\",\"total\":{},\"dropped_oldest\":{},\"capacity\":{}}}\n",
        sanitize(label),
        log.total,
        log.dropped_oldest,
        log.capacity
    );
    let fresh = cfg
        .written
        .lock()
        .expect("trace registry poisoned")
        .insert(path.clone());
    if !fresh {
        DUPLICATE_LABEL_WARNING.call_once(|| {
            eprintln!(
                "warning: two tasks share the trace label `{label}`: {} keeps only the later \
                 run (further collisions are not reported)",
                path.display()
            );
        });
    }
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&path)?;
        f.write_all(log.to_jsonl().as_bytes())?;
        f.write_all(meta.as_bytes())
    };
    if let Err(e) = write() {
        eprintln!("trace write failed for {}: {e}", path.display());
    }
}

/// File-system-safe run label: `fig9:flexpass:s0` → `fig9-flexpass-s0`.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_safe_chars_only() {
        assert_eq!(sanitize("fig9:flexpass:s0"), "fig9-flexpass-s0");
        assert_eq!(sanitize("a b/c\\d"), "a-b-c-d");
        assert_eq!(sanitize("ok-1.2_x"), "ok-1.2_x");
    }

    #[test]
    fn install_and_finish_are_noops_when_disarmed() {
        // CFG is process-global; tests must not arm it (other tests run
        // experiments through the pool). Disarmed, both calls are no-ops.
        if !enabled() {
            install_for_run();
            assert!(!trace::is_active());
            finish_run("unused");
        }
    }
}
