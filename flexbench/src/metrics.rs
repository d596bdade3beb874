//! The metrics `flexbench` can emit. `BENCHMARK.json` declares the same
//! names and units; a test holds the two equal.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::layers;
use crate::spans::Spans;
use crate::units::{Counts, UnitResult};

/// `BENCHMARK.json`, as committed when this binary was built.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// What a user of the simulator sees; all three are better lower.
pub const END_TO_END: [Decl; 3] = [d("wall_s", "s"), d("setup_s", "s"), d("peak_rss_mb", "MiB")];

/// Exact counts and ratios read off the traced unit after its run.
const COUNTED: [Decl; 21] = [
    d("simnet.sim.events", "count"),
    d("simnet.sim.ns_per_event", "ns"),
    d("simnet.sim.events_per_sec", "1/s"),
    d("simnet.arena.high_water", "count"),
    d("simnet.arena.grows", "count"),
    d("simnet.sim.timers_cancelled", "count"),
    d("simnet.sim.schedule_clamps", "count"),
    d("simnet.switch.forwarded", "count"),
    d("simnet.switch.dropped_buffer", "count"),
    d("simnet.switch.dropped_red", "count"),
    d("simnet.switch.dropped_cap", "count"),
    d("simnet.queue.ecn_marked", "count"),
    d("simnet.port.tx_pkts", "count"),
    d("simnet.host.nic_drops", "count"),
    d("simnet.host.stray_rx", "count"),
    d("transport.timeouts", "count"),
    d("transport.retx_pkts", "count"),
    d("transport.credits_wasted_frac", "frac"),
    d("core.flexpass.proactive_retx_pkts", "count"),
    d("core.flexpass.redundancy_frac", "frac"),
    d("core.flexpass.reorder_peak_kb", "kB"),
];

/// Span totals of the traced unit: `(metric, span name)`. The per-point
/// parents decompose `wall_s` + `setup_s` of the multi-point workloads.
const SPAN_TOTALS: [(&str, &str); 8] = [
    ("simnet.sim.construct_s", "simnet.sim.construct"),
    (
        "experiments.sweep.point_s.naive",
        "experiments.sweep.point.naive",
    ),
    (
        "experiments.sweep.point_s.owf",
        "experiments.sweep.point.owf",
    ),
    ("experiments.sweep.point_s.ly", "experiments.sweep.point.ly"),
    (
        "experiments.sweep.point_s.flexpass",
        "experiments.sweep.point.flexpass",
    ),
    ("bench.incast.point_s.dctcp", "bench.incast.point.dctcp"),
    (
        "bench.incast.point_s.expresspass",
        "bench.incast.point.expresspass",
    ),
    (
        "bench.incast.point_s.flexpass",
        "bench.incast.point.flexpass",
    ),
];

/// Span self times of the traced unit: `(metric, span name)`.
const SPAN_SELF: [(&str, &str); 7] = [
    ("workload.generate.self_s", "workload.generate"),
    ("simnet.topology.build.self_s", "simnet.topology.build"),
    (
        "experiments.scale.build_point.self_s",
        "experiments.scale.build_point",
    ),
    ("simnet.sim.warmup.self_s", "simnet.sim.warmup"),
    ("simnet.sim.run.self_s", "simnet.sim.run"),
    (
        "metrics.recorder.summarize.self_s",
        "metrics.recorder.summarize",
    ),
    ("experiments.csv.render.self_s", "experiments.csv.render"),
];

/// Traced against untraced `wall_s` of the same process.
const TRACE_OVERHEAD: &str = "bench.trace_overhead_frac";

/// Every per-layer metric a traced run prints, in printing order.
pub fn per_layer() -> Vec<Decl> {
    let mut out = COUNTED.to_vec();
    out.extend(SPAN_TOTALS.iter().map(|&(m, _)| d(m, "s")));
    out.extend(SPAN_SELF.iter().map(|&(m, _)| d(m, "s")));
    out.extend(layers::METRICS.iter().map(|&(n, unit)| d(n, unit)));
    out.push(d(TRACE_OVERHEAD, "frac"));
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer values of one traced run, in [`per_layer`] order.
/// `traced` is repetition `unit` of `spans`; `untraced_wall_s` is the
/// untraced time its `wall_s` is held against.
pub fn per_layer_values(
    traced: &UnitResult,
    unit: u32,
    untraced_wall_s: f64,
    spans: &Spans,
    layers: &BTreeMap<&'static str, f64>,
) -> Vec<(Decl, f64)> {
    let c: &Counts = &traced.counts;
    let events = c.get("simnet.sim.events");
    let mut v = layers.clone();
    for decl in COUNTED.iter().filter(|decl| decl.unit == "count") {
        v.insert(decl.name, c.get(decl.name) as f64);
    }
    v.insert(
        "simnet.sim.ns_per_event",
        traced.run_s * 1e9 / events.max(1) as f64,
    );
    v.insert("simnet.sim.events_per_sec", events as f64 / traced.run_s);
    v.insert(
        "transport.credits_wasted_frac",
        ratio(
            c.get("transport.credits_wasted"),
            c.get("transport.credits_received"),
        ),
    );
    v.insert(
        "core.flexpass.redundancy_frac",
        ratio(
            c.get("core.flexpass.redundant_bytes"),
            c.get("transport.data_bytes"),
        ),
    );
    v.insert(
        "core.flexpass.reorder_peak_kb",
        c.get("core.flexpass.reorder_peak_bytes") as f64 / 1e3,
    );
    let totals = spans.total_secs_by_name(unit);
    for (metric, span) in SPAN_TOTALS {
        v.insert(metric, totals.get(span).copied().unwrap_or(0.0));
    }
    let selfs = spans.self_secs_by_name(unit);
    for (metric, span) in SPAN_SELF {
        v.insert(metric, selfs.get(span).copied().unwrap_or(0.0));
    }
    v.insert(
        TRACE_OVERHEAD,
        (traced.wall_s - untraced_wall_s) / untraced_wall_s,
    );
    per_layer()
        .into_iter()
        .map(|decl| (decl, v.get(decl.name).copied().unwrap_or(f64::NAN)))
        .collect()
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
pub fn bound(manifest: &Json, metric: &str) -> Option<f64> {
    manifest
        .get("end_to_end")?
        .items()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}
