//! The hook layer's sinks must be observation-only (DESIGN.md "Hook
//! layer"): a plain, an audited, a traced and an audited-plus-traced run of
//! the same scenario under the same seed must agree on every observable,
//! bit for bit, and the trace itself must round-trip through its JSONL
//! encoding.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{flexpass_profile, host_variant, ProfileParams};
use flexpass::FlexPassFactory;
use flexpass_metrics::Recorder;
use flexpass_simcore::time::TimeDelta;
use flexpass_simnet::sim::Sim;
use flexpass_simnet::topology::{ClosParams, Topology};
use flexpass_simnet::{audit, trace};
use flexpass_workload::{background, BackgroundParams, FlowSizeCdf};

/// A run's complete observable outcome; FCTs compared by bit pattern (see
/// `tests/determinism.rs`).
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    events: u64,
    end_ns: u64,
    completed: usize,
    fcts: Vec<(u64, u64)>,
    drops: Vec<u64>,
}

fn run_smoke(seed: u64) -> Digest {
    let clos = ClosParams::small();
    let flows = background(
        &FlowSizeCdf::web_search().truncate(5_000_000.0),
        &BackgroundParams {
            n_hosts: clos.n_hosts(),
            host_rate: clos.link_rate,
            oversub: 3.0,
            load: 0.5,
            n_flows: 80,
            seed,
            first_id: 0,
        },
    );
    let params = ProfileParams::simulation(clos.link_rate);
    let profile = flexpass_profile(&params);
    let host = host_variant(&profile);
    let topo = Topology::clos(clos, &profile, &host);
    let mut sim = Sim::new(
        topo,
        Box::new(FlexPassFactory::new(FlexPassConfig::new(0.5))),
        Recorder::new(),
    );
    for f in &flows {
        sim.schedule_flow(*f);
    }
    sim.run_to_completion(TimeDelta::millis(20));
    let mut fcts: Vec<(u64, u64)> = sim
        .observer
        .flows
        .iter()
        .map(|r| (r.flow, r.fct.to_bits()))
        .collect();
    fcts.sort_unstable();
    Digest {
        events: sim.events_processed(),
        end_ns: sim.now().as_nanos(),
        completed: sim.observer.completed(),
        fcts,
        drops: sim.observer.drops.values().copied().collect(),
    }
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let plain = run_smoke(7);
    assert!(plain.events > 0 && plain.completed > 0, "scenario ran");

    trace::install(trace::TraceFilter::all());
    let traced = run_smoke(7);
    let log = trace::finish();

    audit::install();
    let audited = run_smoke(7);
    let report = audit::finish();

    audit::install();
    trace::install(trace::TraceFilter::all());
    let both = run_smoke(7);
    let both_log = trace::finish();
    let both_report = audit::finish();

    assert_eq!(plain, traced, "tracing changed simulation results");
    assert_eq!(plain, audited, "auditing changed simulation results");
    assert_eq!(
        plain, both,
        "both sinks together changed simulation results"
    );
    assert!(report.is_clean(), "{report}");
    assert!(both_report.is_clean(), "{both_report}");
    assert!(
        both_log.events == log.events,
        "arming the auditor beside the tracer changed the trace"
    );
    assert!(log.total > 0, "tracer observed nothing");
    assert!(!log.events.is_empty());

    // The captured log must survive its own JSONL encoding...
    let jsonl = log.to_jsonl();
    let (parsed, skipped) = trace::TraceLog::parse_jsonl(&jsonl);
    assert_eq!(skipped, 0, "unparseable lines in fresh trace");
    assert_eq!(parsed, log.events, "JSONL round trip altered events");

    // ...and fold into the totals `cargo xtask trace-report` prints.
    let mut totals = trace::TraceTotals::default();
    log.events.iter().for_each(|ev| totals.fold(ev));
    assert!(
        totals.count(trace::EventKind::Enqueue) > 0,
        "no enqueues folded"
    );
    let peak = totals.peak_depth.map_or(0, |(bytes, _)| bytes);
    assert!(peak > 0, "no queue depth observed");
}

#[test]
fn filtered_trace_records_only_requested_kinds() {
    let filter = trace::TraceFilter::parse("drop,retransmit").expect("valid spec");
    trace::install(filter);
    let _ = run_smoke(11);
    let log = trace::finish();
    for ev in &log.events {
        let kind = ev.kind().name();
        assert!(
            kind == "drop" || kind == "retransmit",
            "filter leaked a {kind} event"
        );
    }
}
