//! Tests of the benchmark itself: what it emits matches what
//! `BENCHMARK.json` declares, its rebuilt sweep point is the simulator's
//! own, its inputs depend on the seed and on nothing else.

use std::collections::BTreeMap;

use flexbench::json::Json;
use flexbench::loopback;
use flexbench::metrics::{self, END_TO_END, MANIFEST};
use flexbench::spans::{Span, Spans};
use flexbench::suite::{verdict, Verdict};
use flexbench::units::{
    incast_flows, scale_spec, star_flows, sweep_point, sweep_spec, Counts, UnitResult, Workload,
    COUNT_NAMES, SWEEP_RATIO,
};
use flexpass::config::FlexPassConfig;
use flexpass::schemes::{Deployment, Scheme};
use flexpass::FlexPassFactory;
use flexpass_experiments::sweep;
use flexpass_simcore::units::Bytes;
use flexpass_transport::dctcp::DctcpFactory;

fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .expect("key present")
        .items()
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn emitted_names_equal_the_manifest() {
    let manifest = Json::parse(MANIFEST).expect("BENCHMARK.json parses");

    let workloads: Vec<&str> = manifest
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for name in &workloads {
        assert_eq!(Workload::parse(name).map(Workload::name), Some(*name));
    }

    let pairs = |decls: &[metrics::Decl]| -> Vec<(String, String)> {
        decls
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(declared(&manifest, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(
        declared(&manifest, "per_layer"),
        pairs(&metrics::per_layer())
    );

    // What a traced run prints is the declared list, each name once.
    let unit = UnitResult {
        setup_s: 1.0,
        wall_s: 1.0,
        run_s: 1.0,
        offered: 1,
        failed: 0,
        failed_check: None,
        digest: String::new(),
        counts: Counts::default(),
    };
    let values = metrics::per_layer_values(&unit, 1, 1.0, &Spans::on(), &BTreeMap::new());
    let emitted: Vec<&str> = values.iter().map(|(d, _)| d.name).collect();
    let mut unique = emitted.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), emitted.len(), "a per-layer name repeats");
    assert_eq!(emitted.len(), declared(&manifest, "per_layer").len());

    // Every exact count a traced run prints is one the units collect.
    for (decl, _) in values.iter().filter(|(d, _)| d.unit == "count") {
        assert!(
            COUNT_NAMES.contains(&decl.name),
            "{} is never counted",
            decl.name
        );
    }

    for e2e in manifest.get("end_to_end").expect("end_to_end").items() {
        let name = e2e.get("name").and_then(Json::as_str).expect("name");
        assert!(metrics::bound(&manifest, name).is_some_and(|b| b > 0.0 && b <= 0.25));
    }
}

#[test]
fn rebuilt_sweep_point_equals_run_point() {
    let mut spec = sweep_spec();
    spec.n_flows = Some(40); // the full 300 take a minute unoptimised
    let ours = sweep_point(Scheme::FlexPass, SWEEP_RATIO, &spec);
    let theirs = sweep::run_point(Scheme::FlexPass, SWEEP_RATIO, &spec);
    let bits = |v: [f64; 3]| v.map(f64::to_bits);
    assert_eq!(ours.scheme, theirs.scheme);
    assert_eq!(ours.ratio.to_bits(), theirs.ratio.to_bits());
    assert_eq!(bits(ours.p99_small), bits(theirs.p99_small));
    assert_eq!(bits(ours.avg), bits(theirs.avg));
    assert_eq!(bits(ours.stddev_small), bits(theirs.stddev_small));
    assert_eq!(ours.reorder_mean.to_bits(), theirs.reorder_mean.to_bits());
    assert_eq!(ours.timeouts.to_bits(), theirs.timeouts.to_bits());
    assert_eq!(ours.redundancy.to_bits(), theirs.redundancy.to_bits());
    assert_eq!(ours.flows.to_bits(), theirs.flows.to_bits());
    assert!(ours.flows > 0.0, "the point completed no flow");
}

#[test]
fn builders_follow_the_seed() {
    assert_eq!(star_flows(1), star_flows(1));
    assert_ne!(star_flows(1), star_flows(2));
    assert_eq!(star_flows(1).len(), 16);
    // A flow is upgraded only when both ends are: 8 FlexPass, 8 DCTCP.
    assert_eq!(star_flows(1).iter().filter(|f| f.tag == 1).count(), 8);

    assert_eq!(incast_flows(1), incast_flows(1));
    assert_ne!(incast_flows(1), incast_flows(2));
    assert_eq!(incast_flows(1).len(), 64 * 30);

    // The seed moves start times and nothing else: two seeds offer the
    // same flows, so their runs are comparable.
    let unplaced = |flows: Vec<flexpass_simnet::FlowSpec>| -> Vec<_> {
        flows
            .into_iter()
            .map(|f| (f.id, f.src, f.dst, f.size, f.tag))
            .collect()
    };
    assert_eq!(unplaced(star_flows(1)), unplaced(star_flows(2)));
    assert_eq!(unplaced(incast_flows(1)), unplaced(incast_flows(2)));

    // The Clos generators are seeded once, for every benchmark seed.
    assert_eq!(sweep_spec().seed, scale_spec().seed);
    let flows = || sweep::build_flows(&sweep_spec(), &Deployment::none(48), 48);
    assert_eq!(flows(), flows());
    assert_eq!(flows().len(), 300);
}

#[test]
fn span_self_time_is_duration_minus_children() {
    let span = |name: &str, start_ns, end_ns, parent| Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
        unit: 1,
    };
    let mut spans = Spans::on();
    spans.push_closed(span("point", 0, 100, None));
    spans.push_closed(span("build", 10, 30, Some(0)));
    spans.push_closed(span("run", 40, 70, Some(0)));
    spans.push_closed(span("inner", 45, 50, Some(2)));
    spans.push_closed(span("run", 200, 260, None));
    assert_eq!(spans.self_ns(0), 100 - 20 - 30);
    assert_eq!(
        spans.self_ns(2),
        30 - 5,
        "grandchildren count against the child only"
    );
    assert_eq!(spans.self_ns(3), 5);
    let selfs = spans.self_secs_by_name(1);
    assert!(
        (selfs["run"] - 85e-9).abs() < 1e-15,
        "same-name spans add up"
    );
    let totals = spans.total_secs_by_name(1);
    assert!((totals["run"] - 90e-9).abs() < 1e-15);
    assert!(spans.total_secs_by_name(2).is_empty());

    // A disabled recorder keeps nothing.
    let mut off = Spans::off();
    let open = off.enter("x");
    off.exit(open);
    assert!(off.all().is_empty());

    // A live one nests by call order.
    let mut on = Spans::on();
    let outer = on.enter("outer");
    let inner = on.enter("inner");
    on.exit(inner);
    on.exit(outer);
    assert_eq!(on.all()[1].parent, Some(0));
    assert!(Json::parse(&on.to_json()).is_ok());
}

#[test]
fn loopback_completes_clean_and_lossy_flows() {
    let size = Bytes::new(200_000);
    let clean = loopback::run(&mut DctcpFactory::new(), size, None);
    assert!(clean.completed && clean.dropped == 0);
    // At least one callback per data packet and per ACK.
    assert!(clean.callbacks >= 2 * 137, "{} callbacks", clean.callbacks);

    let mut fp = FlexPassFactory::new(FlexPassConfig::new(0.5));
    let lossy = loopback::run(&mut fp, size, Some(50));
    assert!(lossy.completed, "recovery must finish the flow");
    assert!(lossy.dropped > 0);
    assert!(lossy.callbacks > loopback::run(&mut fp, size, None).callbacks);
}

#[test]
fn verdicts_apply_the_bound() {
    let a = [1.00, 1.01, 0.99, 1.00, 1.02];
    let shifted = |by: f64| a.map(|x| x * by);
    assert_eq!(verdict(&a, &shifted(1.05), 0.10), Verdict::Unchanged);
    assert_eq!(verdict(&a, &shifted(1.20), 0.10), Verdict::Worse);
    assert_eq!(verdict(&a, &shifted(0.80), 0.10), Verdict::Better);
    let wide = [1.0, 1.5, 0.6, 1.3, 0.8];
    assert_eq!(verdict(&a, &wide, 0.10), Verdict::Unresolved);
    assert_eq!(verdict(&a, &[1.0], 0.10), Verdict::Unresolved);
}

#[test]
fn json_reads_a_result_line() {
    let line = r#"{"correct": true, "attempted": 16, "failed": 0, "metrics": {"wall_s": {"value": 2.5e0, "unit": "s"}}}"#;
    let v = Json::parse(line).expect("parses");
    let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let wall = v
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("wall_s");
    assert_eq!(wall.get("value").and_then(Json::as_f64), Some(2.5));
    assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
    assert!(Json::parse("{} x").is_err());
}
