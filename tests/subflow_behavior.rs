//! Integration tests for the Figure-7 sub-flow bandwidth claims.

use flexpass_experiments::csvout::Csv;
use flexpass_experiments::fig7::steady_subflow_gbps;
use flexpass_experiments::fig9::run_fp_vs_dctcp;
use flexpass_experiments::figures::{selected, Output};
use flexpass_experiments::RunScale;
use flexpass_metrics::Recorder;
use flexpass_simnet::packet::Subflow;

/// Figure 7 through the figure table: its three outputs and their tables.
fn fig7() -> Vec<(&'static Output, Csv)> {
    let figure = selected("fig7").next().expect("fig7 is in the table");
    figure.run(RunScale::Smoke).expect("fig7 takes no input")
}

fn steady(rec: &Recorder, tag: u32) -> f64 {
    let tp = rec.throughput_gbps(tag);
    let lo = tp.len() / 2;
    if lo >= tp.len() {
        return 0.0;
    }
    tp[lo..].iter().sum::<f64>() / (tp.len() - lo) as f64
}

/// Figure 7(a): alone on the link, the proactive sub-flow takes about w_q
/// of the capacity and the reactive sub-flow soaks up the rest; together
/// they saturate the link.
#[test]
fn single_flexpass_flow_uses_both_subflows() {
    // Rebuild the scenario through the public experiment API.
    let _ = fig7(); // Smoke-checks the CSV path.
    let rec = flexpass_experiments::fig9::run_fp_vs_dctcp();
    let _ = rec;
    // Direct assertion via fig7 helpers requires the recorder; re-run:
    let rec = run_scenario_a();
    let pro = steady_subflow_gbps(&rec, Subflow::Proactive, 45);
    let rea = steady_subflow_gbps(&rec, Subflow::Reactive, 45);
    assert!(
        (3.5..5.5).contains(&pro),
        "proactive should hold ~w_q of 10G, got {pro:.2}"
    );
    assert!(
        (3.5..6.0).contains(&rea),
        "reactive should fill the spare half, got {rea:.2}"
    );
    assert!(pro + rea > 8.5, "link underutilized: {:.2}", pro + rea);
}

fn run_scenario_a() -> Recorder {
    use flexpass::config::FlexPassConfig;
    use flexpass::profiles::{flexpass_profile, host_variant, ProfileParams};
    use flexpass::schemes::{Deployment, Scheme, SchemeFactory};
    use flexpass_simcore::time::{Rate, Time, TimeDelta};
    use flexpass_simnet::packet::FlowSpec;
    use flexpass_simnet::sim::Sim;
    use flexpass_simnet::topology::Topology;

    let params = ProfileParams::testbed(Rate::from_gbps(10));
    let profile = flexpass_profile(&params);
    let host = host_variant(&profile);
    let topo = Topology::star(3, params.rate, TimeDelta::micros(5), &profile, &host);
    let factory = SchemeFactory::new(
        Scheme::FlexPass,
        Deployment::full(3),
        FlexPassConfig::new(0.5),
        0.5,
    );
    let mut sim = Sim::new(
        topo,
        Box::new(factory),
        Recorder::new().with_throughput(TimeDelta::millis(1)),
    );
    sim.schedule_flow(FlowSpec {
        id: 1,
        src: 0,
        dst: 2,
        size: flexpass_simcore::units::Bytes::new(500_000_000),
        start: Time::ZERO,
        tag: 1,
        fg: false,
    });
    sim.run_until(Time::from_millis(45));
    sim.observer
}

/// Figure 7(c): against a legacy DCTCP flow, FlexPass holds its guaranteed
/// half almost entirely through the proactive sub-flow; the reactive
/// sub-flow finds essentially no spare bandwidth.
#[test]
fn flexpass_vs_dctcp_reactive_starves() {
    let rec = run_fp_vs_dctcp();
    let dctcp = steady(&rec, 0);
    let pro = steady_subflow_gbps(&rec, Subflow::Proactive, 90);
    let rea = steady_subflow_gbps(&rec, Subflow::Reactive, 90);
    assert!((3.5..6.0).contains(&dctcp), "DCTCP {dctcp:.2}");
    assert!((3.5..6.0).contains(&pro), "proactive {pro:.2}");
    assert!(
        rea < 1.0,
        "reactive should find no spare bandwidth, got {rea:.2}"
    );
}

/// The fig7 scenario builders produce non-empty, well-formed CSV tables.
#[test]
fn fig7_csvs_well_formed() {
    let tables = fig7();
    assert_eq!(tables.len(), 3);
    for (out, csv) in tables {
        assert!(!csv.is_empty(), "{} empty", out.stem);
        let text = csv.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("time_ms,"));
        assert!(lines.len() >= 45);
    }
}
