//! Behavioural integration tests for the FlexPass variants on the testbed
//! topology.

use flexpass::config::{CreditPolicy, FlexPassConfig};
use flexpass::profiles::{flexpass_profile, host_variant, ProfileParams};
use flexpass::FlexPassFactory;
use flexpass_metrics::Recorder;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simnet::packet::FlowSpec;
use flexpass_simnet::sim::Sim;
use flexpass_simnet::topology::Topology;

fn flow(id: u64, src: usize, dst: usize, size: u64, start_us: u64) -> FlowSpec {
    FlowSpec {
        id,
        src,
        dst,
        size: flexpass_simcore::units::Bytes::new(size),
        start: Time::from_micros(start_us),
        tag: 0,
        fg: false,
    }
}

fn star(profile: &flexpass_simnet::switch::SwitchProfile, n: usize) -> Topology {
    let host = host_variant(profile);
    Topology::star(n, profile.port.rate, TimeDelta::micros(5), profile, &host)
}

/// The RC3-splitting variant completes but buffers far more out-of-order
/// bytes than stock FlexPass on the same flow (Figure 5a's reason for
/// rejecting it).
#[test]
fn rc3_variant_needs_bigger_reorder_buffer() {
    let params = ProfileParams::testbed(Rate::from_gbps(10));
    let profile = flexpass_profile(&params);
    let run = |cfg: FlexPassConfig| {
        let topo = star(&profile, 3);
        let mut sim = Sim::new(topo, Box::new(FlexPassFactory::new(cfg)), Recorder::new());
        sim.schedule_flow(flow(1, 0, 2, 8_000_000, 0));
        sim.run_to_completion(TimeDelta::millis(20));
        assert_eq!(sim.observer.completed(), 1);
        sim.observer.flows[0].reorder_peak
    };
    let stock = run(FlexPassConfig::new(0.5));
    let rc3 = run(FlexPassConfig::rc3_splitting(0.5));
    assert!(
        rc3 > stock.max(1) * 10,
        "RC3 reorder peak {rc3} should dwarf stock {stock}"
    );
    // RC3 buffers a large fraction of the flow (the paper: ~half).
    assert!(rc3 > 1_000_000, "RC3 reorder peak only {rc3} bytes");
}

/// The alternative-queueing variant (reactive sub-flow in Q2) still
/// completes; Figure 5(b) only claims it performs worse, which the
/// experiment harness measures.
#[test]
fn alt_queueing_variant_completes() {
    let params = ProfileParams::testbed(Rate::from_gbps(10));
    let profile = flexpass_profile(&params);
    let topo = star(&profile, 3);
    let mut sim = Sim::new(
        topo,
        Box::new(FlexPassFactory::new(FlexPassConfig::alternative_queueing(
            0.5,
        ))),
        Recorder::new(),
    );
    sim.schedule_flow(flow(1, 0, 2, 2_000_000, 0));
    sim.schedule_flow(flow(2, 1, 2, 2_000_000, 0));
    sim.run_to_completion(TimeDelta::millis(20));
    assert_eq!(sim.observer.completed(), 2);
}

/// pHost-style fixed-rate credits (the §4.3 extensibility point) complete
/// a flow at the guaranteed rate without the feedback loop.
#[test]
fn fixed_rate_credit_policy_works() {
    let params = ProfileParams::testbed(Rate::from_gbps(10));
    let profile = flexpass_profile(&params);
    let topo = star(&profile, 3);
    let cfg = FlexPassConfig {
        credit_policy: CreditPolicy::FixedRate,
        ..FlexPassConfig::new(0.5)
    };
    let mut sim = Sim::new(topo, Box::new(FlexPassFactory::new(cfg)), Recorder::new());
    sim.schedule_flow(flow(1, 0, 2, 5_000_000, 0));
    sim.run_to_completion(TimeDelta::millis(20));
    let rec = &sim.observer;
    assert_eq!(rec.completed(), 1);
    assert_eq!(rec.total_timeouts(), 0);
    // 5 MB at >= w_q x 10G (plus reactive) finishes well under 10 ms.
    assert!(rec.flows[0].fct < 0.010, "FCT {}", rec.flows[0].fct);
}

/// Disabling first-RTT reactive transmission makes short flows strictly
/// slower (they wait one RTT for credits, like plain ExpressPass).
#[test]
fn first_rtt_reactive_helps_short_flows() {
    let params = ProfileParams::testbed(Rate::from_gbps(10));
    let profile = flexpass_profile(&params);
    let run = |cfg: FlexPassConfig| {
        let topo = star(&profile, 3);
        let mut sim = Sim::new(topo, Box::new(FlexPassFactory::new(cfg)), Recorder::new());
        sim.schedule_flow(flow(1, 0, 2, 14_600, 0));
        sim.run_to_completion(TimeDelta::millis(10));
        sim.observer.flows[0].fct
    };
    let with = run(FlexPassConfig::new(0.5));
    let without = run(FlexPassConfig {
        reactive_first_rtt: false,
        ..FlexPassConfig::new(0.5)
    });
    assert!(
        with < without,
        "first-RTT reactive should win: {with} vs {without}"
    );
}
