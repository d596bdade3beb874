//! End-to-end integration tests: full transports over the Clos fabric.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{flexpass_profile, host_variant, ProfileParams};
use flexpass::schemes::{Deployment, Scheme, SchemeFactory, TAG_LEGACY, TAG_UPGRADED};
use flexpass::FlexPassFactory;
use flexpass_metrics::Recorder;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::TimeDelta;
use flexpass_simnet::sim::Sim;
use flexpass_simnet::topology::{ClosParams, Topology};
use flexpass_workload::{background, BackgroundParams, FlowSizeCdf};

fn clos_flows(n: usize, seed: u64) -> (ClosParams, Vec<flexpass_simnet::packet::FlowSpec>) {
    let clos = ClosParams::small();
    let flows = background(
        &FlowSizeCdf::web_search().truncate(10_000_000.0),
        &BackgroundParams {
            n_hosts: clos.n_hosts(),
            host_rate: clos.link_rate,
            oversub: 3.0,
            load: 0.5,
            n_flows: n,
            seed,
            first_id: 0,
        },
    );
    (clos, flows)
}

/// Every flow completes under full FlexPass deployment, with zero
/// retransmission timeouts and bounded redundancy.
#[test]
fn flexpass_full_deployment_completes_cleanly() {
    let (clos, flows) = clos_flows(200, 42);
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
    let rec = &sim.observer;
    assert_eq!(rec.completed(), 200);
    assert_eq!(rec.total_timeouts(), 0, "FlexPass timed out");
    // §4.2: proactive retransmission redundancy stays small.
    assert!(
        rec.redundancy_fraction() < 0.05,
        "redundancy {:.3}",
        rec.redundancy_fraction()
    );
}

/// Mid-rollout (50 % of racks), every scheme completes all flows and both
/// legacy and upgraded flows ran. The upgraded-vs-legacy tail is the claim
/// table's `fig10/fp_upgraded_vs_legacy_*` rows.
#[test]
fn mid_rollout_all_schemes_complete() {
    for scheme in Scheme::ALL {
        let (clos, mut flows) = clos_flows(150, 7);
        let mut rng = SimRng::new(3);
        let deployment = Deployment::by_rack_ratio(&clos.rack_of(), 0.5, &mut rng);
        for f in &mut flows {
            f.tag = deployment.tag_for(f);
        }
        let frac = deployment.upgraded_byte_fraction(&flows);
        let params = ProfileParams::simulation(clos.link_rate);
        let profile = scheme.profile(&params, frac);
        let host = host_variant(&profile);
        let topo = Topology::clos(clos, &profile, &host);
        let factory = SchemeFactory::new(scheme, deployment, FlexPassConfig::new(0.5), frac);
        let mut sim = Sim::new(topo, Box::new(factory), Recorder::new());
        for f in &flows {
            sim.schedule_flow(*f);
        }
        sim.run_to_completion(TimeDelta::millis(20));
        assert_eq!(
            sim.observer.completed(),
            150,
            "{} lost flows",
            scheme.label()
        );
        let legacy = sim.observer.fct_stats(|r| r.tag == TAG_LEGACY);
        let upgraded = sim.observer.fct_stats(|r| r.tag == TAG_UPGRADED);
        assert!(legacy.count > 0 && upgraded.count > 0);
    }
}

/// Simulation runs are exactly reproducible.
#[test]
fn deterministic_end_to_end() {
    let run = || {
        let (clos, flows) = clos_flows(100, 11);
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
            .map(|r| (r.flow, (r.fct * 1e12) as u64))
            .collect();
        fcts.sort_unstable();
        fcts
    };
    assert_eq!(run(), run());
}

/// Byte conservation: the sum of delivered application bytes equals the
/// sum of flow sizes (no phantom or missing data).
#[test]
fn byte_conservation() {
    let (clos, flows) = clos_flows(120, 23);
    let expected: u64 = flows.iter().map(|f| f.size.get()).sum();
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
    let delivered: u64 = sim.observer.flows.iter().map(|r| r.size).sum();
    assert_eq!(delivered, expected);
}
