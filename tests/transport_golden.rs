//! Golden-counter pins for every transport on one small lossy incast.
//!
//! The transports share their loss-recovery and credit machinery
//! (`flexpass_transport::common`); a change there that is meant to be
//! inert must leave the exact event count, completion times and
//! recovery counters of every transport untouched. The constants below
//! are the values the simulator produced before that machinery was
//! shared; a PR that intends to change transport behaviour regenerates
//! them (run with `--nocapture` to print the current values) and says
//! so.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{
    dctcp_profile, flexpass_profile, homa_mix_profile, host_variant, naive_profile, ProfileParams,
};
use flexpass::schemes::{Deployment, Scheme, SchemeFactory};
use flexpass::FlexPassFactory;
use flexpass_metrics::Recorder;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::WireBytes;
use flexpass_simnet::sim::{Sim, TransportFactory};
use flexpass_simnet::switch::SwitchProfile;
use flexpass_simnet::topology::Topology;
use flexpass_transport::dctcp::DctcpFactory;
use flexpass_transport::expresspass::ExpressPassFactory;
use flexpass_transport::homa::{HomaConfig, HomaFactory};
use flexpass_workload::incast;

const SENDERS: usize = 24;
const ROUNDS: u64 = 3;
const RESP_BYTES: u64 = 96_000;

/// What one run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events_processed: u64,
    sum_fct_ns: u64,
    timeouts: u64,
    retx_pkts: u64,
    proactive_retx_pkts: u64,
    credits_wasted: u64,
}

/// A 10 Gbps testbed fabric whose switch buffer holds well under one
/// round of the incast, so every round overflows it.
fn shallow_params() -> ProfileParams {
    let mut p = ProfileParams::testbed(Rate::from_gbps(10));
    p.shared_buffer = (WireBytes::new(150_000), 0.25);
    p
}

/// Three rounds of a 24→1 incast on a 25-host star, with 0.5 % random
/// non-congestion loss on top of the buffer overflow so that even the
/// credit-scheduled transports lose data packets and tails.
fn run(factory: Box<dyn TransportFactory>, profile: &SwitchProfile) -> Golden {
    let host = host_variant(profile);
    let topo = Topology::star(
        SENDERS + 1,
        profile.port.rate,
        TimeDelta::micros(5),
        profile,
        &host,
    );
    let mut sim = Sim::new(topo, factory, Recorder::new());
    sim.inject_loss(0.005, 13);
    let senders: Vec<usize> = (0..SENDERS).collect();
    let mut n_flows = 0;
    for round in 0..ROUNDS {
        for f in incast(
            &senders,
            SENDERS,
            RESP_BYTES,
            Time::from_micros(10 + round * 2_000),
            round * SENDERS as u64,
        ) {
            sim.schedule_flow(f);
            n_flows += 1;
        }
    }
    sim.run_to_completion(TimeDelta::millis(100));
    let rec = &sim.observer;
    assert_eq!(rec.completed(), n_flows, "not every flow completed");
    let tx = |f: fn(&flexpass_simnet::endpoint::TxStats) -> u64| -> u64 {
        rec.tx_by_tag.values().map(f).sum()
    };
    let g = Golden {
        events_processed: sim.events_processed(),
        sum_fct_ns: rec.flows.iter().map(|r| (r.fct * 1e9).round() as u64).sum(),
        timeouts: tx(|s| s.timeouts),
        retx_pkts: tx(|s| s.retx_pkts),
        proactive_retx_pkts: tx(|s| s.proactive_retx_pkts),
        credits_wasted: tx(|s| s.credits_wasted),
    };
    println!("{g:?}");
    // The scenario must keep exercising loss recovery and the RTO path.
    assert!(g.retx_pkts + g.proactive_retx_pkts > 0, "no recovery ran");
    assert!(g.timeouts > 0, "no RTO fired");
    g
}

#[test]
fn dctcp_golden() {
    let g = run(
        Box::new(DctcpFactory::new()),
        &dctcp_profile(&shallow_params()),
    );
    assert_eq!(
        g,
        Golden {
            events_processed: 53_685,
            sum_fct_ns: 1_224_751_242,
            timeouts: 158,
            retx_pkts: 1_218,
            proactive_retx_pkts: 0,
            credits_wasted: 0,
        }
    );
}

#[test]
fn expresspass_golden() {
    let g = run(
        Box::new(ExpressPassFactory::new()),
        &naive_profile(&shallow_params()),
    );
    assert_eq!(
        g,
        Golden {
            events_processed: 116_388,
            sum_fct_ns: 281_576_698,
            timeouts: 17,
            retx_pkts: 19,
            proactive_retx_pkts: 0,
            credits_wasted: 795,
        }
    );
}

#[test]
fn homa_golden() {
    let g = run(
        Box::new(HomaFactory::new(HomaConfig::default())),
        &homa_mix_profile(&shallow_params()),
    );
    assert_eq!(
        g,
        Golden {
            events_processed: 80_152,
            sum_fct_ns: 1_791_401_056,
            timeouts: 249,
            retx_pkts: 3_398,
            proactive_retx_pkts: 0,
            credits_wasted: 0,
        }
    );
}

#[test]
fn layering_golden() {
    let params = shallow_params();
    // Odd-numbered senders stay on legacy DCTCP: their traffic fills the
    // shared data queue, so the Layering window sees ECN marks and gates
    // credits (alone, a credit-paced incast never builds that queue).
    let upgraded: Vec<bool> = (0..=SENDERS).map(|h| h % 2 == 0).collect();
    let g = run(
        Box::new(SchemeFactory::new(
            Scheme::Layering,
            Deployment::from_hosts(upgraded),
            FlexPassConfig::new(params.wq),
            0.5,
        )),
        &Scheme::Layering.profile(&params, 0.5),
    );
    assert_eq!(
        g,
        Golden {
            events_processed: 97_771,
            sum_fct_ns: 527_548_426,
            timeouts: 85,
            retx_pkts: 626,
            proactive_retx_pkts: 0,
            credits_wasted: 1_620,
        }
    );
}

#[test]
fn flexpass_golden() {
    let params = shallow_params();
    let g = run(
        Box::new(FlexPassFactory::new(FlexPassConfig::new(params.wq))),
        &flexpass_profile(&params),
    );
    assert_eq!(
        g,
        Golden {
            events_processed: 107_630,
            sum_fct_ns: 412_662_267,
            timeouts: 6,
            retx_pkts: 1_064,
            proactive_retx_pkts: 84,
            credits_wasted: 154,
        }
    );
}
