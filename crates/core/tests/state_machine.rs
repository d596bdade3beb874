//! Property tests for the FlexPass sender's Figure-4 state machine, run on
//! a real sender/receiver pair (`simnet::loopback`) and held against the
//! DCTCP and ExpressPass pairs as well.

use flexpass::config::FlexPassConfig;
use flexpass::FlexPassFactory;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::units::Bytes;
use flexpass_simnet::loopback;
use flexpass_simnet::packet::{Packet, Payload, Subflow};
use flexpass_simnet::sim::TransportFactory;
use flexpass_simnet::{AppEvent, TxStats};
use flexpass_transport::{DctcpFactory, ExpressPassFactory};
use proptest::prelude::*;

/// The transports under test, by name.
fn factories() -> [(&'static str, Box<dyn TransportFactory>); 3] {
    [
        (
            "flexpass",
            Box::new(FlexPassFactory::new(FlexPassConfig::new(0.5))),
        ),
        ("dctcp", Box::new(DctcpFactory::new())),
        ("expresspass", Box::new(ExpressPassFactory::new())),
    ]
}

/// Runs one `n`-packet flow of `factory`, checks that the receiver raised
/// `FlowCompleted` once and the sender `SenderDone` once, and returns the
/// sender's statistics.
fn run_flow(
    name: &str,
    factory: &dyn TransportFactory,
    n: u32,
    drop: impl FnMut(&Packet) -> bool,
) -> TxStats {
    let run = loopback::run(factory, Bytes::new(1460) * u64::from(n), drop);
    let (mut completed, mut done) = (0, Vec::new());
    for ev in &run.events {
        match *ev {
            AppEvent::FlowCompleted { .. } => completed += 1,
            AppEvent::SenderDone { stats, .. } => done.push(stats),
        }
    }
    assert_eq!(
        (completed, done.len()),
        (1, 1),
        "{name}, n={n}: FlowCompleted, SenderDone after {} callbacks",
        run.callbacks
    );
    done[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any pattern of packet drops the flow completes: the sender
    /// never deadlocks, never double counts, and reports SenderDone exactly
    /// once with consistent stats. Proactive packets are never
    /// congestion-dropped (§4.1); every other data packet (FlexPass's
    /// reactive sub-flow, all DCTCP and ExpressPass data) drops at the
    /// drawn rate.
    #[test]
    fn sender_completes_under_random_drops(
        seed in 0u64..100_000,
        n in 1u32..120,
        drop_rate in 0.0f64..0.6,
    ) {
        for (name, factory) in factories() {
            let mut rng = SimRng::new(seed);
            let stats = run_flow(name, factory.as_ref(), n, |p| {
                matches!(p.payload, Payload::Data(d) if d.sub != Subflow::Proactive)
                    && rng.chance(drop_rate)
            });
            prop_assert!(stats.data_pkts >= u64::from(n));
            prop_assert!(stats.data_bytes >= u64::from(n) * 1460);
            // Redundant bytes are bounded by total sent bytes.
            prop_assert!(stats.redundant_bytes <= stats.data_bytes);
        }
    }
}

/// With a lossless network, every flow size completes with zero
/// retransmissions and zero timeouts.
#[test]
fn lossless_run_has_no_redundancy() {
    for (name, factory) in factories() {
        for n in 1..100 {
            let stats = run_flow(name, factory.as_ref(), n, |_| false);
            assert_eq!((stats.retx_pkts, stats.timeouts), (0, 0), "{name}, n={n}");
        }
    }
}
