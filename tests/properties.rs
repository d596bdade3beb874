//! Property-based tests over the substrate and transports.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{flexpass_profile, host_variant, ProfileParams};
use flexpass::FlexPassFactory;
use flexpass_metrics::Recorder;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::stats::Percentiles;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::{Bytes, PktCount};
use flexpass_simnet::packet::{FlowSpec, Subflow};
use flexpass_simnet::sim::Sim;
use flexpass_simnet::topology::Topology;
use flexpass_transport::common::{Reassembly, SeqFrontier};
use flexpass_transport::dctcp::DctcpFactory;
use flexpass_workload::FlowSizeCdf;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reassembly delivers exactly once for any arrival order with
    /// arbitrary duplication, its reorder peak is the most bytes ever
    /// buffered above the first missing packet, and after every arrival,
    /// duplicates included, the ACK built from its arrival set equals that
    /// of a standalone `SeqFrontier` fed the same arrivals: the identity
    /// the single-loop receivers' one bitmap rests on.
    #[test]
    fn reassembly_any_order(seed in 0u64..1000, n in 1u32..200, dup_rate in 0.0f64..0.5) {
        let size = Bytes::new(1460) * u64::from(n);
        let mut r = Reassembly::new(size, PktCount::new(n));
        let mut acks = SeqFrontier::with_capacity(n);
        let mut rng = SimRng::new(seed);
        let mut order: Vec<u32> = (0..n).collect();
        for i in (1..order.len()).rev() {
            let j = rng.index(i + 1);
            order.swap(i, j);
        }
        let (mut got, mut peak) = (vec![false; n as usize], 0u64);
        let mut delivered = 0;
        let mut arrive = |s: u32, r: &mut Reassembly| -> bool {
            let new = r.on_packet(s);
            prop_assert_eq!(acks.insert(s), new);
            let ece = s.is_multiple_of(2);
            prop_assert_eq!(
                r.arrived().ack(Subflow::Only, ece, s, s),
                acks.ack(Subflow::Only, ece, s, s)
            );
            got[s as usize] = true;
            let first_missing = got.iter().position(|&g| !g).unwrap_or(got.len());
            let buffered = got[first_missing..].iter().filter(|&&g| g).count() as u64;
            peak = peak.max(buffered * 1460);
            new
        };
        for &s in &order {
            if arrive(s, &mut r) {
                delivered += 1;
            }
            if rng.chance(dup_rate) {
                prop_assert!(!arrive(s, &mut r), "duplicate accepted");
            }
        }
        prop_assert_eq!(delivered, n);
        prop_assert!(r.complete());
        prop_assert_eq!(r.reorder_peak(), Bytes::new(peak));
    }

    /// The frontier set's cumulative point equals the first missing
    /// sequence for any arrival order, and SACK ranges only cover
    /// received packets, the first one the most recent arrival.
    #[test]
    fn ack_builder_invariants(seed in 0u64..1000, n in 1u32..300, frac in 0.1f64..1.0) {
        let mut a = SeqFrontier::with_capacity(n);
        let mut rng = SimRng::new(seed);
        let mut order: Vec<u32> = (0..n).filter(|_| rng.chance(frac)).collect();
        for i in (1..order.len()).rev() {
            let j = rng.index(i + 1);
            order.swap(i, j);
        }
        let mut got = vec![false; n as usize];
        for &s in &order {
            prop_assert!(a.insert(s));
            got[s as usize] = true;
        }
        let first_missing = got.iter().position(|&g| !g).map(|p| p as u32).unwrap_or(n);
        prop_assert_eq!(a.cum(), first_missing);
        if let Some(&last) = order.last() {
            let ack = a.ack(Subflow::Only, false, last, last);
            prop_assert_eq!(ack.cum, first_missing);
            for k in 0..ack.sack_n as usize {
                let (lo, hi) = ack.sack[k];
                prop_assert!(lo < hi);
                for s in lo..hi {
                    prop_assert!(got[s as usize], "SACK covers missing packet {s}");
                }
            }
            // The first block contains the most recent arrival.
            if last >= ack.cum {
                let (lo, hi) = ack.sack[0];
                prop_assert!(lo <= last && last < hi);
            }
        }
    }

    /// Exact percentiles are order statistics: p0 = min, p100 = max,
    /// monotone in q.
    #[test]
    fn percentile_properties(mut xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut p = Percentiles::new();
        for &x in &xs {
            p.push(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(p.quantile(0.0), xs[0]);
        prop_assert_eq!(p.quantile(1.0), *xs.last().unwrap());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let v = p.quantile(i as f64 / 10.0);
            prop_assert!(v >= prev);
            prev = v;
        }
    }
}

proptest! {
    // Whole-simulation properties are expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any random small workload completes reliably under both DCTCP and
    /// FlexPass on the testbed star, with every byte delivered exactly once.
    #[test]
    fn random_workloads_always_complete(seed in 0u64..10_000) {
        let params = ProfileParams::testbed(Rate::from_gbps(10));
        let profile = flexpass_profile(&params);
        let host = host_variant(&profile);
        let mut rng = SimRng::new(seed);
        let cdf = FlowSizeCdf::hadoop();
        let mut flows = Vec::new();
        for i in 0..30u64 {
            let src = rng.index(8);
            let mut dst = rng.index(7);
            if dst >= src {
                dst += 1;
            }
            flows.push(FlowSpec {
                id: i,
                src,
                dst,
                size: Bytes::new(cdf.sample(&mut rng).min(500_000)),
                start: Time::from_nanos(rng.next_below(2_000_000)),
                tag: 0,
                fg: false,
            });
        }

        // FlexPass.
        let topo = Topology::star(9, params.rate, TimeDelta::micros(5), &profile, &host);
        let mut sim = Sim::new(
            topo,
            Box::new(FlexPassFactory::new(FlexPassConfig::new(0.5))),
            Recorder::new(),
        );
        for fl in &flows {
            sim.schedule_flow(*fl);
        }
        sim.run_to_completion(TimeDelta::millis(10));
        prop_assert_eq!(sim.observer.completed(), 30);

        // DCTCP on the same workload.
        let dprofile = flexpass::profiles::dctcp_profile(&params);
        let topo = Topology::star(9, params.rate, TimeDelta::micros(5), &dprofile, &dprofile);
        let mut sim = Sim::new(topo, Box::new(DctcpFactory::new()), Recorder::new());
        for fl in &flows {
            sim.schedule_flow(*fl);
        }
        sim.run_to_completion(TimeDelta::millis(10));
        prop_assert_eq!(sim.observer.completed(), 30);
    }
}
