//! Flow generators: Poisson background traffic and incast foreground.

use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::Bytes;
use flexpass_simnet::packet::FlowSpec;

use crate::cdf::FlowSizeCdf;

/// Parameters for Poisson background traffic (§6.2: random host pairs,
/// Poisson arrivals, load defined on the core links).
#[derive(Clone, Copy, Debug)]
pub struct BackgroundParams {
    /// Number of hosts.
    pub n_hosts: usize,
    /// Host access link rate.
    pub host_rate: Rate,
    /// Core oversubscription ratio (paper: 3.0 at the ToR level).
    pub oversub: f64,
    /// Target utilization of the core (ToR uplinks), 0..1.
    pub load: f64,
    /// Number of flows to generate.
    pub n_flows: usize,
    /// RNG seed (arrivals, pairs, sizes).
    pub seed: u64,
    /// First flow id to assign.
    pub first_id: u64,
}

impl BackgroundParams {
    /// Mean flow inter-arrival time for this load and workload.
    pub fn mean_interarrival(&self, cdf: &FlowSizeCdf) -> TimeDelta {
        // Aggregate core capacity is host capacity / oversubscription; with
        // uniformly random pairs nearly all traffic crosses the ToR uplinks,
        // so we aim the total offered rate at `load * core_capacity`.
        let core_capacity_bps = self.n_hosts as f64 * self.host_rate.as_bps() as f64 / self.oversub;
        let offered_bps = self.load * core_capacity_bps;
        let mean_flow_bits = cdf.mean() * 8.0;
        let flows_per_sec = offered_bps / mean_flow_bits;
        TimeDelta::from_secs_f64(1.0 / flows_per_sec)
    }
}

/// Generates Poisson background flows over random distinct host pairs.
/// Flow `tag`s are left 0; the experiment layer re-tags them by deployment
/// status.
pub fn background(cdf: &FlowSizeCdf, p: &BackgroundParams) -> Vec<FlowSpec> {
    assert!(p.n_hosts >= 2);
    assert!(p.load > 0.0 && p.load < 1.0, "load must be in (0, 1)");
    let mut rng = SimRng::new(p.seed);
    let mean_ia = p.mean_interarrival(cdf).as_secs_f64();
    let mut t = 0.0f64;
    let mut flows = Vec::with_capacity(p.n_flows);
    for i in 0..p.n_flows {
        t += rng.exponential(mean_ia);
        let src = rng.index(p.n_hosts);
        let mut dst = rng.index(p.n_hosts - 1);
        if dst >= src {
            dst += 1;
        }
        flows.push(FlowSpec {
            id: p.first_id + i as u64,
            src,
            dst,
            size: Bytes::new(cdf.sample(&mut rng)),
            start: Time::ZERO + TimeDelta::from_secs_f64(t),
            tag: 0,
            fg: false,
        });
    }
    flows
}

/// One synchronized incast: `senders` each send `resp_bytes` to `receiver`
/// at `at` (§6.1 incast microbenchmark, Figure 8).
pub fn incast(
    senders: &[usize],
    receiver: usize,
    resp_bytes: u64,
    at: Time,
    first_id: u64,
) -> Vec<FlowSpec> {
    senders
        .iter()
        .enumerate()
        .map(|(i, &src)| {
            assert_ne!(src, receiver);
            FlowSpec {
                id: first_id + i as u64,
                src,
                dst: receiver,
                size: Bytes::new(resp_bytes),
                start: at,
                tag: 0,
                fg: true,
            }
        })
        .collect()
}

/// Parameters for the mixed-traffic foreground generator (§6.2): Poisson
/// incast events; per event a random receiver is chosen and each of
/// `fanout` random other hosts sends `flows_per_sender` flows of
/// `resp_bytes`.
#[derive(Clone, Copy, Debug)]
pub struct ForegroundParams {
    /// Number of hosts.
    pub n_hosts: usize,
    /// Hosts sending per event. The paper uses *all* other hosts; reduced
    /// scales shrink this with the rest of the workload.
    pub fanout: usize,
    /// Flows per sender per event (paper: 4).
    pub flows_per_sender: usize,
    /// Bytes per flow (paper: 8 kB).
    pub resp_bytes: u64,
    /// Target foreground volume as bytes per second.
    pub volume_bps: f64,
    /// Number of events.
    pub n_events: usize,
    /// RNG seed.
    pub seed: u64,
    /// First flow id.
    pub first_id: u64,
}

/// Generates Poisson-arriving incast events totalling roughly
/// `volume_bps` of offered foreground load.
pub fn foreground_incast(p: &ForegroundParams) -> Vec<FlowSpec> {
    assert!(p.fanout < p.n_hosts);
    let mut rng = SimRng::new(p.seed);
    let event_bytes = (p.fanout * p.flows_per_sender) as f64 * p.resp_bytes as f64;
    let events_per_sec = p.volume_bps / 8.0 / event_bytes;
    let mean_ia = 1.0 / events_per_sec;
    let mut t = 0.0f64;
    let mut flows = Vec::new();
    let mut id = p.first_id;
    for _ in 0..p.n_events {
        t += rng.exponential(mean_ia);
        let receiver = rng.index(p.n_hosts);
        let mut chosen = 0;
        let mut tried = std::collections::BTreeSet::new();
        while chosen < p.fanout {
            let s = rng.index(p.n_hosts);
            if s == receiver || !tried.insert(s) {
                continue;
            }
            chosen += 1;
            for _ in 0..p.flows_per_sender {
                flows.push(FlowSpec {
                    id,
                    src: s,
                    dst: receiver,
                    size: Bytes::new(p.resp_bytes),
                    start: Time::ZERO + TimeDelta::from_secs_f64(t),
                    tag: 0,
                    fg: true,
                });
                id += 1;
            }
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n_flows: usize, load: f64) -> BackgroundParams {
        BackgroundParams {
            n_hosts: 192,
            host_rate: Rate::from_gbps(40),
            oversub: 3.0,
            load,
            n_flows,
            seed: 42,
            first_id: 0,
        }
    }

    #[test]
    fn background_offered_load_matches_target() {
        let cdf = FlowSizeCdf::web_search();
        let p = params(20_000, 0.5);
        let flows = background(&cdf, &p);
        assert_eq!(flows.len(), 20_000);
        let span = flows.last().unwrap().start.as_secs_f64();
        let bytes: u64 = flows.iter().map(|f| f.size.get()).sum();
        let offered_bps = bytes as f64 * 8.0 / span;
        let core_cap = 192.0 * 40e9 / 3.0;
        let load = offered_bps / core_cap;
        assert!((load - 0.5).abs() < 0.05, "offered core load {load}");
    }

    #[test]
    fn background_pairs_are_distinct_and_in_range() {
        let cdf = FlowSizeCdf::hadoop();
        let flows = background(&cdf, &params(5_000, 0.3));
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(f.src < 192 && f.dst < 192);
            assert!(f.size.get() >= 1);
        }
        // Arrivals are sorted by construction.
        for w in flows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn background_deterministic_by_seed() {
        let cdf = FlowSizeCdf::web_search();
        let a = background(&cdf, &params(100, 0.5));
        let b = background(&cdf, &params(100, 0.5));
        assert_eq!(a, b);
        let mut p2 = params(100, 0.5);
        p2.seed = 43;
        let c = background(&cdf, &p2);
        assert_ne!(a, c);
    }

    #[test]
    fn incast_builds_fanin() {
        let senders: Vec<usize> = (0..8).collect();
        let flows = incast(&senders, 8, 64_000, Time::from_millis(1), 100);
        assert_eq!(flows.len(), 8);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.dst, 8);
            assert_eq!(f.size.get(), 64_000);
            assert_eq!(f.id, 100 + i as u64);
            assert!(f.fg);
            assert_eq!(f.start, Time::from_millis(1));
        }
    }

    #[test]
    fn foreground_volume_close_to_target() {
        let p = ForegroundParams {
            n_hosts: 48,
            fanout: 47,
            flows_per_sender: 4,
            resp_bytes: 8_000,
            volume_bps: 10e9,
            n_events: 200,
            seed: 9,
            first_id: 0,
        };
        let flows = foreground_incast(&p);
        assert_eq!(flows.len(), 200 * 47 * 4);
        let span = flows.last().unwrap().start.as_secs_f64();
        let bytes: u64 = flows.iter().map(|f| f.size.get()).sum();
        let rate = bytes as f64 * 8.0 / span;
        assert!((rate - 10e9).abs() / 10e9 < 0.25, "foreground rate {rate}");
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(f.fg);
        }
    }
}
