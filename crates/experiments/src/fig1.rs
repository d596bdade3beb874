//! Figure 1: the motivation experiment. ExpressPass (a) and Homa (b)
//! competing with DCTCP for a shared 10 Gbps link without co-existence
//! measures — the legacy flows starve.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{homa_mix_profile, ProfileParams};
use flexpass::schemes::{Deployment, Scheme, SchemeFactory};
use flexpass_metrics::Recorder;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::Bytes;
use flexpass_simnet::endpoint::Endpoint;
use flexpass_simnet::packet::FlowSpec;
use flexpass_simnet::sim::{NetEnv, TransportFactory};
use flexpass_simnet::switch::SwitchProfile;
use flexpass_transport::dctcp::{DctcpReceiver, DctcpSender};
use flexpass_transport::homa::{HomaConfig, HomaReceiver, HomaSender};

use crate::csvout::{f, Csv};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::{run, star_topo, Stop};

/// Legacy DCTCP for tag 0, Homa-lite for tag 1.
struct TagFactory(HomaConfig);

impl TransportFactory for TagFactory {
    fn sender(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        match flow.tag {
            0 => Box::new(DctcpSender::new(*flow, env)),
            _ => Box::new(HomaSender::new(*flow, self.0, env)),
        }
    }
    fn receiver(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        match flow.tag {
            0 => Box::new(DctcpReceiver::new(*flow, env)),
            _ => Box::new(HomaReceiver::new(*flow, self.0, env)),
        }
    }
}

/// A long flow (effectively infinite within the measured window).
pub(crate) fn long_flow(id: u64, src: usize, dst: usize, tag: u32) -> FlowSpec {
    FlowSpec {
        id,
        src,
        dst,
        size: Bytes::new(500_000_000),
        start: Time::ZERO,
        tag,
        fg: false,
    }
}

/// Runs long `flows` on a 10 G star of `n_hosts` under `profile` for
/// `window_ms` with 1 ms throughput bins — the drive shared by the testbed
/// figures (1, 7, 9).
fn run_testbed(
    n_hosts: usize,
    profile: &SwitchProfile,
    factory: Box<dyn TransportFactory>,
    flows: &[FlowSpec],
    window_ms: u64,
) -> Recorder {
    let rec = Recorder::new().with_throughput(TimeDelta::millis(1));
    let stop = Stop::At(Time::from_millis(window_ms));
    run(star_topo(n_hosts, profile), factory, rec, flows, None, stop)
}

/// The testbed's hosts 1 and 2 upgraded, host 0 legacy: a flow from host 0
/// stays DCTCP beside the upgraded flow from host 1.
pub(crate) const HOST_0_LEGACY: [bool; 3] = [false, true, true];

/// The 3-host testbed under `scheme` (w_q = 0.5): the `upgraded` hosts run
/// it, the rest legacy DCTCP, and a flow is upgraded when both its ends
/// are. Figures 1(a), 7 and 9 are this run with different flows and hosts.
pub(crate) fn testbed(
    scheme: Scheme,
    upgraded: [bool; 3],
    flows: &[FlowSpec],
    window_ms: u64,
) -> Recorder {
    let profile = scheme.profile(&ProfileParams::testbed(Rate::from_gbps(10)), 0.5);
    let deployment = Deployment::from_hosts(upgraded.to_vec());
    let factory = SchemeFactory::new(scheme, deployment, FlexPassConfig::new(0.5), 0.5);
    run_testbed(3, &profile, Box::new(factory), flows, window_ms)
}

/// The per-millisecond throughput of tag 0 and tag 1 over the window, in
/// Gbps — what a two-transport testbed cell sends back from its worker.
pub(crate) fn tag_series(rec: &Recorder, window_ms: u64) -> Vec<[f64; 2]> {
    let by_tag = [rec.throughput_gbps(0), rec.throughput_gbps(1)];
    (0..window_ms as usize)
        .map(|t| by_tag.each_ref().map(|s| s.get(t).copied().unwrap_or(0.0)))
        .collect()
}

/// The table of one testbed run: the millisecond, then that millisecond's
/// `series` values (NaN in every row if the run failed).
pub(crate) fn series_csv<const N: usize>(
    columns: &[&str],
    window_ms: u64,
    series: Option<&[[f64; N]]>,
) -> Csv {
    let mut csv = Csv::new(columns);
    for t in 0..window_ms as usize {
        let values = or_nan(series.map(|s| s[t]));
        csv.row(std::iter::once(t.to_string()).chain(values.map(f)));
    }
    csv
}

/// One two-transport run on the star for 120 ms, as a one-cell grid.
fn fig1(group: &str, label: &str, out: &[Output], run: fn() -> Recorder) -> Vec<Csv> {
    let mut cells = grid(
        group,
        vec![label],
        |l| l.to_string(),
        |_| tag_series(&run(), 120),
    );
    let series = cells.pop().and_then(|(_, series)| series);
    vec![series_csv(out[0].columns, 120, series.as_deref())]
}

/// Figure 1(a): 1 ExpressPass vs 1 DCTCP long flow into one 10 G receiver,
/// naive (shared-queue, full-credit-rate) configuration.
pub fn fig1a(out: &[Output]) -> Vec<Csv> {
    fig1("fig1a", "ep_vs_dctcp", out, || {
        let flows = [long_flow(1, 0, 2, 0), long_flow(2, 1, 2, 1)];
        testbed(Scheme::Naive, HOST_0_LEGACY, &flows, 120)
    })
}

/// Figure 1(b): 16 Homa + 16 DCTCP flows sharing a 10 G link; DCTCP mapped
/// to the highest-priority queue (paper footnote 3).
pub fn fig1b(out: &[Output]) -> Vec<Csv> {
    fig1("fig1b", "homa_vs_dctcp", out, || {
        let params = ProfileParams::testbed(Rate::from_gbps(10));
        // DCTCP rides the highest-priority queue (footnote 3); Homa's
        // high-priority traffic (unscheduled bursts and its currently granted
        // messages) shares that queue, so the aggregate standing queue of 16
        // granted flows — one RTT of data each — sits in front of DCTCP's ECN
        // marking threshold and collapses its window.
        let homa = HomaConfig {
            unsched_prio: 0,
            sched_prio: 0,
        };
        let mut flows = Vec::new();
        for i in 0..16u64 {
            flows.push(long_flow(i, i as usize, 32, 0)); // DCTCP
            flows.push(long_flow(16 + i, 16 + i as usize, 32, 1)); // Homa
        }
        let factory = Box::new(TagFactory(homa));
        run_testbed(33, &homa_mix_profile(&params), factory, &flows, 120)
    })
}
