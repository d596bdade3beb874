//! Figure 1: the motivation experiment. ExpressPass (a) and Homa (b)
//! competing with DCTCP for a shared 10 Gbps link without co-existence
//! measures — the legacy flows starve.

use flexpass::profiles::{homa_mix_profile, naive_profile, ProfileParams};
use flexpass_metrics::Recorder;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::Bytes;
use flexpass_simnet::endpoint::Endpoint;
use flexpass_simnet::packet::FlowSpec;
use flexpass_simnet::sim::{NetEnv, TransportFactory};
use flexpass_simnet::topology::Topology;
use flexpass_transport::dctcp::{DctcpConfig, DctcpReceiver, DctcpSender};
use flexpass_transport::expresspass::{EpConfig, EpReceiver, EpSender};
use flexpass_transport::homa::{HomaConfig, HomaReceiver, HomaSender};

use crate::csvout::{f, Csv};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::{run, star_topo, Stop};

/// Dispatches each flow to one of two transports by its tag
/// (0 = legacy DCTCP, 1 = the new transport).
pub struct TagFactory {
    legacy: DctcpConfig,
    upgraded: UpgradedKind,
}

enum UpgradedKind {
    Ep(EpConfig),
    Homa(HomaConfig),
}

impl TagFactory {
    /// Legacy DCTCP vs plain ExpressPass.
    pub fn dctcp_vs_ep(ep: EpConfig) -> Self {
        TagFactory {
            legacy: DctcpConfig::default(),
            upgraded: UpgradedKind::Ep(ep),
        }
    }

    /// Legacy DCTCP vs Homa-lite.
    pub fn dctcp_vs_homa(h: HomaConfig) -> Self {
        TagFactory {
            legacy: DctcpConfig::default(),
            upgraded: UpgradedKind::Homa(h),
        }
    }
}

impl TransportFactory for TagFactory {
    fn sender(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        if flow.tag == 0 {
            return Box::new(DctcpSender::new(*flow, self.legacy, env));
        }
        match &self.upgraded {
            UpgradedKind::Ep(c) => Box::new(EpSender::new(*flow, *c, env)),
            UpgradedKind::Homa(c) => Box::new(HomaSender::new(*flow, *c, env)),
        }
    }
    fn receiver(&self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        if flow.tag == 0 {
            return Box::new(DctcpReceiver::new(*flow, self.legacy, env));
        }
        match &self.upgraded {
            UpgradedKind::Ep(c) => Box::new(EpReceiver::new(*flow, *c, env)),
            UpgradedKind::Homa(c) => Box::new(HomaReceiver::new(*flow, *c, env)),
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

/// Runs long `flows` on a 10 G star for `window_ms` with 1 ms throughput
/// bins — the drive shared by the testbed figures (1, 7, 9).
pub(crate) fn run_testbed(
    topo: Topology,
    factory: Box<dyn TransportFactory>,
    flows: &[FlowSpec],
    window_ms: u64,
) -> Recorder {
    run(
        topo,
        factory,
        Recorder::new().with_throughput(TimeDelta::millis(1)),
        flows,
        None,
        Stop::At(Time::from_millis(window_ms)),
    )
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
        let params = ProfileParams::testbed(Rate::from_gbps(10));
        let factory = TagFactory::dctcp_vs_ep(EpConfig::default());
        let flows = [long_flow(1, 0, 2, 0), long_flow(2, 1, 2, 1)];
        let topo = star_topo(3, &naive_profile(&params));
        run_testbed(topo, Box::new(factory), &flows, 120)
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
            ..HomaConfig::default()
        };
        let factory = TagFactory::dctcp_vs_homa(homa);
        let mut flows = Vec::new();
        for i in 0..16u64 {
            flows.push(long_flow(i, i as usize, 32, 0)); // DCTCP
            flows.push(long_flow(16 + i, 16 + i as usize, 32, 1)); // Homa
        }
        let topo = star_topo(33, &homa_mix_profile(&params));
        run_testbed(topo, Box::new(factory), &flows, 120)
    })
}

/// Mean of a per-millisecond series over the second half of the window
/// (steady state).
pub(crate) fn steady_mean(series: &[f64], window_ms: usize) -> f64 {
    let lo = window_ms / 2;
    let hi = window_ms.min(series.len());
    if lo >= hi {
        return 0.0;
    }
    series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Mean throughput of each series over the second half of the window
/// (steady state), in Gbps — used by tests and EXPERIMENTS.md.
pub fn steady_share(rec: &Recorder, tag: u32, window_ms: usize) -> f64 {
    steady_mean(&rec.throughput_gbps(tag), window_ms)
}
