//! Figure 8: incast tail FCT. An 8-to-1 incast of 64 kB responses with an
//! increasing number of flows; DCTCP eventually times out while
//! ExpressPass and FlexPass stay timeout-free.

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{dctcp_profile, flexpass_profile, naive_profile, ProfileParams};
use flexpass::FlexPassFactory;
use flexpass_metrics::Recorder;
use flexpass_simcore::time::{Rate, Time};
use flexpass_simnet::sim::TransportFactory;
use flexpass_simnet::switch::SwitchProfile;
use flexpass_transport::dctcp::DctcpFactory;
use flexpass_transport::expresspass::ExpressPassFactory;
use flexpass_workload::incast;

use crate::csvout::{count, f, Csv};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::{run, star_topo, DRAINED};

const TRANSPORTS: [&str; 3] = ["dctcp", "expresspass", "flexpass"];

/// The paper's two-run average of one (flow count, transport) pair, each
/// run `n` flows of 64 kB spread over 8 senders to host 8: `[mean longest
/// FCT in seconds, timeouts of both runs]`.
fn average_of_two(n: usize, transport: &str) -> [f64; 2] {
    let params = ProfileParams::testbed(Rate::from_gbps(10));
    let senders: Vec<usize> = (0..n).map(|i| i % 8).collect();
    let mut fct = 0.0;
    let mut timeouts = 0;
    for r in 0..2 {
        let (factory, profile): (Box<dyn TransportFactory>, SwitchProfile) = match transport {
            "dctcp" => (Box::new(DctcpFactory::new()), dctcp_profile(&params)),
            "expresspass" => (Box::new(ExpressPassFactory::new()), naive_profile(&params)),
            _ => (
                Box::new(FlexPassFactory::new(FlexPassConfig::new(0.5))),
                flexpass_profile(&params),
            ),
        };
        let flows = incast(&senders, 8, 64_000, Time::from_micros(10 + r * 3), 0);
        let rec = run(
            star_topo(9, &profile),
            factory,
            Recorder::new(),
            &flows,
            None,
            DRAINED,
        );
        fct += rec.fct_stats(|_| true).max / 2.0;
        timeouts += rec.total_timeouts();
    }
    [fct, timeouts as f64]
}

/// The full Figure-8 curve for the three transports. Every
/// (flow count, transport) pair is one grid cell running both runs of the
/// average, so their mean is computed where the data is.
pub fn fig8(out: &[Output]) -> Vec<Csv> {
    let ns = [8usize, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96];
    let keys = ns
        .iter()
        .flat_map(|&n| TRANSPORTS.map(|tr| (n, tr)))
        .collect();
    let cells = grid(
        "fig8",
        keys,
        |(n, tr)| format!("{tr}:n{n}"),
        |&(n, tr)| average_of_two(n, tr),
    );
    let mut csv = Csv::new(out[0].columns);
    for ((n, tr), cell) in cells {
        let [fct, timeouts] = or_nan(cell);
        csv.row([tr.into(), n.to_string(), f(fct * 1e3), count(timeouts)]);
    }
    vec![csv]
}
