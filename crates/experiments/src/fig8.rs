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

use crate::csvout::{f, Csv};
use crate::orchestrate::{self, Task};
use crate::runner::{run, star_topo, ScenarioResult, DRAINED};

/// One incast run: `n_flows` of 64 kB spread over 8 senders to host 8.
/// Returns `(max FCT seconds, sender timeouts)`.
pub fn run_incast(
    profile: &SwitchProfile,
    factory: Box<dyn TransportFactory>,
    n_flows: usize,
    seed_offset: u64,
) -> (f64, u64) {
    let topo = star_topo(9, profile);
    let senders: Vec<usize> = (0..n_flows).map(|i| i % 8).collect();
    let flows = incast(&senders, 8, 64_000, Time::from_micros(10 + seed_offset), 0);
    let rec = run(topo, factory, Recorder::new(), &flows, None, DRAINED);
    (rec.fct_stats(|_| true).max, rec.total_timeouts())
}

const TRANSPORTS: [&str; 3] = ["dctcp", "expresspass", "flexpass"];

/// The full Figure-8 curve for the three transports. Every
/// (flow count, transport) pair is one pool task running the paper's
/// two-run average internally; both runs share the task so their mean is
/// computed where the data is.
pub fn fig8() -> ScenarioResult {
    let ns = [8usize, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96];
    let mut tasks: Vec<Task<(f64, u64)>> = Vec::new();
    for &n in &ns {
        for &tr in &TRANSPORTS {
            tasks.push(Task::new(format!("{tr}:n{n}"), move || {
                let params = ProfileParams::testbed(Rate::from_gbps(10));
                // Average the longest FCT over two runs, like the paper.
                let mut fct = 0.0;
                let mut timeouts = 0;
                for r in 0..2 {
                    let (factory, profile): (Box<dyn TransportFactory>, SwitchProfile) = match tr {
                        "dctcp" => (Box::new(DctcpFactory::new()), dctcp_profile(&params)),
                        "expresspass" => {
                            (Box::new(ExpressPassFactory::new()), naive_profile(&params))
                        }
                        _ => (
                            Box::new(FlexPassFactory::new(FlexPassConfig::new(0.5))),
                            flexpass_profile(&params),
                        ),
                    };
                    let (m, t) = run_incast(&profile, factory, n, r * 3);
                    fct += m / 2.0;
                    timeouts += t;
                }
                (fct, timeouts)
            }));
        }
    }
    let mut results = orchestrate::run_tasks("fig8", tasks).into_iter();
    let mut csv = Csv::new(&["transport", "n_flows", "max_fct_ms", "timeouts"]);
    for &n in &ns {
        for &tr in &TRANSPORTS {
            match results.next().expect("one result per (n, transport)") {
                Ok((fct, to)) => csv.row(&[tr.into(), n.to_string(), f(fct * 1e3), to.to_string()]),
                Err(_) => csv.row(&[tr.into(), n.to_string(), f(f64::NAN), "nan".into()]),
            }
        }
    }
    ScenarioResult::new("fig8_incast", csv)
}
