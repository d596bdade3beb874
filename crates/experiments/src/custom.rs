//! Trace-driven custom scenarios: replay a user-provided flow trace under
//! any deployment scheme and report per-type FCT statistics.

use std::path::PathBuf;
use std::sync::OnceLock;

use flexpass::config::FlexPassConfig;
use flexpass::schemes::{Scheme, TAG_LEGACY, TAG_UPGRADED};
use flexpass_metrics::Recorder;
use flexpass_simnet::packet::FlowSpec;
use flexpass_workload::parse_trace;

use crate::csvout::{count, f, Csv};
use crate::figures::Output;
use crate::orchestrate::{grid, or_nan};
use crate::runner::{run, RunScale, DRAINED};
use crate::sweep::{build_point, rollout, SEL_DROP};

/// Queue weight `w_q` of a replay.
const WQ: f64 = 0.5;

/// Seed of a replay's rack rollout.
const DEPLOY_SEED: u64 = 1;

/// Settings for a custom trace replay.
#[derive(Clone, Debug)]
pub struct CustomSpec {
    /// Scheme to run the upgraded flows on.
    pub scheme: Scheme,
    /// Fraction of racks upgraded.
    pub ratio: f64,
    /// Fabric scale (host ids in the trace must fit).
    pub scale: RunScale,
}

impl Default for CustomSpec {
    fn default() -> Self {
        CustomSpec {
            scheme: Scheme::FlexPass,
            ratio: 1.0,
            scale: RunScale::Default,
        }
    }
}

/// A trace names a host the fabric of the chosen scale does not have.
#[derive(Debug, PartialEq, Eq)]
pub struct HostOutOfRange {
    /// The offending host id.
    pub host: usize,
    /// Hosts in the fabric (valid ids are `0..n_hosts`).
    pub n_hosts: usize,
}

impl std::fmt::Display for HostOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace host {} out of range for the {}-host fabric (use --scale full or renumber)",
            self.host, self.n_hosts
        )
    }
}

impl std::error::Error for HostOutOfRange {}

/// Replays `flows` (e.g. from [`parse_trace`]) under the spec as a one-cell
/// grid. Returns the recorder for further analysis (`None` if the run
/// failed) plus the summary table under `columns`, or an error if a flow
/// names a host beyond the fabric.
pub fn run_trace(
    flows: &[FlowSpec],
    spec: &CustomSpec,
    columns: &[&str],
) -> Result<(Option<Recorder>, Csv), HostOutOfRange> {
    let clos = spec.scale.clos();
    let n_hosts = clos.n_hosts();
    if let Some(host) = flows
        .iter()
        .map(|fl| fl.src.max(fl.dst))
        .find(|&h| h >= n_hosts)
    {
        return Err(HostOutOfRange { host, n_hosts });
    }
    let mut cells = grid(
        "custom",
        vec!["trace"],
        |l| l.to_string(),
        |_| {
            let (topo, factory, flows) = build_point(
                clos,
                spec.scheme,
                rollout(&clos, spec.ratio, DEPLOY_SEED),
                flows.to_vec(),
                FlexPassConfig::new(WQ),
                WQ,
                SEL_DROP,
            );
            run(topo, factory, Recorder::new(), &flows, None, DRAINED)
        },
    );
    let rec = cells.pop().and_then(|(_, rec)| rec);

    let mut csv = Csv::new(columns);
    for (label, tag) in [
        ("all", None),
        ("legacy", Some(TAG_LEGACY)),
        ("upgraded", Some(TAG_UPGRADED)),
    ] {
        let [n, in_ms @ ..] = or_nan(rec.as_ref().map(|rec| {
            let stats = rec.fct_stats(|r| tag.is_none_or(|t| r.tag == t));
            let p99_small = rec.p99_small(tag);
            [
                stats.count as f64,
                stats.avg,
                stats.p50,
                stats.p99,
                stats.max,
                p99_small,
            ]
        }));
        let in_ms = in_ms.map(|seconds| f(seconds * 1e3));
        csv.row([label.into(), count(n)].into_iter().chain(in_ms));
    }
    Ok((rec, csv))
}

/// The replay input (`--trace FILE`); the binary sets it.
pub static TRACE_FILE: OnceLock<PathBuf> = OnceLock::new();

/// The `custom` figure: replays the flows of [`TRACE_FILE`] on the Clos of
/// `scale` under the default spec.
pub fn replay(scale: RunScale, out: &[Output]) -> Result<Vec<Csv>, String> {
    let path = TRACE_FILE
        .get()
        .ok_or("the trace replay requires --trace FILE (src,dst,size_bytes,start_us)")?;
    let spec = CustomSpec {
        scale,
        ..CustomSpec::default()
    };
    let failed = |e: &dyn std::fmt::Display| format!("trace replay failed: {e}");
    let text = std::fs::read_to_string(path).map_err(|e| failed(&e))?;
    let flows = parse_trace(&text, 0).map_err(|e| failed(&e))?;
    let (_, csv) = run_trace(&flows, &spec, out[0].columns).map_err(|e| failed(&e))?;
    Ok(vec![csv])
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_workload::render_trace;

    /// The `custom` figure's column list, from the figure table.
    fn columns() -> &'static [&'static str] {
        let figure = crate::figures::selected("custom")
            .next()
            .expect("in the table");
        figure.outputs[0].columns
    }

    #[test]
    fn replays_small_trace() {
        let trace = "src,dst,size_bytes,start_us\n\
                     0,7,100000,0\n\
                     1,8,50000,10\n\
                     2,9,14600,20\n";
        let flows = parse_trace(trace, 0).unwrap();
        let spec = CustomSpec {
            scale: RunScale::Smoke,
            ..CustomSpec::default()
        };
        let (rec, csv) = run_trace(&flows, &spec, columns()).unwrap();
        let rec = rec.expect("the replay ran");
        assert_eq!(rec.completed(), 3);
        assert_eq!(csv.len(), 3);
        // Full deployment: everything upgraded.
        let all = rec.fct_stats(|_| true);
        assert!(all.avg > 0.0);
    }

    #[test]
    fn trace_round_trip_replay() {
        let flows = parse_trace("0,1,1460,0\n1,2,1460,5\n", 0).unwrap();
        let text = render_trace(&flows);
        let again = parse_trace(&text, 0).unwrap();
        let spec = CustomSpec {
            scale: RunScale::Smoke,
            scheme: Scheme::Naive,
            ratio: 0.5,
        };
        let (rec, _) = run_trace(&again, &spec, columns()).unwrap();
        assert_eq!(rec.expect("the replay ran").completed(), 2);
    }

    #[test]
    fn rejects_out_of_range_hosts() {
        let flows = parse_trace("0,10000,100,0\n", 0).unwrap();
        let spec = CustomSpec {
            scale: RunScale::Smoke,
            ..CustomSpec::default()
        };
        let err = run_trace(&flows, &spec, columns()).err();
        let n_hosts = RunScale::Smoke.clos().n_hosts();
        assert_eq!(
            err,
            Some(HostOutOfRange {
                host: 10_000,
                n_hosts
            })
        );
    }
}
