//! Trace-driven custom scenarios: replay a user-provided flow trace under
//! any deployment scheme and report per-type FCT statistics.

use flexpass::config::FlexPassConfig;
use flexpass::schemes::{Scheme, TAG_LEGACY, TAG_UPGRADED};
use flexpass_metrics::Recorder;
use flexpass_simnet::packet::FlowSpec;
use flexpass_workload::parse_trace;

use crate::csvout::{f, Csv};
use crate::orchestrate;
use crate::runner::{run, RunScale, ScenarioResult, DRAINED};
use crate::sweep::{build_point, rollout, SEL_DROP};

/// Settings for a custom trace replay.
#[derive(Clone, Debug)]
pub struct CustomSpec {
    /// Scheme to run the upgraded flows on.
    pub scheme: Scheme,
    /// Fraction of racks upgraded.
    pub ratio: f64,
    /// Queue weight w_q.
    pub wq: f64,
    /// Fabric scale (host ids in the trace must fit).
    pub scale: RunScale,
    /// Deployment RNG seed.
    pub seed: u64,
}

impl Default for CustomSpec {
    fn default() -> Self {
        CustomSpec {
            scheme: Scheme::FlexPass,
            ratio: 1.0,
            wq: 0.5,
            scale: RunScale::Default,
            seed: 1,
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

/// Replays `flows` (e.g. from [`parse_trace`]) under the spec. Returns the
/// recorder for further analysis plus a summary CSV, or an error if a flow
/// names a host beyond the fabric.
pub fn run_trace(
    flows: &[FlowSpec],
    spec: &CustomSpec,
) -> Result<(Recorder, ScenarioResult), HostOutOfRange> {
    let clos = spec.scale.clos();
    let n_hosts = clos.n_hosts();
    if let Some(host) = flows
        .iter()
        .map(|fl| fl.src.max(fl.dst))
        .find(|&h| h >= n_hosts)
    {
        return Err(HostOutOfRange { host, n_hosts });
    }
    let (topo, factory, flows) = build_point(
        clos,
        spec.scheme,
        rollout(&clos, spec.ratio, spec.seed),
        flows.to_vec(),
        FlexPassConfig::new(spec.wq),
        spec.wq,
        SEL_DROP,
    );
    let rec = orchestrate::run_isolated("custom", "trace", Recorder::new, move || {
        run(topo, factory, Recorder::new(), &flows, None, DRAINED)
    });

    let mut csv = Csv::new(&[
        "flow_type",
        "flows",
        "avg_fct_ms",
        "p50_fct_ms",
        "p99_fct_ms",
        "max_fct_ms",
        "p99_small_ms",
    ]);
    for (label, tag) in [
        ("all", None),
        ("legacy", Some(TAG_LEGACY)),
        ("upgraded", Some(TAG_UPGRADED)),
    ] {
        let stats = rec.fct_stats(|r| tag.is_none_or(|t| r.tag == t));
        csv.row(&[
            label.into(),
            stats.count.to_string(),
            f(stats.avg * 1e3),
            f(stats.p50 * 1e3),
            f(stats.p99 * 1e3),
            f(stats.max * 1e3),
            f(rec.p99_small(tag) * 1e3),
        ]);
    }
    Ok((rec, ScenarioResult::new("custom_trace", csv)))
}

/// Loads a trace file and replays it.
pub fn run_trace_file(
    path: &std::path::Path,
    spec: &CustomSpec,
) -> std::io::Result<(Recorder, ScenarioResult)> {
    let text = std::fs::read_to_string(path)?;
    let flows = parse_trace(&text, 0)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    run_trace(&flows, spec).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_workload::render_trace;

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
        let (rec, result) = run_trace(&flows, &spec).unwrap();
        assert_eq!(rec.completed(), 3);
        assert_eq!(result.csv.len(), 3);
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
            ..CustomSpec::default()
        };
        let (rec, _) = run_trace(&again, &spec).unwrap();
        assert_eq!(rec.completed(), 2);
    }

    #[test]
    fn rejects_out_of_range_hosts() {
        let flows = parse_trace("0,10000,100,0\n", 0).unwrap();
        let spec = CustomSpec {
            scale: RunScale::Smoke,
            ..CustomSpec::default()
        };
        let err = run_trace(&flows, &spec).err();
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
