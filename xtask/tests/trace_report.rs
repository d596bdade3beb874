//! `cargo xtask trace-report` end to end, and the agreement of the trace
//! consumers.
//!
//! The golden half runs the built binary over the committed logs in
//! `tests/trace_fixtures/` (one ordinary run, one ring-truncated run whose
//! wastes outnumber their observed issues) and compares stdout byte for
//! byte with `report.expected`.
//!
//! The property half feeds random event sequences — cut at a random point,
//! as a full ring cuts them — to the shared totals and to the report, and
//! checks that the report (through its JSONL round trip) lands on the
//! totals, and the totals on independently stated oracles for the per-flow
//! waste matching and the peak queue depth.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use flexpass_simhooks::trace::{DropCause, EventKind, TraceEvent, TraceTotals};
use proptest::prelude::*;
use xtask::trace_report::Report;

#[test]
fn trace_report_stdout_matches_the_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/trace_fixtures");
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("trace-report")
        .arg(&dir)
        .output()
        .expect("run xtask trace-report");
    assert!(out.status.success(), "{out:?}");
    let want = std::fs::read_to_string(dir.join("report.expected")).expect("golden");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}

/// One event from a draw of small integers; `i` orders the timestamps.
fn event(i: usize, (kind, flow, node, cause): (usize, u64, u64, usize)) -> TraceEvent {
    let t_ns = i as u64 * 37;
    let (queue, seq) = (node, i as i64 % 50);
    match EventKind::ALL[kind] {
        EventKind::Enqueue => TraceEvent::Enqueue {
            t_ns,
            queue,
            flow,
            seq,
            bytes_after: 1_000 * (node + 1),
        },
        EventKind::Dequeue => TraceEvent::Dequeue {
            t_ns,
            queue,
            flow,
            seq,
            bytes_after: 0,
        },
        EventKind::EcnMark => TraceEvent::EcnMark {
            t_ns,
            queue,
            flow,
            seq,
        },
        EventKind::Drop => TraceEvent::Drop {
            t_ns,
            node,
            flow,
            seq,
            cause: DropCause::ALL[cause],
        },
        EventKind::CreditSent => TraceEvent::CreditSent {
            t_ns,
            flow,
            idx: i as u64,
        },
        EventKind::CreditWasted => TraceEvent::CreditWasted { t_ns, flow },
        EventKind::Retransmit => TraceEvent::Retransmit { t_ns, flow, seq },
        EventKind::Rto => TraceEvent::Rto {
            t_ns,
            flow,
            backoff: 1,
        },
        EventKind::TimerCancel => TraceEvent::TimerCancel {
            t_ns,
            flow,
            kind: 2,
        },
    }
}

/// Waste matching stated without a running ledger: reading a flow's
/// credits as brackets (issue opens, waste closes), the wastes that find
/// no issue are the deepest deficit any prefix reaches.
fn unmatched_by_deficit(events: &[TraceEvent]) -> u64 {
    let mut balance: BTreeMap<u64, (i64, i64)> = BTreeMap::new();
    for ev in events {
        let (flow, step) = match *ev {
            TraceEvent::CreditSent { flow, .. } => (flow, 1),
            TraceEvent::CreditWasted { flow, .. } => (flow, -1),
            _ => continue,
        };
        let (level, deepest) = balance.entry(flow).or_insert((0, 0));
        *level += step;
        *deepest = (*deepest).min(*level);
    }
    balance.values().map(|&(_, deepest)| -deepest as u64).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn consumers_agree_with_the_shared_totals(
        draws in prop::collection::vec((0usize..9, 0u64..4, 0u64..3, 0usize..4), 0..300),
        cut in 0.0f64..1.0,
    ) {
        let full: Vec<TraceEvent> = draws.iter().enumerate().map(|(i, &d)| event(i, d)).collect();
        // A full ring keeps the newest events: wastes survive their issues.
        let events = &full[(cut * full.len() as f64) as usize..];

        let mut totals = TraceTotals::default();
        events.iter().for_each(|ev| totals.fold(ev));
        let wasted = totals.count(EventKind::CreditWasted);
        prop_assert_eq!(totals.events(), events.len() as u64);
        prop_assert_eq!(totals.unmatched_waste, unmatched_by_deficit(events));
        prop_assert_eq!(totals.matched_waste + totals.unmatched_waste, wasted);
        let drops = totals.drop_sites.values().sum::<u64>();
        prop_assert_eq!(drops, totals.count(EventKind::Drop));
        // The peak is the first of the deepest enqueue/dequeue depths.
        let depths = events.iter().filter_map(|ev| match *ev {
            TraceEvent::Enqueue { queue, bytes_after, .. }
            | TraceEvent::Dequeue { queue, bytes_after, .. } => Some((bytes_after, queue)),
            _ => None,
        });
        prop_assert_eq!(totals.peak_depth, depths.min_by_key(|&(bytes, _)| Reverse(bytes)));

        let mut report = Report::default();
        let jsonl: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        report.fold_text(&jsonl);
        prop_assert_eq!(&report.totals, &totals);
        if totals.unmatched_waste > 0 {
            prop_assert!(report.render().contains(&format!(
                "[TRUNCATED: {} waste(s) without observed issue]",
                totals.unmatched_waste
            )));
        }
    }
}
