//! Trace-derived telemetry: per-queue-depth and credit-waste time series.
//!
//! [`Telemetry`] folds a packet-lifecycle trace (a slice of
//! [`TraceEvent`]s from `flexpass-simtrace`) into fixed-width time bins:
//! the peak byte depth each queue reached per bin, and per-bin counts of
//! enqueues, ECN marks, drops, credits sent, credits wasted, and
//! retransmissions. The aggregate ratios back the paper's credit-waste
//! discussion (§4.3): what fraction of issued credits bought no data, and
//! what fraction of admitted packets were CE-marked.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use flexpass_simcore::time::TimeDelta;
use flexpass_simtrace::{EventKind, TraceEvent, TraceTotals};

/// Binned counters and queue-depth series derived from one trace.
#[derive(Clone, Debug)]
pub struct Telemetry {
    bin: TimeDelta,
    /// Peak queue depth (bytes after enqueue/dequeue) per bin, by queue id.
    pub queue_peak_depth: BTreeMap<u64, Vec<u64>>,
    /// Packets admitted per bin.
    pub enqueues: Vec<u64>,
    /// Packets CE-marked per bin.
    pub ecn_marks: Vec<u64>,
    /// Packets dropped per bin (all causes, injected loss included).
    pub drops: Vec<u64>,
    /// Credits issued by receivers per bin.
    pub credits_sent: Vec<u64>,
    /// Credits that reached a sender with nothing to send, per bin.
    pub credits_wasted: Vec<u64>,
    /// Data retransmissions per bin.
    pub retransmits: Vec<u64>,
    /// Whole-trace totals the bins sum to: counts by kind (RTO fires and
    /// timer cancellations included) and the per-flow waste matching.
    pub totals: TraceTotals,
}

fn bump(series: &mut Vec<u64>, bin: usize) {
    if bin >= series.len() {
        series.resize(bin + 1, 0);
    }
    series[bin] += 1;
}

impl Telemetry {
    /// Folds `events` into `bin`-wide time series. Events are taken in
    /// slice order; their timestamps decide the bin, so a ring-truncated
    /// log simply yields empty leading bins.
    pub fn from_events(events: &[TraceEvent], bin: TimeDelta) -> Self {
        assert!(bin.as_nanos() > 0, "telemetry bin width must be non-zero");
        let w = bin.as_nanos();
        let mut t = Telemetry {
            bin,
            queue_peak_depth: BTreeMap::new(),
            enqueues: Vec::new(),
            ecn_marks: Vec::new(),
            drops: Vec::new(),
            credits_sent: Vec::new(),
            credits_wasted: Vec::new(),
            retransmits: Vec::new(),
            totals: TraceTotals::default(),
        };
        for ev in events {
            t.totals.fold(ev);
            let b = (ev.t_ns() / w) as usize;
            match ev {
                TraceEvent::Enqueue {
                    queue, bytes_after, ..
                } => {
                    bump(&mut t.enqueues, b);
                    t.note_depth(*queue, b, *bytes_after);
                }
                TraceEvent::Dequeue {
                    queue, bytes_after, ..
                } => t.note_depth(*queue, b, *bytes_after),
                TraceEvent::EcnMark { .. } => bump(&mut t.ecn_marks, b),
                TraceEvent::Drop { .. } => bump(&mut t.drops, b),
                TraceEvent::CreditSent { .. } => bump(&mut t.credits_sent, b),
                TraceEvent::CreditWasted { .. } => bump(&mut t.credits_wasted, b),
                TraceEvent::Retransmit { .. } => bump(&mut t.retransmits, b),
                TraceEvent::Rto { .. } | TraceEvent::TimerCancel { .. } => {}
            }
        }
        t
    }

    fn note_depth(&mut self, queue: u64, bin: usize, bytes: u64) {
        let series = self.queue_peak_depth.entry(queue).or_default();
        if bin >= series.len() {
            series.resize(bin + 1, 0);
        }
        series[bin] = series[bin].max(bytes);
    }

    /// Bin width the series were folded with.
    pub fn bin(&self) -> TimeDelta {
        self.bin
    }

    /// Number of bins covered by the longest series.
    pub fn bins(&self) -> usize {
        self.queue_peak_depth
            .values()
            .map(Vec::len)
            .chain([
                self.enqueues.len(),
                self.ecn_marks.len(),
                self.drops.len(),
                self.credits_sent.len(),
                self.credits_wasted.len(),
                self.retransmits.len(),
            ])
            .max()
            .unwrap_or(0)
    }

    /// Fraction of issued credits that were wasted (0.0 when none were
    /// issued). Only wastes whose matching issue was observed count, so
    /// a ring-truncated trace (waste retained, issue evicted) can no
    /// longer push the ratio above 1.0; check [`Telemetry::truncated`]
    /// before trusting the figure on such a trace.
    pub fn credit_waste_fraction(&self) -> f64 {
        let sent = self.totals.count(EventKind::CreditSent);
        if sent == 0 {
            0.0
        } else {
            (self.totals.matched_waste as f64 / sent as f64).min(1.0)
        }
    }

    /// True when the trace shows wasted credits whose issue was never
    /// observed — the ring evicted part of the issue window, so
    /// [`Telemetry::credit_waste_fraction`] undercounts waste.
    pub fn truncated(&self) -> bool {
        self.totals.unmatched_waste > 0
    }

    /// Fraction of admitted packets that were CE-marked (0.0 when no
    /// packets were admitted).
    pub fn mark_fraction(&self) -> f64 {
        let enq = self.totals.count(EventKind::Enqueue);
        if enq == 0 {
            0.0
        } else {
            self.totals.count(EventKind::EcnMark) as f64 / enq as f64
        }
    }

    /// Highest queue depth seen anywhere in the trace, bytes.
    pub fn peak_depth_bytes(&self) -> u64 {
        self.queue_peak_depth
            .values()
            .flat_map(|s| s.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// A one-line JSON summary, suitable for appending to a JSONL trace
    /// file (`"kind":"summary"` keeps it distinguishable from events).
    pub fn summary_json(&self) -> String {
        let n = |k| self.totals.count(k);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"kind\":\"summary\",\"bin_ns\":{},\"bins\":{},\"events\":{},\
             \"queues\":{},\"peak_depth_bytes\":{},\"enqueues\":{},\
             \"ecn_marks\":{},\"drops\":{},\"credits_sent\":{},\
             \"credits_wasted\":{},\"retransmits\":{},\"rtos\":{},\
             \"timer_cancels\":{},\"mark_fraction\":{:.6},\
             \"credit_waste_fraction\":{:.6},\
             \"credit_waste_truncated\":{}}}",
            self.bin.as_nanos(),
            self.bins(),
            self.totals.events(),
            self.queue_peak_depth.len(),
            self.peak_depth_bytes(),
            n(EventKind::Enqueue),
            n(EventKind::EcnMark),
            n(EventKind::Drop),
            n(EventKind::CreditSent),
            n(EventKind::CreditWasted),
            n(EventKind::Retransmit),
            n(EventKind::Rto),
            n(EventKind::TimerCancel),
            self.mark_fraction(),
            self.credit_waste_fraction(),
            self.truncated(),
        );
        out
    }
}

#[cfg(test)]
// Fraction expectations are exact by construction.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use flexpass_simtrace::DropCause;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Enqueue {
                t_ns: 100,
                queue: 0,
                flow: 1,
                seq: 0,
                bytes_after: 1538,
            },
            TraceEvent::EcnMark {
                t_ns: 150,
                queue: 0,
                flow: 1,
                seq: 1,
            },
            TraceEvent::Enqueue {
                t_ns: 200,
                queue: 0,
                flow: 1,
                seq: 1,
                bytes_after: 3076,
            },
            TraceEvent::Dequeue {
                t_ns: 1_200,
                queue: 0,
                flow: 1,
                seq: 0,
                bytes_after: 1538,
            },
            TraceEvent::Drop {
                t_ns: 1_300,
                node: 2,
                flow: 1,
                seq: 2,
                cause: DropCause::Buffer,
            },
            TraceEvent::CreditSent {
                t_ns: 1_400,
                flow: 3,
                idx: 0,
            },
            TraceEvent::CreditSent {
                t_ns: 2_400,
                flow: 3,
                idx: 1,
            },
            TraceEvent::CreditWasted {
                t_ns: 2_500,
                flow: 3,
            },
            TraceEvent::Retransmit {
                t_ns: 2_600,
                flow: 1,
                seq: 2,
            },
            TraceEvent::Rto {
                t_ns: 2_700,
                flow: 1,
                backoff: 1,
            },
            TraceEvent::TimerCancel {
                t_ns: 2_800,
                flow: 1,
                kind: 1,
            },
        ]
    }

    #[test]
    fn bins_counts_and_queue_peaks() {
        let t = Telemetry::from_events(&sample_events(), TimeDelta::micros(1));
        assert_eq!(t.bins(), 3);
        assert_eq!(t.enqueues, vec![2]);
        assert_eq!(t.ecn_marks, vec![1]);
        assert_eq!(t.drops, vec![0, 1]);
        assert_eq!(t.credits_sent, vec![0, 1, 1]);
        assert_eq!(t.credits_wasted, vec![0, 0, 1]);
        assert_eq!(t.retransmits, vec![0, 0, 1]);
        assert_eq!(t.totals.count(EventKind::Rto), 1);
        assert_eq!(t.totals.count(EventKind::TimerCancel), 1);
        // Bin 0 peak is the post-enqueue high-water, bin 1 the post-dequeue
        // residue.
        assert_eq!(t.queue_peak_depth[&0], vec![3076, 1538]);
        assert_eq!(t.peak_depth_bytes(), 3076);
    }

    #[test]
    fn fractions() {
        let t = Telemetry::from_events(&sample_events(), TimeDelta::micros(1));
        assert_eq!(t.credit_waste_fraction(), 0.5);
        assert!(!t.truncated());
        assert_eq!(t.totals.unmatched_waste, 0);
        assert_eq!(t.mark_fraction(), 0.5);
        let empty = Telemetry::from_events(&[], TimeDelta::micros(1));
        assert_eq!(empty.credit_waste_fraction(), 0.0);
        assert_eq!(empty.mark_fraction(), 0.0);
        assert_eq!(empty.bins(), 0);
    }

    /// Regression: a ring-truncated trace that kept wastes but lost their
    /// issues used to report a waste ratio above 1.0. Unmatched wastes
    /// must now be excluded (and flagged) instead.
    #[test]
    fn truncated_trace_waste_never_exceeds_one() {
        // One observed issue for flow 3, but three wastes: two of them
        // (flow 3's second, and flow 7's only one) lost their issues to
        // ring eviction.
        let events = vec![
            TraceEvent::CreditWasted { t_ns: 100, flow: 7 },
            TraceEvent::CreditSent {
                t_ns: 200,
                flow: 3,
                idx: 5,
            },
            TraceEvent::CreditWasted { t_ns: 300, flow: 3 },
            TraceEvent::CreditWasted { t_ns: 400, flow: 3 },
        ];
        let t = Telemetry::from_events(&events, TimeDelta::micros(1));
        assert_eq!(t.credits_sent.iter().sum::<u64>(), 1);
        assert_eq!(t.credits_wasted.iter().sum::<u64>(), 3);
        assert_eq!(t.credit_waste_fraction(), 1.0);
        assert!(t.truncated());
        assert_eq!(t.totals.unmatched_waste, 2);
        let s = t.summary_json();
        assert!(s.contains("\"credit_waste_fraction\":1.000000"));
        assert!(s.contains("\"credit_waste_truncated\":true"));
    }

    #[test]
    fn summary_is_one_json_line() {
        let t = Telemetry::from_events(&sample_events(), TimeDelta::micros(1));
        let s = t.summary_json();
        assert!(s.starts_with("{\"kind\":\"summary\""));
        assert!(s.ends_with('}'));
        assert!(!s.contains('\n'));
        assert!(s.contains("\"enqueues\":2"));
        assert!(s.contains("\"credits_sent\":2"));
        assert!(s.contains("\"credit_waste_fraction\":0.500000"));
        assert!(s.contains("\"credit_waste_truncated\":false"));
        assert!(s.contains("\"peak_depth_bytes\":3076"));
    }
}
