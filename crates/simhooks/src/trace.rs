//! The tracer sink: packet-lifecycle events.
//!
//! When a tracer is installed, the datapath transitions the hooks see
//! (enqueue, dequeue, ECN mark, drop, credit send/waste, retransmit, RTO,
//! timer cancel) land as typed [`TraceEvent`]s in a bounded ring buffer,
//! newest-wins. Events serialize to JSON Lines via a hand-rolled codec (the
//! workspace has no serde); [`TraceEvent::parse_json_line`] round-trips
//! every variant, and [`TraceTotals`] is the one fold of a log.
//!
//! ```
//! flexpass_simhooks::trace::install(Default::default());
//! // ... build a simulation and run it ...
//! let log = flexpass_simhooks::trace::finish();
//! println!("{log}");
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::{arm, armed_for, disarm, TRACE};

/// Default ring-buffer capacity, in events.
pub const DEFAULT_CAPACITY: usize = 262_144;

/// The kind of a trace event, used for filtering and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A packet was admitted to a queue.
    Enqueue,
    /// A packet left a queue for the wire.
    Dequeue,
    /// A packet was ECN-marked on admission.
    EcnMark,
    /// A packet was dropped (congestion, buffer, or injected loss).
    Drop,
    /// A receiver sent a credit packet.
    CreditSent,
    /// A credit reached a sender with no data to spend it on.
    CreditWasted,
    /// A sender retransmitted a data packet.
    Retransmit,
    /// A sender's retransmission timer fired.
    Rto,
    /// An armed endpoint timer was cancelled before firing.
    TimerCancel,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 9] = [
        EventKind::Enqueue,
        EventKind::Dequeue,
        EventKind::EcnMark,
        EventKind::Drop,
        EventKind::CreditSent,
        EventKind::CreditWasted,
        EventKind::Retransmit,
        EventKind::Rto,
        EventKind::TimerCancel,
    ];

    /// Stable wire name (used in JSONL and `--trace=` filters).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::EcnMark => "ecn-mark",
            EventKind::Drop => "drop",
            EventKind::CreditSent => "credit-sent",
            EventKind::CreditWasted => "credit-wasted",
            EventKind::Retransmit => "retransmit",
            EventKind::Rto => "rto",
            EventKind::TimerCancel => "timer-cancel",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        EventKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// Why a packet was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// Per-queue static capacity exceeded.
    QueueCap,
    /// Shared-buffer admission refused the packet.
    Buffer,
    /// Selective dropping of red (reactive-class) packets.
    SelectiveRed,
    /// Non-congestion loss injected by `Sim::inject_loss`.
    InjectedLoss,
}

impl DropCause {
    /// Every cause, in declaration order.
    pub const ALL: [DropCause; 4] = [
        DropCause::QueueCap,
        DropCause::Buffer,
        DropCause::SelectiveRed,
        DropCause::InjectedLoss,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::QueueCap => "queue-cap",
            DropCause::Buffer => "buffer",
            DropCause::SelectiveRed => "selective-red",
            DropCause::InjectedLoss => "injected-loss",
        }
    }

    /// Inverse of [`DropCause::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        DropCause::ALL.iter().copied().find(|c| c.name() == s)
    }
}

/// One timestamped datapath event. `seq` is the per-flow data sequence, or
/// `-1` for control packets (ACKs, credits) that have none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Packet admitted; `bytes_after` is the queue depth including it.
    Enqueue {
        /// Virtual time, nanoseconds.
        t_ns: u64,
        /// Queue number, counted from the run's first component.
        queue: u64,
        /// Flow id.
        flow: u64,
        /// Per-flow data sequence, `-1` for control packets.
        seq: i64,
        /// Queue depth after admission, wire bytes.
        bytes_after: u64,
    },
    /// Packet left the queue; `bytes_after` is the remaining depth.
    Dequeue {
        /// Virtual time, nanoseconds.
        t_ns: u64,
        /// Queue number, counted from the run's first component.
        queue: u64,
        /// Flow id.
        flow: u64,
        /// Per-flow data sequence, `-1` for control packets.
        seq: i64,
        /// Queue depth after removal, wire bytes.
        bytes_after: u64,
    },
    /// Packet ECN-marked on admission.
    EcnMark {
        /// Virtual time, nanoseconds.
        t_ns: u64,
        /// Queue number, counted from the run's first component.
        queue: u64,
        /// Flow id.
        flow: u64,
        /// Per-flow data sequence, `-1` for control packets.
        seq: i64,
    },
    /// Packet dropped at a node.
    Drop {
        /// Virtual time, nanoseconds.
        t_ns: u64,
        /// Topology node id of the drop site.
        node: u64,
        /// Flow id.
        flow: u64,
        /// Per-flow data sequence, `-1` for control packets.
        seq: i64,
        /// Drop cause.
        cause: DropCause,
    },
    /// Receiver sent credit `idx` for a flow.
    CreditSent {
        /// Virtual time, nanoseconds.
        t_ns: u64,
        /// Flow id.
        flow: u64,
        /// Credit index within the flow.
        idx: u64,
    },
    /// A credit arrived at a sender with nothing to send.
    CreditWasted {
        /// Virtual time, nanoseconds.
        t_ns: u64,
        /// Flow id.
        flow: u64,
    },
    /// Sender retransmitted data sequence `seq`.
    Retransmit {
        /// Virtual time, nanoseconds.
        t_ns: u64,
        /// Flow id.
        flow: u64,
        /// Retransmitted per-flow data sequence.
        seq: i64,
    },
    /// Sender retransmission timeout fired.
    Rto {
        /// Virtual time, nanoseconds.
        t_ns: u64,
        /// Flow id.
        flow: u64,
        /// Exponential backoff level at the fire.
        backoff: u32,
    },
    /// An armed endpoint timer was cancelled.
    TimerCancel {
        /// Virtual time, nanoseconds.
        t_ns: u64,
        /// Flow id (high bits of the timer token).
        flow: u64,
        /// Transport-private timer kind (low bits of the token).
        kind: u16,
    },
}

impl TraceEvent {
    /// This event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::Enqueue { .. } => EventKind::Enqueue,
            TraceEvent::Dequeue { .. } => EventKind::Dequeue,
            TraceEvent::EcnMark { .. } => EventKind::EcnMark,
            TraceEvent::Drop { .. } => EventKind::Drop,
            TraceEvent::CreditSent { .. } => EventKind::CreditSent,
            TraceEvent::CreditWasted { .. } => EventKind::CreditWasted,
            TraceEvent::Retransmit { .. } => EventKind::Retransmit,
            TraceEvent::Rto { .. } => EventKind::Rto,
            TraceEvent::TimerCancel { .. } => EventKind::TimerCancel,
        }
    }

    /// Virtual time of the event, nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match *self {
            TraceEvent::Enqueue { t_ns, .. }
            | TraceEvent::Dequeue { t_ns, .. }
            | TraceEvent::EcnMark { t_ns, .. }
            | TraceEvent::Drop { t_ns, .. }
            | TraceEvent::CreditSent { t_ns, .. }
            | TraceEvent::CreditWasted { t_ns, .. }
            | TraceEvent::Retransmit { t_ns, .. }
            | TraceEvent::Rto { t_ns, .. }
            | TraceEvent::TimerCancel { t_ns, .. } => t_ns,
        }
    }

    /// One JSON object on one line (no trailing newline). All fields are
    /// numbers or fixed enum names, so no string escaping is needed.
    pub fn to_json_line(&self) -> String {
        let k = self.kind().name();
        match *self {
            TraceEvent::Enqueue {
                t_ns,
                queue,
                flow,
                seq,
                bytes_after,
            }
            | TraceEvent::Dequeue {
                t_ns,
                queue,
                flow,
                seq,
                bytes_after,
            } => format!(
                "{{\"kind\":\"{k}\",\"t_ns\":{t_ns},\"queue\":{queue},\"flow\":{flow},\"seq\":{seq},\"bytes_after\":{bytes_after}}}"
            ),
            TraceEvent::EcnMark {
                t_ns,
                queue,
                flow,
                seq,
            } => format!(
                "{{\"kind\":\"{k}\",\"t_ns\":{t_ns},\"queue\":{queue},\"flow\":{flow},\"seq\":{seq}}}"
            ),
            TraceEvent::Drop {
                t_ns,
                node,
                flow,
                seq,
                cause,
            } => format!(
                "{{\"kind\":\"{k}\",\"t_ns\":{t_ns},\"node\":{node},\"flow\":{flow},\"seq\":{seq},\"cause\":\"{}\"}}",
                cause.name()
            ),
            TraceEvent::CreditSent { t_ns, flow, idx } => {
                format!("{{\"kind\":\"{k}\",\"t_ns\":{t_ns},\"flow\":{flow},\"idx\":{idx}}}")
            }
            TraceEvent::CreditWasted { t_ns, flow } => {
                format!("{{\"kind\":\"{k}\",\"t_ns\":{t_ns},\"flow\":{flow}}}")
            }
            TraceEvent::Retransmit { t_ns, flow, seq } => {
                format!("{{\"kind\":\"{k}\",\"t_ns\":{t_ns},\"flow\":{flow},\"seq\":{seq}}}")
            }
            TraceEvent::Rto {
                t_ns,
                flow,
                backoff,
            } => format!(
                "{{\"kind\":\"{k}\",\"t_ns\":{t_ns},\"flow\":{flow},\"backoff\":{backoff}}}"
            ),
            TraceEvent::TimerCancel { t_ns, flow, kind } => format!(
                "{{\"kind\":\"{k}\",\"t_ns\":{t_ns},\"flow\":{flow},\"timer_kind\":{kind}}}"
            ),
        }
    }

    /// Parses one line produced by [`TraceEvent::to_json_line`]. Returns
    /// `None` for blank lines, unknown kinds (e.g. a trace file's `meta`
    /// line), and missing or out-of-range fields.
    pub fn parse_json_line(line: &str) -> Option<TraceEvent> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let kind = EventKind::from_name(json_str(line, "kind")?)?;
        let t_ns = json_u64(line, "t_ns")?;
        Some(match kind {
            EventKind::Enqueue => TraceEvent::Enqueue {
                t_ns,
                queue: json_u64(line, "queue")?,
                flow: json_u64(line, "flow")?,
                seq: json_i64(line, "seq")?,
                bytes_after: json_u64(line, "bytes_after")?,
            },
            EventKind::Dequeue => TraceEvent::Dequeue {
                t_ns,
                queue: json_u64(line, "queue")?,
                flow: json_u64(line, "flow")?,
                seq: json_i64(line, "seq")?,
                bytes_after: json_u64(line, "bytes_after")?,
            },
            EventKind::EcnMark => TraceEvent::EcnMark {
                t_ns,
                queue: json_u64(line, "queue")?,
                flow: json_u64(line, "flow")?,
                seq: json_i64(line, "seq")?,
            },
            EventKind::Drop => TraceEvent::Drop {
                t_ns,
                node: json_u64(line, "node")?,
                flow: json_u64(line, "flow")?,
                seq: json_i64(line, "seq")?,
                cause: DropCause::from_name(json_str(line, "cause")?)?,
            },
            EventKind::CreditSent => TraceEvent::CreditSent {
                t_ns,
                flow: json_u64(line, "flow")?,
                idx: json_u64(line, "idx")?,
            },
            EventKind::CreditWasted => TraceEvent::CreditWasted {
                t_ns,
                flow: json_u64(line, "flow")?,
            },
            EventKind::Retransmit => TraceEvent::Retransmit {
                t_ns,
                flow: json_u64(line, "flow")?,
                seq: json_i64(line, "seq")?,
            },
            EventKind::Rto => TraceEvent::Rto {
                t_ns,
                flow: json_u64(line, "flow")?,
                backoff: u32::try_from(json_u64(line, "backoff")?).ok()?,
            },
            EventKind::TimerCancel => TraceEvent::TimerCancel {
                t_ns,
                flow: json_u64(line, "flow")?,
                kind: u16::try_from(json_u64(line, "timer_kind")?).ok()?,
            },
        })
    }
}

/// Returns the raw value slice for `"key":` in a flat JSON object line.
fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_raw(line, key)?.parse().ok()
}

fn json_i64(line: &str, key: &str) -> Option<i64> {
    json_raw(line, key)?.parse().ok()
}

fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    json_raw(line, key)?
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
}

/// Which event kinds a tracer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceFilter {
    mask: u16,
}

impl Default for TraceFilter {
    fn default() -> Self {
        Self::all()
    }
}

impl TraceFilter {
    /// Records everything.
    pub fn all() -> Self {
        TraceFilter { mask: u16::MAX }
    }

    /// Parses a comma-separated list of kind names (see
    /// [`EventKind::name`]). Empty or `all` records everything.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "all" {
            return Ok(Self::all());
        }
        let mut mask = 0u16;
        for part in spec.split(',') {
            let part = part.trim();
            match EventKind::from_name(part) {
                Some(k) => mask |= k.bit(),
                None => {
                    let known: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
                    return Err(format!(
                        "unknown trace event kind '{part}' (known: {})",
                        known.join(", ")
                    ));
                }
            }
        }
        Ok(TraceFilter { mask })
    }

    /// Whether `kind` passes the filter.
    pub fn allows(&self, kind: EventKind) -> bool {
        self.mask & kind.bit() != 0
    }
}

/// The result of a traced run.
#[derive(Clone, Debug)]
pub struct TraceLog {
    /// Recorded events in time order (the newest `capacity` of them).
    pub events: Vec<TraceEvent>,
    /// Events that passed the filter, including evicted ones.
    pub total: u64,
    /// Oldest events evicted by the ring buffer.
    pub dropped_oldest: u64,
    /// Ring capacity the tracer ran with.
    pub capacity: usize,
}

impl TraceLog {
    /// Serializes every event as JSON Lines (one object per line, trailing
    /// newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Parses JSONL text, skipping blank or non-event lines. Returns the
    /// events plus the number of skipped non-blank lines.
    pub fn parse_jsonl(text: &str) -> (Vec<TraceEvent>, usize) {
        let mut events = Vec::new();
        let mut skipped = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match TraceEvent::parse_json_line(line) {
                Some(ev) => events.push(ev),
                None => skipped += 1,
            }
        }
        (events, skipped)
    }
}

impl fmt::Display for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events recorded ({} total, {} evicted)",
            self.events.len(),
            self.total,
            self.dropped_oldest
        )
    }
}

/// Whole-trace totals: the one fold of a [`TraceEvent`] log. Its one
/// consumer, `cargo xtask trace-report`, folds only what a post-mortem over
/// files adds (file counts, retransmit timelines) beside it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceTotals {
    by_kind: [u64; EventKind::ALL.len()],
    /// (node, cause) → packets dropped there.
    pub drop_sites: BTreeMap<(u64, DropCause), u64>,
    /// Wasted credits matched against a still-outstanding observed issue of
    /// the same flow — the reliable numerator of the waste fraction.
    pub matched_waste: u64,
    /// Wasted credits whose issue was never observed: the ring evicted it,
    /// so the trace is truncated and the waste fraction undercounts.
    pub unmatched_waste: u64,
    /// flow → observed issues not yet consumed by a waste.
    outstanding: BTreeMap<u64, u64>,
    /// The deepest queue observed, as `(bytes_after, queue)` of the first
    /// enqueue or dequeue to reach that depth; `None` without either.
    pub peak_depth: Option<(u64, u64)>,
}

impl TraceTotals {
    /// Folds one more event in.
    pub fn fold(&mut self, ev: &TraceEvent) {
        self.by_kind[ev.kind() as usize] += 1;
        match *ev {
            TraceEvent::Drop { node, cause, .. } => {
                *self.drop_sites.entry((node, cause)).or_insert(0) += 1;
            }
            TraceEvent::CreditSent { flow, .. } => {
                *self.outstanding.entry(flow).or_insert(0) += 1;
            }
            TraceEvent::CreditWasted { flow, .. } => self.match_waste(flow),
            TraceEvent::Enqueue {
                queue, bytes_after, ..
            }
            | TraceEvent::Dequeue {
                queue, bytes_after, ..
            } if self.peak_depth.is_none_or(|(peak, _)| bytes_after > peak) => {
                self.peak_depth = Some((bytes_after, queue));
            }
            _ => {}
        }
    }

    /// The waste-matching rule: a waste consumes one outstanding observed
    /// issue of its flow; with none outstanding its issue was evicted from
    /// the ring and it must not count against the observed issue total.
    fn match_waste(&mut self, flow: u64) {
        match self.outstanding.get_mut(&flow) {
            Some(n) if *n > 0 => {
                *n -= 1;
                self.matched_waste += 1;
            }
            _ => self.unmatched_waste += 1,
        }
    }

    /// Events of `kind` folded in.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.by_kind[kind as usize]
    }

    /// Events of every kind folded in.
    pub fn events(&self) -> u64 {
        self.by_kind.iter().sum()
    }
}

pub(crate) struct Tracer {
    filter: TraceFilter,
    capacity: usize,
    ring: VecDeque<TraceEvent>,
    total: u64,
    dropped_oldest: u64,
    /// The component-id counter at install: a queue is written as its id
    /// minus this, so queue numbers count from the run's first component.
    base: u64,
}

impl Tracer {
    pub(crate) fn record(&mut self, mut ev: TraceEvent) {
        if !self.filter.allows(ev.kind()) {
            return;
        }
        if let TraceEvent::Enqueue { queue, .. }
        | TraceEvent::Dequeue { queue, .. }
        | TraceEvent::EcnMark { queue, .. } = &mut ev
        {
            *queue = queue.wrapping_sub(self.base);
        }
        self.total += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped_oldest += 1;
        }
        self.ring.push_back(ev);
    }
}

/// Installs a tracer on this thread with the default ring capacity.
/// Replaces any previous tracer.
pub fn install(filter: TraceFilter) {
    install_with_capacity(DEFAULT_CAPACITY, filter);
}

/// Installs a tracer with an explicit ring capacity. Queues built from now
/// on are numbered from 0 in its log.
pub fn install_with_capacity(capacity: usize, filter: TraceFilter) {
    let capacity = capacity.max(1);
    arm(TRACE, |s| {
        s.tracer = Some(Tracer {
            filter,
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            total: 0,
            dropped_oldest: 0,
            base: s.next_id,
        });
    });
}

/// Whether a tracer is installed on this thread.
#[inline]
pub fn is_active() -> bool {
    armed_for(TRACE)
}

/// Uninstalls the tracer and returns its log.
///
/// # Panics
/// Panics if no tracer is installed (`install` was never called, or
/// `finish` was called twice).
pub fn finish() -> TraceLog {
    let tracer =
        disarm(TRACE, |s| s.tracer.take()).expect("trace::finish() without a matching install()");
    TraceLog {
        events: tracer.ring.into_iter().collect(),
        total: tracer.total,
        dropped_oldest: tracer.dropped_oldest,
        capacity: tracer.capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{new_component_id, on_drop, on_enqueue, on_event_pop, record, PktInfo};

    fn ctrl_pkt(flow: u64) -> PktInfo {
        PktInfo {
            flow,
            seq: -1,
            data: false,
            payload_bytes: 0,
            wire_bytes: 64,
        }
    }

    fn credit_wasted(flow: u64) {
        record(|t_ns| TraceEvent::CreditWasted { t_ns, flow });
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Enqueue {
                t_ns: 10,
                queue: 3,
                flow: 7,
                seq: 0,
                bytes_after: 1538,
            },
            TraceEvent::Dequeue {
                t_ns: 11,
                queue: 3,
                flow: 7,
                seq: 0,
                bytes_after: 0,
            },
            TraceEvent::EcnMark {
                t_ns: 12,
                queue: 3,
                flow: 7,
                seq: 5,
            },
            TraceEvent::Drop {
                t_ns: 13,
                node: 9,
                flow: 7,
                seq: -1,
                cause: DropCause::SelectiveRed,
            },
            TraceEvent::CreditSent {
                t_ns: 14,
                flow: 8,
                idx: 42,
            },
            TraceEvent::CreditWasted { t_ns: 15, flow: 8 },
            TraceEvent::Retransmit {
                t_ns: 16,
                flow: 7,
                seq: 5,
            },
            TraceEvent::Rto {
                t_ns: 17,
                flow: 7,
                backoff: 2,
            },
            TraceEvent::TimerCancel {
                t_ns: 18,
                flow: 7,
                kind: 1,
            },
        ]
    }

    /// Each `ALL` roster lists every variant at its declaration index. The
    /// matches are wildcard-free on purpose: a new variant stops this test
    /// compiling until it has an arm, and the arm fails the assertion until
    /// the variant is in the roster (and so in `from_name` and the filter).
    #[test]
    fn rosters_list_every_variant() {
        for (i, k) in EventKind::ALL.into_iter().enumerate() {
            let at = match k {
                EventKind::Enqueue => 0,
                EventKind::Dequeue => 1,
                EventKind::EcnMark => 2,
                EventKind::Drop => 3,
                EventKind::CreditSent => 4,
                EventKind::CreditWasted => 5,
                EventKind::Retransmit => 6,
                EventKind::Rto => 7,
                EventKind::TimerCancel => 8,
            };
            assert_eq!((at, k as usize), (i, i), "{k:?}");
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        for (i, c) in DropCause::ALL.into_iter().enumerate() {
            let at = match c {
                DropCause::QueueCap => 0,
                DropCause::Buffer => 1,
                DropCause::SelectiveRed => 2,
                DropCause::InjectedLoss => 3,
            };
            assert_eq!((at, c as usize), (i, i), "{c:?}");
            assert_eq!(DropCause::from_name(c.name()), Some(c));
        }
        assert_eq!(EventKind::from_name("meta"), None);
        assert_eq!(DropCause::from_name("bogus"), None);
    }

    #[test]
    fn totals_count_by_kind_and_match_waste_per_flow() {
        let mut t = TraceTotals::default();
        sample_events().iter().for_each(|ev| t.fold(ev));
        assert_eq!(t.events(), 9);
        for k in EventKind::ALL {
            assert_eq!(t.count(k), 1, "{k:?}");
        }
        assert_eq!(t.drop_sites[&(9, DropCause::SelectiveRed)], 1);
        assert_eq!((t.matched_waste, t.unmatched_waste), (1, 0));
        // The enqueue left queue 3 at 1538 B, the dequeue emptied it.
        assert_eq!(t.peak_depth, Some((1538, 3)));
        // Flow 8 has no issue outstanding any more, and flow 3's issue
        // cannot pay for it: matching is per flow.
        t.fold(&TraceEvent::CreditSent {
            t_ns: 20,
            flow: 3,
            idx: 0,
        });
        t.fold(&TraceEvent::CreditWasted { t_ns: 21, flow: 8 });
        assert_eq!((t.matched_waste, t.unmatched_waste), (1, 1));
        assert_eq!(t.count(EventKind::CreditWasted), 2);
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        for ev in sample_events() {
            let line = ev.to_json_line();
            let back =
                TraceEvent::parse_json_line(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(ev, back, "line: {line}");
        }
    }

    #[test]
    fn parse_skips_blank_and_foreign_lines() {
        let text = "\n{\"kind\":\"meta\",\"total\":3}\n{\"kind\":\"rto\",\"t_ns\":1,\"flow\":2,\"backoff\":0}\nnot json\n";
        let (events, skipped) = TraceLog::parse_jsonl(text);
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            TraceEvent::Rto {
                t_ns: 1,
                flow: 2,
                backoff: 0
            }
        );
        assert_eq!(skipped, 2);
    }

    /// A field too wide for its type is a malformed line, skipped and
    /// counted like any other, not truncated into a plausible value.
    #[test]
    fn parse_rejects_out_of_range_fields() {
        for line in [
            "{\"kind\":\"rto\",\"t_ns\":1,\"flow\":2,\"backoff\":4294967296}",
            "{\"kind\":\"timer-cancel\",\"t_ns\":1,\"flow\":2,\"timer_kind\":65536}",
        ] {
            assert_eq!(TraceEvent::parse_json_line(line), None, "{line}");
            assert_eq!(TraceLog::parse_jsonl(line), (Vec::new(), 1), "{line}");
        }
    }

    #[test]
    fn install_record_finish_lifecycle() {
        assert!(!is_active());
        install(TraceFilter::all());
        assert!(is_active());
        on_event_pop(100, 0);
        on_enqueue(new_component_id(), &ctrl_pkt(1), 64);
        on_event_pop(200, 1);
        credit_wasted(1);
        let log = finish();
        assert!(!is_active());
        assert_eq!(log.total, 2);
        assert_eq!(log.dropped_oldest, 0);
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].t_ns(), 100);
        assert_eq!(log.events[1].t_ns(), 200);
        // Queue numbers restart at zero on the next install.
        install(TraceFilter::all());
        on_enqueue(new_component_id(), &ctrl_pkt(1), 64);
        assert!(matches!(
            finish().events[0],
            TraceEvent::Enqueue { queue: 0, .. }
        ));
    }

    #[test]
    fn ring_buffer_keeps_newest_and_counts_evictions() {
        install_with_capacity(4, TraceFilter::all());
        for i in 0..10u64 {
            on_event_pop(i, i);
            credit_wasted(i);
        }
        let log = finish();
        assert_eq!(log.total, 10);
        assert_eq!(log.dropped_oldest, 6);
        assert_eq!(log.events.len(), 4);
        assert_eq!(log.events[0].t_ns(), 6);
        assert_eq!(log.events[3].t_ns(), 9);
    }

    #[test]
    fn filter_parse_and_apply() {
        let f = TraceFilter::parse("drop, retransmit").expect("valid");
        assert!(f.allows(EventKind::Drop));
        assert!(f.allows(EventKind::Retransmit));
        assert!(!f.allows(EventKind::Enqueue));
        assert!(TraceFilter::parse("")
            .expect("empty")
            .allows(EventKind::Rto));
        assert!(TraceFilter::parse("all")
            .expect("all")
            .allows(EventKind::EcnMark));
        assert!(TraceFilter::parse("bogus").is_err());

        install(f);
        on_event_pop(1, 0);
        on_enqueue(new_component_id(), &ctrl_pkt(1), 64); // filtered out
        on_drop(2, &ctrl_pkt(1), DropCause::QueueCap);
        let log = finish();
        assert_eq!(log.total, 1);
        assert_eq!(log.events[0].kind(), EventKind::Drop);
    }

    #[test]
    fn hooks_are_inert_without_install() {
        // Must not panic, and must leave nothing for a later tracer.
        on_event_pop(5, 0);
        on_enqueue(new_component_id(), &ctrl_pkt(1), 64);
        on_drop(0, &ctrl_pkt(1), DropCause::Buffer);
        assert!(!is_active());
        install(TraceFilter::all());
        credit_wasted(1);
        let log = finish();
        assert_eq!(log.total, 1);
        assert_eq!(
            log.events[0].t_ns(),
            0,
            "an uninstalled hook moved the clock"
        );
    }

    #[test]
    fn active_flag_is_per_thread() {
        install(TraceFilter::all());
        std::thread::spawn(|| {
            assert!(!is_active(), "another thread's tracer armed this one");
            credit_wasted(1); // inert here
            install(TraceFilter::all());
            assert!(is_active());
            assert_eq!(finish().total, 0);
            assert!(!is_active());
        })
        .join()
        .expect("worker thread");
        assert!(is_active());
        assert_eq!(finish().total, 0);
        assert!(!is_active());
    }
}
