//! The measurement recorder.

use std::collections::BTreeMap;

use flexpass_simcore::stats::{bytes_to_gbps, FctSketch, Percentiles, TimeSeries};
use flexpass_simcore::time::{Time, TimeDelta};
use flexpass_simnet::endpoint::{AppEvent, TxStats};
use flexpass_simnet::packet::{FlowSpec, Packet, Payload, Subflow};
use flexpass_simnet::port::Port;
use flexpass_simnet::queue::DropReason;
use flexpass_simnet::sim::{NetObserver, NodeId};

/// One completed flow.
#[derive(Clone, Debug)]
pub struct FlowRecord {
    /// Flow id.
    pub flow: u64,
    /// Application bytes.
    pub size: u64,
    /// Flow completion time in seconds (start to last byte delivered).
    pub fct: f64,
    /// Scheme tag (0 = legacy, 1 = upgraded by convention).
    pub tag: u32,
    /// Peak out-of-order reassembly buffer at the receiver, bytes.
    pub reorder_peak: u64,
}

/// Key of a throughput time series: `(flow tag, sub-flow)`.
pub type SeriesKey = (u32, Subflow);

/// Key of a streaming FCT sketch: `(flow tag, size decade)`.
pub type SketchKey = (u32, u8);

/// Decimal size bucket of a flow: `floor(log10(size))`, 0 for sizes
/// under 10 bytes. The paper's small-flow cut (`size < 100 kB`) is
/// exactly `decade <= SMALL_DECADE_MAX`.
pub fn size_decade(size: u64) -> u8 {
    let mut d = 0u8;
    let mut s = size / 10;
    while s > 0 {
        d += 1;
        s /= 10;
    }
    d
}

/// Largest decade still inside the paper's small-flow cut (< 100 kB).
pub const SMALL_DECADE_MAX: u8 = 4;

/// Receiver saw the last byte (`FlowCompleted`).
const RX_DONE: u8 = 1;
/// Sender retired its state (`SenderDone`).
const TX_DONE: u8 = 2;
const BOTH_DONE: u8 = RX_DONE | TX_DONE;

/// Compact per-live-flow bookkeeping — only what the figure queries
/// need, not the whole [`FlowSpec`] (src/dst routing fields are the
/// simulator's business, not the recorder's).
#[derive(Clone, Copy, Debug)]
struct LiveFlow {
    size: u64,
    start: Time,
    tag: u32,
    /// `RX_DONE | TX_DONE` bits; in streaming mode the entry is dropped
    /// once both endpoints have retired the flow, keeping the map
    /// O(live flows).
    done: u8,
}

/// Derived FCT statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct FctStats {
    /// Number of flows.
    pub count: usize,
    /// Mean FCT, seconds.
    pub avg: f64,
    /// Median FCT, seconds.
    pub p50: f64,
    /// 99th percentile FCT, seconds.
    pub p99: f64,
    /// Maximum FCT, seconds.
    pub max: f64,
    /// Population standard deviation, seconds.
    pub stddev: f64,
}

/// A [`NetObserver`] recording everything the paper's figures need.
pub struct Recorder {
    live: BTreeMap<u64, LiveFlow>,
    /// Streaming mode: fold completions into [`FctSketch`]es and drop
    /// retired live entries instead of retaining [`FlowRecord`]s, so
    /// memory is O(live flows), not O(flows). Exact mode (the default)
    /// keeps the full per-flow record for the paper's figures.
    streaming: bool,
    /// Streaming mode: one bounded-memory sketch per (tag, size decade).
    sketches: BTreeMap<SketchKey, FctSketch>,
    /// Streaming mode: completions folded into `sketches`.
    streamed: u64,
    /// Completed flows (exact mode only; empty in streaming mode).
    pub flows: Vec<FlowRecord>,
    /// Sender stats summed per tag.
    pub tx_by_tag: BTreeMap<u32, TxStats>,
    /// Drops by reason.
    pub drops: BTreeMap<DropReason, u64>,
    /// Dropped red (reactive) packets at switches.
    pub red_drops: u64,
    throughput_bin: Option<TimeDelta>,
    series: BTreeMap<SeriesKey, TimeSeries>,
    /// Queue index to collect occupancy stats for (e.g. 1 = Q1).
    queue_watch: Option<usize>,
    /// Q-watch: total bytes samples.
    pub q_bytes: Percentiles,
    /// Q-watch: samples from moments the queue was non-empty (the paper's
    /// occupancy numbers describe busy bottleneck ports, not the idle
    /// fabric average).
    pub q_busy_bytes: Percentiles,
    /// Q-watch: red bytes samples.
    pub q_red_bytes: Percentiles,
    /// Q-watch: max bytes ever sampled.
    pub q_peak: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with FCT + drop accounting only.
    pub fn new() -> Self {
        Recorder {
            live: BTreeMap::new(),
            streaming: false,
            sketches: BTreeMap::new(),
            streamed: 0,
            flows: Vec::new(),
            tx_by_tag: BTreeMap::new(),
            drops: BTreeMap::new(),
            red_drops: 0,
            throughput_bin: None,
            series: BTreeMap::new(),
            queue_watch: None,
            q_bytes: Percentiles::new(),
            q_busy_bytes: Percentiles::new(),
            q_red_bytes: Percentiles::new(),
            q_peak: 0,
        }
    }

    /// Enables per-(tag, sub-flow) throughput time series with `bin` width.
    pub fn with_throughput(mut self, bin: TimeDelta) -> Self {
        self.throughput_bin = Some(bin);
        self
    }

    /// Enables occupancy statistics for switch queue index `q` (requires
    /// `Sim::enable_sampling`).
    pub fn with_queue_watch(mut self, q: usize) -> Self {
        self.queue_watch = Some(q);
        self
    }

    /// Switches to streaming mode: completions fold into per-(tag, size
    /// decade) [`FctSketch`]es and per-flow state is dropped once both
    /// endpoints retire the flow, so recorder memory stays O(live flows)
    /// at any scale. Quantiles then carry the sketch's documented
    /// [`FctSketch::RELATIVE_ERROR`]; count/mean/min/max stay exact.
    /// Per-flow records ([`Recorder::flows`], [`Recorder::fct_stats`])
    /// are unavailable in this mode.
    pub fn with_streaming(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// True when this recorder folds completions into sketches.
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Number of retained per-flow FCT samples (0 in streaming mode —
    /// the memory-regression contract).
    pub fn retained_samples(&self) -> usize {
        self.flows.len()
    }

    /// Number of flows currently tracked as live (started but not yet
    /// fully retired). In streaming mode this is the recorder's only
    /// per-flow state.
    pub fn live_flows(&self) -> usize {
        self.live.len()
    }

    /// The streaming sketches, keyed by (tag, size decade). Empty unless
    /// streaming mode recorded completions.
    pub fn sketches(&self) -> &BTreeMap<SketchKey, FctSketch> {
        &self.sketches
    }

    /// FCT statistics over flows matching `filt`.
    pub fn fct_stats(&self, filt: impl Fn(&FlowRecord) -> bool) -> FctStats {
        let mut p = Percentiles::new();
        for r in self.flows.iter().filter(|r| filt(r)) {
            p.push(r.fct);
        }
        FctStats {
            count: p.count(),
            avg: p.mean(),
            p50: p.p50(),
            p99: p.p99(),
            max: p.max(),
            stddev: p.stddev(),
        }
    }

    /// Pools the streaming sketches matching `tag` (and optionally only
    /// small-flow decades) into one. Bin counts add exactly, so pooled
    /// quantiles carry the same error bound as a single sketch.
    fn merged_sketch(&self, tag: Option<u32>, small_only: bool) -> FctSketch {
        let mut out = FctSketch::new();
        for ((t, decade), s) in &self.sketches {
            if tag.is_some_and(|want| *t != want) {
                continue;
            }
            if small_only && *decade > SMALL_DECADE_MAX {
                continue;
            }
            out.merge(s);
        }
        out
    }

    /// FCT statistics from the streaming sketches: count/avg/max/stddev
    /// exact, p50/p99 within [`FctSketch::RELATIVE_ERROR`]. All zeros
    /// when nothing matched (or in exact mode, where the sketches are
    /// never fed).
    pub fn streaming_stats(&self, tag: Option<u32>, small_only: bool) -> FctStats {
        let s = self.merged_sketch(tag, small_only);
        FctStats {
            // lint:allow(raw-cast): sample counts fit usize on 64-bit.
            count: s.count() as usize,
            avg: s.mean(),
            p50: s.p50(),
            p99: s.p99(),
            max: s.max(),
            stddev: s.stddev(),
        }
    }

    /// The paper's headline tail metric: p99 FCT of flows under 100 kB.
    /// In streaming mode, answered from the sketches (within
    /// [`FctSketch::RELATIVE_ERROR`]).
    pub fn p99_small(&self, tag: Option<u32>) -> f64 {
        if self.streaming {
            return self.streaming_stats(tag, true).p99;
        }
        self.fct_stats(|r| r.size < 100_000 && tag.is_none_or(|t| r.tag == t))
            .p99
    }

    /// Overall average FCT (all sizes), optionally by tag. Exact in both
    /// modes (sketches keep the exact mean).
    pub fn avg_fct(&self, tag: Option<u32>) -> f64 {
        if self.streaming {
            return self.streaming_stats(tag, false).avg;
        }
        self.fct_stats(|r| tag.is_none_or(|t| r.tag == t)).avg
    }

    /// Standard deviation of small-flow FCTs by tag (Figure 13). Exact
    /// in both modes.
    pub fn stddev_small(&self, tag: Option<u32>) -> f64 {
        if self.streaming {
            return self.streaming_stats(tag, true).stddev;
        }
        self.fct_stats(|r| r.size < 100_000 && tag.is_none_or(|t| r.tag == t))
            .stddev
    }

    /// A throughput series, if recorded.
    pub fn series(&self, key: SeriesKey) -> Option<&TimeSeries> {
        self.series.get(&key)
    }

    /// Aggregate throughput in Gbps per bin for a tag (summing sub-flows).
    pub fn throughput_gbps(&self, tag: u32) -> Vec<f64> {
        let bin = match self.throughput_bin {
            Some(b) => b,
            None => return Vec::new(),
        };
        let mut out: Vec<f64> = Vec::new();
        for ((t, _), s) in &self.series {
            if *t != tag {
                continue;
            }
            for (i, &v) in s.bins().iter().enumerate() {
                if i >= out.len() {
                    out.resize(i + 1, 0.0);
                }
                out[i] += bytes_to_gbps(v, bin);
            }
        }
        out
    }

    /// Fraction of time in `[from, to)` where the tag's aggregate
    /// throughput is below `frac` of `capacity_gbps` — the paper's
    /// starvation-time metric (Figure 9c: threshold 20 %).
    ///
    /// Each bin contributes in proportion to its overlap with the window,
    /// so a window that ends mid-bin weighs that bin by the covered
    /// fraction instead of counting it as a full bin. A window with no
    /// overlap with the recorded series yields 0.0.
    pub fn starvation_fraction(
        &self,
        tag: u32,
        capacity_gbps: f64,
        frac: f64,
        from: Time,
        to: Time,
    ) -> f64 {
        debug_assert!(
            from <= to,
            "starvation window is inverted: {from:?} > {to:?}"
        );
        let bin = match self.throughput_bin {
            Some(b) => b,
            None => return 0.0,
        };
        let tp = self.throughput_gbps(tag);
        let w = bin.as_nanos();
        let lo = (from.as_nanos() / w) as usize;
        let hi = (to.as_nanos().div_ceil(w) as usize).min(tp.len());
        let mut total = 0.0f64;
        let mut below = 0.0f64;
        for (i, &v) in tp.iter().enumerate().take(hi).skip(lo) {
            let bin_start = i as u64 * w;
            let bin_end = bin_start + w;
            let o_start = bin_start.max(from.as_nanos());
            let o_end = bin_end.min(to.as_nanos());
            if o_end <= o_start {
                continue;
            }
            let weight = (o_end - o_start) as f64;
            total += weight;
            if v < frac * capacity_gbps {
                below += weight;
            }
        }
        if total <= 0.0 {
            0.0
        } else {
            below / total
        }
    }

    /// Total sender timeouts across tags.
    pub fn total_timeouts(&self) -> u64 {
        self.tx_by_tag.values().map(|s| s.timeouts).sum()
    }

    /// Proactive-retransmission volume as a fraction of all data bytes
    /// (§4.2: "only 0.7 % of redundant retransmission in traffic volume").
    pub fn redundancy_fraction(&self) -> f64 {
        let sent: u64 = self.tx_by_tag.values().map(|s| s.data_bytes).sum();
        let red: u64 = self.tx_by_tag.values().map(|s| s.redundant_bytes).sum();
        if sent == 0 {
            0.0
        } else {
            red as f64 / sent as f64
        }
    }

    /// Number of flows recorded (retained records plus streamed
    /// completions).
    pub fn completed(&self) -> usize {
        // lint:allow(raw-cast): completion counts fit usize on 64-bit.
        self.flows.len() + self.streamed as usize
    }

    /// An empty recorder with this one's configuration (throughput bin,
    /// queue watch, streaming mode). The parallel engine hands one to
    /// each partition domain, then folds them back with
    /// [`Recorder::absorb`].
    pub fn fresh_like(&self) -> Recorder {
        let mut r = Recorder::new();
        r.throughput_bin = self.throughput_bin;
        r.queue_watch = self.queue_watch;
        r.streaming = self.streaming;
        r
    }

    /// Folds a domain recorder into this one. Call in ascending domain
    /// order so merged flow lists are deterministic. A flow split across a
    /// domain cut starts in both domains; the live map dedups it (both
    /// observations carry the same size/start/tag) and ORs the done bits
    /// so a flow that completed RX-side in one domain and TX-side in the
    /// other is recognized as retired. Every other aggregate is strictly
    /// per-domain and sums; sketch merges are bit-deterministic in domain
    /// order.
    pub fn absorb(&mut self, other: Recorder) {
        for (id, lf) in other.live {
            match self.live.entry(id) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().done |= lf.done;
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(lf);
                }
            }
        }
        if self.streaming {
            self.live.retain(|_, lf| lf.done != BOTH_DONE);
        }
        for (key, s) in other.sketches {
            match self.sketches.entry(key) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&s),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(s);
                }
            }
        }
        self.streamed += other.streamed;
        self.flows.extend(other.flows);
        for (tag, s) in other.tx_by_tag {
            self.tx_by_tag.entry(tag).or_default().add(&s);
        }
        for (reason, n) in other.drops {
            *self.drops.entry(reason).or_insert(0) += n;
        }
        self.red_drops += other.red_drops;
        for (key, s) in other.series {
            match self.series.entry(key) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&s),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(s);
                }
            }
        }
        self.q_bytes.merge(&other.q_bytes);
        self.q_busy_bytes.merge(&other.q_busy_bytes);
        self.q_red_bytes.merge(&other.q_red_bytes);
        self.q_peak = self.q_peak.max(other.q_peak);
    }
}

impl NetObserver for Recorder {
    fn on_flow_start(&mut self, spec: &FlowSpec, now: Time) {
        self.live.insert(
            spec.id,
            LiveFlow {
                size: spec.size.get(),
                start: now,
                tag: spec.tag,
                done: 0,
            },
        );
    }

    fn on_app_event(&mut self, ev: &AppEvent, now: Time) {
        match ev {
            AppEvent::FlowCompleted { flow, stats } => {
                if let Some(lf) = self.live.get_mut(flow) {
                    let fct = now.saturating_since(lf.start).as_secs_f64();
                    if self.streaming {
                        let (tag, size) = (lf.tag, lf.size);
                        lf.done |= RX_DONE;
                        if lf.done == BOTH_DONE {
                            self.live.remove(flow);
                        }
                        self.sketches
                            .entry((tag, size_decade(size)))
                            .or_default()
                            .push(fct);
                        self.streamed += 1;
                    } else {
                        self.flows.push(FlowRecord {
                            flow: *flow,
                            size: lf.size,
                            fct,
                            tag: lf.tag,
                            reorder_peak: stats.reorder_peak_bytes,
                        });
                    }
                }
            }
            AppEvent::SenderDone { flow, stats } => {
                let tag = self.live.get(flow).map_or(0, |lf| lf.tag);
                self.tx_by_tag.entry(tag).or_default().add(stats);
                if self.streaming {
                    if let Some(lf) = self.live.get_mut(flow) {
                        lf.done |= TX_DONE;
                        if lf.done == BOTH_DONE {
                            self.live.remove(flow);
                        }
                    }
                }
            }
        }
    }

    fn on_delivered(&mut self, pkt: &Packet, now: Time) {
        if let Some(bin) = self.throughput_bin {
            if let Payload::Data(d) = pkt.payload {
                let tag = self.live.get(&pkt.flow).map_or(0, |lf| lf.tag);
                self.series
                    .entry((tag, d.sub))
                    .or_insert_with(|| TimeSeries::new(bin))
                    .add(now, d.payload.as_f64());
            }
        }
    }

    fn on_drop(&mut self, pkt: &Packet, reason: DropReason, _node: NodeId, _now: Time) {
        *self.drops.entry(reason).or_insert(0) += 1;
        if reason == DropReason::SelectiveRed && pkt.is_data() {
            self.red_drops += 1;
        }
    }

    fn on_queue_sample(&mut self, _node: NodeId, _port: usize, queues: &Port, _now: Time) {
        if let Some(q) = self.queue_watch.filter(|&q| q < queues.num_queues()) {
            let (bytes, red) = (queues.queue(q).bytes(), queues.queue(q).red_bytes());
            self.q_bytes.push(bytes.as_f64());
            if !bytes.is_zero() {
                self.q_busy_bytes.push(bytes.as_f64());
            }
            self.q_red_bytes.push(red.as_f64());
            self.q_peak = self.q_peak.max(bytes.get());
        }
    }
}

#[cfg(test)]
// Test expectations compare floats that are exact by construction.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use flexpass_simcore::units::{Bytes, WireBytes};
    use flexpass_simnet::endpoint::RxStats;

    fn spec(id: u64, size: u64, tag: u32) -> FlowSpec {
        FlowSpec {
            id,
            src: 0,
            dst: 1,
            size: Bytes::new(size),
            start: Time::ZERO,
            tag,
            fg: false,
        }
    }

    fn complete(r: &mut Recorder, id: u64, size: u64, tag: u32, fct_us: u64) {
        r.on_flow_start(&spec(id, size, tag), Time::ZERO);
        r.on_app_event(
            &AppEvent::FlowCompleted {
                flow: id,
                stats: RxStats::default(),
            },
            Time::from_micros(fct_us),
        );
    }

    /// A recorder crosses threads in the parallel sweep: it is built on the
    /// orchestrating thread, moved into a worker with the simulation, and
    /// the finished point comes back the same way. Compile-time check.
    #[test]
    fn recorder_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Recorder>();
        assert_send::<FlowRecord>();
    }

    #[test]
    fn fct_stats_by_size_and_tag() {
        let mut r = Recorder::new();
        complete(&mut r, 1, 50_000, 0, 100);
        complete(&mut r, 2, 50_000, 1, 200);
        complete(&mut r, 3, 5_000_000, 0, 10_000);
        assert_eq!(r.completed(), 3);
        let small = r.fct_stats(|f| f.size < 100_000);
        assert_eq!(small.count, 2);
        assert!((small.avg - 150e-6).abs() < 1e-12);
        assert!((r.p99_small(Some(1)) - 200e-6).abs() < 1e-12);
        assert!((r.avg_fct(None) - (100.0 + 200.0 + 10_000.0) / 3.0 * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn tx_stats_aggregate_by_tag() {
        let mut r = Recorder::new();
        r.on_flow_start(&spec(1, 1000, 1), Time::ZERO);
        let stats = TxStats {
            data_pkts: 10,
            data_bytes: 10_000,
            redundant_bytes: 500,
            timeouts: 1,
            ..TxStats::default()
        };
        r.on_app_event(&AppEvent::SenderDone { flow: 1, stats }, Time::ZERO);
        r.on_app_event(&AppEvent::SenderDone { flow: 1, stats }, Time::ZERO);
        assert_eq!(r.tx_by_tag[&1].data_pkts, 20);
        assert_eq!(r.total_timeouts(), 2);
        assert!((r.redundancy_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn throughput_series_and_starvation() {
        use flexpass_simnet::consts::data_wire_bytes;
        use flexpass_simnet::packet::{DataInfo, Payload, TrafficClass};

        let mut r = Recorder::new().with_throughput(TimeDelta::millis(1));
        r.on_flow_start(&spec(1, 1_000_000, 1), Time::ZERO);
        let pkt = Packet::new(
            1,
            0,
            1,
            data_wire_bytes(Bytes::new(1460)),
            TrafficClass::NewData,
            Payload::Data(DataInfo {
                flow_seq: 0,
                sub_seq: 0,
                sub: Subflow::Proactive,
                payload: Bytes::new(1460),
                retx: false,
            }),
        );
        // 1 Gbps in bin 0: 1 ms * 1 Gbps / 8 = 125 kB.
        for _ in 0..86 {
            r.on_delivered(&pkt, Time::from_micros(500));
        }
        let tp = r.throughput_gbps(1);
        assert!((tp[0] - 1.0).abs() < 0.02, "tp {tp:?}");
        // Starvation below 20 % of 10 Gbps: 1 Gbps < 2 Gbps -> 100 %.
        let f = r.starvation_fraction(1, 10.0, 0.2, Time::ZERO, Time::from_millis(1));
        assert_eq!(f, 1.0);
        // And not starved against a 1 Gbps capacity at 20 %.
        let f = r.starvation_fraction(1, 1.0, 0.2, Time::ZERO, Time::from_millis(1));
        assert_eq!(f, 0.0);
    }

    /// Regression: a window ending mid-bin must weight the trailing bin by
    /// its covered fraction, and windows outside the series must not panic
    /// or report starvation.
    #[test]
    fn starvation_weights_partial_bins_and_clamps_window() {
        use flexpass_simnet::consts::DATA_WIRE;
        use flexpass_simnet::packet::{DataInfo, Payload, TrafficClass};

        let mut r = Recorder::new().with_throughput(TimeDelta::millis(1));
        r.on_flow_start(&spec(1, 2_000_000, 1), Time::ZERO);
        // The series sums `payload`; the wire size is irrelevant here, so a
        // whole bin's worth of bytes can ride in one oversized delivery.
        let deliver = |r: &mut Recorder, bytes: u64, at_us: u64| {
            let pkt = Packet::new(
                1,
                0,
                1,
                DATA_WIRE,
                TrafficClass::NewData,
                Payload::Data(DataInfo {
                    flow_seq: 0,
                    sub_seq: 0,
                    sub: Subflow::Proactive,
                    payload: Bytes::new(bytes),
                    retx: false,
                }),
            );
            r.on_delivered(&pkt, Time::from_micros(at_us));
        };
        // Bin 0: 10 Gbps (1.25 MB / ms). Bin 1: 2 Gbps (250 kB / ms).
        deliver(&mut r, 1_250_000, 500);
        deliver(&mut r, 250_000, 1_500);

        // Window [0, 1.5 ms), threshold 5 Gbps: bin 0 (full weight) is
        // above, bin 1 contributes only half a bin below -> 0.5 / 1.5.
        let f = r.starvation_fraction(1, 10.0, 0.5, Time::ZERO, Time::from_micros(1_500));
        assert!(
            (f - 0.5 / 1.5).abs() < 1e-12,
            "partial bin over-counted: {f}"
        );

        // Empty window.
        let f = r.starvation_fraction(1, 10.0, 0.5, Time::from_micros(700), Time::from_micros(700));
        assert_eq!(f, 0.0);

        // Window entirely past the recorded series.
        let f = r.starvation_fraction(1, 10.0, 0.5, Time::from_millis(10), Time::from_millis(12));
        assert_eq!(f, 0.0);

        // Unknown tag: no series at all.
        let f = r.starvation_fraction(7, 10.0, 0.5, Time::ZERO, Time::from_millis(1));
        assert_eq!(f, 0.0);
    }

    #[test]
    fn queue_watch_percentiles() {
        use flexpass_simcore::time::Rate;
        use flexpass_simnet::arena::PacketArena;
        use flexpass_simnet::packet::{CreditInfo, TrafficClass};
        use flexpass_simnet::port::{PortConfig, QueueSched};
        use flexpass_simnet::queue::QueueConfig;

        let queue = |level| (QueueConfig::plain(), QueueSched::strict(level));
        let mut port = Port::new(&PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![queue(0), queue(1), queue(2)],
        });
        let mut arena = PacketArena::new();
        // Sample i sees i kB in the watched queue; two packets in five are red.
        let mut r = Recorder::new().with_queue_watch(1);
        for i in 0..100u64 {
            r.on_queue_sample(0, 0, &port, Time::from_micros(i));
            let pkt = Packet::new(
                1,
                0,
                1,
                WireBytes::new(1000),
                TrafficClass::NewData,
                Payload::Credit(CreditInfo { idx: 0 }),
            );
            let id = arena.acquire(if i % 5 < 2 { pkt.red() } else { pkt });
            port.enqueue(&mut arena, 1, id).expect("plain queue admits");
        }
        assert_eq!(r.q_peak, 99_000);
        assert!((r.q_bytes.quantile(0.9) - 89_000.0).abs() < 1e-9);
        assert!(r.q_red_bytes.mean() > 0.0);
        // Busy samples exclude the single zero-occupancy sample.
        assert_eq!(r.q_busy_bytes.count(), 99);
    }

    #[test]
    fn absorb_merges_domains_and_dedups_split_flow_specs() {
        use flexpass_simnet::consts::data_wire_bytes;
        use flexpass_simnet::packet::{DataInfo, Payload, TrafficClass};

        let parent = Recorder::new().with_throughput(TimeDelta::millis(1));
        let mut d0 = parent.fresh_like();
        let mut d1 = parent.fresh_like();

        // Flow 1 crosses the cut: its FlowStart fires in both domains,
        // it completes (receiver side) only in d1.
        d0.on_flow_start(&spec(1, 50_000, 1), Time::ZERO);
        d1.on_flow_start(&spec(1, 50_000, 1), Time::ZERO);
        d1.on_app_event(
            &AppEvent::FlowCompleted {
                flow: 1,
                stats: RxStats::default(),
            },
            Time::from_micros(120),
        );
        // Flow 2 is intra-domain in d0.
        complete(&mut d0, 2, 80_000, 0, 300);
        // Deliveries land in different domains; both series must sum.
        let pkt = Packet::new(
            1,
            0,
            1,
            data_wire_bytes(Bytes::new(1460)),
            TrafficClass::NewData,
            Payload::Data(DataInfo {
                flow_seq: 0,
                sub_seq: 0,
                sub: Subflow::Proactive,
                payload: Bytes::new(1460),
                retx: false,
            }),
        );
        d0.on_delivered(&pkt, Time::from_micros(500));
        d1.on_delivered(&pkt, Time::from_micros(500));

        let mut merged = parent;
        merged.absorb(d0);
        merged.absorb(d1);
        assert_eq!(merged.completed(), 2);
        assert_eq!(merged.fct_stats(|f| f.flow == 1).count, 1);
        assert!((merged.fct_stats(|f| f.flow == 1).avg - 120e-6).abs() < 1e-12);
        // Both deliveries counted once each: 2 * 1460 B in bin 0.
        let tp = merged.throughput_gbps(1);
        assert!((tp[0] - 2.0 * 1460.0 * 8.0 / 1e6).abs() < 1e-9, "tp {tp:?}");
    }

    #[test]
    fn size_decade_buckets_match_small_flow_cut() {
        assert_eq!(size_decade(0), 0);
        assert_eq!(size_decade(9), 0);
        assert_eq!(size_decade(10), 1);
        assert_eq!(size_decade(99_999), SMALL_DECADE_MAX);
        assert_eq!(size_decade(100_000), SMALL_DECADE_MAX + 1);
        assert_eq!(size_decade(u64::MAX), 19);
    }

    /// Fully retires a flow: start, receiver completion at `fct_us`, and
    /// sender retirement (what every transport emits in practice).
    fn retire(r: &mut Recorder, id: u64, size: u64, tag: u32, fct_us: u64) {
        complete(r, id, size, tag, fct_us);
        r.on_app_event(
            &AppEvent::SenderDone {
                flow: id,
                stats: TxStats::default(),
            },
            Time::from_micros(fct_us),
        );
    }

    /// Deterministic pseudo-random (size, fct_us) pairs.
    fn synth_flows(n: u64) -> Vec<(u64, u64)> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let size = 100 + state % 10_000_000;
                let fct_us = 20 + (state >> 32) % 200_000;
                (size, fct_us)
            })
            .collect()
    }

    #[test]
    fn streaming_matches_exact_within_sketch_error() {
        let mut exact = Recorder::new();
        let mut stream = Recorder::new().with_streaming();
        for (i, &(size, fct_us)) in synth_flows(5_000).iter().enumerate() {
            let tag = (i % 2) as u32;
            retire(&mut exact, i as u64, size, tag, fct_us);
            retire(&mut stream, i as u64, size, tag, fct_us);
        }
        assert_eq!(stream.completed(), exact.completed());
        for tag in [None, Some(0), Some(1)] {
            // Count/mean/stddev are carried exactly by the sketches.
            let es = exact.fct_stats(|r| r.size < 100_000 && tag.is_none_or(|t| r.tag == t));
            let ss = stream.streaming_stats(tag, true);
            assert_eq!(ss.count, es.count);
            assert!((stream.avg_fct(tag) - exact.avg_fct(tag)).abs() < 1e-12);
            assert!((stream.stddev_small(tag) - exact.stddev_small(tag)).abs() < 1e-12);
            assert!((ss.max - es.max).abs() < 1e-12);
            // Quantiles within the documented sketch error.
            let (sp, ep) = (stream.p99_small(tag), exact.p99_small(tag));
            assert!(
                (sp - ep).abs() <= FctSketch::RELATIVE_ERROR * ep,
                "tag {tag:?}: streaming p99 {sp} vs exact {ep}"
            );
            let (sp, ep) = (ss.p50, es.p50);
            assert!(
                (sp - ep).abs() <= FctSketch::RELATIVE_ERROR * ep,
                "tag {tag:?}: streaming p50 {sp} vs exact {ep}"
            );
        }
    }

    /// The memory-regression contract: a streaming recorder retains zero
    /// per-flow samples and its live map empties as flows retire.
    #[test]
    fn streaming_recorder_retains_no_flow_state() {
        let mut r = Recorder::new().with_streaming();
        for (i, &(size, fct_us)) in synth_flows(1_000).iter().enumerate() {
            retire(&mut r, i as u64, size, 0, fct_us);
        }
        assert_eq!(r.completed(), 1_000);
        assert_eq!(r.retained_samples(), 0);
        assert_eq!(r.live_flows(), 0);
        // Exact mode keeps everything — the figures' contract.
        let mut e = Recorder::new();
        for (i, &(size, fct_us)) in synth_flows(100).iter().enumerate() {
            retire(&mut e, i as u64, size, 0, fct_us);
        }
        assert_eq!(e.retained_samples(), 100);
        assert_eq!(e.live_flows(), 100);
    }

    /// A flow split across a partition cut completes RX-side in one
    /// domain and TX-side in the other; absorbing both must OR the done
    /// bits and drop the entry, and repeated domain-order merges must be
    /// bit-deterministic.
    #[test]
    fn streaming_absorb_drops_split_flows_and_is_deterministic() {
        let parent = Recorder::new().with_streaming();
        let build_domains = || {
            let mut d0 = parent.fresh_like();
            let mut d1 = parent.fresh_like();
            assert!(d0.is_streaming());
            // Flow 1 crosses the cut: starts in both, completes RX-side
            // in d1, retires TX-side in d0.
            d0.on_flow_start(&spec(1, 50_000, 1), Time::ZERO);
            d1.on_flow_start(&spec(1, 50_000, 1), Time::ZERO);
            d1.on_app_event(
                &AppEvent::FlowCompleted {
                    flow: 1,
                    stats: RxStats::default(),
                },
                Time::from_micros(120),
            );
            d0.on_app_event(
                &AppEvent::SenderDone {
                    flow: 1,
                    stats: TxStats::default(),
                },
                Time::from_micros(120),
            );
            // Plus intra-domain traffic on both sides.
            for (i, &(size, fct_us)) in synth_flows(200).iter().enumerate() {
                retire(
                    if i % 2 == 0 { &mut d0 } else { &mut d1 },
                    10 + i as u64,
                    size,
                    1,
                    fct_us,
                );
            }
            (d0, d1)
        };
        let merge = || {
            let mut m = parent.fresh_like();
            let (d0, d1) = build_domains();
            m.absorb(d0);
            m.absorb(d1);
            m
        };
        let a = merge();
        let b = merge();
        assert_eq!(a.completed(), 201);
        assert_eq!(a.live_flows(), 0, "split flow not dropped after absorb");
        assert_eq!(a.retained_samples(), 0);
        // Bit-identical across repeated merges.
        assert_eq!(a.p99_small(Some(1)), b.p99_small(Some(1)));
        assert_eq!(a.avg_fct(Some(1)), b.avg_fct(Some(1)));
        let qa: Vec<f64> = a.sketches().values().map(|s| s.quantile(0.9)).collect();
        let qb: Vec<f64> = b.sketches().values().map(|s| s.quantile(0.9)).collect();
        assert_eq!(qa, qb);
    }

    #[test]
    fn drops_accounted_by_reason() {
        use flexpass_simnet::consts::CTRL_WIRE;
        use flexpass_simnet::packet::{CreditInfo, Payload, TrafficClass};
        let mut r = Recorder::new();
        let credit = Packet::new(
            1,
            0,
            1,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        );
        r.on_drop(&credit, DropReason::QueueCap, 0, Time::ZERO);
        r.on_drop(&credit, DropReason::QueueCap, 0, Time::ZERO);
        assert_eq!(r.drops[&DropReason::QueueCap], 2);
        assert_eq!(r.red_drops, 0);
    }
}
