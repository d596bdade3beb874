//! The reliability kit shared by every transport.
//!
//! Sender side: the per-packet [`Scoreboard`] of every sender, FlexPass's
//! included (cumulative + SACK marking, lost-first transmission order, the
//! triple-duplicate-ACK rule), the [`RtoTimer`], the [`RttEstimator`] and
//! the [`DctcpWindow`]. Receiver side: one arrival set per sequence space,
//! each a [`SeqFrontier`] (word bitset + cumulative point, which builds the
//! cumulative + SACK ACK and whose word searches every range scan here uses).
//! [`Reassembly`] keeps the per-flow one; the completion-and-linger
//! [`RxTail`] around it ACKs single-loop flows from it. Each transport
//! keeps only its own policy: what clocks a transmission and what a loss
//! does to it.

use flexpass_simcore::time::{Time, TimeDelta};
use flexpass_simcore::units::{Bytes, PktCount};
use flexpass_simnet::consts::{packets_for, payload_of_packet};
use flexpass_simnet::endpoint::{AppEvent, EndpointCtx, RxStats, TxStats};
use flexpass_simnet::hooks;
use flexpass_simnet::packet::{
    AckInfo, DataInfo, FlowId, FlowSpec, Packet, Payload, Subflow, TrafficClass, MAX_SACK,
};
use flexpass_simnet::sim::{timer_flow, timer_token};
use flexpass_simnet::trace::TraceEvent;

/// Retransmission timeout floor of every transport (the paper's `RTO_min`).
pub const MIN_RTO: TimeDelta = TimeDelta::millis(4);

/// How long a completed receiver lingers to re-ACK stray retransmissions
/// before it is torn down.
pub const LINGER: TimeDelta = TimeDelta::millis(16);

/// Per-packet sender-side state, kept by a [`Scoreboard`]. FlexPass's
/// sender is the paper's Figure-4 machine over `Pending`, `SentReactive`,
/// `SentProactive`, `Lost` and `Acked`; single-loop senders use `Sent` in
/// place of the two sub-flow states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PktState {
    /// Never transmitted.
    Pending,
    /// In flight on the (only) sub-flow.
    Sent,
    /// In flight on the reactive sub-flow (FlexPass).
    SentReactive,
    /// In flight on the proactive sub-flow (FlexPass).
    SentProactive,
    /// Detected lost, awaiting retransmission.
    Lost,
    /// Acknowledged.
    Acked,
}

impl PktState {
    /// True for any in-flight state.
    pub fn in_flight(self) -> bool {
        matches!(
            self,
            PktState::Sent | PktState::SentReactive | PktState::SentProactive
        )
    }
}

/// Exponentially weighted RTT estimator with the standard RTO formula
/// (`srtt + 4 * rttvar`), clamped to a configurable minimum.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    srtt: Option<TimeDelta>,
    rttvar: TimeDelta,
    min_rto: TimeDelta,
}

impl RttEstimator {
    /// Creates an estimator with the given minimum RTO.
    pub fn new(min_rto: TimeDelta) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: TimeDelta::ZERO,
            min_rto,
        }
    }

    /// Feeds one RTT sample.
    pub fn sample(&mut self, rtt: TimeDelta) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let diff = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                // rttvar = 3/4 rttvar + 1/4 |diff|; srtt = 7/8 srtt + 1/8 rtt.
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
    }

    /// Smoothed RTT, if any sample has arrived.
    pub fn srtt(&self) -> Option<TimeDelta> {
        self.srtt
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> TimeDelta {
        match self.srtt {
            None => self.min_rto,
            Some(srtt) => (srtt + self.rttvar * 4).max(self.min_rto),
        }
    }
}

/// A set of sequence numbers and its contiguous frontier, the lowest
/// sequence not in the set: the kit's one sequence set. Every arrival
/// record is one — per flow in [`Reassembly`], per sub-flow in FlexPass's
/// receiver — and [`ack`](Self::ack) builds the ACK from it; so are a
/// [`Scoreboard`]'s acknowledged packets and the FlexPass sender's closed
/// sub-flow slots.
///
/// The set is a word bitset that grows on demand to the highest member;
/// positions past it read as absent. [`next`](Self::next) is its forward
/// search and `last_absent` its one backward one, so every range scan over
/// it visits only the positions it acts on and steps over the rest a word
/// at a time. Capacity reserved up front keeps it from reallocating within
/// a flow.
#[derive(Clone, Debug, Default)]
pub struct SeqFrontier {
    words: Vec<u64>,
    cum: u32,
}

impl SeqFrontier {
    /// An empty set with room for `n` members before it reallocates.
    pub fn with_capacity(n: u32) -> Self {
        SeqFrontier {
            words: Vec::with_capacity(n.div_ceil(64) as usize),
            cum: 0,
        }
    }

    /// Inserts `seq`, advancing the frontier past every member it joins.
    /// Returns whether `seq` was new.
    #[inline]
    pub fn insert(&mut self, seq: u32) -> bool {
        let (w, bit) = ((seq / 64) as usize, 1 << (seq % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let word = &mut self.words[w];
        if std::mem::replace(word, *word | bit) & bit != 0 {
            return false;
        }
        if seq == self.cum {
            self.cum = self.next(seq, u32::MAX, false);
        }
        true
    }

    /// Whether `seq` is in the set.
    pub fn contains(&self, seq: u32) -> bool {
        self.words
            .get((seq / 64) as usize)
            .is_some_and(|w| w >> (seq % 64) & 1 == 1)
    }

    /// The lowest position in `from..to` that is a member (`member`) or is
    /// absent (`!member`); `to` when there is none. An absent position is
    /// never below the frontier, so that search starts at it.
    #[inline]
    pub fn next(&self, from: u32, to: u32, member: bool) -> u32 {
        let mut i = if member { from } else { from.max(self.cum) };
        while i < to {
            let Some(&w) = self.words.get((i / 64) as usize) else {
                return if member { to } else { i };
            };
            let hits = (if member { w } else { !w }) >> (i % 64);
            if hits != 0 {
                return (i + hits.trailing_zeros()).min(to);
            }
            i = (i | 63).saturating_add(1);
        }
        to
    }

    /// The highest absent position in `from..to`, if any: [`next`]'s
    /// absent search run backwards, a word at a time.
    ///
    /// [`next`]: Self::next
    fn last_absent(&self, from: u32, to: u32) -> Option<u32> {
        let mut end = to;
        while end > from {
            let (top, base) = (end - 1, (end - 1) & !63);
            let w = self.words.get((top / 64) as usize).copied().unwrap_or(0);
            let gaps = !w & (u64::MAX >> (63 - top % 64));
            if gaps != 0 {
                return Some(base + 63 - gaps.leading_zeros()).filter(|&gap| gap >= from);
            }
            end = base;
        }
        None
    }

    /// The frontier: every sequence below it is in the set, and it is not
    /// (the cumulative ACK value).
    pub fn cum(&self) -> u32 {
        self.cum
    }

    /// Builds an [`AckInfo`] over this set for sub-flow `sub`, echoing
    /// `ece`, with up to [`MAX_SACK`] ranges above the cumulative point.
    ///
    /// Per RFC 2018 the first SACK block is the contiguous range containing
    /// the most recently received segment (`recent`); without this, holes
    /// beyond the third range would hide all later arrivals from the sender
    /// and wedge its in-flight accounting. Remaining blocks report the
    /// lowest ranges above `cum`. Scans are bounded so per-packet ACK
    /// generation stays O(1) even for multi-hundred-megabyte flows.
    pub fn ack(&self, sub: Subflow, ece: bool, acked_flow_seq: u32, recent: u32) -> AckInfo {
        const SACK_SCAN_WINDOW: u32 = 512;
        let mut sack = [(0u32, 0u32); MAX_SACK];
        let mut sack_n = 0usize;

        // Block 1: the run around `recent`, when it sits above cum, cut at
        // the scan window on either side. It starts just past the last gap
        // below `recent`.
        if recent >= self.cum && self.contains(recent) {
            let floor = recent.saturating_sub(SACK_SCAN_WINDOW).max(self.cum);
            let lo = self.last_absent(floor, recent).map_or(floor, |gap| gap + 1);
            sack[0] = (lo, self.next(recent, recent + SACK_SCAN_WINDOW, false));
            sack_n = 1;
        }

        // Remaining blocks: lowest runs above cum, skipping block 1.
        let (end, mut hi) = (self.cum + SACK_SCAN_WINDOW, self.cum);
        while sack_n < MAX_SACK {
            let lo = self.next(hi, end, true);
            if lo == end {
                break;
            }
            hi = self.next(lo, end, false);
            if sack_n == 0 || (lo, hi) != sack[0] {
                sack[sack_n] = (lo, hi);
                sack_n += 1;
            }
        }
        AckInfo {
            sub,
            cum: self.cum,
            sack,
            sack_n: sack_n as u8,
            ece,
            acked_flow_seq,
        }
    }
}

/// Receiver-side reassembly over the per-flow sequence space.
///
/// Tracks which packets arrived (one [`SeqFrontier`], whose frontier is the
/// in-order delivery point), duplicate packets, and the peak number of
/// bytes buffered out of order — the "reordering buffer" metric of
/// Figure 5(a).
#[derive(Clone, Debug)]
pub struct Reassembly {
    size: Bytes,
    n: u32,
    arrived: SeqFrontier,
    got: u32,
    dup: u64,
    buffered: Bytes,
    peak: Bytes,
}

impl Reassembly {
    /// Creates a reassembly buffer for a `size`-byte flow of `n` packets.
    pub fn new(size: Bytes, n: PktCount) -> Self {
        Reassembly {
            size,
            n: n.get(),
            arrived: SeqFrontier::with_capacity(n.get()),
            got: 0,
            dup: 0,
            buffered: Bytes::ZERO,
            peak: Bytes::ZERO,
        }
    }

    /// Records arrival of per-flow packet `flow_seq`. Returns `true` if the
    /// packet was new, `false` for a duplicate.
    pub fn on_packet(&mut self, flow_seq: u32) -> bool {
        if flow_seq >= self.n {
            debug_assert!(false, "flow_seq {flow_seq} out of range {}", self.n);
            return false;
        }
        let cum = self.arrived.cum();
        if !self.arrived.insert(flow_seq) {
            self.dup += 1;
            return false;
        }
        self.got += 1;
        if flow_seq == cum {
            // Delivered in order, and with it every packet buffered up to
            // the new frontier.
            for s in cum + 1..self.arrived.cum() {
                self.buffered -= payload_of_packet(self.size, s);
            }
        } else {
            self.buffered += payload_of_packet(self.size, flow_seq);
            self.peak = self.peak.max(self.buffered);
        }
        true
    }

    /// The packets arrived so far.
    pub fn arrived(&self) -> &SeqFrontier {
        &self.arrived
    }

    /// True once every packet has arrived.
    pub fn complete(&self) -> bool {
        self.got == self.n
    }

    /// Packets received so far (unique).
    pub fn received_count(&self) -> u32 {
        self.got
    }

    /// Total packets expected.
    pub fn total(&self) -> u32 {
        self.n
    }

    /// Duplicate packets seen.
    pub fn duplicates(&self) -> u64 {
        self.dup
    }

    /// Peak out-of-order buffered bytes.
    pub fn reorder_peak(&self) -> Bytes {
        self.peak
    }
}

/// The DCTCP congestion window core: ECN-fraction estimation (`alpha`),
/// once-per-window multiplicative decrease, slow start, and additive
/// increase. Shared by the plain DCTCP endpoints and the FlexPass reactive
/// sub-flow.
#[derive(Clone, Debug)]
pub struct DctcpWindow {
    /// Congestion window in packets (fractional growth).
    cwnd: f64,
    ssthresh: f64,
    /// EWMA of the marked fraction.
    alpha: f64,
    g: f64,
    acked_in_window: u64,
    marked_in_window: u64,
    /// Next sequence that, once acked, ends the observation window.
    window_end: u32,
    /// Sequence that ends loss recovery (no further decrease until passed).
    recover_until: u32,
    min_cwnd: f64,
    max_cwnd: f64,
}

impl DctcpWindow {
    /// Creates a window with the given initial window and `g` gain.
    pub fn new(init_cwnd: f64, g: f64, max_cwnd: f64) -> Self {
        DctcpWindow {
            cwnd: init_cwnd,
            ssthresh: f64::INFINITY,
            alpha: 1.0,
            g,
            acked_in_window: 0,
            marked_in_window: 0,
            window_end: 0,
            recover_until: 0,
            min_cwnd: 1.0,
            max_cwnd,
        }
    }

    /// Current window in (fractional) packets.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Whole-packet window.
    pub fn cwnd_pkts(&self) -> u32 {
        self.cwnd.floor().max(1.0) as u32
    }

    /// Current ECN-fraction estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Processes an ACK covering `newly_acked` packets, where the highest
    /// acknowledged sequence is `acked_seq`, `ece` echoes a CE mark, and
    /// `snd_nxt` is the current send frontier (defines the next window).
    pub fn on_ack(&mut self, newly_acked: u64, acked_seq: u32, ece: bool, snd_nxt: u32) {
        self.acked_in_window += newly_acked;
        if ece {
            self.marked_in_window += newly_acked.max(1);
        }
        if acked_seq >= self.window_end && self.acked_in_window > 0 {
            // One observation window has passed: fold into alpha.
            let f = self.marked_in_window as f64 / self.acked_in_window as f64;
            self.alpha = (1.0 - self.g) * self.alpha + self.g * f;
            if self.marked_in_window > 0 && acked_seq >= self.recover_until {
                // DCTCP decrease: cwnd *= (1 - alpha/2), once per window.
                self.ssthresh = (self.cwnd * (1.0 - self.alpha / 2.0)).max(self.min_cwnd);
                self.cwnd = self.ssthresh;
                self.recover_until = snd_nxt;
            }
            self.acked_in_window = 0;
            self.marked_in_window = 0;
            self.window_end = snd_nxt;
        }
        // Growth: slow start doubles; congestion avoidance adds 1/cwnd.
        if !ece {
            if self.in_slow_start() {
                self.cwnd += newly_acked as f64;
            } else {
                self.cwnd += newly_acked as f64 / self.cwnd;
            }
            self.cwnd = self.cwnd.min(self.max_cwnd);
        }
    }

    /// Fast-retransmit loss reaction (triple duplicate ACK): halve, once per
    /// window.
    pub fn on_loss(&mut self, acked_seq: u32, snd_nxt: u32) {
        if acked_seq >= self.recover_until {
            self.ssthresh = (self.cwnd / 2.0).max(self.min_cwnd);
            self.cwnd = self.ssthresh;
            self.recover_until = snd_nxt;
        }
    }

    /// Retransmission-timeout reaction: collapse to one packet.
    pub fn on_timeout(&mut self, snd_nxt: u32) {
        self.ssthresh = (self.cwnd / 2.0).max(self.min_cwnd);
        self.cwnd = self.min_cwnd;
        self.recover_until = snd_nxt;
    }
}

/// A sorted set of sequence numbers (a [`Scoreboard`]'s `Lost` and
/// `SentReactive` sets).
///
/// These sets are small, churny and regularly drain to empty. A `BTreeSet`
/// frees its root node at that point and reallocates it on the next
/// insert, which shows up as steady-state datapath allocations; a sorted
/// `Vec` keeps its buffer.
#[derive(Clone, Debug, Default)]
struct SeqSet(Vec<u32>);

impl SeqSet {
    /// Inserts `x` (no-op if already present).
    fn insert(&mut self, x: u32) {
        if let Err(pos) = self.0.binary_search(&x) {
            self.0.insert(pos, x);
        }
    }

    /// Removes `x` (no-op if absent).
    fn remove(&mut self, x: u32) {
        if let Ok(pos) = self.0.binary_search(&x) {
            self.0.remove(pos);
        }
    }

    /// The lowest member.
    fn first(&self) -> Option<u32> {
        self.0.first().copied()
    }
}

/// A sender's per-packet scoreboard: which packets are pending, in flight,
/// lost or acknowledged, and which to transmit next. Every sender keeps
/// one; FlexPass's covers both of its sub-flows.
///
/// [`set`](Self::set) is the only write to a packet's state. It keeps the
/// derived state in step: the `Lost` set and the `SentReactive` set hold
/// exactly the packets in those states, `in_flight` counts the packets in
/// any sent state, and a [`SeqFrontier`] holds the [`PktState::Acked`]
/// ones, so an ACK's ranges are scanned only where they are news. `Acked`
/// is terminal: no packet leaves it. Single-loop senders use `Sent` and
/// read ACKs through [`read_ack`](Self::read_ack), which holds the
/// triple-duplicate-ACK rule.
#[derive(Clone, Debug)]
pub struct Scoreboard {
    states: Box<[PktState]>,
    snd_una: u32,
    next_pending: u32,
    acked: SeqFrontier,
    in_flight: u32,
    dupacks: u32,
    lost: SeqSet,
    sent_reactive: SeqSet,
}

impl Scoreboard {
    /// Creates a scoreboard of `n` pending packets.
    pub fn new(n: u32) -> Self {
        Scoreboard {
            states: vec![PktState::Pending; n as usize].into_boxed_slice(),
            snd_una: 0,
            next_pending: 0,
            acked: SeqFrontier::with_capacity(n),
            in_flight: 0,
            dupacks: 0,
            lost: SeqSet::default(),
            sent_reactive: SeqSet::default(),
        }
    }

    /// Number of packets in the flow.
    pub fn total(&self) -> u32 {
        self.states.len() as u32
    }

    /// The state of packet `seq`.
    pub fn state(&self, seq: u32) -> PktState {
        self.states[seq as usize]
    }

    /// Moves packet `seq` to state `to`, keeping the derived sets and
    /// counts in step. Every transition goes through here; none leaves
    /// `Acked`.
    pub fn set(&mut self, seq: u32, to: PktState) {
        let from = std::mem::replace(&mut self.states[seq as usize], to);
        debug_assert_ne!(from, PktState::Acked, "packet {seq} left Acked");
        match from {
            PktState::Lost => self.lost.remove(seq),
            PktState::SentReactive => self.sent_reactive.remove(seq),
            _ => {}
        }
        match to {
            PktState::Lost => self.lost.insert(seq),
            PktState::SentReactive => self.sent_reactive.insert(seq),
            PktState::Acked => _ = self.acked.insert(seq),
            _ => {}
        }
        self.in_flight = self.in_flight + u32::from(to.in_flight()) - u32::from(from.in_flight());
    }

    /// Lowest sequence not yet cumulatively acknowledged.
    pub fn snd_una(&self) -> u32 {
        self.snd_una
    }

    /// The send frontier: no packet below it is pending.
    pub fn next_pending(&self) -> u32 {
        self.next_pending
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// True once every packet is acknowledged.
    pub fn all_acked(&self) -> bool {
        self.acked.cum() >= self.total()
    }

    /// The lowest packet in state `Lost`.
    pub fn first_lost(&self) -> Option<u32> {
        self.lost.first()
    }

    /// The lowest packet in state `SentReactive`.
    pub fn first_sent_reactive(&self) -> Option<u32> {
        self.sent_reactive.first()
    }

    /// The lowest never-sent packet, advancing the send frontier to it;
    /// the packet stays `Pending`.
    pub fn next_new(&mut self) -> Option<u32> {
        let n = self.total();
        while self.next_pending < n && self.state(self.next_pending) != PktState::Pending {
            self.next_pending += 1;
        }
        (self.next_pending < n).then_some(self.next_pending)
    }

    /// Applies a cumulative + selective acknowledgment and returns how many
    /// packets it newly acknowledged. `on_newly` sees each of them once:
    /// the cumulative range first, then each SACK block, ascending.
    pub fn apply_ack(&mut self, ack: &AckInfo, mut on_newly: impl FnMut(u32)) -> u64 {
        let (n, mut newly) = (self.total(), 0);
        for (lo, hi) in ack.ranges(self.snd_una) {
            let mut s = self.acked.next(lo, hi.min(n), false);
            while s < hi.min(n) {
                self.set(s, PktState::Acked);
                on_newly(s);
                newly += 1;
                s = self.acked.next(s + 1, hi.min(n), false);
            }
        }
        self.snd_una = self.snd_una.max(ack.cum.min(n));
        newly
    }

    /// [`apply_ack`](Self::apply_ack) under the triple-duplicate-ACK rule:
    /// the third ACK in a row that acknowledges nothing new and repeats the
    /// cumulative point below the flow's end marks `snd_una` lost, and the
    /// count restarts. Returns the packets newly acknowledged and, on that
    /// third duplicate, `Some` of whether `snd_una` was in flight.
    pub fn read_ack(&mut self, ack: &AckInfo) -> (u64, Option<bool>) {
        let prev_una = self.snd_una;
        let newly = self.apply_ack(ack, |_| {});
        if newly > 0 {
            self.dupacks = 0;
        } else if ack.cum == prev_una && ack.cum < self.total() {
            self.dupacks += 1;
            if self.dupacks == 3 {
                self.dupacks = 0;
                return (0, Some(self.mark_lost(self.snd_una)));
            }
        }
        (newly, None)
    }

    /// Chooses the next packet to transmit — the lowest lost packet first,
    /// then the next never-sent one — and marks it sent. Returns the
    /// sequence and whether it is a retransmission.
    pub fn pick(&mut self) -> Option<(u32, bool)> {
        self.pick_below(self.total())
    }

    /// [`pick`](Self::pick), with new data limited to sequences below
    /// `limit` (a grant); retransmissions are not limited.
    pub fn pick_below(&mut self, limit: u32) -> Option<(u32, bool)> {
        let (seq, retx) = match self.first_lost() {
            Some(seq) => (seq, true),
            None => {
                let seq = self.next_new().filter(|&s| s < limit)?;
                self.next_pending = seq + 1;
                (seq, false)
            }
        };
        self.set(seq, PktState::Sent);
        Some((seq, retx))
    }

    /// Marks `seq` lost if it is in flight, so the next
    /// [`pick`](Self::pick) retransmits it ahead of new data. Returns
    /// whether it was.
    pub fn mark_lost(&mut self, seq: u32) -> bool {
        if !self.state(seq).in_flight() {
            return false;
        }
        self.set(seq, PktState::Lost);
        true
    }

    /// Timeout reaction: presumes every in-flight packet below the send
    /// frontier lost. Returns whether any was in flight.
    pub fn lose_outstanding(&mut self) -> bool {
        let mut any = false;
        for s in self.snd_una..self.next_pending.min(self.total()) {
            any |= self.mark_lost(s);
        }
        any
    }
}

/// Builds data packet `seq` of a single-loop flow (riding slot `sub_seq`
/// of the only sub-flow), accounts for it in `stats`, and traces a
/// retransmission.
pub fn data_packet(
    spec: &FlowSpec,
    class: TrafficClass,
    seq: u32,
    sub_seq: u32,
    retx: bool,
    stats: &mut TxStats,
) -> Packet {
    let pkt = Packet::data(spec, class, seq, Subflow::Only, sub_seq, retx);
    stats.count_data(pkt.payload_bytes(), retx);
    if retx {
        hooks::record(|t_ns| TraceEvent::Retransmit {
            t_ns,
            flow: spec.id,
            seq: i64::from(seq),
        });
    }
    pkt
}

/// A sender's retransmission timer: one cancellable calendar entry kept at
/// `last progress + rto`, where `rto` is the caller's base RTO doubled per
/// consecutive timeout (capped at 2^8).
///
/// Arming is cancel-and-replace, so the timer fires only at a genuine
/// timeout and a finished flow leaves nothing in the calendar. The deadline
/// is a monotone maximum — a fresh arm starts at `now + rto`, a re-arm
/// never moves an armed deadline earlier — so progress that shrinks the
/// RTO (backoff reset, lower RTT estimate) cannot pull in a timeout the
/// flow was already promised, and every re-arm keeps the timer's one
/// calendar entry (see `TimerCmd::Arm`).
#[derive(Clone, Copy, Debug)]
pub struct RtoTimer {
    token: u64,
    deadline: Option<Time>,
    backoff: u32,
    last_progress: Time,
}

impl RtoTimer {
    /// Creates an unarmed timer that fires with timer kind `kind` of `flow`.
    pub fn new(flow: FlowId, kind: u16) -> Self {
        RtoTimer {
            token: timer_token(flow, kind),
            deadline: None,
            backoff: 0,
            last_progress: Time::ZERO,
        }
    }

    /// Records forward progress at `now` (flow start, newly acknowledged
    /// data) and clears the backoff.
    pub fn progress(&mut self, now: Time) {
        self.last_progress = now;
        self.backoff = 0;
    }

    /// Keeps the timer armed at its deadline while `live`; cancels it
    /// otherwise. Issues a calendar command only when the armed state
    /// changes. Only DCTCP samples RTTs, so only it passes an estimate as
    /// `base_rto`; the other senders pass [`MIN_RTO`].
    pub fn update(&mut self, ctx: &mut EndpointCtx, live: bool, base_rto: TimeDelta) {
        if !live {
            if self.deadline.take().is_some() {
                ctx.cancel_timer(self.token);
            }
            return;
        }
        let rto = base_rto * (1u64 << self.backoff.min(8));
        let at = match self.deadline {
            Some(d) => (self.last_progress + rto).max(d),
            None => ctx.now + rto,
        };
        if self.deadline != Some(at) {
            self.deadline = Some(at);
            ctx.arm_timer(at, self.token);
        }
    }

    /// The timer fired: its calendar entry is gone.
    pub fn fired(&mut self) {
        self.deadline = None;
    }

    /// A genuine timeout at `now`: doubles the next RTO, restarts the
    /// progress clock, and traces the fire with the backoff exponent now in
    /// effect.
    pub fn back_off(&mut self, now: Time) {
        self.backoff += 1;
        self.last_progress = now;
        let (flow, backoff) = (timer_flow(self.token), self.backoff);
        hooks::record(|t_ns| TraceEvent::Rto {
            t_ns,
            flow,
            backoff,
        });
    }
}

/// The tail every receiver shares: reassembly, the one `FlowCompleted`
/// report, and a [`LINGER`] period (to keep re-ACKing stray
/// retransmissions) before teardown. A single-loop receiver reassembles
/// and acknowledges through [`on_data`](Self::on_data), which builds each
/// ACK from the reassembly's own arrival set.
#[derive(Clone, Debug)]
pub struct RxTail {
    spec: FlowSpec,
    reasm: Reassembly,
    linger_token: u64,
    completed: bool,
    torn_down: bool,
}

impl RxTail {
    /// Creates the tail for `spec`; the linger timer uses kind
    /// `linger_kind`.
    pub fn new(spec: &FlowSpec, linger_kind: u16) -> Self {
        RxTail {
            spec: *spec,
            reasm: Reassembly::new(spec.size, packets_for(spec.size)),
            linger_token: timer_token(spec.id, linger_kind),
            completed: false,
            torn_down: false,
        }
    }

    /// The flow this tail receives.
    pub fn spec(&self) -> &FlowSpec {
        &self.spec
    }

    /// The reassembly state.
    pub fn reasm(&self) -> &Reassembly {
        &self.reasm
    }

    /// Records arrival of per-flow packet `flow_seq` (duplicates are
    /// counted and otherwise ignored).
    pub fn reassemble(&mut self, flow_seq: u32) {
        self.reasm.on_packet(flow_seq);
    }

    /// Reassembles data packet `pkt` (header `d`) and acknowledges it over
    /// the per-flow sequence, echoing its CE mark, in traffic class
    /// `class`.
    pub fn on_data(
        &mut self,
        pkt: &Packet,
        d: DataInfo,
        class: TrafficClass,
        ctx: &mut EndpointCtx,
    ) {
        self.reassemble(d.flow_seq);
        let info = self
            .reasm
            .arrived
            .ack(Subflow::Only, pkt.ecn_ce, d.flow_seq, d.flow_seq);
        ctx.send(Packet::to_sender(&self.spec, class, Payload::Ack(info)));
    }

    /// True once completion has been reported.
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// True when every packet has arrived and completion is not yet
    /// reported, i.e. [`finish_if_complete`](Self::finish_if_complete) is
    /// about to report it.
    pub fn completing(&self) -> bool {
        self.reasm.complete() && !self.completed
    }

    /// Reports `FlowCompleted` and arms the linger timer, the first time
    /// the flow is complete.
    pub fn finish_if_complete(&mut self, ctx: &mut EndpointCtx) {
        if !self.completing() {
            return;
        }
        self.completed = true;
        ctx.emit(AppEvent::FlowCompleted {
            flow: self.spec.id,
            stats: RxStats {
                pkts_received: self.reasm.received_count() as u64 + self.reasm.duplicates(),
                dup_pkts: self.reasm.duplicates(),
                reorder_peak_bytes: self.reasm.reorder_peak().get(),
            },
        });
        ctx.set_timer(ctx.now + LINGER, self.linger_token);
    }

    /// Timer dispatch: the linger timer tears the receiver down.
    pub fn on_timer(&mut self, token: u64) {
        if token == self.linger_token {
            self.torn_down = true;
        }
    }

    /// True once the linger period has passed; the host may drop the
    /// endpoint.
    pub fn torn_down(&self) -> bool {
        self.torn_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simcore::rng::SimRng;
    use flexpass_simnet::endpoint::TimerCmd;
    use flexpass_simnet::loopback::Driver;
    use proptest::prelude::*;

    #[test]
    fn rtt_estimator_basic() {
        let mut e = RttEstimator::new(TimeDelta::millis(4));
        assert_eq!(e.rto(), TimeDelta::millis(4));
        e.sample(TimeDelta::micros(100));
        assert_eq!(e.srtt(), Some(TimeDelta::micros(100)));
        // RTO dominated by the 4 ms floor for microsecond RTTs.
        assert_eq!(e.rto(), TimeDelta::millis(4));
        let mut e = RttEstimator::new(TimeDelta::micros(1));
        e.sample(TimeDelta::micros(100));
        // srtt 100, rttvar 50 -> rto = 300 us.
        assert_eq!(e.rto(), TimeDelta::micros(300));
        for _ in 0..100 {
            e.sample(TimeDelta::micros(100));
        }
        // Variance decays towards zero; RTO approaches srtt.
        assert!(e.rto() < TimeDelta::micros(110));
    }

    #[test]
    fn reassembly_in_order() {
        let mut r = Reassembly::new(Bytes::new(4 * 1460), PktCount::new(4));
        for i in 0..4 {
            assert!(r.on_packet(i));
        }
        assert!(r.complete());
        assert_eq!(r.reorder_peak(), Bytes::ZERO);
        assert_eq!(r.duplicates(), 0);
    }

    #[test]
    fn reassembly_out_of_order_tracks_peak() {
        let mut r = Reassembly::new(Bytes::new(4 * 1460), PktCount::new(4));
        r.on_packet(2);
        r.on_packet(3);
        assert_eq!(r.reorder_peak(), Bytes::new(2 * 1460));
        r.on_packet(0);
        r.on_packet(1);
        assert!(r.complete());
        // Peak stays at the maximum reached.
        assert_eq!(r.reorder_peak(), Bytes::new(2 * 1460));
    }

    #[test]
    fn reassembly_duplicates_counted() {
        let mut r = Reassembly::new(Bytes::new(2 * 1460), PktCount::new(2));
        assert!(r.on_packet(0));
        assert!(!r.on_packet(0));
        assert_eq!(r.duplicates(), 1);
        assert!(!r.complete());
    }

    #[test]
    fn frontier_ack_cum_and_sack() {
        let mut a = SeqFrontier::with_capacity(16);
        for s in [0, 1, 3, 4, 7] {
            assert!(a.insert(s));
        }
        assert!(!a.insert(3), "a repeat is not new");
        let ack = a.ack(Subflow::Only, false, 7, 7);
        assert_eq!(ack.cum, 2);
        assert_eq!(ack.sack_n, 2);
        // Block 1 holds the most recent arrival's range (RFC 2018).
        assert_eq!(ack.sack[0], (7, 8));
        assert_eq!(ack.sack[1], (3, 5));
        assert!(a.insert(2));
        let ack = a.ack(Subflow::Only, true, 2, 2);
        assert_eq!(ack.cum, 5);
        assert!(ack.ece);
        assert!(a.contains(7) && !a.contains(5) && !a.contains(99));
    }

    #[test]
    fn frontier_ack_caps_sack_ranges() {
        let mut a = SeqFrontier::with_capacity(32);
        // Alternate received/missing to create many ranges.
        for i in (1..20).step_by(2) {
            a.insert(i);
        }
        let ack = a.ack(Subflow::Only, false, 19, 19);
        assert_eq!(ack.cum, 0);
        assert_eq!(ack.sack_n as usize, MAX_SACK);
        // The newest arrival is always reported first.
        assert_eq!(ack.sack[0], (19, 20));
    }

    /// `SeqFrontier` as it was before the word bitset: a `Vec<bool>` with
    /// `insert`, `contains`, `cum` and `ack` kept verbatim, the reference
    /// `frontier_matches_bool_reference` drives.
    #[derive(Default)]
    struct RefFrontier {
        bits: Vec<bool>,
        cum: u32,
    }

    impl RefFrontier {
        fn insert(&mut self, seq: u32) -> bool {
            let i = seq as usize;
            if i >= self.bits.len() {
                self.bits.resize(i + 1, false);
            }
            if std::mem::replace(&mut self.bits[i], true) {
                return false;
            }
            while self.contains(self.cum) {
                self.cum += 1;
            }
            true
        }

        fn contains(&self, seq: u32) -> bool {
            self.bits.get(seq as usize).is_some_and(|&b| b)
        }

        fn cum(&self) -> u32 {
            self.cum
        }

        fn ack(&self, sub: Subflow, ece: bool, acked_flow_seq: u32, recent: u32) -> AckInfo {
            const SACK_SCAN_WINDOW: usize = 512;
            let mut sack = [(0u32, 0u32); MAX_SACK];
            let mut sack_n = 0usize;

            // Block 1: the range around `recent`, when it sits above cum.
            if recent >= self.cum && (recent as usize) < self.bits.len() {
                debug_assert!(self.bits[recent as usize]);
                let mut lo = recent as usize;
                let floor = (recent as usize).saturating_sub(SACK_SCAN_WINDOW);
                while lo > floor && lo > self.cum as usize && self.bits[lo - 1] {
                    lo -= 1;
                }
                let mut hi = recent as usize + 1;
                let ceil = (recent as usize + SACK_SCAN_WINDOW).min(self.bits.len());
                while hi < ceil && self.bits[hi] {
                    hi += 1;
                }
                sack[0] = (lo as u32, hi as u32);
                sack_n = 1;
            }

            // Remaining blocks: lowest ranges above cum, skipping block 1.
            let mut i = self.cum as usize;
            let end = self.bits.len().min(self.cum as usize + SACK_SCAN_WINDOW);
            while i < end && sack_n < MAX_SACK {
                if self.bits[i] {
                    let lo = i as u32;
                    while i < end && self.bits[i] {
                        i += 1;
                    }
                    let range = (lo, i as u32);
                    if sack_n == 0 || range != sack[0] {
                        sack[sack_n] = range;
                        sack_n += 1;
                    }
                } else {
                    i += 1;
                }
            }
            AckInfo {
                sub,
                cum: self.cum,
                sack,
                sack_n: sack_n as u8,
                ece,
                acked_flow_seq,
            }
        }
    }

    /// The sequences one step of `frontier_matches_bool_reference` inserts,
    /// the last one being the ACK's `recent`: a run (often longer than the
    /// 512-slot scan window, so block 1 is cut at its floor or ceiling), a
    /// run with one hole at bit 63, 64 or 65 of a word, the frontier itself,
    /// the frontier + 512, a repeat below the frontier, or one random
    /// sequence.
    fn frontier_inserts(rng: &mut SimRng, cum: u32, out: &mut Vec<u32>) {
        out.clear();
        let at = cum + rng.next_below(700) as u32;
        match rng.next_below(6) {
            0 => out.extend(at..at + 1 + rng.next_below(700) as u32),
            1 => {
                let word = 64 * (at / 64);
                let hole = word + 63 + rng.next_below(3) as u32;
                out.extend((word..word + 200).filter(|&s| s != hole));
            }
            2 => out.push(cum),
            3 => out.push(cum + 512),
            4 if cum > 0 => out.push(rng.next_below(u64::from(cum)) as u32),
            _ => out.push(at),
        }
        if rng.chance(0.5) {
            out.reverse();
        }
    }

    #[test]
    fn dctcp_window_slow_start_then_reduce() {
        let mut w = DctcpWindow::new(10.0, 1.0 / 16.0, 1000.0);
        assert!(w.in_slow_start());
        w.on_ack(10, 9, false, 20);
        assert!((w.cwnd() - 20.0).abs() < 1e-9);
        // A fully marked window eventually collapses the window.
        let before = w.cwnd();
        let mut seq = 20;
        for _ in 0..50 {
            w.on_ack(10, seq, true, seq + 10);
            seq += 10;
        }
        assert!(w.cwnd() < before, "cwnd {} not reduced", w.cwnd());
        assert!(w.alpha() > 0.9);
    }

    #[test]
    fn dctcp_window_alpha_decays_without_marks() {
        let mut w = DctcpWindow::new(10.0, 1.0 / 16.0, 1000.0);
        let mut seq = 0;
        for _ in 0..100 {
            w.on_ack(10, seq, false, seq + 10);
            seq += 10;
        }
        assert!(w.alpha() < 0.01, "alpha {}", w.alpha());
    }

    #[test]
    fn dctcp_window_reduces_once_per_window() {
        let mut w = DctcpWindow::new(100.0, 1.0 / 16.0, 1000.0);
        // Exit slow start first via a loss.
        w.on_loss(0, 100);
        let after_loss = w.cwnd();
        assert!((after_loss - 50.0).abs() < 1e-9);
        // A second loss within the same window must not reduce again
        // (bitwise-unchanged, so exact equality is the right check).
        #[allow(clippy::float_cmp)]
        {
            w.on_loss(50, 120);
            assert_eq!(w.cwnd(), after_loss);
        }
        // After recovery passes, a new loss reduces again.
        w.on_loss(120, 150);
        assert!((w.cwnd() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn dctcp_timeout_collapses() {
        let mut w = DctcpWindow::new(64.0, 1.0 / 16.0, 1000.0);
        w.on_timeout(64);
        assert_eq!(w.cwnd_pkts(), 1);
    }

    #[test]
    fn pkt_state_in_flight() {
        assert!(PktState::Sent.in_flight());
        assert!(PktState::SentReactive.in_flight());
        assert!(!PktState::Lost.in_flight());
        assert!(!PktState::Acked.in_flight());
        assert!(!PktState::Pending.in_flight());
    }

    /// A random ACK over a flow sent up to `frontier`: cumulative point
    /// `cum` when given, else random. Ranges may overlap, be empty, or run
    /// past the flow.
    fn random_ack(rng: &mut SimRng, frontier: u32, cum: Option<u32>) -> AckInfo {
        let mut ack = AckInfo {
            sub: Subflow::Only,
            cum: cum.unwrap_or_else(|| rng.next_below(u64::from(frontier) + 2) as u32),
            sack: [(0, 0); MAX_SACK],
            sack_n: rng.next_below(MAX_SACK as u64 + 1) as u8,
            ece: false,
            acked_flow_seq: 0,
        };
        for r in 0..ack.sack_n as usize {
            let lo = rng.next_below(u64::from(frontier) + 1) as u32;
            ack.sack[r] = (lo, lo + rng.next_below(6) as u32);
        }
        ack
    }

    /// The model's reading of `ack`: every covered packet not yet acked
    /// becomes `Acked`, in the order the scoreboard reports them.
    fn model_ack(st: &mut [PktState], una: &mut u32, ack: &AckInfo) -> Vec<u32> {
        let n = st.len() as u32;
        let mut covered: Vec<u32> = (0..ack.cum.min(n)).collect();
        for &(lo, hi) in &ack.sack[..ack.sack_n as usize] {
            covered.extend(lo..hi.min(n));
        }
        let mut newly = Vec::new();
        for s in covered {
            if st[s as usize] != PktState::Acked {
                st[s as usize] = PktState::Acked;
                newly.push(s);
            }
        }
        *una = (*una).max(ack.cum.min(n));
        newly
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random progress / update / fire / back-off tapes the armed
        /// deadline never moves earlier, a command is issued only when the
        /// armed state changes, and a dead flow cancels exactly once.
        #[test]
        fn rto_timer_monotone_and_cancels_once(seed in 0u64..100_000) {
            let mut rng = SimRng::new(seed);
            let mut t = RtoTimer::new(9, 1);
            let token = timer_token(9, 1);
            let mut now = Time::ZERO;
            let mut armed: Option<Time> = None;
            let mut drv = Driver::default();
            for _ in 0..300 {
                now += TimeDelta::micros(rng.next_below(3_000));
                if let Some(d) = armed.filter(|&d| d <= now) {
                    // The calendar would have fired it on the way.
                    now = d;
                    armed = None;
                    t.fired();
                    if rng.chance(0.5) {
                        t.back_off(now);
                    }
                }
                match rng.next_below(10) {
                    0 => t.progress(now),
                    op => {
                        let live = op != 1;
                        let base = TimeDelta::micros(100 + rng.next_below(4_000));
                        drv.clear();
                        drv.call(now, |ctx| t.update(ctx, live, base));
                        let cmds = &drv.out.timers;
                        match (live, armed) {
                            (false, Some(_)) => {
                                prop_assert_eq!(cmds, &[TimerCmd::Cancel(token)]);
                                armed = None;
                            }
                            (false, None) => prop_assert!(cmds.is_empty()),
                            (true, before) => {
                                prop_assert!(cmds.len() <= 1);
                                if let Some(&TimerCmd::Arm(at, tok)) = cmds.first() {
                                    prop_assert_eq!(tok, token);
                                    prop_assert!(at >= now);
                                    prop_assert!(before.is_none_or(|d| at > d), "moved earlier");
                                    armed = Some(at);
                                } else {
                                    prop_assert!(cmds.is_empty() && before.is_some());
                                }
                            }
                        }
                    }
                }
            }
        }

        /// The word-bitset `SeqFrontier` against its `Vec<bool>` reference
        /// over random inserts: equal `insert` results, `cum`, `contains`
        /// and `ack` after every insert (with `recent` the inserted
        /// sequence, at, above or below the frontier), and `next` in both
        /// polarities and `last_absent` equal to a linear scan.
        #[test]
        fn frontier_matches_bool_reference(seed in 0u64..100_000) {
            let mut rng = SimRng::new(seed);
            let (mut a, mut r) = (SeqFrontier::default(), RefFrontier::default());
            let mut seqs = Vec::new();
            for step in 0..40u32 {
                frontier_inserts(&mut rng, r.cum(), &mut seqs);
                for &s in &seqs {
                    prop_assert_eq!(a.insert(s), r.insert(s));
                    prop_assert_eq!(a.cum(), r.cum());
                    prop_assert_eq!(a.ack(Subflow::Only, false, step, s), r.ack(Subflow::Only, false, step, s));
                }
                let top = r.bits.len() as u32 + 70;
                for s in 0..top {
                    prop_assert_eq!(a.contains(s), r.contains(s));
                }
                for _ in 0..20 {
                    let from = rng.next_below(u64::from(top)) as u32;
                    let to = from + rng.next_below(600) as u32;
                    for member in [false, true] {
                        let want = (from..to).find(|&s| r.contains(s) == member).unwrap_or(to);
                        prop_assert_eq!(a.next(from, to, member), want);
                    }
                    let gap = (from..to).rev().find(|&s| !r.contains(s));
                    prop_assert_eq!(a.last_absent(from, to), gap);
                }
                let from = rng.next_below(u64::from(top)) as u32;
                let gap = (from..).find(|&s| !r.contains(s));
                prop_assert_eq!(Some(a.next(from, u32::MAX, false)), gap);
            }
        }

        /// `Scoreboard` against a naive per-packet model (one state per
        /// packet, derived sets and counts recomputed by scanning) over
        /// random pick / next-new / set / cum+SACK / duplicate-ACK / loss
        /// tapes.
        #[test]
        fn scoreboard_matches_naive_model(seed in 0u64..100_000, n in 1u32..120) {
            use PktState::*;
            let mut rng = SimRng::new(seed);
            let mut sb = Scoreboard::new(n);
            let mut st = vec![Pending; n as usize];
            let (mut una, mut frontier, mut dups) = (0u32, 0u32, 0u32);
            // The lazy never-sent frontier: it skips packets that are no
            // longer pending only when asked for one.
            let advance = |st: &[PktState], frontier: &mut u32| {
                while *frontier < n && st[*frontier as usize] != Pending {
                    *frontier += 1;
                }
            };
            for _ in 0..400 {
                match rng.next_below(12) {
                    0..=3 => {
                        let limit = match rng.chance(0.5) {
                            true => n,
                            false => rng.next_below(u64::from(n) + 1) as u32,
                        };
                        let first_lost = st.iter().position(|&x| x == Lost);
                        if first_lost.is_none() {
                            advance(&st, &mut frontier);
                        }
                        let want = match first_lost {
                            Some(s) => Some((s as u32, true)),
                            None if frontier < limit => Some((frontier, false)),
                            None => None,
                        };
                        prop_assert_eq!(sb.pick_below(limit), want);
                        if let Some((s, retx)) = want {
                            st[s as usize] = Sent;
                            if !retx {
                                frontier += 1;
                            }
                        }
                    }
                    4..=5 => {
                        let ack = random_ack(&mut rng, frontier, None);
                        let want_new = model_ack(&mut st, &mut una, &ack);
                        let mut got_new = Vec::new();
                        let newly = sb.apply_ack(&ack, |s| got_new.push(s));
                        prop_assert_eq!(newly, want_new.len() as u64);
                        prop_assert_eq!(got_new, want_new);
                    }
                    6..=7 => {
                        // Mostly duplicates of the cumulative point, some
                        // carrying SACK news.
                        let dup = rng.chance(0.8).then_some(una);
                        let ack = random_ack(&mut rng, frontier, dup);
                        let prev_una = una;
                        let newly = model_ack(&mut st, &mut una, &ack).len() as u64;
                        let mut want = (newly, None);
                        if newly > 0 {
                            dups = 0;
                        } else if ack.cum == prev_una && ack.cum < n {
                            dups += 1;
                            if dups == 3 {
                                dups = 0;
                                let marked = st[una as usize].in_flight();
                                if marked {
                                    st[una as usize] = Lost;
                                }
                                want = (0, Some(marked));
                            }
                        }
                        prop_assert_eq!(sb.read_ack(&ack), want);
                    }
                    8 => {
                        let s = rng.next_below(u64::from(n)) as u32;
                        if matches!(st[s as usize], Pending | Lost) {
                            let to = if rng.chance(0.5) { SentReactive } else { SentProactive };
                            sb.set(s, to);
                            st[s as usize] = to;
                        }
                    }
                    9 => {
                        advance(&st, &mut frontier);
                        prop_assert_eq!(sb.next_new(), (frontier < n).then_some(frontier));
                    }
                    10 => {
                        let s = rng.next_below(u64::from(n)) as u32;
                        let was = st[s as usize].in_flight();
                        prop_assert_eq!(sb.mark_lost(s), was);
                        if was {
                            st[s as usize] = Lost;
                        }
                    }
                    _ => {
                        let mut any = false;
                        // Only below the send frontier (`set` may have sent
                        // packets above it).
                        for s in una..frontier {
                            if st[s as usize].in_flight() {
                                st[s as usize] = Lost;
                                any = true;
                            }
                        }
                        prop_assert_eq!(sb.lose_outstanding(), any);
                    }
                }
                let first = |want: PktState| st.iter().position(|&x| x == want).map(|s| s as u32);
                prop_assert_eq!(sb.snd_una(), una);
                prop_assert_eq!(sb.next_pending(), frontier);
                prop_assert_eq!(sb.in_flight() as usize, st.iter().filter(|x| x.in_flight()).count());
                prop_assert_eq!(sb.first_lost(), first(Lost));
                prop_assert_eq!(sb.first_sent_reactive(), first(SentReactive));
                prop_assert_eq!(sb.all_acked(), st.iter().all(|&x| x == Acked));
                for s in 0..n {
                    prop_assert_eq!(sb.state(s), st[s as usize]);
                }
            }
        }
    }
}
