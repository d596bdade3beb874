//! FlexPass protocol configuration.

use flexpass_simnet::packet::TrafficClass;
use flexpass_transport::expresspass::EpConfig;

/// How the proactive sub-flow's credits are allocated (§4.3
/// "Extensibility of FlexPass": the credit allocation algorithm is
/// pluggable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CreditPolicy {
    /// ExpressPass feedback control: probe for the highest credit rate
    /// whose loss at the shaped credit queues stays under a target
    /// (the paper's default — works in oversubscribed cores).
    EpFeedback,
    /// pHost-style fixed-rate tokens: pace credits at the guaranteed rate
    /// without a feedback loop. Suits non-blocking fabrics where the only
    /// contention is at the edge; simpler but wasteful in the core.
    FixedRate,
}

/// How the reactive sub-flow allocates packets from the shared send buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitPolicy {
    /// FlexPass: both sub-flows pull the lowest pending packet at
    /// transmission time (MPTCP-style shared buffer, §4.2).
    Shared,
    /// RC3-style: the reactive ("recursive low priority") loop transmits
    /// from the *end* of the flow while the proactive loop transmits from
    /// the beginning (§4.3 "Alternative flow splitting schemes").
    Rc3Tail,
}

/// The FlexPass knobs the evaluation turns: `w_q` and the design
/// ablations. The rest are constants of the transports FlexPass composes
/// (`flexpass_transport::dctcp`, `::expresspass`, `::common`).
#[derive(Clone, Copy, Debug)]
pub struct FlexPassConfig {
    /// Queue weight `w_q` reserved for FlexPass (Q1); also scales the credit
    /// allocation rate (§4.1).
    pub wq: f64,
    /// Enable "proactive retransmission" of unacked reactive packets
    /// (§4.2 optimizing for tail latency). Disable for ablations.
    pub proactive_retx: bool,
    /// Let the reactive sub-flow transmit during the first RTT, before any
    /// credit arrives (Aeolus-style pre-credit transmission).
    pub reactive_first_rtt: bool,
    /// Traffic class of reactive data. `NewData` shares Q1 with proactive
    /// data (FlexPass); `Legacy` sends it to Q2 (the rejected "alternative
    /// queueing scheme" of Figure 5b).
    pub reactive_class: TrafficClass,
    /// Packet allocation policy for the reactive sub-flow.
    pub split: SplitPolicy,
    /// Credit allocation algorithm for the proactive sub-flow.
    pub credit_policy: CreditPolicy,
}

impl FlexPassConfig {
    /// The paper's configuration for a given queue weight `w_q`.
    pub fn new(wq: f64) -> Self {
        assert!(wq > 0.0 && wq < 1.0, "w_q must be in (0, 1)");
        FlexPassConfig {
            wq,
            proactive_retx: true,
            reactive_first_rtt: true,
            reactive_class: TrafficClass::NewData,
            split: SplitPolicy::Shared,
            credit_policy: CreditPolicy::EpFeedback,
        }
    }

    /// The proactive sub-flow's credit loop: credits are allocated against
    /// the guaranteed bandwidth `w_q` only (§4.1), and a fixed-rate loop
    /// paces at that rate from the start.
    pub fn credit_loop(&self) -> EpConfig {
        let init_rate_frac = match self.credit_policy {
            CreditPolicy::EpFeedback => EpConfig::default().init_rate_frac,
            CreditPolicy::FixedRate => 1.0,
        };
        EpConfig {
            max_rate_frac: self.wq,
            init_rate_frac,
        }
    }

    /// The Figure 5(a) comparison variant: RC3-style tail allocation.
    pub fn rc3_splitting(wq: f64) -> Self {
        FlexPassConfig {
            split: SplitPolicy::Rc3Tail,
            ..Self::new(wq)
        }
    }

    /// The Figure 5(b) comparison variant: reactive sub-flow in the legacy
    /// queue (Q2) instead of sharing Q1.
    pub fn alternative_queueing(wq: f64) -> Self {
        FlexPassConfig {
            reactive_class: TrafficClass::Legacy,
            ..Self::new(wq)
        }
    }
}

#[cfg(test)]
// Test expectations compare floats that are exact by construction.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = FlexPassConfig::new(0.5);
        assert_eq!(c.wq, 0.5);
        assert!(c.proactive_retx);
        assert!(c.reactive_first_rtt);
        assert_eq!(c.split, SplitPolicy::Shared);
        assert_eq!(c.reactive_class, TrafficClass::NewData);
    }

    #[test]
    fn credit_loop_caps_at_wq_and_fixed_rate_starts_there() {
        for i in 1..100 {
            let wq = f64::from(i) / 100.0;
            let feedback = FlexPassConfig::new(wq).credit_loop();
            assert_eq!(feedback.max_rate_frac, wq);
            assert_eq!(feedback.init_rate_frac, EpConfig::default().init_rate_frac);
            let fixed = FlexPassConfig {
                credit_policy: CreditPolicy::FixedRate,
                ..FlexPassConfig::new(wq)
            }
            .credit_loop();
            assert_eq!(fixed.max_rate_frac, wq);
            assert_eq!(fixed.init_rate_frac, 1.0);
        }
    }

    #[test]
    fn credit_policy_default_is_feedback() {
        assert_eq!(
            FlexPassConfig::new(0.5).credit_policy,
            CreditPolicy::EpFeedback
        );
    }

    #[test]
    fn variants() {
        assert_eq!(
            FlexPassConfig::rc3_splitting(0.5).split,
            SplitPolicy::Rc3Tail
        );
        assert_eq!(
            FlexPassConfig::alternative_queueing(0.5).reactive_class,
            TrafficClass::Legacy
        );
    }

    #[test]
    #[should_panic(expected = "w_q must be in")]
    fn rejects_bad_wq() {
        FlexPassConfig::new(1.0);
    }
}
