//! Switch and NIC queue configurations for every deployment scheme.
//!
//! The paper configures NICs identically to edge switches (§5 footnote 6),
//! so these profiles are used for both; hosts simply ignore the shared
//! buffer settings.

use flexpass_simcore::time::Rate;
use flexpass_simcore::units::WireBytes;
use flexpass_simnet::consts::{CREDIT_RATE_FULL_FRACTION, CTRL_WIRE};
use flexpass_simnet::port::{PortConfig, QueueSched};
use flexpass_simnet::queue::QueueConfig;
use flexpass_simnet::switch::{ClassMap, SwitchProfile};

/// Parameters shared by all profiles.
#[derive(Clone, Copy, Debug)]
pub struct ProfileParams {
    /// Link rate.
    pub rate: Rate,
    /// Queue weight for the new transport (Q1); legacy gets `1 - wq`.
    pub wq: f64,
    /// ECN step-marking threshold on the FlexPass queue (Q1).
    pub fp_ecn: WireBytes,
    /// Selective-drop threshold for red (reactive) bytes on Q1.
    pub fp_red: WireBytes,
    /// ECN threshold on the legacy queue (Q2).
    pub legacy_ecn: WireBytes,
    /// Switch shared buffer and dynamic threshold alpha.
    pub shared_buffer: (WireBytes, f64),
}

/// Static credit-queue buffer (paper: < 1 kB).
const CREDIT_CAP: WireBytes = WireBytes::new(1_000);

impl ProfileParams {
    /// §6.2 large-scale simulation settings (40 Gbps fabric).
    pub fn simulation(rate: Rate) -> Self {
        ProfileParams {
            rate,
            wq: 0.5,
            fp_ecn: WireBytes::new(65_000),
            fp_red: WireBytes::new(150_000),
            legacy_ecn: WireBytes::new(100_000),
            shared_buffer: (WireBytes::new(4_500_000), 0.25),
        }
    }

    /// §6.1 testbed settings (10 Gbps): ECN 60 kB, selective drop 100 kB.
    pub fn testbed(rate: Rate) -> Self {
        ProfileParams {
            rate,
            wq: 0.5,
            fp_ecn: WireBytes::new(60_000),
            fp_red: WireBytes::new(100_000),
            legacy_ecn: WireBytes::new(60_000),
            shared_buffer: (WireBytes::new(4_500_000), 0.25),
        }
    }

    /// Credit-queue shaper for a given data-rate fraction: the credit rate
    /// that triggers `frac` of the line rate in data.
    fn credit_shaper(&self, frac: f64) -> (Rate, WireBytes) {
        let rate = self.rate.scale(CREDIT_RATE_FULL_FRACTION * frac);
        (rate, CTRL_WIRE * 2)
    }
}

/// The FlexPass switch profile (§4.1): Q0 credits (strict, shaped to
/// `w_q` of the full credit rate, tiny buffer), Q1 FlexPass data (DWRR
/// `w_q`, ECN + selective red dropping), Q2 legacy (DWRR `1 − w_q`, ECN).
pub fn flexpass_profile(p: &ProfileParams) -> SwitchProfile {
    let (crate_, cburst) = p.credit_shaper(p.wq);
    SwitchProfile {
        port: PortConfig {
            rate: p.rate,
            queues: vec![
                (
                    QueueConfig::capped(CREDIT_CAP),
                    QueueSched::strict(0).shaped(crate_, cburst),
                ),
                (
                    QueueConfig::plain()
                        .with_ecn(p.fp_ecn)
                        .with_red_threshold(p.fp_red),
                    QueueSched::weighted(1, p.wq),
                ),
                (
                    QueueConfig::plain().with_ecn(p.legacy_ecn),
                    QueueSched::weighted(1, 1.0 - p.wq),
                ),
            ],
        },
        class_map: ClassMap::Split {
            credit: 0,
            new_data: 1,
            new_ctrl: 1,
            legacy: 2,
        },
        shared_buffer: Some(p.shared_buffer),
    }
}

/// The Naïve deployment profile (§6.2): ExpressPass data and legacy traffic
/// share one queue; credits are shaped to the *full* credit rate.
pub fn naive_profile(p: &ProfileParams) -> SwitchProfile {
    let (crate_, cburst) = p.credit_shaper(1.0);
    SwitchProfile {
        port: PortConfig {
            rate: p.rate,
            queues: vec![
                (
                    QueueConfig::capped(CREDIT_CAP),
                    QueueSched::strict(0).shaped(crate_, cburst),
                ),
                (
                    QueueConfig::plain().with_ecn(p.legacy_ecn),
                    QueueSched::strict(1),
                ),
            ],
        },
        class_map: ClassMap::Split {
            credit: 0,
            new_data: 1,
            new_ctrl: 1,
            legacy: 1,
        },
        shared_buffer: Some(p.shared_buffer),
    }
}

/// The Oracle Weighted Fair Queueing profile (§6.2): ExpressPass data and
/// legacy traffic in separate DWRR queues whose weights match the *known*
/// fraction of upgraded traffic; credits shaped to the same fraction.
pub fn owf_profile(p: &ProfileParams, upgraded_frac: f64) -> SwitchProfile {
    // DWRR weights must stay positive; clamp the oracle fraction away from
    // the degenerate all-or-nothing endpoints.
    let frac = upgraded_frac.clamp(0.02, 0.98);
    let (crate_, cburst) = p.credit_shaper(frac);
    SwitchProfile {
        port: PortConfig {
            rate: p.rate,
            queues: vec![
                (
                    QueueConfig::capped(CREDIT_CAP),
                    QueueSched::strict(0).shaped(crate_, cburst),
                ),
                (QueueConfig::plain(), QueueSched::weighted(1, frac)),
                (
                    QueueConfig::plain().with_ecn(p.legacy_ecn),
                    QueueSched::weighted(1, 1.0 - frac),
                ),
            ],
        },
        class_map: ClassMap::Split {
            credit: 0,
            new_data: 1,
            new_ctrl: 1,
            legacy: 2,
        },
        shared_buffer: Some(p.shared_buffer),
    }
}

/// A DCTCP-only network (0 % deployment baseline): one ECN queue.
pub fn dctcp_profile(p: &ProfileParams) -> SwitchProfile {
    SwitchProfile {
        port: PortConfig {
            rate: p.rate,
            queues: vec![(
                QueueConfig::plain().with_ecn(p.legacy_ecn),
                QueueSched::strict(0),
            )],
        },
        class_map: ClassMap::Single,
        shared_buffer: Some(p.shared_buffer),
    }
}

/// Eight strict-priority queues for the Homa motivation experiment
/// (Figure 1b): DCTCP and Homa control share the highest-priority queue
/// (paper footnote 3); Homa data selects queues by packet priority.
pub fn homa_mix_profile(p: &ProfileParams) -> SwitchProfile {
    SwitchProfile {
        port: PortConfig {
            rate: p.rate,
            queues: (0..8)
                .map(|i| {
                    let qc = if i == 0 {
                        // DCTCP needs marking in its queue.
                        QueueConfig::plain().with_ecn(p.legacy_ecn)
                    } else {
                        QueueConfig::plain()
                    };
                    (qc, QueueSched::strict(i))
                })
                .collect(),
        },
        class_map: ClassMap::ByPrio {
            base: 0,
            n: 8,
            ctrl: 0,
            legacy: 0,
        },
        shared_buffer: Some(p.shared_buffer),
    }
}

/// The host-NIC variant of a switch profile (§5 footnote 6: "NIC is
/// essentially a special type of edge switch"). Queues, class mapping and
/// — critically — the credit-queue shaper are identical to switch ports:
/// the credit queue on a receiver's uplink is what bounds the data pulled
/// onto its downlink, so removing it would let a high-degree incast
/// over-commit the access link and cause scheduled-packet loss. Only the
/// shared-buffer setting is dropped (hosts ignore it anyway).
pub fn host_variant(profile: &SwitchProfile) -> SwitchProfile {
    let mut p = profile.clone();
    p.shared_buffer = None;
    p
}

#[cfg(test)]
// Test expectations compare floats that are exact by construction.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use flexpass_simcore::units::Bytes;
    use flexpass_simnet::consts::DATA_WIRE;
    use flexpass_simnet::packet::{DataInfo, Packet, Payload, Subflow, TrafficClass};

    fn pkt(class: TrafficClass) -> Packet {
        Packet::new(
            1,
            0,
            1,
            DATA_WIRE,
            class,
            Payload::Data(DataInfo {
                flow_seq: 0,
                sub_seq: 0,
                sub: Subflow::Only,
                payload: Bytes::new(1460),
                retx: false,
            }),
        )
    }

    #[test]
    fn flexpass_profile_shape() {
        let p = ProfileParams::simulation(Rate::from_gbps(40));
        let prof = flexpass_profile(&p);
        assert_eq!(prof.port.queues.len(), 3);
        // Credit queue: strict 0, shaped to wq * credit fraction.
        let (rate, _) = prof.port.queues[0].1.shaper.expect("credit shaper");
        let expect = 40e9 * CREDIT_RATE_FULL_FRACTION * 0.5;
        assert!((rate.as_bps() as f64 - expect).abs() / expect < 0.01);
        // Q1: ECN 65 kB, red 150 kB, weight 0.5.
        let q1 = &prof.port.queues[1].0;
        assert_eq!(q1.ecn_threshold, Some(WireBytes::new(65_000)));
        assert_eq!(q1.red_threshold, Some(WireBytes::new(150_000)));
        // Class mapping.
        assert_eq!(prof.class_map.queue_for(&pkt(TrafficClass::NewData)), 1);
        assert_eq!(prof.class_map.queue_for(&pkt(TrafficClass::Legacy)), 2);
    }

    #[test]
    fn naive_shares_queue() {
        let p = ProfileParams::simulation(Rate::from_gbps(40));
        let prof = naive_profile(&p);
        assert_eq!(
            prof.class_map.queue_for(&pkt(TrafficClass::NewData)),
            prof.class_map.queue_for(&pkt(TrafficClass::Legacy))
        );
        // Full-rate credits.
        let (rate, _) = prof.port.queues[0].1.shaper.expect("credit shaper");
        let expect = 40e9 * CREDIT_RATE_FULL_FRACTION;
        assert!((rate.as_bps() as f64 - expect).abs() / expect < 0.01);
    }

    #[test]
    fn owf_weights_follow_oracle() {
        let p = ProfileParams::simulation(Rate::from_gbps(40));
        let prof = owf_profile(&p, 0.25);
        assert!((prof.port.queues[1].1.weight - 0.25).abs() < 1e-9);
        assert!((prof.port.queues[2].1.weight - 0.75).abs() < 1e-9);
        // Degenerate fractions are clamped, not zero.
        let prof = owf_profile(&p, 0.0);
        assert!(prof.port.queues[1].1.weight > 0.0);
    }

    #[test]
    fn homa_mix_has_eight_prio_queues() {
        let p = ProfileParams::testbed(Rate::from_gbps(10));
        let prof = homa_mix_profile(&p);
        assert_eq!(prof.port.queues.len(), 8);
        assert_eq!(prof.class_map.queue_for(&pkt(TrafficClass::Legacy)), 0);
        assert_eq!(
            prof.class_map
                .queue_for(&pkt(TrafficClass::NewData).with_prio(6)),
            6
        );
    }

    #[test]
    fn host_variant_keeps_credit_shaper() {
        let p = ProfileParams::simulation(Rate::from_gbps(40));
        let prof = flexpass_profile(&p);
        let host = host_variant(&prof);
        // The credit shaper must survive: it protects the host's downlink
        // from credit over-commit under incast.
        assert!(host.port.queues[0].1.shaper.is_some());
        assert!(host.shared_buffer.is_none());
        assert_eq!(host.port.queues.len(), prof.port.queues.len());
    }

    #[test]
    fn testbed_params_match_section_6_1() {
        let p = ProfileParams::testbed(Rate::from_gbps(10));
        assert_eq!(p.fp_ecn, WireBytes::new(60_000));
        assert_eq!(p.fp_red, WireBytes::new(100_000));
        assert_eq!(p.wq, 0.5);
    }
}
