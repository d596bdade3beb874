//! Property tests for the congestion-control building blocks.

use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::Rate;
use flexpass_simcore::time::TimeDelta;
use flexpass_simnet::consts::DATA_WIRE;
use flexpass_simnet::sim::NetEnv;
use flexpass_transport::common::{DctcpWindow, RttEstimator};
use flexpass_transport::expresspass::{CreditEngine, EpConfig, MIN_RATE_FRAC};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DCTCP window stays within [1, max_cwnd] and alpha within [0, 1]
    /// for any random sequence of acks, marks, losses, and timeouts.
    #[test]
    fn dctcp_window_bounded(seed in 0u64..100_000, max_cwnd in 16.0f64..512.0) {
        let mut w = DctcpWindow::new(10.0, 1.0 / 16.0, max_cwnd);
        let mut rng = SimRng::new(seed);
        let mut seq = 0u32;
        for _ in 0..500 {
            let acked = 1 + rng.next_below(16);
            seq += acked as u32;
            let snd_nxt = seq + rng.next_below(64) as u32;
            match rng.next_below(20) {
                0 => w.on_loss(seq, snd_nxt),
                1 => w.on_timeout(snd_nxt),
                _ => w.on_ack(acked, seq, rng.chance(0.3), snd_nxt),
            }
            prop_assert!(w.cwnd() >= 1.0, "cwnd {} < 1", w.cwnd());
            prop_assert!(w.cwnd() <= max_cwnd, "cwnd {} > max {max_cwnd}", w.cwnd());
            prop_assert!((0.0..=1.0).contains(&w.alpha()), "alpha {}", w.alpha());
            prop_assert!(w.cwnd_pkts() >= 1);
        }
    }

    /// Sustained full marking drives the window to the floor; sustained
    /// clean acks drive it to the cap.
    #[test]
    fn dctcp_window_extremes(seed in 0u64..10_000) {
        let _ = seed;
        let mut w = DctcpWindow::new(10.0, 1.0 / 16.0, 256.0);
        let mut seq = 0u32;
        for _ in 0..400 {
            seq += 10;
            w.on_ack(10, seq, true, seq + 10);
        }
        prop_assert!(w.cwnd() < 4.0, "marked cwnd {}", w.cwnd());
        // Clean acks grow the window again; ssthresh is low after the
        // marking phase, so growth is congestion-avoidance-paced
        // (~sqrt(2 * acks)).
        for _ in 0..400 {
            seq += 10;
            w.on_ack(10, seq, false, seq + 10);
        }
        prop_assert!(w.cwnd() > 50.0, "clean cwnd {}", w.cwnd());
    }

    /// RTO is always at least the configured floor and at least srtt.
    #[test]
    fn rto_floor_holds(
        min_rto_us in 100u64..10_000,
        samples in prop::collection::vec(1u64..100_000, 1..50),
    ) {
        let floor = TimeDelta::micros(min_rto_us);
        let mut est = RttEstimator::new(floor);
        for s in samples {
            est.sample(TimeDelta::micros(s));
            prop_assert!(est.rto() >= floor);
            prop_assert!(est.rto() >= est.srtt().unwrap());
        }
    }

    /// The credit engine's rate always stays within
    /// [min_rate_frac, 1] x max rate, under any loss pattern.
    #[test]
    fn credit_engine_rate_bounded(seed in 0u64..100_000) {
        let env = NetEnv {
            host_rate: Rate::from_gbps(40),
            base_rtt: TimeDelta::micros(28),
            n_hosts: 2,
        };
        let cfg = EpConfig::default();
        let mut eng = CreditEngine::new(cfg, &env, seed);
        let mut rng = SimRng::new(seed ^ 0xAB);
        let max = 40e9 * cfg.max_rate_frac;
        for _ in 0..300 {
            let sent = rng.next_below(200);
            let delivered = if sent == 0 { 0 } else { rng.next_below(sent + 1) };
            eng.credits_sent_period = sent;
            eng.data_rcvd_period = delivered;
            eng.feedback_update();
            prop_assert!(eng.rate() <= max * 1.0001, "rate {} > max {max}", eng.rate());
            prop_assert!(
                eng.rate() >= max * MIN_RATE_FRAC * 0.9999,
                "rate {} below floor",
                eng.rate()
            );
            // Pacing interval is positive and jitter stays within +/-25 %.
            let base = DATA_WIRE.as_f64() * 8.0 / eng.rate();
            let iv = eng.credit_interval().as_secs_f64();
            prop_assert!(iv >= base * 0.74 && iv <= base * 1.26, "jitter out of range");
        }
    }
}

/// Deterministic: repeated clean feedback pushes the rate to the cap
/// within a bounded number of updates (S_max-limited ramp).
#[test]
fn credit_engine_ramp_time() {
    let env = NetEnv {
        host_rate: Rate::from_gbps(40),
        base_rtt: TimeDelta::micros(28),
        n_hosts: 2,
    };
    let cfg = EpConfig::default();
    let mut eng = CreditEngine::new(cfg, &env, 1);
    let mut updates = 0;
    while eng.rate() < 40e9 * 0.95 && updates < 100 {
        eng.credits_sent_period = 100;
        eng.data_rcvd_period = 100;
        eng.feedback_update();
        updates += 1;
    }
    // 20 G to go at >= S_max (1 Gbps) per step, accelerated by the binary
    // search: well under 40 updates.
    assert!(updates <= 40, "ramp took {updates} updates");
}
