//! Lossy delivery channels.
//!
//! Wireless receptor uplinks drop messages — often in *bursts* (multi-hop
//! congestion, interference). The paper's redwood deployment delivered only
//! 40% of requested readings; the Intel lab deployment averaged 42%.
//! Burstiness matters to ESP because Smooth can only interpolate across a
//! gap if its window straddles the gap (§4.3.2), so the channel model here
//! is a two-state **Gilbert–Elliott** chain (Good/Bad states with distinct
//! delivery probabilities) whose stationary loss rate and mean burst length
//! are both configurable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A channel decides, message by message, whether delivery succeeds, and
/// may corrupt a delivered frame.
pub trait Channel: Send {
    /// Returns what happens to one message sent at this instant.
    fn transmit(&mut self) -> Delivery;
}

/// Outcome of one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Frame arrives intact.
    Delivered,
    /// Frame is lost entirely.
    Lost,
    /// Frame arrives but with bit errors (will fail its checksum).
    Corrupted,
}

/// A perfect channel (wired bench receptor).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectChannel;

impl Channel for PerfectChannel {
    fn transmit(&mut self) -> Delivery {
        Delivery::Delivered
    }
}

/// Independent (memoryless) loss with optional corruption.
#[derive(Debug)]
pub struct BernoulliChannel {
    rng: StdRng,
    p_loss: f64,
    p_corrupt: f64,
}

impl BernoulliChannel {
    /// Lose each message independently with probability `p_loss`; corrupt
    /// surviving messages with probability `p_corrupt`.
    pub fn new(seed: u64, p_loss: f64, p_corrupt: f64) -> BernoulliChannel {
        BernoulliChannel {
            rng: StdRng::seed_from_u64(seed),
            p_loss,
            p_corrupt,
        }
    }
}

impl Channel for BernoulliChannel {
    fn transmit(&mut self) -> Delivery {
        if self.rng.gen_bool(self.p_loss) {
            Delivery::Lost
        } else if self.p_corrupt > 0.0 && self.rng.gen_bool(self.p_corrupt) {
            Delivery::Corrupted
        } else {
            Delivery::Delivered
        }
    }
}

/// Two-state Gilbert–Elliott burst-loss channel.
#[derive(Debug)]
pub struct GilbertElliottChannel {
    rng: StdRng,
    /// P(transition Good → Bad) per message.
    p_gb: f64,
    /// P(transition Bad → Good) per message.
    p_bg: f64,
    /// Delivery probability in the Good state.
    p_deliver_good: f64,
    /// Delivery probability in the Bad state.
    p_deliver_bad: f64,
    in_bad: bool,
}

impl GilbertElliottChannel {
    /// Construct from raw chain parameters.
    pub fn new(
        seed: u64,
        p_gb: f64,
        p_bg: f64,
        p_deliver_good: f64,
        p_deliver_bad: f64,
    ) -> GilbertElliottChannel {
        GilbertElliottChannel {
            rng: StdRng::seed_from_u64(seed),
            p_gb,
            p_bg,
            p_deliver_good,
            p_deliver_bad,
            in_bad: false,
        }
    }

    /// Construct from the two quantities experiments care about: the
    /// long-run delivery rate and the mean bad-burst length (in messages).
    ///
    /// The Bad state delivers nothing and the Good state everything, so the
    /// stationary delivery rate is `P(Good) = p_bg / (p_gb + p_bg)` and the
    /// mean burst length is `1 / p_bg`.
    pub fn with_yield(seed: u64, delivery_rate: f64, mean_burst: f64) -> GilbertElliottChannel {
        let delivery_rate = delivery_rate.clamp(0.0, 1.0);
        let p_bg = 1.0 / mean_burst.max(1.0);
        if delivery_rate <= f64::EPSILON {
            // Degenerate: nothing ever gets through.
            return GilbertElliottChannel::new(seed, 1.0, 0.0, 0.0, 0.0);
        }
        // P(Good) = p_bg/(p_gb+p_bg) = rate  →  p_gb = p_bg (1-rate)/rate.
        let p_gb = (p_bg * (1.0 - delivery_rate) / delivery_rate).min(1.0);
        GilbertElliottChannel::new(seed, p_gb, p_bg, 1.0, 0.0)
    }
}

impl Channel for GilbertElliottChannel {
    fn transmit(&mut self) -> Delivery {
        // Transition, then sample delivery in the new state.
        let flip = if self.in_bad { self.p_bg } else { self.p_gb };
        if self.rng.gen_bool(flip) {
            self.in_bad = !self.in_bad;
        }
        let p = if self.in_bad {
            self.p_deliver_bad
        } else {
            self.p_deliver_good
        };
        if p >= 1.0 || (p > 0.0 && self.rng.gen_bool(p)) {
            Delivery::Delivered
        } else {
            Delivery::Lost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_always_delivers() {
        let mut c = PerfectChannel;
        assert!((0..100).all(|_| c.transmit() == Delivery::Delivered));
    }

    #[test]
    fn bernoulli_rate_close_to_nominal() {
        let mut c = BernoulliChannel::new(42, 0.3, 0.0);
        let delivered = (0..20_000)
            .filter(|_| c.transmit() == Delivery::Delivered)
            .count();
        let rate = delivered as f64 / 20_000.0;
        assert!((rate - 0.7).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn bernoulli_corruption_occurs() {
        let mut c = BernoulliChannel::new(7, 0.0, 0.5);
        let outcomes: Vec<Delivery> = (0..100).map(|_| c.transmit()).collect();
        assert!(outcomes.contains(&Delivery::Corrupted));
        assert!(!outcomes.contains(&Delivery::Lost));
    }

    #[test]
    fn gilbert_elliott_hits_target_yield() {
        for target in [0.4, 0.42, 0.8] {
            let mut c = GilbertElliottChannel::with_yield(99, target, 5.0);
            let n = 100_000;
            let delivered = (0..n)
                .filter(|_| c.transmit() == Delivery::Delivered)
                .count();
            let rate = delivered as f64 / n as f64;
            assert!((rate - target).abs() < 0.02, "target {target}, got {rate}");
        }
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // With mean burst 10, consecutive-loss runs should be far longer
        // than a Bernoulli channel of the same rate would produce.
        let mut ge = GilbertElliottChannel::with_yield(1, 0.6, 10.0);
        let outcomes: Vec<bool> = (0..50_000)
            .map(|_| ge.transmit() == Delivery::Delivered)
            .collect();
        let mean_burst = mean_loss_run(&outcomes);
        assert!(mean_burst > 4.0, "bursts too short: {mean_burst}");

        let mut be = BernoulliChannel::new(1, 0.4, 0.0);
        let outcomes: Vec<bool> = (0..50_000)
            .map(|_| be.transmit() == Delivery::Delivered)
            .collect();
        let bernoulli_burst = mean_loss_run(&outcomes);
        assert!(
            mean_burst > 2.0 * bernoulli_burst,
            "GE {mean_burst} vs Bernoulli {bernoulli_burst}"
        );
    }

    fn mean_loss_run(delivered: &[bool]) -> f64 {
        let mut runs = Vec::new();
        let mut current = 0usize;
        for &d in delivered {
            if d {
                if current > 0 {
                    runs.push(current);
                    current = 0;
                }
            } else {
                current += 1;
            }
        }
        if current > 0 {
            runs.push(current);
        }
        if runs.is_empty() {
            return 0.0;
        }
        runs.iter().sum::<usize>() as f64 / runs.len() as f64
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = || -> Vec<Delivery> {
            let mut c = GilbertElliottChannel::with_yield(123, 0.5, 4.0);
            (0..1000).map(|_| c.transmit()).collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degenerate_rates() {
        let mut never = GilbertElliottChannel::with_yield(5, 0.0, 3.0);
        assert!((0..1000).all(|_| never.transmit() == Delivery::Lost));
        let mut always = GilbertElliottChannel::with_yield(5, 1.0, 3.0);
        assert!((0..1000).all(|_| always.transmit() == Delivery::Delivered));
    }
}
