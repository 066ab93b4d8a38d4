//! Deterministic link faults and the retransmission policy that masks them.
//!
//! In-process topology wires are reliable FIFO channels and carry none of
//! this. A link that can really lose a frame — a launcher↔node session of
//! the cluster layer — runs a seq/ack/retry protocol paced by
//! [`RetryConfig`], and tests make such a link lossy on purpose with a
//! [`LinkFault`] mix: each transmission may be dropped, duplicated, or
//! delayed (held back and released after up to `max_delay` later
//! transmissions, which reorders the link). Decisions come from a dice
//! stream derived deterministically from a seed, the wire and the sending
//! task, so a seeded run replays exactly — mirroring how
//! [`FaultPlan`](crate::FaultPlan) makes crashes reproducible.
//! [`ChaosLink`](crate::ChaosLink) applies the dice to an outbound frame
//! stream.

use std::time::Duration;

/// Retransmission policy of a sequenced, acknowledged link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Wait this long after a transmission before the first retry.
    pub base_timeout: Duration,
    /// Multiply the timeout by this (integer) factor after every retry of
    /// the same frame.
    pub backoff_factor: u32,
    /// Never wait longer than this between retries of one frame.
    pub max_timeout: Duration,
}

impl RetryConfig {
    /// The retry timeout after `retries` previous retransmissions of a
    /// frame: `base * factor^retries`, capped at `max_timeout`.
    pub fn timeout_after(&self, retries: u32) -> Duration {
        let factor = self.backoff_factor.max(1).saturating_pow(retries.min(16));
        (self.base_timeout * factor).min(self.max_timeout)
    }
}

/// The fault mix of one lossy wire. Rates are per *transmission* and are
/// evaluated in order drop → duplicate → delay, so their sum must be ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Probability a transmission is silently dropped.
    pub drop_rate: f64,
    /// Probability a transmission is delivered twice.
    pub dup_rate: f64,
    /// Probability a transmission is held back and released after `1 ..=
    /// max_delay` later transmissions on the same link (reordering it).
    pub delay_rate: f64,
    /// Upper bound on how many later transmissions a delayed tuple can be
    /// reordered behind (the "reorder within k" bound).
    pub max_delay: usize,
}

impl LinkFault {
    /// A fault mix derived deterministically from `seed`: drop in [0, 0.3),
    /// dup in [0, 0.2), delay in [0, 0.4), reorder window in 1..=8. The
    /// ranges keep every seed usable on an at-least-once link (drop rate
    /// stays well below 1, so retries terminate).
    pub fn seeded(seed: u64) -> Self {
        let unit = |s: u64| splitmix64(s) as f64 / u64::MAX as f64;
        Self {
            drop_rate: 0.3 * unit(seed ^ 0x0d0d),
            dup_rate: 0.2 * unit(seed ^ 0xd0d0),
            delay_rate: 0.4 * unit(seed ^ 0x7e7e),
            max_delay: 1 + (splitmix64(seed ^ 0x5a5a) % 8) as usize,
        }
    }

    fn validate(&self) {
        for (name, r) in [
            ("drop_rate", self.drop_rate),
            ("dup_rate", self.dup_rate),
            ("delay_rate", self.delay_rate),
        ] {
            assert!((0.0..=1.0).contains(&r), "{name} must be in [0, 1]");
        }
        assert!(
            self.drop_rate + self.dup_rate + self.delay_rate <= 1.0 + 1e-9,
            "fault rates must sum to at most 1"
        );
        assert!(
            self.delay_rate == 0.0 || self.max_delay >= 1,
            "delay_rate > 0 needs max_delay >= 1"
        );
    }
}

/// What the chaos layer does with one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkAction {
    /// Deliver normally.
    Pass,
    /// Silently discard this transmission.
    Drop,
    /// Deliver it twice.
    Duplicate,
    /// Hold it back for the given number of later transmissions (≥ 1).
    Delay(usize),
}

/// The deterministic per-link decision stream.
#[derive(Debug, Clone)]
pub(crate) struct ChaosDice {
    fault: LinkFault,
    state: u64,
}

impl ChaosDice {
    /// The dice of one sending task's copy of a wire: each (seed, wire,
    /// task) link gets an independent deterministic decision stream.
    ///
    /// # Panics
    /// Panics if a rate is outside `[0, 1]`, the rates sum to more than 1,
    /// or `delay_rate > 0` with `max_delay == 0`.
    pub(crate) fn new(seed: u64, fault: LinkFault, wire_index: usize, sender_task: usize) -> Self {
        fault.validate();
        Self {
            fault,
            state: splitmix64(
                seed ^ (wire_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (sender_task as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
            ),
        }
    }

    /// The action for the next transmission on this link.
    pub(crate) fn roll(&mut self) -> LinkAction {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let draw = mix(self.state) as f64 / u64::MAX as f64;
        let f = &self.fault;
        if draw < f.drop_rate {
            LinkAction::Drop
        } else if draw < f.drop_rate + f.dup_rate {
            LinkAction::Duplicate
        } else if draw < f.drop_rate + f.dup_rate + f.delay_rate {
            let d = 1 + (mix(self.state ^ 0xABCD) % f.max_delay.max(1) as u64) as usize;
            LinkAction::Delay(d)
        } else {
            LinkAction::Pass
        }
    }
}

/// SplitMix64 finalizer.
pub(crate) fn mix(seed: u64) -> u64 {
    let mut z = seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 step + finalizer: enough to spread a test seed over fault
/// rates, tasks and crash points without a rand dependency.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = RetryConfig {
            base_timeout: Duration::from_millis(1),
            backoff_factor: 2,
            max_timeout: Duration::from_millis(10),
        };
        assert_eq!(cfg.timeout_after(0), Duration::from_millis(1));
        assert_eq!(cfg.timeout_after(1), Duration::from_millis(2));
        assert_eq!(cfg.timeout_after(2), Duration::from_millis(4));
        assert_eq!(cfg.timeout_after(3), Duration::from_millis(8));
        assert_eq!(cfg.timeout_after(4), Duration::from_millis(10));
        assert_eq!(cfg.timeout_after(30), Duration::from_millis(10));
    }

    #[test]
    fn seeded_faults_are_deterministic_and_in_range() {
        for seed in 0..200u64 {
            let a = LinkFault::seeded(seed);
            let b = LinkFault::seeded(seed);
            assert_eq!(a, b);
            assert!((0.0..0.3).contains(&a.drop_rate));
            assert!((0.0..0.2).contains(&a.dup_rate));
            assert!((0.0..0.4).contains(&a.delay_rate));
            assert!((1..=8).contains(&a.max_delay));
        }
    }

    #[test]
    fn dice_streams_are_deterministic_per_link() {
        let rolls = |task| {
            let mut d = ChaosDice::new(7, LinkFault::seeded(7), 0, task);
            (0..100).map(|_| d.roll()).collect::<Vec<LinkAction>>()
        };
        assert_eq!(rolls(2), rolls(2));
        // A different task index explores a different stream.
        assert_ne!(rolls(2), rolls(3));
    }

    /// The stream a seed-7 cluster rolls on task 0's link (wire 2), taken
    /// from the parent of the commit that introduced `ChaosDice::new`:
    /// changing the seed derivation would move every seeded chaos schedule
    /// in the test suites at once.
    #[test]
    fn seed_7_dice_stream_is_pinned() {
        use LinkAction::{Delay, Drop, Duplicate, Pass};
        let mut dice = ChaosDice::new(7, LinkFault::seeded(7), 2, 0);
        let got: Vec<LinkAction> = (0..32).map(|_| dice.roll()).collect();
        #[rustfmt::skip]
        let expect = [
            Delay(6), Pass, Delay(4), Delay(1), Pass, Duplicate, Duplicate, Delay(5),
            Pass, Duplicate, Pass, Pass, Pass, Pass, Drop, Duplicate,
            Pass, Duplicate, Drop, Delay(5), Duplicate, Delay(6), Pass, Pass,
            Delay(6), Delay(7), Pass, Delay(1), Delay(4), Duplicate, Delay(2), Delay(1),
        ];
        assert_eq!(got, expect);
    }

    #[test]
    fn rolls_roughly_match_rates() {
        let fault = LinkFault {
            drop_rate: 0.25,
            dup_rate: 0.25,
            delay_rate: 0.25,
            max_delay: 4,
        };
        let mut dice = ChaosDice::new(3, fault, 0, 0);
        let n = 20_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            match dice.roll() {
                LinkAction::Pass => counts[0] += 1,
                LinkAction::Drop => counts[1] += 1,
                LinkAction::Duplicate => counts[2] += 1,
                LinkAction::Delay(d) => {
                    assert!((1..=4).contains(&d));
                    counts[3] += 1;
                }
            }
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((0.2..0.3).contains(&frac), "skewed dice: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overfull_rates_rejected() {
        let fault = LinkFault {
            drop_rate: 0.6,
            dup_rate: 0.5,
            delay_rate: 0.0,
            max_delay: 1,
        };
        let _ = ChaosDice::new(0, fault, 0, 0);
    }
}
