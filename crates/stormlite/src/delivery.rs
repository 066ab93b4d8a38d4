//! Per-wire delivery semantics.
//!
//! Every wire defaults to [`Delivery::BestEffort`]: tuples are pushed once
//! into the destination channel and never tracked. Over a perfect
//! in-process channel that is exactly-once FIFO; over a wire made lossy by
//! a [`LinkFaultPlan`](crate::LinkFaultPlan) it degrades to at-most-once
//! with reordering.
//!
//! [`Delivery::AtLeastOnce`] upgrades a wire to a reliable protocol:
//!
//! * the sender stamps each tuple with a dense per-(sender task, receiver
//!   task) sequence number and keeps it until acknowledged;
//! * the receiver acknowledges the first receipt of each sequence number,
//!   discards duplicates, and buffers out-of-order arrivals so the bolt
//!   sees strictly in-order input;
//! * the sender retransmits unacknowledged tuples after a timeout, backing
//!   off exponentially ([`RetryConfig`]), and blocks at end-of-stream until
//!   every tuple is acknowledged — only then is the EOS marker sent.
//!
//! The combination yields *effectively-once FIFO* delivery to the bolt even
//! when the link drops, duplicates, or reorders transmissions: every
//! sequence number is eventually delivered (retry), delivered at most once
//! to the bolt (dedup), and in order (reorder buffer). Because all data is
//! acknowledged before EOS, and the underlying channel itself is FIFO, no
//! tuple can arrive after the EOS marker.

use std::time::Duration;

/// Delivery semantics of one wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Delivery {
    /// Fire-and-forget: exactly-once over a perfect channel, at-most-once
    /// (and possibly reordered) over a lossy one. The default; adds no
    /// tracking overhead.
    #[default]
    BestEffort,
    /// Sequence numbers + acks + retry + receiver dedup: the bolt observes
    /// effectively-once FIFO input even over a lossy link.
    AtLeastOnce(RetryConfig),
}

impl Delivery {
    /// Whether this wire runs the reliable protocol.
    pub fn is_reliable(&self) -> bool {
        matches!(self, Delivery::AtLeastOnce(_))
    }
}

/// Retransmission policy for an [`Delivery::AtLeastOnce`] wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Wait this long after a transmission before the first retry.
    pub base_timeout: Duration,
    /// Multiply the timeout by this (integer) factor after every retry of
    /// the same tuple.
    pub backoff_factor: u32,
    /// Never wait longer than this between retries of one tuple.
    pub max_timeout: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            base_timeout: Duration::from_millis(2),
            backoff_factor: 2,
            max_timeout: Duration::from_millis(64),
        }
    }
}

impl RetryConfig {
    /// The nominal retry timeout after `retries` previous retransmissions
    /// of a tuple: `base * factor^retries`, capped at `max_timeout`.
    pub fn timeout_after(&self, retries: u32) -> Duration {
        let factor = self.backoff_factor.max(1).saturating_pow(retries.min(16));
        (self.base_timeout * factor).min(self.max_timeout)
    }

    /// The *jittered* retry timeout actually used by the sender: a
    /// deterministic value in `[nominal/2, nominal]`, keyed on `salt`.
    ///
    /// When a lossy link heals, every unacked tuple on the wire would
    /// otherwise retransmit at exactly the same instant (all timers were
    /// armed by the same backoff schedule), stampeding the receiver.
    /// Spreading each tuple's timer over the half-open lower half of the
    /// nominal timeout de-synchronizes the herd. The jitter is a pure
    /// function of `salt` — callers key it on (link, destination, sequence
    /// number, retry count) — so the deterministic simulator computes the
    /// identical deadline whether it is *checking* for an overdue tuple or
    /// *idle-jumping* the virtual clock to the next deadline.
    pub(crate) fn jittered_timeout(&self, retries: u32, salt: u64) -> Duration {
        let nominal = self.timeout_after(retries).as_nanos() as u64;
        // splitmix64 finalizer: uncorrelated bits from structured salts.
        let mut z = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // nominal/2 + uniform draw from [0, nominal/2].
        let half = nominal / 2;
        let jitter = if half == 0 { 0 } else { z % (half + 1) };
        Duration::from_nanos(half + jitter)
    }
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
    fn jitter_stays_within_half_to_full_nominal() {
        let cfg = RetryConfig::default();
        for retries in 0..8u32 {
            let nominal = cfg.timeout_after(retries);
            for salt in 0..500u64 {
                let j = cfg.jittered_timeout(retries, salt.wrapping_mul(0x5851_f42d_4c95_7f2d));
                assert!(
                    j >= nominal / 2 && j <= nominal,
                    "retries={retries} salt={salt}: {j:?} outside [{:?}, {nominal:?}]",
                    nominal / 2
                );
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_and_salt_sensitive() {
        let cfg = RetryConfig::default();
        assert_eq!(
            cfg.jittered_timeout(3, 12345),
            cfg.jittered_timeout(3, 12345)
        );
        // Different salts must not all collapse onto one deadline.
        let distinct: std::collections::BTreeSet<Duration> =
            (0..64u64).map(|s| cfg.jittered_timeout(3, s)).collect();
        assert!(distinct.len() > 32, "jitter barely varies: {distinct:?}");
    }

    #[test]
    fn zero_timeout_yields_zero_jitter() {
        let cfg = RetryConfig {
            base_timeout: Duration::ZERO,
            backoff_factor: 2,
            max_timeout: Duration::ZERO,
        };
        assert_eq!(cfg.jittered_timeout(0, 99), Duration::ZERO);
    }

    #[test]
    fn default_is_best_effort() {
        assert_eq!(Delivery::default(), Delivery::BestEffort);
        assert!(!Delivery::BestEffort.is_reliable());
        assert!(Delivery::AtLeastOnce(RetryConfig::default()).is_reliable());
    }
}
