//! A log-bucket latency histogram (relocated here from
//! `stormlite::metrics` so that crates below the engine — notably the
//! local join algorithms — can time stages without depending on it;
//! stormlite re-exports it for compatibility).
//!
//! Nothing in this module reads the wall clock. Every duration recorded
//! here is measured by the caller through its scheduler clock, so under
//! deterministic simulation all reported latencies are virtual-time
//! readings: deterministic and seed-reproducible.

use std::time::Duration;

/// A latency histogram with logarithmic (power-of-two nanosecond) buckets:
/// constant memory, O(1) record, ~2× relative quantile error — plenty for
/// throughput/latency reporting without external dependencies.
///
/// All arithmetic saturates: merging many per-task histograms (or very
/// long-running ones) can never overflow into a panic or a wrapped count.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        let bucket = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[bucket] = self.buckets[bucket].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(u128::from(ns));
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total of all recorded samples, in nanoseconds.
    pub fn sum_nanos(&self) -> u128 {
        self.sum_ns
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / u128::from(self.count)) as u64)
    }

    /// Largest recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Approximate quantile: the upper edge of the bucket containing the
    /// q-th sample. `q` is clamped into `[0, 1]` rather than asserted, so
    /// exporters that compute quantile positions in floating point (and
    /// pick up rounding error like `1.0000000000000002`) never panic.
    /// Returns zero when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let q = q.clamp(0.0, 1.0);
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return Duration::from_nanos(1u64 << (b + 1).min(63));
            }
        }
        self.max()
    }

    /// Merges another histogram into this one. Saturating: merging
    /// histograms whose combined counts would exceed `u64::MAX` (e.g. a
    /// cross-task fold over many long-running tasks) clamps at the
    /// maximum instead of wrapping.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_stats() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(200));
        h.record(Duration::from_micros(10));
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Duration::from_micros(10));
        assert!(h.mean() >= Duration::from_nanos(100));
        assert!(!h.is_empty());
        assert_eq!(h.sum_nanos(), 100 + 200 + 10_000);
    }

    #[test]
    fn histogram_quantiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_nanos(i * 1000));
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        // Log buckets: within 2x of the true values.
        assert!(p50 >= Duration::from_nanos(500_000 / 2));
        assert!(p99 <= Duration::from_nanos(4 * 990_000));
    }

    #[test]
    fn histogram_bucket_edge_at_one_nanosecond() {
        // 1 ns lands in bucket 0 ([1, 2) ns): the quantile estimate is the
        // bucket's upper edge, 2 ns — exactly the documented 2× bound.
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1));
        assert_eq!(h.quantile(1.0), Duration::from_nanos(2));
        assert_eq!(h.max(), Duration::from_nanos(1));
        // 0 ns is clamped into bucket 0 rather than shifting out of range.
        let mut z = LatencyHistogram::new();
        z.record(Duration::ZERO);
        assert_eq!(z.quantile(1.0), Duration::from_nanos(2));
    }

    #[test]
    fn histogram_bucket_edges_at_powers_of_two() {
        // A sample of exactly 2^k sits at the lower edge of bucket k, so
        // the estimate 2^(k+1) is exactly 2× — the worst case the bound
        // promises. One below (2^k - 1) stays in bucket k-1.
        for k in 1..62u32 {
            let mut h = LatencyHistogram::new();
            h.record(Duration::from_nanos(1u64 << k));
            assert_eq!(
                h.quantile(1.0),
                Duration::from_nanos(1u64 << (k + 1)),
                "2^{k} must report its bucket's upper edge"
            );
            let mut low = LatencyHistogram::new();
            low.record(Duration::from_nanos((1u64 << k) - 1));
            assert_eq!(
                low.quantile(1.0),
                Duration::from_nanos(1u64 << k),
                "2^{k} - 1 must stay in the bucket below"
            );
        }
    }

    #[test]
    fn histogram_bucket_edge_at_u64_max() {
        // u64::MAX ns lands in the top bucket (63), whose reported edge is
        // clamped to 2^63 ns so the estimate stays representable; the
        // estimate errs *low* here but still within the 2× bound
        // (u64::MAX / 2^63 < 2).
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(u64::MAX));
        assert_eq!(h.quantile(1.0), Duration::from_nanos(1u64 << 63));
        assert_eq!(h.max(), Duration::from_nanos(u64::MAX));
        assert!(u64::MAX as f64 / (1u64 << 63) as f64 <= 2.0);
    }

    #[test]
    fn histogram_quantile_error_is_within_2x() {
        // The documented guarantee: for any sample set and any quantile,
        // estimate / true ∈ [1, 2] (buckets below the clamp). Exercise a
        // mix of scales, including exact powers of two.
        let samples: Vec<u64> = (0..2000u64)
            .map(|i| (i % 60).pow(2) * 37 + i + 1)
            .chain((0..10).map(|k| 1u64 << (k * 5)))
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(Duration::from_nanos(s));
        }
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = h.quantile(q).as_nanos() as u64;
            assert!(
                est >= truth && est <= truth.saturating_mul(2),
                "q={q}: estimate {est} outside [{truth}, {}]",
                truth.saturating_mul(2)
            );
        }
    }

    #[test]
    fn histogram_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
    }

    #[test]
    fn empty_histogram_quantiles_at_every_edge() {
        // Exporters call quantile() on histograms that never saw a sample
        // (e.g. barrier_stall without checkpointing). Every quantile —
        // including the edges and out-of-range inputs — must be zero, not
        // a panic.
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        for q in [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0] {
            assert_eq!(h.quantile(q), Duration::ZERO);
        }
        assert_eq!(h.sum_nanos(), 0);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn quantile_clamps_out_of_range_inputs() {
        // Exporters compute quantile positions in floating point; rounding
        // error can push q marginally outside [0, 1]. Clamp, don't panic.
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(Duration::from_nanos(i));
        }
        assert_eq!(h.quantile(1.0 + 1e-9), h.quantile(1.0));
        assert_eq!(h.quantile(-1e-9), h.quantile(0.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
    }

    #[test]
    fn cross_task_merge_preserves_stats_and_empties_are_identity() {
        // Merging per-task histograms must behave exactly like recording
        // every sample into one histogram, and merging an empty histogram
        // in either direction must change nothing.
        let mut combined = LatencyHistogram::new();
        let mut parts = vec![LatencyHistogram::new(); 3];
        for i in 1..=300u64 {
            let d = Duration::from_nanos(i * 17);
            combined.record(d);
            parts[(i % 3) as usize].record(d);
        }
        let mut merged = LatencyHistogram::new();
        merged.merge(&LatencyHistogram::new()); // empty into empty
        for p in &parts {
            merged.merge(p);
        }
        merged.merge(&LatencyHistogram::new()); // empty into full: identity
        assert_eq!(merged.count(), combined.count());
        assert_eq!(merged.sum_nanos(), combined.sum_nanos());
        assert_eq!(merged.max(), combined.max());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), combined.quantile(q));
        }
        let mut empty = LatencyHistogram::new();
        empty.merge(&combined); // full into empty: adopts everything
        assert_eq!(empty.count(), combined.count());
        assert_eq!(empty.max(), combined.max());
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        // A cross-task fold over pathological counts must clamp at
        // u64::MAX / u128::MAX, never wrap (wrapping would make count()
        // tiny and quantiles nonsense, or panic in debug builds).
        let mut a = LatencyHistogram::new();
        a.buckets[10] = u64::MAX - 1;
        a.count = u64::MAX - 1;
        a.sum_ns = u128::MAX - 1;
        a.max_ns = 1 << 11;
        let mut b = LatencyHistogram::new();
        b.record(Duration::from_nanos(1500)); // bucket 10 as well
        b.record(Duration::from_nanos(2000));
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.buckets[10], u64::MAX);
        assert_eq!(a.sum_nanos(), u128::MAX);
        // Quantiles still answer without panicking.
        assert!(a.quantile(0.5) >= Duration::from_nanos(1));
        // record() on a saturated histogram also stays clamped.
        a.record(Duration::from_nanos(1500));
        assert_eq!(a.count(), u64::MAX);
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_nanos(10));
        b.record(Duration::from_nanos(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Duration::from_nanos(1_000_000));
    }
}
