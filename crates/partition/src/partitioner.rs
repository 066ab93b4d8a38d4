//! Length-domain partitioners.
//!
//! All partitioners cut the length domain `[1, max]` into `k` contiguous,
//! disjoint, covering ranges — the invariant the length router relies on.
//! They differ in what they balance:
//!
//! * [`equal_width`] — equally many *lengths* per range (ignores data);
//! * [`equal_depth`] — equally many *records* per range (classic
//!   equi-frequency histogram cut);
//! * [`load_aware`] — equal *joiner load* per range (the [`CostModel`]'s
//!   messages, posting hits and merges), solved exactly (minimize the
//!   maximum partition load) by dynamic programming;
//! * [`load_aware_greedy`] — the same optimum via binary search on the
//!   load budget and a greedy sweep.

use crate::cost::CostModel;
use crate::histogram::LengthHistogram;

/// A partition of the record-length domain into contiguous ranges.
///
/// Partition `i` owns lengths `(uppers[i-1], uppers[i]]` (with an implicit
/// lower bound of 1 for partition 0). Lengths above the domain maximum are
/// clamped into the last partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LengthPartition {
    uppers: Vec<usize>,
}

impl LengthPartition {
    /// Builds a partition from inclusive upper bounds.
    ///
    /// # Panics
    /// Panics unless the bounds are non-empty and strictly increasing, with
    /// the first at least 1.
    pub fn from_uppers(uppers: Vec<usize>) -> Self {
        assert!(!uppers.is_empty(), "partition needs at least one range");
        assert!(uppers[0] >= 1, "first upper bound must be >= 1");
        assert!(
            uppers.windows(2).all(|w| w[0] < w[1]),
            "upper bounds must be strictly increasing"
        );
        Self { uppers }
    }

    /// Number of ranges (= number of joiners).
    pub fn k(&self) -> usize {
        self.uppers.len()
    }

    /// The largest length the partition covers explicitly.
    pub fn domain_max(&self) -> usize {
        *self.uppers.last().expect("non-empty")
    }

    /// The inclusive upper bounds.
    pub fn uppers(&self) -> &[usize] {
        &self.uppers
    }

    /// The partition owning `len` (lengths beyond the domain clamp to the
    /// last partition).
    #[inline]
    pub fn partition_of(&self, len: usize) -> usize {
        match self.uppers.binary_search(&len) {
            Ok(i) => i,
            Err(i) => i.min(self.uppers.len() - 1),
        }
    }

    /// The inclusive `(lo, hi)` length range of partition `i`.
    pub fn range(&self, i: usize) -> (usize, usize) {
        let lo = if i == 0 { 1 } else { self.uppers[i - 1] + 1 };
        (lo, self.uppers[i])
    }

    /// The inclusive partition-index range a probe with partner-length
    /// interval `[lo, hi]` must visit (`hi = None` means unbounded).
    ///
    /// Lengths beyond the calibrated domain are *indexed* in the last
    /// partition (they clamp), so any interval reaching past the domain —
    /// including `lo > domain_max` — must include the last partition.
    #[inline]
    pub fn probe_targets(&self, lo: usize, hi: Option<usize>) -> (usize, usize) {
        let dmax = self.domain_max();
        let a = self.partition_of(lo.min(dmax));
        let b = match hi {
            Some(h) if h < dmax => self.partition_of(h),
            _ => self.k() - 1,
        };
        debug_assert!(a <= b, "partner-length interval was empty");
        (a, b)
    }

    /// Load of each partition under a cost model.
    pub fn loads(&self, cost: &CostModel) -> Vec<f64> {
        (0..self.k())
            .map(|i| {
                let (lo, hi) = self.range(i);
                cost.range_load(lo, hi)
            })
            .collect()
    }
}

fn padded_domain(max_len: usize, k: usize) -> usize {
    max_len.max(k).max(1)
}

/// Equal-width cut of `[1, max_len]` into `k` ranges.
pub fn equal_width(max_len: usize, k: usize) -> LengthPartition {
    assert!(k >= 1, "need at least one partition");
    let max = padded_domain(max_len, k);
    let uppers = (1..=k)
        .map(|i| ((i as f64 / k as f64) * max as f64).round() as usize)
        .collect::<Vec<_>>();
    // Rounding can only collide when max < 2k; fix up monotonically.
    let uppers = enforce_strictly_increasing(uppers, max);
    LengthPartition::from_uppers(uppers)
}

/// Equi-frequency cut: each range holds roughly `total/k` records.
pub fn equal_depth(hist: &LengthHistogram, k: usize) -> LengthPartition {
    assert!(k >= 1, "need at least one partition");
    let max = padded_domain(hist.max_len(), k);
    if hist.is_empty() {
        return equal_width(max, k);
    }
    let target = hist.total() as f64 / k as f64;
    let mut uppers = Vec::with_capacity(k);
    let mut cum = 0u64;
    let mut next_cut = target;
    for len in 1..=max {
        cum += hist.count(len);
        if uppers.len() + 1 < k && cum as f64 >= next_cut {
            uppers.push(len);
            next_cut += target;
        }
    }
    // Pad to exactly k bounds (cuts may cluster at the domain end when the
    // mass sits on few lengths); the repair pass redistributes them.
    while uppers.len() < k {
        uppers.push(max);
    }
    let uppers = enforce_strictly_increasing(uppers, max);
    LengthPartition::from_uppers(uppers)
}

/// Exact minimax partition: minimizes the maximum joiner load
/// [`CostModel::range_load`] by dynamic programming over the lengths where
/// the model lets a partition start. A range's load only shrinks as the
/// range does, so for each end the best start is where the load of the
/// parts before it overtakes the last part's, found by binary search:
/// O(k·L·log L).
pub fn load_aware(cost: &CostModel, k: usize) -> LengthPartition {
    assert!(k >= 1, "need at least one partition");
    let starts = cost.starts();
    let m = starts.len();
    let parts = k.min(m);

    // best[e]: the least maximum load of starts 0..=e in j parts, and
    // first[j − 2][e] the first start of the last of them.
    let mut best: Vec<f64> = (0..m).map(|e| cost.load(0, e)).collect();
    let mut first: Vec<Vec<usize>> = Vec::with_capacity(parts.saturating_sub(1));
    for j in 2..=parts {
        let mut next = vec![f64::INFINITY; m];
        let mut start = vec![0; m];
        for e in j - 1..m {
            // The last part is s..=e with s in j − 1..=e: `best[s − 1]`
            // grows with s and `load(s, e)` shrinks. Find the first s
            // where the former reaches the latter; the optimum is there or
            // just before.
            let (mut lo, mut hi) = (j - 1, e + 1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if best[mid - 1] >= cost.load(mid, e) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let before = (lo > j - 1).then(|| cost.load(lo - 1, e));
            (start[e], next[e]) = match before {
                Some(v) if lo > e || v < best[lo - 1] => (lo - 1, v),
                _ => (lo, best[lo - 1]),
            };
        }
        best = next;
        first.push(start);
    }

    let max = padded_domain(cost.max_len(), k);
    let mut uppers = vec![max; parts];
    let mut e = m - 1;
    for j in (1..parts).rev() {
        let s = first[j - 1][e];
        uppers[j - 1] = starts[s] - 1;
        e = s - 1;
    }
    // Fewer starts than parts: the repair pass spreads the missing bounds
    // below the domain end.
    uppers.resize(k, max);
    LengthPartition::from_uppers(enforce_strictly_increasing(uppers, max))
}

/// The same minimax partition by binary search on the load budget with a
/// greedy sweep: each part takes the longest run of starts within the
/// budget. Loads are whole numbers, so the search ends on the optimum.
pub fn load_aware_greedy(cost: &CostModel, k: usize) -> LengthPartition {
    assert!(k >= 1, "need at least one partition");
    let max = padded_domain(cost.max_len(), k);
    if cost.total() <= 0.0 || k == 1 {
        return equal_width(max, k);
    }
    let starts = cost.starts();
    let m = starts.len();
    // The last start of each part of a sweep within `budget`, or None
    // past k parts.
    let sweep = |budget: f64| -> Option<Vec<usize>> {
        let mut ends = Vec::with_capacity(k);
        let mut s = 0;
        while s < m {
            if ends.len() == k || cost.load(s, s) > budget {
                return None;
            }
            let (mut lo, mut hi) = (s, m - 1);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if cost.load(s, mid) <= budget {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            ends.push(lo);
            s = lo + 1;
        }
        Some(ends)
    };

    // `lo` is infeasible and `hi` feasible throughout.
    let (mut lo, mut hi) = (-1.0f64, cost.total());
    while hi - lo > 1.0 {
        let mid = ((lo + hi) / 2.0).floor();
        if sweep(mid).is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let ends = sweep(hi).expect("hi is feasible by construction");
    let mut uppers: Vec<usize> = ends
        .iter()
        .map(|&e| starts.get(e + 1).map_or(max, |s| s - 1))
        .collect();
    uppers.resize(k, max);
    LengthPartition::from_uppers(enforce_strictly_increasing(uppers, max))
}

/// Max-load / average-load ratio of a partition under a cost model
/// (1.0 = perfectly balanced; returns 1.0 when there is no load at all).
pub fn imbalance(partition: &LengthPartition, cost: &CostModel) -> f64 {
    let loads = partition.loads(cost);
    let total: f64 = loads.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let avg = total / loads.len() as f64;
    loads.iter().fold(0.0f64, |a, &b| a.max(b)) / avg
}

/// Repairs a non-decreasing bound list into strictly increasing bounds
/// ending at `max` (needed when rounding or zero-load regions collide
/// cuts). The result still covers `[1, max]` with the same part count.
fn enforce_strictly_increasing(mut uppers: Vec<usize>, max: usize) -> Vec<usize> {
    let k = uppers.len();
    debug_assert!(max >= k, "domain must admit k non-empty ranges");
    // Forward pass: each bound at least its index + 1 (may overshoot max).
    for i in 0..k {
        let min_allowed = if i == 0 { 1 } else { uppers[i - 1] + 1 };
        if uppers[i] < min_allowed {
            uppers[i] = min_allowed;
        }
    }
    // Pin the domain end, then sweep backward leaving room for later
    // ranges; since max >= k this cannot push a bound below its floor.
    uppers[k - 1] = max;
    for i in (0..k - 1).rev() {
        let max_allowed = uppers[i + 1] - 1;
        if uppers[i] > max_allowed {
            uppers[i] = max_allowed;
        }
    }
    uppers
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssj_core::Threshold;

    fn hist(pairs: &[(usize, u64)]) -> LengthHistogram<'static> {
        let mut h = LengthHistogram::new();
        for &(len, n) in pairs {
            for _ in 0..n {
                h.add(len);
            }
        }
        h
    }

    fn check_invariants(p: &LengthPartition, k: usize, max: usize) {
        assert_eq!(p.k(), k);
        assert_eq!(p.domain_max(), max.max(k));
        // Contiguous, disjoint, covering.
        let mut expected_lo = 1;
        for i in 0..k {
            let (lo, hi) = p.range(i);
            assert_eq!(lo, expected_lo);
            assert!(hi >= lo);
            expected_lo = hi + 1;
        }
        // Every length maps into the range that contains it.
        for len in 1..=p.domain_max() {
            let i = p.partition_of(len);
            let (lo, hi) = p.range(i);
            assert!((lo..=hi).contains(&len), "len {len} not in part {i}");
        }
        // Clamping beyond the domain.
        assert_eq!(p.partition_of(p.domain_max() + 100), k - 1);
    }

    #[test]
    fn equal_width_invariants() {
        check_invariants(&equal_width(100, 4), 4, 100);
        check_invariants(&equal_width(7, 7), 7, 7);
        check_invariants(&equal_width(3, 8), 8, 8); // padded domain
    }

    #[test]
    fn equal_depth_balances_counts() {
        let h = hist(&[(1, 70), (2, 10), (3, 10), (4, 10)]);
        let p = equal_depth(&h, 2);
        // 70% of records have length 1: the first cut must be at 1.
        assert_eq!(p.range(0), (1, 1));
        check_invariants(&p, 2, 4);
    }

    #[test]
    fn load_aware_beats_equal_width_on_skew() {
        let mut h = LengthHistogram::new();
        for _ in 0..10_000 {
            h.add(3);
        }
        for _ in 0..100 {
            h.add(40);
        }
        let cost = CostModel::build(&h, Threshold::jaccard(0.8), 64);
        let la = load_aware(&cost, 4);
        let ew = equal_width(64, 4);
        // Loads are not additive (a probe reaching two joiners costs two
        // messages), so the partitions' totals differ: compare what
        // load-aware minimizes, the busiest joiner's load.
        let maxload = |p: &LengthPartition| p.loads(&cost).into_iter().fold(0.0f64, f64::max);
        assert!(
            maxload(&la) <= maxload(&ew),
            "load-aware {} vs equal-width {}",
            maxload(&la),
            maxload(&ew)
        );
        check_invariants(&la, 4, 64);
    }

    #[test]
    fn dp_is_at_least_as_good_as_greedy_and_depth() {
        let h = hist(&[(2, 500), (3, 2000), (4, 1500), (8, 300), (20, 50), (40, 5)]);
        let cost = CostModel::build(&h, Threshold::jaccard(0.7), 48);
        for k in [2, 3, 4, 6, 8] {
            let dp = load_aware(&cost, k);
            let gr = load_aware_greedy(&cost, k);
            let ed = equal_depth(&h, k);
            let maxload = |p: &LengthPartition| p.loads(&cost).into_iter().fold(0.0f64, f64::max);
            assert!(
                maxload(&dp) <= maxload(&gr) * (1.0 + 1e-4),
                "k={k}: dp {} > greedy {}",
                maxload(&dp),
                maxload(&gr)
            );
            assert!(
                maxload(&dp) <= maxload(&ed) * (1.0 + 1e-9),
                "k={k}: dp worse than equal-depth"
            );
        }
    }

    #[test]
    fn imbalance_of_uniform_is_near_one() {
        let mut h = LengthHistogram::new();
        for len in 1..=64 {
            for _ in 0..100 {
                h.add(len);
            }
        }
        let cost = CostModel::build(&h, Threshold::jaccard(0.9), 64);
        let p = load_aware(&cost, 4);
        assert!(imbalance(&p, &cost) < 1.2, "got {}", imbalance(&p, &cost));
    }

    #[test]
    fn single_partition_is_everything() {
        let h = hist(&[(5, 10)]);
        let cost = CostModel::build(&h, Threshold::jaccard(0.8), 10);
        let p = load_aware(&cost, 1);
        assert_eq!(p.k(), 1);
        assert_eq!(p.range(0), (1, 10));
    }

    #[test]
    fn empty_cost_degrades_gracefully() {
        let cost = CostModel::build(&LengthHistogram::new(), Threshold::jaccard(0.8), 20);
        check_invariants(&load_aware(&cost, 4), 4, 20);
        check_invariants(&load_aware_greedy(&cost, 4), 4, 20);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_uppers_rejects_duplicates() {
        let _ = LengthPartition::from_uppers(vec![3, 3, 5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn partitions_always_cover_and_disjoint(
            lens in proptest::collection::vec((1usize..80, 1u64..50), 1..20),
            k in 1usize..10,
            tau in 0.5f64..0.95,
        ) {
            let mut h = LengthHistogram::new();
            for &(len, n) in &lens {
                for _ in 0..n {
                    h.add(len);
                }
            }
            let cost = CostModel::build(&h, Threshold::jaccard(tau), h.max_len());
            for p in [
                equal_width(h.max_len(), k),
                equal_depth(&h, k),
                load_aware(&cost, k),
                load_aware_greedy(&cost, k),
            ] {
                prop_assert_eq!(p.k(), k);
                let mut expected_lo = 1;
                for i in 0..k {
                    let (lo, hi) = p.range(i);
                    prop_assert_eq!(lo, expected_lo);
                    prop_assert!(hi >= lo);
                    expected_lo = hi + 1;
                }
                prop_assert!(p.domain_max() >= h.max_len());
            }
        }

        #[test]
        fn dp_minimax_not_worse_than_baselines(
            lens in proptest::collection::vec((1usize..60, 1u64..100), 2..15),
            k in 2usize..8,
        ) {
            let mut h = LengthHistogram::new();
            for &(len, n) in &lens {
                for _ in 0..n {
                    h.add(len);
                }
            }
            let cost = CostModel::build(&h, Threshold::jaccard(0.8), h.max_len());
            let maxload = |p: &LengthPartition| {
                p.loads(&cost).into_iter().fold(0.0f64, f64::max)
            };
            let dp = load_aware(&cost, k);
            for other in [equal_width(h.max_len(), k), equal_depth(&h, k),
                          load_aware_greedy(&cost, k)] {
                prop_assert!(maxload(&dp) <= maxload(&other) * (1.0 + 1e-6),
                    "dp {} vs {:?} {}", maxload(&dp), other, maxload(&other));
            }
        }
    }
}
