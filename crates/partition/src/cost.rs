//! The local-join cost model behind load-aware partitioning.
//!
//! Under length-based routing a joiner owning the lengths `[a, b]` pays for
//! three kinds of work, and the model counts each on the calibration
//! sample:
//!
//! * **engine messages** — one per record whose partner-length window
//!   `[min_len(ℓ), max_len(ℓ)]` reaches `[a, b]`;
//! * **posting hits** — a probe reads the posting lists of its prefix
//!   tokens, and each list holds every record of `[a, b]` that posted the
//!   token: the length filter drops a partner only *after* its hit, so a
//!   joiner owning a wide range pays for all of it. The probe's prefix is
//!   as long as the joiner's shortest stored record needs
//!   (`ProbeBounds::probe_prefix_len`), so it shrinks as `a` grows;
//! * **merges** — every length-compatible candidate pair (a record of
//!   `[a, b]` that shares a scanned token with the probe) is verified: a
//!   fixed price per pair, plus one per token of the two records.
//!
//! The counts come from the records' prefix tokens alone — no clock, no
//! join run. A probe's index is taken to be the rest of the sample: every
//! sample record probes every other one. Past [`PAIR_RECORDS`] records or
//! [`POSTING_BUDGET`] prefix tokens the sample is thinned to every `q`-th
//! record, and each pair it counts stands for `q²`.
//!
//! Each unit of work lands on the joiner owning `[a, b]` exactly when
//! `a ≤ x` and `y ≤ b`, for two lengths `(x, y)` the unit fixes:
//!
//! | unit | `x` | `y` |
//! |---|---|---|
//! | message of a length-`ℓp` probe | `max_len(ℓp)` | `min_len(ℓp)` |
//! | hit on a length-`ℓ` record, probe position `i` | `min(ℓ, g)` | `max(ℓ, min_len(ℓp))` |
//! | pair with a length-`ℓ` record, first shared at `i` | `min(ℓ, g)` | `ℓ` |
//!
//! where `g` is the longest sample length that, as a joiner's shortest
//! stored record, still has the probe scan position `i`. The model adds
//! the priced units into a length × length matrix whose 2-D prefix sums
//! give the load of any range `[a, b]` in O(1). Loads are not sums of
//! per-length masses: they depend on the whole range.
//!
//! The prices are fixed weights in half-nanoseconds, fitted by least
//! squares to the wall time of single-joiner bundle-join replays over
//! hundreds of length ranges of the benchmark's tweet, aol and enron
//! streams against their exact counters, and converted to the sample's
//! units (a sample pair's merge tokens stand for about a third as many
//! verification steps, which cost ~1.5 ns each): [`MESSAGE_COST`],
//! [`HIT_COST`], [`PAIR_COST`], [`MERGE_TOKEN_COST`].

use crate::histogram::LengthHistogram;
use ssj_core::Threshold;
use ssj_text::FxHashMap;

/// Price of one engine message at a joiner (~400 ns): receive, bounds,
/// window upkeep and the insert of a record it owns.
pub const MESSAGE_COST: u64 = 800;
/// Price of one posting hit (~65 ns): the posting read and the candidate
/// it opens or finds.
pub const HIT_COST: u64 = 130;
/// Fixed price of one length-compatible candidate pair (~30 ns): its
/// verification call, and its result when it matches.
pub const PAIR_COST: u64 = 60;
/// Price per token of a candidate pair's two records (~0.5 ns).
pub const MERGE_TOKEN_COST: u64 = 1;
/// Sample records the model pairs up before it thins the sample.
pub const PAIR_RECORDS: usize = 2500;
/// Prefix tokens the model reads before it thins the sample.
pub const POSTING_BUDGET: usize = 1 << 15;
/// Most lengths at which the model lets a partition start: past it,
/// neighbouring sample lengths share one start.
pub const MAX_STARTS: usize = 256;

/// Range loads of a length domain, O(1) each.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// The lengths at which a partition may start, ascending from 1.
    starts: Vec<usize>,
    /// `start_of[ℓ]`: the index of the last start at or below `ℓ`.
    start_of: Vec<u32>,
    /// `cum[s·m + e]`: the priced units of a joiner owning the starts
    /// `s..=e` — those with `start_of[x] ≥ s` and `start_of[y] ≤ e`.
    cum: Vec<u64>,
    max_len: usize,
}

impl CostModel {
    /// Derives the model from a histogram's sample under a threshold.
    /// `max_len` bounds the length domain (lengths above it are clamped by
    /// routing).
    pub fn build(hist: &LengthHistogram, threshold: Threshold, max_len: usize) -> Self {
        let max_len = max_len.max(hist.max_len()).max(1);
        let starts = partition_starts(hist, max_len);
        let mut start_of = vec![0u32; max_len + 1];
        let mut s = 0;
        for (len, at) in start_of.iter_mut().enumerate().skip(1) {
            if starts.get(s + 1) == Some(&len) {
                s += 1;
            }
            *at = s as u32;
        }

        let m = starts.len();
        let mut cum = vec![0u64; m * m];
        // A unit at lengths (x, y) lands in the cell of their starts.
        let mut add = |s: u32, e: u32, price: u64| cum[s as usize * m + e as usize] += price;
        for len in 1..=hist.max_len() {
            let f = hist.count(len);
            if f > 0 {
                let hi = threshold.max_len_clamped(len, max_len);
                add(
                    start_of[hi],
                    start_of[threshold.min_len(len)],
                    f * MESSAGE_COST,
                );
            }
        }
        Self::count_pairs(hist, threshold, max_len, (&starts, &start_of), &mut add);

        // Prefix sums along e, then suffix sums along s.
        for row in cum.chunks_mut(m) {
            for e in 1..m {
                row[e] += row[e - 1];
            }
        }
        for s in (0..m - 1).rev() {
            let (lower, upper) = cum.split_at_mut((s + 1) * m);
            for (c, u) in lower[s * m..].iter_mut().zip(&upper[..m]) {
                *c += u;
            }
        }
        Self {
            starts,
            start_of,
            cum,
            max_len,
        }
    }

    /// Adds the hit and merge units of every (probe, indexed record) pair
    /// of the (thinned) sample.
    fn count_pairs(
        hist: &LengthHistogram,
        t: Threshold,
        max_len: usize,
        (starts, start_of): (&[usize], &[u32]),
        add: &mut impl FnMut(u32, u32, u64),
    ) {
        // Per sample length: its streaming prefix and partner window.
        let mut bounds = vec![(0, 0, 0); max_len + 1];
        for len in (1..=max_len).filter(|&len| hist.count(len) > 0) {
            bounds[len] = (
                t.prefix_len(len),
                t.min_len(len),
                t.max_len_clamped(len, max_len),
            );
        }
        // The shortest stored lengths a joiner can have: the sample's first
        // length for the joiner starting at 1, its start for any other.
        let first = (1..=max_len).find(|&len| hist.count(len) > 0).unwrap_or(1);
        let mut floors: Vec<usize> = starts.iter().map(|&s| s.max(first)).collect();
        floors.retain(|&f| hist.count(f) > 0);
        floors.dedup();

        let sample = hist.sample();
        let tokens: usize = sample.iter().map(|r| bounds[r.len()].0).sum();
        let q = sample
            .len()
            .div_ceil(PAIR_RECORDS)
            .max(tokens.div_ceil(POSTING_BUDGET))
            .max(1);
        let weight = (q * q) as u64;
        let thinned: Vec<_> = sample.iter().step_by(q).collect();

        // Posting lists over the thinned sample, one run of `postings` per
        // token: `runs[slot - 1]..runs[slot]` for the token's `slot` (1..).
        // `slots` lists each record's prefix tokens as slots, in order.
        let capacity = tokens.div_ceil(q);
        let mut slot_of = FxHashMap::with_capacity_and_hasher(capacity, Default::default());
        let mut slots = Vec::with_capacity(capacity);
        let mut runs = vec![0u32];
        for rec in &thinned {
            for &tok in rec.prefix(bounds[rec.len()].0) {
                let slot = *slot_of.entry(tok).or_insert_with(|| {
                    runs.push(0);
                    runs.len() as u32 - 1
                });
                runs[slot as usize] += 1;
                slots.push(slot);
            }
        }
        // Counts to run starts; filling moves each to its run's end.
        let mut end = 0;
        for run in &mut runs {
            (*run, end) = (end, end + *run);
        }
        // (record, its length, the start of its length)
        let mut postings = vec![(0u32, 0u32, 0u32); slots.len()];
        let mut mine = slots.as_slice();
        for (r, rec) in thinned.iter().enumerate() {
            let (now, rest) = mine.split_at(bounds[rec.len()].0);
            let posting = (r as u32, rec.len() as u32, start_of[rec.len()]);
            for &slot in now {
                postings[runs[slot as usize] as usize] = posting;
                runs[slot as usize] += 1;
            }
            mine = rest;
        }

        // `until[ℓp][i]`: the largest floor at which a length-`ℓp` probe
        // still scans position `i` (0: none), filled on its first probe.
        let mut until: Vec<Vec<u32>> = vec![Vec::new(); max_len + 1];
        let mut seen = vec![u32::MAX; thinned.len()];
        let mut mine = slots.as_slice();
        for (p, probe) in thinned.iter().enumerate() {
            let lp = probe.len();
            let (prefix, lo, hi) = bounds[lp];
            let until = &mut until[lp];
            if until.is_empty() {
                scan_floors(t, lp, (prefix, lo, hi), &floors, until);
            }
            let (now, rest) = mine.split_at(prefix);
            mine = rest;
            // A hit's x is min(ℓ, g) and its y max(ℓ, lo): so are their
            // starts, which only grow with the length.
            let start_lo = start_of[lo];
            for (&slot, &g) in now.iter().zip(until.iter()).filter(|(_, &g)| g > 0) {
                let (slot, start_g) = (slot as usize, start_of[g as usize]);
                for &(r, l, start_l) in &postings[runs[slot - 1] as usize..runs[slot] as usize] {
                    if r as usize == p {
                        continue;
                    }
                    let x = start_l.min(start_g);
                    add(x, start_l.max(start_lo), weight * HIT_COST);
                    let l = l as usize;
                    if (lo..=hi).contains(&l) && seen[r as usize] != p as u32 {
                        seen[r as usize] = p as u32;
                        let merge = PAIR_COST + MERGE_TOKEN_COST * (lp + l) as u64;
                        add(x, start_l, weight * merge);
                    }
                }
            }
        }
    }

    /// The length-domain size the model covers.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The lengths at which a load-aware partition may start.
    pub(crate) fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Load of a joiner owning the starts `s..=e` — the lengths from
    /// `starts[s]` to the one before `starts[e + 1]`, or the domain end.
    #[inline]
    pub(crate) fn load(&self, s: usize, e: usize) -> f64 {
        self.cum[s * self.starts.len() + e] as f64
    }

    /// Load of a joiner owning the lengths `[lo, hi]` (inclusive), O(1) —
    /// exact when `lo` is one of the model's starts and `hi + 1` another
    /// or past the domain end, as in every load-aware partition and, while
    /// the domain has at most [`MAX_STARTS`] lengths, in any partition.
    #[inline]
    pub fn range_load(&self, lo: usize, hi: usize) -> f64 {
        let (lo, hi) = (lo.max(1), hi.min(self.max_len));
        if lo > hi {
            return 0.0;
        }
        self.load(self.start_of[lo] as usize, self.start_of[hi] as usize)
    }

    /// Load of one joiner owning the whole domain.
    pub fn total(&self) -> f64 {
        self.range_load(1, self.max_len)
    }
}

/// Where a partition may start: every length up to `max_len` when there
/// are at most [`MAX_STARTS`], otherwise 1 and each sample length reached
/// once `1/MAX_STARTS` of the sample lies between it and the last start.
fn partition_starts(hist: &LengthHistogram, max_len: usize) -> Vec<usize> {
    if max_len <= MAX_STARTS {
        return (1..=max_len).collect();
    }
    let step = hist.total().div_ceil(MAX_STARTS as u64).max(1);
    let mut starts = vec![1];
    let mut since = 0;
    for len in 1..=hist.max_len() {
        if since >= step && hist.count(len) > 0 {
            starts.push(len);
            since = 0;
        }
        since += hist.count(len);
    }
    starts
}

/// Fills `until[i]`, for each position `i` of a length-`lp` probe's
/// streaming prefix, with the largest of `floors` — the shortest stored
/// lengths a joiner can have, ascending — at which the probe still scans
/// it, or 0 if none. With partner window `[lo, hi]`, a probe scans its whole
/// prefix at a floor up to `lo`, none past `hi`, and `pair_prefix_len(lp,
/// f)` tokens at a floor `f` between, fewer as `f` grows.
fn scan_floors(
    t: Threshold,
    lp: usize,
    (prefix, lo, hi): (usize, usize, usize),
    floors: &[usize],
    until: &mut Vec<u32>,
) {
    until.clear();
    until.resize(prefix, 0);
    let past_lo = floors.partition_point(|&f| f <= lo);
    let mut last = past_lo.checked_sub(1).map_or(0, |i| floors[i]);
    let mut scanned = prefix;
    for &f in floors[past_lo..].iter().take_while(|&&f| f <= hi) {
        let now = t.pair_prefix_len(lp, f).min(scanned);
        until[now..scanned].fill(last as u32);
        (scanned, last) = (now, f);
    }
    until[..scanned].fill(last as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_core::Threshold;
    use ssj_text::{Record, RecordId, TokenId};

    fn hist(pairs: &[(usize, u64)]) -> LengthHistogram<'static> {
        let mut h = LengthHistogram::new();
        for &(len, n) in pairs {
            for _ in 0..n {
                h.add(len);
            }
        }
        h
    }

    fn rec(id: u64, toks: &[u32]) -> Record {
        Record::from_sorted(RecordId(id), 0, toks.iter().copied().map(TokenId).collect())
    }

    #[test]
    fn lengths_alone_price_messages() {
        // tau = 0.5: a length-10 probe reaches [5, 20], a length-18 one
        // [9, 36] (clamped to the domain, 32).
        let h = hist(&[(10, 10), (18, 10)]);
        let m = CostModel::build(&h, Threshold::jaccard(0.5), 32);
        let msg = MESSAGE_COST as f64;
        assert_eq!(m.range_load(1, 32), 20.0 * msg);
        assert_eq!(m.range_load(1, 4), 0.0);
        assert_eq!(m.range_load(5, 8), 10.0 * msg);
        assert_eq!(m.range_load(21, 32), 10.0 * msg);
        assert_eq!(m.range_load(9, 9), 20.0 * msg);
    }

    #[test]
    fn hits_count_the_whole_range_and_pairs_only_the_compatible() {
        // tau = 0.8, all three share token 1 in their prefixes. The
        // length-2 record is no partner of the length-5 ones, yet probes
        // hit its posting, and it theirs, when one joiner owns both lengths.
        let records = [
            rec(0, &[1, 2]),
            rec(1, &[1, 3, 4, 5, 6]),
            rec(2, &[1, 3, 4, 5, 7]),
        ];
        let h = LengthHistogram::from_records(&records);
        let m = CostModel::build(&h, Threshold::jaccard(0.8), 5);
        let msg = MESSAGE_COST as f64;
        let pair = (PAIR_COST + 10 * MERGE_TOKEN_COST) as f64;
        let hit = HIT_COST as f64;
        // Apart: a length-5 probe against a floor of 5 scans one token and
        // hits the other length-5 record once; the length-2 record probes
        // alone.
        assert_eq!(m.range_load(3, 5), 2.0 * msg + 2.0 * hit + 2.0 * pair);
        assert_eq!(m.range_load(1, 2), msg);
        // Together: each length-5 probe also hits the length-2 record and,
        // against a floor of 2, scans its second token, a second hit on the
        // other length-5 record; the length-2 probe hits both. No new pair.
        assert_eq!(m.range_load(1, 5), 3.0 * msg + 8.0 * hit + 2.0 * pair);
    }

    #[test]
    fn a_higher_floor_shortens_the_scanned_prefix() {
        let t = Threshold::jaccard(0.6);
        let bounds = (t.prefix_len(100), t.min_len(100), t.max_len(100).unwrap());
        let (prefix, lo, hi) = bounds;
        let mut until = Vec::new();
        let every: Vec<usize> = (1..=200).collect();
        scan_floors(t, 100, bounds, &every, &mut until);
        assert_eq!(until.len(), prefix);
        for (i, &g) in until.iter().enumerate() {
            let g = g as usize;
            assert!(g == lo || t.pair_prefix_len(100, g) > i, "position {i}");
            assert!(
                g == hi || t.pair_prefix_len(100, g + 1) <= i,
                "position {i}"
            );
        }
        assert!(until.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(until[0] as usize, hi);

        // Sparse floors: each position's last floor that still scans it;
        // a position only floors above the window would scan gets none.
        let sparse = [70, 120, 170];
        scan_floors(t, 100, bounds, &sparse, &mut until);
        for (i, &g) in until.iter().enumerate() {
            let want = sparse
                .iter()
                .copied()
                .filter(|&f| f <= hi && (f <= lo || t.pair_prefix_len(100, f) > i))
                .max()
                .unwrap_or(0);
            assert_eq!(g as usize, want, "position {i}");
        }
        assert!(until.contains(&0) && until.contains(&120));
    }

    #[test]
    fn loads_shrink_with_the_range() {
        let records =
            ssj_workloads::StreamGenerator::new(ssj_workloads::DatasetProfile::tweet(), 3)
                .take_records(2_000);
        let h = LengthHistogram::from_records(&records);
        let m = CostModel::build(&h, Threshold::jaccard(0.8), h.max_len());
        let n = h.max_len();
        for a in 1..=n {
            for b in a..=n {
                let load = m.range_load(a, b);
                assert!(load >= m.range_load(a + 1, b), "[{a}, {b}]");
                assert!(load >= m.range_load(a, b - 1), "[{a}, {b}]");
            }
        }
        assert!(m.range_load(1, 8) + m.range_load(9, n) > m.total());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let m = CostModel::build(&LengthHistogram::new(), Threshold::jaccard(0.7), 16);
        assert_eq!(m.total(), 0.0);
        assert_eq!(m.range_load(1, 16), 0.0);
    }

    #[test]
    fn degenerate_ranges() {
        let h = hist(&[(4, 5)]);
        let m = CostModel::build(&h, Threshold::jaccard(0.9), 8);
        assert_eq!(m.range_load(5, 3), 0.0);
        assert_eq!(m.range_load(100, 200), 0.0);
    }
}
