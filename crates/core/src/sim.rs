//! Similarity measures and the exact filter bounds derived from them.
//!
//! Every filter in this crate is *safe*: it may admit false positives
//! (removed later by verification) but never prunes a pair the acceptance
//! predicate [`Threshold::matches`] would admit. Bounds computed through
//! floating point carry a small slack (`EPS`) in the conservative direction,
//! while the acceptance predicate itself is a single deterministic `f64`
//! comparison used identically by every joiner — which is what makes the
//! "all joiners produce exactly the naive result set" property hold.

/// Slack applied to floating-point bound computations so round-off can
/// never flip a bound in the unsafe direction.
const EPS: f64 = 1e-9;

/// Supported set similarity functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFn {
    /// `|r ∩ s| / |r ∪ s|`
    Jaccard,
    /// `|r ∩ s| / sqrt(|r|·|s|)`
    Cosine,
    /// `2·|r ∩ s| / (|r| + |s|)`
    Dice,
    /// `|r ∩ s| / min(|r|, |s|)` — note: has no length filter, so the
    /// length-based distribution degenerates to probe broadcast.
    Overlap,
}

impl SimFn {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SimFn::Jaccard => "jaccard",
            SimFn::Cosine => "cosine",
            SimFn::Dice => "dice",
            SimFn::Overlap => "overlap",
        }
    }
}

/// A similarity function together with a threshold `τ ∈ (0, 1]`.
///
/// All integer bounds used by the filtering pipeline live here:
///
/// * [`min_len`](Self::min_len) / [`max_len`](Self::max_len) — the lengths a
///   partner set may have (the *length filter*, and the basis of the
///   length-based distribution scheme);
/// * [`min_overlap`](Self::min_overlap) — the smallest intersection size
///   that can reach `τ` for a given length pair;
/// * [`prefix_len`](Self::prefix_len) — the streaming prefix length: two
///   matching records always share a token within each other's prefix of
///   this length (valid for *any* arrival order, unlike the shorter batch
///   "index prefix" which assumes length-sorted processing);
/// * [`pair_prefix_len`](Self::pair_prefix_len) — the same once the
///   partner's length is known: the smallest token two matching records
///   share lies within both pair prefixes;
/// * [`ProbeBounds::probe_prefix_len`] — the probe prefix against an index
///   whose every record is at least a given length long: the pair prefix
///   of the shortest stored length, since `min_overlap` is nondecreasing
///   in the partner length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Threshold {
    sim: SimFn,
    tau: f64,
}

#[inline]
fn ceil_eps(v: f64) -> usize {
    (v - EPS).ceil().max(0.0) as usize
}

#[inline]
fn floor_eps(v: f64) -> usize {
    (v + EPS).floor().max(0.0) as usize
}

/// The prefix of a length-`l` record that must hold a shared token when
/// a match needs `min_overlap` of them: `l − min_overlap + 1`, at least 1.
#[inline]
fn prefix_for(l: usize, min_overlap: usize) -> usize {
    (l + 1).saturating_sub(min_overlap).clamp(1, l.max(1))
}

impl Threshold {
    /// Creates a threshold; panics unless `0 < tau <= 1`.
    pub fn new(sim: SimFn, tau: f64) -> Self {
        assert!(
            tau > 0.0 && tau <= 1.0,
            "similarity threshold must be in (0, 1], got {tau}"
        );
        Self { sim, tau }
    }

    /// Jaccard threshold shorthand (the paper's default measure).
    pub fn jaccard(tau: f64) -> Self {
        Self::new(SimFn::Jaccard, tau)
    }

    /// The similarity function.
    pub fn sim_fn(&self) -> SimFn {
        self.sim
    }

    /// The threshold value τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Exact similarity of a pair given its intersection size and lengths.
    #[inline]
    pub fn similarity(&self, overlap: usize, l1: usize, l2: usize) -> f64 {
        debug_assert!(overlap <= l1.min(l2));
        let o = overlap as f64;
        match self.sim {
            SimFn::Jaccard => o / (l1 + l2 - overlap) as f64,
            SimFn::Cosine => o / ((l1 as f64) * (l2 as f64)).sqrt(),
            SimFn::Dice => 2.0 * o / (l1 + l2) as f64,
            SimFn::Overlap => o / l1.min(l2) as f64,
        }
    }

    /// The acceptance predicate: does this (overlap, lengths) triple match?
    ///
    /// This is the single source of truth every joiner (naive or filtered,
    /// local or distributed) uses, so result sets are bit-identical.
    #[inline]
    pub fn matches(&self, overlap: usize, l1: usize, l2: usize) -> bool {
        overlap > 0 && self.similarity(overlap, l1, l2) >= self.tau
    }

    /// Smallest intersection size that can reach τ for lengths `(l1, l2)`.
    /// Always at least 1.
    #[inline]
    pub fn min_overlap(&self, l1: usize, l2: usize) -> usize {
        let v = match self.sim {
            SimFn::Jaccard => self.tau / (1.0 + self.tau) * (l1 + l2) as f64,
            SimFn::Cosine => self.tau * ((l1 as f64) * (l2 as f64)).sqrt(),
            SimFn::Dice => self.tau * (l1 + l2) as f64 / 2.0,
            SimFn::Overlap => self.tau * l1.min(l2) as f64,
        };
        ceil_eps(v).max(1)
    }

    /// Smallest partner length that can match a record of length `l`.
    /// Always at least 1.
    #[inline]
    pub fn min_len(&self, l: usize) -> usize {
        let v = match self.sim {
            SimFn::Jaccard => self.tau * l as f64,
            SimFn::Cosine => self.tau * self.tau * l as f64,
            SimFn::Dice => self.tau * l as f64 / (2.0 - self.tau),
            SimFn::Overlap => return 1,
        };
        ceil_eps(v).max(1)
    }

    /// Largest partner length that can match a record of length `l`, or
    /// `None` when unbounded (Overlap similarity).
    #[inline]
    pub fn max_len(&self, l: usize) -> Option<usize> {
        let v = match self.sim {
            SimFn::Jaccard => l as f64 / self.tau,
            SimFn::Cosine => l as f64 / (self.tau * self.tau),
            SimFn::Dice => l as f64 * (2.0 - self.tau) / self.tau,
            SimFn::Overlap => return None,
        };
        Some(floor_eps(v))
    }

    /// `max_len` clamped to a known maximum record length in the stream.
    #[inline]
    pub fn max_len_clamped(&self, l: usize, domain_max: usize) -> usize {
        self.max_len(l).unwrap_or(domain_max).min(domain_max)
    }

    /// Whether the partner length check admits `l_partner` for `l`.
    #[inline]
    pub fn length_compatible(&self, l: usize, l_partner: usize) -> bool {
        l_partner >= self.min_len(l) && self.max_len(l).is_none_or(|m| l_partner <= m)
    }

    /// The streaming prefix length for a record of length `l`.
    ///
    /// Any two matching records share at least one token inside each
    /// other's first `prefix_len` tokens, regardless of which arrived
    /// first. Derived as `l − min_overlap(l, min_len(l)) + 1`, which is the
    /// loosest pair-specific prefix over all admissible partner lengths
    /// (min_overlap is non-decreasing in the partner length for every
    /// supported measure).
    #[inline]
    pub fn prefix_len(&self, l: usize) -> usize {
        prefix_for(l, self.min_overlap(l, self.min_len(l)))
    }

    /// Pair-specific prefix length once both lengths are known (tighter than
    /// [`prefix_len`](Self::prefix_len); used for position-based pruning).
    #[inline]
    pub fn pair_prefix_len(&self, l: usize, l_partner: usize) -> usize {
        prefix_for(l, self.min_overlap(l, l_partner))
    }
}

/// Integer pruning bounds per probe length, memoized across probes.
///
/// [`Threshold::min_overlap`] and [`Threshold::length_compatible`] go
/// through `f64` (a multiply plus an ε-guarded ceil) on every call, which
/// is wasteful when every probe evaluates candidates that share the
/// probe-side length. This memo caches, *per probe length*, the admissible
/// partner-length window and a `min_overlap` table over it; since streams
/// draw record lengths from a small set, each table is built once per
/// joiner lifetime and [`rebuild`](Self::rebuild) is normally just an
/// array lookup. The hot path then reduces the length filter to two
/// integer compares and the overlap bound to a table load. Every stored
/// value comes from the same `Threshold` methods, so filtering decisions
/// are identical by construction (partner or probe lengths past the memo
/// spans — possible only for the unbounded Overlap measure or extreme
/// lengths — fall back to the direct computation).
#[derive(Debug, Clone)]
pub struct ProbeBounds {
    t: Threshold,
    /// Memo entries indexed by probe length (lazily filled).
    entries: Vec<Option<BoundsEntry>>,
    /// Entry for an out-of-span probe length, rebuilt per probe.
    scratch: BoundsEntry,
    /// Probe length of the current entry, or `usize::MAX` → scratch.
    cur: usize,
    /// Current probe length.
    l: usize,
    /// Current admissible partner lengths are `lo..=hi` (`hi == usize::MAX`
    /// when the measure has no upper length bound).
    lo: usize,
    hi: usize,
    /// The current `min_ov` table covers `ls ∈ lo..table_end`.
    table_end: usize,
    /// [`Threshold::prefix_len`] of the current probe length.
    prefix_len: usize,
}

/// One probe length's memoized bounds.
#[derive(Debug, Clone, Default)]
struct BoundsEntry {
    lo: usize,
    hi: usize,
    table_end: usize,
    prefix_len: usize,
    /// `min_ov[ls - lo]` for `ls ∈ lo..table_end`.
    min_ov: Vec<usize>,
}

impl BoundsEntry {
    fn build(t: Threshold, l: usize, into: &mut Self) {
        into.lo = t.min_len(l);
        into.hi = t.max_len(l).unwrap_or(usize::MAX);
        into.table_end = into
            .hi
            .saturating_add(1)
            .min(into.lo + ProbeBounds::TABLE_SPAN);
        into.prefix_len = t.prefix_len(l);
        into.min_ov.clear();
        into.min_ov
            .extend((into.lo..into.table_end).map(|ls| t.min_overlap(l, ls)));
    }
}

impl ProbeBounds {
    /// Partner lengths memoized per entry; beyond this the accessor falls
    /// back to the direct float computation.
    const TABLE_SPAN: usize = 256;
    /// Probe lengths memoized by the entry array; longer probes use the
    /// per-probe scratch entry.
    const CACHE_SPAN: usize = 4096;

    /// An empty memo for the given threshold; call
    /// [`rebuild`](Self::rebuild) before each probe.
    pub fn new(t: Threshold) -> Self {
        Self {
            t,
            entries: Vec::new(),
            scratch: BoundsEntry::default(),
            cur: usize::MAX,
            l: 0,
            lo: 1,
            hi: 0,
            table_end: 0,
            prefix_len: 0,
        }
    }

    /// Points the memo at probe length `l`, computing its entry on first
    /// encounter (amortized: a cache hit is two array loads).
    pub fn rebuild(&mut self, l: usize) {
        if l == self.l && self.cur == l {
            return;
        }
        self.l = l;
        let entry = if l < Self::CACHE_SPAN {
            if self.entries.len() <= l {
                self.entries.resize(l + 1, None);
            }
            self.cur = l;
            self.entries[l].get_or_insert_with(|| {
                let mut e = BoundsEntry::default();
                BoundsEntry::build(self.t, l, &mut e);
                e
            })
        } else {
            self.cur = usize::MAX;
            BoundsEntry::build(self.t, l, &mut self.scratch);
            &self.scratch
        };
        self.lo = entry.lo;
        self.hi = entry.hi;
        self.table_end = entry.table_end;
        self.prefix_len = entry.prefix_len;
    }

    /// [`Threshold::prefix_len`] for the memoized probe length.
    #[inline]
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// The probe prefix the memoized length needs against an index whose
    /// every record is at least `floor` tokens long:
    /// [`prefix_len`](Self::prefix_len) when `floor ≤ min_len(l)`, 0 when
    /// `floor > max_len(l)` or `floor` is `usize::MAX` (an index that has
    /// stored nothing), and [`Threshold::pair_prefix_len`]`(l, floor)`
    /// otherwise.
    ///
    /// Exact: `min_overlap` is nondecreasing in the partner length, so for
    /// every stored partner `s` the pair prefix `pair_prefix_len(l, |s|)`
    /// — which holds the smallest token the two share, if they match — is
    /// no longer than this.
    #[inline]
    pub fn probe_prefix_len(&self, floor: usize) -> usize {
        if floor <= self.lo {
            self.prefix_len
        } else if floor > self.hi || floor == usize::MAX {
            0
        } else {
            prefix_for(self.l, self.min_overlap(floor))
        }
    }

    #[inline]
    fn min_ov_table(&self) -> &[usize] {
        if self.cur == usize::MAX {
            &self.scratch.min_ov
        } else {
            // The entry exists: `rebuild` filled it when setting `cur`.
            match &self.entries[self.cur] {
                Some(e) => &e.min_ov,
                None => &[],
            }
        }
    }

    /// [`Threshold::length_compatible`] for the memoized probe length.
    #[inline]
    pub fn length_compatible(&self, l_partner: usize) -> bool {
        l_partner >= self.lo && l_partner <= self.hi
    }

    /// [`Threshold::min_overlap`] for the memoized probe length.
    #[inline]
    pub fn min_overlap(&self, l_partner: usize) -> usize {
        if l_partner >= self.lo && l_partner < self.table_end {
            self.min_ov_table()[l_partner - self.lo]
        } else {
            self.t.min_overlap(self.l, l_partner)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn jaccard_bounds_match_hand_computation() {
        let t = Threshold::jaccard(0.8);
        // l=10: min_len = ceil(8) = 8, max_len = floor(12.5) = 12
        assert_eq!(t.min_len(10), 8);
        assert_eq!(t.max_len(10), Some(12));
        // min_overlap(10,10) = ceil(0.8/1.8*20) = ceil(8.888) = 9
        assert_eq!(t.min_overlap(10, 10), 9);
        // prefix = 10 - min_overlap(10, 8) + 1 = 10 - 8 + 1 = 3
        assert_eq!(t.min_overlap(10, 8), 8);
        assert_eq!(t.prefix_len(10), 3);
    }

    #[test]
    fn cosine_bounds() {
        let t = Threshold::new(SimFn::Cosine, 0.5);
        assert_eq!(t.min_len(16), 4); // ceil(0.25*16)
        assert_eq!(t.max_len(16), Some(64)); // floor(16/0.25)
        assert_eq!(t.min_overlap(16, 16), 8); // ceil(0.5*16)
    }

    #[test]
    fn dice_bounds() {
        let t = Threshold::new(SimFn::Dice, 0.8);
        // min_len(12) = ceil(0.8*12/1.2) = 8; max_len = floor(12*1.2/0.8) = 18
        assert_eq!(t.min_len(12), 8);
        assert_eq!(t.max_len(12), Some(18));
        assert_eq!(t.min_overlap(10, 14), 10); // ceil(0.8*24/2) = 10
    }

    #[test]
    fn overlap_has_no_length_filter() {
        let t = Threshold::new(SimFn::Overlap, 0.7);
        assert_eq!(t.min_len(100), 1);
        assert_eq!(t.max_len(100), None);
        assert!(t.length_compatible(100, 1_000_000));
        // Prefix degenerates to the whole record.
        assert_eq!(t.prefix_len(10), 10);
    }

    #[test]
    fn tau_one_means_equality() {
        let t = Threshold::jaccard(1.0);
        assert_eq!(t.min_len(7), 7);
        assert_eq!(t.max_len(7), Some(7));
        assert_eq!(t.min_overlap(7, 7), 7);
        assert_eq!(t.prefix_len(7), 1);
        assert!(t.matches(7, 7, 7));
        assert!(!t.matches(6, 7, 7));
    }

    #[test]
    fn similarity_values() {
        let j = Threshold::jaccard(0.5);
        assert!((j.similarity(2, 3, 3) - 0.5).abs() < 1e-12);
        let c = Threshold::new(SimFn::Cosine, 0.5);
        assert!((c.similarity(2, 4, 4) - 0.5).abs() < 1e-12);
        let d = Threshold::new(SimFn::Dice, 0.5);
        assert!((d.similarity(2, 4, 4) - 0.5).abs() < 1e-12);
        let o = Threshold::new(SimFn::Overlap, 0.5);
        assert!((o.similarity(2, 4, 8) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_overlap_never_matches() {
        for f in [SimFn::Jaccard, SimFn::Cosine, SimFn::Dice, SimFn::Overlap] {
            let t = Threshold::new(f, 0.1);
            assert!(!t.matches(0, 5, 5));
        }
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn zero_tau_rejected() {
        let _ = Threshold::jaccard(0.0);
    }

    #[test]
    fn max_len_clamped_respects_domain() {
        let t = Threshold::jaccard(0.5);
        assert_eq!(t.max_len_clamped(10, 15), 15); // floor(20) clamped
        assert_eq!(t.max_len_clamped(10, 100), 20);
        let o = Threshold::new(SimFn::Overlap, 0.5);
        assert_eq!(o.max_len_clamped(10, 64), 64);
    }

    fn all_fns() -> Vec<SimFn> {
        vec![SimFn::Jaccard, SimFn::Cosine, SimFn::Dice, SimFn::Overlap]
    }

    proptest! {
        /// min_overlap is the true threshold point: overlap = min_overlap
        /// matches (when feasible), overlap = min_overlap - 1 does not.
        #[test]
        fn min_overlap_is_tight(
            f_idx in 0usize..4, tau in 0.05f64..=1.0,
            l1 in 1usize..200, l2 in 1usize..200,
        ) {
            let t = Threshold::new(all_fns()[f_idx], tau);
            let mo = t.min_overlap(l1, l2);
            if mo <= l1.min(l2) {
                prop_assert!(t.matches(mo, l1, l2),
                    "min_overlap {mo} should match for l=({l1},{l2}) tau={tau}");
            }
            if mo > 1 && mo - 1 <= l1.min(l2) {
                prop_assert!(!t.matches(mo - 1, l1, l2),
                    "min_overlap-1 must not match");
            }
        }

        /// The length filter is safe: any pair of lengths that can host a
        /// matching overlap is length_compatible.
        #[test]
        fn length_filter_is_safe(
            f_idx in 0usize..4, tau in 0.05f64..=1.0,
            l1 in 1usize..150, l2 in 1usize..150,
        ) {
            let t = Threshold::new(all_fns()[f_idx], tau);
            let best = l1.min(l2); // overlap of a containment pair
            if t.matches(best, l1, l2) {
                prop_assert!(t.length_compatible(l1, l2),
                    "lengths ({l1},{l2}) host a match at tau={tau} but were filtered");
                prop_assert!(t.length_compatible(l2, l1), "length filter must be symmetric-safe");
            }
        }

        /// min_overlap is non-decreasing in the partner length — the
        /// monotonicity prefix_len relies on.
        #[test]
        fn min_overlap_monotone_in_partner(
            f_idx in 0usize..4, tau in 0.05f64..=1.0, l in 1usize..150,
        ) {
            let t = Threshold::new(all_fns()[f_idx], tau);
            let mut prev = 0;
            for lp in 1..=160usize {
                let mo = t.min_overlap(l, lp);
                prop_assert!(mo >= prev);
                prev = mo;
            }
        }

        /// prefix_len is the loosest pair prefix over admissible partners.
        #[test]
        fn prefix_covers_all_pairs(
            f_idx in 0usize..4, tau in 0.05f64..=1.0, l in 1usize..150,
        ) {
            let t = Threshold::new(all_fns()[f_idx], tau);
            let p = t.prefix_len(l);
            let hi = t.max_len_clamped(l, 300);
            for lp in t.min_len(l)..=hi {
                prop_assert!(t.pair_prefix_len(l, lp) <= p);
            }
        }
    }
}
