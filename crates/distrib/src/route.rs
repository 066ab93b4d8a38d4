//! Routing strategies: which joiners index and which probe each record.

use ssj_core::Threshold;
use ssj_partition::LengthPartition;
use ssj_text::{Record, TokenId};
use std::hash::Hasher;

/// Where one record must go.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteDecision {
    /// Joiners that must store the record (deduplicated, sorted).
    pub index: Vec<usize>,
    /// Joiners that must probe with the record (deduplicated, sorted).
    pub probe: Vec<usize>,
}

impl RouteDecision {
    /// Total messages this decision costs (targets in both sets are served
    /// by one combined probe-and-index message).
    pub fn message_count(&self) -> usize {
        let both = self
            .index
            .iter()
            .filter(|t| self.probe.binary_search(t).is_ok())
            .count();
        self.index.len() + self.probe.len() - both
    }
}

/// A record-routing strategy for `k` joiners.
pub trait Router: Send {
    // (implemented below for Box<dyn Router + Send> so routers can be
    // chosen at runtime)

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Number of joiners routed to.
    fn k(&self) -> usize;

    /// Computes the index/probe targets of one record.
    fn route(&mut self, record: &Record) -> RouteDecision;

    /// [`route`](Self::route) into `decision`, overwriting whatever it held:
    /// a router that overrides this fills the two vectors in place, so a
    /// caller reusing one decision routes without allocating.
    fn route_into(&mut self, record: &Record, decision: &mut RouteDecision) {
        *decision = self.route(record);
    }

    /// Whether duplicate result pairs are possible (the joiner layer then
    /// enables exact smallest-common-token deduplication).
    fn needs_result_dedup(&self) -> bool {
        false
    }

    /// The length partition this router currently routes by, if it is a
    /// length-based router — persisted in checkpoint manifests so a
    /// restored topology resumes with the same routing instead of
    /// recalibrating on a truncated sample. `None` for partition-free
    /// routers (prefix, broadcast).
    fn length_partition(&self) -> Option<&LengthPartition> {
        None
    }
}

impl Router for Box<dyn Router + Send> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn k(&self) -> usize {
        self.as_ref().k()
    }

    fn route(&mut self, record: &Record) -> RouteDecision {
        self.as_mut().route(record)
    }

    fn route_into(&mut self, record: &Record, decision: &mut RouteDecision) {
        self.as_mut().route_into(record, decision)
    }

    fn needs_result_dedup(&self) -> bool {
        self.as_ref().needs_result_dedup()
    }

    fn length_partition(&self) -> Option<&LengthPartition> {
        self.as_ref().length_partition()
    }
}

/// The joiner owning a token under hash partitioning of the token space.
/// Shared by the prefix router (dispatch side) and the result dedup
/// (joiner side) — both must agree.
#[inline]
pub fn token_owner(token: TokenId, k: usize) -> usize {
    let mut h = ssj_text::fxhash::FxHasher::default();
    h.write_u32(token.raw());
    (h.finish() % k as u64) as usize
}

/// The paper's length-based router: index once at the owner of `|r|`,
/// probe the partitions intersecting `[min_len(|r|), max_len(|r|)]`.
#[derive(Debug, Clone)]
pub struct LengthRouter {
    threshold: Threshold,
    partition: LengthPartition,
}

impl LengthRouter {
    /// A router over an existing partition.
    pub fn new(threshold: Threshold, partition: LengthPartition) -> Self {
        Self {
            threshold,
            partition,
        }
    }

    /// The partition in use.
    pub fn partition(&self) -> &LengthPartition {
        &self.partition
    }
}

impl Router for LengthRouter {
    fn name(&self) -> &'static str {
        "length"
    }

    fn k(&self) -> usize {
        self.partition.k()
    }

    fn route(&mut self, record: &Record) -> RouteDecision {
        let mut decision = RouteDecision::default();
        self.route_into(record, &mut decision);
        decision
    }

    fn route_into(&mut self, record: &Record, decision: &mut RouteDecision) {
        let l = record.len();
        decision.index.clear();
        decision.index.push(self.partition.partition_of(l));
        let lo = self.threshold.min_len(l);
        let hi = self.threshold.max_len(l);
        let (a, b) = self.partition.probe_targets(lo, hi);
        decision.probe.clear();
        decision.probe.extend(a..=b);
    }

    fn length_partition(&self) -> Option<&LengthPartition> {
        Some(&self.partition)
    }
}

/// Prefix-token hash router (the offline classic, streamed): the record is
/// indexed at the owner of each of its prefix tokens and probes the same
/// set. Replication factor = number of distinct owners of the prefix.
#[derive(Debug, Clone)]
pub struct PrefixRouter {
    threshold: Threshold,
    k: usize,
}

impl PrefixRouter {
    /// A prefix router over `k` joiners.
    pub fn new(threshold: Threshold, k: usize) -> Self {
        assert!(k >= 1, "need at least one joiner");
        Self { threshold, k }
    }
}

impl Router for PrefixRouter {
    fn name(&self) -> &'static str {
        "prefix"
    }

    fn k(&self) -> usize {
        self.k
    }

    fn route(&mut self, record: &Record) -> RouteDecision {
        let p = self.threshold.prefix_len(record.len());
        let mut targets: Vec<usize> = record
            .prefix(p)
            .iter()
            .map(|&t| token_owner(t, self.k))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        RouteDecision {
            index: targets.clone(),
            probe: targets,
        }
    }

    fn needs_result_dedup(&self) -> bool {
        true
    }
}

/// Round-robin index, probe-everywhere broadcast.
#[derive(Debug, Clone)]
pub struct BroadcastRouter {
    k: usize,
    next: usize,
}

impl BroadcastRouter {
    /// A broadcast router over `k` joiners.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one joiner");
        Self { k, next: 0 }
    }
}

impl Router for BroadcastRouter {
    fn name(&self) -> &'static str {
        "broadcast"
    }

    fn k(&self) -> usize {
        self.k
    }

    fn route(&mut self, _record: &Record) -> RouteDecision {
        let index = vec![self.next];
        self.next = (self.next + 1) % self.k;
        RouteDecision {
            index,
            probe: (0..self.k).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_partition::equal_width;
    use ssj_text::RecordId;

    fn rec(id: u64, toks: &[u32]) -> Record {
        Record::from_sorted(RecordId(id), 0, toks.iter().copied().map(TokenId).collect())
    }

    fn rec_len(id: u64, len: u32) -> Record {
        rec(id, &(0..len).collect::<Vec<_>>())
    }

    #[test]
    fn length_router_indexes_once() {
        let mut r = LengthRouter::new(Threshold::jaccard(0.8), equal_width(40, 4));
        for len in [1u32, 5, 17, 33, 40] {
            let d = r.route(&rec_len(0, len));
            assert_eq!(d.index.len(), 1, "no replication ever");
        }
    }

    #[test]
    fn length_router_probe_covers_filter_interval() {
        let t = Threshold::jaccard(0.8);
        let part = equal_width(40, 4); // ranges [1,10][11,20][21,30][31,40]
        let mut r = LengthRouter::new(t, part.clone());
        // len 20: matching partners in [16, 25] → partitions 1 and 2.
        let d = r.route(&rec_len(0, 20));
        assert_eq!(d.probe, vec![1, 2]);
        assert_eq!(d.index, vec![1]);
        assert_eq!(d.message_count(), 2); // index target is also probed
    }

    #[test]
    fn length_router_own_length_always_probed() {
        let t = Threshold::jaccard(0.6);
        let mut r = LengthRouter::new(t, equal_width(64, 8));
        for len in 1..=64u32 {
            let d = r.route(&rec_len(0, len));
            assert!(
                d.probe.contains(&d.index[0]),
                "len {len}: index target must be within the probe range"
            );
        }
    }

    #[test]
    fn prefix_router_replicates_by_prefix() {
        let t = Threshold::jaccard(0.5);
        let mut r = PrefixRouter::new(t, 8);
        // len 8, tau 0.5 → prefix_len = 8 - ceil(0.5*(8+4)/1.5) + 1 = 8-4+1 = 5
        let d = r.route(&rec_len(0, 8));
        assert!(!d.index.is_empty() && d.index.len() <= 5);
        assert_eq!(d.index, d.probe);
        assert!(d.index.windows(2).all(|w| w[0] < w[1]), "sorted dedup");
        assert!(r.needs_result_dedup());
    }

    #[test]
    fn prefix_router_identical_records_same_targets() {
        let t = Threshold::jaccard(0.7);
        let mut r = PrefixRouter::new(t, 4);
        let a = r.route(&rec(0, &[3, 9, 27, 81]));
        let b = r.route(&rec(1, &[3, 9, 27, 81]));
        assert_eq!(a, b);
    }

    #[test]
    fn broadcast_router_round_robins_index() {
        let mut r = BroadcastRouter::new(3);
        let d0 = r.route(&rec_len(0, 4));
        let d1 = r.route(&rec_len(1, 4));
        let d2 = r.route(&rec_len(2, 4));
        let d3 = r.route(&rec_len(3, 4));
        assert_eq!(d0.index, vec![0]);
        assert_eq!(d1.index, vec![1]);
        assert_eq!(d2.index, vec![2]);
        assert_eq!(d3.index, vec![0]);
        assert_eq!(d0.probe, vec![0, 1, 2]);
        assert_eq!(d0.message_count(), 3);
    }

    mod coverage {
        //! The completeness property every router must satisfy: for any
        //! pair of records that *can* match under the threshold, the later
        //! record's probe targets include the joiner where the earlier
        //! record was indexed.
        use super::*;
        use proptest::prelude::*;
        use ssj_core::verify;

        fn random_record(id: u64, toks: &std::collections::BTreeSet<u32>) -> Record {
            Record::from_sorted(RecordId(id), 0, toks.iter().copied().map(TokenId).collect())
        }

        /// The pair is producible iff some joiner both indexed the earlier
        /// record and is probed by the later one. (For the length router
        /// the index set is a singleton, so this is containment; for the
        /// prefix router replication means only an *intersection* at the
        /// shared-token owner is guaranteed.)
        fn covers(router: &mut dyn Router, earlier: &Record, later: &Record) -> bool {
            let index = router.route(earlier).index;
            let probe = router.route(later).probe;
            index.iter().any(|t| probe.contains(t))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn matching_pairs_are_always_covered(
                a in proptest::collection::btree_set(0u32..300, 4..40),
                drop_n in 0usize..3,
                add in proptest::collection::btree_set(300u32..320, 0..3),
                tau in 0.5f64..0.95,
                k in 1usize..9,
                cal_lens in proptest::collection::vec(1usize..50, 1..30),
            ) {
                // Derive b from a by a small mutation so matching pairs are
                // common; non-matching mutations are assumed away.
                let mut b = a.clone();
                for x in a.iter().take(drop_n).copied().collect::<Vec<_>>() {
                    b.remove(&x);
                }
                b.extend(add.iter().copied());
                let r_a = random_record(0, &a);
                let r_b = random_record(1, &b);
                let t = Threshold::jaccard(tau);
                let o = verify::overlap(r_a.tokens(), r_b.tokens());
                prop_assume!(t.matches(o, r_a.len(), r_b.len()));

                // Length router over a partition calibrated on *unrelated*
                // lengths (the realistic stale-calibration case).
                let mut hist = ssj_partition::LengthHistogram::new();
                for &l in &cal_lens {
                    hist.add(l);
                }
                let cost = ssj_partition::CostModel::build(&hist, t, hist.max_len());
                let partition = ssj_partition::load_aware(&cost, k);
                let mut length = LengthRouter::new(t, partition);
                prop_assert!(covers(&mut length, &r_a, &r_b), "length router missed");
                prop_assert!(covers(&mut length, &r_b, &r_a), "length router missed (swap)");

                let mut prefix = PrefixRouter::new(t, k);
                prop_assert!(covers(&mut prefix, &r_a, &r_b), "prefix router missed");
                // Stronger prefix property: the owner of a shared prefix
                // token is both an index target of the earlier record and a
                // probe target of the later one — that joiner generates the
                // pair (and the smallest such owner emits it).
                let pa = t.prefix_len(r_a.len());
                let pb = t.prefix_len(r_b.len());
                let shared = r_a
                    .prefix(pa)
                    .iter()
                    .find(|tok| r_b.prefix(pb).contains(tok))
                    .copied();
                let shared = shared.expect("prefix lemma: matching pairs share a prefix token");
                let owner = token_owner(shared, k);
                let idx = prefix.route(&r_a).index;
                let prb = prefix.route(&r_b).probe;
                prop_assert!(idx.contains(&owner) && prb.contains(&owner));

                let mut broadcast = BroadcastRouter::new(k);
                prop_assert!(covers(&mut broadcast, &r_a, &r_b), "broadcast router missed");
            }
        }
    }

    mod route_into {
        //! `route_into` is `route` for every router, whatever the decision
        //! it overwrites held: the dispatcher refills one decision for
        //! every record.
        use super::*;
        use proptest::prelude::*;

        /// Routes `first` then `second` through two twins of `router`, one
        /// by `route`, one by `route_into` a decision still holding
        /// `first`'s targets, and compares what each says of `second`.
        fn agrees<R: Router + Clone>(router: &R, first: &Record, second: &Record) -> bool {
            let (mut by_value, mut in_place) = (router.clone(), router.clone());
            by_value.route(first);
            let want = by_value.route(second);
            let mut dirty = in_place.route(first);
            in_place.route_into(second, &mut dirty);
            dirty == want
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn route_into_a_dirty_decision_equals_route(
                a in proptest::collection::btree_set(0u32..300, 1..40),
                b in proptest::collection::btree_set(0u32..300, 1..40),
                tau in 0.5f64..0.95,
                k in 1usize..9,
                cal_lens in proptest::collection::vec(1usize..50, 1..30),
            ) {
                let rec = |id, toks: &std::collections::BTreeSet<u32>| {
                    Record::from_sorted(RecordId(id), 0, toks.iter().copied().map(TokenId).collect())
                };
                let (r_a, r_b) = (rec(0, &a), rec(1, &b));
                let t = Threshold::jaccard(tau);
                let mut hist = ssj_partition::LengthHistogram::new();
                for &l in &cal_lens {
                    hist.add(l);
                }
                let cost = ssj_partition::CostModel::build(&hist, t, hist.max_len());
                let length = LengthRouter::new(t, ssj_partition::load_aware(&cost, k));
                prop_assert!(agrees(&length, &r_a, &r_b), "length router");
                prop_assert!(agrees(&PrefixRouter::new(t, k), &r_a, &r_b), "prefix router");
                prop_assert!(agrees(&BroadcastRouter::new(k), &r_a, &r_b), "broadcast router");
            }
        }
    }

    #[test]
    fn token_owner_is_stable_and_in_range() {
        for t in 0..1000u32 {
            let o = token_owner(TokenId(t), 7);
            assert!(o < 7);
            assert_eq!(o, token_owner(TokenId(t), 7));
        }
        // Spread sanity: with 1000 tokens and 7 buckets, no bucket empty.
        let mut seen = [false; 7];
        for t in 0..1000u32 {
            seen[token_owner(TokenId(t), 7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
