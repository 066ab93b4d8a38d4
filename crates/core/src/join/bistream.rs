//! Two-stream (R–S) similarity join.
//!
//! The self-join matches each record against earlier records of the *same*
//! stream; data-integration workloads instead join two different feeds
//! (e.g. a news wire against a social stream). The bi-stream joiner keeps
//! one index per side: an arrival from the left stream probes the *right*
//! index and is inserted into the *left* index, and vice versa — so every
//! cross-stream pair within the window is reported exactly once, by
//! whichever record arrived later.
//!
//! Record ids must be globally increasing across both streams (they encode
//! arrival order, which windows and result orientation rely on).

use super::{MatchPair, StreamJoiner};
use crate::stats::JoinStats;
use ssj_text::{Record, RecordId, TokenId};

/// Which input stream a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The R (left) stream.
    Left,
    /// The S (right) stream.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// A [`BiStreamJoiner::visit_window`] visitor: side, id, timestamp and
/// sorted tokens of one live record.
pub type SideVisitor<'a> = dyn FnMut(Side, RecordId, u64, &[TokenId]) + 'a;

/// A bi-stream joiner built from two single-stream joiners of the same
/// algorithm (one index per side).
#[derive(Debug)]
pub struct BiStreamJoiner<J> {
    left: J,
    right: J,
    stats: JoinStats,
}

impl<J: StreamJoiner> BiStreamJoiner<J> {
    /// Builds the two sides with a factory (both sides get identical
    /// configuration).
    pub fn new(mut factory: impl FnMut() -> J) -> Self {
        Self {
            left: factory(),
            right: factory(),
            stats: JoinStats::new(),
        }
    }

    /// Processes one arrival: probe the opposite index, insert into the own
    /// side's index. Matches are appended to `out` with the usual
    /// (earlier, later) orientation.
    pub fn process(&mut self, side: Side, record: &Record, out: &mut Vec<MatchPair>) {
        let (own, other) = match side {
            Side::Left => (&mut self.left, &mut self.right),
            Side::Right => (&mut self.right, &mut self.left),
        };
        other.probe(record, out);
        own.insert(record);
    }

    /// Probe-only against the opposite side (distributed probe messages).
    pub fn probe(&mut self, side: Side, record: &Record, out: &mut Vec<MatchPair>) {
        match side {
            Side::Left => self.right.probe(record, out),
            Side::Right => self.left.probe(record, out),
        }
    }

    /// [`StreamJoiner::prefetch_probe`] of the opposite index, which a
    /// probe from `side` will scan.
    pub fn prefetch_probe(&mut self, side: Side, record: &Record, distance: usize) {
        match side {
            Side::Left => self.right.prefetch_probe(record, distance),
            Side::Right => self.left.prefetch_probe(record, distance),
        }
    }

    /// Insert-only into the own side (distributed index messages).
    pub fn insert(&mut self, side: Side, record: &Record) {
        match side {
            Side::Left => self.left.insert(record),
            Side::Right => self.right.insert(record),
        }
    }

    /// Combined counters of both sides.
    pub fn stats(&mut self) -> &JoinStats {
        self.stats = JoinStats::new();
        self.stats.merge(self.left.stats());
        self.stats.merge(self.right.stats());
        &self.stats
    }

    /// Records stored across both indexes.
    pub fn stored(&self) -> usize {
        self.left.stored() + self.right.stored()
    }

    /// Postings across both indexes.
    pub fn postings(&self) -> usize {
        self.left.postings() + self.right.postings()
    }

    /// Walks every record both sides consider live in global arrival
    /// (ascending id) order, with its side — the bi-stream analogue of
    /// [`StreamJoiner::visit_window`]. A side's walk is a callback, so the
    /// right side is copied once into one flat buffer and interleaved into
    /// the left side's walk.
    pub fn visit_window(&self, visit: &mut SideVisitor<'_>) {
        let mut heads: Vec<(RecordId, u64, usize)> = Vec::new();
        let mut tokens = Vec::new();
        self.right.visit_window(&mut |id, ts, toks| {
            tokens.extend_from_slice(toks);
            heads.push((id, ts, tokens.len()));
        });
        let (mut next, mut start) = (0, 0);
        let mut right_before = |limit: Option<RecordId>, visit: &mut SideVisitor<'_>| {
            while let Some(&(id, ts, end)) = heads.get(next) {
                if limit.is_some_and(|l| id >= l) {
                    break;
                }
                visit(Side::Right, id, ts, &tokens[start..end]);
                (next, start) = (next + 1, end);
            }
        };
        self.left.visit_window(&mut |id, ts, toks| {
            right_before(Some(id), visit);
            visit(Side::Left, id, ts, toks);
        });
        right_before(None, visit);
    }

    /// Side-tagged snapshot of every record both sides consider live, in
    /// global arrival (ascending id) order: the
    /// [`visit_window`](Self::visit_window) walk, collected — suitable for
    /// checkpointing and for replay through [`Self::insert`].
    pub fn window_snapshot(&self) -> Vec<(Side, Record)> {
        let mut out = Vec::with_capacity(self.stored());
        self.visit_window(&mut |side, id, ts, tokens| {
            out.push((side, Record::from_sorted(id, ts, tokens.to_vec())));
        });
        out
    }
}

/// Runs two merged streams through a bi-stream joiner: `arrivals` is the
/// global arrival order, each record tagged with its side (as
/// [`merge_streams`] yields it).
pub fn run_bistream<'r, J: StreamJoiner>(
    joiner: &mut BiStreamJoiner<J>,
    arrivals: impl IntoIterator<Item = (Side, &'r Record)>,
) -> Vec<MatchPair> {
    let mut out = Vec::new();
    for (side, record) in arrivals {
        joiner.process(side, record, &mut out);
    }
    out
}

/// Merges two id-ordered streams, lazily, into one arrival sequence
/// ordered by record id. Panics, when it reaches them, if an id appears
/// on both sides (ids must be globally unique).
pub fn merge_streams<'r>(
    left: &'r [Record],
    right: &'r [Record],
) -> impl Iterator<Item = (Side, &'r Record)> {
    let (mut left, mut right) = (left.iter().peekable(), right.iter().peekable());
    std::iter::from_fn(move || {
        let take_left = match (left.peek(), right.peek()) {
            (Some(l), Some(r)) => {
                assert_ne!(l.id(), r.id(), "record ids must be globally unique");
                l.id() < r.id()
            }
            (l, _) => l.is_some(),
        };
        if take_left {
            left.next().map(|r| (Side::Left, r))
        } else {
            right.next().map(|r| (Side::Right, r))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{AllPairsJoiner, BundleJoiner, JoinConfig, NaiveJoiner, PpJoinJoiner};
    use crate::sim::Threshold;
    use crate::verify;
    use crate::window::Window;
    use ssj_text::{RecordId, TokenId};

    fn rec(id: u64, toks: &[u32]) -> Record {
        Record::from_sorted(
            RecordId(id),
            id,
            toks.iter().copied().map(TokenId).collect(),
        )
    }

    /// Reference bi-join: all cross-stream pairs within the window.
    fn naive_bi(arrivals: &[(Side, Record)], cfg: JoinConfig) -> Vec<(u64, u64)> {
        let mut keys = Vec::new();
        for (i, (side, r)) in arrivals.iter().enumerate() {
            for (other_side, s) in arrivals.iter().take(i) {
                if side == other_side {
                    continue;
                }
                if cfg
                    .window
                    .expired(s.id().0, s.timestamp(), r.id().0, r.timestamp())
                {
                    continue;
                }
                let o = verify::overlap(r.tokens(), s.tokens());
                if cfg.threshold.matches(o, r.len(), s.len()) {
                    keys.push((s.id().0, r.id().0));
                }
            }
        }
        keys.sort_unstable();
        keys
    }

    /// `arrivals` as [`run_bistream`] takes them.
    fn tagged(arrivals: &[(Side, Record)]) -> impl Iterator<Item = (Side, &Record)> {
        arrivals.iter().map(|(side, r)| (*side, r))
    }

    fn arrivals() -> Vec<(Side, Record)> {
        let mut v = Vec::new();
        for i in 0..60u64 {
            // Family cycle (3) is coprime with the side cycle (2), so every
            // family appears on both sides and cross-stream matches exist.
            let fam = (i % 3) as u32 * 30;
            let side = if i % 2 == 0 { Side::Left } else { Side::Right };
            v.push((
                side,
                rec(i, &[fam, fam + 1, fam + 2, fam + 3 + (i % 2) as u32]),
            ));
        }
        v
    }

    #[test]
    fn cross_stream_pairs_only() {
        let cfg = JoinConfig::jaccard(0.9);
        let mut j = BiStreamJoiner::new(|| NaiveJoiner::new(cfg));
        // Identical records on the SAME side never match each other.
        let mut out = Vec::new();
        j.process(Side::Left, &rec(0, &[1, 2, 3]), &mut out);
        j.process(Side::Left, &rec(1, &[1, 2, 3]), &mut out);
        assert!(out.is_empty());
        j.process(Side::Right, &rec(2, &[1, 2, 3]), &mut out);
        assert_eq!(out.len(), 2, "right record matches both left records");
    }

    #[test]
    fn all_joiners_match_reference() {
        let arr = arrivals();
        let cfg = JoinConfig::jaccard(0.6);
        let expect = naive_bi(&arr, cfg);
        assert!(!expect.is_empty());

        let run = |out: Vec<MatchPair>| {
            let mut keys: Vec<_> = out.iter().map(|m| m.key()).collect();
            keys.sort_unstable();
            keys
        };
        let mut naive = BiStreamJoiner::new(|| NaiveJoiner::new(cfg));
        assert_eq!(run(run_bistream(&mut naive, tagged(&arr))), expect);
        let mut ap = BiStreamJoiner::new(|| AllPairsJoiner::new(cfg));
        assert_eq!(run(run_bistream(&mut ap, tagged(&arr))), expect);
        let mut pp = BiStreamJoiner::new(|| PpJoinJoiner::new(cfg));
        assert_eq!(run(run_bistream(&mut pp, tagged(&arr))), expect);
        let mut bj = BiStreamJoiner::new(|| BundleJoiner::with_defaults(cfg));
        assert_eq!(run(run_bistream(&mut bj, tagged(&arr))), expect);
    }

    #[test]
    fn windows_apply_across_streams() {
        let cfg = JoinConfig {
            threshold: Threshold::jaccard(0.9),
            window: Window::Count(2),
        };
        let arr = vec![
            (Side::Left, rec(0, &[1, 2])),
            (Side::Right, rec(1, &[9, 10])),
            (Side::Right, rec(2, &[11, 12])),
            (Side::Right, rec(3, &[1, 2])), // distance 3 from record 0: expired
        ];
        let expect = naive_bi(&arr, cfg);
        assert!(expect.is_empty());
        let mut j = BiStreamJoiner::new(|| PpJoinJoiner::new(cfg));
        assert!(run_bistream(&mut j, tagged(&arr)).is_empty());
    }

    #[test]
    fn merge_streams_orders_by_id() {
        let left = vec![rec(0, &[1]), rec(3, &[2]), rec(4, &[3])];
        let right = vec![rec(1, &[4]), rec(2, &[5]), rec(7, &[6])];
        let merged: Vec<_> = merge_streams(&left, &right).collect();
        let ids: Vec<u64> = merged.iter().map(|(_, r)| r.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 7]);
        assert_eq!(merged[0].0, Side::Left);
        assert_eq!(merged[1].0, Side::Right);
    }

    #[test]
    #[should_panic(expected = "globally unique")]
    fn merge_streams_rejects_duplicate_ids() {
        let left = vec![rec(1, &[1])];
        let right = vec![rec(1, &[2])];
        let _ = merge_streams(&left, &right).count();
    }

    #[test]
    fn stats_aggregate_both_sides() {
        let cfg = JoinConfig::jaccard(0.8);
        let mut j = BiStreamJoiner::new(|| PpJoinJoiner::new(cfg));
        let mut out = Vec::new();
        j.process(Side::Left, &rec(0, &[1, 2, 3]), &mut out);
        j.process(Side::Right, &rec(1, &[1, 2, 3]), &mut out);
        assert_eq!(j.stored(), 2);
        assert_eq!(j.stats().indexed, 2);
        assert_eq!(j.stats().results, 1);
        assert!(j.postings() > 0);
    }

    #[test]
    fn side_other_flips() {
        assert_eq!(Side::Left.other(), Side::Right);
        assert_eq!(Side::Right.other(), Side::Left);
    }

    #[test]
    fn window_snapshot_merges_sides_in_id_order() {
        let cfg = JoinConfig {
            threshold: Threshold::jaccard(0.8),
            window: Window::Count(3),
        };
        let mut j = BiStreamJoiner::new(|| AllPairsJoiner::new(cfg));
        let mut out = Vec::new();
        j.process(Side::Left, &rec(0, &[1, 2]), &mut out);
        j.process(Side::Right, &rec(1, &[3, 4]), &mut out);
        j.process(Side::Left, &rec(2, &[5, 6]), &mut out);
        j.process(Side::Right, &rec(3, &[7, 8]), &mut out);

        let snap = j.window_snapshot();
        let ids: Vec<u64> = snap.iter().map(|(_, r)| r.id().0).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "not id-ordered: {ids:?}"
        );
        assert!(snap.iter().any(|(s, _)| *s == Side::Left));
        assert!(snap.iter().any(|(s, _)| *s == Side::Right));

        // Rebuilding a fresh joiner from the snapshot reproduces the same
        // visible window.
        let mut rebuilt = BiStreamJoiner::new(|| AllPairsJoiner::new(cfg));
        for (side, r) in &snap {
            rebuilt.insert(*side, r);
        }
        let snap2 = rebuilt.window_snapshot();
        assert_eq!(snap.len(), snap2.len());
        for ((s0, r0), (s1, r1)) in snap.iter().zip(&snap2) {
            assert_eq!(s0, s1);
            assert_eq!(r0.id(), r1.id());
        }
    }
}
