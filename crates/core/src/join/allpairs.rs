//! Streaming AllPairs: prefix-index candidate generation + length filter.

use super::{JoinConfig, MatchPair, StreamJoiner};
use crate::index::{
    compact_all, should_compact, InvertedIndex, Posting, RecordStore, SeenFilter, Slot,
};
use crate::sim::ProbeBounds;
use crate::stats::JoinStats;
use crate::verify;
use crate::window::EvictionQueue;
use ssj_text::Record;

/// Prefix-filtering joiner without positional information (Bayardo et al.'s
/// AllPairs adapted to arbitrary-arrival-order streams: both probe and index
/// use the streaming prefix).
#[derive(Debug)]
pub struct AllPairsJoiner {
    cfg: JoinConfig,
    store: RecordStore,
    index: InvertedIndex,
    queue: EvictionQueue<Slot>,
    seen: SeenFilter,
    stats: JoinStats,
    /// Scratch candidate buffer, reused across probes.
    candidates: Vec<Slot>,
    /// Per-probe integer bound memo (kills per-candidate float math).
    bounds: ProbeBounds,
}

impl AllPairsJoiner {
    /// An AllPairs joiner with the given threshold and window.
    pub fn new(cfg: JoinConfig) -> Self {
        Self {
            cfg,
            store: RecordStore::new(),
            index: InvertedIndex::new(),
            queue: EvictionQueue::new(),
            seen: SeenFilter::new(),
            stats: JoinStats::new(),
            candidates: Vec::new(),
            bounds: ProbeBounds::new(cfg.threshold),
        }
    }

    fn evict(&mut self, probe_id: u64, probe_ts: u64) {
        let store = &mut self.store;
        let stats = &mut self.stats;
        self.queue
            .drain_expired(self.cfg.window, probe_id, probe_ts, |slot| {
                store.remove(slot);
                stats.evicted += 1;
            });
        if should_compact(store.live(), store.dead()) {
            compact_all(store, &mut self.index, &mut self.queue);
            self.seen.reset();
        }
    }

    /// Insert minus the eviction pass (shared by `insert` and the fused
    /// `process`, whose probe already evicted at this watermark).
    fn insert_unevicted(&mut self, record: &Record) {
        let slot = self.store.insert(record);
        self.bounds.rebuild(record.len());
        for (pos, &tok) in record.prefix(self.bounds.prefix_len()).iter().enumerate() {
            self.index.add(
                tok,
                Posting {
                    slot,
                    pos: pos as u32,
                },
            );
            self.stats.postings_created += 1;
        }
        self.queue.push(record.id().0, record.timestamp(), slot);
        self.stats.indexed += 1;
    }
}

impl StreamJoiner for AllPairsJoiner {
    fn name(&self) -> &'static str {
        "allpairs"
    }

    fn probe(&mut self, record: &Record, out: &mut Vec<MatchPair>) {
        self.evict(record.id().0, record.timestamp());
        let t = self.cfg.threshold;
        let lr = record.len();
        self.bounds.rebuild(lr);

        // Candidate generation: any stored record sharing a prefix token.
        self.seen.next_epoch();
        self.candidates.clear();
        {
            let store = &self.store;
            let seen = &mut self.seen;
            let candidates = &mut self.candidates;
            let stats = &mut self.stats;
            for &tok in record.prefix(self.bounds.prefix_len()) {
                self.index.scan_prune(
                    tok,
                    |_| {},
                    |slot| store.is_live(slot),
                    |p| {
                        stats.posting_hits += 1;
                        if seen.first_visit(p.slot) {
                            candidates.push(p.slot);
                        }
                    },
                );
            }
        }

        // Filter + verify.
        for i in 0..self.candidates.len() {
            let slot = self.candidates[i];
            // Overlap the next candidate's token fetch with this
            // verification (scattered token runs rarely share cache lines).
            if let Some(&next) = self.candidates.get(i + 1) {
                self.store.prefetch_tokens(next);
            }
            self.stats.candidates += 1;
            let ls = self.store.token_len(slot);
            if !self.bounds.length_compatible(ls) {
                self.stats.length_filtered += 1;
                continue;
            }
            let mo = self.bounds.min_overlap(ls);
            self.stats.verifications += 1;
            self.stats.verify_steps += (lr + ls) as u64;
            if let Some(o) = verify::overlap_with_min(record.tokens(), self.store.tokens(slot), mo)
            {
                if t.matches(o, lr, ls) {
                    self.stats.results += 1;
                    out.push(MatchPair {
                        earlier: self.store.id(slot),
                        later: record.id(),
                        similarity: t.similarity(o, lr, ls),
                    });
                }
            }
        }
        self.stats.probed += 1;
    }

    fn insert(&mut self, record: &Record) {
        self.evict(record.id().0, record.timestamp());
        self.insert_unevicted(record);
    }

    fn process(&mut self, record: &Record, out: &mut Vec<MatchPair>) {
        // Fused probe + insert: the probe's eviction pass already advanced
        // the watermark to this record, so the insert-side pass is skipped.
        self.probe(record, out);
        self.insert_unevicted(record);
    }

    fn window_snapshot(&self) -> Vec<Record> {
        self.queue
            .iter()
            .map(|&slot| self.store.to_record(slot))
            .collect()
    }

    fn stats(&self) -> &JoinStats {
        &self.stats
    }

    fn stored(&self) -> usize {
        self.store.live()
    }

    fn postings(&self) -> usize {
        self.index.postings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{run_stream, NaiveJoiner};
    use crate::sim::{SimFn, Threshold};
    use crate::window::Window;
    use ssj_text::{RecordId, TokenId};

    fn rec(id: u64, toks: &[u32]) -> Record {
        Record::from_sorted(
            RecordId(id),
            id,
            toks.iter().copied().map(TokenId).collect(),
        )
    }

    fn assert_same_as_naive(cfg: JoinConfig, records: &[Record]) {
        let mut naive = NaiveJoiner::new(cfg);
        let mut ap = AllPairsJoiner::new(cfg);
        let mut expect: Vec<_> = run_stream(&mut naive, records)
            .iter()
            .map(|m| m.key())
            .collect();
        let mut got: Vec<_> = run_stream(&mut ap, records)
            .iter()
            .map(|m| m.key())
            .collect();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(expect, got);
    }

    #[test]
    fn agrees_with_naive_on_small_case() {
        let records = vec![
            rec(0, &[1, 2, 3, 4]),
            rec(1, &[1, 2, 3, 5]),
            rec(2, &[10, 11]),
            rec(3, &[1, 2, 3, 4, 5]),
            rec(4, &[10, 11]),
        ];
        assert_same_as_naive(JoinConfig::jaccard(0.6), &records);
    }

    #[test]
    fn agrees_with_naive_windowed() {
        let records: Vec<Record> = (0..30)
            .map(|i| rec(i, &[(i % 5) as u32 * 3, (i % 5) as u32 * 3 + 1, 100]))
            .collect();
        let cfg = JoinConfig {
            threshold: Threshold::jaccard(0.5),
            window: Window::Count(7),
        };
        assert_same_as_naive(cfg, &records);
    }

    #[test]
    fn agrees_with_naive_overlap_measure() {
        let records = vec![
            rec(0, &[1, 2, 3, 4, 5, 6, 7, 8]),
            rec(1, &[1, 2]),
            rec(2, &[7, 8, 9]),
        ];
        let cfg = JoinConfig {
            threshold: Threshold::new(SimFn::Overlap, 0.9),
            window: Window::Unbounded,
        };
        assert_same_as_naive(cfg, &records);
    }

    #[test]
    fn prunes_with_prefix_index() {
        let mut j = AllPairsJoiner::new(JoinConfig::jaccard(0.9));
        let mut out = Vec::new();
        // Disjoint records: no posting hits at all after the first.
        for i in 0..20u64 {
            let base = (i as u32) * 10;
            j.process(&rec(i, &[base, base + 1, base + 2]), &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(j.stats().candidates, 0);
        assert_eq!(j.stats().verifications, 0);
    }

    #[test]
    fn eviction_drops_index_entries() {
        let cfg = JoinConfig {
            threshold: Threshold::jaccard(0.8),
            window: Window::Count(2),
        };
        let mut j = AllPairsJoiner::new(cfg);
        let mut out = Vec::new();
        for i in 0..10u64 {
            j.process(&rec(i, &[1, 2, 3]), &mut out);
        }
        assert!(j.stored() <= 3);
        // Each probe can match at most the 2 records in its window.
        let last_probe_matches = out.iter().filter(|m| m.later == RecordId(9)).count();
        assert_eq!(last_probe_matches, 2);
    }

    #[test]
    fn stats_track_probes_and_inserts() {
        let mut j = AllPairsJoiner::new(JoinConfig::jaccard(0.7));
        let mut out = Vec::new();
        j.process(&rec(0, &[1, 2]), &mut out);
        j.process(&rec(1, &[1, 2]), &mut out);
        assert_eq!(j.stats().probed, 2);
        assert_eq!(j.stats().indexed, 2);
        assert_eq!(j.stats().results, 1);
        assert!(j.postings() > 0);
    }
}
