//! Streaming PPJoin: AllPairs plus the positional filter and resumed
//! (partial) verification.
//!
//! The joiner also offers **PPJoin+** mode ([`PpJoinJoiner::new_plus`]):
//! before verifying a surviving candidate, the *suffix filter* computes a
//! cheap lower bound on the Hamming distance of the unseen suffixes and
//! prunes pairs whose bound already rules out the required overlap.
//!
//! While scanning the probe's prefix tokens, the joiner accumulates for each
//! candidate the exact number of shared prefix tokens `α` and the positions
//! of the last shared token on both sides. At every shared token it applies
//! the *positional filter*: the final overlap can be at most
//! `α + 1 + min(remaining_r, remaining_s)`; if that upper bound cannot reach
//! `min_overlap`, the candidate is discarded before verification.
//! Verification then resumes the merge *after* the last shared positions,
//! reusing `α` instead of re-scanning the prefixes.

use super::{JoinConfig, MatchPair, StreamJoiner};
use crate::index::{
    compact_all, should_compact, CandMap, InvertedIndex, Posting, RecordStore, Slot,
};
use crate::sim::ProbeBounds;
use crate::stats::JoinStats;
use crate::verify;
use crate::window::EvictionQueue;
use ssj_text::Record;

/// Per-candidate accumulator built during the prefix scan.
#[derive(Debug, Clone, Copy)]
struct CandAcc {
    /// The candidate's store slot.
    slot: Slot,
    /// Shared prefix tokens counted so far (exact left-overlap).
    alpha: u32,
    /// Position in the probe of the last shared token.
    last_probe_pos: u32,
    /// Position in the indexed record of the last shared token.
    last_index_pos: u32,
    /// Discarded by a filter; kept so later postings skip it.
    pruned: bool,
}

/// Prefix + length + positional filtering joiner (Xiao et al.'s PPJoin
/// adapted to arbitrary-arrival-order streams).
#[derive(Debug)]
pub struct PpJoinJoiner {
    cfg: JoinConfig,
    /// PPJoin+ mode: apply the suffix filter before verification.
    suffix_filter: bool,
    store: RecordStore,
    index: InvertedIndex,
    queue: EvictionQueue<Slot>,
    stats: JoinStats,
    /// Scratch: per-probe candidate accumulators (cleared, not freed).
    acc: CandMap<CandAcc>,
    /// Per-probe integer bound memo (kills per-hit float math).
    bounds: ProbeBounds,
}

impl PpJoinJoiner {
    /// A PPJoin joiner with the given threshold and window.
    pub fn new(cfg: JoinConfig) -> Self {
        Self {
            cfg,
            suffix_filter: false,
            store: RecordStore::new(),
            index: InvertedIndex::new(),
            queue: EvictionQueue::new(),
            stats: JoinStats::new(),
            acc: CandMap::default(),
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
            self.acc.reset();
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

impl PpJoinJoiner {
    /// A PPJoin+ joiner: PPJoin plus suffix filtering.
    pub fn new_plus(cfg: JoinConfig) -> Self {
        let mut j = Self::new(cfg);
        j.suffix_filter = true;
        j
    }
}

impl StreamJoiner for PpJoinJoiner {
    fn name(&self) -> &'static str {
        if self.suffix_filter {
            "ppjoin+"
        } else {
            "ppjoin"
        }
    }

    fn probe(&mut self, record: &Record, out: &mut Vec<MatchPair>) {
        self.evict(record.id().0, record.timestamp());
        let t = self.cfg.threshold;
        let lr = record.len();
        self.bounds.rebuild(lr);

        self.acc.next_probe();
        {
            let store = &self.store;
            let acc = &mut self.acc;
            let stats = &mut self.stats;
            let bounds = &self.bounds;
            for (i, &tok) in record.prefix(bounds.prefix_len()).iter().enumerate() {
                self.index.scan_prune(
                    tok,
                    |_| {},
                    |slot| store.is_live(slot),
                    |p| {
                        stats.posting_hits += 1;
                        let ls = store.token_len(p.slot);
                        let entry = acc.entry(p.slot, || {
                            stats.candidates += 1;
                            let pruned = if !bounds.length_compatible(ls) {
                                stats.length_filtered += 1;
                                true
                            } else {
                                false
                            };
                            CandAcc {
                                slot: p.slot,
                                alpha: 0,
                                last_probe_pos: 0,
                                last_index_pos: 0,
                                pruned,
                            }
                        });
                        if entry.pruned {
                            return;
                        }
                        // Positional filter: best achievable total overlap if
                        // this shared token is counted.
                        let mo = bounds.min_overlap(ls);
                        let remaining = (lr - i - 1).min(ls - p.pos as usize - 1);
                        let ubound = entry.alpha as usize + 1 + remaining;
                        if ubound < mo {
                            entry.pruned = true;
                            stats.position_filtered += 1;
                        } else {
                            entry.alpha += 1;
                            entry.last_probe_pos = i as u32;
                            entry.last_index_pos = p.pos;
                        }
                    },
                );
            }
        }

        // Resumed verification of the survivors, in first-visit order.
        for &cand in self.acc.cands() {
            if cand.pruned || cand.alpha == 0 {
                continue;
            }
            let slot = cand.slot;
            let s_tokens = self.store.tokens(slot);
            let ls = s_tokens.len();
            let mo = self.bounds.min_overlap(ls);
            let start_a = cand.last_probe_pos as usize + 1;
            let start_b = cand.last_index_pos as usize + 1;
            if self.suffix_filter {
                // Suffix filter: the unseen suffixes must still contribute
                // `mo - alpha` common tokens; bound their Hamming distance.
                let xs = &record.tokens()[start_a..];
                let ys = &s_tokens[start_b..];
                let needed = mo.saturating_sub(cand.alpha as usize);
                let budget = (xs.len() + ys.len()).saturating_sub(2 * needed);
                if verify::hamming_lower_bound(xs, ys, budget) > budget {
                    self.stats.suffix_filtered += 1;
                    continue;
                }
            }
            self.stats.verifications += 1;
            self.stats.verify_steps += ((lr - start_a) + (ls - start_b)) as u64;
            if let Some(o) = verify::overlap_from(
                record.tokens(),
                s_tokens,
                start_a,
                start_b,
                cand.alpha as usize,
                mo,
            ) {
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
    use crate::sim::Threshold;
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
        let mut pp = PpJoinJoiner::new(cfg);
        let mut expect: Vec<_> = run_stream(&mut naive, records)
            .iter()
            .map(|m| m.key())
            .collect();
        let mut got: Vec<_> = run_stream(&mut pp, records)
            .iter()
            .map(|m| m.key())
            .collect();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(expect, got);
    }

    #[test]
    fn agrees_with_naive_basic() {
        let records = vec![
            rec(0, &[1, 2, 3, 4, 5]),
            rec(1, &[1, 2, 3, 4, 6]),
            rec(2, &[2, 3, 4, 5, 6]),
            rec(3, &[20, 21, 22]),
            rec(4, &[1, 2, 3, 4, 5, 6]),
        ];
        assert_same_as_naive(JoinConfig::jaccard(0.6), &records);
    }

    #[test]
    fn agrees_with_naive_high_threshold() {
        let records: Vec<Record> = (0..40)
            .map(|i| {
                let b = (i % 4) as u32 * 100;
                rec(
                    i,
                    &[b, b + 1, b + 2, b + 3, b + 4, b + 5, 1000 + i as u32 % 3],
                )
            })
            .collect();
        assert_same_as_naive(JoinConfig::jaccard(0.8), &records);
    }

    #[test]
    fn agrees_with_naive_windowed() {
        let records: Vec<Record> = (0..25)
            .map(|i| rec(i, &[(i % 3) as u32, (i % 3) as u32 + 10, 99]))
            .collect();
        let cfg = JoinConfig {
            threshold: Threshold::jaccard(0.5),
            window: Window::Count(6),
        };
        assert_same_as_naive(cfg, &records);
    }

    #[test]
    fn positional_filter_fires() {
        let mut j = PpJoinJoiner::new(JoinConfig::jaccard(0.9));
        let mut out = Vec::new();
        // Share only the *second* prefix token: the candidate is generated,
        // but with both matching positions at index 1 the remaining-token
        // bound (1 + min(8, 8) = 9) cannot reach min_overlap(10,10) = 10,
        // so the positional filter kills it before verification.
        j.process(&rec(0, &[1, 5, 30, 31, 32, 33, 34, 35, 36, 37]), &mut out);
        j.process(&rec(1, &[2, 5, 40, 41, 42, 43, 44, 45, 46, 47]), &mut out);
        assert!(out.is_empty());
        assert!(j.stats().position_filtered >= 1);
        assert_eq!(j.stats().verifications, 0);
    }

    #[test]
    fn plus_mode_agrees_with_naive() {
        let records: Vec<Record> = (0..60)
            .map(|i| {
                let b = (i % 5) as u32 * 40;
                rec(
                    i,
                    &[b, b + 1, b + 2, b + 3, b + 4, b + 5, 500 + (i % 3) as u32],
                )
            })
            .collect();
        for tau in [0.5, 0.7, 0.9] {
            let cfg = JoinConfig::jaccard(tau);
            let mut naive = NaiveJoiner::new(cfg);
            let mut plus = PpJoinJoiner::new_plus(cfg);
            let mut expect: Vec<_> = run_stream(&mut naive, &records)
                .iter()
                .map(|m| m.key())
                .collect();
            let mut got: Vec<_> = run_stream(&mut plus, &records)
                .iter()
                .map(|m| m.key())
                .collect();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(expect, got, "tau={tau}");
        }
    }

    #[test]
    fn suffix_filter_fires_and_saves_verifications() {
        // Candidates share two early prefix tokens but have completely
        // disjoint suffixes: the positional filter passes (plenty of
        // remaining tokens) while the suffix filter sees the divergence.
        let mk = |id: u64, base: u32| {
            let mut toks = vec![1, 2];
            toks.extend((0..18).map(|x| base + x));
            rec(id, &toks)
        };
        let cfg = JoinConfig::jaccard(0.6);
        let mut plain = PpJoinJoiner::new(cfg);
        let mut plus = PpJoinJoiner::new_plus(cfg);
        let mut out = Vec::new();
        for (i, base) in [100u32, 200, 300, 400, 500].iter().enumerate() {
            plain.process(&mk(i as u64, *base), &mut out);
            plus.process(&mk(100 + i as u64, *base), &mut out);
        }
        assert!(out.is_empty());
        assert!(
            plus.stats().suffix_filtered > 0,
            "suffix filter never fired"
        );
        assert!(
            plus.stats().verifications < plain.stats().verifications,
            "plus {} vs plain {}",
            plus.stats().verifications,
            plain.stats().verifications
        );
        assert_eq!(plus.name(), "ppjoin+");
    }

    #[test]
    fn verification_resumes_correctly() {
        // Construct records where alpha > 0 and suffix tokens matter.
        let mut j = PpJoinJoiner::new(JoinConfig::jaccard(0.7));
        let mut out = Vec::new();
        j.process(&rec(0, &[1, 2, 3, 4, 5, 6, 7]), &mut out);
        j.process(&rec(1, &[1, 2, 3, 4, 5, 6, 8]), &mut out);
        assert_eq!(out.len(), 1);
        // Jaccard = 6/8 = 0.75
        assert!((out[0].similarity - 0.75).abs() < 1e-12);
    }
}
