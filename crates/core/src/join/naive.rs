//! The naive joiner: verify the probe against every live record.
//!
//! Quadratic and filter-free — it exists as the ground truth every other
//! joiner is checked against, and as the "no filtering" baseline in the
//! ablation benchmarks.

use super::{JoinConfig, MatchPair, StreamJoiner};
use crate::stats::JoinStats;
use crate::verify;
use crate::window::EvictionQueue;
use ssj_text::{Record, RecordId, TokenId};

/// Scan-everything reference joiner.
#[derive(Debug)]
pub struct NaiveJoiner {
    cfg: JoinConfig,
    live: EvictionQueue<Record>,
    stats: JoinStats,
}

impl NaiveJoiner {
    /// A naive joiner with the given threshold and window.
    pub fn new(cfg: JoinConfig) -> Self {
        Self {
            cfg,
            live: EvictionQueue::new(),
            stats: JoinStats::new(),
        }
    }
}

impl StreamJoiner for NaiveJoiner {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn probe(&mut self, record: &Record, out: &mut Vec<MatchPair>) {
        let stats = &mut self.stats;
        stats.evicted +=
            self.live
                .drain_expired(self.cfg.window, record.id().0, record.timestamp(), |_| {})
                as u64;
        let t = self.cfg.threshold;
        for s in self.live.iter() {
            stats.verifications += 1;
            stats.verify_steps += (record.len() + s.len()) as u64;
            let o = verify::overlap(record.tokens(), s.tokens());
            if t.matches(o, record.len(), s.len()) {
                stats.results += 1;
                out.push(MatchPair {
                    earlier: s.id(),
                    later: record.id(),
                    similarity: t.similarity(o, record.len(), s.len()),
                });
            }
        }
        stats.probed += 1;
    }

    fn insert(&mut self, record: &Record) {
        self.stats.evicted +=
            self.live
                .drain_expired(self.cfg.window, record.id().0, record.timestamp(), |_| {})
                as u64;
        self.live
            .push(record.id().0, record.timestamp(), record.clone());
        self.stats.indexed += 1;
    }

    fn visit_window(&self, visit: &mut dyn FnMut(RecordId, u64, &[TokenId])) {
        for r in self.live.iter() {
            visit(r.id(), r.timestamp(), r.tokens());
        }
    }

    fn stats(&self) -> &JoinStats {
        &self.stats
    }

    fn stored(&self) -> usize {
        self.live.len()
    }

    fn postings(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::run_stream;
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

    #[test]
    fn finds_identical_pair() {
        let mut j = NaiveJoiner::new(JoinConfig::jaccard(0.8));
        let out = run_stream(&mut j, &[rec(0, &[1, 2, 3]), rec(1, &[1, 2, 3])]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].earlier, RecordId(0));
        assert_eq!(out[0].later, RecordId(1));
        assert!((out[0].similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn respects_threshold() {
        let mut j = NaiveJoiner::new(JoinConfig::jaccard(0.8));
        // Jaccard({1,2,3},{1,2,4}) = 2/4 = 0.5 < 0.8
        let out = run_stream(&mut j, &[rec(0, &[1, 2, 3]), rec(1, &[1, 2, 4])]);
        assert!(out.is_empty());
    }

    #[test]
    fn no_self_match() {
        let mut j = NaiveJoiner::new(JoinConfig::jaccard(0.1));
        let out = run_stream(&mut j, &[rec(0, &[1, 2])]);
        assert!(out.is_empty());
    }

    #[test]
    fn count_window_evicts() {
        let cfg = JoinConfig {
            threshold: Threshold::jaccard(0.9),
            window: Window::Count(1),
        };
        let mut j = NaiveJoiner::new(cfg);
        // r2 matches r0 but r0 is out of the (size-1) window by then.
        let out = run_stream(&mut j, &[rec(0, &[1, 2]), rec(1, &[7, 8]), rec(2, &[1, 2])]);
        assert!(out.is_empty());
        assert_eq!(j.stored(), 2); // r1 evicted... r1+r2 remain after final insert
        assert!(j.stats().evicted >= 1);
    }

    #[test]
    fn all_pairs_of_triplet() {
        let mut j = NaiveJoiner::new(JoinConfig::jaccard(0.99));
        let out = run_stream(&mut j, &[rec(0, &[4, 5]), rec(1, &[4, 5]), rec(2, &[4, 5])]);
        // (0,1), (0,2), (1,2)
        assert_eq!(out.len(), 3);
        let keys: Vec<_> = out.iter().map(|m| m.key()).collect();
        assert!(keys.contains(&(0, 1)));
        assert!(keys.contains(&(0, 2)));
        assert!(keys.contains(&(1, 2)));
    }
}
