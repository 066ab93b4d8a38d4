//! The stream generator: profiles + Zipf sampling + near-duplicate
//! injection.

use crate::arrival::ArrivalProcess;
use crate::profile::DatasetProfile;
use crate::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ssj_text::{Record, RecordBuilder, RecordId, TokenId};
use std::collections::VecDeque;

/// A deterministic (seeded) infinite record stream following a
/// [`DatasetProfile`].
///
/// Implements [`Iterator`]; ids are assigned sequentially from 0 and
/// timestamps follow the configured [`ArrivalProcess`].
#[derive(Debug)]
pub struct StreamGenerator {
    profile: DatasetProfile,
    zipf: ZipfSampler,
    rng: StdRng,
    arrival: ArrivalProcess,
    recent: VecDeque<Record>,
    builder: RecordBuilder,
    next_id: u64,
    clock_ms: u64,
}

impl StreamGenerator {
    /// A generator for `profile`, deterministic in `seed`.
    pub fn new(profile: DatasetProfile, seed: u64) -> Self {
        let zipf = ZipfSampler::new(profile.vocab, profile.skew);
        Self {
            profile,
            zipf,
            rng: StdRng::seed_from_u64(seed),
            arrival: ArrivalProcess::default(),
            recent: VecDeque::new(),
            builder: RecordBuilder::new(),
            next_id: 0,
            clock_ms: 0,
        }
    }

    /// Replaces the arrival (timestamping) process.
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// Generates the next record.
    pub fn next_record(&mut self) -> Record {
        self.clock_ms = self.arrival.next_ts(&mut self.rng, self.clock_ms);
        let id = RecordId(self.next_id);
        self.next_id += 1;

        let record = if !self.recent.is_empty() && self.rng.random::<f64>() < self.profile.dup_rate
        {
            self.near_duplicate(id)
        } else {
            self.fresh_record(id)
        };

        self.recent.push_back(record.clone());
        if self.recent.len() > self.profile.recent_pool {
            self.recent.pop_front();
        }
        record
    }

    /// Convenience: the next `n` records as a vector.
    pub fn take_records(&mut self, n: usize) -> Vec<Record> {
        (0..n).map(|_| self.next_record()).collect()
    }

    fn fresh_record(&mut self, id: RecordId) -> Record {
        let target_len = self.profile.len_dist.sample(&mut self.rng).max(1);
        // Sample distinct tokens; the builder dedups, so oversample until
        // the set is full (capped: extreme skew may not admit `target_len`
        // distinct tokens cheaply).
        let mut distinct = 0;
        let mut attempts = 0;
        let max_attempts = target_len * 20 + 64;
        let mut seen: Vec<TokenId> = Vec::with_capacity(target_len);
        while distinct < target_len && attempts < max_attempts {
            attempts += 1;
            let t = self.zipf.sample_token(&mut self.rng);
            if !seen.contains(&t) {
                seen.push(t);
                distinct += 1;
            }
        }
        self.builder.extend(seen);
        self.builder
            .finish(id, self.clock_ms)
            .expect("at least one token sampled")
    }

    fn near_duplicate(&mut self, id: RecordId) -> Record {
        let src_idx = self.rng.random_range(0..self.recent.len());
        let src = self.recent[src_idx].clone();
        let mutations = self.rng.random_range(0..=self.profile.dup_mutations);
        let mut tokens: Vec<TokenId> = src.tokens().to_vec();
        for _ in 0..mutations {
            if tokens.len() >= 2 && self.rng.random::<bool>() {
                // Remove a random token.
                let idx = self.rng.random_range(0..tokens.len());
                tokens.swap_remove(idx);
            } else {
                // Add a fresh token.
                tokens.push(self.zipf.sample_token(&mut self.rng));
            }
        }
        self.builder.extend(tokens);
        self.builder
            .finish(id, self.clock_ms)
            .expect("duplicates keep at least one token")
    }
}

impl Iterator for StreamGenerator {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_with_seed() {
        let a = StreamGenerator::new(DatasetProfile::aol(), 99).take_records(200);
        let b = StreamGenerator::new(DatasetProfile::aol(), 99).take_records(200);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id(), y.id());
            assert_eq!(x.tokens(), y.tokens());
            assert_eq!(x.timestamp(), y.timestamp());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = StreamGenerator::new(DatasetProfile::aol(), 1).take_records(50);
        let b = StreamGenerator::new(DatasetProfile::aol(), 2).take_records(50);
        assert!(a.iter().zip(&b).any(|(x, y)| x.tokens() != y.tokens()));
    }

    #[test]
    fn ids_sequential_timestamps_monotone() {
        let records = StreamGenerator::new(DatasetProfile::tweet(), 5).take_records(100);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.id(), RecordId(i as u64));
        }
        for w in records.windows(2) {
            assert!(w[0].timestamp() <= w[1].timestamp());
        }
    }

    #[test]
    fn dup_rate_produces_exact_copies_or_near() {
        let p = DatasetProfile::tweet().with_dup_rate(0.9);
        let records = StreamGenerator::new(p, 11).take_records(500);
        // With 90% duplicates of a recent pool, many identical token sets
        // must exist.
        let mut sets: Vec<&[TokenId]> = records.iter().map(|r| r.tokens()).collect();
        sets.sort();
        let dups = sets.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(dups > 50, "expected many duplicates, got {dups}");
    }

    #[test]
    fn zero_dup_rate_never_consults_pool() {
        let p = DatasetProfile::dblp().with_dup_rate(0.0);
        let records = StreamGenerator::new(p, 3).take_records(100);
        assert_eq!(records.len(), 100);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn records_are_valid_sets(seed in 0u64..1000) {
            let records = StreamGenerator::new(DatasetProfile::aol(), seed).take_records(100);
            for r in &records {
                prop_assert!(!r.is_empty());
                prop_assert!(r.tokens().windows(2).all(|w| w[0] < w[1]));
                prop_assert!(r.tokens().iter().all(|t| t.0 < 100_000));
            }
        }
    }
}
