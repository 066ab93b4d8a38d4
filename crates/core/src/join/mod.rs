//! Streaming local join algorithms.
//!
//! Every joiner implements [`StreamJoiner`]: probe the index with an
//! incoming record, then (for self-joins) insert it. The four
//! implementations trade filtering power for index maintenance cost:
//!
//! | joiner | candidate generation | extra filters | verification |
//! |---|---|---|---|
//! | [`NaiveJoiner`] | none (scan) | — | full merge |
//! | [`AllPairsJoiner`] | prefix index | length | early-terminated merge |
//! | [`PpJoinJoiner`] | prefix index | length + positional | resumed merge |
//! | [`BundleJoiner`] | bundle prefix index | bundle length bounds + positional (vs. representative) | shared resumed merge + per-member delta |
//!
//! All four apply the identical acceptance predicate
//! [`Threshold::matches`](crate::sim::Threshold::matches), so their result
//! sets are interchangeable — a property the test suite enforces.

mod allpairs;
pub mod bistream;
mod bundle;
mod naive;
mod ppjoin;

pub use allpairs::AllPairsJoiner;
pub use bistream::{merge_streams, run_bistream, BiStreamJoiner, Side};
pub use bundle::{BundleConfig, BundleJoiner};
pub use naive::NaiveJoiner;
pub use ppjoin::PpJoinJoiner;

use crate::sim::Threshold;
use crate::stats::JoinStats;
use crate::window::Window;
use ssj_text::{Record, RecordId};

/// One join result: an (earlier, later) record pair and its similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchPair {
    /// The record that arrived first (it was in the index).
    pub earlier: RecordId,
    /// The record that arrived later (it was the probe).
    pub later: RecordId,
    /// Exact similarity under the configured measure.
    pub similarity: f64,
}

impl MatchPair {
    /// Canonical key for set comparisons in tests and dedup.
    pub fn key(&self) -> (u64, u64) {
        (self.earlier.0, self.later.0)
    }
}

/// Threshold + window: the two knobs every joiner shares.
#[derive(Debug, Clone, Copy)]
pub struct JoinConfig {
    /// Similarity function and threshold τ.
    pub threshold: Threshold,
    /// Sliding-window policy.
    pub window: Window,
}

impl JoinConfig {
    /// Unbounded-window Jaccard config (the common benchmark setting).
    pub fn jaccard(tau: f64) -> Self {
        Self {
            threshold: Threshold::jaccard(tau),
            window: Window::Unbounded,
        }
    }

    /// Replaces the window policy.
    pub fn with_window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }
}

/// A streaming set-similarity self-join operator.
///
/// In the distributed setting a joiner may receive *probe-only* records
/// (records indexed elsewhere) and *insert-only* records (records probing
/// elsewhere), which is why the two operations are exposed separately;
/// [`process`](Self::process) is the single-node probe-then-insert step.
pub trait StreamJoiner {
    /// Short algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Finds all indexed records matching `record` (without inserting it)
    /// and appends them to `out`. Also advances the eviction watermark.
    fn probe(&mut self, record: &Record, out: &mut Vec<MatchPair>);

    /// Adds `record` to the index.
    fn insert(&mut self, record: &Record);

    /// Probe, then insert: the self-join step for one arrival.
    fn process(&mut self, record: &Record, out: &mut Vec<MatchPair>) {
        self.probe(record, out);
        self.insert(record);
    }

    /// The live window contents as full records, in arrival order.
    ///
    /// Together with [`restore`](Self::restore) this is the recovery path:
    /// a replacement joiner rebuilds its index from the in-window records in
    /// O(window) work instead of re-processing the whole stream. Joiners
    /// that store deltas rather than full records (the bundle joiner)
    /// reconstruct each record exactly, so
    /// `fresh.restore(&old.window_snapshot())` always reproduces the old
    /// joiner's visible index state.
    fn window_snapshot(&self) -> Vec<Record>;

    /// Rebuilds index state from `records`, the in-window portion of the
    /// stream in arrival order. Index-only: nothing is probed and no
    /// results are produced. The default insert loop costs O(window)
    /// because each insert's eviction scan only ever touches
    /// already-expired entries.
    fn restore(&mut self, records: &[Record]) {
        for r in records {
            self.insert(r);
        }
    }

    /// Execution counters.
    fn stats(&self) -> &JoinStats;

    /// Live records currently indexed.
    fn stored(&self) -> usize;

    /// Current inverted-index size in postings (0 for the naive joiner).
    fn postings(&self) -> usize;
}

impl StreamJoiner for Box<dyn StreamJoiner + Send> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn probe(&mut self, record: &Record, out: &mut Vec<MatchPair>) {
        self.as_mut().probe(record, out)
    }

    fn insert(&mut self, record: &Record) {
        self.as_mut().insert(record)
    }

    fn process(&mut self, record: &Record, out: &mut Vec<MatchPair>) {
        self.as_mut().process(record, out)
    }

    fn window_snapshot(&self) -> Vec<Record> {
        self.as_ref().window_snapshot()
    }

    fn restore(&mut self, records: &[Record]) {
        self.as_mut().restore(records)
    }

    fn stats(&self) -> &JoinStats {
        self.as_ref().stats()
    }

    fn stored(&self) -> usize {
        self.as_ref().stored()
    }

    fn postings(&self) -> usize {
        self.as_ref().postings()
    }
}

/// Runs a whole stream through a joiner, collecting every result.
/// Convenience for tests and examples.
pub fn run_stream<J: StreamJoiner + ?Sized>(joiner: &mut J, records: &[Record]) -> Vec<MatchPair> {
    let mut out = Vec::new();
    for r in records {
        joiner.process(r, &mut out);
    }
    out
}

/// One in how many arrivals [`run_stream_profiled`] times: a systematic
/// 1-in-8 sample keeps the two clock reads off seven of every eight
/// records, so per-record latencies well under a microsecond can be
/// profiled without the clock dominating the measurement.
pub const PROFILE_SAMPLE_EVERY: usize = 8;

/// Runs a whole stream like [`run_stream`], additionally sampling the
/// wall-clock latency of one arrival in every [`PROFILE_SAMPLE_EVERY`]
/// into `profile` under [`obs::Stage::Execute`].
///
/// This is the local-join counterpart of the distributed driver's
/// per-stage profile, used by the observability overhead benchmark to put
/// a number on what the instrumentation itself costs. Every record goes
/// through the same fused [`process`](StreamJoiner::process) step as
/// [`run_stream`] (timing must never force a joiner onto a slower
/// split probe/insert path), so the only added work is two clock reads
/// and one histogram increment per sampled arrival.
pub fn run_stream_profiled<J: StreamJoiner + ?Sized>(
    joiner: &mut J,
    records: &[Record],
    profile: &mut obs::StageProfile,
) -> Vec<MatchPair> {
    let mut out = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if i % PROFILE_SAMPLE_EVERY == 0 {
            let t0 = std::time::Instant::now();
            joiner.process(r, &mut out);
            profile.record(obs::Stage::Execute, t0.elapsed());
        } else {
            joiner.process(r, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod snapshot_tests {
    //! The snapshot/restore contract every joiner must satisfy: after any
    //! prefix of the stream, `fresh.restore(&old.window_snapshot())` yields
    //! a joiner whose observable behavior on the rest of the stream is
    //! identical to the original's.

    use super::*;
    use ssj_text::TokenId;

    fn rec(id: u64, toks: &[u32]) -> Record {
        Record::from_sorted(
            RecordId(id),
            id * 10,
            toks.iter().copied().map(TokenId).collect(),
        )
    }

    /// A stream mixing near-duplicate families (so bundles actually form)
    /// with singletons, under ids 0..n and timestamps 10·id.
    fn family_stream(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let fam = (i % 5) as u32 * 50;
                let variant = (i % 3) as u32;
                rec(
                    i,
                    &[fam, fam + 1, fam + 2, fam + 3, fam + 4, fam + 6 + variant],
                )
            })
            .collect()
    }

    fn joiner_under_test(which: &str, cfg: JoinConfig) -> Box<dyn StreamJoiner + Send> {
        match which {
            "naive" => Box::new(NaiveJoiner::new(cfg)),
            "allpairs" => Box::new(AllPairsJoiner::new(cfg)),
            "ppjoin" => Box::new(PpJoinJoiner::new(cfg)),
            "ppjoin+" => Box::new(PpJoinJoiner::new_plus(cfg)),
            "bundle" => Box::new(BundleJoiner::with_defaults(cfg)),
            other => panic!("unknown joiner {other}"),
        }
    }

    const ALL: [&str; 5] = ["naive", "allpairs", "ppjoin", "ppjoin+", "bundle"];

    fn windows() -> [Window; 3] {
        [Window::Unbounded, Window::Count(12), Window::TimeMs(150)]
    }

    #[test]
    fn snapshot_is_the_visible_window_in_arrival_order() {
        let records = family_stream(40);
        for window in windows() {
            let cfg = JoinConfig::jaccard(0.6).with_window(window);
            let reference = {
                let mut j = NaiveJoiner::new(cfg);
                run_stream(&mut j, &records);
                j.window_snapshot()
            };
            assert!(!reference.is_empty());
            assert!(
                reference.windows(2).all(|w| w[0].id() < w[1].id()),
                "snapshot out of arrival order"
            );
            for which in ALL {
                let mut j = joiner_under_test(which, cfg);
                run_stream(&mut j, &records);
                let snap = j.window_snapshot();
                assert_eq!(snap.len(), j.stored(), "{which} {window:?}");
                let got: Vec<_> = snap
                    .iter()
                    .map(|r| (r.id(), r.timestamp(), r.tokens().to_vec()))
                    .collect();
                let want: Vec<_> = reference
                    .iter()
                    .map(|r| (r.id(), r.timestamp(), r.tokens().to_vec()))
                    .collect();
                assert_eq!(got, want, "{which} {window:?}");
            }
        }
    }

    #[test]
    fn restore_from_snapshot_resumes_exactly() {
        let records = family_stream(60);
        let (head, tail) = records.split_at(40);
        for window in windows() {
            let cfg = JoinConfig::jaccard(0.6).with_window(window);
            for which in ALL {
                let mut original = joiner_under_test(which, cfg);
                run_stream(&mut original, head);
                let snap = original.window_snapshot();

                let mut fresh = joiner_under_test(which, cfg);
                fresh.restore(&snap);
                assert_eq!(fresh.stored(), snap.len(), "{which} {window:?}");

                let mut expect: Vec<_> = run_stream(&mut original, tail)
                    .iter()
                    .map(|m| m.key())
                    .collect();
                let mut got: Vec<_> = run_stream(&mut fresh, tail)
                    .iter()
                    .map(|m| m.key())
                    .collect();
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(expect, got, "{which} {window:?}");
            }
        }
    }

    #[test]
    fn restore_produces_no_results() {
        let records = family_stream(30);
        for which in ALL {
            let cfg = JoinConfig::jaccard(0.5);
            let mut original = joiner_under_test(which, cfg);
            run_stream(&mut original, &records);
            let mut fresh = joiner_under_test(which, cfg);
            fresh.restore(&original.window_snapshot());
            assert_eq!(fresh.stats().results, 0, "{which} emitted during restore");
            assert_eq!(fresh.stats().probed, 0, "{which} probed during restore");
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        for which in ALL {
            let cfg = JoinConfig::jaccard(0.8);
            let j = joiner_under_test(which, cfg);
            assert!(j.window_snapshot().is_empty(), "{which}");
            let mut fresh = joiner_under_test(which, cfg);
            fresh.restore(&[]);
            assert_eq!(fresh.stored(), 0, "{which}");
        }
    }
}

#[cfg(test)]
mod profiled_tests {
    use super::*;
    use ssj_text::TokenId;

    #[test]
    fn profiled_run_matches_plain_run_and_counts_every_record() {
        let records: Vec<Record> = (0..40u64)
            .map(|id| {
                let toks = (0..6u32).map(|t| TokenId(t + (id as u32 % 5))).collect();
                Record::from_sorted(RecordId(id), id, toks)
            })
            .collect();
        let cfg = JoinConfig::jaccard(0.6);

        let mut plain = BundleJoiner::new(BundleConfig::new(cfg));
        let expected = run_stream(&mut plain, &records);

        let mut profiled = BundleJoiner::new(BundleConfig::new(cfg));
        let mut profile = obs::StageProfile::new();
        let got = run_stream_profiled(&mut profiled, &records, &mut profile);

        assert_eq!(expected, got, "profiling must not change the results");
        // 40 records at a 1-in-8 sample: records 0, 8, 16, 24, 32.
        let sampled = 40usize.div_ceil(PROFILE_SAMPLE_EVERY) as u64;
        assert_eq!(profile.get(obs::Stage::Execute).count(), sampled);
        // Only the one stage the local path exercises is populated.
        for (stage, h) in profile.stages() {
            match stage {
                obs::Stage::Execute => assert_eq!(h.count(), sampled),
                _ => assert_eq!(h.count(), 0, "unexpected samples in {}", stage.name()),
            }
        }
    }
}
