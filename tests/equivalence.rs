//! Property-based equivalence of the *local* joiners: every filtered
//! joiner must produce exactly the naive ground-truth result set across
//! random workload shapes, thresholds and windows. Distributed
//! configurations are covered exhaustively — under deterministic
//! simulation, with faults — by `tests/differential.rs` and the
//! `testkit` oracle, which replaced the spot-check matrix that used to
//! live here.

use dssj::core::join::run_stream;
use dssj::core::{
    AllPairsJoiner, BundleConfig, BundleJoiner, JoinConfig, NaiveJoiner, PpJoinJoiner, SimFn,
    Threshold, Window,
};
use dssj::text::Record;
use dssj::workloads::{DatasetProfile, LengthDist, StreamGenerator};
use proptest::prelude::*;

/// A small random profile: every parameter that shapes the join cost is
/// drawn, so the property explores skew × length × duplication space.
fn profile_strategy() -> impl Strategy<Value = DatasetProfile> {
    (
        100usize..2000, // vocab
        0.0f64..1.3,    // skew
        1usize..6,      // lo
        6usize..40,     // hi
        0.0f64..0.7,    // dup rate
        0usize..4,      // dup mutations
    )
        .prop_map(
            |(vocab, skew, lo, hi, dup_rate, dup_mutations)| DatasetProfile {
                name: "prop",
                vocab,
                skew,
                len_dist: LengthDist::Uniform { lo, hi },
                dup_rate,
                dup_mutations,
                recent_pool: 256,
            },
        )
}

fn sorted_keys(pairs: &[dssj::MatchPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(|m| m.key()).collect();
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Local joiners vs naive, random profiles and thresholds.
    #[test]
    fn local_joiners_match_naive(
        profile in profile_strategy(),
        seed in 0u64..10_000,
        tau in 0.5f64..0.95,
        sim_idx in 0usize..3,
        window_kind in 0usize..3,
    ) {
        let records = StreamGenerator::new(profile, seed).take_records(250);
        let sim = [SimFn::Jaccard, SimFn::Cosine, SimFn::Dice][sim_idx];
        let window = match window_kind {
            0 => Window::Unbounded,
            1 => Window::Count(60),
            _ => Window::TimeMs(40),
        };
        let cfg = JoinConfig { threshold: Threshold::new(sim, tau), window };
        let mut naive = NaiveJoiner::new(cfg);
        let expect = sorted_keys(&run_stream(&mut naive, &records));

        let mut ap = AllPairsJoiner::new(cfg);
        prop_assert_eq!(&sorted_keys(&run_stream(&mut ap, &records)), &expect, "allpairs");
        let mut pp = PpJoinJoiner::new(cfg);
        prop_assert_eq!(&sorted_keys(&run_stream(&mut pp, &records)), &expect, "ppjoin");
        let mut bj = BundleJoiner::with_defaults(cfg);
        prop_assert_eq!(&sorted_keys(&run_stream(&mut bj, &records)), &expect, "bundle");
    }

    /// Bundle joiner with random bundle parameters vs naive.
    #[test]
    fn bundle_parameters_never_change_results(
        profile in profile_strategy(),
        seed in 0u64..10_000,
        tau in 0.5f64..0.9,
        bundle_tau in 0.3f64..1.0,
        max_members in 1usize..16,
        max_delta_frac in 0.0f64..0.9,
    ) {
        let records = StreamGenerator::new(profile, seed).take_records(200);
        let join = JoinConfig::jaccard(tau);
        let mut naive = NaiveJoiner::new(join);
        let expect = sorted_keys(&run_stream(&mut naive, &records));
        let cfg = BundleConfig {
            join,
            bundle_tau,
            max_members,
            max_delta_frac,
        };
        let mut bj = BundleJoiner::new(cfg);
        prop_assert_eq!(sorted_keys(&run_stream(&mut bj, &records)), expect);
    }

    /// Filters never create similarity values that differ from the naive
    /// computation (not just the same pairs — the same numbers).
    #[test]
    fn similarity_values_are_exact(
        profile in profile_strategy(),
        seed in 0u64..10_000,
        tau in 0.5f64..0.9,
    ) {
        let records: Vec<Record> = StreamGenerator::new(profile, seed).take_records(150);
        let cfg = JoinConfig::jaccard(tau);
        let mut naive = NaiveJoiner::new(cfg);
        let mut expect = run_stream(&mut naive, &records);
        expect.sort_by_key(|m| m.key());
        let mut bj = BundleJoiner::with_defaults(cfg);
        let mut got = run_stream(&mut bj, &records);
        got.sort_by_key(|m| m.key());
        prop_assert_eq!(expect.len(), got.len());
        for (e, g) in expect.iter().zip(&got) {
            prop_assert_eq!(e.key(), g.key());
            prop_assert!((e.similarity - g.similarity).abs() < 1e-12,
                "similarity mismatch on {:?}: {} vs {}", e.key(), e.similarity, g.similarity);
        }
    }
}
