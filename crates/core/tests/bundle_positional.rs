//! The bundle joiner's positional filter is exact where bundles are hard.
//!
//! The filter reasons about a probe's overlap with a bundle's
//! *representative* from posting positions, yet it decides for every
//! member and for the grouping step. The streams here are built so that
//! the reasoning has to hold in its awkward corners: multi-member bundles
//! whose members' prefixes post tokens the representative lacks (postings
//! without a position) and representative tokens at and beyond the fully
//! posted leading run, under count windows short enough that a founder
//! expires while the members it absorbed live on, with the absorption
//! threshold on either side of the join threshold and a member cap of 2.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ssj_core::join::run_stream;
use ssj_core::{
    BundleConfig, BundleJoiner, JoinConfig, MatchPair, NaiveJoiner, SimFn, StreamJoiner, Threshold,
    Window,
};
use ssj_text::{Record, RecordId, TokenId};
use ssj_workloads::{DatasetProfile, StreamGenerator};

/// Tokens every family draws from: small enough that families share
/// prefix tokens (candidates that do not match), large enough that they
/// stay distinct.
const UNIVERSE: u32 = 160;

/// `n` records from `families` near-duplicate families in random
/// interleaving. A family is a random base set; each arrival is the base
/// with up to three edits, biased to the front of the record so that they
/// land in prefixes: a deletion pulls later representative tokens into the
/// member's prefix, a substitution or insertion puts a token there that
/// the representative does not have.
fn family_stream(seed: u64, families: usize, n: usize) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bases: Vec<Vec<u32>> = (0..families)
        .map(|_| {
            let len = rng.random_range(8..28usize);
            let mut base: Vec<u32> = (0..UNIVERSE).collect();
            for i in 0..len {
                let j = rng.random_range(i..base.len());
                base.swap(i, j);
            }
            base.truncate(len);
            base.sort_unstable();
            base
        })
        .collect();
    (0..n as u64)
        .map(|id| {
            let mut toks = bases[rng.random_range(0..families)].clone();
            for _ in 0..rng.random_range(0..4u32) {
                let front = rng.random_range(0..3u32) > 0;
                let at = if front {
                    rng.random_range(0..toks.len().div_ceil(3))
                } else {
                    rng.random_range(0..toks.len())
                };
                match rng.random_range(0..3u32) {
                    0 if toks.len() > 2 => {
                        toks.remove(at);
                    }
                    1 => toks[at] = rng.random_range(0..UNIVERSE),
                    _ => toks.push(rng.random_range(0..UNIVERSE)),
                }
                toks.sort_unstable();
                toks.dedup();
            }
            Record::from_sorted(RecordId(id), id, toks.into_iter().map(TokenId).collect())
        })
        .collect()
}

fn sorted(pairs: &[MatchPair]) -> Vec<(u64, u64, u64)> {
    let mut keys: Vec<_> = pairs
        .iter()
        .map(|m| (m.earlier.0, m.later.0, m.similarity.to_bits()))
        .collect();
    keys.sort_unstable();
    keys
}

const SIMS: [SimFn; 4] = [SimFn::Jaccard, SimFn::Cosine, SimFn::Dice, SimFn::Overlap];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bundle_equals_naive_fused_equals_split_and_restores_exactly(
        seed in 0u64..1_000_000,
        sim_idx in 0usize..4,
        tau in 0.5f64..0.95,
        // Absorption threshold as a point between 0.35 and 1.0: below the
        // join threshold as often as above it.
        bundle_tau in 0.35f64..1.0,
        max_members in 0usize..2,
        families in 1usize..5,
        window in 4u64..40,
    ) {
        let records = family_stream(seed, families, 220);
        let join = JoinConfig {
            threshold: Threshold::new(SIMS[sim_idx], tau),
            window: Window::Count(window),
        };
        let cfg = BundleConfig::new(join)
            .with_bundle_tau(bundle_tau)
            .with_max_members([2, 64][max_members]);

        // Fused `process` against the O(n·w) reference.
        let expect = run_stream(&mut NaiveJoiner::new(join), &records);
        let (head, tail) = records.split_at(records.len() / 2);
        let mut fused = BundleJoiner::new(cfg);
        let mut got = run_stream(&mut fused, head);

        // A restored joiner regroups the window its own way and must still
        // continue with the same pairs.
        let mut restored = BundleJoiner::new(cfg);
        restored.restore(&fused.window_snapshot());
        prop_assert_eq!(restored.stored(), fused.stored());
        let tail_pairs = run_stream(&mut fused, tail);
        prop_assert_eq!(sorted(&run_stream(&mut restored, tail)), sorted(&tail_pairs));
        got.extend(tail_pairs);
        prop_assert_eq!(sorted(&got), sorted(&expect));

        // `probe` then `insert` is the same step, pair for pair, and leaves
        // the same bundles behind.
        let mut split = BundleJoiner::new(cfg);
        let mut split_pairs = Vec::new();
        for r in &records {
            split.probe(r, &mut split_pairs);
            split.insert(r);
        }
        prop_assert_eq!(&split_pairs, &got);
        prop_assert_eq!(split.window_snapshot(), fused.window_snapshot());
        prop_assert_eq!(split.bundles(), fused.bundles());
        prop_assert_eq!(split.postings(), fused.postings());
        prop_assert_eq!(split.stats().bundle_absorbed, fused.stats().bundle_absorbed);
    }
}

/// The proptest's streams do reach the corners it is there for, and the
/// filter does fire on them.
#[test]
fn family_streams_form_multi_member_bundles_and_get_position_filtered() {
    let (mut absorbed, mut filtered, mut evicted) = (0, 0, 0);
    for seed in 0..20 {
        let join = JoinConfig::jaccard(0.6).with_window(Window::Count(25));
        let mut j = BundleJoiner::new(BundleConfig::new(join).with_bundle_tau(0.5));
        run_stream(&mut j, &family_stream(seed, 3, 220));
        absorbed += j.stats().bundle_absorbed;
        filtered += j.stats().position_filtered;
        evicted += j.stats().evicted;
    }
    assert!(absorbed > 500, "absorbed {absorbed}");
    assert!(filtered > 100, "position-filtered {filtered}");
    assert!(evicted > 3_000, "evicted {evicted}");
}

/// Long heavy-tailed records under the benchmark's threshold: most
/// candidates share one early prefix token and nothing else, which is what
/// the filter is for.
#[test]
fn enron_like_records_are_position_filtered_and_stay_exact() {
    let records = StreamGenerator::new(DatasetProfile::enron(), 5).take_records(900);
    let join = JoinConfig::jaccard(0.6).with_window(Window::Count(400));
    let expect = run_stream(&mut NaiveJoiner::new(join), &records);
    let mut bundle = BundleJoiner::with_defaults(join);
    let got = run_stream(&mut bundle, &records);
    assert_eq!(sorted(&got), sorted(&expect));
    let st = bundle.stats();
    assert!(st.position_filtered > 0, "{st}");
    assert!(
        st.position_filtered > st.verifications,
        "the filter should remove most of what the length filter lets through\n{st}"
    );
}
