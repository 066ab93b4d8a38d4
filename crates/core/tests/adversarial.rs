//! Adversarial-input unit tests: the filtered joiners (ppjoin's prefix /
//! positional filters, bundle's batch verification) against the
//! naive reference on inputs chosen to break filter edge cases —
//! singleton-token records, all-identical streams, disjoint streams,
//! shared-prefix-only records, and boundary thresholds.
//!
//! On *empty* sets: a `Record` cannot be empty by construction —
//! [`Record::from_sorted`] rejects an empty token vector (an empty set has
//! no similarity to anything, and admitting it would force every filter
//! bound to special-case division by zero). The constructor contract is
//! asserted here so the invariant every filter relies on cannot silently
//! erode.

use ssj_core::join::run_stream;
use ssj_core::{
    BundleConfig, BundleJoiner, JoinConfig, NaiveJoiner, PpJoinJoiner, SimFn, Threshold, Window,
};
use ssj_text::{Record, RecordId, TokenId};

fn rec(id: u64, tokens: &[u32]) -> Record {
    Record::from_sorted(
        RecordId(id),
        id, // timestamp = id: keeps time windows aligned with count order
        tokens.iter().map(|&t| TokenId(t)).collect(),
    )
}

fn keys(pairs: &[ssj_core::MatchPair]) -> Vec<(u64, u64)> {
    let mut k: Vec<_> = pairs.iter().map(|m| m.key()).collect();
    k.sort_unstable();
    k
}

/// Every filtered joiner under test, built fresh for one config.
fn filtered(cfg: JoinConfig) -> Vec<(&'static str, Box<dyn ssj_core::StreamJoiner>)> {
    vec![
        ("ppjoin", Box::new(PpJoinJoiner::new(cfg))),
        ("bundle", Box::new(BundleJoiner::with_defaults(cfg))),
        (
            "bundle-tight",
            Box::new(BundleJoiner::new(BundleConfig {
                join: cfg,
                bundle_tau: 0.99,
                max_members: 2,
                max_delta_frac: 0.05,
            })),
        ),
    ]
}

fn assert_all_match_naive(records: &[Record], cfg: JoinConfig, label: &str) {
    let expect = keys(&run_stream(&mut NaiveJoiner::new(cfg), records));
    for (name, mut joiner) in filtered(cfg) {
        let got = keys(&run_stream(joiner.as_mut(), records));
        assert_eq!(got, expect, "{name} diverges from naive on {label}");
    }
}

#[test]
#[should_panic(expected = "has no tokens")]
fn empty_records_are_unrepresentable() {
    // The whole filter pipeline assumes |r| >= 1; the constructor is the
    // enforcement point.
    let _ = Record::from_sorted(RecordId(0), 0, vec![]);
}

#[test]
fn singleton_token_records() {
    // |r| = 1 makes every prefix the whole record and drives all length
    // bounds to their minimum; overlap is 0 or 1, similarity 0 or 1.
    let records: Vec<Record> = (0..40).map(|i| rec(i, &[(i % 5) as u32])).collect();
    for tau in [0.3, 0.5, 1.0] {
        for sim in [SimFn::Jaccard, SimFn::Cosine, SimFn::Dice, SimFn::Overlap] {
            let cfg = JoinConfig {
                threshold: Threshold::new(sim, tau),
                window: Window::Unbounded,
            };
            assert_all_match_naive(&records, cfg, "singleton tokens");
        }
    }
    // Sanity: equal singletons really do match at tau = 1.
    let cfg = JoinConfig::jaccard(1.0);
    let n = run_stream(&mut NaiveJoiner::new(cfg), &records).len();
    assert_eq!(n, 5 * (8 * 7) / 2, "5 token classes x C(8,2) pairs each");
}

#[test]
fn all_identical_sets() {
    // Every pair matches with similarity exactly 1.0: the bundle joiner
    // must absorb everything into one bundle and batch-verify, ppjoin's
    // positional filter must never prune, and windows must still evict.
    let records: Vec<Record> = (0..30).map(|i| rec(i, &[2, 5, 9, 11])).collect();
    for window in [Window::Unbounded, Window::Count(7), Window::TimeMs(4)] {
        let cfg = JoinConfig {
            threshold: Threshold::jaccard(1.0),
            window,
        };
        assert_all_match_naive(&records, cfg, "all-identical sets");
    }
    let cfg = JoinConfig::jaccard(1.0);
    let pairs = run_stream(&mut BundleJoiner::with_defaults(cfg), &records);
    assert_eq!(pairs.len(), 30 * 29 / 2);
    assert!(pairs.iter().all(|p| p.similarity == 1.0));
}

#[test]
fn pairwise_disjoint_sets_produce_nothing() {
    // No shared token anywhere: the prefix index must generate zero
    // candidates and zero results at any threshold.
    let records: Vec<Record> = (0..20u32)
        .map(|i| rec(i as u64, &[3 * i, 3 * i + 1, 3 * i + 2]))
        .collect();
    for tau in [0.1, 0.5, 0.9] {
        let cfg = JoinConfig::jaccard(tau);
        assert_all_match_naive(&records, cfg, "pairwise disjoint sets");
        assert!(run_stream(&mut PpJoinJoiner::new(cfg), &records).is_empty());
    }
}

#[test]
fn shared_prefix_disjoint_suffix() {
    // All records share one hot leading token but nothing else: maximal
    // candidate generation with (mostly) sub-threshold verification — the
    // case the positional filter exists for.
    let records: Vec<Record> = (0..25u32)
        .map(|i| rec(i as u64, &[0, 100 + 4 * i, 101 + 4 * i, 102 + 4 * i]))
        .collect();
    for tau in [0.2, 0.26, 0.5] {
        let cfg = JoinConfig::jaccard(tau);
        assert_all_match_naive(&records, cfg, "shared prefix, disjoint suffix");
    }
    // At tau = 0.2, overlap 1 of 4+4 tokens gives jaccard 1/7 < 0.2: still
    // nothing — verification, not candidate generation, decides.
    assert!(run_stream(&mut NaiveJoiner::new(JoinConfig::jaccard(0.2)), &records).is_empty());
}

#[test]
fn nested_subset_chains() {
    // r_{i+1} strictly contains r_i: exercises asymmetric lengths, where
    // position-based bounds are tightest and off-by-ones bite.
    let records: Vec<Record> = (1..=12u32)
        .map(|i| rec(i as u64, &(0..i).collect::<Vec<_>>()))
        .collect();
    for tau in [0.5, 0.75, 0.92] {
        for sim in [SimFn::Jaccard, SimFn::Cosine, SimFn::Dice, SimFn::Overlap] {
            let cfg = JoinConfig {
                threshold: Threshold::new(sim, tau),
                window: Window::Unbounded,
            };
            assert_all_match_naive(&records, cfg, "nested subset chains");
        }
    }
    // Overlap similarity of a subset pair is exactly 1 regardless of the
    // size gap — every chain pair must surface at tau = 1.
    let cfg = JoinConfig {
        threshold: Threshold::new(SimFn::Overlap, 1.0),
        window: Window::Unbounded,
    };
    let n = run_stream(&mut NaiveJoiner::new(cfg), &records).len();
    assert_eq!(n, 12 * 11 / 2);
}

#[test]
fn boundary_similarity_exactly_at_tau() {
    // jaccard(\{0..3\}, \{0..3,4\}) = 4/5 = 0.8 exactly: >= must admit it.
    let records = vec![rec(0, &[0, 1, 2, 3]), rec(1, &[0, 1, 2, 3, 4])];
    let at = JoinConfig::jaccard(0.8);
    let above = JoinConfig::jaccard(0.81);
    assert_all_match_naive(&records, at, "boundary tau (inclusive)");
    assert_all_match_naive(&records, above, "boundary tau (exclusive)");
    assert_eq!(run_stream(&mut NaiveJoiner::new(at), &records).len(), 1);
    assert!(run_stream(&mut NaiveJoiner::new(above), &records).is_empty());
}

#[test]
fn identical_sets_straddling_a_window_edge() {
    // Identical records exactly W and W+1 apart: the window predicate, not
    // the filters, must decide — and all joiners must agree with naive.
    let mk = |gap: u64| vec![rec(0, &[1, 2, 3]), rec(gap, &[1, 2, 3])];
    for (gap, expect) in [(5u64, 1usize), (6, 0)] {
        let cfg = JoinConfig::jaccard(1.0).with_window(Window::Count(5));
        let records = mk(gap);
        assert_all_match_naive(&records, cfg, "window edge");
        assert_eq!(
            run_stream(&mut NaiveJoiner::new(cfg), &records).len(),
            expect,
            "gap {gap}"
        );
    }
}
