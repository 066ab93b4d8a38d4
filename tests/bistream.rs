//! Cross-crate bi-stream (R–S) join integration tests.

use dssj::core::join::bistream::{merge_streams, run_bistream, BiStreamJoiner, Side};
use dssj::core::{JoinConfig, NaiveJoiner, Threshold, Window};
use dssj::distrib::{
    run_bistream_distributed, DistributedJoinConfig, JoinSpec, LocalAlgo, Strategy,
};
use dssj::text::Record;
use dssj::workloads::{DatasetProfile, StreamGenerator};

fn two_feeds(n: usize) -> (Vec<Record>, Vec<Record>) {
    let all = StreamGenerator::new(DatasetProfile::tweet().with_dup_rate(0.4), 5).take_records(n);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for r in all {
        if r.id().0 % 2 == 0 {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    (left, right)
}

fn ground_truth(left: &[Record], right: &[Record], join: JoinConfig) -> Vec<(u64, u64)> {
    let mut j = BiStreamJoiner::new(|| NaiveJoiner::new(join));
    let mut keys: Vec<_> = run_bistream(&mut j, merge_streams(left, right))
        .iter()
        .map(|m| m.key())
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn distributed_bistream_equals_local_reference() {
    let (left, right) = two_feeds(900);
    let join = JoinConfig::jaccard(0.7);
    let expect = ground_truth(&left, &right, join);
    assert!(!expect.is_empty());

    let cfg = DistributedJoinConfig::recommended(4, join);
    let out = run_bistream_distributed(&left, &right, &cfg);
    let mut got: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
    got.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn bistream_pairs_always_cross_streams() {
    let (left, right) = two_feeds(600);
    let cfg = DistributedJoinConfig::recommended(4, JoinConfig::jaccard(0.8));
    let out = run_bistream_distributed(&left, &right, &cfg);
    for m in &out.pairs {
        assert_ne!(
            m.earlier.0 % 2,
            m.later.0 % 2,
            "pair {:?} connects two records of the same feed",
            m.key()
        );
    }
}

#[test]
fn bistream_window_and_prefix_strategy() {
    let (left, right) = two_feeds(700);
    let join = JoinConfig {
        threshold: Threshold::jaccard(0.6),
        window: Window::Count(150),
    };
    let expect = ground_truth(&left, &right, join);
    let cfg = DistributedJoinConfig {
        channel_capacity: 64,
        ..DistributedJoinConfig::new(JoinSpec {
            local: LocalAlgo::PpJoin,
            strategy: Strategy::Prefix,
            ..JoinSpec::recommended(3, join)
        })
    };
    let out = run_bistream_distributed(&left, &right, &cfg);
    let mut got: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
    got.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn one_empty_side_yields_no_pairs() {
    let (left, _) = two_feeds(100);
    let cfg = DistributedJoinConfig::recommended(2, JoinConfig::jaccard(0.8));
    let out = run_bistream_distributed(&left, &[], &cfg);
    assert!(out.pairs.is_empty());
    assert_eq!(out.records, left.len());
}

#[test]
fn local_bistream_asymmetric_sizes() {
    // A big left index probed by a tiny right stream.
    let all = StreamGenerator::new(DatasetProfile::aol(), 9).take_records(300);
    let (left, right): (Vec<Record>, Vec<Record>) = all.into_iter().partition(|r| r.id().0 < 280);
    let join = JoinConfig::jaccard(0.8);
    let expect = ground_truth(&left, &right, join);
    let mut j = BiStreamJoiner::new(|| dssj::PpJoinJoiner::new(join));
    let mut got: Vec<_> = run_bistream(&mut j, merge_streams(&left, &right))
        .iter()
        .map(|m| m.key())
        .collect();
    got.sort_unstable();
    assert_eq!(got, expect);
    // run_bistream processed both sides; Side is exposed for callers.
    assert_eq!(Side::Left.other(), Side::Right);
}
