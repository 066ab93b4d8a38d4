//! Exhaustive small-universe check of the threshold boundary.
//!
//! Every non-empty subset of a six-token universe is a record (63 of
//! them), so every combination of lengths and overlap sizes up to six
//! occurs among their pairs. For each similarity function, τ takes every
//! value some pair's similarity has — the pairs with that value sit
//! *exactly* on the threshold, where a filter bound rounded the wrong way
//! or a verification that stops one token early flips an outcome — and
//! every local algorithm, run through the distributed driver over a
//! length partition that splits the universe's lengths in two, must
//! produce precisely the pairs the verify-everything join does. The bundle
//! joiner must get there with multi-member bundles on every measure.

use dssj::core::join::run_stream;
use dssj::core::{JoinConfig, NaiveJoiner, SimFn, Threshold, Window};
use dssj::distrib::{
    run_distributed, DistributedJoinConfig, LocalAlgo, Scheduler, SimConfig, Strategy,
};
use dssj::partition::LengthPartition;
use dssj::text::{Record, RecordId, TokenId};
use testkit::sorted_keys;

const UNIVERSE: u32 = 6;

/// One record per non-empty subset of the universe, in `order`.
fn all_records(order: impl Iterator<Item = u32>) -> Vec<Record> {
    order
        .enumerate()
        .map(|(id, mask)| {
            let tokens = (0..UNIVERSE)
                .filter(|t| mask & (1 << t) != 0)
                .map(TokenId)
                .collect();
            Record::from_sorted(RecordId(id as u64), id as u64, tokens)
        })
        .collect()
}

/// Every similarity value a pair of records over the universe can have.
fn boundary_taus(sim: SimFn) -> Vec<f64> {
    let measure = Threshold::new(sim, 1.0);
    let n = UNIVERSE as usize;
    let mut taus = Vec::new();
    for l1 in 1..=n {
        for l2 in 1..=n {
            // Overlaps two *distinct* subsets of these sizes can have.
            for o in (l1 + l2).saturating_sub(n).max(1)..=l1.min(l2) {
                if o < l1.max(l2) {
                    taus.push(measure.similarity(o, l1, l2));
                }
            }
        }
    }
    taus.sort_by(f64::total_cmp);
    taus.dedup();
    taus
}

#[test]
fn every_local_algorithm_agrees_with_naive_exactly_on_the_threshold() {
    let masks = 1..(1u32 << UNIVERSE);
    let streams = [all_records(masks.clone()), all_records(masks.rev())];
    let locals = [
        LocalAlgo::Naive,
        LocalAlgo::AllPairs,
        LocalAlgo::PpJoin,
        LocalAlgo::PpJoinPlus,
        LocalAlgo::bundle(),
    ];
    let mut on_threshold = 0usize;
    for sim in [SimFn::Jaccard, SimFn::Cosine, SimFn::Dice, SimFn::Overlap] {
        // Records the bundle joiner absorbed into another record's bundle:
        // with none, its members, deltas and positional bounds would go
        // untested on this measure's boundaries.
        let mut absorbed = 0;
        for tau in boundary_taus(sim) {
            let threshold = Threshold::new(sim, tau);
            let join = JoinConfig {
                threshold,
                window: Window::Unbounded,
            };
            for records in &streams {
                let naive = run_stream(&mut NaiveJoiner::new(join), records);
                let boundary = naive.iter().filter(|m| m.similarity == tau).count();
                assert!(boundary > 0, "{sim:?} τ={tau}: no pair sits on it");
                on_threshold += boundary;
                let expect = sorted_keys(&naive);
                for local in locals {
                    let cfg = DistributedJoinConfig {
                        local,
                        strategy: Strategy::Length(LengthPartition::from_uppers(vec![3, 6])),
                        scheduler: Scheduler::Sim(SimConfig::seeded(7)),
                        ..DistributedJoinConfig::recommended(2, join)
                    };
                    let run = run_distributed(records, &cfg);
                    let got = sorted_keys(&run.pairs);
                    assert_eq!(got, expect, "{sim:?} τ={tau} local={}", local.name());
                    absorbed += run
                        .joiners
                        .iter()
                        .map(|j| j.stats.bundle_absorbed)
                        .sum::<u64>();
                }
            }
        }
        assert!(absorbed > 0, "{sim:?}: no bundle ever had a second member");
    }
    assert!(on_threshold > 1_000, "only {on_threshold} boundary pairs");
}
