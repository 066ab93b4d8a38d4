//! The Overlap similarity measure is the degenerate case for length-based
//! routing: it admits partners of any length (`max_len = None`), so probes
//! must reach every partition from the low bound up to the last. These
//! tests pin that path end to end.

use dssj::core::join::run_stream;
use dssj::core::{JoinConfig, NaiveJoiner, SimFn, Threshold, Window};
use dssj::distrib::{
    run_distributed, DistributedJoinConfig, JoinSpec, LocalAlgo, PartitionMethod, Strategy,
};
use dssj::text::{Record, RecordId, TokenId};

fn rec(id: u64, toks: &[u32]) -> Record {
    Record::from_sorted(
        RecordId(id),
        id,
        toks.iter().copied().map(TokenId).collect(),
    )
}

/// Short records containing long records' tokens: overlap similarity
/// matches across wildly different lengths (where Jaccard never would).
fn containment_workload() -> Vec<Record> {
    let mut records = Vec::new();
    let mut id = 0u64;
    for fam in 0..6u32 {
        let base = fam * 100;
        // One long "document".
        let long: Vec<u32> = (0..40).map(|x| base + x).collect();
        records.push(rec(id, &long));
        id += 1;
        // Several short "queries" fully contained in it.
        for q in 0..4 {
            let short: Vec<u32> = (q * 3..q * 3 + 3).map(|x| base + x).collect();
            records.push(rec(id, &short));
            id += 1;
        }
    }
    records
}

#[test]
fn overlap_measure_matches_containment_pairs() {
    let cfg = JoinConfig {
        threshold: Threshold::new(SimFn::Overlap, 1.0),
        window: Window::Unbounded,
    };
    let records = containment_workload();
    let mut naive = NaiveJoiner::new(cfg);
    let out = run_stream(&mut naive, &records);
    // Each family: 4 queries contained in the long doc (overlap sim = 1.0)
    // plus query-query containments where their windows overlap... at
    // overlap 1.0, query pairs only match if one contains the other; the
    // 3-token windows at stride 3 are disjoint, so exactly 4 pairs/family.
    assert_eq!(out.len(), 6 * 4);
    for m in &out {
        assert!((m.similarity - 1.0).abs() < 1e-12);
    }
}

#[test]
fn distributed_overlap_equals_naive_under_every_strategy() {
    let cfg = JoinConfig {
        threshold: Threshold::new(SimFn::Overlap, 0.9),
        window: Window::Unbounded,
    };
    let records = containment_workload();
    let mut naive = NaiveJoiner::new(cfg);
    let mut expect: Vec<_> = run_stream(&mut naive, &records)
        .iter()
        .map(|m| m.key())
        .collect();
    expect.sort_unstable();
    assert!(!expect.is_empty());

    for strategy in [
        Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 10,
        },
        Strategy::Prefix,
        Strategy::Broadcast,
    ] {
        let dc = DistributedJoinConfig {
            channel_capacity: 64,
            ..DistributedJoinConfig::new(JoinSpec {
                local: LocalAlgo::AllPairs,
                strategy,
                ..JoinSpec::recommended(4, cfg)
            })
        };
        let out = run_distributed(&records, &dc);
        let mut got: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
    }
}

#[test]
fn local_joiners_agree_on_overlap_measure() {
    let cfg = JoinConfig {
        threshold: Threshold::new(SimFn::Overlap, 0.7),
        window: Window::Count(20),
    };
    let records = containment_workload();
    let mut naive = NaiveJoiner::new(cfg);
    let mut expect: Vec<_> = run_stream(&mut naive, &records)
        .iter()
        .map(|m| m.key())
        .collect();
    expect.sort_unstable();

    let mut ap = dssj::AllPairsJoiner::new(cfg);
    let mut got: Vec<_> = run_stream(&mut ap, &records)
        .iter()
        .map(|m| m.key())
        .collect();
    got.sort_unstable();
    assert_eq!(got, expect, "allpairs");

    let mut pp = dssj::PpJoinJoiner::new(cfg);
    let mut got: Vec<_> = run_stream(&mut pp, &records)
        .iter()
        .map(|m| m.key())
        .collect();
    got.sort_unstable();
    assert_eq!(got, expect, "ppjoin");

    let mut bj = dssj::BundleJoiner::with_defaults(cfg);
    let mut got: Vec<_> = run_stream(&mut bj, &records)
        .iter()
        .map(|m| m.key())
        .collect();
    got.sort_unstable();
    assert_eq!(got, expect, "bundle");
}
