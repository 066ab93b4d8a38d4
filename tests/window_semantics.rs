//! Window semantics must be identical on one node and across a cluster:
//! visibility is defined by the probe's global arrival id / timestamp, not
//! by per-joiner local state.

use dssj::core::join::run_stream;
use dssj::core::{JoinConfig, NaiveJoiner, StreamJoiner, Threshold, Window};
use dssj::distrib::{run_distributed, DistributedJoinConfig, JoinSpec, LocalAlgo, Strategy};
use dssj::text::{Record, RecordId, TokenId};

fn rec(id: u64, ts: u64, toks: &[u32]) -> Record {
    Record::from_sorted(
        RecordId(id),
        ts,
        toks.iter().copied().map(TokenId).collect(),
    )
}

#[test]
fn count_window_boundary_is_exact() {
    // Window::Count(W) means: a probe sees exactly the W most recent
    // arrivals. Place a match exactly at and just beyond the boundary.
    let w = 3u64;
    let cfg = JoinConfig {
        threshold: Threshold::jaccard(0.9),
        window: Window::Count(w),
    };
    // Record 0 matches record 3 (distance 3 = W: visible) and record 4
    // (distance 4 > W: expired).
    let records = vec![
        rec(0, 0, &[1, 2, 3]),
        rec(1, 1, &[10, 11]),
        rec(2, 2, &[20, 21]),
        rec(3, 3, &[1, 2, 3]),
        rec(4, 4, &[1, 2, 3]),
    ];
    let mut j = NaiveJoiner::new(cfg);
    let out = run_stream(&mut j, &records);
    let keys: Vec<_> = out.iter().map(|m| m.key()).collect();
    assert!(keys.contains(&(0, 3)), "distance == W is visible");
    assert!(!keys.contains(&(0, 4)), "distance > W has expired");
    assert!(keys.contains(&(3, 4)));
}

#[test]
fn time_window_boundary_is_exact() {
    let cfg = JoinConfig {
        threshold: Threshold::jaccard(0.9),
        window: Window::TimeMs(100),
    };
    let records = vec![
        rec(0, 0, &[1, 2, 3]),
        rec(1, 100, &[1, 2, 3]), // exactly at the edge: visible
        rec(2, 101, &[1, 2, 3]), // 101ms after record 0: expired
    ];
    let mut j = NaiveJoiner::new(cfg);
    let keys: Vec<_> = run_stream(&mut j, &records)
        .iter()
        .map(|m| m.key())
        .collect();
    assert!(keys.contains(&(0, 1)));
    assert!(!keys.contains(&(0, 2)));
    assert!(keys.contains(&(1, 2)));
}

#[test]
fn distributed_window_equals_local_window() {
    // A stream engineered so that matches straddle partition boundaries
    // *and* window boundaries at the same time.
    let mut records = Vec::new();
    for i in 0..200u64 {
        let fam = (i % 5) as u32 * 100;
        let len = 3 + (i % 4) as usize; // lengths 3..=6 across partitions
        let toks: Vec<u32> = (0..len as u32).map(|x| fam + x).collect();
        records.push(rec(i, i * 10, &toks));
    }
    for window in [Window::Count(23), Window::TimeMs(170)] {
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.5),
            window,
        };
        let mut naive = NaiveJoiner::new(join);
        let mut expect: Vec<_> = run_stream(&mut naive, &records)
            .iter()
            .map(|m| m.key())
            .collect();
        expect.sort_unstable();
        assert!(!expect.is_empty());
        for strategy in [
            Strategy::LengthAuto {
                method: dssj::distrib::PartitionMethod::LoadAware,
                sample: 50,
            },
            Strategy::Prefix,
        ] {
            let cfg = DistributedJoinConfig {
                channel_capacity: 64,
                ..DistributedJoinConfig::new(JoinSpec {
                    local: LocalAlgo::bundle(),
                    strategy,
                    ..JoinSpec::recommended(3, join)
                })
            };
            let out = run_distributed(&records, &cfg);
            let mut got: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "window {window:?} diverged");
        }
    }
}

#[test]
fn eviction_reclaims_index_memory() {
    let cfg = JoinConfig {
        threshold: Threshold::jaccard(0.8),
        window: Window::Count(100),
    };
    let mut j = dssj::PpJoinJoiner::new(cfg);
    let mut out = Vec::new();
    for i in 0..20_000u64 {
        let base = (i % 50) as u32 * 10;
        j.process(&rec(i, i, &[base, base + 1, base + 2, base + 3]), &mut out);
    }
    // Exactly the window is stored, and exactly its prefixes are posted:
    // an evicted record's postings leave with it.
    assert_eq!(j.stored(), 101);
    assert_eq!(j.postings(), 101 * cfg.threshold.prefix_len(4));
}

#[test]
fn unbounded_window_retains_everything() {
    let cfg = JoinConfig::jaccard(0.9);
    let mut j = dssj::AllPairsJoiner::new(cfg);
    let mut out = Vec::new();
    for i in 0..500u64 {
        j.process(&rec(i, i, &[i as u32 * 3, i as u32 * 3 + 1]), &mut out);
    }
    assert_eq!(j.stored(), 500);
}
