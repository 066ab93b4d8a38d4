//! Long streams through small windows: every eviction unposts its record
//! (a bundle: once its last member goes) and frees the slot for a later
//! insert, so slots and list blocks are reused thousands of times over.
//! Results must stay exact throughout, and index memory must track the
//! window exactly — under count and time windows, and for the bi-stream
//! bundle joiner, whose two sides evict on their own.

use dssj::core::join::{run_bistream, run_stream, BiStreamJoiner, Side};
use dssj::core::{
    AllPairsJoiner, BundleJoiner, JoinConfig, MatchPair, NaiveJoiner, PpJoinJoiner, StreamJoiner,
    Threshold, Window,
};
use dssj::text::{Record, RecordId, TokenId};
use dssj::workloads::{ArrivalProcess, DatasetProfile, LengthDist, StreamGenerator};

fn workload(n: usize, arrival: ArrivalProcess) -> Vec<Record> {
    let profile = DatasetProfile {
        name: "churn-stress",
        vocab: 500, // small vocabulary: dense matches keep indexes busy
        skew: 0.9,
        len_dist: LengthDist::Uniform { lo: 3, hi: 12 },
        dup_rate: 0.4,
        dup_mutations: 2,
        recent_pool: 128,
    };
    StreamGenerator::new(profile, 77)
        .with_arrival(arrival)
        .take_records(n)
}

/// One record a millisecond: a time window is a count window.
const STEADY: ArrivalProcess = ArrivalProcess::Uniform { gap_ms: 1 };

/// Fifty records 10 ms apart, then fifty 1 ms apart: a time window's
/// population swings by an order of magnitude.
const BURSTY: ArrivalProcess = ArrivalProcess::Bursty {
    calm_gap_ms: 10,
    burst_gap_ms: 1,
    phase_len: 50,
};

/// Every third record on the left stream, the rest on the right.
fn sides(records: &[Record]) -> impl Iterator<Item = (Side, &Record)> + Clone {
    (records.iter().enumerate())
        .map(|(i, r)| (if i % 3 == 0 { Side::Left } else { Side::Right }, r))
}

fn keys(pairs: &[MatchPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(|m| m.key()).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn slot_reuse_preserves_results() {
    // 20k records through a window of ~64: ~19.9k evictions, so each slot
    // and list block is reused hundreds of times.
    let n = 20_000;
    for (arrival, window) in [(STEADY, Window::Count(64)), (BURSTY, Window::TimeMs(150))] {
        let records = workload(n, arrival);
        let cfg = JoinConfig {
            threshold: Threshold::jaccard(0.7),
            window,
        };
        let expect = keys(&run_stream(&mut NaiveJoiner::new(cfg), &records));
        assert!(!expect.is_empty());

        let joiners: [(&str, Box<dyn StreamJoiner>); 3] = [
            ("allpairs", Box::new(AllPairsJoiner::new(cfg))),
            ("ppjoin+", Box::new(PpJoinJoiner::new_plus(cfg))),
            ("bundle", Box::new(BundleJoiner::with_defaults(cfg))),
        ];
        for (name, mut j) in joiners {
            let got = keys(&run_stream(j.as_mut(), &records));
            assert_eq!(got, expect, "{name} {window:?}");
        }

        let arrivals = sides(&records);
        let mut naive = BiStreamJoiner::new(|| NaiveJoiner::new(cfg));
        let expect = keys(&run_bistream(&mut naive, arrivals.clone()));
        assert!(!expect.is_empty());
        let mut bi = BiStreamJoiner::new(|| BundleJoiner::with_defaults(cfg));
        let got = keys(&run_bistream(&mut bi, arrivals));
        assert_eq!(got, expect, "bi-stream bundle {window:?}");
    }
}

#[test]
fn memory_stays_bounded_by_the_window() {
    let n = 30_000;
    for (arrival, window) in [(STEADY, Window::Count(128)), (BURSTY, Window::TimeMs(256))] {
        let records = workload(n, arrival);
        let cfg = JoinConfig {
            threshold: Threshold::jaccard(0.8),
            window,
        };
        let t = cfg.threshold;
        let arrivals = sides(&records);
        let mut pp = PpJoinJoiner::new(cfg);
        let mut ap = AllPairsJoiner::new(cfg);
        let mut bj = BundleJoiner::with_defaults(cfg);
        let mut bi = BiStreamJoiner::new(|| BundleJoiner::with_defaults(cfg));
        let mut out = Vec::new();
        let mut oldest = 0;
        for (i, (side, r)) in arrivals.enumerate() {
            pp.process(r, &mut out);
            ap.process(r, &mut out);
            bj.process(r, &mut out);
            bi.process(side, r, &mut out);
            out.clear();
            let expired =
                |s: &Record| window.expired(s.id().0, s.timestamp(), r.id().0, r.timestamp());
            while expired(&records[oldest]) {
                oldest += 1;
            }
            let live = &records[oldest..=i];
            // A record joiner posts exactly each live record's streaming
            // prefix: no posting outlives its record.
            let posted: usize = live
                .iter()
                .map(|s| t.prefix_len(s.len()).min(s.len()))
                .sum();
            assert_eq!(pp.postings(), posted, "ppjoin {window:?} at {i}");
            assert_eq!(ap.postings(), posted, "allpairs {window:?} at {i}");
            for stored in [pp.stored(), ap.stored(), bj.stored(), bi.stored()] {
                assert_eq!(stored, live.len(), "{window:?} at {i}");
            }
            assert!(bj.bundles() <= bj.stored());
        }

        // A probe past the window evicts everything, and every posting
        // goes with its record or bundle.
        let last = records.last().expect("records");
        let beyond = Record::from_sorted(
            RecordId(last.id().0 + 1_000_000),
            last.timestamp() + 1_000_000,
            vec![TokenId(u32::MAX - 1)],
        );
        pp.probe(&beyond, &mut out);
        ap.probe(&beyond, &mut out);
        bj.probe(&beyond, &mut out);
        bi.probe(Side::Left, &beyond, &mut out);
        bi.probe(Side::Right, &beyond, &mut out);
        assert!(out.is_empty());
        for (postings, stored) in [
            (pp.postings(), pp.stored()),
            (ap.postings(), ap.stored()),
            (bj.postings(), bj.stored()),
            (bi.postings(), bi.stored()),
        ] {
            assert_eq!((postings, stored), (0, 0), "{window:?}");
        }
    }
}

#[test]
fn eviction_counts_are_exact() {
    let n = 5_000usize;
    let w = 100u64;
    let records = workload(n, STEADY);
    let cfg = JoinConfig {
        threshold: Threshold::jaccard(0.8),
        window: Window::Count(w),
    };
    let mut j = AllPairsJoiner::new(cfg);
    let mut out = Vec::new();
    for r in &records {
        j.process(r, &mut out);
    }
    // Everything inserted is either still live or was evicted.
    assert_eq!(
        j.stats().indexed,
        j.stored() as u64 + j.stats().evicted,
        "insert/evict accounting leak"
    );
}
