//! Both engines run a probe-and-index record through **one** index scan.
//!
//! With a single joiner every record is indexed and probed at the same
//! task, so the whole stream is `ProbeAndIndex` messages and the joiner's
//! counters must equal those of [`run_stream`] over the same records — the
//! fused `StreamJoiner::process` step. An engine that runs `probe` and then
//! `insert` instead still produces the right pairs, which is why no result
//! comparison catches it: for the bundle joiner it shows only as twice the
//! posting hits (the grouping decision re-scans the index).
//!
//! With several joiners a joiner's scan also depends on what *it* stores:
//! each probes with the prefix its own shortest stored record needs. So
//! at k = 4 each joiner's counters must equal a single-threaded replay of
//! the messages the length router sends that joiner.

use dssj::core::join::run_stream;
use dssj::core::{
    AllPairsJoiner, BundleJoiner, JoinConfig, MatchPair, PpJoinJoiner, StreamJoiner, Window,
};
use dssj::distrib::{
    run_cluster, run_distributed, ClusterBackend, ClusterConfig, DistributedJoinConfig, JoinSpec,
    LengthRouter, LocalAlgo, Router, Strategy,
};
use dssj::partition::LengthPartition;
use dssj::text::{Record, RecordId, TokenId};
use dssj::workloads::{DatasetProfile, StreamGenerator};

/// The counters a second scan (or a different candidate set, or a different
/// grouping) would move.
fn scan_totals(stats: &dssj::core::JoinStats) -> [u64; 5] {
    [
        stats.posting_hits,
        stats.candidates,
        stats.verifications,
        stats.bundles_created,
        stats.bundle_absorbed,
    ]
}

fn records() -> Vec<Record> {
    StreamGenerator::new(DatasetProfile::tweet().with_dup_rate(0.3), 11).take_records(1_500)
}

type Factory = fn(JoinConfig) -> Box<dyn StreamJoiner + Send>;

/// The three indexed local algorithms, as the engines name them and as a
/// test builds them.
fn algos() -> [(LocalAlgo, Factory); 3] {
    [
        (LocalAlgo::bundle(), |join| {
            Box::new(BundleJoiner::with_defaults(join))
        }),
        (LocalAlgo::PpJoin, |join| Box::new(PpJoinJoiner::new(join))),
        (LocalAlgo::AllPairs, |join| {
            Box::new(AllPairsJoiner::new(join))
        }),
    ]
}

#[test]
fn a_single_joiner_does_exactly_the_work_of_run_stream() {
    let records = records();
    // A window small enough that founders expire and the index compacts.
    let join = JoinConfig::jaccard(0.7).with_window(Window::Count(400));
    for (local, make) in algos() {
        let mut reference = make(join);
        let expected_pairs = run_stream(&mut reference, &records).len();
        let expected = scan_totals(reference.stats());
        assert!(expected[0] > 0 && expected_pairs > 0, "{}", local.name());
        if matches!(local, LocalAlgo::Bundle { .. }) {
            assert!(expected[4] > 0, "the stream must form multi-member bundles");
        }

        let spec = JoinSpec {
            local,
            ..JoinSpec::recommended(1, join)
        };
        let topology = DistributedJoinConfig::new(spec.clone());
        let cluster = |dispatch_batch| {
            let spec = JoinSpec {
                dispatch_batch,
                ..spec.clone()
            };
            ClusterConfig::new(spec, ClusterBackend::InProcess)
        };
        let threads = run_distributed(&records, &topology);
        let batched = run_distributed(&records, &topology.clone().with_dispatch_batch(32));
        let sim = run_distributed(&records, &topology.with_sim(7));
        let node = run_cluster(&records, &cluster(None));
        let node_batched = run_cluster(&records, &cluster(Some(32)));
        for (what, pairs, joiners) in [
            ("threads", threads.pairs.len(), threads.joiners),
            ("threads, batched", batched.pairs.len(), batched.joiners),
            ("sim", sim.pairs.len(), sim.joiners),
            ("node_serve", node.pairs.len(), node.joiners),
            (
                "node_serve, batched",
                node_batched.pairs.len(),
                node_batched.joiners,
            ),
        ] {
            assert_eq!(pairs, expected_pairs, "{} {what}", local.name());
            assert_eq!(joiners.len(), 1);
            assert_eq!(
                scan_totals(&joiners[0].stats),
                expected,
                "{} {what}: [posting_hits, candidates, verifications, bundles_created, \
                 bundle_absorbed] differ from run_stream",
                local.name()
            );
        }
    }
}

fn sorted_keys(pairs: &[MatchPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(MatchPair::key).collect();
    keys.sort_unstable();
    keys
}

/// Replays a length-routed run on one thread: every record goes, in stream
/// order, to each joiner the router names, as the one message the
/// dispatcher sends it — `process` where it is probed and indexed, `probe`
/// or `insert` where only one of the two. `prime` is inserted into the top
/// joiner first. Returns the pairs and each joiner's scan counters.
fn routed_replay(
    make: Factory,
    join: JoinConfig,
    partition: &LengthPartition,
    records: &[Record],
    prime: Option<&Record>,
) -> (Vec<(u64, u64)>, Vec<[u64; 5]>) {
    let mut router = LengthRouter::new(join.threshold, partition.clone());
    let mut joiners: Vec<_> = (0..partition.k()).map(|_| make(join)).collect();
    if let Some(prime) = prime {
        joiners.last_mut().expect("k ≥ 1").insert(prime);
    }
    let mut out = Vec::new();
    for r in records {
        let route = router.route(r);
        for (task, j) in joiners.iter_mut().enumerate() {
            match (route.probe.contains(&task), route.index.contains(&task)) {
                (true, true) => j.process(r, &mut out),
                (true, false) => j.probe(r, &mut out),
                (false, true) => j.insert(r),
                (false, false) => {}
            }
        }
    }
    let totals = joiners.iter().map(|j| scan_totals(j.stats())).collect();
    (sorted_keys(&out), totals)
}

#[test]
fn four_joiners_each_do_exactly_the_work_of_their_routed_replay() {
    let records = StreamGenerator::new(DatasetProfile::enron(), 11).take_records(1_200);
    let join = JoinConfig::jaccard(0.6).with_window(Window::Count(400));
    let partition = LengthPartition::from_uppers(vec![50, 80, 120, 600]);
    for (local, make) in algos() {
        let name = local.name();
        let (expected_pairs, expected) = routed_replay(make, join, &partition, &records, None);
        assert!(!expected_pairs.is_empty(), "{name}");
        assert!(expected.iter().all(|t| t[0] > 0), "{name}: {expected:?}");
        if matches!(local, LocalAlgo::Bundle { .. }) {
            assert!(
                expected.iter().any(|t| t[4] > 0),
                "{name}: no bundle absorbed"
            );
        }

        let spec = JoinSpec {
            local,
            strategy: Strategy::Length(partition.clone()),
            ..JoinSpec::recommended(partition.k(), join)
        };
        let topology = DistributedJoinConfig::new(spec.clone());
        let cluster = |dispatch_batch| {
            let spec = JoinSpec {
                dispatch_batch,
                ..spec.clone()
            };
            ClusterConfig::new(spec, ClusterBackend::InProcess)
        };
        let threads = run_distributed(&records, &topology);
        let batched = run_distributed(&records, &topology.clone().with_dispatch_batch(32));
        let sim = run_distributed(&records, &topology.with_sim(7));
        let node = run_cluster(&records, &cluster(None));
        let node_batched = run_cluster(&records, &cluster(Some(32)));
        for (what, pairs, mut joiners) in [
            ("threads", threads.pairs, threads.joiners),
            ("threads, batched 32", batched.pairs, batched.joiners),
            ("sim", sim.pairs, sim.joiners),
            ("node_serve", node.pairs, node.joiners),
            (
                "node_serve, batched 32",
                node_batched.pairs,
                node_batched.joiners,
            ),
        ] {
            assert_eq!(sorted_keys(&pairs), expected_pairs, "{name} {what}");
            joiners.sort_by_key(|j| j.task);
            let got: Vec<_> = joiners.iter().map(|j| scan_totals(&j.stats)).collect();
            assert_eq!(
                got, expected,
                "{name} {what}: per-joiner [posting_hits, candidates, verifications, \
                 bundles_created, bundle_absorbed] differ from the routed replay"
            );
        }

        // One stored 1-token record that matches nothing lowers the top
        // joiner's floor to 1, which probes with full streaming prefixes
        // again: the same pairs, more postings read.
        let prime = Record::from_sorted(RecordId(0), 0, vec![TokenId(u32::MAX)]);
        let (primed_pairs, primed) = routed_replay(make, join, &partition, &records, Some(&prime));
        assert_eq!(primed_pairs, expected_pairs, "{name} primed");
        let top = partition.k() - 1;
        assert!(
            primed[top][0] > expected[top][0],
            "{name}: top joiner read {} postings primed, {} unprimed",
            primed[top][0],
            expected[top][0]
        );
    }
}
