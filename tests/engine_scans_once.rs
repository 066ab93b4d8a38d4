//! Both engines run a probe-and-index record through **one** index scan.
//!
//! With a single joiner every record is indexed and probed at the same
//! task, so the whole stream is `ProbeAndIndex` messages and the joiner's
//! counters must equal those of [`run_stream`] over the same records — the
//! fused `StreamJoiner::process` step. An engine that runs `probe` and then
//! `insert` instead still produces the right pairs, which is why no result
//! comparison catches it: for the bundle joiner it shows only as twice the
//! posting hits (the grouping decision re-scans the index).

use dssj::core::join::run_stream;
use dssj::core::{AllPairsJoiner, BundleJoiner, JoinConfig, PpJoinJoiner, StreamJoiner, Window};
use dssj::distrib::{
    run_cluster, run_distributed, ClusterBackend, ClusterConfig, DistributedJoinConfig, LocalAlgo,
};
use dssj::text::Record;
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

#[test]
fn a_single_joiner_does_exactly_the_work_of_run_stream() {
    let records = records();
    // A window small enough that founders expire and the index compacts.
    let join = JoinConfig::jaccard(0.7).with_window(Window::Count(400));
    let algos: [(LocalAlgo, Box<dyn StreamJoiner>); 3] = [
        (
            LocalAlgo::bundle(),
            Box::new(BundleJoiner::with_defaults(join)),
        ),
        (LocalAlgo::PpJoin, Box::new(PpJoinJoiner::new(join))),
        (LocalAlgo::AllPairs, Box::new(AllPairsJoiner::new(join))),
    ];
    for (local, mut reference) in algos {
        let expected_pairs = run_stream(reference.as_mut(), &records).len();
        let expected = scan_totals(reference.stats());
        assert!(expected[0] > 0 && expected_pairs > 0, "{}", local.name());
        if matches!(local, LocalAlgo::Bundle { .. }) {
            assert!(expected[4] > 0, "the stream must form multi-member bundles");
        }

        let topology = DistributedJoinConfig {
            local,
            ..DistributedJoinConfig::recommended(1, join)
        };
        let cluster = |dispatch_batch| ClusterConfig {
            local,
            dispatch_batch,
            ..ClusterConfig::recommended(1, join, ClusterBackend::InProcess)
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
