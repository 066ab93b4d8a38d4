//! `dispatch_batch` batches the one edge of the topology: the dispatcher
//! spout's `k` wires into the joiners.
//!
//! Results cannot show how many engine messages carried them — a run that
//! moves one envelope per routed record into the joiners is pair-for-pair
//! the run that moves one per 32 — so the first test pins the count: at a
//! batch size of 32 the whole topology moves at most one engine message
//! per four records, paced or not, under both schedulers.
//!
//! The second pins the topology's shape: two components, the dispatcher
//! a spout and the joiner terminal — it publishes its own pairs — so every
//! engine message is one the dispatcher sent, and a reintroduced hop fails
//! it.
//!
//! The third pins what a batch must *not* move: the dispatcher opens
//! epochs record by record and flushes its batches before each barrier,
//! so a checkpoint interval that ends in the middle of a batch opens its
//! epoch at exactly the record an unbatched run opens it at.
//!
//! The fourth pins the byte accounting: an envelope carries the size its
//! sender counted, so the joiners receive exactly the bytes the dispatcher
//! sent, batched or not.

use dssj::core::join::run_stream;
use dssj::core::snapshot::decode_window_slice;
use dssj::core::{BundleJoiner, JoinConfig, MatchPair};
use dssj::distrib::checkpoint::Manifest;
use dssj::distrib::{
    open_payload, run_distributed, CheckpointConfig, DistributedJoinConfig, DistributedJoinResult,
    Fault, MemStore, SnapshotStore,
};
use dssj::text::Record;
use dssj::workloads::{DatasetProfile, StreamGenerator};
use std::sync::Arc;
use testkit::oracle::sorted_keys;

const N: usize = 4_000;
const K: usize = 4;
const BATCH: usize = 32;

/// `(dispatcher msgs_out, Σ msgs_in over all tasks)`.
fn message_counts(run: &DistributedJoinResult) -> (u64, u64) {
    (
        run.report.component("dispatcher").msgs_out,
        run.report.tasks.iter().map(|(_, _, m)| m.msgs_in).sum(),
    )
}

#[test]
fn dispatch_batch_bounds_engine_messages_per_record_paced_or_not() {
    let records: Vec<Record> = StreamGenerator::new(DatasetProfile::tweet(), 19).take_records(N);
    let join = JoinConfig::jaccard(0.8);
    let expected = sorted_keys(&run_stream(
        &mut BundleJoiner::with_defaults(join),
        &records,
    ));
    assert!(!expected.is_empty());
    // Length-based (load-aware) partitioning and the bundle joiner.
    let base = DistributedJoinConfig::recommended(K, join).with_dispatch_batch(BATCH);
    // A paced source runs on the wall clock, so on threads only.
    let paced = DistributedJoinConfig {
        source_rate: Some(2e6),
        ..base.clone()
    };
    let n = N as u64;
    for (engine, cfg) in [
        ("threads", base.clone()),
        ("sim", base.with_sim(7)),
        ("threads, paced", paced),
    ] {
        let run = run_distributed(&records, &cfg);
        let (_, all_in) = message_counts(&run);
        assert!(
            all_in as f64 / n as f64 <= 0.25,
            "{engine}: {all_in} engine messages for {n} records"
        );
        assert_eq!(sorted_keys(&run.pairs), expected, "{engine}");
    }
}

#[test]
fn joiners_receive_the_bytes_the_dispatcher_sends() {
    let records: Vec<Record> = StreamGenerator::new(DatasetProfile::tweet(), 23).take_records(N);
    let base = DistributedJoinConfig::recommended(K, JoinConfig::jaccard(0.8));
    for (engine, cfg) in [
        ("threads", base.clone()),
        ("threads, batched", base.clone().with_dispatch_batch(BATCH)),
        ("sim", base.clone().with_sim(7)),
        ("sim, batched", base.with_dispatch_batch(BATCH).with_sim(7)),
    ] {
        let run = run_distributed(&records, &cfg);
        let sent = run.report.component("dispatcher").bytes_out;
        let received = run.report.component("joiner").bytes_in;
        assert!(sent > 0, "{engine}");
        assert_eq!(received, sent, "{engine}");
    }
}

#[test]
fn the_joiner_is_the_terminal_bolt_and_no_hop_follows_it() {
    let records: Vec<Record> = StreamGenerator::new(DatasetProfile::tweet(), 29).take_records(N);
    let join = JoinConfig::jaccard(0.7);
    let base = DistributedJoinConfig::recommended(K, join);
    for (engine, cfg) in [("threads", base.clone()), ("sim", base.with_sim(3))] {
        for batch in [None, Some(BATCH)] {
            let mut cfg = cfg.clone();
            cfg.spec.dispatch_batch = batch;
            let run = run_distributed(&records, &cfg);
            let what = format!("{engine}, dispatch_batch {batch:?}");
            assert!(!run.pairs.is_empty(), "{what}: no pairs to publish");
            let mut components: Vec<&str> = run
                .report
                .tasks
                .iter()
                .map(|(c, _, _)| c.as_str())
                .collect();
            components.dedup();
            assert_eq!(components, ["dispatcher", "joiner"], "{what}");
            let (dispatcher_out, all_in) = message_counts(&run);
            assert_eq!(all_in, dispatcher_out, "{what}");
            assert_eq!(run.report.component("joiner").msgs_out, 0, "{what}");
            assert_eq!(run.latency.count(), run.pairs.len() as u64, "{what}");
        }
    }
}

/// Every committed epoch of `store`: its manifest (last dispatched id,
/// routing partition) and, per joiner task, the ids its snapshot holds —
/// under an unbounded window everything indexed there up to the task's
/// cut, so the last one *is* the per-task cut id.
fn committed_epochs(store: &dyn SnapshotStore, k: usize) -> Vec<(Manifest, Vec<Vec<u64>>)> {
    let epochs = store.epochs().expect("in-memory store");
    epochs
        .into_iter()
        .map(|epoch| {
            let sealed = store.manifest(epoch).unwrap().expect("committed epoch");
            let manifest = Manifest::decode(open_payload(&sealed).unwrap()).unwrap();
            let parts = (0..k)
                .map(|task| {
                    let sealed = store.get(epoch, &format!("joiner-{task}")).unwrap();
                    let sealed = sealed.expect("every task published");
                    let window = decode_window_slice(open_payload(&sealed).unwrap()).unwrap();
                    window.iter().map(|(_, r)| r.id().0).collect()
                })
                .collect();
            (manifest, parts)
        })
        .collect()
}

#[test]
fn an_interval_that_ends_mid_batch_cuts_where_the_unbatched_run_cuts() {
    const INTERVAL: u64 = 10;
    let profile = DatasetProfile::tweet().with_dup_rate(0.3);
    let records: Vec<Record> = StreamGenerator::new(profile, 23).take_records(600);
    let join = JoinConfig::jaccard(0.7);
    let oracle = run_stream(&mut BundleJoiner::with_defaults(join), &records);
    // The first run sees this prefix, crashes a joiner on the way, and
    // leaves nothing behind but its snapshot store.
    let prefix = &records[..400];

    let mut unbatched_epochs = None;
    // 8 does not divide the interval and 32 spans three of them.
    for batch in [None, Some(8), Some(32)] {
        let store: Arc<dyn SnapshotStore> = Arc::new(MemStore::new());
        let mut cfg = DistributedJoinConfig::recommended(3, join).with_sim(5);
        cfg.spec.dispatch_batch = batch;
        let mut first = cfg
            .clone()
            .with_checkpointing(CheckpointConfig::new(INTERVAL, Arc::clone(&store)));
        first.spec.faults = vec![Fault::crash(1, 25)];
        let first = run_distributed(prefix, &first);
        assert_eq!(first.report.total_restarts(), 1, "batch {batch:?}");

        let epochs = committed_epochs(store.as_ref(), 3);
        assert_eq!(epochs.len() as u64, prefix.len() as u64 / INTERVAL);
        for (i, (manifest, _)) in epochs.iter().enumerate() {
            let last = &prefix[(i + 1) * INTERVAL as usize - 1];
            assert_eq!(manifest.cut_id, last.id().0, "batch {batch:?}");
        }
        match &unbatched_epochs {
            None => unbatched_epochs = Some(epochs),
            Some(unbatched) => assert_eq!(&epochs, unbatched, "batch {batch:?}"),
        }

        cfg.spec.restore_from = Some(store);
        let restored = run_distributed(&records, &cfg);
        let cut = restored.restored_cut.expect("restored from the last epoch");
        assert_eq!(cut, prefix.last().unwrap().id().0);
        let owed: Vec<MatchPair> = oracle.iter().copied().filter(|m| m.later.0 > cut).collect();
        assert!(!owed.is_empty());
        assert_eq!(
            sorted_keys(&restored.pairs),
            sorted_keys(&owed),
            "batch {batch:?}"
        );
    }
}
