//! `dispatch_batch` batches **every** edge of the topology, the source's
//! included.
//!
//! Results cannot show how many engine messages carried them — a run that
//! moves one envelope per record into the dispatcher is pair-for-pair the
//! run that moves one per 32 — so the first test pins the counts: what the
//! source emits, what the dispatcher receives, and the whole topology's
//! messages per record, under both schedulers; and that a paced source,
//! whose queue is not full and whose records are due one at a time, is
//! left unbatched.
//!
//! The second pins what a source batch must *not* move: the dispatcher
//! unpacks it record by record, so a checkpoint interval that ends in the
//! middle of a batch opens its epoch at exactly the record an unbatched
//! run opens it at.

use dssj::core::join::run_stream;
use dssj::core::snapshot::decode_window_slice;
use dssj::core::{BundleJoiner, JoinConfig, MatchPair};
use dssj::distrib::checkpoint::Manifest;
use dssj::distrib::{
    open_payload, run_distributed, CheckpointConfig, DistributedJoinConfig, DistributedJoinResult,
    MemStore, SnapshotStore,
};
use dssj::stormlite::FaultPlan;
use dssj::text::Record;
use dssj::workloads::{DatasetProfile, StreamGenerator};
use std::sync::Arc;
use testkit::oracle::sorted_keys;

const N: usize = 4_000;
const K: usize = 4;
const BATCH: usize = 32;

/// `(source msgs_out, dispatcher msgs_in, Σ msgs_in over all tasks)`.
fn message_counts(run: &DistributedJoinResult) -> (u64, u64, u64) {
    assert!(run.report.is_clean(), "{:?}", run.report.failures);
    (
        run.report.component("source").msgs_out,
        run.report.component("dispatcher").msgs_in,
        run.report.tasks.iter().map(|(_, _, m)| m.msgs_in).sum(),
    )
}

#[test]
fn dispatch_batch_batches_the_source_edge_unless_the_source_is_paced() {
    let records: Vec<Record> = StreamGenerator::new(DatasetProfile::tweet(), 19).take_records(N);
    let join = JoinConfig::jaccard(0.8);
    let expected = sorted_keys(&run_stream(
        &mut BundleJoiner::with_defaults(join),
        &records,
    ));
    assert!(!expected.is_empty());
    // Length-based (load-aware) partitioning and the bundle joiner.
    let base = DistributedJoinConfig::recommended(K, join);
    let n = N as u64;

    for (engine, cfg) in [("threads", base.clone()), ("sim", base.clone().with_sim(7))] {
        let batched = run_distributed(&records, &cfg.clone().with_dispatch_batch(BATCH));
        let (source_out, dispatcher_in, all_in) = message_counts(&batched);
        assert_eq!(source_out, n.div_ceil(BATCH as u64), "{engine}");
        assert_eq!(dispatcher_in, source_out, "{engine}");
        assert!(
            all_in as f64 / n as f64 <= 0.25,
            "{engine}: {all_in} engine messages for {n} records"
        );
        assert_eq!(sorted_keys(&batched.pairs), expected, "{engine}, batched");

        // Unbatched, and a batch size of one: one message per record.
        for cfg in [cfg.clone(), cfg.with_dispatch_batch(1)] {
            let single = run_distributed(&records, &cfg);
            let (source_out, dispatcher_in, _) = message_counts(&single);
            assert_eq!((source_out, dispatcher_in), (n, n), "{engine}");
            assert_eq!(sorted_keys(&single.pairs), expected, "{engine}, unbatched");
        }
    }

    // A paced source (wall clock, so threads only) sends each record when
    // it is due; the joiner edges are batched all the same.
    let paced = DistributedJoinConfig {
        source_rate: Some(2e6),
        ..base.with_dispatch_batch(BATCH)
    };
    let paced = run_distributed(&records, &paced);
    let (source_out, dispatcher_in, all_in) = message_counts(&paced);
    assert_eq!((source_out, dispatcher_in), (n, n));
    assert!(
        (all_in - dispatcher_in) as f64 / n as f64 <= 0.25,
        "the joiner edges lost their batching: {all_in} engine messages"
    );
    assert_eq!(sorted_keys(&paced.pairs), expected, "paced");
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
        cfg.dispatch_batch = batch;
        let first = cfg
            .clone()
            .with_checkpointing(CheckpointConfig::new(INTERVAL, Arc::clone(&store)))
            .with_fault(FaultPlan::new().crash("joiner", 1, 25));
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

        let restored = run_distributed(&records, &cfg.with_restore_from(store));
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
