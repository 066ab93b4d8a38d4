//! Checkpointing never stalls a task on the snapshot store: every store
//! write of a run — each part's `put` and each epoch's `commit` — runs on
//! the checkpoint coordinator's one store writer thread, on the threads
//! engine, under the simulator and on the in-process cluster. The run
//! still returns only once every epoch it opened is committed.

use dssj::core::JoinConfig;
use dssj::distrib::{
    run_cluster, run_distributed, CheckpointConfig, ClusterBackend, ClusterConfig,
    DistributedJoinConfig, MemStore, SnapshotStore, STORE_WRITER_THREAD,
};
use dssj::text::Record;
use dssj::workloads::{DatasetProfile, StreamGenerator};
use std::sync::Arc;
use testkit::ThreadLogStore;

const N: usize = 3_000;
const K: usize = 4;
const INTERVAL: u64 = 250;

#[test]
fn no_task_thread_writes_to_the_snapshot_store() {
    let records: Vec<Record> = StreamGenerator::new(DatasetProfile::tweet(), 41).take_records(N);
    let join = JoinConfig::jaccard(0.7);
    // One epoch per full interval of dispatched records.
    let epochs = N as u64 / INTERVAL;
    for engine in ["threads", "sim", "cluster"] {
        let store = Arc::new(ThreadLogStore::new(MemStore::new()));
        let checkpoint =
            CheckpointConfig::new(INTERVAL, Arc::clone(&store) as Arc<dyn SnapshotStore>);
        let committed = match engine {
            "cluster" => {
                let mut cfg = ClusterConfig::recommended(K, join, ClusterBackend::InProcess);
                cfg.spec.checkpoint = Some(checkpoint);
                run_cluster(&records, &cfg).epochs_committed
            }
            _ => {
                let mut cfg = DistributedJoinConfig::recommended(K, join).with_dispatch_batch(32);
                if engine == "sim" {
                    cfg = cfg.with_sim(9);
                }
                run_distributed(&records, &cfg.with_checkpointing(checkpoint));
                store.epochs().unwrap().len() as u64
            }
        };
        assert_eq!(committed, epochs, "{engine}");
        assert_eq!(store.epochs().unwrap().len() as u64, epochs, "{engine}");
        let writers = store.writers();
        let puts = writers.iter().filter(|(op, _)| *op == "put").count() as u64;
        assert_eq!(puts, epochs * K as u64, "{engine}: one put per part");
        assert_eq!(
            writers.len() as u64 - puts,
            epochs,
            "{engine}: one commit per epoch"
        );
        for (op, thread) in &writers {
            assert_eq!(
                thread, STORE_WRITER_THREAD,
                "{engine}: a {op} ran on {thread}"
            );
        }
    }
}
