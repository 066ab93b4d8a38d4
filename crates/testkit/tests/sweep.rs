//! Every kill point, not a sample: the in-process cluster killed at each
//! `(task, after_acks)` cell of a small stream, under `logical_time`.
//!
//! A cell kills joiner `task` once it has acknowledged `after_acks`
//! messages, then lets the launcher respawn it, restore its window from
//! the replay buffer and retransmit the unacked frames. Each task's cells
//! run from one ack up to the first horizon the stream never reaches (the
//! run ends without a respawn). The cells are crossed with
//! `dispatch_batch` None / 8 and checkpointing off / every 15 records, and
//! every run must equal the O(n²) oracle as a sorted list of keys — so a
//! pair published twice fails as surely as a lost one.
//!
//! The `#[test]` takes every 7th horizon; the full sweep is `#[ignore]`d
//! and run by `scripts/sweep.sh`.

use ssj_core::{JoinConfig, Window};
use ssj_distrib::{
    run_cluster, ClusterBackend, ClusterFault, LocalAlgo, PartitionMethod, Strategy,
};
use testkit::{
    assert_pairs_equal, cluster_config_for, differential_records, self_join, DifferentialCase,
};

const SEED: u64 = 19;
const RECORDS: usize = 120;
const K: usize = 3;

/// Sweeps every `stride`-th kill horizon of every task in every cell and
/// returns how many runs respawned a node.
fn sweep(stride: usize) -> usize {
    let join = JoinConfig::jaccard(0.7).with_window(Window::Count(60));
    let records = differential_records(SEED, RECORDS);
    let expect = self_join(&records, &join);
    assert!(!expect.is_empty(), "the stream produced no pairs");
    let mut killed = 0;
    for batch in [None, Some(8)] {
        for checkpoint in [None, Some(15)] {
            let mut case = DifferentialCase::new(
                RECORDS,
                K,
                join,
                LocalAlgo::bundle(),
                Strategy::LengthAuto {
                    method: PartitionMethod::LoadAware,
                    sample: 50,
                },
            )
            .with_dispatch_batch(batch);
            case.checkpoint_interval = checkpoint;
            for task in 0..K {
                for after_acks in (1..).step_by(stride) {
                    let mut cfg = cluster_config_for(SEED, &case, ClusterBackend::InProcess);
                    cfg.logical_time = true;
                    cfg.fault = Some(ClusterFault {
                        task,
                        after_acks: after_acks as u64,
                    });
                    let out = run_cluster(&records, &cfg);
                    let cell = format!(
                        "batch {batch:?}, checkpoint {checkpoint:?}, \
                         task {task} killed after {after_acks} acks"
                    );
                    assert_pairs_equal(SEED, &out.pairs, expect.clone(), &cell);
                    if out.health.respawns == 0 {
                        break; // the horizon lies past this task's stream
                    }
                    killed += 1;
                }
            }
        }
    }
    killed
}

#[test]
fn every_seventh_kill_point_matches_the_oracle() {
    assert!(sweep(7) > 4 * K, "the thinned sweep killed almost nothing");
}

#[test]
#[ignore = "the full sweep; run by scripts/sweep.sh"]
fn every_kill_point_matches_the_oracle() {
    let killed = sweep(1);
    println!("{killed} runs killed a node, each equal to the oracle");
}
