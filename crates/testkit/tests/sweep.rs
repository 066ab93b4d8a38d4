//! Every kill point, not a sample, on both engines: the in-process cluster
//! killed at each `(task, after_acks)` cell of a small stream, under
//! `logical_time`, and the simulated topology crashed at each
//! `(task, after_tuples)` cell of the same stream.
//!
//! A cluster cell kills joiner `task` once it has acknowledged
//! `after_acks` messages, then lets the launcher respawn it, restore its
//! window from the replay buffer and retransmit the unacked frames. A
//! topology cell crashes joiner `task` once it has processed `after_tuples`
//! engine messages; the rebuilt incarnation restores from the replay
//! buffer and takes over with the message in flight. Each task's cells run
//! from the first kill point up to the first one the stream never reaches
//! (the run ends without a respawn or restart). The cells are crossed with
//! a self-join and a bi-stream join of the same stream (split into sides
//! by id parity, so the lazy merge of the two sides is on the path),
//! `dispatch_batch` None / 8 / 32 and checkpointing off / every 15
//! records, and every run must equal the O(n²) oracle as a sorted list of
//! keys — so a pair published twice fails as surely as a lost one.
//!
//! The `#[test]`s take every 7th kill point; the full sweeps are
//! `#[ignore]`d and run by `scripts/sweep.sh`.

use ssj_core::{JoinConfig, MatchPair, Window};
use ssj_distrib::{
    run_bistream_distributed, run_cluster, run_cluster_bistream, run_distributed, ClusterBackend,
    ClusterFault, DistributedJoinConfig, LocalAlgo, PartitionMethod, Strategy,
};
use ssj_text::Record;
use stormlite::FaultPlan;
use testkit::{
    assert_pairs_equal, bistream_join, cluster_config_for, differential_records, self_join,
    DifferentialCase,
};

const SEED: u64 = 19;
const RECORDS: usize = 120;
const K: usize = 3;

/// Runs `kill(case, records, expect, task, point, cell)` at every
/// `stride`-th kill point of every task in every cell, from `first` until
/// `kill` reports that the run killed nothing; returns how many runs did.
/// `cell` names the run in a failure message.
fn sweep(
    stride: usize,
    first: u64,
    kill: impl Fn(&DifferentialCase, &[Record], &[MatchPair], usize, u64, &str) -> bool,
) -> usize {
    let join = JoinConfig::jaccard(0.7).with_window(Window::Count(60));
    let records = differential_records(SEED, RECORDS);
    let (left, right) = sides(&records);
    let mut killed = 0;
    for bistream in [false, true] {
        let expect = if bistream {
            bistream_join(&left, &right, &join)
        } else {
            self_join(&records, &join)
        };
        assert!(!expect.is_empty(), "the stream produced no pairs");
        for batch in [None, Some(8), Some(32)] {
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
                case.bistream = bistream;
                case.checkpoint_interval = checkpoint;
                for task in 0..K {
                    for point in (first..).step_by(stride) {
                        let cell = format!(
                            "bistream {bistream}, batch {batch:?}, \
                             checkpoint {checkpoint:?}, task {task}, kill point {point}"
                        );
                        if !kill(&case, &records, &expect, task, point, &cell) {
                            break; // the kill point lies past this task's stream
                        }
                        killed += 1;
                    }
                }
            }
        }
    }
    killed
}

/// `records` as the two sides of a bi-stream join: even ids left, odd
/// ids right, as `DifferentialCase::bistream` splits them.
fn sides(records: &[Record]) -> (Vec<Record>, Vec<Record>) {
    records.iter().cloned().partition(|r| r.id().0 % 2 == 0)
}

/// The cluster killed after `after_acks` acks of `task`: whether it
/// respawned a node.
fn cluster_kill(
    case: &DifferentialCase,
    records: &[Record],
    expect: &[MatchPair],
    task: usize,
    after_acks: u64,
    cell: &str,
) -> bool {
    let mut cfg = cluster_config_for(SEED, case, ClusterBackend::InProcess);
    cfg.logical_time = true;
    cfg.fault = Some(ClusterFault { task, after_acks });
    let out = if case.bistream {
        let (left, right) = sides(records);
        run_cluster_bistream(&left, &right, &cfg)
    } else {
        run_cluster(records, &cfg)
    };
    assert_pairs_equal(SEED, &out.pairs, expect.to_vec(), cell);
    out.health.respawns > 0
}

/// The simulated topology with joiner `task` crashed after it processed
/// `after_tuples` engine messages: whether the crash fired.
fn topology_kill(
    case: &DifferentialCase,
    records: &[Record],
    expect: &[MatchPair],
    task: usize,
    after_tuples: u64,
    cell: &str,
) -> bool {
    let cfg = DistributedJoinConfig::new(case.spec())
        .with_sim(SEED)
        .with_fault(FaultPlan::new().crash("joiner", task, after_tuples));
    let out = if case.bistream {
        let (left, right) = sides(records);
        run_bistream_distributed(&left, &right, &cfg)
    } else {
        run_distributed(records, &cfg)
    };
    assert_pairs_equal(SEED, &out.pairs, expect.to_vec(), cell);
    if out.report.total_restarts() == 0 {
        return false;
    }
    let survivor = out.joiners.iter().find(|j| j.task == task);
    assert_eq!(survivor.map(|j| j.incarnation), Some(1), "{cell}");
    true
}

#[test]
fn every_seventh_kill_point_matches_the_oracle() {
    assert!(
        sweep(7, 1, cluster_kill) > 4 * K,
        "the thinned sweep killed almost nothing"
    );
}

#[test]
#[ignore = "the full sweep; run by scripts/sweep.sh"]
fn every_kill_point_matches_the_oracle() {
    let killed = sweep(1, 1, cluster_kill);
    println!("{killed} runs killed a node, each equal to the oracle");
}

#[test]
fn every_seventh_topology_crash_point_matches_the_oracle() {
    assert!(
        sweep(7, 0, topology_kill) > 4 * K,
        "the thinned sweep crashed almost nothing"
    );
}

#[test]
#[ignore = "the full sweep; run by scripts/sweep.sh"]
fn every_topology_crash_point_matches_the_oracle() {
    let killed = sweep(1, 0, topology_kill);
    println!("{killed} runs crashed a joiner, each equal to the oracle");
}
