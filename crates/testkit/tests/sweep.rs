//! Every crash point, not a sample, on both engines: each joiner of a
//! small stream crashed after each of its messages — one `Fault`, run on
//! the in-process cluster under `logical_time` and on the simulated
//! topology.
//!
//! A crash after message n ends the task's incarnation between its
//! messages n and n + 1. The cluster kills the node once message n is
//! acked and message n + 1 framed, respawns it, restores its window from
//! the replay buffer and resends the unacked frames; the topology rebuilds
//! the joiner, which restores from the replay buffer and takes over with
//! message n + 1. Either fires only if a message n + 1 is routed to the
//! task, so every cell asserts that the cluster respawned if and only if
//! the topology restarted, and that both runs equal the O(n²) oracle as a
//! sorted list of keys — so a pair published twice fails as surely as a
//! lost one. Each task's points run from 0 up to the first one its stream
//! never reaches. The cells are crossed with a self-join and a bi-stream
//! join of the same stream (split into sides by id parity, so the lazy
//! merge of the two sides is on the path), `dispatch_batch` None / 8 / 32
//! and checkpointing off / every 15 records.
//!
//! The `#[test]` takes every 7th crash point; the full sweep is
//! `#[ignore]`d and run by `scripts/sweep.sh`.

use ssj_core::{JoinConfig, MatchPair, Window};
use ssj_distrib::{
    run_bistream_distributed, run_cluster, run_cluster_bistream, run_distributed, ClusterBackend,
    Fault, LocalAlgo, PartitionMethod, Strategy,
};
use ssj_text::Record;
use testkit::{
    assert_pairs_equal, bistream_join, cluster_config_for, differential_records, self_join,
    DifferentialCase,
};

const SEED: u64 = 19;
const RECORDS: usize = 120;
const K: usize = 3;

/// Runs [`cell`] at every `stride`-th crash point of every task in every
/// configuration, until a point neither engine reaches; returns how many
/// cells crashed.
fn sweep(stride: usize) -> usize {
    let join = JoinConfig::jaccard(0.7).with_window(Window::Count(60));
    let records = differential_records(SEED, RECORDS);
    let (left, right) = sides(&records);
    let mut crashed = 0;
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
                    for after in (0..).step_by(stride) {
                        let name = format!(
                            "bistream {bistream}, batch {batch:?}, \
                             checkpoint {checkpoint:?}, task {task}, crash after {after}"
                        );
                        let case = case.clone().with_fault(Fault::crash(task, after));
                        if !cell(&case, &records, &expect, task, &name) {
                            break; // the crash point lies past this task's stream
                        }
                        crashed += 1;
                    }
                }
            }
        }
    }
    crashed
}

/// `records` as the two sides of a bi-stream join: even ids left, odd
/// ids right, as `DifferentialCase::bistream` splits them.
fn sides(records: &[Record]) -> (Vec<Record>, Vec<Record>) {
    records.iter().cloned().partition(|r| r.id().0 % 2 == 0)
}

/// Runs `case`, whose one fault crashes `task`, on the in-process cluster
/// and on the simulated topology: both must equal `expect`, and the
/// cluster must respawn exactly when the topology restarts. Returns
/// whether they did.
fn cell(
    case: &DifferentialCase,
    records: &[Record],
    expect: &[MatchPair],
    task: usize,
    name: &str,
) -> bool {
    let mut cluster = cluster_config_for(SEED, case, ClusterBackend::InProcess);
    cluster.logical_time = true;
    let topology = case.simulated(SEED);
    let (cluster, topology) = if case.bistream {
        let (left, right) = sides(records);
        (
            run_cluster_bistream(&left, &right, &cluster),
            run_bistream_distributed(&left, &right, &topology),
        )
    } else {
        (
            run_cluster(records, &cluster),
            run_distributed(records, &topology),
        )
    };
    assert_pairs_equal(SEED, &cluster.pairs, expect.to_vec(), name);
    assert_pairs_equal(SEED, &topology.pairs, expect.to_vec(), name);
    let restarted = topology.report.total_restarts() > 0;
    assert_eq!(
        cluster.health.respawns > 0,
        restarted,
        "{name}: the cluster respawned iff the topology restarted"
    );
    if restarted {
        let survivor = topology.joiners.iter().find(|j| j.task == task);
        assert_eq!(survivor.map(|j| j.incarnation), Some(1), "{name}");
    }
    restarted
}

#[test]
fn every_seventh_crash_point_fires_alike_on_both_engines() {
    assert!(sweep(7) > 4 * K, "the thinned sweep crashed almost nothing");
}

#[test]
#[ignore = "the full sweep; run by scripts/sweep.sh"]
fn every_crash_point_fires_alike_on_both_engines() {
    let crashed = sweep(1);
    println!("{crashed} cells crashed a joiner on both engines, each equal to the oracle");
}
