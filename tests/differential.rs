//! Differential testing under deterministic simulation: every distributed
//! configuration — strategy × local algorithm × window kind, with and
//! without crashes, checkpoints and load shedding — must reproduce the
//! naive O(n²) oracle exactly when run under [`stormlite::sim`].
//!
//! These properties replace the former spot-check matrix in
//! `tests/equivalence.rs` (which ran a handful of threaded combinations):
//! simulation makes each case fully deterministic, so a failing seed here
//! is a complete reproduction recipe, and CI sweeps seeds by exporting
//! `PROPTEST_RNG_SEED` (see the `sim-differential` job).
//!
//! The second block pins the same oracle on the cluster launcher's
//! in-process backend across its `dispatch_batch` settings, and there
//! under seeded outages that break a session and end in a respawn — the
//! frame stream changes shape under batching (one `Data`, one `Results`,
//! one ack per batch), the result set may not. Those runs are real threads on the
//! wall clock, so a seed reproduces the inputs and the scripted faults but
//! not the interleaving; each body runs under a deadline.

use dssj::core::{JoinConfig, Threshold, Window};
use dssj::distrib::{
    run_cluster, run_distributed, CheckpointConfig, ClusterBackend, ClusterConfig,
    DistributedJoinConfig, Fault, JoinSpec, LocalAlgo, MemStore, PartitionMethod, SnapshotStore,
    Strategy,
};
use dssj::partition::LengthPartition;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use testkit::{
    assert_pairs_equal, differential_records, run_cluster_differential_relaxed,
    run_cluster_exhausting_budget, run_cluster_restore_differential, run_differential,
    run_restore_differential, self_join, with_deadline, DifferentialCase,
};

const STRATEGIES: usize = 4;
const LOCALS: usize = 4;
/// `local(BUNDLE)` is the bundle joiner.
const BUNDLE: usize = 3;
const WINDOWS: usize = 3;

fn strategy(idx: usize, k: usize) -> Strategy {
    match idx {
        0 => Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 50,
        },
        // An explicit, deliberately skewed partition (uppers 3, 6, 12, …):
        // the shape a restore installs from a manifest, with near-empty
        // joiners at the short end and everything long on the last one.
        1 => Strategy::Length(LengthPartition::from_uppers(
            (0..k).map(|i| 3 << i).collect(),
        )),
        2 => Strategy::Prefix,
        _ => Strategy::Broadcast,
    }
}

fn local(idx: usize) -> LocalAlgo {
    [
        LocalAlgo::Naive,
        LocalAlgo::AllPairs,
        LocalAlgo::PpJoin,
        LocalAlgo::bundle(),
    ][idx]
}

fn window(idx: usize) -> Window {
    match idx {
        0 => Window::Unbounded,
        1 => Window::Count(60),
        _ => Window::TimeMs(40),
    }
}

/// Edge batching (topology) and data-path framing (cluster): off, the
/// unwrapped-singleton size, a size that packs several messages per wire
/// or frame, and the recommended size.
const BATCHES: usize = 4;

fn batch(idx: usize) -> Option<usize> {
    [None, Some(1), Some(8), Some(32)][idx]
}

/// A hung cluster must fail its case, not the job.
const CLUSTER_DEADLINE: Duration = Duration::from_secs(60);

fn on_cluster(seed: u64, case: DifferentialCase) -> testkit::ClusterDifferentialOutcome {
    with_deadline(CLUSTER_DEADLINE, move || {
        run_cluster_differential_relaxed(seed, &case, ClusterBackend::InProcess)
    })
}

fn case(k: usize, tau: f64, strat: usize, loc: usize, win: usize) -> DifferentialCase {
    let join = JoinConfig {
        threshold: Threshold::jaccard(tau),
        window: window(win),
    };
    DifferentialCase::new(120, k, join, local(loc), strategy(strat, k))
}

/// The full configuration matrix, one simulated run each: no combination
/// is allowed to go untested even when the randomized sweeps are unlucky.
#[test]
fn every_strategy_local_window_combination_matches_oracle() {
    let mut nonempty = 0usize;
    for strat in 0..STRATEGIES {
        for loc in 0..LOCALS {
            for win in 0..WINDOWS {
                let seed = (strat * LOCALS * WINDOWS + loc * WINDOWS + win) as u64;
                let out = run_differential(seed, &case(3, 0.7, strat, loc, win));
                nonempty += (out.pairs > 0) as usize;
            }
        }
    }
    // Guard against the whole matrix silently degenerating to empty joins.
    assert!(
        nonempty > STRATEGIES * LOCALS * WINDOWS / 2,
        "most matrix cells produced no pairs — the workload is too sparse"
    );
}

/// Checkpoint-and-restore across the full matrix: for every strategy ×
/// local algorithm × window kind, phase one checkpoints (and crashes
/// mid-stream), the whole topology is discarded, and a rebuilt topology
/// restored from the latest complete snapshot must produce byte-exact
/// oracle-equal results for everything after the checkpoint cut.
#[test]
fn every_combination_restores_exactly_from_checkpoint() {
    let mut restored = 0usize;
    for strat in 0..STRATEGIES {
        for loc in 0..LOCALS {
            for win in 0..WINDOWS {
                let seed = 0x9e37 + (strat * LOCALS * WINDOWS + loc * WINDOWS + win) as u64;
                let out =
                    run_restore_differential(seed, &case(3, 0.7, strat, loc, win).with_crash());
                restored += out.cut.is_some() as usize;
            }
        }
    }
    // Most cells must have committed at least one epoch before the cut —
    // otherwise the restore path was never actually exercised.
    assert!(
        restored > STRATEGIES * LOCALS * WINDOWS / 2,
        "only {restored} matrix cells committed a checkpoint before the handover"
    );
}

/// One spec, two engines: a checkpoint the simulated topology writes, the
/// in-process cluster restores, and the other way round. Both directions
/// resume at the same cut and owe exactly the oracle's pairs past it.
#[test]
fn a_checkpoint_restores_across_engines() {
    const SEED: u64 = 7;
    let records = differential_records(SEED, 240);
    let join = JoinConfig::jaccard(0.7).with_window(Window::Count(60));
    let oracle = self_join(&records, &join);
    // The first run sees this prefix and leaves nothing behind but its
    // snapshot store.
    let prefix = &records[..150];
    let spec = JoinSpec {
        dispatch_batch: Some(8),
        ..JoinSpec::recommended(3, join)
    };
    let topology = |spec| DistributedJoinConfig::new(spec).with_sim(SEED);
    let cluster = |spec| ClusterConfig::new(spec, ClusterBackend::InProcess);
    let mut cuts = Vec::new();
    for topology_writes in [true, false] {
        let store: Arc<dyn SnapshotStore> = Arc::new(MemStore::new());
        let writer = JoinSpec {
            checkpoint: Some(CheckpointConfig::new(40, Arc::clone(&store))),
            ..spec.clone()
        };
        let reader = JoinSpec {
            restore_from: Some(store),
            ..spec.clone()
        };
        let (cut, pairs) = if topology_writes {
            run_distributed(prefix, &topology(writer));
            let restored = run_cluster(&records, &cluster(reader));
            (restored.restored_cut, restored.pairs)
        } else {
            run_cluster(prefix, &cluster(writer));
            let restored = run_distributed(&records, &topology(reader));
            (restored.restored_cut, restored.pairs)
        };
        let cut = cut.expect("the first run committed an epoch");
        let owed = oracle.iter().filter(|m| m.later.0 > cut).copied().collect();
        assert_pairs_equal(SEED, &pairs, owed, "restored on the other engine");
        cuts.push(cut);
    }
    assert_eq!(cuts[0], cuts[1], "the engines cut the same checkpoint");
    assert_eq!(cuts[0], prefix[119].id().0, "the last of three epochs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random configuration, fault-free: simulated run equals the oracle.
    #[test]
    fn simulated_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        tau in 0.55f64..0.9,
        strat in 0usize..STRATEGIES,
        loc in 0usize..LOCALS,
        win in 0usize..WINDOWS,
        bat in 0usize..BATCHES,
    ) {
        run_differential(
            seed,
            &case(k, tau, strat, loc, win).with_dispatch_batch(batch(bat)),
        );
    }

    /// Random configuration under an injected joiner crash: recovery must
    /// mask the fault so the oracle still matches exactly.
    #[test]
    fn faulty_simulated_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        tau in 0.55f64..0.9,
        strat in 0usize..STRATEGIES,
        loc in 0usize..LOCALS,
        win in 0usize..WINDOWS,
        bat in 0usize..BATCHES,
    ) {
        let c = case(k, tau, strat, loc, win)
            .with_dispatch_batch(batch(bat))
            .with_crash();
        run_differential(seed, &c);
    }

    /// Checkpointing in the loop changes nothing observable: barriers and
    /// snapshot publishes ride alongside crashes, and the oracle must
    /// still match exactly.
    #[test]
    fn checkpointed_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        tau in 0.55f64..0.9,
        strat in 0usize..STRATEGIES,
        loc in 0usize..LOCALS,
        win in 0usize..WINDOWS,
        interval in 8u64..48,
        crash in 0usize..2,
        bat in 0usize..BATCHES,
    ) {
        let mut c = case(k, tau, strat, loc, win)
            .with_checkpoints(interval)
            .with_dispatch_batch(batch(bat));
        if crash == 1 {
            c = c.with_crash();
        }
        run_differential(seed, &c);
    }

    /// Random configuration, crash mid-stream, restore from the latest
    /// complete snapshot: the rebuilt topology equals the oracle on the
    /// post-cut suffix, byte-exact.
    #[test]
    fn restored_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        tau in 0.55f64..0.9,
        strat in 0usize..STRATEGIES,
        loc in 0usize..LOCALS,
        win in 0usize..WINDOWS,
        interval in 8u64..48,
        crash in 0usize..2,
        bat in 0usize..BATCHES,
    ) {
        let mut c = case(k, tau, strat, loc, win)
            .with_checkpoints(interval)
            .with_dispatch_batch(batch(bat));
        if crash == 1 {
            c = c.with_crash();
        }
        run_restore_differential(seed, &c);
    }

    /// Bi-stream joins under simulation equal the cross-side oracle.
    #[test]
    fn simulated_bistream_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..4,
        tau in 0.55f64..0.9,
        loc in 0usize..LOCALS,
        win in 0usize..WINDOWS,
        bat in 0usize..BATCHES,
    ) {
        run_differential(
            seed,
            &case(k, tau, 0, loc, win)
                .bistream()
                .with_dispatch_batch(batch(bat)),
        );
    }

    /// Load shedding under simulation: the result must equal the oracle
    /// restricted to surviving records, and shed-adjusted recall is exact.
    #[test]
    fn shedding_runs_match_adjusted_oracle(
        seed in 0u64..1_000_000,
        k in 2usize..5,
        tau in 0.55f64..0.9,
        loc in 0usize..LOCALS,
        watermark in 2usize..8,
        bat in 0usize..BATCHES,
    ) {
        let out = run_differential(
            seed,
            &case(k, tau, 0, loc, 1)
                .with_shedding(watermark)
                .with_dispatch_batch(batch(bat)),
        );
        prop_assert!(out.recall > 0.0 && out.recall <= 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random configuration, fault-free, on the cluster launcher: every
    /// framing of the data path equals the oracle.
    #[test]
    fn cluster_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        tau in 0.55f64..0.9,
        strat in 0usize..STRATEGIES,
        loc in 0usize..LOCALS,
        win in 0usize..WINDOWS,
        bat in 0usize..BATCHES,
    ) {
        let c = case(k, tau, strat, loc, win).with_dispatch_batch(batch(bat));
        let out = on_cluster(seed, c);
        prop_assert_eq!(out.shed, 0);
    }

    /// A supervised kill and/or a seeded outage: each broken session ends
    /// in a respawn that resends whole batches under their original seqs,
    /// and pairs publish at the ack, so the oracle still matches exactly.
    #[test]
    fn faulty_cluster_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        tau in 0.55f64..0.9,
        strat in 0usize..STRATEGIES,
        win in 0usize..WINDOWS,
        fault in 1usize..4, // bit 0: kill, bit 1: a seeded outage
        bat in 0usize..BATCHES,
    ) {
        let mut c = case(k, tau, strat, BUNDLE, win).with_dispatch_batch(batch(bat));
        if fault & 1 != 0 {
            c = c.with_crash();
        }
        if fault & 2 != 0 {
            c = c.with_seeded_outage(seed);
        }
        on_cluster(seed, c);
    }

    /// Barriers travel alone between batches; a killed node comes back
    /// from the last committed epoch plus the replay tail, which ends on
    /// a frame boundary.
    #[test]
    fn checkpointed_cluster_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        tau in 0.55f64..0.9,
        strat in 0usize..STRATEGIES,
        win in 0usize..WINDOWS,
        interval in 8u64..48,
        fault in 0usize..4, // bit 0: kill, bit 1: a seeded outage
        bat in 0usize..BATCHES,
    ) {
        let mut c = case(k, tau, strat, BUNDLE, win)
            .with_checkpoints(interval)
            .with_dispatch_batch(batch(bat));
        if fault & 1 != 0 {
            c = c.with_crash();
        }
        if fault & 2 != 0 {
            c = c.with_seeded_outage(seed);
        }
        let out = on_cluster(seed, c);
        prop_assert!(out.result.epochs_committed > 0, "no epoch ever committed");
    }

    /// Whole-cluster crash and restore from the latest complete epoch:
    /// the rebuilt cluster owes exactly the post-cut oracle pairs.
    #[test]
    fn restored_cluster_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        tau in 0.55f64..0.9,
        strat in 0usize..STRATEGIES,
        win in 0usize..WINDOWS,
        interval in 8u64..24,
        bat in 0usize..BATCHES,
    ) {
        let c = case(k, tau, strat, BUNDLE, win)
            .with_checkpoints(interval)
            .with_dispatch_batch(batch(bat));
        let out = with_deadline(CLUSTER_DEADLINE, move || {
            run_cluster_restore_differential(seed, &c, ClusterBackend::InProcess)
        });
        prop_assert!(out.cut.is_some(), "phase one committed no epoch");
    }

    /// Shedding against the in-flight message count: whatever is shed,
    /// the result is the oracle over the surviving records.
    #[test]
    fn shedding_cluster_runs_match_adjusted_oracle(
        seed in 0u64..1_000_000,
        k in 2usize..5,
        tau in 0.55f64..0.9,
        watermark in 2usize..8,
        bat in 0usize..BATCHES,
    ) {
        let c = case(k, tau, 0, BUNDLE, 1)
            .with_shedding(watermark)
            .with_dispatch_batch(batch(bat));
        on_cluster(seed, c);
    }

    /// Budget zero: the kill fails the run naming its task, and a kill
    /// that never fires leaves a run equal to the oracle.
    #[test]
    fn exhausted_budget_cluster_runs_fail_stop(
        seed in 0u64..1_000_000,
        k in 2usize..5,
        tau in 0.55f64..0.9,
        horizon in 5u64..40,
        bat in 0usize..BATCHES,
    ) {
        let c = case(k, tau, 0, BUNDLE, 1)
            .with_fault(Fault::crash((seed % k as u64) as usize, horizon))
            .with_recovery_budget(0)
            .with_dispatch_batch(batch(bat));
        let failed = with_deadline(CLUSTER_DEADLINE, move || {
            run_cluster_exhausting_budget(seed, &c, ClusterBackend::InProcess)
        });
        if let Some(msg) = failed {
            let task = seed % k as u64;
            let named = format!("task {task} exhausted its recovery budget of 0 respawn(s)");
            prop_assert_eq!(msg, named);
        }
    }

    /// Bi-stream joins on the cluster equal the cross-side oracle.
    #[test]
    fn cluster_bistream_runs_match_oracle(
        seed in 0u64..1_000_000,
        k in 1usize..4,
        tau in 0.55f64..0.9,
        loc in 0usize..LOCALS,
        win in 0usize..WINDOWS,
        bat in 0usize..BATCHES,
    ) {
        let c = case(k, tau, 0, loc, win)
            .bistream()
            .with_dispatch_batch(batch(bat));
        on_cluster(seed, c);
    }
}
