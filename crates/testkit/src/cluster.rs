//! Cluster differential execution: run the real launcher/node protocol —
//! in-process or over real localhost TCP with `ssj-node` OS processes —
//! and compare its output against the [`crate::oracle`], exactly.
//!
//! [`run_cluster_differential`] mirrors
//! [`crate::run_differential`](crate::differential::run_differential) but
//! executes the [`ssj_distrib::cluster`] transport path instead of the
//! stormlite topology. The workload derivation is identical (same
//! [`differential_profile`](crate::differential_profile), same seed →
//! same records), so one seed pins three executions to one oracle: the
//! simulated topology, the in-process cluster, and the TCP cluster.
//!
//! The TCP backend needs a built `ssj-node` binary; tests in `ssj-cli`
//! pass `env!("CARGO_BIN_EXE_ssj-node")`, keeping this crate free of a
//! cli dependency.

use crate::differential::{differential_records, DifferentialCase, RestoreOutcome};
use crate::oracle;
use ssj_core::MatchPair;
use ssj_distrib::{
    run_cluster, run_cluster_bistream, CheckpointConfig, ClusterBackend, ClusterConfig,
    ClusterFault, ClusterResult, HealthConfig, MemStore, SnapshotStore,
};
use ssj_text::Record;
use std::sync::Arc;
use std::time::Duration;

/// What a cluster differential run produced, after the oracle comparison
/// passed.
#[derive(Debug)]
pub struct ClusterDifferentialOutcome {
    /// Result pairs the cluster (and the oracle) produced.
    pub pairs: usize,
    /// Records shed by the launcher's dispatcher.
    pub shed: usize,
    /// The full cluster result, for further assertions.
    pub result: ClusterResult,
}

/// Builds the [`ClusterConfig`] a differential case maps to, without
/// running it — exposed so crash/restore tests can tweak the config
/// between phases while keeping the case → config mapping in one place.
pub fn cluster_config_for(
    seed: u64,
    case: &DifferentialCase,
    backend: ClusterBackend,
) -> ClusterConfig {
    // Unbatched unless the case asks: every ordinal-keyed outage and kill
    // horizon, and the pinned digests, were placed on that frame stream.
    let mut cfg = ClusterConfig::new(case.spec(), backend);
    cfg.channel_capacity = 64;
    cfg.chaos_seed = case.chaos.then_some(seed);
    if case.crash {
        // Same crash-horizon convention as the simulated differential: the
        // kill lands within the stream so it actually fires on most seeds.
        // `crash_after` overrides it for tests that need the kill to fire
        // with stream guaranteed still behind it.
        let horizon = case.crash_after.unwrap_or((case.records as u64 / 2).max(1));
        cfg.fault = Some(ClusterFault {
            task: (seed % case.k as u64) as usize,
            after_acks: horizon,
        });
    }
    cfg.outages = case.outages.clone();
    if !case.outages.is_empty() || case.recovery_budget.is_some() {
        // Any self-healing knob turns the failure detector on, probing often
        // enough that a short run sends heartbeats. Only an outage needs the
        // 80 ms deadline, so that a partition trips a suspect in a short test;
        // otherwise the recommended one spares a node a loaded host stalled.
        let mut health = HealthConfig {
            heartbeat_interval: Duration::from_millis(10),
            suspect_after: Duration::from_millis(80),
            recovery_budget: case.recovery_budget,
        };
        if case.outages.is_empty() {
            health.suspect_after = HealthConfig::recommended().suspect_after;
        }
        cfg.health = Some(health);
    }
    cfg
}

/// Runs `case` on a real cluster (`backend` chooses threads vs `ssj-node`
/// OS processes over localhost TCP) with `seed` driving the workload and
/// every injected fault — then asserts the result set equals the
/// reference oracle exactly (same pair keys, same similarity values).
///
/// # Panics
///
/// Panics on any divergence from the oracle, naming the offending seed so
/// the failure can be replayed verbatim.
pub fn run_cluster_differential(
    seed: u64,
    case: &DifferentialCase,
    backend: ClusterBackend,
) -> ClusterDifferentialOutcome {
    run_cluster_differential_impl(seed, case, backend, true)
}

/// Like [`run_cluster_differential`], but tolerates a scripted crash
/// whose ack horizon is never reached (the oracle comparison still runs
/// and must pass — the run is then simply fault-free). For property
/// tests over random seeds, where no seed can vouch that the kill fires;
/// fixed-seed tests should use the strict entry point so a crash test
/// that stopped crashing fails loudly.
pub fn run_cluster_differential_relaxed(
    seed: u64,
    case: &DifferentialCase,
    backend: ClusterBackend,
) -> ClusterDifferentialOutcome {
    run_cluster_differential_impl(seed, case, backend, false)
}

fn run_cluster_differential_impl(
    seed: u64,
    case: &DifferentialCase,
    backend: ClusterBackend,
    require_fault_fired: bool,
) -> ClusterDifferentialOutcome {
    assert!(
        !(case.bistream && case.shed_watermark.is_some()),
        "shed accounting is only defined for the self-join oracle"
    );
    let records = differential_records(seed, case.records);
    let cfg = cluster_config_for(seed, case, backend);

    let (result, expect) = if case.bistream {
        let (left, right): (Vec<Record>, Vec<Record>) =
            records.iter().cloned().partition(|r| r.id().0 % 2 == 0);
        let result = run_cluster_bistream(&left, &right, &cfg);
        let expect = oracle::bistream_join(&left, &right, &case.join);
        (result, expect)
    } else {
        let result = run_cluster(&records, &cfg);
        let expect = oracle::self_join_surviving(&records, &case.join, &result.shed_records);
        (result, expect)
    };

    assert_pairs_equal(seed, &result.pairs, expect, "cluster result");
    if case.crash && require_fault_fired {
        // The fault must have fired: a crash case where nothing happened
        // is vacuous.
        assert!(
            result.joiners.iter().any(|j| j.incarnation > 0),
            "seed {seed}: crash was requested but no node ever restarted"
        );
    }
    ClusterDifferentialOutcome {
        pairs: result.pairs.len(),
        shed: result.shed_records.len(),
        result,
    }
}

/// Runs `case`, a crash past its recovery budget, and returns the message
/// the run failed with. `None` means it completed: a relaxed kill never
/// fired, and the run equalled the full oracle with nothing respawned
/// and nothing shed.
pub fn run_cluster_exhausting_budget(
    seed: u64,
    case: &DifferentialCase,
    backend: ClusterBackend,
) -> Option<String> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_cluster_differential_relaxed(seed, case, backend)
    }));
    match run {
        Ok(out) => {
            assert_eq!(out.result.health.respawns, 0, "seed {seed}");
            assert_eq!(out.shed, 0, "seed {seed}: shed without a watermark");
            None
        }
        Err(panic) => Some(panic.downcast_ref::<String>().cloned().unwrap_or_default()),
    }
}

/// Differential crash-and-restore across *cluster incarnations*: the
/// cluster analogue of
/// [`run_restore_differential`](crate::differential::run_restore_differential).
///
/// Phase one streams ~60% of the workload through a full cluster with
/// checkpointing into `store`, then the whole cluster — launcher, wires,
/// every node — is torn down. Phase two builds a brand-new cluster that
/// restores from the store's latest complete checkpoint and streams the
/// full workload; it must produce exactly the oracle pairs whose probing
/// record is past the checkpoint cut. With a TCP backend this exercises
/// `--restore-from` across real OS-process boundaries.
///
/// # Panics
///
/// Panics on any divergence from the post-cut oracle, or if the case
/// requests shedding (undefined across a restore boundary).
pub fn run_cluster_restore_differential(
    seed: u64,
    case: &DifferentialCase,
    backend: ClusterBackend,
) -> RestoreOutcome {
    assert!(
        case.shed_watermark.is_none(),
        "shed accounting is not defined across a restore boundary"
    );
    let records = differential_records(seed, case.records);
    let store: Arc<dyn SnapshotStore> = Arc::new(MemStore::new());
    let interval = case
        .checkpoint_interval
        .unwrap_or((case.records as u64 / 6).max(1));

    let mut phase1 = cluster_config_for(seed, case, backend.clone());
    phase1.spec.checkpoint = Some(CheckpointConfig::new(interval, Arc::clone(&store)));

    let mut phase2 = cluster_config_for(seed, case, backend);
    phase2.fault = None;
    phase2.chaos_seed = None;
    phase2.spec.checkpoint = None;
    phase2.spec.restore_from = Some(Arc::clone(&store));
    // Like chaos, link outages are phase-one faults: phase two is the
    // clean restored incarnation.
    phase2.outages.clear();

    // The "whole-cluster crash": phase one sees only a prefix of the
    // stream, and nothing of it survives but the snapshot store.
    let survives = (records.len() * 3 / 5).max(1);
    let prefix = &records[..survives];

    let split = |rs: &[Record]| -> (Vec<Record>, Vec<Record>) {
        rs.iter().cloned().partition(|r| r.id().0 % 2 == 0)
    };
    let (restored, oracle_pairs): (ClusterResult, Vec<MatchPair>) = if case.bistream {
        let (pl, pr) = split(prefix);
        let _ = run_cluster_bistream(&pl, &pr, &phase1);
        let (l, r) = split(&records);
        let restored = run_cluster_bistream(&l, &r, &phase2);
        let expect = oracle::bistream_join(&l, &r, &case.join);
        (restored, expect)
    } else {
        let _ = run_cluster(prefix, &phase1);
        let restored = run_cluster(&records, &phase2);
        let expect = oracle::self_join_surviving(&records, &case.join, &[]);
        (restored, expect)
    };

    // The restored cluster owes exactly the pairs whose probing record is
    // past the cut: earlier pairs were phase one's to emit.
    let cut = restored.restored_cut;
    let floor = cut.unwrap_or(0);
    let expect: Vec<MatchPair> = oracle_pairs
        .into_iter()
        .filter(|m| m.later.0 > floor)
        .collect();
    let pairs = expect.len();
    assert_pairs_equal(seed, &restored.pairs, expect, "restored cluster");
    RestoreOutcome { cut, pairs }
}

/// Asserts two pair sets are identical: same keys, byte-exact
/// similarities. Order-insensitive, because cluster arrival order is not
/// deterministic across wires.
pub fn assert_pairs_equal(seed: u64, got: &[MatchPair], expect: Vec<MatchPair>, what: &str) {
    let got_keys = oracle::sorted_keys(got);
    let expect_keys = oracle::sorted_keys(&expect);
    assert_eq!(
        got_keys, expect_keys,
        "seed {seed}: {what} pair set diverges from oracle"
    );
    let mut got_sorted = got.to_vec();
    got_sorted.sort_by_key(|m| m.key());
    let mut expect_sorted = expect;
    expect_sorted.sort_by_key(|m| m.key());
    for (g, e) in got_sorted.iter().zip(&expect_sorted) {
        assert!(
            (g.similarity - e.similarity).abs() < 1e-12,
            "seed {seed}: {what} similarity diverges on {:?}: {} vs oracle {}",
            g.key(),
            g.similarity,
            e.similarity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_core::{JoinConfig, Window};
    use ssj_distrib::{LocalAlgo, PartitionMethod, Strategy};

    fn base_case() -> DifferentialCase {
        DifferentialCase::new(
            150,
            3,
            JoinConfig::jaccard(0.7),
            LocalAlgo::bundle(),
            Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 50,
            },
        )
    }

    #[test]
    fn in_process_cluster_matches_oracle() {
        let out = run_cluster_differential(11, &base_case(), ClusterBackend::InProcess);
        assert!(
            out.pairs > 0,
            "workload produced no pairs — test is vacuous"
        );
        assert_eq!(out.shed, 0);
    }

    #[test]
    fn in_process_cluster_bistream_matches_oracle() {
        let out = run_cluster_differential(5, &base_case().bistream(), ClusterBackend::InProcess);
        assert!(out.pairs > 0, "bistream workload produced no pairs");
    }

    #[test]
    fn in_process_cluster_survives_crash_and_chaos() {
        let mut case = base_case().with_crash().with_chaos();
        case.join = case.join.with_window(Window::Count(60));
        run_cluster_differential(23, &case, ClusterBackend::InProcess);
    }

    #[test]
    fn in_process_cluster_checkpointed_crash_matches_oracle() {
        let mut case = base_case().with_crash().with_checkpoints(20);
        case.join = case.join.with_window(Window::Count(60));
        let out = run_cluster_differential(17, &case, ClusterBackend::InProcess);
        assert!(
            out.result.epochs_committed > 0,
            "no epoch ever committed — the checkpoint knob did nothing"
        );
    }

    #[test]
    fn in_process_cluster_restore_resumes_past_the_cut() {
        let out = run_cluster_restore_differential(9, &base_case(), ClusterBackend::InProcess);
        assert!(out.cut.is_some(), "phase one committed no epoch");
        assert!(out.pairs > 0, "post-cut suffix produced no pairs");
    }

    #[test]
    fn stall_window_is_masked_exactly() {
        // A lossless stall delays frames but loses nothing: the pair set
        // must equal the clean oracle with zero shed records.
        let case = base_case().with_stall(1, 10, 15);
        let out = run_cluster_differential(41, &case, ClusterBackend::InProcess);
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0);
        assert!(out.result.health.stalled_frames > 0, "stall never fired");
    }

    #[test]
    fn one_way_partition_is_masked_exactly() {
        // Dropped outbound frames are retransmitted under their original
        // seqs once the window closes; the result must stay exact.
        let case = base_case().with_partition(0, 8, 12, false);
        let out = run_cluster_differential(43, &case, ClusterBackend::InProcess);
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0);
        assert!(
            out.result.health.partition_dropped_frames > 0,
            "partition never fired"
        );
    }

    #[test]
    fn two_way_partition_is_masked_exactly() {
        // Both directions go dark: either the window closes before the
        // detector fires (retransmission masks it) or the node is declared
        // suspect and respawned (recovery masks it). Exact either way.
        let case = base_case().with_partition(2, 5, 20, true);
        let out = run_cluster_differential(47, &case, ClusterBackend::InProcess);
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0);
    }

    #[test]
    fn crash_within_budget_recovers_exactly() {
        let mut case = base_case().with_crash().with_recovery_budget(2);
        case.join = case.join.with_window(Window::Count(60));
        for case in [case.clone(), case.bistream()] {
            let out = run_cluster_differential(53, &case, ClusterBackend::InProcess);
            assert_eq!(out.shed, 0, "within budget nothing may be shed");
        }
    }

    #[test]
    fn exhausted_budget_fails_the_run_naming_the_task() {
        // Budget zero: the first crash fails the run instead of respawning
        // the task, and no partial answer comes back. The kill is pinned
        // early (10 acks into a 150-record stream) so it fires on every
        // interleaving; the deadline turns a teardown hang into a failure.
        let mut case = base_case().with_crash_at(10).with_recovery_budget(0);
        case.join = case.join.with_window(Window::Count(60));
        let failed = crate::with_deadline(Duration::from_secs(60), move || {
            run_cluster_exhausting_budget(23, &case, ClusterBackend::InProcess)
        });
        assert_eq!(
            failed.as_deref(),
            Some("task 2 exhausted its recovery budget of 0 respawn(s)")
        );
    }

    #[test]
    fn idle_heartbeats_keep_a_healthy_cluster_quiet() {
        // Health machinery on a fault-free run: heartbeats flow, nothing
        // is ever suspected, and the output is untouched. The stream is
        // long enough that the run comfortably outlasts the heartbeat
        // interval, so at least one probe is guaranteed to go out.
        let mut case = base_case();
        case.records = 1200;
        case.recovery_budget = Some(3);
        let out = run_cluster_differential(61, &case, ClusterBackend::InProcess);
        assert!(out.result.health.heartbeats_sent > 0);
        assert_eq!(out.result.health.suspects, 0);
        assert_eq!(out.result.health.respawns, 0);
        assert_eq!(out.shed, 0);
    }

    #[test]
    fn cluster_and_simulated_topology_agree() {
        // Same seed, same case: the simulated stormlite topology and the
        // cluster transport must produce the identical pair set (both are
        // separately pinned to the oracle; this closes the triangle).
        let case = base_case();
        let sim = crate::differential::run_differential(31, &case);
        let cluster = run_cluster_differential(31, &case, ClusterBackend::InProcess);
        assert_eq!(
            oracle::sorted_keys(&sim.result.pairs),
            oracle::sorted_keys(&cluster.result.pairs)
        );
    }
}
