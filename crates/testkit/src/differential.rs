//! Differential execution: run the real distributed system under
//! deterministic simulation and compare its output against the
//! [`oracle`], exactly.
//!
//! [`run_differential`] is the single entry point: it derives a workload
//! from a seed, runs any [`Strategy`] × [`LocalAlgo`] × window
//! configuration — optionally with injected joiner crashes, checkpoints
//! and load shedding — under [`Scheduler::Sim`] with the same seed, and
//! panics unless the produced pair set (keys *and* similarity values)
//! equals the oracle's. Because the whole run is simulated, a failing seed
//! replays the exact same interleaving every time: paste the seed into a
//! test and debug a perfectly reproducible execution.

use crate::oracle;
use ssj_core::{JoinConfig, MatchPair};
use ssj_distrib::{
    run_bistream_distributed, run_distributed, CheckpointConfig, ClusterOutage,
    DistributedJoinConfig, DistributedJoinResult, LocalAlgo, MemStore, OutageKind, SnapshotStore,
    Strategy,
};
use ssj_text::Record;
use ssj_workloads::{DatasetProfile, LengthDist, StreamGenerator};
use std::sync::Arc;
use stormlite::{FaultPlan, Scheduler, SimConfig};

/// The workload profile differential tests run on: moderate skew, short
/// sets, and a high near-duplicate rate so that every seed produces a
/// non-trivial number of matching pairs at the usual thresholds.
pub fn differential_profile() -> DatasetProfile {
    DatasetProfile {
        name: "differential",
        vocab: 300,
        skew: 0.8,
        len_dist: LengthDist::Uniform { lo: 2, hi: 24 },
        dup_rate: 0.4,
        dup_mutations: 2,
        recent_pool: 128,
    }
}

/// The exact record stream a differential seed derives — exposed so
/// external suites can push the identical workload through other entry
/// points (e.g. a cluster run with hand-tweaked config) and still compare
/// against the same oracle.
pub fn differential_records(seed: u64, n: usize) -> Vec<Record> {
    StreamGenerator::new(differential_profile(), seed).take_records(n)
}

/// One differential scenario: everything about a run except the seed.
#[derive(Debug, Clone)]
pub struct DifferentialCase {
    /// Stream length.
    pub records: usize,
    /// Joiner parallelism.
    pub k: usize,
    /// Threshold and window.
    pub join: JoinConfig,
    /// Local algorithm on each joiner.
    pub local: LocalAlgo,
    /// Distribution strategy.
    pub strategy: Strategy,
    /// Run as a bi-stream (R–S) join: records with even ids form the left
    /// stream, odd ids the right.
    pub bistream: bool,
    /// Inject a seeded joiner crash (recovery must mask it exactly).
    pub crash: bool,
    /// Override the cluster crash horizon: kill after this many acks from
    /// the victim task instead of the `records / 2` default. An early
    /// horizon guarantees stream remains behind the kill — fence tests
    /// over real sockets need that, because ack draining is bursty and a
    /// late horizon can land after the last record was dispatched.
    /// Cluster-only, like `outages`.
    pub crash_after: Option<u64>,
    /// Roll seeded drop/duplicate/delay dice on every launcher→node link
    /// (the session layer must mask the faults exactly). Cluster-only,
    /// like `outages`: a topology's in-process wires cannot lose a tuple.
    pub chaos: bool,
    /// Shed records above this dispatcher queue depth; the comparison then
    /// uses the shed-adjusted oracle. Incompatible with `bistream` (the
    /// bi-stream oracle has no shed accounting).
    pub shed_watermark: Option<usize>,
    /// Checkpoint every this many dispatched records into an in-memory
    /// store. Checkpointing must never change the output, so the oracle
    /// comparison is unchanged; it composes with every other knob.
    pub checkpoint_interval: Option<u64>,
    /// Batch every edge at this size — on the simulated topology the
    /// source edge too (see `DistributedJoinConfig::dispatch_batch` and
    /// `ClusterConfig::dispatch_batch`). Batching must never change the
    /// output, so the oracle comparison is unchanged; it composes with
    /// every other knob, simulated or cluster. Note that a cluster case's
    /// outage windows count frame transmissions, of which a batched run
    /// makes fewer.
    pub dispatch_batch: Option<usize>,
    /// Link outages (stall / partition windows) injected on cluster wires.
    /// Consumed by the cluster harness only — the simulated topology has
    /// no lossy links, so [`run_differential`] rejects cases that set
    /// this (or `chaos`) rather than silently running a weaker scenario.
    pub outages: Vec<ClusterOutage>,
    /// Per-task respawn budget for the cluster's failure detector. Within
    /// budget recovery must mask faults exactly; once a task exhausts it
    /// the task is fenced and its records shed with exact accounting.
    /// Cluster-only, like `outages`; incompatible with `bistream`.
    pub recovery_budget: Option<u32>,
}

impl DifferentialCase {
    /// A plain fault-free case with the given topology shape.
    pub fn new(
        records: usize,
        k: usize,
        join: JoinConfig,
        local: LocalAlgo,
        strategy: Strategy,
    ) -> Self {
        Self {
            records,
            k,
            join,
            local,
            strategy,
            bistream: false,
            crash: false,
            crash_after: None,
            chaos: false,
            shed_watermark: None,
            checkpoint_interval: None,
            dispatch_batch: None,
            outages: Vec::new(),
            recovery_budget: None,
        }
    }

    /// Runs as a bi-stream join.
    pub fn bistream(mut self) -> Self {
        self.bistream = true;
        self
    }

    /// Injects a seeded joiner crash.
    pub fn with_crash(mut self) -> Self {
        self.crash = true;
        self
    }

    /// Injects a seeded joiner crash that fires after `after_acks` acks
    /// from the victim task (cluster runs only; the simulated harness has
    /// its own crash-placement convention).
    pub fn with_crash_at(mut self, after_acks: u64) -> Self {
        self.crash = true;
        self.crash_after = Some(after_acks);
        self
    }

    /// Makes every launcher→node link lossy. Cluster-only.
    pub fn with_chaos(mut self) -> Self {
        self.chaos = true;
        self
    }

    /// Sheds load above the given queue depth.
    pub fn with_shedding(mut self, watermark: usize) -> Self {
        self.shed_watermark = Some(watermark);
        self
    }

    /// Checkpoints every `interval` dispatched records.
    pub fn with_checkpoints(mut self, interval: u64) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Batches every edge at `batch` messages (`None` = off).
    pub fn with_dispatch_batch(mut self, batch: Option<usize>) -> Self {
        self.dispatch_batch = batch;
        self
    }

    /// Stalls (losslessly holds) the frames whose data-transmission
    /// ordinals fall in `(after, after + len]` on `task`'s wire.
    /// Cluster-only.
    pub fn with_stall(mut self, task: usize, after: u64, len: u64) -> Self {
        self.outages.push(ClusterOutage {
            task,
            after,
            len,
            kind: OutageKind::Stall,
        });
        self
    }

    /// Drops the outbound frames whose data-transmission ordinals fall in
    /// `(after, after + len]` on `task`'s wire; `two_way` also holds the
    /// node's inbound traffic for the window's duration. Cluster-only.
    pub fn with_partition(mut self, task: usize, after: u64, len: u64, two_way: bool) -> Self {
        self.outages.push(ClusterOutage {
            task,
            after,
            len,
            kind: if two_way {
                OutageKind::PartitionTwoWay
            } else {
                OutageKind::PartitionOneWay
            },
        });
        self
    }

    /// Corrupts (single-bit-flips) the frames whose transmission ordinals
    /// fall in `(after, after + len]` on `task`'s wire — outbound
    /// (launcher → node) normally, launcher-side inbound when `inbound`.
    /// The checksum layer must detect every flip and heal by respawn +
    /// session-resume retransmission, bit-exactly. Cluster-only.
    pub fn with_corruption(mut self, task: usize, after: u64, len: u64, inbound: bool) -> Self {
        self.outages.push(ClusterOutage {
            task,
            after,
            len,
            kind: if inbound {
                OutageKind::CorruptInbound
            } else {
                OutageKind::Corrupt
            },
        });
        self
    }

    /// Caps each task at `budget` respawns; past it the task is fenced and
    /// its records shed with exact accounting. Cluster-only.
    pub fn with_recovery_budget(mut self, budget: u32) -> Self {
        self.recovery_budget = Some(budget);
        self
    }
}

fn assert_no_cluster_knobs(case: &DifferentialCase) {
    assert!(
        !case.chaos
            && case.outages.is_empty()
            && case.recovery_budget.is_none()
            && case.crash_after.is_none(),
        "link chaos, link outages, recovery budgets and crash horizons are \
         cluster-only knobs; the simulated topology has no lossy or \
         wall-clock wires to drop on, stall or fence"
    );
}

/// What a differential run produced, after the oracle comparison passed.
#[derive(Debug)]
pub struct DifferentialOutcome {
    /// Result pairs the system (and the oracle) produced.
    pub pairs: usize,
    /// Records shed by the dispatcher.
    pub shed: usize,
    /// Exact shed-adjusted recall (`1.0` when nothing was shed).
    pub recall: f64,
    /// The full run result, for further assertions.
    pub result: DistributedJoinResult,
}

/// Runs `case` under deterministic simulation with `seed` driving the
/// workload, the interleaving, and every injected fault — then asserts
/// the result set equals the reference oracle exactly (same pair keys,
/// same similarity values).
///
/// # Panics
///
/// Panics on any divergence from the oracle, naming the first offending
/// seed/key so the failure can be replayed verbatim.
pub fn run_differential(seed: u64, case: &DifferentialCase) -> DifferentialOutcome {
    assert!(
        !(case.bistream && case.shed_watermark.is_some()),
        "shed accounting is only defined for the self-join oracle"
    );
    assert_no_cluster_knobs(case);
    let records = StreamGenerator::new(differential_profile(), seed).take_records(case.records);

    let mut cfg = DistributedJoinConfig {
        k: case.k,
        join: case.join,
        local: case.local,
        strategy: case.strategy.clone(),
        channel_capacity: 64,
        source_rate: None,
        fault: None,
        shed_watermark: case.shed_watermark,
        checkpoint: case.checkpoint_interval.map(CheckpointConfig::in_memory),
        restore_from: None,
        dispatch_batch: case.dispatch_batch,
        trace: None,
        scheduler: Scheduler::Sim(SimConfig::seeded(seed)),
    };
    if case.crash {
        // Crash point within the stream so the crash actually fires on
        // most seeds; recovery must reproduce the exact oracle result.
        let horizon = (case.records as u64 / 2).max(1);
        cfg.fault = Some(FaultPlan::new().crash_seeded("joiner", case.k, horizon, seed));
    }

    let (result, expect) = if case.bistream {
        let (left, right): (Vec<Record>, Vec<Record>) =
            records.iter().cloned().partition(|r| r.id().0 % 2 == 0);
        let result = run_bistream_distributed(&left, &right, &cfg);
        let expect = oracle::bistream_join(&left, &right, &case.join);
        (result, expect)
    } else {
        let result = run_distributed(&records, &cfg);
        let expect = oracle::self_join_surviving(&records, &case.join, &result.shed_records);
        (result, expect)
    };

    let got_keys = oracle::sorted_keys(&result.pairs);
    let expect_keys = oracle::sorted_keys(&expect);
    assert_eq!(
        got_keys, expect_keys,
        "seed {seed}: result pair set diverges from oracle ({case:?})"
    );
    let mut got_sorted = result.pairs.clone();
    got_sorted.sort_by_key(|m| m.key());
    let mut expect_sorted = expect;
    expect_sorted.sort_by_key(|m| m.key());
    for (g, e) in got_sorted.iter().zip(&expect_sorted) {
        assert!(
            (g.similarity - e.similarity).abs() < 1e-12,
            "seed {seed}: similarity diverges on {:?}: {} vs oracle {}",
            g.key(),
            g.similarity,
            e.similarity
        );
    }

    let recall = if case.shed_watermark.is_some() {
        oracle::shed_recall(&records, &case.join, &result.shed_records)
    } else {
        1.0
    };
    DifferentialOutcome {
        pairs: got_keys.len(),
        shed: result.shed_records.len(),
        recall,
        result,
    }
}

/// What a crash-and-restore differential produced, after both phases'
/// oracle comparisons passed.
#[derive(Debug)]
pub struct RestoreOutcome {
    /// Cut id of the checkpoint the second phase restored from (`None` if
    /// the first phase died before any epoch committed, in which case the
    /// restored run was compared against the full oracle).
    pub cut: Option<u64>,
    /// Result pairs the restored run (and the suffix oracle) produced.
    pub pairs: usize,
}

/// Differential crash-and-restore: proves a restored topology is exact.
///
/// Phase one streams ~60% of the workload with checkpointing enabled
/// (interval from [`DifferentialCase::checkpoint_interval`], default
/// `records / 6`) into a shared in-memory store, then the whole process
/// "dies" — everything but the store is discarded, composing with any
/// in-run crash the case injects. Phase two rebuilds the topology
/// from the store's latest complete checkpoint and streams the full
/// workload; the driver skips records the checkpoint covers. The restored
/// run must produce **exactly** the oracle pairs whose later (probing)
/// record is past the checkpoint's cut — same keys, byte-exact
/// similarities — for every strategy, local algorithm, and window kind.
///
/// # Panics
///
/// Panics on any divergence, or if the case requests shedding (the
/// shed-adjusted oracle is not defined across a restore boundary).
pub fn run_restore_differential(seed: u64, case: &DifferentialCase) -> RestoreOutcome {
    assert!(
        case.shed_watermark.is_none(),
        "shed accounting is not defined across a restore boundary"
    );
    assert_no_cluster_knobs(case);
    let records = StreamGenerator::new(differential_profile(), seed).take_records(case.records);
    let store: Arc<dyn SnapshotStore> = Arc::new(MemStore::new());
    let interval = case
        .checkpoint_interval
        .unwrap_or((case.records as u64 / 6).max(1));

    let mut phase1 = DistributedJoinConfig {
        k: case.k,
        join: case.join,
        local: case.local,
        strategy: case.strategy.clone(),
        channel_capacity: 64,
        source_rate: None,
        fault: None,
        shed_watermark: None,
        checkpoint: Some(CheckpointConfig::new(interval, Arc::clone(&store))),
        restore_from: None,
        dispatch_batch: case.dispatch_batch,
        trace: None,
        scheduler: Scheduler::Sim(SimConfig::seeded(seed)),
    };
    if case.crash {
        let horizon = (case.records as u64 / 4).max(1);
        phase1.fault = Some(FaultPlan::new().crash_seeded("joiner", case.k, horizon, seed));
    }
    // The "whole-process crash": phase one sees only a prefix of the
    // stream, and nothing of it survives but the snapshot store.
    let survives = (records.len() * 3 / 5).max(1);
    let prefix = &records[..survives];

    let mut phase2 = phase1.clone();
    phase2.fault = None;
    phase2.checkpoint = None;
    phase2.restore_from = Some(Arc::clone(&store));
    phase2.scheduler = Scheduler::Sim(SimConfig::seeded(seed ^ 0x5eed));

    let split = |rs: &[Record]| -> (Vec<Record>, Vec<Record>) {
        rs.iter().cloned().partition(|r| r.id().0 % 2 == 0)
    };
    let (restored, oracle_pairs): (DistributedJoinResult, Vec<MatchPair>) = if case.bistream {
        let (pl, pr) = split(prefix);
        let _ = run_bistream_distributed(&pl, &pr, &phase1);
        let (l, r) = split(&records);
        let restored = run_bistream_distributed(&l, &r, &phase2);
        let expect = oracle::bistream_join(&l, &r, &case.join);
        (restored, expect)
    } else {
        let _ = run_distributed(prefix, &phase1);
        let restored = run_distributed(&records, &phase2);
        let expect = oracle::self_join_surviving(&records, &case.join, &[]);
        (restored, expect)
    };

    // The restored run owes exactly the pairs whose probing record is past
    // the cut: earlier pairs were phase one's to emit (and died with it).
    let cut = restored.restored_cut;
    let floor = cut.unwrap_or(0);
    let mut expect: Vec<MatchPair> = oracle_pairs
        .into_iter()
        .filter(|m| m.later.0 > floor)
        .collect();
    let got_keys = oracle::sorted_keys(&restored.pairs);
    let expect_keys = oracle::sorted_keys(&expect);
    assert_eq!(
        got_keys, expect_keys,
        "seed {seed}: restored run diverges from the post-cut oracle \
         (cut {cut:?}, {case:?})"
    );
    let mut got_sorted = restored.pairs.clone();
    got_sorted.sort_by_key(|m| m.key());
    expect.sort_by_key(|m| m.key());
    for (g, e) in got_sorted.iter().zip(&expect) {
        assert!(
            (g.similarity - e.similarity).abs() < 1e-12,
            "seed {seed}: restored similarity diverges on {:?}: {} vs oracle {}",
            g.key(),
            g.similarity,
            e.similarity
        );
    }
    RestoreOutcome {
        cut,
        pairs: got_keys.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_core::Window;
    use ssj_distrib::PartitionMethod;

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
    fn plain_case_matches_oracle() {
        let out = run_differential(11, &base_case());
        assert!(
            out.pairs > 0,
            "workload produced no pairs — test is vacuous"
        );
        assert_eq!(out.shed, 0);
    }

    #[test]
    fn crash_case_matches_oracle() {
        let mut case = base_case().with_crash();
        case.join = case.join.with_window(Window::Count(60));
        let out = run_differential(23, &case);
        assert_eq!(out.result.report.total_restarts(), 1);
    }

    #[test]
    #[should_panic(expected = "cluster-only")]
    fn link_chaos_is_refused_rather_than_ignored() {
        run_differential(23, &base_case().with_chaos());
    }

    #[test]
    fn bistream_case_matches_oracle() {
        let out = run_differential(5, &base_case().bistream());
        assert!(out.pairs > 0, "bistream workload produced no pairs");
    }

    #[test]
    fn shedding_case_uses_adjusted_oracle() {
        let out = run_differential(3, &base_case().with_shedding(4));
        assert!(out.recall <= 1.0 && out.recall > 0.0);
    }

    #[test]
    fn checkpointing_leaves_the_oracle_comparison_unchanged() {
        let mut case = base_case().with_checkpoints(20).with_crash();
        case.join = case.join.with_window(Window::Count(60));
        let out = run_differential(17, &case);
        assert!(out.pairs > 0);
        assert!(
            out.result.report.checkpoints() > 0,
            "no snapshot was ever published — the knob did nothing"
        );
    }

    #[test]
    fn restore_differential_resumes_past_the_cut() {
        let out = run_restore_differential(9, &base_case());
        assert!(out.cut.is_some(), "phase one committed no epoch");
        assert!(out.pairs > 0, "post-cut suffix produced no pairs");
    }

    #[test]
    fn restore_differential_handles_bistream_and_windows() {
        let mut case = base_case().bistream();
        case.join = case.join.with_window(Window::Count(60));
        let out = run_restore_differential(13, &case);
        assert!(out.cut.is_some());
    }

    #[test]
    fn same_seed_same_outcome() {
        let case = base_case().with_crash();
        let a = run_differential(42, &case);
        let b = run_differential(42, &case);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(
            oracle::sorted_keys(&a.result.pairs),
            oracle::sorted_keys(&b.result.pairs)
        );
        assert_eq!(a.result.report.elapsed, b.result.report.elapsed);
    }
}
