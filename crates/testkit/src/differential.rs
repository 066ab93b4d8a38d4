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
    run_bistream_distributed, run_distributed, CheckpointConfig, DistributedJoinConfig,
    DistributedJoinResult, Fault, FaultKind, JoinSpec, LocalAlgo, MemStore, SnapshotStore,
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
    /// Inject a joiner crash drawn from the seed (recovery must mask it
    /// exactly): the same crash on every harness (see [`Self::faults`]).
    pub crash: bool,
    /// Shed records above this dispatcher queue depth; the comparison then
    /// uses the shed-adjusted oracle. Incompatible with `bistream` (the
    /// bi-stream oracle has no shed accounting).
    pub shed_watermark: Option<usize>,
    /// Checkpoint every this many dispatched records into an in-memory
    /// store. Checkpointing must never change the output, so the oracle
    /// comparison is unchanged; it composes with every other knob.
    pub checkpoint_interval: Option<u64>,
    /// Batch the dispatcher → joiner edge at this size (see
    /// `JoinSpec::dispatch_batch`). Batching must never change the
    /// output, so the oracle comparison is unchanged; it composes with
    /// every other knob, simulated or cluster. A fault counts a batch as
    /// one message, so a batched run has fewer places to put one.
    pub dispatch_batch: Option<usize>,
    /// Faults injected on every harness (see [`Fault`]). The simulated
    /// topology honours crashes and refuses a window kind by name rather
    /// than silently running a weaker scenario.
    pub faults: Vec<Fault>,
    /// Per-task respawn budget for the cluster's failure detector. Within
    /// budget recovery must mask faults exactly; a task that exhausts it
    /// fails the run. Cluster-only: the simulated harness refuses it.
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
            shed_watermark: None,
            checkpoint_interval: None,
            dispatch_batch: None,
            faults: Vec::new(),
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

    /// Batches the dispatcher → joiner edge at `batch` messages (`None` =
    /// off).
    pub fn with_dispatch_batch(mut self, batch: Option<usize>) -> Self {
        self.dispatch_batch = batch;
        self
    }

    /// Injects `fault`.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Injects one outage drawn from `seed` (see [`seeded_outage`]).
    pub fn with_seeded_outage(self, seed: u64) -> Self {
        let k = self.k;
        self.with_fault(seeded_outage(seed, k))
    }

    /// Caps each task at `budget` respawns; past it the run fails.
    /// Cluster-only.
    pub fn with_recovery_budget(mut self, budget: u32) -> Self {
        self.recovery_budget = Some(budget);
        self
    }

    /// The faults this case injects under `seed` into a run over `span`
    /// records: its own, and with `crash` set a [`seeded_crash`] within
    /// the first `span / 2` messages of a task. A batch is one message
    /// and carries up to `dispatch_batch` records, so a batched crash
    /// draws from that many times fewer, or it would mostly fall past the
    /// last batch a task gets and never fire.
    pub fn faults(&self, seed: u64, span: usize) -> Vec<Fault> {
        let mut faults = self.faults.clone();
        if self.crash {
            let per_message = self.dispatch_batch.unwrap_or(1).max(1) as u64;
            let horizon = (span as u64 / 2 / per_message).max(1);
            faults.push(seeded_crash(seed, self.k, horizon));
        }
        faults
    }

    /// The join this case runs under `seed`, on every harness — the
    /// simulated topology, the in-process cluster and the TCP cluster —
    /// its faults over the whole stream included.
    pub fn spec(&self, seed: u64) -> JoinSpec {
        let faults = self.faults(seed, self.records);
        JoinSpec {
            local: self.local,
            strategy: self.strategy.clone(),
            shed_watermark: self.shed_watermark,
            checkpoint: self.checkpoint_interval.map(CheckpointConfig::in_memory),
            dispatch_batch: self.dispatch_batch,
            faults,
            ..JoinSpec::recommended(self.k, self.join)
        }
    }

    /// [`Self::spec`] on the simulated topology, scheduled by `seed`.
    pub fn simulated(&self, seed: u64) -> DistributedJoinConfig {
        assert!(
            self.recovery_budget.is_none(),
            "a recovery budget is cluster-only: the simulated topology has no \
             failure detector to spend it"
        );
        DistributedJoinConfig {
            channel_capacity: 64,
            scheduler: Scheduler::Sim(SimConfig::seeded(seed)),
            ..DistributedJoinConfig::new(self.spec(seed))
        }
    }
}

/// A crash of one of `k` tasks after a message in `0 .. horizon`, drawn
/// from `seed` exactly as [`FaultPlan::crash_seeded`] draws them.
pub fn seeded_crash(seed: u64, k: usize, horizon: u64) -> Fault {
    let plan = FaultPlan::new().crash_seeded("joiner", k, horizon, seed);
    Fault::crash(plan.specs()[0].task, plan.specs()[0].after_tuples)
}

/// One outage window on one of `k` wires, read off `seed` as digits of a
/// mixed radix: the kind (stall, one-way and two-way partition, outbound
/// and inbound corruption), the wire, an `after` of 0 to 3, a length of 1
/// to 3. Consecutive seeds walk every kind on every wire. Whatever the
/// kind, a window that breaks a session ends in one respawn of that node.
pub fn seeded_outage(seed: u64, k: usize) -> Fault {
    let (digit, rest) = (seed % 5, seed / 5 / k as u64);
    let len = 1 + rest / 4 % 3;
    let kind = match digit {
        0 => FaultKind::Stall { len },
        1 | 2 => FaultKind::Partition {
            len,
            two_way: digit == 2,
        },
        _ => FaultKind::Corrupt {
            len,
            inbound: digit == 4,
        },
    };
    let task = (seed / 5 % k as u64) as usize;
    Fault {
        task,
        after: rest % 4,
        kind,
    }
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
    let records = StreamGenerator::new(differential_profile(), seed).take_records(case.records);
    let cfg = case.simulated(seed);

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

    let what = format!("result ({case:?})");
    crate::cluster::assert_pairs_equal(seed, &result.pairs, expect, &what);

    let recall = if case.shed_watermark.is_some() {
        oracle::shed_recall(&records, &case.join, &result.shed_records)
    } else {
        1.0
    };
    DifferentialOutcome {
        pairs: result.pairs.len(),
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
/// in-run crash the case injects (a seeded one drawn over half the
/// stream, so it falls inside the prefix). Phase two rebuilds the topology
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
    let records = StreamGenerator::new(differential_profile(), seed).take_records(case.records);
    let store: Arc<dyn SnapshotStore> = Arc::new(MemStore::new());
    let interval = case
        .checkpoint_interval
        .unwrap_or((case.records as u64 / 6).max(1));

    let mut phase1 = case
        .simulated(seed)
        .with_checkpointing(CheckpointConfig::new(interval, Arc::clone(&store)));
    phase1.spec.faults = case.faults(seed, records.len() / 2);
    // The "whole-process crash": phase one sees only a prefix of the
    // stream, and nothing of it survives but the snapshot store.
    let survives = (records.len() * 3 / 5).max(1);
    let prefix = &records[..survives];

    let mut phase2 = case.simulated(seed ^ 0x5eed);
    phase2.spec.faults.clear();
    phase2.spec.checkpoint = None;
    phase2.spec.restore_from = Some(Arc::clone(&store));

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
    let expect: Vec<MatchPair> = oracle_pairs
        .into_iter()
        .filter(|m| m.later.0 > floor)
        .collect();
    let pairs = expect.len();
    let what = format!("restored run (cut {cut:?}, {case:?})");
    crate::cluster::assert_pairs_equal(seed, &restored.pairs, expect, &what);
    RestoreOutcome { cut, pairs }
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
    #[should_panic(expected = "fault Corrupt needs a wire")]
    fn link_outages_are_refused_rather_than_ignored() {
        run_differential(23, &base_case().with_seeded_outage(23));
    }

    #[test]
    fn seeded_crashes_draw_what_the_topology_plan_draws() {
        for seed in 0..200 {
            let plan = FaultPlan::new().crash_seeded("joiner", 3, 75, seed);
            let spec = &plan.specs()[0];
            let crash = Fault::crash(spec.task, spec.after_tuples);
            assert_eq!(seeded_crash(seed, 3, 75), crash);
        }
    }

    #[test]
    fn consecutive_seeds_walk_every_kind_on_every_wire() {
        let first: Vec<Fault> = (0..15).map(|seed| seeded_outage(seed, 3)).collect();
        for (i, f) in first.iter().enumerate() {
            assert!(!first[..i].contains(f), "{f:?} drawn twice");
        }
        assert!((0..1000).map(|seed| seeded_outage(seed, 3)).all(|f| {
            let len = match f.kind {
                FaultKind::Stall { len }
                | FaultKind::Partition { len, .. }
                | FaultKind::Corrupt { len, .. } => len,
                FaultKind::Crash => 0,
            };
            f.after < 4 && (1..=3).contains(&len)
        }));
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
