//! End-to-end distributed join driver: assembles the topology, runs a
//! stream through it, and reports results plus every observable the
//! evaluation needs (throughput, communication, load balance, latency).

use crate::bolts::{DispatcherBolt, JoinerBolt, JoinerSnapshot, SinkBolt, SinkState};
use crate::checkpoint::{
    load_latest_verified, CheckpointConfig, CheckpointCoordinator, SnapshotStore,
};
use crate::msg::{JoinMsg, RecordMsg};
use crate::operators::{Dispatcher, Joiner};
use crate::recovery::RecoveryState;
use crate::route::{BroadcastRouter, LengthRouter, PrefixRouter, Router};
use obs::{RunTrace, StageProfile, TraceConfig, TraceSink};
use parking_lot::Mutex;
use ssj_core::snapshot::SnapshotEntry;
use ssj_core::{
    AllPairsJoiner, BundleConfig, BundleJoiner, JoinConfig, MatchPair, NaiveJoiner, PpJoinJoiner,
    StreamJoiner, Threshold, Window,
};
use ssj_partition::{
    equal_depth, equal_width, load_aware, load_aware_greedy, CostModel, LengthHistogram,
    LengthPartition,
};
use ssj_text::Record;
use std::sync::Arc;
use stormlite::{
    FaultPlan, Grouping, LatencyHistogram, RunReport, Scheduler, SimConfig, Timestamp, Topology,
    Transcript,
};

/// Which local join algorithm each joiner runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocalAlgo {
    /// Verify-everything ground truth (tests/ablation only).
    Naive,
    /// Prefix + length filtering.
    AllPairs,
    /// Prefix + length + positional filtering.
    PpJoin,
    /// PPJoin plus suffix filtering.
    PpJoinPlus,
    /// The paper's bundle-based join with batch verification.
    Bundle {
        /// Absorption threshold; `None` uses the [`BundleConfig`] default.
        bundle_tau: Option<f64>,
        /// Member cap per bundle.
        max_members: usize,
        /// Delta-size cap as a fraction of the representative length.
        max_delta_frac: f64,
    },
}

impl LocalAlgo {
    /// Bundle join with default parameters.
    pub fn bundle() -> Self {
        LocalAlgo::Bundle {
            bundle_tau: None,
            max_members: 64,
            max_delta_frac: 0.25,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LocalAlgo::Naive => "naive",
            LocalAlgo::AllPairs => "allpairs",
            LocalAlgo::PpJoin => "ppjoin",
            LocalAlgo::PpJoinPlus => "ppjoin+",
            LocalAlgo::Bundle { .. } => "bundle",
        }
    }

    pub(crate) fn build(&self, cfg: JoinConfig) -> Box<dyn StreamJoiner + Send> {
        match *self {
            LocalAlgo::Naive => Box::new(NaiveJoiner::new(cfg)),
            LocalAlgo::AllPairs => Box::new(AllPairsJoiner::new(cfg)),
            LocalAlgo::PpJoin => Box::new(PpJoinJoiner::new(cfg)),
            LocalAlgo::PpJoinPlus => Box::new(PpJoinJoiner::new_plus(cfg)),
            LocalAlgo::Bundle {
                bundle_tau,
                max_members,
                max_delta_frac,
            } => {
                let mut bc = BundleConfig::new(cfg);
                if let Some(bt) = bundle_tau {
                    bc.bundle_tau = bt;
                }
                bc.max_members = max_members;
                bc.max_delta_frac = max_delta_frac;
                Box::new(BundleJoiner::new(bc))
            }
        }
    }
}

/// How a calibration sample is turned into a length partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Equal-width length ranges.
    EqualWidth,
    /// Equi-frequency (record-count balanced) ranges.
    EqualDepth,
    /// Load-aware minimax DP over the cost mass `H(ℓ)` (the paper's).
    LoadAware,
    /// Load-aware via binary search + greedy sweep.
    LoadAwareGreedy,
}

/// Builds a length partition from a record sample.
pub fn calibrate_partition(
    sample: &[Record],
    threshold: Threshold,
    k: usize,
    method: PartitionMethod,
) -> LengthPartition {
    let hist = LengthHistogram::from_records(sample);
    match method {
        PartitionMethod::EqualWidth => equal_width(hist.max_len(), k),
        PartitionMethod::EqualDepth => equal_depth(&hist, k),
        PartitionMethod::LoadAware => {
            load_aware(&CostModel::build(&hist, threshold, hist.max_len()), k)
        }
        PartitionMethod::LoadAwareGreedy => {
            load_aware_greedy(&CostModel::build(&hist, threshold, hist.max_len()), k)
        }
    }
}

/// The distribution strategy to run.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Length-based routing over an explicit partition.
    Length(LengthPartition),
    /// Length-based routing; the partition is calibrated from the first
    /// `sample` records of the stream with the given method.
    LengthAuto {
        /// Partitioning method.
        method: PartitionMethod,
        /// Calibration sample size.
        sample: usize,
    },
    /// Prefix-token hash routing (replicating baseline).
    Prefix,
    /// Round-robin index + probe broadcast (baseline).
    Broadcast,
}

impl Strategy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Length(_) | Strategy::LengthAuto { .. } => "length",
            Strategy::Prefix => "prefix",
            Strategy::Broadcast => "broadcast",
        }
    }
}

/// Full configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedJoinConfig {
    /// Number of parallel joiners.
    pub k: usize,
    /// Threshold and window.
    pub join: JoinConfig,
    /// Local algorithm on each joiner.
    pub local: LocalAlgo,
    /// Distribution strategy.
    pub strategy: Strategy,
    /// Per-task input queue depth (backpressure), in engine messages: with
    /// [`Self::dispatch_batch`] set to `b`, a full queue holds up to `b`
    /// times as many records, on every edge.
    pub channel_capacity: usize,
    /// Pace the source to this many records per second (`None` = as fast
    /// as the pipeline accepts; used by the latency experiments).
    pub source_rate: Option<f64>,
    /// Injected joiner crashes for recovery testing. `None` (the default
    /// everywhere outside fault experiments) skips all recovery machinery,
    /// so fault-free runs pay nothing. Plans may only target `"joiner"`
    /// tasks: the dispatcher is stateful-built-once and the sink keeps its
    /// state in shared memory, so neither needs (nor supports) replay.
    pub fault: Option<FaultPlan>,
    /// Degraded mode: shed whole records at the dispatcher whenever any
    /// target joiner's input queue holds at least this many messages. Shed
    /// record ids are reported in
    /// [`DistributedJoinResult::shed_records`] so recall loss is exactly
    /// accountable. `None` (the default) never sheds — backpressure blocks
    /// the dispatcher instead.
    pub shed_watermark: Option<usize>,
    /// Epoch-based coordinated checkpointing: inject a barrier every
    /// `interval` dispatched records, snapshot every joiner's window into
    /// the configured [`SnapshotStore`], and truncate replay buffers as
    /// epochs commit (see [`crate::checkpoint`]). `None` (the default)
    /// never checkpoints.
    pub checkpoint: Option<CheckpointConfig>,
    /// Rebuild the topology's state (joiner windows, routing partition,
    /// bistream sides) from the latest complete checkpoint in this store
    /// before streaming: source records the checkpoint already covers are
    /// skipped, the checkpointed window is re-dispatched index-only, and a
    /// persisted length partition overrides the configured strategy.
    /// `None` (the default) starts empty.
    pub restore_from: Option<Arc<dyn SnapshotStore>>,
    /// Batch every edge. The source hands the dispatcher up to this many
    /// records as one [`crate::msg::JoinMsg::Batch`] (restore tuples ride
    /// in them like live records), the dispatcher ships up to this many
    /// messages per joiner wire as one batch, and a joiner answers each
    /// inbound batch with at most one batch of its results, sent when the
    /// inbound batch ends — amortizing per-message engine overhead on all
    /// three edges. Both receivers unpack a batch in order through the full
    /// per-message path: the dispatcher stamps, sheds, feeds the replay
    /// buffer and opens an epoch record by record (a barrier falls at the
    /// interval's exact record, mid-batch if need be); joiners run dedup
    /// advance and stage spans per message. Dispatcher batches flush
    /// before every checkpoint barrier and at stream end, and results
    /// never wait for later input — so results, recovery, checkpoint
    /// semantics and (up to a batch's own processing time) latency match
    /// unbatched runs. A batch is one engine tuple: one `Dispatch` instant
    /// and one `Execute` span in a trace; the replay watermark advances
    /// once per batch, and a panic inside one drops the whole batch as the
    /// one poisoned tuple.
    /// A paced source ([`Self::source_rate`]) keeps one message per
    /// record: its queue is not full, and a batch would hold a due record
    /// back for the later ones that fill it. `None` (the default) and
    /// `Some(1)` send every message individually.
    pub dispatch_batch: Option<usize>,
    /// How the topology executes: [`Scheduler::Threads`] (the default) runs
    /// one OS thread per task; [`Scheduler::Sim`] runs the whole topology
    /// single-threaded under a virtual clock with a seeded interleaving, so
    /// the same seed replays the exact same run (see [`stormlite::sim`]).
    /// Simulated runs report virtual-time latencies and are incompatible
    /// with `source_rate` (pacing sleeps on the wall clock).
    pub scheduler: Scheduler,
    /// Structured event tracing and per-stage latency profiling: every
    /// task records pipeline events (dispatch → route → deliver/retry →
    /// index → verify → emit, plus barrier/checkpoint/shed) into bounded
    /// rings, collected into [`DistributedJoinResult::trace`], and the
    /// bolts fill [`DistributedJoinResult::stages`]. Timestamps come from
    /// the scheduler clock, so a simulated run's trace is byte-identical
    /// per seed; instrumentation draws no randomness and never advances
    /// the clock, so transcripts and results are unchanged by enabling
    /// it. `None` (the default) records nothing and costs nothing.
    pub trace: Option<TraceConfig>,
}

impl DistributedJoinConfig {
    /// The paper's default setup: length-based (load-aware, calibrated on
    /// the first 10k records) + bundle join.
    pub fn recommended(k: usize, join: JoinConfig) -> Self {
        Self {
            k,
            join,
            local: LocalAlgo::bundle(),
            strategy: Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 10_000,
            },
            channel_capacity: 1024,
            source_rate: None,
            fault: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        }
    }

    /// Adds an injected fault plan (see [`FaultPlan`]).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Sheds records at the dispatcher above this queue depth (see
    /// [`Self::shed_watermark`]).
    pub fn with_shed_watermark(mut self, watermark: usize) -> Self {
        self.shed_watermark = Some(watermark);
        self
    }

    /// Enables epoch-based coordinated checkpointing (see
    /// [`Self::checkpoint`]).
    pub fn with_checkpointing(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Restores topology state from the latest complete checkpoint in
    /// `store` before streaming (see [`Self::restore_from`]).
    pub fn with_restore_from(mut self, store: Arc<dyn SnapshotStore>) -> Self {
        self.restore_from = Some(store);
        self
    }

    /// Batches every edge at this size (see [`Self::dispatch_batch`]).
    pub fn with_dispatch_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "dispatch batch size must be at least 1");
        self.dispatch_batch = Some(batch);
        self
    }

    /// Runs the topology under deterministic simulation with the given
    /// interleaving seed (see [`Self::scheduler`]).
    pub fn with_sim(mut self, seed: u64) -> Self {
        self.scheduler = Scheduler::Sim(SimConfig::seeded(seed));
        self
    }

    /// Enables structured tracing and stage profiling (see [`Self::trace`]).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Everything a distributed run produced.
#[derive(Debug)]
pub struct DistributedJoinResult {
    /// All result pairs (exact, duplicate-free).
    pub pairs: Vec<MatchPair>,
    /// Dispatch-to-result latency distribution.
    pub latency: LatencyHistogram,
    /// Per-task engine metrics.
    pub report: RunReport,
    /// Final per-joiner algorithm statistics.
    pub joiners: Vec<JoinerSnapshot>,
    /// Records streamed.
    pub records: usize,
    /// Wall-clock time from first dispatch to full drain.
    pub wall: std::time::Duration,
    /// Ids of records shed by the dispatcher under degraded mode, in shed
    /// order. Always has exactly [`RunReport::shed`] entries; empty unless
    /// [`DistributedJoinConfig::shed_watermark`] was set and overload
    /// actually occurred.
    pub shed_records: Vec<u64>,
    /// When the run restored from a checkpoint
    /// ([`DistributedJoinConfig::restore_from`] with a complete epoch
    /// available): the restored epoch's cut id. Source records at or below
    /// it were skipped as already covered.
    pub restored_cut: Option<u64>,
    /// The scheduler decision log of a simulated run (`None` under
    /// [`Scheduler::Threads`]). Byte-identical across runs with the same
    /// seed and configuration — the determinism witness golden tests pin.
    pub transcript: Option<Transcript>,
    /// The structured event trace of the run (`None` unless
    /// [`DistributedJoinConfig::trace`] was set). Under simulation the
    /// rendered trace is byte-identical per seed.
    pub trace: Option<RunTrace>,
    /// Per-stage latency histograms recorded by the pipeline's bolts
    /// (route, index, verify, emit, barrier, checkpoint). Empty unless
    /// [`DistributedJoinConfig::trace`] was set.
    pub stages: StageProfile,
}

impl DistributedJoinResult {
    /// End-to-end throughput in records per second.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.records as f64 / self.wall.as_secs_f64()
    }

    /// Dispatcher→joiner messages per record (communication cost).
    pub fn msgs_per_record(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.report.component("dispatcher").msgs_out as f64 / self.records as f64
    }

    /// Dispatcher→joiner bytes per record (communication cost).
    pub fn bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.report.component("dispatcher").bytes_out as f64 / self.records as f64
    }

    /// Index replication factor: stored copies per record.
    pub fn replication(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        let indexed: u64 = self.joiners.iter().map(|j| j.stats.indexed).sum();
        indexed as f64 / self.records as f64
    }

    /// Critical-path throughput projection: records divided by the busiest
    /// single task's busy time. On a genuinely parallel machine the
    /// pipeline can go no faster than its most loaded stage; on the
    /// single-core containers these experiments often run in, wall-clock
    /// throughput cannot show parallel speedup, while this projection
    /// preserves the scaling *shape* (it is what a `k`-core deployment
    /// would be bounded by, ignoring communication overlap).
    pub fn modeled_throughput(&self) -> f64 {
        let bottleneck = self
            .report
            .tasks
            .iter()
            .map(|(_, _, m)| m.busy.as_secs_f64())
            .fold(0.0f64, f64::max);
        if bottleneck <= 0.0 {
            return 0.0;
        }
        self.records as f64 / bottleneck
    }

    /// Joiner load imbalance: max/avg of per-joiner busy time.
    pub fn load_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self
            .report
            .tasks
            .iter()
            .filter(|(c, _, _)| c == "joiner")
            .map(|(_, _, m)| m.busy.as_secs_f64())
            .collect();
        let total: f64 = busy.iter().sum();
        if busy.is_empty() || total <= 0.0 {
            return 1.0;
        }
        busy.iter().fold(0.0f64, |a, &b| a.max(b)) * busy.len() as f64 / total
    }
}

/// Runs `records` through the configured distributed self-join and returns
/// the exact result set plus all measurements.
pub fn run_distributed(records: &[Record], cfg: &DistributedJoinConfig) -> DistributedJoinResult {
    // The source stamp is a placeholder: the dispatcher re-stamps every
    // record with the topology clock when it first sees it, so latency
    // measures dispatch-to-result on whichever clock (wall or virtual)
    // the scheduler runs.
    let source: Vec<JoinMsg> = records
        .iter()
        .map(|r| JoinMsg::ProbeAndIndex(RecordMsg::solo(r.clone(), Timestamp::ZERO)))
        .collect();
    run_internal(source, records, false, cfg)
}

/// Runs a bi-stream (R–S) join: every record of one stream is matched
/// against the other stream's records inside the window. Record ids must
/// be globally unique and increasing across both streams (they define the
/// arrival interleaving).
pub fn run_bistream_distributed(
    left: &[Record],
    right: &[Record],
    cfg: &DistributedJoinConfig,
) -> DistributedJoinResult {
    use ssj_core::join::bistream::merge_streams;
    let merged = merge_streams(left, right);
    let sample: Vec<Record> = merged.iter().map(|(_, r)| r.clone()).collect();
    let source: Vec<JoinMsg> = merged
        .into_iter()
        .map(|(side, record)| {
            JoinMsg::ProbeAndIndex(RecordMsg {
                record,
                ingest: Timestamp::ZERO,
                side: Some(side),
            })
        })
        .collect();
    run_internal(source, &sample, true, cfg)
}

/// Instantiates the router a strategy describes, calibrating the
/// data-dependent `LengthAuto` from a prefix of `arrival_order`. Shared by
/// the in-process driver and the cluster launcher (`crate::cluster`) so
/// both route identically for the same input — a precondition for the
/// cross-process differential tests.
pub(crate) fn build_router(
    strategy: &Strategy,
    threshold: Threshold,
    k: usize,
    arrival_order: &[Record],
) -> Box<dyn Router + Send> {
    match strategy {
        Strategy::Length(partition) => {
            assert_eq!(partition.k(), k, "partition/k mismatch");
            Box::new(LengthRouter::new(threshold, partition.clone()))
        }
        Strategy::LengthAuto { method, sample } => {
            let take = (*sample).clamp(1, arrival_order.len().max(1));
            let sample = &arrival_order[..take.min(arrival_order.len())];
            let partition = calibrate_partition(sample, threshold, k, *method);
            Box::new(LengthRouter::new(threshold, partition))
        }
        Strategy::Prefix => Box::new(PrefixRouter::new(threshold, k)),
        Strategy::Broadcast => Box::new(BroadcastRouter::new(k)),
    }
}

/// Applies a checkpoint image to a prepared source stream — the restore
/// path of both run-times: records at or below the image's cut are
/// dropped, the snapshotted window re-enters ahead of the stream as
/// index-only tuples, and a persisted partition overrides the strategy.
/// Returns `(restored_cut, prepended, integrity)` — `prepended` restore
/// tuples at the head of `source` are state rebuild, not streamed
/// workload.
///
/// Restore is *verified*: epochs whose manifest or parts fail their
/// CRC32C check are quarantined and the walk falls back to the newest
/// fully-verified earlier epoch (counted in the returned integrity
/// report). When every epoch is corrupt, nothing is restored — the full
/// source streams from scratch, which recomputes the exact result rather
/// than trusting rotten state.
pub(crate) fn prepare_restore(
    source: &mut Vec<JoinMsg>,
    strategy: &mut Strategy,
    store: &dyn crate::checkpoint::SnapshotStore,
    k: usize,
    bistream: bool,
) -> (Option<u64>, usize, stormlite::IntegrityReport) {
    let scan = load_latest_verified(store).expect("restore store cannot enumerate its epochs");
    let integrity = scan.integrity();
    let Some(image) = scan.image else {
        return (None, 0, integrity);
    };
    assert_eq!(image.k, k, "checkpoint was taken with a different k");
    assert_eq!(
        image.bistream, bistream,
        "checkpoint topology shape (bistream) mismatch"
    );
    if let Some(partition) = image.partition {
        *strategy = Strategy::Length(partition);
    }
    let cut = image.cut_id;
    source.retain(|m| m.record().is_none_or(|r| r.id().0 > cut));
    let mut restored: Vec<JoinMsg> = image
        .window
        .into_iter()
        .map(|(side, record)| {
            JoinMsg::Index(RecordMsg {
                record,
                ingest: Timestamp::ZERO,
                side,
            })
        })
        .collect();
    let prepended = restored.len();
    restored.append(source);
    *source = restored;
    (Some(cut), prepended, integrity)
}

/// Builds the recovery machinery a run needs: replay buffers whenever a
/// joiner can lose its state mid-run (`can_lose_state`) or the run
/// checkpoints — epoch commits truncate the buffers, and a crashed joiner
/// replays the uncheckpointed tail — plus the epoch coordinator exactly
/// when `checkpoint` is set.
pub(crate) fn build_recovery(
    k: usize,
    window: Window,
    can_lose_state: bool,
    checkpoint: Option<&CheckpointConfig>,
) -> (
    Option<Arc<RecoveryState>>,
    Option<Arc<CheckpointCoordinator>>,
) {
    let recovery =
        (can_lose_state || checkpoint.is_some()).then(|| Arc::new(RecoveryState::new(k, window)));
    let coordinator = checkpoint.map(|cp| {
        let recovery = Arc::clone(recovery.as_ref().expect("created just above"));
        Arc::new(CheckpointCoordinator::new(k, cp, recovery).expect("checkpoint store unavailable"))
    });
    (recovery, coordinator)
}

/// The index state a restarted incarnation of `task` must rebuild: the
/// newest verified committed snapshot with its epoch (when checkpointing),
/// then the replay-buffer tail it does not cover. Truncated at every
/// commit, the buffer holds only that uncheckpointed tail, which bounds
/// replay work by the checkpoint interval instead of the window size.
///
/// The two are captured atomically with respect to epoch commits: a commit
/// between the reads would truncate the buffer past the (older) snapshot
/// being restored, silently dropping the records between the two cuts.
pub(crate) fn lost_state(
    recovery: &RecoveryState,
    coordinator: Option<&CheckpointCoordinator>,
    task: usize,
) -> (Option<(u64, Vec<SnapshotEntry>)>, Vec<SnapshotEntry>) {
    let (snapshot, tail) = match coordinator {
        Some(c) => c.restore_and_replay_for(task),
        None => (None, recovery.replay_for(task)),
    };
    let tail = tail.into_iter().map(|e| (e.side, e.record)).collect();
    (snapshot, tail)
}

fn run_internal(
    source: Vec<JoinMsg>,
    arrival_order: &[Record],
    bistream: bool,
    cfg: &DistributedJoinConfig,
) -> DistributedJoinResult {
    assert!(cfg.k >= 1, "need at least one joiner");
    assert!(
        !(matches!(cfg.scheduler, Scheduler::Sim(_)) && cfg.source_rate.is_some()),
        "source_rate paces on the wall clock and cannot run under simulation"
    );
    let threshold = cfg.join.threshold;
    let window = cfg.join.window;

    // Restore path: rebuild the checkpointed window before streaming. The
    // image's records re-enter through the dispatcher as index-only tuples
    // (in id order, ahead of all new records), so any router — including
    // replicating ones and a freshly overridden partition — places them
    // exactly as a live run would have.
    let mut source = source;
    let mut strategy = cfg.strategy.clone();
    let mut restored_cut = None;
    let mut prepended = 0;
    let mut restore_integrity = stormlite::IntegrityReport::default();
    if let Some(store) = &cfg.restore_from {
        (restored_cut, prepended, restore_integrity) =
            prepare_restore(&mut source, &mut strategy, store.as_ref(), cfg.k, bistream);
    }
    // Restore re-dispatch tuples rebuild state; they are not part of the
    // streamed workload the run's rates are normalized by.
    let n_records = source.len() - prepended;

    let router = build_router(&strategy, threshold, cfg.k, arrival_order);
    let needs_dedup = router.needs_result_dedup();

    if let Some(plan) = &cfg.fault {
        for spec in plan.specs() {
            assert_eq!(
                spec.component, "joiner",
                "fault plans may only crash joiner tasks"
            );
        }
    }
    let (recovery, coordinator) =
        build_recovery(cfg.k, window, cfg.fault.is_some(), cfg.checkpoint.as_ref());

    let sink_state = Arc::new(Mutex::new(SinkState::default()));
    let snapshots: Arc<Mutex<Vec<JoinerSnapshot>>> = Arc::new(Mutex::new(Vec::new()));

    // Observability: one sink collects every task's event ring, one shared
    // profile aggregates the bolts' per-stage latencies. Both exist only
    // when tracing is configured — disabled runs carry no tracer at all.
    let trace_sink = cfg.trace.as_ref().map(|tc| (TraceSink::new(), tc.clone()));
    let stage_shared: Option<Arc<Mutex<StageProfile>>> = cfg
        .trace
        .as_ref()
        .map(|_| Arc::new(Mutex::new(StageProfile::new())));

    let mut topology: Topology<JoinMsg> =
        Topology::new().with_channel_capacity(cfg.channel_capacity);
    if let Some((sink, tc)) = &trace_sink {
        topology = topology.with_tracing(sink.clone(), tc.clone());
    }
    if let Some(plan) = &cfg.fault {
        topology = topology.with_fault_plan(plan.clone());
    }
    // The source does no work, so unpaced its queue into the dispatcher is
    // always full and every message costs a hop plus a wake-up of the
    // parked spout: `dispatch_batch` batches this edge like the others. A
    // paced source is exempt (see [`DistributedJoinConfig::dispatch_batch`]).
    match (cfg.source_rate, cfg.dispatch_batch) {
        (Some(rate), _) => topology.spout(
            "source",
            crate::pace::PacedIter::new(source.into_iter(), rate),
        ),
        (None, Some(batch)) if batch > 1 => topology.spout("source", batched(source, batch)),
        (None, _) => topology.spout("source", source),
    }

    // The dispatcher is stateful (routers mutate) and single-task; move the
    // router into the one instance the factory builds.
    let shed_log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut router_slot = Some(DispatcherBolt::new(
        Dispatcher::new(
            router,
            bistream,
            recovery.clone(),
            coordinator.clone(),
            cfg.shed_watermark,
            cfg.dispatch_batch,
        ),
        Arc::clone(&shed_log),
        stage_shared.clone(),
    ));
    topology.bolt("dispatcher", 1, move |_| {
        router_slot.take().expect("dispatcher built once")
    });

    let join_cfg = cfg.join;
    let local = cfg.local;
    let k = cfg.k;
    let snaps = Arc::clone(&snapshots);
    let joiner_stages = stage_shared.clone();
    let joiner_coordinator = coordinator.clone();
    topology.bolt("joiner", cfg.k, move |task| {
        JoinerBolt::new(
            Joiner::new(local, join_cfg, bistream, needs_dedup.then_some((k, task))),
            task,
            Arc::clone(&snaps),
            recovery.clone(),
            joiner_coordinator.clone(),
            joiner_stages.clone(),
        )
    });

    let sink_shared = Arc::clone(&sink_state);
    let sink_stages = stage_shared.clone();
    topology.bolt("sink", 1, move |_| {
        SinkBolt::new(Arc::clone(&sink_shared)).with_stages(sink_stages.clone())
    });

    topology.wire("source", "dispatcher", Grouping::global());
    topology.wire("dispatcher", "joiner", Grouping::direct());
    topology.wire("joiner", "sink", Grouping::global());

    let (mut report, transcript) = match cfg.scheduler {
        Scheduler::Sim(sim_cfg) => {
            let run = topology.run_sim(sim_cfg);
            (run.report, Some(run.transcript))
        }
        Scheduler::Threads => (topology.run_with(Scheduler::Threads), None),
    };
    // Fold storage-side integrity observations into the report: the
    // restore scan's quarantines plus any in-run restore fallbacks the
    // coordinator performed.
    report.integrity.merge(&restore_integrity);
    if let Some(coord) = &coordinator {
        report.integrity.merge(&coord.integrity());
    }
    let wall = report.elapsed;

    let mut sink = sink_state.lock();
    let pairs = std::mem::take(&mut sink.pairs);
    let latency = sink.latency.clone();
    drop(sink);
    let mut joiners = std::mem::take(&mut *snapshots.lock());
    joiners.sort_by_key(|s| s.task);

    let shed_records = std::mem::take(&mut *shed_log.lock());
    debug_assert_eq!(shed_records.len() as u64, report.shed());

    let trace = trace_sink.map(|(sink, _)| sink.collect());
    let stages = stage_shared
        .map(|s| std::mem::take(&mut *s.lock()))
        .unwrap_or_default();

    DistributedJoinResult {
        pairs,
        latency,
        report,
        joiners,
        records: n_records,
        wall,
        shed_records,
        restored_cut,
        transcript,
        trace,
        stages,
    }
}

/// `source` in chunks of `batch`, each one [`JoinMsg::Batch`], built as the
/// spout pulls them; a lone remainder stays unwrapped, the shape
/// `operators::Dispatcher` gives a joiner wire's last message.
fn batched(source: Vec<JoinMsg>, batch: usize) -> impl Iterator<Item = JoinMsg> + Send {
    let mut source = source.into_iter();
    std::iter::from_fn(move || {
        let mut chunk: Vec<JoinMsg> = source.by_ref().take(batch).collect();
        match chunk.len() {
            0 => None,
            1 => chunk.pop(),
            _ => Some(JoinMsg::Batch(chunk)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_core::{join::run_stream, Window};

    fn workload(n: usize, dup_rate: f64) -> Vec<Record> {
        use ssj_workloads::{DatasetProfile, StreamGenerator};
        let profile = DatasetProfile::tweet().with_dup_rate(dup_rate);
        StreamGenerator::new(profile, 42).take_records(n)
    }

    fn ground_truth(records: &[Record], join: JoinConfig) -> Vec<(u64, u64)> {
        let mut naive = NaiveJoiner::new(join);
        let mut keys: Vec<_> = run_stream(&mut naive, records)
            .iter()
            .map(|m| m.key())
            .collect();
        keys.sort_unstable();
        keys
    }

    fn run_keys(records: &[Record], cfg: &DistributedJoinConfig) -> Vec<(u64, u64)> {
        let result = run_distributed(records, cfg);
        let mut keys: Vec<_> = result.pairs.iter().map(|m| m.key()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys.windows(2).filter(|w| w[0] == w[1]).count(),
            0,
            "duplicate result pairs"
        );
        keys
    }

    #[test]
    fn length_strategy_matches_ground_truth() {
        let records = workload(800, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let expect = ground_truth(&records, join);
        for local in [LocalAlgo::AllPairs, LocalAlgo::PpJoin, LocalAlgo::bundle()] {
            let cfg = DistributedJoinConfig {
                k: 4,
                join,
                local,
                strategy: Strategy::LengthAuto {
                    method: PartitionMethod::LoadAware,
                    sample: 200,
                },
                channel_capacity: 256,
                source_rate: None,
                fault: None,
                shed_watermark: None,
                checkpoint: None,
                restore_from: None,
                dispatch_batch: None,
                trace: None,
                scheduler: Scheduler::Threads,
            };
            assert_eq!(run_keys(&records, &cfg), expect, "local={}", local.name());
        }
    }

    #[test]
    fn prefix_strategy_matches_ground_truth_with_exact_dedup() {
        let records = workload(600, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let expect = ground_truth(&records, join);
        let cfg = DistributedJoinConfig {
            k: 4,
            join,
            local: LocalAlgo::PpJoin,
            strategy: Strategy::Prefix,
            channel_capacity: 256,
            source_rate: None,
            fault: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };
        assert_eq!(run_keys(&records, &cfg), expect);
    }

    #[test]
    fn broadcast_strategy_matches_ground_truth() {
        let records = workload(600, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let expect = ground_truth(&records, join);
        let cfg = DistributedJoinConfig {
            k: 3,
            join,
            local: LocalAlgo::AllPairs,
            strategy: Strategy::Broadcast,
            channel_capacity: 256,
            source_rate: None,
            fault: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };
        assert_eq!(run_keys(&records, &cfg), expect);
    }

    #[test]
    fn windowed_distributed_matches_ground_truth() {
        let records = workload(700, 0.4);
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.6),
            window: Window::Count(120),
        };
        let expect = ground_truth(&records, join);
        for strategy in [
            Strategy::LengthAuto {
                method: PartitionMethod::EqualDepth,
                sample: 100,
            },
            Strategy::Prefix,
        ] {
            let cfg = DistributedJoinConfig {
                k: 4,
                join,
                local: LocalAlgo::PpJoin,
                strategy,
                channel_capacity: 128,
                source_rate: None,
                fault: None,
                shed_watermark: None,
                checkpoint: None,
                restore_from: None,
                dispatch_batch: None,
                trace: None,
                scheduler: Scheduler::Threads,
            };
            assert_eq!(run_keys(&records, &cfg), expect);
        }
    }

    #[test]
    fn length_strategy_never_replicates() {
        let records = workload(500, 0.2);
        let cfg = DistributedJoinConfig {
            k: 4,
            join: JoinConfig::jaccard(0.8),
            local: LocalAlgo::PpJoin,
            strategy: Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
            channel_capacity: 256,
            source_rate: None,
            fault: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };
        let result = run_distributed(&records, &cfg);
        assert!((result.replication() - 1.0).abs() < 1e-9);
        assert!(result.msgs_per_record() >= 1.0);
    }

    #[test]
    fn prefix_strategy_replicates_more_than_length() {
        // Long records (ENRON-like) make prefixes long, so prefix routing
        // fans each record out to almost every owner while length routing
        // indexes exactly once and probes a narrow partition interval.
        use ssj_workloads::{DatasetProfile, StreamGenerator};
        let records = StreamGenerator::new(DatasetProfile::enron(), 42).take_records(300);
        let join = JoinConfig::jaccard(0.8);
        let mk = |strategy| DistributedJoinConfig {
            k: 8,
            join,
            local: LocalAlgo::PpJoin,
            strategy,
            channel_capacity: 256,
            source_rate: None,
            fault: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };
        let length = run_distributed(
            &records,
            &mk(Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            }),
        );
        let prefix = run_distributed(&records, &mk(Strategy::Prefix));
        assert!(prefix.replication() >= length.replication());
        assert!(prefix.bytes_per_record() > length.bytes_per_record());
    }

    #[test]
    fn single_joiner_works() {
        let records = workload(300, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let expect = ground_truth(&records, join);
        let cfg = DistributedJoinConfig {
            k: 1,
            join,
            local: LocalAlgo::bundle(),
            strategy: Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 50,
            },
            channel_capacity: 64,
            source_rate: None,
            fault: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };
        assert_eq!(run_keys(&records, &cfg), expect);
    }

    /// Reference bi-join result built from the naive joiner run on the
    /// merged arrival sequence, keeping only cross-stream pairs.
    fn bistream_ground_truth(
        left: &[Record],
        right: &[Record],
        join: JoinConfig,
    ) -> Vec<(u64, u64)> {
        use ssj_core::join::bistream::{merge_streams, run_bistream, BiStreamJoiner};
        let merged = merge_streams(left, right);
        let mut j = BiStreamJoiner::new(|| NaiveJoiner::new(join));
        let mut keys: Vec<_> = run_bistream(&mut j, &merged)
            .iter()
            .map(|m| m.key())
            .collect();
        keys.sort_unstable();
        keys
    }

    fn split_workload(n: usize) -> (Vec<Record>, Vec<Record>) {
        // Interleave one generated stream into two sides so that plenty of
        // cross-stream matches exist (near-duplicates land on both sides).
        let all = workload(n, 0.4);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for r in all {
            if r.id().0 % 2 == 0 {
                left.push(r);
            } else {
                right.push(r);
            }
        }
        (left, right)
    }

    #[test]
    fn bistream_distributed_matches_ground_truth() {
        let (left, right) = split_workload(700);
        let join = JoinConfig::jaccard(0.7);
        let expect = bistream_ground_truth(&left, &right, join);
        assert!(!expect.is_empty(), "workload must produce matches");
        for (local, strategy) in [
            (
                LocalAlgo::bundle(),
                Strategy::LengthAuto {
                    method: PartitionMethod::LoadAware,
                    sample: 100,
                },
            ),
            (LocalAlgo::PpJoin, Strategy::Prefix),
            (LocalAlgo::AllPairs, Strategy::Broadcast),
        ] {
            let cfg = DistributedJoinConfig {
                k: 4,
                join,
                local,
                strategy,
                channel_capacity: 128,
                source_rate: None,
                fault: None,
                shed_watermark: None,
                checkpoint: None,
                restore_from: None,
                dispatch_batch: None,
                trace: None,
                scheduler: Scheduler::Threads,
            };
            let out = run_bistream_distributed(&left, &right, &cfg);
            let mut got: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "local={}", local.name());
        }
    }

    #[test]
    fn bistream_windowed_matches_ground_truth() {
        let (left, right) = split_workload(600);
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.6),
            window: Window::Count(90),
        };
        let expect = bistream_ground_truth(&left, &right, join);
        let cfg = DistributedJoinConfig {
            k: 3,
            join,
            local: LocalAlgo::PpJoin,
            strategy: Strategy::LengthAuto {
                method: PartitionMethod::EqualDepth,
                sample: 80,
            },
            channel_capacity: 64,
            source_rate: None,
            fault: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };
        let out = run_bistream_distributed(&left, &right, &cfg);
        let mut got: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(out.records, left.len() + right.len());
    }

    #[test]
    fn injected_joiner_crash_recovers_exactly() {
        let records = workload(800, 0.3);
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.7),
            window: Window::Count(150),
        };
        let expect = ground_truth(&records, join);
        for strategy in [
            Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
            Strategy::Prefix,
            Strategy::Broadcast,
        ] {
            let name = strategy.name();
            let cfg = DistributedJoinConfig {
                k: 4,
                join,
                local: LocalAlgo::PpJoin,
                strategy,
                channel_capacity: 128,
                source_rate: None,
                fault: Some(FaultPlan::new().crash("joiner", 1, 40)),
                shed_watermark: None,
                checkpoint: None,
                restore_from: None,
                dispatch_batch: None,
                trace: None,
                scheduler: Scheduler::Threads,
            };
            let result = run_distributed(&records, &cfg);
            let mut keys: Vec<_> = result.pairs.iter().map(|m| m.key()).collect();
            keys.sort_unstable();
            assert_eq!(
                keys.windows(2).filter(|w| w[0] == w[1]).count(),
                0,
                "duplicate pairs after recovery ({name})"
            );
            assert_eq!(keys, expect, "lost or spurious pairs ({name})");
            assert_eq!(result.report.total_restarts(), 1, "{name}");
            assert_eq!(result.joiners[1].incarnation, 1, "{name}");
            assert!(
                result.joiners[1].replayed > 0,
                "restart replayed nothing ({name})"
            );
        }
    }

    #[test]
    fn repeated_crashes_on_several_joiners_recover() {
        let records = workload(900, 0.4);
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.65),
            window: Window::Count(200),
        };
        let expect = ground_truth(&records, join);
        let cfg = DistributedJoinConfig {
            k: 3,
            join,
            local: LocalAlgo::bundle(),
            strategy: Strategy::LengthAuto {
                method: PartitionMethod::EqualDepth,
                sample: 150,
            },
            channel_capacity: 128,
            source_rate: None,
            // Task 0 dies twice; task 2 dies once, before any input.
            fault: Some(
                FaultPlan::new()
                    .crash("joiner", 0, 30)
                    .crash("joiner", 0, 120)
                    .crash("joiner", 2, 0),
            ),
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };
        let result = run_distributed(&records, &cfg);
        assert_eq!(run_keys_of(&result), expect);
        assert_eq!(result.report.total_restarts(), 3);
        assert_eq!(result.joiners[0].incarnation, 2);
        assert_eq!(result.joiners[2].incarnation, 1);
    }

    #[test]
    fn bistream_crash_recovers_exactly() {
        let (left, right) = split_workload(700);
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.6),
            window: Window::Count(120),
        };
        let expect = bistream_ground_truth(&left, &right, join);
        assert!(!expect.is_empty());
        let cfg = DistributedJoinConfig {
            k: 3,
            join,
            local: LocalAlgo::PpJoin,
            strategy: Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
            channel_capacity: 64,
            source_rate: None,
            fault: Some(FaultPlan::new().crash("joiner", 0, 50)),
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };
        let out = run_bistream_distributed(&left, &right, &cfg);
        assert_eq!(run_keys_of(&out), expect);
        assert_eq!(out.report.total_restarts(), 1);
    }

    #[test]
    fn fault_free_run_with_plan_absent_has_no_recovery_metadata() {
        let records = workload(300, 0.3);
        let cfg = DistributedJoinConfig::recommended(2, JoinConfig::jaccard(0.8));
        assert!(cfg.fault.is_none());
        let result = run_distributed(&records, &cfg);
        assert_eq!(result.report.total_restarts(), 0);
        assert!(result.joiners.iter().all(|j| j.incarnation == 0));
        assert!(result.joiners.iter().all(|j| j.replayed == 0));
    }

    #[test]
    #[should_panic(expected = "only crash joiner tasks")]
    fn faults_on_the_dispatcher_are_rejected() {
        let records = workload(50, 0.2);
        let cfg = DistributedJoinConfig::recommended(2, JoinConfig::jaccard(0.8))
            .with_fault(FaultPlan::new().crash("dispatcher", 0, 5));
        let _ = run_distributed(&records, &cfg);
    }

    fn run_keys_of(result: &DistributedJoinResult) -> Vec<(u64, u64)> {
        let mut keys: Vec<_> = result.pairs.iter().map(|m| m.key()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys.windows(2).filter(|w| w[0] == w[1]).count(),
            0,
            "duplicate result pairs"
        );
        keys
    }

    #[test]
    fn shedding_under_overload_accounts_for_recall_exactly() {
        // Slow joiners (naive local join over an unbounded window) behind
        // tiny queues force the dispatcher over the shed watermark.
        let records = workload(2000, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let cfg = DistributedJoinConfig {
            k: 2,
            join,
            local: LocalAlgo::Naive,
            strategy: Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
            channel_capacity: 8,
            source_rate: None,
            fault: None,
            shed_watermark: Some(4),
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };
        let result = run_distributed(&records, &cfg);
        assert!(
            result.report.shed() > 0,
            "overload never tripped the watermark"
        );
        assert_eq!(
            result.shed_records.len() as u64,
            result.report.shed(),
            "shed log and engine counter disagree"
        );
        // A shed record vanishes entirely, so the surviving output is
        // exactly the join of the kept records — the recall gap is fully
        // explained by the shed ids.
        let shed: std::collections::HashSet<u64> = result.shed_records.iter().copied().collect();
        let kept: Vec<Record> = records
            .iter()
            .filter(|r| !shed.contains(&r.id().0))
            .cloned()
            .collect();
        let expect = ground_truth(&kept, join);
        assert_eq!(run_keys_of(&result), expect);
    }

    #[test]
    fn checkpointed_crash_recovery_stays_exact() {
        let records = workload(800, 0.3);
        let join = JoinConfig::jaccard(0.7); // unbounded window
        let expect = ground_truth(&records, join);
        for strategy in [
            Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
            Strategy::Prefix,
            Strategy::Broadcast,
        ] {
            let name = strategy.name();
            let cfg = DistributedJoinConfig {
                k: 3,
                join,
                local: LocalAlgo::PpJoin,
                strategy,
                channel_capacity: 32,
                source_rate: None,
                fault: Some(FaultPlan::new().crash("joiner", 1, 100)),
                shed_watermark: None,
                checkpoint: Some(crate::checkpoint::CheckpointConfig::in_memory(16)),
                restore_from: None,
                dispatch_batch: None,
                trace: None,
                scheduler: Scheduler::Threads,
            };
            let result = run_distributed(&records, &cfg);
            assert_eq!(run_keys_of(&result), expect, "{name}");
            assert_eq!(result.report.total_restarts(), 1, "{name}");
            assert!(
                result.report.checkpoints() > 0,
                "{name}: no epoch published"
            );
            assert!(
                result.joiners[1].restored_from_epoch.is_some(),
                "{name}: restart predates every commit despite 100 tuples at interval 16"
            );
        }
    }

    #[test]
    fn restore_from_file_store_resumes_exactly() {
        use crate::checkpoint::{CheckpointConfig, FileStore};
        let dir = std::env::temp_dir().join(format!("ssj-restore-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let records = workload(700, 0.3);
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.7),
            window: Window::Count(120),
        };
        let base = DistributedJoinConfig {
            k: 3,
            join,
            local: LocalAlgo::PpJoin,
            strategy: Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
            channel_capacity: 64,
            source_rate: None,
            fault: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            trace: None,
            scheduler: Scheduler::Threads,
        };

        // Phase 1: checkpoint to disk while streaming, then "lose" the
        // process — only the snapshot directory survives.
        let ckpt = base
            .clone()
            .with_checkpointing(CheckpointConfig::in_dir(50, &dir).unwrap());
        let phase1 = run_distributed(&records, &ckpt);
        assert!(phase1.report.checkpoints() > 0);

        // Phase 2: a fresh topology restores from the directory and is fed
        // the same stream; it must skip everything the checkpoint covers
        // and produce exactly the pairs whose later record is post-cut.
        let store = Arc::new(FileStore::open(&dir).unwrap());
        let restored = run_distributed(&records, &base.clone().with_restore_from(store));
        let cut = restored.restored_cut.expect("a complete epoch was on disk");
        assert!(cut > 0 && (cut as usize) < records.len());
        let expect: Vec<(u64, u64)> = ground_truth(&records, join)
            .into_iter()
            .filter(|&(_, later)| later > cut)
            .collect();
        assert_eq!(run_keys_of(&restored), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_metrics_surface_in_the_report() {
        let records = workload(400, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let cfg = DistributedJoinConfig {
            checkpoint: Some(crate::checkpoint::CheckpointConfig::in_memory(40)),
            ..DistributedJoinConfig::recommended(3, join)
        }
        .with_sim(11);
        let result = run_distributed(&records, &cfg);
        let epochs = result.report.checkpoint_latency().count();
        assert!(epochs > 0, "no epoch committed");
        // Every injected barrier reaches every joiner before EOS, so each
        // opened epoch collects exactly k publishes and commits.
        assert_eq!(result.report.checkpoints(), 3 * epochs);
        assert!(result.report.checkpoint_bytes() > 0);
        assert_eq!(result.report.barrier_stall().count(), 3 * epochs);
        // Same seed, same config: the checkpointed sim replays exactly.
        let again = run_distributed(&records, &cfg);
        assert_eq!(result.transcript, again.transcript);
        assert!(result.transcript.is_some());
    }

    #[test]
    fn result_metadata_is_consistent() {
        let records = workload(400, 0.3);
        let cfg = DistributedJoinConfig::recommended(4, JoinConfig::jaccard(0.8));
        let result = run_distributed(&records, &cfg);
        assert_eq!(result.records, 400);
        assert_eq!(result.joiners.len(), 4);
        assert_eq!(
            result.latency.count(),
            result.pairs.len() as u64,
            "one latency sample per result"
        );
        assert!(result.throughput() > 0.0);
        assert!(result.load_imbalance() >= 1.0);
    }

    #[test]
    fn traced_sim_run_is_byte_deterministic_and_observation_only() {
        let records = workload(300, 0.3);
        let join = JoinConfig::jaccard(0.7);
        // Each run gets a fresh in-memory snapshot store: the epoch counter
        // resumes from the store's latest committed epoch, so sharing one
        // store across runs would shift epoch numbers (and the trace).
        let base = || {
            DistributedJoinConfig {
                checkpoint: Some(crate::checkpoint::CheckpointConfig::in_memory(40)),
                shed_watermark: None,
                ..DistributedJoinConfig::recommended(3, join)
            }
            .with_sim(7)
        };

        let a = run_distributed(&records, &base().with_trace(TraceConfig::default()));
        let b = run_distributed(&records, &base().with_trace(TraceConfig::default()));
        let ta = obs::trace_jsonl(a.trace.as_ref().expect("trace enabled"));
        let tb = obs::trace_jsonl(b.trace.as_ref().expect("trace enabled"));
        assert_eq!(ta, tb, "same seed must render a byte-identical trace");
        assert!(!ta.is_empty());
        // The full pipeline shows up: source dispatch, routing, delivery,
        // bolt execution, index/verify, results, and checkpoint barriers.
        for span in [
            "dispatch",
            "route",
            "deliver",
            "execute",
            "index",
            "verify",
            "emit",
            "barrier",
            "checkpoint",
        ] {
            assert!(
                ta.contains(&format!("\"span\":\"{span}\"")),
                "missing {span}"
            );
        }
        // Stage profile: every joiner probe and index landed a sample, and
        // the sink recorded one emit latency per result pair.
        assert_eq!(a.stages.get(obs::Stage::Emit).count(), a.pairs.len() as u64);
        assert!(a.stages.get(obs::Stage::Route).count() >= 300);
        assert!(a.stages.get(obs::Stage::Index).count() > 0);
        assert!(a.stages.get(obs::Stage::Verify).count() > 0);
        assert!(a.stages.get(obs::Stage::Barrier).count() > 0);

        // Observation only: the untraced run has the identical transcript,
        // results, and report counters.
        let c = run_distributed(&records, &base());
        assert_eq!(
            a.transcript, c.transcript,
            "tracing must not perturb the schedule"
        );
        assert_eq!(run_keys_of(&a), run_keys_of(&c));
        assert!(c.trace.is_none());
        assert!(c.stages.is_empty());
    }

    #[test]
    fn dispatch_batching_matches_unbatched() {
        let records = workload(800, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let expect = ground_truth(&records, join);
        for local in [LocalAlgo::AllPairs, LocalAlgo::bundle()] {
            // 1 = the unwrapped-singleton path, 10_000 = larger than the
            // whole stream, so every message rides the finish-time flush.
            for batch in [1usize, 4, 64, 10_000] {
                let cfg = DistributedJoinConfig {
                    local,
                    ..DistributedJoinConfig::recommended(4, join)
                }
                .with_dispatch_batch(batch);
                assert_eq!(
                    run_keys(&records, &cfg),
                    expect,
                    "local={} batch={batch}",
                    local.name()
                );
            }
        }

        // A result-heavy stream, where the joiner→sink edge carries several
        // times the traffic of the dispatcher's: result batches must
        // survive a joiner crash, on a replayable schedule. (The aol profile's very short records over
        // a small vocabulary repeat often enough for that at this length.)
        use ssj_workloads::{DatasetProfile, StreamGenerator};
        let profile = DatasetProfile::aol().with_vocab(40);
        let records = StreamGenerator::new(profile, 42).take_records(3000);
        let join = JoinConfig::jaccard(0.8);
        let expect = ground_truth(&records, join);
        assert!(
            expect.len() >= 3 * records.len(),
            "only {} pairs from {} records: not result-heavy",
            expect.len(),
            records.len()
        );
        for batch in [1usize, 8, 64] {
            let cfg = DistributedJoinConfig::recommended(4, join)
                .with_dispatch_batch(batch)
                .with_fault(FaultPlan::new().crash("joiner", 1, 3))
                .with_sim(batch as u64);
            let result = run_distributed(&records, &cfg);
            assert_eq!(run_keys_of(&result), expect, "aol batch={batch}");
            assert_eq!(result.report.total_restarts(), 1, "aol batch={batch}");
            assert_eq!(result.latency.count(), expect.len() as u64);
        }
    }

    #[test]
    fn source_batches_are_cut_by_count_and_a_lone_remainder_stays_unwrapped() {
        let source: Vec<JoinMsg> = workload(65, 0.0)
            .into_iter()
            .map(|r| JoinMsg::ProbeAndIndex(RecordMsg::solo(r, Timestamp::ZERO)))
            .collect();
        let ids = |msgs: &[JoinMsg]| -> Vec<u64> {
            msgs.iter().map(|m| m.record().unwrap().id().0).collect()
        };
        let sent: Vec<JoinMsg> = batched(source.clone(), 32).collect();
        // The 65th arrives as itself, the wire shape of an unbatched run.
        assert!(matches!(sent.last(), Some(JoinMsg::ProbeAndIndex(_))));
        let chunks: Vec<Vec<u64>> = sent
            .into_iter()
            .map(|m| match m {
                JoinMsg::Batch(msgs) => ids(&msgs),
                lone => ids(&[lone]),
            })
            .collect();
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), [32, 32, 1]);
        assert_eq!(chunks.concat(), ids(&source));
    }

    #[test]
    fn batched_sim_run_matches_unbatched() {
        let records = workload(500, 0.3);
        let join = JoinConfig::jaccard(0.7);
        // Fresh in-memory store per run (see the trace determinism test).
        let base = || {
            DistributedJoinConfig {
                checkpoint: Some(crate::checkpoint::CheckpointConfig::in_memory(40)),
                ..DistributedJoinConfig::recommended(3, join)
            }
            .with_sim(7)
        };
        let unbatched = run_distributed(&records, &base());
        let batched = run_distributed(&records, &base().with_dispatch_batch(16));
        assert_eq!(run_keys_of(&unbatched), run_keys_of(&batched));
        assert!(
            batched.report.checkpoints() > 0,
            "barrier-flush path never exercised"
        );
    }

    #[test]
    fn batched_dispatch_preserves_checkpointed_crash_recovery() {
        let records = workload(800, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let expect = ground_truth(&records, join);
        let cfg = DistributedJoinConfig {
            k: 3,
            join,
            local: LocalAlgo::PpJoin,
            strategy: Strategy::Prefix,
            channel_capacity: 32,
            source_rate: None,
            fault: Some(FaultPlan::new().crash("joiner", 1, 100)),
            shed_watermark: None,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::in_memory(16)),
            restore_from: None,
            dispatch_batch: Some(8),
            trace: None,
            scheduler: Scheduler::Threads,
        };
        let result = run_distributed(&records, &cfg);
        assert_eq!(run_keys_of(&result), expect);
        assert_eq!(result.report.total_restarts(), 1);
        assert!(result.report.checkpoints() > 0);
    }
}
