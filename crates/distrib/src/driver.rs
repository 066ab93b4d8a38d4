//! End-to-end distributed join driver: assembles the topology, runs a
//! stream through it, and reports results plus every observable the
//! evaluation needs (throughput, communication, load balance, latency).

use crate::bolts::{DispatcherBolt, JoinerBolt, JoinerSnapshot, SinkState};
use crate::checkpoint::{
    load_latest_verified, CheckpointConfig, CheckpointCoordinator, SnapshotStore,
};
use crate::msg::{JoinMsg, RecordMsg};
use crate::operators::{Dispatcher, Joiner};
use crate::recovery::RecoveryState;
use crate::route::{BroadcastRouter, LengthRouter, PrefixRouter, Router};
use obs::{LatencyHistogram, RunTrace, TraceConfig, TraceSink};
use parking_lot::Mutex;
use ssj_core::join::bistream::{merge_streams, Side};
use ssj_core::{
    AllPairsJoiner, BundleConfig, BundleJoiner, JoinConfig, MatchPair, NaiveJoiner, PpJoinJoiner,
    StreamJoiner, Threshold,
};
use ssj_partition::{
    equal_depth, equal_width, load_aware, CostModel, LengthHistogram, LengthPartition,
};
use ssj_text::Record;
use std::sync::Arc;
use stormlite::{
    Grouping, IntegrityReport, RunReport, Scheduler, SimConfig, Timestamp, Topology, Transcript,
};

use crate::fault::Fault;

/// Which local join algorithm each joiner runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocalAlgo {
    /// Verify-everything ground truth (tests/ablation only).
    Naive,
    /// Prefix + length filtering.
    AllPairs,
    /// Prefix + length + positional filtering.
    PpJoin,
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
            LocalAlgo::Bundle { .. } => "bundle",
        }
    }

    pub(crate) fn build(&self, cfg: JoinConfig) -> Box<dyn StreamJoiner + Send> {
        match *self {
            LocalAlgo::Naive => Box::new(NaiveJoiner::new(cfg)),
            LocalAlgo::AllPairs => Box::new(AllPairsJoiner::new(cfg)),
            LocalAlgo::PpJoin => Box::new(PpJoinJoiner::new(cfg)),
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
    /// Load-aware minimax DP over the joiner loads of the [`CostModel`]
    /// (the paper's).
    LoadAware,
}

/// Builds a length partition from a record sample.
pub fn calibrate_partition<'r>(
    sample: impl IntoIterator<Item = &'r Record>,
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

/// The join a run computes, declared once for both engines: `k` joiners,
/// routing and local algorithm, and what the dispatcher does besides
/// routing. [`DistributedJoinConfig`] and [`crate::cluster::ClusterConfig`]
/// embed one as `spec` and add only how their engine runs it, so one spec
/// routes, sheds, cuts barriers and restores alike on both.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Number of parallel joiners.
    pub k: usize,
    /// Threshold and window.
    pub join: JoinConfig,
    /// Local algorithm on each joiner.
    pub local: LocalAlgo,
    /// Distribution strategy, calibrated where the dispatcher runs (joiners
    /// only join).
    pub strategy: Strategy,
    /// Degraded mode: shed whole records at the dispatcher whenever any
    /// target joiner's backlog (queued messages on the topology, unacked
    /// ones on the cluster) reaches this. Shed ids are reported in the
    /// result's `shed_records`, so recall loss is exactly accountable.
    /// Self-joins only. `None` (the default) never sheds — backpressure
    /// blocks the dispatcher instead.
    pub shed_watermark: Option<usize>,
    /// Epoch-based coordinated checkpointing: inject a barrier every
    /// `interval` dispatched records and snapshot every joiner's window
    /// into the configured [`SnapshotStore`] (see [`crate::checkpoint`]).
    /// Durability only: a later run can restore from the store, while a
    /// joiner that crashes mid-run rebuilds from its replay buffer. `None`
    /// (the default) never checkpoints.
    pub checkpoint: Option<CheckpointConfig>,
    /// Rebuild the pipeline's state (joiner windows, routing partition,
    /// bistream sides) from the latest complete checkpoint in this store
    /// before streaming: source records the checkpoint already covers are
    /// skipped, the checkpointed window is re-dispatched index-only, and a
    /// persisted length partition overrides the configured strategy.
    /// `None` (the default) starts empty.
    pub restore_from: Option<Arc<dyn SnapshotStore>>,
    /// Batch the dispatcher → joiner edge: the dispatcher ships up to this
    /// many messages per joiner wire as one [`crate::msg::JoinMsg::Batch`]
    /// (one engine tuple, or one sequenced `Data` frame), and a joiner
    /// answers each with at most one batch of results, sent when the
    /// inbound batch ends.
    ///
    /// The dispatcher still stamps, sheds, buffers for replay and opens
    /// epochs record by record, so a barrier falls at the interval's exact
    /// record and travels alone; batches flush when full, before every
    /// barrier and at stream end — and on the cluster, or a topology with
    /// `faults` set, every [`stormlite::BATCH_MAX_FRAMES`] source records,
    /// so a fault's message seq names the same batch on both engines —
    /// and unpack in order at the joiner.
    /// Results, recovery and checkpoints match unbatched runs; a topology
    /// batch is one `Execute` span and advances the replay watermark once.
    /// `None` and `Some(1)` send messages singly; of the `recommended`
    /// configurations only [`crate::cluster::ClusterConfig::recommended`]
    /// batches, at [`stormlite::BATCH_MAX_FRAMES`].
    pub dispatch_batch: Option<usize>,
    /// Injected faults, keyed on each task's message seq (see
    /// [`crate::fault`]). Both engines honour a crash; only the cluster's
    /// wires can honour an outage window, and the topology refuses one by
    /// name. Empty (the default) arms none of the recovery machinery a
    /// fault needs.
    pub faults: Vec<Fault>,
}

impl JoinSpec {
    /// The paper's default setup: length-based routing (load-aware,
    /// calibrated on the first 10k records) and the bundle join, with no
    /// shedding, checkpointing, restore, batching or faults.
    pub fn recommended(k: usize, join: JoinConfig) -> Self {
        Self {
            k,
            join,
            local: LocalAlgo::bundle(),
            strategy: Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 10_000,
            },
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            dispatch_batch: None,
            faults: Vec::new(),
        }
    }
}

/// How the stormlite topology runs a [`JoinSpec`].
#[derive(Debug, Clone)]
pub struct DistributedJoinConfig {
    /// The join to run.
    pub spec: JoinSpec,
    /// Per-joiner input queue depth (backpressure), in engine messages:
    /// with [`JoinSpec::dispatch_batch`] set to `b`, a full queue holds up
    /// to `b` times as many records.
    pub channel_capacity: usize,
    /// Pace the source to this many records per second (`None` = as fast
    /// as the pipeline accepts; used by the latency experiments).
    pub source_rate: Option<f64>,
    /// How the topology executes: [`Scheduler::Threads`] (the default) runs
    /// one OS thread per task; [`Scheduler::Sim`] runs the whole topology
    /// single-threaded under a virtual clock with a seeded interleaving, so
    /// the same seed replays the exact same run (see [`stormlite::sim`]).
    /// Simulated runs report virtual-time latencies and are incompatible
    /// with `source_rate` (pacing sleeps on the wall clock).
    pub scheduler: Scheduler,
    /// Structured event tracing, the run's only per-stage record: every
    /// task records pipeline events (dispatch → route → deliver →
    /// index → verify → emit, plus barrier/checkpoint/shed) into bounded
    /// rings, collected into [`DistributedJoinResult::trace`]. Barrier
    /// stalls and epoch latencies are also in the [`RunReport`], and
    /// result latencies in [`DistributedJoinResult::latency`], whether
    /// traced or not. Timestamps come from the scheduler clock, so a
    /// simulated run's trace is byte-identical per seed; instrumentation
    /// draws no randomness and never advances the clock, so transcripts
    /// and results are unchanged by enabling it. `None` (the default)
    /// records nothing and costs nothing.
    pub trace: Option<TraceConfig>,
}

impl DistributedJoinConfig {
    /// [`JoinSpec::recommended`] on threads, with no pacing or tracing.
    pub fn recommended(k: usize, join: JoinConfig) -> Self {
        Self::new(JoinSpec::recommended(k, join))
    }

    /// Runs `spec` on threads with queues of 1 024 messages, and no
    /// pacing or tracing.
    pub fn new(spec: JoinSpec) -> Self {
        Self {
            spec,
            channel_capacity: 1024,
            source_rate: None,
            scheduler: Scheduler::Threads,
            trace: None,
        }
    }

    /// Enables epoch-based coordinated checkpointing (see
    /// [`JoinSpec::checkpoint`]).
    pub fn with_checkpointing(mut self, checkpoint: CheckpointConfig) -> Self {
        self.spec.checkpoint = Some(checkpoint);
        self
    }

    /// Batches the dispatcher → joiner edge at this size (see
    /// [`JoinSpec::dispatch_batch`]).
    pub fn with_dispatch_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "dispatch batch size must be at least 1");
        self.spec.dispatch_batch = Some(batch);
        self
    }

    /// Runs the topology under deterministic simulation with the given
    /// interleaving seed (see [`Self::scheduler`]).
    pub fn with_sim(mut self, seed: u64) -> Self {
        self.scheduler = Scheduler::Sim(SimConfig::seeded(seed));
        self
    }

    /// Enables structured tracing (see [`Self::trace`]).
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
    /// Latency from dispatch to publication at the joiner, one sample per
    /// pair.
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
    /// [`JoinSpec::shed_watermark`] was set and overload actually
    /// occurred.
    pub shed_records: Vec<u64>,
    /// When the run restored from a checkpoint
    /// ([`JoinSpec::restore_from`] with a complete epoch
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
    /// single task's busy time — a joiner's, since the dispatcher spout
    /// records none (DESIGN §12). On a genuinely parallel machine the
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

    /// Joiner load imbalance: max/avg of per-joiner busy time — how long
    /// each joiner thread was runnable, not the work it did. The two part
    /// once joiners share vCPUs: a thread waiting for a core still counts
    /// as busy, so on a host with fewer cores than joiners this ratio
    /// understates a skewed split. For work, price each joiner's exact
    /// counters as `tests/partition_balance.rs` does (messages, posting
    /// hits, verifications and merge steps at the cost model's weights).
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
    run_topology(Input::SelfJoin(records), cfg)
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
    run_topology(Input::Bistream(left, right), cfg)
}

/// What a run joins: one stream with itself, or two streams against each
/// other, merged into one arrival order by record id.
#[derive(Clone, Copy)]
pub(crate) enum Input<'a> {
    SelfJoin(&'a [Record]),
    Bistream(&'a [Record], &'a [Record]),
}

impl<'a> Input<'a> {
    /// The records past `cut` and how many there are. Ids ascend, so the
    /// cut is a binary search on each stream.
    fn arrivals(self, cut: Option<u64>) -> (Arrivals<'a>, usize) {
        let past = |s: &'a [Record]| &s[cut.map_or(0, |c| s.partition_point(|r| r.id().0 <= c))..];
        match self {
            Input::SelfJoin(records) => {
                let records = past(records);
                (Box::new(records.iter().map(|r| (None, r))), records.len())
            }
            Input::Bistream(left, right) => {
                let (left, right) = (past(left), past(right));
                let merged = merge_streams(left, right).map(|(side, r)| (Some(side), r));
                (Box::new(merged), left.len() + right.len())
            }
        }
    }
}

/// Input records in arrival order, each with its side.
type Arrivals<'a> = Box<dyn Iterator<Item = (Option<Side>, &'a Record)> + Send + 'a>;

/// Everything [`JoinSpec::assemble`] builds for one run; each engine wires
/// it into its own run-time.
pub(crate) struct Assembly<'a> {
    /// The source stream, lazy: restore tuples (index-only) first, then
    /// each input record the restored cut does not cover, cloned only as
    /// the dispatcher pulls it.
    pub(crate) source: Box<dyn Iterator<Item = JoinMsg> + Send + 'a>,
    /// Streamed records, restore tuples excluded: what rates divide by.
    pub(crate) records: usize,
    pub(crate) bistream: bool,
    pub(crate) dispatcher: Dispatcher<Box<dyn Router + Send>>,
    /// Whether joiners must run the replicating routers' dedup rule.
    pub(crate) needs_dedup: bool,
    pub(crate) recovery: Option<Arc<RecoveryState>>,
    pub(crate) coordinator: Option<Arc<CheckpointCoordinator>>,
    pub(crate) restored: Restored,
}

/// What a restore resumed from.
#[derive(Default)]
pub(crate) struct Restored {
    /// The restored epoch's cut id; `None` when nothing was restored.
    pub(crate) cut: Option<u64>,
    /// What the scan of the restore store rejected: the run's only storage
    /// integrity counters.
    pub(crate) integrity: IntegrityReport,
}

impl JoinSpec {
    /// The run set-up both engines share, so that for the same input they
    /// route, shed, checkpoint and restore identically — the precondition
    /// of every cross-engine differential test. `can_lose_state` says
    /// whether the engine can lose a joiner's state mid-run: replay buffers
    /// are kept exactly then.
    ///
    /// Restore is *verified*: epochs whose manifest or parts fail their
    /// CRC32C check are quarantined and the walk falls back to the newest
    /// fully-verified earlier epoch (counted in [`Restored::integrity`]).
    /// When every epoch is corrupt nothing is restored — the full source
    /// streams from scratch, which recomputes the exact result rather than
    /// trusting rotten state.
    pub(crate) fn assemble<'a>(&self, input: Input<'a>, can_lose_state: bool) -> Assembly<'a> {
        assert!(self.k >= 1, "need at least one joiner");
        let threshold = self.join.threshold;
        let bistream = matches!(input, Input::Bistream(..));

        let mut strategy = self.strategy.clone();
        let mut restored = Restored::default();
        let mut image = None;
        if let Some(store) = &self.restore_from {
            let scan = load_latest_verified(store.as_ref())
                .expect("restore store cannot enumerate its epochs");
            restored.integrity = scan.integrity();
            if let Some(mut found) = scan.image {
                assert_eq!(found.k, self.k, "checkpoint was taken with a different k");
                assert_eq!(
                    found.bistream, bistream,
                    "checkpoint topology shape (bistream) mismatch"
                );
                if let Some(partition) = found.partition.take() {
                    strategy = Strategy::Length(partition);
                }
                image = Some(found);
            }
        }

        // A calibrated partition comes from the head of the arrival order,
        // restored or not.
        let router: Box<dyn Router + Send> = match strategy {
            Strategy::Length(partition) => {
                assert_eq!(partition.k(), self.k, "partition/k mismatch");
                Box::new(LengthRouter::new(threshold, partition))
            }
            Strategy::LengthAuto { method, sample } => {
                let head = input.arrivals(None).0.take(sample.max(1));
                let partition =
                    calibrate_partition(head.map(|(_, r)| r), threshold, self.k, method);
                Box::new(LengthRouter::new(threshold, partition))
            }
            Strategy::Prefix => Box::new(PrefixRouter::new(threshold, self.k)),
            Strategy::Broadcast => Box::new(BroadcastRouter::new(self.k)),
        };

        // The restore surgery: records the image covers are skipped, and its
        // window re-enters through the dispatcher as index-only tuples (in id
        // order, ahead of all new records), so any router — replicating ones
        // and a persisted partition included — places them exactly as a
        // live run would have. The stamp is a placeholder — the dispatcher
        // re-stamps every record with the run clock when it first sees it,
        // so latency measures dispatch-to-result on whichever clock the
        // engine runs — and so is the live kind: the dispatcher tells only
        // a restore tuple (`Index`) apart, and sends each target what
        // routing decides.
        let msg = |(side, record)| RecordMsg {
            record,
            ingest: Timestamp::ZERO,
            side,
        };
        restored.cut = image.as_ref().map(|image| image.cut_id);
        let (live, records) = input.arrivals(restored.cut);
        let live = live.map(move |(side, r)| JoinMsg::ProbeAndIndex(msg((side, r.clone()))));
        let window = image.map(|image| image.window).unwrap_or_default();
        let source = Box::new(window.into_iter().map(msg).map(JoinMsg::Index).chain(live));

        let recovery =
            can_lose_state.then(|| Arc::new(RecoveryState::new(self.k, self.join.window)));
        let coordinator = self.checkpoint.as_ref().map(|cp| {
            let coordinator = CheckpointCoordinator::new(self.k, cp);
            Arc::new(coordinator.expect("checkpoint store unavailable"))
        });
        let needs_dedup = router.needs_result_dedup();
        let dispatcher = Dispatcher::new(
            router,
            bistream,
            recovery.clone(),
            coordinator.clone(),
            self.shed_watermark,
            self.dispatch_batch,
        );
        Assembly {
            source,
            records,
            bistream,
            dispatcher,
            needs_dedup,
            recovery,
            coordinator,
            restored,
        }
    }
}

fn run_topology(input: Input<'_>, cfg: &DistributedJoinConfig) -> DistributedJoinResult {
    assert!(
        !(matches!(cfg.scheduler, Scheduler::Sim(_)) && cfg.source_rate.is_some()),
        "source_rate paces on the wall clock and cannot run under simulation"
    );
    let spec = &cfg.spec;
    // Refused before anything runs: a window fault needs a wire. A
    // crashed joiner's published results live in a slot that outlives
    // its incarnations.
    let plan = crate::fault::topology_plan(&spec.faults).unwrap_or_else(|why| panic!("{why}"));
    let mut run = spec.assemble(input, !plan.is_empty());
    // A fault's message seq must name the batch the cluster would send.
    run.dispatcher.framing = !plan.is_empty();
    let (bistream, needs_dedup) = (run.bistream, run.needs_dedup);
    let (recovery, coordinator) = (run.recovery, run.coordinator);
    let store_writer = coordinator.clone();

    // One result slot per joiner task, so the joiners never contend on a
    // lock or grow one shared vector; a rebuilt incarnation keeps
    // appending to its task's slot. Each slot's vector is first allocated
    // here, on the thread that merges and frees it, because `realloc`
    // keeps a growing vector in the allocator arena it started in; grown
    // from empty on a joiner thread, it lands in a different per-thread
    // arena each run and stays resident there once freed (DESIGN §12).
    let slots: Vec<Arc<Mutex<SinkState>>> = (0..spec.k)
        .map(|_| {
            let pairs = Vec::with_capacity(SLOT_CAPACITY);
            Arc::new(Mutex::new(SinkState {
                pairs,
                ..SinkState::default()
            }))
        })
        .collect();
    let snapshots: Arc<Mutex<Vec<JoinerSnapshot>>> = Arc::new(Mutex::new(Vec::new()));

    // Observability: one sink collects every task's event ring. It exists
    // only when tracing is configured — disabled runs carry no tracer.
    let trace_sink = cfg.trace.as_ref().map(|tc| (TraceSink::new(), tc.clone()));

    let mut topology: Topology<JoinMsg> =
        Topology::new().with_channel_capacity(cfg.channel_capacity);
    if let Some((sink, tc)) = &trace_sink {
        topology = topology.with_tracing(sink.clone(), tc.clone());
    }
    topology = topology.with_fault_plan(plan);
    // The dispatcher is the topology's source: its one task pulls the
    // assembled stream and routes each record as it pulls it.
    let shed_log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let dispatcher = DispatcherBolt::new(run.dispatcher, Arc::clone(&shed_log));
    match cfg.source_rate {
        Some(rate) => topology.spout_into(
            "dispatcher",
            crate::pace::PacedIter::new(run.source, rate),
            dispatcher,
        ),
        None => topology.spout_into("dispatcher", run.source, dispatcher),
    }

    let (join_cfg, local, k) = (spec.join, spec.local, spec.k);
    let (snaps, task_slots) = (Arc::clone(&snapshots), slots.clone());
    topology.bolt("joiner", k, move |task| {
        JoinerBolt::new(
            Joiner::new(local, join_cfg, bistream, needs_dedup.then_some((k, task))),
            task,
            Arc::clone(&snaps),
            Arc::clone(&task_slots[task]),
            recovery.clone(),
            coordinator.clone(),
        )
    });

    topology.wire("dispatcher", "joiner", Grouping::direct());

    let (mut report, transcript) = match cfg.scheduler {
        Scheduler::Sim(sim_cfg) => {
            let run = topology.run_sim(sim_cfg);
            (run.report, Some(run.transcript))
        }
        Scheduler::Threads => (topology.run_with(Scheduler::Threads), None),
    };
    if let Some(coordinator) = &store_writer {
        coordinator.finish();
    }
    report.integrity.merge(&run.restored.integrity);
    let wall = report.elapsed;

    let (pairs, latency) = merge_slots(&slots);
    let mut joiners = std::mem::take(&mut *snapshots.lock());
    joiners.sort_by_key(|s| s.task);

    let shed_records = std::mem::take(&mut *shed_log.lock());
    debug_assert_eq!(shed_records.len() as u64, report.shed());

    let trace = trace_sink.map(|(sink, _)| sink.collect());

    DistributedJoinResult {
        pairs,
        latency,
        report,
        joiners,
        records: run.records,
        wall,
        shed_records,
        restored_cut: run.restored.cut,
        transcript,
        trace,
    }
}

/// Result pairs a joiner's slot holds before its vector first grows.
const SLOT_CAPACITY: usize = 1024;

/// Every slot's pairs in one vector, and their latencies in one
/// histogram. The largest slot's vector is adopted and the others are
/// appended to it, so the merge copies the fewest pairs.
fn merge_slots(slots: &[Arc<Mutex<SinkState>>]) -> (Vec<MatchPair>, LatencyHistogram) {
    let mut slots: Vec<SinkState> = slots
        .iter()
        .map(|s| std::mem::take(&mut *s.lock()))
        .collect();
    let mut latency = LatencyHistogram::new();
    slots.iter().for_each(|s| latency.merge(&s.latency));
    let total: usize = slots.iter().map(|s| s.pairs.len()).sum();
    let largest = (0..slots.len()).max_by_key(|&t| slots[t].pairs.len());
    let mut pairs = largest.map_or_else(Vec::new, |t| std::mem::take(&mut slots[t].pairs));
    pairs.reserve_exact(total - pairs.len());
    slots.iter().for_each(|s| pairs.extend_from_slice(&s.pairs));
    (pairs, latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SnapshotStore;
    use crate::fault::FaultKind;
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

    /// `k` joiners running `local` under `strategy`, on threads behind
    /// queues of `channel_capacity` messages.
    fn config(
        k: usize,
        join: JoinConfig,
        local: LocalAlgo,
        strategy: Strategy,
        channel_capacity: usize,
    ) -> DistributedJoinConfig {
        let spec = JoinSpec {
            local,
            strategy,
            ..JoinSpec::recommended(k, join)
        };
        DistributedJoinConfig {
            channel_capacity,
            ..DistributedJoinConfig::new(spec)
        }
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

    /// A source message as the tests compare it: kind, side and record.
    fn pulled(msg: JoinMsg) -> (&'static str, Option<Side>, Record) {
        let kind = match msg {
            JoinMsg::Index(_) => "index",
            JoinMsg::ProbeAndIndex(_) => "probe+index",
            _ => "other",
        };
        let payload = msg.payload().expect("source messages carry records");
        (kind, payload.side, payload.record.clone())
    }

    #[test]
    fn the_lazy_source_pulls_what_was_materialised() {
        use crate::checkpoint::MemStore;
        let records = workload(400, 0.3);
        let (left, right) = split_workload(400);
        let join = JoinConfig::jaccard(0.7).with_window(Window::Count(100));
        let sample = 5;
        for bistream in [false, true] {
            // The arrival order, built without `merge_streams`: every
            // record with its side, by id.
            let mut arrivals: Vec<(Option<Side>, &Record)> = if bistream {
                let left = left.iter().map(|r| (Some(Side::Left), r));
                left.chain(right.iter().map(|r| (Some(Side::Right), r)))
                    .collect()
            } else {
                records.iter().map(|r| (None, r)).collect()
            };
            arrivals.sort_by_key(|(_, r)| r.id());
            for restore in [false, true] {
                let what = format!("bistream {bistream}, restore {restore}");
                let mut spec = JoinSpec::recommended(3, join);
                spec.strategy = Strategy::LengthAuto {
                    method: PartitionMethod::LoadAware,
                    sample,
                };
                if restore {
                    // Phase one checkpoints the first 250 ids, then dies.
                    let store: Arc<dyn SnapshotStore> = Arc::new(MemStore::new());
                    let cfg = DistributedJoinConfig::new(spec.clone())
                        .with_checkpointing(CheckpointConfig::new(40, Arc::clone(&store)));
                    let head = |s: &[Record]| -> Vec<Record> {
                        s.iter().filter(|r| r.id().0 < 250).cloned().collect()
                    };
                    match bistream {
                        true => run_bistream_distributed(&head(&left), &head(&right), &cfg),
                        false => run_distributed(&head(&records), &cfg),
                    };
                    spec.restore_from = Some(store);
                }
                let image = spec.restore_from.as_ref().map(|store| {
                    let scan = load_latest_verified(store.as_ref()).unwrap();
                    scan.image.expect("phase one committed an epoch")
                });
                // What `assemble` used to materialise: the image's window as
                // restore tuples in id order, then every arrival past the cut.
                let cut = image.as_ref().map(|image| image.cut_id);
                let window = image.iter().flat_map(|image| &image.window);
                let mut want: Vec<_> = window
                    .map(|(side, r)| ("index", *side, r.clone()))
                    .collect();
                let restored = want.len();
                assert_eq!(restored > 0, restore, "{what}");
                let live = arrivals
                    .iter()
                    .filter(|(_, r)| cut.is_none_or(|c| r.id().0 > c));
                want.extend(live.map(|&(side, r)| ("probe+index", side, r.clone())));

                let input = match bistream {
                    true => Input::Bistream(&left, &right),
                    false => Input::SelfJoin(&records),
                };
                let run = spec.assemble(input, false);
                let calibrate = |skip| {
                    let head = arrivals.iter().skip(skip).take(sample).map(|&(_, r)| r);
                    calibrate_partition(head, join.threshold, 3, PartitionMethod::LoadAware)
                };
                let calibrated = calibrate(0);
                // The check can tell the head from the head shifted by one.
                assert_ne!(calibrate(1), calibrated, "{what}");
                assert_eq!(
                    run.dispatcher.router.length_partition(),
                    Some(&calibrated),
                    "{what}"
                );
                assert_eq!(run.records, want.len() - restored, "{what}");
                assert_eq!(run.source.map(pulled).collect::<Vec<_>>(), want, "{what}");
            }
        }
    }

    #[test]
    fn length_strategy_matches_ground_truth() {
        let records = workload(800, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let expect = ground_truth(&records, join);
        for local in [LocalAlgo::AllPairs, LocalAlgo::PpJoin, LocalAlgo::bundle()] {
            let cfg = config(
                4,
                join,
                local,
                Strategy::LengthAuto {
                    method: PartitionMethod::LoadAware,
                    sample: 200,
                },
                256,
            );
            assert_eq!(run_keys(&records, &cfg), expect, "local={}", local.name());
        }
    }

    #[test]
    fn prefix_strategy_matches_ground_truth_with_exact_dedup() {
        let records = workload(600, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let expect = ground_truth(&records, join);
        let cfg = config(4, join, LocalAlgo::PpJoin, Strategy::Prefix, 256);
        assert_eq!(run_keys(&records, &cfg), expect);
    }

    #[test]
    fn broadcast_strategy_matches_ground_truth() {
        let records = workload(600, 0.3);
        let join = JoinConfig::jaccard(0.7);
        let expect = ground_truth(&records, join);
        let cfg = config(3, join, LocalAlgo::AllPairs, Strategy::Broadcast, 256);
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
            let cfg = config(4, join, LocalAlgo::PpJoin, strategy, 128);
            assert_eq!(run_keys(&records, &cfg), expect);
        }
    }

    #[test]
    fn length_strategy_never_replicates() {
        let records = workload(500, 0.2);
        let cfg = config(
            4,
            JoinConfig::jaccard(0.8),
            LocalAlgo::PpJoin,
            Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
            256,
        );
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
        let mk = |strategy| config(8, join, LocalAlgo::PpJoin, strategy, 256);
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
        let cfg = config(
            1,
            join,
            LocalAlgo::bundle(),
            Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 50,
            },
            64,
        );
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
        let mut j = BiStreamJoiner::new(|| NaiveJoiner::new(join));
        let mut keys: Vec<_> = run_bistream(&mut j, merge_streams(left, right))
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
            let cfg = config(4, join, local, strategy, 128);
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
        let cfg = config(
            3,
            join,
            LocalAlgo::PpJoin,
            Strategy::LengthAuto {
                method: PartitionMethod::EqualDepth,
                sample: 80,
            },
            64,
        );
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
            let cfg = faulted(
                config(4, join, LocalAlgo::PpJoin, strategy, 128),
                &[Fault::crash(1, 40)],
            );
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
        let strategy = Strategy::LengthAuto {
            method: PartitionMethod::EqualDepth,
            sample: 150,
        };
        // Task 0 dies twice; task 2 dies once, before any input.
        let cfg = faulted(
            config(3, join, LocalAlgo::bundle(), strategy, 128),
            &[
                Fault::crash(0, 30),
                Fault::crash(0, 120),
                Fault::crash(2, 0),
            ],
        );
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
        let strategy = Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 100,
        };
        let cfg = faulted(
            config(3, join, LocalAlgo::PpJoin, strategy, 64),
            &[Fault::crash(0, 50)],
        );
        let out = run_bistream_distributed(&left, &right, &cfg);
        assert_eq!(run_keys_of(&out), expect);
        assert_eq!(out.report.total_restarts(), 1);
    }

    #[test]
    fn fault_free_run_with_plan_absent_has_no_recovery_metadata() {
        let records = workload(300, 0.3);
        let cfg = DistributedJoinConfig::recommended(2, JoinConfig::jaccard(0.8));
        assert!(cfg.spec.faults.is_empty());
        let result = run_distributed(&records, &cfg);
        assert_eq!(result.report.total_restarts(), 0);
        assert!(result.joiners.iter().all(|j| j.incarnation == 0));
        assert!(result.joiners.iter().all(|j| j.replayed == 0));
    }

    #[test]
    fn the_topology_refuses_every_window_fault_by_name() {
        let records = workload(50, 0.2);
        for kind in [
            FaultKind::Stall { len: 1 },
            FaultKind::Partition {
                len: 1,
                two_way: true,
            },
            FaultKind::Corrupt {
                len: 1,
                inbound: false,
            },
        ] {
            let fault = Fault {
                task: 0,
                after: 5,
                kind,
            };
            let cfg = faulted(
                DistributedJoinConfig::recommended(2, JoinConfig::jaccard(0.8)),
                &[fault],
            );
            let run = std::panic::AssertUnwindSafe(|| run_distributed(&records, &cfg));
            let refused = std::panic::catch_unwind(run).unwrap_err();
            let msg = refused
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            let name = kind.name();
            assert_eq!(
                msg,
                format!("fault {name} needs a wire; the topology engine honours only Crash")
            );
        }
    }

    /// `cfg` with `faults` injected.
    fn faulted(mut cfg: DistributedJoinConfig, faults: &[Fault]) -> DistributedJoinConfig {
        cfg.spec.faults = faults.to_vec();
        cfg
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
        let mut cfg = config(
            2,
            join,
            LocalAlgo::Naive,
            Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
            8,
        );
        cfg.spec.shed_watermark = Some(4);
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
            let cfg = faulted(
                config(3, join, LocalAlgo::PpJoin, strategy, 32),
                &[Fault::crash(1, 100)],
            )
            .with_checkpointing(CheckpointConfig::in_memory(16));
            let result = run_distributed(&records, &cfg);
            assert_eq!(run_keys_of(&result), expect, "{name}");
            assert_eq!(result.report.total_restarts(), 1, "{name}");
            assert!(
                result.report.checkpoints() > 0,
                "{name}: no epoch published"
            );
            assert!(
                result.joiners[1].replayed > 0,
                "{name}: the restarted joiner replayed nothing after 100 tuples"
            );
        }
    }

    #[test]
    fn restore_from_file_store_resumes_exactly() {
        use crate::checkpoint::FileStore;
        let dir = std::env::temp_dir().join(format!("ssj-restore-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let records = workload(700, 0.3);
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.7),
            window: Window::Count(120),
        };
        let base = config(
            3,
            join,
            LocalAlgo::PpJoin,
            Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
            64,
        );

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
        let mut phase2 = base.clone();
        phase2.spec.restore_from = Some(Arc::new(FileStore::open(&dir).unwrap()));
        let restored = run_distributed(&records, &phase2);
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
        let cfg = DistributedJoinConfig::recommended(3, join)
            .with_checkpointing(CheckpointConfig::in_memory(40))
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
            DistributedJoinConfig::recommended(3, join)
                .with_checkpointing(CheckpointConfig::in_memory(40))
                .with_sim(7)
        };

        let a = run_distributed(&records, &base().with_trace(TraceConfig::default()));
        let b = run_distributed(&records, &base().with_trace(TraceConfig::default()));
        let ta = obs::trace_jsonl(a.trace.as_ref().expect("trace enabled"));
        let tb = obs::trace_jsonl(b.trace.as_ref().expect("trace enabled"));
        assert_eq!(ta, tb, "same seed must render a byte-identical trace");
        assert!(!ta.is_empty());
        // The full pipeline shows up: the dispatcher's pulls, routing,
        // delivery, joiner execution, index/verify, results, and
        // checkpoint barriers.
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
        // The trace is the per-stage record: every record was routed, the
        // joiners probed and indexed, and published one emit per pair.
        let trace = a.trace.as_ref().expect("trace enabled");
        assert_eq!(trace.dropped(), 0);
        let events = || trace.tasks.iter().flat_map(|t| &t.events);
        let count = |stage| events().filter(|e| e.stage == stage).count();
        assert_eq!(count(obs::Stage::Emit), a.pairs.len());
        assert!(count(obs::Stage::Route) >= 300);
        for stage in [obs::Stage::Index, obs::Stage::Verify, obs::Stage::Barrier] {
            assert!(count(stage) > 0, "no {} event", stage.name());
        }

        // Observation only: the untraced run has the identical transcript,
        // results, and report counters.
        let c = run_distributed(&records, &base());
        assert_eq!(
            a.transcript, c.transcript,
            "tracing must not perturb the schedule"
        );
        assert_eq!(run_keys_of(&a), run_keys_of(&c));
        assert!(c.trace.is_none());
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
                let mut cfg =
                    DistributedJoinConfig::recommended(4, join).with_dispatch_batch(batch);
                cfg.spec.local = local;
                assert_eq!(
                    run_keys(&records, &cfg),
                    expect,
                    "local={} batch={batch}",
                    local.name()
                );
            }
        }

        // A result-heavy stream, where the joiners publish several times as
        // many pairs as they receive records: what a crashed joiner
        // published must survive it, on a replayable schedule. (The aol profile's very short records over
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
            let cfg = faulted(
                DistributedJoinConfig::recommended(4, join),
                &[Fault::crash(1, 3)],
            )
            .with_dispatch_batch(batch)
            .with_sim(batch as u64);
            let result = run_distributed(&records, &cfg);
            assert_eq!(run_keys_of(&result), expect, "aol batch={batch}");
            assert_eq!(result.report.total_restarts(), 1, "aol batch={batch}");
            assert_eq!(result.latency.count(), expect.len() as u64);
        }
    }

    #[test]
    fn batched_sim_run_matches_unbatched() {
        let records = workload(500, 0.3);
        let join = JoinConfig::jaccard(0.7);
        // Fresh in-memory store per run (see the trace determinism test).
        let base = || {
            DistributedJoinConfig::recommended(3, join)
                .with_checkpointing(CheckpointConfig::in_memory(40))
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
        let cfg = faulted(
            config(3, join, LocalAlgo::PpJoin, Strategy::Prefix, 32),
            &[Fault::crash(1, 100)],
        )
        .with_checkpointing(CheckpointConfig::in_memory(16))
        .with_dispatch_batch(8);
        let result = run_distributed(&records, &cfg);
        assert_eq!(run_keys_of(&result), expect);
        assert_eq!(result.report.total_restarts(), 1);
        assert!(result.report.checkpoints() > 0);
    }
}
