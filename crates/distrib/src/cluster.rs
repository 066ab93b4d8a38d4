//! Real-cluster execution: k joiner processes over sockets, one launcher.
//!
//! [`run_cluster`] / [`run_cluster_bistream`] run the same logical
//! topology as [`crate::driver::run_distributed`] — source → dispatcher →
//! k joiners → sink — but split it at the process boundary: the launcher
//! keeps the source, the dispatcher (router, shed watermark, recovery
//! buffers, checkpoint coordinator) and the sink, while each joiner runs
//! behind one [`stormlite::Wire`]. The dispatch and join algorithms are
//! the ones the topology runs (the crate's `operators` module); this is the
//! run-time around them — sequenced sessions, retransmission,
//! supervision. Two backends are interchangeable:
//!
//! * [`ClusterBackend::InProcess`] — joiners are threads behind channel
//!   wires. Same protocol, no sockets; this is the reference the TCP
//!   backend is differentially tested against.
//! * [`ClusterBackend::Tcp`] — joiners are real `ssj-node` OS processes
//!   connected over localhost TCP (ephemeral ports, see
//!   [`stormlite::listen_loopback`]).
//!
//! # The at-least-once protocol, over the wire
//!
//! A `Data{seq, msg}` frame is one sequenced unit with a per-connection
//! sequence number. It carries either one routed [`JoinMsg`] or, with
//! [`ClusterConfig::dispatch_batch`] set, one [`JoinMsg::Batch`] of up to
//! that many record-bearing messages for this wire in dispatch order —
//! encoded once, sealed with one CRC, tracked by one `unacked` entry and
//! one retransmit timer. Barriers always travel alone: the dispatcher
//! flushes its pending batches ahead of every barrier.
//!
//! A node processes frames in strict `seq` order (buffering out-of-order
//! arrivals, re-acking retransmissions of already-processed sequence
//! numbers). It answers a batch with at most one `Results` frame (all of
//! the batch's pairs, in probe order; nothing when there were none) and a
//! message that arrived outside a batch result by result, one `Result`
//! frame per pair; either way every result/snapshot frame a unit produces
//! is written *before* its single `Ack{seq}` on the same FIFO stream, and
//! the launcher retransmits unacked frames on a backoff timer built from
//! [`stormlite::RetryConfig`]. Because acks follow results in FIFO order,
//! a received ack proves every result of everything that frame carried
//! arrived; conversely any lost output suffix corresponds to unacked
//! frames, which are reprocessed after recovery — producing
//! byte-identical duplicate results the launcher's sink drops by pair
//! key. The net effect is effectively-once output. This is the one
//! seq/ack/retry/dedup layer in the workspace — a topology's in-process
//! wires are reliable FIFO channels and need none — and a frame more than
//! [`NODE_INBOUND_CAP`] ahead of a node's cursor is a protocol error, so a
//! gap the peer never fills cannot grow the reorder buffer without bound.
//!
//! # What is counted in messages, and what in frames
//!
//! Batching changes how many frames move, not what the knobs mean:
//!
//! * the in-flight bound ([`ClusterConfig::channel_capacity`]) and the
//!   backlog the shed watermark reads count routed *messages*, a batch
//!   counting its length — so `shed_watermark` and memory keep their
//!   scale, and one batch may overshoot the bound by less than its length;
//! * [`ClusterFault::after_acks`] counts acknowledged *messages*, so a
//!   kill horizon lands at the same stream position batched or not;
//! * the recovery watermark moves once per ack, to the last record the
//!   acked frame carried;
//! * fencing sheds *every* record inside an in-flight batch, and inside a
//!   batch refused because its target was fenced meanwhile;
//! * [`ClusterOutage`] windows keep counting frame *transmissions* — one
//!   per batch.
//!
//! [`ClusterResult::routed_messages`] ÷ [`ClusterResult::data_frames`] is
//! what batching amortised.
//!
//! # Crash recovery
//!
//! When a node dies (supervised [`ClusterFault`] kill, or a socket
//! failure), the launcher consumes whatever the node managed to deliver —
//! TCP hands over the written prefix in order, so every ack, result and
//! snapshot the node emitted before dying still counts — then restarts
//! the node, replays its lost index state over [`Frame::Restore`]
//! (checkpoint snapshot plus the replay-buffer tail, index-only exactly
//! like the in-process replay path) and retransmits the unacked frames in
//! their original order under their original sequence numbers — whole
//! batches, as first framed. The restored state equals the state after the
//! acked prefix, which always ends on a frame boundary, so reprocessing the
//! unacked suffix is bit-exact. A node that dies mid-batch has sent neither
//! that batch's `Results` nor its ack, so the batch is reprocessed whole:
//! the cost of a mid-batch death is at most one batch of repeated join
//! work per wire, and a `Results` frame that was delivered without its ack
//! comes again and is dropped pair by pair at the sink.
//!
//! # Backpressure → shedding
//!
//! The launcher bounds in-flight (sent-but-unacked) messages per wire at
//! `channel_capacity` — the cluster analogue of the in-process bounded
//! channel — and that in-flight count is the backlog the dispatcher's
//! shed watermark watches. While it waits for room on a wire it blocks on
//! *that* wire's inbound side, so the ack it needs wakes it. On the
//! node side the TCP receive queue is bounded too: a full queue stops the
//! socket reader, which closes the kernel receive window, so pressure is
//! real end to end.
//!
//! # Who flushes a wire, and when
//!
//! [`Wire::send`] only queues a frame in the wire's write batch (see the
//! flush contract in [`stormlite::transport`]); the launcher decides when
//! a batch becomes a `write(2)`, and it never flushes per record:
//!
//! * the batcher flushes itself at [`stormlite::BATCH_MAX_FRAMES`] frames
//!   or [`stormlite::BATCH_MAX_BYTES`] bytes — the steady state on a busy
//!   link;
//! * every launcher path that is about to *wait* flushes all links first:
//!   the in-flight backpressure spin, the drain and end-of-stream loops
//!   (every `pump` with a non-zero idle wait), respawn/restore, `Eos`;
//! * at least once every `BATCH_MAX_FRAMES` dispatched source records the
//!   dispatcher's pending batches are framed and all links are flushed, so
//!   a message on a sparsely-routed link is never older than ~32 records'
//!   dispatch time — microseconds to a few milliseconds, far inside the
//!   40 ms base retransmission timeout, so batching can never be mistaken
//!   for loss. The launcher's housekeeping (poll every wire, retransmit
//!   timers, failure detector) runs at the same points, not per record;
//! * pending batches are also framed ahead of every barrier and before the
//!   end-of-stream drain, so no message is stranded behind either;
//! * heartbeats bypass all of this and flush immediately: a probe exists
//!   to make an idle-but-alive wire visible *now*, and the detector's
//!   latency bound assumes it left when it was stamped.
//!
//! Nodes follow the same rule from the other side: `node_serve` flushes
//! its results and acks whenever its inbound queue runs empty. The
//! coalescing this buys is reported as [`ClusterResult::frames_sent`] ÷
//! [`ClusterResult::wire_flushes`].
//!
//! # Determinism over real sockets — what holds and what cannot
//!
//! With [`ClusterConfig::logical_time`] set, ingest/barrier stamps come
//! from a logical counter instead of the wall clock, and each wire's
//! *outbound data stream* (first transmissions, in sequence order) is
//! byte-deterministic for a fixed input — [`ClusterResult::wire_digests`]
//! captures it and the golden-transcript test pins it. Everything beyond
//! that outbound stream is **inherently nondeterministic over real
//! sockets**: OS scheduling of k processes interleaves result arrival
//! across wires, retransmission timers fire on real time, and wall-clock
//! latencies vary run to run. The determinism contract is therefore:
//! per-wire outbound frame bytes (under logical time) and the final
//! *result set* are exact; arrival order and timing metrics are not —
//! which is why every cross-process test compares sorted pair sets, never
//! transcripts of arrival.

use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::{Event, LatencyHistogram, MetricsSnapshot, Stage, StageProfile};
use ssj_core::join::bistream::merge_streams;
use ssj_core::snapshot::{decode_window_slice, encode_window_vec, SnapshotEntry};
use ssj_core::{JoinConfig, MatchPair, Threshold};
use ssj_text::{FxHashSet, Record};
use stormlite::{
    ChaosLink, ChaosWindow, CloseReason, LinkFault, LinkOutage, RetryConfig, TcpWire, Timestamp,
    Wire, WireEvent,
};

use crate::bolts::JoinerSnapshot;
use crate::checkpoint::{CheckpointConfig, CheckpointCoordinator, SnapshotStore};
use crate::driver::{
    build_recovery, build_router, lost_state, prepare_restore, DistributedJoinConfig, LocalAlgo,
    Strategy,
};
use crate::msg::{JoinMsg, RecordMsg};
use crate::operators::{DispatchPort, Dispatched, Dispatcher, Joiner};
use crate::recovery::RecoveryState;
use crate::route::Router;
use crate::wire::{encode_data, send_frame, Frame, NodeConfig, NodeReport, PROTO_VERSION};

/// How joiner tasks are hosted.
#[derive(Debug, Clone)]
pub enum ClusterBackend {
    /// Joiners run as threads behind in-process channel wires — the
    /// reference backend every TCP run is differentially compared to.
    InProcess,
    /// Joiners run as `ssj-node` OS processes over localhost TCP.
    Tcp {
        /// Path to the `ssj-node` binary to spawn.
        node_bin: PathBuf,
    },
}

/// A supervised mid-run kill: the launcher kills joiner `task` once it
/// has acknowledged `after_acks` messages, then restarts it and replays —
/// the cluster analogue of [`stormlite::FaultPlan`]'s joiner crashes.
#[derive(Debug, Clone, Copy)]
pub struct ClusterFault {
    /// Which joiner task to kill.
    pub task: usize,
    /// Kill after this many acknowledged messages from that task (an
    /// acked batch counts its length).
    pub after_acks: u64,
}

/// Heartbeat-driven failure detection and bounded self-healing.
///
/// The launcher treats *any* inbound frame as a life sign, so a busy node
/// acking data never trips the detector; heartbeats only force traffic on
/// an otherwise idle wire. A wire silent for longer than `suspect_after`
/// is declared suspect and recovered (kill + respawn + session resume
/// under the original sequence numbers). The detector runs on the wall
/// clock even under [`ClusterConfig::logical_time`] — heartbeat frames
/// are never folded into wire digests, so detector timing cannot perturb
/// the deterministic outbound data stream.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Probe an idle wire with a [`Frame::Heartbeat`] this often.
    pub heartbeat_interval: Duration,
    /// Declare a node suspect after this long without any inbound frame.
    pub suspect_after: Duration,
    /// Respawns allowed per task before it is fenced and its partition is
    /// shed with exact recall accounting. `None` = recover forever.
    /// Fencing accounting is defined for self-joins only.
    pub recovery_budget: Option<u32>,
}

impl HealthConfig {
    /// Defaults tuned for localhost wires: probe every 25ms, suspect
    /// after 250ms of silence, never fence.
    pub fn recommended() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(25),
            suspect_after: Duration::from_millis(250),
            recovery_budget: None,
        }
    }
}

/// What a scripted [`ClusterOutage`] does to its wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageKind {
    /// Outbound frames freeze (lossless) for the window, then release.
    Stall,
    /// Outbound frames are dropped for the window; inbound still flows.
    PartitionOneWay,
    /// Both directions are cut: outbound drops, inbound is held (in
    /// order) until the window passes.
    PartitionTwoWay,
    /// Outbound (launcher→node) data frames in the window each have one
    /// bit flipped in flight. The node's frame checksum detects the
    /// mismatch and it dies with an error close, which the
    /// launcher heals exactly like a crash — corruption is a dropped
    /// frame with extra steps.
    Corrupt,
    /// Inbound (node→launcher) frames in the window each have one bit
    /// flipped just before the launcher parses them, exercising the
    /// launcher-side classified corruption path: discard the poisoned
    /// incarnation's remaining output, respawn, retransmit. The window is
    /// keyed on this wire's inbound frame ordinal.
    CorruptInbound,
}

/// A scripted outage on one launcher→joiner wire, keyed on that wire's
/// data-transmission ordinal so placement is deterministic across
/// schedulers and heartbeat cadences (see [`stormlite::ChaosWindow`]).
#[derive(Debug, Clone, Copy)]
pub struct ClusterOutage {
    /// The joiner task whose wire is disturbed.
    pub task: usize,
    /// The window opens after this many data transmissions on the wire.
    pub after: u64,
    /// The window covers this many subsequent transmissions.
    pub len: u64,
    /// Stall or partition.
    pub kind: OutageKind,
}

impl ClusterOutage {
    fn window(self) -> ChaosWindow {
        ChaosWindow {
            after: self.after,
            len: self.len,
        }
    }

    /// The outbound [`LinkOutage`] this scripts, if any —
    /// [`OutageKind::CorruptInbound`] is applied launcher-side instead.
    fn to_link_outage(self) -> Option<LinkOutage> {
        let window = self.window();
        match self.kind {
            OutageKind::Stall => Some(LinkOutage::Stall(window)),
            OutageKind::PartitionOneWay => Some(LinkOutage::Partition {
                window,
                two_way: false,
            }),
            OutageKind::PartitionTwoWay => Some(LinkOutage::Partition {
                window,
                two_way: true,
            }),
            OutageKind::Corrupt => Some(LinkOutage::Corrupt(window)),
            OutageKind::CorruptInbound => None,
        }
    }
}

/// Configuration of one cluster run.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of joiner tasks (= nodes).
    pub k: usize,
    /// Similarity threshold and window.
    pub join: JoinConfig,
    /// Local join algorithm each node runs.
    pub local: LocalAlgo,
    /// Routing strategy (calibrated launcher-side; nodes only join).
    pub strategy: Strategy,
    /// Where joiners run.
    pub backend: ClusterBackend,
    /// Per-wire in-flight bound in sent-but-unacked messages (a batch
    /// counts its length) — the cluster analogue of the in-process bounded
    /// channel capacity.
    pub channel_capacity: usize,
    /// Frame up to this many messages per wire as one sequenced
    /// [`JoinMsg::Batch`] — same meaning as
    /// [`DistributedJoinConfig::dispatch_batch`]. `None` frames every
    /// message on its own.
    pub dispatch_batch: Option<usize>,
    /// Seeded link chaos on every launcher→joiner wire (drops, dups,
    /// delays — masked by the at-least-once protocol).
    pub chaos_seed: Option<u64>,
    /// Shed whole records when a target wire's backlog reaches this.
    pub shed_watermark: Option<usize>,
    /// Barrier-driven checkpointing, coordinated by the launcher.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from the latest complete checkpoint in this store.
    pub restore_from: Option<Arc<dyn SnapshotStore>>,
    /// Supervised mid-run kill + restart of one node.
    pub fault: Option<ClusterFault>,
    /// Scripted stall/partition windows on individual wires.
    pub outages: Vec<ClusterOutage>,
    /// Heartbeat liveness detection and recovery budgets.
    pub health: Option<HealthConfig>,
    /// Retransmission backoff for unacked frames.
    pub retry: RetryConfig,
    /// Stamp ingest/barrier times from a logical counter instead of the
    /// wall clock, making each wire's outbound data stream
    /// byte-deterministic (the golden-transcript mode). Latency metrics
    /// are meaningless under logical time and are skipped.
    pub logical_time: bool,
}

impl ClusterConfig {
    /// Paper-default cluster setup, mirroring
    /// [`DistributedJoinConfig::recommended`].
    pub fn recommended(k: usize, join: JoinConfig, backend: ClusterBackend) -> Self {
        let base = DistributedJoinConfig::recommended(k, join);
        Self {
            k,
            join,
            local: base.local,
            strategy: base.strategy,
            backend,
            channel_capacity: 256,
            dispatch_batch: Some(stormlite::BATCH_MAX_FRAMES),
            chaos_seed: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            fault: None,
            outages: Vec::new(),
            health: None,
            retry: RetryConfig {
                base_timeout: Duration::from_millis(40),
                backoff_factor: 2,
                max_timeout: Duration::from_millis(640),
            },
            logical_time: false,
        }
    }
}

/// Liveness, outage and self-healing counters for one cluster run.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Heartbeat probes sent to idle wires.
    pub heartbeats_sent: u64,
    /// Heartbeat echoes received back.
    pub health_acks: u64,
    /// Liveness deadlines that expired (a node declared suspect).
    pub suspects: u64,
    /// Respawn recoveries performed (scripted kills included).
    pub respawns: u64,
    /// Tasks fenced after exhausting their recovery budget.
    pub fenced_tasks: Vec<usize>,
    /// Silence observed at each suspicion — bounded by `suspect_after`
    /// plus one detector pass when the detector is healthy.
    pub detection_latency: LatencyHistogram,
    /// Frames held by stall windows across all wires.
    pub stalled_frames: u64,
    /// Frames dropped by partition windows across all wires.
    pub partition_dropped_frames: u64,
    /// Wires that reported a clean peer close.
    pub clean_closes: u64,
    /// Wires that died with an I/O error or mid-frame truncation.
    pub error_closes: u64,
    /// Inbound frames rejected as corrupt (checksum mismatch, undecodable
    /// body, or a protocol-violating frame kind) — each one poisons its
    /// incarnation and triggers recovery instead of a panic.
    pub corrupt_frames: u64,
    /// Snapshot frames whose window payload failed to decode; the epoch
    /// publication is refused and the node recovered.
    pub corrupt_snapshots: u64,
}

/// Everything a cluster run reports.
#[derive(Debug)]
pub struct ClusterResult {
    /// Every distinct verified pair, in arrival order at the sink (which
    /// is nondeterministic across wires — compare via
    /// [`ClusterResult::sorted_pairs`]).
    pub pairs: Vec<MatchPair>,
    /// Final per-node reports, one per task.
    pub joiners: Vec<JoinerSnapshot>,
    /// Streamed records (restore re-dispatch tuples excluded).
    pub records: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Ids of records shed at the dispatcher.
    pub shed_records: Vec<u64>,
    /// The checkpoint cut resumed from, if the run restored.
    pub restored_cut: Option<u64>,
    /// Duplicate result frames dropped by the sink's pair-key filter —
    /// nonzero only when crashes or chaos forced reprocessing.
    pub dup_results_dropped: u64,
    /// Frames retransmitted by the at-least-once layer.
    pub retransmissions: u64,
    /// Messages the dispatcher routed onto the wires (barriers included),
    /// a batch counting its length.
    pub routed_messages: u64,
    /// Sequenced `Data` frames those messages first left in, summed over
    /// the wires; `routed_messages / data_frames` is what
    /// [`ClusterConfig::dispatch_batch`] amortised.
    pub data_frames: u64,
    /// Frames the launcher queued on its wires, every kind and every
    /// incarnation (0 on the in-process backend, which does not batch).
    pub frames_sent: u64,
    /// Write batches those frames left in — one `write(2)` each over TCP;
    /// `frames_sent / wire_flushes` is the coalescing ratio.
    pub wire_flushes: u64,
    /// Most source records the launcher ever dispatched between two
    /// flushes of all links. The flush contract in the module docs bounds
    /// it by [`stormlite::BATCH_MAX_FRAMES`], which is what keeps a frame
    /// on a sparsely-routed link from outliving the retransmission timer.
    pub unflushed_records_high_water: usize,
    /// Checkpoint epochs committed during the run.
    pub epochs_committed: u64,
    /// Launcher-side per-stage latencies (route, dispatch, deliver,
    /// retry, emit, checkpoint).
    pub stages: StageProfile,
    /// End-to-end dispatch→result latency (empty under logical time).
    pub latency: LatencyHistogram,
    /// Per-wire FNV-1a digest of first-transmission data-frame bytes, in
    /// sequence order — present only under `logical_time`, where that
    /// stream is deterministic (see the module docs for what is not).
    pub wire_digests: Option<Vec<u64>>,
    /// Liveness and self-healing counters.
    pub health: HealthReport,
    /// Wall-clock suspect/recover/fence span events, in occurrence order
    /// (`a` = task, `b` = stage-specific operand; see [`obs::Stage`]).
    pub health_events: Vec<Event>,
    /// End-to-end integrity counters: wire-frame rejections (mirroring
    /// [`HealthReport::corrupt_frames`]) plus storage-side quarantines and
    /// verified-restore fallbacks.
    pub integrity: stormlite::IntegrityReport,
}

impl ClusterResult {
    /// Pairs sorted by `(earlier, later)` key — the canonical form every
    /// equivalence assertion compares, because arrival order across wires
    /// is not deterministic.
    pub fn sorted_pairs(&self) -> Vec<MatchPair> {
        let mut pairs = self.pairs.clone();
        pairs.sort_by_key(MatchPair::key);
        pairs
    }

    /// Streamed records per wall-clock second.
    pub fn throughput(&self) -> f64 {
        self.records as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Every field of this result as label-disciplined metric samples,
    /// ready for [`obs::prometheus`] — the cluster-level counterpart of
    /// `RunReport::metrics_snapshot`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let counters: [(&str, &str, u64); 21] = [
            (
                "dssj_cluster_pairs_total",
                "Distinct verified result pairs",
                self.pairs.len() as u64,
            ),
            (
                "dssj_cluster_records_total",
                "Records streamed through the dispatcher",
                self.records as u64,
            ),
            (
                "dssj_cluster_shed_records_total",
                "Records shed by watermark or fencing",
                self.shed_records.len() as u64,
            ),
            (
                "dssj_cluster_dup_results_dropped_total",
                "Duplicate result frames dropped by the sink",
                self.dup_results_dropped,
            ),
            (
                "dssj_cluster_retransmissions_total",
                "Frames retransmitted by the at-least-once layer",
                self.retransmissions,
            ),
            (
                "dssj_cluster_routed_messages_total",
                "Messages routed onto launcher-to-joiner wires",
                self.routed_messages,
            ),
            (
                "dssj_cluster_data_frames_total",
                "Sequenced data frames those messages first left in",
                self.data_frames,
            ),
            (
                "dssj_cluster_frames_sent_total",
                "Frames queued on launcher-to-joiner wires",
                self.frames_sent,
            ),
            (
                "dssj_cluster_wire_flushes_total",
                "Write batches flushed to launcher-to-joiner wires",
                self.wire_flushes,
            ),
            (
                "dssj_cluster_epochs_committed_total",
                "Checkpoint epochs committed",
                self.epochs_committed,
            ),
            (
                "dssj_cluster_heartbeats_sent_total",
                "Liveness probes sent to joiner wires",
                self.health.heartbeats_sent,
            ),
            (
                "dssj_cluster_health_acks_total",
                "Heartbeat echoes received",
                self.health.health_acks,
            ),
            (
                "dssj_cluster_suspects_total",
                "Liveness deadlines expired",
                self.health.suspects,
            ),
            (
                "dssj_cluster_respawns_total",
                "Node respawn recoveries",
                self.health.respawns,
            ),
            (
                "dssj_cluster_stalled_frames_total",
                "Frames held by stall windows",
                self.health.stalled_frames,
            ),
            (
                "dssj_cluster_partition_dropped_frames_total",
                "Frames dropped by partition windows",
                self.health.partition_dropped_frames,
            ),
            (
                "dssj_cluster_corrupt_frames_total",
                "Inbound frames rejected as corrupt",
                self.health.corrupt_frames,
            ),
            (
                "dssj_cluster_corrupt_snapshots_total",
                "Snapshot frames with undecodable windows",
                self.health.corrupt_snapshots,
            ),
            (
                "dssj_cluster_corrupt_snapshot_parts_total",
                "Stored snapshot parts rejected by integrity checks",
                self.integrity.corrupt_snapshot_parts,
            ),
            (
                "dssj_cluster_corrupt_manifests_total",
                "Stored manifests rejected by integrity checks",
                self.integrity.corrupt_manifests,
            ),
            (
                "dssj_cluster_quarantined_epochs_total",
                "Committed epochs quarantined as unverifiable",
                self.integrity.quarantined_epochs,
            ),
        ];
        for (name, help, v) in counters {
            snap.push_counter(name, help, &[], v);
        }
        snap.push_counter(
            "dssj_cluster_wire_closes_total",
            "Wire closes by classified reason",
            &[("reason", "clean")],
            self.health.clean_closes,
        );
        snap.push_counter(
            "dssj_cluster_wire_closes_total",
            "Wire closes by classified reason",
            &[("reason", "error")],
            self.health.error_closes,
        );
        snap.push_gauge(
            "dssj_cluster_joiners",
            "Joiner tasks in the run",
            &[],
            self.joiners.len() as i64,
        );
        snap.push_gauge(
            "dssj_cluster_fenced_tasks",
            "Tasks fenced after budget exhaustion",
            &[],
            self.health.fenced_tasks.len() as i64,
        );
        snap.push_gauge(
            "dssj_cluster_restore_fallback_depth",
            "Epochs restore stepped back past to find a verified one",
            &[],
            self.integrity.restore_fallback_depth.min(i64::MAX as u64) as i64,
        );
        snap.push_histogram(
            "dssj_cluster_result_latency",
            "Dispatch-to-result latency (empty under logical time)",
            &[],
            &self.latency,
        );
        snap.push_histogram(
            "dssj_cluster_detection_latency",
            "Silence observed when each suspect was declared",
            &[],
            &self.health.detection_latency,
        );
        for (stage, hist) in self.stages.stages() {
            snap.push_histogram(
                "dssj_cluster_stage_latency",
                "Launcher-side per-stage latency",
                &[("stage", stage.name())],
                hist,
            );
        }
        snap
    }
}

/// Runs a self-join on a cluster and reports the joined output.
pub fn run_cluster(records: &[Record], cfg: &ClusterConfig) -> ClusterResult {
    let source: Vec<JoinMsg> = records
        .iter()
        .map(|r| JoinMsg::Probe(RecordMsg::solo(r.clone(), Timestamp::ZERO)))
        .collect();
    Launcher::new(records.to_vec(), false, cfg).run(source)
}

/// Runs a bi-stream (R–S) join on a cluster: the two streams are merged
/// into one arrival order by record id, exactly like the in-process
/// driver.
pub fn run_cluster_bistream(
    left: &[Record],
    right: &[Record],
    cfg: &ClusterConfig,
) -> ClusterResult {
    let merged = merge_streams(left, right);
    let arrival: Vec<Record> = merged.iter().map(|(_, r)| r.clone()).collect();
    let source: Vec<JoinMsg> = merged
        .into_iter()
        .map(|(side, record)| {
            JoinMsg::Probe(RecordMsg {
                record,
                ingest: Timestamp::ZERO,
                side: Some(side),
            })
        })
        .collect();
    Launcher::new(arrival, true, cfg).run(source)
}

// ---------------------------------------------------------------------------
// Node side
// ---------------------------------------------------------------------------

/// Node-side inbound bound, on the frame queue and on how far ahead of
/// its sequence cursor a node buffers. The launcher's in-flight cap
/// ([`ClusterConfig::channel_capacity`], which may not exceed this) is the
/// tight bound; this only absorbs retransmission/duplication slack before
/// socket backpressure (a stalled reader, a closed TCP window) kicks in
/// and feeds the launcher's shed watermark — and makes a peer that opens a
/// sequence gap it never fills a protocol error, not unbounded memory.
pub const NODE_INBOUND_CAP: usize = 4096;

/// Launcher-side inbound queue bound — effectively unbounded, because
/// the launcher must never deadlock against a node that is blocked
/// writing results while the launcher is blocked writing data.
const LAUNCHER_INBOUND_CAP: usize = 1 << 20;

fn proto_err(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Runs one record-bearing message through the joiner — expire, then
/// probe, insert or the fused probe-and-insert, as its kind asks — handing
/// a probe's pairs and the probing record's ingest stamp to `emit`.
fn node_join(
    joiner: &mut Joiner,
    msg: &JoinMsg,
    mut emit: impl FnMut(&[MatchPair], Timestamp) -> io::Result<()>,
) -> io::Result<()> {
    let Some(payload) = msg.payload() else {
        return Err(proto_err(
            "a result, or a barrier or batch inside a batch, is not a message for a node",
        ));
    };
    joiner.advance(&payload.record);
    match msg {
        JoinMsg::Index(_) => {
            joiner.insert(payload);
            Ok(())
        }
        JoinMsg::ProbeAndIndex(_) => emit(joiner.process(payload), payload.ingest),
        _ => emit(joiner.probe(payload), payload.ingest),
    }
}

/// Applies the contents of one in-order data frame to the node's joiner.
/// Every frame it produces is written to the wire *before* the caller
/// writes the frame's ack, which is what lets an ack stand in for "all of
/// this frame's output arrived". A batch holds its pairs back and answers
/// with at most one `Results` frame; a message outside a batch is answered
/// result by result.
fn node_apply(joiner: &mut Joiner, task: u32, msg: JoinMsg, wire: &mut dyn Wire) -> io::Result<()> {
    match msg {
        JoinMsg::Barrier { epoch, .. } => {
            let window = encode_window_vec(&joiner.window_snapshot())?;
            send_frame(
                wire,
                &Frame::Snapshot {
                    epoch,
                    task,
                    window,
                },
            )
        }
        JoinMsg::Batch(msgs) => {
            let mut held = Vec::new();
            for m in &msgs {
                node_join(joiner, m, |pairs, ingest| {
                    held.extend(pairs.iter().map(|&pair| (pair, ingest)));
                    Ok(())
                })?;
            }
            if !held.is_empty() {
                send_frame(wire, &Frame::Results(held))?;
            }
            Ok(())
        }
        msg => node_join(joiner, &msg, |pairs, ingest| {
            pairs
                .iter()
                .try_for_each(|&pair| send_frame(wire, &Frame::Result { pair, ingest }))
        }),
    }
}

/// Serves one joiner node over an established wire: handshake, then
/// process data frames in sequence order until end of stream. This is
/// the entire node-side program — the `ssj-node` binary is a TCP
/// connection plus this loop, and the in-process backend runs the same
/// loop on a thread.
pub fn node_serve(wire: &mut dyn Wire, task: usize) -> io::Result<()> {
    // The `Hello` is the one unsealed frame: the launcher must be able to
    // read the version out of it whatever the peer speaks.
    let hello = Frame::Hello {
        proto: PROTO_VERSION,
        task: task as u32,
    };
    wire.send(&hello.encode()?)?;
    wire.flush()?;
    let cfg = match wire.recv_timeout(Duration::from_secs(30))? {
        WireEvent::Frame(b) => match Frame::decode_checked(&b, true)? {
            Frame::Config(c) => c,
            other => return Err(proto_err(format!("expected Config, got {other:?}"))),
        },
        WireEvent::Idle => return Err(proto_err("timed out waiting for Config")),
        WireEvent::Closed(_) => return Ok(()), // launcher abandoned the handshake
    };
    if cfg.task as usize != task {
        return Err(proto_err("Config addressed to a different task"));
    }
    let join = JoinConfig {
        threshold: Threshold::new(cfg.sim, cfg.tau),
        window: cfg.window,
    };
    let dedup = cfg.dedup.then_some((cfg.k as usize, task));
    let mut joiner = Joiner::new(cfg.algo, join, cfg.bistream, dedup);
    let mut next_seq = cfg.resume_seq;
    // Out-of-order arrivals (chaos delays/duplicates) wait here until the
    // sequence gap closes; processing is strictly in `seq` order. Keys stay
    // within `NODE_INBOUND_CAP` of `next_seq`, which bounds the map.
    let mut pending: BTreeMap<u64, JoinMsg> = BTreeMap::new();
    loop {
        let event = if wire.queue_depth() > 0 {
            wire.try_recv()?
        } else {
            // Inbound queue drained: push buffered results/acks out before
            // blocking, so the launcher is never left waiting on a batch.
            wire.flush()?;
            wire.recv_timeout(Duration::from_millis(100))?
        };
        match event {
            WireEvent::Idle => continue,
            WireEvent::Closed(_) => return Ok(()), // launcher is done with us
            WireEvent::Frame(b) => match Frame::decode_checked(&b, true)? {
                Frame::Heartbeat { nonce, sent_at } => {
                    // Echo immediately and flush: the probe exists to make
                    // an idle-but-alive wire visible, so it must not sit
                    // in the outbound batch.
                    send_frame(wire, &Frame::HealthAck { nonce, sent_at })?;
                    wire.flush()?;
                }
                Frame::Data { seq, msg } => {
                    if seq < next_seq {
                        // Retransmission of an already-processed frame: its
                        // effects (and results) are final; just re-ack.
                        send_frame(wire, &Frame::Ack { seq })?;
                    } else if seq - next_seq > NODE_INBOUND_CAP as u64 {
                        return Err(proto_err(format!(
                            "Data seq {seq} is more than {NODE_INBOUND_CAP} frames ahead \
                             of the next expected seq {next_seq}"
                        )));
                    } else {
                        pending.insert(seq, msg);
                        while let Some(msg) = pending.remove(&next_seq) {
                            node_apply(&mut joiner, cfg.task, msg, wire)?;
                            send_frame(wire, &Frame::Ack { seq: next_seq })?;
                            next_seq += 1;
                        }
                    }
                }
                Frame::Restore { window } => joiner.restore(&decode_window_slice(&window)?),
                Frame::Eos => {
                    if !pending.is_empty() {
                        return Err(proto_err("end of stream with unfilled sequence gaps"));
                    }
                    let (stats, stored, postings) = joiner.counters();
                    let report = NodeReport {
                        stats,
                        stored: stored as u64,
                        postings: postings as u64,
                    };
                    send_frame(wire, &Frame::Done(report))?;
                    wire.flush()?;
                    // Linger until the launcher closes, so the Done frame
                    // is never lost to an early teardown.
                    loop {
                        match wire.recv_timeout(Duration::from_secs(30))? {
                            WireEvent::Closed(_) | WireEvent::Idle => return Ok(()),
                            WireEvent::Frame(b) => {
                                // Keep answering liveness probes while
                                // lingering, so a slow teardown is never
                                // mistaken for a hung node.
                                if let Ok(Frame::Heartbeat { nonce, sent_at }) =
                                    Frame::decode_checked(&b, true)
                                {
                                    send_frame(wire, &Frame::HealthAck { nonce, sent_at })?;
                                    wire.flush()?;
                                }
                            }
                        }
                    }
                }
                other => return Err(proto_err(format!("unexpected frame {other:?}"))),
            },
        }
    }
}

/// Entry point of the `ssj-node` binary: connect to the launcher at
/// `addr` (e.g. `127.0.0.1:41234`), then serve joiner `task`.
pub fn node_main(addr: &str, task: usize) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut wire = TcpWire::new(stream, NODE_INBOUND_CAP)?;
    node_serve(&mut wire, task)
}

// ---------------------------------------------------------------------------
// Launcher side
// ---------------------------------------------------------------------------

enum NodeProc {
    Thread(Option<JoinHandle<io::Result<()>>>),
    Child(Child),
}

struct PendingFrame {
    /// What the frame carries: one message, or one batch.
    msg: JoinMsg,
    last_sent: Instant,
    retries: u32,
}

impl PendingFrame {
    /// The sealed `Data` frame that (re)transmits this message as `seq`.
    fn sealed(&self, seq: u64) -> Vec<u8> {
        stormlite::seal(encode_data(seq, &self.msg).expect("data frames are always encodable"))
    }
}

/// The routed messages one data frame carries: a batch's, or the message
/// itself.
fn carried(msg: &JoinMsg) -> &[JoinMsg] {
    match msg {
        JoinMsg::Batch(msgs) => msgs,
        msg => std::slice::from_ref(msg),
    }
}

/// Ids of the records one data frame carries (none for a barrier).
fn carried_ids(msg: &JoinMsg) -> impl Iterator<Item = u64> + '_ {
    carried(msg)
        .iter()
        .filter_map(|m| m.record().map(|r| r.id().0))
}

struct NodeLink {
    wire: Box<dyn Wire>,
    proc: NodeProc,
    next_seq: u64,
    /// Sent-but-unacknowledged frames, by sequence number. Acks arrive in
    /// order (the node processes in order over FIFO wires), so this is
    /// always a contiguous suffix of the sequence space.
    unacked: BTreeMap<u64, PendingFrame>,
    /// Messages those frames carry — what the in-flight bound and the shed
    /// watermark count.
    in_flight: usize,
    /// No unacked frame is overdue before this instant — a lower bound on
    /// every frame's `last_sent + timeout_after(retries)`, so the timer pass can
    /// skip the link without looking at `unacked`. Only ever too early,
    /// never too late: an ack leaves it stale (the next pass past it
    /// rescans and tightens it), anything that makes a frame due sooner
    /// lowers it on the spot.
    retry_due: Instant,
    /// Messages acknowledged so far (what [`ClusterFault::after_acks`]
    /// counts).
    acked: u64,
    chaos: Option<ChaosLink>,
    incarnation: u64,
    restored_from_epoch: Option<u64>,
    /// FNV-1a over first-transmission data-frame bytes, in seq order
    /// (folded under `logical_time` only).
    digest: u64,
    eos_sent: bool,
    done: Option<NodeReport>,
    /// Wall-clock time of the last inbound frame — the life sign the
    /// failure detector watches. Reset on respawn.
    last_seen: Instant,
    /// When the last heartbeat probe went out on this wire.
    hb_last: Instant,
    /// Inbound frames held while a two-way partition window covers this
    /// wire; released in order at heal, or replayed into the launcher
    /// before a kill so ack contiguity is never broken.
    held_inbound: Vec<Vec<u8>>,
    /// Respawns charged against this task's recovery budget.
    health_respawns: u32,
    /// Fenced: budget exhausted, partition shed, wire abandoned.
    fenced: bool,
    /// Scripted [`OutageKind::CorruptInbound`] windows, keyed on this
    /// wire's inbound frame ordinal.
    corrupt_inbound: Vec<ChaosWindow>,
    /// Inbound frames received (pump path) — the ordinal the corrupt
    /// windows key on. Not reset on respawn, so window placement is
    /// global to the wire like the outbound chaos ordinal.
    inbound_seq: u64,
    /// A corrupt frame arrived from this incarnation: everything else it
    /// sends is untrustworthy (an ack surviving a corrupted result would
    /// cancel the retransmission that re-creates the result), so the
    /// remaining inbound backlog is discarded instead of drained during
    /// the respawn. Cleared once the fresh incarnation is up.
    poisoned: bool,
}

impl NodeLink {
    /// A link to a freshly spawned node: nothing sent, nothing seen.
    fn new(
        wire: Box<dyn Wire>,
        proc: NodeProc,
        chaos: Option<ChaosLink>,
        corrupt_inbound: Vec<ChaosWindow>,
    ) -> Self {
        let now = Instant::now();
        Self {
            wire,
            proc,
            next_seq: 0,
            unacked: BTreeMap::new(),
            in_flight: 0,
            retry_due: now,
            acked: 0,
            chaos,
            incarnation: 0,
            restored_from_epoch: None,
            digest: FNV_OFFSET,
            eos_sent: false,
            done: None,
            last_seen: now,
            hb_last: now,
            held_inbound: Vec::new(),
            health_respawns: 0,
            fenced: false,
            corrupt_inbound,
            inbound_seq: 0,
            poisoned: false,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds the batch counters of a wire about to be dropped into `total`.
fn retire_batch_counters(total: &mut (u64, u64), wire: &dyn Wire) {
    let (frames, flushes) = wire.batch_counters();
    total.0 += frames;
    total.1 += flushes;
}

enum RunClock {
    Wall(Instant),
    Logical(u64),
}

impl RunClock {
    fn now(&mut self) -> Timestamp {
        match self {
            RunClock::Wall(anchor) => {
                Timestamp::from_nanos(anchor.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            }
            RunClock::Logical(c) => {
                *c += 1;
                Timestamp::from_nanos(*c)
            }
        }
    }

    /// Wall time since the run began; `None` under logical time, where
    /// latencies are meaningless.
    fn wall_elapsed(&self) -> Option<Duration> {
        match self {
            RunClock::Wall(anchor) => Some(anchor.elapsed()),
            RunClock::Logical(_) => None,
        }
    }
}

struct Launcher<'a> {
    cfg: &'a ClusterConfig,
    bistream: bool,
    arrival: Vec<Record>,
    needs_dedup: bool,
    recovery: Option<Arc<RecoveryState>>,
    coordinator: Option<Arc<CheckpointCoordinator>>,
    links: Vec<NodeLink>,
    listener: Option<TcpListener>,
    clock: RunClock,
    // Sink state.
    pairs: Vec<MatchPair>,
    seen: FxHashSet<(u64, u64)>,
    dup_results_dropped: u64,
    latency: LatencyHistogram,
    // Metrics and control.
    stages: StageProfile,
    /// When dispatch of the current source record began.
    record_started: Instant,
    retransmissions: u64,
    /// Messages handed to `send_data`, a batch counting its length.
    routed_messages: u64,
    /// Source records dispatched since every link was last flushed.
    unflushed_records: usize,
    /// The most `unflushed_records` ever reached.
    unflushed_high_water: usize,
    /// Batch counters of wires already replaced by a respawn.
    retired_batch_counters: (u64, u64),
    shed_log: Vec<u64>,
    /// Epoch publications already forwarded to the coordinator — a
    /// restarted node reprocessing a barrier re-sends its snapshot, and
    /// the coordinator treats over-publication as a protocol violation.
    published: FxHashSet<(u64, u64)>,
    fault_armed: Option<ClusterFault>,
    pending_kill: Option<usize>,
    pending_dead: Option<usize>,
    // Health / self-healing state. The detector runs on the wall clock
    // even under logical time (see `HealthConfig`), anchored here.
    wall_anchor: Instant,
    hb_nonce: u64,
    health_report: HealthReport,
    health_events: Vec<Event>,
    /// Records shed by fencing (retroactive in-flight sheds included):
    /// the sink filters every past and future pair against this set so a
    /// fenced run reports exactly the surviving-record join.
    shed_ids: FxHashSet<u64>,
    any_fenced: bool,
}

impl<'a> Launcher<'a> {
    fn new(arrival: Vec<Record>, bistream: bool, cfg: &'a ClusterConfig) -> Self {
        assert!(cfg.k >= 1, "need at least one joiner");
        assert!(
            cfg.channel_capacity <= NODE_INBOUND_CAP,
            "a node refuses frames more than {NODE_INBOUND_CAP} ahead of its cursor"
        );
        Self {
            cfg,
            bistream,
            arrival,
            needs_dedup: false,
            recovery: None,
            coordinator: None,
            links: Vec::new(),
            listener: None,
            clock: if cfg.logical_time {
                RunClock::Logical(0)
            } else {
                RunClock::Wall(Instant::now())
            },
            pairs: Vec::new(),
            seen: FxHashSet::default(),
            dup_results_dropped: 0,
            latency: LatencyHistogram::new(),
            stages: StageProfile::new(),
            record_started: Instant::now(),
            retransmissions: 0,
            routed_messages: 0,
            unflushed_records: 0,
            unflushed_high_water: 0,
            retired_batch_counters: (0, 0),
            shed_log: Vec::new(),
            published: FxHashSet::default(),
            fault_armed: cfg.fault,
            pending_kill: None,
            pending_dead: None,
            wall_anchor: Instant::now(),
            hb_nonce: 0,
            health_report: HealthReport::default(),
            health_events: Vec::new(),
            shed_ids: FxHashSet::default(),
            any_fenced: false,
        }
    }

    /// Wall nanoseconds since launcher construction — the event clock for
    /// health spans, deliberately independent of the logical run clock so
    /// detector activity can never perturb ingest stamps or digests.
    fn wall_nanos(&self) -> u64 {
        self.wall_anchor
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }

    fn run(mut self, source: Vec<JoinMsg>) -> ClusterResult {
        let started = Instant::now();
        let threshold = self.cfg.join.threshold;
        let window = self.cfg.join.window;

        // Restore path: identical source surgery to the in-process driver
        // (drop covered records, prepend the window as index-only tuples,
        // adopt the persisted partition).
        let mut source = source;
        let mut strategy = self.cfg.strategy.clone();
        let mut restored_cut = None;
        let mut prepended = 0;
        let mut restore_integrity = stormlite::IntegrityReport::default();
        if let Some(store) = &self.cfg.restore_from {
            (restored_cut, prepended, restore_integrity) = prepare_restore(
                &mut source,
                &mut strategy,
                store.as_ref(),
                self.cfg.k,
                self.bistream,
            );
        }
        let n_records = source.len() - prepended;

        let router = build_router(&strategy, threshold, self.cfg.k, &self.arrival);
        self.needs_dedup = router.needs_result_dedup();

        // Anything that can kill a node needs the recovery machinery:
        // scripted faults, the liveness detector, or scripted outages
        // (which drive the detector into respawns).
        let can_lose_a_node =
            self.cfg.fault.is_some() || self.cfg.health.is_some() || !self.cfg.outages.is_empty();
        (self.recovery, self.coordinator) = build_recovery(
            self.cfg.k,
            window,
            can_lose_a_node,
            self.cfg.checkpoint.as_ref(),
        );
        let mut dispatcher = Dispatcher::new(
            router,
            self.bistream,
            self.recovery.clone(),
            self.coordinator.clone(),
            self.cfg.shed_watermark,
            self.cfg.dispatch_batch,
        );

        if matches!(self.cfg.backend, ClusterBackend::Tcp { .. }) {
            self.listener =
                Some(stormlite::listen_loopback().expect("cannot bind a loopback listener"));
        }
        for task in 0..self.cfg.k {
            let (wire, proc_) = self.spawn_one(task);
            let outages: Vec<LinkOutage> = self
                .cfg
                .outages
                .iter()
                .filter(|o| o.task == task)
                .filter_map(|o| o.to_link_outage())
                .collect();
            let corrupt_inbound: Vec<ChaosWindow> = self
                .cfg
                .outages
                .iter()
                .filter(|o| o.task == task && o.kind == OutageKind::CorruptInbound)
                .map(|o| o.window())
                .collect();
            let chaos = match (self.cfg.chaos_seed, outages.is_empty()) {
                (Some(seed), _) => Some(
                    // Each wire gets an independent deterministic fault
                    // stream derived from the run seed and its task.
                    ChaosLink::new(
                        seed,
                        LinkFault::seeded(seed.wrapping_add(task as u64)),
                        2,
                        task,
                    )
                    .with_outages(outages),
                ),
                (None, false) => Some(ChaosLink::from_outages(outages)),
                (None, true) => None,
            };
            self.links
                .push(NodeLink::new(wire, proc_, chaos, corrupt_inbound));
            if let Some(r) = &self.recovery {
                r.begin_incarnation(task);
            }
            let hello = read_hello(self.links[task].wire.as_mut()).expect("node handshake failed");
            assert_eq!(hello as usize, task, "node announced the wrong task");
            let config = self.node_config(task, 0);
            let link = &mut self.links[task];
            send_frame(link.wire.as_mut(), &Frame::Config(config)).expect("send node config");
            link.wire.flush().expect("flush node config");
        }

        // Dispatch the stream.
        for (dispatched, msg) in source.into_iter().enumerate() {
            self.record_started = Instant::now();
            let outcome = dispatcher.dispatch(&msg, &mut self);
            if outcome != Dispatched::Sent {
                let id = msg.record().expect("dispatched a record").id().0;
                // A record shed for an unreachable (fenced) target also
                // joins the set the sink filters pairs against.
                if outcome == Dispatched::Unreachable {
                    self.shed_ids.insert(id);
                }
                self.shed_log.push(id);
            }
            self.stages
                .record(Stage::Dispatch, self.record_started.elapsed());
            self.unflushed_records += 1;
            self.unflushed_high_water = self.unflushed_high_water.max(self.unflushed_records);
            if self.cfg.shed_watermark.is_some() {
                // The watermark reads the in-flight count, which only
                // falls when acks are taken off the wires: with shedding
                // armed that cannot wait for the next flush point, or a
                // healthy cluster would look backlogged.
                self.pump(Duration::ZERO, None);
            }
            if (dispatched + 1) % stormlite::BATCH_MAX_FRAMES == 0 {
                // The flush point: frame what the dispatcher still holds,
                // push every link's write batch out, then do the
                // housekeeping a record does not need done for it alone.
                // Placed by record count alone — `unflushed_records` also
                // resets whenever a blocked send flushes, and batch cuts
                // that followed it would depend on timing.
                dispatcher.flush(&mut self);
                self.flush_links();
                self.pump(Duration::ZERO, None);
                self.service_timers();
                self.service_health();
            }
        }
        dispatcher.flush(&mut self);
        // Drain: every frame acked (fenced wires already dropped theirs).
        while self
            .links
            .iter()
            .any(|l| !l.fenced && !l.unacked.is_empty())
        {
            self.pump(Duration::from_micros(500), None);
            self.service_timers();
            self.service_health();
        }
        // End of stream. Chaos-held (stalled/delayed) frames are released
        // first — all of them were already delivered via retransmission,
        // so the node just re-acks — then every node gets Eos and reports.
        for task in 0..self.cfg.k {
            if self.links[task].fenced {
                continue;
            }
            let held: Vec<Vec<u8>> = self.links[task]
                .chaos
                .as_mut()
                .map(|c| c.drain())
                .unwrap_or_default();
            for f in held {
                let _ = self.links[task].wire.send(&f);
            }
            self.send_eos(task);
        }
        while self.links.iter().any(|l| !l.fenced && l.done.is_none()) {
            self.pump(Duration::from_micros(500), None);
            self.service_health();
        }

        // Teardown: closing the wires releases the lingering nodes.
        let mut joiners = Vec::new();
        let mut digests = Vec::new();
        let data_frames = self.links.iter().map(|l| l.next_seq).sum();
        for (task, link) in self.links.drain(..).enumerate() {
            if let Some(chaos) = &link.chaos {
                let (stalled, dropped) = chaos.outage_counters();
                self.health_report.stalled_frames += stalled;
                self.health_report.partition_dropped_frames += dropped;
            }
            // A fenced task has no final report; its counters default.
            let report = link.done.clone().unwrap_or_default();
            let replayed = self.recovery.as_ref().map_or(0, |r| r.replayed(task));
            joiners.push(JoinerSnapshot {
                task,
                stats: report.stats,
                stored: report.stored as usize,
                postings: report.postings as usize,
                incarnation: link.incarnation,
                replayed,
                restored_from_epoch: link.restored_from_epoch,
            });
            digests.push(link.digest);
            retire_batch_counters(&mut self.retired_batch_counters, link.wire.as_ref());
            drop(link.wire);
            match link.proc {
                NodeProc::Thread(Some(handle)) => {
                    let _ = handle.join();
                }
                NodeProc::Thread(None) => {}
                NodeProc::Child(mut child) => {
                    let _ = child.wait();
                }
            }
        }
        let mut integrity = restore_integrity;
        if let Some(coordinator) = &self.coordinator {
            integrity.merge(&coordinator.integrity());
        }
        integrity.corrupt_frames = self.health_report.corrupt_frames;
        ClusterResult {
            pairs: self.pairs,
            joiners,
            records: n_records,
            wall: started.elapsed(),
            shed_records: self.shed_log,
            restored_cut,
            dup_results_dropped: self.dup_results_dropped,
            retransmissions: self.retransmissions,
            routed_messages: self.routed_messages,
            data_frames,
            frames_sent: self.retired_batch_counters.0,
            wire_flushes: self.retired_batch_counters.1,
            unflushed_records_high_water: self.unflushed_high_water,
            epochs_committed: self
                .coordinator
                .as_ref()
                .map_or(0, |c| c.epochs_committed()),
            stages: self.stages,
            latency: self.latency,
            wire_digests: self.cfg.logical_time.then_some(digests),
            health: self.health_report,
            health_events: self.health_events,
            integrity,
        }
    }

    fn node_config(&self, task: usize, resume_seq: u64) -> NodeConfig {
        NodeConfig {
            task: task as u32,
            k: self.cfg.k as u32,
            sim: self.cfg.join.threshold.sim_fn(),
            tau: self.cfg.join.threshold.tau(),
            window: self.cfg.join.window,
            algo: self.cfg.local,
            bistream: self.bistream,
            dedup: self.needs_dedup,
            resume_seq,
        }
    }

    /// Spawns one joiner's process/thread and returns its wire. TCP nodes
    /// are spawned one at a time, so the next accepted connection is
    /// always the node just launched.
    fn spawn_one(&mut self, task: usize) -> (Box<dyn Wire>, NodeProc) {
        match &self.cfg.backend {
            ClusterBackend::InProcess => {
                let (launcher_end, node_end) = stormlite::channel_wire_pair_asym(
                    self.cfg.channel_capacity * 2 + 64,
                    LAUNCHER_INBOUND_CAP,
                );
                let mut node_wire = node_end;
                let handle = std::thread::Builder::new()
                    .name(format!("ssj-node-{task}"))
                    .spawn(move || node_serve(&mut node_wire, task))
                    .expect("spawn node thread");
                (Box::new(launcher_end), NodeProc::Thread(Some(handle)))
            }
            ClusterBackend::Tcp { node_bin } => {
                let listener = self.listener.as_ref().expect("listener bound before spawn");
                let addr = listener.local_addr().expect("listener address").to_string();
                let child = Command::new(node_bin)
                    .arg("--connect")
                    .arg(&addr)
                    .arg("--task")
                    .arg(task.to_string())
                    .stdin(Stdio::null())
                    .spawn()
                    .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", node_bin.display()));
                let (stream, _) = listener.accept().expect("node never connected back");
                let wire = TcpWire::new(stream, LAUNCHER_INBOUND_CAP).expect("wrap node socket");
                (Box::new(wire), NodeProc::Child(child))
            }
        }
    }

    /// Frames `msg` — one message or one batch — as the wire's next
    /// sequenced unit: assigns the sequence number, records the frame as
    /// in-flight, and transmits. Under `logical_time` its bytes are folded
    /// into the wire digest first — the *unsealed* bytes: the digest pins
    /// what was dispatched, not the integrity trailer.
    fn send_data(&mut self, task: usize, msg: JoinMsg) {
        let messages = carried(&msg).len();
        self.routed_messages += messages as u64;
        let link = &mut self.links[task];
        let seq = link.next_seq;
        link.next_seq += 1;
        let unsealed = encode_data(seq, &msg).expect("data frames are always encodable");
        if self.cfg.logical_time {
            link.digest = fnv1a(link.digest, &unsealed);
        }
        let frame = stormlite::seal(unsealed);
        let now = Instant::now();
        link.retry_due = link.retry_due.min(now + self.cfg.retry.timeout_after(0));
        link.in_flight += messages;
        link.unacked.insert(
            seq,
            PendingFrame {
                msg,
                last_sent: now,
                retries: 0,
            },
        );
        self.transmit(task, frame);
    }

    /// Pushes one encoded frame through the wire, via the chaos link when
    /// one is armed. A send failure means the node died mid-write; the
    /// frame stays in `unacked` and recovery retransmits it.
    fn transmit(&mut self, task: usize, frame: Vec<u8>) {
        self.put_on_wire(task, frame, ChaosLink::transmit);
    }

    /// Queues `frame` on the wire — directly, or as whatever the armed
    /// chaos link's `gate` makes of it.
    fn put_on_wire(
        &mut self,
        task: usize,
        frame: Vec<u8>,
        gate: fn(&mut ChaosLink, Vec<u8>) -> Vec<Vec<u8>>,
    ) {
        let link = &mut self.links[task];
        let sent = match &mut link.chaos {
            Some(chaos) => gate(chaos, frame)
                .iter()
                .try_for_each(|f| link.wire.send(f)),
            None => link.wire.send(&frame),
        };
        if sent.is_err() {
            self.pending_dead = Some(task);
        }
    }

    /// Forces every link's write batch onto its wire (see the module docs
    /// for who calls this and why). A flush failure means the node is
    /// going away; the reader side classifies and reports the close.
    fn flush_links(&mut self) {
        self.unflushed_records = 0;
        for link in self.links.iter_mut().filter(|l| !l.fenced) {
            let _ = link.wire.flush();
        }
    }

    fn send_eos(&mut self, task: usize) {
        debug_assert!(self.links[task].unacked.is_empty(), "Eos before full ack");
        self.links[task].eos_sent = true;
        let link = &mut self.links[task];
        if send_frame(link.wire.as_mut(), &Frame::Eos).is_err() || link.wire.flush().is_err() {
            self.recover_or_fence(task); // re-sends Eos on the fresh wire
        }
    }

    /// Drains every wire's inbound queue, then handles any death or
    /// supervised kill noticed along the way. A nonzero `idle_wait` means
    /// the caller is waiting on the nodes: every link is flushed first,
    /// and with nothing received the launcher waits that long — on
    /// `blocked_on`'s wire when the caller needs an ack from one task in
    /// particular (so its arrival ends the wait), asleep otherwise.
    /// `Duration::ZERO` is the flush-point poll and flushes nothing.
    fn pump(&mut self, idle_wait: Duration, blocked_on: Option<usize>) {
        if !idle_wait.is_zero() {
            self.flush_links();
        }
        let mut got = false;
        for task in 0..self.links.len() {
            if self.links[task].fenced {
                continue;
            }
            // A two-way partition also cuts the inbound direction: frames
            // that arrive while the window is active are held in order and
            // released once it heals, so the node looks silent without
            // anything being lost.
            let inbound_blocked = self.inbound_blocked(task);
            if !inbound_blocked && !self.links[task].held_inbound.is_empty() {
                let held = std::mem::take(&mut self.links[task].held_inbound);
                for b in held {
                    got = true;
                    self.links[task].last_seen = Instant::now();
                    if !self.on_frame(task, &b) {
                        // Corrupt frame: the rest of the held batch dies
                        // with the poisoned incarnation; recovery
                        // retransmits everything it covered.
                        self.pending_dead = Some(task);
                        break;
                    }
                }
            }
            // Stop at a fence raised from inside `on_frame` handling, and
            // stop consuming a poisoned incarnation.
            while !self.links[task].fenced && !self.links[task].poisoned {
                let event = self.links[task].wire.try_recv();
                if !self.absorb(task, event, inbound_blocked, &mut got) {
                    break;
                }
            }
        }
        if !got && !idle_wait.is_zero() {
            // A link whose inbound side is held, discarded or abandoned
            // must not be read here, or holding and discarding would leak.
            let wait_on = blocked_on.filter(|&task| {
                let link = &self.links[task];
                self.pending_dead.is_none()
                    && !link.fenced
                    && !link.poisoned
                    && !self.inbound_blocked(task)
            });
            match wait_on {
                Some(task) => {
                    let event = self.links[task].wire.recv_timeout(idle_wait);
                    self.absorb(task, event, false, &mut got);
                }
                None => std::thread::sleep(idle_wait),
            }
        }
        if let Some(t) = self.pending_kill.take() {
            self.recover_or_fence(t);
        }
        if let Some(t) = self.pending_dead.take() {
            self.recover_or_fence(t);
        }
    }

    /// Whether a two-way partition window currently holds `task`'s
    /// inbound direction.
    fn inbound_blocked(&self, task: usize) -> bool {
        self.links[task]
            .chaos
            .as_ref()
            .is_some_and(|c| c.inbound_blocked())
    }

    /// Handles one event `pump` took off `task`'s wire: a frame is run
    /// through the scripted corruption windows and then held (two-way
    /// partition) or recorded as a life sign and processed; a close marks
    /// the node dead. Sets `got` when a frame was processed, and returns
    /// whether the wire may have more to read right now.
    fn absorb(
        &mut self,
        task: usize,
        event: io::Result<WireEvent>,
        inbound_blocked: bool,
        got: &mut bool,
    ) -> bool {
        match event {
            Ok(WireEvent::Frame(mut b)) => {
                self.scripted_rx_corruption(task, &mut b);
                if inbound_blocked {
                    self.links[task].held_inbound.push(b);
                    return true; // held frames are not a life sign
                }
                *got = true;
                self.links[task].last_seen = Instant::now();
                if !self.on_frame(task, &b) {
                    self.pending_dead = Some(task);
                    return false;
                }
                true
            }
            Ok(WireEvent::Idle) => false,
            closed => {
                if self.links[task].done.is_none() {
                    match closed {
                        Ok(WireEvent::Closed(CloseReason::Clean)) => {
                            self.health_report.clean_closes += 1
                        }
                        _ => self.health_report.error_closes += 1,
                    }
                    self.pending_dead = Some(task);
                }
                false
            }
        }
    }

    /// Applies any scripted inbound-corruption window to a frame just
    /// received from `task`: advances this wire's inbound frame ordinal
    /// and flips one deterministic bit while a window covers it. Only the
    /// pump receive path advances the ordinal, so window placement is
    /// independent of recovery-time drains.
    fn scripted_rx_corruption(&mut self, task: usize, frame: &mut [u8]) {
        let link = &mut self.links[task];
        if link.corrupt_inbound.is_empty() {
            return;
        }
        link.inbound_seq += 1;
        let seq = link.inbound_seq;
        if !frame.is_empty() && link.corrupt_inbound.iter().any(|w| w.covers(seq)) {
            let byte = (seq as usize * 31) % frame.len();
            frame[byte] ^= 1 << (seq % 8);
        }
    }

    /// Classifies one corrupt or protocol-violating inbound frame: count
    /// it, emit a span, and poison the incarnation so the caller discards
    /// its remaining output and recovers — the wire-corruption analogue
    /// of an error close, never a panic. Always returns `false` so call
    /// sites can `return self.note_corrupt(..)`.
    fn note_corrupt(&mut self, task: usize, snapshot: bool) -> bool {
        self.health_report.corrupt_frames += 1;
        if snapshot {
            self.health_report.corrupt_snapshots += 1;
        }
        self.links[task].poisoned = true;
        self.stages.record(Stage::Corrupt, Duration::ZERO);
        self.health_events.push(Event::instant(
            self.wall_nanos(),
            Stage::Corrupt,
            task as u64,
            u64::from(snapshot),
        ));
        false
    }

    /// Handles one inbound frame from `task`. Returns `false` when the
    /// frame is corrupt (checksum mismatch, undecodable body) or
    /// protocol-violating: the incarnation is poisoned and the caller
    /// must stop consuming it and trigger recovery.
    fn on_frame(&mut self, task: usize, bytes: &[u8]) -> bool {
        let frame = match Frame::decode_checked(bytes, true) {
            Ok(f) => f,
            Err(_) => return self.note_corrupt(task, false),
        };
        match frame {
            Frame::Ack { seq } => {
                let Some(acked) = self.links[task].unacked.remove(&seq) else {
                    return true; // re-ack of a frame a retransmission already covered
                };
                let messages = carried(&acked.msg);
                self.links[task].in_flight -= messages.len();
                self.links[task].acked += messages.len() as u64;
                self.stages
                    .record(Stage::Deliver, acked.last_sent.elapsed());
                if acked.retries > 0 {
                    // An ack for a frame that needed retransmission means
                    // the link just healed (or caught up): reset the
                    // remaining unacked frames' grown backoff so recovery
                    // proceeds at the base cadence instead of waiting out
                    // a fully-grown exponential delay.
                    for p in self.links[task].unacked.values_mut() {
                        p.retries = 0;
                    }
                    // Shorter backoffs are due sooner: rescan next pass.
                    self.links[task].retry_due = Instant::now();
                }
                // The watermark moves once per ack, to the last record
                // the frame carried (a barrier carries none).
                let last = messages.iter().rev().find_map(JoinMsg::record);
                if let (Some(recovery), Some(record)) = (&self.recovery, last) {
                    recovery.mark_processed(task, record.id().0, record.timestamp());
                }
                if let Some(fault) = self.fault_armed {
                    if fault.task == task && self.links[task].acked >= fault.after_acks {
                        self.fault_armed = None;
                        self.pending_kill = Some(task);
                    }
                }
            }
            Frame::Result { pair, ingest } => {
                let now = self.clock.wall_elapsed();
                self.collect(pair, ingest, now);
            }
            Frame::Results(results) => {
                let now = self.clock.wall_elapsed();
                for (pair, ingest) in results {
                    self.collect(pair, ingest, now);
                }
            }
            Frame::Snapshot {
                epoch,
                task: from,
                window,
            } => {
                // Decode before the publish-dedup insert: a corrupt
                // window must not permanently claim the `(epoch, task)`
                // slot, or the respawned node's clean re-publication
                // would be refused and the epoch could never commit.
                let Ok(entries) = decode_window_slice(&window) else {
                    return self.note_corrupt(task, true);
                };
                let Some(coordinator) = &self.coordinator else {
                    // A snapshot with no checkpointing armed is a
                    // protocol violation — classified, not a panic.
                    return self.note_corrupt(task, false);
                };
                // Publish-dedup: a restarted node reprocessing a barrier
                // re-sends its snapshot; the first publication stands.
                if self.published.insert((epoch, u64::from(from))) {
                    let t0 = Instant::now();
                    coordinator.publish(epoch, from as usize, &entries);
                    self.stages.record(Stage::Checkpoint, t0.elapsed());
                }
            }
            Frame::Done(report) => {
                self.links[task].done = Some(report);
            }
            Frame::HealthAck { .. } => {
                // The life sign itself was already recorded by `pump`
                // (any inbound frame updates `last_seen`); the echo only
                // feeds the counters.
                self.health_report.health_acks += 1;
            }
            // Hello, Config, Data, Restore, Eos, Heartbeat never flow
            // node→launcher: a decodable-but-misdirected frame is as
            // untrustworthy as an undecodable one.
            _ => return self.note_corrupt(task, false),
        }
        true
    }

    /// The sink: takes one result pair that arrived at run time `now`
    /// (`None` under logical time). Results touching a fence-shed record
    /// are excluded — the shed set defines the surviving records, and the
    /// reported join is exactly the join over survivors — and a pair seen
    /// before (reprocessing after a crash or chaos) is dropped by key.
    fn collect(&mut self, pair: MatchPair, ingest: Timestamp, now: Option<Duration>) {
        if self.any_fenced
            && (self.shed_ids.contains(&pair.earlier.0) || self.shed_ids.contains(&pair.later.0))
        {
            return;
        }
        if !self.seen.insert(pair.key()) {
            self.dup_results_dropped += 1;
            return;
        }
        if let Some(now) = now {
            let lat = now.saturating_sub(Duration::from_nanos(ingest.as_nanos()));
            self.latency.record(lat);
            self.stages.record(Stage::Emit, lat);
        }
        self.pairs.push(pair);
    }

    /// Retransmits overdue unacked frames with exponential backoff. Runs
    /// at every flush point and in every wait loop, so a link with nothing
    /// due costs one comparison against its `retry_due`; only a link past
    /// it is walked.
    fn service_timers(&mut self) {
        let retry = self.cfg.retry;
        let now = Instant::now();
        for task in 0..self.links.len() {
            if now < self.links[task].retry_due {
                continue;
            }
            let mut resend: Vec<(Vec<u8>, Duration)> = Vec::new();
            let mut next_due = now + retry.base_timeout;
            for (&seq, p) in self.links[task].unacked.iter_mut() {
                let age = now.duration_since(p.last_sent);
                if age >= retry.timeout_after(p.retries) {
                    p.last_sent = now;
                    p.retries += 1;
                    resend.push((p.sealed(seq), age));
                }
                next_due = next_due.min(p.last_sent + retry.timeout_after(p.retries));
            }
            self.links[task].retry_due = next_due;
            for (frame, age) in resend {
                self.retransmissions += 1;
                self.stages.record(Stage::Retry, age);
                self.transmit(task, frame);
            }
        }
    }

    /// The failure detector: probes idle wires with heartbeats and
    /// declares wires silent past the deadline suspect. Runs on the wall
    /// clock even under logical time — heartbeats go through
    /// `transmit_control`, which never advances the chaos ordinal or the
    /// wire digest, so detector cadence cannot perturb determinism.
    fn service_health(&mut self) {
        let Some(h) = self.cfg.health else {
            return;
        };
        let now = Instant::now();
        for task in 0..self.links.len() {
            if self.links[task].fenced || self.links[task].done.is_some() {
                continue;
            }
            if now.duration_since(self.links[task].hb_last) >= h.heartbeat_interval {
                self.links[task].hb_last = now;
                self.hb_nonce += 1;
                self.health_report.heartbeats_sent += 1;
                let frame = Frame::Heartbeat {
                    nonce: self.hb_nonce,
                    sent_at: self.wall_nanos(),
                }
                .encode_sealed()
                .expect("heartbeats are always encodable");
                self.transmit_control(task, frame);
                let _ = self.links[task].wire.flush();
            }
            let silent = now.duration_since(self.links[task].last_seen);
            if silent >= h.suspect_after {
                self.health_report.suspects += 1;
                self.health_report.detection_latency.record(silent);
                self.stages.record(Stage::Suspect, silent);
                self.health_events.push(Event::span(
                    self.wall_nanos(),
                    Stage::Suspect,
                    silent.as_nanos().min(u128::from(u64::MAX)) as u64,
                    task as u64,
                    silent.as_nanos().min(u128::from(u64::MAX)) as u64,
                ));
                self.recover_or_fence(task);
            }
        }
        if let Some(t) = self.pending_dead.take() {
            self.recover_or_fence(t);
        }
    }

    /// Sends a control frame (heartbeat) through the wire's chaos gate
    /// without advancing the data-transmission ordinal or the digest.
    fn transmit_control(&mut self, task: usize, frame: Vec<u8>) {
        self.put_on_wire(task, frame, ChaosLink::transmit_control);
    }

    /// A node is dead or suspect: respawn it while the recovery budget
    /// lasts, fence it once the budget is exhausted.
    fn recover_or_fence(&mut self, task: usize) {
        if self.links[task].fenced {
            return;
        }
        if let Some(max) = self.cfg.health.and_then(|h| h.recovery_budget) {
            if self.links[task].health_respawns >= max {
                self.fence(task);
                return;
            }
        }
        self.links[task].health_respawns += 1;
        self.health_report.respawns += 1;
        let t0 = Instant::now();
        self.kill_and_respawn(task);
        self.stages.record(Stage::Recover, t0.elapsed());
        self.health_events.push(Event::span(
            self.wall_nanos(),
            Stage::Recover,
            t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            task as u64,
            u64::from(self.links[task].health_respawns),
        ));
    }

    /// Degrade gracefully: abandon the task and shed its partition with
    /// exact recall accounting. Every record with any fenced target is
    /// shed whole from here on (see `dispatch`), the in-flight suffix is
    /// retroactively shed, and every past or future pair touching a shed
    /// record is filtered — so the reported join is *exactly* the join
    /// over surviving records, never a silent partial answer.
    fn fence(&mut self, task: usize) {
        assert!(
            !self.bistream,
            "fencing accounting is defined for self-joins only; \
             do not set a recovery budget on bi-stream runs"
        );
        if self.links[task].fenced {
            return;
        }
        self.links[task].fenced = true;
        self.any_fenced = true;
        self.health_report.fenced_tasks.push(task);
        if let NodeProc::Child(child) = &mut self.links[task].proc {
            // Free the OS process now; teardown reaps it. Thread nodes
            // exit when their wire drops at teardown.
            let _ = child.kill();
        }
        // Retroactively shed the in-flight suffix — every record inside
        // every unacked frame: whether the dead node processed those
        // records is unknowable, so they leave the surviving set entirely.
        let link = &mut self.links[task];
        let inflight: Vec<u64> = link
            .unacked
            .values()
            .flat_map(|p| carried_ids(&p.msg))
            .collect();
        link.unacked.clear();
        link.in_flight = 0;
        link.held_inbound.clear();
        let shed_now = inflight.len() as u64;
        self.shed_for_fence(inflight);
        self.stages.record(Stage::Fence, Duration::ZERO);
        self.health_events.push(Event::instant(
            self.wall_nanos(),
            Stage::Fence,
            task as u64,
            shed_now,
        ));
    }

    /// Removes `ids` from the surviving set on behalf of a fenced task
    /// and purges pairs already emitted with a now-shed endpoint; future
    /// arrivals are filtered in `collect`.
    fn shed_for_fence(&mut self, ids: impl IntoIterator<Item = u64>) {
        for id in ids {
            if self.shed_ids.insert(id) {
                self.shed_log.push(id);
            }
        }
        let shed_ids = &self.shed_ids;
        self.pairs
            .retain(|p| !shed_ids.contains(&p.earlier.0) && !shed_ids.contains(&p.later.0));
    }

    /// Consumes whatever `task` already delivered without blocking.
    /// Stops at the first corrupt frame: the poisoned remainder is
    /// discarded and recovery retransmits whatever it covered.
    fn drain_available(&mut self, task: usize) {
        while !self.links[task].poisoned {
            match self.links[task].wire.try_recv() {
                Ok(WireEvent::Frame(b)) => {
                    if !self.on_frame(task, &b) {
                        break;
                    }
                }
                _ => break,
            }
        }
    }

    /// Consumes the delivered prefix of a dead TCP node until the socket
    /// reports end of stream: everything it wrote before dying counts —
    /// up to the first corrupt frame, beyond which nothing does.
    fn drain_until_closed(&mut self, task: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !self.links[task].poisoned {
            match self.links[task]
                .wire
                .recv_timeout(Duration::from_millis(50))
            {
                Ok(WireEvent::Frame(b)) => {
                    if !self.on_frame(task, &b) {
                        break;
                    }
                }
                Ok(WireEvent::Closed(_)) | Err(_) => break,
                Ok(WireEvent::Idle) => {
                    if Instant::now() > deadline {
                        break;
                    }
                }
            }
        }
    }

    /// Kills (if still alive) and restarts one node: consume its
    /// delivered prefix, respawn, handshake with the resume sequence,
    /// replay lost index state, retransmit the unacked suffix.
    fn kill_and_respawn(&mut self, task: usize) {
        assert!(
            self.recovery.is_some(),
            "node {task} died but no fault/checkpoint/health machinery is enabled"
        );
        // Deliver any partition-held inbound frames first: they precede
        // whatever the drain below will surface, and skipping them would
        // punch holes in the contiguous unacked suffix the resume
        // sequence number is derived from. A poisoned incarnation's held
        // frames are discarded instead — an ack surviving a corrupted
        // result would cancel the retransmission that re-creates it.
        let held = std::mem::take(&mut self.links[task].held_inbound);
        if !self.links[task].poisoned {
            for b in held {
                if !self.on_frame(task, &b) {
                    break;
                }
            }
        }
        let mut old_thread = None;
        match std::mem::replace(&mut self.links[task].proc, NodeProc::Thread(None)) {
            NodeProc::Child(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
                // The kernel still holds the prefix the node wrote before
                // dying; consume it, then the reader reports Closed.
                self.drain_until_closed(task);
            }
            NodeProc::Thread(h) => {
                // In-process "kill": consume what is already delivered,
                // then drop the wire below — the node thread sees Closed
                // (or a failed send) and exits, its state dying with it.
                self.drain_available(task);
                old_thread = h;
            }
        }
        let (wire, proc_) = self.spawn_one(task);
        let old_wire = std::mem::replace(&mut self.links[task].wire, wire);
        self.links[task].proc = proc_;
        retire_batch_counters(&mut self.retired_batch_counters, old_wire.as_ref());
        drop(old_wire);
        if let Some(handle) = old_thread {
            let _ = handle.join();
        }
        self.links[task].incarnation = self
            .recovery
            .as_ref()
            .expect("asserted above")
            .begin_incarnation(task);

        let hello = read_hello(self.links[task].wire.as_mut()).expect("respawn handshake failed");
        assert_eq!(
            hello as usize, task,
            "respawned node announced the wrong task"
        );
        // Fresh incarnation: fresh liveness horizon, fresh trust.
        self.links[task].last_seen = Instant::now();
        self.links[task].hb_last = Instant::now();
        self.links[task].poisoned = false;
        // Unacked seqs form a contiguous suffix; the node resumes at its
        // lowest (or at next_seq when nothing is in flight).
        let resume = self.links[task]
            .unacked
            .keys()
            .next()
            .copied()
            .unwrap_or(self.links[task].next_seq);
        let config = self.node_config(task, resume);
        send_frame(self.links[task].wire.as_mut(), &Frame::Config(config))
            .expect("send respawn config");

        // Replay the lost index state: the committed snapshot (if any)
        // plus the replay-buffer suffix it does not cover, both applied
        // index-only ahead of any data (FIFO guarantees the order).
        let (snapshot, tail) = lost_state(
            self.recovery.as_ref().expect("asserted above"),
            self.coordinator.as_deref(),
            task,
        );
        if let Some((epoch, entries)) = snapshot {
            self.links[task].restored_from_epoch = Some(epoch);
            self.send_restore(task, &entries);
        }
        if !tail.is_empty() {
            self.send_restore(task, &tail);
        }

        // Retransmit the unacked suffix: original order, original seqs.
        let frames: Vec<Vec<u8>> = self.links[task]
            .unacked
            .iter()
            .map(|(&seq, p)| p.sealed(seq))
            .collect();
        let now = Instant::now();
        for p in self.links[task].unacked.values_mut() {
            p.last_sent = now;
        }
        self.retransmissions += frames.len() as u64;
        for frame in frames {
            self.transmit(task, frame);
        }
        if self.links[task].eos_sent {
            let _ = send_frame(self.links[task].wire.as_mut(), &Frame::Eos);
        }
        let _ = self.links[task].wire.flush();
    }

    fn send_restore(&mut self, task: usize, entries: &[SnapshotEntry]) {
        let window = encode_window_vec(entries).expect("window entries are always encodable");
        send_frame(self.links[task].wire.as_mut(), &Frame::Restore { window })
            .expect("send restore frame");
    }
}

/// The dispatcher's view of the cluster: the run clock, and per joiner a
/// sequenced at-least-once wire whose in-flight (sent-but-unacked)
/// messages are its backlog.
impl DispatchPort for Launcher<'_> {
    fn now(&mut self) -> Timestamp {
        self.clock.now()
    }

    fn backlog(&self, task: usize) -> usize {
        self.links[task].in_flight
    }

    fn reachable(&self, task: usize) -> bool {
        !self.links[task].fenced
    }

    /// Sends after bounding this wire's in-flight backlog at the channel
    /// capacity — the launcher-side equivalent of a bounded channel
    /// blocking the dispatcher. The bound is checked before the send, so
    /// a batch may overshoot it by less than its length.
    fn send(&mut self, task: usize, msg: JoinMsg) {
        loop {
            if self.links[task].fenced {
                // The target was fenced since these records were routed
                // (from inside this wait, or while they sat in a pending
                // batch): shed every one of them whole so the
                // surviving-set accounting stays exact. Their messages
                // already sent elsewhere are filtered at the sink.
                self.shed_for_fence(carried_ids(&msg));
                return;
            }
            if self.links[task].in_flight < self.cfg.channel_capacity {
                break;
            }
            self.pump(Duration::from_micros(200), Some(task));
            self.service_timers();
            self.service_health();
        }
        self.send_data(task, msg);
    }

    fn routed(&mut self, _payload: &RecordMsg, _fanout: usize) {
        self.stages
            .record(Stage::Route, self.record_started.elapsed());
    }
}

/// Reads the node's `Hello` — the one unsealed frame — off a fresh wire
/// and returns its task index. A peer announcing any protocol version
/// but [`PROTO_VERSION`] is refused: every later frame is sealed, and a
/// peer that disagrees about that would misparse the first one.
fn read_hello(wire: &mut dyn Wire) -> io::Result<u32> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match wire.recv_timeout(Duration::from_millis(200))? {
            WireEvent::Frame(b) => match Frame::decode(&b)? {
                Frame::Hello { proto, task } => {
                    if proto != PROTO_VERSION {
                        return Err(proto_err(format!(
                            "node speaks protocol {proto}, launcher speaks {PROTO_VERSION}"
                        )));
                    }
                    return Ok(task);
                }
                other => return Err(proto_err(format!("expected Hello, got {other:?}"))),
            },
            WireEvent::Idle => {
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "node never said hello",
                    ));
                }
            }
            WireEvent::Closed(_) => return Err(proto_err("node closed during handshake")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::ReplayEntry;
    use ssj_core::Window;
    use ssj_text::{RecordId, TokenId};
    use stormlite::ChannelWire;

    fn rec(id: u64, tokens: &[u32]) -> Record {
        let tokens = tokens.iter().copied().map(TokenId).collect();
        Record::from_sorted(RecordId(id), id, tokens)
    }

    /// Message `id` of a stream of identical records: each one matches
    /// every earlier one.
    fn msg(id: u64) -> JoinMsg {
        JoinMsg::ProbeAndIndex(RecordMsg::solo(rec(id, &[1, 2, 3]), Timestamp::ZERO))
    }

    fn batch(ids: std::ops::Range<u64>) -> JoinMsg {
        JoinMsg::Batch(ids.map(msg).collect())
    }

    fn test_config(k: usize) -> ClusterConfig {
        ClusterConfig::recommended(k, JoinConfig::jaccard(0.7), ClusterBackend::InProcess)
    }

    /// A launcher wired to `cfg.k` channel wires whose node ends the test
    /// holds — the test plays every node. `chaos` goes on task 0's link.
    fn launcher(cfg: &ClusterConfig, chaos: Option<ChaosLink>) -> (Launcher<'_>, Vec<ChannelWire>) {
        let mut launcher = Launcher::new(Vec::new(), false, cfg);
        let mut chaos = chaos;
        let mut nodes = Vec::new();
        for _ in 0..cfg.k {
            let (ours, theirs) = stormlite::channel_wire_pair(64);
            launcher.links.push(NodeLink::new(
                Box::new(ours),
                NodeProc::Thread(None),
                chaos.take(),
                Vec::new(),
            ));
            nodes.push(theirs);
        }
        (launcher, nodes)
    }

    fn sealed(frame: &Frame) -> Vec<u8> {
        frame.encode_sealed().unwrap()
    }

    /// The next frame waiting on `wire`, if any.
    fn next_frame(wire: &mut dyn Wire) -> Option<Frame> {
        match wire.try_recv().unwrap() {
            WireEvent::Frame(b) => Some(Frame::decode_checked(&b, true).unwrap()),
            _ => None,
        }
    }

    #[test]
    fn the_in_flight_bound_and_the_backlog_count_messages_not_frames() {
        let mut cfg = test_config(1);
        cfg.channel_capacity = 4;
        let (mut l, mut nodes) = launcher(&cfg, None);
        l.send(0, batch(0..3));
        assert_eq!(l.backlog(0), 3);
        // 3 < 4, so the next batch goes out and overshoots the bound by
        // less than its length.
        l.send(0, batch(3..6));
        assert_eq!((l.backlog(0), l.links[0].unacked.len()), (6, 2));
        // 6 >= 4: the third send has to wait for the first batch's ack,
        // which takes three messages out of flight at once. The wait is on
        // this wire, so the queued ack ends it.
        nodes[0].send(&sealed(&Frame::Ack { seq: 0 })).unwrap();
        l.send(0, msg(6));
        assert_eq!((l.backlog(0), l.links[0].unacked.len()), (4, 2));
        assert_eq!(l.links[0].acked, 3);
        assert_eq!((l.routed_messages, l.links[0].next_seq), (7, 3));
        // What reached the node: three sequenced frames, 3 + 3 + 1.
        let sizes: Vec<(u64, usize)> = std::iter::from_fn(|| next_frame(&mut nodes[0]))
            .map(|f| match f {
                Frame::Data { seq, msg } => (seq, carried(&msg).len()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(sizes, vec![(0, 3), (1, 3), (2, 1)]);
    }

    #[test]
    fn an_ack_counts_its_messages_and_moves_the_watermark_once_to_the_last_record() {
        let mut cfg = test_config(1);
        cfg.fault = Some(ClusterFault {
            task: 0,
            after_acks: 5,
        });
        let (mut l, _nodes) = launcher(&cfg, None);
        let recovery = Arc::new(RecoveryState::new(1, Window::Unbounded));
        for id in 0..6 {
            let payload = RecordMsg::solo(rec(id, &[1, 2, 3]), Timestamp::ZERO);
            recovery.buffer_index_target(0, ReplayEntry::from_payload(&payload));
        }
        l.recovery = Some(Arc::clone(&recovery));
        l.send(0, batch(0..3));
        l.send(0, batch(3..6));
        assert!(recovery.replay_for(0).is_empty(), "nothing acked yet");

        assert!(l.on_frame(0, &sealed(&Frame::Ack { seq: 0 })));
        assert_eq!(l.links[0].acked, 3);
        assert_eq!(l.pending_kill, None, "3 messages acked, the horizon is 5");
        let replay: Vec<u64> = recovery
            .replay_for(0)
            .iter()
            .map(|e| e.record.id().0)
            .collect();
        assert_eq!(
            replay,
            vec![0, 1, 2],
            "watermark at the batch's last record"
        );

        // The second ack crosses the horizon mid-batch: the kill lands
        // where an unbatched run's sixth ack would have put it, at most a
        // batch late, never early.
        assert!(l.on_frame(0, &sealed(&Frame::Ack { seq: 1 })));
        assert_eq!(l.links[0].acked, 6);
        assert_eq!(l.pending_kill, Some(0));
        assert_eq!(recovery.replay_for(0).len(), 6);
        // A re-ack changes nothing.
        assert!(l.on_frame(0, &sealed(&Frame::Ack { seq: 1 })));
        assert_eq!((l.links[0].acked, l.backlog(0)), (6, 0));
    }

    #[test]
    fn fencing_sheds_every_record_of_an_in_flight_batch_and_of_a_refused_one() {
        let cfg = test_config(2);
        let (mut l, _nodes) = launcher(&cfg, None);
        let pair = |earlier: u64, later: u64| MatchPair {
            earlier: RecordId(earlier),
            later: RecordId(later),
            similarity: 1.0,
        };
        let results = vec![
            (pair(0, 1), Timestamp::ZERO),
            (pair(0, 4), Timestamp::ZERO),
            (pair(7, 8), Timestamp::ZERO),
        ];
        // One clock read per `Results` frame, every pair through the sink.
        assert!(l.on_frame(1, &sealed(&Frame::Results(results.clone()))));
        assert_eq!(l.pairs.len(), 3);
        assert!(l.on_frame(1, &sealed(&Frame::Results(results))));
        assert_eq!((l.pairs.len(), l.dup_results_dropped), (3, 3));

        l.send(0, batch(1..4));
        l.send(
            0,
            JoinMsg::Barrier {
                epoch: 1,
                injected_at: Timestamp::ZERO,
            },
        );
        l.fence(0);
        assert_eq!(l.shed_log, vec![1, 2, 3], "every id of the in-flight batch");
        assert_eq!(l.backlog(0), 0);
        assert_eq!(l.pairs.len(), 2, "the pair touching record 1 is purged");

        // A batch routed before the fence but framed after it is refused
        // whole, and pairs its records already produced elsewhere go too.
        l.send(0, batch(4..6));
        assert_eq!(l.shed_log, vec![1, 2, 3, 4, 5]);
        assert_eq!(
            l.links[0].next_seq, 2,
            "nothing was framed for a fenced task"
        );
        assert_eq!(
            l.pairs.iter().map(MatchPair::key).collect::<Vec<_>>(),
            vec![(7, 8)]
        );
        // And what arrives later for a shed record is filtered.
        let late = Frame::Result {
            pair: pair(5, 9),
            ingest: Timestamp::ZERO,
        };
        assert!(l.on_frame(1, &sealed(&late)));
        assert_eq!(l.pairs.len(), 1);
    }

    #[test]
    fn an_outage_window_counts_one_transmission_per_batch() {
        let cfg = test_config(1);
        let window = ChaosWindow { after: 1, len: 1 };
        let chaos = ChaosLink::from_outages(vec![LinkOutage::Partition {
            window,
            two_way: false,
        }]);
        let (mut l, mut nodes) = launcher(&cfg, Some(chaos));
        l.send(0, batch(0..8)); // transmission 1
        l.send(0, batch(8..16)); // transmission 2: inside the window
        l.send(0, msg(16)); // transmission 3
        let seqs: Vec<u64> = std::iter::from_fn(|| next_frame(&mut nodes[0]))
            .map(|f| match f {
                Frame::Data { seq, .. } => seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            seqs,
            vec![0, 2],
            "exactly the second frame was dropped, whole"
        );
        let (_, dropped) = l.links[0].chaos.as_ref().unwrap().outage_counters();
        assert_eq!(dropped, 1);
        assert_eq!(l.backlog(0), 17, "the dropped batch is still in flight");
    }

    #[test]
    fn wire_digests_fold_only_under_logical_time_and_a_retransmission_repeats_the_bytes() {
        let mut cfg = test_config(1);
        let (mut l, _nodes) = launcher(&cfg, None);
        l.send(0, batch(0..4));
        assert_eq!(
            l.links[0].digest, FNV_OFFSET,
            "wall-clock runs report no digest"
        );
        // A retransmission carries the bytes of the first transmission.
        let first = Frame::Data {
            seq: 0,
            msg: batch(0..4),
        };
        assert_eq!(l.links[0].unacked[&0].sealed(0), sealed(&first));
        drop(l);

        cfg.logical_time = true;
        let (mut l, _nodes) = launcher(&cfg, None);
        l.send(0, batch(0..4));
        assert_eq!(
            l.links[0].digest,
            fnv1a(FNV_OFFSET, &first.encode().unwrap())
        );
    }

    /// Plays launcher to `node_serve` over a channel wire and returns the
    /// node's replies to `frames`, in order, plus how the node ended.
    fn serve(frames: Vec<Frame>) -> (Vec<Frame>, io::Result<()>) {
        let (mut wire, mut node_wire) = stormlite::channel_wire_pair(256);
        let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
        assert_eq!(read_hello(&mut wire).unwrap(), 0);
        let cfg = test_config(1);
        let mut config = Launcher::new(Vec::new(), false, &cfg).node_config(0, 0);
        config.algo = LocalAlgo::PpJoin;
        send_frame(&mut wire, &Frame::Config(config)).unwrap();
        for f in &frames {
            send_frame(&mut wire, f).unwrap();
        }
        // A node that already died of a protocol error is not listening.
        let _ = send_frame(&mut wire, &Frame::Eos);
        let mut replies = Vec::new();
        loop {
            match wire.recv_timeout(Duration::from_secs(20)).unwrap() {
                WireEvent::Frame(b) => match Frame::decode_checked(&b, true).unwrap() {
                    Frame::Done(_) => break,
                    f => replies.push(f),
                },
                WireEvent::Closed(_) => break,
                WireEvent::Idle => panic!("node went quiet"),
            }
        }
        drop(wire);
        (replies, node.join().unwrap())
    }

    fn kinds(replies: &[Frame]) -> String {
        replies
            .iter()
            .map(|f| match f {
                Frame::Result { .. } => "r".to_string(),
                Frame::Results(pairs) => format!("R{}", pairs.len()),
                Frame::Ack { seq } => format!("a{seq}"),
                other => panic!("unexpected {other:?}"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn a_node_answers_a_message_pair_by_pair_and_a_batch_with_one_results_frame() {
        let data = |seq, msg| Frame::Data { seq, msg };
        // Unbatched in: `Result`*, then the `Ack` — the shape the layer
        // probe in `perf/` speaks.
        let (replies, end) = serve((0..4).map(|i| data(i, msg(i))).collect());
        end.unwrap();
        assert_eq!(kinds(&replies), "a0 r a1 r r a2 r r r a3");

        // Batch in: at most one `Results` (none when the batch found no
        // pair), then exactly one `Ack`; batched and unbatched frames mix
        // on one wire, and the pairs are the same 0 + 1 + 2 + 3 + 4.
        let unlike = RecordMsg::solo(rec(0, &[7, 8, 9]), Timestamp::ZERO);
        let (replies, end) = serve(vec![
            data(0, JoinMsg::Batch(vec![JoinMsg::Index(unlike)])),
            data(1, batch(1..4)),
            data(2, msg(4)),
            data(3, batch(5..6)),
        ]);
        end.unwrap();
        assert_eq!(kinds(&replies), "a0 R3 a1 r r r a2 R4 a3");
        let Frame::Results(pairs) = &replies[1] else {
            unreachable!("checked by kinds")
        };
        let keys: Vec<_> = pairs.iter().map(|(p, _)| p.key()).collect();
        assert_eq!(keys, vec![(1, 2), (1, 3), (2, 3)], "probe order");
    }

    #[test]
    fn a_barrier_or_result_inside_a_batch_is_a_protocol_error() {
        let barrier = JoinMsg::Barrier {
            epoch: 1,
            injected_at: Timestamp::ZERO,
        };
        let result = JoinMsg::Result {
            pair: MatchPair {
                earlier: RecordId(0),
                later: RecordId(1),
                similarity: 1.0,
            },
            ingest: Timestamp::ZERO,
        };
        for intruder in [barrier, result] {
            let frame = Frame::Data {
                seq: 0,
                msg: JoinMsg::Batch(vec![msg(0), intruder, msg(1)]),
            };
            let (replies, end) = serve(vec![frame]);
            assert!(
                replies.is_empty(),
                "neither results nor an ack: {replies:?}"
            );
            assert_eq!(end.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        // A nested batch does not even decode.
        let nested = JoinMsg::Batch(vec![JoinMsg::Batch(vec![msg(0)])]);
        let (replies, end) = serve(vec![Frame::Data {
            seq: 0,
            msg: nested,
        }]);
        assert!(replies.is_empty());
        assert_eq!(end.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    /// There is one protocol version: a peer announcing an older or a
    /// newer one is refused at the `Hello`, with an error naming both.
    #[test]
    fn a_hello_of_any_other_protocol_version_is_refused() {
        for proto in [PROTO_VERSION - 1, PROTO_VERSION + 1] {
            let (mut launcher, mut node) = stormlite::channel_wire_pair(4);
            let hello = Frame::Hello { proto, task: 0 };
            node.send(&hello.encode().unwrap()).unwrap();
            node.flush().unwrap();
            let err = read_hello(&mut launcher).expect_err("version mismatch must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("protocol {proto}"))
                    && msg.contains(&format!("speaks {PROTO_VERSION}")),
                "the refusal should name both versions: {msg}"
            );
        }
        let (mut launcher, mut node) = stormlite::channel_wire_pair(4);
        let hello = Frame::Hello {
            proto: PROTO_VERSION,
            task: 5,
        };
        node.send(&hello.encode().unwrap()).unwrap();
        node.flush().unwrap();
        assert_eq!(read_hello(&mut launcher).unwrap(), 5);
    }
}
