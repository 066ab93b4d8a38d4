//! Real-cluster execution: k joiner processes over sockets, one launcher.
//!
//! [`run_cluster`] / [`run_cluster_bistream`] run the same logical
//! topology as [`crate::driver::run_distributed`] — a dispatcher pulling
//! the source, feeding k joiners — but split it at the process boundary:
//! the launcher keeps the source, the dispatcher (router, shed watermark, recovery buffers,
//! checkpoint coordinator) and collects the results, while each joiner
//! runs behind one [`stormlite::Wire`]. The dispatch and join algorithms are
//! the ones the topology runs (the crate's `operators` module); this is the
//! run-time around them — sequenced sessions and supervision. Two
//! backends are interchangeable:
//!
//! * [`ClusterBackend::InProcess`] — joiners are threads behind channel
//!   wires. Same protocol, no sockets; this is the reference the TCP
//!   backend is differentially tested against.
//! * [`ClusterBackend::Tcp`] — joiners are real `ssj-node` OS processes
//!   connected over localhost TCP (ephemeral ports, see
//!   [`stormlite::listen_loopback`]).
//!
//! # Sessions: reliable FIFO within an incarnation, fail-stop across
//!
//! A `Data{seq, msg}` frame is one sequenced unit with a per-connection
//! sequence number. It carries either one routed [`JoinMsg`] or, with
//! [`JoinSpec::dispatch_batch`] set, one [`JoinMsg::Batch`] of up to
//! that many record-bearing messages for this wire in dispatch order —
//! encoded once, sealed with one CRC, tracked by one `unacked` entry.
//! Barriers always travel alone: the dispatcher flushes its pending
//! batches ahead of every barrier.
//!
//! Both backends are reliable FIFO while a node lives (a TCP connection,
//! an in-process channel), so a node takes every `Data` frame in `seq`
//! order and anything else — a gap, a repeated seq, a checksum mismatch —
//! is a protocol error that ends the node. The launcher treats that like
//! any other break (a close, a corrupt inbound frame, a suspect): the node
//! is killed and respawned, and its session resumes (see *Crash recovery*).
//! There is no retransmission timer: an unacked frame is resent only to a
//! respawned node.
//!
//! A node answers a batch with at most one `Results` frame (all of the
//! batch's pairs, in probe order; nothing when there were none) and a
//! message that arrived outside a batch result by result, one `Result`
//! frame per pair; either way every result/snapshot frame a unit produces
//! is written *before* its single `Ack{seq}` on the same FIFO stream.
//! Because acks follow results in FIFO order, a received ack proves every
//! result of everything that frame carried arrived, so **results and
//! snapshots are published at the ack that covers them**: until then they
//! wait staged on their link, and a link whose incarnation dies or is
//! poisoned discards what it staged. Any output lost that way belongs to
//! an unacked frame, which the next incarnation reprocesses, so each pair
//! and each epoch snapshot is published exactly once, with no dedup. This
//! is the one seq/ack layer in the workspace — a topology's in-process
//! wires are plain FIFO channels and need none.
//!
//! # What is counted in messages, and what in frames
//!
//! Batching changes how many frames move, not what the knobs mean:
//!
//! * the in-flight bound ([`ClusterConfig::channel_capacity`]) and the
//!   backlog the shed watermark reads count routed *messages*, a batch
//!   counting its length — so `shed_watermark` and memory keep their
//!   scale, and one batch may overshoot the bound by less than its length;
//! * a [`Fault`](crate::Fault) keys on the wire seq, one per `Data` frame
//!   — a batch or a barrier counts once, as a topology joiner counts the
//!   tuple that carries it;
//! * the recovery watermark moves once per ack, to the last record the
//!   acked frame carried.
//!
//! [`ClusterResult::routed_messages`] ÷ [`ClusterResult::data_frames`] is
//! what batching amortised.
//!
//! # Crash recovery
//!
//! When a node dies (a scripted crash, or a socket failure), the
//! launcher consumes whatever the node managed to deliver —
//! TCP hands over the written prefix in order, so every ack, result and
//! snapshot the node emitted before dying still counts — then restarts
//! the node, replays its lost index state over one [`Frame::Restore`]
//! (the replay buffer's in-window records up to the watermark, index-only
//! exactly like the in-process replay path) and resends the unacked
//! frames in their original order under their original sequence numbers —
//! whole batches, as first framed. A respawn also closes every outage
//! window open on that wire, so a drill that blocks a wire costs one
//! respawn. The restored state equals the state
//! after the acked prefix, which always ends on a frame boundary, so
//! reprocessing the unacked suffix is bit-exact. A node that dies mid-batch has sent neither
//! that batch's `Results` nor its ack, so the batch is reprocessed whole:
//! the cost of a mid-batch death is at most one batch of repeated join
//! work per wire, and a `Results` frame that was delivered without its ack
//! is discarded with its incarnation and published from the next one.
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
//! flush contract in [`stormlite::transport`]), which flushes itself at
//! [`stormlite::BATCH_MAX_FRAMES`] frames or [`stormlite::BATCH_MAX_BYTES`]
//! bytes. Pending batches are *framed* every `BATCH_MAX_FRAMES`-th source
//! record, ahead of every barrier and before the drain — by record count
//! alone, so batch cuts never depend on timing — with the housekeeping
//! (poll, failure detector) at the same points. A link
//! is *written* by `write_link`, the launcher's only explicit flush, when:
//!
//! * the messages framed onto it since its last write reach half its
//!   window — [`ClusterConfig::channel_capacity`], or a lower shed
//!   watermark, whose backlog must be mostly written for acks to drain it;
//! * a checkpoint barrier is framed on it, so no epoch waits on its traffic;
//! * the launcher is about to wait (backpressure, drain, `Eos`, respawn)
//!   or sends a heartbeat.
//!
//! The price: a sparse link's frames wait for half a window of its own
//! traffic or the next wait — at worst the drain.
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
//! across wires, the failure detector fires on real time, and wall-clock
//! latencies vary run to run. The determinism contract is therefore:
//! per-wire outbound frame bytes (under logical time) and the final
//! *result set* are exact; arrival order and timing metrics are not —
//! which is why every cross-process test compares sorted pair sets, never
//! transcripts of arrival.

use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::{LatencyHistogram, MetricsSnapshot, Stage, StageProfile};
use ssj_core::snapshot::{decode_window_slice, encode_window_vec};
use ssj_core::{JoinConfig, MatchPair, Threshold};
use ssj_text::Record;
use stormlite::{CloseReason, IntegrityReport, TcpWire, Timestamp, Wire, WireEvent};

use crate::bolts::JoinerSnapshot;
use crate::checkpoint::CheckpointCoordinator;
use crate::driver::{Input, JoinSpec};
use crate::fault::Gate;
use crate::msg::{JoinMsg, RecordMsg};
use crate::operators::{DispatchPort, Dispatched, Joiner};
use crate::recovery::RecoveryState;
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

/// Heartbeat-driven failure detection and bounded self-healing.
///
/// The launcher treats *any* inbound frame as a life sign, so a busy node
/// acking data never trips the detector; heartbeats only force traffic on
/// an otherwise idle wire. A wire silent for longer than `suspect_after`
/// is declared suspect and recovered (kill + respawn + session resume
/// under the original sequence numbers). It is the only wall-clock
/// deadline the launcher keeps, and the only thing that ends an outage
/// which blocks a wire: [`run_cluster`] refuses scripted outages without
/// it. The detector runs on the wall clock even under
/// [`ClusterConfig::logical_time`] — heartbeat frames are never folded
/// into wire digests, so detector timing cannot perturb the deterministic
/// outbound data stream.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Probe an idle wire with a [`Frame::Heartbeat`] this often.
    pub heartbeat_interval: Duration,
    /// Declare a node suspect after this long without any inbound frame.
    pub suspect_after: Duration,
    /// Respawns allowed per task before the run fails: the launcher tears
    /// the cluster down and panics naming the task, so a run never returns
    /// a partial answer. `None` = recover forever.
    pub recovery_budget: Option<u32>,
}

impl HealthConfig {
    /// Defaults tuned for localhost wires: probe every 25ms, suspect
    /// after 250ms of silence, respawn as often as it takes.
    pub fn recommended() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(25),
            suspect_after: Duration::from_millis(250),
            recovery_budget: None,
        }
    }
}

/// How the launcher runs a [`JoinSpec`]: with `k` nodes (= joiner tasks)
/// behind sequenced, acknowledged wires.
#[derive(Clone)]
pub struct ClusterConfig {
    /// The join to run; the launcher hosts its dispatcher (routing,
    /// shedding, checkpoint coordination, restore) and sink.
    pub spec: JoinSpec,
    /// Where joiners run.
    pub backend: ClusterBackend,
    /// Per-wire in-flight bound in sent-but-unacked messages (a batch
    /// counts its length) — the cluster analogue of the in-process bounded
    /// channel capacity. Half of it (or of a lower `shed_watermark`) is
    /// the write unit: messages framed on a link before it is written.
    pub channel_capacity: usize,
    /// Heartbeat liveness detection and recovery budgets; the spec's
    /// outage windows need it, since its detector ends an outage that
    /// blocks a wire.
    pub health: Option<HealthConfig>,
    /// Stamp ingest/barrier times from a logical counter instead of the
    /// wall clock, making each wire's outbound data stream
    /// byte-deterministic (the golden-transcript mode). Latency metrics
    /// are meaningless under logical time and are skipped.
    pub logical_time: bool,
}

impl ClusterConfig {
    /// [`JoinSpec::recommended`] with its data path batched at
    /// [`stormlite::BATCH_MAX_FRAMES`] messages per frame, on `backend`.
    pub fn recommended(k: usize, join: JoinConfig, backend: ClusterBackend) -> Self {
        let spec = JoinSpec {
            dispatch_batch: Some(stormlite::BATCH_MAX_FRAMES),
            ..JoinSpec::recommended(k, join)
        };
        Self::new(spec, backend)
    }

    /// Runs `spec` on `backend` with 256 messages in flight per wire, and
    /// no failure detector.
    pub fn new(spec: JoinSpec, backend: ClusterBackend) -> Self {
        Self {
            spec,
            backend,
            channel_capacity: 256,
            health: None,
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
    /// Result pairs discarded unacked with a dead or poisoned incarnation:
    /// its node sent them but not the ack that would have published them.
    /// The respawned node reprocesses their frame and publishes them then.
    pub dup_results_dropped: u64,
    /// Frames resent to respawned nodes: each respawn resends its wire's
    /// unacked suffix under the original seqs. 0 on a run that respawned
    /// nothing.
    pub retransmissions: u64,
    /// Messages the dispatcher routed onto the wires (barriers included),
    /// a batch counting its length.
    pub routed_messages: u64,
    /// Sequenced `Data` frames those messages first left in, summed over
    /// the wires; `routed_messages / data_frames` is what
    /// [`JoinSpec::dispatch_batch`] amortised.
    pub data_frames: u64,
    /// Frames the launcher queued on its wires, every kind and every
    /// incarnation (0 on the in-process backend, which does not batch).
    pub frames_sent: u64,
    /// Write batches those frames left in — one `write(2)` each over TCP;
    /// `frames_sent / wire_flushes` is the coalescing ratio.
    pub wire_flushes: u64,
    /// Checkpoint epochs committed during the run.
    pub epochs_committed: u64,
    /// Launcher-side per-stage latencies (dispatch, route, deliver, emit,
    /// checkpoint, recover): the cluster's one per-stage record.
    pub stages: StageProfile,
    /// End-to-end dispatch→result latency (empty under logical time): a
    /// copy of `stages`' emit histogram, taken at teardown.
    pub latency: LatencyHistogram,
    /// Per-wire FNV-1a digest of first-transmission data-frame bytes, in
    /// sequence order — present only under `logical_time`, where that
    /// stream is deterministic (see the module docs for what is not).
    pub wire_digests: Option<Vec<u64>>,
    /// Liveness and self-healing counters.
    pub health: HealthReport,
    /// End-to-end integrity counters: inbound frames rejected as corrupt
    /// (checksum mismatch, undecodable body, or a protocol-violating frame
    /// kind — each one poisons its incarnation and triggers recovery
    /// instead of a panic), plus storage-side quarantines and
    /// verified-restore fallbacks.
    pub integrity: IntegrityReport,
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
                "Records shed at the shed watermark",
                self.shed_records.len() as u64,
            ),
            (
                "dssj_cluster_dup_results_dropped_total",
                "Result pairs discarded unacked with a dead or poisoned incarnation",
                self.dup_results_dropped,
            ),
            (
                "dssj_cluster_retransmissions_total",
                "Frames resent to respawned nodes",
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
                self.integrity.corrupt_frames,
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
    Launcher::new(cfg).run(Input::SelfJoin(records))
}

/// Runs a bi-stream (R–S) join on a cluster: the two streams are merged
/// into one arrival order by record id, exactly like the in-process
/// driver.
pub fn run_cluster_bistream(
    left: &[Record],
    right: &[Record],
    cfg: &ClusterConfig,
) -> ClusterResult {
    Launcher::new(cfg).run(Input::Bistream(left, right))
}

// ---------------------------------------------------------------------------
// Node side
// ---------------------------------------------------------------------------

/// Bound on a TCP node's inbound frame queue. The launcher's in-flight
/// cap ([`ClusterConfig::channel_capacity`]) is the tight bound; past
/// this one the node's socket reader stops, the TCP window closes, and the
/// backpressure reaches the launcher and its shed watermark.
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
            "a barrier or batch inside a batch is not a message for a node",
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
/// with at most one `Results` frame, announcing the probes behind each
/// sub-message before it runs ([`Joiner::prefetch_batch`]); a message
/// outside a batch is answered result by result.
fn node_apply(joiner: &mut Joiner, task: u32, msg: JoinMsg, wire: &mut dyn Wire) -> io::Result<()> {
    match msg {
        JoinMsg::Barrier { epoch, .. } => {
            let window = joiner.encode_snapshot();
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
            for (i, m) in msgs.iter().enumerate() {
                joiner.prefetch_batch(&msgs, i);
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
                Frame::Heartbeat => {
                    // Answer immediately and flush: the probe exists to
                    // make an idle-but-alive wire visible, so it must not
                    // sit in the outbound batch.
                    send_frame(wire, &Frame::HealthAck)?;
                    wire.flush()?;
                }
                Frame::Data { seq, msg } => {
                    // A live wire is reliable FIFO: a gap or a repeat
                    // means it broke, and this incarnation ends here.
                    if seq != next_seq {
                        return Err(proto_err(format!(
                            "Data seq {seq} where seq {next_seq} was next"
                        )));
                    }
                    node_apply(&mut joiner, cfg.task, msg, wire)?;
                    send_frame(wire, &Frame::Ack { seq })?;
                    next_seq += 1;
                }
                Frame::Restore { window } => joiner.restore(&decode_window_slice(&window)?),
                Frame::Eos => {
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
                                if let Ok(Frame::Heartbeat) = Frame::decode_checked(&b, true) {
                                    send_frame(wire, &Frame::HealthAck)?;
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

/// The sealed `Data` frame that carries `msg` as `seq`.
fn sealed(seq: u64, msg: &JoinMsg) -> Vec<u8> {
    stormlite::seal(encode_data(seq, msg).expect("data frames are always encodable"))
}

/// The routed messages one data frame carries: a batch's, or the message
/// itself.
fn carried(msg: &JoinMsg) -> &[JoinMsg] {
    match msg {
        JoinMsg::Batch(msgs) => msgs,
        msg => std::slice::from_ref(msg),
    }
}

struct NodeLink {
    wire: Box<dyn Wire>,
    proc: NodeProc,
    next_seq: u64,
    /// Sent-but-unacknowledged frames — one message, or one batch — by
    /// sequence number. Acks arrive in order (the node processes in order
    /// over FIFO wires), so this is always a contiguous suffix of the
    /// sequence space.
    unacked: BTreeMap<u64, JoinMsg>,
    /// Messages those frames carry — what the in-flight bound and the shed
    /// watermark count.
    in_flight: usize,
    /// Messages framed on this link since its last write (the half-window
    /// write rule).
    unwritten: usize,
    /// What this incarnation sent ahead of an ack not yet received: result
    /// pairs, and the validated window bytes of a barrier's snapshot (a
    /// barrier travels alone, so at most one) with its epoch and task. The ack
    /// that removes an `unacked` entry publishes them; a respawn discards
    /// them.
    staged: Vec<(MatchPair, Timestamp)>,
    staged_snapshot: Option<(u64, usize, Vec<u8>)>,
    /// The spec's faults on this wire, if any name its task.
    gate: Option<Box<Gate>>,
    incarnation: u64,
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
    /// This incarnation is over — it closed, failed a send, sent a frame
    /// the launcher rejected, or reached its scripted kill — and is
    /// respawned at the end of the current pass.
    dead: bool,
    /// A corrupt frame arrived from this incarnation: everything else it
    /// sends is untrustworthy (an ack surviving a corrupted result would
    /// cancel the resend that re-creates the result), so the
    /// remaining inbound backlog is discarded instead of drained during
    /// the respawn. Cleared once the fresh incarnation is up.
    poisoned: bool,
}

impl NodeLink {
    /// A link to a freshly spawned node: nothing sent, nothing seen.
    fn new(wire: Box<dyn Wire>, proc: NodeProc, gate: Option<Box<Gate>>) -> Self {
        let now = Instant::now();
        Self {
            wire,
            proc,
            next_seq: 0,
            unacked: BTreeMap::new(),
            in_flight: 0,
            unwritten: 0,
            staged: Vec::new(),
            staged_snapshot: None,
            gate,
            incarnation: 0,
            digest: FNV_OFFSET,
            eos_sent: false,
            done: None,
            last_seen: now,
            hb_last: now,
            held_inbound: Vec::new(),
            health_respawns: 0,
            dead: false,
            poisoned: false,
        }
    }

    /// Whether a scripted crash is due on this wire: messages are acked
    /// in order, so the acked ones are those below the oldest unacked seq.
    fn crash_due(&mut self) -> bool {
        let Some(gate) = &mut self.gate else {
            return false;
        };
        let acked = self.unacked.keys().next().copied().unwrap_or(self.next_seq);
        gate.crash_due(acked, self.next_seq)
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

/// Closes a node's wire, which releases the node, and reaps it: joins its
/// thread, or waits for its process — killed first when `kill` is set.
fn close_node(wire: Box<dyn Wire>, proc_: NodeProc, kill: bool) {
    drop(wire);
    match proc_ {
        NodeProc::Thread(Some(handle)) => {
            let _ = handle.join();
        }
        NodeProc::Thread(None) => {}
        NodeProc::Child(mut child) => {
            if kill {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
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
    needs_dedup: bool,
    recovery: Option<Arc<RecoveryState>>,
    coordinator: Option<Arc<CheckpointCoordinator>>,
    links: Vec<NodeLink>,
    listener: Option<TcpListener>,
    clock: RunClock,
    // Sink state.
    pairs: Vec<MatchPair>,
    dup_results_dropped: u64,
    // Metrics and control.
    stages: StageProfile,
    /// When dispatch of the current source record began.
    record_started: Instant,
    retransmissions: u64,
    /// Messages handed to `send_data`, a batch counting its length.
    routed_messages: u64,
    /// Batch counters of wires already replaced by a respawn.
    retired_batch_counters: (u64, u64),
    shed_log: Vec<u64>,
    // Health / self-healing state.
    health_report: HealthReport,
    /// Wire-frame rejections so far; storage-side counters join at the end.
    integrity: IntegrityReport,
}

impl<'a> Launcher<'a> {
    fn new(cfg: &'a ClusterConfig) -> Self {
        let (k, faults) = (cfg.spec.k, &cfg.spec.faults);
        assert!(
            faults.iter().all(|f| f.task < k),
            "a fault names a task outside 0..{k}"
        );
        assert!(
            cfg.health.is_some() || !faults.iter().any(|f| f.kind.needs_wire()),
            "scripted outages need the failure detector: a wire an outage \
             blocks is healed only by a suspect's respawn (set ClusterConfig::health)"
        );
        Self {
            cfg,
            bistream: false,
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
            dup_results_dropped: 0,
            stages: StageProfile::new(),
            record_started: Instant::now(),
            retransmissions: 0,
            routed_messages: 0,
            retired_batch_counters: (0, 0),
            shed_log: Vec::new(),
            health_report: HealthReport::default(),
            integrity: IntegrityReport::default(),
        }
    }

    fn run(mut self, input: Input<'_>) -> ClusterResult {
        let started = Instant::now();
        let k = self.cfg.spec.k;
        // Anything that can kill a node needs the recovery machinery:
        // scripted faults (outages drive the detector into respawns), the
        // liveness detector, or checkpointing, whose runs respawn a node
        // that dies unplanned.
        let can_lose_a_node = !self.cfg.spec.faults.is_empty()
            || self.cfg.health.is_some()
            || self.cfg.spec.checkpoint.is_some();
        let run = self.cfg.spec.assemble(input, can_lose_a_node);
        (self.bistream, self.needs_dedup) = (run.bistream, run.needs_dedup);
        (self.recovery, self.coordinator) = (run.recovery, run.coordinator);
        let mut dispatcher = run.dispatcher;
        dispatcher.framing = true;

        if matches!(self.cfg.backend, ClusterBackend::Tcp { .. }) {
            self.listener =
                Some(stormlite::listen_loopback().expect("cannot bind a loopback listener"));
        }
        for task in 0..k {
            let (wire, proc_) = self.spawn_one(task);
            let gate = Gate::new(&self.cfg.spec.faults, task);
            self.links.push(NodeLink::new(wire, proc_, gate));
            if let Some(r) = &self.recovery {
                r.begin_incarnation(task);
            }
            let hello = read_hello(self.links[task].wire.as_mut()).expect("node handshake failed");
            assert_eq!(hello as usize, task, "node announced the wrong task");
            let config = self.node_config(task, 0);
            send_frame(self.links[task].wire.as_mut(), &Frame::Config(config))
                .expect("send node config");
            self.write_link(task).expect("flush node config");
        }

        // Dispatch the stream.
        for (dispatched, msg) in run.source.enumerate() {
            self.record_started = Instant::now();
            let id = msg.record().expect("dispatched a record").id().0;
            if dispatcher.dispatch(msg, &mut self) != Dispatched::Sent {
                self.shed_log.push(id);
            }
            self.stages
                .record(Stage::Dispatch, self.record_started.elapsed());
            if self.cfg.spec.shed_watermark.is_some() {
                // The watermark reads the in-flight count, which only
                // falls when acks are taken off the wires: with shedding
                // armed that cannot wait for the next framing point, or a
                // healthy cluster would look backlogged.
                self.pump(Duration::ZERO, None);
            }
            if (dispatched + 1) % stormlite::BATCH_MAX_FRAMES == 0 {
                // The dispatcher's framing point has just framed what its
                // batches held: do the housekeeping a record does not need
                // done for it alone. Links are written by the half-window
                // rule and before waits, not here.
                self.pump(Duration::ZERO, None);
                self.service_health();
            }
        }
        dispatcher.flush(&mut self);
        // Drain: every frame acked. A frame a stall still holds is unacked,
        // so no wire reaches end of stream with anything held back.
        while self.links.iter().any(|l| !l.unacked.is_empty()) {
            self.pump(Duration::from_micros(500), None);
            self.service_health();
        }
        // End of stream: every node gets Eos and reports.
        for task in 0..k {
            self.send_eos(task);
        }
        while self.links.iter().any(|l| l.done.is_none()) {
            self.pump(Duration::from_micros(500), None);
            self.service_health();
        }

        // Teardown: closing the wires releases the lingering nodes.
        let mut joiners = Vec::new();
        let mut digests = Vec::new();
        let data_frames = self.links.iter().map(|l| l.next_seq).sum();
        for (task, link) in self.links.drain(..).enumerate() {
            if let Some(gate) = &link.gate {
                self.health_report.stalled_frames += gate.stalled;
                self.health_report.partition_dropped_frames += gate.dropped;
            }
            let report = link.done.expect("every node reported");
            let replayed = self.recovery.as_ref().map_or(0, |r| r.replayed(task));
            joiners.push(JoinerSnapshot {
                task,
                stats: report.stats,
                stored: report.stored as usize,
                postings: report.postings as usize,
                incarnation: link.incarnation,
                replayed,
            });
            digests.push(link.digest);
            retire_batch_counters(&mut self.retired_batch_counters, link.wire.as_ref());
            close_node(link.wire, link.proc, false);
        }
        self.integrity.merge(&run.restored.integrity);
        if let Some(coordinator) = &self.coordinator {
            coordinator.finish();
        }
        ClusterResult {
            pairs: self.pairs,
            joiners,
            records: run.records,
            wall: started.elapsed(),
            shed_records: self.shed_log,
            restored_cut: run.restored.cut,
            dup_results_dropped: self.dup_results_dropped,
            retransmissions: self.retransmissions,
            routed_messages: self.routed_messages,
            data_frames,
            frames_sent: self.retired_batch_counters.0,
            wire_flushes: self.retired_batch_counters.1,
            epochs_committed: self
                .coordinator
                .as_ref()
                .map_or(0, |c| c.epochs_committed()),
            latency: self.stages.get(Stage::Emit).clone(),
            stages: self.stages,
            wire_digests: self.cfg.logical_time.then_some(digests),
            health: self.health_report,
            integrity: self.integrity,
        }
    }

    fn node_config(&self, task: usize, resume_seq: u64) -> NodeConfig {
        let spec = &self.cfg.spec;
        NodeConfig {
            task: task as u32,
            k: spec.k as u32,
            sim: spec.join.threshold.sim_fn(),
            tau: spec.join.threshold.tau(),
            window: spec.join.window,
            algo: spec.local,
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
                let mut child = Command::new(node_bin)
                    .arg("--connect")
                    .arg(&addr)
                    .arg("--task")
                    .arg(task.to_string())
                    .stdin(Stdio::null())
                    .spawn()
                    .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", node_bin.display()));
                let stream = accept_node(listener, &mut child, node_bin);
                let wire = TcpWire::new(stream, LAUNCHER_INBOUND_CAP).expect("wrap node socket");
                (Box::new(wire), NodeProc::Child(child))
            }
        }
    }

    /// Frames `msg` — one message or one batch — as the wire's next
    /// sequenced unit: assigns the sequence number, records the frame as
    /// in-flight, queues it, and writes the link if it is a barrier or
    /// completes a write unit. Under `logical_time` its *unsealed* bytes
    /// are folded into the wire digest: it pins what was dispatched.
    fn send_data(&mut self, task: usize, msg: JoinMsg) {
        let messages = carried(&msg).len();
        let barrier = matches!(msg, JoinMsg::Barrier { .. });
        self.routed_messages += messages as u64;
        let link = &mut self.links[task];
        let seq = link.next_seq;
        link.next_seq += 1;
        let unsealed = encode_data(seq, &msg).expect("data frames are always encodable");
        if self.cfg.logical_time {
            link.digest = fnv1a(link.digest, &unsealed);
        }
        let frame = stormlite::seal(unsealed);
        link.in_flight += messages;
        link.unwritten += messages;
        link.unacked.insert(seq, msg);
        if link.crash_due() {
            link.dead = true;
        }
        self.transmit(task, frame, Some(seq + 1));
        let cap = self.cfg.channel_capacity;
        let window = cap.min(self.cfg.spec.shed_watermark.unwrap_or(cap));
        if barrier || self.links[task].unwritten >= window.div_ceil(2) {
            let _ = self.write_link(task);
        }
    }

    /// Queues `frame` — the data frame of `message`, or a control frame
    /// — on the wire, directly or as whatever the wire's fault gate makes
    /// of it. A send failure means the node died mid-write; a data frame
    /// stays in `unacked` and recovery resends it.
    fn transmit(&mut self, task: usize, frame: Vec<u8>, message: Option<u64>) {
        let link = &mut self.links[task];
        let sent = match &mut link.gate {
            Some(gate) => gate
                .pass(message, frame)
                .iter()
                .try_for_each(|f| link.wire.send(f)),
            None => link.wire.send(&frame),
        };
        if sent.is_err() {
            self.links[task].dead = true;
        }
    }

    /// Writes `task`'s batched frames — the one place a data link is
    /// flushed (see the module docs). A failure means the node is going
    /// away; the reader side reports the close.
    fn write_link(&mut self, task: usize) -> io::Result<()> {
        let link = &mut self.links[task];
        link.unwritten = 0;
        link.wire.flush()
    }

    fn send_eos(&mut self, task: usize) {
        debug_assert!(self.links[task].unacked.is_empty(), "Eos before full ack");
        self.links[task].eos_sent = true;
        let sent = send_frame(self.links[task].wire.as_mut(), &Frame::Eos)
            .and_then(|()| self.write_link(task));
        if sent.is_err() {
            self.recover(task); // re-sends Eos on the fresh wire
        }
    }

    /// Drains every wire's inbound queue, then handles any death or
    /// supervised kill noticed along the way. A nonzero `idle_wait` means
    /// the caller is waiting on the nodes: every link is written first,
    /// and with nothing received the launcher waits that long — on
    /// `blocked_on`'s wire when the caller needs an ack from one task in
    /// particular (so its arrival ends the wait), asleep otherwise.
    /// `Duration::ZERO` is the framing-point poll and writes nothing.
    fn pump(&mut self, idle_wait: Duration, blocked_on: Option<usize>) {
        if !idle_wait.is_zero() {
            for task in 0..self.links.len() {
                let _ = self.write_link(task);
            }
        }
        let mut got = false;
        for task in 0..self.links.len() {
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
                        // with the poisoned incarnation; recovery resends
                        // everything it covered.
                        break;
                    }
                }
            }
            // Stop consuming a poisoned incarnation.
            while !self.links[task].poisoned {
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
                !link.dead && !link.poisoned && !self.inbound_blocked(task)
            });
            match wait_on {
                Some(task) => {
                    let event = self.links[task].wire.recv_timeout(idle_wait);
                    self.absorb(task, event, false, &mut got);
                }
                None => std::thread::sleep(idle_wait),
            }
        }
        self.recover_dead();
    }

    /// Respawns every link marked dead since the last pass.
    fn recover_dead(&mut self) {
        for task in 0..self.links.len() {
            if std::mem::take(&mut self.links[task].dead) {
                self.recover(task);
            }
        }
    }

    /// Whether a two-way partition window currently holds `task`'s
    /// inbound direction.
    fn inbound_blocked(&self, task: usize) -> bool {
        self.links[task]
            .gate
            .as_ref()
            .is_some_and(|g| g.inbound_blocked())
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
                // Acks come in seq order, so a frame answers the oldest
                // unacked message, and an inbound corrupt window keys on
                // it. Recovery-time drains pass clean.
                let link = &mut self.links[task];
                if let (Some(gate), Some(&seq)) = (&mut link.gate, link.unacked.keys().next()) {
                    gate.inbound(seq + 1, &mut b);
                }
                if inbound_blocked {
                    self.links[task].held_inbound.push(b);
                    return true; // held frames are not a life sign
                }
                *got = true;
                self.links[task].last_seen = Instant::now();
                self.on_frame(task, &b)
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
                    self.links[task].dead = true;
                }
                false
            }
        }
    }

    /// Classifies one corrupt or protocol-violating inbound frame: count
    /// it and poison the incarnation, so the caller stops consuming it and
    /// the end of the pass recovers it — the wire-corruption analogue of
    /// an error close, never a panic. Always returns `false` so call sites
    /// can `return self.note_corrupt(..)`.
    fn note_corrupt(&mut self, task: usize, snapshot: bool) -> bool {
        self.integrity.corrupt_frames += 1;
        if snapshot {
            self.health_report.corrupt_snapshots += 1;
        }
        self.links[task].poisoned = true;
        self.links[task].dead = true;
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
                // Acks come in seq order, each once: an ack for anything
                // but the oldest unacked frame is a protocol violation.
                let oldest = self.links[task].unacked.first_entry();
                let Some(acked) = oldest.filter(|e| *e.key() == seq).map(|e| e.remove()) else {
                    return self.note_corrupt(task, false);
                };
                self.publish_staged(task);
                let messages = carried(&acked);
                self.links[task].in_flight -= messages.len();
                // Delivery latency and the recovery watermark are both
                // read off the last record the frame carried (a barrier
                // carries none): dispatched then, acked now.
                let last = messages.iter().rev().find_map(JoinMsg::payload);
                if let (Some(now), Some(last)) = (self.clock.wall_elapsed(), last) {
                    let lat = now.saturating_sub(Duration::from_nanos(last.ingest.as_nanos()));
                    self.stages.record(Stage::Deliver, lat);
                }
                if let (Some(recovery), Some(last)) = (&self.recovery, last) {
                    let record = &last.record;
                    recovery.mark_processed(task, record.id().0, record.timestamp());
                }
                if self.links[task].crash_due() {
                    self.links[task].dead = true;
                }
            }
            Frame::Result { pair, ingest } => self.links[task].staged.push((pair, ingest)),
            Frame::Results(results) => self.links[task].staged.extend(results),
            Frame::Snapshot {
                epoch,
                task: from,
                window,
            } => {
                // Decoded once, to validate; the bytes are published as
                // they came.
                if decode_window_slice(&window).is_err() {
                    return self.note_corrupt(task, true);
                }
                if self.coordinator.is_none() {
                    // A snapshot with no checkpointing armed is a
                    // protocol violation — classified, not a panic.
                    return self.note_corrupt(task, false);
                }
                self.links[task].staged_snapshot = Some((epoch, from as usize, window));
            }
            Frame::Done(report) => {
                self.links[task].done = Some(report);
            }
            Frame::HealthAck => {
                // The life sign itself was already recorded by `pump`
                // (any inbound frame updates `last_seen`); the answer only
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

    /// The sink: publishes what `task` staged ahead of the ack just taken
    /// off its wire — its snapshot to the coordinator, its pairs to the
    /// result, each with its emit latency (none under logical time).
    fn publish_staged(&mut self, task: usize) {
        if let Some((epoch, from, window)) = self.links[task].staged_snapshot.take() {
            let coordinator = self
                .coordinator
                .as_ref()
                .expect("staged only when checkpointing");
            let t0 = Instant::now();
            coordinator.publish(epoch, from, window);
            self.stages.record(Stage::Checkpoint, t0.elapsed());
        }
        if self.links[task].staged.is_empty() {
            return;
        }
        let now = self.clock.wall_elapsed();
        for (pair, ingest) in self.links[task].staged.drain(..) {
            if let Some(now) = now {
                let lat = now.saturating_sub(Duration::from_nanos(ingest.as_nanos()));
                self.stages.record(Stage::Emit, lat);
            }
            self.pairs.push(pair);
        }
    }

    /// Discards what `task`'s dead or poisoned incarnation staged without
    /// the ack that would have published it.
    fn discard_staged(&mut self, task: usize) {
        let link = &mut self.links[task];
        self.dup_results_dropped += link.staged.len() as u64;
        link.staged.clear();
        link.staged_snapshot = None;
    }

    /// The failure detector: probes idle wires with heartbeats and
    /// declares wires silent past the deadline suspect. Runs on the wall
    /// clock even under logical time — heartbeats carry no seq, so no fault
    /// keys on them, and never touch the wire digest, so detector cadence
    /// cannot perturb determinism.
    fn service_health(&mut self) {
        let Some(h) = self.cfg.health else {
            return;
        };
        let now = Instant::now();
        for task in 0..self.links.len() {
            if self.links[task].done.is_some() {
                continue;
            }
            if now.duration_since(self.links[task].hb_last) >= h.heartbeat_interval {
                self.links[task].hb_last = now;
                self.health_report.heartbeats_sent += 1;
                let frame = Frame::Heartbeat
                    .encode_sealed()
                    .expect("heartbeats are always encodable");
                self.transmit(task, frame, None);
                let _ = self.write_link(task);
            }
            let silent = now.duration_since(self.links[task].last_seen);
            if silent >= h.suspect_after {
                self.health_report.suspects += 1;
                self.health_report.detection_latency.record(silent);
                self.recover(task);
            }
        }
        self.recover_dead();
    }

    /// A node is dead or suspect: respawn it while the recovery budget
    /// lasts. Past the budget the run fails rather than return a partial
    /// answer: the cluster is torn down and the launcher panics naming
    /// the task.
    fn recover(&mut self, task: usize) {
        if let Some(max) = self.cfg.health.and_then(|h| h.recovery_budget) {
            if self.links[task].health_respawns >= max {
                for link in self.links.drain(..) {
                    close_node(link.wire, link.proc, true);
                }
                panic!("task {task} exhausted its recovery budget of {max} respawn(s)");
            }
        }
        self.links[task].health_respawns += 1;
        self.health_report.respawns += 1;
        let t0 = Instant::now();
        self.kill_and_respawn(task);
        self.stages.record(Stage::Recover, t0.elapsed());
    }

    /// Consumes whatever `task` already delivered without blocking.
    /// Stops at the first corrupt frame: the poisoned remainder is
    /// discarded and recovery resends whatever it covered.
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
    /// delivered prefix, respawn, close the wire's open outage windows,
    /// handshake with the resume sequence, replay lost index state, resend
    /// the unacked suffix.
    fn kill_and_respawn(&mut self, task: usize) {
        let Some(recovery) = self.recovery.clone() else {
            panic!("node {task} died but the run keeps no replay buffers");
        };
        // Deliver any partition-held inbound frames first: they precede
        // whatever the drain below will surface, and skipping them would
        // punch holes in the contiguous unacked suffix the resume
        // sequence number is derived from. A poisoned incarnation's held
        // frames are discarded instead — an ack surviving a corrupted
        // result would cancel the resend that re-creates it.
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
        self.discard_staged(task);
        let (wire, proc_) = self.spawn_one(task);
        let old_wire = std::mem::replace(&mut self.links[task].wire, wire);
        self.links[task].proc = proc_;
        retire_batch_counters(&mut self.retired_batch_counters, old_wire.as_ref());
        drop(old_wire);
        if let Some(handle) = old_thread {
            let _ = handle.join();
        }
        self.links[task].incarnation = recovery.begin_incarnation(task);

        let hello = read_hello(self.links[task].wire.as_mut()).expect("respawn handshake failed");
        assert_eq!(
            hello as usize, task,
            "respawned node announced the wrong task"
        );
        // Fresh incarnation: fresh liveness horizon, fresh trust, and every
        // outage window open on the wire closed — a drill that broke the
        // session costs one respawn.
        let link = &mut self.links[task];
        link.last_seen = Instant::now();
        link.hb_last = Instant::now();
        link.poisoned = false;
        link.dead = false;
        if let Some(gate) = &mut link.gate {
            gate.heal();
        }
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

        // Replay the lost index state from the replay buffer, applied
        // index-only ahead of any data (FIFO guarantees the order).
        let lost = recovery.replay_for(task);
        if !lost.is_empty() {
            let window = encode_window_vec(&lost).expect("window entries are always encodable");
            send_frame(self.links[task].wire.as_mut(), &Frame::Restore { window })
                .expect("send restore frame");
        }

        // Resend the unacked suffix: original order, original seqs.
        let frames: Vec<(u64, Vec<u8>)> = self.links[task]
            .unacked
            .iter()
            .map(|(&seq, msg)| (seq, sealed(seq, msg)))
            .collect();
        self.retransmissions += frames.len() as u64;
        for (seq, frame) in frames {
            self.transmit(task, frame, Some(seq + 1));
        }
        if self.links[task].eos_sent {
            let _ = send_frame(self.links[task].wire.as_mut(), &Frame::Eos);
        }
        let _ = self.write_link(task);
    }
}

/// The dispatcher's view of the cluster: the run clock, and per joiner a
/// sequenced wire whose in-flight (sent-but-unacked) messages are its
/// backlog.
impl DispatchPort for Launcher<'_> {
    fn now(&mut self) -> Timestamp {
        self.clock.now()
    }

    fn backlog(&self, task: usize) -> usize {
        self.links[task].in_flight
    }

    /// Sends after bounding this wire's in-flight backlog at the channel
    /// capacity — the launcher-side equivalent of a bounded channel
    /// blocking the dispatcher. The bound is checked before the send, so
    /// a batch may overshoot it by less than its length.
    fn send(&mut self, task: usize, msg: JoinMsg) {
        while self.links[task].in_flight >= self.cfg.channel_capacity {
            self.pump(Duration::from_micros(200), Some(task));
            self.service_health();
        }
        self.send_data(task, msg);
    }

    fn routed(&mut self, _payload: &RecordMsg, _fanout: usize) {
        self.stages
            .record(Stage::Route, self.record_started.elapsed());
    }
}

/// Accepts the connection of the node just spawned as `child`, polling
/// until the 30 s handshake deadline [`read_hello`] also keeps. A node
/// that exits before it connects fails the run at once, with its exit
/// status, instead of leaving the launcher in `accept` forever.
fn accept_node(listener: &TcpListener, child: &mut Child, node_bin: &Path) -> TcpStream {
    let bin = node_bin.display();
    listener.set_nonblocking(true).expect("listener mode");
    let deadline = Instant::now() + Duration::from_secs(30);
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("accepting {bin}'s connection: {e}"),
        }
        if let Some(status) = child.try_wait().expect("poll the node process") {
            panic!("{bin} exited with {status} before connecting back");
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{bin} never connected back");
        }
        std::thread::sleep(Duration::from_micros(100));
    };
    // Some platforms hand the listener's O_NONBLOCK down to the socket.
    stream.set_nonblocking(false).expect("socket mode");
    stream
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
    use crate::driver::LocalAlgo;
    use crate::fault::{Fault, FaultKind};
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

    /// A launcher wired to `cfg.spec.k` channel wires whose node ends the
    /// test holds — the test plays every node.
    fn launcher(cfg: &ClusterConfig) -> (Launcher<'_>, Vec<ChannelWire>) {
        let mut launcher = Launcher::new(cfg);
        let mut nodes = Vec::new();
        for task in 0..cfg.spec.k {
            let (ours, theirs) = stormlite::channel_wire_pair(64);
            let gate = Gate::new(&cfg.spec.faults, task);
            launcher
                .links
                .push(NodeLink::new(Box::new(ours), NodeProc::Thread(None), gate));
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
        let (mut l, mut nodes) = launcher(&cfg);
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
    fn an_ack_moves_the_watermark_once_and_a_crash_waits_for_the_next_frame() {
        let mut cfg = test_config(1);
        cfg.spec.faults = vec![Fault::crash(0, 2)];
        let (mut l, _nodes) = launcher(&cfg);
        let recovery = Arc::new(RecoveryState::new(1, Window::Unbounded));
        for id in 0..6 {
            let payload = RecordMsg::solo(rec(id, &[1, 2, 3]), Timestamp::ZERO);
            recovery.buffer_index_target(0, &payload);
        }
        l.recovery = Some(Arc::clone(&recovery));
        l.send(0, batch(0..3));
        l.send(0, batch(3..6));
        assert!(recovery.replay_for(0).is_empty(), "nothing acked yet");

        assert!(l.on_frame(0, &sealed(&Frame::Ack { seq: 0 })));
        assert!(!l.links[0].dead, "message 1 acked, the crash follows 2");
        let replay: Vec<u64> = recovery
            .replay_for(0)
            .iter()
            .map(|(_, r)| r.id().0)
            .collect();
        assert_eq!(
            replay,
            vec![0, 1, 2],
            "watermark at the batch's last record"
        );

        // Message 2 is acked, but no message 3 follows it yet: there is
        // nothing for the crash to come before, so the node lives on until
        // one is framed.
        assert!(l.on_frame(0, &sealed(&Frame::Ack { seq: 1 })));
        assert!(!l.links[0].dead);
        assert_eq!(recovery.replay_for(0).len(), 6);
        l.send(0, msg(6));
        assert!(l.links[0].dead);
        // A live wire never repeats an ack: a second one is a protocol
        // violation that poisons the incarnation and counts nothing.
        assert!(!l.on_frame(0, &sealed(&Frame::Ack { seq: 1 })));
        assert!(l.links[0].poisoned);
        assert_eq!(l.backlog(0), 1);
    }

    fn pair(earlier: u64, later: u64) -> MatchPair {
        MatchPair {
            earlier: RecordId(earlier),
            later: RecordId(later),
            similarity: 1.0,
        }
    }

    #[test]
    fn an_exhausted_budget_closes_every_wire_and_fails_naming_the_task() {
        let mut cfg = test_config(2);
        cfg.health = Some(HealthConfig {
            recovery_budget: Some(0),
            ..HealthConfig::recommended()
        });
        let (mut l, mut nodes) = launcher(&cfg);
        // Task 1 answers its frame and acks it: the pair is published.
        l.send(1, batch(10..12));
        let published = vec![(pair(10, 11), Timestamp::ZERO)];
        assert!(l.on_frame(1, &sealed(&Frame::Results(published))));
        assert!(l.on_frame(1, &sealed(&Frame::Ack { seq: 0 })));
        // Task 0 answers its batch and dies before the ack, with no
        // respawn left in its budget.
        l.send(0, batch(1..4));
        let staged = vec![(pair(2, 3), Timestamp::ZERO)];
        assert!(l.on_frame(0, &sealed(&Frame::Results(staged))));
        l.links[0].dead = true;
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| l.recover_dead()))
            .expect_err("a budget of 0 allows no respawn");
        assert_eq!(
            failed.downcast_ref::<String>().map(String::as_str),
            Some("task 0 exhausted its recovery budget of 0 respawn(s)")
        );
        assert_eq!(l.health_report.respawns, 0);
        assert!(l.links.is_empty(), "every link is torn down");
        // A published pair is never taken back.
        assert_eq!(
            l.pairs.iter().map(MatchPair::key).collect::<Vec<_>>(),
            vec![(10, 11)]
        );
        for node in &mut nodes {
            while let WireEvent::Frame(_) = node.try_recv().unwrap() {}
            assert!(
                matches!(node.try_recv().unwrap(), WireEvent::Closed(_)),
                "every wire is closed"
            );
        }
    }

    /// Task 0's first incarnation, played by the test, sends its answer to
    /// seq 0 and dies before the ack; the launcher then respawns a real
    /// in-process node, which reprocesses seq 0 and answers it again.
    /// Returns the launcher once that answer is acked.
    fn die_before_the_ack<'a>(
        cfg: &'a ClusterConfig,
        msg: JoinMsg,
        answer: Frame,
        coordinator: Option<Arc<CheckpointCoordinator>>,
    ) -> Launcher<'a> {
        let (mut l, mut nodes) = launcher(cfg);
        let recovery = Arc::new(RecoveryState::new(1, Window::Unbounded));
        recovery.begin_incarnation(0);
        l.recovery = Some(recovery);
        l.coordinator = coordinator;
        l.send(0, msg);
        let _ = l.write_link(0);
        assert!(matches!(
            next_frame(&mut nodes[0]),
            Some(Frame::Data { seq: 0, .. })
        ));
        send_frame(&mut nodes[0], &answer).unwrap();
        nodes[0].flush().unwrap();
        drop(nodes);
        while !l.links[0].unacked.is_empty() {
            l.pump(Duration::from_millis(1), Some(0));
        }
        assert_eq!(l.health_report.respawns, 1);
        assert_eq!(l.links[0].incarnation, 1);
        l
    }

    #[test]
    fn a_results_frame_delivered_without_its_ack_is_published_once() {
        let cfg = test_config(1);
        let answer = Frame::Results(
            [(0, 1), (0, 2), (1, 2)]
                .map(|(a, b)| (pair(a, b), Timestamp::ZERO))
                .to_vec(),
        );
        let l = die_before_the_ack(&cfg, batch(0..3), answer, None);
        let keys: Vec<(u64, u64)> = l.pairs.iter().map(MatchPair::key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![(0, 1), (0, 2), (1, 2)],
            "each pair once: {keys:?}"
        );
        assert_eq!(l.dup_results_dropped, 3, "the dead incarnation's frame");
    }

    #[test]
    fn a_snapshot_delivered_without_its_ack_is_published_once() {
        let cfg = test_config(1);
        let checkpoint = crate::checkpoint::CheckpointConfig::in_memory(1);
        let coordinator = Arc::new(CheckpointCoordinator::new(1, &checkpoint).unwrap());
        let epoch = coordinator.begin_epoch(Timestamp::ZERO, 0, false, None);
        let barrier = JoinMsg::Barrier {
            epoch,
            injected_at: Timestamp::ZERO,
        };
        let answer = Frame::Snapshot {
            epoch,
            task: 0,
            window: encode_window_vec(&[]).unwrap(),
        };
        // A second publication of the epoch would panic in the coordinator.
        let l = die_before_the_ack(&cfg, barrier, answer, Some(Arc::clone(&coordinator)));
        coordinator.finish();
        assert_eq!(coordinator.epochs_committed(), 1);
        assert_eq!(l.dup_results_dropped, 0, "a snapshot carries no pairs");
    }

    #[test]
    fn an_outage_window_covers_one_seq_per_batch() {
        let mut cfg = test_config(1);
        cfg.health = Some(HealthConfig::recommended());
        cfg.spec.faults = vec![Fault {
            task: 0,
            after: 1,
            kind: FaultKind::Partition {
                len: 1,
                two_way: false,
            },
        }];
        let (mut l, mut nodes) = launcher(&cfg);
        l.send(0, batch(0..8)); // message 1
        l.send(0, batch(8..16)); // message 2: inside the window
        l.send(0, msg(16)); // message 3
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
        assert_eq!(l.links[0].gate.as_ref().unwrap().dropped, 1);
        assert_eq!(l.backlog(0), 17, "the dropped batch is still in flight");
    }

    #[test]
    fn outages_without_a_detector_are_refused() {
        let mut cfg = test_config(1);
        cfg.spec.faults.push(Fault {
            task: 0,
            after: 0,
            kind: FaultKind::Stall { len: 1 },
        });
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_cluster(&[], &cfg)))
                .expect_err("nothing would end a stall that blocks the wire");
        let msg = refused.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            msg.starts_with("scripted outages need the failure detector"),
            "{msg}"
        );
        cfg.health = Some(HealthConfig::recommended());
        assert!(run_cluster(&[], &cfg).pairs.is_empty());
    }

    #[test]
    fn wire_digests_fold_only_under_logical_time_and_a_resend_repeats_the_bytes() {
        let mut cfg = test_config(1);
        let (mut l, _nodes) = launcher(&cfg);
        l.send(0, batch(0..4));
        assert_eq!(
            l.links[0].digest, FNV_OFFSET,
            "wall-clock runs report no digest"
        );
        // A resend carries the bytes of the first transmission.
        let first = Frame::Data {
            seq: 0,
            msg: batch(0..4),
        };
        assert_eq!(super::sealed(0, &l.links[0].unacked[&0]), sealed(&first));
        drop(l);

        cfg.logical_time = true;
        let (mut l, _nodes) = launcher(&cfg);
        l.send(0, batch(0..4));
        assert_eq!(
            l.links[0].digest,
            fnv1a(FNV_OFFSET, &first.encode().unwrap())
        );
    }

    #[test]
    fn half_a_window_framed_since_the_last_write_writes_the_link() {
        let mut cfg = test_config(1);
        cfg.channel_capacity = 8;
        let (mut l, _nodes) = launcher(&cfg);
        l.send(0, batch(0..3));
        assert_eq!(l.links[0].unwritten, 3);
        // The fourth of 8 messages completes the write unit.
        l.send(0, msg(3));
        assert_eq!(l.links[0].unwritten, 0);
    }

    #[test]
    fn a_barrier_or_half_the_shed_watermark_writes_the_link() {
        // Default capacity (half-window 128): a barrier does not wait for it.
        let cfg = test_config(1);
        let (mut l, _nodes) = launcher(&cfg);
        l.send(0, msg(0));
        assert_eq!(l.links[0].unwritten, 1);
        let barrier = JoinMsg::Barrier {
            epoch: 1,
            injected_at: Timestamp::ZERO,
        };
        l.send(0, barrier);
        assert_eq!(l.links[0].unwritten, 0);

        // A watermark of 4 under the same capacity writes every 2
        // messages, so the backlog it sheds on is never mostly unwritten.
        let mut cfg = test_config(1);
        cfg.spec.shed_watermark = Some(4);
        let (mut l, _nodes) = launcher(&cfg);
        l.send(0, msg(0));
        assert_eq!(l.links[0].unwritten, 1);
        l.send(0, msg(1));
        assert_eq!(l.links[0].unwritten, 0);
    }

    /// Plays launcher to `node_serve` over a channel wire and returns the
    /// node's replies to `frames`, in order, plus how the node ended.
    fn serve(frames: Vec<Frame>) -> (Vec<Frame>, io::Result<()>) {
        let (mut wire, mut node_wire) = stormlite::channel_wire_pair(256);
        let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
        assert_eq!(read_hello(&mut wire).unwrap(), 0);
        let cfg = test_config(1);
        let mut config = Launcher::new(&cfg).node_config(0, 0);
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
    fn a_gap_or_a_repeat_ends_the_incarnation() {
        let data = |seq, id| Frame::Data { seq, msg: msg(id) };
        // A gap is not buffered: seq 2 where seq 1 was next ends the node.
        let (replies, end) = serve(vec![data(0, 0), data(2, 1)]);
        assert_eq!(kinds(&replies), "a0");
        let err = end.expect_err("a gap breaks the session");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "Data seq 2 where seq 1 was next");
        // A repeat of an acked seq is not re-acked: it ends the node too,
        // before it touches the joiner again.
        let (replies, end) = serve(vec![data(0, 0), data(1, 1), data(0, 0)]);
        assert_eq!(kinds(&replies), "a0 r a1");
        let err = end.expect_err("a repeat breaks the session");
        assert_eq!(err.to_string(), "Data seq 0 where seq 2 was next");
    }

    #[test]
    fn a_barrier_inside_a_batch_is_a_protocol_error() {
        let barrier = JoinMsg::Barrier {
            epoch: 1,
            injected_at: Timestamp::ZERO,
        };
        let frame = Frame::Data {
            seq: 0,
            msg: JoinMsg::Batch(vec![msg(0), barrier, msg(1)]),
        };
        let (replies, end) = serve(vec![frame]);
        assert!(
            replies.is_empty(),
            "neither results nor an ack: {replies:?}"
        );
        assert_eq!(end.unwrap_err().kind(), io::ErrorKind::InvalidData);
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
