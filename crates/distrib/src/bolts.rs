//! The topology driver: the three processing vertices of the join, as
//! stormlite bolts around the crate's shared `operators`.

use crate::checkpoint::CheckpointCoordinator;
use crate::driver::lost_state;
use crate::msg::{JoinMsg, RecordMsg};
use crate::operators::{DispatchPort, Dispatched, Dispatcher, Joiner};
use crate::recovery::RecoveryState;
use crate::route::Router;
use obs::{Stage, StageProfile};
use parking_lot::Mutex;
use ssj_core::{JoinStats, MatchPair};
use std::sync::Arc;
use std::time::Duration;
use stormlite::{BarrierAligner, Bolt, LatencyHistogram, Outbox, Timestamp};

/// Task-local per-stage latency recorder. Bolts record into the private
/// [`StageProfile`] on the hot path (no locking) and merge it into the
/// run-shared profile once, when the bolt finishes. Recording reads only
/// the topology clock — it never mutates it and draws no randomness — so
/// enabling stage profiling leaves simulated transcripts byte-identical.
pub(crate) struct StageRecorder {
    local: StageProfile,
    shared: Arc<Mutex<StageProfile>>,
}

impl StageRecorder {
    /// A recorder that flushes into `shared` on [`StageRecorder::flush`].
    pub(crate) fn new(shared: Arc<Mutex<StageProfile>>) -> Self {
        Self {
            local: StageProfile::new(),
            shared,
        }
    }

    #[inline]
    fn record(&mut self, stage: Stage, dur: Duration) {
        self.local.record(stage, dur);
    }

    /// Merges the task-local samples into the shared profile.
    fn flush(&mut self) {
        self.shared.lock().merge(&self.local);
        self.local = StageProfile::new();
    }
}

/// Routes each arriving record to its index/probe joiners. One task.
pub(crate) struct DispatcherBolt<R: Router> {
    dispatcher: Dispatcher<R>,
    /// Ids of shed records, for exact recall accounting by the caller.
    shed_log: Arc<Mutex<Vec<u64>>>,
    /// Per-stage latency recording (observability-enabled runs only).
    stages: Option<StageRecorder>,
}

impl<R: Router> DispatcherBolt<R> {
    /// A dispatcher bolt logging shed record ids into `shed_log` and, when
    /// `stages` is set, route latencies into it (see [`StageRecorder`]).
    pub(crate) fn new(
        dispatcher: Dispatcher<R>,
        shed_log: Arc<Mutex<Vec<u64>>>,
        stages: Option<Arc<Mutex<StageProfile>>>,
    ) -> Self {
        Self {
            dispatcher,
            shed_log,
            stages: stages.map(StageRecorder::new),
        }
    }
}

/// The dispatcher's view of the topology: the task's outbox is the clock
/// and the `k` direct wires, queue depth is the backlog.
struct OutboxPort<'a> {
    out: &'a mut Outbox<JoinMsg>,
    stages: &'a mut Option<StageRecorder>,
}

impl DispatchPort for OutboxPort<'_> {
    fn now(&mut self) -> Timestamp {
        self.out.now()
    }

    fn backlog(&self, task: usize) -> usize {
        self.out.direct_queue_depth(task)
    }

    fn reachable(&self, _task: usize) -> bool {
        true
    }

    fn send(&mut self, task: usize, msg: JoinMsg) {
        self.out.emit_direct(task, msg);
    }

    fn routed(&mut self, payload: &RecordMsg, fanout: usize) {
        // Route span: anchored on the ingest stamp the dispatcher already
        // read, so stage recording adds no clock mutation and no extra
        // reads when disabled.
        if self.stages.is_some() || self.out.tracing() {
            let dur = self.out.now().saturating_since(payload.ingest);
            if let Some(st) = self.stages {
                st.record(Stage::Route, dur);
            }
            self.out.trace_span(
                Stage::Route,
                payload.ingest,
                payload.record.id().0,
                fanout as u64,
            );
        }
    }
}

impl<R: Router> Bolt<JoinMsg> for DispatcherBolt<R> {
    fn execute(&mut self, msg: JoinMsg, out: &mut Outbox<JoinMsg>) {
        let mut port = OutboxPort {
            out,
            stages: &mut self.stages,
        };
        match self.dispatcher.dispatch(&msg, &mut port) {
            Dispatched::Sent => {}
            Dispatched::Shed { depth } => {
                let id = msg.record().expect("dispatched a record").id().0;
                out.record_shed(1);
                out.trace_instant(Stage::Shed, id, depth as u64);
                self.shed_log.lock().push(id);
            }
            Dispatched::Unreachable => unreachable!("topology wires are never fenced"),
        }
    }

    fn finish(&mut self, out: &mut Outbox<JoinMsg>) {
        self.dispatcher.flush(&mut OutboxPort {
            out,
            stages: &mut self.stages,
        });
        if let Some(st) = &mut self.stages {
            st.flush();
        }
    }
}

/// Final per-joiner statistics published when the topology drains.
#[derive(Debug, Clone)]
pub struct JoinerSnapshot {
    /// Task index of the joiner.
    pub task: usize,
    /// The local joiner's counters (of the final incarnation only — a
    /// crashed incarnation's counters die with it).
    pub stats: JoinStats,
    /// Records (or bundle members) still stored at drain time.
    pub stored: usize,
    /// Inverted-index postings at drain time.
    pub postings: usize,
    /// Which incarnation of this task survived to the drain (0 = the task
    /// never crashed; only meaningful in fault-injected runs).
    pub incarnation: u64,
    /// Records replayed into this task across all of its restarts.
    pub replayed: u64,
    /// The checkpoint epoch the surviving incarnation restored its window
    /// from, if it came up after a crash with a complete epoch available
    /// (`None` = fresh start or plain buffer replay).
    pub restored_from_epoch: Option<u64>,
}

/// One of the `k` parallel joiners: a [`Joiner`] plus the topology's
/// spans, processing watermark and checkpoint publication.
pub(crate) struct JoinerBolt {
    joiner: Joiner,
    task: usize,
    snapshots: Arc<Mutex<Vec<JoinerSnapshot>>>,
    recovery: Option<Arc<RecoveryState>>,
    coordinator: Option<Arc<CheckpointCoordinator>>,
    /// The dispatcher is this joiner's single upstream, so barriers align
    /// on first sight — the aligner still guards the general invariant.
    aligner: BarrierAligner,
    incarnation: u64,
    restored_from_epoch: Option<u64>,
    /// Per-stage latency recording (observability-enabled runs only).
    stages: Option<StageRecorder>,
}

impl JoinerBolt {
    /// Joiner bolt `task`. `recovery` must be provided exactly when the
    /// run injects faults or checkpoints, `coordinator` exactly when it
    /// checkpoints; `stages` turns on stage latency recording. A rebuilt
    /// bolt (an incarnation after a crash) re-indexes the state its
    /// predecessor lost before it sees its first message.
    pub(crate) fn new(
        joiner: Joiner,
        task: usize,
        snapshots: Arc<Mutex<Vec<JoinerSnapshot>>>,
        recovery: Option<Arc<RecoveryState>>,
        coordinator: Option<Arc<CheckpointCoordinator>>,
        stages: Option<Arc<Mutex<StageProfile>>>,
    ) -> Self {
        let mut bolt = Self {
            joiner,
            task,
            snapshots,
            recovery,
            coordinator,
            aligner: BarrierAligner::new(1),
            incarnation: 0,
            restored_from_epoch: None,
            stages: stages.map(StageRecorder::new),
        };
        if let Some(recovery) = &bolt.recovery {
            bolt.incarnation = recovery.begin_incarnation(task);
            if bolt.incarnation > 0 {
                let (snapshot, tail) = lost_state(recovery, bolt.coordinator.as_deref(), task);
                if let Some((epoch, entries)) = snapshot {
                    bolt.restored_from_epoch = Some(epoch);
                    bolt.joiner.restore(&entries);
                }
                bolt.joiner.restore(&tail);
            }
        }
        bolt
    }

    /// Stage timing start: reads the clock only when stage profiling or
    /// tracing is on, so disabled runs pay nothing.
    #[inline]
    fn stage_start(&self, out: &Outbox<JoinMsg>) -> Option<Timestamp> {
        (self.stages.is_some() || out.tracing()).then(|| out.now())
    }

    /// Closes a stage span opened by [`Self::stage_start`]: records the
    /// duration into the stage profile and emits a trace span. Purely
    /// observational — no randomness, no clock mutation.
    #[inline]
    fn stage_end(
        &mut self,
        stage: Stage,
        t0: Option<Timestamp>,
        a: u64,
        b: u64,
        out: &mut Outbox<JoinMsg>,
    ) {
        let Some(t0) = t0 else { return };
        if let Some(st) = &mut self.stages {
            st.record(stage, out.now().saturating_since(t0));
        }
        out.trace_span(stage, t0, a, b);
    }

    /// Probes and emits the results, under a verify span.
    fn probe(&mut self, payload: &RecordMsg, out: &mut Outbox<JoinMsg>) {
        let t0 = self.stage_start(out);
        let pairs = self.joiner.probe(payload);
        for &pair in pairs {
            out.emit(JoinMsg::Result {
                pair,
                ingest: payload.ingest,
            });
        }
        let emitted = pairs.len() as u64;
        self.stage_end(Stage::Verify, t0, payload.record.id().0, emitted, out);
    }

    /// Indexes the record, under an index span.
    fn insert(&mut self, payload: &RecordMsg, out: &mut Outbox<JoinMsg>) {
        let t0 = self.stage_start(out);
        self.joiner.insert(payload);
        if t0.is_some() {
            let stored = self.joiner.stored() as u64;
            self.stage_end(Stage::Index, t0, payload.record.id().0, stored, out);
        }
    }
}

impl Bolt<JoinMsg> for JoinerBolt {
    fn execute(&mut self, msg: JoinMsg, out: &mut Outbox<JoinMsg>) {
        let processed = msg.record().map(|r| (r.id().0, r.timestamp()));
        match msg {
            JoinMsg::Probe(payload) => {
                self.joiner.advance(&payload.record);
                self.probe(&payload, out);
            }
            JoinMsg::Index(payload) => {
                self.joiner.advance(&payload.record);
                self.insert(&payload, out);
            }
            JoinMsg::ProbeAndIndex(payload) => {
                self.joiner.advance(&payload.record);
                self.probe(&payload, out);
                self.insert(&payload, out);
            }
            JoinMsg::Batch(msgs) => {
                // Unpack in dispatch order: each sub-message runs the full
                // per-message path (dedup advance, stage spans, watermark),
                // so batching is invisible to everything downstream.
                for m in msgs {
                    self.execute(m, out);
                }
            }
            JoinMsg::Result { .. } => unreachable!("joiners do not receive results"),
            JoinMsg::Barrier { epoch, injected_at } => {
                // Alignment stall: how long the barrier sat behind data in
                // this joiner's queue before the snapshot could be cut.
                let stall = out.now().saturating_since(injected_at);
                out.record_barrier_stall(stall);
                if let Some(st) = &mut self.stages {
                    st.record(Stage::Barrier, stall);
                }
                out.trace_instant(
                    Stage::Barrier,
                    epoch,
                    stall.as_nanos().min(u128::from(u64::MAX)) as u64,
                );
                if self.aligner.observe(epoch) {
                    let coordinator = self
                        .coordinator
                        .as_ref()
                        .expect("barrier received without a checkpoint coordinator");
                    let entries = self.joiner.window_snapshot();
                    let outcome = coordinator.publish(epoch, self.task, &entries);
                    out.record_checkpoint(outcome.bytes);
                    out.trace_instant(Stage::Checkpoint, epoch, outcome.bytes);
                    if outcome.completed {
                        // Epoch latency, charged to the task that closed
                        // it: barrier injection to durable commit.
                        let lat = out.now().saturating_since(outcome.injected_at);
                        out.record_checkpoint_latency(lat);
                        if let Some(st) = &mut self.stages {
                            st.record(Stage::Checkpoint, lat);
                        }
                    }
                }
            }
        }
        // Watermark last: published only once the record's effects (results
        // emitted, index updated) are fully visible.
        if let (Some(recovery), Some((id, ts))) = (&self.recovery, processed) {
            recovery.mark_processed(self.task, id, ts);
        }
    }

    fn finish(&mut self, _out: &mut Outbox<JoinMsg>) {
        let (stats, stored, postings) = self.joiner.counters();
        self.snapshots.lock().push(JoinerSnapshot {
            task: self.task,
            stats,
            stored,
            postings,
            incarnation: self.incarnation,
            replayed: self
                .recovery
                .as_ref()
                .map_or(0, |recovery| recovery.replayed(self.task)),
            restored_from_epoch: self.restored_from_epoch,
        });
        if let Some(st) = &mut self.stages {
            st.flush();
        }
    }
}

/// What the sink accumulated over a run.
#[derive(Debug, Default)]
pub struct SinkState {
    /// Every result pair.
    pub pairs: Vec<MatchPair>,
    /// Dispatch-to-result latency distribution.
    pub latency: LatencyHistogram,
}

/// Terminal bolt: collects result pairs and measures latency. One task.
pub(crate) struct SinkBolt {
    state: Arc<Mutex<SinkState>>,
    /// Per-stage latency recording (observability-enabled runs only).
    stages: Option<StageRecorder>,
}

impl SinkBolt {
    /// A sink writing into shared state.
    pub(crate) fn new(state: Arc<Mutex<SinkState>>) -> Self {
        Self {
            state,
            stages: None,
        }
    }

    /// Records the dispatch-to-result latency of every pair under
    /// [`Stage::Emit`] in `shared` (see [`StageRecorder`]).
    pub(crate) fn with_stages(mut self, shared: Option<Arc<Mutex<StageProfile>>>) -> Self {
        self.stages = shared.map(StageRecorder::new);
        self
    }
}

impl Bolt<JoinMsg> for SinkBolt {
    fn execute(&mut self, msg: JoinMsg, out: &mut Outbox<JoinMsg>) {
        match msg {
            JoinMsg::Result { pair, ingest } => {
                // Dispatch-to-result latency on the topology clock:
                // wall time in threaded runs, virtual time in simulation.
                let latency = out.now().saturating_since(ingest);
                if let Some(st) = &mut self.stages {
                    st.record(Stage::Emit, latency);
                }
                let (earlier, later) = pair.key();
                out.trace_instant(Stage::Emit, earlier, later);
                let mut s = self.state.lock();
                s.pairs.push(pair);
                s.latency.record(latency);
            }
            _ => unreachable!("sink only receives results"),
        }
    }

    fn finish(&mut self, _out: &mut Outbox<JoinMsg>) {
        if let Some(st) = &mut self.stages {
            st.flush();
        }
    }
}
