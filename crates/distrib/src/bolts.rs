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

/// Routes each arriving record, alone or inside a source batch, to its
/// index/probe joiners. One task.
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

    /// Dispatches one source message and accounts for a shed record.
    fn dispatch(&mut self, msg: &JoinMsg, out: &mut Outbox<JoinMsg>) {
        let mut port = OutboxPort {
            out,
            stages: &mut self.stages,
        };
        match self.dispatcher.dispatch(msg, &mut port) {
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
    /// An inbound [`JoinMsg::Batch`] (the source edge under
    /// `dispatch_batch`) is unpacked record by record through the one
    /// dispatch path, so the ingest stamp, the shed decision, the replay
    /// feed and the epoch boundary — a barrier opens at the interval's
    /// exact record, mid-batch if that is where it falls — are those of an
    /// unbatched run. Only the engine's own accounting (queue wait, the
    /// `Execute` span, `msgs_in`) is per engine message.
    fn execute(&mut self, msg: JoinMsg, out: &mut Outbox<JoinMsg>) {
        match msg {
            JoinMsg::Batch(msgs) => msgs.iter().for_each(|m| self.dispatch(m, out)),
            msg => self.dispatch(&msg, out),
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
    /// Result pairs of the inbound batch being unpacked. Empty between
    /// engine messages; kept for its capacity, so that an outbound batch
    /// costs one allocation of exactly its size.
    held: Vec<JoinMsg>,
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
            held: Vec::new(),
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

    /// Probes, under a verify span — with `fused`, through the one scan
    /// that also indexes the record. The result pairs are emitted one by
    /// one, or held back when the message is part of an inbound batch (see
    /// [`Bolt::execute`]).
    fn probe(
        &mut self,
        payload: &RecordMsg,
        fused: bool,
        batched: bool,
        out: &mut Outbox<JoinMsg>,
    ) {
        let t0 = self.stage_start(out);
        let pairs = if fused {
            self.joiner.process(payload)
        } else {
            self.joiner.probe(payload)
        };
        let results = pairs.iter().map(|&pair| JoinMsg::Result {
            pair,
            ingest: payload.ingest,
        });
        if batched {
            self.held.extend(results);
        } else {
            results.for_each(|r| out.emit(r));
        }
        let emitted = pairs.len() as u64;
        self.stage_end(Stage::Verify, t0, payload.record.id().0, emitted, out);
    }

    /// Indexes the record, under an index span. A record whose `fused`
    /// probe already indexed it still gets the span (`b` = records
    /// stored), so every indexed record has one in every trace; under
    /// Threads that span times the gauge read, not a second scan — the
    /// indexing work sits inside the record's verify span.
    fn index(&mut self, payload: &RecordMsg, fused: bool, out: &mut Outbox<JoinMsg>) {
        let t0 = self.stage_start(out);
        if !fused {
            self.joiner.insert(payload);
        }
        if t0.is_some() {
            let stored = self.joiner.stored() as u64;
            self.stage_end(Stage::Index, t0, payload.record.id().0, stored, out);
        }
    }

    /// Processes one message that is not a batch; `batched` says whether
    /// it arrived inside one. Returns the `(id, timestamp)` of the record
    /// it carried, for the watermark.
    fn apply(
        &mut self,
        msg: JoinMsg,
        batched: bool,
        out: &mut Outbox<JoinMsg>,
    ) -> Option<(u64, u64)> {
        let processed = msg.record().map(|r| (r.id().0, r.timestamp()));
        match msg {
            JoinMsg::Probe(payload) => {
                self.joiner.advance(&payload.record);
                self.probe(&payload, false, batched, out);
            }
            JoinMsg::Index(payload) => {
                self.joiner.advance(&payload.record);
                self.index(&payload, false, out);
            }
            JoinMsg::ProbeAndIndex(payload) => {
                self.joiner.advance(&payload.record);
                self.probe(&payload, true, batched, out);
                self.index(&payload, true, out);
            }
            JoinMsg::Batch(_) => unreachable!("batches are never nested"),
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
        processed
    }
}

impl Bolt<JoinMsg> for JoinerBolt {
    /// One engine message in, at most one out per probe — or, for an
    /// inbound [`JoinMsg::Batch`], at most one out for the whole batch:
    /// its sub-messages run the full per-message path in dispatch order
    /// (dedup advance, stage spans) while their result pairs are held
    /// back, and leave as a single batch of [`JoinMsg::Result`]s when the
    /// inbound batch ends. Results never wait for a later message, so
    /// batching adds no latency beyond the batch's own processing time.
    fn execute(&mut self, msg: JoinMsg, out: &mut Outbox<JoinMsg>) {
        let processed = match msg {
            JoinMsg::Batch(msgs) => {
                let mut last = None;
                for m in msgs {
                    last = self.apply(m, true, out).or(last);
                }
                if !self.held.is_empty() {
                    out.emit(JoinMsg::Batch(self.held.drain(..).collect()));
                }
                last
            }
            msg => self.apply(msg, false, out),
        };
        // Watermark last, once per engine message: published only when
        // everything the message carried is fully visible (results
        // emitted, index updated). A batch therefore advances it in one
        // step, to its last record, after its held results have left — the
        // unit the engine redelivers after an injected crash, or drops as
        // poisoned after a panic, is the whole batch too.
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

    /// Collects `results` — every one a [`JoinMsg::Result`] — under one
    /// lock and one clock read.
    fn collect(&mut self, results: &[JoinMsg], out: &mut Outbox<JoinMsg>) {
        // Dispatch-to-result latency on the topology clock: wall time in
        // threaded runs, virtual time in simulation.
        let now = out.now();
        let mut s = self.state.lock();
        for msg in results {
            let JoinMsg::Result { pair, ingest } = msg else {
                unreachable!("sink only receives results")
            };
            let latency = now.saturating_since(*ingest);
            if let Some(st) = &mut self.stages {
                st.record(Stage::Emit, latency);
            }
            let (earlier, later) = pair.key();
            out.trace_instant_at(Stage::Emit, now, earlier, later);
            s.pairs.push(*pair);
            s.latency.record(latency);
        }
    }
}

impl Bolt<JoinMsg> for SinkBolt {
    fn execute(&mut self, msg: JoinMsg, out: &mut Outbox<JoinMsg>) {
        match msg {
            JoinMsg::Batch(results) => self.collect(&results, out),
            result => self.collect(std::slice::from_ref(&result), out),
        }
    }

    fn finish(&mut self, _out: &mut Outbox<JoinMsg>) {
        if let Some(st) = &mut self.stages {
            st.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::LocalAlgo;
    use crate::recovery::ReplayEntry;
    use ssj_core::join::bistream::Side;
    use ssj_core::{JoinConfig, Window};
    use ssj_text::{Record, RecordId, TokenId};
    use stormlite::{Grouping, RunReport, SimConfig, Topology};

    fn payload(id: u64, tokens: &[u32]) -> RecordMsg {
        let tokens = tokens.iter().copied().map(TokenId).collect();
        RecordMsg::solo(
            Record::from_sorted(RecordId(id), id, tokens),
            Timestamp::from_nanos(id),
        )
    }

    /// Feeds `input` to a single joiner task (τ = 0.5, no dedup) and
    /// returns every message it sent on, in order, with the run report.
    fn run_joiner(
        input: Vec<JoinMsg>,
        recovery: Option<Arc<RecoveryState>>,
    ) -> (Vec<JoinMsg>, RunReport) {
        let mut t = Topology::new().with_supervised_restarts(1);
        t.spout("source", input);
        t.bolt("joiner", 1, move |task| {
            let joiner = Joiner::new(LocalAlgo::PpJoin, JoinConfig::jaccard(0.5), false, None);
            JoinerBolt::new(joiner, task, Arc::default(), recovery.clone(), None, None)
        });
        let sent = t.collector("sink");
        t.wire("source", "joiner", Grouping::global());
        t.wire("joiner", "sink", Grouping::global());
        let report = t.run_sim(SimConfig::seeded(1)).report;
        let sent = std::mem::take(&mut *sent.lock());
        (sent, report)
    }

    fn result_key(msg: &JoinMsg) -> (u64, u64, Timestamp) {
        match msg {
            JoinMsg::Result { pair, ingest } => (pair.earlier.0, pair.later.0, *ingest),
            other => panic!("expected a result, got {other:?}"),
        }
    }

    /// Two stored records, then a probe-and-index and a probe that each
    /// match several of what is stored by then.
    fn matching_stream() -> (Vec<JoinMsg>, Vec<JoinMsg>) {
        let stored = vec![
            JoinMsg::Index(payload(0, &[1, 2, 3, 4])),
            JoinMsg::Index(payload(1, &[1, 2, 3, 5])),
        ];
        let probes = vec![
            JoinMsg::ProbeAndIndex(payload(2, &[1, 2, 3, 4, 5])),
            JoinMsg::Probe(payload(3, &[1, 2, 3, 4])),
        ];
        (stored, probes)
    }

    #[test]
    fn unbatched_probes_emit_one_result_message_per_pair() {
        let (mut input, probes) = matching_stream();
        input.extend(probes);
        let (sent, report) = run_joiner(input, None);
        assert!(report.is_clean());
        let keys: Vec<_> = sent.iter().map(result_key).collect();
        // Record 2 matches 0 and 1; record 3 matches 0, 1 and 2. Each pair
        // carries its probe's ingest stamp.
        assert_eq!(keys.len(), 5);
        assert!(keys[..2].iter().all(|k| k.1 == 2 && k.2.as_nanos() == 2));
        assert!(keys[2..].iter().all(|k| k.1 == 3 && k.2.as_nanos() == 3));
        assert_eq!(report.component("joiner").msgs_out, 5);
    }

    #[test]
    fn a_batch_in_yields_one_batch_out_with_the_pairs_in_probe_order() {
        let (stored, probes) = matching_stream();
        let (unbatched, _) = run_joiner([stored.clone(), probes.clone()].concat(), None);
        let mut input = stored;
        input.push(JoinMsg::Batch(probes));
        let (sent, report) = run_joiner(input, None);
        assert!(report.is_clean());
        assert_eq!(sent.len(), 1, "one message out for one batch in");
        let JoinMsg::Batch(results) = &sent[0] else {
            panic!("expected a batch, got {:?}", sent[0]);
        };
        assert_eq!(
            results.iter().map(result_key).collect::<Vec<_>>(),
            unbatched.iter().map(result_key).collect::<Vec<_>>(),
            "batching must not reorder or restamp results"
        );
        assert_eq!(report.component("joiner").msgs_out, 1);
    }

    #[test]
    fn a_batch_without_pairs_yields_nothing() {
        let input = vec![JoinMsg::Batch(vec![
            JoinMsg::ProbeAndIndex(payload(0, &[1, 2, 3])),
            JoinMsg::Probe(payload(1, &[7, 8, 9])),
            JoinMsg::Index(payload(2, &[4, 5, 6])),
        ])];
        let (sent, report) = run_joiner(input, None);
        assert!(report.is_clean());
        assert!(sent.is_empty(), "sent {sent:?}");
    }

    /// The engine drops a tuple whose `execute` panicked; for a batch that
    /// is the whole batch. Its held results die with the instance, and the
    /// watermark never covered its records, so the rebuilt instance does
    /// not get their index state back either.
    #[test]
    fn a_batch_that_panics_is_lost_whole_and_accounted_once() {
        let recovery = Arc::new(RecoveryState::new(1, Window::Unbounded));
        let records = [
            payload(0, &[1, 2, 3, 4]),
            payload(1, &[1, 2, 3, 5]),
            payload(2, &[1, 2, 3, 4, 5]),
        ];
        for p in &records {
            recovery.buffer_index_target(0, ReplayEntry::from_payload(p));
        }
        let [r0, r1, r2] = records;
        let wrong_mode = RecordMsg {
            side: Some(Side::Left),
            ..payload(9, &[1, 2, 3])
        };
        let input = vec![
            JoinMsg::ProbeAndIndex(r0),
            JoinMsg::Batch(vec![
                JoinMsg::ProbeAndIndex(r1), // matches r0: held, never sent
                JoinMsg::Probe(wrong_mode), // a sided message in a self-join panics
            ]),
            JoinMsg::ProbeAndIndex(r2),
        ];
        let (sent, report) = run_joiner(input, Some(recovery));
        assert_eq!(report.dropped_poisoned(), 1);
        assert_eq!(report.total_restarts(), 1);
        // The rebuilt joiner holds r0 (replayed up to the watermark) and
        // not r1, so r2 finds exactly one match.
        let keys: Vec<_> = sent.iter().map(result_key).collect();
        assert_eq!(keys, vec![(0, 2, Timestamp::from_nanos(2))]);
    }

    /// Feeds `input` to a sink task; returns its state, its emit-stage
    /// sample count, and the run report.
    fn run_sink(input: Vec<JoinMsg>) -> (SinkState, u64, RunReport) {
        let state = Arc::new(Mutex::new(SinkState::default()));
        let stages = Arc::new(Mutex::new(StageProfile::new()));
        let mut t = Topology::new();
        t.spout("source", input);
        let (shared, shared_stages) = (Arc::clone(&state), Arc::clone(&stages));
        t.bolt("sink", 1, move |_| {
            SinkBolt::new(Arc::clone(&shared)).with_stages(Some(Arc::clone(&shared_stages)))
        });
        t.wire("source", "sink", Grouping::global());
        let report = t.run_sim(SimConfig::seeded(1)).report;
        let state = std::mem::take(&mut *state.lock());
        let emits = stages.lock().get(Stage::Emit).count();
        (state, emits, report)
    }

    fn result(earlier: u64, later: u64) -> JoinMsg {
        JoinMsg::Result {
            pair: MatchPair {
                earlier: RecordId(earlier),
                later: RecordId(later),
                similarity: 0.75,
            },
            ingest: Timestamp::ZERO,
        }
    }

    #[test]
    fn the_sink_collects_single_and_batched_results_one_sample_per_pair() {
        let input = vec![
            result(0, 1),
            JoinMsg::Batch(vec![result(0, 2), result(1, 2), result(0, 3)]),
            result(2, 3),
        ];
        let (state, emits, report) = run_sink(input);
        assert!(report.is_clean());
        let keys: Vec<_> = state.pairs.iter().map(MatchPair::key).collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)]);
        assert_eq!(state.latency.count(), 5);
        assert_eq!(emits, 5);
        assert_eq!(report.component("sink").msgs_in, 3);
    }

    #[test]
    fn the_sink_rejects_anything_but_results() {
        for bad in [
            JoinMsg::Probe(payload(0, &[1])),
            JoinMsg::Batch(vec![result(0, 1), JoinMsg::Index(payload(0, &[1]))]),
            JoinMsg::Batch(vec![JoinMsg::Batch(vec![result(0, 1)])]),
        ] {
            let (_, _, report) = run_sink(vec![bad]);
            assert_eq!(report.failures.len(), 1);
            assert!(report.failures[0].2.contains("sink only receives results"));
        }
    }
}
