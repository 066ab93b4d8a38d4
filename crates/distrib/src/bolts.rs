//! The topology driver: the two processing vertices of the join, as
//! stormlite bolts around the crate's shared `operators`. The dispatcher
//! is the handler of the topology's one spout; the joiner is the terminal
//! bolt: it publishes its own result pairs.

use crate::checkpoint::CheckpointCoordinator;
use crate::msg::{JoinMsg, RecordMsg};
use crate::operators::{DispatchPort, Dispatched, Dispatcher, Joiner};
use crate::recovery::RecoveryState;
use crate::route::Router;
use obs::Stage;
use parking_lot::Mutex;
use ssj_core::{JoinStats, MatchPair};
use std::sync::Arc;
use stormlite::{Bolt, LatencyHistogram, Outbox, Timestamp};

/// Routes each arriving record to its index/probe joiners: the handler of
/// the `dispatcher` spout, so it runs on the task that pulls the source.
pub(crate) struct DispatcherBolt<R: Router> {
    dispatcher: Dispatcher<R>,
    /// Ids of shed records, for exact recall accounting by the caller.
    shed_log: Arc<Mutex<Vec<u64>>>,
}

impl<R: Router> DispatcherBolt<R> {
    /// A dispatcher bolt logging shed record ids into `shed_log`.
    pub(crate) fn new(dispatcher: Dispatcher<R>, shed_log: Arc<Mutex<Vec<u64>>>) -> Self {
        Self {
            dispatcher,
            shed_log,
        }
    }
}

/// The dispatcher's view of the topology: the task's outbox is the clock
/// and the `k` direct wires, queue depth is the backlog.
struct OutboxPort<'a> {
    out: &'a mut Outbox<JoinMsg>,
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
        // read, so an untraced run reads no extra clock.
        self.out.trace_span(
            Stage::Route,
            payload.ingest,
            payload.record.id().0,
            fanout as u64,
        );
    }
}

impl<R: Router> Bolt<JoinMsg> for DispatcherBolt<R> {
    /// Dispatches one source message and accounts for a shed record.
    fn execute(&mut self, msg: JoinMsg, out: &mut Outbox<JoinMsg>) {
        let id = msg.record().expect("dispatched a record").id().0;
        match self.dispatcher.dispatch(msg, &mut OutboxPort { out }) {
            Dispatched::Sent => {}
            Dispatched::Shed { depth } => {
                out.record_shed(1);
                out.trace_instant(Stage::Shed, id, depth as u64);
                self.shed_log.lock().push(id);
            }
            Dispatched::Unreachable => unreachable!("topology wires are never fenced"),
        }
    }

    fn finish(&mut self, out: &mut Outbox<JoinMsg>) {
        self.dispatcher.flush(&mut OutboxPort { out });
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
}

/// What one joiner task published over a run, across all of its
/// incarnations: its result slot.
#[derive(Debug, Default)]
pub struct SinkState {
    /// Every result pair, in publication order.
    pub pairs: Vec<MatchPair>,
    /// Dispatch-to-publication latency distribution, one sample per pair.
    pub latency: LatencyHistogram,
}

/// One of the `k` parallel joiners: a [`Joiner`] plus the topology's
/// spans, result publication, processing watermark and checkpoint
/// publication.
pub(crate) struct JoinerBolt {
    joiner: Joiner,
    task: usize,
    snapshots: Arc<Mutex<Vec<JoinerSnapshot>>>,
    /// This task's result slot, outliving every incarnation of the task.
    results: Arc<Mutex<SinkState>>,
    recovery: Option<Arc<RecoveryState>>,
    coordinator: Option<Arc<CheckpointCoordinator>>,
    incarnation: u64,
    /// Result pairs of the engine message being executed, in probe order.
    /// Empty between engine messages; kept for its capacity.
    pairs: Vec<MatchPair>,
    /// Per probe that found pairs: its ingest stamp and its pair count.
    probes: Vec<(Timestamp, u64)>,
}

impl JoinerBolt {
    /// Joiner bolt `task`, publishing into `results`. `recovery` must be
    /// provided exactly when the run injects faults, `coordinator`
    /// exactly when it checkpoints. A rebuilt bolt (an incarnation after a
    /// crash) re-indexes the state its predecessor lost, from the replay
    /// buffer, before it sees its first message.
    pub(crate) fn new(
        joiner: Joiner,
        task: usize,
        snapshots: Arc<Mutex<Vec<JoinerSnapshot>>>,
        results: Arc<Mutex<SinkState>>,
        recovery: Option<Arc<RecoveryState>>,
        coordinator: Option<Arc<CheckpointCoordinator>>,
    ) -> Self {
        let mut bolt = Self {
            joiner,
            task,
            snapshots,
            results,
            recovery,
            coordinator,
            incarnation: 0,
            pairs: Vec::new(),
            probes: Vec::new(),
        };
        if let Some(recovery) = &bolt.recovery {
            bolt.incarnation = recovery.begin_incarnation(task);
            if bolt.incarnation > 0 {
                bolt.joiner.restore(&recovery.replay_for(task));
            }
        }
        bolt
    }

    /// Stage timing start: reads the clock only when tracing is on, so
    /// untraced runs pay nothing.
    #[inline]
    fn stage_start(out: &Outbox<JoinMsg>) -> Option<Timestamp> {
        out.tracing().then(|| out.now())
    }

    /// Closes a stage span opened by [`Self::stage_start`] with a trace
    /// span. Purely observational — no randomness, no clock mutation.
    #[inline]
    fn stage_end(stage: Stage, t0: Option<Timestamp>, a: u64, b: u64, out: &mut Outbox<JoinMsg>) {
        if let Some(t0) = t0 {
            out.trace_span(stage, t0, a, b);
        }
    }

    /// Probes, under a verify span — with `fused`, through the one scan
    /// that also indexes the record. The result pairs are held until the
    /// engine message ends (see [`Self::publish`]).
    fn probe(&mut self, payload: &RecordMsg, fused: bool, out: &mut Outbox<JoinMsg>) {
        let t0 = Self::stage_start(out);
        let pairs = if fused {
            self.joiner.process(payload)
        } else {
            self.joiner.probe(payload)
        };
        let found = pairs.len() as u64;
        if found > 0 {
            self.pairs.extend_from_slice(pairs);
            self.probes.push((payload.ingest, found));
        }
        Self::stage_end(Stage::Verify, t0, payload.record.id().0, found, out);
    }

    /// Publishes the pairs held for the engine message just executed into
    /// this task's result slot, under one lock and one clock read: one
    /// latency sample per pair (one histogram update per probe, whose
    /// pairs share its ingest stamp) and, when tracing, one `emit`
    /// instant per pair.
    fn publish(&mut self, out: &mut Outbox<JoinMsg>) {
        if self.pairs.is_empty() {
            return;
        }
        // Dispatch-to-publication latency on the topology clock: wall time
        // in threaded runs, virtual time in simulation.
        let now = out.now();
        if out.tracing() {
            for pair in &self.pairs {
                let (earlier, later) = pair.key();
                out.trace_instant_at(Stage::Emit, now, earlier, later);
            }
        }
        let mut slot = self.results.lock();
        slot.pairs.append(&mut self.pairs);
        for (ingest, n) in self.probes.drain(..) {
            slot.latency.record_n(now.saturating_since(ingest), n);
        }
    }

    /// Indexes the record, under an index span. A record whose `fused`
    /// probe already indexed it still gets the span (`b` = records
    /// stored), so every indexed record has one in every trace; under
    /// Threads that span times the gauge read, not a second scan — the
    /// indexing work sits inside the record's verify span.
    fn index(&mut self, payload: &RecordMsg, fused: bool, out: &mut Outbox<JoinMsg>) {
        let t0 = Self::stage_start(out);
        if !fused {
            self.joiner.insert(payload);
        }
        if t0.is_some() {
            let stored = self.joiner.stored() as u64;
            Self::stage_end(Stage::Index, t0, payload.record.id().0, stored, out);
        }
    }

    /// Processes one message that is not a batch. Returns the
    /// `(id, timestamp)` of the record it carried, for the watermark.
    fn apply(&mut self, msg: JoinMsg, out: &mut Outbox<JoinMsg>) -> Option<(u64, u64)> {
        let processed = msg.record().map(|r| (r.id().0, r.timestamp()));
        match msg {
            JoinMsg::Probe(payload) => {
                self.joiner.advance(&payload.record);
                self.probe(&payload, false, out);
            }
            JoinMsg::Index(payload) => {
                self.joiner.advance(&payload.record);
                self.index(&payload, false, out);
            }
            JoinMsg::ProbeAndIndex(payload) => {
                self.joiner.advance(&payload.record);
                self.probe(&payload, true, out);
                self.index(&payload, true, out);
            }
            JoinMsg::Batch(_) => unreachable!("batches are never nested"),
            JoinMsg::Barrier { epoch, injected_at } => {
                // Alignment stall: how long the barrier sat behind data in
                // this joiner's queue before the snapshot could be cut.
                let stall = out.now().saturating_since(injected_at);
                out.record_barrier_stall(stall);
                out.trace_instant(
                    Stage::Barrier,
                    epoch,
                    stall.as_nanos().min(u128::from(u64::MAX)) as u64,
                );
                // The dispatcher is this joiner's only upstream: the barrier
                // is aligned on arrival.
                let coordinator = self
                    .coordinator
                    .as_ref()
                    .expect("barrier received without a checkpoint coordinator");
                let entries = self.joiner.window_snapshot();
                let outcome = coordinator.publish(epoch, self.task, &entries);
                out.record_checkpoint(outcome.bytes);
                out.trace_instant(Stage::Checkpoint, epoch, outcome.bytes);
                if outcome.completed {
                    // Epoch latency, charged to the task that closed it:
                    // barrier injection to durable commit.
                    let lat = out.now().saturating_since(outcome.injected_at);
                    out.record_checkpoint_latency(lat);
                }
            }
        }
        processed
    }
}

impl Bolt<JoinMsg> for JoinerBolt {
    /// One engine message in, its result pairs published at its end, in
    /// probe order. An inbound [`JoinMsg::Batch`]'s sub-messages run the
    /// full per-message path in dispatch order (dedup advance, stage
    /// spans), and its pairs are published together when the batch ends.
    /// Results never wait for a later message, so batching adds no latency
    /// beyond the batch's own processing time.
    fn execute(&mut self, msg: JoinMsg, out: &mut Outbox<JoinMsg>) {
        let processed = match msg {
            JoinMsg::Batch(msgs) => {
                let mut last = None;
                for m in msgs {
                    last = self.apply(m, out).or(last);
                }
                last
            }
            msg => self.apply(msg, out),
        };
        self.publish(out);
        // Watermark last, once per engine message: published only when
        // everything the message carried is fully visible (results
        // published, index updated). A batch therefore advances it in one
        // step, to its last record, after its pairs are published — the
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
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::LocalAlgo;
    use ssj_core::join::bistream::Side;
    use ssj_core::{JoinConfig, Window};
    use ssj_text::{Record, RecordId, TokenId};
    use stormlite::{FaultPlan, Grouping, RunReport, SimConfig, Topology};

    fn payload(id: u64, tokens: &[u32]) -> RecordMsg {
        let tokens = tokens.iter().copied().map(TokenId).collect();
        RecordMsg::solo(
            Record::from_sorted(RecordId(id), id, tokens),
            Timestamp::from_nanos(id),
        )
    }

    /// Feeds `input` to a single, terminal joiner task (τ = 0.5, no
    /// dedup), crashing it as `fault` says, and returns what it published
    /// with the run report. A crashed joiner restores from a replay buffer
    /// fed the way a dispatcher feeds it.
    fn run_joiner(input: Vec<JoinMsg>, fault: Option<FaultPlan>) -> (SinkState, RunReport) {
        let recovery = fault.as_ref().map(|_| {
            let recovery = Arc::new(RecoveryState::new(1, Window::Unbounded));
            let carried = input.iter().flat_map(|m| match m {
                JoinMsg::Batch(msgs) => msgs.iter().collect(),
                m => vec![m],
            });
            for m in carried.filter(|m| m.indexes()) {
                recovery.buffer_index_target(0, m.payload().expect("record-bearing"));
            }
            recovery
        });
        let slot = Arc::new(Mutex::new(SinkState::default()));
        let mut t = Topology::new();
        if let Some(plan) = fault {
            t = t.with_fault_plan(plan);
        }
        t.spout("source", input);
        let shared = Arc::clone(&slot);
        t.bolt("joiner", 1, move |task| {
            let joiner = Joiner::new(LocalAlgo::PpJoin, JoinConfig::jaccard(0.5), false, None);
            let slot = Arc::clone(&shared);
            JoinerBolt::new(joiner, task, Arc::default(), slot, recovery.clone(), None)
        });
        t.wire("source", "joiner", Grouping::global());
        let report = t.run_sim(SimConfig::seeded(1)).report;
        assert_eq!(
            report.component("joiner").msgs_out,
            0,
            "the joiner is terminal"
        );
        let published = std::mem::take(&mut *slot.lock());
        (published, report)
    }

    fn keys(published: &SinkState) -> Vec<(u64, u64)> {
        published.pairs.iter().map(MatchPair::key).collect()
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
    fn batched_and_unbatched_input_publish_the_same_pairs_in_probe_order() {
        let (stored, probes) = matching_stream();
        let (unbatched, report) = run_joiner([stored.clone(), probes.clone()].concat(), None);
        assert!(report.is_clean());
        // Record 2 matches 0 and 1; record 3 matches 0, 1 and 2.
        let probe_order = vec![(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)];
        assert_eq!(keys(&unbatched), probe_order);
        assert_eq!(unbatched.latency.count(), 5, "one sample per pair");

        let mut input = stored;
        input.push(JoinMsg::Batch(probes));
        let (batched, report) = run_joiner(input, None);
        assert!(report.is_clean());
        assert_eq!(keys(&batched), probe_order, "batching must not reorder");
        assert_eq!(batched.latency.count(), 5, "one sample per pair");

        // A batch without pairs publishes nothing.
        let input = vec![JoinMsg::Batch(vec![
            JoinMsg::ProbeAndIndex(payload(0, &[1, 2, 3])),
            JoinMsg::Probe(payload(1, &[7, 8, 9])),
            JoinMsg::Index(payload(2, &[4, 5, 6])),
        ])];
        let (nothing, report) = run_joiner(input, None);
        assert!(report.is_clean());
        assert!(nothing.pairs.is_empty() && nothing.latency.is_empty());
    }

    /// The engine drops a tuple whose `execute` panicked, and the bolt
    /// instance with it; for a batch that is the whole batch. The pairs it
    /// held die with the instance, and the dead task discards the rest of
    /// its input.
    #[test]
    fn a_batch_that_panics_publishes_nothing_and_is_dropped_once() {
        let wrong_mode = RecordMsg {
            side: Some(Side::Left),
            ..payload(9, &[1, 2, 3])
        };
        let input = vec![
            JoinMsg::ProbeAndIndex(payload(0, &[1, 2, 3, 4])),
            JoinMsg::Batch(vec![
                JoinMsg::ProbeAndIndex(payload(1, &[1, 2, 3, 5])), // matches 0: held, never published
                JoinMsg::Probe(wrong_mode), // a sided message in a self-join panics
            ]),
            JoinMsg::ProbeAndIndex(payload(2, &[1, 2, 3, 4, 5])), // would match 0 and 1
        ];
        let (published, report) = run_joiner(input, None);
        assert_eq!(report.dropped_poisoned(), 1);
        assert_eq!(report.total_restarts(), 0);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].0, "joiner");
        assert!(
            published.pairs.is_empty(),
            "published {:?}",
            published.pairs
        );
        assert!(published.latency.is_empty());
    }

    /// An injected crash rebuilds the bolt between engine messages. What
    /// the earlier incarnation published stays in the task's slot — the
    /// messages that produced it are not redelivered — and the rebuilt one
    /// appends the rest, so the slot holds exactly the uncrashed run's
    /// pairs.
    #[test]
    fn a_crashed_incarnations_pairs_stay_in_the_task_slot() {
        let (stored, probes) = matching_stream();
        let mut input = [stored, probes].concat();
        input.push(JoinMsg::ProbeAndIndex(payload(4, &[1, 2, 3, 5, 6])));
        let (want, _) = run_joiner(input.clone(), None);
        for crash_at in 1..input.len() as u64 {
            let plan = FaultPlan::new().crash("joiner", 0, crash_at);
            let (got, report) = run_joiner(input.clone(), Some(plan));
            assert_eq!(report.total_restarts(), 1, "crash at {crash_at}");
            assert_eq!(report.dropped_poisoned(), 0, "crash at {crash_at}");
            assert_eq!(keys(&got), keys(&want), "crash at {crash_at}");
            assert_eq!(got.latency.count(), want.pairs.len() as u64);
        }
    }
}
