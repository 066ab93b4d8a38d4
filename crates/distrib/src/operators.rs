//! The pipeline's operator algorithms, defined once.
//!
//! The join is one logical pipeline — a dispatcher that routes each record
//! (index at its owners, probe the joiners that may hold a match) and `k`
//! joiners that produce the result pairs — executed by two run-times: the stormlite topology
//! ([`crate::bolts`], threads or simulation) and the cluster launcher with
//! its nodes ([`crate::cluster`]). Both are drivers around the two
//! operators here:
//!
//! * [`Dispatcher`] decides what a record costs and in which order its
//!   messages leave; a [`DispatchPort`] is all it needs from a run-time.
//! * [`Joiner`] is a joiner task's local state machine; the driver moves
//!   its results (into a result slot, a wire frame) and adds its own
//!   instrumentation between the steps.

use crate::checkpoint::CheckpointCoordinator;
use crate::driver::LocalAlgo;
use crate::msg::{JoinMsg, RecordMsg};
use crate::recovery::RecoveryState;
use crate::route::{token_owner, RouteDecision, Router};
use ssj_core::join::bistream::{BiStreamJoiner, Side};
use ssj_core::join::PROBE_LOOKAHEAD;
use ssj_core::snapshot::{encode_bistream, encode_joiner, SnapshotEntry};
use ssj_core::window::EvictionQueue;
use ssj_core::{JoinConfig, JoinStats, MatchPair, StreamJoiner, Threshold, Window};
use ssj_text::{FxHashMap, Record, RecordId, TokenId};
use std::sync::Arc;
use stormlite::{Timestamp, BATCH_MAX_FRAMES};

/// What a run-time lends the [`Dispatcher`]: its clock and its `k` joiner
/// wires.
pub(crate) trait DispatchPort {
    /// The run clock. Read exactly once per record (its ingest stamp) and
    /// once per opened epoch (the barrier stamp): under a logical clock
    /// every read shows on the wire.
    fn now(&mut self) -> Timestamp;

    /// Messages queued for, or in flight to, `task` — the shed signal.
    fn backlog(&self, task: usize) -> usize;

    /// Puts `msg` on `task`'s FIFO wire, blocking on backpressure.
    fn send(&mut self, task: usize, msg: JoinMsg);

    /// Called once per record between routing and the first send, so the
    /// driver can time the route stage on its own clock. `fanout` counts
    /// the record's index plus probe targets.
    fn routed(&mut self, payload: &RecordMsg, fanout: usize);
}

/// What became of one dispatched record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatched {
    /// Its messages were sent (for a restore tuple: to its index targets).
    Sent,
    /// Shed whole: the deepest target backlog, `depth`, reached the
    /// watermark.
    Shed {
        /// The backlog that tripped the watermark.
        depth: usize,
    },
}

/// The dispatch operator: routes a record, sheds it or sends its
/// messages, feeds the replay buffers, and opens checkpoint epochs.
pub(crate) struct Dispatcher<R: Router> {
    pub(crate) router: R,
    /// Whether payloads carry sides (recorded in epoch manifests).
    bistream: bool,
    /// Replay buffers fed for every index target.
    recovery: Option<Arc<RecoveryState>>,
    /// Opens an epoch every `interval()` dispatched records.
    coordinator: Option<Arc<CheckpointCoordinator>>,
    /// Shed whole records whose deepest target backlog reaches this.
    shed_watermark: Option<usize>,
    /// Ship up to this many messages per wire as one [`JoinMsg::Batch`].
    batch: Option<usize>,
    /// Per-task pending batch.
    buffers: Vec<Vec<JoinMsg>>,
    /// Whether every [`BATCH_MAX_FRAMES`]-th source message sends what
    /// the batches hold (the *framing point*). The cluster always frames,
    /// so a sparse wire's messages never wait long for company; a
    /// topology frames only when a fault is armed, so a task's message n
    /// is the same batch on both engines, and otherwise fills its batches.
    pub(crate) framing: bool,
    /// Source messages dispatched, shed ones included.
    dispatched: u64,
    /// Records dispatched since the last barrier.
    routed_since_barrier: u64,
    /// The routing decision, refilled for every record
    /// ([`Router::route_into`]) so routing allocates nothing.
    decision: RouteDecision,
}

impl<R: Router> Dispatcher<R> {
    /// A dispatcher around `router`. `recovery` must be set whenever a
    /// joiner can lose state, `coordinator` exactly when the run
    /// checkpoints. With `batch` set the shed signal only sees batches
    /// already sent, so the watermark is approximate by one batch per wire.
    pub(crate) fn new(
        router: R,
        bistream: bool,
        recovery: Option<Arc<RecoveryState>>,
        coordinator: Option<Arc<CheckpointCoordinator>>,
        shed_watermark: Option<usize>,
        batch: Option<usize>,
    ) -> Self {
        assert!(batch != Some(0), "dispatch batch size must be at least 1");
        let k = router.k();
        Self {
            router,
            bistream,
            recovery,
            coordinator,
            shed_watermark,
            batch,
            buffers: vec![Vec::new(); k],
            framing: false,
            dispatched: 0,
            routed_since_barrier: 0,
            decision: RouteDecision::default(),
        }
    }

    /// Dispatches one source message. A [`JoinMsg::Index`] source message
    /// is a restore tuple: checkpointed window state re-entering through
    /// the current router, index-only (its results already exist) and
    /// never shed (it is state, not load).
    pub(crate) fn dispatch<P: DispatchPort>(&mut self, msg: JoinMsg, port: &mut P) -> Dispatched {
        let restore = matches!(msg, JoinMsg::Index(_));
        let incoming = match msg {
            JoinMsg::Probe(m) | JoinMsg::Index(m) | JoinMsg::ProbeAndIndex(m) => m,
            _ => panic!("source messages carry records"),
        };
        // Latency is measured from the routing decision (the paper
        // measures processing latency, not source queueing).
        let payload = RecordMsg {
            ingest: port.now(),
            ..incoming
        };
        let mut decision = std::mem::take(&mut self.decision);
        self.router.route_into(&payload.record, &mut decision);
        let dispatched = self.send_routed(restore, payload, &decision, port);
        self.decision = decision;
        // Placed by record count alone, so batch cuts never depend on
        // timing.
        if self.framing {
            self.dispatched += 1;
            if self.dispatched.is_multiple_of(BATCH_MAX_FRAMES as u64) {
                self.flush(port);
            }
        }
        dispatched
    }

    /// Sends a routed record's messages, or sheds it whole. Every message
    /// but the last carries a clone of `payload`; the last carries it.
    fn send_routed<P: DispatchPort>(
        &mut self,
        restore: bool,
        payload: RecordMsg,
        decision: &RouteDecision,
        port: &mut P,
    ) -> Dispatched {
        port.routed(&payload, decision.index.len() + decision.probe.len());
        let id = payload.record.id().0;
        if restore {
            let mut copies = Copies::new(payload, decision.index.len());
            for &ix in &decision.index {
                self.buffer_for_replay(ix, copies.payload());
                self.push(ix, JoinMsg::Index(copies.next()), port);
            }
            self.close_record(id, port);
            return Dispatched::Sent;
        }
        // The shed check runs before any send or replay buffering: a shed
        // record leaves no trace downstream, so the run's output is
        // exactly the join of the kept records.
        if let Some(watermark) = self.shed_watermark {
            let targets = decision.index.iter().chain(&decision.probe);
            let depth = targets.map(|&t| port.backlog(t)).max().unwrap_or(0);
            if depth >= watermark {
                return Dispatched::Shed { depth };
            }
        }
        // Both target lists ascend. Probes go out interleaved with the
        // index targets in task order; a task in both sets gets the atomic
        // combined message.
        let mut copies = Copies::new(payload, decision.message_count());
        let mut probes = decision.probe.iter().copied().peekable();
        for &ix in &decision.index {
            while let Some(p) = probes.next_if(|&p| p < ix) {
                self.push(p, JoinMsg::Probe(copies.next()), port);
            }
            self.buffer_for_replay(ix, copies.payload());
            if probes.next_if_eq(&ix).is_some() {
                self.push(ix, JoinMsg::ProbeAndIndex(copies.next()), port);
            } else {
                self.push(ix, JoinMsg::Index(copies.next()), port);
            }
        }
        for p in probes {
            self.push(p, JoinMsg::Probe(copies.next()), port);
        }
        self.close_record(id, port);
        Dispatched::Sent
    }

    /// Sends every pending batch. The driver calls this at stream end so
    /// no message is stranded.
    pub(crate) fn flush<P: DispatchPort>(&mut self, port: &mut P) {
        for (task, buf) in self.buffers.iter_mut().enumerate() {
            flush_buffer(buf, task, port);
        }
    }

    /// Sends `msg` to `task`, through the pending batch when batching.
    fn push<P: DispatchPort>(&mut self, task: usize, msg: JoinMsg, port: &mut P) {
        let Some(batch) = self.batch else {
            port.send(task, msg);
            return;
        };
        let buf = &mut self.buffers[task];
        buf.push(msg);
        if buf.len() >= batch {
            flush_buffer(buf, task, port);
        }
    }

    /// Buffers `payload` for replay at `task`. Must precede the send of
    /// its index message, so a watermark covering the record implies its
    /// entry is buffered.
    fn buffer_for_replay(&self, task: usize, payload: &RecordMsg) {
        if let Some(recovery) = &self.recovery {
            recovery.buffer_index_target(task, payload);
        }
    }

    /// Checkpoint bookkeeping once a record's messages are out: the record
    /// joins the current epoch, and when the interval fills the next epoch
    /// opens with one barrier down every wire — including wires this
    /// record skipped, since every task must publish for the epoch to
    /// commit.
    fn close_record<P: DispatchPort>(&mut self, id: u64, port: &mut P) {
        let Some(coordinator) = &self.coordinator else {
            return;
        };
        self.routed_since_barrier += 1;
        if self.routed_since_barrier < coordinator.interval() {
            return;
        }
        self.routed_since_barrier = 0;
        let injected_at = port.now();
        let epoch = coordinator.begin_epoch(
            injected_at,
            id,
            self.bistream,
            self.router.length_partition().cloned(),
        );
        // Pending batches hold messages dispatched before this barrier:
        // they go first, so every wire sees them ahead of it.
        self.flush(port);
        for t in 0..self.buffers.len() {
            port.send(t, JoinMsg::Barrier { epoch, injected_at });
        }
    }
}

/// A record's payload, handed out once per message it costs: a clone for
/// each message but the last, which takes the payload itself.
struct Copies {
    payload: Option<RecordMsg>,
    left: usize,
}

impl Copies {
    fn new(payload: RecordMsg, messages: usize) -> Self {
        Self {
            payload: Some(payload),
            left: messages,
        }
    }

    /// The payload, for a look before the next message takes it.
    fn payload(&self) -> &RecordMsg {
        self.payload.as_ref().expect("a message is still due")
    }

    fn next(&mut self) -> RecordMsg {
        self.left -= 1;
        if self.left == 0 {
            self.payload.take().expect("one payload per message")
        } else {
            self.payload().clone()
        }
    }
}

/// Sends `buf` to `task` as one message: unwrapped when it holds a single
/// message (the wire shape of an unbatched run), as a [`JoinMsg::Batch`]
/// otherwise, leaving a buffer sized for the next batch so it never
/// regrows from empty.
fn flush_buffer<P: DispatchPort>(buf: &mut Vec<JoinMsg>, task: usize, port: &mut P) {
    match buf.len() {
        0 => {}
        1 => port.send(task, buf.pop().expect("len checked")),
        n => port.send(
            task,
            JoinMsg::Batch(std::mem::replace(buf, Vec::with_capacity(n))),
        ),
    }
}

/// Exact duplicate-result elimination for replicating routers.
///
/// Under prefix routing, the pair `(s, r)` is produced at every joiner
/// owning a token in `prefix(r) ∩ prefix(s)`. Exactly one joiner emits it:
/// the owner of the *smallest* common prefix token. Each joiner remembers
/// the prefix token set of every record it indexed (cheap: prefixes are
/// short, token storage is shared) so it can evaluate the rule locally.
struct PrefixDedup {
    threshold: Threshold,
    window: Window,
    k: usize,
    me: usize,
    prefixes: FxHashMap<RecordId, Box<[TokenId]>>,
    queue: EvictionQueue<RecordId>,
}

impl PrefixDedup {
    fn new(threshold: Threshold, window: Window, k: usize, me: usize) -> Self {
        Self {
            threshold,
            window,
            k,
            me,
            prefixes: FxHashMap::default(),
            queue: EvictionQueue::new(),
        }
    }

    fn advance(&mut self, probe_id: u64, probe_ts: u64) {
        let prefixes = &mut self.prefixes;
        self.queue
            .drain_expired(self.window, probe_id, probe_ts, |id| {
                prefixes.remove(&id);
            });
    }

    fn on_index(&mut self, record: &Record) {
        let p = self.threshold.prefix_len(record.len());
        self.prefixes
            .insert(record.id(), record.prefix(p).to_vec().into());
        self.queue
            .push(record.id().0, record.timestamp(), record.id());
    }

    fn should_emit(&self, probe: &Record, earlier: RecordId) -> bool {
        let stored = self
            .prefixes
            .get(&earlier)
            .expect("matched record was indexed here");
        let p = self.threshold.prefix_len(probe.len());
        let min_common = first_common(probe.prefix(p), stored)
            .expect("a matching pair always shares a prefix token");
        token_owner(min_common, self.k) == self.me
    }
}

/// First (smallest) common element of two ascending token slices.
fn first_common(a: &[TokenId], b: &[TokenId]) -> Option<TokenId> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => return Some(a[i]),
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    None
}

/// One index for self-joins, a pair of indexes for bi-stream joins.
enum LocalState {
    Solo(Box<dyn StreamJoiner + Send>),
    Bi(BiStreamJoiner<Box<dyn StreamJoiner + Send>>),
}

/// The join operator: one joiner task's index plus, under a replicating
/// router, its result-dedup filter.
///
/// A record-bearing message is processed as [`advance`](Self::advance),
/// then whichever of [`probe`](Self::probe), [`insert`](Self::insert) and
/// [`process`](Self::process) its kind names — a probe-and-index message
/// is always the fused `process`, one index scan, never `probe` then
/// `insert`; a barrier is answered with
/// [`encode_snapshot`](Self::encode_snapshot); lost state comes back
/// through [`restore`](Self::restore).
pub(crate) struct Joiner {
    local: LocalState,
    dedup: Option<PrefixDedup>,
    buf: Vec<MatchPair>,
}

impl Joiner {
    /// A joiner running `algo` under `join`. `dedup` is `(k, this task)`
    /// exactly when the router replicates records
    /// ([`Router::needs_result_dedup`]).
    pub(crate) fn new(
        algo: LocalAlgo,
        join: JoinConfig,
        bistream: bool,
        dedup: Option<(usize, usize)>,
    ) -> Self {
        let local = if bistream {
            LocalState::Bi(BiStreamJoiner::new(|| algo.build(join)))
        } else {
            LocalState::Solo(algo.build(join))
        };
        Self {
            local,
            dedup: dedup.map(|(k, me)| PrefixDedup::new(join.threshold, join.window, k, me)),
            buf: Vec::new(),
        }
    }

    /// Expires dedup state that has left the window as of `record`.
    pub(crate) fn advance(&mut self, record: &Record) {
        if let Some(d) = &mut self.dedup {
            d.advance(record.id().0, record.timestamp());
        }
    }

    /// Probes the index with `payload` and returns the pairs this joiner
    /// must emit — every match, minus those another joiner owns under the
    /// dedup rule.
    pub(crate) fn probe(&mut self, payload: &RecordMsg) -> &[MatchPair] {
        self.buf.clear();
        match (&mut self.local, payload.side) {
            (LocalState::Solo(j), None) => j.probe(&payload.record, &mut self.buf),
            (LocalState::Bi(j), Some(side)) => j.probe(side, &payload.record, &mut self.buf),
            _ => panic!("message side does not match the joiner mode"),
        }
        self.retain_owned(&payload.record);
        &self.buf
    }

    /// [`probe`](Self::probe) then [`insert`](Self::insert) as the local
    /// joiner's one fused step — the same pairs and the same index state,
    /// from a single scan of the index.
    pub(crate) fn process(&mut self, payload: &RecordMsg) -> &[MatchPair] {
        self.buf.clear();
        match (&mut self.local, payload.side) {
            (LocalState::Solo(j), None) => j.process(&payload.record, &mut self.buf),
            (LocalState::Bi(j), Some(side)) => j.process(side, &payload.record, &mut self.buf),
            _ => panic!("message side does not match the joiner mode"),
        }
        // The probing record only enters the dedup filter once its own
        // pairs are placed, as when `insert` follows `probe`.
        self.retain_owned(&payload.record);
        if let Some(d) = &mut self.dedup {
            d.on_index(&payload.record);
        }
        &self.buf
    }

    /// The batch lookahead: announces to the local joiner the probes of the
    /// messages after `msgs[i]`, which is about to run, so its index can
    /// fetch their first cache misses while `msgs[i]` works
    /// ([`StreamJoiner::prefetch_probe`]). Index-only messages are skipped;
    /// the set of joined pairs and every counter are unchanged.
    pub(crate) fn prefetch_batch(&mut self, msgs: &[JoinMsg], i: usize) {
        let later = msgs.iter().skip(i + 1).take(PROBE_LOOKAHEAD);
        for (distance, msg) in (1..).zip(later) {
            let (JoinMsg::Probe(payload) | JoinMsg::ProbeAndIndex(payload)) = msg else {
                continue;
            };
            match (&mut self.local, payload.side) {
                (LocalState::Solo(j), None) => j.prefetch_probe(&payload.record, distance),
                (LocalState::Bi(j), Some(side)) => {
                    j.prefetch_probe(side, &payload.record, distance)
                }
                // The message's own turn raises the mode mismatch.
                _ => {}
            }
        }
    }

    /// Drops from `buf` the pairs of `probe` that another joiner emits
    /// under the dedup rule.
    fn retain_owned(&mut self, probe: &Record) {
        if let Some(d) = &self.dedup {
            self.buf.retain(|pair| d.should_emit(probe, pair.earlier));
        }
    }

    /// Stores `payload`'s record in the index.
    pub(crate) fn insert(&mut self, payload: &RecordMsg) {
        self.index(payload.side, &payload.record);
    }

    fn index(&mut self, side: Option<Side>, record: &Record) {
        match (&mut self.local, side) {
            (LocalState::Solo(j), None) => j.insert(record),
            (LocalState::Bi(j), Some(side)) => j.insert(side, record),
            _ => panic!("message side does not match the joiner mode"),
        }
        if let Some(d) = &mut self.dedup {
            d.on_index(record);
        }
    }

    /// Rebuilds lost index state — index-only: nothing is probed and no
    /// result is produced, so a restore can never duplicate a pair. The
    /// dedup filter is re-fed, or later probes could not place the
    /// restored records.
    pub(crate) fn restore(&mut self, entries: &[SnapshotEntry]) {
        for (side, record) in entries {
            self.index(*side, record);
        }
    }

    /// The in-window records held, as a checkpoint snapshot encoded
    /// straight from the index walk ([`ssj_core::snapshot`]).
    pub(crate) fn encode_snapshot(&self) -> Vec<u8> {
        match &self.local {
            LocalState::Solo(j) => encode_joiner(j),
            LocalState::Bi(j) => encode_bistream(j),
        }
        .expect("a joiner's window walk is in id order")
    }

    /// Records (or bundle members) currently held.
    pub(crate) fn stored(&self) -> usize {
        match &self.local {
            LocalState::Solo(j) => j.stored(),
            LocalState::Bi(j) => j.stored(),
        }
    }

    /// `(statistics, stored records, index postings)` as of now.
    pub(crate) fn counters(&mut self) -> (JoinStats, usize, usize) {
        match &mut self.local {
            LocalState::Solo(j) => (j.stats().clone(), j.stored(), j.postings()),
            LocalState::Bi(j) => (j.stats().clone(), j.stored(), j.postings()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use crate::driver::{calibrate_partition, PartitionMethod};
    use crate::route::{BroadcastRouter, LengthRouter, PrefixRouter, RouteDecision};
    use std::collections::VecDeque;

    const K: usize = 4;

    fn tid(xs: &[u32]) -> Vec<TokenId> {
        xs.iter().copied().map(TokenId).collect()
    }

    fn rec(id: u64, tokens: &[u32]) -> Record {
        Record::from_sorted(RecordId(id), id, tid(tokens))
    }

    fn source(record: &Record) -> JoinMsg {
        JoinMsg::ProbeAndIndex(RecordMsg::solo(record.clone(), Timestamp::ZERO))
    }

    fn workload(n: usize) -> Vec<Record> {
        use ssj_workloads::{DatasetProfile, StreamGenerator};
        StreamGenerator::new(DatasetProfile::tweet(), 42).take_records(n)
    }

    /// A router that replays scripted decisions.
    struct Scripted(VecDeque<RouteDecision>);

    impl Scripted {
        fn new(decisions: &[(&[usize], &[usize])]) -> Self {
            Self(
                decisions
                    .iter()
                    .map(|(index, probe)| RouteDecision {
                        index: index.to_vec(),
                        probe: probe.to_vec(),
                    })
                    .collect(),
            )
        }
    }

    impl Router for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn k(&self) -> usize {
            K
        }
        fn route(&mut self, _record: &Record) -> RouteDecision {
            self.0
                .pop_front()
                .expect("one scripted decision per record")
        }
    }

    /// A port that records what the dispatcher did to it: a logical clock
    /// (every read counts), scripted backlogs and every message in send
    /// order. With `recovery` set it also asserts, at each index-bearing
    /// send, that the record is already in `task`'s replay buffer.
    #[derive(Default)]
    struct Recorder {
        clock: u64,
        backlog: [usize; K],
        sent: Vec<(usize, JoinMsg)>,
        recovery: Option<Arc<RecoveryState>>,
        index_sends: [usize; K],
    }

    impl DispatchPort for Recorder {
        fn now(&mut self) -> Timestamp {
            self.clock += 1;
            Timestamp::from_nanos(self.clock)
        }
        fn backlog(&self, task: usize) -> usize {
            self.backlog[task]
        }
        fn send(&mut self, task: usize, msg: JoinMsg) {
            if let (Some(recovery), true) = (&self.recovery, msg.indexes()) {
                self.index_sends[task] += 1;
                assert_eq!(
                    recovery.buffered(task),
                    self.index_sends[task],
                    "task {task}: index message sent before its replay entry was buffered"
                );
            }
            self.sent.push((task, msg));
        }
        fn routed(&mut self, _payload: &RecordMsg, _fanout: usize) {}
    }

    fn kind(msg: &JoinMsg) -> &'static str {
        match msg {
            JoinMsg::Probe(_) => "probe",
            JoinMsg::Index(_) => "index",
            JoinMsg::ProbeAndIndex(_) => "probe+index",
            JoinMsg::Barrier { .. } => "barrier",
            JoinMsg::Batch(_) => "batch",
        }
    }

    fn shape(sent: &[(usize, JoinMsg)]) -> Vec<(usize, &'static str)> {
        sent.iter().map(|(t, m)| (*t, kind(m))).collect()
    }

    /// Runs `records` through a dispatcher around `router` and checks every
    /// record's messages against what a twin of the router decides: one
    /// message per target, in ascending task order (so probes to lower
    /// tasks precede the index send), combined exactly where a task is in
    /// both sets — with replay buffering ahead of every index send.
    fn check_router<R: Router + Clone>(router: R, records: &[Record]) {
        let mut twin = router.clone();
        let recovery = Arc::new(RecoveryState::new(K, Window::Unbounded));
        let mut port = Recorder {
            recovery: Some(Arc::clone(&recovery)),
            ..Recorder::default()
        };
        let mut d = Dispatcher::new(router, false, Some(recovery), None, None, None);
        for r in records {
            let decision = twin.route(r);
            let before = port.sent.len();
            assert_eq!(d.dispatch(source(r), &mut port), Dispatched::Sent);
            let mut expect: Vec<(usize, &str)> = (0..K)
                .filter_map(|t| {
                    let ix = decision.index.contains(&t);
                    let pr = decision.probe.contains(&t);
                    match (ix, pr) {
                        (true, true) => Some((t, "probe+index")),
                        (true, false) => Some((t, "index")),
                        (false, true) => Some((t, "probe")),
                        (false, false) => None,
                    }
                })
                .collect();
            expect.sort_unstable();
            assert_eq!(shape(&port.sent[before..]), expect, "record {:?}", r.id());
            assert_eq!(expect.len(), decision.message_count());
            for (_, m) in &port.sent[before..] {
                let p = m.payload().expect("record message");
                assert_eq!(p.record.id(), r.id());
                assert_eq!(p.ingest.as_nanos(), port.clock, "one clock read per record");
            }
        }
        assert_eq!(port.clock, records.len() as u64);
    }

    #[test]
    fn every_router_dispatches_in_task_order_with_replay_buffered_first() {
        let records = workload(300);
        let threshold = Threshold::jaccard(0.6);
        let partition = calibrate_partition(&records, threshold, K, PartitionMethod::LoadAware);
        check_router(LengthRouter::new(threshold, partition), &records);
        check_router(PrefixRouter::new(threshold, K), &records);
        check_router(BroadcastRouter::new(K), &records);
    }

    #[test]
    fn probes_interleave_around_index_targets_and_shared_targets_combine() {
        let router = Scripted::new(&[(&[1, 3], &[0, 1, 2])]);
        let mut port = Recorder::default();
        let mut d = Dispatcher::new(router, false, None, None, None, None);
        assert_eq!(
            d.dispatch(source(&rec(0, &[1, 2])), &mut port),
            Dispatched::Sent
        );
        assert_eq!(
            shape(&port.sent),
            vec![(0, "probe"), (1, "probe+index"), (2, "probe"), (3, "index")]
        );
    }

    #[test]
    fn a_shed_record_leaves_no_message_and_no_replay_entry() {
        let router = Scripted::new(&[(&[1], &[0, 1]), (&[2], &[2, 3])]);
        let recovery = Arc::new(RecoveryState::new(K, Window::Unbounded));
        let coordinator =
            Arc::new(CheckpointCoordinator::new(K, &CheckpointConfig::in_memory(1)).unwrap());
        let mut port = Recorder::default();
        let mut d = Dispatcher::new(
            router,
            false,
            Some(Arc::clone(&recovery)),
            Some(coordinator),
            Some(5),
            None,
        );
        // A probe-only target at the watermark sheds the whole record.
        port.backlog[0] = 5;
        assert_eq!(
            d.dispatch(source(&rec(0, &[1, 2])), &mut port),
            Dispatched::Shed { depth: 5 }
        );
        assert!(
            port.sent.is_empty(),
            "a shed record must not be sent anywhere"
        );
        assert!((0..K).all(|t| recovery.buffered(t) == 0));
        assert_eq!(port.clock, 1, "a shed record still takes its ingest stamp");
        // The next record is kept: it goes out, and the epoch interval of 1
        // opens a barrier behind it on every wire.
        port.backlog[0] = 0;
        assert_eq!(
            d.dispatch(source(&rec(1, &[1, 2])), &mut port),
            Dispatched::Sent
        );
        assert_eq!(
            shape(&port.sent),
            vec![
                (2, "probe+index"),
                (3, "probe"),
                (0, "barrier"),
                (1, "barrier"),
                (2, "barrier"),
                (3, "barrier")
            ]
        );
        assert_eq!(port.clock, 3, "one ingest stamp plus one barrier stamp");
    }

    #[test]
    fn a_restore_tuple_is_index_only_never_shed_and_counts_toward_the_epoch() {
        let router = Scripted::new(&[(&[1, 2], &[0, 1, 2]), (&[3], &[3])]);
        let recovery = Arc::new(RecoveryState::new(K, Window::Unbounded));
        let coordinator =
            Arc::new(CheckpointCoordinator::new(K, &CheckpointConfig::in_memory(2)).unwrap());
        let mut port = Recorder {
            backlog: [9; K],
            recovery: Some(Arc::clone(&recovery)),
            ..Recorder::default()
        };
        let mut d = Dispatcher::new(
            router,
            true,
            Some(recovery),
            Some(coordinator),
            Some(5),
            None,
        );
        let restore = JoinMsg::Index(RecordMsg {
            record: rec(0, &[1, 2]),
            ingest: Timestamp::ZERO,
            side: Some(Side::Right),
        });
        assert_eq!(d.dispatch(restore, &mut port), Dispatched::Sent);
        // Index-only, past a watermark that would shed a live record,
        // with the side kept.
        assert_eq!(shape(&port.sent), vec![(1, "index"), (2, "index")]);
        assert_eq!(port.sent[0].1.payload().unwrap().side, Some(Side::Right));
        // The second record fills the interval of 2: the restore tuple
        // counted, so the barrier goes out now, down every wire.
        port.backlog = [0; K];
        let live = JoinMsg::ProbeAndIndex(RecordMsg {
            record: rec(1, &[1, 2]),
            ingest: Timestamp::ZERO,
            side: Some(Side::Left),
        });
        assert_eq!(d.dispatch(live, &mut port), Dispatched::Sent);
        assert_eq!(
            shape(&port.sent[2..]),
            vec![
                (3, "probe+index"),
                (0, "barrier"),
                (1, "barrier"),
                (2, "barrier"),
                (3, "barrier")
            ]
        );
    }

    #[test]
    fn a_barrier_follows_everything_dispatched_before_it_on_every_wire() {
        let records = workload(40);
        let recovery = Arc::new(RecoveryState::new(K, Window::Unbounded));
        let coordinator =
            Arc::new(CheckpointCoordinator::new(K, &CheckpointConfig::in_memory(8)).unwrap());
        let mut port = Recorder::default();
        // Batching on, so the barrier also has to overtake nothing that is
        // still sitting in a pending batch.
        let mut d = Dispatcher::new(
            BroadcastRouter::new(K),
            false,
            Some(recovery),
            Some(coordinator),
            None,
            Some(3),
        );
        for r in &records {
            d.dispatch(source(r), &mut port);
        }
        d.flush(&mut port);
        for task in 0..K {
            // This wire's messages, batches unpacked, in arrival order.
            let mut wire = Vec::new();
            for (_, m) in port.sent.iter().filter(|(t, _)| *t == task) {
                match m {
                    JoinMsg::Batch(msgs) => wire.extend(msgs.iter()),
                    m => wire.push(m),
                }
            }
            // Broadcast sends every record down every wire, so each wire
            // must read: 8 records, barrier 1, 8 records, barrier 2, ...
            let mut next_id = 0u64;
            let mut epochs = Vec::new();
            for m in wire {
                match m {
                    JoinMsg::Barrier { epoch, injected_at } => {
                        assert_eq!(next_id % 8, 0, "task {task}: barrier cut mid-interval");
                        // One clock read per record plus one per earlier
                        // epoch, then this barrier's own.
                        assert_eq!(injected_at.as_nanos(), next_id + epoch);
                        epochs.push(*epoch);
                    }
                    m => {
                        assert_eq!(m.record().unwrap().id().0, next_id, "task {task}");
                        next_id += 1;
                    }
                }
            }
            assert_eq!(next_id, 40);
            assert_eq!(
                epochs,
                vec![1, 2, 3, 4, 5],
                "task {task}: one barrier per epoch"
            );
        }
        assert_eq!(port.clock, 40 + 5, "one read per record, one per epoch");
    }

    #[test]
    fn first_common_finds_smallest() {
        assert_eq!(
            first_common(&tid(&[2, 5, 9]), &tid(&[3, 5, 9])),
            Some(TokenId(5))
        );
        assert_eq!(first_common(&tid(&[1, 2]), &tid(&[3, 4])), None);
        assert_eq!(first_common(&tid(&[]), &tid(&[1])), None);
        assert_eq!(first_common(&tid(&[7]), &tid(&[7])), Some(TokenId(7)));
    }

    #[test]
    fn dedup_window_eviction_drops_prefixes() {
        let mut d = PrefixDedup::new(Threshold::jaccard(0.5), Window::Count(1), 2, 0);
        d.on_index(&rec(0, &[1, 2, 3]));
        assert_eq!(d.prefixes.len(), 1);
        d.advance(5, 5);
        assert!(d.prefixes.is_empty());
    }

    /// The join step under a replicating router: `s` comes back through
    /// `restore` at every joiner that indexed it, `r` probes every joiner
    /// it is routed to, and across all of them the pair is emitted exactly
    /// once — so `restore` must have re-fed the dedup filter too.
    #[test]
    fn prefix_dedup_emits_each_pair_at_exactly_one_joiner_after_a_restore() {
        let join = JoinConfig::jaccard(0.5);
        let mut router = PrefixRouter::new(join.threshold, K);
        let s = rec(0, &[10, 20, 30, 41]);
        let r = RecordMsg::solo(rec(1, &[10, 20, 30, 40]), Timestamp::ZERO);
        let holds_s = router.route(&s).index;
        let probed = router.route(&r.record).probe;
        assert!(
            holds_s.iter().filter(|t| probed.contains(t)).count() > 1,
            "the pair must be found at several joiners for the test to bite"
        );
        let mut emitted = Vec::new();
        for me in 0..K {
            let mut joiner = Joiner::new(LocalAlgo::PpJoin, join, false, Some((K, me)));
            if holds_s.contains(&me) {
                joiner.restore(&[(None, s.clone())]);
            }
            if probed.contains(&me) {
                joiner.advance(&r.record);
                emitted.extend(joiner.probe(&r).iter().map(|p| (me, p.key())));
                joiner.insert(&r);
            }
        }
        assert_eq!(emitted.len(), 1, "emitted at {emitted:?}");
        assert_eq!(emitted[0].1, (0, 1));
    }

    /// The fused step is `probe` then `insert`, pair for pair, with the
    /// dedup filter on: every joiner of a prefix-routed run (which probes
    /// exactly where it indexes) is driven both ways over its messages.
    #[test]
    fn process_is_probe_then_insert_pair_for_pair_under_prefix_dedup() {
        let records = workload(400);
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.6),
            window: Window::Count(150),
        };
        let mut router = PrefixRouter::new(join.threshold, K);
        let targets: Vec<Vec<usize>> = records.iter().map(|r| router.route(r).index).collect();
        let mut pairs = 0;
        for local in [LocalAlgo::bundle(), LocalAlgo::PpJoin, LocalAlgo::AllPairs] {
            for me in 0..K {
                let mut fused = Joiner::new(local, join, false, Some((K, me)));
                let mut split = Joiner::new(local, join, false, Some((K, me)));
                for (r, _) in records
                    .iter()
                    .zip(&targets)
                    .filter(|(_, t)| t.contains(&me))
                {
                    let msg = RecordMsg::solo(r.clone(), Timestamp::ZERO);
                    fused.advance(r);
                    split.advance(r);
                    let expect = split.probe(&msg).to_vec();
                    split.insert(&msg);
                    let got = fused.process(&msg);
                    assert_eq!(got, expect, "{} task {me} {:?}", local.name(), r.id());
                    pairs += got.len();
                }
                assert_eq!(fused.encode_snapshot(), split.encode_snapshot());
                let ((f, f_stored, f_postings), (s, s_stored, s_postings)) =
                    (fused.counters(), split.counters());
                assert_eq!((f_stored, f_postings), (s_stored, s_postings));
                assert_eq!(
                    (f.results, f.bundles_created, f.bundle_absorbed),
                    (s.results, s.bundles_created, s.bundle_absorbed)
                );
            }
        }
        assert!(pairs > 0, "the test must bite");
    }
}
