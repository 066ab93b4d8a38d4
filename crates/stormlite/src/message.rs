//! Messages, bolts and the emission context.

use crate::clock::{Clock, Timestamp};
use crate::grouping::Grouping;
use crate::metrics::TaskMetrics;
use crossbeam::channel::Sender;
use obs::{Event, Stage, TaskTrace, TaskTracer};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// A tuple payload flowing through a topology.
///
/// `wire_bytes` is what the communication-cost accounting charges per hop —
/// override it to match what a binary codec would put on the network
/// (the default charges the in-memory size, which is only right for plain
/// data types).
pub trait Message: Send + Sized + 'static {
    /// Serialized size of this message in bytes.
    fn wire_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
    }
}

/// The envelope moving through channels: payload plus queueing metadata,
/// or the end-of-stream marker.
pub(crate) enum Envelope<M> {
    /// A data tuple, the run time it was enqueued (for queue-wait
    /// metrics) and its [`Message::wire_bytes`], counted once by the sender.
    Data(M, Timestamp, u64),
    /// One upstream task finished.
    Eos,
}

/// A processing vertex: receives tuples, may emit downstream.
pub trait Bolt<M: Message>: Send {
    /// Handles one tuple.
    fn execute(&mut self, msg: M, out: &mut Outbox<M>);

    /// Called once, after every upstream task has finished, before the
    /// bolt's own end-of-stream propagates. Flush buffered state here.
    fn finish(&mut self, out: &mut Outbox<M>) {
        let _ = out;
    }
}

/// A terminal bolt collecting every received tuple into a shared vector.
pub struct CollectorBolt<M> {
    out: Arc<Mutex<Vec<M>>>,
}

impl<M> CollectorBolt<M> {
    /// A collector writing into `out`.
    pub fn new(out: Arc<Mutex<Vec<M>>>) -> Self {
        Self { out }
    }
}

impl<M: Message> Bolt<M> for CollectorBolt<M> {
    fn execute(&mut self, msg: M, _out: &mut Outbox<M>) {
        self.out.lock().push(msg);
    }
}

/// The handler of a plain [`Topology::spout`](crate::Topology::spout):
/// emits each item it is handed.
pub(crate) struct Forward;

impl<M: Message> Bolt<M> for Forward {
    fn execute(&mut self, msg: M, out: &mut Outbox<M>) {
        out.emit(msg);
    }
}

/// The outgoing wire of a task: its grouping plus a sender per
/// destination task. The channels are reliable and FIFO, so an emission is
/// one `Envelope::Data` pushed once.
pub(crate) struct OutWire<M> {
    pub(crate) grouping: Grouping,
    pub(crate) senders: Vec<Sender<Envelope<M>>>,
    /// Identity of this (wire, sender task) link, as its Deliver trace
    /// events name it.
    pub(crate) link: u64,
}

impl<M: Message> OutWire<M> {
    /// Sends one emission to `dest`. The Deliver trace event is purely
    /// observational: no clock read, no RNG draw, so enabling tracing
    /// cannot perturb transcripts.
    fn dispatch(
        &self,
        dest: usize,
        msg: M,
        now: Timestamp,
        metrics: &mut TaskMetrics,
        tracer: &mut Option<TaskTracer>,
    ) {
        let bytes = msg.wire_bytes();
        metrics.msgs_out += 1;
        metrics.bytes_out += bytes;
        if let Some(tr) = tracer {
            tr.record(Event::instant(now.as_nanos(), Stage::Deliver, self.link, 0));
        }
        send(&self.senders[dest], Envelope::Data(msg, now, bytes));
    }
}

/// Sends into a task's queue, or unwinds if the queue is dead. A queue dies
/// before its EOS only when its task panicked, and `Topology::run`
/// re-raises that panic; this unwind runs no panic hook, so stderr names
/// only the original.
fn send<M>(queue: &Sender<Envelope<M>>, envelope: Envelope<M>) {
    if queue.send(envelope).is_err() {
        struct DownstreamFailed;
        std::panic::resume_unwind(Box::new(DownstreamFailed));
    }
}

/// The emission context handed to bolts (and used by spout drivers).
///
/// `emit` sends a tuple down a [`Grouping::Global`] outgoing wire;
/// `emit_direct` addresses a specific task on a [`Grouping::Direct`] one.
/// Emission blocks when the downstream queue is full — that is the
/// backpressure path.
pub struct Outbox<M: Message> {
    /// The task's one outgoing wire; `None` for a terminal bolt.
    pub(crate) wire: Option<OutWire<M>>,
    pub(crate) task_index: usize,
    pub(crate) metrics: TaskMetrics,
    pub(crate) clock: Clock,
    /// Per-task trace ring; `None` (the default) disables instrumentation
    /// entirely — every trace helper is then a branch on a `None` and the
    /// hot path stays as it was before tracing existed.
    pub(crate) tracer: Option<TaskTracer>,
}

impl<M: Message> Outbox<M> {
    /// This task's index within its component (0-based).
    pub fn task_index(&self) -> usize {
        self.task_index
    }

    /// Whether trace collection is enabled for this task. Bolts can gate
    /// any extra bookkeeping (e.g. stage histograms) on this so disabled
    /// runs pay nothing.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records an instant trace event at the current clock reading.
    /// No-op when tracing is disabled. Purely observational: records no
    /// randomness and never advances the clock, so enabling tracing
    /// cannot change a simulated run's transcript.
    #[inline]
    pub fn trace_instant(&mut self, stage: Stage, a: u64, b: u64) {
        if self.tracer.is_some() {
            self.trace_instant_at(stage, self.clock.now(), a, b);
        }
    }

    /// [`trace_instant`](Self::trace_instant) stamped with `at`, a clock
    /// reading the caller already holds — for recording many events
    /// without a clock read each.
    #[inline]
    pub fn trace_instant_at(&mut self, stage: Stage, at: Timestamp, a: u64, b: u64) {
        if let Some(tr) = &mut self.tracer {
            tr.record(Event::instant(at.as_nanos(), stage, a, b));
        }
    }

    /// Records a span trace event covering `start ..` now. Under the
    /// simulation scheduler the clock is frozen within an execute step, so
    /// intra-step spans deterministically report zero duration; threaded
    /// runs report real durations. No-op when tracing is disabled.
    #[inline]
    pub fn trace_span(&mut self, stage: Stage, start: Timestamp, a: u64, b: u64) {
        if let Some(tr) = &mut self.tracer {
            let dur = self.clock.now().saturating_since(start).as_nanos() as u64;
            tr.record(Event::span(start.as_nanos(), stage, dur, a, b));
        }
    }

    /// Detaches and freezes this task's trace ring (if tracing was
    /// enabled) for deposit into the run's trace sink.
    pub(crate) fn take_trace(&mut self) -> Option<TaskTrace> {
        self.tracer.take().map(TaskTracer::finish)
    }

    /// The current run time on the topology's clock: real elapsed time in
    /// a threaded run, deterministic virtual time in a simulated one. Use
    /// this — never [`std::time::Instant`] — to stamp tuples whose
    /// latencies the topology's metrics will measure.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Emits to task 0 of the outgoing wire when it is
    /// [`Grouping::Global`]; routes nowhere otherwise.
    pub fn emit(&mut self, msg: M) {
        if let Some(wire) = self
            .wire
            .as_ref()
            .filter(|w| w.grouping == Grouping::Global)
        {
            let now = self.clock.now();
            wire.dispatch(0, msg, now, &mut self.metrics, &mut self.tracer);
        }
    }

    /// Emits to one specific task along the outgoing wire.
    ///
    /// # Panics
    /// Panics if the outgoing wire is not [`Grouping::Direct`] or the task
    /// index is out of range.
    pub fn emit_direct(&mut self, task: usize, msg: M) {
        let wire = self
            .wire
            .as_ref()
            .filter(|w| w.grouping == Grouping::Direct)
            .expect("emit_direct requires a Direct-grouped outgoing wire");
        let now = self.clock.now();
        wire.dispatch(task, msg, now, &mut self.metrics, &mut self.tracer);
    }

    /// Current depth of `task`'s input queue on a Direct-grouped outgoing
    /// wire — the signal an overload policy watches before deciding to
    /// shed (zero when the wire is not direct).
    pub fn direct_queue_depth(&self, task: usize) -> usize {
        self.wire
            .as_ref()
            .filter(|w| w.grouping == Grouping::Direct)
            .map_or(0, |w| w.senders[task].len())
    }

    /// Records `n` input records dropped by this task's overload policy.
    /// Shedding must always be accounted: the counter surfaces as
    /// [`RunReport::shed`](crate::RunReport::shed).
    pub fn record_shed(&mut self, n: u64) {
        self.metrics.shed += n;
    }

    /// Records one checkpoint snapshot captured by this task, of
    /// `bytes` serialized bytes. Surfaces as
    /// [`RunReport::checkpoints`](crate::RunReport::checkpoints) /
    /// [`RunReport::checkpoint_bytes`](crate::RunReport::checkpoint_bytes).
    pub fn record_checkpoint(&mut self, bytes: u64) {
        self.metrics.checkpoints += 1;
        self.metrics.checkpoint_bytes += bytes;
    }

    /// Records how long a barrier control tuple stalled between injection
    /// upstream and this task aligning on it (virtual time under the
    /// simulator).
    pub fn record_barrier_stall(&mut self, stall: Duration) {
        self.metrics.barrier_stall.record(stall);
    }

    /// Records the latency of one completed checkpoint epoch: barrier
    /// injection to the hand-over of the epoch's last part to the store
    /// writer, recorded once per epoch, by the task that hands it over.
    pub fn record_checkpoint_latency(&mut self, latency: Duration) {
        self.metrics.checkpoint_latency.record(latency);
    }

    /// Sends the EOS marker to every task of the outgoing wire. The
    /// channels are FIFO, so it cannot overtake a tuple emitted before it.
    pub(crate) fn send_eos(&mut self) {
        for s in self.wire.iter().flat_map(|w| &w.senders) {
            send(s, Envelope::Eos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver};

    #[derive(Debug, PartialEq)]
    struct N(u64);
    impl Message for N {
        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    fn outbox_with(grouping: Grouping, n: usize) -> (Outbox<N>, Vec<Receiver<Envelope<N>>>) {
        let (senders, receivers) = (0..n).map(|_| unbounded()).unzip();
        (
            Outbox {
                wire: Some(OutWire {
                    grouping,
                    senders,
                    link: 0,
                }),
                task_index: 0,
                metrics: TaskMetrics::default(),
                clock: Clock::wall(),
                tracer: None,
            },
            receivers,
        )
    }

    fn data_count(r: &Receiver<Envelope<N>>) -> usize {
        r.try_iter()
            .filter(|e| matches!(e, Envelope::Data(..)))
            .count()
    }

    #[test]
    fn global_goes_to_task_zero() {
        let (mut o, rs) = outbox_with(Grouping::global(), 3);
        o.emit(N(1));
        assert_eq!(data_count(&rs[0]), 1);
        assert_eq!(data_count(&rs[1]), 0);
        assert_eq!(o.metrics.msgs_out, 1);
        assert_eq!(o.metrics.bytes_out, 8);
    }

    #[test]
    fn direct_targets_one_task() {
        let (mut o, rs) = outbox_with(Grouping::Direct, 3);
        o.emit_direct(2, N(5));
        o.emit(N(9)); // not a global wire: silently routes nowhere
        assert_eq!(data_count(&rs[0]), 0);
        assert_eq!(data_count(&rs[2]), 1);
    }

    #[test]
    #[should_panic(expected = "Direct-grouped")]
    fn emit_direct_without_direct_wire_panics() {
        let (mut o, _rs) = outbox_with(Grouping::global(), 2);
        o.emit_direct(0, N(1));
    }

    #[test]
    fn eos_fans_out() {
        let (mut o, rs) = outbox_with(Grouping::Direct, 2);
        o.send_eos();
        for r in &rs {
            assert!(matches!(r.try_recv().unwrap(), Envelope::Eos));
        }
    }

    #[test]
    fn a_send_into_a_dead_queue_unwinds_without_a_message() {
        // A message payload would mean a panic hook ran and printed it
        // beside the panic that killed the queue's task.
        for eos in [false, true] {
            let (mut o, rs) = outbox_with(Grouping::global(), 1);
            drop(rs);
            let unwound = std::thread::spawn(move || {
                if eos {
                    o.send_eos();
                } else {
                    o.emit(N(1));
                }
            })
            .join()
            .expect_err("a dead queue unwinds the sender");
            assert!(unwound.downcast_ref::<&str>().is_none());
            assert!(unwound.downcast_ref::<String>().is_none());
        }
    }

    #[test]
    fn direct_queue_depth_tracks_backlog() {
        let (mut o, rs) = outbox_with(Grouping::Direct, 2);
        assert_eq!(o.direct_queue_depth(0), 0);
        o.emit_direct(0, N(1));
        o.emit_direct(0, N(2));
        o.emit_direct(1, N(3));
        assert_eq!(o.direct_queue_depth(0), 2);
        assert_eq!(o.direct_queue_depth(1), 1);
        assert_eq!(data_count(&rs[0]), 2);
        assert_eq!(o.direct_queue_depth(0), 0);
    }

    #[test]
    fn record_shed_counts_in_metrics() {
        let (mut o, _rs) = outbox_with(Grouping::global(), 1);
        o.record_shed(3);
        o.record_shed(2);
        assert_eq!(o.metrics.shed, 5);
    }
}
