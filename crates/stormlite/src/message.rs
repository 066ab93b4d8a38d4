//! Messages, bolts and the emission context.

use crate::clock::{Clock, Timestamp};
use crate::grouping::Grouping;
use crate::metrics::TaskMetrics;
use crossbeam::channel::Sender;
use obs::{Event, Stage, TaskTrace, TaskTracer};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A tuple payload flowing through a topology.
///
/// `wire_bytes` is what the communication-cost accounting charges per hop —
/// override it to match what a binary codec would put on the network
/// (the default charges the in-memory size, which is only right for plain
/// data types).
pub trait Message: Send + Clone + 'static {
    /// Serialized size of this message in bytes.
    fn wire_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
    }
}

/// The envelope moving through channels: payload plus queueing metadata,
/// or the end-of-stream marker.
pub(crate) enum Envelope<M> {
    /// A data tuple and the run time it was enqueued (for queue-wait
    /// metrics).
    Data(M, Timestamp),
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

/// One outgoing wire from a task: the grouping plus a sender per
/// destination task. The channels are reliable and FIFO, so an emission is
/// one `Envelope::Data` pushed once.
pub(crate) struct OutWire<M> {
    pub(crate) grouping: Grouping<M>,
    pub(crate) senders: Vec<Sender<Envelope<M>>>,
    pub(crate) rr_next: usize,
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
        metrics.msgs_out += 1;
        metrics.bytes_out += msg.wire_bytes();
        if let Some(tr) = tracer {
            tr.record(Event::instant(now.as_nanos(), Stage::Deliver, self.link, 0));
        }
        self.senders[dest]
            .send(Envelope::Data(msg, now))
            .expect("receiver alive until EOS");
    }
}

/// The emission context handed to bolts (and used by spout drivers).
///
/// `emit` routes a tuple along every outgoing non-direct wire according to
/// its grouping; `emit_direct` addresses a specific task on the direct
/// wires. Emission blocks when a downstream queue is full — that is the
/// backpressure path.
pub struct Outbox<M: Message> {
    pub(crate) wires: Vec<OutWire<M>>,
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

    /// Emits along all non-direct outgoing wires. The last destination
    /// takes `msg` itself; only the others get clones.
    pub fn emit(&mut self, msg: M) {
        let now = self.clock.now();
        let Some(last) = self
            .wires
            .iter()
            .rposition(|w| !matches!(w.grouping, Grouping::Direct))
        else {
            return;
        };
        let mut msg = Some(msg);
        for w in 0..=last {
            let wire = &mut self.wires[w];
            let n = wire.senders.len();
            // This wire's destination tasks, `first..end`.
            let (first, end) = match &wire.grouping {
                Grouping::Direct => continue,
                Grouping::Shuffle => {
                    let t = wire.rr_next % n;
                    wire.rr_next = wire.rr_next.wrapping_add(1);
                    (t, t + 1)
                }
                Grouping::Global => (0, 1),
                Grouping::Fields(f) => {
                    let key = f(msg
                        .as_ref()
                        .expect("moved out only at the last destination"));
                    let t = (key % n as u64) as usize;
                    (t, t + 1)
                }
                Grouping::Broadcast => (0, n),
            };
            for t in first..end {
                let m = if w == last && t + 1 == end {
                    msg.take()
                } else {
                    msg.clone()
                };
                let m = m.expect("moved out only at the last destination");
                wire.dispatch(t, m, now, &mut self.metrics, &mut self.tracer);
            }
        }
    }

    /// Emits to one specific task along every direct outgoing wire (the
    /// last one takes `msg` itself, the others get clones).
    ///
    /// # Panics
    /// Panics if no outgoing wire uses [`Grouping::Direct`] or the task
    /// index is out of range.
    pub fn emit_direct(&mut self, task: usize, msg: M) {
        let now = self.clock.now();
        let last = self
            .wires
            .iter()
            .rposition(|w| matches!(w.grouping, Grouping::Direct))
            .expect("emit_direct requires a Direct-grouped outgoing wire");
        for wire in &self.wires[..last] {
            if matches!(wire.grouping, Grouping::Direct) {
                wire.dispatch(task, msg.clone(), now, &mut self.metrics, &mut self.tracer);
            }
        }
        self.wires[last].dispatch(task, msg, now, &mut self.metrics, &mut self.tracer);
    }

    /// Current depth of `task`'s input queue, maximized over this task's
    /// Direct-grouped outgoing wires — the signal an overload policy
    /// watches before deciding to shed (zero when there is no direct
    /// wire).
    pub fn direct_queue_depth(&self, task: usize) -> usize {
        self.wires
            .iter()
            .filter(|w| matches!(w.grouping, Grouping::Direct))
            .map(|w| w.senders[task].len())
            .max()
            .unwrap_or(0)
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

    /// Records the end-to-end latency of one completed checkpoint epoch:
    /// barrier injection to the last task's snapshot publication.
    pub fn record_checkpoint_latency(&mut self, latency: Duration) {
        self.metrics.checkpoint_latency.record(latency);
    }

    /// Sends the EOS marker on every wire. The channels are FIFO, so it
    /// cannot overtake a tuple emitted before it.
    pub(crate) fn send_eos(&mut self) {
        for wire in &self.wires {
            for s in &wire.senders {
                s.send(Envelope::Eos).expect("receiver alive until EOS");
            }
        }
    }
}

/// Alignment bookkeeping for barrier control tuples arriving from several
/// upstream tasks.
///
/// A coordinated checkpoint injects one barrier per epoch into every wire
/// feeding a bolt; the bolt must not snapshot until the barrier has
/// arrived on *all* upstream links, or the snapshot would mix pre-barrier
/// state from one link with post-barrier tuples from another. Feed every
/// arriving barrier to [`observe`](Self::observe); it returns `true`
/// exactly once per epoch, when the last expected copy lands.
///
/// This tracks arrival counts only — it does not buffer the data tuples
/// that overtake a partially-aligned barrier. On the topology's FIFO
/// links fed by a *single* upstream task per epoch source (the
/// dispatcher topology in ssj-distrib) no such buffering is needed:
/// alignment is immediate and the aligner degenerates to pass-through.
#[derive(Debug)]
pub struct BarrierAligner {
    expected: usize,
    seen: BTreeMap<u64, usize>,
}

impl BarrierAligner {
    /// An aligner expecting one barrier copy per epoch from each of
    /// `expected` upstream tasks.
    ///
    /// # Panics
    /// Panics if `expected` is zero.
    pub fn new(expected: usize) -> Self {
        assert!(
            expected > 0,
            "a bolt with no upstream links sees no barriers"
        );
        Self {
            expected,
            seen: BTreeMap::new(),
        }
    }

    /// Records one arrived barrier for `epoch`; returns `true` when this
    /// was the last expected copy (the epoch is now aligned and its state
    /// is forgotten).
    pub fn observe(&mut self, epoch: u64) -> bool {
        let n = self.seen.entry(epoch).or_insert(0);
        *n += 1;
        if *n >= self.expected {
            self.seen.remove(&epoch);
            true
        } else {
            false
        }
    }

    /// Number of epochs currently part-aligned (some but not all copies
    /// arrived).
    pub fn pending(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver};

    #[derive(Clone, Debug, PartialEq)]
    struct N(u64);
    impl Message for N {
        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    fn plain<M>(grouping: Grouping<M>, senders: Vec<Sender<Envelope<M>>>) -> OutWire<M> {
        OutWire {
            grouping,
            senders,
            rr_next: 0,
            link: 0,
        }
    }

    fn outbox_with(grouping: Grouping<N>, n: usize) -> (Outbox<N>, Vec<Receiver<Envelope<N>>>) {
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..n {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        (
            Outbox {
                wires: vec![plain(grouping, senders)],
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
    fn shuffle_round_robins() {
        let (mut o, rs) = outbox_with(Grouping::shuffle(), 3);
        for i in 0..9 {
            o.emit(N(i));
        }
        for r in &rs {
            assert_eq!(data_count(r), 3);
        }
        assert_eq!(o.metrics.msgs_out, 9);
        assert_eq!(o.metrics.bytes_out, 72);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let (mut o, rs) = outbox_with(Grouping::broadcast(), 4);
        o.emit(N(7));
        for r in &rs {
            assert_eq!(data_count(r), 1);
        }
        assert_eq!(o.metrics.msgs_out, 4);
    }

    #[test]
    fn fields_grouping_is_sticky() {
        let (mut o, rs) = outbox_with(Grouping::fields(|m: &N| m.0), 2);
        for _ in 0..5 {
            o.emit(N(4)); // 4 % 2 == 0
        }
        assert_eq!(data_count(&rs[0]), 5);
        assert_eq!(data_count(&rs[1]), 0);
    }

    #[test]
    fn global_goes_to_task_zero() {
        let (mut o, rs) = outbox_with(Grouping::global(), 3);
        o.emit(N(1));
        assert_eq!(data_count(&rs[0]), 1);
        assert_eq!(data_count(&rs[1]), 0);
    }

    #[test]
    fn direct_targets_one_task() {
        let (mut o, rs) = outbox_with(Grouping::Direct, 3);
        o.emit_direct(2, N(5));
        o.emit(N(9)); // no non-direct wires: silently routes nowhere
        assert_eq!(data_count(&rs[0]), 0);
        assert_eq!(data_count(&rs[2]), 1);
    }

    /// A message that counts how often it is cloned.
    #[derive(Debug)]
    struct Counted(Arc<std::sync::atomic::AtomicUsize>);
    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Counted(Arc::clone(&self.0))
        }
    }
    impl Message for Counted {}

    #[test]
    fn emission_moves_the_message_into_its_last_destination() {
        let wire = |grouping, n: usize| {
            let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
            (plain(grouping, senders), receivers)
        };
        let (global, rx_global) = wire(Grouping::global(), 1);
        let (direct_a, rx_direct_a) = wire(Grouping::Direct, 2);
        let (broadcast, rx_broadcast) = wire(Grouping::broadcast(), 3);
        let (direct_b, rx_direct_b) = wire(Grouping::Direct, 2);
        let mut o = Outbox {
            wires: vec![global, direct_a, broadcast, direct_b],
            task_index: 0,
            metrics: TaskMetrics::default(),
            clock: Clock::wall(),
            tracer: None,
        };
        let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let count = || clones.swap(0, std::sync::atomic::Ordering::Relaxed);
        let delivered = |rs: &[Receiver<Envelope<Counted>>]| -> Vec<usize> {
            rs.iter().map(|r| r.try_iter().count()).collect()
        };

        // One global + three broadcast destinations: three clones, and the
        // last broadcast task gets the original.
        o.emit(Counted(Arc::clone(&clones)));
        assert_eq!(count(), 3);
        assert_eq!(delivered(&rx_global), [1]);
        assert_eq!(delivered(&rx_broadcast), [1, 1, 1]);

        // Two direct wires: one clone.
        o.emit_direct(1, Counted(Arc::clone(&clones)));
        assert_eq!(count(), 1);
        assert_eq!(delivered(&rx_direct_a), [0, 1]);
        assert_eq!(delivered(&rx_direct_b), [0, 1]);

        // A single destination — the joiner → sink shape — clones nothing.
        o.wires.truncate(1);
        o.emit(Counted(Arc::clone(&clones)));
        assert_eq!(count(), 0);
        assert_eq!(delivered(&rx_global), [1]);
    }

    #[test]
    #[should_panic(expected = "Direct-grouped")]
    fn emit_direct_without_direct_wire_panics() {
        let (mut o, _rs) = outbox_with(Grouping::shuffle(), 2);
        o.emit_direct(0, N(1));
    }

    #[test]
    fn eos_fans_out() {
        let (mut o, rs) = outbox_with(Grouping::shuffle(), 2);
        o.send_eos();
        for r in &rs {
            assert!(matches!(r.try_recv().unwrap(), Envelope::Eos));
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

    #[test]
    fn single_upstream_barrier_aligns_immediately() {
        let mut a = BarrierAligner::new(1);
        assert!(a.observe(1));
        assert!(a.observe(2));
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn multi_upstream_barrier_aligns_on_last_copy() {
        let mut a = BarrierAligner::new(3);
        assert!(!a.observe(1));
        assert!(!a.observe(1));
        assert_eq!(a.pending(), 1);
        assert!(a.observe(1));
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn interleaved_epochs_align_independently() {
        let mut a = BarrierAligner::new(2);
        assert!(!a.observe(5));
        assert!(!a.observe(6));
        assert_eq!(a.pending(), 2);
        assert!(a.observe(6));
        assert!(a.observe(5));
        assert_eq!(a.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "no upstream links")]
    fn zero_upstream_aligner_is_rejected() {
        let _ = BarrierAligner::new(0);
    }
}
