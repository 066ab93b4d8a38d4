//! Topology construction and execution.

use crate::clock::{Clock, Timestamp};
use crate::fault::FaultPlan;
use crate::grouping::Grouping;
use crate::message::{Bolt, CollectorBolt, Envelope, Forward, Message, OutWire, Outbox};
use crate::metrics::{RunReport, TaskMetrics};
use crate::sim::{Scheduler, SimConfig, SimRun};
use crossbeam::channel::{bounded, Receiver, Sender};
use obs::{Stage, TaskTracer, TraceConfig, TraceSink};
use parking_lot::Mutex;
use std::panic;
use std::sync::Arc;

const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

type BoltFactory<'a, M> = Box<dyn FnMut(usize) -> Box<dyn Bolt<M> + 'a> + Send + 'a>;

type Source<'a, M> = Box<dyn Iterator<Item = M> + Send + 'a>;

enum Kind<'a, M: Message> {
    Spout(Source<'a, M>, Box<dyn Bolt<M> + 'a>),
    Bolt(BoltFactory<'a, M>),
}

struct Component<'a, M: Message> {
    name: String,
    parallelism: usize,
    kind: Kind<'a, M>,
}

struct WireDef {
    from: usize,
    to: usize,
    grouping: Grouping,
}

/// A chain of spouts and bolts, executed with one thread per task (or,
/// under [`Scheduler::Sim`], single-threaded and deterministic).
///
/// Build with [`spout`](Self::spout) / [`spout_into`](Self::spout_into) /
/// [`bolt`](Self::bolt) / [`wire`](Self::wire), then call
/// [`run`](Self::run); the call returns once every tuple has drained and
/// every task has exited.
///
/// Sources, handlers and bolt factories need only outlive `'a`, so a task
/// may borrow from the caller — a spout can iterate a slice the caller
/// owns — because [`run`](Self::run) joins every task before it returns.
pub struct Topology<'a, M: Message> {
    components: Vec<Component<'a, M>>,
    wires: Vec<WireDef>,
    channel_capacity: usize,
    fault_plan: FaultPlan,
    trace: Option<(TraceSink, TraceConfig)>,
}

impl<M: Message> Default for Topology<'_, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, M: Message> Topology<'a, M> {
    /// An empty topology.
    pub fn new() -> Self {
        Self {
            components: Vec::new(),
            wires: Vec::new(),
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
            fault_plan: FaultPlan::new(),
            trace: None,
        }
    }

    /// Enables structured trace collection: every task records pipeline
    /// events (dispatch, deliver, execute, plus whatever the bolts
    /// add through [`Outbox::trace_span`] / [`Outbox::trace_instant`])
    /// into a bounded per-task ring; finished rings are deposited into
    /// `sink`, which the caller drains after the run. Timestamps come
    /// from the run's scheduler clock, so a simulated run's collected
    /// trace is deterministic per seed — and collection itself records no
    /// randomness and never advances the clock, so enabling it leaves
    /// transcripts byte-identical. When not called, no tracer exists and
    /// the hot path is untouched.
    pub fn with_tracing(mut self, sink: TraceSink, cfg: TraceConfig) -> Self {
        self.trace = Some((sink, cfg));
        self
    }

    /// Overrides the per-task input queue capacity (backpressure depth).
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "channels need capacity");
        self.channel_capacity = capacity;
        self
    }

    /// Injects the given crash plan into this run. Each injected crash
    /// tears the targeted bolt instance down at its exact crash point and
    /// rebuilds it from the component factory; the in-flight tuple is then
    /// delivered to the fresh instance exactly once. Injected crashes are
    /// counted in [`RunReport::restarts`]. Only they rebuild a bolt: any
    /// other panic fails the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    fn index_of(&self, name: &str) -> usize {
        self.components
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| panic!("unknown component '{name}'"))
    }

    fn add(&mut self, name: &str, parallelism: usize, kind: Kind<'a, M>) {
        assert!(parallelism >= 1, "parallelism must be at least 1");
        assert!(
            self.components.iter().all(|c| c.name != name),
            "duplicate component name '{name}'"
        );
        self.components.push(Component {
            name: name.to_owned(),
            parallelism,
            kind,
        });
    }

    /// Adds a source emitting the iterator's items in order (always one
    /// task).
    pub fn spout<I>(&mut self, name: &str, source: I)
    where
        I: IntoIterator<Item = M>,
        I::IntoIter: Send + 'a,
    {
        self.spout_into(name, source, Forward);
    }

    /// Adds a one-task source that runs `handler` on each item it pulls, in
    /// order, then the handler's `finish` at exhaustion. A spout records no
    /// busy time.
    pub fn spout_into<I, B>(&mut self, name: &str, source: I, handler: B)
    where
        I: IntoIterator<Item = M>,
        I::IntoIter: Send + 'a,
        B: Bolt<M> + 'a,
    {
        let source = Box::new(source.into_iter());
        self.add(name, 1, Kind::Spout(source, Box::new(handler)));
    }

    /// Adds a bolt with `parallelism` tasks; `factory(task_index)` builds
    /// each task's instance.
    pub fn bolt<B, F>(&mut self, name: &str, parallelism: usize, mut factory: F)
    where
        B: Bolt<M> + 'a,
        F: FnMut(usize) -> B + Send + 'a,
    {
        self.add(
            name,
            parallelism,
            Kind::Bolt(Box::new(move |task| Box::new(factory(task)))),
        );
    }

    /// Adds a single-task terminal bolt collecting everything it receives;
    /// returns the shared vector it fills.
    pub fn collector(&mut self, name: &str) -> Arc<Mutex<Vec<M>>> {
        let out = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::clone(&out);
        self.bolt(name, 1, move |_| CollectorBolt::new(Arc::clone(&shared)));
        out
    }

    /// Connects `from` to `to` with a grouping, over a reliable FIFO
    /// channel per destination task. A topology is a chain: `to` is a bolt
    /// declared after `from`, and each component has at most one outbound
    /// and one inbound wire.
    pub fn wire(&mut self, from: &str, to: &str, grouping: Grouping) {
        let (src, dst) = (self.index_of(from), self.index_of(to));
        assert!(
            matches!(self.components[dst].kind, Kind::Bolt(_)),
            "cannot wire into a spout"
        );
        assert!(
            src < dst,
            "cannot wire '{from}' into '{to}', declared before it"
        );
        assert!(
            self.wires.iter().all(|w| w.from != src),
            "'{from}' already has an outbound wire"
        );
        assert!(
            self.wires.iter().all(|w| w.to != dst),
            "'{to}' already has an inbound wire"
        );
        self.wires.push(WireDef {
            from: src,
            to: dst,
            grouping,
        });
    }

    fn validate(&self) {
        for (i, c) in self.components.iter().enumerate() {
            if matches!(c.kind, Kind::Bolt(_)) {
                assert!(
                    self.wires.iter().any(|w| w.to == i),
                    "bolt '{}' has no inbound wire",
                    c.name
                );
            }
        }
        // Fault plans must target existing bolt tasks: a typo'd component
        // or out-of-range task silently never firing would make a recovery
        // test vacuously pass.
        for spec in self.fault_plan.specs() {
            let comp = self
                .components
                .iter()
                .find(|c| c.name == spec.component)
                .unwrap_or_else(|| {
                    panic!("fault plan targets unknown component '{}'", spec.component)
                });
            assert!(
                matches!(comp.kind, Kind::Bolt(_)),
                "fault plan targets spout '{}'; only bolts can be crashed and restarted",
                spec.component
            );
            assert!(
                spec.task < comp.parallelism,
                "fault plan targets task {} of '{}' (parallelism {})",
                spec.task,
                spec.component,
                comp.parallelism
            );
        }
    }

    /// Validates the topology and builds its tasks in declaration order,
    /// each bolt task's input queue from `channel`, every outbox reading
    /// `clock`. Returns them with the run's trace sink. Shared by the
    /// threaded and the simulation executor.
    pub(crate) fn into_tasks(
        self,
        clock: &Clock,
        channel: impl Fn() -> (Sender<Envelope<M>>, Receiver<Envelope<M>>),
    ) -> (Vec<Task<'a, M>>, Option<TraceSink>) {
        self.validate();
        let (senders, mut receivers): (Vec<Vec<_>>, Vec<Vec<_>>) = self
            .components
            .iter()
            .map(|c| match c.kind {
                Kind::Spout(..) => (Vec::new(), Vec::new()),
                Kind::Bolt(_) => (0..c.parallelism).map(|_| channel()).unzip(),
            })
            .unzip();
        // A bolt expects one EOS per task of its one upstream component.
        let upstream_tasks: Vec<usize> = (0..self.components.len())
            .map(|i| {
                self.wires
                    .iter()
                    .find(|w| w.to == i)
                    .map_or(0, |w| self.components[w.from].parallelism)
            })
            .collect();
        let (sink, ring) = match self.trace {
            Some((sink, cfg)) => (Some(sink), Some(cfg.ring_capacity)),
            None => (None, None),
        };
        let mut tasks = Vec::new();
        for (i, c) in self.components.into_iter().enumerate() {
            let out = self.wires.iter().enumerate().find(|(_, w)| w.from == i);
            let outbox = |task: usize| Outbox {
                wire: out.map(|(wire_index, w)| OutWire {
                    grouping: w.grouping,
                    senders: senders[w.to].clone(),
                    link: ((wire_index as u64) << 32) | task as u64,
                }),
                task_index: task,
                metrics: TaskMetrics::default(),
                clock: clock.clone(),
                tracer: ring.map(|cap| TaskTracer::new(c.name.as_str(), task, cap)),
            };
            match c.kind {
                Kind::Spout(source, handler) => tasks.push(Task {
                    outbox: outbox(0),
                    name: c.name,
                    index: 0,
                    kind: TaskKind::Spout {
                        source,
                        handler,
                        pulls: 0,
                    },
                }),
                Kind::Bolt(factory) => {
                    // The factory is shared across the component's tasks so
                    // a crashed task can rebuild its bolt instance.
                    let factory = Arc::new(Mutex::new(factory));
                    for (task, rx) in std::mem::take(&mut receivers[i]).into_iter().enumerate() {
                        let core = BoltCore::new(
                            Arc::clone(&factory),
                            task,
                            upstream_tasks[i],
                            self.fault_plan.points_for(&c.name, task),
                        );
                        tasks.push(Task {
                            outbox: outbox(task),
                            name: c.name.clone(),
                            index: task,
                            kind: TaskKind::Bolt {
                                core: Box::new(core),
                                rx,
                            },
                        });
                    }
                }
            }
        }
        (tasks, sink)
    }

    /// Executes the topology to completion on the given scheduler.
    ///
    /// [`Scheduler::Threads`] is identical to [`run`](Self::run);
    /// [`Scheduler::Sim`] runs the whole topology single-threaded on a
    /// virtual clock (discarding the recorded transcript — use
    /// [`run_sim`](Self::run_sim) to keep it).
    pub fn run_with(self, scheduler: Scheduler) -> RunReport {
        match scheduler {
            Scheduler::Threads => self.run(),
            Scheduler::Sim(cfg) => self.run_sim(cfg).report,
        }
    }

    /// Executes the topology deterministically under the simulation
    /// scheduler (see [`crate::sim`]) and returns both the run report and
    /// the recorded transcript. A task's panic propagates out of this call,
    /// as from [`run`](Self::run).
    pub fn run_sim(self, cfg: SimConfig) -> SimRun {
        crate::sim::execute(self, cfg)
    }

    /// Executes the topology to completion, one scoped OS thread per task,
    /// and returns the run report once every task has been joined. A run
    /// never returns a partial answer: once every task has been joined,
    /// the first task panic is re-raised with its original payload.
    pub fn run(self) -> RunReport {
        let clock = Clock::wall();
        let capacity = self.channel_capacity;
        let (tasks, sink) = self.into_tasks(&clock, || bounded(capacity));
        let sink = sink.as_ref();
        let first_panic = Mutex::new(None);
        let ends: Vec<TaskEnd> = std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .into_iter()
                .map(|mut task| {
                    let first_panic = &first_panic;
                    std::thread::Builder::new()
                        .name(format!("{}-{}", task.name, task.index))
                        .spawn_scoped(scope, move || {
                            let ran = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                                if let TaskKind::Bolt { core, rx } = &mut task.kind {
                                    core.build();
                                    while let Ok(envelope) = rx.recv() {
                                        if core.handle(envelope, &mut task.outbox) {
                                            break;
                                        }
                                    }
                                } else {
                                    while task.pull() {}
                                }
                                task.outbox.send_eos();
                            }));
                            // Stored before `task`, and with it this task's
                            // queue, drops: a peer unwinding on that queue
                            // can never come first.
                            if let Err(payload) = ran {
                                first_panic.lock().get_or_insert(payload);
                            }
                            task.end(sink)
                        })
                        .expect("spawn task")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a task catches its own panic"))
                .collect()
        });
        if let Some(payload) = first_panic.into_inner() {
            panic::resume_unwind(payload);
        }
        report(ends, &clock)
    }
}

/// One task of a running topology: its outbox, plus a spout's source and
/// handler or a bolt's core and input queue.
pub(crate) struct Task<'a, M: Message> {
    pub(crate) name: String,
    pub(crate) index: usize,
    pub(crate) outbox: Outbox<M>,
    pub(crate) kind: TaskKind<'a, M>,
}

pub(crate) enum TaskKind<'a, M: Message> {
    Spout {
        source: Source<'a, M>,
        handler: Box<dyn Bolt<M> + 'a>,
        /// Tuples pulled so far: the dispatch-event ordinal.
        pulls: u64,
    },
    Bolt {
        // Boxed: BoltCore is much larger than the spout variant.
        core: Box<BoltCore<'a, M>>,
        rx: Receiver<Envelope<M>>,
    },
}

/// A finished task's row of the run report.
pub(crate) struct TaskEnd {
    name: String,
    index: usize,
    metrics: TaskMetrics,
    restarts: u64,
}

impl<M: Message> Task<'_, M> {
    /// Pulls the next tuple from this spout's source and hands it to the
    /// handler, or runs the handler's `finish` at exhaustion and returns
    /// `false`.
    pub(crate) fn pull(&mut self) -> bool {
        let TaskKind::Spout {
            source,
            handler,
            pulls,
        } = &mut self.kind
        else {
            unreachable!("only spouts pull")
        };
        let Some(msg) = source.next() else {
            handler.finish(&mut self.outbox);
            return false;
        };
        self.outbox.trace_instant(Stage::Dispatch, *pulls, 0);
        handler.execute(msg, &mut self.outbox);
        *pulls += 1;
        true
    }

    /// Deposits the task's trace ring into `sink` and returns its report
    /// row; the bolt instance is dropped here.
    pub(crate) fn end(mut self, sink: Option<&TraceSink>) -> TaskEnd {
        if let (Some(sink), Some(trace)) = (sink, self.outbox.take_trace()) {
            sink.push(trace);
        }
        let restarts = match self.kind {
            TaskKind::Spout { .. } => 0,
            TaskKind::Bolt { core, .. } => core.restarts,
        };
        TaskEnd {
            name: self.name,
            index: self.index,
            metrics: self.outbox.metrics,
            restarts,
        }
    }
}

/// The run report of finished tasks, in task order — the order both
/// executors build their tasks in.
pub(crate) fn report(ends: Vec<TaskEnd>, clock: &Clock) -> RunReport {
    let mut report = RunReport {
        tasks: Vec::with_capacity(ends.len()),
        restarts: Vec::new(),
        elapsed: clock.now().saturating_since(Timestamp::ZERO),
        // In-process wires cannot rot; corruption counters are filled in
        // by layers that cross a real wire or disk.
        integrity: Default::default(),
    };
    for end in ends {
        if end.restarts > 0 {
            report
                .restarts
                .push((end.name.clone(), end.index, end.restarts));
        }
        report.tasks.push((end.name, end.index, end.metrics));
    }
    report
}

/// The scheduler-independent heart of one bolt task: EOS accounting,
/// injected-fault restarts and tuple execution. The threaded executor
/// drives it from a blocking `recv` loop; the simulation scheduler feeds
/// it one envelope per step.
pub(crate) struct BoltCore<'a, M: Message> {
    factory: Arc<Mutex<BoltFactory<'a, M>>>,
    task: usize,
    expected_eos: usize,
    eos_seen: usize,
    restarts: u64,
    /// Tuples fully processed across all incarnations of this task;
    /// injected crash points are expressed in this count.
    processed: u64,
    next_fault: std::iter::Peekable<std::vec::IntoIter<u64>>,
    bolt: Option<Box<dyn Bolt<M> + 'a>>,
}

impl<'a, M: Message> BoltCore<'a, M> {
    fn new(
        factory: Arc<Mutex<BoltFactory<'a, M>>>,
        task: usize,
        expected_eos: usize,
        fault_points: Vec<u64>,
    ) -> Self {
        Self {
            factory,
            task,
            expected_eos,
            eos_seen: 0,
            restarts: 0,
            processed: 0,
            next_fault: fault_points.into_iter().peekable(),
            bolt: None,
        }
    }

    /// Builds a fresh bolt instance from the factory. The executors build
    /// the first one on the task's own thread, where its state will live,
    /// before the first envelope.
    pub(crate) fn build(&mut self) {
        self.bolt = Some((self.factory.lock())(self.task));
    }

    fn instance(&mut self) -> &mut (dyn Bolt<M> + 'a) {
        self.bolt
            .as_deref_mut()
            .expect("the executors build the bolt before its first envelope")
    }

    /// Processes one envelope. Returns `true` once the last expected EOS
    /// has arrived and `finish` has run — the caller then sends the task's
    /// own EOS downstream.
    pub(crate) fn handle(&mut self, envelope: Envelope<M>, outbox: &mut Outbox<M>) -> bool {
        let (msg, sent_at) = match envelope {
            Envelope::Data(msg, sent_at) => (msg, sent_at),
            Envelope::Eos => {
                self.eos_seen += 1;
                if self.eos_seen < self.expected_eos {
                    return false;
                }
                self.instance().finish(outbox);
                return true;
            }
        };
        // One clock read ends the tuple's queue wait and starts its
        // execution.
        let mut t0 = outbox.clock.now();
        outbox
            .metrics
            .queue_wait
            .record(t0.saturating_since(sent_at));
        outbox.metrics.msgs_in += 1;
        outbox.metrics.bytes_in += msg.wire_bytes();
        // Injected crash boundary: the instance dies having fully processed
        // `processed` tuples, and a fresh instance — which sees none of the
        // old one's in-memory state — takes over with this tuple, delivered
        // exactly once.
        while self.next_fault.next_if_eq(&self.processed).is_some() {
            self.build();
            self.restarts += 1;
            // Rebuilding (state replay included) is not execution.
            t0 = outbox.clock.now();
        }
        self.instance().execute(msg, outbox);
        outbox.metrics.busy += outbox.clock.now().saturating_since(t0);
        outbox.trace_span(Stage::Execute, t0, self.processed, 0);
        self.processed += 1;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct N(u64);
    impl Message for N {
        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    struct AddOne;
    impl Bolt<N> for AddOne {
        fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
            out.emit(N(msg.0 + 1));
        }
    }

    /// Forwards each value to task `value % fan` of the next stage, over a
    /// Direct wire.
    struct Spread(u64);
    impl Bolt<N> for Spread {
        fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
            out.emit_direct((msg.0 % self.0) as usize, msg);
        }
    }

    /// Buffers everything; emits on finish (tests the flush path).
    struct BufferAll {
        buf: Vec<N>,
    }
    impl Bolt<N> for BufferAll {
        fn execute(&mut self, msg: N, _out: &mut Outbox<N>) {
            self.buf.push(msg);
        }
        fn finish(&mut self, out: &mut Outbox<N>) {
            for m in self.buf.drain(..) {
                out.emit(m);
            }
        }
    }

    #[test]
    fn linear_pipeline() {
        let mut t = Topology::new();
        t.spout("src", (0..100u64).map(N));
        t.bolt("spread", 1, |_| Spread(4));
        t.bolt("inc", 4, |_| AddOne);
        let out = t.collector("sink");
        t.wire("src", "spread", Grouping::global());
        t.wire("spread", "inc", Grouping::direct());
        t.wire("inc", "sink", Grouping::global());
        let report = t.run();
        let mut values: Vec<u64> = out.lock().iter().map(|n| n.0).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=100u64).collect::<Vec<_>>());
        assert_eq!(report.component("inc").msgs_in, 100);
        assert_eq!(report.component("sink").msgs_in, 100);
    }

    #[test]
    fn fifo_order_preserved_per_edge() {
        // Single-task bolt chain: global order must be preserved.
        let mut t = Topology::new();
        t.spout("src", (0..1000u64).map(N));
        t.bolt("inc", 1, |_| AddOne);
        let out = t.collector("sink");
        t.wire("src", "inc", Grouping::global());
        t.wire("inc", "sink", Grouping::global());
        t.run();
        let values: Vec<u64> = out.lock().iter().map(|n| n.0).collect();
        assert_eq!(values, (1..=1000u64).collect::<Vec<_>>());
    }

    #[test]
    fn direct_grouping_addresses_tasks() {
        struct Tag;
        impl Bolt<N> for Tag {
            fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
                out.emit(N(msg.0 * 100 + out.task_index() as u64));
            }
        }
        let mut t = Topology::new();
        t.spout("src", (0..30u64).map(N));
        t.bolt("route", 1, |_| Spread(3));
        t.bolt("worker", 3, |_| Tag);
        let out = t.collector("sink");
        t.wire("src", "route", Grouping::global());
        t.wire("route", "worker", Grouping::direct());
        t.wire("worker", "sink", Grouping::global());
        t.run();
        for n in out.lock().iter() {
            let original = n.0 / 100;
            let task = n.0 % 100;
            assert_eq!(task, original % 3, "value routed to the wrong task");
        }
    }

    #[test]
    fn finish_flushes_buffered_state() {
        let mut t = Topology::new();
        t.spout("src", (0..50u64).map(N));
        t.bolt("spread", 1, |_| Spread(2));
        t.bolt("buffer", 2, |_| BufferAll { buf: Vec::new() });
        let out = t.collector("sink");
        t.wire("src", "spread", Grouping::global());
        t.wire("spread", "buffer", Grouping::direct());
        t.wire("buffer", "sink", Grouping::global());
        t.run();
        assert_eq!(out.lock().len(), 50);
    }

    #[test]
    fn backpressure_with_tiny_channels() {
        let mut t = Topology::new().with_channel_capacity(1);
        t.spout("src", (0..500u64).map(N));
        t.bolt("inc", 1, |_| AddOne);
        let out = t.collector("sink");
        t.wire("src", "inc", Grouping::global());
        t.wire("inc", "sink", Grouping::global());
        t.run();
        assert_eq!(out.lock().len(), 500);
    }

    #[test]
    fn metrics_count_bytes() {
        let mut t = Topology::new();
        t.spout("src", (0..10u64).map(N));
        let out = t.collector("sink");
        t.wire("src", "sink", Grouping::global());
        let report = t.run();
        drop(out);
        assert_eq!(report.component("src").bytes_out, 80);
        assert_eq!(report.component("sink").bytes_in, 80);
        assert!(report.component("sink").queue_wait.count() == 10);
    }

    /// Panics on one specific value, passes the rest through.
    struct Minefield;
    impl Bolt<N> for Minefield {
        fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
            assert_ne!(msg.0, 13, "landed on the mine");
            out.emit(msg);
        }
    }

    fn schedulers() -> [Scheduler; 2] {
        [Scheduler::Threads, Scheduler::Sim(SimConfig::seeded(5))]
    }

    /// Runs `body` on a thread of its own and returns the message it
    /// panicked with. Fails if `body` returns, or if it has not ended
    /// within 20 s: a failing run must neither complete nor hang.
    fn panic_of(body: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(std::thread::spawn(body).join());
        });
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the run ends within its deadline")
            .expect_err("the run fails");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => (*payload.downcast::<&str>().expect("a message payload")).to_owned(),
        }
    }

    /// Runs `src → stage → sink` over `0..n` on `scheduler`, with
    /// `capacity`-deep queues, and returns the message the run failed with.
    fn failing_run<B: Bolt<N> + 'static>(
        n: u64,
        capacity: usize,
        stage: impl FnMut(usize) -> B + Send + 'static,
        scheduler: Scheduler,
    ) -> String {
        panic_of(move || {
            let mut t = Topology::new().with_channel_capacity(capacity);
            t.spout("src", (0..n).map(N));
            t.bolt("stage", 1, stage);
            let _out = t.collector("sink");
            t.wire("src", "stage", Grouping::global());
            t.wire("stage", "sink", Grouping::global());
            t.run_with(scheduler);
        })
    }

    #[test]
    fn a_panicking_bolt_fails_the_run() {
        for scheduler in schedulers() {
            let msg = failing_run(50, 1024, |_| Minefield, scheduler);
            assert!(msg.contains("landed on the mine"), "{scheduler:?}: {msg}");
        }
    }

    #[test]
    fn a_panicking_bolt_wakes_its_backpressured_upstream() {
        // Capacity-1 queues: the spout is blocked on the mine's full queue
        // when it panics, and must be woken to unwind, or run() would hang.
        // Its own unwind is quiet, so the mine's panic is the one raised.
        let msg = failing_run(500, 1, |_| Minefield, Scheduler::Threads);
        assert!(msg.contains("landed on the mine"), "{msg}");
    }

    #[test]
    fn a_panicking_source_fails_the_run() {
        for scheduler in schedulers() {
            let msg = panic_of(move || {
                let source = (0..20u64).map(|i| {
                    assert!(i < 7, "spout exploded");
                    N(i)
                });
                let mut t = Topology::new();
                t.spout("src", source);
                let _out = t.collector("sink");
                t.wire("src", "sink", Grouping::global());
                t.run_with(scheduler);
            });
            assert!(msg.contains("spout exploded"), "{scheduler:?}: {msg}");
        }
    }

    #[test]
    fn a_panicking_factory_fails_the_run() {
        for scheduler in schedulers() {
            let msg = panic_of(move || {
                let mut t = Topology::new().with_channel_capacity(1);
                t.spout("src", (0..100u64).map(N));
                t.bolt("spread", 1, |_| Spread(2));
                t.bolt("inc", 2, |task| {
                    assert_ne!(task, 1, "no instance for task 1");
                    AddOne
                });
                let _out = t.collector("sink");
                t.wire("src", "spread", Grouping::global());
                t.wire("spread", "inc", Grouping::direct());
                t.wire("inc", "sink", Grouping::global());
                t.run_with(scheduler);
            });
            assert!(
                msg.contains("no instance for task 1"),
                "{scheduler:?}: {msg}"
            );
        }
    }

    /// Passes everything through, then panics at end of stream.
    struct FailingFinish;
    impl Bolt<N> for FailingFinish {
        fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
            out.emit(msg);
        }
        fn finish(&mut self, _out: &mut Outbox<N>) {
            panic!("finish failed");
        }
    }

    #[test]
    fn a_panicking_finish_fails_the_run() {
        for scheduler in schedulers() {
            let msg = failing_run(50, 1, |_| FailingFinish, scheduler);
            assert!(msg.contains("finish failed"), "{scheduler:?}: {msg}");
        }
    }

    #[test]
    fn only_an_injected_crash_rebuilds_a_bolt() {
        // The plan's crash at 5 rebuilds the mine; the organic panic at 13
        // still fails the run.
        for scheduler in schedulers() {
            let msg = panic_of(move || {
                let plan = crate::FaultPlan::new().crash("mine", 0, 5);
                let mut t = Topology::new().with_fault_plan(plan);
                t.spout("src", (0..50u64).map(N));
                t.bolt("mine", 1, |_| Minefield);
                let _out = t.collector("sink");
                t.wire("src", "mine", Grouping::global());
                t.wire("mine", "sink", Grouping::global());
                t.run_with(scheduler);
            });
            assert!(msg.contains("landed on the mine"), "{scheduler:?}: {msg}");
        }
    }

    /// A spout handler that logs what it is handed and when it finishes,
    /// emits each item, and panics on `mine`.
    struct Logged {
        log: Arc<Mutex<Vec<Option<u64>>>>,
        mine: Option<u64>,
    }
    impl Bolt<N> for Logged {
        fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
            assert_ne!(Some(msg.0), self.mine, "handler hit the mine");
            self.log.lock().push(Some(msg.0));
            out.emit(msg);
        }
        fn finish(&mut self, _out: &mut Outbox<N>) {
            self.log.lock().push(None);
        }
    }

    /// A `Logged` spout over `0..n` into a collector, with capacity-1
    /// queues: the topology and what the collector gets.
    fn logged_spout(
        n: u64,
        mine: Option<u64>,
        log: &Arc<Mutex<Vec<Option<u64>>>>,
    ) -> (Topology<'static, N>, Arc<Mutex<Vec<N>>>) {
        let mut t = Topology::new().with_channel_capacity(1);
        let handler = Logged {
            log: Arc::clone(log),
            mine,
        };
        t.spout_into("src", (0..n).map(N), handler);
        let out = t.collector("sink");
        t.wire("src", "sink", Grouping::global());
        (t, out)
    }

    #[test]
    fn spout_handler_sees_every_item_in_order_then_finishes_once() {
        for scheduler in schedulers() {
            let log = Arc::new(Mutex::new(Vec::new()));
            let (t, out) = logged_spout(100, None, &log);
            let report = t.run_with(scheduler);
            let mut want: Vec<Option<u64>> = (0..100).map(Some).collect();
            want.push(None);
            assert_eq!(*log.lock(), want, "{scheduler:?}");
            assert_eq!(out.lock().len(), 100, "{scheduler:?}");
            assert_eq!(report.component("src").msgs_out, 100, "{scheduler:?}");
        }
    }

    #[test]
    fn a_panicking_spout_handler_fails_the_run() {
        for scheduler in schedulers() {
            let log = Arc::new(Mutex::new(Vec::new()));
            let (t, _out) = logged_spout(50, Some(13), &log);
            let msg = panic_of(move || {
                t.run_with(scheduler);
            });
            assert!(msg.contains("handler hit the mine"), "{scheduler:?}: {msg}");
            // Items before the mine were handled; `finish` never ran.
            assert_eq!(
                *log.lock(),
                (0..13).map(Some).collect::<Vec<_>>(),
                "{scheduler:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fault plan targets spout 'src'")]
    fn fault_plan_naming_a_spout_with_a_handler_rejected() {
        let mut t = Topology::new().with_fault_plan(crate::FaultPlan::new().crash("src", 0, 1));
        t.spout_into("src", (0..5u64).map(N), AddOne);
        let _out = t.collector("sink");
        t.wire("src", "sink", Grouping::global());
        t.run();
    }

    /// Logs each value plus a borrowed offset into a borrowed log, emits
    /// it, and panics on `mine`: a task whose state lives on the caller's
    /// stack.
    struct Borrowing<'s> {
        offset: &'s u64,
        log: &'s Mutex<Vec<u64>>,
        mine: Option<u64>,
    }
    impl Bolt<N> for Borrowing<'_> {
        fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
            assert_ne!(Some(msg.0), self.mine, "borrowing task hit the mine");
            self.log.lock().push(msg.0 + self.offset);
            out.emit(msg);
        }
    }

    #[test]
    fn tasks_borrow_from_the_caller() {
        for scheduler in schedulers() {
            let items: Vec<u64> = (0..100).collect();
            let (offset, log) = (1000, Mutex::new(Vec::new()));
            let mut t = Topology::new().with_channel_capacity(1);
            t.spout("src", items.iter().map(|&i| N(i)));
            t.bolt("borrow", 2, |_| Borrowing {
                offset: &offset,
                log: &log,
                mine: None,
            });
            t.wire("src", "borrow", Grouping::global());
            t.run_with(scheduler);
            let want: Vec<u64> = items.iter().map(|i| i + offset).collect();
            assert_eq!(*log.lock(), want, "{scheduler:?}");
        }
    }

    #[test]
    fn a_panicking_task_holding_borrowed_state_fails_the_run() {
        for scheduler in schedulers() {
            let msg = panic_of(move || {
                let offset = 0;
                let (handled, executed) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));
                let mut t = Topology::new();
                let handler = Borrowing {
                    offset: &offset,
                    log: &handled,
                    mine: Some(30),
                };
                t.spout_into("src", (0..50).map(N), handler);
                t.bolt("borrow", 1, |_| Borrowing {
                    offset: &offset,
                    log: &executed,
                    mine: Some(13),
                });
                t.wire("src", "borrow", Grouping::global());
                let failed = std::thread::scope(|s| s.spawn(|| t.run_with(scheduler)).join())
                    .expect_err("a mine fires");
                // Every task has stopped touching the borrowed state: each
                // log holds a prefix of the items before its mine.
                let (handled, executed) = (handled.into_inner(), executed.into_inner());
                assert!(handled.iter().copied().eq(0..handled.len() as u64));
                assert!(executed.iter().copied().eq(0..executed.len() as u64));
                assert!(handled.len() <= 30 && executed.len() <= 13);
                panic::resume_unwind(failed);
            });
            assert!(
                msg.contains("borrowing task hit the mine"),
                "{scheduler:?}: {msg}"
            );
        }
    }

    /// Tags each value with the incarnation of the instance that handled
    /// it, so tests can see exactly where a restart happened and that no
    /// tuple was lost or duplicated across it.
    struct IncarnationTag {
        incarnation: u64,
    }
    impl Bolt<N> for IncarnationTag {
        fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
            out.emit(N(msg.0 | (self.incarnation << 32)));
        }
    }

    fn incarnation_topology(plan: crate::FaultPlan) -> (Vec<(u64, u64)>, RunReport) {
        let spawned = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut t = Topology::new().with_fault_plan(plan);
        t.spout("src", (0..50u64).map(N));
        let spawned2 = Arc::clone(&spawned);
        t.bolt("tag", 1, move |_| IncarnationTag {
            incarnation: spawned2.fetch_add(1, std::sync::atomic::Ordering::SeqCst),
        });
        let out = t.collector("sink");
        t.wire("src", "tag", Grouping::global());
        t.wire("tag", "sink", Grouping::global());
        let report = t.run();
        let tagged: Vec<(u64, u64)> = out
            .lock()
            .iter()
            .map(|n| (n.0 >> 32, n.0 & 0xFFFF_FFFF))
            .collect();
        (tagged, report)
    }

    #[test]
    fn injected_fault_restarts_and_redelivers_exactly_once() {
        let (tagged, report) = incarnation_topology(crate::FaultPlan::new().crash("tag", 0, 20));
        // Every tuple delivered exactly once, in order, across the crash.
        let values: Vec<u64> = tagged.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (0..50u64).collect::<Vec<_>>());
        // Tuples 0..20 handled by incarnation 0; the boundary tuple (20)
        // and everything after by the restarted incarnation 1.
        for &(inc, v) in &tagged {
            assert_eq!(inc, u64::from(v >= 20), "value {v} by incarnation {inc}");
        }
        assert_eq!(report.restarts, vec![("tag".to_owned(), 0, 1)]);
        assert_eq!(report.total_restarts(), 1);
    }

    #[test]
    fn injected_fault_before_first_tuple() {
        let (tagged, report) = incarnation_topology(crate::FaultPlan::new().crash("tag", 0, 0));
        assert_eq!(tagged.len(), 50);
        // Incarnation 0 dies untouched; incarnation 1 handles everything.
        assert!(tagged.iter().all(|&(inc, _)| inc == 1));
        assert_eq!(report.total_restarts(), 1);
    }

    #[test]
    fn multiple_injected_faults_on_one_task() {
        let plan = crate::FaultPlan::new()
            .crash("tag", 0, 10)
            .crash("tag", 0, 30);
        let (tagged, report) = incarnation_topology(plan);
        let values: Vec<u64> = tagged.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (0..50u64).collect::<Vec<_>>());
        for &(inc, v) in &tagged {
            let expect = if v < 10 {
                0
            } else if v < 30 {
                1
            } else {
                2
            };
            assert_eq!(inc, expect, "value {v} by incarnation {inc}");
        }
        assert_eq!(report.total_restarts(), 2);
    }

    #[test]
    fn fault_point_past_stream_end_never_fires() {
        let (tagged, report) =
            incarnation_topology(crate::FaultPlan::new().crash("tag", 0, 1_000_000));
        assert_eq!(tagged.len(), 50);
        assert!(tagged.iter().all(|&(inc, _)| inc == 0));
        assert!(report.restarts.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown component")]
    fn fault_plan_with_unknown_component_rejected() {
        let mut t = Topology::new();
        t.spout("src", (0..5u64).map(N));
        let _out = t.collector("sink");
        t.wire("src", "sink", Grouping::global());
        t.with_fault_plan(crate::FaultPlan::new().crash("nope", 0, 1))
            .run();
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn fault_plan_with_out_of_range_task_rejected() {
        let mut t = Topology::new();
        t.spout("src", (0..5u64).map(N));
        t.bolt("inc", 2, |_| AddOne);
        let _out = t.collector("sink");
        t.wire("src", "inc", Grouping::global());
        t.wire("inc", "sink", Grouping::global());
        t.with_fault_plan(crate::FaultPlan::new().crash("inc", 2, 1))
            .run();
    }

    #[test]
    fn metrics_reconcile_across_wires() {
        // Multi-stage, multi-task chain: tuples emitted onto each wire must
        // equal tuples received from it, whether or not a fault fired.
        for plan in [
            crate::FaultPlan::new(),
            crate::FaultPlan::new().crash("stage2", 1, 7),
        ] {
            let mut t = Topology::new().with_fault_plan(plan);
            t.spout("src", (0..300u64).map(N));
            t.bolt("stage1", 2, |_| Spread(3));
            t.bolt("stage2", 3, |_| AddOne);
            let out = t.collector("sink");
            t.wire("src", "stage1", Grouping::global());
            t.wire("stage1", "stage2", Grouping::direct());
            t.wire("stage2", "sink", Grouping::global());
            let report = t.run();
            drop(out);
            let src = report.component("src");
            let s1 = report.component("stage1");
            let s2 = report.component("stage2");
            let sink = report.component("sink");
            assert_eq!(src.msgs_out, s1.msgs_in, "src→stage1 edge leaked");
            assert_eq!(s1.msgs_out, s2.msgs_in, "stage1→stage2 edge leaked");
            assert_eq!(s2.msgs_out, sink.msgs_in, "stage2→sink edge leaked");
            assert_eq!(src.bytes_out, s1.bytes_in, "src→stage1 bytes leaked");
            assert_eq!(s1.bytes_out, s2.bytes_in, "stage1→stage2 bytes leaked");
            assert_eq!(s2.bytes_out, sink.bytes_in, "stage2→sink bytes leaked");
            // With restart-on-injected-fault, nothing is drained: every
            // tuple entering a stage leaves it.
            assert_eq!(sink.msgs_in, 300);
        }
    }

    #[test]
    #[should_panic(expected = "no inbound wire")]
    fn dangling_bolt_rejected() {
        let mut t = Topology::new();
        t.spout("src", std::iter::empty::<N>());
        t.bolt("orphan", 1, |_| AddOne);
        t.run();
    }

    #[test]
    #[should_panic(expected = "'src' already has an outbound wire")]
    fn second_outbound_wire_rejected() {
        let mut t = Topology::new();
        t.spout("src", std::iter::empty::<N>());
        t.bolt("a", 1, |_| AddOne);
        t.bolt("b", 1, |_| AddOne);
        t.wire("src", "a", Grouping::global());
        t.wire("src", "b", Grouping::global());
    }

    #[test]
    #[should_panic(expected = "'sink' already has an inbound wire")]
    fn second_inbound_wire_rejected() {
        let mut t = Topology::new();
        t.spout("left", std::iter::empty::<N>());
        t.spout("right", std::iter::empty::<N>());
        let _out = t.collector("sink");
        t.wire("left", "sink", Grouping::global());
        t.wire("right", "sink", Grouping::global());
    }

    #[test]
    #[should_panic(expected = "cannot wire 'b' into 'a', declared before it")]
    fn wire_to_an_earlier_component_rejected() {
        let mut t = Topology::new();
        t.spout("src", std::iter::empty::<N>());
        t.bolt("a", 1, |_| AddOne);
        t.bolt("b", 1, |_| AddOne);
        t.wire("b", "a", Grouping::global());
    }

    #[test]
    #[should_panic(expected = "duplicate component")]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.spout("x", std::iter::empty::<N>());
        t.bolt("x", 1, |_| AddOne);
    }

    #[test]
    #[should_panic(expected = "cannot wire into a spout")]
    fn wiring_into_spout_rejected() {
        let mut t = Topology::new();
        t.bolt("a", 1, |_| AddOne);
        t.spout("b", std::iter::empty::<N>());
        t.wire("a", "b", Grouping::global());
    }
}
