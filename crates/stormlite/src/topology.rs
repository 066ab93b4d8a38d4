//! Topology construction and execution.

use crate::clock::{Clock, Timestamp};
use crate::fault::FaultPlan;
use crate::grouping::Grouping;
use crate::message::{Bolt, CollectorBolt, Envelope, Message, OutWire, Outbox};
use crate::metrics::{RunReport, TaskMetrics};
use crate::sim::{Scheduler, SimConfig, SimRun};
use crossbeam::channel::{bounded, Receiver, Sender};
use obs::{Stage, TaskTracer, TraceConfig, TraceSink};
use parking_lot::Mutex;
use std::sync::Arc;

const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

pub(crate) type BoltFactory<M> = Box<dyn FnMut(usize) -> Box<dyn Bolt<M>> + Send>;

pub(crate) enum Kind<M: Message> {
    Spout(Option<Box<dyn Iterator<Item = M> + Send>>),
    Bolt(BoltFactory<M>),
}

pub(crate) struct Component<M: Message> {
    pub(crate) name: String,
    pub(crate) parallelism: usize,
    pub(crate) kind: Kind<M>,
}

pub(crate) struct WireDef<M> {
    pub(crate) from: usize,
    pub(crate) to: usize,
    pub(crate) grouping: Grouping<M>,
}

/// A dataflow graph of spouts and bolts, executed with one thread per task
/// (or, under [`Scheduler::Sim`], single-threaded and deterministic).
///
/// Build with [`spout`](Self::spout) / [`bolt`](Self::bolt) /
/// [`wire`](Self::wire), then call [`run`](Self::run); the call returns
/// once every tuple has drained and every task has exited.
pub struct Topology<M: Message> {
    pub(crate) components: Vec<Component<M>>,
    pub(crate) wires: Vec<WireDef<M>>,
    pub(crate) channel_capacity: usize,
    pub(crate) fault_plan: FaultPlan,
    pub(crate) restart_budget: u64,
    pub(crate) trace: Option<(TraceSink, TraceConfig)>,
}

impl<M: Message> Default for Topology<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Message> Topology<M> {
    /// An empty topology.
    pub fn new() -> Self {
        Self {
            components: Vec::new(),
            wires: Vec::new(),
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
            fault_plan: FaultPlan::new(),
            restart_budget: 0,
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
    /// recorded in [`RunReport::failures`] and counted in
    /// [`RunReport::restarts`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Allows each bolt task to survive up to `budget` *organic* panics
    /// (panics raised by the bolt's own `execute`, as opposed to injected
    /// faults): the instance is rebuilt from its factory and processing
    /// continues with the next tuple. The tuple whose `execute` panicked is
    /// **not** redelivered — it poisoned the instance once and would again.
    /// The default budget of `0` preserves fail-and-drain semantics: a
    /// panicked task discards the rest of its input.
    pub fn with_supervised_restarts(mut self, budget: u64) -> Self {
        self.restart_budget = budget;
        self
    }

    fn index_of(&self, name: &str) -> usize {
        self.components
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| panic!("unknown component '{name}'"))
    }

    fn add(&mut self, name: &str, parallelism: usize, kind: Kind<M>) {
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
        I::IntoIter: Send + 'static,
    {
        self.add(name, 1, Kind::Spout(Some(Box::new(source.into_iter()))));
    }

    /// Adds a bolt with `parallelism` tasks; `factory(task_index)` builds
    /// each task's instance.
    pub fn bolt<B, F>(&mut self, name: &str, parallelism: usize, mut factory: F)
    where
        B: Bolt<M> + 'static,
        F: FnMut(usize) -> B + Send + 'static,
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
    /// channel per destination task. `to` must be a bolt.
    pub fn wire(&mut self, from: &str, to: &str, grouping: Grouping<M>) {
        let from = self.index_of(from);
        let to = self.index_of(to);
        assert!(
            matches!(self.components[to].kind, Kind::Bolt(_)),
            "cannot wire into a spout"
        );
        self.wires.push(WireDef { from, to, grouping });
    }

    pub(crate) fn validate(&self) {
        // Every bolt needs input, and the graph must be acyclic.
        for (i, c) in self.components.iter().enumerate() {
            if matches!(c.kind, Kind::Bolt(_)) {
                assert!(
                    self.wires.iter().any(|w| w.to == i),
                    "bolt '{}' has no inbound wire",
                    c.name
                );
            }
        }
        // Kahn's algorithm for cycle detection.
        let n = self.components.len();
        let mut indeg = vec![0usize; n];
        for w in &self.wires {
            indeg[w.to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0;
        while let Some(i) = queue.pop() {
            visited += 1;
            for w in self.wires.iter().filter(|w| w.from == i) {
                indeg[w.to] -= 1;
                if indeg[w.to] == 0 {
                    queue.push(w.to);
                }
            }
        }
        assert_eq!(visited, n, "topology contains a cycle");
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
    /// the recorded transcript.
    pub fn run_sim(self, cfg: SimConfig) -> SimRun {
        crate::sim::execute(self, cfg)
    }

    /// Executes the topology to completion and returns the run report.
    pub fn run(self) -> RunReport {
        self.validate();
        let n = self.components.len();
        let clock = Clock::wall();

        // Input channels: one per bolt task.
        let mut senders: Vec<Vec<Sender<Envelope<M>>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Vec<Option<Receiver<Envelope<M>>>>> = Vec::with_capacity(n);
        for c in &self.components {
            let mut comp_senders = Vec::new();
            let mut comp_receivers = Vec::new();
            match c.kind {
                Kind::Spout(_) => {}
                Kind::Bolt(_) => {
                    for _ in 0..c.parallelism {
                        let (s, r) = bounded(self.channel_capacity);
                        comp_senders.push(s);
                        comp_receivers.push(Some(r));
                    }
                }
            }
            senders.push(comp_senders);
            receivers.push(comp_receivers);
        }

        let expected_eos = expected_eos_counts(&self.components, &self.wires);

        let mut handles = Vec::new();
        for (i, c) in self.components.into_iter().enumerate() {
            match c.kind {
                Kind::Spout(mut source) => {
                    let tracer = self
                        .trace
                        .as_ref()
                        .map(|(_, cfg)| TaskTracer::new(c.name.clone(), 0, cfg.ring_capacity));
                    let sink = self.trace.as_ref().map(|(s, _)| s.clone());
                    let mut outbox = build_outbox(&self.wires, &senders, &clock, i, 0, tracer);
                    let name = c.name.clone();
                    let source = source.take().expect("spout source present");
                    handles.push((
                        c.name,
                        0usize,
                        std::thread::Builder::new()
                            .name(format!("{name}-0"))
                            .spawn(move || {
                                let result = run_spout(source, &mut outbox);
                                if let (Some(s), Some(t)) = (&sink, outbox.take_trace()) {
                                    s.push(t);
                                }
                                result
                            })
                            .expect("spawn spout"),
                    ));
                }
                Kind::Bolt(factory) => {
                    // The factory is shared across the component's task
                    // threads so a supervised task can rebuild its bolt
                    // instance after a crash.
                    let factory = Arc::new(Mutex::new(factory));
                    let comp_receivers = std::mem::take(&mut receivers[i]);
                    for (task, rx_slot) in comp_receivers.into_iter().enumerate() {
                        let tracer = self.trace.as_ref().map(|(_, cfg)| {
                            TaskTracer::new(c.name.clone(), task, cfg.ring_capacity)
                        });
                        let sink = self.trace.as_ref().map(|(s, _)| s.clone());
                        let mut outbox =
                            build_outbox(&self.wires, &senders, &clock, i, task, tracer);
                        let rx = rx_slot.expect("receiver unclaimed");
                        let expected = expected_eos[i];
                        let name = c.name.clone();
                        let factory = Arc::clone(&factory);
                        let fault_points = self.fault_plan.points_for(&c.name, task);
                        let restart_budget = self.restart_budget;
                        handles.push((
                            c.name.clone(),
                            task,
                            std::thread::Builder::new()
                                .name(format!("{name}-{task}"))
                                .spawn(move || {
                                    let mut core = BoltCore::new(
                                        factory,
                                        task,
                                        expected,
                                        fault_points,
                                        restart_budget,
                                    );
                                    while let Ok(envelope) = rx.recv() {
                                        if core.handle(envelope, &mut outbox) {
                                            outbox.send_eos();
                                            break;
                                        }
                                    }
                                    if let (Some(s), Some(t)) = (&sink, outbox.take_trace()) {
                                        s.push(t);
                                    }
                                    (
                                        std::mem::take(&mut outbox.metrics),
                                        std::mem::take(&mut core.failures),
                                        core.restarts,
                                    )
                                })
                                .expect("spawn bolt"),
                        ));
                    }
                }
            }
        }
        // The main thread keeps no senders: drop the matrices so channels
        // close with their owning tasks.
        drop(senders);
        drop(receivers);

        let mut tasks = Vec::new();
        let mut failures = Vec::new();
        let mut restarts = Vec::new();
        for (name, task, handle) in handles {
            let (metrics, task_failures, restart_count) =
                handle.join().expect("task thread itself never panics");
            for msg in task_failures {
                failures.push((name.clone(), task, msg));
            }
            if restart_count > 0 {
                restarts.push((name.clone(), task, restart_count));
            }
            tasks.push((name, task, metrics));
        }
        RunReport {
            tasks,
            failures,
            restarts,
            elapsed: clock.now().saturating_since(Timestamp::ZERO),
            // In-process wires cannot rot; corruption counters are filled
            // in by layers that cross a real wire or disk.
            integrity: Default::default(),
        }
    }
}

/// Expected EOS tokens per component = sum of upstream parallelism.
pub(crate) fn expected_eos_counts<M: Message>(
    components: &[Component<M>],
    wires: &[WireDef<M>],
) -> Vec<usize> {
    (0..components.len())
        .map(|i| {
            wires
                .iter()
                .filter(|w| w.to == i)
                .map(|w| components[w.from].parallelism)
                .sum()
        })
        .collect()
}

/// Builds the outbox of one task: its outgoing wires, reading the run's
/// shared clock, plus the task's trace ring when tracing is enabled. Used
/// by both the threaded and the simulation executor.
pub(crate) fn build_outbox<M: Message>(
    wire_defs: &[WireDef<M>],
    senders: &[Vec<Sender<Envelope<M>>>],
    clock: &Clock,
    comp: usize,
    task: usize,
    tracer: Option<TaskTracer>,
) -> Outbox<M> {
    let wires = wire_defs
        .iter()
        .enumerate()
        .filter(|(_, w)| w.from == comp)
        .map(|(wire_index, w)| OutWire {
            grouping: w.grouping.clone(),
            senders: senders[w.to].clone(),
            // Stagger round-robin start by task to avoid lockstep.
            rr_next: task,
            link: ((wire_index as u64) << 32) | task as u64,
        })
        .collect();
    Outbox {
        wires,
        task_index: task,
        metrics: TaskMetrics::default(),
        clock: clock.clone(),
        tracer,
    }
}

fn run_spout<M: Message>(
    source: Box<dyn Iterator<Item = M> + Send>,
    outbox: &mut Outbox<M>,
) -> (TaskMetrics, Vec<String>, u64) {
    let mut source = source;
    let mut failures = Vec::new();
    let mut ordinal = 0u64;
    loop {
        // Each pull is isolated: a panicking source stops emitting but the
        // topology still receives EOS and drains cleanly.
        let next = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| source.next()));
        match next {
            Ok(Some(msg)) => {
                outbox.trace_instant(Stage::Dispatch, ordinal, 0);
                ordinal += 1;
                outbox.emit(msg);
            }
            Ok(None) => break,
            Err(panic) => {
                failures.push(panic_message(panic));
                break;
            }
        }
    }
    outbox.send_eos();
    (std::mem::take(&mut outbox.metrics), failures, 0)
}

/// Renders a caught panic payload for the run report.
pub(crate) fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Builds a fresh bolt instance, catching a panicking factory.
fn build_bolt<M: Message>(
    factory: &Mutex<BoltFactory<M>>,
    task: usize,
) -> Result<Box<dyn Bolt<M>>, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (factory.lock())(task)))
        .map_err(panic_message)
}

/// The scheduler-independent heart of one bolt task: EOS accounting,
/// injected-fault and supervised-restart handling, and tuple execution. The threaded executor drives it from a blocking
/// `recv` loop; the simulation scheduler feeds it one envelope per step.
pub(crate) struct BoltCore<M: Message> {
    factory: Arc<Mutex<BoltFactory<M>>>,
    task: usize,
    expected_eos: usize,
    eos_seen: usize,
    pub(crate) failures: Vec<String>,
    pub(crate) restarts: u64,
    organic_restarts_left: u64,
    /// Tuples fully processed across all incarnations of this task;
    /// injected crash points are expressed in this count.
    processed: u64,
    next_fault: std::iter::Peekable<std::vec::IntoIter<u64>>,
    bolt: Option<Box<dyn Bolt<M>>>,
}

impl<M: Message> BoltCore<M> {
    pub(crate) fn new(
        factory: Arc<Mutex<BoltFactory<M>>>,
        task: usize,
        expected_eos: usize,
        fault_points: Vec<u64>,
        restart_budget: u64,
    ) -> Self {
        let mut failures = Vec::new();
        let bolt = match build_bolt(&factory, task) {
            Ok(b) => Some(b),
            Err(msg) => {
                failures.push(msg);
                None
            }
        };
        Self {
            factory,
            task,
            expected_eos,
            eos_seen: 0,
            failures,
            restarts: 0,
            organic_restarts_left: restart_budget,
            processed: 0,
            next_fault: fault_points.into_iter().peekable(),
            bolt,
        }
    }

    fn rebuild(&mut self) {
        match build_bolt(&self.factory, self.task) {
            Ok(b) => {
                self.bolt = Some(b);
                self.restarts += 1;
            }
            Err(msg) => {
                self.failures.push(msg);
                self.bolt = None;
            }
        }
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
                if let Some(instance) = self.bolt.as_deref_mut() {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        instance.finish(outbox)
                    }));
                    if let Err(panic) = r {
                        self.failures.push(panic_message(panic));
                    }
                }
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
        while self.bolt.is_some() && self.next_fault.next_if_eq(&self.processed).is_some() {
            self.failures.push(format!(
                "injected fault: task crashed after {} tuples",
                self.processed
            ));
            self.rebuild();
            // Rebuilding (state replay included) is not execution.
            t0 = outbox.clock.now();
        }
        let Some(instance) = self.bolt.as_deref_mut() else {
            // A dead bolt keeps draining its queue so upstream senders
            // never block on a dead consumer; tuples are discarded.
            return false;
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            instance.execute(msg, outbox)
        }));
        outbox.metrics.busy += outbox.clock.now().saturating_since(t0);
        outbox.trace_span(Stage::Execute, t0, self.processed, 0);
        match r {
            Ok(()) => self.processed += 1,
            Err(panic) => {
                self.failures.push(panic_message(panic));
                // An organic panic consumes its tuple: redelivering it to
                // the fresh instance would just crash it again. The crashed
                // instance counts as having processed it for fault-point
                // bookkeeping — and is counted as a poisoned drop so the
                // loss is never silent.
                self.processed += 1;
                outbox.metrics.dropped_poisoned += 1;
                if self.organic_restarts_left > 0 {
                    self.organic_restarts_left -= 1;
                    self.rebuild();
                } else {
                    self.bolt = None;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
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
        t.bolt("inc", 4, |_| AddOne);
        let out = t.collector("sink");
        t.wire("src", "inc", Grouping::shuffle());
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
    fn fields_grouping_partitions_consistently() {
        struct TagTask;
        impl Bolt<N> for TagTask {
            fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
                // Encode the handling task into the high bits.
                out.emit(N(msg.0 | ((out.task_index() as u64) << 32)));
            }
        }
        let mut t = Topology::new();
        t.spout("src", (0..200u64).map(|i| N(i % 10)));
        t.bolt("tag", 4, |_| TagTask);
        let out = t.collector("sink");
        t.wire("src", "tag", Grouping::fields(|n: &N| n.0));
        t.wire("tag", "sink", Grouping::global());
        t.run();
        // Every occurrence of the same key must have been handled by the
        // same task.
        let mut task_of_key = std::collections::HashMap::new();
        for n in out.lock().iter() {
            let key = n.0 & 0xFFFF_FFFF;
            let task = n.0 >> 32;
            let prev = task_of_key.insert(key, task);
            assert!(prev.is_none() || prev == Some(task), "key {key} split");
        }
        assert_eq!(out.lock().len(), 200);
    }

    #[test]
    fn broadcast_duplicates_to_all_tasks() {
        let mut t = Topology::new();
        t.spout("src", (0..10u64).map(N));
        t.bolt("copy", 3, |_| AddOne);
        let out = t.collector("sink");
        t.wire("src", "copy", Grouping::broadcast());
        t.wire("copy", "sink", Grouping::global());
        let report = t.run();
        assert_eq!(out.lock().len(), 30);
        assert_eq!(report.component("copy").msgs_in, 30);
    }

    #[test]
    fn direct_grouping_addresses_tasks() {
        struct Route;
        impl Bolt<N> for Route {
            fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
                let target = (msg.0 % 3) as usize;
                out.emit_direct(target, msg);
            }
        }
        struct Tag;
        impl Bolt<N> for Tag {
            fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
                out.emit(N(msg.0 * 100 + out.task_index() as u64));
            }
        }
        let mut t = Topology::new();
        t.spout("src", (0..30u64).map(N));
        t.bolt("route", 1, |_| Route);
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
        t.bolt("buffer", 2, |_| BufferAll { buf: Vec::new() });
        let out = t.collector("sink");
        t.wire("src", "buffer", Grouping::shuffle());
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
    fn diamond_topology_merges() {
        let mut t = Topology::new();
        t.spout("src", (0..20u64).map(N));
        t.bolt("left", 1, |_| AddOne);
        t.bolt("right", 1, |_| AddOne);
        let out = t.collector("sink");
        t.wire("src", "left", Grouping::global());
        t.wire("src", "right", Grouping::global());
        t.wire("left", "sink", Grouping::global());
        t.wire("right", "sink", Grouping::global());
        t.run();
        assert_eq!(out.lock().len(), 40);
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

    #[test]
    fn panicking_bolt_is_isolated_and_reported() {
        let mut t = Topology::new();
        t.spout("src", (0..50u64).map(N));
        t.bolt("mine", 1, |_| Minefield);
        let out = t.collector("sink");
        t.wire("src", "mine", Grouping::global());
        t.wire("mine", "sink", Grouping::global());
        let report = t.run();
        assert!(!report.is_clean());
        assert_eq!(report.failures.len(), 1);
        let (comp, task, msg) = &report.failures[0];
        assert_eq!(comp, "mine");
        assert_eq!(*task, 0);
        assert!(msg.contains("mine"), "panic message propagated: {msg}");
        // Tuples before the mine made it through; the rest were discarded.
        assert_eq!(out.lock().len(), 13);
    }

    #[test]
    fn panicking_bolt_does_not_stall_backpressured_upstream() {
        // Tiny channels: if the failed task stopped draining, the spout
        // would block forever and run() would hang.
        let mut t = Topology::new().with_channel_capacity(1);
        t.spout("src", (0..500u64).map(N));
        t.bolt("mine", 1, |_| Minefield);
        let out = t.collector("sink");
        t.wire("src", "mine", Grouping::global());
        t.wire("mine", "sink", Grouping::global());
        let report = t.run();
        assert!(!report.is_clean());
        assert_eq!(out.lock().len(), 13);
    }

    #[test]
    fn panicking_spout_still_drains() {
        let source = (0..20u64).map(|i| {
            assert!(i < 7, "spout exploded");
            N(i)
        });
        let mut t = Topology::new();
        t.spout("src", source);
        let out = t.collector("sink");
        t.wire("src", "sink", Grouping::global());
        let report = t.run();
        assert!(!report.is_clean());
        assert_eq!(report.failures[0].0, "src");
        assert_eq!(out.lock().len(), 7);
    }

    #[test]
    fn clean_run_reports_no_failures() {
        let mut t = Topology::new();
        t.spout("src", (0..5u64).map(N));
        let _out = t.collector("sink");
        t.wire("src", "sink", Grouping::global());
        assert!(t.run().is_clean());
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
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].2.contains("injected fault"));
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
        assert!(report.is_clean());
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
    fn supervised_restart_survives_organic_panic_without_redelivery() {
        let mut t = Topology::new().with_supervised_restarts(1);
        t.spout("src", (0..50u64).map(N));
        t.bolt("mine", 1, |_| Minefield);
        let out = t.collector("sink");
        t.wire("src", "mine", Grouping::global());
        t.wire("mine", "sink", Grouping::global());
        let report = t.run();
        // The poison tuple (13) is consumed by the crash, not retried; the
        // restarted instance handles everything after it.
        let values: Vec<u64> = out.lock().iter().map(|n| n.0).collect();
        let expect: Vec<u64> = (0..50u64).filter(|&v| v != 13).collect();
        assert_eq!(values, expect);
        assert_eq!(report.total_restarts(), 1);
        assert_eq!(report.failures.len(), 1);
    }

    #[test]
    fn organic_restart_budget_is_exhausted() {
        // Two mines, budget one: the second panic kills the task for good.
        struct TwoMines;
        impl Bolt<N> for TwoMines {
            fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
                assert!(msg.0 != 5 && msg.0 != 10, "mine at {}", msg.0);
                out.emit(msg);
            }
        }
        let mut t = Topology::new().with_supervised_restarts(1);
        t.spout("src", (0..20u64).map(N));
        t.bolt("mine", 1, |_| TwoMines);
        let out = t.collector("sink");
        t.wire("src", "mine", Grouping::global());
        t.wire("mine", "sink", Grouping::global());
        let report = t.run();
        let values: Vec<u64> = out.lock().iter().map(|n| n.0).collect();
        // 0..5 pass, 5 crashes (restart), 6..10 pass, 10 crashes (budget
        // spent → drain discards the rest).
        let expect: Vec<u64> = (0..10u64).filter(|&v| v != 5).collect();
        assert_eq!(values, expect);
        assert_eq!(report.total_restarts(), 1);
        assert_eq!(report.failures.len(), 2);
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
            t.bolt("stage1", 2, |_| AddOne);
            t.bolt("stage2", 3, |_| AddOne);
            let out = t.collector("sink");
            t.wire("src", "stage1", Grouping::shuffle());
            t.wire("stage1", "stage2", Grouping::shuffle());
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
    fn poisoned_tuple_drop_is_counted() {
        // Satellite regression: the tuple consumed by an organic panic is
        // no longer a silent loss — dropped_poisoned traces it.
        let mut t = Topology::new().with_supervised_restarts(1);
        t.spout("src", (0..50u64).map(N));
        t.bolt("mine", 1, |_| Minefield);
        let out = t.collector("sink");
        t.wire("src", "mine", Grouping::global());
        t.wire("mine", "sink", Grouping::global());
        let report = t.run();
        assert_eq!(out.lock().len(), 49);
        assert_eq!(report.dropped_poisoned(), 1);
        assert_eq!(report.component("mine").dropped_poisoned, 1);
        // The accounting closes the loop: in + poisoned drops == out for a
        // 1:1 bolt.
        let mine = report.component("mine");
        assert_eq!(mine.msgs_in, mine.msgs_out + mine.dropped_poisoned);
    }

    #[test]
    fn poisoned_drops_counted_even_without_restart_budget() {
        let mut t = Topology::new(); // budget 0: task dies on first panic
        t.spout("src", (0..50u64).map(N));
        t.bolt("mine", 1, |_| Minefield);
        let out = t.collector("sink");
        t.wire("src", "mine", Grouping::global());
        t.wire("mine", "sink", Grouping::global());
        let report = t.run();
        drop(out);
        assert_eq!(report.dropped_poisoned(), 1);
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
    #[should_panic(expected = "cycle")]
    fn cycles_rejected() {
        let mut t = Topology::new();
        t.spout("src", std::iter::empty::<N>());
        t.bolt("a", 1, |_| AddOne);
        t.bolt("b", 1, |_| AddOne);
        t.wire("src", "a", Grouping::global());
        t.wire("a", "b", Grouping::global());
        t.wire("b", "a", Grouping::global());
        t.run();
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
        t.spout("a", std::iter::empty::<N>());
        t.spout("b", std::iter::empty::<N>());
        t.wire("a", "b", Grouping::global());
    }
}
