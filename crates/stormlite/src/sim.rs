//! Deterministic single-threaded simulation of a topology.
//!
//! The thread-per-task executor ([`Topology::run`]) is faithful to real
//! deployments but nondeterministic: the OS scheduler decides every
//! interleaving, so a failing chaos test cannot be replayed bit for bit.
//! The simulation scheduler closes that gap, in the style of
//! FoundationDB-class deterministic simulation testing:
//!
//! * **One thread.** Every task (spout or bolt) becomes a cooperatively
//!   scheduled state machine; channels are unbounded, so no step blocks.
//! * **A seeded scheduler.** Each step, the set of *runnable* tasks (spouts
//!   with input left, bolts with a queued envelope) is computed in task
//!   order and a SplitMix64 step-choice RNG seeded from
//!   [`SimConfig::seed`] picks the one to run. Same seed ⇒ same
//!   interleaving.
//! * **A virtual clock.** The topology runs on a
//!   [`Clock::virtual_start`] clock that advances by [`SimConfig::tick`]
//!   per step and never otherwise. Everything the engine or a bolt times
//!   (queue wait, end-to-end and checkpoint latency, barrier stall)
//!   therefore runs entirely on virtual time and is exactly reproducible.
//! * **Crashes included.** `FaultPlan` crashes, supervised restarts and
//!   the replay/checkpoint recovery built on them run unmodified — they
//!   were already deterministic per seed; the scheduler removes the last
//!   source of nondeterminism, the interleaving. Wires are the same
//!   reliable FIFO channels as under threads: link loss is a property of
//!   the cluster's sessions, not of a topology.
//!
//! Every scheduler decision is recorded in a [`Transcript`]: same seed ⇒
//! byte-identical transcript, so a failure reproduces from its seed alone
//! and a diff of two transcripts pinpoints the first diverging step.
//!
//! ```
//! use stormlite::{Grouping, Message, SimConfig, Topology};
//!
//! #[derive(Clone)]
//! struct Num(u64);
//! impl Message for Num {}
//!
//! let build = || {
//!     let mut t = Topology::new();
//!     t.spout("src", (0..10u64).map(Num));
//!     let out = t.collector("sink");
//!     t.wire("src", "sink", Grouping::shuffle());
//!     (t, out)
//! };
//! let (t1, out1) = build();
//! let (t2, out2) = build();
//! let a = t1.run_sim(SimConfig::seeded(7));
//! let b = t2.run_sim(SimConfig::seeded(7));
//! assert_eq!(a.transcript, b.transcript); // bit-for-bit replay
//! assert_eq!(out1.lock().len(), out2.lock().len());
//! ```

use crate::clock::{Clock, Timestamp};
use crate::link::mix;
use crate::message::{Envelope, Message, Outbox};
use crate::metrics::RunReport;
use crate::topology::{build_outbox, expected_eos_counts, panic_message, BoltCore, Kind, Topology};
use crossbeam::channel::{unbounded, Receiver, Sender};
use obs::{Stage, TaskTracer};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// How a topology executes: real threads or deterministic simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Scheduler {
    /// One OS thread per task, bounded channels, wall-clock time — the
    /// production-shaped executor ([`Topology::run`]). The default.
    #[default]
    Threads,
    /// Single-threaded deterministic simulation on a virtual clock (see
    /// [`crate::sim`]).
    Sim(SimConfig),
}

/// Parameters of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Seed of the step-choice RNG. The seed alone determines the
    /// interleaving — and with it the full transcript.
    pub seed: u64,
    /// Virtual time added per scheduler step: the unit every reported
    /// latency of a simulated run is a whole multiple of.
    pub tick: Duration,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            tick: Duration::from_micros(1),
        }
    }
}

impl SimConfig {
    /// The default configuration with the given scheduler seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// The recorded decision log of one simulated run: one line per scheduler
/// event (task step, finish, EOS hand-off).
///
/// Transcripts are plain text — commit one as a golden file and any
/// scheduler change that silently alters delivery order fails loudly as a
/// byte diff.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Transcript {
    lines: Vec<String>,
}

impl Transcript {
    /// The recorded lines, in scheduling order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Number of recorded lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Renders the transcript as newline-terminated text (the golden-file
    /// format).
    pub fn to_text(&self) -> String {
        let mut s = self.lines.join("\n");
        if !s.is_empty() {
            s.push('\n');
        }
        s
    }

    /// Parses text previously produced by [`to_text`](Self::to_text).
    pub fn from_text(text: &str) -> Self {
        Self {
            lines: text.lines().map(str::to_owned).collect(),
        }
    }

    /// The index of the first line where the two transcripts differ (or
    /// where one ends), `None` if they are identical.
    pub fn first_divergence(&self, other: &Transcript) -> Option<usize> {
        let n = self.lines.len().min(other.lines.len());
        (0..n)
            .find(|&i| self.lines[i] != other.lines[i])
            .or((self.lines.len() != other.lines.len()).then_some(n))
    }
}

/// The outcome of a simulated run: the ordinary [`RunReport`] (latencies
/// in virtual time) plus the scheduler transcript.
#[derive(Debug)]
pub struct SimRun {
    /// Per-task metrics, failures and restarts, as from [`Topology::run`];
    /// `elapsed` and every latency histogram measure *virtual* time.
    pub report: RunReport,
    /// The deterministic decision log of this run.
    pub transcript: Transcript,
}

/// SplitMix64 step-choice RNG: `state += golden; mix(state)`.
struct SimRng {
    state: u64,
}

impl SimRng {
    fn new(seed: u64) -> Self {
        Self {
            // Decorrelate from the fault-point streams, which hash raw
            // seeds through the same mixer.
            state: mix(seed ^ 0x5EED_5C4E_D01E_5EED),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }
}

enum TaskKind<M: Message> {
    Spout(Box<dyn Iterator<Item = M> + Send>),
    Bolt {
        // Boxed: BoltCore is much larger than the spout variant and each
        // task holds exactly one, so the indirection costs nothing.
        core: Box<BoltCore<M>>,
        rx: Receiver<Envelope<M>>,
    },
}

struct SimTask<M: Message> {
    name: String,
    task: usize,
    outbox: Outbox<M>,
    kind: TaskKind<M>,
    /// EOS sent; the task no longer schedules.
    done: bool,
    spout_failures: Vec<String>,
    /// Records pulled so far (spouts only): the dispatch-event ordinal.
    pulls: u64,
}

impl<M: Message> SimTask<M> {
    fn runnable(&self) -> bool {
        if self.done {
            return false;
        }
        match &self.kind {
            // A spout can always attempt a pull (exhaustion is discovered
            // by the pull itself).
            TaskKind::Spout(_) => true,
            TaskKind::Bolt { rx, .. } => !rx.is_empty(),
        }
    }
}

/// Runs the topology to completion under the simulation scheduler.
pub(crate) fn execute<M: Message>(topology: Topology<M>, cfg: SimConfig) -> SimRun {
    topology.validate();
    let n = topology.components.len();
    let clock = Clock::virtual_start();

    // Unbounded input channels: a single-threaded scheduler must never
    // block on a full queue (the consumer could not run concurrently).
    // Backpressure is irrelevant here — the scheduler controls all rates.
    let mut senders: Vec<Vec<Sender<Envelope<M>>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Vec<Option<Receiver<Envelope<M>>>>> = Vec::with_capacity(n);
    for c in &topology.components {
        let mut comp_senders = Vec::new();
        let mut comp_receivers = Vec::new();
        if matches!(c.kind, Kind::Bolt(_)) {
            for _ in 0..c.parallelism {
                let (s, r) = unbounded();
                comp_senders.push(s);
                comp_receivers.push(Some(r));
            }
        }
        senders.push(comp_senders);
        receivers.push(comp_receivers);
    }

    let expected_eos = expected_eos_counts(&topology.components, &topology.wires);
    let trace = topology.trace.clone();
    let tracer_for = |comp: &str, task: usize| {
        trace
            .as_ref()
            .map(|(_, cfg)| TaskTracer::new(comp, task, cfg.ring_capacity))
    };

    let mut tasks: Vec<SimTask<M>> = Vec::new();
    for (i, c) in topology.components.into_iter().enumerate() {
        match c.kind {
            Kind::Spout(mut source) => {
                let outbox = build_outbox(
                    &topology.wires,
                    &senders,
                    &clock,
                    i,
                    0,
                    tracer_for(&c.name, 0),
                );
                tasks.push(SimTask {
                    name: c.name,
                    task: 0,
                    outbox,
                    kind: TaskKind::Spout(source.take().expect("spout source present")),
                    done: false,
                    spout_failures: Vec::new(),
                    pulls: 0,
                });
            }
            Kind::Bolt(factory) => {
                let factory = Arc::new(Mutex::new(factory));
                let comp_receivers = std::mem::take(&mut receivers[i]);
                for (task, rx_slot) in comp_receivers.into_iter().enumerate() {
                    let outbox = build_outbox(
                        &topology.wires,
                        &senders,
                        &clock,
                        i,
                        task,
                        tracer_for(&c.name, task),
                    );
                    let core = Box::new(BoltCore::new(
                        Arc::clone(&factory),
                        task,
                        expected_eos[i],
                        topology.fault_plan.points_for(&c.name, task),
                        topology.restart_budget,
                    ));
                    tasks.push(SimTask {
                        name: c.name.clone(),
                        task,
                        outbox,
                        kind: TaskKind::Bolt {
                            core,
                            rx: rx_slot.expect("receiver unclaimed"),
                        },
                        done: false,
                        spout_failures: Vec::new(),
                        pulls: 0,
                    });
                }
            }
        }
    }
    drop(senders);
    drop(receivers);

    let mut rng = SimRng::new(cfg.seed);
    let mut lines: Vec<String> = Vec::new();
    let mut step: u64 = 0;
    loop {
        let runnable: Vec<usize> = (0..tasks.len()).filter(|&i| tasks[i].runnable()).collect();
        if runnable.is_empty() {
            // Every task sends EOS when it finishes, so with a validated
            // (acyclic, EOS-counted) topology nothing is left waiting.
            let stuck: Vec<String> = tasks
                .iter()
                .filter(|t| !t.done)
                .map(|t| format!("{}/{}", t.name, t.task))
                .collect();
            assert!(
                stuck.is_empty(),
                "simulation deadlock: tasks {stuck:?} can never progress"
            );
            break;
        }

        let pick = runnable[(rng.next() % runnable.len() as u64) as usize];
        step += 1;
        clock.advance(cfg.tick);
        let now_ns = clock.now().as_nanos();
        let t = &mut tasks[pick];
        match &mut t.kind {
            TaskKind::Spout(source) => {
                let next = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| source.next()));
                match next {
                    Ok(Some(msg)) => {
                        t.outbox.trace_instant(Stage::Dispatch, t.pulls, 0);
                        t.pulls += 1;
                        t.outbox.emit(msg);
                        lines.push(format!("{step} t={now_ns} {}/{} pull", t.name, t.task));
                    }
                    Ok(None) => {
                        t.done = true;
                        lines.push(format!("{step} t={now_ns} {}/{} exhausted", t.name, t.task));
                    }
                    Err(panic) => {
                        t.spout_failures.push(panic_message(panic));
                        t.done = true;
                        lines.push(format!(
                            "{step} t={now_ns} {}/{} spout-panic",
                            t.name, t.task
                        ));
                    }
                }
            }
            TaskKind::Bolt { core, rx } => {
                let envelope = rx.try_recv().expect("runnable bolt has queued input");
                let desc = match &envelope {
                    Envelope::Data(..) => "data",
                    Envelope::Eos => "eos",
                };
                t.done = core.handle(envelope, &mut t.outbox);
                lines.push(format!("{step} t={now_ns} {}/{} {desc}", t.name, t.task));
                if t.done {
                    lines.push(format!("{step} t={now_ns} {}/{} finish", t.name, t.task));
                }
            }
        }
        if t.done {
            // The wires are FIFO: EOS cannot overtake what the task emitted.
            t.outbox.send_eos();
            lines.push(format!("{step} t={now_ns} {}/{} eos-out", t.name, t.task));
        }
    }

    // Assemble the report in task order — the same order the threaded
    // executor joins its handles in.
    let mut report_tasks = Vec::new();
    let mut failures = Vec::new();
    let mut restarts = Vec::new();
    for mut t in tasks {
        if let (Some((sink, _)), Some(tt)) = (&trace, t.outbox.take_trace()) {
            sink.push(tt);
        }
        let metrics = std::mem::take(&mut t.outbox.metrics);
        let (task_failures, restart_count) = match t.kind {
            TaskKind::Spout(_) => (t.spout_failures, 0),
            TaskKind::Bolt { mut core, .. } => (std::mem::take(&mut core.failures), core.restarts),
        };
        for msg in task_failures {
            failures.push((t.name.clone(), t.task, msg));
        }
        if restart_count > 0 {
            restarts.push((t.name.clone(), t.task, restart_count));
        }
        report_tasks.push((t.name, t.task, metrics));
    }
    SimRun {
        report: RunReport {
            tasks: report_tasks,
            failures,
            restarts,
            elapsed: clock.now().saturating_since(Timestamp::ZERO),
            integrity: Default::default(),
        },
        transcript: Transcript { lines },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::grouping::Grouping;

    #[derive(Clone, Debug, PartialEq)]
    struct N(u64);
    impl Message for N {
        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    struct AddOne;
    impl crate::message::Bolt<N> for AddOne {
        fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
            out.emit(N(msg.0 + 1));
        }
    }

    fn pipeline(n: u64, fault_plan: FaultPlan) -> (Topology<N>, Arc<Mutex<Vec<N>>>) {
        let mut t = Topology::new().with_fault_plan(fault_plan);
        t.spout("src", (0..n).map(N));
        t.bolt("relay", 2, |_| AddOne);
        let out = t.collector("sink");
        t.wire("src", "relay", Grouping::shuffle());
        t.wire("relay", "sink", Grouping::global());
        (t, out)
    }

    fn sorted(values: &Arc<Mutex<Vec<N>>>) -> Vec<u64> {
        let mut v: Vec<u64> = values.lock().iter().map(|n| n.0).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn sim_runs_a_plain_pipeline_to_completion() {
        let (t, out) = pipeline(100, FaultPlan::new());
        let run = t.run_sim(SimConfig::seeded(1));
        assert_eq!(sorted(&out), (1..=100u64).collect::<Vec<_>>());
        assert!(run.report.is_clean());
        assert_eq!(run.report.component("sink").msgs_in, 100);
        // Virtual time moved: one tick per step at least.
        assert!(run.report.elapsed >= Duration::from_micros(100));
        assert!(!run.transcript.is_empty());
    }

    #[test]
    fn same_seed_same_transcript_different_seed_differs() {
        let run_once = |seed| {
            let (t, out) = pipeline(60, FaultPlan::new());
            let run = t.run_sim(SimConfig::seeded(seed));
            (run, sorted(&out))
        };
        let (a, va) = run_once(42);
        let (b, vb) = run_once(42);
        assert_eq!(a.transcript, b.transcript, "same seed must replay exactly");
        assert_eq!(a.transcript.first_divergence(&b.transcript), None);
        assert_eq!(va, vb);
        // A different seed explores a different interleaving (with 2 relay
        // tasks the schedules virtually cannot coincide).
        let (c, vc) = run_once(43);
        assert_ne!(a.transcript, c.transcript);
        assert!(a.transcript.first_divergence(&c.transcript).is_some());
        assert_eq!(va, vc, "results stay seed-independent");
    }

    #[test]
    fn transcript_round_trips_through_text() {
        let (t, _out) = pipeline(20, FaultPlan::new());
        let run = t.run_sim(SimConfig::seeded(9));
        let text = run.transcript.to_text();
        assert_eq!(Transcript::from_text(&text), run.transcript);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn sim_crash_is_transcript_deterministic() {
        let run_once = || {
            let (t, out) = pipeline(40, FaultPlan::new().crash("relay", 1, 7));
            let run = t.run_sim(SimConfig::seeded(11));
            (run, sorted(&out))
        };
        let (a, va) = run_once();
        let (b, vb) = run_once();
        assert_eq!(a.transcript, b.transcript);
        assert_eq!(va, vb);
        assert_eq!(a.report.total_restarts(), 1);
        assert_eq!(va, (1..=40u64).collect::<Vec<_>>());
    }

    #[test]
    fn sim_latencies_are_virtual_time() {
        let (t, _out) = pipeline(50, FaultPlan::new());
        let run = t.run_sim(SimConfig::seeded(3));
        let sink = run.report.component("sink");
        assert_eq!(sink.queue_wait.count(), 50);
        // Every queue wait is a whole number of ticks > 0: tuples wait at
        // least one scheduling step, and virtual time is quantized.
        assert!(sink.queue_wait.max() >= Duration::from_micros(1));
        // Busy time never advances on the frozen-within-step clock.
        assert_eq!(sink.busy, Duration::ZERO);
    }

    #[test]
    fn sim_crash_redelivers_exactly_once() {
        let (t, out) = pipeline(50, FaultPlan::new().crash("relay", 0, 10));
        let run = t.run_sim(SimConfig::seeded(2));
        assert_eq!(sorted(&out), (1..=50u64).collect::<Vec<_>>());
        assert_eq!(run.report.total_restarts(), 1);
        assert!(run
            .report
            .failures
            .iter()
            .any(|(_, _, m)| m.contains("injected fault")));
    }

    #[test]
    fn sim_tracing_is_deterministic_and_leaves_transcript_unchanged() {
        let run_once = |traced: bool| {
            let (t, out) = pipeline(40, FaultPlan::new());
            let sink = obs::TraceSink::new();
            let t = if traced {
                t.with_tracing(sink.clone(), obs::TraceConfig::default())
            } else {
                t
            };
            let run = t.run_sim(SimConfig::seeded(11));
            (run, sorted(&out), obs::trace_jsonl(&sink.collect()))
        };
        let (a, va, ta) = run_once(true);
        let (b, vb, tb) = run_once(true);
        assert_eq!(ta, tb, "same seed must produce a byte-identical trace");
        assert!(!ta.is_empty());
        // Every pipeline stage the topology exercises shows up.
        for span in ["dispatch", "deliver", "execute"] {
            assert!(
                ta.contains(&format!("\"span\":\"{span}\"")),
                "missing {span}"
            );
        }
        assert_eq!(a.transcript, b.transcript);
        assert_eq!(va, vb);
        // Tracing is purely observational: disabling it changes neither
        // the transcript nor the output.
        let (c, vc, tc) = run_once(false);
        assert_eq!(a.transcript, c.transcript);
        assert_eq!(va, vc);
        assert!(tc.is_empty());
    }

    #[test]
    fn run_with_dispatches_to_both_schedulers() {
        let build = || {
            let mut t = Topology::new();
            t.spout("src", (0..10u64).map(N));
            let out = t.collector("sink");
            t.wire("src", "sink", Grouping::global());
            (t, out)
        };
        let (t, out) = build();
        t.run_with(Scheduler::Threads);
        assert_eq!(out.lock().len(), 10);
        let (t, out) = build();
        t.run_with(Scheduler::Sim(SimConfig::seeded(0)));
        assert_eq!(out.lock().len(), 10);
    }
}
