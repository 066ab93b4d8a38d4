//! Deterministic single-threaded simulation of a topology.
//!
//! The thread-per-task executor ([`Topology::run`]) is faithful to real
//! deployments but nondeterministic: the OS scheduler decides every
//! interleaving, so a failing fault test cannot be replayed bit for bit.
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
//! * **Crashes included.** `FaultPlan` crashes, their restarts and the
//!   replay/checkpoint recovery built on them run unmodified — they are
//!   deterministic per seed; the scheduler removes the last source of
//!   nondeterminism, the interleaving. Wires are the same reliable FIFO
//!   channels as under threads: link loss is a property of the cluster's
//!   sessions, not of a topology.
//! * **One task setup.** Both executors build their tasks and assemble
//!   their [`RunReport`] through the same code; only the channels
//!   (unbounded here) and the driving loop differ.
//!
//! Every scheduler decision is recorded in a [`Transcript`]: same seed ⇒
//! byte-identical transcript, so a failure reproduces from its seed alone
//! and a diff of two transcripts pinpoints the first diverging step.
//!
//! ```
//! use stormlite::{Grouping, Message, SimConfig, Topology};
//!
//! struct Num(u64);
//! impl Message for Num {}
//!
//! let build = || {
//!     let mut t = Topology::new();
//!     t.spout("src", (0..10u64).map(Num));
//!     let out = t.collector("sink");
//!     t.wire("src", "sink", Grouping::global());
//!     (t, out)
//! };
//! let (t1, out1) = build();
//! let (t2, out2) = build();
//! let a = t1.run_sim(SimConfig::seeded(7));
//! let b = t2.run_sim(SimConfig::seeded(7));
//! assert_eq!(a.transcript, b.transcript); // bit-for-bit replay
//! assert_eq!(out1.lock().len(), out2.lock().len());
//! ```

use crate::clock::Clock;
use crate::message::{Envelope, Message};
use crate::metrics::RunReport;
use crate::topology::{report, TaskKind, Topology};
use crossbeam::channel::unbounded;
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
    /// Per-task metrics and restarts, as from [`Topology::run`];
    /// `elapsed` and every latency histogram measure *virtual* time.
    pub report: RunReport,
    /// The deterministic decision log of this run.
    pub transcript: Transcript,
}

/// SplitMix64 finalizer.
pub(crate) fn mix(seed: u64) -> u64 {
    let mut z = seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

/// Runs the topology to completion under the simulation scheduler.
pub(crate) fn execute<M: Message>(topology: Topology<'_, M>, cfg: SimConfig) -> SimRun {
    let clock = Clock::virtual_start();
    // Unbounded input channels: a single-threaded scheduler must never
    // block on a full queue (the consumer could not run concurrently).
    // Backpressure is irrelevant here — the scheduler controls all rates.
    let (mut tasks, sink) = topology.into_tasks(&clock, unbounded);
    for t in &mut tasks {
        if let TaskKind::Bolt { core, .. } = &mut t.kind {
            core.build();
        }
    }
    // EOS sent: the task no longer schedules.
    let mut done = vec![false; tasks.len()];

    let mut rng = SimRng::new(cfg.seed);
    let mut lines: Vec<String> = Vec::new();
    let mut step: u64 = 0;
    loop {
        // A spout can always attempt a pull (exhaustion is discovered by
        // the pull itself); a bolt runs when it has a queued envelope.
        let runnable: Vec<usize> = (0..tasks.len())
            .filter(|&i| {
                !done[i]
                    && match &tasks[i].kind {
                        TaskKind::Spout { .. } => true,
                        TaskKind::Bolt { rx, .. } => !rx.is_empty(),
                    }
            })
            .collect();
        if runnable.is_empty() {
            // Every task sends EOS when it finishes, so with a validated
            // (chained, EOS-counted) topology nothing is left waiting.
            let stuck: Vec<String> = tasks
                .iter()
                .zip(&done)
                .filter(|(_, &done)| !done)
                .map(|(t, _)| format!("{}/{}", t.name, t.index))
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
        if let TaskKind::Bolt { core, rx } = &mut t.kind {
            let envelope = rx.try_recv().expect("runnable bolt has queued input");
            let desc = match &envelope {
                Envelope::Data(..) => "data",
                Envelope::Eos => "eos",
            };
            done[pick] = core.handle(envelope, &mut t.outbox);
            lines.push(format!("{step} t={now_ns} {}/{} {desc}", t.name, t.index));
            if done[pick] {
                lines.push(format!("{step} t={now_ns} {}/{} finish", t.name, t.index));
            }
        } else {
            done[pick] = !t.pull();
            let desc = if done[pick] { "exhausted" } else { "pull" };
            lines.push(format!("{step} t={now_ns} {}/{} {desc}", t.name, t.index));
        }
        if done[pick] {
            // The wires are FIFO: EOS cannot overtake what the task emitted.
            t.outbox.send_eos();
            lines.push(format!("{step} t={now_ns} {}/{} eos-out", t.name, t.index));
        }
    }

    let ends = tasks.into_iter().map(|t| t.end(sink.as_ref())).collect();
    SimRun {
        report: report(ends, &clock),
        transcript: Transcript { lines },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::grouping::Grouping;
    use crate::message::Outbox;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[derive(Debug, PartialEq)]
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

    /// Alternates values between the two relay tasks.
    struct Split;
    impl crate::message::Bolt<N> for Split {
        fn execute(&mut self, msg: N, out: &mut Outbox<N>) {
            out.emit_direct((msg.0 % 2) as usize, msg);
        }
    }

    fn pipeline(n: u64, fault_plan: FaultPlan) -> (Topology<'static, N>, Arc<Mutex<Vec<N>>>) {
        let mut t = Topology::new().with_fault_plan(fault_plan);
        t.spout("src", (0..n).map(N));
        t.bolt("split", 1, |_| Split);
        t.bolt("relay", 2, |_| AddOne);
        let out = t.collector("sink");
        t.wire("src", "split", Grouping::global());
        t.wire("split", "relay", Grouping::direct());
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
        assert_eq!(run.report.restarts, vec![("relay".to_owned(), 0, 1)]);
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
