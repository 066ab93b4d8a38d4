//! Transcript recording and diffing for golden-run regression tests.
//!
//! A [`Transcript`] is the full interleaving record
//! of a simulated run. [`reference_run`] executes a fixed topology —
//! exercising a crash and the virtual clock — whose transcript for a given
//! seed is *frozen*: a golden copy is committed under
//! `crates/testkit/golden/` and the regression test asserts byte-identical
//! replay. Any change to scheduler order, fault decisions, or transcript
//! formatting shows up as a diff against the golden file, with [`diff`]
//! pinpointing the first divergent step.

use stormlite::{FaultPlan, Grouping, SimConfig, SimRun, Topology};

pub use stormlite::Transcript;

/// The fixed simulated chain behind the golden transcripts: a 40-tuple
/// source feeding one worker task that carries a seeded crash, and a sink.
/// Small enough to read by hand, rich enough to cover every transcript
/// event kind.
pub fn reference_run(seed: u64) -> SimRun {
    struct Val(u64);
    impl stormlite::Message for Val {}

    struct Double;
    impl stormlite::Bolt<Val> for Double {
        fn execute(&mut self, msg: Val, out: &mut stormlite::Outbox<Val>) {
            out.emit(Val(msg.0 * 2));
        }
    }

    let mut t: Topology<Val> = Topology::new();
    t.spout("source", (0..40u64).map(Val));
    t.bolt("double", 1, |_| Double);
    let _collected = t.collector("sink");
    t.wire("source", "double", Grouping::global());
    t.wire("double", "sink", Grouping::global());
    t = t.with_fault_plan(FaultPlan::new().crash_seeded("double", 1, 15, seed));
    t.run_sim(SimConfig::seeded(seed))
}

/// The checkpointed counterpart of [`reference_run`]: the full distributed
/// join topology under simulation with epoch checkpointing and a seeded
/// joiner crash active at once. Its transcript freezes the
/// barrier/snapshot machinery's scheduling — epoch injection points,
/// snapshot publishes, replay-buffer truncation — on top of everything the
/// plain reference run covers.
pub fn reference_checkpoint_run(seed: u64) -> ssj_distrib::DistributedJoinResult {
    reference_traceable_run(seed, false)
}

/// The traced counterpart of [`reference_checkpoint_run`]: the identical
/// topology, workload, faults and seed, with structured tracing enabled.
/// Rendering its [`obs::RunTrace`] through [`obs::trace_jsonl`] must be
/// byte-identical for a given seed — the trace is golden-diffable exactly
/// like the transcript — and because tracing is observation-only, the
/// run's transcript and results must equal the untraced run's.
pub fn reference_trace_run(seed: u64) -> ssj_distrib::DistributedJoinResult {
    reference_traceable_run(seed, true)
}

/// [`reference_checkpoint_run`] with tracing switchable, so the
/// disabled-instrumentation regression test can compare the two paths.
pub fn reference_traceable_run(seed: u64, traced: bool) -> ssj_distrib::DistributedJoinResult {
    use ssj_core::JoinConfig;
    use ssj_distrib::{
        CheckpointConfig, DistributedJoinConfig, JoinSpec, LocalAlgo, PartitionMethod, Strategy,
        TraceConfig,
    };
    use ssj_workloads::StreamGenerator;

    let records =
        StreamGenerator::new(crate::differential::differential_profile(), seed).take_records(120);
    let spec = JoinSpec {
        local: LocalAlgo::PpJoin,
        strategy: Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 40,
        },
        checkpoint: Some(CheckpointConfig::in_memory(25)),
        ..JoinSpec::recommended(2, JoinConfig::jaccard(0.7))
    };
    let cfg = DistributedJoinConfig {
        channel_capacity: 32,
        fault: Some(stormlite::FaultPlan::new().crash_seeded("joiner", 2, 40, seed)),
        scheduler: stormlite::Scheduler::Sim(SimConfig::seeded(seed)),
        trace: traced.then(TraceConfig::default),
        ..DistributedJoinConfig::new(spec)
    };
    ssj_distrib::run_distributed(&records, &cfg)
}

/// Human-readable report of the first divergence between two transcripts,
/// with three lines of context on each side; `None` when identical.
pub fn diff(a: &Transcript, b: &Transcript) -> Option<String> {
    let at = a.first_divergence(b)?;
    let context = |t: &Transcript, label: &str| {
        let lines = t.lines();
        let lo = at.saturating_sub(3);
        let hi = (at + 1).min(lines.len());
        let mut s = format!("{label} (lines {lo}..{hi} of {}):\n", lines.len());
        for (i, line) in lines.iter().enumerate().take(hi).skip(lo) {
            let marker = if i == at { ">>" } else { "  " };
            s.push_str(&format!("{marker} {i:5} {line}\n"));
        }
        s
    };
    Some(format!(
        "transcripts diverge at line {at}\n{}{}",
        context(a, "left"),
        context(b, "right")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_run_is_deterministic() {
        let a = reference_run(7);
        let b = reference_run(7);
        assert_eq!(a.transcript.to_text(), b.transcript.to_text());
        assert_eq!(a.report.elapsed, b.report.elapsed);
    }

    #[test]
    fn different_seeds_diverge_and_diff_reports_where() {
        let a = reference_run(1);
        let b = reference_run(2);
        let report = diff(&a.transcript, &b.transcript).expect("seeds 1/2 should diverge");
        assert!(report.contains("diverge at line"));
        assert!(diff(&a.transcript, &a.transcript).is_none());
    }
}
