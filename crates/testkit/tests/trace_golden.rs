//! Golden-trace regression: the structured trace of the traced reference
//! run must render byte-identically, forever.
//!
//! The JSONL trace is the observability counterpart of the golden
//! transcript: every span's virtual-clock timestamp, operands, and the
//! deterministic per-task flush order are frozen by the committed file.
//! Any change that perturbs the schedule, adds or drops an instrumentation
//! point, or alters the exporter's formatting breaks this test loudly.
//! After an *intentional* change, regenerate with
//!
//! ```text
//! cargo test -p testkit --test trace_golden regenerate_trace -- --ignored
//! ```
//!
//! and review the diff like any other golden-file change.

use testkit::{reference_trace_run, reference_traceable_run};

const GOLDEN_SEED: u64 = 7;
const GOLDEN_TRACE: &str = include_str!("../golden/trace_seed7.jsonl");

fn trace_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/trace_seed7.jsonl")
}

fn render(run: &ssj_distrib::DistributedJoinResult) -> String {
    obs::trace_jsonl(run.trace.as_ref().expect("traced run records a trace"))
}

#[test]
fn golden_trace_renders_byte_identical() {
    let got = render(&reference_trace_run(GOLDEN_SEED));
    if got != GOLDEN_TRACE {
        let first = GOLDEN_TRACE
            .lines()
            .zip(got.lines())
            .position(|(a, b)| a != b);
        panic!(
            "trace diverged from the committed golden (first differing line: {first:?}, \
             golden {} lines, got {}).\nIf the change is intentional, regenerate with\n  \
             cargo test -p testkit --test trace_golden regenerate_trace -- --ignored",
            GOLDEN_TRACE.lines().count(),
            got.lines().count()
        );
    }
}

#[test]
fn two_traced_runs_render_byte_identical() {
    let a = render(&reference_trace_run(GOLDEN_SEED));
    let b = render(&reference_trace_run(GOLDEN_SEED));
    assert_eq!(a, b, "same seed must render the exact same trace");
    assert!(!a.is_empty());
}

#[test]
fn disabling_instrumentation_changes_nothing_but_the_trace() {
    let traced = reference_traceable_run(GOLDEN_SEED, true);
    let plain = reference_traceable_run(GOLDEN_SEED, false);
    // Tracing is observation-only: the schedule (transcript), the results,
    // and the run counters are identical with and without it.
    assert_eq!(
        traced.transcript, plain.transcript,
        "tracing must not perturb the simulated schedule"
    );
    let keys = |r: &ssj_distrib::DistributedJoinResult| {
        let mut k: Vec<_> = r.pairs.iter().map(|m| m.key()).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(keys(&traced), keys(&plain));
    assert_eq!(
        obs::prometheus(&traced.report.metrics_snapshot()),
        obs::prometheus(&plain.report.metrics_snapshot()),
        "run counters must not depend on tracing"
    );
    // And the disabled run carries no observability state at all.
    assert!(plain.trace.is_none());
    assert!(plain.stages.is_empty());
    assert!(traced.trace.is_some());
}

#[test]
fn exported_metrics_schema_is_complete_and_stable() {
    let run = reference_trace_run(GOLDEN_SEED);
    let snap = run.report.metrics_snapshot();
    let text = obs::prometheus(&snap);
    // Every metric family appears exactly once, with HELP before TYPE.
    for name in snap.names() {
        assert_eq!(
            text.matches(&format!("# TYPE {name} ")).count(),
            1,
            "{name} must have exactly one TYPE line"
        );
        assert_eq!(
            text.matches(&format!("# HELP {name} ")).count(),
            1,
            "{name} must have exactly one HELP line"
        );
    }
    // Exactly these families, in this order: what dashboards key on.
    assert_eq!(
        snap.names(),
        [
            "dssj_msgs_in_total",
            "dssj_msgs_out_total",
            "dssj_bytes_in_total",
            "dssj_bytes_out_total",
            "dssj_busy_ns_total",
            "dssj_shed_total",
            "dssj_dropped_poisoned_total",
            "dssj_checkpoints_total",
            "dssj_checkpoint_bytes_total",
            "dssj_queue_wait_ns",
            "dssj_checkpoint_latency_ns",
            "dssj_barrier_stall_ns",
            "dssj_task_failures_total",
            "dssj_task_restarts_total",
            "dssj_corrupt_frames_total",
            "dssj_corrupt_snapshot_parts_total",
            "dssj_corrupt_manifests_total",
            "dssj_quarantined_epochs_total",
            "dssj_restore_fallback_depth",
            "dssj_run_elapsed_ns",
        ]
    );
    // Topology wires are reliable FIFO: the retry / dedup / link-fault
    // families went with the in-topology protocol that fed them (a
    // cluster run reports its session counters in `HealthReport`).
    for gone in [
        "dssj_retries_total",
        "dssj_dup_drops_total",
        "dssj_link_dropped_total",
        "dssj_link_duped_total",
        "dssj_link_delayed_total",
        "dssj_max_backoff_ns",
    ] {
        assert!(!text.contains(gone), "{gone} has no source any more");
    }
    // Rendering is a pure function of the snapshot.
    assert_eq!(text, obs::prometheus(&snap));
}

#[test]
#[ignore = "rewrites the golden trace; run only after an intentional instrumentation change"]
fn regenerate_trace() {
    let got = render(&reference_trace_run(GOLDEN_SEED));
    std::fs::write(trace_golden_path(), got).expect("write golden trace");
}
