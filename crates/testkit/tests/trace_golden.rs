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

use obs::{MetricValue, MetricsSnapshot};
use ssj_core::{JoinConfig, Window};
use ssj_distrib::{ClusterBackend, Fault, FaultKind, LocalAlgo, PartitionMethod, Strategy};
use std::time::Duration;
use testkit::{
    reference_trace_run, reference_traceable_run, run_cluster_differential, with_deadline,
    DifferentialCase,
};

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
    assert!(traced.trace.is_some());
}

/// Every metric family of `snap` renders exactly one HELP and one TYPE
/// line.
fn assert_one_header_per_family(snap: &MetricsSnapshot) {
    let text = obs::prometheus(snap);
    for name in snap.names() {
        for kind in ["HELP", "TYPE"] {
            assert_eq!(
                text.matches(&format!("# {kind} {name} ")).count(),
                1,
                "{name} must have exactly one {kind} line"
            );
        }
    }
}

#[test]
fn exported_metrics_schema_is_complete_and_stable() {
    let run = reference_trace_run(GOLDEN_SEED);
    let snap = run.report.metrics_snapshot();
    let text = obs::prometheus(&snap);
    assert_one_header_per_family(&snap);
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
            "dssj_checkpoints_total",
            "dssj_checkpoint_bytes_total",
            "dssj_queue_wait_ns",
            "dssj_checkpoint_latency_ns",
            "dssj_barrier_stall_ns",
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
        // A run in which a task panicked returns no report, so there is
        // no failed task or poisoned tuple left to count.
        "dssj_dropped_poisoned_total",
        "dssj_task_failures_total",
    ] {
        assert!(!text.contains(gone), "{gone} has no source any more");
    }
    // Rendering is a pure function of the snapshot.
    assert_eq!(text, obs::prometheus(&snap));
}

#[test]
fn cluster_metrics_schema_is_complete_and_stable() {
    // A faulted in-process cluster: an inbound frame of task 0 is flipped
    // (rejected as corrupt) and task 1 crashes; with no recovery budget
    // set, both are respawned.
    let case = DifferentialCase::new(
        150,
        3,
        JoinConfig::jaccard(0.7).with_window(Window::Count(60)),
        LocalAlgo::bundle(),
        Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 50,
        },
    )
    .with_fault(Fault {
        task: 0,
        after: 12,
        kind: FaultKind::Corrupt {
            len: 2,
            inbound: true,
        },
    })
    .with_fault(Fault::crash(1, 10));
    let out = with_deadline(Duration::from_secs(120), move || {
        run_cluster_differential(37, &case, ClusterBackend::InProcess)
    });
    let snap = out.result.metrics_snapshot();
    assert_one_header_per_family(&snap);
    assert_eq!(
        snap.names(),
        [
            "dssj_cluster_pairs_total",
            "dssj_cluster_records_total",
            "dssj_cluster_shed_records_total",
            "dssj_cluster_dup_results_dropped_total",
            "dssj_cluster_retransmissions_total",
            "dssj_cluster_routed_messages_total",
            "dssj_cluster_data_frames_total",
            "dssj_cluster_frames_sent_total",
            "dssj_cluster_wire_flushes_total",
            "dssj_cluster_epochs_committed_total",
            "dssj_cluster_heartbeats_sent_total",
            "dssj_cluster_health_acks_total",
            "dssj_cluster_suspects_total",
            "dssj_cluster_respawns_total",
            "dssj_cluster_stalled_frames_total",
            "dssj_cluster_partition_dropped_frames_total",
            "dssj_cluster_corrupt_frames_total",
            "dssj_cluster_corrupt_snapshots_total",
            "dssj_cluster_corrupt_snapshot_parts_total",
            "dssj_cluster_corrupt_manifests_total",
            "dssj_cluster_quarantined_epochs_total",
            "dssj_cluster_wire_closes_total",
            "dssj_cluster_joiners",
            "dssj_cluster_restore_fallback_depth",
            "dssj_cluster_result_latency",
            "dssj_cluster_detection_latency",
            "dssj_cluster_stage_latency",
        ]
    );
    let value = |name: &str| {
        let sample = snap.samples.iter().find(|s| s.name == name).unwrap();
        match sample.value {
            MetricValue::Counter(v) => v as i64,
            MetricValue::Gauge(v) => v,
            MetricValue::Histogram(_) => unreachable!("{name} is not a histogram"),
        }
    };
    // The faults fired, so their families carry the values the stage
    // histogram no longer copies.
    assert!(
        value("dssj_cluster_respawns_total") > 0,
        "no task was respawned"
    );
    assert!(
        value("dssj_cluster_corrupt_frames_total") > 0,
        "no frame was rejected"
    );
    for sample in snap
        .samples
        .iter()
        .filter(|s| s.name == "dssj_cluster_stage_latency")
    {
        let stage = &sample.labels[0].1;
        assert!(
            [
                "dispatch",
                "route",
                "deliver",
                "emit",
                "checkpoint",
                "recover"
            ]
            .contains(&stage.as_str()),
            "stage label {stage} has no launcher-side recorder"
        );
    }
    let text = obs::prometheus(&snap);
    assert!(
        !text.contains("dssj_cluster_fenced_tasks"),
        "dssj_cluster_fenced_tasks has no source any more"
    );
}

#[test]
#[ignore = "rewrites the golden trace; run only after an intentional instrumentation change"]
fn regenerate_trace() {
    let got = render(&reference_trace_run(GOLDEN_SEED));
    std::fs::write(trace_golden_path(), got).expect("write golden trace");
}
